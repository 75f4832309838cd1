//! Integration tests of the `SeerEngine` service layer through the facade
//! crate: plan-cache semantics and cross-thread sharing.

use std::sync::Arc;

use seer::core::training::TrainingConfig;
use seer::gpu::Gpu;
use seer::sparse::collection::{generate, CollectionConfig, SizeScale};
use seer::SeerEngine;

fn trained_engine() -> (SeerEngine, Vec<seer::sparse::collection::DatasetEntry>) {
    let entries = generate(&CollectionConfig {
        seed: 13,
        matrices_per_family: 2,
        scale: SizeScale::Tiny,
    });
    let (engine, _outcome) = SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast())
        .expect("training succeeds");
    (engine, entries)
}

#[test]
fn cached_selection_is_bit_identical_and_counted() {
    let (engine, entries) = trained_engine();
    let matrix = &entries[0].matrix;

    let fresh = engine.select(matrix, 19);
    let cached = engine.select(matrix, 19);
    assert_eq!(fresh, cached, "cache replay must be bit-identical");
    assert_eq!(
        fresh.feature_collection_cost,
        cached.feature_collection_cost
    );
    assert_eq!(fresh.inference_overhead, cached.inference_overhead);

    let stats = engine.stats();
    assert_eq!(stats.plan_hits, 1);
    assert_eq!(stats.plan_misses, 1);
    // The replay charged no additional feature collection: at most the one
    // collection performed by the fresh selection was ever run.
    assert!(stats.feature_collections <= 1);
}

#[test]
fn regenerated_matrix_misses_only_on_structural_change() {
    let (engine, entries) = trained_engine();
    let matrix = &entries[0].matrix;
    engine.select(matrix, 1);

    // A structurally identical clone replays the plan...
    engine.select(&matrix.clone(), 1);
    assert_eq!(engine.stats().plan_hits, 1);

    // ...and so does a different-seed regeneration of this entry: its
    // family's structure is seed-independent, so only the values (and with
    // them the content fingerprint) changed — selection plans are keyed on
    // the sparsity fingerprint, which is the whole point of the split.
    let other = generate(&CollectionConfig {
        seed: 14,
        matrices_per_family: 2,
        scale: SizeScale::Tiny,
    });
    assert_ne!(
        matrix.content_fingerprint(),
        other[0].matrix.content_fingerprint(),
        "different seeds should generate different values"
    );
    assert_eq!(
        matrix.sparsity_fingerprint(),
        other[0].matrix.sparsity_fingerprint(),
        "this family's structure is seed-independent"
    );
    engine.select(&other[0].matrix, 1);
    assert_eq!(engine.stats().plan_hits, 2);
    assert_eq!(engine.stats().plan_misses, 1);

    // A regenerated matrix whose *sparsity pattern* differs must miss.
    let structural = other
        .iter()
        .find(|e| e.matrix.sparsity_fingerprint() != matrix.sparsity_fingerprint())
        .expect("the collection has random-structure families");
    engine.select(&structural.matrix, 1);
    let stats = engine.stats();
    assert_eq!(stats.plan_misses, 2);
    assert_eq!(stats.plan_hits, 2);
}

#[test]
fn engine_serves_identical_plans_from_two_threads() {
    let (engine, entries) = trained_engine();
    let engine = Arc::new(engine);
    let matrix = entries[0].matrix.clone();

    let workers: Vec<_> = (0..2)
        .map(|_| {
            let engine = Arc::clone(&engine);
            let matrix = matrix.clone();
            std::thread::spawn(move || {
                (0..16)
                    .map(|i| engine.select(&matrix, 1 + (i % 2) * 18))
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let results: Vec<Vec<_>> = workers.into_iter().map(|w| w.join().unwrap()).collect();
    assert_eq!(results[0], results[1]);

    let stats = engine.stats();
    assert_eq!(stats.plan_hits + stats.plan_misses, 32);
    // Two iteration counts on one matrix: at most one racing miss per thread
    // and per key, and the cache ends up with exactly two plans.
    assert!(stats.plan_misses <= 4);
    assert_eq!(engine.cached_plans(), 2);
    assert_eq!(stats.misprediction_fallbacks, 0);
}
