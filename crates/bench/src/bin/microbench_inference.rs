//! Plain-`std` microbenchmark of the runtime-selection hot paths: cold
//! selection, cached replay and the exhaustive Oracle.
//!
//! The Criterion benches under `benches/` cannot be compiled in this
//! environment (no registry access), so this binary keeps the inference-path
//! numbers reproducible — and the engine API usage compile-checked — with
//! nothing beyond `std::time`. Timings are wall-clock on the host; they back
//! the paper's claim that decision-tree inference overhead is negligible
//! next to kernel runtime.

use std::time::Instant;

use seer_core::engine::SeerEngine;
use seer_core::training::TrainingConfig;
use seer_gpu::Gpu;
use seer_kernels::Oracle;
use seer_sparse::collection::{generate, CollectionConfig};
use seer_sparse::{generators, CsrMatrix, SplitMix64};

/// Rebuilds the matrix from its raw parts so the copy starts with an empty
/// fingerprint cache — `clone()` would carry the memoized fingerprint along
/// and make a "first contact" measurement quietly warm.
fn without_fingerprint(matrix: &CsrMatrix) -> CsrMatrix {
    CsrMatrix::try_new(
        matrix.rows(),
        matrix.cols(),
        matrix.row_offsets().to_vec(),
        matrix.col_indices().to_vec(),
        matrix.values().to_vec(),
    )
    .expect("source matrix is valid")
}

fn time_per_call<F: FnMut()>(iterations: u32, mut f: F) -> f64 {
    let start = Instant::now();
    for _ in 0..iterations {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(iterations)
}

/// Times `f` per call with `setup` run before each call *outside* the timed
/// region, so cache-reset cost never pollutes the reported number.
fn time_per_call_with_setup<S: FnMut(), F: FnMut()>(
    iterations: u32,
    mut setup: S,
    mut f: F,
) -> f64 {
    let mut total = 0u128;
    for _ in 0..iterations {
        setup();
        let start = Instant::now();
        f();
        total += start.elapsed().as_nanos();
    }
    total as f64 / f64::from(iterations)
}

fn main() {
    let entries = generate(&CollectionConfig::tiny());
    let (engine, _outcome) = SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast())
        .expect("training succeeds");
    let oracle = Oracle::new(engine.gpu());

    let mut rng = SplitMix64::new(71);
    let matrices = vec![
        ("banded_20k", generators::banded(20_000, 3, &mut rng)),
        (
            "powerlaw_20k",
            generators::power_law(20_000, 1.9, 2_000, &mut rng),
        ),
    ];

    println!(
        "{:<14} {:>18} {:>16} {:>16} {:>14}",
        "matrix", "first contact (ns)", "cold select (ns)", "cached hit (ns)", "oracle (ns)"
    );
    for (name, matrix) in &matrices {
        // First contact: empty fingerprint cache AND empty plan cache, i.e.
        // what a request on a never-seen matrix actually pays. The cache
        // reset happens outside the timed region.
        let fresh: Vec<CsrMatrix> = (0..50).map(|_| without_fingerprint(matrix)).collect();
        let mut next = fresh.iter();
        let first_contact = time_per_call_with_setup(
            fresh.len() as u32,
            || engine.clear_caches(),
            || {
                let _ = engine.select(next.next().expect("one matrix per iteration"), 1);
            },
        );

        // Cold select: plan cache cleared (outside the timer) but the matrix
        // fingerprint already memoized — repeated traffic after an
        // engine-side cache flush.
        let cold = time_per_call_with_setup(
            100,
            || engine.clear_caches(),
            || {
                let _ = engine.select(matrix, 1);
            },
        );
        engine.select(matrix, 1);
        let cached = time_per_call(100_000, || {
            let _ = engine.select(matrix, 1);
        });
        let oracle_time = time_per_call(100, || {
            let _ = oracle.best_kernel(matrix, 1);
        });
        println!(
            "{name:<14} {first_contact:>18.0} {cold:>16.0} {cached:>16.0} {oracle_time:>14.0}"
        );
    }

    let stats = engine.stats();
    println!(
        "\ncounters: {} hits / {} misses / {} feature collections / {} fallbacks",
        stats.plan_hits,
        stats.plan_misses,
        stats.feature_collections,
        stats.misprediction_fallbacks
    );
}
