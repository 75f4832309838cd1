//! Integration tests of the routing stage: a routed multi-device pool stays
//! bit-identical to a sequential fleet replay, a device retire racing the
//! routing worker re-homes every in-stage ticket onto survivors without a
//! single hang, and the front-door balance identity holds with the stage in
//! the path.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::wait_bounded;
use seer::core::training::TrainingConfig;
use seer::gpu::{Fleet, Gpu};
use seer::sparse::collection::{generate, CollectionConfig};
use seer::sparse::traffic::{TrafficConfig, TrafficGenerator, TrafficRequest};
use seer::sparse::CsrMatrix;
use seer::{PoolConfig, RoutingConfig, SeerEngine, ServingPool, ServingRequest};

fn three_device_fleet() -> Fleet {
    Fleet::of_specs(Fleet::reference_presets().into_iter().take(3)).expect("presets validate")
}

fn trained_corpus() -> (SeerEngine, Vec<Arc<CsrMatrix>>) {
    let entries = generate(&CollectionConfig::tiny());
    let (trained, _outcome) =
        SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
    let corpus = entries.iter().map(|e| Arc::new(e.matrix.clone())).collect();
    (trained, corpus)
}

/// A routed fleet pool serves a mixed stream bit-identically to a sequential
/// fleet engine, with every submit going through the O(1) stage and the
/// counter balance exact.
#[test]
fn routed_fleet_pool_matches_a_sequential_replay() {
    let (trained, corpus) = trained_corpus();
    let fleet = three_device_fleet();
    let stream: Vec<TrafficRequest> =
        TrafficGenerator::new(&TrafficConfig::fleet_mixed(corpus.len(), 0xB0057))
            .take(200)
            .collect();

    let pool = ServingPool::with_fleet(
        fleet.clone(),
        trained.models_handle(),
        PoolConfig::with_shards(2).with_routing(Some(RoutingConfig::default())),
    );
    let tickets: Vec<_> = stream
        .iter()
        .map(|r| {
            pool.submit(ServingRequest::select(
                Arc::clone(&corpus[r.matrix_index]),
                r.iterations,
            ))
        })
        .collect();
    // Placement is the routing worker's job: submit never named a shard.
    assert!(tickets.iter().all(|t| t.shard() == usize::MAX));
    let pooled: Vec<_> = tickets
        .into_iter()
        .map(|t| wait_bounded(t).expect("healthy routed pool"))
        .collect();

    let replay = SeerEngine::with_fleet(fleet, trained.models_handle());
    for (index, (request, response)) in stream.iter().zip(&pooled).enumerate() {
        let expected = replay.select(&corpus[request.matrix_index], request.iterations);
        assert_eq!(
            response.selection, expected,
            "routed request {index} diverged from the sequential fleet replay"
        );
    }

    let stats = pool.shutdown();
    assert_eq!(stats.routing.routed_async, stream.len() as u64);
    assert_eq!(stats.routing.submit.count(), stream.len() as u64);
    assert_eq!(stats.routing.in_stage, 0);
    assert_eq!(stats.routing.stage_closed, 0);
    assert_eq!(stats.offered(), stream.len() as u64);
    assert_eq!(stats.served(), stream.len() as u64);
    assert_eq!(stats.shed() + stats.expired() + stats.failed(), 0);
    assert_eq!(stats.queue_depth(), 0);
}

/// Batched execution through a routed pool returns numerically identical
/// results to a sequential engine, burst by burst.
#[test]
fn routed_burst_execution_is_bit_identical() {
    let (trained, corpus) = trained_corpus();
    let pool = ServingPool::from_engine(
        &trained,
        PoolConfig::with_shards(2).with_routing(Some(RoutingConfig::default())),
    );
    let replay =
        SeerEngine::with_fleet(Fleet::single(trained.gpu_handle()), trained.models_handle());

    // Bursts of identical requests: prime coalescing without a gate.
    let mut expected = Vec::new();
    let mut tickets = Vec::new();
    for round in 0..5 {
        let matrix = Arc::clone(&corpus[round % corpus.len()]);
        let x = Arc::new(vec![1.0 + round as f64; matrix.cols()]);
        for _ in 0..8 {
            tickets.push(pool.submit(ServingRequest::execute(
                Arc::clone(&matrix),
                Arc::clone(&x),
                5,
            )));
            expected.push(replay.execute(&matrix, &x, 5));
        }
    }
    for (index, (ticket, reference)) in tickets.into_iter().zip(&expected).enumerate() {
        let response = wait_bounded(ticket).expect("healthy routed pool");
        assert_eq!(response.selection, reference.selection);
        assert_eq!(
            response.result.as_deref(),
            Some(reference.result.as_slice()),
            "burst execute {index} diverged numerically"
        );
    }
    let stats = pool.shutdown();
    assert_eq!(stats.served(), 40);
    assert_eq!(stats.failed(), 0);
    assert_eq!(
        stats.served() + stats.shed() + stats.expired() + stats.failed(),
        stats.offered()
    );
}

/// A device retire racing the routing worker: in-stage and queued work is
/// re-homed onto survivors, every ticket resolves, and the pool keeps
/// serving afterwards.
#[test]
fn retire_racing_the_routing_worker_rehomes_every_ticket() {
    let (trained, corpus) = trained_corpus();
    let fleet = three_device_fleet();
    let victim = fleet.devices()[2].id();
    let pool = Arc::new(ServingPool::with_fleet(
        fleet.clone(),
        trained.models_handle(),
        PoolConfig::with_shards(2).with_routing(Some(RoutingConfig::default())),
    ));

    // A continuous submitter stream racing the retire.
    let submitter = {
        let pool = Arc::clone(&pool);
        let corpus: Vec<Arc<CsrMatrix>> = corpus.clone();
        std::thread::spawn(move || {
            let mut tickets = Vec::new();
            for i in 0..300 {
                tickets.push(pool.submit(ServingRequest::select(
                    Arc::clone(&corpus[i % corpus.len()]),
                    19,
                )));
                if i % 16 == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            tickets
        })
    };
    std::thread::sleep(Duration::from_millis(5));
    pool.retire_device(victim).expect("victim was live");

    let tickets = submitter.join().expect("submitter thread");
    // Work submitted after the retire completed must never see the victim.
    let post_retire = pool.submit_batch(
        (0..40).map(|i| ServingRequest::select(Arc::clone(&corpus[i % corpus.len()]), 19)),
    );
    let total = tickets.len() as u64 + post_retire.len() as u64;
    for ticket in tickets {
        // Every racing ticket resolves typed — Ok (possibly on the victim,
        // if it was served before the retire) or a typed error from the
        // race window — never a hang.
        let _ = wait_bounded(ticket);
    }
    for (index, ticket) in post_retire.into_iter().enumerate() {
        let response = wait_bounded(ticket).expect("survivors serve post-retire work");
        assert_ne!(
            response.selection.device, victim,
            "post-retire request {index} served on the retired device"
        );
    }
    let stats = Arc::into_inner(pool)
        .expect("submitter joined, no other owners")
        .shutdown();
    assert_eq!(stats.routing.in_stage, 0);
    assert_eq!(
        stats.served() + stats.shed() + stats.expired() + stats.failed(),
        stats.offered()
    );
    assert_eq!(stats.offered(), total);
    assert_eq!(stats.queue_depth(), 0);
}
