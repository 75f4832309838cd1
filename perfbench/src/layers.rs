//! The per-layer metrics of a traced run, named after the program's
//! modules (see the table in the crate docs for what each should move).

use seer_core::serving::{PoolStats, Priority, LATENCY_BUCKETS};

use crate::report::{peak_rss_mb, Metric};
use crate::stats::{self, mean, quantile, ratio, sorted_us, Spread};
use crate::trace::{self, KernelSweep, Span};
use crate::{cores, Args, ModeTotals, Totals};

/// Labels of `KernelId::ALL`, in order, as used in metric names.
const KERNEL_NAMES: [&str; 8] = [
    "csr_a", "csr_bm", "csr_mp", "csr_wm", "csr_wo", "csr_tm", "coo_wm", "ell_tm",
];

/// What a traced run measured, for [`layer_metrics`].
pub struct LayerInputs<'a> {
    pub args: &'a Args,
    pub spans: &'a [Span],
    pub totals: &'a Totals,
    pub sweep: &'a KernelSweep,
    /// Untraced, traced and one-in-flight pool replays.
    pub modes: &'a [ModeTotals; 3],
    pub seq: &'a ModeTotals,
    /// Per request: the decomposed path minus its kernel span, in ns.
    pub overheads: &'a [f64],
    /// Per request: one-in-flight pool latency minus engine latency, in us.
    pub hops: &'a [f64],
    /// Share of the decomposed requests whose plan is materialized.
    pub materialized_share: f64,
    pub steal_share: f64,
    pub sim_vs_oracle: f64,
    pub pool_before: &'a PoolStats,
    pub pool_after: &'a PoolStats,
    /// Nonzeros of the matrices the decomposed kernel spans ran on.
    pub nnz: f64,
}

/// The per-layer metrics, in the order `BENCHMARK.json` lists them. A
/// metric whose layer the workload's requests never reach reads 0.
pub fn layer_metrics(input: LayerInputs<'_>) -> Vec<Metric> {
    let cold = input.args.workload.is_cold();
    let self_times = trace::self_times(input.spans);
    let mean_ns = |name: &str| {
        self_times
            .get(name)
            .map_or(0.0, |&(total, count)| ratio(total as f64, count as f64))
    };
    let total_ns = |name: &str| self_times.get(name).map_or(0.0, |&(total, _)| total as f64);
    let only = |on: bool, value: f64| if on { value } else { 0.0 };
    let median = |values: &[f64]| Spread::of(values).median;
    let (before, after) = (input.pool_before, input.pool_after);
    let mut m = Vec::new();
    let mut put = |name: &str, unit: &'static str, value: f64| {
        m.push(Metric::single(name, unit, value));
    };

    put(
        "sparse.fingerprint_us",
        "us",
        mean_ns("sparse.fingerprint") / 1e3,
    );
    put("sparse.profile_us", "us", mean_ns("sparse.profile") / 1e3);
    put(
        "features.collect_us",
        "us",
        mean_ns("features.collect") / 1e3,
    );
    let predicts = ["ml.predict_known", "ml.predict_gathered"].map(&mean_ns);
    put(
        "ml.predict_ns",
        "ns",
        mean(predicts.into_iter().filter(|&v| v > 0.0)),
    );

    let sweep = input.sweep;
    for (name, ns) in KERNEL_NAMES.iter().zip(&sweep.ns_per_nnz) {
        put(&format!("kernels.{name}.ns_per_nnz"), "ns/nnz", *ns);
    }
    put(
        "kernels.csr_floor.ns_per_nnz",
        "ns/nnz",
        sweep.floor_ns_per_nnz,
    );
    for (name, ns) in KERNEL_NAMES.iter().zip(&sweep.ns_per_nnz) {
        let vs_floor = ratio(*ns, sweep.floor_ns_per_nnz);
        put(&format!("kernels.{name}.vs_csr_floor"), "ratio", vs_floor);
    }
    let selected: u64 = input.totals.selected.iter().sum();
    for (name, count) in KERNEL_NAMES.iter().zip(&input.totals.selected) {
        let share = ratio(*count as f64, selected as f64);
        put(&format!("kernels.{name}.selected_share"), "ratio", share);
    }
    let compute = total_ns("kernels.compute_prepared_into");
    put(
        "kernels.selected_ns_per_nnz",
        "ns/nnz",
        ratio(compute, input.nnz),
    );
    let requests_ns: f64 = input
        .spans
        .iter()
        .filter(|s| s.name == "seq.request")
        .map(|s| s.duration_ns() as f64)
        .sum();
    put(
        "kernels.compute_share",
        "ratio",
        ratio(compute, requests_ns),
    );
    put("kernels.prepare_us", "us", sweep.prepare_us);

    let select = mean_ns("engine.select");
    let pin = mean_ns("engine.prepared_plan_on");
    put("engine.select_hit_ns", "ns", only(!cold, select));
    put("engine.plan_pin_ns", "ns", only(!cold, pin));
    put("engine.execute_overhead_ns", "ns", median(input.overheads));
    put("engine.select_miss_us", "us", only(cold, select / 1e3));
    put("engine.prepare_us", "us", only(cold, pin / 1e3));
    let engine = after.engine().saturating_sub(before.engine());
    let per_request = |count: u64| ratio(count as f64, input.totals.attempted as f64);
    put("engine.plan_hit_rate", "ratio", engine.plan_hit_rate());
    put(
        "engine.profile_passes_per_req",
        "ratio",
        per_request(engine.profile_passes),
    );
    put(
        "engine.preparations_per_req",
        "ratio",
        per_request(engine.plan_preparations),
    );
    let collections = per_request(engine.feature_collections);
    put("engine.feature_collections_per_req", "ratio", collections);
    put(
        "engine.cache_evictions",
        "count",
        engine.cache_evictions as f64,
    );
    let resident_mb = after.engine().resident_plan_bytes as f64 / 1e6;
    put("engine.resident_plan_mb", "MB", resident_mb);
    put(
        "engine.materialized_plan_share",
        "ratio",
        input.materialized_share,
    );

    let [untraced, traced, _] = input.modes;
    put("serving.hop_us", "us", median(input.hops));
    let speedup = ratio(untraced.throughput(), input.seq.throughput());
    put("serving.pool_speedup", "ratio", speedup);
    let completed: Vec<u64> = after
        .shards
        .iter()
        .zip(&before.shards)
        .map(|(a, b)| a.completed - b.completed)
        .collect();
    let hottest = completed.iter().copied().max().unwrap_or(0) as f64;
    let hot_share = ratio(hottest, completed.iter().sum::<u64>() as f64);
    put("serving.hot_shard_share", "ratio", hot_share);
    let submits = sorted_us(&input.totals.submits);
    put("serving.submit_us_p50", "us", quantile(&submits, 0.5));
    put("serving.submit_us_p99", "us", quantile(&submits, 0.99));
    let mut waits = [0u64; LATENCY_BUCKETS];
    for class in Priority::ALL {
        let (a, b) = (
            after.latency.queue_wait(class),
            before.latency.queue_wait(class),
        );
        for (slot, (x, y)) in waits
            .iter_mut()
            .zip(a.bucket_counts().iter().zip(b.bucket_counts()))
        {
            *slot += x - y;
        }
    }
    put(
        "serving.queue_wait_us_p50",
        "us",
        stats::bucket_quantile_us(&waits, 0.5),
    );
    put(
        "serving.queue_wait_us_p99",
        "us",
        stats::bucket_quantile_us(&waits, 0.99),
    );
    let totals = input.totals;
    let ok = totals.ok as f64;
    let kernel_us = totals.sim_total_us - totals.sim_selection_us;
    put("gpu.sim_kernel_us_per_req", "us", ratio(kernel_us, ok));
    put(
        "gpu.sim_selection_us_per_req",
        "us",
        ratio(totals.sim_selection_us, ok),
    );
    put("gpu.sim_vs_oracle", "ratio", input.sim_vs_oracle);

    let trace_overhead = ratio(traced.throughput(), untraced.throughput());
    put("harness.trace_overhead", "ratio", trace_overhead);
    put("harness.cores", "count", cores() as f64);
    put("harness.peak_rss_mb", "MB", peak_rss_mb());
    put("harness.steal_share", "ratio", input.steal_share);
    put("failed_share", "ratio", totals.failed_share());
    m
}
