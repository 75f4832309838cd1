//! `perfbench` — the benchmark of the Seer serving stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm_skewed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run sets the stack up (train, build the pool, warm it), then replays
//! one workload (`warm_skewed` or `cold_fresh`, see [`inputs`]) for
//! `--seconds` of wall time in rounds. Each round is replayed twice: once
//! through one `SeerEngine::execute_into` loop on one thread (the
//! sequential oracle and the `seq_throughput_rps` baseline) and once
//! through the `ServingPool`, closed loop from one client thread per core
//! (the harness starts no other load-generating threads). Every pool
//! response must equal the oracle's bit for bit; any failure, unresolved
//! ticket or mismatch counts as failed and makes the run incorrect.
//!
//! With `--trace 0` the run reports the end-to-end metrics, each the median
//! over windows of at least [`WINDOW`] requests. With `--trace 1` it reports
//! the per-layer metrics instead, from a run whose rounds rotate between an
//! untraced pool replay, a traced one and a one-in-flight one, alongside a
//! traced decomposition of the sequential engine path (see [`trace`]).
//!
//! Both workloads run through a pool with the default `PoolConfig`: the
//! admission front door, the routing stage and micro-batching are off, so
//! this benchmark does not cover them. An open-loop workload through them
//! was tried and left out: its p99 followed the host's speed nonlinearly,
//! and over ten seeds on a shared 2-vCPU host its interquartile range was
//! 0.43 of its median, wider than any regression bound.
//!
//! Peak resident memory is reported (`harness.peak_rss_mb` in traced runs,
//! `peak_rss_mb` in every run's report file) but not gated. The engines
//! keep per-fingerprint state for every matrix they see, so on `cold_fresh`
//! it grows with the requests served, and even read after a fixed number
//! of requests it spread 0.22 of its median over five seeds (the same seed
//! read 496 and 538 MB in two runs): MB-sized matrices freed across many
//! threads leave the allocator's arenas a different size each run.
//!
//! The last line of standard output is the result object the benchmark
//! contract asks for. A fuller report — provenance (core count, seed, trial
//! count, git commit), each metric's median and quartiles, and every
//! check — goes to `.perfbench/<workload>-seed<seed>-trace<0|1>.json`, and
//! the spans of a traced run's first [`SPANS_FILE_REQUESTS`] requests to the
//! matching `.spans.jsonl` file.
//!
//! # What each per-layer metric should move
//!
//! | layer metrics | should move | on |
//! |---|---|---|
//! | `sparse.*`, `features.collect_us`, `ml.predict_ns` | `latency_p50_us`, `throughput_rps` | `cold_fresh` (0 on `warm_skewed`: warm requests never reach them) |
//! | `kernels.*` | `seq_throughput_rps`, `throughput_rps`, `latency_p50_us` | `warm_skewed`; `kernels.prepare_us` on `cold_fresh` |
//! | `engine.select_hit_ns`, `engine.plan_pin_ns`, `engine.execute_overhead_ns` | `seq_throughput_rps` | `warm_skewed` |
//! | `engine.select_miss_us`, `engine.prepare_us` and the `engine` counts | `throughput_rps`, `latency_p50_us`, `harness.peak_rss_mb` | `cold_fresh` |
//! | `serving.*` | `throughput_rps`, `latency_p50_us`, `latency_p99_us` | both |
//! | `gpu.*` (modelled clock) | `sim_us_per_req`; a host-speed change leaves them unchanged | both |
//! | `harness.*`, `failed_share` | validity only | both |

mod drive;
mod inputs;
mod layers;
mod report;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use seer_core::engine::{EngineStats, EngineWorkspace, SeerEngine};
use seer_core::serving::{PoolConfig, PoolStats, ServingPool};
use seer_core::training::TrainingConfig;
use seer_gpu::Gpu;
use seer_kernels::{ComputeScratch, Oracle};
use seer_sparse::collection::{generate, CollectionConfig, SizeScale};

use drive::{Outcome, PoolRun};
use inputs::{Inputs, Request, Workload};
use layers::{layer_metrics, LayerInputs};
use report::{peak_rss_mb, provenance, Metric, Report};
use stats::{quantile, ratio, sorted_us};
use trace::{Span, SpanSink, SweepInput};

/// Workload seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Measured wall time used when `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 10;

/// Stacks an untraced run sets up; `setup_s` is the median of their
/// set-up times. Statistics windows rotate over them, so that the medians
/// describe the program across several heap layouts: where a worker's
/// kernel scratch happens to land (a lane buffer straddling a 4 KiB page
/// slows the wavefront-mapped kernel by about a third) is fixed for a
/// stack's lifetime and would otherwise shift a whole run.
const STACKS: usize = 11;

/// Requests per statistics window: p99 then has at least ten samples
/// beyond it.
const WINDOW: usize = 1_000;

/// A traced run's decomposed sequential path must agree with the untraced
/// `execute_into` latency of the same requests within this share, as the
/// median over requests of their ratio. Wide, because the two paths run
/// the kernel with different scratch buffers, and buffer placement alone
/// moves the wavefront-mapped kernel by up to ~40%.
const TRACE_TOLERANCE: f64 = 0.5;

/// Requests whose spans a traced run writes out (all of them feed its
/// metrics); enough to explain any request without a file of many MB.
const SPANS_FILE_REQUESTS: u64 = 10_000;

/// Requests whose matrices the kernel sweep and the oracle comparison use.
const SWEEP_SAMPLE: usize = 128;

/// Matrix handles per request in a traced run: the pool's, the oracle's,
/// the decomposed path's and the cold sub-calls' (see [`Request`]).
const TRACED_COPIES: usize = 4;

/// Requests per round: the unit that is replayed sequentially, then
/// through the pool, then checked. Cold rounds are small because every
/// request carries two to four private copies of a fresh matrix (up to a
/// few MB each) that live until the round is checked.
fn round_size(workload: Workload) -> usize {
    match workload {
        Workload::WarmSkewed => 500,
        Workload::ColdFresh => 40,
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = DEFAULT_SECONDS;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => seed = number()?,
                "--seconds" => seconds = number()?.max(1),
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    };
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds N] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args, started)
    };
    report.emit(&args);
    ExitCode::SUCCESS
}

/// A set-up stack: the pool under test, the sequential oracle engine and
/// the engine the decomposed path runs on (used by traced runs only). All
/// share one set of trained models and start equally warm.
struct Stack {
    pool: ServingPool,
    oracle: SeerEngine,
    traced: SeerEngine,
    workspace: EngineWorkspace,
}

/// Pool statistics once every request the pool was offered is accounted
/// for. A worker resolves a ticket before it bumps its counters, so a
/// snapshot taken the moment the last ticket resolves can lag by a request.
fn settled_stats(pool: &ServingPool) -> PoolStats {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = pool.stats();
        let resolved = stats.served() + stats.shed() + stats.expired() + stats.failed();
        if resolved == stats.offered() || Instant::now() > deadline {
            return stats;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Cumulative `(stolen, total)` CPU time of the host's vCPUs, in clock
/// ticks, from `/proc/stat`; zeros where it cannot be read.
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|field| field.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Share of CPU time the hypervisor stole since `before` (from
/// [`cpu_ticks`]): host interference that slows a run without any change
/// to the program.
fn steal_share_since(before: (u64, u64)) -> f64 {
    let (stolen, total) = cpu_ticks();
    ratio((stolen - before.0) as f64, (total - before.1) as f64)
}

/// Host cores, as the standard library reports them.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Trains, builds the pool and engines, and warms them, returning the
/// stack, its inputs, the set-up time and the number of warm-up responses
/// that differed from the oracle. The time the harness spends generating
/// fresh matrices is not set-up and is left out.
fn set_up(args: &Args, copies: usize) -> (Stack, Inputs, Duration, usize) {
    let start = Instant::now();
    let training = generate(&CollectionConfig {
        seed: inputs::TRAINING_SEED,
        matrices_per_family: 4,
        scale: SizeScale::Small,
    });
    let (trained, _) = SeerEngine::train(Gpu::default(), &training, &TrainingConfig::fast())
        .expect("the fixed training corpus trains");
    let mut inputs = Inputs::new(args.workload, args.seed);
    let fresh_engine = || SeerEngine::new(trained.gpu_handle(), trained.models_handle());
    let mut stack = Stack {
        pool: ServingPool::from_engine(&trained, PoolConfig::with_shards(cores())),
        oracle: fresh_engine(),
        traced: fresh_engine(),
        workspace: EngineWorkspace::new(),
    };
    let warmup = inputs.warmup(copies);
    let (expected, _) = drive::sequential(&stack.oracle, &warmup, 1, &mut stack.workspace);
    if copies > 2 {
        let _ = drive::sequential(&stack.traced, &warmup, 2, &mut stack.workspace);
    }
    let run = drive::closed_loop(&stack.pool, &warmup, 0, cores(), None);
    let failed = drive::count_failures(&run, &expected, "warm-up");
    let setup = start.elapsed().saturating_sub(inputs.generation_time());
    (stack, inputs, setup, failed)
}

/// Named pass/fail checks; a run is correct only if all pass.
#[derive(Default)]
struct Checks {
    items: Vec<(String, bool, String)>,
}

impl Checks {
    fn add(&mut self, name: &str, passed: bool, detail: String) {
        if !passed {
            eprintln!("perfbench: check failed: {name} ({detail})");
        }
        self.items.push((name.to_string(), passed, detail));
    }

    fn warmup(&mut self, failed: usize) {
        self.add(
            "warm-up responses match the oracle",
            failed == 0,
            format!("{failed} failed"),
        );
    }

    fn all_passed(&self) -> bool {
        self.items.iter().all(|(_, passed, _)| *passed)
    }

    /// Over the measured phase: on `cold_fresh` no request may hit a plan
    /// and each must profile and prepare exactly once (freshness); on warm
    /// workloads no request may miss or prepare.
    fn engine_counts(
        &mut self,
        label: &str,
        workload: Workload,
        delta: EngineStats,
        requests: u64,
    ) {
        if workload.is_cold() {
            self.add(
                &format!("{label}: fresh requests never hit a plan"),
                delta.plan_hits == 0,
                format!("{} plan hits", delta.plan_hits),
            );
            self.add(
                &format!("{label}: one profile pass and one preparation per request"),
                delta.profile_passes == requests && delta.plan_preparations == requests,
                format!(
                    "{} profile passes, {} preparations, {requests} requests",
                    delta.profile_passes, delta.plan_preparations
                ),
            );
        } else {
            self.add(
                &format!("{label}: warm requests never miss or prepare"),
                delta.plan_misses == 0 && delta.plan_preparations == 0,
                format!(
                    "{} plan misses, {} preparations",
                    delta.plan_misses, delta.plan_preparations
                ),
            );
        }
    }

    /// `served + shed + expired + failed == offered`, exactly, over the
    /// measured phase, and agreeing with what the clients observed.
    fn balance(&mut self, before: &PoolStats, after: &PoolStats, attempted: usize, ok: usize) {
        let offered = after.offered() - before.offered();
        let served = after.served() - before.served();
        let resolved = served
            + (after.shed() - before.shed())
            + (after.expired() - before.expired())
            + (after.failed() - before.failed());
        self.add(
            "served + shed + expired + failed == offered == attempted",
            resolved == offered && offered == attempted as u64 && served == ok as u64,
            format!("resolved {resolved}, offered {offered}, attempted {attempted}, served {served}, ok {ok}"),
        );
    }
}

/// One statistics window of the untraced run.
#[derive(Default)]
struct Window {
    served: usize,
    pool_time: Duration,
    latencies: Vec<Duration>,
    seq_requests: usize,
    seq_time: Duration,
}

impl Window {
    fn add(&mut self, run: &PoolRun, seq_latencies: &[Duration]) {
        self.served += run.served_ok();
        self.pool_time += run.elapsed;
        // A failed request misses every latency limit.
        self.latencies.extend(run.served.iter().map(|s| {
            if s.outcome.is_ok() {
                s.latency
            } else {
                Duration::MAX
            }
        }));
        self.seq_requests += seq_latencies.len();
        self.seq_time += seq_latencies.iter().sum::<Duration>();
    }

    fn throughput(&self) -> f64 {
        ratio(self.served as f64, self.pool_time.as_secs_f64())
    }

    fn seq_throughput(&self) -> f64 {
        ratio(self.seq_requests as f64, self.seq_time.as_secs_f64())
    }
}

/// What the measured phase served, summed over every round.
#[derive(Default)]
struct Totals {
    attempted: usize,
    failed: usize,
    ok: usize,
    sim_total_us: f64,
    sim_selection_us: f64,
    selected: [u64; 8],
    submits: Vec<Duration>,
    rounds: usize,
}

impl Totals {
    fn add(&mut self, workload: Workload, run: &PoolRun, oracle: &[Outcome]) {
        self.rounds += 1;
        self.attempted += run.served.len();
        self.failed += drive::count_failures(run, oracle, workload.name());
        for (served, expected) in run.served.iter().zip(oracle) {
            self.submits.push(served.submit);
            let Ok(response) = &served.outcome else {
                continue;
            };
            self.ok += 1;
            if let Some(total) = response.total_time {
                self.sim_total_us += total.as_micros();
            }
            // A fresh matrix misses and is billed its whole selection
            // overhead; a warm hit is billed none (the gates check both).
            if workload.is_cold() {
                self.sim_selection_us += expected.selection.overhead().as_micros();
            }
            self.selected[expected.selection.kernel.class_index()] += 1;
        }
    }

    fn failed_share(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Fresh matrices must reach every consumer untouched.
fn check_fresh(round: &[Request], checks: &mut Checks) {
    let touched = round
        .iter()
        .flat_map(|r| &r.copies)
        .filter(|m| m.cached_profile().is_some())
        .count();
    if touched > 0 {
        checks.add(
            "fresh matrices arrive unprofiled",
            false,
            format!("{touched} profiled"),
        );
    }
}

fn run_untraced(args: &Args, started: Instant) -> Report {
    let mut checks = Checks::default();
    let mut setups = Vec::with_capacity(STACKS);
    let mut stacks = Vec::with_capacity(STACKS);
    let mut warmup_failures = 0;
    let mut last_inputs = None;
    for _ in 0..STACKS {
        let (stack, inputs, setup, failures) = set_up(args, 2);
        setups.push(setup.as_secs_f64());
        stacks.push(stack);
        warmup_failures += failures;
        last_inputs = Some(inputs);
    }
    let mut inputs = last_inputs.expect("at least one set-up ran");
    checks.warmup(warmup_failures);
    let to_first_request = started.elapsed();

    let before: Vec<(PoolStats, EngineStats)> = stacks
        .iter()
        .map(|stack| (settled_stats(&stack.pool), stack.oracle.stats()))
        .collect();
    // Requests attempted and served per stack.
    let mut per_stack = vec![(0usize, 0usize); stacks.len()];
    let ticks = cpu_ticks();
    let measure = Instant::now();
    let mut totals = Totals::default();
    let mut windows = Vec::new();
    let mut window = Window::default();
    while measure.elapsed() < Duration::from_secs(args.seconds) {
        let index = windows.len() % stacks.len();
        let stack = &mut stacks[index];
        let round = inputs.next_round(round_size(args.workload), 2);
        if args.workload.is_cold() {
            check_fresh(&round, &mut checks);
        }
        let (expected, seq_latencies) =
            drive::sequential(&stack.oracle, &round, 1, &mut stack.workspace);
        let run = drive::closed_loop(&stack.pool, &round, 0, cores(), None);
        let (attempted, ok) = (totals.attempted, totals.ok);
        totals.add(args.workload, &run, &expected);
        per_stack[index].0 += totals.attempted - attempted;
        per_stack[index].1 += totals.ok - ok;
        window.add(&run, &seq_latencies);
        if window.latencies.len() >= WINDOW {
            windows.push(std::mem::take(&mut window));
        }
    }
    if windows.is_empty() {
        windows.push(window);
    }
    let steal_share = steal_share_since(ticks);
    for ((stack, (pool_before, oracle_before)), &(attempted, ok)) in
        stacks.iter().zip(&before).zip(&per_stack)
    {
        let pool_after = settled_stats(&stack.pool);
        let pool = pool_after.engine().saturating_sub(pool_before.engine());
        checks.engine_counts("pool", args.workload, pool, attempted as u64);
        let oracle = stack.oracle.stats().saturating_sub(*oracle_before);
        checks.engine_counts("oracle", args.workload, oracle, attempted as u64);
        checks.balance(pool_before, &pool_after, attempted, ok);
    }

    let per_window = |f: &dyn Fn(&Window) -> f64| windows.iter().map(f).collect::<Vec<_>>();
    let latency = |q: f64| {
        move |w: &Window| {
            let mut sorted = w.latencies.clone();
            sorted.sort_unstable();
            quantile(&sorted_us(&sorted), q)
        }
    };
    let sim_us_per_req = ratio(totals.sim_total_us, totals.ok as f64);
    let metrics = vec![
        Metric::spread("throughput_rps", "req/s", per_window(&|w| w.throughput())),
        Metric::spread("latency_p50_us", "us", per_window(&latency(0.5))),
        Metric::spread("latency_p99_us", "us", per_window(&latency(0.99))),
        Metric::spread(
            "seq_throughput_rps",
            "req/s",
            per_window(&|w| w.seq_throughput()),
        ),
        Metric::single("sim_us_per_req", "us", sim_us_per_req),
        Metric::spread("setup_s", "s", setups),
    ];

    let mut provenance = provenance(args);
    let _ = write!(
        provenance,
        ",\"stacks\":{STACKS},\"windows\":{},\"window_requests\":{WINDOW},\
         \"rounds\":{},\"round_requests\":{},\"attempted\":{},\
         \"latency_samples\":{},\"start_to_first_timed_request_s\":{},\"fresh_generation_s\":{},\
         \"steal_share\":{steal_share},\"peak_rss_mb\":{}",
        windows.len(),
        totals.rounds,
        round_size(args.workload),
        totals.attempted,
        windows.iter().map(|w| w.latencies.len()).sum::<usize>(),
        to_first_request.as_secs_f64(),
        inputs.generation_time().as_secs_f64(),
        peak_rss_mb(),
    );
    Report {
        correct: checks.all_passed() && totals.failed == 0,
        attempted: totals.attempted,
        failed: totals.failed,
        metrics,
        checks,
        provenance,
        spans: Vec::new(),
    }
}

/// Pool-side sums of one traced-run mode.
#[derive(Default)]
struct ModeTotals {
    served: usize,
    elapsed: Duration,
}

impl ModeTotals {
    fn add(&mut self, run: &PoolRun) {
        self.served += run.served_ok();
        self.elapsed += run.elapsed;
    }

    fn throughput(&self) -> f64 {
        ratio(self.served as f64, self.elapsed.as_secs_f64())
    }
}

fn run_traced(args: &Args) -> Report {
    let mut checks = Checks::default();
    let (mut stack, mut inputs, _, warmup_failures) = set_up(args, TRACED_COPIES);
    checks.warmup(warmup_failures);
    let ticks = cpu_ticks();
    let epoch = Instant::now();
    let pool_before = settled_stats(&stack.pool);
    let oracle_before = stack.oracle.stats();
    let traced_before = stack.traced.stats();

    let mut totals = Totals::default();
    let mut spans: Vec<Span> = Vec::new();
    let mut modes: [ModeTotals; 3] = Default::default();
    let mut seq = ModeTotals::default();
    let mut span_ratios = Vec::new();
    let mut overheads = Vec::new();
    let mut hops = Vec::new();
    let mut decomposed_mismatches = 0usize;
    let mut materialized = 0usize;
    let mut sample: Vec<SweepInput> = Vec::new();
    let mut sample_sim: Vec<(usize, f64)> = Vec::new();
    let mut decomposed_nnz = 0.0;
    let mut y = Vec::new();
    let mut scratch = ComputeScratch::new();
    let mut next_id = 0u64;
    while epoch.elapsed() < Duration::from_secs(args.seconds) || totals.rounds < 3 {
        let round = inputs.next_round(round_size(args.workload), TRACED_COPIES);
        if args.workload.is_cold() {
            check_fresh(&round, &mut checks);
        }
        let sink = SpanSink::new(epoch, next_id);
        next_id += round.len() as u64;
        // Each request runs decomposed and traced on the traced engine,
        // then untraced on the oracle, back to back, so that both see the
        // same cache state.
        let mut expected = Vec::with_capacity(round.len());
        let mut seq_latencies = Vec::with_capacity(round.len());
        for (index, request) in round.iter().enumerate() {
            let parts = trace::decomposed(
                &stack.traced,
                request,
                2,
                &mut y,
                &mut scratch,
                sink,
                index,
                &mut spans,
            );
            let (oracle, untraced) =
                drive::execute_one(&stack.oracle, request, 1, &mut stack.workspace);
            if !drive::same_selection(&parts.selection, &oracle.selection)
                || !drive::same_result(&parts.result, &oracle.result)
            {
                decomposed_mismatches += 1;
            }
            materialized += usize::from(parts.materialized);
            decomposed_nnz += oracle.nnz as f64;
            span_ratios.push(ratio(parts.span_sum.as_secs_f64(), untraced.as_secs_f64()));
            overheads.push((parts.span_sum - parts.compute).as_secs_f64() * 1e9);
            if args.workload.is_cold() {
                trace::cold_subcalls(&stack.traced, request, 3, sink, index, &mut spans);
            }
            if sample.len() < SWEEP_SAMPLE {
                sample.push(SweepInput {
                    matrix: Arc::clone(&request.copies[2]),
                    x: Arc::clone(&request.x),
                    selected: oracle.selection.kernel,
                });
                sample_sim.push((request.iterations, oracle.total.as_micros()));
            }
            expected.push(oracle);
            seq_latencies.push(untraced);
        }
        seq.served += round.len();
        seq.elapsed += seq_latencies.iter().sum::<Duration>();
        let mode = totals.rounds % 3;
        let (clients, sink) = match mode {
            0 => (cores(), None),
            1 => (cores(), Some(sink)),
            _ => (1, None),
        };
        let mut run = drive::closed_loop(&stack.pool, &round, 0, clients, sink);
        if mode == 2 {
            hops.extend(
                run.served.iter().zip(&seq_latencies).map(|(served, seq)| {
                    served.latency.as_secs_f64() * 1e6 - seq.as_secs_f64() * 1e6
                }),
            );
        }
        modes[mode].add(&run);
        spans.append(&mut run.spans);
        totals.add(args.workload, &run, &expected);
    }
    let pool_after = settled_stats(&stack.pool);
    let steal_share = steal_share_since(ticks);
    let attempted = totals.attempted as u64;
    let requests = seq.served as u64;
    checks.engine_counts(
        "pool",
        args.workload,
        pool_after.engine().saturating_sub(pool_before.engine()),
        attempted,
    );
    checks.engine_counts(
        "oracle",
        args.workload,
        stack.oracle.stats().saturating_sub(oracle_before),
        requests,
    );
    checks.engine_counts(
        "traced engine",
        args.workload,
        stack.traced.stats().saturating_sub(traced_before),
        requests,
    );
    checks.balance(&pool_before, &pool_after, totals.attempted, totals.ok);
    checks.add(
        "decomposed engine path is bit-identical to execute_into",
        decomposed_mismatches == 0,
        format!("{decomposed_mismatches} of {requests} differ"),
    );
    let mut sorted_ratios = span_ratios.clone();
    sorted_ratios.sort_by(f64::total_cmp);
    let median_ratio = quantile(&sorted_ratios, 0.5);
    checks.add(
        "decomposed span sums agree with untraced latency",
        (median_ratio - 1.0).abs() <= TRACE_TOLERANCE,
        format!("median ratio {median_ratio:.3}, tolerance {TRACE_TOLERANCE}"),
    );

    let sweep = trace::kernel_sweep(&sample);
    let oracle = Oracle::new(stack.oracle.gpu());
    let (served_sim, best_sim) = sample.iter().zip(&sample_sim).fold(
        (0.0, 0.0),
        |(served, best), (input, &(iterations, total))| {
            let choice = oracle.best_kernel(&input.matrix, iterations);
            (served + total, best + choice.total.as_micros())
        },
    );

    let metrics = layer_metrics(LayerInputs {
        args,
        spans: &spans,
        totals: &totals,
        sweep: &sweep,
        modes: &modes,
        seq: &seq,
        overheads: &overheads,
        hops: &hops,
        materialized_share: ratio(materialized as f64, requests as f64),
        steal_share,
        sim_vs_oracle: ratio(served_sim, best_sim),
        pool_before: &pool_before,
        pool_after: &pool_after,
        nnz: decomposed_nnz,
    });
    let mut provenance = provenance(args);
    let _ = write!(
        provenance,
        ",\"rounds\":{},\"round_requests\":{},\"attempted\":{},\"sequential_requests\":{requests},\
         \"sweep_sample\":{},\"trace_tolerance\":{TRACE_TOLERANCE},\"median_span_ratio\":{median_ratio},\"spans\":{}",
        totals.rounds,
        round_size(args.workload),
        totals.attempted,
        sample.len(),
        spans.len(),
    );
    Report {
        correct: checks.all_passed() && totals.failed == 0,
        attempted: totals.attempted,
        failed: totals.failed,
        metrics,
        checks,
        provenance,
        spans,
    }
}
