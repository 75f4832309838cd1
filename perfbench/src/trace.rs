//! The traced run's instruments: in-memory spans around calls into each
//! layer's public API, the sequential engine path decomposed into its
//! public steps, the standalone cold-path sub-calls, and the kernel sweep.
//!
//! Spans are recorded by this benchmark's own code, around the calls it
//! makes; nothing inside the program is instrumented.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use seer_core::engine::SeerEngine;
use seer_core::features::{FeatureCollector, KnownFeatures};
use seer_core::inference::Selection;
use seer_kernels::{kernel, ComputeScratch, KernelId};
use seer_sparse::{CsrMatrix, MatrixProfile, Scalar};

use crate::inputs::Request;

/// One timed call. Within a request a span name occurs once per path, so
/// `(request, name)` identifies a span and `parent` names its parent.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against a shared epoch; request ids are stream positions.
#[derive(Debug, Clone, Copy)]
pub struct SpanSink {
    epoch: Instant,
    first_request: u64,
}

impl SpanSink {
    pub fn new(epoch: Instant, first_request: u64) -> Self {
        Self {
            epoch,
            first_request,
        }
    }

    pub fn request_id(&self, index: usize) -> u64 {
        self.first_request + index as u64
    }

    /// Appends a span and returns its name, to be used as a child's parent.
    pub fn span(
        &self,
        spans: &mut Vec<Span>,
        name: &'static str,
        request: u64,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) -> &'static str {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        spans.push(Span {
            name,
            parent,
            request,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        name
    }
}

/// Total self time (duration minus the time its children cover) and count
/// of every span name. Children never overlap one another here, so the
/// covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> HashMap<&'static str, (u64, u64)> {
    let mut children: HashMap<(u64, &'static str), u64> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            *children.entry((span.request, parent)).or_default() += span.duration_ns();
        }
    }
    let mut totals: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for span in spans {
        let covered = children
            .get(&(span.request, span.name))
            .copied()
            .unwrap_or(0);
        let entry = totals.entry(span.name).or_default();
        entry.0 += span.duration_ns().saturating_sub(covered);
        entry.1 += 1;
    }
    totals
}

/// Spans as JSON lines.
pub fn spans_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96);
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| format!("\"{p}\""));
        let _ = writeln!(
            out,
            "{{\"request\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            span.request, span.name, parent, span.start_ns, span.end_ns
        );
    }
    out
}

/// What one decomposed sequential request produced.
pub struct Decomposed {
    pub selection: Selection,
    pub result: Vec<Scalar>,
    /// Sum of the request's child spans.
    pub span_sum: Duration,
    pub compute: Duration,
    /// Whether the plan the request ran on carries a materialized
    /// structure (a `Direct` plan needs no preparation work).
    pub materialized: bool,
}

/// Serves one request through the engine's public steps, in the order
/// `execute_into` takes them — fingerprint, `select`, `prepared_plan_on`,
/// the kernel's `compute_prepared_into`, result copy — with a span around
/// each. The fingerprint comes first so that `engine.select` excludes the
/// hash pass, which `sparse.fingerprint` reports.
#[allow(clippy::too_many_arguments)]
pub fn decomposed(
    engine: &SeerEngine,
    request: &Request,
    copy: usize,
    y: &mut Vec<Scalar>,
    scratch: &mut ComputeScratch,
    sink: SpanSink,
    index: usize,
    spans: &mut Vec<Span>,
) -> Decomposed {
    let matrix = &request.copies[copy];
    let t0 = Instant::now();
    black_box(matrix.sparsity_fingerprint());
    let t1 = Instant::now();
    let selection = engine.select(matrix, request.iterations);
    let t2 = Instant::now();
    let plan = engine.prepared_plan_on(matrix, selection.device, selection.kernel);
    let t3 = Instant::now();
    y.resize(matrix.rows(), 0.0);
    kernel(selection.kernel).compute_prepared_into(&plan, matrix, &request.x, y, scratch);
    let t4 = Instant::now();
    let result = y.clone();
    let t5 = Instant::now();
    let id = sink.request_id(index);
    let root = sink.span(spans, "seq.request", id, None, t0, t5);
    sink.span(spans, "sparse.fingerprint", id, Some(root), t0, t1);
    sink.span(spans, "engine.select", id, Some(root), t1, t2);
    sink.span(spans, "engine.prepared_plan_on", id, Some(root), t2, t3);
    sink.span(
        spans,
        "kernels.compute_prepared_into",
        id,
        Some(root),
        t3,
        t4,
    );
    sink.span(spans, "engine.result_copy", id, Some(root), t4, t5);
    Decomposed {
        selection,
        result,
        span_sum: t5 - t0,
        compute: t4 - t3,
        materialized: plan.is_materialized(),
    }
}

/// Times the selection sub-steps a cold request pays, as standalone calls
/// on a copy of the request's matrix that nothing has touched yet, so the
/// profiling pass is the matrix's first contact: the profiling pass,
/// feature collection and both classifier walks. They sit under their own
/// root, not inside the request, because the engine runs them inside
/// `select` where they cannot be timed from outside.
pub fn cold_subcalls(
    engine: &SeerEngine,
    request: &Request,
    copy: usize,
    sink: SpanSink,
    index: usize,
    spans: &mut Vec<Span>,
) {
    let matrix = &request.copies[copy];
    let known = KnownFeatures::of(matrix, request.iterations).to_vector();
    let t0 = Instant::now();
    let profile = MatrixProfile::compute(matrix);
    let t1 = Instant::now();
    let collection = FeatureCollector::new().collect(engine.gpu(), matrix, &profile);
    let mut gathered = known.clone();
    gathered.extend(collection.features.to_vector());
    let t2 = Instant::now();
    black_box(engine.predict_known(&known));
    let t3 = Instant::now();
    black_box(engine.predict_gathered(&gathered));
    let t4 = Instant::now();
    let id = sink.request_id(index);
    let root = sink.span(spans, "cold.subcalls", id, None, t0, t4);
    sink.span(spans, "sparse.profile", id, Some(root), t0, t1);
    sink.span(spans, "features.collect", id, Some(root), t1, t2);
    sink.span(spans, "ml.predict_known", id, Some(root), t2, t3);
    sink.span(spans, "ml.predict_gathered", id, Some(root), t3, t4);
}

/// A matrix of the kernel sweep, with the kernel the engine chose for it.
pub struct SweepInput {
    pub matrix: Arc<CsrMatrix>,
    pub x: Arc<Vec<Scalar>>,
    pub selected: KernelId,
}

/// Per-kernel execution cost over one workload's matrices.
pub struct KernelSweep {
    /// Prepared-path ns per nonzero, in `KernelId::ALL` order.
    pub ns_per_nnz: Vec<f64>,
    /// A plain `CsrMatrix::spmv_into` loop over the same matrices.
    pub floor_ns_per_nnz: f64,
    /// Mean `SpmvKernel::prepare` time of each matrix's selected kernel.
    pub prepare_us: f64,
}

/// Timed executions per kernel and matrix.
const SWEEP_REPS: usize = 3;

/// Runs every kernel's prepared path, and the plain CSR floor, over the
/// sample in stream order (so frequent matrices weigh in proportion).
pub fn kernel_sweep(sample: &[SweepInput]) -> KernelSweep {
    let nnz: f64 = sample.iter().map(|s| s.matrix.nnz() as f64).sum::<f64>() * SWEEP_REPS as f64;
    let mut y = Vec::new();
    let mut scratch = ComputeScratch::new();
    let ns_per_nnz = KernelId::ALL
        .iter()
        .map(|&id| {
            let mut elapsed = Duration::ZERO;
            for input in sample {
                let matrix = &input.matrix;
                let plan = kernel(id).prepare(matrix, matrix.profile());
                y.resize(matrix.rows(), 0.0);
                let start = Instant::now();
                for _ in 0..SWEEP_REPS {
                    kernel(id).compute_prepared_into(&plan, matrix, &input.x, &mut y, &mut scratch);
                    black_box(&mut y);
                }
                elapsed += start.elapsed();
            }
            elapsed.as_nanos() as f64 / nnz
        })
        .collect();
    let mut floor = Duration::ZERO;
    for input in sample {
        y.resize(input.matrix.rows(), 0.0);
        let start = Instant::now();
        for _ in 0..SWEEP_REPS {
            input.matrix.spmv_into(&input.x, &mut y);
            black_box(&mut y);
        }
        floor += start.elapsed();
    }
    let mut prepare = Duration::ZERO;
    for input in sample {
        let profile = input.matrix.profile();
        let start = Instant::now();
        black_box(kernel(input.selected).prepare(&input.matrix, profile));
        prepare += start.elapsed();
    }
    KernelSweep {
        ns_per_nnz,
        floor_ns_per_nnz: floor.as_nanos() as f64 / nnz,
        prepare_us: prepare.as_secs_f64() * 1e6 / sample.len().max(1) as f64,
    }
}
