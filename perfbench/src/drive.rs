//! The two ways a round of requests is replayed — the sequential engine
//! loop and the closed-loop pool clients — and the bit-for-bit check of
//! pool responses against the sequential oracle.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use seer_core::engine::{EngineWorkspace, SeerEngine};
use seer_core::inference::Selection;
use seer_core::serving::{ServingError, ServingPool, ServingRequest, ServingResponse, Ticket};
use seer_gpu::SimTime;
use seer_sparse::Scalar;

use crate::inputs::Request;
use crate::trace::{Span, SpanSink};

/// How long any ticket may stay unresolved before it counts as a failure.
const TICKET_TIMEOUT: Duration = Duration::from_secs(30);

/// What the sequential `SeerEngine` replay produced for one request.
pub struct Outcome {
    pub selection: Selection,
    pub total: SimTime,
    pub result: Vec<Scalar>,
    /// The request's matrix size, kept for per-nnz figures.
    pub nnz: usize,
}

/// Why a pool request produced no response.
#[derive(Debug)]
pub enum Failure {
    /// Still unresolved after [`TICKET_TIMEOUT`].
    Unresolved,
    /// The ticket resolved to an error.
    Serving(ServingError),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Unresolved => write!(f, "unresolved after {TICKET_TIMEOUT:?}"),
            Failure::Serving(error) => write!(f, "{error}"),
        }
    }
}

/// One pool request's result and latency.
pub struct Served {
    pub latency: Duration,
    pub submit: Duration,
    pub outcome: Result<ServingResponse, Failure>,
}

/// One round through the pool, results in request order.
pub struct PoolRun {
    pub served: Vec<Served>,
    /// First submission to the last completion.
    pub elapsed: Duration,
    pub spans: Vec<Span>,
}

impl PoolRun {
    pub fn served_ok(&self) -> usize {
        self.served.iter().filter(|s| s.outcome.is_ok()).count()
    }
}

/// Replays `requests` on one thread through `SeerEngine::execute_into`,
/// the embedded-library path. A request is complete when the caller holds
/// its own copy of the result, as a pool caller does; the per-request
/// latencies include that copy.
pub fn sequential(
    engine: &SeerEngine,
    requests: &[Request],
    copy: usize,
    workspace: &mut EngineWorkspace,
) -> (Vec<Outcome>, Vec<Duration>) {
    requests
        .iter()
        .map(|request| execute_one(engine, request, copy, workspace))
        .unzip()
}

/// One request of [`sequential`], with its latency.
pub fn execute_one(
    engine: &SeerEngine,
    request: &Request,
    copy: usize,
    workspace: &mut EngineWorkspace,
) -> (Outcome, Duration) {
    let matrix = &request.copies[copy];
    let start = Instant::now();
    let (selection, total) = engine.execute_into(matrix, &request.x, request.iterations, workspace);
    let result = workspace.result().to_vec();
    let latency = start.elapsed();
    let outcome = Outcome {
        selection,
        total,
        result,
        nnz: matrix.nnz(),
    };
    (outcome, latency)
}

/// Replays `requests` through the pool from `clients` closed-loop client
/// threads, each submitting its next request only after the previous one
/// resolved. Latency runs from submit to result.
pub fn closed_loop(
    pool: &ServingPool,
    requests: &[Request],
    copy: usize,
    clients: usize,
    sink: Option<SpanSink>,
) -> PoolRun {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let per_client: Vec<_> = thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut served = Vec::new();
                    let mut spans = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(index) else {
                            break;
                        };
                        let serving = serving_request(request, copy);
                        let submit_start = Instant::now();
                        let ticket = pool.submit(serving);
                        let submitted = Instant::now();
                        let outcome = await_ticket(ticket);
                        let end = Instant::now();
                        if let Some(sink) = &sink {
                            let id = sink.request_id(index);
                            let root =
                                sink.span(&mut spans, "pool.request", id, None, submit_start, end);
                            sink.span(
                                &mut spans,
                                "serving.submit",
                                id,
                                Some(root),
                                submit_start,
                                submitted,
                            );
                            sink.span(&mut spans, "serving.wait", id, Some(root), submitted, end);
                        }
                        let served_one = Served {
                            latency: end - submit_start,
                            submit: submitted - submit_start,
                            outcome,
                        };
                        served.push((index, served_one));
                    }
                    (served, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("closed-loop client panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut served: Vec<Option<Served>> = (0..requests.len()).map(|_| None).collect();
    let mut spans = Vec::new();
    for (client_served, client_spans) in per_client {
        for (index, one) in client_served {
            served[index] = Some(one);
        }
        spans.extend(client_spans);
    }
    PoolRun {
        served: served
            .into_iter()
            .map(|one| one.expect("every request index is claimed by one client"))
            .collect(),
        elapsed,
        spans,
    }
}

fn serving_request(request: &Request, copy: usize) -> ServingRequest {
    ServingRequest::execute(
        Arc::clone(&request.copies[copy]),
        Arc::clone(&request.x),
        request.iterations,
    )
}

fn await_ticket(mut ticket: Ticket) -> Result<ServingResponse, Failure> {
    match ticket.wait_timeout(TICKET_TIMEOUT) {
        Ok(Some(_)) => ticket.wait().map_err(Failure::Serving),
        Ok(None) => Err(Failure::Unresolved),
        Err(error) => Err(Failure::Serving(error)),
    }
}

/// Whether two selections agree bit for bit.
pub fn same_selection(a: &Selection, b: &Selection) -> bool {
    a.kernel == b.kernel
        && a.device == b.device
        && a.used_gathered == b.used_gathered
        && same_time(a.feature_collection_cost, b.feature_collection_cost)
        && same_time(a.inference_overhead, b.inference_overhead)
}

pub fn same_time(a: SimTime, b: SimTime) -> bool {
    a.as_nanos().to_bits() == b.as_nanos().to_bits()
}

pub fn same_result(a: &[Scalar], b: &[Scalar]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Counts the pool requests that failed, were refused, or whose response
/// differs from the sequential oracle in any bit of the selection, the
/// result vector or the modelled total time. The first few are described
/// on stderr.
pub fn count_failures(run: &PoolRun, oracle: &[Outcome], label: &str) -> usize {
    let mut failures = 0;
    for (index, (served, expected)) in run.served.iter().zip(oracle).enumerate() {
        let problem = match &served.outcome {
            Err(failure) => Some(failure.to_string()),
            Ok(response) => {
                let matches = same_selection(&response.selection, &expected.selection)
                    && response
                        .total_time
                        .is_some_and(|t| same_time(t, expected.total))
                    && response
                        .result
                        .as_deref()
                        .is_some_and(|r| same_result(r, &expected.result));
                (!matches).then(|| {
                    format!(
                        "response differs from the sequential oracle: {:?} vs {:?}",
                        response.selection, expected.selection
                    )
                })
            }
        };
        if let Some(problem) = problem {
            if failures < 3 {
                eprintln!("{label}: request {index}: {problem}");
            }
            failures += 1;
        }
    }
    failures
}
