//! Workload definitions and the seeded inputs each one replays.
//!
//! The requests a run feeds the program are derived from the `--seed`
//! argument: the traffic stream (order, bursts, iteration counts), the
//! dense `x` vectors and every fresh matrix of `cold_fresh`.
//! The 44-matrix serving corpus is a fixed data set, like a matrix
//! collection: its matrices' sparsity fingerprints decide which shard each
//! one lands on, so a seeded corpus would move the pool's load balance from
//! seed to seed. The models are trained on another fixed corpus, because
//! they are part of the program under test, not its input.

use std::sync::Arc;
use std::time::{Duration, Instant};

use seer_sparse::collection::{generate, CollectionConfig, SizeScale};
use seer_sparse::generators;
use seer_sparse::traffic::{TrafficConfig, TrafficGenerator};
use seer_sparse::{CsrMatrix, Scalar, SplitMix64};

/// Seed of the corpus the models are trained on.
pub const TRAINING_SEED: u64 = 2024;

/// Seed of the serving corpus of `warm_skewed`.
const SERVING_CORPUS_SEED: u64 = 0x5EE2;

/// Matrices per family of the Small-scale corpus: 11 families x 4 = 44
/// matrices, mean ~30k nnz.
const MATRICES_PER_FAMILY: usize = 4;

/// Dimension multiplier of `SizeScale::Small` in `seer_sparse::collection`.
const SMALL_SCALE_FACTOR: usize = 4;

/// Seed of the reference stream whose popularity ranking every seed reuses
/// (see [`Inputs::new`]).
const REFERENCE_TRAFFIC_SEED: u64 = 0x5EED;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over the warm, skewed 44-matrix corpus.
    WarmSkewed,
    /// Closed loop where every request is a sparsity pattern never seen.
    ColdFresh,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::WarmSkewed, Workload::ColdFresh];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmSkewed => "warm_skewed",
            Workload::ColdFresh => "cold_fresh",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether every request misses every cache (the freshness gate
    /// applies) rather than hitting warm ones (the warm gate applies).
    pub fn is_cold(self) -> bool {
        self == Workload::ColdFresh
    }
}

/// One request of a round, with one matrix handle per consumer: the pool,
/// the sequential oracle and (in traced runs) the decomposed engine path
/// and the standalone cold sub-calls. Warm workloads hand every consumer
/// the same corpus matrix; `cold_fresh` hands each its own never-touched
/// copy, so no consumer sees another's memoized fingerprint or profile.
pub struct Request {
    pub copies: Vec<Arc<CsrMatrix>>,
    pub x: Arc<Vec<Scalar>>,
    pub iterations: usize,
}

/// The seeded request source of one workload.
pub struct Inputs {
    workload: Workload,
    corpus: Vec<Arc<CsrMatrix>>,
    xs: Vec<Arc<Vec<Scalar>>>,
    /// Traffic index -> corpus slot (see [`Inputs::new`]).
    slot_of: Vec<usize>,
    traffic: Option<TrafficGenerator>,
    /// Root of the per-request seeds of fresh matrices.
    fresh_seed: u64,
    /// Fresh requests generated so far.
    fresh_count: u64,
    /// Time spent generating fresh matrices; excluded from `setup_s`.
    generation: Duration,
}

impl Inputs {
    /// Builds the seeded inputs of `workload`.
    ///
    /// The traffic generator draws its small hot set from the corpus by
    /// seed, and the corpus spans two orders of magnitude in nnz, so which
    /// matrices are hot would dominate every timing. The hot set is
    /// therefore remapped onto the slots the reference stream makes hot:
    /// across seeds, popularity rank `r` always lands on the same family
    /// and size, while request order, bursts, iteration counts and cold
    /// draws still follow the seed.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut root = SplitMix64::new(seed);
        let traffic_seed = root.next_u64();
        let mut x_rng = root.split(0x5);
        let fresh_seed = root.next_u64();
        let (corpus, traffic, slot_of) = match workload {
            Workload::ColdFresh => (Vec::new(), None, Vec::new()),
            Workload::WarmSkewed => {
                let corpus: Vec<Arc<CsrMatrix>> = generate(&CollectionConfig {
                    seed: SERVING_CORPUS_SEED,
                    matrices_per_family: MATRICES_PER_FAMILY,
                    scale: SizeScale::Small,
                })
                .into_iter()
                .map(|entry| Arc::new(entry.matrix))
                .collect();
                let config = TrafficConfig::skewed(corpus.len(), traffic_seed);
                let reference = TrafficConfig::skewed(corpus.len(), REFERENCE_TRAFFIC_SEED);
                let generator = TrafficGenerator::new(&config);
                let slot_of = hot_set_remap(
                    generator.hot_set(),
                    TrafficGenerator::new(&reference).hot_set(),
                    corpus.len(),
                );
                (corpus, Some(generator), slot_of)
            }
        };
        let xs = corpus
            .iter()
            .map(|m| Arc::new(random_vector(m.cols(), &mut x_rng)))
            .collect();
        Self {
            workload,
            corpus,
            xs,
            slot_of,
            traffic,
            fresh_seed,
            fresh_count: 0,
            generation: Duration::ZERO,
        }
    }

    /// Requests that warm the caches before timing: every corpus matrix at
    /// both of the stream's iteration counts, or a few fresh matrices.
    pub fn warmup(&mut self, copies: usize) -> Vec<Request> {
        match self.workload {
            Workload::ColdFresh => self.fresh_round(64, copies),
            Workload::WarmSkewed => (0..self.corpus.len())
                .flat_map(|slot| [1, 19].map(|iterations| (slot, iterations)))
                .map(|(slot, iterations)| Request {
                    copies: vec![Arc::clone(&self.corpus[slot]); copies],
                    x: Arc::clone(&self.xs[slot]),
                    iterations,
                })
                .collect(),
        }
    }

    /// The next `n` requests of the stream, each with `copies` handles.
    pub fn next_round(&mut self, n: usize, copies: usize) -> Vec<Request> {
        if self.traffic.is_none() {
            return self.fresh_round(n, copies);
        }
        (0..n).map(|_| self.next_request(copies)).collect()
    }

    /// Total time spent generating fresh matrices so far.
    pub fn generation_time(&self) -> Duration {
        self.generation
    }

    fn next_request(&mut self, copies: usize) -> Request {
        let traffic = self
            .traffic
            .as_mut()
            .expect("only traffic workloads draw from a stream");
        let drawn = traffic.next().expect("traffic streams are infinite");
        let slot = self.slot_of[drawn.matrix_index];
        Request {
            copies: vec![Arc::clone(&self.corpus[slot]); copies],
            x: Arc::clone(&self.xs[slot]),
            iterations: drawn.iterations,
        }
    }

    /// `n` requests on brand-new sparsity patterns, generated on every
    /// core (request `i` of the workload always comes from the same seed,
    /// whichever thread builds it).
    fn fresh_round(&mut self, n: usize, copies: usize) -> Vec<Request> {
        let started = Instant::now();
        let first = self.fresh_count;
        self.fresh_count += n as u64;
        let seed = self.fresh_seed;
        let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
        let chunk = n.div_ceil(threads).max(1);
        let round: Vec<Request> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .step_by(chunk)
                .map(|start| {
                    scope.spawn(move || {
                        (start..(start + chunk).min(n))
                            .map(|i| fresh_request(seed, first + i as u64, copies))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("matrix generation panicked"))
                .collect()
        });
        self.generation += started.elapsed();
        round
    }
}

/// Fresh request number `index`. Each consumer's copy is built from the
/// generator's raw arrays before anything touches the matrix, never by
/// `clone()` of a served one (a clone would carry the memoized fingerprint,
/// profile and signature and turn the request warm).
fn fresh_request(seed: u64, index: u64, copies: usize) -> Request {
    let mut rng = SplitMix64::new(seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let matrix = fresh_matrix(&mut rng);
    let x = Arc::new(random_vector(matrix.cols(), &mut rng));
    let iterations = rng.next_range(1, 20);
    let (rows, cols, offsets, indices, values) = matrix.into_raw();
    let copies = (0..copies)
        .map(|_| {
            let copy =
                CsrMatrix::try_new(rows, cols, offsets.clone(), indices.clone(), values.clone())
                    .expect("a copy of a valid matrix is valid");
            Arc::new(copy)
        })
        .collect();
    Request {
        copies,
        x,
        iterations,
    }
}

/// A permutation of corpus slots that sends the stream's hot set, rank by
/// rank, to the reference hot set, and every other index to the remaining
/// slots in ascending order.
fn hot_set_remap(hot: &[usize], reference_hot: &[usize], corpus: usize) -> Vec<usize> {
    let mut slot_of = vec![usize::MAX; corpus];
    let mut taken = vec![false; corpus];
    for (&index, &slot) in hot.iter().zip(reference_hot) {
        slot_of[index] = slot;
        taken[slot] = true;
    }
    let mut free = (0..corpus).filter(|&slot| !taken[slot]);
    for slot in slot_of.iter_mut().filter(|slot| **slot == usize::MAX) {
        *slot = free.next().expect("as many free slots as unmapped indices");
    }
    slot_of
}

/// One fresh matrix, drawn the way `seer_sparse::collection` draws member
/// `i` of a Small-scale corpus: the same generator, parameters and size
/// (1,200 to 9,600 rows, halved where the corpus halves them), with `i`
/// and the family drawn per request. Only the families whose column
/// placement is random take part, so two draws never share a sparsity
/// pattern; the banded, stencil, block-diagonal and diagonal families are
/// left out because their structure is a function of their size alone.
fn fresh_matrix(rng: &mut SplitMix64) -> CsrMatrix {
    let i = rng.next_below(MATRICES_PER_FAMILY);
    let dim = 300 * SMALL_SCALE_FACTOR * (1 << (i % 5)) * (1 + i / 5);
    match rng.next_below(6) {
        // Power-law graph.
        0 => {
            let n = dim / 2;
            let alpha = 1.7 + 0.1 * (i % 5) as f64;
            generators::power_law(n, alpha, (n / 8).max(4), rng)
        }
        // Skewed rows.
        1 => {
            let heavy = (dim / 16).max(16);
            let fraction = ((3 * (1 + i % 8)) as f64 / heavy as f64).min(0.5);
            generators::skewed_rows(dim, 3, heavy, fraction, rng)
        }
        // Uniform row lengths.
        2 => generators::uniform_row_length(dim, 4 + 3 * (i % 8), rng),
        // Uniform random.
        3 => {
            let n = dim / 2;
            let avg_row = (6 + 3 * (i % 5)) as f64;
            generators::uniform_random(n, n, avg_row / n as f64, rng)
        }
        // Tall and skinny.
        4 => generators::tall_skinny(dim, (dim / 20).max(8), 3 + i % 5, rng),
        // Hybrid mesh and graph.
        _ => generators::hybrid_mesh_graph(dim / 2, 2 + i % 3, rng),
    }
}

fn random_vector(len: usize, rng: &mut SplitMix64) -> Vec<Scalar> {
    (0..len).map(|_| rng.next_f64_range(-1.0, 1.0)).collect()
}
