//! Sharded concurrent serving on top of [`SeerEngine`].
//!
//! A single [`SeerEngine`] is `Send + Sync`, but every caller contends on the
//! same two `RwLock`-guarded caches, and under heavy mixed traffic the write
//! side (plan insertion, feature collection) serializes everything. The
//! [`ServingPool`] scales the service out instead of up:
//!
//! * it owns `N` **shards**, each a private [`SeerEngine`] sharing one
//!   device fleet and one set of trained models, plus one `std::thread`
//!   worker draining a queue;
//! * requests are routed by
//!   [`sparsity_fingerprint`](seer_sparse::CsrMatrix::sparsity_fingerprint)` %
//!   N` — the key the engine caches under, which a value-only
//!   [`update_values`](seer_sparse::CsrMatrix::update_values) keeps — so
//!   every sparsity pattern has one home shard and no selection or
//!   [`seer_kernels::PreparedPlan`] is computed twice across shards;
//! * [`ServingPool::submit`] is non-blocking and returns a [`Ticket`] that
//!   resolves to the [`ServingResponse`]; [`ServingPool::drain`] blocks until
//!   every accepted request has been served; [`ServingPool::shutdown`] drains,
//!   joins the workers and returns the final [`PoolStats`].
//!
//! Because selection is a pure function of (models, matrix, iterations,
//! policy), a pooled run returns **bit-identical** selections to a sequential
//! [`SeerEngine`] replay of the same request stream, whatever the
//! thread/shard interleaving — `tests/serving_pool.rs` holds this invariant
//! under an 8-thread hammer.
//!
//! # The serve path
//!
//! Seer pays for a selection once and replays the plan on every later
//! execution, and a shard worker serves the same way. Each dequeue yields a
//! *run*: the highest-priority queued job plus — up to
//! [`RoutingConfig::max_batch`] — the adjacent jobs of its lane that share
//! its sparsity fingerprint, workload kind, iteration count, policy and
//! matrix content. A single request is a run of one; every run takes the
//! one path:
//!
//! 1. **activation**, once per run: a select-only run resolves one
//!    selection, an execute run resolves its selection and pins the
//!    prepared plan ([`SeerEngine::activate_plan`]);
//! 2. **execution**, once per job, replaying the pinned plan
//!    ([`SeerEngine::try_execute_activated_into`]). The activation's
//!    selection overhead is billed to the run's first executed job, exactly
//!    as a sequential replay bills its first cache miss, so responses stay
//!    **bit-identical** to sequential serving.
//!
//! Each job is checked against its deadline at dequeue (an expired job is
//! shed, never executed); a panic fails only its own job
//! ([`ServingError::WorkerDied`]) and the worker lives on; a dead device, at
//! activation or mid-execution, gets one bounded retry on a fresh
//! activation (see [Elastic membership](#elastic-membership)).
//!
//! # Heterogeneous fleets
//!
//! A pool built over a multi-device [`Fleet`]
//! ([`ServingPool::with_fleet`]) becomes a **device-aware router**:
//! [`PoolConfig::shards`] shards are pinned to *each* device, every shard's
//! engine shares the whole fleet (so its selections are fleet-wide
//! deterministic), and routing composes two levels:
//!
//! 1. **device affinity** — a shared router engine resolves the request's
//!    `(kernel, device)` selection (cached per plan key, so repeat traffic
//!    routes with one hash probe) and picks the selected device's shard
//!    group;
//! 2. **fingerprint locality** — within the group, `sparsity_fingerprint() %
//!    group_size` pins the matrix to one home shard.
//!
//! Because placement is deterministic, every `(fingerprint, device, kernel)`
//! triple has exactly one home shard, so each prepared execution plan is
//! still built exactly once pool-wide. [`PoolStats::devices`] reports
//! per-device queue depth and served counts. A single-device pool has no
//! router and routes by bare fingerprint.
//!
//! # Elastic membership
//!
//! The fleet behind a running pool can change. [`ServingPool::add_device`]
//! registers a device and publishes a fresh shard group pinned to it (a
//! formerly single-device pool gains a router at that moment);
//! [`ServingPool::retire_device`] marks the device retired, narrowly
//! invalidates its cached kernel costs and prepared plans on every engine
//! ([`SeerEngine::invalidate_device`]), unpublishes its shard group and
//! drains the group's backlog onto surviving devices. A job whose placement
//! device is dead ([`Fleet::fail_device`]) is retried exactly once on a
//! fresh activation, which lands on a survivor — counted in
//! [`ShardStats::device_failures`], [`ShardStats::retried`] and
//! [`ShardStats::migrated`]; a retry that dies too resolves to
//! [`ServingError::DeviceFailed`]. A pool whose membership never changes
//! keeps every elastic counter at zero.
//!
//! # Admission control & overload
//!
//! A pool built with [`PoolConfig::with_admission`] grows a guarded front
//! door for traffic that exceeds capacity. Each shard's queue becomes
//! **bounded** ([`AdmissionConfig::queue_capacity`]) with three **priority
//! lanes** ([`Priority::Interactive`] / [`Priority::Batch`] /
//! [`Priority::BestEffort`]) dequeued strictly in that order, and the pool
//! enforces an optional pool-wide in-flight cap
//! ([`AdmissionConfig::max_in_flight`]). [`ServingPool::try_submit`] never
//! blocks: it returns [`SubmitOutcome::Accepted`] with a ticket or
//! [`SubmitOutcome::Shed`] with a typed [`ShedReason`].
//! [`ServingPool::submit`] keeps its blocking contract by waiting for
//! capacity (backpressure; counted in
//! [`AdmissionPoolStats::backpressure_waits`]), and
//! [`ServingPool::submit_with_timeout`] bounds that wait. A full queue
//! sheds by [`ShedPolicy`]: reject the newcomer, or evict the newest
//! strictly-lower-priority queued request to make room. Requests may carry
//! a [`ServingRequest::deadline`]; one still queued when it passes is shed
//! at dequeue and resolves its ticket to
//! [`ServingError::DeadlineExceeded`]. Queue-wait and end-to-end latency
//! distributions are recorded per priority class in fixed log-scale
//! histograms ([`PoolStats::latency`], `p50/p99/p999`), and the shed /
//! expired / backpressure counters ([`PoolStats::admission`]) balance
//! exactly: every admitted request resolves as served, shed, expired or
//! failed. Without admission control the queues are unbounded, `submit`
//! never sheds, and every admission counter stays zero (a submit racing
//! [`ServingPool::begin_shutdown`] or a retire resolves its ticket to the
//! typed [`ServingError::PoolClosed`] rather than panicking).
//!
//! # Routing offload
//!
//! A pool built with [`PoolConfig::with_routing`] moves the routing work off
//! the submitter thread: `submit`/`try_submit` enqueue into a small bounded
//! *routing stage* serviced by one dedicated routing worker, which computes
//! the request's sparsity fingerprint, resolves device affinity through the
//! shared router engine and forwards the job to its home shard — the same
//! placement step the inline path runs. The submit path is therefore O(1)
//! even for a cold matrix. Admission travels with the request: the
//! in-flight cap is still reserved at submit, priority lanes and deadlines
//! apply unchanged at the shard, and a full stage sheds with
//! [`ShedReason::RoutingStageFull`] (non-blocking) or backpressures the
//! submitter (blocking). The same config sets the run bound
//! [`RoutingConfig::max_batch`]; without it every run has length one.
//!
//! The counters ([`PoolStats::routing`]) prove both: `routed_async` counts
//! stage-forwarded requests, `batched_requests` / `batch_activations` count
//! the runs of two or more, and the front-door balance
//! (`served + shed + expired + failed == offered`) stays exact — in-stage
//! requests caught by a shutdown resolve typed
//! ([`ServingError::PoolClosed`], counted in
//! [`RoutingPoolStats::stage_closed`]). Without [`RoutingConfig`] every
//! routing counter stays zero.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use seer_core::engine::SeerEngine;
//! use seer_core::serving::{PoolConfig, ServingPool, ServingRequest};
//! use seer_core::training::TrainingConfig;
//! use seer_gpu::Gpu;
//! use seer_sparse::collection::{generate, CollectionConfig};
//!
//! # fn main() -> Result<(), seer_core::SeerError> {
//! let collection = generate(&CollectionConfig::tiny());
//! let (engine, _) =
//!     SeerEngine::train(Gpu::default(), &collection, &TrainingConfig::fast())?;
//!
//! let pool = ServingPool::from_engine(&engine, PoolConfig::with_shards(2));
//! let matrix = Arc::new(collection[0].matrix.clone());
//! let ticket = pool.submit(ServingRequest::select(Arc::clone(&matrix), 19));
//! let response = ticket.wait().expect("serving worker is healthy");
//! assert_eq!(response.selection, engine.select(&matrix, 19));
//!
//! let stats = pool.shutdown();
//! assert_eq!(stats.completed(), 1);
//! # Ok(())
//! # }
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use seer_gpu::{DeviceFailed, DeviceId, Fleet, Gpu, GpuSpec, MembershipError, SimTime, SpecError};
use seer_sparse::{CsrMatrix, Scalar};

use crate::engine::{
    EngineStats, EngineWorkspace, PlanActivation, Recalibration, RecalibrationConfig, SeerEngine,
};
use crate::inference::{Selection, SelectionPolicy};
use crate::training::SeerModels;

/// Configuration of a [`ServingPool`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolConfig {
    /// Number of shards (worker threads with private engines) pinned to
    /// *each* fleet device: a pool over an `N`-device fleet runs `N x
    /// shards` workers. For the single-device constructors this is simply
    /// the total shard count.
    pub shards: usize,
    /// Enable structure-class selection inheritance
    /// ([`SeerEngine::set_structure_class_reuse`]) on every shard engine and
    /// on the router, so fresh matrices from an already-served structure
    /// class skip the cold selection sweep. Off by default: inherited
    /// selections are approximate by design, and the pool's differential
    /// guarantees against a sequential engine hold exactly only without it.
    pub structure_class_reuse: bool,
    /// Online recalibration ([`SeerEngine::set_recalibration`]) shared
    /// pool-wide: one correction table is installed on every shard engine
    /// *and* the router, so a timing drift observed by any shard's execute
    /// traffic reweights placement for the whole pool. `None` (the default)
    /// keeps the pool bit-identical to a sequential engine replay.
    pub recalibration: Option<RecalibrationConfig>,
    /// Admission control at the pool's front door: bounded per-shard queues,
    /// an optional pool-wide in-flight cap and a full-queue [`ShedPolicy`].
    /// `None` (the default) keeps the classic unbounded pool — submits
    /// never shed and every admission counter stays zero.
    pub admission: Option<AdmissionConfig>,
    /// Routing offload and same-fingerprint micro-batching (see the
    /// [module docs](self#routing-offload)).
    /// `None` (the default) keeps routing on the submitter thread and
    /// serves every request as a run of one, with every
    /// [`RoutingPoolStats`] counter zero.
    pub routing: Option<RoutingConfig>,
}

impl PoolConfig {
    /// A pool with `shards` shards per device (clamped to at least one).
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            structure_class_reuse: false,
            recalibration: None,
            admission: None,
            routing: None,
        }
    }

    /// Returns the config with structure-class reuse switched on or off.
    pub fn with_class_reuse(mut self, enabled: bool) -> Self {
        self.structure_class_reuse = enabled;
        self
    }

    /// Returns the config with pool-wide observed-timing recalibration
    /// installed (or removed, with `None`).
    pub fn with_recalibration(mut self, config: Option<RecalibrationConfig>) -> Self {
        self.recalibration = config;
        self
    }

    /// Returns the config with front-door admission control installed (or
    /// removed, with `None`).
    pub fn with_admission(mut self, config: Option<AdmissionConfig>) -> Self {
        self.admission = config;
        self
    }

    /// Returns the config with routing offload + micro-batching installed
    /// (or removed, with `None`).
    pub fn with_routing(mut self, config: Option<RoutingConfig>) -> Self {
        self.routing = config;
        self
    }
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self::with_shards(4)
    }
}

/// Priority class of a [`ServingRequest`]. Each shard queue keeps one lane
/// per class and always dequeues the highest class first, so interactive
/// work overtakes queued batch work; under
/// [`ShedPolicy::DropLowestPriority`] pressure sheds the lowest class first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive foreground work: dequeued before every other class
    /// and shed last. The default, so requests that never mention a class
    /// keep the pool's classic latency behaviour.
    #[default]
    Interactive,
    /// Throughput work that tolerates queueing behind interactive traffic.
    Batch,
    /// Scavenger work: dequeued last and the first class an overloaded pool
    /// sheds.
    BestEffort,
}

impl Priority {
    /// Every class, in dequeue order (highest priority first).
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Batch, Priority::BestEffort];

    /// The class's queue-lane index: lane 0 dequeues first, lane 2 last.
    pub fn lane(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
            Priority::BestEffort => 2,
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Priority::Interactive => write!(f, "interactive"),
            Priority::Batch => write!(f, "batch"),
            Priority::BestEffort => write!(f, "best-effort"),
        }
    }
}

/// What a bounded shard queue does with an incoming request when it is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// Shed the incoming request (classic tail drop). Queued work is never
    /// disturbed, so every already-issued ticket still resolves in arrival
    /// order.
    #[default]
    RejectNewest,
    /// Evict the newest queued request of the lowest class *strictly below*
    /// the newcomer's to make room — the victim's ticket resolves to
    /// [`ServingError::Shed`] with [`ShedReason::Evicted`]. When nothing
    /// queued ranks below the newcomer, falls back to rejecting the
    /// newcomer.
    DropLowestPriority,
}

/// Admission control of a [`ServingPool`]'s front door. Installed with
/// [`PoolConfig::with_admission`]; see the
/// [module docs](self#admission-control--overload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum queued (admitted, not yet dequeued) requests per shard,
    /// summed over the three priority lanes. `0` means unbounded — the
    /// classic queue, with priority lanes and deadlines still honoured.
    pub queue_capacity: usize,
    /// Pool-wide cap on in-flight requests (admitted and not yet resolved).
    /// `0` means uncapped.
    pub max_in_flight: usize,
    /// What a full shard queue does with an incoming request.
    pub shed_policy: ShedPolicy,
}

impl AdmissionConfig {
    /// Admission control with per-shard queues bounded at `queue_capacity`,
    /// no in-flight cap and the default [`ShedPolicy::RejectNewest`].
    pub fn bounded(queue_capacity: usize) -> Self {
        Self {
            queue_capacity,
            max_in_flight: 0,
            shed_policy: ShedPolicy::RejectNewest,
        }
    }

    /// Returns the config with the pool-wide in-flight cap set (`0` =
    /// uncapped).
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// Returns the config with the full-queue policy set.
    pub fn with_shed_policy(mut self, shed_policy: ShedPolicy) -> Self {
        self.shed_policy = shed_policy;
        self
    }
}

impl Default for AdmissionConfig {
    /// 1024-deep shard queues, no in-flight cap, reject-newest shedding.
    fn default() -> Self {
        Self::bounded(1024)
    }
}

/// Routing offload + same-fingerprint micro-batching of a [`ServingPool`].
/// Installed with [`PoolConfig::with_routing`]; see the
/// [module docs](self#routing-offload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutingConfig {
    /// Maximum requests queued in the routing stage (submitted, not yet
    /// forwarded to a shard). A full stage sheds non-blocking submits with
    /// [`ShedReason::RoutingStageFull`] and backpressures blocking ones.
    /// `0` means unbounded.
    pub stage_capacity: usize,
    /// Maximum queued same-fingerprint requests a shard worker coalesces
    /// into one plan activation at dequeue. `1` (or `0`) disables
    /// coalescing while keeping the routing offload.
    pub max_batch: usize,
}

impl RoutingConfig {
    /// Returns the config with the routing-stage bound set (`0` =
    /// unbounded).
    pub fn with_stage_capacity(mut self, stage_capacity: usize) -> Self {
        self.stage_capacity = stage_capacity;
        self
    }

    /// Returns the config with the per-dequeue coalescing bound set.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }
}

impl Default for RoutingConfig {
    /// A 1024-deep routing stage and runs of up to 8 coalesced requests.
    fn default() -> Self {
        Self {
            stage_capacity: 1024,
            max_batch: 8,
        }
    }
}

/// Why the admission controller refused — or revoked — a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ShedReason {
    /// The home shard's bounded queue was full (and, under
    /// [`ShedPolicy::DropLowestPriority`], nothing queued ranked strictly
    /// below the newcomer).
    QueueFull {
        /// The shard whose queue was full.
        shard: usize,
    },
    /// The pool-wide [`AdmissionConfig::max_in_flight`] cap was reached.
    InFlightCap,
    /// A blocking [`ServingPool::submit_with_timeout`] spent its whole
    /// timeout waiting for capacity.
    BackpressureTimeout,
    /// The bounded routing stage of a routing-offloaded pool
    /// ([`PoolConfig::with_routing`]) was full (non-blocking submits;
    /// blocking submits backpressure instead).
    RoutingStageFull,
    /// An already-queued request was evicted by a higher-priority arrival
    /// under [`ShedPolicy::DropLowestPriority`].
    Evicted {
        /// The shard whose queue the victim was evicted from.
        shard: usize,
    },
    /// The pool is shutting down ([`ServingPool::begin_shutdown`],
    /// [`ServingPool::shutdown`] or drop).
    PoolClosed,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::QueueFull { shard } => write!(f, "shard {shard}'s bounded queue was full"),
            Self::InFlightCap => write!(f, "the pool-wide in-flight cap was reached"),
            Self::BackpressureTimeout => {
                write!(f, "the submit timed out waiting for pool capacity")
            }
            Self::RoutingStageFull => write!(f, "the bounded routing stage was full"),
            Self::Evicted { shard } => {
                write!(f, "evicted from shard {shard} by a higher-priority arrival")
            }
            Self::PoolClosed => write!(f, "the pool is shutting down"),
        }
    }
}

/// The typed outcome of a non-blocking [`ServingPool::try_submit`] or a
/// bounded [`ServingPool::submit_with_timeout`].
#[derive(Debug)]
#[must_use = "a shed request was never enqueued; inspect the outcome"]
pub enum SubmitOutcome {
    /// The request was admitted; the ticket resolves to its response.
    Accepted(Ticket),
    /// The request was refused at the front door and will never execute.
    /// No ticket exists; the refusal is counted in
    /// [`PoolStats::admission`].
    Shed {
        /// Why admission refused the request.
        reason: ShedReason,
    },
}

impl SubmitOutcome {
    /// Whether the request was admitted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, Self::Accepted(_))
    }

    /// The ticket of an accepted request; `None` if it was shed.
    pub fn ticket(self) -> Option<Ticket> {
        match self {
            Self::Accepted(ticket) => Some(ticket),
            Self::Shed { .. } => None,
        }
    }

    /// The shed reason of a refused request; `None` if it was accepted.
    pub fn shed_reason(&self) -> Option<ShedReason> {
        match self {
            Self::Accepted(_) => None,
            Self::Shed { reason } => Some(*reason),
        }
    }
}

/// What a request asks its shard to do.
#[derive(Debug, Clone)]
pub enum Workload {
    /// Produce a [`Selection`] only (the paper's runtime decision).
    SelectOnly,
    /// Select, then functionally execute the chosen kernel on `x` and report
    /// the modelled end-to-end time.
    Execute {
        /// The dense input vector; must satisfy `x.len() == matrix.cols()`.
        x: Arc<Vec<Scalar>>,
    },
    /// Test-only chaos workload: panics inside the serving worker, so the
    /// worker-death recovery path ([`ServingError::WorkerDied`]) can be
    /// exercised deterministically.
    #[cfg(test)]
    PanicInjection,
    /// Test-only chaos workload: blocks the serving worker until the shared
    /// gate is set to `true`, then serves like [`Workload::SelectOnly`], so
    /// tests can deterministically stage queue contents behind it.
    #[cfg(test)]
    Gate {
        /// Open the gate by setting the flag and notifying the Condvar.
        gate: Arc<(Mutex<bool>, Condvar)>,
    },
}

/// One request submitted to a [`ServingPool`].
#[derive(Debug, Clone)]
pub struct ServingRequest {
    /// The target matrix. `Arc` so a hot matrix is shared, not copied, across
    /// the submitters and queues of a busy service.
    pub matrix: Arc<CsrMatrix>,
    /// Workload length the selection optimizes for.
    pub iterations: usize,
    /// Which predictor flow to follow.
    pub policy: SelectionPolicy,
    /// Whether to stop at the selection or also execute the kernel.
    pub workload: Workload,
    /// Priority class: which queue lane the request waits in and how eager
    /// an overloaded pool is to shed it. [`Priority::Interactive`] by
    /// default.
    pub priority: Priority,
    /// Optional deadline. A request still queued when its deadline passes
    /// is shed at dequeue — never executed — and its ticket resolves to
    /// [`ServingError::DeadlineExceeded`]. A request already executing is
    /// never interrupted. `None` (the default) never expires.
    pub deadline: Option<Instant>,
}

impl ServingRequest {
    /// A selection-only request under the adaptive (Fig. 3) policy.
    pub fn select(matrix: Arc<CsrMatrix>, iterations: usize) -> Self {
        Self {
            matrix,
            iterations,
            policy: SelectionPolicy::Adaptive,
            workload: Workload::SelectOnly,
            priority: Priority::default(),
            deadline: None,
        }
    }

    /// A select-and-execute request under the adaptive policy.
    pub fn execute(matrix: Arc<CsrMatrix>, x: Arc<Vec<Scalar>>, iterations: usize) -> Self {
        Self {
            matrix,
            iterations,
            policy: SelectionPolicy::Adaptive,
            workload: Workload::Execute { x },
            priority: Priority::default(),
            deadline: None,
        }
    }

    /// The same request under a different [`SelectionPolicy`].
    pub fn with_policy(mut self, policy: SelectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The same request in a different [`Priority`] class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The same request with an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The same request with a deadline `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }
}

/// The served result of one [`ServingRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServingResponse {
    /// The selection the shard's engine made.
    pub selection: Selection,
    /// The product vector, for [`Workload::Execute`] requests.
    pub result: Option<Vec<Scalar>>,
    /// Modelled end-to-end time, for [`Workload::Execute`] requests. Plan
    /// replays charge no selection overhead, exactly like
    /// [`SeerEngine::execute`].
    pub total_time: Option<SimTime>,
    /// Index of the shard that served the request.
    pub shard: usize,
}

/// A recoverable serving failure, reported through [`Ticket`] accessors
/// instead of a panic on the *caller's* thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServingError {
    /// The serving worker dropped the request without replying — it panicked
    /// while serving this request. The worker itself survives (the serve
    /// call is unwind-isolated), the failure is recorded in
    /// [`ShardStats::failed`], and only this request's ticket observes the
    /// error.
    WorkerDied {
        /// The shard whose worker dropped the request.
        shard: usize,
    },
    /// The request's placement device died mid-execution, and the bounded
    /// retry on a surviving device also hit a dead device (or no live device
    /// remained). The request was *not* silently dropped — both attempts are
    /// counted in [`ShardStats::device_failures`] — but the pool will not
    /// retry unboundedly. Distinct from [`ServingError::WorkerDied`], which
    /// is reserved for genuine worker panics.
    DeviceFailed {
        /// The device whose failure exhausted the retry budget.
        device: DeviceId,
    },
    /// The request was still queued when its [`ServingRequest::deadline`]
    /// passed: it was shed at dequeue — never executed — and counted in
    /// [`ShardStats::expired`].
    DeadlineExceeded {
        /// The shard whose queue the request expired in.
        shard: usize,
    },
    /// The request was admitted but later shed by the admission controller
    /// — evicted from its queue by a higher-priority arrival under
    /// [`ShedPolicy::DropLowestPriority`]. Counted in
    /// [`ShardStats::shed`].
    Shed {
        /// Why the admitted request was shed.
        reason: ShedReason,
    },
    /// The pool began shutting down before the request could be enqueued —
    /// the typed outcome of a [`ServingPool::submit`] racing
    /// [`ServingPool::begin_shutdown`] / [`ServingPool::shutdown`].
    PoolClosed,
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WorkerDied { shard } => {
                write!(f, "serving worker for shard {shard} dropped the request")
            }
            Self::DeviceFailed { device } => {
                write!(
                    f,
                    "request failed on {device} and the one bounded retry also failed"
                )
            }
            Self::DeadlineExceeded { shard } => {
                write!(
                    f,
                    "request expired in shard {shard}'s queue before it could execute"
                )
            }
            Self::Shed { reason } => write!(f, "request shed after admission: {reason}"),
            Self::PoolClosed => write!(f, "the serving pool is shutting down"),
        }
    }
}

impl std::error::Error for ServingError {}

/// The one-shot resolution slot shared by a [`Ticket`] and the worker-side
/// [`Responder`] that fills it. The Condvar means a parked [`Ticket::wait`]
/// wakes the moment the worker resolves the outcome — no polling loop, no
/// wake latency beyond the scheduler's.
#[derive(Debug)]
struct TicketCell {
    outcome: Mutex<Option<Result<ServingResponse, ServingError>>>,
    resolved: Condvar,
}

impl TicketCell {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            outcome: Mutex::new(None),
            resolved: Condvar::new(),
        })
    }

    /// Stores the outcome (first writer wins) and wakes every waiter.
    fn resolve(&self, outcome: Result<ServingResponse, ServingError>) {
        let mut slot = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(outcome);
        }
        drop(slot);
        self.resolved.notify_all();
    }
}

/// The worker-side half of a ticket: resolves it exactly once. Dropping a
/// `Responder` unresolved — a panic mid-serve, a job stranded in a closed
/// queue, a failed send — resolves the ticket to
/// [`ServingError::WorkerDied`], so a waiter can never hang on a request
/// nothing will serve.
#[derive(Debug)]
struct Responder {
    cell: Option<Arc<TicketCell>>,
    shard: usize,
}

impl Responder {
    fn resolve(mut self, outcome: Result<ServingResponse, ServingError>) {
        if let Some(cell) = self.cell.take() {
            cell.resolve(outcome);
        }
    }
}

impl Drop for Responder {
    fn drop(&mut self) {
        if let Some(cell) = self.cell.take() {
            cell.resolve(Err(ServingError::WorkerDied { shard: self.shard }));
        }
    }
}

/// A pending response from a [`ServingPool`].
///
/// Every accessor returns `Result`: a worker that panics while serving this
/// request surfaces as a recoverable [`ServingError::WorkerDied`] rather
/// than a panic in the waiting caller, and a request whose bounded device
/// retry is exhausted surfaces [`ServingError::DeviceFailed`].
///
/// [`Ticket::wait`] and [`Ticket::wait_timeout`] block on a Condvar shared
/// with the serving worker, so a parked waiter wakes promptly when the
/// outcome lands instead of polling a channel.
#[derive(Debug)]
pub struct Ticket {
    cell: Arc<TicketCell>,
    shard: usize,
    /// An outcome already taken out of the cell by one of the borrowing
    /// accessors ([`Ticket::try_wait`], [`Ticket::wait_timeout`]), kept so a
    /// later `wait` still observes it.
    received: Option<Result<ServingResponse, ServingError>>,
}

impl Ticket {
    /// The shard the request was routed to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Whether the request has resolved — served *or* failed — without
    /// blocking. The outcome stays owned by the ticket, so `is_done`
    /// followed by [`Ticket::wait`] never loses it; a dead worker resolves
    /// the ticket (to [`ServingError::WorkerDied`]) rather than turning the
    /// documented polling loop into a silent spin.
    pub fn is_done(&self) -> bool {
        self.received.is_some()
            || self
                .cell
                .outcome
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_some()
    }

    /// Blocks until the request resolves, parking on the ticket's Condvar.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::WorkerDied`] if the serving worker panicked
    /// on this request and dropped it without replying (other requests on
    /// the same shard are unaffected), or [`ServingError::DeviceFailed`] if
    /// the request's device died and the bounded retry failed too.
    pub fn wait(self) -> Result<ServingResponse, ServingError> {
        if let Some(outcome) = self.received {
            return outcome;
        }
        let mut slot = self
            .cell
            .outcome
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(outcome) = slot.take() {
                return outcome;
            }
            slot = self
                .cell
                .resolved
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Returns the response if the request has already resolved, without
    /// blocking; `Ok(None)` while it is still in flight.
    ///
    /// A response observed here stays owned by the ticket: polling
    /// `try_wait` and then calling [`Ticket::wait`] returns the same
    /// response rather than losing it.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::WorkerDied`] or
    /// [`ServingError::DeviceFailed`] if the request failed, like
    /// [`Ticket::wait`].
    pub fn try_wait(&mut self) -> Result<Option<&ServingResponse>, ServingError> {
        if self.received.is_none() {
            self.received = self
                .cell
                .outcome
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take();
        }
        match &self.received {
            Some(Ok(response)) => Ok(Some(response)),
            Some(Err(error)) => Err(*error),
            None => Ok(None),
        }
    }

    /// Waits up to `timeout` for the request to resolve, without consuming
    /// the ticket. Returns `Ok(None)` on timeout; the ticket stays valid, so
    /// callers can interleave bounded waits with other work and still
    /// [`Ticket::wait`] (or poll again) later. Like the other accessors, an
    /// observed outcome stays owned by the ticket. The wait parks on the
    /// ticket's Condvar (spurious wakes re-checked against the deadline)
    /// rather than spinning.
    ///
    /// # Errors
    ///
    /// Returns [`ServingError::WorkerDied`] or
    /// [`ServingError::DeviceFailed`] if the request failed, like
    /// [`Ticket::wait`].
    pub fn wait_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<&ServingResponse>, ServingError> {
        if self.received.is_none() {
            let deadline = Instant::now() + timeout;
            let mut slot = self
                .cell
                .outcome
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            while slot.is_none() {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                (slot, _) = self
                    .cell
                    .resolved
                    .wait_timeout(slot, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            self.received = slot.take();
        }
        match &self.received {
            Some(Ok(response)) => Ok(Some(response)),
            Some(Err(error)) => Err(*error),
            None => Ok(None),
        }
    }
}

/// Number of fixed log-scale buckets in a latency histogram: bucket `i`
/// counts samples in `[2^i, 2^(i+1))` nanoseconds, which spans 1 ns to
/// centuries — no recorded duration is ever out of range.
pub const LATENCY_BUCKETS: usize = 64;

/// One latency distribution with lock-free recording: 64 fixed
/// power-of-two buckets, so `record` is a leading-zeros count plus one
/// relaxed atomic increment — no allocation, no lock, no sorting on the
/// serving hot path.
#[derive(Debug)]
struct AtomicHistogram {
    counts: [AtomicU64; LATENCY_BUCKETS],
}

impl AtomicHistogram {
    fn new() -> Self {
        Self {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record(&self, duration: Duration) {
        let nanos = duration.as_nanos().clamp(1, u64::MAX as u128) as u64;
        let bucket = 63 - nanos.leading_zeros() as usize;
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let counts: [u64; LATENCY_BUCKETS] =
            std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed));
        let total = counts.iter().fold(0u64, |n, &c| n.saturating_add(c));
        HistogramSnapshot { counts, total }
    }
}

/// An immutable snapshot of one fixed-bucket log-scale latency histogram:
/// bucket `i` counts samples in `[2^i, 2^(i+1))` nanoseconds. Quantiles
/// interpolate linearly inside the bounding bucket; an empty histogram's
/// quantiles are all [`Duration::ZERO`] — never `NaN`, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    counts: [u64; LATENCY_BUCKETS],
    total: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            counts: [0; LATENCY_BUCKETS],
            total: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Per-bucket sample counts; bucket `i` spans `[2^i, 2^(i+1))` ns.
    pub fn bucket_counts(&self) -> &[u64; LATENCY_BUCKETS] {
        &self.counts
    }

    /// The `q`-quantile (clamped into `[0, 1]`) of the recorded samples,
    /// linearly interpolated inside its log-scale bucket.
    /// [`Duration::ZERO`] when nothing was recorded.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.total == 0 {
            return Duration::ZERO;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        // 1-based rank of the sample bounding the quantile.
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0u64;
        for (bucket, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if below + count >= target {
                // The bucket spans [2^bucket, 2^(bucket+1)): interpolate by
                // the rank's position among the bucket's samples.
                let lower = (1u128 << bucket) as f64;
                let fraction = (target - below) as f64 / count as f64;
                return Duration::from_nanos((lower + lower * fraction) as u64);
            }
            below += count;
        }
        Duration::ZERO
    }

    /// Median latency ([`Duration::ZERO`] when empty).
    pub fn p50(&self) -> Duration {
        self.quantile(0.50)
    }

    /// 99th-percentile latency ([`Duration::ZERO`] when empty).
    pub fn p99(&self) -> Duration {
        self.quantile(0.99)
    }

    /// 99.9th-percentile latency ([`Duration::ZERO`] when empty).
    pub fn p999(&self) -> Duration {
        self.quantile(0.999)
    }
}

/// The pool-wide latency recorder: queue-wait and end-to-end distributions,
/// one atomic histogram per priority class each. Always recorded — the
/// histograms are pure observability and never influence serving.
#[derive(Debug)]
struct LatencyRecorder {
    queue_wait: [AtomicHistogram; 3],
    end_to_end: [AtomicHistogram; 3],
}

impl LatencyRecorder {
    fn new() -> Self {
        Self {
            queue_wait: std::array::from_fn(|_| AtomicHistogram::new()),
            end_to_end: std::array::from_fn(|_| AtomicHistogram::new()),
        }
    }

    fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            queue_wait: std::array::from_fn(|i| self.queue_wait[i].snapshot()),
            end_to_end: std::array::from_fn(|i| self.end_to_end[i].snapshot()),
        }
    }
}

/// Snapshot of a pool's latency distributions, per priority class, in
/// [`PoolStats::latency`]. Queue wait is admission → dequeue for every
/// dequeued request (served, expired or failed); end-to-end is admission →
/// resolution for served requests only.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    queue_wait: [HistogramSnapshot; 3],
    end_to_end: [HistogramSnapshot; 3],
}

impl LatencySnapshot {
    /// The queue-wait distribution of one priority class.
    pub fn queue_wait(&self, class: Priority) -> &HistogramSnapshot {
        &self.queue_wait[class.lane()]
    }

    /// The end-to-end (admission → resolution) distribution of one
    /// priority class's served requests.
    pub fn end_to_end(&self, class: Priority) -> &HistogramSnapshot {
        &self.end_to_end[class.lane()]
    }
}

/// Snapshot of one shard's serving counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// The fleet device this shard is pinned to (always the default device
    /// in a single-device pool).
    pub device: DeviceId,
    /// Requests accepted (routed and enqueued) by this shard.
    pub submitted: u64,
    /// Requests fully resolved by this shard — served, failed, expired or
    /// evicted. Every resolution counts as completed so drain/shutdown
    /// never hang on any of them.
    pub completed: u64,
    /// Requests served successfully (a response, not an error). Together
    /// with `failed`, `expired` and `shed` these partition `completed`
    /// exactly.
    pub served: u64,
    /// Requests dropped by a worker panic mid-serve; each one resolved its
    /// ticket to [`ServingError::WorkerDied`]. Always `<= completed`.
    pub failed: u64,
    /// Admitted requests whose deadline passed while queued: shed at
    /// dequeue (never executed), resolved to
    /// [`ServingError::DeadlineExceeded`].
    pub expired: u64,
    /// Admitted requests evicted from this shard's queue by a
    /// higher-priority arrival under [`ShedPolicy::DropLowestPriority`];
    /// resolved to [`ServingError::Shed`].
    pub shed: u64,
    /// Execution attempts on this shard that hit a dead device (a
    /// [`seer_gpu::DeviceFailed`] from the engine). A request that fails,
    /// retries and fails again counts twice.
    pub device_failures: u64,
    /// Requests that were retried once after their first attempt died on a
    /// failed device.
    pub retried: u64,
    /// Requests served successfully by this shard while its pinned device
    /// was no longer live — drained backlog and retried work that migrated
    /// to a surviving device.
    pub migrated: u64,
    /// Cache/fallback counters of the shard's engine.
    pub engine: EngineStats,
    /// Distinct plans currently cached by the shard's engine.
    pub cached_plans: usize,
}

impl ShardStats {
    /// Requests accepted but not yet resolved.
    pub fn queue_depth(&self) -> u64 {
        self.submitted.saturating_sub(self.completed)
    }
}

/// Per-device rollup of a fleet pool's counters: the shards pinned to one
/// device, summed. Built by [`PoolStats::devices`]. `Default` is the empty
/// lane of the default device: all counters zero.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DevicePoolStats {
    /// The device this lane serves.
    pub device: DeviceId,
    /// Number of shards pinned to the device.
    pub shards: usize,
    /// Requests routed to the device's shard group.
    pub submitted: u64,
    /// Requests resolved (served, failed, expired or evicted) by the
    /// device's shard group.
    pub completed: u64,
    /// Requests served successfully across the device's shards.
    pub served: u64,
    /// Requests dropped by worker panics across the device's shards.
    pub failed: u64,
    /// Deadline-expired requests shed at dequeue across the device's
    /// shards.
    pub expired: u64,
    /// Queued requests evicted by higher-priority arrivals across the
    /// device's shards.
    pub shed: u64,
    /// Dead-device execution attempts across the device's shards.
    pub device_failures: u64,
    /// Requests retried once across the device's shards.
    pub retried: u64,
    /// Requests served by this device's shards after the device stopped
    /// being live (drained/migrated work).
    pub migrated: u64,
    /// Engine counters summed over the device's shards.
    pub engine: EngineStats,
}

impl DevicePoolStats {
    /// Requests accepted by this device's shards but not yet served.
    pub fn queue_depth(&self) -> u64 {
        self.submitted.saturating_sub(self.completed)
    }

    /// Fraction of this device lane's resolved requests that failed, in
    /// `[0, 1]`. `0.0` when nothing has resolved yet — never `NaN`.
    pub fn failure_rate(&self) -> f64 {
        if self.completed == 0 {
            0.0
        } else {
            self.failed as f64 / self.completed as f64
        }
    }
}

/// Front-door counters of a pool snapshot. All zero on a pool built
/// without [`AdmissionConfig`] (except `shed_closed`, which also counts
/// submits refused by a shutdown race on an uncontrolled pool).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionPoolStats {
    /// Whether the pool was built with an [`AdmissionConfig`].
    pub enabled: bool,
    /// Requests refused at admission because the home shard's bounded
    /// queue was full (non-blocking submits).
    pub shed_queue_full: u64,
    /// Requests refused at admission by the pool-wide in-flight cap
    /// (non-blocking submits).
    pub shed_in_flight: u64,
    /// Blocking submits that gave up after their backpressure timeout.
    pub shed_timeout: u64,
    /// Requests refused because the pool was shutting down.
    pub shed_closed: u64,
    /// Admitted requests evicted from a queue by a higher-priority arrival
    /// — the sum of [`ShardStats::shed`].
    pub evicted: u64,
    /// Admitted requests whose deadline passed while queued — the sum of
    /// [`ShardStats::expired`].
    pub expired: u64,
    /// Blocking submits that had to wait for capacity at least once before
    /// admission (or before timing out).
    pub backpressure_waits: u64,
    /// Requests admitted but not yet resolved when the snapshot was taken.
    pub in_flight: u64,
}

impl AdmissionPoolStats {
    /// Everything the front door refused or revoked: unticketed refusals
    /// (`shed_queue_full + shed_in_flight + shed_timeout + shed_closed`)
    /// plus post-admission evictions. Deadline expiries are *not* included
    /// — they are deadline misses, not load shedding.
    pub fn shed_total(&self) -> u64 {
        self.shed_queue_full
            .saturating_add(self.shed_in_flight)
            .saturating_add(self.shed_timeout)
            .saturating_add(self.shed_closed)
            .saturating_add(self.evicted)
    }

    /// The refusals that never produced a ticket — everything in
    /// `shed_total` except evictions, which had been admitted first.
    pub fn unticketed(&self) -> u64 {
        self.shed_queue_full
            .saturating_add(self.shed_in_flight)
            .saturating_add(self.shed_timeout)
            .saturating_add(self.shed_closed)
    }
}

/// Routing-offload and micro-batching counters of a pool snapshot
/// ([`PoolStats::routing`]). All zero on a pool built without
/// [`RoutingConfig`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingPoolStats {
    /// Whether the pool was built with a [`RoutingConfig`].
    pub enabled: bool,
    /// Requests routed and forwarded to their home shard by the dedicated
    /// routing worker (instead of on the submitter thread).
    pub routed_async: u64,
    /// Non-blocking submits refused because the bounded routing stage was
    /// full ([`ShedReason::RoutingStageFull`]).
    pub shed_stage_full: u64,
    /// Ticketed requests still in the routing stage when shutdown began;
    /// each resolved its ticket to [`ServingError::PoolClosed`].
    pub stage_closed: u64,
    /// Requests served as part of a coalesced same-fingerprint run of two
    /// or more.
    pub batched_requests: u64,
    /// Coalesced runs of two or more requests — each cost one selection
    /// resolve and one plan pin for the whole run.
    pub batch_activations: u64,
    /// Requests sitting in the routing stage when the snapshot was taken.
    pub in_stage: u64,
    /// Submitter-thread latency of accepted submits (admission + stage
    /// enqueue; the routing itself happens off-thread).
    pub submit: HistogramSnapshot,
}

impl RoutingPoolStats {
    /// Mean size of coalesced runs (`0.0` before the first batch forms —
    /// never `NaN`). Only runs of two or more count; a pool that never
    /// coalesces reports `0.0`.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batch_activations == 0 {
            0.0
        } else {
            self.batched_requests as f64 / self.batch_activations as f64
        }
    }
}

/// Aggregate snapshot of a [`ServingPool`].
#[derive(Debug, Clone, PartialEq)]
pub struct PoolStats {
    /// Per-shard counters, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Counters of the shared router engine that resolves device affinity —
    /// `None` for single-device pools, which route by bare fingerprint.
    /// Router selections are routing work, not served requests: they are
    /// deliberately kept out of the per-shard counters so
    /// `engine().selections()` still equals the requests served.
    pub router: Option<EngineStats>,
    /// Front-door admission counters; all zero without admission control.
    pub admission: AdmissionPoolStats,
    /// Routing-offload and micro-batching counters; all zero without
    /// [`RoutingConfig`].
    pub routing: RoutingPoolStats,
    /// Queue-wait and end-to-end latency distributions per priority class.
    pub latency: LatencySnapshot,
    /// Wall-clock time since the pool was created.
    pub elapsed: Duration,
}

impl PoolStats {
    /// Per-device rollups, in device order: each entry sums the shards
    /// pinned to that device, so the entries partition the pool and their
    /// sums equal the aggregate counters.
    pub fn devices(&self) -> Vec<DevicePoolStats> {
        let mut lanes: Vec<DevicePoolStats> = Vec::new();
        for shard in &self.shards {
            let lane = match lanes.iter_mut().find(|lane| lane.device == shard.device) {
                Some(lane) => lane,
                None => {
                    lanes.push(DevicePoolStats {
                        device: shard.device,
                        ..DevicePoolStats::default()
                    });
                    lanes.last_mut().expect("just pushed")
                }
            };
            lane.shards += 1;
            lane.submitted = lane.submitted.saturating_add(shard.submitted);
            lane.completed = lane.completed.saturating_add(shard.completed);
            lane.served = lane.served.saturating_add(shard.served);
            lane.failed = lane.failed.saturating_add(shard.failed);
            lane.expired = lane.expired.saturating_add(shard.expired);
            lane.shed = lane.shed.saturating_add(shard.shed);
            lane.device_failures = lane.device_failures.saturating_add(shard.device_failures);
            lane.retried = lane.retried.saturating_add(shard.retried);
            lane.migrated = lane.migrated.saturating_add(shard.migrated);
            lane.engine = lane.engine.saturating_add(shard.engine);
        }
        lanes.sort_by_key(|lane| lane.device);
        lanes
    }

    /// Total requests accepted across all shards.
    pub fn submitted(&self) -> u64 {
        self.shards
            .iter()
            .fold(0, |n, s| n.saturating_add(s.submitted))
    }

    /// Total requests served across all shards.
    pub fn completed(&self) -> u64 {
        self.shards
            .iter()
            .fold(0, |n, s| n.saturating_add(s.completed))
    }

    /// Total requests served successfully across all shards.
    pub fn served(&self) -> u64 {
        self.shards
            .iter()
            .fold(0, |n, s| n.saturating_add(s.served))
    }

    /// Total requests dropped by worker panics across all shards.
    pub fn failed(&self) -> u64 {
        self.shards
            .iter()
            .fold(0, |n, s| n.saturating_add(s.failed))
    }

    /// Total admitted requests whose deadline passed while queued.
    pub fn expired(&self) -> u64 {
        self.shards
            .iter()
            .fold(0, |n, s| n.saturating_add(s.expired))
    }

    /// Everything the front door refused or revoked — see
    /// [`AdmissionPoolStats::shed_total`] — plus routing-stage refusals
    /// and in-stage requests revoked by shutdown.
    pub fn shed(&self) -> u64 {
        self.admission
            .shed_total()
            .saturating_add(self.routing.shed_stage_full)
            .saturating_add(self.routing.stage_closed)
    }

    /// Blocking submits that waited for capacity at least once.
    pub fn backpressure_waits(&self) -> u64 {
        self.admission.backpressure_waits
    }

    /// Requests ever offered to the front door: admitted plus refused
    /// before ticketing, plus routed requests that never reached a shard
    /// (shed at a full routing stage, or caught in-stage by shutdown).
    pub fn offered(&self) -> u64 {
        self.submitted()
            .saturating_add(self.admission.unticketed())
            .saturating_add(self.routing.shed_stage_full)
            .saturating_add(self.routing.stage_closed)
    }

    /// Fraction of offered requests the front door shed, in `[0, 1]`.
    /// `0.0` when nothing was offered yet — never `NaN`.
    pub fn shed_rate(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.shed() as f64 / offered as f64
        }
    }

    /// Total dead-device execution attempts across all shards.
    pub fn device_failures(&self) -> u64 {
        self.shards
            .iter()
            .fold(0, |n, s| n.saturating_add(s.device_failures))
    }

    /// Total requests retried once after a dead-device attempt.
    pub fn retried(&self) -> u64 {
        self.shards
            .iter()
            .fold(0, |n, s| n.saturating_add(s.retried))
    }

    /// Total requests served by a shard whose pinned device was no longer
    /// live — drained backlog and retried work re-homed onto survivors.
    pub fn migrations(&self) -> u64 {
        self.shards
            .iter()
            .fold(0, |n, s| n.saturating_add(s.migrated))
    }

    /// Fraction of resolved requests that failed, in `[0, 1]`. `0.0` when
    /// nothing has resolved yet — never `NaN`.
    pub fn failure_rate(&self) -> f64 {
        let completed = self.completed();
        if completed == 0 {
            0.0
        } else {
            self.failed() as f64 / completed as f64
        }
    }

    /// Fraction of resolved requests that needed the bounded device retry,
    /// in `[0, 1]`. `0.0` when nothing has resolved yet — never `NaN`.
    pub fn retry_rate(&self) -> f64 {
        let completed = self.completed();
        if completed == 0 {
            0.0
        } else {
            self.retried() as f64 / completed as f64
        }
    }

    /// Fraction of resolved requests that were served off their submission
    /// device, in `[0, 1]`. `0.0` when nothing has resolved yet — never
    /// `NaN`.
    pub fn migration_rate(&self) -> f64 {
        let completed = self.completed();
        if completed == 0 {
            0.0
        } else {
            self.migrations() as f64 / completed as f64
        }
    }

    /// Total requests accepted but not yet served.
    pub fn queue_depth(&self) -> u64 {
        self.submitted().saturating_sub(self.completed())
    }

    /// Engine counters aggregated over every shard (saturating sums).
    pub fn engine(&self) -> EngineStats {
        self.shards.iter().fold(EngineStats::default(), |acc, s| {
            acc.saturating_add(s.engine)
        })
    }

    /// Served requests per second of pool lifetime.
    pub fn throughput_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed() as f64 / secs
        }
    }
}

/// A job in flight: the request plus the responder that resolves its ticket.
struct Job {
    request: ServingRequest,
    responder: Responder,
    /// When the job was admitted — the zero point of its queue-wait and
    /// end-to-end latency samples.
    admitted: Instant,
    /// The matrix's sparsity fingerprint — the routing key — computed once
    /// per request (on the submitter for inline routing, on the routing
    /// worker for offloaded routing) and carried through every
    /// admission → routing → shard hop and the dequeue-time batching
    /// probe. `0` only while the job sits in the routing stage, before the
    /// routing worker stamps it.
    fingerprint: u64,
}

/// One shard's queue: three priority lanes behind one mutex, a bound
/// enforced by the submit side, and two condvars — `available` wakes the
/// worker on push/close, `space` wakes backpressured submitters on
/// pop/evict/close. An admission-free pool never hits the bound.
struct ShardQueue {
    state: Mutex<QueueState>,
    available: Condvar,
    space: Condvar,
}

struct QueueState {
    /// One FIFO lane per [`Priority`], indexed by [`Priority::lane`]; the
    /// worker always drains the lowest-index non-empty lane first.
    lanes: [VecDeque<Job>; 3],
    /// Closed by shutdown or this shard's device retirement: pushes are
    /// refused and the worker exits once the lanes are empty.
    closed: bool,
    /// Submitters currently parked on `space`; workers skip the notify
    /// syscall when nobody waits.
    space_waiters: usize,
}

impl QueueState {
    fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }
}

impl ShardQueue {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(QueueState {
                lanes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                closed: false,
                space_waiters: 0,
            }),
            available: Condvar::new(),
            space: Condvar::new(),
        })
    }

    /// Marks the queue closed and wakes the worker (to drain and exit) and
    /// every backpressured submitter (to re-route or shed). Idempotent.
    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.closed = true;
        drop(state);
        self.available.notify_all();
        self.space.notify_all();
    }

    /// Worker-side blocking pop: fills `run` with the highest-priority
    /// queued job plus — when `max_batch > 1` — up to `max_batch - 1`
    /// *immediately following* jobs from the same lane that are
    /// batch-compatible with it ([`batchable`]: same sparsity fingerprint,
    /// workload kind, iterations, policy and matrix content). Returns
    /// `false` once the queue is closed *and* empty (close-then-drain
    /// semantics). With `max_batch <= 1` every run has length one.
    ///
    /// Batches form only here, at dequeue: nothing queued is ever committed
    /// to a run, so an eviction or a deadline expiry of a queued
    /// would-be-batchmate needs no special casing.
    fn pop_run(&self, run: &mut Vec<Job>, max_batch: usize) -> bool {
        run.clear();
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(lane) = state.lanes.iter_mut().find(|lane| !lane.is_empty()) {
                run.push(lane.pop_front().expect("lane is non-empty"));
                while run.len() < max_batch
                    && lane.front().is_some_and(|next| batchable(&run[0], next))
                {
                    run.push(lane.pop_front().expect("lane is non-empty"));
                }
                if state.space_waiters > 0 {
                    self.space.notify_all();
                }
                return true;
            }
            if state.closed {
                return false;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Whether two adjacent queued jobs may share one plan activation: same
/// workload kind (select-only with select-only, execute with execute —
/// never the chaos workloads), same routing key, same workload length and
/// policy (the selection-plan cache key), and the same matrix *content*
/// (`Arc` identity, or equal content fingerprints for distinct handles —
/// the value check matters because an ELL prepared plan embeds value
/// bits). Execute batchmates may carry different input vectors `x`; the
/// activated plan is input-independent.
fn batchable(head: &Job, next: &Job) -> bool {
    let kind_compatible = matches!(
        (&head.request.workload, &next.request.workload),
        (Workload::SelectOnly, Workload::SelectOnly)
            | (Workload::Execute { .. }, Workload::Execute { .. })
    );
    kind_compatible
        && head.fingerprint == next.fingerprint
        && head.request.iterations == next.request.iterations
        && head.request.policy == next.request.policy
        && (Arc::ptr_eq(&head.request.matrix, &next.request.matrix)
            || head.request.matrix.content_fingerprint()
                == next.request.matrix.content_fingerprint())
}

/// The bounded submit-side stage of a routing-offloaded pool: submitters
/// push admitted jobs here in O(1), and the dedicated routing worker pops
/// them, stamps their fingerprint, resolves placement and forwards them to
/// their home shards. Same condvar discipline as [`ShardQueue`]:
/// `available` wakes the routing worker, `space` wakes backpressured
/// submitters.
struct RoutingStage {
    state: Mutex<StageState>,
    available: Condvar,
    space: Condvar,
    /// Maximum queued jobs (`0` = unbounded), from
    /// [`RoutingConfig::stage_capacity`].
    capacity: usize,
    /// Jobs pushed but not yet forwarded (or resolved) by the routing
    /// worker — the stage's contribution to the pool's pending count.
    in_stage: AtomicU64,
}

struct StageState {
    jobs: VecDeque<Job>,
    closed: bool,
    space_waiters: usize,
}

/// What one push attempt against the routing stage produced; `Full` and
/// `Closed` hand the job back like [`PushAttempt`] does.
enum StagePush {
    Queued,
    Full(Job),
    Closed(Job),
}

impl RoutingStage {
    fn new(capacity: usize) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(StageState {
                jobs: VecDeque::new(),
                closed: false,
                space_waiters: 0,
            }),
            available: Condvar::new(),
            space: Condvar::new(),
            capacity,
            in_stage: AtomicU64::new(0),
        })
    }

    /// Submitter-side non-blocking push: O(1), no routing work.
    fn push(&self, job: Job) -> StagePush {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if state.closed {
            drop(state);
            return StagePush::Closed(job);
        }
        if self.capacity > 0 && state.jobs.len() >= self.capacity {
            drop(state);
            return StagePush::Full(job);
        }
        state.jobs.push_back(job);
        self.in_stage.fetch_add(1, Ordering::SeqCst);
        drop(state);
        self.available.notify_one();
        StagePush::Queued
    }

    /// Routing-worker-side blocking pop; `None` once the stage is closed
    /// *and* empty, so a shutdown still drains every in-stage job through
    /// the worker (which resolves each one typed).
    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(job) = state.jobs.pop_front() {
                if state.space_waiters > 0 {
                    self.space.notify_all();
                }
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Parks a backpressured submitter until the stage has room, closes,
    /// or the deadline passes. Returns `false` only on timeout.
    fn wait_for_space(&self, wait_deadline: Option<Instant>) -> bool {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.space_waiters += 1;
        let mut timed_out = false;
        loop {
            if state.closed || self.capacity == 0 || state.jobs.len() < self.capacity {
                break;
            }
            match wait_deadline {
                None => {
                    state = self
                        .space
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        timed_out = true;
                        break;
                    }
                    (state, _) = self
                        .space
                        .wait_timeout(state, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
        state.space_waiters -= 1;
        drop(state);
        !timed_out
    }

    /// Marks the stage closed and wakes the routing worker (to drain and
    /// exit) and every backpressured submitter. Idempotent.
    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.closed = true;
        drop(state);
        self.available.notify_all();
        self.space.notify_all();
    }
}

/// The routing/batching counters shared by the pool handle, the routing
/// worker and every shard worker. Present on every pool; a pool built
/// without [`RoutingConfig`] has `enabled == false`, `max_batch == 1`
/// (never coalesces) and keeps every counter zero.
struct RoutingShared {
    enabled: bool,
    /// Per-dequeue coalescing bound, clamped to at least 1.
    max_batch: usize,
    routed_async: AtomicU64,
    shed_stage_full: AtomicU64,
    stage_closed: AtomicU64,
    batched_requests: AtomicU64,
    batch_activations: AtomicU64,
    /// Submitter-thread latency of accepted submits.
    submit: AtomicHistogram,
}

impl RoutingShared {
    fn new(config: Option<RoutingConfig>) -> Self {
        Self {
            enabled: config.is_some(),
            max_batch: config.map_or(1, |c| c.max_batch.max(1)),
            routed_async: AtomicU64::new(0),
            shed_stage_full: AtomicU64::new(0),
            stage_closed: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            batch_activations: AtomicU64::new(0),
            submit: AtomicHistogram::new(),
        }
    }
}

/// What one push attempt against a shard queue produced. `Full` and
/// `Closed` hand the job back so the admission loop can wait, re-route or
/// shed it without consuming the request.
enum PushAttempt {
    Queued,
    /// The bound was hit and (under [`ShedPolicy::DropLowestPriority`]) a
    /// strictly-lower-priority victim was evicted to make room; the victim
    /// is resolved by the caller outside the locks.
    QueuedEvicting(Job),
    Full(Job),
    Closed(Job),
}

/// The pool-wide front door: the admission config (if any) and the exact
/// counters behind [`AdmissionPoolStats`]. Present on every pool — an
/// uncontrolled pool keeps the in-flight gauge and the shutdown-race
/// counter, and everything else stays zero.
struct FrontDoor {
    config: Option<AdmissionConfig>,
    /// Admitted requests not yet resolved. Maintained on every pool;
    /// enforced as a cap only when configured.
    in_flight: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_in_flight: AtomicU64,
    shed_timeout: AtomicU64,
    shed_closed: AtomicU64,
    backpressure_waits: AtomicU64,
}

impl FrontDoor {
    fn new(config: Option<AdmissionConfig>) -> Self {
        Self {
            config,
            in_flight: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_in_flight: AtomicU64::new(0),
            shed_timeout: AtomicU64::new(0),
            shed_closed: AtomicU64::new(0),
            backpressure_waits: AtomicU64::new(0),
        }
    }

    /// The per-shard queue bound, if one is configured (`0` = unbounded).
    fn queue_capacity(&self) -> usize {
        self.config.map_or(0, |c| c.queue_capacity)
    }

    fn shed_policy(&self) -> ShedPolicy {
        self.config
            .map_or(ShedPolicy::RejectNewest, |c| c.shed_policy)
    }
}

/// Drain/shutdown coordination: workers notify after a served request, but
/// only when a drain is actually parked — the common serving path pays one
/// relaxed-free atomic load, not a mutex round-trip per request.
///
/// `waiters` and the completion counters are all `SeqCst` so a worker's
/// "completed, is anyone waiting?" and a drain's "waiting, is anything
/// pending?" cannot both read stale values: one of them always observes the
/// other, which rules out a sleep with nothing left to wake it.
struct Progress {
    lock: Mutex<()>,
    served: Condvar,
    waiters: AtomicU64,
}

/// One shard's resolution counters, shared between the pool and its worker.
/// `submitted` lives separately on the [`Shard`] because only the submitting
/// side touches it.
#[derive(Debug, Default)]
struct ShardCounters {
    completed: AtomicU64,
    /// Requests served successfully; with `failed`, `expired` and `shed`
    /// this partitions `completed`.
    served: AtomicU64,
    /// Requests dropped by a worker panic; a subset of `completed`.
    failed: AtomicU64,
    /// Deadline-expired requests shed at dequeue; a subset of `completed`.
    expired: AtomicU64,
    /// Queued requests evicted by higher-priority arrivals; a subset of
    /// `completed`.
    shed: AtomicU64,
    /// Execution attempts that returned [`seer_gpu::DeviceFailed`].
    device_failures: AtomicU64,
    /// Requests retried once after a dead-device first attempt.
    retried: AtomicU64,
    /// Requests served while the shard's pinned device was not live.
    migrated: AtomicU64,
}

struct Shard {
    engine: Arc<SeerEngine>,
    /// The fleet device this shard is pinned to: device-affinity routing
    /// only sends it requests whose selection placed the workload here.
    device: DeviceId,
    /// The shard's priority-lane queue. Closed (not dropped) by shutdown or
    /// this shard's device retirement; the worker drains the backlog and
    /// exits.
    queue: Arc<ShardQueue>,
    worker: Option<JoinHandle<()>>,
    submitted: Arc<AtomicU64>,
    counters: Arc<ShardCounters>,
}

/// The membership-mutable core of a pool: the shard list and the per-device
/// shard groups. One `RwLock` guards both, so routing reads a consistent
/// snapshot while [`ServingPool::add_device`]/[`ServingPool::retire_device`]
/// mutate membership under the write side.
struct PoolInner {
    shards: Vec<Shard>,
    /// Shard indices pinned to each device, indexed by [`DeviceId`]. A
    /// retired device's group is emptied in place (the entry stays, so
    /// indexing by device id keeps working); shards are append-only, like
    /// the fleet roster, so shard indices in issued tickets stay valid.
    device_groups: Vec<Vec<usize>>,
}

/// A sharded, multi-threaded serving front-end for Seer selections — and,
/// over a multi-device [`Fleet`], a device-aware router with elastic
/// runtime membership.
///
/// See the [module docs](self) for the sharding, routing, determinism and
/// membership model.
pub struct ServingPool {
    fleet: Fleet,
    models: Arc<SeerModels>,
    /// The construction config, kept so shards spawned by a runtime
    /// [`ServingPool::add_device`] match the original shards-per-device,
    /// class-reuse and recalibration settings.
    config: PoolConfig,
    /// The pool-wide shared recalibration table, if configured — late-joining
    /// shard engines are installed onto the same table.
    recalibration: Option<Arc<Recalibration>>,
    /// `Arc` so the dedicated routing worker (when configured) shares the
    /// same membership snapshot the submit path reads.
    inner: Arc<RwLock<PoolInner>>,
    /// The shared fleet engine that resolves device affinity at submit time.
    /// `None` while the pool serves a single device (with one device there
    /// is nothing to place, and routing stays the bare-fingerprint hash of
    /// the pre-fleet pool); built when `add_device` makes the fleet
    /// multi-device. Readers clone the `Arc` and drop the guard immediately,
    /// so this lock is never held across the `inner` lock. `Arc`-wrapped so
    /// the routing worker resolves affinity off the submitter thread.
    router: Arc<RwLock<Option<Arc<SeerEngine>>>>,
    progress: Arc<Progress>,
    /// The admission config and front-door counters (present even without
    /// admission control, where only the in-flight gauge and the
    /// shutdown-race counter ever move).
    front_door: Arc<FrontDoor>,
    /// Routing/batching counters, shared with the routing worker and every
    /// shard worker (all zero, `max_batch == 1`, without [`RoutingConfig`]).
    routing: Arc<RoutingShared>,
    /// The bounded submit-side stage, present only with [`RoutingConfig`].
    routing_stage: Option<Arc<RoutingStage>>,
    /// The dedicated routing worker draining the stage; joined by
    /// [`ServingPool::stop_workers`].
    routing_worker: Mutex<Option<JoinHandle<()>>>,
    /// Pool-wide latency histograms, shared with every worker.
    latency: Arc<LatencyRecorder>,
    /// Set by [`ServingPool::begin_shutdown`]: the front door refuses new
    /// work instead of re-routing into queues that are all closing.
    closing: Arc<AtomicBool>,
    started: Instant,
}

impl std::fmt::Debug for ServingPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServingPool")
            .field("shards", &self.shards())
            .finish_non_exhaustive()
    }
}

impl ServingPool {
    /// Builds a single-device pool of `config.shards` engines over shared
    /// device and model handles and starts one worker thread per shard.
    pub fn new(gpu: Arc<Gpu>, models: Arc<SeerModels>, config: PoolConfig) -> Self {
        Self::with_fleet(Fleet::single(gpu), models, config)
    }

    /// Builds a fleet pool: `config.shards` shards pinned to *each* fleet
    /// device (so `fleet.len() x config.shards` workers in total), plus —
    /// when the fleet has more than one device — a shared router engine
    /// that resolves each request's `(kernel, device)` placement at submit
    /// time. Every shard engine shares the whole fleet, so the selections
    /// it serves are identical to a sequential fleet engine's.
    pub fn with_fleet(fleet: Fleet, models: Arc<SeerModels>, config: PoolConfig) -> Self {
        let progress = Arc::new(Progress {
            lock: Mutex::new(()),
            served: Condvar::new(),
            waiters: AtomicU64::new(0),
        });
        // One correction table for the whole pool: every shard engine and
        // the router share it, so an observation on any shard's execute
        // traffic reweights every engine's corrected placement at once.
        let recalibration = config
            .recalibration
            .map(|recal| Arc::new(Recalibration::new(recal, fleet.len())));
        let pool = Self {
            fleet: fleet.clone(),
            models,
            config: PoolConfig {
                shards: config.shards.max(1),
                ..config
            },
            recalibration,
            inner: Arc::new(RwLock::new(PoolInner {
                shards: Vec::new(),
                device_groups: vec![Vec::new(); fleet.len()],
            })),
            router: Arc::new(RwLock::new(None)),
            progress,
            front_door: Arc::new(FrontDoor::new(config.admission)),
            routing: Arc::new(RoutingShared::new(config.routing)),
            routing_stage: config
                .routing
                .map(|routing| RoutingStage::new(routing.stage_capacity)),
            routing_worker: Mutex::new(None),
            latency: Arc::new(LatencyRecorder::new()),
            closing: Arc::new(AtomicBool::new(false)),
            started: Instant::now(),
        };
        {
            let mut inner = pool.inner.write().unwrap_or_else(PoisonError::into_inner);
            for device in fleet.ids() {
                for _ in 0..pool.config.shards {
                    let index = inner.shards.len();
                    let shard = pool.spawn_shard(index, device);
                    inner.device_groups[device.index()].push(index);
                    inner.shards.push(shard);
                }
            }
        }
        if !fleet.is_single_device() {
            *pool.router.write().unwrap_or_else(PoisonError::into_inner) =
                Some(pool.build_engine());
        }
        if let Some(stage) = &pool.routing_stage {
            let ctx = RoutingCtx {
                stage: Arc::clone(stage),
                inner: Arc::clone(&pool.inner),
                router: Arc::clone(&pool.router),
                progress: Arc::clone(&pool.progress),
                front_door: Arc::clone(&pool.front_door),
                routing: Arc::clone(&pool.routing),
                closing: Arc::clone(&pool.closing),
            };
            let worker = std::thread::Builder::new()
                .name("seer-routing".into())
                .spawn(move || routing_worker_loop(&ctx))
                .expect("spawn routing worker");
            *pool
                .routing_worker
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = Some(worker);
        }
        pool
    }

    /// A fresh engine sharing the pool's fleet, models, class-reuse setting
    /// and (if configured) the pool-wide recalibration table. Used for every
    /// shard engine and for the router, including shards spawned by a
    /// runtime [`ServingPool::add_device`]. On the router, inherited routing
    /// stays device-affine: a class hit pins the whole class's placement to
    /// one device group.
    fn build_engine(&self) -> Arc<SeerEngine> {
        let engine = Arc::new(SeerEngine::with_fleet(
            self.fleet.clone(),
            Arc::clone(&self.models),
        ));
        engine.set_structure_class_reuse(self.config.structure_class_reuse);
        if let Some(recal) = &self.recalibration {
            engine.install_recalibration(Arc::clone(recal));
        }
        engine
    }

    /// Builds one shard pinned to `device` and starts its worker thread.
    fn spawn_shard(&self, index: usize, device: DeviceId) -> Shard {
        let engine = self.build_engine();
        let queue = ShardQueue::new();
        let counters = Arc::new(ShardCounters::default());
        let worker = {
            let ctx = WorkerContext {
                shard: index,
                device,
                engine: Arc::clone(&engine),
                queue: Arc::clone(&queue),
                counters: Arc::clone(&counters),
                progress: Arc::clone(&self.progress),
                front_door: Arc::clone(&self.front_door),
                latency: Arc::clone(&self.latency),
                routing: Arc::clone(&self.routing),
            };
            std::thread::Builder::new()
                .name(format!("seer-shard-{index}"))
                .spawn(move || worker_loop(&ctx))
                .expect("spawn serving worker")
        };
        Shard {
            engine,
            device,
            queue,
            worker: Some(worker),
            submitted: Arc::new(AtomicU64::new(0)),
            counters,
        }
    }

    /// Joins a new device to the *running* pool: registers it with the
    /// fleet, then spawns [`PoolConfig::shards`] shards pinned to it. A pool
    /// that was single-device gains a router first, so requests submitted
    /// from here on are device-placed. In-flight submits race harmlessly:
    /// until the new shard group is published they route to the existing
    /// groups, exactly as before the join.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the device specification is invalid.
    pub fn add_device(&self, spec: GpuSpec) -> Result<DeviceId, SpecError> {
        let device = self.fleet.add_device(spec)?;
        self.attach_device(device);
        Ok(device)
    }

    /// [`ServingPool::add_device`] with an explicit name and prebuilt GPU
    /// model, mirroring [`Fleet::add_device_named`].
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the device specification is invalid.
    pub fn add_device_named(
        &self,
        name: impl Into<String>,
        gpu: Arc<Gpu>,
    ) -> Result<DeviceId, SpecError> {
        let device = self.fleet.add_device_named(name, gpu)?;
        self.attach_device(device);
        Ok(device)
    }

    /// Publishes shards for a device already registered with the fleet.
    fn attach_device(&self, device: DeviceId) {
        // Build the router before the new shards become routable: a
        // formerly single-device pool now has placements to resolve. The
        // router lock is taken and released before touching `inner`.
        if !self.fleet.is_single_device() {
            let mut router = self.router.write().unwrap_or_else(PoisonError::into_inner);
            if router.is_none() {
                *router = Some(self.build_engine());
            }
        }
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        while inner.device_groups.len() <= device.index() {
            inner.device_groups.push(Vec::new());
        }
        for _ in 0..self.config.shards {
            let index = inner.shards.len();
            let shard = self.spawn_shard(index, device);
            inner.device_groups[device.index()].push(index);
            inner.shards.push(shard);
        }
    }

    /// Retires a device from the running pool. The fleet marks it retired
    /// (new selections skip it), every shard engine and the router drop the
    /// device's cached kernel costs, prepared plans and recalibration
    /// factors ([`SeerEngine::invalidate_device`]), the device's shard group
    /// is unpublished (its fingerprint/class affinity re-homes to the
    /// surviving groups on the next submit), and the group's queued backlog
    /// drains on its own workers — each queued request re-places onto a
    /// surviving device, counted in [`ShardStats::migrated`] — before this
    /// call returns.
    ///
    /// # Errors
    ///
    /// Returns the fleet's [`MembershipError`] — unknown device, double
    /// retire, or retiring the last live device — without touching the pool.
    pub fn retire_device(&self, device: DeviceId) -> Result<(), MembershipError> {
        self.fleet.retire_device(device)?;
        // Narrow invalidation everywhere the device's costs could be
        // cached: queued work re-selects against the shrunken live set.
        {
            let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
            for shard in &inner.shards {
                shard.engine.invalidate_device(device);
            }
        }
        if let Some(router) = self.router_handle() {
            router.invalidate_device(device);
        }
        // Unpublish the group and close its queues under the write lock —
        // a submit that raced past routing either reached the senders
        // before this (its job drains below) or re-routes to survivors.
        let mut workers = Vec::new();
        {
            let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
            let group = inner
                .device_groups
                .get_mut(device.index())
                .map(std::mem::take)
                .unwrap_or_default();
            for index in group {
                let shard = &mut inner.shards[index];
                shard.queue.close();
                if let Some(worker) = shard.worker.take() {
                    workers.push(worker);
                }
            }
        }
        // Joining outside the lock lets the drained backlog submit-side
        // progress (stats, drain) proceed while the group winds down.
        for worker in workers {
            join_worker(worker);
        }
        Ok(())
    }

    /// The shared router engine, if the pool has one. Clones the handle so
    /// the router lock is released before any other pool lock is taken.
    fn router_handle(&self) -> Option<Arc<SeerEngine>> {
        self.router
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Builds a pool serving the same fleet and models as `engine` — a
    /// fleet-aware engine begets a fleet pool, a single-device engine the
    /// classic fingerprint-sharded pool.
    ///
    /// The pool's shards keep their own caches; nothing already cached by
    /// `engine` is shared.
    pub fn from_engine(engine: &SeerEngine, config: PoolConfig) -> Self {
        Self::with_fleet(engine.fleet().clone(), engine.models_handle(), config)
    }

    /// Number of shards ever spawned, including the (drained, stopped)
    /// shards of retired devices — shard indices are append-only so ticket
    /// and stats indices stay valid across membership changes.
    pub fn shards(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .shards
            .len()
    }

    /// The device fleet this pool routes over.
    pub fn fleet(&self) -> &Fleet {
        &self.fleet
    }

    /// The home shard of `matrix` under bare fingerprint routing:
    /// `sparsity_fingerprint() % shards`. Keying on the sparsity component
    /// (the same key every engine cache uses) means a value-only mutation
    /// never re-homes a matrix — its warm shard keeps serving it. This is
    /// the complete routing function of a single-device pool; a fleet pool
    /// first resolves the request's device affinity (see the
    /// [module docs](self)), so its home shard depends on the whole
    /// request — use [`ServingPool::shard_for_request`] there.
    pub fn shard_for(&self, matrix: &CsrMatrix) -> usize {
        (matrix.sparsity_fingerprint() % self.shards() as u64) as usize
    }

    /// The shard `request` will be routed to: the fingerprint-local shard
    /// of the selected device's group. For single-device pools this is
    /// [`ServingPool::shard_for`] on the request's matrix.
    ///
    /// Resolving affinity on a fleet pool consults (and warms) the shared
    /// router engine, exactly as submitting the request would.
    pub fn shard_for_request(&self, request: &ServingRequest) -> usize {
        route(
            &self.inner,
            &self.router,
            request,
            request.matrix.sparsity_fingerprint(),
        )
        .1
    }

    /// Enqueues one request on its home shard and returns a [`Ticket`] for
    /// the response. Never blocks on the serving work itself; on a fleet
    /// pool, first contact with a matrix additionally resolves its device
    /// affinity through the shared router engine (cached thereafter).
    ///
    /// Under admission control ([`PoolConfig::with_admission`]) `submit`
    /// keeps its infallible signature by *blocking* when the pool is at
    /// capacity — backpressure, counted in
    /// [`AdmissionPoolStats::backpressure_waits`] — instead of shedding.
    /// Use [`ServingPool::try_submit`] for a non-blocking front door or
    /// [`ServingPool::submit_with_timeout`] to bound the wait. A submit
    /// racing [`ServingPool::begin_shutdown`]/[`ServingPool::shutdown`]
    /// returns an already-resolved ticket whose outcome is
    /// [`ServingError::PoolClosed`] (its [`Ticket::shard`] is
    /// `usize::MAX`: the request was never routed).
    ///
    /// # Panics
    ///
    /// Panics if a [`Workload::Execute`] request has `x.len() !=
    /// matrix.cols()`. Validating here keeps the precondition violation on
    /// the submitting thread — exactly where [`SeerEngine::execute`] would
    /// raise it — instead of killing a shard worker.
    pub fn submit(&self, request: ServingRequest) -> Ticket {
        match self.admit(request, true, None) {
            SubmitOutcome::Accepted(ticket) => ticket,
            SubmitOutcome::Shed { reason } => Self::refused_ticket(reason),
        }
    }

    /// Non-blocking admission: routes and enqueues the request if the pool
    /// has capacity, otherwise returns [`SubmitOutcome::Shed`] immediately
    /// with the typed [`ShedReason`]. On a pool without admission control
    /// the queues are unbounded, so this only sheds when the pool is
    /// shutting down.
    ///
    /// # Panics
    ///
    /// Like [`ServingPool::submit`], panics on a malformed
    /// [`Workload::Execute`] request.
    pub fn try_submit(&self, request: ServingRequest) -> SubmitOutcome {
        self.admit(request, false, None)
    }

    /// Blocking admission with a bounded backpressure wait: like
    /// [`ServingPool::submit`], but a request that cannot be admitted
    /// within `timeout` is shed with [`ShedReason::BackpressureTimeout`]
    /// instead of waiting forever.
    ///
    /// # Panics
    ///
    /// Like [`ServingPool::submit`], panics on a malformed
    /// [`Workload::Execute`] request.
    pub fn submit_with_timeout(&self, request: ServingRequest, timeout: Duration) -> SubmitOutcome {
        self.admit(request, true, Some(Instant::now() + timeout))
    }

    /// The admission path shared by every submit flavour. `block` decides
    /// whether capacity exhaustion sheds immediately or waits
    /// (`wait_deadline` bounds the wait; `None` waits forever).
    fn admit(
        &self,
        request: ServingRequest,
        block: bool,
        wait_deadline: Option<Instant>,
    ) -> SubmitOutcome {
        if let Workload::Execute { x } = &request.workload {
            assert_eq!(
                x.len(),
                request.matrix.cols(),
                "execute request needs x.len() == matrix.cols()"
            );
        }
        if self.closing.load(Ordering::SeqCst) {
            return self.refuse(ShedReason::PoolClosed);
        }
        let capacity = self.front_door.queue_capacity();
        // Tracks whether this admission already counted one backpressure
        // wait — a submit that waits on both the cap and a queue still
        // counts once.
        let mut waited = false;

        // Phase 1: reserve the pool-wide in-flight slot. The gauge is
        // maintained on every pool; only a configured cap can refuse.
        let cap = self.front_door.config.map_or(0, |c| c.max_in_flight) as u64;
        if !self.reserve_in_flight(cap) {
            if !block {
                return self.refuse(ShedReason::InFlightCap);
            }
            if let Err(reason) = self.wait_for_in_flight(cap, wait_deadline, &mut waited) {
                return self.refuse(reason);
            }
        }

        // Phase 2: route and enqueue, retrying across membership changes.
        // Holding the `inner` read guard across the push is the no-lost-
        // ticket guarantee: a group cannot be unpublished between routing
        // to it and landing in its queue.
        let cell = TicketCell::new();
        let mut job = Job {
            request,
            responder: Responder {
                cell: Some(Arc::clone(&cell)),
                shard: 0,
            },
            admitted: Instant::now(),
            fingerprint: 0,
        };

        // Routing offload: hand the admitted job to the bounded stage in
        // O(1) — no fingerprint hash, no router selection, no cache walk on
        // this thread. The routing worker resolves placement and forwards;
        // the ticket's shard is unknown at submit time (`usize::MAX`).
        if let Some(stage) = &self.routing_stage {
            let submit_started = Instant::now();
            loop {
                if self.closing.load(Ordering::SeqCst) {
                    return self.abandon(job, ShedReason::PoolClosed);
                }
                match stage.push(job) {
                    StagePush::Queued => {
                        self.routing.submit.record(submit_started.elapsed());
                        return SubmitOutcome::Accepted(Ticket {
                            cell,
                            shard: usize::MAX,
                            received: None,
                        });
                    }
                    StagePush::Full(returned) => {
                        job = returned;
                        if !block {
                            return self.abandon(job, ShedReason::RoutingStageFull);
                        }
                        self.note_backpressure(&mut waited);
                        if !stage.wait_for_space(wait_deadline) {
                            return self.abandon(job, ShedReason::BackpressureTimeout);
                        }
                        // Space freed (or the stage closed): retry.
                    }
                    StagePush::Closed(returned) => {
                        return self.abandon(returned, ShedReason::PoolClosed);
                    }
                }
            }
        }

        // Inline routing: the routing key is computed once here and carried
        // with the job through every later hop.
        job.fingerprint = job.request.matrix.sparsity_fingerprint();
        loop {
            if self.closing.load(Ordering::SeqCst) {
                return self.abandon(job, ShedReason::PoolClosed);
            }
            match place(
                &self.inner,
                &self.router,
                &self.front_door,
                &self.progress,
                job,
            ) {
                Placement::Queued { shard } => {
                    return SubmitOutcome::Accepted(Ticket {
                        cell,
                        shard,
                        received: None,
                    });
                }
                Placement::Full {
                    job: returned,
                    shard,
                    queue,
                } => {
                    job = returned;
                    if !block {
                        return self.abandon(job, ShedReason::QueueFull { shard });
                    }
                    self.note_backpressure(&mut waited);
                    if !wait_for_space(&queue, capacity, wait_deadline) {
                        return self.abandon(job, ShedReason::BackpressureTimeout);
                    }
                    // Space freed (or the queue closed): re-route and retry.
                }
                // A closed queue under the read lock means membership moved
                // on (or shutdown started) — the next routing pass lands on
                // survivors or exits through the closing check above.
                Placement::Closed(returned) => job = returned,
            }
        }
    }

    /// Tries to take one in-flight slot; with `cap == 0` the gauge just
    /// increments and admission always succeeds.
    fn reserve_in_flight(&self, cap: u64) -> bool {
        if cap == 0 {
            self.front_door.in_flight.fetch_add(1, Ordering::SeqCst);
            return true;
        }
        self.front_door
            .in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < cap).then_some(n + 1)
            })
            .is_ok()
    }

    /// Parks on the progress condvar until a completion frees an in-flight
    /// slot (and takes it), the deadline passes, or shutdown begins. The
    /// waiter registers itself *before* re-checking the cap — the same
    /// ordering argument as [`Progress`] — so a completion can never slip
    /// between the check and the sleep.
    fn wait_for_in_flight(
        &self,
        cap: u64,
        wait_deadline: Option<Instant>,
        waited: &mut bool,
    ) -> Result<(), ShedReason> {
        self.note_backpressure(waited);
        self.progress.waiters.fetch_add(1, Ordering::SeqCst);
        let mut guard = self
            .progress
            .lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let outcome = loop {
            if self.closing.load(Ordering::SeqCst) {
                break Err(ShedReason::PoolClosed);
            }
            if self.reserve_in_flight(cap) {
                break Ok(());
            }
            match wait_deadline {
                None => {
                    guard = self
                        .progress
                        .served
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        break Err(ShedReason::BackpressureTimeout);
                    }
                    (guard, _) = self
                        .progress
                        .served
                        .wait_timeout(guard, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        };
        drop(guard);
        self.progress.waiters.fetch_sub(1, Ordering::SeqCst);
        outcome
    }

    /// Counts one front-door refusal and returns the shed outcome.
    fn refuse(&self, reason: ShedReason) -> SubmitOutcome {
        let counter = match reason {
            ShedReason::QueueFull { .. } => &self.front_door.shed_queue_full,
            ShedReason::InFlightCap => &self.front_door.shed_in_flight,
            ShedReason::BackpressureTimeout => &self.front_door.shed_timeout,
            ShedReason::RoutingStageFull => &self.routing.shed_stage_full,
            ShedReason::PoolClosed => &self.front_door.shed_closed,
            ShedReason::Evicted { .. } => {
                unreachable!("evictions revoke admitted requests, they are not refusals")
            }
        };
        counter.fetch_add(1, Ordering::SeqCst);
        SubmitOutcome::Shed { reason }
    }

    /// Sheds a job that had already reserved its in-flight slot but never
    /// reached a queue: releases the slot, defuses the responder (the
    /// ticket was never handed out, so nothing must resolve it to
    /// `WorkerDied`) and counts the refusal.
    fn abandon(&self, mut job: Job, reason: ShedReason) -> SubmitOutcome {
        job.responder.cell.take();
        drop(job);
        self.front_door.in_flight.fetch_sub(1, Ordering::SeqCst);
        self.refuse(reason)
    }

    /// Counts the first backpressure wait of one admission.
    fn note_backpressure(&self, waited: &mut bool) {
        if !*waited {
            *waited = true;
            self.front_door
                .backpressure_waits
                .fetch_add(1, Ordering::SeqCst);
        }
    }

    /// A pre-resolved ticket for a refused blocking submit, keeping
    /// `submit`'s infallible signature: the shed reason arrives through the
    /// ticket's error instead. Never routed, so its shard is `usize::MAX`.
    fn refused_ticket(reason: ShedReason) -> Ticket {
        let error = match reason {
            ShedReason::PoolClosed => ServingError::PoolClosed,
            other => ServingError::Shed { reason: other },
        };
        let cell = TicketCell::new();
        cell.resolve(Err(error));
        Ticket {
            cell,
            shard: usize::MAX,
            received: None,
        }
    }

    /// Closes the front door and every shard queue without consuming the
    /// pool: new submits shed with [`ShedReason::PoolClosed`] / resolve to
    /// [`ServingError::PoolClosed`], already-admitted requests still drain,
    /// and workers exit after their backlog. On a routing-offloaded pool
    /// the stage closes too: requests still in the stage resolve their
    /// tickets to the typed [`ServingError::PoolClosed`] (counted in
    /// [`RoutingPoolStats::stage_closed`]) — never hang. Idempotent;
    /// [`ServingPool::shutdown`] calls it first.
    pub fn begin_shutdown(&self) {
        self.closing.store(true, Ordering::SeqCst);
        if let Some(stage) = &self.routing_stage {
            stage.close();
        }
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        for shard in &inner.shards {
            shard.queue.close();
        }
    }

    /// Enqueues a batch of requests (in order) and returns their tickets in
    /// the same order. Requests for different shards proceed concurrently.
    pub fn submit_batch(&self, requests: impl IntoIterator<Item = ServingRequest>) -> Vec<Ticket> {
        requests.into_iter().map(|r| self.submit(r)).collect()
    }

    /// Blocks until every accepted request has been served.
    pub fn drain(&self) {
        // Announce the wait before checking pending (both SeqCst): either a
        // worker's completion is visible to our pending check, or our waiter
        // announcement is visible to that worker's post-completion check and
        // it will notify. See the `Progress` docs.
        self.progress.waiters.fetch_add(1, Ordering::SeqCst);
        let mut guard = self
            .progress
            .lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while self.pending() > 0 {
            guard = self
                .progress
                .served
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(guard);
        self.progress.waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// Requests accepted but not yet served, across all shards — plus
    /// accepted requests still waiting in the routing stage, so a drain
    /// cannot slip past work the routing worker has not forwarded yet.
    fn pending(&self) -> u64 {
        // Read the stage gauge *before* the shard deltas: a job leaving the
        // stage increments its shard's `submitted` first, so whichever
        // interleaving this races, the job is visible on at least one side.
        let in_stage = self
            .routing_stage
            .as_ref()
            .map_or(0, |stage| stage.in_stage.load(Ordering::SeqCst));
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        inner
            .shards
            .iter()
            .fold(0u64, |n, s| {
                n.saturating_add(
                    s.submitted
                        .load(Ordering::SeqCst)
                        .saturating_sub(s.counters.completed.load(Ordering::SeqCst)),
                )
            })
            .saturating_add(in_stage)
    }

    /// Current per-shard and aggregate counters.
    pub fn stats(&self) -> PoolStats {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        PoolStats {
            shards: inner
                .shards
                .iter()
                .enumerate()
                .map(|(index, shard)| ShardStats {
                    shard: index,
                    device: shard.device,
                    submitted: shard.submitted.load(Ordering::Acquire),
                    completed: shard.counters.completed.load(Ordering::Acquire),
                    served: shard.counters.served.load(Ordering::Acquire),
                    failed: shard.counters.failed.load(Ordering::Acquire),
                    expired: shard.counters.expired.load(Ordering::Acquire),
                    shed: shard.counters.shed.load(Ordering::Acquire),
                    device_failures: shard.counters.device_failures.load(Ordering::Acquire),
                    retried: shard.counters.retried.load(Ordering::Acquire),
                    migrated: shard.counters.migrated.load(Ordering::Acquire),
                    engine: shard.engine.stats(),
                    cached_plans: shard.engine.cached_plans(),
                })
                .collect(),
            router: self.router_handle().map(|router| router.stats()),
            admission: self.admission_stats(&inner),
            routing: self.routing_stats(),
            latency: self.latency.snapshot(),
            elapsed: self.started.elapsed(),
        }
    }

    /// The routing-offload counter snapshot.
    fn routing_stats(&self) -> RoutingPoolStats {
        let routing = &self.routing;
        RoutingPoolStats {
            enabled: routing.enabled,
            routed_async: routing.routed_async.load(Ordering::SeqCst),
            shed_stage_full: routing.shed_stage_full.load(Ordering::SeqCst),
            stage_closed: routing.stage_closed.load(Ordering::SeqCst),
            batched_requests: routing.batched_requests.load(Ordering::SeqCst),
            batch_activations: routing.batch_activations.load(Ordering::SeqCst),
            in_stage: self
                .routing_stage
                .as_ref()
                .map_or(0, |stage| stage.in_stage.load(Ordering::SeqCst)),
            submit: routing.submit.snapshot(),
        }
    }

    /// The front-door counter snapshot: pool-level refusal counters plus
    /// the per-shard eviction/expiry sums.
    fn admission_stats(&self, inner: &PoolInner) -> AdmissionPoolStats {
        let door = &self.front_door;
        AdmissionPoolStats {
            enabled: door.config.is_some(),
            shed_queue_full: door.shed_queue_full.load(Ordering::SeqCst),
            shed_in_flight: door.shed_in_flight.load(Ordering::SeqCst),
            shed_timeout: door.shed_timeout.load(Ordering::SeqCst),
            shed_closed: door.shed_closed.load(Ordering::SeqCst),
            evicted: inner.shards.iter().fold(0u64, |n, s| {
                n.saturating_add(s.counters.shed.load(Ordering::SeqCst))
            }),
            expired: inner.shards.iter().fold(0u64, |n, s| {
                n.saturating_add(s.counters.expired.load(Ordering::SeqCst))
            }),
            backpressure_waits: door.backpressure_waits.load(Ordering::SeqCst),
            in_flight: door.in_flight.load(Ordering::SeqCst),
        }
    }

    /// Serves every accepted request, stops the workers, joins them and
    /// returns the final stats.
    pub fn shutdown(mut self) -> PoolStats {
        self.stop_workers();
        self.stats()
    }

    /// Graceful stop: closing each queue lets its worker finish the backlog
    /// and exit; joining guarantees no thread outlives the pool. Safe to
    /// run concurrently with a retire-drain — whichever side takes a worker
    /// handle first joins it.
    ///
    /// The routing stage winds down *first*, while the shard queues are
    /// still open: the routing worker drains every in-stage job into its
    /// home shard (so a graceful [`ServingPool::shutdown`] still serves
    /// them), and only then do the shard queues close. After a
    /// [`ServingPool::begin_shutdown`] the shard queues are already closed
    /// and the drained jobs resolve typed [`ServingError::PoolClosed`]
    /// instead.
    fn stop_workers(&mut self) {
        self.closing.store(true, Ordering::SeqCst);
        if let Some(stage) = &self.routing_stage {
            stage.close();
        }
        if let Some(worker) = self
            .routing_worker
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
        {
            join_worker(worker);
        }
        let workers: Vec<JoinHandle<()>> = {
            let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
            for shard in &mut inner.shards {
                shard.queue.close();
            }
            inner
                .shards
                .iter_mut()
                .filter_map(|shard| shard.worker.take())
                .collect()
        };
        for worker in workers {
            join_worker(worker);
        }
    }
}

impl Drop for ServingPool {
    fn drop(&mut self) {
        self.stop_workers();
    }
}

/// Joins one worker thread, re-raising its panic — unless this join itself
/// runs during an unwind, where a second panic would abort the process; the
/// original panic is already propagating, so let it.
fn join_worker(worker: JoinHandle<()>) {
    if worker.join().is_err() && !std::thread::panicking() {
        panic!("serving worker panicked");
    }
}

/// What one placement pass did with a job. `Full` and `Closed` hand the job
/// back so each caller applies its own policy: a submitter sheds or waits
/// under its deadline; the routing worker waits without one, or resolves
/// the job typed once shutdown has begun.
enum Placement {
    Queued {
        shard: usize,
    },
    Full {
        job: Job,
        shard: usize,
        queue: Arc<ShardQueue>,
    },
    Closed(Job),
}

/// The routing half of a placement, shared by [`place`] and
/// [`ServingPool::shard_for_request`]. Device affinity is resolved through
/// the router engine with no pool lock held (the router guard is released
/// before selecting); the home shard is then picked under the returned
/// `inner` read guard, so a caller that pushes under that same guard can
/// never land in a group unpublished in between.
///
/// With a device placement: the fingerprint-local shard of the placed
/// device's group; if that group is gone (retired between selection and
/// routing), the first surviving group. Without one (single-device pool):
/// bare `fingerprint % shards`. The fingerprint is the request's
/// already-computed routing key, so no hop ever re-derives it.
fn route<'a>(
    inner: &'a RwLock<PoolInner>,
    router: &RwLock<Option<Arc<SeerEngine>>>,
    request: &ServingRequest,
    fingerprint: u64,
) -> (RwLockReadGuard<'a, PoolInner>, usize) {
    let router = router
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .clone();
    let selection = router.map(|router| {
        router.select_with_policy(&request.matrix, request.iterations, request.policy)
    });
    let inner = inner.read().unwrap_or_else(PoisonError::into_inner);
    let group = selection.and_then(|selection| {
        inner
            .device_groups
            .get(selection.device.index())
            .filter(|group| !group.is_empty())
            .or_else(|| inner.device_groups.iter().find(|group| !group.is_empty()))
    });
    let shard = match group {
        Some(group) => group[(fingerprint % group.len() as u64) as usize],
        None => (fingerprint % inner.shards.len().max(1) as u64) as usize,
    };
    (inner, shard)
}

/// One placement pass, shared by the inline admission loop and the routing
/// worker: [`route`], push onto the home shard's queue under the same
/// `inner` read guard, and — once every pool lock is released — resolve a
/// victim the push evicted, so its waiter wakes directly.
fn place(
    inner: &RwLock<PoolInner>,
    router: &RwLock<Option<Arc<SeerEngine>>>,
    front_door: &FrontDoor,
    progress: &Progress,
    job: Job,
) -> Placement {
    let (attempt, shard, queue, counters) = {
        let (inner, shard) = route(inner, router, &job.request, job.fingerprint);
        let home = &inner.shards[shard];
        let capacity = front_door.queue_capacity();
        (
            push_job(home, shard, job, capacity, front_door.shed_policy()),
            shard,
            Arc::clone(&home.queue),
            Arc::clone(&home.counters),
        )
    };
    match attempt {
        PushAttempt::Queued => Placement::Queued { shard },
        PushAttempt::QueuedEvicting(victim) => {
            resolve_evicted(shard, &counters, victim, front_door, progress);
            Placement::Queued { shard }
        }
        PushAttempt::Full(job) => Placement::Full { job, shard, queue },
        PushAttempt::Closed(job) => Placement::Closed(job),
    }
}

/// One push attempt against a shard's queue, under the caller's `inner`
/// read guard. Refreshes the job's admission timestamp so queue-wait
/// samples measure time *in the queue*, not time spent backpressured
/// before it. Returns the job on a full or closed queue so the admission
/// loop can wait, re-route or shed it.
fn push_job(
    shard: &Shard,
    shard_index: usize,
    mut job: Job,
    capacity: usize,
    policy: ShedPolicy,
) -> PushAttempt {
    job.responder.shard = shard_index;
    let mut state = shard
        .queue
        .state
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if state.closed {
        drop(state);
        return PushAttempt::Closed(job);
    }
    if capacity > 0 && state.len() >= capacity {
        let incoming = job.request.priority.lane();
        // Drop-lowest-priority: evict the *newest* job of the lowest class
        // strictly below the newcomer — the request that has waited least
        // in the most sheddable lane.
        let victim = match policy {
            ShedPolicy::DropLowestPriority => state
                .lanes
                .iter_mut()
                .enumerate()
                .rev()
                .find(|(lane, queue)| *lane > incoming && !queue.is_empty())
                .and_then(|(_, queue)| queue.pop_back()),
            ShedPolicy::RejectNewest => None,
        };
        let Some(victim) = victim else {
            drop(state);
            return PushAttempt::Full(job);
        };
        job.admitted = Instant::now();
        state.lanes[incoming].push_back(job);
        drop(state);
        shard.submitted.fetch_add(1, Ordering::SeqCst);
        shard.queue.available.notify_one();
        return PushAttempt::QueuedEvicting(victim);
    }
    job.admitted = Instant::now();
    let lane = job.request.priority.lane();
    state.lanes[lane].push_back(job);
    drop(state);
    shard.submitted.fetch_add(1, Ordering::SeqCst);
    shard.queue.available.notify_one();
    PushAttempt::Queued
}

/// Parks a backpressured submitter until the queue has room, closes, or
/// the deadline passes. Returns `false` only on timeout; `true` means
/// "retry the admission loop" (room freed *or* the queue closed — the
/// loop re-routes either way). Standard condvar discipline: the condition
/// is re-checked under the queue mutex, so no wake is ever missed.
fn wait_for_space(queue: &ShardQueue, capacity: usize, wait_deadline: Option<Instant>) -> bool {
    let mut state = queue.state.lock().unwrap_or_else(PoisonError::into_inner);
    state.space_waiters += 1;
    let mut timed_out = false;
    loop {
        if state.closed || state.len() < capacity {
            break;
        }
        match wait_deadline {
            None => {
                state = queue
                    .space
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            Some(deadline) => {
                let now = Instant::now();
                if now >= deadline {
                    timed_out = true;
                    break;
                }
                (state, _) = queue
                    .space
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
    state.space_waiters -= 1;
    drop(state);
    !timed_out
}

/// Everything the routing worker thread needs, cloned out of the pool at
/// spawn time so the worker shares the pool's membership snapshot, router,
/// counters and shutdown flag without borrowing the pool itself.
struct RoutingCtx {
    stage: Arc<RoutingStage>,
    inner: Arc<RwLock<PoolInner>>,
    router: Arc<RwLock<Option<Arc<SeerEngine>>>>,
    progress: Arc<Progress>,
    front_door: Arc<FrontDoor>,
    routing: Arc<RoutingShared>,
    closing: Arc<AtomicBool>,
}

/// The dedicated routing worker: pops admitted jobs off the stage, stamps
/// each one's routing key (the submit path never hashed it), resolves
/// device affinity through the shared router engine, and forwards to the
/// home shard. Exits once the stage is closed *and* drained.
fn routing_worker_loop(ctx: &RoutingCtx) {
    while let Some(mut job) = ctx.stage.pop() {
        // The one fingerprint computation of the request's lifetime
        // (memoized on the matrix, carried on the job from here on).
        job.fingerprint = job.request.matrix.sparsity_fingerprint();
        forward(ctx, job);
    }
}

/// Routes one staged job to its home shard, retrying across membership
/// changes exactly like the inline admission loop. Never sheds on a full
/// queue — the stage *is* the bounded front; the worker absorbs shard
/// backpressure so balance stays exact. A closed shard queue means either
/// a retire (re-route to survivors: the group was unpublished in the same
/// critical section that closed its queues) or a shutdown (resolve the
/// ticket typed, counted in [`RoutingPoolStats::stage_closed`]).
fn forward(ctx: &RoutingCtx, mut job: Job) {
    loop {
        match place(&ctx.inner, &ctx.router, &ctx.front_door, &ctx.progress, job) {
            Placement::Queued { .. } => {
                // `push_job` already incremented the shard's `submitted`, so
                // decrementing the stage gauge *after* it keeps the pool's
                // pending count from transiently dropping to zero while the
                // job changes hands.
                ctx.routing.routed_async.fetch_add(1, Ordering::SeqCst);
                ctx.stage.in_stage.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            Placement::Full {
                job: returned,
                queue,
                ..
            } => {
                job = returned;
                // Block until the shard frees a slot or its queue closes;
                // either way the loop re-routes and retries.
                wait_for_space(&queue, ctx.front_door.queue_capacity(), None);
            }
            Placement::Closed(returned) => {
                job = returned;
                if ctx.closing.load(Ordering::SeqCst) {
                    // Shutdown: resolve typed so no in-stage ticket can
                    // ever hang, release the accounting the admission
                    // reserved, and wake any parked drain.
                    let Job { responder, .. } = job;
                    responder.resolve(Err(ServingError::PoolClosed));
                    ctx.routing.stage_closed.fetch_add(1, Ordering::SeqCst);
                    ctx.stage.in_stage.fetch_sub(1, Ordering::SeqCst);
                    ctx.front_door.in_flight.fetch_sub(1, Ordering::SeqCst);
                    notify_progress(&ctx.progress);
                    return;
                }
                // A retire closed this queue: the next routing pass lands
                // on the surviving groups.
            }
        }
    }
}

/// Everything one shard worker thread needs, bundled at spawn time.
struct WorkerContext {
    shard: usize,
    device: DeviceId,
    engine: Arc<SeerEngine>,
    queue: Arc<ShardQueue>,
    counters: Arc<ShardCounters>,
    progress: Arc<Progress>,
    front_door: Arc<FrontDoor>,
    latency: Arc<LatencyRecorder>,
    routing: Arc<RoutingShared>,
}

/// One shard's serve loop: every dequeue — a single job, or a coalesced run
/// of up to [`RoutingConfig::max_batch`] batch-compatible jobs — is served
/// by [`serve_run`]. Only runs of two or more count as batches.
///
/// The worker owns one [`EngineWorkspace`] for its whole lifetime, so the
/// execute hot path reuses the same output and scratch buffers across every
/// request the shard ever serves.
fn worker_loop(ctx: &WorkerContext) {
    let mut workspace = EngineWorkspace::new();
    let mut run: Vec<Job> = Vec::new();
    while ctx.queue.pop_run(&mut run, ctx.routing.max_batch) {
        if run.len() > 1 {
            ctx.routing.batch_activations.fetch_add(1, Ordering::SeqCst);
            ctx.routing
                .batched_requests
                .fetch_add(run.len() as u64, Ordering::SeqCst);
        }
        serve_run(ctx, &mut run, &mut workspace);
    }
}

/// Whether a request's deadline has passed (a deadline-free request never
/// expires).
fn deadline_expired(request: &ServingRequest) -> bool {
    request
        .deadline
        .is_some_and(|deadline| Instant::now() >= deadline)
}

/// A run's shared resolution: a select-only run reuses one selection, an
/// execute run replays one pinned plan activation. `billed` records whether
/// the activation's charged selection overhead has gone to an executed
/// request yet — it goes to exactly one, the same bill a sequential replay
/// puts on its first cache miss.
enum RunPlan {
    Select(Selection),
    Execute {
        activation: PlanActivation,
        billed: bool,
    },
}

/// Why one serve attempt produced no response.
enum Failure {
    Device(DeviceFailed),
    Panicked,
}

/// Serves one dequeued run — a single request is a run of one — through
/// the steps of the [module docs](self#the-serve-path): per job, the
/// deadline check at dequeue (counted [`ShardStats::expired`]), lazy
/// activation of the run's shared [`RunPlan`] by its first live job, and
/// execution with the bounded dead-device retry ([`retry_once`]). A job
/// served while this worker's pinned device is no longer live (drained
/// backlog after a retire, or a retried placement) counts as
/// [`ShardStats::migrated`].
fn serve_run(ctx: &WorkerContext, run: &mut Vec<Job>, workspace: &mut EngineWorkspace) {
    let mut plan: Option<RunPlan> = None;
    for job in run.drain(..) {
        let Job {
            request,
            responder,
            admitted,
            ..
        } = job;
        let lane = request.priority.lane();
        ctx.latency.queue_wait[lane].record(admitted.elapsed());
        if deadline_expired(&request) {
            responder.resolve(Err(ServingError::DeadlineExceeded { shard: ctx.shard }));
            ctx.counters.expired.fetch_add(1, Ordering::SeqCst);
            finish_job(&ctx.counters, &ctx.progress, &ctx.front_door);
            continue;
        }
        let resolution = retry_once(ctx, &request, &mut plan, workspace);
        let served = resolution.is_ok();
        let migrated = served && !ctx.engine.fleet().is_live(ctx.device);
        // Resolve the ticket before counting the request completed: a
        // drain woken by this completion must find the outcome in place.
        responder.resolve(resolution);
        if served {
            ctx.counters.served.fetch_add(1, Ordering::SeqCst);
            ctx.latency.end_to_end[lane].record(admitted.elapsed());
        }
        if migrated {
            ctx.counters.migrated.fetch_add(1, Ordering::SeqCst);
        }
        finish_job(&ctx.counters, &ctx.progress, &ctx.front_door);
    }
}

/// Serves one job with the bounded dead-device retry. Both attempts count
/// in [`ShardStats::device_failures`]. The failed device is non-live by the
/// retry, so its fresh activation places the work on a surviving device;
/// later jobs of the run reuse that activation. One retry, not a loop: a
/// second dead device means the fleet is flapping faster than selections,
/// and the caller should see that as [`ServingError::DeviceFailed`].
fn retry_once(
    ctx: &WorkerContext,
    request: &ServingRequest,
    plan: &mut Option<RunPlan>,
    workspace: &mut EngineWorkspace,
) -> Result<ServingResponse, ServingError> {
    let mut retrying = false;
    loop {
        match try_serve(ctx, request, plan, workspace) {
            Ok(response) => return Ok(response),
            Err(Failure::Panicked) => {
                ctx.counters.failed.fetch_add(1, Ordering::SeqCst);
                return Err(ServingError::WorkerDied { shard: ctx.shard });
            }
            Err(Failure::Device(death)) => {
                ctx.counters.device_failures.fetch_add(1, Ordering::SeqCst);
                *plan = None;
                if retrying {
                    return Err(ServingError::DeviceFailed {
                        device: death.device,
                    });
                }
                ctx.counters.retried.fetch_add(1, Ordering::SeqCst);
                retrying = true;
            }
        }
    }
}

/// One unwind-isolated serve attempt: activate the run's plan if it has
/// none, then answer the request from it. The only allocation left on a
/// warm execute is the response's owned copy of the product.
fn try_serve(
    ctx: &WorkerContext,
    request: &ServingRequest,
    plan: &mut Option<RunPlan>,
    workspace: &mut EngineWorkspace,
) -> Result<ServingResponse, Failure> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        if plan.is_none() {
            *plan = Some(activate(ctx, request)?);
        }
        let (selection, result, total_time) = match plan.as_mut().expect("activated above") {
            RunPlan::Select(selection) => (*selection, None, None),
            RunPlan::Execute { activation, billed } => {
                let Workload::Execute { x } = &request.workload else {
                    unreachable!("execute runs only contain execute workloads")
                };
                let first = !std::mem::replace(billed, true);
                let (selection, total_time) = ctx.engine.try_execute_activated_into(
                    activation,
                    &request.matrix,
                    x,
                    request.iterations,
                    first,
                    workspace,
                )?;
                (
                    selection,
                    Some(workspace.result().to_vec()),
                    Some(total_time),
                )
            }
        };
        Ok(ServingResponse {
            selection,
            result,
            total_time,
            shard: ctx.shard,
        })
    }));
    match outcome {
        Ok(response) => response.map_err(Failure::Device),
        Err(_) => Err(Failure::Panicked),
    }
}

/// Resolves a run's shared plan: one selection resolve for a select-only
/// run, one selection resolve plus plan pin for an execute run. The
/// test-only chaos workloads act here: one panics, the other blocks until
/// its gate opens and then serves like a select.
fn activate(ctx: &WorkerContext, request: &ServingRequest) -> Result<RunPlan, DeviceFailed> {
    match &request.workload {
        Workload::Execute { .. } => {
            return ctx
                .engine
                .activate_plan(&request.matrix, request.iterations, request.policy)
                .map(|activation| RunPlan::Execute {
                    activation,
                    billed: false,
                });
        }
        Workload::SelectOnly => {}
        #[cfg(test)]
        Workload::PanicInjection => panic!("injected worker panic"),
        #[cfg(test)]
        Workload::Gate { gate } => {
            let (lock, opened) = &**gate;
            let mut open = lock.lock().unwrap_or_else(PoisonError::into_inner);
            while !*open {
                open = opened.wait(open).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
    Ok(RunPlan::Select(ctx.engine.select_with_policy(
        &request.matrix,
        request.iterations,
        request.policy,
    )))
}

/// The completion tail shared by every dequeued job (served, failed or
/// expired): count it completed, release its in-flight slot, and wake any
/// parked drain or backpressured submitter. The ticket is already resolved
/// by this point, so a woken waiter finds the outcome in place.
fn finish_job(counters: &ShardCounters, progress: &Progress, front_door: &FrontDoor) {
    counters.completed.fetch_add(1, Ordering::SeqCst);
    front_door.in_flight.fetch_sub(1, Ordering::SeqCst);
    notify_progress(progress);
}

/// Wakes any parked drain or capacity waiter. Taking the lock before
/// notifying pairs with `drain` (and the in-flight backpressure wait)
/// holding it across their checks, so no wakeup is ever missed.
fn notify_progress(progress: &Progress) {
    if progress.waiters.load(Ordering::SeqCst) > 0 {
        let _guard = progress.lock.lock().unwrap_or_else(PoisonError::into_inner);
        progress.served.notify_all();
    }
}

/// Resolves an evicted job's ticket and settles its accounting: the
/// victim was admitted (it counted as submitted), so the eviction
/// counts it completed + shed on its shard and frees its in-flight
/// slot. Shared by the inline admission path and the routing worker.
fn resolve_evicted(
    shard_index: usize,
    counters: &ShardCounters,
    victim: Job,
    front_door: &FrontDoor,
    progress: &Progress,
) {
    let Job { responder, .. } = victim;
    responder.resolve(Err(ServingError::Shed {
        reason: ShedReason::Evicted { shard: shard_index },
    }));
    counters.shed.fetch_add(1, Ordering::SeqCst);
    counters.completed.fetch_add(1, Ordering::SeqCst);
    front_door.in_flight.fetch_sub(1, Ordering::SeqCst);
    notify_progress(progress);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::TrainingConfig;
    use seer_sparse::collection::{generate, CollectionConfig, DatasetEntry};

    fn pool_and_corpus(shards: usize) -> (ServingPool, SeerEngine, Vec<DatasetEntry>) {
        let entries = generate(&CollectionConfig::tiny());
        let (engine, _outcome) =
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
        let pool = ServingPool::from_engine(&engine, PoolConfig::with_shards(shards));
        (pool, engine, entries)
    }

    #[test]
    fn pool_is_send_and_shuts_down_cleanly() {
        fn assert_send<T: Send>() {}
        assert_send::<ServingPool>();
        let (pool, _engine, _entries) = pool_and_corpus(3);
        assert_eq!(pool.shards(), 3);
        let stats = pool.shutdown();
        assert_eq!(stats.submitted(), 0);
        assert_eq!(stats.completed(), 0);
    }

    #[test]
    fn pooled_selections_match_a_sequential_engine() {
        let (pool, engine, entries) = pool_and_corpus(4);
        let tickets: Vec<Ticket> = entries
            .iter()
            .take(8)
            .map(|e| pool.submit(ServingRequest::select(Arc::new(e.matrix.clone()), 19)))
            .collect();
        for (ticket, entry) in tickets.into_iter().zip(entries.iter().take(8)) {
            let response = ticket.wait().expect("healthy worker");
            assert_eq!(response.selection, engine.select(&entry.matrix, 19));
        }
    }

    #[test]
    fn class_reuse_config_flows_to_every_shard_engine() {
        let entries = generate(&CollectionConfig::tiny());
        let (engine, _outcome) =
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
        // Default config: reuse stays off.
        let pool = ServingPool::from_engine(&engine, PoolConfig::with_shards(2));
        let off = pool.shutdown();
        assert_eq!(off.engine().inherited_selections, 0);

        // One shard so every family member hits the same engine; reuse on.
        let pool =
            ServingPool::from_engine(&engine, PoolConfig::with_shards(1).with_class_reuse(true));
        let mut rng = seer_sparse::SplitMix64::new(100);
        let family: Vec<Arc<CsrMatrix>> = (0..4)
            .map(|_| {
                Arc::new(seer_sparse::generators::uniform_row_length(
                    4000, 9, &mut rng,
                ))
            })
            .collect();
        let mut selections = Vec::new();
        for matrix in &family {
            let ticket = pool.submit(ServingRequest::select(Arc::clone(matrix), 19));
            selections.push(ticket.wait().expect("healthy worker").selection);
        }
        let stats = pool.shutdown();
        // The first member decided from scratch; later members inherited.
        assert!(stats.engine().inherited_selections >= 1);
        assert!(selections
            .iter()
            .all(|s| s.kernel == selections[0].kernel && s.device == selections[0].device));
    }

    #[test]
    fn routing_is_by_fingerprint_modulo_shards() {
        let (pool, _engine, entries) = pool_and_corpus(4);
        let matrix = Arc::new(entries[0].matrix.clone());
        let home = pool.shard_for(&matrix);
        assert_eq!(
            home,
            (matrix.sparsity_fingerprint() % 4) as usize,
            "routing must be sparsity fingerprint % shards"
        );
        let tickets =
            pool.submit_batch((0..10).map(|_| ServingRequest::select(Arc::clone(&matrix), 1)));
        assert!(tickets.iter().all(|t| t.shard() == home));
        pool.drain();
        let stats = pool.stats();
        assert_eq!(stats.shards[home].completed, 10);
        assert_eq!(stats.completed(), 10);
        // One miss on the home shard, nine replays; other shards untouched.
        assert_eq!(stats.engine().plan_misses, 1);
        assert_eq!(stats.engine().plan_hits, 9);
        for (index, shard) in stats.shards.iter().enumerate() {
            if index != home {
                assert_eq!(shard.engine, EngineStats::default());
                assert_eq!(shard.cached_plans, 0);
            }
        }
    }

    #[test]
    fn value_mutation_never_re_homes_a_matrix() {
        let (pool, _engine, entries) = pool_and_corpus(4);
        let mut matrix = entries[0].matrix.clone();
        let home = pool.shard_for(&matrix);
        let shifted: Vec<f64> = matrix.values().iter().map(|v| v * 3.0 - 1.0).collect();
        matrix.update_values(&shifted).expect("same-length values");
        assert_eq!(
            pool.shard_for(&matrix),
            home,
            "a value-only mutation must keep the matrix on its warm home shard"
        );
    }

    #[test]
    fn drain_empties_the_queues() {
        let (pool, _engine, entries) = pool_and_corpus(2);
        let requests = entries
            .iter()
            .cycle()
            .take(40)
            .map(|e| ServingRequest::select(Arc::new(e.matrix.clone()), 1));
        let _tickets = pool.submit_batch(requests);
        pool.drain();
        let stats = pool.stats();
        assert_eq!(stats.submitted(), 40);
        assert_eq!(stats.completed(), 40);
        assert_eq!(stats.queue_depth(), 0);
        for shard in &stats.shards {
            assert_eq!(shard.queue_depth(), 0);
        }
    }

    #[test]
    fn execute_workload_returns_the_product() {
        let (pool, engine, entries) = pool_and_corpus(2);
        let matrix = Arc::new(entries[1].matrix.clone());
        let x = Arc::new(vec![1.0; matrix.cols()]);
        let response = pool
            .submit(ServingRequest::execute(
                Arc::clone(&matrix),
                Arc::clone(&x),
                5,
            ))
            .wait()
            .expect("healthy worker");
        let reference = engine.execute(&matrix, &x, 5);
        assert_eq!(
            response.result.as_deref(),
            Some(reference.result.as_slice())
        );
        assert_eq!(response.selection, reference.selection);
        // Both runs were cold for their respective caches, so both charge the
        // full selection overhead on top of the kernel time.
        assert_eq!(response.total_time, Some(reference.total_time));
    }

    #[test]
    fn policies_are_honoured_per_request() {
        let (pool, engine, entries) = pool_and_corpus(2);
        let matrix = Arc::new(entries[2].matrix.clone());
        let known = pool
            .submit(
                ServingRequest::select(Arc::clone(&matrix), 1)
                    .with_policy(SelectionPolicy::KnownOnly),
            )
            .wait()
            .expect("healthy worker");
        let gathered = pool
            .submit(
                ServingRequest::select(Arc::clone(&matrix), 1)
                    .with_policy(SelectionPolicy::GatheredOnly),
            )
            .wait()
            .expect("healthy worker");
        assert!(!known.selection.used_gathered);
        assert!(gathered.selection.used_gathered);
        assert_eq!(known.selection, engine.select_known_only(&matrix, 1));
        assert_eq!(gathered.selection, engine.select_gathered_only(&matrix, 1));
    }

    #[test]
    fn single_shard_pool_serves_in_submission_order() {
        let (pool, _engine, entries) = pool_and_corpus(1);
        let tickets = pool.submit_batch(
            entries
                .iter()
                .take(6)
                .map(|e| ServingRequest::select(Arc::new(e.matrix.clone()), 1)),
        );
        let shards: Vec<usize> = tickets.iter().map(Ticket::shard).collect();
        assert!(shards.iter().all(|&s| s == 0));
        let responses: Vec<ServingResponse> = tickets
            .into_iter()
            .map(|ticket| ticket.wait().expect("healthy worker"))
            .collect();
        assert_eq!(responses.len(), 6);
        let stats = pool.shutdown();
        assert_eq!(stats.completed(), 6);
        assert_eq!(stats.engine().selections(), 6);
    }

    #[test]
    fn shutdown_serves_the_backlog_first() {
        let (pool, _engine, entries) = pool_and_corpus(2);
        let requests: Vec<ServingRequest> = entries
            .iter()
            .cycle()
            .take(60)
            .map(|e| ServingRequest::select(Arc::new(e.matrix.clone()), 19))
            .collect();
        let tickets = pool.submit_batch(requests);
        // Shut down immediately: every accepted request must still be served.
        let stats = pool.shutdown();
        assert_eq!(stats.submitted(), 60);
        assert_eq!(stats.completed(), 60);
        for ticket in tickets {
            let _ = ticket.wait().expect("backlog is served before shutdown");
        }
    }

    #[test]
    fn try_wait_keeps_the_response_for_wait() {
        let (pool, _engine, entries) = pool_and_corpus(2);
        let mut ticket = pool.submit(ServingRequest::select(
            Arc::new(entries[0].matrix.clone()),
            1,
        ));
        pool.drain();
        let polled = loop {
            if let Some(response) = ticket.try_wait().expect("healthy worker") {
                break response.clone();
            }
        };
        // The polled response is not lost: wait() returns the same one.
        assert_eq!(ticket.wait().expect("healthy worker"), polled);
    }

    #[test]
    #[should_panic(expected = "x.len() == matrix.cols()")]
    fn malformed_execute_request_panics_on_the_submitting_thread() {
        let (pool, _engine, entries) = pool_and_corpus(2);
        let matrix = Arc::new(entries[0].matrix.clone());
        let wrong_len = Arc::new(vec![1.0; matrix.cols() + 1]);
        // Must fail here, in the submitter — not kill a shard worker (which
        // would abort the process when the pool's Drop joins it mid-unwind).
        let _ = pool.submit(ServingRequest::execute(matrix, wrong_len, 1));
    }

    #[test]
    fn single_device_pool_has_no_router_and_one_device_lane() {
        let (pool, _engine, entries) = pool_and_corpus(3);
        let _ = pool
            .submit(ServingRequest::select(
                Arc::new(entries[0].matrix.clone()),
                1,
            ))
            .wait()
            .expect("healthy worker");
        let stats = pool.stats();
        assert!(stats.router.is_none());
        let lanes = stats.devices();
        assert_eq!(lanes.len(), 1);
        assert_eq!(lanes[0].device, seer_gpu::DeviceId::DEFAULT);
        assert_eq!(lanes[0].shards, 3);
        assert_eq!(lanes[0].submitted, stats.submitted());
        assert_eq!(lanes[0].completed, stats.completed());
    }

    #[test]
    fn fleet_pool_matches_a_sequential_fleet_engine_and_pins_devices() {
        use seer_gpu::Fleet;

        let entries = generate(&CollectionConfig::tiny());
        let (trained, _outcome) =
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
        let fleet = Fleet::reference_heterogeneous();
        let reference = SeerEngine::with_fleet(fleet.clone(), trained.models_handle());
        let pool = ServingPool::with_fleet(
            fleet.clone(),
            trained.models_handle(),
            PoolConfig::with_shards(2),
        );
        assert_eq!(pool.shards(), 2 * fleet.len());
        assert_eq!(pool.fleet().len(), fleet.len());

        // The tiny corpus is launch-overhead-bound (the APU's regime); add a
        // bandwidth-bound matrix so placements genuinely spread.
        let mut rng = seer_sparse::SplitMix64::new(0xF1EE7);
        let big = Arc::new(seer_sparse::generators::uniform_random(
            2_000, 2_000, 0.05, &mut rng,
        ));
        let mut requests: Vec<(Arc<CsrMatrix>, usize)> = entries
            .iter()
            .take(8)
            .flat_map(|e| {
                let matrix = Arc::new(e.matrix.clone());
                [(Arc::clone(&matrix), 1), (matrix, 19)]
            })
            .collect();
        requests.push((Arc::clone(&big), 1));
        requests.push((big, 19));
        let tickets: Vec<Ticket> = requests
            .iter()
            .map(|(matrix, iterations)| {
                pool.submit(ServingRequest::select(Arc::clone(matrix), *iterations))
            })
            .collect();
        let stats_devices: Vec<DeviceId> = pool
            .stats()
            .shards
            .iter()
            .map(|shard| shard.device)
            .collect();
        let mut placed = std::collections::HashSet::new();
        for (ticket, (matrix, iterations)) in tickets.into_iter().zip(&requests) {
            let response = ticket.wait().expect("healthy worker");
            let expected =
                reference.select_with_policy(matrix, *iterations, SelectionPolicy::Adaptive);
            // Pooled selections are bit-identical to a sequential fleet
            // engine, and every request landed on a shard pinned to the
            // device its selection placed it on.
            assert_eq!(response.selection, expected);
            assert_eq!(stats_devices[response.shard], expected.device);
            placed.insert(expected.device);
        }
        // The heterogeneous corpus genuinely spread across devices.
        assert!(
            placed.len() > 1,
            "expected placements on more than one device, got {placed:?}"
        );

        let stats = pool.stats();
        assert!(stats.router.is_some());
        let lanes = stats.devices();
        assert_eq!(lanes.iter().map(|l| l.shards).sum::<usize>(), pool.shards());
        assert_eq!(
            lanes.iter().map(|l| l.submitted).sum::<u64>(),
            stats.submitted()
        );
        assert_eq!(
            lanes.iter().map(|l| l.completed).sum::<u64>(),
            stats.completed()
        );
        // Shard engines served exactly the submitted requests; router
        // selections are routing work and stay out of the aggregate.
        assert_eq!(stats.engine().selections(), requests.len() as u64);
        pool.shutdown();
    }

    #[test]
    fn ticket_polling_is_non_blocking_and_lossless() {
        let (pool, _engine, entries) = pool_and_corpus(2);
        let ticket = pool.submit(ServingRequest::select(
            Arc::new(entries[0].matrix.clone()),
            1,
        ));
        // Poll without blocking until served; is_done must never consume.
        while !ticket.is_done() {
            std::thread::yield_now();
        }
        assert!(ticket.is_done(), "is_done is idempotent");
        let response = ticket.wait().expect("healthy worker");
        assert_eq!(response.shard, pool.shard_for(&entries[0].matrix));

        // wait_timeout: a response observed within the timeout stays owned.
        let mut ticket = pool.submit(ServingRequest::select(
            Arc::new(entries[1].matrix.clone()),
            1,
        ));
        let polled = loop {
            let outcome = ticket.wait_timeout(Duration::from_millis(50));
            if let Some(response) = outcome.expect("healthy worker") {
                break response.clone();
            }
        };
        assert_eq!(ticket.wait().expect("healthy worker"), polled);
    }

    #[test]
    fn throughput_and_elapsed_are_populated() {
        let (pool, _engine, entries) = pool_and_corpus(2);
        let _ = pool
            .submit(ServingRequest::select(
                Arc::new(entries[0].matrix.clone()),
                1,
            ))
            .wait()
            .expect("healthy worker");
        pool.drain();
        let stats = pool.stats();
        assert!(stats.elapsed > Duration::ZERO);
        assert!(stats.throughput_per_sec() > 0.0);
    }

    /// A request that panics inside the worker.
    fn panic_request(matrix: Arc<CsrMatrix>) -> ServingRequest {
        ServingRequest {
            matrix,
            iterations: 1,
            policy: SelectionPolicy::Adaptive,
            workload: Workload::PanicInjection,
            priority: Priority::default(),
            deadline: None,
        }
    }

    #[test]
    fn worker_panic_fails_one_request_and_the_worker_survives() {
        let (pool, _engine, entries) = pool_and_corpus(1);
        let matrix = Arc::new(entries[0].matrix.clone());
        let before = pool.submit(ServingRequest::select(Arc::clone(&matrix), 1));
        let poisoned = pool.submit(panic_request(Arc::clone(&matrix)));
        // Submitted *after* the panic: only served if the worker survived it.
        let after = pool.submit(ServingRequest::select(Arc::clone(&matrix), 19));
        // Failed requests count as completed, so drain terminates.
        pool.drain();

        assert!(before.wait().is_ok());
        let shard = poisoned.shard();
        assert_eq!(poisoned.wait(), Err(ServingError::WorkerDied { shard }));
        assert!(after.wait().is_ok());

        let stats = pool.stats();
        assert_eq!(stats.submitted(), 3);
        assert_eq!(stats.completed(), 3);
        assert_eq!(stats.failed(), 1);
        assert_eq!(stats.shards[shard].failed, 1);
        assert!((stats.failure_rate() - 1.0 / 3.0).abs() < 1e-12);
        let lanes = stats.devices();
        assert_eq!(lanes.iter().map(|lane| lane.failed).sum::<u64>(), 1);
        let final_stats = pool.shutdown();
        assert_eq!(final_stats.queue_depth(), 0);
    }

    #[test]
    fn dead_ticket_resolves_through_every_polling_accessor() {
        let (pool, _engine, entries) = pool_and_corpus(1);
        let matrix = Arc::new(entries[0].matrix.clone());
        let polled = pool.submit(panic_request(Arc::clone(&matrix)));
        let mut tried = pool.submit(panic_request(Arc::clone(&matrix)));
        let mut timed = pool.submit(panic_request(matrix));
        pool.drain();
        // is_done resolves (no spin, no panic) and wait still sees the error.
        while !polled.is_done() {
            std::thread::yield_now();
        }
        let shard = polled.shard();
        assert_eq!(polled.wait(), Err(ServingError::WorkerDied { shard }));
        let tried_shard = tried.shard();
        loop {
            match tried.try_wait() {
                Ok(None) => std::thread::yield_now(),
                Ok(Some(_)) => panic!("a poisoned request cannot produce a response"),
                Err(error) => {
                    assert_eq!(error, ServingError::WorkerDied { shard: tried_shard });
                    break;
                }
            }
        }
        let timed_shard = timed.shard();
        assert_eq!(
            timed.wait_timeout(Duration::from_secs(5)).err(),
            Some(ServingError::WorkerDied { shard: timed_shard })
        );
        assert_eq!(pool.shutdown().failed(), 3);
    }

    #[test]
    fn failure_rate_is_zero_without_traffic() {
        let (pool, _engine, _entries) = pool_and_corpus(2);
        let stats = pool.shutdown();
        assert_eq!(stats.failed(), 0);
        assert_eq!(stats.failure_rate(), 0.0);
        assert!(stats.failure_rate().is_finite());
    }

    #[test]
    fn recalibration_config_flows_pool_wide() {
        let entries = generate(&CollectionConfig::tiny());
        let (engine, _outcome) =
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
        let matrix = Arc::new(entries[0].matrix.clone());
        let x = Arc::new(vec![1.0; matrix.cols()]);

        // Default pool: recalibration off, no observations recorded.
        let pool = ServingPool::from_engine(&engine, PoolConfig::with_shards(1));
        let _ = pool
            .submit(ServingRequest::execute(
                Arc::clone(&matrix),
                Arc::clone(&x),
                5,
            ))
            .wait()
            .expect("healthy worker");
        assert_eq!(pool.shutdown().engine().timing_observations, 0);

        // Recalibrating pool: every executed request feeds the shared table.
        let config = PoolConfig::with_shards(1)
            .with_recalibration(Some(crate::engine::RecalibrationConfig::default()));
        let pool = ServingPool::from_engine(&engine, config);
        for _ in 0..3 {
            let _ = pool
                .submit(ServingRequest::execute(
                    Arc::clone(&matrix),
                    Arc::clone(&x),
                    5,
                ))
                .wait()
                .expect("healthy worker");
        }
        assert_eq!(pool.shutdown().engine().timing_observations, 3);
    }

    #[test]
    fn waiting_ticket_wakes_promptly_on_completion() {
        // wait() parks on the ticket's Condvar and wakes when the worker
        // side resolves the cell — no polling, no long wake latency.
        let cell = TicketCell::new();
        let ticket = Ticket {
            cell: Arc::clone(&cell),
            shard: 7,
            received: None,
        };
        let resolver = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            cell.resolve(Err(ServingError::WorkerDied { shard: 7 }));
        });
        let started = Instant::now();
        assert_eq!(ticket.wait(), Err(ServingError::WorkerDied { shard: 7 }));
        let waited = started.elapsed();
        resolver.join().unwrap();
        assert!(
            waited >= Duration::from_millis(20),
            "wait() must actually block until the outcome lands, waited {waited:?}"
        );
        assert!(
            waited < Duration::from_secs(5),
            "a resolved ticket must wake promptly, waited {waited:?}"
        );

        // wait_timeout with a huge timeout also wakes on resolution, not on
        // the deadline.
        let cell = TicketCell::new();
        let mut ticket = Ticket {
            cell: Arc::clone(&cell),
            shard: 3,
            received: None,
        };
        let resolver = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            cell.resolve(Err(ServingError::WorkerDied { shard: 3 }));
        });
        let started = Instant::now();
        let outcome = ticket.wait_timeout(Duration::from_secs(60));
        let waited = started.elapsed();
        resolver.join().unwrap();
        assert_eq!(outcome, Err(ServingError::WorkerDied { shard: 3 }));
        assert!(
            waited < Duration::from_secs(30),
            "wait_timeout must wake on resolution, not the deadline; waited {waited:?}"
        );

        // An unresolved ticket times out (and stays valid).
        let cell = TicketCell::new();
        let mut ticket = Ticket {
            cell,
            shard: 0,
            received: None,
        };
        let started = Instant::now();
        assert_eq!(ticket.wait_timeout(Duration::from_millis(30)), Ok(None));
        assert!(started.elapsed() >= Duration::from_millis(30));
        assert!(!ticket.is_done());
    }

    #[test]
    fn serving_errors_display_and_compose() {
        let worker = ServingError::WorkerDied { shard: 2 };
        assert_eq!(
            worker.to_string(),
            "serving worker for shard 2 dropped the request"
        );
        let device = ServingError::DeviceFailed {
            device: DeviceId::DEFAULT,
        };
        assert!(device.to_string().contains("bounded retry"));

        // Both variants compose with `?` into a boxed error, alongside the
        // fleet's and the plan layer's typed errors.
        fn fails(
            error: impl std::error::Error + 'static,
        ) -> Result<(), Box<dyn std::error::Error>> {
            Err(error)?;
            Ok(())
        }
        assert!(fails(worker).unwrap_err().to_string().contains("shard 2"));
        assert!(fails(device).is_err());
        assert!(fails(seer_gpu::DeviceFailed {
            device: DeviceId::DEFAULT,
            status: seer_gpu::DeviceStatus::Failed,
        })
        .is_err());
        assert!(fails(seer_kernels::PlanMismatch::Sparsity).is_err());
        assert!(fails(MembershipError::AlreadyRetired(DeviceId::DEFAULT)).is_err());
    }

    #[test]
    fn failed_device_exhausts_the_bounded_retry_then_heals() {
        let (pool, _engine, entries) = pool_and_corpus(1);
        let matrix = Arc::new(entries[0].matrix.clone());
        let x = Arc::new(vec![1.0; matrix.cols()]);
        let device = DeviceId::DEFAULT;
        pool.fleet().fail_device(device).unwrap();

        // Execution on the (only, failed) device dies, the one retry dies
        // too, and the ticket resolves to the typed error — not WorkerDied,
        // not a hang.
        let ticket = pool.submit(ServingRequest::execute(
            Arc::clone(&matrix),
            Arc::clone(&x),
            5,
        ));
        assert_eq!(ticket.wait(), Err(ServingError::DeviceFailed { device }));
        // Tickets resolve before the completion counter bumps; drain so the
        // snapshot below is settled.
        pool.drain();
        let stats = pool.stats();
        assert_eq!(stats.completed(), 1);
        assert_eq!(stats.failed(), 0, "a dead device is not a worker panic");
        assert_eq!(stats.device_failures(), 2, "first attempt + one retry");
        assert_eq!(stats.retried(), 1);
        assert_eq!(stats.migrations(), 0, "nothing was served elsewhere");

        // Selection-only requests survive a failed device: selection is
        // advisory and executes nothing.
        assert!(pool
            .submit(ServingRequest::select(Arc::clone(&matrix), 5))
            .wait()
            .is_ok());

        // Healing restores execute service on the same pool.
        pool.fleet().heal_device(device).unwrap();
        let healed = pool
            .submit(ServingRequest::execute(matrix, x, 5))
            .wait()
            .expect("healed device serves again");
        assert!(healed.result.is_some());
        let stats = pool.shutdown();
        assert_eq!(stats.completed(), 3);
        assert_eq!(stats.device_failures(), 2);
        assert!(stats.retry_rate() > 0.0 && stats.retry_rate() <= 1.0);
    }

    #[test]
    fn drain_on_an_empty_pool_returns_immediately() {
        let (pool, _engine, _entries) = pool_and_corpus(2);
        pool.drain();
        pool.drain();
        assert_eq!(pool.stats().queue_depth(), 0);
    }

    #[test]
    fn double_retire_is_a_typed_error_not_a_panic() {
        let entries = generate(&CollectionConfig::tiny());
        let (trained, _outcome) =
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
        let fleet = seer_gpu::Fleet::reference_heterogeneous();
        let pool =
            ServingPool::with_fleet(fleet, trained.models_handle(), PoolConfig::with_shards(1));
        let victim = pool.fleet().ids().last().unwrap();
        pool.retire_device(victim).unwrap();
        assert_eq!(
            pool.retire_device(victim),
            Err(MembershipError::AlreadyRetired(victim))
        );
        // Requests after the retire still resolve on the survivors.
        let response = pool
            .submit(ServingRequest::select(
                Arc::new(entries[0].matrix.clone()),
                19,
            ))
            .wait()
            .expect("survivors keep serving");
        assert_ne!(response.selection.device, victim);
        pool.shutdown();
    }

    #[test]
    fn add_device_expands_a_running_pool() {
        let (pool, _engine, entries) = pool_and_corpus(2);
        assert_eq!(pool.shards(), 2);
        assert!(pool.stats().router.is_none());
        let before: Vec<Ticket> = entries
            .iter()
            .take(4)
            .map(|e| pool.submit(ServingRequest::select(Arc::new(e.matrix.clone()), 19)))
            .collect();

        let joined = pool
            .add_device(seer_gpu::GpuSpec::mi100())
            .expect("valid preset spec");
        assert_eq!(pool.shards(), 4, "two more shards pinned to the joiner");
        assert!(
            pool.stats().router.is_some(),
            "a formerly single-device pool gains a router on join"
        );

        let after: Vec<Ticket> = entries
            .iter()
            .take(4)
            .map(|e| {
                pool.submit(ServingRequest::execute(
                    Arc::new(e.matrix.clone()),
                    Arc::new(vec![1.0; e.matrix.cols()]),
                    19,
                ))
            })
            .collect();
        for ticket in before.into_iter().chain(after) {
            assert!(ticket.wait().is_ok());
        }
        let stats = pool.shutdown();
        assert_eq!(stats.completed(), 8);
        assert_eq!(stats.failed(), 0);
        let lanes = stats.devices();
        assert_eq!(lanes.len(), 2);
        assert!(lanes.iter().any(|lane| lane.device == joined));
    }

    /// A closed gate whose job pins the single worker, so tests can stage
    /// deterministic queue contents behind it.
    fn gate_request(matrix: Arc<CsrMatrix>) -> (ServingRequest, Arc<(Mutex<bool>, Condvar)>) {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let request = ServingRequest {
            matrix,
            iterations: 1,
            policy: SelectionPolicy::Adaptive,
            workload: Workload::Gate {
                gate: Arc::clone(&gate),
            },
            priority: Priority::default(),
            deadline: None,
        };
        (request, gate)
    }

    fn open(gate: &Arc<(Mutex<bool>, Condvar)>) {
        let (lock, opened) = &**gate;
        *lock.lock().unwrap() = true;
        opened.notify_all();
    }

    /// The deterministic retire-vs-backlog sequencing test. A gate workload pins
    /// one worker (and thereby one device lane); a same-fingerprint backlog
    /// queues behind it; retire of that device is provably in flight (blocked on
    /// the gated worker) when the gate opens. Every queued request must then
    /// migrate to a survivor, the migrated plan must be re-prepared exactly once,
    /// and a concurrent drain must ride out the retire without deadlocking.
    #[test]
    fn retire_drains_a_gated_backlog_onto_survivors_exactly_once() {
        const BACKLOG: usize = 12;
        let entries = generate(&CollectionConfig::tiny());
        let (trained, _outcome) =
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
        let corpus: Vec<Arc<CsrMatrix>> =
            entries.iter().map(|e| Arc::new(e.matrix.clone())).collect();
        // A three-device slice of the reference lineup: one can retire with
        // two survivors left to absorb the backlog.
        let fleet = Fleet::of_specs(Fleet::reference_presets().into_iter().take(3))
            .expect("presets validate");
        let pool = Arc::new(ServingPool::with_fleet(
            fleet.clone(),
            trained.models_handle(),
            PoolConfig::with_shards(1),
        ));
        let matrix = Arc::clone(&corpus[0]);

        // Block one worker on the gate; the lane it was routed to is the victim.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let gated_ticket = pool.submit(ServingRequest {
            matrix: Arc::clone(&matrix),
            iterations: 19,
            policy: SelectionPolicy::Adaptive,
            workload: Workload::Gate {
                gate: Arc::clone(&gate),
            },
            priority: Priority::default(),
            deadline: None,
        });
        let victim: DeviceId = pool
            .stats()
            .devices()
            .into_iter()
            .find(|lane| lane.submitted == 1)
            .expect("the gate was routed somewhere")
            .device;

        // Same fingerprint + iterations => same shard: the backlog queues behind
        // the gated worker on the victim's lane.
        let backlog_tickets = pool
            .submit_batch((0..BACKLOG).map(|_| ServingRequest::select(Arc::clone(&matrix), 19)));
        assert_eq!(
            pool.stats()
                .devices()
                .into_iter()
                .find(|lane| lane.device == victim)
                .expect("victim lane exists")
                .submitted,
            1 + BACKLOG as u64
        );

        // Retire the victim on a thread: it must block joining the gated worker,
        // which is the retire-drain-in-flight state. A concurrent drain (the
        // shutdown path's first half) must coexist with it.
        let retiring = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.retire_device(victim))
        };
        let draining = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.drain())
        };
        std::thread::sleep(Duration::from_millis(60));
        assert!(
            !retiring.is_finished(),
            "retire must block on the gated worker's drain"
        );

        // Open the gate: the worker serves the gate request plus the queued
        // backlog (now against a retired device), then exits; retire completes.
        {
            let (lock, opened) = &*gate;
            *lock.lock().unwrap() = true;
            opened.notify_all();
        }
        retiring
            .join()
            .expect("retire thread")
            .expect("victim was live");
        draining.join().expect("drain thread");

        // Every ticket resolved, and every one was served by a live survivor.
        let gated_response = gated_ticket.wait().expect("gated request migrates");
        assert_ne!(gated_response.selection.device, victim);
        for ticket in backlog_tickets {
            let response = ticket.wait().expect("backlog request migrates");
            assert_ne!(response.selection.device, victim);
            assert!(fleet.is_live(response.selection.device));
            assert_eq!(response.selection, gated_response.selection);
        }

        // New work for the same matrix routes to the survivors.
        let after = pool
            .submit(ServingRequest::select(Arc::clone(&matrix), 19))
            .wait()
            .expect("post-retire request");
        assert_ne!(after.selection.device, victim);

        let pool = Arc::into_inner(pool).expect("all threads joined");
        let stats = pool.shutdown();
        let victim_lane = stats
            .devices()
            .into_iter()
            .find(|lane| lane.device == victim)
            .expect("victim lane exists");
        // The whole gated backlog migrated: served by the victim's worker after
        // the device left the live set.
        assert_eq!(victim_lane.migrated, 1 + BACKLOG as u64);
        assert_eq!(victim_lane.completed, 1 + BACKLOG as u64);
        assert_eq!(victim_lane.failed, 0);
        // Exactly-once re-preparation: the migrated plan was computed once on
        // the drained worker's engine and every other backlog request hit it.
        assert_eq!(victim_lane.engine.plan_misses, 1);
        assert_eq!(victim_lane.engine.plan_hits, BACKLOG as u64);
        assert_eq!(stats.completed(), 2 + BACKLOG as u64);
        assert_eq!(stats.queue_depth(), 0);
        assert_eq!(stats.failed(), 0);
    }

    /// Waits until the pool's workers have dequeued `count` jobs of the
    /// given class — queue-wait samples are recorded at dequeue, so the
    /// histogram doubles as a deterministic "worker picked it up" signal.
    fn wait_for_dequeues(pool: &ServingPool, priority: Priority, count: u64) {
        for _ in 0..2000 {
            if pool.stats().latency.queue_wait(priority).count() >= count {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("workers never dequeued {count} {priority} jobs");
    }

    fn admission_pool(admission: AdmissionConfig) -> (ServingPool, Vec<Arc<CsrMatrix>>) {
        let entries = generate(&CollectionConfig::tiny());
        let (engine, _outcome) =
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
        let corpus = entries.iter().map(|e| Arc::new(e.matrix.clone())).collect();
        let pool = ServingPool::from_engine(
            &engine,
            PoolConfig::with_shards(1).with_admission(Some(admission)),
        );
        (pool, corpus)
    }

    #[test]
    fn interactive_requests_overtake_queued_batch_work() {
        // Priority lanes exist even without a bound. Pin the worker on a
        // gate, queue a best-effort job behind a *second* gate, then an
        // interactive request: the interactive one must be dequeued first
        // — it resolves while the best-effort gate is still closed.
        let (pool, _engine, entries) = pool_and_corpus(1);
        let matrix = Arc::new(entries[0].matrix.clone());
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        let (slow_request, slow_gate) = gate_request(Arc::clone(&matrix));
        let best_effort = pool.submit(slow_request.with_priority(Priority::BestEffort));
        let interactive = pool.submit(
            ServingRequest::select(Arc::clone(&matrix), 19).with_priority(Priority::Interactive),
        );
        open(&pin);
        let mut interactive = interactive;
        let response = interactive
            .wait_timeout(Duration::from_secs(30))
            .expect("healthy worker")
            .expect("the interactive request must overtake the queued best-effort job")
            .clone();
        assert_eq!(response.shard, 0);
        assert!(
            !best_effort.is_done(),
            "the best-effort job is still gated behind the served interactive one"
        );
        open(&slow_gate);
        assert!(best_effort.wait().is_ok());
        assert!(pinned.wait().is_ok());
        let stats = pool.shutdown();
        assert_eq!(stats.completed(), 3);
        assert_eq!(stats.served(), 3);
        // Both distributions saw the classes that went through them.
        assert_eq!(stats.latency.queue_wait(Priority::Interactive).count(), 2);
        assert_eq!(stats.latency.queue_wait(Priority::BestEffort).count(), 1);
        assert_eq!(stats.latency.end_to_end(Priority::BestEffort).count(), 1);
    }

    #[test]
    fn expired_requests_are_shed_at_dequeue_and_never_executed() {
        let (pool, _engine, entries) = pool_and_corpus(1);
        let matrix = Arc::new(entries[0].matrix.clone());
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        let selections_before = pool.stats().engine().selections();
        let doomed = pool.submit(
            ServingRequest::select(Arc::clone(&matrix), 19).with_timeout(Duration::from_millis(1)),
        );
        std::thread::sleep(Duration::from_millis(20));
        open(&pin);
        let shard = doomed.shard();
        assert_eq!(doomed.wait(), Err(ServingError::DeadlineExceeded { shard }));
        assert!(pinned.wait().is_ok());
        pool.drain();
        let stats = pool.shutdown();
        assert_eq!(stats.expired(), 1);
        assert_eq!(stats.admission.expired, 1);
        assert_eq!(stats.shards[shard].expired, 1);
        // Expired work never executed: only the gate request selected.
        assert_eq!(stats.engine().selections(), selections_before + 1);
        // Balance: served + expired partition completed exactly.
        assert_eq!(stats.completed(), 2);
        assert_eq!(stats.served(), 1);
        assert_eq!(stats.failed(), 0);
        // Expiry is a deadline miss, not load shedding.
        assert_eq!(stats.shed(), 0);
        assert_eq!(stats.admission.in_flight, 0);
    }

    #[test]
    fn full_queue_sheds_newest_with_a_typed_reason() {
        let (pool, corpus) = admission_pool(AdmissionConfig::bounded(1));
        let matrix = Arc::clone(&corpus[0]);
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        // The worker holds the gate job; capacity 1 admits exactly one more.
        let queued = pool.try_submit(ServingRequest::select(Arc::clone(&matrix), 19));
        assert!(queued.is_accepted());
        let shed = pool.try_submit(ServingRequest::select(Arc::clone(&matrix), 19));
        assert_eq!(shed.shed_reason(), Some(ShedReason::QueueFull { shard: 0 }));
        assert!(!shed.is_accepted());
        open(&pin);
        assert!(pinned.wait().is_ok());
        assert!(queued.ticket().expect("accepted").wait().is_ok());
        let stats = pool.shutdown();
        assert!(stats.admission.enabled);
        assert_eq!(stats.admission.shed_queue_full, 1);
        assert_eq!(stats.admission.unticketed(), 1);
        assert_eq!(stats.shed(), 1);
        // The shed request never became a ticket: offered = admitted + shed.
        assert_eq!(stats.submitted(), 2);
        assert_eq!(stats.offered(), 3);
        assert!((stats.shed_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(stats.completed(), 2);
        assert_eq!(stats.served(), 2);
    }

    #[test]
    fn drop_lowest_priority_evicts_the_newest_lower_class_victim() {
        let (pool, corpus) = admission_pool(
            AdmissionConfig::bounded(1).with_shed_policy(ShedPolicy::DropLowestPriority),
        );
        let matrix = Arc::clone(&corpus[0]);
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        let victim = pool
            .try_submit(
                ServingRequest::select(Arc::clone(&matrix), 19).with_priority(Priority::BestEffort),
            )
            .ticket()
            .expect("queue had room");
        // A same-class arrival finds no strictly-lower victim: rejected.
        let rejected = pool.try_submit(
            ServingRequest::select(Arc::clone(&matrix), 19).with_priority(Priority::BestEffort),
        );
        assert_eq!(
            rejected.shed_reason(),
            Some(ShedReason::QueueFull { shard: 0 })
        );
        // An interactive arrival evicts the queued best-effort victim.
        let winner = pool.try_submit(
            ServingRequest::select(Arc::clone(&matrix), 19).with_priority(Priority::Interactive),
        );
        assert!(winner.is_accepted());
        assert_eq!(
            victim.wait(),
            Err(ServingError::Shed {
                reason: ShedReason::Evicted { shard: 0 }
            })
        );
        open(&pin);
        assert!(pinned.wait().is_ok());
        assert!(winner.ticket().expect("accepted").wait().is_ok());
        let stats = pool.shutdown();
        assert_eq!(stats.admission.evicted, 1);
        assert_eq!(stats.shards[0].shed, 1);
        assert_eq!(stats.admission.shed_queue_full, 1);
        assert_eq!(stats.shed(), 2, "one rejection + one eviction");
        // The victim was admitted, so it counts submitted AND completed.
        assert_eq!(stats.submitted(), 3);
        assert_eq!(stats.completed(), 3);
        assert_eq!(stats.served(), 2);
        assert_eq!(stats.offered(), 4);
    }

    #[test]
    fn in_flight_cap_sheds_and_blocking_submits_apply_backpressure() {
        let (pool, corpus) = admission_pool(AdmissionConfig::bounded(0).with_max_in_flight(1));
        let matrix = Arc::clone(&corpus[0]);
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        // The gate job occupies the only in-flight slot.
        let shed = pool.try_submit(ServingRequest::select(Arc::clone(&matrix), 19));
        assert_eq!(shed.shed_reason(), Some(ShedReason::InFlightCap));
        // A bounded blocking submit waits, then sheds on timeout.
        let timed = pool.submit_with_timeout(
            ServingRequest::select(Arc::clone(&matrix), 19),
            Duration::from_millis(30),
        );
        assert_eq!(timed.shed_reason(), Some(ShedReason::BackpressureTimeout));
        // An unbounded blocking submit parks until the slot frees.
        let pool = Arc::new(pool);
        let parked = {
            let pool = Arc::clone(&pool);
            let matrix = Arc::clone(&matrix);
            std::thread::spawn(move || pool.submit(ServingRequest::select(matrix, 19)).wait())
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(!parked.is_finished(), "the slot is still held by the gate");
        open(&pin);
        assert!(pinned.wait().is_ok());
        assert!(parked.join().unwrap().is_ok());
        let pool = Arc::into_inner(pool).expect("submitter joined");
        let stats = pool.shutdown();
        assert_eq!(stats.admission.shed_in_flight, 1);
        assert_eq!(stats.admission.shed_timeout, 1);
        assert!(stats.admission.backpressure_waits >= 2);
        assert_eq!(stats.admission.in_flight, 0);
        assert_eq!(stats.completed(), 2);
        assert_eq!(stats.shed(), 2);
        assert_eq!(stats.offered(), 4);
    }

    #[test]
    fn admission_free_pool_keeps_every_front_door_counter_zero() {
        let (pool, _engine, entries) = pool_and_corpus(2);
        let tickets = pool.submit_batch(
            entries
                .iter()
                .cycle()
                .take(40)
                .map(|e| ServingRequest::select(Arc::new(e.matrix.clone()), 19)),
        );
        for ticket in tickets {
            assert!(ticket.wait().is_ok());
        }
        let stats = pool.shutdown();
        assert!(!stats.admission.enabled);
        assert_eq!(stats.admission.shed_queue_full, 0);
        assert_eq!(stats.admission.shed_in_flight, 0);
        assert_eq!(stats.admission.shed_timeout, 0);
        assert_eq!(stats.admission.shed_closed, 0);
        assert_eq!(stats.admission.evicted, 0);
        assert_eq!(stats.admission.expired, 0);
        assert_eq!(stats.admission.backpressure_waits, 0);
        assert_eq!(stats.admission.in_flight, 0);
        assert_eq!(stats.shed(), 0);
        assert_eq!(stats.expired(), 0);
        assert_eq!(stats.shed_rate(), 0.0);
        assert_eq!(stats.offered(), stats.submitted());
        assert_eq!(stats.served(), stats.completed());
        // The histograms still observe: every served request recorded one
        // queue-wait and one end-to-end sample in its (default) class.
        assert_eq!(stats.latency.queue_wait(Priority::Interactive).count(), 40);
        assert_eq!(stats.latency.end_to_end(Priority::Interactive).count(), 40);
        assert_eq!(stats.latency.queue_wait(Priority::Batch).count(), 0);
    }

    #[test]
    fn begin_shutdown_turns_submits_into_typed_pool_closed() {
        let (pool, _engine, entries) = pool_and_corpus(2);
        let matrix = Arc::new(entries[0].matrix.clone());
        let served = pool.submit(ServingRequest::select(Arc::clone(&matrix), 19));
        pool.begin_shutdown();
        pool.begin_shutdown(); // idempotent
                               // Blocking submit: an already-resolved ticket, not a panic.
        let refused = pool.submit(ServingRequest::select(Arc::clone(&matrix), 19));
        assert!(refused.is_done());
        assert_eq!(refused.shard(), usize::MAX);
        assert_eq!(refused.wait(), Err(ServingError::PoolClosed));
        // Non-blocking submit: a typed shed.
        let shed = pool.try_submit(ServingRequest::select(Arc::clone(&matrix), 19));
        assert_eq!(shed.shed_reason(), Some(ShedReason::PoolClosed));
        // Work admitted before the shutdown still drains.
        assert!(served.wait().is_ok());
        let stats = pool.shutdown();
        assert_eq!(stats.submitted(), 1);
        assert_eq!(stats.completed(), 1);
        assert_eq!(stats.admission.shed_closed, 2);
        assert_eq!(stats.offered(), 3);
    }

    #[test]
    fn shed_and_expired_tickets_wake_timed_waiters_promptly() {
        // The PR 8 prompt-wake guarantee extends to the new resolution
        // kinds: a ticket resolved by eviction or expiry wakes a parked
        // wait_timeout caller immediately, not at its deadline.
        for error in [
            ServingError::Shed {
                reason: ShedReason::Evicted { shard: 4 },
            },
            ServingError::DeadlineExceeded { shard: 4 },
            ServingError::PoolClosed,
        ] {
            let cell = TicketCell::new();
            let mut ticket = Ticket {
                cell: Arc::clone(&cell),
                shard: 4,
                received: None,
            };
            let resolver = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(40));
                cell.resolve(Err(error));
            });
            let started = Instant::now();
            let outcome = ticket.wait_timeout(Duration::from_secs(60));
            let waited = started.elapsed();
            resolver.join().unwrap();
            assert_eq!(outcome, Err(error));
            assert!(
                waited < Duration::from_secs(30),
                "a {error} resolution must wake the waiter promptly, waited {waited:?}"
            );
        }
    }

    #[test]
    fn histogram_quantiles_match_a_known_synthetic_distribution() {
        let histogram = AtomicHistogram::new();
        // 90 samples at 100 ns (bucket 6: [64, 128)) and 10 at 10 µs
        // (bucket 13: [8192, 16384)).
        for _ in 0..90 {
            histogram.record(Duration::from_nanos(100));
        }
        for _ in 0..10 {
            histogram.record(Duration::from_nanos(10_000));
        }
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.count(), 100);
        assert_eq!(snapshot.bucket_counts()[6], 90);
        assert_eq!(snapshot.bucket_counts()[13], 10);
        // p50 and the 0.9 quantile land in the low bucket, p99/p999 in the
        // high one; interpolation stays inside each bucket's bounds.
        let low = Duration::from_nanos(64)..=Duration::from_nanos(128);
        let high = Duration::from_nanos(8192)..=Duration::from_nanos(16384);
        assert!(low.contains(&snapshot.p50()), "p50 = {:?}", snapshot.p50());
        assert!(low.contains(&snapshot.quantile(0.9)));
        assert!(high.contains(&snapshot.p99()), "p99 = {:?}", snapshot.p99());
        assert!(high.contains(&snapshot.p999()));
        // Quantiles are monotone in q.
        assert!(snapshot.quantile(0.1) <= snapshot.p50());
        assert!(snapshot.p50() <= snapshot.p99());
        assert!(snapshot.p99() <= snapshot.p999());
        // Out-of-range and NaN q are clamped, never a panic.
        assert!(snapshot.quantile(-1.0) <= snapshot.quantile(0.0));
        assert_eq!(snapshot.quantile(2.0), snapshot.quantile(1.0));
        let _ = snapshot.quantile(f64::NAN);
    }

    #[test]
    fn histogram_bucket_boundaries_are_exact_powers_of_two() {
        let histogram = AtomicHistogram::new();
        histogram.record(Duration::ZERO); // clamps to 1 ns -> bucket 0
        histogram.record(Duration::from_nanos(1)); // bucket 0
        histogram.record(Duration::from_nanos(1023)); // bucket 9
        histogram.record(Duration::from_nanos(1024)); // bucket 10
        histogram.record(Duration::from_nanos(2047)); // bucket 10
        histogram.record(Duration::from_secs(u64::MAX)); // clamps -> bucket 63
        let snapshot = histogram.snapshot();
        assert_eq!(snapshot.bucket_counts()[0], 2);
        assert_eq!(snapshot.bucket_counts()[9], 1);
        assert_eq!(snapshot.bucket_counts()[10], 2);
        assert_eq!(snapshot.bucket_counts()[63], 1);
        assert_eq!(snapshot.count(), 6);
        // The top bucket's interpolation saturates instead of overflowing.
        assert!(snapshot.quantile(1.0) >= Duration::from_nanos(1 << 62));
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let snapshot = AtomicHistogram::new().snapshot();
        assert_eq!(snapshot.count(), 0);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0, -3.0, 7.0, f64::NAN] {
            assert_eq!(snapshot.quantile(q), Duration::ZERO);
        }
        assert_eq!(snapshot.p50(), Duration::ZERO);
        assert_eq!(snapshot.p99(), Duration::ZERO);
        assert_eq!(snapshot.p999(), Duration::ZERO);
        assert_eq!(snapshot, HistogramSnapshot::default());
    }

    #[test]
    fn admission_errors_and_reasons_display() {
        assert_eq!(
            ServingError::DeadlineExceeded { shard: 3 }.to_string(),
            "request expired in shard 3's queue before it could execute"
        );
        assert_eq!(
            ServingError::PoolClosed.to_string(),
            "the serving pool is shutting down"
        );
        let evicted = ServingError::Shed {
            reason: ShedReason::Evicted { shard: 1 },
        };
        assert!(evicted.to_string().contains("shard 1"));
        assert!(ShedReason::InFlightCap.to_string().contains("in-flight"));
        assert!(ShedReason::QueueFull { shard: 0 }
            .to_string()
            .contains("full"));
        assert!(ShedReason::BackpressureTimeout
            .to_string()
            .contains("timed out"));
        assert!(ShedReason::PoolClosed.to_string().contains("shutting down"));
        assert_eq!(Priority::Interactive.to_string(), "interactive");
        assert_eq!(Priority::BestEffort.to_string(), "best-effort");
        // Priority lanes are the dequeue order.
        assert_eq!(
            Priority::ALL.map(Priority::lane),
            [0, 1, 2],
            "ALL lists classes in dequeue order"
        );
        assert!(ShedReason::RoutingStageFull.to_string().contains("routing"));
    }

    /// A single-shard pool with the routing stage and micro-batching on,
    /// plus an optional admission config layered underneath.
    fn routed_pool(
        routing: RoutingConfig,
        admission: Option<AdmissionConfig>,
    ) -> (ServingPool, Vec<Arc<CsrMatrix>>) {
        let entries = generate(&CollectionConfig::tiny());
        let (engine, _outcome) =
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap();
        let corpus = entries.iter().map(|e| Arc::new(e.matrix.clone())).collect();
        let pool = ServingPool::from_engine(
            &engine,
            PoolConfig::with_shards(1)
                .with_admission(admission)
                .with_routing(Some(routing)),
        );
        (pool, corpus)
    }

    /// Waits until the routing worker has forwarded `count` jobs to shard
    /// queues — `routed_async` increments only after a successful push, so
    /// the counter doubles as a deterministic "job left the stage" signal.
    fn wait_for_forwards(pool: &ServingPool, count: u64) {
        for _ in 0..2000 {
            if pool.stats().routing.routed_async >= count {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        panic!("routing worker never forwarded {count} jobs");
    }

    #[test]
    fn routing_off_pools_report_zero_routing_counters() {
        // The opt-out guarantee: a pool built without a RoutingConfig has no
        // stage, no routing worker, and every new counter pinned at zero.
        let (pool, _engine, entries) = pool_and_corpus(2);
        let matrix = Arc::new(entries[0].matrix.clone());
        for _ in 0..6 {
            let _ = pool
                .submit(ServingRequest::select(Arc::clone(&matrix), 19))
                .wait()
                .expect("healthy worker");
        }
        let stats = pool.shutdown();
        assert_eq!(stats.served(), 6);
        assert_eq!(stats.routing, RoutingPoolStats::default());
        assert!(!stats.routing.enabled);
        assert_eq!(stats.routing.mean_batch_size(), 0.0);
        assert_eq!(stats.routing.submit.count(), 0);
    }

    #[test]
    fn routed_pool_matches_sequential_and_balances_counters() {
        let (pool, corpus) = routed_pool(RoutingConfig::default(), None);
        let (replay_engine, _outcome) = {
            let entries = generate(&CollectionConfig::tiny());
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap()
        };
        let total = 24;
        let tickets: Vec<Ticket> = (0..total)
            .map(|i| {
                pool.submit(ServingRequest::select(
                    Arc::clone(&corpus[i % corpus.len()]),
                    19,
                ))
            })
            .collect();
        // Routed tickets have no home shard at submit time: placement is
        // the routing worker's job, not the submitter's.
        assert!(tickets.iter().all(|t| t.shard() == usize::MAX));
        for (i, ticket) in tickets.into_iter().enumerate() {
            let response = ticket.wait().expect("healthy worker");
            assert_eq!(
                response.selection,
                replay_engine.select_with_policy(
                    &corpus[i % corpus.len()],
                    19,
                    SelectionPolicy::Adaptive
                ),
                "routed request {i} diverged from the sequential replay"
            );
        }
        let stats = pool.shutdown();
        assert!(stats.routing.enabled);
        assert_eq!(stats.routing.routed_async, total as u64);
        assert_eq!(stats.routing.in_stage, 0);
        assert_eq!(stats.routing.shed_stage_full, 0);
        assert_eq!(stats.routing.stage_closed, 0);
        // Every submit went through the O(1) path and was timed.
        assert_eq!(stats.routing.submit.count(), total as u64);
        assert_eq!(stats.offered(), total as u64);
        assert_eq!(stats.served(), total as u64);
        assert_eq!(stats.shed() + stats.expired() + stats.failed(), 0);
        assert_eq!(stats.queue_depth(), 0);
    }

    #[test]
    fn same_fingerprint_runs_coalesce_into_one_activation() {
        let (pool, corpus) = routed_pool(RoutingConfig::default().with_max_batch(16), None);
        let matrix = Arc::clone(&corpus[0]);
        // Pin the worker so the burst queues up behind it. The gate job is
        // a chaos workload: it can never be coalesced into the run.
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        let burst = 8;
        let tickets: Vec<Ticket> = (0..burst)
            .map(|_| pool.submit(ServingRequest::select(Arc::clone(&matrix), 19)))
            .collect();
        // Every burst member must be sitting in the shard queue before the
        // gate opens, or the run fragments nondeterministically.
        wait_for_forwards(&pool, burst as u64 + 1);
        open(&pin);
        let selections: Vec<Selection> = tickets
            .into_iter()
            .map(|t| t.wait().expect("healthy worker").selection)
            .collect();
        assert!(pinned.wait().is_ok());
        assert!(selections.iter().all(|s| *s == selections[0]));
        let stats = pool.shutdown();
        assert_eq!(stats.served(), burst as u64 + 1);
        // The whole burst ran as one activation: one selection resolve for
        // eight requests.
        assert_eq!(stats.routing.batch_activations, 1);
        assert_eq!(stats.routing.batched_requests, burst as u64);
        assert_eq!(stats.routing.mean_batch_size(), burst as f64);
        assert_eq!(
            stats.engine().selections(),
            2,
            "one selection for the gate job, one shared by the whole run"
        );
    }

    #[test]
    fn batched_execute_matches_sequential_results_bit_for_bit() {
        let (pool, corpus) = routed_pool(RoutingConfig::default().with_max_batch(16), None);
        let (replay_engine, _outcome) = {
            let entries = generate(&CollectionConfig::tiny());
            SeerEngine::train(Gpu::default(), &entries, &TrainingConfig::fast()).unwrap()
        };
        let matrix = Arc::clone(&corpus[1]);
        let x = Arc::new(vec![0.5; matrix.cols()]);
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        let burst = 6;
        let tickets: Vec<Ticket> = (0..burst)
            .map(|_| {
                pool.submit(ServingRequest::execute(
                    Arc::clone(&matrix),
                    Arc::clone(&x),
                    5,
                ))
            })
            .collect();
        wait_for_forwards(&pool, burst as u64 + 1);
        open(&pin);
        let responses: Vec<ServingResponse> = tickets
            .into_iter()
            .map(|t| t.wait().expect("healthy worker"))
            .collect();
        assert!(pinned.wait().is_ok());
        // Sequential oracle: same requests, one at a time, fresh engine.
        let first = replay_engine.execute(&matrix, &x, 5);
        for (index, response) in responses.iter().enumerate() {
            let reference = replay_engine.execute(&matrix, &x, 5);
            assert_eq!(response.selection, first.selection);
            assert_eq!(
                response.result.as_deref(),
                Some(reference.result.as_slice()),
                "batched execute {index} diverged numerically"
            );
        }
        // Billing parity: the run's first executed request carries the
        // activation overhead, replays are pure kernel time — exactly the
        // sequential miss-then-hit pattern.
        let times: Vec<_> = responses.iter().map(|r| r.total_time.unwrap()).collect();
        assert!(times[0] >= times[1]);
        assert!(times.windows(2).skip(1).all(|w| w[0] == w[1]));
        let stats = pool.shutdown();
        assert_eq!(stats.routing.batch_activations, 1);
        assert_eq!(stats.routing.batched_requests, burst as u64);
        assert_eq!(stats.failed(), 0);
    }

    #[test]
    fn expired_batchmate_is_shed_at_dequeue_never_executed() {
        // Satellite bugfix-by-construction: a request whose deadline lapsed
        // while it sat grouped in a pending batch is still shed at dequeue
        // (counted expired), and its batchmates serve through the shared
        // activation unharmed.
        let (pool, corpus) = routed_pool(RoutingConfig::default().with_max_batch(16), None);
        let matrix = Arc::clone(&corpus[0]);
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        // The doomed request is first into the batch — the run's *head* —
        // so expiry must also shift the activation onto a later batchmate.
        let doomed = pool.submit(
            ServingRequest::select(Arc::clone(&matrix), 19).with_timeout(Duration::from_millis(1)),
        );
        let survivors: Vec<Ticket> = (0..4)
            .map(|_| pool.submit(ServingRequest::select(Arc::clone(&matrix), 19)))
            .collect();
        wait_for_forwards(&pool, 6);
        std::thread::sleep(Duration::from_millis(20));
        let selections_before = pool.stats().engine().selections();
        open(&pin);
        assert_eq!(
            doomed.wait(),
            Err(ServingError::DeadlineExceeded { shard: 0 })
        );
        for ticket in survivors {
            let _ = ticket.wait().expect("batchmates of an expired request");
        }
        assert!(pinned.wait().is_ok());
        let stats = pool.shutdown();
        assert_eq!(stats.expired(), 1);
        assert_eq!(stats.served(), 5);
        // One selection for the gate job (it serves after the snapshot),
        // one shared by the whole run — the expired head contributes zero.
        assert_eq!(stats.engine().selections(), selections_before + 2);
        // The doomed job was coalesced into the run before it was shed.
        assert_eq!(stats.routing.batched_requests, 5);
        assert_eq!(stats.routing.batch_activations, 1);
        assert_eq!(stats.offered(), 6);
        assert_eq!(
            stats.served() + stats.shed() + stats.expired() + stats.failed(),
            stats.offered()
        );
    }

    #[test]
    fn eviction_removes_a_pending_batchmate_without_poisoning_the_run() {
        // Satellite bugfix-by-construction: DropLowestPriority can evict a
        // request already grouped (same fingerprint, same lane) into a
        // pending batch; the victim resolves typed and the surviving
        // batchmates' tickets stay intact.
        let (pool, corpus) = routed_pool(
            RoutingConfig::default().with_max_batch(16),
            Some(AdmissionConfig::bounded(3).with_shed_policy(ShedPolicy::DropLowestPriority)),
        );
        let matrix = Arc::clone(&corpus[0]);
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        // Three best-effort batchmates fill the bounded queue exactly.
        let batchmates: Vec<Ticket> = (0..3)
            .map(|_| {
                pool.submit(
                    ServingRequest::select(Arc::clone(&matrix), 19)
                        .with_priority(Priority::BestEffort),
                )
            })
            .collect();
        wait_for_forwards(&pool, 4);
        // An interactive arrival forces the policy to evict the newest
        // best-effort job — the tail of the pending batch.
        let vip = pool.submit(
            ServingRequest::select(Arc::clone(&matrix), 19).with_priority(Priority::Interactive),
        );
        wait_for_forwards(&pool, 5);
        open(&pin);
        let outcomes: Vec<_> = batchmates.into_iter().map(Ticket::wait).collect();
        assert_eq!(
            outcomes[2],
            Err(ServingError::Shed {
                reason: ShedReason::Evicted { shard: 0 }
            }),
            "the newest batchmate is the eviction victim"
        );
        assert!(outcomes[0].is_ok() && outcomes[1].is_ok(), "{outcomes:?}");
        assert!(vip.wait().is_ok());
        assert!(pinned.wait().is_ok());
        let stats = pool.shutdown();
        assert_eq!(stats.served(), 4);
        assert_eq!(stats.shed(), 1);
        assert_eq!(stats.admission.evicted, 1);
        // The two surviving batchmates still coalesced into one activation.
        assert_eq!(stats.routing.batched_requests, 2);
        assert_eq!(stats.routing.batch_activations, 1);
        assert_eq!(
            stats.served() + stats.shed() + stats.expired() + stats.failed(),
            stats.offered()
        );
    }

    #[test]
    fn full_routing_stage_sheds_typed_on_try_submit_and_blocks_on_submit() {
        // Stage capacity 1 with the worker wedged behind a full shard
        // queue: the stage fills, try_submit sheds typed, and the counter
        // feeds the offered/shed balance.
        let (pool, corpus) = routed_pool(
            RoutingConfig::default().with_stage_capacity(1),
            Some(AdmissionConfig::bounded(1)),
        );
        let matrix = Arc::clone(&corpus[0]);
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        // One job fills the bounded shard queue...
        let queued = pool.submit(ServingRequest::select(Arc::clone(&matrix), 19));
        wait_for_forwards(&pool, 2);
        // ...the next wedges the routing worker in its backpressure wait...
        let staged = pool.submit(ServingRequest::select(Arc::clone(&matrix), 19));
        // ...and a fourth finds the stage itself full.
        let shed = loop {
            match pool.try_submit(ServingRequest::select(Arc::clone(&matrix), 19)) {
                SubmitOutcome::Shed { reason } => break reason,
                // The worker may not have popped `staged` yet; accepted
                // submits just deepen the stage until it reports full.
                SubmitOutcome::Accepted(_) => continue,
            }
        };
        assert_eq!(shed, ShedReason::RoutingStageFull);
        open(&pin);
        assert!(pinned.wait().is_ok());
        assert!(queued.wait().is_ok());
        assert!(staged.wait().is_ok());
        pool.drain();
        let stats = pool.shutdown();
        assert!(stats.routing.shed_stage_full >= 1);
        assert_eq!(
            stats.served() + stats.shed() + stats.expired() + stats.failed(),
            stats.offered()
        );
        assert_eq!(stats.routing.in_stage, 0);
    }

    #[test]
    fn begin_shutdown_racing_the_routing_worker_resolves_every_staged_ticket() {
        // Wedge the routing worker behind a full shard queue with more work
        // parked in the stage, then begin_shutdown: every in-stage ticket
        // must resolve typed PoolClosed — never hang, never leak.
        let (pool, corpus) =
            routed_pool(RoutingConfig::default(), Some(AdmissionConfig::bounded(1)));
        let matrix = Arc::clone(&corpus[0]);
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        let queued = pool.submit(ServingRequest::select(Arc::clone(&matrix), 19));
        wait_for_forwards(&pool, 2);
        // These sit in the stage: the worker is blocked on the full queue.
        let staged: Vec<Ticket> = (0..4)
            .map(|_| pool.submit(ServingRequest::select(Arc::clone(&matrix), 19)))
            .collect();
        pool.begin_shutdown();
        open(&pin);
        assert!(pinned.wait().is_ok());
        assert!(queued.wait().is_ok());
        let mut closed = 0;
        for mut ticket in staged {
            match ticket
                .wait_timeout(Duration::from_secs(30))
                .map(|r| r.cloned())
            {
                Ok(Some(_)) => {}
                Ok(None) => panic!("a staged ticket never resolved across the shutdown race"),
                Err(ServingError::PoolClosed) => closed += 1,
                Err(other) => panic!("staged ticket resolved to an unexpected error: {other}"),
            }
        }
        let stats = pool.shutdown();
        // The worker was wedged when the stage closed, so at least one
        // staged job was still in the stage and resolved typed.
        assert!(closed >= 1, "expected at least one PoolClosed resolution");
        assert_eq!(stats.routing.stage_closed, closed);
        assert_eq!(stats.routing.in_stage, 0);
        assert_eq!(
            stats.served() + stats.shed() + stats.expired() + stats.failed(),
            stats.offered()
        );
    }

    #[test]
    fn chaos_workloads_and_mixed_kinds_never_coalesce() {
        // batchable() is conservative: select-only and execute runs never
        // mix, and chaos workloads always serve alone.
        let (pool, corpus) = routed_pool(RoutingConfig::default().with_max_batch(16), None);
        let matrix = Arc::clone(&corpus[0]);
        let x = Arc::new(vec![1.0; matrix.cols()]);
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        // Alternating kinds with the same fingerprint: runs break at every
        // kind boundary, so no batch ever forms.
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    pool.submit(ServingRequest::select(Arc::clone(&matrix), 19))
                } else {
                    pool.submit(ServingRequest::execute(
                        Arc::clone(&matrix),
                        Arc::clone(&x),
                        19,
                    ))
                }
            })
            .collect();
        wait_for_forwards(&pool, 7);
        open(&pin);
        for ticket in tickets {
            let _ = ticket.wait().expect("healthy worker");
        }
        assert!(pinned.wait().is_ok());
        let stats = pool.shutdown();
        assert_eq!(stats.served(), 7);
        assert_eq!(
            stats.routing.batch_activations, 0,
            "alternating request kinds must never coalesce"
        );
        assert_eq!(stats.routing.batched_requests, 0);
    }

    #[test]
    fn coalesced_run_on_a_dead_device_counts_like_runs_of_one() {
        const K: u64 = 6;
        let (pool, corpus) = routed_pool(RoutingConfig::default().with_max_batch(16), None);
        let matrix = Arc::clone(&corpus[0]);
        let x = Arc::new(vec![1.0; matrix.cols()]);
        let device = DeviceId::DEFAULT;
        pool.fleet().fail_device(device).unwrap();
        // Selection executes nothing, so the gate job itself is served.
        let (pin_request, pin) = gate_request(Arc::clone(&matrix));
        let pinned = pool.submit(pin_request);
        wait_for_dequeues(&pool, Priority::Interactive, 1);
        let tickets: Vec<Ticket> = (0..K)
            .map(|_| {
                pool.submit(ServingRequest::execute(
                    Arc::clone(&matrix),
                    Arc::clone(&x),
                    19,
                ))
            })
            .collect();
        wait_for_forwards(&pool, K + 1);
        open(&pin);
        for ticket in tickets {
            assert_eq!(ticket.wait(), Err(ServingError::DeviceFailed { device }));
        }
        assert!(pinned.wait().is_ok());
        let stats = pool.shutdown();
        // The K requests coalesced into one run ...
        assert_eq!(stats.routing.batch_activations, 1);
        assert_eq!(stats.routing.batched_requests, K);
        // ... yet each got its own attempt and its own bounded retry,
        // exactly like K runs of one.
        assert_eq!(stats.device_failures(), 2 * K);
        assert_eq!(stats.retried(), K);
        assert_eq!(stats.failed(), 0, "a dead device is not a worker panic");
        // Only the gate job was served, and its shard's device was down.
        assert_eq!(stats.migrations(), 1);
        // Exact balance: every offered request was admitted and resolved.
        assert_eq!(stats.offered(), K + 1);
        assert_eq!(stats.submitted(), K + 1);
        assert_eq!(stats.completed(), K + 1);
        assert_eq!(stats.served(), 1);
        assert_eq!(stats.shed() + stats.expired(), 0);
        assert_eq!(stats.admission.in_flight, 0);
        assert_eq!(stats.queue_depth(), 0);
    }

    #[test]
    fn routing_config_builders_and_stats_helpers() {
        let config = RoutingConfig::default()
            .with_stage_capacity(64)
            .with_max_batch(4);
        assert_eq!(config.stage_capacity, 64);
        assert_eq!(config.max_batch, 4);
        let default = RoutingConfig::default();
        assert_eq!(default.stage_capacity, 1024);
        assert_eq!(default.max_batch, 8);
        let mut stats = RoutingPoolStats {
            batched_requests: 12,
            batch_activations: 3,
            ..RoutingPoolStats::default()
        };
        assert_eq!(stats.mean_batch_size(), 4.0);
        stats.batch_activations = 0;
        assert_eq!(stats.mean_batch_size(), 0.0);
    }
}
