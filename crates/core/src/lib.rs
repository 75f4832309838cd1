//! Seer: predictive runtime kernel selection for irregular problems.
//!
//! This crate implements the paper's two-level abstraction:
//!
//! * the **training abstraction** (Fig. 2): benchmark a set of SpMV kernels
//!   over a representative dataset ([`benchmarking`]), collect trivially known
//!   and dynamically gathered features ([`features`]), and train three
//!   decision-tree models — a known-feature classifier, a gathered-feature
//!   classifier, and a classifier-selection model that arbitrates between
//!   them ([`training`]);
//! * the **runtime inference** path (Fig. 3): consult the selector on the
//!   trivially known features, optionally run the feature-collection kernels
//!   (paying their modelled cost), and dispatch the predicted kernel
//!   ([`inference`], served by the [`engine`]).
//!
//! Runtime selection is served by [`engine::SeerEngine`] — an owned,
//! `Send + Sync` service that memoizes feature collections and selection
//! plans per matrix (keyed by content fingerprint) and offers batch entry
//! points, so repeated traffic pays the selection cost once. For concurrent
//! traffic, [`serving::ServingPool`] shards the engine across worker threads
//! (routing by fingerprint so cache locality survives concurrency).
//!
//! The multi-iteration / preprocessing-amortization analysis of Fig. 7 lives
//! in [`amortization`], and the CSV formats of the Seer API (Section III-D of
//! the paper) in [`csv`].
//!
//! # Example: train and serve selections
//!
//! ```
//! use seer_core::engine::SeerEngine;
//! use seer_core::training::TrainingConfig;
//! use seer_gpu::Gpu;
//! use seer_sparse::collection::{generate, CollectionConfig};
//!
//! # fn main() -> Result<(), seer_core::SeerError> {
//! let collection = generate(&CollectionConfig::tiny());
//!
//! // Train the known, gathered and selector models (Fig. 2) and bind them
//! // to the device as a long-lived service.
//! let (engine, _outcome) =
//!     SeerEngine::train(Gpu::default(), &collection, &TrainingConfig::fast())?;
//!
//! // Use it at runtime (Fig. 3). The second call on the same matrix is
//! // answered from the plan cache.
//! let selection = engine.select(&collection[0].matrix, 1);
//! let replayed = engine.select(&collection[0].matrix, 1);
//! assert_eq!(selection, replayed);
//! assert_eq!(engine.stats().plan_hits, 1);
//! println!("run {} ({} feature collection)", selection.kernel,
//!          if selection.used_gathered { "with" } else { "without" });
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amortization;
pub mod benchmarking;
pub mod csv;
pub mod engine;
pub mod evaluation;
pub mod features;
pub mod inference;
pub mod serving;
pub mod training;

mod error;

pub use engine::{EngineStats, ExplorationPolicy, PlanActivation, RecalibrationConfig, SeerEngine};
pub use error::SeerError;
pub use serving::{
    AdmissionConfig, AdmissionPoolStats, DevicePoolStats, HistogramSnapshot, LatencySnapshot,
    PoolConfig, PoolStats, Priority, RoutingConfig, RoutingPoolStats, ServingError, ServingPool,
    ServingRequest, ServingResponse, ShardStats, ShedReason, SubmitOutcome,
};
