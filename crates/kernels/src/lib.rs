//! SpMV kernel variants for the Seer case study.
//!
//! Table II of the paper lists the load-balancing schedules and compressed
//! formats the authors benchmark on an MI100. This crate implements each of
//! those kernels against the analytical GPU substrate in [`seer_gpu`]:
//!
//! | Label | Kernel | Schedule |
//! |---|---|---|
//! | `CSR,A`   | [`CsrAdaptive`] | rows binned by size (rocSPARSE/CSR-Adaptive), sequential preprocessing |
//! | `CSR,TM`  | [`CsrThreadMapped`] | one row per thread |
//! | `CSR,WM`  | [`CsrWavefrontMapped`] | one row per 64-lane wavefront |
//! | `CSR,BM`  | [`CsrBlockMapped`] | one row per 256-thread workgroup |
//! | `CSR,WO`  | [`CsrWorkOriented`] | nonzeros + rows split evenly per thread, in-kernel search |
//! | `CSR,MP`  | [`CsrMergePath`] | merge-path partition computed by a setup dispatch |
//! | `COO,WM`  | [`CooWavefrontMapped`] | 64-nonzero segments per wavefront with atomic combine |
//! | `ELL,TM`  | [`EllThreadMapped`] | one padded row per thread after ELL conversion |
//!
//! Each kernel provides three things:
//!
//! 1. a **functional implementation** of `y = A * x` that mirrors the
//!    parallel decomposition (used to verify correctness against the
//!    sequential reference),
//! 2. a **per-iteration performance model** built by describing its wavefront
//!    work to [`seer_gpu::LaunchBuilder`], and
//! 3. a **preprocessing model** covering format conversion, binning and
//!    host-to-device transfers, which is what the multi-iteration
//!    amortization study exercises.
//!
//! # Example
//!
//! ```
//! use seer_gpu::Gpu;
//! use seer_kernels::{all_kernels, Oracle};
//! use seer_sparse::{generators, SplitMix64};
//!
//! let gpu = Gpu::default();
//! let matrix = generators::power_law(500, 2.0, 64, &mut SplitMix64::new(1));
//! let x = vec![1.0; matrix.cols()];
//!
//! // Every kernel computes the same product.
//! let reference = matrix.spmv(&x);
//! for kernel in all_kernels() {
//!     let y = kernel.compute(&matrix, &x);
//!     assert_eq!(y.len(), reference.len());
//! }
//!
//! // And the Oracle picks the one the model says is fastest.
//! let oracle = Oracle::new(&gpu);
//! let best = oracle.best_kernel(&matrix, 1);
//! println!("best kernel: {}", best.kernel);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
mod coo_wavefront_mapped;
mod csr_adaptive;
mod csr_block_mapped;
mod csr_merge_path;
mod csr_thread_mapped;
mod csr_wavefront_mapped;
mod csr_work_oriented;
mod ell_thread_mapped;
mod measurement;
mod merge;
mod oracle;
mod plan;
mod registry;

pub use common::CostParams;
pub use coo_wavefront_mapped::CooWavefrontMapped;
pub use csr_adaptive::CsrAdaptive;
pub use csr_block_mapped::CsrBlockMapped;
pub use csr_merge_path::CsrMergePath;
pub use csr_thread_mapped::CsrThreadMapped;
pub use csr_wavefront_mapped::CsrWavefrontMapped;
pub use csr_work_oriented::CsrWorkOriented;
pub use ell_thread_mapped::EllThreadMapped;
pub use measurement::{KernelProfile, MatrixBenchmark};
pub use oracle::{Oracle, OracleChoice};
pub use plan::{PlanMismatch, PreparedPlan};
pub use registry::{all_kernels, kernel, kernel_for, KernelId};
pub use seer_sparse::MatrixProfile;

use seer_gpu::{Gpu, KernelTiming, SimTime};
use seer_sparse::{CsrMatrix, Scalar};
use std::fmt;

/// Compressed sparse format a kernel consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SparseFormat {
    /// Compressed Sparse Row.
    Csr,
    /// Coordinate triplets.
    Coo,
    /// ELLPACK padded rows.
    Ell,
}

impl fmt::Display for SparseFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseFormat::Csr => f.write_str("CSR"),
            SparseFormat::Coo => f.write_str("COO"),
            SparseFormat::Ell => f.write_str("ELL"),
        }
    }
}

/// Load-balancing schedule a kernel applies (Table II of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadBalancing {
    /// Rows binned by size and processed per bin (Adaptive-CSR / rocSPARSE).
    Adaptive,
    /// One row (or fixed slice) per thread.
    ThreadMapped,
    /// One row per wavefront.
    WavefrontMapped,
    /// One row per workgroup.
    BlockMapped,
    /// Total work (nonzeros + rows) split evenly across threads.
    WorkOriented,
}

impl fmt::Display for LoadBalancing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadBalancing::Adaptive => f.write_str("Adaptive"),
            LoadBalancing::ThreadMapped => f.write_str("Thread Mapped"),
            LoadBalancing::WavefrontMapped => f.write_str("Wavefront Mapped"),
            LoadBalancing::BlockMapped => f.write_str("Block Mapped"),
            LoadBalancing::WorkOriented => f.write_str("Work Oriented"),
        }
    }
}

/// Reusable per-thread scratch space for [`SpmvKernel::compute_into`].
///
/// The cooperative schedules (wavefront-, block-mapped) reduce rows longer
/// than a register tree through a buffer of lane partial sums; holding it
/// here lets a serving worker run millions of functional executions without
/// a single heap allocation after warm-up.
#[derive(Debug, Clone, Default)]
pub struct ComputeScratch {
    lanes: Vec<Scalar>,
}

impl ComputeScratch {
    /// Creates an empty scratch space (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// A lane-partial buffer of at least `n` slots. Contents are
    /// unspecified: a kernel zeroes whatever prefix a row reaches before
    /// using it (rows short enough for a register tree never touch it).
    pub fn lanes(&mut self, n: usize) -> &mut [Scalar] {
        if self.lanes.len() < n {
            self.lanes.resize(n, 0.0);
        }
        &mut self.lanes[..n]
    }
}

/// A GPU SpMV kernel variant: a functional implementation plus a performance
/// and preprocessing model on the simulated device.
///
/// The trait is object-safe; the registry hands out `Box<dyn SpmvKernel>` so
/// the Seer training and inference pipelines can treat kernels uniformly.
///
/// The cost-model methods receive the matrix's fused [`MatrixProfile`] by
/// reference: callers obtain it once (memoized via
/// [`CsrMatrix::profile`](seer_sparse::CsrMatrix::profile) or an engine
/// cache) and every kernel model reads from the same single-traversal
/// profile instead of re-deriving it.
pub trait SpmvKernel: fmt::Debug + Send + Sync {
    /// Stable identifier of this kernel.
    fn id(&self) -> KernelId;

    /// Compressed format the kernel operates on.
    fn format(&self) -> SparseFormat;

    /// Load-balancing schedule the kernel applies.
    fn schedule(&self) -> LoadBalancing;

    /// Modelled one-time preprocessing cost for `matrix` (format conversion,
    /// row binning, partition tables, host-to-device transfers).
    ///
    /// Kernels that consume the device-resident CSR directly return
    /// [`SimTime::ZERO`].
    fn preprocessing_time(&self, gpu: &Gpu, matrix: &CsrMatrix, profile: &MatrixProfile)
        -> SimTime;

    /// Modelled runtime of one SpMV iteration on `matrix`.
    fn iteration_timing(
        &self,
        gpu: &Gpu,
        matrix: &CsrMatrix,
        profile: &MatrixProfile,
    ) -> KernelTiming;

    /// Functional execution of `y = A * x` into a caller-provided buffer,
    /// mirroring the kernel's parallel decomposition without allocating.
    /// Every element of `y` is overwritten. Used for correctness testing and
    /// the serving execute path; it carries no cost information.
    ///
    /// # Panics
    ///
    /// Implementations panic if `x.len() != matrix.cols()` or
    /// `y.len() != matrix.rows()`.
    fn compute_into(
        &self,
        matrix: &CsrMatrix,
        x: &[Scalar],
        y: &mut [Scalar],
        scratch: &mut ComputeScratch,
    );

    /// Builds this kernel's [`PreparedPlan`] for `matrix`: the materialized
    /// auxiliary structures its modelled preprocessing describes (merge-path
    /// partition table, ELL slab, row bins, COO row expansion). Runs once per
    /// `(matrix, kernel)`; the engine caches the result by content
    /// fingerprint so warm traffic replays it via
    /// [`SpmvKernel::compute_prepared_into`].
    ///
    /// The default is a direct plan (nothing to materialize), which is
    /// correct for kernels that consume the device-resident CSR arrays
    /// as-is.
    fn prepare(&self, matrix: &CsrMatrix, _profile: &MatrixProfile) -> PreparedPlan {
        PreparedPlan::direct(self.id(), matrix)
    }

    /// Warm-path functional execution using a [`PreparedPlan`] built by
    /// [`SpmvKernel::prepare`] for this same matrix value: skips the
    /// streaming re-derivation (binary searches, padding walks, binning) and
    /// replays the materialized structures. Allocation-free, and
    /// **bit-identical** to [`SpmvKernel::compute_into`] — implementations
    /// must preserve the per-row summation order.
    ///
    /// The default delegates to the streaming path, which is the prepared
    /// path for direct (nothing-to-materialize) kernels.
    ///
    /// # Panics
    ///
    /// Panics in **every** build profile if the plan was prepared for a
    /// different kernel or a different matrix value (see [`PlanMismatch`]
    /// for the modes), or (like [`SpmvKernel::compute_into`]) on mismatched
    /// `x`/`y` lengths. Callers that would rather handle staleness than
    /// crash use [`SpmvKernel::try_compute_prepared_into`].
    fn compute_prepared_into(
        &self,
        plan: &PreparedPlan,
        matrix: &CsrMatrix,
        x: &[Scalar],
        y: &mut [Scalar],
        scratch: &mut ComputeScratch,
    ) {
        plan.check_matches(self.id(), matrix);
        self.compute_into(matrix, x, y, scratch);
    }

    /// Fallible form of [`SpmvKernel::compute_prepared_into`]: validates the
    /// plan against `(self, matrix)` first and returns the [`PlanMismatch`]
    /// instead of panicking, leaving `y` untouched on error. Direct callers
    /// holding a plan across matrix mutations should prefer this and refresh
    /// the plan on [`PlanMismatch::StaleValues`].
    ///
    /// # Panics
    ///
    /// Still panics on mismatched `x`/`y` lengths, like the infallible path.
    fn try_compute_prepared_into(
        &self,
        plan: &PreparedPlan,
        matrix: &CsrMatrix,
        x: &[Scalar],
        y: &mut [Scalar],
        scratch: &mut ComputeScratch,
    ) -> Result<(), PlanMismatch> {
        plan.validate_for(self.id(), matrix)?;
        self.compute_prepared_into(plan, matrix, x, y, scratch);
        Ok(())
    }

    /// Allocating convenience wrapper around [`SpmvKernel::compute_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != matrix.cols()`.
    fn compute(&self, matrix: &CsrMatrix, x: &[Scalar]) -> Vec<Scalar> {
        let mut y = vec![0.0; matrix.rows()];
        let mut scratch = ComputeScratch::new();
        self.compute_into(matrix, x, &mut y, &mut scratch);
        y
    }

    /// Paper-style label, e.g. `CSR,TM`.
    fn label(&self) -> &'static str {
        self.id().label()
    }

    /// Convenience accessor for the total time of one iteration.
    fn iteration_time(&self, gpu: &Gpu, matrix: &CsrMatrix, profile: &MatrixProfile) -> SimTime {
        self.iteration_timing(gpu, matrix, profile).total
    }

    /// Measures an `iterations`-long run of this kernel on `matrix`,
    /// including its preprocessing, and returns the profile the Seer
    /// benchmarking stage records.
    fn measure(
        &self,
        gpu: &Gpu,
        matrix: &CsrMatrix,
        profile: &MatrixProfile,
        iterations: usize,
    ) -> KernelProfile {
        let preprocessing = self.preprocessing_time(gpu, matrix, profile);
        let timing = self.iteration_timing(gpu, matrix, profile);
        KernelProfile::new(self.id(), preprocessing, timing.total, iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        fn takes_object(_k: &dyn SpmvKernel) {}
        takes_object(&CsrThreadMapped::new());
    }

    #[test]
    fn format_and_schedule_display() {
        assert_eq!(SparseFormat::Csr.to_string(), "CSR");
        assert_eq!(SparseFormat::Coo.to_string(), "COO");
        assert_eq!(SparseFormat::Ell.to_string(), "ELL");
        assert_eq!(LoadBalancing::WorkOriented.to_string(), "Work Oriented");
        assert_eq!(LoadBalancing::Adaptive.to_string(), "Adaptive");
    }

    #[test]
    fn label_matches_id() {
        let k = CsrThreadMapped::new();
        assert_eq!(k.label(), k.id().label());
    }
}
