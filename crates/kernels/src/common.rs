//! Shared cost parameters and row-group helpers for the kernel models.
//!
//! Per-matrix access-pattern profiling lives in the fused one-pass
//! [`seer_sparse::MatrixProfile`], memoized on the matrix; the kernel models
//! receive it by reference instead of re-deriving it.

use seer_sparse::{CsrMatrix, Scalar};

/// Microarchitectural cost constants shared by every kernel model.
///
/// The absolute values are calibrated to be *plausible* for a CDNA-class
/// device; what matters for Seer is that they are identical across kernels so
/// that relative comparisons are driven by the schedule and the data shape,
/// not by per-kernel fudge factors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// SIMD cycles a lane spends per nonzero it processes (index load, value
    /// load issue, FMA, pointer bump).
    pub cycles_per_nnz: f64,
    /// Cycles per step of an intra-wavefront / intra-workgroup reduction.
    pub reduction_cycles_per_step: f64,
    /// Fixed cycles of per-thread prologue (offset reads, bounds checks).
    pub thread_prologue_cycles: f64,
    /// Cycles of a binary search step (used by work-oriented kernels).
    pub search_cycles_per_step: f64,
    /// Bytes of a column index as stored on the device (`int`).
    pub index_bytes: u64,
    /// Bytes of a matrix/vector value (`double`).
    pub value_bytes: u64,
    /// Per-row bookkeeping traffic: row offset read plus output write.
    pub row_meta_bytes: u64,
}

impl CostParams {
    /// The calibration used throughout the reproduction.
    pub const fn default_params() -> Self {
        Self {
            cycles_per_nnz: 4.0,
            reduction_cycles_per_step: 4.0,
            thread_prologue_cycles: 8.0,
            search_cycles_per_step: 6.0,
            index_bytes: 4,
            value_bytes: 8,
            row_meta_bytes: 12,
        }
    }

    /// Streamed bytes charged per stored nonzero in CSR-like kernels
    /// (column index + value).
    pub fn csr_bytes_per_nnz(&self) -> u64 {
        self.index_bytes + self.value_bytes
    }

    /// Streamed bytes charged per stored entry in COO kernels
    /// (row index + column index + value).
    pub fn coo_bytes_per_nnz(&self) -> u64 {
        2 * self.index_bytes + self.value_bytes
    }

    /// Coalescing efficiency of a schedule in which each lane walks its own
    /// row sequentially (CSR thread-mapping).
    ///
    /// Neighbouring lanes then read locations `avg_row_len` entries apart, so
    /// once rows are longer than a cache line most of each DRAM transaction is
    /// wasted. Short rows keep several consecutive rows within one line and
    /// coalesce well.
    pub fn thread_mapped_streaming_efficiency(
        &self,
        avg_row_len: f64,
        cache_line_bytes: f64,
    ) -> f64 {
        let entries_per_line = cache_line_bytes / (self.index_bytes + self.value_bytes) as f64;
        (entries_per_line / avg_row_len.max(1.0)).clamp(0.1, 1.0)
    }
}

impl Default for CostParams {
    fn default() -> Self {
        Self::default_params()
    }
}

/// Iterates over consecutive groups of `group` rows, yielding
/// `(max_row_len, sum_row_len)` per group.
///
/// Thread-mapped style kernels assign one row per lane, so a wavefront's cost
/// is governed by the longest row in its group while its useful work is the
/// group's total — exactly the two numbers this helper produces.
pub(crate) fn row_groups(
    matrix: &CsrMatrix,
    group: usize,
) -> impl Iterator<Item = (usize, usize)> + '_ {
    let rows = matrix.rows();
    let group = group.max(1);
    (0..rows.div_ceil(group)).map(move |g| {
        let start = g * group;
        let end = ((g + 1) * group).min(rows);
        let mut max_len = 0;
        let mut sum_len = 0;
        for row in start..end {
            let len = matrix.row_len(row);
            max_len = max_len.max(len);
            sum_len += len;
        }
        (max_len, sum_len)
    })
}

/// Longest row [`lane_tree_sum`] reduces in a register-resident tree; longer
/// rows go through the scratch lane buffer.
const REGISTER_TREE_MAX: usize = 32;

/// The row sum `Σ vals[k] * x[cols[k]]` exactly as the device computes it:
/// `lanes` lanes (a power of two) start at `+0.0`, lane `k % lanes`
/// accumulates product `k` in row order, and a halving tree
/// (`partial[i] += partial[i + width]`, `width = lanes / 2, …, 1`) combines
/// them. The result is bit-identical to that loop for every input, but the
/// work scales with the row instead of with `lanes`.
///
/// Why skipping lanes is exact: every lane starts at `+0.0`, and a
/// round-to-nearest sum is `-0.0` only when both operands are, so no partial
/// of the original loop is ever `-0.0`. Adding a `+0.0` lane (or an all-zero
/// subtree, which sums to `+0.0`) to any value other than `-0.0` returns that
/// value, NaN and ±inf included, so every add whose right operand is a lane
/// the row never reached can be dropped. Here the lanes also start from the
/// raw products rather than from `+0.0 + product`, so a `-0.0` product can
/// survive where the original turned it into `+0.0`. A signed zero is still
/// the identity for every nonzero operand, so that changes nothing but the
/// sign of an all-zero result, which the final `sum == 0.0` fixup restores
/// to the original's `+0.0`.
///
/// Rows of up to [`REGISTER_TREE_MAX`] nonzeros reduce in a `[f64; K]`
/// array zero-padded to `K ∈ {4, 8, 16, 32}`, with constant loop bounds the
/// compiler unrolls. Longer rows use the first `min(n, lanes)` slots of
/// `partial` and add only the pairs whose right lane the row reached.
pub(crate) fn lane_tree_sum(
    cols: &[usize],
    vals: &[Scalar],
    x: &[Scalar],
    lanes: usize,
    partial: &mut [Scalar],
) -> Scalar {
    debug_assert!(lanes.is_power_of_two());
    let n = cols.len();
    let sum = if n > REGISTER_TREE_MAX.min(lanes) {
        buffered_tree(cols, vals, x, lanes, partial)
    } else if n <= 4 {
        register_tree::<4>(cols, vals, x)
    } else if n <= 8 {
        register_tree::<8>(cols, vals, x)
    } else if n <= 16 {
        register_tree::<16>(cols, vals, x)
    } else {
        register_tree::<REGISTER_TREE_MAX>(cols, vals, x)
    };
    if sum == 0.0 {
        0.0
    } else {
        sum
    }
}

/// Halving tree over the row's products zero-padded to `K` lanes; the caller
/// guarantees `cols.len() <= K`.
#[inline(always)]
fn register_tree<const K: usize>(cols: &[usize], vals: &[Scalar], x: &[Scalar]) -> Scalar {
    let n = cols.len();
    let vals = &vals[..n];
    let mut lane = [0.0; K];
    // A guarded loop over all `K` lanes, not one over the row: its constant
    // trip count lets the compiler unroll it and keep `lane` in registers.
    // Stored products read back by the tree's wide loads stall on store
    // forwarding (measured ~2x slower on 9–16 nonzero rows).
    for (i, slot) in lane.iter_mut().enumerate() {
        if i < n {
            *slot = vals[i] * x[cols[i]];
        }
    }
    let mut width = K;
    while width > 1 {
        width /= 2;
        for i in 0..width {
            lane[i] += lane[i + width];
        }
    }
    lane[0]
}

/// Striding lanes in the first `min(n, lanes)` slots of `partial`, then the
/// halving tree restricted to the lanes the row reached.
fn buffered_tree(
    cols: &[usize],
    vals: &[Scalar],
    x: &[Scalar],
    lanes: usize,
    partial: &mut [Scalar],
) -> Scalar {
    let reached = cols.len().min(lanes);
    let partial = &mut partial[..reached];
    let (first_cols, rest_cols) = cols.split_at(reached);
    let (first_vals, rest_vals) = vals.split_at(reached);
    for ((lane, &c), &v) in partial.iter_mut().zip(first_cols).zip(first_vals) {
        *lane = v * x[c];
    }
    // Chunk `j` of the rest holds slots `(j + 1) * lanes ..`: lane `i` sees
    // products `i, i + lanes, …` in row order, as on the device.
    for (chunk_cols, chunk_vals) in rest_cols.chunks(lanes).zip(rest_vals.chunks(lanes)) {
        for ((lane, &c), &v) in partial.iter_mut().zip(chunk_cols).zip(chunk_vals) {
            *lane += v * x[c];
        }
    }
    // Lanes `reached..` of the padded tree hold `+0.0`; only lanes below
    // `len` take part at each width.
    let mut len = reached;
    let mut width = reached.next_power_of_two() / 2;
    while width >= 1 {
        let (low, high) = partial.split_at_mut(width);
        for (a, &b) in low.iter_mut().zip(&high[..len - width]) {
            *a += b;
        }
        len = width;
        width /= 2;
    }
    partial[0]
}

/// Integer log2 rounded up, with `ceil_log2(0) == 0` and `ceil_log2(1) == 0`.
pub(crate) fn ceil_log2(x: usize) -> u32 {
    if x <= 1 {
        0
    } else {
        usize::BITS - (x - 1).leading_zeros()
    }
}

/// A matrix with an empty row, rows on both sides of every register-tree
/// size (4, 8, 16, 32) and of the 64- and 256-lane buffers, and a last row
/// of four `-0.0` products (a full register tree with no `+0.0` padding;
/// its sum must be `+0.0`), with the input vector to multiply it by.
#[cfg(test)]
pub(crate) fn padded_size_matrix() -> (CsrMatrix, Vec<Scalar>) {
    let cols = 300;
    let lengths = [
        0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 31, 32, 33, 64, 65, 255, 256, 257,
    ];
    let mut offsets = vec![0];
    let mut col_indices = Vec::new();
    let mut values = Vec::new();
    for (row, &len) in lengths.iter().enumerate() {
        for k in 0..len {
            col_indices.push((7 * k + row) % cols);
            values.push(1.0 / (1 + k + row) as Scalar - 0.01 * k as Scalar);
        }
        // Columns must ascend within a row.
        let start = offsets[row];
        col_indices[start..].sort_unstable();
        offsets.push(col_indices.len());
    }
    for c in 0..4 {
        col_indices.push(c);
        values.push(-0.0);
    }
    offsets.push(col_indices.len());
    let x = (0..cols).map(|i| 0.25 * i as Scalar + 1.0).collect();
    let matrix = CsrMatrix::try_new(offsets.len() - 1, cols, offsets, col_indices, values)
        .expect("padded-size rows are valid CSR");
    (matrix, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seer_sparse::{generators, SplitMix64};

    #[test]
    fn default_params_are_consistent() {
        let p = CostParams::default();
        assert_eq!(p.csr_bytes_per_nnz(), 12);
        assert_eq!(p.coo_bytes_per_nnz(), 16);
        assert!(p.cycles_per_nnz > 0.0);
    }

    #[test]
    fn thread_mapped_coalescing_degrades_with_row_length() {
        let p = CostParams::default();
        let short = p.thread_mapped_streaming_efficiency(2.0, 64.0);
        let long = p.thread_mapped_streaming_efficiency(200.0, 64.0);
        assert_eq!(short, 1.0);
        assert!(long < 0.2);
        assert!(long >= 0.1);
    }

    #[test]
    fn row_groups_cover_all_rows() {
        let mut rng = SplitMix64::new(6);
        let m = generators::power_law(257, 2.0, 32, &mut rng);
        let total: usize = row_groups(&m, 64).map(|(_, sum)| sum).sum();
        assert_eq!(total, m.nnz());
        assert_eq!(row_groups(&m, 64).count(), 257usize.div_ceil(64));
    }

    #[test]
    fn row_groups_max_is_at_least_mean() {
        let mut rng = SplitMix64::new(7);
        let m = generators::skewed_rows(300, 2, 64, 0.05, &mut rng);
        for (max, sum) in row_groups(&m, 64) {
            assert!(max * 64 >= sum);
        }
    }

    #[test]
    fn ceil_log2_small_values() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(64), 6);
        assert_eq!(ceil_log2(65), 7);
    }
}
