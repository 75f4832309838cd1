//! Differential test sweep: every registered kernel against the dense
//! reference SpMV on adversarial matrices.
//!
//! The eight kernel implementations mirror eight different parallel
//! decompositions (Table II), and each decomposition has its own degenerate
//! corner: zero-row matrices for thread-mapped schedules, empty rows for
//! wavefront segmentation, one enormous row for binning, rectangular shapes
//! for anything assuming squareness. A kernel that silently disagrees with
//! the dense reference on any of these would poison training data and
//! selections alike, so every `(kernel, adversarial matrix)` pair is swept.

use seer::gpu::Gpu;
use seer::kernels::{all_kernels, KernelId};
use seer::sparse::{generators, CsrMatrix, SplitMix64};

/// Relative-ish tolerance: kernels reassociate floating-point sums (segment
/// combines, per-bin accumulation), so exact equality is too strict, but the
/// error must stay within a few ulps of the dense result's magnitude.
fn assert_agrees(name: &str, kernel: KernelId, got: &[f64], want: &[f64]) {
    assert_eq!(
        got.len(),
        want.len(),
        "{kernel} on {name}: wrong output length"
    );
    for (row, (a, b)) in got.iter().zip(want).enumerate() {
        assert!(
            (a - b).abs() <= 1e-9 * b.abs().max(1.0),
            "{kernel} on {name} row {row}: {a} vs dense {b}"
        );
    }
}

/// A deterministic, mildly adversarial input vector (no zeros, mixed signs).
fn input_for(cols: usize) -> Vec<f64> {
    (0..cols).map(|i| ((i % 7) as f64) - 2.5).collect()
}

/// The adversarial corpus of the sweep. Every matrix here has broken at least
/// one real SpMV implementation in the wild.
fn adversarial_matrices() -> Vec<(String, CsrMatrix)> {
    let mut rng = SplitMix64::new(0xD1FF);
    let single_dense_row = {
        // One row holding every column, the rest empty: the binning /
        // wavefront worst case.
        let cols = 257;
        let rows = 64;
        let mut offsets = vec![0usize; rows + 1];
        offsets[1..].fill(cols);
        CsrMatrix::try_new(
            rows,
            cols,
            offsets,
            (0..cols).collect(),
            (0..cols).map(|c| 1.0 + (c % 9) as f64).collect(),
        )
        .expect("single dense row is valid CSR")
    };
    vec![
        ("empty_0x0".to_string(), CsrMatrix::zeros(0, 0)),
        ("empty_rows_8x5".to_string(), CsrMatrix::zeros(8, 5)),
        ("empty_cols_5x0".to_string(), CsrMatrix::zeros(5, 0)),
        ("one_by_one".to_string(), CsrMatrix::identity(1)),
        ("one_by_one_zero".to_string(), CsrMatrix::zeros(1, 1)),
        ("single_dense_row".to_string(), single_dense_row),
        (
            // A 1:400 row-length skew at 3% heavy rows: the motivating case
            // for CSR-Adaptive, and the case thread-mapping handles worst.
            "extreme_skew".to_string(),
            generators::skewed_rows(600, 1, 400, 0.03, &mut rng),
        ),
        (
            "tall_skinny".to_string(),
            generators::tall_skinny(2_000, 16, 3, &mut rng),
        ),
        (
            // The transpose shape of the tall-skinny case: cols >> rows.
            "wide_short".to_string(),
            generators::tall_skinny(16, 2_000, 5, &mut rng),
        ),
        (
            "interleaved_empty_rows".to_string(),
            // Alternating empty and short rows: exercises row-skipping in
            // every schedule.
            {
                let n = 100;
                let mut offsets = Vec::with_capacity(n + 1);
                let mut cols = Vec::new();
                let mut vals = Vec::new();
                offsets.push(0);
                for row in 0..n {
                    if row % 2 == 0 {
                        cols.push(row % 17);
                        vals.push(1.0 + row as f64 * 0.25);
                    }
                    offsets.push(cols.len());
                }
                CsrMatrix::try_new(n, 17, offsets, cols, vals).expect("valid structure")
            },
        ),
    ]
}

#[test]
fn every_kernel_matches_the_dense_reference_on_adversarial_matrices() {
    let kernels = all_kernels();
    assert_eq!(
        kernels.len(),
        KernelId::ALL.len(),
        "the sweep must cover every registered kernel"
    );
    for (name, matrix) in adversarial_matrices() {
        let x = input_for(matrix.cols());
        let dense = matrix.to_dense().spmv(&x);
        assert_eq!(dense.len(), matrix.rows(), "dense reference shape ({name})");
        for kernel in &kernels {
            let got = kernel.compute(&matrix, &x);
            assert_agrees(&name, kernel.id(), &got, &dense);
        }
    }
}

#[test]
fn every_kernel_models_finite_nonnegative_costs_on_adversarial_matrices() {
    // The performance models back every Seer training label; they must stay
    // finite (no 0/0 from empty rows or zero nonzeros) on the same corpus.
    let gpu = Gpu::default();
    for (name, matrix) in adversarial_matrices() {
        for kernel in all_kernels() {
            let preprocessing = kernel.preprocessing_time(&gpu, &matrix, matrix.profile());
            let iteration = kernel.iteration_time(&gpu, &matrix, matrix.profile());
            assert!(
                preprocessing.as_nanos().is_finite() && preprocessing.as_nanos() >= 0.0,
                "{} on {name}: preprocessing {:?}",
                kernel.id(),
                preprocessing
            );
            assert!(
                iteration.as_nanos().is_finite() && iteration.as_nanos() >= 0.0,
                "{} on {name}: iteration {:?}",
                kernel.id(),
                iteration
            );
        }
    }
}

#[test]
fn prepared_plans_are_bit_identical_to_streaming_on_adversarial_matrices() {
    // The prepared fast path replays materialized structures (merge-path
    // partition tables, ELL slabs, row bins, COO expansions) instead of
    // re-deriving them; any drift in summation order would split the warm
    // and cold serving paths apart. Sweep every kernel x adversarial matrix
    // pair and require *bit* equality against the streaming path (and
    // tolerance-level agreement with the dense reference).
    use seer::kernels::ComputeScratch;
    let kernels = all_kernels();
    for (name, matrix) in adversarial_matrices() {
        let x = input_for(matrix.cols());
        let dense = matrix.to_dense().spmv(&x);
        let mut scratch = ComputeScratch::new();
        for kernel in &kernels {
            let plan = kernel.prepare(&matrix, matrix.profile());
            assert_eq!(plan.kernel(), kernel.id(), "plan is tagged ({name})");
            assert_eq!(
                plan.sparsity_fingerprint(),
                matrix.sparsity_fingerprint(),
                "plan records its matrix ({name})"
            );
            let streamed = kernel.compute(&matrix, &x);
            // Poisoned output buffer: every element must be overwritten.
            let mut prepared = vec![f64::NAN; matrix.rows()];
            kernel.compute_prepared_into(&plan, &matrix, &x, &mut prepared, &mut scratch);
            for (row, (a, b)) in prepared.iter().zip(&streamed).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{} on {name} row {row}: prepared {a} != streaming {b}",
                    kernel.id()
                );
            }
            assert_agrees(&name, kernel.id(), &prepared, &dense);
        }
    }
}

#[test]
fn prepared_plans_are_bit_identical_on_random_rectangular_shapes() {
    use seer::kernels::ComputeScratch;
    let mut rng = SplitMix64::new(0x5EED);
    for (rows, cols) in [(1, 64), (64, 1), (33, 65), (128, 31)] {
        let matrix = generators::uniform_random(rows, cols, 0.2, &mut rng);
        let x = input_for(matrix.cols());
        let mut scratch = ComputeScratch::new();
        for kernel in all_kernels() {
            let plan = kernel.prepare(&matrix, matrix.profile());
            let streamed = kernel.compute(&matrix, &x);
            let mut prepared = vec![f64::NAN; matrix.rows()];
            kernel.compute_prepared_into(&plan, &matrix, &x, &mut prepared, &mut scratch);
            for (a, b) in prepared.iter().zip(&streamed) {
                assert_eq!(a.to_bits(), b.to_bits(), "{} {rows}x{cols}", kernel.id());
            }
        }
    }
}

#[test]
fn sweep_agrees_with_csr_spmv_on_random_rectangular_shapes() {
    // Belt-and-braces: beyond the hand-built corpus, sweep a few random
    // rectangular shapes of both aspect ratios against the CSR reference.
    let mut rng = SplitMix64::new(0xA5A5);
    for (rows, cols) in [(1, 64), (64, 1), (33, 65), (128, 31)] {
        let matrix = generators::uniform_random(rows, cols, 0.2, &mut rng);
        let x = input_for(matrix.cols());
        let reference = matrix.spmv(&x);
        for kernel in all_kernels() {
            let got = kernel.compute(&matrix, &x);
            assert_agrees(
                &format!("random_{rows}x{cols}"),
                kernel.id(),
                &got,
                &reference,
            );
        }
    }
}

/// The lane-buffer loop `CSR,WM` (64 lanes) and `CSR,BM` (256 lanes) model:
/// every lane starts at `+0.0`, lane `slot % lanes` accumulates the row's
/// products in order, and a halving tree combines the lanes. The kernels'
/// row reduction must reproduce it bit for bit.
fn lane_buffer_reference(matrix: &CsrMatrix, x: &[f64], lanes: usize) -> Vec<f64> {
    let mut partial = vec![0.0; lanes];
    (0..matrix.rows())
        .map(|row| {
            let (cols, vals) = matrix.row(row);
            partial.iter_mut().for_each(|p| *p = 0.0);
            for (slot, (&c, &v)) in cols.iter().zip(vals).enumerate() {
                partial[slot % lanes] += v * x[c];
            }
            let mut width = lanes;
            while width > 1 {
                width /= 2;
                for lane in 0..width {
                    partial[lane] += partial[lane + width];
                }
            }
            partial[0]
        })
        .collect()
}

/// Row lengths around every padded register-tree size, the register/buffer
/// boundary and both lane counts.
const LANE_SWEEP_LENGTHS: [usize; 17] = [
    0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65, 255, 256, 257,
];

/// Value classes of the exact-order sweep: each yields a matrix value for
/// column `c` of row slot `slot` in a row of `len`, against the class's `x`.
#[derive(Debug, Clone, Copy)]
enum ValueClass {
    /// Mixed signs over 40 binades: rounding in every add.
    Random,
    /// Every product is `-0.0`: the row sum must be `+0.0`.
    NegativeZeros,
    /// Small integers (and signed zeros) summing to exactly zero.
    Cancelling,
    /// Subnormal products of both signs.
    Subnormal,
    /// Random products with ±inf and NaN sprinkled in.
    NonFinite,
}

/// One matrix per value class holding `reps` rows of every sweep length,
/// plus the input vector the class's products are defined against.
fn lane_sweep_matrix(
    class: ValueClass,
    reps: usize,
    rng: &mut SplitMix64,
) -> (CsrMatrix, Vec<f64>) {
    let cols = 300;
    let x: Vec<f64> = (0..cols)
        .map(|_| match class {
            ValueClass::Cancelling => 1.0,
            _ => {
                let magnitude = rng.next_f64_range(0.5, 2.0);
                if rng.next_below(2) == 0 {
                    magnitude
                } else {
                    -magnitude
                }
            }
        })
        .collect();
    let mut offsets = vec![0];
    let mut col_indices = Vec::new();
    let mut values = Vec::new();
    let mut all_cols: Vec<usize> = (0..cols).collect();
    for _ in 0..reps {
        for &len in &LANE_SWEEP_LENGTHS {
            rng.shuffle(&mut all_cols);
            let mut row_cols = all_cols[..len].to_vec();
            row_cols.sort_unstable();
            let mut row_vals: Vec<f64> = row_cols
                .iter()
                .map(|&c| match class {
                    ValueClass::Random => {
                        let exponent = rng.next_range(0, 41) as i32 - 20;
                        rng.next_f64_range(-1.0, 1.0) * 2f64.powi(exponent)
                    }
                    ValueClass::NegativeZeros => {
                        if x[c] > 0.0 {
                            -0.0
                        } else {
                            0.0
                        }
                    }
                    ValueClass::Cancelling => match rng.next_below(6) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.next_range(0, 17) as f64 - 8.0,
                    },
                    ValueClass::Subnormal => {
                        let ulps = rng.next_range(0, 1 << 20) as f64;
                        let tiny = ulps * f64::from_bits(1);
                        if rng.next_below(2) == 0 {
                            tiny
                        } else {
                            -tiny
                        }
                    }
                    ValueClass::NonFinite => match rng.next_below(24) {
                        0 => f64::INFINITY,
                        1 => f64::NEG_INFINITY,
                        2 => f64::NAN,
                        _ => rng.next_f64_range(-1.0, 1.0),
                    },
                })
                .collect();
            if let (ValueClass::Cancelling, Some(last)) = (class, row_vals.len().checked_sub(1)) {
                // Small integers add exactly, so the row cancels whatever
                // the summation order.
                let rest: f64 = row_vals[..last].iter().sum();
                row_vals[last] = -rest;
            }
            col_indices.extend(row_cols);
            values.extend(row_vals);
            offsets.push(col_indices.len());
        }
    }
    let rows = offsets.len() - 1;
    let matrix = CsrMatrix::try_new(rows, cols, offsets, col_indices, values)
        .expect("lane sweep rows are valid CSR");
    (matrix, x)
}

/// Bit equality, except that two NaNs agree whatever their payloads (Rust
/// does not pin the payload an arithmetic NaN carries).
fn assert_same_bits(label: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: wrong output length");
    for (row, (a, b)) in got.iter().zip(want).enumerate() {
        if b.is_nan() {
            assert!(
                a.is_nan(),
                "{label} row {row}: {a} where the lanes give NaN"
            );
        } else {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label} row {row}: {a:e} where the lanes give {b:e}"
            );
        }
    }
}

#[test]
fn cooperative_row_reductions_match_the_lane_buffer_bit_for_bit() {
    use seer::kernels::{kernel, ComputeScratch};
    let mut rng = SplitMix64::new(0x1A4E);
    let classes = [
        ValueClass::Random,
        ValueClass::NegativeZeros,
        ValueClass::Cancelling,
        ValueClass::Subnormal,
        ValueClass::NonFinite,
    ];
    let mut scratch = ComputeScratch::new();
    for class in classes {
        let (matrix, x) = lane_sweep_matrix(class, 24, &mut rng);
        for (id, lanes) in [
            (KernelId::CsrWavefrontMapped, 64),
            (KernelId::CsrBlockMapped, 256),
        ] {
            let want = lane_buffer_reference(&matrix, &x, lanes);
            let k = kernel(id);
            let mut got = vec![f64::NAN; matrix.rows()];
            k.compute_into(&matrix, &x, &mut got, &mut scratch);
            assert_same_bits(&format!("{id} compute_into on {class:?}"), &got, &want);
            let plan = k.prepare(&matrix, matrix.profile());
            let mut got = vec![f64::NAN; matrix.rows()];
            k.compute_prepared_into(&plan, &matrix, &x, &mut got, &mut scratch);
            assert_same_bits(
                &format!("{id} compute_prepared_into on {class:?}"),
                &got,
                &want,
            );
        }
        if let ValueClass::NegativeZeros = class {
            // The class is only meaningful if the rows really are all -0.0.
            assert!(lane_buffer_reference(&matrix, &x, 64)
                .iter()
                .all(|y| y.to_bits() == 0));
        }
    }
}
