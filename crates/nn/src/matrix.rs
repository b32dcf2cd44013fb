//! A row-major `f64` matrix with the operations backpropagation needs.
//!
//! The GEMM kernels ([`gemm_nn_into`], [`gemm_nt_into`],
//! [`gemm_tn_scaled_into`]) are plain scalar Rust. Every output element
//! folds its sum over the reduction index in ascending order from `0.0`,
//! so batched and per-sample paths agree bit-for-bit; the register
//! tiles only interleave independent sums, and `target-cpu=native`
//! auto-vectorizes them.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix.
///
/// # Example
///
/// ```
/// use ctjam_nn::matrix::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let x = vec![1.0, 1.0];
/// assert_eq!(a.mul_vec(&x), vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows are ragged or empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix needs at least one column");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Flat view of the entries (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat view of the entries (row-major).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    #[allow(clippy::needless_range_loop)] // row index computes the data offset
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            out[r] = row.iter().zip(x).map(|(w, v)| w * v).sum();
        }
        out
    }

    /// Transposed matrix–vector product `Aᵀ·y`.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != rows`.
    #[allow(clippy::needless_range_loop)] // row index computes the data offset
    pub fn mul_vec_transposed(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.rows, "dimension mismatch");
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let row = &self.data[r * self.cols..(r + 1) * self.cols];
            let yr = y[r];
            for (o, w) in out.iter_mut().zip(row) {
                *o += w * yr;
            }
        }
        out
    }

    /// Accumulates the outer product `y·xᵀ` into `self` scaled by `scale`
    /// (the weight-gradient update `dW += scale · dz xᵀ`).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    #[allow(clippy::needless_range_loop)] // row index computes the data offset
    pub fn add_outer(&mut self, y: &[f64], x: &[f64], scale: f64) {
        assert_eq!(y.len(), self.rows, "dimension mismatch");
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        for r in 0..self.rows {
            let row = &mut self.data[r * self.cols..(r + 1) * self.cols];
            let yr = y[r] * scale;
            for (w, v) in row.iter_mut().zip(x) {
                *w += yr * v;
            }
        }
    }

    /// Fills the matrix with zeros in place.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// `out[s][o] = Σ_k a[s][k]·b[o][k] (+ bias[o])` for `a: a_rows×k`
/// (row-major), `b: b_rows×k` (row-major), `out: a_rows×b_rows`.
///
/// Every output element accumulates in ascending `k` order starting from
/// `0.0`, with the bias added only after the dot product completes —
/// bit-identical to `mul_vec` plus a bias add. Lengths are the caller's
/// contract (`Matrix`/`Batch` wrappers assert shapes).
///
/// `pack` is reusable scratch: `b` is transposed into it (`k`-major) so
/// the hot loop reads both operands contiguously and auto-vectorizes
/// across *independent* per-column accumulators. The transpose costs one
/// extra pass over `b` — amortised over `a_rows` — and cannot change a
/// single bit of the result, because each output element's sum still
/// folds left over ascending `k`; only the memory layout moves.
#[allow(clippy::too_many_arguments)] // mirrors the BLAS-style gemm signature
pub fn gemm_nt_into(
    a: &[f64],
    a_rows: usize,
    b: &[f64],
    b_rows: usize,
    k: usize,
    bias: Option<&[f64]>,
    pack: &mut Vec<f64>,
    out: &mut [f64],
) {
    debug_assert_eq!(a.len(), a_rows * k);
    debug_assert_eq!(b.len(), b_rows * k);
    debug_assert_eq!(out.len(), a_rows * b_rows);
    pack.clear();
    pack.resize(k * b_rows, 0.0);
    if k > 0 {
        for (o, br) in b.chunks_exact(k).enumerate() {
            for (kk, &w) in br.iter().enumerate() {
                pack[kk * b_rows + o] = w;
            }
        }
    }
    gemm_nn_into(a, a_rows, k, pack, b_rows, out);
    if let (Some(bs), true) = (bias, b_rows > 0) {
        for or in out.chunks_exact_mut(b_rows) {
            for (o, &bv) in or.iter_mut().zip(bs) {
                *o += bv;
            }
        }
    }
}

/// `out[s][c] = Σ_r a[s][r]·b[r][c]` for `a: a_rows×a_cols` and
/// `b: a_cols×b_cols`, both row-major.
///
/// Every output element folds over `r` in ascending order from `0.0`,
/// so each row is bit-identical to `mul_vec_transposed`; the register
/// tiles only interleave independent sums. `a_cols = 0` writes zeros.
pub fn gemm_nn_into(
    a: &[f64],
    a_rows: usize,
    a_cols: usize,
    b: &[f64],
    b_cols: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(a.len(), a_rows * a_cols);
    debug_assert_eq!(b.len(), a_cols * b_cols);
    debug_assert_eq!(out.len(), a_rows * b_cols);
    gemm(a_rows, a_cols, |s, r| a[s * a_cols + r], b, b_cols, out);
}

/// `out[j][i] = Σ_s (a[s][j]·scale)·b[s][i]` for `a: rows×m` and
/// `b: rows×n`, both row-major — the batched weight gradient
/// `dW = (dz·scale)ᵀ·A` as one pass. No transpose pack: row `s` of both
/// operands is already contiguous.
///
/// Every output element folds over `s` in ascending order from `0.0`,
/// adding exactly the `(a·scale)·b` products of the per-sample rank-1
/// update sequence — bit-identical to `Matrix::add_outer` called once
/// per sample in ascending order on a zeroed accumulator.
pub fn gemm_tn_scaled_into(
    a: &[f64],
    rows: usize,
    m: usize,
    scale: f64,
    b: &[f64],
    n: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(a.len(), rows * m);
    debug_assert_eq!(b.len(), rows * n);
    debug_assert_eq!(out.len(), m * n);
    gemm(m, rows, |j, s| a[s * m + j] * scale, b, n, out);
}

/// Output rows per register tile in a full row block.
const MR: usize = 4;

/// `out[i][c] = Σ_r a(i, r)·b[r][c]` for `i < rows`, `r < red` and
/// `c < n`, with `b: red×n` and `out: rows×n` row-major: the one kernel
/// behind [`gemm_nn_into`] and [`gemm_tn_scaled_into`], which differ
/// only in how `a(i, r)` reads the left operand.
///
/// Full blocks of [`MR`] rows run `MR×16`, `MR×8` and `MR×1` register
/// tiles; each leftover row runs `1×32`, `1×8` and `1×1` tiles, so a
/// single-row product (one decision's forward) also keeps its sums in
/// registers and stores each output once.
fn gemm(
    rows: usize,
    red: usize,
    a: impl Fn(usize, usize) -> f64 + Copy,
    b: &[f64],
    n: usize,
    out: &mut [f64],
) {
    let mut i = 0;
    while i + MR <= rows {
        let block = &mut out[i * n..(i + MR) * n];
        tiles::<MR, 16, 8>(red, move |m, r| a(i + m, r), b, n, block);
        i += MR;
    }
    for i in i..rows {
        let row = &mut out[i * n..(i + 1) * n];
        tiles::<1, 32, 8>(red, move |_, r| a(i, r), b, n, row);
    }
}

/// Covers the `M`-row block `out` left to right with `M×N` tiles, then
/// `M×N2` tiles, then single columns.
fn tiles<const M: usize, const N: usize, const N2: usize>(
    red: usize,
    a: impl Fn(usize, usize) -> f64 + Copy,
    b: &[f64],
    n: usize,
    out: &mut [f64],
) {
    let mut c = 0;
    while c + N <= n {
        tile::<M, N>(red, a, b, n, c, out);
        c += N;
    }
    while c + N2 <= n {
        tile::<M, N2>(red, a, b, n, c, out);
        c += N2;
    }
    for c in c..n {
        tile::<M, 1>(red, a, b, n, c, out);
    }
}

/// One `M×N` register tile: columns `c..c + N` of the `M`-row block
/// `out`. Each of its sums starts from `0.0`, adds `b[r][c]·a(m, r)`
/// over `r` in ascending order with a separate multiply and add
/// rounding, and is stored once. Tiling only interleaves independent
/// sums, so every tile shape gives the naive loop's bits.
fn tile<const M: usize, const N: usize>(
    red: usize,
    a: impl Fn(usize, usize) -> f64,
    b: &[f64],
    n: usize,
    c: usize,
    out: &mut [f64],
) {
    let mut acc = [[0.0f64; N]; M];
    for r in 0..red {
        let br = &b[r * n + c..r * n + c + N];
        for (m, am) in acc.iter_mut().enumerate() {
            let av = a(m, r);
            for (o, &w) in am.iter_mut().zip(br) {
                *o += w * av;
            }
        }
    }
    for (m, am) in acc.iter().enumerate() {
        out[m * n + c..m * n + c + N].copy_from_slice(am);
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:>10.4} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut m = Matrix::zeros(2, 3);
        m[(1, 2)] = 5.0;
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m.len(), 6);
    }

    #[test]
    fn from_fn_layout() {
        let m = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0]);
    }

    #[test]
    fn mul_vec_matches_hand_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.mul_vec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    fn transposed_product_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let y = [1.0, -1.0, 2.0];
        // Aᵀy = [1−3+10, 2−4+12] = [8, 10].
        assert_eq!(a.mul_vec_transposed(&y), vec![8.0, 10.0]);
    }

    #[test]
    fn outer_product_accumulates() {
        let mut g = Matrix::zeros(2, 2);
        g.add_outer(&[1.0, 2.0], &[3.0, 4.0], 0.5);
        assert_eq!(g.as_slice(), &[1.5, 2.0, 3.0, 4.0]);
        g.add_outer(&[1.0, 2.0], &[3.0, 4.0], 0.5);
        assert_eq!(g[(1, 1)], 8.0);
        g.fill_zero();
        assert!(g.as_slice().iter().all(|&v| v == 0.0));
    }

    /// `A·B` through [`gemm_nn_into`].
    fn nn(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        gemm_nn_into(
            a.as_slice(),
            a.rows(),
            a.cols(),
            b.as_slice(),
            b.cols(),
            out.as_mut_slice(),
        );
        out
    }

    /// `A·Bᵀ` through [`gemm_nt_into`].
    fn nt(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.rows());
        gemm_nt_into(
            a.as_slice(),
            a.rows(),
            b.as_slice(),
            b.rows(),
            a.cols(),
            None,
            &mut Vec::new(),
            out.as_mut_slice(),
        );
        out
    }

    #[test]
    fn gemm_nn_matches_hand_result() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        assert_eq!(nn(&a, &b).as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn gemm_nt_equals_gemm_nn_on_the_explicit_transpose() {
        // Shapes larger than the register tile so both the tiled body and
        // the remainder path run.
        let a = Matrix::from_fn(5, 11, |r, c| ((r * 13 + c * 7) as f64 * 0.3).sin());
        let b = Matrix::from_fn(19, 11, |r, c| ((r * 5 + c * 3) as f64 * 0.7).cos());
        let bt = Matrix::from_fn(11, 19, |r, c| b[(c, r)]);
        assert_eq!(nt(&a, &b), nn(&a, &bt));
    }

    #[test]
    fn gemm_nt_rows_are_bit_exact_with_mul_vec() {
        let a = Matrix::from_fn(4, 9, |r, c| ((r * 31 + c) as f64 * 0.11).sin());
        let b = Matrix::from_fn(21, 9, |r, c| ((r * 17 + c * 2) as f64 * 0.13).cos());
        let c = nt(&a, &b);
        for s in 0..a.rows() {
            let row: Vec<f64> = (0..a.cols()).map(|j| a[(s, j)]).collect();
            let want = b.mul_vec(&row);
            let got: Vec<f64> = (0..b.rows()).map(|o| c[(s, o)]).collect();
            assert_eq!(got, want, "row {s} diverged from mul_vec");
        }
    }

    #[test]
    fn gemm_nn_rows_are_bit_exact_with_mul_vec_transposed() {
        let a = Matrix::from_fn(3, 14, |r, c| ((r * 7 + c * 5) as f64 * 0.19).sin());
        let b = Matrix::from_fn(14, 6, |r, c| ((r * 3 + c * 11) as f64 * 0.23).cos());
        let c = nn(&a, &b);
        for s in 0..a.rows() {
            let row: Vec<f64> = (0..a.cols()).map(|j| a[(s, j)]).collect();
            let want = b.mul_vec_transposed(&row);
            let got: Vec<f64> = (0..b.cols()).map(|o| c[(s, o)]).collect();
            assert_eq!(got, want, "row {s} diverged from mul_vec_transposed");
        }
    }

    #[test]
    fn empty_reduction_zeroes_dirty_output() {
        // Covers both the 4-row tiles (all three column paths) and the
        // row remainder.
        let mut out = vec![f64::NAN; 5 * 25];
        gemm_nn_into(&[], 5, 0, &[], 25, &mut out);
        assert!(out.iter().all(|&v| v == 0.0), "a_cols = 0 must write zeros");
    }

    #[test]
    #[should_panic]
    fn dimension_mismatch_panics() {
        Matrix::zeros(2, 3).mul_vec(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn ragged_rows_panic() {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }
}
