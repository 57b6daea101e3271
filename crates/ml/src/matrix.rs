//! A minimal dense row-major matrix used by the neural-network layers.
//!
//! The simulation only needs small matrices (thousands of elements), so a straightforward
//! `Vec<f64>`-backed implementation with cache-friendly row-major loops is sufficient and
//! keeps the crate free of external linear-algebra dependencies.
//!
//! # In-place kernels
//!
//! The training hot path runs thousands of small matrix products per federated round, so
//! every operation that a layer's forward/backward pass needs exists in an **`_into` form**
//! that writes into a caller-owned output matrix instead of allocating a fresh one:
//!
//! * [`Matrix::matmul_into`] — `out = self · other`, cache-blocked over the shared dimension,
//! * [`Matrix::matmul_transpose_a_into`] — `out = selfᵀ · other` without materialising the
//!   transpose (the dense/LSTM weight-gradient product),
//! * `Matrix::matmul_acc_into` / `Matrix::matmul_transpose_a_acc_into` — the same two
//!   cores in their native **accumulate** form, `out += self · other` and
//!   `out += selfᵀ · other`: each output element keeps whatever it held and takes the partial
//!   products on top in ascending shared-dimension order. The overwriting forms above are
//!   `fill(0.0)` followed by these; the convolution layer's backward pass starts its
//!   weight gradient at the running accumulator instead,
//! * [`Matrix::matmul_transpose_b_into`] — `out = self · otherᵀ` without materialising the
//!   transpose (the dense/LSTM input-gradient product),
//! * [`Matrix::map_inplace`], `Matrix::add_row_inplace`, `Matrix::sum_rows_into`,
//!   `Matrix::batch_gather_into` — the element-wise / broadcast / reduction / batch-extract
//!   counterparts.
//!
//! Output matrices are reshaped with `Matrix::resize`, which reuses the existing buffer
//! capacity: after a warm-up pass at the largest shape, the `_into` kernels perform **zero
//! allocations**. The few allocating methods left ([`Matrix::matmul`],
//! [`Matrix::transpose`]) are thin wrappers over the `_into` forms, so the two are
//! bit-identical.

use rand::Rng;
use std::fmt;

/// Thread-local accounting of `Matrix` buffer allocations, used to assert that the training
/// hot path is allocation-free in steady state.
///
/// Only matrix-buffer events on the **current thread** are counted: fresh buffer creation
/// ([`Matrix::zeros`], [`Matrix::from_vec`], clones) and capacity growth inside
/// [`Matrix::resize`]. Compiled in only for tests and the `alloc-count` feature, so release
/// builds carry no bookkeeping.
#[cfg(any(test, feature = "alloc-count"))]
pub mod alloc_count {
    use std::cell::Cell;

    thread_local! {
        static MATRIX_ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    /// Resets the current thread's allocation counter to zero.
    pub fn reset() {
        MATRIX_ALLOCS.with(|c| c.set(0));
    }

    /// Number of matrix-buffer allocations on the current thread since the last
    /// [`reset`].
    pub fn count() -> u64 {
        MATRIX_ALLOCS.with(|c| c.get())
    }

    pub(super) fn note() {
        MATRIX_ALLOCS.with(|c| c.set(c.get() + 1));
    }
}

/// Records one matrix-buffer allocation (no-op unless the counter is compiled in).
#[inline]
fn note_alloc(len: usize) {
    #[cfg(any(test, feature = "alloc-count"))]
    if len > 0 {
        alloc_count::note();
    }
    #[cfg(not(any(test, feature = "alloc-count")))]
    let _ = len;
}

/// Block size (in rows of the right-hand operand) for the cache-blocked matmul family: a
/// 64 × 64 `f64` panel is 32 KiB, sized to stay resident in a typical L1d cache while every
/// left-hand row streams against it.
const MATMUL_BLOCK: usize = 64;

// ---------------------------------------------------------------------------
// Kernel cores.
//
// The matmul family shares two loop-nest cores operating on raw row-major slices. Each core
// accumulates every output element in strict ascending shared-dimension order, so the
// result is bit-identical to the historical scalar kernels for finite operands (the old
// kernels skipped `a == 0.0` terms; those terms are all `±0.0`, and adding `±0.0` never
// changes a finite accumulator that started at `+0.0` — IEEE-754 round-to-nearest sums
// never produce `−0.0`).
//
// On x86-64 the cores are additionally compiled with AVX enabled and selected at runtime.
// This only widens the auto-vectorised lanes across *independent* output elements — no
// per-element reassociation — so the AVX and scalar paths produce identical bits and
// results stay reproducible across machines with and without AVX.
// ---------------------------------------------------------------------------

/// `out[i][j] += Σ_k a[i][k] · b[k][j]` for `a: (m, kd)`, `b: (kd, n)`, `out: (m, n)`:
/// the terms land on whatever `out` already holds. Panel-blocked over `k` with a four-wide
/// register block: each output value is loaded once, updated by four consecutive `k` terms
/// in order, and stored once.
#[inline(always)]
fn matmul_core(m: usize, kd: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    for kb in (0..kd).step_by(MATMUL_BLOCK) {
        let kend = (kb + MATMUL_BLOCK).min(kd);
        for i in 0..m {
            let a_row = &a[i * kd..(i + 1) * kd];
            let out_row = &mut out[i * n..(i + 1) * n];
            let mut k = kb;
            while k + 4 <= kend {
                let (a0, a1, a2, a3) = (a_row[k], a_row[k + 1], a_row[k + 2], a_row[k + 3]);
                let panel = &b[k * n..(k + 4) * n];
                let (b0, rest) = panel.split_at(n);
                let (b1, rest) = rest.split_at(n);
                let (b2, b3) = rest.split_at(n);
                for (j, o) in out_row.iter_mut().enumerate() {
                    let mut acc = *o;
                    acc += a0 * b0[j];
                    acc += a1 * b1[j];
                    acc += a2 * b2[j];
                    acc += a3 * b3[j];
                    *o = acc;
                }
                k += 4;
            }
            while k < kend {
                let a_k = a_row[k];
                let b_row = &b[k * n..(k + 1) * n];
                for (o, bv) in out_row.iter_mut().zip(b_row) {
                    *o += a_k * bv;
                }
                k += 1;
            }
        }
    }
}

/// `out[i][j] += Σ_k a[k][i] · b[k][j]` for `a: (rows, m)`, `b: (rows, n)`, `out: (m, n)`
/// — the `aᵀ · b` product without materialising the transpose, accumulated onto whatever
/// `out` already holds.
#[inline(always)]
fn matmul_ta_core(rows: usize, m: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    let mut k = 0;
    while k + 4 <= rows {
        let a_panel = &a[k * m..(k + 4) * m];
        let (a0, rest) = a_panel.split_at(m);
        let (a1, rest) = rest.split_at(m);
        let (a2, a3) = rest.split_at(m);
        let b_panel = &b[k * n..(k + 4) * n];
        let (b0, rest) = b_panel.split_at(n);
        let (b1, rest) = rest.split_at(n);
        let (b2, b3) = rest.split_at(n);
        for i in 0..m {
            let (c0, c1, c2, c3) = (a0[i], a1[i], a2[i], a3[i]);
            let out_row = &mut out[i * n..(i + 1) * n];
            for (j, o) in out_row.iter_mut().enumerate() {
                let mut acc = *o;
                acc += c0 * b0[j];
                acc += c1 * b1[j];
                acc += c2 * b2[j];
                acc += c3 * b3[j];
                *o = acc;
            }
        }
        k += 4;
    }
    while k < rows {
        let a_row = &a[k * m..(k + 1) * m];
        let b_row = &b[k * n..(k + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
        k += 1;
    }
}

/// `matmul_core` compiled with AVX code generation.
///
/// # Safety
///
/// The CPU must support AVX.
// SAFETY: callable only where the CPU has AVX, which `run_matmul_core` checks through
// `fmore_numerics::simd::avx_enabled`. Its bits are pinned to the seed's scalar kernel by
// `tests/properties.rs::inplace_matmul_family_matches_allocating_composition_bitwise`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn matmul_core_avx(m: usize, kd: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    matmul_core(m, kd, n, a, b, out);
}

/// `matmul_ta_core` compiled with AVX code generation.
///
/// # Safety
///
/// The CPU must support AVX.
// SAFETY: callable only where the CPU has AVX, which `run_matmul_ta_core` checks through
// `fmore_numerics::simd::avx_enabled`. Its bits are pinned to the seed's scalar kernel by
// `tests/properties.rs::inplace_matmul_family_matches_allocating_composition_bitwise`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn matmul_ta_core_avx(
    rows: usize,
    m: usize,
    n: usize,
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
) {
    matmul_ta_core(rows, m, n, a, b, out);
}

fn run_matmul_core(m: usize, kd: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if fmore_numerics::simd::avx_enabled() {
        // SAFETY: `avx_enabled` answers true only after `is_x86_feature_detected!("avx")`;
        // the tier is pinned by `inplace_matmul_family_matches_allocating_composition_bitwise`.
        unsafe { matmul_core_avx(m, kd, n, a, b, out) };
        return;
    }
    matmul_core(m, kd, n, a, b, out);
}

fn run_matmul_ta_core(rows: usize, m: usize, n: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if fmore_numerics::simd::avx_enabled() {
        // SAFETY: `avx_enabled` answers true only after `is_x86_feature_detected!("avx")`;
        // the tier is pinned by `inplace_matmul_family_matches_allocating_composition_bitwise`.
        unsafe { matmul_ta_core_avx(rows, m, n, a, b, out) };
        return;
    }
    matmul_ta_core(rows, m, n, a, b, out);
}

std::thread_local! {
    /// Per-thread scratch for [`Matrix::matmul_transpose_b_into`]'s operand re-pack; sized
    /// once per thread and reused, so steady-state backward passes stay allocation-free.
    static TRANSPOSE_SCRATCH: std::cell::RefCell<Matrix> =
        std::cell::RefCell::new(Matrix::default());
}

/// A dense row-major matrix of `f64`.
#[derive(Debug, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        note_alloc(self.data.len());
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Reuses the existing buffer when its capacity suffices.
        self.copy_from(source);
    }
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        note_alloc(rows * cols);
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        note_alloc(data.len());
        Self { rows, cols, data }
    }

    /// Creates a matrix with entries drawn uniformly from `[-scale, scale]`.
    pub fn random_uniform<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        scale: f64,
        rng: &mut R,
    ) -> Self {
        let mut out = Self::zeros(rows, cols);
        for v in out.data.iter_mut() {
            *v = rng.gen_range(-scale..=scale);
        }
        out
    }

    /// He-style initialisation for a layer with `fan_in` inputs: uniform on
    /// `±sqrt(6 / fan_in)`.
    pub(crate) fn he_init<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        fan_in: usize,
        rng: &mut R,
    ) -> Self {
        let scale = (6.0 / fan_in.max(1) as f64).sqrt();
        Self::random_uniform(rows, cols, scale, rng)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow the raw row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the raw row-major data.
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reshapes the matrix to `rows × cols`, reusing the existing buffer.
    ///
    /// The contents after the call are unspecified (a mix of stale values and zeros); every
    /// `_into` kernel overwrites or zero-fills as needed. No allocation happens unless the
    /// new element count exceeds the buffer's current capacity, so scratch matrices reach a
    /// steady state after one pass at their largest shape.
    pub(crate) fn resize(&mut self, rows: usize, cols: usize) {
        let needed = rows * cols;
        if needed > self.data.capacity() {
            note_alloc(needed);
        }
        self.data.resize(needed, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Sets every element to `value`.
    pub(crate) fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Makes `self` an element-wise copy of `src`, reusing the existing buffer.
    pub(crate) fn copy_from(&mut self, src: &Matrix) {
        self.resize(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow one row as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow one row as a slice.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Stacks the given rows of `self` into `out` (how mini-batches are assembled in a
    /// scratch arena).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub(crate) fn batch_gather_into(&self, indices: &[usize], out: &mut Matrix) {
        out.resize(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product `out = self · other`, written into a caller-owned matrix.
    ///
    /// The loop nest is blocked twice: a panel of `MATMUL_BLOCK` (64) rows of `other` stays in
    /// cache while every row of `self` streams against it, and within a panel the shared
    /// dimension is register-blocked four-wide — each output value is loaded once, updated
    /// by four consecutive `k` terms in a register, and stored once. Per output element the
    /// partial products still accumulate in strict ascending `k` order, so for finite
    /// operands the result is bit-identical to the historical skip-zero scalar kernel (the
    /// skipped terms were all `±0.0`, and adding `±0.0` never changes a finite accumulator
    /// that started at `+0.0` — IEEE-754 round-to-nearest sums never produce `−0.0`).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        out.resize(self.rows, other.cols);
        out.fill(0.0);
        self.matmul_acc_into(other, out);
    }

    /// Accumulating matrix product `out += self · other`: every element of `out` keeps its
    /// value and takes its partial products on top, in the strict ascending shared-dimension
    /// order of [`Matrix::matmul_into`] (which is `fill(0.0)` followed by this).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows` or `out` is not `self.rows × other.cols`.
    pub(crate) fn matmul_acc_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul accumulator shape mismatch"
        );
        run_matmul_core(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
    }

    /// Product with the left operand transposed: `out = selfᵀ · other`, without ever
    /// materialising `selfᵀ`.
    ///
    /// This is the weight-gradient product of the backward pass (`∇W = xᵀ · ∂L/∂y`). The
    /// loop nest walks both operands row-by-row (contiguously), register-blocking the
    /// shared dimension four-wide, and accumulates each output element in strict ascending
    /// shared-dimension order — bit-identical to `self.transpose().matmul(other)` for
    /// finite operands (see [`Matrix::matmul_into`] on why dropping the historical
    /// zero-skip is a bitwise no-op).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    pub fn matmul_transpose_a_into(&self, other: &Matrix, out: &mut Matrix) {
        out.resize(self.cols, other.cols);
        out.fill(0.0);
        self.matmul_transpose_a_acc_into(other, out);
    }

    /// Accumulating form of [`Matrix::matmul_transpose_a_into`]: `out += selfᵀ · other`,
    /// each element taking its terms in ascending row order of the two operands on top of
    /// the value it already holds (a running gradient accumulator, say).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows` or `out` is not `self.cols × other.cols`.
    pub(crate) fn matmul_transpose_a_acc_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_transpose_a dimension mismatch"
        );
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "matmul_transpose_a accumulator shape mismatch"
        );
        run_matmul_ta_core(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
    }

    /// Product with the right operand transposed: `out = self · otherᵀ`, without the
    /// allocation of a `transpose()` call.
    ///
    /// This is the input-gradient product of the backward pass (`∂L/∂x = ∂L/∂y · Wᵀ`).
    /// Row-major `A · Bᵀ` admits no loop order that is both contiguous and axpy-shaped, and
    /// a strict-order dot product cannot be vectorised, so the kernel re-packs `otherᵀ`
    /// into a per-thread scratch buffer (reused across calls — no steady-state allocation)
    /// and runs the fast matmul core over it. By construction the result is bit-identical
    /// to `self.matmul(&other.transpose())`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_transpose_b_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose_b dimension mismatch"
        );
        TRANSPOSE_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            other.transpose_into(&mut scratch);
            self.matmul_into(&scratch, out);
        });
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::default();
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into a caller-owned matrix (the allocation-free form of
    /// [`Matrix::transpose`]).
    pub(crate) fn transpose_into(&self, out: &mut Matrix) {
        out.resize(self.cols, self.rows);
        for i in 0..self.rows {
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (j, &v) in row.iter().enumerate() {
                out.data[j * self.rows + i] = v;
            }
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace<F: Fn(f64) -> f64>(&mut self, f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Scales every element by `factor` in place.
    pub fn scale_in_place(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Adds `other * factor` into `self` in place (`self += factor · other`).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled_in_place(&mut self, other: &Matrix, factor: f64) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "axpy shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += factor * b;
        }
    }

    /// Adds a row vector (1 × cols) to every row in place (bias broadcast).
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 × self.cols`.
    pub(crate) fn add_row_inplace(&mut self, bias: &Matrix) {
        assert_eq!(bias.rows, 1, "bias must be a row vector");
        assert_eq!(bias.cols, self.cols, "bias width mismatch");
        for i in 0..self.rows {
            for j in 0..self.cols {
                self.data[i * self.cols + j] += bias.data[j];
            }
        }
    }

    /// Sums over rows into a caller-owned `1 × cols` row vector (used for bias gradients).
    pub(crate) fn sum_rows_into(&self, out: &mut Matrix) {
        out.resize(1, self.cols);
        out.fill(0.0);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j] += self.get(i, j);
            }
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for i in 0..self.rows.min(6) {
            for j in 0..self.cols.min(8) {
                write!(f, "{:8.4} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmore_numerics::seeded_rng;

    #[test]
    fn construction_and_accessors() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        let z = Matrix::zeros(2, 2);
        assert_eq!(z.data(), &[0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "rows*cols")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.rows(), 2);
        assert_eq!(c.cols(), 2);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_with_identity_is_identity() {
        let a = Matrix::from_vec(2, 2, vec![3.0, -1.0, 2.0, 5.0]);
        let i = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn matmul_into_reuses_and_reshapes_the_output() {
        let mut rng = seeded_rng(20);
        let a = Matrix::random_uniform(7, 5, 1.0, &mut rng);
        let b = Matrix::random_uniform(5, 9, 1.0, &mut rng);
        // Start from a stale, wrongly-shaped output buffer.
        let mut out = Matrix::from_vec(2, 2, vec![9.0; 4]);
        a.matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));
        // Re-run with different shapes into the same buffer.
        let c = Matrix::random_uniform(3, 7, 1.0, &mut rng);
        c.matmul_into(&a, &mut out);
        assert_eq!(out, c.matmul(&a));
    }

    #[test]
    fn matmul_blocking_crosses_block_boundaries() {
        // Shared dimension larger than one block exercises the k-panel loop.
        let k = MATMUL_BLOCK + 17;
        let mut rng = seeded_rng(21);
        let a = Matrix::random_uniform(3, k, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, 4, 1.0, &mut rng);
        let mut out = Matrix::default();
        a.matmul_into(&b, &mut out);
        // Reference: plain per-element dot products in ascending k order.
        for i in 0..3 {
            for j in 0..4 {
                let mut acc = 0.0;
                for kk in 0..k {
                    let v = a.get(i, kk);
                    if v == 0.0 {
                        continue;
                    }
                    acc += v * b.get(kk, j);
                }
                assert_eq!(out.get(i, j), acc);
            }
        }
    }

    #[test]
    fn transpose_kernels_match_allocating_composition() {
        let mut rng = seeded_rng(22);
        // Include exact zeros so the zero-skip path is exercised.
        let mut a = Matrix::random_uniform(6, 4, 1.0, &mut rng);
        a.map_inplace(|v| if v < 0.0 { 0.0 } else { v });
        let b = Matrix::random_uniform(6, 5, 1.0, &mut rng);
        let mut out = Matrix::default();
        a.matmul_transpose_a_into(&b, &mut out);
        assert_eq!(out, a.transpose().matmul(&b));

        let c = Matrix::random_uniform(3, 4, 1.0, &mut rng);
        let d = Matrix::random_uniform(7, 4, 1.0, &mut rng);
        c.matmul_transpose_b_into(&d, &mut out);
        assert_eq!(out, c.matmul(&d.transpose()));
    }

    #[test]
    fn accumulate_forms_continue_from_the_existing_values() {
        // Shared dimension past one block and not a multiple of four: panel seam + remainder.
        let k = MATMUL_BLOCK + 7;
        let mut rng = seeded_rng(24);
        let a = Matrix::random_uniform(5, k, 1.0, &mut rng);
        let b = Matrix::random_uniform(k, 6, 1.0, &mut rng);
        let start = Matrix::random_uniform(5, 6, 1.0, &mut rng);
        let mut out = start.clone();
        a.matmul_acc_into(&b, &mut out);
        let at = a.transpose();
        let mut out_ta = start.clone();
        at.matmul_transpose_a_acc_into(&b, &mut out_ta);
        for i in 0..5 {
            for j in 0..6 {
                let mut acc = start.get(i, j);
                for kk in 0..k {
                    acc += a.get(i, kk) * b.get(kk, j);
                }
                assert_eq!(out.get(i, j).to_bits(), acc.to_bits());
                assert_eq!(out_ta.get(i, j).to_bits(), acc.to_bits());
            }
        }
    }

    #[test]
    #[should_panic(expected = "accumulator shape mismatch")]
    fn accumulate_form_rejects_a_misshapen_accumulator() {
        let mut out = Matrix::zeros(2, 3);
        Matrix::zeros(2, 3).matmul_acc_into(&Matrix::zeros(3, 2), &mut out);
    }

    #[test]
    #[should_panic(expected = "matmul_transpose_a dimension mismatch")]
    fn transpose_a_kernel_rejects_bad_shapes() {
        let mut out = Matrix::default();
        Matrix::zeros(2, 3).matmul_transpose_a_into(&Matrix::zeros(3, 2), &mut out);
    }

    #[test]
    #[should_panic(expected = "matmul_transpose_b dimension mismatch")]
    fn transpose_b_kernel_rejects_bad_shapes() {
        let mut out = Matrix::default();
        Matrix::zeros(2, 3).matmul_transpose_b_into(&Matrix::zeros(3, 2), &mut out);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn elementwise_operations() {
        let a = Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(1, 3, vec![4.0, 5.0, 6.0]);
        let mut c = a.clone();
        c.scale_in_place(2.0);
        assert_eq!(c.data(), &[2.0, 4.0, 6.0]);
        let mut d = a.clone();
        d.add_scaled_in_place(&b, 0.5);
        assert_eq!(d.data(), &[3.0, 4.5, 6.0]);
        let mut e = a.clone();
        e.map_inplace(|x| x + 1.0);
        assert_eq!(e.data(), &[2.0, 3.0, 4.0]);
    }

    #[test]
    fn broadcast_and_reductions() {
        let mut rng = seeded_rng(5);
        let x = Matrix::random_uniform(3, 4, 1.0, &mut rng);
        let bias = Matrix::random_uniform(1, 4, 1.0, &mut rng);
        let mut y = x.clone();
        y.add_row_inplace(&bias);
        // A stale, wrongly-shaped output buffer is reshaped and overwritten.
        let mut sums = Matrix::from_vec(2, 1, vec![9.0, 9.0]);
        x.sum_rows_into(&mut sums);
        assert_eq!((sums.rows(), sums.cols()), (1, 4));
        for j in 0..4 {
            let mut col_sum = 0.0;
            for i in 0..3 {
                assert_eq!(y.get(i, j), x.get(i, j) + bias.get(0, j));
                col_sum += x.get(i, j);
            }
            assert_eq!(sums.get(0, j), col_sum);
        }
    }

    #[test]
    fn select_rows_builds_minibatches() {
        let x = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // The gather reuses a caller buffer, whatever its previous shape.
        let mut buf = Matrix::zeros(5, 5);
        x.batch_gather_into(&[2, 0], &mut buf);
        assert_eq!(buf.rows(), 2);
        assert_eq!(buf.row(0), &[5.0, 6.0]);
        assert_eq!(buf.row(1), &[1.0, 2.0]);
        x.batch_gather_into(&[1, 1, 0], &mut buf);
        assert_eq!(buf.rows(), 3);
        assert_eq!(buf.row(0), &[3.0, 4.0]);
        assert_eq!(buf.row(2), &[1.0, 2.0]);
    }

    #[test]
    fn resize_and_copy_reuse_capacity() {
        let mut m = Matrix::zeros(4, 4);
        alloc_count::reset();
        m.resize(2, 3);
        m.fill(7.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.data(), &[7.0; 6]);
        m.resize(4, 4); // back within the original capacity
        let src = Matrix::from_vec(1, 2, vec![1.0, 2.0]);
        m.copy_from(&src);
        assert_eq!(m.data(), &[1.0, 2.0]);
        // None of the reshapes above exceeded the original 16-element capacity, and
        // `from_vec` of `src` is the only fresh buffer.
        assert_eq!(alloc_count::count(), 1);
        // Growing past capacity is counted.
        m.resize(10, 10);
        assert_eq!(alloc_count::count(), 2);
    }

    #[test]
    fn alloc_counter_sees_steady_state_kernels() {
        let mut rng = seeded_rng(23);
        let a = Matrix::random_uniform(8, 8, 1.0, &mut rng);
        let b = Matrix::random_uniform(8, 8, 1.0, &mut rng);
        let mut out = Matrix::default();
        // Warm up every kernel (including the transpose-b re-pack scratch).
        a.matmul_into(&b, &mut out);
        a.matmul_transpose_a_into(&b, &mut out);
        a.matmul_transpose_b_into(&b, &mut out);
        alloc_count::reset();
        for _ in 0..10 {
            a.matmul_into(&b, &mut out);
            a.matmul_transpose_a_into(&b, &mut out);
            a.matmul_transpose_b_into(&b, &mut out);
        }
        assert_eq!(
            alloc_count::count(),
            0,
            "warmed-up kernels must not allocate"
        );
    }

    #[test]
    fn random_initialisers_are_bounded_and_seeded() {
        let mut rng = seeded_rng(1);
        let m = Matrix::random_uniform(4, 4, 0.5, &mut rng);
        assert!(m.data().iter().all(|v| v.abs() <= 0.5));
        let he = Matrix::he_init(4, 4, 16, &mut seeded_rng(2));
        let bound = (6.0_f64 / 16.0).sqrt();
        assert!(he.data().iter().all(|v| v.abs() <= bound + 1e-12));
        // Same seed, same matrix.
        let a = Matrix::random_uniform(3, 3, 1.0, &mut seeded_rng(9));
        let b = Matrix::random_uniform(3, 3, 1.0, &mut seeded_rng(9));
        assert_eq!(a, b);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::zeros(2, 2);
        assert!(m.to_string().contains("Matrix 2x2"));
    }
}
