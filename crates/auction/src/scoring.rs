//! Scoring functions `s(q)` and the quasi-linear scoring rule `S(q, p) = s(q) − p`.
//!
//! Section III-A of the paper lists three classic utility/scoring families the aggregator may
//! broadcast:
//!
//! * **perfect substitution** (additive): `s(q) = α1 q1 + … + αm qm`,
//! * **perfect complementary**: `s(q) = min{α1 q1, …, αm qm}`,
//! * **general Cobb–Douglas**: `s(q) = q1^α1 · … · qm^αm` (optionally scaled).
//!
//! The simulator of Section V uses the scaled product `s(q1, q2) = 25·q1·q2` (Cobb–Douglas
//! with unit exponents) and the cluster deployment uses the additive form with weights
//! `(0.4, 0.3, 0.3)`. The walk-through example additionally normalises each resource by
//! min–max before scoring, which [`NormalizedScoring`] models.

use crate::error::AuctionError;
use crate::types::Quality;
use fmore_numerics::normalize::MinMaxNormalizer;
use std::sync::Arc;

/// A scoring (equivalently, aggregator utility) function `s(q1, …, qm)`.
///
/// Implementations must be non-decreasing in every resource dimension, matching the paper's
/// assumption `U'(·) ≥ 0`.
pub trait ScoringFunction: Send + Sync {
    /// Number of resource dimensions `m` the function expects.
    fn dims(&self) -> usize;

    /// Evaluates `s(q)`.
    ///
    /// Implementations may assume `q.len() == self.dims()`; [`ScoringFunction::evaluate`]
    /// performs the dimension check.
    fn value(&self, q: &[f64]) -> f64;

    /// Human-readable name used in experiment reports.
    fn name(&self) -> &'static str {
        "scoring"
    }

    /// Evaluates `s(q)` after validating dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::DimensionMismatch`] if `q` has the wrong number of dimensions.
    fn evaluate(&self, q: &[f64]) -> Result<f64, AuctionError> {
        if q.len() != self.dims() {
            return Err(AuctionError::DimensionMismatch {
                expected: self.dims(),
                actual: q.len(),
            });
        }
        Ok(self.value(q))
    }

    /// Scores a columnar batch of bids in one sweep: `qualities` holds one row of
    /// `self.dims()` components per bid (row-major, as stored by
    /// [`crate::store::BidStore`]), `asks[i]` is bid `i`'s payment ask, and `scores[i]`
    /// receives the quasi-linear score `s(q_i) − ask_i`.
    ///
    /// The default implementation evaluates [`ScoringFunction::value`] per row. The four
    /// concrete scoring families override it with monomorphized kernels that sweep the
    /// struct-of-arrays block directly — one virtual call per *shard* instead of one per
    /// *bid*, and no per-bid slice bounds checks. Every override is **bit-identical** to
    /// the per-bid path (same operations in the same association order); the property
    /// suite pins this for all four schemes.
    ///
    /// Callers guarantee `qualities.len() == asks.len() * self.dims()` and
    /// `scores.len() == asks.len()`; [`crate::store::BidStore::score_with`] validates
    /// dimensions before dispatching here.
    fn score_batch(&self, qualities: &[f64], asks: &[f64], scores: &mut [f64]) {
        let dims = self.dims().max(1);
        for ((q, ask), out) in qualities
            .chunks_exact(dims)
            .zip(asks)
            .zip(scores.iter_mut())
        {
            *out = self.value(q) - ask;
        }
    }
}

fn validate_weights(weights: &[f64]) -> Result<(), AuctionError> {
    if weights.is_empty() {
        return Err(AuctionError::InvalidParameter(
            "weights must not be empty".into(),
        ));
    }
    if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
        return Err(AuctionError::InvalidParameter(
            "weights must be finite and non-negative".into(),
        ));
    }
    if weights.iter().all(|w| *w == 0.0) {
        return Err(AuctionError::InvalidParameter(
            "at least one weight must be positive".into(),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------------------
// Monomorphized batch kernels for the two hot scoring families.
//
// Each kernel follows the workspace SIMD discipline (`fmore_numerics::simd`): an
// `#[inline(always)]` scalar core that sweeps the columnar block four rows at a time,
// an `#[target_feature(enable = "avx")]` wrapper compiling the *same* core with AVX code
// generation, and a `*_batch` dispatcher switching on the runtime gate. The four rows of
// an unrolled step are **independent** bids — AVX only widens them into vector lanes, it
// never reassociates the per-row fold — so both paths produce identical bits (pinned by
// the property suite and re-checked by CI's scalar-only job).

/// Additive kernel core: per row the left-associated `0.0 + Σ wᵢ qᵢ` fold of
/// [`Additive`]'s `value`, minus the ask.
#[inline(always)]
fn additive_core<const D: usize>(
    weights: &[f64; D],
    qualities: &[f64],
    asks: &[f64],
    scores: &mut [f64],
) {
    let q4 = qualities.chunks_exact(4 * D);
    let a4 = asks.chunks_exact(4);
    let q_rem = q4.remainder();
    let a_rem = a4.remainder();
    let (s4, s_rem) = scores.split_at_mut(asks.len() - a_rem.len());
    for ((q, a), s) in q4.zip(a4).zip(s4.chunks_exact_mut(4)) {
        for r in 0..4 {
            let mut acc = 0.0;
            for (d, w) in weights.iter().enumerate() {
                acc += w * q[r * D + d];
            }
            s[r] = acc - a[r];
        }
    }
    for ((q, a), s) in q_rem.chunks_exact(D).zip(a_rem).zip(s_rem.iter_mut()) {
        let mut acc = 0.0;
        for (w, x) in weights.iter().zip(q) {
            acc += w * x;
        }
        *s = acc - a;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn additive_avx<const D: usize>(
    weights: &[f64; D],
    qualities: &[f64],
    asks: &[f64],
    scores: &mut [f64],
) {
    additive_core(weights, qualities, asks, scores);
}

fn additive_batch<const D: usize>(
    weights: &[f64; D],
    qualities: &[f64],
    asks: &[f64],
    scores: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if fmore_numerics::avx_enabled() {
        // SAFETY: the gate only answers true after the runtime AVX feature check.
        unsafe { additive_avx(weights, qualities, asks, scores) };
        return;
    }
    additive_core(weights, qualities, asks, scores);
}

/// Additive fallback for dimension counts without a monomorphized kernel.
fn additive_generic(weights: &[f64], qualities: &[f64], asks: &[f64], scores: &mut [f64]) {
    let dims = weights.len();
    for ((q, ask), out) in qualities
        .chunks_exact(dims)
        .zip(asks)
        .zip(scores.iter_mut())
    {
        let mut acc = 0.0;
        for (w, x) in weights.iter().zip(q) {
            acc += w * x;
        }
        *out = acc - ask;
    }
}

/// Unit-exponent Cobb–Douglas kernel core: per row the clamped product fold
/// `1.0 · Π max(qᵢ, 0)` of [`CobbDouglas`]'s `value` (with `powf(x, 1.0) = x`), scaled,
/// minus the ask.
#[inline(always)]
fn cobb_unit_core<const D: usize>(scale: f64, qualities: &[f64], asks: &[f64], scores: &mut [f64]) {
    let q4 = qualities.chunks_exact(4 * D);
    let a4 = asks.chunks_exact(4);
    let q_rem = q4.remainder();
    let a_rem = a4.remainder();
    let (s4, s_rem) = scores.split_at_mut(asks.len() - a_rem.len());
    for ((q, a), s) in q4.zip(a4).zip(s4.chunks_exact_mut(4)) {
        for r in 0..4 {
            let mut product = 1.0;
            for d in 0..D {
                product *= q[r * D + d].max(0.0);
            }
            s[r] = scale * product - a[r];
        }
    }
    for ((q, a), s) in q_rem.chunks_exact(D).zip(a_rem).zip(s_rem.iter_mut()) {
        let mut product = 1.0;
        for x in q {
            product *= x.max(0.0);
        }
        *s = scale * product - a;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn cobb_unit_avx<const D: usize>(
    scale: f64,
    qualities: &[f64],
    asks: &[f64],
    scores: &mut [f64],
) {
    cobb_unit_core::<D>(scale, qualities, asks, scores);
}

fn cobb_unit_batch<const D: usize>(
    scale: f64,
    qualities: &[f64],
    asks: &[f64],
    scores: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    if fmore_numerics::avx_enabled() {
        // SAFETY: the gate only answers true after the runtime AVX feature check.
        unsafe { cobb_unit_avx::<D>(scale, qualities, asks, scores) };
        return;
    }
    cobb_unit_core::<D>(scale, qualities, asks, scores);
}

/// Unit-exponent Cobb–Douglas fallback for dimension counts without a monomorphized
/// kernel.
fn cobb_unit_generic(scale: f64, dims: usize, qualities: &[f64], asks: &[f64], scores: &mut [f64]) {
    for ((q, ask), out) in qualities
        .chunks_exact(dims)
        .zip(asks)
        .zip(scores.iter_mut())
    {
        let mut product = 1.0;
        for x in q {
            product *= x.max(0.0);
        }
        *out = scale * product - ask;
    }
}

/// Perfect-substitution (additive) scoring: `s(q) = Σ αi qi`.
///
/// The paper recommends this form for substitutable resources such as GPU and CPU; the
/// 32-node cluster experiment uses it with weights `(0.4, 0.3, 0.3)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Additive {
    weights: Vec<f64>,
}

impl Additive {
    /// Creates an additive scoring function with the given per-resource weights `αi`.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::InvalidParameter`] if `weights` is empty, contains a negative
    /// or non-finite value, or is identically zero.
    pub fn new(weights: Vec<f64>) -> Result<Self, AuctionError> {
        validate_weights(&weights)?;
        Ok(Self { weights })
    }

    /// The scalar cores behind [`ScoringFunction::score_batch`], bypassing the runtime AVX
    /// dispatch — the parity oracle the property suite compares the dispatched path
    /// against bit-for-bit.
    #[doc(hidden)]
    pub fn score_batch_scalar(&self, qualities: &[f64], asks: &[f64], scores: &mut [f64]) {
        match *self.weights.as_slice() {
            [w0] => additive_core(&[w0], qualities, asks, scores),
            [w0, w1] => additive_core(&[w0, w1], qualities, asks, scores),
            [w0, w1, w2] => additive_core(&[w0, w1, w2], qualities, asks, scores),
            _ => additive_generic(&self.weights, qualities, asks, scores),
        }
    }
}

impl ScoringFunction for Additive {
    fn dims(&self) -> usize {
        self.weights.len()
    }
    fn value(&self, q: &[f64]) -> f64 {
        // Folded from `0.0` like the batch kernels, not with `Iterator::sum`, whose
        // `f64` identity is `-0.0`: the two differ in the sign of an all-`-0.0` sum.
        self.weights
            .iter()
            .zip(q)
            .fold(0.0, |acc, (w, x)| acc + w * x)
    }
    fn name(&self) -> &'static str {
        "additive"
    }
    fn score_batch(&self, qualities: &[f64], asks: &[f64], scores: &mut [f64]) {
        // Each kernel replicates `value`'s left-associated `0.0 + Σ wᵢ qᵢ` fold per row
        // exactly, so batch scores are bit-identical to the per-bid path — on both the
        // AVX and scalar sides of the dispatch.
        match *self.weights.as_slice() {
            [w0] => additive_batch(&[w0], qualities, asks, scores),
            [w0, w1] => additive_batch(&[w0, w1], qualities, asks, scores),
            [w0, w1, w2] => additive_batch(&[w0, w1, w2], qualities, asks, scores),
            _ => additive_generic(&self.weights, qualities, asks, scores),
        }
    }
}

/// Perfect-complementary scoring: `s(q) = min{αi qi}`.
///
/// The paper recommends this form when all resources are needed simultaneously, e.g.
/// bandwidth and computing power; the walk-through example of Fig. 3 uses it with weights
/// `(0.5, 0.5)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfectComplementary {
    weights: Vec<f64>,
}

impl PerfectComplementary {
    /// Creates a perfect-complementary scoring function with the given weights `αi`.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::InvalidParameter`] for empty, negative, non-finite, or
    /// all-zero weights.
    pub fn new(weights: Vec<f64>) -> Result<Self, AuctionError> {
        validate_weights(&weights)?;
        Ok(Self { weights })
    }
}

impl ScoringFunction for PerfectComplementary {
    fn dims(&self) -> usize {
        self.weights.len()
    }
    fn value(&self, q: &[f64]) -> f64 {
        self.weights
            .iter()
            .zip(q)
            .map(|(w, x)| w * x)
            .fold(f64::INFINITY, f64::min)
    }
    fn name(&self) -> &'static str {
        "perfect-complementary"
    }
    fn score_batch(&self, qualities: &[f64], asks: &[f64], scores: &mut [f64]) {
        // Replicates `value`'s `min`-fold from +∞ in the same order — bit-identical.
        match *self.weights.as_slice() {
            [w0, w1] => {
                for ((q, ask), out) in qualities.chunks_exact(2).zip(asks).zip(scores.iter_mut()) {
                    *out = f64::min(f64::min(f64::INFINITY, w0 * q[0]), w1 * q[1]) - ask;
                }
            }
            [w0, w1, w2] => {
                for ((q, ask), out) in qualities.chunks_exact(3).zip(asks).zip(scores.iter_mut()) {
                    let m = f64::min(f64::min(f64::INFINITY, w0 * q[0]), w1 * q[1]);
                    *out = f64::min(m, w2 * q[2]) - ask;
                }
            }
            _ => {
                let dims = self.weights.len();
                for ((q, ask), out) in qualities
                    .chunks_exact(dims)
                    .zip(asks)
                    .zip(scores.iter_mut())
                {
                    let mut m = f64::INFINITY;
                    for (w, x) in self.weights.iter().zip(q) {
                        m = f64::min(m, w * x);
                    }
                    *out = m - ask;
                }
            }
        }
    }
}

/// General (scaled) Cobb–Douglas scoring: `s(q) = scale · Π qi^αi`.
///
/// With unit exponents and `scale = 25` this is exactly the simulator's scoring function
/// `s(q1, q2) = 25·q1·q2` from Section V-A.
#[derive(Debug, Clone, PartialEq)]
pub struct CobbDouglas {
    scale: f64,
    exponents: Vec<f64>,
}

impl CobbDouglas {
    /// Creates a Cobb–Douglas scoring function `scale · Π qi^αi`.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::InvalidParameter`] if `scale` is not positive/finite or the
    /// exponent vector is invalid.
    pub fn with_scale(scale: f64, exponents: Vec<f64>) -> Result<Self, AuctionError> {
        if !scale.is_finite() || scale <= 0.0 {
            return Err(AuctionError::InvalidParameter(format!(
                "Cobb-Douglas scale must be positive, got {scale}"
            )));
        }
        validate_weights(&exponents)?;
        Ok(Self { scale, exponents })
    }

    /// The scalar cores behind [`ScoringFunction::score_batch`], bypassing the runtime AVX
    /// dispatch — the parity oracle the property suite compares the dispatched path
    /// against bit-for-bit.
    #[doc(hidden)]
    pub fn score_batch_scalar(&self, qualities: &[f64], asks: &[f64], scores: &mut [f64]) {
        let dims = self.exponents.len();
        if self.exponents.iter().all(|a| *a == 1.0) {
            match dims {
                2 => cobb_unit_core::<2>(self.scale, qualities, asks, scores),
                3 => cobb_unit_core::<3>(self.scale, qualities, asks, scores),
                _ => cobb_unit_generic(self.scale, dims, qualities, asks, scores),
            }
            return;
        }
        self.powf_batch(qualities, asks, scores);
    }

    /// The general `powf` sweep shared by the dispatched and scalar batch paths.
    fn powf_batch(&self, qualities: &[f64], asks: &[f64], scores: &mut [f64]) {
        let dims = self.exponents.len();
        for ((q, ask), out) in qualities
            .chunks_exact(dims)
            .zip(asks)
            .zip(scores.iter_mut())
        {
            let mut product = 1.0;
            for (a, x) in self.exponents.iter().zip(q) {
                product *= x.max(0.0).powf(*a);
            }
            *out = self.scale * product - ask;
        }
    }
}

impl ScoringFunction for CobbDouglas {
    fn dims(&self) -> usize {
        self.exponents.len()
    }
    fn value(&self, q: &[f64]) -> f64 {
        let product: f64 = self
            .exponents
            .iter()
            .zip(q)
            .map(|(a, x)| x.max(0.0).powf(*a))
            .product();
        self.scale * product
    }
    fn name(&self) -> &'static str {
        "cobb-douglas"
    }
    fn score_batch(&self, qualities: &[f64], asks: &[f64], scores: &mut [f64]) {
        let dims = self.exponents.len();
        // The simulator's `25·q1·q2` form has unit exponents: `powf(x, 1.0)` is exactly
        // `x` under IEEE 754 (pinned by the bit-parity property test), so the hot path is
        // a clamped product with no `pow` at all — and with a monomorphized 4-row kernel
        // behind the runtime AVX dispatch at the common dimension counts.
        if self.exponents.iter().all(|a| *a == 1.0) {
            match dims {
                2 => cobb_unit_batch::<2>(self.scale, qualities, asks, scores),
                3 => cobb_unit_batch::<3>(self.scale, qualities, asks, scores),
                _ => cobb_unit_generic(self.scale, dims, qualities, asks, scores),
            }
            return;
        }
        self.powf_batch(qualities, asks, scores);
    }
}

/// Wraps an inner scoring function with per-dimension min–max normalisation, as in the
/// walk-through example of Section III-B where data size and bandwidth live on very
/// different scales.
#[derive(Debug, Clone)]
pub struct NormalizedScoring<S> {
    inner: S,
    normalizers: Vec<MinMaxNormalizer>,
}

impl<S: ScoringFunction> NormalizedScoring<S> {
    /// Creates a normalised scoring function.
    ///
    /// `ranges[i]` gives the `(min, max)` range used to normalise resource `i` before it is
    /// passed to the inner function.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::DimensionMismatch`] if the number of ranges does not match
    /// the inner function's dimensions.
    pub fn new(inner: S, ranges: Vec<(f64, f64)>) -> Result<Self, AuctionError> {
        if ranges.len() != inner.dims() {
            return Err(AuctionError::DimensionMismatch {
                expected: inner.dims(),
                actual: ranges.len(),
            });
        }
        let normalizers = ranges
            .iter()
            .map(|&(lo, hi)| MinMaxNormalizer::new(lo, hi))
            .collect();
        Ok(Self { inner, normalizers })
    }
}

impl<S: ScoringFunction> ScoringFunction for NormalizedScoring<S> {
    fn dims(&self) -> usize {
        self.inner.dims()
    }
    fn value(&self, q: &[f64]) -> f64 {
        let normalized: Vec<f64> = q
            .iter()
            .zip(&self.normalizers)
            .map(|(x, n)| n.normalize(*x))
            .collect();
        self.inner.value(&normalized)
    }
    fn name(&self) -> &'static str {
        "normalized"
    }
    fn score_batch(&self, qualities: &[f64], asks: &[f64], scores: &mut [f64]) {
        // Normalise a block of rows at a time, then hand the block to the inner kernel:
        // the per-bid `Vec` of `value` becomes one block buffer per call, and the inner
        // sweep stays monomorphized (`S` is a concrete type here).
        let dims = self.inner.dims().max(1);
        const BLOCK_ROWS: usize = 128;
        let mut block = vec![0.0; BLOCK_ROWS.min(asks.len().max(1)) * dims];
        let mut row = 0usize;
        while row < asks.len() {
            let rows = BLOCK_ROWS.min(asks.len() - row);
            let src = &qualities[row * dims..(row + rows) * dims];
            let dst = &mut block[..rows * dims];
            for (src_row, dst_row) in src.chunks_exact(dims).zip(dst.chunks_exact_mut(dims)) {
                for ((x, n), slot) in src_row.iter().zip(&self.normalizers).zip(dst_row) {
                    *slot = n.normalize(*x);
                }
            }
            self.inner
                .score_batch(dst, &asks[row..row + rows], &mut scores[row..row + rows]);
            row += rows;
        }
    }
}

// Allow shared scoring functions (Arc) and references to be used wherever a ScoringFunction
// is expected.
impl<S: ScoringFunction + ?Sized> ScoringFunction for Arc<S> {
    fn dims(&self) -> usize {
        (**self).dims()
    }
    fn value(&self, q: &[f64]) -> f64 {
        (**self).value(q)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn score_batch(&self, qualities: &[f64], asks: &[f64], scores: &mut [f64]) {
        (**self).score_batch(qualities, asks, scores);
    }
}

impl<S: ScoringFunction + ?Sized> ScoringFunction for &S {
    fn dims(&self) -> usize {
        (**self).dims()
    }
    fn value(&self, q: &[f64]) -> f64 {
        (**self).value(q)
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn score_batch(&self, qualities: &[f64], asks: &[f64], scores: &mut [f64]) {
        (**self).score_batch(qualities, asks, scores);
    }
}

/// A scoring function that counts its [`ScoringFunction::value`] calls.
///
/// An [`EquilibriumSolver`](crate::EquilibriumSolver) evaluates its objective
/// `s(q) − c(q, θ)` through `value`, so sharing one of these (behind an [`Arc`]) with a solver
/// shows how much solving a code path does — the tests use it to pin that bidding from an
/// adopted [`EquilibriumStrategy`](crate::EquilibriumStrategy) does none.
#[derive(Debug)]
pub struct CountingScoring<S> {
    inner: S,
    evaluations: std::sync::atomic::AtomicUsize,
}

impl<S: ScoringFunction> CountingScoring<S> {
    /// Wraps `inner`, starting the count at zero.
    pub fn new(inner: S) -> Self {
        Self {
            inner,
            evaluations: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// `value` calls so far.
    pub fn evaluations(&self) -> usize {
        self.evaluations.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl<S: ScoringFunction> ScoringFunction for CountingScoring<S> {
    fn dims(&self) -> usize {
        self.inner.dims()
    }
    fn value(&self, q: &[f64]) -> f64 {
        // A statistic only: it publishes no other data.
        self.evaluations
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.value(q)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The quasi-linear scoring rule `S(q, p) = s(q) − p` broadcast by the aggregator in the
/// bid-ask step (Eq. 4 of the paper).
#[derive(Clone)]
pub struct ScoringRule {
    pub(crate) s: Arc<dyn ScoringFunction>,
}

impl std::fmt::Debug for ScoringRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScoringRule")
            .field("s", &self.s.name())
            .field("dims", &self.s.dims())
            .finish()
    }
}

impl ScoringRule {
    /// Wraps a scoring function into the quasi-linear rule `S(q, p) = s(q) − p`.
    pub fn new<S: ScoringFunction + 'static>(s: S) -> Self {
        Self { s: Arc::new(s) }
    }

    /// Number of resource dimensions the rule expects.
    pub fn dims(&self) -> usize {
        self.s.dims()
    }

    /// Evaluates the resource part `s(q)` alone.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::DimensionMismatch`] if `q` has the wrong dimensions.
    pub(crate) fn resource_value(&self, q: &Quality) -> Result<f64, AuctionError> {
        self.s.evaluate(q.as_slice())
    }

    /// Evaluates the full score `S(q, p) = s(q) − p`.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::DimensionMismatch`] if `q` has the wrong dimensions.
    pub fn score(&self, q: &Quality, payment_ask: f64) -> Result<f64, AuctionError> {
        Ok(self.resource_value(q)? - payment_ask)
    }

    /// Scores a columnar batch under the quasi-linear rule in one sweep: one virtual call
    /// for the whole block, dispatching to the scoring family's monomorphized
    /// [`ScoringFunction::score_batch`] kernel. Bit-identical to calling
    /// [`ScoringRule::score`] per bid.
    ///
    /// # Errors
    ///
    /// Returns [`AuctionError::DimensionMismatch`] when the column lengths disagree with
    /// the rule's dimensions (`qualities.len() == asks.len() * dims`,
    /// `scores.len() == asks.len()`).
    pub fn score_batch(
        &self,
        qualities: &[f64],
        asks: &[f64],
        scores: &mut [f64],
    ) -> Result<(), AuctionError> {
        if qualities.len() != asks.len() * self.dims() || scores.len() != asks.len() {
            return Err(AuctionError::DimensionMismatch {
                expected: asks.len() * self.dims(),
                actual: qualities.len(),
            });
        }
        self.s.score_batch(qualities, asks, scores);
        Ok(())
    }

    /// Access the underlying scoring function as a trait object.
    pub(crate) fn function(&self) -> &dyn ScoringFunction {
        self.s.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additive_scores_linearly() {
        let s = Additive::new(vec![0.4, 0.3, 0.3]).unwrap();
        assert_eq!(s.dims(), 3);
        assert_eq!(s.name(), "additive");
        assert!((s.value(&[1.0, 2.0, 3.0]) - (0.4 + 0.6 + 0.9)).abs() < 1e-12);
        assert_eq!(s.weights, [0.4, 0.3, 0.3]);
    }

    /// `Iterator::sum` starts an `f64` fold at `-0.0`, the batch kernels at `0.0`: only an
    /// all-`-0.0` quality (which `BidStore::push` accepts) tells them apart, by the sign
    /// of the zero. Per-bid and batch scores must agree there too, on both dispatch tiers.
    #[test]
    fn additive_value_matches_the_batch_kernels_on_negative_zero_qualities() {
        let asks = [0.0, -0.0, 0.25];
        for dims in 1..=4 {
            let s = Additive::new(vec![0.4, 0.3, 0.2, 0.1][..dims].to_vec()).unwrap();
            let q = vec![-0.0; dims];
            let qualities = q.repeat(asks.len());
            let mut dispatched = [f64::NAN; 3];
            let mut scalar = [f64::NAN; 3];
            s.score_batch(&qualities, &asks, &mut dispatched);
            s.score_batch_scalar(&qualities, &asks, &mut scalar);
            for (i, ask) in asks.iter().enumerate() {
                let per_bid = (s.value(&q) - ask).to_bits();
                assert_eq!(per_bid, dispatched[i].to_bits(), "dims {dims}, ask {ask}");
                assert_eq!(per_bid, scalar[i].to_bits(), "dims {dims}, ask {ask}");
            }
        }
    }

    #[test]
    fn invalid_weights_rejected_everywhere() {
        assert!(Additive::new(vec![]).is_err());
        assert!(Additive::new(vec![-1.0, 2.0]).is_err());
        assert!(Additive::new(vec![0.0, 0.0]).is_err());
        assert!(PerfectComplementary::new(vec![f64::NAN]).is_err());
        assert!(CobbDouglas::with_scale(1.0, vec![]).is_err());
        assert!(CobbDouglas::with_scale(0.0, vec![1.0]).is_err());
        assert!(CobbDouglas::with_scale(-3.0, vec![1.0]).is_err());
    }

    #[test]
    fn perfect_complementary_takes_minimum() {
        let s = PerfectComplementary::new(vec![0.5, 0.5]).unwrap();
        assert!((s.value(&[0.75, 0.842]) - 0.375).abs() < 1e-12);
        assert_eq!(s.name(), "perfect-complementary");
        assert_eq!(s.weights, [0.5, 0.5]);
    }

    #[test]
    fn cobb_douglas_matches_simulator_form() {
        // s(q1, q2) = 25 q1 q2, the simulator scoring rule.
        let s = CobbDouglas::with_scale(25.0, vec![1.0, 1.0]).unwrap();
        assert!((s.value(&[0.4, 0.8]) - 8.0).abs() < 1e-12);
        assert_eq!(s.scale, 25.0);
        assert_eq!(s.exponents, [1.0, 1.0]);
        // Negative inputs are clamped to zero rather than producing NaN.
        assert_eq!(s.value(&[-1.0, 0.5]), 0.0);
    }

    #[test]
    fn cobb_douglas_exponents_shape_returns() {
        let s = CobbDouglas::with_scale(1.0, vec![0.5, 0.5]).unwrap();
        assert!((s.value(&[4.0, 9.0]) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn scoring_functions_are_monotone_in_quality() {
        let functions: Vec<Box<dyn ScoringFunction>> = vec![
            Box::new(Additive::new(vec![0.3, 0.7]).unwrap()),
            Box::new(PerfectComplementary::new(vec![0.5, 0.5]).unwrap()),
            Box::new(CobbDouglas::with_scale(25.0, vec![1.0, 1.0]).unwrap()),
        ];
        for f in &functions {
            let base = f.value(&[0.4, 0.6]);
            assert!(
                f.value(&[0.5, 0.6]) >= base,
                "{} not monotone in q1",
                f.name()
            );
            assert!(
                f.value(&[0.4, 0.7]) >= base,
                "{} not monotone in q2",
                f.name()
            );
        }
    }

    #[test]
    fn evaluate_validates_dimensions() {
        let s = Additive::new(vec![1.0, 1.0]).unwrap();
        assert!(s.evaluate(&[1.0, 2.0]).is_ok());
        assert_eq!(
            s.evaluate(&[1.0]).unwrap_err(),
            AuctionError::DimensionMismatch {
                expected: 2,
                actual: 1
            }
        );
    }

    #[test]
    fn normalized_scoring_reproduces_walkthrough_score() {
        // Node A in round 1: (4000, 85 Mb, p = 0.20) with ranges [1000, 5000] and [5, 100].
        let inner = PerfectComplementary::new(vec![0.5, 0.5]).unwrap();
        let s = NormalizedScoring::new(inner, vec![(1000.0, 5000.0), (5.0, 100.0)]).unwrap();
        let rule = ScoringRule::new(s);
        let score = rule.score(&Quality::new(vec![4000.0, 85.0]), 0.20).unwrap();
        assert!(
            (score - 0.175).abs() < 1e-3,
            "expected the paper's 0.175, got {score}"
        );
    }

    #[test]
    fn normalized_scoring_checks_range_count() {
        let inner = Additive::new(vec![1.0, 1.0]).unwrap();
        assert!(NormalizedScoring::new(inner, vec![(0.0, 1.0)]).is_err());
    }

    #[test]
    fn scoring_rule_is_quasi_linear_in_payment() {
        let rule = ScoringRule::new(Additive::new(vec![1.0]).unwrap());
        let q = Quality::new(vec![2.0]);
        let s0 = rule.score(&q, 0.0).unwrap();
        let s1 = rule.score(&q, 0.7).unwrap();
        assert!((s0 - s1 - 0.7).abs() < 1e-12);
        assert_eq!(rule.dims(), 1);
        assert!(format!("{rule:?}").contains("additive"));
    }

    #[test]
    fn arc_and_ref_forwarding() {
        let arc: Arc<dyn ScoringFunction> = Arc::new(Additive::new(vec![2.0]).unwrap());
        assert_eq!(arc.dims(), 1);
        assert_eq!(arc.value(&[3.0]), 6.0);
        let inner = Additive::new(vec![2.0]).unwrap();
        let r: &dyn ScoringFunction = &inner;
        assert_eq!((&r).value(&[3.0]), 6.0);
    }
}
