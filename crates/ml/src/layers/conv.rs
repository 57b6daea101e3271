//! 2-D convolution and max-pooling layers.
//!
//! Inputs are mini-batches of flattened image volumes: each row of the input matrix holds a
//! `channels × height × width` volume in channel-major order, as described by [`ImageShape`].
//!
//! # How `Conv2d` computes, and in which order
//!
//! With `pos = oy · ow + ox` an output position, `widx = (c · k + ky) · k + kx` a weight of
//! one filter, and `fan_in` the weights per filter, a gather index built once per layer
//! holds, at `pos · fan_in + widx`, the input pixel that position reads through that weight.
//!
//! **The forward pass is direct and gather-fused**: no patch matrix is built. Per sample,
//! the kernel takes a block of output positions and keeps one accumulator row over the
//! filters for each, started at the bias row. For every `widx` in ascending order it reads
//! each position's input value `x` through the gather index and adds `x · Wᵀ[widx]` to that
//! position's row, a multiply and then an add, never fused; then it writes the rows into
//! the channel-major output. The vector lanes run across the filters of a row, which are
//! independent outputs. One `#[inline(always)]` core is compiled for the scalar baseline
//! and, behind the runtime gates of `fmore_numerics`, for AVX and AVX-512F; the paper's
//! filter counts (8, 16, 32) keep a whole row in registers, every other count runs one
//! filter at a time.
//!
//! **The backward pass is im2col + the [`Matrix`] matmul cores.** It gathers the patch
//! matrix `P` `(samples · positions, fan_in)` from the cached input through the same index
//! and accumulates `grad_w += Gᵀ · P` ([`Matrix::matmul_transpose_a_acc_into`]), `G` being
//! `∂L/∂output` transposed to the same position-major layout, and sweeps `G` row by row into
//! `grad_b`. It walks the batch a few samples at a time, in ascending order, so its scratch
//! matrices are a fixed size whatever the batch.
//!
//! The results are those of the plain nested loops (kept as the test reference), bit for
//! bit, because every sum keeps its order — each kernel adds an output's terms in ascending
//! shared-dimension order and only vectorises across independent outputs:
//!
//! * an output is `bias + Σ w · x` over ascending `widx`, i.e. ascending `(c, ky, kx)`,
//!   whatever the tier, the block of positions or the filter group it was computed in;
//! * a weight gradient takes its `g · x` terms in ascending `(b, oy, ox)`, on top of the
//!   running accumulator; a bias gradient takes its non-zero `g` in the same order;
//! * `∂L/∂input` is **not** a matmul. Each input pixel receives `g · w` from every filter
//!   and every patch that covers it, summed filter by filter; a `G · W` product would sum
//!   over the filters first, which reassociates. It stays a scatter over the gather index,
//!   `f`-outer, skipping `g == 0.0` (most of them, behind ReLU and pooling).
//!
//! One deliberate difference: the loops skipped `g == 0.0` terms of the weight gradient,
//! the product adds them as `±0.0`. That changes no finite sum, but an accumulator that
//! `apply_gradients` restarted at `-0.0` and that then receives only zeros reads `+0.0`
//! where the loops left `-0.0`. Either zero steps a weight by nothing, so no parameter bit
//! moves — the oracle test in this file counts these cases and checks the parameters.

use super::Layer;
use crate::matrix::Matrix;
use rand::rngs::StdRng;

/// The spatial interpretation of a flattened feature row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageShape {
    /// Number of channels.
    pub channels: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Image width in pixels.
    pub width: usize,
}

impl ImageShape {
    /// Creates an image shape.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        Self {
            channels,
            height,
            width,
        }
    }

    /// Length of the flattened feature vector.
    pub fn flat_len(&self) -> usize {
        self.channels * self.height * self.width
    }

    #[inline]
    fn index(&self, c: usize, y: usize, x: usize) -> usize {
        (c * self.height + y) * self.width + x
    }
}

/// Transposes every consecutive `rows × cols` block of `src` into the `cols × rows` block at
/// the same offset of `dst`: one sample's volume between channel-major `(filters,
/// positions)` and position-major `(positions, filters)`.
fn transpose_blocks(src: &[f64], dst: &mut [f64], rows: usize, cols: usize) {
    let blocks = src.chunks_exact(rows * cols);
    for (s, d) in blocks.zip(dst.chunks_exact_mut(rows * cols)) {
        for (r, s_row) in s.chunks_exact(cols).enumerate() {
            for (c, &v) in s_row.iter().enumerate() {
                d[c * rows + r] = v;
            }
        }
    }
}

/// Patch rows gathered per matmul call of the backward pass. The patch matrix is
/// `fan_in / positions`-fold larger than the input it is gathered from (4–5× for the paper's
/// layers), so it is built a block of samples at a time: the scratch stays cache-sized
/// whatever the batch.
const PATCH_ROWS: usize = 64;

/// Gathers the patches of input rows `samples` into `patches`, `(samples · positions,
/// fan_in)`; `index` holds one sample's `positions · fan_in` input offsets.
fn gather_patches(
    index: &[usize],
    fan_in: usize,
    input: &Matrix,
    samples: std::ops::Range<usize>,
    patches: &mut Matrix,
) {
    patches.resize(samples.len() * index.len() / fan_in, fan_in);
    let per_sample = patches.data_mut().chunks_exact_mut(index.len());
    for (b, patch) in samples.zip(per_sample) {
        let row = input.row(b);
        for (p, &idx) in patch.iter_mut().zip(index) {
            *p = row[idx];
        }
    }
}

// ---------------------------------------------------------------------------
// The direct forward kernel.
//
// One `#[inline(always)]` core, generic over `F`, the filters whose accumulator rows it
// keeps in registers, and over `P`, the output positions it keeps them for, and compiled
// once per instruction-set tier by the `target_feature` wrappers below. The paper's layers
// have 8, 16 or 32 filters and get an instance of that width; every other filter count runs
// the `F = 1` instance once per filter. Each tier takes as many positions as keep a
// 16-filter block in eight of its vector registers: one with the baseline's two-lane
// registers, two with AVX's four lanes, four with AVX-512's eight.
// ---------------------------------------------------------------------------

/// Output positions per block of the scalar tier.
const SCALAR_POSITIONS: usize = 1;
/// Output positions per block of the AVX tier.
#[cfg(target_arch = "x86_64")]
const AVX_POSITIONS: usize = 2;
/// Output positions per block of the AVX-512 tier.
#[cfg(target_arch = "x86_64")]
const AVX512_POSITIONS: usize = 4;

/// What the forward kernel reads besides the input: one layer's gather index, `Wᵀ`
/// `(fan_in, filters)` and bias row.
#[derive(Clone, Copy)]
struct ForwardOperands<'a> {
    gather: &'a [usize],
    weights_t: &'a [f64],
    bias: &'a [f64],
}

/// Filters `f0..f0 + F` of one sample's block of `P` output positions from `pos`: every
/// position's accumulator row starts at the bias, takes `x · Wᵀ[widx]` for ascending
/// `widx` with `x` read through the gather index, and is written into the channel-major
/// output row.
#[inline(always)]
fn forward_block<const P: usize, const F: usize>(
    ops: ForwardOperands<'_>,
    f0: usize,
    row: &[f64],
    pos: usize,
    out_row: &mut [f64],
) {
    let filters = ops.bias.len();
    let fan_in = ops.weights_t.len() / filters;
    let positions = ops.gather.len() / fan_in;
    let group = |v: &[f64]| -> [f64; F] { v[f0..f0 + F].try_into().expect("F filters") };
    let mut acc = [group(ops.bias); P];
    let index = &ops.gather[pos * fan_in..(pos + P) * fan_in];
    for (widx, w) in ops.weights_t.chunks_exact(filters).enumerate() {
        let w = group(w);
        // All `P` inputs first, so the row updates below are one branch-free block.
        let xs: [f64; P] = std::array::from_fn(|p| row[index[p * fan_in + widx]]);
        for p in 0..P {
            for f in 0..F {
                acc[p][f] += xs[p] * w[f];
            }
        }
    }
    for (p, acc_row) in acc.iter().enumerate() {
        for (f, &a) in acc_row.iter().enumerate() {
            out_row[(f0 + f) * positions + pos + p] = a;
        }
    }
}

/// The forward core: `out = conv(input)`, every sample into its row of `out`, the filters
/// in groups of `F` (which must divide their count), the positions `P` at a time and the
/// remainder one by one.
#[inline(always)]
fn forward_core<const P: usize, const F: usize>(
    ops: ForwardOperands<'_>,
    input: &Matrix,
    out: &mut [f64],
) {
    let filters = ops.bias.len();
    let fan_in = ops.weights_t.len() / filters;
    let positions = ops.gather.len() / fan_in;
    for (b, out_row) in out.chunks_exact_mut(filters * positions).enumerate() {
        let row = input.row(b);
        for f0 in (0..filters).step_by(F) {
            let mut pos = 0;
            while pos + P <= positions {
                forward_block::<P, F>(ops, f0, row, pos, out_row);
                pos += P;
            }
            while pos < positions {
                forward_block::<1, F>(ops, f0, row, pos, out_row);
                pos += 1;
            }
        }
    }
}

/// [`forward_core`] with the baseline's code generation.
fn forward_scalar<const F: usize>(ops: ForwardOperands<'_>, input: &Matrix, out: &mut [f64]) {
    forward_core::<SCALAR_POSITIONS, F>(ops, input, out);
}

/// [`forward_core`] compiled with AVX code generation: four-wide lanes across the
/// independent filters of a row, the same operations in the same order.
///
/// # Safety
///
/// The CPU must support AVX.
// SAFETY: callable only where the CPU has AVX: `forward_tiered` checks
// `fmore_numerics::avx_enabled`, the parity test `is_x86_feature_detected!("avx")`. Pinned to
// the scalar instance and the reference loops by
// `forward_tiers_match_the_reference_loops_bit_for_bit`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn forward_avx<const F: usize>(ops: ForwardOperands<'_>, input: &Matrix, out: &mut [f64]) {
    forward_core::<AVX_POSITIONS, F>(ops, input, out);
}

/// [`forward_core`] compiled with AVX-512F code generation: 8-wide lanes across the
/// independent filters of a row, the same operations in the same order.
///
/// # Safety
///
/// The CPU must support AVX-512F.
// SAFETY: callable only where the CPU has AVX-512F: `forward_tiered` checks
// `fmore_numerics::avx512_enabled` (F, DQ and VL), the parity test
// `is_x86_feature_detected!("avx512f")`. Pinned to the scalar instance and the reference loops
// by `forward_tiers_match_the_reference_loops_bit_for_bit`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn forward_avx512<const F: usize>(
    ops: ForwardOperands<'_>,
    input: &Matrix,
    out: &mut [f64],
) {
    forward_core::<AVX512_POSITIONS, F>(ops, input, out);
}

/// Runs the widest tier the runtime gates allow, `F` filters at a time.
fn forward_tiered<const F: usize>(ops: ForwardOperands<'_>, input: &Matrix, out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if fmore_numerics::avx512_enabled() {
        // SAFETY: `avx512_enabled` answers true only after `is_x86_feature_detected!` found
        // AVX-512F (with DQ and VL); the tier is pinned bit for bit to the scalar instance
        // and the reference loops by `forward_tiers_match_the_reference_loops_bit_for_bit`.
        unsafe { forward_avx512::<F>(ops, input, out) };
        return;
    } else if fmore_numerics::avx_enabled() {
        // SAFETY: `avx_enabled` answers true only after `is_x86_feature_detected!("avx")`;
        // the tier is pinned by `forward_tiers_match_the_reference_loops_bit_for_bit`.
        unsafe { forward_avx::<F>(ops, input, out) };
        return;
    }
    forward_scalar::<F>(ops, input, out);
}

/// A 2-D convolution with `filters` output channels, square `kernel`, stride 1 and valid
/// padding (the module docs give the operation-order contract).
#[derive(Debug)]
pub struct Conv2d {
    input_shape: ImageShape,
    filters: usize,
    kernel: usize,
    /// `(filters, channels·kernel·kernel)`.
    weights: Matrix,
    /// `(1, filters)`.
    bias: Matrix,
    grad_w: Matrix,
    grad_b: Matrix,
    cached_input: Option<Matrix>,
    /// `Wᵀ`, `(fan_in, filters)`: row `widx` holds weight `widx` of every filter, the
    /// operand the forward kernel adds to its accumulator rows. Derived from `weights`,
    /// refreshed wherever they change.
    weights_t: Matrix,
    /// The gather index: entry `pos · fan_in + widx` is the offset inside one input row of
    /// the pixel that output position `pos = oy · ow + ox` reads through weight
    /// `widx = (c · k + ky) · k + kx`.
    gather: Vec<usize>,
    /// Backward scratch: the patch matrix `P`, `(samples · positions, fan_in)`, of one block.
    patches: Matrix,
    /// Backward scratch: one block's `∂L/∂output`, transposed to position-major
    /// `(samples · positions, filters)`.
    staging: Matrix,
}

impl Conv2d {
    /// Creates a convolution layer.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is larger than the input, or `filters` or the input's channel
    /// count is zero.
    pub fn new(input_shape: ImageShape, filters: usize, kernel: usize, rng: &mut StdRng) -> Self {
        assert!(filters > 0, "Conv2d needs at least one filter");
        assert!(
            input_shape.channels > 0,
            "Conv2d needs at least one channel"
        );
        assert!(
            kernel >= 1 && kernel <= input_shape.height && kernel <= input_shape.width,
            "kernel {kernel} does not fit into {input_shape:?}"
        );
        let fan_in = input_shape.channels * kernel * kernel;
        let weights = Matrix::he_init(filters, fan_in, fan_in, rng);
        let (oh, ow) = (
            input_shape.height - kernel + 1,
            input_shape.width - kernel + 1,
        );
        let mut gather = Vec::with_capacity(oh * ow * fan_in);
        for oy in 0..oh {
            for ox in 0..ow {
                for c in 0..input_shape.channels {
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            gather.push(input_shape.index(c, oy + ky, ox + kx));
                        }
                    }
                }
            }
        }
        Self {
            input_shape,
            filters,
            kernel,
            weights_t: weights.transpose(),
            weights,
            bias: Matrix::zeros(1, filters),
            grad_w: Matrix::zeros(filters, fan_in),
            grad_b: Matrix::zeros(1, filters),
            cached_input: None,
            gather,
            patches: Matrix::default(),
            staging: Matrix::default(),
        }
    }

    /// Shape of the produced feature volume.
    pub fn output_shape(&self) -> ImageShape {
        ImageShape::new(
            self.filters,
            self.input_shape.height - self.kernel + 1,
            self.input_shape.width - self.kernel + 1,
        )
    }

    /// Output positions per filter, `oh · ow`.
    fn positions(&self) -> usize {
        let out = self.output_shape();
        out.height * out.width
    }

    /// The sample ranges the backward pass walks a batch in: [`PATCH_ROWS`] patch rows at a
    /// time, in ascending order, at least one sample each.
    fn blocks(&self, batch: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
        let samples = (PATCH_ROWS / self.positions()).max(1);
        (0..batch)
            .step_by(samples)
            .map(move |start| start..(start + samples).min(batch))
    }

    /// The parameter half of the backward pass, block by block: `grad_w += Gᵀ · P` and
    /// `grad_b += Σ rows of G`, where `G` is `∂L/∂output` transposed to position-major
    /// `(samples · positions, filters)`.
    fn param_grads(&mut self, grad_output: &Matrix) {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward called before forward on Conv2d layer");
        let (positions, filters, fan_in) = (self.positions(), self.filters, self.weights.cols());
        let volume = filters * positions;
        assert_eq!(
            (grad_output.rows(), grad_output.cols()),
            (input.rows(), volume),
            "Conv2d output-gradient shape mismatch"
        );
        for block in self.blocks(input.rows()) {
            gather_patches(
                &self.gather,
                fan_in,
                input,
                block.clone(),
                &mut self.patches,
            );
            self.staging.resize(block.len() * positions, filters);
            transpose_blocks(
                &grad_output.data()[block.start * volume..block.end * volume],
                self.staging.data_mut(),
                filters,
                positions,
            );
            self.staging
                .matmul_transpose_a_acc_into(&self.patches, &mut self.grad_w);
            for g_row in self.staging.data().chunks_exact(filters) {
                for (acc, &g) in self.grad_b.data_mut().iter_mut().zip(g_row) {
                    // Skips zeros without a branch: `-0.0` is the one addend that leaves
                    // every accumulator, `-0.0` included, bit for bit as it was.
                    *acc += if g == 0.0 { -0.0 } else { g };
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward_into(
        &mut self,
        input: &Matrix,
        out: &mut Matrix,
        _training: bool,
        _rng: &mut StdRng,
    ) {
        assert_eq!(
            input.cols(),
            self.input_shape.flat_len(),
            "Conv2d input width mismatch"
        );
        let mut cache = self.cached_input.take().unwrap_or_default();
        cache.copy_from(input);
        self.cached_input = Some(cache);
        out.resize(input.rows(), self.filters * self.positions());
        let ops = ForwardOperands {
            gather: &self.gather,
            weights_t: self.weights_t.data(),
            bias: self.bias.data(),
        };
        let out = out.data_mut();
        match self.filters {
            8 => forward_tiered::<8>(ops, input, out),
            16 => forward_tiered::<16>(ops, input, out),
            32 => forward_tiered::<32>(ops, input, out),
            _ => forward_tiered::<1>(ops, input, out),
        }
    }

    fn backward_into(&mut self, grad_output: &Matrix, grad_input: &mut Matrix) {
        self.param_grads(grad_output);
        let (positions, fan_in) = (self.positions(), self.weights.cols());
        grad_input.resize(grad_output.rows(), self.input_shape.flat_len());
        grad_input.fill(0.0);
        // A scatter, not a `G · W` product: every input pixel sums its contributions
        // filter by filter, and summing over filters first would reassociate.
        for b in 0..grad_output.rows() {
            let go_row = grad_output.row(b);
            let gi_row = grad_input.row_mut(b);
            for (f, go_f) in go_row.chunks_exact(positions).enumerate() {
                let w_row = self.weights.row(f);
                for (pos, &g) in go_f.iter().enumerate() {
                    if g == 0.0 {
                        continue;
                    }
                    let idx = &self.gather[pos * fan_in..(pos + 1) * fan_in];
                    for (&i, &w) in idx.iter().zip(w_row) {
                        gi_row[i] += g * w;
                    }
                }
            }
        }
    }

    fn backward_params(&mut self, grad_output: &Matrix, _grad_input: &mut Matrix) {
        self.param_grads(grad_output);
    }

    fn param_count(&self) -> usize {
        self.weights.data().len() + self.bias.data().len()
    }

    fn write_params(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(self.weights.data());
        out.extend_from_slice(self.bias.data());
    }

    fn read_params(&mut self, src: &[f64]) -> usize {
        let w_len = self.weights.data().len();
        let b_len = self.bias.data().len();
        self.weights.data_mut().copy_from_slice(&src[..w_len]);
        self.bias
            .data_mut()
            .copy_from_slice(&src[w_len..w_len + b_len]);
        self.weights.transpose_into(&mut self.weights_t);
        w_len + b_len
    }

    fn apply_gradients(&mut self, lr: f64) {
        self.weights.add_scaled_in_place(&self.grad_w, -lr);
        self.bias.add_scaled_in_place(&self.grad_b, -lr);
        self.grad_w.scale_in_place(0.0);
        self.grad_b.scale_in_place(0.0);
        self.weights.transpose_into(&mut self.weights_t);
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(Self {
            input_shape: self.input_shape,
            filters: self.filters,
            kernel: self.kernel,
            weights: self.weights.clone(),
            bias: self.bias.clone(),
            grad_w: self.grad_w.clone(),
            grad_b: self.grad_b.clone(),
            cached_input: None,
            weights_t: self.weights_t.clone(),
            gather: self.gather.clone(),
            patches: Matrix::default(),
            staging: Matrix::default(),
        })
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

/// 2×2 max pooling with stride 2 (trailing odd rows/columns are dropped).
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    input_shape: ImageShape,
    /// Argmax input index for every output element of the last forward pass.
    cached_argmax: Option<Vec<usize>>,
    cached_batch: usize,
}

impl MaxPool2d {
    /// Creates a 2×2 max-pooling layer over volumes of the given shape.
    pub fn new(input_shape: ImageShape) -> Self {
        Self {
            input_shape,
            cached_argmax: None,
            cached_batch: 0,
        }
    }

    /// Shape of the pooled feature volume.
    pub fn output_shape(&self) -> ImageShape {
        ImageShape::new(
            self.input_shape.channels,
            self.input_shape.height / 2,
            self.input_shape.width / 2,
        )
    }
}

impl Layer for MaxPool2d {
    fn forward_into(
        &mut self,
        input: &Matrix,
        out: &mut Matrix,
        _training: bool,
        _rng: &mut StdRng,
    ) {
        assert_eq!(
            input.cols(),
            self.input_shape.flat_len(),
            "MaxPool2d input width mismatch"
        );
        let out_shape = self.output_shape();
        // Every output element and argmax slot is written below.
        out.resize(input.rows(), out_shape.flat_len());
        let mut argmax = self.cached_argmax.take().unwrap_or_default();
        argmax.resize(input.rows() * out_shape.flat_len(), 0);
        let in_shape = self.input_shape;
        for b in 0..input.rows() {
            let row = input.row(b);
            for c in 0..in_shape.channels {
                for oy in 0..out_shape.height {
                    for ox in 0..out_shape.width {
                        // A window's first NaN is its value and its argmax, so the NaN
                        // reaches the loss. A window holding nothing above -∞ keeps its
                        // first pixel as the argmax, so its gradient stays inside the window.
                        let mut best = f64::NEG_INFINITY;
                        let mut best_idx = in_shape.index(c, oy * 2, ox * 2);
                        for dy in 0..2 {
                            for dx in 0..2 {
                                let idx = in_shape.index(c, oy * 2 + dy, ox * 2 + dx);
                                let v = row[idx];
                                if v > best || (v.is_nan() && !best.is_nan()) {
                                    best = v;
                                    best_idx = idx;
                                }
                            }
                        }
                        let out_idx = out_shape.index(c, oy, ox);
                        out.set(b, out_idx, best);
                        argmax[b * out_shape.flat_len() + out_idx] = best_idx;
                    }
                }
            }
        }
        self.cached_argmax = Some(argmax);
        self.cached_batch = input.rows();
    }

    fn backward_into(&mut self, grad_output: &Matrix, grad_input: &mut Matrix) {
        let argmax = self
            .cached_argmax
            .as_ref()
            .expect("backward called before forward on MaxPool2d layer");
        let out_flat = self.output_shape().flat_len();
        grad_input.resize(self.cached_batch, self.input_shape.flat_len());
        grad_input.fill(0.0);
        for b in 0..self.cached_batch {
            for o in 0..out_flat {
                let in_idx = argmax[b * out_flat + o];
                grad_input.data_mut()[b * self.input_shape.flat_len() + in_idx] +=
                    grad_output.get(b, o);
            }
        }
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(Self {
            input_shape: self.input_shape,
            cached_argmax: None,
            cached_batch: 0,
        })
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::testutil::check_input_gradient;
    use fmore_numerics::seeded_rng;
    use rand::Rng;

    /// The seven-deep scalar loops `Conv2d` ran before its direct and im2col kernels, kept
    /// as the bit-level reference: forward over `conv`'s parameters.
    fn reference_forward(conv: &Conv2d, input: &Matrix) -> Matrix {
        let out_shape = conv.output_shape();
        let (oh, ow) = (out_shape.height, out_shape.width);
        let mut out = Matrix::zeros(input.rows(), out_shape.flat_len());
        let k = conv.kernel;
        let in_shape = conv.input_shape;
        for b in 0..input.rows() {
            let row = input.row(b);
            for f in 0..conv.filters {
                let w_row = conv.weights.row(f);
                let bias = conv.bias.data()[f];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias;
                        let mut widx = 0;
                        for c in 0..in_shape.channels {
                            for ky in 0..k {
                                for kx in 0..k {
                                    acc += w_row[widx] * row[in_shape.index(c, oy + ky, ox + kx)];
                                    widx += 1;
                                }
                            }
                        }
                        out.set(b, out_shape.index(f, oy, ox), acc);
                    }
                }
            }
        }
        out
    }

    /// The reference backward pass: accumulates into `conv`'s own `grad_w` / `grad_b` (so
    /// `conv.apply_gradients` restarts them exactly as in production) and returns
    /// `∂L/∂input`.
    fn reference_backward(conv: &mut Conv2d, input: &Matrix, grad_output: &Matrix) -> Matrix {
        let out_shape = conv.output_shape();
        let (oh, ow) = (out_shape.height, out_shape.width);
        let k = conv.kernel;
        let in_shape = conv.input_shape;
        let mut grad_input = Matrix::zeros(input.rows(), in_shape.flat_len());
        for b in 0..input.rows() {
            let in_row = input.row(b);
            let go_row = grad_output.row(b);
            for f in 0..conv.filters {
                let w_row_start = f * conv.weights.cols();
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = go_row[out_shape.index(f, oy, ox)];
                        if g == 0.0 {
                            continue;
                        }
                        conv.grad_b.data_mut()[f] += g;
                        let mut widx = 0;
                        for c in 0..in_shape.channels {
                            for ky in 0..k {
                                for kx in 0..k {
                                    let in_idx = in_shape.index(c, oy + ky, ox + kx);
                                    conv.grad_w.data_mut()[w_row_start + widx] +=
                                        g * in_row[in_idx];
                                    grad_input.data_mut()[b * in_shape.flat_len() + in_idx] +=
                                        g * conv.weights.data()[w_row_start + widx];
                                    widx += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        grad_input
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// How `∂L/∂output` is populated in the oracle below.
    #[derive(Debug, Clone, Copy)]
    enum GradPattern {
        Dense,
        /// What ReLU + 2×2 pooling pass back: about one entry in six survives.
        Sparse,
        /// Sparse, and every gradient of filter 1 is exactly `+0.0`.
        DeadFilter,
        /// Sparse, with the zeros signed at random and filter 1 all `-0.0`.
        NegativeZeros,
    }

    fn gradient(pattern: GradPattern, batch: usize, out: ImageShape, rng: &mut StdRng) -> Matrix {
        let mut g = Matrix::random_uniform(batch, out.flat_len(), 1.0, rng);
        let positions = out.height * out.width;
        for row in 0..batch {
            for (i, v) in g.row_mut(row).iter_mut().enumerate() {
                let dead = i / positions == 1;
                match pattern {
                    GradPattern::Dense => {}
                    GradPattern::Sparse => {
                        if rng.gen_range(0..6) != 0 {
                            *v = 0.0;
                        }
                    }
                    GradPattern::DeadFilter => {
                        if dead || rng.gen_range(0..6) != 0 {
                            *v = 0.0;
                        }
                    }
                    GradPattern::NegativeZeros => {
                        if dead {
                            *v = -0.0;
                        } else if rng.gen_range(0..6) != 0 {
                            *v = if rng.gen_range(0..2) == 0 { 0.0 } else { -0.0 };
                        }
                    }
                }
            }
        }
        g
    }

    /// The oracle of the convolution kernels: on the four convolution shapes of the paper's
    /// two CNNs, at six batch sizes (50 is the benchmark's evaluation set, 256 an
    /// `evaluate_in` chunk) and under four gradient patterns, the direct forward kernel and
    /// the matmul-core backward reproduce the reference loops bit for bit — outputs,
    /// `∂L/∂input`, the bias gradient, and the parameters after each SGD step — across two
    /// forward/backward/step cycles, so the second cycle starts from accumulators that
    /// `scale_in_place(0.0)` left at `±0.0`.
    ///
    /// The weight gradient is bit-equal too, with one exception that is allowed and
    /// counted: the reference skips `g == 0.0` terms and the `Gᵀ · P` product adds their
    /// `±0.0` products, so an accumulator that restarted at `-0.0` and receives nothing but
    /// zeros reads `+0.0` here and `-0.0` there. A zero of either sign steps a weight by
    /// nothing (`w − lr · ±0.0 == w` for every `w` but `-0.0` itself), which the bit-equal
    /// parameters after every step confirm.
    #[test]
    fn conv_kernels_match_the_reference_loops_bit_for_bit() {
        let shapes = [
            (ImageShape::new(1, 8, 8), 8, 3),   // MNIST conv1
            (ImageShape::new(8, 6, 6), 16, 3),  // MNIST conv2
            (ImageShape::new(3, 8, 8), 16, 3),  // CIFAR conv1
            (ImageShape::new(16, 3, 3), 32, 2), // CIFAR conv2, after pooling
        ];
        let patterns = [
            GradPattern::Dense,
            GradPattern::Sparse,
            GradPattern::DeadFilter,
            GradPattern::NegativeZeros,
        ];
        let mut rng = seeded_rng(90);
        let mut zero_sign_flips = 0;
        for (shape, filters, kernel) in shapes {
            for batch in [1, 5, 20, 32, 50, 256] {
                for pattern in patterns {
                    let case = format!("{shape:?} x{filters} k{kernel} b{batch} {pattern:?}");
                    let mut conv = Conv2d::new(shape, filters, kernel, &mut rng);
                    let mut reference = Conv2d::new(shape, filters, kernel, &mut rng);
                    let mut params = Vec::new();
                    conv.write_params(&mut params);
                    // Non-zero biases, so "the output starts at the bias" is exercised.
                    for b in &mut params[filters * shape.channels * kernel * kernel..] {
                        *b = rng.gen_range(-0.5..=0.5);
                    }
                    conv.read_params(&params);
                    reference.read_params(&params);
                    for cycle in 0..2 {
                        // Post-ReLU inputs carry exact zeros; raw images do not.
                        let mut x = Matrix::random_uniform(batch, shape.flat_len(), 1.0, &mut rng);
                        if shape.channels > 3 {
                            x.map_inplace(|v| v.max(0.0));
                        }
                        let y = conv.forward(&x, true, &mut rng);
                        assert_eq!(
                            bits(y.data()),
                            bits(reference_forward(&reference, &x).data()),
                            "{case}: outputs, cycle {cycle}"
                        );
                        let g = gradient(pattern, batch, conv.output_shape(), &mut rng);
                        let grad_input = conv.backward(&g);
                        let reference_grad_input = reference_backward(&mut reference, &x, &g);
                        assert_eq!(
                            bits(grad_input.data()),
                            bits(reference_grad_input.data()),
                            "{case}: grad_input, cycle {cycle}"
                        );
                        assert_eq!(
                            bits(conv.grad_b.data()),
                            bits(reference.grad_b.data()),
                            "{case}: grad_b, cycle {cycle}"
                        );
                        for (got, want) in conv.grad_w.data().iter().zip(reference.grad_w.data()) {
                            if got.to_bits() != want.to_bits() {
                                assert_eq!(
                                    (got.to_bits(), want.to_bits()),
                                    (0.0f64.to_bits(), (-0.0f64).to_bits()),
                                    "{case}: grad_w, cycle {cycle}"
                                );
                                zero_sign_flips += 1;
                            }
                        }
                        conv.apply_gradients(0.1);
                        reference.apply_gradients(0.1);
                        let mut stepped = Vec::new();
                        conv.write_params(&mut stepped);
                        let mut reference_stepped = Vec::new();
                        reference.write_params(&mut reference_stepped);
                        assert_eq!(
                            bits(&stepped),
                            bits(&reference_stepped),
                            "{case}: parameters after step {cycle}"
                        );
                        assert_eq!(
                            bits(conv.weights_t.data()),
                            bits(conv.weights.transpose().data()),
                            "{case}: stale transposed weights after step {cycle}"
                        );
                    }
                }
            }
        }
        // The dead-filter patterns do hit the one allowed divergence: the oracle is not
        // passing merely because no accumulator ever restarted at -0.0.
        assert!(zero_sign_flips > 0);
    }

    /// Every tier of the direct forward kernel, called directly: the scalar instance always,
    /// each `target_feature` wrapper when the CPU has its instruction set. Returns each
    /// tier's name and output, written over a sentinel so an unwritten output shows.
    fn forward_tiers<const F: usize>(conv: &Conv2d, x: &Matrix) -> Vec<(&'static str, Vec<f64>)> {
        let ops = ForwardOperands {
            gather: &conv.gather,
            weights_t: conv.weights_t.data(),
            bias: conv.bias.data(),
        };
        let fresh = || vec![f64::MAX; x.rows() * conv.output_shape().flat_len()];
        let mut scalar = fresh();
        forward_scalar::<F>(ops, x, &mut scalar);
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut tiers = vec![("scalar", scalar)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::is_x86_feature_detected!("avx") {
                let mut out = fresh();
                // SAFETY: `is_x86_feature_detected!("avx")` just answered true; this test is
                // the tier's own parity pin.
                unsafe { forward_avx::<F>(ops, x, &mut out) };
                tiers.push(("avx", out));
            } else {
                println!("skipping the AVX tier: this CPU has no AVX");
            }
            if std::is_x86_feature_detected!("avx512f") {
                let mut out = fresh();
                // SAFETY: `is_x86_feature_detected!("avx512f")` just answered true; this test
                // is the tier's own parity pin.
                unsafe { forward_avx512::<F>(ops, x, &mut out) };
                tiers.push(("avx512", out));
            } else {
                println!("skipping the AVX-512 tier: this CPU has no AVX-512F");
            }
        }
        tiers
    }

    /// A layer's input with the values the tiers must not treat differently: exact zeros of
    /// both signs, subnormals, and in every sample one `+∞`, `-∞` or NaN pixel.
    fn hostile_input(batch: usize, shape: ImageShape, rng: &mut StdRng) -> Matrix {
        let mut x = Matrix::random_uniform(batch, shape.flat_len(), 1.0, rng);
        for b in 0..batch {
            let row = x.row_mut(b);
            for v in row.iter_mut() {
                match rng.gen_range(0..8) {
                    0 => *v = 0.0,
                    1 => *v = -0.0,
                    2 => *v = f64::from_bits(rng.gen_range(1..1u64 << 52)) * v.signum(),
                    _ => {}
                }
            }
            let lane = rng.gen_range(0..row.len());
            row[lane] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][b % 3];
        }
        x
    }

    /// Tier parity of the direct forward kernel: the scalar instance and each
    /// `target_feature` wrapper match the reference loops bit for bit, for the paper's
    /// filter counts through their own instances and for 1, 2, 3 and 5 filters through the
    /// one-filter instance every other count runs, on position counts a block does not
    /// divide (a 5×5 input with a 3×3 kernel, a 1×1 output), at batch sizes from 1 to an
    /// `evaluate_in` chunk, on inputs holding zeros of both signs, subnormals and
    /// non-finite pixels.
    #[test]
    fn forward_tiers_match_the_reference_loops_bit_for_bit() {
        let mut cases = vec![
            (ImageShape::new(1, 8, 8), 8, 3),
            (ImageShape::new(8, 6, 6), 16, 3),
            (ImageShape::new(3, 8, 8), 16, 3),
            (ImageShape::new(16, 3, 3), 32, 2),
        ];
        for filters in [1, 2, 3, 5, 8, 16] {
            cases.push((ImageShape::new(2, 5, 5), filters, 3));
        }
        for filters in [1, 3, 8, 32] {
            cases.push((ImageShape::new(3, 2, 2), filters, 2));
        }
        let mut rng = seeded_rng(93);
        for (shape, filters, kernel) in cases {
            let mut conv = Conv2d::new(shape, filters, kernel, &mut rng);
            let mut params = Vec::new();
            conv.write_params(&mut params);
            for b in &mut params[filters * shape.channels * kernel * kernel..] {
                *b = rng.gen_range(-0.5..=0.5);
            }
            conv.read_params(&params);
            for batch in [1, 5, 20, 50, 256] {
                let x = hostile_input(batch, shape, &mut rng);
                let want = bits(reference_forward(&conv, &x).data());
                let tiers = match filters {
                    8 => forward_tiers::<8>(&conv, &x),
                    16 => forward_tiers::<16>(&conv, &x),
                    32 => forward_tiers::<32>(&conv, &x),
                    _ => forward_tiers::<1>(&conv, &x),
                };
                for (tier, got) in tiers {
                    assert_eq!(
                        bits(&got),
                        want,
                        "{shape:?} x{filters} k{kernel} b{batch}: {tier} tier"
                    );
                }
            }
        }
    }

    /// The first layer of a stack skips its input gradient; its parameter gradients are the
    /// ones the full backward pass accumulates.
    #[test]
    fn backward_params_accumulates_what_backward_does() {
        let mut rng = seeded_rng(91);
        let shape = ImageShape::new(3, 8, 8);
        let mut full = Conv2d::new(shape, 16, 3, &mut rng);
        let mut params_only = full.clone_layer();
        let x = Matrix::random_uniform(5, shape.flat_len(), 1.0, &mut rng);
        let g = gradient(GradPattern::Sparse, 5, full.output_shape(), &mut rng);
        let mut scratch = Matrix::default();
        for layer in [&mut full as &mut dyn Layer, params_only.as_mut()] {
            layer.forward(&x, true, &mut rng);
        }
        full.backward(&g);
        params_only.backward_params(&g, &mut scratch);
        full.apply_gradients(0.1);
        params_only.apply_gradients(0.1);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        full.write_params(&mut a);
        params_only.write_params(&mut b);
        assert_eq!(bits(&a), bits(&b));
    }

    /// A clone carries parameters and gradient accumulators but none of the forward-pass
    /// caches: it must see its own forward pass before it can run backward.
    #[test]
    #[should_panic(expected = "backward called before forward")]
    fn clone_drops_the_forward_cache() {
        let mut rng = seeded_rng(92);
        let shape = ImageShape::new(1, 4, 4);
        let mut conv = Conv2d::new(shape, 2, 3, &mut rng);
        let x = Matrix::random_uniform(3, shape.flat_len(), 1.0, &mut rng);
        let y = conv.forward(&x, true, &mut rng);
        conv.backward(&y);
        let mut clone = conv.clone_layer();
        let mut params = (Vec::new(), Vec::new());
        conv.write_params(&mut params.0);
        clone.write_params(&mut params.1);
        assert_eq!(params.0, params.1);
        let _ = clone.backward(&y);
    }

    #[test]
    fn image_shape_indexing() {
        let s = ImageShape::new(2, 3, 4);
        assert_eq!(s.flat_len(), 24);
        assert_eq!(s.index(0, 0, 0), 0);
        assert_eq!(s.index(1, 0, 0), 12);
        assert_eq!(s.index(1, 2, 3), 23);
    }

    #[test]
    fn conv_identity_kernel_reproduces_input_patch() {
        let mut rng = seeded_rng(1);
        let shape = ImageShape::new(1, 3, 3);
        let mut conv = Conv2d::new(shape, 1, 1, &mut rng);
        // 1×1 kernel with weight 1, bias 0: output == input.
        assert_eq!(conv.read_params(&[1.0, 0.0]), 2);
        let x = Matrix::from_vec(1, 9, (1..=9).map(|v| v as f64).collect());
        let y = conv.forward(&x, true, &mut rng);
        assert_eq!(y.data(), x.data());
        assert_eq!(conv.output_shape(), shape);
    }

    #[test]
    fn conv_known_kernel_computes_expected_sums() {
        let mut rng = seeded_rng(2);
        let shape = ImageShape::new(1, 3, 3);
        let mut conv = Conv2d::new(shape, 1, 2, &mut rng);
        // All-ones 2x2 kernel, bias 0: each output is the sum of a 2x2 patch.
        assert_eq!(conv.read_params(&[1.0, 1.0, 1.0, 1.0, 0.0]), 5);
        let x = Matrix::from_vec(1, 9, (1..=9).map(|v| v as f64).collect());
        let y = conv.forward(&x, true, &mut rng);
        // Patches: [1,2,4,5]=12, [2,3,5,6]=16, [4,5,7,8]=24, [5,6,8,9]=28.
        assert_eq!(y.data(), &[12.0, 16.0, 24.0, 28.0]);
        assert_eq!(conv.output_shape(), ImageShape::new(1, 2, 2));
    }

    #[test]
    fn conv_input_gradient_matches_finite_differences() {
        let mut rng = seeded_rng(3);
        let shape = ImageShape::new(2, 4, 4);
        let mut conv = Conv2d::new(shape, 3, 3, &mut rng);
        let x = Matrix::random_uniform(2, shape.flat_len(), 1.0, &mut rng);
        check_input_gradient(&mut conv, &x, 1e-4);
    }

    #[test]
    fn conv_param_roundtrip_and_update() {
        let mut rng = seeded_rng(4);
        let shape = ImageShape::new(1, 4, 4);
        let mut conv = Conv2d::new(shape, 2, 3, &mut rng);
        let mut params = Vec::new();
        conv.write_params(&mut params);
        assert_eq!(params.len(), conv.param_count());
        // Gradient step changes the parameters.
        let x = Matrix::random_uniform(1, shape.flat_len(), 1.0, &mut rng);
        let y = conv.forward(&x, true, &mut rng);
        conv.backward(&Matrix::from_vec(
            y.rows(),
            y.cols(),
            vec![1.0; y.data().len()],
        ));
        conv.apply_gradients(0.1);
        let mut after = Vec::new();
        conv.write_params(&mut after);
        assert_ne!(params, after);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn conv_rejects_an_input_without_channels() {
        let _ = Conv2d::new(ImageShape::new(0, 4, 4), 1, 3, &mut seeded_rng(5));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn conv_rejects_oversized_kernel() {
        let mut rng = seeded_rng(5);
        let _ = Conv2d::new(ImageShape::new(1, 2, 2), 1, 3, &mut rng);
    }

    #[test]
    fn maxpool_selects_maxima_and_routes_gradients() {
        let mut rng = seeded_rng(6);
        let shape = ImageShape::new(1, 4, 4);
        let mut pool = MaxPool2d::new(shape);
        #[rustfmt::skip]
        let x = Matrix::from_vec(1, 16, vec![
            1.0, 2.0, 3.0, 4.0,
            5.0, 6.0, 7.0, 8.0,
            9.0, 10.0, 11.0, 12.0,
            13.0, 14.0, 15.0, 16.0,
        ]);
        let y = pool.forward(&x, true, &mut rng);
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
        assert_eq!(pool.output_shape(), ImageShape::new(1, 2, 2));
        let grad = pool.backward(&Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]));
        // Gradient lands exactly on the argmax positions.
        let mut expected = vec![0.0; 16];
        expected[5] = 1.0;
        expected[7] = 2.0;
        expected[13] = 3.0;
        expected[15] = 4.0;
        assert_eq!(grad.data(), expected.as_slice());
    }

    /// A window with nothing above -∞ routes its gradient to one of its own pixels, not to
    /// pixel (0, 0, 0) of the volume.
    #[test]
    fn maxpool_routes_a_window_without_a_maximum_inside_it() {
        let mut rng = seeded_rng(8);
        let shape = ImageShape::new(2, 4, 4);
        let mut pool = MaxPool2d::new(shape);
        let mut x = Matrix::from_vec(1, 32, (1..=32).map(|v| v as f64).collect());
        // Channel 1: window (0, 0) all -∞, window (1, 1) all NaN.
        let neg_inf_window = [16, 17, 20, 21];
        let nan_window = [26, 27, 30, 31];
        for i in neg_inf_window {
            x.row_mut(0)[i] = f64::NEG_INFINITY;
        }
        for i in nan_window {
            x.row_mut(0)[i] = f64::NAN;
        }
        pool.forward(&x, true, &mut rng);
        let mut g = Matrix::zeros(1, 8);
        g.row_mut(0)[4] = 1.0; // channel 1, window (0, 0)
        g.row_mut(0)[7] = 2.0; // channel 1, window (1, 1)
        let grad = pool.backward(&g);
        let sum = |window: [usize; 4]| -> f64 { window.iter().map(|&i| grad.get(0, i)).sum() };
        assert_eq!(sum(neg_inf_window), 1.0);
        assert_eq!(sum(nan_window), 2.0);
        assert_eq!(grad.data().iter().sum::<f64>(), 3.0);
    }

    /// A NaN pixel is its window's value and argmax, whatever numbers share the window.
    #[test]
    fn maxpool_propagates_a_nan_pixel_and_routes_its_gradient_to_it() {
        let mut rng = seeded_rng(9);
        let shape = ImageShape::new(1, 4, 4);
        let mut pool = MaxPool2d::new(shape);
        let mut x = Matrix::from_vec(1, 16, (1..=16).map(|v| v as f64).collect());
        // Window (0, 0) is pixels [0, 1, 4, 5]; its largest number, 6.0, sits at pixel 5.
        x.row_mut(0)[4] = f64::NAN;
        // Window (1, 1): a NaN after its largest number, and a second NaN after that.
        x.row_mut(0)[14] = f64::NAN;
        x.row_mut(0)[15] = f64::NAN;
        let out = pool.forward(&x, true, &mut rng);
        assert!(out.get(0, 0).is_nan());
        assert!(out.get(0, 3).is_nan());
        assert_eq!(out.get(0, 1), 8.0);
        assert_eq!(out.get(0, 2), 14.0);
        let g = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]);
        let grad = pool.backward(&g);
        let mut expected = vec![0.0; 16];
        expected[4] = 1.0; // the NaN, not the 6.0 beside it
        expected[7] = 2.0;
        expected[13] = 3.0;
        expected[14] = 4.0; // the window's first NaN
        assert_eq!(grad.data(), expected.as_slice());
    }

    #[test]
    fn maxpool_gradient_matches_finite_differences() {
        let mut rng = seeded_rng(7);
        let shape = ImageShape::new(2, 4, 4);
        let mut pool = MaxPool2d::new(shape);
        let x = Matrix::random_uniform(2, shape.flat_len(), 1.0, &mut rng);
        check_input_gradient(&mut pool, &x, 1e-4);
    }
}
