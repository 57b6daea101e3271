//! A single-layer LSTM that consumes a flattened sequence and emits the last hidden state.
//!
//! The paper's news-headline classifier is an LSTM followed by a dense softmax layer. Here
//! the input row is a flattened sequence `x_1 … x_T` (each `x_t` of width `input_dim`), the
//! layer runs the standard LSTM recurrence and outputs `h_T`, which downstream dense layers
//! turn into class logits. The backward pass is full back-propagation through time.
//!
//! All per-timestep state (input slices, hidden/cell states, gate activations) and every
//! intermediate of the recurrence live in reusable buffers owned by the layer, so repeated
//! forward/backward passes allocate nothing once the largest batch size has been seen. The
//! fused element-wise loops evaluate exactly the same expression trees as the original
//! `map`/`hadamard`/`add` compositions, keeping results bit-identical.

use super::Layer;
use crate::matrix::Matrix;
use rand::rngs::StdRng;

/// Single-layer LSTM over flattened sequences.
#[derive(Debug, Clone)]
pub(crate) struct Lstm {
    input_dim: usize,
    hidden_dim: usize,
    seq_len: usize,
    /// `(input_dim, 4·hidden)` — gate order `[i, f, g, o]`.
    w_x: Matrix,
    /// `(hidden, 4·hidden)`.
    w_h: Matrix,
    /// `(1, 4·hidden)`.
    bias: Matrix,
    grad_wx: Matrix,
    grad_wh: Matrix,
    grad_b: Matrix,
    cache: Option<Cache>,
    scratch: Scratch,
}

/// Per-timestep state kept for back-propagation through time; buffers are reused across
/// forward passes.
#[derive(Debug, Clone, Default)]
struct Cache {
    /// Per-timestep input slices `(batch, input_dim)`.
    xs: Vec<Matrix>,
    /// Hidden states `h_0 … h_T` (index 0 is the initial zero state).
    hs: Vec<Matrix>,
    /// Cell states `c_0 … c_T`.
    cs: Vec<Matrix>,
    /// Gate activations per timestep: `(i, f, g, o)`.
    gates: Vec<(Matrix, Matrix, Matrix, Matrix)>,
}

impl Cache {
    fn ensure(&mut self, seq_len: usize) {
        if self.xs.len() < seq_len {
            self.xs.resize_with(seq_len, Matrix::default);
            self.gates.resize_with(seq_len, Default::default);
            self.hs.resize_with(seq_len + 1, Matrix::default);
            self.cs.resize_with(seq_len + 1, Matrix::default);
        }
    }
}

/// Reusable intermediates of the recurrence (pre-activations, running gradients, product
/// buffers); one set per layer instance.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Pre-activation `(batch, 4H)` in forward; gate gradient `dz` in backward.
    z: Matrix,
    /// `h_prev · w_h` forward partial.
    zh: Matrix,
    /// Running hidden-state gradient.
    dh: Matrix,
    /// Next iteration's hidden-state gradient (swapped with `dh`).
    dh_next: Matrix,
    /// Running cell-state gradient.
    dc: Matrix,
    /// Cell gradient through the tanh gate.
    dct: Matrix,
    /// Timestep input gradient `dz · w_xᵀ`.
    dx: Matrix,
    /// Weight-gradient product buffer.
    prod: Matrix,
    /// Bias-gradient row buffer.
    bsum: Matrix,
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl Lstm {
    /// Creates an LSTM layer for sequences of `seq_len` steps, each of width `input_dim`,
    /// with `hidden_dim` hidden units.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub(crate) fn new(
        seq_len: usize,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut StdRng,
    ) -> Self {
        assert!(
            seq_len > 0 && input_dim > 0 && hidden_dim > 0,
            "LSTM dimensions must be positive"
        );
        Self {
            input_dim,
            hidden_dim,
            seq_len,
            w_x: Matrix::he_init(input_dim, 4 * hidden_dim, input_dim, rng),
            w_h: Matrix::he_init(hidden_dim, 4 * hidden_dim, hidden_dim, rng),
            bias: Matrix::zeros(1, 4 * hidden_dim),
            grad_wx: Matrix::zeros(input_dim, 4 * hidden_dim),
            grad_wh: Matrix::zeros(hidden_dim, 4 * hidden_dim),
            grad_b: Matrix::zeros(1, 4 * hidden_dim),
            cache: None,
            scratch: Scratch::default(),
        }
    }

    /// Hidden-state width (the layer's output dimension).
    pub(crate) fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Expected flattened input width `seq_len · input_dim`.
    pub(crate) fn input_width(&self) -> usize {
        self.seq_len * self.input_dim
    }
}

impl Layer for Lstm {
    fn forward_into(
        &mut self,
        input: &Matrix,
        out: &mut Matrix,
        _training: bool,
        _rng: &mut StdRng,
    ) {
        assert_eq!(
            input.cols(),
            self.input_width(),
            "LSTM input width mismatch"
        );
        let batch = input.rows();
        let h_dim = self.hidden_dim;
        let mut cache = self.cache.take().unwrap_or_default();
        cache.ensure(self.seq_len);
        // Initial hidden/cell state is zero.
        cache.hs[0].resize(batch, h_dim);
        cache.hs[0].fill(0.0);
        cache.cs[0].resize(batch, h_dim);
        cache.cs[0].fill(0.0);

        for t in 0..self.seq_len {
            // Slice timestep t of the flattened input into the reusable x_t buffer.
            let x_t = &mut cache.xs[t];
            x_t.resize(batch, self.input_dim);
            for b in 0..batch {
                x_t.row_mut(b)
                    .copy_from_slice(&input.row(b)[t * self.input_dim..(t + 1) * self.input_dim]);
            }

            // Pre-activation z = x_t·w_x + h_prev·w_h + bias.
            let z = &mut self.scratch.z;
            cache.xs[t].matmul_into(&self.w_x, z);
            cache.hs[t].matmul_into(&self.w_h, &mut self.scratch.zh);
            for (a, &b) in z.data_mut().iter_mut().zip(self.scratch.zh.data()) {
                *a += b;
            }
            z.add_row_inplace(&self.bias);

            // Gate activations, order [i, f, g, o].
            let (gi, gf, gg, go) = &mut cache.gates[t];
            gi.resize(batch, h_dim);
            gf.resize(batch, h_dim);
            gg.resize(batch, h_dim);
            go.resize(batch, h_dim);
            for b in 0..batch {
                let row = z.row(b);
                for j in 0..h_dim {
                    gi.set(b, j, sigmoid(row[j]));
                    gf.set(b, j, sigmoid(row[h_dim + j]));
                    gg.set(b, j, row[2 * h_dim + j].tanh());
                    go.set(b, j, sigmoid(row[3 * h_dim + j]));
                }
            }

            // c_t = f ⊙ c_prev + i ⊙ g and h_t = o ⊙ tanh(c_t).
            let (c_head, c_tail) = cache.cs.split_at_mut(t + 1);
            let c_prev = &c_head[t];
            let c_t = &mut c_tail[0];
            c_t.resize(batch, h_dim);
            let h_t = &mut cache.hs[t + 1];
            h_t.resize(batch, h_dim);
            for ((((((c, &cp), &i), &f), &g), &o), h) in c_t
                .data_mut()
                .iter_mut()
                .zip(c_prev.data())
                .zip(gi.data())
                .zip(gf.data())
                .zip(gg.data())
                .zip(go.data())
                .zip(h_t.data_mut())
            {
                *c = f * cp + i * g;
                *h = o * c.tanh();
            }
        }
        out.copy_from(&cache.hs[self.seq_len]);
        self.cache = Some(cache);
    }

    fn backward_into(&mut self, grad_output: &Matrix, grad_input: &mut Matrix) {
        let cache = self
            .cache
            .as_ref()
            .expect("backward called before forward on LSTM layer");
        let batch = grad_output.rows();
        let h_dim = self.hidden_dim;
        let scratch = &mut self.scratch;
        grad_input.resize(batch, self.seq_len * self.input_dim);
        grad_input.fill(0.0);
        scratch.dh.copy_from(grad_output);
        scratch.dc.resize(batch, h_dim);
        scratch.dc.fill(0.0);

        for t in (0..self.seq_len).rev() {
            let (gi, gf, gg, go) = &cache.gates[t];
            let c_t = &cache.cs[t + 1];
            let c_prev = &cache.cs[t];
            let h_prev = &cache.hs[t];
            let x_t = &cache.xs[t];

            // Gate-gradient assembly, fused: for every (b, j) compute the cell gradient
            // dct = dc + (dh ⊙ o) ⊙ (1 − tanh(c)²) and the four pre-activation gradients
            //   dz_i = (dct ⊙ g) ⊙ i(1−i)      dz_f = (dct ⊙ c_prev) ⊙ f(1−f)
            //   dz_g = (dct ⊙ i) ⊙ (1−g²)      dz_o = (dh ⊙ tanh c) ⊙ o(1−o)
            // — the exact expression trees of the original map/hadamard composition.
            let dz = &mut scratch.z;
            dz.resize(batch, 4 * h_dim);
            scratch.dct.resize(batch, h_dim);
            for b in 0..batch {
                let dh_row = scratch.dh.row(b);
                let dc_row = scratch.dc.row(b);
                let i_row = gi.row(b);
                let f_row = gf.row(b);
                let g_row = gg.row(b);
                let o_row = go.row(b);
                let ct_row = c_t.row(b);
                let cp_row = c_prev.row(b);
                for j in 0..h_dim {
                    let tanh_c = ct_row[j].tanh();
                    let dct = dc_row[j] + (dh_row[j] * o_row[j]) * (1.0 - tanh_c * tanh_c);
                    scratch.dct.set(b, j, dct);
                    let dz_row = dz.row_mut(b);
                    dz_row[j] = (dct * g_row[j]) * (i_row[j] * (1.0 - i_row[j]));
                    dz_row[h_dim + j] = (dct * cp_row[j]) * (f_row[j] * (1.0 - f_row[j]));
                    dz_row[2 * h_dim + j] = (dct * i_row[j]) * (1.0 - g_row[j] * g_row[j]);
                    dz_row[3 * h_dim + j] = (dh_row[j] * tanh_c) * (o_row[j] * (1.0 - o_row[j]));
                }
            }

            // Parameter gradients accumulate across timesteps; the products are formed in
            // their own buffer first so the accumulation order matches the original
            // `grad += product` composition.
            x_t.matmul_transpose_a_into(dz, &mut scratch.prod);
            self.grad_wx.add_scaled_in_place(&scratch.prod, 1.0);
            h_prev.matmul_transpose_a_into(dz, &mut scratch.prod);
            self.grad_wh.add_scaled_in_place(&scratch.prod, 1.0);
            dz.sum_rows_into(&mut scratch.bsum);
            self.grad_b.add_scaled_in_place(&scratch.bsum, 1.0);

            // Input gradient of this timestep, scattered into the flattened layout.
            dz.matmul_transpose_b_into(&self.w_x, &mut scratch.dx);
            for b in 0..batch {
                let dst = &mut grad_input.row_mut(b)[t * self.input_dim..(t + 1) * self.input_dim];
                for (d, s) in dst.iter_mut().zip(scratch.dx.row(b)) {
                    *d += s;
                }
            }

            // Recurrent gradients for timestep t − 1.
            dz.matmul_transpose_b_into(&self.w_h, &mut scratch.dh_next);
            std::mem::swap(&mut scratch.dh, &mut scratch.dh_next);
            for ((dc, &dct), &f) in scratch
                .dc
                .data_mut()
                .iter_mut()
                .zip(scratch.dct.data())
                .zip(gf.data())
            {
                *dc = dct * f;
            }
        }
    }

    fn param_count(&self) -> usize {
        self.w_x.data().len() + self.w_h.data().len() + self.bias.data().len()
    }

    fn write_params(&self, out: &mut Vec<f64>) {
        out.extend_from_slice(self.w_x.data());
        out.extend_from_slice(self.w_h.data());
        out.extend_from_slice(self.bias.data());
    }

    fn read_params(&mut self, src: &[f64]) -> usize {
        let (a, b, c) = (
            self.w_x.data().len(),
            self.w_h.data().len(),
            self.bias.data().len(),
        );
        self.w_x.data_mut().copy_from_slice(&src[..a]);
        self.w_h.data_mut().copy_from_slice(&src[a..a + b]);
        self.bias.data_mut().copy_from_slice(&src[a + b..a + b + c]);
        a + b + c
    }

    fn apply_gradients(&mut self, lr: f64) {
        self.w_x.add_scaled_in_place(&self.grad_wx, -lr);
        self.w_h.add_scaled_in_place(&self.grad_wh, -lr);
        self.bias.add_scaled_in_place(&self.grad_b, -lr);
        self.grad_wx.scale_in_place(0.0);
        self.grad_wh.scale_in_place(0.0);
        self.grad_b.scale_in_place(0.0);
    }

    fn clone_layer(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "lstm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::testutil::check_input_gradient;
    use fmore_numerics::seeded_rng;

    #[test]
    fn forward_shapes_and_accessors() {
        let mut rng = seeded_rng(1);
        let mut lstm = Lstm::new(5, 3, 4, &mut rng);
        assert_eq!(lstm.input_width(), 15);
        assert_eq!(lstm.hidden_dim(), 4);
        assert_eq!(lstm.name(), "lstm");
        let x = Matrix::random_uniform(2, 15, 1.0, &mut rng);
        let h = lstm.forward(&x, true, &mut rng);
        assert_eq!(h.rows(), 2);
        assert_eq!(h.cols(), 4);
        // Hidden state stays in (-1, 1) because it is o ⊙ tanh(c).
        assert!(h.data().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn zero_weights_give_zero_output() {
        let mut rng = seeded_rng(2);
        let mut lstm = Lstm::new(3, 2, 2, &mut rng);
        let zeros = vec![0.0; lstm.param_count()];
        lstm.read_params(&zeros);
        let x = Matrix::random_uniform(1, 6, 1.0, &mut rng);
        let h = lstm.forward(&x, true, &mut rng);
        // With all weights and biases at zero, i = f = o = 0.5, g = 0, so c stays 0 and h = 0.
        assert!(h.data().iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn input_gradient_matches_finite_differences() {
        let mut rng = seeded_rng(3);
        let mut lstm = Lstm::new(3, 2, 3, &mut rng);
        let x = Matrix::random_uniform(2, 6, 0.8, &mut rng);
        check_input_gradient(&mut lstm, &x, 1e-3);
    }

    #[test]
    fn parameter_roundtrip() {
        let mut rng = seeded_rng(4);
        let lstm = Lstm::new(4, 3, 5, &mut rng);
        let mut params = Vec::new();
        lstm.write_params(&mut params);
        assert_eq!(params.len(), lstm.param_count());
        let mut other = Lstm::new(4, 3, 5, &mut rng);
        assert_eq!(other.read_params(&params), params.len());
        let mut back = Vec::new();
        other.write_params(&mut back);
        assert_eq!(params, back);
    }

    #[test]
    fn training_step_moves_parameters_and_reduces_loss() {
        // Learn to output a large positive first hidden unit for a fixed input.
        let mut rng = seeded_rng(5);
        let mut lstm = Lstm::new(2, 2, 2, &mut rng);
        let x = Matrix::from_vec(1, 4, vec![0.5, -0.3, 0.8, 0.1]);
        let loss = |h: &Matrix| (1.0 - h.get(0, 0)).powi(2);
        let mut rng2 = seeded_rng(6);
        let h0 = lstm.forward(&x, true, &mut rng2);
        let initial = loss(&h0);
        for _ in 0..200 {
            let h = lstm.forward(&x, true, &mut rng2);
            let mut grad = Matrix::zeros(1, 2);
            grad.set(0, 0, -2.0 * (1.0 - h.get(0, 0)));
            lstm.backward(&grad);
            lstm.apply_gradients(0.1);
        }
        let h_final = lstm.forward(&x, true, &mut rng2);
        assert!(
            loss(&h_final) < initial * 0.5,
            "loss should at least halve: {} -> {}",
            initial,
            loss(&h_final)
        );
    }

    #[test]
    fn repeated_passes_reuse_buffers_without_allocating() {
        let mut rng = seeded_rng(9);
        let mut lstm = Lstm::new(4, 3, 5, &mut rng);
        let x = Matrix::random_uniform(3, 12, 1.0, &mut rng);
        let mut out = Matrix::default();
        let mut grad = Matrix::default();
        // Warm up all internal buffers at this batch size.
        lstm.forward_into(&x, &mut out, true, &mut rng);
        let ones = Matrix::from_vec(out.rows(), out.cols(), vec![1.0; out.data().len()]);
        lstm.backward_into(&ones, &mut grad);
        let first_out = out.clone();
        let first_grad = grad.clone();
        lstm.apply_gradients(0.0); // lr 0: parameters unchanged, gradients cleared
        crate::matrix::alloc_count::reset();
        lstm.forward_into(&x, &mut out, true, &mut rng);
        lstm.backward_into(&ones, &mut grad);
        assert_eq!(
            crate::matrix::alloc_count::count(),
            0,
            "steady-state LSTM passes must not allocate"
        );
        assert_eq!(out, first_out);
        assert_eq!(grad, first_grad);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_is_rejected() {
        let mut rng = seeded_rng(7);
        let _ = Lstm::new(0, 2, 2, &mut rng);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_is_rejected() {
        let mut rng = seeded_rng(8);
        let mut lstm = Lstm::new(2, 2, 2, &mut rng);
        let x = Matrix::zeros(1, 5);
        let _ = lstm.forward(&x, true, &mut rng);
    }
}
