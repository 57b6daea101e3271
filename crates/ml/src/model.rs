//! The trainable model abstraction and the [`Sequential`] container.
//!
//! Federated learning only needs three operations from a model: export its parameters as a
//! flat vector (so the aggregator can average them, Eq. 3), import averaged parameters, and
//! perform local SGD epochs on a data shard (Eq. 2). The [`Model`] trait captures exactly
//! that, and [`Sequential`] implements it for a stack of [`Layer`]s trained with softmax
//! cross-entropy.
//!
//! # The allocation-free hot path
//!
//! [`Sequential::train_epoch_in`] and [`Sequential::evaluate_in`] run against a caller-owned
//! [`ScratchArena`]: mini-batches are gathered into the arena's input buffer, each layer
//! writes into its per-layer activation matrix, and gradients ping-pong between two reusable
//! buffers. After one pass at the largest batch shape the whole loop performs zero matrix
//! allocations (pinned by the alloc-counter tests), and the results are bit-identical to the
//! allocating [`Model::train_epoch`] / [`Model::evaluate`], which delegate to the arena
//! forms with a throwaway arena.

use crate::arena::ScratchArena;
use crate::dataset::Dataset;
use crate::layers::Layer;
use crate::loss::{row_argmax, softmax_cross_entropy_into};
use rand::rngs::StdRng;

/// Seed of the scratch RNG driving stochastic layers (dropout). Fixed so that a freshly
/// constructed model, a clone of an untrained model, and a slot-reused model after
/// [`Sequential::reset_scratch_rng`] all see the identical stream.
const SCRATCH_RNG_SEED: u64 = 0xF00D;

/// Accuracy and loss of a model on a data shard.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Evaluation {
    /// Mean softmax cross-entropy loss.
    pub loss: f64,
    /// Fraction of correctly classified samples in `[0, 1]`.
    pub accuracy: f64,
}

/// A trainable classification model.
pub trait Model: Send + Sync {
    /// Exports all trainable parameters as one flat vector (stable order).
    fn parameters(&self) -> Vec<f64>;

    /// Writes all trainable parameters into `out` (cleared first), reusing its capacity —
    /// the allocation-free form of [`Model::parameters`].
    fn parameters_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.parameters());
    }

    /// Imports parameters previously produced by [`Model::parameters`] (or an average of
    /// several such vectors).
    ///
    /// # Panics
    ///
    /// Panics if `params` has the wrong length.
    fn set_parameters(&mut self, params: &[f64]);

    /// Copies a borrowed parameter view into the model in place — the zero-copy counterpart
    /// of [`Model::set_parameters`] used by the federated round engine (the two are
    /// synonyms; this name documents that no buffer changes hands).
    ///
    /// # Panics
    ///
    /// Panics if `params` has the wrong length.
    fn apply_parameters(&mut self, params: &[f64]) {
        self.set_parameters(params);
    }

    /// Total number of trainable parameters.
    fn num_parameters(&self) -> usize;

    /// Runs one epoch of mini-batch SGD (Eq. 2, `w ← w − η ∇F_i(w)`) over the given sample
    /// indices of `data`. Returns the mean training loss over the epoch.
    fn train_epoch(
        &mut self,
        data: &Dataset,
        indices: &[usize],
        learning_rate: f64,
        batch_size: usize,
        rng: &mut StdRng,
    ) -> f64;

    /// Evaluates loss and accuracy over the given sample indices of `data`.
    fn evaluate(&self, data: &Dataset, indices: &[usize]) -> Evaluation;

    /// Clones the model (architecture and parameters) into a boxed trait object.
    fn clone_model(&self) -> Box<dyn Model>;
}

impl Clone for Box<dyn Model> {
    fn clone(&self) -> Self {
        self.clone_model()
    }
}

/// A feed-forward stack of layers trained with softmax cross-entropy.
#[derive(Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Scratch RNG for stochastic layers (dropout); reseeded deterministically per model.
    rng: StdRng,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Sequential")
            .field("layers", &names)
            .field("parameters", &self.num_parameters())
            .finish()
    }
}

impl Sequential {
    /// Creates a model from an ordered stack of layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        assert!(
            !layers.is_empty(),
            "a Sequential model needs at least one layer"
        );
        Self {
            layers,
            rng: fmore_numerics::seeded_rng(SCRATCH_RNG_SEED),
        }
    }

    /// Reseeds the scratch RNG driving stochastic layers back to its construction state.
    ///
    /// A worker slot that reuses one model instance across rounds calls this before every
    /// round so its dropout stream matches what a fresh clone of the (never-trained) global
    /// model would see — keeping slot reuse bit-identical to the clone-per-round path.
    pub fn reset_scratch_rng(&mut self) {
        self.rng = fmore_numerics::seeded_rng(SCRATCH_RNG_SEED);
    }

    /// Runs the forward pass over the batch already gathered into `arena.activations[0]`,
    /// writing each layer's output into its arena slot. The logits end up in the last
    /// activation buffer.
    fn forward_arena(&mut self, arena: &mut ScratchArena, training: bool) {
        arena.ensure_layers(self.layers.len());
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let (inputs, outputs) = arena.activations.split_at_mut(i + 1);
            layer.forward_into(&inputs[i], &mut outputs[0], training, &mut self.rng);
        }
    }

    /// Runs one epoch of mini-batch SGD against a caller-owned scratch arena — the
    /// allocation-free form of [`Model::train_epoch`], bit-identical to it.
    ///
    /// The arena only decides where intermediates live; after a warm-up pass at the largest
    /// batch shape the epoch performs zero matrix allocations.
    pub fn train_epoch_in(
        &mut self,
        arena: &mut ScratchArena,
        data: &Dataset,
        indices: &[usize],
        learning_rate: f64,
        batch_size: usize,
        rng: &mut StdRng,
    ) -> f64 {
        if indices.is_empty() {
            return 0.0;
        }
        arena.order.clear();
        arena.order.extend_from_slice(indices);
        fmore_numerics::rng::shuffle(&mut arena.order, rng);
        arena.ensure_layers(self.layers.len());
        let batch_size = batch_size.max(1);
        let n = arena.order.len();
        let mut total_loss = 0.0;
        let mut batches = 0;
        let mut start = 0;
        while start < n {
            let end = (start + batch_size).min(n);
            // Gather the mini-batch into the arena (the chunk is copied out of `order`
            // borrow-free by splitting the borrow below).
            {
                let ScratchArena {
                    activations,
                    labels,
                    order,
                    ..
                } = arena;
                data.batch_into(&order[start..end], &mut activations[0], labels);
            }
            self.forward_arena(arena, true);
            let logits = &arena.activations[self.layers.len()];
            let loss = softmax_cross_entropy_into(logits, &arena.labels, &mut arena.grad_a);
            // Backward: ping-pong the gradient between the two arena buffers. Nothing reads
            // the first layer's input gradient, so it only accumulates its parameters'.
            let (first, rest) = self
                .layers
                .split_first_mut()
                .expect("a Sequential model has at least one layer");
            for layer in rest.iter_mut().rev() {
                layer.backward_into(&arena.grad_a, &mut arena.grad_b);
                std::mem::swap(&mut arena.grad_a, &mut arena.grad_b);
            }
            first.backward_params(&arena.grad_a, &mut arena.grad_b);
            for layer in &mut self.layers {
                layer.apply_gradients(learning_rate);
            }
            total_loss += loss;
            batches += 1;
            start = end;
        }
        total_loss / batches as f64
    }

    /// Evaluates loss and accuracy against a caller-owned scratch arena — the
    /// allocation-free form of [`Model::evaluate`], bit-identical to it.
    ///
    /// Takes `&mut self` because layer caches (scratch state, not parameters) are written
    /// during the forward pass; parameters and the dropout RNG are untouched.
    pub fn evaluate_in(
        &mut self,
        arena: &mut ScratchArena,
        data: &Dataset,
        indices: &[usize],
    ) -> Evaluation {
        if indices.is_empty() {
            return Evaluation::default();
        }
        arena.ensure_layers(self.layers.len());
        let mut total_loss = 0.0;
        let mut correct = 0usize;
        let mut count = 0usize;
        for chunk in indices.chunks(256) {
            {
                let ScratchArena {
                    activations,
                    labels,
                    ..
                } = arena;
                data.batch_into(chunk, &mut activations[0], labels);
            }
            self.forward_arena(arena, false);
            let logits = &arena.activations[self.layers.len()];
            let loss = softmax_cross_entropy_into(logits, &arena.labels, &mut arena.grad_a);
            total_loss += loss * chunk.len() as f64;
            for (r, &label) in arena.labels.iter().enumerate() {
                if row_argmax(logits.row(r)) == label {
                    correct += 1;
                }
            }
            count += chunk.len();
        }
        Evaluation {
            loss: total_loss / count as f64,
            accuracy: correct as f64 / count as f64,
        }
    }
}

#[cfg(test)]
impl Sequential {
    /// Layer names in order.
    pub(crate) fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// The evaluation-mode logits of `data`'s samples `indices`, through the arena forward
    /// pass that training and evaluation run.
    pub(crate) fn logits(&mut self, data: &Dataset, indices: &[usize]) -> crate::matrix::Matrix {
        let mut arena = ScratchArena::new();
        arena.ensure_layers(self.layers.len());
        {
            let ScratchArena {
                activations,
                labels,
                ..
            } = &mut arena;
            data.batch_into(indices, &mut activations[0], labels);
        }
        self.forward_arena(&mut arena, false);
        arena.activations[self.layers.len()].clone()
    }
}

impl Model for Sequential {
    fn parameters(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_parameters());
        self.parameters_into(&mut out);
        out
    }

    fn parameters_into(&self, out: &mut Vec<f64>) {
        out.clear();
        for layer in &self.layers {
            layer.write_params(out);
        }
    }

    fn set_parameters(&mut self, params: &[f64]) {
        assert_eq!(
            params.len(),
            self.num_parameters(),
            "parameter vector length mismatch"
        );
        let mut offset = 0;
        for layer in &mut self.layers {
            offset += layer.read_params(&params[offset..]);
        }
        debug_assert_eq!(offset, params.len());
    }

    fn num_parameters(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    fn train_epoch(
        &mut self,
        data: &Dataset,
        indices: &[usize],
        learning_rate: f64,
        batch_size: usize,
        rng: &mut StdRng,
    ) -> f64 {
        let mut arena = ScratchArena::default();
        self.train_epoch_in(&mut arena, data, indices, learning_rate, batch_size, rng)
    }

    fn evaluate(&self, data: &Dataset, indices: &[usize]) -> Evaluation {
        // Evaluation must not mutate the model; run on a scratch clone so layer caches stay
        // untouched for callers holding `&self`.
        let mut scratch = self.clone();
        let mut arena = ScratchArena::default();
        scratch.evaluate_in(&mut arena, data, indices)
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticImageSpec;
    use crate::layers::{Activation, Dense};
    use crate::matrix::Matrix;
    use fmore_numerics::seeded_rng;

    fn tiny_mlp(input: usize, classes: usize, seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        Sequential::new(vec![
            Box::new(Dense::new(input, 16, &mut rng)),
            Box::new(Activation::relu()),
            Box::new(Dense::new(16, classes, &mut rng)),
        ])
    }

    #[test]
    fn parameter_roundtrip_and_count() {
        let model = tiny_mlp(8, 4, 1);
        let params = model.parameters();
        assert_eq!(params.len(), model.num_parameters());
        assert_eq!(params.len(), 8 * 16 + 16 + 16 * 4 + 4);
        let mut other = tiny_mlp(8, 4, 2);
        assert_ne!(other.parameters(), params);
        other.set_parameters(&params);
        assert_eq!(other.parameters(), params);
        assert_eq!(model.layer_names(), vec!["dense", "relu", "dense"]);
        assert!(format!("{model:?}").contains("dense"));
        // The borrowed-view forms agree with the owning forms.
        let mut buf = vec![42.0; 3];
        model.parameters_into(&mut buf);
        assert_eq!(buf, params);
        let mut third = tiny_mlp(8, 4, 3);
        third.apply_parameters(&buf);
        assert_eq!(third.parameters(), params);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_parameter_length_is_rejected() {
        let mut model = tiny_mlp(8, 4, 1);
        model.set_parameters(&[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_model_is_rejected() {
        let _ = Sequential::new(vec![]);
    }

    #[test]
    fn training_improves_accuracy_on_easy_task() {
        let mut rng = seeded_rng(3);
        let data = SyntheticImageSpec::mnist_like().generate(300, &mut rng);
        let mut model = tiny_mlp(data.feature_dim(), data.num_classes(), 4);
        let all: Vec<usize> = (0..data.len()).collect();
        let before = model.evaluate(&data, &all);
        let mut last_loss = f64::INFINITY;
        for _ in 0..8 {
            last_loss = model.train_epoch(&data, &all, 0.1, 32, &mut rng);
        }
        let after = model.evaluate(&data, &all);
        assert!(
            after.accuracy > before.accuracy + 0.2,
            "{:?} -> {:?}",
            before,
            after
        );
        assert!(after.loss < before.loss);
        assert!(last_loss < 2.0);
    }

    #[test]
    fn arena_and_allocating_paths_agree_bit_for_bit() {
        let mut data_rng = seeded_rng(30);
        let data = SyntheticImageSpec::mnist_like().generate(120, &mut data_rng);
        let all: Vec<usize> = (0..data.len()).collect();
        let mut a = tiny_mlp(data.feature_dim(), data.num_classes(), 31);
        let mut b = a.clone();
        let mut arena = ScratchArena::new();
        let mut rng_a = seeded_rng(32);
        let mut rng_b = seeded_rng(32);
        for _ in 0..3 {
            let la = a.train_epoch(&data, &all, 0.1, 17, &mut rng_a);
            let lb = b.train_epoch_in(&mut arena, &data, &all, 0.1, 17, &mut rng_b);
            assert_eq!(la.to_bits(), lb.to_bits());
            assert_eq!(a.parameters(), b.parameters());
        }
        let ea = a.evaluate(&data, &all);
        let eb = b.evaluate_in(&mut arena, &data, &all);
        assert_eq!(ea, eb);
    }

    #[test]
    fn steady_state_epoch_is_allocation_free() {
        let mut rng = seeded_rng(33);
        let data = SyntheticImageSpec::mnist_like().generate(200, &mut rng);
        let all: Vec<usize> = (0..data.len()).collect();
        let mut model = tiny_mlp(data.feature_dim(), data.num_classes(), 34);
        let mut arena = ScratchArena::new();
        // Warm-up epoch sizes every buffer (including the smaller trailing batch).
        model.train_epoch_in(&mut arena, &data, &all, 0.1, 32, &mut rng);
        model.evaluate_in(&mut arena, &data, &all);
        crate::matrix::alloc_count::reset();
        for _ in 0..3 {
            model.train_epoch_in(&mut arena, &data, &all, 0.1, 32, &mut rng);
        }
        let eval = model.evaluate_in(&mut arena, &data, &all);
        assert_eq!(
            crate::matrix::alloc_count::count(),
            0,
            "steady-state training and evaluation must perform zero matrix allocations"
        );
        assert!(eval.accuracy > 0.0);
    }

    /// A layer that forwards everything to `inner` except [`Layer::backward_params`], which
    /// it leaves at the trait default: the full backward pass, input gradient included.
    struct NeverSkips(Box<dyn Layer>);

    impl Layer for NeverSkips {
        fn forward_into(&mut self, x: &Matrix, out: &mut Matrix, training: bool, rng: &mut StdRng) {
            self.0.forward_into(x, out, training, rng);
        }
        fn backward_into(&mut self, grad_output: &Matrix, grad_input: &mut Matrix) {
            self.0.backward_into(grad_output, grad_input);
        }
        fn param_count(&self) -> usize {
            self.0.param_count()
        }
        fn write_params(&self, out: &mut Vec<f64>) {
            self.0.write_params(out);
        }
        fn read_params(&mut self, src: &[f64]) -> usize {
            self.0.read_params(src)
        }
        fn apply_gradients(&mut self, lr: f64) {
            self.0.apply_gradients(lr);
        }
        fn clone_layer(&self) -> Box<dyn Layer> {
            Box::new(NeverSkips(self.0.clone_layer()))
        }
        fn name(&self) -> &'static str {
            self.0.name()
        }
    }

    /// The first layer's skipped input gradient is bit-invisible: an epoch of the paper CNN
    /// (conv first) and of the MLP (dense first) ends on the parameters of a twin whose
    /// first layer runs the full backward pass.
    #[test]
    fn skipping_the_first_layers_input_gradient_moves_no_parameter_bit() {
        use crate::layers::{Conv2d, ImageShape, MaxPool2d};
        let mut data_rng = seeded_rng(50);
        let data = SyntheticImageSpec::mnist_like().generate(90, &mut data_rng);
        let all: Vec<usize> = (0..data.len()).collect();
        let cnn = |rng: &mut StdRng| -> Vec<Box<dyn Layer>> {
            let conv = Conv2d::new(ImageShape::new(1, 8, 8), 4, 3, rng);
            let pool = MaxPool2d::new(conv.output_shape());
            let flat = pool.output_shape().flat_len();
            vec![
                Box::new(conv),
                Box::new(Activation::relu()),
                Box::new(pool),
                Box::new(Dense::new(flat, 10, rng)),
            ]
        };
        let mlp = |rng: &mut StdRng| -> Vec<Box<dyn Layer>> {
            vec![
                Box::new(Dense::new(64, 16, rng)),
                Box::new(Activation::relu()),
                Box::new(Dense::new(16, 10, rng)),
            ]
        };
        for (layers, mut twin_layers) in [
            (cnn(&mut seeded_rng(51)), cnn(&mut seeded_rng(51))),
            (mlp(&mut seeded_rng(51)), mlp(&mut seeded_rng(51))),
        ] {
            let mut skipping = Sequential::new(layers);
            let first = twin_layers.remove(0);
            twin_layers.insert(0, Box::new(NeverSkips(first)));
            let mut full = Sequential::new(twin_layers);
            assert_eq!(skipping.parameters(), full.parameters());
            let loss_s = skipping.train_epoch(&data, &all, 0.1, 20, &mut seeded_rng(52));
            let loss_f = full.train_epoch(&data, &all, 0.1, 20, &mut seeded_rng(52));
            assert_eq!(loss_s.to_bits(), loss_f.to_bits());
            let bits = |m: &Sequential| -> Vec<u64> {
                m.parameters().iter().map(|p| p.to_bits()).collect()
            };
            assert_eq!(bits(&skipping), bits(&full));
        }
    }

    /// The paper CNN's im2col scratch lives in its layers and is sized by `Matrix::resize`:
    /// once a training batch and a full 256-row evaluation chunk have been seen, alternating
    /// between the two shapes allocates no matrix.
    #[test]
    fn paper_cnn_alternating_train_and_eval_is_allocation_free() {
        let spec = SyntheticImageSpec::mnist_like();
        let mut rng = seeded_rng(53);
        let data = spec.generate(256, &mut rng);
        let batch: Vec<usize> = (0..20).collect();
        let chunk: Vec<usize> = (0..256).collect();
        let mut model = crate::models::cnn_mnist(&spec, &mut rng);
        let mut arena = ScratchArena::new();
        let mut cycle = |model: &mut Sequential, rng: &mut StdRng| {
            model.train_epoch_in(&mut arena, &data, &batch, 0.05, 20, rng);
            model.evaluate_in(&mut arena, &data, &chunk);
            model.train_epoch_in(&mut arena, &data, &batch, 0.05, 20, rng);
        };
        cycle(&mut model, &mut rng);
        crate::matrix::alloc_count::reset();
        cycle(&mut model, &mut rng);
        assert_eq!(
            crate::matrix::alloc_count::count(),
            0,
            "a warmed-up paper CNN must not allocate matrices, whichever batch shape comes next"
        );
    }

    #[test]
    fn scratch_rng_reset_restores_the_construction_stream() {
        use crate::layers::Dropout;
        let mut rng = seeded_rng(35);
        let mut data_rng = seeded_rng(36);
        let data = SyntheticImageSpec::mnist_like().generate(40, &mut data_rng);
        let all: Vec<usize> = (0..data.len()).collect();
        let build = |rng: &mut StdRng| {
            Sequential::new(vec![
                Box::new(Dense::new(64, 16, rng)) as Box<dyn Layer>,
                Box::new(Dropout::new(0.5)),
                Box::new(Dense::new(16, 10, rng)),
            ])
        };
        let template = build(&mut rng);
        // Path A: fresh clone per round (the pre-refactor behaviour).
        let mut cloned = template.clone();
        cloned.train_epoch(&data, &all, 0.1, 16, &mut seeded_rng(37));
        // Path B: reused instance, trained once already, then reset.
        let mut reused = template.clone();
        reused.train_epoch(&data, &all, 0.1, 16, &mut seeded_rng(99));
        reused.set_parameters(&template.parameters());
        reused.reset_scratch_rng();
        reused.train_epoch(&data, &all, 0.1, 16, &mut seeded_rng(37));
        assert_eq!(cloned.parameters(), reused.parameters());
    }

    #[test]
    fn evaluate_does_not_change_parameters() {
        let mut rng = seeded_rng(5);
        let data = SyntheticImageSpec::mnist_like().generate(50, &mut rng);
        let model = tiny_mlp(data.feature_dim(), 10, 6);
        let before = model.parameters();
        let _ = model.evaluate(&data, &(0..data.len()).collect::<Vec<_>>());
        assert_eq!(model.parameters(), before);
    }

    #[test]
    fn empty_index_sets_are_handled() {
        let mut rng = seeded_rng(6);
        let data = SyntheticImageSpec::mnist_like().generate(10, &mut rng);
        let mut model = tiny_mlp(data.feature_dim(), 10, 7);
        assert_eq!(model.train_epoch(&data, &[], 0.1, 8, &mut rng), 0.0);
        let eval = model.evaluate(&data, &[]);
        assert_eq!(eval, Evaluation::default());
        let mut arena = ScratchArena::new();
        assert_eq!(
            model.train_epoch_in(&mut arena, &data, &[], 0.1, 8, &mut rng),
            0.0
        );
        assert_eq!(
            model.evaluate_in(&mut arena, &data, &[]),
            Evaluation::default()
        );
    }

    #[test]
    fn cloned_model_diverges_after_independent_training() {
        let mut rng = seeded_rng(8);
        let data = SyntheticImageSpec::mnist_like().generate(60, &mut rng);
        let model = tiny_mlp(data.feature_dim(), 10, 9);
        let mut clone = model.clone_model();
        assert_eq!(clone.parameters(), model.parameters());
        clone.train_epoch(
            &data,
            &(0..data.len()).collect::<Vec<_>>(),
            0.1,
            16,
            &mut rng,
        );
        assert_ne!(clone.parameters(), model.parameters());
    }
}
