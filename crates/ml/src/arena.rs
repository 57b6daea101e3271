//! Reusable scratch buffers for the training hot path.
//!
//! One federated round runs `K clients × E epochs × B batches` of forward/backward work, and
//! before this module every batch allocated its activations, gradients, and batch copies
//! afresh. A [`ScratchArena`] owns those buffers instead: the model writes layer outputs
//! into per-layer activation matrices, ping-pongs gradients between two buffers, and gathers
//! mini-batches into a reusable input matrix. Buffers are sized on first use (and whenever a
//! larger batch shows up) and then reused for the life of the arena — steady-state training
//! performs **zero matrix allocations**, which the alloc-counter tests pin.
//!
//! Ownership convention: the arena belongs to the *driver* of the training loop, not the
//! model. The federated round engine keeps one arena per worker-pool slot
//! (`fmore_fl::engine::SlotState`) so parallel clients never contend for scratch memory and
//! nothing is reallocated between rounds; single-shot callers can pass a fresh
//! `ScratchArena::default()` and get the exact same results (the arena never influences
//! numerics, only where intermediates live).

use crate::matrix::Matrix;

/// Reusable buffers for one training/evaluation stream.
///
/// The fields are deliberately simple matrices/vectors rather than anything layer-aware:
/// [`crate::model::Sequential`] resizes them as it goes, so one arena serves any
/// architecture (and can be handed from an MLP to a CNN mid-experiment — the buffers just
/// re-grow once).
#[derive(Debug, Clone, Default)]
pub struct ScratchArena {
    /// `activations[0]` is the gathered input batch; `activations[i + 1]` holds the output
    /// of layer `i`.
    pub(crate) activations: Vec<Matrix>,
    /// Gradient ping buffer (also receives the loss gradient).
    pub(crate) grad_a: Matrix,
    /// Gradient pong buffer.
    pub(crate) grad_b: Matrix,
    /// Labels of the gathered batch.
    pub(crate) labels: Vec<usize>,
    /// Shuffled sample order of the running epoch.
    pub(crate) order: Vec<usize>,
}

impl ScratchArena {
    /// Creates an empty arena; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures the activation chain can hold `layers + 1` matrices (input plus one output
    /// per layer). Existing buffers are kept; missing ones start empty and are sized by the
    /// first forward pass.
    pub(crate) fn ensure_layers(&mut self, layers: usize) {
        if self.activations.len() < layers + 1 {
            self.activations.resize_with(layers + 1, Matrix::default);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_grows_its_activation_chain_once() {
        let mut arena = ScratchArena::new();
        arena.ensure_layers(3);
        assert_eq!(arena.activations.len(), 4);
        // Asking for fewer layers keeps the longer chain (buffers are reused, never shrunk).
        arena.ensure_layers(2);
        assert_eq!(arena.activations.len(), 4);
        arena.ensure_layers(5);
        assert_eq!(arena.activations.len(), 6);
    }
}
