//! From-scratch machine-learning substrate for the FMore reproduction.
//!
//! The paper evaluates FMore with a TensorFlow-based simulator on four datasets (MNIST,
//! Fashion-MNIST, CIFAR-10, HuffPost news headlines) and two model families (CNNs and an
//! LSTM). Mature deep-learning frameworks are not available as offline Rust crates, so this
//! crate implements the required substrate directly:
//!
//! * a small dense [`matrix`] kernel,
//! * neural-network [`layers`] (dense, ReLU, dropout, 2-D convolution, max pooling, LSTM)
//!   with forward and backward passes,
//! * a [`model::Sequential`] container trained by mini-batch SGD with softmax cross-entropy
//!   ([`loss`]),
//! * ready-made [`models`] mirroring the paper's CNN-for-MNIST, CNN-for-CIFAR and
//!   LSTM-for-news architectures (scaled to the synthetic datasets),
//! * synthetic [`dataset`]s that stand in for the four real datasets while preserving the
//!   properties FMore's evaluation depends on (10 classes, per-class structure, a difficulty
//!   ordering, and data volume/diversity driving accuracy),
//! * the non-IID label-shard [`partition`]er used to distribute data across edge nodes.
//!
//! # Example
//!
//! ```
//! use fmore_ml::dataset::SyntheticImageSpec;
//! use fmore_ml::models;
//! use fmore_ml::model::Model;
//! use fmore_numerics::seeded_rng;
//!
//! let mut rng = seeded_rng(7);
//! let data = SyntheticImageSpec::mnist_like().generate(200, &mut rng);
//! let mut model = models::mlp_classifier(data.feature_dim(), 10, &mut rng);
//! let all: Vec<usize> = (0..data.len()).collect();
//! for _ in 0..3 {
//!     model.train_epoch(&data, &all, 0.1, 32, &mut rng);
//! }
//! let eval = model.evaluate(&data, &all);
//! assert!(eval.accuracy > 0.2, "better than chance after a little training");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod arena;
pub mod dataset;
pub mod layers;
pub mod loss;
pub mod matrix;
pub mod model;
pub mod models;
pub mod partition;

pub use arena::ScratchArena;
pub use dataset::{Dataset, SyntheticImageSpec, SyntheticTextSpec, TaskKind};
pub use matrix::Matrix;
pub use model::{Evaluation, Model, Sequential};
pub use partition::{partition_non_iid, ClientShard, PartitionConfig};
