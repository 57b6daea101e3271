//! Ready-made model builders mirroring the paper's architectures.
//!
//! The paper trains (footnotes 1 and 2 of Section V-A):
//!
//! * an 8-layer CNN for MNIST-O / MNIST-F: conv → conv → max-pool → dropout → flatten →
//!   dense 128 → dropout → dense 10 → softmax,
//! * an 11-layer CNN for CIFAR-10: conv → dropout → max-pool → conv → dropout → max-pool →
//!   flatten → dropout → dense 1024 → dropout → dense 10 → softmax,
//! * an LSTM classifier for the HuffPost headlines.
//!
//! The builders below reproduce those layer sequences, scaled down to the synthetic 8×8
//! image tasks and the 32-token vocabulary so that federated experiments with 100 clients
//! finish in seconds rather than hours. A plain MLP and a logistic-regression model are
//! included as cheap baselines for tests and quick experiments.

use crate::dataset::{SyntheticImageSpec, SyntheticTextSpec, TaskKind};
use crate::layers::{Activation, Conv2d, Dense, Dropout, ImageShape, Layer, Lstm, MaxPool2d};
use crate::model::Sequential;
use rand::rngs::StdRng;

/// The CNN used for the MNIST-O and MNIST-F stand-ins (paper footnote 1, scaled).
pub(crate) fn cnn_mnist(spec: &SyntheticImageSpec, rng: &mut StdRng) -> Sequential {
    let input = ImageShape::new(spec.channels, spec.height, spec.width);
    let conv1 = Conv2d::new(input, 8, 3, rng);
    let shape1 = conv1.output_shape();
    let conv2 = Conv2d::new(shape1, 16, 3, rng);
    let shape2 = conv2.output_shape();
    let pool = MaxPool2d::new(shape2);
    let pooled = pool.output_shape();
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(conv1),
        Box::new(Activation::relu()),
        Box::new(conv2),
        Box::new(Activation::relu()),
        Box::new(pool),
        Box::new(Dropout::new(0.25)),
        Box::new(Dense::new(pooled.flat_len(), 64, rng)),
        Box::new(Activation::relu()),
        Box::new(Dropout::new(0.25)),
        Box::new(Dense::new(64, spec.num_classes, rng)),
    ];
    Sequential::new(layers)
}

/// The CNN used for the CIFAR-10 stand-in (paper footnote 2, scaled).
pub(crate) fn cnn_cifar(spec: &SyntheticImageSpec, rng: &mut StdRng) -> Sequential {
    let input = ImageShape::new(spec.channels, spec.height, spec.width);
    let conv1 = Conv2d::new(input, 16, 3, rng);
    let shape1 = conv1.output_shape();
    let pool1 = MaxPool2d::new(shape1);
    let pooled1 = pool1.output_shape();
    let conv2 = Conv2d::new(pooled1, 32, 2, rng);
    let shape2 = conv2.output_shape();
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(conv1),
        Box::new(Activation::relu()),
        Box::new(Dropout::new(0.2)),
        Box::new(pool1),
        Box::new(conv2),
        Box::new(Activation::relu()),
        Box::new(Dropout::new(0.2)),
        Box::new(Dense::new(shape2.flat_len(), 128, rng)),
        Box::new(Activation::relu()),
        Box::new(Dropout::new(0.2)),
        Box::new(Dense::new(128, spec.num_classes, rng)),
    ];
    Sequential::new(layers)
}

/// The LSTM classifier used for the HPNews stand-in.
pub(crate) fn lstm_text(spec: &SyntheticTextSpec, rng: &mut StdRng) -> Sequential {
    let lstm = Lstm::new(spec.seq_len, spec.vocab, 32, rng);
    let hidden = lstm.hidden_dim();
    let layers: Vec<Box<dyn Layer>> = vec![
        Box::new(lstm),
        Box::new(Dense::new(hidden, spec.num_classes, rng)),
    ];
    Sequential::new(layers)
}

/// A two-layer MLP baseline over flat features.
pub fn mlp_classifier(input_dim: usize, num_classes: usize, rng: &mut StdRng) -> Sequential {
    Sequential::new(vec![
        Box::new(Dense::new(input_dim, 32, rng)),
        Box::new(Activation::relu()),
        Box::new(Dense::new(32, num_classes, rng)),
    ])
}

/// Builds the paper's model for a task, matching Section V-A's model/dataset pairing
/// (CNN for the image tasks, LSTM for HPNews).
pub fn model_for_task(task: TaskKind, rng: &mut StdRng) -> Sequential {
    match task {
        TaskKind::MnistO => cnn_mnist(&SyntheticImageSpec::mnist_like(), rng),
        TaskKind::MnistF => cnn_mnist(&SyntheticImageSpec::fashion_like(), rng),
        TaskKind::Cifar10 => cnn_cifar(&SyntheticImageSpec::cifar_like(), rng),
        TaskKind::HpNews => lstm_text(&SyntheticTextSpec::hpnews_like(), rng),
    }
}

/// Builds a cheap (MLP / logistic) surrogate model for a task with the same input/output
/// dimensions, used where experiment wall-clock matters more than architecture fidelity.
pub fn fast_model_for_task(task: TaskKind, rng: &mut StdRng) -> Sequential {
    match task {
        TaskKind::MnistO | TaskKind::MnistF | TaskKind::Cifar10 => {
            let spec = crate::dataset::image_spec_for(task);
            mlp_classifier(spec.feature_dim(), spec.num_classes, rng)
        }
        TaskKind::HpNews => {
            let spec = SyntheticTextSpec::hpnews_like();
            mlp_classifier(spec.feature_dim(), spec.num_classes, rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use fmore_numerics::seeded_rng;

    #[test]
    fn cnn_mnist_has_expected_structure() {
        let mut rng = seeded_rng(1);
        let model = cnn_mnist(&SyntheticImageSpec::mnist_like(), &mut rng);
        let names = model.layer_names();
        assert_eq!(names[0], "conv2d");
        assert!(names.contains(&"maxpool2d"));
        assert!(names.contains(&"dropout"));
        assert_eq!(*names.last().unwrap(), "dense");
        assert!(model.num_parameters() > 1000);
    }

    #[test]
    fn cnn_cifar_handles_three_channels() {
        let mut rng = seeded_rng(2);
        let spec = SyntheticImageSpec::cifar_like();
        let mut model = cnn_cifar(&spec, &mut rng);
        let data = spec.generate(8, &mut rng);
        let logits = model.logits(&data, &(0..8).collect::<Vec<_>>());
        assert_eq!(logits.rows(), 8);
        assert_eq!(logits.cols(), 10);
    }

    #[test]
    fn lstm_text_produces_class_logits() {
        let mut rng = seeded_rng(3);
        let spec = SyntheticTextSpec::hpnews_like();
        let mut model = lstm_text(&spec, &mut rng);
        let data = spec.generate(4, &mut rng);
        let logits = model.logits(&data, &(0..4).collect::<Vec<_>>());
        assert_eq!(logits.rows(), 4);
        assert_eq!(logits.cols(), spec.num_classes);
        assert_eq!(model.layer_names(), vec!["lstm", "dense"]);
    }

    #[test]
    fn task_dispatch_matches_paper_pairing() {
        let mut rng = seeded_rng(4);
        assert!(model_for_task(TaskKind::MnistO, &mut rng)
            .layer_names()
            .contains(&"conv2d"));
        assert!(model_for_task(TaskKind::HpNews, &mut rng)
            .layer_names()
            .contains(&"lstm"));
        // Fast surrogates are small MLPs.
        let fast = fast_model_for_task(TaskKind::Cifar10, &mut rng);
        assert_eq!(fast.layer_names(), vec!["dense", "relu", "dense"]);
        let fast_text = fast_model_for_task(TaskKind::HpNews, &mut rng);
        assert_eq!(fast_text.layer_names(), vec!["dense", "relu", "dense"]);
    }

    #[test]
    fn all_models_train_one_step_without_panicking() {
        let mut rng = seeded_rng(5);
        for task in [TaskKind::MnistO, TaskKind::Cifar10] {
            let spec = crate::dataset::image_spec_for(task);
            let data = spec.generate(16, &mut rng);
            let mut model = model_for_task(task, &mut rng);
            let loss = model.train_epoch(&data, &(0..16).collect::<Vec<_>>(), 0.05, 8, &mut rng);
            assert!(loss.is_finite() && loss > 0.0);
        }
        let spec = SyntheticTextSpec::hpnews_like();
        let data = spec.generate(8, &mut rng);
        let mut model = model_for_task(TaskKind::HpNews, &mut rng);
        let loss = model.train_epoch(&data, &(0..8).collect::<Vec<_>>(), 0.05, 4, &mut rng);
        assert!(loss.is_finite() && loss > 0.0);
    }
}
