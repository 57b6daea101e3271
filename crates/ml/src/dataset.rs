//! Synthetic datasets standing in for MNIST, Fashion-MNIST, CIFAR-10, and the HuffPost news
//! corpus.
//!
//! The paper's evaluation does not depend on the pixel statistics of the real datasets; it
//! depends on (a) a 10-class classification task, (b) accuracy being an increasing, concave
//! function of the amount and category diversity of training data a selected client holds,
//! and (c) a difficulty ordering MNIST < Fashion-MNIST < CIFAR-10 ≈ HPNews that makes the gap
//! between selection strategies grow with task difficulty. The generators below preserve all
//! three properties (see DESIGN.md, "Substitutions"):
//!
//! * **image tasks** — each class has a random prototype "image"; samples are the prototype
//!   plus Gaussian noise, with difficulty controlled by the noise-to-signal ratio,
//! * **text task** — each class has a token distribution over a small vocabulary; a sample is
//!   a token sequence drawn from a mixture of its class distribution and a background
//!   distribution, one-hot encoded per timestep for the LSTM.

use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// Which of the paper's four tasks a dataset emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// MNIST digits (easiest image task, "MNIST-O" in the paper).
    MnistO,
    /// Fashion-MNIST ("MNIST-F").
    MnistF,
    /// CIFAR-10 (hardest image task).
    Cifar10,
    /// HuffPost news-headline classification ("HPNews"), a sequence task.
    HpNews,
}

impl TaskKind {
    /// Human-readable name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            TaskKind::MnistO => "MNIST-O",
            TaskKind::MnistF => "MNIST-F",
            TaskKind::Cifar10 => "CIFAR-10",
            TaskKind::HpNews => "HPNews",
        }
    }
}

/// A labelled dataset with dense feature rows.
#[derive(Debug, Clone)]
pub struct Dataset {
    features: Matrix,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    /// Wraps features and labels into a dataset.
    ///
    /// # Panics
    ///
    /// Panics if the number of label entries differs from the number of feature rows or a
    /// label is out of range.
    pub(crate) fn new(features: Matrix, labels: Vec<usize>, num_classes: usize) -> Self {
        assert_eq!(
            features.rows(),
            labels.len(),
            "one label per feature row is required"
        );
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "labels must be < num_classes"
        );
        Self {
            features,
            labels,
            num_classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Width of each feature row.
    pub fn feature_dim(&self) -> usize {
        self.features.cols()
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The labels.
    pub(crate) fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Assembles a mini-batch `(features, labels)` for the given sample indices.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub fn batch(&self, indices: &[usize]) -> (Matrix, Vec<usize>) {
        let mut x = Matrix::default();
        let mut y = Vec::new();
        self.batch_into(indices, &mut x, &mut y);
        (x, y)
    }

    /// Gathers a mini-batch into caller-owned buffers (the allocation-free form of
    /// [`Dataset::batch`] used by the scratch-arena training loop).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    pub(crate) fn batch_into(&self, indices: &[usize], x: &mut Matrix, y: &mut Vec<usize>) {
        self.features.batch_gather_into(indices, x);
        y.clear();
        y.extend(indices.iter().map(|&i| self.labels[i]));
    }

    /// Number of distinct classes present among the given sample indices (the "data
    /// category" resource `q2` of the paper's simulator).
    pub fn category_count(&self, indices: &[usize]) -> usize {
        let mut seen = vec![false; self.num_classes];
        for &i in indices {
            seen[self.labels[i]] = true;
        }
        seen.iter().filter(|&&s| s).count()
    }
}

/// Specification of a synthetic image-classification task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticImageSpec {
    /// Number of channels (1 for the MNIST-like tasks, 3 for CIFAR-like).
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Number of classes.
    pub num_classes: usize,
    /// Noise standard deviation relative to the unit-norm class prototypes; larger values
    /// make the task harder.
    pub noise: f64,
    /// Which paper task this spec emulates.
    pub task: TaskKind,
    /// Seed for the class prototypes (fixed per task so train/test splits share prototypes).
    pub prototype_seed: u64,
}

impl SyntheticImageSpec {
    /// The MNIST-O stand-in: 8×8 single-channel images, low noise.
    pub fn mnist_like() -> Self {
        Self {
            channels: 1,
            height: 8,
            width: 8,
            num_classes: 10,
            noise: 0.6,
            task: TaskKind::MnistO,
            prototype_seed: 1001,
        }
    }

    /// The Fashion-MNIST stand-in: 8×8 single-channel images, medium noise.
    pub(crate) fn fashion_like() -> Self {
        Self {
            channels: 1,
            height: 8,
            width: 8,
            num_classes: 10,
            noise: 1.0,
            task: TaskKind::MnistF,
            prototype_seed: 1002,
        }
    }

    /// The CIFAR-10 stand-in: 8×8 three-channel images, high noise.
    pub(crate) fn cifar_like() -> Self {
        Self {
            channels: 3,
            height: 8,
            width: 8,
            num_classes: 10,
            noise: 1.6,
            task: TaskKind::Cifar10,
            prototype_seed: 1003,
        }
    }

    /// Flattened feature width.
    pub(crate) fn feature_dim(&self) -> usize {
        self.channels * self.height * self.width
    }

    /// Generates `n` samples with balanced class labels.
    pub fn generate(&self, n: usize, rng: &mut StdRng) -> Dataset {
        let dim = self.feature_dim();
        // Class prototypes are drawn from a dedicated RNG so every call (train set, test set,
        // different clients) sees the same class structure.
        let mut proto_rng = fmore_numerics::seeded_rng(self.prototype_seed);
        let prototypes: Vec<Vec<f64>> = (0..self.num_classes)
            .map(|_| (0..dim).map(|_| proto_rng.gen_range(-1.0..1.0)).collect())
            .collect();

        let mut features = Matrix::zeros(n, dim);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = rng.gen_range(0..self.num_classes);
            labels.push(class);
            let row = features.row_mut(i);
            for (j, v) in row.iter_mut().enumerate() {
                *v = prototypes[class][j] + self.noise * gaussian(rng);
            }
        }
        Dataset::new(features, labels, self.num_classes)
    }
}

/// Specification of the synthetic news-headline (sequence) task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticTextSpec {
    /// Sequence length (tokens per headline).
    pub seq_len: usize,
    /// Vocabulary size; each timestep is a one-hot vector of this width.
    pub vocab: usize,
    /// Number of classes (news categories).
    pub num_classes: usize,
    /// Probability that a token is drawn from the class-specific distribution rather than the
    /// shared background distribution; smaller values make the task harder.
    pub signal: f64,
    /// Seed for the class token distributions.
    pub prototype_seed: u64,
}

impl SyntheticTextSpec {
    /// The HPNews stand-in: 12-token headlines over a 32-token vocabulary, 10 categories.
    pub fn hpnews_like() -> Self {
        Self {
            seq_len: 12,
            vocab: 32,
            num_classes: 10,
            signal: 0.45,
            prototype_seed: 2001,
        }
    }

    /// Flattened feature width (`seq_len · vocab`).
    pub(crate) fn feature_dim(&self) -> usize {
        self.seq_len * self.vocab
    }

    /// Generates `n` one-hot-encoded headline samples.
    pub fn generate(&self, n: usize, rng: &mut StdRng) -> Dataset {
        let mut proto_rng = fmore_numerics::seeded_rng(self.prototype_seed);
        // Each class prefers a handful of "topic" tokens.
        let topic_tokens: Vec<Vec<usize>> = (0..self.num_classes)
            .map(|_| (0..4).map(|_| proto_rng.gen_range(0..self.vocab)).collect())
            .collect();

        let mut features = Matrix::zeros(n, self.feature_dim());
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = rng.gen_range(0..self.num_classes);
            labels.push(class);
            let row = features.row_mut(i);
            for t in 0..self.seq_len {
                let token = if rng.gen::<f64>() < self.signal {
                    topic_tokens[class][rng.gen_range(0..topic_tokens[class].len())]
                } else {
                    rng.gen_range(0..self.vocab)
                };
                row[t * self.vocab + token] = 1.0;
            }
        }
        Dataset::new(features, labels, self.num_classes)
    }
}

/// Standard normal sample via Box–Muller.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Builds the spec for an image task of the given kind.
///
/// # Panics
///
/// Panics if called with [`TaskKind::HpNews`]; use [`SyntheticTextSpec::hpnews_like`] instead.
pub fn image_spec_for(task: TaskKind) -> SyntheticImageSpec {
    match task {
        TaskKind::MnistO => SyntheticImageSpec::mnist_like(),
        TaskKind::MnistF => SyntheticImageSpec::fashion_like(),
        TaskKind::Cifar10 => SyntheticImageSpec::cifar_like(),
        TaskKind::HpNews => panic!("HPNews is a sequence task; use SyntheticTextSpec"),
    }
}

#[cfg(test)]
impl Dataset {
    /// The feature matrix.
    pub(crate) fn features(&self) -> &Matrix {
        &self.features
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmore_numerics::seeded_rng;

    #[test]
    fn dataset_accessors_and_batching() {
        let mut rng = seeded_rng(1);
        let data = SyntheticImageSpec::mnist_like().generate(50, &mut rng);
        assert_eq!(data.len(), 50);
        assert!(!data.is_empty());
        assert_eq!(data.feature_dim(), 64);
        assert_eq!(data.num_classes(), 10);
        assert_eq!(data.features().rows(), 50);
        assert_eq!(data.labels().len(), 50);
        let (x, y) = data.batch(&[0, 5, 7]);
        assert_eq!(x.rows(), 3);
        assert_eq!(y.len(), 3);
        assert!(data.category_count(&(0..50).collect::<Vec<_>>()) > 5);
    }

    #[test]
    #[should_panic(expected = "one label per feature row")]
    fn mismatched_labels_are_rejected() {
        let _ = Dataset::new(Matrix::zeros(3, 4), vec![0, 1], 2);
    }

    #[test]
    #[should_panic(expected = "labels must be <")]
    fn out_of_range_label_is_rejected() {
        let _ = Dataset::new(Matrix::zeros(2, 4), vec![0, 5], 2);
    }

    #[test]
    fn specs_match_paper_task_structure() {
        assert_eq!(SyntheticImageSpec::mnist_like().channels, 1);
        assert_eq!(SyntheticImageSpec::cifar_like().channels, 3);
        assert!(SyntheticImageSpec::mnist_like().noise < SyntheticImageSpec::fashion_like().noise);
        assert!(SyntheticImageSpec::fashion_like().noise < SyntheticImageSpec::cifar_like().noise);
        assert_eq!(SyntheticTextSpec::hpnews_like().num_classes, 10);
        assert_eq!(TaskKind::MnistF.name(), "MNIST-F");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = SyntheticImageSpec::cifar_like().generate(20, &mut seeded_rng(3));
        let b = SyntheticImageSpec::cifar_like().generate(20, &mut seeded_rng(3));
        assert_eq!(a.features().data(), b.features().data());
        assert_eq!(a.labels(), b.labels());
    }

    #[test]
    fn prototypes_are_shared_across_generations() {
        // Two independently generated sets of the same task must be classifiable by the same
        // model, i.e. same-class means should be closer than different-class means.
        let spec = SyntheticImageSpec::mnist_like();
        let train = spec.generate(400, &mut seeded_rng(10));
        let test = spec.generate(400, &mut seeded_rng(11));
        let class_mean = |d: &Dataset, class: usize| -> Vec<f64> {
            let idx: Vec<usize> = (0..d.len()).filter(|&i| d.labels()[i] == class).collect();
            let mut mean = vec![0.0; d.feature_dim()];
            for &i in &idx {
                for (m, v) in mean.iter_mut().zip(d.features().row(i)) {
                    *m += v;
                }
            }
            mean.iter().map(|m| m / idx.len().max(1) as f64).collect()
        };
        let dist = |a: &[f64], b: &[f64]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        let same = dist(&class_mean(&train, 0), &class_mean(&test, 0));
        let different = dist(&class_mean(&train, 0), &class_mean(&test, 1));
        assert!(
            same < different,
            "class structure must persist across generations"
        );
    }

    #[test]
    fn text_samples_are_one_hot_per_timestep() {
        let spec = SyntheticTextSpec::hpnews_like();
        let data = spec.generate(10, &mut seeded_rng(5));
        assert_eq!(data.feature_dim(), spec.feature_dim());
        for i in 0..data.len() {
            let row = data.features().row(i);
            for t in 0..spec.seq_len {
                let ones: f64 = row[t * spec.vocab..(t + 1) * spec.vocab].iter().sum();
                assert!((ones - 1.0).abs() < 1e-12, "each timestep must be one-hot");
            }
        }
    }

    #[test]
    fn image_spec_lookup_covers_image_tasks() {
        assert_eq!(image_spec_for(TaskKind::MnistO).task, TaskKind::MnistO);
        assert_eq!(image_spec_for(TaskKind::Cifar10).channels, 3);
    }

    #[test]
    #[should_panic(expected = "sequence task")]
    fn image_spec_lookup_rejects_text() {
        let _ = image_spec_for(TaskKind::HpNews);
    }
}
