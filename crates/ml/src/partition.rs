//! Non-IID data partitioning across edge nodes.
//!
//! The paper follows McMahan et al.: the training data is distributed across edge nodes in a
//! non-IID fashion, and in the FMore simulator each node's auction resources are its **data
//! size** `q1` and its **data-category proportion** `q2` (number of distinct classes it holds
//! divided by the total number of classes). The partitioner therefore produces shards that
//! vary in both size and class coverage, so that FMore has genuinely better and worse nodes
//! to choose between.

use crate::dataset::Dataset;
use rand::rngs::StdRng;
use rand::Rng;

/// The data shard held by one client (edge node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientShard {
    /// Indices into the global dataset this client owns.
    pub indices: Vec<usize>,
    /// Number of distinct classes present in the shard.
    pub categories: usize,
}

impl ClientShard {
    /// Shard size (the `q1` resource of the simulator).
    pub fn size(&self) -> usize {
        self.indices.len()
    }
}

/// Configuration for the non-IID partitioner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionConfig {
    /// Number of clients to create.
    pub clients: usize,
    /// Minimum and maximum shard size per client.
    pub size_range: (usize, usize),
    /// Minimum and maximum number of distinct classes per client.
    pub category_range: (usize, usize),
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self {
            clients: 100,
            size_range: (50, 500),
            category_range: (2, 10),
        }
    }
}

/// Splits the dataset non-IID: each client first draws a target number of classes from
/// `category_range` and a target size from `size_range`, then samples only from those
/// classes. This reproduces the label-shard style heterogeneity of McMahan et al. while
/// giving every client well-defined `(data size, category proportion)` auction resources.
pub fn partition_non_iid(
    data: &Dataset,
    config: &PartitionConfig,
    rng: &mut StdRng,
) -> Vec<ClientShard> {
    assert!(config.clients > 0, "at least one client is required");
    assert!(!data.is_empty(), "cannot partition an empty dataset");
    let num_classes = data.num_classes();
    let (size_lo, size_hi) = normalized_size_range(config.size_range, data.len());
    let cat_lo = config.category_range.0.clamp(1, num_classes);
    let cat_hi = config.category_range.1.clamp(cat_lo, num_classes);

    // Pre-compute per-class index pools in one flat counting-sort layout (one buffer plus
    // per-class offsets) instead of `num_classes` separately allocated vectors. Within each
    // class the sample indices appear in ascending order, exactly as the per-class `push`
    // layout produced.
    let buckets = ClassBuckets::build(data.labels(), num_classes);

    (0..config.clients)
        .map(|_| {
            let n_categories = rng.gen_range(cat_lo..=cat_hi);
            let size = rng.gen_range(size_lo..=size_hi);
            // Choose which classes this client observes.
            let mut classes: Vec<usize> = (0..num_classes).collect();
            fmore_numerics::rng::shuffle(&mut classes, rng);
            let chosen: Vec<usize> = classes
                .into_iter()
                .filter(|&c| !buckets.class(c).is_empty())
                .take(n_categories)
                .collect();
            // Sample the shard from the chosen classes only.
            let mut indices = Vec::with_capacity(size);
            if !chosen.is_empty() {
                for _ in 0..size {
                    let class = chosen[rng.gen_range(0..chosen.len())];
                    let pool = buckets.class(class);
                    indices.push(pool[rng.gen_range(0..pool.len())]);
                }
            }
            let categories = data.category_count(&indices);
            ClientShard {
                indices,
                categories,
            }
        })
        .collect()
}

/// Per-class sample-index pools stored as one flat buffer plus offsets — two allocations
/// for the whole dataset instead of one `Vec` per class.
struct ClassBuckets {
    /// All sample indices, grouped by class; within a class, ascending.
    flat: Vec<usize>,
    /// `offsets[c]..offsets[c + 1]` is class `c`'s slice of `flat`.
    offsets: Vec<usize>,
}

impl ClassBuckets {
    fn build(labels: &[usize], num_classes: usize) -> Self {
        let mut offsets = vec![0usize; num_classes + 1];
        for &label in labels {
            offsets[label + 1] += 1;
        }
        for c in 0..num_classes {
            offsets[c + 1] += offsets[c];
        }
        let mut flat = vec![0usize; labels.len()];
        let mut cursor = offsets.clone();
        for (i, &label) in labels.iter().enumerate() {
            flat[cursor[label]] = i;
            cursor[label] += 1;
        }
        Self { flat, offsets }
    }

    fn class(&self, c: usize) -> &[usize] {
        &self.flat[self.offsets[c]..self.offsets[c + 1]]
    }
}

fn normalized_size_range(range: (usize, usize), dataset_len: usize) -> (usize, usize) {
    let lo = range.0.max(1).min(dataset_len.max(1));
    let hi = range.1.max(lo).min(dataset_len.max(1)).max(lo);
    (lo, hi)
}

#[cfg(test)]
impl ClientShard {
    /// Category proportion `q2 ∈ (0, 1]`: distinct classes in the shard over total classes.
    fn category_proportion(&self, num_classes: usize) -> f64 {
        if num_classes == 0 {
            return 0.0;
        }
        self.categories as f64 / num_classes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::SyntheticImageSpec;
    use fmore_numerics::seeded_rng;

    fn dataset(n: usize, seed: u64) -> Dataset {
        SyntheticImageSpec::mnist_like().generate(n, &mut seeded_rng(seed))
    }

    #[test]
    fn non_iid_respects_size_and_category_targets() {
        let data = dataset(2000, 1);
        let config = PartitionConfig {
            clients: 50,
            size_range: (20, 200),
            category_range: (2, 6),
        };
        let mut rng = seeded_rng(2);
        let shards = partition_non_iid(&data, &config, &mut rng);
        assert_eq!(shards.len(), 50);
        for shard in &shards {
            assert!(
                (20..=200).contains(&shard.size()),
                "size {} out of range",
                shard.size()
            );
            assert!(
                (1..=6).contains(&shard.categories),
                "categories {} out of range",
                shard.categories
            );
            assert!(shard.indices.iter().all(|&i| i < data.len()));
            let prop = shard.category_proportion(data.num_classes());
            assert!(prop > 0.0 && prop <= 0.6 + 1e-12);
        }
        // Shards must actually differ in size (heterogeneity is the point).
        let sizes: std::collections::HashSet<usize> = shards.iter().map(|s| s.size()).collect();
        assert!(sizes.len() > 5);
    }

    #[test]
    fn non_iid_limits_each_client_to_its_classes() {
        let data = dataset(1000, 3);
        let config = PartitionConfig {
            clients: 20,
            size_range: (50, 50),
            category_range: (2, 2),
        };
        let mut rng = seeded_rng(4);
        let shards = partition_non_iid(&data, &config, &mut rng);
        for shard in &shards {
            // Every shard was asked to cover exactly 2 classes; because sampling is with
            // replacement from those classes the observed count is at most 2.
            assert!(shard.categories <= 2);
        }
    }

    #[test]
    fn size_range_is_clamped_to_dataset() {
        let data = dataset(30, 7);
        let config = PartitionConfig {
            clients: 3,
            size_range: (100, 500),
            category_range: (1, 10),
        };
        let mut rng = seeded_rng(8);
        for shard in partition_non_iid(&data, &config, &mut rng) {
            assert!(shard.size() <= 30);
        }
    }

    #[test]
    fn partitioning_is_deterministic_per_seed() {
        let data = dataset(500, 9);
        let config = PartitionConfig::default();
        let a = partition_non_iid(&data, &config, &mut seeded_rng(10));
        let b = partition_non_iid(&data, &config, &mut seeded_rng(10));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_is_rejected() {
        let data = dataset(10, 11);
        let config = PartitionConfig {
            clients: 0,
            ..PartitionConfig::default()
        };
        let _ = partition_non_iid(&data, &config, &mut seeded_rng(12));
    }

    #[test]
    fn shard_helpers() {
        let shard = ClientShard {
            indices: vec![1, 2, 3],
            categories: 4,
        };
        assert_eq!(shard.size(), 3);
        assert!((shard.category_proportion(10) - 0.4).abs() < 1e-12);
        assert_eq!(shard.category_proportion(0), 0.0);
    }
}
