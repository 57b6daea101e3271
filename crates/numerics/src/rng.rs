//! Deterministic random-number helpers.
//!
//! Every experiment in the repository takes an explicit seed so that paper figures can be
//! regenerated bit-for-bit. All crates obtain their RNGs through [`seeded_rng`] to keep the
//! choice of generator in a single place.

use rand::rngs::StdRng;
use rand::{splitmix64_mix, xoshiro256pp_seed, xoshiro256pp_step, Rng, SeedableRng, GOLDEN_GAMMA};

pub use rand::unit_f64;

/// Creates a deterministic RNG from a 64-bit seed.
///
/// # Example
///
/// ```
/// use fmore_numerics::rng::seeded_rng;
/// use rand::Rng;
/// let mut a = seeded_rng(42);
/// let mut b = seeded_rng(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a stream index.
///
/// Used to give every edge node / client an independent but reproducible RNG stream.
#[inline]
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    // SplitMix64 step: decorrelates consecutive stream indices.
    splitmix64_mix(parent ^ stream.wrapping_mul(GOLDEN_GAMMA))
}

/// A keyed uniform draw in `[0, 1)`: [`derive_seed`] folded over `keys` from `root`,
/// then mapped by [`unit_f64`]. A pure function of `(root, keys)`, so a draw keyed by
/// round, slot and channel is the same on every thread, at every pool width, on retry.
#[inline]
pub fn keyed_unit(root: u64, keys: &[u64]) -> f64 {
    unit_f64(keys.iter().fold(root, |h, &key| derive_seed(h, key)))
}

/// The first `N` outputs of [`seeded_rng`]`(seed)` as straight-line integer arithmetic:
/// the generator's own seeding and step functions, without a generator value. No
/// branches, no calls — a loop over seeds vectorises, which is what lets a million-node
/// population derive its golden-compatible draws a shard at a time.
#[inline(always)]
pub fn seeded_words<const N: usize>(seed: u64) -> [u64; N] {
    let mut state = xoshiro256pp_seed(seed);
    let mut out = [0; N];
    for word in &mut out {
        *word = xoshiro256pp_step(&mut state);
    }
    out
}

/// An O(1)-derivable per-stream RNG: `derive_stream(seed, i)` is
/// `seeded_rng(derive_seed(seed, i))`, named for the access pattern it enables — a
/// population of millions of nodes where node `i`'s attributes are a pure function of
/// `(seed, i)`, materialised on demand instead of stored. The backbone of
/// `fmore_mec`'s lazily materialised node populations.
pub fn derive_stream(seed: u64, stream: u64) -> StdRng {
    seeded_rng(derive_seed(seed, stream))
}

/// Fisher–Yates shuffles a slice in place using the supplied RNG.
pub fn shuffle<T, R: Rng + ?Sized>(items: &mut [T], rng: &mut R) {
    if items.len() < 2 {
        return;
    }
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Samples `k` distinct indices uniformly at random from `0..n` (reservoir sampling).
/// Returns all indices when `k >= n`.
pub fn sample_indices<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    let mut out = Vec::new();
    sample_indices_into(n, k, rng, &mut out);
    out
}

/// Allocation-free form of [`sample_indices`]: writes the sampled indices into `out`
/// (cleared first, capacity reused), consuming the identical RNG stream.
pub fn sample_indices_into<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R, out: &mut Vec<usize>) {
    out.clear();
    if k >= n {
        out.extend(0..n);
        return;
    }
    out.extend(0..k);
    for i in k..n {
        let j = rng.gen_range(0..=i);
        if j < k {
            out[j] = i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_reproducible() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(1);
        let va: Vec<u64> = (0..16).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.gen()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    /// `seeded_words` against the generator: the first `N` words for the `N` the
    /// population path uses (θ reads 1, a profile 3) and one past them. Both share one
    /// step function, whose words the generator's known-answer test pins.
    #[test]
    fn seeded_words_are_the_generators_first_outputs() {
        fn agrees<const N: usize>(seed: u64) {
            let mut rng = seeded_rng(seed);
            let expected: [u64; N] = std::array::from_fn(|_| rng.gen());
            assert_eq!(seeded_words::<N>(seed), expected, "seed {seed:#x}, N = {N}");
        }
        let mut chained = 0xF0_0D;
        let chain = (0..10_000u64).map(|i| {
            chained = derive_seed(chained, i);
            chained
        });
        for seed in [0, 1, u64::MAX].into_iter().chain(chain) {
            agrees::<1>(seed);
            agrees::<3>(seed);
            agrees::<4>(seed);
        }
    }

    /// `keyed_unit` and `unit_f64` against the expressions they replaced, written out
    /// literally as the oracle: the generator's `f64` sample, the fault and adversary
    /// clocks' draws, the service's deadline and synthetic-update draws, the population's
    /// hash-to-unit map and the adversary soak's gradient noise.
    #[test]
    fn keyed_unit_matches_the_hand_written_draws_bit_for_bit() {
        let literal = |h: u64| (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let mut chained = 0x5EED;
        let chain = (0..64u64).map(|i| {
            chained = derive_seed(chained, i);
            chained
        });
        let roots: Vec<u64> = [0, 1, u64::MAX].into_iter().chain(chain).collect();
        let rounds = [0, 1, u64::MAX];
        let attempts = [0, 1, u32::MAX];
        // `slot + 1` is a key, so the largest slot is one below the key's maximum.
        let slots = [0, 1, u64::MAX - 1];
        let bits = |x: f64| x.to_bits();
        for &root in &roots {
            assert_eq!(bits(unit_f64(root)), bits(literal(root)));
            let sampled: f64 = seeded_rng(root).gen();
            assert_eq!(bits(sampled), bits(literal(seeded_words::<1>(root)[0])));
            for &round in &rounds {
                for &slot in &slots {
                    // Deadline straggler draw: (seed, round, slot).
                    let deadline = literal(derive_seed(derive_seed(root, round), slot + 1));
                    assert_eq!(bits(keyed_unit(root, &[round, slot + 1])), bits(deadline));
                    // Adversary clock: (root, round, slot, channel), no attempt.
                    for channel in [0xA1, 0xA5] {
                        let h =
                            derive_seed(derive_seed(derive_seed(root, round), slot + 1), channel);
                        let got = keyed_unit(root, &[round, slot + 1, channel]);
                        assert_eq!(bits(got), bits(literal(h)));
                    }
                    // Fault clock: (root, round, attempt, slot, channel).
                    for &attempt in &attempts {
                        for channel in [0xF1, 0xF5] {
                            let h = derive_seed(
                                derive_seed(
                                    derive_seed(derive_seed(root, round), u64::from(attempt) + 1),
                                    slot + 1,
                                ),
                                channel,
                            );
                            let keys = [round, u64::from(attempt) + 1, slot + 1, channel];
                            assert_eq!(bits(keyed_unit(root, &keys)), bits(literal(h)));
                        }
                    }
                }
                for node in [0, 1, u64::MAX] {
                    // Synthetic update coordinate, and the soak's gradient noise.
                    let base = derive_seed(derive_seed(root, round), node.wrapping_add(1));
                    for coord in [0, 1, u64::MAX - 1] {
                        let update = literal(derive_seed(base, coord + 1)) * 2.0 - 1.0;
                        let got = keyed_unit(base, &[coord + 1]) * 2.0 - 1.0;
                        assert_eq!(bits(got), bits(update));
                        let noise = literal(derive_seed(base, coord.wrapping_add(1)));
                        let keys = [round, node.wrapping_add(1), coord.wrapping_add(1)];
                        assert_eq!(bits(keyed_unit(root, &keys)), bits(noise));
                    }
                }
            }
        }
    }

    #[test]
    fn derived_seeds_are_distinct_per_stream() {
        let parent = 99;
        let s: Vec<u64> = (0..100).map(|i| derive_seed(parent, i)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), s.len());
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = seeded_rng(5);
        let mut v: Vec<u32> = (0..50).collect();
        shuffle(&mut v, &mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn shuffle_handles_tiny_slices() {
        let mut rng = seeded_rng(5);
        let mut empty: Vec<u32> = vec![];
        shuffle(&mut empty, &mut rng);
        let mut one = vec![7u32];
        shuffle(&mut one, &mut rng);
        assert_eq!(one, vec![7]);
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = seeded_rng(9);
        let s = sample_indices(100, 20, &mut rng);
        assert_eq!(s.len(), 20);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 20);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_indices_saturates() {
        let mut rng = seeded_rng(9);
        let s = sample_indices(5, 10, &mut rng);
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sample_indices_is_roughly_uniform() {
        let mut rng = seeded_rng(13);
        let mut counts = vec![0usize; 10];
        for _ in 0..5000 {
            for idx in sample_indices(10, 3, &mut rng) {
                counts[idx] += 1;
            }
        }
        // Each index expected ~1500 times; allow generous tolerance.
        for &c in &counts {
            assert!((1200..1800).contains(&c), "count {c} outside tolerance");
        }
    }
}
