//! Deterministic random-number helpers.
//!
//! Every experiment in the repository takes an explicit seed so that paper figures can be
//! regenerated bit-for-bit. All crates obtain their RNGs through [`seeded_rng`] to keep the
//! choice of generator in a single place.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

/// SplitMix64's increment (the 64-bit golden ratio).
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output finaliser.
#[inline(always)]
fn splitmix_finalise(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed from a parent seed and a stream index.
///
/// Used to give every edge node / client an independent but reproducible RNG stream.
#[inline]
pub fn derive_seed(parent: u64, stream: u64) -> u64 {
    // SplitMix64 step: decorrelates consecutive stream indices.
    splitmix_finalise(parent ^ stream.wrapping_mul(GOLDEN_GAMMA))
}

/// The first `N` outputs of [`seeded_rng`]`(seed)` as straight-line integer arithmetic:
/// the four SplitMix64 words that seed the generator, then `N` xoshiro256++ steps. No
/// generator value, no branches, no calls — a loop over seeds vectorises, which is what
/// lets a million-node population derive its golden-compatible draws a shard at a time.
/// Pinned word for word against the generator itself by this module's tests.
#[inline(always)]
pub fn seeded_words<const N: usize>(seed: u64) -> [u64; N] {
    let [mut a, mut b, mut c, mut d] =
        [1u64, 2, 3, 4].map(|k| splitmix_finalise(seed.wrapping_add(k.wrapping_mul(GOLDEN_GAMMA))));
    let mut out = [0; N];
    for word in &mut out {
        *word = a.wrapping_add(d).rotate_left(23).wrapping_add(a);
        let t = b << 17;
        c ^= a;
        d ^= b;
        b ^= c;
        a ^= d;
        c ^= t;
        d = d.rotate_left(45);
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

    /// `seeded_words` against its oracle, the generator: the first `N` words for the `N`
    /// the population path uses (θ reads 1, a profile 3) and one past them.
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
