//! Winner determination (step 3 of FMore).
//!
//! FMore sorts all scored bids in descending order and selects the top `K`. The ψ-FMore
//! extension of Section III-C walks the sorted list and admits each node independently with
//! probability ψ until `K` winners are found (wrapping around the list until the winner set
//! is filled), which trades selection quality for data diversity. Ties are resolved by a coin
//! flip, as in the paper's simulator.

use rand::Rng;

/// How the aggregator forms the winner set from the sorted scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionRule {
    /// Plain FMore: the `K` highest-scoring bids win.
    TopK,
    /// ψ-FMore: nodes are considered in descending score order and each is admitted with
    /// probability ψ until `K` winners are chosen. `psi = 1.0` degenerates to [`Self::TopK`];
    /// small ψ approaches uniform random selection (RandFL). The walk never looks at a bid,
    /// so how deep it goes is known before one arrives ([`Self::reach`]) — which is what
    /// lets a streamed round hold the walk's whole reach in a bounded pool.
    PsiFMore {
        /// Per-node admission probability ψ ∈ (0, 1].
        psi: f64,
    },
}

impl SelectionRule {
    /// Returns `true` if the rule's parameters are valid (ψ ∈ (0, 1]).
    pub fn is_valid(&self) -> bool {
        match self {
            SelectionRule::TopK => true,
            SelectionRule::PsiFMore { psi } => *psi > 0.0 && *psi <= 1.0 && psi.is_finite(),
        }
    }

    /// How many ranks from the top the admission walk for `k` winners reaches: with
    /// `reach(k)` candidates in rank order the walk admits its `k`-th winner among them —
    /// always for top-K (`k`), and for ψ-FMore on all but a ≤ 10⁻⁴ share of rounds
    /// (2.9 × 10⁻⁷ at `k = 64`, ψ = 0.25). The rank of the `k`-th admission is a
    /// negative-binomial draw with mean `k/ψ` and deviation `√(k(1−ψ))/ψ`; the reach is six
    /// deviations past the mean, `⌈(k + 6·√(k(1−ψ)))/ψ⌉`. A function of the rule and `k`
    /// alone, never below `k`, non-decreasing in `k` and in `1/ψ`, and saturating: an
    /// extreme (or invalid) ψ gives `usize::MAX` or `k`, never an overflow.
    pub fn reach(&self, k: usize) -> usize {
        match self {
            SelectionRule::TopK => k,
            SelectionRule::PsiFMore { psi } => {
                let wanted = k as f64;
                let ranks = (wanted + 6.0 * (wanted * (1.0 - psi)).sqrt()) / psi;
                // A float-to-integer `as` saturates and sends NaN to 0.
                (ranks.ceil() as usize).max(k)
            }
        }
    }

    /// Selects winner positions out of `n` candidates already in descending rank order: at
    /// most `k` positions, each at most once. Tie-breaking among equal scores happens before,
    /// in the rank order itself (the deterministic keys of `crate::store::TieBreak`). The
    /// rule never inspects bid contents — only ranks — so the streaming
    /// [`crate::store::StandingPool`] path and the full-sort reference
    /// [`crate::mechanism::Auction::run`] share this exact implementation (and therefore the
    /// exact RNG draw sequence).
    ///
    /// State is `O(k)` regardless of `n`: the admitted set is a sorted position vector, not
    /// an `n`-wide bitmap, so the ψ walk over a 10⁸-candidate ranking costs winners-sized
    /// memory. The draw sequence is unchanged from the bitmap implementation — one
    /// `rng.gen::<f64>()` per *non-admitted* position in visit order — which is what keeps
    /// every seeded history and committed golden fingerprint replaying bit-for-bit.
    pub fn select_indices<R: Rng + ?Sized>(&self, n: usize, k: usize, rng: &mut R) -> Vec<usize> {
        let k = k.min(n);
        if k == 0 {
            return Vec::new();
        }
        match self {
            SelectionRule::TopK => (0..k).collect(),
            SelectionRule::PsiFMore { psi } => {
                let psi = psi.clamp(0.0, 1.0);
                let mut winners = Vec::with_capacity(k);
                // Sorted admitted positions — at most k entries ever exist.
                let mut admitted: Vec<usize> = Vec::with_capacity(k);
                // Walk the rank order repeatedly until K nodes are admitted. With ψ = 1 the
                // first pass admits exactly the top K; with ψ < 1 later-ranked nodes get a
                // chance. A final deterministic pass guarantees termination even for tiny ψ.
                let mut passes = 0;
                while winners.len() < k && passes < 64 {
                    for idx in 0..n {
                        if winners.len() >= k {
                            break;
                        }
                        if let Err(pos) = admitted.binary_search(&idx) {
                            if rng.gen::<f64>() < psi {
                                admitted.insert(pos, idx);
                                winners.push(idx);
                            }
                        }
                    }
                    passes += 1;
                }
                // Deterministic fill (highest-ranked first) if the probabilistic passes did
                // not complete the set.
                let mut idx = 0;
                while winners.len() < k {
                    if let Err(pos) = admitted.binary_search(&idx) {
                        admitted.insert(pos, idx);
                        winners.push(idx);
                    }
                    idx += 1;
                }
                winners
            }
        }
    }
}

/// Probability that ψ-FMore fills a winner set of size `K` from `N` candidates within one
/// sweep of the candidate list: `Pr(ψ) = Σ_{i=0}^{N−K} C(i+K−1, i) (1−ψ)^i ψ^K` (Section
/// III-C). Approaches 1 for moderate ψ.
///
/// The sum is accumulated in **log space**: the direct product form overflows the binomial
/// factor (and underflows `ψ^K`) already for populations in the hundreds, whereas the
/// population-scale selection path asks about `N` in the millions. Each term is evaluated as
/// `exp(ln C(i+K−1, i) + i·ln(1−ψ) + K·ln ψ)` with the log-binomial built by the same
/// incremental recurrence; on small inputs this agrees with the direct form to ~1e-12
/// (pinned by the property suite). Terms are unimodal in `i`, so accumulation stops early
/// once past the peak they stop contributing at `f64` precision — the large-`N` cost is
/// bounded by where the mass lives, not by `N`.
pub fn psi_fill_probability(n: usize, k: usize, psi: f64) -> f64 {
    if k == 0 || k > n || !(0.0..=1.0).contains(&psi) {
        return 0.0;
    }
    if psi == 1.0 {
        return 1.0;
    }
    if psi == 0.0 {
        return 0.0;
    }
    let ln_miss = (1.0 - psi).ln();
    let ln_hit_k = k as f64 * psi.ln();
    // Terms are unimodal in i: the ratio term_{i+1}/term_i = (i+K)/(i+1)·(1−ψ) falls below
    // one once i exceeds this peak. Past it the tail is geometric with ratio < 1−ψ, so it
    // is bounded by term_i/ψ — comparison happens in log space, because individual terms
    // can underflow to 0.0 while the running total (or a later un-underflowed region on the
    // way up to the peak) is still meaningful.
    let i_peak = (k as f64 * (1.0 - psi) - 1.0) / psi;
    let mut total = 0.0_f64;
    // ln C(i + K - 1, i), built incrementally — same recurrence as the product form.
    let mut ln_binom = 0.0_f64;
    for i in 0..=(n - k) {
        if i > 0 {
            ln_binom += ((i + k - 1) as f64 / i as f64).ln();
        }
        let ln_term = ln_binom + i as f64 * ln_miss + ln_hit_k;
        total += ln_term.exp();
        if total >= 1.0 {
            return 1.0;
        }
        if i as f64 > i_peak {
            let ln_tail_bound = ln_term - psi.ln();
            // Invisible next to the total at f64 precision — or, when everything so far
            // underflowed, below the smallest subnormal (the sum is exactly 0).
            let negligible = if total > 0.0 {
                ln_tail_bound < total.ln() - 42.0
            } else {
                ln_tail_bound < -745.0
            };
            if negligible {
                break;
            }
        }
    }
    total.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmore_numerics::seeded_rng;

    #[test]
    fn top_k_selects_highest_scores() {
        // Node ids in descending score order: scores 0.9, 0.7, 0.5, … belong to 1, 3, 2, ….
        let ranked = [1u64, 3, 2, 4, 0];
        let mut rng = seeded_rng(1);
        let winners = SelectionRule::TopK.select_indices(ranked.len(), 3, &mut rng);
        assert_eq!(winners, vec![0, 1, 2]);
        let chosen: Vec<u64> = winners.iter().map(|&i| ranked[i]).collect();
        assert_eq!(chosen, vec![1, 3, 2]);
    }

    #[test]
    fn top_k_handles_small_populations_and_zero_k() {
        let mut rng = seeded_rng(1);
        assert_eq!(SelectionRule::TopK.select_indices(2, 5, &mut rng).len(), 2);
        assert!(SelectionRule::TopK
            .select_indices(2, 0, &mut rng)
            .is_empty());
        assert!(SelectionRule::TopK
            .select_indices(0, 3, &mut rng)
            .is_empty());
    }

    #[test]
    fn psi_one_equals_top_k() {
        let mut rng = seeded_rng(2);
        let a = SelectionRule::PsiFMore { psi: 1.0 }.select_indices(6, 3, &mut rng);
        assert_eq!(a, vec![0, 1, 2]);
    }

    #[test]
    fn psi_selection_always_fills_k_distinct_winners() {
        let mut rng = seeded_rng(3);
        for &psi in &[0.05, 0.2, 0.5, 0.8] {
            let winners = SelectionRule::PsiFMore { psi }.select_indices(50, 20, &mut rng);
            assert_eq!(winners.len(), 20, "psi={psi}");
            let mut dedup = winners.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), 20, "psi={psi} produced duplicates");
        }
    }

    #[test]
    fn larger_psi_concentrates_on_top_ranks() {
        // With ψ = 0.9 most winners come from the top of the ranking; with ψ = 0.2 the
        // selection is much more scattered (Fig. 11b of the paper).
        let mut rng = seeded_rng(4);
        let trials = 200;
        let mut top30_high = 0usize;
        let mut top30_low = 0usize;
        for _ in 0..trials {
            let high = SelectionRule::PsiFMore { psi: 0.9 }.select_indices(100, 20, &mut rng);
            let low = SelectionRule::PsiFMore { psi: 0.2 }.select_indices(100, 20, &mut rng);
            top30_high += high.iter().filter(|&&i| i < 30).count();
            top30_low += low.iter().filter(|&&i| i < 30).count();
        }
        assert!(
            top30_high > top30_low,
            "ψ=0.9 should pick more top-30 nodes ({top30_high}) than ψ=0.2 ({top30_low})"
        );
    }

    /// The pre-rewrite O(n)-bitmap walk, kept as the ground truth the O(k) sorted-set
    /// implementation must reproduce draw-for-draw.
    fn bitmap_walk<R: rand::Rng + ?Sized>(n: usize, k: usize, psi: f64, rng: &mut R) -> Vec<usize> {
        let k = k.min(n);
        if k == 0 {
            return Vec::new();
        }
        let psi = psi.clamp(0.0, 1.0);
        let mut winners = Vec::with_capacity(k);
        let mut admitted = vec![false; n];
        let mut passes = 0;
        while winners.len() < k && passes < 64 {
            for (idx, taken) in admitted.iter_mut().enumerate() {
                if winners.len() >= k {
                    break;
                }
                if *taken {
                    continue;
                }
                if rng.gen::<f64>() < psi {
                    *taken = true;
                    winners.push(idx);
                }
            }
            passes += 1;
        }
        for (idx, taken) in admitted.iter_mut().enumerate() {
            if winners.len() >= k {
                break;
            }
            if !*taken {
                *taken = true;
                winners.push(idx);
            }
        }
        winners
    }

    #[test]
    fn bounded_walk_matches_bitmap_walk_bitwise() {
        for &(n, k) in &[(1usize, 1usize), (5, 3), (40, 40), (200, 17), (513, 64)] {
            for &psi in &[0.02, 0.1, 0.5, 0.9, 1.0] {
                for seed in 0..8 {
                    let mut rng_a = seeded_rng(seed);
                    let mut rng_b = seeded_rng(seed);
                    let bounded = SelectionRule::PsiFMore { psi }.select_indices(n, k, &mut rng_a);
                    let reference = bitmap_walk(n, k, psi, &mut rng_b);
                    assert_eq!(
                        bounded, reference,
                        "n={n} k={k} psi={psi} seed={seed}: walk diverged from bitmap"
                    );
                    // The RNG cursor must land in the same place too.
                    assert_eq!(
                        rand::Rng::gen::<u64>(&mut rng_a),
                        rand::Rng::gen::<u64>(&mut rng_b),
                        "n={n} k={k} psi={psi} seed={seed}: RNG consumption diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn walk_is_cheap_at_population_scale() {
        // 1e8 candidates: the walk must neither allocate an n-wide bitmap nor visit more
        // than a winners-sized prefix at moderate ψ.
        let mut rng = seeded_rng(7);
        let winners =
            SelectionRule::PsiFMore { psi: 0.8 }.select_indices(100_000_000, 64, &mut rng);
        assert_eq!(winners.len(), 64);
        let mut dedup = winners.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 64);
    }

    #[test]
    fn reach_is_k_without_a_lottery_and_monotone_and_saturating() {
        for k in [0usize, 1, 8, 64, 1_000] {
            assert_eq!(SelectionRule::TopK.reach(k), k);
            assert_eq!(SelectionRule::PsiFMore { psi: 1.0 }.reach(k), k);
        }
        // The figures the streamed stage's pool depths are quoted from.
        assert_eq!(SelectionRule::PsiFMore { psi: 0.25 }.reach(64), 423);
        assert_eq!(SelectionRule::PsiFMore { psi: 0.7 }.reach(16), 42);
        assert_eq!(SelectionRule::PsiFMore { psi: 0.8 }.reach(64), 107);
        // Never below k; non-decreasing in k and in 1/ψ.
        let psis = [1.0, 0.9, 0.8, 0.7, 0.5, 0.25, 0.2, 0.1, 0.05, 0.01, 1e-6];
        for pair in psis.windows(2) {
            let mut previous = 0;
            for k in 0..300usize {
                let (wide, narrow) = (
                    SelectionRule::PsiFMore { psi: pair[1] }.reach(k),
                    SelectionRule::PsiFMore { psi: pair[0] }.reach(k),
                );
                assert!(narrow >= k, "psi={} k={k}", pair[0]);
                assert!(wide >= narrow, "psi {} -> {} k={k}", pair[0], pair[1]);
                assert!(wide >= previous, "psi={} k={k}", pair[1]);
                previous = wide;
            }
        }
        // Saturation, not overflow or a panic — invalid ψ (which the stages reject before
        // sizing anything) included.
        let tiny = SelectionRule::PsiFMore {
            psi: f64::MIN_POSITIVE,
        };
        assert_eq!(tiny.reach(1), usize::MAX);
        assert_eq!(tiny.reach(usize::MAX), usize::MAX);
        assert_eq!(
            SelectionRule::PsiFMore { psi: 0.5 }.reach(usize::MAX),
            usize::MAX
        );
        assert_eq!(SelectionRule::PsiFMore { psi: 0.0 }.reach(5), usize::MAX);
        for psi in [-0.5, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(SelectionRule::PsiFMore { psi }.reach(5), 5, "psi={psi}");
        }
    }

    /// `P(Bin(n, ψ) < k)` — the share of rounds in which `n` ranks admit fewer than `k`
    /// winners — with every term evaluated in log space by the incremental log-binomial
    /// recurrence [`psi_fill_probability`] uses.
    fn binomial_miss(n: usize, k: usize, psi: f64) -> f64 {
        let (ln_hit, ln_miss) = (psi.ln(), (1.0 - psi).ln());
        let mut ln_binom = 0.0_f64;
        let mut total = 0.0_f64;
        for j in 0..k {
            if j > 0 {
                ln_binom += ((n - j + 1) as f64 / j as f64).ln();
            }
            total += (ln_binom + j as f64 * ln_hit + (n - j) as f64 * ln_miss).exp();
        }
        total
    }

    #[test]
    fn walk_overshoots_its_reach_on_at_most_one_round_in_ten_thousand() {
        for k in [8usize, 16, 64, 256] {
            for psi in [0.05, 0.1, 0.2, 0.25, 0.5, 0.7, 0.8, 0.9] {
                let reach = SelectionRule::PsiFMore { psi }.reach(k);
                let miss = binomial_miss(reach, k, psi);
                assert!(miss <= 1e-4, "k={k} psi={psi} reach={reach}: miss {miss:e}");
                // Not vacuous: the same walk over only the mean k/ψ ranks misses often.
                let mean = (k as f64 / psi) as usize;
                assert!(binomial_miss(mean, k, psi) > 0.3, "k={k} psi={psi}");
                // Two routes to one number: the K-th admission lies past rank n exactly
                // when a single sweep of n candidates does not fill the set.
                let swept = 1.0 - psi_fill_probability(reach, k, psi);
                assert!(
                    (miss - swept).abs() < 1e-8,
                    "k={k} psi={psi}: {miss:e} vs {swept:e}"
                );
            }
        }
        let headline = binomial_miss(423, 64, 0.25);
        assert!((2.5e-7..3.5e-7).contains(&headline), "{headline:e}");
    }

    #[test]
    fn selection_rule_validity() {
        assert!(SelectionRule::TopK.is_valid());
        assert!(SelectionRule::PsiFMore { psi: 0.5 }.is_valid());
        assert!(!SelectionRule::PsiFMore { psi: 0.0 }.is_valid());
        assert!(!SelectionRule::PsiFMore { psi: 1.5 }.is_valid());
        assert!(!SelectionRule::PsiFMore { psi: f64::NAN }.is_valid());
    }

    #[test]
    fn fill_probability_behaves_as_in_the_paper() {
        // Pr(ψ) approaches one for moderate ψ and reasonable N, K.
        assert!(psi_fill_probability(100, 20, 0.8) > 0.99);
        assert_eq!(psi_fill_probability(100, 20, 1.0), 1.0);
        // Larger ψ always yields a larger fill probability.
        let p_small = psi_fill_probability(30, 10, 0.3);
        let p_big = psi_fill_probability(30, 10, 0.7);
        assert!(p_big > p_small);
        // Degenerate configurations.
        assert_eq!(psi_fill_probability(5, 0, 0.5), 0.0);
        assert_eq!(psi_fill_probability(5, 6, 0.5), 0.0);
        assert_eq!(psi_fill_probability(5, 2, 1.5), 0.0);
    }
}
