//! The auction round run by the aggregator: bid collection → winner determination → payment.
//!
//! [`Auction`] bundles the broadcast scoring rule, the number of winners `K`, the selection
//! rule (FMore or ψ-FMore), and the pricing rule. Production rounds determine winners through
//! the bounded streaming selector ([`Auction::selector`], [`Auction::plan_admission`],
//! [`Auction::award_standing`]), which every driver reaches through `fmore_fl::engine`.
//! [`Auction::run`] is the **full-sort reference**: it consumes the sealed bids of one round,
//! ranks all of them and produces an [`AuctionOutcome`] with the ranked bids and the winner
//! awards — the oracle the streaming path is tested against, bit for bit.

use crate::error::AuctionError;
use crate::pricing::PricingRule;
use crate::scoring::ScoringRule;
use crate::store::{rank_order, BidSelector, Candidate, StandingPool, TieBreak};
use crate::types::{NodeId, Quality, ScoredBid};
use crate::winner::SelectionRule;
use rand::Rng;

/// A sealed bid `(q, p)` submitted by an edge node.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmittedBid {
    /// The bidding node.
    pub node: NodeId,
    /// Declared resource qualities.
    pub quality: Quality,
    /// Expected payment `p`.
    pub ask: f64,
}

impl SubmittedBid {
    /// Creates a sealed bid.
    pub fn new(node: NodeId, quality: Quality, ask: f64) -> Self {
        Self { node, quality, ask }
    }
}

/// The award granted to one auction winner.
#[derive(Debug, Clone, PartialEq)]
pub struct Award {
    /// The winning node.
    pub node: NodeId,
    /// The quality it committed to provide.
    pub quality: Quality,
    /// Its score `S(q, p)` under the broadcast rule.
    pub score: f64,
    /// The payment it will receive after completing local training.
    pub payment: f64,
}

/// The result of one auction round.
///
/// The fields are private and the outcome is immutable after `AuctionOutcome::new`: the
/// winner-id slice and total payment are computed once at construction, so per-round
/// consumers read cached values instead of rebuilding a `Vec<NodeId>` or re-summing
/// payments every time they are asked — and nothing can desynchronise the caches from the
/// award list they summarise.
#[derive(Debug, Clone, PartialEq)]
pub struct AuctionOutcome {
    /// All bids, scored and sorted in descending score order.
    ranked: Vec<ScoredBid>,
    /// Awards for the selected winners, in selection order.
    winners: Vec<Award>,
    /// Cached winner ids, in selection order.
    winner_ids: Vec<NodeId>,
    /// Cached total payment promised to the winners.
    total_payment: f64,
}

impl AuctionOutcome {
    /// Builds an outcome, caching the winner-id slice and the total payment.
    pub(crate) fn new(ranked: Vec<ScoredBid>, winners: Vec<Award>) -> Self {
        let winner_ids = winners.iter().map(|w| w.node).collect();
        let total_payment = winners.iter().map(|w| w.payment).sum();
        Self {
            ranked,
            winners,
            winner_ids,
            total_payment,
        }
    }

    /// All bids, scored and sorted in descending score order.
    pub fn ranked(&self) -> &[ScoredBid] {
        &self.ranked
    }

    /// Awards for the selected winners, in selection order.
    pub fn winners(&self) -> &[Award] {
        &self.winners
    }

    /// Node ids of the winners, in selection order (cached at construction).
    pub fn winner_ids(&self) -> &[NodeId] {
        &self.winner_ids
    }

    /// Total payment promised to the winners (cached at construction).
    pub fn total_payment(&self) -> f64 {
        self.total_payment
    }

    /// Mean score of the winners (reported in Figs. 9b and 10b of the paper).
    pub fn mean_winner_score(&self) -> f64 {
        if self.winners.is_empty() {
            return 0.0;
        }
        self.winners.iter().map(|w| w.score).sum::<f64>() / self.winners.len() as f64
    }
}

/// The rank-level admission decisions of one streamed round, produced by
/// [`Auction::plan_admission`] from the number of bids alone, before any candidate is
/// looked at: which global ranks won (in admission order) and which rank prices
/// second-score payments. Ranks are positions in the full-sort ranking of
/// `Auction::rank_bids` — the plan consumes exactly the RNG words the dense
/// winner-determination stage consumes, so a seeded round can be planned bounded and
/// resolved lazily with unchanged histories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionPlan {
    /// Global ranks of the winners, in admission order.
    pub picked: Vec<usize>,
    /// The best-ranked non-winner, or `None` when every offered bid won. Because scores are
    /// non-increasing in rank, this rank's score **is** the dense path's best losing score —
    /// the one value second-score pricing needs from the entire loser set. Always at most
    /// `K` (among the first `K + 1` ranks at least one is not picked), so the pricing
    /// boundary always lies within a `K + reserve` standing pool.
    pub price_rank: Option<usize>,
}

/// One multi-dimensional procurement auction with `K` winners.
#[derive(Debug, Clone)]
pub struct Auction {
    scoring: ScoringRule,
    k: usize,
    selection: SelectionRule,
    pricing: PricingRule,
}

impl Auction {
    /// Creates an auction with the broadcast scoring rule, winner count `K`, selection rule,
    /// and pricing rule.
    pub fn new(
        scoring: ScoringRule,
        k: usize,
        selection: SelectionRule,
        pricing: PricingRule,
    ) -> Self {
        Self {
            scoring,
            k,
            selection,
            pricing,
        }
    }

    /// The broadcast scoring rule (what the aggregator sends in the bid-ask step).
    pub fn scoring_rule(&self) -> &ScoringRule {
        &self.scoring
    }

    /// The number of winners `K` the aggregator recruits per round.
    pub fn winners_per_round(&self) -> usize {
        self.k
    }

    /// The selection rule in use.
    pub fn selection_rule(&self) -> SelectionRule {
        self.selection
    }

    /// Scores a full bid population in one call, preserving input order.
    ///
    /// This is the batched entry point every caller should prefer over scoring bid-by-bid:
    /// validation and scoring happen in a single pass over the population.
    ///
    /// Bids with invalid quality vectors (negative or non-finite components, wrong dimension)
    /// are rejected with an error rather than silently dropped, because a malformed bid
    /// indicates a protocol violation by the submitting node. Each bid is checked in the
    /// order [`crate::store::BidStore::push`] checks it — dimension, quality, ask — so both
    /// paths report the same error for the same bid.
    ///
    /// # Errors
    ///
    /// [`AuctionError::DimensionMismatch`] / [`AuctionError::InvalidParameter`] for malformed
    /// bids.
    pub(crate) fn score_bids(
        &self,
        bids: Vec<SubmittedBid>,
    ) -> Result<Vec<ScoredBid>, AuctionError> {
        let mut scored = Vec::with_capacity(bids.len());
        for bid in bids {
            if bid.quality.dims() != self.scoring.dims() {
                return Err(AuctionError::DimensionMismatch {
                    expected: self.scoring.dims(),
                    actual: bid.quality.dims(),
                });
            }
            if !bid.quality.is_valid() {
                return Err(AuctionError::InvalidParameter(format!(
                    "bid from {} has an invalid quality vector",
                    bid.node
                )));
            }
            if !bid.ask.is_finite() || bid.ask < 0.0 {
                return Err(AuctionError::InvalidParameter(format!(
                    "bid from {} has an invalid payment ask {}",
                    bid.node, bid.ask
                )));
            }
            let score = self.scoring.score(&bid.quality, bid.ask)?;
            scored.push(ScoredBid {
                node: bid.node,
                quality: bid.quality,
                ask: bid.ask,
                score,
            });
        }
        Ok(scored)
    }

    /// Scores and ranks a full bid population: one batched scoring pass, then a sort under
    /// the strict rank order *(score descending, tie-break key ascending)* shared with the
    /// streaming selector. Ties are still resolved "by the flip of a coin" (Section V-A) —
    /// the keys are derived from one random salt word per round ([`TieBreak`]) — but the
    /// coin is now deterministic per bid index, so a bounded streaming selection over the
    /// same population reproduces this ranking bit-for-bit without materialising it. The
    /// RNG consumption (`max(n−1, 0)` words) matches the historical shuffle exactly, so
    /// seeded histories are unchanged.
    ///
    /// # Errors
    ///
    /// Propagates [`Auction::score_bids`] failures.
    pub(crate) fn rank_bids<R: Rng + ?Sized>(
        &self,
        bids: Vec<SubmittedBid>,
        rng: &mut R,
    ) -> Result<Vec<ScoredBid>, AuctionError> {
        let scored = self.score_bids(bids)?;
        let mut tie = TieBreak::new();
        let mut keyed: Vec<(u64, ScoredBid)> = scored
            .into_iter()
            .map(|bid| (tie.next_key(rng), bid))
            .collect();
        if let Some(first) = keyed.first_mut() {
            // The salt exists once a second bid was keyed; re-key the provisional first.
            first.0 = tie.key_of(0);
        }
        tie.finish(rng);
        keyed.sort_unstable_by(|a, b| rank_order(a.1.score, a.0, b.1.score, b.0));
        Ok(keyed.into_iter().map(|(_, bid)| bid).collect())
    }

    /// The full-sort reference round over the submitted sealed bids: batched scoring and
    /// ranking of the whole population (`Auction::rank_bids`), winner selection, and
    /// payment computation. No production round runs it; it is the oracle the streaming
    /// selector is checked against, and its errors come in the streaming stage's order.
    ///
    /// # Errors
    ///
    /// In this order:
    /// * [`AuctionError::InvalidGame`] when the auction was configured with `K = 0` or an
    ///   invalid ψ,
    /// * [`AuctionError::DimensionMismatch`] / [`AuctionError::InvalidParameter`] for the
    ///   first malformed bid,
    /// * [`AuctionError::NoBids`] when `bids` is empty.
    pub fn run<R: Rng + ?Sized>(
        &self,
        bids: Vec<SubmittedBid>,
        rng: &mut R,
    ) -> Result<AuctionOutcome, AuctionError> {
        if self.k == 0 || !self.selection.is_valid() {
            return Err(AuctionError::InvalidGame {
                n: bids.len(),
                k: self.k,
            });
        }
        if bids.is_empty() {
            return Err(AuctionError::NoBids);
        }

        let scored = self.rank_bids(bids, rng)?;
        let winner_indices = self.selection.select_indices(scored.len(), self.k, rng);
        let best_losing_score = scored
            .iter()
            .enumerate()
            .filter(|(i, _)| !winner_indices.contains(i))
            .map(|(_, b)| b.score)
            .fold(None, |acc: Option<f64>, s| {
                Some(acc.map_or(s, |a| a.max(s)))
            });

        let winners = winner_indices
            .iter()
            .map(|&idx| {
                let b = &scored[idx];
                let payment = self.pricing.payment_from_parts(
                    &self.scoring,
                    b.quality.as_slice(),
                    b.ask,
                    b.score,
                    best_losing_score,
                );
                Award {
                    node: b.node,
                    quality: b.quality.clone(),
                    score: b.score,
                    payment,
                }
            })
            .collect();

        Ok(AuctionOutcome::new(scored, winners))
    }

    /// A bounded streaming selector configured for this auction: it keeps the best
    /// `K + reserve` candidates of the population streamed through it (`reserve` extra
    /// standing candidates fund pricing look-back and re-auction refills). Feed it scored
    /// [`crate::store::BidStore`] shards, [`crate::store::BidSelector::finish`] it, and
    /// award winners with [`Auction::award_standing`] — bit-identical to [`Auction::run`]
    /// over the same bids for top-K selection at any `reserve`. ψ-FMore is bit-identical at
    /// any `reserve` too: plan the walk over ranks with [`Auction::plan_admission`], then
    /// read the planned ranks off the pool — which holds them all when the selector is at
    /// least [`SelectionRule::reach`]`(K) + 1` deep, the depth `fmore_fl`'s streamed stage
    /// runs a ψ round at before cutting its pool back to this one
    /// ([`StandingPool::truncate`]). `reserve` is the caller's to choose and nothing else
    /// moves it: a pool from here is always `K + reserve` deep.
    pub fn selector(&self, reserve: usize) -> BidSelector {
        BidSelector::new(self.scoring.dims(), self.k.saturating_add(reserve))
    }

    /// Runs the winner-admission walk of this auction's selection rule over the ranks of a
    /// streamed round (`offered` bids total, up to `quota` winners) **without touching a
    /// single candidate** — the rank-only first half of the bounded streamed award stage,
    /// drawing exactly the RNG words [`Auction::award_standing`] draws over a full-width
    /// pool. The caller resolves the planned ranks to candidates — a pool in rank order is
    /// indexed by them, and one at least [`SelectionRule::reach`]`(quota) + 1` deep holds
    /// them all but for the walk's far tail — and prices them with
    /// [`Auction::award_candidate`].
    pub fn plan_admission<R: Rng + ?Sized>(
        &self,
        offered: usize,
        quota: usize,
        rng: &mut R,
    ) -> AdmissionPlan {
        let picked = self.selection.select_indices(offered, quota, rng);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        // The pricing boundary: the smallest rank the walk did not admit.
        let mut price_rank = 0usize;
        for &rank in &sorted {
            if rank == price_rank {
                price_rank += 1;
            } else {
                break;
            }
        }
        AdmissionPlan {
            picked,
            price_rank: (price_rank < offered).then_some(price_rank),
        }
    }

    /// Prices and awards one standing candidate — the shared award constructor of
    /// [`Auction::award_standing`] and the bounded streamed ψ path, so both produce
    /// bit-identical awards by construction.
    pub fn award_candidate(&self, candidate: &Candidate, best_losing: Option<f64>) -> Award {
        let payment = self.pricing.payment_from_parts(
            &self.scoring,
            &candidate.quality,
            candidate.ask,
            candidate.score,
            best_losing,
        );
        Award {
            node: candidate.node,
            quality: Quality::new(candidate.quality.clone()),
            score: candidate.score,
            payment,
        }
    }

    /// Winner determination and pricing over a streamed [`StandingPool`]: selects up to
    /// `quota` winners among the standing candidates not listed in `exclude`, under the
    /// auction's own selection and pricing rules. With an empty `exclude` and
    /// `quota = K` this is the winner/payment stage of [`Auction::run`]; with exclusions it
    /// is the re-auction refill of a dynamic round, reading from the standing store without
    /// re-scoring a single bid.
    ///
    /// The refill follows the paper's dynamic-environment discussion (§I, §VI): nodes "may
    /// join or leave anytime", so the aggregator recruits replacements for dropouts,
    /// departures and deadline misses without re-broadcasting the scoring rule and waiting
    /// for a fresh sealed-bid phase. Every standing bid is already a sealed equilibrium bid
    /// for *this* round's rule, so selecting again over the not-yet-awarded remainder is
    /// incentive-neutral: the same bid competes under the same rule in every wave. Fewer
    /// (possibly zero) awards come back when the pool runs short.
    ///
    /// Second-score pricing reads the best losing score as the best standing non-winner
    /// merged with the best score the bounded selector dropped — exactly the full-sort value
    /// as long as every excluded node is a standing candidate (always true for prior
    /// winners, which are kept by construction).
    pub fn award_standing<R: Rng + ?Sized>(
        &self,
        pool: &StandingPool,
        quota: usize,
        exclude: &[NodeId],
        rng: &mut R,
    ) -> Vec<Award> {
        if quota == 0 {
            return Vec::new();
        }
        let avail: Vec<usize> = (0..pool.len())
            .filter(|&i| !exclude.contains(&pool.candidates()[i].node))
            .collect();
        if avail.is_empty() {
            return Vec::new();
        }
        let picked = self.selection.select_indices(avail.len(), quota, rng);
        let mut best_losing = pool.best_dropped_score();
        for (pos, &idx) in avail.iter().enumerate() {
            if picked.contains(&pos) {
                continue;
            }
            let s = pool.candidates()[idx].score;
            best_losing = Some(best_losing.map_or(s, |b| b.max(s)));
        }
        picked
            .iter()
            .map(|&pos| self.award_candidate(&pool.candidates()[avail[pos]], best_losing))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::{Additive, CobbDouglas};
    use crate::store::BidStore;
    use fmore_numerics::seeded_rng;

    fn simple_auction(k: usize) -> Auction {
        Auction::new(
            ScoringRule::new(Additive::new(vec![1.0]).unwrap()),
            k,
            SelectionRule::TopK,
            PricingRule::FirstPrice,
        )
    }

    fn bid(node: u64, q: f64, ask: f64) -> SubmittedBid {
        SubmittedBid::new(NodeId(node), Quality::new(vec![q]), ask)
    }

    #[test]
    fn selects_top_k_by_score() {
        let auction = simple_auction(2);
        let mut rng = seeded_rng(1);
        let outcome = auction
            .run(
                vec![
                    bid(0, 1.0, 0.5),
                    bid(1, 1.0, 0.1),
                    bid(2, 0.9, 0.2),
                    bid(3, 0.2, 0.0),
                ],
                &mut rng,
            )
            .unwrap();
        assert_eq!(outcome.winner_ids(), vec![NodeId(1), NodeId(2)]);
        assert_eq!(outcome.ranked().len(), 4);
        assert!((outcome.total_payment() - 0.3).abs() < 1e-12);
        assert!(outcome.mean_winner_score() > 0.0);
    }

    #[test]
    fn k_larger_than_population_awards_everyone() {
        let auction = simple_auction(10);
        let mut rng = seeded_rng(3);
        let outcome = auction
            .run(vec![bid(0, 1.0, 0.1), bid(1, 0.5, 0.1)], &mut rng)
            .unwrap();
        assert_eq!(outcome.winners().len(), 2);
    }

    #[test]
    fn rejects_empty_and_malformed_input() {
        let auction = simple_auction(2);
        let mut rng = seeded_rng(4);
        assert_eq!(
            auction.run(vec![], &mut rng).unwrap_err(),
            AuctionError::NoBids
        );

        let bad_quality = SubmittedBid::new(NodeId(0), Quality::new(vec![-1.0]), 0.1);
        assert!(matches!(
            auction.run(vec![bad_quality], &mut rng).unwrap_err(),
            AuctionError::InvalidParameter(_)
        ));

        let bad_ask = SubmittedBid::new(NodeId(0), Quality::new(vec![1.0]), f64::NAN);
        assert!(auction.run(vec![bad_ask], &mut rng).is_err());

        let wrong_dims = SubmittedBid::new(NodeId(0), Quality::new(vec![1.0, 2.0]), 0.1);
        assert!(matches!(
            auction.run(vec![wrong_dims], &mut rng).unwrap_err(),
            AuctionError::DimensionMismatch { .. }
        ));

        // The dimension is checked first, as `BidStore::push` checks it.
        let both = SubmittedBid::new(NodeId(0), Quality::new(vec![f64::NAN, 1.0]), f64::NAN);
        assert!(matches!(
            auction.run(vec![both], &mut rng).unwrap_err(),
            AuctionError::DimensionMismatch { .. }
        ));
    }

    #[test]
    fn invalid_configuration_is_rejected() {
        let zero_k = simple_auction(0);
        let mut rng = seeded_rng(5);
        assert!(matches!(
            zero_k.run(vec![bid(0, 1.0, 0.1)], &mut rng).unwrap_err(),
            AuctionError::InvalidGame { .. }
        ));
        // An invalid game is reported before an empty bid list, as the streamed stage does.
        assert_eq!(
            zero_k.run(vec![], &mut rng).unwrap_err(),
            AuctionError::InvalidGame { n: 0, k: 0 }
        );
        let bad_psi = Auction::new(
            ScoringRule::new(Additive::new(vec![1.0]).unwrap()),
            1,
            SelectionRule::PsiFMore { psi: 0.0 },
            PricingRule::FirstPrice,
        );
        assert!(bad_psi.run(vec![bid(0, 1.0, 0.1)], &mut rng).is_err());
    }

    #[test]
    fn tie_break_is_random_but_deterministic_per_seed() {
        // Two identical bids: with different seeds the winner may differ, but the same seed
        // always yields the same outcome.
        let auction = simple_auction(1);
        let bids = vec![bid(0, 1.0, 0.2), bid(1, 1.0, 0.2)];
        let w1 = auction
            .run(bids.clone(), &mut seeded_rng(7))
            .unwrap()
            .winner_ids()
            .to_vec();
        let w2 = auction
            .run(bids.clone(), &mut seeded_rng(7))
            .unwrap()
            .winner_ids()
            .to_vec();
        assert_eq!(w1, w2);
        let mut seen = std::collections::HashSet::new();
        for seed in 0..32 {
            let w = auction
                .run(bids.clone(), &mut seeded_rng(seed))
                .unwrap()
                .winner_ids()
                .to_vec();
            seen.insert(w[0]);
        }
        assert_eq!(seen.len(), 2, "both tied nodes should win under some seed");
    }

    #[test]
    fn second_price_auction_pays_at_least_the_ask() {
        let auction = Auction::new(
            ScoringRule::new(CobbDouglas::with_scale(25.0, vec![1.0, 1.0]).unwrap()),
            2,
            SelectionRule::TopK,
            PricingRule::SecondPrice,
        );
        let mut rng = seeded_rng(8);
        let bids = vec![
            SubmittedBid::new(NodeId(0), Quality::new(vec![0.9, 0.9]), 3.0),
            SubmittedBid::new(NodeId(1), Quality::new(vec![0.8, 0.7]), 2.5),
            SubmittedBid::new(NodeId(2), Quality::new(vec![0.4, 0.5]), 1.0),
        ];
        let outcome = auction.run(bids, &mut rng).unwrap();
        for w in outcome.winners() {
            let ask = outcome
                .ranked
                .iter()
                .find(|b| b.node == w.node)
                .unwrap()
                .ask;
            assert!(w.payment >= ask - 1e-12);
        }
    }

    /// The standing pool a bounded selector keeps over `bids`: `K + reserve` deep.
    fn standing_pool<R: Rng>(
        auction: &Auction,
        bids: &[SubmittedBid],
        reserve: usize,
        rng: &mut R,
    ) -> StandingPool {
        let mut store = BidStore::with_dims(auction.scoring_rule().dims());
        for b in bids {
            store.push(b.node, b.quality.as_slice(), b.ask).unwrap();
        }
        store.score_with(auction.scoring_rule()).unwrap();
        let mut selector = auction.selector(reserve);
        selector.offer_store(&store, rng);
        selector.finish(rng)
    }

    #[test]
    fn reauction_refills_from_the_standing_pool() {
        let auction = simple_auction(2);
        let mut rng = seeded_rng(11);
        let bids = [
            bid(0, 1.0, 0.1),
            bid(1, 0.9, 0.1),
            bid(2, 0.8, 0.1),
            bid(3, 0.7, 0.1),
        ];
        let pool = standing_pool(&auction, &bids, bids.len(), &mut rng);
        let winners = auction.award_standing(&pool, 2, &[], &mut rng);
        let ids: Vec<NodeId> = winners.iter().map(|w| w.node).collect();
        assert_eq!(ids, [NodeId(0), NodeId(1)]);
        // Node 1 dropped out: recruit one replacement, excluding both original winners.
        let replacements =
            auction.award_standing(&pool, 1, &[NodeId(0), NodeId(1)], &mut seeded_rng(12));
        assert_eq!(replacements.len(), 1);
        assert_eq!(replacements[0].node, NodeId(2));
        // First-price: the replacement is paid its standing ask.
        assert!((replacements[0].payment - 0.1).abs() < 1e-12);
    }

    #[test]
    fn reauction_handles_exhausted_pools_and_zero_quota() {
        let auction = simple_auction(1);
        let mut rng = seeded_rng(13);
        let pool = standing_pool(&auction, &[bid(0, 1.0, 0.1), bid(1, 0.5, 0.2)], 1, &mut rng);
        // Everyone excluded: nothing to award.
        assert!(auction
            .award_standing(&pool, 3, &[NodeId(0), NodeId(1)], &mut rng)
            .is_empty());
        // Zero quota: nothing to award even with a full pool.
        assert!(auction.award_standing(&pool, 0, &[], &mut rng).is_empty());
        // Quota larger than the remaining pool: awards are capped by the pool.
        let all = auction.award_standing(&pool, 5, &[NodeId(0)], &mut rng);
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].node, NodeId(1));
    }

    /// A second-price refill from a pool cut to `K + reserve` pays what a refill from the
    /// whole ranked population pays: the best losing score merges the pool's best
    /// non-picked candidate with the best score the selector dropped. With one reserve
    /// candidate the refill empties the pool and only the dropped score prices it; with two
    /// the pool's own next candidate does.
    #[test]
    fn second_price_refill_from_a_truncated_pool_prices_like_the_full_population() {
        let auction = Auction::new(
            ScoringRule::new(Additive::new(vec![1.0]).unwrap()),
            2,
            SelectionRule::TopK,
            PricingRule::SecondPrice,
        );
        // Scores 0.9, 0.8, …, 0.4 for nodes 0, 1, …, 5.
        let bids: Vec<SubmittedBid> = (0..6u32)
            .map(|i| bid(u64::from(i), 1.0 - 0.1 * f64::from(i), 0.1))
            .collect();
        let full = standing_pool(&auction, &bids, bids.len(), &mut seeded_rng(21));
        let prior = [NodeId(0), NodeId(1)];
        let reference = auction.award_standing(&full, 1, &prior, &mut seeded_rng(22));
        assert_eq!(reference.len(), 1);
        assert_eq!(reference[0].node, NodeId(2));
        // s(q) = 0.8, best losing score 0.6 (node 3): paid 0.2, above the 0.1 ask.
        assert!((reference[0].payment - 0.2).abs() < 1e-12);
        for reserve in [1usize, 2] {
            let pool = standing_pool(&auction, &bids, reserve, &mut seeded_rng(21));
            assert_eq!(pool.len(), 2 + reserve);
            let first_cut = full.candidates()[2 + reserve].score;
            assert_eq!(pool.best_dropped_score(), Some(first_cut));
            let refill = auction.award_standing(&pool, 1, &prior, &mut seeded_rng(22));
            assert_eq!(refill.len(), 1, "reserve {reserve}");
            assert_eq!(refill[0].node, reference[0].node, "reserve {reserve}");
            assert_eq!(
                refill[0].payment.to_bits(),
                reference[0].payment.to_bits(),
                "reserve {reserve}"
            );
        }
    }

    #[test]
    fn accessors_expose_configuration() {
        let auction = simple_auction(7);
        assert_eq!(auction.winners_per_round(), 7);
        assert_eq!(auction.selection_rule(), SelectionRule::TopK);
        assert_eq!(auction.pricing, PricingRule::FirstPrice);
        assert_eq!(auction.scoring_rule().dims(), 1);
    }
}
