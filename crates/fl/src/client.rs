//! Edge clients: data shard, private cost parameter, dynamic resource provision, and bidding.

use crate::error::FlError;
use fmore_auction::{EquilibriumSolver, EquilibriumStrategy, NodeId, Quality, SubmittedBid};
use fmore_ml::dataset::Dataset;
use fmore_ml::partition::ClientShard;
use rand::rngs::StdRng;
use rand::Rng;

/// An edge node participating in federated learning.
///
/// A client owns a data shard, a private cost parameter θ (drawn once and kept secret from
/// the aggregator), and a per-round availability: MEC nodes have other tasks, so only a
/// random fraction of the shard is offered in any given round, reproducing the "dynamic
/// resource provision" of Section II-A.
#[derive(Debug, Clone)]
pub struct EdgeClient {
    id: NodeId,
    shard: ClientShard,
    theta: f64,
    /// The equilibrium strategy solved from θ when the scoring rule was broadcast; `None`
    /// until [`EdgeClient::adopt_strategy`] (non-auction schemes never broadcast one).
    strategy: Option<EquilibriumStrategy>,
    rng: StdRng,
    /// Indices (into the global dataset) available in the current round.
    available: Vec<usize>,
    /// Distinct classes among the currently available samples.
    available_categories: usize,
}

impl EdgeClient {
    /// Creates a client with the given shard, private cost parameter, and RNG seed.
    pub fn new(id: NodeId, shard: ClientShard, theta: f64, seed: u64) -> Self {
        let available = shard.indices.clone();
        let available_categories = shard.categories;
        Self {
            id,
            shard,
            theta,
            strategy: None,
            rng: fmore_numerics::seeded_rng(seed),
            available,
            available_categories,
        }
    }

    /// The client's node identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The private cost parameter θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The full data shard owned by the client.
    pub fn shard(&self) -> &ClientShard {
        &self.shard
    }

    /// Sample indices the client offers in the current round.
    pub fn available_indices(&self) -> &[usize] {
        &self.available
    }

    /// Data size offered in the current round (the `q1` resource).
    pub fn data_size(&self) -> usize {
        self.available.len()
    }

    /// Number of distinct classes among the offered samples.
    pub fn categories(&self) -> usize {
        self.available_categories
    }

    /// Category proportion `q2 ∈ (0, 1]` relative to the task's class count.
    pub fn category_proportion(&self, num_classes: usize) -> f64 {
        if num_classes == 0 {
            return 0.0;
        }
        self.available_categories as f64 / num_classes as f64
    }

    /// Re-draws the per-round availability: a uniform fraction of the shard in
    /// `availability = (lo, hi)` becomes this round's offered data.
    pub fn refresh_availability(&mut self, availability: (f64, f64), data: &Dataset) {
        let (lo, hi) = availability;
        let fraction = if hi > lo {
            self.rng.gen_range(lo..=hi)
        } else {
            hi
        };
        let target = ((self.shard.size() as f64) * fraction).round().max(1.0) as usize;
        let target = target.min(self.shard.size());
        let picked = fmore_numerics::rng::sample_indices(self.shard.size(), target, &mut self.rng);
        self.available = picked.iter().map(|&i| self.shard.indices[i]).collect();
        self.available_categories = data.category_count(&self.available);
    }

    /// Draws the subset of this round's available samples the client actually trains on,
    /// using the client's own seeded RNG, into `out` (cleared first, capacity reused).
    ///
    /// A winner may have declared (and be paid for) fewer samples than it has available; the
    /// trained subset is then a uniform draw from the availability — **not** a prefix of it.
    pub fn draw_training_subset_into(&mut self, take: usize, out: &mut Vec<usize>) {
        let take = take.min(self.available.len()).max(1);
        if take >= self.available.len() {
            out.clear();
            out.extend_from_slice(&self.available);
            return;
        }
        fmore_numerics::rng::sample_indices_into(self.available.len(), take, &mut self.rng, out);
        for slot in out.iter_mut() {
            *slot = self.available[*slot];
        }
    }

    /// The client's currently offered resource quality `(q1, q2)` =
    /// (data size normalised by `max_data_size`, category proportion).
    pub fn resource_quality(&self, max_data_size: f64, num_classes: usize) -> Quality {
        let q1 = if max_data_size > 0.0 {
            (self.data_size() as f64 / max_data_size).clamp(0.0, 1.0)
        } else {
            0.0
        };
        Quality::new(vec![q1, self.category_proportion(num_classes)])
    }

    /// Step 1 of Algorithm 1 from the client's side: the aggregator broadcast its scoring
    /// rule, and the client solves its equilibrium strategy `(q*(θ), p*(θ))` against it —
    /// once, since θ never changes. Every later [`EdgeClient::make_bid`] only caps that
    /// strategy to the round's resources. Adopting again replaces the strategy (a new rule
    /// was broadcast).
    ///
    /// # Errors
    ///
    /// Returns [`FlError::Auction`] if θ lies outside the solver's support.
    pub fn adopt_strategy(&mut self, solver: &EquilibriumSolver) -> Result<(), FlError> {
        self.strategy = Some(solver.strategy_for(self.theta)?);
        Ok(())
    }

    /// Computes the client's sealed bid for one FMore round from its adopted strategy.
    ///
    /// The declared quality is the Nash-equilibrium quality of Che's Theorem 1, capped by the
    /// resources the client actually has this round (it cannot promise more data or more
    /// categories than it holds); the payment ask is the equilibrium payment `p*(θ)` of
    /// Theorem 1. No solver is involved: per round this costs the capacity vector and the
    /// declared-quality vector, nothing else.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::InvalidConfig`] if no strategy was adopted, and
    /// [`FlError::Auction`] if the strategy's dimension is not the client's two resources.
    pub fn make_bid(
        &self,
        max_data_size: f64,
        num_classes: usize,
    ) -> Result<SubmittedBid, FlError> {
        let strategy = self.strategy.as_ref().ok_or_else(|| {
            FlError::InvalidConfig(format!("{} bids before adopting a strategy", self.id))
        })?;
        let capacity = self.resource_quality(max_data_size, num_classes);
        Ok(strategy.cap(self.id, capacity.as_slice())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{collect_adopted_bids, collect_bids};
    use fmore_auction::{CobbDouglas, CountingScoring, LinearCost, PaymentMethod, ScoringFunction};
    use fmore_ml::dataset::SyntheticImageSpec;
    use fmore_ml::partition::{partition_non_iid, PartitionConfig};
    use fmore_numerics::{seeded_rng, UniformDist};
    use std::sync::Arc;

    fn setup() -> (Dataset, Vec<EdgeClient>) {
        let mut rng = seeded_rng(1);
        let data = SyntheticImageSpec::mnist_like().generate(1000, &mut rng);
        let shards = partition_non_iid(
            &data,
            &PartitionConfig {
                clients: 10,
                size_range: (30, 120),
                category_range: (2, 8),
            },
            &mut rng,
        );
        let clients = shards
            .into_iter()
            .enumerate()
            .map(|(i, shard)| {
                EdgeClient::new(
                    NodeId(i as u64),
                    shard,
                    0.1 + 0.08 * i as f64,
                    100 + i as u64,
                )
            })
            .collect();
        (data, clients)
    }

    fn solver() -> EquilibriumSolver {
        solver_scoring_with(CobbDouglas::with_scale(25.0, vec![1.0, 1.0]).unwrap())
    }

    fn solver_scoring_with(scoring: impl ScoringFunction + 'static) -> EquilibriumSolver {
        EquilibriumSolver::builder()
            .scoring(scoring)
            .cost(LinearCost::new(vec![2.0, 1.0]).unwrap())
            .theta(UniformDist::new(0.1, 1.0).unwrap())
            .bounds(vec![(0.0, 1.0), (0.0, 1.0)])
            .population(10)
            .winners(3)
            .payment_method(PaymentMethod::Quadrature)
            .grid_size(64)
            .build()
            .unwrap()
    }

    #[test]
    fn client_exposes_shard_and_theta() {
        let (data, clients) = setup();
        let c = &clients[0];
        assert_eq!(c.id(), NodeId(0));
        assert!((c.theta() - 0.1).abs() < 1e-12);
        assert_eq!(c.data_size(), c.shard().size());
        assert!(c.categories() >= 1);
        assert!(c.category_proportion(data.num_classes()) > 0.0);
        assert_eq!(c.category_proportion(0), 0.0);
    }

    #[test]
    fn availability_shrinks_the_offered_data() {
        let (data, mut clients) = setup();
        let c = &mut clients[0];
        let full = c.shard().size();
        c.refresh_availability((0.5, 0.6), &data);
        assert!(c.data_size() >= (full as f64 * 0.45) as usize);
        assert!(c.data_size() <= (full as f64 * 0.65).ceil() as usize);
        // Offered indices are a subset of the shard.
        assert!(c
            .available_indices()
            .iter()
            .all(|i| c.shard().indices.contains(i)));
        // Re-drawing availability changes the offer (with very high probability).
        let first = c.available_indices().to_vec();
        c.refresh_availability((0.5, 0.6), &data);
        assert_ne!(first, c.available_indices());
    }

    #[test]
    fn resource_quality_is_normalised() {
        let (data, clients) = setup();
        let q = clients[3].resource_quality(120.0, data.num_classes());
        assert_eq!(q.dims(), 2);
        assert!(q.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
        // Zero max size degenerates gracefully.
        let q0 = clients[3].resource_quality(0.0, data.num_classes());
        assert_eq!(q0.get(0), Some(0.0));
    }

    #[test]
    fn bids_are_capped_by_actual_resources_and_cover_cost() {
        let (data, mut clients) = setup();
        let solver = solver();
        let cost = LinearCost::new(vec![2.0, 1.0]).unwrap();
        for c in &mut clients {
            c.adopt_strategy(&solver).unwrap();
            let bid = c.make_bid(120.0, data.num_classes()).unwrap();
            let capacity = c.resource_quality(120.0, data.num_classes());
            assert!(
                bid.quality.dominated_by(&capacity),
                "bid must not exceed capacity"
            );
            // The ask covers the cost of the *declared* quality (declared ≤ equilibrium
            // quality, and cost is increasing, so equilibrium payment is enough).
            let c_declared =
                fmore_auction::CostFunction::value(&cost, bid.quality.as_slice(), c.theta());
            assert!(bid.ask >= c_declared - 1e-9);
        }
    }

    #[test]
    fn bidding_before_adoption_is_a_typed_error() {
        let (data, mut clients) = setup();
        assert!(matches!(
            clients[0].make_bid(120.0, data.num_classes()),
            Err(FlError::InvalidConfig(_))
        ));
        assert!(matches!(
            collect_adopted_bids(&clients, 120.0, data.num_classes()),
            Err(FlError::InvalidConfig(_))
        ));
        // A θ outside the broadcast rule's support is refused at adoption, not per round.
        let shard = clients[0].shard().clone();
        let mut outsider = EdgeClient::new(NodeId(99), shard, 7.5, 1);
        assert!(matches!(
            outsider.adopt_strategy(&solver()),
            Err(FlError::Auction(_))
        ));
        assert!(outsider.make_bid(120.0, data.num_classes()).is_err());
        clients[0].adopt_strategy(&solver()).unwrap();
        assert!(clients[0].make_bid(120.0, data.num_classes()).is_ok());
    }

    #[test]
    fn bid_collection_after_adoption_never_evaluates_the_solver() {
        let (data, mut clients) = setup();
        let scoring = Arc::new(CountingScoring::new(
            CobbDouglas::with_scale(25.0, vec![1.0, 1.0]).unwrap(),
        ));
        let solver = solver_scoring_with(Arc::clone(&scoring));
        for c in &mut clients {
            c.adopt_strategy(&solver).unwrap();
        }
        let adopted = scoring.evaluations();
        assert!(adopted > 0, "adoption is where the solving happens");
        for _ in 0..4 {
            for c in &mut clients {
                c.refresh_availability((0.4, 1.0), &data);
            }
            let solved = scoring.evaluations();
            let kept = collect_adopted_bids(&clients, 120.0, data.num_classes()).unwrap();
            assert_eq!(
                scoring.evaluations(),
                solved,
                "a round of bid collection must not touch the solver"
            );
            // The one-shot stage re-solves every θ and lands on the same bids, bit for bit.
            let fresh = collect_bids(&clients, &solver, 120.0, data.num_classes()).unwrap();
            assert!(scoring.evaluations() > solved);
            assert_eq!(kept.len(), fresh.len());
            for (k, f) in kept.iter().zip(&fresh) {
                assert_eq!(k.node, f.node);
                assert_eq!(k.ask.to_bits(), f.ask.to_bits());
                let bits = |b: &SubmittedBid| -> Vec<u64> {
                    b.quality.as_slice().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(k), bits(f));
            }
        }
    }

    #[test]
    fn lower_theta_clients_achieve_higher_auction_scores() {
        // A better (cheaper) type has lower cost at the same quality, so the equilibrium
        // payment it needs is smaller and the resulting score s(q) − p is higher — the
        // mechanism's whole point.
        let (data, mut clients) = setup();
        let solver = solver();
        for c in &mut clients {
            c.adopt_strategy(&solver).unwrap();
        }
        let scoring = CobbDouglas::with_scale(25.0, vec![1.0, 1.0]).unwrap();
        let score_of = |client: &EdgeClient| {
            let bid = client.make_bid(120.0, data.num_classes()).unwrap();
            fmore_auction::ScoringFunction::value(&scoring, bid.quality.as_slice()) - bid.ask
        };
        assert!(clients[0].theta() < clients[9].theta());
        // Compare two clients with identical capacity by construction of the solver bounds:
        // the good type's maximum attainable score is higher.
        let u_good = solver.max_score(clients[0].theta()).unwrap();
        let u_bad = solver.max_score(clients[9].theta()).unwrap();
        assert!(u_good > u_bad);
        // And its realised score is at least as good on average across the population.
        let scores: Vec<f64> = clients.iter().map(score_of).collect();
        assert!(scores[0] >= *scores.last().unwrap() - 1e-9 || u_good > u_bad);
    }
}
