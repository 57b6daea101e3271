//! Edge nodes of the simulated cluster and their dynamic resource provision.

use crate::error::MecError;
use fmore_auction::{EquilibriumSolver, EquilibriumStrategy, NodeId, SubmittedBid};
use rand::rngs::StdRng;
use rand::Rng;

/// The resources an edge node offers in one round (Section V-C: computing power, bandwidth,
/// and data size; "nodes randomly choose different quantities of resources in each round").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceProfile {
    /// Number of CPU cores devoted to local training.
    pub cpu_cores: f64,
    /// Bandwidth towards the aggregator in Mbps.
    pub bandwidth_mbps: f64,
    /// Number of local training samples offered.
    pub data_size: f64,
}

impl ResourceProfile {
    /// Allocation-free form of [`ResourceProfile::to_quality`]: writes the normalised
    /// components into `out` (cleared first, capacity reused) — the form the
    /// population-scale bid path cycles through per node.
    #[inline(always)]
    pub(crate) fn quality_into(&self, max: &ResourceProfile, out: &mut Vec<f64>) {
        out.clear();
        out.extend_from_slice(&self.to_quality_array(max));
    }

    /// Stack-array form of `ResourceProfile::quality_into` — same normalisation, no
    /// heap buffer; the population-scale bid loop keeps the round's capacity in registers.
    #[inline(always)]
    pub fn to_quality_array(&self, max: &ResourceProfile) -> [f64; 3] {
        let norm = |v: f64, m: f64| {
            if m > 0.0 {
                (v / m).clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        [
            norm(self.cpu_cores, max.cpu_cores),
            norm(self.bandwidth_mbps, max.bandwidth_mbps),
            norm(self.data_size, max.data_size),
        ]
    }
}

/// Per-node ranges from which the round-by-round resource provision is drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceRanges {
    /// Min/max CPU cores.
    pub cpu_cores: (f64, f64),
    /// Min/max bandwidth in Mbps.
    pub bandwidth_mbps: (f64, f64),
    /// Min/max offered data size in samples.
    pub data_size: (f64, f64),
}

impl ResourceRanges {
    /// The paper's cluster hardware class: Intel i7 (up to 8 cores), 1 Gbps Ethernet shared
    /// with other traffic, and data allocated over `[2000, 10000]` samples.
    pub(crate) fn paper_cluster() -> Self {
        Self {
            cpu_cores: (1.0, 8.0),
            bandwidth_mbps: (100.0, 1000.0),
            data_size: (2000.0, 10_000.0),
        }
    }

    /// The per-dimension maxima, used for normalisation.
    #[inline]
    pub(crate) fn maxima(&self) -> ResourceProfile {
        ResourceProfile {
            cpu_cores: self.cpu_cores.1,
            bandwidth_mbps: self.bandwidth_mbps.1,
            data_size: self.data_size.1,
        }
    }

    pub(crate) fn draw(&self, rng: &mut StdRng) -> ResourceProfile {
        let sample = |(lo, hi): (f64, f64), rng: &mut StdRng| {
            if hi > lo {
                rng.gen_range(lo..=hi)
            } else {
                hi
            }
        };
        ResourceProfile {
            cpu_cores: sample(self.cpu_cores, rng).round().max(1.0),
            bandwidth_mbps: sample(self.bandwidth_mbps, rng),
            data_size: sample(self.data_size, rng).round(),
        }
    }

    /// Validates that every range is ordered and positive.
    pub(crate) fn is_valid(&self) -> bool {
        let ok = |(lo, hi): (f64, f64)| lo > 0.0 && hi >= lo && hi.is_finite();
        ok(self.cpu_cores) && ok(self.bandwidth_mbps) && ok(self.data_size)
    }
}

/// One edge node of the simulated cluster.
#[derive(Debug, Clone)]
pub struct MecNode {
    id: NodeId,
    ranges: ResourceRanges,
    theta: f64,
    /// The equilibrium strategy solved from θ when the scoring rule was broadcast; `None`
    /// until [`MecNode::adopt_strategy`] (a RandFL cluster never broadcasts one).
    strategy: Option<EquilibriumStrategy>,
    rng: StdRng,
    current: ResourceProfile,
}

impl MecNode {
    /// Creates a node with its resource ranges, private cost parameter, and RNG seed.
    pub(crate) fn new(id: NodeId, ranges: ResourceRanges, theta: f64, seed: u64) -> Self {
        let mut rng = fmore_numerics::seeded_rng(seed);
        let current = ranges.draw(&mut rng);
        Self {
            id,
            ranges,
            theta,
            strategy: None,
            rng,
            current,
        }
    }

    /// The node's private cost parameter θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Step 1 of Algorithm 1 from the node's side: solves the node's equilibrium strategy
    /// `(q*(θ), p*(θ))` against the broadcast rule — once, since θ never changes; the node
    /// keeps it through departures and re-arrivals, and each round's bid only caps it to the
    /// resources on offer. Adopting again replaces the strategy.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::Auction`] if θ lies outside the solver's support.
    pub(crate) fn adopt_strategy(&mut self, solver: &EquilibriumSolver) -> Result<(), MecError> {
        self.strategy = Some(solver.strategy_for(self.theta)?);
        Ok(())
    }

    /// The node's sealed bid for the current round: its adopted strategy capped to the
    /// resources it offers now, normalised against `maxima`. No solver is involved.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::InvalidConfig`] if no strategy was adopted, and
    /// [`MecError::Auction`] if the strategy's dimension is not the node's three resources.
    pub(crate) fn make_bid(&self, maxima: &ResourceProfile) -> Result<SubmittedBid, MecError> {
        let strategy = self.strategy.as_ref().ok_or_else(|| {
            MecError::InvalidConfig(format!("{} bids before adopting a strategy", self.id))
        })?;
        Ok(strategy.cap(self.id, &self.current.to_quality_array(maxima))?)
    }

    /// The resources the node offers in the current round.
    pub(crate) fn current(&self) -> ResourceProfile {
        self.current
    }

    /// Re-draws the resources offered for the next round (the dynamic provision of MEC).
    pub(crate) fn refresh(&mut self) {
        self.current = self.ranges.draw(&mut self.rng);
    }
}

#[cfg(test)]
impl ResourceProfile {
    /// Normalises the profile against per-dimension maxima into a quality vector
    /// `(q1, q2, q3) ∈ [0, 1]³` in the paper's order (computing power, bandwidth, data size).
    pub(crate) fn to_quality(self, max: &ResourceProfile) -> fmore_auction::Quality {
        let mut out = Vec::with_capacity(3);
        self.quality_into(max, &mut out);
        fmore_auction::Quality::new(out)
    }
}

#[cfg(test)]
impl MecNode {
    /// The node identifier.
    pub(crate) fn id(&self) -> NodeId {
        self.id
    }

    /// The node's resource ranges.
    pub(crate) fn ranges(&self) -> &ResourceRanges {
        &self.ranges
    }

    /// The node's current quality vector, normalised against `maxima`.
    pub(crate) fn quality(&self, maxima: &ResourceProfile) -> fmore_auction::Quality {
        self.current.to_quality(maxima)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ranges_are_valid_and_ordered() {
        let r = ResourceRanges::paper_cluster();
        assert!(r.is_valid());
        let max = r.maxima();
        assert_eq!(max.cpu_cores, 8.0);
        assert_eq!(max.bandwidth_mbps, 1000.0);
        assert_eq!(max.data_size, 10_000.0);
    }

    #[test]
    fn invalid_ranges_are_detected() {
        let bad = ResourceRanges {
            cpu_cores: (0.0, 8.0),
            ..ResourceRanges::paper_cluster()
        };
        assert!(!bad.is_valid());
        let bad = ResourceRanges {
            data_size: (100.0, 50.0),
            ..ResourceRanges::paper_cluster()
        };
        assert!(!bad.is_valid());
    }

    #[test]
    fn node_draws_resources_within_ranges() {
        let ranges = ResourceRanges::paper_cluster();
        let mut node = MecNode::new(NodeId(1), ranges, 0.4, 11);
        for _ in 0..20 {
            node.refresh();
            let p = node.current();
            assert!((1.0..=8.0).contains(&p.cpu_cores));
            assert!((100.0..=1000.0).contains(&p.bandwidth_mbps));
            assert!((2000.0..=10_000.0).contains(&p.data_size));
        }
        assert_eq!(node.id(), NodeId(1));
        assert!((node.theta() - 0.4).abs() < 1e-12);
        assert!(node.ranges().is_valid());
    }

    #[test]
    fn refresh_changes_the_offer() {
        let mut node = MecNode::new(NodeId(0), ResourceRanges::paper_cluster(), 0.3, 5);
        let first = node.current();
        node.refresh();
        // Three continuous draws are essentially never identical.
        assert_ne!(first, node.current());
    }

    #[test]
    fn quality_is_normalised_into_unit_cube() {
        let ranges = ResourceRanges::paper_cluster();
        let node = MecNode::new(NodeId(2), ranges, 0.5, 3);
        let q = node.quality(&ranges.maxima());
        assert_eq!(q.dims(), 3);
        assert!(q.as_slice().iter().all(|v| (0.0..=1.0).contains(v)));
        // Degenerate maxima give zero quality rather than NaN.
        let zero = ResourceProfile {
            cpu_cores: 0.0,
            bandwidth_mbps: 0.0,
            data_size: 0.0,
        };
        let q0 = node.current().to_quality(&zero);
        assert_eq!(q0.as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn node_draws_are_deterministic_per_seed() {
        let ranges = ResourceRanges::paper_cluster();
        let mut a = MecNode::new(NodeId(0), ranges, 0.3, 42);
        let mut b = MecNode::new(NodeId(0), ranges, 0.3, 42);
        for _ in 0..5 {
            a.refresh();
            b.refresh();
            assert_eq!(a.current(), b.current());
        }
    }
}
