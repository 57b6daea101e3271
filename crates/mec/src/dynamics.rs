//! Churn and deadline dynamics of a real MEC deployment.
//!
//! The paper's whole pitch is incentivizing participation in a *dynamic* edge environment
//! (§I: nodes "may join or leave anytime"; §VI: the mechanism must stay lightweight and
//! robust under it), yet a static reproduction lets every selected winner finish every
//! round. This module supplies the missing dynamics as a seeded, fully deterministic layer:
//!
//! * [`ChurnModel`] — the per-round stochastic processes: node **departures** and
//!   **arrivals** (population churn between rounds), winner **dropouts** (a selected node
//!   vanishes mid-round; its update is lost and its payment forfeited), **stragglers** (a
//!   winner's round is slowed by a multiplicative factor), and **resource jitter** (the
//!   resources actually available during execution wander around what was declared at bid
//!   time).
//! * `ChurnState` — the mutable per-cluster state: which nodes are currently present plus
//!   the model's own RNG stream, kept separate from the auction/training RNGs so enabling
//!   churn never perturbs the static results.
//! * [`DynamicsConfig`] — churn plus the **server deadline** and the re-auction budget,
//!   attached to a `ClusterConfig`; a cluster without one runs the same round loop with
//!   every node present, every winner on time, and no deadline.
//!
//! # Deadline and re-auction semantics
//!
//! A dynamic round is synchronous with a server deadline `T`: winners whose simulated
//! completion time (computation + communication, straggler slowdown and resource jitter
//! applied) exceeds `T` deliver too late to aggregate — the server honours their payment
//! (work was delivered, merely late) but the spend is **wasted**. Dropouts never deliver and
//! forfeit payment. Whenever the surviving winner set is under quota, the aggregator runs a
//! **re-auction wave** over the round's standing bid pool
//! ([`fmore_auction::Auction::award_standing`]): the already-collected sealed bids compete again
//! under the same scoring rule, excluding every node already assigned. This mirrors the
//! paper's dynamic-environment discussion — recruitment must not restart the bid-ask phase,
//! and because the standing bids are equilibrium bids for this round's broadcast rule, the
//! refill is incentive-neutral. Each wave costs simulated time (its own deadline window when
//! anyone fails, otherwise the slowest on-time delivery), so churn degrades time-to-accuracy
//! exactly the way Figs. 12–13 would show on real hardware.
//!
//! All draws happen on the control thread in node/slot order, so a churn-enabled run is
//! bit-identical across worker-pool sizes and execution modes — the same guarantee the
//! static engine gives.

use crate::error::MecError;
use rand::rngs::StdRng;
use rand::Rng;

/// The per-round stochastic churn processes of a dynamic MEC deployment.
///
/// All probabilities are per round: departures/arrivals are drawn per node between rounds,
/// dropout/straggler fates per assigned winner within a round. The model is pure data —
/// state (presence, RNG) lives in `ChurnState`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnModel {
    /// Probability that a present node leaves the cluster before the next bid collection.
    pub departure_prob: f64,
    /// Probability that an absent node rejoins before the next bid collection.
    pub arrival_prob: f64,
    /// Probability that an assigned winner vanishes mid-round (update lost, payment
    /// forfeited).
    pub dropout_prob: f64,
    /// Probability that an assigned winner is slowed this round.
    pub straggler_prob: f64,
    /// Multiplicative slowdown applied to a straggler's completion time (≥ 1).
    pub straggler_slowdown: f64,
    /// Half-width of the multiplicative jitter on executed resources: the compute and
    /// bandwidth actually available during the round are the declared values scaled by a
    /// factor drawn uniformly from `[1 − jitter, 1 + jitter]`.
    pub resource_jitter: f64,
    /// Floor on the present population: departures stop once only this many nodes remain,
    /// so the cluster can never churn itself empty.
    pub min_present: usize,
}

impl ChurnModel {
    /// The degenerate model: no churn at all. A round under this model behaves like one
    /// without dynamics (modulo the deadline gate).
    pub fn stable() -> Self {
        Self {
            departure_prob: 0.0,
            arrival_prob: 0.0,
            dropout_prob: 0.0,
            straggler_prob: 0.0,
            straggler_slowdown: 1.0,
            resource_jitter: 0.0,
            min_present: 1,
        }
    }

    /// A moderate edge-environment default: occasional departures and dropouts, noticeable
    /// straggling, mild resource jitter.
    pub fn edge_default() -> Self {
        Self {
            departure_prob: 0.05,
            arrival_prob: 0.3,
            dropout_prob: 0.1,
            straggler_prob: 0.15,
            straggler_slowdown: 3.0,
            resource_jitter: 0.1,
            min_present: 2,
        }
    }

    /// Returns the model with the per-winner dropout probability replaced.
    pub fn with_dropout(mut self, p: f64) -> Self {
        self.dropout_prob = p;
        self
    }

    /// Returns the model with the per-winner straggler probability replaced.
    pub fn with_stragglers(mut self, p: f64, slowdown: f64) -> Self {
        self.straggler_prob = p;
        self.straggler_slowdown = slowdown;
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::InvalidConfig`] describing the first violated constraint.
    pub(crate) fn validate(&self) -> Result<(), MecError> {
        let prob_ok = |p: f64| (0.0..=1.0).contains(&p);
        if !(prob_ok(self.departure_prob)
            && prob_ok(self.arrival_prob)
            && prob_ok(self.dropout_prob)
            && prob_ok(self.straggler_prob))
        {
            return Err(MecError::InvalidConfig(
                "churn probabilities must lie in [0, 1]".into(),
            ));
        }
        if !(self.straggler_slowdown >= 1.0 && self.straggler_slowdown.is_finite()) {
            return Err(MecError::InvalidConfig(format!(
                "straggler slowdown {} must be a finite factor >= 1",
                self.straggler_slowdown
            )));
        }
        if !((0.0..1.0).contains(&self.resource_jitter)) {
            return Err(MecError::InvalidConfig(format!(
                "resource jitter {} must lie in [0, 1)",
                self.resource_jitter
            )));
        }
        if self.min_present == 0 {
            return Err(MecError::InvalidConfig(
                "min_present must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// The fate drawn for one assigned winner within a round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ParticipantFate {
    /// The winner vanished mid-round.
    pub dropped_out: bool,
    /// The winner's round is slowed by the model's straggler factor.
    pub straggler: bool,
    /// Multiplicative factor on the resources (compute, bandwidth) actually available during
    /// execution, drawn from `[1 − jitter, 1 + jitter]`.
    pub resource_factor: f64,
}

impl ParticipantFate {
    /// The fate of a winner in a cluster without dynamics: present to the end, on time, with
    /// exactly the resources it declared.
    pub(crate) const NEUTRAL: Self = Self {
        dropped_out: false,
        straggler: false,
        resource_factor: 1.0,
    };
}

/// The membership change of one inter-round churn step.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct MembershipChange {
    /// Node indices that left the cluster this round.
    pub departed: Vec<usize>,
    /// Node indices that rejoined this round.
    pub arrived: Vec<usize>,
}

/// Mutable churn state of one cluster run: per-node presence plus the model's private RNG
/// stream.
///
/// All draws happen in deterministic node/slot order on the control thread; the stream is
/// seeded independently of the auction and training RNGs, so enabling a zero-probability
/// churn model reproduces the static results exactly.
#[derive(Debug, Clone)]
pub(crate) struct ChurnState {
    rng: StdRng,
    present: Vec<bool>,
}

impl ChurnState {
    /// Creates the state for `nodes` initially-present nodes.
    pub(crate) fn new(nodes: usize, seed: u64) -> Self {
        Self {
            rng: fmore_numerics::seeded_rng(seed),
            present: vec![true; nodes],
        }
    }

    /// Number of currently present nodes.
    pub(crate) fn present_count(&self) -> usize {
        self.present.iter().filter(|&&p| p).count()
    }

    /// Indices of the currently present nodes, in node order.
    pub(crate) fn present_indices(&self) -> Vec<usize> {
        self.present
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| p.then_some(i))
            .collect()
    }

    /// Advances membership by one round: present nodes depart with the model's departure
    /// probability (respecting the `min_present` floor, in node order), absent nodes rejoin
    /// with its arrival probability. If mid-round dropouts ([`ChurnState::mark_departed`])
    /// pushed the population below the floor, nodes are revived (in node order, no RNG
    /// consumed) until the floor holds again — the floor is an invariant at bid-collection
    /// time, so the cluster can never start a round churned empty.
    pub(crate) fn begin_round(&mut self, model: &ChurnModel) -> MembershipChange {
        let mut change = MembershipChange::default();
        let mut remaining = self.present_count();
        for idx in 0..self.present.len() {
            if self.present[idx] {
                // Draw unconditionally so the RNG stream does not depend on the floor.
                let departs = self.rng.gen::<f64>() < model.departure_prob;
                if departs && remaining > model.min_present {
                    self.present[idx] = false;
                    remaining -= 1;
                    change.departed.push(idx);
                }
            } else if self.rng.gen::<f64>() < model.arrival_prob {
                self.present[idx] = true;
                remaining += 1;
                change.arrived.push(idx);
            }
        }
        for idx in 0..self.present.len() {
            if remaining >= model.min_present {
                break;
            }
            if !self.present[idx] {
                self.present[idx] = true;
                remaining += 1;
                change.arrived.push(idx);
            }
        }
        change
    }

    /// Marks a node absent immediately (a mid-round dropout also leaves the cluster; it may
    /// rejoin through the arrival process — and is revived at the start of the next round if
    /// the population fell below the model's `min_present` floor).
    pub(crate) fn mark_departed(&mut self, idx: usize) {
        if let Some(slot) = self.present.get_mut(idx) {
            *slot = false;
        }
    }

    /// Draws the in-round fate of one assigned winner.
    pub(crate) fn draw_fate(&mut self, model: &ChurnModel) -> ParticipantFate {
        // Three draws in fixed order keep the stream independent of the outcomes.
        let dropped_out = self.rng.gen::<f64>() < model.dropout_prob;
        let straggler = self.rng.gen::<f64>() < model.straggler_prob;
        let unit: f64 = self.rng.gen();
        let resource_factor = 1.0 + model.resource_jitter * (2.0 * unit - 1.0);
        ParticipantFate {
            dropped_out,
            straggler,
            resource_factor,
        }
    }
}

/// Everything a cluster round needs to churn: the churn model, the server deadline, and the
/// re-auction budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicsConfig {
    /// The churn processes.
    pub churn: ChurnModel,
    /// Server deadline per delivery wave, in simulated seconds: winners delivering later are
    /// excluded from aggregation (their payment is honoured but wasted).
    pub deadline_secs: f64,
    /// Maximum re-auction waves per round when the surviving winner set is under quota.
    pub max_reauction_waves: usize,
}

impl DynamicsConfig {
    /// A dynamics configuration with the given churn model and a deadline calibrated to the
    /// paper's hardware class (generous enough for a mid-range node, tight enough that slow
    /// stragglers miss it).
    pub fn new(churn: ChurnModel) -> Self {
        Self {
            churn,
            deadline_secs: 60.0,
            max_reauction_waves: 2,
        }
    }

    /// Returns the configuration with the deadline replaced.
    pub fn with_deadline(mut self, secs: f64) -> Self {
        self.deadline_secs = secs;
        self
    }

    /// Returns the configuration with the re-auction budget replaced.
    pub fn with_reauction_waves(mut self, waves: usize) -> Self {
        self.max_reauction_waves = waves;
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::InvalidConfig`] describing the first violated constraint.
    pub(crate) fn validate(&self) -> Result<(), MecError> {
        self.churn.validate()?;
        // Infinity is rejected too: one failed wave would cost the server an infinite wait
        // and poison every downstream time metric. "No deadline pressure" is any finite
        // value above the slowest plausible node.
        if !(self.deadline_secs > 0.0 && self.deadline_secs.is_finite()) {
            return Err(MecError::InvalidConfig(format!(
                "deadline {} must be positive and finite",
                self.deadline_secs
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
impl ChurnModel {
    /// Returns the model with the departure/arrival processes replaced.
    pub(crate) fn with_membership(mut self, departure: f64, arrival: f64) -> Self {
        self.departure_prob = departure;
        self.arrival_prob = arrival;
        self
    }
}

#[cfg(test)]
impl ChurnState {
    /// Whether node `idx` is currently present.
    fn is_present(&self, idx: usize) -> bool {
        self.present.get(idx).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_model_changes_nothing() {
        let model = ChurnModel::stable();
        assert!(model.validate().is_ok());
        let mut state = ChurnState::new(8, 7);
        for _ in 0..10 {
            let change = state.begin_round(&model);
            assert!(change.departed.is_empty() && change.arrived.is_empty());
            let fate = state.draw_fate(&model);
            assert!(!fate.dropped_out && !fate.straggler);
            assert_eq!(fate.resource_factor, 1.0);
        }
        assert_eq!(state.present_count(), 8);
    }

    #[test]
    fn validation_catches_each_violation() {
        assert!(ChurnModel::edge_default().validate().is_ok());

        let mut m = ChurnModel::edge_default();
        m.dropout_prob = 1.5;
        assert!(m.validate().is_err());

        let mut m = ChurnModel::edge_default();
        m.straggler_slowdown = 0.5;
        assert!(m.validate().is_err());

        let mut m = ChurnModel::edge_default();
        m.resource_jitter = 1.0;
        assert!(m.validate().is_err());

        let mut m = ChurnModel::edge_default();
        m.min_present = 0;
        assert!(m.validate().is_err());

        let d = DynamicsConfig::new(ChurnModel::stable()).with_deadline(0.0);
        assert!(d.validate().is_err());
        let d = DynamicsConfig::new(ChurnModel::stable()).with_deadline(f64::INFINITY);
        assert!(
            d.validate().is_err(),
            "an infinite deadline poisons time accounting"
        );
        let d = DynamicsConfig::new(ChurnModel::stable()).with_deadline(f64::NAN);
        assert!(d.validate().is_err());
        let d = DynamicsConfig::new(ChurnModel::stable()).with_deadline(30.0);
        assert!(d.validate().is_ok());
        assert_eq!(d.deadline_secs, 30.0);
        assert_eq!(d.with_reauction_waves(5).max_reauction_waves, 5);
    }

    #[test]
    fn builders_replace_the_right_knobs() {
        let m = ChurnModel::stable()
            .with_dropout(0.2)
            .with_stragglers(0.3, 4.0)
            .with_membership(0.1, 0.5);
        assert_eq!(m.dropout_prob, 0.2);
        assert_eq!(m.straggler_prob, 0.3);
        assert_eq!(m.straggler_slowdown, 4.0);
        assert_eq!(m.departure_prob, 0.1);
        assert_eq!(m.arrival_prob, 0.5);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn membership_respects_the_floor() {
        let model = ChurnModel::stable().with_membership(1.0, 0.0);
        let mut state = ChurnState::new(6, 3);
        // Departure probability 1: everyone tries to leave, but the floor holds.
        let mut m = model;
        m.min_present = 2;
        for _ in 0..5 {
            state.begin_round(&m);
        }
        assert_eq!(state.present_count(), 2);
        // With arrivals certain, everyone returns.
        let rejoin = ChurnModel::stable().with_membership(0.0, 1.0);
        state.begin_round(&rejoin);
        assert_eq!(state.present_count(), 6);
        assert_eq!(state.present_indices().len(), 6);
    }

    #[test]
    fn floor_revives_nodes_after_mid_round_dropouts() {
        let mut model = ChurnModel::stable();
        model.min_present = 3;
        let mut state = ChurnState::new(5, 1);
        for i in 0..5 {
            state.mark_departed(i);
        }
        assert_eq!(state.present_count(), 0, "dropouts emptied the cluster");
        // stable() has arrival probability 0, so only the floor revival fires.
        let change = state.begin_round(&model);
        assert_eq!(state.present_count(), 3);
        assert_eq!(change.arrived, vec![0, 1, 2]);
        assert!(change.departed.is_empty());
        // The floor cannot exceed the population: everyone is revived, no more.
        model.min_present = 10;
        for i in 0..5 {
            state.mark_departed(i);
        }
        state.begin_round(&model);
        assert_eq!(state.present_count(), 5);
    }

    #[test]
    fn mark_departed_removes_a_node_immediately() {
        let mut state = ChurnState::new(4, 9);
        assert!(state.is_present(2));
        state.mark_departed(2);
        assert!(!state.is_present(2));
        assert_eq!(state.present_count(), 3);
        assert_eq!(state.present_indices(), vec![0, 1, 3]);
        // Out-of-range indices are ignored.
        state.mark_departed(99);
        assert!(!state.is_present(99));
    }

    #[test]
    fn fates_are_deterministic_per_seed_and_jitter_is_bounded() {
        let model = ChurnModel::edge_default();
        let draw = |seed| {
            let mut state = ChurnState::new(10, seed);
            (0..50).map(|_| state.draw_fate(&model)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        for fate in draw(42) {
            assert!(fate.resource_factor >= 1.0 - model.resource_jitter - 1e-12);
            assert!(fate.resource_factor <= 1.0 + model.resource_jitter + 1e-12);
        }
    }

    #[test]
    fn dropout_rate_matches_the_model_roughly() {
        let model = ChurnModel::stable().with_dropout(0.3);
        let mut state = ChurnState::new(1, 11);
        let n = 2000;
        let drops = (0..n)
            .filter(|_| state.draw_fate(&model).dropped_out)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.05, "observed dropout rate {rate}");
    }
}
