//! Seeded adversary models and the reputation loop back into the auction.
//!
//! [`crate::faults`] covers *crash* faults — panics, stalls, dropouts — injected into a
//! round's execution. This module covers *adversarial* participants: nodes that are alive
//! and responsive but strategically dishonest. [`AdversaryPlan`] describes a population's
//! adversary mix with per-class rates (untruthful over/under-bids, quality misreports,
//! sign-flip and scaled-gradient poisoning, stale/zero free-rider updates, and seeded
//! colluding cartels) and decides each node's behaviour from a [`DrawClock`], as draws that
//! are a pure function of `(plan seed ⊕ job seed, round, node)`, so an adversarial run
//! replays bit-for-bit across worker-pool widths.
//!
//! Unlike [`crate::FaultPlan`]'s draws, the adversary's are **attempt-independent**:
//! an adversary's bid is part of the auction itself, and a watchdog retry of the round
//! must replay the same auction — retrying does not give the adversary a second roll.
//! (Crash faults retry differently on purpose; dishonesty does not.)
//!
//! `ReputationLedger` closes the loop: quarantine verdicts from the aggregation rule
//! become per-node reputation, which the service feeds back into [`fmore_auction`]'s
//! `BidStore` selection — down-weighting suspect bids and excluding nodes below a
//! threshold. When exclusion empties a round's bid book entirely, the service fails the
//! round with the typed, retryable [`crate::FlError::AllBiddersExcluded`] — never a panic,
//! never a silently poisoned model.

use std::collections::BTreeMap;

use crate::error::FlError;
use crate::faults::{validate_at_least, validate_rates, DrawClock};

/// Per-class adversary rates of one job's population. All rates are probabilities in
/// `[0, 1]`; the bid-class rates and the poison-class rates each share a single draw, so
/// each family must sum to at most 1 (validated by `AdversaryPlan::validate`).
///
/// Membership is drawn **per node** (round-independent), so a node is the same honest
/// or adversarial actor for the whole job — the property the reputation loop learns.
/// Which lie an adversary tells is drawn per `(round, node)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryPlan {
    /// Seed word mixed with the job seed; two jobs sharing a plan draw independently.
    pub seed: u64,
    /// Fraction of the population that is adversarial at all.
    pub adversary_rate: f64,
    /// Fraction of adversaries that belong to the colluding cartel. Cartel members
    /// coordinate: they always bid the cartel line (boosted quality, cut-rate ask) and
    /// always poison with a sign flip, instead of drawing per-round behavior.
    pub cartel_rate: f64,
    /// Per-round chance a (non-cartel) adversary overbids — asks above its true cost.
    pub overbid_rate: f64,
    /// Multiplier applied to the ask when overbidding (≥ 1).
    pub overbid_factor: f64,
    /// Per-round chance a (non-cartel) adversary underbids to buy the win.
    pub underbid_rate: f64,
    /// Multiplier applied to the ask when underbidding (in `(0, 1]`).
    pub underbid_factor: f64,
    /// Per-round chance a (non-cartel) adversary misreports its qualities upward.
    pub misreport_rate: f64,
    /// Multiplier applied to every quality when misreporting (result capped at 1).
    pub misreport_factor: f64,
    /// Per-round chance a (non-cartel) adversary sign-flips its model update.
    pub sign_flip_rate: f64,
    /// Per-round chance a (non-cartel) adversary scales its update by `scale_factor`.
    pub scaled_rate: f64,
    /// Gradient-scaling factor of the `scaled` poison class.
    pub scale_factor: f64,
    /// Per-round chance a (non-cartel) adversary free-rides: a stale, all-zero update.
    pub free_rider_rate: f64,
}

impl Default for AdversaryPlan {
    fn default() -> Self {
        Self::honest(0)
    }
}

impl AdversaryPlan {
    /// The all-honest plan: zero adversaries, neutral factors. Decorating a job with this
    /// plan is a bitwise no-op — every existing golden fingerprint reproduces exactly.
    pub fn honest(seed: u64) -> Self {
        Self {
            seed,
            adversary_rate: 0.0,
            cartel_rate: 0.0,
            overbid_rate: 0.0,
            overbid_factor: 1.0,
            underbid_rate: 0.0,
            underbid_factor: 1.0,
            misreport_rate: 0.0,
            misreport_factor: 1.0,
            sign_flip_rate: 0.0,
            scaled_rate: 0.0,
            scale_factor: 1.0,
            free_rider_rate: 0.0,
        }
    }

    /// The reference Byzantine mix of the `adversary-soak` experiment: 30% of nodes are
    /// adversarial, a quarter of those collude, and every adversary poisons every round
    /// (the poison-class rates sum to 1).
    pub fn byzantine(seed: u64) -> Self {
        Self {
            seed,
            adversary_rate: 0.3,
            cartel_rate: 0.25,
            overbid_rate: 0.15,
            overbid_factor: 1.5,
            underbid_rate: 0.25,
            underbid_factor: 0.5,
            misreport_rate: 0.35,
            misreport_factor: 1.6,
            sign_flip_rate: 0.45,
            scaled_rate: 0.3,
            scale_factor: 25.0,
            free_rider_rate: 0.25,
        }
    }

    /// Whether the plan can produce any adversarial behavior at all. Drivers skip the
    /// adversary machinery entirely for inactive plans.
    pub(crate) fn is_active(&self) -> bool {
        self.adversary_rate > 0.0
    }

    /// Validates every rate to `[0, 1]`, the shared-draw budgets to ≤ 1, and the factors
    /// to usable ranges — at construction, not at draw time, so an out-of-range threshold
    /// can never silently skew the draw distribution.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] naming the offending field.
    pub(crate) fn validate(&self) -> Result<(), FlError> {
        validate_rates(
            "adversary plan",
            &[
                &[("adversary_rate", self.adversary_rate)],
                &[("cartel_rate", self.cartel_rate)],
                &[
                    ("overbid_rate", self.overbid_rate),
                    ("underbid_rate", self.underbid_rate),
                    ("misreport_rate", self.misreport_rate),
                ],
                &[
                    ("sign_flip_rate", self.sign_flip_rate),
                    ("scaled_rate", self.scaled_rate),
                    ("free_rider_rate", self.free_rider_rate),
                ],
            ],
        )?;
        validate_at_least("adversary plan", "overbid_factor", self.overbid_factor, 1.0)?;
        validate_at_least(
            "adversary plan",
            "misreport_factor",
            self.misreport_factor,
            1.0,
        )?;
        if !self.underbid_factor.is_finite()
            || self.underbid_factor <= 0.0
            || self.underbid_factor > 1.0
        {
            return Err(FlError::InvalidConfig(format!(
                "adversary plan underbid_factor {} must be within (0, 1]",
                self.underbid_factor
            )));
        }
        if !self.scale_factor.is_finite() {
            return Err(FlError::InvalidConfig(format!(
                "adversary plan scale_factor {} must be finite",
                self.scale_factor
            )));
        }
        Ok(())
    }
}

/// How an adversarial node distorts its bid this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum BidDistortion {
    /// Ask inflated by `overbid_factor` (extracting rent if it still wins).
    Overbid,
    /// Ask cut by `underbid_factor` (buying the win below cost).
    Underbid,
    /// Qualities inflated by `misreport_factor`, capped at 1.
    Misreport,
    /// The cartel line: boosted qualities *and* a cut-rate ask, every round.
    Cartel,
}

impl BidDistortion {
    /// Applies the distortion in place to one bid's quality row and ask.
    pub(crate) fn apply(self, plan: &AdversaryPlan, qualities: &mut [f64], ask: &mut f64) {
        match self {
            BidDistortion::Overbid => *ask *= plan.overbid_factor,
            BidDistortion::Underbid => *ask *= plan.underbid_factor,
            BidDistortion::Misreport => {
                for q in qualities.iter_mut() {
                    *q = (*q * plan.misreport_factor).min(1.0);
                }
            }
            BidDistortion::Cartel => {
                for q in qualities.iter_mut() {
                    *q = (*q * plan.misreport_factor).min(1.0);
                }
                *ask *= plan.underbid_factor;
            }
        }
    }
}

/// How an adversarial winner poisons its model update this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poison {
    /// Every parameter negated — the classic gradient-reversal attack.
    SignFlip,
    /// Every parameter multiplied by `scale_factor`.
    Scaled,
    /// A stale, all-zero update: the node takes the payment without training.
    FreeRider,
}

impl Poison {
    /// Applies the poison in place to one update's parameter vector.
    pub fn apply(self, plan: &AdversaryPlan, params: &mut [f64]) {
        match self {
            Poison::SignFlip => {
                for p in params.iter_mut() {
                    *p = -*p;
                }
            }
            Poison::Scaled => {
                for p in params.iter_mut() {
                    *p *= plan.scale_factor;
                }
            }
            Poison::FreeRider => {
                for p in params.iter_mut() {
                    *p = 0.0;
                }
            }
        }
    }
}

// Draw channels, disjoint from the fault channels (0xF1–0xF5): distinct words folded
// into the seed chain so each adversary decision draws an independent uniform.
const CH_MEMBER: u64 = 0xA1;
const CH_CARTEL: u64 = 0xA2;
const CH_BID: u64 = 0xA3;
const CH_POISON: u64 = 0xA5;

/// The adversary draw on `channel` for `node` in `round` — keyed by `(round, node,
/// channel)` with **no attempt key**, see the module docs. Membership draws use round 0
/// regardless of the queried round, making a node's honesty a stable fact of the job.
fn draw(clock: &DrawClock, round: u64, node: u64, channel: u64) -> f64 {
    clock.uniform(&[round, node + 1, channel])
}

impl AdversaryPlan {
    /// Whether `node` is adversarial for this job (stable across rounds and retries).
    pub fn is_adversary(&self, clock: &DrawClock, node: u64) -> bool {
        self.is_active() && draw(clock, 0, node, CH_MEMBER) < self.adversary_rate
    }

    /// Whether `node` belongs to the colluding cartel (implies [`Self::is_adversary`]).
    pub(crate) fn in_cartel(&self, clock: &DrawClock, node: u64) -> bool {
        self.is_adversary(clock, node) && draw(clock, 0, node, CH_CARTEL) < self.cartel_rate
    }

    /// The bid distortion (if any) `node` applies in `round`. Cartel members always bid
    /// the cartel line; independent adversaries draw one of the bid classes per round
    /// (and may bid honestly when the class rates leave slack).
    pub(crate) fn bid_distortion(
        &self,
        clock: &DrawClock,
        round: u64,
        node: u64,
    ) -> Option<BidDistortion> {
        if !self.is_adversary(clock, node) {
            return None;
        }
        if self.in_cartel(clock, node) {
            return Some(BidDistortion::Cartel);
        }
        let u = draw(clock, round, node, CH_BID);
        if u < self.overbid_rate {
            Some(BidDistortion::Overbid)
        } else if u < self.overbid_rate + self.underbid_rate {
            Some(BidDistortion::Underbid)
        } else if u < self.overbid_rate + self.underbid_rate + self.misreport_rate {
            Some(BidDistortion::Misreport)
        } else {
            None
        }
    }

    /// The update poison (if any) `node` applies to its winning update in `round`.
    /// Cartel members always sign-flip (a coordinated attack concentrates its direction).
    pub fn update_poison(&self, clock: &DrawClock, round: u64, node: u64) -> Option<Poison> {
        if !self.is_adversary(clock, node) {
            return None;
        }
        if self.in_cartel(clock, node) {
            return Some(Poison::SignFlip);
        }
        let u = draw(clock, round, node, CH_POISON);
        if u < self.sign_flip_rate {
            Some(Poison::SignFlip)
        } else if u < self.sign_flip_rate + self.scaled_rate {
            Some(Poison::Scaled)
        } else if u < self.sign_flip_rate + self.scaled_rate + self.free_rider_rate {
            Some(Poison::FreeRider)
        } else {
            None
        }
    }
}

/// Parameters of the reputation loop. Scores live in `[0, 1]`; every node starts at
/// `initial`, accepted updates earn `reward`, quarantined updates cost `penalty`, and a
/// node whose score falls below `exclusion_threshold` has its bids dropped from the book
/// before winner determination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReputationSpec {
    /// Score every untracked node is presumed to have.
    pub initial: f64,
    /// Score earned per accepted (non-quarantined) update.
    pub reward: f64,
    /// Score lost per quarantined update.
    pub penalty: f64,
    /// Bids from nodes scoring strictly below this are excluded from selection.
    pub exclusion_threshold: f64,
}

impl ReputationSpec {
    /// The reference loop of the `adversary-soak` experiment: full initial trust, slow
    /// forgiveness (+0.05), fast distrust (−0.25), exclusion below 0.25 — three strikes.
    pub fn standard() -> Self {
        Self {
            initial: 1.0,
            reward: 0.05,
            penalty: 0.25,
            exclusion_threshold: 0.25,
        }
    }

    /// The harsh loop: one quarantine halves a node's influence, a second excludes it —
    /// two strikes. Suits small fleets where a repeat offender re-wins quickly.
    pub fn strict() -> Self {
        Self {
            initial: 1.0,
            reward: 0.05,
            penalty: 0.5,
            exclusion_threshold: 0.5,
        }
    }

    /// Validates every field to `[0, 1]` at construction.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] naming the offending field.
    pub(crate) fn validate(&self) -> Result<(), FlError> {
        validate_rates(
            "reputation spec",
            &[
                &[("initial", self.initial)],
                &[("reward", self.reward)],
                &[("penalty", self.penalty)],
                &[("exclusion_threshold", self.exclusion_threshold)],
            ],
        )
    }
}

/// Per-node reputation, accumulated from aggregation verdicts. Sparse: only nodes whose
/// score has ever left `spec.initial` occupy memory, so a mostly-honest fleet tracks a
/// handful of entries regardless of population size.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReputationLedger {
    spec: ReputationSpec,
    scores: BTreeMap<u64, f64>,
}

impl ReputationLedger {
    /// An empty ledger under `spec` — every node at `spec.initial`.
    pub(crate) fn new(spec: ReputationSpec) -> Self {
        Self {
            spec,
            scores: BTreeMap::new(),
        }
    }

    /// Current score of `node` (the presumed `initial` when untracked).
    pub(crate) fn score(&self, node: u64) -> f64 {
        self.scores.get(&node).copied().unwrap_or(self.spec.initial)
    }

    /// Applies one round verdict for `node`: accepted updates earn `reward`, quarantined
    /// ones cost `penalty`, clamped to `[0, 1]`. A node resting at `initial` whose score
    /// would not move is not inserted, keeping the ledger sparse.
    pub(crate) fn record(&mut self, node: u64, accepted: bool) {
        let current = self.score(node);
        let next = if accepted {
            (current + self.spec.reward).min(1.0)
        } else {
            (current - self.spec.penalty).max(0.0)
        };
        if next != current || self.scores.contains_key(&node) {
            self.scores.insert(node, next);
        }
    }

    /// The tracked `(node, score)` pairs in node order — the checkpoint serialisation.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.scores.iter().map(|(&node, &score)| (node, score))
    }

    /// Rebuilds a ledger from checkpointed entries (inverse of [`Self::entries`]).
    pub(crate) fn from_entries(
        spec: ReputationSpec,
        entries: impl IntoIterator<Item = (u64, f64)>,
    ) -> Self {
        Self {
            spec,
            scores: entries.into_iter().collect(),
        }
    }

    /// An immutable snapshot for the round's fill closures (which run on worker threads):
    /// the scores as of the round's start, under the same spec. Selection within one round
    /// sees one consistent reputation state however wide the pool is.
    pub(crate) fn snapshot(&self) -> ReputationFilter {
        ReputationFilter {
            spec: self.spec,
            scores: self.scores.clone(),
        }
    }
}

/// Frozen per-round view of a [`ReputationLedger`], applied to bids as they stream into
/// the book: suspect bids are down-weighted (every quality multiplied by the node's
/// score), excluded nodes are dropped. Nodes at full score pass through untouched —
/// bit-for-bit — so an all-honest fleet's auction is unchanged by the filter.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReputationFilter {
    spec: ReputationSpec,
    scores: BTreeMap<u64, f64>,
}

impl ReputationFilter {
    /// Current score of `node` under the snapshot.
    pub(crate) fn score(&self, node: u64) -> f64 {
        self.scores.get(&node).copied().unwrap_or(self.spec.initial)
    }

    /// Applies the filter to one bid in place. Returns `false` when the bid must be
    /// dropped (node excluded). Scores at exactly 1 leave the bid untouched, so honest
    /// histories stay bit-identical.
    pub(crate) fn revise(&self, node: u64, qualities: &mut [f64], _ask: &mut f64) -> bool {
        let score = self.score(node);
        if score < self.spec.exclusion_threshold {
            return false;
        }
        if score < 1.0 {
            for q in qualities.iter_mut() {
                *q *= score;
            }
        }
        true
    }
}

#[cfg(test)]
impl ReputationLedger {
    /// Whether `node`'s bids are excluded from selection.
    fn excluded(&self, node: u64) -> bool {
        self.score(node) < self.spec.exclusion_threshold
    }

    /// Number of nodes whose score has ever moved off `initial`.
    fn tracked(&self) -> usize {
        self.scores.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_plan_is_inert() {
        let plan = AdversaryPlan::honest(99);
        plan.validate().unwrap();
        assert!(!plan.is_active());
        let clock = DrawClock::new(plan.seed, 1234);
        for node in 0..500 {
            assert!(!plan.is_adversary(&clock, node));
            assert!(!plan.in_cartel(&clock, node));
            assert_eq!(plan.bid_distortion(&clock, 3, node), None);
            assert_eq!(plan.update_poison(&clock, 3, node), None);
        }
    }

    #[test]
    fn membership_is_stable_and_hits_the_plan_rate() {
        let plan = AdversaryPlan::byzantine(42);
        plan.validate().unwrap();
        let clock = DrawClock::new(plan.seed, 7);
        let adversaries = (0..10_000u64)
            .filter(|&n| plan.is_adversary(&clock, n))
            .count();
        let rate = adversaries as f64 / 10_000.0;
        assert!(
            (rate - plan.adversary_rate).abs() < 0.02,
            "empirical adversary rate {rate} far from planned {}",
            plan.adversary_rate
        );
        // Same clock, same verdicts — and an equal clock built from equal inputs agrees.
        let again = DrawClock::new(plan.seed, 7);
        for node in 0..200 {
            assert_eq!(
                plan.is_adversary(&clock, node),
                plan.is_adversary(&again, node)
            );
            assert_eq!(
                plan.bid_distortion(&clock, 11, node),
                plan.bid_distortion(&again, 11, node)
            );
        }
        // Membership does not depend on the round queried.
        for node in 0..200 {
            let base = plan.is_adversary(&clock, node);
            assert_eq!(plan.update_poison(&clock, 1, node).is_some(), base);
            assert_eq!(plan.update_poison(&clock, 9, node).is_some(), base);
        }
    }

    #[test]
    fn cartel_members_collude_every_round() {
        let plan = AdversaryPlan::byzantine(42);
        let clock = DrawClock::new(plan.seed, 7);
        let cartel: Vec<u64> = (0..2_000).filter(|&n| plan.in_cartel(&clock, n)).collect();
        assert!(
            !cartel.is_empty(),
            "a 7.5% cartel should appear in 2000 nodes"
        );
        for &node in &cartel {
            assert!(plan.is_adversary(&clock, node));
            for round in 0..5 {
                assert_eq!(
                    plan.bid_distortion(&clock, round, node),
                    Some(BidDistortion::Cartel)
                );
                assert_eq!(
                    plan.update_poison(&clock, round, node),
                    Some(Poison::SignFlip)
                );
            }
        }
    }

    #[test]
    fn independent_adversaries_vary_their_lies_by_round() {
        let plan = AdversaryPlan::byzantine(42);
        let clock = DrawClock::new(plan.seed, 7);
        let loner = (0..5_000u64)
            .find(|&n| plan.is_adversary(&clock, n) && !plan.in_cartel(&clock, n))
            .expect("an independent adversary exists");
        let distortions: Vec<_> = (0..64)
            .map(|round| plan.bid_distortion(&clock, round, loner))
            .collect();
        assert!(
            distortions
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                > 1,
            "64 rounds should show more than one bid behavior"
        );
        // Poison classes sum to 1 in the byzantine preset: every round poisons.
        for round in 0..64 {
            assert!(plan.update_poison(&clock, round, loner).is_some());
        }
    }

    #[test]
    fn distortions_and_poisons_apply_as_documented() {
        let plan = AdversaryPlan::byzantine(0);
        let mut q = [0.5, 0.9];
        let mut ask = 10.0;
        BidDistortion::Overbid.apply(&plan, &mut q, &mut ask);
        assert_eq!(ask, 15.0);
        BidDistortion::Underbid.apply(&plan, &mut q, &mut ask);
        assert_eq!(ask, 7.5);
        BidDistortion::Misreport.apply(&plan, &mut q, &mut ask);
        assert_eq!(q, [0.8, 1.0], "misreport caps at 1");
        let mut q = [0.5, 0.5];
        BidDistortion::Cartel.apply(&plan, &mut q, &mut ask);
        assert_eq!(q, [0.8, 0.8]);
        assert_eq!(ask, 3.75);

        let mut params = [1.0, -2.0, 0.5];
        Poison::SignFlip.apply(&plan, &mut params);
        assert_eq!(params, [-1.0, 2.0, -0.5]);
        Poison::Scaled.apply(&plan, &mut params);
        assert_eq!(params, [-25.0, 50.0, -12.5]);
        Poison::FreeRider.apply(&plan, &mut params);
        assert_eq!(params, [0.0, 0.0, 0.0]);
    }

    #[test]
    fn plan_validation_rejects_out_of_range_rates_and_budgets() {
        type Mutation = Box<dyn Fn(&mut AdversaryPlan)>;
        let cases: Vec<(&str, Mutation)> = vec![
            ("adversary_rate", Box::new(|p| p.adversary_rate = 1.2)),
            ("cartel_rate", Box::new(|p| p.cartel_rate = -0.1)),
            ("sign_flip_rate", Box::new(|p| p.sign_flip_rate = f64::NAN)),
            (
                "bid-class budget",
                Box::new(|p| {
                    p.overbid_rate = 0.6;
                    p.underbid_rate = 0.6;
                }),
            ),
            (
                "poison budget",
                Box::new(|p| {
                    p.sign_flip_rate = 0.9;
                    p.scaled_rate = 0.2;
                }),
            ),
            ("overbid_factor", Box::new(|p| p.overbid_factor = 0.5)),
            ("underbid_factor", Box::new(|p| p.underbid_factor = 0.0)),
            (
                "misreport_factor",
                Box::new(|p| p.misreport_factor = f64::INFINITY),
            ),
            ("scale_factor", Box::new(|p| p.scale_factor = f64::NAN)),
        ];
        for (what, poison) in cases {
            let mut plan = AdversaryPlan::byzantine(1);
            // Reset the shared-draw families so single-field checks aren't masked.
            plan.overbid_rate = 0.1;
            plan.underbid_rate = 0.1;
            plan.misreport_rate = 0.1;
            plan.sign_flip_rate = 0.1;
            plan.scaled_rate = 0.1;
            plan.free_rider_rate = 0.1;
            poison(&mut plan);
            let err = plan
                .validate()
                .expect_err(&format!("{what} should be rejected"));
            assert!(matches!(err, FlError::InvalidConfig(_)), "{what}: {err}");
        }
        AdversaryPlan::honest(3).validate().unwrap();
        AdversaryPlan::byzantine(3).validate().unwrap();
    }

    #[test]
    fn ledger_rewards_penalises_and_stays_sparse() {
        let spec = ReputationSpec::standard();
        spec.validate().unwrap();
        let mut ledger = ReputationLedger::new(spec);
        assert_eq!(ledger.score(42), 1.0);
        assert!(!ledger.excluded(42));

        // Accepting a node already at full score does not allocate an entry.
        ledger.record(42, true);
        assert_eq!(ledger.tracked(), 0);

        // Three strikes: 1.0 → 0.75 → 0.5 → 0.25 (excluded only below the threshold),
        // then a fourth pushes it under.
        ledger.record(7, false);
        ledger.record(7, false);
        ledger.record(7, false);
        assert_eq!(ledger.score(7), 0.25);
        assert!(!ledger.excluded(7));
        ledger.record(7, false);
        assert_eq!(ledger.score(7), 0.0);
        assert!(ledger.excluded(7));
        assert_eq!(ledger.tracked(), 1);

        // Forgiveness is slow and clamps at 1.
        for _ in 0..40 {
            ledger.record(7, true);
        }
        assert_eq!(ledger.score(7), 1.0);
        assert!(!ledger.excluded(7));
        // The entry persists once tracked (history, not presumption).
        assert_eq!(ledger.tracked(), 1);
    }

    #[test]
    fn ledger_round_trips_through_entries() {
        let mut ledger = ReputationLedger::new(ReputationSpec::standard());
        ledger.record(3, false);
        ledger.record(9, false);
        ledger.record(9, false);
        let rebuilt =
            ReputationLedger::from_entries(ledger.spec, ledger.entries().collect::<Vec<_>>());
        assert_eq!(ledger, rebuilt);
    }

    #[test]
    fn filter_down_weights_and_excludes_but_passes_full_scores_untouched() {
        let mut ledger = ReputationLedger::new(ReputationSpec::standard());
        ledger.record(1, false); // 0.75: down-weighted
        ledger.record(2, false);
        ledger.record(2, false);
        ledger.record(2, false);
        ledger.record(2, false); // 0.0: excluded
        let filter = ledger.snapshot();

        let mut q = [0.5f64, 1.0];
        let mut ask = 2.0;
        assert!(filter.revise(0, &mut q, &mut ask));
        assert_eq!(q, [0.5, 1.0], "full score leaves the bid untouched");
        assert_eq!(ask, 2.0);

        assert!(filter.revise(1, &mut q, &mut ask));
        assert_eq!(q, [0.375, 0.75]);

        assert!(
            !filter.revise(2, &mut q, &mut ask),
            "zero score is excluded"
        );

        assert_eq!(filter.score(1), 0.75);
    }

    #[test]
    fn reputation_spec_validation_rejects_out_of_range_fields() {
        for poison in [
            |s: &mut ReputationSpec| s.initial = 1.5,
            |s: &mut ReputationSpec| s.reward = -0.1,
            |s: &mut ReputationSpec| s.penalty = f64::NAN,
            |s: &mut ReputationSpec| s.exclusion_threshold = 2.0,
        ] {
            let mut spec = ReputationSpec::standard();
            poison(&mut spec);
            assert!(matches!(spec.validate(), Err(FlError::InvalidConfig(_))));
        }
    }
}
