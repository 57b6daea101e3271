//! One tenant of the [`crate::service::AuctionService`]: its specification, its per-round
//! state, and the history it accumulates.
//!
//! A job owns everything mutable it touches during a round — its RNG derivation, its
//! auction, its round counter, its history. The only shared pieces are immutable
//! ([`JobSpec::source`], [`JobSpec::work`] behind `Arc`) or explicitly concurrency-safe
//! (the engine's worker pool, whose per-fan-out result slots are private to the
//! submitting round). That ownership split is what makes a job's history bit-identical
//! whether it runs alone or interleaved with noisy neighbours.

use crate::adversary::{AdversaryPlan, ReputationLedger, ReputationSpec};
use crate::aggregator::{AggregationRule, AggregationScratch, MedianNormScreen, ScreenPolicy};
use crate::engine::{
    apply_deadline, auction_select_streamed, ParticipantTiming, RoundEngine, Task,
};
use crate::error::FlError;
use crate::faults::{
    validate_at_least, validate_rates, DrawClock, FaultEvent, FaultKind, FaultPlan, WatchdogSpec,
};
use crate::metrics::WinnerInfo;
use fmore_auction::{Auction, AuctionError, BidStore};
use fmore_numerics::rng::{derive_seed, keyed_unit};
use fmore_numerics::seeded_rng;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Identifier of an admitted job, unique for the lifetime of its service.
pub type JobId = u64;

/// A job's bid stream: called once per shard — on a worker thread for pooled engines —
/// with the shard's index range, the job's current round, and a recycled columnar
/// [`BidStore`] to push sealed bids into.
///
/// The closure must be a pure function of `(range, round)`: it may capture immutable
/// population state (or per-thread scratch that is fully rewritten per call), but nothing
/// mutable shared with other jobs — that contract is what the solo-vs-interleaved
/// determinism suite enforces.
pub type BidSource =
    dyn Fn(Range<usize>, u64, &mut BidStore) -> Result<(), AuctionError> + Send + Sync;

/// Optional per-winner post-selection work (the stand-in for local training in synthetic
/// service traffic): called as `work(round, slot, winner)` on a worker thread, returning a
/// scalar folded into [`RoundSummary::work_value`]. A panic inside is caught by the
/// checked executor path and fails only this job's round.
pub(crate) type WinnerWork = dyn Fn(u64, usize, &WinnerInfo) -> f64 + Send + Sync;

/// A [`BidSource`] already bound to its round — the shape the streamed selector's fill
/// input takes (and the fault layer wraps to inject shard panics).
type ShardFill = dyn Fn(Range<usize>, &mut BidStore) -> Result<(), AuctionError> + Send + Sync;

/// Synthetic deadline model for a job: deterministic per-`(seed, round, slot)` completion
/// times fed through [`apply_deadline`], so a service job exercises the same
/// survivor/missed partition as the MEC dynamics without owning a churn simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlineSpec {
    /// Round deadline `T` in simulated seconds.
    pub deadline_secs: f64,
    /// Nominal completion time of an unhindered winner.
    pub base_secs: f64,
    /// Probability a winner is slowed this round.
    pub straggler_rate: f64,
    /// Multiplicative slowdown applied to stragglers (`completion = base · (1 + slowdown)`).
    pub slowdown: f64,
}

impl DeadlineSpec {
    /// A deadline loose enough that only stragglers miss it.
    pub fn lenient() -> Self {
        Self {
            deadline_secs: 10.0,
            base_secs: 5.0,
            straggler_rate: 0.2,
            slowdown: 1.5,
        }
    }

    /// Validates the model: `straggler_rate` must lie in `[0, 1]`, and `deadline_secs`,
    /// `base_secs` and `slowdown` must be finite and non-negative (a NaN deadline misses
    /// every winner and makes the wave time NaN).
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] naming the offending field.
    pub(crate) fn validate(&self) -> Result<(), FlError> {
        validate_rates("deadline", &[&[("straggler_rate", self.straggler_rate)]])?;
        validate_at_least("deadline", "deadline_secs", self.deadline_secs, 0.0)?;
        validate_at_least("deadline", "base_secs", self.base_secs, 0.0)?;
        validate_at_least("deadline", "slowdown", self.slowdown, 0.0)
    }

    fn timings(&self, seed: u64, round: u64, winners: usize) -> Vec<ParticipantTiming> {
        (0..winners)
            .map(|slot| {
                let straggler = keyed_unit(seed, &[round, slot as u64 + 1]) < self.straggler_rate;
                let completion_secs = if straggler {
                    self.base_secs * (1.0 + self.slowdown)
                } else {
                    self.base_secs
                };
                ParticipantTiming {
                    slot,
                    completion_secs,
                    straggler,
                    dropped_out: false,
                }
            })
            .collect()
    }
}

/// Everything the service needs to run one tenant: population size, auction, stream
/// geometry, seed, and the job's bid/work closures.
///
/// Cloning a spec is cheap (the closures are shared via `Arc`) and yields a job that
/// replays the exact same history — the determinism suite relies on this to compare solo
/// and interleaved runs of the same spec.
#[derive(Clone)]
pub struct JobSpec {
    /// Human-readable name (reported in histories and soak tables).
    pub name: String,
    /// Number of bidder indices streamed per round.
    pub population: usize,
    /// Shard width of the bid stream (peak memory is `O(width · shard + K)`).
    pub shard_size: usize,
    /// Extra ranked candidates the selector keeps beyond `K` (re-auction reserve).
    pub reserve: usize,
    /// The job's auction: scoring rule, `K`, selection rule, pricing rule.
    pub auction: Auction,
    /// Root seed; each round derives its own RNG as `derive_seed(seed, round)`.
    pub seed: u64,
    /// Optional synthetic deadline model applied to each round's winners.
    pub deadline: Option<DeadlineSpec>,
    /// Bound on rounds queued but not yet run (the backpressure knob); `0` means
    /// "service default".
    pub max_pending: usize,
    /// Dimension of the synthetic per-winner model updates aggregated each round; `0`
    /// disables the update/aggregation stage. Updates are a pure function of
    /// `(seed, round, node)`, aggregated by [`JobSpec::aggregation`], whose default
    /// screen quarantines corrupted vectors instead of averaging them.
    pub update_dim: usize,
    /// Optional round watchdog: simulated-time budget plus bounded retry with
    /// deterministic backoff accounting. `None` means a failed round is recorded and
    /// never retried (the pre-watchdog behaviour).
    pub watchdog: Option<WatchdogSpec>,
    /// Optional deterministic fault-injection plan (chaos testing); `None` injects
    /// nothing and leaves the round pipeline byte-identical to a plan-free build.
    pub faults: Option<FaultPlan>,
    /// Optional deterministic adversary model (Byzantine participants); `None` — or an
    /// all-honest plan — leaves every bid and update byte-identical to a plan-free build.
    pub adversaries: Option<AdversaryPlan>,
    /// Optional reputation loop: aggregation verdicts accumulate per-node scores that
    /// down-weight or exclude suspect bids in later rounds' selection. `None` disables
    /// the loop entirely (the pre-reputation behaviour).
    pub reputation: Option<ReputationSpec>,
    /// The global-aggregation backend applied to the round's synthetic updates. The
    /// default ([`JobSpec::default_aggregation`]) is the median-norm screen the service
    /// always used, bit-for-bit.
    pub aggregation: Arc<dyn AggregationRule>,
    /// The job's bid stream.
    pub source: Arc<BidSource>,
    /// Optional per-winner work.
    pub work: Option<Arc<WinnerWork>>,
}

impl JobSpec {
    /// The service's historical aggregation backend: the median-norm screen under the
    /// default [`ScreenPolicy`].
    pub fn default_aggregation() -> Arc<dyn AggregationRule> {
        Arc::new(MedianNormScreen(ScreenPolicy::default()))
    }

    /// Validates everything the spec can get wrong *at admission* — deadline and
    /// watchdog parameters, fault rates, adversary rates and budgets, reputation bounds,
    /// aggregation parameters — so a malformed plan is a typed [`FlError::InvalidConfig`]
    /// at `admit` time, never a skewed draw threshold discovered rounds later.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), FlError> {
        if let Some(deadline) = &self.deadline {
            deadline.validate()?;
        }
        if let Some(watchdog) = &self.watchdog {
            watchdog.validate()?;
        }
        if let Some(plan) = &self.faults {
            plan.validate()?;
        }
        if let Some(plan) = &self.adversaries {
            plan.validate()?;
        }
        if let Some(spec) = &self.reputation {
            spec.validate()?;
        }
        self.aggregation.validate()
    }
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("population", &self.population)
            .field("shard_size", &self.shard_size)
            .field("winners", &self.auction.winners_per_round())
            .field("seed", &self.seed)
            .field("deadline", &self.deadline)
            .field("max_pending", &self.max_pending)
            .field("update_dim", &self.update_dim)
            .field("watchdog", &self.watchdog)
            .field("faults", &self.faults)
            .field("adversaries", &self.adversaries)
            .field("reputation", &self.reputation)
            .field("aggregation", &self.aggregation.name())
            .finish()
    }
}

/// What one successful round produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSummary {
    /// The job-local round number (1-based).
    pub round: u64,
    /// Bids streamed through the selector.
    pub offered: usize,
    /// Post-deadline surviving winners, in selection order.
    pub winners: Vec<WinnerInfo>,
    /// Total payment promised to the surviving winners.
    pub total_payment: f64,
    /// Winners that missed the deadline (excluded from `winners`).
    pub deadline_misses: usize,
    /// Winners that dropped out mid-round (excluded from `winners`, payment forfeited).
    pub dropouts: usize,
    /// Updates quarantined by aggregation screening (the round degraded to the rest).
    pub quarantined: usize,
    /// Simulated seconds the successful attempt spent (deadline wave time plus injected
    /// stall charges) — what the watchdog budget was checked against.
    pub sim_secs: f64,
    /// Sum of the per-winner work values (0 when the job has no work closure).
    pub work_value: f64,
    /// Peak resident bid bytes of the round's streaming stage.
    pub peak_bid_bytes: usize,
}

/// One round's outcome in a job's history: a summary, or the typed error that failed the
/// round (the job itself survives and may run further rounds) — plus the watchdog's
/// retry/backoff accounting and every fault injected into the round, as typed entries.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// The job-local round number (1-based).
    pub round: u64,
    /// The round's final outcome (of the last attempt).
    pub outcome: Result<RoundSummary, FlError>,
    /// Attempts executed (1 for a clean round; watchdog retries add to this).
    pub attempts: u32,
    /// Total deterministic backoff charged across retries, in simulated seconds.
    pub backoff_secs: f64,
    /// Every fault injected across the round's attempts, in injection order.
    pub faults: Vec<FaultEvent>,
    /// The typed error of each failed-and-retried attempt, in attempt order (the final
    /// attempt's error, if any, is in `outcome` instead).
    pub retry_errors: Vec<FlError>,
}

/// The full per-job history: every round ever run, successful or failed, in order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JobHistory {
    /// The job's name (from its spec).
    pub name: String,
    /// One record per round run.
    pub rounds: Vec<RoundRecord>,
}

impl JobHistory {
    /// Number of successful rounds.
    pub fn completed(&self) -> usize {
        self.rounds.iter().filter(|r| r.outcome.is_ok()).count()
    }

    /// Number of failed rounds.
    pub fn failed(&self) -> usize {
        self.rounds.len() - self.completed()
    }

    /// FNV-1a fingerprint over the history's *auction-observable* content: round numbers,
    /// offered counts, winner nodes/scores/payments bit-for-bit, deadline misses,
    /// dropouts, quarantine counts, simulated round time, work values, retry/backoff
    /// accounting, injected faults, and failure messages.
    /// [`RoundSummary::peak_bid_bytes`] is deliberately excluded — it is memory
    /// *accounting* and scales with the engine's parallel width, while the fingerprint
    /// pins what must be invariant across widths and neighbours.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(self.name.as_bytes());
        for record in &self.rounds {
            eat(&record.round.to_le_bytes());
            eat(&u64::from(record.attempts).to_le_bytes());
            eat(&record.backoff_secs.to_bits().to_le_bytes());
            for fault in &record.faults {
                eat(&u64::from(fault.attempt).to_le_bytes());
                eat(&(fault.slot as u64).to_le_bytes());
                eat(&fault_kind_tag(fault.kind).to_le_bytes());
            }
            for error in &record.retry_errors {
                eat(error.to_string().as_bytes());
            }
            match &record.outcome {
                Ok(s) => {
                    eat(&(s.offered as u64).to_le_bytes());
                    eat(&s.total_payment.to_bits().to_le_bytes());
                    eat(&(s.deadline_misses as u64).to_le_bytes());
                    eat(&(s.dropouts as u64).to_le_bytes());
                    eat(&(s.quarantined as u64).to_le_bytes());
                    eat(&s.sim_secs.to_bits().to_le_bytes());
                    eat(&s.work_value.to_bits().to_le_bytes());
                    for w in &s.winners {
                        eat(&w.node.0.to_le_bytes());
                        eat(&w.score.to_bits().to_le_bytes());
                        eat(&w.payment.to_bits().to_le_bytes());
                    }
                }
                Err(e) => eat(e.to_string().as_bytes()),
            }
        }
        h
    }
}

/// Stable fold tag of a [`FaultKind`] for fingerprinting.
fn fault_kind_tag(kind: FaultKind) -> u64 {
    use crate::faults::Corruption;
    match kind {
        FaultKind::FillPanic => 1,
        FaultKind::WorkPanic => 2,
        FaultKind::Stall => 3,
        FaultKind::Dropout => 4,
        FaultKind::CorruptUpdate(Corruption::Nan) => 5,
        FaultKind::CorruptUpdate(Corruption::Inf) => 6,
        FaultKind::CorruptUpdate(Corruption::Scale) => 7,
    }
}

/// The deterministic synthetic model update of one winner: a pure function of
/// `(seed, round, node, dim)` in `[-1, 1)^dim`, the service-path stand-in for a trained
/// parameter delta (corruption faults mutate it *after* this derivation).
fn synthetic_update(seed: u64, round: u64, node: u64, dim: usize) -> Vec<f64> {
    let base = derive_seed(derive_seed(seed, round), node.wrapping_add(1));
    (0..dim)
        .map(|d| keyed_unit(base, &[d as u64 + 1]) * 2.0 - 1.0)
        .collect()
}

/// Real wall-clock pause of one injected stall: long enough that the executor genuinely
/// parks a worker mid-wave, short enough that chaos suites stay sub-second. Simulated
/// time (what the watchdog meters) is charged separately via [`FaultPlan::stall_secs`].
const STALL_SLEEP: Duration = Duration::from_micros(200);

/// A live job inside the service: spec + round counter + pending-round queue depth +
/// accumulated history. All of it is private to the job's own mutex; a round holds no
/// other lock while it runs.
#[derive(Debug)]
pub(crate) struct FlJob {
    spec: JobSpec,
    round: u64,
    pending: usize,
    history: JobHistory,
    /// Per-node reputation accumulated from aggregation verdicts; `Some` iff the spec
    /// enables the loop. Part of the job's resumable state (checkpointed).
    ledger: Option<ReputationLedger>,
    /// Aggregation buffers reused by every attempt of every round. Not job state: never
    /// checkpointed or fingerprinted, and a restored job starts with an empty one.
    scratch: AggregationScratch,
}

impl FlJob {
    pub(super) fn new(spec: JobSpec) -> Self {
        let history = JobHistory {
            name: spec.name.clone(),
            rounds: Vec::new(),
        };
        let ledger = spec.reputation.map(ReputationLedger::new);
        Self {
            spec,
            round: 0,
            pending: 0,
            history,
            ledger,
            scratch: AggregationScratch::new(),
        }
    }

    pub(super) fn spec(&self) -> &JobSpec {
        &self.spec
    }

    pub(super) fn pending(&self) -> usize {
        self.pending
    }

    pub(super) fn push_pending(&mut self) {
        self.pending += 1;
    }

    pub(super) fn pop_pending(&mut self) -> bool {
        if self.pending == 0 {
            return false;
        }
        self.pending -= 1;
        true
    }

    pub(super) fn history(&self) -> &JobHistory {
        &self.history
    }

    pub(super) fn into_history(self) -> JobHistory {
        self.history
    }

    /// Snapshot of the job's resumable state. The round counter *is* the job's entire RNG
    /// position — every round re-derives its randomness from `(seed, round)` — so counter
    /// plus history plus the reputation ledger is a complete checkpoint.
    pub(super) fn checkpoint(&self) -> super::JobCheckpoint {
        super::JobCheckpoint {
            round: self.round,
            history: self.history.clone(),
            reputation: self
                .ledger
                .as_ref()
                .map(|l| l.entries().collect())
                .unwrap_or_default(),
        }
    }

    /// Rebuilds a job mid-run from a checkpoint and its (re-supplied) spec. The next round
    /// run is `checkpoint.round + 1`, with randomness identical to what the uninterrupted
    /// job would have drawn — including the reputation state selection depends on.
    pub(super) fn from_checkpoint(spec: JobSpec, checkpoint: super::JobCheckpoint) -> Self {
        let ledger = spec
            .reputation
            .map(|r| ReputationLedger::from_entries(r, checkpoint.reputation));
        Self {
            spec,
            round: checkpoint.round,
            pending: 0,
            history: checkpoint.history,
            ledger,
            scratch: AggregationScratch::new(),
        }
    }

    /// Runs one round — retrying under the spec's watchdog policy — and records its
    /// outcome, retry/backoff accounting, and every injected fault in the history. The
    /// returned result mirrors the recorded outcome; an `Err` means *this round* failed
    /// (its retry budget included) — the job stays usable.
    pub(super) fn run_round(&mut self, engine: &RoundEngine) -> Result<RoundSummary, FlError> {
        self.round += 1;
        let round = self.round;
        let max_retries = self.spec.watchdog.as_ref().map_or(0, |w| w.max_retries);
        let mut faults = Vec::new();
        let mut retry_errors = Vec::new();
        let mut backoff_secs = 0.0;
        let mut attempt = 0u32;
        // Aggregation verdicts of the *final* attempt, applied to the ledger after the
        // retry loop settles: within one round every attempt sees the same reputation
        // snapshot, so retries replay the identical auction.
        let mut verdicts: Vec<(u64, bool)> = Vec::new();
        // Moved out so `round_body` can borrow the job immutably; restored below.
        let mut scratch = std::mem::take(&mut self.scratch);
        let outcome = loop {
            match self.round_body(
                round,
                attempt,
                engine,
                &mut faults,
                &mut verdicts,
                &mut scratch,
            ) {
                Ok(summary) => break Ok(summary),
                Err(error) => {
                    if attempt >= max_retries || !WatchdogSpec::retryable(&error) {
                        break Err(error);
                    }
                    // max_retries > 0 implies a watchdog; charge its deterministic
                    // backoff (accounting only — no real sleeping) and go again.
                    let watchdog = self
                        .spec
                        .watchdog
                        .as_ref()
                        .expect("retries need a watchdog");
                    backoff_secs += watchdog.backoff_secs(attempt);
                    retry_errors.push(error);
                    attempt += 1;
                }
            }
        };
        self.scratch = scratch;
        if let Some(ledger) = &mut self.ledger {
            for &(node, accepted) in &verdicts {
                ledger.record(node, accepted);
            }
        }
        self.history.rounds.push(RoundRecord {
            round,
            outcome: outcome.clone(),
            attempts: attempt + 1,
            backoff_secs,
            faults,
            retry_errors,
        });
        outcome
    }

    /// One attempt of one round. Fault draws are keyed by `(plan, round, attempt, slot)`
    /// while the auction RNG is keyed by `(seed, round)` alone — so a clean retry of a
    /// faulted attempt replays the *identical* auction and is bit-identical to a round
    /// that never faulted.
    fn round_body(
        &self,
        round: u64,
        attempt: u32,
        engine: &RoundEngine,
        faults: &mut Vec<FaultEvent>,
        verdicts: &mut Vec<(u64, bool)>,
        scratch: &mut AggregationScratch,
    ) -> Result<RoundSummary, FlError> {
        verdicts.clear();
        let spec = &self.spec;
        let clock = spec
            .faults
            .as_ref()
            .map(|plan| (plan, DrawClock::new(plan.seed, spec.seed)));
        // Adversary draws are attempt-independent (see `crate::adversary`): a retried
        // round replays the same auction against the same lies.
        let adversary = spec
            .adversaries
            .as_ref()
            .filter(|plan| plan.is_active())
            .map(|plan| (plan, DrawClock::new(plan.seed, spec.seed)));
        // The round's frozen reputation view, shared with the fill closures on worker
        // threads; the ledger itself only moves between rounds.
        let reputation = self.ledger.as_ref().map(|l| Arc::new(l.snapshot()));
        let excluded_bids = Arc::new(AtomicUsize::new(0));

        // Each round's randomness derives from (seed, round) alone, so the stream of
        // histories is independent of when — or beside whom — the round executes.
        let mut rng = seeded_rng(derive_seed(spec.seed, round));
        let source = Arc::clone(&spec.source);
        // Record the shards that will panic before dispatch (draws are deterministic, so
        // "will fire" and "fired" coincide).
        let mut fill_panic_shards: Vec<usize> = Vec::new();
        if let Some((plan, clock)) = &clock {
            if plan.fill_panic_rate > 0.0 {
                for start in (0..spec.population).step_by(spec.shard_size.max(1)) {
                    if plan.fill_panics(clock, round, attempt, start) {
                        fill_panic_shards.push(start);
                        faults.push(FaultEvent {
                            attempt,
                            slot: start,
                            kind: FaultKind::FillPanic,
                        });
                    }
                }
            }
        }
        let fill: Arc<ShardFill> = match &clock {
            Some((plan, clock)) if plan.fill_panic_rate > 0.0 => {
                let plan = (*plan).clone();
                let clock = *clock;
                Arc::new(move |range: Range<usize>, store: &mut BidStore| {
                    assert!(
                        !plan.fill_panics(&clock, round, attempt, range.start),
                        "injected fault: bid shard at {} panicked",
                        range.start
                    );
                    source(range, round, store)
                })
            }
            _ => Arc::new(move |range: Range<usize>, store: &mut BidStore| {
                source(range, round, store)
            }),
        };
        // Post-fill bid revision: adversarial distortion first (the lie the node tells),
        // then the reputation filter (what the auctioneer believes). Inactive plans and
        // full scores leave every bid untouched, so honest histories stay bit-identical.
        let fill: Arc<ShardFill> = if adversary.is_some() || reputation.is_some() {
            let inner = fill;
            let plan = adversary.as_ref().map(|(plan, _)| (*plan).clone());
            let adversary_clock = adversary.as_ref().map(|(_, clock)| *clock);
            let filter = reputation.clone();
            let excluded_bids = Arc::clone(&excluded_bids);
            Arc::new(move |range: Range<usize>, store: &mut BidStore| {
                let start = store.len();
                inner(range, store)?;
                let dropped = store.revise_from(start, |node, qualities, ask| {
                    if let (Some(plan), Some(clock)) = (&plan, &adversary_clock) {
                        if let Some(distortion) = plan.bid_distortion(clock, round, node.0) {
                            distortion.apply(plan, qualities, ask);
                        }
                    }
                    match &filter {
                        Some(filter) => filter.revise(node.0, qualities, ask),
                        None => true,
                    }
                });
                excluded_bids.fetch_add(dropped, Ordering::Relaxed);
                Ok(())
            })
        } else {
            fill
        };
        let streamed = match auction_select_streamed(
            &spec.auction,
            spec.population,
            spec.shard_size,
            spec.reserve,
            engine,
            fill,
            &mut rng,
            |award| WinnerInfo {
                client: award.node.0 as usize,
                node: award.node,
                data_size: 1,
                categories: 1,
                score: award.score,
                payment: award.payment,
            },
        ) {
            Ok(streamed) => streamed,
            // The executor attributes a caught panic to its wave-relative task slot,
            // which depends on the pool width. An *injected* fill panic must leave a
            // width-invariant record, so canonicalise it to the first panicking shard's
            // start index (the panic genuinely fired on a worker either way).
            Err(FlError::JobPanic(_)) if !fill_panic_shards.is_empty() => {
                let shard = fill_panic_shards[0];
                return Err(FlError::JobPanic(crate::executor::JobPanic {
                    slot: shard,
                    message: format!("injected fault: bid shard at {shard} panicked"),
                }));
            }
            // An empty bid book caused by reputation exclusion is its own typed,
            // retryable failure: the fleet degraded, the model was not poisoned.
            Err(FlError::Auction(AuctionError::NoBids))
                if excluded_bids.load(Ordering::Relaxed) > 0 =>
            {
                return Err(FlError::AllBiddersExcluded {
                    excluded: excluded_bids.load(Ordering::Relaxed),
                });
            }
            Err(e) => return Err(e),
        };

        let mut winners = streamed.winners;
        let mut deadline_misses = 0;
        let mut sim_secs = 0.0f64;
        if let Some(deadline) = &spec.deadline {
            let timings = deadline.timings(spec.seed, round, winners.len());
            let verdict = apply_deadline(&timings, deadline.deadline_secs);
            deadline_misses = winners.len() - verdict.survivors.len();
            sim_secs = verdict.wave_secs;
            let mut keep = verdict.survivors.into_iter().peekable();
            let mut slot = 0usize;
            winners.retain(|_| {
                let keep_this = keep.peek() == Some(&slot);
                if keep_this {
                    keep.next();
                }
                slot += 1;
                keep_this
            });
        }

        // Mid-round dropouts: the survivor set thins again, payment forfeited.
        let mut dropouts = 0;
        if let Some((plan, clock)) = &clock {
            let mut slot = 0usize;
            winners.retain(|_| {
                let dropped = plan.drops_out(clock, round, attempt, slot);
                if dropped {
                    faults.push(FaultEvent {
                        attempt,
                        slot,
                        kind: FaultKind::Dropout,
                    });
                    dropouts += 1;
                }
                slot += 1;
                !dropped
            });
        }

        // Per-winner work fan-out, with injected panics and stalls. Stall charges land on
        // the round's simulated clock (the watchdog's meter); the stalled task also parks
        // its worker briefly for real so the executor sees genuine dead time.
        let work_value = match &spec.work {
            Some(work) => {
                let tasks: Vec<Task<f64>> = winners
                    .iter()
                    .enumerate()
                    .map(|(slot, winner)| {
                        let injected = clock.as_ref().and_then(|(plan, clock)| {
                            let fault = plan.work_fault(clock, round, attempt, slot)?;
                            faults.push(FaultEvent {
                                attempt,
                                slot,
                                kind: fault,
                            });
                            if fault == FaultKind::Stall {
                                sim_secs += plan.stall_secs;
                            }
                            Some(fault)
                        });
                        let work = Arc::clone(work);
                        let winner = winner.clone();
                        Box::new(move || {
                            match injected {
                                Some(FaultKind::WorkPanic) => {
                                    panic!("injected fault: work task in slot {slot} panicked")
                                }
                                Some(FaultKind::Stall) => std::thread::sleep(STALL_SLEEP),
                                _ => {}
                            }
                            work(round, slot, &winner)
                        }) as Task<f64>
                    })
                    .collect();
                engine.try_run_tasks(tasks)?.into_iter().sum()
            }
            None => 0.0,
        };

        // The watchdog meters simulated time, so its verdict is identical on every
        // machine and at every pool width. Checked before aggregation: a wedged round
        // should not publish a model.
        if let Some(watchdog) = &spec.watchdog {
            if sim_secs > watchdog.round_budget_secs {
                return Err(FlError::RoundTimeout {
                    round,
                    sim_secs,
                    budget_secs: watchdog.round_budget_secs,
                });
            }
        }

        // Synthetic update stage: derive each survivor's update, poison per the adversary
        // plan, corrupt per the fault plan, then hand the batch to the spec's aggregation
        // rule. Quarantine degrades the round — and feeds the reputation verdicts — while
        // a fully quarantined batch fails it (retryably).
        let mut quarantined = 0;
        if spec.update_dim > 0 && !winners.is_empty() {
            let updates: Vec<(Vec<f64>, f64)> = winners
                .iter()
                .enumerate()
                .map(|(slot, winner)| {
                    let mut params =
                        synthetic_update(spec.seed, round, winner.node.0, spec.update_dim);
                    if let Some((plan, aclock)) = &adversary {
                        if let Some(poison) = plan.update_poison(aclock, round, winner.node.0) {
                            poison.apply(plan, &mut params);
                        }
                    }
                    if let Some((plan, clock)) = &clock {
                        if let Some(corruption) = plan.corruption(clock, round, attempt, slot) {
                            corruption.apply(&mut params, plan.corrupt_scale);
                            faults.push(FaultEvent {
                                attempt,
                                slot,
                                kind: FaultKind::CorruptUpdate(corruption),
                            });
                        }
                    }
                    (params, winner.data_size as f64)
                })
                .collect();
            let borrowed: Vec<(&[f64], f64)> = updates
                .iter()
                .map(|(params, weight)| (params.as_slice(), *weight))
                .collect();
            let mut global = Vec::new();
            let screened = match spec
                .aggregation
                .aggregate_with(&borrowed, &mut global, scratch)
            {
                Ok(screened) => screened,
                Err(e @ FlError::AllUpdatesQuarantined { .. }) => {
                    // The round fails, but the ledger still learns: every winner of the
                    // fully quarantined batch takes the penalty.
                    verdicts.extend(winners.iter().map(|w| (w.node.0, false)));
                    return Err(e);
                }
                Err(e) => return Err(e),
            };
            quarantined = screened.quarantined.len();
            let mut next_bad = screened.quarantined.iter().peekable();
            for (slot, winner) in winners.iter().enumerate() {
                let bad = next_bad.peek().is_some_and(|q| q.index == slot);
                if bad {
                    next_bad.next();
                }
                verdicts.push((winner.node.0, !bad));
            }
            debug_assert!(global.iter().all(|p| p.is_finite()));
        }

        let total_payment = winners.iter().map(|w| w.payment).sum();
        Ok(RoundSummary {
            round,
            offered: streamed.offered,
            winners,
            total_payment,
            deadline_misses,
            dropouts,
            quarantined,
            sim_secs,
            work_value,
            peak_bid_bytes: streamed.peak_bid_bytes,
        })
    }
}
