//! Always-on multi-tenant auction service.
//!
//! Every experiment in the workspace so far has been a batch run that owns the process.
//! [`AuctionService`] is the long-running shape FMore's §I/§VI pitch implies: one shared
//! worker pool multiplexing many concurrent FL jobs, each with its own
//! population stream, seed, scheme, `K`, and deadline config.
//!
//! # Contract
//!
//! * **Admission** — [`AuctionService::admit`] refuses (with
//!   [`FlError::AdmissionFull`]) once `max_jobs` tenants are live; a slot frees when a job
//!   is [closed](AuctionService::close).
//! * **Backpressure** — rounds are *requested* ([`AuctionService::request_round`]) into a
//!   bounded per-job queue and *drained* ([`AuctionService::run_pending`]) by whatever
//!   thread the caller dedicates to the job. A full queue returns
//!   [`FlError::Backpressure`] instead of queueing unboundedly — the service never spawns;
//!   all parallelism comes from bounded fan-outs on the shared [`WorkerPool`].
//! * **Isolation** — a round locks only its own job. Bid ingestion reuses the streamed
//!   selection path (`O(width · shard + K)` peak memory per job, never `O(N)`), and every
//!   fan-out goes through the checked executor path, so a panicking task in job A surfaces
//!   as [`FlError::JobPanic`] in *A's* round record while job B's wave — and the process —
//!   complete untouched.
//! * **Determinism** — a job's history is a pure function of its [`JobSpec`]: bit-identical
//!   whether the job runs alone or interleaved with noisy neighbours, at any pool width.
//!
//! [`WorkerPool`]: crate::executor::WorkerPool

mod checkpoint;
mod job;

pub use checkpoint::JobCheckpoint;
use job::FlJob;
pub use job::{BidSource, DeadlineSpec, JobHistory, JobId, JobSpec, RoundRecord, RoundSummary};

use crate::engine::RoundEngine;
use crate::error::FlError;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Capacity knobs of an [`AuctionService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Maximum concurrently admitted jobs.
    pub max_jobs: usize,
    /// Default bound on per-job pending rounds (used when a spec leaves
    /// [`JobSpec::max_pending`] at `0`).
    pub max_pending: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            max_jobs: 64,
            max_pending: 32,
        }
    }
}

struct ServiceState {
    jobs: BTreeMap<JobId, Arc<Mutex<FlJob>>>,
    next: JobId,
}

/// The long-running multi-tenant auction service. See the [module docs](self) for the
/// admission/backpressure/isolation contract.
///
/// The service itself is `Sync`: callers drive jobs from as many threads as they like.
/// The jobs table is behind one short-lived mutex (held only for map lookups, never
/// across a round); each job has its own mutex, so rounds of different jobs genuinely
/// interleave on the shared pool.
pub struct AuctionService {
    engine: RoundEngine,
    config: ServiceConfig,
    state: Mutex<ServiceState>,
}

/// Locks a mutex, recovering the data if a previous holder panicked — a service must keep
/// serving its healthy tenants after one tenant's round dies mid-lock.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl AuctionService {
    /// Builds a service running its rounds on a caller-supplied engine (an inline engine
    /// for strict single-threaded runs, or a private pool of a chosen width). The engine
    /// never affects job histories — only wall-clock.
    pub fn with_engine(config: ServiceConfig, engine: RoundEngine) -> Self {
        Self {
            engine,
            config,
            state: Mutex::new(ServiceState {
                jobs: BTreeMap::new(),
                next: 0,
            }),
        }
    }

    /// Number of currently admitted jobs.
    pub(crate) fn len(&self) -> usize {
        lock(&self.state).jobs.len()
    }

    /// Admits a job, returning its id.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] when the spec's fault/adversary/reputation/aggregation
    /// parameters are out of range (see [`JobSpec::validate`]);
    /// [`FlError::AdmissionFull`] when the service already runs `max_jobs` jobs.
    pub fn admit(&self, spec: JobSpec) -> Result<JobId, FlError> {
        spec.validate()?;
        let mut state = lock(&self.state);
        if state.jobs.len() >= self.config.max_jobs {
            return Err(FlError::AdmissionFull {
                capacity: self.config.max_jobs,
            });
        }
        let id = state.next;
        state.next += 1;
        state
            .jobs
            .insert(id, Arc::new(Mutex::new(FlJob::new(spec))));
        Ok(id)
    }

    /// Removes a job and returns its final history, freeing its admission slot.
    ///
    /// # Errors
    ///
    /// [`FlError::UnknownJob`] if no such job is live.
    pub fn close(&self, id: JobId) -> Result<JobHistory, FlError> {
        let job = lock(&self.state)
            .jobs
            .remove(&id)
            .ok_or(FlError::UnknownJob(id))?;
        Ok(match Arc::try_unwrap(job) {
            Ok(m) => m
                .into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .into_history(),
            // A racing round still holds the job; snapshot what it has recorded.
            Err(shared) => lock(&shared).history().clone(),
        })
    }

    /// Enqueues one round for the job without running it.
    ///
    /// # Errors
    ///
    /// [`FlError::UnknownJob`] for a dead id; [`FlError::Backpressure`] when the job's
    /// pending queue is at its bound (`spec.max_pending`, or the service default) — the
    /// caller must drain via [`AuctionService::run_pending`] first.
    pub fn request_round(&self, id: JobId) -> Result<(), FlError> {
        let job = self.job(id)?;
        let mut job = lock(&job);
        let bound = match job.spec().max_pending {
            0 => self.config.max_pending,
            n => n,
        };
        if job.pending() >= bound {
            return Err(FlError::Backpressure {
                job: id,
                pending: job.pending(),
            });
        }
        job.push_pending();
        Ok(())
    }

    /// Runs every pending round of the job, in order, recording each outcome (success *or
    /// typed failure*) in the job's history. Returns how many rounds ran. A failed round
    /// never aborts the drain: the next pending round still runs.
    ///
    /// # Errors
    ///
    /// [`FlError::UnknownJob`] for a dead id. Per-round failures are recorded, not
    /// returned — read them from [`AuctionService::history`].
    pub fn run_pending(&self, id: JobId) -> Result<usize, FlError> {
        let job = self.job(id)?;
        let mut ran = 0;
        loop {
            let mut job = lock(&job);
            if !job.pop_pending() {
                return Ok(ran);
            }
            let _ = job.run_round(&self.engine);
            ran += 1;
        }
    }

    /// Runs one round immediately (bypassing the pending queue) and returns its summary.
    ///
    /// # Errors
    ///
    /// [`FlError::UnknownJob`] for a dead id; otherwise whatever failed the round
    /// (auction failure, [`FlError::JobPanic`], …). The failure is also recorded in the
    /// job's history, and the job remains usable.
    pub fn run_round(&self, id: JobId) -> Result<RoundSummary, FlError> {
        let job = self.job(id)?;
        let mut job = lock(&job);
        job.run_round(&self.engine)
    }

    /// Snapshot of the job's history so far.
    ///
    /// # Errors
    ///
    /// [`FlError::UnknownJob`] for a dead id.
    pub fn history(&self, id: JobId) -> Result<JobHistory, FlError> {
        let job = self.job(id)?;
        let job = lock(&job);
        Ok(job.history().clone())
    }

    /// Snapshot of the job's resumable state — serialise it with
    /// [`JobCheckpoint::to_bytes`] and resume it (here or on a fresh service) with
    /// [`AuctionService::restore`]. The job keeps running; a checkpoint is a copy, not a
    /// close.
    ///
    /// # Errors
    ///
    /// [`FlError::UnknownJob`] for a dead id.
    pub fn checkpoint(&self, id: JobId) -> Result<JobCheckpoint, FlError> {
        let job = self.job(id)?;
        let job = lock(&job);
        Ok(job.checkpoint())
    }

    /// Admits a job resumed from a checkpoint: its round counter and history continue
    /// where the checkpoint left off, and — because each round's randomness derives from
    /// `(seed, round)` alone — the restored job's further rounds are bit-identical to the
    /// uninterrupted run's. The spec is re-supplied by the caller (specs hold closures and
    /// are never serialised) and must name the same job.
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] when `spec.name` differs from the checkpointed name or
    /// the spec itself is out of range (see [`JobSpec::validate`]);
    /// [`FlError::AdmissionFull`] when the service is at capacity.
    pub fn restore(&self, spec: JobSpec, checkpoint: JobCheckpoint) -> Result<JobId, FlError> {
        spec.validate()?;
        if spec.name != checkpoint.name() {
            return Err(FlError::InvalidConfig(format!(
                "checkpoint of job '{}' cannot restore a spec named '{}'",
                checkpoint.name(),
                spec.name
            )));
        }
        let mut state = lock(&self.state);
        if state.jobs.len() >= self.config.max_jobs {
            return Err(FlError::AdmissionFull {
                capacity: self.config.max_jobs,
            });
        }
        let id = state.next;
        state.next += 1;
        state.jobs.insert(
            id,
            Arc::new(Mutex::new(FlJob::from_checkpoint(spec, checkpoint))),
        );
        Ok(id)
    }

    fn job(&self, id: JobId) -> Result<Arc<Mutex<FlJob>>, FlError> {
        lock(&self.state)
            .jobs
            .get(&id)
            .cloned()
            .ok_or(FlError::UnknownJob(id))
    }
}

impl std::fmt::Debug for AuctionService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuctionService")
            .field("jobs", &self.len())
            .field("capacity", &self.config.max_jobs)
            .field("mode", &self.engine.mode())
            .finish()
    }
}

#[cfg(test)]
impl AuctionService {
    /// Whether no jobs are admitted.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ids of all live jobs, in admission order.
    fn jobs(&self) -> Vec<JobId> {
        lock(&self.state).jobs.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmore_auction::{CobbDouglas, NodeId, PricingRule, ScoringRule, SelectionRule};
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn toy_auction(k: usize) -> fmore_auction::Auction {
        let scoring = CobbDouglas::with_scale(25.0, vec![0.5, 0.3]).unwrap();
        fmore_auction::Auction::new(
            ScoringRule::new(scoring),
            k,
            SelectionRule::TopK,
            PricingRule::FirstPrice,
        )
    }

    fn toy_source() -> Arc<BidSource> {
        Arc::new(|range, round, store| {
            for i in range {
                let phase = ((i as u64).wrapping_mul(2654435761) ^ round) % 97;
                let q = [
                    0.2 + 0.7 * (phase as f64 / 97.0),
                    0.3 + 0.5 * ((phase as f64 * 1.618) % 1.0),
                ];
                store.push(NodeId(i as u64), &q, 0.05 + 0.01 * (i % 7) as f64)?;
            }
            Ok(())
        })
    }

    fn toy_spec(name: &str, seed: u64) -> JobSpec {
        JobSpec {
            name: name.into(),
            population: 256,
            shard_size: 64,
            reserve: 4,
            auction: toy_auction(8),
            seed,
            deadline: Some(DeadlineSpec::lenient()),
            max_pending: 0,
            update_dim: 0,
            watchdog: None,
            faults: None,
            adversaries: None,
            reputation: None,
            aggregation: JobSpec::default_aggregation(),
            source: toy_source(),
            work: None,
        }
    }

    #[test]
    fn admission_is_bounded_and_close_frees_the_slot() {
        let service = AuctionService::with_engine(
            ServiceConfig {
                max_jobs: 2,
                max_pending: 4,
            },
            RoundEngine::inline(),
        );
        let a = service.admit(toy_spec("a", 1)).unwrap();
        let _b = service.admit(toy_spec("b", 2)).unwrap();
        let err = service.admit(toy_spec("c", 3)).unwrap_err();
        assert_eq!(err, FlError::AdmissionFull { capacity: 2 });
        service.close(a).unwrap();
        assert!(service.admit(toy_spec("c", 3)).is_ok());
        assert_eq!(service.len(), 2);
    }

    #[test]
    fn backpressure_bounds_the_pending_queue() {
        let service = AuctionService::with_engine(
            ServiceConfig {
                max_jobs: 4,
                max_pending: 2,
            },
            RoundEngine::inline(),
        );
        let id = service.admit(toy_spec("bp", 9)).unwrap();
        service.request_round(id).unwrap();
        service.request_round(id).unwrap();
        let err = service.request_round(id).unwrap_err();
        assert_eq!(
            err,
            FlError::Backpressure {
                job: id,
                pending: 2
            }
        );
        // Draining frees the queue and actually runs the rounds.
        assert_eq!(service.run_pending(id).unwrap(), 2);
        assert_eq!(service.history(id).unwrap().completed(), 2);
        service.request_round(id).unwrap();
    }

    #[test]
    fn unknown_job_is_a_typed_error_everywhere() {
        let service = AuctionService::with_engine(ServiceConfig::default(), RoundEngine::default());
        assert_eq!(service.run_round(7).unwrap_err(), FlError::UnknownJob(7));
        assert_eq!(service.history(7).unwrap_err(), FlError::UnknownJob(7));
        assert_eq!(service.close(7).unwrap_err(), FlError::UnknownJob(7));
        assert_eq!(
            service.request_round(7).unwrap_err(),
            FlError::UnknownJob(7)
        );
        assert_eq!(service.run_pending(7).unwrap_err(), FlError::UnknownJob(7));
    }

    #[test]
    fn rounds_produce_winners_payments_and_bounded_memory() {
        let service = AuctionService::with_engine(ServiceConfig::default(), RoundEngine::pooled(2));
        let id = service.admit(toy_spec("toy", 42)).unwrap();
        let summary = service.run_round(id).unwrap();
        assert_eq!(summary.round, 1);
        assert_eq!(summary.offered, 256);
        assert!(!summary.winners.is_empty() && summary.winners.len() <= 8);
        assert!(summary.total_payment > 0.0);
        // Streaming, not collecting: peak bid bytes must be far below the full population.
        assert!(summary.peak_bid_bytes < 256 * 3 * 8);
        let again = service.run_round(id).unwrap();
        assert_eq!(again.round, 2);
        assert_ne!(summary.winners, again.winners, "rounds draw fresh bids");
    }

    #[test]
    fn histories_are_deterministic_per_spec() {
        let run_seed = |engine: RoundEngine, seed: u64| {
            let service = AuctionService::with_engine(ServiceConfig::default(), engine);
            let id = service.admit(toy_spec("det", seed)).unwrap();
            for _ in 0..3 {
                service.run_round(id).unwrap();
            }
            service.close(id).unwrap()
        };
        let run = |engine: RoundEngine| run_seed(engine, 77);
        let inline = run(RoundEngine::inline());
        let pooled = run(RoundEngine::pooled(4));
        // Same width → the full history (including memory accounting) is bit-identical.
        assert_eq!(inline, run(RoundEngine::inline()));
        assert_eq!(pooled, run(RoundEngine::pooled(4)));
        // Across widths only `peak_bid_bytes` may differ (wider waves hold more shard
        // stores); everything the auction observed is pinned by the fingerprint.
        assert_eq!(inline.fingerprint(), pooled.fingerprint());
        assert_ne!(
            inline.fingerprint(),
            run_seed(RoundEngine::inline(), 78).fingerprint(),
            "different seeds produce different histories"
        );
    }

    #[test]
    fn poisoned_neighbour_fails_its_own_round_only() {
        let service = AuctionService::with_engine(ServiceConfig::default(), RoundEngine::pooled(2));
        let calls = Arc::new(AtomicUsize::new(0));
        let mut poisoned = toy_spec("poisoned", 5);
        let seen = Arc::clone(&calls);
        poisoned.work = Some(Arc::new(move |round, slot, _winner| {
            seen.fetch_add(1, Ordering::Relaxed);
            assert!(!(round == 1 && slot == 2), "synthetic training crash");
            1.0
        }));
        let healthy_spec = toy_spec("healthy", 6);
        let a = service.admit(poisoned).unwrap();
        let b = service.admit(healthy_spec.clone()).unwrap();

        // Job A's first round dies in its work stage; the error is typed and recorded.
        let err = service.run_round(a).unwrap_err();
        assert!(
            matches!(err, FlError::JobPanic(ref p) if p.message.contains("crash")),
            "{err}"
        );
        let history = service.history(a).unwrap();
        assert_eq!(history.failed(), 1);

        // Job B is untouched by its neighbour's panic...
        let healthy_round = service.run_round(b).unwrap();
        assert!(!healthy_round.winners.is_empty());
        // ...and B's history matches a solo run on a fresh service bit-for-bit.
        let solo = AuctionService::with_engine(ServiceConfig::default(), RoundEngine::pooled(2));
        let solo_id = solo.admit(healthy_spec).unwrap();
        let solo_round = solo.run_round(solo_id).unwrap();
        assert_eq!(healthy_round, solo_round);

        // Job A itself survives: round 2 completes on the same pool.
        let recovered = service.run_round(a).unwrap();
        assert_eq!(recovered.round, 2);
        assert!(recovered.work_value > 0.0);
        assert!(calls.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn close_during_a_racing_round_snapshots_history_and_frees_the_slot() {
        use std::sync::atomic::AtomicBool;
        let service = AuctionService::with_engine(
            ServiceConfig {
                max_jobs: 1,
                max_pending: 4,
            },
            RoundEngine::inline(),
        );
        let entered = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        let mut spec = toy_spec("racer", 21);
        let (entered_w, release_r) = (Arc::clone(&entered), Arc::clone(&release));
        spec.work = Some(Arc::new(move |_round, slot, _winner| {
            if slot == 0 {
                entered_w.store(true, Ordering::SeqCst);
                while !release_r.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }
            1.0
        }));
        let id = service.admit(spec).unwrap();
        // Hold a handle to the job the way an in-flight round does, so `close` is
        // guaranteed to hit its snapshot branch rather than unwrapping the sole Arc.
        let held = service.job(id).unwrap();

        std::thread::scope(|scope| {
            let round = scope.spawn(|| service.run_round(id));
            while !entered.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            // The round is mid-work and owns the job mutex. Close concurrently: it must
            // remove the job, then wait out the racing round and snapshot its record.
            let closer = scope.spawn(|| service.close(id));
            std::thread::sleep(std::time::Duration::from_millis(10));
            // The slot is free for a new tenant even while the old round still runs.
            assert!(service.is_empty());
            let fresh = service.admit(toy_spec("tenant2", 22)).unwrap();
            assert!(service.run_round(fresh).is_ok());

            release.store(true, Ordering::SeqCst);
            let summary = round.join().expect("round thread").unwrap();
            assert_eq!(summary.round, 1);
            let snapshot = closer.join().expect("closer thread").unwrap();
            // Close serialised after the racing round's record was written.
            assert_eq!(snapshot.name, "racer");
            assert_eq!(snapshot.completed(), 1);
        });
        drop(held);
        assert_eq!(service.run_round(id).unwrap_err(), FlError::UnknownJob(id));
    }

    #[test]
    fn capacity_reuse_preserves_the_closed_jobs_history() {
        let service = AuctionService::with_engine(
            ServiceConfig {
                max_jobs: 1,
                max_pending: 4,
            },
            RoundEngine::inline(),
        );
        let a = service.admit(toy_spec("first", 31)).unwrap();
        service.run_round(a).unwrap();
        service.run_round(a).unwrap();
        assert_eq!(
            service.admit(toy_spec("second", 32)).unwrap_err(),
            FlError::AdmissionFull { capacity: 1 }
        );
        let history = service.close(a).unwrap();
        assert_eq!(history.name, "first");
        assert_eq!(history.completed(), 2);
        let b = service.admit(toy_spec("second", 32)).unwrap();
        assert!(service.run_round(b).is_ok());
        assert_eq!(service.history(b).unwrap().name, "second");
    }

    #[test]
    fn watchdog_recovers_faulted_rounds_within_budget() {
        use crate::faults::{FaultPlan, WatchdogSpec};
        let run = || {
            let service =
                AuctionService::with_engine(ServiceConfig::default(), RoundEngine::pooled(2));
            let mut spec = toy_spec("chaos", 404);
            spec.update_dim = 8;
            spec.watchdog = Some(WatchdogSpec {
                round_budget_secs: 20.0,
                max_retries: 3,
                backoff_base_secs: 0.5,
                backoff_factor: 2.0,
            });
            spec.faults = Some(FaultPlan::chaos(11));
            spec.work = Some(Arc::new(|_round, _slot, winner| winner.score));
            let id = service.admit(spec).unwrap();
            for _ in 0..6 {
                let _ = service.run_round(id);
            }
            service.close(id).unwrap()
        };
        let history = run();
        assert_eq!(history.completed(), 6, "every faulted round recovered");
        let retried: Vec<_> = history.rounds.iter().filter(|r| r.attempts > 1).collect();
        assert!(
            !retried.is_empty(),
            "chaos rates over 6 rounds × 8 winners must trip at least one retry"
        );
        for record in &retried {
            assert_eq!(record.retry_errors.len() as u32, record.attempts - 1);
            assert!(record.backoff_secs > 0.0);
            assert!(record.retry_errors.iter().all(WatchdogSpec::retryable));
            assert!(!record.faults.is_empty());
        }
        // Chaos is replayable: the identical spec reproduces the identical history.
        assert_eq!(history, run());
    }

    #[test]
    fn faults_without_a_watchdog_fail_typed_and_unretried() {
        use crate::faults::FaultPlan;
        let service = AuctionService::with_engine(ServiceConfig::default(), RoundEngine::inline());
        let mut spec = toy_spec("unguarded", 77);
        let mut plan = FaultPlan::chaos(3);
        // Make failure certain: every work task panics, and no watchdog retries it.
        // (Panic and stall share one draw, so the two rates must fit one budget.)
        plan.panic_rate = 1.0;
        plan.stall_rate = 0.0;
        spec.faults = Some(plan);
        spec.work = Some(Arc::new(|_round, _slot, winner| winner.score));
        let id = service.admit(spec).unwrap();
        let err = service.run_round(id).unwrap_err();
        assert!(matches!(err, FlError::JobPanic(_)), "{err}");
        let history = service.close(id).unwrap();
        assert_eq!(history.rounds[0].attempts, 1);
        assert!(history.rounds[0].retry_errors.is_empty());
        assert!(!history.rounds[0].faults.is_empty());
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let spec = || toy_spec("cp", 55);
        // Uninterrupted reference run.
        let full = {
            let service =
                AuctionService::with_engine(ServiceConfig::default(), RoundEngine::inline());
            let id = service.admit(spec()).unwrap();
            for _ in 0..4 {
                service.run_round(id).unwrap();
            }
            service.close(id).unwrap()
        };
        // Interrupted run: two rounds, checkpoint → bytes → restore on a *fresh* service,
        // two more rounds.
        let service = AuctionService::with_engine(ServiceConfig::default(), RoundEngine::inline());
        let id = service.admit(spec()).unwrap();
        for _ in 0..2 {
            service.run_round(id).unwrap();
        }
        let bytes = service.checkpoint(id).unwrap().to_bytes();
        let resumed = JobCheckpoint::from_bytes(&bytes).unwrap();
        let fresh = AuctionService::with_engine(ServiceConfig::default(), RoundEngine::inline());
        let rid = fresh.restore(spec(), resumed).unwrap();
        for _ in 0..2 {
            fresh.run_round(rid).unwrap();
        }
        assert_eq!(fresh.close(rid).unwrap(), full);
        // The original keeps running — a checkpoint is a copy, not a close.
        service.run_round(id).unwrap();
        // Restoring under a different name is refused.
        let err = fresh
            .restore(toy_spec("other", 55), service.checkpoint(id).unwrap())
            .unwrap_err();
        assert!(matches!(err, FlError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn malformed_specs_are_rejected_at_admission_typed() {
        use crate::adversary::{AdversaryPlan, ReputationSpec};
        use crate::aggregator::Krum;
        use crate::faults::FaultPlan;
        let service = AuctionService::with_engine(ServiceConfig::default(), RoundEngine::inline());

        let mut spec = toy_spec("bad-faults", 1);
        let mut plan = FaultPlan::chaos(1);
        plan.dropout_rate = 1.5;
        spec.faults = Some(plan);
        assert!(matches!(
            service.admit(spec).unwrap_err(),
            FlError::InvalidConfig(_)
        ));

        let mut spec = toy_spec("bad-adversaries", 1);
        let mut plan = AdversaryPlan::byzantine(1);
        plan.sign_flip_rate = 0.9; // poison classes now sum past 1
        spec.adversaries = Some(plan);
        assert!(matches!(
            service.admit(spec).unwrap_err(),
            FlError::InvalidConfig(_)
        ));

        let mut spec = toy_spec("bad-reputation", 1);
        let mut reputation = ReputationSpec::standard();
        reputation.penalty = -0.5;
        spec.reputation = Some(reputation);
        assert!(matches!(
            service.admit(spec).unwrap_err(),
            FlError::InvalidConfig(_)
        ));

        let mut spec = toy_spec("bad-aggregation", 1);
        spec.aggregation = Arc::new(Krum::multi(1, 0));
        assert!(matches!(
            service.admit(spec).unwrap_err(),
            FlError::InvalidConfig(_)
        ));

        // Restore validates the re-supplied spec too.
        let id = service.admit(toy_spec("good", 2)).unwrap();
        let checkpoint = service.checkpoint(id).unwrap();
        let mut spec = toy_spec("good", 2);
        spec.reputation = Some(ReputationSpec {
            exclusion_threshold: 7.0,
            ..ReputationSpec::standard()
        });
        assert!(matches!(
            service.restore(spec, checkpoint).unwrap_err(),
            FlError::InvalidConfig(_)
        ));
        assert_eq!(service.len(), 1, "nothing malformed was admitted");
    }

    #[test]
    fn malformed_deadlines_and_watchdogs_are_refused_at_admission() {
        use crate::faults::WatchdogSpec;
        DeadlineSpec::lenient().validate().unwrap();
        WatchdogSpec::standard().validate().unwrap();
        let service = AuctionService::with_engine(ServiceConfig::default(), RoundEngine::inline());
        let live = service.admit(toy_spec("live", 1)).unwrap();
        type Mutation = Box<dyn Fn(&mut JobSpec)>;
        let deadline = |f: fn(&mut DeadlineSpec)| -> Mutation {
            Box::new(move |spec: &mut JobSpec| {
                let mut deadline = DeadlineSpec::lenient();
                f(&mut deadline);
                spec.deadline = Some(deadline);
            })
        };
        let watchdog = |f: fn(&mut WatchdogSpec)| -> Mutation {
            Box::new(move |spec: &mut JobSpec| {
                let mut watchdog = WatchdogSpec::standard();
                f(&mut watchdog);
                spec.watchdog = Some(watchdog);
            })
        };
        let cases: Vec<(&str, Mutation)> = vec![
            ("straggler_rate", deadline(|d| d.straggler_rate = 1.5)),
            ("straggler_rate", deadline(|d| d.straggler_rate = -0.1)),
            ("straggler_rate", deadline(|d| d.straggler_rate = f64::NAN)),
            ("deadline_secs", deadline(|d| d.deadline_secs = f64::NAN)),
            ("deadline_secs", deadline(|d| d.deadline_secs = -1.0)),
            ("base_secs", deadline(|d| d.base_secs = f64::INFINITY)),
            ("slowdown", deadline(|d| d.slowdown = -0.5)),
            (
                "round_budget_secs",
                watchdog(|w| w.round_budget_secs = f64::NAN),
            ),
            (
                "round_budget_secs",
                watchdog(|w| w.round_budget_secs = -1.0),
            ),
            (
                "backoff_base_secs",
                watchdog(|w| w.backoff_base_secs = f64::NAN),
            ),
            ("backoff_factor", watchdog(|w| w.backoff_factor = -2.0)),
            ("backoff_factor", watchdog(|w| w.backoff_factor = f64::NAN)),
            ("backoff_factor", watchdog(|w| w.backoff_factor = 0.5)),
        ];
        for (field, mutate) in cases {
            let mut spec = toy_spec("malformed", 2);
            mutate(&mut spec);
            match service.admit(spec) {
                Err(FlError::InvalidConfig(message)) => {
                    assert!(message.contains(field), "{field}: {message}");
                }
                other => panic!("{field}: expected InvalidConfig, got {other:?}"),
            }
            assert_eq!(service.jobs(), vec![live], "{field}: the job table changed");
        }
    }

    #[test]
    fn honest_adversary_plan_and_idle_reputation_are_bitwise_inert() {
        use crate::adversary::{AdversaryPlan, ReputationSpec};
        let run = |decorate: bool| {
            let service =
                AuctionService::with_engine(ServiceConfig::default(), RoundEngine::pooled(2));
            let mut spec = toy_spec("inert", 313);
            spec.update_dim = 8;
            if decorate {
                spec.adversaries = Some(AdversaryPlan::honest(99));
                spec.reputation = Some(ReputationSpec::standard());
            }
            let id = service.admit(spec).unwrap();
            for _ in 0..4 {
                service.run_round(id).unwrap();
            }
            service.close(id).unwrap()
        };
        // An all-honest plan plus a reputation loop that never sees a quarantine must
        // leave the history byte-identical — the decoration is pure potential.
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn reputation_loop_excludes_repeat_offenders_and_fails_typed_when_empty() {
        use crate::adversary::ReputationSpec;
        use crate::faults::FaultPlan;
        let run = || {
            let service =
                AuctionService::with_engine(ServiceConfig::default(), RoundEngine::pooled(2));
            let mut spec = toy_spec("three-strikes", 606);
            // Four nodes, all of them winners, every update corrupted: the ledger learns
            // fast, and once every node is excluded the book goes empty.
            spec.population = 4;
            spec.shard_size = 2;
            spec.auction = toy_auction(4);
            spec.reserve = 0;
            spec.update_dim = 8;
            spec.deadline = None;
            spec.faults = Some(FaultPlan {
                seed: 17,
                fill_panic_rate: 0.0,
                panic_rate: 0.0,
                stall_rate: 0.0,
                stall_secs: 0.0,
                dropout_rate: 0.0,
                corrupt_rate: 1.0,
                corrupt_scale: 1e9,
                faulty_attempts: u32::MAX,
            });
            spec.reputation = Some(ReputationSpec::standard());
            let id = service.admit(spec).unwrap();
            for _ in 0..20 {
                let _ = service.run_round(id);
            }
            service.close(id).unwrap()
        };
        let history = run();
        assert!(
            history.rounds.iter().any(|r| matches!(
                r.outcome,
                Ok(ref s) if s.quarantined > 0
            ) || matches!(
                r.outcome,
                Err(FlError::AllUpdatesQuarantined { .. })
            )),
            "corruption at rate 1.0 must trip quarantines"
        );
        let first_empty = history
            .rounds
            .iter()
            .position(|r| matches!(r.outcome, Err(FlError::AllBiddersExcluded { .. })))
            .expect("with every update corrupt, reputation must eventually exclude all four");
        assert_eq!(
            history.rounds[first_empty].outcome,
            Err(FlError::AllBiddersExcluded { excluded: 4 }),
            "the whole four-node book was dropped"
        );
        // Exclusion is sticky within this configuration: every later round fails the
        // same way, typed — the job never panics and the service keeps serving it.
        for record in &history.rounds[first_empty..] {
            assert!(
                matches!(
                    record.outcome,
                    Err(FlError::AllBiddersExcluded { excluded: 4 })
                ),
                "round {}: {:?}",
                record.round,
                record.outcome
            );
        }
        assert!(crate::faults::WatchdogSpec::retryable(
            &FlError::AllBiddersExcluded { excluded: 4 }
        ));
        // The collapse is replayable bit-for-bit.
        assert_eq!(history, run());
    }

    #[test]
    fn run_pending_records_failures_and_keeps_draining() {
        let service = AuctionService::with_engine(ServiceConfig::default(), RoundEngine::inline());
        let mut spec = toy_spec("flaky", 11);
        spec.work = Some(Arc::new(|round, _slot, _winner| {
            assert!(round != 1, "round one always dies");
            2.0
        }));
        let id = service.admit(spec).unwrap();
        service.request_round(id).unwrap();
        service.request_round(id).unwrap();
        assert_eq!(service.run_pending(id).unwrap(), 2);
        let history = service.close(id).unwrap();
        assert_eq!(history.rounds.len(), 2);
        assert_eq!(history.failed(), 1);
        assert_eq!(history.completed(), 1);
        assert!(matches!(
            history.rounds[0].outcome,
            Err(FlError::JobPanic(_))
        ));
        assert!(history.rounds[1].outcome.is_ok());
    }

    /// A hostile `shard_size` (nothing validates it at admission) must mean "one shard",
    /// not a `capacity overflow` panic sizing the shard store on the control thread.
    #[test]
    fn oversized_shard_size_runs_one_shard_instead_of_overflowing() {
        use crate::engine::auction_select_streamed;
        let run = |shard_size: usize| {
            let service =
                AuctionService::with_engine(ServiceConfig::default(), RoundEngine::inline());
            let mut spec = toy_spec("hostile-shard", 31);
            spec.population = 100;
            spec.shard_size = shard_size;
            let id = service.admit(spec).unwrap();
            service.run_round(id).unwrap()
        };
        let whole = run(100);
        assert_eq!(whole.offered, 100);
        assert_eq!(run(usize::MAX), whole);

        // And through the direct call, on a pooled engine.
        let source = toy_source();
        let stage = auction_select_streamed(
            &toy_auction(8),
            100,
            usize::MAX,
            4,
            &RoundEngine::pooled(2),
            Arc::new(
                move |range: std::ops::Range<usize>, store: &mut fmore_auction::BidStore| {
                    source(range, 1, store)
                },
            ),
            &mut fmore_numerics::seeded_rng(5),
            |award| crate::metrics::WinnerInfo {
                client: award.node.0 as usize,
                node: award.node,
                data_size: 1,
                categories: 1,
                score: award.score,
                payment: award.payment,
            },
        )
        .unwrap();
        assert_eq!(stage.offered, 100);
        assert_eq!(stage.winners.len(), 8);
    }
}
