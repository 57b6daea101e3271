//! The reusable round engine: a persistent worker pool plus the composable stages of
//! Algorithm 1.
//!
//! Every round of federated learning — whether driven by [`crate::trainer::FederatedTrainer`],
//! by the MEC cluster simulator, or by an experiment sweep — is the same pipeline:
//!
//! ```text
//!    bid collection    ──    auction    ── local training ──     aggregation     ── evaluation
//! (collect_adopted_bids) (auction_select) (local_training) (aggregate_with_rule)  (trainer)
//! ```
//!
//! Winner determination has one implementation, the streamed selector of
//! [`auction_select_streamed`]: a population streamed in shards (the service, the scale
//! path) and a bid list a driver already holds ([`auction_select`] /
//! [`auction_select_standing`], one in-memory shard) go through the same ranking, selection
//! and pricing. [`Auction::run`] is the full-sort reference the tests compare it against.
//!
//! This module holds the shared implementation of each stage and the execution substrate
//! they run on: the [`WorkerPool`] of [`crate::executor`] — one shared FIFO queue of task
//! chunks, drained by its workers and by the submitting thread — is created once, reused
//! across rounds (and across trainers, via [`shared_pool`]), and collects results into
//! slots indexed by submission order — deterministic by construction, no per-round thread
//! churn.
//!
//! Parallelism never affects results: a training job owns its slot's reusable model instance
//! and scratch arena ([`SlotState`]), a shared snapshot of the global parameters, its sample
//! indices, and a seed derived from `(run seed, round, client)`, so the outcome of a round
//! is a pure function of the submitted jobs regardless of worker count or execution mode.
//! The determinism tests in `tests/determinism.rs` pin this property for every selection
//! scheme at pool sizes 1 and N.
//!
//! Slot states are the allocation-free backbone of the training stage: instead of cloning
//! the global model (and allocating fresh activations) per client per round, each winner
//! slot keeps one model + arena for the life of the trainer, re-pointed at the new global
//! parameters each round; see `crates/README.md` ("The allocation-free hot path").

use crate::aggregator::{AggregationRule, AggregationScratch, ScreenedAggregation};
use crate::client::EdgeClient;
use crate::error::FlError;
use crate::metrics::WinnerInfo;
use fmore_auction::mechanism::Award;
use fmore_auction::{
    Auction, AuctionError, BidSelector, BidStore, EquilibriumSolver, SelectionRule, ShardSelection,
    StandingPool, SubmittedBid,
};
use fmore_ml::arena::ScratchArena;
use fmore_ml::dataset::Dataset;
use fmore_ml::model::{Model, Sequential};
use fmore_numerics::seeded_rng;
use rand::Rng;
use std::sync::{Arc, OnceLock};

pub use crate::executor::{JobPanic, Task, WorkerPool};

/// The process-wide shared pool: created on first use, reused by every trainer, cluster, and
/// scenario runner that does not bring its own pool. Worker threads are started exactly once
/// per process instead of once per round.
pub fn shared_pool() -> Arc<WorkerPool> {
    static SHARED: OnceLock<Arc<WorkerPool>> = OnceLock::new();
    SHARED.get_or_init(|| Arc::new(WorkerPool::new(0))).clone()
}

/// How a round's parallel work is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Sequential execution on the calling thread.
    Inline,
    /// Reused worker threads from a persistent [`WorkerPool`].
    Pooled,
}

/// The execution substrate of one round pipeline: the pool the work is submitted to, or
/// none for inline execution on the calling thread.
#[derive(Debug, Clone)]
pub struct RoundEngine {
    pool: Option<Arc<WorkerPool>>,
}

impl Default for RoundEngine {
    /// The default engine runs on the process-wide [`shared_pool`].
    fn default() -> Self {
        Self::with_pool(shared_pool())
    }
}

impl RoundEngine {
    /// An engine executing tasks sequentially on the calling thread.
    pub fn inline() -> Self {
        Self { pool: None }
    }

    /// An engine owning a fresh pool with `threads` workers (`0` means `default_threads`).
    pub fn pooled(threads: usize) -> Self {
        Self::with_pool(Arc::new(WorkerPool::new(threads)))
    }

    /// An engine submitting to an existing (possibly shared) pool.
    pub fn with_pool(pool: Arc<WorkerPool>) -> Self {
        Self { pool: Some(pool) }
    }

    /// The engine's execution mode.
    pub fn mode(&self) -> ExecutionMode {
        match self.pool {
            Some(_) => ExecutionMode::Pooled,
            None => ExecutionMode::Inline,
        }
    }

    /// The pool backing a [`ExecutionMode::Pooled`] engine.
    pub fn pool(&self) -> Option<&Arc<WorkerPool>> {
        self.pool.as_ref()
    }

    /// How many tasks this engine can usefully keep in flight at once — the wave width of
    /// the streaming bid-collection stage (1 for inline execution, the pool width for
    /// pooled engines). Bounding in-flight shards by this keeps the stage's transient
    /// memory at `O(width · shard)` instead of `O(N)`.
    pub fn parallel_width(&self) -> usize {
        self.pool.as_ref().map_or(1, |pool| pool.threads().max(1))
    }

    /// Runs the tasks under the configured mode, returning each slot's fate **in submission
    /// order** in every mode: `Ok` with the task's value, or the [`JobPanic`] marker of a
    /// task that panicked. Panics never propagate, never kill pool workers, and never mask
    /// sibling results — routed through [`WorkerPool::run_indexed_checked`] on pooled
    /// engines.
    pub(crate) fn run_tasks_checked<T: Send + 'static>(
        &self,
        tasks: Vec<Task<T>>,
    ) -> Vec<Result<T, JobPanic>> {
        match &self.pool {
            Some(pool) => pool.run_indexed_checked(tasks),
            None => crate::executor::run_inline(tasks),
        }
    }

    /// Runs the tasks checked and returns all results, or the **first** panic as a typed
    /// [`FlError::JobPanic`] — the error-not-panic entry point of every service-facing
    /// fan-out. Sibling tasks still run to completion before the error is returned (the
    /// executor delivers every healthy slot), so a poisoned round never leaves stray work
    /// behind on the pool.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::JobPanic`] naming the first panicked slot.
    pub(crate) fn try_run_tasks<T: Send + 'static>(
        &self,
        tasks: Vec<Task<T>>,
    ) -> Result<Vec<T>, FlError> {
        self.run_tasks_checked(tasks)
            .into_iter()
            .map(|slot| slot.map_err(FlError::from))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Stage 1–2: bid collection.
// ---------------------------------------------------------------------------

/// Collects the sealed bid of every client (step 2 of Algorithm 1) from the equilibrium
/// strategy each adopted when the scoring rule was broadcast
/// (`EdgeClient::adopt_strategy`): every bid is that strategy capped to the client's
/// resources this round. No solver takes part, so a round of bid collection costs two small
/// vectors per client and cannot disagree with the rule the clients were given.
///
/// # Errors
///
/// Returns [`FlError::InvalidConfig`] if a client never adopted a strategy.
pub fn collect_adopted_bids(
    clients: &[EdgeClient],
    max_data_size: f64,
    num_classes: usize,
) -> Result<Vec<SubmittedBid>, FlError> {
    let mut bids = Vec::with_capacity(clients.len());
    for client in clients {
        bids.push(client.make_bid(max_data_size, num_classes)?);
    }
    Ok(bids)
}

/// Steps 1–2 of Algorithm 1 in one call, for a driver that meets these clients once:
/// broadcast `solver`'s rule and collect every client's capacity-capped equilibrium bid,
/// solving each θ against `solver` on the spot ([`EquilibriumSolver::capped_bid`]). Whatever
/// strategies the clients hold are neither read nor changed. A driver that keeps its clients
/// across rounds has them adopt once and calls [`collect_adopted_bids`] per round instead —
/// same bids bit for bit, without the per-round solve.
///
/// # Errors
///
/// Returns [`FlError::Auction`] if a client's θ lies outside the solver's support.
pub fn collect_bids(
    clients: &[EdgeClient],
    solver: &EquilibriumSolver,
    max_data_size: f64,
    num_classes: usize,
) -> Result<Vec<SubmittedBid>, FlError> {
    let mut bids = Vec::with_capacity(clients.len());
    for client in clients {
        let capacity = client.resource_quality(max_data_size, num_classes);
        bids.push(solver.capped_bid(client.id(), client.theta(), capacity.as_slice())?);
    }
    Ok(bids)
}

// ---------------------------------------------------------------------------
// Stage 3: winner determination.
// ---------------------------------------------------------------------------

/// [`auction_select_standing`] without the pool: the winners, and every score of the round
/// in rank order (read off the standing pool, which holds the whole population).
///
/// # Errors
///
/// As for [`auction_select_standing`].
pub fn auction_select<R, F>(
    auction: &Auction,
    bids: Vec<SubmittedBid>,
    rng: &mut R,
    map_award: F,
) -> Result<(Vec<WinnerInfo>, Vec<f64>), AuctionError>
where
    R: Rng + ?Sized,
    F: FnMut(&Award) -> WinnerInfo,
{
    let stage = auction_select_standing(auction, bids, rng, map_award)?;
    let all_scores = stage
        .standing
        .candidates()
        .iter()
        .map(|c| c.score)
        .collect();
    Ok((stage.winners, all_scores))
}

/// Winner determination over bids the caller already holds (step 3 of Algorithm 1), through
/// the streamed selector of [`auction_select_streamed`]: the list is one in-memory shard on
/// the inline engine, and the reserve is the whole list, so the returned standing pool is
/// the round's full ranked population — what a dynamic round refills from with
/// [`Auction::award_standing`] without a fresh bid-collection phase.
///
/// The caller supplies `map_award` because the trainer and the MEC cluster attach different
/// data to a win (declared data size vs node resource fraction). Winners, payments, scores,
/// the RNG position and the error of a malformed round are those of the full-sort
/// reference [`Auction::run`] over the same bids.
///
/// # Errors
///
/// [`AuctionError::InvalidGame`] for `K = 0` or an invalid ψ (checked first), then the
/// first malformed bid's error, then [`AuctionError::NoBids`] for an empty list.
pub fn auction_select_standing<R, F>(
    auction: &Auction,
    bids: Vec<SubmittedBid>,
    rng: &mut R,
    map_award: F,
) -> Result<StreamedAuction, AuctionError>
where
    R: Rng + ?Sized,
    F: FnMut(&Award) -> WinnerInfo,
{
    let n = bids.len();
    let fill = Arc::new(move |range: std::ops::Range<usize>, store: &mut BidStore| {
        bids[range]
            .iter()
            .try_for_each(|bid| store.push(bid.node, bid.quality.as_slice(), bid.ask))
    });
    let engine = RoundEngine::inline();
    auction_select_streamed(auction, n, n, n, &engine, fill, rng, map_award).map_err(|err| {
        match err {
            FlError::Auction(err) => err,
            // The fill only pushes, so no task can panic; keep the error typed regardless.
            other => AuctionError::InvalidParameter(other.to_string()),
        }
    })
}

// ---------------------------------------------------------------------------
// Stage 1–3, population scale: streamed bid collection + bounded selection.
// ---------------------------------------------------------------------------

/// The result of the winner-determination stage: winners plus the bounded standing store
/// (the whole ranked population only when the caller's reserve covers it, as
/// [`auction_select_standing`]'s does).
#[derive(Debug, Clone)]
pub struct StreamedAuction {
    /// The mapped winners, in selection order.
    pub winners: Vec<WinnerInfo>,
    /// Number of bids streamed through the selector.
    pub offered: usize,
    /// The bounded standing store (best `K + reserve` candidates in rank order, whatever
    /// depth the round's selector ran at), valid for re-auction refills this round via
    /// [`Auction::award_standing`].
    pub standing: StandingPool,
    /// Peak resident bid bytes of the stage, complete: the widest wave of shard stores
    /// plus the selector's kept candidates — and, in a ψ round's replay pass, the first
    /// pass's pool held beside the second selector. Len-based, deterministic, and
    /// `O(width · shard + pool depth)`, never `O(N)` while the pool is shallower than the
    /// population.
    pub peak_bid_bytes: usize,
}

/// The winner-determination stage of every production round: streams a bidder population
/// through the engine **in shards** instead of collecting an all-bids `Vec`
/// ([`auction_select_standing`] hands it a held list as one shard).
///
/// `fill` is called once per shard — on a worker thread for pooled engines — with the
/// shard's index range and a reusable columnar [`BidStore`] to push sealed bids into
/// (absent or ineligible indices are simply skipped). Each wave of shards then runs two
/// parallel stages: **fill + batch-score** (the monomorphized
/// `ScoringFunction::score_batch` sweep over the store's SoA columns), and — once the
/// round salt exists — a **floor-carried scan per shard**
/// ([`fmore_auction::ShardSelection::select_above`]). The selector's admission floor (its
/// weakest kept `(score, key)`) is snapshotted once per wave, after the previous wave was
/// absorbed, and every shard task of the wave scans against that snapshot: a bid below it
/// is rejected on its score alone, and only the few that rank before it come back to the
/// control thread, which merges them into the bounded selector in population order. Over
/// a random-order stream that is ≈ `depth · ln(N / depth)` candidates a round rather than
/// `depth` per shard. The result does not depend on how stale a
/// snapshot is: the floor only rises, so an older one merely lets extra survivors through
/// for the merge to drop; the best dropped score is a max over everything outside the
/// final pool, however it was folded; and tie-break keys depend only on a bid's global
/// stream position. Winners, payments, keys and RNG draws are therefore the same at every
/// shard size and engine width. At most
/// [`RoundEngine::parallel_width`] shard stores exist at any moment and they are recycled
/// across waves, so the stage's transient memory is `O(width · shard + depth)` regardless
/// of the population size.
///
/// Winner sets are **bit-identical** to the full-sort reference [`Auction::run`] over the
/// same bids for **every** selection rule at any `reserve`, and the population is streamed
/// **once**. The selector
/// runs `max(K + reserve, min(reach(K) + 1, population))` candidates deep
/// ([`SelectionRule::reach`]: a function of the rule and `K`, not a setting — `K + reserve`
/// for top-K at any positive reserve, and for ψ-FMore whenever the caller's reserve already
/// covers the walk). Top-K reads its winners straight off the pool head. ψ-FMore plans its
/// admission walk over ranks alone ([`Auction::plan_admission`], the RNG draws of the
/// full-width walk) and reads every admitted rank, and the pricing boundary, off the pool,
/// whose order is the global rank order. Either way the returned pool is cut back to
/// `K + reserve` ([`StandingPool::truncate`]): the pool, and the best dropped score, a
/// selector of exactly that depth produces. The one round in millions whose walk goes past
/// its reach all the same is resolved exactly by a **replay pass**: fills are pure
/// functions of their range, so the shards are streamed again, through the same wave loop,
/// into a [`BidSelector::replay`] selector as deep as the deepest admitted rank — the same
/// salt, hence the same keys and ranking, and no RNG. Winners materialise through the
/// caller's `map_award`: nothing beyond the `K` awards ever becomes a full client object. A
/// `shard_size` beyond the population means one shard.
///
/// # Errors
///
/// Propagates malformed-bid and invalid-game failures as [`FlError::Auction`]
/// ([`AuctionError::NoBids`] when the population streamed zero bids), and surfaces a
/// panicking fill/scoring/selection task as [`FlError::JobPanic`] — the round fails, the
/// process and every sibling job's wave survive.
#[allow(clippy::too_many_arguments)]
pub fn auction_select_streamed<R, F, G>(
    auction: &Auction,
    population: usize,
    shard_size: usize,
    reserve: usize,
    engine: &RoundEngine,
    fill: Arc<G>,
    rng: &mut R,
    map_award: F,
) -> Result<StreamedAuction, FlError>
where
    R: Rng + ?Sized,
    G: Fn(std::ops::Range<usize>, &mut BidStore) -> Result<(), AuctionError>
        + Send
        + Sync
        + ?Sized
        + 'static,
    F: FnMut(&Award) -> WinnerInfo,
{
    let k = auction.winners_per_round();
    let reach = auction.selection_rule().reach(k);
    let depth = k
        .saturating_add(reserve)
        .max(reach.saturating_add(1).min(population));
    select_streamed_at(
        depth, auction, population, shard_size, reserve, engine, fill, rng, map_award,
    )
}

/// [`auction_select_streamed`] with the first pass's selector `depth` candidates deep
/// (at least `K + reserve`). The depth changes nothing the caller can see but
/// `peak_bid_bytes` and whether the replay pass runs — which is why it is an argument
/// here, where the tests reach it, and not a setting.
#[allow(clippy::too_many_arguments)]
fn select_streamed_at<R, F, G>(
    depth: usize,
    auction: &Auction,
    population: usize,
    shard_size: usize,
    reserve: usize,
    engine: &RoundEngine,
    fill: Arc<G>,
    rng: &mut R,
    mut map_award: F,
) -> Result<StreamedAuction, FlError>
where
    R: Rng + ?Sized,
    G: Fn(std::ops::Range<usize>, &mut BidStore) -> Result<(), AuctionError>
        + Send
        + Sync
        + ?Sized
        + 'static,
    F: FnMut(&Award) -> WinnerInfo,
{
    let k = auction.winners_per_round();
    if k == 0 || !auction.selection_rule().is_valid() {
        return Err(AuctionError::InvalidGame { n: population, k }.into());
    }
    let dims = auction.scoring_rule().dims();
    let shard_size = shard_size.max(1);
    let mut stream = ShardStream {
        auction,
        engine,
        fill,
        shards: (0..population)
            .step_by(shard_size)
            .map(|lo| lo..lo.saturating_add(shard_size).min(population))
            .collect(),
        // A shard never holds more than the population, whatever the caller asked for.
        store_bids: shard_size.min(population),
        free: Vec::new(),
        salt: None,
        peak_bid_bytes: 0,
    };
    let mut selector = BidSelector::new(dims, depth);
    stream.run(&mut selector, Some(&mut *rng), 0)?;
    let pool_bytes = selector.resident_bytes();
    let mut standing = selector.finish(rng);
    if standing.offered() == 0 {
        return Err(AuctionError::NoBids.into());
    }
    let awards: Vec<Award> = match auction.selection_rule() {
        // Top-K: winners are the head of the bounded pool; pricing looks one rank past it.
        SelectionRule::TopK => auction.award_standing(&standing, k, &[], rng),
        // ψ-FMore: plan the admission walk over ranks alone (exactly the RNG draws the
        // full-width walk makes), then read the admitted ranks and the pricing boundary
        // off a pool in global rank order.
        SelectionRule::PsiFMore { .. } => {
            let plan = auction.plan_admission(standing.offered(), k, rng);
            let deepest = plan
                .picked
                .iter()
                .copied()
                .chain(plan.price_rank)
                .max()
                .expect("k >= 1 admits at least one rank");
            let replayed;
            let ranked = if deepest < standing.len() {
                standing.candidates()
            } else {
                // The walk went past the pool: stream the shards again, under the salt
                // the first pass drew, into a selector that reaches the deepest rank.
                let salt = stream
                    .salt
                    .expect("a rank past the pool implies >= 2 offered bids, so the salt exists");
                let mut deeper = BidSelector::replay(dims, deepest + 1, salt);
                stream.run(&mut deeper, None::<&mut R>, pool_bytes)?;
                debug_assert_eq!(deeper.offered(), standing.offered(), "a fill is not pure");
                replayed = deeper.into_pool();
                replayed.candidates()
            };
            let best_losing = plan.price_rank.map(|r| ranked[r].score);
            plan.picked
                .iter()
                .map(|&r| auction.award_candidate(&ranked[r], best_losing))
                .collect()
        }
    };
    standing.truncate(k.saturating_add(reserve));
    let winners = awards.iter().map(&mut map_award).collect();
    Ok(StreamedAuction {
        winners,
        offered: standing.offered(),
        standing,
        peak_bid_bytes: stream.peak_bid_bytes,
    })
}

/// One round's shard stream: the wave loop of [`auction_select_streamed`] — fill + score,
/// floor-carried scan, merge in population order — written once, for the round's first
/// pass and for a ψ round's replay pass alike. Shard stores are recycled across waves and
/// passes.
struct ShardStream<'a, G: ?Sized> {
    auction: &'a Auction,
    engine: &'a RoundEngine,
    fill: Arc<G>,
    shards: Vec<std::ops::Range<usize>>,
    /// Bids a fresh shard store is sized for.
    store_bids: usize,
    free: Vec<BidStore>,
    /// The round salt, from the wave of the first pass that drew it.
    salt: Option<u64>,
    peak_bid_bytes: usize,
}

impl<'a, G> ShardStream<'a, G>
where
    G: Fn(std::ops::Range<usize>, &mut BidStore) -> Result<(), AuctionError>
        + Send
        + Sync
        + ?Sized
        + 'static,
{
    /// Streams every shard through `selector`, in population order. The first pass hands
    /// in the round RNG, which pays for the salt (and for the keys of a stream too short
    /// to need one); a replay pass hands in `None` and a selector that already knows the
    /// salt. `held_bytes` is what the caller keeps resident beside the selector meanwhile.
    fn run<R: Rng + ?Sized>(
        &mut self,
        selector: &mut BidSelector,
        mut rng: Option<&mut R>,
        held_bytes: usize,
    ) -> Result<(), FlError> {
        let dims = self.auction.scoring_rule().dims();
        for wave in self.shards.chunks(self.engine.parallel_width().max(1)) {
            // Stage 1: fill + batch-score each shard of the wave on the pool. A fill may
            // omit what scores below the best dropped score so far: such a bid could
            // neither enter the pool nor raise that score (the first wave has none).
            let omit_bound = selector.best_dropped_score();
            let tasks: Vec<Task<Result<BidStore, AuctionError>>> = wave
                .iter()
                .map(|range| {
                    let mut store = self
                        .free
                        .pop()
                        .unwrap_or_else(|| BidStore::with_capacity(dims, self.store_bids));
                    store.clear();
                    store.set_omit_bound(omit_bound);
                    let fill = Arc::clone(&self.fill);
                    let rule = self.auction.scoring_rule().clone();
                    let range = range.clone();
                    Box::new(move || {
                        fill(range, &mut store)?;
                        store.score_with(&rule)?;
                        Ok(store)
                    }) as Task<Result<BidStore, AuctionError>>
                })
                .collect();
            let stores = self
                .engine
                .try_run_tasks(tasks)?
                .into_iter()
                .collect::<Result<Vec<BidStore>, AuctionError>>()?;
            let wave_bytes: usize = stores.iter().map(BidStore::resident_bytes).sum();
            // The round salt is drawn as soon as two bids are guaranteed; from then on
            // tie-break keys are pure functions of (salt, global position) and can be
            // computed on worker threads.
            let wave_total: usize = stores.iter().map(BidStore::offered).sum();
            if let Some(rng) = rng.as_deref_mut() {
                if self.salt.is_none() && selector.offered() + wave_total >= 2 {
                    self.salt = Some(selector.force_salt(rng));
                }
            }
            // Stage 2: scan each shard on the pool for the bids that rank before the
            // selector's admission floor as of the previous wave, then merge the few
            // survivors in population order — the only serial part of the wave.
            match selector.admission_floor() {
                Some(admission) => {
                    let mut base = selector.offered();
                    let tasks: Vec<Task<(BidStore, ShardSelection)>> = stores
                        .into_iter()
                        .map(|store| {
                            let shard_base = base;
                            base += store.offered();
                            Box::new(move || {
                                let selection =
                                    ShardSelection::select_above(&store, shard_base, admission);
                                (store, selection)
                            }) as Task<(BidStore, ShardSelection)>
                        })
                        .collect();
                    for (store, selection) in self.engine.try_run_tasks(tasks)? {
                        selector.absorb(selection);
                        self.free.push(store);
                    }
                }
                // At most one bid streamed so far: the sequential path, which draws nothing
                // from the round RNG (matching the dense single-bid contract).
                None => {
                    let rng = rng
                        .as_deref_mut()
                        .expect("a replay selector knows its salt from the start");
                    for store in stores {
                        selector.offer_store(&store, rng);
                        self.free.push(store);
                    }
                }
            }
            self.peak_bid_bytes = self
                .peak_bid_bytes
                .max(wave_bytes + selector.resident_bytes() + held_bytes);
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Stage 3b (dynamic rounds): the deadline gate.
// ---------------------------------------------------------------------------

/// The simulated fate of one assigned winner in a dynamic round, produced by the caller's
/// churn and time models *before* any training work is scheduled.
#[derive(Debug, Clone, PartialEq)]
pub struct ParticipantTiming {
    /// Position in the round's winner list.
    pub slot: usize,
    /// Simulated seconds until this winner's update reaches the server
    /// ([`f64::INFINITY`] for a dropout, which never delivers).
    pub completion_secs: f64,
    /// Whether a straggler event slowed this winner this round.
    pub straggler: bool,
    /// Whether the winner vanished mid-round.
    pub dropped_out: bool,
}

/// The deadline partition of one wave of assigned winners.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeadlineVerdict {
    /// Slots whose update arrived within the deadline, in slot order.
    pub survivors: Vec<usize>,
    /// Slots that delivered late (excluded from aggregation, payment honoured).
    pub missed: Vec<usize>,
    /// Slots that vanished mid-round (no update, payment forfeited).
    pub dropouts: Vec<usize>,
    /// Simulated seconds the server spent on this wave: the slowest on-time delivery, or the
    /// full deadline when anyone failed to deliver on time (a synchronous server cannot know
    /// a straggler is late until the deadline expires).
    pub wave_secs: f64,
}

/// Applies the server deadline to one wave of assigned winners (the deadline-aware stage of
/// a dynamic round): on-time winners survive into aggregation, late winners and dropouts are
/// excluded, and the wave's simulated duration is the slowest on-time delivery — or the full
/// deadline whenever any assigned winner failed to deliver in time.
///
/// Monotone in the deadline: a larger deadline never shrinks the survivor set and never
/// shortens the wave (pinned by the property suite).
pub fn apply_deadline(timings: &[ParticipantTiming], deadline_secs: f64) -> DeadlineVerdict {
    let mut verdict = DeadlineVerdict::default();
    let mut slowest_on_time: f64 = 0.0;
    for t in timings {
        if t.dropped_out {
            verdict.dropouts.push(t.slot);
        } else if t.completion_secs <= deadline_secs {
            verdict.survivors.push(t.slot);
            slowest_on_time = slowest_on_time.max(t.completion_secs);
        } else {
            verdict.missed.push(t.slot);
        }
    }
    verdict.wave_secs = if verdict.missed.is_empty() && verdict.dropouts.is_empty() {
        slowest_on_time
    } else {
        deadline_secs
    };
    verdict
}

// ---------------------------------------------------------------------------
// Stage 4: local training.
// ---------------------------------------------------------------------------

/// Reusable per-slot training state: one model instance, one scratch arena, and the
/// parameter/index buffers a slot's jobs cycle through.
///
/// The driver (e.g. `FederatedTrainer`) owns one `SlotState` per winner slot and lends it to
/// that slot's [`TrainingJob`] each round; the job returns it together with the update. The
/// model is re-pointed at the round's global parameters with
/// [`fmore_ml::model::Model::apply_parameters`] and its dropout stream is reset, so reusing
/// the instance is bit-identical to the old clone-the-global-every-round path — but without
/// re-allocating the model, its layer caches, or any training scratch.
#[derive(Debug, Clone)]
pub struct SlotState {
    /// The slot's persistent model instance (same architecture as the global model).
    pub model: Sequential,
    /// The slot's training scratch arena (activations, gradients, batch buffers).
    pub arena: ScratchArena,
    /// Reusable parameter export buffer (cycled through [`LocalUpdate::parameters`]).
    pub params: Vec<f64>,
    /// Reusable buffer holding the sample indices this slot trains on this round.
    pub indices: Vec<usize>,
}

impl SlotState {
    /// Creates a slot around a model instance (typically a one-time clone of the global
    /// model); all buffers start empty and are sized by the first round.
    pub fn new(model: Sequential) -> Self {
        Self {
            model,
            arena: ScratchArena::new(),
            params: Vec::new(),
            indices: Vec::new(),
        }
    }
}

/// One client's local-training work item: fully self-contained (slot-local model + scratch,
/// shared global parameters and dataset handle, derived seed), so it can run on any thread
/// without touching trainer state.
#[derive(Debug, Clone)]
pub struct TrainingJob {
    /// Position of this job in the round's winner list; results are returned in slot order.
    pub slot: usize,
    /// Index of the client in the trainer's client list.
    pub client: usize,
    /// Slot-local reusable state; `state.indices` holds the samples to train on. Returned
    /// to the driver alongside the update.
    pub state: SlotState,
    /// The global model parameters at the start of the round (shared snapshot).
    pub global_params: Arc<Vec<f64>>,
    /// The shared training pool.
    pub data: Arc<Dataset>,
    /// Local SGD epochs.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Seed of this job's private RNG, derived from `(run seed, round, client)`.
    pub seed: u64,
}

/// The result of one [`TrainingJob`].
#[derive(Debug, Clone, PartialEq)]
pub struct LocalUpdate {
    /// Slot of the job that produced this update.
    pub slot: usize,
    /// Index of the client that trained.
    pub client: usize,
    /// The locally trained model parameters (the slot's cycling buffer; drivers hand it
    /// back to the slot after aggregation so steady-state rounds allocate nothing).
    pub parameters: Vec<f64>,
    /// FedAvg weight `D_i` — the number of samples trained on (Eq. 3).
    pub weight: f64,
}

impl TrainingJob {
    /// Runs the local SGD epochs and returns the update together with the slot state for
    /// the driver to reclaim.
    pub(crate) fn run(mut self) -> (LocalUpdate, SlotState) {
        let mut rng = seeded_rng(self.seed);
        let state = &mut self.state;
        state.model.apply_parameters(&self.global_params);
        state.model.reset_scratch_rng();
        for _ in 0..self.epochs {
            state.model.train_epoch_in(
                &mut state.arena,
                &self.data,
                &state.indices,
                self.learning_rate,
                self.batch_size,
                &mut rng,
            );
        }
        state.model.parameters_into(&mut state.params);
        let update = LocalUpdate {
            slot: self.slot,
            client: self.client,
            parameters: std::mem::take(&mut state.params),
            weight: state.indices.len() as f64,
        };
        (update, self.state)
    }
}

/// How the local-training stage dispatches work: one task per winner. Kept, with its one
/// variant, only because `benchmark/src/workloads.rs` names it in a `SoakConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FanOutGranularity {
    /// One indivisible task per winner.
    #[default]
    PerWinner,
}

/// Trains every job on the engine (steps 4–5 of Algorithm 1), returning updates and their
/// reclaimed slot states in slot order regardless of execution mode or completion order.
///
/// # Errors
///
/// Returns [`FlError::JobPanic`] when a training task panics — attributed to this round,
/// with every sibling update still trained (the checked executor delivers healthy slots
/// before the error surfaces).
pub fn local_training(
    engine: &RoundEngine,
    jobs: Vec<TrainingJob>,
) -> Result<Vec<(LocalUpdate, SlotState)>, FlError> {
    let tasks: Vec<Task<(LocalUpdate, SlotState)>> = jobs
        .into_iter()
        .map(|job| Box::new(move || job.run()) as Task<(LocalUpdate, SlotState)>)
        .collect();
    engine.try_run_tasks(tasks)
}

// ---------------------------------------------------------------------------
// Stage 5: aggregation.
// ---------------------------------------------------------------------------

/// Aggregates local updates into new global parameters (step 6 of Algorithm 1) through a
/// pluggable [`AggregationRule`] — [`crate::aggregator::FedAvg`] is the paper's Eq. 3 —
/// reusing `scratch` so the rule's internals allocate nothing in steady state. Returns
/// the screening verdict; `out` holds the new global parameters when anything was
/// accepted.
///
/// # Errors
///
/// Whatever the rule reports — e.g. [`FlError::AllUpdatesQuarantined`] when screening
/// rejected every update.
pub fn aggregate_with_rule(
    rule: &dyn AggregationRule,
    updates: &[LocalUpdate],
    scratch: &mut AggregationScratch,
    out: &mut Vec<f64>,
) -> Result<ScreenedAggregation, FlError> {
    let borrowed: Vec<(&[f64], f64)> = updates
        .iter()
        .map(|u| (u.parameters.as_slice(), u.weight))
        .collect();
    rule.aggregate_with(&borrowed, out, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_preserves_submission_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<Task<usize>> = (0..64usize)
            .map(|i| {
                Box::new(move || {
                    // Stagger so completion order differs from submission order.
                    if i % 7 == 0 {
                        std::thread::sleep(std::time::Duration::from_micros(200));
                    }
                    i * 2
                }) as Task<usize>
            })
            .collect();
        let results = pool.run_indexed(tasks);
        assert_eq!(results, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn pool_size_one_and_inline_agree() {
        let pool = WorkerPool::new(1);
        let make = || -> Vec<Task<u64>> {
            (0..16)
                .map(|i| Box::new(move || i as u64 * i as u64) as Task<u64>)
                .collect()
        };
        let pooled = pool.run_indexed(make());
        let inline: Vec<u64> = make().into_iter().map(|t| t()).collect();
        assert_eq!(pooled, inline);
    }

    #[test]
    fn nested_fanout_runs_inline_without_deadlock() {
        let pool = Arc::new(WorkerPool::new(2));
        let outer: Vec<Task<Vec<usize>>> = (0..4usize)
            .map(|i| {
                let pool = Arc::clone(&pool);
                Box::new(move || {
                    let inner: Vec<Task<usize>> = (0..8usize)
                        .map(|j| Box::new(move || i * 100 + j) as Task<usize>)
                        .collect();
                    pool.run_indexed(inner)
                }) as Task<Vec<usize>>
            })
            .collect();
        let results = pool.run_indexed(outer);
        for (i, row) in results.iter().enumerate() {
            assert_eq!(*row, (0..8).map(|j| i * 100 + j).collect::<Vec<_>>());
        }
    }

    #[test]
    fn engine_modes_agree_on_results() {
        let make = || -> Vec<Task<i64>> {
            (0..12)
                .map(|i| Box::new(move || (i as i64 - 6) * 3) as Task<i64>)
                .collect()
        };
        let run = |engine: RoundEngine| engine.try_run_tasks(make()).unwrap();
        let inline = run(RoundEngine::inline());
        let pooled = run(RoundEngine::pooled(3));
        let shared = run(RoundEngine::default());
        assert_eq!(inline, pooled);
        assert_eq!(inline, shared);
    }

    #[test]
    fn engine_exposes_mode_and_pool() {
        assert_eq!(RoundEngine::inline().mode(), ExecutionMode::Inline);
        assert!(RoundEngine::inline().pool().is_none());
        let engine = RoundEngine::pooled(2);
        assert_eq!(engine.mode(), ExecutionMode::Pooled);
        assert_eq!(engine.pool().unwrap().threads(), 2);
        assert!(WorkerPool::new(0).threads() >= 1);
    }

    #[test]
    fn shared_pool_is_a_singleton() {
        assert!(Arc::ptr_eq(&shared_pool(), &shared_pool()));
    }

    fn timing(slot: usize, secs: f64, straggler: bool, dropped: bool) -> ParticipantTiming {
        ParticipantTiming {
            slot,
            completion_secs: secs,
            straggler,
            dropped_out: dropped,
        }
    }

    #[test]
    fn deadline_partitions_survivors_late_and_dropouts() {
        let timings = vec![
            timing(0, 10.0, false, false),
            timing(1, 25.0, true, false),
            timing(2, f64::INFINITY, false, true),
            timing(3, 5.0, false, false),
        ];
        let verdict = apply_deadline(&timings, 20.0);
        assert_eq!(verdict.survivors, vec![0, 3]);
        assert_eq!(verdict.missed, vec![1]);
        assert_eq!(verdict.dropouts, vec![2]);
        // Someone failed to deliver: the server waits out the full deadline.
        assert_eq!(verdict.wave_secs, 20.0);
    }

    #[test]
    fn deadline_wave_time_is_slowest_on_time_delivery_when_everyone_delivers() {
        let timings = vec![timing(0, 10.0, false, false), timing(1, 14.5, true, false)];
        let verdict = apply_deadline(&timings, 20.0);
        assert_eq!(verdict.survivors, vec![0, 1]);
        assert!(verdict.missed.is_empty() && verdict.dropouts.is_empty());
        assert_eq!(verdict.wave_secs, 14.5);
        // An empty wave costs nothing.
        assert_eq!(apply_deadline(&[], 20.0), DeadlineVerdict::default());
    }

    #[test]
    fn deadline_gate_is_monotone_in_the_deadline() {
        let timings = vec![
            timing(0, 8.0, false, false),
            timing(1, 18.0, false, false),
            timing(2, 30.0, true, false),
        ];
        let tight = apply_deadline(&timings, 10.0);
        let loose = apply_deadline(&timings, 20.0);
        let looser = apply_deadline(&timings, 40.0);
        assert!(tight.survivors.len() <= loose.survivors.len());
        assert!(loose.survivors.len() <= looser.survivors.len());
        assert!(tight.wave_secs <= loose.wave_secs);
        assert!(loose.wave_secs <= looser.wave_secs);
    }

    fn scale_auction(k: usize) -> Auction {
        use fmore_auction::{Additive, PricingRule, ScoringRule, SelectionRule};
        Auction::new(
            ScoringRule::new(Additive::new(vec![1.0, 1.0]).unwrap()),
            k,
            SelectionRule::TopK,
            PricingRule::FirstPrice,
        )
    }

    fn synthetic_bid(i: usize) -> (fmore_auction::NodeId, [f64; 2], f64) {
        let q = [
            ((i * 7) % 101) as f64 / 101.0,
            ((i * 13) % 97) as f64 / 97.0,
        ];
        let ask = ((i * 3) % 31) as f64 / 100.0;
        (fmore_auction::NodeId(i as u64), q, ask)
    }

    fn winner_info(award: &Award) -> WinnerInfo {
        WinnerInfo {
            client: award.node.0 as usize,
            node: award.node,
            data_size: 1,
            categories: 1,
            score: award.score,
            payment: award.payment,
        }
    }

    fn streamed_winners(
        auction: &Auction,
        n: usize,
        shard: usize,
        engine: &RoundEngine,
        seed: u64,
    ) -> StreamedAuction {
        let fill = Arc::new(move |range: std::ops::Range<usize>, store: &mut BidStore| {
            for i in range {
                let (node, q, ask) = synthetic_bid(i);
                store.push(node, &q, ask)?;
            }
            Ok(())
        });
        auction_select_streamed(
            auction,
            n,
            shard,
            auction.winners_per_round(),
            engine,
            fill,
            &mut seeded_rng(seed),
            winner_info,
        )
        .unwrap()
    }

    #[test]
    fn streamed_selection_matches_the_dense_auction() {
        let auction = scale_auction(8);
        let n = 500;
        let dense_bids: Vec<SubmittedBid> = (0..n)
            .map(|i| {
                let (node, q, ask) = synthetic_bid(i);
                SubmittedBid::new(node, fmore_auction::Quality::new(q.to_vec()), ask)
            })
            .collect();
        let dense = auction.run(dense_bids, &mut seeded_rng(77)).unwrap();
        let streamed = streamed_winners(&auction, n, 64, &RoundEngine::inline(), 77);
        assert_eq!(streamed.offered, n);
        let dense_pairs: Vec<(u64, u64)> = dense
            .winners()
            .iter()
            .map(|w| (w.node.0, w.payment.to_bits()))
            .collect();
        let streamed_pairs: Vec<(u64, u64)> = streamed
            .winners
            .iter()
            .map(|w| (w.node.0, w.payment.to_bits()))
            .collect();
        assert_eq!(dense_pairs, streamed_pairs, "winners and payments drifted");
        // The bounded standing store never grows past K + reserve, and peak memory is
        // shard-scale, not population-scale.
        assert!(streamed.standing.len() <= 16);
        let full_store_bytes = n * (8 + 8 * 4);
        assert!(streamed.peak_bid_bytes < full_store_bytes);
    }

    #[test]
    fn bounded_psi_streaming_matches_the_dense_auction_bitwise() {
        use fmore_auction::{Additive, PricingRule, ScoringRule};
        // The pool is sized to the walk: K + reserve = 16 does not cover ψ = 0.6's reach of
        // 32 ranks, so the selector runs 33 deep; ψ = 0.12 reaches 200 and runs 201 deep.
        // Both must match the dense auction bit for bit and hand back a pool of 16.
        for &(psi, pricing) in &[
            (0.6, PricingRule::FirstPrice),
            (0.6, PricingRule::SecondPrice),
            (0.12, PricingRule::FirstPrice),
            (0.12, PricingRule::SecondPrice),
        ] {
            let auction = Auction::new(
                ScoringRule::new(Additive::new(vec![1.0, 1.0]).unwrap()),
                8,
                SelectionRule::PsiFMore { psi },
                pricing,
            );
            let n = 2_000;
            for seed in [7u64, 77, 777] {
                let dense_bids: Vec<SubmittedBid> = (0..n)
                    .map(|i| {
                        let (node, q, ask) = synthetic_bid(i);
                        SubmittedBid::new(node, fmore_auction::Quality::new(q.to_vec()), ask)
                    })
                    .collect();
                let dense = auction.run(dense_bids, &mut seeded_rng(seed)).unwrap();
                for engine in [RoundEngine::inline(), RoundEngine::pooled(2)] {
                    let streamed = streamed_winners(&auction, n, 64, &engine, seed);
                    let dense_pairs: Vec<(u64, u64)> = dense
                        .winners()
                        .iter()
                        .map(|w| (w.node.0, w.payment.to_bits()))
                        .collect();
                    let streamed_pairs: Vec<(u64, u64)> = streamed
                        .winners
                        .iter()
                        .map(|w| (w.node.0, w.payment.to_bits()))
                        .collect();
                    assert_eq!(
                        dense_pairs, streamed_pairs,
                        "psi={psi} {pricing:?} seed={seed}: bounded walk diverged"
                    );
                    // The returned pool is K + reserve deep and peak memory is shards plus
                    // the walk's reach, not the population.
                    assert_eq!(streamed.standing.len(), 16);
                    let full_store_bytes = n * (8 + 8 * 4);
                    assert!(
                        streamed.peak_bid_bytes < full_store_bytes,
                        "psi={psi} seed={seed}: peak {} not bounded",
                        streamed.peak_bid_bytes
                    );
                }
            }
        }
    }

    /// The replay pass, on the production function. At the production depth a walk
    /// overshoots its pool on one round in millions, so the inner function is driven at
    /// `depth = K + reserve` with a reserve of 0 or 1, where nearly every ψ < 1 walk does
    /// (and ψ = 1 does exactly when the pricing rank `K` is past a reserve of 0). Tie-heavy
    /// quantised bids, so ranks deep in the replayed pool are decided by keys alone.
    #[test]
    fn replay_pass_resolves_a_walk_past_the_pool_exactly() {
        use fmore_auction::{Additive, PricingRule, Quality, ScoringRule};
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (n, k) = (90usize, 6usize);
        let mut draws = seeded_rng(0xB9);
        let bids: Arc<Vec<SubmittedBid>> = Arc::new(
            (0..n)
                .map(|i| {
                    let q = (draws.gen::<f64>() * 4.0).round() / 4.0;
                    let ask = (draws.gen::<f64>() * 2.0).round() / 4.0;
                    let node = fmore_auction::NodeId(i as u64);
                    SubmittedBid::new(node, Quality::new(vec![q, 1.0 - q]), ask)
                })
                .collect(),
        );
        let engines = [RoundEngine::inline(), RoundEngine::pooled(2)];
        let (mut replayed_rounds, mut single_pass_rounds) = (0usize, 0usize);
        for psi in [0.05, 0.25, 0.6, 1.0] {
            for pricing in [PricingRule::FirstPrice, PricingRule::SecondPrice] {
                let auction = Auction::new(
                    ScoringRule::new(Additive::new(vec![1.0, 1.0]).unwrap()),
                    k,
                    SelectionRule::PsiFMore { psi },
                    pricing,
                );
                for (reserve, seed) in [(0usize, 3u64), (0, 41), (1, 3), (1, 41), (1, 500)] {
                    let name = format!("psi={psi} {pricing:?} reserve={reserve} seed={seed}");
                    let mut dense_rng = seeded_rng(seed);
                    let dense = auction.run(bids.as_ref().clone(), &mut dense_rng).unwrap();
                    let dense_position = dense_rng.gen::<u64>();

                    // The sequential K + reserve pool, and from the RNG it leaves behind,
                    // the plan: whether this round's walk goes past that pool.
                    let mut store = BidStore::with_dims(2);
                    for bid in bids.iter() {
                        store
                            .push(bid.node, bid.quality.as_slice(), bid.ask)
                            .unwrap();
                    }
                    store.score_with(auction.scoring_rule()).unwrap();
                    let mut seq_rng = seeded_rng(seed);
                    let mut selector = auction.selector(reserve);
                    selector.offer_store(&store, &mut seq_rng);
                    let sequential = selector.finish(&mut seq_rng);
                    let plan = auction.plan_admission(n, k, &mut seq_rng);
                    let deepest = plan.picked.iter().copied().chain(plan.price_rank).max();
                    let overshoots = deepest.unwrap() >= sequential.len();
                    replayed_rounds += usize::from(overshoots);
                    single_pass_rounds += usize::from(!overshoots);

                    for shard in [1usize, 7, n] {
                        for engine in &engines {
                            let name = format!("{name} shard={shard} {:?}", engine.mode());
                            let fills = Arc::new(AtomicUsize::new(0));
                            let (source, counter) = (Arc::clone(&bids), Arc::clone(&fills));
                            let fill =
                                move |range: std::ops::Range<usize>, store: &mut BidStore| {
                                    counter.fetch_add(1, Ordering::Relaxed);
                                    for bid in &source[range] {
                                        store.push(bid.node, bid.quality.as_slice(), bid.ask)?;
                                    }
                                    Ok(())
                                };
                            let mut rng = seeded_rng(seed);
                            let streamed = select_streamed_at(
                                k + reserve,
                                &auction,
                                n,
                                shard,
                                reserve,
                                engine,
                                Arc::new(fill),
                                &mut rng,
                                winner_info,
                            )
                            .unwrap();
                            let bits = |node: fmore_auction::NodeId, score: f64, payment: f64| {
                                (node, score.to_bits(), payment.to_bits())
                            };
                            assert_eq!(
                                streamed
                                    .winners
                                    .iter()
                                    .map(|w| bits(w.node, w.score, w.payment))
                                    .collect::<Vec<_>>(),
                                dense
                                    .winners()
                                    .iter()
                                    .map(|w| bits(w.node, w.score, w.payment))
                                    .collect::<Vec<_>>(),
                                "{name}: winners diverged from the dense auction"
                            );
                            assert_eq!(rng.gen::<u64>(), dense_position, "{name}: RNG position");
                            assert_eq!(streamed.standing, sequential, "{name}: standing pool");
                            assert_eq!(streamed.offered, n);
                            let passes = if overshoots { 2 } else { 1 };
                            assert_eq!(
                                fills.load(Ordering::Relaxed),
                                passes * n.div_ceil(shard),
                                "{name}: fill calls (overshoots: {overshoots})"
                            );
                        }
                    }
                }
            }
        }
        assert!(
            replayed_rounds >= 20 && single_pass_rounds >= 4,
            "both paths must be exercised: {replayed_rounds} replayed, {single_pass_rounds} not"
        );
    }

    #[test]
    fn streamed_selection_is_shard_and_width_independent() {
        let auction = scale_auction(5);
        let reference = streamed_winners(&auction, 300, 300, &RoundEngine::inline(), 3);
        for shard in [1usize, 7, 64] {
            for engine in [RoundEngine::inline(), RoundEngine::pooled(4)] {
                let other = streamed_winners(&auction, 300, shard, &engine, 3);
                assert_eq!(
                    reference.winners, other.winners,
                    "shard={shard} changed the winner set"
                );
            }
        }
    }

    #[test]
    fn streamed_selection_rejects_empty_and_invalid_games() {
        let auction = scale_auction(0);
        let fill = Arc::new(|_: std::ops::Range<usize>, _: &mut BidStore| Ok(()));
        let err = auction_select_streamed(
            &auction,
            10,
            4,
            0,
            &RoundEngine::inline(),
            Arc::clone(&fill),
            &mut seeded_rng(1),
            |_| unreachable!(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            FlError::Auction(AuctionError::InvalidGame { .. })
        ));
        // A population that streams zero bids is NoBids, like the dense stage.
        let auction = scale_auction(2);
        let err = auction_select_streamed(
            &auction,
            10,
            4,
            0,
            &RoundEngine::inline(),
            fill,
            &mut seeded_rng(1),
            |_| unreachable!(),
        )
        .unwrap_err();
        assert_eq!(err, FlError::Auction(AuctionError::NoBids));
    }

    #[test]
    fn streamed_selection_surfaces_fill_panics_as_typed_errors() {
        let auction = scale_auction(4);
        let fill = Arc::new(|range: std::ops::Range<usize>, store: &mut BidStore| {
            for i in range {
                assert!(i < 96, "mid-churn population vanished");
                let (node, q, ask) = synthetic_bid(i);
                store.push(node, &q, ask)?;
            }
            Ok(())
        });
        for engine in [RoundEngine::inline(), RoundEngine::pooled(2)] {
            let err = auction_select_streamed(
                &auction,
                128,
                32,
                4,
                &engine,
                Arc::clone(&fill),
                &mut seeded_rng(5),
                |_| unreachable!("no winners from a failed round"),
            )
            .unwrap_err();
            match err {
                FlError::JobPanic(marker) => {
                    assert!(marker.message.contains("mid-churn"), "{marker}");
                }
                other => panic!("expected JobPanic, got {other}"),
            }
        }
    }

    #[test]
    fn checked_engine_modes_agree_and_attribute_panics_per_slot() {
        let make = || -> Vec<Task<usize>> {
            (0..8usize)
                .map(|i| {
                    Box::new(move || {
                        assert!(i != 5, "slot five dies");
                        i * 10
                    }) as Task<usize>
                })
                .collect()
        };
        for engine in [RoundEngine::inline(), RoundEngine::pooled(3)] {
            let fates = engine.run_tasks_checked(make());
            assert_eq!(fates.len(), 8);
            for (i, fate) in fates.iter().enumerate() {
                match fate {
                    Ok(v) => assert_eq!(*v, i * 10),
                    Err(marker) => {
                        assert_eq!(i, 5, "only slot five panics");
                        assert_eq!(marker.slot, 5);
                    }
                }
            }
            let err = engine.try_run_tasks(make()).unwrap_err();
            assert!(
                matches!(err, FlError::JobPanic(ref m) if m.slot == 5),
                "{err}"
            );
        }
    }

    #[test]
    fn engine_parallel_width_matches_the_substrate() {
        assert_eq!(RoundEngine::inline().parallel_width(), 1);
        assert_eq!(RoundEngine::pooled(3).parallel_width(), 3);
    }

    #[test]
    fn aggregate_weights_by_data_size() {
        use crate::aggregator::FedAvg;
        let updates = vec![
            LocalUpdate {
                slot: 0,
                client: 0,
                parameters: vec![1.0, 0.0],
                weight: 3.0,
            },
            LocalUpdate {
                slot: 1,
                client: 1,
                parameters: vec![0.0, 1.0],
                weight: 1.0,
            },
        ];
        let mut scratch = AggregationScratch::new();
        let mut avg = Vec::new();
        let report = aggregate_with_rule(&FedAvg, &updates, &mut scratch, &mut avg).unwrap();
        assert_eq!(report.accepted, 2);
        assert!((avg[0] - 0.75).abs() < 1e-12);
        assert!((avg[1] - 0.25).abs() < 1e-12);
        let report = aggregate_with_rule(&FedAvg, &[], &mut scratch, &mut avg).unwrap();
        assert_eq!(report.accepted, 0);
        assert!(avg.is_empty());
        let mut poisoned = updates;
        poisoned[0].parameters[1] = f64::NAN;
        assert_eq!(
            aggregate_with_rule(&FedAvg, &poisoned, &mut scratch, &mut avg).unwrap_err(),
            FlError::NonFiniteUpdate { index: 0 }
        );
    }
}
