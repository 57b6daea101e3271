//! The population-scale bid path: a columnar bid store, deterministic tie-break keys, and a
//! bounded streaming top-K selector.
//!
//! The dense path of [`crate::mechanism::Auction::run`] materialises every submitted bid,
//! scores them, and full-sorts the population — fine for the paper's toy sizes (tens of
//! nodes), hopeless for the MEC populations the mechanism is actually pitched at (related
//! work frames winner determination at 10⁵–10⁶ bidders). This module holds the pieces that
//! make a million-bidder round routine:
//!
//! * [`BidStore`] — a struct-of-arrays bid buffer (flattened quality dims, asks, node ids,
//!   scores). One shard-sized store is filled, scored in one pass, fed to the selector, and
//!   reused for the next shard, so the resident bid bytes of a round are `O(shard)`, not
//!   `O(N)`.
//! * [`TieBreak`] — the deterministic tie-break keys that replace the historical
//!   shuffle-before-sort. Ranking is the strict total order *(score descending, key
//!   ascending)*; keys are derived per bid index from one salt word, so any two bids compare
//!   the same way no matter how the population was sharded. The generator consumes **exactly
//!   `max(n−1, 0)` RNG words per round** — the same count the Fisher–Yates shuffle used —
//!   so every seeded history recorded before the dense→streaming migration replays
//!   bit-for-bit.
//! * [`BidSelector`] — a bounded worst-first heap keeping the best `K + reserve` candidates
//!   seen so far (plus the best dropped score, which is all pricing needs from the losers).
//!   Offering a bid that does not beat the current worst allocates nothing; offering a
//!   better one reuses the evicted candidate's quality buffer. Transient memory is
//!   `O(K + reserve)` regardless of `N`.
//! * [`AdmissionFloor`] / [`ShardSelection`] — the parallel-wave scan: each shard is scanned
//!   against the selector's weakest kept `(score, key)`, so a bid that cannot enter the pool
//!   is rejected on its score alone and a shard hands back only the few that might.
//! * [`StandingPool`] — the selector's output: the kept candidates in rank order, valid as
//!   the round's standing store for re-auction refills without re-scoring
//!   ([`crate::mechanism::Auction::award_standing`]).
//!
//! The streaming selection is pinned **bit-identical** to the full-sort
//! [`crate::mechanism::Auction::rank_bids`] path (same keys, same order, same selection
//! draws, same payments) by `tests/properties.rs` — for plain top-K at any `reserve`, and
//! for ψ-FMore at any `reserve` too. A ψ round's admission walk needs only *ranks*
//! ([`crate::mechanism::Auction::plan_admission`]) and how deep it goes is known from the
//! rule alone ([`crate::winner::SelectionRule::reach`]), so the streamed stage sizes the
//! selector to that reach, reads every admitted rank (and the pricing boundary) off the
//! pool — whose order *is* the global rank order — and cuts the pool back to `K + reserve`
//! ([`StandingPool::truncate`]). The rare walk that goes deeper is resolved exactly by
//! streaming the population a second time into a [`BidSelector::replay`] selector as deep
//! as the deepest admitted rank: same salt, same keys, no RNG. State is
//! `O(width·shard + min(N, K/ψ + 6σ))`.
//!
//! [`ScoreHistogram`] and [`RankRefiner`] are the independent **oracle** for that path: a
//! fixed-width count of every score locates any rank's histogram bin, and a second stream
//! collects just those bins' members. No production round holds either; `tests/properties.rs`
//! and the benchmark's traced twin replay rounds through them and compare winners.

use crate::error::AuctionError;
use crate::scoring::ScoringRule;
use crate::types::NodeId;
use fmore_numerics::rng::derive_seed;
use rand::Rng;
use std::cmp::Ordering;

/// The strict rank order of the aggregator: descending score, ties by ascending tie-break
/// key. Keys are distinct per round (a bijection of the bid index), so the order is total —
/// two independent rankings of the same population can never disagree.
pub fn rank_order(score_a: f64, key_a: u64, score_b: f64, key_b: u64) -> Ordering {
    match score_b.partial_cmp(&score_a) {
        Some(Ordering::Equal) | None => key_a.cmp(&key_b),
        Some(order) => order,
    }
}

/// Deterministic tie-break key stream for one auction round.
///
/// The `i`-th offered bid gets the key `derive_seed(salt, i)` (the workspace's SplitMix64
/// stream derivation) where `salt` is a single word drawn from the round RNG. The
/// derivation is a bijection of `i` for a fixed salt, so keys are pairwise distinct within
/// a round; because the key depends only on `(salt, i)`, the ranking is independent of how
/// the population was sharded or on which thread a shard was scored.
///
/// # RNG contract
///
/// Exactly `max(n−1, 0)` words are consumed per round, matching the Fisher–Yates shuffle
/// this replaces: the salt is drawn on the **second** [`TieBreak::next_key`] call (a
/// single-bid round consumes nothing) and [`TieBreak::finish`] burns the remaining `n−2`.
/// Seeded experiment histories recorded under the shuffle therefore replay bit-for-bit —
/// the ψ-participation draws and every later consumer of the round RNG see an unchanged
/// stream position.
#[derive(Debug, Clone, Default)]
pub struct TieBreak {
    salt: Option<u64>,
    count: usize,
}

impl TieBreak {
    /// A fresh key stream for one round.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys handed out so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The key of the `i`-th offered bid (0 until the salt exists — callers re-key bid 0
    /// once a second bid arrives; a single-bid round never compares keys).
    pub fn key_of(&self, i: usize) -> u64 {
        match self.salt {
            Some(salt) => derive_seed(salt, i as u64),
            None => 0,
        }
    }

    /// Returns the key for the next offered bid, drawing the round salt on the second call.
    pub fn next_key<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        let i = self.count;
        self.count += 1;
        if i == 1 && self.salt.is_none() {
            self.salt = Some(rng.gen::<u64>());
        }
        self.key_of(i)
    }

    /// Draws the round salt now (if not yet drawn) and returns it, so that keys can be
    /// computed **off-thread** from `(salt, position)` by the parallel selection waves.
    ///
    /// Consumes the same single RNG word the second [`TieBreak::next_key`] call would have
    /// drawn, so the stream position is unchanged — but callers must only force the salt
    /// when the round is guaranteed to offer at least two bids in total, or the
    /// `max(n−1, 0)`-word contract above would be violated.
    pub fn force_salt<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        if self.salt.is_none() {
            self.salt = Some(rng.gen::<u64>());
        }
        self.salt.expect("salt just ensured")
    }

    /// Whether the round salt has been drawn yet.
    pub fn salt_known(&self) -> bool {
        self.salt.is_some()
    }

    /// Advances the offered-bid counter past `n` externally keyed bids (bids whose keys
    /// were computed on worker threads from a forced salt and absorbed wholesale), keeping
    /// [`TieBreak::finish`]'s burn count — and therefore the RNG contract — exact.
    pub fn advance(&mut self, n: usize) {
        self.count += n;
    }

    /// Burns the remainder of the round's RNG budget (`n−2` words for `n ≥ 2`), pinning the
    /// stream position to what the historical shuffle consumed. Call exactly once, after the
    /// last bid of the round.
    pub fn finish<R: Rng + ?Sized>(&self, rng: &mut R) {
        for _ in 0..self.count.saturating_sub(2) {
            let _ = rng.gen::<u64>();
        }
    }
}

/// A columnar (struct-of-arrays) bid buffer: node ids, flattened quality dimensions, asks,
/// and scores live in four dense arrays instead of one `Vec<SubmittedBid>` of heap-owning
/// structs. A shard-sized store is reused across shards and rounds, so steady-state bid
/// collection allocates nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BidStore {
    dims: usize,
    nodes: Vec<u64>,
    qualities: Vec<f64>,
    asks: Vec<f64>,
    scores: Vec<f64>,
}

impl BidStore {
    /// An empty store for `dims`-dimensional bids.
    pub fn with_dims(dims: usize) -> Self {
        Self {
            dims,
            ..Self::default()
        }
    }

    /// An empty store with capacity for `bids` bids (one allocation up front).
    pub fn with_capacity(dims: usize, bids: usize) -> Self {
        Self {
            dims,
            nodes: Vec::with_capacity(bids),
            qualities: Vec::with_capacity(bids * dims),
            asks: Vec::with_capacity(bids),
            scores: Vec::with_capacity(bids),
        }
    }

    /// Number of resource dimensions per bid.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of stored bids.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Clears the store, keeping every column's capacity for reuse.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.qualities.clear();
        self.asks.clear();
        self.scores.clear();
    }

    /// Appends one sealed bid after validating it (same rules as the dense
    /// [`crate::mechanism::Auction::score_bids`]: finite non-negative quality of the right
    /// dimension, finite non-negative ask).
    ///
    /// # Errors
    ///
    /// [`AuctionError::DimensionMismatch`] / [`AuctionError::InvalidParameter`] for
    /// malformed bids.
    pub fn push(&mut self, node: NodeId, quality: &[f64], ask: f64) -> Result<(), AuctionError> {
        if quality.len() != self.dims {
            return Err(AuctionError::DimensionMismatch {
                expected: self.dims,
                actual: quality.len(),
            });
        }
        if quality.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err(AuctionError::InvalidParameter(format!(
                "bid from {node} has an invalid quality vector"
            )));
        }
        if !ask.is_finite() || ask < 0.0 {
            return Err(AuctionError::InvalidParameter(format!(
                "bid from {node} has an invalid payment ask {ask}"
            )));
        }
        self.nodes.push(node.0);
        self.qualities.extend_from_slice(quality);
        self.asks.push(ask);
        self.scores.push(0.0);
        Ok(())
    }

    /// Appends one bid the caller guarantees is well-formed — right dimension, finite
    /// non-negative quality components, finite non-negative ask — skipping the per-component
    /// validation of [`BidStore::push`]. The trusted fast path of the population-scale
    /// filler, whose bids come from the solver's tabulated equilibrium (clipped to a finite
    /// non-negative capacity) rather than from untrusted submitters; at 10⁶ bids per round
    /// the validation sweep is a measurable slice of the bid-generation budget. Debug builds
    /// still assert every invariant.
    #[inline(always)]
    pub fn push_trusted(&mut self, node: NodeId, quality: &[f64], ask: f64) {
        debug_assert_eq!(quality.len(), self.dims);
        debug_assert!(quality.iter().all(|v| v.is_finite() && *v >= 0.0));
        debug_assert!(ask.is_finite() && ask >= 0.0);
        self.nodes.push(node.0);
        self.qualities.extend_from_slice(quality);
        self.asks.push(ask);
        self.scores.push(0.0);
    }

    /// Batch form of [`BidStore::push_trusted`] for one shard of consecutive nodes: grows
    /// every column once by `nodes.len()` bids and hands `fill` the new tails — the
    /// row-major quality rows (`dims` per bid) and the asks, zeroed — so a whole shard is
    /// written through two slices instead of per-bid capacity-checked pushes. The same
    /// trust contract: `fill` must leave every component finite and non-negative
    /// (debug-asserted).
    ///
    /// # Errors
    ///
    /// Propagates `fill`'s error, leaving the store as it was.
    pub fn extend_trusted_with<E>(
        &mut self,
        nodes: std::ops::Range<u64>,
        fill: impl FnOnce(&mut [f64], &mut [f64]) -> Result<(), E>,
    ) -> Result<(), E> {
        let old = self.nodes.len();
        self.nodes.extend(nodes);
        let len = self.nodes.len();
        self.qualities.resize(len * self.dims, 0.0);
        self.asks.resize(len, 0.0);
        self.scores.resize(len, 0.0);
        let filled = fill(
            &mut self.qualities[old * self.dims..],
            &mut self.asks[old..],
        );
        if filled.is_err() {
            self.truncate(old);
        }
        debug_assert!(self.qualities[old * self.dims..]
            .iter()
            .chain(&self.asks[old..])
            .all(|v| v.is_finite() && *v >= 0.0));
        filled
    }

    /// The `i`-th bidder.
    #[inline]
    pub fn node(&self, i: usize) -> NodeId {
        NodeId(self.nodes[i])
    }

    /// The `i`-th quality vector.
    #[inline]
    pub fn quality(&self, i: usize) -> &[f64] {
        &self.qualities[i * self.dims..(i + 1) * self.dims]
    }

    /// The `i`-th payment ask.
    #[inline]
    pub fn ask(&self, i: usize) -> f64 {
        self.asks[i]
    }

    /// The `i`-th score (0 until [`BidStore::score_with`] ran).
    #[inline]
    pub fn score(&self, i: usize) -> f64 {
        self.scores[i]
    }

    /// Scores every stored bid in one pass under the broadcast rule
    /// (`S(q, p) = s(q) − p`), filling the score column via the scoring family's columnar
    /// [`crate::scoring::ScoringFunction::score_batch`] kernel — one virtual dispatch per
    /// store, a monomorphized sweep over the SoA arrays inside. Pure — safe to run
    /// shard-by-shard on worker threads.
    ///
    /// # Errors
    ///
    /// [`AuctionError::DimensionMismatch`] when the rule expects a different dimension than
    /// the store holds.
    pub fn score_with(&mut self, rule: &ScoringRule) -> Result<(), AuctionError> {
        if self.dims != rule.dims() {
            return Err(AuctionError::DimensionMismatch {
                expected: rule.dims(),
                actual: self.dims,
            });
        }
        rule.score_batch(&self.qualities, &self.asks, &mut self.scores)
    }

    /// Revises the bids pushed at index `start` onwards, in push order: `revise` receives
    /// each bid's node, mutable quality row, and mutable ask, and returns whether the bid
    /// stays in the store. Returning `false` removes the bid (the tail is compacted in
    /// place, preserving order). Returns how many bids were removed.
    ///
    /// This is the post-fill hook of reputation-aware selection and adversarial bid
    /// distortion: a streamed shard is filled by its (possibly untruthful) source, then the
    /// auctioneer-side policy reweighs or excludes bids *before* scoring. The closure must
    /// keep every kept bid well-formed (finite, non-negative quality and ask) — debug
    /// builds assert it.
    pub fn revise_from(
        &mut self,
        start: usize,
        mut revise: impl FnMut(NodeId, &mut [f64], &mut f64) -> bool,
    ) -> usize {
        let dims = self.dims;
        let len = self.nodes.len();
        let mut write = start;
        for read in start..len {
            let mut ask = self.asks[read];
            let keep = revise(
                NodeId(self.nodes[read]),
                &mut self.qualities[read * dims..(read + 1) * dims],
                &mut ask,
            );
            if keep {
                debug_assert!(
                    self.qualities[read * dims..(read + 1) * dims]
                        .iter()
                        .all(|v| v.is_finite() && *v >= 0.0),
                    "revised quality must stay well-formed"
                );
                debug_assert!(
                    ask.is_finite() && ask >= 0.0,
                    "revised ask must stay well-formed"
                );
                self.asks[write] = ask;
                if write != read {
                    self.nodes[write] = self.nodes[read];
                    self.scores[write] = self.scores[read];
                    self.qualities
                        .copy_within(read * dims..(read + 1) * dims, write * dims);
                }
                write += 1;
            }
        }
        self.truncate(write);
        len - write
    }

    /// Drops every bid from index `len` on.
    fn truncate(&mut self, len: usize) {
        self.nodes.truncate(len);
        self.qualities.truncate(len * self.dims);
        self.asks.truncate(len);
        self.scores.truncate(len);
    }

    /// Resident bytes of the stored bids (column lengths, not capacities — deterministic
    /// across allocators, which lets the scale experiments fingerprint it).
    pub fn resident_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<u64>()
            + (self.qualities.len() + self.asks.len() + self.scores.len())
                * std::mem::size_of::<f64>()
    }
}

/// One kept candidate of a streaming selection: everything pricing and award construction
/// need, and nothing else.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The bidder.
    pub node: NodeId,
    /// Score under the broadcast rule.
    pub score: f64,
    /// Deterministic tie-break key (see [`TieBreak`]).
    pub key: u64,
    /// Payment ask.
    pub ask: f64,
    /// Declared quality (owned copy; only kept candidates hold one).
    pub quality: Vec<f64>,
}

/// The bounded worst-first candidate heap shared by the round selector and the per-shard
/// scans: keeps the `capacity` best candidates offered so far plus the best score among
/// everything it dropped. Pure data structure — no RNG, no key generation —
/// so it runs identically on the control thread and on pool workers.
#[derive(Debug, Clone)]
struct CandidateHeap {
    dims: usize,
    capacity: usize,
    /// Worst-first heap: `heap[0]` is the weakest kept candidate.
    heap: Vec<Candidate>,
    best_dropped: Option<f64>,
}

impl CandidateHeap {
    fn new(dims: usize, capacity: usize) -> Self {
        Self {
            dims,
            capacity: capacity.max(1),
            heap: Vec::new(),
            best_dropped: None,
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    /// The weakest kept `(score, key)` once full — only bids ranking before it still enter.
    fn floor(&self) -> Option<(f64, u64)> {
        (self.heap.len() == self.capacity).then(|| (self.heap[0].score, self.heap[0].key))
    }

    /// Offers one scored, already-keyed bid; a bid that does not beat the weakest kept
    /// candidate only updates the best-dropped score.
    fn offer_keyed(&mut self, node: NodeId, quality: &[f64], ask: f64, score: f64, key: u64) {
        debug_assert_eq!(quality.len(), self.dims);
        if self.heap.len() < self.capacity {
            self.heap.push(Candidate {
                node,
                score,
                key,
                ask,
                quality: quality.to_vec(),
            });
            self.sift_up(self.heap.len() - 1);
            return;
        }
        let weakest = &self.heap[0];
        if rank_order(score, key, weakest.score, weakest.key) == Ordering::Less {
            // The newcomer ranks before the weakest kept candidate: evict it, reusing its
            // quality buffer so steady-state offers allocate nothing.
            self.note_dropped(self.heap[0].score);
            let slot = &mut self.heap[0];
            slot.node = node;
            slot.score = score;
            slot.key = key;
            slot.ask = ask;
            slot.quality.clear();
            slot.quality.extend_from_slice(quality);
            self.sift_down(0);
        } else {
            self.note_dropped(score);
        }
    }

    /// Folds a loser's score into the running maximum — a compare and a rarely taken
    /// store, cheap enough for the shard scan to call once per rejected bid.
    fn note_dropped(&mut self, score: f64) {
        if self.best_dropped.is_none_or(|best| score > best) {
            self.best_dropped = Some(score);
        }
    }

    /// `true` when `a` should sit above `b` in the worst-first heap (i.e. `a` ranks after).
    fn heap_before(a: &Candidate, b: &Candidate) -> bool {
        rank_order(b.score, b.key, a.score, a.key) == Ordering::Less
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if Self::heap_before(&self.heap[i], &self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut top = i;
            if l < self.heap.len() && Self::heap_before(&self.heap[l], &self.heap[top]) {
                top = l;
            }
            if r < self.heap.len() && Self::heap_before(&self.heap[r], &self.heap[top]) {
                top = r;
            }
            if top == i {
                break;
            }
            self.heap.swap(i, top);
            i = top;
        }
    }
}

/// What a shard scan takes from the selector ([`BidSelector::admission_floor`]): the round
/// salt, the pool bound, and the **admission floor** — the weakest kept `(score, key)` of a
/// full selector. `Copy`; snapshotted once per wave and handed to each of its shard tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionFloor {
    salt: u64,
    capacity: usize,
    floor: Option<(f64, u64)>,
}

/// One shard's scan (worker thread, no RNG): the bids ranking before the
/// [`AdmissionFloor`] it started from (at most `capacity`, heap order), the best score
/// among the rest, and the number scanned. Absorbing only these survivors is bit-identical
/// to offering every bid sequentially, at any shard size and engine width: the floor is
/// **monotone** (a full selector's weakest kept candidate only rises, so a stale snapshot
/// is merely lower — anything at or below it is outranked by `capacity` bids already seen,
/// and `absorb` drops the extras it lets through); `best_dropped` is **max-closed** (the
/// maximum over everything outside the final pool, whoever folded a loser in); and keys
/// are **global** (`derive_seed(salt, base + j)`, hashed only for survivors and exact score
/// ties with the floor — the rest is decided from the score column alone).
#[derive(Debug, Clone)]
pub struct ShardSelection {
    kept: CandidateHeap,
    offered: usize,
}

impl ShardSelection {
    /// [`ShardSelection::select_above`] with no floor — the shard's own top `capacity`, as a
    /// round's first shard computes it — under the round salt ([`BidSelector::force_salt`]).
    pub fn select(store: &BidStore, salt: u64, base: usize, capacity: usize) -> Self {
        let admission = AdmissionFloor {
            salt,
            capacity,
            floor: None,
        };
        Self::select_above(store, base, admission)
    }

    /// Scans a scored store for the bids that can still enter the round's pool; `base` is
    /// the number of bids streamed before this shard. The scan's floor is the one handed in
    /// until `capacity` bids survive, their weakest from then on.
    pub fn select_above(store: &BidStore, base: usize, admission: AdmissionFloor) -> Self {
        let mut kept = CandidateHeap::new(store.dims(), admission.capacity);
        let offered = store.len();
        let mut floor = admission.floor;
        for (j, &score) in store.scores.iter().enumerate() {
            // Scores-only verdict first: the key hash is for survivors and exact ties.
            if floor.is_some_and(|(floor_score, _)| score < floor_score) {
                kept.note_dropped(score);
                continue;
            }
            let key = derive_seed(admission.salt, (base + j) as u64);
            if floor.is_some_and(|(f_score, f_key)| {
                rank_order(score, key, f_score, f_key) != Ordering::Less
            }) {
                kept.note_dropped(score);
                continue;
            }
            kept.offer_keyed(store.node(j), store.quality(j), store.ask(j), score, key);
            floor = kept.floor().or(floor);
        }
        Self { kept, offered }
    }

    /// Number of bids the shard scanned.
    pub fn offered(&self) -> usize {
        self.offered
    }

    /// Number of surviving candidates.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.kept.len()
    }
}

/// A bounded streaming top-K selector: keeps the `capacity` best candidates seen so far in a
/// worst-first binary heap, plus the best score among everything it dropped (which is all
/// the pricing rules need from the losers). Feeding the whole population through it and
/// sorting the kept set reproduces the head of the dense full-sort ranking bit-for-bit.
///
/// Two equivalent feeding disciplines exist: the sequential [`BidSelector::offer`] /
/// [`BidSelector::offer_store`] path (keys drawn from the round RNG as bids arrive), and
/// the parallel-wave path — [`BidSelector::force_salt`] once, then per wave one
/// [`BidSelector::admission_floor`] snapshot, [`ShardSelection::select_above`] per shard on
/// worker threads, [`BidSelector::absorb`] in population order. Same RNG words, same pool.
#[derive(Debug, Clone)]
pub struct BidSelector {
    tie: TieBreak,
    heap: CandidateHeap,
}

impl BidSelector {
    /// A selector keeping the best `capacity` of the `dims`-dimensional bids offered to it.
    pub fn new(dims: usize, capacity: usize) -> Self {
        Self {
            tie: TieBreak::new(),
            heap: CandidateHeap::new(dims, capacity),
        }
    }

    /// A selector for streaming a round's bids a **second** time, under the salt its first
    /// pass drew ([`BidSelector::force_salt`]): keys are the pure function
    /// `derive_seed(salt, position)`, so the same bids in the same order rank exactly as
    /// they did, to any `capacity`, and the round RNG is never touched — feed it through
    /// [`BidSelector::admission_floor`] / [`BidSelector::absorb`] and close it with
    /// [`BidSelector::into_pool`].
    pub fn replay(dims: usize, capacity: usize, salt: u64) -> Self {
        Self {
            tie: TieBreak {
                salt: Some(salt),
                count: 0,
            },
            heap: CandidateHeap::new(dims, capacity),
        }
    }

    /// Number of bids offered so far.
    pub fn offered(&self) -> usize {
        self.tie.count()
    }

    /// Number of candidates currently kept.
    pub fn kept(&self) -> usize {
        self.heap.len()
    }

    /// The bound on kept candidates (`K + reserve` as configured by
    /// [`crate::mechanism::Auction::selector`]).
    pub fn capacity(&self) -> usize {
        self.heap.capacity
    }

    /// Resident bytes of the kept candidates (len-based, deterministic).
    pub fn resident_bytes(&self) -> usize {
        self.heap.len()
            * (std::mem::size_of::<Candidate>() + self.heap.dims * std::mem::size_of::<f64>())
    }

    /// Offers one scored bid. Draws exactly one tie-break key from the round stream (see
    /// [`TieBreak`] for the RNG contract); a bid that does not beat the weakest kept
    /// candidate only updates the best-dropped score.
    pub fn offer<R: Rng + ?Sized>(
        &mut self,
        node: NodeId,
        quality: &[f64],
        ask: f64,
        score: f64,
        rng: &mut R,
    ) {
        let seq = self.tie.count();
        let key = self.tie.next_key(rng);
        if seq == 1 {
            // The salt now exists: re-key the provisional first candidate (if still kept).
            self.rekey_provisional_first();
        }
        self.heap.offer_keyed(node, quality, ask, score, key);
    }

    /// Offers every bid of a scored store, in store order.
    pub fn offer_store<R: Rng + ?Sized>(&mut self, store: &BidStore, rng: &mut R) {
        debug_assert_eq!(store.dims(), self.heap.dims);
        for i in 0..store.len() {
            self.offer(
                store.node(i),
                store.quality(i),
                store.ask(i),
                store.score(i),
                rng,
            );
        }
    }

    /// Draws the round salt now and returns it, so shard selections can compute keys on
    /// worker threads. Re-keys the provisional first candidate if one is already kept.
    /// Callers must guarantee the round offers at least two bids in total (the RNG
    /// contract of [`TieBreak::force_salt`]).
    pub fn force_salt<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        let salt = self.tie.force_salt(rng);
        if self.tie.count() == 1 {
            // Exactly one bid was offered sequentially before the salt existed; it holds
            // the provisional key 0. (With ≥ 2 sequential offers the salt already existed
            // and every kept key is final — re-keying would corrupt the heap.)
            self.rekey_provisional_first();
        }
        salt
    }

    /// Gives the kept provisional first candidate (at most one exists when this is
    /// called) its true key for stream position 0.
    fn rekey_provisional_first(&mut self) {
        if let Some(first) = self.heap.heap.first_mut() {
            first.key = self.tie.key_of(0);
        }
    }

    /// The snapshot a shard scan starts from (no floor until the pool is full); `None`
    /// until the salt is drawn. Valid for the rest of the round — see [`ShardSelection`].
    pub fn admission_floor(&self) -> Option<AdmissionFloor> {
        Some(AdmissionFloor {
            salt: self.tie.salt?,
            capacity: self.heap.capacity,
            floor: self.heap.floor(),
        })
    }

    /// Merges one shard's scan into the round selector: advances the offered count, folds
    /// in the shard's best-dropped score, and offers every survivor (already carrying its
    /// global key) to the heap — re-checked against the *live* floor, so the extras a stale
    /// snapshot let through are dropped here. Shards must be absorbed in population order
    /// with bases equal to the cumulative offered count at their start (the engine's wave
    /// loop does); under that discipline the result is bit-identical to the sequential path.
    pub fn absorb(&mut self, shard: ShardSelection) {
        debug_assert!(
            self.tie.salt_known() || shard.offered == 0,
            "absorb requires a forced salt"
        );
        self.tie.advance(shard.offered);
        if let Some(score) = shard.kept.best_dropped {
            self.heap.note_dropped(score);
        }
        for c in &shard.kept.heap {
            self.heap
                .offer_keyed(c.node, &c.quality, c.ask, c.score, c.key);
        }
    }

    /// Ends the round: burns the tie-break stream's remaining RNG budget (so downstream
    /// consumers see the historical stream position) and returns the kept candidates in
    /// rank order as the round's standing pool.
    pub fn finish<R: Rng + ?Sized>(self, rng: &mut R) -> StandingPool {
        self.tie.finish(rng);
        self.into_pool()
    }

    /// The kept candidates in rank order, with no RNG burn — how a [`BidSelector::replay`]
    /// pass ends (the round's first pass already paid the stream's budget).
    pub fn into_pool(self) -> StandingPool {
        let offered = self.tie.count();
        let mut candidates = self.heap.heap;
        candidates.sort_unstable_by(|a, b| rank_order(a.score, a.key, b.score, b.key));
        StandingPool {
            candidates,
            offered,
            best_dropped: self.heap.best_dropped,
        }
    }
}

/// The standing bid store of one round: the kept candidates in rank order (best first) plus
/// the best score the bounded selector dropped. Winner selection, pricing, and re-auction
/// refills all read from here without re-scoring
/// ([`crate::mechanism::Auction::award_standing`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StandingPool {
    candidates: Vec<Candidate>,
    offered: usize,
    best_dropped: Option<f64>,
}

impl StandingPool {
    /// The kept candidates, best rank first.
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Number of kept candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether nothing was kept.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Total number of bids offered to the selector this round.
    pub fn offered(&self) -> usize {
        self.offered
    }

    /// Best score among the bids the bounded selector dropped, if any were dropped.
    pub fn best_dropped_score(&self) -> Option<f64> {
        self.best_dropped
    }

    /// Cuts the pool back to its best `len` candidates — exactly the pool, and the best
    /// dropped score, a selector of capacity `len` keeps over the same stream: the first
    /// candidate cut outranks everything cut with it and everything dropped before, so its
    /// score is the new best dropped one. At or beyond the pool's length, a no-op.
    pub fn truncate(&mut self, len: usize) {
        if let Some(cut) = self.candidates.get(len) {
            if self.best_dropped.is_none_or(|best| cut.score > best) {
                self.best_dropped = Some(cut.score);
            }
            self.candidates.truncate(len);
        }
    }
}

/// A fixed-width score histogram: the rank-locating backbone of the bounded ψ-FMore
/// streamed admission.
///
/// The first streaming pass counts every scored bid into one of 2¹⁶ bins, keyed by the top
/// 16 bits of an order-preserving integer image of the score (higher bin index ⇔ higher
/// score; exactly equal scores always share a bin, so the strict rank order within a bin is
/// decided purely by [`rank_order`] over the bin's members). After the pass, the global
/// rank interval of every bin is known: bin `b` holds ranks
/// `[Σ_{b' > b} count(b'), Σ_{b' ≥ b} count(b'))`. That is enough to translate the ranks an
/// admission walk picks into *(bin, within-bin offset)* coordinates without ever holding
/// the population — the job of [`RankRefiner`].
///
/// The histogram is `BINS` words of constant state (512 KiB) regardless of the population
/// size, consumes no RNG, and is deterministic in the bid stream (counting is order- and
/// shard-independent). `-0.0` is canonicalised to `+0.0` so the binning never splits a pair
/// of scores that [`rank_order`] treats as equal. Scores must be finite — the bid
/// validation of [`BidStore::push`] guarantees it.
#[derive(Debug, Clone)]
pub struct ScoreHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for ScoreHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl ScoreHistogram {
    /// Number of bins (top 16 bits of the score's order-preserving integer image).
    pub const BINS: usize = 1 << 16;

    /// A zeroed histogram.
    pub fn new() -> Self {
        Self {
            counts: vec![0; Self::BINS],
            total: 0,
        }
    }

    /// The order-preserving integer image of a finite score: flips the sign-magnitude
    /// encoding of `f64` into a monotone unsigned integer (`a < b ⇔ ordinal(a) < ordinal(b)`
    /// for finite non-NaN inputs), with `-0.0` canonicalised to `+0.0` first.
    fn ordinal(score: f64) -> u64 {
        let score = if score == 0.0 { 0.0 } else { score };
        let bits = score.to_bits();
        if bits >> 63 == 1 {
            !bits
        } else {
            bits | (1 << 63)
        }
    }

    /// The bin a score counts into.
    pub fn bin_of(score: f64) -> usize {
        (Self::ordinal(score) >> 48) as usize
    }

    /// Counts one score.
    pub fn record(&mut self, score: f64) {
        self.counts[Self::bin_of(score)] += 1;
        self.total += 1;
    }

    /// Counts every score of a scored store.
    pub fn record_store(&mut self, store: &BidStore) {
        for j in 0..store.len() {
            self.record(store.score(j));
        }
    }

    /// Total number of scores counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Resident bytes of the bin table (constant in the population size).
    pub fn resident_bytes(&self) -> usize {
        self.counts.len() * std::mem::size_of::<u64>()
    }

    /// Locates each of the (ascending, distinct) global ranks: returns `(bin,
    /// first_rank_of_bin)` per rank, in order. Every rank must be smaller than
    /// [`ScoreHistogram::total`].
    fn locate(&self, sorted_ranks: &[usize]) -> Vec<(usize, usize)> {
        debug_assert!(sorted_ranks.windows(2).all(|w| w[0] < w[1]));
        let mut out = Vec::with_capacity(sorted_ranks.len());
        let mut next = 0;
        let mut start = 0usize;
        for bin in (0..Self::BINS).rev() {
            if next == sorted_ranks.len() {
                break;
            }
            let count = self.counts[bin] as usize;
            if count == 0 {
                continue;
            }
            let end = start + count;
            while next < sorted_ranks.len() && sorted_ranks[next] < end {
                debug_assert!(sorted_ranks[next] >= start);
                out.push((bin, start));
                next += 1;
            }
            start = end;
        }
        assert_eq!(
            out.len(),
            sorted_ranks.len(),
            "a requested rank lies beyond the counted population"
        );
        out
    }
}

/// One needed histogram bin of a refinement pass: collects the bin's best members (by
/// [`rank_order`]) up to the deepest needed within-bin offset.
#[derive(Debug, Clone)]
struct BinProbe {
    bin: usize,
    start_rank: usize,
    heap: CandidateHeap,
}

/// The refinement pass of the bounded ψ-FMore streamed admission: re-streams the scored
/// population (no RNG — tie-break keys are recomputed as the pure function
/// `derive_seed(salt, position)`) and keeps, per histogram bin that holds a needed rank,
/// exactly the bin's best `deepest_needed_offset + 1` members. Because needed bins cover
/// disjoint rank intervals, the total kept state is at most `deepest_needed_rank + 1`
/// candidates — winners-scale for the geometric admission tail of the ψ walk, never `O(N)`.
///
/// Feed every scored store of the round through [`RankRefiner::offer_store`] **in stream
/// order with exact bases** (the same discipline as [`ShardSelection::select`]), then
/// [`RankRefiner::into_ranked`] resolves any needed rank to its candidate — bit-identical,
/// including tie-break keys, to indexing the full-sort ranking.
#[derive(Debug, Clone)]
pub struct RankRefiner {
    salt: u64,
    /// Probes in ascending `start_rank` order — equivalently descending `bin` order.
    probes: Vec<BinProbe>,
    /// Cheap reject: the lowest needed bin (most bids of a large population score below
    /// every needed bin and never touch the probe search).
    min_bin: usize,
}

impl RankRefiner {
    /// Builds the probes for the (ascending, distinct) needed global ranks, as counted by
    /// `histogram`. `salt` is the round's tie-break salt ([`TieBreak::force_salt`]) and
    /// `dims` the bid dimensionality.
    pub fn new(histogram: &ScoreHistogram, sorted_ranks: &[usize], salt: u64, dims: usize) -> Self {
        let located = histogram.locate(sorted_ranks);
        // (bin, start_rank, deepest needed within-bin offset); ranks ascend, so the last
        // rank seen for a bin is its deepest.
        let mut spans: Vec<(usize, usize, usize)> = Vec::new();
        for (&rank, &(bin, start)) in sorted_ranks.iter().zip(&located) {
            match spans.last_mut() {
                Some(span) if span.0 == bin => span.2 = rank - start,
                _ => spans.push((bin, start, rank - start)),
            }
        }
        let min_bin = spans.last().map_or(0, |span| span.0);
        let probes = spans
            .into_iter()
            .map(|(bin, start_rank, deepest)| BinProbe {
                bin,
                start_rank,
                heap: CandidateHeap::new(dims, deepest + 1),
            })
            .collect();
        Self {
            salt,
            probes,
            min_bin,
        }
    }

    /// Offers every bid of a scored store; `base` is the number of bids streamed before it
    /// (exactly the [`ShardSelection::select`] base of the first pass, so keys agree).
    pub fn offer_store(&mut self, store: &BidStore, base: usize) {
        let dims = store.dims();
        for j in 0..store.len() {
            let score = store.scores[j];
            let bin = ScoreHistogram::bin_of(score);
            if bin < self.min_bin {
                continue;
            }
            // Probes are sorted by descending bin.
            if let Ok(p) = self
                .probes
                .binary_search_by(|probe| probe.bin.cmp(&bin).reverse())
            {
                self.probes[p].heap.offer_keyed(
                    NodeId(store.nodes[j]),
                    &store.qualities[j * dims..(j + 1) * dims],
                    store.asks[j],
                    score,
                    derive_seed(self.salt, (base + j) as u64),
                );
            }
        }
    }

    /// Resident bytes of the kept candidates (len-based, deterministic).
    pub fn resident_bytes(&self) -> usize {
        self.probes
            .iter()
            .map(|p| {
                p.heap.len()
                    * (std::mem::size_of::<Candidate>() + p.heap.dims * std::mem::size_of::<f64>())
            })
            .sum()
    }

    /// Finishes the pass: sorts each probe's members into within-bin rank order and returns
    /// a rank-addressable view of the collected candidates.
    pub fn into_ranked(self) -> RankedCandidates {
        let groups = self
            .probes
            .into_iter()
            .map(|probe| {
                debug_assert_eq!(
                    probe.heap.len(),
                    probe.heap.capacity,
                    "a needed rank was counted but never streamed"
                );
                let mut members = probe.heap.heap;
                members.sort_unstable_by(|a, b| rank_order(a.score, a.key, b.score, b.key));
                (probe.start_rank, members)
            })
            .collect();
        RankedCandidates { groups }
    }
}

/// The output of a [`RankRefiner`] pass: candidates addressable by their global rank, for
/// exactly the ranks the refiner was built for.
#[derive(Debug, Clone)]
pub struct RankedCandidates {
    /// `(first_global_rank, members in within-bin rank order)`, ascending by rank.
    groups: Vec<(usize, Vec<Candidate>)>,
}

impl RankedCandidates {
    /// The candidate at a global rank, if that rank was collected.
    pub fn get(&self, rank: usize) -> Option<&Candidate> {
        let group = match self.groups.binary_search_by(|g| g.0.cmp(&rank)) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let (start, members) = &self.groups[group];
        members.get(rank - start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmore_numerics::seeded_rng;

    fn store_of(rows: &[(u64, [f64; 2], f64)]) -> BidStore {
        let mut store = BidStore::with_dims(2);
        for &(node, q, ask) in rows {
            store.push(NodeId(node), &q, ask).unwrap();
        }
        store
    }

    #[test]
    fn store_is_columnar_and_reusable() {
        let mut store = store_of(&[(0, [0.5, 0.5], 0.1), (1, [0.9, 0.2], 0.3)]);
        assert_eq!(store.len(), 2);
        assert_eq!(store.dims(), 2);
        assert!(!store.is_empty());
        assert_eq!(store.node(1), NodeId(1));
        assert_eq!(store.quality(0), &[0.5, 0.5]);
        assert_eq!(store.ask(1), 0.3);
        let bytes = store.resident_bytes();
        assert_eq!(bytes, 2 * 8 + (4 + 2 + 2) * 8);
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.resident_bytes(), 0);
    }

    #[test]
    fn extend_trusted_with_appends_a_shard_or_leaves_the_store_as_it_was() {
        let mut store = store_of(&[(9, [0.5, 0.5], 0.1)]);
        store
            .extend_trusted_with(3..6, |qualities, asks| {
                assert_eq!((qualities.len(), asks.len()), (6, 3));
                assert!(qualities.iter().chain(asks.iter()).all(|v| *v == 0.0));
                qualities.copy_from_slice(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
                asks.copy_from_slice(&[1.0, 2.0, 3.0]);
                Ok::<(), ()>(())
            })
            .unwrap();
        let mut expected = store_of(&[(9, [0.5, 0.5], 0.1)]);
        expected.push_trusted(NodeId(3), &[0.1, 0.2], 1.0);
        expected.push_trusted(NodeId(4), &[0.3, 0.4], 2.0);
        expected.push_trusted(NodeId(5), &[0.5, 0.6], 3.0);
        assert_eq!(store, expected);

        let failed = store.extend_trusted_with(6..9, |qualities, asks| {
            qualities.fill(0.7);
            asks.fill(0.7);
            Err("no")
        });
        assert_eq!(failed, Err("no"));
        assert_eq!(store, expected);
    }

    #[test]
    fn revise_from_mutates_and_compacts_the_tail_in_order() {
        let mut store = store_of(&[
            (0, [0.5, 0.5], 0.1),
            (1, [0.9, 0.2], 0.3),
            (2, [0.4, 0.6], 0.2),
            (3, [0.7, 0.7], 0.4),
        ]);
        // Revision starts at index 1: bid 0 is untouchable.
        let dropped = store.revise_from(1, |node, quality, ask| {
            if node == NodeId(2) {
                return false;
            }
            for q in quality.iter_mut() {
                *q *= 0.5;
            }
            *ask *= 2.0;
            true
        });
        assert_eq!(dropped, 1);
        assert_eq!(store.len(), 3);
        assert_eq!(store.quality(0), &[0.5, 0.5]);
        assert_eq!(store.ask(0), 0.1);
        assert_eq!(store.node(1), NodeId(1));
        assert_eq!(store.quality(1), &[0.45, 0.1]);
        assert_eq!(store.ask(1), 0.6);
        // Bid 3 compacted down into slot 2, order preserved.
        assert_eq!(store.node(2), NodeId(3));
        assert_eq!(store.quality(2), &[0.35, 0.35]);
        assert_eq!(store.ask(2), 0.8);

        // Dropping everything from 0 empties the store; resident bytes follow.
        let dropped = store.revise_from(0, |_, _, _| false);
        assert_eq!(dropped, 3);
        assert!(store.is_empty());
        assert_eq!(store.resident_bytes(), 0);
    }

    #[test]
    fn store_validates_bids_like_the_dense_path() {
        let mut store = BidStore::with_dims(2);
        assert!(matches!(
            store.push(NodeId(0), &[0.5], 0.1),
            Err(AuctionError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            store.push(NodeId(0), &[0.5, -0.1], 0.1),
            Err(AuctionError::InvalidParameter(_))
        ));
        assert!(matches!(
            store.push(NodeId(0), &[0.5, 0.5], f64::NAN),
            Err(AuctionError::InvalidParameter(_))
        ));
        assert!(store.push(NodeId(0), &[0.5, 0.5], 0.1).is_ok());
    }

    #[test]
    fn scoring_fills_the_score_column() {
        use crate::scoring::Additive;
        let mut store = store_of(&[(0, [1.0, 0.0], 0.25), (1, [0.0, 1.0], 0.5)]);
        let rule = ScoringRule::new(Additive::new(vec![1.0, 2.0]).unwrap());
        store.score_with(&rule).unwrap();
        assert!((store.score(0) - 0.75).abs() < 1e-12);
        assert!((store.score(1) - 1.5).abs() < 1e-12);
        // Wrong dimension is rejected.
        let bad = ScoringRule::new(Additive::new(vec![1.0]).unwrap());
        assert!(store.score_with(&bad).is_err());
    }

    #[test]
    fn tie_break_consumes_exactly_n_minus_one_words() {
        for n in [0usize, 1, 2, 3, 17] {
            let mut rng = seeded_rng(7);
            let mut tie = TieBreak::new();
            for _ in 0..n {
                tie.next_key(&mut rng);
            }
            tie.finish(&mut rng);
            let mut reference = seeded_rng(7);
            for _ in 0..n.saturating_sub(1) {
                let _ = rand::Rng::gen::<u64>(&mut reference);
            }
            assert_eq!(
                rand::Rng::gen::<u64>(&mut rng),
                rand::Rng::gen::<u64>(&mut reference),
                "n={n} draw count drifted from the historical shuffle"
            );
        }
    }

    #[test]
    fn tie_keys_are_distinct_and_shard_independent() {
        let mut rng = seeded_rng(3);
        let mut tie = TieBreak::new();
        let keys: Vec<u64> = (0..64).map(|_| tie.next_key(&mut rng)).collect();
        // Re-key index 0 the way a selector does once the salt exists.
        let mut keys = keys;
        keys[0] = tie.key_of(0);
        let mut dedup = keys.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), keys.len(), "keys must be pairwise distinct");
        // key_of is a pure function of (salt, i): recomputing matches.
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(tie.key_of(i), k);
        }
    }

    #[test]
    fn selector_keeps_the_best_k_and_best_dropped_score() {
        let mut selector = BidSelector::new(1, 3);
        let mut rng = seeded_rng(11);
        let scores = [0.1, 0.9, 0.4, 0.8, 0.2, 0.7, 0.95];
        for (i, &s) in scores.iter().enumerate() {
            selector.offer(NodeId(i as u64), &[s], 0.0, s, &mut rng);
        }
        assert_eq!(selector.offered(), scores.len());
        assert_eq!(selector.kept(), 3);
        assert!(selector.resident_bytes() > 0);
        let pool = selector.finish(&mut rng);
        let kept: Vec<u64> = pool.candidates().iter().map(|c| c.node.0).collect();
        assert_eq!(kept, vec![6, 1, 3], "best three scores in rank order");
        // Best dropped is the fourth-best score overall.
        assert!((pool.best_dropped_score().unwrap() - 0.7).abs() < 1e-12);
        assert_eq!(pool.offered(), scores.len());
        assert_eq!(pool.len(), 3);
        assert!(!pool.is_empty());
    }

    #[test]
    fn selector_matches_full_sort_under_duplicate_scores() {
        // Stream vs sort over a population full of exact ties: both must produce the same
        // order because they share the same (score, key) total order.
        let scores = [0.5, 0.5, 0.9, 0.5, 0.9, 0.1, 0.5];
        let mut selector = BidSelector::new(1, scores.len());
        let mut rng = seeded_rng(21);
        for (i, &s) in scores.iter().enumerate() {
            selector.offer(NodeId(i as u64), &[s], 0.0, s, &mut rng);
        }
        let pool = selector.finish(&mut rng);

        let mut rng2 = seeded_rng(21);
        let mut tie = TieBreak::new();
        let mut keyed: Vec<(usize, f64, u64)> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (i, s, tie.next_key(&mut rng2)))
            .collect();
        keyed[0].2 = tie.key_of(0);
        tie.finish(&mut rng2);
        keyed.sort_by(|a, b| rank_order(a.1, a.2, b.1, b.2));

        let streamed: Vec<u64> = pool.candidates().iter().map(|c| c.node.0).collect();
        let sorted: Vec<u64> = keyed.iter().map(|&(i, _, _)| i as u64).collect();
        assert_eq!(streamed, sorted);
        // And the RNG streams end at the same position.
        assert_eq!(
            rand::Rng::gen::<u64>(&mut rng),
            rand::Rng::gen::<u64>(&mut rng2)
        );
    }

    #[test]
    fn selection_is_independent_of_sharding() {
        use crate::scoring::Additive;
        let rule = ScoringRule::new(Additive::new(vec![1.0, 1.0]).unwrap());
        let rows: Vec<(u64, [f64; 2], f64)> = (0..40)
            .map(|i| {
                let q = [((i * 7) % 11) as f64 / 11.0, ((i * 5) % 13) as f64 / 13.0];
                (i, q, ((i * 3) % 7) as f64 / 10.0)
            })
            .collect();
        let run = |chunk: usize| {
            let mut selector = BidSelector::new(2, 8);
            let mut rng = seeded_rng(5);
            for shard in rows.chunks(chunk) {
                let mut store = store_of(shard);
                store.score_with(&rule).unwrap();
                selector.offer_store(&store, &mut rng);
            }
            let pool = selector.finish(&mut rng);
            pool.candidates()
                .iter()
                .map(|c| (c.node.0, c.score.to_bits(), c.key))
                .collect::<Vec<_>>()
        };
        let whole = run(40);
        assert_eq!(whole, run(1));
        assert_eq!(whole, run(7));
        assert_eq!(whole, run(13));
    }

    /// The pruning the admission floor buys, as a count: over a random-order stream only
    /// ≈ `capacity · ln(N / capacity)` bids can ever enter the pool, so the survivors
    /// handed to `absorb` must stay near that — while the floor-less call keeps returning
    /// each shard's full local top. A change that silently drops the floor fails here,
    /// not only in a benchmark.
    #[test]
    fn carried_floor_prunes_a_random_order_stream_to_a_few_survivors_per_shard() {
        let (n, shard, capacity) = (100_000usize, 8_192usize, 128usize);
        let mut rng = seeded_rng(0xF100D);
        let mut selector = BidSelector::new(1, capacity);
        let salt = selector.force_salt(&mut rng);
        let mut store = BidStore::with_capacity(1, shard);
        let mut absorbed = 0usize;
        for lo in (0..n).step_by(shard) {
            store.clear();
            for i in lo..(lo + shard).min(n) {
                store.push_trusted(NodeId(i as u64), &[0.0], 0.0);
            }
            for score in &mut store.scores {
                *score = rand::Rng::gen::<f64>(&mut rng);
            }
            let floorless = ShardSelection::select(&store, salt, lo, capacity);
            assert_eq!(floorless.len(), capacity.min(store.len()));
            let admission = selector.admission_floor().expect("salt forced above");
            let selection = ShardSelection::select_above(&store, lo, admission);
            assert_eq!(selection.offered(), store.len());
            absorbed += selection.len();
            selector.absorb(selection);
        }
        let bound = capacity as f64 * (2.0 + (n as f64 / shard as f64).ln());
        assert!(
            (absorbed as f64) <= bound,
            "absorbed {absorbed} candidates, bound {bound:.0}"
        );
        assert_eq!(selector.offered(), n);
        assert_eq!(selector.kept(), capacity);
    }

    /// `n` one-dimensional bids in shards of seven, scored on a grid of five values so that
    /// tie-break keys decide most of the ranking.
    fn tied_shards(n: u64) -> Vec<BidStore> {
        let rows: Vec<u64> = (0..n).collect();
        rows.chunks(7)
            .map(|chunk| {
                let mut store = BidStore::with_dims(1);
                for &i in chunk {
                    store.push_trusted(NodeId(i), &[0.0], 0.0);
                    *store.scores.last_mut().unwrap() = ((i * 7) % 5) as f64 / 4.0 - 0.5;
                }
                store
            })
            .collect()
    }

    /// The pool of a `capacity`-deep selector offered every shard in order under `seed`.
    fn sequential_pool(shards: &[BidStore], capacity: usize, seed: u64) -> StandingPool {
        let mut rng = seeded_rng(seed);
        let mut selector = BidSelector::new(1, capacity);
        for store in shards {
            selector.offer_store(store, &mut rng);
        }
        selector.finish(&mut rng)
    }

    #[test]
    fn truncated_pool_equals_a_selector_of_that_capacity() {
        let (n, k, reserve) = (40usize, 4usize, 3usize);
        let shards = tied_shards(n as u64);
        // A bounded deep pool (it dropped bids of its own) and one that kept everything.
        for deep_capacity in [12, n] {
            let deep = sequential_pool(&shards, deep_capacity, 9);
            assert_eq!(deep.len(), deep_capacity);
            for len in [1, k, k + reserve, deep.len(), deep.len() + 5] {
                let mut cut = deep.clone();
                cut.truncate(len);
                if len >= deep.len() {
                    assert_eq!(cut, deep, "len={len}: not a no-op");
                }
                if len <= deep.len() || deep.len() == n {
                    let shallow = sequential_pool(&shards, len, 9);
                    assert_eq!(cut.candidates(), shallow.candidates(), "len={len}");
                    assert_eq!(cut.offered(), shallow.offered(), "len={len}");
                    assert_eq!(
                        cut.best_dropped_score(),
                        shallow.best_dropped_score(),
                        "len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn replay_selector_reranks_the_round_deeper_without_the_rng() {
        let shards = tied_shards(40);
        let mut rng = seeded_rng(9);
        let mut first = BidSelector::new(1, 4);
        let salt = first.force_salt(&mut rng);
        for store in &shards {
            first.offer_store(store, &mut rng);
        }
        let shallow = first.finish(&mut rng);

        let mut replay = BidSelector::replay(1, 25, salt);
        for store in &shards {
            let admission = replay.admission_floor().expect("a replay knows its salt");
            let selection = ShardSelection::select_above(store, replay.offered(), admission);
            replay.absorb(selection);
        }
        let deep = replay.into_pool();
        assert_eq!(deep, sequential_pool(&shards, 25, 9));
        assert_eq!(&deep.candidates()[..4], shallow.candidates());
    }

    #[test]
    fn single_bid_round_consumes_no_rng() {
        let mut selector = BidSelector::new(1, 4);
        let mut rng = seeded_rng(9);
        selector.offer(NodeId(0), &[1.0], 0.5, 0.5, &mut rng);
        let pool = selector.finish(&mut rng);
        assert_eq!(pool.len(), 1);
        let mut untouched = seeded_rng(9);
        assert_eq!(
            rand::Rng::gen::<u64>(&mut rng),
            rand::Rng::gen::<u64>(&mut untouched)
        );
    }

    #[test]
    fn histogram_bins_preserve_score_order_and_merge_signed_zero() {
        // Higher score ⇒ same-or-higher bin, across signs.
        let samples = [
            -3.0e8, -1.5, -1e-300, 0.0, 1e-300, 0.25, 0.2500001, 7.0, 3.0e8,
        ];
        for w in samples.windows(2) {
            assert!(
                ScoreHistogram::bin_of(w[0]) <= ScoreHistogram::bin_of(w[1]),
                "bin order inverted between {} and {}",
                w[0],
                w[1]
            );
        }
        // rank_order treats -0.0 and +0.0 as equal, so they must share a bin.
        assert_eq!(ScoreHistogram::bin_of(-0.0), ScoreHistogram::bin_of(0.0));
        let mut hist = ScoreHistogram::new();
        for &s in &samples {
            hist.record(s);
        }
        assert_eq!(hist.total(), samples.len() as u64);
        assert_eq!(hist.resident_bytes(), ScoreHistogram::BINS * 8);
    }

    #[test]
    fn rank_refiner_reproduces_full_sort_ranks_bitwise() {
        use crate::scoring::Additive;
        let rule = ScoringRule::new(Additive::new(vec![1.0, 1.0]).unwrap());
        // Quantised qualities force plenty of exact score ties (within-bin ordering is then
        // decided purely by tie-break keys).
        let rows: Vec<(u64, [f64; 2], f64)> = (0..300)
            .map(|i| {
                let q = [((i * 7) % 5) as f64 / 5.0, ((i * 11) % 4) as f64 / 4.0];
                (i, q, ((i * 3) % 6) as f64 / 8.0)
            })
            .collect();
        let salt = 0xDECAF_u64;

        // Ground truth: the full-sort ranking under the same keys.
        let mut full: Vec<Candidate> = rows
            .iter()
            .enumerate()
            .map(|(i, &(node, q, ask))| {
                let mut store = BidStore::with_dims(2);
                store.push(NodeId(node), &q, ask).unwrap();
                store.score_with(&rule).unwrap();
                Candidate {
                    node: NodeId(node),
                    score: store.score(0),
                    key: derive_seed(salt, i as u64),
                    ask,
                    quality: q.to_vec(),
                }
            })
            .collect();
        full.sort_by(|a, b| rank_order(a.score, a.key, b.score, b.key));

        // First pass: histogram over shards.
        let mut hist = ScoreHistogram::new();
        for shard in rows.chunks(37) {
            let mut store = store_of(shard);
            store.score_with(&rule).unwrap();
            hist.record_store(&store);
        }
        assert_eq!(hist.total() as usize, rows.len());

        // Needed ranks spread across the ranking, including tied regions and the tail.
        let needed = vec![0usize, 1, 5, 17, 18, 19, 64, 123, 299];
        let mut refiner = RankRefiner::new(&hist, &needed, salt, 2);
        let mut base = 0;
        for shard in rows.chunks(37) {
            let mut store = store_of(shard);
            store.score_with(&rule).unwrap();
            refiner.offer_store(&store, base);
            base += store.len();
        }
        // Bounded: the refiner never holds more than deepest_rank + 1 candidates.
        assert!(refiner.resident_bytes() <= 300 * (std::mem::size_of::<Candidate>() + 16));
        let ranked = refiner.into_ranked();
        for &r in &needed {
            let c = ranked.get(r).expect("needed rank collected");
            assert_eq!(
                (c.node, c.score.to_bits(), c.key),
                (full[r].node, full[r].score.to_bits(), full[r].key),
                "rank {r} diverged from the full sort"
            );
        }
        // Ranks beyond every collected span are absent, not wrong.
        assert!(ranked.get(300).is_none());
    }

    #[test]
    fn rank_order_is_a_strict_total_order_on_distinct_keys() {
        assert_eq!(rank_order(1.0, 5, 0.5, 1), Ordering::Less);
        assert_eq!(rank_order(0.5, 1, 1.0, 5), Ordering::Greater);
        assert_eq!(rank_order(0.5, 1, 0.5, 2), Ordering::Less);
        assert_eq!(rank_order(0.5, 2, 0.5, 1), Ordering::Greater);
        // NaN scores fall back to the key order instead of panicking.
        assert_eq!(rank_order(f64::NAN, 1, f64::NAN, 2), Ordering::Less);
    }
}
