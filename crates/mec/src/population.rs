//! Lazily materialised node populations: million-node MEC fleets whose per-node state is
//! derived, not stored.
//!
//! The cluster simulator of [`crate::cluster`] materialises every [`MecNode`] up front —
//! fine for the paper's 31 machines, impossible for the populations the mechanism is
//! actually pitched at (related work frames winner determination at 10⁵–10⁶ edge bidders).
//! A [`NodePopulation`] stores **only its spec**: node `i`'s private cost parameter θ and
//! its per-round resource provision are pure functions of `(seed, i)` through
//! [`fmore_numerics::rng::derive_stream`], computed in O(1) when asked and never retained.
//! Only auction winners graduate to full state, via [`NodePopulation::materialize`].

use crate::error::MecError;
use crate::node::{MecNode, ResourceProfile, ResourceRanges};
use fmore_auction::{AuctionError, BidStore, EquilibriumSolver, ScoreCeiling};
use fmore_numerics::rng::{derive_seed, derive_stream, seeded_words, unit_f64};
use rand::Rng;

/// Tag streams keeping the θ draw, the per-round resource draws, and the materialised
/// node's private stream decorrelated from one another (the v1 contract), plus the root
/// tag of the v2 fused per-node counter stream.
const THETA_STREAM: u64 = 0x7A11;
const PROFILE_STREAM: u64 = 0x9E0D;
const NODE_STREAM: u64 = 0x1000;
const FUSED_STREAM: u64 = 0xF05E;

/// Which RNG stream contract a [`PopulationSpec`] derives node attributes under.
///
/// Both contracts fill shards through the one columnar pipeline of
/// [`NodePopulation::bid_range_into_store`] and differ only in its derivation pass: what
/// is hashed per node, not how a shard is processed.
///
/// * [`SpecVersion::V1`] — the original two-stream derivation: θ and the per-round
///   resource profile are each the first outputs of a generator seeded per node
///   (`derive_stream`; the shard pipeline computes the same words without the generator
///   value, [`fmore_numerics::rng::seeded_words`]). Every committed golden fingerprint and
///   every seeded history replays bit-for-bit under v1, which is why it stays the default.
/// * [`SpecVersion::V2`] — the fused single-stream derivation: node `i` owns **one**
///   counter-based SplitMix64 stream rooted at `w_i = derive_seed(derive_seed(seed,
///   FUSED_STREAM), i)`. θ is read from the stream root itself and the round-`r` profile
///   from the single child word `derive_seed(w_i, r)`, so a whole bid hashes two
///   SplitMix64 chains where v1 hashes up to ten and steps two generators — about half v1's
///   derivation cost, with its own committed goldens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpecVersion {
    /// Two generator streams per node (θ + profile); bit-compatible with every committed
    /// golden and seeded history.
    #[default]
    V1,
    /// One counter-based SplitMix64 stream per node: θ and the round's profile from two
    /// hash chains.
    V2,
}

/// The full description of a node population: everything needed to derive any node's
/// attributes on demand. The spec **is** the population — copying it is copying the fleet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopulationSpec {
    /// Number of edge nodes `N`.
    pub size: usize,
    /// Per-node resource ranges the round-by-round provision is drawn from.
    pub ranges: ResourceRanges,
    /// Support `[θ̲, θ̄]` of the private cost parameter.
    pub theta_range: (f64, f64),
    /// Root seed; node `i` derives every attribute from `(seed, i)`.
    pub seed: u64,
    /// The RNG stream contract node attributes are derived under.
    pub version: SpecVersion,
}

impl PopulationSpec {
    /// A population of `size` nodes on the paper's cluster hardware class with the
    /// scale-experiment θ support `[0.1, 0.9]`, under the golden-compatible
    /// [`SpecVersion::V1`] stream contract.
    pub fn scale_default(size: usize, seed: u64) -> Self {
        Self {
            size,
            ranges: ResourceRanges::paper_cluster(),
            theta_range: (0.1, 0.9),
            seed,
            version: SpecVersion::default(),
        }
    }

    /// The same spec under a different stream contract.
    pub fn with_version(mut self, version: SpecVersion) -> Self {
        self.version = version;
        self
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::InvalidConfig`] describing the first violated constraint.
    pub(crate) fn validate(&self) -> Result<(), MecError> {
        if self.size == 0 {
            return Err(MecError::InvalidConfig(
                "population size must be positive".into(),
            ));
        }
        if !self.ranges.is_valid() {
            return Err(MecError::InvalidConfig("invalid resource ranges".into()));
        }
        let (lo, hi) = self.theta_range;
        if !(lo.is_finite() && hi.is_finite() && 0.0 < lo && lo < hi) {
            return Err(MecError::InvalidConfig(format!(
                "theta range [{lo}, {hi}] must satisfy 0 < lo < hi < inf"
            )));
        }
        Ok(())
    }
}

/// A population of edge nodes whose attributes are derived on demand from the spec.
///
/// No per-node state exists until a node wins: bid collection asks for
/// [`NodePopulation::theta`] and [`NodePopulation::profile`] (both O(1), allocation-free
/// with [`NodePopulation::quality_into`]), and only winners pay for
/// [`NodePopulation::materialize`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePopulation {
    spec: PopulationSpec,
    /// Root of the v2 fused per-node counter stream, `derive_seed(seed, FUSED_STREAM)` —
    /// precomputed so the bid loop pays exactly two SplitMix64 chains per node.
    fused_root: u64,
}

impl NodePopulation {
    /// Builds the population after validating the spec.
    ///
    /// # Errors
    ///
    /// Propagates `PopulationSpec::validate` failures.
    pub fn new(spec: PopulationSpec) -> Result<Self, MecError> {
        spec.validate()?;
        Ok(Self {
            spec,
            fused_root: derive_seed(spec.seed, FUSED_STREAM),
        })
    }

    /// The population spec.
    pub fn spec(&self) -> &PopulationSpec {
        &self.spec
    }

    /// Number of nodes `N`.
    pub fn len(&self) -> usize {
        self.spec.size
    }

    /// Whether the population is empty (never true for a validated spec).
    pub fn is_empty(&self) -> bool {
        self.spec.size == 0
    }

    /// The per-dimension resource maxima used for quality normalisation.
    #[inline]
    pub(crate) fn maxima(&self) -> ResourceProfile {
        self.spec.ranges.maxima()
    }

    /// Node `i`'s v2 fused stream word — the single SplitMix64 chain everything v2 about
    /// the node hangs off.
    #[inline(always)]
    fn fused_word(&self, i: usize) -> u64 {
        derive_seed(self.fused_root, i as u64)
    }

    /// Node `i`'s private cost parameter θ — constant across rounds, derived O(1).
    #[inline]
    pub fn theta(&self, i: usize) -> f64 {
        let (lo, hi) = self.spec.theta_range;
        match self.spec.version {
            SpecVersion::V1 => {
                let mut rng = derive_stream(derive_seed(self.spec.seed, THETA_STREAM), i as u64);
                rng.gen_range(lo..hi)
            }
            SpecVersion::V2 => theta_from_word(self.fused_word(i), lo, hi),
        }
    }

    /// Node `i`'s resource provision in `round` — a fresh draw per round, derived O(1)
    /// without touching any other node's stream.
    #[inline]
    pub fn profile(&self, i: usize, round: u64) -> ResourceProfile {
        match self.spec.version {
            SpecVersion::V1 => {
                let mut rng = derive_stream(
                    derive_seed(self.spec.seed, PROFILE_STREAM ^ round.wrapping_mul(0x9E37)),
                    i as u64,
                );
                self.spec.ranges.draw(&mut rng)
            }
            SpecVersion::V2 => {
                profile_from_hash(&self.spec.ranges, derive_seed(self.fused_word(i), round))
            }
        }
    }

    /// Node `i`'s normalised quality vector in `round`, written into `out` (cleared first,
    /// capacity reused).
    #[inline]
    pub fn quality_into(&self, i: usize, round: u64, out: &mut Vec<f64>) {
        self.profile(i, round).quality_into(&self.maxima(), out);
    }

    /// Derives node `i`'s complete equilibrium bid for `round` in one shot: θ, the round's
    /// resource provision, the normalised capacity (written into `capacity`), and the
    /// tabulated equilibrium bid (clipped quality into `quality`, ask returned). Both
    /// vectors are cleared first and their allocations reused.
    ///
    /// This is the per-node form — generator values under [`SpecVersion::V1`], the fused
    /// stream word under [`SpecVersion::V2`] — and under either contract bit-for-bit the
    /// decomposed `theta` → `quality_into` → `tabulated_bid_into` sequence. Whole shards go
    /// through [`NodePopulation::bid_range_into_store`], which the property suite pins
    /// against this function bid for bid.
    ///
    /// # Errors
    ///
    /// Propagates [`EquilibriumSolver::tabulated_bid_into`] failures (θ outside the
    /// tabulated grid, dimension mismatch).
    #[inline(always)]
    pub fn bid_into(
        &self,
        i: usize,
        round: u64,
        solver: &EquilibriumSolver,
        capacity: &mut Vec<f64>,
        quality: &mut Vec<f64>,
    ) -> Result<f64, AuctionError> {
        match self.spec.version {
            SpecVersion::V1 => {
                let theta = self.theta(i);
                self.quality_into(i, round, capacity);
                solver.tabulated_bid_into(theta, capacity, quality)
            }
            SpecVersion::V2 => {
                let w = self.fused_word(i);
                let (lo, hi) = self.spec.theta_range;
                let theta = theta_from_word(w, lo, hi);
                let profile = profile_from_hash(&self.spec.ranges, derive_seed(w, round));
                profile.quality_into(&self.maxima(), capacity);
                solver.tabulated_bid_into(theta, capacity, quality)
            }
        }
    }

    /// Derives one shard's worth of equilibrium bids — the bids [`NodePopulation::bid_into`]
    /// yields for every node in `range`, bit for bit, appended to `store` via the trusted
    /// path (they come straight from the tabulated solver: quality clipped to a validated
    /// capacity, finite ask, so the store's submitter validation is redundant here).
    ///
    /// Both stream contracts run the same three columnar passes over the shard and differ
    /// only in the first. Pass A is the pure derivation — θ and the normalised capacity
    /// columns, written to per-thread scratch (`ShardScratch`); under either contract
    /// its loop body is straight-line integer hashing and IEEE-exact float mapping with
    /// no branches or calls, which LLVM vectorises under the AVX-512 tier (see
    /// `derive_shard_avx512`). The solver's batched grid lookup then vectorises the
    /// per-θ divide and floor, and its batched table tail walks the precomputed positions
    /// through the interpolation, writing straight onto the store's columns.
    ///
    /// Pass A and the grid lookup dispatch on the runtime SIMD gates themselves. Every
    /// operation involved is IEEE-exact (rounding, conversion, min/max, multiply/add in
    /// fixed order), so each accelerated tier is **bit-identical** to the scalar fallback
    /// and to the per-node path — the same discipline as the scoring kernels, pinned by
    /// the property suite on both sides of the dispatch.
    ///
    /// # Errors
    ///
    /// [`AuctionError::ThetaOutOfSupport`] for the first θ outside the solver's grid and
    /// [`AuctionError::DimensionMismatch`] for a solver that is not three-dimensional;
    /// both leave `store` unchanged.
    pub fn bid_range_into_store(
        &self,
        range: std::ops::Range<usize>,
        round: u64,
        solver: &EquilibriumSolver,
        store: &mut BidStore,
    ) -> Result<(), AuctionError> {
        self.fill_shard(range, round, solver, None, store)
    }

    /// [`NodePopulation::bid_range_into_store`] for a store that may omit bids: when the
    /// store carries an omit bound ([`BidStore::set_omit_bound`]), the nodes whose θ-cell
    /// ceiling lies below it are left out before anything but their θ is derived. Those
    /// bids score below the bound, so they could neither enter the round's pool nor
    /// change its best dropped score. The stored bids are bit for bit the unpruned
    /// shard's at their [`BidStore::offset`]s, and all of the range counts as offered.
    ///
    /// The shard pipeline gains a θ-only **pre-pass**: it derives each node's θ, flags the
    /// nodes whose grid coordinate lies below the bound's cut (which [`ScoreCeiling::cut`]
    /// resolves to one θ per shard, so the flag is a compare) — with an AVX-512 tier
    /// beside a bit-identical scalar core, as pass A has — and compacts the offsets of the
    /// flagged nodes without branching. Pass A, the grid lookup and the table tail then
    /// run over those survivors only. A θ outside the solver's support always survives,
    /// so errors are the unpruned fill's.
    /// A shard that would omit less than an eighth of its nodes stores them all: the
    /// compaction would buy little, and the offset column could outweigh the bids saved.
    ///
    /// `ceiling` must be `solver`'s ([`EquilibriumSolver::score_ceiling`]) under the
    /// round's scoring rule.
    ///
    /// # Errors
    ///
    /// As [`NodePopulation::bid_range_into_store`].
    pub fn bid_range_into_store_pruned(
        &self,
        range: std::ops::Range<usize>,
        round: u64,
        solver: &EquilibriumSolver,
        ceiling: &ScoreCeiling,
        store: &mut BidStore,
    ) -> Result<(), AuctionError> {
        self.fill_shard(range, round, solver, Some(ceiling), store)
    }

    /// The one shard pipeline behind both entry points.
    fn fill_shard(
        &self,
        range: std::ops::Range<usize>,
        round: u64,
        solver: &EquilibriumSolver,
        ceiling: Option<&ScoreCeiling>,
        store: &mut BidStore,
    ) -> Result<(), AuctionError> {
        let offered = range.len();
        let cut = match (ceiling, store.omit_bound()) {
            (Some(ceiling), Some(bound)) if u32::try_from(offered).is_ok() => {
                ceiling.cut(bound).map(|cut| (ceiling, cut))
            }
            _ => None,
        };
        SHARD_SCRATCH.with(|cell| {
            let ShardScratch {
                columns,
                keep,
                offsets,
            } = &mut *cell.borrow_mut();
            let kept = match cut {
                Some((ceiling, cut)) => {
                    keep.resize(offered, 0);
                    offsets.resize(offered, 0);
                    self.survivors(range.start, ceiling, cut, keep, offsets)
                }
                None => offered,
            };
            let offsets = (kept * 8 <= offered * 7).then(|| &offsets[..kept]);
            columns.resize(offsets.map_or(offered, <[u32]>::len));
            self.derive_shard(range.start, offsets, round, columns);
            // Every θ is validated here, before the store is touched.
            solver.grid_pos_batch(&columns.thetas, &mut columns.idx, &mut columns.frac)?;
            let tail = |qualities: &mut [f64], asks: &mut [f64]| {
                let capacity = [&columns.c0[..], &columns.c1, &columns.c2];
                solver.tabulated_bids_at(&columns.idx, &columns.frac, capacity, qualities, asks)
            };
            match offsets {
                Some(offsets) => {
                    store.extend_trusted_at(range.start as u64, offsets, offered, tail)
                }
                None => store.extend_trusted_with(range.start as u64..range.end as u64, tail),
            }
        })
    }

    /// The θ-only pre-pass over the nodes from `start` on (as many as `keep` holds):
    /// `keep[j]` becomes 1 when node `start + j` may still reach the omit bound — its θ
    /// lies below the ceiling's `cut`, or outside the solver's support — and 0 otherwise;
    /// then the flagged offsets are compacted to the front of `offsets` and counted.
    /// Dispatches like [`NodePopulation::derive_shard`].
    fn survivors(
        &self,
        start: usize,
        ceiling: &ScoreCeiling,
        cut: f64,
        keep: &mut [u8],
        offsets: &mut [u32],
    ) -> usize {
        #[cfg(target_arch = "x86_64")]
        if fmore_numerics::avx512_enabled() {
            // SAFETY: the AVX-512 gate just confirmed the F/DQ/VL subsets at runtime.
            return unsafe { survivors_avx512(self, start, ceiling, cut, keep, offsets) };
        }
        self.survivors_core(start, ceiling, cut, keep, offsets)
    }

    /// The loops behind [`NodePopulation::survivors`]: θ derived exactly as pass A derives
    /// it, then three compares — straight-line, IEEE-exact, so the AVX-512 compile flags
    /// the same nodes as the scalar one — and the branch-free [`compact_survivors`].
    #[inline(always)]
    fn survivors_core(
        &self,
        start: usize,
        ceiling: &ScoreCeiling,
        cut: f64,
        keep: &mut [u8],
        offsets: &mut [u32],
    ) -> usize {
        let (lo, hi) = self.spec.theta_range;
        let flag = |theta: f64| u8::from((theta < cut) | !ceiling.in_support(theta));
        match self.spec.version {
            SpecVersion::V1 => {
                let theta_root = derive_seed(self.spec.seed, THETA_STREAM);
                for (j, k) in keep.iter_mut().enumerate() {
                    let [t] = seeded_words(derive_seed(theta_root, (start + j) as u64));
                    *k = flag(theta_from_word(t, lo, hi));
                }
            }
            SpecVersion::V2 => {
                for (j, k) in keep.iter_mut().enumerate() {
                    *k = flag(theta_from_word(self.fused_word(start + j), lo, hi));
                }
            }
        }
        compact_survivors(keep, offsets)
    }

    /// Pass A of the shard pipeline: fills the scratch's θ and normalised capacity columns
    /// in `round` for as many nodes as the columns were sized for — the nodes from `start`
    /// on, or, given `offsets`, the nodes `start + offsets[j]`. Dispatches to the
    /// AVX-512-compiled twin when the CPU supports it (and
    /// [`fmore_numerics::avx512_enabled`] allows it), to the scalar core otherwise.
    fn derive_shard(
        &self,
        start: usize,
        offsets: Option<&[u32]>,
        round: u64,
        columns: &mut ShardColumns,
    ) {
        #[cfg(target_arch = "x86_64")]
        if fmore_numerics::avx512_enabled() {
            // SAFETY: the AVX-512 gate just confirmed the F/DQ/VL subsets at runtime.
            return unsafe { derive_shard_avx512(self, start, offsets, round, columns) };
        }
        self.derive_shard_at(start, offsets, round, columns);
    }

    /// Resolves which nodes [`NodePopulation::derive_shard`] derives into one of two
    /// compiles of the core: consecutive nodes, or the survivors' offsets.
    #[inline(always)]
    fn derive_shard_at(
        &self,
        start: usize,
        offsets: Option<&[u32]>,
        round: u64,
        columns: &mut ShardColumns,
    ) {
        let start = start as u64;
        match offsets {
            None => self.derive_shard_core(|j| start + j as u64, round, columns),
            Some(offsets) => {
                let offsets = &offsets[..columns.thetas.len()];
                self.derive_shard_core(|j| start + u64::from(offsets[j]), round, columns);
            }
        }
    }

    /// The generic loops behind [`NodePopulation::derive_shard`] over the nodes `node(j)`,
    /// one per stream contract (with the pre-pass the only place the shard pipeline knows
    /// the version); `inline(always)` so the `target_feature` wrapper compiles the whole
    /// body under the wider instruction set. Every operation is IEEE-exact (integer
    /// hashing, `u64 → f64` conversion, multiply/add in fixed order, `round`/[`snap`],
    /// min/max), so the vectorised compile is bit-identical to the scalar one.
    #[inline(always)]
    fn derive_shard_core(
        &self,
        node: impl Fn(usize) -> u64,
        round: u64,
        columns: &mut ShardColumns,
    ) {
        let (lo, hi) = self.spec.theta_range;
        let maxima = self.maxima();
        let ranges = &self.spec.ranges;
        // One length for all four columns, so the stores below need no bounds checks.
        let ShardColumns {
            thetas, c0, c1, c2, ..
        } = columns;
        let n = thetas.len();
        let (c0, c1, c2) = (&mut c0[..n], &mut c1[..n], &mut c2[..n]);
        let mut emit = |j: usize, theta: f64, profile: ResourceProfile| {
            thetas[j] = theta;
            [c0[j], c1[j], c2[j]] = profile.to_quality_array(&maxima);
        };
        match self.spec.version {
            // The draws of `theta` and `profile` without the generator values: θ is the
            // first output of node `i`'s θ stream, the profile the first outputs of its
            // round stream, one per non-degenerate range in cpu, bandwidth, data order
            // (`ResourceRanges::draw` skips the draw for a range with `lo == hi`). Which
            // word feeds which dimension is therefore fixed for the shard and resolved
            // here — an index computed per node would keep the loop from vectorising.
            SpecVersion::V1 => {
                let theta_root = derive_seed(self.spec.seed, THETA_STREAM);
                let profile_root =
                    derive_seed(self.spec.seed, PROFILE_STREAM ^ round.wrapping_mul(0x9E37));
                let cpu_draws = ranges.cpu_cores.1 > ranges.cpu_cores.0;
                let bandwidth_draws = ranges.bandwidth_mbps.1 > ranges.bandwidth_mbps.0;
                for j in 0..n {
                    let i = node(j);
                    let [t] = seeded_words(derive_seed(theta_root, i));
                    let [w0, w1, w2] = seeded_words(derive_seed(profile_root, i));
                    let bandwidth = if cpu_draws { w1 } else { w0 };
                    let data = match (cpu_draws, bandwidth_draws) {
                        (true, true) => w2,
                        (false, false) => w0,
                        _ => w1,
                    };
                    let units = [w0, bandwidth, data].map(unit_f64);
                    let profile = profile_from_units(ranges, units, f64::round);
                    emit(j, theta_from_word(t, lo, hi), profile);
                }
            }
            SpecVersion::V2 => {
                for j in 0..n {
                    let w = derive_seed(self.fused_root, node(j));
                    let profile = profile_from_hash(ranges, derive_seed(w, round));
                    emit(j, theta_from_word(w, lo, hi), profile);
                }
            }
        }
    }

    /// Materialises the full [`MecNode`] for node `i` — what an auction winner graduates
    /// to when it must carry live state (resource refresh stream, training client). The
    /// node's private stream is derived from the same `(seed, i)` root, so materialising
    /// twice yields the identical node.
    pub fn materialize(&self, i: usize) -> MecNode {
        MecNode::new(
            fmore_auction::NodeId(i as u64),
            self.spec.ranges,
            self.theta(i),
            derive_seed(self.spec.seed, NODE_STREAM + i as u64),
        )
    }
}

/// Per-thread scratch for the shard pipeline: the pre-pass's survivor flags and offsets,
/// and the columns of the bids it derives. Sized once per worker thread and reused every
/// shard, so the steady-state round allocates nothing and never pays the zero-fill of
/// fresh buffers.
#[derive(Default)]
struct ShardScratch {
    columns: ShardColumns,
    /// Per offered node: whether it survived the pre-pass.
    keep: Vec<u8>,
    /// The survivors' offsets, compacted to the front.
    offsets: Vec<u32>,
}

/// Pass-A outputs (θ and the three capacity columns) plus the batched grid positions, one
/// entry per derived bid.
#[derive(Default)]
struct ShardColumns {
    thetas: Vec<f64>,
    c0: Vec<f64>,
    c1: Vec<f64>,
    c2: Vec<f64>,
    idx: Vec<f64>,
    frac: Vec<f64>,
}

impl ShardColumns {
    fn resize(&mut self, n: usize) {
        self.thetas.resize(n, 0.0);
        self.c0.resize(n, 0.0);
        self.c1.resize(n, 0.0);
        self.c2.resize(n, 0.0);
        self.idx.resize(n, 0.0);
        self.frac.resize(n, 0.0);
    }
}

std::thread_local! {
    /// See [`ShardScratch`] — one per worker thread, reused across shards and rounds.
    static SHARD_SCRATCH: std::cell::RefCell<ShardScratch> =
        std::cell::RefCell::new(ShardScratch::default());
}

/// AVX-512-compiled twin of [`NodePopulation::derive_shard_core`] — identical code under
/// `target_feature(enable = "avx512f,avx512dq,avx512vl")`, bit-identical results. The F
/// subset supplies the 8-wide f64 lanes, DQ the 64-bit lane multiplies (`vpmullq`) and
/// `u64 → f64` conversions (`vcvtuqq2pd`) the SplitMix64 chains and unit mappings
/// vectorise over, and VL the narrower encodings for the loop remainder.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
unsafe fn derive_shard_avx512(
    population: &NodePopulation,
    start: usize,
    offsets: Option<&[u32]>,
    round: u64,
    columns: &mut ShardColumns,
) {
    population.derive_shard_at(start, offsets, round, columns);
}

/// AVX-512-compiled twin of [`NodePopulation::survivors_core`] — the θ hash chains and
/// mappings across 8-wide lanes, the same survivors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
unsafe fn survivors_avx512(
    population: &NodePopulation,
    start: usize,
    ceiling: &ScoreCeiling,
    cut: f64,
    keep: &mut [u8],
    offsets: &mut [u32],
) -> usize {
    population.survivors_core(start, ceiling, cut, keep, offsets)
}

/// Writes the offsets of the flagged nodes (`keep` holds 0 or 1 per node) to the front of
/// `offsets`, which is as long as `keep`, and returns how many there are — without a
/// branch on the flags. Eight flags at a time become an 8-bit mask, the mask indexes the
/// positions of its set bits ([`SET_BITS`]), all eight of them are written, and the write
/// position advances by the flags' sum; what lands past it is overwritten next.
#[inline(always)]
fn compact_survivors(keep: &[u8], offsets: &mut [u32]) -> usize {
    let mut kept = 0;
    let chunks = keep.chunks_exact(8);
    let tail = chunks.remainder();
    for (c, chunk) in chunks.enumerate() {
        let flags = u64::from_le_bytes(chunk.try_into().expect("chunks of eight"));
        // Gathers byte k's low bit into bit 56 + k; no two partial products collide.
        let mask = (flags.wrapping_mul(0x0102_0408_1020_4080) >> 56) as usize;
        let base = (8 * c) as u32;
        for (slot, &bit) in offsets[kept..kept + 8].iter_mut().zip(&SET_BITS[mask]) {
            *slot = base + u32::from(bit);
        }
        kept += (flags.wrapping_mul(0x0101_0101_0101_0101) >> 56) as usize;
    }
    let base = keep.len() - tail.len();
    for (j, &flag) in tail.iter().enumerate() {
        offsets[kept] = (base + j) as u32;
        kept += usize::from(flag);
    }
    kept
}

/// For each 8-bit mask, the indices of its set bits in ascending order (zero-padded).
const SET_BITS: [[u8; 8]; 256] = {
    let mut table = [[0; 8]; 256];
    let mut mask = 0;
    while mask < 256 {
        let (mut bit, mut count) = (0, 0);
        while bit < 8 {
            if mask >> bit & 1 == 1 {
                table[mask][count] = bit as u8;
                count += 1;
            }
            bit += 1;
        }
        mask += 1;
    }
    table
};

/// θ from one 64-bit word, mapped onto `[lo, hi)` exactly as the generator's float
/// `gen_range(lo..hi)` maps its next output, exclusive-top clamp included: the v2 draw
/// from the node's fused stream word, and the v1 draw when handed the θ stream's first
/// output.
#[inline(always)]
fn theta_from_word(w: u64, lo: f64, hi: f64) -> f64 {
    let v = lo + (hi - lo) * unit_f64(w);
    if v >= hi {
        (hi - (hi - lo) * f64::EPSILON).max(lo)
    } else {
        v
    }
}

/// Maps a 21-bit field to a unit draw in `[0, 1)` — the v2 per-dimension resolution
/// (three dimensions share one 64-bit word; a 2⁻²¹ step is far below every range's
/// rounding or normalisation granularity).
#[inline(always)]
fn unit21(x: u64) -> f64 {
    (x & 0x1F_FFFF) as f64 * (1.0 / (1u64 << 21) as f64)
}

/// Inclusive-range sample matching `ResourceRanges::draw`'s `gen_range(lo..=hi)`
/// semantics: degenerate ranges collapse to `hi`, and the mapped value is capped at `hi`.
#[inline(always)]
fn inclusive_sample(lo: f64, hi: f64, unit: f64) -> f64 {
    if hi > lo {
        let v = lo + (hi - lo) * unit;
        if v > hi {
            hi
        } else {
            v
        }
    } else {
        hi
    }
}

/// The v2 integer-snapping contract: `(x + 0.5).floor()`. One rounding instruction in
/// both scalar and vector code (`roundsd`/`vrndscalepd` in floor mode) — unlike `round`'s
/// half-away-from-zero, which has no vector encoding and forces a libm call on baseline
/// targets. For the non-negative draws the v2 mapping produces, `x + 0.5` is exact at
/// every halfway case on the resource grids, so the result equals `round` on every
/// representable draw.
#[inline(always)]
fn snap(x: f64) -> f64 {
    (x + 0.5).floor()
}

/// `ResourceRanges::draw`'s per-dimension mapping (cpu, bandwidth, data in that order)
/// over three unit draws, the integer dimensions rounded by `integral` — `f64::round`
/// under v1, [`snap`] under v2.
#[inline(always)]
fn profile_from_units(
    ranges: &ResourceRanges,
    [cpu, bandwidth, data]: [f64; 3],
    integral: impl Fn(f64) -> f64,
) -> ResourceProfile {
    let sample = |(lo, hi): (f64, f64), unit| inclusive_sample(lo, hi, unit);
    ResourceProfile {
        cpu_cores: integral(sample(ranges.cpu_cores, cpu)).max(1.0),
        bandwidth_mbps: sample(ranges.bandwidth_mbps, bandwidth),
        data_size: integral(sample(ranges.data_size, data)),
    }
}

/// v2 profile draw: splits one per-round hash into three 21-bit unit draws, with integer
/// dimensions snapped under the v2 [`snap`] contract.
#[inline(always)]
fn profile_from_hash(ranges: &ResourceRanges, h: u64) -> ResourceProfile {
    let units = [unit21(h), unit21(h >> 21), unit21(h >> 42)];
    profile_from_units(ranges, units, snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(size: usize) -> PopulationSpec {
        PopulationSpec::scale_default(size, 42)
    }

    #[test]
    fn spec_validation_catches_mistakes() {
        assert!(spec(100).validate().is_ok());
        assert!(spec(0).validate().is_err());
        let mut bad = spec(10);
        bad.theta_range = (0.5, 0.5);
        assert!(bad.validate().is_err());
        let mut bad = spec(10);
        bad.theta_range = (0.0, 0.9);
        assert!(bad.validate().is_err());
        let mut bad = spec(10);
        bad.ranges.cpu_cores = (0.0, 4.0);
        assert!(NodePopulation::new(bad).is_err());
    }

    #[test]
    fn derived_attributes_are_pure_functions_of_seed_and_index() {
        let pop = NodePopulation::new(spec(1000)).unwrap();
        assert_eq!(pop.len(), 1000);
        assert!(!pop.is_empty());
        for &i in &[0usize, 1, 17, 999] {
            assert_eq!(pop.theta(i), pop.theta(i), "theta must be deterministic");
            assert_eq!(pop.profile(i, 3), pop.profile(i, 3));
            let (lo, hi) = pop.spec().theta_range;
            assert!((lo..hi).contains(&pop.theta(i)));
        }
        // Different nodes and different rounds see different draws.
        assert_ne!(pop.theta(0), pop.theta(1));
        assert_ne!(pop.profile(5, 0), pop.profile(5, 1));
        // A different seed is a different fleet.
        let other = NodePopulation::new(PopulationSpec {
            seed: 43,
            ..*pop.spec()
        })
        .unwrap();
        assert_ne!(pop.theta(0), other.theta(0));
    }

    #[test]
    fn profiles_stay_within_ranges_and_qualities_in_unit_cube() {
        let pop = NodePopulation::new(spec(64)).unwrap();
        let mut q = Vec::new();
        for i in 0..64 {
            let p = pop.profile(i, 7);
            assert!((1.0..=8.0).contains(&p.cpu_cores));
            assert!((100.0..=1000.0).contains(&p.bandwidth_mbps));
            assert!((2000.0..=10_000.0).contains(&p.data_size));
            pop.quality_into(i, 7, &mut q);
            assert_eq!(q.len(), 3);
            assert!(q.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn materialized_nodes_match_their_derived_attributes() {
        let pop = NodePopulation::new(spec(32)).unwrap();
        let node = pop.materialize(9);
        assert_eq!(node.id(), fmore_auction::NodeId(9));
        assert!((node.theta() - pop.theta(9)).abs() < 1e-15);
        assert_eq!(*node.ranges(), pop.spec().ranges);
        // Materialising twice yields the identical node state.
        let again = pop.materialize(9);
        assert_eq!(node.current(), again.current());
    }

    fn tiny_solver(theta_range: (f64, f64)) -> EquilibriumSolver {
        let auction = fmore_auction::Auction::new(
            fmore_auction::ScoringRule::new(
                fmore_auction::Additive::new(vec![0.4, 0.3, 0.3]).unwrap(),
            ),
            8,
            fmore_auction::SelectionRule::TopK,
            fmore_auction::PricingRule::FirstPrice,
        );
        let cost = fmore_auction::LinearCost::new(vec![0.3, 0.3, 0.4]).unwrap();
        auction.equilibrium(cost, theta_range, 64, 48).unwrap()
    }

    #[test]
    fn v2_attributes_are_deterministic_in_range_and_distinct_from_v1() {
        let v1 = NodePopulation::new(spec(256)).unwrap();
        let v2 = NodePopulation::new(spec(256).with_version(SpecVersion::V2)).unwrap();
        let (lo, hi) = v2.spec().theta_range;
        let mut q = Vec::new();
        for i in 0..256 {
            assert_eq!(v2.theta(i), v2.theta(i));
            assert!((lo..hi).contains(&v2.theta(i)));
            let p = v2.profile(i, 5);
            assert_eq!(p, v2.profile(i, 5));
            assert!((1.0..=8.0).contains(&p.cpu_cores));
            assert!((100.0..=1000.0).contains(&p.bandwidth_mbps));
            assert!((2000.0..=10_000.0).contains(&p.data_size));
            assert_eq!(p.cpu_cores, p.cpu_cores.round());
            assert_eq!(p.data_size, p.data_size.round());
            v2.quality_into(i, 5, &mut q);
            assert!(q.iter().all(|v| (0.0..=1.0).contains(v)));
        }
        // The contracts really are different streams.
        assert!((0..256).any(|i| v1.theta(i) != v2.theta(i)));
        assert!((0..256).any(|i| v1.profile(i, 0) != v2.profile(i, 0)));
        // θ is round-independent while profiles are per-round draws.
        assert_ne!(v2.profile(7, 0), v2.profile(7, 1));
    }

    #[test]
    fn bid_into_matches_decomposed_derivation_under_both_versions() {
        for version in [SpecVersion::V1, SpecVersion::V2] {
            let pop = NodePopulation::new(spec(64).with_version(version)).unwrap();
            let solver = tiny_solver(pop.spec().theta_range);
            let (mut cap, mut qual) = (Vec::new(), Vec::new());
            let (mut cap2, mut qual2) = (Vec::new(), Vec::new());
            for i in (0..64).step_by(7) {
                for round in [0u64, 3] {
                    let ask = pop
                        .bid_into(i, round, &solver, &mut cap, &mut qual)
                        .unwrap();
                    let theta = pop.theta(i);
                    pop.quality_into(i, round, &mut cap2);
                    let ask2 = solver.tabulated_bid_into(theta, &cap2, &mut qual2).unwrap();
                    assert_eq!(ask.to_bits(), ask2.to_bits(), "{version:?} node {i}");
                    assert_eq!(cap, cap2);
                    assert_eq!(qual, qual2);
                }
            }
        }
    }

    #[test]
    fn materialized_nodes_follow_the_spec_version() {
        let pop = NodePopulation::new(spec(32).with_version(SpecVersion::V2)).unwrap();
        let node = pop.materialize(9);
        assert_eq!(node.theta().to_bits(), pop.theta(9).to_bits());
    }
}
