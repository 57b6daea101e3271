//! Global aggregation (FedAvg, Eq. 3 of the paper), with typed rejection of poisoned
//! updates and a screening pass that quarantines them instead of failing the round.
//!
//! Byzantine-resilient aggregation lives behind the [`AggregationRule`] trait: FedAvg and
//! the median-norm screen are the baseline impls, joined by coordinate-wise-median,
//! trimmed-mean, and Krum/multi-Krum backends. The robust backends share one shape — a
//! robust *center* estimate, a distance screen against that center, then FedAvg over the
//! survivors — so a batch with no outliers aggregates **bit-for-bit** like plain FedAvg
//! (pinned by the property suite), while Byzantine updates are quarantined with typed
//! reasons the reputation ledger can act on. Driven through
//! [`AggregationRule::aggregate_with`] and a reused [`AggregationScratch`], every rule is
//! allocation-free in steady state, with one exception: the returned
//! [`ScreenedAggregation::quarantined`] `Vec` allocates whenever something is quarantined.
//!
//! The kernels are portable safe Rust whose vectorisation is left to the compiler. The
//! median and trimmed-mean centers sort no coordinate: they copy a block of `BLOCK` (32)
//! coordinates of every member into a member-major tile (rows padded with `+∞` to a power of
//! two) and run one bitonic network over it, each compare-exchange a branch-free conditional
//! swap across the block's lanes. The exact reductions — member-to-center distances, the
//! norm screen's norms and Krum's pair matrix — interleave `FOLDS` (8) independent left
//! folds against one shared base row, each still summed in coordinate order, so their adds
//! pipeline without reassociation. Every output bit is what a per-coordinate stable sort
//! and one fold at a time produce; the unit tests hold the two to that against the
//! original code.

use crate::error::FlError;
use crate::faults::validate_at_least;

/// The data-size-weighted average of Eq. 3, `w(t+1) = Σ D_i w_i(t+1) / Σ D_i`, written
/// into `out` (cleared first, capacity reused): the core of [`FedAvg`] and the survivor
/// average of every screening rule. Updates with non-positive weight are ignored. Returns
/// `Ok(false)` — leaving `out` empty — when there are no usable updates or the parameter
/// vectors disagree in length.
///
/// # Errors
///
/// [`FlError::NonFiniteUpdate`] when an accepted (positive-weight) update contains a
/// non-finite parameter — such a value would silently poison every coordinate of the
/// global model; `out` is left empty.
fn federated_average_into<'a, I>(updates: I, out: &mut Vec<f64>) -> Result<bool, FlError>
where
    I: IntoIterator<Item = (&'a [f64], f64)>,
{
    out.clear();
    let mut initialised = false;
    let mut total_weight = 0.0;
    for (index, (params, weight)) in updates.into_iter().enumerate() {
        if weight <= 0.0 {
            continue;
        }
        if !params.iter().all(|p| p.is_finite()) {
            out.clear();
            return Err(FlError::NonFiniteUpdate { index });
        }
        if !initialised {
            out.extend(params.iter().map(|p| p * weight));
            initialised = true;
        } else {
            if params.len() != out.len() {
                out.clear();
                return Ok(false);
            }
            for (a, p) in out.iter_mut().zip(params) {
                *a += p * weight;
            }
        }
        total_weight += weight;
    }
    if !initialised || total_weight <= 0.0 {
        out.clear();
        return Ok(false);
    }
    for a in out.iter_mut() {
        *a /= total_weight;
    }
    Ok(true)
}

/// Screening policy of [`MedianNormScreen`]: an update is quarantined when any
/// parameter is non-finite, or when its L2 norm exceeds `norm_factor ×` the median norm of
/// the finite updates in the batch (a relative gate, so the policy needs no knowledge of
/// the model's scale).
#[derive(Debug, Clone, PartialEq)]
pub struct ScreenPolicy {
    /// Multiple of the batch's median update norm beyond which an update is an outlier.
    pub norm_factor: f64,
}

impl Default for ScreenPolicy {
    fn default() -> Self {
        Self { norm_factor: 8.0 }
    }
}

/// Why one update was quarantined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateFault {
    /// The update contains a NaN/±∞ parameter.
    NonFinite,
    /// The update's norm is a `norm_factor` outlier against the batch median.
    NormOutlier {
        /// The offending update's L2 norm.
        norm: f64,
        /// The limit it exceeded (`norm_factor × median`).
        limit: f64,
    },
    /// The update sits a `distance_factor` outlier from a robust rule's center estimate
    /// (coordinate median, trimmed mean, or the Krum selection mean).
    FarFromCenter {
        /// L2 distance of the update from the robust center.
        distance: f64,
        /// The limit it exceeded (`distance_factor × median distance`).
        limit: f64,
    },
}

/// One quarantined update of a screened aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quarantine {
    /// Index of the update in the batch handed to [`AggregationRule::aggregate_with`].
    pub index: usize,
    /// Why it was rejected.
    pub fault: UpdateFault,
}

/// Outcome of one screened aggregation pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ScreenedAggregation {
    /// Updates that passed screening and were aggregated.
    pub accepted: usize,
    /// Updates rejected by screening, with their typed reasons, in batch order.
    pub quarantined: Vec<Quarantine>,
}

/// Reusable buffers for [`AggregationRule::aggregate_with`]. One scratch per driver keeps
/// every rule allocation-free in steady state, apart from the returned
/// [`ScreenedAggregation::quarantined`] list: the buffers grow to the batch's high-water
/// mark on the first rounds and are only rewound (never freed) afterwards.
#[derive(Debug, Clone, Default)]
pub struct AggregationScratch {
    /// Per-update L2 norms (`None` = non-finite), batch order. Norm screen only.
    norms: Vec<Option<f64>>,
    /// Batch indices of the updates a screen measures (finite, and positive-weight for
    /// the distance screens), batch order.
    members: Vec<usize>,
    /// Batch indices that passed the screen and feed FedAvg, batch order.
    survivors: Vec<usize>,
    /// The rule's robust center estimate (`dim` long).
    center: Vec<f64>,
    /// One block of coordinates, one row per member, padded with `+∞` rows to a power of
    /// two (median/trimmed-mean).
    tile: Vec<[f64; BLOCK]>,
    /// One member's distances to the others (Krum).
    column: Vec<f64>,
    /// L2 distance of each member from the center, member order.
    dists: Vec<f64>,
    /// Zeros as long as the longest update: the point norms are distances from.
    origin: Vec<f64>,
    /// Sort buffer for medians.
    sorted: Vec<f64>,
    /// Pairwise squared distances between members (`n × n`, row-major). Krum only.
    pair: Vec<f64>,
    /// Krum score per member.
    scores: Vec<f64>,
    /// Member positions sorted by Krum score (ties broken by batch index).
    order: Vec<usize>,
}

impl AggregationScratch {
    /// A fresh scratch with empty buffers (they size themselves on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// A pluggable global-aggregation backend: turns one round's update batch into the new
/// global parameter vector, quarantining what it rejects.
///
/// The contract every impl honours (pinned by the property suite):
///
/// - **FedAvg parity.** On a batch with no outliers — in particular, with zero
///   adversaries — the output is bit-for-bit what [`FedAvg`] produces.
/// - **Permutation invariance.** The accepted/quarantined *sets* do not depend on batch
///   order (aggregation itself is reduced in a fixed batch-index order, so the output
///   bits do not either).
/// - **Graceful degradation.** Rejecting every update of a non-empty batch is the typed,
///   retryable [`FlError::AllUpdatesQuarantined`] — never a panic, never a silently
///   stale model.
///
/// Updates with non-positive weight are ignored exactly as FedAvg ignores them (not
/// screened, not quarantined, not aggregated).
pub trait AggregationRule: Send + Sync + std::fmt::Debug {
    /// Stable lowercase identifier (used in reports and experiment tables).
    fn name(&self) -> &'static str;

    /// Validates the rule's own parameters (e.g. a distance factor below 1 would
    /// quarantine the median update itself).
    ///
    /// # Errors
    ///
    /// [`FlError::InvalidConfig`] naming the offending field.
    fn validate(&self) -> Result<(), FlError> {
        Ok(())
    }

    /// Aggregates `updates` into `out` (cleared first), reusing `scratch`'s buffers.
    ///
    /// # Errors
    ///
    /// [`FlError::AllUpdatesQuarantined`] when the rule rejected every update of a
    /// non-empty batch; [`FlError::NonFiniteUpdate`] only from [`FedAvg`], which does not
    /// screen.
    fn aggregate_with(
        &self,
        updates: &[(&[f64], f64)],
        out: &mut Vec<f64>,
        scratch: &mut AggregationScratch,
    ) -> Result<ScreenedAggregation, FlError>;
}

/// Plain FedAvg (Eq. 3) as an [`AggregationRule`]: no screening, every positive-weight
/// update is accepted, and a non-finite parameter is a hard [`FlError::NonFiniteUpdate`].
/// The baseline the robust rules are measured against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FedAvg;

impl AggregationRule for FedAvg {
    fn name(&self) -> &'static str {
        "fedavg"
    }

    fn aggregate_with(
        &self,
        updates: &[(&[f64], f64)],
        out: &mut Vec<f64>,
        _scratch: &mut AggregationScratch,
    ) -> Result<ScreenedAggregation, FlError> {
        let initialised = federated_average_into(updates.iter().copied(), out)?;
        let accepted = if initialised {
            updates.iter().filter(|(_, weight)| *weight > 0.0).count()
        } else {
            0
        };
        Ok(ScreenedAggregation {
            accepted,
            quarantined: Vec::new(),
        })
    }
}

/// FedAvg with update screening: quarantines non-finite and norm-outlier updates (per its
/// [`ScreenPolicy`]), aggregates the survivors, and reports exactly what was rejected — the
/// round *degrades* to the surviving winners instead of being poisoned or failing.
/// Screening is a pure function of the batch, so a screened aggregation is as deterministic
/// as a plain one. An empty batch is `Ok` with `accepted == 0`; rejecting every update of a
/// non-empty batch is [`FlError::AllUpdatesQuarantined`], since silently keeping the stale
/// model would hide the outage.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MedianNormScreen(pub ScreenPolicy);

impl AggregationRule for MedianNormScreen {
    fn name(&self) -> &'static str {
        "median-norm"
    }

    fn validate(&self) -> Result<(), FlError> {
        validate_at_least("median-norm", "norm_factor", self.0.norm_factor, 1.0)
    }

    fn aggregate_with(
        &self,
        updates: &[(&[f64], f64)],
        out: &mut Vec<f64>,
        scratch: &mut AggregationScratch,
    ) -> Result<ScreenedAggregation, FlError> {
        screen_by_norm::<Tiled>(&self.0, updates, out, scratch)
    }
}

/// Coordinate-wise median as the center estimate of a distance screen: robust to up to
/// half the batch being Byzantine in any single coordinate.
#[derive(Debug, Clone, PartialEq)]
pub struct CoordinateMedian {
    /// Multiple of the batch's median center-distance beyond which an update is
    /// quarantined.
    pub distance_factor: f64,
}

impl Default for CoordinateMedian {
    fn default() -> Self {
        Self {
            distance_factor: 4.0,
        }
    }
}

impl AggregationRule for CoordinateMedian {
    fn name(&self) -> &'static str {
        "coordinate-median"
    }

    fn validate(&self) -> Result<(), FlError> {
        validate_at_least(
            "coordinate-median",
            "distance_factor",
            self.distance_factor,
            1.0,
        )
    }

    fn aggregate_with(
        &self,
        updates: &[(&[f64], f64)],
        out: &mut Vec<f64>,
        scratch: &mut AggregationScratch,
    ) -> Result<ScreenedAggregation, FlError> {
        let center = Center::Trimmed { trim: 0 };
        screen_by_distance::<Tiled>(updates, self.distance_factor, center, out, scratch)
    }
}

/// Per-coordinate trimmed mean as the center estimate of a distance screen: drops the
/// `trim` smallest and largest values of every coordinate before averaging, tolerating up
/// to `trim` Byzantine members.
#[derive(Debug, Clone, PartialEq)]
pub struct TrimmedMean {
    /// Values trimmed from *each* tail of every coordinate (clamped so at least one value
    /// always survives).
    pub trim: usize,
    /// Multiple of the batch's median center-distance beyond which an update is
    /// quarantined.
    pub distance_factor: f64,
}

impl TrimmedMean {
    /// A trimmed mean dropping `trim` values per tail with the default distance gate.
    pub fn new(trim: usize) -> Self {
        Self {
            trim,
            distance_factor: 4.0,
        }
    }
}

impl AggregationRule for TrimmedMean {
    fn name(&self) -> &'static str {
        "trimmed-mean"
    }

    fn validate(&self) -> Result<(), FlError> {
        validate_at_least("trimmed-mean", "distance_factor", self.distance_factor, 1.0)
    }

    fn aggregate_with(
        &self,
        updates: &[(&[f64], f64)],
        out: &mut Vec<f64>,
        scratch: &mut AggregationScratch,
    ) -> Result<ScreenedAggregation, FlError> {
        let center = Center::Trimmed { trim: self.trim };
        screen_by_distance::<Tiled>(updates, self.distance_factor, center, out, scratch)
    }
}

/// Krum / multi-Krum as the center estimate of a distance screen: scores each member by
/// the summed squared distance to its `n - f - 2` closest peers and averages the `select`
/// best-scored members into the center (Blanchard et al., NeurIPS 2017).
#[derive(Debug, Clone, PartialEq)]
pub struct Krum {
    /// Byzantine members the rule is provisioned against (`f` in the Krum score).
    pub assumed_byzantine: usize,
    /// Members averaged into the center: 1 = classic Krum, >1 = multi-Krum.
    pub select: usize,
    /// Multiple of the batch's median center-distance beyond which an update is
    /// quarantined.
    pub distance_factor: f64,
}

impl Krum {
    /// Classic Krum provisioned against `assumed_byzantine` adversaries.
    pub fn new(assumed_byzantine: usize) -> Self {
        Self {
            assumed_byzantine,
            select: 1,
            distance_factor: 4.0,
        }
    }
}

impl AggregationRule for Krum {
    fn name(&self) -> &'static str {
        "krum"
    }

    fn validate(&self) -> Result<(), FlError> {
        validate_at_least("krum", "distance_factor", self.distance_factor, 1.0)?;
        if self.select == 0 {
            return Err(FlError::InvalidConfig(
                "krum select must be >= 1 (0 members would average to nothing)".into(),
            ));
        }
        Ok(())
    }

    fn aggregate_with(
        &self,
        updates: &[(&[f64], f64)],
        out: &mut Vec<f64>,
        scratch: &mut AggregationScratch,
    ) -> Result<ScreenedAggregation, FlError> {
        let center = Center::Krum {
            assumed_byzantine: self.assumed_byzantine,
            select: self.select,
        };
        screen_by_distance::<Tiled>(updates, self.distance_factor, center, out, scratch)
    }
}

/// Body of [`MedianNormScreen`]: quarantine non-finite updates and `norm_factor` outliers
/// against the upper median of the finite norms, FedAvg the survivors.
fn screen_by_norm<K: Kernels>(
    policy: &ScreenPolicy,
    updates: &[(&[f64], f64)],
    out: &mut Vec<f64>,
    scratch: &mut AggregationScratch,
) -> Result<ScreenedAggregation, FlError> {
    out.clear();
    if updates.is_empty() {
        return Ok(ScreenedAggregation {
            accepted: 0,
            quarantined: Vec::new(),
        });
    }

    K::norms(updates, scratch);
    scratch.sorted.clear();
    scratch.sorted.extend(scratch.norms.iter().flatten());
    scratch
        .sorted
        .sort_by(|a, b| a.partial_cmp(b).expect("finite norms are ordered"));
    let finite = scratch.sorted.len();
    let median = scratch.sorted.get(finite / 2).copied().unwrap_or(0.0);
    let limit = policy.norm_factor * median;

    let mut quarantined = Vec::new();
    scratch.survivors.clear();
    for (index, ((_, _), norm)) in updates.iter().zip(&scratch.norms).enumerate() {
        match norm {
            None => quarantined.push(Quarantine {
                index,
                fault: UpdateFault::NonFinite,
            }),
            Some(norm) if finite > 1 && *norm > limit => quarantined.push(Quarantine {
                index,
                fault: UpdateFault::NormOutlier { norm: *norm, limit },
            }),
            Some(_) => scratch.survivors.push(index),
        }
    }
    if scratch.survivors.is_empty() {
        return Err(FlError::AllUpdatesQuarantined {
            quarantined: quarantined.len(),
        });
    }
    let accepted = scratch.survivors.len();
    // Screening removed every non-finite update, so the typed error path below is
    // unreachable; `?` still propagates it rather than asserting.
    federated_average_into(scratch.survivors.iter().map(|&i| updates[i]), out)?;
    Ok(ScreenedAggregation {
        accepted,
        quarantined,
    })
}

/// Shared body of the robust rules: filter to positive-weight finite members, fill
/// `scratch.center` with the rule's `center` estimate, quarantine members farther than
/// `distance_factor ×` the upper median member-distance from it, FedAvg the survivors.
///
/// A batch the center cannot be computed for (members disagree in dimension) degrades to
/// the FedAvg contract for mismatched lengths: nothing aggregated, `out` empty, `Ok`.
fn screen_by_distance<K: Kernels>(
    updates: &[(&[f64], f64)],
    distance_factor: f64,
    center: Center,
    out: &mut Vec<f64>,
    scratch: &mut AggregationScratch,
) -> Result<ScreenedAggregation, FlError> {
    out.clear();
    let mut quarantined = Vec::new();
    // `members` is moved out of the scratch so the kernels can still borrow the rest of
    // the buffers mutably; it is always restored before returning.
    let mut members = std::mem::take(&mut scratch.members);
    members.clear();
    let mut dim: Option<usize> = None;
    let mut mismatched = false;
    for (index, (params, weight)) in updates.iter().enumerate() {
        if *weight <= 0.0 {
            continue;
        }
        if !params.iter().all(|p| p.is_finite()) {
            quarantined.push(Quarantine {
                index,
                fault: UpdateFault::NonFinite,
            });
            continue;
        }
        match dim {
            None => dim = Some(params.len()),
            Some(d) if d != params.len() => mismatched = true,
            Some(_) => {}
        }
        members.push(index);
    }
    if members.is_empty() {
        scratch.members = members;
        if quarantined.is_empty() {
            // Empty batch or only non-positive weights: FedAvg's "nothing to do", not an
            // outage.
            return Ok(ScreenedAggregation {
                accepted: 0,
                quarantined,
            });
        }
        return Err(FlError::AllUpdatesQuarantined {
            quarantined: quarantined.len(),
        });
    }
    if mismatched {
        scratch.members = members;
        return Ok(ScreenedAggregation {
            accepted: 0,
            quarantined,
        });
    }

    match center {
        Center::Trimmed { trim } => K::coordinate_center(updates, &members, scratch, trim),
        Center::Krum {
            assumed_byzantine,
            select,
        } => K::krum_center(updates, &members, scratch, assumed_byzantine, select),
    }
    K::center_distances(updates, &members, scratch);
    scratch.sorted.clear();
    scratch.sorted.extend_from_slice(&scratch.dists);
    scratch.sorted.sort_by(|a, b| {
        a.partial_cmp(b)
            .expect("finite members give finite distances")
    });
    let median = scratch.sorted[scratch.sorted.len() / 2];
    let limit = distance_factor * median;
    // A lone member is never an outlier against itself, matching the norm screen.
    let gate = members.len() > 1 && limit.is_finite();

    scratch.survivors.clear();
    for (k, &index) in members.iter().enumerate() {
        if gate && scratch.dists[k] > limit {
            quarantined.push(Quarantine {
                index,
                fault: UpdateFault::FarFromCenter {
                    distance: scratch.dists[k],
                    limit,
                },
            });
        } else {
            scratch.survivors.push(index);
        }
    }
    // NonFinite quarantines were pushed in a first pass and distance quarantines in a
    // second; restore batch order so callers (and the ledger) see one coherent report.
    quarantined.sort_by_key(|q| q.index);
    scratch.members = members;
    if scratch.survivors.is_empty() {
        return Err(FlError::AllUpdatesQuarantined {
            quarantined: quarantined.len(),
        });
    }
    let accepted = scratch.survivors.len();
    // Survivors are finite with positive weight, so this neither errors nor returns false.
    federated_average_into(scratch.survivors.iter().map(|&i| updates[i]), out)?;
    Ok(ScreenedAggregation {
        accepted,
        quarantined,
    })
}

/// The center estimate of a distance-screening rule.
#[derive(Debug, Clone, Copy)]
enum Center {
    /// Per-coordinate `trim`-trimmed mean; `trim == 0` is the coordinate-wise median.
    Trimmed { trim: usize },
    /// Mean of the `select` best Krum-scored members.
    Krum {
        assumed_byzantine: usize,
        select: usize,
    },
}

/// The screening rules' hot kernels. [`Tiled`] is the only production impl; the unit
/// tests implement the same trait with the full-sort originals and run both through one
/// screening body, so the two can be compared bit for bit.
trait Kernels {
    /// Fills `scratch.center` with the per-coordinate `trim`-trimmed mean of the members.
    fn coordinate_center(
        updates: &[(&[f64], f64)],
        members: &[usize],
        scratch: &mut AggregationScratch,
        trim: usize,
    );

    /// Fills `scratch.center` with the multi-Krum center of the members.
    fn krum_center(
        updates: &[(&[f64], f64)],
        members: &[usize],
        scratch: &mut AggregationScratch,
        assumed_byzantine: usize,
        select: usize,
    );

    /// Fills `scratch.dists` with every member's L2 distance from `scratch.center`.
    fn center_distances(
        updates: &[(&[f64], f64)],
        members: &[usize],
        scratch: &mut AggregationScratch,
    );

    /// Fills `scratch.norms` with every update's L2 norm, `None` when it is non-finite.
    fn norms(updates: &[(&[f64], f64)], scratch: &mut AggregationScratch);
}

/// The production kernels: block-transposed sorting-network centers and interleaved
/// exact reductions.
struct Tiled;

impl Kernels for Tiled {
    /// The coordinates are walked `BLOCK` at a time. Each member's block is copied into one
    /// row of `scratch.tile`, rows `n..n.next_power_of_two()` hold `+∞` (members are finite,
    /// so the padding sorts last and stays put), and [`sort_lanes`] sorts every lane of the
    /// tile with one fixed network. Row `r` then holds rank `r` of each coordinate. The
    /// median (`trim == 0`) reads the upper median, row `n/2`, matching the norm screen's
    /// convention. The trimmed mean sums rows `trim..n − trim` lane-wise in ascending rank
    /// order as a left fold from `-0.0` — `Iterator::sum`'s order over a sorted column — and
    /// divides by the kept count.
    ///
    /// Why this is bit-for-bit what a per-coordinate stable sort gives: a conditional swap
    /// preserves the multiset, so each rank holds the value the stable sort puts there,
    /// except that inside a run of exact zeros the network may order `−0.0` and `+0.0`
    /// differently. The folds then differ at most in the sign of a zero partial sum, which
    /// the next non-zero term erases, so at most the sign of a center coordinate that is
    /// exactly zero changes. `(p − c)²` is the same for `c = +0.0` and `c = −0.0` whatever
    /// `p` is, so no member-to-center distance, no verdict and no output bit changes.
    fn coordinate_center(
        updates: &[(&[f64], f64)],
        members: &[usize],
        scratch: &mut AggregationScratch,
        trim: usize,
    ) {
        let dim = updates[members[0]].0.len();
        let n = members.len();
        // Clamp so at least one value survives trimming, whatever the caller asked for.
        let trim = trim.min((n - 1) / 2);
        let AggregationScratch { tile, center, .. } = scratch;
        tile.clear();
        tile.resize(n.next_power_of_two(), [f64::INFINITY; BLOCK]);
        center.clear();
        for start in (0..dim).step_by(BLOCK) {
            let width = BLOCK.min(dim - start);
            for (row, &i) in tile.iter_mut().zip(members) {
                row[..width].copy_from_slice(&updates[i].0[start..start + width]);
            }
            // Lanes past `width` hold the previous block's (finite) values or `+∞`: sorted
            // along, never read.
            sort_lanes(tile);
            if trim == 0 {
                center.extend_from_slice(&tile[n / 2][..width]);
            } else {
                let mut sums = [-0.0; BLOCK];
                for row in &tile[trim..n - trim] {
                    for (sum, value) in sums.iter_mut().zip(row) {
                        *sum += value;
                    }
                }
                let kept = (n - 2 * trim) as f64;
                center.extend(sums[..width].iter().map(|sum| sum / kept));
            }
        }
    }

    /// A member's Krum score is its summed squared distance to its `n - f - 2` nearest
    /// peers; the `n × n` pair matrix behind it comes from [`fold_squared_distances`].
    fn krum_center(
        updates: &[(&[f64], f64)],
        members: &[usize],
        scratch: &mut AggregationScratch,
        assumed_byzantine: usize,
        select: usize,
    ) {
        let n = members.len();
        let dim = updates[members[0]].0.len();
        if n == 1 {
            scratch.center.clear();
            scratch.center.extend_from_slice(updates[members[0]].0);
            return;
        }

        scratch.pair.clear();
        scratch.pair.resize(n * n, 0.0);
        let pair = &mut scratch.pair;
        // Every unordered pair once, as member `a` against the next `⌊n/2⌋` members round
        // the circle (one fewer for the back half of an even batch): each base row gets
        // about n/2 rows to fold against, not a shrinking tail of the triangle that would
        // leave most of a batch of folds idle. `(x − y)² == (y − x)²` exactly, so which
        // end of a pair is the base does not move a bit.
        let half = n / 2;
        for a in 0..n {
            let partners = if n.is_multiple_of(2) && a >= half {
                half - 1
            } else {
                half
            };
            let rows = (a + 1..=a + partners).map(|b| {
                let b = b % n;
                (b, updates[members[b]].0)
            });
            fold_squared_distances(updates[members[a]].0, rows, |b, d2| {
                pair[a * n + b] = d2;
                pair[b * n + a] = d2;
            });
        }

        // Krum's neighbourhood size n - f - 2, clamped to the batch actually present.
        let closest = n.saturating_sub(assumed_byzantine + 2).max(1).min(n - 1);
        scratch.scores.clear();
        for a in 0..n {
            scratch.column.clear();
            for b in 0..n {
                if b != a {
                    scratch.column.push(scratch.pair[a * n + b]);
                }
            }
            scratch
                .column
                .sort_by(|a, b| a.partial_cmp(b).expect("squared distances are not NaN"));
            scratch.scores.push(scratch.column[..closest].iter().sum());
        }

        scratch.order.clear();
        scratch.order.extend(0..n);
        // Ties broken by batch index, so the selection is permutation-invariant.
        scratch.order.sort_by(|&x, &y| {
            scratch.scores[x]
                .partial_cmp(&scratch.scores[y])
                .expect("krum scores are not NaN")
                .then(members[x].cmp(&members[y]))
        });
        let m = select.max(1).min(n);
        scratch.center.clear();
        scratch.center.resize(dim, 0.0);
        for &k in &scratch.order[..m] {
            for (acc, p) in scratch.center.iter_mut().zip(updates[members[k]].0) {
                *acc += p;
            }
        }
        for acc in scratch.center.iter_mut() {
            *acc /= m as f64;
        }
    }

    fn center_distances(
        updates: &[(&[f64], f64)],
        members: &[usize],
        scratch: &mut AggregationScratch,
    ) {
        let AggregationScratch { center, dists, .. } = scratch;
        dists.clear();
        dists.resize(members.len(), 0.0);
        let rows = members.iter().enumerate().map(|(k, &i)| (k, updates[i].0));
        fold_squared_distances(center, rows, |k, d2| dists[k] = d2.sqrt());
    }

    fn norms(updates: &[(&[f64], f64)], scratch: &mut AggregationScratch) {
        let AggregationScratch {
            norms,
            members,
            origin,
            ..
        } = scratch;
        norms.clear();
        members.clear();
        for (index, (params, _)) in updates.iter().enumerate() {
            norms.push(None);
            if params.iter().all(|p| p.is_finite()) {
                members.push(index);
            }
        }
        let longest = updates.iter().map(|(p, _)| p.len()).max().unwrap_or(0);
        if origin.len() < longest {
            origin.resize(longest, 0.0);
        }
        // A norm is the distance from the origin: `p − 0.0 == p` for every `p`, −0.0
        // included, so each term is `p · p` bit for bit.
        let rows = members.iter().map(|&i| (i, updates[i].0));
        fold_squared_distances(origin, rows, |i, n2| norms[i] = Some(n2.sqrt()));
    }
}

/// Coordinates per tile block of [`Tiled::coordinate_center`]: one row of the tile.
const BLOCK: usize = 32;

/// Sorts every lane (column) of `tile` ascending with a bitonic network; `tile.len()` must
/// be a power of two. All comparators put the minimum in the lower row: each merge of two
/// sorted runs of `size / 2` rows starts by comparing row `i` with its mirror
/// `size − 1 − i`, then half-cleans at gaps `size / 4, …, 1`.
fn sort_lanes(tile: &mut [[f64; BLOCK]]) {
    let rows = tile.len();
    let mut size = 2;
    while size <= rows {
        for base in (0..rows).step_by(size) {
            for i in 0..size / 2 {
                compare_exchange(tile, base + i, base + size - 1 - i);
            }
        }
        let mut gap = size / 4;
        while gap > 0 {
            for base in (0..rows).step_by(2 * gap) {
                for i in base..base + gap {
                    compare_exchange(tile, i, i + gap);
                }
            }
            gap /= 2;
        }
        size *= 2;
    }
}

/// One comparator of [`sort_lanes`]: a lane-wise, branch-free conditional swap leaving the
/// smaller value of every lane in row `lo` and the larger in row `hi` (`lo < hi`).
fn compare_exchange(tile: &mut [[f64; BLOCK]], lo: usize, hi: usize) {
    let (head, tail) = tile.split_at_mut(hi);
    for (a, b) in head[lo].iter_mut().zip(tail[0].iter_mut()) {
        let (x, y) = (*a, *b);
        let swap = y < x;
        let (min, max) = if swap { (y, x) } else { (x, y) };
        *a = min;
        *b = max;
    }
}

/// Independent folds [`squared_distances`] interleaves.
const FOLDS: usize = 8;

/// `Σ_c (row[c] − base[c])²` for every `(tag, row)` of `rows` (`base` at least as long as
/// each row), handed to `emit` with its tag in `rows` order. The sums run `FOLDS` rows at a
/// time through [`squared_distances`]; a batch whose rows differ in length runs one row at
/// a time.
fn fold_squared_distances<'a, T: Copy>(
    base: &[f64],
    rows: impl IntoIterator<Item = (T, &'a [f64])>,
    mut emit: impl FnMut(T, f64),
) {
    let mut rows = rows.into_iter();
    let Some(first) = rows.next() else {
        return;
    };
    let mut batch = [first; FOLDS];
    let mut filled = 1;
    let mut flush = |batch: &[(T, &[f64]); FOLDS], filled: usize| {
        let len = batch[0].1.len();
        if batch[..filled].iter().all(|(_, row)| row.len() == len) {
            // Unused slots repeat the first row; their sums are dropped.
            let rows = std::array::from_fn(|k| batch[if k < filled { k } else { 0 }].1);
            let sums: [f64; FOLDS] = squared_distances(base, &rows);
            for (&(tag, _), sum) in batch[..filled].iter().zip(sums) {
                emit(tag, sum);
            }
        } else {
            for &(tag, row) in &batch[..filled] {
                emit(tag, squared_distances(base, &[row])[0]);
            }
        }
    };
    for row in rows {
        if filled == FOLDS {
            flush(&batch, filled);
            filled = 0;
        }
        batch[filled] = row;
        filled += 1;
    }
    flush(&batch, filled);
}

/// `K` exact sums of squared differences from one base at once:
/// `sums[k] = Σ_c (rows[k][c] − base[c])²` over `rows[0]`'s length. Each sum is a left
/// fold over `c` in index order from `-0.0`, with no reassociation and no fused
/// multiply-add — bit-for-bit `row.iter().zip(base).map(|(p, b)| (p - b) * (p - b)).sum()`
/// — but the `K` folds are independent, so their adds pipeline instead of waiting on one
/// dependency chain, and each base value is loaded once for all of them.
fn squared_distances<const K: usize>(base: &[f64], rows: &[&[f64]; K]) -> [f64; K] {
    let len = rows[0].len();
    let base = &base[..len];
    let rows: [&[f64]; K] = std::array::from_fn(|k| &rows[k][..len]);
    let mut sums = [-0.0; K];
    for (c, &b) in base.iter().enumerate() {
        for k in 0..K {
            let d = rows[k][c] - b;
            sums[k] += d * d;
        }
    }
    sums
}

#[cfg(test)]
impl Krum {
    /// Multi-Krum averaging the `select` best-scored members.
    pub(crate) fn multi(assumed_byzantine: usize, select: usize) -> Self {
        Self {
            assumed_byzantine,
            select,
            distance_factor: 4.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `rule` over `batch` with a fresh scratch and a dirty output buffer: `(report, out)`.
    fn run(
        rule: &dyn AggregationRule,
        batch: &[(&[f64], f64)],
    ) -> Result<(ScreenedAggregation, Vec<f64>), FlError> {
        let mut out = vec![9.0];
        let report = rule.aggregate_with(batch, &mut out, &mut AggregationScratch::new())?;
        Ok((report, out))
    }

    #[test]
    fn equal_weights_give_plain_mean() {
        let (report, avg) = run(&FedAvg, &[(&[1.0, 2.0], 1.0), (&[3.0, 4.0], 1.0)]).unwrap();
        assert_eq!(report.accepted, 2);
        assert_eq!(avg, vec![2.0, 3.0]);
    }

    #[test]
    fn weights_follow_data_sizes() {
        // Eq. 3: node with 3x the data pulls the average 3x harder.
        let (_, avg) = run(&FedAvg, &[(&[0.0], 1.0), (&[4.0], 3.0)]).unwrap();
        assert_eq!(avg, vec![3.0]);
    }

    #[test]
    fn zero_and_negative_weights_are_ignored() {
        let batch: [(&[f64], f64); 3] = [(&[10.0], 0.0), (&[-3.0], -5.0), (&[2.0], 2.0)];
        let (report, avg) = run(&FedAvg, &batch).unwrap();
        assert_eq!(report.accepted, 1);
        assert_eq!(avg, vec![2.0]);
    }

    #[test]
    fn single_update_is_returned_unchanged() {
        let (_, avg) = run(&FedAvg, &[(&[1.5, -2.5, 0.0], 7.0)]).unwrap();
        assert_eq!(avg, vec![1.5, -2.5, 0.0]);
    }

    #[test]
    fn non_finite_updates_are_a_typed_error() {
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = run(&FedAvg, &[(&[1.0], 1.0), (&[poison], 1.0)]).unwrap_err();
            assert_eq!(err, FlError::NonFiniteUpdate { index: 1 });
        }
        // Zero-weight poisoned updates are skipped before inspection, like any other
        // zero-weight update.
        let (_, avg) = run(&FedAvg, &[(&[f64::NAN], 0.0), (&[3.0], 1.0)]).unwrap();
        assert_eq!(avg, vec![3.0]);
        let mut out = vec![9.0];
        let err = FedAvg
            .aggregate_with(
                &[(&[f64::NAN], 1.0)],
                &mut out,
                &mut AggregationScratch::new(),
            )
            .unwrap_err();
        assert_eq!(err, FlError::NonFiniteUpdate { index: 0 });
        assert!(out.is_empty(), "the buffer never carries poisoned output");
    }

    #[test]
    fn screening_quarantines_poison_and_outliers_and_degrades() {
        let clean_a = vec![1.0, 1.0];
        let clean_b = vec![1.2, 0.8];
        let clean_c = vec![0.9, 1.1];
        let nan = vec![f64::NAN, 1.0];
        let huge = vec![1e9, 1e9];
        let updates: Vec<(&[f64], f64)> = vec![
            (&clean_a, 1.0),
            (&nan, 1.0),
            (&clean_b, 1.0),
            (&huge, 1.0),
            (&clean_c, 1.0),
        ];
        let (screened, out) = run(&MedianNormScreen::default(), &updates).unwrap();
        assert_eq!(screened.accepted, 3);
        assert_eq!(screened.quarantined.len(), 2);
        assert_eq!(screened.quarantined[0].index, 1);
        assert_eq!(screened.quarantined[0].fault, UpdateFault::NonFinite);
        assert_eq!(screened.quarantined[1].index, 3);
        assert!(matches!(
            screened.quarantined[1].fault,
            UpdateFault::NormOutlier { .. }
        ));
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|p| p.is_finite() && p.abs() < 10.0));
    }

    #[test]
    fn screening_fails_typed_when_nothing_survives() {
        let a = vec![f64::NAN];
        let b = vec![f64::INFINITY];
        let updates: Vec<(&[f64], f64)> = vec![(&a, 1.0), (&b, 1.0)];
        let mut out = Vec::new();
        let err = MedianNormScreen::default()
            .aggregate_with(&updates, &mut out, &mut AggregationScratch::new())
            .unwrap_err();
        assert_eq!(err, FlError::AllUpdatesQuarantined { quarantined: 2 });
        assert!(out.is_empty());
    }

    #[test]
    fn screening_keeps_a_lone_update_and_empty_batches() {
        // A single clean update is never an outlier against itself.
        let (screened, out) = run(&MedianNormScreen::default(), &[(&[42.0], 2.0)]).unwrap();
        assert_eq!(screened.accepted, 1);
        assert!(screened.quarantined.is_empty());
        assert_eq!(out, vec![42.0]);

        let (screened, out) = run(&MedianNormScreen::default(), &[]).unwrap();
        assert_eq!(screened.accepted, 0);
        assert!(out.is_empty());
    }

    fn every_rule() -> Vec<Box<dyn AggregationRule>> {
        vec![
            Box::new(FedAvg),
            Box::new(MedianNormScreen::default()),
            Box::new(CoordinateMedian::default()),
            Box::new(TrimmedMean::new(1)),
            Box::new(Krum::new(1)),
            Box::new(Krum::multi(1, 3)),
        ]
    }

    fn honest_batch() -> Vec<Vec<f64>> {
        (0..6)
            .map(|i| {
                let jitter = (i as f64 - 2.5) * 0.01;
                vec![1.0 + jitter, -2.0 + jitter, 0.5 - jitter]
            })
            .collect()
    }

    #[test]
    fn every_rule_matches_fedavg_bits_on_a_clean_batch() {
        let batch = honest_batch();
        let updates: Vec<(&[f64], f64)> = batch
            .iter()
            .enumerate()
            .map(|(i, p)| (p.as_slice(), 1.0 + i as f64))
            .collect();
        let mut baseline = Vec::new();
        assert!(federated_average_into(updates.iter().copied(), &mut baseline).unwrap());

        let mut scratch = AggregationScratch::new();
        for rule in every_rule() {
            let mut out = Vec::new();
            let report = rule
                .aggregate_with(&updates, &mut out, &mut scratch)
                .unwrap_or_else(|e| panic!("{} failed on a clean batch: {e}", rule.name()));
            assert_eq!(report.accepted, updates.len(), "{}", rule.name());
            assert!(report.quarantined.is_empty(), "{}", rule.name());
            assert_eq!(
                out.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                baseline.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                "{} diverged from FedAvg on a clean batch",
                rule.name()
            );
        }
    }

    #[test]
    fn robust_rules_quarantine_a_scaled_gradient_and_recover_the_honest_mean() {
        let mut batch = honest_batch();
        // A 25x scaled-gradient poison, mid-batch.
        batch.insert(3, batch[0].iter().map(|p| p * 25.0).collect());
        let updates: Vec<(&[f64], f64)> = batch.iter().map(|p| (p.as_slice(), 1.0)).collect();
        let honest: Vec<(&[f64], f64)> = updates
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 3)
            .map(|(_, u)| *u)
            .collect();
        let mut want = Vec::new();
        assert!(federated_average_into(honest.iter().copied(), &mut want).unwrap());

        let mut scratch = AggregationScratch::new();
        for rule in [
            Box::new(CoordinateMedian::default()) as Box<dyn AggregationRule>,
            Box::new(TrimmedMean::new(1)),
            Box::new(Krum::new(1)),
            Box::new(Krum::multi(1, 3)),
        ] {
            let mut out = Vec::new();
            let report = rule
                .aggregate_with(&updates, &mut out, &mut scratch)
                .unwrap();
            assert_eq!(report.accepted, 6, "{}", rule.name());
            assert_eq!(report.quarantined.len(), 1, "{}", rule.name());
            assert_eq!(report.quarantined[0].index, 3, "{}", rule.name());
            assert!(
                matches!(
                    report.quarantined[0].fault,
                    UpdateFault::FarFromCenter { .. }
                ),
                "{}",
                rule.name()
            );
            assert_eq!(
                out.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
                "{} did not recover the honest mean",
                rule.name()
            );
        }
    }

    #[test]
    fn robust_rules_quarantine_sign_flips_and_non_finite_updates() {
        let batch = honest_batch();
        let flipped: Vec<f64> = batch[0].iter().map(|p| -8.0 * p).collect();
        let nan = vec![f64::NAN, 0.0, 0.0];
        let mut updates: Vec<(&[f64], f64)> = batch.iter().map(|p| (p.as_slice(), 1.0)).collect();
        updates.push((&flipped, 1.0));
        updates.push((&nan, 1.0));

        for rule in [
            Box::new(CoordinateMedian::default()) as Box<dyn AggregationRule>,
            Box::new(TrimmedMean::new(1)),
            Box::new(Krum::new(2)),
        ] {
            let mut out = Vec::new();
            let report = rule
                .aggregate_with(&updates, &mut out, &mut AggregationScratch::new())
                .unwrap();
            assert_eq!(report.accepted, 6, "{}", rule.name());
            let faults: Vec<usize> = report.quarantined.iter().map(|q| q.index).collect();
            assert_eq!(faults, vec![6, 7], "{}", rule.name());
            assert_eq!(report.quarantined[1].fault, UpdateFault::NonFinite);
        }
    }

    #[test]
    fn rules_fail_typed_when_every_update_is_rejected() {
        let nan = vec![f64::NAN];
        let inf = vec![f64::INFINITY];
        let updates: Vec<(&[f64], f64)> = vec![(&nan, 1.0), (&inf, 1.0)];
        for rule in [
            Box::new(MedianNormScreen::default()) as Box<dyn AggregationRule>,
            Box::new(CoordinateMedian::default()),
            Box::new(TrimmedMean::new(1)),
            Box::new(Krum::new(1)),
        ] {
            let mut out = Vec::new();
            let err = rule
                .aggregate_with(&updates, &mut out, &mut AggregationScratch::new())
                .unwrap_err();
            assert_eq!(
                err,
                FlError::AllUpdatesQuarantined { quarantined: 2 },
                "{}",
                rule.name()
            );
            assert!(out.is_empty(), "{}", rule.name());
        }
        // FedAvg does not screen: the poison is its hard typed error.
        let err = run(&FedAvg, &updates).unwrap_err();
        assert_eq!(err, FlError::NonFiniteUpdate { index: 0 });
    }

    #[test]
    fn rules_share_fedavg_degenerate_contract() {
        let mut scratch = AggregationScratch::new();
        let a = vec![1.0];
        let b = vec![1.0, 2.0];
        for rule in every_rule() {
            let mut out = vec![9.0];
            // Empty batch: accepted 0, no error.
            let report = rule.aggregate_with(&[], &mut out, &mut scratch).unwrap();
            assert_eq!(report.accepted, 0, "{}", rule.name());
            assert!(out.is_empty(), "{}", rule.name());
            // Only non-positive weights: same. (The norm screen is weight-blind and
            // still reports such updates as accepted — FedAvg then skips them.)
            let report = rule
                .aggregate_with(&[(&a, 0.0), (&a, -1.0)], &mut out, &mut scratch)
                .unwrap();
            assert!(out.is_empty(), "{}", rule.name());
            if rule.name() != "median-norm" {
                assert_eq!(report.accepted, 0, "{}", rule.name());
            }
            // Mismatched dimensions: nothing aggregated, no panic. (The norm screen
            // reports its survivors as accepted even though FedAvg then declines the
            // mismatched batch — its long-standing contract; `out` stays empty either
            // way.)
            let report = rule
                .aggregate_with(&[(&a, 1.0), (&b, 1.0)], &mut out, &mut scratch)
                .unwrap_or_else(|e| panic!("{} on mismatched dims: {e}", rule.name()));
            assert!(out.is_empty(), "{}", rule.name());
            if rule.name() != "median-norm" {
                assert_eq!(report.accepted, 0, "{}", rule.name());
            }
        }
    }

    #[test]
    fn rule_validation_rejects_degenerate_parameters() {
        assert!(MedianNormScreen(ScreenPolicy { norm_factor: 0.5 })
            .validate()
            .is_err());
        assert!(MedianNormScreen(ScreenPolicy {
            norm_factor: f64::NAN
        })
        .validate()
        .is_err());
        assert!(CoordinateMedian {
            distance_factor: 0.0
        }
        .validate()
        .is_err());
        assert!(TrimmedMean {
            trim: 1,
            distance_factor: f64::INFINITY
        }
        .validate()
        .is_err());
        assert!(Krum::multi(1, 0).validate().is_err());
        for rule in every_rule() {
            rule.validate()
                .unwrap_or_else(|e| panic!("{} default invalid: {e}", rule.name()));
        }
        assert!(FedAvg.validate().is_ok());
    }

    #[test]
    fn krum_center_is_an_actual_member_for_classic_krum() {
        let batch = honest_batch();
        let poison = vec![50.0, 50.0, 50.0];
        let mut updates: Vec<(&[f64], f64)> = batch.iter().map(|p| (p.as_slice(), 1.0)).collect();
        updates.insert(0, (&poison, 1.0));
        let mut scratch = AggregationScratch::new();
        let mut out = Vec::new();
        let report = Krum::new(1)
            .aggregate_with(&updates, &mut out, &mut scratch)
            .unwrap();
        // The poison leads the batch and still gets quarantined: selection is score-based,
        // not order-based.
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].index, 0);
        assert_eq!(report.accepted, 6);
    }

    /// The original full-sort kernels: the oracle [`Tiled`] is held to bit for bit.
    struct Reference;

    impl Kernels for Reference {
        fn coordinate_center(
            updates: &[(&[f64], f64)],
            members: &[usize],
            scratch: &mut AggregationScratch,
            trim: usize,
        ) {
            coordinate_center_reference(updates, members, scratch, trim);
        }

        fn krum_center(
            updates: &[(&[f64], f64)],
            members: &[usize],
            scratch: &mut AggregationScratch,
            assumed_byzantine: usize,
            select: usize,
        ) {
            krum_center_reference(updates, members, scratch, assumed_byzantine, select);
        }

        fn center_distances(
            updates: &[(&[f64], f64)],
            members: &[usize],
            scratch: &mut AggregationScratch,
        ) {
            center_distances_reference(updates, members, scratch);
        }

        fn norms(updates: &[(&[f64], f64)], scratch: &mut AggregationScratch) {
            norms_reference(updates, scratch);
        }
    }

    /// Per coordinate: gather the members' values, stable-sort them, read rank `n/2` or
    /// sum ranks `trim..n − trim` with `Iterator::sum`.
    fn coordinate_center_reference(
        updates: &[(&[f64], f64)],
        members: &[usize],
        scratch: &mut AggregationScratch,
        trim: usize,
    ) {
        let dim = updates[members[0]].0.len();
        let n = members.len();
        let trim = trim.min((n - 1) / 2);
        scratch.center.clear();
        for c in 0..dim {
            scratch.column.clear();
            for &i in members {
                scratch.column.push(updates[i].0[c]);
            }
            scratch
                .column
                .sort_by(|a, b| a.partial_cmp(b).expect("members are finite"));
            let value = if trim == 0 {
                scratch.column[n / 2]
            } else {
                let kept = &scratch.column[trim..n - trim];
                kept.iter().sum::<f64>() / kept.len() as f64
            };
            scratch.center.push(value);
        }
    }

    /// Krum with one sequential fold per pair of the distance matrix.
    fn krum_center_reference(
        updates: &[(&[f64], f64)],
        members: &[usize],
        scratch: &mut AggregationScratch,
        assumed_byzantine: usize,
        select: usize,
    ) {
        let n = members.len();
        let dim = updates[members[0]].0.len();
        if n == 1 {
            scratch.center.clear();
            scratch.center.extend_from_slice(updates[members[0]].0);
            return;
        }

        scratch.pair.clear();
        scratch.pair.resize(n * n, 0.0);
        for a in 0..n {
            for b in (a + 1)..n {
                let d2 = updates[members[a]]
                    .0
                    .iter()
                    .zip(updates[members[b]].0)
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum::<f64>();
                scratch.pair[a * n + b] = d2;
                scratch.pair[b * n + a] = d2;
            }
        }

        let closest = n.saturating_sub(assumed_byzantine + 2).max(1).min(n - 1);
        scratch.scores.clear();
        for a in 0..n {
            scratch.column.clear();
            for b in 0..n {
                if b != a {
                    scratch.column.push(scratch.pair[a * n + b]);
                }
            }
            scratch
                .column
                .sort_by(|a, b| a.partial_cmp(b).expect("squared distances are not NaN"));
            scratch.scores.push(scratch.column[..closest].iter().sum());
        }

        scratch.order.clear();
        scratch.order.extend(0..n);
        scratch.order.sort_by(|&x, &y| {
            scratch.scores[x]
                .partial_cmp(&scratch.scores[y])
                .expect("krum scores are not NaN")
                .then(members[x].cmp(&members[y]))
        });
        let m = select.max(1).min(n);
        scratch.center.clear();
        scratch.center.resize(dim, 0.0);
        for &k in &scratch.order[..m] {
            for (acc, p) in scratch.center.iter_mut().zip(updates[members[k]].0) {
                *acc += p;
            }
        }
        for acc in scratch.center.iter_mut() {
            *acc /= m as f64;
        }
    }

    /// One sequential fold per member.
    fn center_distances_reference(
        updates: &[(&[f64], f64)],
        members: &[usize],
        scratch: &mut AggregationScratch,
    ) {
        scratch.dists.clear();
        for &i in members {
            let d = updates[i]
                .0
                .iter()
                .zip(&scratch.center)
                .map(|(p, c)| (p - c) * (p - c))
                .sum::<f64>()
                .sqrt();
            scratch.dists.push(d);
        }
    }

    /// One sequential fold per update.
    fn norms_reference(updates: &[(&[f64], f64)], scratch: &mut AggregationScratch) {
        scratch.norms.clear();
        for (params, _) in updates {
            let norm = params
                .iter()
                .all(|p| p.is_finite())
                .then(|| params.iter().map(|p| p * p).sum::<f64>().sqrt());
            scratch.norms.push(norm);
        }
    }

    /// The screening body a production rule runs, on the oracle's kernels.
    #[derive(Debug, Clone, Copy)]
    enum Oracle {
        FedAvg,
        Norm(f64),
        Distance(f64, Center),
    }

    impl Oracle {
        fn aggregate(
            self,
            updates: &[(&[f64], f64)],
            out: &mut Vec<f64>,
            scratch: &mut AggregationScratch,
        ) -> Result<ScreenedAggregation, FlError> {
            match self {
                Oracle::FedAvg => FedAvg.aggregate_with(updates, out, scratch),
                Oracle::Norm(norm_factor) => screen_by_norm::<Reference>(
                    &ScreenPolicy { norm_factor },
                    updates,
                    out,
                    scratch,
                ),
                Oracle::Distance(factor, center) => {
                    screen_by_distance::<Reference>(updates, factor, center, out, scratch)
                }
            }
        }
    }

    /// Every rule at every setting the oracle property covers, beside its oracle.
    fn rules_and_oracles(
        assumed_byzantine: usize,
        factor: f64,
    ) -> Vec<(Box<dyn AggregationRule>, Oracle)> {
        let mut rules: Vec<(Box<dyn AggregationRule>, Oracle)> = vec![
            (Box::new(FedAvg), Oracle::FedAvg),
            (
                Box::new(MedianNormScreen(ScreenPolicy {
                    norm_factor: factor,
                })),
                Oracle::Norm(factor),
            ),
            (
                Box::new(CoordinateMedian {
                    distance_factor: factor,
                }),
                Oracle::Distance(factor, Center::Trimmed { trim: 0 }),
            ),
        ];
        for trim in 0..=4 {
            rules.push((
                Box::new(TrimmedMean {
                    trim,
                    distance_factor: factor,
                }),
                Oracle::Distance(factor, Center::Trimmed { trim }),
            ));
        }
        for select in 1..=3 {
            rules.push((
                Box::new(Krum {
                    assumed_byzantine,
                    select,
                    distance_factor: factor,
                }),
                Oracle::Distance(
                    factor,
                    Center::Krum {
                        assumed_byzantine,
                        select,
                    },
                ),
            ));
        }
        rules
    }

    /// One hostile batch for the oracle property.
    #[derive(Debug, Clone)]
    struct HostileBatch {
        updates: Vec<(Vec<f64>, f64)>,
        assumed_byzantine: usize,
        factor: f64,
    }

    /// Batches of 1..=33 updates over dims around a tile block: exact zeros of both signs,
    /// duplicates, subnormals, ±1e300, outliers, non-finite members, non-positive weights
    /// and the odd mismatched length.
    struct HostileBatches;

    impl minicheck::Strategy for HostileBatches {
        type Value = HostileBatch;

        fn generate(&self, rng: &mut rand::rngs::StdRng) -> HostileBatch {
            use rand::Rng;
            const DIMS: [usize; 6] = [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 1_027];
            const SPECIAL: [f64; 10] = [
                0.0, -0.0, 5e-324, -5e-324, 2.0e-310, -2.0e-310, 1e300, -1e300, 1.0, -1.0,
            ];
            let n = rng.gen_range(1..=33);
            let dim = DIMS[rng.gen_range(0..DIMS.len())];
            // How often a coordinate is drawn from `SPECIAL`: never, sometimes, always.
            let special = [0.0, 0.2, 0.6, 1.0][rng.gen_range(0..4)];
            let honest: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut updates: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n);
            for _ in 0..n {
                let mut params: Vec<f64> = match rng.gen_range(0..8) {
                    0 if !updates.is_empty() => updates[rng.gen_range(0..updates.len())].0.clone(),
                    1 => honest.iter().map(|p| p * 25.0).collect(),
                    2 => honest.iter().map(|p| -8.0 * p).collect(),
                    _ => honest
                        .iter()
                        .map(|p| p + rng.gen_range(-0.01..0.01))
                        .collect(),
                };
                for p in params.iter_mut() {
                    if rng.gen_bool(special) {
                        *p = SPECIAL[rng.gen_range(0..SPECIAL.len())];
                    }
                }
                if dim > 0 && rng.gen_bool(0.04) {
                    let at = rng.gen_range(0..dim);
                    params[at] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3)];
                }
                if rng.gen_bool(0.01) {
                    params.push(0.5);
                }
                let weight = match rng.gen_range(0..20) {
                    0 => 0.0,
                    1 => -1.0,
                    _ => rng.gen_range(1..=100) as f64,
                };
                updates.push((params, weight));
            }
            HostileBatch {
                updates,
                assumed_byzantine: rng.gen_range(0..=3),
                factor: [1.0, 1.5, 4.0][rng.gen_range(0..3)],
            }
        }
    }

    /// `a` and `b` are the same bits, or both are zero.
    fn same_up_to_zero_sign(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
    }

    fn fault_bits(fault: UpdateFault) -> (u8, u64, u64) {
        match fault {
            UpdateFault::NonFinite => (0, 0, 0),
            UpdateFault::NormOutlier { norm, limit } => (1, norm.to_bits(), limit.to_bits()),
            UpdateFault::FarFromCenter { distance, limit } => {
                (2, distance.to_bits(), limit.to_bits())
            }
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn tiled_kernels_match_the_full_sort_oracle_bit_for_bit() {
        // One production scratch for the whole run, so stale tile lanes and buffers left by
        // earlier batches are part of what is checked.
        let scratch = std::cell::RefCell::new(AggregationScratch::new());
        let config = minicheck::Config::seeded(0xA66_7E5E).with_cases(160);
        minicheck::check(&config, &HostileBatches, |batch| {
            let updates: Vec<(&[f64], f64)> = batch
                .updates
                .iter()
                .map(|(p, w)| (p.as_slice(), *w))
                .collect();
            let scratch = &mut *scratch.borrow_mut();
            for (rule, oracle) in rules_and_oracles(batch.assumed_byzantine, batch.factor) {
                let name = format!("{} ({oracle:?})", rule.name());
                scratch.center.clear();
                let mut out = vec![7.0];
                let got = rule.aggregate_with(&updates, &mut out, scratch);
                let mut reference = AggregationScratch::new();
                let mut want_out = vec![7.0];
                let want = oracle.aggregate(&updates, &mut want_out, &mut reference);
                minicheck::ensure(bits(&out) == bits(&want_out), || {
                    format!("{name}: output bits differ")
                })?;
                match (&got, &want) {
                    (Ok(got), Ok(want)) => {
                        minicheck::ensure(got.accepted == want.accepted, || {
                            format!("{name}: accepted {} != {}", got.accepted, want.accepted)
                        })?;
                        let verdicts = |s: &ScreenedAggregation| {
                            s.quarantined
                                .iter()
                                .map(|q| (q.index, fault_bits(q.fault)))
                                .collect::<Vec<_>>()
                        };
                        minicheck::ensure(verdicts(got) == verdicts(want), || {
                            format!("{name}: quarantines {:?} != {:?}", got, want)
                        })?;
                    }
                    (Err(got), Err(want)) => {
                        minicheck::ensure(got == want, || format!("{name}: error {got} != {want}"))?
                    }
                    _ => return Err(format!("{name}: {got:?} != {want:?}")),
                }
                minicheck::ensure(
                    scratch.center.len() == reference.center.len()
                        && scratch
                            .center
                            .iter()
                            .zip(&reference.center)
                            .all(|(&a, &b)| same_up_to_zero_sign(a, b)),
                    || format!("{name}: center differs beyond the sign of a zero"),
                )?;
            }
            Ok(())
        });
    }
}
