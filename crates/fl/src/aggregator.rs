//! Global aggregation (FedAvg, Eq. 3 of the paper), with typed rejection of poisoned
//! updates and a screening pass that quarantines them instead of failing the round.
//!
//! Byzantine-resilient aggregation lives behind the [`AggregationRule`] trait: FedAvg and
//! the median-norm screen are the baseline impls, joined by coordinate-wise-median,
//! trimmed-mean, and Krum/multi-Krum backends. The robust backends share one shape — a
//! robust *center* estimate, a distance screen against that center, then FedAvg over the
//! survivors — so a batch with no outliers aggregates **bit-for-bit** like plain FedAvg
//! (pinned by the property suite), while Byzantine updates are quarantined with typed
//! reasons the reputation ledger can act on. All rules are allocation-free in steady state
//! when driven through [`AggregationRule::aggregate_with`] and a reused
//! [`AggregationScratch`].

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
/// every rule allocation-free in steady state: the buffers grow to the batch's high-water
/// mark on the first rounds and are only rewound (never freed) afterwards.
#[derive(Debug, Clone, Default)]
pub struct AggregationScratch {
    /// Per-update L2 norms (`None` = non-finite), batch order. Norm screen only.
    norms: Vec<Option<f64>>,
    /// Batch indices of positive-weight finite updates, batch order.
    members: Vec<usize>,
    /// Batch indices that passed the screen and feed FedAvg, batch order.
    survivors: Vec<usize>,
    /// The rule's robust center estimate (`dim` long).
    center: Vec<f64>,
    /// One coordinate's values across members (median/trimmed-mean), or one member's
    /// distances to the others (Krum).
    column: Vec<f64>,
    /// L2 distance of each member from the center, member order.
    dists: Vec<f64>,
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
        out.clear();
        if updates.is_empty() {
            return Ok(ScreenedAggregation {
                accepted: 0,
                quarantined: Vec::new(),
            });
        }

        scratch.norms.clear();
        scratch.sorted.clear();
        for (params, _) in updates {
            let norm = params
                .iter()
                .all(|p| p.is_finite())
                .then(|| params.iter().map(|p| p * p).sum::<f64>().sqrt());
            if let Some(norm) = norm {
                scratch.sorted.push(norm);
            }
            scratch.norms.push(norm);
        }
        scratch
            .sorted
            .sort_by(|a, b| a.partial_cmp(b).expect("finite norms are ordered"));
        let finite = scratch.sorted.len();
        let median = scratch.sorted.get(finite / 2).copied().unwrap_or(0.0);
        let limit = self.0.norm_factor * median;

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
        screen_by_distance(updates, self.distance_factor, out, scratch, |u, m, s| {
            coordinate_center(u, m, s, 0)
        })
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
        let trim = self.trim;
        screen_by_distance(
            updates,
            self.distance_factor,
            out,
            scratch,
            move |u, m, s| coordinate_center(u, m, s, trim),
        )
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

    /// Multi-Krum averaging the `select` best-scored members.
    pub fn multi(assumed_byzantine: usize, select: usize) -> Self {
        Self {
            assumed_byzantine,
            select,
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
        let (f, select) = (self.assumed_byzantine, self.select);
        screen_by_distance(
            updates,
            self.distance_factor,
            out,
            scratch,
            move |u, m, s| krum_center(u, m, s, f, select),
        )
    }
}

/// Shared body of the robust rules: filter to positive-weight finite members, let `center`
/// fill `scratch.center`, quarantine members farther than `distance_factor ×` the upper
/// median member-distance from it, FedAvg the survivors.
///
/// A batch the center cannot be computed for (members disagree in dimension) degrades to
/// the FedAvg contract for mismatched lengths: nothing aggregated, `out` empty, `Ok`.
fn screen_by_distance(
    updates: &[(&[f64], f64)],
    distance_factor: f64,
    out: &mut Vec<f64>,
    scratch: &mut AggregationScratch,
    center: impl FnOnce(&[(&[f64], f64)], &[usize], &mut AggregationScratch),
) -> Result<ScreenedAggregation, FlError> {
    out.clear();
    let mut quarantined = Vec::new();
    // `members` is moved out of the scratch so the center closure can still borrow the
    // rest of the buffers mutably; it is always restored before returning.
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

    center(updates, &members, scratch);
    scratch.dists.clear();
    for &i in &members {
        let d = updates[i]
            .0
            .iter()
            .zip(&scratch.center)
            .map(|(p, c)| (p - c) * (p - c))
            .sum::<f64>()
            .sqrt();
        scratch.dists.push(d);
    }
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

/// Fills `scratch.center` with the per-coordinate `trim`-trimmed mean of the members
/// (`trim == 0` degenerates to the coordinate-wise median — the upper median, matching the
/// norm screen's convention — via a full sort either way).
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

/// Fills `scratch.center` with the multi-Krum center: mean of the `select` members whose
/// summed squared distance to their `n - f - 2` nearest peers is smallest.
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
}
