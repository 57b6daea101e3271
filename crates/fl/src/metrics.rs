//! Per-round metrics and the full training history.

use fmore_auction::NodeId;

/// What the aggregator recorded about one selected client in one round.
#[derive(Debug, Clone, PartialEq)]
pub struct WinnerInfo {
    /// Index of the client in the trainer's client list.
    pub client: usize,
    /// The client's node identifier.
    pub node: NodeId,
    /// Number of samples the client trained on this round (`D_i` in Eq. 3).
    pub data_size: usize,
    /// Distinct classes in the client's training data this round.
    pub categories: usize,
    /// The client's auction score (0 for RandFL / FixFL, which run no auction).
    pub score: f64,
    /// The payment promised to the client (0 for RandFL / FixFL).
    pub payment: f64,
}

/// Dynamic-environment accounting of one round: what churn did to the winner set.
///
/// In a static run every selected winner finishes and aggregates, so the outcome is the
/// trivial `selected == completed` record. Under a churn model (see `fmore_mec::dynamics`)
/// winners can vanish mid-round (**dropouts**), finish late (**stragglers**, which may then
/// miss the server **deadline** and be excluded from aggregation), and under-quota rounds
/// recruit **replacements** through re-auction waves over the standing bid pool.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundOutcome {
    /// Total winners assigned this round, including re-auction replacements.
    pub selected: usize,
    /// Assigned winners whose update reached aggregation.
    pub completed: usize,
    /// Assigned winners that vanished mid-round; their update is lost and they forfeit
    /// payment (work was never delivered).
    pub dropouts: usize,
    /// Assigned winners slowed by a straggler event this round (whether or not they still
    /// made the deadline).
    pub stragglers: usize,
    /// Assigned winners that delivered their update after the server deadline; the late
    /// update is excluded from aggregation but the payment is honoured (and wasted).
    pub deadline_misses: usize,
    /// Re-auction waves run to refill an under-quota winner set.
    pub reauction_waves: usize,
    /// Winners recruited by re-auction (a subset of `selected`).
    pub replacements: usize,
    /// Payment promised to winners whose update never aggregated (deadline misses pay for
    /// discarded work).
    pub wasted_payment: f64,
}

impl RoundOutcome {
    /// The trivial outcome of a static round: everyone selected completes.
    pub(crate) fn all_completed(selected: usize) -> Self {
        Self {
            selected,
            completed: selected,
            ..Self::default()
        }
    }

    /// Fraction of assigned winners whose update reached aggregation (1.0 for an empty
    /// round).
    pub(crate) fn completion_rate(&self) -> f64 {
        if self.selected == 0 {
            return 1.0;
        }
        self.completed as f64 / self.selected as f64
    }

    /// Element-wise sum of many per-round outcomes into run totals — the single aggregation
    /// behind both `TrainingHistory` and `ClusterHistory` churn accounting.
    pub fn accumulate<'a, I: IntoIterator<Item = &'a RoundOutcome>>(outcomes: I) -> RoundOutcome {
        outcomes
            .into_iter()
            .fold(RoundOutcome::default(), |acc, o| RoundOutcome {
                selected: acc.selected + o.selected,
                completed: acc.completed + o.completed,
                dropouts: acc.dropouts + o.dropouts,
                stragglers: acc.stragglers + o.stragglers,
                deadline_misses: acc.deadline_misses + o.deadline_misses,
                reauction_waves: acc.reauction_waves + o.reauction_waves,
                replacements: acc.replacements + o.replacements,
                wasted_payment: acc.wasted_payment + o.wasted_payment,
            })
    }

    /// Mean completion rate over many per-round outcomes (1.0 when there are none).
    pub fn mean_completion_rate<'a, I: IntoIterator<Item = &'a RoundOutcome>>(outcomes: I) -> f64 {
        let (sum, count) = outcomes
            .into_iter()
            .fold((0.0, 0usize), |(s, n), o| (s + o.completion_rate(), n + 1));
        if count == 0 {
            return 1.0;
        }
        sum / count as f64
    }
}

/// Everything recorded about one federated-learning round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundMetrics {
    /// Round index, starting at 1.
    pub round: usize,
    /// Global-model accuracy on the held-out test set after aggregation.
    pub accuracy: f64,
    /// Global-model loss on the held-out test set after aggregation.
    pub loss: f64,
    /// The selected clients whose updates reached aggregation.
    pub winners: Vec<WinnerInfo>,
    /// All scores computed in this round's auction (empty for RandFL / FixFL); used by the
    /// score-distribution analysis of Fig. 8.
    pub all_scores: Vec<f64>,
    /// Churn accounting of the round (trivial in static runs).
    pub outcome: RoundOutcome,
}

impl RoundMetrics {
    /// Total payment promised this round.
    pub fn total_payment(&self) -> f64 {
        self.winners.iter().map(|w| w.payment).sum()
    }

    /// Total number of samples fed into this round's aggregation.
    pub fn total_data(&self) -> usize {
        self.winners.iter().map(|w| w.data_size).sum()
    }
}

/// The sequence of per-round metrics produced by one training run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainingHistory {
    /// Metrics per round, in order.
    pub rounds: Vec<RoundMetrics>,
}

impl TrainingHistory {
    /// Accuracy after every round.
    pub fn accuracy_series(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.accuracy).collect()
    }

    /// Loss after every round.
    pub fn loss_series(&self) -> Vec<f64> {
        self.rounds.iter().map(|r| r.loss).collect()
    }

    /// Accuracy after the last round, `0.0` if no rounds were run.
    pub fn final_accuracy(&self) -> f64 {
        self.rounds.last().map_or(0.0, |r| r.accuracy)
    }

    /// The first round (1-based) whose accuracy reaches `target`, or `None` if the target is
    /// never reached. This is the "rounds to accuracy" metric of Figs. 9a/10a/11a.
    pub fn rounds_to_accuracy(&self, target: f64) -> Option<usize> {
        self.rounds
            .iter()
            .find(|r| r.accuracy >= target)
            .map(|r| r.round)
    }

    /// Best accuracy reached at any round.
    pub fn best_accuracy(&self) -> f64 {
        self.rounds.iter().map(|r| r.accuracy).fold(0.0, f64::max)
    }

    /// Total payment promised over the whole run.
    pub fn total_payment(&self) -> f64 {
        self.rounds.iter().map(|r| r.total_payment()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn winner(client: usize, score: f64, payment: f64, data: usize) -> WinnerInfo {
        WinnerInfo {
            client,
            node: NodeId(client as u64),
            data_size: data,
            categories: 3,
            score,
            payment,
        }
    }

    fn round(idx: usize, acc: f64, loss: f64) -> RoundMetrics {
        RoundMetrics {
            round: idx,
            accuracy: acc,
            loss,
            winners: vec![winner(0, 1.0, 0.2, 100), winner(1, 0.8, 0.3, 50)],
            all_scores: vec![1.0, 0.8, 0.1],
            outcome: RoundOutcome {
                selected: 3,
                completed: 2,
                dropouts: 1,
                stragglers: 1,
                deadline_misses: 0,
                reauction_waves: 1,
                replacements: 1,
                wasted_payment: 0.25,
            },
        }
    }

    #[test]
    fn round_aggregates() {
        let r = round(1, 0.5, 1.2);
        assert!((r.total_payment() - 0.5).abs() < 1e-12);
        assert_eq!(r.total_data(), 150);
    }

    #[test]
    fn outcome_accounting_aggregates_over_the_run() {
        let h = TrainingHistory {
            rounds: vec![round(1, 0.3, 2.0), round(2, 0.55, 1.5)],
        };
        let totals = RoundOutcome::accumulate(h.rounds.iter().map(|r| &r.outcome));
        assert_eq!(totals.dropouts, 2);
        assert_eq!(totals.stragglers, 2);
        assert_eq!(totals.deadline_misses, 0);
        assert_eq!(totals.reauction_waves, 2);
        assert_eq!(totals.replacements, 2);
        assert!((totals.wasted_payment - 0.5).abs() < 1e-12);
        let rate = RoundOutcome::mean_completion_rate(h.rounds.iter().map(|r| &r.outcome));
        assert!((rate - 2.0 / 3.0).abs() < 1e-12);
        // Empty histories and rounds default to a perfect completion rate.
        assert_eq!(RoundOutcome::mean_completion_rate(std::iter::empty()), 1.0);
        assert_eq!(RoundOutcome::default().completion_rate(), 1.0);
        let trivial = RoundOutcome::all_completed(5);
        assert_eq!(trivial.selected, 5);
        assert_eq!(trivial.completed, 5);
        assert_eq!(trivial.completion_rate(), 1.0);
        assert_eq!(trivial.dropouts, 0);
    }

    #[test]
    fn history_series_and_targets() {
        let h = TrainingHistory {
            rounds: vec![round(1, 0.3, 2.0), round(2, 0.55, 1.5), round(3, 0.7, 1.1)],
        };
        assert_eq!(h.accuracy_series(), vec![0.3, 0.55, 0.7]);
        assert_eq!(h.loss_series(), vec![2.0, 1.5, 1.1]);
        assert_eq!(h.final_accuracy(), 0.7);
        assert_eq!(h.best_accuracy(), 0.7);
        assert_eq!(h.rounds_to_accuracy(0.5), Some(2));
        assert_eq!(h.rounds_to_accuracy(0.9), None);
        assert!((h.total_payment() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn empty_history_defaults() {
        let h = TrainingHistory::default();
        assert_eq!(h.final_accuracy(), 0.0);
        assert_eq!(h.best_accuracy(), 0.0);
        assert_eq!(h.rounds_to_accuracy(0.1), None);
        assert!(h.accuracy_series().is_empty());
    }
}
