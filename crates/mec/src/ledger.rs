//! Per-node payment accounting.

use fmore_auction::NodeId;
use std::collections::BTreeMap;

/// Tracks the payments promised to every node over a training run, and how often each node
/// won. Used by the cluster experiments to report total incentive spend and per-node income.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PaymentLedger {
    entries: BTreeMap<NodeId, (f64, usize)>,
}

impl PaymentLedger {
    /// Creates an empty ledger.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records that `node` won a round and was promised `payment`.
    pub(crate) fn record(&mut self, node: NodeId, payment: f64) {
        let entry = self.entries.entry(node).or_insert((0.0, 0));
        entry.0 += payment;
        entry.1 += 1;
    }

    /// Records one round's winners in a single pass, reading `(node, payment)` pairs
    /// straight from the stored winner list — zero-payment entries (RandFL picks) are
    /// skipped, so callers no longer filter and re-collect ids per round.
    pub(crate) fn record_round<I: IntoIterator<Item = (NodeId, f64)>>(&mut self, winners: I) {
        for (node, payment) in winners {
            if payment > 0.0 {
                self.record(node, payment);
            }
        }
    }

    /// Total payment promised to all nodes.
    pub fn total(&self) -> f64 {
        self.entries.values().map(|(p, _)| p).sum()
    }

    /// Number of distinct nodes that have won at least once.
    pub fn distinct_winners(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
impl PaymentLedger {
    /// Total payment promised to `node` so far.
    fn total_for(&self, node: NodeId) -> f64 {
        self.entries.get(&node).map_or(0.0, |(p, _)| *p)
    }

    /// Number of rounds `node` has won so far.
    fn wins_for(&self, node: NodeId) -> usize {
        self.entries.get(&node).map_or(0, |(_, w)| *w)
    }

    /// Iterates over `(node, total_payment, wins)` entries in node order.
    fn iter(&self) -> impl Iterator<Item = (NodeId, f64, usize)> + '_ {
        self.entries.iter().map(|(&id, &(p, w))| (id, p, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate_per_node() {
        let mut ledger = PaymentLedger::new();
        ledger.record(NodeId(1), 0.5);
        ledger.record(NodeId(1), 0.3);
        ledger.record(NodeId(2), 1.0);
        assert!((ledger.total_for(NodeId(1)) - 0.8).abs() < 1e-12);
        assert_eq!(ledger.wins_for(NodeId(1)), 2);
        assert!((ledger.total() - 1.8).abs() < 1e-12);
        assert_eq!(ledger.distinct_winners(), 2);
        assert_eq!(ledger.total_for(NodeId(9)), 0.0);
        assert_eq!(ledger.wins_for(NodeId(9)), 0);
    }

    #[test]
    fn iteration_is_ordered_by_node() {
        let mut ledger = PaymentLedger::new();
        ledger.record(NodeId(5), 1.0);
        ledger.record(NodeId(1), 2.0);
        let ids: Vec<u64> = ledger.iter().map(|(id, _, _)| id.0).collect();
        assert_eq!(ids, vec![1, 5]);
    }

    #[test]
    fn empty_ledger_defaults() {
        let ledger = PaymentLedger::default();
        assert_eq!(ledger.total(), 0.0);
        assert_eq!(ledger.distinct_winners(), 0);
    }

    #[test]
    fn record_round_skips_zero_payments() {
        let mut ledger = PaymentLedger::new();
        ledger.record_round([
            (NodeId(1), 0.5),
            (NodeId(2), 0.0), // RandFL pick: no payment, no ledger entry
            (NodeId(3), 0.25),
        ]);
        assert_eq!(ledger.distinct_winners(), 2);
        assert!((ledger.total() - 0.75).abs() < 1e-12);
        assert_eq!(ledger.wins_for(NodeId(2)), 0);
    }
}
