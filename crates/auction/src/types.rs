//! Core value types shared across the auction mechanism.

use std::fmt;

/// Identifier of an edge node (a bidder).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node-{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(v: u64) -> Self {
        NodeId(v)
    }
}

/// A multi-dimensional resource-quality vector `q = (q1, …, qm)`.
///
/// The paper's simulator uses two dimensions (data size, data-category proportion); the
/// real-world deployment uses three (computing power, bandwidth, data size). The type keeps
/// dimensions explicit so that scoring and cost functions can validate them.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Quality(Vec<f64>);

impl Quality {
    /// Wraps a quality vector.
    pub fn new(values: Vec<f64>) -> Self {
        Quality(values)
    }

    /// Number of resource dimensions `m`.
    pub fn dims(&self) -> usize {
        self.0.len()
    }

    /// Borrow the raw values.
    pub fn as_slice(&self) -> &[f64] {
        &self.0
    }

    /// Value of the `i`-th resource, if present.
    pub fn get(&self, i: usize) -> Option<f64> {
        self.0.get(i).copied()
    }

    /// Returns `true` if every component is finite and non-negative.
    pub(crate) fn is_valid(&self) -> bool {
        self.0.iter().all(|v| v.is_finite() && *v >= 0.0)
    }

    /// Returns a copy where every component is scaled by `factor` (used to model quality
    /// misreporting in incentive-compatibility checks).
    pub(crate) fn scaled(&self, factor: f64) -> Quality {
        Quality(self.0.iter().map(|v| v * factor).collect())
    }

    /// Component-wise comparison: `true` when every component of `self` is `<=` the matching
    /// component of `other` and the dimensions agree.
    pub fn dominated_by(&self, other: &Quality) -> bool {
        self.dims() == other.dims() && self.0.iter().zip(other.0.iter()).all(|(a, b)| a <= b)
    }
}

impl From<Vec<f64>> for Quality {
    fn from(v: Vec<f64>) -> Self {
        Quality(v)
    }
}

impl AsRef<[f64]> for Quality {
    fn as_ref(&self) -> &[f64] {
        &self.0
    }
}

impl FromIterator<f64> for Quality {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Quality(iter.into_iter().collect())
    }
}

impl fmt::Display for Quality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        write!(f, ")")
    }
}

/// A bid after the aggregator has applied the scoring rule `S(q, p) = s(q) − p`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredBid {
    /// The bidder.
    pub node: NodeId,
    /// Declared resource qualities.
    pub quality: Quality,
    /// Asked payment `p`.
    pub ask: f64,
    /// Resulting score `S(q, p)`.
    pub score: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_conversion() {
        let id: NodeId = 7u64.into();
        assert_eq!(id, NodeId(7));
        assert_eq!(id.to_string(), "node-7");
    }

    #[test]
    fn quality_accessors() {
        let q = Quality::new(vec![4000.0, 85.0]);
        assert_eq!(q.dims(), 2);
        assert_eq!(q.get(0), Some(4000.0));
        assert_eq!(q.get(5), None);
        assert_eq!(q.as_slice(), &[4000.0, 85.0]);
        assert_eq!(q.0, vec![4000.0, 85.0]);
        assert!(q.is_valid());
        assert_eq!(q.to_string(), "(4000.0000, 85.0000)");
    }

    #[test]
    fn quality_validity_checks() {
        assert!(!Quality::new(vec![1.0, -2.0]).is_valid());
        assert!(!Quality::new(vec![f64::NAN]).is_valid());
        assert!(Quality::new(vec![]).is_valid());
    }

    #[test]
    fn quality_scaling_and_domination() {
        let q = Quality::new(vec![10.0, 20.0]);
        let down = q.scaled(0.5);
        assert_eq!(down.as_slice(), &[5.0, 10.0]);
        assert!(down.dominated_by(&q));
        assert!(!q.dominated_by(&down));
        // Mismatched dimensions never dominate.
        assert!(!Quality::new(vec![1.0]).dominated_by(&q));
    }

    #[test]
    fn quality_from_iterator() {
        let q: Quality = (0..3).map(|i| i as f64).collect();
        assert_eq!(q.as_slice(), &[0.0, 1.0, 2.0]);
    }

    #[test]
    fn scored_bids_sort_descending() {
        let mut bids = [
            ScoredBid {
                node: NodeId(1),
                quality: Quality::default(),
                ask: 0.1,
                score: 0.2,
            },
            ScoredBid {
                node: NodeId(2),
                quality: Quality::default(),
                ask: 0.1,
                score: 0.9,
            },
            ScoredBid {
                node: NodeId(3),
                quality: Quality::default(),
                ask: 0.1,
                score: 0.5,
            },
        ];
        // The aggregator's rank order: descending score (node ids stand in for tie keys).
        bids.sort_by(|a, b| crate::store::rank_order(a.score, a.node.0, b.score, b.node.0));
        let order: Vec<u64> = bids.iter().map(|b| b.node.0).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }
}
