//! The FMore incentive mechanism: a multi-dimensional procurement auction with `K` winners.
//!
//! This crate is the primary contribution of the reproduced paper
//! *"FMore: An Incentive Scheme of Multi-dimensional Auction for Federated Learning in MEC"*
//! (Zeng, Zhang, Wang, Chu — ICDCS 2020). Each federated-learning round is preceded by a
//! sealed-bid, first-score procurement auction:
//!
//! 1. the aggregator broadcasts a **scoring rule** `S(q, p) = s(q) − p` ([`scoring`]),
//! 2. every edge node computes its **Nash-equilibrium bid** `(q*, p*)` from its private cost
//!    parameter θ ([`equilibrium`], implementing Che's Theorem 1/2, Proposition 1 and the
//!    paper's Theorem 1),
//! 3. the aggregator sorts scores and selects the **top-K winners** — or, in ψ-FMore, accepts
//!    nodes in score order each with probability ψ ([`winner`]),
//! 4. winners are paid under a **first-price** (default) or generalized **second-price** rule
//!    ([`pricing`]).
//!
//! The mechanism-level guarantees of Section IV are exposed as executable checks in
//! [`properties`]: incentive compatibility, individual rationality, Pareto efficiency (social
//! surplus maximisation), profit monotonicity in `N` and `K`, and the Cobb-Douglas resource
//! guidance of Proposition 4.
//!
//! # Quickstart
//!
//! ```
//! use fmore_auction::prelude::*;
//! use fmore_numerics::UniformDist;
//!
//! // Scoring rule s(q) = 25·q1·q2 as used by the paper's simulator, linear cost.
//! let scoring = CobbDouglas::with_scale(25.0, vec![1.0, 1.0])?;
//! let cost = LinearCost::new(vec![0.6, 0.4])?;
//! let theta = UniformDist::new(0.1, 1.0)?;
//! let bounds = vec![(0.0, 1.0), (0.0, 1.0)];
//!
//! // Equilibrium bidding strategy for an auction with N = 100 nodes and K = 20 winners.
//! let solver = EquilibriumSolver::builder()
//!     .scoring(scoring.clone())
//!     .cost(cost.clone())
//!     .theta(theta)
//!     .bounds(bounds)
//!     .population(100)
//!     .winners(20)
//!     .build()?;
//! let bid = solver.bid_for(0.3)?;
//! assert!(bid.ask >= cost.value(bid.quality.as_slice(), 0.3));
//!
//! // The aggregator runs one auction round over submitted bids.
//! let auction = Auction::new(
//!     ScoringRule::new(scoring),
//!     1,
//!     SelectionRule::TopK,
//!     PricingRule::FirstPrice,
//! );
//! let outcome = auction.run(
//!     vec![SubmittedBid::new(NodeId(0), bid.quality.clone(), bid.ask)],
//!     &mut fmore_numerics::seeded_rng(1),
//! )?;
//! assert_eq!(outcome.winners().len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(unreachable_pub)]

pub mod cost;
pub mod equilibrium;
pub mod error;
pub mod mechanism;
pub mod pricing;
pub mod properties;
pub mod scoring;
pub mod store;
pub mod types;
pub mod walkthrough;
pub mod winner;

pub use cost::{CostFunction, LinearCost, QuadraticCost};
pub use equilibrium::{
    EquilibriumBid, EquilibriumSolver, EquilibriumStrategy, PaymentMethod, ScoreCeiling,
};
pub use error::AuctionError;
pub use mechanism::{Auction, AuctionOutcome, Award, SubmittedBid};
pub use pricing::PricingRule;
pub use scoring::{
    Additive, CobbDouglas, CountingScoring, NormalizedScoring, PerfectComplementary,
    ScoringFunction, ScoringRule,
};
pub use store::{
    BidSelector, BidStore, Candidate, RankRefiner, ScoreHistogram, ShardSelection, StandingPool,
};
pub use types::{NodeId, Quality};
pub use winner::SelectionRule;

/// Convenient glob import of the most commonly used items.
pub mod prelude {
    pub use crate::cost::{CostFunction, LinearCost, QuadraticCost};
    pub use crate::equilibrium::{
        EquilibriumBid, EquilibriumSolver, EquilibriumStrategy, PaymentMethod,
    };
    pub use crate::error::AuctionError;
    pub use crate::mechanism::{Auction, AuctionOutcome, Award, SubmittedBid};
    pub use crate::pricing::PricingRule;
    pub use crate::scoring::{
        Additive, CobbDouglas, CountingScoring, NormalizedScoring, PerfectComplementary,
        ScoringFunction, ScoringRule,
    };
    pub use crate::types::{NodeId, Quality};
    pub use crate::winner::SelectionRule;
}
