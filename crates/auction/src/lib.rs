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
//!
//! // The aggregator broadcasts one game: the paper simulator's scoring rule s(q) = 25·q1·q2,
//! // K = 20 winners, top-K selection, first-price payments.
//! let auction = Auction::new(
//!     ScoringRule::new(CobbDouglas::with_scale(25.0, vec![1.0, 1.0])?),
//!     20,
//!     SelectionRule::TopK,
//!     PricingRule::FirstPrice,
//! );
//!
//! // Every one of N = 100 nodes solves its equilibrium bid from that broadcast: linear cost,
//! // θ ~ U[0.1, 1.0], the strategy tabulated on 512 θ points.
//! let cost = LinearCost::new(vec![0.6, 0.4])?;
//! let solver = auction.equilibrium(cost.clone(), (0.1, 1.0), 100, 512)?;
//! let bid = solver.bid_for(0.3)?;
//! assert!(bid.ask >= cost.value(bid.quality.as_slice(), 0.3));
//!
//! // The aggregator runs one auction round over the bids of 30 nodes.
//! let bids = (0..30)
//!     .map(|i| {
//!         let bid = solver.bid_for(0.1 + 0.03 * i as f64)?;
//!         Ok(SubmittedBid::new(NodeId(i), bid.quality, bid.ask))
//!     })
//!     .collect::<Result<Vec<_>, AuctionError>>()?;
//! let outcome = auction.run(bids, &mut fmore_numerics::seeded_rng(1))?;
//! assert_eq!(outcome.winners().len(), 20);
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
