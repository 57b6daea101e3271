//! Error type for the federated-learning substrate.

use std::fmt;

/// Error returned by the federated-learning substrate.
///
/// This is the one typed error family of every service-facing path: a malformed job, a
/// mid-churn population, or a panicking training/scoring task must fail **that job's
/// round** — never the process. Parallel-stage panics are caught at the executor and
/// surface here as [`FlError::JobPanic`]; the service-layer variants
/// ([`FlError::UnknownJob`], [`FlError::AdmissionFull`], [`FlError::Backpressure`]) are the
/// admission/backpressure contract of [`crate::service::AuctionService`].
#[derive(Debug, Clone, PartialEq)]
pub enum FlError {
    /// Invalid training configuration (zero clients, `K > N`, zero rounds, …).
    InvalidConfig(String),
    /// A client-selection strategy referenced a client that does not exist.
    UnknownClient(usize),
    /// The auction used by FMore selection failed.
    Auction(fmore_auction::AuctionError),
    /// A parallel task of one round panicked; caught at the executor and attributed to the
    /// round that submitted it, with every sibling slot still delivered.
    JobPanic(crate::executor::JobPanic),
    /// The service has no job under this id (never admitted, or already closed).
    UnknownJob(u64),
    /// Admission refused: the service is already at its concurrent-job capacity.
    AdmissionFull {
        /// The service's configured job capacity.
        capacity: usize,
    },
    /// A job's bounded round queue is full — the caller must drain (run) pending rounds
    /// before requesting more.
    Backpressure {
        /// The job whose queue is full.
        job: u64,
        /// Rounds already pending for that job.
        pending: usize,
    },
    /// A round attempt exceeded its watchdog budget (simulated seconds, so the verdict is
    /// deterministic); the watchdog retries it up to the spec's bound.
    RoundTimeout {
        /// The round that blew its budget.
        round: u64,
        /// Simulated seconds the attempt spent.
        sim_secs: f64,
        /// The watchdog's per-round budget.
        budget_secs: f64,
    },
    /// An update handed to the aggregator contains a non-finite parameter. Raised by
    /// [`crate::aggregator::FedAvg`], which does not screen; the screening rules quarantine
    /// such updates instead.
    NonFiniteUpdate {
        /// Index of the poisoned update in the aggregation batch.
        index: usize,
    },
    /// Update screening quarantined *every* update of a round: there is nothing left to
    /// aggregate, so the round fails (retryably) instead of skipping aggregation silently.
    AllUpdatesQuarantined {
        /// How many updates were quarantined.
        quarantined: usize,
    },
    /// A serialised [`crate::service::JobCheckpoint`] could not be decoded.
    CheckpointCorrupt(String),
    /// The reputation ledger excluded every bid of a round: nothing was left for the
    /// auction to select. Classified retryable (a degraded fleet deserves its retry
    /// budget), but within one round the reputation snapshot is fixed, so an exhausted
    /// budget fails the round typed — never a panic, never a silently empty winner set.
    AllBiddersExcluded {
        /// How many bids the reputation filter dropped this round.
        excluded: usize,
    },
}

impl fmt::Display for FlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlError::InvalidConfig(msg) => write!(f, "invalid federated-learning config: {msg}"),
            FlError::UnknownClient(idx) => write!(f, "unknown client index {idx}"),
            FlError::Auction(e) => write!(f, "auction failure: {e}"),
            FlError::JobPanic(p) => write!(f, "round task panicked: {p}"),
            FlError::UnknownJob(id) => write!(f, "unknown job id {id}"),
            FlError::AdmissionFull { capacity } => {
                write!(f, "admission refused: service already runs {capacity} jobs")
            }
            FlError::Backpressure { job, pending } => {
                write!(
                    f,
                    "backpressure: job {job} already has {pending} pending rounds"
                )
            }
            FlError::RoundTimeout {
                round,
                sim_secs,
                budget_secs,
            } => {
                write!(
                    f,
                    "round {round} timed out: {sim_secs:.3}s simulated against a \
                     {budget_secs:.3}s budget"
                )
            }
            FlError::NonFiniteUpdate { index } => {
                write!(f, "update {index} contains a non-finite parameter")
            }
            FlError::AllUpdatesQuarantined { quarantined } => {
                write!(
                    f,
                    "all {quarantined} updates of the round were quarantined; nothing to \
                     aggregate"
                )
            }
            FlError::CheckpointCorrupt(msg) => write!(f, "corrupt job checkpoint: {msg}"),
            FlError::AllBiddersExcluded { excluded } => {
                write!(
                    f,
                    "reputation filter excluded all {excluded} bids of the round; nothing \
                     to select"
                )
            }
        }
    }
}

impl std::error::Error for FlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlError::Auction(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fmore_auction::AuctionError> for FlError {
    fn from(e: fmore_auction::AuctionError) -> Self {
        FlError::Auction(e)
    }
}

impl From<crate::executor::JobPanic> for FlError {
    fn from(p: crate::executor::JobPanic) -> Self {
        FlError::JobPanic(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = FlError::InvalidConfig("K > N".into());
        assert!(e.to_string().contains("K > N"));
        assert!(std::error::Error::source(&e).is_none());

        let e = FlError::UnknownClient(7);
        assert!(e.to_string().contains('7'));

        let inner = fmore_auction::AuctionError::NoBids;
        let e: FlError = inner.into();
        assert!(e.to_string().contains("no bids"));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn service_variants_render_their_context() {
        let e: FlError = crate::executor::JobPanic {
            slot: 3,
            message: "boom".into(),
        }
        .into();
        assert!(e.to_string().contains("slot 3"));
        assert!(e.to_string().contains("boom"));

        assert!(FlError::UnknownJob(9).to_string().contains('9'));
        assert!(FlError::AdmissionFull { capacity: 4 }
            .to_string()
            .contains('4'));
        let e = FlError::Backpressure { job: 2, pending: 8 };
        assert!(e.to_string().contains("job 2"));
        assert!(e.to_string().contains("8 pending"));
    }

    #[test]
    fn robustness_variants_render_their_context() {
        let e = FlError::RoundTimeout {
            round: 4,
            sim_secs: 35.5,
            budget_secs: 20.0,
        };
        assert!(e.to_string().contains("round 4"));
        assert!(e.to_string().contains("35.500"));
        assert!(e.to_string().contains("20.000"));

        assert!(FlError::NonFiniteUpdate { index: 3 }
            .to_string()
            .contains("update 3"));
        assert!(FlError::AllUpdatesQuarantined { quarantined: 5 }
            .to_string()
            .contains("all 5 updates"));
        assert!(FlError::CheckpointCorrupt("truncated".into())
            .to_string()
            .contains("truncated"));
        assert!(FlError::AllBiddersExcluded { excluded: 9 }
            .to_string()
            .contains("all 9 bids"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlError>();
    }
}
