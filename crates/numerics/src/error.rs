//! Error type shared by the numerical routines.

use std::fmt;

/// Error returned by numerical routines in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericsError {
    /// An interval `[lo, hi]` was supplied with `lo > hi` or a non-finite endpoint.
    InvalidInterval {
        /// Lower endpoint supplied by the caller.
        lo: f64,
        /// Upper endpoint supplied by the caller.
        hi: f64,
    },
    /// A routine requiring a strictly positive number of steps/samples received zero.
    EmptyInput(&'static str),
    /// A probability outside of `[0, 1]` was supplied.
    InvalidProbability(f64),
}

impl fmt::Display for NumericsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NumericsError::InvalidInterval { lo, hi } => {
                write!(f, "invalid interval [{lo}, {hi}]")
            }
            NumericsError::EmptyInput(what) => write!(f, "empty input for {what}"),
            NumericsError::InvalidProbability(p) => {
                write!(f, "probability {p} outside of [0, 1]")
            }
        }
    }
}

impl std::error::Error for NumericsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NumericsError::InvalidInterval { lo: 2.0, hi: 1.0 };
        assert!(e.to_string().contains("[2, 1]"));
        let e = NumericsError::EmptyInput("samples");
        assert!(e.to_string().contains("samples"));
        let e = NumericsError::InvalidProbability(1.5);
        assert!(e.to_string().contains("1.5"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NumericsError>();
    }
}
