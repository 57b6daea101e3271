//! Measurement support for the FMore reproduction.
//!
//! Every performance question is answered by the repository's benchmark package
//! (`benchmark/`, see its README): `cargo run --release --offline --manifest-path
//! benchmark/Cargo.toml`. This crate holds what that package and the test suites share:
//!
//! * [`timing`] — min-of-N wall-clock sampling and the hardware-thread count the
//!   benchmark prints next to its numbers;
//! * [`baseline`] — a replica of the pre-refactor training path, the bit-for-bit oracle of
//!   the arena-equivalence property tests.

#![warn(unreachable_pub)]

pub mod baseline;
pub mod timing;
