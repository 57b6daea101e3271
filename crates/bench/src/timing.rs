//! Timing helpers of the benchmark package: plain `Instant` loops taking the
//! **minimum** of N samples after a few untimed warm-ups, which is far more stable across
//! shared machines than means.

use std::time::Instant;

/// Minimum wall-clock time of one invocation of `f`, in nanoseconds, over `samples` timed
/// runs after `warmup` untimed ones.
pub fn min_time_ns<F: FnMut()>(warmup: usize, samples: usize, mut f: F) -> u128 {
    for _ in 0..warmup {
        f();
    }
    let mut best = u128::MAX;
    for _ in 0..samples.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos());
    }
    best
}

/// Hardware threads visible to this process. The benchmark records it next to its numbers:
/// a pooled speedup measured on a single-core machine is scheduler noise, not scaling.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_time_is_positive_and_monotone_under_more_samples() {
        let mut calls = 0usize;
        let ns = min_time_ns(2, 5, || calls += 1);
        assert_eq!(calls, 7, "warmup + samples invocations");
        assert!(ns > 0);
        // Zero samples still times one invocation (min of an empty set is useless).
        assert!(min_time_ns(0, 0, || ()) < u128::MAX);
    }

    #[test]
    fn hardware_threads_reports_at_least_one() {
        assert!(hardware_threads() >= 1);
    }
}
