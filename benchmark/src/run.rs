//! The untraced run: `passes` passes of one workload's fixed sequence, reduced to the five
//! end-to-end metrics.
//!
//! Closed loop, one client: a single driver thread issues the next round only when the
//! previous one returned, on the engine of `Kind::engine` built inside the pass.

use crate::stats::{self, Digest};
use crate::workloads::{FleetMixed, Kind, Select, TrainRound, Workload};
use std::time::Instant;

/// One cold build + warm-up + timed sequence.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall time of each set-up step: the cold build, then every warm-up round.
    pub setup: Vec<u64>,
    /// Wall time of each timed round, in sequence order.
    pub lat: Vec<u64>,
    /// Process CPU time (all threads) from the end of the previous round to the end of each
    /// timed round.
    pub cpu: Vec<u64>,
    /// Timed rounds that returned an error or broke an invariant.
    pub failed: usize,
    /// The first such error.
    pub error: Option<String>,
    /// FNV-1a fold of everything the pass produced.
    pub digest: u64,
}

fn pass_of<W: Workload>(kind: Kind, seed: u64, hardware_threads: usize) -> Result<Pass, String> {
    let mut setup = Vec::with_capacity(1 + kind.warmup());
    let started = Instant::now();
    let engine = kind.engine(hardware_threads);
    let mut workload = W::build(seed, &engine)?;
    setup.push(started.elapsed().as_nanos() as u64);
    let mut digest = Digest::default();
    for i in 0..kind.warmup() {
        let t = Instant::now();
        workload
            .round(&engine, &mut digest)
            .map_err(|e| format!("warm-up round {i}: {e}"))?;
        setup.push(t.elapsed().as_nanos() as u64);
    }

    let mut lat = Vec::with_capacity(kind.rounds());
    let mut cpu = Vec::with_capacity(kind.rounds());
    let mut failed = 0;
    let mut error = None;
    let mut cpu_mark = stats::process_cpu_ns()?;
    for i in 0..kind.rounds() {
        let t = Instant::now();
        let outcome = workload.round(&engine, &mut digest);
        lat.push(t.elapsed().as_nanos() as u64);
        let now = stats::process_cpu_ns()?;
        cpu.push(now - cpu_mark);
        cpu_mark = now;
        if let Err(e) = outcome {
            failed += 1;
            error.get_or_insert(format!("round {i}: {e}"));
        }
    }
    workload.finish(&mut digest)?;
    Ok(Pass {
        setup,
        lat,
        cpu,
        failed,
        error,
        digest: digest.0,
    })
}

/// Runs one pass of `kind`, dropping all of its state before returning.
pub fn pass(kind: Kind, seed: u64, hardware_threads: usize) -> Result<Pass, String> {
    match kind {
        Kind::TrainRound => pass_of::<TrainRound>(kind, seed, hardware_threads),
        Kind::Select1m => pass_of::<Select<false>>(kind, seed, hardware_threads),
        Kind::SelectPsi250k => pass_of::<Select<true>>(kind, seed, hardware_threads),
        Kind::FleetMixed => pass_of::<FleetMixed>(kind, seed, hardware_threads),
    }
}

/// The end-to-end metrics as `(name, unit, better, bound)`, in `BENCHMARK.json` order. The
/// bound is the share of the parent's median by which a metric may worsen before a change
/// counts as a regression; it is also the most two sets of runs of one build may disagree.
/// NOISE.md holds the measurements the bounds rest on.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.1),
    ("rounds_per_s", "1/s", "higher", 0.1),
    ("round_p50_ms", "ms", "lower", 0.1),
    ("round_p90_ms", "ms", "lower", 0.1),
    ("cpu_ms_per_round", "ms", "lower", 0.1),
];

/// What an untraced run of one workload reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// `END_TO_END` values, same order.
    pub metrics: [f64; 5],
    /// Timed rounds across all passes.
    pub attempted: usize,
    pub failed: usize,
    /// Zero failures, one digest across passes, equal to the committed one if there is one.
    pub correct: bool,
    pub digest: u64,
    /// Human-readable findings (errors, digest disagreements).
    pub notes: Vec<String>,
}

/// Reduces per-pass measurements to the end-to-end metrics. Every quantity — set-up step,
/// round wall time, round CPU time — is first reduced to its minimum over passes, index by
/// index; totals and percentiles are taken of those minima.
pub fn reduce(passes: &[Pass]) -> [f64; 5] {
    let column =
        |f: fn(&Pass) -> &[u64]| stats::per_index_min(&passes.iter().map(f).collect::<Vec<_>>());
    let setup_ns: u64 = column(|p| &p.setup).iter().sum();
    let cpu_ns: u64 = column(|p| &p.cpu).iter().sum();
    let mut lat = column(|p| &p.lat);
    let rounds = lat.len() as f64;
    let total_ns: u64 = lat.iter().sum();
    lat.sort_unstable();
    [
        setup_ns as f64 / 1e9,
        rounds / (total_ns as f64 / 1e9),
        stats::percentile(&lat, 0.5) as f64 / 1e6,
        stats::percentile(&lat, 0.9) as f64 / 1e6,
        cpu_ns as f64 / 1e6 / rounds,
    ]
}

/// The digest most passes agree on.
fn majority(digests: &[u64]) -> u64 {
    *digests
        .iter()
        .max_by_key(|d| digests.iter().filter(|e| e == d).count())
        .expect("a pass")
}

/// Runs `passes` passes of `kind` and checks them against each other and against the
/// committed digest (`expected`, present for the default seed only).
///
/// # Errors
///
/// When no pass completed — there is then nothing to report.
pub fn run(
    kind: Kind,
    seed: u64,
    passes: usize,
    hardware_threads: usize,
    expected: Option<u64>,
) -> Result<Outcome, String> {
    let mut done = Vec::with_capacity(passes);
    let mut notes = Vec::new();
    for index in 0..passes {
        match pass(kind, seed, hardware_threads) {
            Ok(p) => done.push(p),
            Err(e) => notes.push(format!("pass {index} aborted: {e}")),
        }
    }
    if done.is_empty() {
        return Err(notes.join("; "));
    }
    let attempted = passes * kind.rounds();
    let digests: Vec<u64> = done.iter().map(|p| p.digest).collect();
    let reference = expected.unwrap_or_else(|| majority(&digests));
    let mut failed = (passes - done.len()) * kind.rounds();
    for (index, p) in done.iter().enumerate() {
        if p.digest != reference {
            // A pass whose outputs disagree has no trustworthy round in it.
            failed += kind.rounds();
            notes.push(format!(
                "pass {index}: digest {:#018x}, expected {reference:#018x}",
                p.digest
            ));
        } else {
            failed += p.failed;
        }
        if let Some(e) = &p.error {
            notes.push(format!("pass {index}: {e}"));
        }
    }
    Ok(Outcome {
        metrics: reduce(&done),
        attempted,
        failed,
        correct: failed == 0,
        digest: majority(&digests),
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hand_made(setup: Vec<u64>, lat: Vec<u64>, cpu: Vec<u64>) -> Pass {
        Pass {
            setup,
            lat,
            cpu,
            failed: 0,
            error: None,
            digest: 1,
        }
    }

    #[test]
    fn reduce_applies_min_over_passes_before_every_statistic() {
        // Round i costs (i + 1) ms at best; each pass disturbs different rounds and steps.
        let clean: Vec<u64> = (1..=100u64).map(|i| i * 1_000_000).collect();
        let mut a = clean.clone();
        a[10] *= 50;
        let mut b = clean.clone();
        b[95] *= 3;
        let mut cpu_b = clean.clone();
        cpu_b[0] += 7_000_000;
        let passes = [
            hand_made(vec![300_000_000, 600_000_000], a, clean.clone()),
            hand_made(vec![500_000_000, 100_000_000], b, cpu_b),
        ];
        let [setup_s, rounds_per_s, p50, p90, cpu] = reduce(&passes);
        // 300 ms of build from the first pass + 100 ms of warm-up from the second.
        assert_eq!(setup_s, 0.4);
        assert_eq!(p50, 50.0);
        assert_eq!(p90, 90.0);
        assert_eq!(cpu, 50.5);
        // Σ lat = 5050 ms over 100 rounds.
        assert!((rounds_per_s - 100.0 / 5.05).abs() < 1e-9);
    }

    #[test]
    fn majority_picks_the_agreed_digest() {
        assert_eq!(majority(&[7, 9, 7, 7]), 7);
        assert_eq!(majority(&[5]), 5);
    }
}
