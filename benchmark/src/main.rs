//! The repo's benchmark. One command runs every workload, checks their outputs and prints
//! every metric by name with its unit; see README.md for what is measured and why it is
//! timed the way it is.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds N] [--trace [0|1]] [--selfcheck N]
//! ```
//!
//! The last line of standard output is one JSON object per the benchmark contract:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {name: {"value": …, "unit": …}}}`
//! — the end-to-end metrics of the untraced run, or with `--trace 1` the per-layer metrics
//! of the traced run.

mod layers;
mod run;
mod selfcheck;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Kind;

const DEFAULT_SECONDS: u64 = 28;

/// Where the traced run writes its span files: `out/` beside this package's manifest, so the
/// files land inside the checkout the binary was built from whatever the working directory.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
    selfcheck: Option<usize>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: workloads::DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        selfcheck: None,
    };
    let mut pending: Option<String> = None;
    loop {
        let Some(flag) = pending.take().or_else(|| argv.next()) else {
            return Ok(args);
        };
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Kind::from_name(&name).ok_or_else(|| {
                    let known: Vec<_> = workloads::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload '{name}' (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--selfcheck" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|e| format!("--selfcheck: {e}"))?;
                if n < 3 {
                    return Err("--selfcheck needs N >= 3 runs per set".into());
                }
                args.selfcheck = Some(n);
            }
            // `--trace` alone switches tracing on; the driver's form is `--trace 0|1`.
            "--trace" => match argv.next() {
                Some(v) if v == "0" => args.trace = false,
                Some(v) if v == "1" => args.trace = true,
                other => {
                    args.trace = true;
                    pending = other;
                }
            },
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
}

/// Passes of `kind` a `--seconds` budget buys. Derived from the budget up front — never from
/// a clock while measuring — so every run of a given budget times identical rounds.
fn passes_for(kind: Kind, seconds: u64) -> usize {
    (seconds * 1_000 / kind.pass_ms()).clamp(3, 64) as usize
}

/// The committed default-seed digest of `kind`, from `expected.json`.
fn expected_digest(kind: Kind) -> Option<u64> {
    let text = include_str!("../expected.json");
    let key = format!("\"{}\"", kind.name());
    let rest = &text[text.find(&key)? + key.len()..];
    let start = rest.find("\"0x")? + 3;
    let end = start + rest[start..].find('"')?;
    u64::from_str_radix(&rest[start..end], 16).ok()
}

/// The digest a run at `seed` must reproduce, if one is committed for it.
fn expected_for(kind: Kind, seed: u64) -> Option<u64> {
    (seed == workloads::DEFAULT_SEED)
        .then(|| expected_digest(kind))
        .flatten()
}

/// The contract's result line.
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        )
        .expect("writing to a String");
    }
    line.push_str("}}");
    line
}

/// Injected chaos panics fire inside timed rounds; the default hook would write each one to
/// stderr there. Everything else still reports as usual.
fn silence_injected_panics() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !message.starts_with("injected fault") {
            default(info);
        }
    }));
}

fn untraced(kind: Kind, args: &Args, hardware_threads: usize) -> Result<String, String> {
    let passes = passes_for(kind, args.seconds);
    let outcome = run::run(
        kind,
        args.seed,
        passes,
        hardware_threads,
        expected_for(kind, args.seed),
    )?;
    println!(
        "workload {}: {passes} passes x ({} warm-up + {} timed rounds), closed loop, 1 client, engine {}, digest {:#018x}",
        kind.name(),
        kind.warmup(),
        kind.rounds(),
        kind.engine_name(hardware_threads),
        outcome.digest
    );
    let mut metrics = Vec::new();
    for ((name, unit, _, _), value) in run::END_TO_END.iter().zip(outcome.metrics) {
        let samples = if name.starts_with("round_p") {
            format!("  ({} samples)", kind.rounds())
        } else {
            String::new()
        };
        println!("  {name:<18} {value:>14.6} {unit}{samples}");
        metrics.push((*name, value, *unit));
    }
    for note in &outcome.notes {
        println!("  ! {note}");
    }
    println!(
        "  attempted {} failed {} correct {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    Ok(result_line(
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        &metrics,
    ))
}

fn traced(kind: Kind, args: &Args, hardware_threads: usize) -> Result<String, String> {
    let report = layers::measure(kind, args.seed, hardware_threads)?;
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
    for (traced, json) in &report.traces {
        let path = format!("{TRACE_DIR}/trace-{}.json", traced.name());
        std::fs::write(&path, json).map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "traced run, {} first: every layer measured from outside; spans in {TRACE_DIR}/trace-<workload>.json",
        kind.name()
    );
    let mut metrics = Vec::new();
    for (name, unit, _) in layers::PER_LAYER {
        let value = *report
            .values
            .get(name)
            .ok_or(format!("per-layer metric {name} was not measured"))?;
        println!("  {name:<36} {value:>16.6} {unit}");
        metrics.push((name, value, unit));
    }
    for fault in &report.faults {
        println!("  ! {fault}");
    }
    let correct = report.faults.is_empty() && report.failed == 0;
    println!(
        "  attempted {} failed {} correct {correct}",
        report.attempted, report.failed
    );
    Ok(result_line(
        correct,
        report.attempted,
        report.failed,
        &metrics,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fmore-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("fmore-benchmark: refusing to time a debug build; use --release");
        return ExitCode::from(2);
    }
    silence_injected_panics();
    let started = Instant::now();
    let hardware_threads = fmore_bench::timing::hardware_threads();
    println!(
        "fmore benchmark: seed {}, hardware_threads {hardware_threads}, busy_threads {}",
        args.seed,
        stats::busy_threads(hardware_threads)
    );
    if let Some(n) = args.selfcheck {
        let passes = |kind| passes_for(kind, args.seconds);
        return match selfcheck::run(n, args.seed, passes, hardware_threads) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("fmore-benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }
    // A traced run measures every layer whichever workload it names, so it runs once.
    let kinds = match (args.workload, args.trace) {
        (Some(kind), _) => vec![kind],
        (None, true) => vec![workloads::ALL[0]],
        (None, false) => workloads::ALL.to_vec(),
    };
    let mut lines = Vec::new();
    for kind in kinds {
        let line = if args.trace {
            traced(kind, &args, hardware_threads)
        } else {
            untraced(kind, &args, hardware_threads)
        };
        match line {
            Ok(line) => lines.push(line),
            Err(e) => {
                eprintln!("fmore-benchmark: {}: {e}", kind.name());
                return ExitCode::FAILURE;
            }
        }
    }
    println!("total wall time {:.1} s", started.elapsed().as_secs_f64());
    // One result line per workload run; the contract reads the last one.
    for line in lines {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse(&[
            "--workload",
            "select-1m",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(args.workload, Some(Kind::Select1m));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 20, false));
        assert!(parse(&["--trace", "1"]).unwrap().trace);
        // A bare `--trace` switches tracing on and does not swallow the next flag.
        let bare = parse(&["--trace", "--seed", "9"]).unwrap();
        assert!(bare.trace);
        assert_eq!(bare.seed, 9);
        assert!(parse(&["--trace"]).unwrap().trace);
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.seed, workloads::DEFAULT_SEED);
        assert!(defaults.workload.is_none() && !defaults.trace);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--selfcheck", "2"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }

    #[test]
    fn the_pass_count_is_a_pure_function_of_the_budget() {
        assert_eq!(passes_for(Kind::TrainRound, DEFAULT_SECONDS), 16);
        assert_eq!(passes_for(Kind::Select1m, DEFAULT_SECONDS), 8);
        assert_eq!(passes_for(Kind::SelectPsi250k, DEFAULT_SECONDS), 7);
        assert_eq!(passes_for(Kind::FleetMixed, DEFAULT_SECONDS), 46);
        assert_eq!(passes_for(Kind::Select1m, 1), 3);
        assert_eq!(passes_for(Kind::FleetMixed, 60), 64);
    }

    #[test]
    fn every_workload_has_a_committed_digest_for_the_default_seed_only() {
        for kind in workloads::ALL {
            assert!(expected_digest(kind).is_some(), "{}", kind.name());
            assert!(expected_for(kind, workloads::DEFAULT_SEED).is_some());
            assert!(expected_for(kind, workloads::DEFAULT_SEED + 1).is_none());
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contracts_keys() {
        let line = result_line(true, 10, 0, &[("a_ms", 1.25, "ms"), ("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"a_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    /// `BENCHMARK.json` is written by hand; the binary's own tables are the other copy.
    #[test]
    fn the_manifest_names_exactly_what_the_binary_prints() {
        let manifest = include_str!("../../BENCHMARK.json");
        for kind in workloads::ALL {
            assert!(manifest.contains(&format!("{{\"name\": \"{}\", \"why\":", kind.name())));
        }
        assert_eq!(manifest.matches("\"why\":").count(), workloads::ALL.len());
        for (name, unit, better, bound) in run::END_TO_END {
            let entry = format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            );
            assert!(manifest.contains(&entry), "{entry}");
        }
        assert_eq!(
            manifest.matches("\"bound\":").count(),
            run::END_TO_END.len()
        );
        for (name, unit, better) in layers::PER_LAYER {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
            assert!(manifest.contains(&entry), "{entry}");
        }
        assert_eq!(
            manifest.matches("\"better\":").count(),
            run::END_TO_END.len() + layers::PER_LAYER.len()
        );
        assert!(manifest.contains(&format!("\"run_seconds\": {DEFAULT_SECONDS}")));
    }
}
