//! `--selfcheck N`: does the benchmark agree with itself? Runs the whole suite 2 × N times
//! (set A then set B, the same N seeds in each) and compares, for every workload ×
//! end-to-end metric, the two set medians against the metric's bound — the check the
//! benchmark's driver applies before it trusts a comparison. The output is committed as
//! NOISE.md.

use crate::run::{self, END_TO_END};
use crate::workloads::{self, Kind};

/// The quartiles Python's `statistics.quantiles(values, n=4)` returns (exclusive method),
/// which is what the driver computes spreads from.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(|a, b| a.partial_cmp(b).expect("finite metrics"));
    let len = data.len();
    assert!(len >= 2, "quartiles need two values");
    let m = len + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    })
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// Runs the check and prints its report (markdown). `Ok(false)` when a gap or a spread
/// exceeds its metric's bound, or a run was incorrect. The driver exempts `setup_s` from the
/// spread rule (not from the gap rule), and so does this.
pub fn run(
    n: usize,
    seed: u64,
    passes: impl Fn(Kind) -> usize,
    hardware_threads: usize,
) -> Result<bool, String> {
    // sets[set][workload][metric] = the N values of that set.
    let mut sets =
        vec![vec![vec![Vec::with_capacity(n); END_TO_END.len()]; workloads::ALL.len()]; 2];
    let mut all_correct = true;
    for set in sets.iter_mut() {
        for offset in 0..n as u64 {
            for (w, kind) in workloads::ALL.into_iter().enumerate() {
                let run_seed = seed + offset;
                let expected = crate::expected_for(kind, run_seed);
                let outcome = run::run(kind, run_seed, passes(kind), hardware_threads, expected)?;
                if !outcome.correct {
                    all_correct = false;
                    eprintln!(
                        "selfcheck: {} seed {run_seed} incorrect: {}",
                        kind.name(),
                        outcome.notes.join("; ")
                    );
                }
                for (m, value) in outcome.metrics.into_iter().enumerate() {
                    set[w][m].push(value);
                }
            }
        }
    }

    println!();
    let pass_counts: Vec<String> = workloads::ALL
        .into_iter()
        .map(|kind| {
            format!(
                "{} {} x {}",
                kind.name(),
                kind.engine_name(hardware_threads),
                passes(kind)
            )
        })
        .collect();
    println!(
        "Two sets of {n} runs each (seeds {seed}..={}), {hardware_threads} hardware threads; engine and passes per run: {}.",
        seed + n as u64 - 1,
        pass_counts.join(", ")
    );
    println!("`gap` = |median B − median A| ÷ median A; `spread` = (Q3 − Q1) ÷ median over a set's runs, quartiles as Python's `statistics.quantiles(values, n=4)` gives them.");
    println!();
    println!("| workload | metric | unit | median A | median B | gap | spread A | spread B | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let mut within = true;
    for (w, kind) in workloads::ALL.into_iter().enumerate() {
        for (m, (name, unit, _, bound)) in END_TO_END.into_iter().enumerate() {
            let (a, b) = (&sets[0][w][m], &sets[1][w][m]);
            let (median_a, median_b) = (quartiles(a)[1], quartiles(b)[1]);
            let gap = (median_b - median_a).abs() / median_a;
            let (spread_a, spread_b) = (spread(a), spread(b));
            let spread_ok = name == "setup_s" || spread_a.max(spread_b) <= bound;
            let ok = gap <= bound && spread_ok;
            within &= ok;
            println!(
                "| {} | {name} | {unit} | {median_a:.5} | {median_b:.5} | {:.2} % | {:.2} % | {:.2} % | {:.0} % | {} |",
                Kind::name(kind),
                gap * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                bound * 100.0,
                if ok { "ok" } else { "EXCEEDS" }
            );
        }
    }
    println!();
    println!(
        "selfcheck: {}",
        if within && all_correct {
            "every gap and every gated spread is within its bound"
        } else {
            "FAILED"
        }
    );
    Ok(within && all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 30, 20], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 30.0, 20.0]), [10.0, 20.0, 30.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(spread(&ten), 1.0);
    }
}
