//! Emits `BENCH_round_throughput.json` — the committed record of how the round pipeline
//! scales with executor width. Four suites on the work-stealing pool:
//!
//! * **pooled round** — one full federated round (auction → pooled local training →
//!   FedAvg → evaluation) on the hot-path bench configuration (24 clients, 12 winners),
//!   swept over 1/2/4/8 worker threads,
//! * **streamed selection, spec v1** — one million-bidder selection round (lazily derived
//!   bids → sharded batch scoring → per-shard local top-K on the pool → population-order
//!   merge, K = 64) under the golden-compatible two-stream population contract,
//! * **streamed selection, spec v2** — the same round, through the same shard filler
//!   (`NodePopulation::bid_range_into_store`), under the fused single-stream contract,
//!   whose derivation pass hashes a fifth of what v1's does; the 40 ms target is
//!   asserted on it,
//! * **straggler fan-out** — the straggler-heavy local-training fan-out (seven uniform
//!   winners plus one 7×-data straggler submitted last) on a 2-worker pool, per-winner
//!   dispatch vs the chain scheduler's per-batch units: the longest-remaining-first policy
//!   must start the straggler immediately instead of leaving it to serialise the tail.
//!
//! `FMORE_BENCH_QUICK` shrinks the population to 10⁵ so CI can afford the run on every
//! push.
//!
//! ```bash
//! cargo run --release -p fmore-bench --example round_throughput_report -- BENCH_round_throughput.json
//! ```
//!
//! The report records `hardware_threads` next to its numbers and scales its assertions
//! accordingly: on a multi-core runner the 8-thread pooled round **must** beat the
//! 1-thread round (the regression this report exists to prevent — the pre-executor pool
//! showed zero scaling); on a single-core runner real speedup is physically impossible,
//! so that gate degrades to a contention guard, and the JSON says which regime was
//! measured. The ISSUE's 40 ms million-bidder target **asserts on the v2 path** at full
//! fidelity (the fused derivation is what the target was set for); the v1 pair rides
//! along as the recorded baseline, still covered by the hardware-independent contention
//! guard.

use fmore_bench::timing::{hardware_threads, min_time_ns, quick_mode, schema_string, write_report};
use fmore_fl::engine::{local_training_with, FanOutGranularity, RoundEngine};
use fmore_mec::population::SpecVersion;
use fmore_sim::experiments::scale::{ScaleConfig, ScaleGame};

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// Sweeps one streamed million-bidder selection round over the executor widths.
fn sweep_streamed(
    population: usize,
    config: &ScaleConfig,
    warmup: usize,
    samples: usize,
) -> Vec<(usize, u128)> {
    let game = ScaleGame::new(population, config).expect("scale game builds");
    WIDTHS
        .iter()
        .map(|&threads| {
            let engine = RoundEngine::pooled(threads);
            let ns = min_time_ns(warmup, samples, || {
                let stage = game.run_streamed(&engine, config).expect("round runs");
                assert_eq!(stage.winners.len(), 64);
            });
            (threads, ns)
        })
        .collect()
}

fn push_ns_object(json: &mut String, key: &str, rows: &[(usize, u128)], trailing_comma: bool) {
    json.push_str(&format!("  \"{key}\": {{\n"));
    for (i, (threads, ns)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!("    \"threads_{threads}\": {ns}{comma}\n"));
    }
    json.push_str(if trailing_comma { "  },\n" } else { "  }\n" });
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_round_throughput.json".to_string());
    let quick = quick_mode();
    let hw = hardware_threads();

    // --- Pooled federated round (the shared workload) at each executor width. ---
    let (round_warmup, round_samples) = if quick { (1, 8) } else { (3, 30) };
    let mut round_ns = Vec::new();
    for &threads in &WIDTHS {
        let mut trainer = fmore_bench::pooled_round_trainer(threads);
        let ns = min_time_ns(round_warmup, round_samples, || {
            trainer.run_round().expect("round runs");
        });
        round_ns.push((threads, ns));
    }

    // --- Straggler-heavy fan-out: per-winner vs per-batch dispatch on a 2-worker pool. ---
    let (small, straggler) = if quick { (200, 1_400) } else { (400, 2_800) };
    let fan_samples = if quick { 3 } else { 8 };
    let fan_engine = RoundEngine::pooled(2);
    let time_fanout = |granularity: FanOutGranularity| {
        min_time_ns(1, fan_samples, || {
            let jobs = fmore_bench::straggler_fanout_jobs(small, straggler);
            let updates =
                local_training_with(&fan_engine, jobs, granularity).expect("fan-out runs");
            assert_eq!(updates.len(), 8);
        })
    };
    let per_winner_ns = time_fanout(FanOutGranularity::PerWinner);
    let per_batch_ns = time_fanout(FanOutGranularity::PerBatch);
    let fanout_speedup = per_winner_ns as f64 / per_batch_ns as f64;

    // --- Streamed million-bidder selection round, spec v1 vs v2, at each width. ---
    let population = if quick { 100_000 } else { 1_000_000 };
    let (sel_warmup, sel_samples) = if quick { (1, 3) } else { (2, 5) };
    let config_v1 = ScaleConfig::paper();
    let config_v2 = ScaleConfig::paper().with_spec_version(SpecVersion::V2);
    let streamed_v1 = sweep_streamed(population, &config_v1, sel_warmup, sel_samples);
    let streamed_v2 = sweep_streamed(population, &config_v2, sel_warmup, sel_samples);

    let round_1t = round_ns[0].1;
    let round_8t = round_ns[WIDTHS.len() - 1].1;
    let round_speedup = round_1t as f64 / round_8t as f64;
    let v1_1t = streamed_v1[0].1;
    let best_v1 = streamed_v1.iter().map(|&(_, ns)| ns).min().unwrap();
    let v2_1t = streamed_v2[0].1;
    let best_v2 = streamed_v2.iter().map(|&(_, ns)| ns).min().unwrap();
    let best_v1_ms = best_v1 as f64 / 1e6;
    let best_v2_ms = best_v2 as f64 / 1e6;
    let target_met = !quick && best_v2_ms < 40.0;

    // --- Emit the JSON document (no serde in the offline workspace; hand-formatted). ---
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"schema\": \"{}\",\n",
        schema_string("round-throughput", 3)
    ));
    json.push_str(
        "  \"note\": \"min-of-N wall-clock per executor width; regenerate with `cargo run --release -p fmore-bench --example round_throughput_report`\",\n",
    );
    json.push_str(&format!("  \"hardware_threads\": {hw},\n"));
    json.push_str(&format!("  \"quick_mode\": {quick},\n"));
    push_ns_object(&mut json, "pooled_round_ns", &round_ns, true);
    json.push_str(&format!(
        "  \"pooled_round_speedup_8t\": {round_speedup:.2},\n"
    ));
    json.push_str(&format!(
        "  \"straggler_fanout\": {{ \"jobs\": 8, \"small\": {small}, \"straggler\": {straggler}, \
         \"pool_threads\": 2, \"per_winner_ns\": {per_winner_ns}, \"per_batch_ns\": {per_batch_ns}, \
         \"per_batch_speedup\": {fanout_speedup:.2} }},\n"
    ));
    json.push_str(&format!(
        "  \"streamed_round\": {{ \"population\": {population}, \"k\": 64 }},\n"
    ));
    json.push_str("  \"streamed_round_v1\": { \"spec_version\": \"v1\" },\n");
    push_ns_object(&mut json, "streamed_round_v1_ns", &streamed_v1, true);
    json.push_str(&format!(
        "  \"streamed_round_v1_best_ms\": {best_v1_ms:.3},\n"
    ));
    json.push_str("  \"streamed_round_v2\": { \"spec_version\": \"v2\" },\n");
    push_ns_object(&mut json, "streamed_round_v2_ns", &streamed_v2, true);
    json.push_str(&format!(
        "  \"streamed_round_v2_best_ms\": {best_v2_ms:.3},\n"
    ));
    json.push_str(&format!(
        "  \"streamed_round_target\": {{ \"ms\": 40, \"spec_version\": \"v2\", \"met\": {target_met} }}\n"
    ));
    json.push_str("}\n");

    write_report(&out_path, &json);
    eprintln!(
        "wrote {out_path} (8-thread round speedup {round_speedup:.2}x on {hw} hardware threads; \
         best streamed {population}-bidder round v1 {best_v1_ms:.1} ms, v2 {best_v2_ms:.1} ms; \
         straggler fan-out per-batch speedup {fanout_speedup:.2}x)"
    );

    // --- Gates. ---
    if hw >= 2 {
        // The regression this report exists to prevent: before the work-stealing executor
        // the pooled round showed zero scaling (1.72 ms at 1 thread vs 1.76 ms at 8).
        assert!(
            round_8t < round_1t,
            "8-thread pooled round ({round_8t} ns) is not faster than 1-thread ({round_1t} ns) \
             on {hw} hardware threads"
        );
    } else {
        // Single-core runner: speedup is physically impossible; only guard against the
        // executor *adding* contention cost. With the submitter executing injector units,
        // a width-8 pool on one core is the same serial work plus queue traffic — it must
        // never lose to width-1 by more than the contention bound.
        assert!(
            round_8t as f64 <= round_1t as f64 * 1.5,
            "8-thread pooled round ({round_8t} ns) is drastically slower than 1-thread \
             ({round_1t} ns) on a single-core runner — executor contention regression"
        );
    }
    if hw >= 2 {
        // The win the chain scheduler was built for: on a real multi-core machine the
        // per-batch units let the straggler start first (longest-remaining-first), so the
        // fan-out must beat the per-winner dispatch that strands the straggler at the tail.
        assert!(
            per_batch_ns < per_winner_ns,
            "per-batch fan-out ({per_batch_ns} ns) did not beat per-winner dispatch \
             ({per_winner_ns} ns) on the straggler-heavy round with {hw} hardware threads"
        );
    } else {
        // Single-core runner: both dispatches serialise the same work, so only guard
        // against the chain scheduler adding contention cost per unit.
        assert!(
            per_batch_ns as f64 <= per_winner_ns as f64 * 1.5,
            "per-batch fan-out ({per_batch_ns} ns) is drastically slower than per-winner \
             ({per_winner_ns} ns) on a single-core runner — chain scheduler contention \
             regression"
        );
    }
    // Hardware-independent contention guards for both streamed pairs: widening the pool
    // must never make selection drastically slower than running it on one worker.
    for (label, best, one_t) in [("v1", best_v1, v1_1t), ("v2", best_v2, v2_1t)] {
        assert!(
            best as f64 <= one_t as f64 * 1.5,
            "best multi-threaded streamed {label} round ({best} ns) is drastically slower \
             than the 1-thread round ({one_t} ns) — executor contention regression"
        );
    }
    // The ISSUE's 40 ms million-bidder target, asserted on the fused v2 path at full
    // fidelity — the whole point of the single-stream derivation.
    if !quick {
        assert!(
            best_v2_ms < 40.0,
            "v2 streamed {population}-bidder round took {best_v2_ms:.3} ms — the fused \
             bid path must clear the 40 ms target"
        );
    }
}
