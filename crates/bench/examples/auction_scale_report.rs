//! Emits `BENCH_auction_scale.json` — the committed perf-trajectory record of the
//! population-scale auction core. Re-times the same rounds as `benches/auction_scale.rs`
//! with plain `Instant` loops (min-of-N, far more stable across CI machines than means) and
//! writes one JSON document with per-`N` streamed selection times under **both** population
//! stream contracts (v1 two-stream, v2 fused single-stream), the dense twin where it is
//! still reasonable to materialise, and the peak resident bid bytes of each streamed round.
//!
//! ```bash
//! cargo run --release -p fmore-bench --example auction_scale_report -- BENCH_auction_scale.json
//! ```
//!
//! Regenerate (and re-commit) after any change to the bid store, the tie-break keys, the
//! bounded selector, or the sharded collection stage, so the repository tracks how each PR
//! moved the selection path. Acceptance gates asserted at the bottom: a 1,000,000-bidder
//! round (bid generation + scoring + top-K selection, K = 64) under 2 s single-threaded, a
//! 10,000,000-bidder round under 20 s, and — the memory story — peak resident bid bytes
//! **identical** across every streamed row of both contracts AND the ψ-FMore rows (the
//! 8192-bid shard, not the population, is the footprint). The v3 schema adds the
//! `streamed_round_psi` section: ψ = 0.8 selection through the bounded ψ admission (a pool
//! as deep as the walk's reach, a rank-only walk, one stream of the population), swept to
//! **10⁸ bidders** at full fidelity — the 1e8 row must hold the same flat peak as the 1e6
//! row: at ψ = 0.8 the walk's reach (108 ranks) sits inside `K + reserve = 128`.
//! `FMORE_BENCH_QUICK=1` shrinks the ψ sweep to 1e7 for smoke runs.

use fmore_auction::SelectionRule;
use fmore_bench::timing::{min_time_ns as time_ns, quick_mode, schema_string, write_report};
use fmore_fl::engine::RoundEngine;
use fmore_mec::population::SpecVersion;
use fmore_sim::experiments::scale::{ScaleConfig, ScaleGame};

fn streamed_rows(
    config: &ScaleConfig,
    selection: SelectionRule,
    engine: &RoundEngine,
    points: &[(usize, usize)],
) -> Vec<(usize, u128, usize)> {
    points
        .iter()
        .map(|&(n, samples)| {
            let game = ScaleGame::with_selection(n, config, selection).expect("scale game builds");
            let mut peak_bytes = 0usize;
            let ns = time_ns(1, samples, || {
                let stage = game.run_streamed(engine, config).expect("round runs");
                peak_bytes = stage.peak_bid_bytes;
                assert_eq!(stage.winners.len(), 64);
            });
            (n, ns, peak_bytes)
        })
        .collect()
}

fn push_streamed_section(json: &mut String, key: &str, rows: &[(usize, u128, usize)]) {
    json.push_str(&format!("  \"{key}\": {{\n"));
    for (i, (n, ns, peak)) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!(
            "    \"n_{n}\": {{ \"ns\": {ns}, \"peak_bid_bytes\": {peak} }}{comma}\n"
        ));
    }
    json.push_str("  },\n");
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_auction_scale.json".to_string());

    let quick = quick_mode();
    let config = ScaleConfig::paper();
    let config_v2 = ScaleConfig::paper().with_spec_version(SpecVersion::V2);
    let engine = RoundEngine::inline();

    // --- Streamed rounds, single-threaded: v1 from 1e4 to 1e7, v2 at the heavy sizes. ---
    let streamed = streamed_rows(
        &config,
        SelectionRule::TopK,
        &engine,
        &[(10_000, 20), (100_000, 10), (1_000_000, 5), (10_000_000, 3)],
    );
    let streamed_v2 = streamed_rows(
        &config_v2,
        SelectionRule::TopK,
        &engine,
        &[(1_000_000, 5), (10_000_000, 3)],
    );

    // --- ψ-FMore through the bounded ψ admission, swept to 1e8 at full fidelity.
    // ψ = 0.8 with K = 64 reaches 108 ranks, inside the K + reserve = 128 pool, so the
    // selector is exactly the top-K rows' and the peak must sit on their shard-scale
    // plateau to the byte.
    let psi_points: &[(usize, usize)] = if quick {
        &[(1_000_000, 3), (10_000_000, 1)]
    } else {
        &[(1_000_000, 3), (10_000_000, 2), (100_000_000, 1)]
    };
    let streamed_psi = streamed_rows(
        &config,
        SelectionRule::PsiFMore { psi: 0.8 },
        &engine,
        psi_points,
    );

    // --- Dense twins where materialising the population is still reasonable. ---
    let mut dense = Vec::new();
    for (n, samples) in [(10_000usize, 20), (100_000, 10)] {
        let game = ScaleGame::new(n, &config).expect("scale game builds");
        let ns = time_ns(2, samples, || {
            let outcome = game.run_dense().expect("dense round runs");
            assert_eq!(outcome.winners().len(), 64);
        });
        dense.push((n, ns));
    }

    // --- Emit the JSON document (no serde in the offline workspace; hand-formatted). ---
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!(
        "  \"schema\": \"{}\",\n",
        schema_string("auction-scale", 3)
    ));
    json.push_str(
        "  \"note\": \"min-of-N wall-clock of one selection round (bid generation + scoring + selection, K=64), single-threaded, under the v1 and v2 population stream contracts; streamed_round_psi is psi-FMore (psi=0.8) through the bounded single-pass admission, swept to 1e8 bidders at the same flat shard-scale peak; regenerate with `cargo run --release -p fmore-bench --example auction_scale_report`\",\n",
    );
    json.push_str(&format!("  \"quick_mode\": {quick},\n"));
    push_streamed_section(&mut json, "streamed_round", &streamed);
    push_streamed_section(&mut json, "streamed_round_v2", &streamed_v2);
    push_streamed_section(&mut json, "streamed_round_psi", &streamed_psi);
    json.push_str("  \"dense_round\": {\n");
    for (i, (n, ns)) in dense.iter().enumerate() {
        let comma = if i + 1 < dense.len() { "," } else { "" };
        json.push_str(&format!("    \"n_{n}\": {{ \"ns\": {ns} }}{comma}\n"));
    }
    json.push_str("  }\n");
    json.push_str("}\n");

    write_report(&out_path, &json);
    let row = |rows: &[(usize, u128, usize)], n: usize| {
        rows.iter()
            .find(|r| r.0 == n)
            .copied()
            .expect("row was timed")
    };
    let (_, million_ns, million_peak) = row(&streamed, 1_000_000);
    let (_, ten_million_ns, _) = row(&streamed, 10_000_000);
    let million_secs = million_ns as f64 / 1e9;
    let ten_million_secs = ten_million_ns as f64 / 1e9;
    let psi_deepest = streamed_psi.last().expect("psi sweep is non-empty");
    eprintln!(
        "wrote {out_path} (1e6 round: {million_secs:.3}s, 1e7 round: {ten_million_secs:.3}s, \
         v2 1e7: {:.3}s, psi 1e{}: {:.3}s, peak {million_peak} bid bytes)",
        row(&streamed_v2, 10_000_000).1 as f64 / 1e9,
        (psi_deepest.0 as f64).log10().round() as u32,
        psi_deepest.1 as f64 / 1e9,
    );

    // Acceptance gates. First the wall-clock trajectory...
    assert!(
        million_secs < 2.0,
        "1e6-bidder selection round regressed past the 2s acceptance gate ({million_secs:.3}s)"
    );
    assert!(
        ten_million_secs < 20.0,
        "1e7-bidder selection round regressed past the 20s acceptance gate ({ten_million_secs:.3}s)"
    );
    // ...then the memory story: every streamed row of both contracts AND the ψ sweep holds
    // the identical shard-scale peak — growing the population 1000x (to 1e8 for ψ),
    // switching stream contract, or switching to the rank-planned ψ admission must
    // not move resident bid memory at all. This is the ISSUE's 1e8 acceptance gate: the
    // deepest ψ row (1e8 at full fidelity) completes at the 1e6 row's flat peak.
    for (n, _, peak) in streamed.iter().chain(&streamed_v2).chain(&streamed_psi) {
        assert_eq!(
            *peak, million_peak,
            "streamed peak bid bytes drifted at n={n}: {peak} != {million_peak} — the flat \
             memory contract of the 8192-bid shard is broken"
        );
    }
    assert!(
        quick || psi_deepest.0 == 100_000_000,
        "the full-fidelity psi sweep must reach 1e8 bidders (got {})",
        psi_deepest.0
    );
    assert!(
        million_peak < 1_000_000 * 48 / 10,
        "streamed peak bid bytes ({million_peak}) is no longer an order of magnitude below a dense store"
    );
}
