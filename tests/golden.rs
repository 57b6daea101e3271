//! Golden regression tests over the experiment registry.
//!
//! Every registry entry's quick-fidelity report is reduced to a **fingerprint** — per table:
//! the title, the row count, and the final row (the headline numbers a figure would plot
//! last) — and compared against the committed expectations below. The whole pipeline is
//! seeded and bit-deterministic across pool sizes and execution modes, so any drift in these
//! strings is a real behavioural change in auction, training, churn, or accounting code —
//! it must be reviewed and, if intended, re-committed here, instead of silently shifting the
//! figures.
//!
//! To regenerate after an intentional change:
//!
//! ```bash
//! cargo test --test golden -- --nocapture 2>&1 | grep -A2 'fingerprint\['
//! ```
//! (the failure output prints the actual fingerprint of every drifted entry).

use fmore::fl::engine::RoundEngine;
use fmore::mec::population::{NodePopulation, PopulationSpec, SpecVersion};
use fmore::sim::experiments::registry::{self, ExperimentReport, Fidelity};
use fmore::sim::experiments::scale::{ScaleConfig, ScaleGame};
use fmore::sim::ScenarioRunner;

/// Reduces a report to its committed-comparable form.
fn fingerprint(report: &ExperimentReport) -> String {
    report
        .tables
        .iter()
        .map(|t| {
            let last = t
                .rows
                .last()
                .map_or_else(|| "<empty>".to_string(), |r| r.join(";"));
            format!("{} [rows={}] last: {}", t.title, t.rows.len(), last)
        })
        .collect::<Vec<_>>()
        .join(" || ")
}

/// The committed quick-fidelity fingerprints, in registry order.
const EXPECTED: &[(&str, &str)] = &[
    (
        "accuracy",
        "Accuracy and loss per round — MNIST-O [rows=3] last: \
         3;0.4917;0.5417;0.4500;1.5406;1.4950;1.6426",
    ),
    (
        "scores",
        "Winner score distribution (Fig. 8) [rows=4] last: FixFL;9.257;7.417;12",
    ),
    (
        "impact-n",
        "Impact of N (Fig. 9) [rows=2] last: 70%;not reached;not reached",
    ),
    (
        "impact-k",
        "Impact of K (Fig. 10) [rows=2] last: 70%;not reached;4",
    ),
    (
        "impact-psi",
        "Impact of ψ (Fig. 11) [rows=3] last: 0.9;9.1;18.2;20.0",
    ),
    (
        "cluster",
        "Cluster deployment: accuracy and training time (Figs. 12-13) [rows=3] last: \
         3;0.3583;40.6;0.3917;47.7",
    ),
    (
        "headline",
        "Headline metrics: FMore vs RandFL [rows=2] last: \
         cluster CIFAR-10 (target 0%);40.4%;-8.5%",
    ),
    (
        "churn-dropout",
        "Dropout sweep: graceful degradation under churn (dynamic MEC) [rows=3] last: \
         0.50;0.3675;0.3650;0.417;0.417;302.0;302.0",
    ),
    (
        "churn-time",
        "Cluster comparison under churn: accuracy and training time (dynamic MEC) [rows=6] \
         last: t-to-acc 0.30 (s);68.5;;182.5;",
    ),
    (
        "churn-waste",
        "Straggler sweep: payment waste under deadline pressure (dynamic MEC) [rows=3] last: \
         0.80;6.796;0.947;17;2;0.900",
    ),
    (
        "scale-selection",
        "Population-scale selection: streamed top-K over lazily derived bidders [rows=3] last: \
         20000;20000;64;8.7094;0.7587;128;-",
    ),
    (
        "scale-memory",
        "Population-scale memory: streamed peak vs dense bid store [rows=3] last: \
         20000;202.0;937.5;4.6x",
    ),
    (
        "scale-parity",
        "Population-scale parity: streamed selection vs dense full-sort [rows=2] last: \
         5000;64;yes;0.0e0",
    ),
    (
        "service-soak",
        "Service soak: 4 concurrent jobs on one pool [rows=4] last: \
         job3-psi-FMore-v2;psi-FMore;v2;3;0;7.0;3.8042;yes",
    ),
    (
        "chaos-soak",
        "Chaos soak: 4 tenants, fault plan on the odd half [rows=4] last: \
         job3-psi-FMore-v2-chaos;yes;3;2;6;1;2;1.00;yes;yes",
    ),
    (
        "adversary-soak",
        "Byzantine convergence: 10-member panel, 20 rounds, ~30% poisoned [rows=5] last: \
         krum;99.9;99.9;0.0;40;robust || \
         Adversary soak: 4 tenants, Byzantine plan + reputation on the odd half [rows=4] last: \
         job3-psi-FMore-v2-adv;trimmed-mean;yes;8;1;14;10;yes",
    ),
];

/// FNV-1a offset basis; the digests below fold exact bit patterns, so any single-ULP
/// drift anywhere in the v2 derivation or selection pipeline changes them.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one 64-bit word into an FNV-1a digest.
fn fold_word(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Folds the exact bits of one `f64` into an FNV-1a digest.
fn fold_bits(h: u64, x: f64) -> u64 {
    fold_word(h, x.to_bits())
}

/// The committed digests of the v2 fused-stream contract: θ draws, per-round profile
/// draws, and one full streamed selection round (winner ids, scores, payments).
///
/// [`SpecVersion::V2`] has no registry entry, so these digests **are** its goldens: v1's
/// fingerprints pin the original two-stream contract above, and these pin the fused
/// single-stream derivation the million-bidder round runs on. Drift means the v2
/// contract changed — review it, and if intended re-commit the printed actual values.
const V2_DIGESTS: [u64; 3] = [
    0xcb9f_3f96_ef72_fdf4,
    0x6f64_c2af_a705_6325,
    0x4f8a_3889_a0c9_e718,
];

#[test]
fn v2_population_and_selection_digests_match_committed_values() {
    let spec = PopulationSpec::scale_default(4_096, 2_020).with_version(SpecVersion::V2);
    let population = NodePopulation::new(spec).expect("valid spec");
    let mut theta_digest = FNV_OFFSET;
    let mut profile_digest = FNV_OFFSET;
    for i in 0..population.len() {
        theta_digest = fold_bits(theta_digest, population.theta(i));
        for round in 0..3 {
            let p = population.profile(i, round);
            profile_digest = fold_bits(profile_digest, p.cpu_cores);
            profile_digest = fold_bits(profile_digest, p.bandwidth_mbps);
            profile_digest = fold_bits(profile_digest, p.data_size);
        }
    }
    let config = ScaleConfig::quick().with_spec_version(SpecVersion::V2);
    let game = ScaleGame::new(5_000, &config).expect("game builds");
    let stage = game
        .run_streamed(&RoundEngine::inline(), &config)
        .expect("streamed round");
    let mut selection_digest = FNV_OFFSET;
    for w in &stage.winners {
        selection_digest = fold_word(selection_digest, w.node.0);
        selection_digest = fold_bits(selection_digest, w.score);
        selection_digest = fold_bits(selection_digest, w.payment);
    }
    let actual = [theta_digest, profile_digest, selection_digest];
    assert_eq!(
        actual, V2_DIGESTS,
        "v2 goldens drifted (θ, profile, selection) — actual {actual:#x?}; if the change is \
         intended, update V2_DIGESTS in tests/golden.rs"
    );
}

#[test]
fn every_registry_entry_matches_its_committed_fingerprint() {
    let runner = ScenarioRunner::new();
    let reports = registry::run_all(&runner, Fidelity::Quick).expect("registry runs");
    assert_eq!(reports.len(), EXPECTED.len(), "registry size drifted");
    let mut drifted = Vec::new();
    for (report, (name, expected)) in reports.iter().zip(EXPECTED) {
        assert_eq!(&report.name, name, "registry order drifted");
        let actual = fingerprint(report);
        if actual != *expected {
            println!("fingerprint[{name}]\n  expected: {expected}\n  actual:   {actual}");
            drifted.push(*name);
        }
    }
    assert!(
        drifted.is_empty(),
        "golden fingerprints drifted for {drifted:?} — see the printed actual values; if the \
         change is intended, update EXPECTED in tests/golden.rs"
    );
}
