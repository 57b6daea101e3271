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
//! A fingerprint sees only what its last row prints, rounded. Three families of **digests**
//! fold exact `f64` bits instead: `V2_DIGESTS` pins the v2 population stream contract,
//! `PARAMETER_DIGESTS` pins every value of the parameter figures (Figs. 9–11) — each
//! rounds-to-accuracy triple and sweep point at quick fidelity, and the three tables
//! `examples/parameter_sweep.rs` prints — and `DRIVER_DIGESTS` pins every per-round metric
//! of the federated trainer and of a churn-heavy MEC cluster.
//!
//! To regenerate after an intentional change:
//!
//! ```bash
//! cargo test --test golden -- --nocapture 2>&1 | grep -A2 'fingerprint\['
//! ```
//! (the failure output prints the actual fingerprint of every drifted entry, and a drifted
//! digest assertion prints the actual digests).

use fmore::auction::{PricingRule, SelectionRule};
use fmore::fl::config::FlConfig;
use fmore::fl::engine::RoundEngine;
use fmore::fl::metrics::RoundMetrics;
use fmore::fl::selection::{AuctionSelectionConfig, SelectionStrategy};
use fmore::fl::trainer::FederatedTrainer;
use fmore::mec::population::{NodePopulation, PopulationSpec, SpecVersion};
use fmore::mec::{ChurnModel, ClusterConfig, ClusterStrategy, DynamicsConfig, MecCluster};
use fmore::ml::dataset::TaskKind;
use fmore::sim::experiments::parameter_impact::{self, Axis, ParameterImpactConfig, SweepPoint};
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
        "Impact of N (Fig. 9) [rows=2] last: 70%;not reached;not reached || \
         Payment and score vs N (Fig. 9b) [rows=3] last: 80;1.1029;18.7807",
    ),
    (
        "impact-k",
        "Impact of K (Fig. 10) [rows=2] last: 70%;not reached;4 || \
         Payment and score vs K (Fig. 10b) [rows=3] last: 8;1.6665;14.4578",
    ),
    (
        "impact-psi",
        "Impact of ψ on training speed (Fig. 11a) [rows=2] last: 70%;not reached;not reached || \
         Impact of ψ (Fig. 11) [rows=3] last: 0.9;9.1;18.2;20.0",
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

/// The committed digests of the parameter figures (Figs. 9–11), in this order: the quick
/// `impact-n`, `impact-k` and `impact-psi` configurations (every rounds-to-accuracy triple,
/// then every sweep point), then the N, K and ψ tables of `examples/parameter_sweep.rs`.
/// The string goldens print one rounded row of these figures and none of the N / K sweeps;
/// these fold the exact bits of every value, so a single-ULP move in one payment shows here.
const PARAMETER_DIGESTS: [u64; 6] = [
    0xb824_3e28_24ad_2769,
    0x8701_a49d_3cc1_4792,
    0x0611_2347_5bb2_cbba,
    0xcb73_43ae_9ba0_5aa7,
    0xfc11_9b11_76a9_b851,
    0xe7dc_2080_9794_9066,
];

/// Folds one rounds-to-accuracy triple (target, rounds at the small and at the large end of
/// the compared pair; `None` — never reached — folds as `u64::MAX`).
fn fold_rounds_to_accuracy(
    h: u64,
    (target, small, large): (f64, Option<usize>, Option<usize>),
) -> u64 {
    let reached = |r: Option<usize>| r.map_or(u64::MAX, |r| r as u64);
    fold_word(
        fold_word(fold_bits(h, target), reached(small)),
        reached(large),
    )
}

/// Folds panel (b) of one figure: per point, the swept value (a count folded as a word on
/// the N and K axes, ψ's bits on the ψ axis), then the bits of every plotted quantity.
fn fold_sweep(h: u64, axis: Axis, sweep: &[SweepPoint]) -> u64 {
    sweep.iter().fold(h, |h, p| {
        let h = match axis {
            Axis::N | Axis::K => fold_word(h, p.value as u64),
            Axis::Psi => fold_bits(h, p.value),
        };
        p.stats.iter().copied().fold(h, fold_bits)
    })
}

#[test]
fn parameter_figure_digests_match_committed_values() {
    let runner = ScenarioRunner::new();
    let mut actual = [FNV_OFFSET; 6];
    for (digest, axis) in actual.iter_mut().zip([Axis::N, Axis::K, Axis::Psi]) {
        let figure = parameter_impact::run(&runner, &ParameterImpactConfig::quick(axis))
            .expect("parameter figure runs");
        *digest = figure
            .rounds_to_accuracy
            .iter()
            .fold(*digest, |h, &triple| fold_rounds_to_accuracy(h, triple));
        *digest = fold_sweep(*digest, axis, &figure.sweep);
    }
    // The three tables of examples/parameter_sweep.rs, through the call it makes.
    let example = [
        ParameterImpactConfig {
            seed: 100,
            ..ParameterImpactConfig::paper(Axis::N)
        },
        ParameterImpactConfig {
            seed: 200,
            ..ParameterImpactConfig::paper(Axis::K)
        },
        ParameterImpactConfig {
            trials: 300,
            seed: 7,
            ..ParameterImpactConfig::paper(Axis::Psi)
        },
    ];
    for (digest, config) in actual[3..].iter_mut().zip(&example) {
        let sweep = parameter_impact::sweep(&runner, config).expect("sweep runs");
        *digest = fold_sweep(*digest, config.axis, &sweep);
    }
    assert_eq!(
        actual, PARAMETER_DIGESTS,
        "parameter-figure digests drifted (impact-n, impact-k, impact-psi, example N, K, ψ) \
         — actual {actual:#x?}; if the change is intended, update PARAMETER_DIGESTS in \
         tests/golden.rs"
    );
}

/// The committed digests of the two drivers that select winners from a list of collected
/// bids, in this order: a churn-heavy `MecCluster` (dropouts, stragglers, a deadline and
/// re-auction refills; six seeds × four rounds), then `FederatedTrainer` (K = 3, two
/// rounds) under ψ = 0.5 with first price, ψ = 0.3 with second price, and top-K with second
/// price. They fold the exact bits of every `RoundMetrics` field, and of each cluster
/// round's `round_secs`, where the `cluster` and `accuracy` goldens print one rounded row.
const DRIVER_DIGESTS: [u64; 4] = [
    0x59e6_7a3b_40d6_e196,
    0x08c9_f2c7_3692_5501,
    0x75d1_7da8_bea6_5b0e,
    0x995c_c4cd_5645_a681,
];

/// Folds one round's metrics: accuracy and loss, every winner, every score of the auction
/// and every churn counter.
fn fold_round(h: u64, m: &RoundMetrics) -> u64 {
    let mut h = fold_bits(fold_bits(fold_word(h, m.round as u64), m.accuracy), m.loss);
    h = fold_word(h, m.winners.len() as u64);
    for w in &m.winners {
        h = fold_word(
            fold_word(fold_word(h, w.node.0), w.client as u64),
            w.data_size as u64,
        );
        h = fold_bits(fold_bits(h, w.score), w.payment);
    }
    h = fold_word(h, m.all_scores.len() as u64);
    h = m.all_scores.iter().copied().fold(h, fold_bits);
    let o = &m.outcome;
    let counts = [
        o.selected,
        o.completed,
        o.dropouts,
        o.stragglers,
        o.deadline_misses,
        o.reauction_waves,
        o.replacements,
    ];
    h = counts.into_iter().fold(h, |h, c| fold_word(h, c as u64));
    fold_bits(h, o.wasted_payment)
}

#[test]
fn trainer_and_cluster_digests_match_committed_values() {
    let churn = ChurnModel::stable()
        .with_dropout(0.3)
        .with_stragglers(0.3, 5.0);
    let dynamics = DynamicsConfig::new(churn)
        .with_deadline(20.0)
        .with_reauction_waves(3);
    let (mut cluster_digest, mut replacements) = (FNV_OFFSET, 0);
    for seed in 0..6 {
        let config = ClusterConfig::fast_test().with_dynamics(dynamics);
        let mut cluster =
            MecCluster::new(config, ClusterStrategy::FMore, seed).expect("cluster builds");
        for round in cluster.run(4).expect("cluster runs").rounds {
            replacements += round.learning.outcome.replacements;
            cluster_digest = fold_bits(
                fold_round(cluster_digest, &round.learning),
                round.round_secs,
            );
        }
    }
    assert!(
        replacements > 0,
        "the churn scenario must refill from the standing pool"
    );
    let mut actual = [cluster_digest; 4];
    let trainers = [
        (
            SelectionRule::PsiFMore { psi: 0.5 },
            PricingRule::FirstPrice,
        ),
        (
            SelectionRule::PsiFMore { psi: 0.3 },
            PricingRule::SecondPrice,
        ),
        (SelectionRule::TopK, PricingRule::SecondPrice),
    ];
    for (digest, (selection, pricing)) in actual[1..].iter_mut().zip(trainers) {
        let mut config = FlConfig::fast_test(TaskKind::MnistO);
        config.winners_per_round = 3;
        let strategy = SelectionStrategy::Auction(AuctionSelectionConfig {
            selection,
            pricing,
            ..AuctionSelectionConfig::default()
        });
        let mut trainer = FederatedTrainer::new(config, strategy, 5).expect("trainer builds");
        let history = trainer.run(2).expect("trainer runs");
        *digest = history.rounds.iter().fold(FNV_OFFSET, fold_round);
    }
    assert_eq!(
        actual, DRIVER_DIGESTS,
        "driver digests drifted (churn cluster, ψ 0.5 first price, ψ 0.3 second price, top-K \
         second price) — actual {actual:#x?}; if the change is intended, update DRIVER_DIGESTS \
         in tests/golden.rs"
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
