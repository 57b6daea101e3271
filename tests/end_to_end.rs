//! Cross-crate integration tests: auction → federated learning → MEC cluster → experiment
//! harness, exercised through the public `fmore` facade exactly as a downstream user would.

use fmore::auction::prelude::*;
use fmore::auction::properties;
use fmore::fl::config::FlConfig;
use fmore::fl::selection::SelectionStrategy;
use fmore::fl::trainer::FederatedTrainer;
use fmore::mec::cluster::{ClusterConfig, ClusterStrategy, MecCluster};
use fmore::ml::dataset::TaskKind;
use fmore::numerics::{seeded_rng, UniformDist};
use fmore::sim::experiments::{accuracy, headline, scores};
use fmore::sim::ScenarioRunner;

/// The full FMore pipeline on a small task: equilibrium bidding, auction-based selection,
/// local training, aggregation — and the selection advantage it is supposed to deliver.
#[test]
fn fmore_selects_better_nodes_than_random_and_learns() {
    let mut config = FlConfig::fast_test(TaskKind::MnistO);
    config.clients = 20;
    config.winners_per_round = 5;
    config.partition.clients = 20;
    config.train_samples = 1200;
    config.rounds_sanity();

    let mut fmore = FederatedTrainer::new(config.clone(), SelectionStrategy::fmore(), 3).unwrap();
    let mut random = FederatedTrainer::new(config, SelectionStrategy::random(), 3).unwrap();

    let fmore_history = fmore.run(4).unwrap();
    let random_history = random.run(4).unwrap();

    // FMore pays its winners, RandFL does not.
    assert!(fmore_history.total_payment() > 0.0);
    assert_eq!(random_history.total_payment(), 0.0);

    // FMore's winners carry more data into each aggregation round than random selection
    // (that is exactly what the scoring rule rewards).
    let mean_data = |h: &fmore::fl::metrics::TrainingHistory| {
        let total: usize = h.rounds.iter().map(|r| r.total_data()).sum();
        total as f64 / h.rounds.len() as f64
    };
    assert!(
        mean_data(&fmore_history) >= mean_data(&random_history) * 0.9,
        "FMore should not feed dramatically less data than random selection"
    );

    // Both learn something.
    assert!(fmore_history.final_accuracy() > 0.2);
    assert!(random_history.final_accuracy() > 0.1);
}

// Small extension trait so the test reads naturally; verifies the config is valid.
trait ConfigSanity {
    fn rounds_sanity(&self);
}
impl ConfigSanity for FlConfig {
    fn rounds_sanity(&self) {
        assert!(self.validate().is_ok());
    }
}

/// The equilibrium strategy produced by the auction crate is consistent with the theory the
/// paper states (Theorems 2, 3, 5) when driven through the facade crate.
#[test]
fn equilibrium_theory_holds_through_the_facade() {
    let build = |n: usize, k: usize| {
        EquilibriumSolver::builder()
            .scoring(Additive::new(vec![1.0]).unwrap())
            .cost(QuadraticCost::new(vec![1.0]).unwrap())
            .theta(UniformDist::new(0.2, 1.0).unwrap())
            .bounds(vec![(0.0, 4.0)])
            .population(n)
            .winners(k)
            .grid_size(96)
            .build()
            .unwrap()
    };
    let by_n: Vec<_> = [10, 20, 40].iter().map(|&n| build(n, 4)).collect();
    assert!(properties::profit_decreases_with_population(&by_n, 0.4, 1e-6).unwrap());
    let by_k: Vec<_> = [2, 4, 8].iter().map(|&k| build(30, k)).collect();
    assert!(properties::profit_increases_with_winners(&by_k, 0.4, 1e-6).unwrap());

    let solver = build(30, 6);
    let scoring = Additive::new(vec![1.0]).unwrap();
    assert!(
        properties::incentive_compatibility_holds(&solver, &scoring, 0.5, &[0.5, 0.9]).unwrap()
    );
}

/// One auction round run end-to-end through the facade: bids in, ranked outcome and
/// first-price payments out.
#[test]
fn auction_round_through_the_facade() {
    let scoring = CobbDouglas::with_scale(25.0, vec![1.0, 1.0]).unwrap();
    let auction = Auction::new(
        ScoringRule::new(scoring),
        2,
        SelectionRule::TopK,
        PricingRule::FirstPrice,
    );
    let bids = vec![
        SubmittedBid::new(NodeId(0), Quality::new(vec![0.9, 0.8]), 2.0),
        SubmittedBid::new(NodeId(1), Quality::new(vec![0.5, 0.5]), 1.0),
        SubmittedBid::new(NodeId(2), Quality::new(vec![0.95, 0.9]), 1.5),
    ];
    let outcome = auction.run(bids, &mut seeded_rng(1)).unwrap();
    assert_eq!(outcome.winners().len(), 2);
    // Node 2 has the best quality at a lower ask than node 0: it must rank first.
    assert_eq!(outcome.ranked()[0].node, NodeId(2));
    assert!(outcome.total_payment() > 0.0);
}

/// The MEC cluster simulation produces monotone cumulative time and pays only under FMore.
#[test]
fn mec_cluster_round_trip() {
    let config = ClusterConfig::fast_test();
    let mut fmore = MecCluster::new(config.clone(), ClusterStrategy::FMore, 11).unwrap();
    let mut randfl = MecCluster::new(config, ClusterStrategy::RandFL, 11).unwrap();
    let fmore_history = fmore.run(3).unwrap();
    let randfl_history = randfl.run(3).unwrap();

    assert!(fmore.ledger().total() > 0.0);
    assert_eq!(randfl.ledger().total(), 0.0);
    for history in [&fmore_history, &randfl_history] {
        let times = history.cumulative_time_series();
        assert!(times.windows(2).all(|w| w[1] > w[0]));
        assert!(history.final_accuracy() >= 0.0);
    }
}

/// The experiment harness produces the figures and the headline table end to end.
#[test]
fn experiment_harness_produces_figures_and_headline() {
    let runner = ScenarioRunner::new();
    let figure =
        accuracy::run(&runner, &accuracy::AccuracyConfig::quick(TaskKind::MnistO)).unwrap();
    assert_eq!(figure.curves.len(), 3);
    let table = figure.to_table().to_markdown();
    assert!(table.contains("FMore accuracy"));

    let score_dist =
        scores::run(&runner, &accuracy::AccuracyConfig::quick(TaskKind::MnistO)).unwrap();
    assert!(score_dist.mean_winner_score("FMore") >= score_dist.mean_winner_score("RandFL"));

    let sim_headline = headline::simulation_headline(&figure, 0.3);
    let md = headline::headline_table(&[sim_headline], None).to_markdown();
    assert!(md.contains("simulation MNIST-O"));
}

/// Reproducibility across the whole stack: the same seed yields the same history, a different
/// seed does not.
#[test]
fn whole_stack_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut trainer = FederatedTrainer::new(
            FlConfig::fast_test(TaskKind::MnistF),
            SelectionStrategy::fmore(),
            seed,
        )
        .unwrap();
        trainer.run(2).unwrap()
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

/// The population-scale smoke CI runs by name: a 100 000-bidder selection round (bid
/// derivation → sharded scoring → bounded top-K → payments) through the streaming auction
/// core, cross-checked against the dense full-sort path at a size where materialising the
/// population is still cheap — and the flat memory contract, to the byte: the peak resident
/// bid bytes are those of one shard plus the standing pool, whatever the population size,
/// the stream contract or the selection rule.
#[test]
fn hundred_thousand_bidder_selection_smoke() {
    use fmore::auction::SelectionRule;
    use fmore::fl::engine::RoundEngine;
    use fmore::mec::population::SpecVersion;
    use fmore::sim::experiments::scale::{ScaleConfig, ScaleGame};

    let mut config = ScaleConfig::quick();
    config.populations = vec![100_000];
    let game = ScaleGame::new(100_000, &config).expect("scale game builds");
    let stage = game
        .run_streamed(&RoundEngine::inline(), &config)
        .expect("streamed round runs");
    assert_eq!(stage.offered, 100_000);
    assert_eq!(stage.winners.len(), 64, "a full winner set at 1e5 bidders");
    assert!(stage.winners.iter().all(|w| w.payment > 0.0));
    // Winners arrive in rank order with strictly positive scores.
    assert!(stage.winners.windows(2).all(|w| w[0].score >= w[1].score));
    // Transient bid memory stays shard-scale: far below the ~4.8 MB a dense store of
    // 100 000 three-dimensional bids would hold.
    let peak = stage.peak_bid_bytes;
    assert!(
        peak < 1_000_000,
        "peak bid bytes {peak} is no longer shard-scale"
    );

    // Dense parity at 20 000 bidders: same bids, same winners, same payments, bit for bit.
    let parity_n = 20_000;
    let game = ScaleGame::new(parity_n, &config).expect("scale game builds");
    let streamed = game
        .run_streamed(&RoundEngine::inline(), &config)
        .expect("streamed round runs");
    let dense = game.run_dense().expect("dense round runs");
    assert_eq!(streamed.winners.len(), dense.winners().len());
    for (s, d) in streamed.winners.iter().zip(dense.winners()) {
        assert_eq!(s.node, d.node);
        assert_eq!(s.payment.to_bits(), d.payment.to_bits());
    }

    // The same peak at a fifth of the population, under the v2 stream contract, and under
    // ψ-FMore (ψ = 0.8 reaches 108 ranks, inside the K + reserve = 128 pool).
    let v2 = config.clone().with_spec_version(SpecVersion::V2);
    let v2_stage = ScaleGame::new(parity_n, &v2)
        .expect("scale game builds")
        .run_streamed(&RoundEngine::inline(), &v2)
        .expect("streamed round runs");
    let psi_stage =
        ScaleGame::with_selection(parity_n, &config, SelectionRule::PsiFMore { psi: 0.8 })
            .expect("scale game builds")
            .run_streamed(&RoundEngine::inline(), &config)
            .expect("streamed round runs");
    for (label, bytes) in [
        ("v1 top-K at 2e4", streamed.peak_bid_bytes),
        ("v2 top-K at 2e4", v2_stage.peak_bid_bytes),
        ("v1 psi=0.8 at 2e4", psi_stage.peak_bid_bytes),
    ] {
        assert_eq!(
            bytes, peak,
            "{label}: peak bid bytes differ from the 1e5 round's"
        );
    }
}

/// Named CI smoke for the bounded ψ admission at scale: one streamed ψ-FMore (ψ = 0.8)
/// selection round over 10,000,000 lazily derived bidders — one stream of the population
/// into a pool that covers the walk's reach, the rank-only admission walk, the admitted
/// ranks read off the pool — completing with a full winner set at exactly the peak of a
/// top-K round over 10 000 bidders. Ignored by default (a 1e7 round is too slow for the
/// debug-mode tier-1 run); CI runs it by name in release.
#[test]
#[ignore = "ten-million-bidder round; CI runs it by name in release"]
fn ten_million_bidder_psi_selection_smoke() {
    use fmore::auction::SelectionRule;
    use fmore::fl::engine::RoundEngine;
    use fmore::sim::experiments::scale::{ScaleConfig, ScaleGame};

    let config = ScaleConfig::paper();
    let game = ScaleGame::with_selection(10_000_000, &config, SelectionRule::PsiFMore { psi: 0.8 })
        .expect("scale game builds");
    let stage = game
        .run_streamed(&RoundEngine::inline(), &config)
        .expect("streamed round runs");
    assert_eq!(stage.offered, 10_000_000);
    assert_eq!(
        stage.winners.len(),
        64,
        "a full ψ winner set at 1e7 bidders"
    );
    assert!(stage.winners.iter().all(|w| w.payment > 0.0));
    // The memory contract of the bounded ψ admission: resident bid bytes are one shard
    // plus the standing pool, to the byte — ψ = 0.8 reaches 108 ranks, inside the
    // K + reserve = 128 pool, so a thousandfold smaller top-K round holds the same peak.
    let top_k = ScaleGame::new(10_000, &config)
        .expect("scale game builds")
        .run_streamed(&RoundEngine::inline(), &config)
        .expect("streamed round runs");
    assert!(
        top_k.peak_bid_bytes < 1_000_000,
        "peak bid bytes {} is no longer shard-scale",
        top_k.peak_bid_bytes
    );
    assert_eq!(
        stage.peak_bid_bytes, top_k.peak_bid_bytes,
        "the 1e7 psi round's peak differs from the 1e4 top-K round's"
    );
}

/// CI smoke for the always-on service: the `service-soak` registry entry drives concurrent
/// mixed-scheme jobs through one `AuctionService` at quick fidelity, and every job's
/// interleaved history matches its solo run (the entry itself errors otherwise).
#[test]
fn service_soak_quick_smoke() {
    use fmore::sim::experiments::registry::{find, Fidelity};
    let runner = ScenarioRunner::new();
    let report = find("service-soak")
        .expect("service-soak is registered")
        .run(&runner, Fidelity::Quick)
        .expect("quick soak runs");
    assert_eq!(report.name, "service-soak");
    let md = report.to_markdown();
    assert!(md.contains("psi-FMore"), "mixed schemes soaked:\n{md}");
    assert!(
        md.contains("v1") && md.contains("v2"),
        "both stream contracts soaked"
    );
    assert!(
        !md.contains("NO"),
        "every job matched its solo history:\n{md}"
    );
}

/// CI smoke for the fault layer: the `chaos-soak` registry entry runs the soak fleet with
/// an active fault plan on half the tenants and asserts the full robustness contract —
/// healthy jobs bit-identical to solo, faulted jobs recovered within their retry budget,
/// and a mid-run checkpoint/restore leg matching the uninterrupted run (the entry itself
/// errors on any violation; the verdict columns make a violation visible here too).
#[test]
fn chaos_soak_quick_smoke() {
    use fmore::sim::experiments::registry::{find, Fidelity};
    let runner = ScenarioRunner::new();
    let report = find("chaos-soak")
        .expect("chaos-soak is registered")
        .run(&runner, Fidelity::Quick)
        .expect("quick chaos soak runs");
    assert_eq!(report.name, "chaos-soak");
    let md = report.to_markdown();
    assert!(md.contains("-chaos"), "faulted tenants are labelled:\n{md}");
    assert!(
        !md.contains("NO"),
        "every robustness verdict is green:\n{md}"
    );
}

/// CI smoke for the adversary layer: the `adversary-soak` registry entry runs the
/// Byzantine convergence panel plus the reputation-loop fleet at quick fidelity and
/// asserts the full resilience contract — robust rules within 5 points of clean, plain
/// FedAvg degraded under the identical attack, every tenant bit-identical to its solo
/// run, and the adversarial win-rate falling from the early to the late half (the entry
/// itself errors on any violation; the verdict columns make a violation visible here too).
#[test]
fn adversary_soak_quick_smoke() {
    use fmore::sim::experiments::registry::{find, Fidelity};
    let runner = ScenarioRunner::new();
    let report = find("adversary-soak")
        .expect("adversary-soak is registered")
        .run(&runner, Fidelity::Quick)
        .expect("quick adversary soak runs");
    assert_eq!(report.name, "adversary-soak");
    let md = report.to_markdown();
    assert!(
        md.contains("-adv"),
        "adversarial tenants are labelled:\n{md}"
    );
    assert!(md.contains("robust"), "robust verdicts are rendered:\n{md}");
    assert!(
        md.contains("degrades"),
        "the FedAvg contrast is rendered:\n{md}"
    );
    assert!(
        !md.contains("NO"),
        "every resilience verdict is green:\n{md}"
    );
}
