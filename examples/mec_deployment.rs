//! Regenerates a small version of Figs. 12–13: the simulated MEC cluster deployment, where
//! nodes bid computing power, bandwidth, and data size and the round wall-clock time is
//! derived from the selected nodes' resources.
//!
//! ```bash
//! cargo run --release --example mec_deployment
//! ```

use fmore::mec::cluster::{ClusterConfig, ClusterStrategy, MecCluster};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rounds = 8;
    let mut config = ClusterConfig::fast_test();
    config.fl.clients = 16;
    config.fl.winners_per_round = 5;
    config.fl.partition.clients = 16;
    config.fl.train_samples = 2_000;
    config.fl.test_samples = 400;

    println!(
        "Simulated MEC cluster: {} nodes, K = {}, {} rounds\n",
        config.fl.clients, config.fl.winners_per_round, rounds
    );

    for strategy in [ClusterStrategy::FMore, ClusterStrategy::RandFL] {
        let mut cluster = MecCluster::new(config.clone(), strategy, 5)?;
        let history = cluster.run(rounds)?;
        println!("== {} ==", strategy.name());
        println!("round  accuracy  round time (s)  cumulative (s)");
        for round in &history.rounds {
            println!(
                "{:>5}  {:>8.3}  {:>14.1}  {:>14.1}",
                round.learning.round,
                round.learning.accuracy,
                round.round_secs,
                round.cumulative_secs
            );
        }
        println!(
            "final accuracy {:.3}, total simulated time {:.1}s, incentive spend {:.3} across {} nodes\n",
            history.final_accuracy(),
            history.total_time_secs(),
            cluster.ledger().total(),
            cluster.ledger().distinct_winners()
        );
    }
    Ok(())
}
