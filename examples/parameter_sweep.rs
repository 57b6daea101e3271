//! Regenerates small versions of the parameter studies (Figs. 9b, 10b, 11b): how the mean
//! winner payment and score react to the population size N and the winner count K, and how
//! ψ-FMore spreads its selections across score ranks.
//!
//! ```bash
//! cargo run --release --example parameter_sweep
//! ```

use fmore::sim::experiments::parameter_impact::{self, Axis, ParameterImpactConfig};
use fmore::sim::ScenarioRunner;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let runner = ScenarioRunner::new();
    for config in [
        // Fig. 9b: payment and score versus N (K = 20).
        ParameterImpactConfig {
            seed: 100,
            ..ParameterImpactConfig::paper(Axis::N)
        },
        // Fig. 10b: payment and score versus K (N = 100).
        ParameterImpactConfig {
            seed: 200,
            ..ParameterImpactConfig::paper(Axis::K)
        },
        // Fig. 11b: how many winners come from the top score ranks as ψ varies.
        ParameterImpactConfig {
            trials: 300,
            seed: 7,
            ..ParameterImpactConfig::paper(Axis::Psi)
        },
    ] {
        let mut table =
            parameter_impact::sweep_table(config.axis, &parameter_impact::sweep(&runner, &config)?);
        if config.axis == Axis::Psi {
            table.title = "Winner rank spread vs ψ (Fig. 11b)".into();
        }
        println!("{}", table.to_markdown());
    }
    Ok(())
}
