//! Runs the population-scale experiment family — streamed top-K selection, peak-memory
//! comparison, and dense-path parity — through the experiment registry.
//!
//! ```bash
//! cargo run --release --example scale_sweep [quick|paper]
//! ```
//!
//! `quick` (the default) sweeps N up to 20 000 and finishes in well under a second; `paper`
//! sweeps N from 10³ to 10⁶ and reports measured selection wall-clock per point. The
//! benchmark's `select-1m` workload is the tracked measurement of the million-bidder round.

use fmore::sim::experiments::registry::{self, Fidelity};
use fmore::sim::ScenarioRunner;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fidelity = match std::env::args().nth(1).as_deref() {
        Some("paper") => Fidelity::Paper,
        _ => Fidelity::Quick,
    };
    let runner = ScenarioRunner::new();
    for name in ["scale-selection", "scale-memory", "scale-parity"] {
        let def = registry::find(name)?;
        let report = def.run(&runner, fidelity)?;
        println!("## {} ({})\n", def.name, def.figure);
        println!("{}\n", report.to_markdown());
    }
    Ok(())
}
