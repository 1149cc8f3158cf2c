//! Photonic Y-branch yield analysis with an importance-weight health check.
//!
//! ```text
//! cargo run --release --example photonic_yield
//! ```
//!
//! Runs the Crank–Nicolson BPM on the Y-branch splitter, shows the output
//! field under nominal and deformed sidewalls, then estimates the
//! low-transmission failure probability with NOFIS and reports how far the
//! realized importance weights can be trusted — the estimate's standard
//! error, its PSIS tail shape `k̂`
//! ([`IsResult::pareto_k`](nofis_prob::IsResult::pareto_k)) and the health
//! verdict, which flags an under-covering proposal instead of silently
//! trusting the estimate.

use nofis_core::{Levels, Nofis, NofisConfig};
use nofis_photonics::{BpmConfig, BpmSolver, YBranch};
use nofis_prob::{CountingOracle, LimitState};
use nofis_testcases::YBranchCase;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sparkline(values: &[f64]) -> String {
    const RAMP: &[u8] = b" .:-=+*#%@";
    let max = values.iter().copied().fold(1e-12, f64::max);
    values
        .iter()
        .map(|v| {
            let t = (v / max).clamp(0.0, 1.0);
            RAMP[(t * (RAMP.len() - 1) as f64).round() as usize] as char
        })
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Physics sanity: output field with and without deformation.
    let solver = BpmSolver::new(YBranch::new(26), BpmConfig::default());
    let nominal = solver.run(&vec![0.0; 26])?;
    let deformed = solver.run(&vec![1.5; 26])?;
    println!(
        "nominal  T = {:.3}  |{}|",
        nominal.transmission,
        sparkline(&nominal.output_magnitude)
    );
    println!(
        "deformed T = {:.3}  |{}|",
        deformed.transmission,
        sparkline(&deformed.output_magnitude)
    );

    // 2. Yield estimation on the registered test case (coarser grid).
    let case = YBranchCase::default();
    println!(
        "\nfailure spec: transmission below {:.1}% (nominal margin g = {:.1} points)",
        case.spec() * 100.0,
        case.value(&vec![0.0; 26])
    );

    let oracle = CountingOracle::new(&case);
    let config = NofisConfig {
        levels: Levels::Fixed(vec![18.5, 10.9, 7.5, 4.1, 0.0]),
        layers_per_stage: 8,
        hidden: 28,
        epochs: 12,
        batch_size: 250,
        n_is: 400,
        tau: 1.0,
        minibatch: 4096,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(3);
    let trained = Nofis::new(config)?.train(&oracle, &mut rng)?;
    let (result, healthy) = trained.estimate(&oracle, 400, &mut rng)?;

    println!(
        "\nNOFIS estimate : {:.3e}  ({} calls)",
        result.estimate,
        oracle.calls()
    );
    println!(
        "IS hits / ESS  : {} / {:.1}",
        result.hits, result.effective_sample_size
    );
    // Raw bits and the call count on one line, so a reproducibility check
    // can diff two runs exactly.
    println!(
        "estimate (bits): {:016x}  calls: {}",
        result.estimate.to_bits(),
        oracle.calls()
    );
    let pareto_k = result.pareto_k.map_or("-".into(), |k| format!("{k:.2}"));
    println!(
        "weight health  : std error {:.3e}, pareto k {pareto_k}, healthy = {healthy}",
        result.std_error
    );
    if result.hits == 0 {
        println!("  → no failure-region samples — the estimate is 0");
    } else if !healthy {
        println!("  → the proposal under-covers the failure region; treat the estimate as a lower bound and cross-check with SUS");
    }
    Ok(())
}
