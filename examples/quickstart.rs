//! Quickstart: estimate the probability of a rare circuit-style failure
//! event with NOFIS, end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The example estimates the paper's "Leaf" event (two failure disks deep
//! in the tail of a 2-D standard Gaussian, P ≈ 4.7e-6), compares against
//! plain Monte Carlo at the same budget, and prints the measured call
//! counts with the estimate's standard error and Pareto k̂.
//!
//! Progress telemetry prints to stderr by default (stage spans, estimate
//! health). Tune it with `NOFIS_LOG` (`off`, `error`, `warn`, `info`,
//! `debug`, `trace`), and write a full machine-readable JSONL trace with
//! `NOFIS_TRACE_FILE=run.jsonl` (inspect it with `nofis-trace summary`).
//!
//! Set `NOFIS_CKPT_DIR=ckpts` (optionally `NOFIS_CKPT_EVERY=N`) to write
//! durable training checkpoints; if the process is killed, re-running the
//! example resumes from the newest one and produces bitwise-identical
//! results (DESIGN.md §11).

use nofis_core::{telemetry, Levels, Nofis, NofisConfig};
use nofis_prob::{log_error, monte_carlo, CountingOracle};
use nofis_testcases::Leaf;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Per-stage progress on stderr; NOFIS_LOG / NOFIS_TRACE_FILE override
    // this (telemetry never changes the numbers).
    telemetry::init(&telemetry::Settings::stderr(telemetry::Level::Info))?;
    let mut rng = StdRng::seed_from_u64(2024);

    // 1. The failure event: a `LimitState` with g(x) <= 0 on failure.
    //    Wrap it in a CountingOracle to meter simulator calls.
    let oracle = CountingOracle::new(&Leaf);

    // 2. Configure NOFIS. The nested levels follow the paper's Figure 2
    //    ladder for this case; everything else is the nominal setup.
    let config = NofisConfig {
        levels: Levels::Fixed(vec![15.0, 8.0, 3.0, 0.0]),
        layers_per_stage: 8,
        hidden: 24,
        epochs: 20,
        batch_size: 400,
        n_is: 1_000,
        tau: 20.0,
        ..Default::default()
    };
    let nofis = Nofis::new(config)?;

    // 3. Train the flow and estimate. With `NOFIS_CKPT_DIR` set this
    //    resumes a previously killed run instead of starting over (and is
    //    exactly `Nofis::run` otherwise).
    let (trained, result) = nofis.run_or_resume(&oracle, &mut rng)?;
    let nofis_calls = oracle.calls();

    println!("NOFIS");
    println!("  levels            : {:?}", trained.levels());
    println!("  estimate          : {:.3e}", result.estimate);
    // Raw bits so reproducibility checks can diff exactly, not to 3
    // significant digits.
    println!("  estimate (bits)   : {:016x}", result.estimate.to_bits());
    println!("  golden            : {:.3e}", Leaf::GOLDEN_PR);
    println!(
        "  log error         : {:.3}",
        log_error(result.estimate, Leaf::GOLDEN_PR)
    );
    println!("  simulator calls   : {nofis_calls}");
    println!(
        "  IS hits / ESS     : {} / {:.1}",
        result.hits, result.effective_sample_size
    );
    // How far to trust the estimate: its standard error, and the Pareto k̂
    // of the weight tail (below 0.7 is the healthy range; `-` when the
    // tail is too short to fit).
    println!("  std error         : {:.3e}", result.std_error);
    println!(
        "  pareto k          : {}",
        result.pareto_k.map_or("-".into(), |k| format!("{k:.4}"))
    );

    // 4. Monte Carlo with the same budget usually sees zero failures.
    oracle.reset();
    let mc = monte_carlo(&oracle, 0.0, nofis_calls as usize, &mut rng);
    println!("\nMonte Carlo at the same budget");
    println!("  estimate          : {:.3e}", mc.estimate());
    println!(
        "  log error         : {:.3}",
        log_error(mc.estimate(), Leaf::GOLDEN_PR)
    );
    println!("  failing samples   : {}", mc.hits);

    Ok(())
}
