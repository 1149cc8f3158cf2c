//! Regenerates Figure 4: the Leaf proposal learned under the *limited*
//! 32K-call budget (left) and the estimation error as a function of the
//! final IS sample count `N_IS` (right).
//!
//! ```text
//! fig4 [--repeats R] [--seed S]
//! ```

use nofis_bench::heatmap::{density, Heatmap};
use nofis_core::{Levels, Nofis, NofisConfig};
use nofis_prob::{log_error, RunningStats};
use nofis_testcases::Leaf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct Fig4Result {
    n_is_sweep: Vec<usize>,
    mean_log_error: Vec<f64>,
    std_log_error: Vec<f64>,
    learned: Heatmap,
}

fn main() {
    let mut repeats = 5usize;
    let mut seed = 11u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--repeats" => {
                repeats = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--repeats N")
            }
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            other => panic!("unknown argument {other}"),
        }
    }

    // Paper setup for Leaf: M = 4, E = 20, N = 400 → 32K training calls.
    let config = NofisConfig {
        levels: Levels::Fixed(vec![15.0, 8.0, 3.0, 0.0]),
        layers_per_stage: 8,
        hidden: 24,
        epochs: 20,
        batch_size: 400,
        n_is: 20,
        tau: 10.0,
        learning_rate: 5e-3,
        minibatch: 4096,
        ..Default::default()
    };
    let nofis = Nofis::new(config).expect("valid fig4 config");
    let mut rng = StdRng::seed_from_u64(seed);
    let trained = nofis.train(&Leaf, &mut rng).expect("fig4 training failed");

    let learned = Heatmap::from_points(97, 6.0, |points| density(&trained.proposal(), points));
    println!("learned q_MK under the 32K budget:");
    print!("{}", learned.to_ascii(56));

    let sweep = vec![20usize, 50, 100, 200, 500, 1000, 2000, 5000];
    let mut mean_errs = Vec::new();
    let mut std_errs = Vec::new();
    println!("\nN_IS sweep (mean log error over {repeats} IS repeats):");
    for &n_is in &sweep {
        let mut stats = RunningStats::new();
        for r in 0..repeats {
            let mut is_rng = StdRng::seed_from_u64(seed + 100 + r as u64);
            let (result, _) = trained
                .estimate(&Leaf, n_is, &mut is_rng)
                .expect("fig4 estimate failed");
            stats.push(log_error(result.estimate, Leaf::GOLDEN_PR));
        }
        println!(
            "  N_IS = {n_is:>5}: log error {:.3} ± {:.3}",
            stats.mean(),
            stats.std_dev()
        );
        mean_errs.push(stats.mean());
        std_errs.push(stats.std_dev());
    }

    let result = Fig4Result {
        n_is_sweep: sweep,
        mean_log_error: mean_errs,
        std_log_error: std_errs,
        learned,
    };
    std::fs::create_dir_all("results").ok();
    std::fs::write(
        "results/fig4.json",
        serde_json::to_string(&result).expect("serializable"),
    )
    .expect("write results/fig4.json");
    println!("\nwrote results/fig4.json");
}
