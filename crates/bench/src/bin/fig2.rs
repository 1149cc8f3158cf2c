//! Regenerates Figure 2: learned proposal `q_MK` versus the theoretically
//! optimal proposal `q*` on four 2-D cases, in the unlimited-function-call
//! regime.
//!
//! ```text
//! fig2 [--res R] [--epochs E] [--seed S]
//! ```
//!
//! For each case the binary trains NOFIS with K = 8, M = 5 (paper setup),
//! rasterizes the learned density and the optimal `q* ∝ p·1[g ≤ 0]`, prints
//! ASCII heatmaps, and reports the normalized cross-correlation between
//! the two maps (1.0 = perfect shape recovery). JSON heatmaps are dumped
//! to `results/fig2.json`.

use nofis_bench::heatmap::{density, Heatmap};
use nofis_core::{Levels, Nofis, NofisConfig};
use nofis_prob::{LimitState, StandardGaussian};
use nofis_testcases::{Banana, FourPetal, Leaf, Ring};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct PanelResult {
    name: String,
    levels: Vec<f64>,
    correlation: f64,
    learned: Heatmap,
    optimal: Heatmap,
}

fn panel(
    name: &str,
    ls: &(impl LimitState + ?Sized + Sync),
    levels: Vec<f64>,
    res: usize,
    epochs: usize,
    seed: u64,
) -> PanelResult {
    let config = NofisConfig {
        levels: Levels::Fixed(levels.clone()),
        layers_per_stage: 8,
        hidden: 32,
        epochs,
        batch_size: 500,
        n_is: 100,
        tau: 30.0,
        learning_rate: 5e-3,
        minibatch: 64,
        ..Default::default()
    };
    let nofis = Nofis::new(config).expect("valid fig2 config");
    let mut rng = StdRng::seed_from_u64(seed);
    let trained = nofis.train(&ls, &mut rng).expect("fig2 training failed");

    let extent = 6.0;
    let learned = Heatmap::from_points(res, extent, |points| density(&trained.proposal(), points));
    let p = StandardGaussian::new(2);
    let optimal = Heatmap::from_fn(res, extent, |x, y| {
        if ls.value(&[x, y]) <= 0.0 {
            p.log_density(&[x, y]).exp()
        } else {
            0.0
        }
    });
    let correlation = learned.correlation(&optimal);

    println!("=== {name} (levels {levels:?}) — correlation(q_MK, q*) = {correlation:.3} ===");
    println!("learned q_MK:");
    print!("{}", learned.to_ascii(56));
    println!("optimal q*:");
    print!("{}", optimal.to_ascii(56));

    PanelResult {
        name: name.to_string(),
        levels,
        correlation,
        learned,
        optimal,
    }
}

fn main() {
    let mut res = 97usize;
    let mut epochs = 40usize;
    let mut seed = 7u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--res" => res = args.next().and_then(|v| v.parse().ok()).expect("--res N"),
            "--epochs" => {
                epochs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--epochs N")
            }
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).expect("--seed N"),
            other => panic!("unknown argument {other}"),
        }
    }

    // Panel (b): the paper's Leaf case with its published level ladder.
    let panels = vec![
        panel(
            "Leaf",
            &Leaf,
            vec![26.0, 15.0, 8.0, 3.0, 0.0],
            res,
            epochs,
            seed,
        ),
        panel(
            "FourPetal",
            &FourPetal::default(),
            vec![26.0, 15.0, 8.0, 3.0, 0.0],
            res,
            epochs,
            seed + 1,
        ),
        panel(
            "Ring",
            &Ring::default(),
            vec![3.0, 2.0, 1.0, 0.5, 0.0],
            res,
            epochs,
            seed + 2,
        ),
        panel(
            "Banana",
            &Banana::default(),
            vec![3.0, 2.0, 1.0, 0.5, 0.0],
            res,
            epochs,
            seed + 3,
        ),
    ];

    std::fs::create_dir_all("results").ok();
    let json = serde_json::to_string(&panels).expect("serializable panels");
    std::fs::write("results/fig2.json", json).expect("write results/fig2.json");
    println!("\nwrote results/fig2.json");
    for p in &panels {
        println!("{:<10} correlation = {:.3}", p.name, p.correlation);
    }
}
