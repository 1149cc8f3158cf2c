//! Regenerates Figure 3: the intermediate stage proposals
//! `q_8, q_16, q_24, q_32` of the Leaf case and the per-stage training
//! loss curves.
//!
//! ```text
//! fig3 [--res R] [--epochs E] [--seed S]
//! ```
//!
//! Panel (a)–(d): each stage proposal should concentrate on two "leaves"
//! centered at `(±3.8, ±3.8)` with radius `√(a_m + 1)`; the binary prints
//! the measured mass-weighted mean radius per stage next to the expected
//! value. Panel (e): the loss curves are printed as CSV and dumped to
//! `results/fig3.json`.

use nofis_bench::heatmap::{density, Heatmap};
use nofis_core::{Levels, Nofis, NofisConfig};
use nofis_testcases::Leaf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct StageInfo {
    stage: usize,
    level: f64,
    expected_radius: f64,
    measured_radius: f64,
    map: Heatmap,
}

#[derive(Serialize)]
struct Fig3Result {
    stages: Vec<StageInfo>,
    loss_history: Vec<Vec<f64>>,
}

fn main() {
    let mut res = 97usize;
    let mut epochs = 40usize;
    let mut seed = 3u64;
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

    let levels = vec![26.0, 15.0, 8.0, 3.0, 0.0];
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
    let nofis = Nofis::new(config).expect("valid fig3 config");
    let mut rng = StdRng::seed_from_u64(seed);
    let trained = nofis.train(&Leaf, &mut rng).expect("fig3 training failed");

    let mut stages = Vec::new();
    for stage in 1..=trained.stages() {
        let proposal = trained.stage_proposal(stage);
        let map = Heatmap::from_points(res, 6.0, |points| density(&proposal, points));
        // Mass-weighted mean distance from the nearest leaf center.
        let c = Leaf::CENTER;
        let mut num = 0.0;
        let mut den = 0.0;
        let step = 12.0 / (res - 1) as f64;
        for iy in 0..res {
            let y = -6.0 + iy as f64 * step;
            for ix in 0..res {
                let x = -6.0 + ix as f64 * step;
                let w = map.values[iy * res + ix];
                let r1 = ((x - c).powi(2) + (y - c).powi(2)).sqrt();
                let r2 = ((x + c).powi(2) + (y + c).powi(2)).sqrt();
                num += w * r1.min(r2);
                den += w;
            }
        }
        let level = trained.levels()[stage - 1];
        let info = StageInfo {
            stage,
            level,
            expected_radius: (level + 1.0).sqrt(),
            measured_radius: num / den.max(1e-300),
            map,
        };
        println!(
            "stage {stage}: level a = {level:>5.1}, expected leaf radius sqrt(a+1) = {:.3}, measured mass-weighted radius = {:.3}",
            info.expected_radius, info.measured_radius
        );
        print!("{}", info.map.to_ascii(56));
        stages.push(info);
    }

    println!("\nloss curves (CSV: stage, epoch, loss):");
    for (s, losses) in trained.loss_history().iter().enumerate() {
        for (e, l) in losses.iter().enumerate() {
            println!("{}, {}, {:.6}", s + 1, e + 1, l);
        }
    }

    let result = Fig3Result {
        stages,
        loss_history: trained.loss_history().to_vec(),
    };
    std::fs::create_dir_all("results").ok();
    std::fs::write(
        "results/fig3.json",
        serde_json::to_string(&result).expect("serializable"),
    )
    .expect("write results/fig3.json");
    println!("\nwrote results/fig3.json");
}
