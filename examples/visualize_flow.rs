//! Visualize a learned 2-D proposal distribution as terminal ASCII art.
//!
//! ```text
//! cargo run --release --example visualize_flow [-- <leaf|ring|fourpetal|banana>]
//! ```
//!
//! Trains NOFIS on the chosen 2-D case and renders (left to right) the
//! base distribution `p`, the learned proposal `q_MK`, and the optimal
//! proposal `q* ∝ p·1[g ≤ 0]` — a terminal rendition of the paper's
//! Figure 2.

use nofis_core::{Levels, Nofis, NofisConfig};
use nofis_prob::{LimitState, Proposal, StandardGaussian};
use nofis_testcases::{Banana, FourPetal, Leaf, Ring};
use rand::rngs::StdRng;
use rand::SeedableRng;

const RES: usize = 41;
const EXTENT: f64 = 6.0;
const RAMP: &[u8] = b" .:-=+*#%@";

/// The grid points `[x, y]`, row by row from the smallest `y`.
fn grid() -> Vec<Vec<f64>> {
    let step = 2.0 * EXTENT / (RES - 1) as f64;
    (0..RES * RES)
        .map(|i| {
            let (iy, ix) = (i / RES, i % RES);
            vec![-EXTENT + ix as f64 * step, -EXTENT + iy as f64 * step]
        })
        .collect()
}

fn raster(mut f: impl FnMut(f64, f64) -> f64) -> Vec<f64> {
    grid().iter().map(|p| f(p[0], p[1])).collect()
}

fn rows(values: &[f64]) -> Vec<String> {
    let max = values.iter().copied().fold(1e-300, f64::max);
    (0..RES)
        .rev()
        .map(|iy| {
            (0..RES)
                .map(|ix| {
                    let t = (values[iy * RES + ix] / max).max(0.0).sqrt();
                    RAMP[((t * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1)]
                        as char
                })
                .collect()
        })
        .collect()
}

fn run(ls: &(impl LimitState + ?Sized + Sync), levels: Vec<f64>) {
    let config = NofisConfig {
        levels: Levels::Fixed(levels),
        layers_per_stage: 8,
        hidden: 24,
        epochs: 25,
        batch_size: 400,
        n_is: 100,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(5);
    let trained = Nofis::new(config)
        .expect("valid config")
        .train(&ls, &mut rng)
        .expect("training failed");

    let p = StandardGaussian::new(2);
    let base = raster(|x, y| p.log_density(&[x, y]).exp());
    let learned: Vec<f64> = trained
        .proposal()
        .log_density_batch(&grid())
        .into_iter()
        .map(f64::exp)
        .collect();
    let optimal = raster(|x, y| {
        if ls.value(&[x, y]) <= 0.0 {
            p.log_density(&[x, y]).exp()
        } else {
            0.0
        }
    });

    println!(
        "{:^RES$}   {:^RES$}   {:^RES$}",
        "base p",
        "learned q_MK",
        "optimal q*",
        RES = RES
    );
    for ((a, b), c) in rows(&base)
        .into_iter()
        .zip(rows(&learned))
        .zip(rows(&optimal))
    {
        println!("{a}   {b}   {c}");
    }
}

fn main() {
    let which = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "leaf".to_string())
        .to_lowercase();
    match which.as_str() {
        "leaf" => run(&Leaf, vec![26.0, 15.0, 8.0, 3.0, 0.0]),
        "fourpetal" => run(&FourPetal::default(), vec![26.0, 15.0, 8.0, 3.0, 0.0]),
        "ring" => run(&Ring::default(), vec![3.0, 2.0, 1.0, 0.5, 0.0]),
        "banana" => run(&Banana::default(), vec![3.0, 2.0, 1.0, 0.5, 0.0]),
        other => panic!("unknown case {other}; use leaf|ring|fourpetal|banana"),
    }
}
