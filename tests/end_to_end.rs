//! Cross-crate integration tests: NOFIS against analytic golden
//! probabilities, budget accounting, and agreement with subset simulation.

use nofis_baselines::{RareEventEstimator, SusEstimator};
use nofis_core::{Levels, Nofis, NofisConfig};
use nofis_prob::{log_error, normal_cdf, CountingOracle, LimitState};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Analytic tail event: g = beta - <w, x> / ||w||, P = 1 - Φ(beta).
struct LinearTail {
    beta: f64,
    dim: usize,
}

impl LimitState for LinearTail {
    fn dim(&self) -> usize {
        self.dim
    }
    fn value(&self, x: &[f64]) -> f64 {
        let norm = (self.dim as f64).sqrt();
        self.beta - x.iter().sum::<f64>() / norm
    }
    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let norm = (self.dim as f64).sqrt();
        (self.value(x), vec![-1.0 / norm; self.dim])
    }
    fn name(&self) -> &str {
        "linear-tail"
    }
}

fn small_config(stages: usize) -> NofisConfig {
    NofisConfig {
        levels: Levels::AdaptiveQuantile {
            max_stages: stages,
            p0: 0.15,
            pilot: 100,
        },
        layers_per_stage: 4,
        hidden: 16,
        epochs: 12,
        batch_size: 120,
        n_is: 1_500,
        tau: 15.0,
        learning_rate: 8e-3,
        ..Default::default()
    }
}

#[test]
fn nofis_matches_analytic_tail_in_4d() {
    let ls = LinearTail { beta: 3.7, dim: 4 }; // P ≈ 1.08e-4
    let golden = 1.0 - normal_cdf(3.7);
    let oracle = CountingOracle::new(&ls);
    let mut rng = StdRng::seed_from_u64(99);
    let (_, result) = Nofis::new(small_config(4))
        .expect("valid config")
        .run(&oracle, &mut rng)
        .expect("run succeeds");
    let err = log_error(result.estimate, golden);
    assert!(
        err < 0.8,
        "NOFIS estimate {:.3e} vs golden {golden:.3e} (log error {err:.3})",
        result.estimate
    );
}

#[test]
fn nofis_and_sus_agree_on_shared_event() {
    let ls = LinearTail { beta: 3.5, dim: 6 }; // P ≈ 2.33e-4
    let mut rng = StdRng::seed_from_u64(4);
    let (_, nofis_result) = Nofis::new(small_config(4))
        .expect("valid config")
        .run(&ls, &mut rng)
        .expect("run succeeds");
    let sus = SusEstimator::new(2_000, 0.1, 8);
    let mut rng2 = StdRng::seed_from_u64(5);
    let p_sus = sus.estimate(&ls, &mut rng2);
    assert!(nofis_result.estimate > 0.0 && p_sus > 0.0);
    let ratio = (nofis_result.estimate.ln() - p_sus.ln()).abs();
    assert!(
        ratio < 1.2,
        "NOFIS {:.3e} and SUS {p_sus:.3e} disagree (|Δln| = {ratio:.2})",
        nofis_result.estimate
    );
}

#[test]
fn call_accounting_matches_configuration() {
    let ls = LinearTail { beta: 3.0, dim: 3 };
    let cfg = NofisConfig {
        levels: Levels::Fixed(vec![2.0, 1.0, 0.0]),
        layers_per_stage: 4,
        hidden: 16,
        epochs: 7,
        batch_size: 60,
        n_is: 333,
        ..Default::default()
    };
    let budget = cfg.training_budget() + 333;
    let oracle = CountingOracle::new(&ls);
    let mut rng = StdRng::seed_from_u64(0);
    let (trained, _) = Nofis::new(cfg)
        .expect("valid config")
        .run(&oracle, &mut rng)
        .expect("run succeeds");
    assert_eq!(oracle.calls(), budget);
    // A healthy run reports clean stages.
    assert!(trained.stage_reports().iter().all(|r| !r.truncated));
}

#[test]
fn frozen_training_leaves_earlier_stage_distribution_usable() {
    // After the full training, the stage-1 proposal must still be a sane
    // distribution: its density should integrate to ~1 on a generous grid.
    let ls = LinearTail { beta: 3.0, dim: 2 };
    let mut rng = StdRng::seed_from_u64(21);
    let trained = Nofis::new(small_config(3))
        .expect("valid config")
        .train(&ls, &mut rng)
        .expect("training succeeds");
    for stage in 1..=trained.stages() {
        let proposal = trained.stage_proposal(stage);
        let res = 80;
        let extent = 8.0;
        let step = 2.0 * extent / (res - 1) as f64;
        let mut mass = 0.0;
        for iy in 0..res {
            for ix in 0..res {
                let x = -extent + ix as f64 * step;
                let y = -extent + iy as f64 * step;
                mass += nofis_prob::Proposal::log_density(&proposal, &[x, y]).exp();
            }
        }
        mass *= step * step;
        assert!(
            (mass - 1.0).abs() < 0.15,
            "stage {stage} proposal mass {mass:.3} is not ≈ 1"
        );
    }
}
