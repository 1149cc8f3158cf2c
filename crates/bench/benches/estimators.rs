//! Criterion end-to-end benchmarks of the estimators on a small shared
//! event (a 3-D half-space with P ≈ 1.3e-3), plus the flow-depth ablation
//! called out in DESIGN.md (cost of the tape's forward pass per prefix
//! depth, one row vs a 512-row batch).

use criterion::{criterion_group, criterion_main, Criterion};
use nofis_autograd::{Graph, ParamStore};
use nofis_baselines::{
    AdaptIsEstimator, McEstimator, RareEventEstimator, SssEstimator, SusEstimator,
};
use nofis_bench::NofisEstimator;
use nofis_core::{Levels, NofisConfig};
use nofis_flows::RealNvp;
use nofis_prob::LimitState;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct HalfSpace;
impl LimitState for HalfSpace {
    fn dim(&self) -> usize {
        3
    }
    fn value(&self, x: &[f64]) -> f64 {
        3.0 - x[0]
    }
    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        (3.0 - x[0], vec![-1.0, 0.0, 0.0])
    }
}

fn bench_estimators(c: &mut Criterion) {
    let mut group = c.benchmark_group("estimator_end_to_end");
    group.sample_size(10);

    group.bench_function("mc_10k", |b| {
        let est = McEstimator::new(10_000);
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            est.estimate(&HalfSpace, &mut rng)
        })
    });
    group.bench_function("sus_1k_levels", |b| {
        let est = SusEstimator::new(1_000, 0.1, 5);
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            est.estimate(&HalfSpace, &mut rng)
        })
    });
    group.bench_function("sss_6k", |b| {
        let est = SssEstimator::new(6_000);
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            est.estimate(&HalfSpace, &mut rng)
        })
    });
    group.bench_function("adapt_is_5k", |b| {
        let est = AdaptIsEstimator::new(1_000, 4, 1_000);
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            est.estimate(&HalfSpace, &mut rng)
        })
    });
    group.bench_function("nofis_small", |b| {
        let est = NofisEstimator::new(NofisConfig {
            levels: Levels::Fixed(vec![1.5, 0.0]),
            layers_per_stage: 4,
            hidden: 16,
            epochs: 6,
            batch_size: 64,
            n_is: 200,
            ..Default::default()
        });
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(1);
            est.estimate(&HalfSpace, &mut rng)
        })
    });
    group.finish();
}

/// Ablation bench for DESIGN.md: cost of flow depth (stage count) in the
/// tape's forward pass at batch sizes 1 and 512 — quantifies the "prefix
/// evaluation" design.
fn bench_depth_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_depth_scaling");
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(2);
    let flow = RealNvp::new(&mut store, 16, 48, 32, 2.0, &mut rng);
    for &n in &[1usize, 512] {
        let xs: Vec<f64> = (0..n * 16).map(|i| (i as f64 * 0.3).cos()).collect();
        for &depth in &[8usize, 16, 32, 48] {
            group.bench_function(format!("depth_{depth}_n{n}"), |b| {
                let mut g = Graph::new();
                b.iter(|| {
                    g.reset();
                    let x = g.constant_from_slice(n, 16, &xs);
                    flow.forward_graph(&store, &mut g, x, depth)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_estimators, bench_depth_scaling);
criterion_main!(benches);
