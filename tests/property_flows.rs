//! Property-based tests on the core numerical invariants (proptest).

use nofis_autograd::{Graph, ParamStore};
use nofis_flows::RealNvp;
use nofis_prob::{log_error, normal_cdf, normal_quantile, quantile, RunningStats};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn randomized_flow(dim: usize, layers: usize, seed: u64) -> (ParamStore, RealNvp) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let flow = RealNvp::new(&mut store, dim, layers, 8, 2.0, &mut rng);
    let ids: Vec<_> = store.iter().map(|(id, _)| id).collect();
    let mut prng = StdRng::seed_from_u64(seed ^ 0xabcd);
    for id in ids {
        for v in store.get_mut(id).as_mut_slice() {
            *v += prng.gen_range(-0.5..0.5);
        }
    }
    (store, flow)
}

/// One point through the first `depth` layers of the tape's forward
/// (`inverse == false`) or inverse pass: `(output, log-determinant)`.
fn push(
    store: &ParamStore,
    flow: &RealNvp,
    x: &[f64],
    depth: usize,
    inverse: bool,
) -> (Vec<f64>, f64) {
    let mut g = Graph::new();
    let v = g.constant_from_slice(1, x.len(), x);
    let (z, logdet) = if inverse {
        flow.inverse_graph(store, &mut g, v, depth)
    } else {
        flow.forward_graph(store, &mut g, v, depth)
    };
    (g.value(z).as_slice().to_vec(), g.value(logdet).item())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flow invertibility: inverse(transform(x)) == x and the log-dets
    /// cancel, for random parameters and random points.
    #[test]
    fn flow_round_trip(
        seed in 0u64..1_000,
        x0 in -3.0f64..3.0,
        x1 in -3.0f64..3.0,
        x2 in -3.0f64..3.0,
    ) {
        let (store, flow) = randomized_flow(3, 4, seed);
        let x = [x0, x1, x2];
        let (y, ld) = push(&store, &flow, &x, 4, false);
        let (back, ld_inv) = push(&store, &flow, &y, 4, true);
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-8, "round trip {x:?} -> {back:?}");
        }
        prop_assert!((ld + ld_inv).abs() < 1e-8);
    }

    /// Sampling and density evaluation agree: ln q from the sampling path
    /// equals the ln q recomputed by inversion.
    #[test]
    fn flow_density_consistency(seed in 0u64..500) {
        let (store, flow) = randomized_flow(2, 6, seed);
        let mut rng = StdRng::seed_from_u64(seed + 10_000);
        let (x, log_q) = flow.sample(&store, 6, 1, &mut rng);
        let (log_q, direct) = (log_q[0], flow.log_density(&store, &x, 6)[0]);
        prop_assert!((log_q - direct).abs() < 1e-8, "{log_q} vs {direct}");
    }

    /// Φ and Φ⁻¹ are inverse over a wide probability range.
    #[test]
    fn normal_quantile_round_trip(p in 1e-10f64..0.9999) {
        let x = normal_quantile(p);
        prop_assert!((normal_cdf(x) - p).abs() < 1e-9 * (1.0 + p / (1.0 - p)));
    }

    /// Φ is monotone.
    #[test]
    fn normal_cdf_monotone(a in -8.0f64..8.0, b in -8.0f64..8.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(normal_cdf(lo) <= normal_cdf(hi) + 1e-15);
    }

    /// The empirical quantile lies within the sample range and is monotone
    /// in its level.
    #[test]
    fn quantile_bounds_and_monotonicity(
        mut values in prop::collection::vec(-100.0f64..100.0, 2..50),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let lo = values[0];
        let hi = values[values.len() - 1];
        let (qa, qb) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let va = quantile(&values, qa);
        let vb = quantile(&values, qb);
        prop_assert!(va >= lo - 1e-12 && vb <= hi + 1e-12);
        prop_assert!(va <= vb + 1e-12);
    }

    /// Welford statistics match the naive two-pass computation.
    #[test]
    fn running_stats_match_naive(values in prop::collection::vec(-1e3f64..1e3, 2..40)) {
        let stats: RunningStats = values.iter().copied().collect();
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((stats.mean() - mean).abs() < 1e-9 * (1.0 + mean.abs()));
        prop_assert!((stats.sample_variance() - var).abs() < 1e-7 * (1.0 + var));
    }

    /// log_error is symmetric under swapping over/under-estimation ratios
    /// and zero iff the estimate equals the golden value.
    #[test]
    fn log_error_properties(golden in 1e-9f64..1e-3, ratio in 0.01f64..100.0) {
        prop_assert!(log_error(golden, golden) < 1e-12);
        let over = log_error(golden * ratio, golden);
        let under = log_error(golden / ratio, golden);
        // Symmetric as long as neither hits the floor.
        if golden / ratio > 1e-12 {
            prop_assert!((over - under).abs() < 1e-9);
        }
    }
}
