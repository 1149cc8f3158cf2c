//! Golden-value regression tests for the RealNVP flow numerics.
//!
//! A fixed-seed flow is evaluated at fixed points and compared against
//! checked-in constants, so any kernel change (including the parallel
//! matmul path) that silently drifts the numerics fails loudly here. The
//! constants were produced by this exact code; tolerances are a few ulps
//! scaled (1e-12 relative), far below any legitimate refactoring noise
//! but far above what an algorithmic change would produce.

// Goldens are checked in at full 17-significant-digit round-trip precision
// so they pin the exact f64 bit pattern, not a rounded neighborhood.
#![allow(clippy::excessive_precision)]

use nofis::autograd::{CompiledStep, Graph, ParamStore, Tensor, Var};
use nofis::flows::RealNvp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The fixed-seed flow under test: dim 4, 6 coupling layers, hidden 8,
/// s_max 2.0, seeded init plus a seeded perturbation so the coupling nets
/// are away from their (near-identity) initialization.
fn golden_flow() -> (ParamStore, RealNvp) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(1234);
    let flow = RealNvp::new(&mut store, 4, 6, 8, 2.0, &mut rng);
    let ids: Vec<_> = store.iter().map(|(id, _)| id).collect();
    let mut prng = StdRng::seed_from_u64(1334);
    for id in ids {
        for v in store.get_mut(id).as_mut_slice() {
            *v += prng.gen_range(-0.3..0.3);
        }
    }
    (store, flow)
}

const X: [f64; 4] = [0.3, -1.2, 0.7, 0.05];
const X2: [f64; 4] = [-2.1, 0.4, 1.3, -0.8];

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

fn assert_close(actual: f64, golden: f64, what: &str) {
    let tol = 1e-12 * golden.abs().max(1.0);
    assert!(
        (actual - golden).abs() <= tol,
        "{what}: got {actual:.17e}, golden {golden:.17e}"
    );
}

/// Checked-in golden values for the depth-6 forward transform of `X`/`X2`.
const GOLDEN_Z_X: [f64; 4] = [
    8.86291292630788874e-1,
    -2.37276219435049196e0,
    1.46982625150391755e0,
    -1.59112064566986511e-1,
];
const GOLDEN_LOGDET_X: f64 = 1.36990463621296188e0;
const GOLDEN_LOGQ_X: f64 = -5.89556492375466146e0;
const GOLDEN_Z3_X: [f64; 4] = [
    6.27375545052917927e-1,
    -2.86539793985904456e0,
    2.21664499764896705e0,
    1.57578045003655298e-1,
];
const GOLDEN_LOGDET3_X: f64 = 3.15346307247607971e0;

const GOLDEN_Z_X2: [f64; 4] = [
    -2.18897462521380159e0,
    1.36027376358683116e0,
    5.00509017638425258e-1,
    -1.64514637039569900e0,
];
const GOLDEN_LOGDET_X2: f64 = -7.53189992641720263e-1;
const GOLDEN_LOGQ_X2: f64 = -6.42727142838727339e0;
const GOLDEN_Z3_X2: [f64; 4] = [
    -2.41515317747567204e0,
    2.39054689096059514e0,
    4.07071483717245552e-1,
    -1.40103952888165617e0,
];
const GOLDEN_LOGDET3_X2: f64 = 6.37464362665707496e-1;

#[test]
fn forward_transform_matches_goldens() {
    let (store, flow) = golden_flow();
    for (x, gz, gld) in [
        (&X, &GOLDEN_Z_X, GOLDEN_LOGDET_X),
        (&X2, &GOLDEN_Z_X2, GOLDEN_LOGDET_X2),
    ] {
        let (z, logdet) = push(&store, &flow, x, 6, false);
        for (i, (&zi, &gi)) in z.iter().zip(gz.iter()).enumerate() {
            assert_close(zi, gi, &format!("z[{i}] of {x:?}"));
        }
        assert_close(logdet, gld, &format!("logdet of {x:?}"));
    }
}

#[test]
fn partial_depth_transform_matches_goldens() {
    let (store, flow) = golden_flow();
    for (x, gz, gld) in [
        (&X, &GOLDEN_Z3_X, GOLDEN_LOGDET3_X),
        (&X2, &GOLDEN_Z3_X2, GOLDEN_LOGDET3_X2),
    ] {
        let (z, logdet) = push(&store, &flow, x, 3, false);
        for (i, (&zi, &gi)) in z.iter().zip(gz.iter()).enumerate() {
            assert_close(zi, gi, &format!("depth-3 z[{i}] of {x:?}"));
        }
        assert_close(logdet, gld, &format!("depth-3 logdet of {x:?}"));
    }
}

#[test]
fn log_density_matches_goldens() {
    let (store, flow) = golden_flow();
    assert_close(flow.log_density(&store, &X, 6)[0], GOLDEN_LOGQ_X, "ln q(X)");
    assert_close(
        flow.log_density(&store, &X2, 6)[0],
        GOLDEN_LOGQ_X2,
        "ln q(X2)",
    );
}

#[test]
fn inverse_round_trip_recovers_input_through_goldens() {
    let (store, flow) = golden_flow();
    for (x, gz) in [(&X, &GOLDEN_Z_X), (&X2, &GOLDEN_Z_X2)] {
        // Inverting the *golden* forward output must recover the input, so
        // forward and inverse are pinned against each other, not just
        // against their own history.
        let (back, logdet_inv) = push(&store, &flow, gz, 6, true);
        for (i, (&bi, &xi)) in back.iter().zip(x.iter()).enumerate() {
            assert!(
                (bi - xi).abs() < 1e-9,
                "round-trip x[{i}]: got {bi}, expected {xi}"
            );
        }
        // The inverse log-det must cancel the forward one.
        let (_, logdet_fwd) = push(&store, &flow, x, 6, false);
        assert!(
            (logdet_fwd + logdet_inv).abs() < 1e-9,
            "logdet fwd {logdet_fwd} + inv {logdet_inv} != 0"
        );
    }
}

#[test]
fn sample_log_density_consistency_is_pinned() {
    // ln q from sampling (base - logdet along the path) must agree with
    // ln q from inversion at the sampled point.
    let (store, flow) = golden_flow();
    let mut rng = StdRng::seed_from_u64(5);
    let (xs, logqs) = flow.sample(&store, 6, 20, &mut rng);
    let logqs2 = flow.log_density(&store, &xs, 6);
    for (&logq, &logq2) in logqs.iter().zip(&logqs2) {
        assert!(
            (logq - logq2).abs() < 1e-8,
            "sample logq {logq} vs inverse logq {logq2}"
        );
    }
}

#[test]
fn fused_tape_reproduces_goldens_bitwise() {
    // The graph path — fused matmul+bias+tanh / tanh-scale tape ops — lands
    // on the checked-in goldens, and a two-row batch agrees with the
    // one-row pass bit for bit.
    let (store, flow) = golden_flow();
    let mut g = Graph::new();
    let mut data = X.to_vec();
    data.extend_from_slice(&X2);
    let x = g.constant(Tensor::from_vec(2, 4, data));
    let (z, logdet) = flow.forward_graph(&store, &mut g, x, 6);
    let (z, logdet) = (g.value(z), g.value(logdet));
    for (i, (got, want)) in z.as_slice()[..4].iter().zip(&GOLDEN_Z_X).enumerate() {
        assert_close(*got, *want, &format!("fused graph z[{i}] of X"));
    }
    assert_close(
        logdet.as_slice()[0],
        GOLDEN_LOGDET_X,
        "fused graph logdet of X",
    );
    let (z_plain, ld_plain) = push(&store, &flow, &X, 6, false);
    for (i, (a, b)) in z.as_slice()[..4].iter().zip(&z_plain).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "graph vs transform z[{i}]");
    }
    assert_eq!(logdet.as_slice()[0].to_bits(), ld_plain.to_bits());
}

/// Builds a representative training tape over the golden flow for the
/// given batch: forward transform, an external row-wise oracle, and a
/// NOFIS-style scalar loss chain. Returns `(graph, z, logdet, loss)`.
fn trace_step(store: &ParamStore, flow: &RealNvp, batch: &[f64]) -> (Graph, Var, Var, Var, Var) {
    let mut g = Graph::new();
    g.set_pruning(true);
    let x = g.constant(Tensor::from_vec(batch.len() / 4, 4, batch.to_vec()));
    let (z, logdet) = flow.forward_graph(store, &mut g, x, 6);
    let gval = g.external_rowwise_par(z, nofis_parallel::global(), |row| {
        (1.25 - row[0], vec![-1.0, 0.0, 0.0, 0.0])
    });
    let clipped = g.min_scalar(gval, 0.0);
    let sq = g.square(clipped);
    let sc = g.sum_cols(z);
    let half = g.scale(sc, -0.5);
    let tempered = g.add_scalar(gval, 3.0);
    let a = g.add(half, tempered);
    let b = g.add(a, clipped);
    let m = g.mean_all(b);
    let loss0 = g.neg(m);
    let sq_m = g.mean_all(sq);
    let ld_m = g.mean_all(logdet);
    let t1 = g.add(loss0, sq_m);
    let t2 = g.add(t1, ld_m);
    let loss = g.tanh(t2);
    (g, x, z, logdet, loss)
}

#[test]
fn compiled_tape_replay_reproduces_goldens_bitwise() {
    // The trace-once/replay engine must execute the exact same
    // floating-point program as rebuilding the tape every step: same
    // forward values (so the checked-in goldens stay valid with
    // compilation on, the default), same parameter gradients bit for bit —
    // on the traced batch and on fresh batches replayed into the
    // preplanned buffers.
    let (store, flow) = golden_flow();
    let mut batch = X.to_vec();
    batch.extend_from_slice(&X2);

    let (mut g, x, z, logdet, loss) = trace_step(&store, &flow, &batch);
    g.backward(loss);
    let mut compiled = CompiledStep::compile(&g, loss, Some(x), &store);

    // Goldens hold on the compiled values exactly as on the interpreted
    // tape (the trace copies them verbatim; replay recomputes them).
    for pass in 0..2 {
        for (i, (got, want)) in compiled.value(z).as_slice()[..4]
            .iter()
            .zip(&GOLDEN_Z_X)
            .enumerate()
        {
            assert_close(*got, *want, &format!("compiled z[{i}] of X, pass {pass}"));
        }
        assert_close(
            compiled.value(logdet).as_slice()[0],
            GOLDEN_LOGDET_X,
            &format!("compiled logdet of X, pass {pass}"),
        );
        compiled.replay_forward(
            &store,
            |buf| buf.copy_from_slice(&batch),
            nofis_parallel::global(),
            |row| (1.25 - row[0], vec![-1.0, 0.0, 0.0, 0.0]),
        );
        compiled.backward();
    }

    // Replay on a *different* batch matches a freshly built interpreted
    // tape on that batch, values and parameter gradients bitwise.
    let batch2: Vec<f64> = batch.iter().map(|v| v * 0.7 - 0.11).collect();
    compiled.replay_forward(
        &store,
        |buf| buf.copy_from_slice(&batch2),
        nofis_parallel::global(),
        |row| (1.25 - row[0], vec![-1.0, 0.0, 0.0, 0.0]),
    );
    compiled.backward();
    let (mut g2, _, z2, ld2, loss2) = trace_step(&store, &flow, &batch2);
    g2.backward(loss2);
    for (what, a, b) in [
        ("z", g2.value(z2), compiled.value(z)),
        ("logdet", g2.value(ld2), compiled.value(logdet)),
        ("loss", g2.value(loss2), compiled.value(loss)),
    ] {
        for (i, (x1, x2)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
            assert_eq!(
                x1.to_bits(),
                x2.to_bits(),
                "compiled {what}[{i}] drifted from interpreted"
            );
        }
    }
    let gi = g2.param_grads();
    let gc = compiled.param_grads();
    assert_eq!(gi.len(), gc.len(), "param grad count");
    for ((id_i, ti), (id_c, tc)) in gi.iter().zip(&gc) {
        assert_eq!(id_i, id_c, "param grad order");
        for (i, (x1, x2)) in ti.as_slice().iter().zip(tc.as_slice()).enumerate() {
            assert_eq!(
                x1.to_bits(),
                x2.to_bits(),
                "compiled grad of {id_i:?}[{i}] drifted"
            );
        }
    }
    // Replays recycle the preplanned buffers: the backward scratch pool
    // sees no steady-state misses.
    let stats = compiled.pool_stats();
    assert!(
        stats.hits >= stats.misses,
        "scratch pool should reach steady state: {stats:?}"
    );
}
