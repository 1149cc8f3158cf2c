//! Property battery for the trace-once/replay engine (DESIGN.md §13).
//!
//! The compiled `CompiledStep` path must be a bitwise-identical drop-in
//! for rebuilding and interpreting the tape every step: same forward
//! values, same parameter gradients, same Adam moments, same trained
//! parameters — across random shapes, partial depths, frozen masks,
//! external-eval thread counts, and recompile ("resume") boundaries.
//! These tests drive two lanes sharing identical inputs — one always
//! interpreted, one compiled with recompiles injected mid-sequence — and
//! require exact bit equality everywhere, which is what licenses
//! `NofisConfig::compile_tape` defaulting to on.

use nofis::autograd::{CompiledStep, Graph, ParamStore, Var};
use nofis::core::{Levels, Nofis, NofisConfig};
use nofis::flows::RealNvp;
use nofis::nn::Adam;
use nofis::prob::{IsResult, LimitState};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TAU: f64 = 8.0;
const LEVEL: f64 = 0.6;
const LN_2PI: f64 = 1.8378770664093453;

/// Deterministic batch filler: same (seed, step) → same batch, so both
/// lanes consume identical inputs without sharing an RNG.
fn fill_batch(buf: &mut [f64], seed: u64, step: u64) {
    let mut state = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(step)
        .wrapping_add(0xA076_1D64_78BD_642F);
    for v in buf.iter_mut() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Map to a smallish symmetric range like base samples.
        *v = ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0;
    }
}

/// The external oracle both engines evaluate row-wise: affine in the first
/// two coordinates so the Jacobian is exact, with a non-finite pocket that
/// exercises the sanitize path.
fn oracle(row: &[f64]) -> (f64, Vec<f64>) {
    let mut grad = vec![0.0; row.len()];
    if row[0] > 1.9 {
        // Broken simulator subregion → sanitized by the caller.
        return (f64::NAN, grad);
    }
    grad[0] = -1.0;
    if row.len() > 1 {
        grad[1] = 0.25;
    }
    (
        LEVEL + 0.3 - row[0] + 0.25 * row.get(1).copied().unwrap_or(0.0),
        grad,
    )
}

/// The sanitize wrapper the train loop applies around the oracle.
fn sanitized(row: &[f64]) -> (f64, Vec<f64>) {
    let (v, grad) = oracle(row);
    if v.is_finite() && grad.iter().all(|g| g.is_finite()) {
        (v, grad)
    } else {
        (LEVEL + 1.0, vec![0.0; row.len()])
    }
}

/// Builds the NOFIS training tape (forward transform, external oracle,
/// tempered-KL loss) exactly like the train loop does.
fn trace_step(
    store: &ParamStore,
    flow: &RealNvp,
    batch: &[f64],
    dim: usize,
    depth: usize,
    pool: &nofis_parallel::ThreadPool,
) -> (Graph, Var, Var, Var) {
    let mut g = Graph::new();
    g.set_pruning(true);
    let x = g.constant_with(batch.len() / dim, dim, |buf| buf.copy_from_slice(batch));
    let (z, logdet) = flow.forward_graph(store, &mut g, x, depth);
    let gvals = g.external_rowwise_par(z, pool, sanitized);
    let neg_tau_g = g.scale(gvals, -TAU);
    let shifted = g.add_scalar(neg_tau_g, TAU * LEVEL);
    let tempered = g.min_scalar(shifted, 0.0);
    let sq = g.square(z);
    let ssq = g.sum_cols(sq);
    let half = g.scale(ssq, -0.5);
    let logp = g.add_scalar(half, -0.5 * dim as f64 * LN_2PI);
    let a = g.add(logdet, tempered);
    let per_sample = g.add(a, logp);
    let mean = g.mean_all(per_sample);
    let loss = g.neg(mean);
    (g, x, logdet, loss)
}

fn build_model(
    seed: u64,
    dim: usize,
    layers: usize,
    hidden: usize,
    frozen_layers: usize,
) -> (ParamStore, RealNvp) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let flow = RealNvp::new(&mut store, dim, layers, hidden, 2.0, &mut rng);
    for id in flow.param_ids_for_layers(0..frozen_layers) {
        store.set_frozen(id, true);
    }
    (store, flow)
}

fn assert_stores_bitwise(a: &ParamStore, b: &ParamStore, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: param count");
    for ((ida, ta), (idb, tb)) in a.iter().zip(b.iter()) {
        assert_eq!(ida, idb, "{what}: param order");
        for (i, (xa, xb)) in ta.as_slice().iter().zip(tb.as_slice()).enumerate() {
            assert_eq!(
                xa.to_bits(),
                xb.to_bits(),
                "{what}: param {ida:?}[{i}] diverged ({xa:e} vs {xb:e})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two lanes over identical inputs: lane A rebuilds and interprets the
    /// tape every step; lane B compiles once and replays, with a forced
    /// recompile at a random step (the checkpoint/resume boundary: resume
    /// always starts with a cold cache) and a frozen-mask flip near the
    /// end (the stage boundary: freezing must invalidate the plan). After
    /// every step, parameters and losses must match bit for bit; at the
    /// end, so must the Adam moments.
    #[test]
    fn compiled_lane_is_bitwise_identical_to_interpreted_lane(
        seed in 0u64..1_000,
        dim in 2usize..5,
        layers in 1usize..5,
        hidden in 2usize..9,
        n in 1usize..17,
        frozen in 0usize..5,
        depth_hint in 1usize..5,
        threads_sel in 0usize..2,
        recompile_at in 0u64..4,
    ) {
        let frozen_layers = frozen.min(layers.saturating_sub(1));
        let depth = depth_hint.clamp(1, layers);
        let threads = [1usize, 4][threads_sel];
        let pool = nofis_parallel::ThreadPool::new(threads);
        let (mut store_a, flow) = build_model(seed, dim, layers, hidden, frozen_layers);
        let (mut store_b, _) = build_model(seed, dim, layers, hidden, frozen_layers);
        assert_stores_bitwise(&store_a, &store_b, "init");
        let mut opt_a = Adam::new(4e-3).with_max_grad_norm(Some(5.0));
        let mut opt_b = Adam::new(4e-3).with_max_grad_norm(Some(5.0));
        let mut compiled: Option<(CompiledStep, Var)> = None;
        let mut batch = vec![0.0; n * dim];
        const STEPS: u64 = 6;
        const MASK_FLIP_AT: u64 = 4;
        for step in 0..STEPS {
            if step == MASK_FLIP_AT {
                // Stage-boundary emulation: freeze one more layer (or
                // unfreeze everything when already maximally frozen).
                for id in flow.param_ids_for_layers(0..frozen_layers + 1) {
                    let now = store_a.is_frozen(id);
                    store_a.set_frozen(id, !now);
                    store_b.set_frozen(id, !now);
                }
            }
            fill_batch(&mut batch, seed, step);

            // Lane A: always interpreted.
            let (mut ga, _, _, loss_a) =
                trace_step(&store_a, &flow, &batch, dim, depth, &pool);
            let loss_a_val = ga.value(loss_a).item();
            ga.backward(loss_a);
            opt_a.step_fused(&mut store_a, &ga);

            // Lane B: compiled, with injected recompiles. The mask check
            // mirrors the train loop's cache key.
            if step == recompile_at {
                compiled = None; // resume boundary: cold cache
            }
            let valid = compiled
                .as_ref()
                .is_some_and(|(c, _)| c.batch_rows() == Some(n) && c.mask_matches(&store_b));
            let loss_b_val = if valid {
                let (c, loss_b) = compiled.as_mut().expect("validity checked");
                c.replay_forward(
                    &store_b,
                    |buf| buf.copy_from_slice(&batch),
                    &pool,
                    sanitized,
                );
                c.backward();
                opt_b.step_fused(&mut store_b, &*c);
                c.value(*loss_b).item()
            } else {
                let (mut gb, x, _, loss_b) =
                    trace_step(&store_b, &flow, &batch, dim, depth, &pool);
                let v = gb.value(loss_b).item();
                gb.backward(loss_b);
                let c = CompiledStep::compile(&gb, loss_b, Some(x), &store_b);
                opt_b.step_fused(&mut store_b, &gb);
                compiled = Some((c, loss_b));
                v
            };

            assert_eq!(
                loss_a_val.to_bits(),
                loss_b_val.to_bits(),
                "loss diverged at step {step} ({loss_a_val:e} vs {loss_b_val:e})"
            );
            assert_stores_bitwise(&store_a, &store_b, &format!("after step {step}"));
        }
        assert_eq!(opt_a.export_state(), opt_b.export_state());
    }
}

/// Replaying against a store whose frozen mask changed since compile must
/// panic (the preplanned gradient set is stale) rather than silently
/// producing wrong gradients — the engine-level guard behind the
/// train-loop cache key.
#[test]
fn stale_frozen_mask_replay_panics() {
    let (mut store, flow) = build_model(7, 3, 2, 4, 0);
    let pool = nofis_parallel::ThreadPool::new(1);
    let mut batch = vec![0.0; 4 * 3];
    fill_batch(&mut batch, 7, 0);
    let (g, x, _, loss) = trace_step(&store, &flow, &batch, 3, 2, &pool);
    let mut compiled = CompiledStep::compile(&g, loss, Some(x), &store);
    assert!(compiled.mask_matches(&store));
    for id in flow.param_ids_for_layers(0..1) {
        store.set_frozen(id, true);
    }
    assert!(
        !compiled.mask_matches(&store),
        "mask change must be visible"
    );
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        compiled.replay_forward(&store, |buf| buf.copy_from_slice(&batch), &pool, sanitized);
    }));
    assert!(res.is_err(), "stale-mask replay must refuse to run");
}

struct HalfSpace {
    beta: f64,
}
impl LimitState for HalfSpace {
    fn dim(&self) -> usize {
        2
    }
    fn value(&self, x: &[f64]) -> f64 {
        self.beta - x[0]
    }
    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        (self.beta - x[0], vec![-1.0, 0.0])
    }
    fn name(&self) -> &str {
        "half-space"
    }
}

fn tiny_config() -> NofisConfig {
    NofisConfig {
        levels: Levels::Fixed(vec![1.0, 0.0]),
        layers_per_stage: 2,
        hidden: 8,
        epochs: 3,
        batch_size: 30,
        minibatch: 10,
        n_is: 150,
        tau: 10.0,
        learning_rate: 5e-3,
        ..Default::default()
    }
}

fn run(cfg: NofisConfig, seed: u64) -> IsResult {
    let mut rng = StdRng::seed_from_u64(seed);
    Nofis::new(cfg)
        .unwrap()
        .run(&HalfSpace { beta: 2.4 }, &mut rng)
        .unwrap()
        .1
}

/// End-to-end: a full multi-stage `Nofis::run` with the compiled engine
/// (the default) is bitwise identical to the same run with it disabled —
/// estimate, hit count, and ESS. The compiled path crosses stage
/// boundaries (mask changes), tail minibatches (30 % 10 == 0 here, but
/// epochs × stages exercises many replays), and divergence checks.
#[test]
fn full_run_is_bitwise_identical_with_compilation_on_or_off() {
    let on = run(
        NofisConfig {
            compile_tape: true,
            ..tiny_config()
        },
        42,
    );
    let off = run(
        NofisConfig {
            compile_tape: false,
            ..tiny_config()
        },
        42,
    );
    assert_eq!(on.estimate.to_bits(), off.estimate.to_bits(), "estimate");
    assert_eq!(on.hits, off.hits, "hits");
    assert_eq!(
        on.effective_sample_size.to_bits(),
        off.effective_sample_size.to_bits(),
        "ess"
    );
    assert_eq!(on.std_error.to_bits(), off.std_error.to_bits(), "std_error");
    assert_eq!(
        on.pareto_k.map(f64::to_bits),
        off.pareto_k.map(f64::to_bits),
        "pareto_k"
    );
}

/// An uneven minibatch tail (batch_size % minibatch != 0) forces a
/// retrace every epoch (two tape shapes alternate); results must still
/// be bitwise identical to the interpreted engine.
#[test]
fn uneven_minibatch_tail_is_bitwise_identical() {
    let cfg = NofisConfig {
        batch_size: 25, // 10 + 10 + 5 per epoch
        ..tiny_config()
    };
    let on = run(
        NofisConfig {
            compile_tape: true,
            ..cfg.clone()
        },
        7,
    );
    let off = run(
        NofisConfig {
            compile_tape: false,
            ..cfg
        },
        7,
    );
    assert_eq!(on.estimate.to_bits(), off.estimate.to_bits(), "estimate");
    assert_eq!(on.hits, off.hits, "hits");
    assert_eq!(
        on.effective_sample_size.to_bits(),
        off.effective_sample_size.to_bits(),
        "ess"
    );
    assert_eq!(on.std_error.to_bits(), off.std_error.to_bits(), "std_error");
    assert_eq!(
        on.pareto_k.map(f64::to_bits),
        off.pareto_k.map(f64::to_bits),
        "pareto_k"
    );
}
