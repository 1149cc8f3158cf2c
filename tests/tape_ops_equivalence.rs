//! Every tape op through both execution engines (DESIGN.md §13).
//!
//! One tape uses every `Graph` op: the fused `linear` with and without
//! `tanh`, a `matmul` large enough to run on the parallel kernels, every
//! elementwise op, the three reductions and an external row-wise oracle.
//! One intermediate is read by two ops, so its gradient is written once
//! and then merged, and one parameter is frozen. With pruning on and off
//! the tape is compiled, replayed on fresh batches and fresh parameters,
//! and compared bit for bit against a fresh interpreted trace: every
//! node's value, every node's gradient, and both parameter-gradient
//! walks. Each op's gradient is also checked against central finite
//! differences on its own small tape.

use nofis::autograd::check::{finite_difference, max_rel_error};
use nofis::autograd::{CompiledStep, Graph, ParamId, ParamStore, Tensor, Var};
use nofis::parallel::kernels::PAR_FLOPS_THRESHOLD;

/// Batch rows, input width and hidden width of the all-ops tape.
const ROWS: usize = 64;
const DIM: usize = 4;
const HIDDEN: usize = 32;

/// Deterministic values in `[lo, hi)`, distinct per `seed`.
fn fill(buf: &mut [f64], seed: u64, lo: f64, hi: f64) {
    let mut state = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0xA076_1D64_78BD_642F);
    for v in buf.iter_mut() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = lo + (hi - lo) * ((state >> 11) as f64 / (1u64 << 53) as f64);
    }
}

fn tensor(rows: usize, cols: usize, seed: u64, lo: f64, hi: f64) -> Tensor {
    let mut data = vec![0.0; rows * cols];
    fill(&mut data, seed, lo, hi);
    Tensor::from_vec(rows, cols, data)
}

/// A smooth row-wise oracle with an exact Jacobian:
/// `f(x) = Σ_i sin((i + 1) · x_i)`.
fn oracle(row: &[f64]) -> (f64, Vec<f64>) {
    let value = row
        .iter()
        .enumerate()
        .map(|(i, &x)| ((i + 1) as f64 * x).sin())
        .sum();
    let grad = row
        .iter()
        .enumerate()
        .map(|(i, &x)| (i + 1) as f64 * ((i + 1) as f64 * x).cos())
        .collect();
    (value, grad)
}

/// Parameters of the all-ops tape: `w1, b1` (tanh linear), `w2` (the
/// parallel matmul), `frozen` (a mask row, frozen), `b2` (bias row),
/// `w3, b3` (plain linear).
struct Params {
    store: ParamStore,
    ids: [ParamId; 7],
}

fn params() -> Params {
    let mut store = ParamStore::new();
    let ids = [
        store.add(tensor(DIM, HIDDEN, 1, -0.5, 0.5)),
        store.add(tensor(1, HIDDEN, 2, -0.1, 0.1)),
        store.add(tensor(HIDDEN, HIDDEN, 3, -0.3, 0.3)),
        store.add(tensor(1, HIDDEN, 4, 0.5, 1.5)),
        store.add(tensor(1, HIDDEN, 5, -0.2, 0.2)),
        store.add(tensor(HIDDEN, DIM, 6, -0.4, 0.4)),
        store.add(tensor(1, DIM, 7, -0.1, 0.1)),
    ];
    store.set_frozen(ids[3], true);
    Params { store, ids }
}

/// Builds the all-ops tape on `g` with batch `batch_seed`; returns the
/// batch leaf, the loss, and every node in build order.
fn build(g: &mut Graph, p: &Params, batch_seed: u64) -> (Var, Var, Vec<Var>) {
    let pool = nofis::parallel::global();
    let x = g.constant_with(ROWS, DIM, |buf| fill(buf, batch_seed, -1.5, 1.5));
    let [w1, b1, w2, frozen, b2, w3, b3] = p.ids.map(|id| p.store.inject(g, id));
    let h1 = g.linear(x, w1, b1, true);
    // h1 is read here and by the second linear below: its gradient is
    // written by one and merged by the other.
    let m = g.matmul(h1, w2);
    let masked = g.mul_row(m, frozen);
    let shifted = g.add_row(masked, b2);
    let sg = g.sigmoid(shifted);
    let l2 = g.linear(h1, w3, b3, false);
    let sp = g.softplus(l2);
    let th = g.tanh(l2);
    let ts = g.tanh_scale(l2, 1.5);
    let rl = g.relu(l2);
    let ex = g.exp(th);
    let lg = g.ln(sp);
    let sq = g.square(ts);
    let mn = g.min_scalar(l2, 0.1);
    let ng = g.neg(rl);
    let sc = g.scale(ex, 0.7);
    let adds = g.add_scalar(lg, -0.3);
    let s1 = g.add(sc, adds);
    let s2 = g.sub(sq, mn);
    let s3 = g.mul(s1, s2);
    let s4 = g.add(s3, ng);
    let ext = g.external_rowwise_par(s4, pool, oracle);
    let cols = g.sum_cols(sg);
    let e2 = g.mul(ext, cols);
    let total = g.sum_all(e2);
    let scaled = g.scale(total, 0.01);
    let mean = g.mean_all(s4);
    let loss = g.add(scaled, mean);
    let nodes = vec![
        x, w1, b1, w2, frozen, b2, w3, b3, h1, m, masked, shifted, sg, l2, sp, th, ts, rl, ex, lg,
        sq, mn, ng, sc, adds, s1, s2, s3, s4, ext, cols, e2, total, scaled, mean, loss,
    ];
    (x, loss, nodes)
}

fn assert_bits(what: &str, a: &Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape(), "{what}: shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}: {x} vs {y}");
    }
}

/// Moves every trainable parameter a little, like an optimizer step, so
/// a replay must pick up fresh parameter values.
fn nudge(p: &mut Params, step: u64) {
    for (k, &id) in p.ids.iter().enumerate() {
        if p.store.is_frozen(id) {
            continue;
        }
        let mut delta = vec![0.0; p.store.get(id).len()];
        fill(&mut delta, 100 * step + k as u64, -0.01, 0.01);
        for (v, d) in p.store.get_mut(id).as_mut_slice().iter_mut().zip(delta) {
            *v += d;
        }
    }
}

// The h1 @ w2 product (and both of its backward products) must run on
// the parallel kernels.
const _: () = assert!(ROWS * HIDDEN * HIDDEN >= PAR_FLOPS_THRESHOLD);

#[test]
fn compiled_replay_matches_a_fresh_interpreted_trace_bitwise() {
    for prune in [false, true] {
        let mut p = params();
        let mut g = Graph::new();
        g.set_pruning(prune);
        let (x, loss, _) = build(&mut g, &p, 10);
        g.backward(loss);
        let mut compiled = CompiledStep::compile(&g, loss, Some(x), &p.store);

        // Two replays, so the second runs over buffers that already hold
        // the first replay's values and gradients.
        for step in 1..=2u64 {
            nudge(&mut p, step);
            let batch_seed = 10 + step;
            compiled.replay_forward(
                &p.store,
                |buf| fill(buf, batch_seed, -1.5, 1.5),
                nofis::parallel::global(),
                oracle,
            );
            compiled.backward();

            g.reset();
            g.set_pruning(prune);
            let (_, loss_i, nodes) = build(&mut g, &p, batch_seed);
            g.backward(loss_i);

            for (k, &v) in nodes.iter().enumerate() {
                let what = format!("prune={prune} step={step} node {k}");
                assert_bits(&format!("{what} value"), compiled.value(v), g.value(v));
                match (compiled.grad(v), g.grad(v)) {
                    (Some(c), Some(i)) => assert_bits(&format!("{what} grad"), c, i),
                    (None, None) => {}
                    (c, i) => panic!(
                        "{what}: compiled grad present {}, interpreted grad present {}",
                        c.is_some(),
                        i.is_some()
                    ),
                }
            }

            let mut walk_c = Vec::new();
            compiled.for_each_param_grad(|id, t| walk_c.push((id, t.clone())));
            let mut walk_i = Vec::new();
            g.for_each_param_grad(|id, t| walk_i.push((id, t.clone())));
            for (sums_c, sums_i) in [(walk_c, walk_i), (compiled.param_grads(), g.param_grads())] {
                assert_eq!(sums_c.len(), sums_i.len(), "prune={prune}: grad count");
                for ((id_c, t_c), (id_i, t_i)) in sums_c.iter().zip(&sums_i) {
                    assert_eq!(id_c, id_i, "prune={prune}: grad order");
                    assert_bits(&format!("prune={prune} param {id_c:?}"), t_c, t_i);
                }
            }

            // The frozen mask row gets a gradient only without pruning.
            let frozen = nodes[4];
            assert_eq!(g.grad(frozen).is_some(), !prune, "frozen grad presence");
        }
    }
}

/// Checks the gradient of `sum(op(inputs) ⊙ weights)` with respect to
/// every input against central finite differences. The fixed weights
/// break the symmetry a plain sum would have.
fn check_op(name: &str, inputs: &[&Tensor], op: impl Fn(&mut Graph, &[Var]) -> Var) {
    let inputs: Vec<Tensor> = inputs.iter().map(|&t| t.clone()).collect();
    let mut store = ParamStore::new();
    let ids: Vec<ParamId> = inputs.iter().map(|t| store.add(t.clone())).collect();
    let loss_of = |vals: &[Tensor], g: &mut Graph| -> Var {
        let vars: Vec<Var> = ids
            .iter()
            .zip(vals)
            .map(|(&id, t)| g.param(id, t.clone()))
            .collect();
        let out = op(g, &vars);
        let (r, c) = g.value(out).shape();
        let w = g.constant(tensor(r, c, 99, 0.5, 1.5));
        let weighted = g.mul(out, w);
        g.sum_all(weighted)
    };
    let mut g = Graph::new();
    let loss = loss_of(&inputs, &mut g);
    g.backward(loss);
    let grads = g.param_grads();
    assert_eq!(grads.len(), inputs.len(), "{name}: every input gets a grad");
    for (k, (id, analytic)) in grads.iter().enumerate() {
        assert_eq!(*id, ids[k], "{name}: grad order");
        let numeric = finite_difference(
            |flat| {
                let mut vals = inputs.to_vec();
                vals[k].as_mut_slice().copy_from_slice(flat);
                let mut g = Graph::new();
                let loss = loss_of(&vals, &mut g);
                g.value(loss).item()
            },
            inputs[k].as_slice(),
            1e-6,
        );
        let err = max_rel_error(analytic.as_slice(), &numeric);
        assert!(err < 1e-6, "{name}: input {k} rel error {err}");
    }
}

#[test]
fn every_op_gradient_matches_finite_differences() {
    let a = tensor(3, 4, 1, -1.0, 1.0);
    let b = tensor(3, 4, 2, -1.0, 1.0);
    let row = tensor(1, 4, 3, -1.0, 1.0);
    let w = tensor(4, 2, 4, -1.0, 1.0);
    let bias = tensor(1, 2, 5, -1.0, 1.0);
    let pos = tensor(3, 4, 6, 0.5, 2.0);
    // Away from the kinks at 0 (relu) and 0.1 (min_scalar).
    let away = Tensor::from_vec(
        3,
        4,
        vec![
            0.7, -0.6, 0.9, -0.8, 0.5, -0.4, 1.1, -1.2, 0.35, -0.3, 0.6, -0.9,
        ],
    );

    check_op("add", &[&a, &b], |g, v| g.add(v[0], v[1]));
    check_op("add_row", &[&a, &row], |g, v| g.add_row(v[0], v[1]));
    check_op("sub", &[&a, &b], |g, v| g.sub(v[0], v[1]));
    check_op("mul", &[&a, &b], |g, v| g.mul(v[0], v[1]));
    check_op("mul_row", &[&a, &row], |g, v| g.mul_row(v[0], v[1]));
    check_op("matmul", &[&a, &w], |g, v| g.matmul(v[0], v[1]));
    for apply_tanh in [false, true] {
        check_op(
            &format!("linear(tanh={apply_tanh})"),
            &[&a, &w, &bias],
            |g, v| g.linear(v[0], v[1], v[2], apply_tanh),
        );
    }
    check_op("scale", &[&a], |g, v| g.scale(v[0], -1.7));
    check_op("add_scalar", &[&a], |g, v| g.add_scalar(v[0], 0.4));
    check_op("neg", &[&a], |g, v| g.neg(v[0]));
    check_op("tanh", &[&a], |g, v| g.tanh(v[0]));
    check_op("tanh_scale", &[&a], |g, v| g.tanh_scale(v[0], 1.5));
    check_op("sigmoid", &[&a], |g, v| g.sigmoid(v[0]));
    check_op("softplus", &[&a], |g, v| g.softplus(v[0]));
    check_op("relu", &[&away], |g, v| g.relu(v[0]));
    check_op("exp", &[&a], |g, v| g.exp(v[0]));
    check_op("ln", &[&pos], |g, v| g.ln(v[0]));
    check_op("square", &[&a], |g, v| g.square(v[0]));
    check_op("min_scalar", &[&away], |g, v| g.min_scalar(v[0], 0.1));
    check_op("sum_all", &[&a], |g, v| g.sum_all(v[0]));
    check_op("mean_all", &[&a], |g, v| g.mean_all(v[0]));
    check_op("sum_cols", &[&a], |g, v| g.sum_cols(v[0]));
    check_op("external", &[&a], |g, v| {
        g.external_rowwise_par(v[0], nofis::parallel::global(), oracle)
    });
}
