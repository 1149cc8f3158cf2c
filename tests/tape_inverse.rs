//! The flow's tape inverse and the batched proposal API.
//!
//! * `inverse_graph` reproduces, bit for bit, the per-point scalar inverse
//!   the coupling layers had before their arithmetic moved onto the tape
//!   (kept below as the reference), on one row and on a batch large enough
//!   for the parallel matmul kernels.
//! * The parameter gradients of `ln q` built on the tape from
//!   `inverse_graph` match finite differences.
//! * `sample_batch` / `log_density_batch` return the per-row bits and leave
//!   the random stream where `n` calls to `sample` leave it.

use nofis::autograd::check::{max_rel_error, numeric_param_grads};
use nofis::autograd::{Graph, ParamStore, Tensor, Var};
use nofis::core::FlowProposal;
use nofis::flows::{AffineCoupling, RealNvp};
use nofis::nn::{Activation, Mlp};
use nofis::parallel::kernels::PAR_FLOPS_THRESHOLD;
use nofis::prob::{Proposal, StandardGaussian, LN_2PI};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const S_MAX: f64 = 2.0;

fn randomized_flow(dim: usize, layers: usize, hidden: usize, seed: u64) -> (ParamStore, RealNvp) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let flow = RealNvp::new(&mut store, dim, layers, hidden, S_MAX, &mut rng);
    let ids: Vec<_> = store.iter().map(|(id, _)| id).collect();
    for id in ids {
        for v in store.get_mut(id).as_mut_slice() {
            *v += rng.gen_range(-0.3..0.3);
        }
    }
    (store, flow)
}

fn random_rows(rows: usize, dim: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows * dim).map(|_| rng.gen_range(-2.5..2.5)).collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// One coupling layer's conditioner nets, rebuilt as stand-alone `Mlp`s
/// over a copy of the layer's parameters (scale net, then translate net:
/// the layer's `param_ids` order).
struct Conditioner {
    store: ParamStore,
    scale: Mlp,
    translate: Mlp,
    mask: Vec<f64>,
}

impl Conditioner {
    fn of(layer: &AffineCoupling, flow_store: &ParamStore, hidden: usize) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let dims = [layer.dim(), hidden, layer.dim()];
        let scale = Mlp::new_zero_output(&mut store, &dims, Activation::Tanh, &mut rng);
        let translate = Mlp::new_zero_output(&mut store, &dims, Activation::Tanh, &mut rng);
        let ours: Vec<_> = scale
            .param_ids()
            .into_iter()
            .chain(translate.param_ids())
            .collect();
        assert_eq!(ours.len(), layer.param_ids().len());
        for (dst, src) in ours.into_iter().zip(layer.param_ids()) {
            *store.get_mut(dst) = flow_store.get(src).clone();
        }
        Conditioner {
            store,
            scale,
            translate,
            mask: layer.mask().as_slice().to_vec(),
        }
    }

    /// The scalar inverse of one point: `(x, ln|det J⁻¹|)`.
    fn inverse(&self, y: &[f64]) -> (Vec<f64>, f64) {
        let m = &self.mask;
        let masked: Vec<f64> = y.iter().zip(m).map(|(&v, &b)| v * b).collect();
        let xm = Tensor::from_row(&masked);
        let s_raw = self.scale.predict(&self.store, &xm);
        let t = self.translate.predict(&self.store, &xm);
        let s: Vec<f64> = s_raw
            .as_slice()
            .iter()
            .map(|&v| S_MAX * nofis::parallel::math::tanh(v))
            .collect();
        let t = t.as_slice();
        let mut x = vec![0.0; y.len()];
        let mut logdet_inv = 0.0;
        for i in 0..y.len() {
            if m[i] == 1.0 {
                x[i] = y[i];
            } else {
                x[i] = (y[i] - t[i]) * (-s[i]).exp();
                logdet_inv -= s[i];
            }
        }
        (x, logdet_inv)
    }
}

/// The scalar inverse of one point through `layers` (applied last-to-first).
fn reference_inverse(layers: &[Conditioner], y: &[f64]) -> (Vec<f64>, f64) {
    let mut z = y.to_vec();
    let mut logdet_inv = 0.0;
    for layer in layers.iter().rev() {
        let (z2, ld) = layer.inverse(&z);
        z = z2;
        logdet_inv += ld;
    }
    (z, logdet_inv)
}

#[test]
fn inverse_graph_matches_the_scalar_inverse_bitwise() {
    let (dim, hidden) = (8, 32);
    let (store, flow) = randomized_flow(dim, 6, hidden, 41);
    let conditioners: Vec<Conditioner> = (0..flow.n_layers())
        .map(|i| Conditioner::of(flow.layer(i), &store, hidden))
        .collect();
    // Each conditioner matmul of a `big`-row batch reaches the parallel
    // kernel threshold.
    let big = PAR_FLOPS_THRESHOLD / (dim * hidden) + 1;
    let p = StandardGaussian::new(dim);
    for depth in [3, 6] {
        for rows in [1, big] {
            let ys = random_rows(rows, dim, depth as u64);
            let mut g = Graph::new();
            let y = g.constant_from_slice(rows, dim, &ys);
            let (z, logdet_inv) = flow.inverse_graph(&store, &mut g, y, depth);
            let log_q = flow.log_density(&store, &ys, depth);
            for (r, row) in ys.chunks_exact(dim).enumerate() {
                let (rz, rld) = reference_inverse(&conditioners[..depth], row);
                let what = format!("depth {depth}, {rows} rows, row {r}");
                assert_eq!(bits(g.value(z).row(r)), bits(&rz), "z of {what}");
                assert_eq!(
                    g.value(logdet_inv)[(r, 0)].to_bits(),
                    rld.to_bits(),
                    "logdet of {what}"
                );
                assert_eq!(
                    log_q[r].to_bits(),
                    (p.log_density(&rz) + rld).to_bits(),
                    "ln q of {what}"
                );
            }
        }
    }
}

/// `ln q` of each row of `xs` built on the tape: the inverse pass plus the
/// standard-normal base density of `z_0`. Returns the `[N, 1]` node.
fn tape_log_q(store: &ParamStore, flow: &RealNvp, g: &mut Graph, xs: &Tensor, depth: usize) -> Var {
    let x = g.constant(xs.clone());
    let (z0, logdet_inv) = flow.inverse_graph(store, g, x, depth);
    let sq = g.square(z0);
    let ssq = g.sum_cols(sq);
    let half = g.scale(ssq, -0.5);
    let base = g.add_scalar(half, -0.5 * flow.dim() as f64 * LN_2PI);
    g.add(base, logdet_inv)
}

#[test]
fn tape_log_density_gradients_match_finite_differences() {
    let (mut store, flow) = randomized_flow(3, 4, 6, 43);
    let xs = Tensor::from_vec(5, 3, random_rows(5, 3, 44));
    for depth in [2, 4] {
        // The tape's `ln q` is the value API's `ln q`, bit for bit.
        let mut g = Graph::new();
        let log_q = tape_log_q(&store, &flow, &mut g, &xs, depth);
        let direct = flow.log_density(&store, xs.as_slice(), depth);
        assert_eq!(bits(g.value(log_q).as_slice()), bits(&direct));

        // Gradients of the mean log-likelihood (a forward-KL objective).
        let loss = g.mean_all(log_q);
        g.backward(loss);
        let analytic = g.param_grads();
        let numeric = numeric_param_grads(
            &mut store,
            |s| {
                let mut g = Graph::new();
                let log_q = tape_log_q(s, &flow, &mut g, &xs, depth);
                let loss = g.mean_all(log_q);
                g.value(loss).item()
            },
            1e-6,
        );
        assert!(!analytic.is_empty());
        for (id, grad) in &analytic {
            let err = max_rel_error(grad.as_slice(), numeric[id.index()].as_slice());
            assert!(err < 1e-5, "depth {depth}, param {}: {err}", id.index());
        }
    }
}

/// `sample_batch(n)` gives the bits of `n` calls to `sample` and leaves the
/// random stream at the same position; `log_density_batch` gives the bits
/// of the per-row `log_density`.
fn assert_batch_matches_rows(q: &impl Proposal, n: usize, seed: u64) {
    let mut batch_rng = StdRng::seed_from_u64(seed);
    let batch = q.sample_batch(n, &mut batch_rng);
    let mut row_rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<f64>> = (0..n).map(|_| q.sample(&mut row_rng)).collect();
    assert_eq!(batch.len(), n);
    for (r, (a, b)) in batch.iter().zip(&rows).enumerate() {
        assert_eq!(bits(a), bits(b), "sample row {r}");
    }
    assert_eq!(batch_rng.next_u64(), row_rng.next_u64(), "rng position");

    let batch_q = q.log_density_batch(&rows);
    let row_q: Vec<f64> = rows.iter().map(|x| q.log_density(x)).collect();
    assert_eq!(bits(&batch_q), bits(&row_q), "ln q");
}

#[test]
fn batched_proposals_match_per_row_calls_bitwise() {
    let (store, flow) = randomized_flow(3, 6, 8, 45);
    // 300 rows span more than one of the flow's tape chunks.
    for depth in [3, 6] {
        let q = FlowProposal::new(&flow, &store, depth);
        assert_batch_matches_rows(&q, 300, 46);
    }
    assert_batch_matches_rows(&StandardGaussian::new(3), 300, 48);
}
