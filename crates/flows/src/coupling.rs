use crate::Mask;
use nofis_autograd::{Graph, ParamId, ParamStore, Var};
use nofis_nn::{Activation, Mlp};
use rand::Rng;

/// A RealNVP affine coupling layer (Dinh et al., 2017).
///
/// With binary mask `m`, scale net `s(·)` and translate net `t(·)`:
///
/// ```text
/// y = m ⊙ x + (1 − m) ⊙ ( x ⊙ exp(s(m ⊙ x)) + t(m ⊙ x) )
/// ln|det J| = Σ (1 − m) ⊙ s(m ⊙ x)
/// ```
///
/// The conditioning coordinates pass through unchanged (`m ⊙ y = m ⊙ x`),
/// so the inverse runs the same conditioner nets on `m ⊙ y`:
///
/// ```text
/// x = m ⊙ y + (1 − m) ⊙ ( (y − t(m ⊙ y)) ⊙ exp(−s(m ⊙ y)) )
/// ln|det J⁻¹| = Σ (1 − m) ⊙ (−s(m ⊙ y))
/// ```
///
/// Both directions exist only as tape passes, so training, sampling and
/// density evaluation share one implementation.
///
/// The raw scale-net output passes through `s_max · tanh(·)` so the
/// log-scales stay in `[-s_max, s_max]`; without this clamp the early NOFIS
/// stages diverge at large temperatures. Both nets are zero-initialized at
/// the output so a fresh layer is exactly the identity map.
///
/// # Example
///
/// ```
/// use nofis_autograd::{Graph, ParamStore};
/// use nofis_flows::{AffineCoupling, Mask};
/// use rand::SeedableRng;
///
/// let mut store = ParamStore::new();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let layer = AffineCoupling::new(&mut store, Mask::alternating(2, true), 16, 2.0, &mut rng);
/// let mut g = Graph::new();
/// let x = g.constant_from_slice(1, 2, &[0.3, -0.7]);
/// let (y, logdet) = layer.forward_graph(&store, &mut g, x);
/// assert_eq!(g.value(y).as_slice(), &[0.3, -0.7]); // identity at initialization
/// assert_eq!(g.value(logdet).item(), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct AffineCoupling {
    mask: Mask,
    /// `1 − mask`, cached at construction so the per-step graph build does
    /// not recompute (and reallocate) the complement row.
    inv_mask: Mask,
    scale_net: Mlp,
    translate_net: Mlp,
    s_max: f64,
}

impl AffineCoupling {
    /// Creates a coupling layer over `mask.dim()` coordinates with one
    /// hidden layer of width `hidden` in each conditioner net.
    ///
    /// # Panics
    ///
    /// Panics if `hidden == 0` or `s_max <= 0`.
    pub fn new(
        store: &mut ParamStore,
        mask: Mask,
        hidden: usize,
        s_max: f64,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(hidden > 0, "conditioner hidden width must be positive");
        assert!(s_max > 0.0, "s_max must be positive");
        let d = mask.dim();
        let dims = [d, hidden, d];
        let scale_net = Mlp::new_zero_output(store, &dims, Activation::Tanh, rng);
        let translate_net = Mlp::new_zero_output(store, &dims, Activation::Tanh, rng);
        let inv_mask = mask.complement();
        AffineCoupling {
            mask,
            inv_mask,
            scale_net,
            translate_net,
            s_max,
        }
    }

    /// Dimensionality of the layer.
    pub fn dim(&self) -> usize {
        self.mask.dim()
    }

    /// The layer's coupling mask.
    pub fn mask(&self) -> &Mask {
        &self.mask
    }

    /// All parameter ids of both conditioner nets.
    pub fn param_ids(&self) -> Vec<ParamId> {
        let mut ids = self.scale_net.param_ids();
        ids.extend(self.translate_net.param_ids());
        ids
    }

    /// Differentiable forward transform on a batch.
    ///
    /// Returns `(y, logdet)` where `y` is `[N, D]` and `logdet` is `[N, 1]`
    /// holding each sample's `ln|det J|`.
    pub fn forward_graph(&self, store: &ParamStore, g: &mut Graph, x: Var) -> (Var, Var) {
        let (xm, s, t, inv_mask) = self.scale_shift(store, g, x);
        let es = g.exp(s);
        let scaled = g.mul(x, es);
        let affine = g.add(scaled, t);
        let free = g.mul_row(affine, inv_mask);
        let y = g.add(free, xm);

        let s_free = g.mul_row(s, inv_mask);
        let logdet = g.sum_cols(s_free);
        (y, logdet)
    }

    /// Differentiable inverse transform on a batch.
    ///
    /// Returns `(x, logdet_inv)` where `x` is `[N, D]` and `logdet_inv` is
    /// `[N, 1]` holding each sample's `ln|det J⁻¹|`, the negation of the
    /// forward log-determinant at the corresponding point.
    pub fn inverse_graph(&self, store: &ParamStore, g: &mut Graph, y: Var) -> (Var, Var) {
        let (ym, s, t, inv_mask) = self.scale_shift(store, g, y);
        let neg_s = g.neg(s);
        let shifted = g.sub(y, t);
        let e = g.exp(neg_s);
        let unscaled = g.mul(shifted, e);
        let free = g.mul_row(unscaled, inv_mask);
        let x = g.add(free, ym);

        let s_free = g.mul_row(neg_s, inv_mask);
        let logdet_inv = g.sum_cols(s_free);
        (x, logdet_inv)
    }

    /// The pass-through part `m ⊙ v` of the batch `v`, the clamped
    /// log-scales `s(m ⊙ v)`, the shifts `t(m ⊙ v)` and the `1 − m` row.
    fn scale_shift(&self, store: &ParamStore, g: &mut Graph, v: Var) -> (Var, Var, Var, Var) {
        let d = self.dim();
        assert_eq!(
            g.value(v).cols(),
            d,
            "input has {} columns but the layer has dim {d}",
            g.value(v).cols()
        );
        let mask = g.constant_from_slice(1, d, self.mask.as_slice());
        let inv_mask = g.constant_from_slice(1, d, self.inv_mask.as_slice());

        let vm = g.mul_row(v, mask);
        let s_raw = self.scale_net.forward(store, g, vm);
        let s = g.tanh_scale(s_raw, self.s_max);
        let t = self.translate_net.forward(store, g, vm);
        (vm, s, t, inv_mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nofis_autograd::check::{max_rel_error, numeric_param_grads};
    use nofis_autograd::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn randomized_layer(seed: u64) -> (ParamStore, AffineCoupling) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let layer = AffineCoupling::new(&mut store, Mask::alternating(4, true), 8, 2.0, &mut rng);
        // Perturb every parameter so the layer is non-trivial.
        let ids: Vec<_> = store.iter().map(|(id, _)| id).collect();
        let mut prng = StdRng::seed_from_u64(seed + 1);
        for id in ids {
            for v in store.get_mut(id).as_mut_slice() {
                *v += prng.gen_range(-0.4..0.4);
            }
        }
        (store, layer)
    }

    /// One direction of `layer` on the rows of the flat batch `x`:
    /// `(outputs, per-row log-determinants)`.
    fn run(
        layer: &AffineCoupling,
        store: &ParamStore,
        x: &[f64],
        inverse: bool,
    ) -> (Vec<f64>, Vec<f64>) {
        let mut g = Graph::new();
        let d = layer.dim();
        let v = g.constant_from_slice(x.len() / d, d, x);
        let (y, ld) = if inverse {
            layer.inverse_graph(store, &mut g, v)
        } else {
            layer.forward_graph(store, &mut g, v)
        };
        (
            g.value(y).as_slice().to_vec(),
            g.value(ld).as_slice().to_vec(),
        )
    }

    #[test]
    fn identity_at_initialization() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let layer = AffineCoupling::new(&mut store, Mask::alternating(3, false), 8, 2.0, &mut rng);
        let x = [0.5, -1.0, 2.0];
        for inverse in [false, true] {
            let (y, ld) = run(&layer, &store, &x, inverse);
            assert_eq!(y, x.to_vec());
            assert_eq!(ld, vec![0.0]);
        }
    }

    #[test]
    fn inverse_round_trip() {
        let (store, layer) = randomized_layer(3);
        let x = [0.7, -0.3, 1.2, 0.1];
        let (y, ld_fwd) = run(&layer, &store, &x, false);
        let (x_back, ld_inv) = run(&layer, &store, &y, true);
        for (a, b) in x.iter().zip(&x_back) {
            assert!((a - b).abs() < 1e-12, "round trip failed: {x_back:?}");
        }
        assert!((ld_fwd[0] + ld_inv[0]).abs() < 1e-12);
    }

    #[test]
    fn masked_coordinates_pass_through() {
        let (store, layer) = randomized_layer(9);
        let x = [1.0, 2.0, 3.0, 4.0];
        for inverse in [false, true] {
            let (y, _) = run(&layer, &store, &x, inverse);
            // mask = [1,0,1,0]: coordinates 0 and 2 unchanged
            assert_eq!(y[0], 1.0);
            assert_eq!(y[2], 3.0);
            assert_ne!(y[1], 2.0);
        }
    }

    #[test]
    fn batch_rows_match_single_rows_bitwise() {
        let (store, layer) = randomized_layer(11);
        let rows = [[0.3, -0.9, 0.1, 0.8], [1.5, 0.2, -0.4, -1.1]];
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        for inverse in [false, true] {
            let (y, ld) = run(&layer, &store, &flat, inverse);
            for (r, row) in rows.iter().enumerate() {
                let (py, pld) = run(&layer, &store, row, inverse);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&y[4 * r..4 * r + 4]), bits(&py));
                assert_eq!(ld[r].to_bits(), pld[0].to_bits());
            }
        }
    }

    #[test]
    fn logdet_matches_numeric_jacobian() {
        let (store, layer) = randomized_layer(17);
        let x = [0.4, -0.6, 1.3, 0.9];
        for inverse in [false, true] {
            let (_, ld) = run(&layer, &store, &x, inverse);
            // Numeric Jacobian determinant via finite differences.
            let d = 4;
            let eps = 1e-6;
            let mut jac = vec![vec![0.0; d]; d];
            for j in 0..d {
                let mut xp = x.to_vec();
                xp[j] += eps;
                let (yp, _) = run(&layer, &store, &xp, inverse);
                xp[j] -= 2.0 * eps;
                let (ym, _) = run(&layer, &store, &xp, inverse);
                for i in 0..d {
                    jac[i][j] = (yp[i] - ym[i]) / (2.0 * eps);
                }
            }
            // Coupling Jacobian is triangular with unit diagonal on the
            // mask: determinant = product of diagonal entries.
            let det: f64 = (0..d).map(|i| jac[i][i]).product();
            assert!(
                (det.ln() - ld[0]).abs() < 1e-6,
                "logdet {} vs numeric {}",
                ld[0],
                det.ln()
            );
        }
    }

    #[test]
    fn parameter_gradients_match_finite_differences() {
        let (mut store, layer) = randomized_layer(23);
        let x_data = Tensor::from_vec(
            3,
            4,
            vec![
                0.2, -0.5, 0.8, 0.3, -1.1, 0.6, 0.4, -0.2, 0.9, 0.1, -0.7, 1.2,
            ],
        );

        for inverse in [false, true] {
            // loss = mean( sum_cols(y^2) ) + mean(logdet)
            let loss = |s: &ParamStore, g: &mut Graph| {
                let x = g.constant(x_data.clone());
                let (y, ld) = if inverse {
                    layer.inverse_graph(s, g, x)
                } else {
                    layer.forward_graph(s, g, x)
                };
                let y2 = g.square(y);
                let y2s = g.sum_cols(y2);
                let a = g.mean_all(y2s);
                let b = g.mean_all(ld);
                g.add(a, b)
            };
            let analytic = {
                let mut g = Graph::new();
                let l = loss(&store, &mut g);
                g.backward(l);
                g.param_grads()
            };
            let loss_of = |s: &ParamStore| {
                let mut g = Graph::new();
                let l = loss(s, &mut g);
                g.value(l).item()
            };
            let numeric = numeric_param_grads(&mut store, loss_of, 1e-6);
            for (id, grad) in &analytic {
                let err = max_rel_error(grad.as_slice(), numeric[id.index()].as_slice());
                assert!(err < 1e-5, "param {} gradient mismatch: {err}", id.index());
            }
        }
    }
}
