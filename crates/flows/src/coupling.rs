use crate::Mask;
use nofis_autograd::{Graph, ParamId, ParamStore, Tensor, Var};
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
/// The raw scale-net output passes through `s_max · tanh(·)` so the
/// log-scales stay in `[-s_max, s_max]`; without this clamp the early NOFIS
/// stages diverge at large temperatures. Both nets are zero-initialized at
/// the output so a fresh layer is exactly the identity map.
///
/// # Example
///
/// ```
/// use nofis_autograd::ParamStore;
/// use nofis_flows::{AffineCoupling, Mask};
/// use rand::SeedableRng;
///
/// let mut store = ParamStore::new();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let layer = AffineCoupling::new(&mut store, Mask::alternating(2, true), 16, 2.0, &mut rng);
/// let (y, logdet) = layer.transform(&store, &[0.3, -0.7]);
/// assert_eq!(y, vec![0.3, -0.7]); // identity at initialization
/// assert_eq!(logdet, 0.0);
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
        let d = self.dim();
        assert_eq!(
            g.value(x).cols(),
            d,
            "input has {} columns but the layer has dim {d}",
            g.value(x).cols()
        );
        let mask = g.constant_from_slice(1, d, self.mask.as_slice());
        let inv_mask = g.constant_from_slice(1, d, self.inv_mask.as_slice());

        let xm = g.mul_row(x, mask);
        let s_raw = self.scale_net.forward(store, g, xm);
        let s = g.tanh_scale(s_raw, self.s_max);
        let t = self.translate_net.forward(store, g, xm);

        let es = g.exp(s);
        let scaled = g.mul(x, es);
        let affine = g.add(scaled, t);
        let free = g.mul_row(affine, inv_mask);
        let y = g.add(free, xm);

        let s_free = g.mul_row(s, inv_mask);
        let logdet = g.sum_cols(s_free);
        (y, logdet)
    }

    fn conditioner(&self, store: &ParamStore, masked: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let xm = Tensor::from_row(masked);
        let s_raw = self.scale_net.predict(store, &xm);
        let t = self.translate_net.predict(store, &xm);
        let s: Vec<f64> = s_raw
            .as_slice()
            .iter()
            .map(|&v| self.s_max * nofis_parallel::math::tanh(v))
            .collect();
        (s, t.as_slice().to_vec())
    }

    /// Plain (gradient-free) forward transform of one point.
    ///
    /// Returns `(y, ln|det J|)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn transform(&self, store: &ParamStore, x: &[f64]) -> (Vec<f64>, f64) {
        assert_eq!(x.len(), self.dim(), "dimension mismatch in transform");
        let m = self.mask.as_slice();
        let masked: Vec<f64> = x.iter().zip(m).map(|(&v, &b)| v * b).collect();
        let (s, t) = self.conditioner(store, &masked);
        let mut y = vec![0.0; x.len()];
        let mut logdet = 0.0;
        for i in 0..x.len() {
            if m[i] == 1.0 {
                y[i] = x[i];
            } else {
                y[i] = x[i] * s[i].exp() + t[i];
                logdet += s[i];
            }
        }
        (y, logdet)
    }

    /// Inverse transform of one point.
    ///
    /// Returns `(x, ln|det J_inverse|)`; the returned log-determinant is
    /// that of the *inverse* map, i.e. the negation of the forward one at
    /// the corresponding point.
    ///
    /// # Panics
    ///
    /// Panics if `y.len() != self.dim()`.
    pub fn inverse(&self, store: &ParamStore, y: &[f64]) -> (Vec<f64>, f64) {
        assert_eq!(y.len(), self.dim(), "dimension mismatch in inverse");
        let m = self.mask.as_slice();
        // The conditioning coordinates pass through unchanged, so the masked
        // input equals the masked output.
        let masked: Vec<f64> = y.iter().zip(m).map(|(&v, &b)| v * b).collect();
        let (s, t) = self.conditioner(store, &masked);
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

#[cfg(test)]
mod tests {
    use super::*;
    use nofis_autograd::check::{max_rel_error, numeric_param_grads};
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

    #[test]
    fn identity_at_initialization() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let layer = AffineCoupling::new(&mut store, Mask::alternating(3, false), 8, 2.0, &mut rng);
        let x = [0.5, -1.0, 2.0];
        let (y, ld) = layer.transform(&store, &x);
        assert_eq!(y, x.to_vec());
        assert_eq!(ld, 0.0);
    }

    #[test]
    fn inverse_round_trip() {
        let (store, layer) = randomized_layer(3);
        let x = [0.7, -0.3, 1.2, 0.1];
        let (y, ld_fwd) = layer.transform(&store, &x);
        let (x_back, ld_inv) = layer.inverse(&store, &y);
        for (a, b) in x.iter().zip(&x_back) {
            assert!((a - b).abs() < 1e-12, "round trip failed: {x_back:?}");
        }
        assert!((ld_fwd + ld_inv).abs() < 1e-12);
    }

    #[test]
    fn masked_coordinates_pass_through() {
        let (store, layer) = randomized_layer(9);
        let x = [1.0, 2.0, 3.0, 4.0];
        let (y, _) = layer.transform(&store, &x);
        // mask = [1,0,1,0]: coordinates 0 and 2 unchanged
        assert_eq!(y[0], 1.0);
        assert_eq!(y[2], 3.0);
        assert_ne!(y[1], 2.0);
    }

    #[test]
    fn graph_forward_matches_plain() {
        let (store, layer) = randomized_layer(11);
        let rows = [[0.3, -0.9, 0.1, 0.8], [1.5, 0.2, -0.4, -1.1]];
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(2, 4, flat));
        let (y, ld) = layer.forward_graph(&store, &mut g, x);
        for (r, row) in rows.iter().enumerate() {
            let (py, pld) = layer.transform(&store, row);
            for (c, pyc) in py.iter().enumerate() {
                assert!((g.value(y)[(r, c)] - pyc).abs() < 1e-12);
            }
            assert!((g.value(ld)[(r, 0)] - pld).abs() < 1e-12);
        }
    }

    #[test]
    fn logdet_matches_numeric_jacobian() {
        let (store, layer) = randomized_layer(17);
        let x = [0.4, -0.6, 1.3, 0.9];
        let (_, ld) = layer.transform(&store, &x);
        // Numeric Jacobian determinant via finite differences.
        let d = 4;
        let eps = 1e-6;
        let mut jac = vec![vec![0.0; d]; d];
        for j in 0..d {
            let mut xp = x.to_vec();
            xp[j] += eps;
            let (yp, _) = layer.transform(&store, &xp);
            xp[j] -= 2.0 * eps;
            let (ym, _) = layer.transform(&store, &xp);
            for i in 0..d {
                jac[i][j] = (yp[i] - ym[i]) / (2.0 * eps);
            }
        }
        // Coupling Jacobian is triangular with unit diagonal on the mask:
        // determinant = product of diagonal entries.
        let det: f64 = (0..d).map(|i| jac[i][i]).product();
        assert!(
            (det.ln() - ld).abs() < 1e-6,
            "logdet {ld} vs numeric {}",
            det.ln()
        );
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

        // loss = mean( sum_cols(y^2) ) + mean(logdet)
        let loss_of = |s: &ParamStore| {
            let mut g = Graph::new();
            let x = g.constant(x_data.clone());
            let (y, ld) = layer.forward_graph(s, &mut g, x);
            let y2 = g.square(y);
            let y2s = g.sum_cols(y2);
            let a = g.mean_all(y2s);
            let b = g.mean_all(ld);
            let loss = g.add(a, b);
            g.value(loss).item()
        };

        let analytic = {
            let mut g = Graph::new();
            let x = g.constant(x_data.clone());
            let (y, ld) = layer.forward_graph(&store, &mut g, x);
            let y2 = g.square(y);
            let y2s = g.sum_cols(y2);
            let a = g.mean_all(y2s);
            let b = g.mean_all(ld);
            let loss = g.add(a, b);
            g.backward(loss);
            g.param_grads()
        };

        let numeric = numeric_param_grads(&mut store, loss_of, 1e-6);
        for (id, grad) in &analytic {
            let err = max_rel_error(grad.as_slice(), numeric[id.index()].as_slice());
            assert!(err < 1e-5, "param {} gradient mismatch: {err}", id.index());
        }
    }
}
