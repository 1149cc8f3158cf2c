use crate::{AffineCoupling, Mask};
use nofis_autograd::{Graph, ParamId, ParamStore, Var};
use nofis_prob::StandardGaussian;
use rand::Rng;
use std::ops::Range;

/// Rows per tape pass in [`RealNvp::sample`] / [`RealNvp::log_density`],
/// bounding the tape's memory; rows never interact, so bits don't depend on it.
const ROW_CHUNK: usize = 256;

/// A RealNVP normalizing flow: a stack of [`AffineCoupling`] layers with
/// alternating masks over a standard Gaussian base distribution.
///
/// The flow supports evaluating **prefixes**: NOFIS anchors its `m`-th
/// stage at layer `m·K`, so every API takes a `depth` (number of leading
/// layers to apply). `depth == self.n_layers()` is the full flow.
///
/// # Example
///
/// ```
/// use nofis_autograd::ParamStore;
/// use nofis_flows::RealNvp;
/// use rand::SeedableRng;
///
/// let mut store = ParamStore::new();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let flow = RealNvp::new(&mut store, 2, 8, 16, 2.0, &mut rng);
/// // Freshly initialized flows are the identity: q == base distribution.
/// let (xs, log_q) = flow.sample(&store, flow.n_layers(), 3, &mut rng);
/// let direct = flow.log_density(&store, &xs, flow.n_layers());
/// assert_eq!(xs.len(), 3 * 2);
/// assert!(log_q.iter().zip(&direct).all(|(a, b)| (a - b).abs() < 1e-10));
/// ```
#[derive(Debug, Clone)]
pub struct RealNvp {
    layers: Vec<AffineCoupling>,
    dim: usize,
}

impl RealNvp {
    /// Builds a flow of `n_layers` coupling layers over `R^dim`, each with a
    /// one-hidden-layer conditioner of width `hidden` and log-scale clamp
    /// `s_max`.
    ///
    /// Masks alternate (checkerboard, flipped every layer) so every
    /// coordinate is transformed by every second layer.
    ///
    /// # Panics
    ///
    /// Panics if `dim < 2` or `n_layers == 0`.
    pub fn new(
        store: &mut ParamStore,
        dim: usize,
        n_layers: usize,
        hidden: usize,
        s_max: f64,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(dim >= 2, "RealNVP requires dim >= 2 (got {dim})");
        assert!(n_layers > 0, "RealNVP requires at least one layer");
        let layers = (0..n_layers)
            .map(|i| {
                AffineCoupling::new(
                    store,
                    Mask::alternating(dim, i % 2 == 0),
                    hidden,
                    s_max,
                    rng,
                )
            })
            .collect();
        RealNvp { layers, dim }
    }

    /// Dimensionality of the flow.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of coupling layers.
    pub fn n_layers(&self) -> usize {
        self.layers.len()
    }

    /// Borrows layer `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n_layers()`.
    pub fn layer(&self, i: usize) -> &AffineCoupling {
        &self.layers[i]
    }

    /// Parameter ids of every layer, in layer order (the canonical
    /// parameter layout used by snapshots and checkpoints).
    pub fn param_ids(&self) -> Vec<ParamId> {
        self.param_ids_for_layers(0..self.layers.len())
    }

    /// Parameter ids of the layers in `range` (e.g. one NOFIS stage block).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the layer count.
    pub fn param_ids_for_layers(&self, range: Range<usize>) -> Vec<ParamId> {
        assert!(range.end <= self.layers.len(), "layer range out of bounds");
        self.layers[range]
            .iter()
            .flat_map(|l| l.param_ids().into_iter())
            .collect()
    }

    /// Differentiable forward pass through the first `depth` layers.
    ///
    /// Returns `(z_depth, logdet)` with `logdet` of shape `[N, 1]` holding
    /// the accumulated `Σ ln|det J|` per sample.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or exceeds the layer count.
    pub fn forward_graph(
        &self,
        store: &ParamStore,
        g: &mut Graph,
        x: Var,
        depth: usize,
    ) -> (Var, Var) {
        let mut layers = self.prefix(depth).iter();
        let first = layers.next().expect("a prefix has at least one layer");
        let (mut z, mut logdet) = first.forward_graph(store, g, x);
        for layer in layers {
            let (z2, ld) = layer.forward_graph(store, g, z);
            z = z2;
            logdet = g.add(logdet, ld);
        }
        (z, logdet)
    }

    /// Differentiable inverse pass back through the first `depth` layers
    /// (applied last-to-first).
    ///
    /// Returns `(z_0, logdet_inv)` with `logdet_inv` of shape `[N, 1]`
    /// holding the accumulated `Σ ln|det J⁻¹|` per sample, so
    /// `ln q(y) = ln p(z_0) + logdet_inv`.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or exceeds the layer count.
    pub fn inverse_graph(
        &self,
        store: &ParamStore,
        g: &mut Graph,
        y: Var,
        depth: usize,
    ) -> (Var, Var) {
        let mut layers = self.prefix(depth).iter().rev();
        let last = layers.next().expect("a prefix has at least one layer");
        let (mut z, mut logdet) = last.inverse_graph(store, g, y);
        for layer in layers {
            let (z2, ld) = layer.inverse_graph(store, g, z);
            z = z2;
            logdet = g.add(logdet, ld);
        }
        (z, logdet)
    }

    /// Draws `n` samples from the depth-`depth` flow distribution `q`.
    ///
    /// Returns the samples as one flat row-major `n × dim` buffer plus
    /// `ln q` of each; the log-density comes for free from the
    /// change-of-variables identity `ln q(x) = ln p(z₀) − Σ ln|det J|`.
    /// The base draws consume `rng` row by row, as `n` one-row calls would.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or exceeds the layer count.
    pub fn sample(
        &self,
        store: &ParamStore,
        depth: usize,
        n: usize,
        rng: &mut impl Rng,
    ) -> (Vec<f64>, Vec<f64>) {
        let base = StandardGaussian::new(self.dim);
        let z0 = base.sample_flat(n, rng);
        let (xs, logdet) = self.chunked(&z0, |g, z| self.forward_graph(store, g, z, depth));
        let log_q = z0
            .chunks_exact(self.dim)
            .zip(logdet)
            .map(|(z, ld)| base.log_density(z) - ld)
            .collect();
        (xs, log_q)
    }

    /// Exact log-density `ln q(x)` of the depth-`depth` flow distribution
    /// at every row of the flat row-major buffer `xs`, evaluated by
    /// inverting the flow.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero, exceeds the layer count, or `xs.len()` is
    /// not a multiple of `self.dim()`.
    pub fn log_density(&self, store: &ParamStore, xs: &[f64], depth: usize) -> Vec<f64> {
        let base = StandardGaussian::new(self.dim);
        let (z0, logdet_inv) = self.chunked(xs, |g, y| self.inverse_graph(store, g, y, depth));
        z0.chunks_exact(self.dim)
            .zip(logdet_inv)
            .map(|(z, ld)| base.log_density(z) + ld)
            .collect()
    }

    /// The first `depth` layers.
    fn prefix(&self, depth: usize) -> &[AffineCoupling] {
        assert!(
            (1..=self.layers.len()).contains(&depth),
            "invalid depth {depth}"
        );
        &self.layers[..depth]
    }

    /// Runs `pass` over the rows of the flat buffer `xs` in [`ROW_CHUNK`]
    /// chunks on one recycled tape, returning the flat outputs and the
    /// per-row log-determinants.
    fn chunked(
        &self,
        xs: &[f64],
        pass: impl Fn(&mut Graph, Var) -> (Var, Var),
    ) -> (Vec<f64>, Vec<f64>) {
        let d = self.dim;
        let n = xs.len();
        assert!(n.is_multiple_of(d), "{n} values do not form {d}-wide rows");
        let mut g = Graph::new();
        let mut out = Vec::with_capacity(n);
        let mut logdet = Vec::with_capacity(n / d);
        for rows in xs.chunks(ROW_CHUNK * d) {
            g.reset();
            let x = g.constant_from_slice(rows.len() / d, d, rows);
            let (y, ld) = pass(&mut g, x);
            out.extend_from_slice(g.value(y).as_slice());
            logdet.extend_from_slice(g.value(ld).as_slice());
        }
        (out, logdet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn randomized_flow(dim: usize, layers: usize, seed: u64) -> (ParamStore, RealNvp) {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let flow = RealNvp::new(&mut store, dim, layers, 8, 2.0, &mut rng);
        let ids: Vec<_> = store.iter().map(|(id, _)| id).collect();
        let mut prng = StdRng::seed_from_u64(seed + 100);
        for id in ids {
            for v in store.get_mut(id).as_mut_slice() {
                *v += prng.gen_range(-0.3..0.3);
            }
        }
        (store, flow)
    }

    /// One direction of the depth-`depth` flow on the rows of `x`.
    fn run(
        flow: &RealNvp,
        store: &ParamStore,
        x: &[f64],
        depth: usize,
        inverse: bool,
    ) -> (Vec<f64>, Vec<f64>) {
        flow.chunked(x, |g, v| {
            if inverse {
                flow.inverse_graph(store, g, v, depth)
            } else {
                flow.forward_graph(store, g, v, depth)
            }
        })
    }

    #[test]
    fn multi_layer_round_trip() {
        let (store, flow) = randomized_flow(4, 6, 1);
        let x = [0.2, -1.4, 0.9, 0.5];
        let (y, ld) = run(&flow, &store, &x, 6, false);
        let (back, ld_inv) = run(&flow, &store, &y, 6, true);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-10);
        }
        assert!((ld[0] + ld_inv[0]).abs() < 1e-10);
    }

    #[test]
    fn prefix_depths_compose() {
        use nofis_autograd::Graph;
        let (store, flow) = randomized_flow(2, 4, 2);
        let x = [0.3, 0.7];
        let (direct, ld_direct) = run(&flow, &store, &x, 4, false);
        // Applying layers 2..4 to the depth-2 output gives depth 4.
        let mut g = Graph::new();
        let xv = g.constant_from_slice(1, 2, &x);
        let (z2, ld2) = flow.forward_graph(&store, &mut g, xv, 2);
        let (z3, ld3) = flow.layer(2).forward_graph(&store, &mut g, z2);
        let (z4, ld4) = flow.layer(3).forward_graph(&store, &mut g, z3);
        for (a, b) in g.value(z4).as_slice().iter().zip(&direct) {
            assert!((a - b).abs() < 1e-12);
        }
        let ld = g.value(ld2).item() + g.value(ld3).item() + g.value(ld4).item();
        assert!((ld - ld_direct[0]).abs() < 1e-12);
    }

    #[test]
    fn sample_log_density_consistency() {
        let (store, flow) = randomized_flow(3, 4, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let (xs, log_q) = flow.sample(&store, 4, 10, &mut rng);
        let direct = flow.log_density(&store, &xs, 4);
        for (a, b) in log_q.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn chunked_batches_match_single_rows_bitwise() {
        let (store, flow) = randomized_flow(3, 4, 4);
        let mut rng = StdRng::seed_from_u64(6);
        let n = ROW_CHUNK + 7; // spans a chunk boundary
        let (xs, log_q) = flow.sample(&store, 4, n, &mut rng);
        let batch = flow.log_density(&store, &xs, 4);
        let mut rng = StdRng::seed_from_u64(6);
        for (r, x) in xs.chunks_exact(3).enumerate() {
            let (one, one_q) = flow.sample(&store, 4, 1, &mut rng);
            assert_eq!(one, x.to_vec(), "row {r}");
            assert_eq!(one_q[0].to_bits(), log_q[r].to_bits(), "row {r}");
            let single = flow.log_density(&store, x, 4)[0];
            assert_eq!(single.to_bits(), batch[r].to_bits(), "row {r}");
        }
    }

    #[test]
    fn identity_flow_density_is_base() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let flow = RealNvp::new(&mut store, 2, 4, 8, 2.0, &mut rng);
        let x = [0.5, -0.25];
        let expected = StandardGaussian::new(2).log_density(&x);
        assert!((flow.log_density(&store, &x, 4)[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn param_ids_partition_by_layer() {
        let (_, flow) = randomized_flow(2, 6, 9);
        let all = flow.param_ids_for_layers(0..6);
        let first = flow.param_ids_for_layers(0..3);
        let second = flow.param_ids_for_layers(3..6);
        assert_eq!(all.len(), first.len() + second.len());
        assert!(first.iter().all(|id| !second.contains(id)));
    }

    #[test]
    #[should_panic(expected = "dim >= 2")]
    fn rejects_one_dimension() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = RealNvp::new(&mut store, 1, 2, 8, 2.0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "invalid depth")]
    fn rejects_zero_depth() {
        let (store, flow) = randomized_flow(2, 2, 0);
        let _ = flow.log_density(&store, &[0.0, 0.0], 0);
    }

    #[test]
    #[should_panic(expected = "do not form")]
    fn rejects_ragged_rows() {
        let (store, flow) = randomized_flow(2, 2, 0);
        let _ = flow.log_density(&store, &[0.0, 0.0, 1.0], 2);
    }
}
