use crate::Init;
use nofis_autograd::{Graph, ParamId, ParamStore, Tensor, Var};
use rand::Rng;

/// A fully connected layer computing `y = x @ W + b` for batched inputs.
///
/// # Example
///
/// ```
/// use nofis_autograd::{Graph, ParamStore, Tensor};
/// use nofis_nn::{Init, Linear};
/// use rand::SeedableRng;
///
/// let mut store = ParamStore::new();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let layer = Linear::new(&mut store, 3, 2, Init::Xavier, &mut rng);
/// let mut g = Graph::new();
/// let x = g.constant(Tensor::zeros(5, 3));
/// let y = layer.forward(&store, &mut g, x);
/// assert_eq!(g.value(y).shape(), (5, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    w: ParamId,
    b: ParamId,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Creates a layer with weights drawn from `init` and zero biases,
    /// registering both tensors in `store`.
    pub fn new(
        store: &mut ParamStore,
        in_dim: usize,
        out_dim: usize,
        init: Init,
        rng: &mut impl Rng,
    ) -> Self {
        let w = store.add(init.sample(in_dim, out_dim, rng));
        let b = store.add(Tensor::zeros(1, out_dim));
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output feature count.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Applies the layer to a batch `[N, in_dim]`, producing `[N, out_dim]`.
    ///
    /// Records a single fused `matmul+bias` tape op.
    pub fn forward(&self, store: &ParamStore, g: &mut Graph, x: Var) -> Var {
        self.forward_impl(store, g, x, false)
    }

    /// Applies the layer followed by `tanh`, fused into a single tape op.
    /// Bitwise identical to `g.tanh(self.forward(...))`.
    pub fn forward_tanh(&self, store: &ParamStore, g: &mut Graph, x: Var) -> Var {
        self.forward_impl(store, g, x, true)
    }

    fn forward_impl(&self, store: &ParamStore, g: &mut Graph, x: Var, apply_tanh: bool) -> Var {
        let w = store.inject(g, self.w);
        let b = store.inject(g, self.b);
        g.linear(x, w, b, apply_tanh)
    }

    /// The parameter ids `[weights, bias]` of this layer.
    pub fn param_ids(&self) -> [ParamId; 2] {
        [self.w, self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Linear::new(&mut store, 2, 3, Init::Zero, &mut rng);
        store.get_mut(layer.param_ids()[1]).as_mut_slice()[1] = 7.0;

        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let y = layer.forward(&store, &mut g, x);
        assert_eq!(g.value(y).shape(), (2, 3));
        // zero weights -> output equals bias broadcast
        assert_eq!(g.value(y)[(0, 1)], 7.0);
        assert_eq!(g.value(y)[(1, 1)], 7.0);
        assert_eq!(g.value(y)[(1, 0)], 0.0);
    }

    #[test]
    fn gradients_reach_both_params() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new(&mut store, 2, 1, Init::Xavier, &mut rng);

        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(3, 2, vec![1.0; 6]));
        let y = layer.forward(&store, &mut g, x);
        let loss = g.sum_all(y);
        g.backward(loss);
        let grads = g.param_grads();
        assert_eq!(grads.len(), 2);
        let bias_grad = grads
            .iter()
            .find(|(id, _)| *id == layer.param_ids()[1])
            .unwrap();
        assert_eq!(bias_grad.1.as_slice(), &[3.0]);
    }
}
