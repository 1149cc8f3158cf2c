use crate::{Init, Linear};
use nofis_autograd::{Graph, ParamId, ParamStore, Var};
use rand::Rng;

/// Hidden-layer activation function of an [`Mlp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Hyperbolic tangent (default; used by the coupling nets).
    #[default]
    Tanh,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Softplus.
    Softplus,
}

impl Activation {
    /// Applies the activation on the graph.
    pub fn apply(self, g: &mut Graph, x: Var) -> Var {
        match self {
            Activation::Tanh => g.tanh(x),
            Activation::Relu => g.relu(x),
            Activation::Sigmoid => g.sigmoid(x),
            Activation::Softplus => g.softplus(x),
        }
    }
}

/// A multilayer perceptron with identical hidden activations and a linear
/// output layer.
///
/// The final linear layer can optionally be zero-initialized
/// ([`Mlp::new_zero_output`]), which RealNVP coupling nets use so the flow
/// starts as the identity transformation.
///
/// # Example
///
/// ```
/// use nofis_autograd::{Graph, ParamStore, Tensor};
/// use nofis_nn::{Activation, Mlp};
/// use rand::SeedableRng;
///
/// let mut store = ParamStore::new();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = Mlp::new(&mut store, &[4, 16, 1], Activation::Tanh, &mut rng);
/// let mut g = Graph::new();
/// let x = g.constant(Tensor::zeros(8, 4));
/// let y = net.forward(&store, &mut g, x);
/// assert_eq!(g.value(y).shape(), (8, 1));
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Builds an MLP with layer sizes `dims` (at least input and output).
    ///
    /// Hidden layers use Xavier initialization for `Tanh`/`Sigmoid` and He
    /// for `Relu`/`Softplus`.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() < 2` or any dimension is zero.
    pub fn new(
        store: &mut ParamStore,
        dims: &[usize],
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        Self::build(store, dims, activation, rng, false)
    }

    /// Like [`Mlp::new`] but zero-initializes the final linear layer so the
    /// network initially outputs zeros.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() < 2` or any dimension is zero.
    pub fn new_zero_output(
        store: &mut ParamStore,
        dims: &[usize],
        activation: Activation,
        rng: &mut impl Rng,
    ) -> Self {
        Self::build(store, dims, activation, rng, true)
    }

    fn build(
        store: &mut ParamStore,
        dims: &[usize],
        activation: Activation,
        rng: &mut impl Rng,
        zero_output: bool,
    ) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output dims"
        );
        assert!(dims.iter().all(|&d| d > 0), "all MLP dims must be positive");
        let hidden_init = match activation {
            Activation::Tanh | Activation::Sigmoid => Init::Xavier,
            Activation::Relu | Activation::Softplus => Init::He,
        };
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let last = i == dims.len() - 2;
            let init = if last && zero_output {
                Init::Zero
            } else {
                hidden_init
            };
            layers.push(Linear::new(store, dims[i], dims[i + 1], init, rng));
        }
        Mlp { layers, activation }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output feature count.
    pub fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim()
    }

    /// Applies the network to a batch `[N, in_dim]`.
    ///
    /// With `Tanh` hidden activations, each hidden layer runs as one fused
    /// `matmul+bias+tanh` tape op; other activations compose the linear layer with their own op.
    pub fn forward(&self, store: &ParamStore, g: &mut Graph, x: Var) -> Var {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            let hidden = i + 1 < self.layers.len();
            if hidden && self.activation == Activation::Tanh {
                h = layer.forward_tanh(store, g, h);
            } else {
                h = layer.forward(store, g, h);
                if hidden {
                    h = self.activation.apply(g, h);
                }
            }
        }
        h
    }

    /// All parameter ids of the network, layer by layer.
    pub fn param_ids(&self) -> Vec<ParamId> {
        self.layers
            .iter()
            .flat_map(|l| l.param_ids().into_iter())
            .collect()
    }

    /// Evaluates the network on raw rows without building gradient state.
    ///
    /// Convenience for inference-heavy callers (e.g. the SIR baseline
    /// evaluating millions of surrogate samples).
    pub fn predict(
        &self,
        store: &ParamStore,
        x: &nofis_autograd::Tensor,
    ) -> nofis_autograd::Tensor {
        let mut g = Graph::new();
        let xv = g.constant(x.clone());
        let y = self.forward(store, &mut g, xv);
        g.value(y).clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nofis_autograd::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_output_mlp_outputs_zero() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let net = Mlp::new_zero_output(&mut store, &[3, 8, 2], Activation::Tanh, &mut rng);
        let x = Tensor::from_fn(4, 3, |r, c| (r + c) as f64);
        let y = net.predict(&store, &x);
        assert_eq!(y.shape(), (4, 2));
        assert_eq!(y.max_abs(), 0.0);
    }

    #[test]
    fn param_count_matches_architecture() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let net = Mlp::new(&mut store, &[2, 5, 3], Activation::Relu, &mut rng);
        // (2*5 + 5) + (5*3 + 3) scalars over 4 tensors
        assert_eq!(net.param_ids().len(), 4);
        assert_eq!(store.scalar_count(), 2 * 5 + 5 + 5 * 3 + 3);
        assert_eq!(net.in_dim(), 2);
        assert_eq!(net.out_dim(), 3);
    }

    #[test]
    fn all_activations_run() {
        for act in [
            Activation::Tanh,
            Activation::Relu,
            Activation::Sigmoid,
            Activation::Softplus,
        ] {
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(7);
            let net = Mlp::new(&mut store, &[2, 4, 1], act, &mut rng);
            let y = net.predict(&store, &Tensor::filled(3, 2, 0.5));
            assert!(y.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_single_dim() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Mlp::new(&mut store, &[3], Activation::Tanh, &mut rng);
    }
}
