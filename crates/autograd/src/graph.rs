use crate::ops::{self, Op, Tape};
use crate::pool::PoolStats;
use crate::{BufferPool, Tensor};

/// Identifier of a parameter tensor registered with a
/// [`ParamStore`](crate::ParamStore).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// The raw index of this parameter within its store.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Handle to a node in a [`Graph`].
///
/// `Var`s are cheap copies; all operations live on [`Graph`] and take
/// `Var` operands, e.g. `g.add(a, b)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

impl Var {
    /// Tape position of this node.
    pub(crate) fn index(self) -> usize {
        self.0
    }
}

/// A dynamically built computation tape supporting reverse-mode
/// differentiation.
///
/// Build a `Graph` once, inject parameters with [`Graph::param`] (or
/// [`ParamStore::inject`](crate::ParamStore::inject)), compose operations,
/// call [`Graph::backward`] on a scalar loss, and read parameter gradients
/// back with [`Graph::param_grads`]. Between training steps, call
/// [`Graph::reset`]: the tape clears but its node arena and every tensor
/// buffer are retained in an internal [`BufferPool`], so steady-state steps
/// perform no heap allocation (see [`Graph::pool_stats`]).
///
/// # Example
///
/// ```
/// use nofis_autograd::{Graph, Tensor};
///
/// let mut g = Graph::new();
/// let x = g.constant(Tensor::from_row(&[3.0]));
/// let y = g.square(x);          // y = x^2
/// let loss = g.sum_all(y);
/// g.backward(loss);
/// assert_eq!(g.grad(x).unwrap().as_slice(), &[6.0]); // dy/dx = 2x
///
/// g.reset();                    // recycle every buffer, keep capacity
/// assert!(g.is_empty());
/// ```
#[derive(Debug, Default)]
pub struct Graph {
    pub(crate) tape: Tape,
    /// Per node, `true` when some trainable [`Op::Param`] leaf is
    /// reachable from it, i.e. the backward pass has a reason to compute
    /// its gradient. Always `true` when pruning is disabled (the default).
    pub(crate) requires_grad: Vec<bool>,
    pool: BufferPool,
    /// When `true`, gradient work is pruned for nodes with no trainable
    /// ancestor (see [`Graph::set_pruning`]).
    prune: bool,
    /// Cumulative observability counters (see [`Graph::snapshot`]).
    backward_runs: u64,
    grad_nodes: u64,
    skipped_nodes: u64,
    pruned_nodes: u64,
}

/// Cumulative tape/pool statistics, read via [`Graph::snapshot`].
///
/// Everything here is observational: counters are bumped on paths the
/// tape already takes and never change what gets computed. They quantify
/// the effect of the two per-step optimizations — the buffer pool
/// (`pool.misses` is the allocations-per-step meter) and frozen-gradient
/// pruning (`skipped_nodes` counts backward visits that did no gradient
/// work because nothing reached the node).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphStats {
    /// Buffer-pool hit/miss counters (misses allocate, hits recycle).
    pub pool: PoolStats,
    /// [`Graph::backward`] invocations.
    pub backward_runs: u64,
    /// Nodes whose gradient was actually propagated across all backward
    /// runs (the per-run count is the live tape minus skipped nodes).
    pub grad_nodes: u64,
    /// Backward visits skipped because no gradient reached the node —
    /// pruned frozen-only subgraphs and branches the loss never touched.
    pub skipped_nodes: u64,
    /// Tape nodes built with gradients pruned (no trainable ancestor);
    /// only nonzero with [`Graph::set_pruning`] on.
    pub pruned_nodes: u64,
}

/// A zeroed `rows x cols` tensor on a pooled buffer.
fn pooled(pool: &mut BufferPool, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(rows, cols, pool.take(rows * cols))
}

impl Graph {
    /// Creates an empty graph with pruning off.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of nodes currently on the tape.
    pub fn len(&self) -> usize {
        self.tape.ops.len()
    }

    /// Returns `true` if the tape is empty.
    pub fn is_empty(&self) -> bool {
        self.tape.ops.is_empty()
    }

    /// Clears the tape while retaining the node arena and recycling every
    /// tensor buffer (values, gradients, external Jacobians) into the
    /// internal pool, so rebuilding an identically shaped tape allocates
    /// nothing.
    pub fn reset(&mut self) {
        let Tape {
            ops,
            values,
            grads,
            jacs,
        } = &mut self.tape;
        let buffers = values.drain(..).chain(grads.drain(..).flatten());
        for t in buffers.chain(jacs.drain(..)) {
            self.pool.put(t.into_vec());
        }
        ops.clear();
        self.requires_grad.clear();
    }

    /// Enables or disables needs-grad pruning for the tape built next.
    ///
    /// With pruning **on**, constants do not require gradients, parameter
    /// leaves require them only when injected as trainable, and
    /// [`Graph::backward`] skips every gradient kernel (and grad-buffer
    /// allocation) for nodes with no trainable ancestor. The gradients that
    /// *are* computed are bitwise identical to the unpruned ones — pruning
    /// removes work whose results would never be read, nothing else.
    ///
    /// With pruning **off** (the default), every node requires gradients,
    /// matching the historical semantics (`g.grad(constant)` works).
    ///
    /// # Panics
    ///
    /// Panics if the tape is non-empty: flags are assigned at node-build
    /// time, so toggling mid-tape would make them inconsistent.
    pub fn set_pruning(&mut self, on: bool) {
        assert!(
            self.is_empty(),
            "set_pruning requires an empty tape (call reset() first)"
        );
        self.prune = on;
    }

    /// Hit/miss counters of the internal buffer pool — the workspace's
    /// allocations-per-step meter (misses allocate, hits recycle).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Snapshot of the cumulative tape/pool counters. Deltas between
    /// snapshots give per-stage allocations and pruning effectiveness,
    /// which training writes onto each `train.stage` span.
    pub fn snapshot(&self) -> GraphStats {
        GraphStats {
            pool: self.pool.stats(),
            backward_runs: self.backward_runs,
            grad_nodes: self.grad_nodes,
            skipped_nodes: self.skipped_nodes,
            pruned_nodes: self.pruned_nodes,
        }
    }

    fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> Var {
        if !requires_grad {
            self.pruned_nodes += 1;
        }
        self.tape.ops.push(op);
        self.tape.values.push(value);
        self.tape.grads.push(None);
        self.requires_grad.push(requires_grad);
        Var(self.len() - 1)
    }

    /// Pushes an interior node: a pooled value buffer of the op's shape,
    /// filled by the shared forward kernel.
    fn push_op(&mut self, op: Op) -> Var {
        let (rows, cols) = self.tape.out_shape(op);
        let value = pooled(&mut self.pool, rows, cols);
        let rg = op
            .inputs()
            .into_iter()
            .flatten()
            .any(|v| self.requires_grad[v.0]);
        let v = self.push(value, op, rg);
        self.tape.forward(v.0);
        v
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.tape.values[v.0]
    }

    /// The gradient of the last [`Graph::backward`] loss with respect to
    /// `v`, if `v` participated (and was not pruned).
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.tape.grads[v.0].as_ref()
    }

    /// Adds a constant leaf (no gradient flows past it).
    pub fn constant(&mut self, t: Tensor) -> Var {
        let rg = !self.prune;
        self.push(t, Op::Leaf, rg)
    }

    /// Adds a constant leaf by copying `data` into a pooled buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn constant_from_slice(&mut self, rows: usize, cols: usize, data: &[f64]) -> Var {
        assert_eq!(data.len(), rows * cols, "constant_from_slice length");
        let mut buf = self.pool.take_uninit(rows * cols);
        buf.extend_from_slice(data);
        let rg = !self.prune;
        self.push(Tensor::from_vec(rows, cols, buf), Op::Leaf, rg)
    }

    /// Adds a constant leaf whose pooled buffer is filled in place by
    /// `fill` (handed a zeroed `rows * cols` slice) — e.g. a fresh batch of
    /// base samples written without an intermediate allocation.
    pub fn constant_with(
        &mut self,
        rows: usize,
        cols: usize,
        fill: impl FnOnce(&mut [f64]),
    ) -> Var {
        let mut t = pooled(&mut self.pool, rows, cols);
        fill(t.as_mut_slice());
        let rg = !self.prune;
        self.push(t, Op::Leaf, rg)
    }

    /// Adds a trainable parameter leaf whose gradient will be reported by
    /// [`Graph::param_grads`] under `id`.
    pub fn param(&mut self, id: ParamId, t: Tensor) -> Var {
        self.push(t, Op::Param(id), true)
    }

    /// Adds a parameter leaf by copying `data` into a pooled buffer.
    ///
    /// With pruning enabled and `trainable == false` (a frozen parameter),
    /// the leaf requires no gradient: backward skips its whole forward-only
    /// subgraph and [`Graph::param_grads`] omits it.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn param_from_slice(
        &mut self,
        id: ParamId,
        rows: usize,
        cols: usize,
        data: &[f64],
        trainable: bool,
    ) -> Var {
        assert_eq!(data.len(), rows * cols, "param_from_slice length");
        let mut buf = self.pool.take_uninit(rows * cols);
        buf.extend_from_slice(data);
        let rg = trainable || !self.prune;
        self.push(Tensor::from_vec(rows, cols, buf), Op::Param(id), rg)
    }

    /// Elementwise addition of two same-shape tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.push_op(Op::Add(a, b))
    }

    /// Broadcast addition `[N,D] + [1,D]` (e.g. adding a bias row).
    ///
    /// # Panics
    ///
    /// Panics if `b` is not `1 x D` with `D` matching `a`'s columns.
    pub fn add_row(&mut self, a: Var, b: Var) -> Var {
        self.push_op(Op::AddRow(a, b))
    }

    /// Elementwise subtraction `a - b`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.push_op(Op::Sub(a, b))
    }

    /// Elementwise multiplication of two same-shape tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.push_op(Op::Mul(a, b))
    }

    /// Broadcast multiplication `[N,D] * [1,D]` (e.g. applying a mask row).
    ///
    /// # Panics
    ///
    /// Panics if `b` is not `1 x D` with `D` matching `a`'s columns.
    pub fn mul_row(&mut self, a: Var, b: Var) -> Var {
        self.push_op(Op::MulRow(a, b))
    }

    /// Matrix product `a @ b`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.push_op(Op::Matmul(a, b))
    }

    /// Fused linear layer `x @ W + b`, optionally followed by `tanh`.
    ///
    /// One tape node replaces the `matmul` → `add_row` (→ `tanh`) chain; the
    /// value and gradients are bitwise identical to that composition (the
    /// arithmetic runs in the same order: full matmul, then the bias rows,
    /// then the activation).
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree or `b` is not `1 x D`.
    pub fn linear(&mut self, x: Var, w: Var, b: Var, apply_tanh: bool) -> Var {
        self.push_op(Op::Linear {
            x,
            w,
            b,
            tanh: apply_tanh,
        })
    }

    /// Multiplies every entry by the constant `s`.
    pub fn scale(&mut self, a: Var, s: f64) -> Var {
        self.push_op(Op::Scale(a, s))
    }

    /// Adds the constant `s` to every entry.
    pub fn add_scalar(&mut self, a: Var, s: f64) -> Var {
        self.push_op(Op::AddScalar(a, s))
    }

    /// Elementwise negation.
    pub fn neg(&mut self, a: Var) -> Var {
        self.push_op(Op::Neg(a))
    }

    /// Elementwise hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.push_op(Op::Tanh(a))
    }

    /// Fused `s · tanh(x)` (the coupling-layer log-scale clamp) in one tape
    /// node; value and gradient are bitwise identical to `scale(tanh(x), s)`.
    pub fn tanh_scale(&mut self, a: Var, s: f64) -> Var {
        self.push_op(Op::TanhScale(a, s))
    }

    /// Elementwise logistic sigmoid.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.push_op(Op::Sigmoid(a))
    }

    /// Elementwise numerically stable softplus `ln(1 + e^x)`.
    pub fn softplus(&mut self, a: Var) -> Var {
        self.push_op(Op::Softplus(a))
    }

    /// Elementwise rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.push_op(Op::Relu(a))
    }

    /// Elementwise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        self.push_op(Op::Exp(a))
    }

    /// Elementwise natural logarithm.
    pub fn ln(&mut self, a: Var) -> Var {
        self.push_op(Op::Ln(a))
    }

    /// Elementwise square.
    pub fn square(&mut self, a: Var) -> Var {
        self.push_op(Op::Square(a))
    }

    /// Elementwise `min(x, c)` against the constant `c`.
    ///
    /// The subgradient passes where `x < c` and is zero elsewhere, matching
    /// the convention used by the tempered NOFIS loss.
    pub fn min_scalar(&mut self, a: Var, c: f64) -> Var {
        self.push_op(Op::MinScalar(a, c))
    }

    /// Sum of all entries, producing a `1 x 1` tensor.
    pub fn sum_all(&mut self, a: Var) -> Var {
        self.push_op(Op::SumAll(a))
    }

    /// Mean of all entries, producing a `1 x 1` tensor.
    pub fn mean_all(&mut self, a: Var) -> Var {
        self.push_op(Op::MeanAll(a))
    }

    /// Per-row sum, mapping `[N,D] -> [N,1]`.
    pub fn sum_cols(&mut self, a: Var) -> Var {
        self.push_op(Op::SumCols(a))
    }

    /// Pushes an `External` node on `a` with zeroed value and Jacobian
    /// buffers for the caller to fill.
    fn push_external(&mut self, a: Var) -> Var {
        let (n, d) = self.value(a).shape();
        let value = pooled(&mut self.pool, n, 1);
        let jac = self.tape.jacs.len();
        self.tape.jacs.push(pooled(&mut self.pool, n, d));
        let rg = self.requires_grad[a.0];
        self.push(value, Op::External { input: a, jac }, rg)
    }

    /// Applies an externally differentiated row-wise function
    /// `f : R^D -> R` to each row of `a`.
    ///
    /// `f(row)` must return `(value, gradient)` where `gradient` has length
    /// `D`; the gradient is stored on the tape and used verbatim during
    /// [`Graph::backward`]. This is how black-box-but-differentiable
    /// simulators (circuit solvers, BPM, ODE models) enter the NOFIS loss.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns a gradient whose length differs from `D`.
    pub fn external_rowwise(
        &mut self,
        a: Var,
        mut f: impl FnMut(&[f64]) -> (f64, Vec<f64>),
    ) -> Var {
        let v = self.push_external(a);
        let Tape { values, jacs, .. } = &mut self.tape;
        let (prev, rest) = values.split_at_mut(v.0);
        let jac = jacs.last_mut().expect("the external Jacobian just pushed");
        for r in 0..prev[a.0].rows() {
            let (value, grad) = f(prev[a.0].row(r));
            ops::store_external_row(&mut rest[0], jac, r, value, &grad);
        }
        v
    }

    /// Parallel variant of [`Graph::external_rowwise`] for thread-safe
    /// row functions.
    ///
    /// Rows are evaluated in fixed-size chunks across `pool`; results land
    /// in row order, so the tape recorded here is bitwise identical to the
    /// one [`Graph::external_rowwise`] would record for the same `f`,
    /// regardless of the pool's thread count. This is the entry point the
    /// NOFIS training loop uses for limit-state oracle evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `f` returns a gradient whose length differs from `D`.
    pub fn external_rowwise_par(
        &mut self,
        a: Var,
        pool: &nofis_parallel::ThreadPool,
        f: impl Fn(&[f64]) -> (f64, Vec<f64>) + Sync,
    ) -> Var {
        let v = self.push_external(a);
        self.tape.forward_external(v.0, pool, &f);
        v
    }

    /// Runs reverse-mode differentiation from the scalar `loss` node.
    ///
    /// Gradients accumulate on every node reachable from `loss` that has a
    /// trainable ancestor (every reachable node when pruning is off); read
    /// them with [`Graph::grad`] or collect parameter gradients via
    /// [`Graph::param_grads`]. Gradient buffers come from the internal
    /// pool, and pruned branches allocate nothing.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a `1 x 1` tensor.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.value(loss).shape(),
            (1, 1),
            "backward requires a scalar (1x1) loss"
        );
        let Graph {
            tape,
            requires_grad,
            pool,
            ..
        } = self;
        for g in tape.grads.iter_mut().filter_map(Option::take) {
            pool.put(g.into_vec());
        }
        self.backward_runs += 1;
        if !requires_grad[loss.0] {
            // Nothing trainable feeds the loss; there are no gradients to
            // produce.
            return;
        }
        let mut seed = pooled(pool, 1, 1);
        seed.as_mut_slice()[0] = 1.0;
        tape.grads[loss.0] = Some(seed);

        for node in (0..=loss.0).rev() {
            if tape.grads[node].is_none() {
                self.skipped_nodes += 1;
                continue;
            }
            self.grad_nodes += 1;
            // An input's first write gets a fresh pooled slot; later
            // visits merge into it.
            let first = ops::first_writes(tape.ops[node], |j| {
                let fresh = requires_grad[j] && tape.grads[j].is_none();
                if fresh {
                    let (rows, cols) = tape.values[j].shape();
                    tape.grads[j] = Some(pooled(pool, rows, cols));
                }
                fresh
            });
            tape.backward(node, first, pool);
        }
    }

    /// Collects accumulated parameter gradients as `(id, grad)` pairs.
    ///
    /// If the same [`ParamId`] was injected more than once, its gradients
    /// are summed. Parameters that did not participate in the last backward
    /// pass — including frozen parameters pruned by
    /// [`Graph::set_pruning`] — are omitted.
    pub fn param_grads(&self) -> Vec<(ParamId, Tensor)> {
        self.tape.param_grads()
    }

    /// Visits every parameter-leaf gradient in tape order without
    /// materializing a gradient list — the allocation-free hand-off to
    /// fused optimizer steps. A [`ParamId`] injected at several tape
    /// positions is visited once per position with its partial gradient.
    pub fn for_each_param_grad(&self, f: impl FnMut(ParamId, &Tensor)) {
        self.tape.for_each_param_grad(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{sigmoid, softplus};

    #[test]
    fn add_and_mul_gradients() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_row(&[2.0, 3.0]));
        let b = g.constant(Tensor::from_row(&[4.0, 5.0]));
        let prod = g.mul(a, b);
        let s = g.sum_all(prod);
        g.backward(s);
        assert_eq!(g.grad(a).unwrap().as_slice(), &[4.0, 5.0]);
        assert_eq!(g.grad(b).unwrap().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn matmul_gradients_match_formula() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = g.constant(Tensor::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]));
        let c = g.matmul(a, b);
        let s = g.sum_all(c);
        g.backward(s);
        // dS/dA = 1 @ B^T
        assert_eq!(g.grad(a).unwrap().as_slice(), &[11.0, 15.0, 11.0, 15.0]);
        // dS/dB = A^T @ 1
        assert_eq!(g.grad(b).unwrap().as_slice(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn chained_nonlinearities() {
        // loss = sum(tanh(x)^2); d/dx = 2 tanh(x)(1 - tanh^2(x))
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_row(&[0.5]));
        let t = g.tanh(x);
        let sq = g.square(t);
        let loss = g.sum_all(sq);
        g.backward(loss);
        let th: f64 = 0.5_f64.tanh();
        let expected = 2.0 * th * (1.0 - th * th);
        assert!((g.grad(x).unwrap().as_slice()[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn broadcast_add_row_sums_bias_grad() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(3, 2, vec![1.0; 6]));
        let b = g.constant(Tensor::from_row(&[10.0, 20.0]));
        let y = g.add_row(x, b);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert_eq!(g.grad(b).unwrap().as_slice(), &[3.0, 3.0]);
        assert_eq!(g.value(y)[(2, 1)], 21.0);
    }

    #[test]
    fn mul_row_masks() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let m = g.constant(Tensor::from_row(&[1.0, 0.0]));
        let y = g.mul_row(x, m);
        assert_eq!(g.value(y).as_slice(), &[1.0, 0.0, 3.0, 0.0]);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().as_slice(), &[1.0, 0.0, 1.0, 0.0]);
        assert_eq!(g.grad(m).unwrap().as_slice(), &[4.0, 6.0]);
    }

    #[test]
    fn min_scalar_subgradient() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_row(&[-1.0, 1.0]));
        let y = g.min_scalar(x, 0.0);
        assert_eq!(g.value(y).as_slice(), &[-1.0, 0.0]);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().as_slice(), &[1.0, 0.0]);
    }

    #[test]
    fn sum_cols_shapes_and_grad() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let y = g.sum_cols(x);
        assert_eq!(g.value(y).shape(), (2, 1));
        assert_eq!(g.value(y).as_slice(), &[6.0, 15.0]);
        let loss = g.mean_all(y);
        g.backward(loss);
        assert!(g
            .grad(x)
            .unwrap()
            .as_slice()
            .iter()
            .all(|&v| (v - 0.5).abs() < 1e-15));
    }

    #[test]
    fn external_rowwise_uses_supplied_gradient() {
        // f(row) = 3*x0 - x1, grad = [3, -1]
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let y = g.external_rowwise(x, |row| (3.0 * row[0] - row[1], vec![3.0, -1.0]));
        assert_eq!(g.value(y).as_slice(), &[1.0, 5.0]);
        let loss = g.sum_all(y);
        g.backward(loss);
        assert_eq!(g.grad(x).unwrap().as_slice(), &[3.0, -1.0, 3.0, -1.0]);
    }

    #[test]
    fn param_grads_accumulate_across_reuse() {
        let mut g = Graph::new();
        let id = ParamId(0);
        let w1 = g.param(id, Tensor::from_row(&[2.0]));
        let w2 = g.param(id, Tensor::from_row(&[2.0]));
        let prod = g.mul(w1, w2);
        let loss = g.sum_all(prod);
        g.backward(loss);
        let grads = g.param_grads();
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].1.as_slice(), &[4.0]); // d(w*w)/dw for both copies
    }

    #[test]
    fn backward_twice_is_idempotent() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_row(&[1.5]));
        let y = g.exp(x);
        let loss = g.sum_all(y);
        g.backward(loss);
        let first = g.grad(x).unwrap().as_slice()[0];
        g.backward(loss);
        let second = g.grad(x).unwrap().as_slice()[0];
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_requires_scalar() {
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_row(&[1.0, 2.0]));
        g.backward(x);
    }

    #[test]
    fn stable_sigmoid_softplus() {
        assert!(sigmoid(800.0) > 0.999_999);
        assert!(sigmoid(-800.0) < 1e-6);
        assert!(softplus(-800.0).abs() < 1e-12);
        assert!((softplus(800.0) - 800.0).abs() < 1e-9);
    }

    #[test]
    fn fused_linear_matches_unfused_bitwise() {
        let x_data = Tensor::from_vec(3, 2, vec![0.3, -0.7, 1.1, 0.2, -0.4, 0.9]);
        let w_data = Tensor::from_vec(2, 2, vec![0.5, -0.3, 0.8, 0.1]);
        let b_data = Tensor::from_row(&[0.05, -0.2]);
        for apply_tanh in [false, true] {
            let run = |fused: bool| {
                let mut g = Graph::new();
                let x = g.constant(x_data.clone());
                let w = g.param(ParamId(0), w_data.clone());
                let b = g.param(ParamId(1), b_data.clone());
                let y = if fused {
                    g.linear(x, w, b, apply_tanh)
                } else {
                    let xw = g.matmul(x, w);
                    let pre = g.add_row(xw, b);
                    if apply_tanh {
                        g.tanh(pre)
                    } else {
                        pre
                    }
                };
                let sq = g.square(y);
                let loss = g.mean_all(sq);
                g.backward(loss);
                (g.value(y).clone(), g.param_grads())
            };
            let (y_f, grads_f) = run(true);
            let (y_u, grads_u) = run(false);
            assert_eq!(y_f, y_u, "fused value drifted (tanh={apply_tanh})");
            for ((idf, gf), (idu, gu)) in grads_f.iter().zip(&grads_u) {
                assert_eq!(idf, idu);
                for (a, b) in gf.as_slice().iter().zip(gu.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "grad bits (tanh={apply_tanh})");
                }
            }
        }
    }

    #[test]
    fn fused_tanh_scale_matches_unfused_bitwise() {
        let x_data = Tensor::from_row(&[0.3, -1.2, 2.4]);
        let run = |fused: bool| {
            let mut g = Graph::new();
            let x = g.param(ParamId(0), x_data.clone());
            let y = if fused {
                g.tanh_scale(x, 1.7)
            } else {
                let t = g.tanh(x);
                g.scale(t, 1.7)
            };
            let loss = g.sum_all(y);
            g.backward(loss);
            (g.value(y).clone(), g.param_grads().remove(0).1)
        };
        let (y_f, g_f) = run(true);
        let (y_u, g_u) = run(false);
        assert_eq!(y_f, y_u);
        for (a, b) in g_f.as_slice().iter().zip(g_u.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn reset_reuses_buffers_with_zero_steady_state_misses() {
        let mut g = Graph::new();
        let run_step = |g: &mut Graph| {
            let x = g.constant_with(4, 3, |buf| {
                for (i, v) in buf.iter_mut().enumerate() {
                    *v = (i as f64 * 0.37).sin();
                }
            });
            let w = g.param(ParamId(0), Tensor::from_vec(3, 2, vec![0.1; 6]));
            let b = g.param(ParamId(1), Tensor::from_row(&[0.0, 0.1]));
            let y = g.linear(x, w, b, true);
            let sq = g.square(y);
            let loss = g.mean_all(sq);
            g.backward(loss);
            g.value(loss).item()
        };
        let first = run_step(&mut g);
        let warm_misses = g.pool_stats().misses;
        for _ in 0..5 {
            g.reset();
            let again = run_step(&mut g);
            assert_eq!(again.to_bits(), first.to_bits(), "reset changed results");
        }
        assert_eq!(
            g.pool_stats().misses,
            warm_misses,
            "steady-state steps must not allocate"
        );
        assert!(g.pool_stats().hits > 0);
    }

    #[test]
    fn snapshot_counters_track_backward_and_pruning() {
        let mut g = Graph::new();
        assert_eq!(g.snapshot(), GraphStats::default());

        // Without pruning, nothing counts as pruned.
        let x = g.constant(Tensor::from_row(&[2.0]));
        let y = g.square(x);
        let loss = g.sum_all(y);
        g.backward(loss);
        let s = g.snapshot();
        assert_eq!(s.backward_runs, 1);
        assert_eq!(s.grad_nodes, 3);
        assert_eq!(s.skipped_nodes, 0);
        assert_eq!(s.pruned_nodes, 0);
        assert_eq!(s.pool, g.pool_stats());

        // With pruning, the constant leaf is built pruned; backward never
        // delivers a gradient to it, so its visit is counted as skipped.
        g.reset();
        g.set_pruning(true);
        let c = g.constant(Tensor::from_row(&[1.5]));
        let p = g.param(ParamId(0), Tensor::from_row(&[0.5]));
        let sum = g.add(c, p);
        let loss = g.sum_all(sum);
        g.backward(loss);
        let s2 = g.snapshot();
        assert_eq!(s2.backward_runs, 2);
        assert!(s2.pruned_nodes >= 1, "constant leaf must be pruned");
        assert!(
            s2.skipped_nodes >= 1,
            "the pruned constant must be skipped in backward"
        );
        assert!(s2.grad_nodes > s.grad_nodes);
    }

    #[test]
    fn pruning_skips_frozen_only_subgraphs_and_keeps_grads_bitwise() {
        // loss = mean((x·Wf + x·Wt)^2): Wf frozen, Wt trainable.
        let x_data = Tensor::from_vec(2, 2, vec![0.4, -0.3, 0.7, 0.2]);
        let wf = Tensor::from_vec(2, 2, vec![0.3, 0.1, -0.2, 0.5]);
        let wt = Tensor::from_vec(2, 2, vec![-0.4, 0.2, 0.6, -0.1]);
        let run = |prune: bool| {
            let mut g = Graph::new();
            g.set_pruning(prune);
            let x = g.constant(x_data.clone());
            let f = g.param_from_slice(ParamId(0), 2, 2, wf.as_slice(), false);
            let t = g.param_from_slice(ParamId(1), 2, 2, wt.as_slice(), true);
            let hf = g.matmul(x, f);
            let ht = g.matmul(x, t);
            let h = g.add(hf, ht);
            let sq = g.square(h);
            let loss = g.mean_all(sq);
            g.backward(loss);
            let frozen_grad_present = g.grad(f).is_some();
            let trainable = g
                .param_grads()
                .into_iter()
                .find(|(id, _)| *id == ParamId(1))
                .expect("trainable grad")
                .1;
            (frozen_grad_present, trainable, g.value(loss).item())
        };
        let (frozen_on, grad_pruned, loss_pruned) = run(true);
        let (frozen_off, grad_full, loss_full) = run(false);
        assert!(!frozen_on, "pruned frozen param must have no grad buffer");
        assert!(frozen_off, "unpruned run keeps the frozen grad");
        assert_eq!(loss_pruned.to_bits(), loss_full.to_bits());
        for (a, b) in grad_pruned.as_slice().iter().zip(grad_full.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits(), "surviving gradient drifted");
        }
    }

    #[test]
    fn fully_frozen_loss_produces_no_gradients() {
        let mut g = Graph::new();
        g.set_pruning(true);
        let w = g.param_from_slice(ParamId(0), 1, 2, &[1.0, 2.0], false);
        let sq = g.square(w);
        let loss = g.sum_all(sq);
        g.backward(loss);
        assert!(g.grad(w).is_none());
        assert!(g.param_grads().is_empty());
    }

    #[test]
    #[should_panic(expected = "empty tape")]
    fn set_pruning_rejects_non_empty_tape() {
        let mut g = Graph::new();
        let _ = g.constant(Tensor::scalar(1.0));
        g.set_pruning(true);
    }
}
