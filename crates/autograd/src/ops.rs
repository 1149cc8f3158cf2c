//! One definition per tape op, shared by both execution engines
//! (DESIGN.md §13).
//!
//! [`Tape`] is the struct-of-arrays storage of [`Graph`](crate::Graph)
//! and [`CompiledStep`](crate::CompiledStep) alike: the op list, one value
//! slot and one `Option` gradient slot per node, and the Jacobian slots of
//! external nodes. Each op's forward arithmetic ([`Tape::forward`]),
//! backward arithmetic ([`Tape::backward`]) and input-visit order
//! ([`Op::inputs`]) is written here once, and both engines call it. The
//! interpreted tape runs the forward kernel as it builds each node and
//! works out, as it walks backward, whether each accumulation is the first
//! write into its target's gradient slot or a merge; the compiled replay
//! reads those flags from a schedule planned once with the same visit
//! order ([`first_writes`]).
//!
//! The accumulation rule: a first write stores the delta as is, and a
//! merge adds it element by element in index order (`g[i] += delta[i]`,
//! the arithmetic of `axpy(1.0, delta)`).

use crate::graph::{ParamId, Var};
use crate::{BufferPool, Tensor};
use nofis_parallel::math::tanh;
use nofis_parallel::{global, kernels, ThreadPool};

/// A tape node's operation and operands.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// Constant leaf: gradients stop here.
    Leaf,
    /// Parameter leaf: gradients are collected per [`ParamId`].
    Param(ParamId),
    Add(Var, Var),
    /// `[N,D] + [1,D]` broadcast add (bias).
    AddRow(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    /// `[N,D] * [1,D]` broadcast multiply (masks).
    MulRow(Var, Var),
    Matmul(Var, Var),
    /// Fused `x @ W + b` (optionally followed by `tanh`), the hot path of
    /// every `Linear`/`Mlp` layer: one tape node instead of three.
    Linear {
        x: Var,
        w: Var,
        b: Var,
        tanh: bool,
    },
    Scale(Var, f64),
    AddScalar(Var, f64),
    Neg(Var),
    Tanh(Var),
    /// Fused `s · tanh(x)` — the coupling-layer log-scale clamp.
    TanhScale(Var, f64),
    Sigmoid(Var),
    Softplus(Var),
    Relu(Var),
    Exp(Var),
    Ln(Var),
    Square(Var),
    /// Elementwise `min(x, c)`.
    MinScalar(Var, f64),
    /// `[N,D] -> 1x1` sum of all entries.
    SumAll(Var),
    /// `[N,D] -> 1x1` mean of all entries.
    MeanAll(Var),
    /// `[N,D] -> [N,1]` per-row sum.
    SumCols(Var),
    /// Externally differentiated row-wise function `R^D -> R`; `jac`
    /// indexes [`Tape::jacs`], the `[N,D]` Jacobian rows the caller's
    /// function returned during the forward pass.
    External {
        input: Var,
        jac: usize,
    },
}

impl Op {
    /// The operands in the order [`Tape::backward`] accumulates into them
    /// (`Linear` visits bias, then x, then W).
    pub(crate) fn inputs(self) -> [Option<Var>; 3] {
        match self {
            Op::Leaf | Op::Param(_) => [None; 3],
            Op::Add(a, b)
            | Op::AddRow(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::MulRow(a, b)
            | Op::Matmul(a, b) => [Some(a), Some(b), None],
            Op::Linear { x, w, b, .. } => [Some(b), Some(x), Some(w)],
            Op::Scale(a, _)
            | Op::AddScalar(a, _)
            | Op::Neg(a)
            | Op::Tanh(a)
            | Op::TanhScale(a, _)
            | Op::Sigmoid(a)
            | Op::Softplus(a)
            | Op::Relu(a)
            | Op::Exp(a)
            | Op::Ln(a)
            | Op::Square(a)
            | Op::MinScalar(a, _)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::SumCols(a)
            | Op::External { input: a, .. } => [Some(a), None, None],
        }
    }
}

/// Per input visit of `op`, whether it is the first write into its
/// target's gradient slot. `claim(j)` is asked once per visit, in
/// [`Op::inputs`] order, and returns `true` when node `j` needs a gradient
/// and has none yet (recording that it now has one).
pub(crate) fn first_writes(op: Op, mut claim: impl FnMut(usize) -> bool) -> [bool; 3] {
    let mut first = [false; 3];
    for (k, v) in op.inputs().into_iter().enumerate() {
        if let Some(v) = v {
            first[k] = claim(v.index());
        }
    }
    first
}

/// Struct-of-arrays tape storage, indexed by tape position.
#[derive(Debug, Default)]
pub(crate) struct Tape {
    pub(crate) ops: Vec<Op>,
    pub(crate) values: Vec<Tensor>,
    /// `Some` for every node that holds a gradient.
    pub(crate) grads: Vec<Option<Tensor>>,
    /// Jacobian buffers of the `External` nodes, in tape order.
    pub(crate) jacs: Vec<Tensor>,
}

impl Tape {
    /// Shape of the value `op` produces from the values already on the
    /// tape.
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes do not fit `op`.
    pub(crate) fn out_shape(&self, op: Op) -> (usize, usize) {
        let shape = |v: Var| self.values[v.index()].shape();
        let matmul = |a: Var, b: Var| {
            let ((m, k), (k2, n)) = (shape(a), shape(b));
            assert_eq!(k, k2, "matmul of {m}x{k} by {k2}x{n}");
            (m, n)
        };
        match op {
            Op::Leaf | Op::Param(_) => unreachable!("leaves are pushed with their value"),
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) => {
                assert_eq!(shape(a), shape(b), "elementwise op requires equal shapes");
                shape(a)
            }
            Op::AddRow(a, b) | Op::MulRow(a, b) => {
                let (n, d) = shape(a);
                assert_eq!(shape(b), (1, d), "broadcast row must be 1x{d}");
                (n, d)
            }
            Op::Matmul(a, b) => matmul(a, b),
            Op::Linear { x, w, b, .. } => {
                let (m, n) = matmul(x, w);
                assert_eq!(shape(b), (1, n), "linear bias must be 1x{n}");
                (m, n)
            }
            Op::SumAll(_) | Op::MeanAll(_) => (1, 1),
            Op::SumCols(a) | Op::External { input: a, .. } => (shape(a).0, 1),
            Op::Scale(a, _)
            | Op::AddScalar(a, _)
            | Op::Neg(a)
            | Op::Tanh(a)
            | Op::TanhScale(a, _)
            | Op::Sigmoid(a)
            | Op::Softplus(a)
            | Op::Relu(a)
            | Op::Exp(a)
            | Op::Ln(a)
            | Op::Square(a)
            | Op::MinScalar(a, _) => shape(a),
        }
    }

    /// Computes node `node`'s value in place from the values of earlier
    /// nodes, overwriting every element. Leaves keep the value they hold,
    /// and an `External` node is evaluated by [`Tape::forward_external`].
    pub(crate) fn forward(&mut self, node: usize) {
        let (prev, rest) = self.values.split_at_mut(node);
        let prev = &*prev;
        let val = |v: Var| &prev[v.index()];
        let out = rest[0].as_mut_slice();
        match self.ops[node] {
            Op::Leaf | Op::Param(_) | Op::External { .. } => {}
            Op::Add(a, b) => zip_into(out, val(a), val(b), |x, y| x + y),
            Op::Sub(a, b) => zip_into(out, val(a), val(b), |x, y| x - y),
            Op::Mul(a, b) => zip_into(out, val(a), val(b), |x, y| x * y),
            Op::AddRow(a, b) => row_zip_into(out, val(a), val(b), |x, r| x + r),
            Op::MulRow(a, b) => row_zip_into(out, val(a), val(b), |x, r| x * r),
            Op::Matmul(a, b) => matmul(out, val(a), val(b)),
            Op::Linear { x, w, b, tanh: act } => {
                matmul(out, val(x), val(w));
                // One pass over the rows: per element `tanh(xw + bias)`,
                // the add-then-activate of the unfused chain.
                let bias = val(b).as_slice();
                let rows = out.chunks_exact_mut(bias.len());
                if act {
                    rows.for_each(|row| map_with_bias(row, bias, tanh));
                } else {
                    rows.for_each(|row| map_with_bias(row, bias, |v| v));
                }
            }
            Op::Scale(a, s) => map_into(out, val(a), |x| x * s),
            Op::AddScalar(a, s) => map_into(out, val(a), |x| x + s),
            Op::Neg(a) => map_into(out, val(a), |x| -x),
            Op::Tanh(a) => map_into(out, val(a), tanh),
            Op::TanhScale(a, s) => map_into(out, val(a), |x| tanh(x) * s),
            Op::Sigmoid(a) => map_into(out, val(a), sigmoid),
            Op::Softplus(a) => map_into(out, val(a), softplus),
            Op::Relu(a) => map_into(out, val(a), |x| x.max(0.0)),
            Op::Exp(a) => map_into(out, val(a), f64::exp),
            Op::Ln(a) => map_into(out, val(a), f64::ln),
            Op::Square(a) => map_into(out, val(a), |x| x * x),
            Op::MinScalar(a, c) => map_into(out, val(a), |x| x.min(c)),
            Op::SumAll(a) => out[0] = val(a).sum(),
            Op::MeanAll(a) => out[0] = val(a).mean(),
            Op::SumCols(a) => {
                let src = val(a);
                for (r, o) in out.iter_mut().enumerate() {
                    *o = src.row(r).iter().sum();
                }
            }
        }
    }

    /// Evaluates the `External` node `node` with `f` on each input row,
    /// in fixed [`EXTERNAL_ROW_CHUNK`]-row chunks across `pool`, writing
    /// its value and Jacobian slots in row order — bitwise identical at any
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not `External` or `f` returns a gradient whose
    /// length differs from the input's column count.
    pub(crate) fn forward_external(
        &mut self,
        node: usize,
        pool: &ThreadPool,
        f: &(impl Fn(&[f64]) -> (f64, Vec<f64>) + Sync),
    ) {
        let Op::External { input, jac } = self.ops[node] else {
            panic!("node {node} is not an external op");
        };
        let (prev, rest) = self.values.split_at_mut(node);
        let input = &prev[input.index()];
        let n = input.rows();
        let n_chunks = nofis_parallel::chunks::chunk_count(n, EXTERNAL_ROW_CHUNK);
        let per_chunk: Vec<Vec<(f64, Vec<f64>)>> = pool.map_chunks(n_chunks, |ci| {
            let (start, end) = nofis_parallel::chunks::chunk_range(n, EXTERNAL_ROW_CHUNK, ci);
            (start..end).map(|r| f(input.row(r))).collect()
        });
        for (r, (v, grad)) in per_chunk.into_iter().flatten().enumerate() {
            store_external_row(&mut rest[0], &mut self.jacs[jac], r, v, &grad);
        }
    }

    /// Propagates node `node`'s gradient into the gradient slots of its
    /// inputs. An input's slot is updated only when it is `Some`; `first[k]`
    /// says whether the `k`-th visit in [`Op::inputs`] order is the first
    /// write into its slot or a merge. `scratch` lends temporaries (the
    /// `tanh` pre-activation gradient and matmul-shaped merge deltas).
    pub(crate) fn backward(&mut self, node: usize, first: [bool; 3], scratch: &mut BufferPool) {
        let (lo, hi) = self.grads.split_at_mut(node);
        let up = hi[0].as_ref().expect("a propagating node holds a gradient");
        let ups = up.as_slice();
        let values = &self.values;
        let val = |v: Var| &values[v.index()];
        let out = &values[node];
        let [f0, f1, f2] = first;
        match self.ops[node] {
            Op::Leaf | Op::Param(_) => {}
            Op::Add(a, b) => {
                acc(lo, a, f0, ups.iter().copied());
                acc(lo, b, f1, ups.iter().copied());
            }
            Op::Sub(a, b) => {
                acc(lo, a, f0, ups.iter().copied());
                acc(lo, b, f1, ups.iter().map(|&u| -u));
            }
            Op::Mul(a, b) => {
                acc_zip(lo, a, f0, ups, val(b), |u, y| u * y);
                acc_zip(lo, b, f1, ups, val(a), |u, x| u * x);
            }
            Op::AddRow(a, b) => {
                acc(lo, a, f0, ups.iter().copied());
                acc_col_sums(lo, b, f1, up, |u, _| u);
            }
            Op::MulRow(a, b) => {
                let row = val(b).as_slice();
                let d = row.len();
                let av = val(a).as_slice();
                let masked = ups.iter().enumerate().map(|(i, &u)| u * row[i % d]);
                acc(lo, a, f0, masked);
                acc_col_sums(lo, b, f1, up, |u, i| u * av[i]);
            }
            Op::Matmul(a, b) => {
                acc_matmul(lo, a, f0, scratch, |dst| matmul_bt(dst, up, val(b)));
                acc_matmul(lo, b, f1, scratch, |dst| matmul_at(dst, val(a), up));
            }
            Op::Linear { x, w, b, tanh } => {
                // Gradient at the pre-activation x@W + b.
                let owned_dpre = tanh.then(|| {
                    let mut buf = scratch.take_uninit(ups.len());
                    let y = out.as_slice();
                    buf.extend(ups.iter().zip(y).map(|(&u, &yv)| u * (1.0 - yv * yv)));
                    Tensor::from_vec(up.rows(), up.cols(), buf)
                });
                let dpre = owned_dpre.as_ref().unwrap_or(up);
                acc_col_sums(lo, b, f0, dpre, |u, _| u);
                acc_matmul(lo, x, f1, scratch, |dst| matmul_bt(dst, dpre, val(w)));
                acc_matmul(lo, w, f2, scratch, |dst| matmul_at(dst, val(x), dpre));
                if let Some(t) = owned_dpre {
                    scratch.put(t.into_vec());
                }
            }
            Op::Scale(a, s) => acc(lo, a, f0, ups.iter().map(|&u| u * s)),
            Op::AddScalar(a, _) => acc(lo, a, f0, ups.iter().copied()),
            Op::Neg(a) => acc(lo, a, f0, ups.iter().map(|&u| -u)),
            Op::Tanh(a) => acc_zip(lo, a, f0, ups, out, |u, y| u * (1.0 - y * y)),
            // Recomputes tanh from the input with the grouping of the
            // unfused scale∘tanh backward, (u·s)·(1−t²).
            Op::TanhScale(a, s) => acc_zip(lo, a, f0, ups, val(a), |u, x| {
                let t = tanh(x);
                (u * s) * (1.0 - t * t)
            }),
            Op::Sigmoid(a) => acc_zip(lo, a, f0, ups, out, |u, y| u * y * (1.0 - y)),
            Op::Softplus(a) => acc_zip(lo, a, f0, ups, val(a), |u, x| u * sigmoid(x)),
            Op::Relu(a) => acc_zip(lo, a, f0, ups, val(a), |u, x| if x > 0.0 { u } else { 0.0 }),
            Op::Exp(a) => acc_zip(lo, a, f0, ups, out, |u, y| u * y),
            Op::Ln(a) => acc_zip(lo, a, f0, ups, val(a), |u, x| u / x),
            Op::Square(a) => acc_zip(lo, a, f0, ups, val(a), |u, x| u * 2.0 * x),
            Op::MinScalar(a, c) => {
                acc_zip(lo, a, f0, ups, val(a), |u, x| if x < c { u } else { 0.0 })
            }
            Op::SumAll(a) => acc(lo, a, f0, std::iter::repeat_n(up.item(), val(a).len())),
            Op::MeanAll(a) => {
                let len = val(a).len();
                acc(lo, a, f0, std::iter::repeat_n(up.item() / len as f64, len));
            }
            Op::SumCols(a) => {
                let d = val(a).cols();
                acc(lo, a, f0, (0..ups.len() * d).map(|i| ups[i / d]));
            }
            Op::External { input, jac } => {
                let jac = &self.jacs[jac];
                let d = jac.cols();
                let deltas = jac.as_slice().iter().enumerate();
                acc(lo, input, f0, deltas.map(|(i, &j)| ups[i / d] * j));
            }
        }
    }

    /// Visits every parameter-leaf gradient in tape order. A [`ParamId`]
    /// injected at several tape positions is visited once per position.
    pub(crate) fn for_each_param_grad(&self, mut f: impl FnMut(ParamId, &Tensor)) {
        for (op, grad) in self.ops.iter().zip(&self.grads) {
            if let (Op::Param(id), Some(g)) = (op, grad) {
                f(*id, g);
            }
        }
    }

    /// Parameter gradients as `(id, grad)` pairs, summing the partial
    /// gradients of a [`ParamId`] injected more than once, in
    /// first-appearance order.
    pub(crate) fn param_grads(&self) -> Vec<(ParamId, Tensor)> {
        let mut out: Vec<(ParamId, Tensor)> = Vec::new();
        self.for_each_param_grad(|id, g| {
            if let Some((_, acc)) = out.iter_mut().find(|(pid, _)| *pid == id) {
                acc.axpy(1.0, g);
            } else {
                out.push((id, g.clone()));
            }
        });
        out
    }
}

/// Rows per external-evaluation chunk — fixed so chunk boundaries never
/// depend on the thread count.
const EXTERNAL_ROW_CHUNK: usize = 16;

/// Writes row `r` of an external node: its value into `out` and its
/// gradient into the Jacobian `jac`.
///
/// # Panics
///
/// Panics if `grad`'s length differs from `jac`'s column count.
pub(crate) fn store_external_row(
    out: &mut Tensor,
    jac: &mut Tensor,
    r: usize,
    v: f64,
    grad: &[f64],
) {
    assert_eq!(
        grad.len(),
        jac.cols(),
        "external gradient has length {} but input has {} columns",
        grad.len(),
        jac.cols()
    );
    out[(r, 0)] = v;
    jac.row_mut(r).copy_from_slice(grad);
}

/// Numerically stable logistic sigmoid.
pub(crate) fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable softplus `ln(1 + e^x)`.
pub(crate) fn softplus(x: f64) -> f64 {
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

/// `out[i] = f(a[i])`.
fn map_into(out: &mut [f64], a: &Tensor, f: impl Fn(f64) -> f64) {
    for (o, &x) in out.iter_mut().zip(a.as_slice()) {
        *o = f(x);
    }
}

/// `row[c] = f(row[c] + bias[c])`.
fn map_with_bias(row: &mut [f64], bias: &[f64], f: impl Fn(f64) -> f64) {
    for (v, &bv) in row.iter_mut().zip(bias) {
        *v = f(*v + bv);
    }
}

/// `out[i] = f(a[i], b[i])`.
fn zip_into(out: &mut [f64], a: &Tensor, b: &Tensor, f: impl Fn(f64, f64) -> f64) {
    for ((o, &x), &y) in out.iter_mut().zip(a.as_slice()).zip(b.as_slice()) {
        *o = f(x, y);
    }
}

/// `out[r][c] = f(a[r][c], row[c])` for a `1 x D` broadcast `row`.
fn row_zip_into(out: &mut [f64], a: &Tensor, row: &Tensor, f: impl Fn(f64, f64) -> f64) {
    let rv = row.as_slice();
    let d = rv.len();
    for (orow, arow) in out.chunks_exact_mut(d).zip(a.as_slice().chunks_exact(d)) {
        for ((o, &x), &r) in orow.iter_mut().zip(arow).zip(rv) {
            *o = f(x, r);
        }
    }
}

/// `out = a @ b` through the shared kernel (bitwise identical at any
/// thread count).
fn matmul(out: &mut [f64], a: &Tensor, b: &Tensor) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    kernels::matmul_into(global(), a.as_slice(), b.as_slice(), out, m, k, n);
}

/// `out = a @ bᵀ` through the transpose-free kernel: bitwise identical to
/// materializing `bᵀ` and calling [`matmul`].
fn matmul_bt(out: &mut [f64], a: &Tensor, b: &Tensor) {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    kernels::matmul_bt_into(global(), a.as_slice(), b.as_slice(), out, m, k, n);
}

/// `out = aᵀ @ b` through the transpose-free kernel: bitwise identical to
/// materializing `aᵀ` and calling [`matmul`].
fn matmul_at(out: &mut [f64], a: &Tensor, b: &Tensor) {
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    kernels::matmul_at_into(global(), a.as_slice(), b.as_slice(), out, k, m, n);
}

/// Writes (`first`) or merges the element stream `delta` into `v`'s
/// gradient slot, if it holds one.
fn acc(grads: &mut [Option<Tensor>], v: Var, first: bool, delta: impl Iterator<Item = f64>) {
    let Some(dst) = grads[v.index()].as_mut() else {
        return;
    };
    let dst = dst.as_mut_slice();
    if first {
        for (o, d) in dst.iter_mut().zip(delta) {
            *o = d;
        }
    } else {
        for (o, d) in dst.iter_mut().zip(delta) {
            *o += d;
        }
    }
}

/// [`acc`] of the stream `f(up[i], other[i])`.
fn acc_zip(
    grads: &mut [Option<Tensor>],
    v: Var,
    first: bool,
    up: &[f64],
    other: &Tensor,
    f: impl Fn(f64, f64) -> f64,
) {
    let delta = up.iter().zip(other.as_slice()).map(|(&u, &o)| f(u, o));
    acc(grads, v, first, delta);
}

/// Column sums for a `1 x D` broadcast operand: per column the terms
/// `f(up[i], i)` over ascending rows are summed from `0.0`, then written
/// or merged into `v`'s gradient slot.
fn acc_col_sums(
    grads: &mut [Option<Tensor>],
    v: Var,
    first: bool,
    up: &Tensor,
    f: impl Fn(f64, usize) -> f64,
) {
    let Some(dst) = grads[v.index()].as_mut() else {
        return;
    };
    let d = dst.len();
    let ups = up.as_slice();
    for (c, o) in dst.as_mut_slice().iter_mut().enumerate() {
        let mut sum = 0.0;
        for i in (c..ups.len()).step_by(d) {
            sum += f(ups[i], i);
        }
        if first {
            *o = sum;
        } else {
            *o += sum;
        }
    }
}

/// Matmul-shaped accumulation into `v`'s gradient slot: a first write runs
/// `kernel` straight into the slot (the kernels write every element); a
/// merge runs it into recycled scratch and adds that in index order.
fn acc_matmul(
    grads: &mut [Option<Tensor>],
    v: Var,
    first: bool,
    scratch: &mut BufferPool,
    kernel: impl Fn(&mut [f64]),
) {
    let Some(dst) = grads[v.index()].as_mut() else {
        return;
    };
    if first {
        kernel(dst.as_mut_slice());
    } else {
        let mut buf = scratch.take(dst.len());
        kernel(&mut buf);
        for (o, d) in dst.as_mut_slice().iter_mut().zip(&buf) {
            *o += d;
        }
        scratch.put(buf);
    }
}
