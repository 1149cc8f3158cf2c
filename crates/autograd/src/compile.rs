//! Trace-once/replay execution of a recorded tape (DESIGN.md §13).
//!
//! [`CompiledStep::compile`] copies a built [`Graph`] tape — its op list,
//! value slots and external-Jacobian slots — and plans its backward pass
//! once: which nodes propagate a gradient, in what order, and whether each
//! accumulation is the first write into its target's gradient slot or a
//! merge. Gradient slots are preallocated for exactly the nodes the plan
//! reaches. [`CompiledStep::replay_forward`] + [`CompiledStep::backward`]
//! then re-execute the step in those buffers, without any per-step
//! allocation, pruning decisions, or graph bookkeeping.
//!
//! # Bitwise contract
//!
//! Replay is bitwise identical to rebuilding and re-running the tape
//! interpreted because both engines run the same code per op: one forward
//! kernel, one backward kernel and one input-visit order, defined once in
//! the crate's `ops` module, with the same rule for accumulating into a
//! gradient slot. The engines differ only in where the first-write-or-merge
//! flag comes from: [`Graph::backward`] works it out as it walks, and the
//! compiled plan is made up front with the same visit order and the same
//! pruning flags. External rows go through the same fixed-chunk parallel
//! helper and matmuls through the same shared kernels.
//! `tests/tape_ops_equivalence.rs` pins every op and
//! `tests/compiled_equivalence.rs` whole training runs, across shapes,
//! frozen masks, thread counts, and resume boundaries.
//!
//! # Recompilation triggers
//!
//! A `CompiledStep` is valid for exactly one (batch-rows, tape-shape,
//! frozen-mask) combination. Callers must recompile when the minibatch
//! row count changes, when the stage depth (and hence the traced layer
//! stack) changes, or when the [`ParamStore`] frozen mask changes — the
//! mask decides which gradients exist at all. Replaying against a store
//! whose mask no longer matches the compile-time snapshot panics rather
//! than silently reusing stale `requires_grad` pruning decisions.

use crate::ops::{self, Op, Tape};
use crate::pool::PoolStats;
use crate::{BufferPool, Graph, ParamId, ParamStore, Tensor, Var};

/// A source of per-parameter gradients for fused optimizer steps: either a
/// [`Graph`] after [`Graph::backward`] or a [`CompiledStep`] after
/// [`CompiledStep::backward`]. Both visit parameter-leaf gradients in tape
/// order with identical bits, so `Adam::step_fused` is agnostic to which
/// execution engine produced them.
pub trait GradSource {
    /// Visits every parameter-leaf gradient in tape order without
    /// materializing a list. A [`ParamId`] injected at several tape
    /// positions is visited once per position with its partial gradient.
    fn for_each_param_grad<F: FnMut(ParamId, &Tensor)>(&self, f: F);

    /// Collects accumulated parameter gradients as `(id, grad)` pairs,
    /// summing duplicates in first-appearance order.
    fn param_grads(&self) -> Vec<(ParamId, Tensor)>;
}

impl GradSource for Graph {
    fn for_each_param_grad<F: FnMut(ParamId, &Tensor)>(&self, f: F) {
        self.tape.for_each_param_grad(f);
    }

    fn param_grads(&self) -> Vec<(ParamId, Tensor)> {
        self.tape.param_grads()
    }
}

/// One planned backward visit: the node whose gradient propagates and,
/// per input visit in [`ops::Op::inputs`] order, whether it is the first
/// write into its target's gradient slot or a merge.
#[derive(Debug, Clone, Copy)]
struct BackStep {
    node: usize,
    first: [bool; 3],
}

/// A [`Graph`] tape copied into preplanned buffer slots with its backward
/// pass planned, replayable without per-step tape construction.
///
/// Compile once per (minibatch-rows, stage-shape, frozen-mask) with
/// [`CompiledStep::compile`] after running the step interpreted; replay
/// with [`CompiledStep::replay_forward`] + [`CompiledStep::backward`].
/// See the module docs for the bitwise contract and recompilation
/// triggers.
#[derive(Debug)]
pub struct CompiledStep {
    /// The traced tape; gradient slots are `Some` exactly for the nodes
    /// the backward plan reaches.
    tape: Tape,
    /// Backward plan over grad-reachable nodes, descending tape order.
    schedule: Vec<BackStep>,
    batch_slot: Option<usize>,
    loss_slot: usize,
    /// Per-parameter trainability snapshot at compile time.
    trainable: Vec<bool>,
    /// Recycled scratch for backward temporaries (`dpre`, merge deltas).
    scratch: BufferPool,
    replays: u64,
}

impl CompiledStep {
    /// Copies the built tape of `g` into a replayable step.
    ///
    /// `loss` is the scalar node [`CompiledStep::backward`] will seed;
    /// `batch_input`, when given, names the constant leaf that
    /// [`CompiledStep::replay_forward`] refills each step (the minibatch
    /// sample buffer). The [`ParamStore`] frozen mask is snapshotted so
    /// replays can detect stale pruning decisions.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not `1 x 1` or `batch_input` is not a constant
    /// leaf.
    pub fn compile(g: &Graph, loss: Var, batch_input: Option<Var>, store: &ParamStore) -> Self {
        assert_eq!(
            g.value(loss).shape(),
            (1, 1),
            "compile requires a scalar (1x1) loss"
        );
        let src = &g.tape;
        let loss_slot = loss.index();
        let batch_slot = batch_input.map(|v| {
            assert!(
                matches!(src.ops[v.index()], Op::Leaf),
                "batch_input must be a constant leaf"
            );
            v.index()
        });

        // Plan the walk Graph::backward takes: which nodes receive a
        // gradient (descending tape order, gated per input by
        // requires_grad) and which input visits are first writes.
        let mut reach = vec![false; src.ops.len()];
        reach[loss_slot] = g.requires_grad[loss_slot];
        let mut schedule = Vec::new();
        for node in (0..=loss_slot).rev() {
            if reach[node] {
                let first = ops::first_writes(src.ops[node], |j| {
                    g.requires_grad[j] && !std::mem::replace(&mut reach[j], true)
                });
                schedule.push(BackStep { node, first });
            }
        }
        let grads = src
            .values
            .iter()
            .zip(&reach)
            .map(|(v, &r)| r.then(|| Tensor::zeros(v.rows(), v.cols())))
            .collect();

        CompiledStep {
            tape: Tape {
                ops: src.ops.clone(),
                values: src.values.clone(),
                grads,
                jacs: src.jacs.clone(),
            },
            schedule,
            batch_slot,
            loss_slot,
            trainable: store.iter().map(|(id, _)| !store.is_frozen(id)).collect(),
            scratch: BufferPool::default(),
            replays: 0,
        }
    }

    /// Number of compiled tape nodes (one per traced node).
    pub fn len(&self) -> usize {
        self.tape.ops.len()
    }

    /// Returns `true` if the compiled tape is empty.
    pub fn is_empty(&self) -> bool {
        self.tape.ops.is_empty()
    }

    /// How many times this step has been replayed since compilation.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Nodes on the precomputed backward schedule.
    pub fn backward_nodes(&self) -> usize {
        self.schedule.len()
    }

    /// Row count of the designated batch-input leaf, if one was named.
    pub fn batch_rows(&self) -> Option<usize> {
        self.batch_slot.map(|i| self.tape.values[i].rows())
    }

    /// Whether `store`'s frozen mask still matches the compile-time
    /// snapshot. A `false` here is a recompilation trigger: the tape's
    /// pruning decisions (which gradients exist) were planned for the old
    /// mask.
    pub fn mask_matches(&self, store: &ParamStore) -> bool {
        self.trainable.len() == store.len()
            && store
                .iter()
                .zip(&self.trainable)
                .all(|((id, _), &t)| t != store.is_frozen(id))
    }

    /// Hit/miss counters of the backward scratch pool (misses allocate;
    /// zero steady-state misses means replays are allocation-free).
    pub fn pool_stats(&self) -> PoolStats {
        self.scratch.stats()
    }

    /// The forward value of `v` from the latest replay (or the trace, if
    /// never replayed). `v` must come from the traced graph.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.tape.values[v.index()]
    }

    /// The gradient of the loss with respect to `v` from the latest
    /// [`CompiledStep::backward`], if `v` is grad-reachable.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.tape.grads[v.index()].as_ref()
    }

    /// Re-executes the forward pass in place: refreshes parameter leaves
    /// from `store`, refills the batch-input leaf via `fill` (handed a
    /// zeroed buffer, exactly like [`Graph::constant_with`]), runs the
    /// shared forward kernel of every node in tape order, and evaluates
    /// `External` nodes through the same fixed-chunk parallel helper as
    /// [`Graph::external_rowwise_par`] on `pool`.
    ///
    /// # Panics
    ///
    /// Panics if `store`'s frozen mask no longer matches the compile-time
    /// snapshot (stale pruning plan — recompile instead), or if a
    /// parameter's shape changed.
    pub fn replay_forward(
        &mut self,
        store: &ParamStore,
        fill: impl FnOnce(&mut [f64]),
        pool: &nofis_parallel::ThreadPool,
        external: impl Fn(&[f64]) -> (f64, Vec<f64>) + Sync,
    ) {
        assert!(
            self.mask_matches(store),
            "stale compiled tape: the ParamStore frozen mask changed since \
             compile; the pruning plan no longer applies — recompile"
        );
        let tape = &mut self.tape;
        for (op, value) in tape.ops.iter().zip(&mut tape.values) {
            if let Op::Param(id) = *op {
                let src = store.get(id);
                assert_eq!(
                    src.shape(),
                    value.shape(),
                    "parameter {id:?} changed shape since compile"
                );
                value.as_mut_slice().copy_from_slice(src.as_slice());
            }
        }
        if let Some(slot) = self.batch_slot {
            let buf = tape.values[slot].as_mut_slice();
            buf.fill(0.0);
            fill(buf);
        }
        for node in 0..tape.ops.len() {
            if let Op::External { .. } = tape.ops[node] {
                tape.forward_external(node, pool, &external);
            } else {
                tape.forward(node);
            }
        }
        self.replays += 1;
    }

    /// Runs the planned backward pass — the same per-node kernel as
    /// [`Graph::backward`], with the planned first-write flags — so
    /// gradients land in the preplanned slots bit for bit as the
    /// interpreted tape computes them. Read them back via
    /// [`CompiledStep::grad`] or the [`GradSource`] methods.
    pub fn backward(&mut self) {
        if self.schedule.is_empty() {
            // Nothing trainable feeds the loss.
            return;
        }
        self.tape.grads[self.loss_slot]
            .as_mut()
            .expect("loss grad slot")
            .as_mut_slice()[0] = 1.0;
        for &BackStep { node, first } in &self.schedule {
            self.tape.backward(node, first, &mut self.scratch);
        }
    }

    /// Visits every parameter-leaf gradient in tape order (the
    /// [`GradSource`] hand-off to fused optimizer steps).
    pub fn for_each_param_grad(&self, f: impl FnMut(ParamId, &Tensor)) {
        self.tape.for_each_param_grad(f);
    }

    /// Collects accumulated parameter gradients as `(id, grad)` pairs,
    /// summing duplicates in first-appearance order (the same merge order
    /// as [`Graph::param_grads`]).
    pub fn param_grads(&self) -> Vec<(ParamId, Tensor)> {
        self.tape.param_grads()
    }
}

impl GradSource for CompiledStep {
    fn for_each_param_grad<F: FnMut(ParamId, &Tensor)>(&self, f: F) {
        self.tape.for_each_param_grad(f);
    }

    fn param_grads(&self) -> Vec<(ParamId, Tensor)> {
        self.tape.param_grads()
    }
}
