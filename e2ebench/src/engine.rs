//! Training-engine phases measured by replay: one training step per
//! `(rows, depth)` shape a run used, rebuilt from the layers' public
//! functions and timed phase by phase, then multiplied by the run's step
//! counts. Also the computed flop and byte counts of a step, and the cost
//! of drawing and scoring importance samples from a flow proposal.

use nofis::autograd::{CompiledStep, Graph, ParamStore, Var};
use nofis::core::{FlowProposal, NofisConfig};
use nofis::flows::RealNvp;
use nofis::nn::Adam;
use nofis::prob::{Proposal, StandardGaussian, LN_2PI};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Replays per shape; the median replay is used.
const REPS: usize = 5;

/// Training steps a run took at one `(rows, depth)` shape: the first step
/// of a stage traces the tape (and compiles it when the config compiles
/// tapes); the rest replay the compiled step.
#[derive(Debug, Default, Clone, Copy)]
pub struct StepCounts {
    pub traced: u64,
    pub replayed: u64,
}

/// Adds one stage's `steps` at `(rows, depth)` to `shapes`.
pub fn add_stage(
    shapes: &mut BTreeMap<(usize, usize), StepCounts>,
    cfg: &NofisConfig,
    rows: usize,
    depth: usize,
    steps: u64,
) {
    let e = shapes.entry((rows, depth)).or_default();
    if cfg.compile_tape {
        e.traced += steps.min(1);
        e.replayed += steps.saturating_sub(1);
    } else {
        e.traced += steps;
    }
}

/// Host seconds per engine phase, over all of a run's steps.
#[derive(Debug, Default, Clone, Copy)]
pub struct EnginePhases {
    pub forward_s: f64,
    pub compile_s: f64,
    pub replay_s: f64,
    pub backward_s: f64,
    pub adam_s: f64,
}

impl EnginePhases {
    pub fn total(&self) -> f64 {
        self.forward_s + self.compile_s + self.replay_s + self.backward_s + self.adam_s
    }
}

/// A flow with the workload's architecture, frozen below the stage that
/// ends at `depth` exactly as training freezes it.
fn stage_flow(dim: usize, cfg: &NofisConfig, depth: usize) -> (RealNvp, ParamStore) {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let layers = cfg.levels.max_stages() * cfg.layers_per_stage;
    let flow = RealNvp::new(&mut store, dim, layers, cfg.hidden, cfg.s_max, &mut rng);
    if cfg.freeze {
        for id in flow.param_ids_for_layers(0..depth - cfg.layers_per_stage) {
            store.set_frozen(id, true);
        }
    }
    (flow, store)
}

/// Closed-form stand-in for the simulator, so a replay times the engine
/// and not the oracle.
fn stand_in(row: &[f64]) -> (f64, Vec<f64>) {
    (3.0 - row.iter().sum::<f64>(), vec![-1.0; row.len()])
}

/// Builds the training loss on `g` (the same node sequence as a training
/// step) and returns `(x, loss, seconds in the flow forward pass)`.
fn trace_step(
    g: &mut Graph,
    flow: &RealNvp,
    store: &ParamStore,
    cfg: &NofisConfig,
    rows: usize,
    depth: usize,
    rng: &mut StdRng,
) -> (Var, Var, f64) {
    let dim = flow.dim();
    let base = StandardGaussian::new(dim);
    g.reset();
    let t = Instant::now();
    let x = g.constant_with(rows, dim, |buf| base.sample_fill(buf, rng));
    let (z, logdet) = flow.forward_graph(store, g, x, depth);
    let forward_s = t.elapsed().as_secs_f64();
    let gvals = g.external_rowwise_par(z, nofis::parallel::global(), stand_in);
    let neg_tau_g = g.scale(gvals, -cfg.tau);
    let shifted = g.add_scalar(neg_tau_g, 0.0);
    let tempered = g.min_scalar(shifted, 0.0);
    let sq = g.square(z);
    let ssq = g.sum_cols(sq);
    let half = g.scale(ssq, -0.5);
    let logp = g.add_scalar(half, -0.5 * dim as f64 * LN_2PI);
    let a = g.add(logdet, tempered);
    let per_sample = g.add(a, logp);
    let mean = g.mean_all(per_sample);
    (x, g.neg(mean), forward_s)
}

/// Per-step phase seconds at one shape, as medians over [`REPS`] replays:
/// `(forward, interpreted backward, compile, replay, compiled backward,
/// adam)`.
fn time_shape(dim: usize, cfg: &NofisConfig, rows: usize, depth: usize) -> [f64; 6] {
    let (flow, mut store) = stage_flow(dim, cfg, depth);
    let mut g = Graph::new();
    g.set_pruning(cfg.prune_frozen);
    let mut opt = Adam::new(cfg.learning_rate).with_max_grad_norm(cfg.max_grad_norm);
    let mut rng = StdRng::seed_from_u64(0x7ace);
    let base = StandardGaussian::new(dim);
    let mut samples: [Vec<f64>; 6] = Default::default();
    for _ in 0..REPS {
        let (x, loss, forward) = trace_step(&mut g, &flow, &store, cfg, rows, depth, &mut rng);
        let t = Instant::now();
        g.backward(loss);
        let backward_interp = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut step = CompiledStep::compile(&g, loss, Some(x), &store);
        let compile = t.elapsed().as_secs_f64();
        let t = Instant::now();
        opt.step_fused(&mut store, &g);
        let adam = t.elapsed().as_secs_f64();
        let t = Instant::now();
        step.replay_forward(
            &store,
            |buf| base.sample_fill(buf, &mut rng),
            nofis::parallel::global(),
            stand_in,
        );
        let replay = t.elapsed().as_secs_f64();
        let t = Instant::now();
        step.backward();
        let backward_compiled = t.elapsed().as_secs_f64();
        black_box(step.value(loss).item());
        let t = Instant::now();
        opt.step_fused(&mut store, &step);
        let adam2 = t.elapsed().as_secs_f64();
        let phases = [
            forward,
            backward_interp,
            compile,
            replay,
            backward_compiled,
            0.5 * (adam + adam2),
        ];
        for (s, v) in samples.iter_mut().zip(phases) {
            s.push(v);
        }
    }
    samples.map(|s| crate::stats::median(&s))
}

/// Replays every shape once per [`REPS`] and scales by the step counts.
pub fn replay_phases(
    dim: usize,
    cfg: &NofisConfig,
    shapes: &BTreeMap<(usize, usize), StepCounts>,
) -> EnginePhases {
    let mut out = EnginePhases::default();
    for (&(rows, depth), counts) in shapes {
        let [fwd, bwd_interp, compile, replay, bwd_compiled, adam] =
            time_shape(dim, cfg, rows, depth);
        let traced = counts.traced as f64;
        let replayed = counts.replayed as f64;
        out.forward_s += fwd * traced;
        if cfg.compile_tape {
            out.compile_s += compile * traced;
        }
        out.replay_s += replay * replayed;
        out.backward_s += bwd_interp * traced + bwd_compiled * replayed;
        out.adam_s += adam * (traced + replayed);
    }
    out
}

/// Computed (not measured) matmul-and-bias flops and bytes moved by one
/// training step at `(rows, depth)`: the forward pass through every layer
/// up to `depth`, the backward pass through the live stage only (earlier
/// stages are frozen and pruned), and Adam over the live parameters.
/// Bytes count 8-byte reads of weights and layer inputs, writes of layer
/// outputs, and Adam's parameter, gradient and two moment streams.
pub fn flops_bytes_per_step(
    dim: usize,
    cfg: &NofisConfig,
    rows: usize,
    depth: usize,
) -> (f64, f64) {
    let (flow, store) = stage_flow(dim, cfg, depth);
    let n = rows as f64;
    let (mut flops, mut words) = (0.0, 0.0);
    for id in flow.param_ids_for_layers(0..depth) {
        let (r, c) = store.get(id).shape();
        let (r, c) = (r as f64, c as f64);
        let live = !store.is_frozen(id);
        // A `1 x c` row is a bias (one add per output); anything else a
        // weight matrix (a multiply-add per entry per row).
        let (fwd_flops, fwd_words) = if r == 1.0 {
            (n * c, c + 2.0 * n * c)
        } else {
            (2.0 * n * r * c, r * c + n * r + n * c)
        };
        flops += fwd_flops;
        words += fwd_words;
        if live {
            flops += 2.0 * fwd_flops;
            words += 2.0 * fwd_words + 4.0 * r * c;
        }
    }
    (flops, 8.0 * words)
}

/// Host seconds to draw `n` samples from `proposal` and to score them
/// with its log-density.
pub fn proposal_costs(proposal: &FlowProposal<'_>, n: usize, seed: u64) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let t = Instant::now();
    let xs: Vec<Vec<f64>> = (0..n).map(|_| proposal.sample(&mut rng)).collect();
    let sample_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sum: f64 = xs.iter().map(|x| proposal.log_density(x)).sum();
    let density_s = t.elapsed().as_secs_f64();
    black_box(sum);
    (sample_s, density_s)
}

/// [`proposal_costs`] for an untrained flow of the workload's architecture
/// at `depth`, for runs whose trained models stay inside the program.
pub fn fresh_proposal_costs(dim: usize, cfg: &NofisConfig, depth: usize, n: usize) -> (f64, f64) {
    let (flow, store) = stage_flow(dim, cfg, depth);
    proposal_costs(&FlowProposal::new(&flow, &store, depth), n, 0xd1ce)
}
