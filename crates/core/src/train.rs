use crate::checkpoint::{self, Checkpoint, Checkpointer, StagePartial, WarmStart};
use crate::preempt;
use crate::{ConfigError, FlowProposal, Levels, NofisConfig, NofisError, StageReport};
use nofis_autograd::{CompiledStep, Graph, ParamId, ParamStore, Tensor, Var};
use nofis_flows::RealNvp;
use nofis_nn::{Adam, AdamState};
use nofis_prob::{
    batch_values_with_exec, importance_sampling_detailed_with_exec, monte_carlo_with_exec,
    quantile, BatchEval, BudgetSource, BudgetedOracle, DefensiveMixture, FallbackRung, IsResult,
    LimitState, Proposal, StandardGaussian, WeightDiagnostics, LN_2PI,
};
use nofis_shard::ShardedEval;
use nofis_telemetry as tele;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng, StateRng};

/// Epoch-loss magnitude beyond which training is declared divergent (a
/// healthy tempered-KL loss is `O(D)`, nowhere near this).
/// A compiled training step plus the key it was specialized for: replay
/// is valid only while the minibatch row count, the stage depth, and the
/// [`ParamStore`] frozen mask (checked via `CompiledStep::mask_matches`)
/// all still match — any mismatch retraces and recompiles (DESIGN.md §13).
struct TapeCache {
    depth: usize,
    n: usize,
    logdet: Var,
    loss: Var,
    step: CompiledStep,
}

const LOSS_DIVERGENCE_LIMIT: f64 = 1e12;

/// Per-row `|log det|` beyond which a minibatch is declared divergent: the
/// coupling clamp bounds healthy log-dets to `O(depth · D · s_max)`.
const LOGDET_DIVERGENCE_LIMIT: f64 = 1e6;

/// Simulator-call budget granted to a standalone
/// [`TrainedNofis::estimate`] call, as a multiple of `n_is`: one tranche
/// for each rung of the fallback ladder.
const ESTIMATE_BUDGET_FACTOR: u64 = 4;

/// Base mixing weight used by the defensive-mixture rung of the fallback
/// ladder; importance weights on that rung are bounded by `1/α = 2`.
const DEFENSIVE_ALPHA: f64 = 0.5;

fn budget_error<L: LimitState + ?Sized>(
    oracle: &BudgetedOracle<'_, L>,
    context: String,
) -> NofisError {
    NofisError::BudgetExhausted {
        used: oracle.used(),
        budget: oracle.budget(),
        context,
    }
}

/// The NOFIS estimator (Algorithm 1 of the paper).
///
/// `Nofis` owns a validated [`NofisConfig`]; [`Nofis::train`] learns the
/// sequence of proposal distributions and [`TrainedNofis::estimate`]
/// produces the final importance-sampling estimate. The convenience method
/// [`Nofis::run`] does both. All entry points are fallible — see
/// [`NofisError`] for the failure taxonomy.
///
/// # Example
///
/// ```
/// use nofis_core::{Levels, Nofis, NofisConfig};
/// use nofis_prob::{CountingOracle, LimitState};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A moderately rare half-space event: P[x0 >= 3] ≈ 1.35e-3.
/// struct HalfSpace;
/// impl LimitState for HalfSpace {
///     fn dim(&self) -> usize { 2 }
///     fn value(&self, x: &[f64]) -> f64 { 3.0 - x[0] }
///     fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
///         (3.0 - x[0], vec![-1.0, 0.0])
///     }
/// }
///
/// let config = NofisConfig {
///     levels: Levels::Fixed(vec![2.0, 1.0, 0.0]),
///     layers_per_stage: 4,
///     hidden: 16,
///     epochs: 8,
///     batch_size: 64,
///     n_is: 500,
///     ..Default::default()
/// };
/// let oracle = CountingOracle::new(&HalfSpace);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let (trained, result) = Nofis::new(config)?.run(&oracle, &mut rng)?;
/// assert_eq!(trained.levels().last(), Some(&0.0));
/// assert!(result.estimate > 0.0);
/// assert_eq!(trained.stage_reports().len(), trained.stages());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Nofis {
    config: NofisConfig,
}

impl Nofis {
    /// Creates an estimator from a validated configuration.
    ///
    /// When [`NofisConfig::threads`] is set, the preference is recorded for
    /// the process-wide `nofis_parallel` pool. The pool is sized on first
    /// use, so construct the estimator before other parallel work runs; a
    /// `NOFIS_THREADS` environment variable still takes precedence and is
    /// validated here — a malformed value (e.g. `NOFIS_THREADS=fourx`) is a
    /// configuration error, never a silent fallback.
    ///
    /// Telemetry sinks from [`NofisConfig::telemetry`] (overridable via
    /// `NOFIS_LOG` / `NOFIS_TRACE_FILE`) are installed process-wide on the
    /// first `Nofis::new` call; later calls leave them untouched.
    ///
    /// Checkpoint settings from [`NofisConfig::checkpoint`] are combined
    /// with the `NOFIS_CKPT_DIR` / `NOFIS_CKPT_EVERY` / `NOFIS_CKPT_KEEP`
    /// environment variables (the environment wins; `NOFIS_CKPT_DIR` alone
    /// enables checkpointing). A `NOFIS_FAULT_PLAN` variable, if present,
    /// installs the deterministic fault-injection plan (`nofis_faults`)
    /// process-wide on the first call.
    ///
    /// Metrics aggregation from [`NofisConfig::metrics`] (overridable —
    /// and enableable — via `NOFIS_METRICS` / `NOFIS_METRICS_ADDR` /
    /// `NOFIS_FLIGHT_DIR`) is likewise installed process-wide on the
    /// first enabled call: an aggregating sink, optionally a `/metrics` +
    /// `/healthz` scrape server and a flight recorder (DESIGN.md §15).
    /// Metrics never influence results.
    ///
    /// Sharded oracle execution from [`NofisConfig::shard`] (overridable —
    /// and enableable — via `NOFIS_SHARDS`, with `NOFIS_SHARD_TIMEOUT_MS`
    /// refining the per-request deadline) configures the process-global
    /// worker fleet (DESIGN.md §16). Sharding never influences results:
    /// estimates are bitwise identical at any shard count.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid, the
    /// `NOFIS_THREADS` / `NOFIS_CKPT_*` / `NOFIS_METRICS*` /
    /// `NOFIS_FLIGHT_*` environment variables do not parse, a requested
    /// trace file cannot be created, the metrics scrape address cannot be
    /// bound, or `NOFIS_FAULT_PLAN` is malformed.
    pub fn new(mut config: NofisConfig) -> Result<Self, ConfigError> {
        config.apply_checkpoint_env()?;
        config
            .metrics
            .apply_env()
            .map_err(|e| ConfigError::new(e.to_string()))?;
        config.validate()?;
        nofis_parallel::env_threads_checked().map_err(|e| ConfigError::new(e.to_string()))?;
        tele::init(&config.telemetry).map_err(|e| ConfigError::new(e.to_string()))?;
        nofis_metrics::install(&config.metrics).map_err(|e| ConfigError::new(e.to_string()))?;
        nofis_faults::init_from_env().map_err(|e| ConfigError::new(e.to_string()))?;
        config.apply_shard_env()?;
        if let Some(threads) = config.threads {
            nofis_parallel::set_thread_override(threads);
        }
        Ok(Nofis { config })
    }

    /// Borrows the configuration.
    pub fn config(&self) -> &NofisConfig {
        &self.config
    }

    /// Runs the `M`-stage training of Algorithm 1, consuming `M·E·N`
    /// simulator calls (plus pilot calls under adaptive levels).
    ///
    /// Wrap `limit_state` in a
    /// [`CountingOracle`](nofis_prob::CountingOracle) to meter the budget.
    /// When [`NofisConfig::max_calls`] is set, training respects it as a
    /// hard cap.
    ///
    /// Each stage checkpoints its parameters at the best epoch loss; a
    /// divergent epoch (non-finite or exploding loss / log-det) rolls back
    /// to that checkpoint and retries with a halved learning rate, up to
    /// [`NofisConfig::stage_retries`] times. The recovery history is
    /// recorded in [`TrainedNofis::stage_reports`].
    ///
    /// # Errors
    ///
    /// * [`NofisError::InvalidInput`] if `limit_state.dim() < 2` (RealNVP
    ///   coupling layers need at least two coordinates).
    /// * [`NofisError::TrainingDiverged`] if a stage stays divergent after
    ///   all rollback retries.
    /// * [`NofisError::BudgetExhausted`] if `max_calls` runs out before the
    ///   final stage has completed at least one epoch.
    /// * [`NofisError::DegenerateProposal`] if an adaptive pilot batch
    ///   scores NaN on every sample.
    pub fn train<L: LimitState + ?Sized + Sync, R: Rng + StateRng>(
        &self,
        limit_state: &L,
        rng: &mut R,
    ) -> Result<TrainedNofis, NofisError> {
        let oracle = BudgetedOracle::new(limit_state, self.config.max_calls.unwrap_or(u64::MAX));
        self.train_within(&oracle, rng)
    }

    /// Like [`Nofis::train`] but drawing simulator calls from an existing
    /// [`BudgetedOracle`], so training and estimation can share one hard
    /// budget (this is what [`Nofis::run`] does).
    ///
    /// # Errors
    ///
    /// Same as [`Nofis::train`].
    pub fn train_within<L: LimitState + ?Sized + Sync, R: Rng + StateRng>(
        &self,
        oracle: &BudgetedOracle<'_, L>,
        rng: &mut R,
    ) -> Result<TrainedNofis, NofisError> {
        self.train_impl(oracle, rng, None, None)
    }

    /// The single training loop behind both [`Nofis::train_within`] and
    /// [`Nofis::resume_within`]. One code path means a resumed run and an
    /// uninterrupted run execute literally the same instructions after the
    /// restore point, which is what makes resume bitwise-exact.
    ///
    /// `warm` (fresh starts only; a resume ignores it by construction —
    /// callers pass one or the other) seeds the flow parameters and Adam
    /// moments from a finished donor run with a matching
    /// [`checkpoint::warm_fingerprint`]. Everything else — the RNG stream,
    /// the threshold schedule, the budget — runs exactly as a cold start,
    /// so a warm run is a cold run with a different initializer.
    fn train_impl<L: LimitState + ?Sized + Sync, R: Rng + StateRng>(
        &self,
        oracle: &BudgetedOracle<'_, L>,
        rng: &mut R,
        resume: Option<ResumeRun>,
        warm: Option<&WarmStart>,
    ) -> Result<TrainedNofis, NofisError> {
        let dim = oracle.dim();
        if dim < 2 {
            return Err(NofisError::InvalidInput {
                message: format!(
                    "NOFIS requires dim >= 2 (RealNVP couplings split coordinates), got {dim}"
                ),
            });
        }
        let cfg = &self.config;
        let k = cfg.layers_per_stage;
        let max_stages = cfg.levels.max_stages();

        let fingerprint = checkpoint::config_fingerprint(cfg, dim);
        let warm_fp = checkpoint::warm_fingerprint(cfg, dim);
        let mut checkpointer = cfg.checkpoint.clone().map(Checkpointer::new);

        let flow;
        let mut store;
        let mut levels: Vec<f64>;
        let mut loss_history: Vec<Vec<f64>>;
        let mut stage_reports: Vec<StageReport>;
        let start_stage: usize;
        let mut global_step: u64;
        let mut carry: Option<StageCarry>;
        // Donor Adam moments, consumed exactly once by the first stage's
        // optimizer; rollback retries and later stages start clean, the
        // same as a cold run.
        let mut warm_adam: Option<AdamState> = None;
        match resume {
            None => {
                store = ParamStore::new();
                match warm {
                    None => {
                        flow = RealNvp::new(
                            &mut store,
                            dim,
                            max_stages * k,
                            cfg.hidden,
                            cfg.s_max,
                            rng,
                        );
                    }
                    Some(ws) => {
                        // The donor's parameters overwrite the init draw, so
                        // build the structure with a throwaway RNG: the live
                        // stream must stay at its seeded position, keeping
                        // common random numbers across warm and cold corners.
                        let mut init_rng = StdRng::seed_from_u64(0);
                        flow = RealNvp::new(
                            &mut store,
                            dim,
                            max_stages * k,
                            cfg.hidden,
                            cfg.s_max,
                            &mut init_rng,
                        );
                        if ws.dim != dim as u64 || ws.warm_fingerprint != warm_fp {
                            return Err(NofisError::Checkpoint {
                                message: format!(
                                    "warm-start donor '{}' is incompatible with this run \
                                     (donor fingerprint {:#018x} / dim {}, ours {:#018x} / \
                                     dim {dim}); train cold instead",
                                    ws.donor, ws.warm_fingerprint, ws.dim, warm_fp
                                ),
                            });
                        }
                        // Frozen flags reset to all-live: the recipient's own
                        // schedule decides what to freeze, stage by stage.
                        restore_into(&mut store, &ws.params, &vec![false; ws.params.len()])?;
                        warm_adam = ws.adam.clone();
                        tele::event(tele::Level::Info, "train.warm_start")
                            .field("donor", ws.donor.as_str())
                            .field("params", ws.params.len())
                            .field("adam", warm_adam.is_some())
                            .emit();
                    }
                }
                levels = Vec::new();
                loss_history = Vec::new();
                stage_reports = Vec::new();
                start_stage = 0;
                global_step = 0;
                carry = None;
            }
            Some(r) => {
                flow = r.flow;
                store = r.store;
                levels = r.levels;
                loss_history = r.loss_history;
                stage_reports = r.stage_reports;
                start_stage = r.start_stage;
                global_step = r.global_step;
                carry = r.carry;
            }
        }
        // A mid-stage resume re-enters a stage whose threshold was already
        // chosen (and, for adaptive schedules, already paid for in pilot
        // calls): the first loop iteration restores it instead of picking.
        let mut resume_level = if carry.is_some() {
            levels.last().copied()
        } else {
            None
        };
        let base = StandardGaussian::new(dim);

        // One tape for the whole run: `reset()` between minibatches keeps
        // the node arena and recycles every buffer, so steady-state steps
        // allocate nothing. Frozen-stage pruning skips the backward kernels
        // of earlier coupling blocks without changing any surviving
        // gradient bit (DESIGN.md §9).
        let mut g = Graph::new();
        g.set_pruning(cfg.prune_frozen);
        // Trace-once/replay (DESIGN.md §13): the first minibatch of each
        // (rows, depth, frozen-mask) combination runs interpreted and is
        // lowered into a `CompiledStep`; subsequent matching minibatches
        // replay it. Replays are bitwise identical to the interpreted
        // engine, so the cache never changes results — any shape or mask
        // change (stage advance, tail minibatch, resume) simply retraces.
        let mut tape_cache: Option<TapeCache> = None;

        tele::event(tele::Level::Info, "train.start")
            .field("dim", dim)
            .field("max_stages", max_stages)
            .field("layers_per_stage", k)
            .field("budget", oracle.budget())
            .emit();

        for stage in start_stage..max_stages {
            // Stage-boundary readings for the per-stage telemetry deltas.
            // Plain u64 reads — never fed back into the computation.
            let stage_calls_start = oracle.used();
            let stage_stats_start = g.snapshot();
            let mut stage_steps = 0u64;
            let mut stage_span = tele::span(tele::Level::Info, "train.stage");

            // --- Pick this stage's threshold (restored verbatim on a
            //     mid-stage resume). ---
            let level = if let Some(level) = resume_level.take() {
                level
            } else {
                let level = match &cfg.levels {
                    Levels::Fixed(v) => v[stage],
                    Levels::AdaptiveQuantile { p0, pilot, .. } => {
                        if stage + 1 == max_stages {
                            0.0
                        } else {
                            let granted = oracle.grant(*pilot);
                            if granted == 0 {
                                return Err(budget_error(
                                    oracle,
                                    format!("pilot sampling for stage {}", stage + 1),
                                ));
                            }
                            let depth = stage * k;
                            // Draw serially (the rng is sequential), then score
                            // the pilot batch across the pool — the granted
                            // calls were planned above, and the batch values
                            // come back in sample order.
                            let xs: Vec<Vec<f64>> = (0..granted)
                                .map(|_| {
                                    if depth == 0 {
                                        base.sample(rng)
                                    } else {
                                        flow.sample(&store, depth, rng).0
                                    }
                                })
                                .collect();
                            let exec = sharded_exec(oracle);
                            let gvals = batch_values_with_exec(
                                oracle,
                                &xs,
                                nofis_parallel::global(),
                                as_batch_eval(&exec),
                            );
                            // `quantile` skips NaN scores; if the proposal only
                            // produces NaN there is nothing to schedule against.
                            let mut q = quantile(&gvals, *p0);
                            if q.is_nan() {
                                return Err(NofisError::DegenerateProposal {
                                    context: format!(
                                        "every pilot sample for stage {} scored NaN",
                                        stage + 1
                                    ),
                                });
                            }
                            // Overshoot guard: tempered training gives the stage
                            // proposal a heavy lower-g tail, which can crash the
                            // pilot quantile to 0 long before the proposal truly
                            // covers the failure region. Only allow the schedule
                            // to land on 0 when the pilot actually observes a
                            // healthy failure fraction; otherwise descend
                            // geometrically at most.
                            let frac_fail = gvals.iter().filter(|&&g| g <= 0.0).count() as f64
                                / gvals.len() as f64;
                            if let Some(&prev) = levels.last() {
                                if frac_fail < 0.5 * p0 {
                                    q = q.max(0.35 * prev);
                                }
                                // Enforce strict decrease: an undertrained stage
                                // can leave the pilot quantile at (or above) the
                                // previous threshold, stalling the schedule.
                                q = q.min(prev - 0.05 * prev.abs());
                            }
                            tele::event(tele::Level::Debug, "train.pilot")
                                .field("stage", stage + 1)
                                .field("granted", granted)
                                .field("quantile", q)
                                .field("frac_fail", frac_fail)
                                .emit();
                            if q <= 0.0 {
                                0.0
                            } else {
                                q
                            }
                        }
                    }
                };
                levels.push(level);
                level
            };
            tele::event(tele::Level::Info, "train.stage.start")
                .field("stage", stage + 1)
                .field("level", level)
                .emit();

            // --- Freeze everything before this stage's block. ---
            if cfg.freeze {
                for id in flow.param_ids_for_layers(0..stage * k) {
                    store.set_frozen(id, true);
                }
            }

            // --- Optimize D[q_{mK} || p_m^tau] (Eq. 8), with checkpoint
            //     rollback on divergence. ---
            let depth = (stage + 1) * k;
            let mb = cfg.minibatch.min(cfg.batch_size);
            let mut lr = cfg.learning_rate;
            let mut retries = 0usize;
            // A mid-stage resume enters the retry loop exactly once with the
            // restored cursor; retries after that start clean, like any
            // rollback pass.
            let mut stage_carry = carry.take();
            if let Some(c) = &stage_carry {
                lr = c.learning_rate;
                retries = c.retries;
                stage_steps = c.stage_steps;
            }
            let (stage_losses, best_loss, truncated, stage_adam) = loop {
                let mut opt = Adam::new(lr).with_max_grad_norm(cfg.max_grad_norm);
                if let Some(state) = warm_adam.take() {
                    opt.restore_state(state);
                }
                let mut stage_losses = Vec::with_capacity(cfg.epochs);
                let mut best_loss = f64::INFINITY;
                let mut best_store = store.clone();
                let mut divergence: Option<(usize, String)> = None;
                let mut truncated = false;
                let mut start_epoch = 0usize;
                let mut epoch_carry: Option<(usize, f64, ParamStore)> = None;
                if let Some(c) = stage_carry.take() {
                    opt.restore_state(c.adam);
                    stage_losses = c.stage_losses;
                    best_loss = c.best_loss;
                    best_store = c.best_store;
                    start_epoch = c.epoch;
                    epoch_carry = Some((c.consumed, c.epoch_loss, c.epoch_start));
                }

                'epochs: for epoch in start_epoch..cfg.epochs {
                    let (mut consumed, mut epoch_loss, epoch_start) = match epoch_carry.take() {
                        Some((consumed, epoch_loss, epoch_start)) => {
                            (consumed, epoch_loss, epoch_start)
                        }
                        None => (0usize, 0.0, store.clone()),
                    };
                    while consumed < cfg.batch_size {
                        let want = mb.min(cfg.batch_size - consumed);
                        let n = oracle.grant(want);
                        if n == 0 {
                            if level == 0.0 && !stage_losses.is_empty() {
                                // Graceful truncation: the final stage has at
                                // least one full epoch at the target event,
                                // so the proposal is usable as-is.
                                truncated = true;
                                tele::event(tele::Level::Warn, "train.truncated")
                                    .field("stage", stage + 1)
                                    .field("epoch", epoch)
                                    .field("used", oracle.used())
                                    .emit();
                                break 'epochs;
                            }
                            return Err(budget_error(
                                oracle,
                                format!("training stage {}", stage + 1),
                            ));
                        }
                        // Engine selection: replay the compiled tape when one
                        // matches this (rows, depth, frozen-mask) exactly;
                        // otherwise trace interpreted (and compile the trace
                        // for the steps that follow).
                        let replaying = cfg.compile_tape
                            && tape_cache.as_ref().is_some_and(|c| {
                                c.depth == depth && c.n == n && c.step.mask_matches(&store)
                            });
                        // tempered term: min(tau * (a_m - g(z)), 0). A
                        // non-finite simulator response is sanitized to
                        // "safely non-failing, zero gradient" so one broken
                        // subregion cannot poison the whole batch (the call
                        // still counts against the budget).
                        // A panicking worker chunk (pool infrastructure, not
                        // the oracle — oracle panics are already contained
                        // in `BudgetedOracle`) is handled like a divergent
                        // minibatch: roll back to the best checkpoint and
                        // retry. The pool itself survives a worker panic, so
                        // retrying is sound. Both engines share the sanitize
                        // closure and the fixed-chunk row evaluator, so the
                        // oracle sees the same calls in the same order.
                        let sanitized = |row: &[f64]| {
                            let (v, grad) = oracle.value_grad(row);
                            if v.is_finite() && grad.iter().all(|gi| gi.is_finite()) {
                                (v, grad)
                            } else {
                                (level + 1.0, vec![0.0; dim])
                            }
                        };
                        let evaluated = if replaying {
                            let cache = tape_cache.as_mut().expect("cache presence checked");
                            let replay =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    cache.step.replay_forward(
                                        &store,
                                        |buf| base.sample_fill(buf, rng),
                                        nofis_parallel::global(),
                                        sanitized,
                                    );
                                }));
                            match replay {
                                Ok(()) => Some((
                                    cache.step.value(cache.loss).item(),
                                    cache.step.value(cache.logdet).max_abs(),
                                    None,
                                )),
                                Err(_) => {
                                    // A panic can leave the preplanned
                                    // buffers half-written; drop the cache so
                                    // the retry pass retraces from scratch.
                                    tape_cache = None;
                                    None
                                }
                            }
                        } else {
                            g.reset();
                            let x = g.constant_with(n, dim, |buf| base.sample_fill(buf, rng));
                            let (z, logdet) = flow.forward_graph(&store, &mut g, x, depth);
                            let eval =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    g.external_rowwise_par(z, nofis_parallel::global(), sanitized)
                                }));
                            eval.ok().map(|gvals| {
                                let neg_tau_g = g.scale(gvals, -cfg.tau);
                                let shifted = g.add_scalar(neg_tau_g, cfg.tau * level);
                                let tempered = g.min_scalar(shifted, 0.0);
                                // base log-density of z: -D/2 ln 2π - ||z||²/2
                                let sq = g.square(z);
                                let ssq = g.sum_cols(sq);
                                let half = g.scale(ssq, -0.5);
                                let logp = g.add_scalar(half, -0.5 * dim as f64 * LN_2PI);

                                let a = g.add(logdet, tempered);
                                let per_sample = g.add(a, logp);
                                let mean = g.mean_all(per_sample);
                                let loss = g.neg(mean);
                                (
                                    g.value(loss).item(),
                                    g.value(logdet).max_abs(),
                                    Some((x, logdet, loss)),
                                )
                            })
                        };
                        let Some((chunk_loss, logdet_mag, traced)) = evaluated else {
                            divergence = Some((
                                epoch,
                                "a worker thread panicked while evaluating the minibatch".into(),
                            ));
                            break 'epochs;
                        };
                        consumed += n;
                        if !chunk_loss.is_finite() || logdet_mag > LOGDET_DIVERGENCE_LIMIT {
                            divergence = Some((
                                epoch,
                                format!("minibatch loss = {chunk_loss}, |logdet| = {logdet_mag}"),
                            ));
                            break 'epochs;
                        }
                        match traced {
                            None => {
                                let cache = tape_cache.as_mut().expect("replayed from this cache");
                                cache.step.backward();
                                opt.step_fused(&mut store, &cache.step);
                            }
                            Some((x, logdet, loss)) => {
                                g.backward(loss);
                                if cfg.compile_tape {
                                    let step = CompiledStep::compile(&g, loss, Some(x), &store);
                                    if tele::enabled(tele::Level::Debug) {
                                        tele::event(tele::Level::Debug, "train.compile")
                                            .field("stage", stage + 1)
                                            .field("n", n)
                                            .field("depth", depth)
                                            .field("instrs", step.len())
                                            .field("backward_nodes", step.backward_nodes())
                                            .emit();
                                    }
                                    tape_cache = Some(TapeCache {
                                        depth,
                                        n,
                                        logdet,
                                        loss,
                                        step,
                                    });
                                }
                                opt.step_fused(&mut store, &g);
                            }
                        }
                        stage_steps += 1;
                        global_step += 1;
                        if tele::enabled(tele::Level::Trace) {
                            let mut step = tele::event(tele::Level::Trace, "train.step")
                                .field("stage", stage + 1)
                                .field("epoch", epoch)
                                .field("n", n)
                                .field("engine", if replaying { "replay" } else { "trace" })
                                .field("loss", chunk_loss);
                            if let Some(norm) = opt.last_grad_norm() {
                                step = step.field("grad_norm", norm);
                            }
                            step.emit();
                        }
                        epoch_loss += chunk_loss * n as f64;
                        // Mid-stage checkpoint site: the snapshot describes
                        // the state *after* this optimizer step, so resume
                        // re-enters the loop at the next minibatch. A
                        // pending preemption request (deadline, shutdown)
                        // forces a write here regardless of the interval:
                        // the checkpoint is the preempted run's resume
                        // point, and resuming replays the exact §11 path,
                        // so a preempted-then-resumed run is bitwise
                        // identical to an uninterrupted one.
                        let preempt_reason = preempt::current_requested();
                        let mut preempt_ckpt = false;
                        if let Some(cp) = &mut checkpointer {
                            if preempt_reason.is_some() || cp.due(global_step) {
                                preempt_ckpt = cp.write(&Checkpoint {
                                    config_fingerprint: fingerprint,
                                    warm_fingerprint: warm_fp,
                                    dim: dim as u64,
                                    global_step,
                                    rng_state: rng.save_state(),
                                    oracle_spent: oracle.spent(),
                                    done: false,
                                    levels: levels.clone(),
                                    loss_history: loss_history.clone(),
                                    stage_reports: stage_reports.clone(),
                                    params: snapshot_params(&store),
                                    frozen: snapshot_frozen(&store),
                                    partial: Some(StagePartial {
                                        stage: stage as u64,
                                        epoch: epoch as u64,
                                        consumed: consumed as u64,
                                        epoch_loss,
                                        stage_losses: stage_losses.clone(),
                                        best_loss,
                                        retries: retries as u64,
                                        learning_rate: lr,
                                        stage_steps,
                                        best_params: snapshot_params(&best_store),
                                        epoch_start_params: snapshot_params(&epoch_start),
                                        adam: opt.export_state(),
                                    }),
                                    final_adam: None,
                                });
                            }
                        }
                        if let Some(reason) = preempt_reason {
                            tele::event(tele::Level::Warn, "train.preempted")
                                .field("stage", stage + 1)
                                .field("global_step", global_step)
                                .field("reason", reason.as_str())
                                .field("checkpointed", preempt_ckpt)
                                .emit();
                            return Err(NofisError::Preempted {
                                stage: stage + 1,
                                global_step,
                                checkpointed: preempt_ckpt,
                                reason: reason.as_str().to_string(),
                            });
                        }
                    }
                    epoch_loss /= consumed as f64;
                    if !epoch_loss.is_finite() || epoch_loss.abs() > LOSS_DIVERGENCE_LIMIT {
                        divergence = Some((epoch, format!("epoch loss = {epoch_loss}")));
                        break 'epochs;
                    }
                    tele::event(tele::Level::Debug, "train.epoch")
                        .field("stage", stage + 1)
                        .field("epoch", epoch)
                        .field("loss", epoch_loss)
                        .emit();
                    stage_losses.push(epoch_loss);
                    if epoch_loss < best_loss {
                        // Checkpoint the parameters that *produced* this
                        // best loss — the state at the epoch's start.
                        best_loss = epoch_loss;
                        best_store = epoch_start;
                    }
                }

                match divergence {
                    None => break (stage_losses, best_loss, truncated, opt.export_state()),
                    Some((epoch, message)) => {
                        tele::event(tele::Level::Warn, "train.divergence")
                            .field("stage", stage + 1)
                            .field("epoch", epoch)
                            .field("detail", message.as_str())
                            .emit();
                        retries += 1;
                        if retries > cfg.stage_retries {
                            return Err(NofisError::TrainingDiverged {
                                stage: stage + 1,
                                epoch,
                                retries: retries - 1,
                                message,
                            });
                        }
                        // Roll back to the best checkpoint and retry with a
                        // gentler learning rate and fresh optimizer state.
                        store = best_store;
                        lr *= 0.5;
                        tele::event(tele::Level::Warn, "train.rollback")
                            .field("stage", stage + 1)
                            .field("retries", retries)
                            .field("lr", lr)
                            .emit();
                    }
                }
            };

            stage_reports.push(StageReport {
                stage: stage + 1,
                level,
                epochs_run: stage_losses.len(),
                retries,
                rolled_back: retries > 0,
                best_loss,
                final_loss: stage_losses.last().copied().unwrap_or(f64::NAN),
                learning_rate: lr,
                truncated,
            });

            // Close the stage span with its summary and per-stage resource
            // deltas (oracle spend, buffer-pool traffic, pruning work) —
            // `nofis-trace` derives allocs/step and calls/step from these.
            if stage_span.is_enabled() {
                let stats = g.snapshot();
                let stage_calls = oracle.used() - stage_calls_start;
                let pool_hits = stats.pool.hits - stage_stats_start.pool.hits;
                let pool_misses = stats.pool.misses - stage_stats_start.pool.misses;
                stage_span.field("stage", stage + 1);
                stage_span.field("level", level);
                stage_span.field("epochs", stage_losses.len());
                stage_span.field("steps", stage_steps);
                stage_span.field("retries", retries);
                stage_span.field("best_loss", best_loss);
                stage_span.field(
                    "final_loss",
                    stage_losses.last().copied().unwrap_or(f64::NAN),
                );
                stage_span.field("truncated", truncated);
                stage_span.field("oracle_calls", stage_calls);
                stage_span.field("pool_hits", pool_hits);
                stage_span.field("pool_misses", pool_misses);
                stage_span.field(
                    "skipped_nodes",
                    stats.skipped_nodes - stage_stats_start.skipped_nodes,
                );
                stage_span.field(
                    "pruned_nodes",
                    stats.pruned_nodes - stage_stats_start.pruned_nodes,
                );
                tele::counter(tele::Level::Debug, "oracle.calls", oracle.used()).emit();
                tele::counter(tele::Level::Debug, "autograd.pool.hits", stats.pool.hits).emit();
                tele::counter(
                    tele::Level::Debug,
                    "autograd.pool.misses",
                    stats.pool.misses,
                )
                .emit();
                tele::counter(
                    tele::Level::Debug,
                    "autograd.backward.skipped",
                    stats.skipped_nodes,
                )
                .emit();
                tele::counter(
                    tele::Level::Debug,
                    "autograd.tape.pruned",
                    stats.pruned_nodes,
                )
                .emit();
                let requests = stats.pool.requests();
                if requests > 0 {
                    tele::gauge(
                        tele::Level::Debug,
                        "autograd.pool.hit_rate",
                        stats.pool.hits as f64 / requests as f64,
                    )
                    .emit();
                }
            }
            stage_span.end();
            loss_history.push(stage_losses);

            let stage_done = truncated || level == 0.0;
            // Stage-boundary checkpoint site: always written when
            // checkpointing is on, so a crash between stages costs nothing
            // and a finished run resumes straight into estimation.
            if let Some(cp) = &mut checkpointer {
                cp.write(&Checkpoint {
                    config_fingerprint: fingerprint,
                    warm_fingerprint: warm_fp,
                    dim: dim as u64,
                    global_step,
                    rng_state: rng.save_state(),
                    oracle_spent: oracle.spent(),
                    done: stage_done,
                    levels: levels.clone(),
                    loss_history: loss_history.clone(),
                    stage_reports: stage_reports.clone(),
                    params: snapshot_params(&store),
                    frozen: snapshot_frozen(&store),
                    partial: None,
                    // Stage-boundary only; resume never reads it — this is
                    // the donor payload a warm-started sibling inherits.
                    final_adam: Some(stage_adam),
                });
            }
            if stage_done {
                // The schedule reached the target event (or the budget
                // truncated the final stage): stop and save the remaining
                // budget (further stages at level 0 were observed to
                // over-concentrate the proposal).
                break;
            }
        }

        // Defensive: the fixed schedule always ends at 0.0 by validation;
        // the adaptive one breaks on 0.0 or forces it at the last stage.
        debug_assert_eq!(levels.last().copied(), Some(0.0));

        if tele::enabled(tele::Level::Info) {
            tele::event(tele::Level::Info, "train.end")
                .field("stages", levels.len())
                .field("oracle_calls", oracle.used())
                .emit();
            // The pool is guaranteed built by now (every minibatch ran
            // through it), so this read never constructs anything.
            let usage = nofis_parallel::global().usage();
            tele::counter(tele::Level::Debug, "parallel.runs", usage.runs).emit();
            tele::counter(tele::Level::Debug, "parallel.chunks", usage.chunks).emit();
            tele::counter(
                tele::Level::Debug,
                "parallel.inline_runs",
                usage.inline_runs,
            )
            .emit();
            tele::counter(
                tele::Level::Debug,
                "parallel.helper_dispatches",
                usage.helper_dispatches,
            )
            .emit();
        }

        Ok(TrainedNofis {
            flow,
            store,
            levels,
            loss_history,
            stage_reports,
            layers_per_stage: k,
        })
    }

    /// Trains and immediately produces the final estimate with
    /// `config.n_is` samples, sharing one hard budget
    /// ([`NofisConfig::max_calls`], unlimited when `None`) across both
    /// phases; returns the trained model and the estimate (whose
    /// [`IsResult::rung`] records which ladder rung produced it).
    ///
    /// # Errors
    ///
    /// Same as [`Nofis::train`] plus the estimation errors of
    /// [`TrainedNofis::estimate_within`].
    pub fn run<L: LimitState + ?Sized + Sync, R: Rng + StateRng>(
        &self,
        limit_state: &L,
        rng: &mut R,
    ) -> Result<(TrainedNofis, IsResult), NofisError> {
        let oracle = BudgetedOracle::new(limit_state, self.config.max_calls.unwrap_or(u64::MAX));
        let trained = self.train_within(&oracle, rng)?;
        let (result, _diag) = trained.estimate_within(&oracle, self.config.n_is, rng)?;
        Ok((trained, result))
    }

    /// Like [`Nofis::run`], but first tries to continue from the newest
    /// valid checkpoint in [`NofisConfig::checkpoint`]'s directory. With no
    /// checkpoint configured, no checkpoint on disk, or an empty directory,
    /// this is exactly [`Nofis::run`]; with one, the interrupted run is
    /// continued and produces results bitwise identical to an
    /// uninterrupted run of the same seed and configuration (DESIGN.md
    /// §11). Pass the same seeded RNG you would pass a fresh run — its
    /// state is overwritten from the checkpoint when one is found.
    ///
    /// # Errors
    ///
    /// Same as [`Nofis::run`], plus [`NofisError::Checkpoint`] when the
    /// newest valid checkpoint belongs to a different configuration or
    /// problem dimension.
    pub fn run_or_resume<L: LimitState + ?Sized + Sync, R: Rng + StateRng>(
        &self,
        limit_state: &L,
        rng: &mut R,
    ) -> Result<(TrainedNofis, IsResult), NofisError> {
        self.run_warm_or_resume(limit_state, rng, None)
    }

    /// Like [`Nofis::run_or_resume`], but when there is nothing to resume
    /// from and a warm-start donor is supplied, the fresh run seeds its flow
    /// parameters and Adam moments from the donor (a finished run of a
    /// *compatible* configuration — same flow shape and stage schedule, see
    /// [`checkpoint::warm_fingerprint`]) instead of drawing a random
    /// initialization. The RNG stream, threshold schedule, and budget
    /// accounting are untouched, so the warm run is deterministic: the same
    /// donor and seed always reproduce the same estimate bitwise.
    ///
    /// An on-disk resume checkpoint always wins over the donor — resuming
    /// must stay bitwise-faithful to the interrupted run (DESIGN.md §11).
    ///
    /// # Errors
    ///
    /// Same as [`Nofis::run_or_resume`], plus [`NofisError::Checkpoint`]
    /// when the donor's warm fingerprint or dimension does not match this
    /// configuration.
    pub fn run_warm_or_resume<L: LimitState + ?Sized + Sync, R: Rng + StateRng>(
        &self,
        limit_state: &L,
        rng: &mut R,
        warm: Option<&WarmStart>,
    ) -> Result<(TrainedNofis, IsResult), NofisError> {
        let oracle = BudgetedOracle::new(limit_state, self.config.max_calls.unwrap_or(u64::MAX));
        let trained = match self.resume_within(&oracle, rng)? {
            Some(trained) => trained,
            None => self.train_impl(&oracle, rng, None, warm)?,
        };
        let (result, _diag) = trained.estimate_within(&oracle, self.config.n_is, rng)?;
        Ok((trained, result))
    }

    /// Resumes training from the newest valid checkpoint, drawing simulator
    /// calls from an existing [`BudgetedOracle`] (whose spent-call count is
    /// restored from the checkpoint, so the hard budget spans the crash).
    /// Returns `Ok(None)` when there is nothing to resume from — no
    /// checkpoint configured, or no valid checkpoint on disk — and the
    /// caller should train from scratch. Corrupt or torn checkpoint files
    /// are skipped by the loader (falling back to the previous generation),
    /// never an error here.
    ///
    /// # Errors
    ///
    /// [`NofisError::Checkpoint`] when the newest valid checkpoint was
    /// written by a different configuration or dimension, plus the training
    /// errors of [`Nofis::train_within`] for the continued run.
    pub fn resume_within<L: LimitState + ?Sized + Sync, R: Rng + StateRng>(
        &self,
        oracle: &BudgetedOracle<'_, L>,
        rng: &mut R,
    ) -> Result<Option<TrainedNofis>, NofisError> {
        let Some(ckpt_cfg) = &self.config.checkpoint else {
            return Ok(None);
        };
        let ckpt_dir = ckpt_cfg.effective_dir();
        let loaded = checkpoint::load_latest(&ckpt_dir).map_err(|e| NofisError::Checkpoint {
            message: format!("cannot list {}: {e}", ckpt_dir.display()),
        })?;
        let Some((generation, ckpt)) = loaded else {
            return Ok(None);
        };

        let dim = oracle.dim();
        if dim < 2 {
            return Err(NofisError::InvalidInput {
                message: format!(
                    "NOFIS requires dim >= 2 (RealNVP couplings split coordinates), got {dim}"
                ),
            });
        }
        if ckpt.dim != dim as u64 {
            return Err(NofisError::Checkpoint {
                message: format!(
                    "checkpoint dimension {} does not match the limit state's {dim}",
                    ckpt.dim
                ),
            });
        }
        if ckpt.config_fingerprint != checkpoint::config_fingerprint(&self.config, dim) {
            return Err(NofisError::Checkpoint {
                message: "checkpoint was written by a different configuration; clear the \
                          checkpoint directory (or restore the original configuration) to proceed"
                    .into(),
            });
        }
        let cfg = &self.config;
        let k = cfg.layers_per_stage;
        let max_stages = cfg.levels.max_stages();

        // Rebuild the flow structure with a throwaway RNG — the parameter
        // values are overwritten from the checkpoint, and the live stream
        // must stay at its restored position.
        let mut store = ParamStore::new();
        let mut init_rng = StdRng::seed_from_u64(0);
        let flow = RealNvp::new(
            &mut store,
            dim,
            max_stages * k,
            cfg.hidden,
            cfg.s_max,
            &mut init_rng,
        );
        restore_into(&mut store, &ckpt.params, &ckpt.frozen)?;

        tele::event(tele::Level::Info, "ckpt.load")
            .field("generation", generation)
            .field("global_step", ckpt.global_step)
            .field("done", ckpt.done)
            .field("mid_stage", ckpt.partial.is_some())
            .field("oracle_spent", ckpt.oracle_spent)
            .emit();

        oracle.restore_spent(ckpt.oracle_spent);
        rng.load_state(ckpt.rng_state);

        if ckpt.done {
            return Ok(Some(TrainedNofis {
                flow,
                store,
                levels: ckpt.levels,
                loss_history: ckpt.loss_history,
                stage_reports: ckpt.stage_reports,
                layers_per_stage: k,
            }));
        }

        let start_stage = match &ckpt.partial {
            Some(p) => p.stage as usize,
            None => ckpt.stage_reports.len(),
        };
        if start_stage >= max_stages
            || (ckpt.partial.is_some() && ckpt.levels.len() != start_stage + 1)
            || (ckpt.partial.is_none() && ckpt.levels.len() != start_stage)
        {
            return Err(NofisError::Checkpoint {
                message: format!(
                    "stage cursor out of range (stage {start_stage}, {} levels, {} stages max)",
                    ckpt.levels.len(),
                    max_stages
                ),
            });
        }
        let carry = match ckpt.partial {
            None => None,
            Some(p) => {
                if p.epoch as usize >= cfg.epochs || p.consumed as usize > cfg.batch_size {
                    return Err(NofisError::Checkpoint {
                        message: format!(
                            "epoch cursor out of range (epoch {}, consumed {})",
                            p.epoch, p.consumed
                        ),
                    });
                }
                let mut best_store = store.clone();
                restore_into(&mut best_store, &p.best_params, &ckpt.frozen)?;
                let mut epoch_start = store.clone();
                restore_into(&mut epoch_start, &p.epoch_start_params, &ckpt.frozen)?;
                Some(StageCarry {
                    epoch: p.epoch as usize,
                    consumed: p.consumed as usize,
                    epoch_loss: p.epoch_loss,
                    epoch_start,
                    stage_losses: p.stage_losses,
                    best_loss: p.best_loss,
                    best_store,
                    retries: p.retries as usize,
                    learning_rate: p.learning_rate,
                    stage_steps: p.stage_steps,
                    adam: p.adam,
                })
            }
        };
        self.train_impl(
            oracle,
            rng,
            Some(ResumeRun {
                flow,
                store,
                levels: ckpt.levels,
                loss_history: ckpt.loss_history,
                stage_reports: ckpt.stage_reports,
                global_step: ckpt.global_step,
                start_stage,
                carry,
            }),
            None,
        )
        .map(Some)
    }
}

/// Mid-stage resume cursor rebuilt from a validated
/// [`StagePartial`]: the retry-loop state the resumed stage enters with.
struct StageCarry {
    epoch: usize,
    consumed: usize,
    epoch_loss: f64,
    epoch_start: ParamStore,
    stage_losses: Vec<f64>,
    best_loss: f64,
    best_store: ParamStore,
    retries: usize,
    learning_rate: f64,
    stage_steps: u64,
    adam: AdamState,
}

/// A fully validated and rebuilt resume request handed to `train_impl`.
struct ResumeRun {
    flow: RealNvp,
    store: ParamStore,
    levels: Vec<f64>,
    loss_history: Vec<Vec<f64>>,
    stage_reports: Vec<StageReport>,
    global_step: u64,
    start_stage: usize,
    carry: Option<StageCarry>,
}

/// Clones the store's parameter tensors in id order (the checkpoint's
/// canonical parameter layout).
fn snapshot_params(store: &ParamStore) -> Vec<Tensor> {
    store.iter().map(|(_, t)| t.clone()).collect()
}

/// The per-parameter frozen flags in id order.
fn snapshot_frozen(store: &ParamStore) -> Vec<bool> {
    store.iter().map(|(id, _)| store.is_frozen(id)).collect()
}

/// Overwrites `store`'s parameter values and frozen flags from a
/// checkpoint, validating counts and shapes against the freshly built flow.
fn restore_into(
    store: &mut ParamStore,
    params: &[Tensor],
    frozen: &[bool],
) -> Result<(), NofisError> {
    if params.len() != store.len() || frozen.len() != store.len() {
        return Err(NofisError::Checkpoint {
            message: format!(
                "checkpoint holds {} parameter tensors and {} frozen flags, the flow has {}",
                params.len(),
                frozen.len(),
                store.len()
            ),
        });
    }
    let ids: Vec<ParamId> = store.iter().map(|(id, _)| id).collect();
    for ((t, &f), id) in params.iter().zip(frozen.iter()).zip(ids) {
        let current = store.get(id);
        if (current.rows(), current.cols()) != (t.rows(), t.cols()) {
            return Err(NofisError::Checkpoint {
                message: format!(
                    "parameter {} has shape {}x{}, the flow expects {}x{}",
                    id.index(),
                    t.rows(),
                    t.cols(),
                    current.rows(),
                    current.cols()
                ),
            });
        }
        *store.get_mut(id) = t.clone();
        store.set_frozen(id, f);
    }
    Ok(())
}

/// A trained NOFIS model: the flow, its parameters, the realized threshold
/// schedule, the per-stage training losses and health reports.
#[derive(Debug, Clone)]
pub struct TrainedNofis {
    flow: RealNvp,
    store: ParamStore,
    levels: Vec<f64>,
    loss_history: Vec<Vec<f64>>,
    stage_reports: Vec<StageReport>,
    layers_per_stage: usize,
}

impl TrainedNofis {
    /// The realized thresholds `a_1 > … > a_M = 0` (for adaptive schedules
    /// these are the pilot-quantile choices actually used).
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// Per-stage, per-epoch training losses (Figure 3e of the paper).
    pub fn loss_history(&self) -> &[Vec<f64>] {
        &self.loss_history
    }

    /// Per-stage training health reports (retries, rollbacks, truncation).
    pub fn stage_reports(&self) -> &[StageReport] {
        &self.stage_reports
    }

    /// Number of trained stages `M`.
    pub fn stages(&self) -> usize {
        self.levels.len()
    }

    /// Coupling layers per stage (`K`).
    pub fn layers_per_stage(&self) -> usize {
        self.layers_per_stage
    }

    /// Total flow depth actually trained (`M·K`).
    pub fn depth(&self) -> usize {
        self.stages() * self.layers_per_stage
    }

    /// The final proposal distribution `q_{MK}`.
    pub fn proposal(&self) -> FlowProposal<'_> {
        FlowProposal::new(&self.flow, &self.store, self.depth())
    }

    /// The intermediate stage proposal `q_{mK}` for `stage` in `1..=M`
    /// (Figure 3a–d of the paper).
    ///
    /// # Panics
    ///
    /// Panics if `stage` is zero or exceeds the trained stage count.
    pub fn stage_proposal(&self, stage: usize) -> FlowProposal<'_> {
        assert!(
            stage >= 1 && stage <= self.stages(),
            "stage {stage} out of range 1..={}",
            self.stages()
        );
        FlowProposal::new(&self.flow, &self.store, stage * self.layers_per_stage)
    }

    /// Final importance-sampling estimate of `P[g(x) ≤ 0]` (Eq. 2), guarded
    /// by the fallback ladder of [`TrainedNofis::estimate_within`]. The
    /// standalone call is given a hard budget of `4 · n_is` simulator calls
    /// (one `n_is` tranche per ladder rung); the healthy path consumes
    /// exactly `n_is`.
    ///
    /// # Errors
    ///
    /// See [`TrainedNofis::estimate_within`].
    pub fn estimate<L: LimitState + ?Sized + Sync>(
        &self,
        limit_state: &L,
        n_is: usize,
        rng: &mut impl Rng,
    ) -> Result<IsResult, NofisError> {
        self.estimate_with_diagnostics(limit_state, n_is, rng)
            .map(|(result, _)| result)
    }

    /// Like [`TrainedNofis::estimate`] but also returns
    /// [`WeightDiagnostics`] over the finite importance weights of the
    /// accepted rung (`None` when that rung observed no failure hits, or
    /// for the plain-Monte-Carlo rung, which has no weights).
    ///
    /// # Errors
    ///
    /// See [`TrainedNofis::estimate_within`].
    pub fn estimate_with_diagnostics<L: LimitState + ?Sized + Sync>(
        &self,
        limit_state: &L,
        n_is: usize,
        rng: &mut impl Rng,
    ) -> Result<(IsResult, Option<WeightDiagnostics>), NofisError> {
        let budget = (n_is as u64).saturating_mul(ESTIMATE_BUDGET_FACTOR);
        let oracle = BudgetedOracle::new(limit_state, budget);
        self.estimate_within(&oracle, n_is, rng)
    }

    /// The guarded estimation fallback ladder, drawing all simulator calls
    /// from `oracle`:
    ///
    /// 1. the final proposal `q_{MK}`;
    /// 2. the previous stage's proposal `q_{(M−1)K}` (less concentrated);
    /// 3. the defensive mixture `α·p + (1−α)·q_{MK}` with `α = 1/2`, whose
    ///    weights are bounded by `1/α`;
    /// 4. plain Monte Carlo within the remaining budget, accepted
    ///    unconditionally.
    ///
    /// A rung is accepted when its estimate is finite, it observed at least
    /// one failure hit, and [`WeightDiagnostics::looks_healthy`] holds over
    /// its finite log-weights; otherwise the ladder descends. The accepted
    /// rung is recorded in [`IsResult::rung`]. If the budget runs out
    /// mid-ladder, the last computed (finite, budget-respecting) result is
    /// returned instead of overrunning.
    ///
    /// # Errors
    ///
    /// * [`NofisError::InvalidInput`] if `n_is == 0` or the oracle's
    ///   dimension does not match the trained flow.
    /// * [`NofisError::BudgetExhausted`] if not even the first rung could
    ///   draw a single sample.
    pub fn estimate_within<L: LimitState + ?Sized + Sync>(
        &self,
        oracle: &BudgetedOracle<'_, L>,
        n_is: usize,
        rng: &mut impl Rng,
    ) -> Result<(IsResult, Option<WeightDiagnostics>), NofisError> {
        let mut span = tele::span(tele::Level::Info, "estimate");
        let calls_start = oracle.used();
        let result = self.estimate_ladder(oracle, n_is, rng);
        if span.is_enabled() {
            match &result {
                Ok((r, _)) => {
                    span.field("rung", rung_label(&r.rung));
                    span.field("rank", r.rung.rank());
                    span.field("estimate", r.estimate);
                    span.field("hits", r.hits);
                    span.field("ess", r.effective_sample_size);
                }
                Err(e) => span.field("error", e.to_string()),
            }
            span.field("oracle_calls", oracle.used() - calls_start);
        }
        span.end();
        result
    }

    /// The ladder body of [`TrainedNofis::estimate_within`], separated so
    /// the telemetry span wraps every return path exactly once.
    fn estimate_ladder<L: LimitState + ?Sized + Sync>(
        &self,
        oracle: &BudgetedOracle<'_, L>,
        n_is: usize,
        rng: &mut impl Rng,
    ) -> Result<(IsResult, Option<WeightDiagnostics>), NofisError> {
        if n_is == 0 {
            return Err(NofisError::InvalidInput {
                message: "n_is must be positive".into(),
            });
        }
        if oracle.dim() != self.flow.dim() {
            return Err(NofisError::InvalidInput {
                message: format!(
                    "limit state dimension {} does not match trained flow dimension {}",
                    oracle.dim(),
                    self.flow.dim()
                ),
            });
        }
        let p = StandardGaussian::new(self.flow.dim());
        let final_prop = self.proposal();

        // Rung 1: the final proposal.
        let first = match run_rung(
            oracle,
            &final_prop,
            &p,
            n_is,
            FallbackRung::FinalProposal,
            rng,
        ) {
            Some(r) => r,
            None => return Err(budget_error(oracle, "the final-proposal estimate".into())),
        };
        if rung_is_healthy(&first) {
            return Ok(first);
        }
        let mut last = first;

        // Rung 2: the previous stage's (less concentrated) proposal.
        if self.stages() >= 2 {
            let prev_stage = self.stages() - 1;
            let prev = self.stage_proposal(prev_stage);
            match run_rung(
                oracle,
                &prev,
                &p,
                n_is,
                FallbackRung::StageProposal { stage: prev_stage },
                rng,
            ) {
                Some(r) => {
                    if rung_is_healthy(&r) {
                        return Ok(r);
                    }
                    if r.0.estimate.is_finite() {
                        last = r;
                    }
                }
                None => return accept_last(last),
            }
        }

        // Rung 3: the defensive mixture with the base distribution.
        if let Ok(defensive) = DefensiveMixture::new(&final_prop, DEFENSIVE_ALPHA) {
            match run_rung(
                oracle,
                &defensive,
                &p,
                n_is,
                FallbackRung::DefensiveMixture {
                    alpha: DEFENSIVE_ALPHA,
                },
                rng,
            ) {
                Some(r) => {
                    if rung_is_healthy(&r) {
                        return Ok(r);
                    }
                    if r.0.estimate.is_finite() {
                        last = r;
                    }
                }
                None => return accept_last(last),
            }
        }

        // Rung 4: plain Monte Carlo within the remaining budget, accepted
        // unconditionally — it cannot produce degenerate weights.
        let n = oracle.grant(n_is);
        if n == 0 {
            return accept_last(last);
        }
        let exec = sharded_exec(oracle);
        let mc = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            monte_carlo_with_exec(
                oracle,
                0.0,
                n,
                rng,
                nofis_parallel::global(),
                as_batch_eval(&exec),
            )
        })) {
            Ok(mc) => mc,
            Err(_) => {
                tele::event(tele::Level::Warn, "estimate.rung_panicked")
                    .field("rung", rung_label(&FallbackRung::PlainMonteCarlo))
                    .field("rank", FallbackRung::PlainMonteCarlo.rank())
                    .emit();
                return accept_last(last);
            }
        };
        let result = IsResult {
            estimate: mc.estimate(),
            hits: mc.hits,
            effective_sample_size: mc.hits as f64,
            rung: FallbackRung::PlainMonteCarlo,
        };
        tele::event(tele::Level::Debug, "estimate.rung")
            .field("rung", rung_label(&result.rung))
            .field("rank", result.rung.rank())
            .field("granted", n)
            .field("estimate", result.estimate)
            .field("hits", result.hits)
            .field("ess", result.effective_sample_size)
            .field("healthy", true)
            .emit();
        Ok((result, None))
    }

    /// Exact log-density of the final proposal at `x` (used by the
    /// visualization harnesses).
    pub fn log_density(&self, x: &[f64]) -> f64 {
        self.flow.log_density(&self.store, x, self.depth())
    }

    /// Borrows the underlying flow and parameters (read-only diagnostics).
    pub fn flow(&self) -> (&RealNvp, &ParamStore) {
        (&self.flow, &self.store)
    }
}

/// Accepts the best rung seen so far when the ladder is forced to stop
/// early (budget dry or the plain-MC rung lost to a panic) — unless that
/// best is itself unusable, in which case the caller gets a typed error
/// rather than an `Ok` carrying a non-finite estimate.
fn accept_last(
    last: (IsResult, Option<WeightDiagnostics>),
) -> Result<(IsResult, Option<WeightDiagnostics>), NofisError> {
    if last.0.estimate.is_finite() {
        Ok(last)
    } else {
        Err(NofisError::DegenerateProposal {
            context: "no estimation ladder rung produced a usable (finite) estimate".into(),
        })
    }
}

/// The shared shard pool serving this oracle, wrapped for the estimators'
/// external-executor seam (DESIGN.md §16). Leases are taken against
/// `oracle` itself, so sharded evaluation charges exactly the meter the
/// in-process calls would. `None` — fleet off, oracle unregistered, or
/// pool degraded — always means "evaluate in-process".
fn sharded_exec<'a, L: LimitState + ?Sized + Sync>(
    oracle: &'a BudgetedOracle<'_, L>,
) -> Option<ShardedEval<'a>> {
    nofis_shard::pool_for(oracle.name())
        .map(|pool| ShardedEval::new(pool, Some(oracle as &dyn BudgetSource)))
}

/// Borrows an optional [`ShardedEval`] as the `Option<&dyn BatchEval>` the
/// estimator entry points take.
fn as_batch_eval<'a>(exec: &'a Option<ShardedEval<'a>>) -> Option<&'a dyn BatchEval> {
    exec.as_ref().map(|e| e as &dyn BatchEval)
}

/// Runs one ladder rung within the budget: `None` when not even one sample
/// is affordable, otherwise the tagged result plus diagnostics over the
/// finite log-weights.
fn run_rung<L: LimitState + ?Sized + Sync, Q: Proposal + ?Sized + Sync>(
    oracle: &BudgetedOracle<'_, L>,
    proposal: &Q,
    p: &StandardGaussian,
    n_is: usize,
    rung: FallbackRung,
    rng: &mut impl Rng,
) -> Option<(IsResult, Option<WeightDiagnostics>)> {
    let n = oracle.grant(n_is);
    if n == 0 {
        tele::event(tele::Level::Debug, "estimate.rung")
            .field("rung", rung_label(&rung))
            .field("rank", rung.rank())
            .field("granted", 0u64)
            .emit();
        return None;
    }
    // A worker-thread panic during the pooled batch evaluation is contained
    // here and surfaces as an unhealthy rung, so the ladder descends to a
    // less demanding proposal instead of taking the whole estimate down.
    let exec = sharded_exec(oracle);
    let eval = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        importance_sampling_detailed_with_exec(
            oracle,
            0.0,
            proposal,
            p,
            n,
            rng,
            nofis_parallel::global(),
            as_batch_eval(&exec),
        )
    }));
    let (result, log_weights) = match eval {
        Ok(v) => v,
        Err(_) => {
            tele::event(tele::Level::Warn, "estimate.rung_panicked")
                .field("rung", rung_label(&rung))
                .field("rank", rung.rank())
                .emit();
            let poisoned = IsResult {
                estimate: f64::NAN,
                hits: 0,
                effective_sample_size: 0.0,
                rung,
            };
            return Some((poisoned, None));
        }
    };
    let finite: Vec<f64> = log_weights.into_iter().filter(|w| w.is_finite()).collect();
    let diag = if finite.is_empty() {
        None
    } else {
        Some(WeightDiagnostics::from_log_weights(&finite))
    };
    let out = (result.with_rung(rung), diag);
    if tele::enabled(tele::Level::Debug) {
        let (r, d) = &out;
        let mut ev = tele::event(tele::Level::Debug, "estimate.rung")
            .field("rung", rung_label(&r.rung))
            .field("rank", r.rung.rank())
            .field("granted", n)
            .field("estimate", r.estimate)
            .field("hits", r.hits)
            .field("ess", r.effective_sample_size)
            .field("healthy", rung_is_healthy(&out));
        if let Some(d) = d {
            ev = ev.field("max_weight_share", d.max_weight_share);
            if let Some(tail) = d.hill_tail_index {
                ev = ev.field("hill_tail_index", tail);
            }
        }
        ev.emit();
    }
    Some(out)
}

/// Stable machine-readable label for a ladder rung in telemetry fields
/// (`FallbackRung`'s `Display` is for humans and carries parameters).
fn rung_label(rung: &FallbackRung) -> &'static str {
    match rung {
        FallbackRung::FinalProposal => "final_proposal",
        FallbackRung::StageProposal { .. } => "stage_proposal",
        FallbackRung::DefensiveMixture { .. } => "defensive_mixture",
        FallbackRung::PlainMonteCarlo => "plain_monte_carlo",
    }
}

/// A rung is accepted when its estimate is finite, it saw at least one
/// failure hit, and the weight diagnostics look healthy.
fn rung_is_healthy((result, diag): &(IsResult, Option<WeightDiagnostics>)) -> bool {
    result.estimate.is_finite()
        && result.hits > 0
        && diag.as_ref().is_some_and(|d| d.looks_healthy())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nofis_prob::{log_error, normal_cdf, CountingOracle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// g(x) = beta - x0 in 2-D: P[fail] = 1 - Φ(beta), analytic gradient.
    struct HalfSpace {
        beta: f64,
    }
    impl LimitState for HalfSpace {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            self.beta - x[0]
        }
        fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
            (self.beta - x[0], vec![-1.0, 0.0])
        }
        fn name(&self) -> &str {
            "halfspace"
        }
    }

    fn small_config(levels: Levels) -> NofisConfig {
        NofisConfig {
            levels,
            layers_per_stage: 4,
            hidden: 16,
            epochs: 12,
            batch_size: 100,
            n_is: 1000,
            tau: 15.0,
            learning_rate: 8e-3,
            ..Default::default()
        }
    }

    #[test]
    fn estimates_halfspace_tail_with_fixed_levels() {
        let ls = HalfSpace { beta: 3.5 }; // P ≈ 2.33e-4
        let oracle = CountingOracle::new(&ls);
        let cfg = small_config(Levels::Fixed(vec![2.0, 1.0, 0.0]));
        let budget = cfg.training_budget() + cfg.n_is as u64;
        let nofis = Nofis::new(cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let (trained, result) = nofis.run(&oracle, &mut rng).unwrap();

        let golden = 1.0 - normal_cdf(3.5);
        let err = log_error(result.estimate, golden);
        assert!(
            err < 0.7,
            "estimate {} vs golden {golden}: log error {err}",
            result.estimate
        );
        // The healthy path uses the final proposal and exactly the nominal
        // budget — no hidden fallback resampling.
        assert_eq!(result.rung, FallbackRung::FinalProposal);
        assert_eq!(oracle.calls(), budget);
        assert_eq!(trained.levels(), &[2.0, 1.0, 0.0]);
        assert_eq!(trained.stages(), 3);
        assert_eq!(trained.depth(), 12);
        let reports = trained.stage_reports();
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(|r| !r.rolled_back && !r.truncated));
        assert!(reports.iter().all(|r| r.epochs_run == 12));
    }

    #[test]
    fn adaptive_levels_reach_zero() {
        let ls = HalfSpace { beta: 3.0 };
        let oracle = CountingOracle::new(&ls);
        let cfg = small_config(Levels::AdaptiveQuantile {
            max_stages: 4,
            p0: 0.15,
            pilot: 100,
        });
        let nofis = Nofis::new(cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let trained = nofis.train(&oracle, &mut rng).unwrap();
        let levels = trained.levels();
        assert_eq!(*levels.last().unwrap(), 0.0);
        // Levels decrease strictly until 0.0, then may repeat 0.0
        // (refinement stages).
        let nonzero: Vec<f64> = levels.iter().copied().take_while(|&l| l > 0.0).collect();
        assert!(nonzero.windows(2).all(|w| w[1] < w[0]), "levels {levels:?}");
    }

    #[test]
    fn training_reduces_first_stage_loss() {
        let ls = HalfSpace { beta: 3.0 };
        let cfg = small_config(Levels::Fixed(vec![1.5, 0.0]));
        let nofis = Nofis::new(cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let trained = nofis.train(&ls, &mut rng).unwrap();
        let losses = &trained.loss_history()[0];
        let head = losses[..3].iter().sum::<f64>() / 3.0;
        let tail = losses[losses.len() - 3..].iter().sum::<f64>() / 3.0;
        assert!(tail < head, "losses did not decrease: {losses:?}");
        // The report agrees with the loss history.
        let report = &trained.stage_reports()[0];
        assert_eq!(report.epochs_run, losses.len());
        assert_eq!(report.final_loss, *losses.last().unwrap());
        assert!(report.best_loss <= report.final_loss);
    }

    #[test]
    fn stage_proposals_are_exposed() {
        let ls = HalfSpace { beta: 3.0 };
        let cfg = small_config(Levels::Fixed(vec![1.0, 0.0]));
        let nofis = Nofis::new(cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let trained = nofis.train(&ls, &mut rng).unwrap();
        assert_eq!(trained.stage_proposal(1).depth(), 4);
        assert_eq!(trained.stage_proposal(2).depth(), 8);
        assert_eq!(trained.proposal().depth(), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn stage_proposal_bounds_checked() {
        let ls = HalfSpace { beta: 3.0 };
        let cfg = small_config(Levels::Fixed(vec![0.0]));
        let trained = Nofis::new(cfg)
            .unwrap()
            .train(&ls, &mut StdRng::seed_from_u64(0))
            .unwrap();
        let _ = trained.stage_proposal(2);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = NofisConfig {
            levels: Levels::Fixed(vec![1.0]), // does not end at 0
            ..Default::default()
        };
        assert!(Nofis::new(cfg).is_err());
    }

    #[test]
    fn one_dimensional_input_is_invalid_input() {
        struct OneD;
        impl LimitState for OneD {
            fn dim(&self) -> usize {
                1
            }
            fn value(&self, x: &[f64]) -> f64 {
                3.0 - x[0]
            }
        }
        let cfg = small_config(Levels::Fixed(vec![0.0]));
        let nofis = Nofis::new(cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let err = nofis.train(&OneD, &mut rng).unwrap_err();
        assert!(matches!(err, NofisError::InvalidInput { .. }), "{err}");
        let err = nofis.run(&OneD, &mut rng).unwrap_err();
        assert!(matches!(err, NofisError::InvalidInput { .. }), "{err}");
    }

    #[test]
    fn zero_n_is_is_invalid_input() {
        let ls = HalfSpace { beta: 3.0 };
        let cfg = NofisConfig {
            epochs: 2,
            ..small_config(Levels::Fixed(vec![0.0]))
        };
        let mut rng = StdRng::seed_from_u64(0);
        let trained = Nofis::new(cfg).unwrap().train(&ls, &mut rng).unwrap();
        let err = trained.estimate(&ls, 0, &mut rng).unwrap_err();
        assert!(matches!(err, NofisError::InvalidInput { .. }), "{err}");
    }

    #[test]
    fn budget_exhaustion_before_final_stage_is_an_error() {
        let ls = HalfSpace { beta: 3.5 };
        let oracle = CountingOracle::new(&ls);
        let cfg = NofisConfig {
            max_calls: Some(150), // stage 1 alone needs 12 * 100 calls
            ..small_config(Levels::Fixed(vec![2.0, 1.0, 0.0]))
        };
        let nofis = Nofis::new(cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let err = nofis.run(&oracle, &mut rng).unwrap_err();
        assert!(matches!(err, NofisError::BudgetExhausted { .. }), "{err}");
        // The cap is honored exactly: truncated grants, no overrun.
        assert_eq!(oracle.calls(), 150);
    }

    #[test]
    fn final_stage_budget_truncation_is_graceful() {
        let ls = HalfSpace { beta: 2.0 };
        let oracle = CountingOracle::new(&ls);
        // Single stage at level 0: 12 epochs * 100 calls nominal, capped so
        // only ~3 epochs fit.
        let cfg = NofisConfig {
            max_calls: Some(350),
            ..small_config(Levels::Fixed(vec![0.0]))
        };
        let nofis = Nofis::new(cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let trained = nofis.train(&oracle, &mut rng).unwrap();
        let report = &trained.stage_reports()[0];
        assert!(report.truncated, "report: {report}");
        assert!(report.epochs_run >= 1 && report.epochs_run < 12);
    }
}
