use crate::checkpoint::{self, Checkpoint, Checkpointer, StagePartial, WarmStart};
use crate::{ConfigError, FlowProposal, Levels, NofisConfig, NofisError, StageReport};
use nofis_autograd::{CompiledStep, Graph, GraphStats, ParamId, ParamStore, Tensor, Var};
use nofis_flows::RealNvp;
use nofis_nn::{Adam, AdamState};
use nofis_prob::{
    batch_values_with, importance_sampling, quantile, BudgetedOracle, IsResult, LimitState,
    Proposal, StandardGaussian, LN_2PI,
};
use nofis_telemetry as tele;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng, StateRng};

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

/// The one weight-health rule: a finite estimate with at least one
/// failure hit and a PSIS tail shape `k̂ < 0.7`, the bound above which
/// Vehtari et al. (arXiv 1507.02646) find importance-sampling estimates
/// unreliable. A tail too short to fit is not healthy.
fn looks_healthy(r: &IsResult) -> bool {
    r.estimate.is_finite() && r.hits > 0 && r.pareto_k.is_some_and(|k| k < 0.7)
}

/// Epoch-loss magnitude beyond which training is declared divergent (a
/// healthy tempered-KL loss is `O(D)`, nowhere near this).
const LOSS_DIVERGENCE_LIMIT: f64 = 1e12;

/// Per-row `|log det|` beyond which a minibatch is declared divergent: the
/// coupling clamp bounds healthy log-dets to `O(depth · D · s_max)`.
const LOGDET_DIVERGENCE_LIMIT: f64 = 1e6;

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
    /// The process-wide `nofis_parallel` pool is sized once, on first use,
    /// from the `NOFIS_THREADS` environment variable (else the machine's
    /// available parallelism). The variable is validated here — a
    /// malformed value (e.g. `NOFIS_THREADS=fourx`) is a configuration
    /// error, never a silent fallback.
    ///
    /// Telemetry sinks selected by the `NOFIS_LOG` / `NOFIS_TRACE_FILE` /
    /// `NOFIS_FLIGHT_DIR` environment variables are installed process-wide
    /// on the first successful `Nofis::new` call, unless a program already
    /// installed its own with `nofis_telemetry::init`; later calls leave
    /// them untouched. `NOFIS_FLIGHT_DIR` adds a flight recorder that
    /// dumps the last events as JSONL on a panic or an injected fault
    /// (DESIGN.md §10).
    ///
    /// Checkpoint settings from [`NofisConfig::checkpoint`] are combined
    /// with the `NOFIS_CKPT_DIR` / `NOFIS_CKPT_EVERY` environment
    /// variables: `NOFIS_CKPT_DIR` enables checkpointing when the config
    /// has none (an explicit directory wins), and `NOFIS_CKPT_EVERY`
    /// overrides the config's write interval. A `NOFIS_FAULT_PLAN`
    /// variable, if present, installs the deterministic fault-injection
    /// plan (`nofis_faults`) process-wide on the first call.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is invalid, the
    /// `NOFIS_THREADS` / `NOFIS_CKPT_*` environment variables do not
    /// parse, a requested trace file cannot be created, or
    /// `NOFIS_FAULT_PLAN` is malformed.
    pub fn new(mut config: NofisConfig) -> Result<Self, ConfigError> {
        config.apply_checkpoint_env()?;
        config.validate()?;
        nofis_parallel::env_threads_checked().map_err(|e| ConfigError::new(e.to_string()))?;
        tele::init_from_env().map_err(|e| ConfigError::new(e.to_string()))?;
        nofis_faults::init_from_env().map_err(|e| ConfigError::new(e.to_string()))?;
        Ok(Nofis { config })
    }

    /// Borrows the configuration.
    pub fn config(&self) -> &NofisConfig {
        &self.config
    }

    /// A hard-budgeted view of `limit_state`, capped at
    /// [`NofisConfig::max_calls`] (unlimited when `None`).
    fn budgeted<'l, L: LimitState + ?Sized>(&self, limit_state: &'l L) -> BudgetedOracle<'l, L> {
        BudgetedOracle::new(limit_state, self.config.max_calls.unwrap_or(u64::MAX))
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
        self.train_within(&self.budgeted(limit_state), rng)
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
        self.train_fresh(oracle, rng, None)
    }

    /// Trains a fresh run: cold, or — given a `warm` donor — seeded from a
    /// finished run with a matching [`checkpoint::warm_fingerprint`].
    /// Everything else — the RNG stream, the threshold schedule, the
    /// budget — runs exactly as a cold start, so a warm run is a cold run
    /// with a different initializer.
    fn train_fresh<L: LimitState + ?Sized + Sync, R: Rng + StateRng>(
        &self,
        oracle: &BudgetedOracle<'_, L>,
        rng: &mut R,
        warm: Option<&WarmStart>,
    ) -> Result<TrainedNofis, NofisError> {
        let run = match warm {
            None => Run::cold(&self.config, oracle.dim(), rng)?,
            Some(ws) => Run::warm(&self.config, oracle.dim(), ws)?,
        };
        StageRunner::new(&self.config, oracle, rng).run(run)
    }

    /// Trains and immediately produces the final estimate with
    /// `config.n_is` samples, sharing one hard budget
    /// ([`NofisConfig::max_calls`], unlimited when `None`) across both
    /// phases; returns the trained model and the estimate.
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
        let oracle = self.budgeted(limit_state);
        let trained = self.train_within(&oracle, rng)?;
        let (result, _healthy) = trained.estimate_within(&oracle, self.config.n_is, rng)?;
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
        let oracle = self.budgeted(limit_state);
        let trained = match self.resume_within(&oracle, rng)? {
            Some(trained) => trained,
            None => self.train_fresh(&oracle, rng, warm)?,
        };
        let (result, _healthy) = trained.estimate_within(&oracle, self.config.n_is, rng)?;
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
    /// A resumed run goes through the same stage loop as an uninterrupted
    /// one, so after the restore point both execute literally the same
    /// instructions — which is what makes resume bitwise-exact.
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
        let done = ckpt.done;
        let run = Run::from_checkpoint(&self.config, oracle, rng, generation, ckpt)?;
        if done {
            return Ok(Some(run.into_trained(self.config.layers_per_stage)));
        }
        StageRunner::new(&self.config, oracle, rng)
            .run(run)
            .map(Some)
    }
}

/// One training run's state: the flow, its parameters, and everything the
/// stage loop carries from stage to stage. A run starts cold, warm from a
/// donor, or from a checkpoint; it leaves as a [`Checkpoint`]
/// ([`Run::snapshot`]) or a [`TrainedNofis`] ([`Run::into_trained`]).
struct Run {
    flow: RealNvp,
    store: ParamStore,
    levels: Vec<f64>,
    loss_history: Vec<Vec<f64>>,
    stage_reports: Vec<StageReport>,
    /// Optimizer steps taken across all stages (checkpoint scheduling).
    global_step: u64,
    /// The stage in flight when a mid-stage checkpoint was written; the
    /// loop re-enters it instead of opening a new one.
    carry: Option<Stage>,
    /// Donor Adam moments, consumed exactly once by the first stage's
    /// optimizer; rollback retries and later stages start clean, the same
    /// as a cold run.
    warm_adam: Option<AdamState>,
    config_fingerprint: u64,
    warm_fingerprint: u64,
}

impl Run {
    /// A cold start at stage 0: the flow of `cfg`'s shape, its initial
    /// parameters drawn from `rng`. Every run builds its flow here.
    fn cold(cfg: &NofisConfig, dim: usize, rng: &mut impl Rng) -> Result<Run, NofisError> {
        if dim < 2 {
            return Err(NofisError::InvalidInput {
                message: format!(
                    "NOFIS requires dim >= 2 (RealNVP couplings split coordinates), got {dim}"
                ),
            });
        }
        let mut store = ParamStore::new();
        let depth = cfg.levels.max_stages() * cfg.layers_per_stage;
        let flow = RealNvp::new(&mut store, dim, depth, cfg.hidden, cfg.s_max, rng);
        Ok(Run {
            flow,
            store,
            levels: Vec::new(),
            loss_history: Vec::new(),
            stage_reports: Vec::new(),
            global_step: 0,
            carry: None,
            warm_adam: None,
            config_fingerprint: checkpoint::config_fingerprint(cfg, dim),
            warm_fingerprint: checkpoint::warm_fingerprint(cfg, dim),
        })
    }

    /// A run whose parameters the caller overwrites. The flow structure is
    /// built with a throwaway RNG: the live stream must stay at its seeded
    /// (warm) or restored (resume) position, which keeps common random
    /// numbers across warm and cold corners and resume bitwise.
    fn restored(cfg: &NofisConfig, dim: usize) -> Result<Run, NofisError> {
        Run::cold(cfg, dim, &mut StdRng::seed_from_u64(0))
    }

    /// A warm start seeded from a finished donor's parameters and Adam
    /// moments, refused unless the donor's warm fingerprint and dimension
    /// match this configuration.
    fn warm(cfg: &NofisConfig, dim: usize, ws: &WarmStart) -> Result<Run, NofisError> {
        let mut run = Run::restored(cfg, dim)?;
        if ws.dim != dim as u64 || ws.warm_fingerprint != run.warm_fingerprint {
            return Err(NofisError::Checkpoint {
                message: format!(
                    "warm-start donor '{}' is incompatible with this run \
                     (donor fingerprint {:#018x} / dim {}, ours {:#018x} / \
                     dim {dim}); train cold instead",
                    ws.donor, ws.warm_fingerprint, ws.dim, run.warm_fingerprint
                ),
            });
        }
        // Frozen flags reset to all-live: the recipient's own schedule
        // decides what to freeze, stage by stage.
        restore_into(&mut run.store, &ws.params, &vec![false; ws.params.len()])?;
        run.warm_adam = ws.adam.clone();
        tele::event(tele::Level::Info, "train.warm_start")
            .field("donor", ws.donor.as_str())
            .field("params", ws.params.len())
            .field("adam", run.warm_adam.is_some())
            .emit();
        Ok(run)
    }

    /// The run a checkpoint describes, validated against this
    /// configuration; restores the oracle's spent count and the RNG stream
    /// as a side effect. A finished (`done`) checkpoint has no cursor to
    /// validate: the caller goes straight to estimation.
    fn from_checkpoint<L: LimitState + ?Sized, R: StateRng>(
        cfg: &NofisConfig,
        oracle: &BudgetedOracle<'_, L>,
        rng: &mut R,
        generation: u64,
        ckpt: Checkpoint,
    ) -> Result<Run, NofisError> {
        let dim = oracle.dim();
        let mut run = Run::restored(cfg, dim)?;
        if ckpt.dim != dim as u64 {
            return Err(NofisError::Checkpoint {
                message: format!(
                    "checkpoint dimension {} does not match the limit state's {dim}",
                    ckpt.dim
                ),
            });
        }
        if ckpt.config_fingerprint != run.config_fingerprint {
            return Err(NofisError::Checkpoint {
                message: "checkpoint was written by a different configuration; clear the \
                          checkpoint directory (or restore the original configuration) to proceed"
                    .into(),
            });
        }
        restore_into(&mut run.store, &ckpt.params, &ckpt.frozen)?;
        tele::event(tele::Level::Info, "ckpt.load")
            .field("generation", generation)
            .field("global_step", ckpt.global_step)
            .field("done", ckpt.done)
            .field("mid_stage", ckpt.partial.is_some())
            .field("oracle_spent", ckpt.oracle_spent)
            .emit();
        oracle.restore_spent(ckpt.oracle_spent);
        rng.load_state(ckpt.rng_state);
        run.global_step = ckpt.global_step;
        run.levels = ckpt.levels;
        run.loss_history = ckpt.loss_history;
        run.stage_reports = ckpt.stage_reports;
        if ckpt.done {
            return Ok(run);
        }

        let max_stages = cfg.levels.max_stages();
        let start_stage = match &ckpt.partial {
            Some(p) => p.stage as usize,
            None => run.stage_reports.len(),
        };
        // A mid-stage checkpoint's level is already chosen (and, for
        // adaptive schedules, already paid for in pilot calls).
        let expected_levels = start_stage + usize::from(ckpt.partial.is_some());
        if start_stage >= max_stages || run.levels.len() != expected_levels {
            return Err(NofisError::Checkpoint {
                message: format!(
                    "stage cursor out of range (stage {start_stage}, {} levels, \
                     {max_stages} stages max)",
                    run.levels.len(),
                ),
            });
        }
        if let Some(p) = ckpt.partial {
            run.carry = Some(Stage::from_partial(cfg, &run, p, &ckpt.frozen)?);
        }
        Ok(run)
    }

    /// The durable form of this run at a checkpoint site: mid-stage with
    /// the in-flight stage's `partial` cursor, or at a stage boundary with
    /// the finished stage's `final_adam` (the donor payload a warm-started
    /// sibling inherits; resume never reads it).
    fn snapshot(
        &self,
        rng_state: [u64; 4],
        oracle_spent: u64,
        done: bool,
        partial: Option<StagePartial>,
        final_adam: Option<AdamState>,
    ) -> Checkpoint {
        let store = &self.store;
        Checkpoint {
            config_fingerprint: self.config_fingerprint,
            warm_fingerprint: self.warm_fingerprint,
            dim: self.flow.dim() as u64,
            global_step: self.global_step,
            rng_state,
            oracle_spent,
            done,
            levels: self.levels.clone(),
            loss_history: self.loss_history.clone(),
            stage_reports: self.stage_reports.clone(),
            params: snapshot_params(store),
            frozen: store.iter().map(|(id, _)| store.is_frozen(id)).collect(),
            partial,
            final_adam,
        }
    }

    fn into_trained(self, layers_per_stage: usize) -> TrainedNofis {
        TrainedNofis {
            flow: self.flow,
            store: self.store,
            levels: self.levels,
            loss_history: self.loss_history,
            stage_reports: self.stage_reports,
            layers_per_stage,
        }
    }
}

/// The stage in flight: its threshold, the retry state, the current retry
/// pass and the epoch cursor inside it — the live form of a mid-stage
/// checkpoint's [`StagePartial`], whose fields these mirror.
struct Stage {
    /// 0-based stage index.
    index: usize,
    level: f64,
    lr: f64,
    retries: usize,
    steps: u64,
    opt: Adam,
    losses: Vec<f64>,
    best_loss: f64,
    best_store: ParamStore,
    truncated: bool,
    epoch: usize,
    consumed: usize,
    epoch_loss: f64,
    epoch_start: ParamStore,
}

impl Stage {
    /// A fresh retry pass at learning rate `lr`, starting from `store`.
    fn new(cfg: &NofisConfig, index: usize, level: f64, lr: f64, store: &ParamStore) -> Stage {
        Stage {
            index,
            level,
            lr,
            retries: 0,
            steps: 0,
            opt: Adam::new(lr).with_max_grad_norm(cfg.max_grad_norm),
            losses: Vec::with_capacity(cfg.epochs),
            best_loss: f64::INFINITY,
            best_store: store.clone(),
            truncated: false,
            epoch: 0,
            consumed: 0,
            epoch_loss: 0.0,
            epoch_start: store.clone(),
        }
    }

    /// Rebuilds the stage in flight from a mid-stage checkpoint cursor,
    /// validated against `cfg`.
    fn from_partial(
        cfg: &NofisConfig,
        run: &Run,
        p: StagePartial,
        frozen: &[bool],
    ) -> Result<Stage, NofisError> {
        if p.epoch as usize >= cfg.epochs || p.consumed as usize > cfg.batch_size {
            return Err(NofisError::Checkpoint {
                message: format!(
                    "epoch cursor out of range (epoch {}, consumed {})",
                    p.epoch, p.consumed
                ),
            });
        }
        let level = *run.levels.last().expect("stage cursor validated");
        let mut st = Stage::new(cfg, p.stage as usize, level, p.learning_rate, &run.store);
        restore_into(&mut st.best_store, &p.best_params, frozen)?;
        restore_into(&mut st.epoch_start, &p.epoch_start_params, frozen)?;
        st.opt.restore_state(p.adam);
        st.retries = p.retries as usize;
        st.steps = p.stage_steps;
        st.losses = p.stage_losses;
        st.best_loss = p.best_loss;
        st.epoch = p.epoch as usize;
        st.consumed = p.consumed as usize;
        st.epoch_loss = p.epoch_loss;
        Ok(st)
    }

    /// The checkpoint form of this stage's cursor.
    fn partial(&self) -> StagePartial {
        StagePartial {
            stage: self.index as u64,
            epoch: self.epoch as u64,
            consumed: self.consumed as u64,
            epoch_loss: self.epoch_loss,
            stage_losses: self.losses.clone(),
            best_loss: self.best_loss,
            retries: self.retries as u64,
            learning_rate: self.lr,
            stage_steps: self.steps,
            best_params: snapshot_params(&self.best_store),
            epoch_start_params: snapshot_params(&self.epoch_start),
            adam: self.opt.export_state(),
        }
    }
}

/// The stage loop of Algorithm 1. Each stage runs the same phases: pick
/// the threshold ([`StageRunner::pilot_level`]), freeze the earlier blocks,
/// fit the new block ([`StageRunner::train_stage`], one
/// [`StageRunner::step`] per minibatch, each followed by a
/// [`StageRunner::checkpoint_site`]), and close the stage
/// ([`StageRunner::close_stage`]). Cold, warm and resumed runs all go
/// through it; they differ only in the [`Run`] they start from.
struct StageRunner<'a, 'o, L: LimitState + ?Sized, R> {
    cfg: &'a NofisConfig,
    oracle: &'a BudgetedOracle<'o, L>,
    rng: &'a mut R,
    base: StandardGaussian,
    /// One tape for the whole run: `reset()` between minibatches keeps the
    /// node arena and recycles every buffer, so steady-state steps allocate
    /// nothing. Frozen-stage pruning skips the backward kernels of earlier
    /// coupling blocks without changing any surviving gradient bit
    /// (DESIGN.md §9).
    g: Graph,
    /// Trace-once/replay (DESIGN.md §13): the first minibatch of each
    /// (rows, depth, frozen-mask) combination runs interpreted and is
    /// lowered into a `CompiledStep`; subsequent matching minibatches
    /// replay it. Replays are bitwise identical to the interpreted engine,
    /// so the cache never changes results — any shape or mask change
    /// (stage advance, tail minibatch, resume) simply retraces.
    tape_cache: Option<TapeCache>,
    checkpointer: Option<Checkpointer>,
}

impl<'a, 'o, L: LimitState + ?Sized + Sync, R: Rng + StateRng> StageRunner<'a, 'o, L, R> {
    fn new(cfg: &'a NofisConfig, oracle: &'a BudgetedOracle<'o, L>, rng: &'a mut R) -> Self {
        let mut g = Graph::new();
        g.set_pruning(cfg.prune_frozen);
        StageRunner {
            cfg,
            oracle,
            rng,
            base: StandardGaussian::new(oracle.dim()),
            g,
            tape_cache: None,
            checkpointer: cfg.checkpoint.clone().map(Checkpointer::new),
        }
    }

    /// Runs every remaining stage of `run` and returns the trained model.
    fn run(mut self, mut run: Run) -> Result<TrainedNofis, NofisError> {
        let k = self.cfg.layers_per_stage;
        let max_stages = self.cfg.levels.max_stages();
        tele::event(tele::Level::Info, "train.start")
            .field("dim", run.flow.dim())
            .field("max_stages", max_stages)
            .field("layers_per_stage", k)
            .field("budget", self.oracle.budget())
            .emit();

        // A resumed run starts at the stage its checkpoint left off.
        let start = run
            .carry
            .as_ref()
            .map_or(run.stage_reports.len(), |st| st.index);
        for stage in start..max_stages {
            // Stage-start readings for the span's per-stage deltas. Plain
            // reads — never fed back into the computation.
            let (calls, stats) = (self.oracle.used(), self.g.snapshot());
            let span = tele::span(tele::Level::Info, "train.stage");
            let st = self.open_stage(&mut run, stage)?;
            let st = self.train_stage(&mut run, st)?;
            if self.close_stage(&mut run, st, span, calls, stats) {
                // The schedule reached the target event (or the budget
                // truncated the final stage): stop and save the remaining
                // budget (further stages at level 0 were observed to
                // over-concentrate the proposal).
                break;
            }
        }

        // Defensive: the fixed schedule always ends at 0.0 by validation;
        // the adaptive one breaks on 0.0 or forces it at the last stage.
        debug_assert_eq!(run.levels.last().copied(), Some(0.0));
        tele::event(tele::Level::Info, "train.end")
            .field("stages", run.levels.len())
            .field("oracle_calls", self.oracle.used())
            .emit();
        Ok(run.into_trained(k))
    }

    /// Opens stage `stage`: picks its threshold (or re-enters the stage a
    /// mid-stage checkpoint left in flight), then freezes every earlier
    /// block.
    fn open_stage(&mut self, run: &mut Run, stage: usize) -> Result<Stage, NofisError> {
        let carried = run.carry.take();
        let level = match &carried {
            Some(st) => st.level,
            None => {
                let level = self.pilot_level(run, stage)?;
                run.levels.push(level);
                level
            }
        };
        tele::event(tele::Level::Info, "train.stage.start")
            .field("stage", stage + 1)
            .field("level", level)
            .emit();
        if self.cfg.freeze {
            let k = self.cfg.layers_per_stage;
            for id in run.flow.param_ids_for_layers(0..stage * k) {
                run.store.set_frozen(id, true);
            }
        }
        Ok(carried.unwrap_or_else(|| {
            let mut st = Stage::new(self.cfg, stage, level, self.cfg.learning_rate, &run.store);
            if let Some(state) = run.warm_adam.take() {
                st.opt.restore_state(state);
            }
            st
        }))
    }

    /// Picks stage `stage`'s threshold `a_m`: the fixed schedule's entry,
    /// or — adaptive — the `p0` quantile of `g` over a pilot batch drawn
    /// from the current proposal (the final stage is always 0).
    fn pilot_level(&mut self, run: &Run, stage: usize) -> Result<f64, NofisError> {
        let (p0, pilot) = match &self.cfg.levels {
            Levels::Fixed(v) => return Ok(v[stage]),
            Levels::AdaptiveQuantile { p0, pilot, .. } => (*p0, *pilot),
        };
        if stage + 1 == self.cfg.levels.max_stages() {
            return Ok(0.0);
        }
        let oracle = self.oracle;
        let granted = oracle.grant(pilot);
        if granted == 0 {
            return Err(budget_error(
                oracle,
                format!("pilot sampling for stage {}", stage + 1),
            ));
        }
        let depth = stage * self.cfg.layers_per_stage;
        // Draw one batch on this thread (the rng is sequential), then score
        // it across the pool — the granted calls were planned above, and
        // the batch values come back in sample order.
        let rng = &mut *self.rng;
        let xs = if depth == 0 {
            self.base.sample_batch(granted, rng)
        } else {
            FlowProposal::new(&run.flow, &run.store, depth).sample_batch(granted, rng)
        };
        let gvals = batch_values_with(oracle, &xs, nofis_parallel::global());
        // `quantile` skips NaN scores; if the proposal only produces NaN
        // there is nothing to schedule against.
        let mut q = quantile(&gvals, p0);
        if q.is_nan() {
            return Err(NofisError::DegenerateProposal {
                context: format!("every pilot sample for stage {} scored NaN", stage + 1),
            });
        }
        // Overshoot guard: tempered training gives the stage proposal a
        // heavy lower-g tail, which can crash the pilot quantile to 0 long
        // before the proposal truly covers the failure region. Only allow
        // the schedule to land on 0 when the pilot actually observes a
        // healthy failure fraction; otherwise descend geometrically at most.
        let frac_fail = gvals.iter().filter(|&&g| g <= 0.0).count() as f64 / gvals.len() as f64;
        if let Some(&prev) = run.levels.last() {
            if frac_fail < 0.5 * p0 {
                q = q.max(0.35 * prev);
            }
            // Enforce strict decrease: an undertrained stage can leave the
            // pilot quantile at (or above) the previous threshold, stalling
            // the schedule.
            q = q.min(prev - 0.05 * prev.abs());
        }
        tele::event(tele::Level::Debug, "train.pilot")
            .field("stage", stage + 1)
            .field("granted", granted)
            .field("quantile", q)
            .field("frac_fail", frac_fail)
            .emit();
        Ok(if q <= 0.0 { 0.0 } else { q })
    }

    /// Optimizes `D[q_{mK} || p_m^τ]` (Eq. 8) for the stage in flight. A
    /// divergent pass rolls back to the best checkpoint and retries with a
    /// halved learning rate and fresh optimizer state, up to
    /// [`NofisConfig::stage_retries`] times.
    fn train_stage(&mut self, run: &mut Run, mut st: Stage) -> Result<Stage, NofisError> {
        loop {
            let Some((epoch, message)) = self.train_pass(run, &mut st)? else {
                return Ok(st);
            };
            tele::event(tele::Level::Warn, "train.divergence")
                .field("stage", st.index + 1)
                .field("epoch", epoch)
                .field("detail", message.as_str())
                .emit();
            let retries = st.retries + 1;
            if retries > self.cfg.stage_retries {
                return Err(NofisError::TrainingDiverged {
                    stage: st.index + 1,
                    epoch,
                    retries: retries - 1,
                    message,
                });
            }
            run.store = st.best_store;
            st = Stage {
                retries,
                steps: st.steps,
                ..Stage::new(self.cfg, st.index, st.level, st.lr * 0.5, &run.store)
            };
            tele::event(tele::Level::Warn, "train.rollback")
                .field("stage", st.index + 1)
                .field("retries", retries)
                .field("lr", st.lr)
                .emit();
        }
    }

    /// One retry pass: the remaining epochs, minibatch by minibatch, from
    /// the stage's cursor on. `Ok(Some(..))` reports a divergence.
    fn train_pass(
        &mut self,
        run: &mut Run,
        st: &mut Stage,
    ) -> Result<Option<(usize, String)>, NofisError> {
        let cfg = self.cfg;
        let mb = cfg.minibatch.min(cfg.batch_size);
        while st.epoch < cfg.epochs {
            while st.consumed < cfg.batch_size {
                let n = self.oracle.grant(mb.min(cfg.batch_size - st.consumed));
                if n == 0 {
                    if st.level == 0.0 && !st.losses.is_empty() {
                        // Graceful truncation: the final stage has at least
                        // one full epoch at the target event, so the
                        // proposal is usable as-is.
                        st.truncated = true;
                        tele::event(tele::Level::Warn, "train.truncated")
                            .field("stage", st.index + 1)
                            .field("epoch", st.epoch)
                            .field("used", self.oracle.used())
                            .emit();
                        return Ok(None);
                    }
                    return Err(budget_error(
                        self.oracle,
                        format!("training stage {}", st.index + 1),
                    ));
                }
                let chunk_loss = match self.step(run, st, n) {
                    Ok(loss) => loss,
                    Err(message) => return Ok(Some((st.epoch, message))),
                };
                st.consumed += n;
                st.epoch_loss += chunk_loss * n as f64;
                self.checkpoint_site(run, st);
            }
            let epoch_loss = st.epoch_loss / st.consumed as f64;
            if !epoch_loss.is_finite() || epoch_loss.abs() > LOSS_DIVERGENCE_LIMIT {
                return Ok(Some((st.epoch, format!("epoch loss = {epoch_loss}"))));
            }
            tele::event(tele::Level::Debug, "train.epoch")
                .field("stage", st.index + 1)
                .field("epoch", st.epoch)
                .field("loss", epoch_loss)
                .emit();
            st.losses.push(epoch_loss);
            let epoch_start = std::mem::replace(&mut st.epoch_start, run.store.clone());
            if epoch_loss < st.best_loss {
                // Checkpoint the parameters that *produced* this best loss
                // — the state at the epoch's start.
                st.best_loss = epoch_loss;
                st.best_store = epoch_start;
            }
            st.epoch += 1;
            st.consumed = 0;
            st.epoch_loss = 0.0;
        }
        Ok(None)
    }

    /// One optimizer step on an `n`-row minibatch: sample + flow forward,
    /// oracle, loss + backward, optimizer. Replays the compiled tape when
    /// one matches this (rows, depth, frozen mask) exactly; otherwise
    /// traces interpreted (and compiles the trace for the steps that
    /// follow). `Err` carries a divergence message.
    ///
    /// A non-finite simulator response is sanitized to "safely
    /// non-failing, zero gradient" so one broken subregion cannot poison
    /// the whole batch (the call still counts against the budget). A
    /// panicking worker chunk (pool infrastructure, not the oracle — oracle
    /// panics are already contained in `BudgetedOracle`) is handled like a
    /// divergent minibatch; the pool itself survives a worker panic, so
    /// retrying is sound. Both engines share the sanitize closure and the
    /// fixed-chunk row evaluator, so the oracle sees the same calls in the
    /// same order.
    fn step(&mut self, run: &mut Run, st: &mut Stage, n: usize) -> Result<f64, String> {
        let cfg = self.cfg;
        let (oracle, dim, level) = (self.oracle, run.flow.dim(), st.level);
        let depth = (st.index + 1) * cfg.layers_per_stage;
        let replaying = cfg.compile_tape
            && self
                .tape_cache
                .as_ref()
                .is_some_and(|c| c.depth == depth && c.n == n && c.step.mask_matches(&run.store));
        let sanitized = |row: &[f64]| {
            let (v, grad) = oracle.value_grad(row);
            if v.is_finite() && grad.iter().all(|gi| gi.is_finite()) {
                (v, grad)
            } else {
                (level + 1.0, vec![0.0; dim])
            }
        };
        let (base, rng) = (&self.base, &mut *self.rng);
        let evaluated = if replaying {
            let cache = self.tape_cache.as_mut().expect("cache presence checked");
            let replay = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                cache.step.replay_forward(
                    &run.store,
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
                    // A panic can leave the preplanned buffers half-written;
                    // drop the cache so the retry pass retraces from scratch.
                    self.tape_cache = None;
                    None
                }
            }
        } else {
            let g = &mut self.g;
            g.reset();
            let x = g.constant_with(n, dim, |buf| base.sample_fill(buf, rng));
            let (z, logdet) = run.flow.forward_graph(&run.store, g, x, depth);
            let eval = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                g.external_rowwise_par(z, nofis_parallel::global(), sanitized)
            }));
            eval.ok().map(|gvals| {
                let loss = tempered_kl_loss(g, cfg.tau, level, z, logdet, gvals);
                (
                    g.value(loss).item(),
                    g.value(logdet).max_abs(),
                    Some((x, logdet, loss)),
                )
            })
        };
        let Some((loss, logdet_mag, traced)) = evaluated else {
            return Err("a worker thread panicked while evaluating the minibatch".into());
        };
        if !loss.is_finite() || logdet_mag > LOGDET_DIVERGENCE_LIMIT {
            return Err(format!("minibatch loss = {loss}, |logdet| = {logdet_mag}"));
        }
        match traced {
            None => {
                let cache = self.tape_cache.as_mut().expect("replayed from this cache");
                cache.step.backward();
                st.opt.step_fused(&mut run.store, &cache.step);
            }
            Some((x, logdet, loss)) => {
                self.g.backward(loss);
                if cfg.compile_tape {
                    let step = CompiledStep::compile(&self.g, loss, Some(x), &run.store);
                    if tele::enabled(tele::Level::Debug) {
                        tele::event(tele::Level::Debug, "train.compile")
                            .field("stage", st.index + 1)
                            .field("n", n)
                            .field("depth", depth)
                            .field("instrs", step.len())
                            .field("backward_nodes", step.backward_nodes())
                            .emit();
                    }
                    self.tape_cache = Some(TapeCache {
                        depth,
                        n,
                        logdet,
                        loss,
                        step,
                    });
                }
                st.opt.step_fused(&mut run.store, &self.g);
            }
        }
        st.steps += 1;
        run.global_step += 1;
        if tele::enabled(tele::Level::Trace) {
            let mut event = tele::event(tele::Level::Trace, "train.step")
                .field("stage", st.index + 1)
                .field("epoch", st.epoch)
                .field("n", n)
                .field("engine", if replaying { "replay" } else { "trace" })
                .field("loss", loss);
            if let Some(norm) = st.opt.last_grad_norm() {
                event = event.field("grad_norm", norm);
            }
            event.emit();
        }
        Ok(loss)
    }

    /// Mid-stage checkpoint site: the snapshot describes the state *after*
    /// this optimizer step, so resume re-enters the loop at the next
    /// minibatch.
    fn checkpoint_site(&mut self, run: &Run, st: &Stage) {
        if let Some(cp) = &mut self.checkpointer {
            if cp.due(run.global_step) {
                let ckpt = run.snapshot(
                    self.rng.save_state(),
                    self.oracle.used(),
                    false,
                    Some(st.partial()),
                    None,
                );
                cp.write(&ckpt);
            }
        }
    }

    /// Closes a trained stage: records its report, ends its span, and
    /// writes the stage-boundary checkpoint — always, when checkpointing is
    /// on, so a crash between stages costs nothing and a finished run
    /// resumes straight into estimation. `calls` and `start` are the oracle
    /// and tape readings the stage opened with. Returns whether training
    /// is done.
    fn close_stage(
        &mut self,
        run: &mut Run,
        st: Stage,
        mut span: tele::Span,
        calls: u64,
        start: GraphStats,
    ) -> bool {
        let report = StageReport {
            stage: st.index + 1,
            level: st.level,
            epochs_run: st.losses.len(),
            retries: st.retries,
            rolled_back: st.retries > 0,
            best_loss: st.best_loss,
            final_loss: st.losses.last().copied().unwrap_or(f64::NAN),
            learning_rate: st.lr,
            truncated: st.truncated,
        };
        // Close the stage span with its summary and per-stage resource
        // deltas (oracle spend, buffer-pool traffic, pruning work) —
        // `nofis-trace` derives allocs/step and calls/step from these.
        if span.is_enabled() {
            let stats = self.g.snapshot();
            span.field("stage", report.stage);
            span.field("level", report.level);
            span.field("epochs", report.epochs_run);
            span.field("steps", st.steps);
            span.field("retries", report.retries);
            span.field("best_loss", report.best_loss);
            span.field("final_loss", report.final_loss);
            span.field("truncated", report.truncated);
            span.field("oracle_calls", self.oracle.used() - calls);
            span.field("pool_hits", stats.pool.hits - start.pool.hits);
            span.field("pool_misses", stats.pool.misses - start.pool.misses);
            span.field("skipped_nodes", stats.skipped_nodes - start.skipped_nodes);
            span.field("pruned_nodes", stats.pruned_nodes - start.pruned_nodes);
        }
        span.end();
        run.stage_reports.push(report);
        run.loss_history.push(st.losses);

        let done = st.truncated || st.level == 0.0;
        if let Some(cp) = &mut self.checkpointer {
            let ckpt = run.snapshot(
                self.rng.save_state(),
                self.oracle.used(),
                done,
                None,
                Some(st.opt.export_state()),
            );
            cp.write(&ckpt);
        }
        done
    }
}

/// The tempered-KL loss of one minibatch (Eq. 8): the negated row mean of
/// `log det + min(τ(a_m − g(z)), 0) + ln p(z)`.
fn tempered_kl_loss(g: &mut Graph, tau: f64, level: f64, z: Var, logdet: Var, gvals: Var) -> Var {
    let dim = g.value(z).cols();
    let neg_tau_g = g.scale(gvals, -tau);
    let shifted = g.add_scalar(neg_tau_g, tau * level);
    let tempered = g.min_scalar(shifted, 0.0);
    // base log-density of z: -D/2 ln 2π - ||z||²/2
    let sq = g.square(z);
    let ssq = g.sum_cols(sq);
    let half = g.scale(ssq, -0.5);
    let logp = g.add_scalar(half, -0.5 * dim as f64 * LN_2PI);

    let a = g.add(logdet, tempered);
    let per_sample = g.add(a, logp);
    let mean = g.mean_all(per_sample);
    g.neg(mean)
}

/// Clones the store's parameter tensors in id order (the checkpoint's
/// canonical parameter layout).
fn snapshot_params(store: &ParamStore) -> Vec<Tensor> {
    store.iter().map(|(_, t)| t.clone()).collect()
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

    /// Final importance-sampling estimate of `P[g(x) ≤ 0]` (Eq. 2) under
    /// the final proposal, with its health verdict; see
    /// [`TrainedNofis::estimate_within`]. The standalone call is given a
    /// hard budget of `n_is` simulator calls.
    ///
    /// # Errors
    ///
    /// See [`TrainedNofis::estimate_within`].
    pub fn estimate<L: LimitState + ?Sized + Sync>(
        &self,
        limit_state: &L,
        n_is: usize,
        rng: &mut impl Rng,
    ) -> Result<(IsResult, bool), NofisError> {
        let oracle = BudgetedOracle::new(limit_state, n_is as u64);
        self.estimate_within(&oracle, n_is, rng)
    }

    /// One importance-sampling pass of `n_is` draws from the final proposal
    /// `q_{MK}`, drawing its simulator calls from `oracle`. Returns the
    /// estimate and whether it looks healthy: finite, with at least one
    /// failure hit, and a weight tail with [`IsResult::pareto_k`] below
    /// 0.7.
    ///
    /// The verdict is observed only, and the `estimate` telemetry span
    /// records it with the estimate's hits, ESS, standard error and `k̂`:
    /// an unhealthy draw is still the returned estimate. A draw with no
    /// failure hits returns an estimate of 0. When the budget cannot cover
    /// `n_is`, the draw uses what remains.
    ///
    /// # Errors
    ///
    /// * [`NofisError::InvalidInput`] if `n_is == 0` or the oracle's
    ///   dimension does not match the trained flow.
    /// * [`NofisError::BudgetExhausted`] if not a single sample is
    ///   affordable.
    /// * [`NofisError::DegenerateProposal`] if the estimate is not finite
    ///   or a worker panicked during the batch evaluation.
    pub fn estimate_within<L: LimitState + ?Sized + Sync>(
        &self,
        oracle: &BudgetedOracle<'_, L>,
        n_is: usize,
        rng: &mut impl Rng,
    ) -> Result<(IsResult, bool), NofisError> {
        let mut span = tele::span(tele::Level::Info, "estimate");
        let calls_start = oracle.used();
        let result = self
            .draw_estimate(oracle, n_is, rng)
            .map(|r| (r, looks_healthy(&r)));
        if span.is_enabled() {
            match &result {
                Ok((r, healthy)) => {
                    span.field("healthy", *healthy);
                    span.field("estimate", r.estimate);
                    span.field("hits", r.hits);
                    span.field("ess", r.effective_sample_size);
                    span.field("std_error", r.std_error);
                    if let Some(k) = r.pareto_k {
                        span.field("pareto_k", k);
                    }
                }
                Err(e) => span.field("error", e.to_string()),
            }
            span.field("oracle_calls", oracle.used() - calls_start);
        }
        span.end();
        result
    }

    /// The body of [`TrainedNofis::estimate_within`], separated so the
    /// telemetry span wraps every return path exactly once.
    fn draw_estimate<L: LimitState + ?Sized + Sync>(
        &self,
        oracle: &BudgetedOracle<'_, L>,
        n_is: usize,
        rng: &mut impl Rng,
    ) -> Result<IsResult, NofisError> {
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
        let n = oracle.grant(n_is);
        if n == 0 {
            return Err(budget_error(oracle, "the final-proposal estimate".into()));
        }
        let p = StandardGaussian::new(self.flow.dim());
        let q = self.proposal();
        // A worker-thread panic during the pooled batch evaluation is
        // contained here and surfaces as a typed error.
        let eval = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            importance_sampling(oracle, 0.0, &q, &p, n, rng, nofis_parallel::global())
        }));
        let Ok(result) = eval else {
            return Err(NofisError::DegenerateProposal {
                context: "a worker panicked during the final-proposal estimate".into(),
            });
        };
        if !result.estimate.is_finite() {
            return Err(NofisError::DegenerateProposal {
                context: format!("the final-proposal estimate is {}", result.estimate),
            });
        }
        Ok(result)
    }

    /// Borrows the underlying flow and parameters (read-only diagnostics).
    pub fn flow(&self) -> (&RealNvp, &ParamStore) {
        (&self.flow, &self.store)
    }
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
        // Training and the estimate spend exactly the nominal budget.
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
        // (beta, max_stages, uses every stage): at beta 4 the first pilot
        // level is well above 0, so the two-stage run trains both stages
        // and the second is the forced level-0 stage.
        for (beta, max_stages, full) in [(3.0, 4, false), (4.0, 2, true)] {
            let ls = HalfSpace { beta };
            let oracle = CountingOracle::new(&ls);
            let cfg = small_config(Levels::AdaptiveQuantile {
                max_stages,
                p0: 0.15,
                pilot: 100,
            });
            let budget = cfg.training_budget();
            let nofis = Nofis::new(cfg).unwrap();
            let mut rng = StdRng::seed_from_u64(7);
            let trained = nofis.train(&oracle, &mut rng).unwrap();
            let levels = trained.levels();
            assert_eq!(*levels.last().unwrap(), 0.0);
            // Levels decrease strictly until 0.0, then may repeat 0.0
            // (refinement stages).
            let nonzero: Vec<f64> = levels.iter().copied().take_while(|&l| l > 0.0).collect();
            assert!(nonzero.windows(2).all(|w| w[1] < w[0]), "levels {levels:?}");
            // Every stage trains `E·N` samples; every stage but a forced
            // final one draws a pilot batch first.
            let stages = trained.stages() as u64;
            let pilots = stages.min(max_stages as u64 - 1);
            assert_eq!(oracle.calls(), stages * 12 * 100 + pilots * 100);
            if full {
                assert_eq!(trained.stages(), max_stages, "levels {levels:?}");
                assert_eq!(oracle.calls(), budget);
            }
        }
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
    fn incompatible_warm_start_donor_is_refused_before_any_oracle_call() {
        let ls = HalfSpace { beta: 3.0 };
        let cfg = NofisConfig {
            epochs: 2,
            ..small_config(Levels::Fixed(vec![1.0, 0.0]))
        };
        let fp = checkpoint::warm_fingerprint(&cfg, 2);
        let nofis = Nofis::new(cfg).unwrap();
        let donor = nofis.train(&ls, &mut StdRng::seed_from_u64(1)).unwrap();
        let params: Vec<Tensor> = donor.flow().1.iter().map(|(_, t)| t.clone()).collect();
        let donor = |warm_fingerprint: u64, dim: u64| WarmStart {
            params: params.clone(),
            adam: None,
            warm_fingerprint,
            dim,
            donor: "c0".into(),
        };

        for bad in [donor(fp ^ 1, 2), donor(fp, 3)] {
            let oracle = CountingOracle::new(&ls);
            let mut rng = StdRng::seed_from_u64(2);
            let err = nofis
                .run_warm_or_resume(&oracle, &mut rng, Some(&bad))
                .unwrap_err();
            assert!(matches!(err, NofisError::Checkpoint { .. }), "{err}");
            assert!(err.to_string().contains("incompatible"), "{err}");
            assert_eq!(oracle.calls(), 0);
        }

        let oracle = CountingOracle::new(&ls);
        let mut rng = StdRng::seed_from_u64(2);
        let (trained, result) = nofis
            .run_warm_or_resume(&oracle, &mut rng, Some(&donor(fp, 2)))
            .unwrap();
        assert_eq!(trained.levels(), &[1.0, 0.0]);
        assert!(result.estimate.is_finite());
        assert!(oracle.calls() > 0);
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
