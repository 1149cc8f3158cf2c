use crate::checkpoint::CheckpointConfig;
use std::fmt;

/// How the nested subset-event thresholds `a_1 > a_2 > … > a_M = 0` are
/// chosen.
#[derive(Debug, Clone, PartialEq)]
pub enum Levels {
    /// Hand-picked thresholds, the paper's default. Must be strictly
    /// decreasing and end at exactly `0.0` so `Ω_{a_M} = Ω`.
    Fixed(Vec<f64>),
    /// Automatic pilot-quantile schedule (the paper's "future work"
    /// direction, implemented here like subset simulation's adaptive
    /// levels): before each stage, `pilot` proposal samples are scored and
    /// the next threshold is their `p0`-quantile, clamped so the final
    /// stage lands on `0.0`.
    AdaptiveQuantile {
        /// Maximum number of stages.
        max_stages: usize,
        /// Quantile level, e.g. `0.1` to shrink each subset's probability
        /// by roughly 10× per stage (the paper's rule of thumb).
        p0: f64,
        /// Pilot samples drawn (and simulator calls spent) per stage to
        /// locate the quantile.
        pilot: usize,
    },
}

impl Levels {
    /// Number of training stages `M` (for fixed levels; the adaptive
    /// schedule reports its maximum).
    pub fn max_stages(&self) -> usize {
        match self {
            Levels::Fixed(v) => v.len(),
            Levels::AdaptiveQuantile { max_stages, .. } => *max_stages,
        }
    }
}

/// Full hyper-parameter set of Algorithm 1.
///
/// Field defaults follow the paper's nominal ranges (§3.2): `E = 15–20`,
/// `N = 100–400`, `M = 4–6`, `τ = 10–30`, `K = 8`.
#[derive(Debug, Clone, PartialEq)]
pub struct NofisConfig {
    /// Threshold schedule defining the nested subset events.
    pub levels: Levels,
    /// Coupling layers per stage (`K` in the paper; 8 in its experiments).
    pub layers_per_stage: usize,
    /// Hidden width of each coupling conditioner net.
    pub hidden: usize,
    /// Log-scale clamp of the coupling layers.
    pub s_max: f64,
    /// Training epochs per stage (`E`).
    pub epochs: usize,
    /// Fresh base samples drawn per epoch (`N`); each costs one simulator
    /// call, so training consumes `M·E·N` calls total.
    pub batch_size: usize,
    /// Samples for the final importance-sampling estimate (`N_IS`).
    pub n_is: usize,
    /// Temperature `τ` of the tempered targets `p_m^τ` (Eq. 6/9).
    pub tau: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Optimizer minibatch size: each epoch's `batch_size` fresh samples
    /// are consumed in chunks of this size, one Adam step per chunk. This
    /// multiplies gradient steps without extra simulator calls (the samples
    /// are still evaluated exactly once). Set equal to `batch_size` for the
    /// paper's literal one-step-per-epoch Algorithm 1.
    pub minibatch: usize,
    /// Freeze earlier stage blocks while training stage `m` (the paper's
    /// default policy; `false` reproduces the "NoFreeze" ablation).
    pub freeze: bool,
    /// Skip backward kernels (and gradient buffers) for subgraphs whose
    /// only parameters are frozen — when training stage `m`, the `m − 1`
    /// frozen coupling blocks then cost forward-only. The surviving
    /// gradients are bitwise identical with pruning on or off (see
    /// DESIGN.md §9), so this is purely a speed knob; `false` restores the
    /// exhaustive backward pass.
    pub prune_frozen: bool,
    /// Trace-once/replay execution (DESIGN.md §13): build the training tape
    /// once per (minibatch shape, stage depth, frozen mask), compile it to
    /// a `CompiledStep` with preplanned buffers and a planned backward
    /// pass, and replay that for subsequent steps — no per-step tape
    /// construction.
    /// Replays are bitwise identical to the interpreted engine (enforced by
    /// `tests/compiled_equivalence.rs`), so this is purely a speed knob.
    pub compile_tape: bool,
    /// Optional hard cap on total simulator calls for
    /// [`Nofis::run`](crate::Nofis::run) /
    /// [`Nofis::train`](crate::Nofis::train). When the cap is hit, the
    /// pipeline truncates gracefully where possible (final-stage epochs,
    /// the estimate's draw count) and otherwise returns
    /// [`NofisError::BudgetExhausted`](crate::NofisError::BudgetExhausted)
    /// — it never overruns. `None` (the default) leaves the schedule's own
    /// [`NofisConfig::training_budget`] as the only cost.
    pub max_calls: Option<u64>,
    /// Global-norm gradient clipping threshold passed to the optimizer
    /// (`None` disables clipping). The default `Some(100.0)` is far above
    /// healthy flow-training gradients and only engages on the exploding
    /// log-det gradients that precede divergence.
    pub max_grad_norm: Option<f64>,
    /// How many times a stage may roll back to its best checkpoint (with a
    /// halved learning rate) after a divergent epoch before training fails
    /// with [`NofisError::TrainingDiverged`](crate::NofisError::TrainingDiverged).
    pub stage_retries: usize,
    /// Telemetry sink selection, applied (idempotently, process-wide) by
    /// [`Nofis::new`](crate::Nofis::new). The `NOFIS_LOG`,
    /// `NOFIS_TRACE_FILE` and `NOFIS_FLIGHT_DIR` environment variables
    /// override the corresponding fields. The default is fully disabled —
    /// every telemetry site then costs a single relaxed atomic load.
    /// Telemetry observes the run but never influences it: with sinks on
    /// or off, all numeric results are bitwise identical (DESIGN.md §10).
    pub telemetry: nofis_telemetry::Settings,
    /// Durable checkpointing (DESIGN.md §11): when set, training writes
    /// atomic, CRC-guarded snapshots into
    /// [`CheckpointConfig::dir`] every
    /// [`CheckpointConfig::every_steps`] optimizer steps and at every stage
    /// boundary, and [`Nofis::run_or_resume`](crate::Nofis::run_or_resume)
    /// continues a killed run bitwise-identically from the newest valid
    /// one. In [`Nofis::new`](crate::Nofis::new), `NOFIS_CKPT_DIR` enables
    /// checkpointing when this field is `None` (an explicit directory
    /// wins), and `NOFIS_CKPT_EVERY` / `NOFIS_CKPT_KEEP` override the
    /// interval and rotation depth. `None` (the default) writes nothing
    /// and costs one branch per optimizer step.
    pub checkpoint: Option<CheckpointConfig>,
}

impl Default for NofisConfig {
    fn default() -> Self {
        NofisConfig {
            levels: Levels::AdaptiveQuantile {
                max_stages: 5,
                p0: 0.1,
                pilot: 200,
            },
            layers_per_stage: 8,
            hidden: 32,
            s_max: 2.0,
            epochs: 20,
            batch_size: 200,
            n_is: 1000,
            tau: 20.0,
            learning_rate: 5e-3,
            minibatch: 64,
            freeze: true,
            prune_frozen: true,
            compile_tape: true,
            max_calls: None,
            max_grad_norm: Some(100.0),
            stage_retries: 2,
            telemetry: nofis_telemetry::Settings::default(),
            checkpoint: None,
        }
    }
}

impl NofisConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the levels are not strictly decreasing /
    /// do not end at zero, or any numeric hyper-parameter is out of range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match &self.levels {
            Levels::Fixed(v) => {
                if v.is_empty() {
                    return Err(ConfigError::new("levels must be non-empty"));
                }
                if v.iter().any(|x| !x.is_finite()) {
                    return Err(ConfigError::new("levels must all be finite"));
                }
                if v.windows(2).any(|w| w[1] >= w[0]) {
                    return Err(ConfigError::new("levels must be strictly decreasing"));
                }
                if *v.last().expect("non-empty") != 0.0 {
                    return Err(ConfigError::new(
                        "the last level must be exactly 0.0 so that Ω_{a_M} = Ω",
                    ));
                }
            }
            Levels::AdaptiveQuantile {
                max_stages,
                p0,
                pilot,
            } => {
                if *max_stages == 0 {
                    return Err(ConfigError::new(
                        "adaptive schedule needs at least one stage",
                    ));
                }
                if !(*p0 > 0.0 && *p0 < 1.0) {
                    return Err(ConfigError::new("p0 must be in (0, 1)"));
                }
                if *pilot == 0 {
                    return Err(ConfigError::new("pilot sample count must be positive"));
                }
            }
        }
        if self.layers_per_stage == 0 {
            return Err(ConfigError::new("layers_per_stage must be positive"));
        }
        if self.hidden == 0 {
            return Err(ConfigError::new("hidden width must be positive"));
        }
        if self.s_max <= 0.0 || self.s_max.is_nan() {
            return Err(ConfigError::new("s_max must be positive"));
        }
        if self.epochs == 0 {
            return Err(ConfigError::new("epochs must be positive"));
        }
        if self.batch_size == 0 {
            return Err(ConfigError::new("batch_size must be positive"));
        }
        if self.n_is == 0 {
            return Err(ConfigError::new("n_is must be positive"));
        }
        if self.tau <= 0.0 || self.tau.is_nan() {
            return Err(ConfigError::new("tau must be positive"));
        }
        if !(self.learning_rate > 0.0 && self.learning_rate.is_finite()) {
            return Err(ConfigError::new(
                "learning_rate must be positive and finite",
            ));
        }
        if self.minibatch == 0 {
            return Err(ConfigError::new("minibatch must be positive"));
        }
        if self.max_calls == Some(0) {
            return Err(ConfigError::new("max_calls must be positive when set"));
        }
        if let Some(m) = self.max_grad_norm {
            if !(m > 0.0 && m.is_finite()) {
                return Err(ConfigError::new(
                    "max_grad_norm must be positive and finite when set",
                ));
            }
        }
        if let Some(ckpt) = &self.checkpoint {
            if ckpt.dir.as_os_str().is_empty() {
                return Err(ConfigError::new("checkpoint dir must be non-empty"));
            }
            if ckpt.every_steps == 0 {
                return Err(ConfigError::new("checkpoint every_steps must be positive"));
            }
            if ckpt.keep == 0 {
                return Err(ConfigError::new("checkpoint keep must be positive"));
            }
            if let Some(ns) = &ckpt.namespace {
                let ok = !ns.is_empty()
                    && ns
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.'));
                if !ok {
                    return Err(ConfigError::new(
                        "checkpoint namespace must be non-empty and use only \
                         [A-Za-z0-9._-] (it becomes a directory name)",
                    ));
                }
            }
        }
        Ok(())
    }

    /// Applies the `NOFIS_CKPT_DIR` / `NOFIS_CKPT_EVERY` / `NOFIS_CKPT_KEEP`
    /// environment overrides to [`NofisConfig::checkpoint`] (called by
    /// [`Nofis::new`](crate::Nofis::new)). `NOFIS_CKPT_DIR` enables
    /// checkpointing when the field is `None` and leaves an explicit
    /// directory alone; the interval and rotation variables refine
    /// whichever configuration results.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when a set variable does not parse as a
    /// positive integer.
    pub(crate) fn apply_checkpoint_env(&mut self) -> Result<(), ConfigError> {
        fn positive(name: &str) -> Result<Option<u64>, ConfigError> {
            match std::env::var(name) {
                Ok(raw) => match raw.trim().parse::<u64>() {
                    Ok(v) if v > 0 => Ok(Some(v)),
                    _ => Err(ConfigError::new(format!(
                        "{name} must be a positive integer, got {raw:?}"
                    ))),
                },
                Err(_) => Ok(None),
            }
        }
        if let Ok(dir) = std::env::var("NOFIS_CKPT_DIR") {
            if dir.is_empty() {
                return Err(ConfigError::new("NOFIS_CKPT_DIR must be non-empty"));
            }
            if self.checkpoint.is_none() {
                self.checkpoint = Some(CheckpointConfig::new(dir));
            }
        }
        if let Some(every) = positive("NOFIS_CKPT_EVERY")? {
            if let Some(ckpt) = &mut self.checkpoint {
                ckpt.every_steps = every;
            }
        }
        if let Some(keep) = positive("NOFIS_CKPT_KEEP")? {
            if let Some(ckpt) = &mut self.checkpoint {
                ckpt.keep = keep as usize;
            }
        }
        Ok(())
    }

    /// The simulator-call budget training will consume (`M·E·N` plus any
    /// adaptive pilot calls); the final estimate adds `n_is` more.
    pub fn training_budget(&self) -> u64 {
        let stages = self.levels.max_stages() as u64;
        let pilot = match self.levels {
            Levels::AdaptiveQuantile { pilot, .. } => pilot as u64 * stages,
            Levels::Fixed(_) => 0,
        };
        stages * self.epochs as u64 * self.batch_size as u64 + pilot
    }
}

/// An invalid [`NofisConfig`] field combination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid NOFIS configuration: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(NofisConfig::default().validate().is_ok());
    }

    #[test]
    fn fixed_levels_must_decrease_to_zero() {
        let mut cfg = NofisConfig {
            levels: Levels::Fixed(vec![26.0, 15.0, 8.0, 3.0, 0.0]),
            ..Default::default()
        };
        assert!(cfg.validate().is_ok());
        cfg.levels = Levels::Fixed(vec![26.0, 15.0, 15.0, 0.0]);
        assert!(cfg.validate().is_err());
        cfg.levels = Levels::Fixed(vec![26.0, 15.0, 1.0]);
        assert!(cfg.validate().is_err());
        cfg.levels = Levels::Fixed(vec![]);
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn numeric_ranges_are_checked() {
        let base = NofisConfig::default();
        for bad in [
            NofisConfig {
                tau: 0.0,
                ..base.clone()
            },
            NofisConfig {
                epochs: 0,
                ..base.clone()
            },
            NofisConfig {
                batch_size: 0,
                ..base.clone()
            },
            NofisConfig {
                layers_per_stage: 0,
                ..base.clone()
            },
            NofisConfig {
                learning_rate: f64::NAN,
                ..base.clone()
            },
            NofisConfig {
                s_max: -1.0,
                ..base.clone()
            },
            NofisConfig {
                n_is: 0,
                ..base.clone()
            },
            NofisConfig {
                hidden: 0,
                ..base.clone()
            },
            NofisConfig {
                max_calls: Some(0),
                ..base.clone()
            },
            NofisConfig {
                max_grad_norm: Some(0.0),
                ..base.clone()
            },
            NofisConfig {
                max_grad_norm: Some(f64::NAN),
                ..base.clone()
            },
            NofisConfig {
                minibatch: 0,
                ..base.clone()
            },
            NofisConfig {
                levels: Levels::Fixed(vec![f64::NAN, 0.0]),
                ..base.clone()
            },
            NofisConfig {
                levels: Levels::Fixed(vec![f64::INFINITY, 1.0, 0.0]),
                ..base.clone()
            },
            NofisConfig {
                checkpoint: Some(CheckpointConfig {
                    every_steps: 0,
                    ..CheckpointConfig::new("ckpts")
                }),
                ..base.clone()
            },
            NofisConfig {
                checkpoint: Some(CheckpointConfig {
                    keep: 0,
                    ..CheckpointConfig::new("ckpts")
                }),
                ..base.clone()
            },
            NofisConfig {
                checkpoint: Some(CheckpointConfig::new("")),
                ..base.clone()
            },
            NofisConfig {
                checkpoint: Some(CheckpointConfig::new("ckpts").with_namespace("")),
                ..base.clone()
            },
            NofisConfig {
                checkpoint: Some(CheckpointConfig::new("ckpts").with_namespace("a/b")),
                ..base.clone()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should be rejected");
        }
        assert!(
            NofisConfig {
                minibatch: base.batch_size,
                ..base.clone()
            }
            .validate()
            .is_ok(),
            "minibatch == batch_size is the paper's one-step-per-epoch setting"
        );
        assert!(
            NofisConfig {
                minibatch: base.batch_size + 1,
                ..base.clone()
            }
            .validate()
            .is_ok(),
            "an oversized minibatch is clamped to batch_size by the train loop"
        );
        assert!(NofisConfig {
            checkpoint: Some(CheckpointConfig::new("ckpts")),
            ..base.clone()
        }
        .validate()
        .is_ok());
        assert!(NofisConfig {
            checkpoint: Some(CheckpointConfig::new("ckpts").with_namespace("job-3_v1.0")),
            ..base.clone()
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn training_budget_counts_pilot() {
        let cfg = NofisConfig {
            levels: Levels::Fixed(vec![5.0, 0.0]),
            epochs: 10,
            batch_size: 100,
            ..Default::default()
        };
        assert_eq!(cfg.training_budget(), 2 * 10 * 100);
        let cfg = NofisConfig {
            levels: Levels::AdaptiveQuantile {
                max_stages: 3,
                p0: 0.1,
                pilot: 50,
            },
            epochs: 10,
            batch_size: 100,
            ..Default::default()
        };
        assert_eq!(cfg.training_budget(), 3 * 10 * 100 + 150);
    }

    #[test]
    fn config_error_displays() {
        let err = NofisConfig {
            tau: -1.0,
            ..Default::default()
        }
        .validate()
        .unwrap_err();
        assert!(format!("{err}").contains("tau"));
    }
}
