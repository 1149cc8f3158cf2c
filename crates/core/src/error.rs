use crate::ConfigError;
use std::fmt;

/// Typed failure modes of the NOFIS pipeline.
///
/// Every fallible public entry point ([`Nofis::train`](crate::Nofis::train),
/// [`Nofis::run`](crate::Nofis::run), the estimation methods on
/// [`TrainedNofis`](crate::TrainedNofis)) returns this error instead of
/// panicking, so a production yield run can distinguish "your inputs are
/// wrong" from "the optimizer blew up" from "you ran out of simulator
/// budget" and react accordingly.
#[derive(Debug, Clone, PartialEq)]
pub enum NofisError {
    /// The caller supplied an unusable input (e.g. a limit state with fewer
    /// than two coordinates, a zero sample count, or an invalid
    /// configuration).
    InvalidInput {
        /// What was wrong with the input.
        message: String,
    },
    /// Training diverged (non-finite or exploding loss) and did not recover
    /// within the configured number of rollback retries
    /// ([`NofisConfig::stage_retries`](crate::NofisConfig::stage_retries)).
    TrainingDiverged {
        /// The 1-based stage that failed.
        stage: usize,
        /// The epoch (0-based, within the failing pass) where divergence
        /// was last detected.
        epoch: usize,
        /// Rollback retries that were attempted before giving up.
        retries: usize,
        /// Diagnostic detail (e.g. the offending loss value).
        message: String,
    },
    /// The hard simulator-call budget ran out before the requested work
    /// could complete (and graceful truncation was not possible).
    BudgetExhausted {
        /// Calls consumed when the budget ran dry.
        used: u64,
        /// The configured budget.
        budget: u64,
        /// What the pipeline was doing when it ran out.
        context: String,
    },
    /// A learned proposal was too degenerate to use at all (e.g. every
    /// pilot sample it produced scored NaN).
    DegenerateProposal {
        /// What was degenerate and where.
        context: String,
    },
    /// A durable checkpoint could not be used for resume (it was written by
    /// a different configuration, a different problem dimension, or its
    /// contents do not fit the flow it claims to describe). Corrupt *files*
    /// never produce this error — the loader skips them — only a valid
    /// checkpoint that contradicts the current run does.
    Checkpoint {
        /// Why the checkpoint was rejected.
        message: String,
    },
}

impl fmt::Display for NofisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NofisError::InvalidInput { message } => {
                write!(f, "invalid input: {message}")
            }
            NofisError::TrainingDiverged {
                stage,
                epoch,
                retries,
                message,
            } => write!(
                f,
                "training diverged at stage {stage}, epoch {epoch} after {retries} \
                 rollback retries: {message}"
            ),
            NofisError::BudgetExhausted {
                used,
                budget,
                context,
            } => write!(
                f,
                "simulator-call budget exhausted ({used}/{budget} calls) during {context}"
            ),
            NofisError::DegenerateProposal { context } => {
                write!(f, "degenerate proposal: {context}")
            }
            NofisError::Checkpoint { message } => {
                write!(f, "unusable checkpoint: {message}")
            }
        }
    }
}

impl std::error::Error for NofisError {}

impl From<ConfigError> for NofisError {
    fn from(err: ConfigError) -> Self {
        NofisError::InvalidInput {
            message: err.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Levels, NofisConfig};

    #[test]
    fn displays_carry_context() {
        let e = NofisError::TrainingDiverged {
            stage: 2,
            epoch: 5,
            retries: 3,
            message: "loss = inf".into(),
        };
        let s = format!("{e}");
        assert!(s.contains("stage 2") && s.contains("epoch 5") && s.contains("3"));

        let e = NofisError::BudgetExhausted {
            used: 100,
            budget: 100,
            context: "training stage 1".into(),
        };
        assert!(format!("{e}").contains("100/100"));
    }

    #[test]
    fn config_errors_convert_to_invalid_input() {
        let cfg = NofisConfig {
            levels: Levels::Fixed(vec![]),
            ..Default::default()
        };
        let err: NofisError = cfg.validate().unwrap_err().into();
        assert!(matches!(err, NofisError::InvalidInput { .. }));
        assert!(format!("{err}").contains("levels"));
    }
}
