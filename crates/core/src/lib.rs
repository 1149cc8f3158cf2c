//! NOFIS: normalizing-flow assisted importance sampling for rare circuit
//! failure analysis.
//!
//! This crate implements the primary contribution of *"NOFIS: Normalizing
//! Flow for Rare Circuit Failure Analysis"* (Gao, Zhang, Daniel, Boning —
//! DAC 2024): Algorithm 1, which
//!
//! 1. defines nested subset events `Ω_{a_1} ⊇ … ⊇ Ω_{a_M} = Ω` via a
//!    strictly decreasing threshold schedule ([`Levels`]),
//! 2. trains one block of `K` RealNVP coupling layers per stage by
//!    minimizing the KL divergence to the tempered target
//!    `p_m^τ(x) ∝ exp(min(τ(a_m − g(x)), 0)) p(x)` while freezing earlier
//!    blocks ([`Nofis::train`]), and
//! 3. estimates `P[Ω]` by importance sampling with the learned final
//!    proposal `q_{MK}` ([`TrainedNofis::estimate`]).
//!
//! All ablation knobs from the paper's §3.2 are exposed on
//! [`NofisConfig`]: `NoFreeze` (`freeze = false`), `LongThre` (a longer
//! [`Levels::Fixed`] schedule), `SmallTemp` (`tau = 1.0`), and the
//! temperature sweep.
//!
//! # Fault tolerance
//!
//! The pipeline is built for unattended production runs: every entry point
//! returns a typed [`NofisError`] instead of panicking, each training stage
//! checkpoints at its best loss and rolls back with a halved learning rate
//! on divergence (recorded per stage in [`StageReport`]), the estimate
//! reports whether its importance weights look healthy (the `estimate`
//! telemetry span's `healthy` field; see
//! [`TrainedNofis::estimate_within`]), and [`NofisConfig::max_calls`]
//! enforces a hard simulator-call budget that truncates gracefully rather
//! than overruns. With
//! [`NofisConfig::checkpoint`] set, training additionally writes durable,
//! CRC-guarded snapshots ([`checkpoint`]) and
//! [`Nofis::run_or_resume`] continues a killed run bitwise-identically from
//! the newest valid one (DESIGN.md §11).
//!
//! See the crate-level example on [`Nofis`] for end-to-end usage.
//!
//! # Telemetry
//!
//! The pipeline is instrumented with structured telemetry (point events
//! and spans) from `nofis_telemetry`, re-exported here as [`telemetry`].
//! Sinks are selected by the `NOFIS_LOG` / `NOFIS_TRACE_FILE` /
//! `NOFIS_FLIGHT_DIR` environment variables and
//! installed by [`Nofis::new`], or by a program's own `telemetry::init`
//! call before it. Telemetry observes the run but never influences it —
//! results are bitwise identical with sinks on or off (DESIGN.md §10).

#![deny(missing_docs)]

pub mod checkpoint;
mod config;
mod error;
mod proposal;
mod report;
mod train;

pub use checkpoint::CheckpointConfig;
pub use config::{ConfigError, Levels, NofisConfig};
pub use error::NofisError;
pub use proposal::FlowProposal;
pub use report::StageReport;
pub use train::{Nofis, TrainedNofis};

pub use nofis_telemetry as telemetry;
