//! Chunked thread-pool execution layer for the NOFIS hot paths.
//!
//! NOFIS spends nearly all of its wall-clock in two places: coupling-net
//! matmuls during M-stage flow training, and limit-state oracle calls
//! `g(x)` during sampling/estimation. Both are embarrassingly parallel
//! across rows/samples. This crate provides the shared execution substrate:
//!
//! * [`ThreadPool`] — a small, work-stealing-free pool built from
//!   `std::thread` and `std::sync::mpsc` channels only (consistent with the
//!   workspace's vendored-offline dependency policy). Work is split into
//!   *chunks*; idle workers claim whole chunks from a shared atomic cursor,
//!   never from each other's queues.
//! * [`chunks`] — chunk partitioning arithmetic. Chunk boundaries depend
//!   only on the workload size, never on the thread count, so every
//!   reduction is **bitwise identical** regardless of how many threads
//!   execute it.
//! * [`kernels`] — a row-partitioned parallel `matmul` over row-major
//!   `f64` buffers, one row kernel for the forward, `a·bᵀ` and `aᵀ·b`
//!   products, with a serial fallback below a size threshold; the shared
//!   kernel behind `nofis_linalg::Tensor::matmul` and the
//!   autograd matmul op (forward *and* backward).
//! * [`math`] — deterministic scalar transcendentals ([`math::tanh`])
//!   shared by the interpreted graph and the compiled-tape replay engine.
//! * [`global`] / [`resolve_default_threads`] — a process-wide pool sized from the
//!   `NOFIS_THREADS` environment variable when set, else
//!   `std::thread::available_parallelism()`.
//!
//! # Determinism contract
//!
//! Every operation in this crate is deterministic in its *outputs*:
//! results land in chunk-index-ordered slots and reductions sum partials
//! in chunk order. Only the execution schedule (which worker runs which
//! chunk, and when) varies between runs and thread counts. See DESIGN.md
//! §8 for the workspace-wide contract and the test suite that locks it.
//!
//! # Example
//!
//! ```
//! use nofis_parallel::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.map_chunks(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![deny(missing_docs)]

pub mod chunks;
pub mod kernels;
pub mod math;
mod pool;

pub use pool::{LaneGuard, PoolUsage, ThreadPool};

use std::sync::OnceLock;

/// `NOFIS_THREADS` was set to something other than a positive integer.
///
/// Invalid values are a configuration error, not a preference to be
/// silently ignored: a CI job that typos `NOFIS_THREADS=fourx` must fail
/// loudly rather than quietly benchmark on the wrong thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadsEnvError {
    /// The rejected value of the environment variable.
    pub raw: String,
}

impl std::fmt::Display for ThreadsEnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid NOFIS_THREADS value {:?}: expected a positive integer",
            self.raw
        )
    }
}

impl std::error::Error for ThreadsEnvError {}

/// The lazily built process-wide pool.
static GLOBAL_POOL: OnceLock<ThreadPool> = OnceLock::new();

/// Parses `NOFIS_THREADS` from the environment with typed rejection.
///
/// Returns `Ok(None)` when the variable is unset or empty (an empty value
/// is treated as "cleared", matching `VAR= cmd` shell usage), `Ok(Some(n))`
/// for a positive integer, and [`ThreadsEnvError`] for anything else —
/// callers surface this as a configuration error instead of silently
/// falling back to a default thread count.
pub fn env_threads_checked() -> Result<Option<usize>, ThreadsEnvError> {
    match std::env::var("NOFIS_THREADS") {
        Ok(raw) => parse_threads(&raw),
        Err(_) => Ok(None),
    }
}

/// Parsing half of [`env_threads_checked`], split out for direct testing.
fn parse_threads(raw: &str) -> Result<Option<usize>, ThreadsEnvError> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(ThreadsEnvError {
            raw: raw.to_string(),
        }),
    }
}

/// Where the resolved default thread count came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadSource {
    /// The `NOFIS_THREADS` environment variable.
    Env,
    /// `std::thread::available_parallelism()` (or 1 when unknown).
    Available,
}

impl ThreadSource {
    /// Short label used in telemetry events.
    pub fn as_str(self) -> &'static str {
        match self {
            ThreadSource::Env => "env",
            ThreadSource::Available => "available_parallelism",
        }
    }
}

/// Resolves the default worker count and where it came from:
/// `NOFIS_THREADS` env var, else `available_parallelism()`.
///
/// # Panics
///
/// Panics on an invalid `NOFIS_THREADS` value. Configuration front doors
/// (e.g. `Nofis::new`) validate via [`env_threads_checked`] first and
/// return a typed error; the panic here is the backstop for code paths
/// that reach the global pool without passing through validation.
pub fn resolve_default_threads() -> (usize, ThreadSource) {
    let env = env_threads_checked().unwrap_or_else(|e| panic!("{e}"));
    if let Some(n) = env {
        return (n.max(1), ThreadSource::Env);
    }
    let n = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    (n.max(1), ThreadSource::Available)
}

/// Initializes the global pool with an explicit thread count, returning
/// `true` when this call performed the initialization.
///
/// The first of `init_global` / [`global`] to run fixes the pool size for
/// the process; later calls are no-ops returning `false`. Tests use this to
/// pin the global pool before exercising code paths that reach it.
pub fn init_global(threads: usize) -> bool {
    let mut initialized = false;
    GLOBAL_POOL.get_or_init(|| {
        initialized = true;
        ThreadPool::new(threads.max(1))
    });
    initialized
}

/// The process-wide shared pool, built on first use with the
/// [`resolve_default_threads`] worker count.
///
/// Pool construction emits a one-shot `parallel.pool.init` telemetry
/// startup event recording the resolved thread count and where it came
/// from (`NOFIS_THREADS` or the machine default).
pub fn global() -> &'static ThreadPool {
    GLOBAL_POOL.get_or_init(|| {
        let (threads, source) = resolve_default_threads();
        nofis_telemetry::event(nofis_telemetry::Level::Info, "parallel.pool.init")
            .field("threads", threads)
            .field("source", source.as_str())
            .emit();
        ThreadPool::new(threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threads_is_positive() {
        assert!(resolve_default_threads().0 >= 1);
    }

    #[test]
    fn threads_env_parsing_is_typed() {
        assert_eq!(parse_threads("4"), Ok(Some(4)));
        assert_eq!(parse_threads("  2 "), Ok(Some(2)));
        assert_eq!(parse_threads(""), Ok(None));
        assert_eq!(parse_threads("   "), Ok(None));
        for bad in ["0", "-1", "four", "2.5", "2x"] {
            let err = parse_threads(bad).unwrap_err();
            assert_eq!(err.raw, bad);
            assert!(err.to_string().contains("NOFIS_THREADS"));
            assert!(err.to_string().contains(bad));
        }
    }

    #[test]
    fn thread_source_labels() {
        assert_eq!(ThreadSource::Env.as_str(), "env");
        assert_eq!(ThreadSource::Available.as_str(), "available_parallelism");
    }

    #[test]
    fn global_pool_is_usable_and_stable() {
        let p1 = global();
        let out = p1.map_chunks(5, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
        let p2 = global();
        assert!(std::ptr::eq(p1, p2));
        assert!(!init_global(17), "global pool already fixed");
    }
}
