//! Cooperative preemption of training runs.
//!
//! A supervisor (the `nofis-jobs` deadline watcher, a graceful-shutdown
//! handler) cannot safely stop a training run from outside — tearing a
//! thread down mid-minibatch would corrupt nothing durable but would lose
//! the run. Instead it *requests* preemption on a shared [`PreemptToken`];
//! the training loop polls the token at every minibatch boundary (the same
//! place mid-stage checkpoints are written) and, when a request is
//! pending, force-writes a checkpoint and returns
//! [`NofisError::Preempted`](crate::NofisError::Preempted). Resuming with
//! [`Nofis::run_or_resume`](crate::Nofis::run_or_resume) then finishes the
//! run bitwise-identically to an uninterrupted one — preemption reuses the
//! exact crash-recovery machinery of DESIGN.md §11, so it adds no new
//! state to the determinism contract.
//!
//! The token reaches the loop through a thread-local scope ([`attach`])
//! rather than a parameter: `Nofis::run` / `run_or_resume` keep their
//! public signatures, and a supervisor wraps the call site:
//!
//! ```
//! use nofis_core::preempt::{self, PreemptReason, PreemptToken};
//!
//! let token = PreemptToken::new();
//! let watcher = token.clone(); // hand this to the deadline thread
//! let _scope = preempt::attach(&token);
//! // ... run training on this thread; `watcher.request(...)` from any
//! // other thread makes it stop at the next minibatch boundary.
//! # watcher.request(PreemptReason::Deadline);
//! # assert_eq!(token.requested(), Some(PreemptReason::Deadline));
//! ```
//!
//! Estimation (the fallback ladder) is not preemptible: it runs after all
//! training finished, is short relative to training, and has no
//! checkpointable mid-state — a deadline that fires during estimation
//! lets the estimate complete (a small grace period by design).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

/// Why a run is being asked to stop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptReason {
    /// The run's wall-clock deadline expired.
    Deadline,
    /// The process (or supervising runtime) is shutting down gracefully.
    Shutdown,
}

impl PreemptReason {
    /// Stable machine-readable name (used in telemetry fields and
    /// [`NofisError::Preempted`](crate::NofisError::Preempted)`::reason`).
    pub fn as_str(self) -> &'static str {
        match self {
            PreemptReason::Deadline => "deadline",
            PreemptReason::Shutdown => "shutdown",
        }
    }
}

const REASON_NONE: u8 = 0;
const REASON_DEADLINE: u8 = 1;
const REASON_SHUTDOWN: u8 = 2;

/// A shared, clonable preemption flag. Clones observe the same request;
/// the first [`PreemptToken::request`] wins (a deadline that fires during
/// shutdown keeps the reason it was first stopped for).
#[derive(Debug, Clone, Default)]
pub struct PreemptToken {
    flag: Arc<AtomicU8>,
}

impl PreemptToken {
    /// A fresh token with no request pending.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests preemption. Idempotent; the first reason sticks.
    pub fn request(&self, reason: PreemptReason) {
        let value = match reason {
            PreemptReason::Deadline => REASON_DEADLINE,
            PreemptReason::Shutdown => REASON_SHUTDOWN,
        };
        let _ = self
            .flag
            .compare_exchange(REASON_NONE, value, Ordering::SeqCst, Ordering::SeqCst);
    }

    /// The pending request, if any.
    pub fn requested(&self) -> Option<PreemptReason> {
        match self.flag.load(Ordering::SeqCst) {
            REASON_DEADLINE => Some(PreemptReason::Deadline),
            REASON_SHUTDOWN => Some(PreemptReason::Shutdown),
            _ => None,
        }
    }

    /// Clears any pending request (a retry of a preempted attempt starts
    /// clean).
    pub fn clear(&self) {
        self.flag.store(REASON_NONE, Ordering::SeqCst);
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<PreemptToken>> = const { RefCell::new(Vec::new()) };
}

/// Scope guard returned by [`attach`]; dropping it detaches the token
/// (and any tokens attached after it on this thread).
#[must_use = "the token detaches when the guard drops"]
pub struct PreemptScope {
    restore_len: usize,
}

impl Drop for PreemptScope {
    fn drop(&mut self) {
        CURRENT.with(|c| c.borrow_mut().truncate(self.restore_len));
    }
}

/// Attaches `token` to the current thread: training loops run on this
/// thread observe its requests until the returned scope drops. Scopes
/// nest; the innermost attached token is the one polled.
pub fn attach(token: &PreemptToken) -> PreemptScope {
    CURRENT.with(|c| {
        let mut stack = c.borrow_mut();
        let restore_len = stack.len();
        stack.push(token.clone());
        PreemptScope { restore_len }
    })
}

/// The pending request on the innermost attached token, if any. This is
/// the training loop's poll — one thread-local read plus one atomic load,
/// and `None` forever when no supervisor attached a token.
pub(crate) fn current_requested() -> Option<PreemptReason> {
    CURRENT.with(|c| c.borrow().last().and_then(PreemptToken::requested))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_request_wins_and_clear_resets() {
        let token = PreemptToken::new();
        assert_eq!(token.requested(), None);
        token.request(PreemptReason::Deadline);
        token.request(PreemptReason::Shutdown);
        assert_eq!(token.requested(), Some(PreemptReason::Deadline));
        token.clear();
        assert_eq!(token.requested(), None);
        token.request(PreemptReason::Shutdown);
        assert_eq!(token.requested(), Some(PreemptReason::Shutdown));
    }

    #[test]
    fn clones_share_the_flag_across_threads() {
        let token = PreemptToken::new();
        let remote = token.clone();
        std::thread::spawn(move || remote.request(PreemptReason::Deadline))
            .join()
            .unwrap();
        assert_eq!(token.requested(), Some(PreemptReason::Deadline));
    }

    #[test]
    fn attach_scopes_nest_and_detach() {
        assert_eq!(current_requested(), None);
        let outer = PreemptToken::new();
        let inner = PreemptToken::new();
        let _s1 = attach(&outer);
        outer.request(PreemptReason::Shutdown);
        assert_eq!(current_requested(), Some(PreemptReason::Shutdown));
        {
            // The innermost token shadows the outer one.
            let _s2 = attach(&inner);
            assert_eq!(current_requested(), None);
            inner.request(PreemptReason::Deadline);
            assert_eq!(current_requested(), Some(PreemptReason::Deadline));
        }
        assert_eq!(current_requested(), Some(PreemptReason::Shutdown));
    }

    #[test]
    fn unattached_threads_observe_nothing() {
        let token = PreemptToken::new();
        token.request(PreemptReason::Deadline);
        let _scope = attach(&token);
        let other = std::thread::spawn(current_requested).join().unwrap();
        assert_eq!(other, None);
    }
}
