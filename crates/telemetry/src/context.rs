//! Thread-local context fields, stamped onto every event the thread emits.
//!
//! The multi-job scheduler runs many NOFIS jobs in one process against one
//! trace file; without a per-record tag the trace is an uninterpretable
//! interleaving. [`push_context`] attaches a field (e.g. `job = 3`) to the
//! *current thread*: every [`event`](crate::event) and [`span`](crate::span)
//! created on this thread while the guard lives carries the field,
//! prepended before the site's own fields. Guards nest and unwind in LIFO
//! order on drop, so a scheduler worker can tag a whole job execution with
//! one scope.
//!
//! Context is thread-local by design: `nofis-parallel` helper threads do
//! not inherit the caller's context (events emitted from inside pool
//! chunks are rare and already carry their own identifying fields), and
//! keeping the lookup off the shared path keeps the disabled-telemetry
//! cost at one relaxed atomic load.

use crate::Value;
use std::cell::RefCell;

thread_local! {
    static CONTEXT: RefCell<Vec<(&'static str, Value)>> = const { RefCell::new(Vec::new()) };
}

/// Scope guard returned by [`push_context`]; dropping it removes the
/// field (and anything pushed after it on this thread, enforcing LIFO
/// scoping even under early returns and unwinds).
#[must_use = "the context field is removed when the guard drops"]
pub struct ContextGuard {
    restore_len: usize,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|c| c.borrow_mut().truncate(self.restore_len));
    }
}

/// Pushes a context field onto the current thread's stack; every telemetry
/// record created on this thread carries it until the returned guard
/// drops.
pub fn push_context(key: &'static str, value: impl Into<Value>) -> ContextGuard {
    CONTEXT.with(|c| {
        let mut stack = c.borrow_mut();
        let restore_len = stack.len();
        stack.push((key, value.into()));
        ContextGuard { restore_len }
    })
}

/// Snapshot of the current thread's context fields, oldest first (the
/// initial `fields` vector for a new event or span).
pub(crate) fn snapshot() -> Vec<(&'static str, Value)> {
    CONTEXT.with(|c| c.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_nest_and_unwind_lifo() {
        assert!(snapshot().is_empty());
        let g1 = push_context("job", 7u64);
        {
            let _g2 = push_context("attempt", 2u64);
            let snap = snapshot();
            assert_eq!(snap.len(), 2);
            assert_eq!(snap[0].0, "job");
            assert_eq!(snap[1].0, "attempt");
        }
        assert_eq!(snapshot().len(), 1);
        drop(g1);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn out_of_order_drop_still_restores() {
        let g1 = push_context("a", 1u64);
        let g2 = push_context("b", 2u64);
        // Dropping the outer guard first truncates past the inner one;
        // the inner drop is then a no-op (its restore point is gone).
        drop(g1);
        assert!(snapshot().is_empty());
        drop(g2);
        assert!(snapshot().is_empty());
    }

    #[test]
    fn context_is_thread_local() {
        let _g = push_context("job", 1u64);
        let other = std::thread::spawn(|| snapshot().len()).join().unwrap();
        assert_eq!(other, 0);
        assert_eq!(snapshot().len(), 1);
    }
}
