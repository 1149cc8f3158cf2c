//! Hard simulator-call budgets.
//!
//! Rare-event pipelines must never silently overrun their simulation
//! budget: a production run that was promised `B` simulator calls has to
//! stop at `B`, degrade gracefully, and report how far it got. A
//! [`BudgetedOracle`] wraps any [`LimitState`] (typically a
//! [`CountingOracle`](crate::CountingOracle), so external accounting still
//! sees every call) and meters consumption against a fixed budget. Callers
//! plan each chunk of work with [`BudgetedOracle::grant`], which truncates
//! the request to what is affordable instead of letting the work overrun.

use crate::LimitState;
use nofis_faults as faults;
use nofis_telemetry as tele;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Announces an injected fault at one of this wrapper's seams. Warn-level:
/// chaos runs must be able to line injections up with their consequences
/// in the trace.
fn record_fault(kind: faults::FaultKind, site: faults::Site) {
    tele::event(tele::Level::Warn, "fault.injected")
        .field("site", site.as_str())
        .field("kind", kind.as_str())
        .emit();
}

/// The fault-injection seam at [`faults::Site::BudgetGrant`]: when the
/// installed plan schedules [`faults::FaultKind::BudgetExhaust`] for this
/// visit, the budget is forced to exhaustion *before* the planning call
/// computes the affordable count — the caller then sees a clean grant of 0
/// and degrades exactly as if the budget had genuinely run dry.
fn budget_fault(used: &AtomicU64, budget: u64) {
    if !faults::active() {
        return;
    }
    if let Some(kind @ faults::FaultKind::BudgetExhaust) = faults::check(faults::Site::BudgetGrant)
    {
        record_fault(kind, faults::Site::BudgetGrant);
        used.fetch_max(budget, Ordering::Relaxed);
    }
}

/// A [`LimitState`] wrapper enforcing a hard simulator-call budget.
///
/// The oracle counts every `value`/`value_grad` invocation. Consumers are
/// expected to plan work via [`BudgetedOracle::grant`] *before* spending
/// calls; any call made beyond the budget is recorded in
/// [`BudgetedOracle::overruns`] so tests can assert the cooperative
/// protocol was honored (the call still delegates to the wrapped limit
/// state rather than panicking — budget violations must degrade loudly,
/// not abort).
///
/// # Example
///
/// ```
/// use nofis_prob::{BudgetedOracle, CountingOracle, LimitState};
///
/// struct Sphere;
/// impl LimitState for Sphere {
///     fn dim(&self) -> usize { 2 }
///     fn value(&self, x: &[f64]) -> f64 { x[0] * x[0] + x[1] * x[1] - 1.0 }
/// }
///
/// let counting = CountingOracle::new(&Sphere);
/// let budgeted = BudgetedOracle::new(&counting, 3);
/// assert_eq!(budgeted.grant(2), 2);   // plan a 2-call chunk
/// let _ = budgeted.value(&[0.0, 0.0]);
/// let _ = budgeted.value(&[1.0, 1.0]);
/// assert_eq!(budgeted.remaining(), 1);
/// assert_eq!(budgeted.grant(5), 1);   // truncated, not overrun
/// let _ = budgeted.value(&[0.5, 0.5]);
/// assert!(budgeted.is_exhausted());
/// assert_eq!(budgeted.overruns(), 0);
/// assert_eq!(counting.calls(), 3);    // outer accounting still exact
/// ```
#[derive(Debug)]
pub struct BudgetedOracle<'a, T: LimitState + ?Sized> {
    inner: &'a T,
    budget: u64,
    used: AtomicU64,
}

impl<'a, T: LimitState + ?Sized> BudgetedOracle<'a, T> {
    /// Wraps `inner` with a hard budget of `budget` simulator calls.
    pub fn new(inner: &'a T, budget: u64) -> Self {
        BudgetedOracle {
            inner,
            budget,
            used: AtomicU64::new(0),
        }
    }

    /// The total call budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Calls consumed so far.
    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// Calls still affordable (0 when exhausted).
    pub fn remaining(&self) -> u64 {
        self.budget.saturating_sub(self.used())
    }

    /// Whether the budget is fully consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Restores a spent-call count saved by a previous process (via
    /// [`BudgetedOracle::used`]) into this — freshly constructed — oracle,
    /// so the crash boundary cannot reset the meter: across the original
    /// and resumed runs together, at most `budget` calls are ever made.
    ///
    /// Overwrites the counter; call it before any call is spent here.
    pub fn restore_spent(&self, spent: u64) {
        self.used.store(spent, Ordering::Relaxed);
    }

    /// Truncates a planned chunk of `want` calls to what the remaining
    /// budget affords. Returns the affordable count (possibly 0) without
    /// consuming anything; consumption happens as calls are made. A
    /// shortfall emits a debug-level `budget.truncated` event: the moment a
    /// run starts degrading.
    pub fn grant(&self, want: usize) -> usize {
        budget_fault(&self.used, self.budget);
        let remaining = self.remaining();
        let granted = (want as u64).min(remaining) as usize;
        if granted < want {
            tele::event(tele::Level::Debug, "budget.truncated")
                .field("want", want)
                .field("granted", granted)
                .field("remaining", remaining)
                .emit();
        }
        granted
    }

    /// Decides the injected fault (if any) for one oracle evaluation and
    /// handles the terminal kind in place: [`faults::FaultKind::Kill`]
    /// flushes telemetry and exits the process with
    /// [`faults::KILL_EXIT_CODE`] — a deterministic stand-in for `kill -9`
    /// at an exact call index, used by the chaos resume tests.
    fn oracle_fault(&self) -> Option<faults::FaultKind> {
        if !faults::active() {
            return None;
        }
        let fault = faults::check(faults::Site::OracleCall)?;
        record_fault(fault, faults::Site::OracleCall);
        if fault == faults::FaultKind::Kill {
            tele::flush();
            std::process::exit(faults::KILL_EXIT_CODE);
        }
        Some(fault)
    }

    /// One guarded simulator evaluation: applies any injected oracle fault,
    /// and converts a panicking simulator (injected or genuine) into a NaN
    /// response — the same sanitized path a non-finite simulator value
    /// takes — instead of unwinding through the training loop. The call has
    /// already been charged to the budget by the caller.
    fn eval_value(&self, x: &[f64]) -> f64 {
        let fault = self.oracle_fault();
        match fault {
            Some(faults::FaultKind::OracleNan) => return f64::NAN,
            Some(faults::FaultKind::OracleInf) => return f64::INFINITY,
            _ => {}
        }
        let inject_panic = matches!(fault, Some(faults::FaultKind::OraclePanic));
        let result = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected fault: oracle panic (nofis-faults)");
            }
            self.inner.value(x)
        }));
        match result {
            Ok(v) => v,
            Err(_) => {
                tele::event(tele::Level::Warn, "oracle.panic_caught")
                    .field("op", "value")
                    .emit();
                f64::NAN
            }
        }
    }

    /// Gradient-carrying twin of [`BudgetedOracle::eval_value`].
    fn eval_value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let fault = self.oracle_fault();
        match fault {
            Some(faults::FaultKind::OracleNan) => return (f64::NAN, vec![f64::NAN; x.len()]),
            Some(faults::FaultKind::OracleInf) => {
                return (f64::INFINITY, vec![f64::INFINITY; x.len()])
            }
            _ => {}
        }
        let inject_panic = matches!(fault, Some(faults::FaultKind::OraclePanic));
        let result = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected fault: oracle panic (nofis-faults)");
            }
            self.inner.value_grad(x)
        }));
        match result {
            Ok(vg) => vg,
            Err(_) => {
                tele::event(tele::Level::Warn, "oracle.panic_caught")
                    .field("op", "value_grad")
                    .emit();
                (f64::NAN, vec![f64::NAN; x.len()])
            }
        }
    }

    /// Calls made *beyond* the budget (0 when every consumer planned its
    /// chunks with [`BudgetedOracle::grant`]).
    pub fn overruns(&self) -> u64 {
        self.used().saturating_sub(self.budget)
    }

    /// Borrows the wrapped limit state without counting.
    pub fn inner(&self) -> &'a T {
        self.inner
    }
}

impl<T: LimitState + ?Sized> LimitState for BudgetedOracle<'_, T> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn value(&self, x: &[f64]) -> f64 {
        self.used.fetch_add(1, Ordering::Relaxed);
        self.eval_value(x)
    }

    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        // One simulation, like CountingOracle: sensitivities ride along.
        self.used.fetch_add(1, Ordering::Relaxed);
        self.eval_value_grad(x)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CountingOracle;

    struct Linear;
    impl LimitState for Linear {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            x[0] - x[1]
        }
        fn name(&self) -> &str {
            "linear"
        }
    }

    #[test]
    fn grant_truncates_to_remaining() {
        let b = BudgetedOracle::new(&Linear, 10);
        assert_eq!(b.grant(4), 4);
        for _ in 0..7 {
            let _ = b.value(&[0.0, 0.0]);
        }
        assert_eq!(b.remaining(), 3);
        assert_eq!(b.grant(100), 3);
        assert_eq!(b.grant(2), 2);
        assert!(!b.is_exhausted());
    }

    #[test]
    fn counts_value_and_grad_as_one_each() {
        let b = BudgetedOracle::new(&Linear, 5);
        let _ = b.value(&[1.0, 0.0]);
        let _ = b.value_grad(&[1.0, 0.0]);
        assert_eq!(b.used(), 2);
        assert_eq!(b.name(), "linear");
        assert_eq!(b.dim(), 2);
    }

    #[test]
    fn overruns_are_recorded_not_panicked() {
        let b = BudgetedOracle::new(&Linear, 1);
        let _ = b.value(&[0.0, 0.0]);
        assert!(b.is_exhausted());
        // A misbehaving consumer that skipped grant() still gets an answer,
        // but the violation is visible.
        let v = b.value(&[2.0, 0.0]);
        assert_eq!(v, 2.0);
        assert_eq!(b.overruns(), 1);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn restore_spent_survives_the_crash_boundary() {
        // Simulate a crash/resume: 7 calls in "process one", its spent
        // count checkpointed, then a fresh oracle in "process two" restores
        // it — the two runs together can never exceed the budget.
        let first = BudgetedOracle::new(&Linear, 10);
        for _ in 0..first.grant(7) {
            let _ = first.value(&[0.0, 0.0]);
        }
        let spent = first.used();
        assert_eq!(spent, 7);

        let resumed = BudgetedOracle::new(&Linear, 10);
        resumed.restore_spent(spent);
        assert_eq!(resumed.used(), 7);
        assert_eq!(resumed.remaining(), 3);
        assert_eq!(resumed.grant(100), 3);
        for _ in 0..3 {
            let _ = resumed.value(&[0.0, 0.0]);
        }
        assert!(resumed.is_exhausted());
        assert_eq!(resumed.grant(1), 0);
        assert_eq!(resumed.overruns(), 0);
    }

    #[test]
    fn panicking_simulator_degrades_to_nan() {
        struct Grenade;
        impl LimitState for Grenade {
            fn dim(&self) -> usize {
                2
            }
            fn value(&self, x: &[f64]) -> f64 {
                if x[0] > 0.5 {
                    panic!("simulator crashed");
                }
                x[0]
            }
        }
        let b = BudgetedOracle::new(&Grenade, 10);
        assert_eq!(b.value(&[0.0, 0.0]), 0.0);
        // The panic is contained and surfaces as the sanitized NaN path;
        // the call still counts against the budget.
        assert!(b.value(&[1.0, 0.0]).is_nan());
        let (v, g) = b.value_grad(&[1.0, 0.0]);
        assert!(v.is_nan() && g.iter().all(|gi| gi.is_nan()));
        assert_eq!(b.used(), 3);
    }

    #[test]
    fn used_is_a_pure_read() {
        // `used()` must never charge the meter or trip the BudgetGrant
        // fault seam: checkpoints and reports poll it mid-run. Polling it
        // many times leaves the meter and every grant outcome untouched.
        let b = BudgetedOracle::new(&Linear, 5);
        let _ = b.value(&[0.0, 0.0]);
        for _ in 0..100 {
            assert_eq!(b.used(), 1);
        }
        assert_eq!(b.remaining(), 4);
        assert_eq!(b.grant(10), 4);
        assert_eq!(b.used(), 1, "grant plans; used reads");
    }

    #[test]
    fn stacks_on_counting_oracle() {
        let counting = CountingOracle::new(&Linear);
        let budgeted = BudgetedOracle::new(&counting, 100);
        for _ in 0..12 {
            let _ = budgeted.value(&[0.0, 0.0]);
        }
        assert_eq!(budgeted.used(), 12);
        assert_eq!(counting.calls(), 12);
    }
}
