//! Deterministic fault injection for the NOFIS pipeline.
//!
//! Production rare-event runs die in production ways: a simulator returns
//! NaN for one corner of the parameter space, a worker thread panics, the
//! disk refuses a checkpoint write, the process is killed mid-stage. This
//! crate provides a *seeded, index-exact* way to reproduce those failures
//! so the recovery machinery (rollback, typed errors, checkpoint/resume)
//! can be exercised systematically instead of anecdotally.
//!
//! A [`FaultPlan`] is a list of [`FaultSpec`]s, each saying "at the `at`-th
//! visit of this fault's [`Site`], inject `kind`, `count` times in a row".
//! Host crates place a *seam* at each site:
//!
//! ```
//! use nofis_faults::{check, FaultKind, Site};
//!
//! // Zero-cost when disabled: `check` is one relaxed atomic load.
//! if let Some(FaultKind::OracleNan) = check(Site::OracleCall) {
//!     // return NaN instead of calling the simulator
//! }
//! ```
//!
//! Sites count their visits with per-site atomic counters inside the
//! installed plan, so injection points are exact and deterministic: the
//! `n`-th oracle call of a seeded run is the same call at any thread count
//! (the counter orders *injections*, and the workspace's determinism
//! contract orders the work itself).
//!
//! Plans are installed process-globally ([`install`] / [`clear`]) or from
//! the `NOFIS_FAULT_PLAN` environment variable ([`init_from_env`], called
//! by `Nofis::new`), using a tiny grammar:
//!
//! ```text
//! NOFIS_FAULT_PLAN="oracle_nan@120x5;ckpt_fail@2;kill@4000"
//! ```
//!
//! i.e. semicolon-separated `kind@index` entries with an optional `xCOUNT`
//! repeat. This crate is dependency-free (like `nofis-parallel`): hosts own
//! the side effects (telemetry events, the actual `panic!`/`exit`), this
//! crate only decides *where* and *when*.

#![deny(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Process exit code used by hosts honoring [`FaultKind::Kill`], chosen to
/// be distinguishable from panics (101) and clean exits in chaos tests.
pub const KILL_EXIT_CODE: i32 = 87;

/// An injection seam in the pipeline. Each site keeps its own visit
/// counter, so `at` indices in a [`FaultSpec`] are per-site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// One simulator evaluation (`value` / `value_grad`) through the
    /// budgeted oracle wrapper.
    OracleCall,
    /// One budget planning call, `BudgetedOracle::grant`.
    BudgetGrant,
    /// One chunk claimed by a *helper* thread inside the parallel pool
    /// (the caller's lane is never targeted, so the panic always crosses
    /// the worker-to-caller re-raise path).
    WorkerChunk,
    /// One durable checkpoint write attempt.
    CkptWrite,
    /// One job admission decision in the `nofis-jobs` scheduler (visited
    /// once per `JobRunner::submit` call).
    JobSubmit,
    /// One job starting on a scheduler worker (visited once per job).
    JobStart,
}

impl Site {
    const COUNT: usize = 6;

    fn index(self) -> usize {
        match self {
            Site::OracleCall => 0,
            Site::BudgetGrant => 1,
            Site::WorkerChunk => 2,
            Site::CkptWrite => 3,
            Site::JobSubmit => 4,
            Site::JobStart => 5,
        }
    }

    /// Stable machine-readable name (used in telemetry fields).
    pub fn as_str(self) -> &'static str {
        match self {
            Site::OracleCall => "oracle_call",
            Site::BudgetGrant => "budget_grant",
            Site::WorkerChunk => "worker_chunk",
            Site::CkptWrite => "ckpt_write",
            Site::JobSubmit => "job_submit",
            Site::JobStart => "job_start",
        }
    }
}

/// What to inject when a [`FaultSpec`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The simulator returns NaN (value and gradient).
    OracleNan,
    /// The simulator returns +∞ (value and gradient).
    OracleInf,
    /// The simulator panics mid-call.
    OraclePanic,
    /// The call budget is forced to exhaustion at a `grant`.
    BudgetExhaust,
    /// A pool helper thread panics while holding a claimed chunk.
    WorkerPanic,
    /// A checkpoint write fails with an I/O error.
    CkptWriteFail,
    /// The process exits immediately with [`KILL_EXIT_CODE`] (a simulated
    /// `kill -9` at an exact oracle-call index).
    Kill,
    /// A scheduler job panics as it starts (a poisoned testcase;
    /// must never take down co-tenant jobs).
    JobPanic,
    /// Job admission is forced to see a full queue, exercising the
    /// load-shedding path.
    QueueOverflow,
}

impl FaultKind {
    /// Every kind, in declaration order — the grammar's keyword table.
    pub const ALL: [FaultKind; 9] = [
        FaultKind::OracleNan,
        FaultKind::OracleInf,
        FaultKind::OraclePanic,
        FaultKind::BudgetExhaust,
        FaultKind::WorkerPanic,
        FaultKind::CkptWriteFail,
        FaultKind::Kill,
        FaultKind::JobPanic,
        FaultKind::QueueOverflow,
    ];

    /// The seam this fault fires at.
    pub fn site(self) -> Site {
        match self {
            FaultKind::OracleNan | FaultKind::OracleInf | FaultKind::OraclePanic => {
                Site::OracleCall
            }
            FaultKind::Kill => Site::OracleCall,
            FaultKind::BudgetExhaust => Site::BudgetGrant,
            FaultKind::WorkerPanic => Site::WorkerChunk,
            FaultKind::CkptWriteFail => Site::CkptWrite,
            FaultKind::QueueOverflow => Site::JobSubmit,
            FaultKind::JobPanic => Site::JobStart,
        }
    }

    /// Stable machine-readable name — also the grammar keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::OracleNan => "oracle_nan",
            FaultKind::OracleInf => "oracle_inf",
            FaultKind::OraclePanic => "oracle_panic",
            FaultKind::BudgetExhaust => "budget_exhaust",
            FaultKind::WorkerPanic => "worker_panic",
            FaultKind::CkptWriteFail => "ckpt_fail",
            FaultKind::Kill => "kill",
            FaultKind::JobPanic => "job_panic",
            FaultKind::QueueOverflow => "queue_overflow",
        }
    }

    fn parse(s: &str) -> Option<FaultKind> {
        FaultKind::ALL.into_iter().find(|k| k.as_str() == s)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One scheduled injection: fire `kind` at visits `at .. at + count` of its
/// site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to inject.
    pub kind: FaultKind,
    /// 0-based site-visit index of the first injection.
    pub at: u64,
    /// How many consecutive visits to inject (a "burst"; at least 1).
    pub count: u64,
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 1 {
            write!(f, "{}@{}", self.kind, self.at)
        } else {
            write!(f, "{}@{}x{}", self.kind, self.at, self.count)
        }
    }
}

/// A malformed fault-plan string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanError {
    message: String,
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.message)
    }
}

impl std::error::Error for FaultPlanError {}

fn plan_err(message: impl Into<String>) -> FaultPlanError {
    FaultPlanError {
        message: message.into(),
    }
}

/// A deterministic injection schedule: specs plus one visit counter per
/// [`Site`]. Counters start at zero when the plan is installed.
#[derive(Debug, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    visits: [AtomicU64; Site::COUNT],
}

impl FaultPlan {
    /// Builds a plan from explicit specs.
    pub fn new(specs: Vec<FaultSpec>) -> FaultPlan {
        FaultPlan {
            specs,
            visits: Default::default(),
        }
    }

    /// Parses the `NOFIS_FAULT_PLAN` grammar: semicolon-separated
    /// `kind@index` entries with an optional `xCOUNT` suffix, e.g.
    /// `oracle_nan@120x5;kill@4000`. Whitespace around entries is ignored;
    /// an empty string is an empty (but valid) plan.
    ///
    /// # Errors
    ///
    /// Returns [`FaultPlanError`] on an unknown kind, a missing/garbled
    /// index, or a zero repeat count.
    pub fn parse(text: &str) -> Result<FaultPlan, FaultPlanError> {
        let mut specs = Vec::new();
        for entry in text.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (kind_str, rest) = entry
                .split_once('@')
                .ok_or_else(|| plan_err(format!("entry {entry:?} is missing '@index'")))?;
            let kind = FaultKind::parse(kind_str.trim()).ok_or_else(|| {
                let names: Vec<&str> = FaultKind::ALL.iter().map(|k| k.as_str()).collect();
                plan_err(format!(
                    "unknown fault kind {:?} (expected one of {})",
                    kind_str.trim(),
                    names.join(", ")
                ))
            })?;
            let (at_str, count_str) = match rest.split_once('x') {
                Some((a, c)) => (a, Some(c)),
                None => (rest, None),
            };
            let at: u64 = at_str.trim().parse().map_err(|_| {
                plan_err(format!("bad index {:?} in entry {entry:?}", at_str.trim()))
            })?;
            let count: u64 = match count_str {
                Some(c) => c.trim().parse().map_err(|_| {
                    plan_err(format!("bad count {:?} in entry {entry:?}", c.trim()))
                })?,
                None => 1,
            };
            if count == 0 {
                return Err(plan_err(format!("zero count in entry {entry:?}")));
            }
            specs.push(FaultSpec { kind, at, count });
        }
        Ok(FaultPlan::new(specs))
    }

    /// The scheduled injections.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Records one visit of `site` and returns the fault to inject there,
    /// if any spec covers this visit index. Earlier specs win on overlap.
    pub fn check(&self, site: Site) -> Option<FaultKind> {
        let visit = self.visits[site.index()].fetch_add(1, Ordering::Relaxed);
        self.specs
            .iter()
            .find(|s| s.kind.site() == site && visit >= s.at && visit < s.at + s.count)
            .map(|s| s.kind)
    }

    /// Visits recorded at `site` since the plan was created/installed.
    pub fn visits(&self, site: Site) -> u64 {
        self.visits[site.index()].load(Ordering::Relaxed)
    }
}

/// Renders the grammar back out, so a plan round-trips through the
/// environment variable.
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.specs.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// Fast path: whether any plan is installed. One relaxed atomic load —
/// this is the entire cost of a disabled seam.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Records one visit of `site` against the installed plan (if any) and
/// returns the fault to inject. Always `None` when no plan is installed,
/// without touching any counter.
pub fn check(site: Site) -> Option<FaultKind> {
    if !active() {
        return None;
    }
    let guard = PLAN.read().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().and_then(|p| p.check(site))
}

/// Installs `plan` process-globally, replacing any previous plan and
/// resetting all site-visit counters (the plan carries its own).
pub fn install(plan: FaultPlan) -> Arc<FaultPlan> {
    let plan = Arc::new(plan);
    let mut guard = PLAN.write().unwrap_or_else(|e| e.into_inner());
    *guard = Some(Arc::clone(&plan));
    ACTIVE.store(true, Ordering::Relaxed);
    plan
}

/// Removes the installed plan; every seam returns to its zero-cost path.
pub fn clear() {
    let mut guard = PLAN.write().unwrap_or_else(|e| e.into_inner());
    ACTIVE.store(false, Ordering::Relaxed);
    *guard = None;
}

/// Installs a plan from the `NOFIS_FAULT_PLAN` environment variable, once
/// per process: the first call with the variable set parses and installs
/// it (returning `Ok(true)`); later calls — and calls without the variable
/// — are no-ops (`Ok(false)`). One-shot so that a pipeline constructed
/// several times (train + estimate + diagnostics) keeps one set of visit
/// counters for the whole process, which is what makes `at` indices exact.
///
/// # Errors
///
/// Returns [`FaultPlanError`] if the variable is set but malformed.
pub fn init_from_env() -> Result<bool, FaultPlanError> {
    let text = match std::env::var("NOFIS_FAULT_PLAN") {
        Ok(text) => text,
        Err(_) => return Ok(false),
    };
    let plan = FaultPlan::parse(&text)?;
    let mut guard = PLAN.write().unwrap_or_else(|e| e.into_inner());
    if ENV_INSTALLED.swap(true, Ordering::SeqCst) {
        return Ok(false);
    }
    *guard = Some(Arc::new(plan));
    ACTIVE.store(true, Ordering::Relaxed);
    Ok(true)
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static ENV_INSTALLED: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_grammar() {
        let plan = FaultPlan::parse(" oracle_nan@120x5; kill@4000 ;;ckpt_fail@0 ").unwrap();
        assert_eq!(
            plan.specs(),
            &[
                FaultSpec {
                    kind: FaultKind::OracleNan,
                    at: 120,
                    count: 5
                },
                FaultSpec {
                    kind: FaultKind::Kill,
                    at: 4000,
                    count: 1
                },
                FaultSpec {
                    kind: FaultKind::CkptWriteFail,
                    at: 0,
                    count: 1
                },
            ]
        );
        assert_eq!(plan.to_string(), "oracle_nan@120x5;kill@4000;ckpt_fail@0");
        // Round-trips through its own Display.
        let again = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(again.specs(), plan.specs());
        assert!(FaultPlan::parse("").unwrap().specs().is_empty());
        // The plans CI injects.
        for text in [
            "oracle_nan@5000x40;kill@24000",
            "job_panic@0;queue_overflow@2",
        ] {
            assert_eq!(FaultPlan::parse(text).unwrap().to_string(), text);
        }
    }

    #[test]
    fn rejects_malformed_plans() {
        for bad in [
            "oracle_nan",       // missing @index
            "warp_core@3",      // unknown kind
            "oracle_nan@x",     // garbled index
            "oracle_nan@1x0",   // zero count
            "oracle_nan@1xtwo", // garbled count
            "kill@-1",          // negative index
            "shard_death@2",    // a removed kind
            "deadline_storm@1", // a removed kind
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad:?} should be rejected");
        }
        // An unknown kind's message lists exactly the kinds that exist.
        assert_eq!(
            FaultPlan::parse("shard_death@2").unwrap_err().to_string(),
            "invalid fault plan: unknown fault kind \"shard_death\" (expected one of \
             oracle_nan, oracle_inf, oracle_panic, budget_exhaust, worker_panic, ckpt_fail, \
             kill, job_panic, queue_overflow)"
        );
    }

    #[test]
    fn fires_at_exact_visit_indices() {
        let plan = FaultPlan::parse("oracle_nan@2x2;budget_exhaust@1").unwrap();
        // Oracle site: visits 0,1 clean; 2,3 inject; 4 clean.
        assert_eq!(plan.check(Site::OracleCall), None);
        assert_eq!(plan.check(Site::OracleCall), None);
        assert_eq!(plan.check(Site::OracleCall), Some(FaultKind::OracleNan));
        assert_eq!(plan.check(Site::OracleCall), Some(FaultKind::OracleNan));
        assert_eq!(plan.check(Site::OracleCall), None);
        // Sites count independently.
        assert_eq!(plan.check(Site::BudgetGrant), None);
        assert_eq!(
            plan.check(Site::BudgetGrant),
            Some(FaultKind::BudgetExhaust)
        );
        assert_eq!(plan.visits(Site::OracleCall), 5);
        assert_eq!(plan.visits(Site::BudgetGrant), 2);
        assert_eq!(plan.visits(Site::CkptWrite), 0);
    }

    #[test]
    fn global_registry_is_zero_cost_when_clear() {
        clear();
        assert!(!active());
        assert_eq!(check(Site::OracleCall), None);
        let plan = install(FaultPlan::parse("ckpt_fail@0").unwrap());
        assert!(active());
        assert_eq!(check(Site::CkptWrite), Some(FaultKind::CkptWriteFail));
        assert_eq!(check(Site::CkptWrite), None);
        assert_eq!(plan.visits(Site::CkptWrite), 2);
        clear();
        // Counters are gone with the plan; a fresh install starts at zero.
        let plan = install(FaultPlan::parse("ckpt_fail@0").unwrap());
        assert_eq!(check(Site::CkptWrite), Some(FaultKind::CkptWriteFail));
        assert_eq!(plan.visits(Site::CkptWrite), 1);
        clear();
    }

    #[test]
    fn kinds_map_to_their_sites() {
        for (kind, site) in [
            (FaultKind::OracleNan, Site::OracleCall),
            (FaultKind::OracleInf, Site::OracleCall),
            (FaultKind::OraclePanic, Site::OracleCall),
            (FaultKind::Kill, Site::OracleCall),
            (FaultKind::BudgetExhaust, Site::BudgetGrant),
            (FaultKind::WorkerPanic, Site::WorkerChunk),
            (FaultKind::CkptWriteFail, Site::CkptWrite),
            (FaultKind::JobPanic, Site::JobStart),
            (FaultKind::QueueOverflow, Site::JobSubmit),
        ] {
            assert_eq!(kind.site(), site);
        }
    }

    #[test]
    fn every_kind_round_trips_through_the_plan_grammar() {
        for kind in FaultKind::ALL {
            let text = format!("{kind}@3x2");
            let plan = FaultPlan::parse(&text).unwrap();
            assert_eq!(
                plan.specs(),
                &[FaultSpec {
                    kind,
                    at: 3,
                    count: 2
                }]
            );
            assert_eq!(plan.to_string(), text);
        }
    }
}
