//! Corner-sweep workload engine (DESIGN.md §14).
//!
//! Verification signoff evaluates one circuit across a grid of PVT
//! corners — a *family* of limit states `g_i(x) = raw(x) − a_i`
//! ([`CornerFamily`], `nofis-testcases`) — and the naive approach trains
//! every corner cold, serially. This crate treats the whole family as one
//! workload on the `nofis-jobs` runner and stacks three reuse mechanisms
//! on top, none of which changes any estimated value:
//!
//! 1. **Nearest-first frontier scheduling** ([`plan_waves`]): corners are
//!    submitted in deterministic waves expanding outward from the grid's
//!    most central corner, so every corner starts with a finished
//!    neighbor nearby. Waves and donors are computed from grid *geometry*
//!    alone — never from runtime completion order — so the schedule is
//!    identical at any worker count.
//! 2. **Warm starts**: each non-seed corner seeds its flow parameters and
//!    Adam moments from its nearest finished corner (donor compatibility
//!    pinned by `nofis_core::checkpoint::warm_fingerprint`) and trains a
//!    shortened refine schedule ([`SweepConfig::warm_epochs`]), spending
//!    strictly fewer oracle evaluations than a cold corner.
//! 3. **A shared raw-metric memo** ([`OracleMemo`]): all corners share one
//!    raw metric, so corners evaluating the same input vector — routine
//!    under the sweep's common-random-number seeding — reuse each other's
//!    simulations. Each distinct point is simulated once per request kind;
//!    a corner that asks for a point another corner is simulating waits
//!    for those bits instead of simulating it again.
//!
//! # Determinism
//!
//! Every corner re-run cold (same seed, same config) reproduces its
//! estimate bitwise. The memo changes *call counts*, never values: the
//! raw metric is a pure function, so a hit returns exactly the bits a
//! fresh evaluation would produce. Per-corner [`CornerReport::evals`]
//! (evaluations the corner *requested*) is deterministic, and so is the
//! sweep's [`SweepReport::total_real_calls`]: the number of distinct
//! (request kind, point) pairs its corners request. Only the per-corner
//! split between [`CornerReport::real_calls`] and
//! [`CornerReport::cache_hits`] moves with co-tenant timing — which
//! corner reaches a shared point first.
//!
//! # Example
//!
//! ```no_run
//! use nofis_sweep::{run_sweep, SweepConfig};
//! use nofis_testcases::PvtGrid;
//! use std::sync::Arc;
//!
//! let family = Arc::new(PvtGrid::opamp(3, 3).with_base_spec(76.0));
//! let cfg = SweepConfig::new(Default::default(), "ckpts/sweep");
//! let report = run_sweep(family, &cfg).unwrap();
//! for c in &report.corners {
//!     println!("{}: {:?} ({} evals)", c.label, c.estimate, c.evals);
//! }
//! ```

#![deny(missing_docs)]

use nofis_core::checkpoint::{load_warm_start, WarmStart};
use nofis_core::{CheckpointConfig, NofisConfig, NofisError};
use nofis_jobs::{JobRunner, JobSpec, RunnerConfig, ShutdownMode};
use nofis_prob::LimitState;
use nofis_telemetry as tele;
use nofis_testcases::CornerFamily;
use serde::Serialize;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Shared raw-metric memo
// ---------------------------------------------------------------------------

/// One memo entry's identity: the family's oracle id and the exact
/// IEEE-754 bits of the input, so `-0.0` and `+0.0`, or two NaN payloads,
/// are distinct points.
type Key = (u64, Box<[u64]>);

/// Results of one request kind, each computed at most once per key. The
/// map lock is held only to find or insert a key's cell; the simulation
/// runs outside it, inside the cell's [`OnceLock`], so requests for the
/// same point in flight wait for it while other points proceed.
struct Memo<T>(Mutex<HashMap<Key, Arc<OnceLock<T>>>>);

impl<T> Default for Memo<T> {
    fn default() -> Self {
        Memo(Mutex::default())
    }
}

impl<T: Clone> Memo<T> {
    /// The result for `(oracle_id, x)`, running `eval` only if no earlier
    /// request stored one, and whether this call ran it. If `eval`
    /// panics nothing is stored: the next request for the point runs it.
    fn get_or_eval(&self, oracle_id: u64, x: &[f64], eval: impl FnOnce() -> T) -> (T, bool) {
        let key = (oracle_id, x.iter().map(|v| v.to_bits()).collect());
        let cell = {
            let mut map = self.0.lock().expect("memo poisoned");
            Arc::clone(map.entry(key).or_default())
        };
        let mut ran = false;
        let result = cell.get_or_init(|| {
            ran = true;
            eval()
        });
        (result.clone(), ran)
    }

    /// Keys holding a result; a key whose only simulation panicked has
    /// none.
    fn len(&self) -> usize {
        let map = self.0.lock().expect("memo poisoned");
        map.values().filter(|cell| cell.get().is_some()).count()
    }
}

/// Raw-metric results shared by every corner of a sweep: one memo for
/// `value` requests and one for `value_grad` requests, keyed on the
/// family's [`CornerFamily::oracle_id`] and the input's exact bits.
///
/// The two kinds never serve each other — a family's `raw` and
/// `raw_grad` may round differently — so each distinct (kind, point)
/// pair reaches the simulator exactly once, however the corners asking
/// for it interleave.
#[derive(Default)]
pub struct OracleMemo {
    values: Memo<f64>,
    grads: Memo<(f64, Vec<f64>)>,
}

impl OracleMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stored entries, both kinds together.
    pub fn len(&self) -> usize {
        self.values.len() + self.grads.len()
    }

    /// Whether nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

// ---------------------------------------------------------------------------
// Corner oracle: one corner's limit state over the shared raw metric
// ---------------------------------------------------------------------------

/// One corner's limit state `g_i(x) = raw(x) − a_i`, backed by the
/// family's shared raw metric and (optionally) a shared [`OracleMemo`].
///
/// The memo sits *in front of* the simulator: a hit never evaluates the
/// family's raw metric. Per-corner traffic counters (total evaluations,
/// simulator calls, memo hits) are plain observability reads — they are
/// never fed back into any computation.
pub struct CornerOracle<F: CornerFamily> {
    family: Arc<F>,
    threshold: f64,
    name: String,
    memo: Option<Arc<OracleMemo>>,
    oracle_id: u64,
    evals: AtomicU64,
    real: AtomicU64,
    hits: AtomicU64,
}

impl<F: CornerFamily> CornerOracle<F> {
    /// The corner's limit state, sharing raw-metric evaluations through
    /// `memo` (shared across sibling corners) when one is given.
    ///
    /// # Panics
    ///
    /// Panics if `corner` is out of range for the family.
    pub fn new(family: Arc<F>, corner: usize, memo: Option<Arc<OracleMemo>>) -> Self {
        assert!(corner < family.corners(), "corner {corner} out of range");
        let threshold = family.threshold(corner);
        let name = format!("{}/{}", family.name(), family.corner_label(corner));
        let oracle_id = family.oracle_id();
        CornerOracle {
            family,
            threshold,
            name,
            memo,
            oracle_id,
            evals: AtomicU64::new(0),
            real: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// Total `g` evaluations this corner requested. Deterministic for a
    /// given config and seed (the training schedule fixes it).
    pub fn evals(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    /// Evaluations that actually ran the simulator (memo misses, or all
    /// of them when no memo is attached). With a shared memo the split
    /// between this and [`CornerOracle::cache_hits`] depends on which
    /// corner reaches a shared point first, so it can differ between runs
    /// of one seed; only [`CornerOracle::evals`] and the sweep's total
    /// repeat.
    pub fn real_calls(&self) -> u64 {
        self.real.load(Ordering::Relaxed)
    }

    /// Evaluations answered from the shared memo, including requests that
    /// waited for a sibling corner's simulation of the same point. Not
    /// reproducible per corner; see [`CornerOracle::real_calls`].
    pub fn cache_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// The corner's failure threshold `a_i` on the raw metric.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Answers one request of one kind, from `memo` when attached, and
    /// counts it. A simulation counts as a real call as it starts, so one
    /// that panics is counted too.
    fn request<T: Clone>(
        &self,
        memo: impl FnOnce(&OracleMemo) -> &Memo<T>,
        x: &[f64],
        eval: impl FnOnce() -> T,
    ) -> T {
        self.evals.fetch_add(1, Ordering::Relaxed);
        let simulate = || {
            self.real.fetch_add(1, Ordering::Relaxed);
            eval()
        };
        let Some(m) = &self.memo else {
            return simulate();
        };
        let (result, ran) = memo(m).get_or_eval(self.oracle_id, x, simulate);
        if !ran {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        result
    }
}

impl<F: CornerFamily> LimitState for CornerOracle<F> {
    fn dim(&self) -> usize {
        self.family.dim()
    }

    fn value(&self, x: &[f64]) -> f64 {
        self.request(|m| &m.values, x, || self.family.raw(x)) - self.threshold
    }

    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let (raw, grad) = self.request(|m| &m.grads, x, || self.family.raw_grad(x));
        // The threshold is a constant shift: the gradient passes through.
        (raw - self.threshold, grad)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

// ---------------------------------------------------------------------------
// Deterministic frontier planning
// ---------------------------------------------------------------------------

/// Plans the sweep's submission waves from corner geometry alone.
///
/// Wave 0 is the family's most central corner (minimum summed distance to
/// all others; ties break to the lowest index). Each later wave is the
/// set of unassigned corners at the minimum distance from the already-
/// assigned frontier — the sweep expands outward, so every corner has a
/// finished near neighbor to warm-start from. Purely a function of
/// [`CornerFamily::distance`]: worker count and completion order cannot
/// change it.
pub fn plan_waves<F: CornerFamily + ?Sized>(family: &F) -> Vec<Vec<usize>> {
    let n = family.corners();
    if n == 0 {
        return Vec::new();
    }
    // Row-major n × n: `dist[a * n + b] = family.distance(a, b)`, every
    // ordered pair, so an asymmetric distance plans as it is queried.
    let dist: Vec<f64> = (0..n)
        .flat_map(|a| (0..n).map(move |b| family.distance(a, b)))
        .collect();
    let sums: Vec<f64> = dist.chunks_exact(n).map(|row| row.iter().sum()).collect();
    let seed = (0..n)
        .min_by(|&a, &b| {
            sums[a]
                .partial_cmp(&sums[b])
                .expect("corner distances must not be NaN")
                .then(a.cmp(&b))
        })
        .expect("n > 0");
    let mut assigned = vec![false; n];
    // Distance of each corner to the assigned frontier, lowered as each
    // corner is assigned.
    let mut frontier = vec![f64::INFINITY; n];
    let mut waves = Vec::new();
    let mut wave = vec![seed];
    while !wave.is_empty() {
        for &a in &wave {
            assigned[a] = true;
            for (c, f) in frontier.iter_mut().enumerate() {
                *f = f.min(dist[c * n + a]);
            }
        }
        waves.push(wave);
        let unassigned = || (0..n).filter(|&c| !assigned[c]);
        let dmin = unassigned()
            .map(|c| frontier[c])
            .fold(f64::INFINITY, f64::min);
        wave = unassigned().filter(|&c| frontier[c] <= dmin).collect();
    }
    waves
}

/// The warm-start donor for `corner`: the nearest member of any earlier
/// wave (ties break to the lowest index). `None` for wave-0 corners.
pub fn donor_for<F: CornerFamily + ?Sized>(
    family: &F,
    waves: &[Vec<usize>],
    wave: usize,
    corner: usize,
) -> Option<usize> {
    if wave == 0 {
        return None;
    }
    waves[..wave].iter().flatten().copied().min_by(|&a, &b| {
        family
            .distance(corner, a)
            .partial_cmp(&family.distance(corner, b))
            .expect("corner distances must not be NaN")
            .then(a.cmp(&b))
    })
}

// ---------------------------------------------------------------------------
// Sweep configuration
// ---------------------------------------------------------------------------

/// Configuration of one corner sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Per-corner NOFIS configuration for *cold* corners. The sweep
    /// overrides `checkpoint` (per-corner namespaces under
    /// [`SweepConfig::checkpoint_dir`]) and, for warm corners, `epochs`.
    pub base: NofisConfig,
    /// Root checkpoint directory; corner `label` checkpoints under the
    /// `job-<label>` namespace, which is also where sibling corners look
    /// for warm-start donors.
    pub checkpoint_dir: PathBuf,
    /// Common-random-number seed shared by every corner: identical
    /// early-training sample streams are what make cross-corner memo
    /// hits routine.
    pub seed: u64,
    /// Concurrent corner jobs (runner workers).
    pub workers: usize,
    /// Whether non-seed corners warm-start from their nearest finished
    /// neighbor. Off = every corner trains cold (the baseline).
    pub warm: bool,
    /// Training epochs for warm-started corners (cold corners use
    /// `base.epochs`). Must be in `1..=base.epochs`; the strictly-smaller
    /// refine schedule is what guarantees warm corners spend strictly
    /// fewer oracle evaluations.
    pub warm_epochs: usize,
    /// Whether corners share a raw-metric [`OracleMemo`].
    pub cache: bool,
}

impl SweepConfig {
    /// Defaults: warm starts on at half the cold epoch count, shared
    /// cache on, 2 workers, seed 0.
    pub fn new(base: NofisConfig, checkpoint_dir: impl Into<PathBuf>) -> Self {
        let warm_epochs = (base.epochs.div_ceil(2)).max(1);
        SweepConfig {
            base,
            checkpoint_dir: checkpoint_dir.into(),
            seed: 0,
            workers: 2,
            warm: true,
            warm_epochs,
            cache: true,
        }
    }

    fn corner_checkpoint(&self, label: &str) -> CheckpointConfig {
        CheckpointConfig::new(&self.checkpoint_dir).with_namespace(label)
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Outcome and traffic accounting for one corner.
#[derive(Debug, Clone, Serialize)]
pub struct CornerReport {
    /// Corner index in the family.
    pub corner: usize,
    /// Stable corner label (also the checkpoint namespace).
    pub label: String,
    /// Corner coordinates in corner-parameter space.
    pub params: Vec<f64>,
    /// Failure threshold `a_i` on the raw metric.
    pub threshold: f64,
    /// Submission wave index (0 = the sweep's seed corner).
    pub wave: usize,
    /// Whether this corner actually trained from a warm start.
    pub warm: bool,
    /// Donor corner label when warm.
    pub donor: Option<String>,
    /// Training epochs this corner was configured with.
    pub epochs: usize,
    /// Failure-probability estimate; `None` when the job failed.
    pub estimate: Option<f64>,
    /// `"FinalProposal"`, the Debug form of
    /// [`nofis_prob::IsResult::rung`]; kept only for the end-to-end
    /// benchmark, which still reads it.
    pub rung: Option<String>,
    /// Terminal job error, if any.
    pub error: Option<String>,
    /// Total `g` evaluations the corner requested (deterministic).
    pub evals: u64,
    /// Evaluations that reached the simulator (memo misses). With the
    /// shared memo, the split between this and `cache_hits` depends on
    /// which corner reaches a shared point first, so it can differ between
    /// runs of one seed; only `evals` and
    /// [`SweepReport::total_real_calls`] repeat.
    pub real_calls: u64,
    /// Evaluations answered by the shared memo; not reproducible per
    /// corner, like `real_calls`.
    pub cache_hits: u64,
    /// `cache_hits / evals` in `[0, 1]`; not reproducible per corner.
    pub hit_rate: f64,
}

/// Shared-memo traffic totals for the whole sweep, summed from the
/// per-corner counters.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CacheTotals {
    /// Requests answered from the memo (Σ [`CornerReport::cache_hits`]).
    pub hits: u64,
    /// Requests that ran the simulator (Σ [`CornerReport::real_calls`]).
    pub misses: u64,
    /// Distinct entries resident at sweep end, both request kinds.
    pub entries: usize,
    /// `hits / (hits + misses)`.
    pub hit_rate: f64,
}

/// The result of [`run_sweep`]: per-corner outcomes plus sweep-level
/// accounting, serializable straight into `results/BENCH_sweep.json`.
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// Family name.
    pub family: String,
    /// Per-corner outcomes, in corner-index order.
    pub corners: Vec<CornerReport>,
    /// The deterministic submission waves.
    pub waves: Vec<Vec<usize>>,
    /// Runner worker count used.
    pub workers: usize,
    /// Common-random-number seed.
    pub seed: u64,
    /// Whether warm starts were enabled.
    pub warm_enabled: bool,
    /// Whether the shared memo was enabled.
    pub cache_enabled: bool,
    /// Memo totals when the memo was enabled.
    pub cache: Option<CacheTotals>,
    /// Sum of per-corner requested evaluations.
    pub total_evals: u64,
    /// Sum of per-corner simulator calls. With the memo this is the number
    /// of distinct (request kind, point) pairs the corners request, and
    /// without it `total_evals`; either way the same on every run of a
    /// seed.
    pub total_real_calls: u64,
    /// End-to-end wall-clock milliseconds.
    pub wall_ms: f64,
}

impl SweepReport {
    /// Whether every corner produced an estimate.
    pub fn all_ok(&self) -> bool {
        self.corners.iter().all(|c| c.estimate.is_some())
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Runs the whole corner family as one scheduled workload and returns
/// per-corner estimates and traffic accounting.
///
/// Corners are submitted wave by wave ([`plan_waves`]); the sweep waits
/// for a wave to finish before submitting the next, because warm starts
/// read *finished* donor checkpoints. Within a wave, corners run
/// concurrently on [`SweepConfig::workers`] runner workers, sharing the
/// raw-metric memo when [`SweepConfig::cache`] is on, and start in
/// submission order.
///
/// A failed corner is recorded in its [`CornerReport::error`] and does
/// not abort the sweep; corners that would have warm-started from it
/// find no finished donor checkpoint and train cold instead.
///
/// # Errors
///
/// [`NofisError::InvalidInput`] for an empty family or a
/// [`SweepConfig::warm_epochs`] outside `1..=base.epochs`. Per-corner
/// training errors are reported per corner, not returned.
pub fn run_sweep<F: CornerFamily + 'static>(
    family: Arc<F>,
    cfg: &SweepConfig,
) -> Result<SweepReport, NofisError> {
    let n = family.corners();
    if n == 0 {
        return Err(NofisError::InvalidInput {
            message: "corner family has no corners".into(),
        });
    }
    if cfg.warm && !(1..=cfg.base.epochs).contains(&cfg.warm_epochs) {
        return Err(NofisError::InvalidInput {
            message: format!(
                "warm_epochs must be in 1..={} (got {})",
                cfg.base.epochs, cfg.warm_epochs
            ),
        });
    }

    let waves = plan_waves(family.as_ref());
    let memo = cfg.cache.then(|| Arc::new(OracleMemo::new()));
    let runner = JobRunner::new(RunnerConfig {
        workers: cfg.workers.max(1),
        queue_capacity: n.max(1),
    });

    tele::event(tele::Level::Info, "sweep.start")
        .field("family", family.name())
        .field("corners", n as u64)
        .field("waves", waves.len() as u64)
        .field("workers", cfg.workers as u64)
        .field("warm", cfg.warm)
        .field("cache", cfg.cache)
        .emit();

    let t0 = Instant::now();
    let mut reports: Vec<Option<CornerReport>> = (0..n).map(|_| None).collect();
    for (k, wave) in waves.iter().enumerate() {
        let mut in_flight = Vec::with_capacity(wave.len());
        for &corner in wave {
            let label = family.corner_label(corner);
            let mut corner_cfg = cfg.base.clone();
            corner_cfg.checkpoint = Some(cfg.corner_checkpoint(&label));

            // Donor lookup: geometry decides *who*, the disk decides
            // *whether* — a missing or unfinished donor checkpoint (e.g.
            // the donor failed) degrades this corner to a cold start.
            let mut donor_label = None;
            let mut warm_start: Option<Arc<WarmStart>> = None;
            if cfg.warm {
                if let Some(d) = donor_for(family.as_ref(), &waves, k, corner) {
                    let dl = family.corner_label(d);
                    let dir = cfg.corner_checkpoint(&dl).effective_dir();
                    match load_warm_start(&dir, &dl) {
                        Ok(Some(ws)) => {
                            donor_label = Some(dl);
                            warm_start = Some(Arc::new(ws));
                        }
                        Ok(None) => {
                            tele::event(tele::Level::Warn, "sweep.warm_miss")
                                .field("corner", label.as_str())
                                .field("donor", dl.as_str())
                                .emit();
                        }
                        Err(e) => {
                            tele::event(tele::Level::Warn, "sweep.warm_miss")
                                .field("corner", label.as_str())
                                .field("donor", dl.as_str())
                                .field("error", e.to_string().as_str())
                                .emit();
                        }
                    }
                }
            }
            let warm = warm_start.is_some();
            if warm {
                corner_cfg.epochs = cfg.warm_epochs;
                corner_cfg.minibatch = corner_cfg.minibatch.min(corner_cfg.batch_size);
            }
            let epochs = corner_cfg.epochs;

            let oracle = Arc::new(CornerOracle::new(Arc::clone(&family), corner, memo.clone()));
            let mut spec = JobSpec::new(
                label.clone(),
                corner_cfg,
                Arc::clone(&oracle) as Arc<dyn LimitState + Send + Sync>,
                cfg.seed,
            );
            spec.warm_start = warm_start;
            let handle = runner.submit(spec);
            in_flight.push((corner, label, donor_label, warm, epochs, oracle, handle));
        }

        // Barrier: the next wave warm-starts from this one's checkpoints.
        for (corner, label, donor, warm, epochs, oracle, handle) in in_flight {
            let outcome = handle.wait();
            let evals = oracle.evals();
            let real_calls = oracle.real_calls();
            let cache_hits = oracle.cache_hits();
            let hit_rate = if evals == 0 {
                0.0
            } else {
                cache_hits as f64 / evals as f64
            };
            let (estimate, rung, error) = match outcome {
                Ok(r) => (Some(r.estimate), Some(format!("{:?}", r.rung)), None),
                Err(e) => (None, None, Some(e.to_string())),
            };
            let mut ev = tele::event(tele::Level::Info, "sweep.corner")
                .field("corner", corner as u64)
                .field("label", label.as_str())
                .field("wave", k as u64)
                .field("warm", warm)
                .field("epochs", epochs as u64)
                .field("evals", evals)
                .field("real_calls", real_calls)
                .field("cache_hits", cache_hits)
                .field("hit_rate", hit_rate);
            if let Some(d) = &donor {
                ev = ev.field("donor", d.as_str());
            }
            match (&estimate, &error) {
                (Some(est), _) => ev = ev.field("estimate", *est),
                (None, Some(err)) => ev = ev.field("error", err.as_str()),
                _ => {}
            }
            ev.emit();
            reports[corner] = Some(CornerReport {
                corner,
                params: family.corner_params(corner),
                threshold: family.threshold(corner),
                wave: k,
                warm,
                donor,
                epochs,
                estimate,
                rung,
                error,
                evals,
                real_calls,
                cache_hits,
                hit_rate,
                label,
            });
        }
    }
    runner.shutdown(ShutdownMode::Drain);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

    let corners: Vec<CornerReport> = reports
        .into_iter()
        .map(|r| r.expect("every corner is assigned to exactly one wave"))
        .collect();
    let total_evals: u64 = corners.iter().map(|c| c.evals).sum();
    let total_real_calls: u64 = corners.iter().map(|c| c.real_calls).sum();
    let cache_totals = memo.as_ref().map(|m| {
        let hits: u64 = corners.iter().map(|c| c.cache_hits).sum();
        CacheTotals {
            hits,
            misses: total_real_calls,
            entries: m.len(),
            hit_rate: if hits == 0 {
                0.0
            } else {
                hits as f64 / (hits + total_real_calls) as f64
            },
        }
    });

    let mut end = tele::event(tele::Level::Info, "sweep.end")
        .field("family", family.name())
        .field("corners", n as u64)
        .field("total_evals", total_evals)
        .field("total_real_calls", total_real_calls)
        .field("wall_ms", wall_ms);
    if let Some(t) = &cache_totals {
        end = end
            .field("cache_hits", t.hits)
            .field("cache_entries", t.entries as u64)
            .field("cache_hit_rate", t.hit_rate);
    }
    end.emit();

    Ok(SweepReport {
        family: family.name().to_string(),
        corners,
        waves,
        workers: cfg.workers.max(1),
        seed: cfg.seed,
        warm_enabled: cfg.warm,
        cache_enabled: cfg.cache,
        cache: cache_totals,
        total_evals,
        total_real_calls,
        wall_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nofis_testcases::PvtGrid;

    /// A tiny synthetic family for scheduling tests: corners on a line,
    /// raw(x) = x0, thresholds spread.
    struct Line {
        n: usize,
    }
    impl CornerFamily for Line {
        fn dim(&self) -> usize {
            2
        }
        fn name(&self) -> &str {
            "line"
        }
        fn oracle_id(&self) -> u64 {
            0xBEEF
        }
        fn corners(&self) -> usize {
            self.n
        }
        fn corner_params(&self, corner: usize) -> Vec<f64> {
            vec![corner as f64]
        }
        fn corner_label(&self, corner: usize) -> String {
            format!("c{corner}")
        }
        fn raw(&self, x: &[f64]) -> f64 {
            3.0 - x[0]
        }
        fn threshold(&self, corner: usize) -> f64 {
            corner as f64 * 0.1
        }
    }

    /// The straightforward planner that `plan_waves` replaced: it
    /// recomputes distances on every comparison. The test below holds
    /// `plan_waves` to its waves.
    fn plan_waves_reference<F: CornerFamily + ?Sized>(family: &F) -> Vec<Vec<usize>> {
        let n = family.corners();
        if n == 0 {
            return Vec::new();
        }
        let seed = (0..n)
            .min_by(|&a, &b| {
                let sa: f64 = (0..n).map(|c| family.distance(a, c)).sum();
                let sb: f64 = (0..n).map(|c| family.distance(b, c)).sum();
                sa.partial_cmp(&sb)
                    .expect("corner distances must not be NaN")
                    .then(a.cmp(&b))
            })
            .expect("n > 0");
        let mut assigned = vec![false; n];
        assigned[seed] = true;
        let mut waves = vec![vec![seed]];
        while assigned.iter().any(|&a| !a) {
            let dist_to_frontier = |c: usize| -> f64 {
                (0..n)
                    .filter(|&a| assigned[a])
                    .map(|a| family.distance(c, a))
                    .fold(f64::INFINITY, f64::min)
            };
            let dmin = (0..n)
                .filter(|&c| !assigned[c])
                .map(dist_to_frontier)
                .fold(f64::INFINITY, f64::min);
            let wave: Vec<usize> = (0..n)
                .filter(|&c| !assigned[c] && dist_to_frontier(c) <= dmin)
                .collect();
            for &c in &wave {
                assigned[c] = true;
            }
            waves.push(wave);
        }
        waves
    }

    #[test]
    fn plan_waves_matches_the_reference_planner() {
        for nv in 1..=7 {
            for nt in 1..=7 {
                let grid = PvtGrid::opamp(nv, nt);
                assert_eq!(
                    plan_waves(&grid),
                    plan_waves_reference(&grid),
                    "{nv}x{nt} grid"
                );
            }
        }
        for n in 1..=9 {
            let line = Line { n };
            assert_eq!(plan_waves(&line), plan_waves_reference(&line), "line {n}");
        }
        assert!(plan_waves(&Line { n: 0 }).is_empty());
    }

    #[test]
    fn waves_expand_from_the_center_of_a_grid() {
        let grid = PvtGrid::opamp(3, 3);
        let waves = plan_waves(&grid);
        assert_eq!(waves[0], vec![4], "center corner seeds the sweep");
        assert_eq!(waves[1], vec![1, 3, 5, 7], "edge neighbors next");
        assert_eq!(waves[2], vec![0, 2, 6, 8], "diagonals last");
        let total: usize = waves.iter().map(Vec::len).sum();
        assert_eq!(total, 9);
    }

    #[test]
    fn waves_on_a_line_expand_symmetrically() {
        let waves = plan_waves(&Line { n: 5 });
        assert_eq!(waves[0], vec![2]);
        assert_eq!(waves[1], vec![1, 3]);
        assert_eq!(waves[2], vec![0, 4]);
    }

    #[test]
    fn donors_are_the_nearest_earlier_corner() {
        let grid = PvtGrid::opamp(3, 3);
        let waves = plan_waves(&grid);
        // Wave-0 seed has no donor; edges warm from the center.
        assert_eq!(donor_for(&grid, &waves, 0, 4), None);
        for &c in &waves[1] {
            assert_eq!(donor_for(&grid, &waves, 1, c), Some(4));
        }
        // Corner 0 (grid corner) is distance 1 from edges 1 and 3 and
        // √2 from the center: ties break to the lowest index.
        assert_eq!(donor_for(&grid, &waves, 2, 0), Some(1));
        assert_eq!(donor_for(&grid, &waves, 2, 8), Some(5));
    }

    #[test]
    fn corner_oracle_shares_raw_evaluations_through_the_cache() {
        let family = Arc::new(Line { n: 3 });
        let memo = Arc::new(OracleMemo::new());
        let a = CornerOracle::new(Arc::clone(&family), 0, Some(Arc::clone(&memo)));
        let b = CornerOracle::new(Arc::clone(&family), 2, Some(Arc::clone(&memo)));
        let x = [0.5, -1.0];
        let va = a.value(&x); // miss: simulates
        let vb = b.value(&x); // hit: reuses corner 0's simulation
        assert_eq!(a.real_calls(), 1);
        assert_eq!(b.real_calls(), 0);
        assert_eq!(b.cache_hits(), 1);
        // Same raw bits, different thresholds.
        assert_eq!(
            (va + family.threshold(0)).to_bits(),
            (vb + family.threshold(2)).to_bits()
        );
        // Gradient requests get their own entry, shared the same way.
        let (_, ga) = a.value_grad(&x);
        let (_, gb) = b.value_grad(&x);
        assert_eq!(ga, gb, "threshold shift leaves the gradient untouched");
        assert_eq!((a.real_calls(), b.real_calls()), (2, 0));
        assert_eq!(memo.len(), 2, "one entry per request kind");
    }

    /// One corner of `raw(x) = x0² + 0.5·x1 − 1` with its exact gradient.
    struct Paraboloid;
    impl CornerFamily for Paraboloid {
        fn dim(&self) -> usize {
            2
        }
        fn name(&self) -> &str {
            "paraboloid"
        }
        fn oracle_id(&self) -> u64 {
            0xC0FFEE
        }
        fn corners(&self) -> usize {
            1
        }
        fn corner_params(&self, _corner: usize) -> Vec<f64> {
            vec![0.0]
        }
        fn corner_label(&self, corner: usize) -> String {
            format!("p{corner}")
        }
        fn raw(&self, x: &[f64]) -> f64 {
            x[0] * x[0] + 0.5 * x[1] - 1.0
        }
        fn raw_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
            (self.raw(x), vec![2.0 * x[0], 0.5])
        }
        fn threshold(&self, _corner: usize) -> f64 {
            0.0
        }
    }

    #[test]
    fn corner_oracle_hit_returns_first_evaluation_bitwise() {
        let memo = Arc::new(OracleMemo::new());
        let o = CornerOracle::new(Arc::new(Paraboloid), 0, Some(memo));
        let x = [0.123_456_789, -2.5];
        let v1 = o.value(&x);
        let v2 = o.value(&x);
        assert_eq!(v1.to_bits(), v2.to_bits());
        assert_eq!((o.evals(), o.real_calls(), o.cache_hits()), (2, 1, 1));
    }

    #[test]
    fn corner_oracle_value_only_entry_does_not_serve_value_grad() {
        let memo = Arc::new(OracleMemo::new());
        let o = CornerOracle::new(Arc::new(Paraboloid), 0, Some(Arc::clone(&memo)));
        let x = [0.5, 0.5];
        let v = o.value(&x);
        // The gradient request misses (value entries never serve it) and
        // simulates again into its own entry.
        let (vg, g) = o.value_grad(&x);
        assert_eq!(o.real_calls(), 2);
        assert_eq!(v.to_bits(), vg.to_bits());
        assert_eq!(g, vec![1.0, 0.5]);
        // Each entry now serves its own kind without simulating.
        let _ = o.value(&x);
        let _ = o.value_grad(&x);
        assert_eq!(o.real_calls(), 2);
        assert_eq!(memo.len(), 2, "one entry per request kind");
    }

    #[test]
    fn corner_oracle_without_cache_always_simulates() {
        let family = Arc::new(Line { n: 1 });
        let o = CornerOracle::new(family, 0, None);
        let x = [1.0, 2.0];
        let v1 = o.value(&x);
        let v2 = o.value(&x);
        assert_eq!(v1.to_bits(), v2.to_bits());
        assert_eq!(o.evals(), 2);
        assert_eq!(o.real_calls(), 2);
        assert_eq!(o.cache_hits(), 0);
    }

    #[test]
    fn sweep_config_validation() {
        let family = Arc::new(Line { n: 3 });
        let mut cfg = SweepConfig::new(NofisConfig::default(), "/tmp/unused");
        cfg.warm_epochs = cfg.base.epochs + 1;
        let err = run_sweep(family, &cfg).unwrap_err();
        assert!(matches!(err, NofisError::InvalidInput { .. }));
    }

    #[test]
    fn empty_family_is_rejected() {
        let family = Arc::new(Line { n: 0 });
        let cfg = SweepConfig::new(NofisConfig::default(), "/tmp/unused");
        assert!(matches!(
            run_sweep(family, &cfg),
            Err(NofisError::InvalidInput { .. })
        ));
    }
}
