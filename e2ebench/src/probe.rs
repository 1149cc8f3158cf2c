//! Outside-in probes for the traced run: a counting, timing wrapper around
//! the simulator (as a `LimitState` or a `CornerFamily`) and a telemetry
//! sink that reads the program's own `train.*` / `estimate` records.
//!
//! Nothing here feeds back into the computation: the wrappers return the
//! inner values unchanged and the sink only reads events, so a traced
//! estimate must equal the untraced one bit for bit.

use nofis::prob::LimitState;
use nofis::telemetry::{self as tele, Event, Kind, Level, Sink, Value};
use nofis::testcases::CornerFamily;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Which part of a NOFIS run is calling the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Phase {
    Idle = 0,
    Train = 1,
    Estimate = 2,
}

impl Phase {
    fn from_u8(v: u8) -> Phase {
        match v {
            1 => Phase::Train,
            2 => Phase::Estimate,
            _ => Phase::Idle,
        }
    }
}

/// Simulator calls by phase. During training a `value` call is a pilot
/// call and a `value_grad` call a training call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallKind {
    Pilot = 0,
    Train = 1,
    Estimate = 2,
    Unphased = 3,
}

fn kind(phase: Phase, with_grad: bool) -> CallKind {
    match (phase, with_grad) {
        (Phase::Train, false) => CallKind::Pilot,
        (Phase::Train, true) => CallKind::Train,
        (Phase::Estimate, _) => CallKind::Estimate,
        (Phase::Idle, _) => CallKind::Unphased,
    }
}

/// Counts and host time of simulator calls, shared by every lane.
#[derive(Debug, Default)]
pub struct CallLedger {
    calls: [AtomicU64; 4],
    busy_ns: [AtomicU64; 4],
    per_call_ns: Mutex<Vec<u32>>,
}

impl CallLedger {
    fn timed<T>(&self, kind: CallKind, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32;
        self.calls[kind as usize].fetch_add(1, Ordering::Relaxed);
        self.busy_ns[kind as usize].fetch_add(u64::from(ns), Ordering::Relaxed);
        self.per_call_ns
            .lock()
            .expect("no call panics while holding the sample lock")
            .push(ns);
        out
    }

    /// `(pilot, train, estimate, unphased)` call counts.
    pub fn calls(&self) -> [u64; 4] {
        std::array::from_fn(|i| self.calls[i].load(Ordering::Relaxed))
    }

    /// Host seconds inside the simulator, summed over lanes: total and
    /// the training share (pilot plus training calls).
    pub fn busy_s(&self) -> (f64, f64) {
        let ns: [u64; 4] = std::array::from_fn(|i| self.busy_ns[i].load(Ordering::Relaxed));
        let total = ns.iter().sum::<u64>() as f64 * 1e-9;
        let train = (ns[0] + ns[1]) as f64 * 1e-9;
        (total, train)
    }

    /// Median microseconds per simulator call.
    pub fn us_per_call_p50(&self) -> f64 {
        let samples = self
            .per_call_ns
            .lock()
            .expect("no call panics while holding the sample lock");
        let us: Vec<f64> = samples.iter().map(|&ns| f64::from(ns) * 1e-3).collect();
        crate::stats::median(&us)
    }
}

/// A `LimitState` that counts and times every call of the one it wraps.
/// The phase is set by the benchmark around `train_within` and
/// `estimate_within`.
pub struct ProbedState<'a, L: ?Sized> {
    pub inner: &'a L,
    pub ledger: &'a CallLedger,
    pub phase: &'a AtomicU8,
}

impl<L: LimitState + ?Sized> ProbedState<'_, L> {
    fn phase(&self) -> Phase {
        Phase::from_u8(self.phase.load(Ordering::Relaxed))
    }
}

impl<L: LimitState + ?Sized> LimitState for ProbedState<'_, L> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn value(&self, x: &[f64]) -> f64 {
        self.ledger
            .timed(kind(self.phase(), false), || self.inner.value(x))
    }
    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        self.ledger
            .timed(kind(self.phase(), true), || self.inner.value_grad(x))
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

thread_local! {
    /// Phase of the sweep job running on this thread, set by [`SpanLog`]
    /// from the job's own `train.start` / `train.end` / `estimate`
    /// records. Exact only when the pool has one lane, so every oracle
    /// call of a job runs on the job's thread.
    static JOB_PHASE: Cell<Phase> = const { Cell::new(Phase::Idle) };
}

/// A `CornerFamily` that counts and times every raw-metric simulation
/// (cache misses only: hits never reach the family).
pub struct ProbedFamily<F> {
    pub inner: F,
    pub ledger: std::sync::Arc<CallLedger>,
}

impl<F: CornerFamily> CornerFamily for ProbedFamily<F> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn oracle_id(&self) -> u64 {
        self.inner.oracle_id()
    }
    fn corners(&self) -> usize {
        self.inner.corners()
    }
    fn corner_params(&self, corner: usize) -> Vec<f64> {
        self.inner.corner_params(corner)
    }
    fn corner_label(&self, corner: usize) -> String {
        self.inner.corner_label(corner)
    }
    fn distance(&self, a: usize, b: usize) -> f64 {
        self.inner.distance(a, b)
    }
    fn raw(&self, x: &[f64]) -> f64 {
        let phase = JOB_PHASE.with(Cell::get);
        self.ledger.timed(kind(phase, false), || self.inner.raw(x))
    }
    fn raw_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        let phase = JOB_PHASE.with(Cell::get);
        self.ledger
            .timed(kind(phase, true), || self.inner.raw_grad(x))
    }
    fn threshold(&self, corner: usize) -> f64 {
        self.inner.threshold(corner)
    }
}

/// One closed `train.stage` span.
#[derive(Debug, Clone, Copy)]
pub struct StageSpan {
    pub stage: usize,
    pub steps: u64,
    pub retries: u64,
    pub secs: f64,
}

/// One closed `estimate` span.
#[derive(Debug, Clone, Copy)]
pub struct EstimateSpan {
    pub rank: u64,
    pub ess: f64,
    pub hits: u64,
    pub calls: u64,
    pub secs: f64,
}

/// Telemetry sink collecting stage and estimate spans, and tracking each
/// job thread's phase for [`ProbedFamily`].
#[derive(Debug, Default)]
pub struct SpanLog {
    pub stages: Mutex<Vec<StageSpan>>,
    pub estimates: Mutex<Vec<EstimateSpan>>,
}

fn num(ev: &Event, key: &str) -> f64 {
    match ev.field(key) {
        Some(Value::U64(v)) => *v as f64,
        Some(Value::I64(v)) => *v as f64,
        Some(Value::F64(v)) => *v,
        _ => 0.0,
    }
}

impl Sink for SpanLog {
    fn min_level(&self) -> Level {
        Level::Info
    }

    fn record(&self, ev: &Event) {
        let secs = ev.duration_us.unwrap_or(0) as f64 * 1e-6;
        match (ev.name, ev.kind) {
            ("train.start", Kind::Event) => JOB_PHASE.with(|p| p.set(Phase::Train)),
            ("train.end", Kind::Event) => JOB_PHASE.with(|p| p.set(Phase::Estimate)),
            ("train.stage", Kind::Span) => self
                .stages
                .lock()
                .expect("sink lock is never poisoned")
                .push(StageSpan {
                    stage: num(ev, "stage") as usize,
                    steps: num(ev, "steps") as u64,
                    retries: num(ev, "retries") as u64,
                    secs,
                }),
            ("estimate", Kind::Span) => {
                JOB_PHASE.with(|p| p.set(Phase::Idle));
                self.estimates
                    .lock()
                    .expect("sink lock is never poisoned")
                    .push(EstimateSpan {
                        rank: num(ev, "rank") as u64,
                        ess: num(ev, "ess"),
                        hits: num(ev, "hits") as u64,
                        calls: num(ev, "oracle_calls") as u64,
                        secs,
                    });
            }
            _ => {}
        }
    }
}

/// Registers `log` as a telemetry sink until the guard drops.
pub struct SinkGuard(Option<tele::SinkId>);

impl SinkGuard {
    pub fn install(log: std::sync::Arc<SpanLog>) -> SinkGuard {
        SinkGuard(Some(tele::add_sink(log)))
    }
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        if let Some(id) = self.0.take() {
            tele::remove_sink(id);
        }
    }
}
