//! Multi-job runner for NOFIS (`nofis-jobs`).
//!
//! The paper runs one estimation at a time; a PVT corner sweep runs many
//! at once. This crate runs such a batch on a fixed pool of worker threads:
//!
//! * **Bounded FIFO queue.** [`JobRunner::submit`] never blocks and never
//!   grows the queue without bound: when the queue is full the newcomer is
//!   shed with a typed [`JobError::Shed`]. Workers take the oldest queued
//!   job.
//! * **Fair-share pool lanes.** Every running job registers a
//!   [`LaneGuard`](nofis_parallel::LaneGuard) on the shared
//!   `nofis-parallel` pool, splitting the worker lanes between co-tenants
//!   instead of queueing whole jobs behind each other. Lane counts never
//!   affect computed values (DESIGN.md §8), so co-tenancy cannot perturb a
//!   job's results — the per-job determinism contract is locked by
//!   `tests/multi_job.rs`.
//! * **Panic isolation.** Each job runs under `catch_unwind`; a poisoned
//!   job terminates as [`JobError::Panicked`] without taking down
//!   co-tenants or the runner.
//! * **Drain on shutdown.** [`JobRunner::shutdown`] stops the workers once
//!   every queued and running job finished, so every submitted job reaches
//!   a terminal state.
//!
//! Every job runs exactly once: the pipeline is bitwise deterministic, so
//! re-running a failed config and seed would fail the same way.
//!
//! Checkpoints are namespaced per job (see
//! [`CheckpointConfig::namespace`](nofis_core::CheckpointConfig::namespace)):
//! jobs sharing one parent directory (e.g. a single `NOFIS_CKPT_DIR`)
//! cannot clobber each other's generations. The runner derives a namespace
//! from the job id and seed when the caller did not choose one; jobs meant
//! to be *resumed across runner instances* should set an explicit, stable
//! namespace.
//!
//! Job lifecycle is narrated through `nofis-telemetry` (`job.submit`,
//! `job.start`, `job.end`) with a `job` field on every record — including
//! records emitted inside the training loop, via
//! [`nofis_telemetry::push_context`] — so `nofis-trace summary --by-job`
//! can reconstruct a per-job table from one shared trace.

#![deny(missing_docs)]

use nofis_core::checkpoint::WarmStart;
use nofis_core::{CheckpointConfig, Nofis, NofisConfig, NofisError};
use nofis_prob::{IsResult, LimitState};
use nofis_telemetry as tele;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks a mutex ignoring poisoning (the runner's state transitions are
/// exception-safe, and job panics are already contained per job).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Specs
// ---------------------------------------------------------------------------

/// One unit of work for the runner: a testcase, its configuration, its
/// seed and an optional warm start.
#[derive(Clone)]
pub struct JobSpec {
    /// Human-readable label carried on every lifecycle event.
    pub name: String,
    /// Training/estimation configuration (validated by `Nofis::new` at
    /// job start; an invalid config terminates as [`JobError::Failed`]).
    pub config: NofisConfig,
    /// The limit state to estimate. Shared, since the job runs on a worker
    /// thread, not the submitting one.
    pub limit_state: Arc<dyn LimitState + Send + Sync>,
    /// RNG seed; with identical config + seed a job's results are bitwise
    /// reproducible regardless of co-tenants.
    pub seed: u64,
    /// Optional warm-start donor (a finished run of a compatible
    /// configuration, see `nofis_core::checkpoint::warm_fingerprint`). Used
    /// only when the job starts fresh: an on-disk resume checkpoint in the
    /// job's namespace always wins. Shared via `Arc` because corner sweeps
    /// hand one donor to several sibling jobs.
    pub warm_start: Option<Arc<WarmStart>>,
}

impl JobSpec {
    /// A spec without a warm start.
    pub fn new(
        name: impl Into<String>,
        config: NofisConfig,
        limit_state: Arc<dyn LimitState + Send + Sync>,
        seed: u64,
    ) -> Self {
        JobSpec {
            name: name.into(),
            config,
            limit_state,
            seed,
            warm_start: None,
        }
    }
}

impl fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Job identity, outcome, handle
// ---------------------------------------------------------------------------

/// Runner-assigned job identity (dense, starting at 1). Also the `job`
/// field on every telemetry record the job emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Terminal failure states of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// Rejected at submission because the queue was full. Never ran.
    Shed {
        /// The queue capacity that was exceeded.
        capacity: usize,
    },
    /// The job panicked. Co-tenants and the runner are unaffected.
    Panicked {
        /// The panic payload, stringified.
        message: String,
    },
    /// The pipeline returned a typed error.
    Failed {
        /// The error.
        error: NofisError,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Shed { capacity } => {
                write!(f, "shed by admission control (queue capacity {capacity})")
            }
            JobError::Panicked { message } => write!(f, "job panicked: {message}"),
            JobError::Failed { error } => write!(f, "failed: {error}"),
        }
    }
}

impl std::error::Error for JobError {}

impl JobError {
    /// Stable outcome keyword, as written to the `job.end` event.
    fn outcome(&self) -> &'static str {
        match self {
            JobError::Shed { .. } => "shed",
            JobError::Panicked { .. } => "panicked",
            JobError::Failed { .. } => "failed",
        }
    }
}

/// A finished job: the importance-sampling estimate, or a typed terminal
/// error.
pub type JobResult = Result<IsResult, JobError>;

struct JobShared {
    name: String,
    result: Mutex<Option<JobResult>>,
    done: Condvar,
}

impl JobShared {
    fn new(name: String) -> Self {
        JobShared {
            name,
            result: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn resolve(&self, result: JobResult) {
        let mut slot = lock(&self.result);
        if slot.is_none() {
            *slot = Some(result);
        }
        self.done.notify_all();
    }
}

/// Caller-side handle to a submitted job.
#[derive(Clone)]
pub struct JobHandle {
    id: JobId,
    shared: Arc<JobShared>,
}

impl JobHandle {
    /// The runner-assigned id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The name from the [`JobSpec`].
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Blocks until the job reaches a terminal state.
    pub fn wait(&self) -> JobResult {
        let mut slot = lock(&self.shared.result);
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self
                .shared
                .done
                .wait(slot)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The terminal result, if the job already reached one.
    pub fn try_result(&self) -> Option<JobResult> {
        lock(&self.shared.result).clone()
    }
}

// ---------------------------------------------------------------------------
// Runner configuration and shared state
// ---------------------------------------------------------------------------

/// Sizing of a [`JobRunner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerConfig {
    /// Jobs executed concurrently (worker threads; min 1). Each running
    /// job holds one fair-share lane registration on the shared pool.
    pub workers: usize,
    /// Bound on *queued* (not yet running) jobs; admission control sheds
    /// beyond it, so memory use is bounded no matter the submit rate.
    pub queue_capacity: usize,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            workers: 2,
            queue_capacity: 64,
        }
    }
}

/// How [`JobRunner::shutdown`] treats work in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Stop the workers once every queued and running job finished.
    Drain,
}

struct QueuedJob {
    id: JobId,
    spec: JobSpec,
    shared: Arc<JobShared>,
}

struct QueueState {
    queue: VecDeque<QueuedJob>,
    shutdown: bool,
}

struct RunnerInner {
    state: Mutex<QueueState>,
    wake: Condvar,
    capacity: usize,
    next_id: AtomicU64,
    pool: &'static nofis_parallel::ThreadPool,
}

impl RunnerInner {
    fn finish(&self, id: JobId, shared: &JobShared, result: JobResult, wall: Option<Duration>) {
        let (level, outcome) = match &result {
            Ok(_) => (tele::Level::Info, "done"),
            Err(e) => (tele::Level::Warn, e.outcome()),
        };
        let mut ev = tele::event(level, "job.end")
            .field("job", id.0)
            .field("name", shared.name.as_str())
            .field("outcome", outcome);
        if let Some(wall) = wall {
            ev = ev.field("wall_ms", wall.as_secs_f64() * 1e3);
        }
        match &result {
            Ok(r) => ev = ev.field("estimate", r.estimate),
            Err(JobError::Failed { error }) => {
                ev = ev.field("error", error.to_string().as_str());
            }
            Err(JobError::Panicked { message }) => {
                ev = ev.field("error", message.as_str());
            }
            Err(JobError::Shed { .. }) => {}
        }
        ev.emit();
        // A panicked job is post-mortem material: snapshot the recent event
        // history (including the job.end just emitted) if a flight recorder
        // is installed. Best-effort by construction.
        if let Err(JobError::Panicked { .. }) = &result {
            let _ = tele::flight_dump("job_panicked");
        }
        shared.resolve(result);
    }
}

// ---------------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------------

/// A multi-job runner: submit [`JobSpec`]s, get [`JobHandle`]s, and let
/// the runner multiplex the shared `nofis-parallel` pool between them. See
/// the crate docs for the guarantees.
pub struct JobRunner {
    inner: Arc<RunnerInner>,
    workers: Vec<JoinHandle<()>>,
}

impl JobRunner {
    /// Starts `config.workers` worker threads.
    pub fn new(config: RunnerConfig) -> Self {
        // Best-effort environment hookup (both are one-shot per process) so
        // submit-time telemetry and the `JobSubmit` fault seam work before
        // any job constructs `Nofis`; a malformed environment still
        // surfaces per job as a typed config error from `Nofis::new`.
        let _ = tele::init(&tele::Settings::default());
        let _ = nofis_faults::init_from_env();
        let inner = Arc::new(RunnerInner {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            next_id: AtomicU64::new(1),
            pool: nofis_parallel::global(),
        });
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("nofis-job-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("failed to spawn nofis-jobs worker")
            })
            .collect();
        JobRunner { inner, workers }
    }

    /// Submits a job. Never blocks; the returned handle always reaches a
    /// terminal state — immediately [`JobError::Shed`] when the queue is
    /// full.
    pub fn submit(&self, spec: JobSpec) -> JobHandle {
        let inner = &self.inner;
        let id = JobId(inner.next_id.fetch_add(1, Ordering::Relaxed));
        let shared = Arc::new(JobShared::new(spec.name.clone()));
        let handle = JobHandle {
            id,
            shared: Arc::clone(&shared),
        };

        // Fault seam: a scheduled QueueOverflow makes admission treat the
        // queue as full, exercising the shedding path on demand.
        let mut force_full = false;
        if nofis_faults::active() {
            if let Some(kind @ nofis_faults::FaultKind::QueueOverflow) =
                nofis_faults::check(nofis_faults::Site::JobSubmit)
            {
                tele::event(tele::Level::Warn, "fault.injected")
                    .field("site", nofis_faults::Site::JobSubmit.as_str())
                    .field("kind", kind.as_str())
                    .field("job", id.0)
                    .emit();
                force_full = true;
            }
        }

        let mut st = lock(&inner.state);
        tele::event(tele::Level::Info, "job.submit")
            .field("job", id.0)
            .field("name", spec.name.as_str())
            .field("queue_len", st.queue.len())
            .emit();
        if force_full || st.queue.len() >= inner.capacity {
            drop(st);
            let shed = Err(JobError::Shed {
                capacity: inner.capacity,
            });
            inner.finish(id, &shared, shed, None);
            return handle;
        }
        st.queue.push_back(QueuedJob { id, spec, shared });
        drop(st);
        inner.wake.notify_one();
        handle
    }

    /// Stops the runner once every queued and running job finished.
    /// Blocks until every worker has exited; afterwards every submitted
    /// job's handle holds a terminal result.
    pub fn shutdown(mut self, mode: ShutdownMode) {
        match mode {
            ShutdownMode::Drain => self.drain(),
        }
    }

    fn drain(&mut self) {
        lock(&self.inner.state).shutdown = true;
        self.inner.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for JobRunner {
    /// Dropping without an explicit [`JobRunner::shutdown`] drains the
    /// runner so no job is left hanging.
    fn drop(&mut self) {
        self.drain();
    }
}

// ---------------------------------------------------------------------------
// Worker loop
// ---------------------------------------------------------------------------

fn worker_loop(inner: &RunnerInner) {
    let mut st = lock(&inner.state);
    loop {
        if let Some(job) = st.queue.pop_front() {
            drop(st);
            execute(inner, job);
            st = lock(&inner.state);
        } else if st.shutdown {
            return;
        } else {
            st = inner.wake.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// The job's checkpoint configuration: every job gets its own namespace
/// under the shared directory unless the caller pinned one — including
/// when checkpointing is only enabled through `NOFIS_CKPT_DIR`
/// (pre-seeded here so `Nofis::new`'s env application cannot leave two
/// jobs sharing a directory).
fn namespaced_config(spec: &JobSpec, id: JobId) -> NofisConfig {
    let mut cfg = spec.config.clone();
    if cfg.checkpoint.is_none() {
        if let Ok(dir) = std::env::var("NOFIS_CKPT_DIR") {
            if !dir.is_empty() {
                cfg.checkpoint = Some(CheckpointConfig::new(dir));
            }
        }
    }
    if let Some(ckpt) = &mut cfg.checkpoint {
        if ckpt.namespace.is_none() {
            // Seed is part of the key: a later runner re-assigning the same
            // id to a *different* job (other seed) lands in a different
            // directory instead of resuming the wrong run.
            ckpt.namespace = Some(format!("{}-s{}", id.0, spec.seed));
        }
    }
    cfg
}

fn execute(inner: &RunnerInner, job: QueuedJob) {
    let started = Instant::now();
    tele::event(tele::Level::Info, "job.start")
        .field("job", job.id.0)
        .field("name", job.spec.name.as_str())
        .emit();

    // Fault seam at job start: a poisoned job (panic inside the isolation
    // boundary).
    let mut poison = false;
    if nofis_faults::active() {
        if let Some(kind @ nofis_faults::FaultKind::JobPanic) =
            nofis_faults::check(nofis_faults::Site::JobStart)
        {
            tele::event(tele::Level::Warn, "fault.injected")
                .field("site", nofis_faults::Site::JobStart.as_str())
                .field("kind", kind.as_str())
                .field("job", job.id.0)
                .emit();
            poison = true;
        }
    }

    let cfg = namespaced_config(&job.spec, job.id);
    let limit_state = Arc::clone(&job.spec.limit_state);
    let seed = job.spec.seed;
    let warm = job.spec.warm_start.clone();
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<IsResult, NofisError> {
        // Fair-share lane registration + per-job telemetry tagging, both
        // released on unwind too.
        let _lane = inner.pool.lane_guard();
        let _tag = tele::push_context("job", job.id.0);
        if poison {
            panic!("injected fault: job panic (nofis-faults)");
        }
        let nofis = Nofis::new(cfg)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, result) =
            nofis.run_warm_or_resume(limit_state.as_ref(), &mut rng, warm.as_deref())?;
        Ok(result)
    }));

    let result = match outcome {
        Ok(Ok(result)) => Ok(result),
        Ok(Err(error)) => Err(JobError::Failed { error }),
        Err(payload) => Err(JobError::Panicked {
            message: panic_message(payload.as_ref()),
        }),
    };
    inner.finish(job.id, &job.shared, result, Some(started.elapsed()));
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nofis_core::Levels;
    use nofis_telemetry::Value;
    use std::sync::atomic::AtomicBool;

    /// Serializes tests that touch process-global state (the fault plan,
    /// the telemetry sink registry, the shared pool's lane accounting).
    static GLOBAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        lock(&GLOBAL)
    }

    /// g(x) = beta - x0 in 2-D, analytic gradient (same idiom as the core
    /// training tests).
    struct HalfSpace {
        beta: f64,
    }
    impl LimitState for HalfSpace {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            self.beta - x[0]
        }
        fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
            (self.beta - x[0], vec![-1.0, 0.0])
        }
    }

    /// Panics on the very first oracle interaction — a poisoned job that
    /// unwinds through the whole pipeline.
    struct PoisonPill;
    impl LimitState for PoisonPill {
        fn dim(&self) -> usize {
            panic!("poison pill: dim() exploded")
        }
        fn value(&self, _x: &[f64]) -> f64 {
            unreachable!()
        }
    }

    /// Blocks every oracle call until the gate opens; `entered` flips once
    /// the job is actually running on a worker.
    struct GatedHalfSpace {
        gate: Arc<(Mutex<bool>, Condvar)>,
        entered: Arc<AtomicBool>,
    }
    impl LimitState for GatedHalfSpace {
        fn dim(&self) -> usize {
            2
        }
        fn value(&self, x: &[f64]) -> f64 {
            self.entered.store(true, Ordering::SeqCst);
            let (m, cv) = &*self.gate;
            let mut open = lock(m);
            while !*open {
                open = cv.wait(open).unwrap_or_else(|e| e.into_inner());
            }
            2.0 - x[0]
        }
        fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
            (self.value(x), vec![-1.0, 0.0])
        }
    }

    fn open_gate(gate: &Arc<(Mutex<bool>, Condvar)>) {
        let (m, cv) = &**gate;
        *lock(m) = true;
        cv.notify_all();
    }

    fn await_entered(flag: &AtomicBool) {
        let start = Instant::now();
        while !flag.load(Ordering::SeqCst) {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "job never started running"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Submits a job that occupies a worker until `gate` opens, and waits
    /// until it is running.
    fn submit_blocker(runner: &JobRunner, gate: &Arc<(Mutex<bool>, Condvar)>) -> JobHandle {
        let entered = Arc::new(AtomicBool::new(false));
        let blocker = runner.submit(JobSpec::new(
            "blocker",
            tiny_config(),
            Arc::new(GatedHalfSpace {
                gate: Arc::clone(gate),
                entered: Arc::clone(&entered),
            }),
            7,
        ));
        await_entered(&entered);
        blocker
    }

    fn tiny_config() -> NofisConfig {
        NofisConfig {
            levels: Levels::Fixed(vec![1.0, 0.0]),
            layers_per_stage: 2,
            hidden: 8,
            epochs: 3,
            batch_size: 32,
            n_is: 200,
            tau: 10.0,
            learning_rate: 8e-3,
            ..Default::default()
        }
    }

    fn str_field<'a>(ev: &'a tele::Event, key: &str) -> &'a str {
        match ev.field(key) {
            Some(Value::Str(s)) => s.as_str(),
            other => panic!("field {key} missing or not str: {other:?}"),
        }
    }

    #[test]
    fn derived_namespace_keys_on_id_and_seed_but_explicit_wins() {
        let mut spec = JobSpec::new("a", tiny_config(), Arc::new(HalfSpace { beta: 2.0 }), 7);
        // No checkpointing configured and no env: stays off.
        assert!(namespaced_config(&spec, JobId(3)).checkpoint.is_none());
        spec.config.checkpoint = Some(CheckpointConfig::new("ckpts"));
        let derived = namespaced_config(&spec, JobId(3));
        assert_eq!(
            derived.checkpoint.unwrap().namespace.as_deref(),
            Some("3-s7")
        );
        spec.config.checkpoint = Some(CheckpointConfig::new("ckpts").with_namespace("stable"));
        let explicit = namespaced_config(&spec, JobId(3));
        assert_eq!(
            explicit.checkpoint.unwrap().namespace.as_deref(),
            Some("stable")
        );
    }

    #[test]
    fn job_matches_solo_run_bitwise() {
        let _g = serial();
        let cfg = tiny_config();
        let solo = {
            let nofis = Nofis::new(cfg.clone()).unwrap();
            let mut rng = StdRng::seed_from_u64(7);
            nofis.run(&HalfSpace { beta: 2.0 }, &mut rng).unwrap().1
        };
        let runner = JobRunner::new(RunnerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let handle = runner.submit(JobSpec::new(
            "solo-twin",
            cfg,
            Arc::new(HalfSpace { beta: 2.0 }),
            7,
        ));
        let result = handle.wait().expect("job should succeed");
        runner.shutdown(ShutdownMode::Drain);
        assert_eq!(result.estimate.to_bits(), solo.estimate.to_bits());
        assert_eq!(result.hits, solo.hits);
        assert_eq!(
            result.effective_sample_size.to_bits(),
            solo.effective_sample_size.to_bits()
        );
    }

    #[test]
    fn panicking_job_is_isolated_from_co_tenants() {
        let _g = serial();
        let runner = JobRunner::new(RunnerConfig {
            workers: 2,
            queue_capacity: 8,
        });
        let bad = runner.submit(JobSpec::new(
            "poison",
            tiny_config(),
            Arc::new(PoisonPill),
            1,
        ));
        let good = runner.submit(JobSpec::new(
            "healthy",
            tiny_config(),
            Arc::new(HalfSpace { beta: 2.0 }),
            7,
        ));
        match bad.wait() {
            Err(JobError::Panicked { message }) => assert!(message.contains("poison pill")),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert!(good.wait().is_ok(), "co-tenant must be unaffected");
        // The runner survives the panic and keeps serving.
        let after = runner.submit(JobSpec::new(
            "after-panic",
            tiny_config(),
            Arc::new(HalfSpace { beta: 2.0 }),
            8,
        ));
        assert!(after.wait().is_ok());
        runner.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn invalid_config_fails_with_a_typed_error() {
        let _g = serial();
        let runner = JobRunner::new(RunnerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let mut cfg = tiny_config();
        cfg.batch_size = 0; // rejected by Nofis::new
        let handle = runner.submit(JobSpec::new(
            "bad-config",
            cfg,
            Arc::new(HalfSpace { beta: 2.0 }),
            7,
        ));
        let result = handle.wait();
        runner.shutdown(ShutdownMode::Drain);
        match result {
            Err(JobError::Failed {
                error: NofisError::InvalidInput { .. },
            }) => {}
            other => panic!("expected Failed(InvalidInput), got {other:?}"),
        }
    }

    #[test]
    fn single_worker_runs_jobs_in_submission_order_and_sheds_when_full() {
        let _g = serial();
        let sink = Arc::new(tele::MemorySink::new(tele::Level::Info));
        let sink_id = tele::add_sink(sink.clone() as Arc<dyn tele::Sink>);
        let runner = JobRunner::new(RunnerConfig {
            workers: 1,
            queue_capacity: 2,
        });
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let blocker = submit_blocker(&runner, &gate);
        let first = runner.submit(JobSpec::new(
            "first",
            tiny_config(),
            Arc::new(HalfSpace { beta: 2.0 }),
            8,
        ));
        let second = runner.submit(JobSpec::new(
            "second",
            tiny_config(),
            Arc::new(HalfSpace { beta: 2.0 }),
            9,
        ));
        // The queue (capacity 2) is full: the newcomer is shed, never the
        // queued jobs.
        let third = runner.submit(JobSpec::new(
            "third",
            tiny_config(),
            Arc::new(HalfSpace { beta: 2.0 }),
            10,
        ));
        assert_eq!(
            third.try_result(),
            Some(Err(JobError::Shed { capacity: 2 }))
        );
        open_gate(&gate);
        assert!(blocker.wait().is_ok());
        assert!(first.wait().is_ok());
        assert!(second.wait().is_ok());
        runner.shutdown(ShutdownMode::Drain);
        tele::remove_sink(sink_id);
        let starts: Vec<String> = sink
            .named("job.start")
            .iter()
            .map(|ev| str_field(ev, "name").to_string())
            .collect();
        assert_eq!(starts, ["blocker", "first", "second"]);
    }

    #[test]
    fn queue_overflow_fault_forces_shedding() {
        let _g = serial();
        nofis_faults::install(nofis_faults::FaultPlan::parse("queue_overflow@1").unwrap());
        let runner = JobRunner::new(RunnerConfig {
            workers: 1,
            queue_capacity: 64,
        });
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let blocker = submit_blocker(&runner, &gate);
        // Second submit hits the injected overflow: the newcomer is shed
        // despite spare capacity.
        let shed = runner.submit(JobSpec::new(
            "shed-me",
            tiny_config(),
            Arc::new(HalfSpace { beta: 2.0 }),
            8,
        ));
        assert_eq!(
            shed.try_result(),
            Some(Err(JobError::Shed { capacity: 64 }))
        );
        open_gate(&gate);
        assert!(blocker.wait().is_ok());
        runner.shutdown(ShutdownMode::Drain);
        nofis_faults::clear();
    }
}
