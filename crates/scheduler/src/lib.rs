//! Supervised multi-job runtime for NOFIS (`nofis-jobs`).
//!
//! The paper runs one estimation at a time; a production yield service
//! multiplexes many seconds-long flow-training jobs in one process. This
//! crate supplies the supervision layer that keeps such a fleet healthy:
//!
//! * **Bounded priority queue with admission control.** [`JobRunner::submit`]
//!   never blocks and never grows without bound: when the queue is full the
//!   lowest-priority job is load-shed with a typed [`JobError::Shed`] —
//!   either a queued victim (making room for a more important newcomer) or
//!   the newcomer itself.
//! * **Fair-share pool lanes.** Every running job registers a
//!   [`LaneGuard`](nofis_parallel::LaneGuard) on the shared
//!   `nofis-parallel` pool, splitting the worker lanes between co-tenants
//!   instead of queueing whole jobs behind each other. Lane counts never
//!   affect computed values (DESIGN.md §8), so co-tenancy cannot perturb a
//!   job's results — the per-job determinism contract is locked by
//!   `tests/multi_job.rs`.
//! * **Panic isolation.** Each attempt runs under `catch_unwind`; a
//!   poisoned job terminates as [`JobError::Panicked`] without taking down
//!   co-tenants or the runner.
//! * **Deadlines via checkpoint-based preemption.** A wall-clock deadline
//!   (measured from submission) makes the supervisor request cooperative
//!   preemption ([`nofis_core::preempt`]); the training loop checkpoints at
//!   the next minibatch boundary and the job terminates as
//!   [`JobError::DeadlineExceeded`] — resumable later from its checkpoint,
//!   bitwise-identically to an uninterrupted run.
//! * **Retry with exponential backoff + jitter.** Transient failures
//!   ([`NofisError::is_transient`]) and panics re-enter the queue after a
//!   deterministic backoff; permanent failures terminate immediately.
//! * **Graceful shutdown.** [`JobRunner::shutdown`] either drains every
//!   queued and running job ([`ShutdownMode::Drain`]) or checkpoints and
//!   suspends them ([`ShutdownMode::Checkpoint`]); either way every
//!   submitted job reaches a terminal state.
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
//! `job.start`, `job.retry`, `job.end`) with a `job` field on every record
//! — including records emitted inside the training loop, via
//! [`nofis_telemetry::push_context`] — so `nofis-trace summary --by-job`
//! can reconstruct a per-job table from one shared trace.

#![deny(missing_docs)]

use nofis_core::checkpoint::WarmStart;
use nofis_core::preempt::{self, PreemptReason, PreemptToken};
use nofis_core::{CheckpointConfig, Nofis, NofisConfig, NofisError};
use nofis_prob::{IsResult, LimitState};
use nofis_telemetry as tele;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Locks a mutex ignoring poisoning (the runner's state transitions are
/// exception-safe, and job panics are already contained per attempt).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Specs and policies
// ---------------------------------------------------------------------------

/// Retry policy for transient failures (and panics): attempt `n`'s re-entry
/// is delayed by `base · 2ⁿ` capped at `cap`, plus a deterministic jitter
/// of up to 25% derived from the job's seed — co-tenant retry storms
/// de-synchronize without any global randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound on the exponential backoff (jitter may add up to 25%).
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// No retries: any failure is terminal on the first attempt.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..Default::default()
        }
    }

    /// The backoff before re-queueing after failed attempt `attempt`
    /// (0-based), jittered deterministically by `seed`.
    pub fn backoff(&self, attempt: u32, seed: u64) -> Duration {
        let base_ms = self.base.as_millis().min(u128::from(u64::MAX)) as u64;
        let cap_ms = self.cap.as_millis().min(u128::from(u64::MAX)) as u64;
        let exp_ms = base_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(cap_ms.max(base_ms));
        let jitter_ms = if exp_ms == 0 {
            0
        } else {
            splitmix64(seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                % (exp_ms / 4 + 1)
        };
        Duration::from_millis(exp_ms + jitter_ms)
    }
}

// Deterministic jitter (no global RNG state, no clock) comes from the
// workspace-shared SplitMix64 mixer; this crate used to carry a private
// copy, pinned bitwise by `backoff_stream_is_pinned_to_shared_mixer`.
use nofis_parallel::rng::splitmix64;

/// One unit of work for the runner: a testcase, its configuration, and the
/// supervision envelope (priority, deadline, retry policy).
#[derive(Clone)]
pub struct JobSpec {
    /// Human-readable label carried on every lifecycle event.
    pub name: String,
    /// Training/estimation configuration (validated by `Nofis::new` at
    /// attempt start; an invalid config terminates as a permanent
    /// [`JobError::Failed`]).
    pub config: NofisConfig,
    /// The limit state to estimate. Shared, since retries and co-tenant
    /// scheduling may evaluate it from different worker threads over time.
    pub limit_state: Arc<dyn LimitState + Send + Sync>,
    /// RNG seed; with identical config + seed a job's results are bitwise
    /// reproducible regardless of co-tenants.
    pub seed: u64,
    /// Higher runs (and survives shedding) first. Ties keep submission
    /// order.
    pub priority: u8,
    /// Wall-clock deadline measured from submission. Expiring while queued
    /// terminates the job without running it; expiring while running
    /// triggers checkpoint-based preemption at the next minibatch boundary.
    pub deadline: Option<Duration>,
    /// Retry policy for transient failures and panics.
    pub retry: RetryPolicy,
    /// Optional warm-start donor (a finished run of a compatible
    /// configuration, see `nofis_core::checkpoint::warm_fingerprint`). Used
    /// only when the job starts fresh: an on-disk resume checkpoint in the
    /// job's namespace always wins, and every retry attempt re-applies the
    /// same donor, keeping attempts bitwise identical. Shared via `Arc`
    /// because corner sweeps hand one donor to several sibling jobs.
    pub warm_start: Option<Arc<WarmStart>>,
}

impl JobSpec {
    /// A spec with default priority (0), no deadline, and the default
    /// retry policy.
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
            priority: 0,
            deadline: None,
            retry: RetryPolicy::default(),
            warm_start: None,
        }
    }
}

impl fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobSpec")
            .field("name", &self.name)
            .field("seed", &self.seed)
            .field("priority", &self.priority)
            .field("deadline", &self.deadline)
            .field("retry", &self.retry)
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

/// Terminal failure states of a supervised job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// Rejected by admission control: the queue was full and this job (or
    /// the victim it replaced) had the lowest priority. Never ran.
    Shed {
        /// The queue capacity that was exceeded.
        capacity: usize,
    },
    /// The wall-clock deadline expired. When `checkpointed` is true the
    /// run was preempted at a minibatch boundary with a durable checkpoint
    /// and can be resumed later (same config + seed + checkpoint
    /// namespace) bitwise-identically.
    DeadlineExceeded {
        /// Whether a resume checkpoint covering the preemption point
        /// exists.
        checkpointed: bool,
    },
    /// Preempted by a [`ShutdownMode::Checkpoint`] shutdown (or never
    /// started before one). Resumable like a deadline preemption when
    /// `checkpointed` is true.
    Suspended {
        /// Whether a resume checkpoint covering the preemption point
        /// exists.
        checkpointed: bool,
    },
    /// The job panicked on every allowed attempt. Co-tenants and the
    /// runner are unaffected.
    Panicked {
        /// The final panic payload, stringified.
        message: String,
    },
    /// The pipeline returned a typed error and retries (if any) were
    /// exhausted or the error was permanent.
    Failed {
        /// The final error.
        error: NofisError,
        /// Attempts that were made (1 = failed on the first try).
        attempts: u32,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Shed { capacity } => {
                write!(f, "shed by admission control (queue capacity {capacity})")
            }
            JobError::DeadlineExceeded { checkpointed } => write!(
                f,
                "deadline exceeded{}",
                if *checkpointed {
                    "; checkpointed, resumable"
                } else {
                    "; no checkpoint"
                }
            ),
            JobError::Suspended { checkpointed } => write!(
                f,
                "suspended by shutdown{}",
                if *checkpointed {
                    "; checkpointed, resumable"
                } else {
                    "; no checkpoint"
                }
            ),
            JobError::Panicked { message } => write!(f, "job panicked: {message}"),
            JobError::Failed { error, attempts } => {
                write!(f, "failed after {attempts} attempt(s): {error}")
            }
        }
    }
}

impl std::error::Error for JobError {}

impl JobError {
    /// Stable outcome keyword, as written to the `job.end` event.
    fn outcome(&self) -> &'static str {
        match self {
            JobError::Shed { .. } => "shed",
            JobError::DeadlineExceeded { .. } => "deadline",
            JobError::Suspended { .. } => "suspended",
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
    /// Stop admitting, then let every queued and running job (including
    /// pending retries) finish normally.
    Drain,
    /// Stop admitting, resolve queued jobs as [`JobError::Suspended`]
    /// (never started, no checkpoint), and preempt running jobs so they
    /// checkpoint at the next minibatch boundary and terminate as
    /// [`JobError::Suspended`] with a resume point.
    Checkpoint,
}

struct QueuedJob {
    id: JobId,
    spec: JobSpec,
    shared: Arc<JobShared>,
    attempt: u32,
    ready_at: Instant,
    deadline_at: Option<Instant>,
}

struct RunningJob {
    id: JobId,
    token: PreemptToken,
    deadline_at: Option<Instant>,
}

struct QueueState {
    queue: Vec<QueuedJob>,
    running: Vec<RunningJob>,
    shutdown: Option<ShutdownMode>,
    stop_supervisor: bool,
}

struct RunnerInner {
    state: Mutex<QueueState>,
    wake: Condvar,
    capacity: usize,
    next_id: AtomicU64,
    workers_alive: AtomicU64,
    pool: &'static nofis_parallel::ThreadPool,
}

/// Publishes the queue/running depths as gauges (`queue.depth`,
/// `jobs.active`) — called at every transition while the state lock is
/// held, so the pair is always mutually consistent.
fn emit_depth(st: &QueueState) {
    if tele::enabled(tele::Level::Debug) {
        tele::gauge(tele::Level::Debug, "queue.depth", st.queue.len() as f64).emit();
        tele::gauge(tele::Level::Debug, "jobs.active", st.running.len() as f64).emit();
    }
}

impl RunnerInner {
    fn finish(
        &self,
        id: JobId,
        shared: &JobShared,
        attempts: u32,
        result: JobResult,
        wall: Option<Duration>,
        priority: Option<u8>,
    ) {
        let (level, outcome) = match &result {
            Ok(_) => (tele::Level::Info, "done"),
            Err(e) => (tele::Level::Warn, e.outcome()),
        };
        let mut ev = tele::event(level, "job.end")
            .field("job", id.0)
            .field("name", shared.name.as_str())
            .field("outcome", outcome)
            .field("attempts", attempts);
        if let Some(wall) = wall {
            ev = ev.field("wall_ms", wall.as_secs_f64() * 1e3);
        }
        if let Some(priority) = priority {
            ev = ev.field("priority", u64::from(priority));
        }
        match &result {
            Ok(r) => ev = ev.field("estimate", r.estimate),
            Err(JobError::DeadlineExceeded { checkpointed })
            | Err(JobError::Suspended { checkpointed }) => {
                ev = ev.field("checkpointed", *checkpointed);
            }
            Err(JobError::Failed { error, .. }) => {
                ev = ev.field("error", error.to_string().as_str());
            }
            Err(JobError::Panicked { message }) => {
                ev = ev.field("error", message.as_str());
            }
            Err(JobError::Shed { .. }) => {}
        }
        ev.emit();
        // A panicked or deadline-blown job is post-mortem material: snapshot
        // the recent event history (including the job.end just emitted) if a
        // flight recorder is installed. Best-effort by construction.
        match &result {
            Err(JobError::Panicked { .. }) => {
                let _ = tele::flight_dump("job_panicked");
            }
            Err(JobError::DeadlineExceeded { .. }) => {
                let _ = tele::flight_dump("job_deadline");
            }
            _ => {}
        }
        shared.resolve(result);
    }
}

// ---------------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------------

/// A supervised multi-job runtime: submit [`JobSpec`]s, get
/// [`JobHandle`]s, and let the runner multiplex the shared
/// `nofis-parallel` pool between them. See the crate docs for the
/// supervision guarantees.
pub struct JobRunner {
    inner: Arc<RunnerInner>,
    workers: Vec<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
}

impl JobRunner {
    /// Starts `config.workers` worker threads and the deadline supervisor.
    pub fn new(config: RunnerConfig) -> Self {
        // Best-effort environment hookup (both are one-shot per process) so
        // submit-time telemetry and the `JobSubmit` fault seam work before
        // any job constructs `Nofis`; a malformed environment still
        // surfaces per job as a typed config error from `Nofis::new`.
        let _ = tele::init(&tele::Settings::default());
        let _ = nofis_faults::init_from_env();
        let inner = Arc::new(RunnerInner {
            state: Mutex::new(QueueState {
                queue: Vec::new(),
                running: Vec::new(),
                shutdown: None,
                stop_supervisor: false,
            }),
            wake: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            next_id: AtomicU64::new(1),
            workers_alive: AtomicU64::new(0),
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
        let supervisor = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("nofis-job-deadline".to_string())
                .spawn(move || supervisor_loop(&inner))
                .expect("failed to spawn nofis-jobs deadline supervisor")
        };
        JobRunner {
            inner,
            workers,
            supervisor: Some(supervisor),
        }
    }

    /// Submits a job. Never blocks; the returned handle always reaches a
    /// terminal state — immediately [`JobError::Shed`] when admission
    /// rejects it (queue full and nothing lower-priority to evict, or the
    /// runner is shutting down).
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
            .field("priority", u64::from(spec.priority))
            .field("queue_len", st.queue.len())
            .emit();
        if st.shutdown.is_some() {
            drop(st);
            inner.finish(
                id,
                &shared,
                0,
                Err(JobError::Shed {
                    capacity: inner.capacity,
                }),
                None,
                Some(spec.priority),
            );
            return handle;
        }
        if force_full || st.queue.len() >= inner.capacity {
            // Evict the lowest-priority queued job (newest among ties) iff
            // the newcomer outranks it strictly; otherwise shed the
            // newcomer. Running jobs are never evicted.
            let victim_idx = st
                .queue
                .iter()
                .enumerate()
                .min_by_key(|(_, j)| (j.spec.priority, std::cmp::Reverse(j.id.0)))
                .map(|(idx, _)| idx);
            match victim_idx {
                Some(idx) if st.queue[idx].spec.priority < spec.priority => {
                    let victim = st.queue.remove(idx);
                    emit_depth(&st);
                    drop(st);
                    tele::event(tele::Level::Warn, "sched.evicted")
                        .field("job", victim.id.0)
                        .field("name", victim.spec.name.as_str())
                        .field("priority", u64::from(victim.spec.priority))
                        .field("evicted_by", id.0)
                        .emit();
                    inner.finish(
                        victim.id,
                        &victim.shared,
                        victim.attempt,
                        Err(JobError::Shed {
                            capacity: inner.capacity,
                        }),
                        None,
                        Some(victim.spec.priority),
                    );
                    st = lock(&inner.state);
                }
                _ => {
                    drop(st);
                    inner.finish(
                        id,
                        &shared,
                        0,
                        Err(JobError::Shed {
                            capacity: inner.capacity,
                        }),
                        None,
                        Some(spec.priority),
                    );
                    return handle;
                }
            }
        }
        let now = Instant::now();
        st.queue.push(QueuedJob {
            id,
            spec,
            shared,
            attempt: 0,
            ready_at: now,
            deadline_at: None,
        });
        let job = st.queue.last_mut().expect("just pushed");
        job.deadline_at = job.spec.deadline.map(|d| now + d);
        emit_depth(&st);
        drop(st);
        inner.wake.notify_all();
        handle
    }

    /// Stops the runner: no new admissions, then either drain or
    /// checkpoint-and-suspend everything in flight (see [`ShutdownMode`]).
    /// Blocks until every worker has exited; afterwards every submitted
    /// job's handle holds a terminal result.
    pub fn shutdown(mut self, mode: ShutdownMode) {
        self.do_shutdown(mode);
    }

    fn do_shutdown(&mut self, mode: ShutdownMode) {
        let suspended: Vec<QueuedJob> = {
            let mut st = lock(&self.inner.state);
            if st.shutdown.is_none() {
                st.shutdown = Some(mode);
            }
            let drained = if mode == ShutdownMode::Checkpoint {
                for r in &st.running {
                    r.token.request(PreemptReason::Shutdown);
                }
                let drained = std::mem::take(&mut st.queue);
                emit_depth(&st);
                drained
            } else {
                Vec::new()
            };
            self.inner.wake.notify_all();
            drained
        };
        for job in suspended {
            let priority = job.spec.priority;
            self.inner.finish(
                job.id,
                &job.shared,
                job.attempt,
                Err(JobError::Suspended {
                    checkpointed: false,
                }),
                None,
                Some(priority),
            );
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        {
            let mut st = lock(&self.inner.state);
            st.stop_supervisor = true;
            self.inner.wake.notify_all();
        }
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for JobRunner {
    /// Dropping without an explicit [`JobRunner::shutdown`] performs a
    /// [`ShutdownMode::Checkpoint`] shutdown so no job is left hanging.
    fn drop(&mut self) {
        self.do_shutdown(ShutdownMode::Checkpoint);
    }
}

// ---------------------------------------------------------------------------
// Worker and supervisor loops
// ---------------------------------------------------------------------------

enum Pick {
    Job(Box<QueuedJob>),
    Wait(Option<Duration>),
    Exit,
}

fn pick(inner: &RunnerInner, st: &mut QueueState) -> Pick {
    let now = Instant::now();
    // Expire queued jobs whose deadline passed before they ever ran:
    // graceful degradation terminates them instead of wasting a lane.
    let mut i = 0;
    while i < st.queue.len() {
        if st.queue[i].deadline_at.is_some_and(|dl| now >= dl) {
            let job = st.queue.remove(i);
            emit_depth(st);
            inner.finish(
                job.id,
                &job.shared,
                job.attempt,
                Err(JobError::DeadlineExceeded {
                    checkpointed: false,
                }),
                None,
                Some(job.spec.priority),
            );
        } else {
            i += 1;
        }
    }
    // Highest priority ready job; ties keep submission (id) order.
    let best = st
        .queue
        .iter()
        .enumerate()
        .filter(|(_, j)| j.ready_at <= now)
        .max_by_key(|(_, j)| (j.spec.priority, std::cmp::Reverse(j.id.0)))
        .map(|(idx, _)| idx);
    if let Some(idx) = best {
        return Pick::Job(Box::new(st.queue.remove(idx)));
    }
    if st.queue.is_empty() && st.shutdown.is_some() {
        return Pick::Exit;
    }
    // Nothing ready: sleep until the earliest backoff expiry or queued
    // deadline, or indefinitely until submit/completion wakes us.
    let next = st
        .queue
        .iter()
        .flat_map(|j| [Some(j.ready_at), j.deadline_at])
        .flatten()
        .min();
    Pick::Wait(next.map(|t| t.saturating_duration_since(now)))
}

fn worker_loop(inner: &RunnerInner) {
    let alive = inner.workers_alive.fetch_add(1, Ordering::Relaxed) + 1;
    tele::gauge(tele::Level::Debug, "workers.alive", alive as f64).emit();
    worker_run(inner);
    let alive = inner.workers_alive.fetch_sub(1, Ordering::Relaxed) - 1;
    tele::gauge(tele::Level::Debug, "workers.alive", alive as f64).emit();
}

fn worker_run(inner: &RunnerInner) {
    let mut st = lock(&inner.state);
    loop {
        match pick(inner, &mut st) {
            Pick::Exit => return,
            Pick::Job(job) => {
                let job = *job;
                let token = PreemptToken::new();
                st.running.push(RunningJob {
                    id: job.id,
                    token: token.clone(),
                    deadline_at: job.deadline_at,
                });
                emit_depth(&st);
                drop(st);
                inner.wake.notify_all(); // the supervisor tracks `running`
                execute(inner, job, token);
                st = lock(&inner.state);
            }
            Pick::Wait(timeout) => {
                st = match timeout {
                    Some(t) => {
                        inner
                            .wake
                            .wait_timeout(st, t)
                            .unwrap_or_else(|e| e.into_inner())
                            .0
                    }
                    None => inner.wake.wait(st).unwrap_or_else(|e| e.into_inner()),
                };
            }
        }
    }
}

fn supervisor_loop(inner: &RunnerInner) {
    let mut st = lock(&inner.state);
    loop {
        if st.stop_supervisor {
            return;
        }
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        for r in &st.running {
            if let Some(dl) = r.deadline_at {
                if now >= dl {
                    r.token.request(PreemptReason::Deadline);
                } else {
                    next = Some(next.map_or(dl, |n| n.min(dl)));
                }
            }
        }
        st = match next {
            Some(at) => {
                inner
                    .wake
                    .wait_timeout(st, at.saturating_duration_since(now))
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            }
            None => inner.wake.wait(st).unwrap_or_else(|e| e.into_inner()),
        };
    }
}

/// The per-attempt checkpoint configuration: every job gets its own
/// namespace under the shared directory unless the caller pinned one —
/// including when checkpointing is only enabled through `NOFIS_CKPT_DIR`
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

fn execute(inner: &RunnerInner, job: QueuedJob, token: PreemptToken) {
    let started = Instant::now();
    tele::event(tele::Level::Info, "job.start")
        .field("job", job.id.0)
        .field("name", job.spec.name.as_str())
        .field("attempt", job.attempt)
        .emit();

    // Fault seams at attempt start: a poisoned job (panic inside the
    // isolation boundary) or a deadline storm (the token is preempted
    // before the first minibatch, deterministically exercising
    // checkpoint-based preemption).
    let mut poison = false;
    if nofis_faults::active() {
        match nofis_faults::check(nofis_faults::Site::JobStart) {
            Some(kind @ nofis_faults::FaultKind::JobPanic) => {
                tele::event(tele::Level::Warn, "fault.injected")
                    .field("site", nofis_faults::Site::JobStart.as_str())
                    .field("kind", kind.as_str())
                    .field("job", job.id.0)
                    .emit();
                poison = true;
            }
            Some(kind @ nofis_faults::FaultKind::DeadlineStorm) => {
                tele::event(tele::Level::Warn, "fault.injected")
                    .field("site", nofis_faults::Site::JobStart.as_str())
                    .field("kind", kind.as_str())
                    .field("job", job.id.0)
                    .emit();
                token.request(PreemptReason::Deadline);
            }
            _ => {}
        }
    }

    let cfg = namespaced_config(&job.spec, job.id);
    let limit_state = Arc::clone(&job.spec.limit_state);
    let seed = job.spec.seed;
    let warm = job.spec.warm_start.clone();
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<IsResult, NofisError> {
        // Fair-share lane registration + per-job telemetry tagging +
        // preemption scope, all released on unwind too.
        let _lane = inner.pool.lane_guard();
        let _tag = tele::push_context("job", job.id.0);
        let _scope = preempt::attach(&token);
        if poison {
            panic!("injected fault: job panic (nofis-faults)");
        }
        let nofis = Nofis::new(cfg)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let (_, result) =
            nofis.run_warm_or_resume(limit_state.as_ref(), &mut rng, warm.as_deref())?;
        Ok(result)
    }));

    {
        let mut st = lock(&inner.state);
        st.running.retain(|r| r.id != job.id);
        emit_depth(&st);
    }
    inner.wake.notify_all();

    let wall = Some(started.elapsed());
    let priority = Some(job.spec.priority);
    let attempts = job.attempt + 1;
    let retryable = |job: &QueuedJob| job.attempt < job.spec.retry.max_retries;
    match outcome {
        Ok(Ok(result)) => inner.finish(job.id, &job.shared, attempts, Ok(result), wall, priority),
        Ok(Err(NofisError::Preempted {
            checkpointed,
            reason,
            ..
        })) => {
            let error = if reason == PreemptReason::Shutdown.as_str() {
                JobError::Suspended { checkpointed }
            } else {
                JobError::DeadlineExceeded { checkpointed }
            };
            inner.finish(job.id, &job.shared, attempts, Err(error), wall, priority);
        }
        Ok(Err(error)) if error.is_transient() && retryable(&job) => {
            requeue(inner, job, error.to_string());
        }
        Ok(Err(error)) => {
            inner.finish(
                job.id,
                &job.shared,
                attempts,
                Err(JobError::Failed { error, attempts }),
                wall,
                priority,
            );
        }
        Err(payload) => {
            let message = panic_message(payload.as_ref());
            if retryable(&job) {
                requeue(inner, job, format!("panic: {message}"));
            } else {
                inner.finish(
                    job.id,
                    &job.shared,
                    attempts,
                    Err(JobError::Panicked { message }),
                    wall,
                    priority,
                );
            }
        }
    }
}

fn requeue(inner: &RunnerInner, mut job: QueuedJob, error: String) {
    let backoff = job.spec.retry.backoff(job.attempt, job.spec.seed);
    tele::event(tele::Level::Warn, "job.retry")
        .field("job", job.id.0)
        .field("name", job.spec.name.as_str())
        .field("attempt", job.attempt)
        .field(
            "backoff_ms",
            backoff.as_millis().min(u128::from(u64::MAX)) as u64,
        )
        .field("error", error.as_str())
        .emit();
    job.attempt += 1;
    job.ready_at = Instant::now() + backoff;
    let mut st = lock(&inner.state);
    // Retries bypass admission control: the job already holds its queue
    // slot conceptually, and shedding a half-done job on re-entry would
    // make backoff self-defeating. A Checkpoint shutdown that raced the
    // retry suspends it instead.
    if st.shutdown == Some(ShutdownMode::Checkpoint) {
        drop(st);
        let priority = job.spec.priority;
        inner.finish(
            job.id,
            &job.shared,
            job.attempt,
            Err(JobError::Suspended {
                checkpointed: false,
            }),
            None,
            Some(priority),
        );
        return;
    }
    st.queue.push(job);
    emit_depth(&st);
    drop(st);
    inner.wake.notify_all();
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

    fn u64_field(ev: &tele::Event, key: &str) -> u64 {
        match ev.field(key) {
            Some(Value::U64(v)) => *v,
            other => panic!("field {key} missing or not u64: {other:?}"),
        }
    }

    fn str_field<'a>(ev: &'a tele::Event, key: &str) -> &'a str {
        match ev.field(key) {
            Some(Value::Str(s)) => s.as_str(),
            other => panic!("field {key} missing or not str: {other:?}"),
        }
    }

    #[test]
    fn backoff_is_exponential_capped_and_deterministic() {
        let p = RetryPolicy {
            max_retries: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
        };
        assert!(p.backoff(0, 1) >= Duration::from_millis(10));
        assert!(p.backoff(0, 1) <= Duration::from_millis(13)); // +25% jitter
        assert!(p.backoff(7, 1) >= Duration::from_millis(100));
        assert!(p.backoff(7, 1) <= Duration::from_millis(125));
        // Deterministic per (attempt, seed); different seeds de-synchronize.
        assert_eq!(p.backoff(3, 42), p.backoff(3, 42));
        let distinct = (0..16)
            .map(|seed| p.backoff(3, seed))
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 1, "jitter never varied across seeds");
    }

    #[test]
    fn backoff_stream_is_pinned_to_shared_mixer() {
        // The private splitmix64 copy this crate used to carry was
        // replaced by `nofis_parallel::rng::splitmix64`. This pins the
        // jittered backoff stream bitwise: if the shared mixer ever
        // drifts from the historical constants, retry timing (and with
        // it any schedule-sensitive test) would silently change.
        let p = RetryPolicy {
            max_retries: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
        };
        let got: Vec<u64> = (0..6)
            .map(|attempt| p.backoff(attempt, 42).as_millis() as u64)
            .collect();
        let want: Vec<u64> = (0..6u32)
            .map(|attempt| {
                let exp_ms = 10u64.saturating_mul(1 << attempt).min(100);
                let jitter = nofis_parallel::rng::splitmix64(
                    42 ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                ) % (exp_ms / 4 + 1);
                exp_ms + jitter
            })
            .collect();
        assert_eq!(got, want);
        // Historical known-answer for the mixer itself (seed 0 vector of
        // the reference SplitMix64): guards the constants, not just the
        // composition.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
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
        let mut bad_spec = JobSpec::new("poison", tiny_config(), Arc::new(PoisonPill), 1);
        bad_spec.retry = RetryPolicy::none();
        let bad = runner.submit(bad_spec);
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
    fn transient_panics_retry_with_backoff_then_succeed() {
        let _g = serial();
        let sink = Arc::new(tele::MemorySink::new(tele::Level::Info));
        let sink_id = tele::add_sink(sink.clone() as Arc<dyn tele::Sink>);
        nofis_faults::install(nofis_faults::FaultPlan::parse("job_panic@0x2").unwrap());

        let runner = JobRunner::new(RunnerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let mut spec = JobSpec::new("flaky", tiny_config(), Arc::new(HalfSpace { beta: 2.0 }), 7);
        spec.retry = RetryPolicy {
            max_retries: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(5),
        };
        let handle = runner.submit(spec);
        let result = handle.wait();
        runner.shutdown(ShutdownMode::Drain);
        nofis_faults::clear();
        tele::remove_sink(sink_id);

        assert!(result.is_ok(), "third attempt should succeed: {result:?}");
        assert_eq!(sink.named("job.start").len(), 3, "two retries = 3 starts");
        let retries = sink.named("job.retry");
        assert_eq!(retries.len(), 2);
        for (i, ev) in retries.iter().enumerate() {
            assert_eq!(u64_field(ev, "attempt"), i as u64);
            assert!(str_field(ev, "error").contains("panic"));
        }
        let ends = sink.named("job.end");
        assert_eq!(ends.len(), 1);
        assert_eq!(str_field(&ends[0], "outcome"), "done");
        assert_eq!(u64_field(&ends[0], "attempts"), 3);
    }

    #[test]
    fn exhausted_panic_retries_terminate_as_panicked() {
        let _g = serial();
        nofis_faults::install(nofis_faults::FaultPlan::parse("job_panic@0x10").unwrap());
        let runner = JobRunner::new(RunnerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let mut spec = JobSpec::new(
            "doomed",
            tiny_config(),
            Arc::new(HalfSpace { beta: 2.0 }),
            7,
        );
        spec.retry = RetryPolicy {
            max_retries: 1,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
        };
        let handle = runner.submit(spec);
        let result = handle.wait();
        runner.shutdown(ShutdownMode::Drain);
        nofis_faults::clear();
        match result {
            Err(JobError::Panicked { message }) => assert!(message.contains("injected")),
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn invalid_config_fails_permanently_without_retry() {
        let _g = serial();
        let sink = Arc::new(tele::MemorySink::new(tele::Level::Info));
        let sink_id = tele::add_sink(sink.clone() as Arc<dyn tele::Sink>);
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
        tele::remove_sink(sink_id);
        match result {
            Err(JobError::Failed { error, attempts }) => {
                assert_eq!(attempts, 1, "permanent errors must not retry");
                assert!(!error.is_transient());
            }
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(sink.named("job.retry").is_empty());
    }

    #[test]
    fn admission_sheds_lowest_priority_when_full() {
        let _g = serial();
        let runner = JobRunner::new(RunnerConfig {
            workers: 1,
            queue_capacity: 1,
        });
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new(AtomicBool::new(false));
        let blocker = runner.submit(JobSpec::new(
            "blocker",
            tiny_config(),
            Arc::new(GatedHalfSpace {
                gate: Arc::clone(&gate),
                entered: Arc::clone(&entered),
            }),
            7,
        ));
        await_entered(&entered); // blocker now occupies the only worker

        let mut mid = JobSpec::new("mid", tiny_config(), Arc::new(HalfSpace { beta: 2.0 }), 8);
        mid.priority = 1;
        let mid = runner.submit(mid); // fills the queue (capacity 1)

        // Equal-or-lower priority newcomer is shed, not the queued job.
        let low = runner.submit(JobSpec::new(
            "low",
            tiny_config(),
            Arc::new(HalfSpace { beta: 2.0 }),
            9,
        ));
        assert_eq!(
            low.try_result(),
            Some(Err(JobError::Shed { capacity: 1 })),
            "lower-priority newcomer should be shed immediately"
        );

        // A strictly higher-priority newcomer evicts the queued victim.
        let mut vip = JobSpec::new("vip", tiny_config(), Arc::new(HalfSpace { beta: 2.0 }), 10);
        vip.priority = 5;
        let vip = runner.submit(vip);
        assert_eq!(
            mid.try_result(),
            Some(Err(JobError::Shed { capacity: 1 })),
            "queued lower-priority job should be evicted for the vip"
        );
        assert!(vip.try_result().is_none(), "vip should be queued, not shed");

        open_gate(&gate);
        assert!(blocker.wait().is_ok());
        assert!(vip.wait().is_ok());
        runner.shutdown(ShutdownMode::Drain);
    }

    #[test]
    fn single_worker_runs_ready_jobs_in_priority_order() {
        let _g = serial();
        let sink = Arc::new(tele::MemorySink::new(tele::Level::Info));
        let sink_id = tele::add_sink(sink.clone() as Arc<dyn tele::Sink>);
        let runner = JobRunner::new(RunnerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new(AtomicBool::new(false));
        let blocker = runner.submit(JobSpec::new(
            "blocker",
            tiny_config(),
            Arc::new(GatedHalfSpace {
                gate: Arc::clone(&gate),
                entered: Arc::clone(&entered),
            }),
            7,
        ));
        await_entered(&entered);
        let low = runner.submit(JobSpec::new(
            "low",
            tiny_config(),
            Arc::new(HalfSpace { beta: 2.0 }),
            8,
        ));
        let mut vip = JobSpec::new("vip", tiny_config(), Arc::new(HalfSpace { beta: 2.0 }), 9);
        vip.priority = 5;
        let vip = runner.submit(vip);
        open_gate(&gate);
        assert!(blocker.wait().is_ok());
        assert!(vip.wait().is_ok());
        assert!(low.wait().is_ok());
        runner.shutdown(ShutdownMode::Drain);
        tele::remove_sink(sink_id);
        let starts: Vec<String> = sink
            .named("job.start")
            .iter()
            .map(|ev| str_field(ev, "name").to_string())
            .collect();
        assert_eq!(starts, ["blocker", "vip", "low"]);
    }

    #[test]
    fn deadline_storm_preempts_with_checkpoint_and_resume_matches_solo() {
        let _g = serial();
        let dir = std::env::temp_dir().join(format!("nofis-jobs-dl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut cfg = tiny_config();
        cfg.checkpoint = Some(CheckpointConfig::new(&dir).with_namespace("dl"));
        let solo = {
            // Ground truth: the identical job uninterrupted (no checkpoint
            // config so nothing is resumed or written).
            let nofis = Nofis::new(tiny_config()).unwrap();
            let mut rng = StdRng::seed_from_u64(7);
            nofis.run(&HalfSpace { beta: 2.0 }, &mut rng).unwrap().1
        };

        // Attempt 1: a deadline storm preempts at the first minibatch
        // boundary; the job must end DeadlineExceeded with a checkpoint.
        nofis_faults::install(nofis_faults::FaultPlan::parse("deadline_storm@0").unwrap());
        let runner = JobRunner::new(RunnerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let mut spec = JobSpec::new("dl", cfg.clone(), Arc::new(HalfSpace { beta: 2.0 }), 7);
        spec.retry = RetryPolicy::none();
        let preempted = runner.submit(spec.clone()).wait();
        runner.shutdown(ShutdownMode::Drain);
        nofis_faults::clear();
        assert_eq!(
            preempted,
            Err(JobError::DeadlineExceeded { checkpointed: true })
        );

        // Resubmission (same config + seed + explicit namespace) resumes
        // from the preemption checkpoint and matches the solo run bitwise.
        let runner = JobRunner::new(RunnerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let resumed = runner.submit(spec).wait().expect("resume should finish");
        runner.shutdown(ShutdownMode::Drain);
        assert_eq!(resumed.estimate.to_bits(), solo.estimate.to_bits());
        assert_eq!(resumed.hits, solo.hits);
        let _ = std::fs::remove_dir_all(&dir);
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
        let entered = Arc::new(AtomicBool::new(false));
        let blocker = runner.submit(JobSpec::new(
            "blocker",
            tiny_config(),
            Arc::new(GatedHalfSpace {
                gate: Arc::clone(&gate),
                entered: Arc::clone(&entered),
            }),
            7,
        ));
        await_entered(&entered);
        // Second submit hits the injected overflow: queue is empty (no
        // victim), so the newcomer itself is shed despite spare capacity.
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

    #[test]
    fn checkpoint_shutdown_suspends_queued_and_running_jobs() {
        let _g = serial();
        let runner = JobRunner::new(RunnerConfig {
            workers: 1,
            queue_capacity: 8,
        });
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let entered = Arc::new(AtomicBool::new(false));
        let running = runner.submit(JobSpec::new(
            "running",
            tiny_config(),
            Arc::new(GatedHalfSpace {
                gate: Arc::clone(&gate),
                entered: Arc::clone(&entered),
            }),
            7,
        ));
        await_entered(&entered);
        let queued = runner.submit(JobSpec::new(
            "queued",
            tiny_config(),
            Arc::new(HalfSpace { beta: 2.0 }),
            8,
        ));
        // Unblock the running job shortly after shutdown begins so it can
        // reach a minibatch boundary and observe the preemption request.
        let opener = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                open_gate(&gate);
            })
        };
        runner.shutdown(ShutdownMode::Checkpoint);
        opener.join().unwrap();
        assert_eq!(
            queued.try_result(),
            Some(Err(JobError::Suspended {
                checkpointed: false
            })),
            "queued job must be suspended without running"
        );
        // No checkpoint config on the running job: suspended, no resume
        // point.
        assert_eq!(
            running.try_result(),
            Some(Err(JobError::Suspended {
                checkpointed: false
            }))
        );
    }
}
