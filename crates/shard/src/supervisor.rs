//! The supervisor: owns N worker processes and drives sharded evaluation.
//!
//! # Determinism (DESIGN.md §16)
//!
//! A batch of `n` samples is cut into fixed [`SHARD_CHUNK`]-sized shards —
//! boundaries a function of `n` only, never of the worker count. Workers
//! evaluate shards in whatever order scheduling produces, but results are
//! keyed by shard index and reassembled in shard order, so the value
//! vector is in sample order regardless of worker count, dispatch order,
//! deaths, or re-dispatches. Each per-sample value is computed by the same
//! pure oracle code the in-process path runs (worker-side panic→NaN
//! included), so the reassembled vector is bitwise identical to the
//! in-process one and the caller's fixed chunk-ordered reduction does the
//! rest.
//!
//! # Robustness
//!
//! Every dispatched shard carries a wall-clock deadline. A worker that
//! dies (EOF), wedges (deadline), or emits garbage (frame/protocol error)
//! is killed and its shard re-dispatched — the failed worker's budget
//! lease is dropped first, refunding the unspent remainder, and the
//! re-dispatch takes a fresh lease, so `max_calls` counts completed
//! evaluations exactly. Respawns back off exponentially (capped); a slot
//! that keeps failing is removed, and when no slots remain the pool
//! degrades permanently: a typed error sends the caller back to the
//! in-process pool, with a warning in the trace — never a panic, never a
//! hang.

use crate::frame::{read_frame, write_frame, FrameError};
use crate::proto::{ChaosDirective, Request, Response};
use crate::registry;
use crate::worker::{WORKER_ENV, WORKER_FLAG};
use nofis_faults as faults;
use nofis_parallel::chunks::{chunk_count, chunk_range};
use nofis_prob::{BudgetSource, Lease};
use nofis_telemetry as tele;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Samples per dispatched shard. Fixed, like [`nofis_prob::ORACLE_CHUNK`],
/// so shard boundaries depend only on the batch size — re-dispatch after a
/// worker death re-evaluates exactly the same sample range.
pub const SHARD_CHUNK: usize = 128;

/// Tuning knobs for a [`ShardPool`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Worker processes to keep alive.
    pub workers: usize,
    /// Per-request wall-clock deadline before a worker counts as wedged.
    pub timeout: Duration,
    /// Consecutive failures a worker slot survives before it is removed
    /// (each failed respawn, death, timeout, or garbage frame counts one;
    /// a completed shard resets the count).
    pub max_respawns: u32,
    /// First respawn backoff; doubles per consecutive failure.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            workers: 1,
            timeout: Duration::from_millis(30_000),
            max_respawns: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

/// Typed failure of a sharded evaluation. Both variants mean "fall back to
/// the in-process pool"; [`ShardError::Degraded`] additionally means the
/// pool will never serve again.
#[derive(Debug, PartialEq, Eq)]
pub enum ShardError {
    /// Every worker slot was removed after repeated failures; the pool is
    /// permanently out of service.
    Degraded,
    /// A budget lease came back short (a concurrent consumer drained the
    /// meter); the already-taken leases were released and nothing was
    /// evaluated against the budget.
    BudgetShort,
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Degraded => write!(f, "shard pool degraded: no live workers remain"),
            ShardError::BudgetShort => write!(f, "budget lease came back short"),
        }
    }
}

impl std::error::Error for ShardError {}

/// Lifetime counters for one pool, exposed for tests and diagnostics (the
/// authoritative observability path is the `shard.*` telemetry stream).
#[derive(Debug, Default)]
pub struct ShardStats {
    dispatched: AtomicU64,
    completed: AtomicU64,
    redispatched: AtomicU64,
    respawns: AtomicU64,
    timeouts: AtomicU64,
}

impl ShardStats {
    /// Shards handed to a worker (re-dispatches included).
    pub fn dispatched(&self) -> u64 {
        self.dispatched.load(Ordering::Relaxed)
    }
    /// Shards that returned a valid result.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }
    /// Shards re-dispatched after a worker failure.
    pub fn redispatched(&self) -> u64 {
        self.redispatched.load(Ordering::Relaxed)
    }
    /// Successful worker respawns after a failure.
    pub fn respawns(&self) -> u64 {
        self.respawns.load(Ordering::Relaxed)
    }
    /// Requests that blew their wall-clock deadline.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }
}

/// What a reader thread forwards from one worker's stdout.
enum WorkerEvent {
    Message(Response),
    /// The connection is condemned: EOF (death) or a frame/protocol error
    /// (garbage). The string describes which, for telemetry.
    Broken {
        kind: &'static str,
        detail: String,
    },
}

struct Msg {
    slot: usize,
    gen: u64,
    event: WorkerEvent,
}

struct LiveWorker {
    child: Child,
    stdin: ChildStdin,
    gen: u64,
}

struct Slot {
    worker: Option<LiveWorker>,
    /// Consecutive failures (deaths, timeouts, garbage, failed spawns).
    strikes: u32,
    /// Whether this slot is permanently removed.
    removed: bool,
}

struct Inner {
    slots: Vec<Slot>,
    rx: mpsc::Receiver<Msg>,
    tx: mpsc::Sender<Msg>,
    /// Messages received while waiting for a specific handshake reply.
    stash: VecDeque<Msg>,
    next_gen: u64,
    next_seq: u64,
}

/// A shard in flight on one worker.
struct Outstanding<'l> {
    shard: usize,
    seq: u64,
    lease: Option<Lease<'l>>,
    deadline: Instant,
}

/// A supervised pool of shard-worker processes bound to one oracle name.
///
/// Evaluations are serialized across callers (one batch in flight at a
/// time — concurrency comes from the workers); the pool itself is shared
/// freely behind an `Arc` by the job runner and the sweep engine.
pub struct ShardPool {
    oracle: String,
    cfg: ShardConfig,
    inner: Mutex<Inner>,
    degraded: AtomicBool,
    stats: ShardStats,
}

impl std::fmt::Debug for ShardPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPool")
            .field("oracle", &self.oracle)
            .field("workers", &self.cfg.workers)
            .field("degraded", &self.degraded.load(Ordering::Relaxed))
            .finish()
    }
}

impl ShardPool {
    /// Creates a pool for the oracle registered under `name`. Workers are
    /// spawned lazily on the first evaluation.
    pub fn new(name: &str, cfg: ShardConfig) -> Self {
        let (tx, rx) = mpsc::channel();
        let slots = (0..cfg.workers.max(1))
            .map(|_| Slot {
                worker: None,
                strikes: 0,
                removed: false,
            })
            .collect();
        ShardPool {
            oracle: name.to_owned(),
            cfg,
            inner: Mutex::new(Inner {
                slots,
                rx,
                tx,
                stash: VecDeque::new(),
                next_gen: 0,
                next_seq: 0,
            }),
            degraded: AtomicBool::new(false),
            stats: ShardStats::default(),
        }
    }

    /// The oracle name this pool serves.
    pub fn oracle(&self) -> &str {
        &self.oracle
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ShardStats {
        &self.stats
    }

    /// Whether the pool has permanently degraded to "use in-process".
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Live worker processes right now.
    pub fn workers_alive(&self) -> usize {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.slots.iter().filter(|s| s.worker.is_some()).count()
    }

    /// Evaluates `g(x)` for every sample, sharded across the workers.
    /// Returns values in sample order, bitwise identical to the in-process
    /// path. When `budget` is given, exactly `xs.len()` calls are leased
    /// and committed against it (worker deaths refund and re-lease;
    /// commits land only when the whole batch succeeds).
    ///
    /// # Errors
    ///
    /// [`ShardError`] when the pool cannot serve; every lease is refunded,
    /// so the caller falls back to the in-process pool with nothing
    /// charged.
    pub fn eval_values(
        &self,
        xs: &[Vec<f64>],
        budget: Option<&dyn BudgetSource>,
    ) -> Result<Vec<f64>, ShardError> {
        Ok(self.eval(xs, false, budget)?.0)
    }

    /// Like [`ShardPool::eval_values`] but also returns row-major
    /// gradients (`dim` per sample), for sharding minibatch training.
    ///
    /// # Errors
    ///
    /// Same contract as [`ShardPool::eval_values`].
    pub fn eval_grads(
        &self,
        xs: &[Vec<f64>],
        budget: Option<&dyn BudgetSource>,
    ) -> Result<(Vec<f64>, Vec<f64>), ShardError> {
        let (vals, grads) = self.eval(xs, true, budget)?;
        Ok((vals, grads.unwrap_or_default()))
    }

    /// Cleanly shuts the workers down (shutdown request, then kill).
    pub fn shutdown(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        for slot in &mut inner.slots {
            if let Some(mut w) = slot.worker.take() {
                let mut payload = Vec::new();
                Request::Shutdown.encode(&mut payload);
                let _ = write_frame(&mut w.stdin, &payload);
                let _ = w.stdin.flush();
                // Give the clean path a moment, then make sure.
                let _ = w.child.kill();
                let _ = w.child.wait();
            }
        }
    }

    /// The dispatch loop shared by values and grads evaluation.
    fn eval(
        &self,
        xs: &[Vec<f64>],
        grad: bool,
        budget: Option<&dyn BudgetSource>,
    ) -> Result<(Vec<f64>, Option<Vec<f64>>), ShardError> {
        if self.is_degraded() {
            return Err(ShardError::Degraded);
        }
        if xs.is_empty() {
            return Ok((Vec::new(), grad.then(Vec::new)));
        }
        let dim = xs[0].len();
        let n = xs.len();
        let n_shards = chunk_count(n, SHARD_CHUNK);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        self.ensure_workers(&mut inner);
        if alive(&inner) == 0 {
            self.degrade();
            return Err(ShardError::Degraded);
        }

        let mut pending: VecDeque<usize> = (0..n_shards).collect();
        let mut results: Vec<Option<(Vec<f64>, Vec<f64>)>> = (0..n_shards).map(|_| None).collect();
        let mut busy: HashMap<usize, Outstanding<'_>> = HashMap::new();
        // Leases of *completed* shards, committed only once the whole batch
        // succeeds: any abort — budget short, degradation mid-batch — sends
        // the caller back to the in-process path to re-pay for every
        // sample, so completed shards must refund too or they double-charge.
        let mut held: Vec<Lease<'_>> = Vec::new();
        // Set when the evaluation must abort (budget short): stop
        // dispatching, drain in-flight shards, then return the error.
        let mut abort: Option<ShardError> = None;

        while results.iter().any(|r| r.is_none()) {
            // Dispatch to idle live workers.
            if abort.is_none() {
                for slot_idx in 0..inner.slots.len() {
                    if pending.is_empty() {
                        break;
                    }
                    if busy.contains_key(&slot_idx) || inner.slots[slot_idx].worker.is_none() {
                        continue;
                    }
                    let shard = *pending.front().expect("non-empty");
                    let (start, end) = chunk_range(n, SHARD_CHUNK, shard);
                    let lease = match budget {
                        Some(b) => {
                            let lease = b.lease(end - start);
                            if lease.granted() < end - start {
                                drop(lease); // refund the partial grant
                                abort = Some(ShardError::BudgetShort);
                                break;
                            }
                            Some(lease)
                        }
                        None => None,
                    };
                    pending.pop_front();
                    match self.dispatch(&mut inner, slot_idx, shard, &xs[start..end], dim, grad) {
                        Ok(out) => {
                            busy.insert(
                                slot_idx,
                                Outstanding {
                                    shard: out.0,
                                    seq: out.1,
                                    lease,
                                    deadline: out.2,
                                },
                            );
                        }
                        Err(()) => {
                            // Write failed: the lease refunds on drop, the
                            // shard goes back to the queue front, and the
                            // worker is condemned.
                            drop(lease);
                            self.requeue(&mut pending, shard, slot_idx);
                            self.condemn(&mut inner, slot_idx, "write", "request write failed");
                        }
                    }
                }
                self.gauge_inflight(busy.len());
            }

            if busy.is_empty() {
                if let Some(err) = abort.take() {
                    return Err(err);
                }
                if alive(&inner) == 0 {
                    // Nothing in flight, shards remain, every slot gone.
                    self.degrade();
                    return Err(ShardError::Degraded);
                }
                if pending.is_empty() {
                    break; // all shards completed
                }
                continue; // idle workers exist; dispatch again
            }

            // Wait for the next worker event or the earliest deadline.
            let msg = match inner.stash.pop_front() {
                Some(m) => Some(m),
                None => {
                    let deadline = busy.values().map(|o| o.deadline).min().expect("busy");
                    let wait = deadline.saturating_duration_since(Instant::now());
                    match inner.rx.recv_timeout(wait) {
                        Ok(m) => Some(m),
                        Err(mpsc::RecvTimeoutError::Timeout) => None,
                        Err(mpsc::RecvTimeoutError::Disconnected) => {
                            unreachable!("pool holds a sender")
                        }
                    }
                }
            };

            match msg {
                Some(msg) => {
                    // Stale generation: a reader for a worker we already
                    // killed. Drop it.
                    let current_gen = inner.slots[msg.slot].worker.as_ref().map(|w| w.gen);
                    if current_gen != Some(msg.gen) {
                        continue;
                    }
                    if abort.is_some() {
                        // Drain mode: the evaluation is being abandoned, so
                        // a completed shard's lease must *refund*, not
                        // commit — the caller falls back in-process and
                        // will pay for every sample there.
                        if let Some(out) = busy.remove(&msg.slot) {
                            drop(out.lease);
                        }
                        if let WorkerEvent::Broken { kind, detail } = msg.event {
                            self.condemn(&mut inner, msg.slot, kind, &detail);
                        }
                        continue;
                    }
                    match msg.event {
                        WorkerEvent::Message(Response::EvalOk { seq, vals, grads }) => {
                            let Some(out) = busy.get(&msg.slot) else {
                                // A response we never asked for.
                                self.condemn(&mut inner, msg.slot, "frame", "unsolicited response");
                                continue;
                            };
                            let (start, end) = chunk_range(n, SHARD_CHUNK, out.shard);
                            let len = end - start;
                            let shape_ok = seq == out.seq
                                && vals.len() == len
                                && grads
                                    .as_ref()
                                    .map_or(!grad, |g| grad && g.len() == len * dim);
                            if !shape_ok {
                                let out = busy.remove(&msg.slot).expect("checked");
                                drop(out.lease);
                                self.requeue(&mut pending, out.shard, msg.slot);
                                self.condemn(&mut inner, msg.slot, "frame", "malformed eval reply");
                                continue;
                            }
                            let out = busy.remove(&msg.slot).expect("checked");
                            if let Some(lease) = out.lease {
                                held.push(lease);
                            }
                            results[out.shard] = Some((vals, grads.unwrap_or_default()));
                            inner.slots[msg.slot].strikes = 0;
                            self.stats.completed.fetch_add(1, Ordering::Relaxed);
                            if tele::enabled(tele::Level::Trace) {
                                tele::event(tele::Level::Trace, "shard.complete")
                                    .field("shard", out.shard)
                                    .field("worker", msg.slot)
                                    .emit();
                            }
                        }
                        WorkerEvent::Message(_) => {
                            // Pong/Init outside a handshake: protocol confusion.
                            if let Some(out) = busy.remove(&msg.slot) {
                                drop(out.lease);
                                self.requeue(&mut pending, out.shard, msg.slot);
                            }
                            self.condemn(&mut inner, msg.slot, "frame", "unexpected message");
                        }
                        WorkerEvent::Broken { kind, detail } => {
                            if let Some(out) = busy.remove(&msg.slot) {
                                drop(out.lease);
                                self.requeue(&mut pending, out.shard, msg.slot);
                            }
                            self.condemn(&mut inner, msg.slot, kind, &detail);
                        }
                    }
                }
                None => {
                    // A deadline fired: every overdue shard re-queues and
                    // its worker is condemned as wedged.
                    let now = Instant::now();
                    let overdue: Vec<usize> = busy
                        .iter()
                        .filter(|(_, o)| o.deadline <= now)
                        .map(|(slot, _)| *slot)
                        .collect();
                    for slot_idx in overdue {
                        let out = busy.remove(&slot_idx).expect("listed");
                        drop(out.lease);
                        self.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                        tele::event(tele::Level::Warn, "shard.timeout")
                            .field("worker", slot_idx)
                            .field("shard", out.shard)
                            .field("timeout_ms", self.cfg.timeout.as_millis() as u64)
                            .emit();
                        self.requeue(&mut pending, out.shard, slot_idx);
                        self.condemn(&mut inner, slot_idx, "timeout", "request deadline exceeded");
                    }
                }
            }
        }

        self.gauge_inflight(0);
        if let Some(err) = abort {
            return Err(err); // `held` drops here: full refund
        }
        for mut lease in held {
            lease.spend_all();
        }
        // Shard-ordered reassembly: sample order, independent of which
        // worker computed what and in which order.
        let mut vals = Vec::with_capacity(n);
        let mut grads = grad.then(|| Vec::with_capacity(n * dim));
        for r in results {
            let (v, g) = r.expect("loop exits only when complete");
            vals.extend_from_slice(&v);
            if let Some(grads) = grads.as_mut() {
                grads.extend_from_slice(&g);
            }
        }
        Ok((vals, grads))
    }

    /// Sends one shard to a live worker. Returns `(shard, seq, deadline)`
    /// on success; `Err(())` means the write failed and the caller must
    /// condemn the worker and re-queue the shard.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &self,
        inner: &mut Inner,
        slot_idx: usize,
        shard: usize,
        rows: &[Vec<f64>],
        dim: usize,
        grad: bool,
    ) -> Result<(usize, u64, Instant), ()> {
        let seq = inner.next_seq;
        inner.next_seq += 1;
        // Chaos decision happens here, supervisor-side, so the injection
        // index is a deterministic function of dispatch order; the *effect*
        // is performed by the worker for real.
        let mut chaos = None;
        if faults::active() {
            chaos = match faults::check(faults::Site::ShardDispatch) {
                Some(k @ faults::FaultKind::ShardDeath) => Some((k, ChaosDirective::Die)),
                Some(k @ faults::FaultKind::ShardGarbage) => Some((k, ChaosDirective::Garbage)),
                Some(k @ faults::FaultKind::ShardHang) => Some((k, ChaosDirective::Hang)),
                _ => None,
            };
        }
        let worker = inner.slots[slot_idx].worker.as_mut().expect("live");
        let mut payload = Vec::new();
        if let Some((kind, directive)) = chaos {
            tele::event(tele::Level::Warn, "fault.injected")
                .field("site", faults::Site::ShardDispatch.as_str())
                .field("kind", kind.as_str())
                .emit();
            Request::Chaos { directive }.encode(&mut payload);
            if write_frame(&mut worker.stdin, &payload).is_err() {
                return Err(());
            }
        }
        let xs: Vec<f64> = rows.iter().flat_map(|r| r.iter().copied()).collect();
        Request::Eval {
            seq,
            dim: dim as u32,
            grad,
            xs,
        }
        .encode(&mut payload);
        if write_frame(&mut worker.stdin, &payload).is_err() || worker.stdin.flush().is_err() {
            return Err(());
        }
        self.stats.dispatched.fetch_add(1, Ordering::Relaxed);
        if tele::enabled(tele::Level::Trace) {
            tele::event(tele::Level::Trace, "shard.dispatch")
                .field("shard", shard)
                .field("worker", slot_idx)
                .field("samples", rows.len())
                .emit();
        }
        Ok((shard, seq, Instant::now() + self.cfg.timeout))
    }

    /// Puts a shard back at the front of the queue after a worker failure.
    /// Every re-queue goes through here, so the `redispatched` stat and the
    /// `shard.redispatch` event count each one exactly once.
    fn requeue(&self, pending: &mut VecDeque<usize>, shard: usize, slot_idx: usize) {
        pending.push_front(shard);
        self.stats.redispatched.fetch_add(1, Ordering::Relaxed);
        tele::event(tele::Level::Warn, "shard.redispatch")
            .field("shard", shard)
            .field("worker", slot_idx)
            .emit();
    }

    /// Kills a worker whose connection is condemned, then tries to refill
    /// the slot (with backoff); repeated strikes remove the slot.
    fn condemn(&self, inner: &mut Inner, slot_idx: usize, kind: &'static str, detail: &str) {
        if let Some(mut w) = inner.slots[slot_idx].worker.take() {
            let _ = w.child.kill();
            let _ = w.child.wait();
        }
        tele::event(tele::Level::Warn, "shard.death")
            .field("worker", slot_idx)
            .field("kind", kind)
            .field("detail", detail)
            .emit();
        inner.slots[slot_idx].strikes += 1;
        self.gauge_workers(inner);
        self.refill(inner, slot_idx);
    }

    /// Spawns workers into every empty, non-removed slot (initial fill and
    /// post-failure recovery share this path).
    fn ensure_workers(&self, inner: &mut Inner) {
        for slot_idx in 0..inner.slots.len() {
            if inner.slots[slot_idx].worker.is_none() && !inner.slots[slot_idx].removed {
                self.refill(inner, slot_idx);
            }
        }
    }

    /// Respawn-with-backoff for one slot. On repeated failure the slot is
    /// removed permanently (`removed = true`).
    fn refill(&self, inner: &mut Inner, slot_idx: usize) {
        let was_empty_fresh = inner.slots[slot_idx].strikes == 0;
        loop {
            let slot = &mut inner.slots[slot_idx];
            if slot.removed {
                return;
            }
            if slot.strikes > self.cfg.max_respawns {
                slot.removed = true;
                tele::event(tele::Level::Warn, "shard.worker_removed")
                    .field("worker", slot_idx)
                    .field("strikes", slot.strikes)
                    .emit();
                return;
            }
            if slot.strikes > 0 {
                let exp = slot.strikes.saturating_sub(1).min(16);
                let backoff = self
                    .cfg
                    .backoff_base
                    .saturating_mul(1u32 << exp)
                    .min(self.cfg.backoff_cap);
                std::thread::sleep(backoff);
            }
            let gen = inner.next_gen;
            inner.next_gen += 1;
            match self.spawn_worker(inner, slot_idx, gen) {
                Ok(w) => {
                    let pid = w.child.id();
                    inner.slots[slot_idx].worker = Some(w);
                    if !was_empty_fresh {
                        self.stats.respawns.fetch_add(1, Ordering::Relaxed);
                        tele::event(tele::Level::Warn, "shard.respawn")
                            .field("worker", slot_idx)
                            .field("pid", pid as u64)
                            .field("strikes", inner.slots[slot_idx].strikes)
                            .emit();
                    } else {
                        tele::event(tele::Level::Info, "shard.spawn")
                            .field("worker", slot_idx)
                            .field("pid", pid as u64)
                            .emit();
                    }
                    self.gauge_workers(inner);
                    return;
                }
                Err(e) => {
                    tele::event(tele::Level::Warn, "shard.spawn_fail")
                        .field("worker", slot_idx)
                        .field("err", e.as_str())
                        .emit();
                    inner.slots[slot_idx].strikes += 1;
                }
            }
        }
    }

    /// Spawns one worker process and completes the `Init` + `Ping`
    /// handshake (the heartbeat that proves the pipe is live before the
    /// first shard is trusted to it).
    fn spawn_worker(
        &self,
        inner: &mut Inner,
        slot_idx: usize,
        gen: u64,
    ) -> Result<LiveWorker, String> {
        if faults::active() {
            if let Some(kind @ faults::FaultKind::ShardSpawnFail) =
                faults::check(faults::Site::ShardSpawn)
            {
                tele::event(tele::Level::Warn, "fault.injected")
                    .field("site", faults::Site::ShardSpawn.as_str())
                    .field("kind", kind.as_str())
                    .emit();
                return Err("injected spawn failure".to_owned());
            }
        }
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg(WORKER_FLAG)
            .env(WORKER_ENV, &self.oracle)
            // The worker owns nothing observability-wise, and it must not
            // replay the parent's fault plan or fight over trace files,
            // checkpoint dirs, or the metrics port.
            .env_remove("NOFIS_FAULT_PLAN")
            .env_remove("NOFIS_TRACE_FILE")
            .env_remove("NOFIS_METRICS_ADDR")
            .env_remove("NOFIS_FLIGHT_DIR")
            .env_remove("NOFIS_CKPT_DIR")
            .env_remove("NOFIS_SHARDS")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn: {e}"))?;
        let mut stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        // Reader thread: frames from this worker flow into the shared
        // channel tagged (slot, gen); a condemned generation's messages
        // are dropped by the event loop.
        let tx = inner.tx.clone();
        std::thread::spawn(move || {
            let mut stdout = stdout;
            let mut buf = Vec::new();
            loop {
                let event = match read_frame(&mut stdout, &mut buf) {
                    Ok(()) => match Response::decode(&buf) {
                        Ok(resp) => WorkerEvent::Message(resp),
                        Err(e) => WorkerEvent::Broken {
                            kind: "garbage",
                            detail: e.to_string(),
                        },
                    },
                    Err(FrameError::Eof) => WorkerEvent::Broken {
                        kind: "death",
                        detail: "stdout closed".to_owned(),
                    },
                    Err(e) => WorkerEvent::Broken {
                        kind: "garbage",
                        detail: e.to_string(),
                    },
                };
                let broken = matches!(event, WorkerEvent::Broken { .. });
                if tx
                    .send(Msg {
                        slot: slot_idx,
                        gen,
                        event,
                    })
                    .is_err()
                    || broken
                {
                    return;
                }
            }
        });
        // Handshake, bounded by the request timeout.
        let mut payload = Vec::new();
        Request::Init {
            oracle: self.oracle.clone(),
        }
        .encode(&mut payload);
        let init_ok = write_frame(&mut stdin, &payload).is_ok() && stdin.flush().is_ok();
        if !init_ok {
            let _ = child.kill();
            let _ = child.wait();
            return Err("init write failed".to_owned());
        }
        match self.await_handshake(inner, slot_idx, gen) {
            Some(Response::InitOk { .. }) => {}
            Some(Response::InitErr { msg }) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("init rejected: {msg}"));
            }
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err("no init reply before deadline".to_owned());
            }
        }
        let heartbeat = 0xBEA7u64 ^ gen;
        Request::Ping { seq: heartbeat }.encode(&mut payload);
        let ping_ok = write_frame(&mut stdin, &payload).is_ok() && stdin.flush().is_ok();
        if !ping_ok
            || !matches!(
                self.await_handshake(inner, slot_idx, gen),
                Some(Response::Pong { seq }) if seq == heartbeat
            )
        {
            let _ = child.kill();
            let _ = child.wait();
            return Err("heartbeat failed".to_owned());
        }
        Ok(LiveWorker { child, stdin, gen })
    }

    /// Waits (bounded) for the next message from a specific worker
    /// generation during a handshake; messages from other workers are
    /// stashed for the main event loop.
    fn await_handshake(&self, inner: &mut Inner, slot_idx: usize, gen: u64) -> Option<Response> {
        let deadline = Instant::now() + self.cfg.timeout;
        loop {
            let wait = deadline.saturating_duration_since(Instant::now());
            match inner.rx.recv_timeout(wait) {
                Ok(msg) if msg.slot == slot_idx && msg.gen == gen => match msg.event {
                    WorkerEvent::Message(resp) => return Some(resp),
                    WorkerEvent::Broken { .. } => return None,
                },
                Ok(msg) => inner.stash.push_back(msg),
                Err(_) => return None,
            }
        }
    }

    fn degrade(&self) {
        if !self.degraded.swap(true, Ordering::Relaxed) {
            tele::event(tele::Level::Warn, "shard.degraded")
                .field("oracle", self.oracle.as_str())
                .emit();
            tele::gauge(tele::Level::Info, "shard.workers", 0.0).emit();
        }
    }

    fn gauge_workers(&self, inner: &Inner) {
        let alive = inner.slots.iter().filter(|s| s.worker.is_some()).count();
        tele::gauge(tele::Level::Info, "shard.workers", alive as f64).emit();
    }

    /// Shards currently parked on external workers — the signal the
    /// `/healthz` wedge heuristic uses to avoid false-503s while a long
    /// sharded evaluation produces no other events.
    fn gauge_inflight(&self, inflight: usize) {
        if tele::enabled(tele::Level::Trace) {
            tele::gauge(tele::Level::Trace, "shard.inflight", inflight as f64).emit();
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn alive(inner: &Inner) -> usize {
    inner.slots.iter().filter(|s| s.worker.is_some()).count()
}

/// Returns true when `name` could be served by a pool in this binary: the
/// oracle is registered, so spawned workers would pass the handshake.
pub fn shardable(name: &str) -> bool {
    !name.is_empty() && name != "unnamed" && registry::is_registered(name)
}
