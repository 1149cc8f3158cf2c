//! A small, work-stealing-free chunked thread pool.
//!
//! Built from `std::thread` and `std::sync::mpsc` channels only. Workers
//! are spawned once and parked on a shared job channel; a chunked run
//! enqueues one helper job per participating worker, and every participant
//! (including the caller's thread) claims chunk *indices* from a shared
//! atomic cursor. There are no per-worker deques and no stealing — the only
//! shared state is the cursor, so the set of chunks each thread executes is
//! irrelevant to the results, which always land in chunk-indexed slots.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Cumulative utilization counters for a [`ThreadPool`], read via
/// [`ThreadPool::usage`]. Purely observational: counters never influence
/// scheduling, so chunk assignment and results are unaffected by whether
/// anyone reads them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolUsage {
    /// Chunked runs executed (`run_chunks` calls with work).
    pub runs: u64,
    /// Runs small enough (or pools small enough) to execute entirely on
    /// the calling thread without dispatching helpers.
    pub inline_runs: u64,
    /// Helper jobs dispatched to worker threads across all runs.
    pub helper_dispatches: u64,
    /// Runs whose helper allotment was reduced by fair-share lane
    /// accounting (two or more [`LaneGuard`]s alive at dispatch time).
    /// The fair-share split's test hook: nothing else reads it.
    pub shared_runs: u64,
}

/// Registration of one logical client (e.g. a scheduler job) on a shared
/// pool, returned by [`ThreadPool::lane_guard`]. While two or more guards
/// are alive, each chunked run's *helper* allotment shrinks to
/// `(threads - 1) / active` so co-tenants split the worker lanes instead
/// of queueing behind each other; every caller still participates on its
/// own thread, so no client is ever starved below one lane. Purely a
/// scheduling hint: chunk results land in chunk-indexed slots, so the
/// helper count never affects computed values (DESIGN.md §8).
#[must_use = "the lane registration is released when the guard drops"]
#[derive(Debug)]
pub struct LaneGuard<'a> {
    pool: &'a ThreadPool,
}

impl Drop for LaneGuard<'_> {
    fn drop(&mut self) {
        self.pool.active_clients.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Type-erased unit of work executed by a pool worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Locks a mutex, ignoring poisoning: the pool's own state transitions are
/// trivially exception-safe (counters and option slots), and a poisoned
/// latch would otherwise deadlock the panic unwind itself.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Countdown latch: `wait` blocks until `count_down` has been called once
/// per registered helper, even when helpers panic.
#[derive(Debug)]
struct Latch {
    pending: Mutex<usize>,
    all_done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(pending: usize) -> Self {
        Latch {
            pending: Mutex::new(pending),
            all_done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn count_down(&self) {
        let mut pending = lock(&self.pending);
        *pending -= 1;
        if *pending == 0 {
            self.all_done.notify_all();
        }
    }

    fn wait(&self) {
        let mut pending = lock(&self.pending);
        while *pending > 0 {
            pending = self
                .all_done
                .wait(pending)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Counts the latch down when dropped — including during a panic unwind,
/// in which case the panic is recorded for the caller to re-raise.
struct CountDownGuard {
    latch: Arc<Latch>,
}

impl Drop for CountDownGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.latch.panicked.store(true, Ordering::SeqCst);
        }
        self.latch.count_down();
    }
}

/// A fixed-size thread pool executing chunked jobs.
///
/// `threads` counts the caller's thread too: a pool of size `N` spawns
/// `N - 1` workers and the thread calling [`ThreadPool::run_chunks`]
/// participates as the `N`-th. A pool of size 1 therefore spawns nothing
/// and runs everything inline — the serial path and the parallel path are
/// the same code.
///
/// # Example
///
/// ```
/// use nofis_parallel::ThreadPool;
///
/// let pool = ThreadPool::new(2);
/// let mut data = vec![0u64; 100];
/// pool.for_each_chunk_mut(&mut data, 10, |chunk_idx, chunk| {
///     for (j, v) in chunk.iter_mut().enumerate() {
///         *v = (chunk_idx * 10 + j) as u64;
///     }
/// });
/// assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
/// ```
#[derive(Debug)]
pub struct ThreadPool {
    tx: Option<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    runs: AtomicU64,
    inline_runs: AtomicU64,
    helper_dispatches: AtomicU64,
    shared_runs: AtomicU64,
    active_clients: AtomicUsize,
}

impl ThreadPool {
    /// Creates a pool of `threads` total execution lanes (min 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..threads - 1)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("nofis-par-{i}"))
                    .spawn(move || loop {
                        // Take the lock only to receive; never hold it while
                        // running a job.
                        let job = { lock(&rx).recv() };
                        match job {
                            // A panicking job must not take the worker down
                            // with it: the panic is recorded by the job's
                            // CountDownGuard and re-raised on the caller.
                            Ok(job) => drop(catch_unwind(AssertUnwindSafe(job))),
                            Err(_) => break, // pool dropped, channel closed
                        }
                    })
                    .expect("failed to spawn nofis-parallel worker")
            })
            .collect();
        ThreadPool {
            tx: Some(tx),
            handles,
            threads,
            runs: AtomicU64::new(0),
            inline_runs: AtomicU64::new(0),
            helper_dispatches: AtomicU64::new(0),
            shared_runs: AtomicU64::new(0),
            active_clients: AtomicUsize::new(0),
        }
    }

    /// Total execution lanes (spawned workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of cumulative utilization counters.
    pub fn usage(&self) -> PoolUsage {
        PoolUsage {
            runs: self.runs.load(Ordering::Relaxed),
            inline_runs: self.inline_runs.load(Ordering::Relaxed),
            helper_dispatches: self.helper_dispatches.load(Ordering::Relaxed),
            shared_runs: self.shared_runs.load(Ordering::Relaxed),
        }
    }

    /// Registers the calling client for fair-share lane accounting; see
    /// [`LaneGuard`]. Cheap (one atomic increment) and reentrant — nested
    /// guards just count as extra clients.
    pub fn lane_guard(&self) -> LaneGuard<'_> {
        self.active_clients.fetch_add(1, Ordering::Relaxed);
        LaneGuard { pool: self }
    }

    /// Runs `f(chunk_index)` for every index in `0..n_chunks`, spreading
    /// chunks across the pool. Blocks until every chunk has run.
    ///
    /// Chunk indices are claimed dynamically from a shared cursor, so load
    /// imbalance between chunks is absorbed without work stealing. `f` must
    /// confine its effects to per-chunk state (indexed slots, disjoint
    /// slices); the *assignment* of chunks to threads is unspecified.
    ///
    /// # Panics
    ///
    /// Re-raises on the calling thread if `f` panicked on any worker (after
    /// all other chunks finished or were drained).
    pub fn run_chunks<F>(&self, n_chunks: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        if n_chunks == 0 {
            return;
        }
        self.runs.fetch_add(1, Ordering::Relaxed);
        // Fair-share: with several registered clients, each run claims only
        // its share of the worker lanes (the caller's own lane is always
        // available, so the floor is zero helpers, never zero lanes).
        // Helper count cannot affect results — see LaneGuard.
        let active = self.active_clients.load(Ordering::Relaxed);
        let lane_budget = if active > 1 {
            self.shared_runs.fetch_add(1, Ordering::Relaxed);
            (self.threads - 1) / active
        } else {
            self.threads - 1
        };
        let helpers = lane_budget.min(n_chunks - 1);
        if helpers == 0 {
            self.inline_runs.fetch_add(1, Ordering::Relaxed);
            for i in 0..n_chunks {
                f(i);
            }
            return;
        }
        self.helper_dispatches
            .fetch_add(helpers as u64, Ordering::Relaxed);

        let latch = Arc::new(Latch::new(helpers));
        let next = Arc::new(AtomicUsize::new(0));

        // SAFETY: the helper jobs borrow `f` through a lifetime-erased
        // reference. The `WaitGuard` below blocks — even during a panic
        // unwind of this frame — until every helper job has dropped its
        // `CountDownGuard`, i.e. has finished running. `f` (and everything
        // it borrows) therefore strictly outlives every use on the workers.
        let f_ref: &(dyn Fn(usize) + Sync) = &f;
        let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f_ref) };

        struct WaitGuard<'a> {
            latch: &'a Latch,
        }
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                self.latch.wait();
            }
        }
        let wait_guard = WaitGuard { latch: &latch };

        let tx = self.tx.as_ref().expect("pool channel alive");
        for _ in 0..helpers {
            let latch = Arc::clone(&latch);
            let next = Arc::clone(&next);
            tx.send(Box::new(move || {
                let _guard = CountDownGuard { latch };
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_chunks {
                        break;
                    }
                    // Fault-injection seam: a scheduled WorkerPanic takes
                    // this helper down mid-claim, exercising the
                    // CountDownGuard + re-raise recovery path from a real
                    // worker thread (the caller's lane is never targeted).
                    if nofis_faults::active() {
                        if let Some(kind @ nofis_faults::FaultKind::WorkerPanic) =
                            nofis_faults::check(nofis_faults::Site::WorkerChunk)
                        {
                            nofis_telemetry::event(nofis_telemetry::Level::Warn, "fault.injected")
                                .field("site", nofis_faults::Site::WorkerChunk.as_str())
                                .field("kind", kind.as_str())
                                .field("chunk", i)
                                .emit();
                            panic!("injected fault: worker panic (nofis-faults)");
                        }
                    }
                    f_static(i);
                }
            }))
            .expect("pool workers alive");
        }

        // The calling thread is a full participant.
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_chunks {
                break;
            }
            f(i);
        }

        drop(wait_guard); // block until all helpers are done
        if latch.panicked.load(Ordering::SeqCst) {
            panic!("a chunk panicked on a nofis-parallel worker thread");
        }
    }

    /// Maps `f` over `0..n_chunks` and returns the results **in chunk
    /// order**, regardless of which thread computed which chunk.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f` like [`ThreadPool::run_chunks`].
    pub fn map_chunks<T, F>(&self, n_chunks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let slots: Vec<Mutex<Option<T>>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
        self.run_chunks(n_chunks, |i| {
            *lock(&slots[i]) = Some(f(i));
        });
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every chunk ran exactly once")
            })
            .collect()
    }

    /// Splits `data` into consecutive chunks of `chunk_len` elements (the
    /// final chunk may be shorter) and runs `f(chunk_index, chunk)` on each,
    /// in parallel. Chunks are disjoint `&mut` slices, so no synchronization
    /// is needed inside `f`.
    ///
    /// # Panics
    ///
    /// Propagates panics from `f` like [`ThreadPool::run_chunks`].
    pub fn for_each_chunk_mut<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        if data.is_empty() {
            return;
        }
        let chunk_len = chunk_len.max(1);
        let slots: Vec<Mutex<Option<&mut [T]>>> = data
            .chunks_mut(chunk_len)
            .map(|c| Mutex::new(Some(c)))
            .collect();
        self.run_chunks(slots.len(), |i| {
            let chunk = lock(&slots[i]).take().expect("chunk claimed exactly once");
            f(i, chunk);
        });
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel wakes every parked worker with RecvError.
        drop(self.tx.take());
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn pool_of_one_runs_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        pool.run_chunks(4, |i| {
            assert_eq!(std::thread::current().id(), caller);
            lock(&seen).push(i);
        });
        assert_eq!(seen.into_inner().unwrap(), vec![0usize, 1, 2, 3]);
    }

    #[test]
    fn all_chunks_run_exactly_once() {
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let counters: Vec<AtomicU64> = (0..37).map(|_| AtomicU64::new(0)).collect();
            pool.run_chunks(counters.len(), |i| {
                counters[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                counters.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn map_chunks_preserves_order() {
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let out = pool.map_chunks(100, |i| i * 3);
            assert_eq!(out.len(), 100);
            assert!(out.iter().enumerate().all(|(i, &v)| v == i * 3));
        }
    }

    #[test]
    fn for_each_chunk_mut_covers_disjoint_slices() {
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let mut data = vec![0usize; 103]; // not divisible by chunk_len
            pool.for_each_chunk_mut(&mut data, 10, |ci, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = ci * 10 + j;
                }
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v == i));
        }
    }

    #[test]
    fn zero_chunks_is_a_no_op() {
        let pool = ThreadPool::new(4);
        pool.run_chunks(0, |_| panic!("must not run"));
        let out: Vec<u8> = pool.map_chunks(0, |_| 1u8);
        assert!(out.is_empty());
        pool.for_each_chunk_mut(&mut [] as &mut [u8], 4, |_, _| panic!("must not run"));
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = ThreadPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run_chunks(64, |i| {
                if i == 13 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // The pool remains fully usable afterwards.
        let out = pool.map_chunks(8, |i| i);
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn caller_borrows_are_visible_to_workers() {
        let pool = ThreadPool::new(4);
        let input: Vec<u64> = (0..1000).collect();
        let total = AtomicU64::new(0);
        pool.run_chunks(10, |i| {
            let s: u64 = input[i * 100..(i + 1) * 100].iter().sum();
            total.fetch_add(s, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 1000 * 999 / 2);
    }

    #[test]
    fn usage_counters_track_runs() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.usage(), PoolUsage::default());
        pool.run_chunks(5, |_| {});
        pool.run_chunks(0, |_| {}); // no-op, not counted
        let u = pool.usage();
        assert_eq!(u.runs, 1);
        assert_eq!(u.inline_runs, 1);
        assert_eq!(u.helper_dispatches, 0);

        let pool = ThreadPool::new(4);
        pool.run_chunks(10, |_| {});
        pool.run_chunks(1, |_| {}); // single chunk runs inline even on a big pool
        let u = pool.usage();
        assert_eq!(u.runs, 2);
        assert_eq!(u.inline_runs, 1);
        assert_eq!(u.helper_dispatches, 3);
    }

    #[test]
    fn lane_guards_split_helpers_between_clients() {
        let pool = ThreadPool::new(4);

        // One client (or none): full helper allotment, not a shared run.
        let g1 = pool.lane_guard();
        pool.run_chunks(10, |_| {});
        assert_eq!(pool.usage().helper_dispatches, 3);
        assert_eq!(pool.usage().shared_runs, 0);

        // Two clients: (4 - 1) / 2 = 1 helper each; results still complete.
        let g2 = pool.lane_guard();
        let counters: Vec<AtomicU64> = (0..10).map(|_| AtomicU64::new(0)).collect();
        pool.run_chunks(counters.len(), |i| {
            counters[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
        assert_eq!(pool.usage().helper_dispatches, 4);
        assert_eq!(pool.usage().shared_runs, 1);

        // Four clients: 3 / 4 = 0 helpers — the run goes inline, but the
        // caller's own lane keeps it making progress.
        let g3 = pool.lane_guard();
        let g4 = pool.lane_guard();
        pool.run_chunks(10, |_| {});
        assert_eq!(pool.usage().helper_dispatches, 4);
        assert_eq!(pool.usage().inline_runs, 1);

        // Guards release their registration on drop.
        drop((g1, g2, g3, g4));
        pool.run_chunks(10, |_| {});
        assert_eq!(pool.usage().helper_dispatches, 7);
        assert_eq!(pool.usage().shared_runs, 2);
    }

    #[test]
    fn more_chunks_than_threads_and_vice_versa() {
        let pool = ThreadPool::new(8);
        assert_eq!(pool.map_chunks(2, |i| i), vec![0, 1]);
        let pool = ThreadPool::new(2);
        assert_eq!(pool.map_chunks(64, |i| i).len(), 64);
    }
}
