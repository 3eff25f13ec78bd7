//! Deterministic data-parallel primitives: a persistent worker pool and
//! block-cyclic batch assignment.
//!
//! The batched publish pipeline needs two properties at once: results
//! **in input order** regardless of how many workers ran or how the OS
//! scheduled them, and a parallel path that **never loses to the inline
//! one** (spawning `std::thread::scope` threads per batch did; so did
//! parking the dispatching thread while every share waited for a pool
//! thread to wake). The external `rayon` crate is unavailable in this
//! build environment, so this crate implements the primitives directly:
//!
//! * [`WorkerPool`] — a caller-inclusive fork-join. A job is a borrowed
//!   `Fn(usize)` closure (never boxed) cut into *shares* `0..workers`,
//!   handed out from one claim counter. The dispatching thread publishes
//!   the job, wakes `workers − 1` parked pool threads, runs share 0
//!   itself, keeps claiming whatever share no thread has started yet and
//!   finally waits only for shares a pool thread started and has not
//!   finished. If no pool thread wakes in time the caller has simply run
//!   the whole job inline; a pool thread that wakes to find nothing
//!   unclaimed goes back to sleep. `WorkerPool::new(n)` is parallelism
//!   `n`: the caller plus `n − 1` pool threads.
//! * **Block-cyclic assignment** ([`block_ranges`]) — the input is cut
//!   into fixed [`BLOCK`]-sized blocks and block `b` belongs to share
//!   `b % workers`. Every share writes its results at the items' global
//!   indices, so the output is independent of the worker count — and of
//!   which OS thread ran which share — *by construction*, and
//!   interleaving blocks keeps the load balanced even when cost varies
//!   along the event stream (one contiguous chunk per worker would stall
//!   the whole batch on the slowest region). [`shares`] decides the
//!   worker count: one share per *full* block, up to the parallelism, so
//!   no share is smaller than a block and a batch of fewer than two
//!   blocks runs inline.
//! * [`PipelineScratch`] — per-share state constructed once and reused
//!   across batches (match scratch, cost scratch, result arenas), handed
//!   to the job exclusively via [`WorkerPool::pipeline`].
//! * [`map_with_scratch`] — the one-shot form for build-time maps: the
//!   same fork-join on a pool that lives for one call.
//! * [`StageQueue`] — the bounded hand-off between pipeline stages of
//!   the staged (async) serving path: a multi-producer multi-consumer
//!   queue whose [`StageQueue::try_push`] is the admission-control
//!   primitive (a full queue is an *explicit reject*, never a block),
//!   with depth gauges for the serving metrics.
//!
//! # Fault containment
//!
//! A panicking job must not take down unrelated work sharing the pool.
//! Two layers enforce that:
//!
//! * every lock acquisition recovers from poisoning
//!   (`unwrap_or_else(|e| e.into_inner())`) — the pool state is
//!   consistent at every unlock point, so a panic elsewhere must not
//!   wedge other brokers sharing the pool;
//! * every share runs under `catch_unwind`, on the caller as on a pool
//!   thread: [`WorkerPool::try_run`] reports *which* shares panicked
//!   instead of panicking itself, and [`WorkerPool::try_pipeline`] and
//!   [`map_with_scratch`] quarantine exactly those shares and recompute
//!   them inline on the caller's thread (a
//!   [`PipelineScratch::begin_batch`] reset makes the retry bit-identical
//!   to a clean run).
//!
//! [`WorkerPool::run`] borrows the pool, so no job can be in flight when
//! the pool is dropped: `Drop` only has to tell parked threads to exit.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::mem::{ManuallyDrop, MaybeUninit};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

/// Fixed block size of the block-cyclic assignment. Small enough that a
/// 64-event batch already fills two shares, large enough that a block's
/// results stay cache-resident through a fused match → cost → decide
/// pass and that a share's dispatch is paid for by a full block of work
/// ([`shares`] never cuts a share smaller than one block).
pub const BLOCK: usize = 32;

/// How many shares a batch of `len` items gets with parallelism up to
/// `threads`: one per full [`BLOCK`], at most `threads`, at least 1.
///
/// Every share therefore owns at least one full block, so a batch of
/// fewer than two blocks runs inline, and a trailing partial block never
/// wakes a worker of its own. This is the one place the share count is
/// decided: [`WorkerPool::try_pipeline`] and [`map_with_scratch`] both
/// cut their work with it.
pub fn shares(len: usize, threads: usize) -> usize {
    threads.clamp(1, (len / BLOCK).max(1))
}

/// Resolves a requested worker count: `None` (or `Some(0)`) means "use
/// available parallelism", anything else is taken as given. Always ≥ 1.
pub fn effective_threads(requested: Option<usize>) -> usize {
    // `available_parallelism` reads the cgroup quota files on every call
    // (about 12 µs on a 2-vCPU VM), which a caller passing `None` per
    // batch would pay per batch: the process reads it once.
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    match requested {
        Some(n) if n > 0 => n,
        _ => *AVAILABLE.get_or_init(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        }),
    }
}

/// Locks with poison recovery: the pool invariants hold at every unlock
/// point, so a poisoned mutex (a caller unwound while holding the guard)
/// still guards consistent state and must not wedge unrelated brokers
/// sharing the pool.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// [`Condvar::wait`] with the same poison recovery as [`lock`].
fn cv_wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(|e| e.into_inner())
}

/// The block-cyclic index ranges owned by one worker: blocks `worker`,
/// `worker + workers`, `worker + 2·workers`, … of `len` items, each range
/// [`BLOCK`] long except possibly the globally last. Ranges are yielded
/// in ascending index order.
#[derive(Clone, Debug)]
pub struct BlockRanges {
    len: usize,
    next: usize,
    stride: usize,
}

impl Iterator for BlockRanges {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        if self.next >= self.len {
            return None;
        }
        let start = self.next;
        self.next = self.next.saturating_add(self.stride);
        Some(start..(start + BLOCK).min(self.len))
    }
}

/// The ranges of `0..len` assigned to `worker` out of `workers` under the
/// block-cyclic scheme. The ranges of all workers partition `0..len`.
///
/// # Panics
///
/// Panics if `worker >= workers` or `workers == 0`.
pub fn block_ranges(len: usize, workers: usize, worker: usize) -> BlockRanges {
    assert!(worker < workers, "worker {worker} out of {workers}");
    BlockRanges {
        len,
        next: worker * BLOCK,
        stride: workers * BLOCK,
    }
}

/// A raw pointer that may cross thread boundaries. Safety is the
/// caller's: every use here hands each worker a disjoint region.
struct SendPtr<T>(*mut T);

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

/// Maps `f` over `items` with parallelism up to `threads`, giving each
/// share its own scratch built by `make_scratch`. Results come back in
/// input order.
///
/// Work is dealt in block-cyclic fashion ([`block_ranges`]) and every
/// share writes each result directly at its item's global index, so the
/// output is identical to a sequential `items.iter().map(f)` for any
/// thread count — and no share is stuck with one contiguous "expensive"
/// region of the input.
///
/// This is [`WorkerPool`]'s fork-join on a pool that lives for one call:
/// `workers − 1` threads are spawned, the calling thread runs share 0
/// and any share no spawned thread has started by the time it gets
/// there. A share that panics is quarantined: its blocks are recomputed
/// inline on the caller's thread with a fresh scratch (results its
/// panicked run already produced are overwritten without being dropped,
/// so they may leak — acceptable on the panic path, never unsound). The
/// panic only propagates if the inline retry panics too.
///
/// With `threads <= 1`, or an input of fewer than two [`BLOCK`]s (see
/// [`shares`]), the map runs inline on the caller's thread with no spawn
/// at all. For repeated batches prefer a persistent [`WorkerPool`]; this
/// function still spawns per call.
pub fn map_with_scratch<T, U, S, MS, F>(
    items: &[T],
    threads: usize,
    make_scratch: MS,
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    MS: Fn() -> S + Sync,
    F: Fn(&T, &mut S) -> U + Sync,
{
    let len = items.len();
    let workers = shares(len, threads);
    if workers == 1 {
        let mut scratch = make_scratch();
        return items.iter().map(|item| f(item, &mut scratch)).collect();
    }

    let mut out: Vec<MaybeUninit<U>> = Vec::with_capacity(len);
    // SAFETY: MaybeUninit needs no initialization.
    unsafe { out.set_len(len) };
    let out_ptr = SendPtr(out.as_mut_ptr());
    WorkerPool::new(workers).run_quarantined(workers, |w| {
        // Bind the whole wrapper so closure capture analysis doesn't
        // reach through to the raw pointer field.
        let out_ptr = &out_ptr;
        let mut scratch = make_scratch();
        for range in block_ranges(len, workers, w) {
            for i in range {
                let value = f(&items[i], &mut scratch);
                // SAFETY: block ranges partition 0..len, so index i
                // belongs to share w alone, and share w is run by one
                // thread at a time: once during the dispatch, and again
                // by the caller's retry only after that run has ended.
                // A slot the panicked run already wrote is overwritten
                // (the old value leaks rather than being dropped — a
                // MaybeUninit slot's initialization state is unknowable
                // here).
                unsafe { (*out_ptr.0.add(i)).write(value) };
            }
        }
    });
    // SAFETY: every index was written by its owning share's last run,
    // which completed (or `run_quarantined` would have unwound).
    // Vec<MaybeUninit<U>> and Vec<U> share layout.
    let mut out = ManuallyDrop::new(out);
    unsafe { Vec::from_raw_parts(out.as_mut_ptr().cast::<U>(), len, out.capacity()) }
}

/// [`map_with_scratch`] without scratch state.
pub fn map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    map_with_scratch(items, threads, || (), |item, _scratch| f(item))
}

/// Per-worker state reused across batches by [`WorkerPool::pipeline`]:
/// scratch buffers, result arenas — anything a fused pipeline stage wants
/// to construct once and keep warm.
pub trait PipelineScratch: Send {
    /// Called on each participating worker's state at the start of every
    /// batch (before any work item), e.g. to reset result arenas while
    /// keeping their capacity. A correct implementation must erase *all*
    /// traces of prior batches: the quarantine path relies on
    /// `begin_batch` alone making an inline retry bit-identical to a
    /// clean run.
    fn begin_batch(&mut self);
}

/// A borrowed job: erased pointer to a `Fn(usize) + Sync` closure on the
/// dispatching caller's stack. Valid only while that caller is inside
/// [`PoolShared::dispatch`].
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is Sync, and a thread only dereferences the
// pointer for a share it claimed, which keeps the dispatching caller
// (and so the closure) inside `dispatch` until that share is finished.
unsafe impl Send for Job {}

/// Everything the fork-join protocol shares, guarded by one mutex. Idle
/// is `job: None, shares: 0, next: 0, running: 0`.
struct PoolState {
    /// The job in flight. `Some` exactly while its caller is between
    /// publishing it and having seen every share finished.
    job: Option<Job>,
    /// Shares of the job in flight.
    shares: usize,
    /// The claim counter: the lowest share no thread has started. A
    /// share is unclaimed iff `next < shares`.
    next: usize,
    /// Shares claimed by pool threads and not finished yet.
    running: usize,
    /// Shares that panicked on a pool thread during the job in flight.
    panicked: Vec<usize>,
    shutdown: bool,
}

impl PoolState {
    /// Claims the lowest share nobody has started, if any is left.
    fn claim(&mut self) -> Option<usize> {
        (self.next < self.shares).then(|| {
            self.next += 1;
            self.next - 1
        })
    }
}

struct PoolShared {
    /// Held by a caller for the whole of its dispatch: concurrent
    /// callers take turns, so `state` describes at most one job.
    turn: Mutex<()>,
    state: Mutex<PoolState>,
    /// Pool threads park here until a share is unclaimed (or shutdown).
    work: Condvar,
    /// The dispatching caller waits here for `running == 0`.
    done: Condvar,
}

impl PoolShared {
    /// The fork-join core: runs `job(s)` once for every share
    /// `s in 0..shares` and returns the shares that panicked, ascending.
    ///
    /// The calling thread publishes the job, wakes one parked pool thread
    /// per share beyond its own, runs share 0, then keeps claiming the
    /// lowest share nobody has started. Only when nothing is left to
    /// claim does it wait — for the shares pool threads started and have
    /// not finished. With no pool thread awake (or none at all) the
    /// caller therefore runs every share itself and never sleeps.
    fn dispatch(&self, shares: usize, job: &(dyn Fn(usize) + Sync)) -> Vec<usize> {
        debug_assert!(shares >= 1);
        let _turn = lock(&self.turn);
        // SAFETY (lifetime erasure): the pointer is reachable only
        // through `state.job`, which is cleared below before this
        // function returns; see the dereference in `pool_thread` for why
        // no use can outlive that.
        let erased = Job(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + '_),
                *const (dyn Fn(usize) + Sync + 'static),
            >(job)
        });
        let mut st = lock(&self.state);
        st.job = Some(erased);
        st.shares = shares;
        st.next = 1; // share 0 is this thread's
        drop(st);
        for _ in 1..shares {
            self.work.notify_one();
        }
        let mut panicked = Vec::new();
        let mut share = 0;
        let mut st = loop {
            if catch_unwind(AssertUnwindSafe(|| job(share))).is_err() {
                panicked.push(share);
            }
            let mut st = lock(&self.state);
            match st.claim() {
                Some(next) => share = next,
                None => break st,
            }
        };
        while st.running != 0 {
            st = cv_wait(&self.done, st);
        }
        st.job = None;
        st.shares = 0;
        st.next = 0;
        panicked.append(&mut st.panicked);
        drop(st);
        panicked.sort_unstable();
        panicked
    }

    /// Body of a pool thread: claim a share, run it, report, repeat;
    /// park while nothing is unclaimed; exit on shutdown.
    fn pool_thread(&self) {
        let mut st = lock(&self.state);
        loop {
            let Some(share) = st.claim() else {
                // Woken with nothing left to claim (the caller got there
                // first, or this is shutdown): the job pointer is not
                // touched.
                if st.shutdown {
                    return;
                }
                st = cv_wait(&self.work, st);
                continue;
            };
            let job = st.job.expect("an unclaimed share implies a published job");
            st.running += 1;
            drop(st);
            let result = catch_unwind(AssertUnwindSafe(|| {
                // SAFETY: the share was claimed, and `running` raised,
                // in one critical section in which `next < shares` held
                // — so the caller that published `job` had not yet found
                // the claim counter exhausted, and it cannot leave
                // `dispatch` (where the closure lives) until it has then
                // also seen `running == 0`, which the decrement below
                // makes possible only after this call has returned.
                unsafe { (*job.0)(share) }
            }));
            st = lock(&self.state);
            if result.is_err() {
                st.panicked.push(share);
            }
            st.running -= 1;
            if st.running == 0 {
                self.done.notify_one();
            }
        }
    }
}

/// A persistent, deterministic fork-join pool of parallelism `threads`:
/// the thread that calls [`WorkerPool::run`] plus `threads − 1`
/// long-lived pool threads parked on a condvar. Jobs are plain
/// `Fn(usize)` closures passed **by reference** (no boxing, no per-batch
/// allocation); `run` returns only when every share has finished, so the
/// closure may borrow freely from the caller's stack.
///
/// The caller is a worker, not a waiter: it runs share 0, wakes one pool
/// thread per further share, and takes over any share no pool thread has
/// started by the time it is free again. A pooled job can therefore lose
/// to running the same closure inline only by the cost of the wake-ups.
///
/// Determinism is not the pool's concern — it dispatches share *indices*,
/// and which OS thread runs a share is up to the scheduler — but combined
/// with [`block_ranges`] output order holds by construction: share `w`
/// always owns the same global indices.
///
/// Dropping the pool shuts the threads down and joins them.
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicUsize, Ordering};
/// let pool = pubsub_parallel::WorkerPool::new(4);
/// let hits = AtomicUsize::new(0);
/// pool.run(3, |w| {
///     hits.fetch_add(w + 1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 1 + 2 + 3);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish_non_exhaustive()
    }
}

/// Outcome of [`WorkerPool::try_pipeline`]: how many workers took part,
/// and how many had to be quarantined (their share panicked and their
/// blocks were recomputed inline on the caller's thread).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PipelineRun {
    /// Workers (shares) the batch was cut into (1 for the inline path).
    pub workers: usize,
    /// Workers whose share panicked and whose blocks were retried inline.
    /// Zero on a clean batch.
    pub quarantined: usize,
}

impl WorkerPool {
    /// Creates a pool of parallelism `threads` (at least one): the
    /// calling thread of each job counts, so `threads − 1` OS threads are
    /// spawned and `new(1)` spawns none.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            turn: Mutex::new(()),
            state: Mutex::new(PoolState {
                job: None,
                shares: 0,
                next: 0,
                running: 0,
                panicked: Vec::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (1..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pubsub-worker-{index}"))
                    .spawn(move || shared.pool_thread())
                    .expect("spawning pool worker")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// The pool's parallelism: the thread calling [`WorkerPool::run`]
    /// plus the pool's own `threads() − 1` threads.
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Runs `job(w)` for every worker index `w in 0..workers` and returns
    /// when all of them have finished. `workers` is clamped to the pool's
    /// parallelism. `job(0)` always runs on the calling thread; the other
    /// indices run on whichever of the caller and the woken pool threads
    /// gets to them first. Concurrent callers are serialized (whole jobs
    /// never interleave), so one pool can be shared by several brokers.
    ///
    /// # Panics
    ///
    /// Panics if any worker's job panicked (after all workers of the
    /// batch have finished, so the pool stays usable). Use
    /// [`WorkerPool::try_run`] to observe panics without propagating.
    pub fn run(&self, workers: usize, job: impl Fn(usize) + Sync) {
        let panicked = self.try_run(workers, job);
        assert!(panicked.is_empty(), "worker pool job panicked");
    }

    /// [`WorkerPool::run`] that reports instead of panicking: returns the
    /// indices of workers whose job panicked, in ascending order (empty
    /// means a clean batch). The pool stays fully usable either way.
    ///
    /// With one worker there is nothing to dispatch: `job(0)` is a plain
    /// call, and a panic in it propagates directly.
    pub fn try_run(&self, workers: usize, job: impl Fn(usize) + Sync) -> Vec<usize> {
        let workers = workers.clamp(1, self.threads());
        if workers == 1 {
            job(0);
            return Vec::new();
        }
        self.shared.dispatch(workers, &job)
    }

    /// The one quarantine-and-retry: runs the job, then re-runs every
    /// worker index that panicked inline on the caller's thread, where a
    /// second panic propagates. Returns how many needed the retry. `job`
    /// must make a re-run of an index start from a clean slate.
    fn run_quarantined(&self, workers: usize, job: impl Fn(usize) + Sync) -> usize {
        let panicked = self.try_run(workers, &job);
        for &w in &panicked {
            job(w);
        }
        panicked.len()
    }

    /// Runs a fused pipeline over `len` items: worker `w` gets exclusive
    /// access to `states[w]` (reset via [`PipelineScratch::begin_batch`])
    /// and its block-cyclic ranges ([`block_ranges`]). Returns the number
    /// of workers actually used — [`shares`] of `len` over `workers`
    /// clamped to the pool's parallelism and `states.len()`; when that is
    /// 1 the job runs inline with worker 0's state and ranges.
    ///
    /// A worker that panics is quarantined and its blocks recomputed
    /// inline; see [`WorkerPool::try_pipeline`], which this forwards to.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty, or if a quarantined worker's inline
    /// retry panics again.
    pub fn pipeline<S, F>(&self, workers: usize, states: &mut [S], len: usize, f: F) -> usize
    where
        S: PipelineScratch,
        F: Fn(usize, &mut S, BlockRanges) + Sync,
    {
        self.try_pipeline(workers, states, len, f).workers
    }

    /// [`WorkerPool::pipeline`] with fault containment made visible: a
    /// worker whose job panics is *quarantined* — only that worker's
    /// blocks are affected, and they are recomputed inline on the
    /// caller's thread after a fresh [`PipelineScratch::begin_batch`]
    /// reset, so the batch output is bit-identical to a run where the
    /// panic never happened. [`PipelineRun::quarantined`] reports how
    /// many workers needed that treatment.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty, or if an inline retry panics (a
    /// deterministic panic in `f` cannot be retried away).
    pub fn try_pipeline<S, F>(
        &self,
        workers: usize,
        states: &mut [S],
        len: usize,
        f: F,
    ) -> PipelineRun
    where
        S: PipelineScratch,
        F: Fn(usize, &mut S, BlockRanges) + Sync,
    {
        assert!(!states.is_empty(), "pipeline needs at least one state");
        let workers = shares(len, workers.min(self.threads()).min(states.len()));
        if workers == 1 {
            pipeline_inline(&mut states[0], len, f);
            return PipelineRun {
                workers: 1,
                quarantined: 0,
            };
        }
        let ptr = SendPtr(states.as_mut_ptr());
        let quarantined = self.run_quarantined(workers, |w| {
            // Bind the whole wrapper so closure capture analysis doesn't
            // reach through to the raw pointer field.
            let ptr = &ptr;
            // SAFETY: w < workers <= states.len(), and worker index w is
            // run by one thread at a time — once during the dispatch, and
            // again by the caller's retry only after that run has ended —
            // so the &mut regions are disjoint. A panicked run may have
            // left the state half-written; begin_batch erases it and the
            // retry recomputes exactly the blocks that worker owns.
            let state = unsafe { &mut *ptr.0.add(w) };
            state.begin_batch();
            f(w, state, block_ranges(len, workers, w));
        });
        PipelineRun {
            workers,
            quarantined,
        }
    }
}

/// The single-worker pipeline fast path: runs the whole batch inline on
/// the caller's thread with worker index 0 — bit-identical to
/// [`WorkerPool::pipeline`] with any worker count, no pool required.
pub fn pipeline_inline<S, F>(state: &mut S, len: usize, f: F)
where
    S: PipelineScratch,
    F: Fn(usize, &mut S, BlockRanges) + Sync,
{
    state.begin_batch();
    f(0, state, block_ranges(len, 1, 0));
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // `run` borrows the pool, so no job is in flight: every pool
        // thread is parked, or on its way to park, with nothing to claim.
        lock(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Why a [`StageQueue::try_push`] did not enqueue. Carries the rejected
/// item back so the producer can ack the rejection (or retry later)
/// without cloning every submission up front.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue is at capacity. This is the backpressure signal of the
    /// staged serving path: the caller must turn it into an explicit
    /// reject ack, not silently drop the item.
    Full(T),
    /// The queue was closed; no further items will ever be accepted.
    Closed(T),
}

impl<T> PushError<T> {
    /// Recovers the rejected item.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(item) | PushError::Closed(item) => item,
        }
    }
}

struct StageQueueState<T> {
    items: std::collections::VecDeque<T>,
    closed: bool,
    /// High-water mark of `items.len()` since construction.
    max_depth: usize,
    /// `try_push` calls rejected with [`PushError::Full`].
    rejected: u64,
}

struct StageQueueShared<T> {
    state: Mutex<StageQueueState<T>>,
    capacity: usize,
    /// Signalled when an item is pushed or the queue closes.
    not_empty: Condvar,
    /// Signalled when an item is popped or the queue closes.
    not_full: Condvar,
}

/// A bounded multi-producer multi-consumer queue decoupling the stages
/// of the serving path (transport-in → pipeline → transport-out).
///
/// Two disciplines coexist on the same queue:
///
/// * **Lossy producers** (event ingest) use [`StageQueue::try_push`]:
///   a full queue returns [`PushError::Full`] immediately — the
///   admission-control reject — and never blocks a transport thread.
/// * **Lossless producers** (control operations, internal stage-to-stage
///   hand-off) use the blocking [`StageQueue::push`], which parks until
///   space frees up; ordering relative to earlier pushes is preserved,
///   which is what carries churn/recompile barriers through the staging
///   in submission order.
///
/// Consumers block in [`StageQueue::pop`] until an item arrives or the
/// queue is both closed and drained, so shutdown is a `close()` followed
/// by the consumer naturally running dry — no sentinel items.
///
/// Cloning the handle is cheap (an `Arc` bump); all clones address the
/// same queue.
pub struct StageQueue<T> {
    shared: Arc<StageQueueShared<T>>,
}

impl<T> Clone for StageQueue<T> {
    fn clone(&self) -> Self {
        StageQueue {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> std::fmt::Debug for StageQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock(&self.shared.state);
        f.debug_struct("StageQueue")
            .field("capacity", &self.shared.capacity)
            .field("depth", &st.items.len())
            .field("max_depth", &st.max_depth)
            .field("rejected", &st.rejected)
            .field("closed", &st.closed)
            .finish()
    }
}

impl<T> StageQueue<T> {
    /// Creates a queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        StageQueue {
            shared: Arc::new(StageQueueShared {
                state: Mutex::new(StageQueueState {
                    items: std::collections::VecDeque::new(),
                    closed: false,
                    max_depth: 0,
                    rejected: 0,
                }),
                capacity: capacity.max(1),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
            }),
        }
    }

    /// Attempts to enqueue without blocking. A full queue is the
    /// backpressure signal: the item comes back in [`PushError::Full`]
    /// and the rejection counter advances, so "how often did admission
    /// control fire" is observable from [`StageQueue::rejected`].
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`StageQueue::close`].
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut st = lock(&self.shared.state);
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.items.len() >= self.shared.capacity {
            st.rejected += 1;
            return Err(PushError::Full(item));
        }
        st.items.push_back(item);
        st.max_depth = st.max_depth.max(st.items.len());
        drop(st);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Enqueues, blocking while the queue is at capacity. Used by
    /// lossless producers (control operations, inter-stage hand-off)
    /// where backpressure should stall the producing stage rather than
    /// reject.
    ///
    /// # Errors
    ///
    /// Returns the item back if the queue is closed (before or while
    /// waiting).
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut st = lock(&self.shared.state);
        loop {
            if st.closed {
                return Err(item);
            }
            if st.items.len() < self.shared.capacity {
                st.items.push_back(item);
                st.max_depth = st.max_depth.max(st.items.len());
                drop(st);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            st = cv_wait(&self.shared.not_full, st);
        }
    }

    /// Dequeues the oldest item, blocking until one arrives. Returns
    /// `None` once the queue is closed *and* drained — the consumer's
    /// natural shutdown signal.
    pub fn pop(&self) -> Option<T> {
        let mut st = lock(&self.shared.state);
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.shared.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = cv_wait(&self.shared.not_empty, st);
        }
    }

    /// Dequeues the oldest item if one is ready; never blocks.
    pub fn try_pop(&self) -> Option<T> {
        let mut st = lock(&self.shared.state);
        let item = st.items.pop_front();
        if item.is_some() {
            drop(st);
            self.shared.not_full.notify_one();
        }
        item
    }

    /// Closes the queue: every later push fails, every blocked producer
    /// and consumer wakes, and consumers drain what is already queued
    /// before [`StageQueue::pop`] starts returning `None`.
    pub fn close(&self) {
        let mut st = lock(&self.shared.state);
        st.closed = true;
        drop(st);
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
    }

    /// Whether [`StageQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        lock(&self.shared.state).closed
    }

    /// Items currently queued.
    pub fn depth(&self) -> usize {
        lock(&self.shared.state).items.len()
    }

    /// High-water mark of [`StageQueue::depth`] since construction —
    /// the ingest-queue gauge the serving metrics report.
    pub fn max_depth(&self) -> usize {
        lock(&self.shared.state).max_depth
    }

    /// `try_push` calls rejected with [`PushError::Full`] so far.
    pub fn rejected(&self) -> u64 {
        lock(&self.shared.state).rejected
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    #[test]
    fn preserves_input_order_for_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 7, 16, 1000, 5000] {
            let got = map(&items, threads, |x| x * 3 + 1);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn map_handles_non_copy_results() {
        let items: Vec<u32> = (0..500).collect();
        let expected: Vec<String> = items.iter().map(|x| format!("#{x}")).collect();
        for threads in [1, 3, 8] {
            assert_eq!(map(&items, threads, |x| format!("#{x}")), expected);
        }
    }

    #[test]
    fn scratch_is_per_worker() {
        let items: Vec<usize> = (0..256).collect();
        let got = map_with_scratch(&items, 4, Vec::<usize>::new, |item, scratch| {
            scratch.push(*item);
            // A worker only ever sees its own, in-order scratch.
            assert!(scratch.windows(2).all(|w| w[0] < w[1]));
            *item
        });
        assert_eq!(got, items);
    }

    #[test]
    fn map_survives_a_worker_panic() {
        let items: Vec<u64> = (0..700).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * 5).collect();
        let armed = AtomicBool::new(true);
        let got = map_with_scratch(
            &items,
            4,
            || (),
            |item, _scratch| {
                // One transient panic partway through a worker's blocks.
                if *item == 130 && armed.swap(false, Ordering::SeqCst) {
                    panic!("injected map fault");
                }
                *item * 5
            },
        );
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(&empty, 8, |x| *x).is_empty());
        assert_eq!(map(&[5u32], 8, |x| x + 1), vec![6]);
    }

    #[test]
    fn effective_threads_floor_is_one() {
        assert!(effective_threads(None) >= 1);
        assert!(effective_threads(Some(0)) >= 1);
        assert_eq!(effective_threads(Some(3)), 3);
    }

    #[test]
    fn block_ranges_partition_in_order() {
        let thread_counts = [1usize, 2, 3, 7, 64];
        let pools: Vec<WorkerPool> = thread_counts.iter().map(|&n| WorkerPool::new(n)).collect();
        let lens = [
            0usize,
            1,
            BLOCK - 1,
            BLOCK,
            BLOCK + 1,
            2 * BLOCK - 1,
            2 * BLOCK,
            2 * BLOCK + 1,
            128,
            1000,
            4096 + 17,
        ];
        for len in lens {
            for (&workers, pool) in thread_counts.iter().zip(&pools) {
                let mut covered = vec![false; len];
                for w in 0..workers {
                    let mut prev_end = None;
                    for range in block_ranges(len, workers, w) {
                        assert!(range.end <= len);
                        assert!(
                            range.len() == BLOCK || range.end == len,
                            "only the last block may be partial"
                        );
                        if let Some(end) = prev_end {
                            assert!(range.start >= end, "ranges ascend per worker");
                        }
                        prev_end = Some(range.end);
                        for i in range {
                            assert!(!covered[i], "index {i} covered twice");
                            covered[i] = true;
                        }
                    }
                }
                assert!(covered.iter().all(|&c| c), "len={len} workers={workers}");

                // The share rule: every share owns at least one full
                // block, so a batch of fewer than two blocks is one share.
                let n = shares(len, workers);
                assert!((1..=workers).contains(&n));
                if len >= BLOCK {
                    for s in 0..n {
                        assert!(
                            block_ranges(len, n, s).any(|r| r.len() == BLOCK),
                            "len={len} shares={n}: share {s} owns no full block"
                        );
                    }
                } else {
                    assert_eq!(n, 1, "len={len}");
                }

                // The pool cuts a batch with exactly that rule.
                let mut states: Vec<SumState> = (0..workers)
                    .map(|_| SumState { batches: 0, sum: 0 })
                    .collect();
                let run = pool.try_pipeline(workers, &mut states, len, |_w, st, ranges| {
                    st.sum = ranges.map(|r| r.len() as u64).sum();
                });
                assert_eq!(run.workers, n, "len={len} threads={workers}");
                let total: u64 = states[..run.workers].iter().map(|s| s.sum).sum();
                assert_eq!(total, len as u64);
            }
        }
    }

    #[test]
    fn new_spawns_one_thread_fewer_than_the_parallelism() {
        for n in 0..=4usize {
            let pool = WorkerPool::new(n);
            assert_eq!(pool.threads(), n.max(1));
            assert_eq!(pool.handles.len(), n.saturating_sub(1));
        }
    }

    #[test]
    fn every_share_runs_exactly_once() {
        for threads in 1..=4usize {
            let pool = WorkerPool::new(threads);
            for workers in [1usize, 2, 3, 7] {
                let hits: Vec<AtomicUsize> = (0..7).map(|_| AtomicUsize::new(0)).collect();
                pool.run(workers, |w| {
                    hits[w].fetch_add(1, Ordering::Relaxed);
                });
                let expected = workers.min(threads);
                for (w, h) in hits.iter().enumerate() {
                    let want = usize::from(w < expected);
                    assert_eq!(
                        h.load(Ordering::Relaxed),
                        want,
                        "pool {threads}, workers {workers}, share {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn share_zero_runs_on_the_calling_thread() {
        let pool = WorkerPool::new(3);
        let me = thread::current().id();
        for _ in 0..50 {
            let ran_on: Mutex<Option<ThreadId>> = Mutex::new(None);
            pool.run(3, |w| {
                if w == 0 {
                    *lock(&ran_on) = Some(thread::current().id());
                }
            });
            assert_eq!(*lock(&ran_on), Some(me));
        }
    }

    /// Property (1) of the protocol, at its limit: with no pool thread to
    /// wake at all, the caller runs every share and `dispatch` returns
    /// without ever waiting.
    #[test]
    fn caller_runs_every_share_when_no_thread_wakes() {
        let pool = WorkerPool::new(1);
        let me = thread::current().id();
        let ran_on: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
        let panicked = pool.shared.dispatch(5, &|w| {
            lock(&ran_on).push((w, thread::current().id()));
        });
        assert!(panicked.is_empty());
        let expected: Vec<_> = (0..5).map(|w| (w, me)).collect();
        assert_eq!(*lock(&ran_on), expected);
    }

    /// The pool's only thread is held inside one long share; the caller
    /// must run every other share itself rather than wait for a wake-up
    /// that cannot come. Only once nothing is left to claim does it wait
    /// — for that one started share. (The public API clamps a job to the
    /// pool's parallelism, so the five-share job goes through the core
    /// directly.)
    #[test]
    fn caller_takes_over_shares_nobody_has_started() {
        let pool = WorkerPool::new(2);
        let me = thread::current().id();
        // Rendezvous: the pool thread is inside its share, share 0 is
        // still running on the caller.
        let pool_thread_started = Barrier::new(2);
        let (release, held) = mpsc::channel::<()>();
        let held = Mutex::new(held);
        let ran_on: Mutex<Vec<(usize, ThreadId)>> = Mutex::new(Vec::new());
        let panicked = pool.shared.dispatch(5, &|w| {
            let here = thread::current().id();
            lock(&ran_on).push((w, here));
            if here != me {
                pool_thread_started.wait();
                // Held until the caller has run every other share.
                lock(&held).recv().expect("caller releases the share");
            } else if w == 0 {
                pool_thread_started.wait();
            } else if w == 4 {
                release.send(()).expect("pool thread is waiting");
            }
        });
        assert!(panicked.is_empty());
        let mut ran_on = lock(&ran_on).clone();
        ran_on.sort_unstable_by_key(|&(w, _)| w);
        // The pool thread got exactly the share it claimed while the
        // caller sat in share 0; the caller got all the others.
        assert_eq!(ran_on.len(), 5);
        for &(w, on) in &ran_on {
            assert_eq!(on == me, w != 1, "share {w}");
        }
    }

    #[test]
    fn pool_reuses_workers_across_batches() {
        let pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run(3, |_w| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 300);
    }

    struct SumState {
        batches: usize,
        sum: u64,
    }

    impl PipelineScratch for SumState {
        fn begin_batch(&mut self) {
            self.batches += 1;
            self.sum = 0;
        }
    }

    #[test]
    fn pipeline_matches_sequential_for_any_worker_count() {
        let pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..1017).collect();
        let expected: u64 = items.iter().map(|x| x * 7).sum();
        for workers in [1usize, 2, 3, 4, 9] {
            let mut states: Vec<SumState> =
                (0..4).map(|_| SumState { batches: 0, sum: 0 }).collect();
            let used = pool.pipeline(workers, &mut states, items.len(), |_w, st, ranges| {
                for range in ranges {
                    for i in range {
                        st.sum += items[i] * 7;
                    }
                }
            });
            assert_eq!(used, workers.min(4));
            let got: u64 = states[..used].iter().map(|s| s.sum).sum();
            assert_eq!(got, expected, "workers={workers}");
            // begin_batch ran exactly on the participating states.
            for (i, st) in states.iter().enumerate() {
                assert_eq!(st.batches, usize::from(i < used), "state {i}");
            }
        }
    }

    #[test]
    fn pipeline_inlines_small_batches() {
        let pool = WorkerPool::new(4);
        let mut states: Vec<SumState> = (0..4).map(|_| SumState { batches: 0, sum: 0 }).collect();
        let used = pool.pipeline(4, &mut states, BLOCK, |w, st, ranges| {
            assert_eq!(w, 0);
            st.sum = ranges.map(|r| r.len() as u64).sum();
        });
        assert_eq!(used, 1);
        assert_eq!(states[0].sum, BLOCK as u64);
    }

    #[test]
    fn pool_panics_propagate_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, |w| {
                if w == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool is still usable after a panicked job.
        let hits = AtomicUsize::new(0);
        pool.run(2, |_w| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn try_run_reports_panicked_workers() {
        let pool = WorkerPool::new(4);
        let panicked = pool.try_run(4, |w| {
            if w == 1 || w == 3 {
                panic!("boom {w}");
            }
        });
        assert_eq!(panicked, vec![1, 3]);
        // And a clean follow-up batch reports nothing.
        assert!(pool.try_run(4, |_w| {}).is_empty());
    }

    /// Runs `job` on a pool of two with share 1 forced onto the pool
    /// thread: both shares of the first run meet at a barrier, and share
    /// 0 is always the caller's. `job(w, first_run)`.
    fn with_share_one_on_the_pool_thread<R>(
        run: impl FnOnce(&WorkerPool, &(dyn Fn(usize) -> bool + Sync)) -> R,
    ) -> R {
        let pool = WorkerPool::new(2);
        let both_running = Barrier::new(2);
        let first_run = [AtomicBool::new(true), AtomicBool::new(true)];
        let result = run(&pool, &|w| {
            let first = first_run[w].swap(false, Ordering::SeqCst);
            if first {
                both_running.wait();
            }
            first
        });
        // The pool is still usable after the panicked job.
        let hits = AtomicUsize::new(0);
        pool.run(2, |_w| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        result
    }

    #[test]
    fn try_run_reports_a_panic_on_either_side_by_index() {
        for faulty in [0usize, 1] {
            let me = thread::current().id();
            let panicked = with_share_one_on_the_pool_thread(|pool, enter| {
                pool.try_run(2, |w| {
                    enter(w);
                    assert_eq!(thread::current().id() == me, w == 0);
                    if w == faulty {
                        panic!("boom {w}");
                    }
                })
            });
            assert_eq!(panicked, vec![faulty]);
        }
    }

    #[test]
    fn pipeline_quarantines_a_panic_on_either_side() {
        let items: Vec<u64> = (0..1017).collect();
        let expected: u64 = items.iter().map(|x| x * 7).sum();
        for faulty in [0usize, 1] {
            let mut states: Vec<SumState> =
                (0..2).map(|_| SumState { batches: 0, sum: 0 }).collect();
            let run = with_share_one_on_the_pool_thread(|pool, enter| {
                pool.try_pipeline(2, &mut states, items.len(), |w, st, ranges| {
                    if enter(w) && w == faulty {
                        st.sum = 123_456;
                        panic!("injected pipeline fault");
                    }
                    for range in ranges {
                        for i in range {
                            st.sum += items[i] * 7;
                        }
                    }
                })
            });
            assert_eq!(
                run,
                PipelineRun {
                    workers: 2,
                    quarantined: 1
                }
            );
            assert_eq!(states.iter().map(|s| s.sum).sum::<u64>(), expected);
            // The faulty share's state was reset twice: run + retry.
            assert_eq!(states[faulty].batches, 2);
            assert_eq!(states[1 - faulty].batches, 1);
        }
    }

    #[test]
    fn pipeline_quarantines_and_retries_panicked_worker() {
        let pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..1017).collect();
        let expected: u64 = items.iter().map(|x| x * 7).sum();
        let armed = AtomicBool::new(true);
        let mut states: Vec<SumState> = (0..4).map(|_| SumState { batches: 0, sum: 0 }).collect();
        let run = pool.try_pipeline(4, &mut states, items.len(), |w, st, ranges| {
            if w == 2 && armed.swap(false, Ordering::SeqCst) {
                // Panic after partially mutating the state: the retry
                // must reset it via begin_batch.
                st.sum = 123_456;
                panic!("injected pipeline fault");
            }
            for range in ranges {
                for i in range {
                    st.sum += items[i] * 7;
                }
            }
        });
        assert_eq!(
            run,
            PipelineRun {
                workers: 4,
                quarantined: 1
            }
        );
        let got: u64 = states[..run.workers].iter().map(|s| s.sum).sum();
        assert_eq!(got, expected);
        // Worker 2's state saw two begin_batch calls: pool run + retry.
        assert_eq!(states[2].batches, 2);
    }

    #[test]
    fn poisoned_state_lock_recovers() {
        let pool = WorkerPool::new(2);
        // Poison the state mutex from a scratch thread.
        let shared = Arc::clone(&pool.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.state.lock().expect("first lock is clean");
            panic!("poison the pool lock");
        })
        .join();
        assert!(pool.shared.state.is_poisoned());
        // The pool still dispatches and completes jobs.
        let hits = AtomicUsize::new(0);
        pool.run(2, |_w| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn pool_drop_joins_cleanly() {
        let pool = WorkerPool::new(3);
        let hits = AtomicUsize::new(0);
        pool.run(3, |_w| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        drop(pool); // must not hang or leak threads
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn pool_drop_after_panicked_job_joins_cleanly() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(2, |_w| panic!("boom"));
        }));
        assert!(result.is_err());
        drop(pool); // must not hang despite the panicked generation
    }

    /// Dropping the pool the moment a `run` has returned must not hang:
    /// the pool threads may still be on their way back to the condvar
    /// (or only now waking to find every share taken), and must see the
    /// shutdown flag either way.
    #[test]
    fn drop_right_after_run_joins() {
        // Dropped on a helper thread so a regression fails the test
        // instead of hanging the suite.
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            for _ in 0..200 {
                let pool = WorkerPool::new(4);
                pool.run(4, |_w| {});
                drop(pool);
            }
            tx.send(()).expect("watchdog alive");
        });
        rx.recv_timeout(Duration::from_secs(10))
            .expect("pool drop hung right after a run");
    }

    #[test]
    fn concurrent_callers_are_serialized() {
        let pool = Arc::new(WorkerPool::new(2));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let mut callers = Vec::new();
        for _ in 0..4 {
            let (pool, in_flight, max_seen) = (
                Arc::clone(&pool),
                Arc::clone(&in_flight),
                Arc::clone(&max_seen),
            );
            callers.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    pool.run(2, |w| {
                        if w == 0 {
                            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                            max_seen.fetch_max(now, Ordering::SeqCst);
                            in_flight.fetch_sub(1, Ordering::SeqCst);
                        }
                    });
                }
            }));
        }
        for c in callers {
            c.join().expect("caller thread");
        }
        // Jobs never interleave: at most one batch's worker 0 at a time.
        assert_eq!(max_seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stage_queue_rejects_at_capacity_and_counts() {
        let q = StageQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        match q.try_push(3) {
            Err(PushError::Full(item)) => assert_eq!(item, 3),
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.rejected(), 1);
        assert_eq!(q.depth(), 2);
        assert_eq!(q.max_depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.try_pop(), None);
        assert_eq!(q.max_depth(), 2);
    }

    #[test]
    fn stage_queue_close_drains_then_ends() {
        let q = StageQueue::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        match q.try_push("c") {
            Err(PushError::Closed(item)) => assert_eq!(item, "c"),
            other => panic!("expected Closed, got {other:?}"),
        }
        assert_eq!(q.push("d"), Err("d"));
        // Queued items still drain in order; only then does pop end.
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn stage_queue_blocking_push_waits_for_space() {
        let q = StageQueue::new(1);
        q.try_push(0u32).unwrap();
        let q2 = q.clone();
        let producer = std::thread::spawn(move || q2.push(1).is_ok());
        // Give the producer a moment to park on the full queue.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        assert!(producer.join().expect("producer thread"));
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn stage_queue_consumer_blocks_until_item_or_close() {
        let q: StageQueue<u64> = StageQueue::new(4);
        let q2 = q.clone();
        let consumer = std::thread::spawn(move || (q2.pop(), q2.pop()));
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.push(7).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        q.close();
        assert_eq!(consumer.join().expect("consumer thread"), (Some(7), None));
    }

    #[test]
    fn stage_queue_mpmc_delivers_every_item_once() {
        let q: StageQueue<usize> = StageQueue::new(8);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                let seen = Arc::clone(&seen);
                std::thread::spawn(move || {
                    while let Some(item) = q.pop() {
                        lock(&seen).push(item);
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..2)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        q.push(p * 100 + i).expect("queue open");
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().expect("producer");
        }
        q.close();
        for c in consumers {
            c.join().expect("consumer");
        }
        let mut seen = lock(&seen).clone();
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
    }
}
