//! The multi-threaded, work-stealing runtime.
//!
//! Architecture (a deliberately small cousin of Tokio's scheduler):
//!
//! * every worker thread owns a FIFO run `Queue` (a mutex-guarded
//!   `VecDeque`) plus a **LIFO slot** holding the most recently woken
//!   task, so a wake performed *by* a worker (the ping-pong
//!   message-passing pattern) is polled next on the same core without
//!   touching any queue,
//! * the LIFO slot is reserved for *wakes* — the channel layer's waker
//!   handoff lands the woken receiver exactly there, which is the
//!   direct-handoff path for session ping-pong. Fresh spawns from a
//!   worker go to the back of its queue instead, and a backlog reaches
//!   siblings through their batch steals,
//! * one more queue of the same type, the injector, receives tasks
//!   scheduled from outside the pool (spawns, cross-thread wakes),
//! * idle workers first drain the LIFO slot and local queue, then
//!   dispatch pending socket readiness ([`io::turn_now`](crate::io::turn_now)),
//!   then batch-steal from the injector, then batch-steal from a sibling
//!   (random start index to spread contention), and finally park. A
//!   parking worker that takes the I/O driver baton parks in
//!   `epoll_wait` ([`io`](crate::io)), so the thread that would sleep is
//!   the one that waits for socket edges, and an edge it collects wakes
//!   its task into its own LIFO slot.
//!
//! Wake-ups are O(1) and lock-free: pushers consult a **searching-worker
//! count** — if any worker is already hunting for work, no wake is needed
//! at all — and otherwise claim one parked worker from an atomic bitmask
//! and unpark exactly that thread (each worker has a private parker, so
//! wake-ups of distinct workers never serialise on one mutex). The
//! Dekker-style handshake is the classic one: a pusher publishes its task
//! *before* reading the searching count/bitmask, a parking worker
//! publishes its bitmask bit *before* re-checking the queues, with `SeqCst`
//! fences supplying the store-load ordering on both sides, so at least one
//! side always observes the other and no wake is lost. The re-check reads
//! each queue's length without its lock: a pusher stores the new length
//! under the lock, before `notify`'s fence, and the parker reads it after
//! its own fence, so a snapshot that misses the push means the pusher's
//! read of the bitmask sees the parked bit and wakes the worker.

use std::cell::Cell;
use std::collections::VecDeque;
use std::future::Future;
use std::io::Write;
use std::ptr;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle as ThreadHandle;

use dep_telemetry as telemetry;
use telemetry::scheduler::Counters;
use telemetry::CachePadded;

use crate::deque::Queue;
use crate::join::{self, JoinHandle};
use crate::park::{self, Parker};
use crate::task::Task;

/// Upper bound on pool size: parked workers live in one `AtomicU64` bitmask.
const MAX_WORKERS: usize = 64;

/// Consecutive polls a worker may take from its LIFO slot before deferring
/// to the FIFO queue, so a hot ping-pong pair cannot starve queued tasks.
const LIFO_STREAK_LIMIT: u32 = 32;

/// State shared between all workers and every external handle.
pub(crate) struct Shared {
    injector: CachePadded<Queue<Arc<Task>>>,
    /// One run queue per worker, indexed like `parkers`.
    queues: Box<[CachePadded<Queue<Arc<Task>>>]>,
    parkers: Vec<Arc<Parker>>,
    /// Number of workers currently stealing (out of local work but not yet
    /// parked). Pushers skip the wake entirely while this is non-zero: a
    /// searcher is guaranteed to find the new task before it sleeps.
    searching: AtomicUsize,
    /// Bit `i` set ⇔ worker `i` is parked and may be claimed by a waker.
    parked: AtomicU64,
    shutdown: AtomicBool,
    /// One cache-padded counter block per worker plus a final "external"
    /// block for operations performed off the pool. Zero-sized (and
    /// untouched) unless the `telemetry` feature is on.
    counters: Box<[CachePadded<Counters>]>,
}

impl Shared {
    /// Enqueues a task from outside any worker and wakes a worker for it.
    pub(crate) fn push(&self, task: Arc<Task>) {
        self.injector.push(task);
        self.notify();
    }

    /// Schedules a *woken* task — the receiver of a message, a completed
    /// join, any waker fire. On a worker thread of this runtime the task
    /// goes into the LIFO slot (displacing any occupant into its queue):
    /// this is the direct-handoff path — a channel send performed by a
    /// worker places the woken receiver where that same worker polls next,
    /// so ping-pong message passing never touches a shared queue.
    /// Everywhere else the task goes through the injector.
    pub(crate) fn schedule(&self, task: Arc<Task>) {
        match self.worker_here() {
            Some(context) => {
                if let Some(displaced) = context.lifo.replace(Some(task)) {
                    self.queues[context.index].push(displaced);
                    // Surplus local work that siblings could pick up.
                    self.notify();
                }
            }
            None => self.push(task),
        }
    }

    /// Schedules a freshly *spawned* task. Unlike a wake, a spawn never
    /// claims the LIFO slot (that would let a spawn storm displace the hot
    /// message-passing task): on a worker thread of this runtime it goes
    /// to the back of the local FIFO queue, elsewhere through the
    /// injector.
    pub(crate) fn schedule_new(&self, task: Arc<Task>) {
        match self.worker_here() {
            Some(context) => {
                self.counters[context.index].spawns.incr();
                self.queues[context.index].push(task);
                self.notify();
            }
            None => {
                self.counters[self.counters.len() - 1].spawns.incr();
                self.push(task);
            }
        }
    }

    /// Wakes one parked worker, unless a searcher already has it covered.
    fn notify(&self) {
        // Order the preceding queue push before the searching/parked reads
        // (store-load: the queue's unlock alone is not enough).
        fence(Ordering::SeqCst);
        if self.searching.load(Ordering::Relaxed) > 0 {
            return;
        }
        self.unpark_one();
    }

    /// Claims and wakes one parked worker; O(1), lock-free.
    fn unpark_one(&self) {
        let mut mask = self.parked.load(Ordering::SeqCst);
        while mask != 0 {
            let index = self.pick(mask);
            match self.parked.compare_exchange(
                mask,
                mask & !(1 << index),
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    // The claimed worker wakes up *already searching*, so
                    // concurrent pushes see `searching > 0` and skip their
                    // own wakes instead of stampeding the remaining
                    // sleepers.
                    self.searching.fetch_add(1, Ordering::SeqCst);
                    self.counters[index].unparks.incr();
                    self.parkers[index].unpark();
                    return;
                }
                Err(actual) => mask = actual,
            }
        }
    }

    /// The parked worker to claim out of `mask`: the lowest, unless it is
    /// the one in `epoll_wait` and another is parked — the driver keeps
    /// watching the sockets (rule 4 of [`io`](crate::io)). At most one
    /// thread drives, so one look suffices.
    fn pick(&self, mask: u64) -> usize {
        let lowest = mask.trailing_zeros() as usize;
        let rest = mask & (mask - 1);
        if rest != 0 && self.parkers[lowest].is_driving() {
            rest.trailing_zeros() as usize
        } else {
            lowest
        }
    }

    /// True if any queue (the injector or a worker's) has work.
    fn work_available(&self) -> bool {
        !self.injector.is_empty() || self.queues.iter().any(|queue| !queue.is_empty())
    }

    /// The calling thread's worker context, if it is a worker of *this*
    /// runtime; `None` off the pool and on a worker of any other runtime.
    fn worker_here(&self) -> Option<&WorkerContext> {
        let context = CONTEXT.with(Cell::get);
        if context.is_null() {
            return None;
        }
        // SAFETY: the pointer is registered by `worker_loop` on this
        // thread and cleared (via `ContextGuard`) before the context is
        // dropped, so a non-null value is always live. The reference
        // cannot outlive it: `WorkerContext` is `!Sync`, so the borrow
        // stays on this thread, where everything that runs while the
        // pointer is set is nested inside `worker_loop`'s frame.
        let context = unsafe { &*context };
        ptr::eq(self, context.shared).then_some(context)
    }

    /// The counter block of the calling thread: the worker's own block on
    /// a worker of *this* runtime, the external block anywhere else.
    /// Callers guard with `telemetry::ENABLED` so disabled builds skip
    /// the thread-local lookup entirely.
    fn counters_here(&self) -> &Counters {
        let index = self.worker_here().map(|context| context.index);
        &self.counters[index.unwrap_or(self.counters.len() - 1)]
    }

    /// Records one poll of a scheduled task on the calling thread.
    pub(crate) fn record_poll(&self) {
        if telemetry::ENABLED {
            self.counters_here().polls.incr();
        }
    }

    /// Records a task future driven to completion on the calling thread.
    pub(crate) fn record_completion(&self) {
        if telemetry::ENABLED {
            self.counters_here().completions.incr();
        }
    }

    /// A searcher found work. The last one to stop wakes a sibling if
    /// more remains, to keep draining it in parallel.
    fn stop_searching(&self, local: &Queue<Arc<Task>>) {
        if self.searching.fetch_sub(1, Ordering::SeqCst) == 1
            && (!local.is_empty() || !self.injector.is_empty())
        {
            self.unpark_one();
        }
    }

    /// Removes this worker's parked bit. Returns false if a waker claimed
    /// the bit first (and therefore incremented `searching` on our behalf).
    fn unregister_parked(&self, index: usize) -> bool {
        let bit = 1u64 << index;
        let mut mask = self.parked.load(Ordering::SeqCst);
        loop {
            if mask & bit == 0 {
                return false;
            }
            match self.parked.compare_exchange(
                mask,
                mask & !bit,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return true,
                Err(actual) => mask = actual,
            }
        }
    }
}

/// Thread-local state of a worker, reachable from wakers running on that
/// worker's thread via [`CONTEXT`].
struct WorkerContext {
    /// Identifies the runtime this worker belongs to.
    shared: *const Shared,
    /// This worker's index into `Shared::queues`/`parkers`/`counters`.
    index: usize,
    /// The most recently woken task; polled next, ahead of the queue.
    lifo: Cell<Option<Arc<Task>>>,
}

thread_local! {
    static CONTEXT: Cell<*const WorkerContext> = const { Cell::new(ptr::null()) };
}

/// Clears the thread-local context pointer even on unwind.
struct ContextGuard;

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CONTEXT.with(|context| context.set(ptr::null()));
    }
}

/// A handle to a pool of worker threads executing spawned futures.
///
/// Dropping the runtime signals shutdown and joins all workers; tasks that
/// have not yet completed are dropped with their resources.
pub struct Runtime {
    shared: Arc<Shared>,
    workers: Vec<ThreadHandle<()>>,
}

impl Runtime {
    /// Creates a runtime with `threads` worker threads (clamped to 1..=64).
    pub fn new(threads: usize) -> Self {
        let threads = threads.clamp(1, MAX_WORKERS);
        let shared = Arc::new(Shared {
            injector: CachePadded::new(Queue::new()),
            queues: (0..threads)
                .map(|_| CachePadded::new(Queue::new()))
                .collect(),
            parkers: (0..threads).map(|_| Arc::new(Parker::new(true))).collect(),
            searching: AtomicUsize::new(0),
            parked: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            // One block per worker plus the trailing external block.
            counters: (0..threads + 1).map(|_| CachePadded::default()).collect(),
        });

        let workers = (0..threads)
            .map(|index| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("executor-worker-{index}"))
                    .spawn(move || worker_loop(index, shared))
                    .expect("failed to spawn worker thread")
            })
            .collect();

        Self { shared, workers }
    }

    /// Creates a runtime sized to the machine's available parallelism.
    pub fn with_default_threads() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(threads)
    }

    /// Spawns a future onto the pool, returning a handle to await its output.
    ///
    /// Admission is unbounded: `spawn` never blocks and never refuses. A
    /// queued task costs one queue slot plus whatever its future already
    /// owns (10⁵ queued three-role sessions peak near 500 MiB, because
    /// each holds its four rings from the moment it is built), so a caller
    /// that generates load bounds its own in-flight count.
    pub fn spawn<F>(&self, future: F) -> JoinHandle<F::Output>
    where
        F: Future + Send + 'static,
        F::Output: Send + 'static,
    {
        let (result_tx, handle) = join::pair();
        let task = Task::new(
            async move {
                result_tx.send(future.await);
            },
            self.shared.clone(),
        );
        self.shared.schedule_new(task);
        handle
    }

    /// Runs `future` to completion on the calling thread while the pool
    /// processes any tasks it spawns.
    pub fn block_on<F: Future>(&self, future: F) -> F::Output {
        park::block_on(future)
    }

    /// Snapshots the scheduler counters: one block per worker plus the
    /// external block (operations from threads outside the pool). All
    /// zeros unless built with the `telemetry` feature. Counts are exact
    /// once the pool is quiescent (no task running or queued).
    pub fn telemetry(&self) -> telemetry::scheduler::RuntimeSnapshot {
        let workers = self.shared.parkers.len();
        telemetry::scheduler::RuntimeSnapshot {
            workers: self.shared.counters[..workers]
                .iter()
                .map(|block| block.snapshot())
                .collect(),
            external: self.shared.counters[workers].snapshot(),
        }
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for parker in &self.shared.parkers {
            parker.unpark();
        }
        // A worker that panics aborts the process (`AbortOnUnwind`), so no
        // join returns an error.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Cheap per-worker xorshift RNG choosing steal victims.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Counts a worker as alive for the I/O driver baton (rules 2 and 3 of
/// [`io`](crate::io)) until it exits, unwinding included.
#[cfg(target_os = "linux")]
struct Alive(Arc<Parker>);

#[cfg(target_os = "linux")]
impl Alive {
    fn new(parker: &Arc<Parker>) -> Self {
        crate::io::worker_started(parker.clone());
        Self(parker.clone())
    }
}

#[cfg(target_os = "linux")]
impl Drop for Alive {
    fn drop(&mut self) {
        crate::io::worker_exited(&self.0);
    }
}

/// Aborts the process when a worker unwinds. `Task::run` catches a task's
/// own panic, so one that reaches here broke the scheduler itself; a pool
/// left a worker short would show it only as tasks that never finish.
struct AbortOnUnwind(usize);

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // Straight to the stream: a test harness captures `eprintln!`,
            // and the abort would discard what it captured.
            let _ = writeln!(
                std::io::stderr(),
                "executor-worker-{} panicked outside a task: aborting",
                self.0
            );
            std::process::abort();
        }
    }
}

fn worker_loop(index: usize, shared: Arc<Shared>) {
    let parker = &shared.parkers[index];
    parker.bind();
    #[cfg(target_os = "linux")]
    let _alive = Alive::new(parker);

    let context = WorkerContext {
        shared: Arc::as_ptr(&shared),
        index,
        lifo: Cell::new(None),
    };
    CONTEXT.with(|slot| slot.set(&context as *const WorkerContext));
    let _guard = ContextGuard;
    // Dropped first on unwind: aborts before the queued tasks are dropped.
    let _abort = AbortOnUnwind(index);

    let local = &shared.queues[index];
    // Carries a steal's batch from its victim to `local`; kept for its
    // capacity.
    let mut batch = VecDeque::new();
    let counters = &shared.counters[index];
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (index as u64 + 1));
    let mut lifo_streak = 0u32;
    let mut tick = 0u32;

    'run: loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        tick = tick.wrapping_add(1);

        // Periodically service the injector first so local floods cannot
        // starve externally spawned tasks.
        if tick.is_multiple_of(61) {
            if let Some(task) = shared.injector.steal_all(local, &mut batch) {
                counters.injector_pops.incr();
                task.run();
                continue;
            }
        }

        // 1. LIFO slot: the task most recently woken from this thread.
        if lifo_streak < LIFO_STREAK_LIMIT {
            if let Some(task) = context.lifo.take() {
                lifo_streak += 1;
                counters.lifo_hits.incr();
                task.run();
                continue;
            }
        } else if let Some(task) = context.lifo.take() {
            // Streak exhausted: demote the slot occupant to the queue and
            // take fairness path below.
            local.push(task);
        }
        lifo_streak = 0;

        // 2. Local FIFO queue.
        if let Some(task) = local.pop() {
            counters.local_pops.incr();
            task.run();
            continue;
        }

        // 3. Out of local work: collect pending I/O readiness first. A
        // socket this thread's last task just wrote to may have made a
        // task of this worker runnable, and dispatching the edge here
        // wakes it into the LIFO slot without parking.
        #[cfg(target_os = "linux")]
        if crate::io::turn_now() {
            continue;
        }

        // 4. Still nothing: become a searcher and steal.
        shared.searching.fetch_add(1, Ordering::SeqCst);
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                shared.searching.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            if let Some(task) = steal_work(index, &shared, &mut batch, &mut rng) {
                shared.stop_searching(local);
                task.run();
                continue 'run;
            }

            // 5. Nothing anywhere: stop searching and park. The *last*
            // searcher re-checks the queues first — pushers skip wakes
            // while `searching > 0`, so someone must cover a task pushed
            // in that window.
            if shared.searching.fetch_sub(1, Ordering::SeqCst) == 1 && shared.work_available() {
                shared.searching.fetch_add(1, Ordering::SeqCst);
                continue;
            }

            shared.parked.fetch_or(1 << index, Ordering::SeqCst);
            // Store-load: the bit must be visible before the emptiness
            // re-check, mirroring the fence in `notify`.
            fence(Ordering::SeqCst);
            if shared.shutdown.load(Ordering::SeqCst) || shared.work_available() {
                if shared.unregister_parked(index) {
                    // We got our bit back: nobody woke us, resume searching
                    // on our own account.
                    shared.searching.fetch_add(1, Ordering::SeqCst);
                } // else: a waker claimed us and already marked us searching.
                continue;
            }

            counters.parks.incr();
            // No timeout: a wake lost here hangs the pool, and the
            // tests' watchdogs name the hang.
            let parked = parker.park();
            if parked.drove {
                counters.driver_parks.incr();
            }
            if shared.unregister_parked(index) {
                // Nobody claimed the bit (a baton hand-off, shutdown or a
                // spurious return): rejoin the searchers.
                shared.searching.fetch_add(1, Ordering::SeqCst);
            } // else: claimed by a waker, which incremented `searching`.
            if parked.dispatched {
                // Back to the top: edges this park dispatched may have
                // woken tasks into the LIFO slot.
                shared.stop_searching(local);
                continue 'run;
            }
        }
    }
}

/// Steal order: batch from the injector, then batch from a sibling chosen
/// at a random starting index.
fn steal_work(
    index: usize,
    shared: &Shared,
    batch: &mut VecDeque<Arc<Task>>,
    rng: &mut Rng,
) -> Option<Arc<Task>> {
    let counters = &shared.counters[index];
    let local = &shared.queues[index];
    if let Some(task) = shared.injector.steal_all(local, batch) {
        counters.injector_pops.incr();
        return Some(task);
    }
    let siblings = shared.queues.len();
    let start = (rng.next() % siblings as u64) as usize;
    for offset in 0..siblings {
        let victim = (start + offset) % siblings;
        if victim == index {
            continue;
        }
        if let Some(task) = shared.queues[victim].steal_half(local, batch) {
            counters.sibling_steals.incr();
            return Some(task);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn spawn_and_join_many() {
        let rt = Runtime::new(2);
        let counter = Arc::new(AtomicU32::new(0));
        let handles: Vec<_> = (0..64)
            .map(|i| {
                let counter = counter.clone();
                rt.spawn(async move {
                    counter.fetch_add(1, Ordering::SeqCst);
                    i * 2
                })
            })
            .collect();
        let mut total = 0;
        for (i, handle) in handles.into_iter().enumerate() {
            assert_eq!(rt.block_on(handle).unwrap(), (i as u32) * 2);
            total += 1;
        }
        assert_eq!(total, 64);
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn nested_spawn() {
        let rt = Runtime::new(2);
        let out = rt.block_on(async {
            let inner = rt.spawn(async { 21u32 });
            inner.await.unwrap() * 2
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn panicking_task_reports_join_error() {
        let rt = Runtime::new(1);
        let handle = rt.spawn(async {
            panic!("boom");
        });
        assert!(rt.block_on(handle).is_err());
    }

    #[test]
    fn drop_runtime_joins_workers() {
        let rt = Runtime::new(4);
        let handle = rt.spawn(async { 1u8 });
        assert_eq!(rt.block_on(handle).unwrap(), 1);
        drop(rt);
    }

    #[test]
    fn two_runtimes_do_not_cross_schedule() {
        // A task on runtime A waking a task on runtime B must route the
        // wake through B's injector, not A's worker-local queues.
        let rt_a = Runtime::new(1);
        let rt_b = Runtime::new(1);
        let (mut tx, mut rx) = crate::channel::spsc::<u32>();
        let consumer = rt_b.spawn(async move { rx.recv().await });
        let producer = rt_a.spawn(async move {
            tx.send(5).unwrap();
        });
        rt_a.block_on(producer).unwrap();
        assert_eq!(rt_b.block_on(consumer).unwrap(), Some(5));
    }
}
