//! The task abstraction: a future paired with its scheduling state.
//!
//! A [`Task`] owns a boxed future and a small atomic state machine that
//! guarantees each task is scheduled at most once at a time, however many
//! wakers fire concurrently. The state machine is the classic five-state
//! design used by production executors:
//!
//! ```text
//!        wake()                 run()                 poll Ready
//! Idle ----------> Scheduled ----------> Running ----------------> Done
//!   ^                                    |    ^ wake() while running
//!   |             poll Pending           v    |
//!   +------------------------------- Notified (re-queued after poll)
//! ```
//!
//! The same machine makes each poll exclusive — a task sits in at most one
//! queue, and only a dequeued entry runs — so a poll takes no lock: the
//! future lives in a bare cell that only [`Task::run`] opens. The waker a
//! poll hands its future borrows the task's own reference rather than
//! taking a count of its own.

use std::cell::UnsafeCell;
use std::future::Future;
use std::mem::ManuallyDrop;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use std::task::{Context, Wake, Waker};

use crate::runtime::Shared;

/// Task is not currently queued or running; a wake will schedule it.
const IDLE: u8 = 0;
/// Task sits in a run queue waiting for a worker.
const SCHEDULED: u8 = 1;
/// A worker is currently polling the task's future.
const RUNNING: u8 = 2;
/// The task was woken while running and must be re-queued after the poll.
const NOTIFIED: u8 = 3;
/// The future completed (or panicked); further wakes are no-ops.
const DONE: u8 = 4;

type BoxFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// A spawned unit of work: a future plus its scheduling state.
pub(crate) struct Task {
    state: AtomicU8,
    /// The future being driven. `None` once complete. Only [`Task::run`]
    /// touches it, and the state machine admits one `run` at a time: a
    /// task is in at most one queue, and only a dequeued entry runs.
    future: UnsafeCell<Option<BoxFuture>>,
    /// Handle back to the runtime used to re-queue on wake.
    shared: Arc<Shared>,
}

// SAFETY: `state` and `shared` are `Sync` by themselves. `future` holds a
// `Send` future and is only reached from `run`, whose calls never overlap
// and are ordered by a happens-before chain through `state` and the run
// queues (see `run`), or by the drop of the last reference.
unsafe impl Sync for Task {}

impl Task {
    /// Wraps `future` in a new task bound to the runtime `shared`.
    ///
    /// The task starts in the [`SCHEDULED`] state: the caller is expected to
    /// push it onto a run queue immediately.
    pub(crate) fn new(
        future: impl Future<Output = ()> + Send + 'static,
        shared: Arc<Shared>,
    ) -> Arc<Self> {
        Arc::new(Self {
            state: AtomicU8::new(SCHEDULED),
            future: UnsafeCell::new(Some(Box::pin(future))),
            shared,
        })
    }

    /// Transitions the task towards being queued, pushing it onto the
    /// runtime's injector when the transition wins.
    fn schedule(self: &Arc<Self>) {
        let mut state = self.state.load(Ordering::Acquire);
        loop {
            let next = match state {
                IDLE => SCHEDULED,
                RUNNING => NOTIFIED,
                // Already queued, about to be re-queued, or finished.
                SCHEDULED | NOTIFIED | DONE => return,
                _ => unreachable!("invalid task state {state}"),
            };
            match self
                .state
                .compare_exchange_weak(state, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => {
                    if next == SCHEDULED {
                        self.shared.schedule(self.clone());
                    }
                    return;
                }
                Err(actual) => state = actual,
            }
        }
    }

    /// Polls the future once. Called by a worker that dequeued the task.
    pub(crate) fn run(self: Arc<Self>) {
        // SCHEDULED -> RUNNING. The task can only be dequeued once per
        // schedule, so this cannot race with another `run`.
        self.state.store(RUNNING, Ordering::Release);
        self.shared.record_poll();

        // SAFETY: no other `run` of this task overlaps this one, and each
        // happens after the last: the previous runner ended its poll with
        // its `RUNNING -> IDLE` AcqRel CAS below, a waker then won
        // `IDLE -> SCHEDULED` (AcqRel) in `schedule` and pushed the task
        // onto the queue this worker popped it from, the push's unlock of
        // the queue mutex happening before the pop's lock —
        // or the previous runner saw `NOTIFIED` and re-pushed the task
        // itself. The first run pairs `new` with the spawn's push the same
        // way. Wakers only ever touch `state`, never this cell.
        let slot = unsafe { &mut *self.future.get() };
        let Some(future) = slot.as_mut() else {
            // Completed by a previous poll; stale queue entry.
            self.state.store(DONE, Ordering::Release);
            return;
        };
        let ready = {
            // The task's own reference, lent to the poll: no count is
            // taken or dropped. A clone the future keeps goes through the
            // `Wake` vtable and counts as usual, and `will_wake` sees the
            // data pointer and vtable of any such clone.
            // SAFETY: the pointer comes from the live `Arc` `self`, which
            // outlives this block, and `ManuallyDrop` never releases the
            // count the re-created `Arc` stands for.
            let lent = unsafe { Arc::from_raw(Arc::as_ptr(&self)) };
            let waker = ManuallyDrop::new(Waker::from(lent));
            let mut cx = Context::from_waker(&waker);
            // A panicking task must not poison the worker: treat a panic
            // as completion. The JoinHandle observes it as a dropped
            // result.
            catch_unwind(AssertUnwindSafe(|| future.as_mut().poll(&mut cx)))
                .map_or(true, |poll| poll.is_ready())
        };

        if ready {
            *slot = None;
            self.state.store(DONE, Ordering::Release);
            self.shared.record_completion();
            return;
        }

        // RUNNING -> IDLE, unless a wake arrived mid-poll (NOTIFIED), in
        // which case the task goes straight back onto the queue.
        match self
            .state
            .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => {}
            Err(NOTIFIED) => {
                self.state.store(SCHEDULED, Ordering::Release);
                self.shared.schedule(self.clone());
            }
            Err(other) => unreachable!("invalid post-poll task state {other}"),
        }
    }
}

impl Wake for Task {
    fn wake(self: Arc<Self>) {
        self.schedule();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.schedule();
    }
}
