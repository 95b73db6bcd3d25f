//! Lock-free work-stealing deque: the `crossbeam_deque` surface used by
//! the executor, implemented as a real Chase–Lev deque.
//!
//! * [`Worker`]/[`Stealer`] follow Chase & Lev's growable circular-buffer
//!   deque with the acquire/release orderings of Lê et al., "Correct and
//!   Efficient Work-Stealing for Weak Memory Models" (PPoPP'13): the owner
//!   pushes at the *bottom* without synchronisation, and every taker — the
//!   owner's FIFO pop and each stealer alike — claims the oldest element
//!   with a CAS on the *top* index. Nothing ever decrements `bottom`.
//! * Buffer growth is epoch-free: the owner publishes the doubled buffer
//!   with a release store and *retires* the old one into a list inside the
//!   shared (`Arc`ed) state instead of freeing it, so a stealer that raced
//!   the growth still reads valid memory; its CAS on `top` then decides
//!   whether the (bit-identical, copied) element is really claimed.
//!   Retired buffers are reclaimed when the last handle drops — bounded
//!   waste (a geometric series below 2x the live buffer), zero fences.
//! * [`Injector`] is a lock-free Treiber chain with *batch takeover*: push
//!   is a CAS prepend and `steal_batch_and_pop` claims the entire chain
//!   with one `swap`, reverses it into FIFO order, and moves it into the
//!   caller's deque. Claiming the whole chain sidesteps the memory
//!   reclamation problem entirely (the taker owns every node it unlinks)
//!   and redistributes naturally through sibling batch-steals.
//!
//! The public API matches the `crossbeam_deque` subset this workspace
//! uses, so swapping in the real crate stays a one-line manifest change.

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr};
use std::sync::Arc;

/// Initial buffer capacity (power of two).
const MIN_CAP: usize = 64;

/// Maximum number of tasks a single [`Stealer::steal_batch_and_pop`] moves
/// (on top of the one it returns). Stealers take half the victim's queue,
/// capped here so one steal cannot monopolise a long queue.
pub const MAX_BATCH: usize = 16;

/// Result of a steal attempt.
pub enum Steal<T> {
    /// A task was stolen.
    Success(T),
    /// The queue was empty.
    Empty,
    /// Lost a race with a concurrent steal; the caller should retry.
    Retry,
}

impl<T> fmt::Debug for Steal<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Steal::Success(_) => f.write_str("Success(..)"),
            Steal::Empty => f.write_str("Empty"),
            Steal::Retry => f.write_str("Retry"),
        }
    }
}

/// A fixed-capacity circular buffer of `T` slots.
///
/// Slots are bare `MaybeUninit` cells: which logical indices hold live
/// values is tracked externally by the `top`/`bottom` indices.
struct Buffer<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Power-of-two capacity; `cap - 1` is the index mask.
    cap: usize,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> Box<Self> {
        debug_assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Box::new(Self { slots, cap })
    }

    fn slot(&self, index: isize) -> *mut MaybeUninit<T> {
        self.slots[index as usize & (self.cap - 1)].get()
    }

    /// Writes `value` into the slot for logical `index` (owner only).
    unsafe fn write(&self, index: isize, value: T) {
        ptr::write(self.slot(index), MaybeUninit::new(value));
    }

    /// Reads the slot for logical `index` as a bit-copy.
    ///
    /// A volatile read: the slot may be concurrently overwritten by the
    /// owner after wraparound, in which case the copy is torn — the caller
    /// must validate with a CAS on `top` before treating it as a `T` and
    /// discard the copy when the CAS fails.
    ///
    /// Known caveat (shared with real `crossbeam-deque`): this racing
    /// non-atomic read is formally a data race under the Rust memory
    /// model, so Miri would flag it even though the torn copy is never
    /// interpreted. Making it defined would need per-word atomic slot
    /// copies; like upstream, we take the documented-UB route on the hot
    /// path. Do not run Miri over this module.
    unsafe fn read(&self, index: isize) -> MaybeUninit<T> {
        ptr::read_volatile(self.slot(index))
    }
}

/// State shared by a [`Worker`] and its [`Stealer`]s.
struct Inner<T> {
    /// Steal index: only ever incremented, via CAS.
    top: AtomicIsize,
    /// Push/pop index: written only by the owner.
    bottom: AtomicIsize,
    /// The live circular buffer.
    buffer: AtomicPtr<Buffer<T>>,
    /// Buffers replaced by growth, kept alive until all handles drop so
    /// in-flight steals never read freed memory. Mutated only by the owner
    /// (single thread); stealers never touch it. The boxes must stay boxed:
    /// stealers may still hold raw pointers to these exact allocations.
    #[allow(clippy::vec_box)]
    retired: UnsafeCell<Vec<Box<Buffer<T>>>>,
}

unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Sole remaining handle: indices are quiescent.
        let top = *self.top.get_mut();
        let bottom = *self.bottom.get_mut();
        let buffer = unsafe { Box::from_raw(*self.buffer.get_mut()) };
        let mut index = top;
        while index < bottom {
            unsafe { buffer.read(index).assume_init_drop() };
            index += 1;
        }
        // `buffer` and the retired list free their allocations here.
    }
}

/// The worker-local end of a deque. Single-owner: push and pop must stay
/// on one thread (the type is `Send` but not `Sync`, and not `Clone`).
pub struct Worker<T> {
    inner: Arc<Inner<T>>,
    /// !Sync marker: owner operations are single-threaded by contract.
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

unsafe impl<T: Send> Send for Worker<T> {}

impl<T> Worker<T> {
    /// Creates a FIFO worker queue: `pop` takes the oldest element.
    pub fn new_fifo() -> Self {
        let buffer = Box::into_raw(Buffer::alloc(MIN_CAP));
        Self {
            inner: Arc::new(Inner {
                top: AtomicIsize::new(0),
                bottom: AtomicIsize::new(0),
                buffer: AtomicPtr::new(buffer),
                retired: UnsafeCell::new(Vec::new()),
            }),
            _not_sync: PhantomData,
        }
    }

    /// Creates a stealer handle sharing this queue.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            inner: self.inner.clone(),
        }
    }

    /// Number of elements currently in the queue (a racy snapshot).
    pub fn len(&self) -> usize {
        let bottom = self.inner.bottom.load(Relaxed);
        let top = self.inner.top.load(Relaxed);
        bottom.saturating_sub(top).max(0) as usize
    }

    /// True if the local queue holds no tasks (a racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes a task onto the bottom of the queue.
    pub fn push(&self, task: T) {
        let bottom = self.inner.bottom.load(Relaxed);
        let top = self.inner.top.load(Acquire);
        let mut buffer = self.inner.buffer.load(Relaxed);

        if bottom - top >= unsafe { (*buffer).cap } as isize {
            self.grow(top, bottom);
            buffer = self.inner.buffer.load(Relaxed);
        }

        unsafe { (*buffer).write(bottom, task) };
        // Publish the slot before publishing the new bottom, so a stealer
        // that observes the index also observes the element.
        self.inner.bottom.store(bottom + 1, Release);
    }

    /// Doubles the buffer, copying live elements; owner only.
    #[cold]
    fn grow(&self, top: isize, bottom: isize) {
        let old = self.inner.buffer.load(Relaxed);
        let new = Buffer::alloc(unsafe { (*old).cap } * 2);
        let mut index = top;
        while index < bottom {
            unsafe { ptr::write(new.slot(index), (*old).read(index)) };
            index += 1;
        }
        self.inner.buffer.store(Box::into_raw(new), Release);
        // Retire rather than free: a stealer may still be reading `old`.
        // The retired list lives in the Arc'd state, so the allocation
        // survives until every Stealer is gone.
        unsafe { (*self.inner.retired.get()).push(Box::from_raw(old)) };
    }

    /// Pops the oldest local task, from the same end the stealers take.
    pub fn pop(&self) -> Option<T> {
        // The CAS can only lose to a concurrent stealer, which strictly
        // shrinks the queue, so retrying terminates.
        loop {
            match steal_one(&self.inner) {
                Steal::Success(task) => return Some(task),
                Steal::Empty => return None,
                Steal::Retry => {}
            }
        }
    }
}

impl<T> Default for Worker<T> {
    fn default() -> Self {
        Self::new_fifo()
    }
}

impl<T> fmt::Debug for Worker<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Worker { .. }")
    }
}

/// Steals one element from the top. Shared by `Stealer::steal` and the
/// owner's pop.
fn steal_one<T>(inner: &Inner<T>) -> Steal<T> {
    let top = inner.top.load(Acquire);
    // Order the top load before the bottom load: observing a stale bottom
    // with a fresh top could miss the last element.
    fence(SeqCst);
    let bottom = inner.bottom.load(Acquire);

    if bottom - top <= 0 {
        return Steal::Empty;
    }

    // Read the element *before* claiming it, then let the CAS decide. The
    // buffer is loaded after the fence, so it is at least as fresh as any
    // growth covering index `top` (see module docs on retirement).
    let buffer = inner.buffer.load(Acquire);
    let slot = unsafe { (*buffer).read(top) };
    match inner.top.compare_exchange(top, top + 1, SeqCst, Relaxed) {
        Ok(_) => Steal::Success(unsafe { slot.assume_init() }),
        // Lost the race: the (possibly torn) bit-copy is discarded.
        Err(_) => Steal::Retry,
    }
}

/// A handle other workers use to steal from a [`Worker`]'s queue.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

unsafe impl<T: Send> Send for Stealer<T> {}
unsafe impl<T: Send> Sync for Stealer<T> {}

impl<T> Stealer<T> {
    /// Attempts to steal one task from the top of the queue.
    pub fn steal(&self) -> Steal<T> {
        steal_one(&self.inner)
    }

    /// True if the queue was observed empty (a racy snapshot).
    pub fn is_empty(&self) -> bool {
        let top = self.inner.top.load(Acquire);
        fence(SeqCst);
        let bottom = self.inner.bottom.load(Acquire);
        bottom - top <= 0
    }

    /// Steals half the victim's queue (capped at [`MAX_BATCH`] extra
    /// tasks) into `dest`, returning the first stolen task.
    ///
    /// Every element is claimed with its own fenced single-steal CAS —
    /// never one CAS over a multi-element range — so the deque has one
    /// claim protocol (`steal_one`: copy the slot `top` points at, let the
    /// CAS on `top` validate the copy) shared by the owner's pop, `steal`
    /// and this batch. Each claim re-reads `bottom`, so the batch ends at
    /// whatever the owner and other stealers have left by then.
    ///
    /// `dest` must be a different queue: the caller is its owner thread.
    pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
        debug_assert!(
            !Arc::ptr_eq(&self.inner, &dest.inner),
            "cannot batch-steal into the same deque"
        );
        let first = match steal_one(&self.inner) {
            Steal::Success(task) => task,
            other => return other,
        };

        // Size the batch from one snapshot: half the queue as it stood
        // before the pop, rounded up, capped at MAX_BATCH extra tasks.
        let top = self.inner.top.load(Acquire);
        fence(SeqCst);
        let bottom = self.inner.bottom.load(Acquire);
        // remaining/2 extra tasks ≙ half the original queue rounded up,
        // counting the task already popped.
        let extra = ((bottom - top) / 2).clamp(0, MAX_BATCH as isize);

        for _ in 0..extra {
            match steal_one(&self.inner) {
                Steal::Success(task) => dest.push(task),
                // Contention or exhaustion ends the batch; the first task
                // already makes this call a success.
                _ => break,
            }
        }
        Steal::Success(first)
    }
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
        }
    }
}

impl<T> fmt::Debug for Stealer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Stealer { .. }")
    }
}

/// A node in the injector's Treiber chain.
struct Node<T> {
    value: MaybeUninit<T>,
    next: *mut Node<T>,
}

/// The global injection queue shared by all workers.
///
/// Push is a lock-free CAS prepend; consumption is *batch takeover*: one
/// `swap` claims the entire chain, which the taker then owns outright —
/// no node is ever unlinked while another thread might still dereference
/// it, so no epochs or hazard pointers are needed. The claimed chain is
/// reversed into FIFO order and moved into the stealing worker's deque,
/// where siblings rebalance it through ordinary batch steals.
pub struct Injector<T> {
    head: AtomicPtr<Node<T>>,
}

unsafe impl<T: Send> Send for Injector<T> {}
unsafe impl<T: Send> Sync for Injector<T> {}

impl<T> Injector<T> {
    /// Creates an empty injector.
    pub fn new() -> Self {
        Self {
            head: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Enqueues a task. Lock-free: a CAS prepend that never dereferences
    /// another thread's nodes.
    pub fn push(&self, task: T) {
        let node = Box::into_raw(Box::new(Node {
            value: MaybeUninit::new(task),
            next: ptr::null_mut(),
        }));
        let mut head = self.head.load(Relaxed);
        loop {
            unsafe { (*node).next = head };
            match self
                .head
                .compare_exchange_weak(head, node, Release, Relaxed)
            {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// True if no tasks are queued (a racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.head.load(Acquire).is_null()
    }

    /// Claims every queued task, moving all but the oldest into `dest`
    /// in FIFO order and returning the oldest.
    pub fn steal_batch_and_pop(&self, dest: &Worker<T>) -> Steal<T> {
        let mut chain = self.head.swap(ptr::null_mut(), Acquire);
        if chain.is_null() {
            return Steal::Empty;
        }

        // The chain links newest → oldest; reverse in place so it links
        // oldest → newest. The swap gave us exclusive ownership.
        let mut reversed: *mut Node<T> = ptr::null_mut();
        while !chain.is_null() {
            let next = unsafe { (*chain).next };
            unsafe { (*chain).next = reversed };
            reversed = chain;
            chain = next;
        }

        let first = unsafe {
            let node = Box::from_raw(reversed);
            reversed = node.next;
            node.value.assume_init()
        };
        while !reversed.is_null() {
            let node = unsafe { Box::from_raw(reversed) };
            reversed = node.next;
            dest.push(unsafe { node.value.assume_init() });
        }
        Steal::Success(first)
    }
}

impl<T> Default for Injector<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Drop for Injector<T> {
    fn drop(&mut self) {
        let mut chain = *self.head.get_mut();
        while !chain.is_null() {
            let node = unsafe { Box::from_raw(chain) };
            chain = node.next;
            unsafe { node.value.assume_init() };
        }
    }
}

impl<T> fmt::Debug for Injector<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Injector { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_fifo_order() {
        let w = Worker::new_fifo();
        w.push(1);
        w.push(2);
        assert_eq!(w.pop(), Some(1));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn stealer_drains_worker() {
        let w = Worker::new_fifo();
        let s = w.stealer();
        w.push(7);
        assert!(matches!(s.steal(), Steal::Success(7)));
        assert!(matches!(s.steal(), Steal::Empty));
    }

    #[test]
    fn injector_batch_moves_into_worker() {
        let injector = Injector::new();
        for i in 0..5 {
            injector.push(i);
        }
        let w = Worker::new_fifo();
        assert!(matches!(
            injector.steal_batch_and_pop(&w),
            Steal::Success(0)
        ));
        assert!(injector.is_empty());
        assert_eq!(w.pop(), Some(1));
    }

    #[test]
    fn grow_preserves_elements() {
        let w = Worker::new_fifo();
        for i in 0..(MIN_CAP * 4) {
            w.push(i);
        }
        assert_eq!(w.len(), MIN_CAP * 4);
        for i in 0..(MIN_CAP * 4) {
            assert_eq!(w.pop(), Some(i));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn drop_releases_remaining_elements() {
        let value = Arc::new(0u32);
        let w = Worker::new_fifo();
        for _ in 0..10 {
            w.push(value.clone());
        }
        let injector = Injector::new();
        for _ in 0..10 {
            injector.push(value.clone());
        }
        assert_eq!(Arc::strong_count(&value), 21);
        drop(w);
        assert_eq!(Arc::strong_count(&value), 11);
        drop(injector);
        assert_eq!(Arc::strong_count(&value), 1);
    }
}
