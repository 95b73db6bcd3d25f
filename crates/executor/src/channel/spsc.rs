//! Lock-free single-producer/single-consumer channel.
//!
//! This is the data plane behind [`Bidirectional`](super::Bidirectional)
//! session links: a link connects exactly two fixed peers, so each
//! direction has one producer and one consumer by construction, and no
//! state of the queue takes a lock.
//!
//! # Design
//!
//! * **Growable power-of-two ring.** `head` and `tail` are monotonically
//!   increasing `usize` counters; a value with logical index `i` lives in
//!   slot `i & (cap - 1)`. The producer caches `head` and the consumer
//!   caches `tail`, so the uncontended fast paths touch the shared
//!   counters only to publish their own side (one release store each) and
//!   re-read the opposite counter only when the cached copy says
//!   full/empty (the classic cached-index SPSC optimisation).
//! * **Reserve/commit sends.** [`SpscSender::poll_reserve`] hands out a
//!   [`SendSlot`] naming the ring slot the next message will occupy;
//!   [`SendSlot::write`] moves the value straight into that slot and
//!   publishes it. `send` is a thin wrapper, so a producer constructs
//!   each message once, at its final address, instead of building it on
//!   the stack and moving it into the queue.
//! * **Epoch-free growth; the producer never parks.** When the ring
//!   fills, the producer allocates a doubled buffer, copies the live
//!   range (logical indices keep their values, only the mask changes),
//!   publishes it with a release store and *retires* the old buffer onto
//!   an intrusive chain instead of freeing it. A consumer that raced the
//!   growth keeps reading the old buffer — frozen by the producer from
//!   that point on — and picks up the new one the next time it refreshes
//!   its cached `tail`. The chain is freed when the channel drops. A ring
//!   sized from its protocol's k-MC bound never grows; un-hinted rings
//!   (the paper's queues are unbounded) double until they fit their
//!   peak. A send fails only once the receiver is gone.
//! * **Batched receive.** `SpscReceiver::try_recv_batch` pops up to a
//!   window of messages while publishing the consumer index *once*, so a
//!   streaming consumer pays one release store (one cache-line handoff to
//!   the producer) per window instead of per message; sized from the k-MC
//!   bound the window is exactly the verified number of messages that can
//!   be in flight.
//! * **Atomic waker handoff.** Blocking `recv` coordinates through a
//!   four-state machine (`EMPTY` / `LOCKED` / `WAITING` / `WAKING`) plus
//!   a waker cell. The waker is *persistent*: the waking side wakes it by
//!   reference under the `WAKING` state rather than taking it, and the
//!   parked side keeps a private mirror so that on the next empty poll a
//!   `will_wake` hit re-arms with a single CAS (`EMPTY` → `WAITING`) —
//!   no waker clone, no cell write. Only a genuinely different waker
//!   (task migration) pays for the `LOCKED` cell replacement. The waking
//!   side, after publishing its index, executes a `SeqCst` fence and
//!   peeks at the state with a relaxed load — only when it observes a
//!   (possible) waiter does it pay for the CAS that claims the cell. The
//!   parked side mirrors the fence between publishing `WAITING` and
//!   re-checking the queue, the same Dekker-style store/load handshake as
//!   the scheduler's sleep protocol, so a wake can never be lost. The
//!   receiver is the only side that ever parks, so a ring has one cell.

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::future::Future;
use std::mem::MaybeUninit;
use std::pin::Pin;
use std::ptr;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU8, AtomicUsize};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use dep_telemetry as telemetry;

use super::SendError;

/// Initial ring capacity (power of two). Small on purpose: session links
/// are created per role pair, and most carry only a few in-flight labels.
const MIN_CAP: usize = 16;

/// Not armed. The cell may still hold a disarmed waker from an earlier
/// round, which the parked side re-arms cheaply when `will_wake` matches.
const WAKER_EMPTY: u8 = 0;
/// The parked side is replacing the cell's waker; the waking side keeps out.
const WAKER_LOCKED: u8 = 1;
/// Armed: the cell holds a live waker the waking side may claim.
const WAKER_WAITING: u8 = 2;
/// The waking side is waking the cell's waker *by reference*; the parked
/// side must not mutate the cell until the waking side stores `EMPTY`.
const WAKER_WAKING: u8 = 3;

/// The Dekker-style waker handoff: the four-state machine plus the waker
/// cell it guards. The receiver parks on it while the queue is empty.
struct WakerCell {
    state: AtomicU8,
    /// Guarded by `state`: mutated by the parked side under `LOCKED`,
    /// read (and woken by reference, never taken) by the waking side
    /// under `WAKING`. Persists across rounds so re-arming is cell-free.
    cell: UnsafeCell<Option<Waker>>,
}

impl WakerCell {
    fn new() -> Self {
        Self {
            state: AtomicU8::new(WAKER_EMPTY),
            cell: UnsafeCell::new(None),
        }
    }

    /// True when a waiter may be armed; pair with a preceding `SeqCst`
    /// fence so the check cannot be reordered before the index
    /// publication it guards.
    #[inline]
    fn is_armed(&self) -> bool {
        self.state.load(Relaxed) != WAKER_EMPTY
    }

    /// Wakes the armed waker (if any) by reference; returns whether a
    /// waiter was actually woken.
    #[cold]
    fn wake(&self) -> bool {
        // WAITING -> WAKING claims read access to the cell; a failure
        // means either no armed waiter (EMPTY) or the parked side is
        // mid-registration (LOCKED) — and a registering waiter always
        // re-checks the queue after publishing WAITING, so skipping the
        // wake is safe.
        if self
            .state
            .compare_exchange(WAKER_WAITING, WAKER_WAKING, SeqCst, SeqCst)
            .is_err()
        {
            return false;
        }
        // Safety: WAKING keeps the parked side out of the cell; the
        // waker stays in place so the next round can re-arm it without a
        // clone.
        if let Some(waker) = unsafe { (*self.cell.get()).as_ref() } {
            // On a worker thread this lands the parked task in the waking
            // worker's LIFO slot — the scheduler's direct-handoff path —
            // rather than a shared queue.
            waker.wake_by_ref();
        }
        self.state.store(WAKER_EMPTY, SeqCst);
        true
    }

    /// Arms the handoff with `waker` and publishes `WAITING` followed by
    /// a `SeqCst` fence. `mirror` is the parked side's private copy of
    /// the cell's contents (the waking side never replaces them), letting
    /// a `will_wake` hit re-arm with a single `EMPTY -> WAITING` CAS —
    /// no clone, no cell access. Only a different waker (task migration)
    /// pays for the `LOCKED` replacement.
    fn register(
        &self,
        waker: &Waker,
        mirror: &mut Option<Waker>,
        stats: &telemetry::channel::LinkStats,
    ) {
        if mirror.as_ref().is_some_and(|armed| armed.will_wake(waker)) {
            loop {
                match self
                    .state
                    .compare_exchange(WAKER_EMPTY, WAKER_WAITING, SeqCst, SeqCst)
                {
                    Ok(_) => break,
                    // Still armed from a previous Pending poll.
                    Err(WAKER_WAITING) => break,
                    // Waking side mid-wake (of this very waker): wait out
                    // its short read-and-store section, then re-arm.
                    Err(_) => {
                        stats.record_waker_retry();
                        std::hint::spin_loop();
                    }
                }
            }
            fence(SeqCst);
            return;
        }
        loop {
            match self
                .state
                .compare_exchange(WAKER_EMPTY, WAKER_LOCKED, SeqCst, SeqCst)
            {
                Ok(_) => break,
                Err(WAKER_WAITING) => {
                    // A stale waker is still armed; disarm it so the cell
                    // can be replaced. A failure means the waking side
                    // just entered WAKING; keep looping.
                    if self
                        .state
                        .compare_exchange(WAKER_WAITING, WAKER_LOCKED, SeqCst, SeqCst)
                        .is_ok()
                    {
                        break;
                    }
                    stats.record_waker_retry();
                }
                // Waking side mid-wake: its critical section is a read
                // plus a store, so spin it out rather than losing this
                // waker.
                Err(_) => {
                    stats.record_waker_retry();
                    std::hint::spin_loop();
                }
            }
        }
        // Safety: LOCKED grants cell ownership.
        unsafe { *self.cell.get() = Some(waker.clone()) };
        *mirror = Some(waker.clone());
        self.state.store(WAKER_WAITING, SeqCst);
        fence(SeqCst);
    }

    /// Best-effort disarm after the awaited condition resolved anyway;
    /// the waker stays in the cell for cheap re-arming. Losing the race
    /// is fine: the waking side then delivers one spurious (self-)wake,
    /// which poll semantics permit.
    fn unregister(&self) {
        let _ = self
            .state
            .compare_exchange(WAKER_WAITING, WAKER_EMPTY, SeqCst, SeqCst);
    }
}

/// A fixed-capacity circular buffer plus the chain of buffers it replaced.
///
/// Slots are bare `MaybeUninit` cells: which logical indices hold live
/// values is tracked externally by `head`/`tail`.
struct Buffer<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Power-of-two capacity; `cap - 1` is the index mask.
    cap: usize,
    /// The buffer this one replaced, kept allocated (never read through)
    /// until the channel drops, so a consumer racing a growth still reads
    /// valid memory.
    retired: *mut Buffer<T>,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize, retired: *mut Buffer<T>) -> Box<Self> {
        debug_assert!(cap.is_power_of_two());
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        Box::new(Self {
            slots,
            cap,
            retired,
        })
    }

    fn slot(&self, index: usize) -> *mut MaybeUninit<T> {
        self.slots[index & (self.cap - 1)].get()
    }

    /// Frees `buffer` and every older buffer on its retired chain.
    ///
    /// Safety: no other thread may dereference any buffer in the chain.
    unsafe fn free_chain(mut buffer: *mut Buffer<T>) {
        while !buffer.is_null() {
            let boxed = unsafe { Box::from_raw(buffer) };
            buffer = boxed.retired;
        }
    }
}

/// State shared by the two endpoints.
struct Inner<T> {
    /// Consumer index: the next logical index to pop. Written only by the
    /// consumer (release), read by the producer (acquire) on the slow path.
    head: AtomicUsize,
    /// Producer index: one past the last published value. Written only by
    /// the producer (release), read by the consumer (acquire) on refresh.
    tail: AtomicUsize,
    /// The live ring buffer; retired predecessors hang off its chain.
    buffer: AtomicPtr<Buffer<T>>,
    /// Waker handoff for a consumer parked on an empty queue.
    rx_waiter: WakerCell,
    /// Cleared by `Sender::drop`; pushes happen-before via release/acquire.
    tx_alive: AtomicBool,
    /// Cleared by `Receiver::drop`; later sends fail fast.
    rx_alive: AtomicBool,
    /// Telemetry handle (a no-op ZST unless the link was created with a
    /// [`SpscConfig::label`] in a telemetry build).
    stats: telemetry::channel::LinkStats,
}

unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Sole remaining reference: indices are quiescent. Live values
        // exist exactly once in the *current* buffer (growth copies them
        // forward; stale bit-copies in retired buffers are never dropped).
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        let buffer = *self.buffer.get_mut();
        let current = unsafe { Box::from_raw(buffer) };
        for index in head..tail {
            unsafe { (*current.slot(index)).assume_init_drop() };
        }
        unsafe { Buffer::free_chain(current.retired) };
    }
}

/// Construction parameters for an SPSC ring: [`spsc`] is the default
/// shape, [`spsc_with`] takes the full set.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct SpscConfig {
    /// Role names registering the link with the telemetry layer (ignored
    /// in uninstrumented builds).
    pub label: Option<(&'static str, &'static str)>,
    /// The verified k-MC bound (messages in flight a correct execution
    /// can reach): the initial ring is sized to hold it, so a verified
    /// session never grows.
    pub bound_hint: Option<usize>,
}

/// Creates a lock-free SPSC channel. Neither endpoint is cloneable:
/// where several producers feed one consumer, give each its own ring.
pub fn spsc<T>() -> (SpscSender<T>, SpscReceiver<T>) {
    spsc_with(SpscConfig::default())
}

/// Creates an SPSC channel from the full [`SpscConfig`].
pub(super) fn spsc_with<T>(config: SpscConfig) -> (SpscSender<T>, SpscReceiver<T>) {
    let stats = match config.label {
        Some((from, to)) => telemetry::channel::register(from, to),
        None => telemetry::channel::LinkStats::default(),
    };
    let cap = config
        .bound_hint
        .map_or(MIN_CAP, |k| k.next_power_of_two().max(MIN_CAP));
    let buffer = Box::into_raw(Buffer::alloc(cap, ptr::null_mut()));
    let inner = Arc::new(Inner {
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        buffer: AtomicPtr::new(buffer),
        rx_waiter: WakerCell::new(),
        tx_alive: AtomicBool::new(true),
        rx_alive: AtomicBool::new(true),
        stats,
    });
    (
        SpscSender {
            inner: inner.clone(),
            buffer,
            cap,
            tail: 0,
            cached_head: 0,
        },
        SpscReceiver {
            inner,
            buffer,
            head: 0,
            cached_tail: 0,
            armed_waker: None,
        },
    )
}

/// Producer half of an SPSC channel. Not cloneable.
pub struct SpscSender<T> {
    inner: Arc<Inner<T>>,
    /// Producer's view of the live buffer; only the producer replaces it.
    buffer: *mut Buffer<T>,
    /// Slots in the live buffer: the in-flight count at which the ring
    /// grows.
    cap: usize,
    /// Mirror of `inner.tail` (only the producer advances it).
    tail: usize,
    /// Last observed `inner.head`; always <= the true head, so staleness
    /// only ever makes the full check conservative.
    cached_head: usize,
}

unsafe impl<T: Send> Send for SpscSender<T> {}

impl<T> SpscSender<T> {
    /// Publishes a message and hands the peer's waker to the scheduler if
    /// the peer is waiting. Never blocks: a full ring grows. Fails only
    /// when the receiver is gone.
    pub fn send(&mut self, value: T) -> Result<(), SendError<T>> {
        match self.try_reserve() {
            Some(slot) => {
                slot.write(value);
                Ok(())
            }
            None => Err(SendError(value)),
        }
    }

    /// Reserves the next ring slot, growing a full ring; `None` when the
    /// receiver is gone.
    fn try_reserve(&mut self) -> Option<SendSlot<'_, T>> {
        if !self.inner.rx_alive.load(Acquire) {
            return None;
        }
        if self.tail - self.cached_head >= self.cap {
            self.cached_head = self.inner.head.load(Acquire);
            if self.tail - self.cached_head >= self.cap {
                self.grow();
            }
        }
        Some(SendSlot { sender: self })
    }

    /// Reserves the next ring slot. Never returns `Pending` — a full
    /// ring grows — so `cx` is unused; the poll shape lets the session
    /// layer drive in-process and socket links alike. The returned
    /// [`SendSlot`] publishes the message on [`write`](SendSlot::write);
    /// dropping it instead abandons the reservation (nothing is
    /// published). Fails only when the receiver is gone.
    // Inlined into the session futures this cost `stream_amr` ≈ 10 %; see CHANGES.md.
    #[inline(never)]
    pub fn poll_reserve(
        &mut self,
        _cx: &mut Context<'_>,
    ) -> Poll<Result<SendSlot<'_, T>, SendError<()>>> {
        Poll::Ready(self.try_reserve().ok_or(SendError(())))
    }

    /// Publishes the value just written to slot `tail` (the commit half
    /// of reserve/commit): advances the producer index, records
    /// telemetry, and runs the Dekker handshake that wakes a parked
    /// consumer.
    fn commit(&mut self) {
        if telemetry::ENABLED {
            // Stamp before the tail publication: the matching receive
            // cannot observe this message earlier, so it always finds
            // the stamp already tagged.
            self.inner.stats.stamp_send();
        }
        self.tail += 1;
        self.inner.tail.store(self.tail, Release);

        if telemetry::ENABLED {
            // Occupancy immediately after publishing. The head read may
            // lag the consumer (making the depth an over-estimate of the
            // *instantaneous* queue), but a lagging head describes a
            // configuration that was legitimately reachable — the k-MC
            // bound covers every interleaving of pops, so `depth <= k`
            // must still hold and the watermark has no false positives.
            let depth = self.tail - self.inner.head.load(Relaxed);
            self.inner.stats.record_depth(depth as u64);
            self.inner.stats.record_send();
        }

        // Dekker handshake with `WakerCell::register`: order the tail
        // publication before the waker-state read, so either we observe
        // the waiter or the waiter's queue re-check observes our value.
        fence(SeqCst);
        if self.inner.rx_waiter.is_armed() && self.inner.rx_waiter.wake() {
            self.inner.stats.record_wake();
        }
    }

    /// Doubles the ring, copying the live range into the new buffer at
    /// unchanged logical indices, and retires the old buffer (the consumer
    /// may still be reading it). Producer only.
    #[cold]
    fn grow(&mut self) {
        self.inner.stats.record_grow();
        let old = self.buffer;
        let new = Buffer::alloc(self.cap * 2, old);
        for index in self.cached_head..self.tail {
            // A bit-copy, not a move: if the consumer pops index `i`
            // concurrently, it owns the value and the copy in the new
            // buffer is simply never read (nor dropped: `Inner::drop`
            // only drops `[head, tail)`).
            unsafe { ptr::copy_nonoverlapping((*old).slot(index), new.slot(index), 1) };
        }
        let new = Box::into_raw(new);
        self.inner.buffer.store(new, Release);
        self.buffer = new;
        self.cap *= 2;
    }
}

impl<T> Drop for SpscSender<T> {
    fn drop(&mut self) {
        self.inner.tx_alive.store(false, Release);
        // Same handshake as `commit`: the closure must not be missed by a
        // receiver that just went to sleep.
        fence(SeqCst);
        if self.inner.rx_waiter.is_armed() {
            self.inner.rx_waiter.wake();
        }
    }
}

/// A reserved ring slot: the reserve half of the producer's
/// reserve/commit protocol (see [`SpscSender::poll_reserve`]).
///
/// [`write`](Self::write) moves a value directly into the slot and
/// publishes it; dropping the reservation without writing publishes
/// nothing and leaves the channel untouched.
#[must_use = "a reserved slot publishes nothing until written"]
pub struct SendSlot<'a, T> {
    sender: &'a mut SpscSender<T>,
}

impl<T> SendSlot<'_, T> {
    /// Writes `value` into the reserved slot and publishes it (the commit
    /// half of reserve/commit). The value is moved exactly once, to its
    /// final address in the ring.
    pub fn write(self, value: T) {
        let sender = self.sender;
        // Safety: slot `tail` is outside the live range `[head, tail)`,
        // so the consumer is not reading it; the release store in
        // `commit` publishes the write.
        unsafe { ptr::write((*sender.buffer).slot(sender.tail), MaybeUninit::new(value)) };
        sender.commit();
    }
}

/// Consumer half of an SPSC channel. Not cloneable.
pub struct SpscReceiver<T> {
    inner: Arc<Inner<T>>,
    /// Consumer's view of the buffer: valid for indices `< cached_tail`
    /// (refreshed together with `cached_tail`, *after* it, so the buffer
    /// is at least as fresh as any growth covering those indices).
    buffer: *mut Buffer<T>,
    /// Mirror of `inner.head` (only the consumer advances it).
    head: usize,
    /// Last observed `inner.tail`.
    cached_tail: usize,
    /// Private mirror of `rx_waiter`'s cell (see [`WakerCell::register`]).
    armed_waker: Option<Waker>,
}

unsafe impl<T: Send> Send for SpscReceiver<T> {}

impl<T> SpscReceiver<T> {
    /// Non-blocking receive: pops the next message if one is published.
    pub fn try_recv(&mut self) -> Option<T> {
        if self.head == self.cached_tail && !self.refresh() {
            return None;
        }
        // Safety: `head < cached_tail`, so the slot holds a published
        // value the producer will not touch again, and `self.buffer` is
        // fresh enough to contain every index below `cached_tail`.
        let value = unsafe { ptr::read((*self.buffer).slot(self.head)).assume_init() };
        self.head += 1;
        // Release: the slot read above must complete before the producer
        // can observe the new head and reuse the slot.
        self.inner.head.store(self.head, Release);
        if telemetry::ENABLED {
            self.inner.stats.stamp_recv();
        }
        Some(value)
    }

    /// Pops up to `window` published messages into `out`, publishing the
    /// consumer index — the cache-line handoff that lets the producer
    /// reuse slots — exactly **once** for the whole batch. Returns the number popped (0 when the queue
    /// is empty). A `window` of 0 is treated as 1.
    pub(super) fn try_recv_batch(&mut self, window: usize, out: &mut VecDeque<T>) -> usize {
        if self.head == self.cached_tail && !self.refresh() {
            return 0;
        }
        let n = window.max(1).min(self.cached_tail - self.head);
        // Grow `out` first: the pushes below must not allocate (the only
        // way they could panic), or values already popped off the ring —
        // but not yet re-owned by `out` — would leak or double-drop when
        // the channel drops.
        out.reserve(n);
        for _ in 0..n {
            // Safety: as in `try_recv`; every index below `cached_tail`
            // is published and lives in `self.buffer`.
            let value = unsafe { ptr::read((*self.buffer).slot(self.head)).assume_init() };
            out.push_back(value);
            self.head += 1;
        }
        // One release store for the whole window: all slot reads above
        // complete before the producer can observe the new head.
        self.inner.head.store(self.head, Release);
        self.inner.stats.record_batch(n as u64);
        if telemetry::ENABLED {
            self.inner.stats.stamp_recv_batch(n as u64);
        }
        n
    }

    /// Awaits the next message; resolves to `None` once the sender is gone
    /// and the queue is drained.
    pub fn recv(&mut self) -> SpscRecv<'_, T> {
        SpscRecv { receiver: self }
    }

    /// Poll-based receive for hand-written futures: `Ready(None)` once the
    /// sender is gone and the queue is drained. Lock-free in every state.
    pub fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<Option<T>> {
        if let Some(value) = self.try_recv() {
            return Poll::Ready(Some(value));
        }
        self.register(cx.waker());
        // Dekker handshake with the producer's `commit`/`drop` (see
        // `register`): re-check both the queue and the closed flag now
        // that WAITING is published, so a concurrent publication cannot
        // slip between our first check and the registration.
        if let Some(value) = self.try_recv() {
            self.unregister();
            return Poll::Ready(Some(value));
        }
        if !self.inner.tx_alive.load(Acquire) {
            // The closure store is release-ordered after the final tail
            // store, so one more pop attempt observes any last messages.
            let value = self.try_recv();
            self.unregister();
            return Poll::Ready(value);
        }
        Poll::Pending
    }

    /// Poll-based batch receive: `Ready(n)` once `n >= 1` messages were
    /// drained into `out`, `Ready(0)` once the sender is gone and the
    /// queue is empty.
    pub(super) fn poll_recv_batch(
        &mut self,
        cx: &mut Context<'_>,
        window: usize,
        out: &mut VecDeque<T>,
    ) -> Poll<usize> {
        let n = self.try_recv_batch(window, out);
        if n > 0 {
            return Poll::Ready(n);
        }
        self.register(cx.waker());
        let n = self.try_recv_batch(window, out);
        if n > 0 {
            self.unregister();
            return Poll::Ready(n);
        }
        if !self.inner.tx_alive.load(Acquire) {
            let n = self.try_recv_batch(window, out);
            self.unregister();
            return Poll::Ready(n);
        }
        Poll::Pending
    }

    /// Number of messages currently queued (a racy snapshot).
    pub fn len(&self) -> usize {
        self.inner
            .tail
            .load(Acquire)
            .saturating_sub(self.inner.head.load(Relaxed))
    }

    /// True when no messages are queued (a racy snapshot).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Refreshes the cached tail (and, when it moved, the buffer
    /// pointer); returns whether any message is now visible.
    #[inline]
    fn refresh(&mut self) -> bool {
        self.cached_tail = self.inner.tail.load(Acquire);
        if self.head == self.cached_tail {
            return false;
        }
        // Reload *after* tail: seeing tail = t (acquire) makes every
        // producer write before that store visible, including any
        // buffer replacement covering indices < t.
        self.buffer = self.inner.buffer.load(Acquire);
        true
    }

    /// Arms the receive-side handoff with `waker` (see
    /// [`WakerCell::register`]).
    fn register(&mut self, waker: &Waker) {
        let inner = &*self.inner;
        inner
            .rx_waiter
            .register(waker, &mut self.armed_waker, &inner.stats);
    }

    /// Best-effort disarm after a late value was found.
    fn unregister(&mut self) {
        self.inner.rx_waiter.unregister();
    }
}

impl<T> Drop for SpscReceiver<T> {
    fn drop(&mut self) {
        // Later sends fail fast; a send racing this store may still land
        // in the queue, where `Inner::drop` reclaims it.
        self.inner.rx_alive.store(false, Release);
    }
}

/// Future returned by [`SpscReceiver::recv`].
#[must_use = "futures do nothing unless awaited"]
pub struct SpscRecv<'a, T> {
    receiver: &'a mut SpscReceiver<T>,
}

impl<T> Future for SpscRecv<'_, T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.get_mut().receiver.poll_recv(cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved_across_growth() {
        let (mut tx, mut rx) = spsc();
        for i in 0..(MIN_CAP * 8) {
            tx.send(i).unwrap();
        }
        for i in 0..(MIN_CAP * 8) {
            assert_eq!(rx.try_recv(), Some(i));
        }
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn wraparound_reuses_slots() {
        let (mut tx, mut rx) = spsc();
        for lap in 0..100u32 {
            for i in 0..(MIN_CAP as u32 - 1) {
                tx.send(lap * 1000 + i).unwrap();
            }
            for i in 0..(MIN_CAP as u32 - 1) {
                assert_eq!(rx.try_recv(), Some(lap * 1000 + i));
            }
        }
    }

    #[test]
    fn recv_none_after_sender_drop() {
        let (mut tx, mut rx) = spsc::<u8>();
        tx.send(1).unwrap();
        drop(tx);
        crate::block_on(async {
            assert_eq!(rx.recv().await, Some(1));
            assert_eq!(rx.recv().await, None);
        });
    }

    #[test]
    fn send_fails_when_receiver_dropped() {
        let (mut tx, rx) = spsc::<u8>();
        drop(rx);
        assert!(matches!(tx.send(1), Err(SendError(1))));
    }

    #[test]
    fn cross_task_wakeup() {
        let rt = crate::Runtime::new(2);
        let (mut tx, mut rx) = spsc::<u32>();
        let consumer = rt.spawn(async move {
            let mut sum = 0;
            while let Some(v) = rx.recv().await {
                sum += v;
            }
            sum
        });
        let producer = rt.spawn(async move {
            for i in 1..=10 {
                tx.send(i).unwrap();
                crate::yield_now().await;
            }
        });
        rt.block_on(producer).unwrap();
        assert_eq!(rt.block_on(consumer).unwrap(), 55);
    }

    #[test]
    fn queued_values_dropped_exactly_once() {
        let value = Arc::new(());
        let (mut tx, mut rx) = spsc();
        for _ in 0..(MIN_CAP * 3) {
            tx.send(value.clone()).unwrap();
        }
        // Pop a few across the growth boundary, then drop the channel
        // with values still queued.
        for _ in 0..5 {
            assert!(rx.try_recv().is_some());
        }
        assert_eq!(Arc::strong_count(&value), 1 + MIN_CAP * 3 - 5);
        drop((tx, rx));
        assert_eq!(Arc::strong_count(&value), 1);
    }

    #[test]
    fn labelled_channel_reports_watermark_and_growth() {
        let (mut tx, mut rx) = spsc_with::<u32>(SpscConfig {
            label: Some(("SpscFrom", "SpscTo")),
            ..SpscConfig::default()
        });
        for i in 0..(MIN_CAP as u32 * 2) {
            tx.send(i).unwrap();
        }
        for i in 0..(MIN_CAP as u32 * 2) {
            assert_eq!(rx.try_recv(), Some(i));
        }
        let links = telemetry::channel::snapshot();
        if telemetry::ENABLED {
            let link = links
                .iter()
                .find(|l| l.from == "SpscFrom" && l.to == "SpscTo")
                .expect("labelled link registered");
            assert_eq!(link.high_watermark, MIN_CAP as u64 * 2);
            assert!(link.grows >= 1);
            assert_eq!(link.sends, MIN_CAP as u64 * 2);
        } else {
            assert!(links.is_empty());
        }
    }

    #[test]
    fn len_tracks_pending() {
        let (mut tx, mut rx) = spsc();
        assert!(rx.is_empty());
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        rx.try_recv();
        assert_eq!(rx.len(), 1);
    }

    #[test]
    fn reserve_commit_publishes_only_on_write() {
        let (mut tx, mut rx) = spsc::<u32>();
        // An abandoned reservation publishes nothing.
        let slot = tx.try_reserve().unwrap();
        drop(slot);
        assert_eq!(rx.try_recv(), None);
        tx.try_reserve().unwrap().write(7);
        assert_eq!(rx.try_recv(), Some(7));
    }

    #[test]
    fn batch_recv_drains_in_order() {
        let (mut tx, mut rx) = spsc::<u32>();
        for i in 0..50 {
            tx.send(i).unwrap();
        }
        let mut out = VecDeque::new();
        assert_eq!(rx.try_recv_batch(8, &mut out), 8);
        assert_eq!(rx.try_recv_batch(64, &mut out), 42);
        assert_eq!(rx.try_recv_batch(8, &mut out), 0);
        assert_eq!(out.len(), 50);
        for i in 0..50 {
            assert_eq!(out.pop_front(), Some(i));
        }
    }

    #[test]
    fn batch_recv_future_resolves_zero_after_close() {
        let (mut tx, mut rx) = spsc::<u32>();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        crate::block_on(async {
            let mut out = VecDeque::new();
            for drained in [2, 0] {
                let n = std::future::poll_fn(|cx| rx.poll_recv_batch(cx, 16, &mut out)).await;
                assert_eq!(n, drained);
            }
            assert_eq!(out, VecDeque::from([1, 2]));
        });
    }

    #[test]
    fn bound_hint_sizes_the_initial_ring() {
        let (tx, _rx) = spsc_with::<u32>(SpscConfig {
            bound_hint: Some(100),
            ..SpscConfig::default()
        });
        assert_eq!(tx.cap, 128);
    }
}
