//! Pooled payload buffers for zero-allocation steady-state sessions.
//!
//! A long-lived streaming session that ships byte payloads allocates a
//! fresh buffer per message on the naive path — O(messages) allocator
//! traffic for a protocol whose verified k-MC bound proves only k
//! buffers can ever be in flight. [`BufferPool`] is the arena that cashes
//! that bound in: a fixed ring of k + 1 recycling slots owned by the
//! session link. The producer takes a [`PooledBuf`], writes the payload
//! and sends it through the ring like any other value (the buffer's heap
//! storage never moves — the message carries a pointer-sized handle);
//! when the consumer drops the handle the storage slides back into the
//! pool for the next message. In steady state the session allocates
//! O(k) buffers *total*, and the `pool_hits`/`pool_misses` telemetry
//! counters prove it: after warm-up every take is a hit, because the
//! k-MC bound says at most k buffers are ever simultaneously checked
//! out.
//!
//! The pool is lock-free: each slot is a three-state atomic
//! (`EMPTY`/`FULL`/`BUSY`) guarding its buffer cell, claimed by CAS from
//! either side. Takes and returns may race arbitrarily (producer and
//! consumer run on different workers); a return that finds every slot
//! occupied simply frees the buffer, so the pool retains at most its
//! configured capacity of idle buffers.

use std::cell::UnsafeCell;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicU8, AtomicUsize};
use std::sync::Arc;

use dep_telemetry as telemetry;

/// No buffer parked in the slot.
const SLOT_EMPTY: u8 = 0;
/// A recycled buffer is parked in the slot.
const SLOT_FULL: u8 = 1;
/// A thread is moving a buffer in or out; everyone else skips the slot.
const SLOT_BUSY: u8 = 2;

struct Shared {
    /// Per-slot state machines guarding `buffers`.
    states: Box<[AtomicU8]>,
    /// Parked buffers; slot `i` is initialised exactly when `states[i]`
    /// is `FULL` (or mid-transition under `BUSY` by the transitioning
    /// thread).
    buffers: Box<[UnsafeCell<MaybeUninit<Vec<u8>>>]>,
    /// Byte capacity a pool-miss allocation starts with.
    default_capacity: usize,
    /// Slot index just past the last successful take. Takes and puts
    /// each advance their own hint, so in steady state the slot array
    /// behaves as a ring and both operations are O(1): without the
    /// hints, bursty drop patterns (a batch-received window dropped
    /// back-to-back) degrade every scan to O(slots) *locked* RMWs as
    /// each put re-probes the slots its predecessors just filled.
    take_hint: AtomicUsize,
    /// Slot index just past the last successful put (see `take_hint`).
    put_hint: AtomicUsize,
    /// Hit/miss counters, shared with the owning link's telemetry cell.
    stats: telemetry::channel::LinkStats,
}

// Safety: the buffer cells are only touched under an exclusive BUSY
// claim on the corresponding state machine.
unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

impl Drop for Shared {
    fn drop(&mut self) {
        for (state, buffer) in self.states.iter().zip(self.buffers.iter()) {
            // Sole reference: no transition can be in flight.
            if state.load(Relaxed) == SLOT_FULL {
                unsafe { (*buffer.get()).assume_init_drop() };
            }
        }
    }
}

/// A lock-free arena of reusable byte buffers (see the module docs).
///
/// Cloning shares the arena: the usual shape is one clone on each side
/// of a session link, producer taking and consumer (implicitly, by
/// dropping [`PooledBuf`]s) returning.
#[derive(Clone)]
pub struct BufferPool {
    shared: Arc<Shared>,
}

impl BufferPool {
    /// Creates a pool retaining up to `slots` idle buffers, each starting
    /// at `default_capacity` bytes when freshly allocated. Size `slots`
    /// from the link's k-MC bound (k in-flight plus one in hand).
    pub fn new(slots: usize, default_capacity: usize) -> Self {
        Self::with_stats(slots, default_capacity, Default::default())
    }

    /// Like [`new`](Self::new), with hits and misses recorded on the
    /// given link's telemetry cell.
    pub fn with_stats(
        slots: usize,
        default_capacity: usize,
        stats: telemetry::channel::LinkStats,
    ) -> Self {
        let slots = slots.max(1);
        Self {
            shared: Arc::new(Shared {
                states: (0..slots).map(|_| AtomicU8::new(SLOT_EMPTY)).collect(),
                buffers: (0..slots)
                    .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                    .collect(),
                default_capacity,
                take_hint: AtomicUsize::new(0),
                put_hint: AtomicUsize::new(0),
                stats,
            }),
        }
    }

    /// Takes a cleared buffer — recycled if one is parked (a *pool hit*,
    /// no allocator traffic), freshly allocated otherwise (a *pool
    /// miss*). The buffer returns to the pool when the [`PooledBuf`] is
    /// dropped, from whichever thread drops it.
    pub fn take(&self) -> PooledBuf {
        let shared = &*self.shared;
        let slots = shared.states.len();
        let start = shared.take_hint.load(Relaxed);
        for probe in 0..slots {
            let index = (start + probe) % slots;
            let state = &shared.states[index];
            // Screen with a plain load: a locked RMW on every probed
            // slot would make scans past empty slots painfully hot.
            if state.load(Relaxed) != SLOT_FULL {
                continue;
            }
            if state
                .compare_exchange(SLOT_FULL, SLOT_BUSY, Acquire, Relaxed)
                .is_ok()
            {
                // Safety: BUSY grants exclusive cell access, and FULL
                // guaranteed the cell was initialised.
                let mut buffer = unsafe { (*shared.buffers[index].get()).assume_init_read() };
                state.store(SLOT_EMPTY, Release);
                shared.take_hint.store((index + 1) % slots, Relaxed);
                buffer.clear();
                shared.stats.record_pool_hit();
                return PooledBuf {
                    buffer: ManuallyDrop::new(buffer),
                    pool: Arc::clone(&self.shared),
                };
            }
        }
        shared.stats.record_pool_miss();
        PooledBuf {
            buffer: ManuallyDrop::new(Vec::with_capacity(shared.default_capacity)),
            pool: Arc::clone(&self.shared),
        }
    }

    /// Number of idle buffers currently parked (a racy snapshot).
    pub fn idle(&self) -> usize {
        self.shared
            .states
            .iter()
            .filter(|state| state.load(Relaxed) == SLOT_FULL)
            .count()
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("slots", &self.shared.states.len())
            .field("idle", &self.idle())
            .finish()
    }
}

impl Shared {
    /// Parks `buffer` in the first free slot, or frees it when every
    /// slot is occupied (the pool never retains more than its capacity).
    fn put(&self, buffer: Vec<u8>) {
        let slots = self.states.len();
        let start = self.put_hint.load(Relaxed);
        for probe in 0..slots {
            let index = (start + probe) % slots;
            let state = &self.states[index];
            // Plain-load screen, as in `take`.
            if state.load(Relaxed) != SLOT_EMPTY {
                continue;
            }
            if state
                .compare_exchange(SLOT_EMPTY, SLOT_BUSY, Acquire, Relaxed)
                .is_ok()
            {
                // Safety: BUSY grants exclusive cell access; EMPTY
                // guaranteed the cell holds no live buffer to overwrite.
                unsafe { (*self.buffers[index].get()).write(buffer) };
                state.store(SLOT_FULL, Release);
                self.put_hint.store((index + 1) % slots, Relaxed);
                return;
            }
        }
        drop(buffer);
    }
}

/// A byte buffer checked out of a [`BufferPool`]; behaves as a
/// `Vec<u8>` and slides back into the pool on drop.
pub struct PooledBuf {
    buffer: ManuallyDrop<Vec<u8>>,
    pool: Arc<Shared>,
}

impl PooledBuf {
    /// Detaches the buffer from the pool: the `Vec` is returned as an
    /// ordinary owned value and will *not* be recycled.
    pub fn detach(self) -> Vec<u8> {
        let mut this = ManuallyDrop::new(self);
        // Safety: `Drop::drop` never runs on a `ManuallyDrop`ed handle,
        // so both fields are moved/dropped exactly once, here.
        let buffer = unsafe { ManuallyDrop::take(&mut this.buffer) };
        unsafe { std::ptr::drop_in_place(&mut this.pool) };
        buffer
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        // Safety: drop runs once; `buffer` is never used afterwards.
        let buffer = unsafe { ManuallyDrop::take(&mut self.buffer) };
        self.pool.put(buffer);
    }
}

impl Deref for PooledBuf {
    type Target = Vec<u8>;

    fn deref(&self) -> &Vec<u8> {
        &self.buffer
    }
}

impl DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut Vec<u8> {
        &mut self.buffer
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        &self.buffer
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.buffer.len())
            .field("capacity", &self.buffer.capacity())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_recycle_through_the_pool() {
        let pool = BufferPool::new(2, 64);
        let mut a = pool.take();
        a.extend_from_slice(b"hello");
        let a_ptr = a.as_ptr();
        drop(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.take();
        // Same storage, cleared.
        assert_eq!(b.as_ptr(), a_ptr);
        assert!(b.is_empty());
        assert!(b.capacity() >= 64);
    }

    #[test]
    fn excess_returns_are_freed_not_hoarded() {
        let pool = BufferPool::new(2, 16);
        let bufs: Vec<_> = (0..5).map(|_| pool.take()).collect();
        drop(bufs);
        assert_eq!(pool.idle(), 2);
    }

    #[test]
    fn detach_removes_buffer_from_circulation() {
        let pool = BufferPool::new(2, 16);
        let mut buf = pool.take();
        buf.push(42);
        let vec = buf.detach();
        assert_eq!(vec, vec![42]);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn steady_state_is_all_hits() {
        let stats = telemetry::channel::register("PoolFrom", "PoolTo");
        let pool = BufferPool::with_stats(2, 1024, stats);
        // Warm-up: the first takes miss.
        for _ in 0..10 {
            let mut buf = pool.take();
            buf.extend_from_slice(&[0u8; 512]);
        }
        if telemetry::ENABLED {
            let links = telemetry::channel::snapshot();
            let link = links.iter().find(|l| l.from == "PoolFrom").unwrap();
            // One cold miss, then reuse: the k-MC working set is 1.
            assert_eq!(link.pool_misses, 1);
            assert_eq!(link.pool_hits, 9);
        }
    }

    #[test]
    fn cross_thread_recycling() {
        let pool = BufferPool::new(4, 64);
        let (mut tx, mut rx) = crate::channel::spsc::<PooledBuf>();
        let producer_pool = pool.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..1000u32 {
                let mut buf = producer_pool.take();
                buf.extend_from_slice(&i.to_le_bytes());
                tx.send(buf).unwrap();
            }
        });
        let mut received = 0u32;
        while received < 1000 {
            if let Some(buf) = rx.try_recv() {
                assert_eq!(buf.as_ref(), received.to_le_bytes());
                received += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert!(pool.idle() <= 4);
    }
}
