//! Single-value channel, implemented as a small atomic state machine —
//! no mutex anywhere, consistent with the lock-free [`spsc`](super::spsc)
//! data plane. This is the runtime's only single-value rendezvous: a
//! [`JoinHandle`](crate::JoinHandle) is the receiving half of one.
//!
//! The whole channel is one `AtomicU8` plus two cells (value, waker)
//! whose ownership the state machine arbitrates:
//!
//! ```text
//!            rx registering                rx registered
//! EMPTY ---------------------> LOCKED ---------------------> WAITING
//!   |                             |                             |
//!   | tx send / drop  (swap)      | tx send / drop (swap;      | tx send / drop
//!   v                             v  rx detects on its CAS)    v  (swap, takes waker,
//! VALUE / CLOSED                VALUE / CLOSED               VALUE / CLOSED + wake)
//! ```
//!
//! The sender performs exactly one unconditional `swap` to `VALUE` (after
//! writing the value cell) or `CLOSED`; whatever state it displaces tells
//! it whether a waker must be woken. The receiver only ever moves between
//! `EMPTY`/`LOCKED`/`WAITING` with CASes, so a failed CAS is precisely the
//! signal that the sender has resolved the channel.

use std::cell::UnsafeCell;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::AtomicU8;
use std::sync::atomic::Ordering::{AcqRel, Acquire, Release};
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// No value, no registered waker.
const EMPTY: u8 = 0;
/// The receiver is writing the waker cell.
const LOCKED: u8 = 1;
/// The waker cell holds a registered waker.
const WAITING: u8 = 2;
/// The value cell holds the sent value.
const VALUE: u8 = 3;
/// The sender was dropped without sending.
const CLOSED: u8 = 4;
/// The receiver has taken the value.
const TAKEN: u8 = 5;

struct Inner<T> {
    state: AtomicU8,
    /// Written by the sender before the `VALUE` swap; read by the receiver
    /// after observing `VALUE`.
    value: UnsafeCell<Option<T>>,
    /// Written by the receiver under `LOCKED`; claimed by the sender's
    /// swap out of `WAITING`.
    waker: UnsafeCell<Option<Waker>>,
}

// Both cells are handed between the two threads via the acquire/release
// transitions of `state`, never accessed concurrently.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

/// Creates a channel carrying exactly one value.
pub fn oneshot<T>() -> (OneshotSender<T>, OneshotReceiver<T>) {
    let inner = Arc::new(Inner {
        state: AtomicU8::new(EMPTY),
        value: UnsafeCell::new(None),
        waker: UnsafeCell::new(None),
    });
    (
        OneshotSender {
            inner: inner.clone(),
        },
        OneshotReceiver { inner },
    )
}

/// Producer half; consumed by [`OneshotSender::send`].
pub struct OneshotSender<T> {
    inner: Arc<Inner<T>>,
}

impl<T> OneshotSender<T> {
    /// Delivers the value, waking a waiting receiver.
    pub fn send(self, value: T) {
        // Move the Arc out without running Drop (which would overwrite
        // VALUE with CLOSED); the reference itself still drops normally.
        // Safety: `self` is forgotten immediately after the read.
        let inner = unsafe { std::ptr::read(&self.inner) };
        std::mem::forget(self);

        // Safety: until the swap below, EMPTY/LOCKED/WAITING are the only
        // reachable states and none of them lets the receiver touch the
        // value cell.
        unsafe { *inner.value.get() = Some(value) };
        // Displacing WAITING claims the waker cell. The other states need
        // no wake: EMPTY has no waiter, and a LOCKED receiver is
        // mid-registration — its completing CAS fails against VALUE, at
        // which point it reads the value itself.
        if inner.state.swap(VALUE, AcqRel) == WAITING {
            if let Some(waker) = unsafe { (*inner.waker.get()).take() } {
                waker.wake();
            }
        }
    }
}

impl<T> Drop for OneshotSender<T> {
    fn drop(&mut self) {
        if self.inner.state.swap(CLOSED, AcqRel) == WAITING {
            if let Some(waker) = unsafe { (*self.inner.waker.get()).take() } {
                waker.wake();
            }
        }
    }
}

/// Consumer half; a future resolving to the sent value, or `None` if the
/// sender was dropped without sending.
#[must_use = "futures do nothing unless awaited"]
pub struct OneshotReceiver<T> {
    inner: Arc<Inner<T>>,
}

impl<T> OneshotReceiver<T> {
    /// Takes the delivered value after observing `VALUE`.
    fn take_value(&self) -> Option<T> {
        // Safety: VALUE (observed with acquire) hands the value cell to
        // the receiver; TAKEN keeps the cell from being revisited.
        let value = unsafe { (*self.inner.value.get()).take() };
        self.inner.state.store(TAKEN, Release);
        value
    }
}

impl<T> Future for OneshotReceiver<T> {
    type Output = Option<T>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let inner = &*self.inner;
        loop {
            match inner.state.load(Acquire) {
                VALUE => return Poll::Ready(self.take_value()),
                CLOSED | TAKEN => return Poll::Ready(None),
                WAITING => {
                    // Stale waker from an earlier poll: reclaim the cell,
                    // then re-register through the EMPTY path. Either CAS
                    // can lose to the sender's unconditional swap — a
                    // plain store here would clobber VALUE/CLOSED and
                    // strand the channel — so on failure loop back to
                    // read the terminal state.
                    if inner
                        .state
                        .compare_exchange(WAITING, LOCKED, AcqRel, Acquire)
                        .is_ok()
                    {
                        // Safety: LOCKED grants cell ownership.
                        unsafe { (*inner.waker.get()).take() };
                        let _ = inner.state.compare_exchange(LOCKED, EMPTY, AcqRel, Acquire);
                    }
                }
                EMPTY => {
                    if inner
                        .state
                        .compare_exchange(EMPTY, LOCKED, AcqRel, Acquire)
                        .is_err()
                    {
                        // Sender resolved it under us; re-read.
                        continue;
                    }
                    // Safety: LOCKED grants cell ownership.
                    unsafe { *inner.waker.get() = Some(cx.waker().clone()) };
                    match inner
                        .state
                        .compare_exchange(LOCKED, WAITING, AcqRel, Acquire)
                    {
                        Ok(_) => return Poll::Pending,
                        // The sender's swap displaced LOCKED: it did not
                        // touch the waker cell (we still own it), so clean
                        // up and read the terminal state.
                        Err(_) => {
                            let state = inner.state.load(Acquire);
                            // Safety: the sender never takes the cell out
                            // of a displaced LOCKED.
                            unsafe { (*inner.waker.get()).take() };
                            return match state {
                                VALUE => Poll::Ready(self.take_value()),
                                _ => Poll::Ready(None),
                            };
                        }
                    }
                }
                state => unreachable!("invalid oneshot state {state}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_value() {
        let (tx, rx) = oneshot::<&str>();
        tx.send("hi");
        assert_eq!(crate::block_on(rx), Some("hi"));
    }

    #[test]
    fn dropped_sender_yields_none() {
        let (tx, rx) = oneshot::<u8>();
        drop(tx);
        assert_eq!(crate::block_on(rx), None);
    }

    #[test]
    fn cross_task() {
        let rt = crate::Runtime::new(2);
        let (tx, rx) = oneshot::<u64>();
        rt.spawn(async move { tx.send(123) });
        assert_eq!(rt.block_on(rx), Some(123));
    }

    #[test]
    fn unsent_value_dropped_with_channel() {
        let value = Arc::new(());
        let (tx, rx) = oneshot();
        tx.send(value.clone());
        assert_eq!(Arc::strong_count(&value), 2);
        drop(rx);
        assert_eq!(Arc::strong_count(&value), 1);
    }

    #[test]
    fn repolled_receiver_races_sender_swap() {
        // Busy re-polling makes every poll walk the WAITING-reclaim path
        // (CAS to LOCKED, take stale waker, release back to EMPTY) while
        // the sender's unconditional swap lands at an arbitrary point in
        // that window. A lost VALUE/CLOSED here shows up as a permanent
        // Pending, i.e. a hang.
        use std::task::{Context, Poll, Wake, Waker};
        struct Noop;
        impl Wake for Noop {
            fn wake(self: Arc<Self>) {}
        }
        let waker = Waker::from(Arc::new(Noop));
        for i in 0..500u64 {
            let (tx, rx) = oneshot::<u64>();
            let sender = std::thread::spawn(move || {
                for _ in 0..(i % 5) {
                    std::thread::yield_now();
                }
                tx.send(i);
            });
            let mut cx = Context::from_waker(&waker);
            let mut rx = std::pin::pin!(rx);
            let got = loop {
                match rx.as_mut().poll(&mut cx) {
                    Poll::Ready(value) => break value,
                    Poll::Pending => std::hint::spin_loop(),
                }
            };
            assert_eq!(got, Some(i), "iteration {i}");
            sender.join().unwrap();
        }
    }

    #[test]
    fn registered_then_resolved_across_threads() {
        // Hammer the register/send race: the receiver parks via block_on
        // while the sender fires from another thread at a random-ish
        // moment.
        for i in 0..200u64 {
            let (tx, rx) = oneshot::<u64>();
            let sender = std::thread::spawn(move || {
                for _ in 0..(i % 7) {
                    std::thread::yield_now();
                }
                tx.send(i);
            });
            assert_eq!(crate::block_on(rx), Some(i));
            sender.join().unwrap();
        }
    }
}
