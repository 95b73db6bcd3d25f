//! Parking a thread: the one parker behind runtime workers and
//! [`block_on`].

use std::future::Future;
use std::pin::pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

const EMPTY: usize = 0;
const PARKED: usize = 1;
/// Parked in `epoll_wait`, holding the I/O driver baton ([`crate::io`]).
const DRIVING: usize = 2;
const NOTIFIED: usize = 3;

/// A four-state atomic plus the owning thread's handle. `unpark` is
/// wait-free and absorbs a wake that arrives before the thread parks;
/// `park` blocks on `std::thread::park`, or in `epoll_wait` when the
/// thread takes the I/O driver baton.
pub(crate) struct Parker {
    state: AtomicUsize,
    /// Set once by the owning thread before it first parks.
    thread: OnceLock<Thread>,
    /// A runtime worker's parker rather than a `block_on` caller's; the
    /// two follow different rules for the baton.
    pub(crate) worker: bool,
}

/// How one [`Parker::park`] went.
#[derive(Clone, Copy, Default)]
pub(crate) struct Parked {
    /// The park was spent in `epoll_wait`, holding the baton.
    pub(crate) drove: bool,
    /// Readiness edges were dispatched before `park` returned.
    pub(crate) dispatched: bool,
}

impl Parker {
    pub(crate) fn new(worker: bool) -> Self {
        Self {
            state: AtomicUsize::new(EMPTY),
            thread: OnceLock::new(),
            worker,
        }
    }

    /// Binds the parker to the calling thread, which alone may `park`.
    pub(crate) fn bind(&self) {
        self.thread
            .set(std::thread::current())
            .expect("parker bound twice");
    }

    /// Blocks until notified. Consumes at most one notification;
    /// spurious returns are allowed (the caller re-checks). While no
    /// descriptor is registered this is a plain thread park after one
    /// atomic load.
    pub(crate) fn park(self: &Arc<Self>) -> Parked {
        if self
            .state
            .compare_exchange(EMPTY, PARKED, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            // A notification already arrived.
            self.state.store(EMPTY, Ordering::SeqCst);
            return Parked::default();
        }
        #[cfg(target_os = "linux")]
        if crate::io::registered() {
            let parked = match crate::io::drive(self) {
                Some(parked) => parked,
                None => {
                    self.sleep();
                    crate::io::stop_waiting(self);
                    Parked::default()
                }
            };
            self.state.store(EMPTY, Ordering::SeqCst);
            return parked;
        }
        self.sleep();
        self.state.store(EMPTY, Ordering::SeqCst);
        Parked::default()
    }

    /// The thread-park half of [`park`](Self::park), entered `PARKED`.
    fn sleep(&self) {
        while self.state.load(Ordering::SeqCst) != NOTIFIED {
            std::thread::park();
        }
    }

    /// Moves a parked thread into `epoll_wait`; false if a notification
    /// arrived first, in which case the thread must not wait at all.
    #[cfg(target_os = "linux")]
    pub(crate) fn start_driving(&self) -> bool {
        self.state
            .compare_exchange(PARKED, DRIVING, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// The driver is awake: from here on a wake needs neither an unpark
    /// nor an interrupt, and is consumed by `park` returning.
    #[cfg(target_os = "linux")]
    pub(crate) fn stop_driving(&self) {
        self.state.store(EMPTY, Ordering::SeqCst);
    }

    /// True while the owner is parked plainly (not in `epoll_wait`).
    #[cfg(target_os = "linux")]
    pub(crate) fn is_parked(&self) -> bool {
        self.state.load(Ordering::SeqCst) == PARKED
    }

    /// True while the owner waits in `epoll_wait`.
    pub(crate) fn is_driving(&self) -> bool {
        self.state.load(Ordering::Relaxed) == DRIVING
    }

    /// Wakes the owning thread if it is (or is about to start) parking.
    pub(crate) fn unpark(&self) {
        match self.state.swap(NOTIFIED, Ordering::SeqCst) {
            PARKED => {
                if let Some(thread) = self.thread.get() {
                    thread.unpark();
                }
            }
            #[cfg(target_os = "linux")]
            DRIVING => crate::io::interrupt(),
            _ => {}
        }
    }
}

impl Wake for Parker {
    fn wake(self: Arc<Self>) {
        self.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.unpark();
    }
}

/// Runs a future to completion on the current thread, parking it between
/// polls. Starts no threads and needs no [`Runtime`](crate::Runtime):
/// tasks the future awaits run wherever they were spawned, and while no
/// runtime worker is alive the calling thread collects socket readiness
/// itself ([`io`](crate::io)).
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = pin!(future);
    let parker = Arc::new(Parker::new(false));
    parker.bind();
    let waker = Waker::from(parker.clone());
    let mut cx = Context::from_waker(&waker);

    loop {
        if let Poll::Ready(output) = future.as_mut().poll(&mut cx) {
            #[cfg(target_os = "linux")]
            crate::io::leaving();
            return output;
        }
        // A wake between poll and park is absorbed by the parker's state.
        parker.park();
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn block_on_ready_future() {
        assert_eq!(super::block_on(async { 7 }), 7);
    }

    #[test]
    fn block_on_crossthread_wake() {
        let (mut tx, mut rx) = crate::channel::spsc::<u32>();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(10));
            tx.send(99).unwrap();
        });
        assert_eq!(super::block_on(rx.recv()), Some(99));
        sender.join().unwrap();
    }
}
