//! Blocking a synchronous thread on a single future.

use std::future::Future;
use std::pin::pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

/// Waker that unparks a specific OS thread, with an `notified` flag to
/// absorb wakes that arrive before the thread parks (avoiding lost wakeups).
struct ThreadWaker {
    thread: Thread,
    notified: AtomicBool,
}

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if !self.notified.swap(true, Ordering::SeqCst) {
            self.thread.unpark();
        }
    }
}

/// Runs a future to completion on the current thread, parking it between
/// polls. Starts no threads and needs no [`Runtime`](crate::Runtime):
/// tasks the future awaits run wherever they were spawned.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = pin!(future);
    let parker = Arc::new(ThreadWaker {
        thread: std::thread::current(),
        notified: AtomicBool::new(false),
    });
    let waker = Waker::from(parker.clone());
    let mut cx = Context::from_waker(&waker);

    loop {
        if let Poll::Ready(output) = future.as_mut().poll(&mut cx) {
            return output;
        }
        // Park until a wake arrives; consume a pre-delivered notification
        // first so a wake between poll and park is never lost.
        while !parker.notified.swap(false, Ordering::SeqCst) {
            std::thread::park();
        }
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
