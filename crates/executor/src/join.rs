//! Join handles: awaiting the output of a spawned task.
//!
//! A handle is the receiving half of a [`oneshot`]: the spawned task
//! sends its output through the other half, and a task that panics (or
//! is dropped by the runtime) drops that half unsent.

use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::channel::{oneshot, OneshotReceiver, OneshotSender};

/// Error returned when awaiting a task that panicked or was dropped by the
/// runtime before completing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinError;

impl fmt::Display for JoinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("task panicked or was cancelled before completion")
    }
}

impl std::error::Error for JoinError {}

/// An owned permission to await the output of a spawned task.
///
/// Unlike Tokio, dropping the handle does **not** cancel the task; it simply
/// detaches, matching the fire-and-forget style used by the session runtime.
pub struct JoinHandle<T> {
    result: OneshotReceiver<T>,
}

impl<T> Future for JoinHandle<T> {
    type Output = Result<T, JoinError>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        Pin::new(&mut self.result)
            .poll(cx)
            .map(|value| value.ok_or(JoinError))
    }
}

/// Creates a connected completer/handle pair.
pub(crate) fn pair<T>() -> (OneshotSender<T>, JoinHandle<T>) {
    let (completer, result) = oneshot();
    (completer, JoinHandle { result })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::pin::pin;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::task::{Wake, Waker};

    /// Counts how often it was woken.
    #[derive(Default)]
    struct CountingWaker(AtomicUsize);

    impl Wake for CountingWaker {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Counts how often a payload was dropped.
    struct DropCounter(Arc<AtomicUsize>);

    impl Drop for DropCounter {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn value_completed_before_first_poll() {
        let (completer, handle) = pair::<u32>();
        completer.send(7);
        assert_eq!(crate::block_on(handle), Ok(7));
    }

    #[test]
    fn completion_after_registered_poll_wakes_across_threads() {
        let (completer, handle) = pair::<u32>();
        let mut handle = pin!(handle);
        let wakes = Arc::new(CountingWaker::default());
        let waker = Waker::from(wakes.clone());
        let mut cx = Context::from_waker(&waker);
        assert!(handle.as_mut().poll(&mut cx).is_pending());
        std::thread::spawn(move || completer.send(9))
            .join()
            .unwrap();
        assert_eq!(wakes.0.load(Ordering::SeqCst), 1);
        assert_eq!(handle.as_mut().poll(&mut cx), Poll::Ready(Ok(9)));
    }

    #[test]
    fn dropped_completer_reports_join_error() {
        let (completer, handle) = pair::<u32>();
        drop(completer);
        assert_eq!(crate::block_on(handle), Err(JoinError));
    }

    #[test]
    fn handle_dropped_before_completion_does_not_leak() {
        let drops = Arc::new(AtomicUsize::new(0));
        let (completer, handle) = pair();
        drop(handle);
        completer.send(DropCounter(drops.clone()));
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn repoll_with_new_waker_wakes_the_latest_one() {
        let (completer, handle) = pair::<u32>();
        let mut handle = pin!(handle);
        let stale = Arc::new(CountingWaker::default());
        let latest = Arc::new(CountingWaker::default());
        for wakes in [&stale, &latest] {
            let waker = Waker::from(wakes.clone());
            assert!(handle
                .as_mut()
                .poll(&mut Context::from_waker(&waker))
                .is_pending());
        }
        completer.send(3);
        assert_eq!(stale.0.load(Ordering::SeqCst), 0);
        assert_eq!(latest.0.load(Ordering::SeqCst), 1);
    }
}
