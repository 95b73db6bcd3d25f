//! Shared by the socket tests: a watchdog, so a link that hangs fails
//! its test instead of stalling the suite until CI gives up.

use std::sync::mpsc;
use std::time::Duration;

/// Runs `test` on its own thread and fails if it takes longer than a
/// generous limit.
pub fn within<T: Send + 'static>(test: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, result) = mpsc::channel();
    std::thread::spawn(move || done.send(test()));
    result
        .recv_timeout(Duration::from_secs(60))
        .expect("the link hung (or its test panicked)")
}
