//! Readiness notification for non-blocking descriptors (Linux `epoll`).
//!
//! One epoll instance per process, created by the first
//! [`Registration`]. A descriptor is registered once, edge-triggered for
//! readable, writable and peer-hang-up, and never modified; each edge
//! becomes one [`Source::ready`] call. Two kinds of thread collect
//! edges from the same instance:
//!
//! * a worker of any [`Runtime`](crate::Runtime) that has run out of
//!   local work calls [`turn_now`] before it starts stealing or parks,
//!   so readiness a task produced on that thread (a write to a loopback
//!   socket whose other end lives on the same worker) wakes its
//!   consumer into the worker's own LIFO slot with no thread hop;
//! * one `io-reactor` thread, started with the instance, blocks in
//!   `epoll_wait` and covers everything else: parked workers,
//!   [`block_on`](crate::block_on) callers, descriptors whose owner is
//!   busy. Its wakes go through the ordinary waker path (injector plus
//!   unpark), so the scheduler's park handshake knows nothing of I/O.
//!
//! The kernel hands an edge to one collector, occasionally to both;
//! `ready` must therefore tolerate spurious calls, and a source learns
//! what actually changed by retrying its non-blocking operation.
//!
//! There is no dependency to get `epoll` from, so the three calls are
//! declared here against the C library std already links.

use std::collections::BTreeMap;
use std::io;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

/// The owner of a registered descriptor, as the collectors see it.
pub trait Source: Send + Sync {
    /// The descriptor may have become readable (data, end of stream or
    /// an error to collect) and/or writable (buffer space, or an error
    /// to collect). Called from a worker or from the reactor thread,
    /// possibly spuriously and possibly after the [`Registration`] was
    /// dropped; must not block.
    fn ready(&self, readable: bool, writable: bool);
}

const EPOLL_CLOEXEC: i32 = 0o2_000_000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;

/// `struct epoll_event`; the kernel ABI packs it on x86-64 only.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    token: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
}

/// The process's epoll descriptor, or the OS error that prevented it.
static EPOLL: OnceLock<Result<RawFd, i32>> = OnceLock::new();

/// Registered sources by event token. A token is never reused, so an
/// event collected just before its registration was dropped finds no
/// entry instead of somebody else's source.
static SOURCES: Mutex<BTreeMap<u64, Arc<dyn Source>>> = Mutex::new(BTreeMap::new());

static NEXT_TOKEN: AtomicU64 = AtomicU64::new(0);

/// Live registrations. Only a hint for [`turn_now`] (a stale value costs
/// one skipped or one empty turn), hence `Relaxed` throughout.
static REGISTERED: AtomicUsize = AtomicUsize::new(0);

/// Creates the epoll instance and starts the reactor thread.
fn start() -> Result<RawFd, i32> {
    let os_code = |error: io::Error| error.raw_os_error().unwrap_or(0);
    // Safety: no pointers involved; the flag is a valid `epoll_create1`
    // flag.
    let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
    if epfd < 0 {
        return Err(os_code(io::Error::last_os_error()));
    }
    // Never joined: the thread serves every registration the process
    // will ever make and ends with it.
    std::thread::Builder::new()
        .name("io-reactor".to_owned())
        .spawn(move || loop {
            turn(epfd, -1);
        })
        .map_err(os_code)?;
    Ok(epfd)
}

/// Collects the edges pending on `epfd`, waiting up to `timeout_ms`
/// (-1 = indefinitely) for the first, and dispatches each to its
/// source. Returns whether any was dispatched.
fn turn(epfd: RawFd, timeout_ms: i32) -> bool {
    const BATCH: usize = 32;
    let mut events = [EpollEvent {
        events: 0,
        token: 0,
    }; BATCH];
    // Safety: `events` is a live, writable array of `BATCH` events and
    // the kernel writes at most `maxevents = BATCH` of them.
    let collected = unsafe { epoll_wait(epfd, events.as_mut_ptr(), BATCH as i32, timeout_ms) };
    // Negative is EINTR (the descriptor and buffer are valid by
    // construction): nothing was collected, the caller comes back.
    let collected = usize::try_from(collected).unwrap_or(0);
    for event in &events[..collected] {
        let EpollEvent { events, token } = *event;
        // The table lock is released before the callback runs.
        let source = SOURCES.lock().get(&token).cloned();
        if let Some(source) = source {
            // Errors and hang-ups surface through whichever operation
            // the owner retries, so they count as both.
            let failed = events & (EPOLLERR | EPOLLHUP) != 0;
            source.ready(
                failed || events & (EPOLLIN | EPOLLRDHUP) != 0,
                failed || events & EPOLLOUT != 0,
            );
        }
    }
    collected > 0
}

/// Dispatches the edges that are pending right now, without waiting.
/// Returns whether there were any — the calling worker then looks at
/// its local queues again before it searches or parks. Costs one
/// atomic load while no descriptor is registered.
pub fn turn_now() -> bool {
    if REGISTERED.load(Ordering::Relaxed) == 0 {
        return false;
    }
    match EPOLL.get() {
        Some(Ok(epfd)) => turn(*epfd, 0),
        _ => false,
    }
}

/// A descriptor's membership in the process's epoll instance; dropping
/// it ends the membership. The descriptor must stay open for as long as
/// the registration lives.
pub struct Registration {
    fd: RawFd,
    token: u64,
}

impl Registration {
    /// Registers `fd` (which must be non-blocking) for edge-triggered
    /// readable, writable and hang-up notification, delivered to
    /// `source`. The kernel reports the descriptor's current readiness
    /// as a first edge.
    pub fn new(fd: RawFd, source: Arc<dyn Source>) -> io::Result<Self> {
        let epfd = (*EPOLL.get_or_init(start)).map_err(io::Error::from_raw_os_error)?;
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        // In the table first: the initial edge may be collected before
        // `epoll_ctl` returns.
        SOURCES.lock().insert(token, source);
        let mut event = EpollEvent {
            events: EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET,
            token,
        };
        // Safety: `event` is a live `epoll_event` for the duration of
        // the call; the kernel copies it and keeps no pointer.
        if unsafe { epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &mut event) } < 0 {
            let error = io::Error::last_os_error();
            // As in `drop`: not while the table is locked.
            let source = SOURCES.lock().remove(&token);
            drop(source);
            return Err(error);
        }
        REGISTERED.fetch_add(1, Ordering::Relaxed);
        Ok(Self { fd, token })
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        REGISTERED.fetch_sub(1, Ordering::Relaxed);
        if let Some(Ok(epfd)) = EPOLL.get() {
            // Safety: `EPOLL_CTL_DEL` ignores the event argument (null
            // is allowed since Linux 2.6.9). Failure means the
            // descriptor is already gone from the set, which is the
            // goal.
            unsafe { epoll_ctl(*epfd, EPOLL_CTL_DEL, self.fd, std::ptr::null_mut()) };
        }
        // Dropped outside the table lock: the source's own drop may
        // release further registrations.
        let source = SOURCES.lock().remove(&self.token);
        drop(source);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::mpsc;
    use std::time::Duration;

    /// Forwards every edge to a channel.
    struct Probe(mpsc::Sender<(bool, bool)>);

    impl Source for Probe {
        fn ready(&self, readable: bool, writable: bool) {
            let _ = self.0.send((readable, writable));
        }
    }

    fn probe() -> (Arc<Probe>, mpsc::Receiver<(bool, bool)>) {
        let (tx, rx) = mpsc::channel();
        (Arc::new(Probe(tx)), rx)
    }

    const WATCHDOG: Duration = Duration::from_secs(10);

    #[test]
    fn edges_reach_the_source_and_stop_after_drop() {
        let (mut near, mut far) = UnixStream::pair().unwrap();
        near.set_nonblocking(true).unwrap();
        let (source, edges) = probe();
        let registration = Registration::new(near.as_raw_fd(), source).unwrap();
        // The initial edge: an idle socket is writable, not readable.
        assert_eq!(edges.recv_timeout(WATCHDOG), Ok((false, true)));

        far.write_all(b"x").unwrap();
        let (readable, _) = edges.recv_timeout(WATCHDOG).unwrap();
        assert!(readable);
        let mut byte = [0u8; 1];
        assert_eq!(near.read(&mut byte).unwrap(), 1);

        // Hang-up is an edge of its own, reported as readable.
        drop(far);
        let (readable, _) = edges.recv_timeout(WATCHDOG).unwrap();
        assert!(readable);
        assert_eq!(near.read(&mut byte).unwrap(), 0);

        drop(registration);
        // The table let go of the source, so the channel is closed.
        assert_eq!(
            edges.recv_timeout(WATCHDOG),
            Err(mpsc::RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn registering_an_invalid_descriptor_fails_cleanly() {
        let (source, edges) = probe();
        assert!(Registration::new(-1, source).is_err());
        assert_eq!(
            edges.recv_timeout(WATCHDOG),
            Err(mpsc::RecvTimeoutError::Disconnected)
        );
    }
}
