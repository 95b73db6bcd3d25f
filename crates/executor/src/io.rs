//! Readiness notification for non-blocking descriptors (Linux `epoll`).
//!
//! One epoll instance per process, created by the first
//! [`Registration`]. A descriptor is registered once, edge-triggered for
//! readable, writable and peer-hang-up, and never modified; each edge
//! becomes one [`Source::ready`] call. No thread exists for I/O; the
//! threads that would otherwise sleep collect the edges:
//!
//! * a worker of any [`Runtime`](crate::Runtime) that has run out of
//!   local work calls [`turn_now`] before it starts stealing or parks,
//!   so readiness a task produced on that thread (a write to a loopback
//!   socket whose other end lives on the same worker) wakes its
//!   consumer into the worker's own LIFO slot;
//! * at most one parked thread at a time holds the process-wide
//!   *driver baton* and parks in `epoll_wait` instead of
//!   `std::thread::park`. Edges it dispatches wake their tasks through
//!   the ordinary waker path; a task of the driver's own runtime lands
//!   in the driver's LIFO slot, so a one-worker runtime serves a socket
//!   ping-pong with no thread hop. An unparker interrupts the driver
//!   through a wake socket in the same epoll set.
//!
//! The baton moves by four rules:
//!
//! 1. A runtime worker that parks takes the baton if it is free. A
//!    worker that parked while nothing was registered sleeps plainly,
//!    so the first registration rouses one to come and take it.
//! 2. A [`block_on`](crate::block_on) caller takes it only while no
//!    runtime worker is alive in the process; otherwise a main thread
//!    awaiting a `JoinHandle` would collect the workers' edges and hop
//!    every wake back to them.
//! 3. A thread that gives up the baton while another thread is parked
//!    with descriptors registered wakes one that may take it; so do a
//!    `block_on` that returns and the last runtime worker to exit. A
//!    waiter is never stranded behind a driver that left.
//! 4. A runtime waking one of its parked workers claims one that is not
//!    driving first: the driver keeps watching the sockets.
//!
//! The kernel hands an edge to one collector, occasionally to two;
//! `ready` must therefore tolerate spurious calls, and a source learns
//! what actually changed by retrying its non-blocking operation. The
//! wake socket alone is level-triggered, so an interrupt that a
//! [`turn_now`] caller happens to collect stays pending for the driver,
//! which alone drains it.
//!
//! There is no dependency to get `epoll` from, so the three calls are
//! declared here against the C library std already links.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use crate::park::{Parked, Parker};

/// The owner of a registered descriptor, as the collectors see it.
pub trait Source: Send + Sync {
    /// The descriptor may have become readable (data, end of stream or
    /// an error to collect) and/or writable (buffer space, or an error
    /// to collect). Called from whichever thread collected the edge — a
    /// worker between tasks, or the parked thread holding the driver
    /// baton — possibly spuriously and possibly after the
    /// [`Registration`] was dropped; must not block.
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

/// The process's epoll descriptor and its wake socket.
struct Instance {
    epfd: RawFd,
    /// Written to interrupt the driver's `epoll_wait`.
    wake: UnixStream,
    /// Registered under [`WAKE`]; drained by the driver.
    woken: UnixStream,
}

/// The process's epoll instance, or the OS error that prevented it.
static EPOLL: OnceLock<Result<Instance, i32>> = OnceLock::new();

/// The wake socket's event token; source tokens count up from 0 and
/// never reach it.
const WAKE: u64 = u64::MAX;

/// Registered sources by event token. A token is never reused, so an
/// event collected just before its registration was dropped finds no
/// entry instead of somebody else's source.
static SOURCES: Mutex<BTreeMap<u64, Arc<dyn Source>>> = Mutex::new(BTreeMap::new());

static NEXT_TOKEN: AtomicU64 = AtomicU64::new(0);

/// Live registrations. `Relaxed` where it is only a hint for
/// [`turn_now`] (a stale value costs one skipped or one empty turn);
/// `SeqCst` where a parking thread and a first registration must see
/// each other.
static REGISTERED: AtomicUsize = AtomicUsize::new(0);

/// Who may wait in `epoll_wait`, and who waits without it.
struct Baton {
    /// Some thread is parked in `epoll_wait`.
    held: bool,
    /// The parkers of the runtime workers alive in the process.
    workers: Vec<Arc<Parker>>,
    /// Threads parked without the baton while descriptors are
    /// registered.
    waiting: Vec<Arc<Parker>>,
}

static BATON: Mutex<Baton> = Mutex::new(Baton {
    held: false,
    workers: Vec::new(),
    waiting: Vec::new(),
});

impl Baton {
    /// Rules 1 and 2.
    fn may_drive(&self, parker: &Parker) -> bool {
        parker.worker || self.workers.is_empty()
    }

    /// Rule 3: with the baton free, takes one waiter that may pick it
    /// up out of the waiting list, for the caller to wake.
    fn hand_off(&mut self) -> Option<Arc<Parker>> {
        if self.held {
            return None;
        }
        let at = self.waiting.iter().position(|p| self.may_drive(p))?;
        Some(self.waiting.swap_remove(at))
    }
}

/// Gives up the baton if `release`, then runs `hand_off` and wakes
/// whoever it chose, outside the lock.
fn hand_off(release: bool) {
    let next = {
        let mut baton = BATON.lock();
        baton.held &= !release;
        baton.hand_off()
    };
    if let Some(next) = next {
        next.unpark();
    }
}

/// `epoll_ctl` on `fd` with `events` and `token` (ignored by
/// `EPOLL_CTL_DEL`).
fn ctl(epfd: RawFd, op: i32, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
    let mut event = EpollEvent { events, token };
    // Safety: `event` is a live `epoll_event` for the duration of the
    // call; the kernel copies it and keeps no pointer.
    if unsafe { epoll_ctl(epfd, op, fd, &mut event) } < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Creates the epoll instance and registers its wake socket.
fn start() -> Result<Instance, i32> {
    let os_code = |error: io::Error| error.raw_os_error().unwrap_or(0);
    // Safety: no pointers involved; the flag is a valid `epoll_create1`
    // flag.
    let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
    if epfd < 0 {
        return Err(os_code(io::Error::last_os_error()));
    }
    let (woken, wake) = UnixStream::pair().map_err(os_code)?;
    woken.set_nonblocking(true).map_err(os_code)?;
    wake.set_nonblocking(true).map_err(os_code)?;
    // Level-triggered: see the module docs.
    ctl(epfd, EPOLL_CTL_ADD, woken.as_raw_fd(), EPOLLIN, WAKE).map_err(os_code)?;
    Ok(Instance { epfd, wake, woken })
}

/// The instance, once some registration has created it.
fn instance() -> Option<&'static Instance> {
    EPOLL.get()?.as_ref().ok()
}

/// Up to one batch of events.
struct Batch {
    events: [EpollEvent; Batch::SIZE],
    /// `epoll_wait`'s result: the events collected, 0 on timeout,
    /// negative when a signal interrupted the wait.
    collected: i32,
}

impl Batch {
    const SIZE: usize = 32;

    /// Collects the edges pending on `epfd`, waiting up to `timeout_ms`
    /// (-1 = indefinitely) for the first.
    fn wait(epfd: RawFd, timeout_ms: i32) -> Self {
        let mut events = [EpollEvent {
            events: 0,
            token: 0,
        }; Self::SIZE];
        // Safety: `events` is a live, writable array of `SIZE` events
        // and the kernel writes at most `maxevents = SIZE` of them.
        let collected =
            unsafe { epoll_wait(epfd, events.as_mut_ptr(), Self::SIZE as i32, timeout_ms) };
        Self { events, collected }
    }

    /// Hands each source edge to its source. Returns whether any was
    /// dispatched, and whether the wake socket was among the events.
    fn dispatch(&self) -> (bool, bool) {
        // Negative is EINTR (the descriptor and buffer are valid by
        // construction): nothing was collected, the caller comes back.
        let collected = usize::try_from(self.collected).unwrap_or(0);
        let (mut dispatched, mut woken) = (false, false);
        for event in &self.events[..collected] {
            let EpollEvent { events, token } = *event;
            if token == WAKE {
                woken = true;
                continue;
            }
            dispatched = true;
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
        (dispatched, woken)
    }
}

/// Dispatches the edges that are pending right now, without waiting.
/// Returns whether there were any — the calling worker then looks at
/// its local queues again before it searches or parks. Costs one
/// atomic load while no descriptor is registered.
pub fn turn_now() -> bool {
    if REGISTERED.load(Ordering::Relaxed) == 0 {
        return false;
    }
    instance().is_some_and(|instance| Batch::wait(instance.epfd, 0).dispatch().0)
}

/// True while any descriptor is registered: a parking thread then goes
/// through [`drive`].
pub(crate) fn registered() -> bool {
    REGISTERED.load(Ordering::SeqCst) > 0
}

/// Parks `parker`'s thread (already `PARKED`) in `epoll_wait` if the
/// baton is free and the rules let it drive, and returns how that went.
/// Otherwise lists the thread as waiting and returns `None`; the caller
/// then parks it plainly and calls [`stop_waiting`] afterwards.
pub(crate) fn drive(parker: &Arc<Parker>) -> Option<Parked> {
    let Some(instance) = instance() else {
        return Some(Parked::default());
    };
    {
        let mut baton = BATON.lock();
        if baton.held || !baton.may_drive(parker) {
            baton.waiting.push(parker.clone());
            return None;
        }
        baton.held = true;
    }
    let mut parked = Parked {
        drove: true,
        ..Parked::default()
    };
    let batch = parker.start_driving().then(|| {
        let batch = Batch::wait(instance.epfd, -1);
        parker.stop_driving();
        batch
    });
    hand_off(true);
    if let Some(batch) = batch {
        let (dispatched, woken) = batch.dispatch();
        if woken {
            let mut sink = [0u8; 64];
            while matches!((&instance.woken).read(&mut sink), Ok(n) if n > 0) {}
        }
        parked.dispatched = dispatched;
    }
    Some(parked)
}

/// Takes a thread that [`drive`] listed as waiting off the list.
pub(crate) fn stop_waiting(parker: &Arc<Parker>) {
    BATON
        .lock()
        .waiting
        .retain(|waiting| !Arc::ptr_eq(waiting, parker));
}

/// Interrupts the driver's `epoll_wait`.
pub(crate) fn interrupt() {
    if let Some(instance) = instance() {
        // A full socket already holds an interrupt the driver will see.
        let _ = (&instance.wake).write(&[1]);
    }
}

/// A `block_on` returns (rule 3): it may have been woken to take the
/// baton and will not park again to take it.
pub(crate) fn leaving() {
    if registered() {
        hand_off(false);
    }
}

/// A runtime worker starts (rule 2 counts it).
pub(crate) fn worker_started(parker: Arc<Parker>) {
    BATON.lock().workers.push(parker);
}

/// A runtime worker exits; after the last one, `block_on` callers may
/// drive again (rule 3).
pub(crate) fn worker_exited(parker: &Arc<Parker>) {
    BATON
        .lock()
        .workers
        .retain(|worker| !Arc::ptr_eq(worker, parker));
    hand_off(false);
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
        let epfd = match EPOLL.get_or_init(start) {
            Ok(instance) => instance.epfd,
            Err(code) => return Err(io::Error::from_raw_os_error(*code)),
        };
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        // In the table first: the initial edge may be collected before
        // `epoll_ctl` returns.
        SOURCES.lock().insert(token, source);
        let events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
        if let Err(error) = ctl(epfd, EPOLL_CTL_ADD, fd, events, token) {
            // As in `drop`: not while the table is locked.
            let source = SOURCES.lock().remove(&token);
            drop(source);
            return Err(error);
        }
        if REGISTERED.fetch_add(1, Ordering::SeqCst) == 0 {
            // Workers that parked while nothing was registered sleep
            // plainly; rouse one to take the baton.
            let sleeper = {
                let baton = BATON.lock();
                match baton.held {
                    true => None,
                    false => baton.workers.iter().find(|w| w.is_parked()).cloned(),
                }
            };
            if let Some(sleeper) = sleeper {
                sleeper.unpark();
            }
        }
        Ok(Self { fd, token })
    }
}

impl Drop for Registration {
    fn drop(&mut self) {
        REGISTERED.fetch_sub(1, Ordering::Relaxed);
        if let Some(instance) = instance() {
            // Failure means the descriptor is already gone from the
            // set, which is the goal.
            let _ = ctl(instance.epfd, EPOLL_CTL_DEL, self.fd, 0, 0);
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
    use std::os::fd::AsRawFd;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

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

    /// Turns the instance until `edges` yields, or the watchdog fires.
    /// (A worker of a runtime in a sibling test may collect the edge
    /// instead; it reaches the same channel.)
    fn next_edge(edges: &mpsc::Receiver<(bool, bool)>) -> (bool, bool) {
        let deadline = Instant::now() + WATCHDOG;
        loop {
            turn_now();
            match edges.recv_timeout(Duration::from_millis(1)) {
                Ok(edge) => return edge,
                Err(mpsc::RecvTimeoutError::Timeout) if Instant::now() < deadline => {}
                Err(error) => panic!("no edge: {error:?}"),
            }
        }
    }

    #[test]
    fn edges_reach_the_source_and_stop_after_drop() {
        let (mut near, mut far) = UnixStream::pair().unwrap();
        near.set_nonblocking(true).unwrap();
        let (source, edges) = probe();
        let registration = Registration::new(near.as_raw_fd(), source).unwrap();
        // The initial edge: an idle socket is writable, not readable.
        assert_eq!(next_edge(&edges), (false, true));

        far.write_all(b"x").unwrap();
        let (readable, _) = next_edge(&edges);
        assert!(readable);
        let mut byte = [0u8; 1];
        assert_eq!(near.read(&mut byte).unwrap(), 1);

        // Hang-up is an edge of its own, reported as readable.
        drop(far);
        let (readable, _) = next_edge(&edges);
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
