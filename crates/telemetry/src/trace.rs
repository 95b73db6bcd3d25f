//! Session event tracing: per-thread lock-free bounded rings.
//!
//! Every session `Send`/`Receive`/`Select`/`Branch` future calls
//! [`event`] when it completes. Events land in a ring owned by the
//! *calling thread* (single writer, no contention, no locks on the hot
//! path); rings are bounded and **drop-oldest** — a slow consumer can
//! never stall the workload, and the number of overwritten events is
//! reported per thread so a truncated trace is never mistaken for a
//! complete one.
//!
//! Each slot is a group of `AtomicU64` words guarded by a per-slot
//! seqlock sequence word, so a drain racing a writer reads only atomic
//! words (no data-race UB) and discards any slot whose sequence moved
//! mid-read. Role/peer/label strings are `&'static str` (they come from
//! `std::any::type_name` or string literals); the ring stores their
//! pointer and length as integers and reconstructs the `&'static str`
//! only after the seqlock validates that both words came from the same
//! write.
//!
//! [`drain`] collects all rings into [`ThreadTrace`]s; `rumpsteak-trace`
//! (`bench::trace`) renders them in the Chrome trace-event format
//! accepted by `chrome://tracing` and Perfetto.
//!
//! # Cross-process stitching
//!
//! Traces die at the process boundary unless the wire carries causality
//! with them: the transport records a [`Kind::FrameSend`] /
//! [`Kind::FrameRecv`] pair (keyed by the frame's per-edge sequence
//! number) on the two sides of every socket, and the accept handshake
//! estimates each peer's clock offset ([`set_peer_offset`]). A process
//! writes everything as a line-oriented text dump ([`dump_text`]);
//! `rumpsteak-trace --merge` parses the dumps ([`parse_dump`]), aligns
//! their clocks and emits one timeline with Chrome *flow events*
//! connecting each send to its receive.

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Session events per thread ring; the oldest events are overwritten
/// once a thread exceeds this many undrained events.
pub const RING_CAPACITY: usize = 8192;

/// The session and transport operations that emit trace events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A message was enqueued (`Send` resolved).
    Send,
    /// A message was dequeued (`Receive` resolved).
    Receive,
    /// An internal choice was made and its label sent (`Select`).
    Select,
    /// An external choice was received (`Branch` resolved).
    Branch,
    /// A wire frame was accepted for the socket (the link's `poll_send`).
    FrameSend,
    /// A wire frame was decoded off the socket (the link's `poll_recv`).
    FrameRecv,
}

impl Kind {
    /// Stable lowercase name, used as the Chrome trace event category.
    pub fn as_str(&self) -> &'static str {
        match self {
            Kind::Send => "send",
            Kind::Receive => "receive",
            Kind::Select => "select",
            Kind::Branch => "branch",
            Kind::FrameSend => "frame_send",
            Kind::FrameRecv => "frame_recv",
        }
    }

    /// Inverse of [`as_str`](Self::as_str) (dump parsing).
    pub fn parse(name: &str) -> Option<Kind> {
        Some(match name {
            "send" => Kind::Send,
            "receive" => Kind::Receive,
            "select" => Kind::Select,
            "branch" => Kind::Branch,
            "frame_send" => Kind::FrameSend,
            "frame_recv" => Kind::FrameRecv,
            _ => return None,
        })
    }

    fn from_u8(byte: u8) -> Kind {
        match byte {
            0 => Kind::Send,
            1 => Kind::Receive,
            2 => Kind::Select,
            4 => Kind::FrameSend,
            5 => Kind::FrameRecv,
            _ => Kind::Branch,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            Kind::Send => 0,
            Kind::Receive => 1,
            Kind::Select => 2,
            Kind::Branch => 3,
            Kind::FrameSend => 4,
            Kind::FrameRecv => 5,
        }
    }
}

/// One recorded session event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the process trace epoch (first event or first
    /// call to [`now_ns`], whichever came first).
    pub t_ns: u64,
    /// Operation kind.
    pub kind: Kind,
    /// Role executing the operation.
    pub role: &'static str,
    /// Peer role on the other end of the link.
    pub peer: &'static str,
    /// Message or choice label.
    pub label: &'static str,
    /// Per-edge frame sequence number for [`Kind::FrameSend`] /
    /// [`Kind::FrameRecv`] (the cross-process matching key); 0 for
    /// session-level events.
    pub seq: u64,
}

/// All events drained from one thread's ring, oldest first.
#[derive(Clone, Debug)]
pub struct ThreadTrace {
    /// Thread name, or `thread-<n>` for unnamed threads.
    pub thread: String,
    /// Surviving events in timestamp order for this thread.
    pub events: Vec<TraceEvent>,
    /// Events overwritten (ring full) or torn (overwritten mid-drain)
    /// and therefore missing from `events`.
    pub dropped: u64,
}

/// Nanoseconds since the process trace epoch. The epoch is pinned the
/// first time any thread records or asks for a timestamp, so all rings
/// share one clock. Always available (even without the feature) so
/// callers can stamp their own phase markers consistently.
pub fn now_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    EPOCH
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// Records one session event into the calling thread's ring. Compiles
/// to nothing without the `telemetry` feature.
#[inline]
pub fn event(kind: Kind, role: &'static str, peer: &'static str, label: &'static str) {
    event_seq(kind, role, peer, label, 0);
}

/// [`event`] carrying a per-edge sequence number — the transport's
/// frame events use the sequence as the cross-process matching key.
#[inline]
pub fn event_seq(
    kind: Kind,
    role: &'static str,
    peer: &'static str,
    label: &'static str,
    seq: u64,
) {
    if crate::ENABLED {
        ring::event(kind, role, peer, label, seq);
    }
}

/// Registers the estimated clock offset of `peer`'s trace epoch
/// relative to this process (`peer_clock - local_clock`, nanoseconds),
/// as measured by the transport's accept handshake. Dumped with the
/// process trace so `rumpsteak-trace --merge` can align timelines.
pub fn set_peer_offset(peer: &str, offset_ns: i64) {
    if !crate::ENABLED {
        return;
    }
    let mut offsets = PEER_OFFSETS.lock().expect("offset table poisoned");
    match offsets.iter_mut().find(|(name, _)| name == peer) {
        Some((_, off)) => *off = offset_ns,
        None => offsets.push((peer.to_owned(), offset_ns)),
    }
}

/// The registered per-peer clock offsets. Empty in disabled builds.
pub fn peer_offsets() -> Vec<(String, i64)> {
    PEER_OFFSETS.lock().expect("offset table poisoned").clone()
}

static PEER_OFFSETS: Mutex<Vec<(String, i64)>> = Mutex::new(Vec::new());

/// Drains every thread ring into per-thread traces (oldest first),
/// advancing each ring's read cursor. Empty in disabled builds.
pub fn drain() -> Vec<ThreadTrace> {
    ring::drain()
}

// ---- per-process dumps ----------------------------------------------

/// One process's complete trace state: its per-thread event rings plus
/// the clock offsets its transport handshakes measured for each peer.
#[derive(Clone, Debug)]
pub struct ProcessDump {
    /// Process identity — the role name for generated distributed
    /// skeletons (one role per process).
    pub process: String,
    /// `(peer, peer_clock - local_clock)` nanosecond offsets.
    pub peer_offsets: Vec<(String, i64)>,
    /// Drained per-thread traces.
    pub traces: Vec<ThreadTrace>,
}

/// Drains this process's rings and renders them (with the registered
/// peer offsets) as the line-oriented text dump `rumpsteak-trace
/// --merge` consumes. Safe to call in disabled builds (header only).
pub fn dump_text(process: &str) -> String {
    render_dump(&ProcessDump {
        process: process.to_owned(),
        peer_offsets: peer_offsets(),
        traces: drain(),
    })
}

/// Renders a [`ProcessDump`] in the text dump format: tab-separated
/// `process` / `offset` / `thread` / `dropped` / `event` records under
/// a versioned header. Event fields are `t_ns kind seq role peer
/// label`; role, peer and label come from type names and never contain
/// tabs or newlines.
pub fn render_dump(dump: &ProcessDump) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    out.push_str("rumpsteak-trace-dump v1\n");
    let _ = writeln!(out, "process\t{}", dump.process);
    for (peer, offset) in &dump.peer_offsets {
        let _ = writeln!(out, "offset\t{peer}\t{offset}");
    }
    for trace in &dump.traces {
        let _ = writeln!(out, "thread\t{}", trace.thread);
        if trace.dropped > 0 {
            let _ = writeln!(out, "dropped\t{}", trace.dropped);
        }
        for event in &trace.events {
            let _ = writeln!(
                out,
                "event\t{}\t{}\t{}\t{}\t{}\t{}",
                event.t_ns,
                event.kind.as_str(),
                event.seq,
                event.role,
                event.peer,
                event.label,
            );
        }
    }
    out
}

/// Parses a text dump produced by [`dump_text`] / [`render_dump`].
///
/// Role/peer/label strings are interned by leaking (the merge tool is a
/// short-lived offline process; leaked bytes are bounded by dump size),
/// which keeps [`TraceEvent`]'s `&'static str` shape identical for live
/// and parsed events.
pub fn parse_dump(text: &str) -> Result<ProcessDump, String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, "rumpsteak-trace-dump v1")) => {}
        other => {
            return Err(format!(
                "not a rumpsteak trace dump (header line: {:?})",
                other.map(|(_, line)| line)
            ))
        }
    }
    let intern = |s: &str| -> &'static str { Box::leak(s.to_owned().into_boxed_str()) };
    let mut process = String::new();
    let mut peer_offsets = Vec::new();
    let mut traces: Vec<ThreadTrace> = Vec::new();
    for (lineno, line) in lines {
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split('\t');
        let tag = fields.next().unwrap_or("");
        let context = |what: &str| format!("dump line {}: {what}", lineno + 1);
        match tag {
            "process" => {
                process = fields
                    .next()
                    .ok_or_else(|| context("missing name"))?
                    .to_owned();
            }
            "offset" => {
                let peer = fields.next().ok_or_else(|| context("missing peer"))?;
                let offset: i64 = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| context("bad offset"))?;
                peer_offsets.push((peer.to_owned(), offset));
            }
            "thread" => {
                traces.push(ThreadTrace {
                    thread: fields.next().unwrap_or("").to_owned(),
                    events: Vec::new(),
                    dropped: 0,
                });
            }
            "dropped" => {
                let dropped: u64 = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| context("bad dropped count"))?;
                traces
                    .last_mut()
                    .ok_or_else(|| context("dropped before thread"))?
                    .dropped = dropped;
            }
            "event" => {
                let t_ns: u64 = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| context("bad timestamp"))?;
                let kind = fields
                    .next()
                    .and_then(Kind::parse)
                    .ok_or_else(|| context("bad kind"))?;
                let seq: u64 = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| context("bad seq"))?;
                let role = fields.next().ok_or_else(|| context("missing role"))?;
                let peer = fields.next().ok_or_else(|| context("missing peer"))?;
                let label = fields.next().ok_or_else(|| context("missing label"))?;
                traces
                    .last_mut()
                    .ok_or_else(|| context("event before thread"))?
                    .events
                    .push(TraceEvent {
                        t_ns,
                        kind,
                        role: intern(role),
                        peer: intern(peer),
                        label: intern(label),
                        seq,
                    });
            }
            other => return Err(context(&format!("unknown record `{other}`"))),
        }
    }
    if process.is_empty() {
        return Err("dump has no process record".to_owned());
    }
    Ok(ProcessDump {
        process,
        peer_offsets,
        traces,
    })
}

/// The per-thread rings behind [`event`] and [`drain`]. Always compiled;
/// disabled builds never record, so no ring is ever created.
mod ring {
    use super::*;

    /// One event slot: six atomic words validated by a per-slot seqlock.
    ///
    /// `seq` is odd while the writer is mid-update and even when stable;
    /// the write of global index `i` leaves `seq == 2 * (i / CAPACITY + 1)`,
    /// so a drain can tell whether the slot still holds the event it is
    /// looking for or has been lapped.
    struct Slot {
        seq: AtomicU64,
        t_ns: AtomicU64,
        role_ptr: AtomicU64,
        peer_ptr: AtomicU64,
        label_ptr: AtomicU64,
        /// `role_len | peer_len << 16 | label_len << 32 | kind << 48`.
        lens_kind: AtomicU64,
        /// Per-edge frame sequence (0 for session events).
        msg_seq: AtomicU64,
    }

    impl Slot {
        fn new() -> Slot {
            Slot {
                seq: AtomicU64::new(0),
                t_ns: AtomicU64::new(0),
                role_ptr: AtomicU64::new(0),
                peer_ptr: AtomicU64::new(0),
                label_ptr: AtomicU64::new(0),
                lens_kind: AtomicU64::new(0),
                msg_seq: AtomicU64::new(0),
            }
        }
    }

    struct Ring {
        thread: String,
        /// Next global write index (monotonic; slot = index % capacity).
        tail: AtomicU64,
        /// Next global index to hand out on drain.
        drained: AtomicU64,
        slots: Box<[Slot]>,
    }

    // The ring only ever stores pointers to `&'static str` data and
    // integers; it is safe to share across threads (all access is via
    // atomics).
    unsafe impl Send for Ring {}
    unsafe impl Sync for Ring {}

    static RINGS: Mutex<Vec<Arc<Ring>>> = Mutex::new(Vec::new());

    thread_local! {
        static RING: std::cell::OnceCell<Arc<Ring>> = const { std::cell::OnceCell::new() };
    }

    fn ring_for_current_thread() -> Arc<Ring> {
        RING.with(|cell| {
            cell.get_or_init(|| {
                let mut rings = RINGS.lock().expect("trace registry poisoned");
                let thread = std::thread::current()
                    .name()
                    .map(str::to_owned)
                    .unwrap_or_else(|| format!("thread-{}", rings.len()));
                let ring = Arc::new(Ring {
                    thread,
                    tail: AtomicU64::new(0),
                    drained: AtomicU64::new(0),
                    slots: (0..RING_CAPACITY).map(|_| Slot::new()).collect(),
                });
                rings.push(ring.clone());
                ring
            })
            .clone()
        })
    }

    pub(super) fn event(
        kind: Kind,
        role: &'static str,
        peer: &'static str,
        label: &'static str,
        msg_seq: u64,
    ) {
        let t_ns = now_ns();
        let ring = ring_for_current_thread();
        let index = ring.tail.load(Ordering::Relaxed);
        let slot = &ring.slots[(index % RING_CAPACITY as u64) as usize];

        // Seqlock write: mark the slot unstable *before* touching its
        // data words so a concurrent drain can never validate a torn
        // read. The release fence keeps the odd store ahead of the data
        // stores; the final release store publishes them.
        let seq = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.role_ptr.store(role.as_ptr() as u64, Ordering::Relaxed);
        slot.peer_ptr.store(peer.as_ptr() as u64, Ordering::Relaxed);
        slot.label_ptr
            .store(label.as_ptr() as u64, Ordering::Relaxed);
        let lens_kind = role.len() as u64
            | (peer.len() as u64) << 16
            | (label.len() as u64) << 32
            | (kind.as_u8() as u64) << 48;
        slot.lens_kind.store(lens_kind, Ordering::Relaxed);
        slot.msg_seq.store(msg_seq, Ordering::Relaxed);
        slot.seq.store(seq + 2, Ordering::Release);

        // Publishing the new tail last means drains only look at slots
        // that have completed at least one write.
        ring.tail.store(index + 1, Ordering::Release);
    }

    /// Reconstructs a `&'static str` from a validated (ptr, len) pair.
    ///
    /// # Safety
    /// Both words must come from the same seqlock-validated slot write,
    /// in which case they are exactly the pieces of a live `&'static str`
    /// the writer held.
    unsafe fn rebuild_str(ptr: u64, len: usize) -> &'static str {
        std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptr as *const u8, len))
    }

    fn read_slot(slot: &Slot, expected_seq: u64) -> Option<TraceEvent> {
        let seq = slot.seq.load(Ordering::Acquire);
        if seq != expected_seq {
            // Mid-write (odd) or already lapped by a newer event.
            return None;
        }
        let t_ns = slot.t_ns.load(Ordering::Relaxed);
        let role_ptr = slot.role_ptr.load(Ordering::Relaxed);
        let peer_ptr = slot.peer_ptr.load(Ordering::Relaxed);
        let label_ptr = slot.label_ptr.load(Ordering::Relaxed);
        let lens_kind = slot.lens_kind.load(Ordering::Relaxed);
        let msg_seq = slot.msg_seq.load(Ordering::Relaxed);
        fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != expected_seq {
            return None;
        }
        let role_len = (lens_kind & 0xffff) as usize;
        let peer_len = (lens_kind >> 16 & 0xffff) as usize;
        let label_len = (lens_kind >> 32 & 0xffff) as usize;
        let kind = Kind::from_u8((lens_kind >> 48) as u8);
        // SAFETY: the seqlock round-trip above proves every word read
        // belongs to one completed write of this slot.
        let (role, peer, label) = unsafe {
            (
                rebuild_str(role_ptr, role_len),
                rebuild_str(peer_ptr, peer_len),
                rebuild_str(label_ptr, label_len),
            )
        };
        Some(TraceEvent {
            t_ns,
            kind,
            role,
            peer,
            label,
            seq: msg_seq,
        })
    }

    pub(super) fn drain() -> Vec<ThreadTrace> {
        let rings = RINGS.lock().expect("trace registry poisoned");
        let mut traces = Vec::with_capacity(rings.len());
        for ring in rings.iter() {
            let tail = ring.tail.load(Ordering::Acquire);
            let drained = ring.drained.load(Ordering::Relaxed);
            // Oldest index still resident in the ring.
            let start = drained.max(tail.saturating_sub(RING_CAPACITY as u64));
            let mut dropped = start - drained;
            let mut events = Vec::with_capacity((tail - start) as usize);
            for index in start..tail {
                let slot = &ring.slots[(index % RING_CAPACITY as u64) as usize];
                let expected_seq = 2 * (index / RING_CAPACITY as u64 + 1);
                match read_slot(slot, expected_seq) {
                    Some(event) => events.push(event),
                    // Lapped or torn while we were reading: the writer
                    // has moved on, count it as dropped.
                    None => dropped += 1,
                }
            }
            ring.drained.store(tail, Ordering::Relaxed);
            if !events.is_empty() || dropped > 0 {
                traces.push(ThreadTrace {
                    thread: ring.thread.clone(),
                    events,
                    dropped,
                });
            }
        }
        traces
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Held by every test that drains: `drain` empties every thread's
    /// ring, so a concurrent drain would take part of another test's
    /// events.
    static DRAINING: Mutex<()> = Mutex::new(());

    fn draining() -> std::sync::MutexGuard<'static, ()> {
        DRAINING
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn events_round_trip_through_drain() {
        let _draining = draining();
        let _ = drain(); // isolate from other tests on this thread
        event(Kind::Send, "RoleA", "RoleB", "Ping");
        event(Kind::Receive, "RoleB", "RoleA", "Ping");
        let traces = drain();
        if crate::ENABLED {
            let events: Vec<_> = traces.iter().flat_map(|t| t.events.iter()).collect();
            assert!(events.len() >= 2);
            let send = events
                .iter()
                .find(|e| e.kind == Kind::Send && e.label == "Ping")
                .expect("send event recorded");
            assert_eq!(send.role, "RoleA");
            assert_eq!(send.peer, "RoleB");
        } else {
            assert!(traces.is_empty());
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        if !crate::ENABLED {
            return;
        }
        let _draining = draining();
        std::thread::spawn(|| {
            let overflow = 100;
            for i in 0..RING_CAPACITY + overflow {
                let label = if i % 2 == 0 { "Even" } else { "Odd" };
                event(Kind::Send, "Flood", "Sink", label);
            }
            let traces = drain();
            let trace = traces
                .iter()
                .find(|t| t.events.iter().any(|e| e.role == "Flood"))
                .expect("flood ring drained");
            assert_eq!(trace.events.len(), RING_CAPACITY);
            assert_eq!(trace.dropped, overflow as u64);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn timestamps_are_monotonic_per_thread() {
        let first = now_ns();
        let second = now_ns();
        assert!(second >= first);
    }

    fn frame_event(
        kind: Kind,
        role: &'static str,
        peer: &'static str,
        t_ns: u64,
        seq: u64,
    ) -> TraceEvent {
        TraceEvent {
            t_ns,
            kind,
            role,
            peer,
            label: "frame",
            seq,
        }
    }

    #[test]
    fn dump_text_round_trips_through_parse() {
        let dump = ProcessDump {
            process: "S".into(),
            peer_offsets: vec![("T".into(), -12345)],
            traces: vec![ThreadTrace {
                thread: "netlink-writer S->T".into(),
                events: vec![
                    frame_event(Kind::FrameSend, "S", "T", 1000, 1),
                    frame_event(Kind::FrameSend, "S", "T", 2000, 2),
                ],
                dropped: 3,
            }],
        };
        let text = render_dump(&dump);
        let parsed = parse_dump(&text).expect("dump parses");
        assert_eq!(parsed.process, "S");
        assert_eq!(parsed.peer_offsets, vec![("T".to_owned(), -12345)]);
        assert_eq!(parsed.traces.len(), 1);
        assert_eq!(parsed.traces[0].thread, "netlink-writer S->T");
        assert_eq!(parsed.traces[0].dropped, 3);
        assert_eq!(parsed.traces[0].events.len(), 2);
        assert_eq!(parsed.traces[0].events[1].seq, 2);
        assert_eq!(parsed.traces[0].events[1].kind, Kind::FrameSend);
        assert_eq!(parsed.traces[0].events[1].role, "S");
    }

    #[test]
    fn parse_dump_rejects_garbage() {
        assert!(parse_dump("not a dump").is_err());
        assert!(parse_dump("rumpsteak-trace-dump v1\nbogus\tline\n").is_err());
        assert!(parse_dump("rumpsteak-trace-dump v1\n").is_err()); // no process
    }

    #[test]
    fn peer_offset_table_round_trips() {
        set_peer_offset("OffsetPeer", 42);
        set_peer_offset("OffsetPeer", -7);
        let offsets = peer_offsets();
        if crate::ENABLED {
            let entry = offsets
                .iter()
                .find(|(peer, _)| peer == "OffsetPeer")
                .expect("offset registered");
            assert_eq!(entry.1, -7);
        } else {
            assert!(offsets.is_empty());
        }
    }
}
