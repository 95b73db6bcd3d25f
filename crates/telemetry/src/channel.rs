//! Per-link statistics and the k-MC bound registry, for in-process
//! rings and socket links alike.
//!
//! A session link connects two *named* roles, over an SPSC ring or a
//! framed socket; the executor and the socket transport register each
//! direction here as `from → to` when a labelled link is created, and
//! the generated `connect()`/`remote_mesh()` (or a hand-written `roles!`
//! `bounds` clause) registers the statically verified k-MC bound for the
//! same pair. All instances of a named link share one `LinkCell`, so
//! the reported high-watermark is the maximum over every session ever
//! run — which is exactly the quantity the static bound promises to cap.
//! For a ring the depth is messages queued; for a socket it is frames
//! accepted and not yet fully written.
//!
//! Beyond the watermark-vs-bound check, the cell carries the data-plane
//! counters: `sends` against `wakes` (how many messages travelled per
//! waker handoff) on rings; `received`, `bytes_sent` and
//! `bytes_received` (frames and bytes in against out), `window_stalls`
//! (sends that found the window full) and `reconnects` (dial retries) on
//! sockets. The registered `window` — a ring's batch-receive window or a
//! socket's send window — mirrors the k-MC bound it was sized from, so
//! a test can assert `1 <= window <= kmc_bound` per link.
//!
//! Hot-path updates (`LinkStats::record_depth` and friends) are relaxed
//! atomic RMWs on the shared cell; the global registry mutex is touched
//! only on registration (link creation) and snapshots, never per message.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::gate::{recorder, Handle, Registry};
use crate::hist::{Histogram, HistogramSnapshot};
use crate::Counter;

/// Slots in a link's latency stamp ring. A power of two so indexing is
/// a mask; deep enough that a stamp is only overwritten after 1024
/// further sends — far beyond any verified k-MC bound — so the seqlock
/// tag check below almost never misses on an in-process link.
const STAMP_SLOTS: usize = 1024;

/// One stamp: the send-side monotonic time `t`, published under a
/// sequence `tag` (send index + 1) with release ordering so a reader
/// that observes the tag also observes the time.
#[derive(Default)]
struct StampSlot {
    tag: AtomicU64,
    t: AtomicU64,
}

/// Shared statistics cell for one directed link `from → to`.
#[derive(Default)]
struct LinkCell {
    from: &'static str,
    to: &'static str,
    /// Maximum observed occupancy (messages in flight) across instances.
    high_watermark: Counter,
    /// Ring growth events.
    grows: Counter,
    /// Messages published.
    sends: Counter,
    /// Consumer wakeups actually delivered (armed waker handed to the
    /// scheduler); `sends - wakes` messages travelled for free.
    wakes: Counter,
    /// Frames decoded off the socket.
    received: Counter,
    /// Frame bytes written, header included.
    bytes_sent: Counter,
    /// Frame bytes read, header included.
    bytes_received: Counter,
    /// Sends that found the socket's window full and had to wait.
    window_stalls: Counter,
    /// Dial retries before the peer accepted.
    reconnects: Counter,
    /// Link instances created under this name pair.
    instances: Counter,
    /// Statically verified k-MC bound; 0 = not registered.
    bound: AtomicU64,
    /// Batch-receive (ring) or send (socket) window; 0 = not registered.
    window: AtomicU64,
    /// Send→recv latency: fed by the stamp ring on a ring, by each
    /// frame's trace context on a socket.
    latency: Histogram,
    /// Monotone index of the next send stamp.
    stamp_send_seq: AtomicU64,
    /// Monotone index of the next recv stamp read.
    stamp_recv_seq: AtomicU64,
    /// Recv stamps whose slot had been overwritten — counted, never
    /// recorded as a latency.
    stamp_misses: Counter,
    /// The stamp ring itself: [`STAMP_SLOTS`] slots.
    stamps: Box<[StampSlot]>,
}

static LINKS: Registry<(&'static str, &'static str), LinkCell> =
    Registry::new(|(from, to)| LinkCell {
        from,
        to,
        stamps: (0..STAMP_SLOTS).map(|_| StampSlot::default()).collect(),
        ..LinkCell::default()
    });

/// Hot-path statistics handle stored inside each instrumented SPSC ring
/// and, one per direction, each socket link.
///
/// A ZST in disabled builds; [`Default`] yields an *unlabelled* handle
/// whose recorders are no-ops even with telemetry on (anonymous channels
/// — join handles, baselines — stay untracked).
#[derive(Clone, Default)]
pub struct LinkStats {
    cell: Handle<LinkCell>,
}

impl LinkStats {
    /// Records an observed queue depth (messages in flight immediately
    /// after a send), raising the link's high-watermark.
    ///
    /// In debug builds this also asserts the depth stays within the
    /// registered k-MC bound, turning the checker's static guarantee into
    /// a runtime invariant; release builds only report the violation via
    /// [`snapshot`] (`high_watermark > kmc_bound`).
    #[inline]
    pub fn record_depth(&self, depth: u64) {
        if let Some(cell) = self.cell.attached() {
            cell.high_watermark.record_max(depth);
            if cfg!(debug_assertions) {
                let bound = cell.bound.load(Ordering::Relaxed);
                assert!(
                    bound == 0 || depth <= bound,
                    "channel {} -> {} exceeded its verified k-MC bound: \
                     depth {depth} > k = {bound}",
                    cell.from,
                    cell.to,
                );
            }
        }
    }

    recorder! {
        /// Records one ring growth event.
        record_grow => |cell| cell.grows.incr()
    }

    recorder! {
        /// Records one published message.
        record_send => |cell| cell.sends.incr()
    }

    recorder! {
        /// Records one delivered consumer wakeup.
        record_wake => |cell| cell.wakes.incr()
    }

    /// Records one frame written to the socket carrying `bytes` bytes
    /// (header included); it counts as a send.
    #[inline]
    pub fn record_frame_sent(&self, bytes: u64) {
        if let Some(cell) = self.cell.attached() {
            cell.sends.incr();
            cell.bytes_sent.add(bytes);
        }
    }

    /// Records one frame decoded off the socket carrying `bytes` bytes
    /// (header included).
    #[inline]
    pub fn record_frame_received(&self, bytes: u64) {
        if let Some(cell) = self.cell.attached() {
            cell.received.incr();
            cell.bytes_received.add(bytes);
        }
    }

    recorder! {
        /// Records one send that found the socket's window full and had
        /// to wait.
        record_window_stall => |cell| cell.window_stalls.incr()
    }

    recorder! {
        /// Records one dial retry before the peer accepted.
        record_reconnect => |cell| cell.reconnects.incr()
    }

    /// Records one send→recv latency in nanoseconds measured by the
    /// caller (a socket frame's sender timestamp, already shifted into
    /// the receiver's clock).
    #[inline]
    pub fn record_latency(&self, ns: u64) {
        if let Some(cell) = self.cell.attached() {
            cell.latency.record(ns);
        }
    }

    /// Publishes a send timestamp into the link's stamp ring. Called at
    /// slot commit, *before* the tail release store, so the matching
    /// receive — which cannot observe the message earlier — finds the
    /// stamp already tagged.
    #[inline]
    pub fn stamp_send(&self) {
        if let Some(cell) = self.cell.attached() {
            let index = cell.stamp_send_seq.fetch_add(1, Ordering::Relaxed);
            let slot = &cell.stamps[index as usize & (STAMP_SLOTS - 1)];
            slot.t.store(crate::trace::now_ns(), Ordering::Relaxed);
            slot.tag.store(index + 1, Ordering::Release);
        }
    }

    /// Consumes the next recv stamp and records `now - send_time` into
    /// the link's latency histogram. Seqlock-validated: if the slot's
    /// tag does not match this receive's index (ring overwritten, or the
    /// send never stamped), the read is a counted miss, never a bogus
    /// latency.
    #[inline]
    pub fn stamp_recv(&self) {
        if let Some(cell) = self.cell.attached() {
            let index = cell.stamp_recv_seq.fetch_add(1, Ordering::Relaxed);
            let slot = &cell.stamps[index as usize & (STAMP_SLOTS - 1)];
            if slot.tag.load(Ordering::Acquire) == index + 1 {
                let t = slot.t.load(Ordering::Relaxed);
                // Revalidate: a racing sender lapping the ring would
                // have bumped the tag past ours.
                if slot.tag.load(Ordering::Acquire) == index + 1 {
                    cell.latency
                        .record(crate::trace::now_ns().saturating_sub(t));
                    return;
                }
            }
            cell.stamp_misses.incr();
        }
    }

    /// Consumes `n` recv stamps (a batch drain observed at one instant).
    #[inline]
    pub fn stamp_recv_batch(&self, n: u64) {
        for _ in 0..n {
            self.stamp_recv();
        }
    }
}

/// Registers (or re-attaches to) the directed link `from → to` and
/// returns its hot-path handle. No-op handle in disabled builds.
pub fn register(from: &'static str, to: &'static str) -> LinkStats {
    let stats = attach(from, to);
    if let Some(cell) = stats.cell.attached() {
        cell.instances.incr();
    }
    stats
}

/// Attaches to the directed link `from → to` *without* counting a new
/// instance: connection setup (a dial retry loop) records onto the same
/// cell without inflating `instances`. No-op handle in disabled builds.
pub fn attach(from: &'static str, to: &'static str) -> LinkStats {
    LinkStats {
        cell: LINKS.attach((from, to)),
    }
}

/// Registers the statically verified k-MC bound for the directed link
/// `from → to`. Re-registration keeps the larger bound (two protocols
/// sharing role names must both hold, so the looser cap is the one every
/// observation is checked against).
pub fn set_bound(from: &'static str, to: &'static str, k: u64) {
    LINKS.raise((from, to), |cell| &cell.bound, k);
}

/// Registers the window the link `from → to` runs with — a ring's
/// batch-receive window, a socket's send window — so snapshots can
/// check it against the registered k-MC bound. Re-registration keeps
/// the larger window (mirroring [`set_bound`]).
pub fn set_window(from: &'static str, to: &'static str, window: u64) {
    LINKS.raise((from, to), |cell| &cell.window, window);
}

/// Point-in-time statistics for one directed link.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinkSnapshot {
    /// Sending role name.
    pub from: &'static str,
    /// Receiving role name.
    pub to: &'static str,
    /// Maximum observed occupancy across all instances.
    pub high_watermark: u64,
    /// Ring growth events.
    pub grows: u64,
    /// Messages published.
    pub sends: u64,
    /// Consumer wakeups delivered.
    pub wakes: u64,
    /// Frames decoded off the socket.
    pub received: u64,
    /// Frame bytes written (header included).
    pub bytes_sent: u64,
    /// Frame bytes read (header included).
    pub bytes_received: u64,
    /// Sends that found the socket's window full and had to wait.
    pub window_stalls: u64,
    /// Dial retries before the peer accepted.
    pub reconnects: u64,
    /// Link instances created under this name pair.
    pub instances: u64,
    /// Registered k-MC bound, if any.
    pub kmc_bound: Option<u64>,
    /// Registered batch-receive or send window, if any.
    pub window: Option<u64>,
    /// Send→recv latency distribution (empty until a sample lands).
    pub latency: HistogramSnapshot,
    /// Recv stamps that failed seqlock validation.
    pub stamp_misses: u64,
}

impl LinkSnapshot {
    /// True when a bound is registered and the observation exceeds it.
    pub fn violates_bound(&self) -> bool {
        matches!(self.kmc_bound, Some(k) if self.high_watermark > k)
    }
}

/// Snapshots every registered link, sorted by `(from, to)`. Empty in
/// disabled builds.
pub fn snapshot() -> Vec<LinkSnapshot> {
    LINKS.snapshot(|(from, to), cell| {
        let bound = cell.bound.load(Ordering::Relaxed);
        let window = cell.window.load(Ordering::Relaxed);
        LinkSnapshot {
            from,
            to,
            high_watermark: cell.high_watermark.get(),
            grows: cell.grows.get(),
            sends: cell.sends.get(),
            wakes: cell.wakes.get(),
            received: cell.received.get(),
            bytes_sent: cell.bytes_sent.get(),
            bytes_received: cell.bytes_received.get(),
            window_stalls: cell.window_stalls.get(),
            reconnects: cell.reconnects.get(),
            instances: cell.instances.get(),
            kmc_bound: (bound > 0).then_some(bound),
            window: (window > 0).then_some(window),
            latency: cell.latency.snapshot(),
            stamp_misses: cell.stamp_misses.get(),
        }
    })
}

/// Clears the registry (tests and trace tools isolating phases).
pub fn reset() {
    LINKS.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watermark_and_bound_round_trip() {
        let stats = register("TestA", "TestB");
        set_bound("TestA", "TestB", 3);
        stats.record_depth(1);
        stats.record_depth(3);
        stats.record_depth(2);
        stats.record_grow();
        let links = snapshot();
        if crate::ENABLED {
            let link = links
                .iter()
                .find(|l| l.from == "TestA" && l.to == "TestB")
                .expect("registered link in snapshot");
            assert_eq!(link.high_watermark, 3);
            assert_eq!(link.kmc_bound, Some(3));
            assert_eq!(link.grows, 1);
            assert!(!link.violates_bound());
        } else {
            assert!(links.is_empty());
        }
    }

    #[test]
    fn instances_merge_into_one_cell() {
        let first = register("MergeA", "MergeB");
        let second = register("MergeA", "MergeB");
        first.record_depth(2);
        second.record_depth(5);
        if crate::ENABLED {
            let links = snapshot();
            let link = links.iter().find(|l| l.from == "MergeA").unwrap();
            assert_eq!(link.instances, 2);
            assert_eq!(link.high_watermark, 5);
        }
    }

    #[test]
    fn data_plane_counters_round_trip() {
        let stats = register("PlaneA", "PlaneB");
        set_bound("PlaneA", "PlaneB", 8);
        set_window("PlaneA", "PlaneB", 8);
        for _ in 0..10 {
            stats.record_send();
        }
        stats.record_wake();
        let links = snapshot();
        if crate::ENABLED {
            let link = links.iter().find(|l| l.from == "PlaneA").unwrap();
            assert_eq!(link.sends, 10);
            assert_eq!(link.wakes, 1);
            assert_eq!(link.window, Some(8));
            // The messages-per-wake economy the batch path is judged by.
            assert!(link.wakes < link.sends);
        } else {
            assert!(links.is_empty());
        }
    }

    #[test]
    fn socket_counters_round_trip() {
        let stats = register("NetA", "NetB");
        set_window("NetA", "NetB", 4);
        set_bound("NetA", "NetB", 4);
        stats.record_frame_sent(12);
        stats.record_frame_sent(20);
        stats.record_frame_received(12);
        stats.record_window_stall();
        stats.record_latency(1_500);
        stats.record_latency(2_500);
        // A dial retry lands on the same cell without a new instance.
        attach("NetA", "NetB").record_reconnect();
        let links = snapshot();
        if crate::ENABLED {
            let link = links
                .iter()
                .find(|l| l.from == "NetA" && l.to == "NetB")
                .expect("registered link in snapshot");
            assert_eq!(link.sends, 2);
            assert_eq!(link.bytes_sent, 32);
            assert_eq!(link.received, 1);
            assert_eq!(link.bytes_received, 12);
            assert_eq!(link.window_stalls, 1);
            assert_eq!(link.reconnects, 1);
            assert_eq!(link.instances, 1);
            assert_eq!(link.window, Some(4));
            assert_eq!(link.kmc_bound, Some(4));
            assert_eq!(link.latency.count, 2);
            assert!(link.latency.max >= 2_500);
            assert_eq!(link.stamp_misses, 0);
        } else {
            assert!(links.is_empty());
        }
    }

    #[test]
    fn stamp_pairs_record_latency() {
        let stats = register("StampA", "StampB");
        for _ in 0..100 {
            stats.stamp_send();
            stats.stamp_recv();
        }
        let links = snapshot();
        if crate::ENABLED {
            let link = links.iter().find(|l| l.from == "StampA").unwrap();
            assert_eq!(link.latency.count, 100);
            assert_eq!(link.stamp_misses, 0);
            assert!(link.latency.p50() <= link.latency.max);
        } else {
            assert!(links.is_empty());
        }
    }

    #[test]
    fn unmatched_recv_stamps_miss_safely() {
        // Receives whose sends never stamped must miss, not fabricate
        // data.
        let stats = register("MissA", "MissB");
        stats.stamp_recv_batch(5);
        let links = snapshot();
        if crate::ENABLED {
            let link = links.iter().find(|l| l.from == "MissA").unwrap();
            assert!(link.latency.is_empty());
            assert_eq!(link.stamp_misses, 5);
        }
    }

    #[test]
    fn lapped_stamp_ring_misses_instead_of_lying() {
        let stats = register("LapA", "LapB");
        // Send far past the ring capacity without consuming: the first
        // 1024 recv indices find slots overwritten by later sends.
        for _ in 0..(1024 + 64) {
            stats.stamp_send();
        }
        for _ in 0..64 {
            stats.stamp_recv();
        }
        let links = snapshot();
        if crate::ENABLED {
            let link = links.iter().find(|l| l.from == "LapA").unwrap();
            assert_eq!(link.latency.count + link.stamp_misses, 64);
            assert_eq!(link.stamp_misses, 64, "lapped slots must not match");
        }
    }

    #[test]
    fn unlabelled_stats_are_inert() {
        let stats = LinkStats::default();
        stats.record_depth(1000);
        stats.record_grow();
        stats.record_send();
        stats.record_wake();
        stats.record_frame_sent(100);
        stats.record_frame_received(100);
        stats.record_window_stall();
        stats.record_reconnect();
        stats.record_latency(9);
        stats.stamp_send();
        stats.stamp_recv();
        stats.stamp_recv_batch(3);
        // No panic, nothing registered.
    }
}
