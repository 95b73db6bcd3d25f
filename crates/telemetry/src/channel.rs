//! Per-link channel statistics and the k-MC bound registry.
//!
//! Session links are SPSC rings between two *named* roles; the executor
//! registers each direction here as `from → to` when a labelled link is
//! created, and the generated `connect()` (or a hand-written `roles!`
//! `bounds` clause) registers the statically verified k-MC bound for the
//! same pair. All instances of a named link share one `LinkCell`, so
//! the reported high-watermark is the maximum over every session ever
//! run — which is exactly the quantity the static bound promises to cap.
//!
//! Beyond the watermark-vs-bound check, the cell carries the data-plane
//! efficiency counters the batch path is judged by: `sends` against
//! `wakes` (how many messages travelled per waker handoff) and `batches`
//! against `batched_messages` (the realised batch factor). The
//! registered `batch_window` mirrors the k-MC bound
//! the receive window was sized from, so tooling can assert
//! `batch_window <= kmc_bound` per link.
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
    /// Waker-handoff CAS retries (contended registration/wake races).
    waker_retries: Counter,
    /// Messages published.
    sends: Counter,
    /// Consumer wakeups actually delivered (armed waker handed to the
    /// scheduler); `sends - wakes` messages travelled for free.
    wakes: Counter,
    /// Batch-receive drains performed.
    batches: Counter,
    /// Messages moved by those drains (`batched_messages / batches` is
    /// the realised window).
    batched_messages: Counter,
    /// Link instances created under this name pair.
    instances: Counter,
    /// Statically verified k-MC bound; 0 = not registered.
    bound: AtomicU64,
    /// Batch-receive window the link runs with; 0 = not registered.
    batch_window: AtomicU64,
    /// Send→recv latency histogram fed by the stamp ring.
    latency: Histogram,
    /// Monotone index of the next send stamp.
    stamp_send_seq: AtomicU64,
    /// Monotone index of the next recv stamp read.
    stamp_recv_seq: AtomicU64,
    /// Recv stamps whose slot had been overwritten (or whose sender ran
    /// in another process) — counted, never recorded as a latency.
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

/// Hot-path statistics handle stored inside each instrumented SPSC ring.
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
        /// Records one waker-handoff CAS retry.
        record_waker_retry => |cell| cell.waker_retries.incr()
    }

    recorder! {
        /// Records one published message.
        record_send => |cell| cell.sends.incr()
    }

    recorder! {
        /// Records one delivered consumer wakeup.
        record_wake => |cell| cell.wakes.incr()
    }

    /// Records one batch-receive drain of `n` messages.
    #[inline]
    pub fn record_batch(&self, n: u64) {
        if let Some(cell) = self.cell.attached() {
            cell.batches.incr();
            cell.batched_messages.add(n);
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
    /// sender lives in another process and never stamped), the read is a
    /// counted miss, never a bogus latency.
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
    let stats = LinkStats {
        cell: LINKS.attach((from, to)),
    };
    if let Some(cell) = stats.cell.attached() {
        cell.instances.incr();
    }
    stats
}

/// Registers the statically verified k-MC bound for the directed link
/// `from → to`. Re-registration keeps the larger bound (two protocols
/// sharing role names must both hold, so the looser cap is the one every
/// observation is checked against).
pub fn set_bound(from: &'static str, to: &'static str, k: u64) {
    LINKS.raise((from, to), |cell| &cell.bound, k);
}

/// Registers the batch-receive window the link `from → to` runs with,
/// so snapshots can check it against the registered k-MC bound.
/// Re-registration keeps the larger window (mirroring [`set_bound`]).
pub fn set_batch_window(from: &'static str, to: &'static str, window: u64) {
    LINKS.raise((from, to), |cell| &cell.batch_window, window);
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
    /// Waker-handoff CAS retries.
    pub waker_retries: u64,
    /// Messages published.
    pub sends: u64,
    /// Consumer wakeups delivered.
    pub wakes: u64,
    /// Batch-receive drains.
    pub batches: u64,
    /// Messages moved by batch drains.
    pub batched_messages: u64,
    /// Link instances created under this name pair.
    pub instances: u64,
    /// Registered k-MC bound, if any.
    pub kmc_bound: Option<u64>,
    /// Registered batch-receive window, if any.
    pub batch_window: Option<u64>,
    /// Send→recv latency distribution (empty when no stamp pair landed).
    pub latency: HistogramSnapshot,
    /// Recv stamps that failed seqlock validation.
    pub stamp_misses: u64,
}

impl LinkSnapshot {
    /// Headroom between the static bound and the observed watermark:
    /// `Some(bound - high_watermark)` when a bound is registered and
    /// holds, `None` when unregistered or violated.
    pub fn slack(&self) -> Option<u64> {
        self.kmc_bound
            .and_then(|k| k.checked_sub(self.high_watermark))
    }

    /// True when a bound is registered and the observation exceeds it.
    pub fn violates_bound(&self) -> bool {
        matches!(self.kmc_bound, Some(k) if self.high_watermark > k)
    }

    /// True when a batch window is registered *above* the registered
    /// k-MC bound — draining more than k per round-trip would read past
    /// what the verification covers.
    pub fn violates_batch_window(&self) -> bool {
        matches!(
            (self.batch_window, self.kmc_bound),
            (Some(window), Some(k)) if window > k
        )
    }
}

/// Snapshots every registered link, sorted by `(from, to)`. Empty in
/// disabled builds.
pub fn snapshot() -> Vec<LinkSnapshot> {
    LINKS.snapshot(|(from, to), cell| {
        let bound = cell.bound.load(Ordering::Relaxed);
        let batch_window = cell.batch_window.load(Ordering::Relaxed);
        LinkSnapshot {
            from,
            to,
            high_watermark: cell.high_watermark.get(),
            grows: cell.grows.get(),
            waker_retries: cell.waker_retries.get(),
            sends: cell.sends.get(),
            wakes: cell.wakes.get(),
            batches: cell.batches.get(),
            batched_messages: cell.batched_messages.get(),
            instances: cell.instances.get(),
            kmc_bound: (bound > 0).then_some(bound),
            batch_window: (batch_window > 0).then_some(batch_window),
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
            assert_eq!(link.slack(), Some(0));
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
        set_batch_window("PlaneA", "PlaneB", 8);
        for _ in 0..10 {
            stats.record_send();
        }
        stats.record_wake();
        stats.record_batch(6);
        stats.record_batch(4);
        let links = snapshot();
        if crate::ENABLED {
            let link = links.iter().find(|l| l.from == "PlaneA").unwrap();
            assert_eq!(link.sends, 10);
            assert_eq!(link.wakes, 1);
            assert_eq!(link.batches, 2);
            assert_eq!(link.batched_messages, 10);
            assert_eq!(link.batch_window, Some(8));
            assert!(!link.violates_batch_window());
            // The messages-per-wake economy the batch path is judged by.
            assert!(link.wakes < link.sends);
        } else {
            assert!(links.is_empty());
        }
    }

    #[test]
    fn oversized_batch_window_is_flagged() {
        register("WideA", "WideB");
        set_bound("WideA", "WideB", 2);
        set_batch_window("WideA", "WideB", 5);
        if crate::ENABLED {
            let links = snapshot();
            let link = links.iter().find(|l| l.from == "WideA").unwrap();
            assert!(link.violates_batch_window());
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
        // Receiver side of a cross-process link: sends never stamped
        // locally, so every recv stamp must miss, not fabricate data.
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
        stats.record_waker_retry();
        stats.record_send();
        stats.record_wake();
        stats.record_batch(10);
        stats.stamp_send();
        stats.stamp_recv();
        stats.stamp_recv_batch(3);
        // No panic, nothing registered.
    }
}
