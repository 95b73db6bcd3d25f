//! Per-link statistics for the networked transport backend.
//!
//! Remote session links are framed sockets between two *named* roles;
//! the transport layer registers each direction here as `from → to`
//! when a [`NetLink`](../../rumpsteak/net) is established, and the
//! generated `remote_mesh()` (or a hand-written topology setup)
//! registers both the socket send window the link was built with and
//! the statically verified k-MC bound that window was derived from.
//! All instances of a named link share one cell, so counters aggregate
//! across reconnects and repeated sessions.
//!
//! The cell carries the wire-efficiency counters the framed path is
//! judged by: `frames_sent`/`frames_received` against
//! `bytes_sent`/`bytes_received` (realised frame size), `window_stalls`
//! (sends that found the k-bounded window full and had to wait — the
//! verified back-pressure engaging) and `reconnects` (dial retries
//! while a peer was still binding). The registered `send_window`
//! mirrors the k-MC bound it was sized from, so tooling can assert
//! `send_window <= kmc_bound` per link; the occupancy watermark that
//! the bound promises to cap — frames accepted and not yet fully
//! written — is recorded by the link under the same role pair in
//! [`channel`](crate::channel), next to the in-process rings.
//!
//! Hot-path updates are relaxed atomic RMWs on the shared cell; the
//! global registry mutex is touched only on registration and
//! snapshots, never per frame.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::gate::{recorder, Handle, Registry};
use crate::hist::{Histogram, HistogramSnapshot};
use crate::Counter;

/// Shared statistics cell for one directed remote link `from → to`.
#[derive(Default)]
struct TransportCell {
    /// Frames written to the socket.
    frames_sent: Counter,
    /// Frames decoded off the socket.
    frames_received: Counter,
    /// Payload + header bytes written.
    bytes_sent: Counter,
    /// Payload + header bytes read.
    bytes_received: Counter,
    /// Sends that found the k-bounded window full and had to wait.
    window_stalls: Counter,
    /// Dial retries before the peer accepted.
    reconnects: Counter,
    /// Link instances created under this name pair.
    instances: Counter,
    /// Socket send window the link runs with; 0 = not registered.
    send_window: AtomicU64,
    /// Statically verified k-MC bound; 0 = not registered.
    kmc_bound: AtomicU64,
    /// Frame encode→decode wire latency, measured from the sender's
    /// trace-context timestamp adjusted by the handshake clock offset.
    wire_latency: Histogram,
}

static LINKS: Registry<(&'static str, &'static str), TransportCell> =
    Registry::new(|_| TransportCell::default());

/// Hot-path statistics handle stored inside each instrumented remote
/// link, one per direction.
///
/// A ZST in disabled builds; [`Default`] yields an *unlabelled* handle
/// whose recorders are no-ops even with telemetry on.
#[derive(Clone, Default)]
pub struct TransportStats {
    cell: Handle<TransportCell>,
}

impl TransportStats {
    /// Records one frame written to the socket carrying `bytes` bytes
    /// (header included).
    #[inline]
    pub fn record_frame_sent(&self, bytes: u64) {
        if let Some(cell) = self.cell.attached() {
            cell.frames_sent.incr();
            cell.bytes_sent.add(bytes);
        }
    }

    /// Records one frame decoded off the socket carrying `bytes` bytes
    /// (header included).
    #[inline]
    pub fn record_frame_received(&self, bytes: u64) {
        if let Some(cell) = self.cell.attached() {
            cell.frames_received.incr();
            cell.bytes_received.add(bytes);
        }
    }

    recorder! {
        /// Records one send that found the window full and had to wait.
        record_window_stall => |cell| cell.window_stalls.incr()
    }

    recorder! {
        /// Records one dial retry before the peer accepted.
        record_reconnect => |cell| cell.reconnects.incr()
    }

    /// Records one frame's encode→decode wire latency in nanoseconds
    /// (sender timestamp already shifted into the receiver's clock).
    #[inline]
    pub fn record_wire_latency(&self, ns: u64) {
        if let Some(cell) = self.cell.attached() {
            cell.wire_latency.record(ns);
        }
    }
}

/// Registers (or re-attaches to) the directed remote link `from → to`
/// and returns its hot-path handle. No-op handle in disabled builds.
pub fn register(from: &'static str, to: &'static str) -> TransportStats {
    let stats = attach(from, to);
    if let Some(cell) = stats.cell.attached() {
        cell.instances.incr();
    }
    stats
}

/// Attaches to the directed remote link `from → to` *without* counting
/// a new instance: connection setup (dial retry loops, handshake
/// plumbing) records onto the same counters without inflating
/// `instances`. No-op handle in disabled builds.
pub fn attach(from: &'static str, to: &'static str) -> TransportStats {
    TransportStats {
        cell: LINKS.attach((from, to)),
    }
}

/// Registers the socket send window the link `from → to` runs with.
/// Re-registration keeps the larger window (mirroring
/// [`channel::set_bound`](crate::channel::set_bound)).
pub fn set_window(from: &'static str, to: &'static str, window: u64) {
    LINKS.raise((from, to), |cell| &cell.send_window, window);
}

/// Registers the statically verified k-MC bound the link's window was
/// derived from. Re-registration keeps the larger bound.
pub fn set_bound(from: &'static str, to: &'static str, k: u64) {
    LINKS.raise((from, to), |cell| &cell.kmc_bound, k);
}

/// Point-in-time statistics for one directed remote link.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TransportSnapshot {
    /// Sending role name.
    pub from: &'static str,
    /// Receiving role name.
    pub to: &'static str,
    /// Frames written to the socket.
    pub frames_sent: u64,
    /// Frames decoded off the socket.
    pub frames_received: u64,
    /// Bytes written (header included).
    pub bytes_sent: u64,
    /// Bytes read (header included).
    pub bytes_received: u64,
    /// Sends that found the window full and had to wait.
    pub window_stalls: u64,
    /// Dial retries before the peer accepted.
    pub reconnects: u64,
    /// Link instances created under this name pair.
    pub instances: u64,
    /// Registered socket send window, if any.
    pub send_window: Option<u64>,
    /// Registered k-MC bound, if any.
    pub kmc_bound: Option<u64>,
    /// Frame encode→decode latency distribution (empty until a traced
    /// frame arrives).
    pub wire_latency: HistogramSnapshot,
}

impl TransportSnapshot {
    /// True when the send window is registered *above* the registered
    /// k-MC bound — buffering more than k frames would exceed what the
    /// verification covers.
    pub fn window_exceeds_bound(&self) -> bool {
        matches!(
            (self.send_window, self.kmc_bound),
            (Some(window), Some(k)) if window > k
        )
    }
}

/// Snapshots every registered remote link, sorted by `(from, to)`.
/// Empty in disabled builds.
pub fn snapshot() -> Vec<TransportSnapshot> {
    LINKS.snapshot(|(from, to), cell| {
        let window = cell.send_window.load(Ordering::Relaxed);
        let bound = cell.kmc_bound.load(Ordering::Relaxed);
        TransportSnapshot {
            from,
            to,
            frames_sent: cell.frames_sent.get(),
            frames_received: cell.frames_received.get(),
            bytes_sent: cell.bytes_sent.get(),
            bytes_received: cell.bytes_received.get(),
            window_stalls: cell.window_stalls.get(),
            reconnects: cell.reconnects.get(),
            instances: cell.instances.get(),
            send_window: (window > 0).then_some(window),
            kmc_bound: (bound > 0).then_some(bound),
            wire_latency: cell.wire_latency.snapshot(),
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
    fn counters_and_window_round_trip() {
        let stats = register("NetA", "NetB");
        set_window("NetA", "NetB", 4);
        set_bound("NetA", "NetB", 4);
        stats.record_frame_sent(12);
        stats.record_frame_sent(20);
        stats.record_frame_received(12);
        stats.record_window_stall();
        stats.record_reconnect();
        stats.record_wire_latency(1_500);
        stats.record_wire_latency(2_500);
        let links = snapshot();
        if crate::ENABLED {
            let link = links
                .iter()
                .find(|l| l.from == "NetA" && l.to == "NetB")
                .expect("registered link in snapshot");
            assert_eq!(link.frames_sent, 2);
            assert_eq!(link.bytes_sent, 32);
            assert_eq!(link.frames_received, 1);
            assert_eq!(link.bytes_received, 12);
            assert_eq!(link.window_stalls, 1);
            assert_eq!(link.reconnects, 1);
            assert_eq!(link.send_window, Some(4));
            assert_eq!(link.kmc_bound, Some(4));
            assert!(!link.window_exceeds_bound());
            assert_eq!(link.wire_latency.count, 2);
            assert!(link.wire_latency.max >= 2_500);
        } else {
            assert!(links.is_empty());
        }
    }

    #[test]
    fn oversized_window_is_flagged() {
        register("WinA", "WinB");
        set_window("WinA", "WinB", 7);
        set_bound("WinA", "WinB", 2);
        if crate::ENABLED {
            let links = snapshot();
            let link = links.iter().find(|l| l.from == "WinA").unwrap();
            assert!(link.window_exceeds_bound());
        }
    }

    #[test]
    fn instances_merge_into_one_cell() {
        let first = register("RetryA", "RetryB");
        let second = register("RetryA", "RetryB");
        first.record_window_stall();
        second.record_window_stall();
        if crate::ENABLED {
            let links = snapshot();
            let link = links.iter().find(|l| l.from == "RetryA").unwrap();
            assert_eq!(link.instances, 2);
            assert_eq!(link.window_stalls, 2);
        }
    }

    #[test]
    fn unlabelled_stats_are_inert() {
        let stats = TransportStats::default();
        stats.record_frame_sent(100);
        stats.record_frame_received(100);
        stats.record_window_stall();
        stats.record_reconnect();
        stats.record_wire_latency(9);
        // No panic, nothing registered.
    }
}
