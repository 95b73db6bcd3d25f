//! Channel-layer microbenchmarks behind `fig6 --json`.
//!
//! The session data plane moved from a mutex-protected MPSC queue to the
//! lock-free SPSC ring in `executor::channel::spsc`; this module measures
//! exactly that boundary, isolated from protocol logic:
//!
//! * **spsc ping-pong** — two tasks bounce a token over a
//!   [`Bidirectional`] link: one message hop each way per round, the
//!   latency pattern the LIFO-slot direct handoff accelerates. This is
//!   the session-channel hot path (one fixed peer per endpoint).
//! * **mpsc ping-pong** — the identical workload over the mutex-backed
//!   [`unbounded`] MPSC channels, kept as the baseline the lock-free ring
//!   must beat.
//! * **spsc burst** — one producer floods a window of messages per turn
//!   while the consumer drains: throughput of the ring itself (slot
//!   writes, cached-index refreshes, growth) with wakeups amortised over
//!   whole bursts rather than paid per message.

use executor::channel::{unbounded, Bidirectional};
use executor::Runtime;

/// Messages each burst turn publishes before yielding to the consumer;
/// larger than the ring's initial capacity so growth stays on the path.
const BURST_WINDOW: u32 = 64;

/// Bounces a token `rounds` times over one [`Bidirectional`] SPSC link;
/// returns the number of round trips completed.
pub fn spsc_ping_pong(rt: &Runtime, rounds: u32) -> u64 {
    let (mut ping, mut pong) = Bidirectional::pair();
    let ponger = rt.spawn(async move {
        while let Some(value) = pong.recv().await {
            if pong.send(value).is_err() {
                break;
            }
        }
    });
    let pinger = rt.spawn(async move {
        let mut trips = 0u64;
        for round in 0..rounds {
            ping.send(round).unwrap();
            assert_eq!(ping.recv().await, Some(round));
            trips += 1;
        }
        trips
    });
    let trips = rt.block_on(pinger).unwrap();
    rt.block_on(ponger).unwrap();
    trips
}

/// The identical ping-pong over two mutex-backed MPSC channels: the
/// pre-refactor data plane, kept as the comparison baseline.
pub fn mpsc_ping_pong(rt: &Runtime, rounds: u32) -> u64 {
    let (ping_tx, mut ping_rx) = unbounded::<u32>();
    let (pong_tx, mut pong_rx) = unbounded::<u32>();
    let ponger = rt.spawn(async move {
        while let Some(value) = ping_rx.recv().await {
            if pong_tx.send(value).is_err() {
                break;
            }
        }
    });
    let pinger = rt.spawn(async move {
        let mut trips = 0u64;
        for round in 0..rounds {
            ping_tx.send(round).unwrap();
            assert_eq!(pong_rx.recv().await, Some(round));
            trips += 1;
        }
        drop(ping_tx);
        trips
    });
    let trips = rt.block_on(pinger).unwrap();
    rt.block_on(ponger).unwrap();
    trips
}

/// Floods `messages` values through one SPSC direction in
/// `BURST_WINDOW`-sized turns; returns the number received.
pub fn spsc_burst(rt: &Runtime, messages: u32) -> u64 {
    let (mut source, mut sink) = Bidirectional::pair();
    let consumer = rt.spawn(async move {
        let mut received = 0u64;
        let mut expected = 0u32;
        while let Some(value) = sink.recv().await {
            assert_eq!(value, expected, "burst delivery out of order");
            expected += 1;
            received += 1;
        }
        received
    });
    let producer = rt.spawn(async move {
        let mut next = 0u32;
        while next < messages {
            let window = BURST_WINDOW.min(messages - next);
            for _ in 0..window {
                source.send(next).unwrap();
                next += 1;
            }
            executor::yield_now().await;
        }
    });
    rt.block_on(producer).unwrap();
    rt.block_on(consumer).unwrap()
}

/// Writes a `payload`-byte message body: full-size fill (the realistic
/// cost of producing a payload) plus a sequence header for the in-order
/// check on the consumer side.
fn fill_payload(buf: &mut Vec<u8>, payload: usize, seq: u32) {
    buf.clear();
    buf.resize(payload, 0xA5);
    buf[..4].copy_from_slice(&seq.to_le_bytes());
}

/// Reads the sequence header back out of a payload.
fn payload_seq(buf: &[u8]) -> u32 {
    u32::from_le_bytes(buf[..4].try_into().expect("payload holds a header"))
}

/// Large-payload burst: every message is a freshly allocated `Vec<u8>`
/// of `payload` bytes, moved through an unbounded ring and freed by the
/// consumer — O(messages) allocator traffic, one waker round-trip per
/// parked receive.
pub fn spsc_burst_payload(rt: &Runtime, messages: u32, payload: usize) -> u64 {
    let (mut source, mut sink) = Bidirectional::pair();
    let consumer = rt.spawn(async move {
        let mut received = 0u64;
        let mut expected = 0u32;
        while let Some(buf) = sink.recv().await {
            let buf: Vec<u8> = buf;
            assert_eq!(buf.len(), payload, "payload truncated");
            assert_eq!(payload_seq(&buf), expected, "payload burst out of order");
            expected += 1;
            received += 1;
        }
        received
    });
    let producer = rt.spawn(async move {
        let mut next = 0u32;
        while next < messages {
            let window = BURST_WINDOW.min(messages - next);
            for _ in 0..window {
                let mut buf = Vec::with_capacity(payload);
                fill_payload(&mut buf, payload, next);
                source.send(buf).unwrap();
                next += 1;
            }
            executor::yield_now().await;
        }
    });
    rt.block_on(producer).unwrap();
    rt.block_on(consumer).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spsc_ping_pong_counts_round_trips() {
        let rt = Runtime::new(2);
        assert_eq!(spsc_ping_pong(&rt, 100), 100);
    }

    #[test]
    fn mpsc_ping_pong_counts_round_trips() {
        let rt = Runtime::new(2);
        assert_eq!(mpsc_ping_pong(&rt, 100), 100);
    }

    #[test]
    fn burst_delivers_every_message_in_order() {
        let rt = Runtime::new(2);
        // Not a multiple of the window, so the tail turn is partial.
        assert_eq!(spsc_burst(&rt, 1000), 1000);
    }

    #[test]
    fn payload_burst_delivers_every_message_in_order() {
        let rt = Runtime::new(2);
        assert_eq!(spsc_burst_payload(&rt, 500, 1024), 500);
    }
}
