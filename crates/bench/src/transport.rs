//! Networked-transport microbenchmarks behind `fig6 --json`.
//!
//! The distributed backend frames session messages over a socket and
//! caps each direction's in-flight window at the link's verified k-MC
//! bound; these rows measure that path end to end — hand-rolled wire
//! encoding, length-prefixed framing in the link's write buffer, the
//! task's own non-blocking socket calls, the readiness wake-up and the
//! kernel loopback hop — isolated from protocol logic:
//!
//! * **tcp ping-pong** — two tasks bounce a token over a connected
//!   loopback TCP pair: one framed hop each way per round, the latency
//!   shape of an alternating session (window 1 suffices and is the
//!   verified bound for such a protocol).
//! * **uds ping-pong** — the identical workload over a Unix-domain
//!   socket pair, separating protocol-stack cost from framing cost.
//! * **tcp burst** — one producer floods a k-bounded window while the
//!   consumer drains: throughput of the framed path with back-pressure
//!   engaged.
//!
//! Every link is labelled with the `Net*` role names below so the
//! `--telemetry` artifact reports the transport rows separately from
//! the in-process channel rows.

use executor::Runtime;
use rumpsteak::net::{loopback_pair_tcp, loopback_pair_uds, NetLink};

/// Telemetry label of the ping-pong link (pinging side).
pub const NET_PING: &str = "NetPing";
/// Telemetry label of the ping-pong link (echoing side).
pub const NET_PONG: &str = "NetPong";
/// Telemetry label of the burst link (producer side).
pub const NET_BURST_FROM: &str = "NetBurstSrc";
/// Telemetry label of the burst link (consumer side).
pub const NET_BURST_TO: &str = "NetBurstSink";

/// Send window of the ping-pong links: an alternating protocol never
/// has more than one message in flight per direction, so k = 1.
pub const PING_PONG_WINDOW: usize = 1;
/// Send window of the burst link, mirroring the in-process burst row's
/// turn size so the two are comparable.
pub const BURST_WINDOW: usize = 64;

/// Bounces a token `rounds` times over a connected loopback pair;
/// returns the number of round trips completed.
fn ping_pong(rt: &Runtime, mut ping: NetLink<u32>, mut pong: NetLink<u32>, rounds: u32) -> u64 {
    let ponger = rt.spawn(async move {
        while let Some(value) = pong.recv().await {
            if pong.send(value).await.is_err() {
                break;
            }
        }
    });
    let pinger = rt.spawn(async move {
        let mut trips = 0u64;
        for round in 0..rounds {
            ping.send(round).await.unwrap();
            assert_eq!(ping.recv().await, Some(round));
            trips += 1;
        }
        trips
    });
    let trips = rt.block_on(pinger).unwrap();
    rt.block_on(ponger).unwrap();
    trips
}

/// Framed ping-pong over loopback TCP with k-MC window 1 each way.
pub fn tcp_ping_pong(rt: &Runtime, rounds: u32) -> u64 {
    let (ping, pong) = loopback_pair_tcp::<u32>(
        NET_PING,
        NET_PONG,
        Some(PING_PONG_WINDOW),
        Some(PING_PONG_WINDOW),
    )
    .expect("loopback TCP pair");
    ping_pong(rt, ping, pong, rounds)
}

/// Framed ping-pong over a Unix-domain socket pair with k-MC window 1
/// each way.
pub fn uds_ping_pong(rt: &Runtime, rounds: u32) -> u64 {
    let (ping, pong) = loopback_pair_uds::<u32>(
        NET_PING,
        NET_PONG,
        Some(PING_PONG_WINDOW),
        Some(PING_PONG_WINDOW),
    )
    .expect("loopback UDS pair");
    ping_pong(rt, ping, pong, rounds)
}

/// Floods `messages` values through one k-bounded TCP direction while
/// the far side drains; returns the number received in order.
pub fn tcp_burst(rt: &Runtime, messages: u32) -> u64 {
    let (mut source, mut sink) =
        loopback_pair_tcp::<u32>(NET_BURST_FROM, NET_BURST_TO, Some(BURST_WINDOW), Some(1))
            .expect("loopback TCP pair");
    let consumer = rt.spawn(async move {
        let mut received = 0u64;
        let mut expected = 0u32;
        while let Some(value) = sink.recv().await {
            assert_eq!(value, expected, "framed delivery out of order");
            expected += 1;
            received += 1;
        }
        received
    });
    let producer = rt.spawn(async move {
        for next in 0..messages {
            source.send(next).await.unwrap();
        }
        // Dropping the link flushes what the socket has not taken yet,
        // then shuts the write half down, so the consumer sees EOF only
        // after the last frame.
    });
    rt.block_on(producer).unwrap();
    rt.block_on(consumer).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dep_telemetry as telemetry;

    fn runtime() -> Runtime {
        Runtime::new(1)
    }

    #[test]
    fn tcp_ping_pong_completes_every_round() {
        let rt = runtime();
        assert_eq!(tcp_ping_pong(&rt, 64), 64);
    }

    #[test]
    fn uds_ping_pong_completes_every_round() {
        let rt = runtime();
        assert_eq!(uds_ping_pong(&rt, 64), 64);
    }

    #[test]
    fn tcp_burst_delivers_in_order() {
        let rt = runtime();
        assert_eq!(tcp_burst(&rt, 512), 512);
    }

    #[test]
    fn transport_telemetry_tracks_frames_and_windows() {
        if !telemetry::ENABLED {
            return;
        }
        telemetry::transport::reset();
        telemetry::channel::reset();
        let rt = runtime();
        let rounds = 32;
        assert_eq!(tcp_ping_pong(&rt, rounds), u64::from(rounds));
        let links = telemetry::transport::snapshot();
        let outbound = links
            .iter()
            .find(|link| link.from == NET_PING && link.to == NET_PONG)
            .expect("ping link registered");
        assert!(outbound.frames_sent >= u64::from(rounds));
        assert!(outbound.bytes_sent > outbound.frames_sent);
        assert_eq!(outbound.send_window, Some(PING_PONG_WINDOW as u64));
        assert_eq!(outbound.kmc_bound, Some(PING_PONG_WINDOW as u64));
        assert!(!outbound.window_exceeds_bound());
        // The link reports its window occupancy under the same label,
        // so the channel registry proves the watermark never exceeded k.
        let channels = telemetry::channel::snapshot();
        let ring = channels
            .iter()
            .find(|link| link.from == NET_PING && link.to == NET_PONG)
            .expect("channel cell registered under the same label");
        assert!(!ring.violates_bound());
        telemetry::transport::reset();
        telemetry::channel::reset();
    }
}
