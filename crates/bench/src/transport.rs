//! Networked-transport workloads over loopback sockets.
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
//! Every link is labelled with the `Net*` role names below, so in an
//! instrumented (`--features telemetry`) build its rows in the link
//! registry are told apart from the in-process rings'; the tests below
//! check each link's ledgers there.

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

    use std::sync::mpsc;
    use std::sync::{Mutex, PoisonError};
    use std::time::Duration;

    /// Serialises the tests that run a link: each resets the link
    /// registry and reads its own rows back exactly.
    static LINKS: Mutex<()> = Mutex::new(());

    /// Runs `test` on its own thread and panics if it has not finished
    /// within a minute: workers park without a timeout, so a lost wake
    /// or baton hand-off would otherwise hang the test binary. A panic
    /// in `test` is passed on as is.
    fn within(test: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let body = std::thread::spawn(move || {
            test();
            let _ = done.send(());
        });
        if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(60))
        {
            panic!("hung for 60 s: a task was never woken");
        }
        if let Err(panic) = body.join() {
            std::panic::resume_unwind(panic);
        }
    }

    fn runtime() -> Runtime {
        Runtime::new(1)
    }

    /// Runs `ping_pong` for `rounds` on a fresh link registry, then
    /// checks both directions' ledgers: every frame sent was received,
    /// byte for byte, each with one latency sample, through a window of
    /// exactly the verified bound 1 (a no-op without telemetry).
    fn assert_ping_pong_ledgers(ping_pong: fn(&Runtime, u32) -> u64, rounds: u32) {
        within(move || {
            let _links = LINKS.lock().unwrap_or_else(PoisonError::into_inner);
            telemetry::channel::reset();
            let rt = runtime();
            assert_eq!(ping_pong(&rt, rounds), u64::from(rounds));
            let links = telemetry::channel::snapshot();
            if !telemetry::ENABLED {
                assert!(links.is_empty());
                return;
            }
            for (from, to) in [(NET_PING, NET_PONG), (NET_PONG, NET_PING)] {
                let link = links
                    .iter()
                    .find(|link| link.from == from && link.to == to)
                    .unwrap_or_else(|| panic!("ping-pong link {from} -> {to} registered"));
                assert_eq!(link.sends, u64::from(rounds), "{from} -> {to}");
                assert_eq!(link.received, link.sends, "{from} -> {to}");
                assert_eq!(link.bytes_received, link.bytes_sent, "{from} -> {to}");
                assert_eq!(link.latency.count, link.received, "{from} -> {to}");
                assert_eq!(link.window, Some(PING_PONG_WINDOW as u64), "{from} -> {to}");
                assert_eq!(
                    link.kmc_bound,
                    Some(PING_PONG_WINDOW as u64),
                    "{from} -> {to}"
                );
                assert!(!link.violates_bound(), "{from} -> {to}");
            }
            telemetry::channel::reset();
        });
    }

    #[test]
    fn tcp_ping_pong_completes_every_round() {
        assert_ping_pong_ledgers(tcp_ping_pong, 64);
    }

    #[test]
    fn uds_ping_pong_completes_every_round() {
        assert_ping_pong_ledgers(uds_ping_pong, 64);
    }

    #[test]
    fn tcp_burst_delivers_in_order() {
        within(|| {
            let _links = LINKS.lock().unwrap_or_else(PoisonError::into_inner);
            let rt = runtime();
            assert_eq!(tcp_burst(&rt, 512), 512);
        });
    }

    /// The producer runs thousands of frames ahead of the consumer (the
    /// kernel holds what the window does not), yet every frame decoded
    /// yields one latency sample, taken from its own trace context.
    #[test]
    fn tcp_burst_records_one_latency_sample_per_frame() {
        if !telemetry::ENABLED {
            return;
        }
        within(|| {
            let _links = LINKS.lock().unwrap_or_else(PoisonError::into_inner);
            telemetry::channel::reset();
            let rt = runtime();
            let messages = 20_000;
            assert_eq!(tcp_burst(&rt, messages), u64::from(messages));
            let links = telemetry::channel::snapshot();
            let link = links
                .iter()
                .find(|link| link.from == NET_BURST_FROM && link.to == NET_BURST_TO)
                .expect("burst link registered");
            assert_eq!(link.sends, u64::from(messages));
            assert_eq!(link.received, link.sends);
            assert_eq!(link.bytes_received, link.bytes_sent);
            assert!(link.bytes_sent > link.sends);
            assert_eq!(link.latency.count, link.received);
            assert_eq!(link.stamp_misses, 0);
            assert_eq!(link.window, Some(BURST_WINDOW as u64));
            assert_eq!(link.kmc_bound, Some(BURST_WINDOW as u64));
            assert!(!link.violates_bound());
            telemetry::channel::reset();
        });
    }
}
