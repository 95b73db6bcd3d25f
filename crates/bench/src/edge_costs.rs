//! Per-edge cost micro-profile behind `fig6 --json --edge-costs`.
//!
//! For each link class generated sessions can run on, this measures the
//! two numbers the optimiser's cost model prices rewrites with:
//!
//! * the fixed per-message cost of a send and of a receive
//!   (`send_base_ns` / `recv_base_ns`), and
//! * the marginal cost of each payload byte (`ns_per_byte`), taken as
//!   the slope between a 1 KiB and a 16 KiB payload sweep so the fixed
//!   costs divide out.
//!
//! The classes mirror `optimiser::cost::CostModel::default_table`:
//!
//! * **`spsc`** — the in-process lock-free ring, the data plane
//!   generated in-process code runs on. Send and receive are timed as
//!   separate phases (flood the ring, then drain it), so the split is
//!   measured rather than assumed. The per-byte slope comes from the
//!   alloc/move payload path: allocating and filling the payload *is*
//!   the honest per-byte cost of moving bytes through this class.
//! * **`tcp` / `uds`** — the framed socket transport over loopback.
//!   Base cost is half the measured ping-pong round trip (one framed
//!   hop), split evenly between send and receive since the wire path is
//!   symmetric; the slope comes from `Vec<u8>` payload bursts at the
//!   same two sizes.
//!
//! Every value is clamped non-negative so a noisy run can never emit a
//! profile `CostModel::from_profile` rejects.

use std::time::Instant;

use executor::channel::Bidirectional;
use executor::Runtime;
use optimiser::cost::ClassCost;
use rumpsteak::net::{loopback_pair_tcp, loopback_pair_uds, NetLink};

use theory::json;

use crate::transport;

/// Telemetry label of the payload-sweep links (producer side).
pub const EDGE_COST_FROM: &str = "EdgeCostSrc";
/// Telemetry label of the payload-sweep links (consumer side).
pub const EDGE_COST_TO: &str = "EdgeCostSink";

/// Payload sizes the per-byte slope is fitted between: the optimiser's
/// assumed `str` and custom-sort wire sizes.
const SLOPE_PAYLOADS: (usize, usize) = (1024, 16384);

/// Messages each payload-burst turn publishes before yielding to the
/// consumer; larger than the ring's initial capacity so growth stays on
/// the path.
const BURST_WINDOW: u32 = 64;

/// Send window of the socket payload sweeps, mirroring the burst rows.
const NET_WINDOW: usize = 64;

/// One entry of the artifact's `edge_costs.classes` array, at the
/// artifact's fixed precision.
fn class_cost(class: &str, send_base_ns: f64, recv_base_ns: f64, ns_per_byte: f64) -> ClassCost {
    ClassCost {
        class: class.to_owned(),
        send_base_ns: json::rounded(send_base_ns, 2),
        recv_base_ns: json::rounded(recv_base_ns, 2),
        ns_per_byte: json::rounded(ns_per_byte, 4),
    }
}

/// Times one run of `f` in nanoseconds.
fn timed(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_nanos() as f64
}

/// Best-of-`reps` (minimum) of a nanosecond measurement: the run least
/// disturbed by scheduler noise, which is what slope fitting wants.
fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps)
        .map(|_| f())
        .fold(f64::INFINITY, f64::min)
        .max(0.0)
}

/// Per-byte slope between the two payload sweeps, clamped non-negative.
fn slope(ns_small: f64, ns_large: f64) -> f64 {
    let (small, large) = SLOPE_PAYLOADS;
    ((ns_large - ns_small) / (large - small) as f64).max(0.0)
}

/// Floods the SPSC ring with `messages` values, then drains it: the two
/// phases time the send and receive halves of the hot path separately.
/// Returns (send ns/msg, recv ns/msg).
fn spsc_phases(rt: &Runtime, messages: u32) -> (f64, f64) {
    let (mut source, mut sink) = Bidirectional::pair();
    let send_ns = timed(|| {
        for value in 0..messages {
            source.send(value).unwrap();
        }
        drop(source);
    }) / f64::from(messages);
    let recv_ns = timed(|| {
        let received = rt
            .block_on(rt.spawn(async move {
                let mut received = 0u32;
                while let Some(value) = sink.recv().await {
                    assert_eq!(value, received, "edge-cost drain out of order");
                    received += 1;
                }
                received
            }))
            .unwrap();
        assert_eq!(received, messages, "edge-cost drain lost messages");
    }) / f64::from(messages);
    (send_ns, recv_ns)
}

/// Large-payload burst over the in-process ring: every message is a
/// freshly allocated and filled `Vec<u8>` of `payload` bytes carrying a
/// sequence header, moved through an unbounded ring in
/// [`BURST_WINDOW`]-sized turns and freed by the consumer.
fn spsc_burst_payload(rt: &Runtime, messages: u32, payload: usize) {
    let (mut source, mut sink) = Bidirectional::<Vec<u8>>::pair();
    let consumer = rt.spawn(async move {
        let mut expected = 0u32;
        while let Some(buf) = sink.recv().await {
            assert_eq!(buf.len(), payload, "payload truncated");
            let seq = u32::from_le_bytes(buf[..4].try_into().expect("payload holds a header"));
            assert_eq!(seq, expected, "payload burst out of order");
            expected += 1;
        }
        expected
    });
    let producer = rt.spawn(async move {
        let mut next = 0u32;
        while next < messages {
            for _ in 0..BURST_WINDOW.min(messages - next) {
                let mut buf = vec![0xA5; payload];
                buf[..4].copy_from_slice(&next.to_le_bytes());
                source.send(buf).unwrap();
                next += 1;
            }
            executor::yield_now().await;
        }
    });
    rt.block_on(producer).unwrap();
    assert_eq!(rt.block_on(consumer).unwrap(), messages);
}

/// Floods `messages` payload vectors through one framed socket
/// direction while the far side drains; returns total nanoseconds.
fn net_payload_burst(
    rt: &Runtime,
    links: (NetLink<Vec<u8>>, NetLink<Vec<u8>>),
    messages: u32,
    payload: usize,
) -> f64 {
    let (mut source, mut sink) = links;
    timed(|| {
        let consumer = rt.spawn(async move {
            let mut received = 0u64;
            while let Some(buf) = sink.recv().await {
                assert_eq!(buf.len(), payload, "edge-cost frame truncated");
                received += 1;
            }
            received
        });
        let producer = rt.spawn(async move {
            for _ in 0..messages {
                source.send(vec![0xA5; payload]).await.unwrap();
            }
        });
        rt.block_on(producer).unwrap();
        assert_eq!(rt.block_on(consumer).unwrap(), u64::from(messages));
    })
}

/// Measures every link class.
pub fn measure(rt: &Runtime) -> Vec<ClassCost> {
    let reps = 2;
    let spsc_messages: u32 = 4000;
    let payload_messages: u32 = 1000;
    let net_rounds: u32 = 500;
    let (small, large) = SLOPE_PAYLOADS;

    let mut classes = Vec::new();

    // spsc: measured send/recv split plus the alloc/move payload slope.
    let (mut send_ns, mut recv_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let (send, recv) = spsc_phases(rt, spsc_messages);
        send_ns = send_ns.min(send);
        recv_ns = recv_ns.min(recv);
    }
    let per_payload = |payload: usize| {
        best_of(reps, || {
            timed(|| {
                spsc_burst_payload(rt, payload_messages, payload);
            }) / f64::from(payload_messages)
        })
    };
    classes.push(class_cost(
        "spsc",
        send_ns.max(0.0),
        recv_ns.max(0.0),
        slope(per_payload(small), per_payload(large)),
    ));

    // tcp: one framed loopback hop is half the ping-pong round trip;
    // the wire path is symmetric, so send and receive split it evenly.
    let tcp_hop = best_of(reps, || {
        timed(|| {
            transport::tcp_ping_pong(rt, net_rounds);
        }) / f64::from(net_rounds)
    }) / 2.0;
    let tcp_payload = |payload: usize| {
        best_of(reps, || {
            let links = loopback_pair_tcp::<Vec<u8>>(
                EDGE_COST_FROM,
                EDGE_COST_TO,
                Some(NET_WINDOW),
                Some(1),
            )
            .expect("loopback TCP pair");
            net_payload_burst(rt, links, payload_messages, payload) / f64::from(payload_messages)
        })
    };
    classes.push(class_cost(
        "tcp",
        tcp_hop / 2.0,
        tcp_hop / 2.0,
        slope(tcp_payload(small), tcp_payload(large)),
    ));

    // uds: same split over a Unix-domain socket pair.
    let uds_hop = best_of(reps, || {
        timed(|| {
            transport::uds_ping_pong(rt, net_rounds);
        }) / f64::from(net_rounds)
    }) / 2.0;
    let uds_payload = |payload: usize| {
        best_of(reps, || {
            let links = loopback_pair_uds::<Vec<u8>>(
                EDGE_COST_FROM,
                EDGE_COST_TO,
                Some(NET_WINDOW),
                Some(1),
            )
            .expect("loopback UDS pair");
            net_payload_burst(rt, links, payload_messages, payload) / f64::from(payload_messages)
        })
    };
    classes.push(class_cost(
        "uds",
        uds_hop / 2.0,
        uds_hop / 2.0,
        slope(uds_payload(small), uds_payload(large)),
    ));

    classes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_measures_finite_nonnegative_costs() {
        let rt = Runtime::new(2);
        let classes = measure(&rt);
        let names: Vec<&str> = classes.iter().map(|c| c.class.as_str()).collect();
        assert!(names.contains(&"spsc"));
        assert!(names.contains(&"tcp"));
        assert!(names.contains(&"uds"));
        for class in &classes {
            for (field, value) in [
                ("send_base_ns", class.send_base_ns),
                ("recv_base_ns", class.recv_base_ns),
                ("ns_per_byte", class.ns_per_byte),
            ] {
                assert!(
                    value.is_finite() && value >= 0.0,
                    "class `{}` measured a bad {field}: {value}",
                    class.class,
                );
            }
            // Base costs are real work, never exactly free.
            assert!(class.send_base_ns + class.recv_base_ns > 0.0);
        }
    }
}
