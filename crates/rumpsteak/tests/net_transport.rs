//! End-to-end tests of the distributed transport: a session-typed
//! protocol running over real sockets, the k-MC send window exerting
//! back-pressure on a saturating producer, and the mesh handshake
//! retry path.
//!
//! The role structs here are written by hand in exactly the shape
//! `rumpsteak-gen --skeleton --distributed` emits: one [`NetLink`]
//! field per peer instead of a [`Bidirectional`] channel, with the
//! same `Role`/`Route` implementations. The session code is the
//! streaming protocol from the paper, unchanged — the typestate
//! primitives only see the [`Transport`] contract.

mod common;

use std::time::Duration;

use rumpsteak::net::{loopback_pair_tcp, NetLink, RemoteMesh, Topology};
use rumpsteak::transport::Transport;
use rumpsteak::{
    choice, messages, session, try_session, Branch, End, IntoSession, Receive, Select, Send,
};

pub struct Ready;
pub struct Value(pub i32);
pub struct Stop;

messages! {
    wire enum Label { Ready(Ready), Value(Value): i32, Stop(Stop) }
}

/// Remote source role: one framed socket link towards `T`.
pub struct S {
    t: NetLink<Label>,
}

/// Remote sink role: one framed socket link towards `S`.
pub struct T {
    s: NetLink<Label>,
}

impl rumpsteak::Role for S {
    type Message = Label;
    fn name() -> &'static str {
        "S"
    }
}

impl rumpsteak::Route<T> for S {
    type Link = NetLink<Label>;
    fn route(&mut self) -> &mut Self::Link {
        &mut self.t
    }
}

impl rumpsteak::Role for T {
    type Message = Label;
    fn name() -> &'static str {
        "T"
    }
}

impl rumpsteak::Route<S> for T {
    type Link = NetLink<Label>;
    fn route(&mut self) -> &mut Self::Link {
        &mut self.s
    }
}

session! {
    struct Source<'q> for S = Receive<'q, S, T, Ready, Select<'q, S, T, SourceChoice<'q>>>;
    struct Sink<'q> for T = Send<'q, T, S, Ready, Branch<'q, T, S, SinkChoice<'q>>>;
}

choice! {
    enum SourceChoice<'q> for S {
        Value(Value) => Source<'q>,
        Stop(Stop) => End<'q, S>,
    }
}

choice! {
    enum SinkChoice<'q> for T {
        Value(Value) => Sink<'q>,
        Stop(Stop) => End<'q, T>,
    }
}

async fn source(role: &mut S, count: u32) -> rumpsteak::Result<()> {
    try_session(role, |mut s: Source<'_>| async move {
        let mut sent = 0;
        loop {
            let (Ready, choice) = s.into_session().receive().await?;
            if sent == count {
                let end = choice.select(Stop).await?;
                return Ok(((), end));
            }
            s = choice.select(Value(sent as i32)).await?;
            sent += 1;
        }
    })
    .await
}

async fn sink(role: &mut T) -> rumpsteak::Result<u64> {
    try_session(role, |mut s: Sink<'_>| async move {
        let mut sum = 0u64;
        loop {
            let branch = s.into_session().send(Ready).await?;
            match branch.branch().await? {
                SinkChoice::Value(Value(v), next) => {
                    sum += v as u64;
                    s = next;
                }
                SinkChoice::Stop(Stop, end) => return Ok((sum, end)),
            }
        }
    })
    .await
}

/// The streaming protocol's verified k-MC bound per direction (see
/// `bench::protocols::streaming`).
const STREAM_BOUND: usize = 6;

fn run_session(link_s: NetLink<Label>, link_t: NetLink<Label>, count: u32) -> u64 {
    let mut s = S { t: link_s };
    let mut t = T { s: link_t };
    let rt = executor::Runtime::new(2);
    let source_task = rt.spawn(async move { source(&mut s, count).await });
    let sink_task = rt.spawn(async move { sink(&mut t).await });
    rt.block_on(source_task).unwrap().unwrap();
    rt.block_on(sink_task).unwrap().unwrap()
}

#[test]
fn tcp_session_streams_across_sockets() {
    common::within(|| {
        let (link_s, link_t) =
            loopback_pair_tcp::<Label>("S", "T", Some(STREAM_BOUND), Some(STREAM_BOUND))
                .expect("loopback TCP pair");
        assert_eq!(link_s.send_window(), Some(STREAM_BOUND));
        assert_eq!(link_t.send_window(), Some(STREAM_BOUND));
        let count = 100;
        assert_eq!(
            run_session(link_s, link_t, count),
            (0..u64::from(count)).sum()
        );
    });
}

#[cfg(unix)]
#[test]
fn uds_session_streams_across_sockets() {
    common::within(|| {
        let (link_s, link_t) = rumpsteak::net::loopback_pair_uds::<Label>(
            "S",
            "T",
            Some(STREAM_BOUND),
            Some(STREAM_BOUND),
        )
        .expect("loopback UDS pair");
        let count = 100;
        assert_eq!(
            run_session(link_s, link_t, count),
            (0..u64::from(count)).sum()
        );
    });
}

/// A producer that outruns both the consumer and the socket must park
/// on the k-bounded send window: the link's row counts `window_stalls`
/// while its occupancy watermark stays within the verified bound.
#[test]
fn saturating_producer_stalls_within_window() {
    const WINDOW: usize = 2;
    // Large frames fill the kernel socket buffers after a handful of
    // messages, so back-pressure reaches the producer while the
    // consumer has not read a byte.
    const PAYLOAD: usize = 256 * 1024;
    // Messages sent after the first one parked, and the number after
    // which a producer that never parked gives up (far more bytes than
    // loopback buffers hold).
    const MORE: usize = 8;
    const GIVE_UP: usize = 512;

    let (mut producer, mut consumer) =
        loopback_pair_tcp::<Vec<u8>>("SatSrc", "SatSink", Some(WINDOW), Some(1))
            .expect("loopback TCP pair");
    let (parked, on_parked) = std::sync::mpsc::channel();
    let feeder = std::thread::spawn(move || {
        let mut parked_at = None;
        let mut index = 0;
        while parked_at.is_none_or(|at| index < at + MORE) {
            assert!(index < GIVE_UP, "the producer never parked on its window");
            let mut payload = vec![0xCD; PAYLOAD];
            payload[0] = index as u8;
            let mut message = Some(payload);
            executor::block_on(std::future::poll_fn(|cx| {
                let poll = Transport::poll_send(&mut producer, cx, &mut message);
                if poll.is_pending() && parked_at.is_none() {
                    parked_at = Some(index);
                    parked.send(()).expect("consumer waiting");
                }
                poll
            }))
            .expect("consumer alive");
            index += 1;
        }
        index
    });
    // Nothing is drained until the window, the socket and the kernel
    // buffers behind it are all full.
    on_parked.recv().expect("producer parks or panics");
    let mut received = 0;
    while let Some(payload) = executor::block_on(consumer.recv()) {
        assert_eq!(payload.len(), PAYLOAD);
        assert_eq!(payload[0], received as u8, "frames delivered out of order");
        received += 1;
    }
    assert_eq!(received, feeder.join().unwrap());
    drop(consumer);

    if rumpsteak::telemetry::ENABLED {
        let links = rumpsteak::telemetry::channel::snapshot();
        let link = links
            .iter()
            .find(|l| l.from == "SatSrc" && l.to == "SatSink")
            .expect("saturated link registered");
        assert!(
            link.window_stalls > 0,
            "a saturating producer never parked on its k = {WINDOW} window"
        );
        assert_eq!(link.window, Some(WINDOW as u64));
        assert_eq!(link.kmc_bound, Some(WINDOW as u64));
        // The link reports its window occupancy at every accepted
        // frame, so the watermark proves it never buffered past the
        // verified depth.
        assert!(link.high_watermark >= 1);
        assert!(
            !link.violates_bound(),
            "window watermark {} exceeded the verified bound {WINDOW}",
            link.high_watermark
        );
    }
}

/// Two meshes in one process, staggered: the dialing role comes up
/// first and must retry until the listening role binds, counting each
/// retry as a `reconnect`.
#[cfg(unix)]
#[test]
fn mesh_dial_retries_until_the_peer_binds() {
    let dir = std::env::temp_dir();
    let addr_a = dir.join(format!("rumpsteak-net-a-{}.sock", std::process::id()));
    let addr_b = dir.join(format!("rumpsteak-net-b-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&addr_a);
    let _ = std::fs::remove_file(&addr_b);
    let text = format!("A uds:{}\nB uds:{}\n", addr_a.display(), addr_b.display());
    let topology = Topology::parse(&text).unwrap();

    // B is listed after A, so B dials A; starting B first forces the
    // retry loop while A is still asleep.
    let topology_b = Topology::parse(&text).unwrap();
    let dialer = std::thread::spawn(move || {
        let mut mesh = RemoteMesh::<Label>::bind(topology_b, "B").expect("bind B");
        mesh.set_bound("A", "B", STREAM_BOUND);
        mesh.set_bound("B", "A", STREAM_BOUND);
        mesh.set_dial_timeout(Duration::from_secs(10));
        let mut link = mesh.link("A").expect("dial A");
        executor::block_on(link.send(Label::Value(Value(41)))).expect("A alive");
        match executor::block_on(link.recv()) {
            Some(Label::Value(Value(v))) => v,
            other => panic!("expected a value back, got {:?}", other.is_some()),
        }
    });

    std::thread::sleep(Duration::from_millis(150));
    let mut mesh = RemoteMesh::<Label>::bind(topology, "A").expect("bind A");
    mesh.set_bound("A", "B", STREAM_BOUND);
    mesh.set_bound("B", "A", STREAM_BOUND);
    let mut link = mesh.link("B").expect("accept B");
    match executor::block_on(link.recv()) {
        Some(Label::Value(Value(v))) => {
            executor::block_on(link.send(Label::Value(Value(v + 1)))).expect("B alive");
        }
        _ => panic!("expected the dialer's value"),
    }
    assert_eq!(dialer.join().unwrap(), 42);

    if rumpsteak::telemetry::ENABLED {
        let links = rumpsteak::telemetry::channel::snapshot();
        let link = links
            .iter()
            .find(|l| l.from == "B" && l.to == "A")
            .expect("dialing link registered");
        assert!(
            link.reconnects > 0,
            "the dialer connected before the listener bound — no retry observed"
        );
    }
    let _ = std::fs::remove_file(&addr_a);
    let _ = std::fs::remove_file(&addr_b);
}
