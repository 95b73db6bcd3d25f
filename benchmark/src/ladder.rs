//! Ladder probes: the streaming workloads' message sequences replayed
//! directly against each lower public API, so that a layer's self time
//! is its rung minus the rung below.
//!
//! ```text
//! in process:  spsc pair  →  Bidirectional  →  session typestates (workload)
//! over TCP:    raw TcpStream  →  + wire codec, framing  →  NetLink  →  session (workload)
//! ```
//!
//! `alt` replays strict alternation (`ready`, `value`, `ready`, ...);
//! `win` replays the AMR sequence with five values sent ahead. Every
//! probe does a fixed amount of work, takes the median of
//! [`REPEATS`] repetitions, and checks the bytes or checksum it moved.

use std::future::poll_fn;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

use executor::channel::{spsc, Bidirectional, LinkConfig, SpscReceiver, SpscSender};
use executor::Runtime;
use rumpsteak::net::{encode_frame, loopback_pair_tcp, FrameDecoder, FRAME_HEADER};
use rumpsteak::transport::{Disconnected, Transport};
use rumpsteak::wire::{from_bytes, to_bytes, Wire};

use crate::stats::median;
use crate::workloads::stream::{self, Payload, AHEAD, AMR_BOUND};
use crate::workloads::Outcome;

const REPEATS: usize = 5;

/// The protocol's three labels without their typestates.
pub trait RawMsg: Send + 'static {
    fn ready() -> Self;
    fn value(base: i32, index: u32) -> Self;
    fn stop() -> Self;
    /// `Some(digest)` for a value, `None` for `stop`; `ready` never
    /// reaches the sink.
    fn value_digest(&self) -> Option<u64>;
    fn is_ready(&self) -> bool;
    /// Sum of the digests of `value(base, 0..rounds)`.
    fn expected(base: i32, rounds: u32) -> u64;
}

macro_rules! raw_msg {
    ($module:ident) => {
        impl RawMsg for stream::$module::Label {
            fn ready() -> Self {
                Self::Ready(stream::$module::Ready)
            }
            fn value(base: i32, index: u32) -> Self {
                Self::Value(stream::$module::Value(Payload::make(base, index)))
            }
            fn stop() -> Self {
                Self::Stop(stream::$module::Stop)
            }
            fn value_digest(&self) -> Option<u64> {
                match self {
                    Self::Value(v) => Some(v.0.digest()),
                    _ => None,
                }
            }
            fn is_ready(&self) -> bool {
                matches!(self, Self::Ready(_))
            }
            fn expected(base: i32, rounds: u32) -> u64 {
                <stream::$module::Pay as Payload>::expected(base, rounds)
            }
        }
    };
}

raw_msg!(inproc);
raw_msg!(tcp);
raw_msg!(tcp_burst);

/// Two bare SPSC rings behind the [`Transport`] contract: the rung below
/// `Bidirectional` (no batch window, no stash, no labels).
pub struct SpscLink<M> {
    tx: SpscSender<M>,
    rx: SpscReceiver<M>,
}

pub fn spsc_pair<M>() -> (SpscLink<M>, SpscLink<M>) {
    let (ab_tx, ab_rx) = spsc();
    let (ba_tx, ba_rx) = spsc();
    (
        SpscLink {
            tx: ab_tx,
            rx: ba_rx,
        },
        SpscLink {
            tx: ba_tx,
            rx: ab_rx,
        },
    )
}

impl<M> Transport for SpscLink<M> {
    type Message = M;

    fn poll_send(
        &mut self,
        cx: &mut Context<'_>,
        message: &mut Option<M>,
    ) -> Poll<Result<(), Disconnected>> {
        match self.tx.poll_reserve(cx) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Ok(slot)) => {
                slot.write(message.take().expect("polled after completion"));
                Poll::Ready(Ok(()))
            }
            Poll::Ready(Err(_)) => {
                message.take();
                Poll::Ready(Err(Disconnected))
            }
        }
    }

    fn try_recv(&mut self) -> Option<M> {
        self.rx.try_recv()
    }

    fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<Option<M>> {
        self.rx.poll_recv(cx)
    }
}

async fn send<L: Transport>(link: &mut L, message: L::Message) -> Option<()> {
    let mut message = Some(message);
    poll_fn(|cx| link.poll_send(cx, &mut message)).await.ok()
}

/// Fast path first, as the session layer's receive futures do.
async fn recv<L: Transport>(link: &mut L) -> Option<L::Message> {
    if let Some(message) = link.try_recv() {
        return Some(message);
    }
    poll_fn(|cx| link.poll_recv(cx)).await
}

async fn raw_source<L>(link: &mut L, rounds: u32, win: bool, base: i32) -> Option<()>
where
    L: Transport,
    L::Message: RawMsg,
{
    let mut sent = 0;
    if win {
        while sent < AHEAD {
            send(link, RawMsg::value(base, sent)).await?;
            sent += 1;
        }
    }
    loop {
        recv(link).await?.is_ready().then_some(())?;
        if sent == rounds {
            send(link, RawMsg::stop()).await?;
            break;
        }
        send(link, RawMsg::value(base, sent)).await?;
        sent += 1;
    }
    if win {
        for _ in 0..AHEAD {
            recv(link).await?.is_ready().then_some(())?;
        }
    }
    Some(())
}

async fn raw_sink<L>(link: &mut L) -> Option<u64>
where
    L: Transport,
    L::Message: RawMsg,
{
    let mut sum = 0;
    loop {
        send(link, RawMsg::ready()).await?;
        match recv(link).await?.value_digest() {
            Some(digest) => sum += digest,
            None => return Some(sum),
        }
    }
}

/// Replays one stream of `rounds` values over a connected pair,
/// returning nanoseconds per message. The links come back so a socket
/// pair can serve every repetition.
fn replay_once<L>(
    rt: &Runtime,
    mut a: L,
    mut b: L,
    rounds: u32,
    win: bool,
) -> io::Result<(f64, L, L)>
where
    L: Transport + Send + 'static,
    L::Message: RawMsg,
{
    const BASE: i32 = 11;
    let started = Instant::now();
    let source = rt.spawn(async move {
        let out = raw_source(&mut a, rounds, win, BASE).await;
        (a, out)
    });
    let sink = rt.spawn(async move {
        let out = raw_sink(&mut b).await;
        (b, out)
    });
    let panicked = |_| io::Error::other("probe task panicked");
    let (a, sent) = rt.block_on(source).map_err(panicked)?;
    let (b, sum) = rt.block_on(sink).map_err(panicked)?;
    let elapsed = started.elapsed().as_nanos() as f64;
    if sent.is_none() || sum.is_none() {
        return Err(io::Error::other("probe link disconnected"));
    }
    if sum != Some(<L::Message as RawMsg>::expected(BASE, rounds)) {
        return Err(io::Error::other("probe checksum mismatch"));
    }
    Ok((elapsed / (2.0 * f64::from(rounds) + 2.0), a, b))
}

/// Median nanoseconds per message over [`REPEATS`] replays on one pair,
/// which is handed back for the caller to drop.
fn replay<L>(rt: &Runtime, pair: (L, L), rounds: u32, win: bool) -> io::Result<(f64, (L, L))>
where
    L: Transport + Send + 'static,
    L::Message: RawMsg,
{
    let (mut a, mut b) = pair;
    let mut samples = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let (ns, a2, b2) = replay_once(rt, a, b, rounds, win)?;
        samples.push(ns);
        (a, b) = (a2, b2);
    }
    Ok((median(&samples), (a, b)))
}

fn bidirectional_pair<M>() -> (Bidirectional<M>, Bidirectional<M>) {
    // Shaped like the workload's `roles!` links: bound 6 both ways.
    Bidirectional::pair_configured(
        "S",
        "T",
        LinkConfig {
            bound_ab: Some(AMR_BOUND),
            bound_ba: Some(AMR_BOUND),
            bounded: false,
        },
    )
}

/// In-process rungs and scheduler probes, on a runtime with as many
/// workers as the workload uses.
pub fn in_process(workers: usize, out: &mut Outcome) -> io::Result<()> {
    type Label = stream::inproc::Label;
    const ROUNDS: u32 = 200_000;
    let rt = Arc::new(Runtime::new(workers));
    out.set(
        "executor.channel.spsc.alt_ns_per_msg",
        replay(&rt, spsc_pair::<Label>(), ROUNDS, false)?.0,
    );
    out.set(
        "executor.channel.spsc.win_ns_per_msg",
        replay(&rt, spsc_pair::<Label>(), ROUNDS, true)?.0,
    );
    out.set(
        "executor.channel.bidirectional.alt_ns_per_msg",
        replay(&rt, bidirectional_pair::<Label>(), ROUNDS, false)?.0,
    );
    out.set(
        "executor.channel.bidirectional.win_ns_per_msg",
        replay(&rt, bidirectional_pair::<Label>(), ROUNDS, true)?.0,
    );
    out.set("executor.runtime.yield_ns", yield_ns(&rt)?);
    out.set("executor.runtime.spawn_join_ns", spawn_join_ns(&rt)?);
    Ok(())
}

fn yield_ns(rt: &Runtime) -> io::Result<f64> {
    const YIELDS: u32 = 200_000;
    let mut samples = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let task = rt.spawn(async {
            let started = Instant::now();
            for _ in 0..YIELDS {
                executor::yield_now().await;
            }
            started.elapsed().as_nanos() as f64 / f64::from(YIELDS)
        });
        samples.push(
            rt.block_on(task)
                .map_err(|_| io::Error::other("yield probe panicked"))?,
        );
    }
    Ok(median(&samples))
}

/// Spawn an empty task and await its handle, from inside a task — the
/// shape of `churn`'s session driver.
fn spawn_join_ns(rt: &Arc<Runtime>) -> io::Result<f64> {
    const SPAWNS: u32 = 50_000;
    let mut samples = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let inner = rt.clone();
        let task = rt.spawn(async move {
            let started = Instant::now();
            for _ in 0..SPAWNS {
                if inner.spawn(async {}).await.is_err() {
                    return None;
                }
            }
            Some(started.elapsed().as_nanos() as f64 / f64::from(SPAWNS))
        });
        let ns = rt
            .block_on(task)
            .ok()
            .flatten()
            .ok_or_else(|| io::Error::other("spawn probe panicked"))?;
        samples.push(ns);
    }
    Ok(median(&samples))
}

fn time_per_op(ops: u32, mut op: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let started = Instant::now();
        for _ in 0..ops {
            op();
        }
        samples.push(started.elapsed().as_nanos() as f64 / f64::from(ops));
    }
    median(&samples)
}

/// Wire codec and framing cost per message, and the exact bytes one
/// round of the workload puts on the wire.
fn codec<M: RawMsg + Wire>(large: bool, out: &mut Outcome) -> (Vec<u8>, Vec<u8>) {
    use std::hint::black_box;
    // Fewer repetitions of the 16 KiB value keep both timings near 50 ms.
    let ops: u32 = if large { 2_000 } else { 100_000 };
    let value = M::value(7, 3);
    let bytes = to_bytes(&value);
    let (enc, dec) = if large {
        (
            "rumpsteak.wire.encode_ns_16k",
            "rumpsteak.wire.decode_ns_16k",
        )
    } else {
        ("rumpsteak.wire.encode_ns", "rumpsteak.wire.decode_ns")
    };
    let mut buf = Vec::with_capacity(bytes.len());
    out.set(
        enc,
        time_per_op(ops, || {
            buf.clear();
            black_box(&value).encode(&mut buf);
            black_box(&buf);
        }),
    );
    out.set(
        dec,
        time_per_op(ops, || {
            black_box(from_bytes::<M>(black_box(&bytes)).is_ok());
        }),
    );
    let mut frame = Vec::new();
    encode_frame(&bytes, &mut frame).expect("payload far below MAX_FRAME");
    let mut ready = Vec::new();
    encode_frame(&to_bytes(&M::ready()), &mut ready).expect("payload far below MAX_FRAME");
    (ready, frame)
}

fn framing(payload: &[u8], out: &mut Outcome) {
    use std::hint::black_box;
    const OPS: u32 = 100_000;
    let mut buf = Vec::with_capacity(payload.len() + FRAME_HEADER);
    out.set(
        "rumpsteak.net.frame.encode_ns",
        time_per_op(OPS, || {
            buf.clear();
            encode_frame(black_box(payload), &mut buf).expect("payload far below MAX_FRAME");
            black_box(&buf);
        }),
    );
    let mut frame = Vec::new();
    encode_frame(payload, &mut frame).expect("payload far below MAX_FRAME");
    let mut decoder = FrameDecoder::new();
    out.set(
        "rumpsteak.net.frame.decode_ns",
        time_per_op(OPS, || {
            decoder.push(black_box(&frame));
            black_box(matches!(decoder.next_frame(), Ok(Some(_))));
        }),
    );
}

fn raw_tcp_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let dialed = TcpStream::connect(listener.local_addr()?)?;
    let (accepted, _) = listener.accept()?;
    dialed.set_nodelay(true)?;
    accepted.set_nodelay(true)?;
    Ok((dialed, accepted))
}

/// The floor under `NetLink`: the same frame bytes bounced between two
/// OS threads over a nodelay loopback `TcpStream`. Microseconds per
/// round trip.
fn loopback_rtt_us(request: &[u8], reply: &[u8]) -> io::Result<f64> {
    const ROUNDS: u32 = 3_000;
    let (mut a, mut b) = raw_tcp_pair()?;
    let (request_len, reply_owned) = (request.len(), reply.to_vec());
    let echo = std::thread::spawn(move || -> io::Result<()> {
        let mut buf = vec![0u8; request_len];
        for _ in 0..ROUNDS * REPEATS as u32 {
            b.read_exact(&mut buf)?;
            b.write_all(&reply_owned)?;
        }
        Ok(())
    });
    let mut buf = vec![0u8; reply.len()];
    let mut samples = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let started = Instant::now();
        for _ in 0..ROUNDS {
            a.write_all(request)?;
            a.read_exact(&mut buf)?;
        }
        samples.push(started.elapsed().as_nanos() as f64 / 1e3 / f64::from(ROUNDS));
    }
    echo.join()
        .map_err(|_| io::Error::other("echo thread panicked"))??;
    if buf != reply {
        return Err(io::Error::other("loopback echoed the wrong bytes"));
    }
    Ok(median(&samples))
}

/// One thread writes `frame` back to back, the other drains: the floor
/// under `burst_tcp`. Nanoseconds per frame.
fn loopback_stream_ns(frame: &[u8]) -> io::Result<f64> {
    const FRAMES: u32 = 4_000;
    let (mut a, mut b) = raw_tcp_pair()?;
    let total = frame.len() as u64 * u64::from(FRAMES) * REPEATS as u64;
    let drain = std::thread::spawn(move || -> io::Result<u64> {
        let mut chunk = [0u8; 8192];
        let mut seen = 0u64;
        while seen < total {
            match b.read(&mut chunk)? {
                0 => break,
                n => seen += n as u64,
            }
        }
        // One byte back so the writer's clock stops after the last read.
        b.write_all(&[1])?;
        Ok(seen)
    });
    let mut samples = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let started = Instant::now();
        for _ in 0..FRAMES {
            a.write_all(frame)?;
        }
        samples.push(started.elapsed().as_nanos() as f64 / f64::from(FRAMES));
    }
    a.read_exact(&mut [0u8])?;
    let seen = drain
        .join()
        .map_err(|_| io::Error::other("drain thread panicked"))??;
    if seen != total {
        return Err(io::Error::other("loopback stream lost bytes"));
    }
    Ok(median(&samples))
}

/// Transport rungs, floor first. The runtime has one worker, as the TCP
/// workloads do.
pub fn transport(out: &mut Outcome) -> io::Result<()> {
    type Small = stream::tcp::Label;
    type Large = stream::tcp_burst::Label;
    let (ready, small_frame) = codec::<Small>(false, out);
    let (_, large_frame) = codec::<Large>(true, out);
    framing(&small_frame[FRAME_HEADER..], out);
    let loopback_rtt = loopback_rtt_us(&ready, &small_frame)?;
    out.set("host.loopback.rtt_us", loopback_rtt);
    out.set(
        "host.loopback.stream_ns_per_msg",
        loopback_stream_ns(&large_frame)?,
    );

    let rt = Runtime::new(1);
    let started = Instant::now();
    let pair = loopback_pair_tcp::<Small>("S", "T", Some(1), Some(1))?;
    out.set(
        "rumpsteak.net.netlink.setup_us",
        started.elapsed().as_nanos() as f64 / 1e3,
    );
    const RTT_ROUNDS: u32 = 1_000;
    let (ns_per_msg, pair) = replay(&rt, pair, RTT_ROUNDS, false)?;
    // Two messages a round trip.
    let netlink_rtt = 2.0 * ns_per_msg / 1e3;
    out.set("rumpsteak.net.netlink.rtt_us", netlink_rtt);
    let started = Instant::now();
    drop(pair);
    out.set(
        "rumpsteak.net.netlink.teardown_us",
        started.elapsed().as_nanos() as f64 / 1e3,
    );

    const STREAM_ROUNDS: u32 = 1_000;
    let pair = loopback_pair_tcp::<Large>("S", "T", Some(AMR_BOUND), Some(AMR_BOUND))?;
    // Per value: a round is one value and one ready.
    out.set(
        "rumpsteak.net.netlink.stream_ns_per_msg",
        2.0 * replay(&rt, pair, STREAM_ROUNDS, true)?.0,
    );

    // What `NetLink` itself adds to a round trip: its rung minus the
    // socket floor and the codec work of the two messages.
    let codec_us = [
        "rumpsteak.wire.encode_ns",
        "rumpsteak.wire.decode_ns",
        "rumpsteak.net.frame.encode_ns",
        "rumpsteak.net.frame.decode_ns",
    ]
    .iter()
    .map(|name| out.metrics[name])
    .sum::<f64>()
        / 1e3;
    out.set(
        "rumpsteak.net.netlink.self_rtt_us",
        netlink_rtt - loopback_rtt - 2.0 * codec_us,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_replay_moves_both_sequences_over_every_link() {
        type Label = stream::inproc::Label;
        let rt = Runtime::new(2);
        for win in [false, true] {
            let (ns, _, _) = {
                let (a, b) = spsc_pair::<Label>();
                replay_once(&rt, a, b, 50, win).unwrap()
            };
            assert!(ns > 0.0);
            let (a, b) = bidirectional_pair::<Label>();
            replay_once(&rt, a, b, 50, win).unwrap();
        }
    }

    #[test]
    fn loopback_floor_checks_its_bytes() {
        assert!(loopback_rtt_us(&[1, 2, 3], &[4, 5, 6, 7]).unwrap() > 0.0);
    }
}
