//! The double buffering protocol (paper §1–§2, Fig 6 middle).
//!
//! A source writes buffers of `n` values through a kernel to a sink; the
//! benchmark runs exactly **two iterations** (both buffers filled, then
//! termination), parameterised by the buffer size.
//!
//! The optimised kernel sends both `ready`s to the source up front
//! (Fig 4b), letting the source prepare the second buffer while the sink
//! drains the first — the asynchronous queue acts as the second buffer.

use rumpsteak::{messages, roles, session, try_session, End, Receive, Send};

use baselines::ferrite::{AsyncSession, EndOnce, RecvOnce, SendOnce};
use baselines::mpst::{link_index, mesh};
use baselines::sesh::{self, Session as SeshSession};

/// A buffer of values travelling through the pipeline.
pub type Buffer = Vec<i32>;

/// `ready` label.
pub struct Ready;
/// A full buffer.
pub struct Value(pub Buffer);

messages! {
    // `wire` derives the byte format (`Buffer` encodes as a u32 count
    // plus little-endian elements), so the wire round-trip property
    // test covers a non-trivial payload.
    wire enum Label { Ready(Ready), Value(Value): buffer }
}

roles! {
    message Label;
    // Verified bounds over both kernels sharing these roles: the
    // optimised kernel (Fig 4b) fronts both `ready`s, so two readys and
    // then two values can be in flight on the k↔s link; the sink side
    // stays strictly alternating. Cross-checked against the
    // kmc-computed depths in `tests/telemetry.rs`.
    bounds { K -> S: 2, S -> K: 2, K -> T: 1, T -> K: 1 };
    K { s: S, t: T },
    S { k: K },
    T { k: K },
}

session! {
    // Two unrolled iterations so the protocol terminates (paper §4.1).
    type Source<'q> = Receive<'q, S, K, Ready, Send<'q, S, K, Value,
        Receive<'q, S, K, Ready, Send<'q, S, K, Value, End<'q, S>>>>>;
    type Kernel<'q> = Send<'q, K, S, Ready, Receive<'q, K, S, Value,
        Receive<'q, K, T, Ready, Send<'q, K, T, Value,
        Send<'q, K, S, Ready, Receive<'q, K, S, Value,
        Receive<'q, K, T, Ready, Send<'q, K, T, Value, End<'q, K>>>>>>>>>;
    // Fig 4b: both `ready`s to the source are sent before anything else.
    type KernelOpt<'q> = Send<'q, K, S, Ready, Send<'q, K, S, Ready,
        Receive<'q, K, S, Value, Receive<'q, K, T, Ready,
        Send<'q, K, T, Value, Receive<'q, K, S, Value,
        Receive<'q, K, T, Ready, Send<'q, K, T, Value, End<'q, K>>>>>>>>>;
    type Sink<'q> = Send<'q, T, K, Ready, Receive<'q, T, K, Value,
        Send<'q, T, K, Ready, Receive<'q, T, K, Value, End<'q, T>>>>>;
}

fn make_buffer(size: usize, fill: i32) -> Buffer {
    vec![fill; size]
}

fn digest(buffer: &Buffer) -> u64 {
    buffer.iter().map(|&v| v as u64).sum()
}

async fn source(role: &mut S, size: usize) -> rumpsteak::Result<()> {
    try_session(role, |s: Source<'_>| async move {
        let (Ready, s) = s.receive().await?;
        let s = s.send(Value(make_buffer(size, 1))).await?;
        let (Ready, s) = s.receive().await?;
        let end = s.send(Value(make_buffer(size, 2))).await?;
        Ok(((), end))
    })
    .await
}

async fn kernel(role: &mut K) -> rumpsteak::Result<()> {
    try_session(role, |s: Kernel<'_>| async move {
        let s = s.send(Ready).await?;
        let (Value(first), s) = s.receive().await?;
        let (Ready, s) = s.receive().await?;
        let s = s.send(Value(first)).await?;
        let s = s.send(Ready).await?;
        let (Value(second), s) = s.receive().await?;
        let (Ready, s) = s.receive().await?;
        let end = s.send(Value(second)).await?;
        Ok(((), end))
    })
    .await
}

async fn kernel_optimised(role: &mut K) -> rumpsteak::Result<()> {
    try_session(role, |s: KernelOpt<'_>| async move {
        // Both readys first: the source fills buffer 2 while the sink is
        // still reading buffer 1.
        let s = s.send(Ready).await?;
        let s = s.send(Ready).await?;
        let (Value(first), s) = s.receive().await?;
        let (Ready, s) = s.receive().await?;
        let s = s.send(Value(first)).await?;
        let (Value(second), s) = s.receive().await?;
        let (Ready, s) = s.receive().await?;
        let end = s.send(Value(second)).await?;
        Ok(((), end))
    })
    .await
}

async fn sink(role: &mut T) -> rumpsteak::Result<u64> {
    try_session(role, |s: Sink<'_>| async move {
        let s = s.send(Ready).await?;
        let (Value(first), s) = s.receive().await?;
        let s = s.send(Ready).await?;
        let (Value(second), end) = s.receive().await?;
        Ok((digest(&first) + digest(&second), end))
    })
    .await
}

/// Expected checksum for buffer size `n`: one buffer of 1s + one of 2s.
pub fn expected(size: usize) -> u64 {
    (size + 2 * size) as u64
}

/// Runs two iterations on the Rumpsteak runtime; returns the sink digest.
pub fn run_rumpsteak(rt: &executor::Runtime, size: usize, optimised: bool) -> u64 {
    let (mut k, mut s, mut t) = connect();
    let kernel_task = rt.spawn(async move {
        if optimised {
            kernel_optimised(&mut k).await
        } else {
            kernel(&mut k).await
        }
    });
    let source_task = rt.spawn(async move { source(&mut s, size).await });
    let sink_task = rt.spawn(async move { sink(&mut t).await });
    rt.block_on(kernel_task).unwrap().unwrap();
    rt.block_on(source_task).unwrap().unwrap();
    rt.block_on(sink_task).unwrap().unwrap()
}

// ---------------------------------------------------------------------
// Sesh-style: binary sessions between k↔s and k↔t on OS threads (no
// multiparty guarantee, as in the paper's Table 1).
// ---------------------------------------------------------------------

type KernelToSource =
    sesh::Send<(), sesh::Recv<Buffer, sesh::Send<(), sesh::Recv<Buffer, sesh::End>>>>;
type KernelToSink =
    sesh::Recv<(), sesh::Send<Buffer, sesh::Recv<(), sesh::Send<Buffer, sesh::End>>>>;

/// Runs two iterations with Sesh-style binary sessions.
pub fn run_sesh(size: usize) -> u64 {
    // Source thread: dual of KernelToSource.
    let to_source = sesh::fork::<<KernelToSource as SeshSession>::Dual, _>(move |s| {
        let ((), s) = s.recv().unwrap();
        let s = s.send(make_buffer(size, 1)).unwrap();
        let ((), s) = s.recv().unwrap();
        let end = s.send(make_buffer(size, 2)).unwrap();
        end.close();
    });

    // Sink thread computes the digest and reports it over a channel.
    let (result_tx, result_rx) = std::sync::mpsc::sync_channel(1);
    let to_sink = sesh::fork::<<KernelToSink as SeshSession>::Dual, _>(move |s| {
        let s = s.send(()).unwrap();
        let (first, s) = s.recv().unwrap();
        let s = s.send(()).unwrap();
        let (second, end) = s.recv().unwrap();
        end.close();
        result_tx.send(digest(&first) + digest(&second)).unwrap();
    });

    // Kernel on the current thread.
    let s = to_source.send(()).unwrap();
    let (first, s) = s.recv().unwrap();
    let ((), t) = to_sink.recv().unwrap();
    let t = t.send(first).unwrap();
    let s = s.send(()).unwrap();
    let (second, s_end) = s.recv().unwrap();
    let ((), t) = t.recv().unwrap();
    let t_end = t.send(second).unwrap();
    s_end.close();
    t_end.close();
    result_rx.recv().unwrap()
}

// ---------------------------------------------------------------------
// MultiCrusty-style: synchronous multiparty mesh.
// ---------------------------------------------------------------------

enum SyncMsg {
    Ready,
    Value(Buffer),
}

/// Runs two iterations over the synchronous multiparty mesh.
/// Role indices: 0 = kernel, 1 = source, 2 = sink.
pub fn run_multicrusty(size: usize) -> u64 {
    let mut roles = mesh::<SyncMsg, 3>();
    let sink_links = roles.pop().unwrap();
    let source_links = roles.pop().unwrap();
    let kernel_links = roles.pop().unwrap();

    let source = std::thread::spawn(move || {
        let k = &source_links[link_index(1, 0)];
        for fill in [1, 2] {
            match k.recv().unwrap() {
                SyncMsg::Ready => {}
                _ => panic!("protocol violation"),
            }
            k.send(SyncMsg::Value(make_buffer(size, fill))).unwrap();
        }
    });
    let sink = std::thread::spawn(move || {
        let k = &sink_links[link_index(2, 0)];
        let mut total = 0;
        for _ in 0..2 {
            k.send(SyncMsg::Ready).unwrap();
            match k.recv().unwrap() {
                SyncMsg::Value(buffer) => total += digest(&buffer),
                _ => panic!("protocol violation"),
            }
        }
        total
    });

    let s = &kernel_links[link_index(0, 1)];
    let t = &kernel_links[link_index(0, 2)];
    for _ in 0..2 {
        s.send(SyncMsg::Ready).unwrap();
        let buffer = match s.recv().unwrap() {
            SyncMsg::Value(buffer) => buffer,
            _ => panic!("protocol violation"),
        };
        match t.recv().unwrap() {
            SyncMsg::Ready => {}
            _ => panic!("protocol violation"),
        }
        t.send(SyncMsg::Value(buffer)).unwrap();
    }
    source.join().unwrap();
    sink.join().unwrap()
}

// ---------------------------------------------------------------------
// Ferrite-style: asynchronous per-step oneshot sessions, binary pairs.
// ---------------------------------------------------------------------

type FerriteKs = SendOnce<(), RecvOnce<Buffer, SendOnce<(), RecvOnce<Buffer, EndOnce>>>>;
type FerriteKt = RecvOnce<(), SendOnce<Buffer, RecvOnce<(), SendOnce<Buffer, EndOnce>>>>;

/// Runs two iterations with Ferrite-style async binary sessions.
pub fn run_ferrite(rt: &executor::Runtime, size: usize) -> u64 {
    let (ks, source_end) = FerriteKs::new_pair();
    let (kt, sink_end) = FerriteKt::new_pair();

    let source_task = rt.spawn(async move {
        let ((), s) = source_end.recv().await.unwrap();
        let s = s.send(make_buffer(size, 1));
        let ((), s) = s.recv().await.unwrap();
        s.send(make_buffer(size, 2)).close();
    });
    let sink_task = rt.spawn(async move {
        let s = sink_end.send(());
        let (first, s) = s.recv().await.unwrap();
        let s = s.send(());
        let (second, end) = s.recv().await.unwrap();
        end.close();
        digest(&first) + digest(&second)
    });
    let kernel_task = rt.spawn(async move {
        let s = ks.send(());
        let (first, s) = s.recv().await.unwrap();
        let ((), t) = kt.recv().await.unwrap();
        let t = t.send(first);
        let s = s.send(());
        let (second, s_end) = s.recv().await.unwrap();
        let ((), t) = t.recv().await.unwrap();
        t.send(second).close();
        s_end.close();
    });

    rt.block_on(kernel_task).unwrap();
    rt.block_on(source_task).unwrap();
    rt.block_on(sink_task).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_frameworks_agree() {
        let rt = executor::Runtime::new(2);
        let size = 100;
        let expected = expected(size);
        assert_eq!(run_rumpsteak(&rt, size, false), expected);
        assert_eq!(run_rumpsteak(&rt, size, true), expected);
        assert_eq!(run_sesh(size), expected);
        assert_eq!(run_multicrusty(size), expected);
        assert_eq!(run_ferrite(&rt, size), expected);
    }

    /// The §3 worked example as a hybrid-workflow check: the optimised
    /// kernel *type used by the runtime* is an asynchronous subtype of
    /// the νScr projection.
    #[test]
    fn optimised_kernel_is_verified_subtype() {
        let optimised = rumpsteak::serialize::<KernelOpt<'static>>().unwrap();
        let projected = rumpsteak::serialize::<Kernel<'static>>().unwrap();
        assert!(subtyping::is_subtype(&optimised, &projected, 8));
        // The converse fails: the projection owes the source a `ready`.
        assert!(!subtyping::is_subtype(&projected, &optimised, 8));
    }

    /// The paper's automation claim, end to end on the *runtime* types:
    /// starting from the serialised projected kernel, the AMR optimiser
    /// derives a reordering FSM-equivalent to the hand-written
    /// `KernelOpt` (both readys hoisted to the front) among its verified
    /// candidates.
    #[test]
    fn optimiser_rediscovers_kernel_opt_from_serialized_type() {
        let projected = rumpsteak::serialize::<Kernel<'static>>().unwrap();
        let target = rumpsteak::serialize::<KernelOpt<'static>>().unwrap();
        let outcome =
            optimiser::optimise_fsm(&projected, &optimiser::Config::with_depth(2)).unwrap();
        assert!(
            outcome.candidates.iter().any(|c| c.fsm == target),
            "optimiser no longer derives KernelOpt (generated {}, verified {})",
            outcome.generated,
            outcome.candidates.len()
        );
    }

    /// Bottom-up: the whole optimised system is 2-multiparty compatible.
    #[test]
    fn optimised_system_is_kmc_safe() {
        let system = kmc::System::new(vec![
            rumpsteak::serialize::<KernelOpt<'static>>().unwrap(),
            rumpsteak::serialize::<Source<'static>>().unwrap(),
            rumpsteak::serialize::<Sink<'static>>().unwrap(),
        ])
        .unwrap();
        kmc::check(&system, 2).unwrap();
    }
}
