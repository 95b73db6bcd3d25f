//! The streaming protocol (paper §4.1, Fig 6 left):
//!
//! ```text
//! G = μx. t → s : { ready. s → t : { value.x, stop.end } }
//! ```
//!
//! The sink requests with `ready`, the source answers with `value` until
//! it decides to `stop`. The optimised Rumpsteak source unrolls the first
//! [`UNROLL`] values, sending them before consuming any `ready` (verified
//! safe by the subtyping algorithm; see `verification::streaming`).

use rumpsteak::{
    choice, messages, roles, session, try_session, Branch, End, IntoSession, Receive, Select, Send,
};

use baselines::ferrite::{AsyncSession, EndOnce, RecvOnce, SendOnce};
use baselines::sesh::{self, Branching, Choose, Offer, Session as SeshSession};

/// Number of values the optimised source unrolls (the paper uses 5).
pub const UNROLL: u32 = 5;

/// `ready` request label.
pub struct Ready;
/// A streamed value.
pub struct Value(pub i32);
/// Termination label.
pub struct Stop;

messages! {
    // `wire` derives the byte format, so the same protocol also runs
    // over the distributed transport (see `bench::transport` and the
    // two-process example).
    wire enum Label { Ready(Ready), Value(Value): i32, Stop(Stop) }
}

roles! {
    message Label;
    // Verified bounds over *both* sources sharing these roles: the
    // optimised source keeps UNROLL values in flight plus the one
    // answering the sink's outstanding `ready`; symmetrically, while the
    // sink drains those queued values it issues one `ready` per value on
    // top of its leading one, so both directions peak at UNROLL + 1.
    // Cross-checked against the kmc-computed depths in
    // `tests/telemetry.rs`.
    bounds { S -> T: 6, T -> S: 6 };
    S { t: T },
    T { s: S },
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

/// Projected (unoptimised) source: answer one `ready` at a time.
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

// The optimised source session: UNROLL values sent ahead, then the
// ordinary loop; the Stop branch drains the UNROLL outstanding `ready`s.
session! {
    type OptSource<'q> = Send<'q, S, T, Value, Send<'q, S, T, Value,
        Send<'q, S, T, Value, Send<'q, S, T, Value, Send<'q, S, T, Value,
        OptSourceLoop<'q>>>>>>;
    struct OptSourceLoop<'q> for S =
        Receive<'q, S, T, Ready, Select<'q, S, T, OptSourceChoice<'q>>>;
    type Drain<'q> = Receive<'q, S, T, Ready, Receive<'q, S, T, Ready,
        Receive<'q, S, T, Ready, Receive<'q, S, T, Ready,
        Receive<'q, S, T, Ready, End<'q, S>>>>>>;
}

choice! {
    enum OptSourceChoice<'q> for S {
        Value(Value) => OptSourceLoop<'q>,
        Stop(Stop) => Drain<'q>,
    }
}

/// AMR-optimised source: streams [`UNROLL`] values before the first
/// `ready` is consumed (requires `count >= UNROLL`).
async fn source_optimised(role: &mut S, count: u32) -> rumpsteak::Result<()> {
    assert!(
        count >= UNROLL,
        "optimised source pre-sends {UNROLL} values"
    );
    try_session(role, |s: OptSource<'_>| async move {
        let s = s.send(Value(0)).await?;
        let s = s.send(Value(1)).await?;
        let s = s.send(Value(2)).await?;
        let s = s.send(Value(3)).await?;
        let mut s = s.send(Value(4)).await?;
        let mut sent = UNROLL;
        loop {
            let (Ready, choice) = s.into_session().receive().await?;
            if sent == count {
                let drain = choice.select(Stop).await?;
                let (Ready, drain) = drain.receive().await?;
                let (Ready, drain) = drain.receive().await?;
                let (Ready, drain) = drain.receive().await?;
                let (Ready, drain) = drain.receive().await?;
                let (Ready, end) = drain.receive().await?;
                return Ok(((), end));
            }
            s = choice.select(Value(sent as i32)).await?;
            sent += 1;
        }
    })
    .await
}

/// Expected checksum: sum of 0..count.
pub fn expected(count: u32) -> u64 {
    (0..count as u64).sum()
}

/// Runs the protocol on the Rumpsteak runtime; returns the sink's sum.
pub fn run_rumpsteak(rt: &executor::Runtime, count: u32, optimised: bool) -> u64 {
    let (mut s, mut t) = connect();
    let source_task = rt.spawn(async move {
        if optimised {
            source_optimised(&mut s, count).await
        } else {
            source(&mut s, count).await
        }
    });
    let sink_task = rt.spawn(async move { sink(&mut t).await });
    rt.block_on(source_task).unwrap().unwrap();
    rt.block_on(sink_task).unwrap().unwrap()
}

// ---------------------------------------------------------------------
// Sesh-style: synchronous binary sessions, fresh channel per message.
// Recursive protocols need wrapper structs since type aliases cannot be
// cyclic; the originals use the same trick.
// ---------------------------------------------------------------------

/// Sink endpoint of one iteration: send ready, then offer value/stop.
struct SeshSink(sesh::Send<(), Offer<sesh::Recv<i32, SeshSink>, sesh::End>>);

/// Source endpoint: receive ready, then choose value/stop.
struct SeshSource(sesh::Recv<(), Choose<sesh::Send<i32, SeshSource>, sesh::End>>);

impl SeshSession for SeshSink {
    type Dual = SeshSource;

    fn new_pair() -> (Self, Self::Dual) {
        let (sink, source) = sesh::Send::new_pair();
        (SeshSink(sink), SeshSource(source))
    }
}

impl SeshSession for SeshSource {
    type Dual = SeshSink;

    fn new_pair() -> (Self, Self::Dual) {
        let (sink, source) = SeshSink::new_pair();
        (source, sink)
    }
}

/// Runs the streaming protocol with Sesh-style sessions on OS threads.
pub fn run_sesh(count: u32) -> u64 {
    fn source_loop(mut s: SeshSource, count: u32) {
        let mut sent = 0;
        loop {
            // Receive ready, then choose.
            let ((), choice) = s.0.recv().unwrap();
            if sent == count {
                choice.choose_right().unwrap().close();
                return;
            }
            let next = choice.choose_left().unwrap();
            s = next.send(sent as i32).unwrap();
            sent += 1;
        }
    }

    let mut sink = sesh::fork::<SeshSource, _>(move |s| source_loop(s, count));
    let mut sum = 0u64;
    loop {
        let offer = sink.0.send(()).unwrap();
        match offer.offer().unwrap() {
            Branching::Left(value) => {
                let (v, next) = value.recv().unwrap();
                sum += v as u64;
                sink = next;
            }
            Branching::Right(end) => {
                end.close();
                return sum;
            }
        }
    }
}

// ---------------------------------------------------------------------
// MultiCrusty-style: synchronous mesh links (2 roles here).
// ---------------------------------------------------------------------

/// Wire message for the untyped-label sync baseline.
enum SyncMsg {
    Ready,
    Value(i32),
    Stop,
}

/// Runs the streaming protocol over MultiCrusty-style rendezvous links.
pub fn run_multicrusty(count: u32) -> u64 {
    let mut roles = baselines::mpst::mesh::<SyncMsg, 2>();
    let sink_links = roles.pop().unwrap();
    let source_links = roles.pop().unwrap();

    let source = std::thread::spawn(move || {
        let link = &source_links[0];
        let mut sent = 0;
        loop {
            match link.recv().unwrap() {
                SyncMsg::Ready => {}
                _ => panic!("protocol violation"),
            }
            if sent == count {
                link.send(SyncMsg::Stop).unwrap();
                return;
            }
            link.send(SyncMsg::Value(sent as i32)).unwrap();
            sent += 1;
        }
    });

    let link = &sink_links[0];
    let mut sum = 0u64;
    loop {
        link.send(SyncMsg::Ready).unwrap();
        match link.recv().unwrap() {
            SyncMsg::Value(v) => sum += v as u64,
            SyncMsg::Stop => break,
            SyncMsg::Ready => panic!("protocol violation"),
        }
    }
    source.join().unwrap();
    sum
}

// ---------------------------------------------------------------------
// Ferrite-style: asynchronous, but per-step oneshot channels and boxed
// recursive futures.
// ---------------------------------------------------------------------

type FerriteSink = SendOnce<(), RecvOnce<Option<i32>, EndOnce>>;

/// Runs the streaming protocol with Ferrite-style sessions on the
/// asynchronous runtime.
pub fn run_ferrite(rt: &executor::Runtime, count: u32) -> u64 {
    use std::future::Future;
    use std::pin::Pin;

    // Recursion through boxed futures, as Ferrite requires: each
    // iteration creates a fresh binary session for the request/response.
    fn sink_loop(
        mut source: executor::channel::SpscSender<<FerriteSink as AsyncSession>::Dual>,
        sum: u64,
    ) -> Pin<Box<dyn Future<Output = u64> + core::marker::Send>> {
        Box::pin(async move {
            let (request, serve) = FerriteSink::new_pair();
            if source.send(serve).is_err() {
                return sum;
            }
            let reply = request.send(());
            match reply.recv().await {
                Ok((Some(v), end)) => {
                    end.close();
                    sink_loop(source, sum + v as u64).await
                }
                Ok((None, end)) => {
                    end.close();
                    sum
                }
                Err(_) => sum,
            }
        })
    }

    let (tx, mut rx) = executor::channel::spsc::<<FerriteSink as AsyncSession>::Dual>();
    let source_task = rt.spawn(async move {
        let mut sent = 0u32;
        while let Some(session) = rx.recv().await {
            let ((), reply) = match session.recv().await {
                Ok(step) => step,
                Err(_) => return,
            };
            if sent == count {
                reply.send(None).close();
                return;
            }
            reply.send(Some(sent as i32)).close();
            sent += 1;
        }
    });
    let sum = rt.block_on(sink_loop(tx, 0));
    rt.block_on(source_task).unwrap();
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_frameworks_agree() {
        let rt = executor::Runtime::new(2);
        let count = 17;
        let expected = expected(count);
        assert_eq!(run_rumpsteak(&rt, count, false), expected);
        assert_eq!(run_rumpsteak(&rt, count, true), expected);
        assert_eq!(run_sesh(count), expected);
        assert_eq!(run_multicrusty(count), expected);
        assert_eq!(run_ferrite(&rt, count), expected);
    }

    /// Bottom-up workflow (paper §2.2): serialise the hand-written
    /// optimised source and the sink from their Rust types and check the
    /// whole system with k-MC. The optimised source pre-sends values and
    /// drains `ready`s after `stop`, which is a whole-protocol property —
    /// exactly what the global analysis is for.
    #[test]
    fn optimised_source_verified_bottom_up() {
        let source = rumpsteak::serialize::<OptSource<'static>>().unwrap();
        let sink = rumpsteak::serialize::<Sink<'static>>().unwrap();
        let system = kmc::System::new(vec![source, sink]).unwrap();
        kmc::check(&system, UNROLL as usize + 2).unwrap();
    }

    /// Top-down workflow sanity: the *projected* source serialised from
    /// its Rust type matches the νScr projection of the global type.
    #[test]
    fn projected_source_serialises_to_projection() {
        let api = rumpsteak::serialize::<Source<'static>>().unwrap();
        let projected = theory::fsm::from_local(
            &"S".into(),
            &theory::local::parse("rec x . T?Ready . +{ T!Value(i32).x, T!Stop.end }").unwrap(),
        )
        .unwrap();
        assert!(subtyping::is_subtype(&api, &projected, 4));
        assert!(subtyping::is_subtype(&projected, &api, 4));
    }

    #[test]
    fn zero_values_stops_immediately() {
        let rt = executor::Runtime::new(2);
        assert_eq!(run_rumpsteak(&rt, 0, false), 0);
        assert_eq!(run_sesh(0), 0);
    }
}
