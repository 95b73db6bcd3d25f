//! The four streaming workloads: one protocol
//! (`μx. t→s:ready. s→t:{value.x, stop}`), two sources (projected, and
//! the paper's AMR source that sends five values ahead), two carriers
//! (in-process SPSC links, `NetLink` over loopback TCP).
//!
//! The session programs are written here against the public `rumpsteak`
//! macros and typestates; nothing is imported from `crates/bench`, so a
//! change there cannot change what this benchmark measures.

use std::io;
use std::time::Instant;

use executor::Runtime;

use super::{repeat_setup, report_session_spans, Cfg, Outcome, ProcSample};
use crate::seed::{InputHash, Rng};
use crate::stats::{fast_rate, median};
use crate::trace::{Off, Probe, Recorder, Trace, SPAN_CAP};
use crate::{ladder, procfs};

/// Values the AMR source sends before consuming the first `ready`.
pub const AHEAD: u32 = 5;
/// k-MC bound of each direction once [`AHEAD`] values are in flight.
pub const AMR_BOUND: usize = AHEAD as usize + 1;
/// Elements of one `burst_tcp` value: a 16 KiB payload, large enough
/// that encoding, copying and decoding a value costs more than handing
/// it from thread to thread. (At 1 KiB the hand-offs dominate and trial
/// rates scatter between 3 000 and 100 000 messages a second.)
pub const BURST_ELEMS: usize = 4096;

pub const SPAN_SEND: &str = "rumpsteak.session.send";
pub const SPAN_RECV: &str = "rumpsteak.session.recv";

/// What a streamed value carries; `make` and `digest` give every trial a
/// closed-form checksum.
pub trait Payload: Send + 'static {
    fn make(base: i32, index: u32) -> Self;
    fn digest(&self) -> u64;
    /// Sum of `digest` over `make(base, 0..n)`.
    fn expected(base: i32, n: u32) -> u64;
}

fn triangle(n: u64) -> u64 {
    n * n.saturating_sub(1) / 2
}

impl Payload for i32 {
    #[inline]
    fn make(base: i32, index: u32) -> Self {
        base + index as i32
    }
    #[inline]
    fn digest(&self) -> u64 {
        *self as u64
    }
    fn expected(base: i32, n: u32) -> u64 {
        u64::from(n) * base as u64 + triangle(u64::from(n))
    }
}

impl Payload for Vec<i32> {
    fn make(base: i32, index: u32) -> Self {
        let first = base + index as i32;
        (0..BURST_ELEMS as i32).map(|j| first + j).collect()
    }
    fn digest(&self) -> u64 {
        self.iter().map(|&v| v as u64).sum()
    }
    fn expected(base: i32, n: u32) -> u64 {
        let elems = BURST_ELEMS as u64;
        elems * <i32 as Payload>::expected(base, n) + u64::from(n) * triangle(elems)
    }
}

/// One trial's inputs.
#[derive(Clone, Copy)]
pub struct Job {
    pub amr: bool,
    /// Values streamed; the session carries `2 * rounds + 2` messages.
    pub rounds: u32,
    pub base: i32,
    pub trial: u64,
}

impl Job {
    pub fn messages(&self) -> u64 {
        2 * u64::from(self.rounds) + 2
    }
}

pub struct TrialResult<R, P> {
    /// The roles, handed back for the next session on the same links.
    pub roles: R,
    pub probes: (P, P),
    pub elapsed_ns: u64,
    /// The sink's checksum, or the session error of either role.
    pub sum: rumpsteak::Result<u64>,
}

/// One (carrier, payload) instantiation of the protocol.
pub trait Program: 'static {
    type Roles: Send + 'static;
    type Pay: Payload;
    /// Which ladder the traced run climbs.
    const CARRIER: Carrier;
    fn connect(amr: bool) -> io::Result<Self::Roles>;
    fn trial<P: Probe>(
        rt: &Runtime,
        roles: Self::Roles,
        job: Job,
        probes: (P, P),
    ) -> Option<TrialResult<Self::Roles, P>>;
    /// Exact framed bytes per message of one session of `rounds` values.
    fn wire_bytes_per_msg(rounds: u32) -> f64;
}

/// Session types, role functions and the [`Program`] impl for the roles
/// `S`, `T`, label enum `Label` and payload alias `Pay` in scope.
macro_rules! stream_program {
    ($program:ident, $carrier:ident) => {
        use rumpsteak::{
            choice, session, try_session, Branch, End, IntoSession, Receive, Select, Send,
        };

        use $crate::trace::{spanned, Probe};
        use $crate::workloads::stream::{
            Job, Payload, Program, TrialResult, AHEAD, SPAN_RECV, SPAN_SEND,
        };

        session! {
            struct Source<'q> for S =
                Receive<'q, S, T, Ready, Select<'q, S, T, SourceChoice<'q>>>;
            struct Sink<'q> for T = Send<'q, T, S, Ready, Branch<'q, T, S, SinkChoice<'q>>>;
            // The AMR source: AHEAD values first, then the ordinary
            // loop; after `stop` it drains the AHEAD outstanding readys.
            type AmrSource<'q> = Send<'q, S, T, Value, Send<'q, S, T, Value,
                Send<'q, S, T, Value, Send<'q, S, T, Value, Send<'q, S, T, Value,
                AmrLoop<'q>>>>>>;
            struct AmrLoop<'q> for S =
                Receive<'q, S, T, Ready, Select<'q, S, T, AmrChoice<'q>>>;
            type Drain<'q> = Receive<'q, S, T, Ready, Receive<'q, S, T, Ready,
                Receive<'q, S, T, Ready, Receive<'q, S, T, Ready,
                Receive<'q, S, T, Ready, End<'q, S>>>>>>;
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

        choice! {
            enum AmrChoice<'q> for S {
                Value(Value) => AmrLoop<'q>,
                Stop(Stop) => Drain<'q>,
            }
        }

        fn value(base: i32, index: u32) -> Value {
            Value(<Pay as Payload>::make(base, index))
        }

        pub async fn source<P: Probe>(
            role: &mut S,
            rounds: u32,
            base: i32,
            p: &mut P,
        ) -> rumpsteak::Result<()> {
            try_session(role, |mut s: Source<'_>| async move {
                let mut sent = 0;
                loop {
                    let (Ready, choice) = spanned!(p, SPAN_RECV, s.into_session().receive());
                    if sent == rounds {
                        let end = spanned!(p, SPAN_SEND, choice.select(Stop));
                        return Ok(((), end));
                    }
                    s = spanned!(p, SPAN_SEND, choice.select(value(base, sent)));
                    sent += 1;
                }
            })
            .await
        }

        pub async fn source_amr<P: Probe>(
            role: &mut S,
            rounds: u32,
            base: i32,
            p: &mut P,
        ) -> rumpsteak::Result<()> {
            assert!(rounds >= AHEAD, "the AMR source sends {AHEAD} values ahead");
            try_session(role, |s: AmrSource<'_>| async move {
                let s = spanned!(p, SPAN_SEND, s.send(value(base, 0)));
                let s = spanned!(p, SPAN_SEND, s.send(value(base, 1)));
                let s = spanned!(p, SPAN_SEND, s.send(value(base, 2)));
                let s = spanned!(p, SPAN_SEND, s.send(value(base, 3)));
                let mut s = spanned!(p, SPAN_SEND, s.send(value(base, 4)));
                let mut sent = AHEAD;
                loop {
                    let (Ready, choice) = spanned!(p, SPAN_RECV, s.into_session().receive());
                    if sent == rounds {
                        let drain = spanned!(p, SPAN_SEND, choice.select(Stop));
                        let (Ready, drain) = spanned!(p, SPAN_RECV, drain.receive());
                        let (Ready, drain) = spanned!(p, SPAN_RECV, drain.receive());
                        let (Ready, drain) = spanned!(p, SPAN_RECV, drain.receive());
                        let (Ready, drain) = spanned!(p, SPAN_RECV, drain.receive());
                        let (Ready, end) = spanned!(p, SPAN_RECV, drain.receive());
                        return Ok(((), end));
                    }
                    s = spanned!(p, SPAN_SEND, choice.select(value(base, sent)));
                    sent += 1;
                }
            })
            .await
        }

        pub async fn sink<P: Probe>(role: &mut T, p: &mut P) -> rumpsteak::Result<u64> {
            try_session(role, |mut s: Sink<'_>| async move {
                let mut sum = 0u64;
                loop {
                    let branch = spanned!(p, SPAN_SEND, s.into_session().send(Ready));
                    match spanned!(p, SPAN_RECV, branch.branch()) {
                        SinkChoice::Value(Value(v), next) => {
                            sum += v.digest();
                            s = next;
                        }
                        SinkChoice::Stop(Stop, end) => return Ok((sum, end)),
                    }
                }
            })
            .await
        }

        pub struct $program;

        impl Program for $program {
            type Roles = (S, T);
            type Pay = Pay;
            const CARRIER: $crate::workloads::stream::Carrier =
                $crate::workloads::stream::Carrier::$carrier;

            fn connect(amr: bool) -> std::io::Result<(S, T)> {
                connect_roles(amr)
            }

            fn wire_bytes_per_msg(rounds: u32) -> f64 {
                let framed = |label: &Label| {
                    (rumpsteak::wire::to_bytes(label).len() + rumpsteak::net::FRAME_HEADER) as u64
                };
                let ready = framed(&Label::Ready(Ready));
                let value = framed(&Label::Value(value(0, 0)));
                let stop = framed(&Label::Stop(Stop));
                let rounds = u64::from(rounds);
                (rounds * (ready + value) + ready + stop) as f64 / (2 * rounds + 2) as f64
            }

            fn trial<P: Probe>(
                rt: &executor::Runtime,
                (mut s, mut t): (S, T),
                job: Job,
                (mut ps, mut pt): (P, P),
            ) -> Option<TrialResult<(S, T), P>> {
                let started = std::time::Instant::now();
                let source_task = rt.spawn(async move {
                    ps.enter("task.source", job.trial);
                    let out = if job.amr {
                        source_amr(&mut s, job.rounds, job.base, &mut ps).await
                    } else {
                        source(&mut s, job.rounds, job.base, &mut ps).await
                    };
                    ps.exit();
                    (s, ps, out)
                });
                let sink_task = rt.spawn(async move {
                    pt.enter("task.sink", job.trial);
                    let out = sink(&mut t, &mut pt).await;
                    pt.exit();
                    (t, pt, out)
                });
                // A `JoinError` means a role task panicked; the roles are
                // gone with it, so the caller gets `None` and stops.
                let (s, ps, sent) = rt.block_on(source_task).ok()?;
                let (t, pt, sum) = rt.block_on(sink_task).ok()?;
                let elapsed_ns = started.elapsed().as_nanos() as u64;
                Some(TrialResult {
                    roles: (s, t),
                    probes: (ps, pt),
                    elapsed_ns,
                    sum: sent.and(sum),
                })
            }
        }
    };
}

/// In-process carrier: `roles!`-generated SPSC links, `i32` values.
pub mod inproc {
    use rumpsteak::{messages, roles};

    pub type Pay = i32;
    pub struct Ready;
    pub struct Value(pub Pay);
    pub struct Stop;

    messages! {
        wire enum Label { Ready(Ready), Value(Value): i32, Stop(Stop) }
    }

    roles! {
        message Label;
        // Both sources share these roles; the AMR source keeps AHEAD
        // values plus the answer to the outstanding `ready` in flight.
        bounds { S -> T: 6, T -> S: 6 };
        S { t: T },
        T { s: S },
    }

    fn connect_roles(_amr: bool) -> std::io::Result<(S, T)> {
        Ok(connect())
    }

    stream_program!(InProc, InProcess);
}

/// Hand-written role structs over one `NetLink` each, in the shape
/// `rumpsteak-gen --skeleton --distributed` emits.
macro_rules! net_roles {
    () => {
        use rumpsteak::net::{loopback_pair_tcp, NetLink};

        pub struct S {
            t: NetLink<Label>,
        }
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

        /// The send window is the k-MC bound of the source that runs.
        fn connect_roles(amr: bool) -> std::io::Result<(S, T)> {
            let k = if amr {
                $crate::workloads::stream::AMR_BOUND
            } else {
                1
            };
            let (t, s) = loopback_pair_tcp::<Label>("S", "T", Some(k), Some(k))?;
            Ok((S { t }, T { s }))
        }
    };
}

/// `NetLink` carrier, `i32` values: `stream_tcp`.
pub mod tcp {
    use rumpsteak::messages;

    pub type Pay = i32;
    pub struct Ready;
    pub struct Value(pub Pay);
    pub struct Stop;

    messages! {
        wire enum Label { Ready(Ready), Value(Value): i32, Stop(Stop) }
    }

    net_roles!();
    stream_program!(Tcp, Tcp);
}

/// `NetLink` carrier, 16 KiB values: `burst_tcp`.
pub mod tcp_burst {
    use rumpsteak::messages;

    pub type Pay = Vec<i32>;
    pub struct Ready;
    pub struct Value(pub Pay);
    pub struct Stop;

    messages! {
        wire enum Label { Ready(Ready), Value(Value): buffer, Stop(Stop) }
    }

    net_roles!();
    stream_program!(TcpBurst, Tcp);
}

/// Sizing of one streaming workload.
pub struct Spec {
    pub amr: bool,
    pub workers: usize,
    /// Rounds of one timed trial, and of the warm-up trial in set-up.
    pub rounds: u32,
    pub warmup_rounds: u32,
    /// Rounds of one span-traced trial (four spans a round).
    pub traced_rounds: u32,
}

pub struct Ctx<G: Program> {
    pub rt: Runtime,
    pub roles: Option<G::Roles>,
}

pub fn setup<G: Program>(spec: &Spec, base: i32) -> io::Result<Ctx<G>> {
    let rt = Runtime::new(spec.workers);
    let roles = G::connect(spec.amr)?;
    let job = Job {
        amr: spec.amr,
        rounds: spec.warmup_rounds,
        base,
        trial: 0,
    };
    let warm = G::trial(&rt, roles, job, (Off, Off))
        .ok_or_else(|| io::Error::other("warm-up role task panicked"))?;
    if warm.sum != Ok(G::Pay::expected(base, spec.warmup_rounds)) {
        return Err(io::Error::other("warm-up checksum mismatch"));
    }
    Ok(Ctx {
        rt,
        roles: Some(warm.roles),
    })
}

/// Outcome of a batch of trials on one context.
#[derive(Default)]
pub struct Batch {
    /// Messages per second of each trial.
    pub rates: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Batch {
    /// Runs one trial on `ctx`'s links and books its outcome. Returns the
    /// probes of a trial whose checksum was right; `None` means stop —
    /// a role panicked or a session failed, which leaves the links
    /// mid-protocol.
    fn trial<G: Program, P: Probe>(
        &mut self,
        ctx: &mut Ctx<G>,
        job: Job,
        probes: (P, P),
    ) -> Option<(P, P)> {
        let roles = ctx.roles.take()?;
        self.attempted += job.messages();
        let out = G::trial(&ctx.rt, roles, job, probes)
            .filter(|out| out.sum == Ok(G::Pay::expected(job.base, job.rounds)));
        let Some(out) = out else {
            self.failed += job.messages();
            return None;
        };
        ctx.roles = Some(out.roles);
        self.rates
            .push(job.messages() as f64 / (out.elapsed_ns as f64 / 1e9));
        Some(out.probes)
    }
}

/// Runs timed trials of `rounds` rounds until `seconds` have passed
/// (at least one, at most `max_trials`), checking every checksum.
pub fn timed_trials<G: Program>(
    ctx: &mut Ctx<G>,
    spec: &Spec,
    rounds: u32,
    base: i32,
    seconds: f64,
    max_trials: usize,
) -> Batch {
    let mut batch = Batch::default();
    let started = Instant::now();
    while batch.rates.len() < max_trials
        && (batch.rates.is_empty() || started.elapsed().as_secs_f64() < seconds)
    {
        let job = Job {
            amr: spec.amr,
            rounds,
            base,
            trial: batch.rates.len() as u64 + 1,
        };
        if batch.trial(ctx, job, (Off, Off)).is_none() {
            break;
        }
    }
    batch
}

/// Runs as many span-traced trials as the span budget allows (at most
/// `max_trials`), returning the role recorders and the trials' rates.
pub fn traced_trials<G: Program>(
    ctx: &mut Ctx<G>,
    spec: &Spec,
    base: i32,
    root: &mut Recorder,
    span_budget: usize,
    max_trials: usize,
) -> (Vec<Recorder>, Batch) {
    let mut batch = Batch::default();
    let mut recorders = Vec::new();
    // Four spans a round plus the two final calls and the task span.
    let per_role = 2 * spec.traced_rounds as usize + 16;
    let trials = (span_budget / (2 * per_role)).clamp(1, max_trials);
    for trial in 1..=trials as u64 {
        let job = Job {
            amr: spec.amr,
            rounds: spec.traced_rounds,
            base,
            trial,
        };
        root.enter("trial", trial);
        let probes = (
            Recorder::new(per_role, root.current()),
            Recorder::new(per_role, root.current()),
        );
        let probes = batch.trial(ctx, job, probes);
        root.exit();
        let Some((source, sink)) = probes else { break };
        recorders.extend([source, sink]);
    }
    (recorders, batch)
}

/// Which ladder a workload's traced run climbs, and which session
/// self-time it can derive from it.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Carrier {
    InProcess,
    Tcp,
}

/// Timed trials in the traced run's span phase, per side of the
/// traced/untraced comparison.
const SPAN_PHASE_TRIALS: usize = 4;

/// Runs one streaming workload end to end.
pub fn run<G: Program>(cfg: &Cfg, spec: &Spec) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let base = Rng::new(cfg.seed).range(0, 1000) as i32;
    let mut hash = InputHash::new();
    hash.bytes(cfg.workload.as_bytes());
    hash.word(base as u64);
    hash.word(u64::from(spec.rounds));
    out.input_hash = hash.finish();

    let (mut ctx, setup_s) = repeat_setup(|| setup::<G>(spec, base))?;
    if !cfg.traced {
        let batch = timed_trials(&mut ctx, spec, spec.rounds, base, cfg.seconds, usize::MAX);
        out.attempted = batch.attempted;
        out.failed = batch.failed;
        if batch.rates.is_empty() {
            return Ok(out);
        }
        out.set_fast_rate("ops_per_s", &batch.rates);
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", procfs::peak_rss_mb());
        return Ok(out);
    }

    // Counted phase: ordinary trials with allocation counting and
    // /proc sampling around them.
    let sample = ProcSample::begin();
    let counted = timed_trials(
        &mut ctx,
        spec,
        spec.rounds,
        base,
        cfg.seconds * 0.4,
        usize::MAX,
    );
    sample.finish(counted.attempted, &mut out);
    out.attempted = counted.attempted;
    out.failed = counted.failed;

    // Span phase: the same short trials with the probe off and on.
    let plain = timed_trials(
        &mut ctx,
        spec,
        spec.traced_rounds,
        base,
        f64::INFINITY,
        SPAN_PHASE_TRIALS,
    );
    let mut root = Recorder::new(SPAN_PHASE_TRIALS + 1, 0);
    let (recorders, traced) = traced_trials(
        &mut ctx,
        spec,
        base,
        &mut root,
        SPAN_CAP - SPAN_PHASE_TRIALS,
        SPAN_PHASE_TRIALS,
    );
    out.attempted += plain.attempted + traced.attempted;
    out.failed += plain.failed + traced.failed;
    let mut trace = Trace::default();
    trace.absorb(root);
    for recorder in recorders {
        trace.absorb(recorder);
    }
    if out.failed > 0 || counted.rates.is_empty() || traced.rates.is_empty() {
        out.trace = Some(trace);
        return Ok(out);
    }
    report_session_spans(&mut out, &trace, &trace.totals(), traced.rates.len() as u64);
    out.set(
        "trace.overhead_frac",
        1.0 - median(&traced.rates) / median(&plain.rates),
    );
    out.trace = Some(trace);
    // The links (and, over TCP, their threads) go before the ladder
    // starts, so the probes run on an otherwise idle process.
    drop(ctx);

    let ns_per_msg = 1e9 / fast_rate(&counted.rates);
    out.extra("workload.ns_per_msg", ns_per_msg, "ns");
    match G::CARRIER {
        Carrier::InProcess => {
            ladder::in_process(spec.workers, &mut out)?;
            let (rung, own) = if spec.amr {
                (
                    "executor.channel.bidirectional.win_ns_per_msg",
                    "rumpsteak.session.win_self_ns_per_msg",
                )
            } else {
                (
                    "executor.channel.bidirectional.alt_ns_per_msg",
                    "rumpsteak.session.alt_self_ns_per_msg",
                )
            };
            let below = out.metrics[rung];
            out.set(own, ns_per_msg - below);
        }
        Carrier::Tcp => {
            ladder::transport(&mut out)?;
            out.set(
                "rumpsteak.net.bytes_per_msg",
                G::wire_bytes_per_msg(spec.rounds),
            );
            // The session rung of the TCP ladder: the workload's own
            // round trip (two messages), next to the NetLink rung.
            out.extra("workload.rtt_us", 2.0 * ns_per_msg / 1e3, "us");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_checksums_match_a_direct_sum() {
        for (base, n) in [(0, 0), (7, 1), (123, 1000)] {
            let direct: u64 = (0..n)
                .map(|i| <i32 as Payload>::make(base, i).digest())
                .sum();
            assert_eq!(<i32 as Payload>::expected(base, n), direct);
            let direct: u64 = (0..n)
                .map(|i| <Vec<i32> as Payload>::make(base, i).digest())
                .sum();
            assert_eq!(<Vec<i32> as Payload>::expected(base, n), direct);
        }
    }

    #[test]
    fn both_sources_deliver_the_checksum_in_process() {
        let spec = Spec {
            amr: false,
            workers: 2,
            rounds: 100,
            warmup_rounds: 10,
            traced_rounds: 10,
        };
        let mut ctx = setup::<inproc::InProc>(&spec, 3).unwrap();
        let batch = timed_trials(&mut ctx, &spec, 100, 3, 0.0, 1);
        assert_eq!((batch.failed, batch.attempted), (0, 202));
        let amr = Spec { amr: true, ..spec };
        let mut ctx = setup::<inproc::InProc>(&amr, 3).unwrap();
        let batch = timed_trials(&mut ctx, &amr, 100, 3, 0.0, 1);
        assert_eq!(batch.failed, 0);
        let mut root = Recorder::new(8, 0);
        let (recorders, traced) = traced_trials(&mut ctx, &amr, 3, &mut root, 1000, 2);
        assert_eq!(traced.failed, 0);
        assert_eq!(recorders.len(), 4);
    }
}
