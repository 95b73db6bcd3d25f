//! `churn`: many short 3-role double-buffering sessions on one worker.
//!
//! Every session builds its own links (`connect()`), spawns its three
//! role tasks, moves two buffers source → kernel → sink (8 messages) and
//! tears everything down, so link allocation, `Runtime::spawn`, the
//! delay to a task's first poll and teardown dominate; steady-state
//! messaging is negligible. That is the opposite use of the same layers
//! from the streaming workloads.
//!
//! The timed run is a closed loop: [`CLIENTS`] client tasks run sessions
//! back to back (sessions per second). The traced run adds an open
//! loop: one generator thread, always spinning, starts a session every
//! `1 / OPEN_RATE` seconds whatever the system does, and each session is
//! timed from the moment it was *due* (latency percentiles, and how late
//! the generator itself ran). At this rate the worker parks between
//! arrivals, so the open-loop median is mostly the host's cost of waking
//! an idle core — 6 µs or 25–37 µs on the same sandbox hours apart —
//! which is why it is a per-layer diagnostic and not a bounded
//! end-to-end metric.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use executor::{JoinHandle, Runtime};

use super::{mean_ns, repeat_setup, report_session_spans, Cfg, Outcome, ProcSample};
use crate::procfs;
use crate::seed::{InputHash, Rng};
use crate::stats::{fast_rate, percentile_sorted};
use crate::trace::{now_ns, Off, Probe, Recorder, Trace, SPAN_CAP};
use crate::workloads::stream::{SPAN_RECV, SPAN_SEND};

/// Closed-loop client tasks.
pub const CLIENTS: usize = 16;
/// Sessions each client runs in one closed-loop trial.
const SESSIONS_PER_CLIENT: usize = 250;
const WARMUP_PER_CLIENT: usize = 500;
/// Sessions per client in the span-traced trial: 16 clients of about 30
/// spans a session stay inside the span budget.
const TRACED_PER_CLIENT: usize = 256;
const SPANS_PER_SESSION: usize = 32;
/// Open-loop arrival rate, sessions per second.
pub const OPEN_RATE: f64 = 10_000.0;
/// Shares of a traced run's seconds given to the counted closed loop
/// and to the open loop; the span phase and the ladder take the rest.
const TRACED_CLOSED_SHARE: f64 = 0.25;
const TRACED_OPEN_SHARE: f64 = 0.35;
/// An open-loop session that takes longer than this from its due time
/// counts as failed.
const DEADLINE: Duration = Duration::from_secs(1);
/// Arrivals the open loop lets wait at once (two seconds' worth). Past
/// this the system is not keeping up at all: the generator stops and the
/// arrivals it did not issue count as failed, so an overloaded run ends
/// with a verdict instead of an ever-growing queue.
const BACKLOG_LIMIT: u64 = 2 * OPEN_RATE as u64;
/// Distinct seeded buffer lengths, cycled through by session index.
const LENGTHS: usize = 4096;

const SPAN_CONNECT: &str = "rumpsteak.role.connect";
const SPAN_SPAWN: &str = "executor.runtime.spawn";
const SPAN_START_DELAY: &str = "executor.runtime.start_delay";

mod protocol {
    use rumpsteak::{messages, roles, session, try_session, End, Receive, Send};

    use super::{SPAN_RECV, SPAN_SEND};
    use crate::trace::{spanned, Probe};

    pub struct Ready;
    pub struct Value(pub Vec<i32>);

    messages! {
        enum Label { Ready(Ready), Value(Value): buffer }
    }

    roles! {
        message Label;
        bounds { K -> S: 1, S -> K: 1, K -> T: 1, T -> K: 1 };
        K { s: S, t: T },
        S { k: K },
        T { k: K },
    }

    session! {
        // Two unrolled iterations, so the session terminates.
        type Source<'q> = Receive<'q, S, K, Ready, Send<'q, S, K, Value,
            Receive<'q, S, K, Ready, Send<'q, S, K, Value, End<'q, S>>>>>;
        type Kernel<'q> = Send<'q, K, S, Ready, Receive<'q, K, S, Value,
            Receive<'q, K, T, Ready, Send<'q, K, T, Value,
            Send<'q, K, S, Ready, Receive<'q, K, S, Value,
            Receive<'q, K, T, Ready, Send<'q, K, T, Value, End<'q, K>>>>>>>>>;
        type Sink<'q> = Send<'q, T, K, Ready, Receive<'q, T, K, Value,
            Send<'q, T, K, Ready, Receive<'q, T, K, Value, End<'q, T>>>>>;
    }

    pub async fn source<P: Probe>(
        role: &mut S,
        len: usize,
        fills: (i32, i32),
        p: &mut P,
    ) -> rumpsteak::Result<()> {
        try_session(role, |s: Source<'_>| async move {
            let (Ready, s) = spanned!(p, SPAN_RECV, s.receive());
            let s = spanned!(p, SPAN_SEND, s.send(Value(vec![fills.0; len])));
            let (Ready, s) = spanned!(p, SPAN_RECV, s.receive());
            let end = spanned!(p, SPAN_SEND, s.send(Value(vec![fills.1; len])));
            Ok(((), end))
        })
        .await
    }

    pub async fn kernel<P: Probe>(role: &mut K, p: &mut P) -> rumpsteak::Result<()> {
        try_session(role, |s: Kernel<'_>| async move {
            let s = spanned!(p, SPAN_SEND, s.send(Ready));
            let (Value(first), s) = spanned!(p, SPAN_RECV, s.receive());
            let (Ready, s) = spanned!(p, SPAN_RECV, s.receive());
            let s = spanned!(p, SPAN_SEND, s.send(Value(first)));
            let s = spanned!(p, SPAN_SEND, s.send(Ready));
            let (Value(second), s) = spanned!(p, SPAN_RECV, s.receive());
            let (Ready, s) = spanned!(p, SPAN_RECV, s.receive());
            let end = spanned!(p, SPAN_SEND, s.send(Value(second)));
            Ok(((), end))
        })
        .await
    }

    pub async fn sink<P: Probe>(role: &mut T, p: &mut P) -> rumpsteak::Result<u64> {
        let digest = |buffer: &[i32]| buffer.iter().map(|&v| v as u64).sum::<u64>();
        try_session(role, |s: Sink<'_>| async move {
            let s = spanned!(p, SPAN_SEND, s.send(Ready));
            let (Value(first), s) = spanned!(p, SPAN_RECV, s.receive());
            let s = spanned!(p, SPAN_SEND, s.send(Ready));
            let (Value(second), end) = spanned!(p, SPAN_RECV, s.receive());
            Ok((digest(&first) + digest(&second), end))
        })
        .await
    }
}

/// The seeded inputs of a run: buffer lengths and the two fill values.
#[derive(Clone)]
pub struct Inputs {
    lengths: Arc<Vec<u16>>,
    fills: (i32, i32),
}

impl Inputs {
    pub fn generate(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let fills = (rng.range(1, 9) as i32, rng.range(1, 9) as i32);
        let lengths = (0..LENGTHS).map(|_| rng.range(64, 1024) as u16).collect();
        Inputs {
            lengths: Arc::new(lengths),
            fills,
        }
    }

    fn len(&self, session: u64) -> usize {
        usize::from(self.lengths[session as usize % LENGTHS])
    }

    /// Closed form of the sink's digest for `session`.
    fn expected(&self, session: u64) -> u64 {
        self.len(session) as u64 * (self.fills.0 + self.fills.1) as u64
    }

    fn hash(&self) -> u64 {
        let mut hash = InputHash::new();
        hash.word(self.fills.0 as u64);
        hash.word(self.fills.1 as u64);
        for &len in self.lengths.iter() {
            hash.word(u64::from(len));
        }
        hash.finish()
    }
}

/// Spawns one role task; the task reports when its body first ran.
fn spawn_role<P, F, Fut, T>(
    rt: &Runtime,
    p: &mut P,
    name: &'static str,
    session: u64,
    body: F,
) -> (u64, JoinHandle<(u64, P, rumpsteak::Result<T>)>)
where
    P: Probe,
    F: FnOnce(P) -> Fut + Send + 'static,
    Fut: std::future::Future<Output = (P, rumpsteak::Result<T>)> + Send,
    T: Send + 'static,
{
    // Room for the task span and a role's eight calls.
    let mut child = p.fork(12);
    let called = p.now();
    let handle = rt.spawn(async move {
        let first_poll = child.now();
        child.enter(name, session);
        let (mut child, out) = body(child).await;
        child.exit();
        (first_poll, child, out)
    });
    p.leaf(SPAN_SPAWN, called);
    (called, handle)
}

/// One whole session: links, three role tasks, checksum. `None` if a
/// role failed or panicked.
async fn session<P: Probe>(rt: &Runtime, inputs: &Inputs, id: u64, p: &mut P) -> Option<u64> {
    use protocol::{connect, kernel, sink, source};
    let started = p.now();
    let (mut k, mut s, mut t) = connect();
    p.leaf(SPAN_CONNECT, started);
    let (len, fills) = (inputs.len(id), inputs.fills);
    let (k_called, k_task) = spawn_role(rt, p, "task.kernel", id, move |mut p| async move {
        let out = kernel(&mut k, &mut p).await;
        (p, out)
    });
    let (s_called, s_task) = spawn_role(rt, p, "task.source", id, move |mut p| async move {
        let out = source(&mut s, len, fills, &mut p).await;
        (p, out)
    });
    let (t_called, t_task) = spawn_role(rt, p, "task.sink", id, move |mut p| async move {
        let out = sink(&mut t, &mut p).await;
        (p, out)
    });
    let (k_first, k_probe, k_out) = k_task.await.ok()?;
    let (s_first, s_probe, s_out) = s_task.await.ok()?;
    let (t_first, t_probe, digest) = t_task.await.ok()?;
    for (called, first, child) in [
        (k_called, k_first, k_probe),
        (s_called, s_first, s_probe),
        (t_called, t_first, t_probe),
    ] {
        p.record(SPAN_START_DELAY, called, first);
        p.join(child);
    }
    k_out.and(s_out).and(digest).ok()
}

pub struct Ctx {
    rt: Arc<Runtime>,
    inputs: Inputs,
}

/// One closed-loop trial: every client runs `per_client` sessions back
/// to back. Returns the failed-session count, the elapsed seconds and
/// the clients' probes.
fn closed_trial<P: Probe>(
    ctx: &Ctx,
    per_client: usize,
    first_id: u64,
    probes: Vec<P>,
) -> (u64, f64, Vec<P>) {
    let started = Instant::now();
    let clients: Vec<_> = probes
        .into_iter()
        .enumerate()
        .map(|(client, mut p)| {
            let (rt, inputs) = (ctx.rt.clone(), ctx.inputs.clone());
            ctx.rt.spawn(async move {
                let mut failed = 0u64;
                for i in 0..per_client {
                    let id = first_id + (client * per_client + i) as u64;
                    p.enter("session", id);
                    let digest = session(&rt, &inputs, id, &mut p).await;
                    p.exit();
                    failed += u64::from(digest != Some(inputs.expected(id)));
                }
                (failed, p)
            })
        })
        .collect();
    let mut failed = 0;
    let mut probes = Vec::with_capacity(CLIENTS);
    for client in clients {
        match ctx.rt.block_on(client) {
            Ok((client_failed, p)) => {
                failed += client_failed;
                probes.push(p);
            }
            Err(_) => failed += per_client as u64,
        }
    }
    (failed, started.elapsed().as_secs_f64(), probes)
}

fn setup(seed: u64) -> io::Result<Ctx> {
    let ctx = Ctx {
        rt: Arc::new(Runtime::new(1)),
        inputs: Inputs::generate(seed),
    };
    let (failed, _, _) = closed_trial(&ctx, WARMUP_PER_CLIENT, 0, vec![Off; CLIENTS]);
    if failed > 0 {
        return Err(io::Error::other("warm-up sessions failed"));
    }
    Ok(ctx)
}

/// When open-loop arrival `index` is due, in nanoseconds after the
/// first.
pub fn due_offset_ns(index: u64, rate: f64) -> u64 {
    (index as f64 * 1e9 / rate) as u64
}

/// How late the generator issued an arrival (0 if early or on time).
pub fn lateness_ns(issued_ns: u64, due_ns: u64) -> u64 {
    issued_ns.saturating_sub(due_ns)
}

pub struct OpenLoop {
    /// Per-session latency from due time, sorted, nanoseconds.
    pub latencies: Vec<u64>,
    /// Per-arrival generator lateness, sorted, nanoseconds.
    pub lateness: Vec<u64>,
    pub failed: u64,
}

/// The open loop: arrivals on a fixed schedule from this (spinning)
/// thread, each session timed from its due time by the session task
/// itself.
fn open_loop(ctx: &Ctx, arrivals: u64, first_id: u64) -> OpenLoop {
    let mut handles = Vec::with_capacity(arrivals as usize);
    let mut lateness = Vec::with_capacity(arrivals as usize);
    // All stamps share the tracer's clock so the session task can
    // subtract a due time taken on another thread.
    let origin = now_ns() + 1_000_000;
    // Relaxed on both sides: a count that publishes nothing else, and a
    // stale read only delays the guard by an arrival or two.
    let completed = Arc::new(AtomicU64::new(0));
    let mut refused = 0;
    for index in 0..arrivals {
        if index - completed.load(Ordering::Relaxed) > BACKLOG_LIMIT {
            refused = arrivals - index;
            break;
        }
        let due = origin + due_offset_ns(index, OPEN_RATE);
        let mut now = now_ns();
        while now < due {
            std::hint::spin_loop();
            now = now_ns();
        }
        lateness.push(lateness_ns(now, due));
        let (rt, inputs, completed) = (ctx.rt.clone(), ctx.inputs.clone(), completed.clone());
        let id = first_id + index;
        handles.push(ctx.rt.spawn(async move {
            let digest = session(&rt, &inputs, id, &mut Off).await;
            completed.fetch_add(1, Ordering::Relaxed);
            (
                now_ns().saturating_sub(due),
                digest == Some(inputs.expected(id)),
            )
        }));
    }
    let mut latencies = Vec::with_capacity(arrivals as usize);
    let mut failed = refused;
    for handle in handles {
        match ctx.rt.block_on(handle) {
            Ok((latency, true)) if latency <= DEADLINE.as_nanos() as u64 => latencies.push(latency),
            _ => failed += 1,
        }
    }
    latencies.sort_unstable();
    lateness.sort_unstable();
    OpenLoop {
        latencies,
        lateness,
        failed,
    }
}

pub fn run(cfg: &Cfg) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let (ctx, setup_s) = repeat_setup(|| setup(cfg.seed))?;
    out.input_hash = ctx.inputs.hash();
    let per_trial = (CLIENTS * SESSIONS_PER_CLIENT) as u64;

    // Closed loop: the whole of a timed run, the counted phase of a
    // traced one.
    let closed_seconds = if cfg.traced {
        cfg.seconds * TRACED_CLOSED_SHARE
    } else {
        cfg.seconds
    };
    let sample = cfg.traced.then(ProcSample::begin);
    let mut rates = Vec::new();
    let mut next_id = 0u64;
    let started = Instant::now();
    while rates.is_empty() || started.elapsed().as_secs_f64() < closed_seconds {
        let (failed, seconds, _) =
            closed_trial(&ctx, SESSIONS_PER_CLIENT, next_id, vec![Off; CLIENTS]);
        next_id += per_trial;
        out.attempted += per_trial;
        out.failed += failed;
        rates.push(per_trial as f64 / seconds);
    }
    if !cfg.traced {
        out.set_fast_rate("ops_per_s", &rates);
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", procfs::peak_rss_mb());
        return Ok(out);
    }
    if let Some(sample) = sample {
        sample.finish(out.attempted, &mut out);
    }

    // Open loop.
    let arrivals = ((cfg.seconds * TRACED_OPEN_SHARE * OPEN_RATE) as u64).max(1);
    let open = open_loop(&ctx, arrivals, next_id);
    next_id += arrivals;
    out.attempted += arrivals;
    out.failed += open.failed;
    if open.latencies.is_empty() {
        return Ok(out);
    }
    let p = |sorted: &[u64], q: f64| percentile_sorted(sorted, q) as f64 / 1e3;
    out.set("churn.lat_p50_us", p(&open.latencies, 50.0));
    out.set("churn.lat_p90_us", p(&open.latencies, 90.0));
    out.set("churn.lat_p99_us", p(&open.latencies, 99.0));
    out.set("churn.lat_p999_us", p(&open.latencies, 99.9));
    out.set("loadgen.late_p99_us", p(&open.lateness, 99.0));
    out.extra("loadgen.late_p50_us", p(&open.lateness, 50.0), "us");
    out.extra("churn.open_sessions", open.latencies.len() as f64, "count");

    // Span phase: one short closed-loop trial with the probe off, one
    // with it on.
    let traced_sessions = (CLIENTS * TRACED_PER_CLIENT) as u64;
    let (plain_failed, plain_s, _) =
        closed_trial(&ctx, TRACED_PER_CLIENT, next_id, vec![Off; CLIENTS]);
    next_id += traced_sessions;
    let per_client_cap = (SPAN_CAP / CLIENTS).min(TRACED_PER_CLIENT * SPANS_PER_SESSION);
    let probes = (0..CLIENTS)
        .map(|_| Recorder::new(per_client_cap, 0))
        .collect();
    let (traced_failed, traced_s, probes) = closed_trial(&ctx, TRACED_PER_CLIENT, next_id, probes);
    out.attempted += 2 * traced_sessions;
    out.failed += plain_failed + traced_failed;
    let mut trace = Trace::default();
    for probe in probes {
        trace.absorb(probe);
    }
    let totals = trace.totals();
    report_session_spans(&mut out, &trace, &totals, traced_sessions);
    out.set("rumpsteak.role.connect_ns", mean_ns(&totals, SPAN_CONNECT));
    out.set("executor.runtime.spawn_ns", mean_ns(&totals, SPAN_SPAWN));
    out.set(
        "executor.runtime.start_delay_ns",
        mean_ns(&totals, SPAN_START_DELAY),
    );
    out.set("trace.overhead_frac", 1.0 - plain_s / traced_s);
    out.extra("workload.us_per_session", 1e6 / fast_rate(&rates), "us");
    out.trace = Some(trace);
    drop(ctx);
    crate::ladder::in_process(1, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_fixed_rate() {
        assert_eq!(due_offset_ns(0, 10_000.0), 0);
        assert_eq!(due_offset_ns(1, 10_000.0), 100_000);
        assert_eq!(due_offset_ns(25_000, 10_000.0), 2_500_000_000);
        // Offsets never drift: arrival i is due at exactly i / rate, not
        // at the previous issue time plus an interval.
        assert_eq!(due_offset_ns(3, 3.0), 1_000_000_000);
    }

    #[test]
    fn lateness_is_zero_when_early() {
        assert_eq!(lateness_ns(150, 100), 50);
        assert_eq!(lateness_ns(100, 100), 0);
        assert_eq!(lateness_ns(90, 100), 0);
    }

    #[test]
    fn sessions_deliver_the_closed_form_digest() {
        let ctx = Ctx {
            rt: Arc::new(Runtime::new(1)),
            inputs: Inputs::generate(9),
        };
        let (failed, _, _) = closed_trial(&ctx, 3, 0, vec![Off; CLIENTS]);
        assert_eq!(failed, 0);
        let probes = (0..CLIENTS).map(|_| Recorder::new(256, 0)).collect();
        let (failed, _, probes) = closed_trial(&ctx, 2, 100, probes);
        assert_eq!(failed, 0);
        let mut trace = Trace::default();
        for probe in probes {
            trace.absorb(probe);
        }
        let totals = trace.totals();
        assert_eq!(totals["session"].count, 32);
        assert_eq!(totals[SPAN_CONNECT].count, 32);
        assert_eq!(totals[SPAN_START_DELAY].count, 96);
        assert_eq!(totals[SPAN_SEND].count + totals[SPAN_RECV].count, 32 * 16);
        assert_eq!(trace.dropped, 0);
        let open = open_loop(&ctx, 50, 1000);
        assert_eq!((open.failed, open.latencies.len()), (0, 50));
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(Inputs::generate(4).hash(), Inputs::generate(4).hash());
        assert_ne!(Inputs::generate(4).hash(), Inputs::generate(5).hash());
        let inputs = Inputs::generate(4);
        assert!((64..=1024).contains(&inputs.len(7)));
    }
}
