// Generated by `rumpsteak-gen` from global protocol `DStreaming`. Do not edit.
//
// Projections:
//   s: rec loop.t?ready.+{t!value(i32).loop, t!stop.end}
//   t: rec loop.s!ready.&{s?value(i32).loop, s?stop.end}

use rumpsteak::net::{NetLink, RemoteMesh, Topology};
use rumpsteak::{choice, messages, session, Branch, End, Receive, Select, Send};

/// Label `ready`.
pub struct Ready;
/// Label `value` carrying `i32`.
pub struct Value(pub i32);
/// Label `stop`.
pub struct Stop;

messages! {
    wire enum Label {
        Ready(Ready),
        Value(Value): i32,
        Stop(Stop),
    }
}

// ---- distributed roles ----------------------------------------------
// One struct per role holding a framed socket link per peer — the same
// shape `roles!` generates, with `NetLink` as the carrier — and one
// `connect_<role>` constructor per role: it binds the role's topology
// address, registers the statically verified k-MC bounds (each link's
// socket send window is capped at its direction's bound), then dials
// or accepts each peer.

/// Distributed role `S`: one framed socket link per peer.
pub struct S {
    t: NetLink<Label>,
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

/// Connects role `S` to its peers as laid out in `topology`.
pub fn connect_s(topology: Topology) -> std::io::Result<S> {
    let mut mesh = RemoteMesh::<Label>::bind(topology, "S")?;
    mesh.set_bound("S", "T", 1);
    mesh.set_bound("T", "S", 1);
    let t = mesh.link("T")?;
    Ok(S { t })
}

/// Distributed role `T`: one framed socket link per peer.
pub struct T {
    s: NetLink<Label>,
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

/// Connects role `T` to its peers as laid out in `topology`.
pub fn connect_t(topology: Topology) -> std::io::Result<T> {
    let mut mesh = RemoteMesh::<Label>::bind(topology, "T")?;
    mesh.set_bound("S", "T", 1);
    mesh.set_bound("T", "S", 1);
    let s = mesh.link("S")?;
    Ok(T { s })
}

session! {
    type SSession<'q> = SLoop<'q>;
    struct SLoop<'q> for S = Receive<'q, S, T, Ready, Select<'q, S, T, SChoice<'q>>>;
    type TSession<'q> = TLoop<'q>;
    struct TLoop<'q> for T = Send<'q, T, S, Ready, Branch<'q, T, S, TChoice<'q>>>;
}

choice! {
    enum SChoice<'q> for S {
        Value(Value) => SLoop<'q>,
        Stop(Stop) => End<'q, S>,
    }
}

choice! {
    enum TChoice<'q> for T {
        Value(Value) => TLoop<'q>,
        Stop(Stop) => End<'q, T>,
    }
}

use rumpsteak::{try_session, IntoSession};

// ---- process skeletons ----------------------------------------------
// Default logic, meant to be edited: payloads are `Default::default()`,
// received payloads are discarded, and internal choices loop `ROUNDS`
// times before taking a branch that leaves the loop.

/// Iterations each internal choice performs before choosing an exit.
pub const ROUNDS: usize = 100;

/// Skeleton process for role `S`: drives `SSession` to completion.
pub async fn run_s(role: &mut S) -> rumpsteak::Result<()> {
    try_session(role, |s: SSession<'_>| async move {
        let mut rounds = ROUNDS;
        let mut s1 = s;
        'l1: loop {
            let s = s1.into_session();
            let (Ready, s) = s.receive().await?;
            if rounds > 0 {
                rounds -= 1;
                let s = s.select(Value(Default::default())).await?;
                s1 = s;
                continue 'l1;
            } else {
                let s = s.select(Stop).await?;
                return Ok(((), s));
            }
        }
    })
    .await
}

/// Skeleton process for role `T`: drives `TSession` to completion.
pub async fn run_t(role: &mut T) -> rumpsteak::Result<()> {
    try_session(role, |s: TSession<'_>| async move {
        let mut s1 = s;
        'l1: loop {
            let s = s1.into_session();
            let s = s.send(Ready).await?;
            match s.branch().await? {
                TChoice::Value(Value(_), s) => {
                    s1 = s;
                    continue 'l1;
                }
                TChoice::Stop(Stop, s) => {
                    return Ok(((), s));
                }
            }
        }
    })
    .await
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (role, topology) = match (args.next(), args.next()) {
        (Some(role), Some(topology)) => (role, topology),
        _ => {
            eprintln!("usage: <ROLE> <TOPOLOGY-FILE>  (roles: S, T)");
            std::process::exit(2);
        }
    };
    let topology = Topology::from_file(&topology).unwrap_or_else(|error| {
        eprintln!("error: cannot load topology: {error}");
        std::process::exit(2);
    });
    let rt = executor::Runtime::with_default_threads();
    match role.as_str() {
        "S" => {
            let mut s = connect_s(topology).expect("connect role S");
            let handle = rt.spawn(async move { run_s(&mut s).await });
            rt.block_on(handle)
                .expect("task panicked")
                .expect("session failed");
        }
        "T" => {
            let mut t = connect_t(topology).expect("connect role T");
            let handle = rt.spawn(async move { run_t(&mut t).await });
            rt.block_on(handle)
                .expect("task panicked")
                .expect("session failed");
        }
        other => {
            eprintln!("unknown role `{other}` (roles: S, T)");
            std::process::exit(2);
        }
    }
    // Inert unless the environment opts in: `RUMPSTEAK_TRACE_OUT=<path>`
    // writes this process's trace dump for `rumpsteak-trace --merge`.
    if let Ok(path) = std::env::var("RUMPSTEAK_TRACE_OUT") {
        std::fs::write(&path, rumpsteak::telemetry::trace::dump_text(&role))
            .expect("write trace dump");
    }
    println!("role `{role}` of protocol `DStreaming` ran to completion");
}
