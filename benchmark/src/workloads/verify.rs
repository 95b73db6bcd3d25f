//! The two verification workloads (the paper's Fig 7 side): how long a
//! user waits for a verdict.
//!
//! * `verify_kmc` runs the top-down pipeline — Scribble → projection →
//!   FSM → `kmc::check` → Rust emission — over a fixed corpus; k-MC does
//!   nearly all the work and the runtime none, so this is the bypass
//!   workload for every runtime or transport change.
//! * `verify_amr` runs the AMR optimiser and the asynchronous subtyping
//!   checker over nested choices, long unrolls and pipelines; k-MC does
//!   little.
//!
//! Every entry carries the verdict a person worked out from the paper's
//! definitions — safe or the kind of violation, subtype or not — never
//! one read off the code under test; both corpora contain negative
//! controls. One *operation* is one pass over the corpus, in a seeded
//! order.

use std::io;
use std::time::Instant;

use theory::scribble::{self, Bindings};
use theory::{fsm, local, projection, Fsm, LocalType, Name};

use super::{repeat_setup, Cfg, Outcome, ProcSample, SpanTotals};
use crate::procfs;
use crate::seed::{InputHash, Rng};
use crate::stats::median;
use crate::trace::{Off, Probe, Recorder, Trace, SPAN_CAP};

const KBUFFERING: &str = include_str!("../../corpus/kbuffering.scr");
const PMESH: &str = include_str!("../../corpus/pmesh.scr");

/// Where an entry's types come from.
#[derive(Clone)]
enum Source {
    /// A parameterised Scribble protocol instantiated at `n`.
    Scribble { text: &'static str, n: i64 },
    /// A Scribble protocol generated at corpus-build time.
    Generated(String),
    /// `role: local type` lines.
    Locals(Vec<(String, String)>),
}

/// What went wrong while building an entry's machines; any of these is
/// a failed operation, not a crash.
struct BuildError(String);

fn build_error(stage: &str, error: impl std::fmt::Display) -> BuildError {
    BuildError(format!("{stage}: {error}"))
}

/// Projections and machines of one entry, with the protocol when the
/// source was Scribble (emission needs it).
struct Built {
    protocol: Option<scribble::Protocol>,
    locals: Vec<(Name, LocalType)>,
    fsms: Vec<Fsm>,
}

impl Source {
    fn hash(&self, hash: &mut InputHash) {
        match self {
            Source::Scribble { text, n } => {
                hash.bytes(text.as_bytes());
                hash.word(*n as u64);
            }
            Source::Generated(text) => hash.bytes(text.as_bytes()),
            Source::Locals(lines) => {
                for (role, body) in lines {
                    hash.bytes(role.as_bytes());
                    hash.bytes(body.as_bytes());
                }
            }
        }
    }

    /// Parse, project and convert, each under its own span. Local-type
    /// sources have nothing to project.
    fn build<P: Probe>(&self, p: &mut P) -> Result<Built, BuildError> {
        let started = p.now();
        let protocol = match self {
            Source::Scribble { text, n } => {
                let template =
                    scribble::parse_template(text).map_err(|e| build_error("parse", e))?;
                let bindings: Bindings = [(Name::from("n"), *n)].into_iter().collect();
                let protocol = template
                    .instantiate(&bindings)
                    .map_err(|e| build_error("instantiate", e))?;
                Some(protocol)
            }
            Source::Generated(text) => {
                Some(scribble::parse(text).map_err(|e| build_error("parse", e))?)
            }
            Source::Locals(_) => None,
        };
        let mut locals = Vec::new();
        if let Source::Locals(lines) = self {
            for (role, body) in lines {
                let local = local::parse(body).map_err(|e| build_error("parse", e))?;
                locals.push((Name::from(role.as_str()), local));
            }
        }
        p.leaf("theory.parse", started);

        if let Some(protocol) = &protocol {
            let started = p.now();
            for role in &protocol.roles {
                let local = projection::project(&protocol.body, role)
                    .map_err(|e| build_error("project", e))?;
                locals.push((role.clone(), local));
            }
            p.leaf("theory.project", started);
        }

        let started = p.now();
        let fsms = locals
            .iter()
            .map(|(role, local)| fsm::from_local(role, local).map_err(|e| build_error("fsm", e)))
            .collect::<Result<Vec<_>, BuildError>>()?;
        p.leaf("theory.fsm", started);
        Ok(Built {
            protocol,
            locals,
            fsms,
        })
    }
}

/// The k-MC verdict an entry must get.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KmcVerdict {
    Safe,
    Deadlock,
    ReceptionError,
}

#[derive(Clone)]
struct KmcEntry {
    name: String,
    source: Source,
    k: usize,
    expect: KmcVerdict,
}

/// Exact counts of one `verify_kmc` pass.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
pub struct KmcCounts {
    pub fsm_states: u64,
    pub configurations: u64,
    pub transitions: u64,
    pub emit_bytes: u64,
}

/// Every participant of an `n`-ring sends before it receives: the AMR
/// ring of the paper's Fig 7, safe with one message per channel.
fn amr_ring(n: usize) -> Vec<(String, String)> {
    (0..n)
        .map(|i| {
            let (prev, next) = ((i + n - 1) % n, (i + 1) % n);
            (
                format!("p{i}"),
                format!("rec x . p{next}!v . p{prev}?v . x"),
            )
        })
        .collect()
}

fn kmc_corpus() -> Vec<KmcEntry> {
    let scribble = |name: &str, text, n, k| KmcEntry {
        name: format!("{name}-{n}"),
        source: Source::Scribble { text, n },
        k,
        expect: KmcVerdict::Safe,
    };
    let locals = |name: &str, lines: Vec<(String, String)>, k, expect| KmcEntry {
        name: name.to_owned(),
        source: Source::Locals(lines),
        k,
        expect,
    };
    let pair = |a: &str, b: &str| {
        vec![
            ("a".to_owned(), a.to_owned()),
            ("b".to_owned(), b.to_owned()),
        ]
    };
    // A ring in which nobody sends first can never move.
    let mut stuck_ring = amr_ring(3);
    stuck_ring[0].1 = "rec x . p2?v . p1!v . x".to_owned();
    stuck_ring[1].1 = "rec x . p0?v . p2!v . x".to_owned();
    stuck_ring[2].1 = "rec x . p1?v . p0!v . x".to_owned();
    vec![
        scribble("kbuffering", KBUFFERING, 4, 2),
        scribble("kbuffering", KBUFFERING, 5, 2),
        scribble("pmesh", PMESH, 4, 2),
        scribble("pmesh", PMESH, 5, 2),
        locals("amr-ring-8", amr_ring(8), 1, KmcVerdict::Safe),
        // Negative controls.
        locals("stuck-ring-3", stuck_ring, 1, KmcVerdict::Deadlock),
        locals(
            "wrong-label",
            pair("b!ping . b?pong . end", "a?ping . a!oops . end"),
            2,
            KmcVerdict::ReceptionError,
        ),
    ]
}

impl KmcEntry {
    /// Runs the pipeline on this entry; `Ok(true)` when the verdict is
    /// the expected one.
    fn run<P: Probe>(&self, p: &mut P, counts: &mut KmcCounts) -> Result<bool, BuildError> {
        let built = self.source.build(p)?;
        counts.fsm_states += built.fsms.iter().map(|m| m.len() as u64).sum::<u64>();
        let started = p.now();
        let system = kmc::System::new(built.fsms.clone()).map_err(|e| build_error("system", e))?;
        let verdict = match kmc::check(&system, self.k) {
            Ok(report) => {
                counts.configurations += report.configurations as u64;
                counts.transitions += report.transitions as u64;
                KmcVerdict::Safe
            }
            Err(kmc::Violation::Deadlock(_)) => KmcVerdict::Deadlock,
            Err(kmc::Violation::ReceptionError { .. }) => KmcVerdict::ReceptionError,
            Err(kmc::Violation::OrphanMessages(_)) => return Ok(false),
        };
        p.leaf("kmc.check", started);
        if let (KmcVerdict::Safe, Some(protocol)) = (verdict, built.protocol) {
            let started = p.now();
            let analysis = codegen::Analysis {
                protocol,
                locals: built.locals,
                fsms: built.fsms,
            };
            let module = codegen::rust_module(&analysis).map_err(|e| build_error("emit", e))?;
            counts.emit_bytes += module.len() as u64;
            p.leaf("codegen.emit", started);
        }
        Ok(verdict == self.expect)
    }
}

/// What an `verify_amr` entry asks of the optimiser or the checker.
#[derive(Clone)]
enum AmrTask {
    /// `sub ≤ sup` under `bound` must come out as `expect`.
    Subtype {
        sub: (Source, &'static str),
        sup: (Source, &'static str),
        bound: usize,
        expect: bool,
    },
    /// Optimise `role`'s projection at `depth`; every candidate returned
    /// must re-verify against the projection, and the best must cross at
    /// least `min_score` receives.
    Optimise {
        source: Source,
        role: String,
        depth: usize,
        min_score: usize,
    },
}

#[derive(Clone)]
struct AmrEntry {
    name: String,
    task: AmrTask,
}

/// Exact counts of one `verify_amr` pass.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
pub struct AmrCounts {
    pub visited_pairs: u64,
    pub generated: u64,
    pub verified: u64,
    pub pruned: u64,
}

/// Nested choice of Chen et al. (the paper's Fig 7, second plot): the
/// candidate subtype offers fewer selections and accepts more branches,
/// `levels` deep.
fn nested_choice(levels: usize, supertype: bool) -> String {
    fn sub(levels: usize) -> String {
        if levels == 0 {
            return String::new();
        }
        let inner = sub(levels - 1);
        format!(
            "choice at a {{ m() from a to p; choice at p \
             {{ r() from p to a; {inner} }} or {{ s() from p to a; {inner} }} \
             or {{ u() from p to a; {inner} }} }} \
             or {{ p() from a to p; choice at p \
             {{ r() from p to a; {inner} }} or {{ s() from p to a; {inner} }} }}"
        )
    }
    fn sup(levels: usize) -> String {
        if levels == 0 {
            return String::new();
        }
        let inner = sup(levels - 1);
        format!(
            "choice at p {{ r() from p to a; choice at a \
             {{ m() from a to p; {inner} }} or {{ p() from a to p; {inner} }} \
             or {{ q() from a to p; {inner} }} }} \
             or {{ s() from p to a; choice at a \
             {{ m() from a to p; {inner} }} or {{ p() from a to p; {inner} }} }}"
        )
    }
    let body = if supertype { sup(levels) } else { sub(levels) };
    format!("global protocol NestedChoice(role a, role p) {{ {body} }}")
}

fn one_local(role: &str, body: String) -> (Source, &'static str) {
    (Source::Locals(vec![(role.to_owned(), body)]), "")
}

const STREAM_LOOP: &str = "rec x . t?ready . t!value . x";
const KERNEL_LOOP: &str = "rec x . s!ready . s?value . t?ready . t!value . x";

fn amr_corpus() -> Vec<AmrEntry> {
    let subtype = |name: &str, sub, sup, bound, expect| AmrEntry {
        name: name.to_owned(),
        task: AmrTask::Subtype {
            sub,
            sup,
            bound,
            expect,
        },
    };
    let nested = |levels, supertype| (Source::Generated(nested_choice(levels, supertype)), "a");
    let unrolled = |n: usize| one_local("s", format!("{}{STREAM_LOOP}", "t!value . ".repeat(n)));
    let anticipated = |n: usize| one_local("k", format!("{}{KERNEL_LOOP}", "s!ready . ".repeat(n)));
    let stream = || one_local("s", STREAM_LOOP.to_owned());
    let kernel = || one_local("k", KERNEL_LOOP.to_owned());
    let optimise_kernel = |depth, min_score| AmrEntry {
        name: format!("optimise-kernel-depth-{depth}"),
        task: AmrTask::Optimise {
            source: kernel().0,
            role: "k".to_owned(),
            depth,
            min_score,
        },
    };
    let mut entries = vec![
        subtype(
            "nested-choice-4",
            nested(4, false),
            nested(4, true),
            6,
            true,
        ),
        subtype("streaming-unroll-100", unrolled(100), stream(), 104, true),
        subtype("kbuffering-ahead-8", anticipated(8), kernel(), 12, true),
        // Negative controls: the supertype is not a subtype of its own
        // subtype, and un-sending what was sent ahead is not allowed.
        subtype(
            "nested-choice-3-reversed",
            nested(3, true),
            nested(3, false),
            5,
            false,
        ),
        subtype("streaming-unroll-reversed", stream(), unrolled(3), 7, false),
        subtype("kbuffering-reversed", kernel(), anticipated(1), 5, false),
        // Fig 4b generalised: n readys sent ahead cross n receives. At
        // depth 8 the search hits its candidate cap before the deepest
        // kernel, so only the double-buffering kernel is demanded there.
        optimise_kernel(3, 3),
        optimise_kernel(8, 1),
    ];
    for n in [5, 6] {
        for role in 1..=n {
            entries.push(AmrEntry {
                name: format!("optimise-pmesh-{n}-w{role}"),
                task: AmrTask::Optimise {
                    source: Source::Scribble { text: PMESH, n },
                    role: format!("w{role}"),
                    depth: 2,
                    min_score: 0,
                },
            });
        }
    }
    entries
}

/// The projection of `role` (or the only one, for `""`) and its machine.
fn pick(built: Built, role: &str) -> Result<(Name, LocalType, Fsm), BuildError> {
    let index = if role.is_empty() {
        0
    } else {
        built
            .locals
            .iter()
            .position(|(name, _)| name.as_str() == role)
            .ok_or_else(|| build_error("pick", format!("no role {role}")))?
    };
    let (name, local) = built
        .locals
        .into_iter()
        .nth(index)
        .ok_or_else(|| build_error("pick", "no roles"))?;
    let machine = built
        .fsms
        .into_iter()
        .nth(index)
        .ok_or_else(|| build_error("pick", "no machines"))?;
    Ok((name, local, machine))
}

impl AmrEntry {
    fn hash(&self, hash: &mut InputHash) {
        hash.bytes(self.name.as_bytes());
        match &self.task {
            AmrTask::Subtype {
                sub, sup, bound, ..
            } => {
                sub.0.hash(hash);
                sup.0.hash(hash);
                hash.word(*bound as u64);
            }
            AmrTask::Optimise { source, depth, .. } => {
                source.hash(hash);
                hash.word(*depth as u64);
            }
        }
    }

    fn run<P: Probe>(&self, p: &mut P, counts: &mut AmrCounts) -> Result<bool, BuildError> {
        match &self.task {
            AmrTask::Subtype {
                sub,
                sup,
                bound,
                expect,
            } => {
                let (_, _, sub) = pick(sub.0.build(p)?, sub.1)?;
                let (_, _, sup) = pick(sup.0.build(p)?, sup.1)?;
                let started = p.now();
                let stats = subtyping::check_with_stats(&sub, &sup, *bound);
                p.leaf("subtyping.check", started);
                counts.visited_pairs += stats.visited_pairs as u64;
                Ok(stats.verdict == *expect)
            }
            AmrTask::Optimise {
                source,
                role,
                depth,
                min_score,
            } => {
                let (role, projection, machine) = pick(source.build(p)?, role)?;
                let started = p.now();
                let outcome =
                    optimiser::optimise(&role, &projection, &optimiser::Config::with_depth(*depth))
                        .map_err(|e| build_error("optimise", e))?;
                p.leaf("optimiser.optimise", started);
                counts.generated += outcome.generated as u64;
                counts.pruned += outcome.pruned as u64;
                counts.verified += outcome.candidates.len() as u64;
                // The optimiser's own verdicts, checked again from
                // outside it.
                let started = p.now();
                let mut sound = true;
                for candidate in &outcome.candidates {
                    let stats =
                        subtyping::check_with_stats(&candidate.fsm, &machine, outcome.bound);
                    counts.visited_pairs += stats.visited_pairs as u64;
                    sound &= stats.verdict;
                }
                p.leaf("subtyping.check", started);
                let score = outcome.best().map_or(0, |best| best.score);

                Ok(sound && score >= *min_score)
            }
        }
    }
}

/// What the generic pass loop needs of a corpus.
trait Corpus: Sized {
    type Counts: Default + Copy + PartialEq + std::fmt::Debug;
    fn build(seed: u64) -> (Self, u64);
    fn len(&self) -> usize;
    /// One pass; returns the number of entries with a wrong verdict.
    fn pass<P: Probe>(&self, p: &mut P, counts: &mut Self::Counts) -> u64;
    fn report(out: &mut Outcome, totals: &SpanTotals, counts: &Self::Counts, passes: u64);
    /// Probes that run once after the passes of a traced run.
    fn rungs(&self, _out: &mut Outcome) {}
}

struct KmcCorpus(Vec<KmcEntry>);
struct AmrCorpus(Vec<AmrEntry>);

fn failures<'a>(results: impl Iterator<Item = (&'a str, Result<bool, BuildError>)>) -> u64 {
    let mut failed = 0;
    for (name, result) in results {
        match result {
            Ok(true) => {}
            Ok(false) => {
                eprintln!("verify: wrong verdict on {name}");
                failed += 1;
            }
            Err(error) => {
                eprintln!("verify: {name} did not build: {}", error.0);
                failed += 1;
            }
        }
    }
    failed
}

/// Total seconds per pass of one span name.
fn span_s(totals: &SpanTotals, name: &str, passes: u64) -> f64 {
    totals
        .get(name)
        .map_or(0.0, |t| t.total_ns as f64 / 1e9 / passes.max(1) as f64)
}

fn report_theory(out: &mut Outcome, totals: &SpanTotals, passes: u64) {
    out.set("theory.parse_s", span_s(totals, "theory.parse", passes));
    out.set("theory.project_s", span_s(totals, "theory.project", passes));
    out.set("theory.fsm_s", span_s(totals, "theory.fsm", passes));
}

impl Corpus for KmcCorpus {
    type Counts = KmcCounts;

    fn build(seed: u64) -> (Self, u64) {
        let mut entries = kmc_corpus();
        Rng::new(seed).shuffle(&mut entries);
        let mut hash = InputHash::new();
        for entry in &entries {
            hash.bytes(entry.name.as_bytes());
            entry.source.hash(&mut hash);
            hash.word(entry.k as u64);
        }
        (KmcCorpus(entries), hash.finish())
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn pass<P: Probe>(&self, p: &mut P, counts: &mut KmcCounts) -> u64 {
        failures(
            self.0
                .iter()
                .map(|entry| (entry.name.as_str(), entry.run(p, counts))),
        )
    }

    fn report(out: &mut Outcome, totals: &SpanTotals, counts: &KmcCounts, passes: u64) {
        report_theory(out, totals, passes);
        let check_s = span_s(totals, "kmc.check", passes);
        out.set("theory.fsm_states", counts.fsm_states as f64);
        out.set("kmc.check_s", check_s);
        out.set("kmc.configurations", counts.configurations as f64);
        out.set("kmc.transitions", counts.transitions as f64);
        out.set("kmc.configs_per_s", counts.configurations as f64 / check_s);
        out.set("codegen.emit_s", span_s(totals, "codegen.emit", passes));
        out.set("codegen.emit_bytes", counts.emit_bytes as f64);
    }

    /// The bound search that emission runs inside `rust_module`, timed
    /// on its own so that `emit_s - bounds_s` is the emitter's self
    /// time.
    fn rungs(&self, out: &mut Outcome) {
        let mut total = 0.0;
        for entry in &self.0 {
            let Ok(Built {
                protocol: Some(protocol),
                locals,
                fsms,
            }) = entry.source.build(&mut Off)
            else {
                continue;
            };
            let analysis = codegen::Analysis {
                protocol,
                locals,
                fsms,
            };
            let started = Instant::now();
            std::hint::black_box(codegen::verified_channel_bounds(&analysis));
            total += started.elapsed().as_secs_f64();
        }
        out.set("codegen.bounds_s", total);
    }
}

impl Corpus for AmrCorpus {
    type Counts = AmrCounts;

    fn build(seed: u64) -> (Self, u64) {
        let mut entries = amr_corpus();
        Rng::new(seed).shuffle(&mut entries);
        let mut hash = InputHash::new();
        for entry in &entries {
            entry.hash(&mut hash);
        }
        (AmrCorpus(entries), hash.finish())
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn pass<P: Probe>(&self, p: &mut P, counts: &mut AmrCounts) -> u64 {
        failures(
            self.0
                .iter()
                .map(|entry| (entry.name.as_str(), entry.run(p, counts))),
        )
    }

    fn report(out: &mut Outcome, totals: &SpanTotals, counts: &AmrCounts, passes: u64) {
        report_theory(out, totals, passes);
        let check_s = span_s(totals, "subtyping.check", passes);
        out.set("subtyping.check_s", check_s);
        out.set("subtyping.visited_pairs", counts.visited_pairs as f64);
        out.set(
            "subtyping.pairs_per_s",
            counts.visited_pairs as f64 / check_s,
        );
        out.set(
            "optimiser.optimise_s",
            span_s(totals, "optimiser.optimise", passes),
        );
        out.set("optimiser.generated", counts.generated as f64);
        out.set("optimiser.verified", counts.verified as f64);
        out.set("optimiser.pruned", counts.pruned as f64);
        out.set(
            "optimiser.verified_frac",
            counts.verified as f64 / (counts.generated.max(1)) as f64,
        );
    }
}

struct Ctx<C: Corpus> {
    corpus: C,
    hash: u64,
    /// The counts every later pass must reproduce exactly.
    reference: C::Counts,
}

fn setup<C: Corpus>(seed: u64) -> io::Result<Ctx<C>> {
    let (corpus, hash) = C::build(seed);
    let mut reference = C::Counts::default();
    if corpus.pass(&mut Off, &mut reference) > 0 {
        return Err(io::Error::other("warm-up pass got a wrong verdict"));
    }
    Ok(Ctx {
        corpus,
        hash,
        reference,
    })
}

/// Runs passes under probe `p` until `seconds` have passed (at least
/// one), books their verdicts in `out`, and returns each pass's seconds.
fn passes<C: Corpus, P: Probe>(
    ctx: &Ctx<C>,
    p: &mut P,
    seconds: f64,
    out: &mut Outcome,
) -> Vec<f64> {
    let entries = ctx.corpus.len() as u64;
    let mut pass_s = Vec::new();
    let started = Instant::now();
    while pass_s.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let mut counts = C::Counts::default();
        let pass_started = Instant::now();
        p.enter("pass", pass_s.len() as u64 + 1);
        let wrong = ctx.corpus.pass(p, &mut counts);
        p.exit();
        pass_s.push(pass_started.elapsed().as_secs_f64());
        out.attempted += entries;
        // A pass whose exact counts differ from the first explored a
        // different state space: every verdict in it is suspect.
        out.failed += if counts == ctx.reference {
            wrong
        } else {
            entries
        };
    }
    pass_s
}

fn run<C: Corpus>(cfg: &Cfg) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let (ctx, setup_s) = repeat_setup(|| setup::<C>(cfg.seed))?;
    out.input_hash = ctx.hash;

    if !cfg.traced {
        let pass_s = passes(&ctx, &mut Off, cfg.seconds, &mut out);
        let rates: Vec<f64> = pass_s.iter().map(|s| 1.0 / s).collect();
        let rate = out.set_fast_rate("ops_per_s", &rates);
        out.extra("verdict_s", 1.0 / rate, "s");
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", procfs::peak_rss_mb());
        return Ok(out);
    }

    // Traced: a counted phase with the probe off, then the same passes
    // with spans around every layer call. The spans are few and long, so
    // two phases of equal length give the overhead.
    let phase = cfg.seconds * 0.25;
    let sample = ProcSample::begin();
    let plain_s = passes(&ctx, &mut Off, phase, &mut out);
    sample.finish(plain_s.len() as u64, &mut out);
    let mut root = Recorder::new(SPAN_CAP, 0);
    let traced_s = passes(&ctx, &mut root, phase, &mut out);
    let mut trace = Trace::default();
    trace.absorb(root);
    // Every pass reproduced the reference counts, or the run has failed.
    let totals = trace.totals();
    C::report(&mut out, &totals, &ctx.reference, traced_s.len() as u64);
    ctx.corpus.rungs(&mut out);
    out.set(
        "trace.overhead_frac",
        1.0 - median(&plain_s) / median(&traced_s),
    );
    // Share of each pass covered by layer spans.
    let pass = totals.get("pass").copied().unwrap_or_default();
    out.set(
        "trace.coverage_frac",
        1.0 - pass.self_ns as f64 / pass.total_ns.max(1) as f64,
    );
    out.extra("trace.dropped_spans", trace.dropped as f64, "count");
    out.trace = Some(trace);
    Ok(out)
}

pub fn run_kmc(cfg: &Cfg) -> io::Result<Outcome> {
    run::<KmcCorpus>(cfg)
}

pub fn run_amr(cfg: &Cfg) -> io::Result<Outcome> {
    run::<AmrCorpus>(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_corpora_get_their_hand_written_verdicts_and_repeat_exactly() {
        let (kmc, hash) = KmcCorpus::build(1);
        let mut first = KmcCounts::default();
        assert_eq!(kmc.pass(&mut Off, &mut first), 0);
        let (again, hash_again) = KmcCorpus::build(1);
        let mut second = KmcCounts::default();
        assert_eq!(again.pass(&mut Off, &mut second), 0);
        assert_eq!((first, hash), (second, hash_again));
        assert!(first.configurations > 0 && first.emit_bytes > 0);
        // Another seed reorders the corpus and nothing else.
        let (other, other_hash) = KmcCorpus::build(2);
        let mut third = KmcCounts::default();
        assert_eq!(other.pass(&mut Off, &mut third), 0);
        assert_eq!(first, third);
        assert_ne!(hash, other_hash);

        let (amr, _) = AmrCorpus::build(1);
        let mut counts = AmrCounts::default();
        assert_eq!(amr.pass(&mut Off, &mut counts), 0);
        assert!(counts.visited_pairs > 0 && counts.verified > 0);
    }

    #[test]
    fn a_wrong_expectation_is_counted_as_a_failure() {
        let mut entries = kmc_corpus();
        entries.truncate(1);
        entries[0].expect = KmcVerdict::Deadlock;
        let mut counts = KmcCounts::default();
        assert_eq!(KmcCorpus(entries).pass(&mut Off, &mut counts), 1);
    }
}
