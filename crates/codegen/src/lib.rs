//! Scribble → Rust session-type code generation: the missing "generate"
//! step of the paper's top-down workflow (Fig 1a).
//!
//! [`analyse`] runs the theory pipeline — `scribble::parse` →
//! `projection::project` per role → `fsm::from_local` — and [`rust_module`]
//! emits a self-contained Rust module against the `rumpsteak` runtime:
//! message structs, the `messages!`/`roles!` mesh declarations, and one
//! session type per role (`session!` aliases and recursion structs, with
//! `choice!` enums for internal/external choices).
//!
//! All naming is deterministic (see [`naming`]): the same Scribble source
//! always produces byte-identical output, which is what the golden-file
//! tests pin.
//!
//! ```
//! let source = r#"
//!     global protocol Greet(role a, role b) {
//!         hello(i32) from a to b;
//!     }
//! "#;
//! let analysis = codegen::analyse(source).unwrap();
//! let module = codegen::rust_module(&analysis).unwrap();
//! assert!(module.contains("pub struct Hello(pub i32);"));
//! assert!(module.contains("type ASession<'q> = Send<'q, A, B, Hello, End<'q, A>>;"));
//! ```

pub mod naming;

mod emit;
mod skeleton;

use std::fmt;

use theory::fsm::{self, Fsm, FsmError};
use theory::projection::{self, ProjectionError};
use theory::scribble::{self, Bindings, Protocol, ScribbleError};
use theory::sort::Sort;
use theory::{LocalType, Name};

pub use emit::rust_module;
pub use skeleton::{rust_distributed_program, rust_program};

/// The protocol together with its per-role projections and FSMs.
///
/// Produced by [`analyse`]; consumed by every output format and by
/// [`check`].
pub struct Analysis {
    /// The parsed protocol.
    pub protocol: Protocol,
    /// Per-role projections, in role declaration order.
    pub locals: Vec<(Name, LocalType)>,
    /// Per-role FSMs, in role declaration order.
    pub fsms: Vec<Fsm>,
}

/// Errors across the whole generation pipeline.
#[derive(Debug)]
pub enum Error {
    /// Scribble parsing failed.
    Parse(ScribbleError),
    /// Projection onto `role` failed.
    Projection(Name, ProjectionError),
    /// FSM conversion for `role` failed.
    Fsm(Name, FsmError),
    /// One label is used with two different payload sorts; the shared
    /// wire-format enum needs a unique sort per label.
    LabelSortConflict {
        /// The conflicting label.
        label: Name,
        /// Sort of the first occurrence.
        first: Sort,
        /// Sort of the later, conflicting occurrence.
        second: Sort,
    },
    /// Two distinct Scribble identifiers mangle to the same Rust name.
    NameCollision {
        /// What kind of identifier collided (role, label, ...).
        kind: &'static str,
        /// The mangled Rust name.
        name: String,
    },
    /// The projected FSMs do not form a valid system.
    System(kmc::SystemError),
    /// `--check` found a k-MC violation.
    Violation(kmc::Violation),
    /// `--check` found a projection that is not a subtype of itself,
    /// indicating a broken FSM conversion.
    SubtypeSanity(Name),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "parse error: {e}"),
            Error::Projection(role, e) => write!(f, "projection onto {role} failed: {e}"),
            Error::Fsm(role, e) => write!(f, "FSM conversion for {role} failed: {e}"),
            Error::LabelSortConflict {
                label,
                first,
                second,
            } => write!(
                f,
                "label {label} is used with conflicting sorts {first} and {second}"
            ),
            Error::NameCollision { kind, name } => {
                write!(
                    f,
                    "{kind} identifier maps to Rust name `{name}`, which is already taken \
                     (by another identifier or a reserved name)"
                )
            }
            Error::System(e) => write!(f, "projected FSMs form no valid system: {e}"),
            Error::Violation(v) => write!(f, "k-MC violation: {v}"),
            Error::SubtypeSanity(role) => {
                write!(f, "projection of {role} fails reflexive subtyping")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Runs parse → project → FSM conversion on Scribble source.
///
/// Parameterised protocols (role families with non-literal bounds) need
/// [`analyse_with`]; this entry point instantiates with no bindings.
pub fn analyse(source: &str) -> Result<Analysis, Error> {
    analyse_with(source, &[])
}

/// Like [`analyse`], but instantiates a parameterised protocol first:
/// each `(name, value)` pair binds one template parameter (the CLI's
/// `--param name=value`).
pub fn analyse_with(source: &str, params: &[(Name, i64)]) -> Result<Analysis, Error> {
    let template = scribble::parse_template(source).map_err(Error::Parse)?;
    let bindings: Bindings = params.iter().cloned().collect();
    let protocol = template.instantiate(&bindings).map_err(Error::Parse)?;
    let mut locals = Vec::with_capacity(protocol.roles.len());
    let mut fsms = Vec::with_capacity(protocol.roles.len());
    for role in &protocol.roles {
        let local =
            projection::project(&protocol.body, role).map_err(|e| Error::Projection(*role, e))?;
        let machine = fsm::from_local(role, &local).map_err(|e| Error::Fsm(*role, e))?;
        locals.push((*role, local));
        fsms.push(machine);
    }
    Ok(Analysis {
        protocol,
        locals,
        fsms,
    })
}

/// The optimise pass (`rumpsteak-gen --optimise`): replaces every role's
/// projection with the best AMR reordering the optimiser can verify
/// against it, so emission — `rust_module`, `rust_program`, the listings
/// — generates code whose roles run the *optimised* local types.
///
/// Roles with no verified improvement keep their projection unchanged.
/// Returns one machine-readable [`optimiser::Report`] per role, in role
/// declaration order.
pub fn optimise(
    analysis: &mut Analysis,
    config: &optimiser::Config,
) -> Result<Vec<optimiser::Report>, Error> {
    let mut reports = Vec::with_capacity(analysis.locals.len());
    for ((role, local), machine) in analysis.locals.iter_mut().zip(&mut analysis.fsms) {
        let outcome = optimiser::optimise(role, local, config).map_err(|e| Error::Fsm(*role, e))?;
        *local = outcome.best_local();
        *machine = outcome.best_fsm().clone();
        reports.push(outcome.report());
    }
    Ok(reports)
}

/// Renders every role's FSM as Graphviz DOT, one digraph per role.
pub fn dot_listing(analysis: &Analysis) -> String {
    analysis
        .fsms
        .iter()
        .map(theory::dot::to_dot)
        .collect::<Vec<_>>()
        .join("\n")
}

/// Renders the projected system as `role: local type` lines — the input
/// format of the `kmc` and `subtype` command-line tools.
pub fn fsm_listing(analysis: &Analysis) -> String {
    let mut out = format!("# protocol {}\n", analysis.protocol.name);
    for (role, local) in &analysis.locals {
        out.push_str(&format!("{role}: {local}\n"));
    }
    out
}

/// Verifies the projected system before emission: the exact k-MC search
/// with channel bound `k`, whose report says whether the verdict is
/// k-exhaustive, plus a reflexive-subtyping sanity pass over every
/// projected FSM.
pub fn check(analysis: &Analysis, k: usize) -> Result<kmc::Report, Error> {
    for machine in &analysis.fsms {
        if !subtyping::is_subtype(machine, machine, 2) {
            return Err(Error::SubtypeSanity(machine.role));
        }
    }
    let system = kmc::System::new(analysis.fsms.clone()).map_err(Error::System)?;
    kmc::explore(&system, k).map_err(Error::Violation)
}

/// The exhaustively verified per-channel depth bounds of the projected
/// system, as `(from, to, max_depth)` triples in channel-index order —
/// the payload of the `bounds { ... }` clause the emitter writes into
/// generated `roles!` declarations.
///
/// Asks [`kmc::bounds`] at `k =` [`MAX_BOUND_SEARCH`]: the k-MC verdict
/// and each queue's exact maximum depth — the depth the verdict's reduced
/// search reached, where a search of the queue's two machines certifies
/// it, and otherwise one reduced search of that queue — given exactly
/// when the exact search at that `k` is exhaustive (no send ever finds its
/// queue full). An exhaustive run explores the
/// same configurations as every `k` from the smallest exhaustive one up,
/// so its maxima are the tight static bounds; and since reachable
/// configurations only grow with `k`, a violation at a smaller `k` shows
/// here too. Returns an empty vector if the system is invalid, unsafe, or
/// not exhaustively checkable within the bound — emission then simply
/// omits the clause rather than registering an unverified bound.
pub fn verified_channel_bounds(analysis: &Analysis) -> Vec<(Name, Name, usize)> {
    let Ok(system) = kmc::System::new(analysis.fsms.clone()) else {
        return Vec::new();
    };
    match kmc::bounds(&system, MAX_BOUND_SEARCH) {
        Ok(Some(max_depths)) => kmc::channel_bounds(&max_depths, &system),
        _ => Vec::new(),
    }
}

/// The channel bound [`verified_channel_bounds`] checks at; real
/// protocols in the corpus are exhaustive well below it.
pub const MAX_BOUND_SEARCH: usize = 16;

#[cfg(test)]
mod tests {
    use super::*;

    const STREAMING: &str = r#"
        global protocol Streaming(role s, role t) {
            rec loop {
                ready() from t to s;
                choice at s {
                    value(i32) from s to t;
                    continue loop;
                } or {
                    stop() from s to t;
                }
            }
        }
    "#;

    #[test]
    fn analyse_streaming() {
        let analysis = analyse(STREAMING).unwrap();
        assert_eq!(analysis.protocol.roles.len(), 2);
        assert_eq!(analysis.fsms[0].role, Name::from("s"));
        assert_eq!(analysis.fsms[0].len(), 3);
    }

    #[test]
    fn check_accepts_streaming() {
        let analysis = analyse(STREAMING).unwrap();
        let report = check(&analysis, 2).unwrap();
        assert!(report.configurations > 0);
    }

    #[test]
    fn check_rejects_unprojectable() {
        // c must act differently on a choice it cannot observe.
        let bad = r#"
            global protocol Bad(role a, role b, role c) {
                choice at a {
                    l1() from a to b;
                    m1() from c to b;
                } or {
                    l2() from a to b;
                    m2() from c to b;
                }
            }
        "#;
        assert!(matches!(analyse(bad), Err(Error::Projection(..))));
    }

    #[test]
    fn check_surfaces_kmc_violations() {
        // Projection is sound, so no Scribble input can produce an unsafe
        // system through `analyse`; cover the Violation branch by handing
        // `check` a deliberately deadlocking pair of machines (both
        // receive first).
        let protocol =
            scribble::parse("global protocol P(role a, role b) { hi() from a to b; }").unwrap();
        let a = fsm::from_local(&"a".into(), &theory::local::parse("b?x.end").unwrap()).unwrap();
        let b = fsm::from_local(&"b".into(), &theory::local::parse("a?y.end").unwrap()).unwrap();
        let analysis = Analysis {
            protocol,
            locals: Vec::new(),
            fsms: vec![a, b],
        };
        assert!(matches!(
            check(&analysis, 2),
            Err(Error::Violation(kmc::Violation::Deadlock(_)))
        ));
    }

    #[test]
    fn bounds_widen_past_a_full_queue_deadlock() {
        const SWAP: &str = "global protocol Swap(role a, role b) {
            x() from a to b; u() from b to a; y() from a to b; v() from b to a;
        }";
        let mut analysis = analyse(SWAP).unwrap();
        let pair = |depth| {
            vec![
                (Name::from("a"), Name::from("b"), depth),
                (Name::from("b"), Name::from("a"), depth),
            ]
        };
        assert_eq!(verified_channel_bounds(&analysis), pair(1));
        optimise(&mut analysis, &optimiser::Config::with_depth(1)).unwrap();
        assert_eq!(analysis.locals[0].1.to_string(), "b!x.b!y.b?u.b?v.end");
        // Both sides send twice before receiving: at k = 1 every send
        // waits on a full queue, which k-MC reports as a deadlock.
        assert!(matches!(
            check(&analysis, 1),
            Err(Error::Violation(kmc::Violation::Deadlock(_)))
        ));
        assert_eq!(verified_channel_bounds(&analysis), pair(2));
        assert!(rust_module(&analysis)
            .unwrap()
            .contains("bounds { A -> B: 2, B -> A: 2 };"));
    }

    #[test]
    fn bounds_of_a_real_deadlock_stay_empty() {
        // Both machines receive first: a deadlock at every k.
        let protocol =
            scribble::parse("global protocol P(role a, role b) { hi() from a to b; }").unwrap();
        let a = fsm::from_local(&"a".into(), &theory::local::parse("b?x.end").unwrap()).unwrap();
        let b = fsm::from_local(&"b".into(), &theory::local::parse("a?y.end").unwrap()).unwrap();
        let analysis = Analysis {
            protocol,
            locals: Vec::new(),
            fsms: vec![a, b],
        };
        assert!(verified_channel_bounds(&analysis).is_empty());
    }

    #[test]
    fn optimise_pass_keeps_locals_and_fsms_in_sync() {
        let mut analysis = analyse(STREAMING).unwrap();
        let reports = optimise(&mut analysis, &optimiser::Config::with_depth(1)).unwrap();
        // The source's value/stop choice hoists above its ready receive.
        assert!(reports[0].improved);
        for ((role, local), machine) in analysis.locals.iter().zip(&analysis.fsms) {
            assert_eq!(&fsm::from_local(role, local).unwrap(), machine);
        }
        // The optimised system is still verifiable end to end.
        check(&analysis, 2).unwrap();
    }

    #[test]
    fn optimise_pass_changes_emitted_sessions() {
        let mut optimised = analyse(STREAMING).unwrap();
        optimise(&mut optimised, &optimiser::Config::with_depth(1)).unwrap();
        let plain = rust_module(&analyse(STREAMING).unwrap()).unwrap();
        let optimised = rust_module(&optimised).unwrap();
        assert_ne!(plain, optimised);
        // Projected: s receives Ready, then selects. Optimised: the loop
        // entry point is the selection itself.
        assert!(plain.contains(
            "struct SLoop<'q> for S = Receive<'q, S, T, Ready, Select<'q, S, T, SChoice<'q>>>;"
        ));
        assert!(optimised.contains("struct SLoop<'q> for S = Select<'q, S, T, SChoice<'q>>;"));
    }

    #[test]
    fn fsm_listing_is_kmc_input() {
        let analysis = analyse(STREAMING).unwrap();
        let listing = fsm_listing(&analysis);
        assert!(listing.contains("s: rec loop.t?ready."));
        assert!(listing.contains("t: rec loop.s!ready."));
        // The listing round-trips through the kmc system parser.
        let specs: Vec<(&str, &str)> = listing
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .map(|l| l.split_once(':').unwrap())
            .map(|(r, b)| (r.trim(), b.trim()))
            .collect();
        let system = kmc::system_from_locals(&specs).unwrap();
        assert!(kmc::check(&system, 2).is_ok());
    }

    #[test]
    fn dot_listing_has_one_digraph_per_role() {
        let analysis = analyse(STREAMING).unwrap();
        let dot = dot_listing(&analysis);
        assert_eq!(dot.matches("digraph").count(), 2);
    }
}
