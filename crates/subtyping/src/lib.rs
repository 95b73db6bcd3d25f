//! The paper's sound asynchronous multiparty session subtyping algorithm
//! (§3, Fig 5), implemented on FSMs exactly as described in Appendix B.5:
//!
//! * [`prefix`] — SISO prefixes `π` as lazily-removable transition lists
//!   with snapshot/revert, and the prefix reduction rules
//!   `[)i] [)o] [)A] [)B]` of Definition 3 (including the fail-early
//!   optimisation),
//! * [`visitor`] — the depth-first `SubtypeVisitor` over a pair of FSMs
//!   with a map of the state pairs on the current derivation path
//!   standing for the assumption map `Σ` and a per-state-pair visit bound
//!   standing for the recursion bounds `n`; a check's memory follows its
//!   path depth, not the product of the machines.
//!
//! Both read [`Fsm`]s as they are: an action's peer, label and sort are
//! interned names, so matching two actions never reads a string, and no
//! entry point converts a machine. The entry points on local types build
//! both machines with [`fsm::from_local`] first.
//!
//! The algorithm is **sound** (a `true` answer implies the precise
//! asynchronous subtyping `T ≤ T′` of Ghilezan et al.) and **terminating**,
//! but necessarily incomplete since the precise relation is undecidable.
//!
//! # Example: the double-buffering optimisation (paper §2/§3)
//!
//! ```
//! use subtyping::is_subtype_local;
//! use theory::local;
//!
//! // Projected kernel Mk and AMR-optimised kernel M'k (Fig 4).
//! let projected = local::parse("rec x . s!ready . s?value . t?ready . t!value . x").unwrap();
//! let optimised = local::parse(
//!     "s!ready . rec x . s!ready . s?value . t?ready . t!value . x",
//! ).unwrap();
//! assert!(is_subtype_local(&optimised, &projected, 4).unwrap());
//! // ... and the converse fails: the projection is *not* a subtype of the
//! // optimisation (it would owe an extra `ready`).
//! assert!(!is_subtype_local(&projected, &optimised, 4).unwrap());
//! ```

pub mod prefix;
pub mod visitor;

use theory::fsm::{self, Fsm, FsmError};
use theory::local::LocalType;
use theory::Name;

pub use visitor::SubtypeVisitor;

/// Checks whether `sub` is an asynchronous subtype of `sup`.
///
/// `bound` limits how many times each pair of states may be revisited on a
/// single derivation path (the recursion-unrolling bound `n` of the paper);
/// larger bounds verify deeper reorderings at higher cost.
pub fn is_subtype(sub: &Fsm, sup: &Fsm, bound: usize) -> bool {
    check_with_stats(sub, sup, bound).verdict
}

/// [`is_subtype`] on local types, converted with [`fsm::from_local`].
pub fn is_subtype_local(sub: &LocalType, sup: &LocalType, bound: usize) -> Result<bool, FsmError> {
    Ok(check_with_stats_local(sub, sup, bound)?.verdict)
}

theory::json_record! {
    /// Outcome of one instrumented subtyping check; its JSON form is
    /// what `subtype --json` prints.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct CheckStats {
        /// Whether the subtyping was shown to hold.
        pub verdict: bool,
        /// The recursion-unrolling bound the check ran with.
        pub bound: usize,
        /// State-pair visits performed by the search — the cost metric
        /// reported by `subtype --json` and the optimiser report.
        pub visited_pairs: usize,
    }
}

/// Instrumented variant of [`is_subtype`]: same verdict, plus search
/// statistics.
pub fn check_with_stats(sub: &Fsm, sup: &Fsm, bound: usize) -> CheckStats {
    SubtypeVisitor::new(bound).check(sub, sup)
}

/// Instrumented variant of [`is_subtype_local`]: the `subtype` CLI's
/// `--json` output is this verbatim. Fails when either type does not
/// convert, the subtype's error first.
pub fn check_with_stats_local(
    sub: &LocalType,
    sup: &LocalType,
    bound: usize,
) -> Result<CheckStats, FsmError> {
    // The role takes no part in the check.
    let role = Name::new("r");
    let (sub, sup) = (fsm::from_local(&role, sub)?, fsm::from_local(&role, sup)?);
    Ok(check_with_stats(&sub, &sup, bound))
}

#[cfg(test)]
mod tests {
    use super::*;
    use theory::local;

    fn check(sub: &str, sup: &str, bound: usize) -> bool {
        let sub = local::parse(sub).unwrap();
        let sup = local::parse(sup).unwrap();
        is_subtype_local(&sub, &sup, bound).unwrap()
    }

    #[test]
    fn reflexive_on_paper_types() {
        for t in [
            "end",
            "p!a.end",
            "rec x . t?ready . +{ t!value.x, t!stop.end }",
            "rec x . s!ready . s?value . t?ready . t!value . x",
        ] {
            assert!(check(t, t, 4), "{t} should be a subtype of itself");
        }
    }

    /// Example 2 of the paper: reordering q's actions (send before
    /// receive) is safe...
    #[test]
    fn example2_correct_reordering() {
        assert!(check("p!l2.p?l1.end", "p?l1.p!l2.end", 2));
    }

    /// ...but reordering p's actions (receive before send) deadlocks and
    /// must be rejected.
    #[test]
    fn example2_incorrect_reordering() {
        assert!(!check("q?l2.q!l1.end", "q!l1.q?l2.end", 2));
    }

    /// §3's worked derivation: the optimised double-buffering kernel.
    #[test]
    fn double_buffering_kernel_optimisation() {
        let projected = "rec x . s!ready . s?copy . t?ready . t!copy . x";
        let optimised = "s!ready . rec x . s!ready . s?copy . t?ready . t!copy . x";
        assert!(check(optimised, projected, 4));
        assert!(!check(projected, optimised, 4));
    }

    /// Appendix B.2.1: ring protocol with choice.
    #[test]
    fn ring_with_choice_optimisation() {
        let projected = "rec t . a?add . +{ c!add.t, c!sub.t }";
        let optimised = "rec t . +{ c!add.a?add.t, c!sub.a?add.t }";
        assert!(check(optimised, projected, 4));
    }

    /// Appendix B.4: alternating bit protocol receiver.
    #[test]
    fn alternating_bit_receiver() {
        let projected = "rec t . s?d0 . +{ s!a0 . rec u . s?d1 . +{ s!a0.u, s!a1.t }, s!a1.t }";
        let specified = "rec t . &{ s?d0.s!a0.t, s?d1.s!a1.t }";
        assert!(check(specified, projected, 4));
    }

    /// Fig A.14: a subtype that "forgets" the initial q?l' input must be
    /// rejected by the action check in [asm].
    #[test]
    fn forgotten_action_is_rejected() {
        assert!(!check("rec t . p?l . t", "q?lp . rec t . p?l . t", 8));
    }

    /// Internal choice is covariant: fewer outputs is a subtype.
    #[test]
    fn fewer_internal_choices() {
        assert!(check("p!a.end", "+{ p!a.end, p!b.end }", 2));
        assert!(!check("+{ p!a.end, p!b.end }", "p!a.end", 2));
    }

    /// External choice is contravariant: more inputs is a subtype.
    #[test]
    fn more_external_choices() {
        assert!(check("&{ p?a.end, p?b.end }", "p?a.end", 2));
        assert!(!check("p?a.end", "&{ p?a.end, p?b.end }", 2));
    }

    /// Streaming source: unrolling sends ahead of the `ready` receives is
    /// exactly the AMR benchmarked in Fig 7 (streaming).
    #[test]
    fn streaming_unrolled_source() {
        // Infinite-stream shape used by the Fig 7 generator: the source
        // pre-sends two values, shifting the whole pipeline.
        let projected = "rec x . t?ready . t!value . x";
        let optimised = "t!value . t!value . rec x . t?ready . t!value . x";
        assert!(check(optimised, projected, 8));
        assert!(!check(projected, optimised, 8));
    }

    #[test]
    fn mismatched_labels_rejected() {
        assert!(!check("p!a.end", "p!b.end", 2));
        assert!(!check("p?a.end", "p?b.end", 2));
    }

    #[test]
    fn output_anticipation_cannot_cross_same_peer_output() {
        // B(p) forbids earlier outputs to the same participant.
        assert!(!check("p!b.p!a.end", "p!a.p!b.end", 2));
        // ...but crossing an output to a different peer is fine.
        assert!(check("p!a.q!b.end", "q!b.p!a.end", 2));
    }

    #[test]
    fn input_anticipation_cannot_cross_same_peer_input() {
        assert!(!check("p?b.p?a.end", "p?a.p?b.end", 2));
        assert!(check("p?a.q?b.end", "q?b.p?a.end", 2));
    }

    #[test]
    fn input_cannot_be_anticipated_before_output() {
        // A(p) contains only inputs: receiving early across a send is
        // unsound (it can deadlock).
        assert!(!check("p?a.q!b.end", "q!b.p?a.end", 2));
    }

    #[test]
    fn output_can_be_anticipated_before_inputs() {
        // R2: outputs may cross any inputs.
        assert!(check("p!a.p?b.end", "p?b.p!a.end", 2));
        assert!(check("p!a.q?b.r?c.end", "q?b.r?c.p!a.end", 2));
    }

    #[test]
    fn sort_subtyping_is_respected() {
        // Receives are contravariant in the payload sort: a receiver of
        // i64 can stand where a u32 is produced.
        assert!(check("p?l(i64).end", "p?l(u32).end", 2));
        assert!(!check("p?l(u32).end", "p?l(i64).end", 2));
        // Sends are covariant.
        assert!(check("p!l(u32).end", "p!l(i64).end", 2));
        assert!(!check("p!l(i64).end", "p!l(u32).end", 2));
    }

    #[test]
    fn end_not_subtype_of_action() {
        assert!(!check("end", "p!a.end", 2));
        assert!(!check("p!a.end", "end", 2));
    }
}
