//! Property tests for parameterised protocols: every instantiation
//! `n ∈ 2..=8` of the committed templates must project for every family
//! member `w[i]` and pass the `--check` gate (k-MC deadlock/orphan/
//! reception-error freedom plus the reflexive-subtyping sanity pass).
//!
//! The ring family is exercised over the full `2..=8` (its k-MC space is
//! linear in `n`). The pipeline and all-to-all mesh grow their k-MC
//! configuration spaces exponentially — the pipeline at n = 8 alone is
//! 371k configurations (~17 s in release, far worse in the debug builds
//! `cargo test` uses) — so they are capped at 2..=6 and 2..=5
//! respectively, with the endpoints pinned exhaustively below.

use proptest::prelude::*;
use theory::local::LocalType;
use theory::Name;

const KBUFFERING: &str = include_str!("protocols/kbuffering.scr");
const PRING: &str = include_str!("protocols/pring.scr");
const PMESH: &str = include_str!("protocols/pmesh.scr");

/// First `Select` peer in pre-order: the role this participant first
/// sends to.
fn first_send_peer(local: &LocalType) -> Option<&Name> {
    match local {
        LocalType::End | LocalType::Var(_) => None,
        LocalType::Rec { body, .. } => first_send_peer(body),
        LocalType::Select { peer, .. } => Some(peer),
        LocalType::Branch { branches, .. } => branches
            .iter()
            .find_map(|branch| first_send_peer(&branch.continuation)),
    }
}

/// Analyses `template` at parameter `n` and runs the `--check` gate,
/// asserting every family member projected and, for the two topology
/// templates, that the projections wire the shape the template names.
fn check_instantiation(template: &str, what: &str, n: usize, k: usize) {
    let analysis = codegen::analyse_with(template, &[(Name::from("n"), n as i64)])
        .unwrap_or_else(|e| panic!("{what}: analyse failed at n={n}: {e}"));
    let members = analysis
        .protocol
        .roles
        .iter()
        .filter(|role| {
            role.as_str().starts_with('w') && role.as_str()[1..].chars().all(|c| c.is_ascii_digit())
        })
        .count();
    prop_assert_eq!(members, n, "{}: expected {} family members", what, n);
    match what {
        // A ring: every participant's first send goes to its successor.
        "pring" => {
            for (index, (role, local)) in analysis.locals.iter().enumerate() {
                let successor = &analysis.protocol.roles[(index + 1) % n];
                prop_assert_eq!(first_send_peer(local), Some(successor), "{}", role);
            }
        }
        // All-to-all: n - 1 peers each, so n(n - 1) messages a round.
        "pmesh" => {
            for (role, local) in &analysis.locals {
                prop_assert_eq!(local.peers().len(), n - 1, "{}", role);
            }
        }
        _ => {}
    }
    let report = codegen::check(&analysis, k)
        .unwrap_or_else(|e| panic!("{what}: --check gate failed at n={n}: {e}"));
    prop_assert!(
        report.configurations > 0,
        "{}: empty exploration at n={}",
        what,
        n
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn pring_instantiations_are_deadlock_free(n in 2usize..=8) {
        check_instantiation(PRING, "pring", n, 2);
    }

    #[test]
    fn kbuffering_instantiations_are_deadlock_free(n in 2usize..=6) {
        check_instantiation(KBUFFERING, "kbuffering", n, 2);
    }

    #[test]
    fn pmesh_instantiations_are_deadlock_free(n in 2usize..=5) {
        check_instantiation(PMESH, "pmesh", n, 2);
    }
}

/// The shim's proptest samples the range; pin the endpoints exhaustively
/// so the boundary instantiations can never rotate out of coverage.
#[test]
fn boundary_instantiations_are_deadlock_free() {
    for n in [2, 8] {
        check_instantiation(PRING, "pring", n, 2);
    }
    for n in [2, 6] {
        check_instantiation(KBUFFERING, "kbuffering", n, 2);
    }
    for n in [2, 5] {
        check_instantiation(PMESH, "pmesh", n, 2);
    }
}
