//! Property tests for the AMR optimiser (ISSUE 4 acceptance): every
//! candidate the optimiser **accepts** is
//!
//! (a) a verified asynchronous subtype of its projection — re-checked
//!     here independently of the check the search itself ran — and
//! (b) safe in the whole system: replacing *every* role by its best
//!     verified reordering simultaneously leaves the system k-MC
//!     clean (no deadlocks, reception errors or orphans),
//!
//! across ring and k-buffering pipeline instantiations `n ∈ 2..=6` and
//! a sweep of unfold depths. The ring is the bench family (one FSM per
//! participant, where the send-first reordering and its deeper
//! anticipated variants all fire); the pipeline is the parameterised
//! `kbuffering.scr` template through the codegen + optimise pass, where
//! the source's choice-hoist fires and the kernels' anticipations must
//! all be *rejected* (their exit branches would unbalance the loop).

use bench::verification::ring;
use proptest::prelude::*;
use theory::Name;

mod generators;
use generators::{optimised_pipeline, optimised_ring};

const KBUFFERING: &str = include_str!("../crates/codegen/tests/protocols/kbuffering.scr");

/// (a) for one projection: every accepted candidate re-verifies.
fn assert_candidates_verified(role: &str, projection: &theory::LocalType, depth: usize) {
    let config = optimiser::Config::with_depth(depth);
    let outcome = optimiser::optimise(&Name::from(role), projection, &config)
        .expect("projection converts to an FSM");
    for candidate in &outcome.candidates {
        assert!(
            subtyping::is_subtype(&candidate.fsm, &outcome.projection_fsm, config.bound),
            "accepted candidate of {role} (depth {depth}) is not a subtype: {}",
            outcome.local(candidate)
        );
        assert!(candidate.stats.verdict);
    }
}

/// (b) for the bench ring: all `n` roles replaced by their best verified
/// reordering at once.
fn assert_optimised_ring_safe(n: usize, depth: usize) {
    let system = kmc::System::new(optimised_ring(n, depth)).expect("distinct roles");
    // Anticipated sends need channel room: one slot per unfold plus the
    // base token in flight.
    kmc::check(&system, depth + 1).unwrap_or_else(|violation| {
        panic!("optimised ring n={n} depth={depth} violates k-MC: {violation}")
    });
}

/// (b) for the generated pipeline: the codegen optimise pass swaps every
/// role at once, then whole-system k-MC must still hold.
fn assert_optimised_pipeline_safe(n: usize, depth: usize) {
    let system = kmc::System::new(optimised_pipeline(n, depth)).expect("distinct roles");
    // The kernels' anticipations are all rejected (exit branches), so the
    // only accepted reordering is the source's choice-hoist: one message
    // of lookahead, k = 2 regardless of depth (the k-MC space at n = 6
    // grows steeply with k, and this test runs in debug builds).
    kmc::check(&system, 2).unwrap_or_else(|violation| {
        panic!("optimised pipeline n={n} depth={depth} violates k-MC: {violation}")
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ring_candidates_verified_and_system_safe(n in 2..=6usize, depth in 0..=1usize) {
        for i in 0..n {
            assert_candidates_verified(&format!("p{i}"), &ring::projected(i, n), depth);
        }
        assert_optimised_ring_safe(n, depth);
    }

    // Sampled at n <= 5: whole-pipeline k-MC at n = 6 costs seconds per
    // run in debug builds, and the exhaustive endpoint test below covers
    // n = 6 once.
    #[test]
    fn pipeline_candidates_verified_and_system_safe(n in 2..=5usize, depth in 0..=1usize) {
        let analysis = codegen::analyse_with(KBUFFERING, &[(Name::from("n"), n as i64)])
            .expect("kbuffering.scr analyses");
        for (role, projection) in &analysis.locals {
            assert_candidates_verified(role.as_str(), projection, depth);
        }
        assert_optimised_pipeline_safe(n, depth);
    }
}

/// The endpoints of the sweep, pinned exhaustively (the proptest cases
/// above sample the grid).
#[test]
fn every_instantiation_2_to_6_safe_at_depth_1() {
    for n in 2..=6 {
        assert_optimised_ring_safe(n, 1);
        assert_optimised_pipeline_safe(n, 1);
    }
}
