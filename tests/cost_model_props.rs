//! Tests for the cost-aware AMR ranking:
//!
//! (a) every candidate accepted under the rewrite gaps the price list
//!     came with — hoisting a common send out of external-choice
//!     branches, and receive-receive reordering — re-verifies as an
//!     asynchronous subtype, and the whole system stays k-MC clean with
//!     the rewritten role swapped in;
//! (b) pricing is monotone over the finite set of payload sorts: a
//!     bulkier hoisted payload never raises a step's estimated saving, a
//!     bulkier crossed receive never lowers it;
//! (c) the acceptance pin: the optimiser ranks the small-payload hoist
//!     above the large-payload hoist on a protocol where both cross one
//!     receive and generation order favours the bulky one.

use optimiser::cost::{step_saving_ns, wire_size};
use optimiser::rewrite::Step;
use optimiser::Config;
use theory::sort::Sort;
use theory::Name;

fn parse(text: &str) -> theory::LocalType {
    theory::local::parse(text).expect("test local type parses")
}

fn optimise(role: &str, projection: &str, config: &Config) -> optimiser::Optimised {
    optimiser::optimise(&Name::from(role), &parse(projection), config)
        .expect("projection converts to an FSM")
}

/// Re-checks every accepted candidate independently of the search's own
/// verification pass.
fn assert_reverified(outcome: &optimiser::Optimised, bound: usize) {
    assert!(
        !outcome.candidates.is_empty(),
        "{}: the rewrite under test generated no verified candidate",
        outcome.role
    );
    for candidate in &outcome.candidates {
        assert!(candidate.stats.verdict);
        assert!(
            subtyping::is_subtype(&candidate.fsm, &outcome.projection_fsm, bound),
            "accepted candidate of {} does not re-verify: {}",
            outcome.role,
            outcome.local(candidate)
        );
    }
}

/// Swaps `role`'s projection for `optimised` inside a closed system of
/// (role, local type) pairs and checks whole-system k-MC.
fn assert_system_safe(
    system: &[(&str, &str)],
    role: &str,
    optimised: &theory::LocalType,
    k: usize,
) {
    let machines: Vec<_> = system
        .iter()
        .map(|(name, text)| {
            let local = if *name == role {
                optimised.clone()
            } else {
                parse(text)
            };
            bench::verification::to_fsm(name, &local)
        })
        .collect();
    let system = kmc::System::new(machines).expect("distinct roles");
    kmc::check(&system, k).unwrap_or_else(|violation| {
        panic!("system with optimised `{role}` violates {k}-MC: {violation}")
    });
}

/// (a) for the external-choice hoist: the common `ack` send is pulled
/// above the choice, every candidate re-verifies, and the closed
/// three-role system stays 2-MC clean with the rewritten role in place.
#[test]
fn branch_hoist_candidates_reverify_and_system_stays_safe() {
    let config = Config::with_depth(1);
    let outcome = optimise(
        "m",
        "&{ p?go . q!ack(i32) . end, p?halt . q!ack(i32) . end }",
        &config,
    );
    assert_reverified(&outcome, config.bound);
    let best = outcome.best().expect("branch hoist improves the role");
    assert!(outcome
        .derivation(best)
        .iter()
        .any(|step| matches!(step, Step::HoistFromBranches { .. })));
    assert_system_safe(
        &[
            ("p", "+{ m!go . end, m!halt . end }"),
            (
                "m",
                "&{ p?go . q!ack(i32) . end, p?halt . q!ack(i32) . end }",
            ),
            ("q", "m?ack(i32) . end"),
        ],
        "m",
        &outcome.local(best),
        2,
    );
}

/// (a) for receive-receive reordering: the swapped variant verifies, and
/// the closed system stays 2-MC clean with the reordered receiver.
#[test]
fn swapped_receives_reverify_and_system_stays_safe() {
    let config = Config::with_depth(1);
    let outcome = optimise("r", "p?a . q?b . end", &config);
    assert_reverified(&outcome, config.bound);
    let swapped = outcome
        .candidates
        .iter()
        .find(|c| {
            outcome
                .derivation(c)
                .iter()
                .any(|step| matches!(step, Step::SwapReceives { .. }))
        })
        .expect("the receive swap is generated and verified");
    assert_system_safe(
        &[
            ("p", "r!a . end"),
            ("q", "r!b . end"),
            ("r", "p?a . q?b . end"),
        ],
        "r",
        &outcome.local(swapped),
        2,
    );
}

/// Every payload sort, cheapest wire size first.
fn sorts_by_wire_size() -> Vec<Sort> {
    let sorts = vec![
        Sort::Unit,
        Sort::Bool,
        Sort::I32,
        Sort::U32,
        Sort::I64,
        Sort::U64,
        Sort::F64,
        Sort::Str,
        Sort::Custom("buffer".into()),
    ];
    assert!(sorts.is_sorted_by_key(wire_size));
    sorts
}

/// Savings of the three priced rewrite rules — hoist past a receive,
/// hoist out of branches, anticipate — each hoisting a `hoisted` payload
/// past receives of which one carries `crossed`.
fn savings(hoisted: &Sort, crossed: &Sort) -> [f64; 3] {
    [
        Step::HoistPastReceive {
            send_peer: "q".into(),
            receive_peer: "p".into(),
            send_sorts: vec![Sort::Unit, *hoisted],
            receive_sort: *crossed,
        },
        Step::HoistFromBranches {
            send_peer: "q".into(),
            receive_peer: "p".into(),
            label: "ack".into(),
            sort: *hoisted,
            receive_sorts: vec![*crossed, Sort::I64],
        },
        Step::Anticipate {
            peer: "q".into(),
            label: "ready".into(),
            sort: *hoisted,
            crossed_receives: vec![*crossed, Sort::Unit],
        },
    ]
    .map(|step| step_saving_ns(&step))
}

/// (b) over every sort against every adjacent pair of sorts:
/// `step_saving_ns` is non-increasing in the hoisted payload's wire size
/// and non-decreasing in each crossed receive's.
#[test]
fn step_saving_is_monotone_in_both_payloads() {
    let sorts = sorts_by_wire_size();
    for fixed in &sorts {
        for pair in sorts.windows(2) {
            let (small, large) = (&pair[0], &pair[1]);
            for rule in 0..3 {
                assert!(
                    savings(large, fixed)[rule] <= savings(small, fixed)[rule],
                    "rule {rule}: hoisting {large} instead of {small} past {fixed} saves more"
                );
                assert!(
                    savings(fixed, large)[rule] >= savings(fixed, small)[rule],
                    "rule {rule}: crossing {large} instead of {small} with {fixed} saves less"
                );
            }
        }
    }
    // Not vacuous: the extremes differ, in the directions claimed.
    let (unit, bulky) = (&sorts[0], &sorts[sorts.len() - 1]);
    for rule in 0..3 {
        assert!(savings(bulky, unit)[rule] < savings(unit, unit)[rule]);
        assert!(savings(unit, bulky)[rule] > savings(unit, unit)[rule]);
    }
}

/// (c) the acceptance pin. Two independent single-step hoists — a bulky
/// payload on edge `q` (`q!big(str)` past `p?a`) and a tiny one on edge
/// `s` (`s!tiny(i32)` past `p?b`) — cross one receive each, and the
/// bulky one is generated first. Parking 1 KiB in the channel costs more
/// than parking 4 bytes, so the cheap hoist ranks above it.
#[test]
fn price_list_ranks_cheap_payload_hoist_above_bulky_one() {
    let outcome = optimise(
        "r",
        "p?a . q!big(str) . p?b . s!tiny(i32) . end",
        &Config::with_depth(1),
    );
    let single_hoist_on = |edge: &'static str| {
        let outcome = &outcome;
        move |candidate: &optimiser::Candidate| {
            matches!(
                outcome.derivation(candidate).as_slice(),
                [Step::HoistPastReceive { send_peer, .. }] if *send_peer == Name::from(edge)
            )
        }
    };
    let rank_of = |pred: &dyn Fn(&optimiser::Candidate) -> bool| {
        outcome
            .candidates
            .iter()
            .position(pred)
            .expect("single-step hoist candidate present")
    };
    let (bulky, cheap) = (
        rank_of(&single_hoist_on("q")),
        rank_of(&single_hoist_on("s")),
    );
    assert_eq!(
        outcome.candidates[bulky].score,
        outcome.candidates[cheap].score
    );
    assert!(
        cheap < bulky,
        "the small-payload hoist does not rank above the bulky one"
    );
    let best = outcome.best().expect("the cheap hoist is an improvement");
    assert!(best.estimated_saving_ns > 0.0);
    assert!(!single_hoist_on("q")(best));
}
