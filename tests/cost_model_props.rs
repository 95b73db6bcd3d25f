//! Property tests for the profile-guided cost model (ISSUE 10):
//!
//! (a) every candidate accepted under the new rewrite gaps — hoisting a
//!     common send out of external-choice branches, and receive-receive
//!     reordering — re-verifies as an asynchronous subtype, and the
//!     whole system stays k-MC clean with the rewritten role swapped in;
//! (b) cost-model ranking is monotone: inflating one edge's measured
//!     per-byte cost never *raises* the estimated saving of a candidate
//!     that sends on that edge, leaves candidates avoiding the edge
//!     untouched, and therefore never lifts an on-edge candidate above
//!     an off-edge candidate that already out-ranked it;
//! (c) the acceptance pin: with a measured `fig6 --edge-costs` profile
//!     loaded through `CostModel::from_profile`, the optimiser ranks the
//!     small-payload hoist above the large-payload hoist on a protocol
//!     where the receives-crossed proxy scores them equal.

use optimiser::cost::{CostModel, CostSource, EdgeCost};
use optimiser::rewrite::Step;
use optimiser::Config;
use proptest::prelude::*;
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
            candidate.local
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
    assert!(best
        .derivation
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
        &best.local,
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
            c.derivation
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
        &swapped.local,
        2,
    );
}

/// The monotonicity workload: two independent hoists, one sending a
/// bulky payload on edge `q`, one sending a tiny payload on edge `s`.
const TWO_EDGE_PROJECTION: &str = "p?a . q!big(str) . p?b . s!tiny(i32) . end";

/// True when any derivation step moves a send on the given edge.
fn sends_on_edge(candidate: &optimiser::Candidate, edge: &str) -> bool {
    let edge = Name::from(edge);
    candidate.derivation.iter().any(|step| match step {
        Step::HoistPastReceive { send_peer, .. } => *send_peer == edge,
        Step::HoistFromBranches { send_peer, .. } => *send_peer == edge,
        Step::Anticipate { peer, .. } => *peer == edge,
        Step::HoistPastSend { .. } | Step::SwapReceives { .. } => false,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// (b) inflating edge `q`'s per-byte cost: on-edge savings never
    /// increase, off-edge savings are untouched, and no on-edge
    /// candidate overtakes an off-edge candidate that out-ranked it.
    #[test]
    fn inflating_an_edge_never_ranks_its_candidates_higher(factor in 1.0f64..64.0) {
        let base_config =
            Config::with_depth(1).with_cost(CostModel::default_table());
        let mut inflated_model = CostModel::default_table();
        let spsc = *inflated_model.class("spsc").expect("spsc class present");
        inflated_model.set_edge(
            "q",
            EdgeCost { ns_per_byte: spsc.ns_per_byte * factor, ..spsc },
        );
        let inflated_config = Config::with_depth(1).with_cost(inflated_model);

        let base = optimise("r", TWO_EDGE_PROJECTION, &base_config);
        let inflated = optimise("r", TWO_EDGE_PROJECTION, &inflated_config);
        prop_assert!(base.candidates.iter().any(|c| sends_on_edge(c, "q")));
        prop_assert!(base.candidates.iter().any(|c| !sends_on_edge(c, "q")));

        let saving = |outcome: &optimiser::Optimised, local: &theory::LocalType| {
            outcome
                .candidates
                .iter()
                .find(|c| c.local == *local)
                .map(|c| c.estimated_saving_ns.expect("cost model configured"))
        };
        for candidate in &base.candidates {
            let before = candidate.estimated_saving_ns.expect("cost model configured");
            let after = saving(&inflated, &candidate.local)
                .expect("same candidate set under both models");
            if sends_on_edge(candidate, "q") {
                prop_assert!(
                    after <= before,
                    "inflating edge q raised {}: {before} -> {after}",
                    candidate.local
                );
            } else {
                prop_assert!(
                    after == before,
                    "edge-q inflation moved off-edge candidate {}: {before} -> {after}",
                    candidate.local
                );
            }
        }

        // Rank statement: an on-edge candidate never rises above an
        // off-edge candidate that out-ranked it under the base model.
        let rank = |outcome: &optimiser::Optimised, local: &theory::LocalType| {
            outcome
                .candidates
                .iter()
                .position(|c| c.local == *local)
                .expect("candidate present in both runs")
        };
        for on in base.candidates.iter().filter(|c| sends_on_edge(c, "q")) {
            for off in base.candidates.iter().filter(|c| !sends_on_edge(c, "q")) {
                if rank(&base, &off.local) < rank(&base, &on.local) {
                    prop_assert!(
                        rank(&inflated, &off.local) < rank(&inflated, &on.local),
                        "inflating edge q lifted {} above {}",
                        on.local,
                        off.local
                    );
                }
            }
        }
    }
}

/// (c) the acceptance pin. Receives-crossed scores the bulky hoist
/// (`q!big(str)` past `p?a`) and the cheap hoist (`s!tiny(i32)` past
/// `p?b`) identically — and generation order ranks the bulky one first.
/// The measured profile must flip that:
/// the per-byte cost makes parking 1 KiB in the channel more expensive
/// than parking 4 bytes, so the cheap hoist wins.
#[test]
fn committed_profile_ranks_cheap_payload_hoist_above_bulky_one() {
    // One `fig6 --json --edge-costs` measurement, trimmed to the section
    // the optimiser reads.
    let profile = r#"{"edge_costs": {"unit": "ns", "classes": [
      {"class": "spsc", "send_base_ns": 10.16, "recv_base_ns": 27.88, "ns_per_byte": 0.2898},
      {"class": "tcp", "send_base_ns": 3541.2, "recv_base_ns": 3541.2, "ns_per_byte": 0.536},
      {"class": "uds", "send_base_ns": 1099.48, "recv_base_ns": 1099.48, "ns_per_byte": 1.3709}
    ]}}"#;
    let model = CostModel::from_profile(profile).expect("profile carries edge_costs");
    assert_eq!(model.source(), CostSource::Measured);

    fn single(candidate: &optimiser::Candidate) -> Option<&Step> {
        match candidate.derivation.as_slice() {
            [step] => Some(step),
            _ => None,
        }
    }
    let is_bulky = |candidate: &optimiser::Candidate| {
        matches!(
            single(candidate),
            Some(Step::HoistPastReceive { send_peer, .. }) if *send_peer == Name::from("q")
        )
    };
    let is_cheap = |candidate: &optimiser::Candidate| {
        matches!(
            single(candidate),
            Some(Step::HoistPastReceive { send_peer, .. }) if *send_peer == Name::from("s")
        )
    };
    let rank_of = |outcome: &optimiser::Optimised, pred: &dyn Fn(&optimiser::Candidate) -> bool| {
        outcome
            .candidates
            .iter()
            .position(pred)
            .expect("single-step hoist candidate present")
    };

    // The proxy ties the two single-step hoists on score (1 crossed
    // receive each) and ranks the bulky one first.
    let proxy = optimise("r", TWO_EDGE_PROJECTION, &Config::with_depth(1));
    let (bulky_rank, cheap_rank) = (rank_of(&proxy, &is_bulky), rank_of(&proxy, &is_cheap));
    assert_eq!(
        proxy.candidates[bulky_rank].score,
        proxy.candidates[cheap_rank].score
    );
    assert!(bulky_rank < cheap_rank, "proxy baseline lost its tie-break");

    // The measured profile flips the pair, with a positive best saving.
    let config = Config::with_depth(1).with_cost(model);
    let measured = optimise("r", TWO_EDGE_PROJECTION, &config);
    assert_eq!(measured.cost_source, Some(CostSource::Measured));
    assert!(
        rank_of(&measured, &is_cheap) < rank_of(&measured, &is_bulky),
        "measured profile does not rank the small-payload hoist above the bulky one"
    );
    let best = measured.best().expect("profile finds an improvement");
    assert!(best.estimated_saving_ns.expect("model configured") > 0.0);
    assert!(is_cheap(best) || !is_bulky(best));
}
