//! Property tests for the prefix machinery and the visitor:
//!
//! * snapshot/revert is an exact inverse under arbitrary edit sequences,
//! * reduction terminates and only shrinks prefixes (Lemma 5),
//! * disabling fail-early never changes the verdict, only the cost.

use proptest::prelude::*;

use subtyping::prefix::{prefix_of, reduce, reduce_step, Prefix, Reduction};
use subtyping::SubtypeVisitor;
use theory::fsm::Action;
use theory::local::{LocalBranch, LocalType};
use theory::sort::Sort;

fn arbitrary_action() -> impl Strategy<Value = Action> {
    (
        proptest::bool::ANY,
        proptest::sample::select(vec!["p", "q", "r"]),
        proptest::sample::select(vec!["a", "b"]),
    )
        .prop_map(|(send, peer, label)| {
            if send {
                Action::send(peer, label, Sort::Unit)
            } else {
                Action::receive(peer, label, Sort::Unit)
            }
        })
}

fn arbitrary_prefix() -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec(arbitrary_action(), 0..12)
}

fn live(prefix: &Prefix) -> Vec<Action> {
    prefix.live().map(|(_, &action)| action).collect()
}

/// Prefixes of each action list.
fn prefixes<const N: usize>(lists: [&[Action]; N]) -> [Prefix; N] {
    lists.map(|actions| prefix_of(actions.iter().copied()))
}

fn binary_local_type() -> impl Strategy<Value = LocalType> {
    let leaf = Just(LocalType::End);
    leaf.prop_recursive(3, 16, 2, |inner| {
        let branch =
            (proptest::sample::select(vec!["a", "b"]), inner).prop_map(|(label, continuation)| {
                LocalBranch {
                    label: label.into(),
                    sort: Sort::Unit,
                    continuation,
                }
            });
        let dedup = |mut branches: Vec<LocalBranch>| {
            branches.sort_by_key(|x| x.label);
            branches.dedup_by(|x, y| x.label == y.label);
            branches
        };
        prop_oneof![
            proptest::collection::vec(branch.clone(), 1..3).prop_map(move |branches| {
                LocalType::Select {
                    peer: "p".into(),
                    branches: dedup(branches),
                }
            }),
            proptest::collection::vec(branch, 1..3).prop_map(move |branches| {
                LocalType::Branch {
                    peer: "p".into(),
                    branches: dedup(branches),
                }
            }),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Reduction terminates within min(|π|, |π′|) steps and every step
    /// removes exactly one element from each side (Lemma 5 / Lemma 8).
    #[test]
    fn reduction_terminates_and_shrinks(
        sub_actions in arbitrary_prefix(),
        sup_actions in arbitrary_prefix(),
    ) {
        let [mut sub, mut sup] = prefixes([&sub_actions, &sup_actions]);
        let budget = sub_actions.len().min(sup_actions.len());
        let mut steps = 0;
        loop {
            let before = (sub.len(), sup.len());
            match reduce_step(&mut sub, &mut sup) {
                Reduction::Progress => {
                    steps += 1;
                    prop_assert_eq!(sub.len(), before.0 - 1);
                    prop_assert_eq!(sup.len(), before.1 - 1);
                    prop_assert!(steps <= budget, "exceeded the Lemma 8 bound");
                }
                Reduction::Blocked | Reduction::DeadEnd => break,
            }
        }
    }

    /// snapshot → arbitrary pushes/reductions → revert restores the
    /// exact live sequence.
    #[test]
    fn snapshot_revert_is_exact(
        initial in arbitrary_prefix(),
        pushed in arbitrary_prefix(),
        partner in arbitrary_prefix(),
    ) {
        let [mut prefix, mut other] = prefixes([&initial, &partner]);
        let before = live(&prefix);
        let snapshot = prefix.snapshot();
        for action in pushed {
            prefix.push(action);
        }
        let _ = reduce(&mut prefix, &mut other);
        prefix.revert(snapshot);
        prop_assert_eq!(live(&prefix), before);
    }

    /// Fail-early is a pure optimisation: enabling or disabling it never
    /// changes the verdict.
    #[test]
    fn fail_early_preserves_verdicts(
        sub in binary_local_type(),
        sup in binary_local_type(),
    ) {
        let machine = |local| theory::fsm::from_local(&"r".into(), local).unwrap();
        let (sub, sup) = (machine(&sub), machine(&sup));
        let with = SubtypeVisitor::new(4).check(&sub, &sup).verdict;
        let without = SubtypeVisitor::new(4).without_fail_early().check(&sub, &sup).verdict;
        prop_assert_eq!(with, without);
    }
}
