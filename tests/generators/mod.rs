//! Random-system generators shared by the workspace's property tests
//! (`tests/properties.rs`, `tests/optimiser_props.rs`) and by the k-MC
//! differential test (`crates/kmc/tests/differential.rs`, which includes
//! this file by path). Each includer uses a subset.
#![allow(dead_code)]

use proptest::prelude::*;

use theory::local::{LocalBranch, LocalType};
use theory::sort::Sort;
use theory::{Fsm, Name};

const KBUFFERING: &str = include_str!("../../crates/codegen/tests/protocols/kbuffering.scr");

/// Arbitrary binary local type talking to peer `p`, with guarded
/// recursion and bounded depth.
pub fn binary_local_type() -> impl Strategy<Value = LocalType> {
    let leaf = Just(LocalType::End);
    leaf.prop_recursive(4, 24, 3, |inner| {
        let branch = (proptest::sample::select(vec!["a", "b", "c"]), inner.clone()).prop_map(
            |(label, continuation)| LocalBranch {
                label: label.into(),
                sort: Sort::Unit,
                continuation,
            },
        );
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

/// A choice-free global type over three roles: a random sequence of
/// messages.
pub fn sequence_global() -> impl Strategy<Value = theory::GlobalType> {
    let step = (
        0usize..3,
        0usize..3,
        proptest::sample::select(vec!["l", "m", "n"]),
    )
        .prop_filter("no self messages", |(from, to, _)| from != to);
    proptest::collection::vec(step, 1..8).prop_map(|steps| {
        let roles = ["a", "b", "c"];
        steps
            .into_iter()
            .rev()
            .fold(theory::GlobalType::End, |acc, (from, to, label)| {
                theory::GlobalType::message(roles[from], roles[to], label, Sort::Unit, acc)
            })
    })
}

/// The bench ring of `n` participants with every role replaced by its
/// best verified reordering at unfold depth `depth`.
pub fn optimised_ring(n: usize, depth: usize) -> Vec<Fsm> {
    let config = optimiser::Config::with_depth(depth);
    (0..n)
        .map(|i| {
            let role = format!("p{i}");
            let projection = bench::verification::ring::projected(i, n);
            let outcome =
                optimiser::optimise(&Name::from(role.as_str()), &projection, &config).unwrap();
            bench::verification::to_fsm(&role, &outcome.best_local())
        })
        .collect()
}

/// The `n`-stage `kbuffering.scr` pipeline after the codegen optimise
/// pass swapped every role at once.
pub fn optimised_pipeline(n: usize, depth: usize) -> Vec<Fsm> {
    let config = optimiser::Config::with_depth(depth);
    let mut analysis = codegen::analyse_with(KBUFFERING, &[(Name::from("n"), n as i64)])
        .unwrap_or_else(|e| panic!("kbuffering.scr fails to analyse at n={n}: {e}"));
    codegen::optimise(&mut analysis, &config).expect("optimise pass succeeds");
    analysis.fsms
}

/// The syntactic dual: sends become receives and back.
pub fn dual(t: &LocalType) -> LocalType {
    match t {
        LocalType::End => LocalType::End,
        LocalType::Var(v) => LocalType::Var(*v),
        LocalType::Rec { var, body } => LocalType::Rec {
            var: *var,
            body: Box::new(dual(body)),
        },
        LocalType::Select { peer, branches } => LocalType::Branch {
            peer: *peer,
            branches: branches.iter().map(dual_branch).collect(),
        },
        LocalType::Branch { peer, branches } => LocalType::Select {
            peer: *peer,
            branches: branches.iter().map(dual_branch).collect(),
        },
    }
}

fn dual_branch(b: &LocalBranch) -> LocalBranch {
    LocalBranch {
        label: b.label,
        sort: b.sort,
        continuation: dual(&b.continuation),
    }
}

/// Points every action of a binary type at `peer`.
pub fn retarget(t: &LocalType, peer: &str) -> LocalType {
    match t {
        LocalType::End => LocalType::End,
        LocalType::Var(v) => LocalType::Var(*v),
        LocalType::Rec { var, body } => LocalType::Rec {
            var: *var,
            body: Box::new(retarget(body, peer)),
        },
        LocalType::Select { branches, .. } => LocalType::Select {
            peer: peer.into(),
            branches: branches.iter().map(|b| retarget_branch(b, peer)).collect(),
        },
        LocalType::Branch { branches, .. } => LocalType::Branch {
            peer: peer.into(),
            branches: branches.iter().map(|b| retarget_branch(b, peer)).collect(),
        },
    }
}

fn retarget_branch(b: &LocalBranch, peer: &str) -> LocalBranch {
    LocalBranch {
        label: b.label,
        sort: b.sort,
        continuation: retarget(&b.continuation, peer),
    }
}
