//! Differential test of the AMR search against the search it replaced:
//! the rules on `LocalType` trees and the breadth-first closure that
//! deduplicated candidates by their printed form in a `HashSet<String>`,
//! both kept below as they were but for imports, one module path, the
//! bulk check inlined where the search called it and the outcome types,
//! which the reference search now declares itself (it returns every
//! candidate's local type and derivation built, as the optimiser once
//! did). The arena search must return the same outcome — `generated`,
//! `pruned`, `truncated`, and every verified candidate in rank order with
//! its local type and derivation (built by [`Optimised::local`] and
//! [`Optimised::derivation`]), `fsm`, `stats`, score and saving bits — on
//!
//! * the k-buffering kernel at depths 0–8, every pmesh-5/6 role at depth
//!   2, the streaming source at depths 1–4 and every member of a ring,
//! * the `verify_amr` optimise entries, whose totals the benchmark's
//!   traced run reports (2 689 generated / 1 502 verified / 3 524
//!   pruned, and 19 448 of its 20 884 visited pairs),
//! * random binary types (their generator is included from
//!   `tests/generators/`), as they come, closed into loops, and with
//!   `i32` payloads on every other branch, at depths 0–3 under a
//!   64-candidate cap so the search is cut short.
//!
//! [`rewrites`] must also agree with the tree rules term by term: the same
//! candidates (interned into a fresh arena and materialised) and steps in
//! the same order, and the same pruned count.
//!
//! CI runs this in release as well (`cargo test --release -p optimiser`).

use bench::verification::{k_buffering, ring, streaming};
use optimiser::rewrite::rewrites;
use optimiser::{optimise, Config, Optimised, Step};
use proptest::prelude::*;
use theory::local::{parse, LocalBranch, LocalType};
use theory::term::Terms;
use theory::{Name, Sort};

#[path = "../../../tests/generators/mod.rs"]
mod generators;
use generators::binary_local_type;

/// The tree rules and the `HashSet<String>` search as they were, but
/// for imports, the search calling `rewrites` without its module path,
/// the one-supertype bulk check it called inlined, and the outcome types
/// declared here.
mod reference {
    use std::collections::HashSet;

    use optimiser::{cost, Config, Step};
    use subtyping::SubtypeVisitor;
    use theory::fsm::{self, Fsm, FsmError};
    use theory::local::{LocalBranch, LocalType};
    use theory::name::Name;
    use theory::sort::Sort;

    /// One verified reordering, its local type and derivation built.
    pub struct Candidate {
        pub local: LocalType,
        pub fsm: Fsm,
        pub derivation: Vec<Step>,
        pub score: usize,
        pub estimated_saving_ns: f64,
        pub stats: subtyping::CheckStats,
    }

    /// The outcome of one reference search.
    pub struct Optimised {
        pub projection_fsm: Fsm,
        pub generated: usize,
        pub pruned: usize,
        pub candidates: Vec<Candidate>,
        pub truncated: bool,
        pub bound: usize,
    }

    /// The single-step rewrites of one term, plus how many applications the
    /// data-dependence filter pruned (see the module docs).
    pub struct Rewrites {
        /// Every surviving candidate with the step that produced it.
        pub candidates: Vec<(LocalType, Step)>,
        /// Rewrite applications dropped because the hoisted payload
        /// data-depends on a crossed receive.
        pub pruned: usize,
    }

    /// All single-step rewrites of `term`, at every position.
    ///
    /// `allow_anticipate` gates the loop-anticipation rule (the search turns
    /// it off once a candidate has used its unfold budget).
    pub fn rewrites(term: &LocalType, allow_anticipate: bool) -> Rewrites {
        let mut out = Rewrites {
            candidates: Vec::new(),
            pruned: 0,
        };
        let mut pruned = 0usize;
        collect(
            term,
            allow_anticipate,
            &mut pruned,
            &mut |candidate, step| out.candidates.push((candidate, step)),
        );
        out.pruned = pruned;
        out
    }

    /// Whether a send of `send_label(send_sort)` plausibly forwards the
    /// value produced by a receive of `recv_label(recv_sort)`: same label,
    /// and a data-carrying sort on both ends that the subsort relation
    /// connects. Unit payloads carry nothing, so they never depend.
    fn data_depends(
        send_label: &Name,
        send_sort: &Sort,
        recv_label: &Name,
        recv_sort: &Sort,
    ) -> bool {
        send_label == recv_label
            && *send_sort != Sort::Unit
            && *recv_sort != Sort::Unit
            && (recv_sort.is_subsort_of(send_sort) || send_sort.is_subsort_of(recv_sort))
    }

    fn collect(
        term: &LocalType,
        allow_anticipate: bool,
        pruned: &mut usize,
        emit: &mut dyn FnMut(LocalType, Step),
    ) {
        // Rewrites rooted at this node.
        match term {
            LocalType::End | LocalType::Var(_) => {}
            LocalType::Branch { peer, branches } if branches.len() == 1 => {
                let guard = &branches[0];
                if let LocalType::Select {
                    peer: send_peer,
                    branches: inner,
                } = &guard.continuation
                {
                    if inner
                        .iter()
                        .any(|b| data_depends(&b.label, &b.sort, &guard.label, &guard.sort))
                    {
                        *pruned += 1;
                    } else {
                        emit(
                            hoisted(send_peer, inner, |continuation| LocalType::Branch {
                                peer: *peer,
                                branches: vec![LocalBranch {
                                    label: guard.label,
                                    sort: guard.sort,
                                    continuation,
                                }],
                            }),
                            Step::HoistPastReceive {
                                send_peer: *send_peer,
                                receive_peer: *peer,
                                send_sorts: inner.iter().map(|b| b.sort).collect(),
                                receive_sort: guard.sort,
                            },
                        );
                    }
                }
                // Receive-receive reordering: the guarded continuation is
                // itself a single receive from a *different* peer.
                if let LocalType::Branch {
                    peer: inner_peer,
                    branches: inner,
                } = &guard.continuation
                {
                    if inner.len() == 1 && inner_peer != peer {
                        let moved = &inner[0];
                        emit(
                            LocalType::receive(
                                *inner_peer,
                                moved.label,
                                moved.sort,
                                LocalType::receive(
                                    *peer,
                                    guard.label,
                                    guard.sort,
                                    moved.continuation.clone(),
                                ),
                            ),
                            Step::SwapReceives {
                                moved: *inner_peer,
                                crossed: *peer,
                            },
                        );
                    }
                }
            }
            LocalType::Branch { peer, branches } if branches.len() > 1 => {
                // Hoist out of branches: every branch starts with the same
                // single send.
                if let Some(common) = common_leading_send(branches) {
                    let (send_peer, label, sort) = common;
                    if branches
                        .iter()
                        .any(|b| data_depends(&label, &sort, &b.label, &b.sort))
                    {
                        *pruned += 1;
                    } else {
                        let stripped: Vec<LocalBranch> = branches
                            .iter()
                            .map(|b| LocalBranch {
                                label: b.label,
                                sort: b.sort,
                                continuation: match &b.continuation {
                                    LocalType::Select { branches, .. } => {
                                        branches[0].continuation.clone()
                                    }
                                    _ => unreachable!("common_leading_send checked the shape"),
                                },
                            })
                            .collect();
                        emit(
                            LocalType::send(
                                send_peer,
                                label,
                                sort,
                                LocalType::Branch {
                                    peer: *peer,
                                    branches: stripped,
                                },
                            ),
                            Step::HoistFromBranches {
                                send_peer,
                                receive_peer: *peer,
                                label,
                                sort,
                                receive_sorts: branches.iter().map(|b| b.sort).collect(),
                            },
                        );
                    }
                }
            }
            LocalType::Select { peer, branches } if branches.len() == 1 => {
                let outer = &branches[0];
                if let LocalType::Select {
                    peer: inner_peer,
                    branches: inner,
                } = &outer.continuation
                {
                    // Same-peer crossings violate the subtyping relation's
                    // FIFO-per-peer discipline; don't bother generating them.
                    if inner_peer != peer {
                        emit(
                            hoisted(inner_peer, inner, |continuation| LocalType::Select {
                                peer: *peer,
                                branches: vec![LocalBranch {
                                    label: outer.label,
                                    sort: outer.sort,
                                    continuation,
                                }],
                            }),
                            Step::HoistPastSend {
                                inner: *inner_peer,
                                outer: *peer,
                            },
                        );
                    }
                }
            }
            _ => {}
        }
        if allow_anticipate {
            if let LocalType::Rec { body, .. } = term {
                let receives = body_receives(body);
                for (peer, label, sort) in body_sends(body) {
                    if receives
                        .iter()
                        .any(|(_, rl, rs)| data_depends(&label, &sort, rl, rs))
                    {
                        *pruned += 1;
                        continue;
                    }
                    emit(
                        LocalType::send(peer, label, sort, term.clone()),
                        Step::Anticipate {
                            peer,
                            label,
                            sort,
                            crossed_receives: receives.iter().map(|(_, _, s)| *s).collect(),
                        },
                    );
                }
            }
        }

        // Rewrites in subterms, spliced back into place.
        match term {
            LocalType::End | LocalType::Var(_) => {}
            LocalType::Rec { var, body } => {
                collect(body, allow_anticipate, pruned, &mut |new_body, step| {
                    emit(
                        LocalType::Rec {
                            var: *var,
                            body: Box::new(new_body),
                        },
                        step,
                    )
                });
            }
            LocalType::Select { peer, branches } | LocalType::Branch { peer, branches } => {
                let is_select = matches!(term, LocalType::Select { .. });
                for (index, branch) in branches.iter().enumerate() {
                    collect(
                        &branch.continuation,
                        allow_anticipate,
                        pruned,
                        &mut |cont, step| {
                            // Clone the siblings only: the continuation being
                            // replaced is never copied.
                            let replaced = LocalBranch {
                                label: branch.label,
                                sort: branch.sort,
                                continuation: cont,
                            };
                            let branches = branches[..index]
                                .iter()
                                .cloned()
                                .chain(std::iter::once(replaced))
                                .chain(branches[index + 1..].iter().cloned())
                                .collect();
                            let peer = *peer;
                            emit(
                                if is_select {
                                    LocalType::Select { peer, branches }
                                } else {
                                    LocalType::Branch { peer, branches }
                                },
                                step,
                            )
                        },
                    );
                }
            }
        }
    }

    /// When every branch of a multi-label external choice starts with the
    /// same single send, that common `(peer, label, sort)`.
    fn common_leading_send(branches: &[LocalBranch]) -> Option<(Name, Name, Sort)> {
        let mut common: Option<(Name, Name, Sort)> = None;
        for branch in branches {
            let LocalType::Select { peer, branches } = &branch.continuation else {
                return None;
            };
            if branches.len() != 1 {
                return None;
            }
            let lead = (*peer, branches[0].label, branches[0].sort);
            match &common {
                None => common = Some(lead),
                Some(seen) if *seen == lead => {}
                Some(_) => return None,
            }
        }
        common
    }

    /// Builds the hoisted form: the inner select's branches, each wrapped by
    /// `rebuild` (which reinstates the crossed outer action inside the
    /// branch).
    fn hoisted(
        send_peer: &Name,
        inner: &[LocalBranch],
        rebuild: impl Fn(LocalType) -> LocalType,
    ) -> LocalType {
        LocalType::Select {
            peer: *send_peer,
            branches: inner
                .iter()
                .map(|branch| LocalBranch {
                    label: branch.label,
                    sort: branch.sort,
                    continuation: rebuild(branch.continuation.clone()),
                })
                .collect(),
        }
    }

    /// Distinct send actions occurring anywhere in `body`, in term order.
    fn body_sends(body: &LocalType) -> Vec<(Name, Name, Sort)> {
        fn go(term: &LocalType, out: &mut Vec<(Name, Name, Sort)>) {
            match term {
                LocalType::End | LocalType::Var(_) => {}
                LocalType::Rec { body, .. } => go(body, out),
                LocalType::Select { peer, branches } => {
                    for branch in branches {
                        let action = (*peer, branch.label, branch.sort);
                        if !out.contains(&action) {
                            out.push(action);
                        }
                        go(&branch.continuation, out);
                    }
                }
                LocalType::Branch { branches, .. } => {
                    for branch in branches {
                        go(&branch.continuation, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        go(body, &mut out);
        out
    }

    /// Distinct receive actions occurring anywhere in `body`, in term order:
    /// what one loop anticipation pipelines across (and what a forwarded
    /// payload may data-depend on).
    fn body_receives(body: &LocalType) -> Vec<(Name, Name, Sort)> {
        fn go(term: &LocalType, out: &mut Vec<(Name, Name, Sort)>) {
            match term {
                LocalType::End | LocalType::Var(_) => {}
                LocalType::Rec { body, .. } => go(body, out),
                LocalType::Branch { peer, branches } => {
                    for branch in branches {
                        let action = (*peer, branch.label, branch.sort);
                        if !out.contains(&action) {
                            out.push(action);
                        }
                        go(&branch.continuation, out);
                    }
                }
                LocalType::Select { branches, .. } => {
                    for branch in branches {
                        go(&branch.continuation, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        go(body, &mut out);
        out
    }

    /// Derives verified AMR reorderings of `projection` for `role`.
    ///
    /// Errors only when the projection itself is not FSM-convertible
    /// (unguarded or unbound recursion); candidates that fail conversion are
    /// silently dropped, and candidates that fail verification are counted
    /// but not returned.
    pub fn optimise(
        role: &Name,
        projection: &LocalType,
        config: &Config,
    ) -> Result<Optimised, FsmError> {
        let projection_fsm = fsm::from_local(role, projection)?;

        // ---- generate: breadth-first closure under the rewrites ----------
        let mut seen: HashSet<String> = HashSet::new();
        seen.insert(projection.to_string());
        let mut generated: Vec<(LocalType, Vec<Step>)> = Vec::new();
        let mut frontier: Vec<(LocalType, Vec<Step>)> = vec![(projection.clone(), Vec::new())];
        let mut truncated = false;
        let mut pruned = 0usize;
        'search: while !frontier.is_empty() {
            let mut next = Vec::new();
            for (term, derivation) in &frontier {
                if derivation.len() >= config.max_steps {
                    continue;
                }
                let anticipations = derivation
                    .iter()
                    .filter(|s| matches!(s, Step::Anticipate { .. }))
                    .count();
                let rewrites = rewrites(term, anticipations < config.unfold_depth);
                pruned += rewrites.pruned;
                for (candidate, step) in rewrites.candidates {
                    if !seen.insert(candidate.to_string()) {
                        continue;
                    }
                    let mut derivation = derivation.clone();
                    derivation.push(step);
                    generated.push((candidate.clone(), derivation.clone()));
                    if generated.len() >= config.max_candidates {
                        truncated = true;
                        break 'search;
                    }
                    next.push((candidate, derivation));
                }
            }
            frontier = next;
        }

        // ---- verify: every candidate against the projection --------------
        let mut convertible = Vec::with_capacity(generated.len());
        for (local, derivation) in generated.iter() {
            // A rewrite cannot unguard recursion (no action is ever
            // removed), but stay defensive: drop inconvertible candidates.
            if let Ok(machine) = fsm::from_local(role, local) {
                convertible.push((local, derivation, machine));
            }
        }
        // One supertype, and every candidate through one visitor.
        let mut visitor = SubtypeVisitor::new(config.bound);
        let stats: Vec<_> = convertible
            .iter()
            .map(|(_, _, machine)| visitor.check(machine, &projection_fsm))
            .collect();
        let mut candidates: Vec<Candidate> = convertible
            .into_iter()
            .zip(stats)
            .filter(|(_, stats)| stats.verdict)
            .map(|((local, derivation, machine), stats)| Candidate {
                local: local.clone(),
                fsm: machine,
                score: derivation.iter().map(Step::score).sum(),
                estimated_saving_ns: cost::saving_ns(derivation),
                derivation: derivation.clone(),
                stats,
            })
            .collect();

        // ---- score: best first, stably --------------------------------
        // Estimated ns saved, tie-broken by receives crossed then by machine
        // size — a cheap reordering outranks a bulky one even when they
        // cross the same number of receives. The sort is stable, so equal
        // keys keep generation order: earlier-generated candidates win ties.
        candidates.sort_by(|a, b| {
            b.estimated_saving_ns
                .total_cmp(&a.estimated_saving_ns)
                .then(b.score.cmp(&a.score))
                .then(a.fsm.len().cmp(&b.fsm.len()))
        });

        Ok(Optimised {
            projection_fsm,
            generated: generated.len(),
            pruned,
            candidates,
            truncated,
            bound: config.bound,
        })
    }
}

/// Runs both searches on `projection` and insists on the same outcome.
fn agree(role: &str, projection: &LocalType, config: &Config, what: &str) -> Optimised {
    let role = Name::from(role);
    let ours = optimise(&role, projection, config).expect("projection converts");
    let theirs = reference::optimise(&role, projection, config).expect("projection converts");
    assert_eq!(
        (ours.generated, ours.pruned, ours.truncated, ours.bound),
        (
            theirs.generated,
            theirs.pruned,
            theirs.truncated,
            theirs.bound
        ),
        "{what}: generated, pruned, truncated, bound"
    );
    assert_eq!(ours.projection_fsm, theirs.projection_fsm, "{what}");
    assert_eq!(
        ours.candidates.len(),
        theirs.candidates.len(),
        "{what}: verified"
    );
    for (index, (a, b)) in ours.candidates.iter().zip(&theirs.candidates).enumerate() {
        let what = format!("{what}, candidate {index} `{}`", b.local);
        assert_eq!(ours.local(a), b.local, "{what}");
        assert_eq!(ours.derivation(a), b.derivation, "{what}");
        assert_eq!(a.fsm, b.fsm, "{what}");
        assert_eq!(a.stats, b.stats, "{what}");
        assert_eq!(a.score, b.score, "{what}");
        assert_eq!(
            a.estimated_saving_ns.to_bits(),
            b.estimated_saving_ns.to_bits(),
            "{what}"
        );
    }
    for candidate in &theirs.candidates {
        same_rewrites(&candidate.local);
    }
    ours
}

/// [`rewrites`] against the tree rules on one term, anticipation on and
/// off.
fn same_rewrites(term: &LocalType) {
    for allow_anticipate in [false, true] {
        let mut terms = Terms::default();
        let root = terms.intern_local(term);
        let ours = rewrites(&mut terms, root, allow_anticipate);
        let candidates: Vec<(LocalType, Step)> = ours
            .candidates
            .into_iter()
            .map(|(id, step)| (terms.to_local(id), step))
            .collect();
        let theirs = reference::rewrites(term, allow_anticipate);
        assert_eq!(
            candidates, theirs.candidates,
            "rewrites of `{term}`, anticipation {allow_anticipate}"
        );
        assert_eq!(
            ours.pruned, theirs.pruned,
            "pruned rewrites of `{term}`, anticipation {allow_anticipate}"
        );
    }
}

const PMESH: &str = include_str!("../../../benchmark/corpus/pmesh.scr");

/// The projections of pmesh with `n` workers, role by role.
fn pmesh(n: i64) -> Vec<(Name, LocalType)> {
    codegen::analyse_with(PMESH, &[(Name::from("n"), n)])
        .expect("pmesh analyses")
        .locals
}

#[test]
fn the_kernel_agrees_at_depths_0_to_8() {
    for depth in 0..=8 {
        let what = format!("kernel at depth {depth}");
        agree(
            "k",
            &k_buffering::projected(),
            &Config::with_depth(depth),
            &what,
        );
    }
}

#[test]
fn every_pmesh_role_agrees_at_depth_2() {
    for n in [5, 6] {
        for (role, projection) in pmesh(n) {
            let what = format!("pmesh-{n} {role}");
            agree(role.as_str(), &projection, &Config::with_depth(2), &what);
        }
    }
}

#[test]
fn the_streaming_source_agrees_at_depths_1_to_4() {
    for depth in 1..=4 {
        let what = format!("streaming source at depth {depth}");
        agree(
            "s",
            &streaming::projected(),
            &Config::with_depth(depth),
            &what,
        );
    }
}

#[test]
fn every_ring_member_agrees() {
    let n = 4;
    for i in 0..n {
        for depth in 0..=2 {
            let what = format!("ring member {i} of {n} at depth {depth}");
            let role = format!("p{i}");
            agree(
                &role,
                &ring::projected(i, n),
                &Config::with_depth(depth),
                &what,
            );
        }
    }
}

/// The optimise entries of the benchmark's `verify_amr` corpus: the kernel
/// at depths 3 and 8 and every pmesh-5/6 role at depth 2, with the state
/// pairs their verified candidates' checks visit.
#[test]
fn verify_amr_totals_are_unchanged() {
    let kernel = parse("rec x . s!ready . s?value . t?ready . t!value . x").unwrap();
    let mut entries: Vec<(Name, LocalType, usize)> =
        vec![("k".into(), kernel.clone(), 3), ("k".into(), kernel, 8)];
    for n in [5, 6] {
        entries.extend(pmesh(n).into_iter().map(|(role, local)| (role, local, 2)));
    }
    let (mut generated, mut verified, mut pruned, mut visited) = (0, 0, 0, 0);
    for (role, projection, depth) in &entries {
        let what = format!("verify_amr {role} at depth {depth}");
        let outcome = agree(
            role.as_str(),
            projection,
            &Config::with_depth(*depth),
            &what,
        );
        generated += outcome.generated;
        verified += outcome.candidates.len();
        pruned += outcome.pruned;
        visited += outcome
            .candidates
            .iter()
            .map(|candidate| candidate.stats.visited_pairs)
            .sum::<usize>();
    }
    assert_eq!((generated, verified, pruned), (2689, 1502, 3524));
    // What the benchmark re-checks: its six subtype entries add the rest
    // of a traced run's 20 884 `subtyping.visited_pairs`.
    assert_eq!(visited, 19448, "visited pairs of the verified candidates");
}

/// `t` with every `end` replaced by a loop back to its start.
fn looped(t: &LocalType) -> LocalType {
    fn close(t: &LocalType) -> LocalType {
        match t {
            LocalType::End => LocalType::Var("x".into()),
            LocalType::Select { peer, branches } | LocalType::Branch { peer, branches } => {
                let branches = branches
                    .iter()
                    .map(|b| LocalBranch {
                        label: b.label,
                        sort: b.sort,
                        continuation: close(&b.continuation),
                    })
                    .collect();
                let peer = *peer;
                if matches!(t, LocalType::Select { .. }) {
                    LocalType::Select { peer, branches }
                } else {
                    LocalType::Branch { peer, branches }
                }
            }
            other => other.clone(),
        }
    }
    LocalType::rec("x", close(t))
}

/// `t` with an `i32` payload on every other branch, in pre-order: equal
/// labels then carry different sorts, and forwarded payloads get pruned.
fn resorted(t: &LocalType) -> LocalType {
    fn go(t: &LocalType, typed: &mut bool) -> LocalType {
        match t {
            LocalType::Select { peer, branches } | LocalType::Branch { peer, branches } => {
                let branches = branches
                    .iter()
                    .map(|b| {
                        let sort = if *typed { Sort::I32 } else { Sort::Unit };
                        *typed = !*typed;
                        LocalBranch {
                            label: b.label,
                            sort,
                            continuation: go(&b.continuation, typed),
                        }
                    })
                    .collect();
                let peer = *peer;
                if matches!(t, LocalType::Select { .. }) {
                    LocalType::Select { peer, branches }
                } else {
                    LocalType::Branch { peer, branches }
                }
            }
            LocalType::Rec { var, body } => LocalType::rec(*var, go(body, typed)),
            other => other.clone(),
        }
    }
    go(t, &mut false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_types_agree(t in binary_local_type(), depth in 0..=3usize) {
        let config = Config { max_candidates: 64, ..Config::with_depth(depth) };
        let sorted = resorted(&t);
        let mut terms = vec![("as generated", t.clone()), ("resorted", sorted.clone())];
        // `rec x . x` is unguarded: neither search takes it.
        if t != LocalType::End {
            terms.extend([("looped", looped(&t)), ("resorted and looped", looped(&sorted))]);
        }
        for (name, term) in terms {
            same_rewrites(&term);
            agree("r", &term, &config, &format!("`{term}` ({name}) at depth {depth}"));
        }
    }
}
