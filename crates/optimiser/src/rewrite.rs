//! The AMR rewrite rules: every way one send can move earlier in a local
//! type.
//!
//! Five rules generate candidates (paper §2, Fig 4; §3 Example 2):
//!
//! * **hoist past receive** — an internal choice immediately preceded by
//!   a single receive moves above it, duplicating the receive into each
//!   branch (`p?a.⊕ᵢq!ℓᵢ.Tᵢ ↦ ⊕ᵢq!ℓᵢ.p?a.Tᵢ`). This is output
//!   anticipation across an input — rule `[)B]`/R2 territory — and is
//!   what unblocks a send that waits on an unrelated receive.
//! * **hoist past send** — an internal choice immediately preceded by a
//!   single send *to a different peer* moves above it. No receive is
//!   crossed (score 0) but the move enables further hoists, e.g. the
//!   second `ready` of the finite double-buffering kernel crossing the
//!   `value` towards the sink (Fig 4b).
//! * **hoist out of branches** — when every branch of a *multi-label*
//!   external choice starts with the *same* single send, that send moves
//!   above the choice (`&ᵢ p?ℓᵢ.q!m.Tᵢ ↦ q!m.&ᵢ p?ℓᵢ.Tᵢ`): the send no
//!   longer waits to learn which label arrives, crossing the guarding
//!   receive exactly like the single-label hoist does.
//! * **swap receives** — two adjacent single receives from *different*
//!   peers commute (`p?a.q?b.T ↦ q?b.p?a.T`). Messages from different
//!   peers travel on independent channels, so neither order is forced;
//!   the swap crosses no receive with a send (score 0) but can expose a
//!   hoist the original receive order blocks. Same-peer swaps would
//!   violate the per-channel FIFO discipline and are never generated.
//! * **anticipate** — one copy of a send occurring in a loop body is
//!   prepended ahead of the `rec` binder (`μt.T ↦ q!ℓ.μt.T`), the
//!   unfold-once-and-commute transformation behind k-buffering: `k`
//!   applications yield the `k+1`-buffer pipeline.
//!
//! Rules fire at *any* position in the term, and compose: the candidate
//! search closes over them breadth-first. None of them is checked for
//! *protocol* soundness here — every candidate is validated against the
//! projection by `subtyping::is_subtype` afterwards, so an unsound
//! combination (e.g. anticipating past an exit branch that unbalances
//! the loop, or crossing a same-peer send) is simply rejected.
//!
//! # Data-dependence pruning
//!
//! One class of candidate is dropped *before* verification: a hoist
//! whose payload plausibly *is* the value produced by a receive it
//! crosses (same label, same data-carrying sort — the forwarding shape
//! `p?value(S).q!value(S)`). Such a reordering can be protocol-sound yet
//! unimplementable: the `--skeleton` emitter sends `Default::default()`
//! payloads precisely because it has no data flow to consult, and
//! hoisting a forwarded payload above the receive that produces it would
//! force an invented default onto the wire. Unit-sort labels carry no
//! data and are always hoistable; the pruned count is reported so a
//! search that discards candidates says so. Each [`Step`] records the
//! payload sorts involved, which is what the [`cost`](crate::cost) price
//! list is applied to.

use std::fmt;

use theory::local::{LocalBranch, LocalType};
use theory::name::Name;
use theory::sort::Sort;

/// One rewrite application, recorded in a candidate's derivation.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// A send-choice towards `send_peer` moved above a receive from
    /// `receive_peer`.
    HoistPastReceive {
        /// Peer of the hoisted internal choice.
        send_peer: Name,
        /// Peer of the receive that was crossed.
        receive_peer: Name,
        /// Payload sorts of the hoisted choice's branches (what the
        /// price list charges as occupancy).
        send_sorts: Vec<Sort>,
        /// Payload sort of the crossed receive (the latency the hoist
        /// stops paying).
        receive_sort: Sort,
    },
    /// A send-choice towards `inner` moved above a send to `outer`
    /// (a different peer; same-peer crossings are never generated, the
    /// subtyping relation forbids them).
    HoistPastSend {
        /// Peer of the hoisted inner choice.
        inner: Name,
        /// Peer of the outer send that was crossed.
        outer: Name,
    },
    /// The identical leading send of every branch of an external choice
    /// moved above the choice.
    HoistFromBranches {
        /// Receiver of the hoisted send.
        send_peer: Name,
        /// Peer of the external choice that was crossed.
        receive_peer: Name,
        /// Label of the hoisted send.
        label: Name,
        /// Payload sort of the hoisted send.
        sort: Sort,
        /// Payload sorts of the crossed choice's branches.
        receive_sorts: Vec<Sort>,
    },
    /// A receive from `moved` commuted ahead of an adjacent receive from
    /// `crossed` (different peers).
    SwapReceives {
        /// Peer of the receive that moved earlier.
        moved: Name,
        /// Peer of the receive that was crossed.
        crossed: Name,
    },
    /// One copy of `peer!label` was prepended ahead of a `rec` loop that
    /// sends it, anticipating the next iteration's send.
    Anticipate {
        /// Receiver of the anticipated send.
        peer: Name,
        /// Label of the anticipated send.
        label: Name,
        /// Payload sort of the anticipated send.
        sort: Sort,
        /// Payload sorts of the receives of the crossed loop iteration —
        /// the latency one anticipation pipelines away.
        crossed_receives: Vec<Sort>,
    },
}

impl Step {
    /// How many receives this step moved a send ahead of — the
    /// "sends made non-blocking" contribution to a candidate's score.
    /// An anticipation counts 1 (one extra iteration of pipeline depth);
    /// send-past-send and receive-receive swaps are enabling only.
    pub fn score(&self) -> usize {
        match self {
            Step::HoistPastReceive { .. }
            | Step::HoistFromBranches { .. }
            | Step::Anticipate { .. } => 1,
            Step::HoistPastSend { .. } | Step::SwapReceives { .. } => 0,
        }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::HoistPastReceive {
                send_peer,
                receive_peer,
                ..
            } => write!(f, "hoist {send_peer}! past {receive_peer}?"),
            Step::HoistPastSend { inner, outer } => write!(f, "hoist {inner}! past {outer}!"),
            Step::HoistFromBranches {
                send_peer,
                receive_peer,
                label,
                ..
            } => write!(
                f,
                "hoist {send_peer}!{label} out of {receive_peer}? branches"
            ),
            Step::SwapReceives { moved, crossed } => {
                write!(f, "swap {moved}? ahead of {crossed}?")
            }
            Step::Anticipate { peer, label, .. } => write!(f, "anticipate {peer}!{label}"),
        }
    }
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
fn data_depends(send_label: &Name, send_sort: &Sort, recv_label: &Name, recv_sort: &Sort) -> bool {
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
                            peer: peer.clone(),
                            branches: vec![LocalBranch {
                                label: guard.label.clone(),
                                sort: guard.sort.clone(),
                                continuation,
                            }],
                        }),
                        Step::HoistPastReceive {
                            send_peer: send_peer.clone(),
                            receive_peer: peer.clone(),
                            send_sorts: inner.iter().map(|b| b.sort.clone()).collect(),
                            receive_sort: guard.sort.clone(),
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
                            inner_peer.clone(),
                            moved.label.clone(),
                            moved.sort.clone(),
                            LocalType::receive(
                                peer.clone(),
                                guard.label.clone(),
                                guard.sort.clone(),
                                moved.continuation.clone(),
                            ),
                        ),
                        Step::SwapReceives {
                            moved: inner_peer.clone(),
                            crossed: peer.clone(),
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
                            label: b.label.clone(),
                            sort: b.sort.clone(),
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
                            send_peer.clone(),
                            label.clone(),
                            sort.clone(),
                            LocalType::Branch {
                                peer: peer.clone(),
                                branches: stripped,
                            },
                        ),
                        Step::HoistFromBranches {
                            send_peer,
                            receive_peer: peer.clone(),
                            label,
                            sort,
                            receive_sorts: branches.iter().map(|b| b.sort.clone()).collect(),
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
                            peer: peer.clone(),
                            branches: vec![LocalBranch {
                                label: outer.label.clone(),
                                sort: outer.sort.clone(),
                                continuation,
                            }],
                        }),
                        Step::HoistPastSend {
                            inner: inner_peer.clone(),
                            outer: peer.clone(),
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
                    LocalType::send(peer.clone(), label.clone(), sort.clone(), term.clone()),
                    Step::Anticipate {
                        peer,
                        label,
                        sort,
                        crossed_receives: receives.iter().map(|(_, _, s)| s.clone()).collect(),
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
                        var: var.clone(),
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
                            label: branch.label.clone(),
                            sort: branch.sort.clone(),
                            continuation: cont,
                        };
                        let branches = branches[..index]
                            .iter()
                            .cloned()
                            .chain(std::iter::once(replaced))
                            .chain(branches[index + 1..].iter().cloned())
                            .collect();
                        let peer = peer.clone();
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
        let lead = (
            peer.clone(),
            branches[0].label.clone(),
            branches[0].sort.clone(),
        );
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
        peer: send_peer.clone(),
        branches: inner
            .iter()
            .map(|branch| LocalBranch {
                label: branch.label.clone(),
                sort: branch.sort.clone(),
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
                    let action = (peer.clone(), branch.label.clone(), branch.sort.clone());
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
                    let action = (peer.clone(), branch.label.clone(), branch.sort.clone());
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

#[cfg(test)]
mod tests {
    use super::*;
    use theory::local::parse;

    fn displays(term: &str, allow_anticipate: bool) -> Vec<String> {
        rewrites(&parse(term).unwrap(), allow_anticipate)
            .candidates
            .into_iter()
            .map(|(t, _)| t.to_string())
            .collect()
    }

    #[test]
    fn hoists_send_past_receive() {
        assert_eq!(displays("p?a.q!b.end", false), vec!["q!b.p?a.end"]);
    }

    #[test]
    fn hoists_choice_past_receive_duplicating_it() {
        // The appendix B.2.1 ring-with-choice reordering.
        assert_eq!(
            displays("a?add.+{ c!add.end, c!sub.end }", false),
            vec!["+{c!add.a?add.end, c!sub.a?add.end}"]
        );
    }

    #[test]
    fn hoists_send_past_send_to_other_peer_only() {
        assert_eq!(displays("q!b.p!a.end", false), vec!["p!a.q!b.end"]);
        // Same peer: generating it would only waste a verification call.
        assert!(displays("p!b.p!a.end", false).is_empty());
    }

    #[test]
    fn hoists_common_send_out_of_branches() {
        // Both labels of the external choice lead with the same send, so
        // it no longer waits to learn which label arrives.
        let candidates = displays("&{ p?go.q!ack.end, p?halt.q!ack.end }", false);
        assert!(candidates.contains(&"q!ack.&{p?go.end, p?halt.end}".to_owned()));
    }

    #[test]
    fn differing_branch_sends_are_not_hoisted() {
        // Branches answer with different labels: the send *is* the
        // reaction to the choice and cannot move above it.
        assert!(displays("&{ p?go.q!ack.end, p?halt.q!nack.end }", false).is_empty());
    }

    #[test]
    fn swaps_adjacent_receives_from_different_peers() {
        assert_eq!(displays("p?a.q?b.end", false), vec!["q?b.p?a.end"]);
        // Same peer: per-channel FIFO forbids it.
        assert!(displays("p?a.p?b.end", false).is_empty());
    }

    #[test]
    fn anticipates_each_loop_send_once() {
        let candidates = displays("rec x . s!ready . s?value . t!value . x", true);
        assert!(candidates.contains(&"s!ready.rec x.s!ready.s?value.t!value.x".to_owned()));
        assert!(candidates.contains(&"t!value.rec x.s!ready.s?value.t!value.x".to_owned()));
    }

    #[test]
    fn anticipation_can_be_disabled() {
        assert!(displays("rec x . s!ready . s?value . x", false).is_empty());
    }

    #[test]
    fn rewrites_fire_under_binders_and_in_branches() {
        let candidates = displays("rec x . p?a . q!b . x", true);
        // In-body hoist and loop anticipation both found.
        assert!(candidates.contains(&"rec x.q!b.p?a.x".to_owned()));
        assert!(candidates.contains(&"q!b.rec x.p?a.q!b.x".to_owned()));
    }

    #[test]
    fn receives_are_never_hoisted_past_sends() {
        // Input anticipation before an output deadlocks (paper Example 2);
        // the generator does not even propose it.
        assert!(displays("q!b.p?a.end", false)
            .iter()
            .all(|c| !c.starts_with("p?")));
    }

    #[test]
    fn forwarded_payloads_are_pruned() {
        // `p?v(i32).q!v(i32)` forwards the received value: hoisting the
        // send above the receive would invent its payload.
        let result = rewrites(&parse("p?v(i32).q!v(i32).end").unwrap(), false);
        assert!(result.candidates.is_empty());
        assert_eq!(result.pruned, 1);
        // The unit-sort version carries no data and hoists freely —
        // exactly the ring's token forwarding.
        let unit = rewrites(&parse("p?v.q!v.end").unwrap(), false);
        assert_eq!(unit.candidates.len(), 1);
        assert_eq!(unit.pruned, 0);
        // Different labels with the same sort are independent values.
        let renamed = rewrites(&parse("p?a(i32).q!b(i32).end").unwrap(), false);
        assert_eq!(renamed.candidates.len(), 1);
        assert_eq!(renamed.pruned, 0);
    }

    #[test]
    fn forwarding_loop_anticipation_is_pruned() {
        // Anticipating `q!v(i32)` would send a value the loop has not
        // received yet; the unit-sort `q!ready` anticipation survives.
        // (The in-body hoist of the same forwarded send is pruned too.)
        let result = rewrites(
            &parse("rec x . p?v(i32) . q!v(i32) . q!ready . x").unwrap(),
            true,
        );
        assert_eq!(result.pruned, 2);
        let anticipated: Vec<&str> = result
            .candidates
            .iter()
            .filter_map(|(_, step)| match step {
                Step::Anticipate { label, .. } => Some(label.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(anticipated, ["ready"]);
    }

    #[test]
    fn steps_record_payload_sorts_for_the_cost_model() {
        let result = rewrites(&parse("p?a.q!big(str).end").unwrap(), false);
        let (_, step) = &result.candidates[0];
        match step {
            Step::HoistPastReceive {
                send_sorts,
                receive_sort,
                ..
            } => {
                assert_eq!(send_sorts, &[Sort::Str]);
                assert_eq!(receive_sort, &Sort::Unit);
            }
            other => panic!("expected a receive hoist, got {other}"),
        }
    }
}
