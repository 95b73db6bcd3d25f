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
//! # Terms are arena ids
//!
//! The rules run on the hash-consed [`Terms`] arena of [`theory::term`],
//! not on `LocalType` trees. A rule rooted at depth *d* builds its
//! replacement from the ids it matched, then rebuilds the *d* ancestors
//! on its path, each with one child id replaced: O(*d*) nodes interned,
//! every other subterm shared. A candidate that another rewrite already
//! produced comes back as the same id, so the search deduplicates by id.
//! A rule builds its replacement's branch list in the walk's reused
//! buffer and interns it by slice, so a rule copies no branch list it
//! matched.
//!
//! [`rewrites`] returns every occurrence of every candidate. The search
//! keeps one flag per arena id in its walk instead, and a rewrite into a
//! term already found is dropped before its [`Step`] is built: a step is
//! built only for a candidate's first occurrence.
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

use theory::name::Name;
use theory::sort::Sort;
use theory::term::{Branch, Branches, Node, TermId, Terms};

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
#[derive(Default)]
pub struct Rewrites {
    /// Every surviving candidate, an id of the rewritten arena, with the
    /// step that produced it.
    pub candidates: Vec<(TermId, Step)>,
    /// Rewrite applications dropped because the hoisted payload
    /// data-depends on a crossed receive.
    pub pruned: usize,
}

/// All single-step rewrites of `term`, at every position: the rules
/// rooted at a position first, then the positions below it in term
/// order. Each candidate interns only the nodes on the path from the
/// root to the rewritten position.
///
/// `allow_anticipate` gates the loop-anticipation rule (the search turns
/// it off once a candidate has used its unfold budget).
pub fn rewrites(terms: &mut Terms, term: TermId, allow_anticipate: bool) -> Rewrites {
    let mut walk = Walk::default();
    walk.run(terms, term, allow_anticipate);
    walk.found
}

/// Whether a send of `send_label(send_sort)` plausibly forwards the
/// value produced by a receive of `recv_label(recv_sort)`: same label,
/// and a data-carrying sort on both ends that the subsort relation
/// connects. Unit payloads carry nothing, so they never depend.
fn data_depends(
    (send_label, send_sort): (Name, Sort),
    (recv_label, recv_sort): (Name, Sort),
) -> bool {
    send_label == recv_label
        && send_sort != Sort::Unit
        && recv_sort != Sort::Unit
        && (recv_sort.is_subsort_of(&send_sort) || send_sort.is_subsort_of(&recv_sort))
}

/// A send or receive action: peer, label and payload sort.
type Action = (Name, Name, Sort);

/// Passes of the rules over terms: every position depth-first, the rules
/// rooted there first, then the subterms in order. The search keeps one
/// walk for all its expansions, so its buffers are allocated once.
#[derive(Default)]
pub(crate) struct Walk {
    allow_anticipate: bool,
    /// `(ancestor, child index)` from the root down to the position being
    /// visited.
    path: Vec<(TermId, usize)>,
    /// The rewrites the last [`run`](Walk::run) found.
    pub(crate) found: Rewrites,
    /// A loop body's distinct sends and receives ([`body_actions`]).
    sends: Vec<Action>,
    receives: Vec<Action>,
    /// The branch list of the replacement a rule is building.
    branches: Vec<Branch>,
    /// For a walk that keeps first occurrences only, one flag per arena
    /// id, set for every term found so far.
    seen: Option<Vec<bool>>,
}

impl Walk {
    /// A walk that keeps only first occurrences: a rewrite into `root`,
    /// or into a term an earlier run of this walk found, is dropped
    /// before its step is built.
    pub(crate) fn first_occurrences(root: TermId) -> Self {
        let mut seen = vec![false; root.index() + 1];
        seen[root.index()] = true;
        Walk {
            seen: Some(seen),
            ..Walk::default()
        }
    }

    /// Replaces [`found`](Walk::found) with the rewrites of `term`.
    pub(crate) fn run(&mut self, terms: &mut Terms, term: TermId, allow_anticipate: bool) {
        self.allow_anticipate = allow_anticipate;
        self.found.candidates.clear();
        self.found.pruned = 0;
        self.visit(terms, term);
    }

    fn visit(&mut self, terms: &mut Terms, term: TermId) {
        // Rewrites rooted at this node.
        match *terms.node(term) {
            Node::Choice {
                send: false,
                peer,
                branches,
            } if branches.len() == 1 => {
                let guard = terms.branches(branches)[0];
                self.hoist_past_receive(terms, peer, guard);
                self.swap_receives(terms, peer, guard);
            }
            Node::Choice {
                send: false,
                peer,
                branches,
            } if branches.len() > 1 => self.hoist_from_branches(terms, peer, branches),
            Node::Choice {
                send: true,
                peer,
                branches,
            } if branches.len() == 1 => {
                let outer = terms.branches(branches)[0];
                self.hoist_past_send(terms, peer, outer);
            }
            _ => {}
        }
        if self.allow_anticipate {
            if let Node::Rec(_, body) = *terms.node(term) {
                self.anticipate(terms, term, body);
            }
        }

        // Rewrites in subterms, spliced back into place.
        let mut index = 0;
        while let Some(child) = terms.child(term, index) {
            self.path.push((term, index));
            self.visit(terms, child);
            self.path.pop();
            index += 1;
        }
    }

    /// Records the rewrite of the visited position into `replacement`,
    /// with the step `step` builds: each ancestor on the path is rebuilt
    /// around its new child, bottom up, and every other subterm is
    /// shared. A walk that keeps first occurrences drops a term it has
    /// found before without building its step.
    fn emit(&mut self, terms: &mut Terms, replacement: TermId, step: impl FnOnce(&Terms) -> Step) {
        let term = self
            .path
            .iter()
            .rev()
            .fold(replacement, |child, &(parent, index)| {
                terms.with_child(parent, index, child)
            });
        if let Some(seen) = &mut self.seen {
            if term.index() >= seen.len() {
                seen.resize(terms.node_count(), false);
            }
            if std::mem::replace(&mut seen[term.index()], true) {
                return;
            }
        }
        let step = step(terms);
        self.found.candidates.push((term, step));
    }

    /// The hoisted form: the inner select's `branches` towards
    /// `send_peer`, each continuation wrapped in the crossed single action
    /// (`crossed_send` towards `crossed_peer`).
    fn hoisted(
        &mut self,
        terms: &mut Terms,
        send_peer: Name,
        branches: Branches,
        crossed_send: bool,
        crossed_peer: Name,
        (label, sort): (Name, Sort),
    ) -> TermId {
        self.branches.clear();
        for index in 0..branches.len() {
            let (inner_label, inner_sort, continuation) = terms.branches(branches)[index];
            let crossed = terms.single(crossed_send, crossed_peer, (label, sort, continuation));
            self.branches.push((inner_label, inner_sort, crossed));
        }
        terms.choice(true, send_peer, &self.branches)
    }

    /// Hoist past receive: `p?a.⊕ᵢq!ℓᵢ.Tᵢ ↦ ⊕ᵢq!ℓᵢ.p?a.Tᵢ`.
    fn hoist_past_receive(
        &mut self,
        terms: &mut Terms,
        peer: Name,
        (label, sort, continuation): Branch,
    ) {
        let Node::Choice {
            send: true,
            peer: send_peer,
            branches: inner,
        } = *terms.node(continuation)
        else {
            return;
        };
        if terms
            .branches(inner)
            .iter()
            .any(|&(l, s, _)| data_depends((l, s), (label, sort)))
        {
            self.found.pruned += 1;
            return;
        }
        let replacement = self.hoisted(terms, send_peer, inner, false, peer, (label, sort));
        self.emit(terms, replacement, |terms| Step::HoistPastReceive {
            send_peer,
            receive_peer: peer,
            send_sorts: sorts(terms, inner),
            receive_sort: sort,
        });
    }

    /// Swap receives: `p?a.q?b.T ↦ q?b.p?a.T` for `p ≠ q`.
    fn swap_receives(
        &mut self,
        terms: &mut Terms,
        peer: Name,
        (label, sort, continuation): Branch,
    ) {
        let Node::Choice {
            send: false,
            peer: moved_peer,
            branches: inner,
        } = *terms.node(continuation)
        else {
            return;
        };
        let &[(moved_label, moved_sort, rest)] = terms.branches(inner) else {
            return;
        };
        if moved_peer == peer {
            return;
        }
        let crossed = terms.single(false, peer, (label, sort, rest));
        let replacement = terms.single(false, moved_peer, (moved_label, moved_sort, crossed));
        self.emit(terms, replacement, |_| Step::SwapReceives {
            moved: moved_peer,
            crossed: peer,
        });
    }

    /// Hoist out of branches: `&ᵢ p?ℓᵢ.q!m.Tᵢ ↦ q!m.&ᵢ p?ℓᵢ.Tᵢ`, for the
    /// external choice of `branches` from `peer`.
    fn hoist_from_branches(&mut self, terms: &mut Terms, peer: Name, branches: Branches) {
        let Some((send_peer, label, sort)) = common_leading_send(terms, terms.branches(branches))
        else {
            return;
        };
        if terms
            .branches(branches)
            .iter()
            .any(|&(l, s, _)| data_depends((label, sort), (l, s)))
        {
            self.found.pruned += 1;
            return;
        }
        self.branches.clear();
        self.branches.extend(
            terms
                .branches(branches)
                .iter()
                .map(|&(l, s, continuation)| {
                    let rest = terms.child(continuation, 0);
                    (l, s, rest.expect("common_leading_send checked the shape"))
                }),
        );
        let crossed = terms.choice(false, peer, &self.branches);
        let replacement = terms.single(true, send_peer, (label, sort, crossed));
        self.emit(terms, replacement, |terms| Step::HoistFromBranches {
            send_peer,
            receive_peer: peer,
            label,
            sort,
            receive_sorts: sorts(terms, branches),
        });
    }

    /// Hoist past send: `p!a.⊕ᵢq!ℓᵢ.Tᵢ ↦ ⊕ᵢq!ℓᵢ.p!a.Tᵢ` for `p ≠ q`.
    fn hoist_past_send(
        &mut self,
        terms: &mut Terms,
        peer: Name,
        (label, sort, continuation): Branch,
    ) {
        let Node::Choice {
            send: true,
            peer: inner_peer,
            branches: inner,
        } = *terms.node(continuation)
        else {
            return;
        };
        // Same-peer crossings violate the subtyping relation's
        // FIFO-per-peer discipline; don't bother generating them.
        if inner_peer == peer {
            return;
        }
        let replacement = self.hoisted(terms, inner_peer, inner, true, peer, (label, sort));
        self.emit(terms, replacement, |_| Step::HoistPastSend {
            inner: inner_peer,
            outer: peer,
        });
    }

    /// Anticipate: `μt.T ↦ q!ℓ.μt.T`, once per distinct send of the body.
    fn anticipate(&mut self, terms: &mut Terms, term: TermId, body: TermId) {
        // Taken out of the walk while `emit` borrows it, then put back.
        let (mut sends, mut receives) = (
            std::mem::take(&mut self.sends),
            std::mem::take(&mut self.receives),
        );
        body_actions(terms, body, &mut sends, &mut receives);
        for &(peer, label, sort) in &sends {
            if receives
                .iter()
                .any(|&(_, l, s)| data_depends((label, sort), (l, s)))
            {
                self.found.pruned += 1;
                continue;
            }
            let replacement = terms.single(true, peer, (label, sort, term));
            self.emit(terms, replacement, |_| Step::Anticipate {
                peer,
                label,
                sort,
                crossed_receives: receives.iter().map(|&(_, _, s)| s).collect(),
            });
        }
        (self.sends, self.receives) = (sends, receives);
    }
}

/// The payload sorts of a choice's `branches`, in term order.
fn sorts(terms: &Terms, branches: Branches) -> Vec<Sort> {
    terms
        .branches(branches)
        .iter()
        .map(|&(_, s, _)| s)
        .collect()
}

/// When every branch of a multi-label external choice starts with the
/// same single send, that common `(peer, label, sort)`.
fn common_leading_send(terms: &Terms, branches: &[Branch]) -> Option<Action> {
    let mut common = None;
    for &(_, _, continuation) in branches {
        let Node::Choice {
            send: true,
            peer,
            branches,
        } = *terms.node(continuation)
        else {
            return None;
        };
        let &[(label, sort, _)] = terms.branches(branches) else {
            return None;
        };
        let lead = (peer, label, sort);
        if *common.get_or_insert(lead) != lead {
            return None;
        }
    }
    common
}

/// Replaces `sends` and `receives` with the distinct send and receive
/// actions occurring anywhere in `body`, each in term order. The receives
/// are what one loop anticipation pipelines across (and what a forwarded
/// payload may data-depend on).
fn body_actions(terms: &Terms, body: TermId, sends: &mut Vec<Action>, receives: &mut Vec<Action>) {
    fn go(terms: &Terms, term: TermId, sends: &mut Vec<Action>, receives: &mut Vec<Action>) {
        match terms.node(term) {
            Node::End | Node::Var(_) => {}
            Node::Rec(_, body) => go(terms, *body, sends, receives),
            Node::Choice {
                send,
                peer,
                branches,
            } => {
                for &(label, sort, continuation) in terms.branches(*branches) {
                    let action = (*peer, label, sort);
                    let out = if *send { &mut *sends } else { &mut *receives };
                    if !out.contains(&action) {
                        out.push(action);
                    }
                    go(terms, continuation, sends, receives);
                }
            }
        }
    }
    sends.clear();
    receives.clear();
    go(terms, body, sends, receives);
}

#[cfg(test)]
mod tests {
    use super::*;
    use theory::local::{parse, LocalType};

    /// [`rewrites`] of `term`, interned into a fresh arena, with every
    /// candidate materialised.
    fn rewritten(term: &str, allow_anticipate: bool) -> (Vec<(LocalType, Step)>, usize) {
        let mut terms = Terms::default();
        let root = terms.intern_local(&parse(term).unwrap());
        let found = rewrites(&mut terms, root, allow_anticipate);
        let candidates = found
            .candidates
            .into_iter()
            .map(|(id, step)| (terms.to_local(id), step))
            .collect();
        (candidates, found.pruned)
    }

    fn displays(term: &str, allow_anticipate: bool) -> Vec<String> {
        rewritten(term, allow_anticipate)
            .0
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
        let (candidates, pruned) = rewritten("p?v(i32).q!v(i32).end", false);
        assert!(candidates.is_empty());
        assert_eq!(pruned, 1);
        // The unit-sort version carries no data and hoists freely —
        // exactly the ring's token forwarding.
        let (unit, pruned) = rewritten("p?v.q!v.end", false);
        assert_eq!((unit.len(), pruned), (1, 0));
        // Different labels with the same sort are independent values.
        let (renamed, pruned) = rewritten("p?a(i32).q!b(i32).end", false);
        assert_eq!((renamed.len(), pruned), (1, 0));
    }

    #[test]
    fn forwarding_loop_anticipation_is_pruned() {
        // Anticipating `q!v(i32)` would send a value the loop has not
        // received yet; the unit-sort `q!ready` anticipation survives.
        // (The in-body hoist of the same forwarded send is pruned too.)
        let (candidates, pruned) = rewritten("rec x . p?v(i32) . q!v(i32) . q!ready . x", true);
        assert_eq!(pruned, 2);
        let anticipated: Vec<&str> = candidates
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
        let (candidates, _) = rewritten("p?a.q!big(str).end", false);
        let (_, step) = &candidates[0];
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

    #[test]
    fn a_deep_rewrite_interns_only_its_path() {
        // `depth` nested choices, each with a `size`-long sibling that
        // admits no rewrite, over the one hoist `q?x.r!y ↦ r!y.q?x`.
        let chain = |depth: usize, size: usize| {
            let mut term = "q?x . r!y . end".to_owned();
            for level in 0..depth {
                let sibling = format!("s!z{level} . ").repeat(size);
                term = format!("+{{ p!a . {term}, p!b . {sibling}end }}");
            }
            parse(&term).unwrap()
        };
        for depth in [1, 4, 16] {
            let mut added = Vec::new();
            for size in [1, 64] {
                let mut terms = Terms::default();
                let root = terms.intern_local(&chain(depth, size));
                let before = terms.node_count();
                assert_eq!(rewrites(&mut terms, root, true).candidates.len(), 1);
                added.push(terms.node_count() - before);
                // The same rewrite again finds every node interned.
                rewrites(&mut terms, root, true);
                assert_eq!(terms.node_count(), before + added[added.len() - 1]);
            }
            // Two nodes at the bottom, one per ancestor, whatever the size.
            assert_eq!(added, [depth + 2, depth + 2], "depth {depth}");
        }
    }
}
