//! Differential test of [`SubtypeVisitor`] against a reference visitor
//! that keeps a dense `sub.len() × sup.len()` history matrix and owned
//! prefix actions — the visitor and prefix as they were before the path
//! map and prefixes of copied actions replaced them. The visitor runs
//! three times per pair: on the `Fsm`s `fsm::from_local` builds, one arena
//! per type, as the entry points run it, once fresh and once through one
//! long-lived visitor per bound and fail-early setting that every check
//! of the test thread shares, and on the machines
//! `theory::term::Terms` builds from one arena for both types, as the
//! optimiser runs it. Both must agree with the reference — which reads
//! the first pair — on the verdict *and* on the number of visited state
//! pairs, with
//! fail-early both on and off, for
//!
//! * random binary types (their generator is included from
//!   `tests/generators/`) against themselves, their dual, themselves
//!   pointed at another peer, one single-step rewrite, and another random
//!   type — and the same as loops, with fail-early on only,
//! * random binary types under two assignments of payload sorts against
//!   each other, as they come and as loops,
//! * the shapes of the benchmark's `verify_amr` corpus: nested choice at
//!   levels 1–4 in both directions, the streaming source unrolled 0–100
//!   times and the k-buffering kernel with 0–8 `ready`s sent ahead,
//! * deep paths: the streaming source unrolled 400 times and the kernel
//!   with 16 `ready`s sent ahead,
//! * every candidate the optimiser *generates*, verified or not, for the
//!   kernel at depths 1–3 and every pmesh-5 role at depth 2.
//!
//! Equal visit counts pin the search itself, not only its answer. A path
//! record left behind on return (an off-path pair keeping a reduced visit
//! count and stale snapshots) passes every other test of this crate; here
//! the looped random types and the pmesh-5 candidates fail on it, and the
//! long-lived visitors fail on it in release builds too, where the
//! visitor's own empty-path assertion is compiled out. Trees
//! and single loops never re-enter a pair from a sibling branch, so they
//! cannot see it. Checking sorts the wrong way round in
//! `prefix::sorts_compatible` (`sub.sort.is_subsort_of(&sup.sort)` for a
//! receive) fails here on the re-sorted random pairs only: every other
//! input carries one sort.
//!
//! CI runs this in release as well (`cargo test --release -p subtyping`).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

use bench::verification::{k_buffering, nested_choice, streaming, to_fsm};
use optimiser::rewrite::rewrites;
use optimiser::Step;
use proptest::prelude::*;
use subtyping::{CheckStats, SubtypeVisitor};
use theory::local::LocalBranch;
use theory::term::Terms;
use theory::{Fsm, LocalType, Name, Sort};

#[path = "../../../tests/generators/mod.rs"]
mod generators;
use generators::{binary_local_type, dual, retarget};

/// The reference: the visitor and prefix before the path map, verbatim
/// but for visibility.
#[allow(dead_code)]
mod reference {
    use theory::fsm::{Action, Direction, Fsm, StateIndex};

    /// A recorded point in a prefix's history; see [`Prefix::snapshot`].
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Snapshot {
        /// Length of `transitions` at snapshot time.
        pub size: usize,
        /// Value of `start` at snapshot time.
        pub start: usize,
        /// Length of the `removed` log at snapshot time.
        pub removed: usize,
    }

    /// A prefix `π`: the sequence of actions the algorithm has traversed but
    /// not yet matched between subtype and supertype.
    #[derive(Clone, Debug, Default)]
    pub struct Prefix {
        /// `(removed, transition)` pairs; `removed` marks lazy deletion.
        transitions: Vec<(bool, Action)>,
        /// Elements before `start` are consumed (a cheap bulk form of removal).
        start: usize,
        /// Log of indices removed by flagging, in removal order, for revert.
        removed: Vec<usize>,
    }

    impl Prefix {
        /// Creates an empty prefix.
        pub fn new() -> Self {
            Self::default()
        }

        /// Appends an action to the prefix.
        pub fn push(&mut self, action: Action) {
            self.transitions.push((false, action));
        }

        /// True when no live elements remain.
        pub fn is_empty(&self) -> bool {
            self.live().next().is_none()
        }

        /// Number of live elements.
        pub fn len(&self) -> usize {
            self.live().count()
        }

        /// Iterates over `(index, action)` for live elements, in order.
        pub fn live(&self) -> impl Iterator<Item = (usize, &Action)> {
            self.transitions
                .iter()
                .enumerate()
                .skip(self.start)
                .filter(|(_, (removed, _))| !removed)
                .map(|(index, (_, action))| (index, action))
        }

        /// The first live action, if any.
        pub fn head(&self) -> Option<&Action> {
            self.live().next().map(|(_, action)| action)
        }

        /// Removes the element at `index` (which must be live).
        ///
        /// Maintains the invariant that the element at `start` is never
        /// flagged: removing the head advances `start` past any flagged run.
        pub fn remove(&mut self, index: usize) {
            debug_assert!(index >= self.start);
            debug_assert!(!self.transitions[index].0, "double removal at {index}");
            if index == self.start {
                self.start += 1;
            } else {
                self.transitions[index].0 = true;
                self.removed.push(index);
            }
            // Advance start past any previously flagged elements so the head
            // is always a live element.
            while self
                .transitions
                .get(self.start)
                .is_some_and(|(removed, _)| *removed)
            {
                self.start += 1;
            }
        }

        /// Records the current state for a later [`Prefix::revert`].
        pub fn snapshot(&self) -> Snapshot {
            Snapshot {
                size: self.transitions.len(),
                start: self.start,
                removed: self.removed.len(),
            }
        }

        /// Restores the prefix to `snapshot`: un-flags every element removed
        /// since, truncates appended elements and resets `start`.
        pub fn revert(&mut self, snapshot: Snapshot) {
            for &index in &self.removed[snapshot.removed..] {
                self.transitions[index].0 = false;
            }
            self.removed.truncate(snapshot.removed);
            self.transitions.truncate(snapshot.size);
            self.start = snapshot.start;
        }

        /// The `[asm]` termination check of Appendix B.5, Eq. (2).
        pub fn matches_snapshot(&self, snapshot: Snapshot) -> bool {
            let current = &self.transitions[self.start.min(self.transitions.len())..];
            let recorded = &self.transitions[snapshot.start..snapshot.size];
            current == recorded
        }
    }

    /// Result of attempting one reduction step on a prefix pair.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Reduction {
        /// A rule applied; the pair shrank.
        Progress,
        /// No rule applies now, but appending more actions may unblock it.
        Blocked,
        /// No rule can ever apply (fail-early, Appendix B.5): the subtype's
        /// head is permanently obstructed in the supertype prefix.
        DeadEnd,
    }

    /// Attempts a single reduction `⟨sub ⌈⌋ sup⟩  ⟨sub′ ⌈⌋ sup′⟩`, driven by
    /// the head of the subtype prefix.
    pub fn reduce_step(sub: &mut Prefix, sup: &mut Prefix) -> Reduction {
        let Some(head) = sub.head().cloned() else {
            return Reduction::Blocked;
        };
        let mut matched: Option<usize> = None;
        for (index, action) in sup.live() {
            if action.direction == head.direction
                && action.peer == head.peer
                && action.label == head.label
            {
                if sorts_compatible(&head, action) {
                    matched = Some(index);
                    break;
                }
                // Same action with incompatible payload: a permanent obstacle
                // (it is in neither A(p) nor B(p), and precedes any later match).
                return Reduction::DeadEnd;
            }
            let context_ok = match head.direction {
                // A(p): inputs from participants other than p.
                Direction::Receive => {
                    action.direction == Direction::Receive && action.peer != head.peer
                }
                // B(p): any inputs, and outputs to participants other than p.
                Direction::Send => {
                    action.direction == Direction::Receive || action.peer != head.peer
                }
            };
            if !context_ok {
                return Reduction::DeadEnd;
            }
        }
        match matched {
            Some(index) => {
                let head_index = sub.live().next().map(|(i, _)| i).expect("head exists");
                sub.remove(head_index);
                sup.remove(index);
                Reduction::Progress
            }
            None => Reduction::Blocked,
        }
    }

    /// Exhaustively reduces the pair; returns `false` on a dead end.
    pub fn reduce(sub: &mut Prefix, sup: &mut Prefix) -> bool {
        loop {
            match reduce_step(sub, sup) {
                Reduction::Progress => continue,
                Reduction::Blocked => return true,
                Reduction::DeadEnd => return false,
            }
        }
    }

    /// Payload compatibility for matched actions: receives are contravariant
    /// (`[ref-in]`: the supertype's sort must be a subsort of the subtype's),
    /// sends covariant (`[ref-out]`).
    fn sorts_compatible(sub: &Action, sup: &Action) -> bool {
        match sub.direction {
            Direction::Receive => sup.sort.is_subsort_of(&sub.sort),
            Direction::Send => sub.sort.is_subsort_of(&sup.sort),
        }
    }

    /// Per-state-pair record: remaining visits and the prefix snapshots from
    /// the most recent visit on the current path.
    #[derive(Clone, Debug)]
    struct Previous {
        visits: usize,
        snapshots: Option<[Snapshot; 2]>,
    }

    /// Checks `sub ≤ sup` by depth-first search.
    pub struct SubtypeVisitor<'a> {
        sub: &'a Fsm,
        sup: &'a Fsm,
        history: Vec<Previous>,
        prefixes: [Prefix; 2],
        fail_early: bool,
        visited: usize,
    }

    impl<'a> SubtypeVisitor<'a> {
        /// Prepares a visitor with `bound` visits allowed per state pair.
        pub fn new(sub: &'a Fsm, sup: &'a Fsm, bound: usize) -> Self {
            let entries = sub.len() * sup.len();
            Self {
                sub,
                sup,
                history: vec![
                    Previous {
                        visits: bound,
                        snapshots: None,
                    };
                    entries
                ],
                prefixes: [Prefix::new(), Prefix::new()],
                fail_early: true,
                visited: 0,
            }
        }

        /// Disables the fail-early reduction cut-off (Appendix B.5).
        pub fn without_fail_early(mut self) -> Self {
            self.fail_early = false;
            self
        }

        /// Runs the check and reports how many state-pair visits the
        /// search performed.
        pub fn run_counting(mut self) -> (bool, usize) {
            let verdict = self.visit(self.sub.initial(), self.sup.initial());
            (verdict, self.visited)
        }

        fn entry(&self, sub_state: StateIndex, sup_state: StateIndex) -> usize {
            sub_state.0 * self.sup.len() + sup_state.0
        }

        fn visit(&mut self, sub_state: StateIndex, sup_state: StateIndex) -> bool {
            self.visited += 1;
            // (1) Bound check ([μl]/[μr] with n = 0): each state pair may be
            // visited at most `bound` times along one derivation path.
            let entry = self.entry(sub_state, sup_state);
            if self.history[entry].visits == 0 {
                return false;
            }

            // (2) Reduce the prefix pair as far as possible ([sub] applied
            // eagerly); a dead end means no completion of this path can ever
            // reduce it (fail-early).
            let fail_early = self.fail_early;
            let [sub_prefix, sup_prefix] = &mut self.prefixes;
            if !reduce(sub_prefix, sup_prefix) && fail_early {
                return false;
            }

            // (3) [asm]: the pair was visited before on this path and both
            // prefixes match their recorded snapshots (Eq. (2)).
            if let Some([sub_snapshot, sup_snapshot]) = self.history[entry].snapshots {
                if self.prefixes[0].matches_snapshot(sub_snapshot)
                    && self.prefixes[1].matches_snapshot(sup_snapshot)
                {
                    return true;
                }
            }

            // (4) [end]: both machines finished and nothing is left pending.
            let sub_terminal = self.sub.is_terminal(sub_state);
            let sup_terminal = self.sup.is_terminal(sup_state);
            if sub_terminal && sup_terminal {
                return self.prefixes[0].is_empty() && self.prefixes[1].is_empty();
            }
            if sub_terminal || sup_terminal {
                // One side finished while the other still owes actions.
                return false;
            }

            // (5) Explore transitions according to the quantifier rules
            // [oo]/[oi]/[ii]/[io] of Fig 5.
            let saved = self.history[entry].clone();
            self.history[entry] = Previous {
                visits: saved.visits - 1,
                snapshots: Some([self.prefixes[0].snapshot(), self.prefixes[1].snapshot()]),
            };

            let sub_direction = direction_of(self.sub, sub_state);
            let sup_direction = direction_of(self.sup, sup_state);
            let sub_count = self.sub.transitions(sub_state).len();
            let sup_count = self.sup.transitions(sup_state).len();

            let result = match (sub_direction, sup_direction) {
                // [oo]: ∀i ∈ I. ∃j ∈ J (the subtype may drop internal choices).
                (Direction::Send, Direction::Send) => (0..sub_count)
                    .all(|i| (0..sup_count).any(|j| self.try_pair(sub_state, i, sup_state, j))),
                // [oi]: ∀i. ∀j — the subtype's output must anticipate across
                // every input the supertype might perform.
                (Direction::Send, Direction::Receive) => (0..sub_count)
                    .all(|i| (0..sup_count).all(|j| self.try_pair(sub_state, i, sup_state, j))),
                // [ii]: ∀j. ∃i (the subtype may accept extra external choices).
                (Direction::Receive, Direction::Receive) => (0..sup_count)
                    .all(|j| (0..sub_count).any(|i| self.try_pair(sub_state, i, sup_state, j))),
                // [io]: ∃i. ∃j.
                (Direction::Receive, Direction::Send) => (0..sub_count)
                    .any(|i| (0..sup_count).any(|j| self.try_pair(sub_state, i, sup_state, j))),
            };

            // Restore the entry for sibling branches of the search.
            self.history[entry] = saved;
            result
        }

        /// Pushes one transition from each machine onto the prefixes, recurses
        /// into the target pair, and reverts.
        fn try_pair(
            &mut self,
            sub_state: StateIndex,
            sub_index: usize,
            sup_state: StateIndex,
            sup_index: usize,
        ) -> bool {
            let (sub_action, sub_target) = self.sub.transitions(sub_state)[sub_index];
            let (sup_action, sup_target) = self.sup.transitions(sup_state)[sup_index];
            let snapshots = [self.prefixes[0].snapshot(), self.prefixes[1].snapshot()];
            self.prefixes[0].push(sub_action);
            self.prefixes[1].push(sup_action);
            let result = self.visit(sub_target, sup_target);
            self.prefixes[0].revert(snapshots[0]);
            self.prefixes[1].revert(snapshots[1]);
            result
        }
    }

    /// Direction of a non-terminal state.
    fn direction_of(fsm: &Fsm, state: StateIndex) -> Direction {
        fsm.transitions(state)[0].0.direction
    }
}

thread_local! {
    /// One long-lived visitor per bound and fail-early setting, as the
    /// optimiser keeps one: every check of a test thread goes through it
    /// too, so it must come out of each check as a fresh one would.
    static REUSED: RefCell<HashMap<(usize, bool), SubtypeVisitor>> = RefCell::default();
}

/// Runs the reference, and the visitor on `from_local` machines — fresh
/// and long-lived — and on the machines of one arena, with fail-early on
/// or off, and insists on one verdict and visit count; returns the
/// verdict.
fn agree_with(
    sub: &LocalType,
    sup: &LocalType,
    bound: usize,
    fail_early: bool,
    what: &str,
) -> bool {
    let (sub_fsm, sup_fsm) = (machine(sub), machine(sup));
    let mut terms = Terms::default();
    let (sub_id, sup_id) = (terms.intern_local(sub), terms.intern_local(sup));
    let in_arena = |id| {
        let mut machine = Fsm::new("r");
        terms
            .machine(id, &mut machine)
            .expect("converts as its Fsm did");
        machine
    };
    let (sub_arena, sup_arena) = (in_arena(sub_id), in_arena(sup_id));
    let mut theirs = reference::SubtypeVisitor::new(&sub_fsm, &sup_fsm, bound);
    let (mut on_fsm, mut on_arena) = (SubtypeVisitor::new(bound), SubtypeVisitor::new(bound));
    if !fail_early {
        theirs = theirs.without_fail_early();
        on_fsm = on_fsm.without_fail_early();
        on_arena = on_arena.without_fail_early();
    }
    let theirs = theirs.run_counting();
    let what =
        format!("{what} at bound {bound}, fail-early {fail_early}: (verdict, visited_pairs)");
    let pair = |stats: CheckStats| (stats.verdict, stats.visited_pairs);
    assert_eq!(
        pair(on_fsm.check(&sub_fsm, &sup_fsm)),
        theirs,
        "{what} on from_local machines"
    );
    assert_eq!(
        pair(on_arena.check(&sub_arena, &sup_arena)),
        theirs,
        "{what} on one arena's machines"
    );
    let reused = REUSED.with_borrow_mut(|visitors| {
        let visitor = visitors.entry((bound, fail_early)).or_insert_with(|| {
            let visitor = SubtypeVisitor::new(bound);
            if fail_early {
                visitor
            } else {
                visitor.without_fail_early()
            }
        });
        visitor.check(&sub_fsm, &sup_fsm)
    });
    assert_eq!(pair(reused), theirs, "{what} through a long-lived visitor");
    theirs.0
}

/// [`agree_with`] fail-early on and off; the verdict must not move.
fn agree(sub: &LocalType, sup: &LocalType, bound: usize, what: &str) -> bool {
    let verdict = agree_with(sub, sup, bound, true, what);
    assert_eq!(
        agree_with(sub, sup, bound, false, what),
        verdict,
        "{what}: fail-early moved the verdict"
    );
    verdict
}

fn machine(local: &LocalType) -> Fsm {
    to_fsm("r", local)
}

/// `μx.t` with every `end` of `t` replaced by `x`: a loop whose body
/// branches, so the search re-enters pairs from sibling branches — which
/// the generator's recursion-free trees never do.
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

/// `t` with the `i`-th branch in pre-order carrying the payload
/// `sorts[i % sorts.len()]`.
fn resorted(t: &LocalType, sorts: &[Sort]) -> LocalType {
    fn go(t: &LocalType, sorts: &[Sort], next: &mut usize) -> LocalType {
        match t {
            LocalType::Select { peer, branches } | LocalType::Branch { peer, branches } => {
                let branches = branches
                    .iter()
                    .map(|b| {
                        let sort = sorts[*next % sorts.len()];
                        *next += 1;
                        LocalBranch {
                            label: b.label,
                            sort,
                            continuation: go(&b.continuation, sorts, next),
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
            LocalType::Rec { var, body } => LocalType::rec(*var, go(body, sorts, next)),
            other => other.clone(),
        }
    }
    go(t, sorts, &mut 0)
}

/// `left` against itself, its dual, itself pointed at another peer, one
/// of its single-step rewrites (often a verified subtype) and `right`,
/// in both directions.
fn relatives_agree(
    left: &LocalType,
    right: &LocalType,
    pick: usize,
    bound: usize,
    check: impl Fn(&LocalType, &LocalType, usize, &str) -> bool,
) -> bool {
    let mut terms = Terms::default();
    let root = terms.intern_local(left);
    let rewritten = rewrites(&mut terms, root, true).candidates;
    let mut others = vec![
        ("dual", dual(left)),
        ("retargeted", retarget(left, "q")),
        ("another", right.clone()),
    ];
    if !rewritten.is_empty() {
        let (rewrite, _) = rewritten[pick % rewritten.len()];
        others.push(("rewrite", terms.to_local(rewrite)));
    }
    for (name, other) in &others {
        check(other, left, bound, &format!("{name} ≤ `{left}`"));
        check(left, other, bound, &format!("`{left}` ≤ {name}"));
    }
    // A loop needs a second visit to close by [asm].
    check(
        left,
        left,
        bound.max(2),
        &format!("`{left}` against itself"),
    )
}

/// Payload sorts for the re-sorted pairs: a chain under `≤:` and `unit`,
/// which relates to none of them.
fn sorts() -> impl Strategy<Value = Vec<Sort>> {
    let sort = proptest::sample::select(vec![Sort::Unit, Sort::U32, Sort::I32, Sort::I64]);
    proptest::collection::vec(sort, 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random binary types against their relatives, fail-early on and
    /// off; then the same as loops with fail-early on only (off, a
    /// doomed path runs to the bound in every pair of the loop, which is
    /// exponential here). Only the loops re-enter a pair from a sibling
    /// branch.
    #[test]
    fn random_pairs_agree(
        left in binary_local_type(),
        right in binary_local_type(),
        pick in 0..64usize,
        bound in 1..=4usize,
    ) {
        prop_assert!(relatives_agree(&left, &right, pick, bound, agree));
        if left != LocalType::End && right != LocalType::End {
            let looped_agree = |sub: &LocalType, sup: &LocalType, bound, what: &str| {
                agree_with(sub, sup, bound, true, what)
            };
            let (left, right) = (looped(&left), looped(&right));
            prop_assert!(relatives_agree(&left, &right, pick, bound, looped_agree));
        }
    }

    /// A random binary type under two assignments of payload sorts, in
    /// both directions, as it comes and as a loop: the only pairs whose
    /// matched actions carry different sorts, so the only ones that reach
    /// `≤:` on two sorts.
    #[test]
    fn resorted_pairs_agree(
        t in binary_local_type(),
        sub_sorts in sorts(),
        sup_sorts in sorts(),
        bound in 1..=4usize,
    ) {
        let (sub, sup) = (resorted(&t, &sub_sorts), resorted(&t, &sup_sorts));
        agree(&sub, &sup, bound, &format!("`{sub}` ≤ `{sup}`"));
        agree(&sup, &sub, bound, &format!("`{sup}` ≤ `{sub}`"));
        if t != LocalType::End {
            let (sub, sup) = (looped(&sub), looped(&sup));
            agree_with(&sub, &sup, bound.max(2), true, &format!("`{sub}` ≤ `{sup}`"));
            agree_with(&sup, &sub, bound.max(2), true, &format!("`{sup}` ≤ `{sub}`"));
        }
    }
}

/// What `verify_amr` checks directly, in both directions, with its bounds.
#[test]
fn verify_amr_shapes_agree() {
    for levels in 1..=4 {
        let (sub, sup) = (
            nested_choice::subtype(levels),
            nested_choice::supertype(levels),
        );
        let what = format!("nested choice {levels}");
        assert!(agree(&sub, &sup, levels + 2, &what));
        assert!(!agree(&sup, &sub, levels + 2, &format!("{what} reversed")));
    }
    let stream = streaming::projected();
    for unrolls in 0..=100 {
        let ahead = streaming::optimised(unrolls);
        let what = format!("streaming unrolled {unrolls}");
        assert!(agree(&ahead, &stream, unrolls + 4, &what));
        assert_eq!(
            agree(&stream, &ahead, unrolls + 4, &format!("{what} reversed")),
            unrolls == 0
        );
    }
    let kernel = k_buffering::projected();
    for ahead in 0..=8 {
        let sent = k_buffering::optimised(ahead);
        let what = format!("kernel sent ahead {ahead}");
        assert!(agree(&sent, &kernel, ahead + 4, &what));
        assert_eq!(
            agree(&kernel, &sent, ahead + 4, &format!("{what} reversed")),
            ahead == 0
        );
    }
}

/// Deep paths, where the visitor's incremental prefix scan skips the
/// most: the streaming source unrolled 100 and 400 times and the
/// k-buffering kernel with 8 and 16 `ready`s sent ahead, at bound n + 4.
/// Each visit pushes one action onto a prefix that is hundreds of actions
/// long, so a watermark left stale by a fresh head or a revert would show
/// here as a wrong visit count long before a wrong verdict. Both visitors
/// recurse once per path step, so an unoptimised build, whose frames are
/// larger, stops at 200 unrolls to stay within a test thread's stack.
#[test]
fn deep_shapes_agree() {
    let stream = streaming::projected();
    let deepest = if cfg!(debug_assertions) { 200 } else { 400 };
    for unrolls in [100, deepest] {
        let what = format!("streaming unrolled {unrolls}");
        assert!(agree(
            &streaming::optimised(unrolls),
            &stream,
            unrolls + 4,
            &what
        ));
    }
    let kernel = k_buffering::projected();
    for ahead in [8, 16] {
        let what = format!("kernel sent ahead {ahead}");
        assert!(agree(
            &k_buffering::optimised(ahead),
            &kernel,
            ahead + 4,
            &what
        ));
    }
}

/// Every candidate `optimise` generates for `projection`, verified or
/// not, in generation order: the breadth-first closure under the
/// rewrites, repeated here because `Optimised` keeps only the verified
/// ones.
fn generated(projection: &LocalType, config: &optimiser::Config) -> Vec<LocalType> {
    let mut terms = Terms::default();
    let root = terms.intern_local(projection);
    let mut seen = HashSet::from([root]);
    let mut out = Vec::new();
    // (term, rewrite steps, anticipations) per frontier entry.
    let mut frontier = vec![(root, 0, 0)];
    'search: while !frontier.is_empty() {
        let mut next = Vec::new();
        for &(term, steps, anticipations) in &frontier {
            if steps >= config.max_steps {
                continue;
            }
            let allow_anticipate = anticipations < config.unfold_depth;
            for (candidate, step) in rewrites(&mut terms, term, allow_anticipate).candidates {
                if !seen.insert(candidate) {
                    continue;
                }
                out.push(candidate);
                if out.len() >= config.max_candidates {
                    break 'search;
                }
                let anticipated = usize::from(matches!(step, Step::Anticipate { .. }));
                next.push((candidate, steps + 1, anticipations + anticipated));
            }
        }
        frontier = next;
    }
    out.into_iter().map(|id| terms.to_local(id)).collect()
}

/// Checks every generated candidate of `role`'s projection against it and
/// ties the count of verified ones to what `optimise` itself reports.
fn optimiser_candidates_agree(role: &str, projection: &LocalType, depth: usize) {
    let config = optimiser::Config::with_depth(depth);
    let outcome = optimiser::optimise(&Name::from(role), projection, &config).unwrap();
    let candidates = generated(projection, &config);
    assert_eq!(
        candidates.len(),
        outcome.generated,
        "{role} at depth {depth}"
    );
    let mut verified = 0;
    for (index, candidate) in candidates.iter().enumerate() {
        let what = format!("{role} at depth {depth}, candidate {index} `{candidate}`");
        verified += usize::from(agree(candidate, projection, config.bound, &what));
    }
    assert_eq!(
        verified,
        outcome.candidates.len(),
        "{role} at depth {depth}"
    );
}

#[test]
fn optimiser_candidates_agree_on_the_kernel() {
    for depth in 1..=3 {
        optimiser_candidates_agree("k", &k_buffering::projected(), depth);
    }
}

#[test]
fn optimiser_candidates_agree_on_pmesh_5() {
    const PMESH: &str = include_str!("../../../benchmark/corpus/pmesh.scr");
    let analysis = codegen::analyse_with(PMESH, &[(Name::from("n"), 5)]).expect("analyses");
    assert_eq!(analysis.locals.len(), 5);
    for (role, projection) in &analysis.locals {
        optimiser_candidates_agree(role.as_str(), projection, 2);
    }
}
