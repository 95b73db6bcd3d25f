//! The depth-first subtyping visitor (Appendix B.5).
//!
//! The visitor walks the product of the candidate-subtype machine and the
//! supertype machine. Its path of frames plays the role of the assumption
//! map `Σ` of Fig 5: it holds a frame for each visit on the current
//! derivation path that went on to explore transitions, storing the
//! visit's state pair, how many visits remain for that pair (the
//! recursion bound `n`) and snapshots of both prefixes taken at that visit
//! (the `ρ` recorded with each assumption). A visit pushes its frame in
//! step (5) and pops it on return, so the path never holds more than the
//! derivation path and memory is O(path depth), not O(states²). A pair's
//! assumption is its innermost frame, found by scanning the path from the
//! top; a pair with no frame has all `bound` visits left and no snapshots.
//! A lookup hashes nothing.
//!
//! A visit at depth *d* pushes one action onto each prefix for each
//! transition pair it tries, so both prefixes are *d* long when it runs
//! and their *d*-th elements belong with its frame: a frame also holds
//! the two prefix elements of the transition pair its visit is trying,
//! each the row of its action in its machine. The path is therefore the
//! visitor's one buffer. [`SubtypeVisitor::new`] allocates it with room
//! for 16 frames of 64 bytes, within the allocator's per-thread cache: a
//! check allocates only when its path outgrows the room it has, so a
//! one-shot check ([`check_with_stats`](crate::check_with_stats))
//! allocates once.
//!
//! A check leaves the path and both prefixes empty, so one visitor
//! checks any number of pairs and keeps its buffer: the AMR optimiser
//! runs every candidate through one. The visitor reads the [`Fsm`]s it is
//! given as they are: their actions' names are interned, so matching two
//! actions compares pointers, and an element is a row, so two elements
//! of one prefix on the same row hold the same action without reading it.

use std::ops::Range;

use theory::fsm::{Action, Direction, Fsm, StateIndex};

use crate::prefix::{reduce_pair, Elements, Side, Snapshot};
use crate::CheckStats;

/// Frames of room [`SubtypeVisitor::new`] gives the path: 1 KiB, within
/// the allocator's per-thread cache. Nearly all of the optimiser's checks
/// stay within it, and a deeper check grows the buffer once per doubling.
const FRAMES: usize = 16;

/// The removal flag of an [`Element`], the top bit of its word.
const FLAGGED: u32 = 1 << 31;

/// One prefix element: the machine row of its action with the removal
/// flag in its top bit, and an entry of its prefix's removal log (see
/// [`Elements`]).
#[derive(Clone, Copy, Debug, Default)]
struct Element {
    word: u32,
    logged: u32,
}

impl Element {
    fn row(self) -> usize {
        (self.word & !FLAGGED) as usize
    }

    fn flagged(self) -> bool {
        self.word & FLAGGED != 0
    }
}

/// One frame of the path: a visit that explores its transitions. 64
/// bytes.
#[derive(Clone, Copy, Debug, Default)]
struct Frame {
    /// The visit's state pair, `sub << 32 | sup`.
    pair: u64,
    /// Visits left for the pair below this one.
    visits: usize,
    /// Both prefixes' snapshots at the visit.
    snapshots: [Snapshot; 2],
    /// The subtype and supertype elements of the transition pair the
    /// visit is trying.
    elements: [Element; 2],
}

/// The path's frames and both machines' rows, as the elements of both
/// prefixes: element *d* of either prefix is in frame *d*, and its action
/// is a row of its side's machine.
struct Path<'a> {
    frames: &'a mut [Frame],
    rows: [&'a [(Action, StateIndex)]; 2],
}

impl Path<'_> {
    fn at(&self, side: usize, index: u32) -> &Element {
        &self.frames[index as usize].elements[side]
    }

    fn at_mut(&mut self, side: usize, index: u32) -> &mut Element {
        &mut self.frames[index as usize].elements[side]
    }
}

impl Elements for Path<'_> {
    fn action(&self, side: usize, index: u32) -> &Action {
        &self.rows[side][self.at(side, index).row()].0
    }

    fn flagged(&self, side: usize, index: u32) -> bool {
        self.at(side, index).flagged()
    }

    fn live(&self, side: usize, index: u32) -> Option<&Action> {
        let element = *self.at(side, index);
        (!element.flagged()).then(|| &self.rows[side][element.row()].0)
    }

    /// Equal rows hold equal actions.
    fn same(&self, side: usize, a: Range<u32>, b: Range<u32>) -> bool {
        let rows = self.rows[side];
        let frames = |range: Range<u32>| &self.frames[range.start as usize..range.end as usize];
        frames(a).iter().zip(frames(b)).all(|(a, b)| {
            let (a, b) = (a.elements[side], b.elements[side]);
            a.word == b.word || (a.flagged() == b.flagged() && rows[a.row()].0 == rows[b.row()].0)
        })
    }

    fn set_flagged(&mut self, side: usize, index: u32, flagged: bool) {
        let element = self.at_mut(side, index);
        element.word = element.word & !FLAGGED | if flagged { FLAGGED } else { 0 };
    }

    fn logged(&self, side: usize, entry: u32) -> u32 {
        self.at(side, entry).logged
    }

    fn set_logged(&mut self, side: usize, entry: u32, index: u32) {
        self.at_mut(side, entry).logged = index;
    }
}

/// Checks `sub ≤ sup` by depth-first search over two machines; see
/// [`crate::is_subtype`].
pub struct SubtypeVisitor {
    bound: usize,
    /// The path `Σ`, outermost frame first; frames past `depth` are room
    /// kept for deeper paths.
    frames: Vec<Frame>,
    /// Frames on the path.
    depth: usize,
    /// The subtype and supertype prefixes' states; their elements are in
    /// `frames`.
    prefixes: [Snapshot; 2],
    fail_early: bool,
    visited: usize,
}

impl SubtypeVisitor {
    /// Prepares a visitor with `bound` visits allowed per state pair.
    pub fn new(bound: usize) -> Self {
        Self {
            bound,
            frames: Vec::with_capacity(FRAMES),
            depth: 0,
            prefixes: [Snapshot::default(); 2],
            fail_early: true,
            visited: 0,
        }
    }

    /// Disables the fail-early reduction cut-off (Appendix B.5), for the
    /// ablation benchmark. The answer is unchanged — permanently stuck
    /// prefixes still exhaust the bound — but doomed paths are explored
    /// to the bound instead of being pruned.
    pub fn without_fail_early(mut self) -> Self {
        self.fail_early = false;
        self
    }

    /// Checks `sub ≤ sup` from both initial states with empty prefixes
    /// (`[init]`) and reports the verdict and how many state-pair visits
    /// the search performed — the work metric surfaced by
    /// `subtype --json` and the optimiser report.
    pub fn check(&mut self, sub: &Fsm, sup: &Fsm) -> CheckStats {
        // An element's row leaves its top bit for the removal flag.
        let fits = |machine: &Fsm| machine.rows().len() <= FLAGGED as usize;
        assert!(fits(sub) && fits(sup), "fewer than 2³¹ transitions");
        self.visited = 0;
        let verdict = self.visit((sub, sup), sub.initial().0, sup.initial().0);
        debug_assert!(self.depth == 0, "a check leaves its path behind");
        debug_assert!(self.prefixes == [Snapshot::default(); 2]);
        CheckStats {
            verdict,
            bound: self.bound,
            visited_pairs: self.visited,
        }
    }

    /// One prefix of the pair, `side` 0 the subtype's, whose actions are
    /// rows of `rows[side]`.
    fn prefix<'a>(
        &'a mut self,
        side: usize,
        rows: [&'a [(Action, StateIndex)]; 2],
    ) -> Side<'a, Path<'a>> {
        Side {
            state: &mut self.prefixes[side],
            elements: Path {
                frames: &mut self.frames,
                rows,
            },
            side,
        }
    }

    fn visit(&mut self, machines: (&Fsm, &Fsm), sub_state: usize, sup_state: usize) -> bool {
        let (sub, sup) = machines;
        let rows = [sub.rows(), sup.rows()];
        self.visited += 1;
        // (1) Bound check ([μl]/[μr] with n = 0): each state pair may be
        // visited at most `bound` times along one derivation path. A
        // machine has fewer than 2³² states.
        let pair = (sub_state as u64) << 32 | sup_state as u64;
        let previous = self.frames[..self.depth]
            .iter()
            .rposition(|frame| frame.pair == pair);
        let visits = previous.map_or(self.bound, |at| self.frames[at].visits);
        if visits == 0 {
            return false;
        }

        // (2) Reduce the prefix pair as far as possible ([sub] applied
        // eagerly); a dead end means no completion of this path can ever
        // reduce it (fail-early).
        let [sub_prefix, sup_prefix] = &mut self.prefixes;
        let mut path = Path {
            frames: &mut self.frames,
            rows,
        };
        if !reduce_pair(sub_prefix, sup_prefix, &mut path) && self.fail_early {
            return false;
        }

        // (3) [asm]: the pair was visited before on this path and both
        // prefixes match their recorded snapshots (Eq. (2)).
        if let Some(at) = previous {
            let [sub_snapshot, sup_snapshot] = self.frames[at].snapshots;
            if self.prefix(0, rows).matches_snapshot(sub_snapshot)
                && self.prefix(1, rows).matches_snapshot(sup_snapshot)
            {
                return true;
            }
        }

        // (4) [end]: both machines finished and nothing is left pending.
        let sub_rows = sub.row_range(StateIndex(sub_state));
        let sup_rows = sup.row_range(StateIndex(sup_state));
        let (sub_count, sup_count) = (sub_rows.len(), sup_rows.len());
        if sub_count == 0 && sup_count == 0 {
            return self.prefix(0, rows).is_empty() && self.prefix(1, rows).is_empty();
        }
        if sub_count == 0 || sup_count == 0 {
            // One side finished while the other still owes actions.
            return false;
        }

        // (5) Explore transitions according to the quantifier rules
        // [oo]/[oi]/[ii]/[io] of Fig 5, with the pair on the path.
        if self.depth == self.frames.len() {
            self.frames.push(Frame::default());
        }
        let frame = &mut self.frames[self.depth];
        (frame.pair, frame.visits, frame.snapshots) = (pair, visits - 1, self.prefixes);
        self.depth += 1;

        // A non-terminal state's direction is its first transition's: a
        // machine built from a local type has uniform states, and a
        // hand-built mixed state is read the way the runtime serialises it.
        let sub_direction = rows[0][sub_rows.start].0.direction;
        let sup_direction = rows[1][sup_rows.start].0.direction;
        let mut try_pair = |i: usize, j: usize| {
            self.try_pair(machines, rows, sub_rows.start + i, sup_rows.start + j)
        };

        let result = match (sub_direction, sup_direction) {
            // [oo]: ∀i ∈ I. ∃j ∈ J (the subtype may drop internal choices).
            (Direction::Send, Direction::Send) => {
                (0..sub_count).all(|i| (0..sup_count).any(|j| try_pair(i, j)))
            }
            // [oi]: ∀i. ∀j — the subtype's output must anticipate across
            // every input the supertype might perform.
            (Direction::Send, Direction::Receive) => {
                (0..sub_count).all(|i| (0..sup_count).all(|j| try_pair(i, j)))
            }
            // [ii]: ∀j. ∃i (the subtype may accept extra external choices).
            (Direction::Receive, Direction::Receive) => {
                (0..sup_count).all(|j| (0..sub_count).any(|i| try_pair(i, j)))
            }
            // [io]: ∃i. ∃j.
            (Direction::Receive, Direction::Send) => {
                (0..sub_count).any(|i| (0..sup_count).any(|j| try_pair(i, j)))
            }
        };

        // Off the path again: sibling branches of the search see the
        // earlier visit's frame, if there is one.
        self.depth -= 1;
        result
    }

    /// Pushes one transition from each machine, given as its row, onto
    /// the prefixes — into the frame of the visit trying them, the path's
    /// last — recurses into the target pair, and reverts.
    fn try_pair(
        &mut self,
        machines: (&Fsm, &Fsm),
        rows: [&[(Action, StateIndex)]; 2],
        sub_row: usize,
        sup_row: usize,
    ) -> bool {
        let snapshots = self.prefixes;
        // Rows fit below the flag bit: `check` made sure.
        let element = |row: usize| Element {
            word: row as u32,
            logged: 0,
        };
        self.frames[self.depth - 1].elements = [element(sub_row), element(sup_row)];
        for side in 0..2 {
            self.prefix(side, rows).pushed();
        }
        let result = self.visit(machines, rows[0][sub_row].1 .0, rows[1][sup_row].1 .0);
        for (side, snapshot) in snapshots.into_iter().enumerate() {
            self.prefix(side, rows).revert(snapshot);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use theory::fsm::{from_local, Action, FsmBuilder};
    use theory::local;
    use theory::sort::Sort;

    fn fsm(text: &str) -> Fsm {
        from_local(&"r".into(), &local::parse(text).unwrap()).unwrap()
    }

    fn check(sub: &Fsm, sup: &Fsm, bound: usize) -> bool {
        SubtypeVisitor::new(bound).check(sub, sup).verdict
    }

    #[test]
    fn trivial_end() {
        assert!(check(&fsm("end"), &fsm("end"), 1));
    }

    #[test]
    fn bound_exhaustion_rejects() {
        // Bound 0 forbids even entering the initial pair (paper step 1).
        assert!(!check(&fsm("end"), &fsm("end"), 0));
        // A loop needs at least two visits: enter + re-enter for [asm].
        let looped = fsm("rec x . p!a . x");
        assert!(!check(&looped, &looped, 1));
        assert!(check(&looped, &looped, 2));
    }

    #[test]
    fn double_unroll_verified_with_generous_bound() {
        // Anticipating two `ready`s is the 3-buffer optimisation of the
        // k-buffering family; higher bounds only add slack.
        let projected = fsm("rec x . s!ready . s?value . t?ready . t!value . x");
        let optimised =
            fsm("s!ready . s!ready . rec x . s!ready . s?value . t?ready . t!value . x");
        assert!(check(&optimised, &projected, 8));
        // The reverse direction owes two `ready`s and must fail.
        assert!(!check(&projected, &optimised, 8));
    }

    #[test]
    fn one_visitor_checks_many_pairs_as_fresh_ones_do() {
        let projected = fsm("rec x . s!ready . s?value . t?ready . t!value . x");
        let candidates = [
            fsm("s!ready . rec x . s!ready . s?value . t?ready . t!value . x"),
            fsm("rec x . s?value . s!ready . t?ready . t!value . x"),
            projected.clone(),
            fsm("end"),
        ];
        let mut visitor = SubtypeVisitor::new(6);
        for candidate in &candidates {
            assert_eq!(
                visitor.check(candidate, &projected),
                crate::check_with_stats(candidate, &projected, 6)
            );
        }
    }

    /// The visits of the `fig7 --ablation` cases, which its table only
    /// times: the kernel against itself with `n` `ready`s sent ahead
    /// (rejected) at bound n + 6, and the double-buffering kernel against
    /// the projection (accepted) at bound 8, with and without fail-early.
    /// Without fail-early a dead end leaves the prefix pair as far as it
    /// reduced, and the search goes on from there.
    #[test]
    fn ablation_cases_visit_the_same_pairs() {
        let kernel = "rec x . s!ready . s?value . t?ready . t!value . x";
        let projected = fsm(kernel);
        let visits = |sub: &Fsm, sup: &Fsm, bound: usize| {
            let with = SubtypeVisitor::new(bound).check(sub, sup);
            let without = SubtypeVisitor::new(bound)
                .without_fail_early()
                .check(sub, sup);
            assert_eq!(with.verdict, without.verdict);
            (with.verdict, with.visited_pairs, without.visited_pairs)
        };
        for (n, pairs) in [(1, 30), (2, 35), (4, 45), (8, 65)] {
            let ahead = fsm(&format!("{}{kernel}", "s!ready . ".repeat(n)));
            assert_eq!(
                visits(&projected, &ahead, n + 6),
                (false, 3, pairs),
                "n = {n}"
            );
        }
        let ahead = fsm(&format!("s!ready . {kernel}"));
        assert_eq!(visits(&ahead, &projected, 8), (true, 6, 6));
    }

    /// A chain of `states` states whose first transition is `p!first` and
    /// every later one `p!next`.
    fn chain(states: usize, first: &str) -> Fsm {
        let mut builder = FsmBuilder::new("r");
        let nodes: Vec<StateIndex> = (0..states).map(|_| builder.add_state()).collect();
        for (i, pair) in nodes.windows(2).enumerate() {
            let label = if i == 0 { first } else { "next" };
            builder.add_transition(pair[0], Action::send("p", label, Sort::Unit), pair[1]);
        }
        builder.build(nodes[0]).unwrap()
    }

    /// The cost of a check follows the pairs it visits, not the product of
    /// the machines: two 2¹⁶-state chains that disagree on their first
    /// action are rejected after two visits. A `states × states` history
    /// would need 2³² entries here before the first visit.
    #[test]
    fn cost_follows_visited_pairs_not_machine_size() {
        let (sub, sup) = (chain(1 << 16, "a"), chain(1 << 16, "b"));
        let stats = SubtypeVisitor::new(4).check(&sub, &sup);
        assert!(!stats.verdict);
        assert!(stats.visited_pairs <= 2, "{} visits", stats.visited_pairs);
    }
}
