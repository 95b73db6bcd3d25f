//! The depth-first subtyping visitor (Appendix B.5).
//!
//! The visitor walks the product of the candidate-subtype machine and the
//! supertype machine. The `path` stack plays the role of the assumption
//! map `Σ` of Fig 5: it holds a record for each visit on the current
//! derivation path that went on to explore transitions, storing how many
//! visits remain for its state pair (the recursion bound `n`) and
//! snapshots of both prefixes taken at that visit (the `ρ` recorded with
//! each assumption). A visit pushes its record in step (5) and pops it on
//! return, so the stack never holds more than the path and memory is
//! O(path depth), not O(states²). A pair's assumption is its innermost
//! record, found by scanning the stack from the top; a pair with no
//! record has all `bound` visits left and no snapshots. A lookup hashes
//! nothing, and a visit allocates only when the stack or a prefix
//! outgrows the room [`SubtypeVisitor::new`] gives it.
//!
//! A check leaves the path and both prefixes empty, so one visitor
//! checks any number of pairs and keeps their buffers: the AMR optimiser
//! runs every candidate through one. The visitor reads the [`Fsm`]s it is
//! given as they are: their actions' names are interned, so matching two
//! actions compares pointers.

use theory::fsm::{Direction, Fsm, StateIndex};

use crate::prefix::{reduce, Prefix, Snapshot};
use crate::CheckStats;

/// Record of a state pair on the current path: remaining visits and the
/// prefix snapshots from its most recent visit.
#[derive(Clone, Copy, Debug)]
struct Previous {
    visits: usize,
    snapshots: [Snapshot; 2],
}

/// Room the path and each prefix get up front: the short checks the
/// optimiser runs by the thousand never regrow them, and a deeper check
/// grows them once.
const CAPACITY: usize = 32;

/// Checks `sub ≤ sup` by depth-first search over two machines; see
/// [`crate::is_subtype`].
pub struct SubtypeVisitor {
    bound: usize,
    /// `Σ`: `(sub_state, sup_state)` and its record per exploring visit on
    /// the current derivation path, outermost first.
    path: Vec<((usize, usize), Previous)>,
    prefixes: [Prefix; 2],
    fail_early: bool,
    visited: usize,
}

impl SubtypeVisitor {
    /// Prepares a visitor with `bound` visits allowed per state pair.
    pub fn new(bound: usize) -> Self {
        Self {
            bound,
            path: Vec::with_capacity(CAPACITY),
            prefixes: std::array::from_fn(|_| Prefix::with_capacity(CAPACITY)),
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
        self.visited = 0;
        let verdict = self.visit((sub, sup), sub.initial().0, sup.initial().0);
        debug_assert!(self.path.is_empty(), "a check leaves its path behind");
        CheckStats {
            verdict,
            bound: self.bound,
            visited_pairs: self.visited,
        }
    }

    fn visit(&mut self, machines: (&Fsm, &Fsm), sub_state: usize, sup_state: usize) -> bool {
        let (sub, sup) = machines;
        self.visited += 1;
        // (1) Bound check ([μl]/[μr] with n = 0): each state pair may be
        // visited at most `bound` times along one derivation path.
        let pair = (sub_state, sup_state);
        let previous = self
            .path
            .iter()
            .rev()
            .find(|(on_path, _)| *on_path == pair)
            .map(|&(_, previous)| previous);
        let visits = previous.map_or(self.bound, |previous| previous.visits);
        if visits == 0 {
            return false;
        }

        // (2) Reduce the prefix pair as far as possible ([sub] applied
        // eagerly); a dead end means no completion of this path can ever
        // reduce it (fail-early).
        let [sub_prefix, sup_prefix] = &mut self.prefixes;
        if !reduce(sub_prefix, sup_prefix) && self.fail_early {
            return false;
        }

        // (3) [asm]: the pair was visited before on this path and both
        // prefixes match their recorded snapshots (Eq. (2)).
        if let Some(Previous {
            snapshots: [sub_snapshot, sup_snapshot],
            ..
        }) = previous
        {
            if self.prefixes[0].matches_snapshot(sub_snapshot)
                && self.prefixes[1].matches_snapshot(sup_snapshot)
            {
                return true;
            }
        }

        // (4) [end]: both machines finished and nothing is left pending.
        let sub_transitions = sub.transitions(StateIndex(sub_state));
        let sup_transitions = sup.transitions(StateIndex(sup_state));
        let (sub_count, sup_count) = (sub_transitions.len(), sup_transitions.len());
        if sub_count == 0 && sup_count == 0 {
            return self.prefixes[0].is_empty() && self.prefixes[1].is_empty();
        }
        if sub_count == 0 || sup_count == 0 {
            // One side finished while the other still owes actions.
            return false;
        }

        // (5) Explore transitions according to the quantifier rules
        // [oo]/[oi]/[ii]/[io] of Fig 5, with the pair on the path.
        self.path.push((
            pair,
            Previous {
                visits: visits - 1,
                snapshots: [self.prefixes[0].snapshot(), self.prefixes[1].snapshot()],
            },
        ));

        // A non-terminal state's direction is its first transition's: a
        // machine built from a local type has uniform states, and a
        // hand-built mixed state is read the way the runtime serialises it.
        let sub_direction = sub_transitions[0].0.direction;
        let sup_direction = sup_transitions[0].0.direction;
        let mut try_pair = |i, j| self.try_pair(machines, (sub_state, i), (sup_state, j));

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
        // earlier visit's record, if there is one.
        self.path.pop();
        result
    }

    /// Pushes one transition from each machine onto the prefixes, recurses
    /// into the target pair, and reverts. A transition is given as its
    /// state and its index among that state's transitions.
    fn try_pair(
        &mut self,
        machines: (&Fsm, &Fsm),
        (sub_state, sub_index): (usize, usize),
        (sup_state, sup_index): (usize, usize),
    ) -> bool {
        let (sub_action, sub_target) = machines.0.transitions(StateIndex(sub_state))[sub_index];
        let (sup_action, sup_target) = machines.1.transitions(StateIndex(sup_state))[sup_index];
        let snapshots = [self.prefixes[0].snapshot(), self.prefixes[1].snapshot()];
        self.prefixes[0].push(sub_action);
        self.prefixes[1].push(sup_action);
        let result = self.visit(machines, sub_target.0, sup_target.0);
        self.prefixes[0].revert(snapshots[0]);
        self.prefixes[1].revert(snapshots[1]);
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
