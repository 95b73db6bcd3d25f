//! What the visitor and the prefixes need of a machine and its actions,
//! so the Fig 5 rules are written once for both machine forms:
//!
//! * `&Fsm`, behind the public entry points — its actions are borrowed,
//!   and compared by name;
//! * `&CompactFsm`, which the AMR optimiser builds for every candidate —
//!   its actions are four integers, copied into the prefixes and compared
//!   by id.
//!
//! States are `usize` indices in both.

use theory::fsm::{Action, CompactAction, CompactFsm, Direction, Fsm, StateIndex};
use theory::sort::Sort;

/// An action as a prefix holds it: cheap to copy, compared by value.
pub trait Act: Copy + PartialEq {
    /// Send or receive.
    fn direction(self) -> Direction;
    /// Whether both actions talk to the same peer.
    fn same_peer(self, other: Self) -> bool;
    /// Whether both actions carry the same label.
    fn same_label(self, other: Self) -> bool;
    /// Whether this action's payload sort is a subsort of `other`'s.
    fn subsort_of(self, other: Self) -> bool;
}

/// A machine as the visitor walks it: a copyable handle whose transitions
/// are read one at a time.
pub trait Machine: Copy {
    /// The action type its transitions carry.
    type Action: Act;
    /// The initial state.
    fn initial(self) -> usize;
    /// Number of transitions out of `state`.
    fn degree(self, state: usize) -> usize;
    /// The `index`-th transition of `state`: its action and target.
    fn transition(self, state: usize, index: usize) -> (Self::Action, usize);
}

impl Act for &Action {
    fn direction(self) -> Direction {
        self.direction
    }

    fn same_peer(self, other: Self) -> bool {
        self.peer == other.peer
    }

    fn same_label(self, other: Self) -> bool {
        self.label == other.label
    }

    fn subsort_of(self, other: Self) -> bool {
        self.sort.is_subsort_of(&other.sort)
    }
}

impl<'a> Machine for &'a Fsm {
    type Action = &'a Action;

    fn initial(self) -> usize {
        Fsm::initial(self).0
    }

    fn degree(self, state: usize) -> usize {
        self.transitions(StateIndex(state)).len()
    }

    fn transition(self, state: usize, index: usize) -> (&'a Action, usize) {
        let (action, target) = &self.transitions(StateIndex(state))[index];
        (action, target.0)
    }
}

impl Act for CompactAction {
    fn direction(self) -> Direction {
        self.direction
    }

    fn same_peer(self, other: Self) -> bool {
        self.peer == other.peer
    }

    fn same_label(self, other: Self) -> bool {
        self.label == other.label
    }

    fn subsort_of(self, other: Self) -> bool {
        Sort::is_subsort_code(self.sort, other.sort)
    }
}

impl Machine for &CompactFsm {
    type Action = CompactAction;

    fn initial(self) -> usize {
        CompactFsm::initial(self).0
    }

    fn degree(self, state: usize) -> usize {
        self.transitions(StateIndex(state)).len()
    }

    fn transition(self, state: usize, index: usize) -> (CompactAction, usize) {
        let (action, target) = self.transitions(StateIndex(state))[index];
        (action, target as usize)
    }
}
