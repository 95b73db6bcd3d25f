//! Communicating finite state machines (CFSMs).
//!
//! Local types are converted into FSMs before verification (paper §2,
//! Appendix B.5): states are subterms, transitions are send/receive actions.
//! [`to_local`]/[`from_local`] witness that the conversion is faithful.
//!
//! There is one machine form, [`Fsm`]: its transitions sit in one flat
//! array of `(action, target)` rows, and an action's peer, label and sort
//! are interned [`Name`]s, so matching two actions compares pointers and
//! never reads a string. Projection, emission and both verifiers — the
//! subtyping visitor and the k-MC explorer — read it as it is.
//!
//! One builder makes machines from local types: [`Terms::machine`], on
//! the hash-consed term arena. [`from_local`] interns a local type there
//! and runs it; the AMR optimiser runs it on its candidates directly.

use std::fmt;

use crate::local::{LocalBranch, LocalType};
use crate::name::Name;
use crate::sort::Sort;
use crate::term::Terms;

/// Index of a state within one [`Fsm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateIndex(pub usize);

impl fmt::Display for StateIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Whether an action sends or receives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `peer!label` — enqueue onto the channel towards `peer`.
    Send,
    /// `peer?label` — dequeue from the channel from `peer`.
    Receive,
}

impl Direction {
    /// The session-type symbol for the direction (`!` or `?`).
    pub fn symbol(self) -> char {
        match self {
            Direction::Send => '!',
            Direction::Receive => '?',
        }
    }
}

/// A single transition action `peer!label(sort)` or `peer?label(sort)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Action {
    /// Send or receive.
    pub direction: Direction,
    /// The other participant involved.
    pub peer: Name,
    /// The message label.
    pub label: Name,
    /// The payload sort.
    pub sort: Sort,
}

impl Action {
    /// Builds a send action.
    pub fn send(peer: impl Into<Name>, label: impl Into<Name>, sort: Sort) -> Self {
        Self {
            direction: Direction::Send,
            peer: peer.into(),
            label: label.into(),
            sort,
        }
    }

    /// Builds a receive action.
    pub fn receive(peer: impl Into<Name>, label: impl Into<Name>, sort: Sort) -> Self {
        Self {
            direction: Direction::Receive,
            peer: peer.into(),
            label: label.into(),
            sort,
        }
    }
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sort == Sort::Unit {
            write!(f, "{}{}{}", self.peer, self.direction.symbol(), self.label)
        } else {
            write!(
                f,
                "{}{}{}({})",
                self.peer,
                self.direction.symbol(),
                self.label,
                self.sort
            )
        }
    }
}

/// Errors arising when constructing or converting FSMs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsmError {
    /// A state mixes send and receive transitions, or transitions towards
    /// different peers; local types require directed choice.
    MixedState(StateIndex),
    /// Two transitions from the same state share a label.
    DuplicateLabel(StateIndex, Name),
    /// A transition referenced a state out of bounds.
    InvalidTarget(StateIndex),
    /// The local type had an unbound recursion variable.
    UnboundVariable(Name),
    /// The type recursed without any intervening action (`μt.t`).
    UnguardedRecursion(Name),
}

impl fmt::Display for FsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsmError::MixedState(state) => {
                write!(f, "state {state} mixes directions or peers")
            }
            FsmError::DuplicateLabel(state, label) => {
                write!(f, "state {state} has duplicate label {label}")
            }
            FsmError::InvalidTarget(state) => write!(f, "transition to invalid state {state}"),
            FsmError::UnboundVariable(var) => write!(f, "unbound recursion variable {var}"),
            FsmError::UnguardedRecursion(var) => write!(f, "unguarded recursion on {var}"),
        }
    }
}

impl std::error::Error for FsmError {}

/// A finite state machine describing one participant's view of a protocol.
///
/// The transitions sit in compressed sparse row form: one array of
/// `(action, target)` rows, state by state, and where each state's rows
/// start. Terminal states have no outgoing transitions.
///
/// A machine is built a state at a time: the transitions added after
/// [`add_state`](Self::add_state) are that state's, so every state's row
/// is complete before the next state is added, and every target is a
/// state that exists. [`clear`](Self::clear) keeps the buffers, so
/// rebuilding one machine for many terms allocates nothing once they have
/// grown. [`FsmBuilder`] adds transitions to any state in any order, and
/// [`from_local`] converts a local type.
///
/// ```
/// use theory::fsm::{Action, Fsm};
/// use theory::Sort;
///
/// let mut fsm = Fsm::new("k");
/// let ready = fsm.add_state();
/// let row = fsm.add_transition(Action::send("s", "ready", Sort::Unit), ready);
/// let value = fsm.add_state();
/// fsm.add_transition(Action::receive("s", "value", Sort::I32), ready);
/// fsm.set_target(row, value);
/// fsm.set_initial(ready);
/// assert_eq!(fsm.transitions(ready)[0].1, value);
/// assert_eq!(fsm.transitions(value)[0].1, ready);
/// assert_eq!(fsm.transitions(value)[0].0.to_string(), "s?value(i32)");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fsm {
    /// The participant whose behaviour this machine describes.
    pub role: Name,
    /// Where each state's row starts in `rows`, then `rows.len()`.
    offsets: Vec<u32>,
    rows: Vec<(Action, StateIndex)>,
    initial: StateIndex,
}

impl Fsm {
    /// A machine for `role` with no states.
    pub fn new(role: impl Into<Name>) -> Self {
        Self {
            role: role.into(),
            offsets: vec![0],
            rows: Vec::new(),
            initial: StateIndex(0),
        }
    }

    /// Removes every state, keeping the role and the buffers.
    pub fn clear(&mut self) {
        self.offsets.truncate(1);
        self.rows.clear();
        self.initial = StateIndex(0);
    }

    /// Adds a state and returns it; the transitions added from now until
    /// the next state are its.
    pub fn add_state(&mut self) -> StateIndex {
        let state = self.len();
        assert!(u32::try_from(state).is_ok(), "fewer than 2³² states");
        self.offsets.push(self.row_count());
        StateIndex(state)
    }

    /// Adds a transition out of the newest state and returns its index
    /// among all transitions, for [`set_target`](Self::set_target).
    ///
    /// # Panics
    ///
    /// When `target` is not a state, which includes a machine without one.
    pub fn add_transition(&mut self, action: Action, target: StateIndex) -> usize {
        self.rows.push((action, self.state(target)));
        let end = self.row_count();
        *self
            .offsets
            .last_mut()
            .expect("offsets end with the row count") = end;
        self.rows.len() - 1
    }

    /// Points transition `row` at `target`.
    ///
    /// # Panics
    ///
    /// When `row` is not a transition or `target` not a state.
    pub fn set_target(&mut self, row: usize, target: StateIndex) {
        self.rows[row].1 = self.state(target);
    }

    /// Makes `initial` the initial state.
    ///
    /// # Panics
    ///
    /// When `initial` is not a state.
    pub fn set_initial(&mut self, initial: StateIndex) {
        self.initial = self.state(initial);
    }

    fn state(&self, state: StateIndex) -> StateIndex {
        assert!(state.0 < self.len(), "{state} is not a state");
        state
    }

    fn row_count(&self) -> u32 {
        u32::try_from(self.rows.len()).expect("fewer than 2³² transitions")
    }

    /// The initial state.
    pub fn initial(&self) -> StateIndex {
        self.initial
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True for the machine with no states.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where the rows of `state` sit in [`rows`](Self::rows).
    #[inline]
    pub fn row_range(&self, state: StateIndex) -> std::ops::Range<usize> {
        self.offsets[state.0] as usize..self.offsets[state.0 + 1] as usize
    }

    /// Outgoing transitions of `state`: actions and target states.
    #[inline]
    pub fn transitions(&self, state: StateIndex) -> &[(Action, StateIndex)] {
        &self.rows[self.row_range(state)]
    }

    /// Every transition of every state, state by state.
    pub fn rows(&self) -> &[(Action, StateIndex)] {
        &self.rows
    }

    /// True if `state` has no outgoing transitions.
    pub fn is_terminal(&self, state: StateIndex) -> bool {
        self.row_range(state).is_empty()
    }

    /// Iterates over all state indices.
    pub fn states(&self) -> impl Iterator<Item = StateIndex> {
        (0..self.len()).map(StateIndex)
    }

    /// Validates the directed-choice discipline required by local types:
    /// each non-terminal state is all-send or all-receive towards a single
    /// peer, with pairwise distinct labels.
    pub fn validate_directed(&self) -> Result<(), FsmError> {
        for state in self.states() {
            let Some(((first, _), rest)) = self.transitions(state).split_first() else {
                continue;
            };
            let mut labels = std::collections::BTreeSet::new();
            labels.insert(first.label);
            for (action, _) in rest {
                if action.direction != first.direction || action.peer != first.peer {
                    return Err(FsmError::MixedState(state));
                }
                if !labels.insert(action.label) {
                    return Err(FsmError::DuplicateLabel(state, action.label));
                }
            }
        }
        Ok(())
    }
}

/// Incremental FSM constructor that adds transitions to any state in any
/// order; [`build`](Self::build) lays them out as an [`Fsm`].
pub struct FsmBuilder {
    role: Name,
    transitions: Vec<Vec<(Action, StateIndex)>>,
}

impl FsmBuilder {
    /// Starts building a machine for `role`.
    pub fn new(role: impl Into<Name>) -> Self {
        Self {
            role: role.into(),
            transitions: Vec::new(),
        }
    }

    /// Adds a fresh state and returns its index.
    pub fn add_state(&mut self) -> StateIndex {
        self.transitions.push(Vec::new());
        StateIndex(self.transitions.len() - 1)
    }

    /// Adds a transition `from --action--> to`.
    pub fn add_transition(&mut self, from: StateIndex, action: Action, to: StateIndex) {
        self.transitions[from.0].push((action, to));
    }

    /// Finishes the machine with `initial` as start state.
    pub fn build(self, initial: StateIndex) -> Result<Fsm, FsmError> {
        let states = self.transitions.len();
        let targets = self.transitions.iter().flatten().map(|&(_, target)| target);
        if let Some(invalid) = std::iter::once(initial)
            .chain(targets)
            .find(|s| s.0 >= states)
        {
            return Err(FsmError::InvalidTarget(invalid));
        }
        let mut fsm = Fsm::new(self.role);
        for row in self.transitions {
            fsm.rows.extend(row);
            fsm.offsets.push(fsm.row_count());
        }
        fsm.set_initial(initial);
        Ok(fsm)
    }
}

/// Converts a local type into its FSM: interns it into a [`Terms`]
/// arena and builds its machine there with [`Terms::machine`].
///
/// Recursion variables become back edges; `μt.T` shares the state of its
/// body. Unguarded recursion (`μt.t`) is rejected.
pub fn from_local(role: &Name, local: &LocalType) -> Result<Fsm, FsmError> {
    let mut terms = Terms::default();
    let id = terms.intern_local(local);
    let mut machine = Fsm::new(*role);
    terms.machine(id, &mut machine)?;
    Ok(machine)
}

/// Converts an FSM back into a local type, introducing `rec` binders at
/// states reachable from themselves.
pub fn to_local(fsm: &Fsm) -> Result<LocalType, FsmError> {
    fsm.validate_directed()?;
    let mut on_stack = vec![false; fsm.len()];
    let mut used_var = vec![false; fsm.len()];
    let t = to_local_state(fsm, fsm.initial(), &mut on_stack, &mut used_var)?;
    Ok(t)
}

fn to_local_state(
    fsm: &Fsm,
    state: StateIndex,
    on_stack: &mut Vec<bool>,
    used_var: &mut Vec<bool>,
) -> Result<LocalType, FsmError> {
    if on_stack[state.0] {
        used_var[state.0] = true;
        return Ok(LocalType::Var(var_for(state)));
    }
    let transitions = fsm.transitions(state);
    if transitions.is_empty() {
        return Ok(LocalType::End);
    }
    on_stack[state.0] = true;
    let direction = transitions[0].0.direction;
    let peer = transitions[0].0.peer;
    let mut branches = Vec::with_capacity(transitions.len());
    for (action, target) in transitions {
        branches.push(LocalBranch {
            label: action.label,
            sort: action.sort,
            continuation: to_local_state(fsm, *target, on_stack, used_var)?,
        });
    }
    on_stack[state.0] = false;
    let body = match direction {
        Direction::Send => LocalType::Select { peer, branches },
        Direction::Receive => LocalType::Branch { peer, branches },
    };
    Ok(if used_var[state.0] {
        LocalType::Rec {
            var: var_for(state),
            body: Box::new(body),
        }
    } else {
        body
    })
}

fn var_for(state: StateIndex) -> Name {
    Name::new(format!("X{}", state.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local;

    #[test]
    fn streaming_source_fsm() {
        let t = local::parse("rec x . t?ready . +{ t!value(i32).x, t!stop.end }").unwrap();
        let fsm = from_local(&"s".into(), &t).unwrap();
        assert_eq!(fsm.len(), 3); // loop head, choice state, end
        let initial = fsm.initial();
        let transitions = fsm.transitions(initial);
        assert_eq!(transitions.len(), 1);
        assert_eq!(transitions[0].0, Action::receive("t", "ready", Sort::Unit));
        let choice = transitions[0].1;
        let choice_transitions = fsm.transitions(choice);
        assert_eq!(choice_transitions.len(), 2);
        // `value` loops back to the initial state.
        assert_eq!(choice_transitions[0].1, initial);
        assert!(fsm.is_terminal(choice_transitions[1].1));
    }

    #[test]
    fn kernel_fsm_matches_fig4a() {
        // Mk: s!ready -> s?value -> t?ready -> t!value -> back
        let t = local::parse("rec x . s!ready . s?value . t?ready . t!value . x").unwrap();
        let fsm = from_local(&"k".into(), &t).unwrap();
        assert_eq!(fsm.len(), 4);
        let mut state = fsm.initial();
        let expected = [
            Action::send("s", "ready", Sort::Unit),
            Action::receive("s", "value", Sort::Unit),
            Action::receive("t", "ready", Sort::Unit),
            Action::send("t", "value", Sort::Unit),
        ];
        for action in &expected {
            let transitions = fsm.transitions(state);
            assert_eq!(transitions.len(), 1);
            assert_eq!(&transitions[0].0, action);
            state = transitions[0].1;
        }
        assert_eq!(state, fsm.initial());
    }

    #[test]
    fn round_trip_local_fsm_local() {
        for text in [
            "end",
            "p!a.end",
            "rec x . t?ready . +{ t!value(i32).x, t!stop.end }",
            "rec x . s!ready . s?value . t?ready . t!value . x",
            "&{p?a.end, p?b.p!c.end}",
        ] {
            let t = local::parse(text).unwrap();
            let fsm = from_local(&"r".into(), &t).unwrap();
            let back = to_local(&fsm).unwrap();
            let fsm2 = from_local(&"r".into(), &back).unwrap();
            // Construction numbers states depth first, and `to_local`
            // rebuilds the same tree, so the machines are equal state for
            // state, row for row; only the variable names may differ.
            assert_eq!(fsm, fsm2, "{text}");
            assert_eq!(to_local(&fsm2).unwrap(), back, "{text}");
            // `FsmBuilder` lays the same rows out the same way.
            let mut builder = FsmBuilder::new(fsm.role);
            for _ in fsm.states() {
                builder.add_state();
            }
            for state in fsm.states() {
                for &(action, target) in fsm.transitions(state) {
                    builder.add_transition(state, action, target);
                }
            }
            assert_eq!(builder.build(fsm.initial()).unwrap(), fsm, "{text}");
        }
    }

    #[test]
    fn compact_rows_follow_their_state() {
        let action = |label| Action::send("p", label, Sort::Unit);
        let mut machine = Fsm::new("r");
        assert!(machine.is_empty());
        for _ in 0..2 {
            let first = machine.add_state();
            let row = machine.add_transition(action("a"), first);
            machine.add_transition(action("b"), first);
            let second = machine.add_state();
            machine.set_target(row, second);
            machine.set_initial(first);
            assert_eq!((machine.len(), machine.initial()), (2, first));
            assert_eq!(
                machine.transitions(first),
                &[(action("a"), second), (action("b"), first)]
            );
            assert!(machine.transitions(second).is_empty());
            machine.clear();
            assert!(machine.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "is not a state")]
    fn compact_targets_must_be_states() {
        let mut machine = Fsm::new("r");
        let state = machine.add_state();
        machine.add_transition(
            Action::receive("p", "a", Sort::Unit),
            StateIndex(state.0 + 1),
        );
    }

    #[test]
    fn rejects_unguarded_recursion() {
        let t = local::parse("rec x . x").unwrap();
        assert!(matches!(
            from_local(&"r".into(), &t),
            Err(FsmError::UnguardedRecursion(_))
        ));
    }

    #[test]
    fn rejects_unbound_variable() {
        let t = LocalType::Var("x".into());
        assert!(matches!(
            from_local(&"r".into(), &t),
            Err(FsmError::UnboundVariable(_))
        ));
    }

    #[test]
    fn validate_rejects_mixed_state() {
        let mut builder = FsmBuilder::new("r");
        let s0 = builder.add_state();
        let s1 = builder.add_state();
        builder.add_transition(s0, Action::send("p", "a", Sort::Unit), s1);
        builder.add_transition(s0, Action::receive("p", "b", Sort::Unit), s1);
        let fsm = builder.build(s0).unwrap();
        assert!(matches!(
            fsm.validate_directed(),
            Err(FsmError::MixedState(_))
        ));
    }
}
