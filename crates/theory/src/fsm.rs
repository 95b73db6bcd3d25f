//! Communicating finite state machines (CFSMs).
//!
//! Local types are converted into FSMs before verification (paper §2,
//! Appendix B.5): states are subterms, transitions are send/receive actions.
//! [`to_local`]/[`from_local`] witness that the conversion is faithful.
//!
//! A machine has two forms. [`Fsm`] names its peers, labels and sorts; it
//! is what projection, emission and the public checker entry points
//! speak. [`CompactFsm`] is the same machine with those names interned by
//! a [`Symbols`]: its transitions sit in one flat array of
//! `(action, target)` rows, and an action is four integers. Both
//! verifiers — the subtyping visitor and the k-MC explorer — walk the
//! compact form only. [`Symbols::intern`] and [`Symbols::resolve`]
//! convert between the two, state for state and row for row.
//!
//! One builder makes machines from local types: [`Terms::machine`], on
//! the hash-consed term arena. [`from_local`] is that builder plus [`Symbols::resolve`];
//! the subtyping entry points on local types and the AMR optimiser check
//! its compact machines directly, with no [`Fsm`] in between.

use std::collections::HashMap;
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
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
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
/// Terminal states have no outgoing transitions. Construction via
/// [`FsmBuilder`] or [`from_local`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fsm {
    /// The participant whose behaviour this machine describes.
    pub role: Name,
    transitions: Vec<Vec<(Action, StateIndex)>>,
    initial: StateIndex,
}

impl Fsm {
    /// The initial state.
    pub fn initial(&self) -> StateIndex {
        self.initial
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// True for the degenerate machine with no states.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Outgoing transitions of `state`.
    pub fn transitions(&self, state: StateIndex) -> &[(Action, StateIndex)] {
        &self.transitions[state.0]
    }

    /// True if `state` has no outgoing transitions.
    pub fn is_terminal(&self, state: StateIndex) -> bool {
        self.transitions[state.0].is_empty()
    }

    /// Iterates over all state indices.
    pub fn states(&self) -> impl Iterator<Item = StateIndex> {
        (0..self.transitions.len()).map(StateIndex)
    }

    /// Validates the directed-choice discipline required by local types:
    /// each non-terminal state is all-send or all-receive towards a single
    /// peer, with pairwise distinct labels.
    pub fn validate_directed(&self) -> Result<(), FsmError> {
        for state in self.states() {
            let transitions = &self.transitions[state.0];
            let Some(((first, _), rest)) = transitions.split_first() else {
                continue;
            };
            let mut labels = std::collections::BTreeSet::new();
            labels.insert(&first.label);
            for (action, _) in rest {
                if action.direction != first.direction || action.peer != first.peer {
                    return Err(FsmError::MixedState(state));
                }
                if !labels.insert(&action.label) {
                    return Err(FsmError::DuplicateLabel(state, action.label.clone()));
                }
            }
        }
        Ok(())
    }
}

/// Incremental FSM constructor.
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
        if initial.0 >= self.transitions.len() {
            return Err(FsmError::InvalidTarget(initial));
        }
        for row in &self.transitions {
            for (_, target) in row {
                if target.0 >= self.transitions.len() {
                    return Err(FsmError::InvalidTarget(*target));
                }
            }
        }
        Ok(Fsm {
            role: self.role,
            transitions: self.transitions,
            initial,
        })
    }
}

/// An [`Action`] with its peer, label and sort replaced by ids. Two
/// compact actions compare meaningfully only when one [`Symbols`]
/// numbered both; the sort is a code as [`Sort::BUILTIN`] describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CompactAction {
    /// Send or receive.
    pub direction: Direction,
    /// The other participant's id.
    pub peer: u32,
    /// The message label's id.
    pub label: u32,
    /// The payload sort's code.
    pub sort: u32,
}

/// An FSM in compressed sparse row form with interned actions: the
/// transitions of state `s` are `rows[offsets[s]..offsets[s + 1]]`.
///
/// A machine is built a state at a time: the transitions added after
/// [`add_state`](Self::add_state) are that state's, so every state's row
/// is complete before the next state is added. Every target is a state
/// that exists, and an empty machine has no initial state.
/// [`clear`](Self::clear) keeps the buffers, so rebuilding one machine
/// for many terms allocates nothing once they have grown.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactFsm {
    /// Where each state's row starts in `rows`, then `rows.len()`.
    offsets: Vec<u32>,
    rows: Vec<(CompactAction, u32)>,
    initial: u32,
}

impl Default for CompactFsm {
    fn default() -> Self {
        Self {
            offsets: vec![0],
            rows: Vec::new(),
            initial: 0,
        }
    }
}

impl CompactFsm {
    /// Removes every state, keeping the buffers.
    pub fn clear(&mut self) {
        self.offsets.truncate(1);
        self.rows.clear();
        self.initial = 0;
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
    pub fn add_transition(&mut self, action: CompactAction, target: StateIndex) -> usize {
        let target = self.state_id(target);
        self.rows.push((action, target));
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
        self.rows[row].1 = self.state_id(target);
    }

    /// Makes `initial` the initial state.
    ///
    /// # Panics
    ///
    /// When `initial` is not a state.
    pub fn set_initial(&mut self, initial: StateIndex) {
        self.initial = self.state_id(initial);
    }

    fn state_id(&self, state: StateIndex) -> u32 {
        assert!(state.0 < self.len(), "{state} is not a state");
        state.0 as u32
    }

    fn row_count(&self) -> u32 {
        u32::try_from(self.rows.len()).expect("fewer than 2³² transitions")
    }

    /// The initial state.
    pub fn initial(&self) -> StateIndex {
        StateIndex(self.initial as usize)
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True for the machine with no states.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Outgoing transitions of `state`: actions and target states.
    #[inline]
    pub fn transitions(&self, state: StateIndex) -> &[(CompactAction, u32)] {
        &self.rows[self.offsets[state.0] as usize..self.offsets[state.0 + 1] as usize]
    }

    /// Every transition of every state, state by state.
    pub fn rows(&self) -> &[(CompactAction, u32)] {
        &self.rows
    }
}

/// The interner between [`Fsm`] and [`CompactFsm`]: one name table for
/// peers, labels and recursion variables, and one sort table that starts
/// with [`Sort::BUILTIN`], so a sort id is the code
/// [`Sort::is_subsort_code`] reads. Ids are handed out in first-seen
/// order and never change.
///
/// [`intern`](Self::intern) and [`resolve`](Self::resolve) are the
/// conversions between the two machine forms; both keep every state and
/// every row where it was.
///
/// ```
/// use theory::fsm::{from_local, Symbols};
/// use theory::local::parse;
///
/// let fsm = from_local(&"k".into(), &parse("rec x . s!ready . s?value . x").unwrap()).unwrap();
/// let mut symbols = Symbols::default();
/// let machine = symbols.intern(&fsm);
/// assert_eq!(symbols.names(), ["s", "ready", "value"].map(Into::into));
/// assert_eq!(symbols.resolve(&fsm.role, &machine), fsm);
/// ```
#[derive(Clone, Debug)]
pub struct Symbols {
    names: Vec<Name>,
    /// Keyed by names from protocol text, so with the default hasher.
    ids: HashMap<Name, u32>,
    /// Indexed by sort id: the built-in sorts first, so ids are codes.
    sorts: Vec<Sort>,
}

impl Default for Symbols {
    fn default() -> Self {
        Self {
            names: Vec::new(),
            ids: HashMap::default(),
            sorts: Sort::BUILTIN.to_vec(),
        }
    }
}

impl Symbols {
    /// The id of `name`, adding it if new.
    pub fn name_id(&mut self, name: &Name) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("fewer than 2³² names");
        self.names.push(name.clone());
        self.ids.insert(name.clone(), id);
        id
    }

    /// The name behind `id`.
    pub fn name(&self, id: u32) -> &Name {
        &self.names[id as usize]
    }

    /// The name table: `names()[id]` is the name of `id`.
    pub fn names(&self) -> &[Name] {
        &self.names
    }

    /// The id of `sort`, adding it if new. A protocol uses a handful of
    /// sorts, so a scan beats a map.
    pub fn sort_id(&mut self, sort: &Sort) -> u32 {
        if let Some(id) = self.sorts.iter().position(|s| s == sort) {
            return id as u32;
        }
        self.sorts.push(sort.clone());
        self.sorts.len() as u32 - 1
    }

    /// The sort behind `id`.
    pub fn sort(&self, id: u32) -> &Sort {
        &self.sorts[id as usize]
    }

    /// `action` with its peer, label and sort interned.
    pub fn intern_action(&mut self, action: &Action) -> CompactAction {
        CompactAction {
            direction: action.direction,
            peer: self.name_id(&action.peer),
            label: self.name_id(&action.label),
            sort: self.sort_id(&action.sort),
        }
    }

    /// The action `action`'s ids stand for.
    pub fn action(&self, action: CompactAction) -> Action {
        Action {
            direction: action.direction,
            peer: self.name(action.peer).clone(),
            label: self.name(action.label).clone(),
            sort: self.sort(action.sort).clone(),
        }
    }

    /// `fsm` with its actions interned: state `s` of the result is state
    /// `s` of `fsm`, with the same rows in the same order.
    pub fn intern(&mut self, fsm: &Fsm) -> CompactFsm {
        let mut offsets = Vec::with_capacity(fsm.len() + 1);
        offsets.push(0);
        let mut rows = Vec::with_capacity(fsm.transitions.iter().map(Vec::len).sum());
        for row in &fsm.transitions {
            for (action, target) in row {
                rows.push((self.intern_action(action), target.0 as u32));
            }
            offsets.push(u32::try_from(rows.len()).expect("fewer than 2³² transitions"));
        }
        CompactFsm {
            offsets,
            rows,
            initial: u32::try_from(fsm.initial.0).expect("fewer than 2³² states"),
        }
    }

    /// The [`Fsm`] of `role` that `machine` stands for, state for state
    /// and row for row; `machine` must have been numbered by `self`.
    pub fn resolve(&self, role: &Name, machine: &CompactFsm) -> Fsm {
        let transitions = (0..machine.len())
            .map(|state| {
                machine
                    .transitions(StateIndex(state))
                    .iter()
                    .map(|&(action, target)| (self.action(action), StateIndex(target as usize)))
                    .collect()
            })
            .collect();
        Fsm {
            role: role.clone(),
            transitions,
            initial: machine.initial(),
        }
    }
}

/// Converts a local type into its FSM: interns it into a [`Terms`]
/// arena, builds its machine there with [`Terms::machine`] and resolves
/// that.
///
/// Recursion variables become back edges; `μt.T` shares the state of its
/// body. Unguarded recursion (`μt.t`) is rejected.
pub fn from_local(role: &Name, local: &LocalType) -> Result<Fsm, FsmError> {
    let mut terms = Terms::default();
    let id = terms.intern_local(local);
    let mut machine = CompactFsm::default();
    terms.machine(id, &mut machine)?;
    Ok(terms.symbols().resolve(role, &machine))
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
    let peer = transitions[0].0.peer.clone();
    let mut branches = Vec::with_capacity(transitions.len());
    for (action, target) in transitions {
        branches.push(LocalBranch {
            label: action.label.clone(),
            sort: action.sort.clone(),
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
            // Interning keeps every state and row where it was.
            let mut symbols = Symbols::default();
            let machine = symbols.intern(&fsm);
            assert_eq!(symbols.resolve(&fsm.role, &machine), fsm, "{text}");
        }
    }

    #[test]
    fn compact_rows_follow_their_state() {
        let action = |label| CompactAction {
            direction: Direction::Send,
            peer: 0,
            label,
            sort: 0,
        };
        let mut machine = CompactFsm::default();
        assert!(machine.is_empty());
        for _ in 0..2 {
            let first = machine.add_state();
            let row = machine.add_transition(action(1), first);
            machine.add_transition(action(2), first);
            let second = machine.add_state();
            machine.set_target(row, second);
            machine.set_initial(first);
            assert_eq!((machine.len(), machine.initial()), (2, first));
            assert_eq!(
                machine.transitions(first),
                &[(action(1), 1), (action(2), 0)]
            );
            assert!(machine.transitions(second).is_empty());
            machine.clear();
            assert!(machine.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "is not a state")]
    fn compact_targets_must_be_states() {
        let mut machine = CompactFsm::default();
        let state = machine.add_state();
        machine.add_transition(
            CompactAction {
                direction: Direction::Receive,
                peer: 0,
                label: 0,
                sort: 0,
            },
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
