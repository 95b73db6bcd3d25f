//! The hash-consed arena of local-type terms, and the one builder of
//! their machines.
//!
//! [`Terms`] stores each distinct subterm once, as a [`Node`] whose
//! children are [`TermId`]s, and finds a node's id through one
//! open-addressing table of ids over the nodes, the way k-MC's visited
//! table finds a configuration. A choice is looked up from its fields,
//! its branches a borrowed slice. Peers, labels and recursion variables
//! are interned [`Name`]s and payload sorts [`Sort`]s, so a node is a few
//! words and hashing one touches no string.
//!
//! **The pool.** Every branch list of an arena lives in one pool, list
//! after list, and a choice node holds its list's range there
//! ([`Branches`], read with [`Terms::branches`]). A new choice appends
//! its branches to the pool; the pool only grows, so a range stays valid
//! for the arena's life. An arena is three buffers — nodes, pool and
//! table — however many nodes it holds: interning a node allocates only
//! when one of them grows, and dropping an arena frees three buffers,
//! not one per choice.
//!
//! **Machines.** [`Terms::machine`] builds a term's [`Fsm`] straight from
//! the arena, its actions made of the node's names and sorts as they are.
//! It is the only conversion from a local type to a machine:
//! [`fsm::from_local`](crate::fsm::from_local) interns the tree here and
//! runs it.
//!
//! **Identity.** Equal subterms share one id, so two ids are equal
//! exactly when their terms are structurally equal ([`LocalType`]'s
//! `==`). That is the printed form's identity with one refinement: a
//! custom sort spelled like a built-in one (`Sort::Custom("i32")` beside
//! `Sort::I32`) prints alike but interns apart, so ids tell terms apart
//! at least as finely as their text does, never more coarsely. The table
//! compares a node with every node whose hash it shares field by field —
//! direction, peer, and every label, sort and child — so a hash collision
//! never merges two nodes.
//!
//! **Cost.** A rewrite at depth *d* (the AMR optimiser's rules) interns
//! the O(*d*) nodes on its path — each ancestor rebuilt with one child id
//! replaced by [`Terms::with_child`] — and shares every other subterm,
//! and a rewrite that reproduces a term already seen adds no node at
//! all: deduplicating candidates is one id comparison. A node the arena
//! already holds costs one table lookup and no allocation:
//! [`Terms::with_child`] builds the rebuilt ancestor in a reused buffer,
//! [`Terms::single`] from a one-element slice, and [`Terms::choice`]
//! takes the caller's slice.
//!
//! ```
//! use theory::local::parse;
//! use theory::term::Terms;
//!
//! let mut terms = Terms::default();
//! let kernel = parse("rec x . s!ready . s?value . x").unwrap();
//! let id = terms.intern_local(&kernel);
//! let nodes = terms.node_count();
//! // The same term again is the same id, and nothing new is stored.
//! assert_eq!(terms.intern_local(&kernel), id);
//! assert_eq!(terms.node_count(), nodes);
//! assert_eq!(terms.to_local(id), kernel);
//! ```

use crate::fsm::{Action, Direction, Fsm, FsmError, StateIndex};
use crate::local::{LocalBranch, LocalType};
use crate::name::Name;
use crate::sort::Sort;

/// A term in a [`Terms`] arena. Within one arena, equal ids are equal
/// terms and vice versa.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TermId(u32);

impl TermId {
    /// The id's position in its arena: ids are dense, `0..node_count()`,
    /// so a `Vec` indexed by them is a map from terms.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One labelled continuation of a [`Node::Choice`]: label, payload sort,
/// continuation.
pub type Branch = (Name, Sort, TermId);

/// Where a choice's branch list sits in its arena's pool; read it with
/// [`Terms::branches`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Branches {
    start: u32,
    len: u32,
}

impl Branches {
    /// Number of branches.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// True for a choice with no branch.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// The list's range in the pool.
    fn range(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// One node of the arena: a [`LocalType`] constructor whose subterms are
/// ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Node {
    /// `end`.
    End,
    /// A recursion variable.
    Var(Name),
    /// `rec var . body`.
    Rec(Name, TermId),
    /// An internal (`send`) or external choice with `peer`.
    Choice {
        /// Internal choice (`peer!…`) when set, external (`peer?…`) when not.
        send: bool,
        /// The peer every branch talks to.
        peer: Name,
        /// The branches, in term order.
        branches: Branches,
    },
}

/// One FxHash step: `word` folded into `hash`.
fn step(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// The table's hash of a choice: its direction, names and children, one
/// step a word. Sorts are left out — nodes that differ only in a sort
/// are rare — and told apart by the table's comparison.
fn choice_hash(send: bool, peer: Name, branches: &[Branch]) -> u64 {
    let start = step(u64::from(send), u64::from(peer.id()));
    branches.iter().fold(start, |hash, &(label, _, child)| {
        step(step(hash, u64::from(label.id())), u64::from(child.0))
    })
}

/// True if `node`, whose branches are in `pool`, is the choice of
/// `branches` with `peer` in direction `send`: the table's comparison,
/// which reads direction, peer, and every label, sort and child, whatever
/// [`choice_hash`] leaves out.
fn same_choice(pool: &[Branch], node: &Node, send: bool, peer: Name, branches: &[Branch]) -> bool {
    matches!(*node, Node::Choice { send: s, peer: p, branches: b }
        if s == send && p == peer && pool[b.range()] == *branches)
}

/// A free slot of [`Terms::slots`]: no id is `u32::MAX`.
const EMPTY: u64 = u64::MAX;
/// The hash half of a slot.
const TAG: u64 = 0xFFFF_FFFF_0000_0000;

/// A hash-consed store of local-type terms; see the [module docs](self).
#[derive(Clone, Debug, Default)]
pub struct Terms {
    nodes: Vec<Node>,
    /// Every choice's branch list, in the order the choices were added.
    pool: Vec<Branch>,
    /// Open-addressing table over `nodes`, at most half full: the top
    /// half of a node's hash and its id per slot, or [`EMPTY`].
    slots: Vec<u64>,
    /// Branch lists being built: the node [`Terms::with_child`] looks up,
    /// or the choices [`Terms::intern_local`] has open, innermost last.
    scratch: Vec<Branch>,
}

impl Terms {
    /// The id of `node`, a leaf or a `rec`, adding it if the arena has
    /// not seen it. Choices are interned by [`Terms::choice`].
    fn intern(&mut self, node: Node) -> TermId {
        let hash = match node {
            Node::End => step(2, 0),
            Node::Var(var) => step(3, u64::from(var.id())),
            Node::Rec(var, body) => step(step(4, u64::from(var.id())), u64::from(body.0)),
            Node::Choice { .. } => unreachable!("a choice is interned from its fields"),
        };
        match self.find(hash, |_, old| *old == node) {
            Ok(id) => id,
            Err(slot) => self.add(slot, node),
        }
    }

    /// The id of the choice of `branches` with `peer`, internal when
    /// `send` is set, looked up from its fields: the branches are copied
    /// into the pool only when the node is new.
    pub fn choice(&mut self, send: bool, peer: Name, branches: &[Branch]) -> TermId {
        let same = |pool: &[Branch], old: &Node| same_choice(pool, old, send, peer, branches);
        match self.find(choice_hash(send, peer, branches), same) {
            Ok(id) => id,
            Err(slot) => {
                let start = self.pool.len();
                self.pool.extend_from_slice(branches);
                assert!(
                    u32::try_from(self.pool.len()).is_ok(),
                    "fewer than 2³² branches"
                );
                // Both fit: they are at most the pool's length.
                let branches = Branches {
                    start: start as u32,
                    len: branches.len() as u32,
                };
                self.add(
                    slot,
                    Node::Choice {
                        send,
                        peer,
                        branches,
                    },
                )
            }
        }
    }

    /// The id of the node hashed `hash` that `same` accepts (given the
    /// pool and a node), or the free slot to add it at with its tag. Makes
    /// room for one more node first.
    fn find(
        &mut self,
        hash: u64,
        same: impl Fn(&[Branch], &Node) -> bool,
    ) -> Result<TermId, (usize, u64)> {
        if (self.nodes.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let tag = hash & TAG;
        let mask = self.slots.len() - 1;
        let mut slot = self.home(tag);
        while self.slots[slot] != EMPTY {
            let entry = self.slots[slot];
            let id = TermId((entry & !TAG) as u32);
            if entry & TAG == tag && same(&self.pool, self.node(id)) {
                return Ok(id);
            }
            slot = (slot + 1) & mask;
        }
        Err((slot, tag))
    }

    /// Adds `node` at the free `slot` [`Terms::find`] gave.
    fn add(&mut self, (slot, tag): (usize, u64), node: Node) -> TermId {
        let id = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&id| id != u32::MAX)
            .expect("fewer than 2³² − 1 terms");
        self.slots[slot] = tag | u64::from(id);
        self.nodes.push(node);
        TermId(id)
    }

    /// First slot probed for a node tagged `tag`: the tag's top
    /// `log2(slots)` bits.
    fn home(&self, tag: u64) -> usize {
        (tag >> (u64::BITS - self.slots.len().trailing_zeros())) as usize
    }

    /// Doubles the table (64 slots at first), re-placing every entry from
    /// its tag.
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(64);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; slots]);
        for entry in old.into_iter().filter(|&entry| entry != EMPTY) {
            let mut slot = self.home(entry & TAG);
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & (slots - 1);
            }
            self.slots[slot] = entry;
        }
    }

    /// The node behind `id`.
    pub fn node(&self, id: TermId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The branches of a choice node of this arena, in term order.
    pub fn branches(&self, branches: Branches) -> &[Branch] {
        &self.pool[branches.range()]
    }

    /// Number of distinct terms interned so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The single-branch choice `peer!label(sort).continuation` (`send`)
    /// or `peer?label(sort).continuation`.
    pub fn single(&mut self, send: bool, peer: Name, branch: Branch) -> TermId {
        self.choice(send, peer, &[branch])
    }

    /// `parent` with its `index`-th child (a `rec` body, or a branch's
    /// continuation) replaced by `child`; every other child is shared.
    ///
    /// # Panics
    ///
    /// When `parent` is a leaf (`end` or a variable), or a choice with no
    /// `index`-th branch.
    pub fn with_child(&mut self, parent: TermId, index: usize, child: TermId) -> TermId {
        if let Node::Rec(var, _) = *self.node(parent) {
            return self.intern(Node::Rec(var, child));
        }
        let Node::Choice {
            send,
            peer,
            branches,
        } = *self.node(parent)
        else {
            unreachable!("a leaf has no children")
        };
        // Most choices have one branch, rebuilt on the stack.
        if let [(label, sort, _)] = *self.branches(branches) {
            assert_eq!(index, 0, "no branch {index}");
            return self.choice(send, peer, &[(label, sort, child)]);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend_from_slice(self.branches(branches));
        scratch[index].2 = child;
        let id = self.choice(send, peer, &scratch);
        self.scratch = scratch;
        id
    }

    /// The `index`-th child of `id` — a `rec` body or a branch's
    /// continuation — if it has one.
    pub fn child(&self, id: TermId, index: usize) -> Option<TermId> {
        match self.node(id) {
            Node::End | Node::Var(_) => None,
            Node::Rec(_, body) => (index == 0).then_some(*body),
            Node::Choice { branches, .. } => {
                self.branches(*branches).get(index).map(|branch| branch.2)
            }
        }
    }

    /// Interns `local` and every subterm of it.
    pub fn intern_local(&mut self, local: &LocalType) -> TermId {
        match local {
            LocalType::End => self.intern(Node::End),
            LocalType::Var(var) => self.intern(Node::Var(*var)),
            LocalType::Rec { var, body } => {
                let body = self.intern_local(body);
                self.intern(Node::Rec(*var, body))
            }
            LocalType::Select { peer, branches } | LocalType::Branch { peer, branches } => {
                // This choice's branches go on top of `scratch`, above those
                // of the choices enclosing it, once each continuation is in.
                let open = self.scratch.len();
                for branch in branches {
                    let continuation = self.intern_local(&branch.continuation);
                    self.scratch.push((branch.label, branch.sort, continuation));
                }
                let scratch = std::mem::take(&mut self.scratch);
                let send = matches!(local, LocalType::Select { .. });
                let id = self.choice(send, *peer, &scratch[open..]);
                self.scratch = scratch;
                self.scratch.truncate(open);
                id
            }
        }
    }

    /// Materialises `id` as a [`LocalType`] tree.
    pub fn to_local(&self, id: TermId) -> LocalType {
        match self.node(id) {
            Node::End => LocalType::End,
            Node::Var(var) => LocalType::Var(*var),
            Node::Rec(var, body) => LocalType::Rec {
                var: *var,
                body: Box::new(self.to_local(*body)),
            },
            Node::Choice {
                send,
                peer,
                branches,
            } => {
                let peer = *peer;
                let branches = self
                    .branches(*branches)
                    .iter()
                    .map(|&(label, sort, continuation)| LocalBranch {
                        label,
                        sort,
                        continuation: self.to_local(continuation),
                    })
                    .collect();
                if *send {
                    LocalType::Select { peer, branches }
                } else {
                    LocalType::Branch { peer, branches }
                }
            }
        }
    }

    /// Rebuilds `machine` as the machine of `id`, keeping its role.
    ///
    /// States are subterms, numbered in the order a depth-first walk
    /// meets them; a recursion variable becomes a back edge, and `μt.T`
    /// shares the state of its body. Fails on an unbound variable or
    /// unguarded recursion (`μt.t`).
    pub fn machine(&self, id: TermId, machine: &mut Fsm) -> Result<(), FsmError> {
        machine.clear();
        let mut build = MachineBuild {
            terms: self,
            machine,
        };
        let initial = build.state(id, None, 0)?;
        build.machine.set_initial(initial);
        Ok(())
    }
}

/// A bound recursion variable and its state, with the bindings around it:
/// the environment of [`MachineBuild`], innermost first, kept on the walk's
/// call stack so a build allocates nothing of its own.
struct Binding<'a> {
    var: Name,
    state: StateIndex,
    /// Bindings around this one.
    depth: usize,
    outer: Option<&'a Binding<'a>>,
}

/// The number of bindings in `env`.
fn depth(env: Option<&Binding<'_>>) -> usize {
    env.map_or(0, |binding| binding.depth + 1)
}

/// The walk behind [`Terms::machine`]. A state gets all its transitions
/// from one choice, found before any later state is made: its
/// transitions are added at once, each pointing back at it, and
/// retargeted as their continuations are built.
struct MachineBuild<'a> {
    terms: &'a Terms,
    machine: &'a mut Fsm,
}

impl MachineBuild<'_> {
    /// The state `var` names in `env`. `guard` is the depth of the
    /// environment at the last action on the path: a binding at or above
    /// it was made with no action in between, so reaching it is unguarded
    /// recursion.
    fn var(var: Name, env: Option<&Binding<'_>>, guard: usize) -> Result<StateIndex, FsmError> {
        let mut at = env;
        while let Some(binding) = at {
            if binding.var == var {
                return if binding.depth >= guard {
                    Err(FsmError::UnguardedRecursion(var))
                } else {
                    Ok(binding.state)
                };
            }
            at = binding.outer;
        }
        Err(FsmError::UnboundVariable(var))
    }

    /// A fresh state for `id`, or the state a variable names.
    fn state(
        &mut self,
        id: TermId,
        env: Option<&Binding<'_>>,
        guard: usize,
    ) -> Result<StateIndex, FsmError> {
        match self.terms.node(id) {
            Node::End => Ok(self.machine.add_state()),
            Node::Var(var) => Self::var(*var, env, guard),
            Node::Rec(..) | Node::Choice { .. } => {
                let state = self.machine.add_state();
                self.fill(state, id, env, guard)
            }
        }
    }

    /// Gives `state`, the newest state, the transitions of `id`; `μt.T`
    /// shares the state of its body, and `μt.t'` leaves it terminal and
    /// unreachable and names the state of `t'`.
    fn fill(
        &mut self,
        state: StateIndex,
        id: TermId,
        env: Option<&Binding<'_>>,
        guard: usize,
    ) -> Result<StateIndex, FsmError> {
        let terms = self.terms;
        match terms.node(id) {
            Node::End => Ok(state),
            Node::Var(var) => Self::var(*var, env, guard),
            Node::Rec(var, body) => {
                let binding = Binding {
                    var: *var,
                    state,
                    depth: depth(env),
                    outer: env,
                };
                self.fill(state, *body, Some(&binding), guard)
            }
            Node::Choice {
                send,
                peer,
                branches,
            } => {
                let direction = if *send {
                    Direction::Send
                } else {
                    Direction::Receive
                };
                let branches = terms.branches(*branches);
                // Row of the first branch; branch `i` is `first + i`.
                let mut first = 0;
                for (index, &(label, sort, _)) in branches.iter().enumerate() {
                    let action = Action {
                        direction,
                        peer: *peer,
                        label,
                        sort,
                    };
                    first = self.machine.add_transition(action, state) - index;
                }
                for (index, &(_, _, continuation)) in branches.iter().enumerate() {
                    // Recursion below an action is guarded again.
                    let target = self.state(continuation, env, depth(env))?;
                    self.machine.set_target(first + index, target);
                }
                Ok(state)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fsm::{self, Fsm};
    use crate::local::parse;
    use proptest::prelude::*;

    /// The tree walk that built every machine before [`Terms::machine`]
    /// did, kept as the oracle for it: `fsm::from_local` as it was, on
    /// [`LocalType`] trees with a name-keyed environment.
    mod reference {
        use std::collections::HashMap;

        use crate::fsm::{Action, Direction, Fsm, FsmBuilder, FsmError, StateIndex};
        use crate::local::{LocalBranch, LocalType};
        use crate::name::Name;

        /// Converts a local type into its FSM.
        ///
        /// Recursion variables become back edges; `μt.T` shares the state of its
        /// body. Unguarded recursion (`μt.t`) is rejected.
        pub fn from_local(role: &Name, local: &LocalType) -> Result<Fsm, FsmError> {
            let mut builder = FsmBuilder::new(*role);
            let mut env: HashMap<Name, StateIndex> = HashMap::new();
            let initial = build_state(&mut builder, local, &mut env, &mut Vec::new())?;
            builder.build(initial)
        }

        fn build_state(
            builder: &mut FsmBuilder,
            local: &LocalType,
            env: &mut HashMap<Name, StateIndex>,
            pending: &mut Vec<Name>,
        ) -> Result<StateIndex, FsmError> {
            match local {
                LocalType::End => Ok(builder.add_state()),
                LocalType::Var(var) => {
                    if pending.contains(var) {
                        return Err(FsmError::UnguardedRecursion(*var));
                    }
                    env.get(var).copied().ok_or(FsmError::UnboundVariable(*var))
                }
                LocalType::Rec { var, body } => {
                    // Reserve the state up front so back edges can point at it.
                    let state = builder.add_state();
                    let shadowed = env.insert(*var, state);
                    pending.push(*var);
                    let body_state = build_branches_into(builder, state, body, env, pending)?;
                    pending.pop();
                    match shadowed {
                        Some(previous) => {
                            env.insert(*var, previous);
                        }
                        None => {
                            env.remove(var);
                        }
                    }
                    Ok(body_state)
                }
                LocalType::Select { .. } | LocalType::Branch { .. } => {
                    let state = builder.add_state();
                    build_branches_into(builder, state, local, env, pending)
                }
            }
        }

        /// Populates `state` with the transitions of `local`, which must be a
        /// choice, a nested `rec`, a variable, or `end` (merged into `state`).
        fn build_branches_into(
            builder: &mut FsmBuilder,
            state: StateIndex,
            local: &LocalType,
            env: &mut HashMap<Name, StateIndex>,
            pending: &mut Vec<Name>,
        ) -> Result<StateIndex, FsmError> {
            match local {
                // `μt.end` and immediate `end`: the reserved state is terminal.
                LocalType::End => Ok(state),
                LocalType::Var(var) => {
                    if pending.contains(var) {
                        return Err(FsmError::UnguardedRecursion(*var));
                    }
                    // `μt.t'`: alias to the outer variable's state; the reserved
                    // state is left unreachable and `t` maps to the alias target.
                    env.get(var).copied().ok_or(FsmError::UnboundVariable(*var))
                }
                LocalType::Rec { var, body } => {
                    let shadowed = env.insert(*var, state);
                    pending.push(*var);
                    let result = build_branches_into(builder, state, body, env, pending);
                    pending.pop();
                    match shadowed {
                        Some(previous) => {
                            env.insert(*var, previous);
                        }
                        None => {
                            env.remove(var);
                        }
                    }
                    result
                }
                LocalType::Select { peer, branches } => {
                    add_choice(builder, state, peer, Direction::Send, branches, env)?;
                    Ok(state)
                }
                LocalType::Branch { peer, branches } => {
                    add_choice(builder, state, peer, Direction::Receive, branches, env)?;
                    Ok(state)
                }
            }
        }

        fn add_choice(
            builder: &mut FsmBuilder,
            state: StateIndex,
            peer: &Name,
            direction: Direction,
            branches: &[LocalBranch],
            env: &mut HashMap<Name, StateIndex>,
        ) -> Result<(), FsmError> {
            for branch in branches {
                // Recursion below an action is guarded again: fresh pending set.
                let target = build_state(builder, &branch.continuation, env, &mut Vec::new())?;
                builder.add_transition(
                    state,
                    Action {
                        direction,
                        peer: *peer,
                        label: branch.label,
                        sort: branch.sort,
                    },
                    target,
                );
            }
            Ok(())
        }
    }

    fn intern(terms: &mut Terms, text: &str) -> TermId {
        terms.intern_local(&parse(text).unwrap())
    }

    /// `local`'s machine against the tree walk's machine of the
    /// materialised term: the same machine — the same states in the same
    /// order with the same rows — or the same error.
    fn converts_as_from_local(local: &LocalType) -> Result<(), FsmError> {
        let mut terms = Terms::default();
        let id = terms.intern_local(local);
        let role = "r".into();
        let expected = reference::from_local(&role, &terms.to_local(id));
        let mut machine = Fsm::new(role);
        match (terms.machine(id, &mut machine), expected) {
            (Ok(()), Ok(fsm)) => {
                assert_eq!(machine, fsm, "`{local}`");
                Ok(())
            }
            (Err(ours), Err(theirs)) => {
                assert_eq!(ours, theirs, "`{local}`");
                Err(ours)
            }
            (ours, theirs) => panic!("`{local}`: {ours:?} where the tree walk gives {theirs:?}"),
        }
    }

    /// States of `fsm` reachable from its initial state.
    fn reachable(fsm: &Fsm) -> usize {
        let mut seen = vec![false; fsm.len()];
        let mut stack = vec![fsm.initial()];
        while let Some(state) = stack.pop() {
            if !std::mem::replace(&mut seen[state.0], true) {
                stack.extend(fsm.transitions(state).iter().map(|&(_, target)| target));
            }
        }
        seen.into_iter().filter(|&seen| seen).count()
    }

    /// `from_local(to_local(from_local(t)))` is `from_local(t)`, or the
    /// same error. An alias `μt.t'` leaves a state no transition reaches,
    /// which `to_local` cannot see: then the round trip is the machine
    /// without it, and a second round trip changes nothing.
    fn round_trips(local: &LocalType) {
        let role = "r".into();
        let round_trip =
            |fsm: &Fsm| fsm::from_local(&role, &fsm::to_local(fsm).expect("directed choices"));
        let once = fsm::from_local(&role, local);
        let twice = once.clone().and_then(|fsm| round_trip(&fsm));
        match (&once, &twice) {
            (Ok(once), Ok(twice)) if reachable(once) < once.len() => {
                assert_eq!(twice.len(), reachable(once), "`{local}`");
                assert_eq!(&round_trip(twice).unwrap(), twice, "`{local}`");
            }
            _ => assert_eq!(twice, once, "`{local}`"),
        }
    }

    /// Terms with binders: `rec`, shadowed and unbound variables, `μt.t'`
    /// aliases and unguarded recursion all occur.
    fn binder_local_type() -> impl Strategy<Value = LocalType> {
        let var = || proptest::sample::select(vec!["x", "y"]);
        let leaf = prop_oneof![
            Just(LocalType::End),
            var().prop_map(|var| LocalType::Var(var.into())),
        ];
        leaf.prop_recursive(5, 32, 3, move |inner| {
            let branch = (
                proptest::sample::select(vec!["a", "b", "c"]),
                proptest::sample::select(vec![Sort::Unit, Sort::I32]),
                inner.clone(),
            )
                .prop_map(|(label, sort, continuation)| LocalBranch {
                    label: label.into(),
                    sort,
                    continuation,
                });
            let choice = (
                proptest::bool::ANY,
                proptest::sample::select(vec!["p", "q"]),
                proptest::collection::vec(branch, 1..3),
            )
                .prop_map(|(send, peer, mut branches)| {
                    branches.sort_by_key(|x| x.label);
                    branches.dedup_by(|x, y| x.label == y.label);
                    let peer = peer.into();
                    if send {
                        LocalType::Select { peer, branches }
                    } else {
                        LocalType::Branch { peer, branches }
                    }
                });
            prop_oneof![
                (var(), inner).prop_map(|(var, body)| LocalType::rec(var, body)),
                choice,
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn random_terms_convert_as_from_local(local in binder_local_type()) {
            let _ = converts_as_from_local(&local);
        }

        #[test]
        fn random_terms_round_trip_through_to_local(local in binder_local_type()) {
            round_trips(&local);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A thousand random terms in one arena, so its table grows
        /// several times: each term interns again to its id and reads
        /// back as itself, and each node rebuilt around one of its own
        /// children is that node; none of it adds a node.
        #[test]
        fn one_arena_finds_every_node_again(
            locals in proptest::collection::vec(binder_local_type(), 1000)
        ) {
            let mut terms = Terms::default();
            let ids: Vec<TermId> = locals.iter().map(|local| terms.intern_local(local)).collect();
            let count = terms.node_count();
            // Past 256 nodes the table has grown from 64 slots to 1 024.
            prop_assert!(count > 256, "{count} nodes");
            for (local, &id) in locals.iter().zip(&ids) {
                prop_assert_eq!(terms.intern_local(local), id);
                prop_assert_eq!(&terms.to_local(id), local);
            }
            for parent in (0..count).map(|index| TermId(index as u32)) {
                let mut index = 0;
                while let Some(child) = terms.child(parent, index) {
                    prop_assert_eq!(terms.with_child(parent, index, child), parent);
                    index += 1;
                }
            }
            prop_assert_eq!(terms.node_count(), count, "nothing new was interned");
        }
    }

    #[test]
    fn binders_convert_as_from_local() {
        for text in [
            "rec x . p!a . rec y . x",
            "rec x . rec y . +{ p!a . x, p!b . y, p!c . end }",
            "+{ p!a(i32) . rec x . q?b . x, p!c . rec x . q?d . rec x . p!e . x }",
            "rec x . p!a . rec y . &{ q?b . x, q?c . rec x . p!d . y }",
        ] {
            assert!(
                converts_as_from_local(&parse(text).unwrap()).is_ok(),
                "{text}"
            );
        }
        // `μy.x` is an alias: `y`'s state is left terminal and unreachable.
        let mut terms = Terms::default();
        let id = intern(&mut terms, "rec x . p!a . rec y . x");
        let mut alias = Fsm::new("r");
        terms.machine(id, &mut alias).unwrap();
        assert_eq!(alias.len(), 2);
        assert_eq!(alias.transitions(alias.initial())[0].1, StateIndex(0));
        assert!(alias.transitions(StateIndex(1)).is_empty());
    }

    #[test]
    fn unbound_and_unguarded_recursion_are_rejected() {
        let unguarded = |var: &str| Err(FsmError::UnguardedRecursion(var.into()));
        for (local, error) in [
            (
                LocalType::Var("x".into()),
                Err(FsmError::UnboundVariable("x".into())),
            ),
            (
                LocalType::send("p", "a", Sort::Unit, LocalType::Var("y".into())),
                Err(FsmError::UnboundVariable("y".into())),
            ),
            (parse("rec x . x").unwrap(), unguarded("x")),
            (parse("rec x . rec y . x").unwrap(), unguarded("x")),
            (parse("rec x . p!a . rec x . x").unwrap(), unguarded("x")),
        ] {
            assert_eq!(converts_as_from_local(&local), error, "`{local}`");
        }
    }

    #[test]
    fn interning_a_term_twice_gives_one_id() {
        let mut terms = Terms::default();
        let text = "rec x . +{ q!a(i32) . p?b . x, q!c . end }";
        let id = intern(&mut terms, text);
        let count = terms.node_count();
        assert_eq!(intern(&mut terms, text), id);
        assert_eq!(terms.node_count(), count, "nothing new was interned");
        assert_eq!(terms.to_local(id), parse(text).unwrap());
    }

    #[test]
    fn direction_and_sort_are_part_of_the_identity() {
        let mut terms = Terms::default();
        let ids = [
            intern(&mut terms, "p!a(i32).end"),
            intern(&mut terms, "p?a(i32).end"),
            intern(&mut terms, "p!a.end"),
        ];
        assert_ne!(ids[0], ids[1]);
        assert_ne!(ids[0], ids[2]);
        assert_ne!(ids[1], ids[2]);
    }

    #[test]
    fn choices_differing_in_one_field_are_not_the_same() {
        let (p, q) = (Name::new("p"), Name::new("q"));
        let (a, b) = (Name::new("a"), Name::new("b"));
        let branches = [(a, Sort::I32, TermId(0)), (b, Sort::Unit, TermId(1))];
        let node = Node::Choice {
            send: true,
            peer: p,
            branches: Branches { start: 1, len: 2 },
        };
        // The node's branches sit in the pool after another list's.
        let pool = [(b, Sort::Unit, TermId(0)), branches[0], branches[1]];
        let same_choice = |node: &Node, send, peer, branches: &[Branch]| {
            same_choice(&pool, node, send, peer, branches)
        };
        assert!(same_choice(&node, true, p, &branches));

        let with = |index: usize, branch: Branch| {
            let mut changed = branches;
            changed[index] = branch;
            changed
        };
        assert!(!same_choice(&node, false, p, &branches), "direction");
        assert!(!same_choice(&node, true, q, &branches), "peer");
        let label = with(1, (a, Sort::Unit, TermId(1)));
        assert!(!same_choice(&node, true, p, &label), "label");
        let sort = with(0, (a, Sort::U32, TermId(0)));
        assert!(!same_choice(&node, true, p, &sort), "sort");
        let child = with(1, (b, Sort::Unit, TermId(0)));
        assert!(!same_choice(&node, true, p, &child), "child");
        assert!(!same_choice(&node, true, p, &branches[..1]), "branch count");
        assert!(!same_choice(&Node::End, true, p, &branches), "not a choice");
    }

    #[test]
    fn equal_subterms_are_shared() {
        let mut terms = Terms::default();
        intern(&mut terms, "+{ p!a . q?b . end, p!c . q?b . end }");
        // `end`, `q?b.end` once, and the choice.
        assert_eq!(terms.node_count(), 3);
    }
}
