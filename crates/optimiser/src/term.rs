//! The hash-consed term arena the candidate search runs on.
//!
//! [`Terms`] stores each distinct subterm once, as a `Node` whose
//! children are [`TermId`]s, and interns every new node through one map
//! from node to id. Peers, labels and recursion variables are interned as
//! `Sym`s and payload sorts as `SortId`s, so a node is a few words and
//! hashing one touches no string.
//!
//! **Identity.** Equal subterms share one id, so two ids are equal
//! exactly when their terms are structurally equal ([`LocalType`]'s
//! `==`). That is the printed form's identity with one refinement: a
//! custom sort spelled like a built-in one (`Sort::Custom("i32")` beside
//! `Sort::I32`) prints alike but interns apart, so ids tell terms apart
//! at least as finely as their text does, never more coarsely.
//!
//! **Cost.** A rewrite at depth *d* interns the O(*d*) nodes on its path —
//! each ancestor rebuilt with one child id replaced — and shares every
//! other subterm, and a rewrite that reproduces a term already seen adds
//! no node at all: deduplicating candidates is one id comparison. An
//! arena lives for one [`optimise`](crate::optimise) call; nothing is
//! kept across calls.
//!
//! ```
//! use optimiser::term::Terms;
//! use theory::local::parse;
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

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use theory::hash::BuildWordHasher;
use theory::local::{LocalBranch, LocalType};
use theory::name::Name;
use theory::sort::Sort;

/// A term in a [`Terms`] arena. Within one arena, equal ids are equal
/// terms and vice versa.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TermId(u32);

/// An interned peer, label or recursion variable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Sym(u32);

/// An interned payload sort.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct SortId(u32);

/// One labelled continuation of a [`Node::Choice`]: label, payload sort,
/// continuation.
pub(crate) type Branch = (Sym, SortId, TermId);

/// One node of the arena: a [`LocalType`] constructor whose subterms are
/// ids.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Node {
    /// `end`.
    End,
    /// A recursion variable.
    Var(Sym),
    /// `rec var . body`.
    Rec(Sym, TermId),
    /// An internal (`send`) or external choice with `peer`.
    Choice {
        /// Internal choice (`peer!…`) when set, external (`peer?…`) when not.
        send: bool,
        /// The peer every branch talks to.
        peer: Sym,
        /// The branches, in term order.
        branches: Box<[Branch]>,
    },
}

/// A hash-consed store of local-type terms; see the [module docs](self).
#[derive(Default)]
pub struct Terms {
    nodes: Vec<Node>,
    ids: HashMap<Node, TermId, BuildWordHasher>,
    names: Vec<Name>,
    syms: HashMap<Name, Sym>,
    sorts: Vec<Sort>,
}

impl Terms {
    /// The id of `node`, adding it if the arena has not seen it.
    pub(crate) fn intern(&mut self, node: Node) -> TermId {
        match self.ids.entry(node) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let id = TermId(u32::try_from(self.nodes.len()).expect("fewer than 2³² terms"));
                self.nodes.push(entry.key().clone());
                *entry.insert(id)
            }
        }
    }

    /// The node behind `id`.
    pub(crate) fn node(&self, id: TermId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Number of distinct terms interned so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The symbol of `name`, adding it if new.
    pub(crate) fn sym(&mut self, name: &Name) -> Sym {
        if let Some(&sym) = self.syms.get(name) {
            return sym;
        }
        let sym = Sym(self.names.len() as u32);
        self.names.push(name.clone());
        self.syms.insert(name.clone(), sym);
        sym
    }

    /// The name behind `sym`.
    pub(crate) fn name(&self, sym: Sym) -> &Name {
        &self.names[sym.0 as usize]
    }

    /// The id of `sort`, adding it if new. A protocol uses a handful of
    /// sorts, so a scan beats a map.
    pub(crate) fn sort_id(&mut self, sort: &Sort) -> SortId {
        let index = self
            .sorts
            .iter()
            .position(|s| s == sort)
            .unwrap_or_else(|| {
                self.sorts.push(sort.clone());
                self.sorts.len() - 1
            });
        SortId(index as u32)
    }

    /// The sort behind `id`.
    pub(crate) fn sort(&self, id: SortId) -> &Sort {
        &self.sorts[id.0 as usize]
    }

    /// The single-branch choice `peer!label(sort).continuation` (`send`)
    /// or `peer?label(sort).continuation`.
    pub(crate) fn single(&mut self, send: bool, peer: Sym, branch: Branch) -> TermId {
        self.intern(Node::Choice {
            send,
            peer,
            branches: Box::new([branch]),
        })
    }

    /// `parent` with its `index`-th child (a `rec` body, or a branch's
    /// continuation) replaced by `child`; every other child is shared.
    pub(crate) fn with_child(&mut self, parent: TermId, index: usize, child: TermId) -> TermId {
        let node = match self.node(parent) {
            Node::Rec(var, _) => Node::Rec(*var, child),
            Node::Choice {
                send,
                peer,
                branches,
            } => {
                let mut branches = branches.clone();
                branches[index].2 = child;
                Node::Choice {
                    send: *send,
                    peer: *peer,
                    branches,
                }
            }
            Node::End | Node::Var(_) => unreachable!("a leaf has no children"),
        };
        self.intern(node)
    }

    /// The `index`-th child of `id` — a `rec` body or a branch's
    /// continuation — if it has one.
    pub(crate) fn child(&self, id: TermId, index: usize) -> Option<TermId> {
        match self.node(id) {
            Node::End | Node::Var(_) => None,
            Node::Rec(_, body) => (index == 0).then_some(*body),
            Node::Choice { branches, .. } => branches.get(index).map(|branch| branch.2),
        }
    }

    /// Interns `local` and every subterm of it.
    pub fn intern_local(&mut self, local: &LocalType) -> TermId {
        let node = match local {
            LocalType::End => Node::End,
            LocalType::Var(var) => Node::Var(self.sym(var)),
            LocalType::Rec { var, body } => {
                let body = self.intern_local(body);
                Node::Rec(self.sym(var), body)
            }
            LocalType::Select { peer, branches } | LocalType::Branch { peer, branches } => {
                let branches = branches
                    .iter()
                    .map(|b| {
                        let continuation = self.intern_local(&b.continuation);
                        (self.sym(&b.label), self.sort_id(&b.sort), continuation)
                    })
                    .collect();
                Node::Choice {
                    send: matches!(local, LocalType::Select { .. }),
                    peer: self.sym(peer),
                    branches,
                }
            }
        };
        self.intern(node)
    }

    /// Materialises `id` as a [`LocalType`] tree.
    pub fn to_local(&self, id: TermId) -> LocalType {
        match self.node(id) {
            Node::End => LocalType::End,
            Node::Var(var) => LocalType::Var(self.name(*var).clone()),
            Node::Rec(var, body) => LocalType::Rec {
                var: self.name(*var).clone(),
                body: Box::new(self.to_local(*body)),
            },
            Node::Choice {
                send,
                peer,
                branches,
            } => {
                let peer = self.name(*peer).clone();
                let branches = branches
                    .iter()
                    .map(|&(label, sort, continuation)| LocalBranch {
                        label: self.name(label).clone(),
                        sort: self.sort(sort).clone(),
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use theory::local::parse;

    fn intern(terms: &mut Terms, text: &str) -> TermId {
        terms.intern_local(&parse(text).unwrap())
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
    fn equal_subterms_are_shared() {
        let mut terms = Terms::default();
        intern(&mut terms, "+{ p!a . q?b . end, p!c . q?b . end }");
        // `end`, `q?b.end` once, and the choice.
        assert_eq!(terms.node_count(), 3);
    }
}
