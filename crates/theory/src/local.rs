//! Local session types `T` (paper Definition 1):
//!
//! ```text
//! T ::= end | ⊕ᵢ p!ℓᵢ(Sᵢ).Tᵢ | &ᵢ p?ℓᵢ(Sᵢ).Tᵢ | μt.T | t
//! ```
//!
//! Also provides a small textual parser ([`parse`]) used by tests, the CLI
//! tools and the benchmark generators:
//!
//! ```text
//! T := end | X | rec X . T
//!    | p!l(S).T | p?l(S).T          single send / receive
//!    | +{ p!l1(S).T1, p!l2.T2 }     internal choice
//!    | &{ p?l1.T1, p?l2.T2 }        external choice
//! ```

use std::collections::BTreeSet;
use std::fmt;

use crate::name::Name;
use crate::sort::Sort;

/// One labelled continuation of a choice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalBranch {
    /// Message label.
    pub label: Name,
    /// Payload sort.
    pub sort: Sort,
    /// Continuation type.
    pub continuation: LocalType,
}

/// A session type from the point of view of a single participant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LocalType {
    /// Successful termination.
    End,
    /// Internal choice `⊕ᵢ peer!ℓᵢ(Sᵢ).Tᵢ`: this participant picks a label
    /// and sends it to `peer`.
    Select {
        /// The receiving peer.
        peer: Name,
        /// Available labels; must be pairwise distinct.
        branches: Vec<LocalBranch>,
    },
    /// External choice `&ᵢ peer?ℓᵢ(Sᵢ).Tᵢ`: this participant receives one
    /// of the labels from `peer`.
    Branch {
        /// The sending peer.
        peer: Name,
        /// Accepted labels; must be pairwise distinct.
        branches: Vec<LocalBranch>,
    },
    /// Recursive type `μt.T`.
    Rec {
        /// Bound recursion variable.
        var: Name,
        /// Body in which `var` may occur.
        body: Box<LocalType>,
    },
    /// Occurrence of a recursion variable.
    Var(Name),
}

impl LocalType {
    /// Single send `peer!label(sort).continuation`.
    pub fn send(
        peer: impl Into<Name>,
        label: impl Into<Name>,
        sort: Sort,
        continuation: LocalType,
    ) -> Self {
        LocalType::Select {
            peer: peer.into(),
            branches: vec![LocalBranch {
                label: label.into(),
                sort,
                continuation,
            }],
        }
    }

    /// Single receive `peer?label(sort).continuation`.
    pub fn receive(
        peer: impl Into<Name>,
        label: impl Into<Name>,
        sort: Sort,
        continuation: LocalType,
    ) -> Self {
        LocalType::Branch {
            peer: peer.into(),
            branches: vec![LocalBranch {
                label: label.into(),
                sort,
                continuation,
            }],
        }
    }

    /// Internal choice towards `peer`.
    pub fn select(
        peer: impl Into<Name>,
        branches: impl IntoIterator<Item = (Name, Sort, LocalType)>,
    ) -> Self {
        LocalType::Select {
            peer: peer.into(),
            branches: collect_branches(branches),
        }
    }

    /// External choice from `peer`.
    pub fn branch(
        peer: impl Into<Name>,
        branches: impl IntoIterator<Item = (Name, Sort, LocalType)>,
    ) -> Self {
        LocalType::Branch {
            peer: peer.into(),
            branches: collect_branches(branches),
        }
    }

    /// `μvar.body`.
    pub fn rec(var: impl Into<Name>, body: LocalType) -> Self {
        LocalType::Rec {
            var: var.into(),
            body: Box::new(body),
        }
    }

    /// All peers this participant talks to.
    pub fn peers(&self) -> BTreeSet<Name> {
        let mut set = BTreeSet::new();
        self.collect_peers(&mut set);
        set
    }

    fn collect_peers(&self, set: &mut BTreeSet<Name>) {
        match self {
            LocalType::End | LocalType::Var(_) => {}
            LocalType::Select { peer, branches } | LocalType::Branch { peer, branches } => {
                set.insert(*peer);
                for branch in branches {
                    branch.continuation.collect_peers(set);
                }
            }
            LocalType::Rec { body, .. } => body.collect_peers(set),
        }
    }

    /// Whether the recursion variable `var` occurs free in this type.
    pub fn uses_var(&self, var: &Name) -> bool {
        match self {
            LocalType::End => false,
            LocalType::Var(v) => v == var,
            LocalType::Rec { var: bound, body } => bound != var && body.uses_var(var),
            LocalType::Select { branches, .. } | LocalType::Branch { branches, .. } => {
                branches.iter().any(|b| b.continuation.uses_var(var))
            }
        }
    }

    /// Unfolds one level of recursion: `μt.T ↦ T[μt.T/t]`; other forms are
    /// returned unchanged.
    pub fn unfold(&self) -> LocalType {
        match self {
            LocalType::Rec { var, body } => body.substitute(var, self),
            other => other.clone(),
        }
    }

    /// Capture-avoiding substitution `self[replacement/var]`.
    pub fn substitute(&self, var: &Name, replacement: &LocalType) -> LocalType {
        match self {
            LocalType::End => LocalType::End,
            LocalType::Var(v) => {
                if v == var {
                    replacement.clone()
                } else {
                    LocalType::Var(*v)
                }
            }
            LocalType::Rec { var: bound, body } => {
                if bound == var {
                    // `var` is shadowed; nothing to substitute below.
                    self.clone()
                } else {
                    LocalType::Rec {
                        var: *bound,
                        body: Box::new(body.substitute(var, replacement)),
                    }
                }
            }
            LocalType::Select { peer, branches } => LocalType::Select {
                peer: *peer,
                branches: substitute_branches(branches, var, replacement),
            },
            LocalType::Branch { peer, branches } => LocalType::Branch {
                peer: *peer,
                branches: substitute_branches(branches, var, replacement),
            },
        }
    }
}

fn collect_branches(
    branches: impl IntoIterator<Item = (Name, Sort, LocalType)>,
) -> Vec<LocalBranch> {
    branches
        .into_iter()
        .map(|(label, sort, continuation)| LocalBranch {
            label,
            sort,
            continuation,
        })
        .collect()
}

fn substitute_branches(
    branches: &[LocalBranch],
    var: &Name,
    replacement: &LocalType,
) -> Vec<LocalBranch> {
    branches
        .iter()
        .map(|b| LocalBranch {
            label: b.label,
            sort: b.sort,
            continuation: b.continuation.substitute(var, replacement),
        })
        .collect()
}

impl fmt::Display for LocalType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn write_branch(
            f: &mut fmt::Formatter<'_>,
            peer: &Name,
            op: char,
            branch: &LocalBranch,
        ) -> fmt::Result {
            if branch.sort == Sort::Unit {
                write!(f, "{peer}{op}{}.{}", branch.label, branch.continuation)
            } else {
                write!(
                    f,
                    "{peer}{op}{}({}).{}",
                    branch.label, branch.sort, branch.continuation
                )
            }
        }
        match self {
            LocalType::End => f.write_str("end"),
            LocalType::Var(var) => write!(f, "{var}"),
            LocalType::Rec { var, body } => write!(f, "rec {var}.{body}"),
            LocalType::Select { peer, branches } if branches.len() == 1 => {
                write_branch(f, peer, '!', &branches[0])
            }
            LocalType::Branch { peer, branches } if branches.len() == 1 => {
                write_branch(f, peer, '?', &branches[0])
            }
            LocalType::Select { peer, branches } => {
                f.write_str("+{")?;
                for (index, branch) in branches.iter().enumerate() {
                    if index > 0 {
                        f.write_str(", ")?;
                    }
                    write_branch(f, peer, '!', branch)?;
                }
                f.write_str("}")
            }
            LocalType::Branch { peer, branches } => {
                f.write_str("&{")?;
                for (index, branch) in branches.iter().enumerate() {
                    if index > 0 {
                        f.write_str(", ")?;
                    }
                    write_branch(f, peer, '?', branch)?;
                }
                f.write_str("}")
            }
        }
    }
}

mod parser;
pub use parser::{parse, ParseError};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unfold_streaming_source() {
        // rec x . t?ready . +{ t!value.x, t!stop.end }
        let t = LocalType::rec(
            "x",
            LocalType::receive(
                "t",
                "ready",
                Sort::Unit,
                LocalType::select(
                    "t",
                    [
                        ("value".into(), Sort::I32, LocalType::Var("x".into())),
                        ("stop".into(), Sort::Unit, LocalType::End),
                    ],
                ),
            ),
        );
        let unfolded = t.unfold();
        // The unfolding starts with the receive, and the `value` branch now
        // loops back to the full recursive type.
        match &unfolded {
            LocalType::Branch { peer, branches } => {
                assert_eq!(peer, &Name::from("t"));
                assert_eq!(branches.len(), 1);
                match &branches[0].continuation {
                    LocalType::Select { branches, .. } => {
                        assert_eq!(branches[0].continuation, t);
                    }
                    other => panic!("unexpected {other}"),
                }
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn substitution_respects_shadowing() {
        // (rec x . x)[end/x] must not replace the bound occurrence.
        let t = LocalType::rec("x", LocalType::Var("x".into()));
        assert_eq!(t.substitute(&"x".into(), &LocalType::End), t);
    }

    #[test]
    fn uses_var_sees_through_choices() {
        let t = LocalType::select(
            "p",
            [
                ("a".into(), Sort::Unit, LocalType::End),
                ("b".into(), Sort::Unit, LocalType::Var("x".into())),
            ],
        );
        assert!(t.uses_var(&"x".into()));
        assert!(!t.uses_var(&"y".into()));
    }

    #[test]
    fn display_singletons_without_braces() {
        let t = LocalType::send("p", "hello", Sort::Unit, LocalType::End);
        assert_eq!(t.to_string(), "p!hello.end");
    }
}
