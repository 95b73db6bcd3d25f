//! Global session types `G` (paper Definition 1):
//!
//! ```text
//! G ::= end | p → q : {ℓᵢ(Sᵢ).Gᵢ}ᵢ∈I | μt.G | t
//! ```

use std::collections::BTreeSet;
use std::fmt;

use crate::name::Name;
use crate::sort::Sort;

/// One labelled continuation `ℓ(S).G` of a communication.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalBranch {
    /// Message label `ℓ`.
    pub label: Name,
    /// Payload sort `S`.
    pub sort: Sort,
    /// Continuation `G`.
    pub continuation: GlobalType,
}

/// A global session type describing a whole protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GlobalType {
    /// Successful termination (`end`).
    End,
    /// A message exchange `from → to : {ℓᵢ(Sᵢ).Gᵢ}`; a singleton branch
    /// list is a plain message, several branches form a choice made by
    /// `from`.
    Comm {
        /// Sending participant `p`.
        from: Name,
        /// Receiving participant `q`.
        to: Name,
        /// Labelled continuations; labels must be pairwise distinct.
        branches: Vec<GlobalBranch>,
    },
    /// Recursive type `μt.G`.
    Rec {
        /// The bound recursion variable `t`.
        var: Name,
        /// Body in which `var` may occur.
        body: Box<GlobalType>,
    },
    /// Occurrence of a recursion variable `t`.
    Var(Name),
}

/// Errors raised by [`GlobalType::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GlobalError {
    /// A participant sends a message to itself.
    SelfCommunication(Name),
    /// Two branches of the same communication carry the same label.
    DuplicateLabel { from: Name, to: Name, label: Name },
    /// A recursion variable appears free.
    UnboundVariable(Name),
    /// A communication has no branches.
    EmptyChoice { from: Name, to: Name },
}

impl fmt::Display for GlobalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlobalError::SelfCommunication(role) => {
                write!(f, "participant {role} communicates with itself")
            }
            GlobalError::DuplicateLabel { from, to, label } => {
                write!(f, "duplicate label {label} in {from} -> {to}")
            }
            GlobalError::UnboundVariable(var) => write!(f, "unbound recursion variable {var}"),
            GlobalError::EmptyChoice { from, to } => {
                write!(f, "empty choice in {from} -> {to}")
            }
        }
    }
}

impl std::error::Error for GlobalError {}

impl GlobalType {
    /// Convenience constructor for a single-label message.
    pub fn message(
        from: impl Into<Name>,
        to: impl Into<Name>,
        label: impl Into<Name>,
        sort: Sort,
        continuation: GlobalType,
    ) -> Self {
        GlobalType::Comm {
            from: from.into(),
            to: to.into(),
            branches: vec![GlobalBranch {
                label: label.into(),
                sort,
                continuation,
            }],
        }
    }

    /// Convenience constructor for a directed choice.
    pub fn choice(
        from: impl Into<Name>,
        to: impl Into<Name>,
        branches: impl IntoIterator<Item = (Name, Sort, GlobalType)>,
    ) -> Self {
        GlobalType::Comm {
            from: from.into(),
            to: to.into(),
            branches: branches
                .into_iter()
                .map(|(label, sort, continuation)| GlobalBranch {
                    label,
                    sort,
                    continuation,
                })
                .collect(),
        }
    }

    /// Convenience constructor for `μvar.body`.
    pub fn rec(var: impl Into<Name>, body: GlobalType) -> Self {
        GlobalType::Rec {
            var: var.into(),
            body: Box::new(body),
        }
    }

    /// All participants occurring anywhere in the type, sorted.
    pub fn participants(&self) -> BTreeSet<Name> {
        let mut set = BTreeSet::new();
        self.collect_participants(&mut set);
        set
    }

    fn collect_participants(&self, set: &mut BTreeSet<Name>) {
        match self {
            GlobalType::End | GlobalType::Var(_) => {}
            GlobalType::Comm { from, to, branches } => {
                set.insert(*from);
                set.insert(*to);
                for branch in branches {
                    branch.continuation.collect_participants(set);
                }
            }
            GlobalType::Rec { body, .. } => body.collect_participants(set),
        }
    }

    /// Structural well-formedness: no self-messages, distinct labels per
    /// choice, no empty choices, all recursion variables bound.
    pub fn validate(&self) -> Result<(), GlobalError> {
        self.validate_inner(&mut Vec::new())
    }

    fn validate_inner(&self, bound: &mut Vec<Name>) -> Result<(), GlobalError> {
        match self {
            GlobalType::End => Ok(()),
            GlobalType::Var(var) => {
                if bound.contains(var) {
                    Ok(())
                } else {
                    Err(GlobalError::UnboundVariable(*var))
                }
            }
            GlobalType::Rec { var, body } => {
                bound.push(*var);
                let result = body.validate_inner(bound);
                bound.pop();
                result
            }
            GlobalType::Comm { from, to, branches } => {
                if from == to {
                    return Err(GlobalError::SelfCommunication(*from));
                }
                if branches.is_empty() {
                    return Err(GlobalError::EmptyChoice {
                        from: *from,
                        to: *to,
                    });
                }
                // A single message has no label to repeat, and an empty
                // set allocates nothing.
                let mut seen = BTreeSet::new();
                for branch in branches {
                    if branches.len() > 1 && !seen.insert(&branch.label) {
                        return Err(GlobalError::DuplicateLabel {
                            from: *from,
                            to: *to,
                            label: branch.label,
                        });
                    }
                    branch.continuation.validate_inner(bound)?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for GlobalType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GlobalType::End => f.write_str("end"),
            GlobalType::Var(var) => write!(f, "{var}"),
            GlobalType::Rec { var, body } => write!(f, "mu {var}.{body}"),
            GlobalType::Comm { from, to, branches } => {
                write!(f, "{from} -> {to} : {{")?;
                for (index, branch) in branches.iter().enumerate() {
                    if index > 0 {
                        f.write_str(", ")?;
                    }
                    if branch.sort == Sort::Unit {
                        write!(f, "{}.{}", branch.label, branch.continuation)?;
                    } else {
                        write!(
                            f,
                            "{}({}).{}",
                            branch.label, branch.sort, branch.continuation
                        )?;
                    }
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn streaming() -> GlobalType {
        // μx. t → s : { ready. s → t : { value.x, stop.end } }
        GlobalType::rec(
            "x",
            GlobalType::message(
                "t",
                "s",
                "ready",
                Sort::Unit,
                GlobalType::choice(
                    "s",
                    "t",
                    [
                        ("value".into(), Sort::I32, GlobalType::Var("x".into())),
                        ("stop".into(), Sort::Unit, GlobalType::End),
                    ],
                ),
            ),
        )
    }

    #[test]
    fn participants_of_streaming() {
        let g = streaming();
        let roles: Vec<_> = g.participants().into_iter().collect();
        assert_eq!(roles, vec![Name::from("s"), Name::from("t")]);
    }

    #[test]
    fn streaming_is_well_formed() {
        assert_eq!(streaming().validate(), Ok(()));
    }

    #[test]
    fn rejects_self_communication() {
        let g = GlobalType::message("s", "s", "l", Sort::Unit, GlobalType::End);
        assert_eq!(
            g.validate(),
            Err(GlobalError::SelfCommunication("s".into()))
        );
    }

    #[test]
    fn rejects_duplicate_labels() {
        let g = GlobalType::choice(
            "a",
            "b",
            [
                ("l".into(), Sort::Unit, GlobalType::End),
                ("l".into(), Sort::Unit, GlobalType::End),
            ],
        );
        assert!(matches!(
            g.validate(),
            Err(GlobalError::DuplicateLabel { .. })
        ));
    }

    #[test]
    fn rejects_unbound_variable() {
        let g = GlobalType::message("a", "b", "l", Sort::Unit, GlobalType::Var("x".into()));
        assert_eq!(g.validate(), Err(GlobalError::UnboundVariable("x".into())));
    }

    #[test]
    fn display_round_readable() {
        assert_eq!(
            streaming().to_string(),
            "mu x.t -> s : {ready.s -> t : {value(i32).x, stop.end}}"
        );
    }
}
