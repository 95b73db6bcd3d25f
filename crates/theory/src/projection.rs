//! Projection of global types onto participants (`G ↾ r`).
//!
//! Implements the standard MPST projection with **full merging** of
//! external choices: when a participant is not involved in a choice, the
//! projections of all branches must merge — identical behaviour is always
//! mergeable, and external choices from the same peer merge by label union
//! (common labels must merge recursively). This is the projection νScr
//! performs for the paper's examples.

use std::fmt;

use crate::global::GlobalType;
use crate::local::{LocalBranch, LocalType};
use crate::name::Name;

/// Errors raised during projection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProjectionError {
    /// Branch projections for an uninvolved participant failed to merge.
    Unmergeable {
        /// The participant being projected.
        role: Name,
        /// Rendering of the first conflicting type.
        left: String,
        /// Rendering of the second conflicting type.
        right: String,
    },
    /// Common label with conflicting payload sorts during a merge.
    SortMismatch { role: Name, label: Name },
    /// The global type failed validation first.
    InvalidGlobal(crate::global::GlobalError),
}

impl fmt::Display for ProjectionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProjectionError::Unmergeable { role, left, right } => write!(
                f,
                "projection onto {role} is undefined: cannot merge `{left}` with `{right}`"
            ),
            ProjectionError::SortMismatch { role, label } => {
                write!(f, "merge for {role} has sort mismatch on label {label}")
            }
            ProjectionError::InvalidGlobal(e) => write!(f, "invalid global type: {e}"),
        }
    }
}

impl std::error::Error for ProjectionError {}

/// Projects `global` onto participant `role`.
///
/// ```
/// use theory::{global::GlobalType, projection::project, Sort, LocalType};
///
/// // k → s : ready. s → k : value. end
/// let g = GlobalType::message(
///     "k", "s", "ready", Sort::Unit,
///     GlobalType::message("s", "k", "value", Sort::I32, GlobalType::End),
/// );
/// let k = project(&g, &"k".into()).unwrap();
/// assert_eq!(k.to_string(), "s!ready.s?value(i32).end");
/// ```
pub fn project(global: &GlobalType, role: &Name) -> Result<LocalType, ProjectionError> {
    global.validate().map_err(ProjectionError::InvalidGlobal)?;
    project_inner(global, role)
}

fn project_inner(global: &GlobalType, role: &Name) -> Result<LocalType, ProjectionError> {
    match global {
        GlobalType::End => Ok(LocalType::End),
        GlobalType::Var(var) => Ok(LocalType::Var(*var)),
        GlobalType::Rec { var, body } => {
            let projected = project_inner(body, role)?;
            // If the participant does not act in the loop body its
            // projection reduces to the bare variable (or end): drop the
            // binder to avoid unguarded recursion.
            match &projected {
                LocalType::Var(_) | LocalType::End => Ok(LocalType::End),
                _ if !projected.uses_var(var) => Ok(projected),
                _ => Ok(LocalType::Rec {
                    var: *var,
                    body: Box::new(projected),
                }),
            }
        }
        GlobalType::Comm { from, to, branches } => {
            let projected: Result<Vec<LocalBranch>, _> = branches
                .iter()
                .map(|branch| {
                    Ok(LocalBranch {
                        label: branch.label,
                        sort: branch.sort,
                        continuation: project_inner(&branch.continuation, role)?,
                    })
                })
                .collect();
            let projected = projected?;
            if role == from {
                Ok(LocalType::Select {
                    peer: *to,
                    branches: projected,
                })
            } else if role == to {
                Ok(LocalType::Branch {
                    peer: *from,
                    branches: projected,
                })
            } else {
                let mut iter = projected.into_iter();
                let first = iter.next().expect("validated choices are non-empty");
                iter.try_fold(first.continuation, |acc, branch| {
                    merge(role, acc, branch.continuation)
                })
            }
        }
    }
}

/// Full merge of two projections of an uninvolved participant.
pub fn merge(role: &Name, left: LocalType, right: LocalType) -> Result<LocalType, ProjectionError> {
    if left == right {
        return Ok(left);
    }
    match (left, right) {
        (
            LocalType::Branch {
                peer: peer_left,
                branches: mut branches_left,
            },
            LocalType::Branch {
                peer: peer_right,
                branches: branches_right,
            },
        ) if peer_left == peer_right => {
            // Union of labels; common labels merge recursively.
            for branch_right in branches_right {
                match branches_left
                    .iter_mut()
                    .find(|b| b.label == branch_right.label)
                {
                    Some(branch_left) => {
                        if branch_left.sort != branch_right.sort {
                            return Err(ProjectionError::SortMismatch {
                                role: *role,
                                label: branch_right.label,
                            });
                        }
                        let merged = merge(
                            role,
                            std::mem::replace(&mut branch_left.continuation, LocalType::End),
                            branch_right.continuation,
                        )?;
                        branch_left.continuation = merged;
                    }
                    None => branches_left.push(branch_right),
                }
            }
            Ok(LocalType::Branch {
                peer: peer_left,
                branches: branches_left,
            })
        }
        (
            LocalType::Rec {
                var: var_left,
                body: body_left,
            },
            LocalType::Rec {
                var: var_right,
                body: body_right,
            },
        ) if var_left == var_right => Ok(LocalType::Rec {
            var: var_left,
            body: Box::new(merge(role, *body_left, *body_right)?),
        }),
        (left, right) => Err(ProjectionError::Unmergeable {
            role: *role,
            left: left.to_string(),
            right: right.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::local;
    use crate::sort::Sort;

    /// The streaming protocol (paper §2, Fig 3).
    fn streaming() -> GlobalType {
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
                        ("value".into(), Sort::Unit, GlobalType::Var("x".into())),
                        ("stop".into(), Sort::Unit, GlobalType::End),
                    ],
                ),
            ),
        )
    }

    /// The double buffering protocol (paper §2, Listing 1).
    fn double_buffering() -> GlobalType {
        GlobalType::rec(
            "x",
            GlobalType::message(
                "k",
                "s",
                "ready",
                Sort::Unit,
                GlobalType::message(
                    "s",
                    "k",
                    "value",
                    Sort::Unit,
                    GlobalType::message(
                        "t",
                        "k",
                        "ready",
                        Sort::Unit,
                        GlobalType::message(
                            "k",
                            "t",
                            "value",
                            Sort::Unit,
                            GlobalType::Var("x".into()),
                        ),
                    ),
                ),
            ),
        )
    }

    #[test]
    fn streaming_projections_match_fig3b() {
        let source = project(&streaming(), &"s".into()).unwrap();
        assert_eq!(
            source,
            local::parse("rec x . t?ready . +{ t!value.x, t!stop.end }").unwrap()
        );
        let sink = project(&streaming(), &"t".into()).unwrap();
        assert_eq!(
            sink,
            local::parse("rec x . s!ready . &{ s?value.x, s?stop.end }").unwrap()
        );
    }

    #[test]
    fn double_buffering_kernel_matches_fig4a() {
        let kernel = project(&double_buffering(), &"k".into()).unwrap();
        assert_eq!(
            kernel,
            local::parse("rec x . s!ready . s?value . t?ready . t!value . x").unwrap()
        );
    }

    #[test]
    fn double_buffering_source_and_sink_match_fig4() {
        let source = project(&double_buffering(), &"s".into()).unwrap();
        assert_eq!(
            source,
            local::parse("rec x . k?ready . k!value . x").unwrap()
        );
        let sink = project(&double_buffering(), &"t".into()).unwrap();
        assert_eq!(sink, local::parse("rec x . k!ready . k?value . x").unwrap());
    }

    #[test]
    fn uninvolved_role_projects_to_end() {
        let g = GlobalType::message("a", "b", "l", Sort::Unit, GlobalType::End);
        assert_eq!(project(&g, &"c".into()).unwrap(), LocalType::End);
    }

    #[test]
    fn merge_unions_external_choices() {
        // a → b : { l1. b → c : m1, l2. b → c : m2 }  projected on c
        let g = GlobalType::choice(
            "a",
            "b",
            [
                (
                    "l1".into(),
                    Sort::Unit,
                    GlobalType::message("b", "c", "m1", Sort::Unit, GlobalType::End),
                ),
                (
                    "l2".into(),
                    Sort::Unit,
                    GlobalType::message("b", "c", "m2", Sort::Unit, GlobalType::End),
                ),
            ],
        );
        let c = project(&g, &"c".into()).unwrap();
        assert_eq!(c, local::parse("&{ b?m1.end, b?m2.end }").unwrap());
    }

    #[test]
    fn unmergeable_projection_is_rejected() {
        // c must *send* different things depending on a choice it cannot
        // observe: projection is undefined.
        let g = GlobalType::choice(
            "a",
            "b",
            [
                (
                    "l1".into(),
                    Sort::Unit,
                    GlobalType::message("c", "b", "m1", Sort::Unit, GlobalType::End),
                ),
                (
                    "l2".into(),
                    Sort::Unit,
                    GlobalType::message("c", "b", "m2", Sort::Unit, GlobalType::End),
                ),
            ],
        );
        assert!(matches!(
            project(&g, &"c".into()),
            Err(ProjectionError::Unmergeable { .. })
        ));
    }

    #[test]
    fn merge_rejects_sort_conflict() {
        let g = GlobalType::choice(
            "a",
            "b",
            [
                (
                    "l1".into(),
                    Sort::Unit,
                    GlobalType::message("b", "c", "m", Sort::I32, GlobalType::End),
                ),
                (
                    "l2".into(),
                    Sort::Unit,
                    GlobalType::message("b", "c", "m", Sort::Str, GlobalType::End),
                ),
            ],
        );
        assert!(matches!(
            project(&g, &"c".into()),
            Err(ProjectionError::SortMismatch { .. })
        ));
    }
}
