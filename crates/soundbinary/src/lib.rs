//! SoundBinary — the binary asynchronous session subtyping baseline
//! (Bravetti, Carbone, Lange, Yoshida, Zavattaro, LMCS 2021) benchmarked
//! against Rumpsteak's algorithm in Fig 7 of the paper.
//!
//! The algorithm decides (soundly, incompletely) whether one **two-party**
//! session type is an asynchronous subtype of another by simulating the
//! candidate subtype against the supertype while accumulating an **input
//! context**: a tree of inputs of the supertype that the subtype has
//! anticipated outputs across. Each output step must traverse *every* leaf
//! of the context, so nested choices multiply the simulation frontier —
//! the exponential behaviour the paper measures.
//!
//! Differences from the Haskell artifact (documented in DESIGN.md): we
//! bound the input-context depth and total step budget instead of running
//! the full divergence analysis; exceeding a bound answers `false`, which
//! preserves soundness.
//!
//! # Example
//!
//! ```
//! use soundbinary::{is_subtype, Limits};
//! use theory::local;
//!
//! let sup = local::parse("rec x . p?ready . p!value . x").unwrap();
//! let sub = local::parse("p!value . rec x . p?ready . p!value . x").unwrap();
//! assert_eq!(is_subtype(&sub, &sup, Limits::default()), Ok(true));
//! ```

use std::fmt;

use theory::local::{LocalBranch, LocalType};
use theory::name::Name;
use theory::sort::Sort;

/// Resource limits that guarantee termination.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Limits {
    /// Maximum depth of the accumulated input context.
    pub max_context_depth: usize,
    /// Maximum number of simulation steps overall.
    pub max_steps: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Self {
            max_context_depth: 1024,
            max_steps: 1_000_000,
        }
    }
}

/// Errors for inputs outside the algorithm's domain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BinaryError {
    /// The types mention more than one partner: this baseline is binary.
    NotBinary {
        /// First peer seen.
        first: Name,
        /// Conflicting second peer.
        second: Name,
    },
    /// A recursion variable was unbound.
    UnboundVariable(Name),
}

impl fmt::Display for BinaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinaryError::NotBinary { first, second } => {
                write!(f, "not a binary session: peers {first} and {second}")
            }
            BinaryError::UnboundVariable(var) => write!(f, "unbound variable {var}"),
        }
    }
}

impl std::error::Error for BinaryError {}

/// The input context `𝒜`: a tree of anticipated inputs whose leaves carry
/// the residual supertype.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Context {
    /// A residual supertype term.
    Leaf(LocalType),
    /// An input node: one subtree per receivable label.
    Node(Vec<(Name, Sort, Context)>),
}

impl Context {
    fn depth(&self) -> usize {
        match self {
            Context::Leaf(_) => 0,
            Context::Node(children) => {
                1 + children
                    .iter()
                    .map(|(_, _, c)| c.depth())
                    .max()
                    .unwrap_or(0)
            }
        }
    }
}

/// Checks that `sub ≤ sup` for binary asynchronous session subtyping.
///
/// Returns `Ok(false)` both for genuine non-subtypes and when a resource
/// limit is hit (the algorithm is sound, not complete).
pub fn is_subtype(sub: &LocalType, sup: &LocalType, limits: Limits) -> Result<bool, BinaryError> {
    check_binary(sub)?;
    check_binary(sup)?;
    check_closed(sub, &mut Vec::new())?;
    check_closed(sup, &mut Vec::new())?;
    let mut sim = Simulation {
        limits,
        steps: 0,
        path: Vec::new(),
    };
    Ok(sim.step(sub.clone(), Context::Leaf(sup.clone())))
}

fn check_binary(t: &LocalType) -> Result<(), BinaryError> {
    let peers: Vec<Name> = t.peers().into_iter().collect();
    if peers.len() > 1 {
        return Err(BinaryError::NotBinary {
            first: peers[0],
            second: peers[1],
        });
    }
    Ok(())
}

fn check_closed(t: &LocalType, bound: &mut Vec<Name>) -> Result<(), BinaryError> {
    match t {
        LocalType::End => Ok(()),
        LocalType::Var(v) => {
            if bound.contains(v) {
                Ok(())
            } else {
                Err(BinaryError::UnboundVariable(*v))
            }
        }
        LocalType::Rec { var, body } => {
            bound.push(*var);
            let result = check_closed(body, bound);
            bound.pop();
            result
        }
        LocalType::Select { branches, .. } | LocalType::Branch { branches, .. } => branches
            .iter()
            .try_for_each(|b| check_closed(&b.continuation, bound)),
    }
}

struct Simulation {
    limits: Limits,
    steps: usize,
    /// Configurations on the current path; a repeat discharges the
    /// obligation coinductively.
    path: Vec<(LocalType, Context)>,
}

impl Simulation {
    fn step(&mut self, sub: LocalType, context: Context) -> bool {
        self.steps += 1;
        if self.steps > self.limits.max_steps || context.depth() > self.limits.max_context_depth {
            return false;
        }

        let sub = unfold_fully(sub);
        let config = (sub.clone(), context.clone());
        if self.path.contains(&config) {
            return true;
        }

        match &sub {
            LocalType::End => match context {
                Context::Leaf(sup) => matches!(unfold_fully(sup), LocalType::End),
                Context::Node(_) => false,
            },
            LocalType::Branch { branches, .. } => {
                let branches = branches.clone();
                self.path.push(config);
                let result = self.step_input(&branches, context);
                self.path.pop();
                result
            }
            LocalType::Select { branches, .. } => {
                let branches = branches.clone();
                self.path.push(config);
                let result = self.step_output(&branches, context);
                self.path.pop();
                result
            }
            LocalType::Rec { .. } | LocalType::Var(_) => {
                unreachable!("unfold_fully removes top-level binders")
            }
        }
    }

    /// Subtype input: consume the root of the input context (anticipated
    /// inputs are received now) or match the supertype's input directly.
    /// Input is contravariant: the subtype must accept every label the
    /// context/supertype can produce.
    fn step_input(&mut self, branches: &[LocalBranch], context: Context) -> bool {
        match context {
            Context::Node(children) => children.into_iter().all(|(label, sort, child)| {
                match branches.iter().find(|b| b.label == label) {
                    Some(branch) if sort.is_subsort_of(&branch.sort) => {
                        self.step(branch.continuation.clone(), child)
                    }
                    _ => false,
                }
            }),
            Context::Leaf(sup) => match unfold_fully(sup) {
                LocalType::Branch {
                    branches: sup_branches,
                    ..
                } => sup_branches.into_iter().all(|sup_branch| {
                    match branches.iter().find(|b| b.label == sup_branch.label) {
                        Some(branch) if sup_branch.sort.is_subsort_of(&branch.sort) => self.step(
                            branch.continuation.clone(),
                            Context::Leaf(sup_branch.continuation),
                        ),
                        _ => false,
                    }
                }),
                _ => false,
            },
        }
    }

    /// Subtype output: saturate the context by absorbing supertype inputs
    /// into it (output anticipation, R2), then require every leaf to offer
    /// each selected label. Output is covariant: the subtype's labels must
    /// be a subset of every leaf's.
    fn step_output(&mut self, branches: &[LocalBranch], context: Context) -> bool {
        let saturated = match saturate(context, self.limits.max_context_depth) {
            Some(context) => context,
            None => return false,
        };
        branches.iter().all(
            |branch| match select_leaf(&saturated, &branch.label, &branch.sort) {
                Some(next) => self.step(branch.continuation.clone(), next),
                None => false,
            },
        )
    }
}

/// Unfolds all top-level `rec` binders.
fn unfold_fully(mut t: LocalType) -> LocalType {
    // Guarded recursion guarantees progress; unguarded types would diverge,
    // so cap the number of unfoldings defensively.
    for _ in 0..64 {
        match t {
            LocalType::Rec { .. } => t = t.unfold(),
            other => return other,
        }
    }
    t
}

/// Replaces every leaf whose unfolding is an input by an input node, until
/// all leaves are outputs or `end`. Returns `None` on exceeding `max_depth`.
fn saturate(context: Context, max_depth: usize) -> Option<Context> {
    if max_depth == 0 {
        return None;
    }
    match context {
        Context::Leaf(sup) => match unfold_fully(sup) {
            LocalType::Branch { branches, .. } => {
                let children = branches
                    .into_iter()
                    .map(|b| {
                        saturate(Context::Leaf(b.continuation), max_depth - 1)
                            .map(|c| (b.label, b.sort, c))
                    })
                    .collect::<Option<Vec<_>>>()?;
                Some(Context::Node(children))
            }
            other => Some(Context::Leaf(other)),
        },
        Context::Node(children) => {
            let children = children
                .into_iter()
                .map(|(label, sort, child)| {
                    saturate(child, max_depth - 1).map(|c| (label, sort, c))
                })
                .collect::<Option<Vec<_>>>()?;
            Some(Context::Node(children))
        }
    }
}

/// For an output of `label`, steps every leaf of the (saturated) context
/// through that label; `None` if some leaf cannot offer it.
fn select_leaf(context: &Context, label: &Name, sort: &Sort) -> Option<Context> {
    match context {
        Context::Leaf(sup) => match sup {
            LocalType::Select { branches, .. } => {
                let branch = branches.iter().find(|b| &b.label == label)?;
                if !sort.is_subsort_of(&branch.sort) {
                    return None;
                }
                Some(Context::Leaf(branch.continuation.clone()))
            }
            _ => None,
        },
        Context::Node(children) => {
            let children = children
                .iter()
                .map(|(l, s, child)| select_leaf(child, label, sort).map(|c| (*l, *s, c)))
                .collect::<Option<Vec<_>>>()?;
            Some(Context::Node(children))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use theory::local;

    fn check(sub: &str, sup: &str) -> bool {
        let sub = local::parse(sub).unwrap();
        let sup = local::parse(sup).unwrap();
        is_subtype(&sub, &sup, Limits::default()).unwrap()
    }

    #[test]
    fn reflexive() {
        for t in [
            "end",
            "p!a.end",
            "rec x . p?ready . p!value . x",
            "rec x . p?r . +{ p!v.x, p!s.end }",
        ] {
            assert!(check(t, t), "{t}");
        }
    }

    #[test]
    fn example2_directions() {
        assert!(check("p!l2.p?l1.end", "p?l1.p!l2.end"));
        assert!(!check("p?l2.p!l1.end", "p!l1.p?l2.end"));
    }

    #[test]
    fn unrolled_stream_source() {
        let sup = "rec x . p?ready . p!value . x";
        let sub = "p!value . p!value . rec x . p?ready . p!value . x";
        assert!(check(sub, sup));
        assert!(!check(sup, sub));
    }

    #[test]
    fn output_covariance_input_contravariance() {
        assert!(check("p!a.end", "+{ p!a.end, p!b.end }"));
        assert!(!check("+{ p!a.end, p!b.end }", "p!a.end"));
        assert!(check("&{ p?a.end, p?b.end }", "p?a.end"));
        assert!(!check("p?a.end", "&{ p?a.end, p?b.end }"));
    }

    #[test]
    fn forgotten_input_rejected() {
        // Binary rendition of Fig A.14: the subtype never consumes lp.
        assert!(!check("rec t . p?l . t", "p?lp . rec t . p?l . t"));
    }

    #[test]
    fn rejects_multiparty_types() {
        let sub = local::parse("p!a.q!b.end").unwrap();
        let sup = local::parse("p!a.q!b.end").unwrap();
        assert!(matches!(
            is_subtype(&sub, &sup, Limits::default()),
            Err(BinaryError::NotBinary { .. })
        ));
    }

    #[test]
    fn fully_commuted_loop() {
        // The subtype sends first in every iteration: the context settles
        // into a repeating shape and the simulation closes the loop.
        let sup = "rec x . p?a . p!b . x";
        let sub = "rec x . p!b . p?a . x";
        assert!(check(sub, sup));
    }

    #[test]
    fn limit_exhaustion_is_false_not_hang() {
        let sub = local::parse("rec x . p!b . x").unwrap();
        let sup = local::parse("rec x . p?a . p!b . x").unwrap();
        // The subtype never receives: the context grows forever; limits
        // turn divergence into a sound `false`.
        let limits = Limits {
            max_context_depth: 32,
            max_steps: 10_000,
        };
        assert_eq!(is_subtype(&sub, &sup, limits), Ok(false));
    }

    #[test]
    fn nested_choice_family() {
        // The n = 1 instance of the Fig 7 nested-choice benchmark
        // (Chen et al. [13, Fig 3]).
        let sub = "+{ p!m . &{ p?r.end, p?s.end, p?u.end }, p!p . &{ p?r.end, p?s.end } }";
        let sup = "&{ p?r . +{ p!m.end, p!p.end, p!q.end }, p?s . +{ p!m.end, p!p.end } }";
        assert!(check(sub, sup));
    }
}
