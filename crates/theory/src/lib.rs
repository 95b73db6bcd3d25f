//! Multiparty session type theory: the νScr/Scribble substrate.
//!
//! This crate implements the "paper" side of Rumpsteak's top-down workflow
//! (Fig 1a of the paper):
//!
//! * [`global`] — global session types `G` (Definition 1),
//! * [`local`] — local session types `T` with internal/external choice,
//! * [`scribble`] — a parser for the Scribble subset used by the paper
//!   (`global protocol`, `rec`/`continue`, `choice at`),
//! * [`projection`] — projection of a global type onto each participant,
//!   with full merging of external choices,
//! * [`fsm`] — communicating finite state machines, in the one form
//!   projection, emission, the subtyping algorithm and the k-MC checker
//!   all read, and the conversions local type ⇄ FSM,
//! * [`term`] — the hash-consed arena of local-type terms, and the one
//!   builder of their machines (`Terms::machine`),
//! * [`name`] — names interned once per process, so comparing and
//!   hashing one never reads its text,
//! * [`dot`] — Graphviz output for debugging protocols,
//! * [`json`] — the workspace's one JSON writer, behind every
//!   machine-readable artifact the tools above emit.
//!
//! # Example: the streaming protocol of §2
//!
//! ```
//! use theory::scribble;
//! use theory::projection::project;
//!
//! let source = r#"
//!     global protocol Streaming(role s, role t) {
//!         rec loop {
//!             ready() from t to s;
//!             choice at s {
//!                 value() from s to t;
//!                 continue loop;
//!             } or {
//!                 stop() from s to t;
//!             }
//!         }
//!     }
//! "#;
//! let protocol = scribble::parse(source).unwrap();
//! let local_s = project(&protocol.body, &"s".into()).unwrap();
//! let fsm = theory::fsm::from_local(&"s".into(), &local_s).unwrap();
//! assert_eq!(fsm.len(), 3); // loop head, choice state, end
//! ```

pub mod dot;
pub mod fsm;
pub mod global;
pub mod json;
pub mod local;
pub mod name;
pub mod projection;
pub mod scribble;
pub mod sort;
pub mod term;

pub use fsm::{Action, Direction, Fsm, StateIndex};
pub use global::GlobalType;
pub use local::LocalType;
pub use name::Name;
pub use sort::Sort;
