//! A minimal, API-compatible stand-in for the `crossbeam` crate (the build
//! container has no crates.io access). Provides the one module this
//! workspace uses:
//!
//! * [`deque`] — `Worker`/`Stealer`/`Injector`/`Steal`, implemented as a
//!   real lock-free Chase–Lev deque (growable ring buffer, CAS-validated
//!   steals, epoch-free retired-buffer reclamation) plus a Treiber-chain
//!   injector with batch takeover. No mutex anywhere on the
//!   push/pop/steal path; see the module docs for the memory-ordering
//!   argument.

pub mod deque;
