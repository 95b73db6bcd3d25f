//! Lock-free, feature-gated observability for the Rumpsteak runtime.
//!
//! The paper's pitch is that statically verified asynchronous message
//! reordering makes session-typed Rust *fast*; this crate makes the
//! runtime explain *why* a number moved instead of reporting only
//! end-to-end means. Four instruments, all lock-free on their hot
//! paths:
//!
//! * [`scheduler`] — per-worker cache-padded relaxed [`Counter`]s for the
//!   executor (spawns, local pops, LIFO-wake hits, sibling steals,
//!   injector batch takeovers, park/unpark cycles),
//!   aggregated on demand into a [`scheduler::RuntimeSnapshot`].
//! * [`channel`] — one row per directed session link, SPSC ring or
//!   socket: occupancy high-watermark, grow events, waker-handoff CAS
//!   retries, frames and bytes in each direction, window stalls and
//!   dial reconnects, plus a registry of each link's window and the
//!   statically verified k-MC bound it was sized from, so a snapshot can
//!   check `observed_depth <= k` per link — the paper's static guarantee
//!   turned into a runtime-checkable invariant.
//! * [`trace`] — per-thread bounded lock-free event rings recording
//!   `(role, peer, label, t_ns, seq)` for every session Send/Receive/
//!   Select/Branch and every wire frame, drop-oldest with a drop
//!   counter, dumpable per process as a text dump that
//!   `rumpsteak-trace` renders as Chrome trace-event JSON
//!   (`chrome://tracing` / Perfetto), stitched across processes with
//!   flow events connecting each frame send to its receive.
//! * [`hist`] — lock-free log-linear (HDR-style) latency histograms
//!   with exact-reference-tested quantiles, recording per-link
//!   send→recv latency (via [`channel`]) and session spawn→teardown
//!   lifetimes.
//!
//! # Feature gating
//!
//! Without the `telemetry` cargo feature every type here still exists but
//! is a zero-sized no-op: [`Counter::incr`] is an empty inline function,
//! [`channel::LinkStats`] is a ZST, [`trace::event`] compiles away.
//! One primitive carries the trick for all of them (`gate::Gated`, the
//! only type whose shape depends on the feature) and one registry type
//! holds every instrument's named cells. Instrumented call sites
//! therefore never need `#[cfg]`; they test [`ENABLED`] only where
//! avoiding an argument computation matters.

pub mod channel;
pub mod hist;
pub mod scheduler;
pub mod trace;

mod counter;
mod gate;

pub use counter::{CachePadded, Counter};

/// True when the crate was built with the `telemetry` feature; instrument
/// call sites branch on this `const` so disabled builds fold the whole
/// path away.
pub const ENABLED: bool = cfg!(feature = "telemetry");

/// Strips module path and generic arguments from a `std::any::type_name`
/// result: `bench::protocols::streaming::Ready` becomes `Ready`.
///
/// Session futures record roles/peers/labels via `type_name`, which needs
/// no extra trait bounds; rendering uses this to keep traces readable.
pub fn short_type_name(full: &'static str) -> &'static str {
    let head = match full.find('<') {
        Some(index) => &full[..index],
        None => full,
    };
    match head.rfind("::") {
        Some(index) => &head[index + 2..],
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_type_name_strips_path_and_generics() {
        assert_eq!(short_type_name("a::b::Ready"), "Ready");
        assert_eq!(short_type_name("Ready"), "Ready");
        assert_eq!(short_type_name("a::b::Foo<c::d::Bar>"), "Foo");
    }

    #[test]
    fn enabled_matches_feature() {
        assert_eq!(ENABLED, cfg!(feature = "telemetry"));
    }
}
