//! The price list the AMR search ranks by: *estimated nanoseconds saved*
//! per rewrite step.
//!
//! Counting crossed receives prices every crossing the same, and payload
//! size dominates link cost (a 16 KiB `value` costs 10–15× a bare token),
//! so hoisting a bulky send past a cheap `ready` can lose throughput even
//! though it crosses a receive. Each rewrite step is therefore priced as
//!
//! * **benefit** — the latency of every receive the send was moved ahead
//!   of no longer blocks the send: [`RECV_BASE_NS`]` + `[`NS_PER_BYTE`]` ×
//!   wire_size(receive payload)` per crossed receive;
//! * **penalty** — the hoisted payload occupies the send edge earlier
//!   and for longer: [`OCCUPANCY_FACTOR`]` × `[`NS_PER_BYTE`]` ×
//!   wire_size(sent payload)`. Unit-sort sends (bare labels) are free to
//!   hoist.
//!
//! A step's saving is benefit − penalty and *can go negative*; a
//! candidate's saving is the sum over its derivation. Candidates are
//! ranked by saving (then by receives crossed, then fewer states), and
//! [`Optimised::best`](crate::Optimised::best) only reports a winner
//! whose saving is strictly positive — an expensive reordering keeps the
//! projection instead.
//!
//! # Where the numbers come from
//!
//! The two constants are round figures for the in-process SPSC ring: a
//! token burst costs ≈ 15 ns a message and a 1 KiB payload burst
//! ≈ 380 ns, a slope of ≈ 0.36 ns per byte. Every edge is priced the same — the optimiser is handed a local
//! type, not a deployment, so a role that will talk over a socket is
//! ranked at in-process cost too. Only the ratio of the two constants
//! decides a step's sign (a hoist past a bare token pays off below ≈ 83
//! hoisted bytes) and wire sizes jump 8 → 1024 → 16384, so the ranking
//! is insensitive to the exact figures.
//!
//! # Payload wire sizes
//!
//! [`wire_size`] maps a payload [`Sort`] to the byte count the wire
//! layer moves for it, mirroring `rumpsteak::wire`: `unit` 0, `bool` 1,
//! 32-bit ints 4, 64-bit ints and floats 8. Sorts whose size the type
//! alone cannot determine use documented defaults: `str` 1024 (the
//! smaller burst-bench payload), custom sorts 16384 (the bulky
//! burst-bench payload — `buffer` in the double-buffering protocol).

use theory::sort::Sort;

use crate::rewrite::Step;

/// Fixed cost of receiving one message, in ns.
pub const RECV_BASE_NS: f64 = 15.0;

/// Marginal cost per payload byte, in ns.
pub const NS_PER_BYTE: f64 = 0.36;

/// Fraction of a hoisted payload's transfer cost charged as the
/// occupancy penalty: moving a send earlier makes the link busy sooner,
/// but the transfer itself overlaps with work the reordering unblocks,
/// so only half of it is assumed to land on the critical path.
pub const OCCUPANCY_FACTOR: f64 = 0.5;

/// Assumed wire size of a `str` payload, in bytes (no static bound; the
/// smaller burst-bench payload is the documented default).
pub const STR_WIRE_SIZE: usize = 1024;

/// Assumed wire size of a custom (application-defined) payload sort, in
/// bytes: the bulky burst-bench payload, e.g. the double-buffering
/// `buffer`.
pub const CUSTOM_WIRE_SIZE: usize = 16384;

/// Bytes the wire layer moves for a payload of this sort (see the
/// [module docs](self) for the `str`/custom defaults).
pub fn wire_size(sort: &Sort) -> usize {
    match sort {
        Sort::Unit => 0,
        Sort::Bool => 1,
        Sort::I32 | Sort::U32 => 4,
        Sort::I64 | Sort::U64 | Sort::F64 => 8,
        Sort::Str => STR_WIRE_SIZE,
        Sort::Custom(_) => CUSTOM_WIRE_SIZE,
    }
}

/// Cost of receiving one message of this sort: the latency a send stops
/// paying for each receive it is hoisted past.
fn receive_ns(sort: &Sort) -> f64 {
    RECV_BASE_NS + NS_PER_BYTE * wire_size(sort) as f64
}

/// Occupancy penalty of hoisting a `bytes`-byte payload onto its edge
/// earlier than the projection would.
fn occupancy_ns(bytes: usize) -> f64 {
    OCCUPANCY_FACTOR * NS_PER_BYTE * bytes as f64
}

/// Estimated nanoseconds one rewrite step saves (negative when the
/// occupancy penalty outweighs the crossing benefit).
///
/// * hoists past a receive stop paying that receive's latency but occupy
///   the send edge earlier, by the largest branch payload of the hoisted
///   choice;
/// * hoisting out of external-choice branches conservatively banks the
///   *cheapest* crossed branch's latency;
/// * an anticipation crosses one whole loop iteration: every receive in
///   the loop body, against the occupancy of its own payload;
/// * send-past-send and receive-receive swaps are enabling-only.
pub fn step_saving_ns(step: &Step) -> f64 {
    match step {
        Step::HoistPastReceive {
            send_sorts,
            receive_sort,
            ..
        } => {
            let hoisted = send_sorts.iter().map(wire_size).max().unwrap_or(0);
            receive_ns(receive_sort) - occupancy_ns(hoisted)
        }
        Step::HoistFromBranches {
            sort,
            receive_sorts,
            ..
        } => {
            let benefit = receive_sorts
                .iter()
                .map(receive_ns)
                .min_by(f64::total_cmp)
                .unwrap_or(0.0);
            benefit - occupancy_ns(wire_size(sort))
        }
        Step::Anticipate {
            sort,
            crossed_receives,
            ..
        } => {
            let benefit: f64 = crossed_receives.iter().map(receive_ns).sum();
            benefit - occupancy_ns(wire_size(sort))
        }
        Step::HoistPastSend { .. } | Step::SwapReceives { .. } => 0.0,
    }
}

/// Estimated nanoseconds a whole derivation saves: the sum of its steps'
/// savings, taken in the order given (application order, for a
/// derivation).
pub fn saving_ns<'a>(derivation: impl IntoIterator<Item = &'a Step>) -> f64 {
    derivation.into_iter().map(step_saving_ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_follow_the_wire_layer() {
        assert_eq!(wire_size(&Sort::Unit), 0);
        assert_eq!(wire_size(&Sort::Bool), 1);
        assert_eq!(wire_size(&Sort::I32), 4);
        assert_eq!(wire_size(&Sort::U64), 8);
        assert_eq!(wire_size(&Sort::Str), STR_WIRE_SIZE);
        assert_eq!(wire_size(&Sort::Custom("buffer".into())), CUSTOM_WIRE_SIZE);
    }

    #[test]
    fn bulky_hoists_are_penalised() {
        let hoist = |sort: Sort| Step::HoistPastReceive {
            send_peer: "q".into(),
            receive_peer: "p".into(),
            send_sorts: vec![sort],
            receive_sort: Sort::Unit,
        };
        assert!(step_saving_ns(&hoist(Sort::I32)) > step_saving_ns(&hoist(Sort::Str)));
        // The bulky hoist's occupancy outweighs crossing a bare token.
        assert!(step_saving_ns(&hoist(Sort::Str)) < 0.0);
    }
}
