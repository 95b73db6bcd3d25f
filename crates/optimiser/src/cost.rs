//! Profile-guided cost model: score AMR candidates by *estimated
//! nanoseconds saved* instead of the crude receives-crossed proxy.
//!
//! The proxy from the original search counts how many receives a send
//! was moved ahead of — every crossing is worth the same. The
//! large-payload burst benches showed that is wrong by an order of
//! magnitude: payload size dominates link cost (a 16 KiB `value` costs
//! 10–15× a bare token), so hoisting a bulky send past a cheap `ready`
//! can *lose* throughput even though it crosses a receive. This module
//! prices each rewrite step with measured link costs:
//!
//! * **benefit** — the latency of every receive the send was moved ahead
//!   of no longer blocks the send: `recv_base_ns + ns_per_byte ×
//!   wire_size(receive payload)` per crossed receive;
//! * **penalty** — the hoisted payload occupies the send edge earlier
//!   and for longer: [`OCCUPANCY_FACTOR`]` × ns_per_byte × wire_size(sent
//!   payload)`. Unit-sort sends (bare labels) are free to hoist.
//!
//! A step's estimated saving is benefit − penalty and *can go negative*;
//! a candidate's saving is the sum over its derivation. Candidates are
//! ranked by saving (then by the old crossing score, then fewer states),
//! and [`Optimised::best`](crate::Optimised::best) only reports a winner
//! whose saving is strictly positive — an expensive reordering keeps the
//! projection instead.
//!
//! # Where the numbers come from
//!
//! [`CostModel::from_profile`] reads the machine-readable `edge_costs`
//! section of the artifact `fig6 --json --edge-costs` writes:
//! per link class (in-process SPSC, loopback TCP, UDS), a send base
//! cost, a receive base cost and a per-byte transfer cost, each fitted
//! from two payload sizes of the corresponding microbenchmark.
//! [`CostModel::default_table`] is the documented fallback when no
//! profile is supplied: a static table of round defaults (SPSC
//! ≈ 15 ns/token, a 1 KiB payload ≈ 380 ns → ≈ 0.36 ns/byte; loopback
//! sockets in the tens of µs per frame), so the ranking is sensible out
//! of the box and measured on the deploying host with `--costs`.
//!
//! Sends are priced on the edge towards their peer, receives on the edge
//! from theirs; [`CostModel::set_edge`] pins a per-peer override (used by
//! the monotonicity property tests and available to tools that know the
//! deployment topology), otherwise every edge uses the model's default
//! link class — in-process SPSC, the data plane generated code runs on.
//!
//! # Payload wire sizes
//!
//! [`wire_size`] maps a payload [`Sort`] to the byte count the wire
//! layer moves for it, mirroring `rumpsteak::wire`: `unit` 0, `bool` 1,
//! 32-bit ints 4, 64-bit ints and floats 8. Sorts whose size the type
//! alone cannot determine use documented defaults: `str` 1024 (the
//! smaller burst-bench payload), custom sorts 16384 (the bulky
//! burst-bench payload — `buffer` in the double-buffering protocol).

use std::collections::BTreeMap;
use std::fmt;

use theory::json;
use theory::json_record;
use theory::name::Name;
use theory::sort::Sort;

use crate::rewrite::Step;

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

/// Measured (or defaulted) cost of moving one message over one edge.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeCost {
    /// Fixed cost of the send side of one message, in ns.
    pub send_base_ns: f64,
    /// Fixed cost of the receive side of one message, in ns.
    pub recv_base_ns: f64,
    /// Marginal cost per payload byte, in ns.
    pub ns_per_byte: f64,
}

impl EdgeCost {
    /// Cost of receiving one message with a `bytes`-byte payload: the
    /// latency a send stops paying for each receive it is hoisted past.
    pub fn receive_ns(&self, bytes: usize) -> f64 {
        self.recv_base_ns + self.ns_per_byte * bytes as f64
    }

    /// Occupancy penalty of hoisting a `bytes`-byte payload onto this
    /// edge earlier than the projection would.
    pub fn occupancy_ns(&self, bytes: usize) -> f64 {
        OCCUPANCY_FACTOR * self.ns_per_byte * bytes as f64
    }
}

json_record! {
    /// The `edge_costs` section of a `fig6 --json --edge-costs` artifact,
    /// the measured profile [`CostModel::from_profile`] loads.
    #[derive(Clone, Debug, PartialEq)]
    pub struct EdgeCosts {
        /// Always `"ns"`.
        pub unit: String,
        /// One measured cost table per link class.
        pub classes: Vec<ClassCost>,
    }
}

json_record! {
    /// One link class's measured [`EdgeCost`], keyed by class name.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ClassCost {
        /// Class name (`spsc`, `tcp`, `uds`).
        pub class: String,
        /// Fixed cost of the send side of one message, in ns.
        pub send_base_ns: f64,
        /// Fixed cost of the receive side of one message, in ns.
        pub recv_base_ns: f64,
        /// Marginal cost per payload byte, in ns.
        pub ns_per_byte: f64,
    }
}

/// Where a [`CostModel`]'s numbers came from, recorded in reports so a
/// reader can tell a measured ranking from the static fallback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CostSource {
    /// The documented static table (no profile supplied).
    DefaultTable,
    /// An `edge_costs` section measured by `fig6 --json --edge-costs`.
    Measured,
}

impl fmt::Display for CostSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostSource::DefaultTable => f.write_str("default-table"),
            CostSource::Measured => f.write_str("measured"),
        }
    }
}

/// Errors loading a measured profile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CostError {
    /// The profile is not well-formed JSON.
    Json(String),
    /// The profile has no `edge_costs` section (run
    /// `fig6 --json --edge-costs` to produce one).
    MissingSection,
    /// The `edge_costs` section is malformed.
    Malformed(String),
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::Json(error) => write!(f, "profile is not valid JSON: {error}"),
            CostError::MissingSection => f.write_str(
                "profile has no `edge_costs` section; regenerate it with \
                 `fig6 --json --edge-costs`",
            ),
            CostError::Malformed(what) => write!(f, "malformed `edge_costs` section: {what}"),
        }
    }
}

impl std::error::Error for CostError {}

/// The per-edge cost table driving estimated-ns-saved scoring.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Cost per link class, keyed by class name (`spsc`, `tcp`, `uds`).
    classes: BTreeMap<String, EdgeCost>,
    /// The class priced for edges without an override: the in-process
    /// SPSC ring, the data plane generated code runs on.
    default_class: String,
    /// Per-peer overrides for tools that know the topology.
    overrides: BTreeMap<Name, EdgeCost>,
    source: CostSource,
}

impl CostModel {
    /// The documented static fallback (see module docs).
    pub fn default_table() -> Self {
        let mut classes = BTreeMap::new();
        // Documented defaults: a token burst ≈ 14.5 ns/message, a 1 KiB
        // payload burst ≈ 379 ns → slope ≈ (379 − 14.5) / 1024
        // ≈ 0.36 ns/byte.
        classes.insert(
            "spsc".to_owned(),
            EdgeCost {
                send_base_ns: 15.0,
                recv_base_ns: 15.0,
                ns_per_byte: 0.36,
            },
        );
        // Documented defaults: a loopback round trip of 60–120 µs, i.e.
        // tens of µs per framed one-way hop, split evenly between the
        // two sides.
        classes.insert(
            "tcp".to_owned(),
            EdgeCost {
                send_base_ns: 15000.0,
                recv_base_ns: 15000.0,
                ns_per_byte: 1.0,
            },
        );
        classes.insert(
            "uds".to_owned(),
            EdgeCost {
                send_base_ns: 12000.0,
                recv_base_ns: 12000.0,
                ns_per_byte: 1.0,
            },
        );
        CostModel {
            classes,
            default_class: "spsc".to_owned(),
            overrides: BTreeMap::new(),
            source: CostSource::DefaultTable,
        }
    }

    /// Loads the `edge_costs` section of a `fig6 --json --edge-costs`
    /// artifact. Classes present in the profile
    /// replace the default table's entries; the rest keep their
    /// documented fallbacks, so a partial profile still ranks sensibly.
    pub fn from_profile(profile: &str) -> Result<Self, CostError> {
        let profile = json::parse(profile).map_err(|e| CostError::Json(e.to_string()))?;
        let section: Option<EdgeCosts> = profile
            .field("edge_costs")
            .map_err(|e| CostError::Malformed(e.to_string()))?;
        let section = section.ok_or(CostError::MissingSection)?;
        if section.classes.is_empty() {
            return Err(CostError::Malformed("`classes` array is empty".into()));
        }
        let mut model = CostModel::default_table();
        model.source = CostSource::Measured;
        for ClassCost {
            class,
            send_base_ns,
            recv_base_ns,
            ns_per_byte,
        } in section.classes
        {
            let cost = EdgeCost {
                send_base_ns,
                recv_base_ns,
                ns_per_byte,
            };
            if !(send_base_ns >= 0.0 && recv_base_ns >= 0.0 && ns_per_byte >= 0.0) {
                return Err(CostError::Malformed(format!(
                    "class `{class}` has a negative cost"
                )));
            }
            model.classes.insert(class, cost);
        }
        Ok(model)
    }

    /// Where this model's numbers came from.
    pub fn source(&self) -> CostSource {
        self.source
    }

    /// The cost table of one link class, if present.
    pub fn class(&self, name: &str) -> Option<&EdgeCost> {
        self.classes.get(name)
    }

    /// Pins the cost of every edge to/from `peer`, overriding the
    /// default link class for that peer.
    pub fn set_edge(&mut self, peer: impl Into<Name>, cost: EdgeCost) {
        self.overrides.insert(peer.into(), cost);
    }

    /// The cost of the edge shared with `peer`: its override if pinned,
    /// else the model's default link class.
    pub fn edge(&self, peer: &Name) -> &EdgeCost {
        self.overrides.get(peer).unwrap_or_else(|| {
            self.classes
                .get(&self.default_class)
                .expect("default class always present")
        })
    }

    /// Estimated nanoseconds one rewrite step saves (negative when the
    /// occupancy penalty outweighs the crossing benefit).
    ///
    /// * hoists past a receive stop paying that receive's latency but
    ///   occupy the send edge earlier;
    /// * hoisting out of external-choice branches conservatively banks
    ///   the *cheapest* crossed branch's latency;
    /// * an anticipation crosses one whole loop iteration: every receive
    ///   in the loop body, against the occupancy of its own payload;
    /// * send-past-send and receive-receive swaps are enabling-only.
    pub fn step_saving_ns(&self, step: &Step) -> f64 {
        match step {
            Step::HoistPastReceive {
                send_peer,
                receive_peer,
                send_sorts,
                receive_sort,
            } => {
                let benefit = self.edge(receive_peer).receive_ns(wire_size(receive_sort));
                benefit - self.edge(send_peer).occupancy_ns(max_size(send_sorts))
            }
            Step::HoistFromBranches {
                send_peer,
                receive_peer,
                sort,
                receive_sorts,
                ..
            } => {
                let crossed = self.edge(receive_peer);
                let benefit = receive_sorts
                    .iter()
                    .map(|s| crossed.receive_ns(wire_size(s)))
                    .fold(f64::INFINITY, f64::min);
                let benefit = if benefit.is_finite() { benefit } else { 0.0 };
                benefit - self.edge(send_peer).occupancy_ns(wire_size(sort))
            }
            Step::Anticipate {
                peer,
                sort,
                crossed_receives,
                ..
            } => {
                let benefit: f64 = crossed_receives
                    .iter()
                    .map(|(from, s)| self.edge(from).receive_ns(wire_size(s)))
                    .sum();
                benefit - self.edge(peer).occupancy_ns(wire_size(sort))
            }
            Step::HoistPastSend { .. } | Step::SwapReceives { .. } => 0.0,
        }
    }

    /// Estimated nanoseconds a whole derivation saves: the sum of its
    /// steps' savings.
    pub fn saving_ns(&self, derivation: &[Step]) -> f64 {
        derivation.iter().map(|s| self.step_saving_ns(s)).sum()
    }
}

/// Largest wire size among a choice's branch payloads (the conservative
/// occupancy estimate for hoisting the whole choice).
fn max_size(sorts: &[Sort]) -> usize {
    sorts.iter().map(wire_size).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROFILE: &str = r#"{
      "bench": "fig6",
      "results": [],
      "edge_costs": {
        "unit": "ns",
        "classes": [
          {"class": "spsc", "send_base_ns": 20.0, "recv_base_ns": 30.0, "ns_per_byte": 0.5},
          {"class": "tcp", "send_base_ns": 40000, "recv_base_ns": 41000, "ns_per_byte": 2.5}
        ]
      }
    }"#;

    #[test]
    fn profile_overrides_default_classes() {
        let model = CostModel::from_profile(PROFILE).unwrap();
        assert_eq!(model.source(), CostSource::Measured);
        assert_eq!(model.class("spsc").unwrap().recv_base_ns, 30.0);
        assert_eq!(model.class("tcp").unwrap().ns_per_byte, 2.5);
        // Classes absent from the profile keep the documented fallback.
        assert_eq!(model.class("uds"), CostModel::default_table().class("uds"));
    }

    #[test]
    fn missing_section_is_a_distinct_error() {
        assert_eq!(
            CostModel::from_profile(r#"{"results": []}"#),
            Err(CostError::MissingSection)
        );
        assert!(matches!(
            CostModel::from_profile("not json"),
            Err(CostError::Json(_))
        ));
        assert!(matches!(
            CostModel::from_profile(r#"{"edge_costs": {"classes": []}}"#),
            Err(CostError::Malformed(_))
        ));
        assert!(matches!(
            CostModel::from_profile(
                r#"{"edge_costs": {"unit": "ns", "classes": [{"class": "spsc",
                    "send_base_ns": -1.0, "recv_base_ns": 1.0, "ns_per_byte": 0}]}}"#
            ),
            Err(CostError::Malformed(_))
        ));
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        assert!(matches!(
            CostModel::from_profile(&"[".repeat(100_000)),
            Err(CostError::Json(_))
        ));
    }

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
        let model = CostModel::default_table();
        let cheap = Step::HoistPastReceive {
            send_peer: "q".into(),
            receive_peer: "p".into(),
            send_sorts: vec![Sort::I32],
            receive_sort: Sort::Unit,
        };
        let bulky = Step::HoistPastReceive {
            send_peer: "q".into(),
            receive_peer: "p".into(),
            send_sorts: vec![Sort::Str],
            receive_sort: Sort::Unit,
        };
        assert!(model.step_saving_ns(&cheap) > model.step_saving_ns(&bulky));
        // The bulky hoist's occupancy outweighs crossing a bare token.
        assert!(model.step_saving_ns(&bulky) < 0.0);
    }

    #[test]
    fn per_peer_override_changes_only_that_edge() {
        let mut model = CostModel::default_table();
        let base = model.step_saving_ns(&Step::HoistPastReceive {
            send_peer: "q".into(),
            receive_peer: "p".into(),
            send_sorts: vec![Sort::I32],
            receive_sort: Sort::Unit,
        });
        model.set_edge(
            "q",
            EdgeCost {
                send_base_ns: 15.0,
                recv_base_ns: 15.0,
                ns_per_byte: 100.0,
            },
        );
        let inflated = model.step_saving_ns(&Step::HoistPastReceive {
            send_peer: "q".into(),
            receive_peer: "p".into(),
            send_sorts: vec![Sort::I32],
            receive_sort: Sort::Unit,
        });
        assert!(inflated < base);
        // An edge not involving `q` is untouched.
        let other = Step::HoistPastReceive {
            send_peer: "r".into(),
            receive_peer: "p".into(),
            send_sorts: vec![Sort::I32],
            receive_sort: Sort::Unit,
        };
        assert_eq!(
            model.step_saving_ns(&other),
            CostModel::default_table().step_saving_ns(&other)
        );
    }
}
