//! The benchmark's declared surface: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repo root is generated from these tables (`benchmark manifest`) and a
//! unit test keeps the committed file equal to them.

use std::fmt::Write as _;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 15;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "stream_alt",
        why: "strictly alternating smallest messages in process: every message pays future, ring slot, waker handoff and scheduler wake",
    },
    Workload {
        name: "stream_amr",
        why: "same links with the AMR source sending 5 values ahead: ring throughput and batch receive dominate, wakes are rare",
    },
    Workload {
        name: "churn",
        why: "short 3-role sessions back to back from 16 clients on one worker: link allocation, spawn, first-poll delay and teardown dominate",
    },
    Workload {
        name: "stream_tcp",
        why: "the alternating program over NetLink on loopback TCP, window 1: latency-bound codec, framing, thread bridge and socket hop",
    },
    Workload {
        name: "burst_tcp",
        why: "the AMR program over NetLink with 16 KiB values, window 6: throughput-bound coalescing, copies and per-byte codec cost",
    },
    Workload {
        name: "verify_kmc",
        why: "Scribble to projection to FSM to k-MC over a fixed corpus: the runtime does nothing, so runtime and transport changes must not move it",
    },
    Workload {
        name: "verify_amr",
        why: "AMR optimiser plus asynchronous subtyping over nested choices, unrolls and pipelines: subtyping-bound, k-MC does little",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every run with `--trace 0` reports each of these, on every workload;
/// what one *operation* is per workload is fixed in the README.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Every run with `--trace 1` reports each of these; a layer the
/// workload does not pass through reports 0.
pub const PER_LAYER: &[PerLayer] = &[
    // Session typestate layer: spans in role code, and the workload's
    // cost minus the `bidirectional` rung below it.
    layer("rumpsteak.session.send_ns", "ns", Lower),
    layer("rumpsteak.session.recv_ns", "ns", Lower),
    layer("rumpsteak.session.calls", "count", Lower),
    layer("rumpsteak.session.alt_self_ns_per_msg", "ns", Lower),
    layer("rumpsteak.session.win_self_ns_per_msg", "ns", Lower),
    // Channel rungs: the workload's message sequence replayed without
    // typestates (`alt` alternating, `win` five values ahead).
    layer("executor.channel.bidirectional.alt_ns_per_msg", "ns", Lower),
    layer("executor.channel.bidirectional.win_ns_per_msg", "ns", Lower),
    layer("executor.channel.spsc.alt_ns_per_msg", "ns", Lower),
    layer("executor.channel.spsc.win_ns_per_msg", "ns", Lower),
    // Scheduler.
    layer("executor.runtime.yield_ns", "ns", Lower),
    layer("executor.runtime.spawn_join_ns", "ns", Lower),
    layer("executor.runtime.spawn_ns", "ns", Lower),
    layer("executor.runtime.start_delay_ns", "ns", Lower),
    layer("rumpsteak.role.connect_ns", "ns", Lower),
    // Transport ladder, floor first.
    layer("host.loopback.rtt_us", "us", Lower),
    layer("host.loopback.stream_ns_per_msg", "ns", Lower),
    layer("rumpsteak.wire.encode_ns", "ns", Lower),
    layer("rumpsteak.wire.decode_ns", "ns", Lower),
    layer("rumpsteak.wire.encode_ns_16k", "ns", Lower),
    layer("rumpsteak.wire.decode_ns_16k", "ns", Lower),
    layer("rumpsteak.net.frame.encode_ns", "ns", Lower),
    layer("rumpsteak.net.frame.decode_ns", "ns", Lower),
    layer("rumpsteak.net.netlink.rtt_us", "us", Lower),
    layer("rumpsteak.net.netlink.stream_ns_per_msg", "ns", Lower),
    layer("rumpsteak.net.netlink.setup_us", "us", Lower),
    layer("rumpsteak.net.netlink.teardown_us", "us", Lower),
    layer("rumpsteak.net.netlink.self_rtt_us", "us", Lower),
    layer("rumpsteak.net.bytes_per_msg", "count", Lower),
    // Whole process, over the counted phase of the traced run.
    layer("process.cpu_util", "frac", Lower),
    layer("process.ctx_switches_per_op", "count", Lower),
    layer("process.threads", "count", Lower),
    layer("process.allocs_per_op", "count", Lower),
    layer("process.alloc_bytes_per_op", "count", Lower),
    // Verification pipeline, per corpus pass.
    layer("theory.parse_s", "s", Lower),
    layer("theory.project_s", "s", Lower),
    layer("theory.fsm_s", "s", Lower),
    layer("theory.fsm_states", "count", Lower),
    layer("kmc.check_s", "s", Lower),
    layer("kmc.configurations", "count", Lower),
    layer("kmc.transitions", "count", Lower),
    layer("kmc.configs_per_s", "1/s", Higher),
    layer("codegen.emit_s", "s", Lower),
    layer("codegen.bounds_s", "s", Lower),
    layer("codegen.emit_bytes", "count", Lower),
    layer("subtyping.check_s", "s", Lower),
    layer("subtyping.visited_pairs", "count", Lower),
    layer("subtyping.pairs_per_s", "1/s", Higher),
    layer("optimiser.optimise_s", "s", Lower),
    layer("optimiser.generated", "count", Lower),
    layer("optimiser.verified", "count", Higher),
    layer("optimiser.pruned", "count", Lower),
    layer("optimiser.verified_frac", "frac", Higher),
    // Open-loop latency of `churn` next to the generator's own lateness:
    // diagnostics, not end-to-end metrics (see the README).
    layer("churn.lat_p50_us", "us", Lower),
    layer("churn.lat_p90_us", "us", Lower),
    layer("churn.lat_p99_us", "us", Lower),
    layer("churn.lat_p999_us", "us", Lower),
    layer("loadgen.late_p99_us", "us", Lower),
    // The tracer itself.
    layer("trace.overhead_frac", "frac", Lower),
    layer("trace.coverage_frac", "frac", Higher),
];

pub fn is_declared(name: &str) -> bool {
    END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name)
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, unit)| (n == name).then_some(unit))
        .unwrap_or("")
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let mut section = |name: &str, rows: Vec<String>, last: bool| {
        let _ = writeln!(out, "  \"{name}\": [");
        for (i, row) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(out, "    {{{row}}}{comma}");
        }
        out.push_str(if last { "  ]\n" } else { "  ],\n" });
    };
    section(
        "workloads",
        WORKLOADS
            .iter()
            .map(|w| format!("\"name\": \"{}\", \"why\": \"{}\"", w.name, w.why))
            .collect(),
        false,
    );
    let metric = |name: &str, unit: &str, better: Better| {
        format!(
            "\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"",
            better.as_str()
        )
    };
    section(
        "end_to_end",
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{}, \"bound\": {}",
                    metric(m.name, m.unit, m.better),
                    m.bound
                )
            })
            .collect(),
        false,
    );
    section(
        "per_layer",
        PER_LAYER
            .iter()
            .map(|m| metric(m.name, m.unit, m.better))
            .collect(),
        true,
    );
    out.push_str("}\n");
    out
}

/// The one-line JSON result the run ends with.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            json_number(*value),
            unit_of(name)
        );
    }
    out.push_str("}}");
    out
}

/// A finite JSON number with all the digits measured (`{}` on an `f64`
/// prints the shortest text that round-trips).
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest_json(),
            "regenerate with `benchmark manifest`"
        );
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(true, 10, 0, &[("setup_s", 0.25), ("ops_per_s", 1e6)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 1000000, \"unit\": \"1/s\"}}}"
        );
    }
}
