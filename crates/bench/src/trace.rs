//! Chrome trace-event rendering of `telemetry::trace` dumps, behind the
//! `rumpsteak-trace` binary.
//!
//! The recorder (`telemetry`) stays dependency-free and only knows its
//! text dump; turning dumps into the JSON document `chrome://tracing`
//! and <https://ui.perfetto.dev> load happens here, through the
//! workspace's one JSON writer.

use std::collections::BTreeMap;

use dep_telemetry::trace::{Kind, ProcessDump, TraceEvent};
use theory::json::Value;

/// Per-edge frame-flow accounting from a merge: how many frame sends
/// and receives each directed edge contributed, and how many were
/// matched into flow events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EdgeFlows {
    /// Sending role.
    pub from: String,
    /// Receiving role.
    pub to: String,
    /// `frame_send` events seen for the edge.
    pub sends: u64,
    /// `frame_recv` events seen for the edge.
    pub recvs: u64,
    /// Send/receive pairs matched into flow events.
    pub matched: u64,
}

/// Summary returned beside the merged timeline.
#[derive(Clone, Debug, Default)]
pub struct MergeReport {
    /// Flow events emitted (matched send→recv pairs).
    pub flows: u64,
    /// Per directed edge accounting, sorted by `(from, to)`.
    pub edges: Vec<EdgeFlows>,
}

/// Renders per-process dumps as one Chrome trace-event timeline; a
/// single dump is simply a timeline with one process lane.
///
/// The first dump is the reference clock; every other dump's
/// timestamps are shifted by the handshake-measured offset (looked up
/// in the reference's table, or the negated inverse in the dump's
/// own). Each process becomes a `pid` lane with its threads as `tid`s;
/// every `frame_send` is connected to the `frame_recv` with the same
/// `(from, to, seq)` key by a Chrome flow event (`ph:"s"` → `ph:"f"`),
/// which Perfetto draws as an arrow across the process lanes.
pub fn merge_chrome_trace(dumps: &[ProcessDump]) -> (Value, MergeReport) {
    // Clock shift per dump, into the reference (first) dump's epoch.
    let shifts: Vec<i64> = dumps
        .iter()
        .enumerate()
        .map(|(index, dump)| {
            if index == 0 {
                return 0;
            }
            if let Some((_, offset)) = dumps[0]
                .peer_offsets
                .iter()
                .find(|(peer, _)| *peer == dump.process)
            {
                // offset = dump_clock - ref_clock.
                return -offset;
            }
            if let Some((_, offset)) = dump
                .peer_offsets
                .iter()
                .find(|(peer, _)| *peer == dumps[0].process)
            {
                // offset = ref_clock - dump_clock.
                return *offset;
            }
            0
        })
        .collect();

    // Flatten with shifted timestamps; normalise so the earliest event
    // sits at t = 0 (Chrome dislikes negative timestamps).
    struct Placed {
        pid: u64,
        tid: u64,
        ts_ns: i64,
        event: TraceEvent,
    }
    let mut placed: Vec<Placed> = Vec::new();
    for (index, dump) in dumps.iter().enumerate() {
        for (tid, trace) in dump.traces.iter().enumerate() {
            for event in &trace.events {
                placed.push(Placed {
                    pid: index as u64 + 1,
                    tid: tid as u64,
                    ts_ns: event.t_ns as i64 + shifts[index],
                    event: *event,
                });
            }
        }
    }
    let base = placed.iter().map(|p| p.ts_ns).min().unwrap_or(0);
    for p in &mut placed {
        p.ts_ns -= base;
    }

    // Frame flow matching on (from, to, seq), in timestamp order per key.
    type FlowKey = (&'static str, &'static str, u64);
    let mut sends: BTreeMap<FlowKey, Vec<usize>> = BTreeMap::new();
    let mut recvs: BTreeMap<FlowKey, Vec<usize>> = BTreeMap::new();
    for (index, p) in placed.iter().enumerate() {
        if p.event.seq == 0 {
            continue;
        }
        let key = (p.event.role, p.event.peer, p.event.seq);
        match p.event.kind {
            Kind::FrameSend => sends.entry(key).or_default().push(index),
            Kind::FrameRecv => recvs.entry(key).or_default().push(index),
            _ => {}
        }
    }

    type EdgeMap = BTreeMap<(&'static str, &'static str), EdgeFlows>;
    fn edge_entry<'a>(
        edges: &'a mut EdgeMap,
        from: &'static str,
        to: &'static str,
    ) -> &'a mut EdgeFlows {
        edges.entry((from, to)).or_insert_with(move || EdgeFlows {
            from: from.to_owned(),
            to: to.to_owned(),
            sends: 0,
            recvs: 0,
            matched: 0,
        })
    }
    let mut edges: EdgeMap = BTreeMap::new();
    for (&(from, to, _), list) in &sends {
        edge_entry(&mut edges, from, to).sends += list.len() as u64;
    }
    for (&(from, to, _), list) in &recvs {
        edge_entry(&mut edges, from, to).recvs += list.len() as u64;
    }
    let mut flows: Vec<(usize, usize)> = Vec::new();
    for (key, send_list) in &sends {
        if let Some(recv_list) = recvs.get(key) {
            let matched = send_list.len().min(recv_list.len());
            edges
                .get_mut(&(key.0, key.1))
                .expect("edge registered")
                .matched += matched as u64;
            flows.extend(
                send_list
                    .iter()
                    .copied()
                    .zip(recv_list.iter().copied())
                    .take(matched),
            );
        }
    }

    // Render the merged document. Chrome expects microseconds; keep the
    // nanosecond precision as a fraction.
    let text = |s: &str| Value::String(s.to_owned());
    let ts_us = |ns: i64| Value::F64(ns as f64 / 1000.0);
    let named = |name: &str| Value::object([("name", text(name))]);
    let mut records = Vec::with_capacity(placed.len() + 2 * flows.len() + 2 * dumps.len());
    for (index, dump) in dumps.iter().enumerate() {
        let pid = Value::U64(index as u64 + 1);
        records.push(Value::object([
            ("name", text("process_name")),
            ("ph", text("M")),
            ("pid", pid.clone()),
            ("args", named(&dump.process)),
        ]));
        for (tid, trace) in dump.traces.iter().enumerate() {
            records.push(Value::object([
                ("name", text("thread_name")),
                ("ph", text("M")),
                ("pid", pid.clone()),
                ("tid", Value::U64(tid as u64)),
                ("args", named(&trace.thread)),
            ]));
        }
    }
    for p in &placed {
        let arrow = match p.event.kind {
            Kind::Send | Kind::Select | Kind::FrameSend => "->",
            Kind::Receive | Kind::Branch | Kind::FrameRecv => "<-",
        };
        records.push(Value::object([
            (
                "name",
                Value::String(format!("{} {arrow} {}", p.event.role, p.event.peer)),
            ),
            ("cat", text(p.event.kind.as_str())),
            ("ph", text("i")),
            ("s", text("t")),
            ("pid", Value::U64(p.pid)),
            ("tid", Value::U64(p.tid)),
            ("ts", ts_us(p.ts_ns)),
            (
                "args",
                Value::object([
                    ("label", text(p.event.label)),
                    ("peer", text(p.event.peer)),
                    ("seq", Value::U64(p.event.seq)),
                ]),
            ),
        ]));
    }
    for (flow_id, &(send_index, recv_index)) in flows.iter().enumerate() {
        let send = &placed[send_index];
        let recv = &placed[recv_index];
        // Offset-estimation error can place the receive marginally
        // before the send; clamp so the arrow always points forward.
        let recv_ts = recv.ts_ns.max(send.ts_ns);
        for (phase, end, ts_ns) in [("s", send, send.ts_ns), ("f", recv, recv_ts)] {
            let mut record = vec![
                (
                    "name",
                    Value::String(format!("{} => {}", send.event.role, send.event.peer)),
                ),
                ("cat", text("frame-flow")),
                ("ph", text(phase)),
                ("id", Value::U64(flow_id as u64)),
                ("pid", Value::U64(end.pid)),
                ("tid", Value::U64(end.tid)),
                ("ts", ts_us(ts_ns)),
            ];
            if phase == "f" {
                // Bind the arrow head to the enclosing slice's end.
                record.push(("bp", text("e")));
            }
            records.push(Value::object(record));
        }
    }

    let report = MergeReport {
        flows: flows.len() as u64,
        edges: edges.into_values().collect(),
    };
    let document = Value::object([
        ("displayTimeUnit", text("ns")),
        ("traceEvents", Value::Array(records)),
    ]);
    (document, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dep_telemetry::trace::ThreadTrace;

    fn dump(
        process: &str,
        offsets: &[(&str, i64)],
        thread: &str,
        events: Vec<TraceEvent>,
    ) -> ProcessDump {
        ProcessDump {
            process: process.into(),
            peer_offsets: offsets.iter().map(|(p, o)| ((*p).to_owned(), *o)).collect(),
            traces: vec![ThreadTrace {
                thread: thread.into(),
                events,
                dropped: 0,
            }],
        }
    }

    fn frame_event(kind: Kind, t_ns: u64, seq: u64) -> TraceEvent {
        TraceEvent {
            t_ns,
            kind,
            role: "S",
            peer: "T",
            label: "frame",
            seq,
        }
    }

    /// The `traceEvents` of a document.
    fn events_of(document: &Value) -> &[Value] {
        match document.get("traceEvents") {
            Some(Value::Array(events)) => events,
            other => panic!("no traceEvents array: {other:?}"),
        }
    }

    fn with_member<'a>(events: &'a [Value], key: &str, value: &str) -> Vec<&'a Value> {
        let value = Value::String(value.to_owned());
        events
            .iter()
            .filter(|e| e.get(key) == Some(&value))
            .collect()
    }

    #[test]
    fn chrome_json_shape() {
        let event = TraceEvent {
            t_ns: 1500,
            kind: Kind::Send,
            role: "S",
            peer: "T",
            label: "Value",
            seq: 0,
        };
        let early = TraceEvent { t_ns: 0, ..event };
        let (document, report) =
            merge_chrome_trace(&[dump("solo", &[], "worker-0", vec![early, event])]);
        assert_eq!(report.flows, 0);
        let events = events_of(&document);
        assert_eq!(with_member(events, "name", "process_name").len(), 1);
        let threads = with_member(events, "name", "thread_name");
        assert_eq!(
            threads[0].get("args").and_then(|a| a.get("name")),
            Some(&Value::String("worker-0".into()))
        );
        let sends = with_member(events, "cat", "send");
        assert_eq!(sends.len(), 2);
        assert_eq!(sends[1].get("ts"), Some(&Value::F64(1.5)));
        assert_eq!(
            sends[1].get("args").and_then(|a| a.get("label")),
            Some(&Value::String("Value".into()))
        );
    }

    #[test]
    fn json_escapes_control_characters() {
        let (document, _) = merge_chrome_trace(&[dump("a\"b\\c\nd", &[], "t\u{1}", vec![])]);
        let text = document.to_string();
        assert!(text.contains(r#""a\"b\\c\nd""#) && text.contains(r#""t\u0001""#));
        let events = events_of(&document);
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("name")),
            Some(&Value::String("a\"b\\c\nd".into()))
        );
    }

    #[test]
    fn merge_emits_flow_events_and_aligns_clocks() {
        // Process S stamps with a clock 1 ms ahead of T's; T measured
        // offset(S) = +1_000_000 during the handshake. T is the
        // reference (first dump).
        let t_dump = dump(
            "T",
            &[("S", 1_000_000)],
            "netlink-reader S->T",
            vec![frame_event(Kind::FrameRecv, 5_000, 1)],
        );
        let s_dump = dump(
            "S",
            &[],
            "netlink-writer S->T",
            vec![frame_event(Kind::FrameSend, 1_002_000, 1)],
        );
        let (document, report) = merge_chrome_trace(&[t_dump, s_dump]);
        assert_eq!(report.flows, 1);
        assert_eq!(report.edges.len(), 1);
        let edge = &report.edges[0];
        assert_eq!((edge.from.as_str(), edge.to.as_str()), ("S", "T"));
        assert_eq!((edge.sends, edge.recvs, edge.matched), (1, 1, 1));
        // Both phases of the flow pair are present, in distinct lanes.
        let events = events_of(&document);
        assert_eq!(with_member(events, "name", "process_name").len(), 2);
        let (start, finish) = (
            with_member(events, "ph", "s")[0],
            with_member(events, "ph", "f")[0],
        );
        assert_ne!(start.get("pid"), finish.get("pid"));
        // S's event shifted by -offset: 1_002_000 - 1_000_000 = 2_000 ns
        // against T's 5_000 ns; normalised base is 2_000, so the send
        // lands at ts 0 and the receive at 3 us.
        assert_eq!(start.get("ts"), Some(&Value::F64(0.0)));
        assert_eq!(finish.get("ts"), Some(&Value::F64(3.0)));
    }

    /// The merged timeline of a fixed two-process run, as
    /// `rumpsteak-trace --merge` writes it, byte for byte.
    #[test]
    fn two_process_timeline_is_pinned() {
        let t_dump = dump(
            "T",
            &[("S", 1_000_000)],
            "netlink-reader S->T",
            vec![
                frame_event(Kind::FrameRecv, 5_000, 1),
                TraceEvent {
                    label: "Value",
                    ..frame_event(Kind::Receive, 5_250, 0)
                },
            ],
        );
        let s_dump = dump(
            "S",
            &[],
            "netlink-writer S->T",
            vec![
                TraceEvent {
                    label: "Value",
                    ..frame_event(Kind::Send, 1_001_500, 0)
                },
                frame_event(Kind::FrameSend, 1_002_000, 1),
                frame_event(Kind::FrameSend, 1_002_700, 2),
            ],
        );
        let text = merge_chrome_trace(&[t_dump, s_dump]).0.to_string();
        // 64-bit FNV-1a, as `codegen`'s golden tests digest reports.
        let fnv1a = text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
            (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(
            fnv1a, 0x622791f2d3a79b83,
            "the merged timeline changed:\n{text}"
        );
    }

    #[test]
    fn merge_reports_unmatched_edges() {
        let only_sends = dump("A", &[], "w", vec![frame_event(Kind::FrameSend, 10, 1)]);
        let (_, report) = merge_chrome_trace(&[only_sends]);
        assert_eq!(report.flows, 0);
        assert_eq!(report.edges.len(), 1);
        assert_eq!(report.edges[0].matched, 0);
        assert_eq!(report.edges[0].sends, 1);
    }
}
