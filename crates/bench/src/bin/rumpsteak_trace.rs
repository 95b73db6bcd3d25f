//! Session-event trace recorder: runs the Fig 6 protocols once on the
//! instrumented runtime and dumps every recorded Send/Receive/Select/
//! Branch event as a Chrome trace-event JSON document, loadable in
//! `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! ```text
//! cargo run --release -p bench --features telemetry --bin rumpsteak-trace -- \
//!     [streaming|double-buffering|fft|all] [--threads N] [--out PATH]
//! ```
//!
//! Events are captured in per-thread lock-free drop-oldest rings, so a
//! trace is an *observation*, never a throttle: if a thread outran its
//! ring the overwritten count is reported on stderr and in the trace
//! metadata rather than silently missing. Without the `telemetry`
//! feature the binary exits with a pointer at the instrumented build —
//! the uninstrumented stack records nothing to dump.
//!
//! # Cross-process stitching
//!
//! ```text
//! rumpsteak-trace --merge s.trace t.trace [--out merged.json]
//! ```
//!
//! Each distributed role writes a per-process text dump when
//! `RUMPSTEAK_TRACE_OUT` is set; `--merge` parses the dumps, shifts
//! every timeline by the handshake-estimated clock offsets, and emits
//! one Chrome trace-event JSON document in which flow arrows connect
//! each wire frame's send to its receive. Exits non-zero if any
//! protocol edge saw frame sends but produced no matched flow — a
//! stitching regression, not a cosmetic defect.

use std::fmt::Write as _;

use bench::protocols::{double_buffering, fft8, streaming};
use dep_telemetry as telemetry;

/// Writes the timeline to `out_path`, or stdout without one.
fn write_document(json: &theory::json::Value, out_path: Option<String>) {
    match out_path {
        Some(path) => {
            std::fs::write(&path, json.to_string())
                .unwrap_or_else(|error| panic!("failed to write {path}: {error}"));
            eprintln!("wrote {path}");
        }
        None => println!("{json}"),
    }
}

/// Parses the dumps, merges them, writes the timeline, and reports
/// per-edge flow coverage; the process exit code is the check.
fn merge_dumps(paths: &[String], out_path: Option<String>) -> ! {
    if paths.len() < 2 {
        eprintln!("--merge needs at least two per-process dump files");
        std::process::exit(2);
    }
    let dumps: Vec<telemetry::trace::ProcessDump> = paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|error| panic!("failed to read {path}: {error}"));
            telemetry::trace::parse_dump(&text)
                .unwrap_or_else(|error| panic!("{path} is not a trace dump: {error}"))
        })
        .collect();
    let (json, report) = bench::trace::merge_chrome_trace(&dumps);
    write_document(&json, out_path);
    eprintln!(
        "{} flow event(s) across {} edge(s)",
        report.flows,
        report.edges.len()
    );
    let mut unmatched = false;
    for edge in &report.edges {
        eprintln!(
            "  {} -> {}: {} sends, {} recvs, {} matched",
            edge.from, edge.to, edge.sends, edge.recvs, edge.matched
        );
        if edge.sends > 0 && edge.matched == 0 {
            unmatched = true;
        }
    }
    if unmatched {
        eprintln!("error: an edge with frame sends produced no matched flow");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let mut out_path: Option<String> = None;
    let mut threads = 2usize;
    let mut which: Option<String> = None;
    let mut merge: Option<Vec<String>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--merge" => merge = Some(Vec::new()),
            "--out" => match args.next() {
                Some(path) => out_path = Some(path),
                None => {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => threads = n,
                _ => {
                    eprintln!("--threads requires a positive integer");
                    std::process::exit(2);
                }
            },
            "streaming" | "double-buffering" | "fft" | "all" => which = Some(arg),
            other => match &mut merge {
                // After --merge, positional arguments are dump files.
                Some(paths) if !other.starts_with('-') => paths.push(arg),
                _ => {
                    eprintln!(
                        "unknown argument `{other}`; expected \
                         streaming|double-buffering|fft|all, --threads N, --out PATH, \
                         or --merge DUMP... [--out PATH]"
                    );
                    std::process::exit(2);
                }
            },
        }
    }
    if let Some(paths) = merge {
        // Merging consumes dumps other processes already recorded, so
        // it works in any build.
        merge_dumps(&paths, out_path);
    }
    if !telemetry::ENABLED {
        eprintln!(
            "rumpsteak-trace records nothing without the instrumented build: \
             cargo run --release -p bench --features telemetry --bin rumpsteak-trace"
        );
        std::process::exit(2);
    }

    let which = which.unwrap_or_else(|| "all".into());
    let rt = executor::Runtime::new(threads);
    // Discard events from anything that ran before the workloads (none
    // expected, but keeps the trace self-contained).
    let _ = telemetry::trace::drain();

    if matches!(which.as_str(), "streaming" | "all") {
        let count = 200;
        assert_eq!(
            streaming::run_rumpsteak(&rt, count, true),
            streaming::expected(count)
        );
    }
    if matches!(which.as_str(), "double-buffering" | "all") {
        let size = 256;
        assert_eq!(
            double_buffering::run_rumpsteak(&rt, size, true),
            double_buffering::expected(size)
        );
    }
    if matches!(which.as_str(), "fft" | "all") {
        let rows = 64;
        let out = fft8::run_rumpsteak(&rt, rows);
        let reference = fft8::run_sequential(rows);
        assert!((fft8::checksum(&out) - fft8::checksum(&reference)).abs() < 1e-6);
    }

    let traces = telemetry::trace::drain();
    let events: usize = traces.iter().map(|t| t.events.len()).sum();
    let dropped: u64 = traces.iter().map(|t| t.dropped).sum();
    let mut summary = format!(
        "{events} events across {} threads ({dropped} dropped)",
        traces.len()
    );
    for trace in &traces {
        let _ = write!(
            summary,
            "\n  {}: {} events, {} dropped",
            trace.thread,
            trace.events.len(),
            trace.dropped
        );
    }
    let dump = telemetry::trace::ProcessDump {
        process: "rumpsteak-trace".to_owned(),
        peer_offsets: Vec::new(),
        traces,
    };
    let (json, _) = bench::trace::merge_chrome_trace(&[dump]);
    write_document(&json, out_path);
    eprintln!("{summary}");
    assert!(
        events > 0,
        "instrumented protocols produced no session events"
    );
}
