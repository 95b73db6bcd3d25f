//! Regenerates Fig 6 / Appendix C.1: runtime throughput tables.
//!
//! ```text
//! cargo run --release -p bench --bin fig6 [streaming|double-buffering|fft]
//! cargo run --release -p bench [--features telemetry] --bin fig6 -- --json [--out PATH]
//! ```
//!
//! The default mode prints one row per parameter value with the
//! throughput (items/µs) of every framework, in the same format as the
//! paper's raw data tables.
//!
//! `--json` instead sweeps the Rumpsteak implementations (plus the
//! socket transport) across worker-thread counts and writes the
//! artifact (protocol × threads × ns/op) to `--out PATH`, by default
//! `fig6.json` in the system temp directory so a run never dirties the
//! working tree. The rows are mean-only smoke numbers: the sweep exists
//! to run the whole stack (under telemetry, to fill its tables).
//! Performance claims belong to `BENCHMARK.json` and the `benchmark/`
//! package.
//!
//! An instrumented build (`--features telemetry`) fills the artifact's
//! `"telemetry"` section: per-worker scheduler counters for every swept
//! thread count and one `"channels"` row per directed link, in-process
//! ring or socket — its high-watermark and window next to its
//! statically verified k-MC bound, its traffic (sends and wakes on a
//! ring; frames, bytes, window stalls and reconnects on a socket) and a
//! send→recv latency histogram (`p50`/`p90`/`p99`/`p999`/`max`: stamped
//! at slot commit and read at pop on a ring, taken from each frame's
//! sender timestamp on a socket). A `"sessions"` array reports
//! spawn-to-teardown lifetime quantiles per role. The run aborts if any
//! watermark or window exceeds its bound, a socket link's frames,
//! bytes or latency samples in disagree with what went out, or any
//! quantile ladder is non-monotone, so an instrumented sweep doubles as
//! an end-to-end check of the verifier's guarantee.

use std::time::Duration;

use bench::artifact::{Artifact, Row, Telemetry};
use bench::protocols::{double_buffering, fft8, streaming};
use bench::timing::{measure, throughput};
use bench::{check, transport};
use dep_telemetry as telemetry;
use theory::json::{self, Json};

/// Measurement budget and run cap of one table cell.
const BUDGET: Duration = Duration::from_millis(300);
const MAX_RUNS: usize = 50;

/// Measurement budget and run cap of one `--json` row; small, because
/// the sweep's rows carry no performance claim (see the module docs).
const SWEEP_BUDGET: Duration = Duration::from_millis(40);
const SWEEP_MAX_RUNS: usize = 5;

/// Worker-thread counts swept by `--json`.
const THREADS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let mut json = false;
    let mut out: Option<String> = None;
    let mut which: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--out" => match args.next() {
                Some(path) => out = Some(path),
                None => {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                }
            },
            "streaming" | "double-buffering" | "fft" | "all" => which = Some(arg),
            other => {
                eprintln!(
                    "unknown argument `{other}`; expected \
                     streaming|double-buffering|fft|all, --json, --out PATH"
                );
                std::process::exit(2);
            }
        }
    }
    if json && which.is_some() {
        eprintln!("--json always sweeps every protocol; drop the table name");
        std::process::exit(2);
    }
    if out.is_some() && !json {
        eprintln!("--out only applies to --json mode");
        std::process::exit(2);
    }

    if json {
        emit_json(out);
        return;
    }
    let which = which.unwrap_or_else(|| "all".into());

    let rt = executor::Runtime::with_default_threads();
    match which.as_str() {
        "streaming" => table_streaming(&rt),
        "double-buffering" => table_double_buffering(&rt),
        "fft" => table_fft(&rt),
        _ => {
            table_streaming(&rt);
            table_double_buffering(&rt);
            table_fft(&rt);
        }
    }
}

fn emit_json(out_path: Option<String>) {
    // Workload sizes: (streaming n, double-buffering n, fft columns).
    let (stream_n, buffer_n, fft_n) = (50, 10000, 1000);
    // Networked-transport microbenches: rounds per framed ping-pong run
    // and messages per k-bounded burst run (see `bench::transport`),
    // sized so that one run — which also connects and tears down its
    // socket pair — takes some tens of milliseconds.
    let (net_rounds, net_burst) = (2000u32, 20000u32);

    let mut results = Vec::new();
    let mut scheduler: Vec<(usize, telemetry::scheduler::RuntimeSnapshot)> = Vec::new();
    for threads in THREADS {
        let rt = executor::Runtime::new(threads);
        let mut bench = |protocol: &str, params: &[(&str, u64)], ops: u64, f: &mut dyn FnMut()| {
            let mean = measure(f, SWEEP_BUDGET, SWEEP_MAX_RUNS);
            results.push(Row {
                protocol: protocol.to_owned(),
                threads: threads as u64,
                params: params.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
                ops,
                ns_per_op: json::rounded(mean.as_nanos() as f64 / ops as f64, 1),
            });
        };

        // Networked transport: ping-pong and burst over the framed
        // socket path, windows capped at the k-MC bound (1 for
        // the alternating ping-pong, 64 for the burst). One op = one
        // framed round trip / one delivered frame.
        bench(
            "transport_tcp_pingpong",
            &[("rounds", net_rounds as u64)],
            u64::from(net_rounds),
            &mut || {
                transport::tcp_ping_pong(&rt, net_rounds);
            },
        );
        bench(
            "transport_uds_pingpong",
            &[("rounds", net_rounds as u64)],
            u64::from(net_rounds),
            &mut || {
                transport::uds_ping_pong(&rt, net_rounds);
            },
        );
        bench(
            "transport_tcp_burst",
            &[("messages", net_burst as u64)],
            u64::from(net_burst),
            &mut || {
                transport::tcp_burst(&rt, net_burst);
            },
        );
        // Projected vs AMR-optimised streaming, side by side, like the
        // double-buffering pair below.
        bench(
            "streaming_proj",
            &[("n", stream_n as u64)],
            u64::from(stream_n),
            &mut || {
                streaming::run_rumpsteak(&rt, stream_n, false);
            },
        );
        bench(
            "streaming",
            &[("n", stream_n as u64)],
            u64::from(stream_n),
            &mut || {
                streaming::run_rumpsteak(&rt, stream_n, true);
            },
        );
        // Projected vs AMR-optimised kernel, side by side: the optimised
        // type is exactly what the optimiser derives from the projection
        // (pinned by `optimiser_rediscovers_kernel_opt_from_serialized_type`),
        // so this pair is the throughput win of automatic reordering.
        bench(
            "double_buffering_proj",
            &[("n", buffer_n as u64)],
            buffer_n as u64,
            &mut || {
                double_buffering::run_rumpsteak(&rt, buffer_n, false);
            },
        );
        bench(
            "double_buffering",
            &[("n", buffer_n as u64)],
            buffer_n as u64,
            &mut || {
                double_buffering::run_rumpsteak(&rt, buffer_n, true);
            },
        );
        bench("fft", &[("n", fft_n as u64)], fft_n as u64, &mut || {
            fft8::run_rumpsteak(&rt, fft_n);
        });
        if telemetry::ENABLED {
            scheduler.push((threads, rt.telemetry()));
        }
    }

    // Every row must populate with a real timing.
    for row in &results {
        assert!(
            row.ns_per_op.is_finite() && row.ns_per_op > 0.0,
            "fig6 --json produced no timing for the `{}` row",
            row.protocol
        );
    }

    let artifact = Artifact {
        bench: "fig6".to_owned(),
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        unit: "ns/op".to_owned(),
        results,
        telemetry: telemetry::ENABLED.then(|| telemetry_section(&scheduler)),
    };
    if telemetry::ENABLED {
        let violations = check::telemetry(&artifact);
        assert!(
            violations.is_empty(),
            "instrumented sweep violates its invariants:\n  {}",
            violations.join("\n  ")
        );
    }
    let out = format!("{:#}\n", artifact.to_json());

    let path = out_path.map_or_else(
        || std::env::temp_dir().join("fig6.json"),
        std::path::PathBuf::from,
    );
    std::fs::write(&path, &out)
        .unwrap_or_else(|error| panic!("failed to write {}: {error}", path.display()));
    print!("{out}");
    eprintln!(
        "wrote {} ({} results)",
        path.display(),
        artifact.results.len()
    );
}

/// Snapshots the `"telemetry"` section, hard-failing if the bench's own
/// labelled links did not behave as their harness promises. (The
/// invariants every instrumented sweep must satisfy — watermarks and
/// windows within the verified k-MC bounds, monotone quantile ladders —
/// are `check::telemetry`, which the caller runs on the whole artifact.)
fn telemetry_section(scheduler: &[(usize, telemetry::scheduler::RuntimeSnapshot)]) -> Telemetry {
    let section = Telemetry::snapshot(scheduler);
    // The streaming session's `S -> T` link is the one session link
    // with a batch window (`bounds { S -> T: 6 }`) and it ran under
    // telemetry: check its batch economics end to end — whole windows
    // of messages per waker round-trip, not one wake per message.
    let link = section
        .channels
        .iter()
        .find(|l| l.from == "S" && l.to == "T")
        .expect("the streaming rows ran, so their `S -> T` link is registered");
    assert!(
        link.wakes < link.sends,
        "streaming `S -> T` link delivered {} wakes for {} sends — the \
         batch window saved no waker round-trips",
        link.wakes,
        link.sends,
    );
    // Every slot commit stamped and every pop read the stamp back: an
    // empty histogram here means the latency path is dead.
    assert!(
        link.latency.is_some(),
        "streaming `S -> T` link recorded {} sends but no send->recv \
         latency samples",
        link.sends,
    );
    section
}

/// Prints one Fig 6 table: a row per size in `sizes`, a throughput cell
/// (items/µs) per framework in `runs`.
fn table<R>(title: &str, frameworks: &[&str], sizes: [usize; 5], runs: &[&dyn Fn(usize) -> R]) {
    println!("# Fig 6 / C.1 — {title}");
    println!("n\t{}", frameworks.join("\t"));
    for n in sizes {
        let cell = |run: &&dyn Fn(usize) -> R| {
            let mean = measure(|| drop(std::hint::black_box(run(n))), BUDGET, MAX_RUNS);
            format!("{:.6}", throughput(n, mean))
        };
        let cells: Vec<String> = runs.iter().map(cell).collect();
        println!("{n}\t{}", cells.join("\t"));
    }
    println!();
}

const FRAMEWORKS: [&str; 5] = [
    "Sesh",
    "MultiCrusty",
    "Ferrite",
    "Rumpsteak",
    "Rumpsteak(opt)",
];

fn table_streaming(rt: &executor::Runtime) {
    table(
        "Streaming: throughput (n/us) vs values transferred",
        &FRAMEWORKS,
        [10, 20, 30, 40, 50],
        &[
            &|n| streaming::run_sesh(n as u32),
            &|n| streaming::run_multicrusty(n as u32),
            &|n| streaming::run_ferrite(rt, n as u32),
            &|n| streaming::run_rumpsteak(rt, n as u32, false),
            &|n| streaming::run_rumpsteak(rt, n as u32, true),
        ],
    );
}

fn table_double_buffering(rt: &executor::Runtime) {
    table(
        "Double buffering: throughput (n/us) vs buffer size",
        &FRAMEWORKS,
        [5000, 10000, 15000, 20000, 25000],
        &[
            &|n| double_buffering::run_sesh(n),
            &|n| double_buffering::run_multicrusty(n),
            &|n| double_buffering::run_ferrite(rt, n),
            &|n| double_buffering::run_rumpsteak(rt, n, false),
            &|n| double_buffering::run_rumpsteak(rt, n, true),
        ],
    );
}

fn table_fft(rt: &executor::Runtime) {
    table(
        "FFT: throughput (n/us) vs matrix columns",
        &["Sesh", "MultiCrusty", "Ferrite", "RustFFT", "Rumpsteak"],
        [1000, 2000, 3000, 4000, 5000],
        &[
            &|n| fft8::run_sesh(n),
            &|n| fft8::run_multicrusty(n),
            &|n| fft8::run_ferrite(rt, n),
            &|n| fft8::run_sequential(n),
            &|n| fft8::run_rumpsteak(rt, n),
        ],
    );
}
