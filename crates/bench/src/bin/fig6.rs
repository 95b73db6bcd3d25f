//! Regenerates Fig 6 / Appendix C.1: runtime throughput tables.
//!
//! ```text
//! cargo run --release -p bench --bin fig6 [streaming|double-buffering|fft]
//! ```
//!
//! Prints one row per parameter value with the throughput (items/µs)
//! of every framework, in the same format as the paper's raw data
//! tables. Performance claims belong to `BENCHMARK.json` and the
//! `benchmark/` package.

use std::time::Duration;

use bench::protocols::{double_buffering, fft8, streaming};
use bench::timing::{measure, throughput};

/// Measurement budget and run cap of one table cell.
const BUDGET: Duration = Duration::from_millis(300);
const MAX_RUNS: usize = 50;

fn main() {
    let mut which: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "streaming" | "double-buffering" | "fft" | "all" => which = Some(arg),
            other => {
                eprintln!(
                    "unknown argument `{other}`; expected \
                     streaming|double-buffering|fft|all"
                );
                std::process::exit(2);
            }
        }
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
