//! Checks the machine-readable files the toolchain emits: schema and
//! cross-field invariants, no timing comparison.
//!
//! ```text
//! bench-check report REPORT.json                # rumpsteak-gen --optimise --report output
//! bench-check trace TRACE.json                  # rumpsteak-trace output
//! ```
//!
//! A report is decoded into the type its producer wrote it from
//! (`optimiser::Report`), so a missing or mistyped member is reported
//! with its path; the cross-field invariants on top are documented on
//! `bench::check::report`.
//!
//! Exit codes: 0 pass, 1 malformed input or violated invariant, 2 usage
//! or I/O error.

use std::process::ExitCode;

use bench::check;
use theory::json::{self, Json, Value};

const USAGE: &str = "\
usage: bench-check report REPORT.json
       bench-check trace TRACE.json";

/// Reads and decodes `path`: `Err(2)` when unreadable, `Err(1)` when it
/// is not a well-formed `T`.
fn load<T: Json>(path: &str) -> Result<T, u8> {
    let text = std::fs::read_to_string(path).map_err(|error| {
        eprintln!("bench-check: cannot read {path}: {error}");
        2
    })?;
    json::decode(&text).map_err(|error| {
        eprintln!("bench-check: {path}: {error}");
        1
    })
}

fn run(args: &[String]) -> Result<Vec<String>, u8> {
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match args.as_slice() {
        ["report", path] => Ok(check::report(&load::<Vec<optimiser::Report>>(path)?)),
        ["trace", path] => Ok(match load::<Value>(path)?.get("traceEvents") {
            Some(Value::Array(events)) if !events.is_empty() => Vec::new(),
            _ => vec!["no non-empty `traceEvents` array".to_owned()],
        }),
        _ => {
            eprintln!("{USAGE}");
            Err(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(violations) if violations.is_empty() => {
            println!("bench-check {}: ok", args[0]);
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            eprintln!("bench-check {}: {} failure(s):", args[0], violations.len());
            for violation in violations {
                eprintln!("  {violation}");
            }
            ExitCode::FAILURE
        }
        Err(code) => ExitCode::from(code),
    }
}
