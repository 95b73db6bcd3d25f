//! Command-line interface to the k-multiparty compatibility checker.
//!
//! ```text
//! kmc <system-file> [--k N]
//! ```
//!
//! The system file contains one participant per line:
//!
//! ```text
//! s: rec x . t?ready . +{ t!value.x, t!stop.end }
//! t: rec x . s!ready . &{ s?value.x, s?stop.end }
//! ```
//!
//! Exits 0 when the system is k-MC safe, 1 on a violation, 2 on a usage,
//! I/O or system error (a file with no machine in it is one).

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path = None;
    let mut k = 1usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--k" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(value) if value >= 1 => k = value,
                _ => {
                    eprintln!("--k requires an integer >= 1");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: kmc <system-file> [--k N]");
                return ExitCode::SUCCESS;
            }
            other => path = Some(other.to_owned()),
        }
    }
    let Some(path) = path else {
        eprintln!("usage: kmc <system-file> [--k N]");
        return ExitCode::from(2);
    };

    let source = match std::fs::read_to_string(&path) {
        Ok(source) => source,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut specs = Vec::new();
    for (index, line) in source.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((role, body)) = line.split_once(':') else {
            eprintln!("{path}:{}: expected `role: local type`", index + 1);
            return ExitCode::from(2);
        };
        specs.push((role.trim().to_owned(), body.trim().to_owned()));
    }
    let specs: Vec<(&str, &str)> = specs
        .iter()
        .map(|(r, b)| (r.as_str(), b.as_str()))
        .collect();

    let system = match kmc::system_from_locals(&specs) {
        Ok(system) => system,
        Err(e) => {
            eprintln!("invalid system: {e}");
            return ExitCode::from(2);
        }
    };

    match kmc::explore(&system, k) {
        Ok(report) => {
            println!(
                "{}-MC safe: {} configurations, {} transitions{}",
                k,
                report.configurations,
                report.transitions,
                if report.exhaustive {
                    ""
                } else {
                    " (not k-exhaustive: verdict holds up to this bound)"
                }
            );
            ExitCode::SUCCESS
        }
        Err(violation) => {
            println!("violation: {violation}");
            ExitCode::FAILURE
        }
    }
}
