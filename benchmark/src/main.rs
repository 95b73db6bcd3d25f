//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--traced] [--out DIR]
//! benchmark check-repeat [--runs N] [--seconds S]
//! benchmark manifest
//! ```
//!
//! `run --workload W` measures one workload in this process, prints
//! every metric as `workload metric value unit`, and ends with one JSON
//! line. Without `--workload` it runs every workload, each in a fresh
//! process.

mod alloc;
mod ladder;
mod metrics;
mod procfs;
mod repeat;
mod seed;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::stream::{self, Spec};
use workloads::{Cfg, Outcome};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: benchmark run [--workload W] [--seed N] [--seconds S] \
    [--trace 0|1] [--traced] [--out DIR]\n       benchmark check-repeat [--runs N] [--seconds S]\n       benchmark manifest";

/// Parsed `run` arguments.
pub struct RunArgs {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub out_dir: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        traced: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?),
            "--seed" => {
                parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                parsed.seconds = seconds;
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--traced" => parsed.traced = true,
            "--out" => parsed.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Sizing of the four streaming workloads: trials of some tens of
/// milliseconds, long enough to amortise task start-up and short enough
/// that a run holds hundreds (the fast decile needs the count).
fn stream_spec(workload: &str) -> Option<Spec> {
    Some(match workload {
        "stream_alt" => Spec {
            amr: false,
            workers: 2,
            rounds: 100_000,
            warmup_rounds: 200_000,
            traced_rounds: 10_000,
        },
        "stream_amr" => Spec {
            amr: true,
            workers: 2,
            rounds: 400_000,
            warmup_rounds: 800_000,
            traced_rounds: 10_000,
        },
        "stream_tcp" => Spec {
            amr: false,
            workers: 1,
            rounds: 250,
            warmup_rounds: 1_000,
            traced_rounds: 250,
        },
        "burst_tcp" => Spec {
            amr: true,
            workers: 1,
            rounds: 100,
            warmup_rounds: 500,
            traced_rounds: 100,
        },
        _ => return None,
    })
}

fn run_workload(cfg: &Cfg) -> std::io::Result<Outcome> {
    if let Some(spec) = stream_spec(cfg.workload) {
        return match cfg.workload {
            "stream_tcp" => stream::run::<stream::tcp::Tcp>(cfg, &spec),
            "burst_tcp" => stream::run::<stream::tcp_burst::TcpBurst>(cfg, &spec),
            _ => stream::run::<stream::inproc::InProc>(cfg, &spec),
        };
    }
    match cfg.workload {
        "churn" => workloads::churn::run(cfg),
        "verify_kmc" => workloads::verify::run_kmc(cfg),
        "verify_amr" => workloads::verify::run_amr(cfg),
        other => unreachable!("{other} is checked against WORKLOADS before dispatch"),
    }
}

/// Measures one workload in this process and prints its report.
fn run_one(args: &RunArgs, workload: &'static str) -> ExitCode {
    let cfg = Cfg {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        out_dir: args.out_dir.clone(),
    };
    let mut out = match run_workload(&cfg) {
        Ok(out) => out,
        Err(error) => {
            eprintln!("benchmark: {workload} could not run: {error}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{workload} input_hash {:016x} seed={} seconds={} traced={} cores={}",
        out.input_hash,
        cfg.seed,
        cfg.seconds,
        cfg.traced,
        std::thread::available_parallelism().map_or(0, usize::from),
    );

    // A traced run reports every per-layer metric, a timed run every
    // end-to-end metric; a per-layer metric the workload never set is a
    // layer it does not pass through, reported as 0.
    let names: Vec<&'static str> = if cfg.traced {
        metrics::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut complete = true;
    let mut reported = Vec::with_capacity(names.len());
    for name in names {
        let value = match out.metrics.get(name) {
            Some(&value) => value,
            None if cfg.traced => 0.0,
            None => {
                complete = false;
                continue;
            }
        };
        reported.push((name, value));
        match out.summaries.get(name) {
            Some(s) => println!(
                "{workload} {name} {value} {} trials: median={} q1={} q3={} n={}",
                metrics::unit_of(name),
                s.median,
                s.q1,
                s.q3,
                s.n
            ),
            None => println!("{workload} {name} {value} {}", metrics::unit_of(name)),
        }
    }
    for (name, value, unit) in &out.extras {
        println!("{workload} {name} {value} {unit}");
    }
    println!(
        "{workload} failed_frac {} frac",
        out.failed as f64 / out.attempted.max(1) as f64
    );
    if let Some(trace) = out.trace.take() {
        let path = cfg.out_dir.join(format!("trace-{workload}.json"));
        let written = std::fs::create_dir_all(&cfg.out_dir)
            .and_then(|()| std::fs::write(&path, trace.to_json(workload, cfg.seed)));
        match written {
            Ok(()) => println!(
                "{workload} trace {} spans -> {}",
                trace.spans.len(),
                path.display()
            ),
            Err(error) => {
                eprintln!("benchmark: cannot write {}: {error}", path.display());
                complete = false;
            }
        }
    }
    let correct = complete && out.failed == 0 && out.attempted > 0;
    println!(
        "{}",
        metrics::result_json(correct, out.attempted.max(1), out.failed, &reported)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match command.as_str() {
        "run" => {
            let parsed = match parse_run(rest) {
                Ok(parsed) => parsed,
                Err(error) => {
                    eprintln!("benchmark: {error}\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            match &parsed.workload {
                None => repeat::run_all(&parsed),
                Some(name) => match metrics::WORKLOADS.iter().find(|w| w.name == name) {
                    Some(workload) => run_one(&parsed, workload.name),
                    None => {
                        eprintln!("benchmark: unknown workload {name}");
                        ExitCode::from(2)
                    }
                },
            }
        }
        "check-repeat" => repeat::check_repeat(rest),
        "manifest" => {
            print!("{}", metrics::manifest_json());
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn run_arguments_parse_in_the_drivers_form() {
        let parsed = parse_run(&args(&[
            "--workload",
            "churn",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("churn"));
        assert_eq!((parsed.seed, parsed.seconds, parsed.traced), (7, 3.0, true));
        assert!(parse_run(&args(&["--trace", "2"])).is_err());
        assert!(parse_run(&args(&["--seconds", "0"])).is_err());
        assert!(parse_run(&args(&["--seed"])).is_err());
        let defaults = parse_run(&[]).unwrap();
        assert_eq!((defaults.seed, defaults.traced), (1, false));
    }

    #[test]
    fn every_declared_workload_dispatches() {
        for workload in metrics::WORKLOADS {
            let streaming = stream_spec(workload.name).is_some();
            let other = matches!(workload.name, "churn" | "verify_kmc" | "verify_amr");
            assert!(streaming ^ other, "{}", workload.name);
        }
    }
}
