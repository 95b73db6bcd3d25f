//! `rumpsteak-gen` — generate Rust session-type APIs from Scribble.
//!
//! The top-down workflow of the paper (Fig 1a) as one command:
//!
//! ```text
//! rumpsteak-gen protocol.scr                      # Rust module to stdout
//! rumpsteak-gen protocol.scr --check --k 2        # verify before emitting
//! rumpsteak-gen protocol.scr --param n=4          # instantiate `role w[1..n]`
//! rumpsteak-gen protocol.scr --optimise --bound 2 # AMR-optimise projections
//! rumpsteak-gen protocol.scr --skeleton           # runnable program skeleton
//! rumpsteak-gen protocol.scr --skeleton --distributed  # per-process program
//! rumpsteak-gen protocol.scr --format dot         # Graphviz FSMs
//! rumpsteak-gen protocol.scr --format fsm         # `role: local type` lines
//! rumpsteak-gen - < protocol.scr -o generated.rs  # stdin → file
//! ```
//!
//! Exit codes: 0 success, 1 verification or generation failure, 2 usage or
//! I/O error.

use std::io::Read;
use std::process::ExitCode;

use theory::json::Json;

const USAGE: &str = "\
usage: rumpsteak-gen [FILE | -] [options]

Generates Rust session-type declarations for the `rumpsteak` runtime from
a Scribble `global protocol`, running parse -> projection -> FSM
conversion (and optionally verification) on the way.

options:
    --format rust|dot|fsm   output format (default: rust)
                              rust  self-contained module of rumpsteak
                                    declarations
                              dot   one Graphviz digraph per projected FSM
                              fsm   `role: local type` lines, the input
                                    format of the kmc and subtype tools
    --param NAME=VALUE      bind one template parameter (repeatable);
                            required for each parameter of a protocol
                            declaring role families like `role w[1..n]`
    --skeleton              with the rust format, emit a complete runnable
                            program: the module plus one `async fn` per
                            role driving its session through `try_session`
                            and a `main` spawning every role
    --distributed           with --skeleton, target the framed socket
                            transport instead of in-process channels:
                            wire-format labels, one `NetLink` per peer,
                            per-role `connect_*` constructors shaped by
                            the verified k-MC bounds, and a `main`
                            dispatching on `<ROLE> <TOPOLOGY-FILE>` so
                            each role runs as its own OS process
    --optimise              run the AMR optimise pass: replace each role's
                            projection with the best asynchronous message
                            reordering verified against it by the sound
                            subtyping algorithm (roles with no verified
                            improvement are kept unchanged); all output
                            formats then describe the optimised types
    --bound N               unfold depth for --optimise: how many `rec`
                            unfoldings a send may be anticipated across
                            (pipeline depth; default: 1)
    --report FILE           with --optimise, write the machine-readable
                            optimisation report (one JSON object per
                            role) to FILE
    --check                 verify the system about to be emitted (the
                            optimised one under --optimise): k-MC
                            (deadlocks, reception errors, orphans) plus a
                            reflexive subtyping sanity pass
    --k N                   channel bound for --check (default: 2)
    -o, --output FILE       write output to FILE instead of stdout
    -h, --help              show this help";

enum Format {
    Rust,
    Dot,
    Fsm,
}

struct Options {
    input: Option<String>,
    format: Format,
    check: bool,
    skeleton: bool,
    distributed: bool,
    optimise: bool,
    bound: Option<usize>,
    report: Option<String>,
    params: Vec<(theory::Name, i64)>,
    k: usize,
    output: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        input: None,
        format: Format::Rust,
        check: false,
        skeleton: false,
        distributed: false,
        optimise: false,
        bound: None,
        report: None,
        params: Vec::new(),
        k: 2,
        output: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--format" => {
                options.format = match iter.next().map(String::as_str) {
                    Some("rust") => Format::Rust,
                    Some("dot") => Format::Dot,
                    Some("fsm") => Format::Fsm,
                    Some(other) => return Err(format!("unknown format `{other}`")),
                    None => return Err("--format requires rust|dot|fsm".into()),
                };
            }
            "--check" => options.check = true,
            "--skeleton" => options.skeleton = true,
            "--distributed" => options.distributed = true,
            "--optimise" => options.optimise = true,
            "--bound" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(value) => options.bound = Some(value),
                None => return Err("--bound requires a non-negative integer".into()),
            },
            "--report" => match iter.next() {
                Some(path) => options.report = Some(path.clone()),
                None => return Err("--report requires a path".into()),
            },
            "--param" => match iter.next().and_then(|v| v.split_once('=')) {
                Some((name, value)) if !name.is_empty() => match value.parse() {
                    Ok(value) => options.params.push((theory::Name::from(name), value)),
                    Err(_) => {
                        return Err(format!("--param {name}=...: `{value}` is not an integer"))
                    }
                },
                _ => return Err("--param requires NAME=VALUE".into()),
            },
            "--k" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(value) if value >= 1 => options.k = value,
                _ => return Err("--k requires an integer >= 1".into()),
            },
            "-o" | "--output" => match iter.next() {
                Some(path) => options.output = Some(path.clone()),
                None => return Err("--output requires a path".into()),
            },
            "-h" | "--help" => return Err(String::new()),
            other if other.starts_with('-') && other != "-" => {
                return Err(format!("unknown option `{other}`"))
            }
            other if options.input.is_none() => options.input = Some(other.to_owned()),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if options.skeleton && !matches!(options.format, Format::Rust) {
        return Err("--skeleton only applies to the rust format".into());
    }
    if options.distributed && !options.skeleton {
        return Err("--distributed requires --skeleton".into());
    }
    if options.report.is_some() && !options.optimise {
        return Err("--report requires --optimise".into());
    }
    if options.bound.is_some() && !options.optimise {
        return Err("--bound requires --optimise (--k sets the check's channel bound)".into());
    }
    Ok(options)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            if message.is_empty() {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let source = match options.input.as_deref() {
        None | Some("-") => {
            let mut buffer = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buffer) {
                eprintln!("error: cannot read stdin: {e}");
                return ExitCode::from(2);
            }
            buffer
        }
        Some(path) => match std::fs::read_to_string(path) {
            Ok(source) => source,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        },
    };

    let mut analysis = match codegen::analyse_with(&source, &options.params) {
        Ok(analysis) => analysis,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if options.optimise {
        let config = optimiser::Config::with_depth(options.bound.unwrap_or(1));
        let reports = match codegen::optimise(&mut analysis, &config) {
            Ok(reports) => reports,
            Err(e) => {
                eprintln!("error: optimise pass failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        for report in &reports {
            match &report.best {
                Some(best) => eprintln!(
                    "optimised: {}: score {}, est. {:.1} ns saved ({}/{} candidates verified): {}",
                    report.role,
                    best.score,
                    best.estimated_saving_ns,
                    report.verified,
                    report.generated,
                    best.derivation.join(", "),
                ),
                None => eprintln!("optimised: {}: projection already optimal", report.role),
            }
        }
        if let Some(path) = options.report.as_deref() {
            let json = format!("{:#}\n", reports.to_json());
            if let Err(e) = std::fs::write(path, json) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if options.check {
        match codegen::check(&analysis, options.k) {
            Ok(report) => eprintln!(
                "verified: {}-MC safe, {} configurations, {} transitions{}",
                options.k,
                report.configurations,
                report.transitions,
                if report.exhaustive {
                    ""
                } else {
                    " (not k-exhaustive: verdict holds up to this bound)"
                }
            ),
            Err(e) => {
                eprintln!("error: verification failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let rendered = match options.format {
        Format::Rust => {
            let result = if options.distributed {
                codegen::rust_distributed_program(&analysis)
            } else if options.skeleton {
                codegen::rust_program(&analysis)
            } else {
                codegen::rust_module(&analysis)
            };
            match result {
                Ok(module) => module,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        Format::Dot => codegen::dot_listing(&analysis),
        Format::Fsm => codegen::fsm_listing(&analysis),
    };

    match options.output.as_deref() {
        None => print!("{rendered}"),
        Some(path) => {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    ExitCode::SUCCESS
}
