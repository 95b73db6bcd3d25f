//! Command-line interface to the asynchronous subtyping algorithm,
//! mirroring the binary the paper benchmarks with Hyperfine (§4.2).
//!
//! ```text
//! subtype <subtype> <supertype> [--bound N] [--json]
//! subtype <cand1> <cand2> ... <supertype> [--bound N] [--json]
//! ```
//!
//! Each argument is either a local-type expression (e.g.
//! `"rec x . s!ready . s?value . x"`) or `@path` to read one from a file.
//! Exits 0 when the subtyping holds, 1 when it cannot be shown.
//!
//! With `--json` the verdict is emitted as a single machine-readable
//! object (consumed by the optimiser report and CI):
//!
//! ```text
//! {"verdict": true, "bound": 16, "visited_pairs": 42}
//! ```
//!
//! With more than two positionals, every argument but the last is a
//! candidate checked against the final supertype: all of them built as
//! machines of one term arena and checked through one visitor,
//! the shape of the AMR optimiser's verification. `--json` reports the
//! per-candidate `CheckStats` visit counts:
//!
//! ```text
//! {"bound": 16, "candidates": [
//!   {"verdict": true, "visited_pairs": 42}, ...]}
//! ```
//!
//! The bulk form exits 0 only when every candidate verifies.

use std::process::ExitCode;

use subtyping::SubtypeVisitor;
use theory::fsm::Fsm;
use theory::json::Json;
use theory::json_record;
use theory::term::Terms;

json_record! {
    /// The bulk form's `--json` output.
    struct BulkVerdicts {
        bound: usize,
        candidates: Vec<CandidateVerdict>,
    }
}

json_record! {
    struct CandidateVerdict {
        verdict: bool,
        visited_pairs: usize,
    }
}

const USAGE: &str = "\
usage: subtype <subtype> <supertype> [options]
       subtype <cand1> <cand2> ... <supertype> [options]

Checks whether <subtype> is a sound asynchronous subtype of <supertype>.
Each positional argument is a local-type expression, or `@path` to read
one from a file. With more than two positionals, every argument but the
last is a candidate checked against the final supertype in one bulk
pass (the shape of the AMR optimiser's verification).

options:
    --bound N   recursion-unrolling bound: how many times each pair of
                states may be revisited on one derivation path
                (at least 1, default: 16); larger bounds verify deeper
                reorderings at higher cost
    --json      print one JSON object instead of prose, with members
                verdict (bool), bound and visited_pairs, where
                visited_pairs counts the state-pair visits the search
                performed (its cost metric); with multiple candidates,
                members bound and candidates, the latter holding one
                object with verdict and visited_pairs per candidate
    -h, --help  show this help

exit codes: 0 every subtyping holds, 1 some not shown, 2 usage or
parse error";

fn read_type(arg: &str) -> Result<theory::LocalType, String> {
    let text = if let Some(path) = arg.strip_prefix('@') {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?
    } else {
        arg.to_owned()
    };
    theory::local::parse(text.trim()).map_err(|e| format!("parse error: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional = Vec::new();
    let mut bound = 16usize;
    let mut json = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--bound" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(value) if value >= 1 => bound = value,
                _ => {
                    eprintln!("--bound requires an integer >= 1");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => positional.push(other.to_owned()),
        }
    }
    if positional.len() < 2 {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    let mut types = Vec::with_capacity(positional.len());
    for arg in &positional {
        match read_type(arg) {
            Ok(t) => types.push(t),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let sup = types.pop().expect("at least two positionals");

    if let [sub] = types.as_slice() {
        // Pairwise form: the original interface, output unchanged.
        let stats = match subtyping::check_with_stats_local(sub, &sup, bound) {
            Ok(stats) => stats,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        if json {
            println!("{}", stats.to_json());
        } else if stats.verdict {
            println!(
                "subtype holds (bound {bound}, {} state pairs visited)",
                stats.visited_pairs
            );
        } else {
            println!(
                "subtype NOT shown (bound {bound}, {} state pairs visited)",
                stats.visited_pairs
            );
        }
        return if stats.verdict {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Bulk form: the supertype and every candidate built in one arena,
    // each candidate checked against the supertype through one visitor,
    // stats in input order.
    // The machines' role takes no part in the check.
    let mut terms = Terms::default();
    let mut sup_machine = Fsm::new("r");
    let sup = terms.intern_local(&sup);
    if let Err(e) = terms.machine(sup, &mut sup_machine) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let mut machine = Fsm::new("r");
    let mut visitor = SubtypeVisitor::new(bound);
    let mut stats = Vec::with_capacity(types.len());
    for (index, candidate) in types.iter().enumerate() {
        let candidate = terms.intern_local(candidate);
        if let Err(e) = terms.machine(candidate, &mut machine) {
            eprintln!("error: candidate {}: {e}", index + 1);
            return ExitCode::from(2);
        }
        stats.push(visitor.check(&machine, &sup_machine));
    }
    let all_hold = stats.iter().all(|s| s.verdict);
    if json {
        let candidates = stats
            .iter()
            .map(|s| CandidateVerdict {
                verdict: s.verdict,
                visited_pairs: s.visited_pairs,
            })
            .collect();
        println!("{}", BulkVerdicts { bound, candidates }.to_json());
    } else {
        for (index, s) in stats.iter().enumerate() {
            println!(
                "candidate {}: {} (bound {bound}, {} state pairs visited)",
                index + 1,
                if s.verdict { "holds" } else { "NOT shown" },
                s.visited_pairs
            );
        }
    }
    if all_hold {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
