//! Fresh-process repetition: `run` without `--workload`, and
//! `check-repeat`, which measures the whole suite twice the way the
//! acceptance check does and says whether the two sets agree within the
//! benchmark's own bounds.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use crate::metrics::{self, Better, END_TO_END, WORKLOADS};
use crate::stats::{summarise, Summary};
use crate::RunArgs;

/// Per-layer metrics that are exact counts: two runs of one seed must
/// report identical values.
const EXACT_COUNTS: &[&str] = &[
    "kmc.configurations",
    "kmc.transitions",
    "subtyping.visited_pairs",
    "rumpsteak.session.calls",
    "rumpsteak.net.bytes_per_msg",
    "codegen.emit_bytes",
    "theory.fsm_states",
    "optimiser.generated",
    "optimiser.verified",
];

/// Runs this executable on one workload and returns its stdout, or
/// `None` if it could not be started or exited non-zero.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool, out_dir: &str) -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--out", out_dir])
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    output.status.success().then_some(stdout)
}

/// `metric → value` from a run's `workload metric value unit` lines.
pub fn parse_report(workload: &str, stdout: &str) -> BTreeMap<String, f64> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            (fields.next()? == workload).then_some(())?;
            let name = fields.next()?;
            let value = fields.next()?.parse().ok()?;
            Some((name.to_owned(), value))
        })
        .collect()
}

/// `run` without `--workload`: every workload, each in a fresh process.
pub fn run_all(args: &RunArgs) -> ExitCode {
    let mut ok = true;
    let out_dir = args.out_dir.to_string_lossy();
    for workload in WORKLOADS {
        match child(
            workload.name,
            args.seed,
            args.seconds,
            args.traced,
            &out_dir,
        ) {
            Some(stdout) => print!("{stdout}"),
            None => {
                eprintln!("benchmark: {} failed", workload.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(first: f64, second: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// One metric on one workload over the two sets.
pub struct Agreement {
    pub first: Summary,
    pub second: Summary,
    pub bound: f64,
    pub better: Better,
    /// `setup_s` is exempt from the spread rule, not from the shift rule.
    pub spread_checked: bool,
}

impl Agreement {
    pub fn holds(&self) -> bool {
        let spread_ok = !self.spread_checked
            || (self.first.spread() <= self.bound && self.second.spread() <= self.bound);
        spread_ok && worsening(self.first.median, self.second.median, self.better) <= self.bound
    }
}

pub fn check_repeat(args: &[String]) -> ExitCode {
    let mut runs = 10u64;
    let mut seconds = metrics::RUN_SECONDS as f64;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().and_then(|v| v.parse::<f64>().ok());
        match (flag.as_str(), value) {
            ("--runs", Some(v)) if v >= 2.0 => runs = v as u64,
            ("--seconds", Some(v)) if v > 0.0 => seconds = v,
            _ => {
                eprintln!("benchmark: check-repeat takes --runs N (N >= 2) and --seconds S");
                return ExitCode::from(2);
            }
        }
    }
    let out_dir = "benchmark/out";
    let mut ok = true;
    println!("check-repeat: 2 sets x {runs} runs x {seconds} s per workload");
    for workload in WORKLOADS {
        // values[set][metric] = one value per run
        let mut values: [BTreeMap<&str, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for (set, values) in values.iter_mut().enumerate() {
            for run in 0..runs {
                let seed = 1 + set as u64 * runs + run;
                let Some(stdout) = child(workload.name, seed, seconds, false, out_dir) else {
                    eprintln!("check-repeat: {} seed {seed} failed", workload.name);
                    ok = false;
                    continue;
                };
                let report = parse_report(workload.name, &stdout);
                for metric in END_TO_END {
                    if let Some(&value) = report.get(metric.name) {
                        values.entry(metric.name).or_default().push(value);
                    }
                }
            }
        }
        for metric in END_TO_END {
            let sets: Vec<&Vec<f64>> = values.iter().filter_map(|v| v.get(metric.name)).collect();
            let [first, second] = sets[..] else {
                println!("{} {} MISSING", workload.name, metric.name);
                ok = false;
                continue;
            };
            let agreement = Agreement {
                first: summarise(first),
                second: summarise(second),
                bound: metric.bound,
                better: metric.better,
                spread_checked: metric.name != "setup_s",
            };
            let verdict = if agreement.holds() { "ok" } else { "DISAGREE" };
            ok &= agreement.holds();
            println!(
                "{} {} median {} / {} {} spread {:.4} / {:.4} shift {:+.4} bound {} {verdict}",
                workload.name,
                metric.name,
                agreement.first.median,
                agreement.second.median,
                metric.unit,
                agreement.first.spread(),
                agreement.second.spread(),
                worsening(
                    agreement.first.median,
                    agreement.second.median,
                    metric.better
                ),
                metric.bound,
            );
        }
        // Exact counts: two traced runs of one seed.
        let traced: Vec<_> = (0..2)
            .filter_map(|_| child(workload.name, 1, seconds, true, out_dir))
            .map(|stdout| parse_report(workload.name, &stdout))
            .collect();
        let [a, b] = &traced[..] else {
            println!("{} traced runs FAILED", workload.name);
            ok = false;
            continue;
        };
        for name in EXACT_COUNTS {
            let same = a.get(*name) == b.get(*name);
            ok &= same;
            println!(
                "{} {name} {:?} / {:?} {}",
                workload.name,
                a.get(*name).copied().unwrap_or(0.0),
                b.get(*name).copied().unwrap_or(0.0),
                if same { "identical" } else { "DIFFER" }
            );
        }
    }
    println!(
        "check-repeat: {}",
        if ok { "all agree" } else { "DISAGREEMENT" }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            n: 10,
        }
    }

    #[test]
    fn report_lines_parse_and_foreign_lines_are_ignored() {
        let stdout = "churn input_hash 00ff seed=1\nchurn ops_per_s 52000.5 1/s q1=1 q3=2 n=3\n\
                      other ops_per_s 1 1/s\n{\"correct\": true}\n";
        let report = parse_report("churn", stdout);
        assert_eq!(report.get("ops_per_s"), Some(&52000.5));
        assert_eq!(report.len(), 1);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, Better::Higher) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 80.0, Better::Higher) - 0.20).abs() < 1e-12);
    }

    #[test]
    fn agreement_applies_spread_and_shift_rules() {
        let tight = summary(100.0, 99.0, 101.0);
        let wide = summary(100.0, 90.0, 110.0);
        let shifted = summary(112.0, 111.0, 113.0);
        let check = |first, second, spread_checked| {
            Agreement {
                first,
                second,
                bound: 0.10,
                better: Better::Lower,
                spread_checked,
            }
            .holds()
        };
        assert!(check(tight, tight, true));
        assert!(!check(tight, wide, true));
        assert!(check(tight, wide, false));
        assert!(!check(tight, shifted, false));
        assert!(check(shifted, tight, true));
    }
}
