//! `bench-check report` end to end: a fresh optimisation report
//! passes, and for every invariant it enforces one doctored report
//! fails with exit code 1. Plus the round-trip property behind it: any
//! report survives `to_json` → text → `from_json` unchanged, in both
//! layouts.

use std::path::PathBuf;
use std::process::Command;
use std::sync::OnceLock;

use optimiser::Report;
use proptest::prelude::*;
use theory::json::{self, Json, Value};

const KBUFFERING_OPT: &str = include_str!("../../codegen/tests/protocols/kbuffering_opt.scr");

/// Writes `value` to a fresh temp file named after the calling test.
fn temp_json(name: &str, value: &impl Json) -> PathBuf {
    let path = std::env::temp_dir().join(format!("bench-check-{name}-{}.json", std::process::id()));
    std::fs::write(&path, format!("{:#}\n", value.to_json())).expect("temp file writes");
    path
}

/// Runs `bench-check`, returning its exit code and stderr.
fn bench_check(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_bench-check"))
        .args(args)
        .output()
        .expect("bench-check runs");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

/// Asserts `bench-check <subcommand>` rejects `doctored` (exit 1) with a
/// message containing `complaint`.
fn assert_rejected(subcommand: &str, name: &str, doctored: &impl Json, complaint: &str) {
    let path = temp_json(name, doctored);
    let (code, stderr) = bench_check(&[subcommand, path.to_str().unwrap()]);
    assert_eq!(code, Some(1), "{name}: {stderr}");
    assert!(stderr.contains(complaint), "{name}: {stderr}");
}

/// What `rumpsteak-gen kbuffering_opt.scr --param n=4 --optimise
/// --report` writes.
fn fresh_report() -> Vec<Report> {
    let mut analysis =
        codegen::analyse_with(KBUFFERING_OPT, &[("n".into(), 4)]).expect("protocol analyses");
    codegen::optimise(&mut analysis, &optimiser::Config::with_depth(1)).expect("optimises")
}

#[test]
fn report_accepts_fresh_output_and_rejects_each_violation() {
    let fresh = fresh_report();
    let improved = fresh
        .iter()
        .position(|r| r.improved)
        .expect("something improved");
    let path = temp_json("report-fresh", &fresh);
    let (code, stderr) = bench_check(&["report", path.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stderr}");

    let mut doctored = fresh.clone();
    doctored[improved].best.as_mut().unwrap().local = "end".into();
    assert_rejected(
        "report",
        "best",
        &doctored,
        "not the first ranked candidate",
    );

    let mut doctored = fresh.clone();
    doctored[improved].generated = 0;
    assert_rejected("report", "verified", &doctored, "exceeds `generated`");

    // A runner-up that would have saved more than the winner.
    let mut doctored = fresh.clone();
    let mut runner_up = doctored[improved].candidates[0].clone();
    runner_up.estimated_saving_ns += 1.0;
    doctored[improved].candidates.push(runner_up);
    doctored[improved].verified += 1;
    assert_rejected(
        "report",
        "rank-order",
        &doctored,
        "not in non-increasing `estimated_saving_ns` order",
    );

    // A winner that saves nothing.
    let mut doctored = fresh.clone();
    doctored[improved].candidates[0].estimated_saving_ns = 0.0;
    assert_rejected(
        "report",
        "best-saving",
        &doctored,
        "`best` must be present exactly when",
    );

    let mut doctored = fresh;
    doctored[improved].improved = false;
    assert_rejected("report", "improved", &doctored, "`improved` disagrees");
}

// ---- from_json(to_json(x)) == x ------------------------------------

/// [`fresh_report`] as JSON, built once for every case.
fn fresh_report_json() -> &'static Value {
    static JSON: OnceLock<Value> = OnceLock::new();
    JSON.get_or_init(|| fresh_report().to_json())
}

/// Members the schema allows to be `null`.
const NULLABLE: [&str; 1] = ["best"];

/// Turns a well-shaped document into an arbitrary one of the same
/// shape: every leaf becomes random data of its JSON type (strings over
/// an alphabet exercising every escape, counters up to `u64::MAX`),
/// arrays shrink or grow, nullable members go `null`.
fn scramble(value: &mut Value, next: &mut impl FnMut() -> u64) {
    const ALPHABET: [char; 12] = [
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '/',
        '\n',
        '\t',
        '\u{1}',
        'é',
        '\u{1F600}',
    ];
    match value {
        Value::Null | Value::I64(_) => {}
        Value::Bool(b) => *b = next().is_multiple_of(2),
        Value::U64(n) => *n = [0, next() % 4, u64::MAX, next()][next() as usize % 4],
        Value::F64(x) => *x = next() as i64 as f64 / 4096.0,
        Value::String(s) => {
            *s = (0..next() % 6)
                .map(|_| ALPHABET[next() as usize % ALPHABET.len()])
                .collect();
        }
        Value::Array(items) => {
            items.truncate(next() as usize % (items.len() + 1));
            items.extend(items.first().cloned());
            items.iter_mut().for_each(|item| scramble(item, next));
        }
        Value::Object(members) => {
            for (key, member) in members {
                if NULLABLE.contains(&key.as_str()) && next().is_multiple_of(3) {
                    *member = Value::Null;
                }
                scramble(member, next);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn artifacts_round_trip_through_both_layouts(seed in 0u64..=u64::MAX) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 11
        };
        let mut value = fresh_report_json().clone();
        scramble(&mut value, &mut next);
        let report = Vec::<Report>::from_json(&value).expect("scrambling preserves the shape");
        for text in [value.to_string(), format!("{value:#}")] {
            prop_assert_eq!(json::decode::<Vec<Report>>(&text), Ok(report.clone()));
        }
    }
}
