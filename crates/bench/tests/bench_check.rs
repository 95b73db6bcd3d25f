//! `bench-check` end to end: the real artifacts pass, and for every
//! invariant it enforces one doctored input fails with exit code 1.
//! Plus the round-trip property behind all of it: any artifact value
//! survives `to_json` → text → `from_json` unchanged.

use std::path::PathBuf;
use std::process::Command;

use bench::artifact::{Artifact, ChannelRow, Row};
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

/// A minimal `telemetry` section satisfying every invariant.
const TELEMETRY: &str = r#"{
  "scheduler": [{"threads": 1, "workers": [
    {"spawns": 1, "completions": 1, "polls": 7, "lifo_hits": 0, "local_pops": 0,
     "injector_pops": 1, "sibling_steals": 0, "parks": 1, "unparks": 1,
     "driver_parks": 0, "timeout_wakes_with_work": 0}],
    "external": {"spawns": 1, "completions": 0, "polls": 0, "lifo_hits": 0, "local_pops": 0,
     "injector_pops": 0, "sibling_steals": 0, "parks": 0, "unparks": 1,
     "driver_parks": 0, "timeout_wakes_with_work": 0}}],
  "channels": [{"from": "S", "to": "T", "high_watermark": 3, "kmc_bound": 6, "window": 6,
    "grows": 0, "waker_retries": 0, "sends": 40, "wakes": 9, "batches": 8,
    "batched_messages": 40, "received": 0, "bytes_sent": 0, "bytes_received": 0,
    "window_stalls": 0, "reconnects": 0, "instances": 2, "stamp_misses": 0,
    "latency": {"count": 10, "p50": 100, "p90": 200, "p99": 300, "p999": 400, "max": 500}},
   {"from": "Ping", "to": "Pong", "high_watermark": 1, "kmc_bound": 1, "window": 1,
    "grows": 0, "waker_retries": 0, "sends": 500, "wakes": 0, "batches": 0,
    "batched_messages": 0, "received": 500, "bytes_sent": 8000, "bytes_received": 8000,
    "window_stalls": 3, "reconnects": 0, "instances": 2, "stamp_misses": 0,
    "latency": {"count": 500, "p50": 100, "p90": 200, "p99": 300, "p999": 400, "max": 500}}],
  "sessions": [{"role": "S",
    "lifetime_ns": {"count": 10, "p50": 100, "p90": 200, "p99": 300, "p999": 400, "max": 500}}]
}"#;

/// A minimal artifact with every section present: one row and
/// [`TELEMETRY`].
fn instrumented() -> Artifact {
    Artifact {
        bench: "fig6".to_owned(),
        host_parallelism: 2,
        unit: "ns/op".to_owned(),
        results: vec![Row {
            protocol: "streaming".to_owned(),
            threads: 1,
            params: [("n".to_owned(), 50)].into(),
            ops: 50,
            ns_per_op: 133.6,
        }],
        telemetry: Some(json::decode(TELEMETRY).expect("fixture decodes")),
    }
}

/// The fixture's in-process ring row.
fn channel(artifact: &mut Artifact) -> &mut ChannelRow {
    &mut artifact.telemetry.as_mut().unwrap().channels[0]
}

/// The fixture's socket row.
fn socket(artifact: &mut Artifact) -> &mut ChannelRow {
    &mut artifact.telemetry.as_mut().unwrap().channels[1]
}

#[test]
fn telemetry_accepts_a_valid_artifact_and_rejects_each_violation() {
    let path = temp_json("telemetry-valid", &instrumented());
    let (code, stderr) = bench_check(&["telemetry", path.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stderr}");

    let mut doctored = instrumented();
    channel(&mut doctored).high_watermark = 7;
    assert_rejected(
        "telemetry",
        "watermark",
        &doctored,
        "high_watermark 7 exceeds",
    );

    // One window per link, ring or socket, checked as 1..=kmc_bound.
    let mut doctored = instrumented();
    channel(&mut doctored).window = Some(7);
    assert_rejected(
        "telemetry",
        "window",
        &doctored,
        "(S -> T): window 7 is outside 1..=6",
    );

    let mut doctored = instrumented();
    socket(&mut doctored).window = Some(0);
    assert_rejected(
        "telemetry",
        "window-zero",
        &doctored,
        "(Ping -> Pong): window 0 is outside 1..=1",
    );

    // The ledgers of a socket link: frames, bytes and latency samples
    // in against out.
    let mut doctored = instrumented();
    socket(&mut doctored).received = 499;
    assert_rejected(
        "telemetry",
        "ledger-frames",
        &doctored,
        "(Ping -> Pong): received 499 != sends 500",
    );

    let mut doctored = instrumented();
    socket(&mut doctored).bytes_received = 7999;
    assert_rejected(
        "telemetry",
        "ledger-bytes",
        &doctored,
        "(Ping -> Pong): bytes_received 7999 != bytes_sent 8000",
    );

    let mut doctored = instrumented();
    socket(&mut doctored).latency.as_mut().unwrap().count = 58;
    assert_rejected(
        "telemetry",
        "ledger-latency",
        &doctored,
        "(Ping -> Pong): latency count 58 != received 500",
    );

    let mut doctored = instrumented();
    channel(&mut doctored).latency.as_mut().unwrap().p99 = 150;
    assert_rejected("telemetry", "ladder", &doctored, "not monotone");

    // Shape is the decoder's job: a vanished counter is named by path.
    let mut doctored = instrumented().to_json();
    let Value::Object(members) = &mut doctored else {
        unreachable!()
    };
    members.retain(|(key, _)| key != "host_parallelism");
    assert_rejected(
        "telemetry",
        "shape",
        &doctored,
        "host_parallelism: expected",
    );
}

#[test]
fn report_accepts_fresh_output_and_rejects_each_violation() {
    // What `rumpsteak-gen kbuffering_opt.scr --param n=4 --optimise
    // --report` writes.
    let mut analysis =
        codegen::analyse_with(KBUFFERING_OPT, &[("n".into(), 4)]).expect("protocol analyses");
    let fresh: Vec<Report> =
        codegen::optimise(&mut analysis, &optimiser::Config::with_depth(1)).expect("optimises");
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

#[test]
fn fresh_fig6_output_decodes_and_passes() {
    let out = std::env::temp_dir().join(format!("bench-check-fig6-{}.json", std::process::id()));
    let out = out.to_str().unwrap();
    let output = Command::new(env!("CARGO_BIN_EXE_fig6"))
        .args(["--json", "--out", out])
        .output()
        .expect("fig6 runs");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(out).expect("fig6 wrote its artifact");
    let artifact: Artifact = json::decode(&text).expect("fresh artifact decodes");
    // The surviving row set by name: a vanished paper or `transport_*`
    // row fails here.
    const FAMILIES: [&str; 8] = [
        "transport_tcp_pingpong",
        "transport_uds_pingpong",
        "transport_tcp_burst",
        "streaming_proj",
        "streaming",
        "double_buffering_proj",
        "double_buffering",
        "fft",
    ];
    let rows: Vec<(&str, u64)> = artifact
        .results
        .iter()
        .map(|row| (row.protocol.as_str(), row.threads))
        .collect();
    let expected: Vec<(&str, u64)> = [1, 2, 4, 8]
        .iter()
        .flat_map(|&threads| FAMILIES.map(|family| (family, threads)))
        .collect();
    assert_eq!(rows, expected);
    if rumpsteak::telemetry::ENABLED {
        let (code, stderr) = bench_check(&["telemetry", out]);
        assert_eq!(code, Some(0), "{stderr}");
    } else {
        assert_eq!(artifact.telemetry, None);
    }
}

// ---- from_json(to_json(x)) == x ------------------------------------

/// Members the schema allows to be `null`.
const NULLABLE: [&str; 5] = ["telemetry", "kmc_bound", "window", "latency", "lifetime_ns"];

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
        let mut value = instrumented().to_json();
        scramble(&mut value, &mut next);
        let artifact = Artifact::from_json(&value).expect("scrambling preserves the shape");
        for text in [value.to_string(), format!("{value:#}")] {
            prop_assert_eq!(json::decode::<Artifact>(&text), Ok(artifact.clone()));
        }
    }
}
