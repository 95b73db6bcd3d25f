//! Golden-file tests: the generated Rust for **every** protocol under
//! `tests/protocols/` is pinned byte-for-byte — the corpus is discovered
//! by globbing, so adding a protocol without a golden fails the suite —
//! and so are what the optimise pass picks for each of them and, by
//! digest, the whole `--report` it writes. Every report also holds the
//! cross-field invariants of [`report_violations`].
//!
//! A protocol may carry a directive comment naming its generation flags
//! (parameter bindings, skeleton emission):
//!
//! ```text
//! // rumpsteak-gen: --param n=4 --skeleton
//! ```
//!
//! To regenerate after an intentional emitter change:
//!
//! ```text
//! cargo run -p codegen --bin rumpsteak-gen -- \
//!     crates/codegen/tests/protocols/<p>.scr <directive args> \
//!     -o crates/codegen/tests/goldens/<p>.rs
//! ```

use std::path::PathBuf;
use std::process::Command;

use optimiser::Report;
use theory::json::Json;
use theory::Name;

fn fixture(dir: &str, name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join(dir)
        .join(name)
}

/// Generation flags parsed from a `// rumpsteak-gen:` directive line.
#[derive(Default)]
struct Directive {
    params: Vec<(Name, i64)>,
    skeleton: bool,
    distributed: bool,
    optimise: bool,
    bound: Option<usize>,
}

fn directive(source: &str) -> Directive {
    let mut directive = Directive::default();
    let Some(line) = source
        .lines()
        .find_map(|l| l.strip_prefix("// rumpsteak-gen:"))
    else {
        return directive;
    };
    let mut words = line.split_whitespace();
    while let Some(word) = words.next() {
        match word {
            "--skeleton" => directive.skeleton = true,
            "--distributed" => directive.distributed = true,
            "--optimise" => directive.optimise = true,
            "--bound" => {
                let value = words.next().expect("--bound N in directive");
                directive.bound = Some(value.parse().expect("integer bound"));
            }
            "--param" => {
                let (name, value) = words
                    .next()
                    .and_then(|v| v.split_once('='))
                    .expect("--param NAME=VALUE in directive");
                directive
                    .params
                    .push((Name::from(name), value.parse().expect("integer parameter")));
            }
            other => panic!("unsupported directive flag `{other}`"),
        }
    }
    directive
}

fn generate(source: &str) -> String {
    let directive = directive(source);
    let mut analysis = codegen::analyse_with(source, &directive.params).expect("protocol analyses");
    if directive.optimise {
        let config = optimiser::Config::with_depth(directive.bound.unwrap_or(1));
        codegen::optimise(&mut analysis, &config).expect("optimise pass succeeds");
    }
    if directive.distributed {
        codegen::rust_distributed_program(&analysis).expect("distributed program generates")
    } else if directive.skeleton {
        codegen::rust_program(&analysis).expect("program generates")
    } else {
        codegen::rust_module(&analysis).expect("module generates")
    }
}

/// Every `(stem, source)` under `tests/protocols/`, sorted by stem.
fn corpus() -> Vec<(String, String)> {
    let mut corpus = Vec::new();
    for entry in std::fs::read_dir(fixture("protocols", "")).expect("protocols directory exists") {
        let path = entry.expect("directory entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("scr") {
            continue;
        }
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 protocol name")
            .to_owned();
        let source = std::fs::read_to_string(&path).expect("protocol fixture readable");
        corpus.push((stem, source));
    }
    corpus.sort();
    corpus
}

#[test]
fn every_protocol_matches_its_golden() {
    // (`PICKS` below names the corpus, so it never shrinks silently.)
    for (stem, source) in corpus() {
        let expected = std::fs::read_to_string(fixture("goldens", &format!("{stem}.rs")))
            .unwrap_or_else(|_| panic!("protocol `{stem}` has no golden file"));
        assert_eq!(
            generate(&source),
            expected,
            "generated output for `{stem}` diverged from the golden file; \
             regenerate it if the change is intentional"
        );
    }
}

/// The roles one optimise pass improves, each with its winner's `score`.
type Picks = &'static [(&'static str, usize)];

/// What `--optimise --bound 1..=3` picks for every corpus protocol at
/// its directive's parameters. A change to the price list that moves a
/// pick fails here.
const PICKS: [(&str, [Picks; 3]); 10] = [
    (
        "double_buffering",
        [
            &[("k", 3), ("s", 2), ("t", 1)],
            &[("k", 4), ("s", 3), ("t", 2)],
            &[("k", 4), ("s", 4), ("t", 3)],
        ],
    ),
    ("dstreaming", [&[("s", 1)]; 3]),
    ("gather", [&[("c", 4)]; 3]),
    ("kbuffering", [&[("s", 1)]; 3]),
    ("kbuffering_opt", [&[("s", 1)]; 3]),
    ("pmesh", [&[]; 3]),
    ("pring", [&[]; 3]),
    ("ring", [&[]; 3]),
    ("streaming", [&[("s", 1)]; 3]),
    ("swap", [&[("a", 1), ("b", 3)]; 3]),
];

#[test]
fn optimiser_picks_are_pinned_across_the_corpus() {
    let corpus = corpus();
    let stems: Vec<&str> = corpus.iter().map(|(stem, _)| stem.as_str()).collect();
    assert_eq!(
        stems,
        PICKS.map(|(stem, _)| stem),
        "corpus and pin table differ"
    );
    let pins = PICKS.into_iter().zip(REPORT_DIGESTS);
    for ((stem, source), ((_, picks), digests)) in corpus.iter().zip(pins) {
        for ((bound, expected), digest) in (1..).zip(picks).zip(digests) {
            let mut analysis =
                codegen::analyse_with(source, &directive(source).params).expect("analyses");
            let reports = codegen::optimise(&mut analysis, &optimiser::Config::with_depth(bound))
                .expect("optimise pass succeeds");
            let mut improved: Vec<(&str, usize)> = reports
                .iter()
                .filter(|r| r.improved)
                .map(|r| (r.role.as_str(), r.best.as_ref().expect("improved").score))
                .collect();
            improved.sort();
            assert_eq!(improved, expected, "`{stem}` at --bound {bound}");
            let violations = report_violations(&reports);
            assert!(
                violations.is_empty(),
                "`{stem}` at --bound {bound}: {violations:?}"
            );
            // The whole report, as `--report` writes it, byte for byte.
            let text = format!("{:#}\n", reports.to_json());
            assert_eq!(
                fnv1a(text.as_bytes()),
                digest,
                "`{stem}`'s report at --bound {bound} changed"
            );
        }
    }
}

/// 64-bit FNV-1a: a stable digest of a report's text.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// [`fnv1a`] of the JSON `--optimise --bound 1..=3 --report` writes for
/// every corpus protocol at its directive's parameters, in `PICKS` order.
const REPORT_DIGESTS: [[u64; 3]; 10] = [
    [0x136fbd8bd3e46c5e, 0xab2fb5b603606353, 0xf7304cca61a6f6de], // double_buffering
    [0x6b1151b67a0ba82f, 0xd151102c38e8e9bd, 0x0205f93a617480fb], // dstreaming
    [0xff96320f7aabb1e8, 0xf7aa92e1997ffb65, 0xf4b01a41002aaad7], // gather
    [0x12d4e4227aa6754f, 0xf5ab1e6951804aab, 0xf752e4c1bd58f785], // kbuffering
    [0x12d4e4227aa6754f, 0xf5ab1e6951804aab, 0xf752e4c1bd58f785], // kbuffering_opt
    [0xdd668ca98403a12c, 0xfae058f60be2e917, 0xadf1c6227bdb3f3c], // pmesh
    [0x460c7d1a4b669754, 0x3961a292fa84ad48, 0x76bfeabe664df3cc], // pring
    [0x4cb9e8cf30eff9cc, 0x913099ab74f1679b, 0x5de790263a8c1c96], // ring
    [0x6b1151b67a0ba82f, 0xd151102c38e8e9bd, 0x0205f93a617480fb], // streaming
    [0x14ab4b6fefd8a9c6, 0x42b1065053a998de, 0xfb920c671561c796], // swap
];

/// What a well-formed `--report` array must satisfy beyond its shape,
/// one line per violation:
///
/// * it lists at least one role, and no role or projection is empty,
/// * `candidates` lists exactly the `verified` candidates, each with a
///   type and states, in non-increasing `estimated_saving_ns` order,
/// * `verified` never exceeds `generated`,
/// * `best` is present exactly when the first candidate's saving is
///   positive, and is then that candidate, with derivation steps, and
/// * `improved` is true exactly when `best` is present.
fn report_violations(roles: &[Report]) -> Vec<String> {
    let mut errors = Vec::new();
    if roles.is_empty() {
        errors.push("report lists no roles".to_owned());
    }
    for (i, role) in roles.iter().enumerate() {
        let at = format!("report[{i}] ({})", role.role);
        if role.role.is_empty() || role.projection.is_empty() {
            errors.push(format!("{at}: empty `role` or `projection`"));
        }
        if role.candidates.len() != role.verified {
            errors.push(format!(
                "{at}: `candidates` lists {} entries but `verified` is {}",
                role.candidates.len(),
                role.verified
            ));
        }
        if role.verified > role.generated {
            errors.push(format!(
                "{at}: `verified` {} exceeds `generated` {}",
                role.verified, role.generated
            ));
        }
        if role
            .candidates
            .iter()
            .any(|c| c.local.is_empty() || c.states == 0)
        {
            errors.push(format!("{at}: a candidate has no `local` or no states"));
        }
        if !role
            .candidates
            .is_sorted_by(|a, b| a.estimated_saving_ns >= b.estimated_saving_ns)
        {
            errors.push(format!(
                "{at}: `candidates` are not in non-increasing `estimated_saving_ns` order"
            ));
        }
        let first_saves = role
            .candidates
            .first()
            .is_some_and(|c| c.estimated_saving_ns > 0.0);
        if role.best.is_some() != first_saves {
            errors.push(format!(
                "{at}: `best` must be present exactly when the first candidate's \
                 `estimated_saving_ns` is positive"
            ));
        }
        if role.improved != role.best.is_some() {
            errors.push(format!(
                "{at}: `improved` disagrees with `best` being present"
            ));
        }
        if let Some(best) = &role.best {
            if best.derivation.is_empty() || best.derivation.iter().any(String::is_empty) {
                errors.push(format!("{at}: `best` has no derivation steps"));
            }
            if role.candidates.first().map(|c| &c.local) != Some(&best.local) {
                errors.push(format!("{at}: `best` is not the first ranked candidate"));
            }
        }
    }
    errors
}

/// A fresh report passes [`report_violations`], and each invariant
/// rejects one doctored copy of it.
#[test]
fn report_invariants_accept_fresh_output_and_reject_each_violation() {
    // `rumpsteak-gen kbuffering_opt.scr --param n=4 --optimise --report`.
    let source = std::fs::read_to_string(fixture("protocols", "kbuffering_opt.scr")).unwrap();
    let mut analysis = codegen::analyse_with(&source, &[("n".into(), 4)]).expect("analyses");
    let fresh = codegen::optimise(&mut analysis, &optimiser::Config::with_depth(1))
        .expect("optimise pass succeeds");
    let violations = report_violations(&fresh);
    assert!(violations.is_empty(), "{violations:?}");
    let improved = fresh
        .iter()
        .position(|r| r.improved)
        .expect("something improved");
    let rejects = |doctor: &dyn Fn(&mut Report), complaint: &str| {
        let mut doctored = fresh.clone();
        doctor(&mut doctored[improved]);
        let violations = report_violations(&doctored);
        assert!(
            violations.iter().any(|v| v.contains(complaint)),
            "expected `{complaint}` among {violations:?}"
        );
    };
    rejects(
        &|role| role.best.as_mut().unwrap().local = "end".into(),
        "not the first ranked candidate",
    );
    rejects(&|role| role.generated = 0, "exceeds `generated`");
    // A runner-up that would have saved more than the winner.
    rejects(
        &|role| {
            let mut runner_up = role.candidates[0].clone();
            runner_up.estimated_saving_ns += 1.0;
            role.candidates.push(runner_up);
            role.verified += 1;
        },
        "not in non-increasing `estimated_saving_ns` order",
    );
    // A winner that saves nothing.
    rejects(
        &|role| role.candidates[0].estimated_saving_ns = 0.0,
        "`best` must be present exactly when",
    );
    rejects(&|role| role.improved = false, "`improved` disagrees");
}

#[test]
fn generation_is_deterministic_across_runs() {
    let source = std::fs::read_to_string(fixture("protocols", "ring.scr")).unwrap();
    let runs: Vec<String> = (0..3)
        .map(|_| codegen::rust_module(&codegen::analyse(&source).unwrap()).unwrap())
        .collect();
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[1], runs[2]);
}

// ---------------------------------------------------------------------
// End-to-end CLI tests against the real `rumpsteak-gen` binary.
// ---------------------------------------------------------------------

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rumpsteak-gen"))
        .args(args)
        .output()
        .expect("rumpsteak-gen runs")
}

#[test]
fn cli_emits_the_streaming_golden() {
    let scr = fixture("protocols", "streaming.scr");
    let output = run_cli(&[scr.to_str().unwrap()]);
    assert!(output.status.success());
    let expected =
        std::fs::read_to_string(fixture("goldens", "streaming.rs")).expect("golden exists");
    assert_eq!(String::from_utf8_lossy(&output.stdout), expected);
}

#[test]
fn cli_check_passes_and_reports() {
    let scr = fixture("protocols", "double_buffering.scr");
    let output = run_cli(&[scr.to_str().unwrap(), "--check", "--k", "2"]);
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("2-MC safe"));
}

#[test]
fn cli_fsm_format_lists_projections() {
    let scr = fixture("protocols", "ring.scr");
    let output = run_cli(&[scr.to_str().unwrap(), "--format", "fsm"]);
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("a: rec loop.+{b!token(u64).c?token(u64).loop, b!stop.end}"));
}

#[test]
fn cli_dot_format_renders_digraphs() {
    let scr = fixture("protocols", "streaming.scr");
    let output = run_cli(&[scr.to_str().unwrap(), "--format", "dot"]);
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert_eq!(stdout.matches("digraph").count(), 2);
}

#[test]
fn cli_emits_the_kbuffering_skeleton_golden() {
    let scr = fixture("protocols", "kbuffering.scr");
    let output = run_cli(&[scr.to_str().unwrap(), "--param", "n=4", "--skeleton"]);
    assert!(output.status.success());
    let expected =
        std::fs::read_to_string(fixture("goldens", "kbuffering.rs")).expect("golden exists");
    assert_eq!(String::from_utf8_lossy(&output.stdout), expected);
}

#[test]
fn cli_optimise_emits_the_kbuffering_opt_golden_and_report() {
    let scr = fixture("protocols", "kbuffering_opt.scr");
    let report = std::env::temp_dir().join("rumpsteak-gen-kbuffering-opt-report.json");
    let output = run_cli(&[
        scr.to_str().unwrap(),
        "--param",
        "n=4",
        "--skeleton",
        "--optimise",
        "--report",
        report.to_str().unwrap(),
    ]);
    assert!(output.status.success());
    let expected =
        std::fs::read_to_string(fixture("goldens", "kbuffering_opt.rs")).expect("golden exists");
    assert_eq!(String::from_utf8_lossy(&output.stdout), expected);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("optimised: s: score 1"));
    assert!(stderr.contains("optimised: t: projection already optimal"));
    let report = std::fs::read_to_string(report).expect("report written");
    assert!(report.contains("\"role\": \"s\""));
    assert!(report.contains("\"improved\": true"));
    assert!(report.contains("hoist w1! past w1?"));
}

#[test]
fn cli_rejects_report_without_optimise() {
    let scr = fixture("protocols", "ring.scr");
    let output = run_cli(&[scr.to_str().unwrap(), "--report", "/tmp/unused.json"]);
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn cli_rejects_bound_without_optimise() {
    // `--bound` is the optimiser's unfold depth, easily confused with
    // `--k`; silently ignoring it would mislead.
    let scr = fixture("protocols", "ring.scr");
    let output = run_cli(&[scr.to_str().unwrap(), "--check", "--bound", "4"]);
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn cli_reports_missing_param() {
    let scr = fixture("protocols", "kbuffering.scr");
    let output = run_cli(&[scr.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("unbound parameter `n`"));
}

#[test]
fn cli_rejects_malformed_param() {
    let scr = fixture("protocols", "kbuffering.scr");
    let output = run_cli(&[scr.to_str().unwrap(), "--param", "n=lots"]);
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn cli_rejects_distributed_without_skeleton() {
    // `--distributed` only changes what the program emitter produces;
    // without `--skeleton` there is no program to emit.
    let scr = fixture("protocols", "dstreaming.scr");
    let output = run_cli(&[scr.to_str().unwrap(), "--distributed"]);
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn cli_rejects_skeleton_with_non_rust_format() {
    let scr = fixture("protocols", "ring.scr");
    let output = run_cli(&[scr.to_str().unwrap(), "--skeleton", "--format", "dot"]);
    assert_eq!(output.status.code(), Some(2));
}

#[test]
fn cli_rejects_malformed_scribble() {
    let dir = std::env::temp_dir().join("rumpsteak-gen-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.scr");
    std::fs::write(&path, "global protocol Broken(role a) { nonsense").unwrap();
    let output = run_cli(&[path.to_str().unwrap()]);
    assert_eq!(output.status.code(), Some(1));
}

#[test]
fn cli_check_fails_on_unprojectable_protocol() {
    // Projection soundness means a parsed-and-projected protocol cannot
    // reach a k-MC violation through the CLI (that branch is unit-tested
    // against hand-built FSMs in the library), so the CLI failure path is
    // exercised with a protocol whose projection is undefined.
    let dir = std::env::temp_dir().join("rumpsteak-gen-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("unmergeable.scr");
    std::fs::write(
        &path,
        r#"
        global protocol Unmergeable(role a, role b, role c) {
            choice at a {
                l1() from a to b;
                m1() from c to b;
            } or {
                l2() from a to b;
                m2() from c to b;
            }
        }
        "#,
    )
    .unwrap();
    let output = run_cli(&[path.to_str().unwrap(), "--check"]);
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("projection onto c failed"));
}
