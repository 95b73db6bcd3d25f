//! End-to-end test of the `subtype` binary: its prose and `--json` output
//! in the pairwise and bulk forms, and its exit codes (0 every subtyping
//! holds, 1 some not shown, 2 usage, parse or conversion error).

use std::process::Command;

/// The projected double-buffering kernel Mk and its optimisation M'k
/// (paper Fig 4).
const PROJECTED: &str = "rec x . s!ready . s?value . t?ready . t!value . x";
const OPTIMISED: &str = "s!ready . rec x . s!ready . s?value . t?ready . t!value . x";
/// Mk with its `value` receive moved above the `ready` send: not a subtype.
const RECEIVE_FIRST: &str = "rec x . s?value . s!ready . t?ready . t!value . x";

/// Runs `subtype` on `args`: exit code, stdout, stderr.
fn subtype(args: &[&str]) -> (i32, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_subtype"))
        .args(args)
        .output()
        .expect("runs the subtype binary");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("UTF-8 output");
    (
        output.status.code().expect("exits with a code"),
        text(output.stdout),
        text(output.stderr),
    )
}

fn succeeds(args: &[&str], stdout: &str) {
    assert_eq!(
        subtype(args),
        (0, format!("{stdout}\n"), String::new()),
        "{args:?}"
    );
}

fn fails(args: &[&str], code: i32, stdout: &str, stderr: &str) {
    let expected = |text: &str| match text {
        "" => String::new(),
        text => format!("{text}\n"),
    };
    assert_eq!(
        subtype(args),
        (code, expected(stdout), expected(stderr)),
        "{args:?}"
    );
}

#[test]
fn pairwise_prose_and_json() {
    succeeds(
        &[OPTIMISED, PROJECTED, "--bound", "4"],
        "subtype holds (bound 4, 6 state pairs visited)",
    );
    succeeds(
        &["p?l(i64).end", "p?l(u32).end", "--json", "--bound", "2"],
        r#"{"verdict": true, "bound": 2, "visited_pairs": 2}"#,
    );
    // Paper Example 2: receiving before sending deadlocks.
    fails(
        &["q?l2.q!l1.end", "q!l1.q?l2.end", "--bound", "2"],
        1,
        "subtype NOT shown (bound 2, 2 state pairs visited)",
        "",
    );
    fails(
        &["q?l2.q!l1.end", "q!l1.q?l2.end", "--json"],
        1,
        r#"{"verdict": false, "bound": 16, "visited_pairs": 2}"#,
        "",
    );
}

#[test]
fn a_type_can_come_from_a_file() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_projected.type");
    std::fs::write(&path, format!("{PROJECTED}\n")).unwrap();
    let path = format!("@{}", path.display());
    succeeds(
        &[OPTIMISED, &path, "--bound", "4", "--json"],
        r#"{"verdict": true, "bound": 4, "visited_pairs": 6}"#,
    );
}

#[test]
fn bulk_json_and_prose() {
    succeeds(
        &["p!a.end", "p!b.end", "+{p!a.end, p!b.end}", "--json"],
        r#"{"bound": 16, "candidates": [{"verdict": true, "visited_pairs": 2}, {"verdict": true, "visited_pairs": 3}]}"#,
    );
    let bulk = [
        OPTIMISED,
        PROJECTED,
        RECEIVE_FIRST,
        PROJECTED,
        "--bound",
        "4",
    ];
    fails(
        &bulk,
        1,
        "candidate 1: holds (bound 4, 6 state pairs visited)\n\
         candidate 2: holds (bound 4, 5 state pairs visited)\n\
         candidate 3: NOT shown (bound 4, 2 state pairs visited)",
        "",
    );
    fails(
        &[&bulk[..], &["--json"]].concat(),
        1,
        r#"{"bound": 4, "candidates": [{"verdict": true, "visited_pairs": 6}, {"verdict": true, "visited_pairs": 5}, {"verdict": false, "visited_pairs": 2}]}"#,
        "",
    );
}

#[test]
fn errors_exit_2() {
    fails(
        &["p!a.(", "p!a.end"],
        2,
        "",
        "error: parse error: expected a local type (at byte 4)",
    );
    fails(
        &["rec x . x", "p!a.end"],
        2,
        "",
        "error: unguarded recursion on x",
    );
    // In bulk, the supertype is converted first, then the candidates in
    // order; a candidate's error names it.
    fails(
        &["p!a.end", "rec x . x", "+{p!a.end, p!b.end}", "--json"],
        2,
        "",
        "error: candidate 2: unguarded recursion on x",
    );
    fails(
        &["rec y . y", "p!b.end", "rec x . x"],
        2,
        "",
        "error: unguarded recursion on x",
    );
    // A bound of 0 allows no visit, so nothing could ever be shown.
    for bound in ["x", "0"] {
        fails(
            &["p!a.end", "p!a.end", "--bound", bound],
            2,
            "",
            "--bound requires an integer >= 1",
        );
    }
    let (code, stdout, stderr) = subtype(&["p!a.end"]);
    assert_eq!((code, stdout.as_str()), (2, ""));
    assert!(stderr.starts_with("usage: subtype"), "{stderr}");
}
