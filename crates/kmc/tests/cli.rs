//! End-to-end test of the `kmc` binary: its verdict lines and exit codes
//! (0 k-MC safe, 1 violation, 2 usage, I/O or system error).

use std::path::PathBuf;
use std::process::Command;

/// The streaming protocol of the paper's §2: safe with one slot per channel.
const STREAMING: &str = "\
s: rec x . t?ready . +{ t!value.x, t!stop.end }
t: rec x . s!ready . &{ s?value.x, s?stop.end }
";

/// Writes `system` to a file named `name` and returns its path.
fn system_file(name: &str, system: &str) -> PathBuf {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_{name}.sys"));
    std::fs::write(&path, system).unwrap();
    path
}

/// Runs `kmc` on `args`: exit code, stdout, stderr.
fn kmc(args: &[&str]) -> (i32, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_kmc"))
        .args(args)
        .output()
        .expect("runs the kmc binary");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("UTF-8 output");
    (
        output.status.code().expect("exits with a code"),
        text(output.stdout),
        text(output.stderr),
    )
}

/// Runs `kmc` on the system `system` (written under `name`) with `flags`.
fn check(name: &str, system: &str, flags: &[&str]) -> (i32, String, String) {
    let path = system_file(name, system);
    let path = path.to_str().expect("UTF-8 path");
    kmc(&[&[path][..], flags].concat())
}

fn line(text: &str) -> String {
    format!("{text}\n")
}

#[test]
fn safe_system_reports_its_state_space() {
    assert_eq!(
        check("safe", STREAMING, &[]),
        (
            0,
            line("1-MC safe: 6 configurations, 6 transitions"),
            String::new()
        )
    );
    assert_eq!(
        check("safe_k2", STREAMING, &["--k", "2"]),
        (
            0,
            line("2-MC safe: 6 configurations, 6 transitions"),
            String::new()
        )
    );
}

#[test]
fn deadlock_exits_1() {
    // Paper Example 2, unsafe direction: both participants receive first.
    assert_eq!(
        check("deadlock", "p: q?l2.q!l1.end\nq: p?l1.p!l2.end\n", &[]),
        (
            1,
            line("violation: deadlock: no machine can make progress"),
            String::new()
        )
    );
}

#[test]
fn reception_error_names_role_peer_and_label() {
    assert_eq!(
        check("reception", "a: b!oops.end\nb: a?expected.end\n", &[]),
        (
            1,
            line("violation: reception error: b cannot receive oops from a"),
            String::new()
        )
    );
    // A label spelled like a role reads back as the label it is.
    assert_eq!(
        check("reception_role_label", "a: b!a.end\nb: a?b.end\n", &[]),
        (
            1,
            line("violation: reception error: b cannot receive a from a"),
            String::new()
        )
    );
}

#[test]
fn invalid_systems_exit_2() {
    assert_eq!(
        check("unknown_peer", "a: z!x.end\n", &[]),
        (
            2,
            String::new(),
            line("invalid system: machine a references unknown peer z")
        )
    );
    assert_eq!(
        check("duplicate_role", "a: b!x.end\nb: a?x.end\na: end\n", &[]),
        (2, String::new(), line("invalid system: duplicate role a"))
    );
    let (code, stdout, stderr) = kmc(&["no/such/system.sys"]);
    assert_eq!((code, stdout.as_str()), (2, ""));
    assert!(
        stderr.starts_with("cannot read no/such/system.sys: "),
        "{stderr}"
    );
}

#[test]
fn a_file_without_machines_exits_2() {
    for (name, system) in [("empty", ""), ("comments_only", "# nothing\n\n  # here\n")] {
        assert_eq!(
            check(name, system, &[]),
            (2, String::new(), line("invalid system: no machines")),
            "{name}"
        );
    }
}

#[test]
fn k_below_1_exits_2() {
    for k in ["0", "x"] {
        assert_eq!(
            check("bound", STREAMING, &["--k", k]),
            (2, String::new(), line("--k requires an integer >= 1")),
            "--k {k}"
        );
    }
}
