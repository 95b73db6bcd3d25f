//! `codegen::verified_channel_bounds` makes one k-MC run at
//! `MAX_BOUND_SEARCH`; this test keeps the `k = 1, 2, …` ladder it
//! replaced as the oracle and asserts both agree on the protocol corpus
//! (projected and optimised), the Fig 7 k-MC systems, and systems that
//! deadlock, grow without bound, mislabel or orphan a message.

use bench::verification::{k_buffering, ring, streaming};
use codegen::{Analysis, MAX_BOUND_SEARCH};
use theory::{fsm, local, scribble, Fsm, Name};

/// The ladder: the first `k` whose exploration is exhaustive gives the
/// bounds; a deadlock or a non-exhaustive run widens `k`, any other
/// violation ends the search empty.
fn ladder(fsms: &[Fsm]) -> Vec<(Name, Name, usize)> {
    let Ok(system) = kmc::System::new(fsms.to_vec()) else {
        return Vec::new();
    };
    for k in 1..=MAX_BOUND_SEARCH {
        match kmc::explore(&system, k) {
            Ok(report) if report.exhaustive => return report.channel_bounds(&system),
            Ok(_) | Err(kmc::Violation::Deadlock(_)) => continue,
            Err(_) => return Vec::new(),
        }
    }
    Vec::new()
}

/// An analysis carrying `fsms`; `verified_channel_bounds` reads only
/// the machines.
fn analysis_of(fsms: Vec<Fsm>) -> Analysis {
    let protocol = scribble::parse("global protocol P(role a, role b) { m() from a to b; }")
        .expect("placeholder protocol parses");
    Analysis {
        protocol,
        locals: Vec::new(),
        fsms,
    }
}

/// Asserts the single run agrees with the ladder; returns the bounds.
fn assert_agrees(what: &str, analysis: &Analysis) -> Vec<(Name, Name, usize)> {
    let bounds = codegen::verified_channel_bounds(analysis);
    assert_eq!(bounds, ladder(&analysis.fsms), "{what}");
    bounds
}

fn machines(lines: &[(&str, &str)]) -> Vec<Fsm> {
    lines
        .iter()
        .map(|(role, text)| {
            fsm::from_local(
                &Name::from(*role),
                &local::parse(text).expect("local type parses"),
            )
            .expect("machine builds")
        })
        .collect()
}

#[test]
fn corpus_protocols_agree_projected_and_optimised() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../codegen/tests/protocols");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("corpus directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "scr"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 10, "corpus has {} protocols", paths.len());
    for path in paths {
        let source = std::fs::read_to_string(&path).expect("protocol reads");
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let sizes = if source.contains("--param n=") {
            1..=6
        } else {
            0..=0
        };
        let mut instantiated = 0;
        for n in sizes {
            let params = if n == 0 {
                Vec::new()
            } else {
                vec![(Name::from("n"), n)]
            };
            // Some templates need a larger `n` (a ring of one, say).
            let Ok(mut analysis) = codegen::analyse_with(&source, &params) else {
                continue;
            };
            instantiated += 1;
            let projected = assert_agrees(&format!("{name} n={n}"), &analysis);
            assert!(!projected.is_empty(), "{name} n={n} has verified bounds");
            codegen::optimise(&mut analysis, &optimiser::Config::with_depth(1))
                .expect("protocol optimises");
            assert_agrees(&format!("{name} n={n} optimised"), &analysis);
        }
        assert!(instantiated > 0, "{name} instantiates");
    }
}

#[test]
fn fig7_systems_agree() {
    for n in 2..=8 {
        let (system, _) = ring::kmc_instance(n);
        let bounds = assert_agrees(
            &format!("ring {n}"),
            &analysis_of(system.machines().to_vec()),
        );
        assert!(!bounds.is_empty(), "ring {n} has verified bounds");
    }
    for stages in 1..=5 {
        assert_agrees(
            &format!("pipeline {stages}"),
            &k_buffering::pipeline(stages),
        );
    }
    for unrolls in [1, 5, 20] {
        let (system, _) = streaming::kmc_instance(unrolls);
        assert_agrees(
            &format!("streaming {unrolls}"),
            &analysis_of(system.machines().to_vec()),
        );
    }
}

#[test]
fn violating_and_unbounded_systems_agree_on_no_bounds() {
    let cases: [(&str, &[(&str, &str)]); 4] = [
        (
            "stuck ring",
            &[
                ("a", "c?v.b!v.end"),
                ("b", "a?v.c!v.end"),
                ("c", "b?v.a!v.end"),
            ],
        ),
        (
            "unbounded producer",
            &[("a", "rec x . b!v . x"), ("b", "rec x . a?v . x")],
        ),
        ("wrong label", &[("a", "b!x.end"), ("b", "a?y.end")]),
        ("orphan", &[("a", "b!x.end"), ("b", "end")]),
    ];
    for (what, lines) in cases {
        let bounds = assert_agrees(what, &analysis_of(machines(lines)));
        assert!(bounds.is_empty(), "{what}: {bounds:?}");
    }
}

/// Directed: `a` sends `depth` messages before `b` receives any. At
/// `depth = MAX_BOUND_SEARCH` the queue fills exactly to the bound and the
/// search is exhaustive, so the bound is verified; one more message finds
/// the queue full, and no bound is.
#[test]
fn a_queue_filled_exactly_to_the_bound_agrees() {
    for depth in [MAX_BOUND_SEARCH - 1, MAX_BOUND_SEARCH, MAX_BOUND_SEARCH + 1] {
        let sends = "b!v . ".repeat(depth) + "end";
        let receives = "a?v . ".repeat(depth) + "end";
        let what = format!("{depth} sends before a receive");
        let bounds = assert_agrees(
            &what,
            &analysis_of(machines(&[("a", &sends), ("b", &receives)])),
        );
        let expected = if depth <= MAX_BOUND_SEARCH {
            vec![(Name::from("a"), Name::from("b"), depth)]
        } else {
            Vec::new()
        };
        assert_eq!(bounds, expected, "{what}");
    }
}
