//! Differential test of `kmc::check`'s packed exploration against a
//! reference explorer that keeps whole [`Config`]s in a `HashSet` and a
//! `VecDeque` — the loop `check` ran before it packed configurations into
//! one arena. The two must agree on the entire [`Report`] or on the
//! identical [`Violation`], offending [`Config`] included, for
//!
//! * the random systems of the workspace's property tests (their
//!   generators are included from `tests/generators/`),
//! * every `bench::verification` family (what `fig7` times) at small `n`,
//! * the shapes of the benchmark's `verify_kmc` corpus,
//!
//! plus directed cases the random ones do not reach: a queue hundreds of
//! labels long, a state space that doubles the visited table many times,
//! and a message stranded at a terminated machine.
//!
//! CI runs this in release as well (`cargo test --release -p kmc`): the
//! reference is slow, and the large cases are the ones that exercise
//! table growth.

use bench::verification::to_fsm;
use kmc::{Report, System, Violation};
use proptest::prelude::*;
use theory::{Fsm, Name};

#[path = "../../../tests/generators/mod.rs"]
mod generators;
use generators::{
    binary_local_type, dual, optimised_pipeline, optimised_ring, retarget, sequence_global,
};

/// The reference: one heap-allocated [`Config`] per configuration, cloned
/// per fired transition, written against `kmc`'s public API only.
mod reference {
    use std::collections::{HashSet, VecDeque};

    use kmc::{Config, Report, System, Violation};
    use theory::fsm::{Direction, StateIndex};
    use theory::Name;

    #[derive(Clone, Copy)]
    struct CompiledAction {
        direction: Direction,
        peer: usize,
        label: Name,
        target: StateIndex,
    }

    pub fn check(system: &System, k: usize) -> Result<Report, Violation> {
        let k = k.max(1);
        let machines = system.machines();
        let machine_count = machines.len();
        let role_index = |role: &Name| system.roles().iter().position(|r| r == role).unwrap();
        let channel_index = |from: usize, to: usize| from * machine_count + to;

        let compiled: Vec<Vec<Vec<CompiledAction>>> = machines
            .iter()
            .map(|machine| {
                machine
                    .states()
                    .map(|state| {
                        machine
                            .transitions(state)
                            .iter()
                            .map(|(action, target)| CompiledAction {
                                direction: action.direction,
                                peer: role_index(&action.peer),
                                label: action.label,
                                target: *target,
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();

        let initial = Config {
            states: machines.iter().map(|m| m.initial()).collect(),
            channels: vec![VecDeque::new(); machine_count * machine_count],
        };

        let mut seen: HashSet<Config> = HashSet::new();
        let mut queue = VecDeque::new();
        queue.push_back(initial.clone());
        seen.insert(initial);

        let mut transitions = 0usize;
        let mut exhaustive = true;
        let mut max_depths = vec![0usize; machine_count * machine_count];

        while let Some(config) = queue.pop_front() {
            let mut enabled_any = false;

            for (index, states) in compiled.iter().enumerate() {
                let state = config.states[index];
                for action in &states[state.0] {
                    let mut next = config.clone();
                    match action.direction {
                        Direction::Send => {
                            let channel = channel_index(index, action.peer);
                            if config.channels[channel].len() >= k {
                                exhaustive = false;
                                continue;
                            }
                            next.channels[channel].push_back(action.label);
                            let depth = next.channels[channel].len();
                            max_depths[channel] = max_depths[channel].max(depth);
                        }
                        Direction::Receive => {
                            let channel = channel_index(action.peer, index);
                            if config.channels[channel].front() != Some(&action.label) {
                                continue;
                            }
                            next.channels[channel].pop_front();
                        }
                    }
                    next.states[index] = action.target;
                    enabled_any = true;
                    transitions += 1;
                    if !seen.contains(&next) {
                        queue.push_back(next.clone());
                        seen.insert(next);
                    }
                }
            }

            // Reception errors: a machine committed to receiving whose
            // matching channel head is unexpected.
            for (index, states) in compiled.iter().enumerate() {
                let all = &states[config.states[index].0];
                if all.is_empty() || all.iter().any(|a| a.direction != Direction::Receive) {
                    continue;
                }
                for action in all {
                    let channel = channel_index(action.peer, index);
                    if let Some(&found) = config.channels[channel].front() {
                        let expected = all
                            .iter()
                            .any(|a| a.peer == action.peer && a.label == found);
                        if !expected {
                            return Err(Violation::ReceptionError {
                                role: system.roles()[index],
                                peer: system.roles()[action.peer],
                                found,
                                config,
                            });
                        }
                    }
                }
            }

            let terminal = |index: usize| machines[index].is_terminal(config.states[index]);
            // Orphans: queued towards a machine that will never receive.
            let orphaned = config
                .channels
                .iter()
                .enumerate()
                .any(|(channel, queue)| !queue.is_empty() && terminal(channel % machine_count));
            if orphaned {
                return Err(Violation::OrphanMessages(config));
            }
            if !enabled_any && !(0..machine_count).all(terminal) {
                return Err(Violation::Deadlock(config));
            }
        }

        Ok(Report {
            configurations: seen.len(),
            transitions,
            exhaustive,
            max_depths,
        })
    }
}

/// Runs both explorers and insists on identical results.
fn agree(system: &System, k: usize, what: &str) -> Result<Report, Violation> {
    let packed = kmc::check(system, k);
    assert_eq!(packed, reference::check(system, k), "{what} at k = {k}");
    packed
}

fn system_of(machines: Vec<Fsm>) -> System {
    System::new(machines).expect("distinct roles, known peers")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Two unrelated binary types against each other: mostly unsafe, so
    /// this is where the three violations and their configurations are
    /// compared (of 3072 runs: 1050 deadlocks, 938 orphans, 340 reception
    /// errors, 744 safe). A type against its own dual is always safe.
    #[test]
    fn random_binary_pairs_agree(left in binary_local_type(), right in binary_local_type()) {
        let x = to_fsm("x", &retarget(&left, "y"));
        let y = |of: &theory::LocalType| to_fsm("y", &retarget(&dual(of), "x"));
        let system = system_of(vec![x.clone(), y(&right)]);
        let safe = system_of(vec![x, y(&left)]);
        for k in [1, 2, 3] {
            let _ = agree(&system, k, "random pair");
            prop_assert!(agree(&safe, k, "random dual pair").is_ok());
        }
    }

    /// Projections of a random three-role message sequence.
    #[test]
    fn random_projections_agree(global in sequence_global()) {
        let machines = ["a", "b", "c"]
            .iter()
            .map(|role| {
                let local = theory::projection::project(&global, &Name::from(*role)).unwrap();
                to_fsm(role, &local)
            })
            .collect();
        let system = system_of(machines);
        for k in [1, 2, 8] {
            prop_assert!(agree(&system, k, "random projections").is_ok());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The optimiser's output, every role swapped at once.
    #[test]
    fn optimised_systems_agree(n in 2..=5usize, depth in 0..=1usize) {
        let ring = system_of(optimised_ring(n, depth));
        prop_assert!(agree(&ring, depth + 1, "optimised ring").is_ok());
        let pipeline = system_of(optimised_pipeline(n.min(4), depth));
        prop_assert!(agree(&pipeline, 2, "optimised pipeline").is_ok());
    }
}

#[test]
fn fig7_families_agree_at_small_n() {
    use bench::verification::{k_buffering, nested_choice, ring, streaming};
    type Family = (&'static str, fn(usize) -> (System, usize), &'static [usize]);
    let families: [Family; 5] = [
        ("streaming", streaming::kmc_instance, &[0, 1, 3, 8]),
        ("nested choice", nested_choice::kmc_instance, &[0, 1, 2, 3]),
        ("ring", ring::kmc_instance, &[2, 3, 4, 6]),
        ("k-buffering", k_buffering::kmc_instance, &[0, 1, 2, 5]),
        ("pipeline", k_buffering::kmc_pipeline_instance, &[1, 2, 3]),
    ];
    for (name, instance, sizes) in families {
        for &n in sizes {
            let (system, k) = instance(n);
            let report = agree(&system, k, &format!("{name} n = {n}"));
            assert!(report.is_ok(), "{name} n = {n}: {report:?}");
            // Below the family's own bound the search is cut short by
            // full queues: the non-exhaustive path.
            let _ = agree(&system, 1, &format!("{name} n = {n}"));
        }
    }
}

/// Ring in which participant `p{i}` runs `body(prev, next)`, as `role:
/// local type` lines like the benchmark's corpus.
fn ring_of(n: usize, body: impl Fn(usize, usize) -> String) -> System {
    let lines: Vec<(String, String)> = (0..n)
        .map(|i| (format!("p{i}"), body((i + n - 1) % n, (i + 1) % n)))
        .collect();
    let lines: Vec<(&str, &str)> = lines
        .iter()
        .map(|(role, body)| (role.as_str(), body.as_str()))
        .collect();
    kmc::system_from_locals(&lines).expect("well-formed system")
}

/// The AMR ring of the benchmark corpus: everybody sends first.
fn amr_ring(n: usize) -> System {
    ring_of(n, |prev, next| format!("rec x . p{next}!v . p{prev}?v . x"))
}

#[test]
fn benchmark_corpus_shapes_agree() {
    const KBUFFERING: &str = include_str!("../../../benchmark/corpus/kbuffering.scr");
    const PMESH: &str = include_str!("../../../benchmark/corpus/pmesh.scr");
    let scribble = |text: &str, n: i64| {
        let analysis = codegen::analyse_with(text, &[(Name::from("n"), n)]).expect("analyses");
        system_of(analysis.fsms)
    };

    let safe = [
        ("kbuffering-4", scribble(KBUFFERING, 4), 2),
        ("kbuffering-5", scribble(KBUFFERING, 5), 2),
        ("pmesh-4", scribble(PMESH, 4), 2),
        ("pmesh-5", scribble(PMESH, 5), 2),
        ("amr-ring-8", amr_ring(8), 1),
    ];
    let (mut configurations, mut transitions) = (0, 0);
    for (name, system, k) in &safe {
        let report = agree(system, *k, name).unwrap_or_else(|v| panic!("{name}: {v}"));
        configurations += report.configurations;
        transitions += report.transitions;
    }
    // The counts `benchmark/README.md` states for one `verify_kmc` pass.
    assert_eq!((configurations, transitions), (23_254, 89_559));

    // A ring in which nobody sends first can never move.
    let stuck = ring_of(3, |prev, next| format!("rec x . p{prev}?v . p{next}!v . x"));
    assert!(matches!(
        agree(&stuck, 1, "stuck-ring-3"),
        Err(Violation::Deadlock(_))
    ));
    let wrong_label = kmc::system_from_locals(&[
        ("a", "b!ping . b?pong . end"),
        ("b", "a?ping . a!oops . end"),
    ])
    .unwrap();
    assert!(matches!(
        agree(&wrong_label, 2, "wrong-label"),
        Err(Violation::ReceptionError { .. })
    ));
}

/// Directed: one queue grows to 101 labels, so a record is mostly queue
/// and the send and receive cases splice far from the record's ends.
#[test]
fn long_queue_at_large_k_agrees() {
    let (system, k) = bench::verification::streaming::kmc_instance(100);
    assert_eq!(k, 101);
    let report = agree(&system, k, "streaming unrolled 100 times").expect("safe");
    assert!(report.exhaustive);
    assert_eq!(report.max_depths.iter().max(), Some(&101));
}

/// Directed: thousands of configurations from a 64-slot start, so the
/// visited table doubles and re-places its entries again and again —
/// 8 times at k = 1, 12 times at k = 2, which only a release build
/// explores in reasonable time (the reference takes 14 s there in debug).
#[test]
fn table_growth_agrees() {
    let (k, doublings) = if cfg!(debug_assertions) {
        (1, 8)
    } else {
        (2, 12)
    };
    let report = agree(&amr_ring(8), k, "ring of 8").expect("safe");
    // The table starts at 64 slots and is never more than half full.
    assert!(report.configurations > 32 << (doublings - 1), "{report:?}");
}

/// Directed: `x` can never be received — `b` has terminated — while `a`
/// and `c` loop forever, so no configuration is final.
#[test]
fn stranded_message_agrees() {
    let system = kmc::system_from_locals(&[
        ("a", "b!x . rec t . c!y . c?z . t"),
        ("b", "end"),
        ("c", "rec t . a?y . a!z . t"),
    ])
    .unwrap();
    assert!(matches!(
        agree(&system, 1, "stranded message"),
        Err(Violation::OrphanMessages(_))
    ));
}
