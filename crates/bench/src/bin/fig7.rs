//! Regenerates Fig 7 / Appendix C.2: verification running-time tables.
//!
//! ```text
//! cargo run --release -p bench --bin fig7 \
//!     [streaming|nested-choice|ring|k-buffering|pipeline|amr]
//! cargo run --release -p bench --bin fig7 -- --ablation
//! ```
//!
//! Each row reports seconds per check for SoundBinary, k-MC and
//! Rumpsteak's subtyping algorithm (blank where a tool is inapplicable,
//! e.g. SoundBinary on multiparty protocols). Parameter ranges follow the
//! paper; k-MC sweeps are capped once a single check exceeds a second so
//! the table finishes in reasonable time — the exponential trend is
//! visible well before the cap.
//!
//! The k-MC column is the exact search (`kmc::explore`), which explores
//! every interleaving as the paper's baseline tool does. The ring and
//! pipeline tables add two reduced searches beside it, each capped the
//! same way: the verdict (`kmc::check`), and the channel bounds codegen
//! asks for (`kmc::bounds` at `codegen::MAX_BOUND_SEARCH`: the verdict's
//! depths, certified where a search of a channel's two machines allows,
//! and one search per queue left; no ring or pipeline queue is certified,
//! since their machines synchronise through third parties). A bounds cell
//! reads `–` where the exact search at that bound
//! is not exhaustive, since some queue would hold more: `kmc::bounds`
//! then gives no depths. A larger ring or pipeline only fills its queues
//! further, so every later cell reads `–` without a search.
//! Both tables close with the configurations the verdict's searches
//! explored at the largest `n` the exact column timed, and those the
//! bound searches stored, with the queues the channel pairs certified,
//! against the exact search's at k = 16, at n = 8.
//!
//! The `amr` table compares the verification cost of the projected →
//! optimised step when the reordering is hand-written (one subtype
//! check) against deriving it automatically (the optimiser's full
//! generate-and-verify search), per family and depth — the price of the
//! paper's automation.
//!
//! `--ablation` prints the Appendix B.5 ablation instead of a figure:
//! the subtyping check with and without its fail-early cut-off, on
//! rejecting inputs (where the cut-off prunes doomed derivation paths
//! long before the recursion bound) and on an accepting one (where both
//! configurations find the same derivation).

use std::time::Duration;

use bench::timing::measure;
use bench::verification::{k_buffering, nested_choice, ring, streaming};

const BUDGET: Duration = Duration::from_millis(200);

/// The ring and pipeline size at which the bound searches' configurations
/// are compared with the exact search's at the same bound. The exact
/// search's reachable set grows with `k`, so this is a size it still
/// explores at `codegen::MAX_BOUND_SEARCH`: ring 12 at k = 16 outgrows its
/// arena.
const BOUNDS_AT: usize = 8;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    match which.as_str() {
        "streaming" => table_streaming(),
        "nested-choice" => table_nested_choice(),
        "ring" => table_ring(),
        "k-buffering" => table_k_buffering(),
        "pipeline" => table_pipeline(),
        "amr" => table_amr(),
        "--ablation" => table_ablation(),
        "all" => {
            table_streaming();
            table_nested_choice();
            table_ring();
            table_k_buffering();
            table_pipeline();
            table_amr();
        }
        other => {
            eprintln!(
                "unknown table `{other}`; expected \
                 streaming|nested-choice|ring|k-buffering|pipeline|amr|all or --ablation"
            );
            std::process::exit(2);
        }
    }
}

/// Times one boolean check, asserting it holds.
fn time_check(mut f: impl FnMut() -> bool) -> f64 {
    assert!(f(), "verification unexpectedly failed");
    let run = || {
        std::hint::black_box(f());
    };
    let seconds = measure(run, BUDGET, 100).as_secs_f64();
    // Micro-assertion: every emitted cell must actually populate — a
    // zero/NaN timing would render the table silently meaningless (e.g.
    // if a check was optimised out or a clock regressed).
    assert!(
        seconds.is_finite() && seconds > 0.0,
        "verification timing failed to populate"
    );
    seconds
}

/// [`time_check`] for a sweep that stops measuring once one instance
/// took over a second (the next, larger one would take far longer).
fn time_capped(enabled: &mut bool, f: impl FnMut() -> bool) -> Option<f64> {
    enabled.then(|| {
        let seconds = time_check(f);
        *enabled = seconds <= 1.0;
        seconds
    })
}

/// The three k-MC columns of the ring and pipeline sweeps: the exact
/// search (the paper's baseline), and the reduced verdict and the bound
/// searches beside it, each under its own
/// [`time_capped`] rule.
struct KmcColumns {
    /// Whether each column still times its cells.
    exact: bool,
    reduced: bool,
    bounds: bool,
    /// Whether a row's bound search gave no depths.
    past_bound: bool,
    /// The largest `n` the exact column timed.
    largest: Option<usize>,
}

impl KmcColumns {
    fn new() -> Self {
        Self {
            exact: true,
            reduced: true,
            bounds: true,
            past_bound: false,
            largest: None,
        }
    }

    /// The row's exact, reduced and bounds cells. [`time_check`] asserts
    /// that each timed verdict is the safe one, so two cells of a row
    /// agree. A bound search that gives no depths is not timed: its cell,
    /// and every later one, reads `–`.
    fn cells(
        &mut self,
        n: usize,
        exact: impl FnMut() -> bool,
        reduced: impl FnMut() -> bool,
        mut bounds: impl FnMut() -> bool,
    ) -> [String; 3] {
        let exact = time_capped(&mut self.exact, exact);
        if exact.is_some() {
            self.largest = Some(n);
        }
        let reduced = time_capped(&mut self.reduced, reduced);
        self.past_bound |= self.bounds && !bounds();
        let bounds = if self.past_bound {
            "–".into()
        } else {
            fmt(time_capped(&mut self.bounds, bounds))
        };
        [fmt(exact), fmt(reduced), bounds]
    }

    /// Prints how many configurations each search explored: at the
    /// largest `n` the exact column timed, all reachable ones and the
    /// reduced verdict's share of them; at `n =` [`BOUNDS_AT`], what the
    /// bound searches stored, and how many queues the channel pairs
    /// certified, against what the exact search explores at their bound,
    /// whose depths they must equal.
    fn explored_vs_reachable(&self, instance: fn(usize) -> (kmc::System, usize)) {
        let n = self.largest.expect("the exact column timed its first row");
        let (system, k) = instance(n);
        let explored = kmc::check(&system, k).expect("safe").configurations;
        let reachable = kmc::explore(&system, k).expect("safe").configurations;
        assert!(
            explored <= reachable,
            "the reduced search explores reachable configurations"
        );
        println!("# n = {n}: the reduced search explored {explored} of {reachable} reachable configurations");
        let (system, _) = instance(BOUNDS_AT);
        let k = codegen::MAX_BOUND_SEARCH;
        let (max_depths, stored, certified) =
            (kmc::bounds_stored(&system, k).expect("safe")).expect("exhaustive at k");
        let report = kmc::explore(&system, k).expect("safe");
        assert_eq!(
            max_depths, report.max_depths,
            "the bound searches find the exact depths"
        );
        println!(
            "# n = {BOUNDS_AT}: the bound searches at k = {k} stored {} configurations, \
             {certified} queues certified by channel pairs; the exact search explores {}",
            stored, report.configurations
        );
    }
}

fn fmt(seconds: Option<f64>) -> String {
    match seconds {
        Some(s) => format!("{s:.6}"),
        None => "-".into(),
    }
}

fn table_streaming() {
    println!("# Fig 7 / C.2 — Streaming: seconds vs unrolls");
    println!("n\tSoundBinary\tk-MC\tRumpsteak");
    let mut kmc_enabled = true;
    for n in (0..=100).step_by(10) {
        let soundbinary = Some(time_check(|| streaming::check_soundbinary(n)));
        let kmc = time_capped(&mut kmc_enabled, || streaming::check_kmc(n));
        let rumpsteak = Some(time_check(|| streaming::check_rumpsteak(n)));
        println!(
            "{n}\t{}\t{}\t{}",
            fmt(soundbinary),
            fmt(kmc),
            fmt(rumpsteak)
        );
    }
    println!();
}

fn table_nested_choice() {
    println!("# Fig 7 / C.2 — Nested choice: seconds vs levels");
    println!("n\tSoundBinary\tk-MC\tRumpsteak");
    let mut kmc_enabled = true;
    for n in 1..=6 {
        let soundbinary = Some(time_check(|| nested_choice::check_soundbinary(n)));
        let kmc = time_capped(&mut kmc_enabled, || nested_choice::check_kmc(n));
        let rumpsteak = Some(time_check(|| nested_choice::check_rumpsteak(n)));
        println!(
            "{n}\t{}\t{}\t{}",
            fmt(soundbinary),
            fmt(kmc),
            fmt(rumpsteak)
        );
    }
    println!();
}

fn table_ring() {
    println!("# Fig 7 / C.2 — Ring: seconds vs participants");
    println!("n\tk-MC\tk-MC(reduced)\tk-MC(bounds)\tRumpsteak");
    let mut kmc = KmcColumns::new();
    for n in (2..=30).step_by(2) {
        let [exact, reduced, bounds] = kmc.cells(
            n,
            || ring::check_kmc(n),
            || ring::check_kmc_reduced(n),
            || ring::kmc_bounds(n),
        );
        let rumpsteak = fmt(Some(time_check(|| ring::check_rumpsteak(n))));
        println!("{n}\t{exact}\t{reduced}\t{bounds}\t{rumpsteak}");
    }
    kmc.explored_vs_reachable(ring::kmc_instance);
    println!();
}

fn table_pipeline() {
    println!("# k-buffering pipeline (generated from kbuffering.scr): seconds vs stages");
    println!("n\tk-MC\tk-MC(reduced)\tk-MC(bounds)\tRumpsteak(per-stage)");
    let mut kmc = KmcColumns::new();
    for n in 1..=12 {
        let [exact, reduced, bounds] = kmc.cells(
            n,
            || k_buffering::check_kmc_pipeline(n),
            || k_buffering::check_kmc_pipeline_reduced(n),
            || k_buffering::kmc_pipeline_bounds(n),
        );
        let rumpsteak = fmt(Some(time_check(|| {
            k_buffering::check_rumpsteak_pipeline(n)
        })));
        println!("{n}\t{exact}\t{reduced}\t{bounds}\t{rumpsteak}");
    }
    kmc.explored_vs_reachable(k_buffering::kmc_pipeline_instance);
    println!();
}

/// Projected → optimised verification cost: checking a hand-written
/// reordering vs deriving it automatically (candidate search + bulk
/// verification). `check` times one subtype check of the hand-written
/// variant against its projection; `derive` times the optimiser run that
/// rediscovers it; `cands` is the number of candidates that run
/// generates; `visits` is the total state-pair visits the bulk
/// verification performed, read from the per-candidate `CheckStats` the
/// optimiser already collected — the checker is not re-run for it.
fn table_amr() {
    use theory::Name;

    /// One benchmarked family: name, role, projected type, hand-written
    /// optimised variant at depth `n`.
    type Family = (
        &'static str,
        &'static str,
        fn() -> theory::LocalType,
        fn(usize) -> theory::LocalType,
    );

    println!("# AMR automation: hand-written check vs automatic derivation (seconds)");
    println!("family\tn\tcheck(hand)\tderive(auto)\tcands\tvisits");
    let families: [Family; 2] = [
        ("k-buffering", "k", k_buffering::projected, |n| {
            k_buffering::optimised(n)
        }),
        ("streaming", "s", streaming::projected, |n| {
            streaming::optimised(n)
        }),
    ];
    for (family, role, projected, optimised) in families {
        let projected = projected();
        let projected_fsm = bench::verification::to_fsm(role, &projected);
        for n in [1usize, 2, 4] {
            let config = optimiser::Config::with_depth(n);
            let hand = bench::verification::to_fsm(role, &optimised(n));
            let check = time_check(|| subtyping::is_subtype(&hand, &projected_fsm, n + 4));
            let outcome =
                optimiser::optimise(&Name::from(role), &projected, &config).expect("optimises");
            assert!(
                outcome.candidates.iter().any(|c| c.fsm == hand),
                "{family} n={n}: optimiser lost the hand-written reordering"
            );
            let derive = time_check(|| {
                let outcome =
                    optimiser::optimise(&Name::from(role), &projected, &config).expect("optimises");
                outcome.best().is_some_and(|best| best.score >= n)
            });
            let visits: usize = outcome
                .candidates
                .iter()
                .map(|c| c.stats.visited_pairs)
                .sum();
            println!(
                "{family}\t{n}\t{}\t{}\t{}\t{visits}",
                fmt(Some(check)),
                fmt(Some(derive)),
                outcome.generated
            );
        }
    }
    println!();
}

/// Fail-early on vs off. The rejecting rows check the *projection*
/// against the double-buffering kernel with `n` extra anticipated
/// readys — a genuinely false subtyping in which every path is doomed,
/// but only fail-early notices before the bound.
fn table_ablation() {
    use subtyping::SubtypeVisitor;

    // Built once, outside the timers: the rows time the search alone.
    let fsm = |text: &str| {
        let local = theory::local::parse(text).expect("well-formed type");
        bench::verification::to_fsm("r", &local)
    };
    let projected = fsm("rec x . s!ready . s?value . t?ready . t!value . x");
    // Microseconds: the pruned checks finish well under the figures'
    // six-decimal seconds.
    let us = |seconds: f64| format!("{:.3}", seconds * 1e6);
    println!("# Ablation (Appendix B.5) — fail-early cut-off: microseconds per check");
    println!("case\tn\twith\twithout");
    for n in [1usize, 2, 4, 8] {
        let optimised = fsm(&format!(
            "{}rec x . s!ready . s?value . t?ready . t!value . x",
            "s!ready . ".repeat(n)
        ));
        let bound = n + 6;
        let with = time_check(|| {
            !SubtypeVisitor::new(bound)
                .check(&projected, &optimised)
                .verdict
        });
        let without = time_check(|| {
            !SubtypeVisitor::new(bound)
                .without_fail_early()
                .check(&projected, &optimised)
                .verdict
        });
        println!("rejecting\t{n}\t{}\t{}", us(with), us(without));
    }
    let optimised = fsm("s!ready . rec x . s!ready . s?value . t?ready . t!value . x");
    let with = time_check(|| SubtypeVisitor::new(8).check(&optimised, &projected).verdict);
    let without = time_check(|| {
        SubtypeVisitor::new(8)
            .without_fail_early()
            .check(&optimised, &projected)
            .verdict
    });
    println!("accepting\t1\t{}\t{}", us(with), us(without));
    println!();
}

fn table_k_buffering() {
    println!("# Fig 7 / C.2 — k-buffering: seconds vs unrolls");
    println!("n\tk-MC\tRumpsteak");
    let mut kmc_enabled = true;
    for n in (0..=100).step_by(5) {
        let kmc = time_capped(&mut kmc_enabled, || k_buffering::check_kmc(n));
        let rumpsteak = Some(time_check(|| k_buffering::check_rumpsteak(n)));
        println!("{n}\t{}\t{}", fmt(kmc), fmt(rumpsteak));
    }
    println!();
}
