//! The cross-field invariants behind `bench-check`: what a well-typed
//! artifact or report must additionally satisfy.
//!
//! Shape (which members exist, of which type) is settled by decoding
//! into [`Artifact`] / [`Report`]; each function here takes the decoded
//! value and returns one line per violated invariant, empty when it
//! holds. `fig6 --telemetry` runs [`telemetry`] on its own output
//! before writing it, so an instrumented sweep doubles as an end-to-end
//! check of the verifier's guarantee.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use optimiser::Report;

use crate::artifact::{Artifact, Quantiles};

/// Slowdown of a protocol's best row the gate tolerates against the
/// committed baseline. Generous on purpose: shared CI runners and the
/// quick mode's smaller sample must not trip it, an order-of-magnitude
/// regression still does.
pub const TOLERANCE: f64 = 2.5;

/// Microbench families that must be present in both runs, so a row
/// family cannot escape regression coverage by vanishing.
pub const REQUIRED_FAMILIES: [&str; 2] = ["channel_", "transport_"];

/// `(optimised, projected)` rows of the optimiser's quality loop: the
/// AMR-optimised variant must beat the projection it replaced —
/// strictly in the baseline (full measurement budget, so a loss there
/// is a bad pick), within [`QUALITY_SLACK`] in the noisier current run.
pub const QUALITY_PAIRS: [(&str, &str); 2] = [
    ("double_buffering", "double_buffering_proj"),
    ("streaming", "streaming_proj"),
];

/// Allowed optimised/projected ratio in the current (quick) run.
pub const QUALITY_SLACK: f64 = 1.25;

fn check_quantiles(hist: &Option<Quantiles>, at: &str, errors: &mut Vec<String>) -> bool {
    let Some(q) = hist else {
        return false;
    };
    if q.count == 0 {
        errors.push(format!("{at}: present but count is 0 (should be null)"));
    }
    let ladder = [q.p50, q.p90, q.p99, q.p999, q.max];
    if !ladder.is_sorted() {
        errors.push(format!("{at}: quantile ladder is not monotone: {ladder:?}"));
    }
    true
}

/// Invariants of an instrumented `fig6 --json --telemetry` artifact:
///
/// * provenance is present, and so is the `telemetry` section;
/// * every scheduler entry has `threads` worker blocks and some worker
///   recorded polls;
/// * every channel with a registered k-MC bound has `high_watermark <=
///   kmc_bound` and `batch_window <= kmc_bound` (a receive window wider
///   than k would drain past what the verification covers), and at
///   least one channel carries a bound;
/// * every socket link has `send_window <= kmc_bound` when both are
///   registered, at least one has a window and one moved frames;
/// * every histogram present has samples and a monotone quantile
///   ladder, and at least one channel, one socket link and one session
///   role carry one (the stamp paths cannot all be dead).
pub fn telemetry(artifact: &Artifact) -> Vec<String> {
    let mut errors = Vec::new();
    for (key, value) in [
        ("git_revision", &artifact.git_revision),
        ("rustc_version", &artifact.rustc_version),
        ("generated_at", &artifact.generated_at),
    ] {
        if value.is_empty() {
            errors.push(format!("`{key}` is empty"));
        }
    }
    let Some(telemetry) = &artifact.telemetry else {
        errors.push("no `telemetry` section (run fig6 with --telemetry)".to_owned());
        return errors;
    };

    for (i, entry) in telemetry.scheduler.iter().enumerate() {
        if entry.threads == 0 || entry.workers.len() as u64 != entry.threads {
            errors.push(format!(
                "scheduler[{i}]: {} worker blocks for threads={}",
                entry.workers.len(),
                entry.threads
            ));
        }
    }
    let polls = telemetry.scheduler.iter().flat_map(|e| &e.workers);
    if polls.map(|w| w.polls).sum::<u64>() == 0 {
        errors.push("scheduler: no worker recorded any polls".to_owned());
    }

    let (mut bounded, mut sampled) = (0, 0);
    for (i, link) in telemetry.channels.iter().enumerate() {
        let at = format!("channels[{i}] ({} -> {})", link.from, link.to);
        if link.from.is_empty() || link.to.is_empty() {
            errors.push(format!("{at}: unnamed endpoint"));
        }
        sampled += usize::from(check_quantiles(&link.latency, &at, &mut errors));
        let Some(bound) = link.kmc_bound else {
            continue;
        };
        bounded += 1;
        if bound == 0 {
            errors.push(format!("{at}: kmc_bound is 0"));
        }
        if link.high_watermark > bound {
            errors.push(format!(
                "{at}: high_watermark {} exceeds verified k-MC bound {bound}",
                link.high_watermark
            ));
        }
        if link.batch_window.is_some_and(|w| w == 0 || w > bound) {
            errors.push(format!(
                "{at}: batch_window {:?} is outside 1..={bound}, the verified k-MC bound",
                link.batch_window
            ));
        }
    }
    if bounded == 0 {
        errors.push("channels: no link carries a registered k-MC bound".to_owned());
    }
    if sampled == 0 {
        errors.push("channels: no link recorded send->recv latency samples".to_owned());
    }

    let (mut windowed, mut framed, mut sampled) = (0, 0, 0);
    for (i, link) in telemetry.transport.iter().enumerate() {
        let at = format!("transport[{i}] ({} -> {})", link.from, link.to);
        if link.from.is_empty() || link.to.is_empty() {
            errors.push(format!("{at}: unnamed endpoint"));
        }
        sampled += usize::from(check_quantiles(&link.wire_latency, &at, &mut errors));
        framed += usize::from(link.frames_sent > 0);
        windowed += usize::from(link.send_window.is_some());
        if link.send_window == Some(0) || link.kmc_bound == Some(0) {
            errors.push(format!("{at}: send_window or kmc_bound is 0"));
        }
        if let (Some(window), Some(bound)) = (link.send_window, link.kmc_bound) {
            if window > bound {
                errors.push(format!(
                    "{at}: send_window {window} exceeds verified k-MC bound {bound}"
                ));
            }
        }
    }
    if windowed == 0 {
        errors.push("transport: no link carries a registered send window".to_owned());
    }
    if framed == 0 {
        errors.push("transport: no link moved any frames".to_owned());
    }
    if sampled == 0 {
        errors.push("transport: no link recorded wire latency samples".to_owned());
    }

    let mut recorded = 0;
    for (i, entry) in telemetry.sessions.iter().enumerate() {
        let at = format!("sessions[{i}] ({})", entry.role);
        if entry.role.is_empty() {
            errors.push(format!("{at}: unnamed role"));
        }
        recorded += usize::from(check_quantiles(&entry.lifetime_ns, &at, &mut errors));
    }
    if recorded == 0 {
        errors.push("sessions: no role recorded a lifetime".to_owned());
    }
    errors
}

/// Invariants of a `rumpsteak-gen --optimise --report` array:
///
/// * `improved` is true exactly when `best` is present,
/// * `best`, when present, has a derivation and is the first entry of
///   `candidates`,
/// * `candidates` lists exactly the `verified` candidates, and
/// * `verified` never exceeds `generated`.
pub fn report(roles: &[Report]) -> Vec<String> {
    let mut errors = Vec::new();
    if roles.is_empty() {
        errors.push("report lists no roles".to_owned());
    }
    for (i, role) in roles.iter().enumerate() {
        let at = format!("report[{i}] ({})", role.role);
        if role.role.is_empty() || role.projection.is_empty() {
            errors.push(format!("{at}: empty `role` or `projection`"));
        }
        if !matches!(
            role.cost_source.as_deref(),
            None | Some("default-table" | "measured")
        ) {
            errors.push(format!(
                "{at}: unknown `cost_source` {:?}",
                role.cost_source
            ));
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

/// Protocol → best (minimum) ns/op across thread counts.
fn best_ns_per_op(artifact: &Artifact) -> BTreeMap<&str, f64> {
    let mut best = BTreeMap::new();
    for row in &artifact.results {
        let entry = best.entry(row.protocol.as_str()).or_insert(f64::INFINITY);
        *entry = row.ns_per_op.min(*entry);
    }
    best
}

/// Compares a fresh `fig6 --json` run against the committed baseline:
/// every baseline protocol's best row within [`TOLERANCE`], both runs
/// carrying the [`REQUIRED_FAMILIES`], and the [`QUALITY_PAIRS`]
/// holding. Quick mode runs the same workload sizes as the full-mode
/// baseline, so per-op numbers are directly comparable.
///
/// Returns the comparison table and the failures, worst regression
/// first; the gate passes when the latter is empty.
pub fn gate(baseline: &Artifact, current: &Artifact) -> (String, Vec<String>) {
    let runs = [
        ("baseline", best_ns_per_op(baseline), 1.0),
        ("current", best_ns_per_op(current), QUALITY_SLACK),
    ];
    let [(_, base, _), (_, cur, _)] = &runs;
    let mut table = format!(
        "{:<30} {:>12} {:>12} {:>8}  verdict\n",
        "protocol", "baseline", "current", "ratio"
    );

    // Every row is compared before any verdict is acted on: a perf PR
    // gets the complete regression picture from a single CI run.
    let mut regressions: Vec<(f64, String)> = Vec::new();
    for (protocol, &base_ns) in base {
        let Some(&cur_ns) = cur.get(protocol) else {
            let _ = writeln!(
                table,
                "{protocol:<30} {base_ns:>12.1} {:>12} {:>8}  FAIL",
                "MISSING", "-"
            );
            regressions.push((
                f64::INFINITY,
                format!("{protocol}: missing from current run"),
            ));
            continue;
        };
        let ratio = cur_ns / base_ns;
        let ok = ratio <= TOLERANCE;
        let verdict = if ok { "ok" } else { "FAIL" };
        let _ = writeln!(
            table,
            "{protocol:<30} {base_ns:>12.1} {cur_ns:>12.1} {ratio:>8.2}  {verdict}"
        );
        if !ok {
            regressions.push((
                ratio,
                format!(
                    "{protocol}: {cur_ns:.1} ns/op vs baseline {base_ns:.1} \
                     ({ratio:.2}x > tolerance {TOLERANCE}x)"
                ),
            ));
        }
    }
    regressions.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut failures: Vec<String> = regressions.into_iter().map(|(_, line)| line).collect();
    if base.is_empty() {
        failures.push("baseline has no results".to_owned());
    }

    let _ = writeln!(
        table,
        "\n{:<44} {:>10} {:>10} {:>8}  verdict",
        "quality pair", "opt", "proj", "ratio"
    );
    for (run, rows, limit) in &runs {
        for family in REQUIRED_FAMILIES {
            if !rows.keys().any(|protocol| protocol.starts_with(family)) {
                failures.push(format!(
                    "required protocol family `{family}` missing from {run} run"
                ));
            }
        }
        for (opt, proj) in QUALITY_PAIRS {
            let (Some(opt_ns), Some(proj_ns)) = (rows.get(opt), rows.get(proj)) else {
                failures.push(format!(
                    "quality pair {opt} vs {proj}: row missing from {run} run"
                ));
                continue;
            };
            let ratio = opt_ns / proj_ns;
            let ok = ratio <= *limit;
            let _ = writeln!(
                table,
                "{:<44} {opt_ns:>10.1} {proj_ns:>10.1} {ratio:>8.2}  {}",
                format!("{opt} vs {proj} [{run}]"),
                if ok { "ok" } else { "FAIL" }
            );
            if !ok {
                failures.push(format!(
                    "{opt} vs {proj} [{run}]: optimised {opt_ns:.1} ns/op does not beat \
                     projection {proj_ns:.1} ({ratio:.2}x > {limit}x) — the optimiser's \
                     pick lost on the bench"
                ));
            }
        }
    }
    (table, failures)
}
