//! The cross-field invariants behind `bench-check`: what a well-typed
//! artifact or report must additionally satisfy.
//!
//! Shape (which members exist, of which type) is settled by decoding
//! into [`Artifact`] / [`Report`]; each function here takes the decoded
//! value and returns one line per violated invariant, empty when it
//! holds. An instrumented `fig6 --json` runs [`telemetry`] on its own
//! output before writing it, so the sweep doubles as an end-to-end check
//! of the verifier's guarantee.

use optimiser::Report;

use crate::artifact::{Artifact, Quantiles};

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

/// Invariants of an instrumented (`--features telemetry`) `fig6 --json`
/// artifact:
///
/// * the `telemetry` section is present;
/// * every scheduler entry has `threads` worker blocks and some worker
///   recorded polls;
/// * every link with a registered k-MC bound has `high_watermark <=
///   kmc_bound` and `1 <= window <= kmc_bound` (a receive window wider
///   than k would drain past what the verification covers, a send
///   window buffer past it), and at least one link carries a bound;
/// * every socket link (one that moved bytes; at least one did) keeps
///   its ledgers — `received == sends`, `bytes_received == bytes_sent`
///   (a sweep is one process, quiescent when snapshotted, so no frame is
///   in flight) and one latency sample per received frame (every frame
///   of an instrumented process carries its sender's timestamp);
/// * every histogram present has samples and a monotone quantile
///   ladder, and at least one link and one session role carry one (the
///   latency paths cannot all be dead).
pub fn telemetry(artifact: &Artifact) -> Vec<String> {
    let mut errors = Vec::new();
    let Some(telemetry) = &artifact.telemetry else {
        errors.push("no `telemetry` section (build fig6 with --features telemetry)".to_owned());
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

    let (mut bounded, mut sampled, mut sockets) = (0, 0, 0);
    for (i, link) in telemetry.channels.iter().enumerate() {
        let at = format!("channels[{i}] ({} -> {})", link.from, link.to);
        if link.from.is_empty() || link.to.is_empty() {
            errors.push(format!("{at}: unnamed endpoint"));
        }
        sampled += usize::from(check_quantiles(&link.latency, &at, &mut errors));
        if link.bytes_sent > 0 || link.bytes_received > 0 {
            sockets += 1;
            let mut ledger = |what: &str, got: u64, other: &str, want: u64| {
                if got != want {
                    errors.push(format!("{at}: {what} {got} != {other} {want}"));
                }
            };
            let samples = link.latency.as_ref().map_or(0, |q| q.count);
            ledger("received", link.received, "sends", link.sends);
            ledger(
                "bytes_received",
                link.bytes_received,
                "bytes_sent",
                link.bytes_sent,
            );
            ledger("latency count", samples, "received", link.received);
        }
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
        if let Some(window) = link.window.filter(|&w| w == 0 || w > bound) {
            errors.push(format!(
                "{at}: window {window} is outside 1..={bound}, the verified k-MC bound"
            ));
        }
    }
    if bounded == 0 {
        errors.push("channels: no link carries a registered k-MC bound".to_owned());
    }
    if sampled == 0 {
        errors.push("channels: no link recorded send->recv latency samples".to_owned());
    }
    if sockets == 0 {
        errors.push("channels: no socket link moved any bytes".to_owned());
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
/// * `candidates` lists exactly the `verified` candidates, in
///   non-increasing `estimated_saving_ns` order,
/// * `best` is present exactly when the first candidate's saving is
///   positive, has a derivation and is that candidate, and
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
