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
/// * every channel with a registered k-MC bound has `high_watermark <=
///   kmc_bound` and `batch_window <= kmc_bound` (a receive window wider
///   than k would drain past what the verification covers), and at
///   least one channel carries a bound;
/// * every socket link has `send_window <= kmc_bound` when both are
///   registered, at least one has a window and one moved frames;
/// * every socket link's three ledgers agree — `frames_received ==
///   frames_sent`, `bytes_received == bytes_sent`, and the channel row
///   of the same `(from, to)` has `sends == frames_sent` (a sweep is
///   one process, quiescent when snapshotted, so no frame is in flight);
/// * every histogram present has samples and a monotone quantile
///   ladder, and at least one channel, one socket link and one session
///   role carry one (the stamp paths cannot all be dead).
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
        if link.frames_received != link.frames_sent {
            errors.push(format!(
                "{at}: frames_received {} != frames_sent {}",
                link.frames_received, link.frames_sent
            ));
        }
        if link.bytes_received != link.bytes_sent {
            errors.push(format!(
                "{at}: bytes_received {} != bytes_sent {}",
                link.bytes_received, link.bytes_sent
            ));
        }
        let mut channels = telemetry.channels.iter();
        let sends = channels
            .find(|c| c.from == link.from && c.to == link.to)
            .map(|c| c.sends);
        if sends != Some(link.frames_sent) {
            errors.push(format!(
                "{at}: channel sends {sends:?} != frames_sent {}",
                link.frames_sent
            ));
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
