//! Channel-telemetry invariants on the Fig 6 protocols.
//!
//! Three properties per protocol, exercised with and without the
//! `telemetry` feature (CI runs both):
//!
//! 1. The hand-annotated `bounds { ... }` clauses in the `roles!`
//!    declarations match the depths the k-MC checker actually computes
//!    from the serialised session types — the annotation cannot drift
//!    from the verified truth.
//! 2. After running the protocol (projected *and* optimised variants),
//!    every link's observed high-watermark and batch window stay within
//!    its registered bound: the static guarantee, checked against a
//!    real execution. Latency and session-lifetime quantile ladders are
//!    monotone.
//! 3. Every run finishes: workers park without a timeout, so a lost
//!    wake hangs a protocol, and [`within`] fails the test instead.
//!
//! In disabled builds the registry is empty, and only that is asserted.

use std::sync::mpsc;
use std::time::Duration;

use bench::protocols::{double_buffering, fft8, streaming};
use rumpsteak::telemetry;

/// Runs `test` on its own thread and panics if it has not finished
/// within a minute (these protocols take well under a second). A panic
/// in `test` is passed on as is.
fn within(test: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let body = std::thread::spawn(move || {
        test();
        let _ = done.send(());
    });
    if let Err(mpsc::RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(60)) {
        panic!("hung for 60 s: a task was never woken");
    }
    if let Err(panic) = body.join() {
        std::panic::resume_unwind(panic);
    }
}

/// The union of per-channel maxima over several variants of a system,
/// each checked exhaustively at `k =` [`codegen::MAX_BOUND_SEARCH`] (the
/// depths are then tight bounds).
fn kmc_bounds(variants: &[Vec<theory::Fsm>]) -> Vec<(String, String, u64)> {
    let mut merged: std::collections::BTreeMap<(String, String), u64> = Default::default();
    for fsms in variants {
        let system = kmc::System::new(fsms.clone()).expect("valid system");
        let report = kmc::explore(&system, codegen::MAX_BOUND_SEARCH)
            .ok()
            .filter(|report| report.exhaustive)
            .expect("system exhaustively checkable within the search bound");
        for (from, to, depth) in report.channel_bounds(&system) {
            let entry = merged
                .entry((from.as_str().to_owned(), to.as_str().to_owned()))
                .or_insert(0);
            *entry = (*entry).max(depth as u64);
        }
    }
    merged
        .into_iter()
        .map(|((from, to), depth)| (from, to, depth))
        .collect()
}

/// Asserts that the quantile ladder of `hist` is monotone.
fn assert_ladder(hist: &telemetry::hist::HistogramSnapshot, what: &str) {
    let ladder = [hist.p50(), hist.p90(), hist.p99(), hist.p999(), hist.max];
    assert!(
        ladder.is_sorted(),
        "{what}: quantile ladder p50..max is not monotone: {ladder:?}"
    );
}

/// Asserts the registered bound and observed watermark for `(from, to)`
/// after the protocol ran: bound matches the annotation, watermark and
/// any batch window are within it, and the link actually carried
/// traffic. Returns the link for protocol-specific checks.
fn assert_link<'a>(
    snapshot: &'a [telemetry::channel::LinkSnapshot],
    from: &str,
    to: &str,
    bound: u64,
) -> &'a telemetry::channel::LinkSnapshot {
    let link = snapshot
        .iter()
        .find(|l| l.from == from && l.to == to)
        .unwrap_or_else(|| panic!("link {from} -> {to} not registered"));
    assert_eq!(
        link.kmc_bound,
        Some(bound),
        "registered bound for {from} -> {to}"
    );
    assert!(
        !link.violates_bound(),
        "{from} -> {to}: watermark {} exceeds verified bound {bound}",
        link.high_watermark
    );
    // A receive window wider than k would drain past what the
    // verification covers.
    if let Some(window) = link.window {
        assert!(
            (1..=bound).contains(&window),
            "{from} -> {to}: window {window} is outside 1..={bound}"
        );
    }
    assert!(
        link.high_watermark > 0,
        "{from} -> {to} carried no traffic — the watermark check is vacuous"
    );
    // Every slot commit stamps its wall-clock and every pop reads it
    // back, so a link that carried traffic must have latency samples —
    // and the quantile ladder they produce must be monotone.
    assert!(
        !link.latency.is_empty(),
        "{from} -> {to} carried traffic but recorded no send->recv latency"
    );
    assert_ladder(&link.latency, &format!("{from} -> {to} latency"));
    link
}

#[test]
fn streaming_watermarks_stay_within_kmc_bounds() {
    within(|| {
        // Annotation cross-check: projected and optimised sources, same sink.
        let variants = vec![
            vec![
                rumpsteak::serialize::<streaming::Source<'static>>().unwrap(),
                rumpsteak::serialize::<streaming::Sink<'static>>().unwrap(),
            ],
            vec![
                rumpsteak::serialize::<streaming::OptSource<'static>>().unwrap(),
                rumpsteak::serialize::<streaming::Sink<'static>>().unwrap(),
            ],
        ];
        assert_eq!(
            kmc_bounds(&variants),
            vec![
                ("S".to_owned(), "T".to_owned(), streaming::UNROLL as u64 + 1),
                ("T".to_owned(), "S".to_owned(), streaming::UNROLL as u64 + 1),
            ],
            "hand-annotated bounds in streaming's roles! clause are stale"
        );

        let rt = executor::Runtime::new(2);
        let count = 40;
        assert_eq!(
            streaming::run_rumpsteak(&rt, count, false),
            streaming::expected(count)
        );
        assert_eq!(
            streaming::run_rumpsteak(&rt, count, true),
            streaming::expected(count)
        );

        let snapshot = telemetry::channel::snapshot();
        if !telemetry::ENABLED {
            assert!(snapshot.is_empty());
            return;
        }
        let link = assert_link(&snapshot, "S", "T", streaming::UNROLL as u64 + 1);
        // The one session link with a batch window: whole windows of
        // messages per waker round-trip, not one wake per message.
        assert!(
            link.wakes < link.sends,
            "S -> T delivered {} wakes for {} sends — the batch window saved \
             no waker round-trips",
            link.wakes,
            link.sends
        );
        assert_link(&snapshot, "T", "S", streaming::UNROLL as u64 + 1);

        // Both roles ran to completion twice, so the session-lifetime
        // registry must hold a spawn-to-teardown histogram per role.
        let sessions = telemetry::hist::sessions_snapshot();
        for role in ["S", "T"] {
            let (_, lifetime) = sessions
                .iter()
                .find(|(name, _)| *name == role)
                .unwrap_or_else(|| panic!("role {role} recorded no session lifetime"));
            assert!(lifetime.count >= 2, "role {role} ran twice");
            assert_ladder(lifetime, &format!("role {role} session lifetime"));
        }
    });
}

#[test]
fn double_buffering_watermarks_stay_within_kmc_bounds() {
    within(|| {
        let variants = vec![
            vec![
                rumpsteak::serialize::<double_buffering::Kernel<'static>>().unwrap(),
                rumpsteak::serialize::<double_buffering::Source<'static>>().unwrap(),
                rumpsteak::serialize::<double_buffering::Sink<'static>>().unwrap(),
            ],
            vec![
                rumpsteak::serialize::<double_buffering::KernelOpt<'static>>().unwrap(),
                rumpsteak::serialize::<double_buffering::Source<'static>>().unwrap(),
                rumpsteak::serialize::<double_buffering::Sink<'static>>().unwrap(),
            ],
        ];
        assert_eq!(
            kmc_bounds(&variants),
            vec![
                ("K".to_owned(), "S".to_owned(), 2),
                ("K".to_owned(), "T".to_owned(), 1),
                ("S".to_owned(), "K".to_owned(), 2),
                ("T".to_owned(), "K".to_owned(), 1),
            ],
            "hand-annotated bounds in double_buffering's roles! clause are stale"
        );

        let rt = executor::Runtime::new(2);
        let size = 64;
        assert_eq!(
            double_buffering::run_rumpsteak(&rt, size, false),
            double_buffering::expected(size)
        );
        assert_eq!(
            double_buffering::run_rumpsteak(&rt, size, true),
            double_buffering::expected(size)
        );

        let snapshot = telemetry::channel::snapshot();
        if !telemetry::ENABLED {
            assert!(snapshot.is_empty());
            return;
        }
        assert_link(&snapshot, "K", "S", 2);
        assert_link(&snapshot, "S", "K", 2);
        assert_link(&snapshot, "K", "T", 1);
        assert_link(&snapshot, "T", "K", 1);
    });
}

#[test]
fn fft_watermarks_stay_within_kmc_bounds() {
    within(|| {
        use fft8::{P0, P1, P2, P3, P4, P5, P6, P7};
        let variants = vec![vec![
            rumpsteak::serialize::<fft8::FftSession<'static, P0, P1, P2, P4>>().unwrap(),
            rumpsteak::serialize::<fft8::FftSession<'static, P1, P0, P3, P5>>().unwrap(),
            rumpsteak::serialize::<fft8::FftSession<'static, P2, P3, P0, P6>>().unwrap(),
            rumpsteak::serialize::<fft8::FftSession<'static, P3, P2, P1, P7>>().unwrap(),
            rumpsteak::serialize::<fft8::FftSession<'static, P4, P5, P6, P0>>().unwrap(),
            rumpsteak::serialize::<fft8::FftSession<'static, P5, P4, P7, P1>>().unwrap(),
            rumpsteak::serialize::<fft8::FftSession<'static, P6, P7, P4, P2>>().unwrap(),
            rumpsteak::serialize::<fft8::FftSession<'static, P7, P6, P5, P3>>().unwrap(),
        ]];
        let bounds = kmc_bounds(&variants);
        // 8 processes × 3 partners, every directed channel carries one column.
        assert_eq!(bounds.len(), 24, "directed channel count");
        assert!(
            bounds.iter().all(|(_, _, depth)| *depth == 1),
            "hand-annotated bounds in fft8's roles! clause are stale: {bounds:?}"
        );

        let rt = executor::Runtime::new(4);
        let rows = 16;
        let out = fft8::run_rumpsteak(&rt, rows);
        let expected = fft8::run_sequential(rows);
        assert!((fft8::checksum(&out) - fft8::checksum(&expected)).abs() < 1e-6);

        let snapshot = telemetry::channel::snapshot();
        if !telemetry::ENABLED {
            assert!(snapshot.is_empty());
            return;
        }
        for (from, to, depth) in &bounds {
            assert_link(&snapshot, from, to, *depth);
        }
    });
}
