//! Scheduler-counter invariants under a multi-worker stress load.
//!
//! Runs with and without the `telemetry` feature (CI exercises both): in
//! the disabled build every snapshot is all-zeros and the accounting
//! assertions are skipped; in the enabled build the totals must be
//! *exact* once the pool is quiescent — counters are relaxed atomics, but
//! each one is only ever incremented by the thread that performed the
//! counted operation, so at rest the sums have nothing left in flight.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dep_telemetry as telemetry;
use executor::Runtime;

/// Awaiting a `JoinHandle` races the worker's post-poll bookkeeping: the
/// handle resolves from inside the future, a moment before the worker
/// records the completion. Wait for the ledger to settle before reading
/// it (bounded; panics only via the caller's asserts on the last state).
fn settled(rt: &Runtime, completions: u64) -> telemetry::scheduler::RuntimeSnapshot {
    let mut snapshot = rt.telemetry();
    if !telemetry::ENABLED {
        return snapshot;
    }
    for _ in 0..5_000 {
        let total = snapshot.total();
        if total.completions == completions && total.polls == total.pops() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        snapshot = rt.telemetry();
    }
    snapshot
}

/// Spawn a fan-out/fan-in workload with cross-task wakes, then check the
/// ledger: every spawn completed, every poll came from exactly one queue
/// source, and steal/injector traffic is consistent.
#[test]
fn counters_balance_after_stress() {
    const TASKS: u64 = 2_000;
    const CHILDREN: u64 = 4;

    let rt = Arc::new(Runtime::new(4));
    let completed = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..TASKS)
        .map(|i| {
            let completed = completed.clone();
            let rt_inner = rt.clone();
            rt.spawn(async move {
                // Children force worker-side spawns; awaiting their
                // handles forces waker-driven reschedules (extra polls).
                let children: Vec<_> = (0..CHILDREN)
                    .map(|j| rt_inner.spawn(async move { i + j }))
                    .collect();
                let mut sum = 0;
                for child in children {
                    sum += child.await.unwrap();
                }
                completed.fetch_add(1, Ordering::SeqCst);
                sum
            })
        })
        .collect();

    for handle in handles {
        rt.block_on(handle).unwrap();
    }
    assert_eq!(completed.load(Ordering::SeqCst), TASKS);

    let snapshot = settled(&rt, TASKS * (1 + CHILDREN));
    let total = snapshot.total();

    if !telemetry::ENABLED {
        assert_eq!(total, Default::default());
        assert!(snapshot.workers.iter().all(|w| *w == Default::default()));
        return;
    }

    assert_eq!(snapshot.workers.len(), 4);

    // Exact spawn accounting: the root tasks (spawned from this test
    // thread, i.e. the external block) plus every worker-side child.
    let spawned = TASKS * (1 + CHILDREN);
    assert_eq!(total.spawns, spawned, "spawns: {total:?}");
    assert_eq!(snapshot.external.spawns, TASKS, "external spawns");

    // Every spawned task ran to completion, on some worker.
    assert_eq!(total.completions, spawned, "completions: {total:?}");
    assert_eq!(snapshot.external.completions, 0);

    // Each poll was served by exactly one queue source, and nothing is
    // left queued: the two ledgers must agree exactly at quiescence.
    assert_eq!(
        total.polls,
        total.pops(),
        "polls vs queue sources: {total:?}"
    );
    // At minimum every task was polled once.
    assert!(total.polls >= spawned, "polls: {total:?}");

    // The external block never pops work (only workers run tasks).
    assert_eq!(snapshot.external.pops(), 0);
    assert_eq!(snapshot.external.polls, 0);

    // Root tasks arrive via the injector, so injector takeovers must
    // have happened; with 4 workers under this load the pool parked and
    // woke at least once.
    assert!(total.injector_pops > 0, "injector_pops: {total:?}");

    // No wake was lost: a park that timed out never found work waiting.
    assert_eq!(
        total.timeout_wakes_with_work, 0,
        "timeout_wakes_with_work: {total:?}"
    );
}

/// A single-worker runtime cannot steal from siblings, and the LIFO
/// direct-handoff path must dominate a ping-pong workload.
#[test]
fn single_worker_has_no_sibling_steals() {
    let rt = Runtime::new(1);
    let (mut a, mut b) = executor::channel::Bidirectional::pair();
    let echo = rt.spawn(async move {
        while let Some(v) = b.recv().await {
            if v == 0 {
                break;
            }
            b.send(v).unwrap();
        }
    });
    let driver = rt.spawn(async move {
        for i in 1..=100u32 {
            a.send(i).unwrap();
            assert_eq!(a.recv().await, Some(i));
        }
        a.send(0).unwrap();
    });
    rt.block_on(driver).unwrap();
    rt.block_on(echo).unwrap();

    let total = settled(&rt, 2).total();
    if telemetry::ENABLED {
        assert_eq!(total.sibling_steals, 0);
        assert_eq!(total.spawns, 2);
        assert_eq!(total.completions, 2);
        assert_eq!(total.polls, total.pops());
        // The ping-pong wake pattern runs through the LIFO slot.
        assert!(total.lifo_hits > 0, "lifo_hits: {total:?}");
    } else {
        assert_eq!(total, Default::default());
    }
}
