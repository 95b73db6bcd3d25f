//! Edge-case tests pinning the Chase–Lev deque and the lock-free
//! injector: the empty-steal race on the last element, buffer growth
//! racing in-flight steals, and batch-steal limits.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam::deque::{Injector, Steal, Worker, MAX_BATCH};

/// The last-element race: owner pops and stealers steal a deque that
/// hovers around one element, all of them through the same CAS on `top`.
/// Every pushed value must be claimed exactly once — never dropped, never
/// duplicated.
#[test]
fn empty_steal_race_claims_each_element_once() {
    const VALUES: usize = 20_000;
    const STEALERS: usize = 4;

    let worker: Worker<usize> = Worker::new_fifo();
    let claims: Arc<Vec<AtomicUsize>> =
        Arc::new((0..VALUES).map(|_| AtomicUsize::new(0)).collect());
    let done = Arc::new(AtomicUsize::new(0));

    let stealer_threads: Vec<_> = (0..STEALERS)
        .map(|_| {
            let stealer = worker.stealer();
            let claims = claims.clone();
            let done = done.clone();
            std::thread::spawn(move || {
                while done.load(Ordering::Acquire) == 0 {
                    if let Steal::Success(value) = stealer.steal() {
                        claims[value].fetch_add(1, Ordering::Relaxed);
                    }
                }
                // Drain whatever the owner left behind.
                while let Steal::Success(value) = stealer.steal() {
                    claims[value].fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // The owner keeps the deque nearly empty: push one, pop one, racing
    // the stealers for the single element almost every time.
    for value in 0..VALUES {
        worker.push(value);
        if let Some(popped) = worker.pop() {
            claims[popped].fetch_add(1, Ordering::Relaxed);
        }
    }
    done.store(1, Ordering::Release);
    for thread in stealer_threads {
        thread.join().unwrap();
    }

    for (value, claim) in claims.iter().enumerate() {
        assert_eq!(claim.load(Ordering::Relaxed), 1, "value {value}");
    }
}

/// Growth during steals: the owner pushes far past the initial capacity
/// while stealers read concurrently, forcing several buffer doublings
/// whose retired predecessors must stay readable.
#[test]
fn grow_during_steal_loses_nothing() {
    const VALUES: usize = 100_000;
    const STEALERS: usize = 2;

    let worker: Worker<usize> = Worker::new_fifo();
    let claims: Arc<Vec<AtomicUsize>> =
        Arc::new((0..VALUES).map(|_| AtomicUsize::new(0)).collect());
    let done = Arc::new(AtomicUsize::new(0));

    let stealer_threads: Vec<_> = (0..STEALERS)
        .map(|_| {
            let stealer = worker.stealer();
            let claims = claims.clone();
            let done = done.clone();
            std::thread::spawn(move || loop {
                match stealer.steal() {
                    Steal::Success(value) => {
                        claims[value].fetch_add(1, Ordering::Relaxed);
                    }
                    Steal::Empty if done.load(Ordering::Acquire) == 1 => return,
                    _ => {}
                }
            })
        })
        .collect();

    // Push everything before popping so the deque depth crosses multiple
    // power-of-two boundaries while steals are in flight.
    for value in 0..VALUES {
        worker.push(value);
    }
    while let Some(value) = worker.pop() {
        claims[value].fetch_add(1, Ordering::Relaxed);
    }
    done.store(1, Ordering::Release);
    for thread in stealer_threads {
        thread.join().unwrap();
    }

    for (value, claim) in claims.iter().enumerate() {
        assert_eq!(claim.load(Ordering::Relaxed), 1, "value {value}");
    }
}

/// A sibling batch steal takes half the victim's queue, capped at
/// `MAX_BATCH` moved tasks plus the one returned.
#[test]
fn sibling_batch_steal_takes_capped_half() {
    // Small victim: half of 10 = 5 → 1 popped + 4 moved.
    let victim = Worker::new_fifo();
    for value in 0..10 {
        victim.push(value);
    }
    let dest = Worker::new_fifo();
    assert!(matches!(
        victim.stealer().steal_batch_and_pop(&dest),
        Steal::Success(0)
    ));
    assert_eq!(dest.len(), 4);
    assert_eq!(victim.len(), 5);
    // FIFO order survives the move.
    assert_eq!(dest.pop(), Some(1));

    // Large victim: half of 100 = 50, capped at MAX_BATCH + 1 total.
    let victim = Worker::new_fifo();
    for value in 0..100 {
        victim.push(value);
    }
    let dest = Worker::new_fifo();
    assert!(matches!(
        victim.stealer().steal_batch_and_pop(&dest),
        Steal::Success(0)
    ));
    assert_eq!(dest.len(), MAX_BATCH);
    assert_eq!(victim.len(), 100 - MAX_BATCH - 1);
}

/// The injector's batch takeover claims the whole chain in FIFO order;
/// a concurrent second taker sees it empty, not a torn chain.
#[test]
fn injector_batch_takeover_is_fifo_and_exclusive() {
    let injector = Injector::new();
    for value in 0..100 {
        injector.push(value);
    }
    let dest = Worker::new_fifo();
    assert!(matches!(
        injector.steal_batch_and_pop(&dest),
        Steal::Success(0)
    ));
    assert!(injector.is_empty());
    assert!(matches!(injector.steal_batch_and_pop(&dest), Steal::Empty));
    for expected in 1..100 {
        assert_eq!(dest.pop(), Some(expected));
    }
    assert_eq!(dest.pop(), None);
}

/// Concurrent pushers and batch takers: every injected value lands in
/// exactly one taker's deque.
#[test]
fn injector_concurrent_push_and_takeover() {
    const PUSHERS: usize = 4;
    const PER_PUSHER: usize = 10_000;

    let injector = Arc::new(Injector::new());
    let claims: Arc<Vec<AtomicUsize>> = Arc::new(
        (0..PUSHERS * PER_PUSHER)
            .map(|_| AtomicUsize::new(0))
            .collect(),
    );

    let pushers: Vec<_> = (0..PUSHERS)
        .map(|pusher| {
            let injector = injector.clone();
            std::thread::spawn(move || {
                for offset in 0..PER_PUSHER {
                    injector.push(pusher * PER_PUSHER + offset);
                }
            })
        })
        .collect();
    let takers: Vec<_> = (0..2)
        .map(|_| {
            let injector = injector.clone();
            let claims = claims.clone();
            std::thread::spawn(move || {
                let local = Worker::new_fifo();
                let mut idle = 0;
                while idle < 1_000 {
                    match injector.steal_batch_and_pop(&local) {
                        Steal::Success(value) => {
                            idle = 0;
                            claims[value].fetch_add(1, Ordering::Relaxed);
                            while let Some(value) = local.pop() {
                                claims[value].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        _ => idle += 1,
                    }
                }
            })
        })
        .collect();

    for thread in pushers {
        thread.join().unwrap();
    }
    for thread in takers {
        thread.join().unwrap();
    }
    // Anything left (takers idled out early) is still in the injector.
    let local = Worker::new_fifo();
    if let Steal::Success(value) = injector.steal_batch_and_pop(&local) {
        claims[value].fetch_add(1, Ordering::Relaxed);
        while let Some(value) = local.pop() {
            claims[value].fetch_add(1, Ordering::Relaxed);
        }
    }

    for (value, claim) in claims.iter().enumerate() {
        assert_eq!(claim.load(Ordering::Relaxed), 1, "value {value}");
    }
}
