//! Edge-case tests pinning the run queues' stealing contracts: the race
//! on a queue that hovers around one element, batch-steal limits, and the
//! injector takeover's order and exclusivity. They keep the names they
//! had when the queues were a Chase–Lev deque; the contracts are the same.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use executor::deque::{Queue, MAX_BATCH};

fn filled(values: std::ops::Range<usize>) -> Queue<usize> {
    let queue = Queue::new();
    values.for_each(|value| queue.push(value));
    queue
}

fn drain(queue: &Queue<usize>) -> Vec<usize> {
    std::iter::from_fn(|| queue.pop()).collect()
}

/// One claim counter per value.
fn claims(values: usize) -> Arc<Vec<AtomicUsize>> {
    Arc::new((0..values).map(|_| AtomicUsize::new(0)).collect())
}

/// Each value must be claimed exactly once.
fn assert_claimed_once(claims: &[AtomicUsize]) {
    for (value, claim) in claims.iter().enumerate() {
        assert_eq!(claim.load(Ordering::Relaxed), 1, "value {value}");
    }
}

/// The owner keeps its queue near empty, pushing one value and popping
/// one, against four threads stealing single values and batches: every
/// value is claimed exactly once, never dropped or duplicated.
#[test]
fn empty_steal_race_claims_each_element_once() {
    const VALUES: usize = 20_000;
    const STEALERS: usize = 4;

    let queue = Arc::new(Queue::new());
    let claims = claims(VALUES);
    let done = Arc::new(AtomicUsize::new(0));

    let stealers: Vec<_> = (0..STEALERS)
        .map(|_| {
            let (queue, claims, done) = (queue.clone(), claims.clone(), done.clone());
            std::thread::spawn(move || {
                let own = Queue::new();
                let mut batch = VecDeque::new();
                loop {
                    let finished = done.load(Ordering::Acquire) == 1;
                    match queue.steal_half(&own, &mut batch) {
                        Some(first) => {
                            for value in std::iter::once(first).chain(drain(&own)) {
                                claims[value].fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        None if finished => return,
                        None => {}
                    }
                }
            })
        })
        .collect();

    for value in 0..VALUES {
        queue.push(value);
        if let Some(popped) = queue.pop() {
            claims[popped].fetch_add(1, Ordering::Relaxed);
        }
    }
    done.store(1, Ordering::Release);
    for thread in stealers {
        thread.join().unwrap();
    }
    assert!(queue.is_empty());
    assert_claimed_once(&claims);
}

/// A sibling steal takes the first task plus half the rest, capped at
/// `MAX_BATCH`, and keeps their order.
#[test]
fn sibling_batch_steal_takes_capped_half() {
    let mut batch = VecDeque::new();

    let victim = filled(0..10);
    let dest = Queue::new();
    assert_eq!(victim.steal_half(&dest, &mut batch), Some(0));
    assert_eq!(drain(&dest), [1, 2, 3, 4]);
    assert_eq!(drain(&victim), [5, 6, 7, 8, 9]);
    // The length read without the lock is exact after every unlock.
    assert!(victim.is_empty() && dest.is_empty());

    let victim = filled(0..100);
    let dest = filled(1000..1001);
    assert_eq!(victim.steal_half(&dest, &mut batch), Some(0));
    assert_eq!(
        drain(&dest),
        [1000].into_iter().chain(1..=MAX_BATCH).collect::<Vec<_>>()
    );
    assert_eq!(drain(&victim).len(), 100 - MAX_BATCH - 1);
    assert!(batch.is_empty());
    assert_eq!(Queue::<usize>::new().steal_half(&dest, &mut batch), None);
}

/// An injector takeover claims the whole queue in FIFO order, and a
/// second takeover finds it empty.
#[test]
fn injector_batch_takeover_is_fifo_and_exclusive() {
    let injector = filled(0..100);
    let dest = Queue::new();
    let mut batch = VecDeque::new();
    assert_eq!(injector.steal_all(&dest, &mut batch), Some(0));
    assert!(injector.is_empty());
    assert_eq!(injector.steal_all(&dest, &mut batch), None);
    assert_eq!(drain(&dest), (1..100).collect::<Vec<_>>());
}

/// The values of four concurrent pushers each land with exactly one of
/// two takers, each pusher's values in the order pushed.
#[test]
fn injector_concurrent_push_and_takeover() {
    const PUSHERS: usize = 4;
    const PER_PUSHER: usize = 10_000;

    let injector = Arc::new(Queue::new());
    let claims = claims(PUSHERS * PER_PUSHER);
    let pushers: Vec<_> = (0..PUSHERS)
        .map(|pusher| {
            let injector = injector.clone();
            std::thread::spawn(move || {
                (0..PER_PUSHER).for_each(|offset| injector.push(pusher * PER_PUSHER + offset));
            })
        })
        .collect();
    let takers: Vec<_> = (0..2)
        .map(|_| {
            let (injector, claims) = (injector.clone(), claims.clone());
            std::thread::spawn(move || {
                let own = Queue::new();
                let mut batch = VecDeque::new();
                let mut idle = 0;
                while idle < 1_000 {
                    let Some(first) = injector.steal_all(&own, &mut batch) else {
                        idle += 1;
                        continue;
                    };
                    idle = 0;
                    let taken: Vec<_> = std::iter::once(first).chain(drain(&own)).collect();
                    for pair in taken.windows(2) {
                        if pair[0] / PER_PUSHER == pair[1] / PER_PUSHER {
                            assert!(pair[0] < pair[1], "{pair:?}");
                        }
                    }
                    for value in taken {
                        claims[value].fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();
    for thread in pushers.into_iter().chain(takers) {
        thread.join().unwrap();
    }
    // Whatever the takers left after idling out is still queued.
    for value in drain(&injector) {
        claims[value].fetch_add(1, Ordering::Relaxed);
    }
    assert_claimed_once(&claims);
}
