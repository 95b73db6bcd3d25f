//! Executor stress suite: spawn storms, ping-pong latency pairs, a
//! session backlog that must drain in linear time, a randomized
//! steal-correctness test asserting exactly-once execution, polls of one
//! task that must never overlap under foreign wakes, and the reference
//! counts of the waker a poll lends its future.
//!
//! CI runs this file under `--release` (see `.github/workflows/ci.yml`);
//! the iteration counts scale down in debug builds so plain `cargo test`
//! stays fast.

use std::future::poll_fn;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::task::{Poll, Waker};
use std::time::{Duration, Instant};

use executor::channel::{spsc, Bidirectional};
use executor::Runtime;

/// Iterations for the randomized steal-correctness loop.
#[cfg(debug_assertions)]
const STEAL_ITERATIONS: u64 = 10;
#[cfg(not(debug_assertions))]
const STEAL_ITERATIONS: u64 = 100;

/// Polls each task of `polls_of_one_task_never_overlap` takes to finish.
#[cfg(debug_assertions)]
const OVERLAP_POLLS: u32 = 20;
#[cfg(not(debug_assertions))]
const OVERLAP_POLLS: u32 = 200;

#[cfg(debug_assertions)]
const STORM_TASKS: u32 = 1_000;
#[cfg(not(debug_assertions))]
const STORM_TASKS: u32 = 10_000;

/// Sessions in the smaller of the two backlogs `backlog_drains_in_linear_time`
/// compares; the larger is four times this.
#[cfg(debug_assertions)]
const BACKLOG_SESSIONS: u64 = 4_000;
#[cfg(not(debug_assertions))]
const BACKLOG_SESSIONS: u64 = 12_500;

/// A task flood from outside the pool: every task must run exactly once
/// and every handle must resolve, at 1, 2 and 8 workers.
#[test]
fn spawn_storm() {
    for workers in [1, 2, 8] {
        let rt = Runtime::new(workers);
        let counter = Arc::new(AtomicU32::new(0));
        let handles: Vec<_> = (0..STORM_TASKS)
            .map(|i| {
                let counter = counter.clone();
                rt.spawn(async move {
                    counter.fetch_add(1, Ordering::Relaxed);
                    i
                })
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            assert_eq!(rt.block_on(handle).unwrap(), i as u32);
        }
        assert_eq!(
            counter.load(Ordering::Relaxed),
            STORM_TASKS,
            "{workers} workers"
        );
    }
}

/// Message-passing latency pairs: concurrent ping-pong over channels, the
/// pattern the LIFO slot accelerates. Checks no message is lost or
/// duplicated under heavy wake traffic.
#[test]
fn ping_pong_pairs() {
    const PAIRS: usize = 8;
    const ROUNDS: u32 = 500;
    for workers in [1, 2, 8] {
        let rt = Runtime::new(workers);
        let handles: Vec<_> = (0..PAIRS)
            .flat_map(|_| {
                let (mut ping_tx, mut ping_rx) = spsc::<u32>();
                let (mut pong_tx, mut pong_rx) = spsc::<u32>();
                let ponger = rt.spawn(async move {
                    let mut last = 0u64;
                    while let Some(v) = ping_rx.recv().await {
                        last = u64::from(v);
                        if pong_tx.send(v).is_err() {
                            break;
                        }
                    }
                    last
                });
                let pinger = rt.spawn(async move {
                    let mut sum = 0u64;
                    for round in 1..=ROUNDS {
                        ping_tx.send(round).unwrap();
                        sum += u64::from(pong_rx.recv().await.unwrap());
                    }
                    drop(ping_tx);
                    sum
                });
                [pinger, ponger]
            })
            .collect();
        let expected_sum = u64::from(ROUNDS) * u64::from(ROUNDS + 1) / 2;
        for (index, handle) in handles.into_iter().enumerate() {
            let value = rt.block_on(handle).unwrap();
            if index % 2 == 0 {
                assert_eq!(value, expected_sum, "pinger {index}, {workers} workers");
            } else {
                assert_eq!(
                    value,
                    u64::from(ROUNDS),
                    "ponger {index}, {workers} workers"
                );
            }
        }
    }
}

/// Queues `sessions` three-task sessions while every worker is held at a
/// barrier, releases the workers, awaits every handle, checks every
/// result, and returns the wall time from the release to the last join.
///
/// A session is two spokes that receive one value and reply twice, and a
/// hub that sends to *both* spokes before awaiting either.
fn drain_backlog(workers: usize, sessions: u64) -> Duration {
    let rt = Runtime::new(workers);
    let gate = Arc::new(Barrier::new(workers + 1));
    for _ in 0..workers {
        let gate = gate.clone();
        // Blocks its worker thread: first until every worker is held,
        // then until the whole backlog is queued.
        drop(rt.spawn(async move {
            gate.wait();
            gate.wait();
        }));
    }
    gate.wait();
    let handles: Vec<_> = (0..sessions)
        .flat_map(|session| {
            let (mut to_left, left) = Bidirectional::<u64>::pair();
            let (mut to_right, right) = Bidirectional::<u64>::pair();
            let spoke = |mut link: Bidirectional<u64>| async move {
                let value = link.recv().await.unwrap();
                link.send(value).unwrap();
                link.send(value + 1).unwrap();
                value
            };
            let left = rt.spawn(spoke(left));
            let right = rt.spawn(spoke(right));
            let hub = rt.spawn(async move {
                to_left.send(session).unwrap();
                to_right.send(session + 2).unwrap();
                let mut sum = 0;
                for link in [&mut to_left, &mut to_right] {
                    sum += link.recv().await.unwrap();
                    sum += link.recv().await.unwrap();
                }
                sum
            });
            [left, right, hub]
        })
        .collect();
    // Stamped before the release: a released worker may run before this
    // thread does.
    let start = Instant::now();
    gate.wait();
    for (index, handle) in handles.into_iter().enumerate() {
        let session = index as u64 / 3;
        let expected = [session, session + 2, 4 * session + 6][index % 3];
        assert_eq!(rt.block_on(handle).unwrap(), expected, "handle {index}");
    }
    start.elapsed()
}

/// A backlog of runnable sessions costs time linear in its length: with
/// every session queued from outside the pool before the first one runs,
/// four times the sessions may take at most eight times as long, on one
/// worker and on two. Other load on the machine only ever adds wall time
/// to one of the two runs, so the bound has to hold on one of a few
/// attempts rather than on each; a scheduler that is quadratic in the
/// backlog misses it by a factor on every attempt.
///
/// The hub wakes two peers back to back on purpose. The second wake
/// displaces the first from the worker's LIFO slot into its deque, which
/// is the one push a worker makes onto a deque that already holds a whole
/// injector takeover. A strict ping-pong never displaces the slot — each
/// wake is polled before the next is made — so it never exercises what a
/// worker does with a long deque.
#[test]
fn backlog_drains_in_linear_time() {
    for workers in [1, 2] {
        let mut attempts = Vec::new();
        let linear = (0..5).any(|_| {
            let small = drain_backlog(workers, BACKLOG_SESSIONS);
            let large = drain_backlog(workers, 4 * BACKLOG_SESSIONS);
            attempts.push((small, large));
            large <= 8 * small
        });
        assert!(
            linear,
            "{workers} workers: {BACKLOG_SESSIONS} and {} sessions took {attempts:?}",
            4 * BACKLOG_SESSIONS,
        );
    }
}

/// Splitmix-style deterministic RNG so failures reproduce.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Randomized steal-correctness: a storm of tasks with random yield
/// patterns and random cross-task wakes across 1/2/8 workers; every task
/// must execute exactly once (its flag ends at exactly 1) and every
/// message must arrive. Runs [`STEAL_ITERATIONS`] consecutive iterations
/// (100 in release) so steal interleavings vary.
#[test]
fn randomized_steal_exactly_once() {
    const TASKS: usize = 256;
    for iteration in 0..STEAL_ITERATIONS {
        let workers = [1, 2, 8][iteration as usize % 3];
        let rt = Runtime::new(workers);
        let flags = Arc::new((0..TASKS).map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());

        // Random pairing: even-indexed tasks message their odd partner a
        // random number of times, forcing waker-driven reschedules that
        // land in the LIFO slot, the local deque or the injector depending
        // on which thread the send happens on.
        let handles: Vec<_> = (0..TASKS / 2)
            .flat_map(|pair| {
                let (mut tx, mut rx) = spsc::<u64>();
                let mut seed = iteration.wrapping_mul(0x1009) ^ pair as u64;
                let messages = next_rand(&mut seed) % 8;
                let yields = next_rand(&mut seed) % 4;
                let sender_flags = flags.clone();
                let receiver_flags = flags.clone();
                let sender = rt.spawn(async move {
                    for _ in 0..yields {
                        executor::yield_now().await;
                    }
                    for message in 0..messages {
                        tx.send(message).unwrap();
                        executor::yield_now().await;
                    }
                    sender_flags[2 * pair].fetch_add(1, Ordering::Relaxed);
                    drop(tx);
                });
                let receiver = rt.spawn(async move {
                    let mut received = 0;
                    while rx.recv().await.is_some() {
                        received += 1;
                    }
                    assert_eq!(received, messages);
                    receiver_flags[2 * pair + 1].fetch_add(1, Ordering::Relaxed);
                });
                [sender, receiver]
            })
            .collect();

        for handle in handles {
            rt.block_on(handle).unwrap();
        }
        for (task, flag) in flags.iter().enumerate() {
            assert_eq!(
                flag.load(Ordering::Relaxed),
                1,
                "task {task} ran a wrong number of times \
                 (iteration {iteration}, {workers} workers)"
            );
        }
    }
}

/// One task of `polls_of_one_task_never_overlap`: what its polls saw.
#[derive(Default)]
struct PollProbe {
    /// Set for the length of a poll.
    in_poll: AtomicBool,
    /// Polls that found `in_poll` already set on entry, or cleared on exit.
    overlaps: AtomicU32,
    polls: AtomicU32,
    /// The waker of the latest poll, for the foreign threads to fire.
    waker: Mutex<Option<Waker>>,
}

/// Sets the flag on drop, unwinding included.
struct SetOnDrop(Arc<AtomicBool>);

impl Drop for SetOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Polls of one task never overlap: a few hundred tasks on two workers,
/// each re-woken through its stored waker by two foreign threads while it
/// is being polled (the `NOTIFIED` path, and wakes by reference and by
/// value). Each poll flags itself for its length and spins inside the
/// flag, so a second poll of the same task that starts meanwhile is
/// counted. Every task must finish after exactly [`OVERLAP_POLLS`] polls.
#[test]
fn polls_of_one_task_never_overlap() {
    const TASKS: usize = 300;
    let rt = Runtime::new(2);
    let probes: Arc<Vec<PollProbe>> = Arc::new((0..TASKS).map(|_| PollProbe::default()).collect());
    let finished = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let _stop_on_exit = SetOnDrop(stop.clone());

    let wakers: Vec<_> = (0..2)
        .map(|thread| {
            let (probes, stop) = (probes.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    for probe in probes.iter() {
                        let waker = probe.waker.lock().unwrap().clone();
                        match (waker, thread) {
                            (Some(waker), 0) => waker.wake_by_ref(),
                            (Some(waker), _) => waker.wake(),
                            (None, _) => {}
                        }
                    }
                }
            })
        })
        .collect();

    for task in 0..TASKS {
        let (probes, finished) = (probes.clone(), finished.clone());
        rt.spawn(poll_fn(move |cx| {
            let probe = &probes[task];
            if probe.in_poll.swap(true, Ordering::SeqCst) {
                probe.overlaps.fetch_add(1, Ordering::SeqCst);
            }
            *probe.waker.lock().unwrap() = Some(cx.waker().clone());
            let polls = probe.polls.fetch_add(1, Ordering::SeqCst) + 1;
            // Hold the poll open so that wakes, and any overlapping poll,
            // land inside it.
            for _ in 0..1_000 {
                std::hint::spin_loop();
            }
            if !probe.in_poll.swap(false, Ordering::SeqCst) {
                probe.overlaps.fetch_add(1, Ordering::SeqCst);
            }
            if polls < OVERLAP_POLLS {
                return Poll::Pending;
            }
            // Drop the stored waker: the task is done.
            probe.waker.lock().unwrap().take();
            finished.fetch_add(1, Ordering::SeqCst);
            Poll::Ready(())
        }));
    }

    let deadline = Instant::now() + Duration::from_secs(20);
    while finished.load(Ordering::SeqCst) < TASKS && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    stop.store(true, Ordering::SeqCst);
    for waker in wakers {
        waker.join().unwrap();
    }
    let overlaps: u32 = probes
        .iter()
        .map(|p| p.overlaps.load(Ordering::SeqCst))
        .sum();
    assert_eq!(overlaps, 0, "polls of one task overlapped");
    assert_eq!(
        finished.load(Ordering::SeqCst),
        TASKS,
        "tasks left unfinished after 20 s"
    );
    for (task, probe) in probes.iter().enumerate() {
        assert_eq!(
            probe.polls.load(Ordering::SeqCst),
            OVERLAP_POLLS,
            "task {task}"
        );
    }
}

/// Counts its drops.
struct DropCounter(Arc<AtomicU32>);

impl Drop for DropCounter {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// The waker a poll lends its future takes no count, and its clones take
/// exactly one each. A clone woken after the poll that stored it returned
/// polls the task again, and a task that never finishes is freed — its
/// future and the guard it owns dropped exactly once — as soon as the
/// runtime and the one clone left are gone.
#[test]
fn lent_waker_leaves_the_counts_balanced() {
    const POLLS: u32 = 5;
    let drops = Arc::new(AtomicU32::new(0));
    let polls = Arc::new(AtomicU32::new(0));
    let stored = Arc::new(Mutex::new(None::<Waker>));
    let rt = Runtime::new(1);
    let _handle = {
        let guard = DropCounter(drops.clone());
        let (polls, stored) = (polls.clone(), stored.clone());
        rt.spawn(poll_fn(move |cx| {
            let _owned = &guard;
            polls.fetch_add(1, Ordering::SeqCst);
            *stored.lock().unwrap() = Some(cx.waker().clone());
            Poll::<()>::Pending
        }))
    };
    for poll in 1..=POLLS {
        let waker = wait_for_waker(&stored);
        // The one worker polls one task at a time: once a task spawned now
        // has run, the poll that stored the waker has returned.
        rt.block_on(rt.spawn(async {})).unwrap();
        assert_eq!(polls.load(Ordering::SeqCst), poll);
        // Woken by value: the poll it causes stores a new clone.
        waker.wake();
    }
    let last = wait_for_waker(&stored);
    assert_eq!(polls.load(Ordering::SeqCst), POLLS + 1);
    drop(rt);
    assert_eq!(drops.load(Ordering::SeqCst), 0, "the clone keeps the task");
    drop(last);
    assert_eq!(drops.load(Ordering::SeqCst), 1, "task freed exactly once");
}

/// Takes the waker out of `stored` once a poll has put one there.
fn wait_for_waker(stored: &Mutex<Option<Waker>>) -> Waker {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Some(waker) = stored.lock().unwrap().take() {
            return waker;
        }
        assert!(Instant::now() < deadline, "no poll stored a waker in 60 s");
        std::thread::yield_now();
    }
}
