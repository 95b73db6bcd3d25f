//! SPSC channel stress suite: two-thread exactly-once/in-order delivery,
//! growth racing concurrent receives, endpoint drop races, zero-sized
//! payloads and waker-handoff interleavings.
//!
//! CI runs this file under `--release` (see `.github/workflows/ci.yml`);
//! the iteration counts scale down in debug builds so plain `cargo test`
//! stays fast.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::task::{Context, Poll, Waker};

use executor::channel::{spsc, Bidirectional, LinkConfig, SendSlot, SpscSender};
use executor::Runtime;

#[cfg(debug_assertions)]
const MESSAGES: u64 = 20_000;
#[cfg(not(debug_assertions))]
const MESSAGES: u64 = 500_000;

#[cfg(debug_assertions)]
const RACE_ITERATIONS: u64 = 50;
#[cfg(not(debug_assertions))]
const RACE_ITERATIONS: u64 = 500;

/// A link whose `a → b` direction carries the k-MC bound `bound` (so `b`
/// batch-receives with that window).
fn link<T>(bound: usize) -> (Bidirectional<T>, Bidirectional<T>) {
    let config = LinkConfig {
        bound_ab: Some(bound),
        ..LinkConfig::default()
    };
    Bidirectional::pair_configured("StressA", "StressB", config)
}

/// Splitmix-style deterministic RNG so failures reproduce.
fn next_rand(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A producer OS thread floods the ring while a consumer thread drains it
/// through the waker path (`block_on(recv())`): every message arrives
/// exactly once, in order, across many buffer growths and wraparounds.
#[test]
fn two_thread_exactly_once_in_order() {
    let (mut tx, mut rx) = spsc::<u64>();
    let producer = std::thread::spawn(move || {
        for i in 0..MESSAGES {
            tx.send(i).unwrap();
            if i % 4096 == 0 {
                // Let the consumer catch up sometimes so the ring sees
                // both near-empty and deeply-backlogged (grown) phases.
                std::thread::yield_now();
            }
        }
    });
    executor::block_on(async {
        for expected in 0..MESSAGES {
            assert_eq!(rx.recv().await, Some(expected));
        }
        assert_eq!(rx.recv().await, None);
    });
    producer.join().unwrap();
}

/// Forces growth *while* the consumer is actively popping: the producer
/// sends bursts sized past the current backlog, the consumer pops
/// concurrently, so copies into the doubled buffer race pops from the
/// retired one. Order must still be total.
#[test]
fn grow_during_recv() {
    for iteration in 0..RACE_ITERATIONS {
        let (mut tx, mut rx) = spsc::<u64>();
        let mut seed = iteration;
        let bursts: Vec<u64> = (0..32).map(|_| 1 + next_rand(&mut seed) % 96).collect();
        let total: u64 = bursts.iter().sum();
        let producer = std::thread::spawn(move || {
            let mut next = 0u64;
            for burst in bursts {
                for _ in 0..burst {
                    tx.send(next).unwrap();
                    next += 1;
                }
            }
        });
        let mut expected = 0u64;
        while expected < total {
            if let Some(value) = rx.try_recv() {
                assert_eq!(value, expected, "iteration {iteration}");
                expected += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        assert!(rx.try_recv().is_none());
        producer.join().unwrap();
    }
}

/// Drops the receiver at a random point mid-stream: the producer must
/// observe closure as a clean `SendError` (never a crash or a hang), and
/// everything received up to the drop must be an in-order prefix.
#[test]
fn receiver_drop_races_sender() {
    for iteration in 0..RACE_ITERATIONS {
        let (mut tx, mut rx) = spsc::<u64>();
        let mut seed = 0xD00D ^ iteration;
        let keep = next_rand(&mut seed) % 64;
        let producer = std::thread::spawn(move || {
            let mut sent = 0u64;
            loop {
                if tx.send(sent).is_err() {
                    return sent;
                }
                sent += 1;
            }
        });
        let mut received = 0u64;
        while received < keep {
            if let Some(value) = rx.try_recv() {
                assert_eq!(value, received, "iteration {iteration}");
                received += 1;
            }
        }
        drop(rx);
        // The producer exits only via the SendError path.
        let sent = producer.join().unwrap();
        assert!(sent >= received, "iteration {iteration}");
    }
}

/// Drops the sender at a random point: the receiver must drain exactly
/// the messages sent before the drop and then resolve to `None` through
/// the waker path (the drop must wake a parked receiver).
#[test]
fn sender_drop_races_receiver() {
    for iteration in 0..RACE_ITERATIONS {
        let (mut tx, mut rx) = spsc::<u64>();
        let mut seed = 0xBEEF ^ iteration;
        let count = next_rand(&mut seed) % 128;
        let producer = std::thread::spawn(move || {
            for i in 0..count {
                tx.send(i).unwrap();
            }
            // tx drops here, mid-race with the draining receiver.
        });
        let drained = executor::block_on(async {
            let mut drained = 0u64;
            while let Some(value) = rx.recv().await {
                assert_eq!(value, drained, "iteration {iteration}");
                drained += 1;
            }
            drained
        });
        assert_eq!(drained, count, "iteration {iteration}");
        producer.join().unwrap();
    }
}

/// Zero-sized payloads: indices, not slot contents, carry the protocol.
/// Also pins drop-exactly-once semantics via a drop-counting ZST.
#[test]
fn zero_sized_payloads() {
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    #[derive(Debug)]
    struct Token;
    impl Drop for Token {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::Relaxed);
        }
    }

    let (mut tx, mut rx) = spsc::<()>();
    for _ in 0..1000 {
        tx.send(()).unwrap();
    }
    let mut count = 0;
    while rx.try_recv().is_some() {
        count += 1;
    }
    assert_eq!(count, 1000);

    // 300 tokens sent, 100 received (dropped by the caller), 200 left
    // queued when the channel drops: every token drops exactly once.
    let (mut tx, mut rx) = spsc::<Token>();
    for _ in 0..300 {
        tx.send(Token).unwrap();
    }
    for _ in 0..100 {
        assert!(rx.try_recv().is_some());
    }
    assert_eq!(DROPS.load(Ordering::Relaxed), 100);
    drop((tx, rx));
    assert_eq!(DROPS.load(Ordering::Relaxed), 300);
}

/// Hammers the register/wake handshake: ping-pong pairs over
/// `Bidirectional` links with randomized yield patterns, across 1, 2 and
/// 8 workers (1 worker maximises LIFO-slot handoffs; oversubscription
/// maximises cross-thread register/wake races).
#[test]
fn waker_handoff_interleavings() {
    const PAIRS: usize = 4;
    #[cfg(debug_assertions)]
    const ROUNDS: u32 = 200;
    #[cfg(not(debug_assertions))]
    const ROUNDS: u32 = 2000;

    for workers in [1, 2, 8] {
        let rt = Runtime::new(workers);
        let handles: Vec<_> = (0..PAIRS)
            .flat_map(|pair| {
                let (mut ping, mut pong) = Bidirectional::pair();
                let ponger = rt.spawn(async move {
                    let mut count = 0u64;
                    while let Some(value) = pong.recv().await {
                        count += 1;
                        if pong.send(value).is_err() {
                            break;
                        }
                        if value % 7 == pair as u32 % 7 {
                            executor::yield_now().await;
                        }
                    }
                    count
                });
                let pinger = rt.spawn(async move {
                    let mut sum = 0u64;
                    for round in 1..=ROUNDS {
                        ping.send(round).unwrap();
                        if round % 5 == 0 {
                            executor::yield_now().await;
                        }
                        sum += u64::from(ping.recv().await.unwrap());
                    }
                    sum
                });
                [pinger, ponger]
            })
            .collect();
        let expected = u64::from(ROUNDS) * u64::from(ROUNDS + 1) / 2;
        for (index, handle) in handles.into_iter().enumerate() {
            let value = rt.block_on(handle).unwrap();
            if index % 2 == 0 {
                assert_eq!(value, expected, "pinger {index}, {workers} workers");
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

/// Two-thread in-place sends: the producer thread commits every message
/// through the reserve/commit path (`poll_reserve` then `write`, and the
/// `send` wrapper), racing a consumer thread across many growths and
/// wraparounds. Exactly-once, in-order delivery must be identical to the
/// plain `send` path.
#[test]
fn two_thread_in_place_send_exactly_once_in_order() {
    let (mut tx, mut rx) = spsc::<u64>();
    fn reserve(tx: &mut SpscSender<u64>) -> SendSlot<'_, u64> {
        // The producer never parks, so no waker is ever stored.
        match tx.poll_reserve(&mut Context::from_waker(Waker::noop())) {
            Poll::Ready(Ok(slot)) => slot,
            _ => unreachable!("receiver alive"),
        }
    }
    let producer = std::thread::spawn(move || {
        for i in 0..MESSAGES {
            // Alternate the two commit flavours so both race the
            // consumer; an abandoned reservation in between must be
            // invisible.
            if i % 2 == 0 {
                reserve(&mut tx).write(i);
            } else {
                tx.send(i).unwrap();
            }
            if i % 1024 == 0 {
                drop(reserve(&mut tx));
                std::thread::yield_now();
            }
        }
    });
    executor::block_on(async {
        for expected in 0..MESSAGES {
            assert_eq!(rx.recv().await, Some(expected));
        }
        assert_eq!(rx.recv().await, None);
    });
    producer.join().unwrap();
}

/// Batch receives interleaved with the waker handoff at 1, 2 and 8
/// workers: a producer task streams messages with yields sprinkled in, a
/// consumer task drains a windowed link (bounds 1, 3 and 16) through
/// `Bidirectional::recv`. Every message arrives exactly once, in order,
/// and the receive resolves to `None` only after the producer is gone.
#[test]
fn recv_batch_waker_handoff_across_workers() {
    #[cfg(debug_assertions)]
    const STREAM: u64 = 5_000;
    #[cfg(not(debug_assertions))]
    const STREAM: u64 = 200_000;

    for workers in [1usize, 2, 8] {
        for window in [1usize, 3, 16] {
            let rt = Runtime::new(workers);
            let (mut tx, mut rx) = link::<u64>(window);
            assert_eq!(rx.batch_window(), window);
            let producer = rt.spawn(async move {
                for i in 0..STREAM {
                    tx.send(i).unwrap();
                    if i % 64 == 0 {
                        executor::yield_now().await;
                    }
                }
            });
            let consumer = rt.spawn(async move {
                let mut expected = 0u64;
                while let Some(value) = rx.recv().await {
                    assert_eq!(value, expected, "{workers} workers, window {window}");
                    expected += 1;
                }
                expected
            });
            rt.block_on(producer).unwrap();
            assert_eq!(
                rt.block_on(consumer).unwrap(),
                STREAM,
                "{workers} workers, window {window}"
            );
        }
    }
}

/// Drop-mid-batch leak check: payloads drained into the batch stash but
/// never consumed, payloads still queued in the ring, and payloads popped
/// normally must each drop exactly once when everything is torn down —
/// for both a drop-counting payload and a drop-counting ZST.
#[test]
fn drop_mid_batch_is_leak_free() {
    static DROPS: AtomicUsize = AtomicUsize::new(0);
    #[derive(Debug)]
    struct Counted(#[allow(dead_code)] u64);
    impl Drop for Counted {
        fn drop(&mut self) {
            DROPS.fetch_add(1, Ordering::Relaxed);
        }
    }
    static ZST_DROPS: AtomicUsize = AtomicUsize::new(0);
    #[derive(Debug)]
    struct ZstToken;
    impl Drop for ZstToken {
        fn drop(&mut self) {
            ZST_DROPS.fetch_add(1, Ordering::Relaxed);
        }
    }

    const SENT: usize = 500;
    {
        let (mut tx, mut rx) = link::<Counted>(64);
        for i in 0..SENT {
            tx.send(Counted(i as u64)).unwrap();
        }
        // Drain two windows into the stash, consume only part of the
        // second.
        for _ in 0..70 {
            drop(rx.try_recv().unwrap());
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 70);
        // 58 still stashed, the rest still queued; drop everything.
        drop(rx);
        assert_eq!(DROPS.load(Ordering::Relaxed), 128);
        drop(tx);
    }
    assert_eq!(DROPS.load(Ordering::Relaxed), SENT);

    {
        let (mut tx, mut rx) = link::<ZstToken>(100);
        for _ in 0..SENT {
            tx.send(ZstToken).unwrap();
        }
        drop(rx.try_recv().unwrap());
        drop(rx);
        assert_eq!(ZST_DROPS.load(Ordering::Relaxed), 100);
        drop(tx);
    }
    assert_eq!(ZST_DROPS.load(Ordering::Relaxed), SENT);
}

/// Cross-thread wake of a parked `block_on` receiver: the sender fires
/// from a plain OS thread after a delay, so the receiver is genuinely
/// parked in the WAITING state when the wake arrives.
#[test]
fn wakes_parked_receiver_from_foreign_thread() {
    for delay_us in [0u64, 50, 200] {
        let (mut tx, mut rx) = spsc::<u64>();
        let sender = std::thread::spawn(move || {
            if delay_us > 0 {
                std::thread::sleep(std::time::Duration::from_micros(delay_us));
            }
            tx.send(delay_us).unwrap();
        });
        assert_eq!(executor::block_on(rx.recv()), Some(delay_us));
        sender.join().unwrap();
    }
}
