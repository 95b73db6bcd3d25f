//! Who waits for socket edges. There is no I/O thread: at most one
//! parked thread at a time holds the driver baton and parks in
//! `epoll_wait` (`executor::io` lists the rules). These tests hand the
//! baton between bare `block_on` callers and runtime workers and check
//! that no waiter is stranded: neither a bare `block_on` nor a runtime
//! worker parks with a timeout, so a lost hand-off hangs into the
//! watchdog.
//!
//! The baton and the count of live runtime workers are process-wide,
//! so the tests take turns.
#![cfg(target_os = "linux")]

mod common;

use std::future::Future;
use std::sync::Mutex;
use std::task::{Context, Poll, Waker};
use std::thread;
use std::time::Duration;

use executor::Runtime;
use rumpsteak::net::{loopback_pair_tcp, loopback_pair_uds, NetLink};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial(test: impl FnOnce() + Send + 'static) {
    let _turn = SERIAL.lock().unwrap_or_else(|poison| poison.into_inner());
    common::within(test);
}

fn tcp_pair(name: &'static str) -> (NetLink<u64>, NetLink<u64>) {
    loopback_pair_tcp(name, "Peer", Some(1), Some(1)).expect("loopback sockets")
}

/// Sends `value` in one poll, outside any `block_on`: a `block_on`
/// that returns hands the baton on itself (rule 3), which would cover
/// for a hand-off the test means to check.
fn send_now(link: &mut NetLink<u64>, value: u64) {
    let mut send = std::pin::pin!(link.send(value));
    let poll = send.as_mut().poll(&mut Context::from_waker(Waker::noop()));
    assert!(
        matches!(poll, Poll::Ready(Ok(()))),
        "window full or peer gone"
    );
}

/// (a) Two bare `block_on` threads wait for a readable edge each. The
/// first to park drives; its future finishes first, and the other
/// thread must take the baton over to see its own edge.
#[test]
fn the_driver_hands_the_baton_to_the_other_block_on() {
    serial(|| {
        let (mut a1, mut b1) = tcp_pair("DriverA1");
        let (mut a2, mut b2) = tcp_pair("DriverA2");
        let first = thread::spawn(move || executor::block_on(b1.recv()));
        // Parked, and with no runtime worker alive, driving.
        thread::sleep(Duration::from_millis(20));
        let second = thread::spawn(move || executor::block_on(b2.recv()));
        thread::sleep(Duration::from_millis(20));
        executor::block_on(a1.send(1)).expect("first alive");
        assert_eq!(first.join().expect("first thread"), Some(1));
        // The driver has left; only the second thread can collect this.
        thread::sleep(Duration::from_millis(20));
        executor::block_on(a2.send(2)).expect("second alive");
        assert_eq!(second.join().expect("second thread"), Some(2));
    });
}

/// (b) A runtime whose worker holds the baton is dropped while a bare
/// `block_on` waits (without the baton: a worker was alive); the peer
/// sends only afterwards, so only the exiting worker's hand-off lets
/// the waiter collect the edge.
#[test]
fn dropping_a_runtime_leaves_the_baton_to_a_waiting_block_on() {
    serial(|| {
        let rt = Runtime::new(1);
        let (mut a, mut b) = tcp_pair("DropA");
        // Let the worker take the baton.
        rt.block_on(rt.spawn(async {})).expect("task");
        let waiter = thread::spawn(move || executor::block_on(b.recv()));
        thread::sleep(Duration::from_millis(20));
        drop(rt);
        thread::sleep(Duration::from_millis(50));
        send_now(&mut a, 7);
        assert_eq!(waiter.join().expect("waiter thread"), Some(7));
    });
}

/// (c) `ROUNDS` request/reply rounds between two tasks on a two-worker
/// runtime.
fn ping_pong((mut a, mut b): (NetLink<u64>, NetLink<u64>)) {
    const ROUNDS: u64 = 10_000;
    let rt = Runtime::new(2);
    let ponger = rt.spawn(async move {
        while let Some(value) = b.recv().await {
            b.send(value + 1).await.expect("pinger alive");
        }
    });
    let pinger = rt.spawn(async move {
        for round in 0..ROUNDS {
            a.send(round).await.expect("ponger alive");
            assert_eq!(a.recv().await, Some(round + 1));
        }
    });
    rt.block_on(pinger).expect("pinger");
    rt.block_on(ponger).expect("ponger");
}

#[test]
fn two_workers_ping_pong_over_tcp() {
    serial(|| ping_pong(tcp_pair("PingTcp")));
}

#[test]
fn two_workers_ping_pong_over_uds() {
    serial(|| {
        ping_pong(loopback_pair_uds("PingUds", "Peer", Some(1), Some(1)).expect("sockets"));
    });
}

/// A runtime's only worker parked before any socket existed, so it
/// sleeps plainly; the first registration must rouse it to drive, or
/// the edge a bare `block_on` awaits is never collected.
#[test]
fn the_first_link_rouses_a_worker_parked_before_it() {
    serial(|| {
        let rt = Runtime::new(1);
        // Let the worker run out of work and park.
        rt.block_on(rt.spawn(async {})).expect("task");
        thread::sleep(Duration::from_millis(2));
        let (mut a, mut b) = tcp_pair("FirstA");
        let sender = thread::spawn(move || {
            thread::sleep(Duration::from_millis(5));
            executor::block_on(a.send(3)).expect("receiver alive");
            a
        });
        assert_eq!(executor::block_on(b.recv()), Some(3));
        sender.join().expect("sender thread");
    });
}

/// (d) A bare `block_on` may not drive while a runtime worker is alive,
/// even one that is busy: the worker collects the edge once its task
/// lets go of the CPU.
#[test]
fn a_bare_block_on_completes_while_the_only_worker_spins() {
    serial(|| {
        let rt = Runtime::new(1);
        let (mut a, mut b) = tcp_pair("SpinA");
        let spin = rt.spawn(async {
            let until = std::time::Instant::now() + Duration::from_millis(100);
            while std::time::Instant::now() < until {
                std::hint::spin_loop();
            }
        });
        let sender = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            executor::block_on(a.send(9)).expect("receiver alive");
            a
        });
        assert_eq!(executor::block_on(b.recv()), Some(9));
        rt.block_on(spin).expect("spinning task");
        sender.join().expect("sender thread");
    });
}
