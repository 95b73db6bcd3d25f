//! What a `NetLink` pair costs in OS threads: its four bridge threads
//! (one writer and one reader per link) and nothing else — in
//! particular `executor::block_on`, which those threads park in, starts
//! none. Alone in its own test binary so sibling tests' threads cannot
//! perturb the count.
#![cfg(target_os = "linux")]

use rumpsteak::net::loopback_pair_tcp;

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs mounted");
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("status lists a thread count");
    line.trim().parse().expect("thread count is a number")
}

#[test]
fn loopback_pair_starts_exactly_its_four_bridge_threads() {
    let before = threads();
    let (mut a, mut b) = loopback_pair_tcp::<u64>("ThreadsA", "ThreadsB", Some(1), Some(1))
        .expect("loopback sockets");
    executor::block_on(a.send(41)).expect("B alive");
    let got = executor::block_on(b.recv()).expect("A sent a value");
    executor::block_on(b.send(got + 1)).expect("A alive");
    assert_eq!(executor::block_on(a.recv()), Some(42));
    assert_eq!(threads() - before, 4);
}
