//! What `NetLink`s cost in OS threads: none. No link starts a thread,
//! and neither does `executor::block_on`, which the test drives them
//! with: the blocked caller waits for socket edges in `epoll_wait`
//! itself. Alone in its own test binary so sibling tests' threads
//! cannot perturb the count.
#![cfg(target_os = "linux")]

mod common;

use rumpsteak::net::{loopback_pair_tcp, NetLink};

/// The `Threads:` line of `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs mounted");
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .expect("status lists a thread count");
    line.trim().parse().expect("thread count is a number")
}

/// The process's thread ids, from `/proc/self/task`.
fn tasks() -> std::collections::BTreeSet<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs mounted")
        .filter_map(|task| Some(task.ok()?.file_name().to_string_lossy().into_owned()))
        .collect()
}

fn round_trip(a: &mut NetLink<u64>, b: &mut NetLink<u64>) {
    executor::block_on(a.send(41)).expect("B alive");
    let got = executor::block_on(b.recv()).expect("A sent a value");
    executor::block_on(b.send(got + 1)).expect("A alive");
    assert_eq!(executor::block_on(a.recv()), Some(42));
}

#[test]
fn loopback_pairs_add_no_thread() {
    common::within(|| {
        let before = tasks();
        let (mut a, mut b) = loopback_pair_tcp::<u64>("ThreadsA", "ThreadsB", Some(1), Some(1))
            .expect("loopback sockets");
        let (mut c, mut d) = loopback_pair_tcp::<u64>("ThreadsC", "ThreadsD", Some(1), Some(1))
            .expect("loopback sockets");
        round_trip(&mut a, &mut b);
        round_trip(&mut c, &mut d);
        assert_eq!(threads() - before.len(), 0);
        // Not merely as many threads: the same ones, so no reactor or
        // other helper thread came and went in their place.
        let after = tasks();
        assert!(
            after.is_subset(&before),
            "new threads: {after:?} vs {before:?}"
        );
    });
}
