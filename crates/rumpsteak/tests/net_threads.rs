//! What `NetLink`s cost in OS threads: the process's one `io-reactor`
//! thread, started by the first link and shared by all — no thread per
//! link, and none from `executor::block_on`, which the test drives them
//! with. Alone in its own test binary so sibling tests' threads cannot
//! perturb the count.
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

fn round_trip(a: &mut NetLink<u64>, b: &mut NetLink<u64>) {
    executor::block_on(a.send(41)).expect("B alive");
    let got = executor::block_on(b.recv()).expect("A sent a value");
    executor::block_on(b.send(got + 1)).expect("A alive");
    assert_eq!(executor::block_on(a.recv()), Some(42));
}

#[test]
fn any_number_of_loopback_pairs_share_one_reactor_thread() {
    common::within(|| {
        let before = threads();
        let (mut a, mut b) = loopback_pair_tcp::<u64>("ThreadsA", "ThreadsB", Some(1), Some(1))
            .expect("loopback sockets");
        let (mut c, mut d) = loopback_pair_tcp::<u64>("ThreadsC", "ThreadsD", Some(1), Some(1))
            .expect("loopback sockets");
        round_trip(&mut a, &mut b);
        round_trip(&mut c, &mut d);
        assert_eq!(threads() - before, 1);
        let reactors = || {
            std::fs::read_dir("/proc/self/task")
                .expect("procfs mounted")
                .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
                .filter(|name| name.trim() == "io-reactor")
                .count()
        };
        // A thread names itself once it runs; until then `comm` still
        // reads as its parent's. The watchdog bounds the wait.
        while reactors() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(reactors(), 1);
    });
}
