//! A message `poll_send` accepted reaches the wire whatever its task
//! awaits next.
//!
//! `A` sends one frame far larger than the kernel's socket buffers with
//! window 1 — the send is accepted with most of the frame still
//! unwritten — and then awaits something only `B` can provide, and only
//! after `B` received the whole frame. `A` never polls its link again,
//! so if finishing the write were left to the sending task's later
//! polls, this verified (deadlock-free) exchange would hang. Whichever
//! thread collects the socket's writable edges — an idle worker, or the
//! parked one in `epoll_wait` — finishes it instead.
#![cfg(target_os = "linux")]

mod common;

use executor::channel::oneshot;
use rumpsteak::net::{loopback_pair_tcp, loopback_pair_uds, NetLink};

const FRAME: usize = 8 * 1024 * 1024;

fn accepted_frame_is_flushed_without_its_task(
    (mut a, mut b): (NetLink<Vec<u8>>, NetLink<Vec<u8>>),
    workers: usize,
) {
    let rt = executor::Runtime::new(workers);
    let (received, on_received) = oneshot::<usize>();
    let sender = rt.spawn(async move {
        a.send(vec![0xA5; FRAME]).await.expect("B alive");
        // Not the link: the only thing that can finish the write now is
        // a writable edge's collector.
        let seen = on_received.await.expect("B reports back");
        (a, seen)
    });
    let receiver = rt.spawn(async move {
        let frame = b.recv().await.expect("A's frame");
        assert!(frame.iter().all(|&byte| byte == 0xA5));
        received.send(frame.len());
        b
    });
    let (_a, seen) = rt.block_on(sender).expect("sender task");
    assert_eq!(seen, FRAME);
    rt.block_on(receiver).expect("receiver task");
}

#[test]
fn tcp_frame_is_flushed_while_its_sender_awaits_something_else() {
    common::within(|| {
        // Both tasks on one worker, then on one each.
        for workers in [1, 2] {
            let pair = loopback_pair_tcp("FlushA", "FlushB", Some(1), Some(1)).expect("sockets");
            accepted_frame_is_flushed_without_its_task(pair, workers);
        }
    });
}

#[test]
fn uds_frame_is_flushed_while_its_sender_awaits_something_else() {
    common::within(|| {
        let pair = loopback_pair_uds("FlushUdsA", "FlushUdsB", Some(1), Some(1)).expect("sockets");
        accepted_frame_is_flushed_without_its_task(pair, 1);
    });
}
