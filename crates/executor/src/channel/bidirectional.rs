//! Bidirectional role-to-role links.
//!
//! A [`Bidirectional`] endpoint owns an outgoing queue towards one fixed
//! peer and an incoming queue from that peer. Role structs in the session
//! runtime store one endpoint per peer; creating the full mesh once per
//! program and reusing it across sessions is the channel-reuse optimisation
//! described in §2.1 of the paper.
//!
//! Because each direction has exactly one producer (this endpoint) and one
//! consumer (the peer), both queues are the lock-free [`spsc`] rings: a
//! send is a slot write plus a release store, a receive never takes a
//! lock, and the waker handoff feeds straight into the scheduler's
//! LIFO-slot direct-handoff path.
//!
//! A link built from a [`LinkConfig`] additionally cashes in the
//! protocol's statically verified k-MC bounds as performance parameters:
//! each direction's bound sizes its ring, so a verified session never
//! grows one, and becomes the endpoint's **batch-receive window** (the
//! receiver drains up to k queued messages per waker round-trip into a
//! local stash — k is precisely the number of in-flight messages the
//! verification proves safe). Sends never wait.

use std::collections::VecDeque;
use std::task::{Context, Poll};

use dep_telemetry as telemetry;

use super::spsc::{spsc_with, SpscConfig, SpscReceiver, SpscSender};
use super::SendError;

/// Construction parameters for one role-to-role link, from the
/// perspective of endpoint `a` in `pair_configured(a, b, config)`.
#[derive(Clone, Copy, Debug, Default)]
pub struct LinkConfig {
    /// Statically verified k-MC bound for the `a → b` direction.
    pub bound_ab: Option<usize>,
    /// Statically verified k-MC bound for the `b → a` direction.
    pub bound_ba: Option<usize>,
    /// Ignored: every ring grows when full. Kept only because
    /// `benchmark/src/ladder.rs` names it.
    pub bounded: bool,
}

/// One endpoint of a bidirectional link between two fixed peers.
pub struct Bidirectional<T> {
    tx: SpscSender<T>,
    rx: SpscReceiver<T>,
    /// Messages drained by a batch receive but not yet handed to the
    /// session; served before the ring is touched again.
    stash: VecDeque<T>,
    /// Batch-receive window for the incoming direction (1 = unbatched),
    /// from the verified k-MC bound of that direction.
    window: usize,
}

impl<T> Bidirectional<T> {
    /// Creates both endpoints of a fresh link.
    pub fn pair() -> (Self, Self) {
        Self::build(None, LinkConfig::default())
    }

    /// Creates both endpoints of a link between the named roles `a` and
    /// `b`, registering each direction with the telemetry layer (so the
    /// per-channel occupancy watermark can be checked against the
    /// statically verified k-MC bound; the names are discarded when
    /// telemetry is disabled) and shaped by the directions' verified
    /// k-MC bounds (see the module docs): bounds size the rings and
    /// become batch-receive windows.
    pub fn pair_configured(a: &'static str, b: &'static str, config: LinkConfig) -> (Self, Self) {
        Self::build(Some((a, b)), config)
    }

    fn build(label: Option<(&'static str, &'static str)>, config: LinkConfig) -> (Self, Self) {
        let direction = |bound: Option<usize>, from_to| SpscConfig {
            label: from_to,
            bound_hint: bound,
        };
        let (ab_tx, ab_rx) = spsc_with(direction(config.bound_ab, label));
        let (ba_tx, ba_rx) = spsc_with(direction(config.bound_ba, label.map(|(a, b)| (b, a))));
        let window = |bound: Option<usize>| bound.unwrap_or(1).max(1);
        if telemetry::ENABLED {
            // Record each direction's batch window next to its k-MC
            // bound, so tooling can assert `window <= kmc_bound`.
            if let Some((a, b)) = label {
                telemetry::channel::set_window(a, b, window(config.bound_ab) as u64);
                telemetry::channel::set_window(b, a, window(config.bound_ba) as u64);
            }
        }
        (
            Self {
                tx: ab_tx,
                rx: ba_rx,
                stash: VecDeque::new(),
                window: window(config.bound_ba),
            },
            Self {
                tx: ba_tx,
                rx: ab_rx,
                stash: VecDeque::new(),
                window: window(config.bound_ab),
            },
        )
    }

    /// Enqueues a message for the peer. Non-blocking and lock-free; fails
    /// only when the peer is gone.
    pub fn send(&mut self, value: T) -> Result<(), SendError<T>> {
        self.tx.send(value)
    }

    /// Poll-based send: reserves a slot and commits `*value` into it.
    /// Always `Ready`: `Ok` with `value` taken, or the closed-channel
    /// error carrying it.
    ///
    /// # Panics
    /// Panics if called with `value` already taken (`None`).
    pub fn poll_send(
        &mut self,
        cx: &mut Context<'_>,
        value: &mut Option<T>,
    ) -> Poll<Result<(), SendError<T>>> {
        match self.tx.poll_reserve(cx) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Err(SendError(()))) => {
                let value = value.take().expect("poll_send polled after completion");
                Poll::Ready(Err(SendError(value)))
            }
            Poll::Ready(Ok(slot)) => {
                slot.write(value.take().expect("poll_send polled after completion"));
                Poll::Ready(Ok(()))
            }
        }
    }

    /// Awaits the next message from the peer.
    pub async fn recv(&mut self) -> Option<T> {
        std::future::poll_fn(|cx| self.poll_recv(cx)).await
    }

    /// Non-blocking receive. On a link with a batch window this drains
    /// up to the window in one ring operation and serves the rest from
    /// the stash.
    pub fn try_recv(&mut self) -> Option<T> {
        if let Some(value) = self.stash.pop_front() {
            return Some(value);
        }
        if self.window > 1 {
            if self.rx.try_recv_batch(self.window, &mut self.stash) > 0 {
                return self.stash.pop_front();
            }
            None
        } else {
            self.rx.try_recv()
        }
    }

    /// Poll-based receive for hand-written futures. Batch-windowed links
    /// pay one waker round-trip and one index publication per window of
    /// messages, not per message.
    pub fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<Option<T>> {
        if let Some(value) = self.stash.pop_front() {
            return Poll::Ready(Some(value));
        }
        if self.window > 1 {
            match self.rx.poll_recv_batch(cx, self.window, &mut self.stash) {
                Poll::Ready(n) if n > 0 => Poll::Ready(self.stash.pop_front()),
                Poll::Ready(_) => Poll::Ready(None),
                Poll::Pending => Poll::Pending,
            }
        } else {
            self.rx.poll_recv(cx)
        }
    }

    /// Number of pending inbound messages (stashed plus queued).
    pub fn pending(&self) -> usize {
        self.stash.len() + self.rx.len()
    }

    /// The batch-receive window of the incoming direction (1 when
    /// unbatched).
    pub fn batch_window(&self) -> usize {
        self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong() {
        let (mut a, mut b) = Bidirectional::pair();
        crate::block_on(async {
            a.send(1u32).unwrap();
            assert_eq!(b.recv().await, Some(1));
            b.send(2).unwrap();
            assert_eq!(a.recv().await, Some(2));
        });
    }

    #[test]
    fn queues_are_independent_directions() {
        let (mut a, mut b) = Bidirectional::pair();
        a.send(10u8).unwrap();
        a.send(11).unwrap();
        b.send(20).unwrap();
        assert_eq!(a.pending(), 1);
        assert_eq!(b.pending(), 2);
        crate::block_on(async {
            assert_eq!(b.recv().await, Some(10));
            assert_eq!(b.recv().await, Some(11));
            assert_eq!(a.recv().await, Some(20));
        });
    }

    #[test]
    fn dropping_one_endpoint_closes_both_directions() {
        let (mut a, b) = Bidirectional::pair();
        drop(b);
        assert!(a.send(1u8).is_err());
        assert_eq!(crate::block_on(a.recv()), None);
    }

    #[test]
    fn configured_link_batches_receives() {
        let (mut a, mut b) = Bidirectional::pair_configured(
            "BidiBatchA",
            "BidiBatchB",
            LinkConfig {
                bound_ab: Some(8),
                bound_ba: Some(2),
                ..LinkConfig::default()
            },
        );
        assert_eq!(b.batch_window(), 8);
        assert_eq!(a.batch_window(), 2);
        for i in 0..20u32 {
            a.send(i).unwrap();
        }
        // The first receive drains a window into the stash; the ring is
        // only touched again once the stash runs dry.
        assert_eq!(b.try_recv(), Some(0));
        assert_eq!(b.stash.len(), 7);
        for i in 1..20 {
            assert_eq!(b.try_recv(), Some(i));
        }
        assert_eq!(b.try_recv(), None);
    }

    #[test]
    fn bounded_link_never_parks_its_sender() {
        // `bounded` is ignored: a sender that runs far past the bound
        // grows the ring instead of waiting for the receiver.
        let (mut a, mut b) = Bidirectional::pair_configured(
            "BidiBoundA",
            "BidiBoundB",
            LinkConfig {
                bound_ab: Some(1),
                bounded: true,
                ..LinkConfig::default()
            },
        );
        let mut cx = Context::from_waker(std::task::Waker::noop());
        for i in 0..1000u32 {
            let mut value = Some(i);
            assert!(
                matches!(a.poll_send(&mut cx, &mut value), Poll::Ready(Ok(()))),
                "send {i} did not complete"
            );
        }
        for i in 0..1000 {
            assert_eq!(b.try_recv(), Some(i));
        }
        assert_eq!(b.try_recv(), None);
    }

    #[test]
    fn poll_send_commits_and_takes_value() {
        let (mut a, mut b) = Bidirectional::pair();
        crate::block_on(async {
            let mut value = Some(9u32);
            std::future::poll_fn(|cx| a.poll_send(cx, &mut value))
                .await
                .unwrap();
            assert!(value.is_none());
            assert_eq!(b.recv().await, Some(9));
        });
    }
}
