//! The session data plane abstracted over its carrier.
//!
//! The session primitives ([`Send`](crate::Send), [`Receive`](crate::Receive),
//! [`Select`](crate::Select), [`Branch`](crate::Branch)) drive a role's
//! link to one peer through exactly three operations: a poll-based send,
//! a non-blocking receive fast path, and a poll-based receive that
//! registers the waker. [`Transport`] names those three operations, so
//! the *same* typestate layer runs over
//!
//! * the in-process lock-free SPSC link
//!   ([`Bidirectional`]) — the paper's
//!   shared-memory configuration, whose sends never wait, and
//! * a framed socket link ([`NetLink`](crate::net::NetLink)) — roles in
//!   different OS processes, where the statically verified k-MC bound
//!   becomes the socket send window, the one place a send waits.
//!
//! Which carrier a role uses is fixed per peer by
//! [`Route::Link`](crate::Route::Link); protocol code is identical in
//! both configurations because it only ever sees the trait.

use std::task::{Context, Poll};

use executor::channel::{Bidirectional, SendError};

/// The peer's endpoint is gone: its process exited, the socket closed,
/// or the in-process receiver was dropped. The session layer surfaces
/// this as [`Error::ChannelClosed`](crate::Error::ChannelClosed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Disconnected;

/// One role-to-role session link, as seen by the session primitives.
///
/// The contract mirrors the SPSC ring the in-process implementation is
/// built on:
///
/// * [`poll_send`](Self::poll_send) takes the message out of `*message`
///   exactly when it resolves (`Ready(Ok)` on delivery into the link,
///   `Ready(Err)` when the peer is gone); while `Pending` — only a
///   `NetLink` whose send window is full — the message stays put and the
///   waker is registered.
/// * [`try_recv`](Self::try_recv) is the lock-free fast path: pop an
///   already delivered message without touching any waker.
/// * [`poll_recv`](Self::poll_recv) registers the waker and re-checks,
///   returning `Ready(None)` once the peer is gone and the link drained.
pub trait Transport {
    /// The wire-format enum carried by this link.
    type Message;

    /// Poll-based send: delivers `*message` into the link, leaving the
    /// option empty on `Ready(Ok)` and on the terminal `Ready(Err)`,
    /// untouched while `Pending` (a `NetLink` window full — the waker is
    /// registered and the send retries when a frame leaves). The
    /// in-process link is never `Pending`: a full ring grows.
    fn poll_send(
        &mut self,
        cx: &mut Context<'_>,
        message: &mut Option<Self::Message>,
    ) -> Poll<Result<(), Disconnected>>;

    /// Non-blocking receive: pops an already delivered message, `None`
    /// when nothing is queued (which does *not* distinguish an empty
    /// link from a closed one — [`poll_recv`](Self::poll_recv) does).
    fn try_recv(&mut self) -> Option<Self::Message>;

    /// Poll-based receive: registers the waker, then `Ready(Some)` per
    /// delivered message and `Ready(None)` once the peer is gone and
    /// every queued message was served.
    fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<Option<Self::Message>>;
}

/// The in-process carrier: a pair of lock-free SPSC rings. This is the
/// transport every [`roles!`](crate::roles)-generated mesh runs on.
impl<M> Transport for Bidirectional<M> {
    type Message = M;

    #[inline]
    fn poll_send(
        &mut self,
        cx: &mut Context<'_>,
        message: &mut Option<M>,
    ) -> Poll<Result<(), Disconnected>> {
        match Bidirectional::poll_send(self, cx, message) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Ok(())) => Poll::Ready(Ok(())),
            Poll::Ready(Err(SendError(_))) => Poll::Ready(Err(Disconnected)),
        }
    }

    #[inline]
    fn try_recv(&mut self) -> Option<M> {
        Bidirectional::try_recv(self)
    }

    #[inline]
    fn poll_recv(&mut self, cx: &mut Context<'_>) -> Poll<Option<M>> {
        Bidirectional::poll_recv(self, cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready<T>(poll: Poll<T>) -> T {
        match poll {
            Poll::Ready(value) => value,
            Poll::Pending => panic!("expected Ready"),
        }
    }

    #[test]
    fn bidirectional_round_trips_through_the_trait() {
        fn drive<L: Transport<Message = u32>>(a: &mut L, b: &mut L) {
            let waker = std::task::Waker::noop();
            let mut cx = Context::from_waker(waker);
            let mut message = Some(7);
            ready(a.poll_send(&mut cx, &mut message)).unwrap();
            assert!(message.is_none());
            assert_eq!(b.try_recv(), Some(7));
            assert!(b.try_recv().is_none());
        }
        let (mut a, mut b) = Bidirectional::pair();
        drive(&mut a, &mut b);
    }

    #[test]
    fn dropped_peer_reports_disconnected() {
        let (mut a, b) = Bidirectional::<u32>::pair();
        drop(b);
        let waker = std::task::Waker::noop();
        let mut cx = Context::from_waker(waker);
        let mut message = Some(1);
        assert_eq!(
            ready(Transport::poll_send(&mut a, &mut cx, &mut message)),
            Err(Disconnected)
        );
        assert_eq!(ready(Transport::poll_recv(&mut a, &mut cx)), None);
    }
}
