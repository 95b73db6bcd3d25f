//! Asynchronous channels used as the session transport.
//!
//! Two families, mirroring what Rumpsteak needs from Tokio/futures:
//!
//! * [`spsc`] — lock-free single-producer/single-consumer queue: a
//!   growable power-of-two ring with an atomic waker handoff, a
//!   reserve/commit send path ([`SpscSender::poll_reserve`]) that
//!   constructs messages in place, and a batched receive that pays one
//!   index publication per window. This is the data plane of session
//!   links: every [`Bidirectional`] direction has exactly one producer
//!   and one consumer by construction, as every queue of the paper's
//!   model does. Sends enqueue into the peer's queue (the "asynchronous
//!   queue" of the paper) and never block — a full ring grows — which is
//!   what makes asynchronous message reordering profitable. Fan-in is
//!   one ring per producer.
//! * [`oneshot`] — the one single-value rendezvous, behind every
//!   [`JoinHandle`](crate::JoinHandle) and request/response pattern,
//!   implemented as a small atomic state machine.
//!
//! [`Bidirectional`] bundles an SPSC sender and receiver between two
//! fixed peers; one call to [`Bidirectional::pair`] yields both
//! endpoints. Role structs in the session runtime store one
//! `Bidirectional` per peer.

use std::fmt;

mod bidirectional;
mod oneshot;
mod spsc;

pub use bidirectional::{Bidirectional, LinkConfig};
pub use oneshot::{oneshot, OneshotReceiver, OneshotSender};
pub use spsc::{spsc, SendSlot, SpscReceiver, SpscRecv, SpscSender};

/// Error returned by the ring's send operations ([`SpscSender::send`],
/// [`SpscSender::poll_reserve`] and their [`Bidirectional`] wrappers)
/// when the receiver has been dropped — the only way a send fails.
/// Carries the rejected message so the caller can recover it.
pub struct SendError<T>(pub T);

impl<T> SendError<T> {
    /// Recovers the rejected message.
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T: fmt::Debug> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SendError").field(&self.0).finish()
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a closed channel")
    }
}

impl<T: fmt::Debug> std::error::Error for SendError<T> {}
