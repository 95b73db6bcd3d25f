//! Asynchronous channels used as the session transport.
//!
//! Three families, mirroring what Rumpsteak needs from Tokio/futures:
//!
//! * [`spsc`] — lock-free single-producer/single-consumer queue: a
//!   growable power-of-two ring with an atomic waker handoff, a
//!   reserve/commit send path ([`SpscSender::try_reserve`]) that
//!   constructs messages in place, a batched receive
//!   ([`SpscReceiver::try_recv_batch`]) that pays one index publication
//!   per window, and a capacity-capped mode ([`spsc_bounded`]) that
//!   exerts back-pressure instead of growing. This is the data plane of
//!   session links: every [`Bidirectional`] direction has exactly one
//!   producer and one consumer by construction, so no send or receive on
//!   a session channel ever takes a lock.
//! * [`unbounded`] — the one **multi**-producer single-consumer FIFO,
//!   kept for the places senders are genuinely cloned (ring/mesh scaling
//!   rows, the Ferrite baseline, stress tests). Sends enqueue into the
//!   peer's queue (the "asynchronous queue" of the paper) and never
//!   block, which is what makes asynchronous message reordering
//!   profitable. Back-pressure is the SPSC ring's capacity cap; there
//!   is no bounded MPSC.
//! * [`oneshot`] — the one single-value rendezvous, behind every
//!   [`JoinHandle`](crate::JoinHandle) and request/response pattern,
//!   implemented as a small atomic state machine.
//!
//! [`Bidirectional`] bundles an SPSC sender and receiver between two
//! fixed peers; one call to [`Bidirectional::pair`] yields both
//! endpoints. Role structs in the session runtime store one
//! `Bidirectional` per peer. [`pool`] provides the reusable payload
//! buffers that make large-message sessions allocation-free in steady
//! state.

use std::fmt;

mod bidirectional;
mod oneshot;
pub mod pool;
mod spsc;
mod unbounded;

pub use bidirectional::{Bidirectional, LinkConfig};
pub use oneshot::{oneshot, OneshotReceiver, OneshotSender};
pub use pool::{BufferPool, PooledBuf};
pub use spsc::{
    spsc, spsc_bounded, spsc_with, SendSlot, SpscConfig, SpscReceiver, SpscRecv, SpscRecvBatch,
    SpscSendWait, SpscSender,
};
pub use unbounded::{unbounded, Receiver, Sender};

/// Error returned by the non-blocking `send` operations when the receiver
/// has been dropped. Carries the rejected message so the caller can
/// recover it.
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

/// Error returned by `try_send`-style operations, distinguishing a
/// *recoverable* full queue (capacity-bounded rings exerting
/// back-pressure) from a peer that is gone for good. Both variants carry
/// the rejected message.
pub enum TrySendError<T> {
    /// The queue is at capacity; retrying after the consumer drains —
    /// or awaiting the parking send path — will succeed.
    Full(T),
    /// The receiving half has been dropped; no send can ever succeed.
    Closed(T),
}

impl<T> TrySendError<T> {
    /// Recovers the rejected message.
    pub fn into_inner(self) -> T {
        match self {
            Self::Full(value) | Self::Closed(value) => value,
        }
    }

    /// True for the recoverable back-pressure case.
    pub fn is_full(&self) -> bool {
        matches!(self, Self::Full(_))
    }

    /// True when the peer is gone.
    pub fn is_closed(&self) -> bool {
        matches!(self, Self::Closed(_))
    }
}

impl<T: fmt::Debug> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Full(value) => f.debug_tuple("Full").field(value).finish(),
            Self::Closed(value) => f.debug_tuple("Closed").field(value).finish(),
        }
    }
}

impl<T> fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Full(_) => f.write_str("sending on a full channel"),
            Self::Closed(_) => f.write_str("sending on a closed channel"),
        }
    }
}

impl<T: fmt::Debug> std::error::Error for TrySendError<T> {}

impl<T> From<TrySendError<T>> for SendError<T> {
    fn from(error: TrySendError<T>) -> Self {
        SendError(error.into_inner())
    }
}
