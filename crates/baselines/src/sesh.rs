//! Sesh-style synchronous binary session types.
//!
//! Characteristics reproduced from the original:
//!
//! * **rendezvous communication** — sends block until the peer receives
//!   (zero-capacity `std::sync::mpsc::sync_channel`s), so threads stall
//!   on every message;
//! * **fresh channel per interaction** — each `send`/`choose` allocates a
//!   new channel pair carrying the continuation endpoint, the pattern the
//!   paper identifies as a constant per-message cost;
//! * **duality-typed endpoints** — protocol conformance is enforced by the
//!   [`Session`] trait's `Dual` involution.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// A binary session endpoint.
pub trait Session: Sized + core::marker::Send + 'static {
    /// The peer's endpoint type; duality is involutive.
    type Dual: Session<Dual = Self>;

    /// Creates a connected endpoint pair.
    fn new_pair() -> (Self, Self::Dual);
}

/// Error returned when the peer endpoint was dropped mid-protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Disconnected;

impl std::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("peer endpoint disconnected")
    }
}

impl std::error::Error for Disconnected {}

/// Send a `T`, then continue as `S`.
#[must_use = "sessions must be driven to completion"]
pub struct Send<T: core::marker::Send + 'static, S: Session> {
    channel: SyncSender<(T, S::Dual)>,
}

/// Receive a `T`, then continue as `S`.
#[must_use = "sessions must be driven to completion"]
pub struct Recv<T: core::marker::Send + 'static, S: Session> {
    channel: Receiver<(T, S)>,
}

/// The terminated session.
pub struct End;

impl<T: core::marker::Send + 'static, S: Session> Session for Send<T, S> {
    type Dual = Recv<T, S::Dual>;

    fn new_pair() -> (Self, Self::Dual) {
        // Zero capacity: a rendezvous channel, making sends blocking.
        let (tx, rx) = sync_channel(0);
        (Self { channel: tx }, Recv { channel: rx })
    }
}

impl<T: core::marker::Send + 'static, S: Session> Session for Recv<T, S> {
    type Dual = Send<T, S::Dual>;

    fn new_pair() -> (Self, Self::Dual) {
        let (there, here) = Send::new_pair();
        (here, there)
    }
}

impl Session for End {
    type Dual = End;

    fn new_pair() -> (Self, Self::Dual) {
        (End, End)
    }
}

impl<T: core::marker::Send + 'static, S: Session> Send<T, S> {
    /// Blocks until the peer receives, then returns the continuation.
    pub fn send(self, value: T) -> Result<S, Disconnected> {
        let (here, there) = S::new_pair();
        self.channel
            .send((value, there))
            .map_err(|_| Disconnected)?;
        Ok(here)
    }
}

impl<T: core::marker::Send + 'static, S: Session> Recv<T, S> {
    /// Blocks until the peer sends, returning value and continuation.
    pub fn recv(self) -> Result<(T, S), Disconnected> {
        self.channel.recv().map_err(|_| Disconnected)
    }
}

impl End {
    /// Closes the session.
    pub fn close(self) {}
}

/// A binary external choice payload: the continuation the chooser picked.
pub enum Branching<L: Session, R: Session> {
    /// The left protocol branch.
    Left(L),
    /// The right protocol branch.
    Right(R),
}

/// Make a binary choice; continue as `L` or `R`.
#[must_use = "sessions must be driven to completion"]
pub struct Choose<L: Session, R: Session> {
    channel: SyncSender<Branching<L::Dual, R::Dual>>,
}

/// Offer a binary choice made by the peer.
#[must_use = "sessions must be driven to completion"]
pub struct Offer<L: Session, R: Session> {
    channel: Receiver<Branching<L, R>>,
}

impl<L: Session, R: Session> Session for Choose<L, R> {
    type Dual = Offer<L::Dual, R::Dual>;

    fn new_pair() -> (Self, Self::Dual) {
        let (tx, rx) = sync_channel(0);
        (Self { channel: tx }, Offer { channel: rx })
    }
}

impl<L: Session, R: Session> Session for Offer<L, R> {
    type Dual = Choose<L::Dual, R::Dual>;

    fn new_pair() -> (Self, Self::Dual) {
        let (there, here) = Choose::new_pair();
        (here, there)
    }
}

impl<L: Session, R: Session> Choose<L, R> {
    /// Chooses the left branch.
    pub fn choose_left(self) -> Result<L, Disconnected> {
        let (here, there) = L::new_pair();
        self.channel
            .send(Branching::Left(there))
            .map_err(|_| Disconnected)?;
        Ok(here)
    }

    /// Chooses the right branch.
    pub fn choose_right(self) -> Result<R, Disconnected> {
        let (here, there) = R::new_pair();
        self.channel
            .send(Branching::Right(there))
            .map_err(|_| Disconnected)?;
        Ok(here)
    }
}

impl<L: Session, R: Session> Offer<L, R> {
    /// Waits for the peer's choice.
    pub fn offer(self) -> Result<Branching<L, R>, Disconnected> {
        self.channel.recv().map_err(|_| Disconnected)
    }
}

/// Runs `f` with one endpoint on a fresh OS thread and returns the dual —
/// the `fork` combinator of Sesh.
pub fn fork<S, F>(f: F) -> S::Dual
where
    S: Session,
    F: FnOnce(S) + core::marker::Send + 'static,
{
    let (here, there) = S::new_pair();
    std::thread::spawn(move || f(here));
    there
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong() {
        type Client = Send<u32, Recv<u32, End>>;
        let server = fork::<Client, _>(|client| {
            let s = client.send(1).unwrap();
            let (reply, end) = s.recv().unwrap();
            assert_eq!(reply, 2);
            end.close();
        });
        let (ping, s) = server.recv().unwrap();
        assert_eq!(ping, 1);
        s.send(2).unwrap().close();
    }

    #[test]
    fn choice_branches() {
        type Client = Choose<Send<u8, End>, End>;
        let server = fork::<Client, _>(|client| {
            client.choose_left().unwrap().send(7).unwrap().close();
        });
        match server.offer().unwrap() {
            Branching::Left(s) => {
                let (v, end) = s.recv().unwrap();
                assert_eq!(v, 7);
                end.close();
            }
            Branching::Right(_) => panic!("expected left branch"),
        }
    }

    #[test]
    fn disconnect_is_an_error() {
        type Client = Send<u8, End>;
        let (here, there) = Client::new_pair();
        drop(there);
        match here.send(1) {
            Err(Disconnected) => {}
            Ok(_) => panic!("send should fail after peer drop"),
        }
    }

    /// Sends really are synchronous: with no receiver waiting, neither a
    /// `Send` nor a `Choose` endpoint can hand its message over.
    #[test]
    fn rendezvous_blocks_sender() {
        use std::sync::mpsc::TrySendError;
        let (send, _recv) = Send::<u8, End>::new_pair();
        assert!(matches!(
            send.channel.try_send((1, End)),
            Err(TrySendError::Full(_))
        ));
        let (choose, _offer) = Choose::<End, End>::new_pair();
        assert!(matches!(
            choose.channel.try_send(Branching::Left(End)),
            Err(TrySendError::Full(_))
        ));
    }
}
