//! MultiCrusty-style synchronous multiparty sessions.
//!
//! MultiCrusty represents a multiparty session as a tuple of binary
//! sessions (one per peer) used in a prescribed order. This module
//! reproduces the performance-relevant parts: every role owns one
//! **blocking rendezvous link** per peer, so each message synchronises two
//! OS threads, and every payload is boxed to mirror the per-interaction
//! allocation of the binary-channel encoding.
//!
//! Protocol conformance for the benchmarks is by construction (the
//! benchmark processes are straight-line translations of the local
//! types); the static typing of the original is reproduced by `sesh` for
//! the binary case.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// One endpoint of a blocking bidirectional link between two fixed roles.
pub struct SyncLink<M> {
    tx: SyncSender<Box<M>>,
    rx: Receiver<Box<M>>,
}

/// Error when the peer endpoint was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Disconnected;

impl std::fmt::Display for Disconnected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("peer endpoint disconnected")
    }
}

impl std::error::Error for Disconnected {}

impl<M> SyncLink<M> {
    /// Creates both endpoints of a rendezvous link.
    pub fn pair() -> (Self, Self) {
        let (a_tx, b_rx) = sync_channel(0);
        let (b_tx, a_rx) = sync_channel(0);
        (Self { tx: a_tx, rx: a_rx }, Self { tx: b_tx, rx: b_rx })
    }

    /// Blocks until the peer receives.
    pub fn send(&self, message: M) -> Result<(), Disconnected> {
        self.tx.send(Box::new(message)).map_err(|_| Disconnected)
    }

    /// Blocks until the peer sends.
    pub fn recv(&self) -> Result<M, Disconnected> {
        self.rx.recv().map(|m| *m).map_err(|_| Disconnected)
    }
}

/// A full mesh of rendezvous links for `N` roles.
///
/// `mesh::<M, 3>()` returns, for each role `i`, a vector of links indexed
/// by peer (entry `i` itself is absent; peers keep their index order with
/// the self-slot skipped).
// Symmetric double-indexing (`[from][to]` and `[to][from]`) has no
// iterator equivalent without split_at_mut gymnastics.
#[allow(clippy::needless_range_loop)]
pub fn mesh<M, const N: usize>() -> Vec<Vec<SyncLink<M>>> {
    let mut per_role: Vec<Vec<Option<SyncLink<M>>>> =
        (0..N).map(|_| (0..N).map(|_| None).collect()).collect();
    for from in 0..N {
        for to in (from + 1)..N {
            let (a, b) = SyncLink::pair();
            per_role[from][to] = Some(a);
            per_role[to][from] = Some(b);
        }
    }
    per_role
        .into_iter()
        .map(|row| row.into_iter().flatten().collect())
        .collect()
}

/// Index of the link towards `peer` within a role's link vector (the
/// self-slot is skipped).
pub fn link_index(role: usize, peer: usize) -> usize {
    if peer < role {
        peer
    } else {
        peer - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_role_ring_message() {
        let mut roles = mesh::<u32, 3>();
        let c = roles.pop().unwrap();
        let b = roles.pop().unwrap();
        let a = roles.pop().unwrap();

        let h_b = std::thread::spawn(move || {
            // b receives from a, forwards to c.
            let v = b[link_index(1, 0)].recv().unwrap();
            b[link_index(1, 2)].send(v + 1).unwrap();
        });
        let h_c = std::thread::spawn(move || {
            let v = c[link_index(2, 1)].recv().unwrap();
            c[link_index(2, 0)].send(v + 1).unwrap();
        });

        a[link_index(0, 1)].send(1).unwrap();
        let back = a[link_index(0, 2)].recv().unwrap();
        assert_eq!(back, 3);
        h_b.join().unwrap();
        h_c.join().unwrap();
    }

    #[test]
    fn link_index_skips_self() {
        assert_eq!(link_index(0, 1), 0);
        assert_eq!(link_index(0, 2), 1);
        assert_eq!(link_index(1, 0), 0);
        assert_eq!(link_index(1, 2), 1);
        assert_eq!(link_index(2, 0), 0);
        assert_eq!(link_index(2, 1), 1);
    }

    #[test]
    fn disconnected_peer_reports_error() {
        let (a, b) = SyncLink::<u8>::pair();
        drop(b);
        assert_eq!(a.send(1).unwrap_err(), Disconnected);
    }

    /// Sends really are synchronous: with no receiver waiting, a link
    /// cannot hand its message over.
    #[test]
    fn rendezvous_blocks_sender() {
        use std::sync::mpsc::TrySendError;
        let (a, _b) = SyncLink::pair();
        assert!(matches!(
            a.tx.try_send(Box::new(1u8)),
            Err(TrySendError::Full(_))
        ));
    }
}
