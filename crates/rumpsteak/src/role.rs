//! Roles, routes and message labels (paper §2.1, "API design").
//!
//! A *role* is a struct holding one bidirectional channel per peer; the
//! [`Route`] trait retrieves the channel towards a given peer at the type
//! level. A protocol shares a single wire-format enum (the `Label` of
//! Listing 2); [`Message`] converts between that enum and individual label
//! structs.

use executor::channel::{Bidirectional, LinkConfig};

/// A protocol participant: a named struct owning its channels.
///
/// Each channel is a [`Bidirectional`] link — a pair of lock-free SPSC
/// rings, one per direction — since a link connects exactly two fixed
/// roles; sends and receives on the session hot path never take a lock.
///
/// Implementations are generated by the [`roles!`](crate::roles) macro.
pub trait Role: Sized {
    /// The wire-format enum carrying every label of the protocol.
    type Message;

    /// The participant's name as used in session types and FSMs.
    fn name() -> &'static str;
}

/// Access to the link from `Self` towards peer role `R`.
///
/// The associated [`Link`](Self::Link) type fixes the carrier per peer:
/// [`roles!`](crate::roles)-generated meshes use the in-process
/// [`Bidirectional`] SPSC link, while distributed role structs (emitted
/// by `rumpsteak-gen --skeleton --distributed`, or hand-written) use a
/// framed socket [`NetLink`](crate::net::NetLink). Session code is
/// identical either way — the primitives only see the
/// [`Transport`](crate::transport::Transport) contract.
pub trait Route<R>: Role {
    /// The transport carrying messages between `Self` and `R`.
    type Link: crate::transport::Transport<Message = Self::Message>;

    /// The link towards `R`.
    fn route(&mut self) -> &mut Self::Link;
}

/// Conversion between a label struct `L` and the wire-format enum.
///
/// Implementations are generated by the [`messages!`](crate::messages)
/// macro: `upcast` wraps a label for sending, `downcast` recovers it on
/// reception (failing if a different label arrived).
pub trait Message<L>: Sized {
    /// Wraps a label into the wire enum.
    fn upcast(label: L) -> Self;
    /// Unwraps the label, returning the original message on mismatch.
    fn downcast(self) -> Result<L, Self>;
}

/// Metadata describing one label for serialisation (bottom-up workflow).
pub trait Label {
    /// The label's protocol-level name (e.g. `"ready"`).
    fn label_name() -> &'static str;
    /// The payload sort recorded in serialised FSMs.
    fn sort() -> theory::Sort {
        theory::Sort::Unit
    }
}

/// Builds the full mesh of channels for a protocol, pairing endpoints by
/// `(from, to)` role names. Generated `connect()` functions use this to
/// instantiate every role at once (the `#[derive(Roles)]` feature of the
/// paper), eliminating manual channel wiring mistakes.
///
/// A mesh holds a handful of routes, so both tables are short vectors
/// scanned linearly: no hashing, and no allocation until the first entry.
pub struct Mesh<M> {
    /// Endpoints waiting for their peer, keyed by the `(from, to)` of the
    /// [`take`](Self::take) that created the link, oldest first.
    pending: Vec<(Pair, Bidirectional<M>)>,
    /// Verified k-MC bound per directed channel; consulted when the link
    /// is created to size its batch window. At most one entry per key.
    bounds: Vec<(Pair, usize)>,
}

/// A directed `(from, to)` pair of role names.
type Pair = (&'static str, &'static str);

impl<M> Mesh<M> {
    /// Creates an empty mesh.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Self {
            pending: Vec::new(),
            bounds: Vec::new(),
        }
    }

    /// Records the verified k-MC bound for the directed channel
    /// `from → to`; affects links created by later [`take`](Self::take)
    /// calls. Repeated registration keeps the larger bound.
    pub fn set_bound(&mut self, from: &'static str, to: &'static str, k: usize) {
        if k == 0 {
            return;
        }
        match self.bounds.iter_mut().find(|(key, _)| *key == (from, to)) {
            Some((_, bound)) => *bound = (*bound).max(k),
            None => self.bounds.push(((from, to), k)),
        }
    }

    /// The bound registered for `from → to`, if any.
    fn bound(&self, from: &'static str, to: &'static str) -> Option<usize> {
        self.bounds
            .iter()
            .find(|(key, _)| *key == (from, to))
            .map(|&(_, k)| k)
    }

    /// Returns `from`'s endpoint of the `from ↔ to` link, creating the
    /// pair on first request and handing out the stored counterpart on the
    /// second.
    ///
    /// Links are created *labelled* with the two role names, so in
    /// telemetry builds every session channel's occupancy watermark is
    /// tracked per role pair (and checked against a registered k-MC
    /// bound); in default builds the labels are discarded. Registered
    /// bounds size the link's rings and set its batch window in every
    /// build; a send never waits, as a full ring grows.
    pub fn take(&mut self, from: &'static str, to: &'static str) -> Bidirectional<M> {
        if let Some(at) = self.pending.iter().position(|(key, _)| *key == (to, from)) {
            return self.pending.remove(at).1;
        }
        let config = LinkConfig {
            bound_ab: self.bound(from, to),
            bound_ba: self.bound(to, from),
            ..LinkConfig::default()
        };
        let (mine, theirs) = Bidirectional::pair_configured(from, to, config);
        self.pending.push(((from, to), theirs));
        mine
    }

    /// True once every created endpoint has been claimed by its peer.
    pub fn is_balanced(&self) -> bool {
        self.pending.is_empty()
    }

    /// The `(from, to)` pairs whose counterpart endpoint was never taken,
    /// sorted for stable reporting.
    pub fn unclaimed(&self) -> Vec<(&'static str, &'static str)> {
        let mut pairs: Vec<_> = self.pending.iter().map(|&(key, _)| key).collect();
        pairs.sort_unstable();
        pairs
    }

    /// Panics with the exact unmatched role pairs if any endpoint was
    /// created but never claimed by its peer — i.e. some role declares a
    /// route `from -> to` without the matching `to -> from` route.
    ///
    /// Generated `connect()` constructors call this after wiring, so an
    /// asymmetric `roles!` declaration fails fast with an actionable
    /// message instead of deadlocking at the first use of the missing
    /// link.
    #[track_caller]
    pub fn assert_balanced(&self) {
        if self.pending.is_empty() {
            return;
        }
        let missing: Vec<String> = self
            .unclaimed()
            .into_iter()
            .map(|(from, to)| format!("`{from} -> {to}` has no matching `{to} -> {from}` route"))
            .collect();
        panic!(
            "roles! declaration has asymmetric routes: {}",
            missing.join(", ")
        );
    }
}

/// Generates role structs, their [`Role`]/[`Route`] implementations and a
/// `connect()` constructor wiring the whole mesh.
///
/// ```ignore
/// roles! {
///     message Label;
///     K { s: S, t: T },
///     S { k: K },
///     T { k: K },
/// }
/// ```
///
/// An optional `bounds { ... };` clause — emitted by the code generator
/// from the k-MC checker's per-channel maximum depths, or written by hand
/// for manually verified protocols — registers each directed channel's
/// statically verified bound with the telemetry layer when `connect()`
/// runs, so runtime watermarks are checked against it (`observed_depth
/// <= k`). Only that registration is a no-op without the `telemetry`
/// feature: in every build `connect()` also sizes each link's
/// batch-receive window from its bound:
///
/// ```ignore
/// roles! {
///     message Label;
///     bounds { K -> S: 2, S -> K: 1, K -> T: 1, T -> K: 1 };
///     K { s: S, t: T },
///     S { k: K },
///     T { k: K },
/// }
/// ```
#[macro_export]
macro_rules! roles {
    (message $msg:ty; $($role:ident { $($field:ident : $peer:ident),* $(,)? }),* $(,)?) => {
        $crate::roles! {
            message $msg;
            bounds {};
            $($role { $($field : $peer),* }),*
        }
    };
    (message $msg:ty;
     bounds { $($bfrom:ident -> $bto:ident : $bound:expr),* $(,)? };
     $($role:ident { $($field:ident : $peer:ident),* $(,)? }),* $(,)?) => {
        $(
            /// A protocol role generated by `roles!`, holding one channel
            /// per peer.
            pub struct $role {
                $(pub(crate) $field: ::executor::channel::Bidirectional<$msg>,)*
            }

            impl $crate::Role for $role {
                type Message = $msg;
                fn name() -> &'static str {
                    stringify!($role)
                }
            }

            $(
                impl $crate::Route<$peer> for $role {
                    type Link = ::executor::channel::Bidirectional<$msg>;
                    fn route(&mut self) -> &mut Self::Link {
                        &mut self.$field
                    }
                }
            )*
        )*

        /// Instantiates every role with a fully connected channel mesh.
        ///
        /// Channels with a `bounds` clause entry are built with that
        /// k-MC bound as their batch-receive window; the rings stay
        /// growable.
        pub fn connect() -> ($($role),*) {
            // Register the statically verified per-channel bounds before
            // any link exists; re-registration max-merges, so repeated
            // `connect()` calls are idempotent. No-op without telemetry.
            $(
                $crate::telemetry::channel::set_bound(
                    stringify!($bfrom),
                    stringify!($bto),
                    $bound as u64,
                );
            )*
            let mut mesh = $crate::role::Mesh::<$msg>::new();
            // The same bounds shape the links themselves: batch-receive
            // windows.
            $(
                mesh.set_bound(stringify!($bfrom), stringify!($bto), $bound as usize);
            )*
            let out = ($(
                $role {
                    $($field: mesh.take(stringify!($role), stringify!($peer)),)*
                }
            ),*);
            mesh.assert_balanced();
            out
        }
    };
}

/// Generates the wire-format enum and its [`Message`]/[`Label`] impls.
///
/// ```ignore
/// pub struct Ready;
/// pub struct Value(pub i32);
///
/// messages! {
///     enum Label { Ready(Ready), Value(Value): i32 }
/// }
/// ```
///
/// An optional `: sort` suffix records the payload sort used when the
/// session type is serialised back into an FSM.
///
/// Prefixing the declaration with `wire` additionally derives the
/// [`Wire`](crate::wire::Wire) byte format for the enum and every label
/// struct, so the protocol can run over the distributed transport
/// ([`net`](crate::net)): the enum encodes as a `u16` variant tag in
/// declaration order followed by the payload, a label with a `: sort`
/// suffix encodes as its single payload field, and a label without one
/// encodes as nothing. `wire` labels must therefore be unit structs or
/// one-field tuple structs named by their bare identifier:
///
/// ```ignore
/// messages! {
///     wire enum Label { Ready(Ready), Value(Value): i32, Stop(Stop) }
/// }
/// ```
#[macro_export]
macro_rules! messages {
    (wire enum $name:ident { $($variant:ident($label:ident) $(: $sort:ident)?),* $(,)? }) => {
        $crate::messages! {
            enum $name { $($variant($label) $(: $sort)?),* }
        }

        const _: () = {
            /// Stable `u16` wire tags, one per variant in declaration
            /// order. Both processes compile the same declaration, so
            /// the numbering agrees by construction.
            #[repr(u16)]
            #[allow(dead_code)]
            enum Tag {
                $($variant,)*
            }

            impl $crate::wire::Wire for $name {
                fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                    match self {
                        $(
                            Self::$variant(label) => {
                                $crate::wire::Wire::encode(&(Tag::$variant as u16), out);
                                $crate::wire::Wire::encode(label, out);
                            }
                        )*
                    }
                }
                fn decode(
                    reader: &mut $crate::wire::WireReader<'_>,
                ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                    let tag = <u16 as $crate::wire::Wire>::decode(reader)?;
                    $(
                        if tag == Tag::$variant as u16 {
                            return Ok(Self::$variant($crate::wire::Wire::decode(reader)?));
                        }
                    )*
                    Err($crate::wire::WireError::UnknownTag(tag))
                }
            }

            $(
                $crate::messages!(@wire_label $label $(: $sort)?);
            )*
        };
    };
    // A label with a payload sort is a one-field tuple struct; its wire
    // form is the field's.
    (@wire_label $label:ident : $sort:ident) => {
        impl $crate::wire::Wire for $label {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                $crate::wire::Wire::encode(&self.0, out);
            }
            fn decode(
                reader: &mut $crate::wire::WireReader<'_>,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                Ok($label($crate::wire::Wire::decode(reader)?))
            }
        }
    };
    // A label without a sort is a unit struct; its wire form is empty.
    (@wire_label $label:ident) => {
        impl $crate::wire::Wire for $label {
            fn encode(&self, _out: &mut ::std::vec::Vec<u8>) {}
            fn decode(
                _reader: &mut $crate::wire::WireReader<'_>,
            ) -> ::std::result::Result<Self, $crate::wire::WireError> {
                Ok($label)
            }
        }
    };
    (enum $name:ident { $($variant:ident($label:ty) $(: $sort:ident)?),* $(,)? }) => {
        /// Wire-format enum generated by `messages!`.
        pub enum $name {
            $(
                #[allow(missing_docs)]
                $variant($label),
            )*
        }

        $(
            impl $crate::Message<$label> for $name {
                fn upcast(label: $label) -> Self {
                    Self::$variant(label)
                }
                fn downcast(self) -> ::std::result::Result<$label, Self> {
                    #[allow(unreachable_patterns)]
                    match self {
                        Self::$variant(label) => Ok(label),
                        other => Err(other),
                    }
                }
            }

            impl $crate::role::Label for $label {
                fn label_name() -> &'static str {
                    stringify!($variant)
                }
                $(
                    fn sort() -> ::theory::Sort {
                        stringify!($sort)
                            .parse()
                            .expect("sort parsing is infallible")
                    }
                )?
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_pairs_endpoints() {
        let mut mesh = Mesh::<u32>::new();
        let mut a = mesh.take("A", "B");
        let mut b = mesh.take("B", "A");
        assert!(mesh.is_balanced());
        a.send(7).unwrap();
        assert_eq!(executor::block_on(b.recv()), Some(7));
        b.send(8).unwrap();
        assert_eq!(executor::block_on(a.recv()), Some(8));
    }

    #[test]
    fn three_role_mesh_hands_each_role_its_own_link() {
        let mut mesh = Mesh::<&'static str>::new();
        let mut k_s = mesh.take("K", "S");
        let mut k_t = mesh.take("K", "T");
        let mut s_k = mesh.take("S", "K");
        let mut t_k = mesh.take("T", "K");
        assert!(mesh.is_balanced());
        k_s.send("K -> S").unwrap();
        k_t.send("K -> T").unwrap();
        assert_eq!(executor::block_on(s_k.recv()), Some("K -> S"));
        assert_eq!(executor::block_on(t_k.recv()), Some("K -> T"));
        s_k.send("S -> K").unwrap();
        t_k.send("T -> K").unwrap();
        assert_eq!(executor::block_on(k_s.recv()), Some("S -> K"));
        assert_eq!(executor::block_on(k_t.recv()), Some("T -> K"));
    }

    #[test]
    fn mesh_detects_missing_counterpart() {
        let mut mesh = Mesh::<u32>::new();
        let _a = mesh.take("A", "B");
        assert!(!mesh.is_balanced());
        assert_eq!(mesh.unclaimed(), vec![("A", "B")]);
    }

    #[test]
    fn unbalanced_mesh_panic_names_the_pair() {
        let mut mesh = Mesh::<u32>::new();
        let _a = mesh.take("A", "B");
        let _b = mesh.take("B", "A");
        let _c = mesh.take("C", "A");
        let error = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            mesh.assert_balanced();
        }))
        .unwrap_err();
        let message = error.downcast_ref::<String>().expect("string panic");
        assert!(
            message.contains("`C -> A` has no matching `A -> C` route"),
            "unexpected panic message: {message}"
        );
    }
}
