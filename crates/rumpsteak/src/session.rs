//! The generic session primitives (paper §2.1, Listings 2–3).
//!
//! Each primitive is an affine typestate: executing it consumes the value
//! and returns the continuation, so a channel can never be used twice.
//! `try_session` requires the closure to hand back an [`End`], so a session
//! cannot be silently discarded half-way (breaking linearity fails to
//! type-check).

use std::future::Future;
use std::marker::PhantomData;
use std::task::Poll;

use crate::role::{Message, Role, Route};
use crate::telemetry;
use crate::transport::Transport;
use crate::{Error, Result};

/// Records a session trace event for types `(role, peer, label)`.
/// Identifies participants via `type_name` (no extra trait bounds) with
/// module paths and generics stripped; compiles away without the
/// `telemetry` feature.
#[inline]
fn trace_event<Q, R, L>(kind: telemetry::trace::Kind) {
    if telemetry::ENABLED {
        telemetry::trace::event(
            kind,
            telemetry::short_type_name(std::any::type_name::<Q>()),
            telemetry::short_type_name(std::any::type_name::<R>()),
            telemetry::short_type_name(std::any::type_name::<L>()),
        );
    }
}

/// The private capability to act as role `Q` within one session: an
/// exclusive borrow of the role struct.
///
/// Holding `&'q mut Q` is what prevents the same role from participating
/// in two sessions at once (paper §2.1, "channel reuse"): the borrow
/// checker rejects a second `try_session` until the first completes.
pub struct State<'q, Q> {
    pub(crate) role: &'q mut Q,
}

impl<'q, Q> State<'q, Q> {
    fn new(role: &'q mut Q) -> Self {
        Self { role }
    }
}

/// Construction of a session state from the role capability.
///
/// Implemented by every primitive and by the types generated with
/// [`session!`](macro@crate::session) / [`choice!`](crate::choice).
pub trait FromState<'q>: Sized {
    /// The role this session type belongs to.
    type Role;

    /// Builds the state. Hidden: user code receives states from
    /// [`try_session`] and from executing primitives, never by forging.
    #[doc(hidden)]
    fn from_state(state: State<'q, Self::Role>) -> Self;
}

/// Send `L` to peer `R`, continuing as `S`.
#[must_use = "sessions must be driven to completion"]
pub struct Send<'q, Q, R, L, S> {
    state: State<'q, Q>,
    phantom: PhantomData<(R, L, S)>,
}

impl<'q, Q, R, L, S> FromState<'q> for Send<'q, Q, R, L, S> {
    type Role = Q;

    fn from_state(state: State<'q, Q>) -> Self {
        Self {
            state,
            phantom: PhantomData,
        }
    }
}

impl<'q, Q, R, L, S> Send<'q, Q, R, L, S>
where
    Q: Route<R>,
    Q::Message: Message<L>,
    S: FromState<'q, Role = Q>,
{
    /// Enqueues `label` for `R` and returns the continuation.
    ///
    /// The send commits through the transport's reserve/commit path: a
    /// ring slot is reserved and the wire message is written directly
    /// into it. In process this resolves on the first poll (sends never
    /// block — channels are the paper's unbounded asynchronous queues);
    /// only a [`NetLink`](crate::net::NetLink) with a full send window
    /// makes it wait. The future is a
    /// plain ADT rather than an `async fn` so that auto-trait (`Send`)
    /// inference never hits higher-ranked lifetime obligations when
    /// sessions are spawned.
    pub fn send(self, label: L) -> SendFuture<'q, Q, R, L, S> {
        SendFuture {
            state: Some(self.state),
            message: Some(Message::upcast(label)),
            phantom: PhantomData,
        }
    }
}

/// Future returned by [`Send::send`]; a hand-written ADT so that
/// `Send`-ness is structural.
#[must_use = "futures do nothing unless awaited"]
pub struct SendFuture<'q, Q: Role, R, L, S> {
    state: Option<State<'q, Q>>,
    /// The upcast wire message, taken by the transport on commit.
    message: Option<Q::Message>,
    phantom: PhantomData<(R, L, S)>,
}

impl<'q, Q, R, L, S> Future for SendFuture<'q, Q, R, L, S>
where
    Q: Route<R>,
    Q::Message: Message<L>,
    S: FromState<'q, Role = Q>,
{
    type Output = Result<S>;

    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut std::task::Context<'_>) -> Poll<Self::Output> {
        // No structural pinning: fields are only moved out, never pinned.
        let this = unsafe { self.get_unchecked_mut() };
        let state = this.state.as_mut().expect("polled after completion");
        match state.role.route().poll_send(cx, &mut this.message) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Err(_)) => Poll::Ready(Err(Error::ChannelClosed)),
            Poll::Ready(Ok(())) => {
                trace_event::<Q, R, L>(telemetry::trace::Kind::Send);
                let state = this.state.take().expect("checked above");
                Poll::Ready(Ok(S::from_state(state)))
            }
        }
    }
}

/// Receive `L` from peer `R`, continuing as `S`.
#[must_use = "sessions must be driven to completion"]
pub struct Receive<'q, Q, R, L, S> {
    state: State<'q, Q>,
    phantom: PhantomData<(R, L, S)>,
}

impl<'q, Q, R, L, S> FromState<'q> for Receive<'q, Q, R, L, S> {
    type Role = Q;

    fn from_state(state: State<'q, Q>) -> Self {
        Self {
            state,
            phantom: PhantomData,
        }
    }
}

impl<'q, Q, R, L, S> Receive<'q, Q, R, L, S>
where
    Q: Route<R>,
    Q::Message: Message<L>,
    S: FromState<'q, Role = Q>,
{
    /// Awaits the next message from `R` and returns it with the
    /// continuation.
    pub fn receive(self) -> ReceiveFuture<'q, Q, R, L, S> {
        ReceiveFuture {
            state: Some(self.state),
            phantom: PhantomData,
        }
    }
}

/// Future returned by [`Receive::receive`]; a hand-written ADT so that
/// `Send`-ness is structural.
#[must_use = "futures do nothing unless awaited"]
pub struct ReceiveFuture<'q, Q, R, L, S> {
    state: Option<State<'q, Q>>,
    phantom: PhantomData<(R, L, S)>,
}

impl<'q, Q, R, L, S> Future for ReceiveFuture<'q, Q, R, L, S>
where
    Q: Route<R>,
    Q::Message: Message<L>,
    S: FromState<'q, Role = Q>,
{
    type Output = Result<(L, S)>;

    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut std::task::Context<'_>) -> Poll<Self::Output> {
        // No structural pinning: all fields are Unpin.
        let this = unsafe { self.get_unchecked_mut() };
        let state = this.state.as_mut().expect("polled after completion");
        // Non-blocking fast path first, falling back to `poll_recv` only
        // on an empty queue; `poll_recv` then registers the waker (and
        // re-checks, so nothing is lost). The session layer spells the
        // two phases out so the hot path stays a plain pop even if the
        // transport's `poll_recv` changes shape.
        let message = match state.role.route().try_recv() {
            Some(message) => message,
            None => match state.role.route().poll_recv(cx) {
                Poll::Pending => return Poll::Pending,
                Poll::Ready(None) => return Poll::Ready(Err(Error::ChannelClosed)),
                Poll::Ready(Some(message)) => message,
            },
        };
        let label = match <Q::Message as Message<L>>::downcast(message) {
            Ok(label) => label,
            Err(_) => return Poll::Ready(Err(Error::UnexpectedMessage)),
        };
        trace_event::<Q, R, L>(telemetry::trace::Kind::Receive);
        let state = this.state.take().expect("checked above");
        Poll::Ready(Ok((label, S::from_state(state))))
    }
}

/// Maps one selectable label `L` to its continuation within a choice enum.
///
/// Generated by [`choice!`](crate::choice) for every variant.
pub trait Choice<'q, L> {
    /// The session state after selecting `L`.
    type Continuation: FromState<'q>;
}

/// Internal choice towards peer `R`: pick any label of the enum `C`.
#[must_use = "sessions must be driven to completion"]
pub struct Select<'q, Q, R, C> {
    state: State<'q, Q>,
    phantom: PhantomData<(R, C)>,
}

impl<'q, Q, R, C> FromState<'q> for Select<'q, Q, R, C> {
    type Role = Q;

    fn from_state(state: State<'q, Q>) -> Self {
        Self {
            state,
            phantom: PhantomData,
        }
    }
}

impl<'q, Q, R, C> Select<'q, Q, R, C>
where
    Q: Route<R>,
{
    /// Sends the chosen `label`; the continuation depends on the label's
    /// variant in `C`. Like [`Send::send`], the send goes through the
    /// transport's reserve/commit path: immediate in process, waiting
    /// only on a full `NetLink` send window.
    pub fn select<L>(self, label: L) -> SelectFuture<'q, Q, R, C, L>
    where
        Q: Role,
        Q::Message: Message<L>,
        C: Choice<'q, L>,
        C::Continuation: FromState<'q, Role = Q>,
    {
        SelectFuture {
            state: Some(self.state),
            message: Some(Message::upcast(label)),
            phantom: PhantomData,
        }
    }
}

/// Future returned by [`Select::select`]; a hand-written ADT so that
/// `Send`-ness is structural.
#[must_use = "futures do nothing unless awaited"]
pub struct SelectFuture<'q, Q: Role, R, C, L> {
    state: Option<State<'q, Q>>,
    /// The upcast wire message, taken by the transport on commit.
    message: Option<Q::Message>,
    phantom: PhantomData<(R, C, L)>,
}

impl<'q, Q, R, C, L> Future for SelectFuture<'q, Q, R, C, L>
where
    Q: Route<R>,
    Q::Message: Message<L>,
    C: Choice<'q, L>,
    C::Continuation: FromState<'q, Role = Q>,
{
    type Output = Result<C::Continuation>;

    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut std::task::Context<'_>) -> Poll<Self::Output> {
        // No structural pinning: fields are only moved out, never pinned.
        let this = unsafe { self.get_unchecked_mut() };
        let state = this.state.as_mut().expect("polled after completion");
        match state.role.route().poll_send(cx, &mut this.message) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Err(_)) => Poll::Ready(Err(Error::ChannelClosed)),
            Poll::Ready(Ok(())) => {
                trace_event::<Q, R, L>(telemetry::trace::Kind::Select);
                let state = this.state.take().expect("checked above");
                Poll::Ready(Ok(C::Continuation::from_state(state)))
            }
        }
    }
}

/// Downcast of a received wire message into a choice enum whose variants
/// pair the label with its continuation.
///
/// Generated by [`choice!`](crate::choice).
pub trait Choices<'q>: Sized {
    /// The role whose session branches here.
    type Role: Role;

    /// Matches the message against every variant; returns the message
    /// unchanged if none matched.
    #[doc(hidden)]
    fn downcast(
        state: State<'q, Self::Role>,
        message: <Self::Role as Role>::Message,
    ) -> std::result::Result<Self, <Self::Role as Role>::Message>;
}

/// External choice from peer `R`: receive whichever label the peer chose.
#[must_use = "sessions must be driven to completion"]
pub struct Branch<'q, Q, R, C> {
    state: State<'q, Q>,
    phantom: PhantomData<(R, C)>,
}

impl<'q, Q, R, C> FromState<'q> for Branch<'q, Q, R, C> {
    type Role = Q;

    fn from_state(state: State<'q, Q>) -> Self {
        Self {
            state,
            phantom: PhantomData,
        }
    }
}

impl<'q, Q, R, C> Branch<'q, Q, R, C>
where
    Q: Role + Route<R>,
    C: Choices<'q, Role = Q>,
{
    /// Awaits the peer's choice; pattern-match the returned enum to learn
    /// which label arrived and continue accordingly.
    pub fn branch(self) -> BranchFuture<'q, Q, R, C> {
        BranchFuture {
            state: Some(self.state),
            phantom: PhantomData,
        }
    }
}

/// Future returned by [`Branch::branch`].
#[must_use = "futures do nothing unless awaited"]
pub struct BranchFuture<'q, Q, R, C> {
    state: Option<State<'q, Q>>,
    phantom: PhantomData<(R, C)>,
}

impl<'q, Q, R, C> Future for BranchFuture<'q, Q, R, C>
where
    Q: Role + Route<R>,
    C: Choices<'q, Role = Q>,
{
    type Output = Result<C>;

    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut std::task::Context<'_>) -> Poll<Self::Output> {
        let this = unsafe { self.get_unchecked_mut() };
        let state = this.state.as_mut().expect("polled after completion");
        // Same non-blocking fast path as `ReceiveFuture`: pop an already
        // published choice before registering any waker.
        let message = match state.role.route().try_recv() {
            Some(message) => message,
            None => match state.role.route().poll_recv(cx) {
                Poll::Pending => return Poll::Pending,
                Poll::Ready(None) => return Poll::Ready(Err(Error::ChannelClosed)),
                Poll::Ready(Some(message)) => message,
            },
        };
        let state = this.state.take().expect("checked above");
        Poll::Ready(match C::downcast(state, message) {
            Ok(choices) => {
                // The concrete label is buried in the enum; record the
                // choice type, which names the branch point.
                trace_event::<Q, R, C>(telemetry::trace::Kind::Branch);
                Ok(choices)
            }
            Err(_) => Err(Error::UnexpectedMessage),
        })
    }
}

/// The completed session. The only way user code obtains one is by
/// executing the protocol to its end, which is how `try_session` verifies
/// linear completion.
#[must_use = "return End from the try_session closure"]
pub struct End<'q, Q> {
    state: State<'q, Q>,
}

impl<'q, Q> FromState<'q> for End<'q, Q> {
    type Role = Q;

    fn from_state(state: State<'q, Q>) -> Self {
        Self { state }
    }
}

impl<Q> End<'_, Q> {
    /// Releases the role borrow explicitly (dropping has the same effect).
    pub fn finish(self) {
        let _ = self.state;
    }
}

/// Unwrapping of a named recursion point (generated by
/// [`session!`](macro@crate::session) for `struct` definitions) into its body,
/// used at loop back-edges:
///
/// ```ignore
/// let s = t.into_session().send(Ready).await?;
/// ```
pub trait IntoSession<'q>: FromState<'q> {
    /// The unfolded session type.
    type Session: FromState<'q, Role = Self::Role>;

    /// Unfolds one level of recursion.
    fn into_session(self) -> Self::Session;
}

/// Runs a session closure for `role`, enforcing protocol completion.
///
/// The closure receives the initial state `S` and must return the final
/// [`End`] together with its result; infinite protocols coerce via Rust's
/// never type as in the paper (Listing 3, "infinite recursion").
pub async fn try_session<'q, Q, S, T, F, Fut>(role: &'q mut Q, f: F) -> Result<T>
where
    Q: Role,
    S: FromState<'q, Role = Q>,
    F: FnOnce(S) -> Fut,
    Fut: Future<Output = Result<(T, End<'q, Q>)>>,
{
    let started = if telemetry::ENABLED {
        telemetry::trace::now_ns()
    } else {
        0
    };
    let session = S::from_state(State::new(role));
    let (output, end) = f(session).await?;
    end.finish();
    if telemetry::ENABLED {
        // Spawn→teardown lifetime of one completed session run, keyed
        // by the role that drove it.
        telemetry::hist::record_session(
            Q::name(),
            telemetry::trace::now_ns().saturating_sub(started),
        );
    }
    Ok(output)
}

/// Generates session type aliases and recursion-point structs.
///
/// * `type Name<'q> = …;` — a plain alias for a finite protocol segment.
/// * `struct Name<'q> for Role = …;` — a named recursion point that may
///   reference itself inside its body; implements [`IntoSession`] for
///   unfolding at loop back-edges.
///
/// ```ignore
/// session! {
///     type Kernel<'q> = Send<'q, K, S, Ready, KernelLoop<'q>>;
///     struct KernelLoop<'q> for K = Send<'q, K, S, Ready,
///         Receive<'q, K, S, Value, Receive<'q, K, T, Ready,
///         Send<'q, K, T, Value, KernelLoop<'q>>>>>;
/// }
/// ```
#[macro_export]
macro_rules! session {
    () => {};
    (type $name:ident<$lt:lifetime> = $inner:ty ; $($rest:tt)*) => {
        /// Session type alias generated by `session!`.
        pub type $name<$lt> = $inner;
        $crate::session! { $($rest)* }
    };
    (struct $name:ident<$lt:lifetime> for $role:ty = $inner:ty ; $($rest:tt)*) => {
        /// Named recursion point generated by `session!`.
        #[must_use = "sessions must be driven to completion"]
        pub struct $name<$lt>($inner);

        impl<$lt> $crate::FromState<$lt> for $name<$lt> {
            type Role = $role;
            fn from_state(state: $crate::State<$lt, $role>) -> Self {
                Self(<$inner as $crate::FromState<$lt>>::from_state(state))
            }
        }

        impl<$lt> $crate::IntoSession<$lt> for $name<$lt> {
            type Session = $inner;
            fn into_session(self) -> $inner {
                self.0
            }
        }

        // Deliberately unconditional (no `$inner: SessionFsm` bound): a
        // conditional impl would send trait resolution through the
        // recursion cycle and overflow on choice-free loops; the body
        // itself re-proves the obligation, which terminates because it
        // passes through this very impl.
        impl<$lt> $crate::SessionFsm for $name<$lt> {
            const KEY: Option<&'static str> = Some(stringify!($name));
            fn fill(
                builder: &mut ::theory::fsm::FsmBuilder,
                visited: &mut ::std::collections::HashMap<&'static str, ::theory::fsm::StateIndex>,
                state: ::theory::fsm::StateIndex,
            ) {
                <$inner as $crate::SessionFsm>::fill(builder, visited, state);
            }
        }

        $crate::session! { $($rest)* }
    };
}

/// Generates a choice enum, its [`Choices`] downcast, per-label
/// [`Choice`] impls and the serialisation glue.
///
/// ```ignore
/// choice! {
///     enum SourceChoice<'q> for S {
///         Value(Value) => SourceLoop<'q>,
///         Stop(Stop) => End<'q, S>,
///     }
/// }
/// ```
#[macro_export]
macro_rules! choice {
    (enum $name:ident<$lt:lifetime> for $role:ident {
        $($variant:ident($label:ty) => $cont:ty),* $(,)?
    }) => {
        /// Choice enum generated by `choice!`: each variant pairs the
        /// received label with the session continuation.
        #[must_use = "sessions must be driven to completion"]
        pub enum $name<$lt> {
            $(
                #[allow(missing_docs)]
                $variant($label, $cont),
            )*
        }

        impl<$lt> $crate::Choices<$lt> for $name<$lt> {
            type Role = $role;

            fn downcast(
                state: $crate::State<$lt, $role>,
                message: <$role as $crate::Role>::Message,
            ) -> ::std::result::Result<Self, <$role as $crate::Role>::Message> {
                $(
                    let message = match <<$role as $crate::Role>::Message as
                        $crate::Message<$label>>::downcast(message)
                    {
                        Ok(label) => {
                            return Ok(Self::$variant(
                                label,
                                <$cont as $crate::FromState<$lt>>::from_state(state),
                            ))
                        }
                        Err(message) => message,
                    };
                )*
                Err(message)
            }
        }

        $(
            impl<$lt> $crate::Choice<$lt, $label> for $name<$lt> {
                type Continuation = $cont;
            }
        )*

        impl<$lt> $crate::ChoicesFsm for $name<$lt> {
            fn append_choices(
                builder: &mut ::theory::fsm::FsmBuilder,
                visited: &mut ::std::collections::HashMap<&'static str, ::theory::fsm::StateIndex>,
                from: ::theory::fsm::StateIndex,
                direction: ::theory::fsm::Direction,
                peer: &'static str,
            ) {
                $(
                    let target = <$cont as $crate::SessionFsm>::append(builder, visited);
                    builder.add_transition(
                        from,
                        ::theory::fsm::Action {
                            direction,
                            peer: ::theory::Name::new(peer),
                            label: ::theory::Name::new(
                                <$label as $crate::role::Label>::label_name(),
                            ),
                            sort: <$label as $crate::role::Label>::sort(),
                        },
                        target,
                    );
                )*
            }
        }
    };
}
