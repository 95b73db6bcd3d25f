// Generated by `rumpsteak-gen` from global protocol `Swap`. Do not edit.
//
// Projections:
//   a: b!x.b!y.b?u.b?v.end
//   b: a!u.a!v.a?x.a?y.end

use rumpsteak::{messages, roles, session, End, Receive, Send};

/// Label `x`.
pub struct X;
/// Label `u`.
pub struct U;
/// Label `y`.
pub struct Y;
/// Label `v`.
pub struct V;

messages! {
    enum Label {
        X(X),
        U(U),
        Y(Y),
        V(V),
    }
}

roles! {
    message Label;
    bounds { A -> B: 2, B -> A: 2 };
    A { b: B },
    B { a: A },
}

session! {
    type ASession<'q> = Send<'q, A, B, X, Send<'q, A, B, Y, Receive<'q, A, B, U, Receive<'q, A, B, V, End<'q, A>>>>>;
    type BSession<'q> = Send<'q, B, A, U, Send<'q, B, A, V, Receive<'q, B, A, X, Receive<'q, B, A, Y, End<'q, B>>>>>;
}
