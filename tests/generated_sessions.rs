//! Integration test for the codegen round trip (paper Fig 1a, top-down):
//!
//! * the golden modules generated by `rumpsteak-gen` for the Streaming,
//!   Double-Buffering and Ring protocols **compile** against the
//!   `rumpsteak` runtime (they are included below as modules),
//! * serialising the generated session types back into FSMs (the
//!   bottom-up workflow, §2.2) yields exactly the FSMs projected from the
//!   Scribble source — the two workflows meet in the middle,
//! * the generated Streaming API **runs to completion** on the
//!   work-stealing executor.

use codegen::naming::pascal_case;
use rumpsteak::{try_session, IntoSession};
use theory::fsm::from_local;
use theory::local::{LocalBranch, LocalType};
use theory::Name;

#[allow(dead_code)]
#[rustfmt::skip]
#[path = "../crates/codegen/tests/goldens/streaming.rs"]
mod streaming;

#[allow(dead_code)]
#[rustfmt::skip]
#[path = "../crates/codegen/tests/goldens/double_buffering.rs"]
mod double_buffering;

#[allow(dead_code)]
#[rustfmt::skip]
#[path = "../crates/codegen/tests/goldens/ring.rs"]
mod ring;

// ---------------------------------------------------------------------
// Serialize-equivalence: generated type ⇄ projection
// ---------------------------------------------------------------------

/// Renames roles and labels of a projection the way the generator mangles
/// them, so projected and serialized FSMs can be compared exactly.
fn pascalize(local: &LocalType) -> LocalType {
    fn branch(b: &LocalBranch) -> LocalBranch {
        LocalBranch {
            label: Name::new(pascal_case(b.label.as_str())),
            sort: b.sort,
            continuation: pascalize(&b.continuation),
        }
    }
    match local {
        LocalType::End => LocalType::End,
        LocalType::Var(v) => LocalType::Var(*v),
        LocalType::Rec { var, body } => LocalType::Rec {
            var: *var,
            body: Box::new(pascalize(body)),
        },
        LocalType::Select { peer, branches } => LocalType::Select {
            peer: Name::new(pascal_case(peer.as_str())),
            branches: branches.iter().map(branch).collect(),
        },
        LocalType::Branch { peer, branches } => LocalType::Branch {
            peer: Name::new(pascal_case(peer.as_str())),
            branches: branches.iter().map(branch).collect(),
        },
    }
}

fn projected_fsm(source: &str, role: &str) -> theory::Fsm {
    let analysis = codegen::analyse(source).expect("protocol analyses");
    let local = analysis
        .locals
        .iter()
        .find(|(r, _)| r.as_str() == role)
        .map(|(_, local)| local)
        .expect("role exists");
    from_local(&Name::new(pascal_case(role)), &pascalize(local)).expect("convertible")
}

#[test]
fn streaming_serialization_equals_projection() {
    let source = include_str!("../crates/codegen/tests/protocols/streaming.scr");
    let serialized_s = rumpsteak::serialize::<streaming::SSession<'static>>().unwrap();
    let serialized_t = rumpsteak::serialize::<streaming::TSession<'static>>().unwrap();
    assert_eq!(serialized_s, projected_fsm(source, "s"));
    assert_eq!(serialized_t, projected_fsm(source, "t"));
}

#[test]
fn double_buffering_serialization_equals_projection() {
    let source = include_str!("../crates/codegen/tests/protocols/double_buffering.scr");
    for (role, serialized) in [
        (
            "s",
            rumpsteak::serialize::<double_buffering::SSession<'static>>().unwrap(),
        ),
        (
            "k",
            rumpsteak::serialize::<double_buffering::KSession<'static>>().unwrap(),
        ),
        (
            "t",
            rumpsteak::serialize::<double_buffering::TSession<'static>>().unwrap(),
        ),
    ] {
        let projected = projected_fsm(source, role);
        assert_eq!(serialized, projected, "role {role}");
        // Equivalence also holds semantically, both ways.
        assert!(subtyping::is_subtype(&serialized, &projected, 4));
        assert!(subtyping::is_subtype(&projected, &serialized, 4));
    }
}

#[test]
fn ring_serialization_equals_projection() {
    let source = include_str!("../crates/codegen/tests/protocols/ring.scr");
    assert_eq!(
        rumpsteak::serialize::<ring::ASession<'static>>().unwrap(),
        projected_fsm(source, "a")
    );
    assert_eq!(
        rumpsteak::serialize::<ring::BSession<'static>>().unwrap(),
        projected_fsm(source, "b")
    );
    assert_eq!(
        rumpsteak::serialize::<ring::CSession<'static>>().unwrap(),
        projected_fsm(source, "c")
    );
}

// ---------------------------------------------------------------------
// The generated Streaming API runs on the executor
// ---------------------------------------------------------------------

async fn source(role: &mut streaming::S, values: i32) -> rumpsteak::Result<()> {
    try_session(role, |mut s: streaming::SSession<'_>| async move {
        let mut sent = 0;
        loop {
            let (streaming::Ready, choice) = s.into_session().receive().await?;
            if sent == values {
                let end = choice.select(streaming::Stop).await?;
                return Ok(((), end));
            }
            s = choice.select(streaming::Value(sent * 3)).await?;
            sent += 1;
        }
    })
    .await
}

async fn sink(role: &mut streaming::T) -> rumpsteak::Result<Vec<i32>> {
    try_session(role, |mut s: streaming::TSession<'_>| async move {
        let mut received = Vec::new();
        loop {
            let branch = s.into_session().send(streaming::Ready).await?;
            match branch.branch().await? {
                streaming::TChoice::Value(streaming::Value(v), next) => {
                    received.push(v);
                    s = next;
                }
                streaming::TChoice::Stop(streaming::Stop, end) => return Ok((received, end)),
            }
        }
    })
    .await
}

#[test]
fn generated_streaming_runs_to_completion() {
    let rt = executor::Runtime::new(2);
    let (mut s, mut t) = streaming::connect();
    let source_task = rt.spawn(async move { source(&mut s, 16).await });
    let sink_task = rt.spawn(async move { sink(&mut t).await });
    rt.block_on(source_task).unwrap().unwrap();
    let received = rt.block_on(sink_task).unwrap().unwrap();
    assert_eq!(received, (0..16).map(|i| i * 3).collect::<Vec<_>>());
}
