//! The token ring, generated: the paper's top-down workflow (Fig 1a)
//! end-to-end with `rumpsteak-gen`.
//!
//! 1. The Scribble protocol below is parsed, projected and k-MC-verified
//!    through the `codegen` pipeline at startup.
//! 2. The `ring` module is the **unedited output** of
//!    `rumpsteak-gen crates/codegen/tests/protocols/ring.scr` — message
//!    structs, the channel mesh and one session type per role — loaded
//!    from its golden file.
//! 3. The three processes run the ring on the work-stealing executor.
//!
//! ```text
//! cargo run --example generated_ring
//! ```

use rumpsteak::{try_session, IntoSession};

const SCRIBBLE: &str = include_str!("../crates/codegen/tests/protocols/ring.scr");
const GOLDEN: &str = include_str!("../crates/codegen/tests/goldens/ring.rs");

#[allow(dead_code)]
#[rustfmt::skip]
#[path = "../crates/codegen/tests/goldens/ring.rs"]
mod ring;

const ROUNDS: u64 = 100;

/// The initiator: sends the token, receives it back incremented by the
/// other two parties, and decides when to stop the ring.
async fn run_a(role: &mut ring::A) -> rumpsteak::Result<u64> {
    try_session(role, |mut s: ring::ASession<'_>| async move {
        let mut token = 1u64;
        for _ in 0..ROUNDS {
            let receive = s.into_session().select(ring::Token(token)).await?;
            let (ring::Token(incoming), next) = receive.receive().await?;
            token = incoming + 1;
            s = next;
        }
        let end = s.into_session().select(ring::Stop).await?;
        Ok((token, end))
    })
    .await
}

/// A forwarder: increments and passes on tokens until the stop signal
/// arrives, which it forwards too.
async fn run_b(role: &mut ring::B) -> rumpsteak::Result<u64> {
    try_session(role, |mut s: ring::BSession<'_>| async move {
        let mut forwarded = 0u64;
        loop {
            match s.into_session().branch().await? {
                ring::BChoice::Token(ring::Token(v), send) => {
                    s = send.send(ring::Token(v + 1)).await?;
                    forwarded += 1;
                }
                ring::BChoice::Stop(ring::Stop, send) => {
                    let end = send.send(ring::Stop).await?;
                    return Ok((forwarded, end));
                }
            }
        }
    })
    .await
}

/// The last forwarder: hands tokens back to the initiator; the stop
/// signal ends its session directly.
async fn run_c(role: &mut ring::C) -> rumpsteak::Result<u64> {
    try_session(role, |mut s: ring::CSession<'_>| async move {
        let mut forwarded = 0u64;
        loop {
            match s.into_session().branch().await? {
                ring::CChoice::Token(ring::Token(v), send) => {
                    s = send.send(ring::Token(v + 1)).await?;
                    forwarded += 1;
                }
                ring::CChoice::Stop(ring::Stop, end) => return Ok((forwarded, end)),
            }
        }
    })
    .await
}

fn main() {
    // Top-down workflow, step 1: parse, project, verify.
    let analysis = codegen::analyse(SCRIBBLE).expect("well-formed Scribble");
    let report = codegen::check(&analysis, 2).expect("k-MC safe");
    println!(
        "protocol `{}` verified: {} configurations explored",
        analysis.protocol.name, report.configurations
    );

    // Step 2: the `ring` module is the golden; assert it is still the
    // generator's output for this protocol.
    let generated = codegen::rust_module(&analysis).expect("generates");
    assert_eq!(generated, GOLDEN, "golden out of sync with ring.scr");

    // Step 3: run the generated API on the executor.
    let rt = executor::Runtime::with_default_threads();
    let (mut a, mut b, mut c) = ring::connect();
    let ta = rt.spawn(async move { run_a(&mut a).await });
    let tb = rt.spawn(async move { run_b(&mut b).await });
    let tc = rt.spawn(async move { run_c(&mut c).await });
    let final_token = rt.block_on(ta).unwrap().unwrap();
    let b_forwarded = rt.block_on(tb).unwrap().unwrap();
    let c_forwarded = rt.block_on(tc).unwrap().unwrap();

    // Each round adds 1 at b, 1 at c and 1 back at a.
    assert_eq!(final_token, 1 + 3 * ROUNDS);
    assert_eq!(b_forwarded, ROUNDS);
    assert_eq!(c_forwarded, ROUNDS);
    println!("ring completed {ROUNDS} rounds: final token {final_token}");
}
