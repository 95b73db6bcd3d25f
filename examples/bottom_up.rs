//! The bottom-up workflow (paper §2.2, Fig 1b): write the Rust APIs
//! first, serialise them into FSMs, and verify the whole system with
//! k-multiparty compatibility — no global type required.
//!
//! The protocol is a tiny map/reduce: a coordinator farms a pair of jobs
//! to two workers and combines the results, with the coordinator
//! AMR-optimised to dispatch both jobs before collecting either result.
//!
//! ```text
//! cargo run --example bottom_up
//! ```

use rumpsteak::{messages, roles, session, try_session, End, Receive, Send};

pub struct Job(pub u64);
pub struct Done(pub u64);

messages! {
    enum Label { Job(Job): u64, Done(Done): u64 }
}

roles! {
    message Label;
    Coordinator { w1: WorkerOne, w2: WorkerTwo },
    WorkerOne { c: Coordinator },
    WorkerTwo { c: Coordinator },
}

session! {
    // Sequential coordinator: dispatch w1, await w1, dispatch w2, await w2.
    type Sequential<'q> = Send<'q, Coordinator, WorkerOne, Job,
        Receive<'q, Coordinator, WorkerOne, Done,
        Send<'q, Coordinator, WorkerTwo, Job,
        Receive<'q, Coordinator, WorkerTwo, Done, End<'q, Coordinator>>>>>;
    // AMR-optimised: both jobs dispatched up front, results collected after.
    type Parallel<'q> = Send<'q, Coordinator, WorkerOne, Job,
        Send<'q, Coordinator, WorkerTwo, Job,
        Receive<'q, Coordinator, WorkerOne, Done,
        Receive<'q, Coordinator, WorkerTwo, Done, End<'q, Coordinator>>>>>;
}

/// Shared worker session shape, generic over the worker role.
pub type WorkerSession<'q, W, C> = Receive<'q, W, C, Job, Send<'q, W, C, Done, End<'q, W>>>;

async fn coordinator(role: &mut Coordinator) -> rumpsteak::Result<u64> {
    try_session(role, |s: Parallel<'_>| async move {
        let s = s.send(Job(21)).await?;
        let s = s.send(Job(2)).await?;
        let (Done(a), s) = s.receive().await?;
        let (Done(b), end) = s.receive().await?;
        Ok((a * b, end))
    })
    .await
}

async fn worker_one(role: &mut WorkerOne) -> rumpsteak::Result<()> {
    try_session(
        role,
        |s: WorkerSession<'_, WorkerOne, Coordinator>| async move {
            let (Job(n), s) = s.receive().await?;
            let end = s.send(Done(n + 21)).await?; // "compute"
            Ok(((), end))
        },
    )
    .await
}

async fn worker_two(role: &mut WorkerTwo) -> rumpsteak::Result<()> {
    try_session(
        role,
        |s: WorkerSession<'_, WorkerTwo, Coordinator>| async move {
            let (Job(n), s) = s.receive().await?;
            let end = s.send(Done(n >> 1)).await?;
            Ok(((), end))
        },
    )
    .await
}

fn main() {
    // Serialise the hand-written APIs into FSMs (Fig 1b: A_i → M'_i).
    let parallel = rumpsteak::serialize::<Parallel<'static>>().unwrap();
    let w1 = rumpsteak::serialize::<WorkerSession<'static, WorkerOne, Coordinator>>().unwrap();
    let w2 = rumpsteak::serialize::<WorkerSession<'static, WorkerTwo, Coordinator>>().unwrap();
    println!(
        "serialised coordinator FSM:\n{}",
        theory::dot::to_dot(&parallel)
    );

    // Global k-MC verification of the optimised system.
    let system = kmc::System::new(vec![parallel.clone(), w1, w2]).unwrap();
    let verdict = kmc::check(&system, 1).unwrap();
    println!(
        "system is 1-multiparty compatible ({} configurations explored)",
        verdict.configurations
    );

    // The hybrid view (§2.3): the parallel coordinator is also an
    // asynchronous subtype of the sequential one — the same conclusion
    // reached locally.
    let sequential = rumpsteak::serialize::<Sequential<'static>>().unwrap();
    assert!(subtyping::is_subtype(&parallel, &sequential, 4));
    println!("parallel coordinator <= sequential coordinator: OK");

    // And the broken variant — collecting w2's result before dispatching
    // its job — is caught by k-MC as a deadlock.
    let broken = theory::fsm::from_local(
        &"Coordinator".into(),
        &theory::local::parse(
            "WorkerOne!Job(u64) . WorkerTwo?Done(u64) . WorkerTwo!Job(u64) . WorkerOne?Done(u64) . end",
        )
        .unwrap(),
    )
    .unwrap();
    let w1 = rumpsteak::serialize::<WorkerSession<'static, WorkerOne, Coordinator>>().unwrap();
    let w2 = rumpsteak::serialize::<WorkerSession<'static, WorkerTwo, Coordinator>>().unwrap();
    let bad_system = kmc::System::new(vec![broken, w1, w2]).unwrap();
    assert!(kmc::check(&bad_system, 1).is_err());
    println!("deadlocking variant rejected by k-MC: OK");

    // Run the verified system.
    let rt = executor::Runtime::with_default_threads();
    let (mut c, mut w1, mut w2) = connect();
    let coordinator_task = rt.spawn(async move { coordinator(&mut c).await });
    let w1_task = rt.spawn(async move { worker_one(&mut w1).await });
    let w2_task = rt.spawn(async move { worker_two(&mut w2).await });
    let result = rt.block_on(coordinator_task).unwrap().unwrap();
    rt.block_on(w1_task).unwrap().unwrap();
    rt.block_on(w2_task).unwrap().unwrap();
    println!("combined result: {result}");
    assert_eq!(result, 42);
}
