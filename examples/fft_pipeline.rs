//! An FFT pipeline over session types (a compact cousin of the paper's
//! 8-process FFT benchmark, §4.1).
//!
//! A producer streams rows of samples to a worker, which answers with
//! each row's FFT. The exchange is AMR-optimised: the producer keeps one
//! extra row in flight instead of waiting for each spectrum before
//! sending the next — computation (the worker's FFT) overlaps with
//! communication (the producer preparing the next row). The optimised
//! system is verified bottom-up with k-MC.
//!
//! ```text
//! cargo run --example fft_pipeline
//! ```

use fft::{Complex, Planner};
use rumpsteak::{
    choice, messages, roles, session, try_session, Branch, End, IntoSession, Receive, Select, Send,
};

const FFT_SIZE: usize = 64;
const ROWS: usize = 8;

pub struct Row(pub Vec<Complex>);
pub struct Spectrum(pub Vec<Complex>);
pub struct DoneMsg;

messages! {
    enum Label { Row(Row): row, Spectrum(Spectrum): spectrum, DoneMsg(DoneMsg) }
}

roles! {
    message Label;
    Producer { w: Worker },
    Worker { p: Producer },
}

session! {
    // Optimised producer: prime the pipeline with one row, then per
    // iteration send the next row *before* receiving the previous
    // spectrum; on stop, drain the final outstanding spectrum.
    type ProducerStart<'q> = Send<'q, Producer, Worker, Row, ProducerLoop<'q>>;
    struct ProducerLoop<'q> for Producer = Select<'q, Producer, Worker, ProducerChoice<'q>>;
    struct WorkerLoop<'q> for Worker = Branch<'q, Worker, Producer, WorkerChoice<'q>>;
}

choice! {
    enum ProducerChoice<'q> for Producer {
        Row(Row) => Receive<'q, Producer, Worker, Spectrum, ProducerLoop<'q>>,
        DoneMsg(DoneMsg) => Receive<'q, Producer, Worker, Spectrum, End<'q, Producer>>,
    }
}

choice! {
    enum WorkerChoice<'q> for Worker {
        Row(Row) => Send<'q, Worker, Producer, Spectrum, WorkerLoop<'q>>,
        DoneMsg(DoneMsg) => End<'q, Worker>,
    }
}

fn make_rows() -> Vec<Vec<Complex>> {
    (0..ROWS)
        .map(|r| {
            (0..FFT_SIZE)
                .map(|i| Complex::new(((r * FFT_SIZE + i) % 13) as f64, 0.0))
                .collect()
        })
        .collect()
}

async fn producer(role: &mut Producer) -> rumpsteak::Result<Vec<Vec<Complex>>> {
    let mut rows = make_rows().into_iter();
    try_session(role, |s: ProducerStart<'_>| async move {
        let mut spectra = Vec::new();
        // Prime the pipeline with the first row.
        let mut s = s.send(Row(rows.next().expect("ROWS > 0"))).await?;
        // Keep one row in flight while collecting spectra.
        for row in rows {
            let pending = s.into_session().select(Row(row)).await?;
            let (Spectrum(spectrum), looped) = pending.receive().await?;
            spectra.push(spectrum);
            s = looped;
        }
        // Stop and drain the final outstanding spectrum.
        let drain = s.into_session().select(DoneMsg).await?;
        let (Spectrum(spectrum), end) = drain.receive().await?;
        spectra.push(spectrum);
        Ok((spectra, end))
    })
    .await
}

async fn worker(role: &mut Worker) -> rumpsteak::Result<usize> {
    let planner = Planner::new(FFT_SIZE);
    try_session(role, |mut s: WorkerLoop<'_>| async move {
        let mut served = 0;
        loop {
            match s.into_session().branch().await? {
                WorkerChoice::Row(Row(mut row), reply) => {
                    planner.fft(&mut row);
                    s = reply.send(Spectrum(row)).await?;
                    served += 1;
                }
                WorkerChoice::DoneMsg(DoneMsg, end) => return Ok((served, end)),
            }
        }
    })
    .await
}

fn main() {
    // Bottom-up verification (paper §2.2): serialise both executable
    // session types and check 2-multiparty compatibility.
    let system = kmc::System::new(vec![
        rumpsteak::serialize::<ProducerStart<'static>>().unwrap(),
        rumpsteak::serialize::<WorkerLoop<'static>>().unwrap(),
    ])
    .unwrap();
    let verdict = kmc::check(&system, 2).unwrap();
    println!(
        "pipelined FFT protocol verified: {} configurations explored",
        verdict.configurations
    );

    // Run the pipeline.
    let rt = executor::Runtime::with_default_threads();
    let (mut p, mut w) = connect();
    let producer_task = rt.spawn(async move { producer(&mut p).await });
    let worker_task = rt.spawn(async move { worker(&mut w).await });
    let spectra = rt.block_on(producer_task).unwrap().unwrap();
    let served = rt.block_on(worker_task).unwrap().unwrap();
    assert_eq!(served, ROWS);
    assert_eq!(spectra.len(), ROWS);

    // Cross-check against the sequential planner.
    let planner = Planner::new(FFT_SIZE);
    for (input, spectrum) in make_rows().into_iter().zip(&spectra) {
        let mut expected = input;
        planner.fft(&mut expected);
        for (x, y) in expected.iter().zip(spectrum) {
            assert!((x.re - y.re).abs() < 1e-9 && (x.im - y.im).abs() < 1e-9);
        }
    }
    println!("all {ROWS} spectra match the sequential FFT: OK");
}
