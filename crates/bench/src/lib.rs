//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (§4):
//!
//! * [`protocols`] — runnable implementations of the Fig 6 workloads
//!   (streaming, double buffering, FFT) in Rumpsteak, Sesh-style,
//!   MultiCrusty-style and Ferrite-style frameworks,
//! * [`verification`] — generators for the Fig 7 workloads (streaming
//!   unrolls, nested choice, ring, k-buffering) targeting the subtyping
//!   algorithm, k-MC and SoundBinary,
//! * [`transport`] — networked-transport workloads (framed loopback
//!   TCP/UDS ping-pong and k-bounded burst) driving the distributed
//!   backend's wire path,
//! * [`trace`] — Chrome trace-event rendering for `rumpsteak-trace`,
//! * [`table1`] — the expressiveness matrix of Table 1,
//! * [`timing`] — the harness's one wall-clock timing loop.
//!
//! The `fig6`, `fig7` and `table1` binaries print the corresponding
//! tables; `rumpsteak-trace` writes and merges Chrome traces.
//! None of this carries a performance claim: those belong to
//! `BENCHMARK.json` and the standalone `benchmark/` package.
//!
//! The harness needs Linux: [`transport`] drives the socket half of
//! `rumpsteak::net`, which sits on `epoll`.

pub mod protocols;
pub mod table1;
pub mod timing;
pub mod trace;
pub mod transport;
pub mod verification;
