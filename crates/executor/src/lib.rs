//! A small, self-contained asynchronous runtime.
//!
//! This crate is the substrate that stands in for Tokio in the Rumpsteak
//! reproduction. It provides exactly the features the session-typed runtime
//! in the paper relies on:
//!
//! * lightweight **tasks** multiplexed over a pool of worker threads
//!   ([`Runtime::spawn`]); a task poll takes no lock and no reference
//!   count of its own,
//! * a **work-stealing scheduler** (one local run queue per worker plus a
//!   global injector, in the style of Tokio/Rayon; each queue a
//!   mutex-guarded `VecDeque`),
//! * waker-based **asynchronous channels** ([`channel`]) used as the session
//!   transport: lock-free SPSC rings behind the bidirectional role-to-role
//!   links and an atomic oneshot rendezvous (also behind every
//!   [`JoinHandle`]); no channel takes a lock,
//! * [`block_on`] to drive a root future from a synchronous context — a
//!   plain park loop that starts no threads — and [`yield_now`] for
//!   cooperative rescheduling,
//! * on Linux, [`io`]: readiness notification for non-blocking
//!   descriptors, with no thread of its own. One `epoll` instance per
//!   process; workers that run out of local work collect its edges
//!   before they search or park, and the one parked thread holding the
//!   driver baton waits for them in `epoll_wait` instead of sleeping.
//!   Workers and [`block_on`] park through one parker. `epoll` is
//!   reached through three `extern "C"` declarations (std already links
//!   the C library); the three call sites — `epoll_create1`,
//!   `epoll_wait` and `epoll_ctl` — are the module's only `unsafe`, each
//!   with its `// Safety:` argument.
//!
//! # Example
//!
//! ```
//! use executor::{Runtime, channel::spsc};
//!
//! let rt = Runtime::new(2);
//! let (mut tx, mut rx) = spsc::<u32>();
//! let handle = rt.spawn(async move {
//!     let mut sum = 0;
//!     while let Some(v) = rx.recv().await {
//!         sum += v;
//!     }
//!     sum
//! });
//! for i in 0..10 {
//!     tx.send(i).unwrap();
//! }
//! drop(tx);
//! assert_eq!(rt.block_on(handle).unwrap(), 45);
//! ```

pub mod channel;
#[doc(hidden)]
pub mod deque;
#[cfg(target_os = "linux")]
pub mod io;
mod join;
mod park;
mod runtime;
mod task;
mod yield_now;

pub use join::{JoinError, JoinHandle};
pub use park::block_on;
pub use runtime::Runtime;
pub use yield_now::yield_now;
