//! An empty placeholder. This crate once stood in for `crossbeam`'s
//! work-stealing deque; the executor's run queues are now its own
//! `deque::Queue`, so nothing here is used. It stays a workspace member
//! only because `benchmark/Cargo.lock` records the `executor -> crossbeam`
//! and `crossbeam -> parking_lot` edges, and removing the crate rewrites
//! that lock file; it goes when the benchmark is next changed.
