//! Per-worker scheduler counters and their snapshots.
//!
//! The executor owns one cache-padded [`Counters`] block per worker (plus
//! one "external" block for operations performed off the pool, e.g.
//! spawns from the main thread). Workers increment their own block with
//! relaxed RMWs — no sharing, no ordering, no measurable cost on the hot
//! path — and `Runtime::telemetry()` folds the blocks into a
//! [`RuntimeSnapshot`] on demand.
//!
//! No counter stands for a lost wake: a worker parks until it is woken,
//! with no timeout, so a lost wake hangs the pool and a test's watchdog
//! reports it by name.

use crate::Counter;

/// One worker's counter block. Field meanings:
///
/// * `spawns` — tasks spawned from this worker (`schedule_new`),
/// * `completions` — task futures driven to completion on this worker,
/// * `polls` — `Task::run` invocations (every poll of a scheduled task),
/// * `lifo_hits` — polls served from the LIFO wake slot (direct handoff),
/// * `local_pops` — polls served from the worker's own FIFO run queue,
/// * `injector_pops` — polls served by an injector batch takeover,
/// * `sibling_steals` — polls served by stealing from a sibling's queue,
/// * `parks` / `unparks` — sleep cycles entered / wake-ups claimed,
/// * `driver_parks` — parks spent in `epoll_wait` holding the I/O
///   driver baton.
///
/// Every poll is served from exactly one of the four queue sources, so
/// `polls == lifo_hits + local_pops + injector_pops + sibling_steals`
/// holds exactly once the pool is quiescent (the telemetry stress test
/// pins this invariant).
#[derive(Default)]
pub struct Counters {
    /// Tasks spawned from this worker.
    pub spawns: Counter,
    /// Task futures completed on this worker.
    pub completions: Counter,
    /// Scheduled-task polls executed on this worker.
    pub polls: Counter,
    /// Polls served from the LIFO wake slot.
    pub lifo_hits: Counter,
    /// Polls served from the local FIFO run queue.
    pub local_pops: Counter,
    /// Polls served by an injector batch takeover.
    pub injector_pops: Counter,
    /// Polls served by stealing from a sibling worker.
    pub sibling_steals: Counter,
    /// Times this worker parked.
    pub parks: Counter,
    /// Wake-ups claimed for this worker by the O(1) wake protocol.
    pub unparks: Counter,
    /// Parks spent in `epoll_wait`, holding the I/O driver baton.
    pub driver_parks: Counter,
}

impl Counters {
    /// Reads the block into a plain-integer snapshot.
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            spawns: self.spawns.get(),
            completions: self.completions.get(),
            polls: self.polls.get(),
            lifo_hits: self.lifo_hits.get(),
            local_pops: self.local_pops.get(),
            injector_pops: self.injector_pops.get(),
            sibling_steals: self.sibling_steals.get(),
            parks: self.parks.get(),
            unparks: self.unparks.get(),
            driver_parks: self.driver_parks.get(),
        }
    }
}

/// Plain-integer copy of one [`Counters`] block. Always compiled (all
/// zeros in disabled builds) so rendering code needs no `#[cfg]`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// See [`Counters::spawns`].
    pub spawns: u64,
    /// See [`Counters::completions`].
    pub completions: u64,
    /// See [`Counters::polls`].
    pub polls: u64,
    /// See [`Counters::lifo_hits`].
    pub lifo_hits: u64,
    /// See [`Counters::local_pops`].
    pub local_pops: u64,
    /// See [`Counters::injector_pops`].
    pub injector_pops: u64,
    /// See [`Counters::sibling_steals`].
    pub sibling_steals: u64,
    /// See [`Counters::parks`].
    pub parks: u64,
    /// See [`Counters::unparks`].
    pub unparks: u64,
    /// See [`Counters::driver_parks`].
    pub driver_parks: u64,
}

impl CountersSnapshot {
    /// Polls served from any queue source; equals [`Self::polls`] once
    /// the pool is quiescent.
    pub fn pops(&self) -> u64 {
        self.lifo_hits + self.local_pops + self.injector_pops + self.sibling_steals
    }

    /// Field-wise sum.
    pub fn merge(&self, other: &CountersSnapshot) -> CountersSnapshot {
        CountersSnapshot {
            spawns: self.spawns + other.spawns,
            completions: self.completions + other.completions,
            polls: self.polls + other.polls,
            lifo_hits: self.lifo_hits + other.lifo_hits,
            local_pops: self.local_pops + other.local_pops,
            injector_pops: self.injector_pops + other.injector_pops,
            sibling_steals: self.sibling_steals + other.sibling_steals,
            parks: self.parks + other.parks,
            unparks: self.unparks + other.unparks,
            driver_parks: self.driver_parks + other.driver_parks,
        }
    }
}

/// Aggregated scheduler telemetry for one runtime: one snapshot per
/// worker plus the external block.
#[derive(Clone, Debug, Default)]
pub struct RuntimeSnapshot {
    /// Per-worker snapshots, indexed like the worker threads.
    pub workers: Vec<CountersSnapshot>,
    /// Operations performed from threads outside the pool (spawns and
    /// wakes routed through the injector by non-workers).
    pub external: CountersSnapshot,
}

impl RuntimeSnapshot {
    /// Field-wise total over all workers and the external block.
    pub fn total(&self) -> CountersSnapshot {
        self.workers
            .iter()
            .fold(self.external, |acc, w| acc.merge(w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_counters() {
        let counters = Counters::default();
        counters.spawns.add(3);
        counters.lifo_hits.incr();
        counters.local_pops.add(2);
        let snap = counters.snapshot();
        if crate::ENABLED {
            assert_eq!(snap.spawns, 3);
            assert_eq!(snap.pops(), 3);
        } else {
            assert_eq!(snap, CountersSnapshot::default());
        }
    }

    #[test]
    fn totals_merge_workers_and_external() {
        let mut snapshot = RuntimeSnapshot::default();
        snapshot.workers.push(CountersSnapshot {
            spawns: 1,
            ..Default::default()
        });
        snapshot.workers.push(CountersSnapshot {
            spawns: 2,
            parks: 5,
            ..Default::default()
        });
        snapshot.external.spawns = 4;
        let total = snapshot.total();
        assert_eq!(total.spawns, 7);
        assert_eq!(total.parks, 5);
    }
}
