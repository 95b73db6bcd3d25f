//! The `fig6 --json` artifact as Rust types.
//!
//! `fig6` builds an [`Artifact`] and writes its one JSON form;
//! `bench-check` and the tests decode the same type, so the producer and
//! every consumer agree on the schema by construction. The `telemetry`
//! section mirrors the `telemetry` crate's snapshots (which stays
//! dependency-free and so cannot carry the encoding itself).

use std::collections::BTreeMap;

use dep_telemetry as telemetry;
use theory::json_record;

json_record! {
    /// One `fig6 --json` run.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Artifact {
        /// Always `"fig6"`.
        pub bench: String,
        /// `std::thread::available_parallelism` of the measuring host.
        pub host_parallelism: u64,
        /// Unit of every row's `ns_per_op`: `"ns/op"`.
        pub unit: String,
        /// One row per protocol × worker-thread count.
        pub results: Vec<Row>,
        /// Runtime counters of the sweep; present exactly when the
        /// build is instrumented (`--features telemetry`).
        pub telemetry: Option<Telemetry>,
    }
}

json_record! {
    /// One measured cell of the sweep.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Row {
        /// Workload name.
        pub protocol: String,
        /// Worker threads of the runtime it ran on.
        pub threads: u64,
        /// Workload size, by parameter name.
        pub params: BTreeMap<String, u64>,
        /// Operations one run performs.
        pub ops: u64,
        /// Mean nanoseconds per operation, to one decimal.
        pub ns_per_op: f64,
    }
}

json_record! {
    /// The `telemetry` section of an instrumented sweep.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Telemetry {
        /// Scheduler counters, one entry per swept thread count.
        pub scheduler: Vec<SchedulerSweep>,
        /// Per directed link, in-process ring or socket: occupancy and
        /// window next to its k-MC bound, traffic and latency.
        pub channels: Vec<ChannelRow>,
        /// Spawn-to-teardown lifetimes per role.
        pub sessions: Vec<SessionRow>,
    }
}

json_record! {
    /// Scheduler counters of one runtime of the sweep.
    #[derive(Clone, Debug, PartialEq)]
    pub struct SchedulerSweep {
        /// Worker threads of the runtime.
        pub threads: u64,
        /// One counter block per worker.
        pub workers: Vec<Counters>,
        /// Operations performed from threads outside the pool.
        pub external: Counters,
    }
}

json_record! {
    /// `telemetry::scheduler::CountersSnapshot`, field for field.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Counters {
        pub spawns: u64,
        pub completions: u64,
        pub polls: u64,
        pub lifo_hits: u64,
        pub local_pops: u64,
        pub injector_pops: u64,
        pub sibling_steals: u64,
        pub parks: u64,
        pub unparks: u64,
        pub driver_parks: u64,
        pub timeout_wakes_with_work: u64,
    }
}

json_record! {
    /// `telemetry::channel::LinkSnapshot` with its latency histogram
    /// condensed to quantiles.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ChannelRow {
        pub from: String,
        pub to: String,
        pub high_watermark: u64,
        pub kmc_bound: Option<u64>,
        pub window: Option<u64>,
        pub grows: u64,
        pub waker_retries: u64,
        pub sends: u64,
        pub wakes: u64,
        pub batches: u64,
        pub batched_messages: u64,
        pub received: u64,
        pub bytes_sent: u64,
        pub bytes_received: u64,
        pub window_stalls: u64,
        pub reconnects: u64,
        pub instances: u64,
        pub stamp_misses: u64,
        /// Send→recv latency; `None` when the link recorded no samples.
        pub latency: Option<Quantiles>,
    }
}

json_record! {
    /// Session lifetimes of one role.
    #[derive(Clone, Debug, PartialEq)]
    pub struct SessionRow {
        pub role: String,
        /// Spawn-to-teardown nanoseconds; `None` without samples.
        pub lifetime_ns: Option<Quantiles>,
    }
}

json_record! {
    /// A non-empty latency histogram at fixed quantiles.
    #[derive(Clone, Debug, PartialEq)]
    pub struct Quantiles {
        pub count: u64,
        pub p50: u64,
        pub p90: u64,
        pub p99: u64,
        pub p999: u64,
        pub max: u64,
    }
}

impl Quantiles {
    /// Condenses a histogram; `None` when it recorded nothing.
    pub fn of(hist: &telemetry::hist::HistogramSnapshot) -> Option<Quantiles> {
        (!hist.is_empty()).then(|| Quantiles {
            count: hist.count,
            p50: hist.p50(),
            p90: hist.p90(),
            p99: hist.p99(),
            p999: hist.p999(),
            max: hist.max,
        })
    }
}

/// `From<&$source> for $row`: the listed fields copied as they are, the
/// rest given explicitly in terms of the `$snapshot` binding.
macro_rules! mirror {
    ($row:ident from $source:ty: |$snapshot:ident| { $($copied:ident),*; $($rest:tt)* }) => {
        impl From<&$source> for $row {
            fn from($snapshot: &$source) -> Self {
                $row { $($copied: $snapshot.$copied,)* $($rest)* }
            }
        }
    };
}

mirror!(Counters from telemetry::scheduler::CountersSnapshot: |s| {
    spawns, completions, polls, lifo_hits, local_pops, injector_pops, sibling_steals, parks,
    unparks, driver_parks, timeout_wakes_with_work;
});

mirror!(ChannelRow from telemetry::channel::LinkSnapshot: |link| {
    high_watermark, kmc_bound, window, grows, waker_retries, sends, wakes, batches,
    batched_messages, received, bytes_sent, bytes_received, window_stalls, reconnects,
    instances, stamp_misses;
    from: link.from.to_owned(),
    to: link.to.to_owned(),
    latency: Quantiles::of(&link.latency),
});

impl Telemetry {
    /// Snapshots the global link and session registries next to the
    /// per-runtime scheduler counters the sweep collected.
    pub fn snapshot(scheduler: &[(usize, telemetry::scheduler::RuntimeSnapshot)]) -> Telemetry {
        Telemetry {
            scheduler: scheduler
                .iter()
                .map(|(threads, snapshot)| SchedulerSweep {
                    threads: *threads as u64,
                    workers: snapshot.workers.iter().map(Counters::from).collect(),
                    external: Counters::from(&snapshot.external),
                })
                .collect(),
            channels: telemetry::channel::snapshot()
                .iter()
                .map(ChannelRow::from)
                .collect(),
            sessions: telemetry::hist::sessions_snapshot()
                .iter()
                .map(|(role, hist)| SessionRow {
                    role: (*role).to_owned(),
                    lifetime_ns: Quantiles::of(hist),
                })
                .collect(),
        }
    }
}
