//! The seven workloads and what they share: run configuration, the
//! outcome a run reports, repeated set-up, and process-level sampling.

pub mod churn;
pub mod stream;
pub mod verify;

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::path::PathBuf;
use std::time::Instant;

use crate::metrics;
use crate::stats::{fast_rate, summarise, Summary};
use crate::trace::{Totals, Trace};
use crate::{alloc, procfs};

/// Set-ups performed per run; `setup_s` is their median and the last
/// one's context is the one measured. (With five, the median of two sets
/// of ten runs still moved 15 % on `stream_tcp` and `verify_amr`.)
pub const SETUPS: usize = 9;

pub struct Cfg {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub out_dir: PathBuf,
}

/// What one run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub input_hash: u64,
    /// Values of metrics declared in [`metrics`], by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Quartiles and sample counts behind a metric, for the text report.
    pub summaries: BTreeMap<&'static str, Summary>,
    /// Diagnostics that are deliberately not declared metrics (printed
    /// as `workload name value unit` like everything else).
    pub extras: Vec<(&'static str, f64, &'static str)>,
    pub trace: Option<Trace>,
}

impl Outcome {
    /// Sets a declared metric.
    ///
    /// # Panics
    /// Panics on a name [`metrics`] does not declare: a typo must not
    /// silently become a missing metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(metrics::is_declared(name), "undeclared metric {name}");
        self.metrics.insert(name, value);
    }

    /// Sets a throughput metric to the [`fast_rate`] of its per-trial
    /// `rates`, keeps the trials' median and quartiles for the report,
    /// and returns the value set.
    pub fn set_fast_rate(&mut self, name: &'static str, rates: &[f64]) -> f64 {
        let value = fast_rate(rates);
        self.set(name, value);
        self.summaries.insert(name, summarise(rates));
        value
    }

    pub fn extra(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.extras.push((name, value, unit));
    }
}

/// Runs `setup` [`SETUPS`] times, dropping all but the last context, and
/// returns that context with the median set-up time in seconds.
pub fn repeat_setup<C>(mut setup: impl FnMut() -> io::Result<C>) -> io::Result<(C, f64)> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // Tear the previous context down outside the timed region.
        drop(last.take());
        let started = Instant::now();
        last = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
    }
    let ctx = last.expect("SETUPS is at least one");
    Ok((ctx, crate::stats::median(&times)))
}

/// Process counters at one instant of a traced run.
pub struct ProcSample {
    at: Instant,
    cpu_s: f64,
    ctx_switches: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl ProcSample {
    /// Samples the counters and switches allocation counting on.
    pub fn begin() -> Self {
        alloc::set_counting(true);
        let (allocs, alloc_bytes) = alloc::snapshot();
        let (_, ctx_switches) = procfs::threads_and_ctx_switches();
        ProcSample {
            at: Instant::now(),
            cpu_s: procfs::cpu_seconds(),
            ctx_switches,
            allocs,
            alloc_bytes,
        }
    }

    /// Samples again — while the workload's threads are still alive —
    /// switches counting off, and records the `process.*` metrics over
    /// `ops` operations.
    pub fn finish(self, ops: u64, out: &mut Outcome) {
        let wall = self.at.elapsed().as_secs_f64();
        let cpu = procfs::cpu_seconds() - self.cpu_s;
        let (threads, ctx_switches) = procfs::threads_and_ctx_switches();
        alloc::set_counting(false);
        let (allocs, alloc_bytes) = alloc::snapshot();
        let per_op = |n: u64| n as f64 / ops.max(1) as f64;
        out.set("process.cpu_util", cpu / wall);
        out.set(
            "process.ctx_switches_per_op",
            per_op(ctx_switches.saturating_sub(self.ctx_switches)),
        );
        out.set("process.threads", threads as f64);
        out.set("process.allocs_per_op", per_op(allocs - self.allocs));
        out.set(
            "process.alloc_bytes_per_op",
            per_op(alloc_bytes - self.alloc_bytes),
        );
    }
}

/// Per-name span totals of a trace, computed once per report.
pub type SpanTotals = HashMap<&'static str, Totals>;

/// Mean nanoseconds per call of one span name (0 if never recorded).
pub fn mean_ns(totals: &SpanTotals, name: &str) -> f64 {
    match totals.get(name) {
        Some(t) if t.count > 0 => t.total_ns as f64 / t.count as f64,
        _ => 0.0,
    }
}

/// Records what every session workload reads off its span phase: the
/// session-call spans (with `calls` per `units` trials or sessions), the
/// share of task time under spans, and how many spans were dropped.
pub fn report_session_spans(out: &mut Outcome, trace: &Trace, totals: &SpanTotals, units: u64) {
    let calls: u64 = [stream::SPAN_SEND, stream::SPAN_RECV]
        .iter()
        .filter_map(|name| totals.get(name))
        .map(|t| t.count)
        .sum();
    out.set(
        "rumpsteak.session.send_ns",
        mean_ns(totals, stream::SPAN_SEND),
    );
    out.set(
        "rumpsteak.session.recv_ns",
        mean_ns(totals, stream::SPAN_RECV),
    );
    out.set(
        "rumpsteak.session.calls",
        calls as f64 / units.max(1) as f64,
    );
    out.set("trace.coverage_frac", trace.task_coverage());
    out.extra("trace.dropped_spans", trace.dropped as f64, "count");
}
