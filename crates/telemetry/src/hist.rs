//! Lock-free log-linear latency histograms (HDR-style).
//!
//! The bench tables report closed-loop means; a mean cannot distinguish
//! "every message takes 1 µs" from "most take 300 ns and one in a
//! thousand takes 1 ms" — and the paper's claim (verified asynchronous
//! reordering keeps the data plane fast) lives exactly in that tail.
//! [`Histogram`] records `u64` nanosecond values into log-linear
//! buckets: values below 2^([`SUB_BITS`]+1) land in exact unit-wide
//! buckets, larger values are split per power of two into
//! 2^[`SUB_BITS`] sub-buckets, so every reported quantile is within a
//! relative error of 2^-[`SUB_BITS`] (6.25%) of the exact
//! order-statistic — the same scheme HdrHistogram uses, sized here for
//! a fixed [`BUCKETS`]-slot array of relaxed atomics.
//!
//! Recording is one `fetch_add` on the value's bucket plus relaxed
//! updates of count/sum/max: wait-free, no allocation, shareable across
//! threads without synchronisation beyond the atomics themselves.
//! Snapshots are plain-integer copies ([`HistogramSnapshot`]).
//!
//! The module also owns the **session lifetime registry**: one
//! histogram per role name recording `try_session` spawn→teardown
//! wall time, which the Fig 6 telemetry tests read back. Without the
//! `telemetry` feature everything compiles to no-ops and empty
//! snapshots.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::gate::{Gated, Registry};

/// Sub-bucket resolution: each power-of-two range is split into
/// `2^SUB_BITS` equal buckets, bounding relative error at `2^-SUB_BITS`.
pub const SUB_BITS: u32 = 4;

/// Values below this threshold get exact unit-wide buckets.
pub const LINEAR_MAX: u64 = 1 << (SUB_BITS + 1);

/// Total bucket count: `LINEAR_MAX` exact buckets plus
/// `2^SUB_BITS` sub-buckets for every exponent up to 63.
pub const BUCKETS: usize =
    LINEAR_MAX as usize + (63 - SUB_BITS as usize) * (1 << SUB_BITS as usize);

/// Bucket index of `value` (total order, stable across builds).
pub fn bucket_index(value: u64) -> usize {
    if value < LINEAR_MAX {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros(); // >= SUB_BITS + 1
    let sub = (value >> (exp - SUB_BITS)) & ((1 << SUB_BITS) - 1);
    LINEAR_MAX as usize + (exp - SUB_BITS - 1) as usize * (1 << SUB_BITS as usize) + sub as usize
}

/// Largest value mapping to bucket `index` — what quantiles report, so
/// estimates never undershoot the exact order-statistic.
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index < LINEAR_MAX as usize {
        return index as u64;
    }
    let group = (index - LINEAR_MAX as usize) / (1 << SUB_BITS as usize);
    let sub = ((index - LINEAR_MAX as usize) % (1 << SUB_BITS as usize)) as u64;
    let exp = group as u32 + SUB_BITS + 1;
    let width = 1u64 << (exp - SUB_BITS);
    let low = (1u64 << exp) + sub * width;
    low + (width - 1)
}

/// A lock-free log-linear histogram of `u64` values (nanoseconds, by
/// convention). A ZST no-op without the `telemetry` feature.
#[derive(Default)]
pub struct Histogram {
    inner: Gated<OnceLock<Box<Buckets>>>,
}

struct Buckets {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    slots: [AtomicU64; BUCKETS],
}

impl Buckets {
    fn new() -> Box<Buckets> {
        Box::new(Buckets {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            slots: std::array::from_fn(|_| AtomicU64::new(0)),
        })
    }
}

impl Histogram {
    /// An empty histogram. Bucket storage is allocated lazily on the
    /// first [`record`](Self::record), so idle instruments cost a
    /// pointer.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one value: a relaxed `fetch_add` on its bucket plus
    /// count/sum/max updates. Wait-free; compiles away without the
    /// feature.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(inner) = self.inner.get() {
            let buckets = inner.get_or_init(Buckets::new);
            buckets.slots[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            buckets.count.fetch_add(1, Ordering::Relaxed);
            buckets.sum.fetch_add(value, Ordering::Relaxed);
            buckets.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Plain-integer copy of the current state. Empty (count 0) without
    /// the feature or before the first record.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let Some(buckets) = self.inner.get().and_then(OnceLock::get) else {
            return HistogramSnapshot::default();
        };
        HistogramSnapshot {
            count: buckets.count.load(Ordering::Relaxed),
            sum: buckets.sum.load(Ordering::Relaxed),
            max: buckets.max.load(Ordering::Relaxed),
            buckets: buckets
                .slots
                .iter()
                .map(|slot| slot.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`]; reports quantiles against the
/// bucket upper bounds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of all recorded values (mean = `sum / count`).
    pub sum: u64,
    /// Largest recorded value, exact.
    pub max: u64,
    /// Per-bucket counts; empty when nothing was recorded.
    buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the `ceil(q * count)`-th smallest value, clamped
    /// to the exact [`max`](Self::max). Returns 0 when empty. Relative
    /// error against the exact order-statistic is at most
    /// `2^-`[`SUB_BITS`] (values below [`LINEAR_MAX`] are exact).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(index).min(self.max);
            }
        }
        self.max
    }

    /// Median (see [`quantile`](Self::quantile)).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

// ---- session lifetime registry --------------------------------------

static SESSIONS: Registry<&'static str, Histogram> = Registry::new(|_| Histogram::new());

/// Records one completed session's spawn→teardown lifetime for `role`.
/// Called by `try_session` on successful completion; teardown is not a
/// hot path, so the registry lookup per session is acceptable.
pub fn record_session(role: &'static str, lifetime_ns: u64) {
    if let Some(lifetimes) = SESSIONS.attach(role).attached() {
        lifetimes.record(lifetime_ns);
    }
}

/// Lifetime distribution of every role that completed at least one
/// session, sorted by role name. Empty in disabled builds.
pub fn sessions_snapshot() -> Vec<(&'static str, HistogramSnapshot)> {
    SESSIONS.snapshot(|role, lifetimes| (role, lifetimes.snapshot()))
}

/// Clears the session registry (tests isolating phases).
pub fn reset_sessions() {
    SESSIONS.reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_bounded() {
        let mut values: Vec<u64> = (0..4096u64).collect();
        values.extend((12..64).flat_map(|e| [(1u64 << e) - 1, 1u64 << e]));
        values.push(u64::MAX);
        values.sort_unstable();
        let mut last = 0usize;
        for value in values {
            let index = bucket_index(value);
            assert!(index < BUCKETS, "value {value} -> index {index}");
            assert!(index >= last, "non-monotonic at {value}");
            last = index;
        }
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        // Every probed value must satisfy
        // `value <= upper_bound(bucket_index(value))` with relative
        // error at most 2^-SUB_BITS — the histogram's accuracy
        // contract, checked across bucket edges.
        let probes: Vec<u64> = (0..LINEAR_MAX)
            .chain((SUB_BITS + 1..63).flat_map(|e| {
                let base = 1u64 << e;
                [base - 1, base, base + 1, base + base / 2, (base << 1) - 1]
            }))
            .collect();
        for &value in &probes {
            let upper = bucket_upper_bound(bucket_index(value));
            assert!(upper >= value, "upper {upper} < value {value}");
            let slack = upper - value;
            assert!(
                (slack as f64) <= (value as f64) / (1 << SUB_BITS) as f64 + 1.0,
                "value {value}: bucket upper {upper} overshoots the \
                 2^-{SUB_BITS} relative error bound"
            );
        }
    }

    #[test]
    fn quantiles_match_sorted_reference_within_bucket_error() {
        // A deliberately skewed population crossing many bucket edges:
        // exact linear values, mid-range, and a heavy tail.
        let mut values: Vec<u64> = Vec::new();
        for i in 0..1000u64 {
            values.push(i % 30); // linear range, exact buckets
        }
        for i in 0..500u64 {
            values.push(1_000 + 37 * i); // log-linear mid-range
        }
        for i in 0..25u64 {
            values.push(1_000_000 + 77_777 * i); // tail
        }
        let hist = Histogram::new();
        for &v in &values {
            hist.record(v);
        }
        let snap = hist.snapshot();
        if !crate::ENABLED {
            assert!(snap.is_empty());
            return;
        }
        assert_eq!(snap.count, values.len() as u64);
        assert_eq!(snap.sum, values.iter().sum::<u64>());
        values.sort_unstable();
        assert_eq!(snap.max, *values.last().unwrap());
        for &q in &[0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let estimate = snap.quantile(q);
            assert!(
                estimate >= exact,
                "q={q}: estimate {estimate} undershoots exact {exact}"
            );
            assert!(
                (estimate - exact) as f64 <= exact as f64 / (1 << SUB_BITS) as f64 + 1.0,
                "q={q}: estimate {estimate} beyond error bound of exact {exact}"
            );
        }
        assert_eq!(snap.quantile(1.0), snap.max);
        // The convenience accessors are the same estimator.
        assert_eq!(snap.p50(), snap.quantile(0.5));
        assert_eq!(snap.p999(), snap.quantile(0.999));
    }

    #[test]
    fn quantiles_are_monotonic() {
        let hist = Histogram::new();
        for i in 0..10_000u64 {
            hist.record(i * i % 65_536);
        }
        let snap = hist.snapshot();
        if crate::ENABLED {
            let qs = [snap.p50(), snap.p90(), snap.p99(), snap.p999(), snap.max];
            for pair in qs.windows(2) {
                assert!(pair[0] <= pair[1], "quantiles not monotonic: {qs:?}");
            }
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        if !crate::ENABLED {
            return;
        }
        let hist = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let hist = hist.clone();
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        hist.record(t * 1_000 + i % 997);
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        assert_eq!(hist.snapshot().count, 40_000);
    }

    #[test]
    fn session_registry_round_trips() {
        reset_sessions();
        record_session("HistRoleA", 1_000);
        record_session("HistRoleA", 3_000);
        record_session("HistRoleB", 2_000);
        let sessions = sessions_snapshot();
        if crate::ENABLED {
            assert_eq!(sessions.len(), 2);
            let (role, lifetime) = &sessions[0];
            assert_eq!(*role, "HistRoleA");
            assert_eq!(lifetime.count, 2);
            assert_eq!(lifetime.max, 3_000);
        } else {
            assert!(sessions.is_empty());
        }
        reset_sessions();
    }

    #[test]
    fn disabled_or_idle_histogram_is_empty() {
        let hist = Histogram::new();
        let snap = hist.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.quantile(0.5), 0);
    }
}
