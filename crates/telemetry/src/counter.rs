//! The relaxed atomic counter and its cache-line padding.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::gate::Gated;

/// Pads and aligns `T` to 128 bytes so per-worker counter blocks never
/// share a cache line (two lines on x86, where the spatial prefetcher
/// pairs adjacent lines). A ZST payload stays zero-sized, so disabled
/// telemetry builds allocate nothing.
#[derive(Default)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` with cache-line padding.
    pub const fn new(value: T) -> Self {
        Self { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

/// A monotonically increasing event counter.
///
/// With the `telemetry` feature this is a relaxed `AtomicU64`: increments
/// are single uncontended RMWs on counters owned by one worker, and
/// relaxed ordering is enough because snapshots only need eventually
/// consistent totals (exactness is guaranteed once the counted threads
/// are quiescent, which is when the tests read them). Without the
/// feature it is a ZST whose methods fold to empty `#[inline]` bodies.
#[derive(Default)]
pub struct Counter {
    value: Gated<AtomicU64>,
}

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(value) = self.value.get() {
            value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 in disabled builds).
    #[inline]
    pub fn get(&self) -> u64 {
        self.value
            .get()
            .map_or(0, |value| value.load(Ordering::Relaxed))
    }

    /// Raises the counter to `n` if it is below (used for high-watermark
    /// tracking; relaxed `fetch_max`).
    #[inline]
    pub fn record_max(&self, n: u64) {
        if let Some(value) = self.value.get() {
            value.fetch_max(n, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_when_enabled() {
        let counter = Counter::new();
        counter.incr();
        counter.add(4);
        counter.record_max(2);
        if crate::ENABLED {
            assert_eq!(counter.get(), 5);
        } else {
            assert_eq!(counter.get(), 0);
            assert_eq!(std::mem::size_of::<Counter>(), 0);
        }
    }

    #[test]
    fn record_max_is_a_watermark() {
        let counter = Counter::new();
        counter.record_max(7);
        counter.record_max(3);
        if crate::ENABLED {
            assert_eq!(counter.get(), 7);
        }
    }

    #[test]
    fn cache_padding_separates_lines() {
        assert_eq!(std::mem::align_of::<CachePadded<Counter>>(), 128);
        let padded = CachePadded::new(Counter::new());
        padded.incr();
        assert_eq!(padded.get(), if crate::ENABLED { 1 } else { 0 });
    }
}
