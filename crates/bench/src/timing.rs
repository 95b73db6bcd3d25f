//! The harness's one timing loop: minimal wall-clock measurement (one
//! warmup, then repeated runs until a time budget) behind every row the
//! `fig6`/`fig7` binaries print or write.

use std::time::{Duration, Instant};

/// Measures the mean wall-clock time of `f`.
///
/// Runs once for warmup, then repeats until `budget` is spent or
/// `max_runs` is reached (always at least one measured run).
pub fn measure(mut f: impl FnMut(), budget: Duration, max_runs: usize) -> Duration {
    f(); // warmup
    let mut runs = 0u32;
    let start = Instant::now();
    let mut elapsed = Duration::ZERO;
    while (elapsed < budget && (runs as usize) < max_runs) || runs == 0 {
        let t0 = Instant::now();
        f();
        elapsed += t0.elapsed();
        runs += 1;
        if start.elapsed() > budget * 4 {
            break;
        }
    }
    elapsed / runs
}

/// Throughput in items per microsecond, the unit of Fig 6.
pub fn throughput(items: usize, duration: Duration) -> f64 {
    items as f64 / duration.as_micros().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive() {
        let d = measure(
            || {
                std::hint::black_box((0..1000).sum::<u64>());
            },
            Duration::from_millis(10),
            100,
        );
        assert!(d > Duration::ZERO);
    }

    #[test]
    fn throughput_scales() {
        let d = Duration::from_micros(10);
        assert!((throughput(100, d) - 10.0).abs() < 1e-9);
    }
}
