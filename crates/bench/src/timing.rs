//! The harness's one timing loop: minimal wall-clock measurement (one
//! warmup, then repeated runs until a time budget) behind every row the
//! `fig6`/`fig7` binaries print.

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
    let micros = duration.as_secs_f64() * 1e6;
    items as f64 / if micros > 0.0 { micros } else { 1.0 }
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

    #[test]
    fn throughput_keeps_sub_microsecond_precision() {
        // Whole microseconds would read 100 / 33 = 3.03.
        let d = Duration::from_nanos(33_500);
        assert!((throughput(100, d) - 100.0 / 33.5).abs() < 1e-9);
        assert_eq!(throughput(7, Duration::ZERO), 7.0);
    }
}
