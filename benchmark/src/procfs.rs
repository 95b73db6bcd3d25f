//! Process-level counters read from `/proc/self` (Linux only; the repo's
//! CI and sandbox are Linux). Parsing is split from reading so the unit
//! tests run on fixed text.

use std::fs;

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. `USER_HZ` is 100 on every Linux ABI; without a
/// libc binding `sysconf(_SC_CLK_TCK)` cannot be asked.
const USER_HZ: f64 = 100.0;

/// Value in kB of a `Key:   123 kB` line of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// `utime + stime` in ticks from a `/proc/<pid>/stat` line. The command
/// name (field 2) may contain spaces and parentheses, so fields are
/// counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace();
    // `after` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Voluntary plus involuntary context switches of one task's `status`.
pub fn parse_ctxt_switches(status: &str) -> Option<u64> {
    let field = |key: &str| -> Option<u64> {
        status.lines().find_map(|line| {
            line.strip_prefix(key)?
                .strip_prefix(':')?
                .trim()
                .parse()
                .ok()
        })
    };
    Some(field("voluntary_ctxt_switches")? + field("nonvoluntary_ctxt_switches")?)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_status_kb(&status, "VmHWM").unwrap_or(0) as f64 / 1024.0
}

/// CPU seconds (user + system) consumed by this process so far,
/// including threads that have already exited.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_stat_cpu_ticks(&stat).unwrap_or(0) as f64 / USER_HZ
}

/// Live threads and their summed context switches. Threads that have
/// exited are gone from `/proc/self/task`, so callers sample this while
/// the workload's threads are still alive.
pub fn threads_and_ctx_switches() -> (u64, u64) {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    let mut threads = 0;
    let mut switches = 0;
    for task in tasks.flatten() {
        threads += 1;
        let status = fs::read_to_string(task.path().join("status")).unwrap_or_default();
        switches += parse_ctxt_switches(&status).unwrap_or(0);
    }
    (threads, switches)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tbenchmark\nVmPeak:\t  204800 kB\nVmHWM:\t   51200 kB\n\
        Threads:\t3\nvoluntary_ctxt_switches:\t120\nnonvoluntary_ctxt_switches:\t7\n";

    #[test]
    fn status_fields_parse() {
        assert_eq!(parse_status_kb(STATUS, "VmHWM"), Some(51200));
        assert_eq!(parse_status_kb(STATUS, "VmRSS"), None);
        assert_eq!(parse_ctxt_switches(STATUS), Some(127));
        assert_eq!(parse_ctxt_switches("Name:\tx\n"), None);
    }

    #[test]
    fn stat_cpu_ticks_survive_hostile_command_names() {
        let stat = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
            250 50 0 0 20 0 3 0 1000 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(300));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        let (threads, _) = threads_and_ctx_switches();
        assert!(threads >= 1);
        assert!(cpu_seconds() >= 0.0);
    }
}
