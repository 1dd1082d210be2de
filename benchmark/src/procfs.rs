//! Process facts from `/proc`: peak memory, and on-CPU time and voluntary
//! context switches of the calling thread — the thread that runs the whole
//! session on the queue and the accelerator domain on a threaded backend.
//! Everything reads as 0 where `/proc` is absent.

use std::time::Duration;

fn field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
}

/// Peak resident set of the process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| field(&status, "VmHWM:"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// One reading of the calling thread's scheduler counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    on_cpu_ns: u64,
    voluntary_switches: u64,
}

impl Sample {
    pub fn now() -> Sample {
        let on_cpu_ns = std::fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse().ok())
            .unwrap_or(0);
        let voluntary_switches = std::fs::read_to_string("/proc/thread-self/status")
            .ok()
            .and_then(|status| field(&status, "voluntary_ctxt_switches:"))
            .unwrap_or(0);
        Sample {
            on_cpu_ns,
            voluntary_switches,
        }
    }
}

/// Scheduler counters accumulated over the measured intervals.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    on_cpu_ns: u64,
    wall: Duration,
    pub voluntary_switches: u64,
}

impl Usage {
    pub fn add(&mut self, before: &Sample, after: &Sample, wall: Duration) {
        self.on_cpu_ns += after.on_cpu_ns.saturating_sub(before.on_cpu_ns);
        self.voluntary_switches += after
            .voluntary_switches
            .saturating_sub(before.voluntary_switches);
        self.wall += wall;
    }

    /// On-CPU seconds of the calling thread per wall second.
    pub fn cpu_per_wall(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.on_cpu_ns as f64 * 1e-9 / self.wall.as_secs_f64()
    }
}

/// The highest-numbered CPU this process may run on (`Cpus_allowed_list`).
pub fn last_allowed_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    last_cpu_of(
        status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?,
    )
}

/// The last CPU of a kernel CPU list such as `0-1` or `0,2-3`.
fn last_cpu_of(list: &str) -> Option<String> {
    let last = list.trim().rsplit([',', '-']).next()?;
    last.parse::<u32>().ok().map(|cpu| cpu.to_string())
}

/// CPUs the machine has online — not the ones this process is pinned to.
pub fn online_cpus() -> usize {
    std::fs::read_to_string("/sys/devices/system/cpu/online")
        .ok()
        .and_then(|list| count_cpus(&list))
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(0)
}

/// The number of CPUs in a kernel CPU list such as `0-1` or `0,2-3`.
fn count_cpus(list: &str) -> Option<usize> {
    list.trim().split(',').try_fold(0, |total, range| {
        let (first, last) = range.split_once('-').unwrap_or((range, range));
        let (first, last) = (first.parse::<usize>().ok()?, last.parse::<usize>().ok()?);
        Some(total + last.checked_sub(first)? + 1)
    })
}

/// Kernel release, recorded beside a full report.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_parse_from_status_text() {
        let status = "Name:\tx\nVmHWM:\t   2048 kB\nvoluntary_ctxt_switches:\t17\n";
        assert_eq!(field(status, "VmHWM:"), Some(2048));
        assert_eq!(field(status, "voluntary_ctxt_switches:"), Some(17));
        assert_eq!(field(status, "nonvoluntary_ctxt_switches:"), None);
    }

    #[test]
    fn last_cpu_of_a_kernel_cpu_list() {
        assert_eq!(last_cpu_of("0-1\n").as_deref(), Some("1"));
        assert_eq!(last_cpu_of("\t0,2-3").as_deref(), Some("3"));
        assert_eq!(last_cpu_of("5").as_deref(), Some("5"));
        assert_eq!(last_cpu_of(""), None);
    }

    #[test]
    fn cpus_of_a_kernel_cpu_list_are_counted() {
        assert_eq!(count_cpus("0-1\n"), Some(2));
        assert_eq!(count_cpus("0,2-3"), Some(3));
        assert_eq!(count_cpus("7"), Some(1));
        assert_eq!(count_cpus("3-1"), None);
        assert_eq!(count_cpus(""), None);
    }

    #[test]
    fn usage_is_zero_before_any_interval() {
        assert_eq!(Usage::default().cpu_per_wall(), 0.0);
    }
}
