//! Std-only process sampling from `/proc/self`: peak resident set size
//! (`VmHWM` in `/proc/self/status`) and user/system CPU seconds
//! (`utime`/`stime` in `/proc/self/stat`). Every reader returns `None`
//! where `/proc` is missing, so callers report "unavailable", never 0.

use std::fs;

/// Clock ticks per second of `utime`/`stime`. Linux fixes the
/// user-visible tick (`USER_HZ`) at 100 on every mainstream
/// architecture, independent of the kernel's internal `HZ`.
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_kb(&fs::read_to_string("/proc/self/status").ok()?).map(|kb| kb as f64 / 1024.0)
}

/// `(user, system)` CPU seconds consumed by this process so far.
pub fn cpu_seconds() -> Option<(f64, f64)> {
    parse_cpu_ticks(&fs::read_to_string("/proc/self/stat").ok()?)
        .map(|(u, s)| (u as f64 / USER_HZ, s as f64 / USER_HZ))
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

fn parse_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    // The command name (field 2) may contain spaces and parentheses;
    // every later field follows the *last* ')'. Counting from field 3
    // (`state`) at index 0, `utime` is field 14 and `stime` field 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    Some((fields.get(11)?.parse().ok()?, fields.get(12)?.parse().ok()?))
}

/// CPU and wall clock consumed between two points.
pub struct CpuWindow {
    start: Option<(f64, f64)>,
    wall: hypdb_obs::Tick,
}

/// What a [`CpuWindow`] measured.
pub struct CpuUse {
    /// Wall seconds.
    pub wall_s: f64,
    /// User CPU seconds (`None` without `/proc`).
    pub user_s: Option<f64>,
    /// System CPU seconds (`None` without `/proc`).
    pub sys_s: Option<f64>,
}

impl CpuWindow {
    /// Starts measuring.
    pub fn start() -> CpuWindow {
        CpuWindow {
            start: cpu_seconds(),
            wall: hypdb_obs::Tick::now(),
        }
    }

    /// Stops measuring.
    pub fn stop(self) -> CpuUse {
        let wall_s = self.wall.elapsed_secs();
        match (self.start, cpu_seconds()) {
            (Some((u0, s0)), Some((u1, s1))) => CpuUse {
                wall_s,
                user_s: Some(u1 - u0),
                sys_s: Some(s1 - s0),
            },
            _ => CpuUse {
                wall_s,
                user_s: None,
                sys_s: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn parses_cpu_ticks_past_a_tricky_comm() {
        let stat = "42 (a) b (c)) S 1 42 42 0 -1 4194560 100 0 0 0 731 52 0 0 20 0 3 0 1";
        assert_eq!(parse_cpu_ticks(stat), Some((731, 52)));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn live_proc_is_readable_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb().unwrap() > 0.0);
            assert!(cpu_seconds().is_some());
        }
    }
}
