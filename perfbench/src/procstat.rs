//! Process counters read from `/proc` with the standard library only.
//! Each reader returns `None` when `/proc` is absent or unreadable, so a
//! missing counter is reported as missing, never as zero.

use std::time::Instant;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux
/// exports them in USER_HZ, which is 100 on every mainstream
/// architecture.
const USER_HZ: f64 = 100.0;

/// Process-wide user and system CPU seconds (all threads).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl CpuTimes {
    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

pub fn cpu_times() -> Option<CpuTimes> {
    parse_stat(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Fields 14 and 15 (utime, stime) of `/proc/<pid>/stat`. The command
/// name (field 2) may contain spaces, so fields are counted from the last
/// `)`.
fn parse_stat(text: &str) -> Option<CpuTimes> {
    let rest = &text[text.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state); utime is field 14.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime / USER_HZ,
        sys_s: stime / USER_HZ,
    })
}

/// Times a region of host work: wall-clock seconds minus the hypervisor
/// steal time the machine accumulated meanwhile (time another guest held
/// a CPU this one wanted). Steal is counted in 10 ms ticks, so regions
/// shorter than `MIN_ADJUST_S` are not adjusted; without `/proc` the
/// plain wall-clock time is returned.
pub struct Stopwatch {
    start: Instant,
    steal: Option<f64>,
}

const MIN_ADJUST_S: f64 = 0.1;

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            steal: steal_s(),
            start: Instant::now(),
        }
    }

    /// Seconds since `start`, less steal (never below zero).
    pub fn host_s(&self) -> f64 {
        let wall = self.start.elapsed().as_secs_f64();
        match (self.steal, steal_s()) {
            (Some(a), Some(b)) if wall >= MIN_ADJUST_S => wall - (b - a).clamp(0.0, wall),
            _ => wall,
        }
    }
}

/// Machine-wide hypervisor steal time (all CPUs), from `/proc/stat`.
pub fn steal_s() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().next()?;
    // cpu user nice system idle iowait irq softirq steal ...
    let steal: f64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?).map(|kb| kb / 1024.0)
}

fn parse_hwm_kb(text: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_after_the_command_name() {
        let line = "42 (a b) c) R 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 1 0";
        let t = parse_stat(line).unwrap();
        assert_eq!(
            t,
            CpuTimes {
                user_s: 2.5,
                sys_s: 0.75
            }
        );
    }

    #[test]
    fn hwm_is_read_in_kib() {
        let status = "Name:\tx\nVmPeak:\t  9 kB\nVmHWM:\t  2048 kB\n";
        assert_eq!(parse_hwm_kb(status), Some(2048.0));
        assert_eq!(parse_hwm_kb("Name:\tx\n"), None);
    }
}
