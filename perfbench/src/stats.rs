//! Order statistics and the `/proc` readings the benchmark takes.

/// Nearest-rank quantile of an ascending-sorted sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`,
/// fixed at 100 by the Linux ABI on the platforms this runs on).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of a process, exited threads included
/// (`/proc/<pid>/stat` fields 14 and 15).
pub fn process_cpu_s(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Host-wide CPU time counters from `/proc/stat`, for the steal share.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCpu {
    total: u64,
    steal: u64,
}

impl HostCpu {
    pub fn read() -> HostCpu {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return HostCpu::default();
        };
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return HostCpu::default();
        };
        // user nice system idle iowait irq softirq steal [guest ...];
        // guest time is already counted in user.
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        HostCpu {
            total: v.iter().sum(),
            steal: v.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_share_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_and_medians() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 0.99), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(process_cpu_s("self").is_some());
        assert!(peak_rss_mib("self").unwrap() > 0.0);
    }
}
