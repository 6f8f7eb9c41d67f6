//! Small numeric helpers and the two `/proc` readings the benchmark
//! reports (process CPU time and peak resident set).

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` percent of the samples at or below it. `None` when
/// the slice is empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted floats (mean of the middle pair for even counts);
/// 0.0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0.0 when the denominator is zero (a ratio over work
/// that did not happen on this workload).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/self/stat`. Linux has fixed `USER_HZ` at 100 on every
/// architecture this repository builds on.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process (all threads, including
/// exited ones) has consumed. `None` off Linux.
pub fn process_cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) of this process in MiB. `None` off
/// Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        assert_eq!(percentile(&[], 50.0), None);
        // 10 samples: p99 needs all ten at or below it.
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&ten, 99.0), Some(10));
        assert_eq!(percentile(&ten, 90.0), Some(9));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }

    #[test]
    fn proc_readings_are_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(process_cpu_seconds().is_some());
            assert!(peak_rss_mib().unwrap() > 0.0);
        }
    }
}
