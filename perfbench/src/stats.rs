//! Order statistics over timing samples, and the process's own resource
//! usage read through `getrusage(2)`.

use std::os::raw::{c_int, c_long};
use std::time::Duration;

/// Milliseconds of a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median of `v` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// `items[i]` holds item `i`'s time in each of its repetitions: the sum
/// over items of each item's median. A burst of host noise that hits one
/// item in one repetition does not reach the sum.
pub fn sum_of_medians(items: &[Vec<f64>]) -> f64 {
    items.iter().map(|reps| median(reps)).sum()
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Nearest-rank percentile `p` (0–100) of `v`.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The tail that `samples` supports: the highest of p99 and p90 with at
/// least ten samples beyond it. With fewer than forty samples no
/// percentile is a tail, and the median stands in for it. Returns the
/// value and a label naming what it is.
pub fn tail(samples: &[f64]) -> (f64, String) {
    let n = samples.len();
    if n >= 40 {
        for p in [99.0, 90.0] {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            if n - rank >= 10 {
                return (percentile(samples, p), format!("p{p:.0} of {n} samples"));
            }
        }
    }
    (median(samples), format!("median of {n} samples (too few for a tail)"))
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: c_long,
    ixrss: c_long,
    idrss: c_long,
    isrss: c_long,
    minflt: c_long,
    majflt: c_long,
    nswap: c_long,
    inblock: c_long,
    oublock: c_long,
    msgsnd: c_long,
    msgrcv: c_long,
    nsignals: c_long,
    nvcsw: c_long,
    nivcsw: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// A reading of this process's resource usage.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// Kernel CPU time, seconds.
    pub sys_s: f64,
    /// Minor page faults.
    pub minor_faults: u64,
    /// Peak resident set size, bytes.
    pub max_rss_bytes: u64,
}

/// This process's resource usage so far.
pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the layout
    // Linux defines, and RUSAGE_SELF is a valid `who`; getrusage writes
    // only within the struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return Usage::default();
    }
    Usage {
        sys_s: ru.stime.sec as f64 + ru.stime.usec as f64 * 1e-6,
        minor_faults: u64::try_from(ru.minflt).unwrap_or(0),
        // Linux reports ru_maxrss in KiB.
        max_rss_bytes: u64::try_from(ru.maxrss).unwrap_or(0) * 1024,
    }
}

/// Peak resident set size of this process so far, in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    usage().max_rss_bytes as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
    }

    #[test]
    fn sum_of_medians_drops_a_burst() {
        let items = vec![vec![1.0, 1.0, 5.0], vec![10.0, 90.0, 10.0]];
        assert_eq!(sum_of_medians(&items), 11.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v).0, 990.0);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v).0, 180.0, "p99 of 200 has only two beyond it");
        let v = [5.0, 1.0, 3.0];
        assert_eq!(tail(&v).0, 3.0, "three samples carry no tail");
    }

    #[test]
    fn usage_reads_this_process() {
        let u = usage();
        assert!(u.max_rss_bytes > 0);
    }
}
