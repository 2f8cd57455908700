//! The benchmark's own recorder for traced runs: it sums the durations
//! the program reports (stopwatch stages, pool queue waits) per name and
//! drops every other event, so tracing costs a lock per duration.

use pdip_obs::Recorder;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Per-name `(count, total nanoseconds)` of reported durations.
#[derive(Debug, Default)]
pub struct Durations {
    totals: Mutex<BTreeMap<&'static str, (u64, u128)>>,
}

impl Durations {
    /// `(count, total nanoseconds)` reported under `name`.
    pub fn total(&self, name: &str) -> (u64, u128) {
        let totals = self.totals.lock().unwrap_or_else(|e| e.into_inner());
        totals.get(name).copied().unwrap_or((0, 0))
    }

    /// Total milliseconds reported under `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.total(name).1 as f64 / 1e6
    }

    /// Mean milliseconds per observation under `name` (0 if none).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let (count, total) = self.total(name);
        if count == 0 {
            0.0
        } else {
            total as f64 / 1e6 / count as f64
        }
    }
}

impl Recorder for Durations {
    fn enabled(&self) -> bool {
        true
    }

    fn duration(&self, name: &'static str, nanos: u64) {
        // Keep the sums even if a traced thread panicked mid-update:
        // each entry is a pair of plain integers.
        let mut totals = self.totals.lock().unwrap_or_else(|e| e.into_inner());
        let slot = totals.entry(name).or_insert((0, 0));
        slot.0 += 1;
        slot.1 += u128::from(nanos);
    }
}
