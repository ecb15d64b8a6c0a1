//! # hb-bench — harnesses regenerating every table and figure of the paper
//!
//! One binary per experiment (see DESIGN.md's per-experiment index) plus
//! Criterion microbenchmarks of the substrate itself. Binaries print the
//! same rows/series the paper reports; EXPERIMENTS.md records the
//! paper-vs-measured comparison.

#![forbid(unsafe_code)]

pub mod guard;
pub mod micro;
pub mod workloads;

use hb_accel::counters::CostCounters;
use hb_accel::device::DeviceProfile;
use hb_accel::perf::{estimate, TimeEstimate};

/// Formats a time estimate like the paper's bar labels: `1.23 ms (C)`.
#[must_use]
pub fn fmt_ms(t: &TimeEstimate) -> String {
    format!("{:.3} ms ({})", t.millis(), t.bound())
}

/// Formats in microseconds.
#[must_use]
pub fn fmt_us(t: &TimeEstimate) -> String {
    format!("{:.1} us ({})", t.micros(), t.bound())
}

/// Estimate on a device.
#[must_use]
pub fn on(c: &CostCounters, d: &DeviceProfile) -> TimeEstimate {
    estimate(c, d)
}
