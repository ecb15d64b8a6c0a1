//! Percentiles and the process's contention and resource counters from
//! `/proc`. Off Linux every `/proc` reader returns `None` and the
//! benchmark falls back to wall time only.

use std::fs;
use std::time::Duration;

/// Linear-interpolated percentile (`q` in `0..=1`) of unsorted samples;
/// 0 for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// On-CPU and run-queue-wait nanoseconds of one task, from its
/// `schedstat` line (`<on-cpu ns> <run-queue wait ns> <timeslices>`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    pub cpu_ns: u64,
    pub wait_ns: u64,
}

impl Sched {
    pub fn since(self, earlier: Sched) -> Sched {
        Sched {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

fn parse_schedstat(text: &str) -> Option<Sched> {
    let mut fields = text.split_whitespace().map(str::parse::<u64>);
    Some(Sched {
        cpu_ns: fields.next()?.ok()?,
        wait_ns: fields.next()?.ok()?,
    })
}

/// The calling thread's scheduler counters.
pub fn thread_sched() -> Option<Sched> {
    parse_schedstat(&fs::read_to_string("/proc/thread-self/schedstat").ok()?)
}

/// The scheduler counters summed over every live thread of the process.
pub fn process_sched() -> Option<Sched> {
    let mut total = Sched::default();
    for entry in fs::read_dir("/proc/self/task").ok()? {
        let path = entry.ok()?.path().join("schedstat");
        if let Some(s) = fs::read_to_string(path)
            .ok()
            .and_then(|t| parse_schedstat(&t))
        {
            total.cpu_ns += s.cpu_ns;
            total.wait_ns += s.wait_ns;
        }
    }
    Some(total)
}

/// System-wide steal ticks (`USER_HZ`) from the `cpu` line of `/proc/stat`.
pub fn steal_ticks() -> Option<u64> {
    let text = fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let text = fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A sample counts as contended when its threads waited on the run queue
/// for more than this share of its wall time, or when the machine
/// reported steal while it ran.
pub const CONTENDED_WAIT_SHARE: f64 = 0.05;

pub fn contended(wall: Duration, wait_ns: u64, steal: u64) -> bool {
    steal > 0 || wait_ns as f64 > CONTENDED_WAIT_SHARE * wall.as_nanos() as f64
}

/// Contention over a timed window: per-sample flags plus totals.
#[derive(Debug, Default, Clone)]
pub struct Contention {
    pub samples: usize,
    pub contended: usize,
    pub steal_ticks: u64,
    pub runqueue_wait_ns: u64,
    /// Whether `/proc` was readable; otherwise only wall time is known.
    pub available: bool,
}

impl Contention {
    pub fn json(&self) -> String {
        format!(
            "{{\"available\": {}, \"samples\": {}, \"contended_samples\": {}, \"steal_ticks\": {}, \"runqueue_wait_ms\": {:.3}}}",
            self.available,
            self.samples,
            self.contended,
            self.steal_ticks,
            self.runqueue_wait_ns as f64 / 1e6,
        )
    }
}
