//! The raw samples of a timed run, and the end-to-end metrics computed
//! from them.
//!
//! A timed run (`--trace 0`) measures in one or more child processes of
//! this binary, one after another, and pools their samples. A child
//! prints its samples as text lines; the parent merges them and reports.

use crate::stats::{median, percentile, Contention};
use crate::Outcome;

/// Processes a timed run of `workload` pools.
///
/// The suite workloads use ten. Separate processes of one seed measured a
/// suite op's median up to ±15% apart on a 2-vCPU VM with steal, and each
/// process draws its own address-space layout and physical pages (the
/// set-up bias of Mytkowicz et al., ASPLOS'09). Five pooled 2 s processes
/// per run gave `suite_batched`'s p50 an IQR/median of 0.10 over six runs,
/// against 0.19 for six interleaved single 10 s processes.
///
/// `service_mixed` uses one: its per-leaf graphs fit in cache, and its p50
/// came out steadier from one 20 s process than from ten 2 s ones
/// (IQR/median 0.11 against 0.20, six interleaved runs each).
pub fn parts(workload: &str) -> u64 {
    if workload == "service_mixed" {
        1
    } else {
        10
    }
}

#[derive(Default)]
pub struct Samples {
    /// Op latencies, ms.
    pub latencies: Vec<f64>,
    /// Set-up times, s.
    pub setups: Vec<f64>,
    /// Programs compiled, and the seconds they took: the ops' own time
    /// for the suite workloads, the closed loop's wall time for the
    /// service.
    pub programs: u64,
    pub busy_s: f64,
    /// On-CPU time of the compiles (see the workloads); `None` off Linux.
    pub cpu_ns: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub degraded: u64,
    pub contention: Contention,
    pub peak_rss_mib: Option<f64>,
    pub lowered_leaf_ratio: f64,
    pub modelled_device_us: f64,
    /// Workload-specific per-process facts for the metadata line.
    pub counts: Vec<(String, u64)>,
    pub errors: Vec<String>,
}

fn join(values: &[f64]) -> String {
    values
        .iter()
        .map(f64::to_string)
        .collect::<Vec<_>>()
        .join(" ")
}

impl Samples {
    /// Records a per-process fact for the metadata; merged processes
    /// keep the largest value.
    pub fn count(&mut self, key: &str, value: u64) {
        match self.counts.iter_mut().find(|(k, _)| k == key) {
            Some((_, v)) => *v = (*v).max(value),
            None => self.counts.push((key.to_string(), value)),
        }
    }

    /// The child's output: one `key values…` line per field.
    pub fn to_lines(&self) -> String {
        let c = &self.contention;
        let mut out = format!(
            "latencies {}\nsetups {}\nprograms {}\nbusy_s {}\ncpu_ns {}\nattempted {}\nfailed {}\n\
             degraded {}\ncontention {} {} {} {} {}\npeak_rss_mib {}\nlowered_leaf_ratio {}\n\
             modelled_device_us {}\n",
            join(&self.latencies),
            join(&self.setups),
            self.programs,
            self.busy_s,
            self.cpu_ns.map_or("-".to_string(), |n| n.to_string()),
            self.attempted,
            self.failed,
            self.degraded,
            u8::from(c.available),
            c.samples,
            c.contended,
            c.steal_ticks,
            c.runqueue_wait_ns,
            self.peak_rss_mib.map_or("-".to_string(), |r| r.to_string()),
            self.lowered_leaf_ratio,
            self.modelled_device_us,
        );
        for (k, v) in &self.counts {
            out.push_str(&format!("count {k} {v}\n"));
        }
        for e in &self.errors {
            out.push_str(&format!("error {}\n", e.replace('\n', " ")));
        }
        out
    }

    /// Parses a child's output.
    pub fn parse(text: &str) -> Result<Samples, String> {
        let mut s = Samples::default();
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            let floats = || -> Result<Vec<f64>, String> {
                rest.split_whitespace()
                    .map(|v| v.parse::<f64>().map_err(|e| format!("{key}: {e}")))
                    .collect()
            };
            let int = || {
                rest.trim()
                    .parse::<u64>()
                    .map_err(|e| format!("{key}: {e}"))
            };
            match key {
                "latencies" => s.latencies = floats()?,
                "setups" => s.setups = floats()?,
                "programs" => s.programs = int()?,
                "busy_s" => s.busy_s = floats()?.first().copied().unwrap_or(0.0),
                "cpu_ns" => s.cpu_ns = rest.trim().parse().ok(),
                "attempted" => s.attempted = int()?,
                "failed" => s.failed = int()?,
                "degraded" => s.degraded = int()?,
                "contention" => {
                    let v = floats()?;
                    if v.len() != 5 {
                        return Err("contention: five fields".to_string());
                    }
                    s.contention = Contention {
                        available: v[0] != 0.0,
                        samples: v[1] as usize,
                        contended: v[2] as usize,
                        steal_ticks: v[3] as u64,
                        runqueue_wait_ns: v[4] as u64,
                    };
                }
                "peak_rss_mib" => s.peak_rss_mib = rest.trim().parse().ok(),
                "lowered_leaf_ratio" => s.lowered_leaf_ratio = floats()?[0],
                "modelled_device_us" => s.modelled_device_us = floats()?[0],
                "count" => {
                    let (k, v) = rest.split_once(' ').ok_or("count: key and value")?;
                    s.count(k, v.parse().map_err(|e| format!("count {k}: {e}"))?);
                }
                "error" => s.errors.push(rest.to_string()),
                "" => {}
                other => return Err(format!("unknown sample line {other:?}")),
            }
        }
        Ok(s)
    }

    /// Pools another process's samples into these. The deterministic
    /// quality metrics must agree between processes.
    pub fn merge(&mut self, other: Samples) {
        if self.latencies.is_empty() && self.attempted == 0 {
            *self = other;
            return;
        }
        if (self.lowered_leaf_ratio, self.modelled_device_us)
            != (other.lowered_leaf_ratio, other.modelled_device_us)
        {
            self.errors.push(format!(
                "deterministic quality differs between processes: ({}, {}) vs ({}, {})",
                self.lowered_leaf_ratio,
                self.modelled_device_us,
                other.lowered_leaf_ratio,
                other.modelled_device_us
            ));
        }
        self.latencies.extend(other.latencies);
        self.setups.extend(other.setups);
        self.programs += other.programs;
        self.busy_s += other.busy_s;
        self.cpu_ns = self.cpu_ns.zip(other.cpu_ns).map(|(a, b)| a + b);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.degraded += other.degraded;
        let (c, o) = (&mut self.contention, other.contention);
        c.available &= o.available;
        c.samples += o.samples;
        c.contended += o.contended;
        c.steal_ticks += o.steal_ticks;
        c.runqueue_wait_ns += o.runqueue_wait_ns;
        self.peak_rss_mib = match (self.peak_rss_mib, other.peak_rss_mib) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        for (k, v) in other.counts {
            self.count(&k, v);
        }
        self.errors.extend(other.errors);
    }

    /// The end-to-end metrics of a run pooled from `processes` processes.
    pub fn into_outcome(self, processes: u64) -> Outcome {
        let mut out = Outcome {
            attempted: self.attempted,
            failed: self.failed,
            ..Outcome::default()
        };
        let attempted = self.attempted.max(1) as f64;
        out.set("latency_ms_p50", percentile(&self.latencies, 0.5));
        out.set("latency_ms_p90", percentile(&self.latencies, 0.9));
        out.set(
            "programs_per_s",
            self.programs as f64 / self.busy_s.max(1e-9),
        );
        // Off Linux there is no on-CPU time: fall back to wall time.
        let cpu_ms = self.cpu_ns.map_or(self.busy_s * 1e3, |ns| ns as f64 / 1e6);
        out.set("cpu_ms_per_program", cpu_ms / self.programs.max(1) as f64);
        out.set("setup_s", median(&self.setups));
        out.set(
            "completed_ratio",
            (self.attempted - self.failed) as f64 / attempted,
        );
        out.set(
            "saturated_ratio",
            (self.attempted - self.degraded) as f64 / attempted,
        );
        out.set("lowered_leaf_ratio", self.lowered_leaf_ratio);
        out.set("modelled_device_us", self.modelled_device_us);
        if let Some(rss) = self.peak_rss_mib {
            out.set("peak_rss_mib", rss);
        }
        out.meta("processes", processes.to_string());
        out.meta("ops", self.latencies.len().to_string());
        out.meta("failed_ratio", (self.failed as f64 / attempted).to_string());
        out.meta(
            "degraded_ratio",
            (self.degraded as f64 / attempted).to_string(),
        );
        for (k, v) in &self.counts {
            out.meta(k, v.to_string());
        }
        out.meta(
            "cpu_source",
            format!(
                "\"{}\"",
                if self.cpu_ns.is_some() {
                    "schedstat"
                } else {
                    "wall"
                }
            ),
        );
        out.meta("contention", self.contention.json());
        out.meta(
            "setup_s_samples",
            format!(
                "[{}]",
                self.setups
                    .iter()
                    .map(|s| format!("{s:.6}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        );
        for e in self.errors.iter().take(10) {
            out.error(e.clone());
        }
        if self.latencies.is_empty() {
            out.error("no op completed within the run".to_string());
        }
        out
    }
}
