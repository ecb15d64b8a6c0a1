//! `hb-perfbench`: the repository's end-to-end and per-layer compile
//! benchmark. See `perfbench/README.md` for the workloads, the metrics
//! and how they map onto the pipeline's layers.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite_batched --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones. The line
//! before it is a `{"metadata": ...}` object (contention record, sample
//! counts, noisy counts, layer-tree residuals); a human-readable table
//! goes to standard error.

mod replay;
mod samples;
mod service;
mod stats;
mod suite;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

use samples::Samples;

/// The end-to-end metrics every `--trace 0` run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("programs_per_s", "1/s"),
    ("cpu_ms_per_program", "ms"),
    ("setup_s", "s"),
    ("completed_ratio", "ratio"),
    ("saturated_ratio", "ratio"),
    ("lowered_leaf_ratio", "ratio"),
    ("modelled_device_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every `--trace 1` run reports, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lower.ms_per_program", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p90", "ms"),
    ("service.run_ms_p50", "ms"),
    ("service.worker_busy_ratio", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("cache.hit_ms_p50", "ms"),
    ("cache.miss_ms_p50", "ms"),
    ("cache.evictions", "count"),
    ("rules.build_ms", "ms"),
    ("stage.annotate_ms", "ms"),
    ("stage.encode_ms", "ms"),
    ("stage.saturate_ms", "ms"),
    ("stage.extract_solve_ms", "ms"),
    ("stage.extract_readout_ms", "ms"),
    ("stage.decode_ms", "ms"),
    ("stage.splice_ms", "ms"),
    ("stage.free_ms", "ms"),
    ("stage.residual_ratio", "ratio"),
    ("saturate.search_ms", "ms"),
    ("saturate.rebuild_ms", "ms"),
    ("saturate.apply_ms", "ms"),
    ("egraph.nodes", "count"),
    ("egraph.classes", "count"),
    ("saturate.iterations", "count"),
    ("saturate.applied", "count"),
    ("saturate.matches", "count"),
    ("saturate.useful_match_ratio", "ratio"),
    ("saturate.delta_searches", "count"),
    ("saturate.full_searches", "count"),
    ("saturate.skipped_searches", "count"),
    ("saturate.probed_rows", "count"),
    ("saturate.skipped_rows", "count"),
    ("extract.table_entries", "count"),
    ("extract.bank_nodes", "count"),
    ("extract.reuse_ratio", "ratio"),
    ("snapshot.restore_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("warm.probe_reduction", "ratio"),
    ("process.runqueue_wait_ms_per_program", "ms"),
    ("process.steal_ticks", "count"),
    ("trace.overhead_ms", "ms"),
];

/// Per-layer metrics that are deterministic counts: the traced run
/// measures them twice and reports any that differ as noisy.
pub const COUNTS: &[&str] = &[
    "egraph.nodes",
    "egraph.classes",
    "saturate.iterations",
    "saturate.applied",
    "saturate.matches",
    "saturate.useful_match_ratio",
    "saturate.delta_searches",
    "saturate.full_searches",
    "saturate.skipped_searches",
    "saturate.probed_rows",
    "saturate.skipped_rows",
    "extract.table_entries",
    "extract.bank_nodes",
    "extract.reuse_ratio",
    "cache.hit_ratio",
    "cache.evictions",
    "snapshot.bytes",
    "warm.probe_reduction",
    "lowered_leaf_ratio",
    "modelled_device_us",
];

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Extra JSON fields for the metadata line (values are JSON text).
    pub metadata: Vec<(String, String)>,
    /// Why the run is not correct (an output that differs from its
    /// verified program or its reference), if it is not.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn meta(&mut self, key: &str, json: String) {
        self.metadata.push((key.to_string(), json));
    }

    pub fn error(&mut self, message: String) {
        self.errors.push(message);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set on the child processes of a timed run: measure for this many
    /// milliseconds and print raw samples.
    part_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<String>, String> {
        match argv.iter().position(|a| a == flag) {
            Some(i) => argv
                .get(i + 1)
                .cloned()
                .map(Some)
                .ok_or(format!("{flag} needs a value")),
            None => Ok(None),
        }
    };
    let number = |flag: &str| -> Result<Option<u64>, String> {
        value(flag)?
            .map(|v| v.parse().map_err(|e| format!("{flag}: {e}")))
            .transpose()
    };
    let required =
        |flag: &str| -> Result<u64, String> { number(flag)?.ok_or(format!("missing {flag}")) };
    let trace = required("--trace")?;
    if trace > 1 {
        return Err("--trace is 0 or 1".to_string());
    }
    let seconds = required("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: value("--workload")?.ok_or("missing --workload")?,
        seed: required("--seed")?,
        seconds,
        trace: trace == 1,
        part_ms: number("--part-ms")?,
    })
}

/// One process's samples of a timed run.
fn measure(workload: &str, seed: u64, budget: Duration) -> Samples {
    match workload {
        "suite_batched" => suite::measure(suite::Kind::Batched, seed, budget),
        "suite_warm" => suite::measure(suite::Kind::Warm, seed, budget),
        _ => service::measure(seed, budget),
    }
}

/// A timed run: `samples::parts` child processes of this binary, one
/// after another, each measuring its share of the run; their samples
/// are pooled.
fn timed(args: &Args) -> Outcome {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            let mut out = Outcome::default();
            out.error(format!("cannot locate this binary: {e}"));
            return out;
        }
    };
    let parts = samples::parts(&args.workload);
    let part_ms = (args.seconds * 1000 / parts).max(1);
    let mut pooled = Samples::default();
    for _ in 0..parts {
        let child = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0", "--part-ms", &part_ms.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output();
        let parsed = match child {
            Ok(o) if o.status.success() => Samples::parse(&String::from_utf8_lossy(&o.stdout)),
            Ok(o) => Err(format!("measuring process failed: {}", o.status)),
            Err(e) => Err(format!("cannot start a measuring process: {e}")),
        };
        match parsed {
            Ok(part) => pooled.merge(part),
            Err(e) => pooled.errors.push(e),
        }
    }
    pooled.into_outcome(parts)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: hb-perfbench --workload <suite_batched|service_mixed|suite_warm> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let known = ["suite_batched", "suite_warm", "service_mixed"];
    if !known.contains(&args.workload.as_str()) {
        eprintln!("error: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    }
    if let Some(ms) = args.part_ms {
        print!(
            "{}",
            measure(&args.workload, args.seed, Duration::from_millis(ms)).to_lines()
        );
        return ExitCode::SUCCESS;
    }
    let budget = Duration::from_secs(args.seconds);
    let mut outcome = if !args.trace {
        timed(&args)
    } else if args.workload == "service_mixed" {
        service::traced(args.seed, budget)
    } else if args.workload == "suite_warm" {
        suite::traced(suite::Kind::Warm, args.seed, budget)
    } else {
        suite::traced(suite::Kind::Batched, args.seed, budget)
    };

    if outcome.attempted == 0 {
        eprintln!("error: the run attempted no op");
        return ExitCode::FAILURE;
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut not_applicable = Vec::new();
    for (name, _) in wanted {
        match outcome.metrics.get(name) {
            None => not_applicable.push(format!("\"{name}\"")),
            Some(v) if !v.is_finite() => outcome.error(format!("{name} is not finite")),
            Some(_) => {}
        }
    }
    let correct = outcome.errors.is_empty();
    for e in &outcome.errors {
        eprintln!("check failed: {e}");
    }

    eprintln!("{:<40} {:>16}  unit", args.workload, "value");
    for (name, unit) in wanted {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        eprintln!("{name:<40} {value:>16.6}  {unit}");
    }
    if !args.trace {
        // The failure and degradation shares, as ratios of attempted ops
        // (the JSON line carries them as `completed_ratio` and
        // `saturated_ratio`, which are never 0).
        for (name, complement) in [
            ("failed_ratio", "completed_ratio"),
            ("degraded_ratio", "saturated_ratio"),
        ] {
            let value = 1.0 - outcome.metrics.get(complement).copied().unwrap_or(0.0);
            eprintln!("{name:<40} {value:>16.6}  ratio");
        }
    }

    let mut meta = vec![
        format!("\"workload\": \"{}\"", args.workload),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"trace\": {}", args.trace),
        format!(
            "\"cores\": {}",
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        ),
        format!("\"not_applicable\": [{}]", not_applicable.join(", ")),
    ];
    meta.extend(
        outcome
            .metadata
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}")),
    );
    println!("{{\"metadata\": {{{}}}}}", meta.join(", "));

    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            // Not applicable: 0. Non-finite values were made errors
            // above and print as 0 too (JSON has no NaN). Everything else
            // prints with all its digits (`{}` is the shortest exact
            // round-trip form).
            let value = outcome.metrics.get(name).copied().filter(|v| v.is_finite());
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                value.unwrap_or(0.0)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
