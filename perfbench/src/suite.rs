//! The two suite workloads, both on a default `Batching::Batched` session
//! on the `sim` target, one op outstanding at a time:
//!
//! * `suite_batched` — each op compiles a seeded suite of 14 hb-lang
//!   `Pipeline`s with `Session::compile_suite` (lowering included): one
//!   shared graph, full rule search, shared-table extraction.
//! * `suite_warm` — setup exports a `SuiteSnapshot` of a seeded base
//!   suite; each op is `Session::compile_ir_suite_warm` over the base
//!   suite plus one fresh GEMM, so restore and delta search dominate.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hardboiled::{Batching, CompileOutcome, CompileReport, Placements, Session, SuiteSnapshot};
use hb_ir::stmt::Stmt;
use hb_lang::lower::{lower, Lowered};
use hb_lang::Pipeline;

use crate::replay::{Mode, Replayer, Trace};
use crate::samples::Samples;
use crate::stats::{self, median, ms};
use crate::workloads::{
    check_outputs, compile_direct, lowered_ratio, program_text, seeded_suite, Family, Quality, Rng,
    Spec,
};
use crate::Outcome;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Batched,
    Warm,
}

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fresh programs a `suite_warm` run cycles through.
const FRESH: usize = 6;
/// The stated bound on the share of a traced op's wall time that no
/// stage accounts for.
pub const RESIDUAL_BOUND: f64 = 0.05;

/// Fresh GEMMs for `suite_warm`: reduction and column extents (which
/// reach the leaves as strides) above the base suite's 32–64, so every
/// fresh program adds new leaves to the restored graph by construction.
/// All are of one family so ops cost alike; the seed permutes the row
/// counts (loop trip counts of at least two) across them.
fn fresh_pool(rng: &mut Rng) -> Vec<Spec> {
    let ms = rng.permuted(&[32, 48, 64, 80, 96, 112]);
    ms.into_iter()
        .zip([
            (80, 80),
            (96, 96),
            (112, 112),
            (128, 128),
            (80, 112),
            (112, 80),
        ])
        .map(|(m, (k, n))| Spec::new(Family::Gemm { m, k, n }, "sim"))
        .collect()
}

/// A built workload, ready for its timed ops.
struct Ready {
    session: Session,
    pipelines: Vec<Pipeline>,
    base: Vec<Lowered>,
    fresh: Vec<Lowered>,
    snapshot: Option<SuiteSnapshot>,
}

fn refs<'a>(lowered: impl Iterator<Item = &'a Lowered>) -> Vec<(&'a Stmt, &'a Placements)> {
    lowered.map(|l| (&l.stmt, &l.placements)).collect()
}

impl Ready {
    /// Lowers the inputs, builds the session, runs the first compile
    /// (which builds the lazy rule set) and, for `suite_warm`, exports the
    /// base suite's snapshot.
    fn build(kind: Kind, base: &[Spec], fresh: &[Spec]) -> Ready {
        let session = Session::builder()
            .batching(Batching::Batched)
            .build()
            .expect("default batched session");
        match kind {
            Kind::Batched => {
                let pipelines: Vec<Pipeline> = base.iter().map(Spec::pipeline).collect();
                let first = session.compile_suite(&pipelines).expect("non-empty suite");
                assert_eq!(first.errors(), 0, "first compile of the suite failed");
                Ready {
                    session,
                    pipelines,
                    base: Vec::new(),
                    fresh: Vec::new(),
                    snapshot: None,
                }
            }
            Kind::Warm => {
                let base: Vec<Lowered> = base.iter().map(Spec::lowered).collect();
                let fresh: Vec<Lowered> = fresh.iter().map(Spec::lowered).collect();
                let (_, snapshot) = session.compile_ir_suite_exporting(&refs(base.iter()));
                assert!(
                    snapshot.is_some(),
                    "a saturated base suite exports a snapshot"
                );
                Ready {
                    session,
                    pipelines: Vec::new(),
                    base,
                    fresh,
                    snapshot,
                }
            }
        }
    }

    /// Programs in one op.
    fn programs(&self, kind: Kind) -> usize {
        match kind {
            Kind::Batched => self.pipelines.len(),
            Kind::Warm => self.base.len() + 1,
        }
    }

    fn op_refs(&self, i: usize) -> Vec<(&Stmt, &Placements)> {
        refs(self.base.iter().chain([&self.fresh[i % self.fresh.len()]]))
    }

    /// Runs op `i` through the session: the selected programs (or why the
    /// op failed) and the compile report.
    fn op(&self, kind: Kind, i: usize) -> (Result<Vec<Stmt>, String>, CompileReport) {
        match kind {
            Kind::Batched => match self.session.compile_suite(&self.pipelines) {
                Ok(suite) => {
                    let programs = suite
                        .results
                        .into_iter()
                        .map(|r| r.map(|c| c.program).map_err(|e| e.to_string()))
                        .collect();
                    (programs, suite.report)
                }
                Err(e) => (Err(e.to_string()), CompileReport::default()),
            },
            Kind::Warm => {
                let snapshot = self.snapshot.as_ref().expect("exported in setup");
                let (result, rejection) = self
                    .session
                    .compile_ir_suite_warm(&self.op_refs(i), snapshot);
                match rejection {
                    None => (Ok(result.programs), result.report),
                    Some(r) => (Err(format!("warm start rejected: {r}")), result.report),
                }
            }
        }
    }

    /// The untimed output check's compiles: the workload's own session
    /// compiles each op variant once (the suite; or, for `suite_warm`,
    /// the base suite plus each fresh program, cold). Timed replies must
    /// equal these programs, and each distinct program among them runs on
    /// the interpreter against its reference.
    fn verify(&self, kind: Kind, all: &[Spec]) -> Verification {
        let variants: Vec<(Vec<Stmt>, CompileReport, Vec<usize>)> = match kind {
            Kind::Batched => {
                let suite = self
                    .session
                    .compile_suite(&self.pipelines)
                    .expect("non-empty suite");
                let programs = suite
                    .results
                    .into_iter()
                    .map(|r| r.expect("suite program compiles").program)
                    .collect();
                vec![(programs, suite.report, (0..all.len()).collect())]
            }
            Kind::Warm => (0..self.fresh.len())
                .map(|i| {
                    let cold = self.session.compile_ir_suite(&self.op_refs(i));
                    let specs = (0..self.base.len()).chain([self.base.len() + i]).collect();
                    (cold.programs, cold.report, specs)
                })
                .collect(),
        };
        let direct = compile_direct(all);
        let mut v = Verification::default();
        let (mut leaves, mut lowered) = (0, 0);
        for (programs, report, specs) in variants {
            leaves += report.stmts.len();
            lowered += report.stmts.iter().filter(|s| s.lowered).count();
            let texts: Vec<String> = programs.iter().map(program_text).collect();
            for ((program, text), &j) in programs.into_iter().zip(&texts).zip(&specs) {
                if *text != direct.texts[j] {
                    v.per_leaf_diffs += 1;
                }
                if !v
                    .programs
                    .iter()
                    .any(|(k, p)| *k == j && program_text(p) == *text)
                {
                    v.programs.push((j, program));
                }
            }
            v.texts.push(texts);
        }
        v.lowered_leaf_ratio = lowered_ratio(leaves, lowered);
        v
    }

    /// Replays op `i` through the public stage functions.
    fn replay(
        &self,
        kind: Kind,
        replayer: &Replayer,
        engine: &[u8],
        i: usize,
    ) -> (Vec<Stmt>, Trace) {
        match kind {
            Kind::Batched => {
                let started = Instant::now();
                let lowered: Vec<Lowered> = self
                    .pipelines
                    .iter()
                    .map(|p| lower(p).expect("suite pipelines lower"))
                    .collect();
                let lower_time = started.elapsed();
                let (programs, mut trace) = replayer.replay(&refs(lowered.iter()), None);
                trace.lower = lower_time;
                trace.wall += lower_time;
                (programs, trace)
            }
            Kind::Warm => replayer.replay(&self.op_refs(i), Some(engine)),
        }
    }
}

/// What the untimed output check established.
#[derive(Default)]
struct Verification {
    /// The program texts each op variant must reproduce.
    texts: Vec<Vec<String>>,
    /// Distinct `(spec index, program)` pairs among all variants.
    programs: Vec<(usize, Stmt)>,
    lowered_leaf_ratio: f64,
    /// Programs whose batched output differs from a direct per-leaf
    /// compile of the same program.
    per_leaf_diffs: usize,
}

impl Verification {
    fn expected(&self, i: usize) -> Vec<&String> {
        self.texts[i % self.texts.len()].iter().collect()
    }

    fn check_outputs(&self, all: &[Spec]) -> Quality {
        let pairs: Vec<(&Spec, &Stmt)> = self.programs.iter().map(|(j, p)| (&all[*j], p)).collect();
        check_outputs(&pairs)
    }
}

fn mismatch(got: &[Stmt], want: &[&String]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} programs, expected {}", got.len(), want.len()));
    }
    got.iter()
        .zip(want)
        .position(|(g, w)| program_text(g) != **w)
        .map(|i| format!("program {i} differs from its setup-verified text"))
}

/// The workload's distinct programs: the base suite, the fresh pool
/// (`suite_warm` only), and both together.
fn programs_of(kind: Kind, seed: u64) -> (Vec<Spec>, Vec<Spec>, Vec<Spec>) {
    let stream = if kind == Kind::Batched { 1 } else { 2 };
    let base = seeded_suite(&mut Rng::new(seed, stream));
    let fresh = if kind == Kind::Warm {
        fresh_pool(&mut Rng::new(seed, 3))
    } else {
        Vec::new()
    };
    let all = base.iter().chain(&fresh).cloned().collect();
    (base, fresh, all)
}

/// One process's share of a timed run.
pub fn measure(kind: Kind, seed: u64, budget: Duration) -> Samples {
    let (base, fresh, all) = programs_of(kind, seed);
    let mut samples = Samples::default();
    let mut ready = None;
    for _ in 0..SETUPS {
        let started = Instant::now();
        let built = Ready::build(kind, &base, &fresh);
        samples.setups.push(started.elapsed().as_secs_f64());
        ready = Some(built);
    }
    let ready = ready.expect("at least one setup");

    // Untimed output check, part 1: the programs every timed reply must
    // equal.
    let verification = ready.verify(kind, &all);

    let mut cpu_ns = Some(0u64);
    let mut compile_time = Duration::ZERO;
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed() < budget {
        samples.attempted += 1;
        let sched_before = stats::thread_sched();
        let steal_before = stats::steal_ticks();
        let t = Instant::now();
        let (result, report) = ready.op(kind, i);
        let latency = t.elapsed();
        let sched = sched_before
            .zip(stats::thread_sched())
            .map(|(a, b)| b.since(a));
        let steal = steal_before.zip(stats::steal_ticks()).map(|(a, b)| b - a);
        if let (Some(sched), Some(steal)) = (sched, steal) {
            let c = &mut samples.contention;
            c.available = true;
            c.samples += 1;
            c.steal_ticks += steal;
            c.runqueue_wait_ns += sched.wait_ns;
            if stats::contended(latency, sched.wait_ns, steal) {
                c.contended += 1;
            }
        }
        // On-CPU time of the compile calls themselves.
        cpu_ns = cpu_ns.zip(sched).map(|(total, s)| total + s.cpu_ns);
        samples.latencies.push(ms(latency));
        compile_time += latency;
        samples.programs += ready.programs(kind) as u64;
        let failure = match &result {
            Ok(got) => mismatch(got, &verification.expected(i)),
            Err(e) => Some(e.clone()),
        };
        if let Some(why) = failure {
            samples.failed += 1;
            samples.errors.push(format!("op {i}: {why}"));
        }
        if report.outcome != CompileOutcome::Saturated {
            samples.degraded += 1;
        }
        i += 1;
    }
    samples.busy_s = compile_time.as_secs_f64();
    samples.cpu_ns = cpu_ns;
    samples.peak_rss_mib = stats::peak_rss_mib();

    // Untimed output check, part 2: run every distinct program on the
    // interpreter against the reference.
    let quality = verification.check_outputs(&all);
    samples.modelled_device_us = quality.modelled_device_us;
    samples.errors.extend(quality.errors);
    samples.lowered_leaf_ratio = verification.lowered_leaf_ratio;
    samples.count(
        "batched_vs_per_leaf_diffs",
        verification.per_leaf_diffs as u64,
    );
    samples
}

/// Counts one pass of the traced run reports: deterministic, compared
/// between the two passes.
type Counts = BTreeMap<&'static str, f64>;

fn counts_of(report: &CompileReport, trace: &Trace, ops: f64, into: &mut Counts) {
    let run = report.batch.clone().unwrap_or_default();
    let ex = report.extraction.clone().unwrap_or_default();
    let mut add = |k: &'static str, v: f64| *into.entry(k).or_insert(0.0) += v / ops;
    add("egraph.nodes", run.nodes as f64);
    add("egraph.classes", run.classes as f64);
    add("saturate.iterations", run.iterations as f64);
    add("saturate.applied", run.applied as f64);
    add("saturate.matches", trace.matches as f64);
    add("saturate.delta_searches", run.delta_searches as f64);
    add("saturate.full_searches", run.full_searches as f64);
    add("saturate.skipped_searches", run.skipped_searches as f64);
    add("saturate.probed_rows", run.delta_probed_rows as f64);
    add("saturate.skipped_rows", run.delta_skipped_rows as f64);
    add("extract.table_entries", ex.table_entries as f64);
    add("extract.bank_nodes", ex.bank_nodes as f64);
    add("extract.reused_readouts", ex.reused_readouts as f64);
    add("extract.roots", ex.roots() as f64);
}

/// Engine counters the replay must reproduce exactly.
fn replay_drift(report: &CompileReport, trace: &Trace) -> Option<String> {
    let run = report.batch.clone().unwrap_or_default();
    let r = &trace.run;
    let session = (run.nodes, run.classes, run.applied, run.delta_probed_rows);
    let replay = (r.nodes, r.classes, r.applied, r.delta_probed_rows);
    (session != replay).then(|| {
        format!(
            "replay counters (nodes, classes, applied, probed) {replay:?} != session {session:?}"
        )
    })
}

/// The traced run: per-layer metrics.
pub fn traced(kind: Kind, seed: u64, budget: Duration) -> Outcome {
    let (base, fresh, all) = programs_of(kind, seed);
    let (base, fresh, all) = (&base[..], &fresh[..], &all[..]);
    let mut out = Outcome::default();
    let started = Instant::now();
    let replayer = Replayer::new("sim", Mode::Batched);
    let session_rules = hardboiled::SimTarget::new();

    // `rules.build_ms`: the lazy rule-set build every setup pays.
    let mut builds = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let rules = hardboiled::rules::RuleSet::for_profile(hardboiled::Target::rule_profile(
            &session_rules,
        ));
        builds.push(ms(t.elapsed()));
        drop(rules);
    }
    out.set("rules.build_ms", median(&builds));

    // Two passes over a fixed op list, each on a freshly built workload:
    // deterministic counts must repeat exactly.
    let fixed_ops = if kind == Kind::Batched { 1 } else { FRESH };
    let mut passes: Vec<Counts> = Vec::new();
    let mut engine = Vec::new();
    let mut ready = None;
    let mut verification = Verification::default();
    for _ in 0..2 {
        let r = Ready::build(kind, base, fresh);
        verification = r.verify(kind, all);
        let quality = verification.check_outputs(all);
        out.errors.extend(quality.errors);
        let modelled_device_us = quality.modelled_device_us;
        engine = r
            .snapshot
            .as_ref()
            .map_or_else(Vec::new, |s| s.to_bytes()[8..].to_vec());
        let mut counts = Counts::new();
        counts.insert("lowered_leaf_ratio", verification.lowered_leaf_ratio);
        counts.insert("modelled_device_us", modelled_device_us);
        let (mut cold_rows, mut warm_rows) = (0.0, 0.0);
        for i in 0..fixed_ops {
            let (result, report) = r.op(kind, i);
            let (replayed, trace) = r.replay(kind, &replayer, &engine, i);
            out.attempted += 1;
            let failure = match &result {
                Ok(got) => mismatch(got, &verification.expected(i))
                    .or_else(|| {
                        let want: Vec<String> = got.iter().map(program_text).collect();
                        mismatch(&replayed, &want.iter().collect::<Vec<_>>())
                            .map(|m| format!("replay: {m}"))
                    })
                    .or_else(|| replay_drift(&report, &trace)),
                Err(e) => Some(e.clone()),
            };
            if let Some(why) = failure {
                out.failed += 1;
                out.error(format!("traced op {i}: {why}"));
            }
            counts_of(&report, &trace, fixed_ops as f64, &mut counts);
            if kind == Kind::Warm {
                let cold = r.session.compile_ir_suite(&r.op_refs(i));
                cold_rows += cold.report.batch.map_or(0, |b| b.delta_probed_rows) as f64;
                warm_rows += report.batch.map_or(0, |b| b.delta_probed_rows) as f64;
            }
        }
        if kind == Kind::Warm {
            counts.insert("warm.probe_reduction", cold_rows / warm_rows.max(1.0));
            let bytes = r.snapshot.as_ref().map_or(0, SuiteSnapshot::size_bytes);
            counts.insert("snapshot.bytes", bytes as f64);
        }
        let applied = counts["saturate.applied"];
        let matches = counts["saturate.matches"];
        counts.insert("saturate.useful_match_ratio", applied / matches.max(1.0));
        let reused = counts["extract.reused_readouts"];
        let roots = counts["extract.roots"];
        counts.insert("extract.reuse_ratio", reused / roots.max(1.0));
        passes.push(counts);
        ready = Some(r);
    }
    let ready = ready.expect("two passes");
    report_counts(&mut out, &passes[0], &passes[1]);

    // Timing phase: alternate plain session ops and replayed ops until
    // the budget is spent.
    let mut plain = Vec::new();
    let mut restores = Vec::new();
    let mut traces: Vec<Trace> = Vec::new();
    let sched_before = stats::thread_sched();
    let steal_before = stats::steal_ticks();
    let mut programs = 0usize;
    let mut i = 0usize;
    while started.elapsed() < budget || traces.is_empty() {
        let t = Instant::now();
        let (result, report) = ready.op(kind, i);
        let plain_ms = ms(t.elapsed());
        let (replayed, trace) = ready.replay(kind, &replayer, &engine, i);
        let failure = match &result {
            Ok(got) => mismatch(&replayed, &verification.expected(i))
                .map(|m| format!("replay: {m}"))
                .or_else(|| mismatch(got, &verification.expected(i))),
            Err(e) => Some(e.clone()),
        };
        plain.push(plain_ms);
        if let Some(r) = report.snapshot_restore {
            restores.push(ms(r));
        }
        programs += 2 * ready.programs(kind);
        out.attempted += 1;
        if let Some(why) = failure {
            out.failed += 1;
            out.error(format!("traced op {i}: {why}"));
        }
        traces.push(trace);
        i += 1;
    }
    if let (Some(a), Some(b)) = (sched_before, stats::thread_sched()) {
        out.set(
            "process.runqueue_wait_ms_per_program",
            b.since(a).wait_ns as f64 / 1e6 / programs.max(1) as f64,
        );
    }
    if let (Some(a), Some(b)) = (steal_before, stats::steal_ticks()) {
        out.set("process.steal_ticks", (b - a) as f64);
    }

    let med = |f: &dyn Fn(&Trace) -> Duration| {
        median(&traces.iter().map(|t| ms(f(t))).collect::<Vec<_>>())
    };
    let per_program = ready.programs(kind) as f64;
    if kind == Kind::Batched {
        out.set("lower.ms_per_program", med(&|t| t.lower) / per_program);
    } else {
        let mut lowers = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let lowered: Vec<Lowered> = all.iter().map(Spec::lowered).collect();
            lowers.push(ms(t.elapsed()) / lowered.len() as f64);
        }
        out.set("lower.ms_per_program", median(&lowers));
        out.set("snapshot.restore_ms", median(&restores));
    }
    out.set("stage.annotate_ms", med(&|t| t.annotate));
    out.set("stage.encode_ms", med(&|t| t.encode));
    out.set("stage.saturate_ms", med(&|t| t.saturate));
    out.set("stage.extract_solve_ms", med(&|t| t.extract_solve));
    out.set("stage.extract_readout_ms", med(&|t| t.extract_readout));
    out.set("stage.decode_ms", med(&|t| t.decode));
    out.set("stage.splice_ms", med(&|t| t.splice));
    out.set("stage.free_ms", med(&|t| t.free));
    out.set("saturate.search_ms", med(&|t| t.search));
    out.set("saturate.rebuild_ms", med(&|t| t.rebuild));
    out.set("saturate.apply_ms", med(&|t| t.apply));
    let residuals: Vec<f64> = traces.iter().map(Trace::residual).collect();
    let residual = median(&residuals);
    out.set("stage.residual_ratio", residual);
    let traced_p50 = med(&|t| t.wall);
    out.set("trace.overhead_ms", traced_p50 - median(&plain));
    out.meta(
        "layer_tree",
        format!(
            "{{\"residual_median\": {residual:.6}, \"residual_max\": {:.6}, \"bound\": {RESIDUAL_BOUND}, \"ok\": {}, \"traced_p50_ms\": {traced_p50:.4}, \"plain_p50_ms\": {:.4}, \"traced_ops\": {}}}",
            residuals.iter().copied().fold(f64::MIN, f64::max),
            residual.abs() <= RESIDUAL_BOUND,
            median(&plain),
            traces.len()
        ),
    );
    eprintln!(
        "layer tree: stages account for {:.2}% of the traced op (residual {:.4}, bound {RESIDUAL_BOUND})",
        (1.0 - residual) * 100.0,
        residual
    );
    out
}

/// Publishes pass 1's counts and records any count that pass 2 did not
/// repeat as noisy.
pub fn report_counts(out: &mut Outcome, a: &Counts, b: &Counts) {
    let mut noisy = Vec::new();
    for name in crate::COUNTS {
        let (Some(&x), y) = (a.get(name), b.get(name)) else {
            continue;
        };
        if y != Some(&x) {
            noisy.push(format!("\"{name}\""));
        }
        if crate::PER_LAYER.iter().any(|(n, _)| n == name) {
            out.set(name, x);
        }
    }
    if !noisy.is_empty() {
        eprintln!(
            "noisy counts (did not repeat across the two traced passes): {}",
            noisy.join(", ")
        );
    }
    out.meta("noisy_counts", format!("[{}]", noisy.join(", ")));
}
