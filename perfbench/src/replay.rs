//! The traced pipeline: one compile replayed through the public stage
//! functions, each stage timed from here, so the per-layer numbers come
//! from the same code the session runs without instrumenting it.
//!
//! The replay mirrors `Session`'s private pipeline: annotate (placement
//! policy + movement annotation) → collect leaves → encode → saturate
//! (`Runner` phased schedule) → extract (solve, then per-root readout) →
//! decode and materialize → splice. Callers assert that the replayed
//! programs equal the session's, so a drift between the two shows up as
//! a failed run rather than as wrong layer numbers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hardboiled::cost::CostModel;
use hardboiled::decode::decode_stmt;
use hardboiled::encode::encode_stmt;
use hardboiled::movement::{annotate_stmt, collect_placements};
use hardboiled::postprocess::try_materialize_stmt;
use hardboiled::rules::{app_specific::declare_relations, RuleSet};
use hardboiled::{CollectingSink, DeviceCost, HbGraph, HbLang, Placements, Target};
use hb_egraph::extract::{CostFunction, Extract, SharedTableExtractor, WorklistExtractor};
use hb_egraph::language::Language;
use hb_egraph::schedule::{Budget, RunReport, Runner, WarmStart};
use hb_egraph::unionfind::Id;
use hb_ir::expr::Expr;
use hb_ir::stmt::Stmt;

/// The session's extraction objective: the device-derived cost model,
/// each node's own charge plus its children's best costs.
struct Cost<'a>(&'a DeviceCost);

impl CostFunction<HbLang> for Cost<'_> {
    fn cost(&self, node: &HbLang, child_cost: &mut dyn FnMut(Id) -> u64) -> u64 {
        let mut total = self.0.node_cost(node);
        for &c in node.children() {
            total = total.saturating_add(child_cost(c));
        }
        total
    }
}

/// Match counters shared by the wrapped guards and appliers.
#[derive(Default)]
struct MatchCounters {
    /// Matches the search found (guard evaluations for guarded rules,
    /// applier calls otherwise).
    found: AtomicU64,
    /// Nanoseconds spent inside appliers.
    apply_ns: AtomicU64,
}

/// A session-equivalent rule set whose guards and appliers count the
/// matches the search hands them and time their application. The
/// wrapping leaves every rule's name, query and purity untouched, so the
/// scheduler treats the rules exactly as the session's.
pub struct TracedRules {
    rules: RuleSet,
    counters: Arc<MatchCounters>,
}

impl TracedRules {
    pub fn new(target: &dyn Target) -> Self {
        let mut rules = RuleSet::for_profile(target.rule_profile());
        let counters = Arc::new(MatchCounters::default());
        for rw in rules.main.iter_mut().chain(rules.support.iter_mut()) {
            let guarded = rw.guard.is_some();
            if let Some(guard) = rw.guard.take() {
                let c = Arc::clone(&counters);
                rw.guard = Some(Box::new(move |eg, s| {
                    c.found.fetch_add(1, Ordering::Relaxed);
                    guard(eg, s)
                }));
            }
            let applier = std::mem::replace(&mut rw.applier, Box::new(|_, _| false));
            let c = Arc::clone(&counters);
            rw.applier = Box::new(move |eg, s| {
                if !guarded {
                    c.found.fetch_add(1, Ordering::Relaxed);
                }
                let started = Instant::now();
                let changed = applier(eg, s);
                c.apply_ns
                    .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                changed
            });
        }
        TracedRules { rules, counters }
    }

    fn take(&self) -> (u64, Duration) {
        let found = self.counters.found.swap(0, Ordering::Relaxed);
        let apply = self.counters.apply_ns.swap(0, Ordering::Relaxed);
        (found, Duration::from_nanos(apply))
    }
}

/// Stage times and engine counters of one replayed compile.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    pub lower: Duration,
    pub restore: Duration,
    pub annotate: Duration,
    pub encode: Duration,
    pub saturate: Duration,
    pub extract_solve: Duration,
    pub extract_readout: Duration,
    pub decode: Duration,
    pub splice: Duration,
    /// Freeing the e-graph and the extractor's tables.
    pub free: Duration,
    /// Wall time of the whole replayed compile, less the tracer's own
    /// bookkeeping (reading the sink and the match counters).
    pub wall: Duration,
    bookkeeping: Duration,
    /// Sum of the profile sink's rule-search samples (search and apply
    /// of each rule) minus the appliers' own time.
    pub search: Duration,
    pub rebuild: Duration,
    pub apply: Duration,
    pub run: RunReport,
    pub matches: u64,
    pub table_entries: usize,
    pub bank_nodes: usize,
    pub reused_readouts: usize,
    pub roots: usize,
}

impl Trace {
    /// The stages that tile the replayed compile.
    pub fn stage_sum(&self) -> Duration {
        self.lower
            + self.restore
            + self.annotate
            + self.encode
            + self.saturate
            + self.extract_solve
            + self.extract_readout
            + self.decode
            + self.splice
            + self.free
    }

    /// Share of the replay's wall time no stage accounts for.
    pub fn residual(&self) -> f64 {
        1.0 - self.stage_sum().as_secs_f64() / self.wall.as_secs_f64().max(1e-12)
    }

    /// Accumulates another graph's counters (per-leaf replays).
    pub fn absorb(&mut self, other: &Trace) {
        self.encode += other.encode;
        self.saturate += other.saturate;
        self.extract_solve += other.extract_solve;
        self.extract_readout += other.extract_readout;
        self.decode += other.decode;
        self.free += other.free;
        self.bookkeeping += other.bookkeeping;
        self.search += other.search;
        self.rebuild += other.rebuild;
        self.apply += other.apply;
        self.matches += other.matches;
        self.table_entries += other.table_entries;
        self.bank_nodes += other.bank_nodes;
        self.reused_readouts += other.reused_readouts;
        self.roots += other.roots;
        add_run(&mut self.run, &other.run);
    }
}

/// How the replay saturates: one shared graph for every leaf (batched)
/// or one graph per leaf.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Batched,
    PerLeaf,
}

/// Everything a replay needs besides the programs: the session's target,
/// cost model, traced rules and a runner with a collecting profile sink.
pub struct Replayer {
    target: Box<dyn Target>,
    cost: DeviceCost,
    rules: TracedRules,
    runner: Runner,
    mode: Mode,
}

/// The session's outer iterations of the main rules.
const OUTER_ITERS: usize = 8;

impl Replayer {
    pub fn new(target_name: &str, mode: Mode) -> Self {
        let target = hb_accel::target::by_name(target_name).expect("registered target");
        let cost = DeviceCost::from_profile(target.device());
        let rules = TracedRules::new(target.as_ref());
        // The session's default runner: 16 iterations per fixpoint, a
        // 500k-node budget batched and 200k per leaf, serial search.
        let limit = match mode {
            Mode::Batched => 500_000,
            Mode::PerLeaf => 200_000,
        };
        Replayer {
            target,
            cost,
            rules,
            runner: Runner::new(16, limit),
            mode,
        }
    }

    fn annotate(&self, stmt: &Stmt, extra: &Placements) -> Stmt {
        let mut placements = collect_placements(stmt);
        for (k, v) in extra {
            placements.insert(k.clone(), *v);
        }
        placements.retain(|_, m| self.target.supports(*m));
        annotate_stmt(stmt, &placements)
    }

    /// Replays one compile call over `programs` (a suite, or a single
    /// program). With `warm`, the shared graph is restored from the
    /// snapshot's engine bytes and saturated with the warm schedule.
    pub fn replay(
        &self,
        programs: &[(&Stmt, &Placements)],
        warm: Option<&[u8]>,
    ) -> (Vec<Stmt>, Trace) {
        let started = Instant::now();
        let mut trace = Trace::default();

        let mut restored = None;
        if let Some(bytes) = warm {
            let t = Instant::now();
            let mut eg = HbGraph::restore(bytes).expect("snapshot restores");
            let cutoff = WarmStart::capture(&mut eg);
            trace.restore = t.elapsed();
            restored = Some((eg, cutoff));
        }

        let t = Instant::now();
        let annotated: Vec<Stmt> = programs
            .iter()
            .map(|(stmt, extra)| self.annotate(stmt, extra))
            .collect();
        let mut leaves = Vec::new();
        for tree in &annotated {
            tree.for_each_stmt(&mut |s| {
                if is_selection_leaf(s) {
                    leaves.push(s.clone());
                }
            });
        }
        trace.annotate = t.elapsed();

        let selected: Vec<Stmt> = if leaves.is_empty() {
            Vec::new()
        } else if self.mode == Mode::Batched {
            self.saturate_extract(&leaves, restored, &mut trace)
        } else {
            leaves
                .iter()
                .map(|leaf| {
                    let mut one = Trace::default();
                    let out = self.saturate_extract(std::slice::from_ref(leaf), None, &mut one);
                    trace.absorb(&one);
                    out.into_iter().next().expect("one leaf in, one out")
                })
                .collect()
        };

        let t = Instant::now();
        let mut next = 0usize;
        let outs: Vec<Stmt> = annotated
            .iter()
            .map(|tree| {
                tree.rewrite_stmts_bottom_up(&mut |s| {
                    is_selection_leaf(s).then(|| {
                        next += 1;
                        selected[next - 1].clone()
                    })
                })
            })
            .collect();
        trace.splice = t.elapsed();
        trace.wall = started.elapsed().saturating_sub(trace.bookkeeping);
        (outs, trace)
    }

    /// Encode → saturate → extract → decode over one graph holding
    /// `leaves` (fresh, or restored for a warm start).
    fn saturate_extract(
        &self,
        leaves: &[Stmt],
        restored: Option<(HbGraph, WarmStart)>,
        trace: &mut Trace,
    ) -> Vec<Stmt> {
        let t = Instant::now();
        let warm = restored.is_some();
        let (mut eg, cutoff) = match restored {
            Some((eg, cutoff)) => (eg, Some(cutoff)),
            None => {
                let mut eg = HbGraph::default();
                declare_relations(&mut eg);
                (eg, None)
            }
        };
        let roots: Vec<Id> = leaves.iter().map(|s| encode_stmt(&mut eg, s)).collect();
        if warm {
            eg.rebuild();
        }
        trace.encode += t.elapsed();

        let t = Instant::now();
        let sink = Arc::new(CollectingSink::new());
        let runner = self.runner.clone().with_profile_sink(sink.clone());
        trace.bookkeeping += t.elapsed();
        let t = Instant::now();
        let rules = &self.rules.rules;
        let run = match cutoff {
            Some(cutoff) => runner.run_phased_warm(
                &mut eg,
                &rules.main,
                &rules.support,
                OUTER_ITERS,
                Budget::none(),
                cutoff,
            ),
            None => runner.run_phased(&mut eg, &rules.main, &rules.support, OUTER_ITERS),
        };
        let saturate = t.elapsed();
        trace.saturate += saturate;
        let t = Instant::now();
        let searched: Duration = sink.samples().iter().map(|s| s.duration).sum();
        let rebuild: Duration = sink.rebuilds().iter().sum();
        let (found, applying) = self.rules.take();
        let search = searched.saturating_sub(applying);
        trace.search += search;
        trace.rebuild += rebuild;
        trace.apply += saturate.saturating_sub(search + rebuild);
        trace.matches += found;
        trace.roots += roots.len();
        trace.bookkeeping += t.elapsed();

        let cost = Cost(&self.cost);
        let t = Instant::now();
        let extractor: Box<dyn Extract<HbLang> + '_> = match self.mode {
            Mode::Batched => Box::new(SharedTableExtractor::new(&eg, cost)),
            Mode::PerLeaf => Box::new(WorklistExtractor::new(&eg, cost)),
        };
        trace.extract_solve += t.elapsed();

        let mut terms = Vec::with_capacity(roots.len());
        let t = Instant::now();
        for &root in &roots {
            let term = extractor.cost_of(root).map(|_| extractor.extract(root));
            terms.push(term);
        }
        trace.extract_readout += t.elapsed();
        let stats = extractor.stats();
        trace.table_entries += stats.table_entries;
        trace.bank_nodes += stats.bank_nodes;
        trace.reused_readouts += stats.reused_readouts;

        let t = Instant::now();
        let selected = terms
            .iter()
            .zip(leaves)
            .map(|(term, original)| {
                term.as_ref()
                    .and_then(|t| decode_stmt(t).ok())
                    .and_then(|d| try_materialize_stmt(&d).ok())
                    .unwrap_or_else(|| original.clone())
            })
            .collect();
        trace.decode += t.elapsed();
        add_run(&mut trace.run, &run);
        let t = Instant::now();
        drop(extractor);
        drop(eg);
        trace.free += t.elapsed();
        selected
    }
}

/// Adds a saturation run's counters to `acc` (one replay can saturate
/// several graphs).
fn add_run(acc: &mut RunReport, run: &RunReport) {
    acc.iterations += run.iterations;
    acc.applied += run.applied;
    acc.nodes += run.nodes;
    acc.classes += run.classes;
    acc.delta_searches += run.delta_searches;
    acc.full_searches += run.full_searches;
    acc.skipped_searches += run.skipped_searches;
    acc.delta_probed_rows += run.delta_probed_rows;
    acc.delta_skipped_rows += run.delta_skipped_rows;
}

fn has_movement(e: &Expr) -> bool {
    let mut found = false;
    e.for_each(&mut |n| found |= matches!(n, Expr::LocToLoc { .. }));
    found
}

/// A `Store`/`Evaluate` carrying data movement: the statements the
/// selector saturates (the session's leaf predicate).
fn is_selection_leaf(s: &Stmt) -> bool {
    match s {
        Stmt::Store { index, value, .. } => has_movement(index) || has_movement(value),
        Stmt::Evaluate(e) => has_movement(e),
        _ => false,
    }
}
