//! `service_mixed`: a `CompileService` with two workers and default
//! per-leaf `amx`, `wmma` and `sim` sessions sharing one `ReportCache`.
//! A single client keeps two requests outstanding (a closed loop: each
//! caller waits for its reply). The request sequence is fixed by the
//! seed: every pass sends each distinct program once as a first
//! occurrence (a cache miss that fills the cache) and once as a repeat (a
//! hit). A repeat is only sent once its first occurrence has replied, so
//! the hit ratio is exactly one half by construction.
//!
//! Each pass salts its requests with a placement for a buffer no program
//! touches (`perfbench_pass_<n>`). The salt is part of the cache key but
//! changes no compile, so every pass misses and hits exactly like the
//! first while the selected programs stay those verified in setup.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use hardboiled::{
    CacheOutcome, CompileError, CompileOutcome, CompileResult, CompileService, IntoProgram,
    Program, ReportCache, Session, Ticket,
};
use hb_ir::types::MemoryType;
use hb_lang::lower::Lowered;

use crate::replay::{Mode, Replayer, Trace};
use crate::samples::Samples;
use crate::stats::{self, median, ms, percentile, Contention};
use crate::suite::{report_counts, RESIDUAL_BOUND};
use crate::workloads::{
    check_outputs, compile_direct, program_text, Direct, Family, Quality, Rng, Spec,
};
use crate::Outcome;

/// Compile workers: one per vCPU of the 2-vCPU VM the workload targets.
const WORKERS: usize = 2;
/// Requests the client keeps in flight.
const OUTSTANDING: usize = 2;
/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Passes in each determinism pass of the traced run.
const COUNT_PASSES: usize = 3;
/// Contention is sampled over windows of this length.
const WINDOW: Duration = Duration::from_millis(100);

const TARGETS: [&str; 3] = ["amx", "wmma", "sim"];

/// The distinct programs: 24 small shapes (one graph per leaf) from
/// four families, all distinct, with each family's slots alternating
/// between its own accelerator target and `sim`. Every slot keeps a fixed
/// leaf structure (the extents that reach the leaves as strides); the
/// seed permutes the extents that are only loop trip counts (conv output
/// lengths, heights and taps, GEMM and MatMul rows, always at least two
/// trips) across the slots, so every seed compiles the same leaves on
/// different programs.
fn distinct_programs(rng: &mut Rng) -> Vec<Spec> {
    let conv1d: Vec<Family> = rng
        .permuted(&[512, 768, 1024, 1280, 1536, 1792])
        .into_iter()
        .zip(rng.permuted(&[16, 32, 48, 64, 16, 32]))
        .map(|(n, k)| Family::Conv1dTc { n, k })
        .collect();
    let gemm = rng
        .permuted(&[32, 48, 64, 80, 96, 112])
        .into_iter()
        .zip([(16, 16), (16, 32), (32, 16), (32, 32), (32, 48), (48, 48)])
        .map(|(m, (k, n))| Family::Gemm { m, k, n })
        .collect();
    let conv2d = rng
        .permuted(&[16, 24, 32, 40])
        .into_iter()
        .zip([(8, 3), (8, 5), (16, 3), (16, 5)])
        .map(|(height, (kw, kh))| Family::Conv2d {
            width: 256,
            height,
            kw,
            kh,
        })
        .collect();
    let amx_slots = [false, true]
        .into_iter()
        .flat_map(|vnni| [(32, 16), (64, 32), (32, 32), (64, 16)].map(|(k, n)| (k, n, vnni)));
    let amx = rng
        .permuted(&[32, 48, 64, 80, 96, 112, 128, 144])
        .into_iter()
        .zip(amx_slots)
        .map(|(m, (k, n, vnni))| Family::Amx { m, k, n, vnni })
        .collect();
    let mut specs = Vec::new();
    for (shapes, own) in [
        (conv1d, "wmma"),
        (gemm, "wmma"),
        (conv2d, "wmma"),
        (amx, "amx"),
    ] {
        for (i, family) in shapes.into_iter().enumerate() {
            specs.push(Spec::new(family, if i % 2 == 0 { own } else { "sim" }));
        }
    }
    specs
}

/// One pass's request order: `(program, first occurrence?)`. Program `p`
/// first appears at its shuffled position and repeats at least three
/// positions later.
fn pass_order(rng: &mut Rng, distinct: usize) -> Vec<(usize, bool)> {
    let mut firsts: Vec<usize> = (0..distinct).collect();
    rng.shuffle(&mut firsts);
    let mut timed: Vec<(f64, usize, bool)> = Vec::with_capacity(2 * distinct);
    for (pos, &p) in firsts.iter().enumerate() {
        timed.push((pos as f64, p, true));
        timed.push((pos as f64 + 3.0 + rng.unit() * distinct as f64, p, false));
    }
    timed.sort_by(|a, b| a.0.total_cmp(&b.0));
    timed.into_iter().map(|(_, p, first)| (p, first)).collect()
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// A request: a pre-lowered program plus its pass's salt placement. In
/// traced passes it records when a worker picks it up (`to_program` is
/// the first thing a worker runs for a request), which ends its queue
/// wait.
struct Request {
    lowered: Arc<Lowered>,
    salt: Arc<str>,
    picked: Option<Arc<AtomicU64>>,
}

impl IntoProgram for Request {
    fn to_program(&self) -> Result<Program, CompileError> {
        if let Some(picked) = &self.picked {
            picked.store(epoch().elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        let mut program = self.lowered.to_program()?;
        program
            .placements
            .insert(self.salt.to_string(), MemoryType::Heap);
        Ok(program)
    }
}

struct Pending {
    slot: (usize, usize),
    submitted: Instant,
    ticket: Ticket,
    picked: Option<Arc<AtomicU64>>,
}

struct Done {
    slot: (usize, usize),
    submitted: Instant,
    done: Instant,
    picked: Option<Instant>,
    result: Result<CompileResult, CompileError>,
}

/// A built service, ready for timed passes.
struct Ready {
    service: CompileService,
    lowered: Vec<Arc<Lowered>>,
}

impl Ready {
    /// Lowers the distinct programs, builds the service and runs the
    /// first compile on every target (building its lazy rule set) with a
    /// salt no pass uses.
    fn build(specs: &[Spec]) -> Ready {
        let lowered: Vec<Arc<Lowered>> = specs.iter().map(|s| Arc::new(s.lowered())).collect();
        let mut builder = CompileService::builder()
            .worker_threads(WORKERS)
            .shared_cache(Arc::new(ReportCache::new(2 * specs.len())));
        for t in TARGETS {
            builder = builder.register_target(t);
        }
        let service = builder.build().expect("service builds");
        let salt: Arc<str> = Arc::from("perfbench_setup");
        for t in TARGETS {
            let j = specs
                .iter()
                .position(|s| s.target == t)
                .expect("every target has programs");
            let request = Request {
                lowered: Arc::clone(&lowered[j]),
                salt: Arc::clone(&salt),
                picked: None,
            };
            service
                .submit(t, request)
                .expect("setup request accepted")
                .wait()
                .expect("setup compile");
        }
        Ready { service, lowered }
    }
}

/// When a closed-loop drive stops submitting.
#[derive(Clone, Copy)]
enum Stop {
    After(Duration),
    Passes(usize),
}

/// What one closed-loop drive measured.
#[derive(Default)]
struct Drive {
    latencies: Vec<f64>,
    hit_latencies: Vec<f64>,
    miss_latencies: Vec<f64>,
    queue_waits: Vec<f64>,
    runs: Vec<f64>,
    attempted: u64,
    failed: u64,
    degraded: u64,
    unexpected_cache: u64,
    errors: Vec<String>,
    contention: Contention,
    verify_cpu_ns: u64,
    wall: Duration,
    passes: usize,
}

/// Runs the closed loop from pass `first_pass` on until `stop`.
fn drive(
    ready: &Ready,
    specs: &[Spec],
    order: &[(usize, bool)],
    texts: &[String],
    first_pass: usize,
    stop: Stop,
    traced: bool,
) -> Drive {
    let mut d = Drive::default();
    let (pending_tx, pending_rx): (Sender<Pending>, Receiver<Pending>) = channel();
    let pending_rx = Mutex::new(pending_rx);
    let (done_tx, done_rx) = channel::<Done>();
    std::thread::scope(|scope| {
        for _ in 0..OUTSTANDING {
            let done_tx = done_tx.clone();
            let pending_rx = &pending_rx;
            scope.spawn(move || loop {
                let next = pending_rx.lock().expect("waiter lock").recv();
                let Ok(p) = next else { break };
                let result = p.ticket.wait();
                let done = Instant::now();
                let picked = p
                    .picked
                    .map(|ns| epoch() + Duration::from_nanos(ns.load(Ordering::Relaxed)));
                let _ = done_tx.send(Done {
                    slot: p.slot,
                    submitted: p.submitted,
                    done,
                    picked,
                    result,
                });
            });
        }
        drop(done_tx);

        let started = Instant::now();
        let mut window_start = started;
        let mut window_sched = stats::process_sched();
        let mut window_steal = stats::steal_ticks();
        let mut salts: Vec<Arc<str>> = Vec::new();
        let mut first_done: HashSet<(usize, usize)> = HashSet::new();
        let mut next = 0usize;
        let mut outstanding = 0usize;
        let mut submitting = true;
        let mut last_done = started;
        loop {
            while submitting && outstanding < OUTSTANDING {
                let pass = first_pass + next / order.len();
                let (program, first) = order[next % order.len()];
                if !first && !first_done.contains(&(pass, program)) {
                    break;
                }
                while salts.len() <= pass {
                    salts.push(Arc::from(format!("perfbench_pass_{}", salts.len())));
                }
                let picked = traced.then(|| Arc::new(AtomicU64::new(0)));
                let request = Request {
                    lowered: Arc::clone(&ready.lowered[program]),
                    salt: Arc::clone(&salts[pass]),
                    picked: picked.clone(),
                };
                let submitted = Instant::now();
                d.attempted += 1;
                match ready.service.submit(specs[program].target, request) {
                    Ok(ticket) => {
                        outstanding += 1;
                        pending_tx
                            .send(Pending {
                                slot: (pass, program),
                                submitted,
                                ticket,
                                picked,
                            })
                            .expect("waiters alive");
                    }
                    Err(e) => {
                        d.failed += 1;
                        d.errors.push(format!("submit refused: {e}"));
                        first_done.insert((pass, program));
                    }
                }
                next += 1;
                submitting = match stop {
                    Stop::After(budget) => started.elapsed() < budget,
                    Stop::Passes(n) => next < n * order.len(),
                };
            }
            if outstanding == 0 {
                break;
            }
            let done = done_rx
                .recv()
                .expect("a waiter holds every outstanding ticket");
            outstanding -= 1;
            last_done = done.done;
            let (pass, program) = done.slot;
            let first = !first_done.contains(&(pass, program));
            first_done.insert((pass, program));

            let verify_before = stats::thread_sched();
            let latency = done.done - done.submitted;
            d.latencies.push(ms(latency));
            if let Some(picked) = done.picked {
                let wait = picked.saturating_duration_since(done.submitted);
                d.queue_waits.push(ms(wait));
                d.runs.push(ms(latency.saturating_sub(wait)));
            }
            match &done.result {
                Ok(result) => {
                    if program_text(&result.program) != texts[program] {
                        d.failed += 1;
                        d.errors.push(format!(
                            "program {program} differs from its setup-verified text"
                        ));
                    }
                    if result.report.outcome != CompileOutcome::Saturated {
                        d.degraded += 1;
                    }
                    let expected = if first {
                        CacheOutcome::Miss
                    } else {
                        CacheOutcome::Hit
                    };
                    if result.report.cache != expected {
                        d.unexpected_cache += 1;
                        d.errors.push(format!(
                            "program {program} in pass {pass}: cache {:?}, expected {expected:?}",
                            result.report.cache
                        ));
                    }
                    match result.report.cache {
                        CacheOutcome::Hit => d.hit_latencies.push(ms(latency)),
                        _ => d.miss_latencies.push(ms(latency)),
                    }
                }
                Err(e) => {
                    d.failed += 1;
                    d.errors.push(format!("program {program}: {e}"));
                }
            }
            if let (Some(a), Some(b)) = (verify_before, stats::thread_sched()) {
                d.verify_cpu_ns += b.since(a).cpu_ns;
            }

            let now = Instant::now();
            if now - window_start >= WINDOW {
                if let (Some(s0), Some(s1), Some(t0), Some(t1)) = (
                    window_sched,
                    stats::process_sched(),
                    window_steal,
                    stats::steal_ticks(),
                ) {
                    let wait = s1.since(s0).wait_ns;
                    let c = &mut d.contention;
                    c.available = true;
                    c.samples += 1;
                    c.steal_ticks += t1 - t0;
                    c.runqueue_wait_ns += wait;
                    // Two workers, the client and its waiters share the
                    // two vCPUs, so run-queue wait is part of this
                    // workload; only steal marks a window contended.
                    if t1 > t0 {
                        c.contended += 1;
                    }
                    window_sched = Some(s1);
                    window_steal = Some(t1);
                }
                window_start = now;
            }
        }
        drop(pending_tx);
        d.wall = last_done - started;
        d.passes = next.div_ceil(order.len());
    });
    d
}

fn programs_of(seed: u64) -> (Vec<Spec>, Vec<(usize, bool)>) {
    let specs = distinct_programs(&mut Rng::new(seed, 4));
    let order = pass_order(&mut Rng::new(seed, 5), specs.len());
    (specs, order)
}

/// One process's share of a timed run.
pub fn measure(seed: u64, budget: Duration) -> Samples {
    let (specs, order) = programs_of(seed);
    let mut samples = Samples::default();
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        let started = Instant::now();
        let built = Ready::build(&specs);
        samples.setups.push(started.elapsed().as_secs_f64());
        ready = Some(built);
    }
    let ready = ready.expect("at least one setup");
    let direct = compile_direct(&specs);

    let sched_before = stats::process_sched();
    let d = drive(
        &ready,
        &specs,
        &order,
        &direct.texts,
        0,
        Stop::After(budget),
        false,
    );
    samples.cpu_ns = sched_before
        .zip(stats::process_sched())
        .map(|(a, b)| b.since(a).cpu_ns.saturating_sub(d.verify_cpu_ns));
    samples.peak_rss_mib = stats::peak_rss_mib();
    ready.service.shutdown();

    let quality = check_direct(&specs, &direct);
    samples.errors.extend(quality.errors);
    samples.errors.extend(d.errors.into_iter().take(5));
    samples.programs = d.latencies.len() as u64;
    samples.latencies = d.latencies;
    samples.busy_s = d.wall.as_secs_f64();
    samples.attempted = d.attempted;
    samples.failed = d.failed;
    samples.degraded = d.degraded;
    samples.contention = d.contention;
    samples.lowered_leaf_ratio = direct.lowered_leaf_ratio;
    samples.modelled_device_us = quality.modelled_device_us;
    samples.count("passes", d.passes as u64);
    samples.count("distinct_programs", specs.len() as u64);
    samples.count("unexpected_cache_outcomes", d.unexpected_cache);
    samples
}

/// Runs the directly compiled programs (the texts every reply must
/// equal) on the interpreter.
fn check_direct(specs: &[Spec], direct: &Direct) -> Quality {
    let pairs: Vec<_> = specs.iter().zip(&direct.programs).collect();
    check_outputs(&pairs)
}

/// Service-side histogram sums (ns): queue wait and run.
fn service_sums(service: &CompileService) -> (u64, u64) {
    let snap = service.metrics_snapshot();
    let sum = |name: &str| snap.histogram(name).map_or(0, |h| h.sum);
    (sum("service.wait_ns"), sum("service.run_ns"))
}

/// The traced run: per-layer metrics.
pub fn traced(seed: u64, budget: Duration) -> Outcome {
    let (specs, order) = programs_of(seed);
    let (specs, order) = (&specs[..], &order[..]);
    let mut out = Outcome::default();
    let started = Instant::now();

    // `rules.build_ms`: the three lazy rule-set builds every setup pays.
    let mut builds = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        for name in TARGETS {
            let target = hb_accel::target::by_name(name).expect("registered target");
            drop(hardboiled::rules::RuleSet::for_profile(
                target.rule_profile(),
            ));
        }
        builds.push(ms(t.elapsed()));
    }
    out.set("rules.build_ms", median(&builds));
    let mut lowers = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let lowered: Vec<Lowered> = specs.iter().map(Spec::lowered).collect();
        lowers.push(ms(t.elapsed()) / lowered.len() as f64);
    }
    out.set("lower.ms_per_program", median(&lowers));

    let replayers: Vec<(&str, Replayer)> = TARGETS
        .iter()
        .map(|&t| (t, Replayer::new(t, Mode::PerLeaf)))
        .collect();
    let replayer = |target: &str| {
        &replayers
            .iter()
            .find(|(t, _)| *t == target)
            .expect("target")
            .1
    };
    let sessions: Vec<(&str, Session)> = TARGETS
        .iter()
        .map(|&t| {
            (
                t,
                Session::builder()
                    .target_name(t)
                    .build()
                    .expect("target session"),
            )
        })
        .collect();
    let session = |target: &str| {
        &sessions
            .iter()
            .find(|(t, _)| *t == target)
            .expect("target")
            .1
    };

    // Two determinism passes, each on a freshly built service.
    let mut passes = Vec::new();
    let mut texts = Vec::new();
    let mut ready = None;
    for _ in 0..2 {
        drop(ready.take());
        let r = Ready::build(specs);
        let direct = compile_direct(specs);
        let quality = check_direct(specs, &direct);
        out.errors.extend(quality.errors.iter().cloned());
        texts = direct.texts.clone();
        let before = r.service.cache_stats().unwrap_or_default();
        let d = drive(
            &r,
            specs,
            order,
            &texts,
            0,
            Stop::Passes(COUNT_PASSES),
            true,
        );
        let after = r.service.cache_stats().unwrap_or_default();
        out.attempted += d.attempted;
        out.failed += d.failed;
        for e in d.errors.iter().take(5) {
            out.error(e.clone());
        }
        let hits = (after.hits - before.hits) as f64;
        let misses = (after.misses - before.misses) as f64;
        let mut counts = std::collections::BTreeMap::new();
        counts.insert("cache.hit_ratio", hits / (hits + misses).max(1.0));
        counts.insert(
            "cache.evictions",
            (after.evictions - before.evictions) as f64,
        );
        counts.insert("lowered_leaf_ratio", direct.lowered_leaf_ratio);
        counts.insert("modelled_device_us", quality.modelled_device_us);
        let mut total = Trace::default();
        for (j, spec) in specs.iter().enumerate() {
            let lowered = &r.lowered[j];
            let (programs, trace) =
                replayer(spec.target).replay(&[(&lowered.stmt, &lowered.placements)], None);
            if program_text(&programs[0]) != texts[j] {
                out.failed += 1;
                out.error(format!("replay of program {j} differs from the session's"));
            }
            total.absorb(&trace);
        }
        let n = specs.len() as f64;
        let run = &total.run;
        for (k, v) in [
            ("egraph.nodes", run.nodes as f64),
            ("egraph.classes", run.classes as f64),
            ("saturate.iterations", run.iterations as f64),
            ("saturate.applied", run.applied as f64),
            ("saturate.matches", total.matches as f64),
            ("saturate.delta_searches", run.delta_searches as f64),
            ("saturate.full_searches", run.full_searches as f64),
            ("saturate.skipped_searches", run.skipped_searches as f64),
            ("saturate.probed_rows", run.delta_probed_rows as f64),
            ("saturate.skipped_rows", run.delta_skipped_rows as f64),
            ("extract.table_entries", total.table_entries as f64),
            ("extract.bank_nodes", total.bank_nodes as f64),
        ] {
            counts.insert(k, v / n);
        }
        counts.insert(
            "saturate.useful_match_ratio",
            run.applied as f64 / (total.matches as f64).max(1.0),
        );
        counts.insert(
            "extract.reuse_ratio",
            total.reused_readouts as f64 / (total.roots as f64).max(1.0),
        );
        passes.push(counts);
        ready = Some(r);
    }
    let ready = ready.expect("two passes");
    report_counts(&mut out, &passes[0], &passes[1]);

    let sched_before = stats::process_sched();
    let steal_before = stats::steal_ticks();
    let mut programs = 0usize;

    // Timing phase, first half: plain and traced passes through the
    // service, alternating, on salts the cache has not seen.
    let half = started.elapsed() + budget.saturating_sub(started.elapsed()) / 2;
    let (mut plain, mut traced_d) = (Drive::default(), Drive::default());
    let (mut wait_ns, mut run_ns, mut traced_latency) = (0u64, 0u64, 0.0f64);
    let mut pass = COUNT_PASSES;
    while started.elapsed() < half || traced_d.latencies.is_empty() {
        for is_traced in [false, true] {
            let sums_before = service_sums(&ready.service);
            let d = drive(
                &ready,
                specs,
                order,
                &texts,
                pass,
                Stop::Passes(1),
                is_traced,
            );
            let sums_after = service_sums(&ready.service);
            pass += 1;
            programs += d.latencies.len();
            out.attempted += d.attempted;
            out.failed += d.failed;
            for e in d.errors.iter().take(5) {
                out.error(e.clone());
            }
            let acc = if is_traced { &mut traced_d } else { &mut plain };
            if is_traced {
                wait_ns += sums_after.0 - sums_before.0;
                run_ns += sums_after.1 - sums_before.1;
                traced_latency += d.latencies.iter().sum::<f64>();
            }
            acc.latencies.extend(d.latencies);
            acc.hit_latencies.extend(d.hit_latencies);
            acc.miss_latencies.extend(d.miss_latencies);
            acc.queue_waits.extend(d.queue_waits);
            acc.runs.extend(d.runs);
            acc.wall += d.wall;
        }
    }
    out.set(
        "service.queue_wait_ms_p50",
        percentile(&traced_d.queue_waits, 0.5),
    );
    out.set(
        "service.queue_wait_ms_p90",
        percentile(&traced_d.queue_waits, 0.9),
    );
    out.set("service.run_ms_p50", percentile(&traced_d.runs, 0.5));
    out.set(
        "service.worker_busy_ratio",
        run_ns as f64 / 1e9 / (WORKERS as f64 * traced_d.wall.as_secs_f64().max(1e-9)),
    );
    out.set("cache.hit_ms_p50", percentile(&traced_d.hit_latencies, 0.5));
    out.set(
        "cache.miss_ms_p50",
        percentile(&traced_d.miss_latencies, 0.5),
    );
    out.set(
        "trace.overhead_ms",
        percentile(&traced_d.latencies, 0.5) - percentile(&plain.latencies, 0.5),
    );
    // queue wait + run tile each request's latency by construction; the
    // service's own wait and run histograms must cover that latency up
    // to the reply hand-off.
    let service_residual = 1.0 - (wait_ns + run_ns) as f64 / 1e6 / traced_latency.max(1e-9);
    // Run-queue wait of the workers and the client, read while the
    // workers are alive; the replay half below runs on this thread.
    let mut runqueue_wait_ns = sched_before
        .zip(stats::process_sched())
        .map(|(a, b)| b.since(a).wait_ns);
    ready.service.shutdown();
    let replay_sched_before = stats::thread_sched();

    // Second half: each distinct program compiled through a direct
    // per-leaf session (the compile a cache miss runs), then replayed.
    let mut traces = Vec::new();
    let mut j = 0usize;
    while started.elapsed() < budget || traces.is_empty() {
        let spec = &specs[j % specs.len()];
        let lowered = &ready.lowered[j % specs.len()];
        let result = session(spec.target).compile(lowered.as_ref());
        let (replayed, trace) =
            replayer(spec.target).replay(&[(&lowered.stmt, &lowered.placements)], None);
        programs += 2;
        out.attempted += 1;
        let want = &texts[j % specs.len()];
        let ok = matches!(&result, Ok(r) if program_text(&r.program) == *want)
            && program_text(&replayed[0]) == *want;
        if !ok {
            out.failed += 1;
            out.error(format!(
                "traced compile of program {} differs",
                j % specs.len()
            ));
        }
        traces.push(trace);
        j += 1;
    }
    runqueue_wait_ns = runqueue_wait_ns
        .zip(replay_sched_before.zip(stats::thread_sched()))
        .map(|(service, (a, b))| service + b.since(a).wait_ns);
    if let Some(wait_ns) = runqueue_wait_ns {
        out.set(
            "process.runqueue_wait_ms_per_program",
            wait_ns as f64 / 1e6 / programs.max(1) as f64,
        );
    }
    if let (Some(a), Some(b)) = (steal_before, stats::steal_ticks()) {
        out.set("process.steal_ticks", (b - a) as f64);
    }
    let med = |f: &dyn Fn(&Trace) -> Duration| {
        median(&traces.iter().map(|t| ms(f(t))).collect::<Vec<_>>())
    };
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
    out.meta(
        "layer_tree",
        format!(
            "{{\"residual_median\": {residual:.6}, \"bound\": {RESIDUAL_BOUND}, \"ok\": {}, \"service_residual\": {service_residual:.6}, \"traced_requests\": {}, \"replayed_programs\": {}}}",
            residual.abs() <= RESIDUAL_BOUND,
            traced_d.latencies.len(),
            traces.len()
        ),
    );
    eprintln!(
        "layer tree: stages account for {:.2}% of a replayed miss (residual {residual:.4}, bound {RESIDUAL_BOUND}); service wait+run cover {:.2}% of request latency",
        (1.0 - residual) * 100.0,
        (1.0 - service_residual) * 100.0
    );
    out
}
