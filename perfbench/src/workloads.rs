//! Seeded workload inputs: program shapes drawn from the `hb-apps`
//! families under their asserted constraints, and the setup-time output
//! check every distinct program goes through before any timed reply is
//! trusted.

use std::collections::HashMap;

use hardboiled::postprocess::normalize_temps;
use hardboiled::Session;
use hb_accel::perf::estimate;
use hb_apps::conv1d::Conv1d;
use hb_apps::conv2d::Conv2d;
use hb_apps::gemm_wmma::GemmWmma;
use hb_apps::harness::max_rel_error;
use hb_apps::matmul_amx::{AmxMatmul, Layout, Variant};
use hb_exec::Interp;
use hb_ir::stmt::Stmt;
use hb_ir::types::MemoryType;
use hb_lang::lower::{lower, Lowered};
use hb_lang::Pipeline;

/// `splitmix64`: a tiny, seedable, dependency-free generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// The items in a seeded order.
    pub fn permuted<T: Copy>(&mut self, items: &[T]) -> Vec<T> {
        let mut out = items.to_vec();
        self.shuffle(&mut out);
        out
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One program shape from an `hb-apps` family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Tensor-core 1-D convolution (`n % 256 == 0`, `k % 8 == 0`).
    Conv1dTc { n: i64, k: i64 },
    /// The same with the outer reduction unrolled: `k / 8` statements.
    Conv1dUnrolled { n: i64, k: i64 },
    /// Tensor-core 2-D convolution (`width % 256 == 0`, `kw % 8 == 0`).
    Conv2d {
        width: i64,
        height: i64,
        kw: i64,
        kh: i64,
    },
    /// WMMA GEMM (all extents multiples of 16).
    Gemm { m: i64, k: i64, n: i64 },
    /// AMX MatMul, reference schedule (`m, n % 16`, `k % 32`).
    Amx { m: i64, k: i64, n: i64, vnni: bool },
}

/// A distinct program of a workload: its shape and the registered target
/// its requests go to.
#[derive(Debug, Clone)]
pub struct Spec {
    pub family: Family,
    pub target: &'static str,
}

impl Spec {
    pub fn new(family: Family, target: &'static str) -> Self {
        Spec { family, target }
    }

    pub fn pipeline(&self) -> Pipeline {
        match self.family {
            Family::Conv1dTc { n, k } => Conv1d { n, k }.pipeline(true),
            Family::Conv1dUnrolled { n, k } => Conv1d { n, k }.pipeline_tc_unrolled(),
            Family::Conv2d {
                width,
                height,
                kw,
                kh,
            } => Conv2d {
                width,
                height,
                kw,
                kh,
            }
            .pipeline(true),
            Family::Gemm { m, k, n } => GemmWmma { m, k, n }.pipeline(true),
            Family::Amx { m, k, n, vnni } => {
                let layout = if vnni { Layout::Vnni } else { Layout::Standard };
                AmxMatmul { m, k, n }
                    .pipeline(layout, Variant::Reference)
                    .expect("the reference AMX schedule is expressible")
            }
        }
    }

    pub fn lowered(&self) -> Lowered {
        lower(&self.pipeline()).expect("every family lowers")
    }

    /// Input buffers by name, and the reference output.
    fn inputs_and_reference(&self) -> (Vec<(&'static str, Vec<f64>)>, Vec<f64>) {
        match self.family {
            Family::Conv1dTc { n, k } | Family::Conv1dUnrolled { n, k } => {
                let app = Conv1d { n, k };
                let (i, kern) = app.inputs();
                (vec![("I", i), ("K", kern)], app.reference())
            }
            Family::Conv2d {
                width,
                height,
                kw,
                kh,
            } => {
                let app = Conv2d {
                    width,
                    height,
                    kw,
                    kh,
                };
                let (i, kern) = app.inputs();
                (vec![("I", i), ("K", kern)], app.reference())
            }
            Family::Gemm { m, k, n } => {
                let app = GemmWmma { m, k, n };
                let (a, b) = app.inputs();
                (vec![("A", a), ("B", b)], app.reference())
            }
            Family::Amx { m, k, n, .. } => {
                let app = AmxMatmul { m, k, n };
                let inputs = app.inputs();
                let want = app.reference(&inputs);
                (
                    vec![
                        ("A", inputs.a_buf),
                        ("B", inputs.b_buf),
                        ("Bv", inputs.b_vnni),
                    ],
                    want,
                )
            }
        }
    }

    /// The tolerances of the repository's integration tests: conv under
    /// 0.08, matmul and GEMM under 0.05.
    fn tolerance(&self) -> f64 {
        match self.family {
            Family::Conv1dTc { .. } | Family::Conv1dUnrolled { .. } | Family::Conv2d { .. } => 0.08,
            Family::Gemm { .. } | Family::Amx { .. } => 0.05,
        }
    }
}

/// The printed form every timed reply is compared in.
pub fn program_text(stmt: &Stmt) -> String {
    normalize_temps(&stmt.to_string())
}

/// Programs compiled once through a direct per-leaf session on their
/// target, with the share of accelerator leaves that lowered.
pub struct Direct {
    /// Selected programs, in spec order.
    pub programs: Vec<Stmt>,
    /// Their printed forms after `normalize_temps`.
    pub texts: Vec<String>,
    /// Accelerator leaves lowered to intrinsics / all accelerator leaves.
    pub lowered_leaf_ratio: f64,
}

/// Compiles every distinct program once through a direct per-leaf
/// session on its target. Sessions are built once per target.
pub fn compile_direct(specs: &[Spec]) -> Direct {
    let mut sessions: HashMap<&'static str, Session> = HashMap::new();
    let (mut leaves, mut lowered_leaves) = (0usize, 0usize);
    let mut programs = Vec::new();
    for spec in specs {
        let session = sessions.entry(spec.target).or_insert_with(|| {
            Session::builder()
                .target_name(spec.target)
                .build()
                .expect("registered target")
        });
        let result = session.compile(&spec.lowered()).expect("direct compile");
        leaves += result.report.stmts.len();
        lowered_leaves += result.report.stmts.iter().filter(|s| s.lowered).count();
        programs.push(result.program);
    }
    Direct {
        texts: programs.iter().map(program_text).collect(),
        programs,
        lowered_leaf_ratio: lowered_ratio(leaves, lowered_leaves),
    }
}

pub fn lowered_ratio(leaves: usize, lowered: usize) -> f64 {
    lowered as f64 / leaves.max(1) as f64
}

/// What running a workload's distinct programs on the interpreter
/// established.
pub struct Quality {
    /// Geometric mean of the modelled kernel time (roofline body, launch
    /// overhead excluded) on each request target's device, in
    /// microseconds.
    pub modelled_device_us: f64,
    /// One message per program whose interpreted output missed the
    /// reference.
    pub errors: Vec<String>,
}

/// Runs each selected program on the interpreter, compares its output
/// against `hb_apps::reference` at the test tolerances, and models its
/// kernel time on the target's device from the execution counters.
///
/// The modelled time leaves out the device's fixed launch overhead: it is
/// the same for every program and would otherwise hide the kernel body a
/// worse selection slows down.
pub fn check_outputs(programs: &[(&Spec, &Stmt)]) -> Quality {
    let mut log_sum = 0.0f64;
    let mut errors = Vec::new();
    for &(spec, program) in programs {
        let lowered = spec.lowered();
        let (inputs, want) = spec.inputs_and_reference();
        let mut it = Interp::new();
        let run = (|| -> Result<Vec<f64>, String> {
            for (name, elem, len) in &lowered.inputs {
                let data = inputs
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or_else(|| vec![0.0; *len as usize], |(_, d)| d.clone());
                it.mem
                    .alloc_init(name, *elem, MemoryType::Heap, &data)
                    .map_err(|e| e.to_string())?;
            }
            it.mem
                .alloc(
                    &lowered.output_name,
                    lowered.output_elem,
                    lowered.output_len as usize,
                    MemoryType::Heap,
                )
                .map_err(|e| e.to_string())?;
            it.run_kernel(program).map_err(|e| e.to_string())?;
            it.mem
                .snapshot(&lowered.output_name)
                .map_err(|e| e.to_string())
        })();
        match run {
            Ok(got) if got.len() == want.len() && max_rel_error(&got, &want) < spec.tolerance() => {
            }
            Ok(got) => errors.push(format!(
                "wrong output: {:?} on {}: max rel error {:.4}",
                spec.family,
                spec.target,
                max_rel_error(&got, &want)
            )),
            Err(e) => errors.push(format!(
                "wrong output: {:?} on {}: {e}",
                spec.family, spec.target
            )),
        }
        let target = hb_accel::target::by_name(spec.target).expect("registered target");
        let t = estimate(&it.counters(), target.device());
        log_sum += ((t.total_s - t.launch_s) * 1e6).max(f64::MIN_POSITIVE).ln();
    }
    Quality {
        modelled_device_us: (log_sum / programs.len().max(1) as f64).exp(),
        errors,
    }
}

/// The suite composition both suite workloads draw from: the family
/// counts of the repository's selector pool (three tensorized and four
/// unrolled conv1d, three GEMMs, two conv2d, two AMX MatMuls), so the
/// shared graph stays near 2.5k nodes.
///
/// The seed permutes each family's extents across its slots, and only
/// extents that never reach a selection leaf (loop trip counts: conv
/// output lengths and heights, GEMM and MatMul rows, tensorized conv
/// taps), never down to a single iteration (a one-trip loop simplifies
/// away and changes the leaves). Every seed therefore compiles the same
/// leaf structure — equal engine work — while the programs themselves,
/// their cache keys and their outputs differ; the modelled kernel times
/// are a permutation of one multiset.
pub fn seeded_suite(rng: &mut Rng) -> Vec<Spec> {
    let mut specs = Vec::new();
    let ns = rng.permuted(&[512, 768, 1024]);
    let ks = rng.permuted(&[16, 32, 64]);
    for (n, k) in ns.into_iter().zip(ks) {
        specs.push(Family::Conv1dTc { n, k });
    }
    let ns = rng.permuted(&[512, 768, 1024, 1280]);
    for (n, k) in ns.into_iter().zip([64, 128, 256, 512]) {
        specs.push(Family::Conv1dUnrolled { n, k });
    }
    let ms = rng.permuted(&[32, 64, 96]);
    for (m, (k, n)) in ms.into_iter().zip([(32, 32), (64, 64), (32, 48)]) {
        specs.push(Family::Gemm { m, k, n });
    }
    let heights = rng.permuted(&[32, 64]);
    let khs = rng.permuted(&[3, 5]);
    for ((height, kh), (width, kw)) in heights.into_iter().zip(khs).zip([(512, 16), (256, 8)]) {
        specs.push(Family::Conv2d {
            width,
            height,
            kw,
            kh,
        });
    }
    let ms = rng.permuted(&[32, 48]);
    for (m, vnni) in ms.into_iter().zip([false, true]) {
        specs.push(Family::Amx {
            m,
            k: 64,
            n: 32,
            vnni,
        });
    }
    specs.into_iter().map(|f| Spec::new(f, "sim")).collect()
}
