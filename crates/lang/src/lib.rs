//! # hb-lang — a mini user-schedulable language
//!
//! The front end of the reproduction: Halide-style algorithms
//! ([`ast::Func`], [`ast::ImageParam`], [`ast::RDom`]) with separate
//! schedules ([`schedule::StageSchedule`]: `split`, `reorder`, `vectorize`,
//! `unroll`, `atomic`, `gpu_blocks`/`gpu_threads`; [`ast::Func::compute_at`],
//! [`ast::Func::store_in`]), lowered by [`lower::lower`] to `hb-ir` loop
//! nests with nested vectorization ([`vectorize`]) — the IR HARDBOILED's
//! instruction selector consumes.
//!
//! [`ast::Pipeline`] and [`lower::Lowered`] implement
//! `hardboiled::IntoProgram`, so `session.compile(&pipeline)` lowers and
//! selects in one call through the `Session` API.
//!
//! ```
//! use hb_lang::ast::{hf, hv, Func, ImageParam, Pipeline};
//! use hb_ir::types::ScalarType;
//!
//! let img = ImageParam::new("in", ScalarType::F32, &[16]);
//! let out = Func::new("out", &["x"], ScalarType::F32);
//! out.define(img.at(&[hv("x")]) * hf(3.0));
//! out.bound("x", 0, 16);
//! let p = Pipeline::new(&out, &[], &[&img]);
//! let lowered = hb_lang::lower::lower(&p).unwrap();
//! assert_eq!(lowered.output_len, 16);
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod lower;
pub mod schedule;
pub mod vectorize;

pub use ast::{cast_f32, hf, hi, hv, Func, HExpr, ImageParam, Pipeline, RDom};
pub use lower::{lower, Lowered, RegionDim};
pub use schedule::{LoopKind, StageSchedule};
pub use vectorize::{LowerError, LowerResult};
