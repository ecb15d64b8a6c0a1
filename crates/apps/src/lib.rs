//! # hb-apps — the paper's case-study applications
//!
//! Every workload the paper evaluates, built on the full stack: algorithms
//! and schedules in `hb-lang`, instruction selection by `hardboiled`,
//! functional execution and cost measurement in `hb-exec`/`hb-accel`.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod conv1d;
pub mod conv2d;
pub mod dct_denoise;
pub mod gemm_wmma;
pub mod harness;
pub mod matmul_amx;
pub mod micro2d;
pub mod recursive_filter;
pub mod reference;
pub mod resample_frac;
pub mod resample_int;
