//! # hb-exec — IR interpreter over simulated memory and accelerators
//!
//! Executes lowered [`hb_ir`] programs functionally: vectorized loads/stores
//! against named [`buffer::Memory`] buffers (with bf16/f16 storage rounding),
//! loops and allocations, and the accelerator [`intrinsics`] HARDBOILED
//! emits, dispatched into the `hb-accel` AMX and WMMA units.
//!
//! Execution doubles as the measurement harness: every access and operation
//! is charged to [`hb_accel::counters::CostCounters`], which the roofline
//! model turns into the runtime estimates that regenerate the paper's
//! figures.
//!
//! ## Example
//!
//! ```
//! use hb_exec::interp::Interp;
//! use hb_ir::builder::*;
//! use hb_ir::types::{MemoryType, ScalarType, Type};
//!
//! # fn main() -> Result<(), hb_exec::buffer::ExecError> {
//! let mut it = Interp::new();
//! it.mem.alloc_init("a", ScalarType::F32, MemoryType::Heap, &[1.0, 2.0, 3.0, 4.0])?;
//! it.mem.alloc("out", ScalarType::F32, 4, MemoryType::Heap)?;
//! // out[i] = a[i] * 2, vectorized 4 wide:
//! let s = store(
//!     "out",
//!     ramp(int(0), int(1), 4),
//!     mul(load(Type::f32().with_lanes(4), "a", ramp(int(0), int(1), 4)), bcast(flt(2.0), 4)),
//! );
//! it.exec(&s)?;
//! assert_eq!(it.mem.snapshot("out")?, vec![2.0, 4.0, 6.0, 8.0]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod buffer;
pub mod interp;
pub mod intrinsics;
pub mod value;

pub use buffer::{Buffer, ExecError, ExecResult, Memory};
pub use interp::Interp;
pub use value::Value;
