//! # hb-accel — tensor accelerator simulators and performance model
//!
//! Functional, bit-careful simulators for the two accelerator families the
//! paper targets — Intel AMX tile registers ([`amx`]) and Nvidia Tensor Core
//! WMMA fragments ([`wmma`]) — together with the roofline performance model
//! ([`perf`]) and device profiles ([`device`]) used to regenerate the
//! paper's figures.
//!
//! The paper ran on real hardware (A100, RTX 4070 SUPER) and Intel SDE;
//! here the same roles are played by these simulators, with runtimes derived
//! from instruction and byte counts gathered during simulated execution
//! (see DESIGN.md, substitution 1).
//!
//! ## Example
//!
//! ```
//! use hb_accel::counters::CostCounters;
//! use hb_accel::device::DeviceProfile;
//! use hb_accel::perf::{estimate, Bound};
//!
//! // A kernel that does 1 GFMA on tensor cores and streams 100 MB:
//! let c = CostCounters {
//!     tensor_fmas: 1_000_000_000,
//!     dram_read_bytes: 100_000_000,
//!     ..CostCounters::default()
//! };
//! let t = estimate(&c, &DeviceProfile::rtx4070_super());
//! assert_eq!(t.bound(), Bound::Memory); // bandwidth-limited
//! ```

#![forbid(unsafe_code)]

pub mod amx;
pub mod counters;
pub mod device;
pub mod perf;
pub mod target;
pub mod wmma;

pub use amx::{AmxUnit, TileDtype};
pub use counters::{CostCounters, MemScope};
pub use device::DeviceProfile;
pub use perf::{estimate, estimate_with_efficiency, theoretical_peak, Bound, TimeEstimate};
pub use target::{AmxTarget, RuleProfile, ScalarTarget, SimTarget, Target, WmmaTarget};
pub use wmma::{Fragment, FragmentKind, MatrixLayout, TensorCoreUnit, WmmaShape};
