//! Simulated-GPU MTTKRP kernels.
//!
//! Each kernel does double duty: it computes the actual MTTKRP output in
//! plain Rust (differential-tested against [`crate::reference`]) while
//! emitting the instruction stream its CUDA counterpart would execute —
//! warp-wide FMAs with the rank dimension laid across lanes, coalesced
//! 128-byte segment accesses, atomics where the algorithm needs them. The
//! stream is then run through [`gpu_sim::simulate`].
//!
//! Kernels:
//! * [`parti_coo`] — nonzero-parallel COO with `atomicAdd` per nonzero
//!   (the ParTI-GPU baseline, Figs. 8 & 14).
//! * [`fcoo`] — F-COO with per-thread chunks and warp segmented scan
//!   (Fig. 15).
//! * [`csf`] — naive GPU-CSF: block per slice, warp per fiber (the
//!   Table II subject whose pathologies motivate B-CSF).
//! * [`bcsf`] — B-CSF: fiber-segments across warps, binned thread blocks,
//!   atomics only for split slices (Figs. 5-7).
//! * [`csl`] — CSL kernel (Algorithm 4): slices packed into warps, no
//!   fiber indirection.
//! * [`hbcsf`] — the composite HB-CSF kernel (Algorithm 5 lines 18-20):
//!   COO + CSL + B-CSF sub-launches fused into one grid (Figs. 8-15).

//!
//! All six kernels implement the unified [`MttkrpKernel`] trait and are
//! normally driven through the [`Executor`] facade, which owns the
//! context plus the full degradation ladder (in-core, out-of-core tiled,
//! multi-device sharded, ABFT-verified, CPU fallback). The kernel modules
//! only export their format/span types; capture bodies are `pub(crate)`
//! behind the trait impls.

pub mod bcsf;
pub mod common;
pub mod csf;
pub mod csl;
pub mod exec;
pub mod fcoo;
pub mod hbcsf;
pub mod kernel;
pub mod ooc;
pub mod parti_coo;
pub mod plan;
pub mod sharded;
pub mod stream;

pub use common::{AbftData, AbftSink, GpuContext, GpuRun};
pub use exec::{Execution, Executor, LaunchArgs, LaunchError};
pub use kernel::{AnyFormat, BuildOptions, KernelKind, MttkrpKernel};
pub use ooc::{execute_adaptive, LadderStep, MemReport, OocOptions};
pub use plan::{MemoryFootprint, ModePlans, Plan, RankDispatch, ReplaySchedule};
pub use sharded::{DeviceShardReport, GridReport, GridSpec};
pub use stream::{cpd_als_streamed, ShardStore, StreamOptions, StreamedCpd};
