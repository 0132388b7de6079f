//! The paper's contribution: the full GPU port of the ASUCA dynamical
//! core, written against the virtual GPU (`vgpu`) exactly as the
//! original was written against CUDA.
//!
//! Structure mirrors the paper:
//!
//! * [`view`] — XZY-ordered device array views (§IV-A.1: x fastest for
//!   coalescing, y outermost so y-halo slabs are contiguous).
//! * [`geom`] — device-resident grid metrics and base-state fields.
//! * [`fields`] — the full device state (every prognostic, tendency and
//!   scratch array lives in GPU memory; the host only orchestrates).
//! * [`kernels`] — one module per computational component of Fig. 1
//!   (advection, Coriolis, pressure gradient, continuity, 1-D
//!   Helmholtz, EOS, warm rain, precipitation, boundary/pack ops, array
//!   copies), each with an analytic FLOP/byte cost and a `Region`
//!   parameter implementing the paper's inner / x-boundary / y-boundary
//!   kernel splitting (overlap method 2).
//! * [`stepper`] — the one long step (Fig. 1 execution flow) both
//!   drivers run; a halo policy decides how each halo point is carried
//!   out.
//! * [`single`] — the single-GPU driver: the stepper as the 1×1 case,
//!   with periodic self-copy halos.
//! * [`decomp`], [`halo`], [`multi`] — 2-D domain decomposition, halo
//!   exchange through host staging (Fig. 6), and the multi-GPU driver:
//!   one stepper per rank, exchanging halos serially or with the three
//!   overlap optimizations (Figs. 7–8).
//! * [`perf`] — GFlops accounting and report structures for the
//!   evaluation harnesses.

pub mod checkpoint;
pub mod decomp;
pub mod error;
pub mod fields;
pub mod geom;
pub mod halo;
pub mod kernels;
pub mod monitor;
pub mod multi;
pub mod perf;
pub mod single;
pub mod stepper;
pub mod view;

pub use checkpoint::Checkpoint;
pub use decomp::{table1_configs, Decomp, Table1Row};
pub use error::ModelError;
pub use fields::DeviceState;
pub use geom::DeviceGeom;
pub use kernels::Region;
pub use multi::{MultiGpuConfig, MultiGpuReport, OverlapMode};
pub use single::SingleGpu;
