//! GPU kernels: one module per computational component of the paper's
//! Fig. 1, each with an analytic FLOP/byte cost (the reproduction's
//! PAPI substitute) and support for the inner / x-boundary / y-boundary
//! splitting of overlap method 2 (Fig. 8).

pub mod advection;
pub mod boundary;
pub mod eos;
pub mod helmholtz;
pub mod pgf;
pub mod physics;
pub mod region;
pub mod tend;
pub mod transform;

pub use region::{launch_cfg, Rect, Region};
