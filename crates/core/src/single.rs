//! Single-GPU driver: the complete Fig. 1 execution flow.
//!
//! The CPU reads initial data and transfers it to the GPU once; every
//! computational component of the long and short time steps then runs
//! as GPU kernels; data returns to the host only for output. The step
//! structure mirrors `dycore::Model::step` so the two implementations
//! agree to round-off (the paper's §I claim).
//!
//! One device is the 1×1 case of the decomposition: the shared
//! [`Stepper`] with periodic self-copy halos, which rolls back to its
//! last checkpoint when a step reports a lost device.

use crate::stepper::{Halo, Stepper};
use dycore::config::ModelConfig;
use dycore::grid::{BaseFields, Grid};
use dycore::state::State;
use numerics::Real;
use vgpu::{DeviceSpec, ExecMode};

/// A complete single-GPU model instance.
pub type SingleGpu<R> = Stepper<R>;

impl<R: Real> SingleGpu<R> {
    /// Build the device model: construct grid/base on the host, upload
    /// everything, install the resting base state.
    pub fn new(cfg: ModelConfig, spec: DeviceSpec, mode: ExecMode) -> Self {
        cfg.validate();
        let grid = Grid::build(&cfg);
        let rest = |_: &Grid, _: &BaseFields, _: &mut State| {};
        Stepper::build(cfg, grid, spec, mode, Some(&rest), |_, _| {
            Halo::PeriodicSelf
        })
        .expect("grid does not fit in device memory")
    }
}
