//! Multi-GPU driver (§V): one rank per GPU under the cluster substrate,
//! 2-D decomposition, halo exchange through host staging, and the three
//! communication/computation overlap optimizations:
//!
//! 1. **Inter-variable pipelining** (Fig. 7) — while one water-substance
//!    variable's halo is in flight, the next variable's kernel runs.
//! 2. **Kernel splitting** (Fig. 8) — short-step kernels split into
//!    y-boundary / x-boundary / inner launches on separate streams; the
//!    inner launch executes while the boundary values travel.
//! 3. **Logical kernel fusion** — density and potential temperature are
//!    treated as one logical kernel so the (communication-heavy) density
//!    exchange hides under the fused computation.
//!
//! Each rank runs the shared [`Stepper`] with the `Halo::Exchange`
//! policy, which carries out the step's halo points in these ways.

use crate::decomp::Decomp;
use crate::error::ModelError;
use crate::halo::HaloExchanger;
use crate::kernels::boundary;
use crate::stepper::{Halo, Stepper};
use cluster::NetworkSpec;
use dycore::config::ModelConfig;
use dycore::grid::{BaseFields, Grid};
use dycore::state::State;
use numerics::Real;
use vgpu::{DeviceSpec, ExecMode, VgpuError};

/// Whether the overlap optimizations are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapMode {
    /// Compute, then communicate, serially (the paper's baseline).
    None,
    /// All three overlap methods enabled.
    Overlap,
}

/// Configuration of a multi-GPU run.
#[derive(Clone)]
pub struct MultiGpuConfig {
    /// Per-rank model configuration (nx/ny are the *subdomain* size).
    pub local_cfg: ModelConfig,
    /// Process grid.
    pub px: usize,
    pub py: usize,
    pub overlap: OverlapMode,
    pub spec: DeviceSpec,
    pub net: NetworkSpec,
    pub mode: ExecMode,
    pub steps: usize,
    /// Retain per-op profiler records (needed for Fig. 9/11 breakdowns;
    /// disable for very large phantom sweeps).
    pub detailed_profile: bool,
}

/// Aggregated results of a run.
#[derive(Debug, Clone)]
pub struct MultiGpuReport {
    pub ranks: usize,
    pub steps: usize,
    /// End-to-end simulated wall time (max over ranks) [s].
    pub total_time_s: f64,
    /// Kernel-busy time of the slowest rank [s].
    pub compute_s: f64,
    /// MPI blocked time of the slowest rank [s].
    pub mpi_s: f64,
    /// GPU↔CPU transfer busy time of the slowest rank [s].
    pub pcie_s: f64,
    /// Total floating-point operations over all ranks.
    pub total_flops: f64,
    /// Sustained TFlop/s = total flops / total time.
    pub tflops: f64,
    /// Rank-0 per-kernel aggregation: (name, calls, seconds).
    pub kernel_breakdown: Vec<(String, u64, f64)>,
    /// Final prognostic states (functional mode only), rank order.
    pub final_states: Option<Vec<State>>,
    /// Injected fault events over all ranks (ECC hits, OOM failures,
    /// straggler slowdowns, link drops and delays).
    pub faults_injected: u64,
    /// Recovery actions over all ranks: ECC launch retries plus link
    /// resend rounds.
    pub retries: u64,
    /// Checkpoint rollbacks performed (ranks roll back in lockstep, so
    /// this is the per-rank count, not a sum).
    pub restarts: u64,
    /// Long steps whose heartbeat showed a straggling rank (max step
    /// duration more than 3x the min).
    pub stragglers: u64,
    /// Sanitizer findings over all ranks (0 unless `ASUCA_SAN` is set;
    /// per-rank reports go to stderr).
    pub san_findings: u64,
    /// True when an injected allocation failure downgraded detailed
    /// profiling instead of aborting the run.
    pub profile_degraded: bool,
}

/// Everything one rank thread reports back to the aggregator.
struct RankOut {
    elapsed: f64,
    kbusy: f64,
    mpi_wait: f64,
    pcie: f64,
    flops: f64,
    breakdown: Vec<(String, u64, f64)>,
    final_state: Option<State>,
    faults_injected: u64,
    retries: u64,
    restarts: u64,
    stragglers: u64,
    profile_degraded: bool,
    san_findings: u64,
}

/// Initial-condition hook applied to each rank's host state before
/// upload.
pub type InitFn = dyn Fn(usize, &Grid, &BaseFields, &mut State) + Sync;

/// Run a multi-GPU simulation; `init` receives (rank, local grid,
/// base fields, state-at-rest) and may modify the state.
///
/// With `local_cfg.fault` set, the run arms deterministic fault
/// injection *after* initialization (setup is never faulted and the
/// per-op schedules are independent of init): ECC launch retries and
/// straggler slowdowns on the device, drop/delay schedules on the
/// links, and an optional one-shot rank death that forces a lockstep
/// rollback to the last checkpoint on every rank.
pub fn run_multi<R: Real>(
    mc: &MultiGpuConfig,
    init: &InitFn,
) -> Result<MultiGpuReport, ModelError> {
    let decomp = Decomp::disjoint(
        mc.px,
        mc.py,
        mc.local_cfg.nx,
        mc.local_cfg.ny,
        mc.local_cfg.nz,
    );
    let ranks = decomp.ranks();
    let (gnx, gny) = decomp.global_disjoint();

    let results =
        cluster::try_spawn_ranks::<Vec<R>, Result<RankOut, ModelError>, _>(ranks, mc.net, |comm| {
            let rank = comm.rank();
            let (x0, y0) = decomp.origin_disjoint(rank);
            let grid = Grid::build_sub(&mc.local_cfg, x0, y0, gnx, gny);
            let fault = mc.local_cfg.fault;
            let mut st = Stepper::build(
                mc.local_cfg.clone(),
                grid,
                mc.spec.clone(),
                mc.mode,
                // Host base fields and states only for functional runs:
                // paper-scale phantom runs skip the (large) 3-D host
                // arrays entirely.
                (mc.mode == ExecMode::Functional).then_some(
                    &|grid: &Grid, base: &BaseFields, s: &mut State| init(rank, grid, base, s),
                ),
                |dev, geom| {
                    // Detailed records only where the breakdown harness
                    // reads them (rank 0); totals accumulate everywhere.
                    dev.profiler.set_detailed(mc.detailed_profile && rank == 0);
                    let s_y = dev.create_stream();
                    let s_x = dev.create_stream();
                    Halo::Exchange {
                        ex: HaloExchanger::new(dev, &decomp.topo, rank, geom.dc, geom.dw),
                        comm: Box::new(comm),
                        s_y,
                        s_x,
                        overlap: mc.overlap,
                        tracers_pending: false,
                        death_pending: fault.and_then(|f| f.death),
                        stragglers: 0,
                    }
                },
            )?;

            // Graceful degradation: probe one scratch allocation under
            // the armed fault plan; on an injected OOM, drop the
            // (memory-hungry) detailed profiling instead of dying.
            let mut profile_degraded = false;
            if fault.is_some() {
                match st.dev.alloc(boundary::x_strip_len(st.geom.dc)) {
                    Err(VgpuError::Oom { injected: true, .. }) => {
                        profile_degraded = true;
                        st.dev.profiler.set_detailed(false);
                    }
                    Ok(probe) => {
                        let _ = st.dev.free(probe);
                    }
                    Err(_) => {}
                }
            }

            // Measure only the time-step loop (the paper's benchmarks
            // exclude initialization).
            st.dev.profiler.reset();
            if let Halo::Exchange { ex, .. } = &mut st.halo {
                ex.stats = Default::default();
            }
            let t_start = st.dev.host_time();
            st.run(mc.steps)?;
            let elapsed = st.dev.host_time() - t_start;

            let (flops, kbusy) = st.dev.profiler.flops_and_time();
            let pcie = st.dev.profiler.total_copy_time;
            let breakdown: Vec<(String, u64, f64)> = st
                .dev
                .profiler
                .by_name()
                .into_iter()
                .map(|a| (a.name.to_string(), a.calls, a.seconds))
                .collect();
            let final_state = (mc.mode == ExecMode::Functional).then(|| {
                let mut out = State::zeros(&st.grid, mc.local_cfg.n_tracers);
                st.save_state(&mut out);
                out
            });
            let fs = st.dev.fault_stats();
            let Halo::Exchange {
                ex,
                comm,
                stragglers,
                ..
            } = &st.halo
            else {
                unreachable!("ranks exchange halos");
            };
            let (ls, mpi_wait, stragglers) = (comm.link_stats(), ex.stats.mpi_wait_s, *stragglers);
            let restarts = st.restarts;
            // Teardown: free every device allocation, then drain the
            // sanitizer (leakcheck certifies a clean per-rank heap).
            let san_findings = match st.san_finish() {
                Some(rep) if !rep.findings.is_empty() => {
                    eprintln!("vsan (rank {rank}):\n{rep}");
                    rep.findings.len() as u64
                }
                _ => 0,
            };
            Ok(RankOut {
                elapsed,
                kbusy,
                mpi_wait,
                pcie,
                flops,
                breakdown,
                final_state,
                faults_injected: fs.ecc_events
                    + fs.oom_injected
                    + fs.stragglers
                    + ls.drops_injected
                    + ls.delays_injected,
                retries: fs.ecc_retries + ls.resends,
                restarts,
                stragglers,
                profile_degraded,
                san_findings,
            })
        });

    let outs = results
        .into_iter()
        .map(|r| r.map_err(ModelError::Rank)?)
        .collect::<Result<Vec<RankOut>, ModelError>>()?;

    let total_time_s = outs.iter().map(|r| r.elapsed).fold(0.0f64, f64::max);
    let compute_s = outs.iter().map(|r| r.kbusy).fold(0.0f64, f64::max);
    let mpi_s = outs.iter().map(|r| r.mpi_wait).fold(0.0f64, f64::max);
    let pcie_s = outs.iter().map(|r| r.pcie).fold(0.0f64, f64::max);
    let total_flops: f64 = outs.iter().map(|r| r.flops).sum();
    let kernel_breakdown = outs[0].breakdown.clone();
    let faults_injected: u64 = outs.iter().map(|r| r.faults_injected).sum();
    let retries: u64 = outs.iter().map(|r| r.retries).sum();
    let restarts = outs.iter().map(|r| r.restarts).max().unwrap_or(0);
    let stragglers = outs.iter().map(|r| r.stragglers).max().unwrap_or(0);
    let profile_degraded = outs.iter().any(|r| r.profile_degraded);
    let san_findings: u64 = outs.iter().map(|r| r.san_findings).sum();
    // Functional runs return every rank's state, phantom runs none.
    let final_states = outs.into_iter().map(|r| r.final_state).collect();

    Ok(MultiGpuReport {
        ranks,
        steps: mc.steps,
        total_time_s,
        compute_s,
        mpi_s,
        pcie_s,
        total_flops,
        tflops: if total_time_s > 0.0 {
            total_flops / total_time_s / 1e12
        } else {
            0.0
        },
        kernel_breakdown,
        final_states,
        faults_injected,
        retries,
        restarts,
        stragglers,
        profile_degraded,
        san_findings,
    })
}
