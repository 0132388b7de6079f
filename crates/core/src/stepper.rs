//! The one long step (Fig. 1) that both drivers run.
//!
//! A single GPU is the 1×1 case of the multi-GPU decomposition (§V):
//! the same kernels in the same order, with halo refreshes at the same
//! points of the step. Only how a halo point is carried out differs,
//! and that is the `Halo` policy:
//!
//! * `Halo::PeriodicSelf` — one device owns the whole periodic
//!   domain, so a halo is a copy of its own opposite interior edge;
//! * `Halo::Exchange` — one rank of a 2-D decomposition, whose halos
//!   travel through host staging (Fig. 6) on dedicated comm streams,
//!   either serially after each kernel or with the three overlap
//!   methods of Figs. 7–8 (see [`crate::multi`]).
//!
//! The policy also fixes the few places where the two schedules differ
//! (the field sets in `Halo`'s methods) and the recovery trigger: one
//! device rolls back when a step reports a lost device, ranks roll back
//! in lockstep when the end-of-step heartbeat reports a dead rank.

use crate::checkpoint::Checkpoint;
use crate::error::ModelError;
use crate::fields::DeviceState;
use crate::geom::DeviceGeom;
use crate::halo::{FieldRef, HaloExchanger, MAX_BATCH};
use crate::kernels::physics as kphys;
use crate::kernels::region::{KName, Region};
use crate::kernels::{advection, boundary, eos, helmholtz, pgf, tend, transform};
use crate::kname;
use crate::monitor::GuardRails;
use crate::multi::OverlapMode;
use crate::view::Dims;
use cluster::{Comm, LinkFaultSpec};
use dycore::config::{FaultConfig, ModelConfig};
use dycore::grid::{BaseFields, Grid};
use dycore::state::State;
use numerics::Real;
use physics::base::BaseState;
use vgpu::{Buf, Device, DeviceSpec, ExecMode, FaultSpec, StreamId, VgpuError};

/// Restart attempts a driver makes from its last checkpoint before
/// giving up on a persistently failing device.
const MAX_RESTARTS: u64 = 8;

/// All compute work runs on the default stream; halo traffic of a rank
/// runs on its two comm streams.
const COMPUTE: StreamId = StreamId::DEFAULT;

const KN_ADV_U: KName = kname!("advection_u");
const KN_ADV_V: KName = kname!("advection_v");
const KN_ADV_W: KName = kname!("advection_w");
const KN_ADV_TH: KName = kname!("advection_theta");
const KN_ADV_Q: [KName; 7] = [
    kname!("advection_qv"),
    kname!("advection_qc"),
    kname!("advection_qr"),
    kname!("advection_qi"),
    kname!("advection_qs"),
    kname!("advection_qg"),
    kname!("advection_qh"),
];
const KN_MOM_X: KName = kname!("momentum_x");
const KN_MOM_Y: KName = kname!("momentum_y");
const KN_HELM: KName = kname!("helmholtz");
const KN_DENS: KName = kname!("density");
const KN_PT: KName = kname!("potential_temperature");
const KN_TRACER: [KName; 7] = [
    kname!("tracer_qv"),
    kname!("tracer_qc"),
    kname!("tracer_qr"),
    kname!("tracer_qi"),
    kname!("tracer_qs"),
    kname!("tracer_qg"),
    kname!("tracer_qh"),
];

/// Map the pure-data [`FaultConfig`] onto a device-level fault schedule
/// for one rank.
fn fault_spec_for_rank(f: &FaultConfig, rank: usize) -> FaultSpec {
    let mut s = FaultSpec::quiet(f.seed, rank as u64);
    s.ecc_rate = f.ecc_rate;
    s.oom_rate = f.oom_rate;
    if f.straggler_rank == Some(rank) {
        s.straggler_rate = 1.0;
        s.straggler_slowdown = f.straggler_slowdown;
    }
    s
}

/// Hook that edits the resting host state before upload.
pub(crate) type RestInit<'a> = dyn Fn(&Grid, &BaseFields, &mut State) + 'a;

/// A field whose halos the step refreshes.
#[derive(Clone, Copy)]
enum Hf {
    Rho,
    U,
    V,
    W,
    Th,
    P,
    Spec,
    Mw,
    Q(usize),
}

impl Hf {
    /// The field's buffer and its dims (w levels or cell centres).
    fn at<R: Real>(self, ds: &DeviceState<R>, g: &DeviceGeom<R>) -> (Buf<R>, Dims) {
        match self {
            Hf::Rho => (ds.rho, g.dc),
            Hf::U => (ds.u, g.dc),
            Hf::V => (ds.v, g.dc),
            Hf::W => (ds.w, g.dw),
            Hf::Th => (ds.th, g.dc),
            Hf::P => (ds.p, g.dc),
            Hf::Spec => (ds.spec, g.dc),
            Hf::Mw => (ds.mw, g.dw),
            Hf::Q(t) => (ds.q[t], g.dc),
        }
    }

    /// Kernel name of the periodic self-copy and its vertical fill.
    fn name(self) -> &'static str {
        match self {
            Hf::Rho => "halo_rho",
            Hf::U => "halo_u",
            Hf::V => "halo_v",
            Hf::W => "halo_w",
            Hf::Th => "halo_theta",
            Hf::P => "halo_p",
            Hf::Spec => "halo_spec",
            Hf::Mw => "halo_mw",
            Hf::Q(_) => "halo_q",
        }
    }

    /// Field id of the exchange message tags.
    fn id(self) -> u32 {
        match self {
            Hf::Rho => 0,
            Hf::U => 1,
            Hf::V => 2,
            Hf::W => 3,
            Hf::Th => 4,
            Hf::P => 5,
            Hf::Spec => 6,
            Hf::Mw => 7,
            Hf::Q(t) => 8 + t as u32,
        }
    }
}

/// How the step's halo points are carried out.
pub(crate) enum Halo<R: Real> {
    /// One device over the whole periodic domain.
    PeriodicSelf,
    /// One rank of a decomposition.
    Exchange {
        ex: HaloExchanger<R>,
        comm: Box<Comm<Vec<R>>>,
        s_y: StreamId,
        s_x: StreamId,
        overlap: OverlapMode,
        /// Overlap method 1: tracer halo exchanges deferred from the
        /// end of the previous stage, to be hidden under this stage's
        /// big advection kernels.
        tracers_pending: bool,
        /// One-shot (rank, after-step) death, consumed on first trigger
        /// so the replayed steps do not re-kill the rank.
        death_pending: Option<(usize, u64)>,
        /// Long steps whose heartbeat showed a straggling rank.
        stragglers: u64,
    },
}

impl<R: Real> Halo<R> {
    fn overlaps(&self) -> bool {
        matches!(
            self,
            Halo::Exchange {
                overlap: OverlapMode::Overlap,
                ..
            }
        )
    }

    /// Refreshed right after `mass_flux_w`. A rank computes the one-cell
    /// ring of `mw` that the advection averages read locally from the
    /// (already exchanged) u/v/w halos, as the original ASUCA does.
    /// One device also copies `mw`'s lateral halo periodically. That
    /// copy rewrites only the second halo ring (756 of 6,720 cells at
    /// 24×12×10: the 84-cell ring on 9 levels), which no kernel reads —
    /// the 1×1 decomposition is bitwise the single device
    /// (`tests/multi_gpu.rs`). The launch stays because the simulated
    /// timeline counts it.
    fn mass_flux_set(&self) -> &'static [Hf] {
        match self {
            Halo::PeriodicSelf => &[Hf::Mw],
            Halo::Exchange { .. } => &[],
        }
    }

    /// Refreshed after every acoustic substep's Helmholtz block. The
    /// Helmholtz outputs of a rank travel every substep (the paper's
    /// Fig. 9 short-step rows: momentum x/y, Helmholtz (w), density,
    /// potential temperature); one device refreshes `w` once, after the
    /// last substep.
    fn substep_set(&self) -> &'static [Hf] {
        match self {
            Halo::PeriodicSelf => &[Hf::Th, Hf::Rho],
            Halo::Exchange { .. } => &[Hf::Th, Hf::Rho, Hf::W],
        }
    }

    /// Refreshed, then the tracers, before the closing full EOS. One
    /// device also copies `p`'s halos, which the EOS then recomputes
    /// over the whole padded box.
    fn closing_set(&self) -> &'static [Hf] {
        match self {
            Halo::PeriodicSelf => &[Hf::Rho, Hf::U, Hf::V, Hf::W, Hf::Th, Hf::P],
            Halo::Exchange { .. } => &[Hf::Rho, Hf::U, Hf::V, Hf::W, Hf::Th],
        }
    }
}

/// One device's model state and the long step that advances it.
pub struct Stepper<R: Real> {
    pub cfg: ModelConfig,
    pub grid: Grid,
    pub dev: Device<R>,
    pub geom: DeviceGeom<R>,
    pub ds: DeviceState<R>,
    pub time: f64,
    pub steps_taken: u64,
    /// Restarts performed from the last checkpoint.
    pub restarts: u64,
    /// Guard-rail scanner (present when `cfg.guard_every > 0`).
    guard: Option<GuardRails<R>>,
    /// Last checkpoint (kept when `cfg.checkpoint_every > 0`).
    last_checkpoint: Option<Checkpoint<R>>,
    pub(crate) halo: Halo<R>,
}

impl<R: Real> Stepper<R> {
    /// Build the model of `grid` on a new device and bring the initial
    /// state on. With an `init` hook, host base fields and the resting
    /// state are built on the host, handed to `init` and uploaded;
    /// without one (paper-scale Phantom ranks), geometry and state
    /// uploads are only accounted. `halo` creates the policy once the
    /// geometry exists. Fault schedules arm only after all of this, so
    /// set-up work is never injected and the op-index → decision
    /// mapping stays independent of init details.
    pub(crate) fn build(
        cfg: ModelConfig,
        grid: Grid,
        spec: DeviceSpec,
        mode: ExecMode,
        init: Option<&RestInit<'_>>,
        halo: impl FnOnce(&mut Device<R>, &DeviceGeom<R>) -> Halo<R>,
    ) -> Result<Self, ModelError> {
        // Functional-mode kernel bodies run slab-parallel on this many
        // host workers (cfg.threads == 0 → ASUCA_THREADS / all cores),
        // with SIMD x-walks (cfg.simd == None → ASUCA_SIMD / CPU
        // detection); either way the results are bitwise identical.
        let threads = match cfg.threads {
            0 => numerics::par::default_threads(),
            n => n,
        };
        let simd = cfg.simd.unwrap_or_else(numerics::simd::default_enabled);
        let mut dev = Device::new(spec.with_host_threads(threads).with_host_simd(simd), mode);
        let base = init.map(|_| {
            let profile = BaseState {
                profile: cfg.base,
                p_surface: physics::consts::P00,
            };
            BaseFields::build(&grid, &profile)
        });
        let geom = match &base {
            Some(b) => DeviceGeom::build(&mut dev, &grid, b),
            None => DeviceGeom::build_phantom(&mut dev, &grid),
        };
        let ds = DeviceState::alloc(&mut dev, &geom, cfg.n_tracers)?;
        // Robustness buffers allocate before fault plans arm, so
        // injection can never fail them.
        let guard = match cfg.guard_every {
            0 => None,
            _ => Some(GuardRails::new(&mut dev, &geom)?),
        };
        let halo = halo(&mut dev, &geom);
        let mut this = Stepper {
            cfg,
            grid,
            dev,
            geom,
            ds,
            time: 0.0,
            steps_taken: 0,
            restarts: 0,
            guard,
            last_checkpoint: None,
            halo,
        };
        match (init, &base) {
            (Some(init), Some(b)) => {
                let mut s = State::zeros(&this.grid, this.cfg.n_tracers);
                dycore::model::install_base_state(&this.grid, b, &mut s);
                s.fill_halos_periodic();
                init(&this.grid, b, &mut s);
                this.load_state(&s)?;
            }
            _ => {
                this.ds.upload_phantom(&mut this.dev, &this.geom);
                this.settle_initial()?;
            }
        }
        let rank = match &mut this.halo {
            Halo::PeriodicSelf => 0,
            Halo::Exchange { comm, .. } => {
                // Ranks also drain every stream and, for lockstep
                // rollback, keep a step-0 checkpoint.
                this.dev.sync_all();
                if this.cfg.checkpoint_every > 0 {
                    this.last_checkpoint = Some(Checkpoint::capture(
                        &mut this.dev,
                        &this.ds,
                        &this.geom,
                        0,
                        0.0,
                    ));
                }
                if let Some(f) = &this.cfg.fault {
                    comm.enable_link_faults(LinkFaultSpec {
                        drop_rate: f.drop_rate,
                        delay_rate: f.delay_rate,
                        delay_s: f.delay_s,
                        ..LinkFaultSpec::quiet(f.seed)
                    });
                }
                comm.rank()
            }
        };
        if let Some(f) = &this.cfg.fault {
            this.dev.set_fault_plan(fault_spec_for_rank(f, rank));
        }
        Ok(this)
    }

    /// Upload a host state (initial condition) into the device, then
    /// refresh every halo and the full EOS once on device.
    pub fn load_state(&mut self, s: &State) -> Result<(), ModelError> {
        self.ds.upload(&mut self.dev, &self.geom, s);
        self.settle_initial()
    }

    /// Download the prognostics into a host state (Fig. 1 "Output").
    pub fn save_state(&mut self, s: &mut State) {
        self.ds.download(&mut self.dev, &self.geom, s);
    }

    /// Tear the model down and collect the sanitizer report (if
    /// `ASUCA_SAN` armed one). Frees every device allocation first so
    /// leakcheck certifies a clean heap; a leak finding here means a
    /// code path dropped a buffer without `free`.
    pub fn san_finish(mut self) -> Option<vgpu::san::Report> {
        if let Some(g) = self.guard.take() {
            g.free(&mut self.dev);
        }
        if let Halo::Exchange { ex, .. } = self.halo {
            ex.free(&mut self.dev);
        }
        self.ds.free(&mut self.dev);
        self.geom.free(&mut self.dev);
        self.dev.san_finish()
    }

    /// Run `n` steps with the robustness machinery engaged: periodic
    /// checkpoints (`cfg.checkpoint_every`), guard-rail scans
    /// (`cfg.guard_every`), and — when a checkpoint exists — rollback
    /// and restart on the policy's recovery trigger.
    pub fn run(&mut self, n: usize) -> Result<(), ModelError> {
        let target = self.steps_taken + n as u64;
        while self.steps_taken < target {
            let busy0 = self.dev.profiler.flops_and_time().1;
            let step = self.step();
            if self.recover(step, busy0)? {
                continue;
            }
            let at = |every: u64, step: u64| every > 0 && step.is_multiple_of(every);
            if at(self.cfg.guard_every, self.steps_taken) {
                if let Some(g) = &self.guard {
                    g.check(
                        &mut self.dev,
                        &self.ds,
                        &self.geom,
                        self.steps_taken,
                        self.cfg.dt,
                        self.cfg.dx,
                        self.cfg.dy,
                        self.cfg.dzeta(),
                    )?;
                }
            }
            if at(self.cfg.checkpoint_every, self.steps_taken) {
                self.last_checkpoint = Some(Checkpoint::capture(
                    &mut self.dev,
                    &self.ds,
                    &self.geom,
                    self.steps_taken,
                    self.time,
                ));
            }
        }
        Ok(())
    }

    /// The policy's recovery trigger after one step attempt; `Ok(true)`
    /// when the physics was rolled back to the last checkpoint (the
    /// virtual clock keeps running forward across the restart).
    fn recover(&mut self, step: Result<(), ModelError>, busy0: f64) -> Result<bool, ModelError> {
        let Halo::Exchange {
            comm,
            death_pending,
            stragglers,
            ..
        } = &mut self.halo
        else {
            return match step {
                Ok(()) => Ok(false),
                Err(ModelError::Gpu(VgpuError::DeviceLost { .. }))
                    if self.last_checkpoint.is_some() && self.restarts < MAX_RESTARTS =>
                {
                    self.rollback();
                    Ok(true)
                }
                Err(e) => Err(e),
            };
        };
        step?;
        // The end-of-step heartbeat is gated on fault injection being
        // armed, so fault-free runs keep the exact baseline timeline.
        let Some(f) = self.cfg.fault else {
            return Ok(false);
        };
        // Kernel-busy delta, not wall duration: halo exchanges
        // synchronize the ranks every step, so wall durations equalize
        // and would hide a straggler.
        let busy = self.dev.profiler.flops_and_time().1 - busy0;
        // Heartbeat: [death flag, kernel-busy seconds] from every rank.
        let flag = if *death_pending == Some((comm.rank(), self.steps_taken)) {
            1.0
        } else {
            0.0
        };
        let (hb, now) = comm.allgather_f64(vec![flag, busy], self.dev.host_time())?;
        self.dev.host_at_least(now);
        let (mut dmin, mut dmax) = (f64::INFINITY, 0.0f64);
        let mut died = false;
        for h in &hb {
            // heartbeat flags are exact 0.0/1.0 sentinels — lint: allow(float-eq)
            died |= h[0] != 0.0;
            dmin = dmin.min(h[1]);
            dmax = dmax.max(h[1]);
        }
        if dmax > 3.0 * dmin {
            *stragglers += 1;
        }
        if !died {
            return Ok(false);
        }
        // Every rank saw the flag; consume the death and roll back in
        // lockstep.
        *death_pending = None;
        if self.last_checkpoint.is_none() || self.restarts >= MAX_RESTARTS {
            return Err(ModelError::Gpu(VgpuError::DeviceLost {
                op_index: self.steps_taken,
                kernel: "rank_death",
            }));
        }
        // heartbeat flags are exact 0.0/1.0 sentinels — lint: allow(float-eq)
        if flag != 0.0 {
            // The dying rank pays the respawn cost on its virtual clock;
            // peers absorb it through subsequent message timing.
            self.dev.host_advance(f.respawn_penalty_s);
        }
        self.rollback();
        Ok(true)
    }

    fn rollback(&mut self) {
        let cp = self
            .last_checkpoint
            .as_ref()
            .expect("rollback needs a checkpoint");
        cp.restore(&mut self.dev, &self.ds, &self.geom);
        self.steps_taken = cp.step;
        self.time = cp.sim_time;
        self.restarts += 1;
    }

    /// One long (RK3 + acoustic) step on the device.
    pub fn step(&mut self) -> Result<(), ModelError> {
        let dt = self.cfg.dt;

        // Keep the time-t copies on device; each stage restarts its
        // acoustic integration from them.
        let ds = &self.ds;
        let time_t = [
            ("save_rho_t", "restore_rho", ds.rho, ds.rho_t),
            ("save_u_t", "restore_u", ds.u, ds.u_t),
            ("save_v_t", "restore_v", ds.v, ds.v_t),
            ("save_w_t", "restore_w", ds.w, ds.w_t),
            ("save_th_t", "restore_th", ds.th, ds.th_t),
        ];
        for (name, _, live, saved) in time_t {
            transform::copy_buf(&mut self.dev, COMPUTE, name, live, saved)?;
        }
        for t in 0..self.ds.n_tracers {
            let (q, q_t) = (self.ds.q[t], self.ds.q_t[t]);
            transform::copy_buf(&mut self.dev, COMPUTE, "save_q_t", q, q_t)?;
        }

        for s in 1..=3usize {
            let dts = dt * self.cfg.dt_fraction_for_stage(s);
            let nsub = self.cfg.substeps_for_stage(s);
            let dtau = dts / nsub as f64;

            // Slow tendencies + linearization reference from the latest
            // stage state (the prognostics currently on device).
            self.compute_slow()?;
            let (th, th_ref) = (self.ds.th, self.ds.th_ref);
            transform::copy_buf(&mut self.dev, COMPUTE, "capture_th_ref", th, th_ref)?;
            self.eos_full("eos_ref", th_ref, self.ds.p_ref)?;

            // Restart the acoustic integration from time t.
            for (_, name, live, saved) in time_t {
                transform::copy_buf(&mut self.dev, COMPUTE, name, saved, live)?;
            }
            self.eos_linear()?;

            for _ in 0..nsub {
                self.acoustic_substep(dtau)?;
            }
            self.halos(&[Hf::W], true)?;

            // Tracers from their time-t values.
            for (t, kn) in KN_TRACER[..self.ds.n_tracers].iter().enumerate() {
                tend::tracer_update(
                    &mut self.dev,
                    COMPUTE,
                    &self.geom,
                    Region::Whole,
                    kn,
                    dts,
                    self.ds.q_t[t],
                    self.ds.fq[t],
                    self.ds.q[t],
                )?;
                self.tracer_halo(t)?;
            }
        }

        // Physics.
        if self.cfg.microphysics && self.ds.n_tracers >= 3 {
            kphys::warm_rain(
                &mut self.dev,
                COMPUTE,
                &self.geom,
                dt,
                self.ds.rho,
                self.ds.th,
                self.ds.p,
                self.ds.q[0],
                self.ds.q[1],
                self.ds.q[2],
            )?;
            kphys::sediment(
                &mut self.dev,
                COMPUTE,
                &self.geom,
                dt,
                self.ds.rho,
                self.ds.q[2],
                self.ds.precip,
            )?;
        }
        kphys::rayleigh(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            &self.grid,
            self.cfg.rayleigh.z_bottom,
            self.cfg.rayleigh.rate,
            dt,
            self.ds.w,
            self.ds.th,
            self.ds.rho,
        )?;

        self.closing_halos()?;
        self.eos_full("eos_full", self.ds.th, self.ds.p)?;
        self.dev.sync_all();
        self.time += dt;
        self.steps_taken += 1;
        Ok(())
    }

    /// All slow tendencies from the current prognostics (mirrors
    /// `dycore::tendency::compute_slow`). Whole-domain kernels: the
    /// overlap methods target the short-step and tracer phases.
    fn compute_slow(&mut self) -> Result<(), ModelError> {
        let lim = self.cfg.limiter;
        let kdiff = self.cfg.k_diffusion;
        let nz = self.geom.nz as isize;

        let ds = &self.ds;
        for (buf, name) in [
            (ds.fu, "clear_fu"),
            (ds.fv, "clear_fv"),
            (ds.fw, "clear_fw"),
            (ds.frho, "clear_frho"),
            (ds.fth, "clear_fth"),
        ] {
            transform::zero_buf(&mut self.dev, COMPUTE, name, buf)?;
        }
        for t in 0..self.ds.n_tracers {
            transform::zero_buf(&mut self.dev, COMPUTE, "clear_fq", self.ds.fq[t])?;
        }

        transform::mass_flux_w(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            self.ds.u,
            self.ds.v,
            self.ds.w,
            self.ds.mw,
        )?;
        self.halos(self.halo.mass_flux_set(), false)?;

        // Momentum advection + diffusion (staggered specific velocities
        // get a lateral halo refresh; see dycore::tendency for why).
        transform::specific_u(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            self.ds.u,
            self.ds.rho,
            self.ds.spec,
        )?;
        self.halos(&[Hf::Spec], false)?;
        advection::advect_u(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            Region::Whole,
            &KN_ADV_U,
            lim,
            self.ds.spec,
            self.ds.u,
            self.ds.v,
            self.ds.mw,
            self.ds.fu,
        )?;
        tend::diffuse(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            "diff_u",
            kdiff,
            self.ds.spec,
            None,
            tend::DiffWeight::U,
            self.ds.rho,
            self.ds.fu,
            0,
            nz,
        )?;

        transform::specific_v(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            self.ds.v,
            self.ds.rho,
            self.ds.spec,
        )?;
        self.halos(&[Hf::Spec], false)?;
        advection::advect_v(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            Region::Whole,
            &KN_ADV_V,
            lim,
            self.ds.spec,
            self.ds.u,
            self.ds.v,
            self.ds.mw,
            self.ds.fv,
        )?;
        tend::diffuse(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            "diff_v",
            kdiff,
            self.ds.spec,
            None,
            tend::DiffWeight::V,
            self.ds.rho,
            self.ds.fv,
            0,
            nz,
        )?;

        transform::specific_w(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            self.ds.w,
            self.ds.rho,
            self.ds.spec_w,
        )?;
        advection::advect_w(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            Region::Whole,
            &KN_ADV_W,
            lim,
            self.ds.spec_w,
            self.ds.u,
            self.ds.v,
            self.ds.mw,
            self.ds.fw,
        )?;
        tend::diffuse(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            "diff_w",
            kdiff,
            self.ds.spec_w,
            None,
            tend::DiffWeight::W,
            self.ds.rho,
            self.ds.fw,
            1,
            nz,
        )?;

        tend::coriolis(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            self.cfg.coriolis_f,
            self.ds.u,
            self.ds.v,
            self.ds.fu,
            self.ds.fv,
        )?;
        tend::metric_pg(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            self.ds.p,
            self.ds.fu,
            self.ds.fv,
        )?;

        // Θ: advection + deviation diffusion + linear-divergence credit.
        let (th, fth, th_c) = (self.ds.th, self.ds.fth, self.geom.th_c);
        self.scalar_tendency(
            ["transform_theta", "diff_theta"],
            &KN_ADV_TH,
            th,
            Some(th_c),
            fth,
        )?;
        tend::add_div_lin_theta(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            self.ds.u,
            self.ds.v,
            self.ds.w,
            self.ds.fth,
        )?;

        // ρ*: terrain metric residual.
        tend::continuity_residual(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            self.ds.u,
            self.ds.v,
            self.ds.w,
            self.ds.mw,
            self.ds.frho,
        )?;

        // Tracers ("13 variables related to water substances").
        self.flush_tracer_halos()?;
        for (t, kn) in KN_ADV_Q[..self.ds.n_tracers].iter().enumerate() {
            let (q, fq) = (self.ds.q[t], self.ds.fq[t]);
            self.scalar_tendency(["transform_q", "diff_q"], kn, q, None, fq)?;
        }
        Ok(())
    }

    /// Advection and diffusion of one cell-centred scalar (Θ or a
    /// tracer) into its tendency `out`: the specific value goes through
    /// `spec`, and with `deviation_of` set, only the deviation from
    /// that base field diffuses. `names` are the transform and the
    /// diffusion launch names.
    fn scalar_tendency(
        &mut self,
        names: [&'static str; 2],
        kn: &KName,
        src: Buf<R>,
        deviation_of: Option<Buf<R>>,
        out: Buf<R>,
    ) -> Result<(), VgpuError> {
        let (rho, spec) = (self.ds.rho, self.ds.spec);
        transform::specific_center(&mut self.dev, COMPUTE, &self.geom, names[0], src, rho, spec)?;
        advection::advect_scalar(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            Region::Whole,
            kn,
            self.cfg.limiter,
            true,
            spec,
            self.ds.u,
            self.ds.v,
            self.ds.mw,
            out,
        )?;
        tend::diffuse(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            names[1],
            self.cfg.k_diffusion,
            spec,
            deviation_of,
            tend::DiffWeight::Center,
            rho,
            out,
            0,
            self.geom.nz as isize,
        )
    }

    /// One acoustic substep. Serial schedules launch each kernel over
    /// the whole interior. The overlap schedule (methods 2 and 3,
    /// Fig. 8) launches the y- and x-boundary strips first, lets the
    /// comm streams wait for them, and issues the inner launch before
    /// the host blocks on MPI, so the DES overlaps it with the
    /// transfers; density and potential temperature form one logical
    /// kernel with Helmholtz, whose fused exchange hides under the inner
    /// block.
    fn acoustic_substep(&mut self, dtau: f64) -> Result<(), ModelError> {
        let regions: &[Region] = if self.halo.overlaps() {
            &[Region::YBound, Region::XBound, Region::Inner]
        } else {
            &[Region::Whole]
        };
        for &region in regions {
            if region == Region::Inner {
                self.comm_waits_for_compute();
            }
            pgf::momentum_x(
                &mut self.dev,
                COMPUTE,
                &self.geom,
                region,
                &KN_MOM_X,
                self.ds.p,
                self.ds.fu,
                dtau,
                self.ds.u,
            )?;
            pgf::momentum_y(
                &mut self.dev,
                COMPUTE,
                &self.geom,
                region,
                &KN_MOM_Y,
                self.ds.p,
                self.ds.fv,
                dtau,
                self.ds.v,
            )?;
        }
        self.substep_halos(&[Hf::U, Hf::V], false)?;
        for &region in regions {
            if region == Region::Inner {
                self.comm_waits_for_compute();
            }
            self.helmholtz_block(region, dtau)?;
        }
        self.substep_halos(self.halo.substep_set(), true)?;
        Ok(self.eos_linear()?)
    }

    fn helmholtz_block(&mut self, region: Region, dtau: f64) -> Result<(), VgpuError> {
        let beta = self.cfg.beta;
        helmholtz::helmholtz(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            region,
            &KN_HELM,
            beta,
            dtau,
            helmholtz::HelmholtzArgs {
                u: self.ds.u,
                v: self.ds.v,
                w: self.ds.w,
                rho: self.ds.rho,
                th: self.ds.th,
                p: self.ds.p,
                fu_w: self.ds.fw,
                frho: self.ds.frho,
                fth: self.ds.fth,
                th_ref: self.ds.th_ref,
                p_ref: self.ds.p_ref,
                st_rho: self.ds.spec,
                st_th: self.ds.flux,
            },
        )?;
        helmholtz::density(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            region,
            &KN_DENS,
            beta,
            dtau,
            self.ds.spec,
            self.ds.w,
            self.ds.rho,
        )?;
        helmholtz::potential_temperature(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            region,
            &KN_PT,
            beta,
            dtau,
            self.ds.flux,
            self.ds.w,
            self.ds.th,
        )
    }

    fn eos_linear(&mut self) -> Result<(), VgpuError> {
        eos::eos_linear(
            &mut self.dev,
            COMPUTE,
            &self.geom,
            self.ds.th,
            self.ds.th_ref,
            self.ds.p_ref,
            self.ds.p,
        )
    }

    fn eos_full(&mut self, name: &'static str, th: Buf<R>, p: Buf<R>) -> Result<(), VgpuError> {
        eos::eos_full(&mut self.dev, COMPUTE, &self.geom, name, th, p)
    }

    /// Every halo refreshed field by field, then the full EOS: the
    /// state right after an upload.
    fn settle_initial(&mut self) -> Result<(), ModelError> {
        self.all_halos()?;
        Ok(self.eos_full("eos_full", self.ds.th, self.ds.p)?)
    }

    // ----- halo points -------------------------------------------------

    /// Refresh the lateral halos of `fields` in order, each followed by
    /// its vertical zero-gradient fill when `z`: a periodic self-copy on
    /// one device, a full exchange on the y comm stream for a rank.
    fn halos(&mut self, fields: &[Hf], z: bool) -> Result<(), ModelError> {
        for &f in fields {
            let (buf, dims) = f.at(&self.ds, &self.geom);
            match &mut self.halo {
                Halo::PeriodicSelf => {
                    boundary::halo_periodic_xy(&mut self.dev, COMPUTE, f.name(), buf, dims)?;
                }
                Halo::Exchange { ex, comm, s_y, .. } => {
                    // The comm stream must not start packing until the
                    // compute stream's writes to `buf` have landed; the
                    // reverse edge (the compute stream seeing the
                    // unpacked halos) is the exchange's own
                    // `sync_stream`.
                    let ev = self.dev.record_event(COMPUTE);
                    self.dev.stream_wait_event(*s_y, ev);
                    ex.exchange(&mut self.dev, comm, *s_y, buf, dims, f.id())?;
                }
            }
            if z {
                self.zgrad(f)?;
            }
        }
        Ok(())
    }

    fn zgrad(&mut self, f: Hf) -> Result<(), VgpuError> {
        let name = match self.halo {
            Halo::PeriodicSelf => f.name(),
            Halo::Exchange { .. } => "halo_z",
        };
        let (buf, dims) = f.at(&self.ds, &self.geom);
        boundary::halo_zero_grad_z(&mut self.dev, COMPUTE, name, buf, dims)
    }

    /// Every prognostic's halos, field by field.
    fn all_halos(&mut self) -> Result<(), ModelError> {
        self.halos(self.halo.closing_set(), true)?;
        self.tracer_halos()
    }

    fn tracer_halos(&mut self) -> Result<(), ModelError> {
        for t in 0..self.ds.n_tracers {
            self.halos(&[Hf::Q(t)], true)?;
        }
        Ok(())
    }

    /// Cross-stream ordering: both comm streams wait for the compute
    /// stream's work issued so far (no-op on one device).
    fn comm_waits_for_compute(&mut self) {
        if let Halo::Exchange { s_y, s_x, .. } = self.halo {
            let ev = self.dev.record_event(COMPUTE);
            self.dev.stream_wait_event(s_y, ev);
            self.dev.stream_wait_event(s_x, ev);
        }
    }

    /// The overlap schedule's batched round: the y halos (which carry
    /// the corners) of every field in `fields` on the y comm stream,
    /// then the x halos on the x comm stream.
    fn exchange_batch(&mut self, fields: &[Hf]) -> Result<(), ModelError> {
        let Halo::Exchange {
            ex, comm, s_y, s_x, ..
        } = &mut self.halo
        else {
            unreachable!("only ranks exchange halos");
        };
        let field = |f: Hf| {
            let (buf, dims) = f.at(&self.ds, &self.geom);
            FieldRef {
                buf,
                dims,
                id: f.id(),
            }
        };
        let mut refs = [field(fields[0]); MAX_BATCH];
        for (r, &f) in refs.iter_mut().zip(fields) {
            *r = field(f);
        }
        let refs = &refs[..fields.len()];
        ex.exchange_y_many(&mut self.dev, comm, *s_y, refs)?;
        ex.exchange_x_many(&mut self.dev, comm, *s_x, refs)
    }

    /// The short-step halo point: field by field on serial schedules;
    /// one batched round that the inner kernels issued before it hide,
    /// then a full drain, on the overlap schedule.
    fn substep_halos(&mut self, fields: &[Hf], z: bool) -> Result<(), ModelError> {
        if !self.halo.overlaps() {
            return self.halos(fields, z);
        }
        self.exchange_batch(fields)?;
        self.dev.sync_all();
        if z {
            for &f in fields {
                self.zgrad(f)?;
            }
        }
        Ok(())
    }

    /// The halo point after tracer `t`'s update. Overlap method 1
    /// (Fig. 7) defers the lateral exchange into the next slow-tendency
    /// phase, where it hides under the momentum/θ advection kernels;
    /// only the vertical fill runs now.
    fn tracer_halo(&mut self, t: usize) -> Result<(), ModelError> {
        match &mut self.halo {
            Halo::Exchange {
                overlap: OverlapMode::Overlap,
                tracers_pending,
                ..
            } => {
                *tracers_pending = true;
                Ok(self.zgrad(Hf::Q(t))?)
            }
            _ => self.halos(&[Hf::Q(t)], true),
        }
    }

    /// Complete the tracer exchanges deferred by [`Self::tracer_halo`],
    /// just in time for this stage's tracer advection.
    fn flush_tracer_halos(&mut self) -> Result<(), ModelError> {
        if let Halo::Exchange {
            tracers_pending: pending @ true,
            ..
        } = &mut self.halo
        {
            *pending = false;
            return self.tracer_halos();
        }
        Ok(())
    }

    /// The long step's closing halo point, before the full EOS.
    fn closing_halos(&mut self) -> Result<(), ModelError> {
        if !self.halo.overlaps() {
            return self.all_halos();
        }
        // u/v are untouched by the physics kernels: their exchange
        // proceeds while warm rain / sedimentation / sponge still run on
        // the compute engine. The physics outputs travel once the
        // physics kernels have drained.
        self.exchange_batch(&[Hf::U, Hf::V])?;
        self.comm_waits_for_compute();
        self.exchange_batch(&[Hf::Rho, Hf::Th, Hf::W])?;
        for &f in self.halo.closing_set() {
            self.zgrad(f)?;
        }
        // (the deferred tracer exchanges complete at the start of the
        // next stage's slow-tendency phase)
        Ok(())
    }
}
