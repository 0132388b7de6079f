//! The four workloads: their configurations, set-up, timed loops and
//! correctness gates. Everything here calls the program through its
//! public API only.

use crate::host::{Elapsed, Stopwatch};
use crate::input::{self, Placement};
use crate::trace;
use asuca_gpu::decomp::Decomp;
use asuca_gpu::multi::{run_multi, MultiGpuConfig, MultiGpuReport, OverlapMode};
use asuca_gpu::{DeviceGeom, DeviceState, SingleGpu};
use cluster::NetworkSpec;
use dycore::config::ModelConfig;
use dycore::{Model, State};
use numerics::Real;
use std::time::Instant;
use vgpu::{Device, DeviceSpec, ExecMode, OpKind};

pub const NAMES: [&str; 4] = ["paper_1dev", "small_1dev", "halo_2rank", "phantom_2rank"];

/// Host threads of a 1-device workload: up to two pool workers. The
/// 2-rank workloads run one per rank, so no workload asks for more
/// threads than two.
pub fn device_threads() -> usize {
    crate::host::nproc().min(2)
}

/// One workload: the per-device (per-rank) model configuration and how
/// it is driven.
#[derive(Clone)]
pub struct Def {
    pub name: &'static str,
    /// Per-device configuration (per-rank for 2-rank workloads).
    pub cfg: ModelConfig,
    /// Rank grid; `(1, 1)` drives one `SingleGpu`.
    pub px: usize,
    pub py: usize,
    pub mode: ExecMode,
    pub f32: bool,
    /// Long steps per timed `run_multi` call.
    pub steps_per_call: usize,
    /// Set-ups per invocation (`setup_s` is their median).
    pub setup_reps: usize,
}

impl Def {
    pub(crate) fn ranks(&self) -> usize {
        self.px * self.py
    }

    pub fn multi(&self) -> bool {
        self.ranks() > 1
    }

    pub fn get(name: &str) -> Option<Def> {
        let pinned = |mut c: ModelConfig, multi: bool| {
            // Pin every knob the environment could otherwise set.
            c.threads = if multi { 1 } else { device_threads() };
            c.simd = Some(numerics::simd::lanes_native());
            c.fault = None;
            c.checkpoint_every = 0;
            c.guard_every = 0;
            c
        };
        let (cfg, px, mode, f32, steps_per_call, setup_reps) = match name {
            "paper_1dev" => (
                pinned(asuca_bench::paper_subdomain(256), false),
                1,
                ExecMode::Functional,
                false,
                1,
                3,
            ),
            "small_1dev" => (
                pinned(asuca_bench::small_subdomain(64, 64, 32), false),
                1,
                ExecMode::Functional,
                false,
                1,
                10,
            ),
            "halo_2rank" => (
                pinned(asuca_bench::small_subdomain(128, 128, 32), true),
                2,
                ExecMode::Functional,
                false,
                2,
                5,
            ),
            "phantom_2rank" => (
                pinned(asuca_bench::paper_subdomain(256), true),
                2,
                ExecMode::Phantom,
                true,
                50,
                20,
            ),
            _ => return None,
        };
        Some(Def {
            name: NAMES.into_iter().find(|n| *n == name)?,
            cfg,
            px,
            py: 1,
            mode,
            f32,
            steps_per_call,
            setup_reps,
        })
    }

    /// Global mesh of a 2-rank workload.
    pub(crate) fn global(&self) -> (usize, usize) {
        (self.px * self.cfg.nx, self.py * self.cfg.ny)
    }

    pub(crate) fn multi_config(
        &self,
        steps: usize,
        overlap: OverlapMode,
        detailed: bool,
    ) -> MultiGpuConfig {
        MultiGpuConfig {
            local_cfg: self.cfg.clone(),
            px: self.px,
            py: self.py,
            overlap,
            spec: DeviceSpec::tesla_s1070(),
            net: NetworkSpec::tsubame1_infiniband(),
            mode: self.mode,
            steps,
            detailed_profile: detailed,
        }
    }

    /// Device bytes the workload allocates (all ranks), from a phantom
    /// allocation of its geometry and state.
    pub fn working_set_bytes(&self) -> u64 {
        fn probe<R: Real>(cfg: &ModelConfig) -> u64 {
            let grid = dycore::grid::Grid::build(cfg);
            let mut dev = Device::<R>::new(DeviceSpec::tesla_s1070(), ExecMode::Phantom);
            let geom = DeviceGeom::build_phantom(&mut dev, &grid);
            let _ds = DeviceState::alloc(&mut dev, &geom, cfg.n_tracers)
                .expect("workload fits the device");
            dev.mem_used()
        }
        let per = if self.f32 {
            probe::<f32>(&self.cfg)
        } else {
            probe::<f64>(&self.cfg)
        };
        per * self.ranks() as u64
    }
}

/// One correctness check and what it found.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &str, ok: bool, detail: String) -> Self {
        Check {
            name: name.to_string(),
            ok,
            detail,
        }
    }
}

/// Everything a workload invocation measured.
#[derive(Debug, Default)]
pub struct Timed {
    /// Seconds per long step less stolen CPU time ([`Elapsed::guest`]),
    /// one sample per step (1-device) or per `run_multi` call (2-rank),
    /// tracing off.
    pub step: Vec<f64>,
    /// The same samples in plain wall seconds.
    pub step_wall: Vec<f64>,
    /// Guest seconds per step with tracing on (traced runs only;
    /// alternated with the untraced samples).
    pub step_traced: Vec<f64>,
    /// Guest seconds from configuration to a model ready to step.
    pub setup: Vec<f64>,
    /// The same in plain wall seconds.
    pub setup_wall: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Simulated seconds of the first timed long step.
    pub sim_step_s: f64,
    pub peak_rss_mb: f64,
    /// Share of CPU time stolen by the hypervisor during the timed loop
    /// (noise diagnostics; NaN where unavailable).
    pub steal_share: f64,
    pub launches_per_step: f64,
    pub copies_per_step: f64,
    pub checks: Vec<Check>,
}

/// Untraced samples a run takes at least, even past `--seconds`: the
/// median of three rejects one outlying step, which the median of two
/// (their mean) cannot.
const MIN_SAMPLES: usize = 3;

/// Run `one()` until `seconds` have passed and at least [`MIN_SAMPLES`]
/// untraced samples (and one traced sample when `traced`) are in.
/// Traced runs alternate untraced and traced samples so the two see the
/// same host conditions. Stops at the first error.
fn timed_loop(
    seconds: f64,
    traced: bool,
    t: &mut Timed,
    per_call_steps: u64,
    mut one: impl FnMut() -> Result<Elapsed, String>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let j0 = crate::host::cpu_jiffies();
    let mut i = 0usize;
    let result = loop {
        let done = t.step.len() >= MIN_SAMPLES
            && (!traced || !t.step_traced.is_empty())
            && t0.elapsed().as_secs_f64() >= seconds;
        if done {
            break Ok(());
        }
        let tr = traced && i % 2 == 1;
        trace::set_enabled(tr);
        t.attempted += per_call_steps;
        match one() {
            Ok(e) if tr => t.step_traced.push(e.guest),
            Ok(e) => {
                t.step.push(e.guest);
                t.step_wall.push(e.wall);
            }
            Err(e) => {
                t.failed += per_call_steps;
                break Err(e);
            }
        }
        i += 1;
    };
    trace::set_enabled(traced);
    t.steal_share = match (j0, crate::host::cpu_jiffies()) {
        (Some((s0, n0)), Some((s1, n1))) if n1 > n0 => (s1 - s0) as f64 / (n1 - n0) as f64,
        _ => f64::NAN,
    };
    result
}

/// Largest absolute difference over every prognostic interior field.
fn max_state_diff(a: &State, b: &State) -> f64 {
    let mut d = [&a.rho, &a.u, &a.v, &a.w, &a.th, &a.p]
        .iter()
        .zip([&b.rho, &b.u, &b.v, &b.w, &b.th, &b.p])
        .map(|(x, y)| x.max_diff(y))
        .fold(0.0, f64::max);
    for (x, y) in a.q.iter().zip(&b.q) {
        d = d.max(x.max_diff(y));
    }
    d
}

/// Simulated seconds per step recorded for each workload; the gate
/// requires the measured value bit for bit.
pub fn expected_sim_step_s(expected: &crate::json::Value, name: &str) -> Option<f64> {
    expected.get(name)?.get("sim_step_s")?.as_f64()
}

fn sim_check(name: &str, measured: f64, expected: Option<f64>) -> Check {
    let ok = expected.is_some_and(|e| e.to_bits() == measured.to_bits());
    Check::new(
        "sim_step_s_matches_record",
        ok,
        format!(
            "{name}: measured {measured:?} simulated s/step, recorded {}",
            expected.map_or("none".into(), |e| format!("{e:?}"))
        ),
    )
}

/// Steps the CPU reference and the port take side by side before the
/// timed loop (they double as the port's warm-up).
pub(crate) const REF_CHECK_STEPS: usize = 2;
/// Tolerance of the GPU≡CPU comparison (as `tests/gpu_vs_cpu.rs`).
pub(crate) const REF_TOL: f64 = 1e-8;
/// Tolerance of the multi≡single comparison (as `tests/multi_gpu.rs`).
pub(crate) const MULTI_TOL: f64 = 1e-10;
/// Relative mass drift allowed on `paper_1dev` over the timed steps
/// (terrain leaves a truncation-level wiggle; see
/// `tests/gpu_vs_cpu.rs`).
pub(crate) const MASS_TOL: f64 = 5e-7;

/// A one-device workload. Returns the model (warmed, after the timed
/// loop) for the traced run's per-kernel replay.
pub fn run_single<R: Real>(
    d: &Def,
    seed: u64,
    seconds: f64,
    traced: bool,
    expected: Option<f64>,
    t: &mut Timed,
) -> Result<SingleGpu<R>, String> {
    let cfg = d.cfg.clone();
    let (_, _, mut state) = trace::span("input::state_for", || input::state_for(seed, &cfg));

    let mut gpu: Option<SingleGpu<R>> = None;
    for _ in 0..d.setup_reps {
        drop(gpu.take());
        let sw = Stopwatch::start();
        let mut g = trace::run("setup", || {
            let mut g = trace::span("SingleGpu::new", || {
                SingleGpu::<R>::new(cfg.clone(), DeviceSpec::tesla_s1070(), d.mode)
            });
            trace::span("SingleGpu::load_state", || g.load_state(&state)).map(|_| g)
        })
        .map_err(|e| format!("load_state: {e}"))?;
        let e = sw.stop();
        t.setup.push(e.guest);
        t.setup_wall.push(e.wall);
        g.dev.sync_all();
        gpu = Some(g);
    }
    let mut gpu = gpu.expect("at least one set-up");

    // Warm-up, and on small_1dev the GPU≡CPU gate.
    if d.name == "small_1dev" {
        let mut cpu = Model::new(cfg.clone());
        cpu.state = state.clone();
        cpu.finalize_init();
        for _ in 0..REF_CHECK_STEPS {
            trace::span("dycore::Model::step", || cpu.step());
            trace::span("SingleGpu::step", || gpu.step()).map_err(|e| e.to_string())?;
        }
        let mut out = State::zeros(&gpu.grid, cfg.n_tracers);
        gpu.save_state(&mut out);
        let diff = max_state_diff(&cpu.state, &out);
        t.checks.push(Check::new(
            "matches_cpu_reference",
            diff <= REF_TOL,
            format!(
                "max |port - dycore| = {diff:e} after {REF_CHECK_STEPS} steps (tol {REF_TOL:e})"
            ),
        ));
    } else {
        trace::span("SingleGpu::step", || gpu.step()).map_err(|e| e.to_string())?;
    }

    let mass = |gpu: &mut SingleGpu<R>, s: &mut State| {
        gpu.save_state(s);
        s.rho.sum_interior() + s.precip.sum_interior() / gpu.grid.dzeta
    };
    let check_mass = d.name == "paper_1dev";
    let m0 = if check_mass {
        mass(&mut gpu, &mut state)
    } else {
        0.0
    };

    gpu.dev.profiler.reset();
    let mut sim_first = None;
    let steps0 = gpu.steps_taken;
    let run = timed_loop(seconds, traced, t, 1, || {
        let sim0 = gpu.dev.host_time();
        let sw = Stopwatch::start();
        trace::run("SingleGpu::step", || gpu.step()).map_err(|e| e.to_string())?;
        let e = sw.stop();
        sim_first.get_or_insert(gpu.dev.host_time() - sim0);
        Ok(e)
    });
    t.sim_step_s = sim_first.unwrap_or(f64::NAN);
    t.peak_rss_mb = crate::host::peak_rss_mb();
    run?;
    let steps = (gpu.steps_taken - steps0) as f64;
    let prof = &gpu.dev.profiler;
    t.launches_per_step = prof.kernel_launches as f64 / steps;
    t.copies_per_step = prof
        .records()
        .iter()
        .filter(|r| r.kind != OpKind::Kernel)
        .count() as f64
        / steps;

    t.checks.push(sim_check(d.name, t.sim_step_s, expected));
    if check_mass {
        let m1 = mass(&mut gpu, &mut state);
        let drift = (m1 - m0) / m0;
        t.checks.push(Check::new(
            "prognostics_finite",
            state.find_non_finite().is_none(),
            format!("first non-finite field: {:?}", state.find_non_finite()),
        ));
        t.checks.push(Check::new(
            "mass_conserved",
            drift.abs() <= MASS_TOL,
            format!("relative mass drift {drift:e} over {steps} steps (tol {MASS_TOL:e})"),
        ));
    }
    Ok(gpu)
}

/// The `run_multi` init hook of a workload: each rank generates its
/// piece of the global seeded field.
pub(crate) fn rank_init(
    d: &Def,
    seed: u64,
) -> impl Fn(usize, &dycore::grid::Grid, &dycore::grid::BaseFields, &mut State) + Sync {
    let decomp = Decomp::disjoint(d.px, d.py, d.cfg.nx, d.cfg.ny, d.cfg.nz);
    let (gnx, gny) = d.global();
    move |rank, grid, base, s| {
        let (x0, y0) = decomp.origin_disjoint(rank);
        input::moist_inflow(seed, grid, base, s, Placement { x0, y0, gnx, gny });
    }
}

/// One `run_multi` call, returning its report and how long it took.
pub fn call_multi<R: Real>(
    d: &Def,
    seed: u64,
    steps: usize,
    overlap: OverlapMode,
    detailed: bool,
) -> Result<(MultiGpuReport, Elapsed), String> {
    let mc = d.multi_config(steps, overlap, detailed);
    let init = rank_init(d, seed);
    let sw = Stopwatch::start();
    let r = trace::span("run_multi", || run_multi::<R>(&mc, &init)).map_err(|e| e.to_string())?;
    Ok((r, sw.stop()))
}

/// Set-up times of `run_multi` (calls with zero steps).
pub fn multi_setup<R: Real>(
    d: &Def,
    seed: u64,
    overlap: OverlapMode,
    reps: usize,
) -> Result<Vec<Elapsed>, String> {
    (0..reps)
        .map(|_| {
            trace::run("setup", || call_multi::<R>(d, seed, 0, overlap, false)).map(|(_, w)| w)
        })
        .collect()
}

/// The single-domain reference of a 2-rank workload: one `SingleGpu`
/// over the global mesh, fed the same seeded field.
fn single_domain_reference(d: &Def, seed: u64, steps: usize) -> Result<State, String> {
    let mut cfg = d.cfg.clone();
    (cfg.nx, cfg.ny) = d.global();
    cfg.threads = device_threads();
    let (grid, _, state) = input::state_for(seed, &cfg);
    let mut gpu =
        SingleGpu::<f64>::new(cfg.clone(), DeviceSpec::tesla_s1070(), ExecMode::Functional);
    gpu.load_state(&state).map_err(|e| e.to_string())?;
    for _ in 0..steps {
        trace::span("SingleGpu::step", || gpu.step()).map_err(|e| e.to_string())?;
    }
    let mut out = State::zeros(&grid, cfg.n_tracers);
    gpu.save_state(&mut out);
    Ok(out)
}

/// Largest difference between each rank's interior and the matching
/// block of the global state.
fn max_rank_diff(d: &Def, ranks: &[State], global: &State) -> f64 {
    let decomp = Decomp::disjoint(d.px, d.py, d.cfg.nx, d.cfg.ny, d.cfg.nz);
    let (nx, ny, nz) = (d.cfg.nx as isize, d.cfg.ny as isize, d.cfg.nz as isize);
    let mut worst = 0.0f64;
    for (rank, local) in ranks.iter().enumerate() {
        let (x0, y0) = decomp.origin_disjoint(rank);
        let (x0, y0) = (x0 as isize, y0 as isize);
        let mut pairs = vec![
            (&local.rho, &global.rho, nz),
            (&local.u, &global.u, nz),
            (&local.v, &global.v, nz),
            (&local.th, &global.th, nz),
            (&local.w, &global.w, nz + 1),
        ];
        pairs.extend(local.q.iter().zip(&global.q).map(|(a, b)| (a, b, nz)));
        for (a, b, levels) in pairs {
            for j in 0..ny {
                for i in 0..nx {
                    for k in 0..levels {
                        worst = worst.max((a.at(i, j, k) - b.at(i + x0, j + y0, k)).abs());
                    }
                }
            }
        }
    }
    worst
}

/// A 2-rank workload: set-ups, a warm-up call, the timed calls, then a
/// call with the detailed profile that carries the counts and the
/// correctness gates.
pub fn run_multi_workload<R: Real>(
    d: &Def,
    seed: u64,
    seconds: f64,
    traced: bool,
    expected: Option<f64>,
    t: &mut Timed,
) -> Result<(), String> {
    let overlap = OverlapMode::Overlap;
    let setups = multi_setup::<R>(d, seed, overlap, d.setup_reps)?;
    t.setup = setups.iter().map(|e| e.guest).collect();
    t.setup_wall = setups.iter().map(|e| e.wall).collect();
    let setup_guest = crate::stats::median(&t.setup).expect("set-up samples");
    let setup_wall = crate::stats::median(&t.setup_wall).expect("set-up samples");
    let k = d.steps_per_call;

    trace::run("warm-up", || call_multi::<R>(d, seed, k, overlap, false))?;
    let run = timed_loop(seconds, traced, t, k as u64, || {
        let (_, e) = trace::run("timed", || call_multi::<R>(d, seed, k, overlap, false))?;
        Ok(Elapsed {
            wall: (e.wall - setup_wall) / k as f64,
            guest: (e.guest - setup_guest) / k as f64,
        })
    });
    t.peak_rss_mb = crate::host::peak_rss_mb();
    run?;

    // One more call with the detailed profile on, for the counts and
    // the gates (after the timed loop, so its records do not weigh on
    // the timed calls or on the peak memory).
    let (first, _) = trace::run("check", || call_multi::<R>(d, seed, k, overlap, true))?;
    t.sim_step_s = first.total_time_s / k as f64;
    let count = |copies: bool| -> u64 {
        first
            .kernel_breakdown
            .iter()
            .filter(|(n, _, _)| (n == "h2d" || n == "d2h") == copies)
            .map(|(_, c, _)| c)
            .sum()
    };
    t.launches_per_step = count(false) as f64 / k as f64;
    t.copies_per_step = count(true) as f64 / k as f64;
    t.checks.push(sim_check(d.name, t.sim_step_s, expected));
    if d.mode == ExecMode::Functional {
        let ranks = first.final_states.as_deref().unwrap_or(&[]);
        let global = trace::run("reference", || single_domain_reference(d, seed, k))?;
        let diff = max_rank_diff(d, ranks, &global);
        t.checks.push(Check::new(
            "matches_single_domain",
            ranks.len() == d.ranks() && diff <= MULTI_TOL,
            format!(
                "max |rank - single| = {diff:e} over {} ranks after {k} steps (tol {MULTI_TOL:e})",
                ranks.len()
            ),
        ));
    }
    Ok(())
}
