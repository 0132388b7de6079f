//! Per-layer measurements of the traced run, each timed from outside
//! by calling the layer's public functions.

use crate::host::Stopwatch;
use crate::input;
use crate::stats::median;
use crate::trace;
use crate::workload::{call_multi, multi_setup, Def};
use asuca_gpu::decomp::Decomp;
use asuca_gpu::halo::{FieldRef, HaloExchanger};
use asuca_gpu::kernels::physics as kphys;
use asuca_gpu::kernels::{advection, boundary, eos, helmholtz, pgf, tend, transform, Region};
use asuca_gpu::multi::OverlapMode;
use asuca_gpu::view::Dims;
use asuca_gpu::{kname, DeviceGeom, DeviceState, SingleGpu};
use cluster::NetworkSpec;
use dycore::config::ModelConfig;
use dycore::grid::{BaseFields, Grid, HALO};
use dycore::Model;
use numerics::Real;
use std::collections::BTreeMap;
use std::time::Instant;
use vgpu::{Device, DeviceSpec, ExecMode, OpKind, StreamId, VgpuError, WorkerPool};

/// Reported metrics: `(name, value, unit)`.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// Kernel entry points reported one by one (`kernels.<k>.*`).
const HEADLINE: [&str; 22] = [
    "advect_scalar",
    "advect_u",
    "advect_v",
    "advect_w",
    "helmholtz",
    "density",
    "potential_temperature",
    "eos_full",
    "eos_linear",
    "warm_rain",
    "sediment",
    "momentum_x",
    "momentum_y",
    "diffuse",
    "continuity_residual",
    "specific_center",
    "specific_u",
    "specific_v",
    "specific_w",
    "copy_buf",
    "zero_buf",
    "halo_periodic_xy",
];

/// The remaining entry points a step calls, reported together as
/// `kernels.other.*`.
const OTHER: [&str; 7] = [
    "coriolis",
    "metric_pg",
    "add_div_lin_theta",
    "tracer_update",
    "mass_flux_w",
    "halo_zero_grad_z",
    "rayleigh",
];

/// Entry points that launch through the worker pool (`launch_par`).
fn pooled(key: &str) -> bool {
    key != "halo_periodic_xy" && key != "halo_zero_grad_z"
}

/// The entry point behind a launch of the single-device driver, from
/// its profiler name. The `halo_*` names are shared by the lateral and
/// the vertical halo fills; `zgrad_bytes` (the vertical fill's byte
/// counts on this grid) tells them apart.
fn entry_of(name: &str, bytes: u64, zgrad_bytes: &[u64]) -> Option<&'static str> {
    let base = name.split('.').next().unwrap_or(name);
    let direct = HEADLINE.iter().chain(OTHER.iter()).find(|k| **k == base);
    if let Some(k) = direct {
        return Some(k);
    }
    let prefixed = |p: &str| base.starts_with(p);
    Some(match base {
        "advection_u" => "advect_u",
        "advection_v" => "advect_v",
        "advection_w" => "advect_w",
        "eos_ref" => "eos_full",
        "precipitation" => "sediment",
        "rayleigh_sponge" => "rayleigh",
        "div_lin_theta" => "add_div_lin_theta",
        "spec_u" => "specific_u",
        "spec_v" => "specific_v",
        "spec_w" => "specific_w",
        _ if prefixed("advection_") => "advect_scalar",
        _ if prefixed("diff_") => "diffuse",
        _ if prefixed("tracer_") => "tracer_update",
        _ if prefixed("transform_") => "specific_center",
        _ if prefixed("save_") || prefixed("restore_") || prefixed("capture_") => "copy_buf",
        _ if prefixed("clear_") => "zero_buf",
        _ if prefixed("halo_") => {
            if zgrad_bytes.contains(&bytes) {
                "halo_zero_grad_z"
            } else {
                "halo_periodic_xy"
            }
        }
        _ => return None,
    })
}

/// Call one kernel entry point once on the whole domain, with the
/// arguments the single-device driver passes.
fn replay<R: Real>(
    key: &str,
    dev: &mut Device<R>,
    g: &DeviceGeom<R>,
    ds: &DeviceState<R>,
    cfg: &ModelConfig,
    grid: &Grid,
) -> Result<(), VgpuError> {
    let st = StreamId::DEFAULT;
    let w = Region::Whole;
    let lim = cfg.limiter;
    let nz = g.nz as isize;
    let dt = cfg.dt;
    let dtau = dt / cfg.ns_acoustic as f64;
    match key {
        "advect_scalar" => advection::advect_scalar(
            dev,
            st,
            g,
            w,
            &kname!("advection_theta"),
            lim,
            true,
            ds.spec,
            ds.u,
            ds.v,
            ds.mw,
            ds.fth,
        ),
        "advect_u" => advection::advect_u(
            dev,
            st,
            g,
            w,
            &kname!("advection_u"),
            lim,
            ds.spec,
            ds.u,
            ds.v,
            ds.mw,
            ds.fu,
        ),
        "advect_v" => advection::advect_v(
            dev,
            st,
            g,
            w,
            &kname!("advection_v"),
            lim,
            ds.spec,
            ds.u,
            ds.v,
            ds.mw,
            ds.fv,
        ),
        "advect_w" => advection::advect_w(
            dev,
            st,
            g,
            w,
            &kname!("advection_w"),
            lim,
            ds.spec_w,
            ds.u,
            ds.v,
            ds.mw,
            ds.fw,
        ),
        "helmholtz" => helmholtz::helmholtz(
            dev,
            st,
            g,
            w,
            &kname!("helmholtz"),
            cfg.beta,
            dtau,
            helmholtz::HelmholtzArgs {
                u: ds.u,
                v: ds.v,
                w: ds.w,
                rho: ds.rho,
                th: ds.th,
                p: ds.p,
                fu_w: ds.fw,
                frho: ds.frho,
                fth: ds.fth,
                th_ref: ds.th_ref,
                p_ref: ds.p_ref,
                st_rho: ds.spec,
                st_th: ds.flux,
            },
        ),
        "density" => helmholtz::density(
            dev,
            st,
            g,
            w,
            &kname!("density"),
            cfg.beta,
            dtau,
            ds.spec,
            ds.w,
            ds.rho,
        ),
        "potential_temperature" => helmholtz::potential_temperature(
            dev,
            st,
            g,
            w,
            &kname!("potential_temperature"),
            cfg.beta,
            dtau,
            ds.flux,
            ds.w,
            ds.th,
        ),
        "eos_full" => eos::eos_full(dev, st, g, "eos_full", ds.th, ds.p),
        "eos_linear" => eos::eos_linear(dev, st, g, ds.th, ds.th_ref, ds.p_ref, ds.p),
        "warm_rain" => kphys::warm_rain(
            dev, st, g, dt, ds.rho, ds.th, ds.p, ds.q[0], ds.q[1], ds.q[2],
        ),
        "sediment" => kphys::sediment(dev, st, g, dt, ds.rho, ds.q[2], ds.precip),
        "rayleigh" => kphys::rayleigh(
            dev,
            st,
            g,
            grid,
            cfg.rayleigh.z_bottom,
            cfg.rayleigh.rate,
            dt,
            ds.w,
            ds.th,
            ds.rho,
        ),
        "momentum_x" => pgf::momentum_x(
            dev,
            st,
            g,
            w,
            &kname!("momentum_x"),
            ds.p,
            ds.fu,
            dtau,
            ds.u,
        ),
        "momentum_y" => pgf::momentum_y(
            dev,
            st,
            g,
            w,
            &kname!("momentum_y"),
            ds.p,
            ds.fv,
            dtau,
            ds.v,
        ),
        "diffuse" => tend::diffuse(
            dev,
            st,
            g,
            "diff_theta",
            cfg.k_diffusion,
            ds.spec,
            Some(g.th_c),
            tend::DiffWeight::Center,
            ds.rho,
            ds.fth,
            0,
            nz,
        ),
        "continuity_residual" => {
            tend::continuity_residual(dev, st, g, ds.u, ds.v, ds.w, ds.mw, ds.frho)
        }
        "coriolis" => tend::coriolis(dev, st, g, cfg.coriolis_f, ds.u, ds.v, ds.fu, ds.fv),
        "metric_pg" => tend::metric_pg(dev, st, g, ds.p, ds.fu, ds.fv),
        "add_div_lin_theta" => tend::add_div_lin_theta(dev, st, g, ds.u, ds.v, ds.w, ds.fth),
        "tracer_update" => tend::tracer_update(
            dev,
            st,
            g,
            w,
            &kname!("tracer_qv"),
            dt,
            ds.q_t[0],
            ds.fq[0],
            ds.q[0],
        ),
        "mass_flux_w" => transform::mass_flux_w(dev, st, g, ds.u, ds.v, ds.w, ds.mw),
        "specific_center" => {
            transform::specific_center(dev, st, g, "transform_theta", ds.th, ds.rho, ds.spec)
        }
        "specific_u" => transform::specific_u(dev, st, g, ds.u, ds.rho, ds.spec),
        "specific_v" => transform::specific_v(dev, st, g, ds.v, ds.rho, ds.spec),
        "specific_w" => transform::specific_w(dev, st, g, ds.w, ds.rho, ds.spec_w),
        "copy_buf" => transform::copy_buf(dev, st, "save_th_t", ds.th, ds.th_t),
        "zero_buf" => transform::zero_buf(dev, st, "clear_fth", ds.fth),
        "halo_periodic_xy" => boundary::halo_periodic_xy(dev, st, "halo_theta", ds.th, g.dc),
        "halo_zero_grad_z" => boundary::halo_zero_grad_z(dev, st, "halo_theta", ds.th, g.dc),
        _ => unreachable!("no replay for kernel entry {key}"),
    }
}

/// Calls per long step of each kernel entry point, from the profiler
/// records of one step of a small single-device model with the
/// workload's physics (the launch sequence does not depend on the grid
/// size).
pub fn calls_per_step(cfg: &ModelConfig, seed: u64) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut tiny = cfg.clone();
    (tiny.nx, tiny.ny, tiny.nz, tiny.threads) = (16, 16, 8, 1);
    let (_, _, s) = input::state_for(seed, &tiny);
    let mut g = SingleGpu::<f64>::new(tiny, DeviceSpec::tesla_s1070(), ExecMode::Functional);
    g.load_state(&s).map_err(|e| e.to_string())?;
    let n0 = g.dev.profiler.records().len();
    let st = StreamId::DEFAULT;
    boundary::halo_zero_grad_z(&mut g.dev, st, "halo_probe", g.ds.rho, g.geom.dc)
        .and_then(|_| boundary::halo_zero_grad_z(&mut g.dev, st, "halo_probe", g.ds.w, g.geom.dw))
        .map_err(|e| e.to_string())?;
    let zgrad: Vec<u64> = g.dev.profiler.records()[n0..]
        .iter()
        .map(|r| r.bytes as u64)
        .collect();
    g.dev.profiler.reset();
    g.step().map_err(|e| e.to_string())?;
    let mut calls = BTreeMap::new();
    for r in g.dev.profiler.records() {
        if r.kind != OpKind::Kernel {
            continue;
        }
        let k = entry_of(r.name, r.bytes as u64, &zgrad)
            .ok_or(format!("launch {:?} maps to no kernel entry point", r.name))?;
        *calls.entry(k).or_insert(0.0) += 1.0;
    }
    Ok(calls)
}

/// One entry point replayed on a model: host seconds per call (median),
/// simulated seconds and analytic bytes per call.
#[derive(Debug, Clone, Copy)]
pub struct Replayed {
    pub host_s: f64,
    pub sim_s: f64,
    pub bytes: f64,
}

/// Replay every entry point `reps` times on a warmed model.
pub fn replay_all<R: Real>(
    dev: &mut Device<R>,
    g: &DeviceGeom<R>,
    ds: &DeviceState<R>,
    cfg: &ModelConfig,
    grid: &Grid,
    reps: usize,
) -> Result<BTreeMap<&'static str, Replayed>, String> {
    dev.profiler.set_detailed(true);
    let mut out = BTreeMap::new();
    for key in HEADLINE.iter().chain(OTHER.iter()) {
        let mut host = Vec::with_capacity(reps);
        let (mut sim, mut bytes) = (0.0, 0.0);
        for _ in 0..reps {
            let n0 = dev.profiler.records().len();
            let (r, secs) = timed(&format!("kernels::{key}"), || {
                replay(key, dev, g, ds, cfg, grid)
            });
            r.map_err(|e| format!("{key}: {e}"))?;
            host.push(secs);
            let recs = &dev.profiler.records()[n0..];
            sim = recs.iter().map(|r| r.duration()).sum();
            bytes = recs.iter().map(|r| r.bytes).sum();
        }
        dev.sync_all();
        out.insert(
            *key,
            Replayed {
                host_s: median(&host).expect("replay samples"),
                sim_s: sim,
                bytes,
            },
        );
    }
    Ok(out)
}

/// `kernels.*` metrics from the replay, weighted by calls per step, as
/// shares of the workload's `step_s`.
pub fn kernel_metrics(
    rep: &BTreeMap<&'static str, Replayed>,
    calls: &BTreeMap<&'static str, f64>,
    step_s: f64,
    m: &mut Metrics,
) {
    let c = |k: &str| calls.get(k).copied().unwrap_or(0.0);
    let sim_total: f64 = rep.iter().map(|(k, r)| r.sim_s * c(k)).sum();
    let mut host_total = 0.0;
    for k in HEADLINE {
        let r = rep[k];
        let host_s = r.host_s * c(k);
        host_total += host_s;
        m.push((format!("kernels.{k}.host_ms"), host_s * 1e3, "ms"));
        m.push((format!("kernels.{k}.share"), host_s / step_s, "ratio"));
        m.push((
            format!("kernels.{k}.gbps_computed"),
            r.bytes / r.host_s / 1e9,
            "GB/s",
        ));
        m.push((
            format!("kernels.{k}.sim_share"),
            r.sim_s * c(k) / sim_total,
            "ratio",
        ));
    }
    let other: f64 = OTHER.iter().map(|k| rep[k].host_s * c(k)).sum();
    host_total += other;
    m.push(("kernels.other.host_ms".into(), other * 1e3, "ms"));
    m.push(("kernels.other.share".into(), other / step_s, "ratio"));
    m.push(("kernels.coverage".into(), host_total / step_s, "ratio"));
    m.push((
        "pool.launches_per_step".into(),
        calls
            .iter()
            .filter(|(k, _)| pooled(k))
            .map(|(_, n)| n)
            .sum(),
        "count",
    ));
}

/// A device with the workload's geometry and state but no host-side
/// model (how the 2-rank drivers build a rank).
pub struct Rig<R: Real> {
    pub dev: Device<R>,
    pub geom: DeviceGeom<R>,
    pub ds: DeviceState<R>,
    pub grid: Grid,
    pub cfg: ModelConfig,
}

impl<R: Real> Rig<R> {
    pub fn phantom(cfg: &ModelConfig) -> Result<Self, String> {
        let grid = Grid::build(cfg);
        let mut dev = Device::<R>::new(DeviceSpec::tesla_s1070(), ExecMode::Phantom);
        let geom = DeviceGeom::build_phantom(&mut dev, &grid);
        let mut ds =
            DeviceState::alloc(&mut dev, &geom, cfg.n_tracers).map_err(|e| e.to_string())?;
        ds.upload_phantom(&mut dev, &geom);
        Ok(Rig {
            dev,
            geom,
            ds,
            grid,
            cfg: cfg.clone(),
        })
    }
}

/// Wall microseconds per Phantom-mode launch over one step's mix of
/// entry points (median of `reps` mixes).
pub fn phantom_launch_us<R: Real>(
    rig: &mut Rig<R>,
    calls: &BTreeMap<&'static str, f64>,
    reps: usize,
) -> Result<f64, String> {
    rig.dev.profiler.set_detailed(false);
    let launches: f64 = calls.values().sum();
    let mut per = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        trace::span("vgpu::phantom_mix", || -> Result<(), String> {
            for (k, n) in calls {
                for _ in 0..*n as usize {
                    replay(k, &mut rig.dev, &rig.geom, &rig.ds, &rig.cfg, &rig.grid)
                        .map_err(|e| e.to_string())?;
                }
            }
            Ok(())
        })?;
        per.push(t0.elapsed().as_secs_f64() * 1e6 / launches);
    }
    rig.dev.sync_all();
    Ok(median(&per).expect("mix samples"))
}

/// Run `f` as a span and return its result with its wall seconds.
fn timed<T>(name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = trace::span(name, f);
    (out, t0.elapsed().as_secs_f64())
}

/// Set-up split into its layers, at the workload's per-device size and
/// mode: `(grid_s, base_s, device_s, upload_s)`.
pub fn setup_layers<R: Real>(d: &Def, seed: u64) -> Result<[f64; 4], String> {
    let cfg = &d.cfg;
    let functional = d.mode == ExecMode::Functional;
    let state = functional.then(|| input::state_for(seed, cfg).2);
    let profile = physics::base::BaseState {
        profile: cfg.base,
        p_surface: physics::consts::P00,
    };
    let (grid, grid_s) = timed("Grid::build", || Grid::build(cfg));
    let (base, base_s) = timed("BaseFields::build", || BaseFields::build(&grid, &profile));
    let ((mut dev, geom, ds), device_s) = timed("DeviceGeom::build+DeviceState::alloc", || {
        let spec = DeviceSpec::tesla_s1070()
            .with_host_threads(cfg.threads)
            .with_host_simd(cfg.simd.unwrap_or(false));
        let mut dev = Device::<R>::new(spec, d.mode);
        let geom = if functional {
            DeviceGeom::build(&mut dev, &grid, &base)
        } else {
            DeviceGeom::build_phantom(&mut dev, &grid)
        };
        let ds = DeviceState::alloc(&mut dev, &geom, cfg.n_tracers);
        (dev, geom, ds)
    });
    let mut ds = ds.map_err(|e| e.to_string())?;
    let ((), upload_s) = timed("DeviceState::upload", || match &state {
        Some(s) => ds.upload(&mut dev, &geom, s),
        None => ds.upload_phantom(&mut dev, &geom),
    });
    Ok([grid_s, base_s, device_s, upload_s])
}

/// Round trip of an empty-body `run_slabs` on a pool of `threads`
/// participants [µs] (median of batches).
pub fn pool_dispatch_us(threads: usize) -> f64 {
    let pool = WorkerPool::new(threads);
    let batch = 2000;
    let mut per = Vec::new();
    for rep in 0..6 {
        let t0 = Instant::now();
        trace::span("WorkerPool::run_slabs", || {
            for _ in 0..batch {
                pool.run_slabs(threads, threads, |j0, j1| {
                    std::hint::black_box((j0, j1));
                });
            }
        });
        if rep > 0 {
            per.push(t0.elapsed().as_secs_f64() * 1e6 / batch as f64);
        }
    }
    median(&per).expect("pool samples")
}

/// One y+x halo round of four center fields between the two ranks of
/// `halo_2rank` (host staging included): `(ms per round, MPI bytes
/// per round and rank)`.
pub fn halo_exchange(d: &Def, rounds: usize) -> Result<(f64, f64), String> {
    let (nx, ny, nz) = (d.cfg.nx, d.cfg.ny, d.cfg.nz);
    let dc = Dims::center(nx, ny, nz, HALO);
    let dw = Dims::wlevel(nx, ny, nz, HALO);
    let topo = Decomp::disjoint(d.px, d.py, nx, ny, nz).topo;
    let ctx = trace::current();
    let outs = cluster::spawn_ranks::<Vec<f64>, Result<(Vec<f64>, f64), String>, _>(
        d.ranks(),
        NetworkSpec::tsubame1_infiniband(),
        |mut comm| {
            trace::within(ctx, || {
                let rank = comm.rank();
                let spec = DeviceSpec::tesla_s1070().with_host_threads(1);
                let mut dev = Device::<f64>::new(spec, ExecMode::Functional);
                let mut fields = Vec::new();
                for id in 0..4u32 {
                    let buf = dev.alloc(dc.len()).map_err(|e| e.to_string())?;
                    dev.write_vec(buf, &vec![rank as f64 + id as f64; dc.len()]);
                    fields.push(FieldRef { buf, dims: dc, id });
                }
                let mut ex = HaloExchanger::new(&mut dev, &topo, rank, dc, dw);
                let stream = dev.create_stream();
                let mut per = Vec::new();
                for r in 0..=rounds {
                    let t0 = Instant::now();
                    trace::span("HaloExchanger::exchange_y_many", || {
                        ex.exchange_y_many(&mut dev, &mut comm, stream, &fields)
                    })
                    .and_then(|_| {
                        trace::span("HaloExchanger::exchange_x_many", || {
                            ex.exchange_x_many(&mut dev, &mut comm, stream, &fields)
                        })
                    })
                    .map_err(|e| e.to_string())?;
                    dev.sync_all();
                    if r > 0 {
                        per.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                }
                let bytes = ex.stats.mpi_bytes as f64 / (rounds + 1) as f64;
                ex.free(&mut dev);
                for f in fields {
                    let _ = dev.free(f.buf);
                }
                Ok((per, bytes))
            })
        },
    );
    let mut per = Vec::new();
    let mut bytes = 0.0;
    for o in outs {
        let (p, b) = o?;
        per.extend(p);
        bytes = b;
    }
    Ok((median(&per).expect("halo samples"), bytes))
}

/// Ping-pong round trip between two ranks of messages of `elems` f64
/// elements [µs] (median).
pub fn comm_pingpong_us(elems: usize, reps: usize) -> Result<f64, String> {
    let ctx = trace::current();
    let outs = cluster::spawn_ranks::<Vec<f64>, Result<Vec<f64>, String>, _>(
        2,
        NetworkSpec::tsubame1_infiniband(),
        |mut comm| {
            trace::within(ctx, || {
                let me = comm.rank();
                let peer = 1 - me;
                let bytes = (elems * 8) as u64;
                let mut buf = vec![0.0f64; elems];
                let mut per = Vec::new();
                for r in 0..=reps {
                    let t0 = Instant::now();
                    // Rank 0 sends first; rank 1 echoes the message back.
                    if me == 0 {
                        trace::span("Comm::send", || comm.send(peer, 7, buf, bytes, 0.0))
                            .map_err(|e| e.to_string())?;
                    }
                    buf = trace::span("Comm::recv", || comm.recv(peer, 7, 0.0))
                        .map_err(|e| e.to_string())?
                        .data;
                    if me == 1 {
                        let echo = std::mem::take(&mut buf);
                        trace::span("Comm::send", || comm.send(peer, 7, echo, bytes, 0.0))
                            .map_err(|e| e.to_string())?;
                    }
                    if r > 0 && me == 0 {
                        per.push(t0.elapsed().as_secs_f64() * 1e6);
                    }
                }
                Ok(per)
            })
        },
    );
    let mut per = Vec::new();
    for o in outs {
        per.extend(o?);
    }
    Ok(median(&per).expect("ping-pong samples"))
}

/// The plain single-threaded CPU reference and the port at
/// `small_1dev`'s size on the same seeded input: `(ref s/step, port
/// s/step)`, medians of `steps` steps after one warm-up step each.
pub fn reference_vs_port(seed: u64, steps: usize) -> Result<(f64, f64), String> {
    let d = Def::get("small_1dev").expect("small_1dev is defined");
    let mut cfg = d.cfg.clone();
    cfg.threads = 1;
    let (_, _, s) = input::state_for(seed, &cfg);
    let mut cpu = Model::new(cfg);
    cpu.state = s.clone();
    cpu.finalize_init();
    let mut gpu = SingleGpu::<f64>::new(d.cfg.clone(), DeviceSpec::tesla_s1070(), d.mode);
    gpu.load_state(&s).map_err(|e| e.to_string())?;
    let (mut r, mut p) = (Vec::new(), Vec::new());
    for i in 0..=steps {
        let sw = Stopwatch::start();
        trace::span("dycore::Model::step", || cpu.step());
        let ref_s = sw.stop().guest;
        let sw = Stopwatch::start();
        trace::span("SingleGpu::step", || gpu.step()).map_err(|e| e.to_string())?;
        if i > 0 {
            r.push(ref_s);
            p.push(sw.stop().guest);
        }
    }
    Ok((
        median(&r).expect("ref samples"),
        median(&p).expect("port samples"),
    ))
}

/// `halo_2rank` with and without the overlap schedule: `(host s/step
/// overlap ÷ serial, simulated MPI s/step, simulated PCIe s/step)`, the
/// simulated values from the overlapped run.
pub fn overlap_probe(seed: u64) -> Result<(f64, f64, f64), String> {
    let d = Def::get("halo_2rank").expect("halo_2rank is defined");
    let k = d.steps_per_call;
    let mut step = [0.0; 2];
    let mut sim = (0.0, 0.0);
    for (n, mode) in [OverlapMode::Overlap, OverlapMode::None]
        .into_iter()
        .enumerate()
    {
        let setup = multi_setup::<f64>(&d, seed, mode, 1)?[0].guest;
        let (rep, e) = call_multi::<f64>(&d, seed, k, mode, false)?;
        step[n] = (e.guest - setup) / k as f64;
        if mode == OverlapMode::Overlap {
            sim = (rep.mpi_s / k as f64, rep.pcie_s / k as f64);
        }
    }
    Ok((step[0] / step[1], sim.0, sim.1))
}
