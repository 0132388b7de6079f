//! Bitwise oracle for the advection kernels' flux-reuse sweep.
//!
//! The production kernels form each face flux once and share it between
//! the two cells on either side. The reference below is the form they
//! replaced: every cell computes all six of its face fluxes itself,
//! scalar, straight off `V3::at`. Both must agree to the last bit
//! (`to_bits`) for every kernel, limiter, precision, region, thread
//! count and lane setting, on fields that hit the limiter's awkward
//! cases: mixed-sign velocities, ±0.0, flat neighbour pairs and
//! differences inside the 1e-30 eps guard, and local extrema.

use asuca_gpu::kernels::advection::{advect_scalar, advect_u, advect_v, advect_w};
use asuca_gpu::kernels::region::Rect;
use asuca_gpu::view::{Dims, V3};
use asuca_gpu::{kname, DeviceGeom, Region};
use dycore::config::{ModelConfig, Terrain};
use dycore::grid::{BaseFields, Grid};
use numerics::limiter::{limited_flux, Limiter};
use numerics::Real;
use physics::base::BaseState;
use vgpu::{Buf, Device, DeviceSpec, ExecMode, StreamId};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Scalar,
    U,
    V,
    W,
}

const KINDS: [Kind; 4] = [Kind::Scalar, Kind::U, Kind::V, Kind::W];

const LIMITERS: [Limiter; 6] = [
    Limiter::Koren,
    Limiter::Upwind1,
    Limiter::Minmod,
    Limiter::VanLeer,
    Limiter::Superbee,
    Limiter::UnlimitedKappaThird,
];

const REGIONS: [Region; 4] = [Region::Whole, Region::Inner, Region::XBound, Region::YBound];

/// The two-faces-per-cell body: per cell, the six face velocities of the
/// kernel's stagger, six limited fluxes and their divergence, added to
/// `out` in the kernels' operation order.
#[allow(clippy::too_many_arguments)]
fn reference<R: Real>(
    kind: Kind,
    lim: Limiter,
    (dc, dw): (Dims, Dims),
    inv: [R; 3],
    rects: &[Rect],
    [s, u, v, mw]: [&[R]; 4],
    out: &mut [R],
) {
    let ds = if kind == Kind::W { dw } else { dc };
    let (s, uu, vv, ww) = (
        V3::new(s, ds),
        V3::new(u, dc),
        V3::new(v, dc),
        V3::new(mw, dw),
    );
    let h = R::HALF;
    let nz = dc.nl as isize;
    let k0 = (kind == Kind::W) as isize;
    for r in rects {
        for j in r.j0..r.j1 {
            for k in k0..nz {
                for i in r.i0..r.i1 {
                    // West, east, south, north, bottom and top face velocities.
                    let vel = match kind {
                        Kind::Scalar => [
                            uu.at(i - 1, j, k),
                            uu.at(i, j, k),
                            vv.at(i, j - 1, k),
                            vv.at(i, j, k),
                            ww.at(i, j, k),
                            ww.at(i, j, k + 1),
                        ],
                        Kind::U => [
                            h * (uu.at(i - 1, j, k) + uu.at(i, j, k)),
                            h * (uu.at(i, j, k) + uu.at(i + 1, j, k)),
                            h * (vv.at(i, j - 1, k) + vv.at(i + 1, j - 1, k)),
                            h * (vv.at(i, j, k) + vv.at(i + 1, j, k)),
                            h * (ww.at(i, j, k) + ww.at(i + 1, j, k)),
                            h * (ww.at(i, j, k + 1) + ww.at(i + 1, j, k + 1)),
                        ],
                        Kind::V => [
                            h * (uu.at(i - 1, j, k) + uu.at(i - 1, j + 1, k)),
                            h * (uu.at(i, j, k) + uu.at(i, j + 1, k)),
                            h * (vv.at(i, j - 1, k) + vv.at(i, j, k)),
                            h * (vv.at(i, j, k) + vv.at(i, j + 1, k)),
                            h * (ww.at(i, j, k) + ww.at(i, j + 1, k)),
                            h * (ww.at(i, j, k + 1) + ww.at(i, j + 1, k + 1)),
                        ],
                        Kind::W => [
                            h * (uu.at(i - 1, j, k - 1) + uu.at(i - 1, j, k)),
                            h * (uu.at(i, j, k - 1) + uu.at(i, j, k)),
                            h * (vv.at(i, j - 1, k - 1) + vv.at(i, j - 1, k)),
                            h * (vv.at(i, j, k - 1) + vv.at(i, j, k)),
                            h * (ww.at(i, j, k - 1) + ww.at(i, j, k)),
                            h * (ww.at(i, j, k) + ww.at(i, j, k + 1)),
                        ],
                    };
                    let q = |di: isize, dj: isize, dk: isize| s.at(i + di, j + dj, k + dk);
                    let fxm = limited_flux(
                        lim,
                        vel[0],
                        q(-2, 0, 0),
                        q(-1, 0, 0),
                        q(0, 0, 0),
                        q(1, 0, 0),
                    );
                    let fxp =
                        limited_flux(lim, vel[1], q(-1, 0, 0), q(0, 0, 0), q(1, 0, 0), q(2, 0, 0));
                    let fym = limited_flux(
                        lim,
                        vel[2],
                        q(0, -2, 0),
                        q(0, -1, 0),
                        q(0, 0, 0),
                        q(0, 1, 0),
                    );
                    let fyp =
                        limited_flux(lim, vel[3], q(0, -1, 0), q(0, 0, 0), q(0, 1, 0), q(0, 2, 0));
                    // Center kernels close the column with zero z fluxes.
                    let closed = kind != Kind::W;
                    let fzm = if closed && k == 0 {
                        R::ZERO
                    } else {
                        limited_flux(
                            lim,
                            vel[4],
                            q(0, 0, -2),
                            q(0, 0, -1),
                            q(0, 0, 0),
                            q(0, 0, 1),
                        )
                    };
                    let fzp = if closed && k == nz - 1 {
                        R::ZERO
                    } else {
                        limited_flux(lim, vel[5], q(0, 0, -1), q(0, 0, 0), q(0, 0, 1), q(0, 0, 2))
                    };
                    out[ds.off(i, j, k)] +=
                        -((fxp - fxm) * inv[0] + (fyp - fym) * inv[1] + (fzp - fzm) * inv[2]);
                }
            }
        }
    }
}

/// Pseudorandom field around `offset` of spread `scale`, salted with
/// the limiter's edge cases: ±0.0, a repeat of the previous element
/// (flat pair), tiny values whose differences fall inside the eps guard,
/// and spikes (local extrema).
fn field<R: Real>(n: usize, seed: u64, offset: f64, scale: f64) -> Vec<R> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut out: Vec<R> = Vec::with_capacity(n);
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let r = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        let prev = out.last().copied().unwrap_or(R::ZERO);
        out.push(match x % 16 {
            0 => R::ZERO,
            1 => R::from_f64(-0.0),
            2 | 3 => prev,
            4 => R::from_f64(4.0e-31 * r),
            5 => R::from_f64(offset + 40.0 * scale * r.signum()),
            _ => R::from_f64(offset + scale * r),
        });
    }
    out
}

fn bits<R: Real>(x: R) -> u64 {
    x.to_f64().to_bits()
}

#[allow(clippy::too_many_arguments)]
fn launch<R: Real>(
    dev: &mut Device<R>,
    geom: &DeviceGeom<R>,
    kind: Kind,
    region: Region,
    lim: Limiter,
    spec: Buf<R>,
    [u, v, mw]: [Buf<R>; 3],
    out: Buf<R>,
) {
    let kn = kname!("adv_oracle");
    let st = StreamId::DEFAULT;
    match kind {
        Kind::Scalar => advect_scalar(dev, st, geom, region, &kn, lim, true, spec, u, v, mw, out),
        Kind::U => advect_u(dev, st, geom, region, &kn, lim, spec, u, v, mw, out),
        Kind::V => advect_v(dev, st, geom, region, &kn, lim, spec, u, v, mw, out),
        Kind::W => advect_w(dev, st, geom, region, &kn, lim, spec, u, v, mw, out),
    }
    .unwrap();
}

fn check_shape<R: Real>(nx: usize, nz: usize) {
    let ny = 9;
    let mut cfg = ModelConfig::mountain_wave(nx, ny, nz);
    cfg.terrain = Terrain::Flat;
    let grid = Grid::build(&cfg);
    let base = BaseFields::build(&grid, &BaseState::isothermal(280.0));
    for threads in [1, 3] {
        for simd in [false, true] {
            let spec = DeviceSpec {
                host_threads: threads,
                host_simd: simd,
                ..DeviceSpec::tesla_s1070()
            };
            let mut dev = Device::<R>::new(spec, ExecMode::Functional);
            let geom = DeviceGeom::build(&mut dev, &grid, &base);
            let (dc, dw) = (geom.dc, geom.dw);
            let inv = [geom.dx, geom.dy, geom.dz].map(|d| R::from_f64(1.0 / d));
            let mut alloc = |data: &[R]| {
                let b = dev.alloc(data.len()).unwrap();
                dev.write_vec(b, data);
                b
            };
            let (sc, sw) = (
                field::<R>(dc.len(), 1, 2.0, 5.0),
                field::<R>(dw.len(), 2, -1.0, 4.0),
            );
            let u = field::<R>(dc.len(), 3, 0.0, 6.0);
            let v = field::<R>(dc.len(), 4, 0.0, 6.0);
            let mw = field::<R>(dw.len(), 5, 0.0, 2.0);
            let (oc, ow) = (
                field::<R>(dc.len(), 6, 0.0, 1.0),
                field::<R>(dw.len(), 7, 0.0, 1.0),
            );
            let bufs = [&sc, &sw, &u, &v, &mw, &oc, &ow].map(|d| alloc(d));
            let [b_sc, b_sw, b_u, b_v, b_mw, b_oc, b_ow] = bufs;
            for kind in KINDS {
                let on_w = kind == Kind::W;
                let (s, b_s, o0, b_o) = if on_w {
                    (&sw, b_sw, &ow, b_ow)
                } else {
                    (&sc, b_sc, &oc, b_oc)
                };
                for region in REGIONS {
                    let rects = region.rects(nx, ny, geom.halo);
                    for lim in LIMITERS {
                        let mut want = o0.clone();
                        let fields = [&s[..], &u[..], &v[..], &mw[..]];
                        reference(kind, lim, (dc, dw), inv, &rects, fields, &mut want);
                        dev.write_vec(b_o, o0);
                        launch(
                            &mut dev,
                            &geom,
                            kind,
                            region,
                            lim,
                            b_s,
                            [b_u, b_v, b_mw],
                            b_o,
                        );
                        let got = dev.read_vec(b_o);
                        if let Some(n) = (0..want.len()).find(|&n| bits(got[n]) != bits(want[n])) {
                            panic!(
                                "{} {kind:?} {region:?} {} nx={nx} nz={nz} threads={threads} \
                                 simd={simd}: element {n} is {:e}, the two-faces-per-cell \
                                 reference gives {:e}",
                                R::PRECISION,
                                lim.name(),
                                got[n].to_f64(),
                                want[n].to_f64()
                            );
                        }
                    }
                }
            }
        }
    }
}

fn check_all<R: Real>() {
    for nx in [16, 18, 23] {
        for nz in [2, 4, 7] {
            check_shape::<R>(nx, nz);
        }
    }
}

#[test]
fn flux_reuse_sweep_is_bitwise_the_two_faces_per_cell_body_f64() {
    check_all::<f64>();
}

#[test]
fn flux_reuse_sweep_is_bitwise_the_two_faces_per_cell_body_f32() {
    check_all::<f32>();
}
