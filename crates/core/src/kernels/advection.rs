//! Advection kernels (§IV-A.2).
//!
//! Per the paper, advection uses a four-point Koren-limited stencil per
//! direction, (64, 4, 1)-thread blocks over the (x, z) plane marching in
//! y, with the current xy tile staged through shared memory
//! ((64+3)×(4+3) elements, Fig. 3) and the y-neighbours held in
//! registers. The cost model reflects that staging: each stencil input
//! is charged roughly once per point rather than once per stencil tap.
//!
//! The Functional bodies make the same reuse on the host: each face's
//! limited flux is formed once and used by the two cells on either
//! side. One sweep (`Sweep`) serves all four kernels:
//!
//! * **x faces** — per (j, k) row, the row's n + 1 x-face fluxes go into
//!   a row buffer;
//! * **z faces** — roll across k: the upper face of level k is the lower
//!   face of level k + 1;
//! * **y faces** — roll across j in a (levels × row-width) plane, the
//!   host analogue of the paper's y register marching. Each slab call
//!   recomputes only its first j−½ plane.
//!
//! The kernels differ only in their `Stagger`, i.e. in how a face
//! velocity is formed from the u / v / mw rows. A reused flux has
//! exactly the arguments the cell-by-cell form passes for that face, and
//! the divergence keeps its operation order, so the results are bitwise
//! those of computing both faces per cell (`tests/advection_oracle.rs`).

use crate::geom::DeviceGeom;
use crate::kernels::region::{launch_cfg_region, reads_stencil, writes_rects, KName, Rect, Region};
use crate::view::{Dims, RowMut, V3SlabMut, V3};
use numerics::limiter::{limited_flux, limited_flux_lanes, Limiter};
use numerics::simd::{Lane, LANES};
use numerics::Real;
use vgpu::{Buf, Device, KernelCost, Launch, MemView, StreamId, VgpuError};

/// Lane width recorded on a launch: `LANES` on the SIMD x-walk, 1 on the
/// scalar walk (informational — never priced by the cost model).
pub(crate) fn lane_width(lanes_on: bool) -> u32 {
    if lanes_on {
        LANES as u32
    } else {
        1
    }
}

/// Shared-memory tile of the advection kernels: (64+3)*(4+3) elements
/// (Fig. 3), in the element size of the precision in use.
pub fn advection_shared_mem_bytes(elem: usize) -> u32 {
    ((64 + 3) * (4 + 3) * elem) as u32
}

/// FLOP/byte accounting of the scalar advection kernel (per point):
/// six limited face fluxes plus three flux divergences.
pub const ADV_FLOPS: f64 = 105.0;
/// Global-memory elements read per point *with* shared-memory staging.
pub const ADV_READS: f64 = 7.0;
pub const ADV_WRITES: f64 = 1.0;
/// Reads per point without shared memory: every stencil tap goes to
/// global memory (used by the `ablation_shared_memory` bench).
pub const ADV_READS_NO_SMEM: f64 = 19.0;

/// Where a kernel's control volumes sit, which fixes how its face
/// velocities are formed from the staggered u / v / mw rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stagger {
    /// Cell centers: the staggered velocity lies on the face itself.
    Center,
    /// u points: `half * (vel[i] + vel[i+1])`.
    U,
    /// v points: `half * (vel(j) + vel(j+1))`.
    V,
    /// Interior w levels: `half * (vel(k-1) + vel(k))`.
    W,
}

/// Normal direction of a row of faces.
#[derive(Clone, Copy)]
enum Axis {
    X,
    Y,
    Z,
}

/// The velocity across a row of faces, aligned with the faces: the
/// staggered velocity itself, or the mean `half * (a + b)` of two rows.
enum FaceVel<'a, R> {
    At(&'a [R]),
    Mean(&'a [R], &'a [R]),
}

/// Limited fluxes of one row of `out.len()` faces: `q` holds the four
/// stencil taps of each face in increasing-index order, `vel` its normal
/// velocity, all aligned with `out`. The lane walk, then the scalar
/// remainder; both perform the same operations per face.
#[inline(always)]
fn face_fluxes<R: Real>(
    lim: Limiter,
    lanes_on: bool,
    vel: FaceVel<'_, R>,
    q: [&[R]; 4],
    out: &mut [R],
) {
    let n = out.len();
    let mut m = 0;
    if lanes_on {
        let vh = R::Lane::splat(R::HALF);
        while m + LANES <= n {
            let v = match vel {
                FaceVel::At(a) => R::Lane::load(&a[m..]),
                FaceVel::Mean(a, b) => vh * (R::Lane::load(&a[m..]) + R::Lane::load(&b[m..])),
            };
            let f = limited_flux_lanes::<R>(
                lim,
                v,
                R::Lane::load(&q[0][m..]),
                R::Lane::load(&q[1][m..]),
                R::Lane::load(&q[2][m..]),
                R::Lane::load(&q[3][m..]),
            );
            f.store(&mut out[m..]);
            m += LANES;
        }
    }
    for (m, o) in out.iter_mut().enumerate().skip(m) {
        let v = match vel {
            FaceVel::At(a) => a[m],
            FaceVel::Mean(a, b) => R::HALF * (a[m] + b[m]),
        };
        *o = limited_flux(lim, v, q[0][m], q[1][m], q[2][m], q[3][m]);
    }
}

/// Accumulate the flux divergence of one row of cells into `orow`,
/// starting at cell `i0`: `fx` holds the row's x-face fluxes (one more
/// than cells), `fy` and `fz` the lower and upper y / z face fluxes.
#[inline(always)]
fn divergence<R: Real>(
    lanes_on: bool,
    [inv_dx, inv_dy, inv_dz]: [R; 3],
    fx: &[R],
    [fym, fyp]: [&[R]; 2],
    [fzm, fzp]: [&[R]; 2],
    i0: isize,
    mut orow: RowMut<'_, R>,
) {
    let w = fym.len();
    let mut m = 0;
    if lanes_on {
        let (vdx, vdy, vdz) = (
            R::Lane::splat(inv_dx),
            R::Lane::splat(inv_dy),
            R::Lane::splat(inv_dz),
        );
        while m + LANES <= w {
            let (xm, xp) = (R::Lane::load(&fx[m..]), R::Lane::load(&fx[m + 1..]));
            let (ym, yp) = (R::Lane::load(&fym[m..]), R::Lane::load(&fyp[m..]));
            let (zm, zp) = (R::Lane::load(&fzm[m..]), R::Lane::load(&fzp[m..]));
            orow.add_lanes(
                i0 + m as isize,
                -((xp - xm) * vdx + (yp - ym) * vdy + (zp - zm) * vdz),
            );
            m += LANES;
        }
    }
    for m in m..w {
        orow.add(
            i0 + m as isize,
            -((fx[m + 1] - fx[m]) * inv_dx
                + (fyp[m] - fym[m]) * inv_dy
                + (fzp[m] - fzm[m]) * inv_dz),
        );
    }
}

/// The flux-reuse sweep shared by the four advection kernels: a kernel
/// is its stagger plus the launch's region and buffers.
#[derive(Clone, Copy)]
struct Sweep<R> {
    stagger: Stagger,
    lim: Limiter,
    lanes_on: bool,
    dc: Dims,
    dw: Dims,
    inv: [R; 3],
    /// Levels `[k0, k1)` of the advected field.
    k0: isize,
    k1: isize,
}

impl<R: Real> Sweep<R> {
    fn new(stagger: Stagger, lim: Limiter, lanes_on: bool, geom: &DeviceGeom<R>) -> Self {
        Sweep {
            stagger,
            lim,
            lanes_on,
            dc: geom.dc,
            dw: geom.dw,
            inv: [geom.dx, geom.dy, geom.dz].map(|d| R::from_f64(1.0 / d)),
            k0: (stagger == Stagger::W) as isize,
            k1: geom.nz as isize,
        }
    }

    /// Dims of the advected field and of the output.
    fn ds(&self) -> Dims {
        if self.stagger == Stagger::W {
            self.dw
        } else {
            self.dc
        }
    }

    /// Center kernels close the column with zero z fluxes at the bottom
    /// and top (the kinematic conditions baked into mw); interior w
    /// levels compute every z face.
    fn zero_ends(&self) -> bool {
        self.stagger != Stagger::W
    }

    /// The launch descriptor over `region` (cost-model figures `flops`,
    /// `reads`, `smem`) and the rects it covers; `None` for an empty
    /// region.
    #[allow(clippy::too_many_arguments)]
    fn launch(
        &self,
        geom: &DeviceGeom<R>,
        region: Region,
        kn: &KName,
        (flops, reads, smem): (f64, f64, u32),
        spec: Buf<R>,
        [u, v, mw]: [Buf<R>; 3],
        out: Buf<R>,
    ) -> Option<(Launch, Vec<Rect>)> {
        let (nx, ny, nz, hw) = (geom.nx, geom.ny, geom.nz, geom.halo);
        let rects = region.rects(nx, ny, hw);
        let points = region.area(nx, ny, hw) * (self.k1 - self.k0) as u64;
        if points == 0 {
            return None;
        }
        let (gdim, bdim) = launch_cfg_region(region, nx, ny, nz, hw);
        let cost = KernelCost::streaming(points, flops, reads, ADV_WRITES);
        // advect_w's field lives on w levels with mw; the others' on
        // centers with u and v.
        let (on_dc, on_dw) = if self.stagger == Stagger::W {
            (vec![u, v], vec![spec, mw])
        } else {
            (vec![spec, u, v], vec![mw])
        };
        let launch = Launch::new(kn.get(region), gdim, bdim, cost)
            .with_shared_mem(smem)
            .with_lanes(lane_width(self.lanes_on))
            .reading(reads_stencil(&self.dc, &rects, &on_dc))
            .reading(reads_stencil(&self.dw, &rects, &on_dw))
            .writing(writes_rects(&self.ds(), &rects, &[out]));
        Some((launch, rects))
    }

    /// Fluxes of the faces `[f0, f0 + out.len())` on the upper `axis`
    /// side of the cell row (j, k); x face f lies between cells f and
    /// f + 1. `fields` holds the advected field, u, v and mw.
    #[inline(always)]
    fn faces(
        &self,
        fields: &[V3<'_, R>; 4],
        axis: Axis,
        j: isize,
        k: isize,
        f0: isize,
        out: &mut [R],
    ) {
        let n = out.len() as isize;
        let s = &fields[0];
        let q = match axis {
            Axis::X => [-1, 0, 1, 2].map(|d| s.row(j, k).slice(f0 + d, f0 + d + n)),
            Axis::Y => [-1, 0, 1, 2].map(|d| s.row(j + d, k).slice(f0, f0 + n)),
            Axis::Z => [-1, 0, 1, 2].map(|d| s.row(j, k + d).slice(f0, f0 + n)),
        };
        // The z face above level k carries the mw of level k + 1.
        let (fld, k) = match axis {
            Axis::X => (&fields[1], k),
            Axis::Y => (&fields[2], k),
            Axis::Z => (&fields[3], k + 1),
        };
        let row = |j, k, f: isize| fld.row(j, k).slice(f, f + n);
        let fv = match self.stagger {
            Stagger::Center => FaceVel::At(row(j, k, f0)),
            Stagger::U => FaceVel::Mean(row(j, k, f0), row(j, k, f0 + 1)),
            Stagger::V => FaceVel::Mean(row(j, k, f0), row(j + 1, k, f0)),
            Stagger::W => FaceVel::Mean(row(j, k - 1, f0), row(j, k, f0)),
        };
        face_fluxes(self.lim, self.lanes_on, fv, q, out);
    }

    /// Accumulate `out -= div(flux)` on the rows `[sj0, sj1)` of every
    /// rect: the body of one slab call.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn run(
        &self,
        mem: &MemView<'_, R>,
        spec: Buf<R>,
        [u, v, mw]: [Buf<R>; 3],
        out: Buf<R>,
        rects: &[Rect],
        sj0: usize,
        sj1: usize,
    ) {
        let (sj0, sj1) = (sj0 as isize, sj1 as isize);
        let ds = self.ds();
        let (s_r, u_r, v_r, mw_r) = (mem.read(spec), mem.read(u), mem.read(v), mem.read(mw));
        let mut out_s = mem.write_slab(out, ds.slab(sj0, sj1));
        let f = [
            V3::new(&s_r, ds),
            V3::new(&u_r, self.dc),
            V3::new(&v_r, self.dc),
            V3::new(&mw_r, self.dw),
        ];
        let mut o = V3SlabMut::new(&mut out_s, ds, sj0);

        // Host-local scratch: one row of x faces, the j−½ / j+½ planes of
        // y faces and the k−½ / k+½ rows of z faces.
        let wmax = rects
            .iter()
            .map(|r| (r.i1 - r.i0).max(0))
            .max()
            .unwrap_or(0) as usize;
        let plane = (self.k1 - self.k0) as usize * wmax;
        let mut fx = vec![R::ZERO; wmax + 1];
        let (mut fy_lo, mut fy_hi) = (vec![R::ZERO; plane], vec![R::ZERO; plane]);
        let (mut fz_lo, mut fz_hi) = (vec![R::ZERO; wmax], vec![R::ZERO; wmax]);

        for r in rects {
            let (j0, j1) = (r.j0.max(sj0), r.j1.min(sj1));
            let w = (r.i1 - r.i0).max(0) as usize;
            if j0 >= j1 || w == 0 {
                continue;
            }
            // The slab's first j−½ plane; later planes roll over from the
            // row below.
            for (l, k) in (self.k0..self.k1).enumerate() {
                self.faces(&f, Axis::Y, j0 - 1, k, r.i0, &mut fy_lo[l * w..(l + 1) * w]);
            }
            for j in j0..j1 {
                if self.zero_ends() {
                    fz_lo.fill(R::ZERO);
                } else {
                    self.faces(&f, Axis::Z, j, self.k0 - 1, r.i0, &mut fz_lo[..w]);
                }
                for (l, k) in (self.k0..self.k1).enumerate() {
                    let fy = l * w..(l + 1) * w;
                    self.faces(&f, Axis::X, j, k, r.i0 - 1, &mut fx[..w + 1]);
                    self.faces(&f, Axis::Y, j, k, r.i0, &mut fy_hi[fy.clone()]);
                    if self.zero_ends() && k == self.k1 - 1 {
                        fz_hi.fill(R::ZERO);
                    } else {
                        self.faces(&f, Axis::Z, j, k, r.i0, &mut fz_hi[..w]);
                    }
                    divergence(
                        self.lanes_on,
                        self.inv,
                        &fx[..w + 1],
                        [&fy_lo[fy.clone()], &fy_hi[fy]],
                        [&fz_lo[..w], &fz_hi[..w]],
                        r.i0,
                        o.row_mut(j, k),
                    );
                    std::mem::swap(&mut fz_lo, &mut fz_hi);
                }
                std::mem::swap(&mut fy_lo, &mut fy_hi);
            }
        }
    }
}

numerics::simd_kernel! {
/// Flux-form advection tendency of a center scalar, accumulated into
/// `out`: `out -= div(massflux * reconstruct(spec))`.
#[allow(clippy::too_many_arguments)]
pub fn advect_scalar<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    region: Region,
    kn: &KName,
    lim: Limiter,
    use_shared_mem: bool,
    spec: Buf<R>,
    u: Buf<R>,
    v: Buf<R>,
    mw: Buf<R>,
    out: Buf<R>,
) -> Result<(), VgpuError> {
    let sweep = Sweep::new(Stagger::Center, lim, dev.simd_enabled(), geom);
    let cost = if use_shared_mem {
        (ADV_FLOPS, ADV_READS, advection_shared_mem_bytes(R::BYTES))
    } else {
        (ADV_FLOPS, ADV_READS_NO_SMEM, 0)
    };
    let vel = [u, v, mw];
    let Some((launch, rects)) = sweep.launch(geom, region, kn, cost, spec, vel, out) else {
        return Ok(());
    };
    // The body closure is written here, inside the `simd_kernel!` twin,
    // so it inherits the twin's target features.
    dev.launch_par(stream, launch, geom.ny, move |mem, sj0, sj1| {
        sweep.run(mem, spec, vel, out, &rects, sj0, sj1)
    })
}
}

/// Cost-model figures of the momentum advection kernels: the scalar
/// kernel plus the face-velocity averaging, always shared-memory staged.
fn momentum_cost<R: Real>() -> (f64, f64, u32) {
    (
        ADV_FLOPS + 20.0,
        ADV_READS + 1.0,
        advection_shared_mem_bytes(R::BYTES),
    )
}

numerics::simd_kernel! {
/// Advection of u momentum (control volumes on u points).
#[allow(clippy::too_many_arguments)]
pub fn advect_u<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    region: Region,
    kn: &KName,
    lim: Limiter,
    uspec: Buf<R>,
    u: Buf<R>,
    v: Buf<R>,
    mw: Buf<R>,
    out: Buf<R>,
) -> Result<(), VgpuError> {
    let sweep = Sweep::new(Stagger::U, lim, dev.simd_enabled(), geom);
    let vel = [u, v, mw];
    let cost = momentum_cost::<R>();
    let Some((launch, rects)) = sweep.launch(geom, region, kn, cost, uspec, vel, out) else {
        return Ok(());
    };
    dev.launch_par(stream, launch, geom.ny, move |mem, sj0, sj1| {
        sweep.run(mem, uspec, vel, out, &rects, sj0, sj1)
    })
}
}

numerics::simd_kernel! {
/// Advection of v momentum (mirror of [`advect_u`]).
#[allow(clippy::too_many_arguments)]
pub fn advect_v<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    region: Region,
    kn: &KName,
    lim: Limiter,
    vspec: Buf<R>,
    u: Buf<R>,
    v: Buf<R>,
    mw: Buf<R>,
    out: Buf<R>,
) -> Result<(), VgpuError> {
    let sweep = Sweep::new(Stagger::V, lim, dev.simd_enabled(), geom);
    let vel = [u, v, mw];
    let cost = momentum_cost::<R>();
    let Some((launch, rects)) = sweep.launch(geom, region, kn, cost, vspec, vel, out) else {
        return Ok(());
    };
    dev.launch_par(stream, launch, geom.ny, move |mem, sj0, sj1| {
        sweep.run(mem, vspec, vel, out, &rects, sj0, sj1)
    })
}
}

numerics::simd_kernel! {
/// Advection of w momentum at interior w levels.
#[allow(clippy::too_many_arguments)]
pub fn advect_w<R: Real>(
    dev: &mut Device<R>,
    stream: StreamId,
    geom: &DeviceGeom<R>,
    region: Region,
    kn: &KName,
    lim: Limiter,
    wspec: Buf<R>,
    u: Buf<R>,
    v: Buf<R>,
    mw: Buf<R>,
    out: Buf<R>,
) -> Result<(), VgpuError> {
    let sweep = Sweep::new(Stagger::W, lim, dev.simd_enabled(), geom);
    let vel = [u, v, mw];
    let cost = momentum_cost::<R>();
    let Some((launch, rects)) = sweep.launch(geom, region, kn, cost, wspec, vel, out) else {
        return Ok(());
    };
    dev.launch_par(stream, launch, geom.ny, move |mem, sj0, sj1| {
        sweep.run(mem, wspec, vel, out, &rects, sj0, sj1)
    })
}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_fits_the_sm_shared_memory() {
        // The paper's 16 KB shared memory per SM must hold the tile.
        assert!(advection_shared_mem_bytes(4) <= 16 * 1024);
        assert!(advection_shared_mem_bytes(8) <= 16 * 1024);
        assert_eq!(advection_shared_mem_bytes(4), (67 * 7 * 4) as u32);
    }
}
