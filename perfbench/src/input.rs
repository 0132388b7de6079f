//! Seeded initial conditions: the paper's mountain-wave inflow made
//! moist, with warm, saturated bubbles placed by the seed.
//!
//! A resting dry atmosphere leaves the Kessler saturation adjustment,
//! autoconversion and sedimentation branches and the advection
//! limiter's non-smooth cases idle; these inputs take all of them. The
//! field is a function of *global* coordinates only, so a rank of a
//! decomposed run generates exactly its piece of the single-domain
//! field.

use dycore::acoustic::compute_eos_pressure;
use dycore::grid::{BaseFields, Grid};
use dycore::State;
use numerics::rng::draw;
use physics::{eos, moist};

/// Inflow speed [m/s] (the paper's mountain-wave benchmark).
const U0: f64 = 10.0;
/// Bubbles per domain.
const BUBBLES: u64 = 3;

/// Where a (sub)domain sits in the global mesh.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Placement {
    pub x0: usize,
    pub y0: usize,
    pub gnx: usize,
    pub gny: usize,
}

impl Placement {
    pub(crate) fn whole(grid: &Grid) -> Self {
        Placement {
            x0: 0,
            y0: 0,
            gnx: grid.nx,
            gny: grid.ny,
        }
    }
}

/// One warm bubble, in global fractional coordinates.
#[derive(Debug, Clone, Copy)]
struct Bubble {
    fx: f64,
    fy: f64,
    fz: f64,
    dtheta: f64,
}

fn bubbles(seed: u64) -> Vec<Bubble> {
    (0..BUBBLES)
        .map(|b| Bubble {
            fx: draw(&[seed, b, 0]),
            fy: draw(&[seed, b, 1]),
            fz: 0.12 + 0.15 * draw(&[seed, b, 2]),
            dtheta: 1.0 + 1.5 * draw(&[seed, b, 3]),
        })
        .collect()
}

/// Overwrite the interior of `s` (the hydrostatic base state at rest,
/// as the model installs it) with the seeded moist inflow; refreshes
/// halos and the diagnostic pressure.
pub(crate) fn moist_inflow(
    seed: u64,
    grid: &Grid,
    base: &BaseFields,
    s: &mut State,
    at: Placement,
) {
    compute_eos_pressure(grid, &s.th, &mut s.p);
    let (nx, ny, nz) = (grid.nx as isize, grid.ny as isize, grid.nz as isize);
    let bs = bubbles(seed);
    // Horizontal radius in global cells, vertical in levels.
    let rh = (0.12 * at.gnx.min(at.gny) as f64).max(3.0);
    let rz = (0.2 * nz as f64).max(2.0);
    for j in 0..ny {
        for i in 0..nx {
            for k in 0..nz {
                let rho = s.rho.at(i, j, k);
                // Uniform inflow momentum at the u face i+1/2. The east
                // neighbour's density comes from the base fields, whose
                // halos hold the global (not locally wrapped) values.
                let rho_east = grid.g.at(i + 1, j) * base.rho_c.at(i + 1, j, k);
                let rho_face = 0.5 * (rho + rho_east);
                s.u.set(i, j, k, U0 * rho_face);

                let p = s.p.at(i, j, k);
                let theta = s.th.at(i, j, k) / rho;
                let zf = (k as f64 + 0.5) / nz as f64;
                // Moist lower troposphere, drying aloft.
                let rh_bg = 0.85 * (1.0 - zf / 0.6).max(0.0);
                let t_bg = eos::temperature(p, theta);
                let mut qv = rho * moist::saturation_mixing_ratio(p, t_bg) * rh_bg;
                let (mut dth, mut qc) = (0.0, 0.0);
                let (gx, gy) = ((at.x0 as isize + i) as f64, (at.y0 as isize + j) as f64);
                for b in &bs {
                    let dx = (gx + 0.5 - b.fx * at.gnx as f64) / rh;
                    let dy = (gy + 0.5 - b.fy * at.gny as f64) / rh;
                    let dz = (k as f64 + 0.5 - b.fz * nz as f64) / rz;
                    let r2 = dx * dx + dy * dy + dz * dz;
                    if r2 < 1.0 {
                        let amp = (std::f64::consts::FRAC_PI_2 * (1.0 - r2.sqrt()))
                            .sin()
                            .powi(2);
                        dth += b.dtheta * amp;
                        // Saturated (slightly super-) at the warmed
                        // temperature, with cloud water above the
                        // autoconversion threshold in the core.
                        let t = eos::temperature(p, theta + dth);
                        let qvs = moist::saturation_mixing_ratio(p, t);
                        qv = qv.max(rho * qvs * (0.9 + 0.12 * amp));
                        qc += rho * 1.5e-3 * amp;
                    }
                }
                s.th.set(i, j, k, rho * (theta + dth));
                if !s.q.is_empty() {
                    s.q[0].set(i, j, k, qv);
                }
                if s.q.len() > 1 {
                    s.q[1].set(i, j, k, qc);
                }
            }
        }
    }
    s.fill_halos_periodic();
    compute_eos_pressure(grid, &s.th, &mut s.p);
}

/// The generated state of a whole single domain.
pub fn state_for(seed: u64, cfg: &dycore::config::ModelConfig) -> (Grid, BaseFields, State) {
    let grid = Grid::build(cfg);
    let base = BaseFields::build(
        &grid,
        &physics::base::BaseState {
            profile: cfg.base,
            p_surface: physics::consts::P00,
        },
    );
    let mut s = State::zeros(&grid, cfg.n_tracers);
    dycore::model::install_base_state(&grid, &base, &mut s);
    s.fill_halos_periodic();
    moist_inflow(seed, &grid, &base, &mut s, Placement::whole(&grid));
    (grid, base, s)
}
