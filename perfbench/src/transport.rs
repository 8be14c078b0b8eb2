//! `transport`: the `commit_step` half of a rift time step without the
//! Stokes solve, on the rift mesh with a dense swarm (6³ points per
//! element, ~83k points) and a seeded, generated extension velocity
//! field. MPM is under 1% of `rift`, so this workload is what measures
//! point location, advection, migration, population control, the ALE
//! remesh, the coefficient update (rheology plus P2G) and the energy step.

use crate::layers::Spans;
use crate::{Ops, Workload};
use ptatin_core::coefficients::{update_coefficients, StateFields};
use ptatin_core::models::rift::{RiftConfig, RiftModel};
use ptatin_core::timestep::{advected_surface, cfl_dt, velocity_at_corners};
use ptatin_fem::assemble::Q2QuadTables;
use ptatin_fem::bc::DirichletBc;
use ptatin_fem::energy::{assemble_energy_step, solve_energy_step};
use ptatin_fem::geometry::{map_to_physical, xi_inside};
use ptatin_mesh::StructuredMesh;
use ptatin_mpm::advect::{advect_rk2, cull_lost, relocate_all};
use ptatin_mpm::locate::ElementLocator;
use ptatin_mpm::points::MaterialPoints;
use ptatin_mpm::population::{control_population, element_counts, PopulationConfig};
use ptatin_prng::{Rng, StdRng};
use std::f64::consts::PI;

/// Sub-steps per repetition.
const SUBSTEPS: usize = 16;
/// Material points per element dimension.
const POINTS_PER_DIM: usize = 6;

pub struct Transport {
    seed: u64,
    substeps: usize,
}

pub struct Input {
    model: RiftModel,
    velocity: Vec<f64>,
    dt: f64,
    tables: Q2QuadTables,
    temperature_bc: DirichletBc,
    population: PopulationConfig,
    rng: StdRng,
}

/// What a repetition left behind, for the assessment.
pub struct Output {
    /// Invariant violations per sub-step (found off the clock).
    problems: Vec<Vec<String>>,
    points: usize,
}

impl Transport {
    pub fn new(seed: u64, smoke: bool) -> Self {
        Self {
            seed,
            substeps: if smoke { 2 } else { SUBSTEPS },
        }
    }
}

/// Extension about the x midplane (±`v_ext` on the x faces, balanced by
/// upwelling), plus smooth perturbations that deform the free surface and
/// shear the swarm. The seed places the perturbations; their amplitudes
/// are fixed, so every seed moves about the same number of points.
/// Interleaved Q2 nodal field.
fn extension_field(mesh: &StructuredMesh, v_ext: f64, rng: &mut StdRng) -> Vec<f64> {
    let x0 = rng.gen_range(2.0..4.0);
    let phase = rng.gen_range(0.0..2.0 * PI);
    let mut v = Vec::with_capacity(3 * mesh.coords.len());
    for &[x, y, z] in &mesh.coords {
        v.push(v_ext * (x - 3.0) / 3.0 + 0.05 * y * (PI * z / 3.0 + phase).sin());
        v.push(v_ext / 3.0 * (1.0 - y) - 0.1 * y * (PI * (x - x0) / 6.0).cos());
        v.push(0.03 * (PI * x / 6.0).sin() * (PI * y).sin());
    }
    v
}

/// Invariants after one sub-step: every live point is located in an
/// element that maps its local coordinate back onto its position,
/// per-element counts respect the population bounds, and the total stays
/// between the bounds times the element count.
fn invariants(
    mesh: &StructuredMesh,
    points: &MaterialPoints,
    pop: &PopulationConfig,
) -> Vec<String> {
    let mut problems = Vec::new();
    let nel = mesh.num_elements();
    let (lo, hi) = mesh.bounding_box();
    let h = 1e-8 * (hi[0] - lo[0]) / mesh.mx as f64;
    let mut unlocated = 0;
    for p in 0..points.len() {
        let e = points.element[p] as usize;
        let ok = e < nel && xi_inside(points.xi[p], 1e-8) && {
            let x = map_to_physical(&mesh.element_corner_coords(e), points.xi[p]);
            (0..3).all(|d| (x[d] - points.x[p][d]).abs() <= h)
        };
        unlocated += usize::from(!ok);
    }
    if unlocated > 0 {
        problems.push(format!("{unlocated} live points not located"));
    }
    let counts = element_counts(mesh, points);
    let (lo, hi) = (pop.min_per_element as u32, pop.max_per_element as u32);
    let outside = counts.iter().filter(|&&c| c < lo || c > hi).count();
    if outside > 0 {
        problems.push(format!("{outside} elements outside [{lo}, {hi}] points"));
    }
    let n = points.len();
    if n < pop.min_per_element * nel || n > pop.max_per_element * nel {
        problems.push(format!("{n} points outside the population bounds"));
    }
    problems
}

impl Workload for Transport {
    type Input = Input;
    type Output = Output;

    fn setup(&self) -> Input {
        let cfg = RiftConfig {
            points_per_dim: POINTS_PER_DIM,
            seed: self.seed,
            ..RiftConfig::default()
        };
        let model = RiftModel::new(cfg.clone());
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x7261_6e73_706f_7274);
        let velocity = extension_field(&model.mesh, cfg.extension_velocity, &mut rng);
        let dt = cfl_dt(&model.mesh, &velocity, cfg.cfl, cfg.dt_max);
        let mut temperature_bc = DirichletBc::new();
        let (cx, cy, cz) = model.mesh.corner_dims();
        for ck in 0..cz {
            for ci in 0..cx {
                temperature_bc.set(model.mesh.corner_index(ci, 0, ck), 1.0);
                temperature_bc.set(model.mesh.corner_index(ci, cy - 1, ck), 0.0);
            }
        }
        // Tighter bounds than `RiftModel::commit_step` (4 to 8·ppd³), so
        // the elements the upwelling drains are refilled within a
        // repetition and population control does real work.
        let ppd3 = POINTS_PER_DIM.pow(3);
        Input {
            model,
            velocity,
            dt,
            tables: Q2QuadTables::standard(),
            temperature_bc,
            population: PopulationConfig {
                min_per_element: ppd3 / 2,
                max_per_element: 2 * ppd3,
                inject_to: ppd3,
            },
            rng,
        }
    }

    fn run(&self, input: Input, spans: &mut Spans) -> Output {
        let Input {
            mut model,
            velocity,
            dt,
            tables,
            temperature_bc,
            population,
            mut rng,
        } = input;
        let mut problems = Vec::with_capacity(self.substeps);
        for _ in 0..self.substeps {
            let m = &mut model;
            let locator = spans.time("mpm.locate_build_s", || ElementLocator::new(&m.mesh));
            spans.add("mpm.points_advected", m.points.len() as f64);
            let adv = spans.time("mpm.advect_s", || {
                advect_rk2(&m.mesh, &locator, &mut m.points, &velocity, dt)
            });
            spans.time("mesh.remesh_s", || {
                let top = advected_surface(&m.mesh, &velocity, 1, dt);
                m.mesh.remesh_vertical(1, &top);
            });
            let locator = spans.time("mpm.locate_build_s", || ElementLocator::new(&m.mesh));
            let (rel, culled) = spans.time("mpm.relocate_s", || {
                let rel = relocate_all(&m.mesh, &locator, &mut m.points);
                (rel, cull_lost(&mut m.points))
            });
            let pop = spans.time("mpm.population_s", || {
                control_population(&m.mesh, &mut m.points, &population, &mut rng)
            });
            let fields = spans.time("core.coefficients_s", || {
                update_coefficients(
                    &m.mesh,
                    &tables,
                    &m.points,
                    &m.materials,
                    &StateFields {
                        velocity: Some(&velocity),
                        pressure: None,
                        temperature: Some(&m.temperature),
                    },
                    false,
                )
            });
            spans.time("fem.energy_s", || {
                let corners = velocity_at_corners(&m.mesh, &velocity);
                let sys = assemble_energy_step(
                    &m.mesh,
                    &corners,
                    &m.temperature,
                    dt,
                    m.cfg.kappa,
                    None,
                    &temperature_bc,
                );
                m.temperature = solve_energy_step(&sys, &m.temperature);
            });
            spans.add(
                "mpm.points_relocated",
                (adv.relocated + rel.relocated) as f64,
            );
            spans.add("mpm.points_lost", culled as f64);
            spans.add("mpm.points_injected", pop.injected as f64);
            spans.add("mpm.points_removed", pop.removed as f64);
            problems.push(spans.untimed(|| {
                let mut p = invariants(&m.mesh, &m.points, &population);
                if !fields.eta_qp.iter().all(|e| e.is_finite() && *e > 0.0) {
                    p.push("non-positive or non-finite viscosity".into());
                }
                if !m.temperature.iter().all(|t| t.is_finite()) {
                    p.push("non-finite temperature".into());
                }
                p
            }));
        }
        Output {
            problems,
            points: model.points.len(),
        }
    }

    fn assess(&self, out: Output, spans: &mut Spans) -> Ops {
        let mut ops = Ops::default();
        for (k, p) in out.problems.into_iter().enumerate() {
            ops.record(&format!("transport sub-step {}", k + 1), p);
        }
        spans.add("mpm.points", out.points as f64);
        ops
    }

    fn children(&self) -> &'static [&'static str] {
        &[
            "mpm.locate_build_s",
            "mpm.advect_s",
            "mesh.remesh_s",
            "mpm.relocate_s",
            "mpm.population_s",
            "core.coefficients_s",
            "fem.energy_s",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariants_hold_on_the_seeded_swarm_and_catch_perturbations() {
        let input = Transport::new(5, true).setup();
        let (mesh, pop) = (&input.model.mesh, &input.population);
        let mut points = input.model.points.clone();
        assert!(invariants(mesh, &points, pop).is_empty());
        // A point whose cached element no longer holds it.
        points.x[0][0] += 0.01;
        assert_eq!(invariants(mesh, &points, pop).len(), 1);
        points.x[0][0] -= 0.01;
        // An element drained below the population minimum.
        let keep: Vec<usize> = (0..points.len())
            .filter(|&p| points.element[p] != 0)
            .collect();
        let drained = MaterialPoints {
            x: keep.iter().map(|&p| points.x[p]).collect(),
            lithology: keep.iter().map(|&p| points.lithology[p]).collect(),
            plastic_strain: keep.iter().map(|&p| points.plastic_strain[p]).collect(),
            element: keep.iter().map(|&p| points.element[p]).collect(),
            xi: keep.iter().map(|&p| points.xi[p]).collect(),
        };
        let problems = invariants(mesh, &drained, pop);
        assert!(
            problems.iter().any(|p| p.contains("elements outside")),
            "{problems:?}"
        );
    }
}
