//! Cross-crate integration: the five operator applications of §III-D/E
//! must be bit-for-bit interchangeable inside the solver stack — same
//! action, same diagonal, same Krylov trajectory on the same problem.

use ptatin_fem::assemble::Q2QuadTables;
use ptatin_fem::{DirichletBc, VelocityBcBuilder};
use ptatin_la::chebyshev::Chebyshev;
use ptatin_la::krylov::{cg, KrylovConfig};
use ptatin_la::operator::LinearOperator;
use ptatin_la::transfer::BatchedTransfer;
use ptatin_la::JacobiPc;
use ptatin_mesh::hierarchy::expand_blocked;
use ptatin_mesh::StructuredMesh;
use ptatin_mg::filter_transfer;
use ptatin_mpm::points::seed_regular;
use ptatin_mpm::projection;
use ptatin_ops::{
    avx2_fma_available, build_viscous_operator, BatchedViscousOp, NewtonData, OperatorKind,
    SimdPath, TensorViscousOp, ViscousOpData, NQP,
};
use ptatin_prng::{Rng, SplitMix64};
use std::sync::Arc;

fn deformed_mesh() -> StructuredMesh {
    let mut mesh = StructuredMesh::new_box(3, 2, 3, [0.0, 1.5], [0.0, 1.0], [0.0, 1.2]);
    mesh.deform(|c| {
        [
            c[0] + 0.04 * (3.1 * c[1]).sin() * c[2],
            c[1] + 0.05 * (2.3 * c[2]).cos() * c[0],
            c[2] - 0.03 * c[0] * c[1],
        ]
    });
    mesh
}

fn wild_eta(nel: usize) -> Vec<f64> {
    (0..nel * NQP)
        .map(|i| 10f64.powf(((i * 37) % 9) as f64 - 4.0))
        .collect()
}

fn bc(mesh: &StructuredMesh) -> DirichletBc {
    VelocityBcBuilder::new(mesh)
        .free_slip(0, true)
        .no_slip(1, true)
        .component(2, false, 2, 0.5)
        .build()
}

const KINDS: [OperatorKind; 5] = [
    OperatorKind::Assembled,
    OperatorKind::MatrixFree,
    OperatorKind::Tensor,
    OperatorKind::TensorC,
    OperatorKind::TensorBatched,
];

#[test]
fn actions_agree_with_9_decade_viscosity_and_mixed_bc() {
    let mesh = deformed_mesh();
    let eta = wild_eta(mesh.num_elements());
    let bc = bc(&mesh);
    let ops: Vec<_> = KINDS
        .iter()
        .map(|&k| build_viscous_operator(k, &mesh, eta.clone(), &bc))
        .collect();
    let n = ops[0].nrows();
    let x: Vec<f64> = (0..n)
        .map(|i| ((i * 97) % 31) as f64 / 15.0 - 1.0)
        .collect();
    let mut yref = vec![0.0; n];
    ops[0].apply(&x, &mut yref);
    let scale = 1.0 + yref.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for (op, kind) in ops.iter().zip(&KINDS).skip(1) {
        let mut y = vec![0.0; n];
        op.apply(&x, &mut y);
        for i in 0..n {
            assert!(
                (y[i] - yref[i]).abs() < 1e-9 * scale,
                "{:?} differs at dof {i}: {} vs {}",
                kind,
                y[i],
                yref[i]
            );
        }
    }
}

#[test]
fn diagonals_agree() {
    let mesh = deformed_mesh();
    let eta = wild_eta(mesh.num_elements());
    let bc = bc(&mesh);
    let ops: Vec<_> = KINDS
        .iter()
        .map(|&k| build_viscous_operator(k, &mesh, eta.clone(), &bc))
        .collect();
    let dref = ops[0].diagonal().unwrap();
    for (op, kind) in ops.iter().zip(&KINDS).skip(1) {
        let d = op.diagonal().unwrap();
        for i in 0..d.len() {
            assert!(
                (d[i] - dref[i]).abs() < 1e-9 * (1.0 + dref[i].abs()),
                "{kind:?} diagonal differs at {i}"
            );
        }
    }
}

#[test]
fn krylov_iteration_counts_identical_across_kinds() {
    // Same operator action → same CG trajectory (up to roundoff): the
    // iteration counts must match exactly on a well-conditioned solve.
    let mesh = deformed_mesh();
    let eta = vec![1.0; mesh.num_elements() * NQP];
    let bc = VelocityBcBuilder::new(&mesh)
        .no_slip(0, true)
        .no_slip(0, false)
        .no_slip(1, true)
        .no_slip(1, false)
        .no_slip(2, true)
        .no_slip(2, false)
        .build();
    let mut counts = Vec::new();
    for &k in &KINDS {
        let op = build_viscous_operator(k, &mesh, eta.clone(), &bc);
        let n = op.nrows();
        let b: Vec<f64> = {
            let mask = bc.mask(n);
            (0..n).map(|i| if mask[i] { 0.0 } else { 1.0 }).collect()
        };
        let mut x = vec![0.0; n];
        let pc = JacobiPc::from_operator(op.as_ref());
        let stats = cg(
            op.as_ref(),
            &pc,
            &b,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-8),
        );
        assert!(stats.converged);
        counts.push(stats.iterations);
    }
    assert!(
        counts.windows(2).all(|w| w[0].abs_diff(w[1]) <= 1),
        "iteration counts diverge: {counts:?}"
    );
}

/// Build a randomly deformed mesh with the given element dims and a
/// viscosity field spanning several decades, both driven by `rng`.
fn random_setup(
    rng: &mut SplitMix64,
    dims: (usize, usize, usize),
) -> (StructuredMesh, Vec<f64>, DirichletBc) {
    let (mx, my, mz) = dims;
    let mut mesh = StructuredMesh::new_box(mx, my, mz, [0.0, 1.3], [0.0, 0.9], [0.0, 1.1]);
    let (a, b, c) = (
        rng.gen_range(0.01..0.06),
        rng.gen_range(0.01..0.06),
        rng.gen_range(0.01..0.06),
    );
    let (wa, wb) = (rng.gen_range(1.5..4.0), rng.gen_range(1.5..4.0));
    mesh.deform(|p| {
        [
            p[0] + a * (wa * p[1]).sin() * p[2],
            p[1] + b * (wb * p[2]).cos() * p[0],
            p[2] - c * p[0] * p[1],
        ]
    });
    let eta: Vec<f64> = (0..mesh.num_elements() * NQP)
        .map(|_| 10f64.powf(rng.gen_range(-4.0..4.0)))
        .collect();
    let bc = bc(&mesh);
    (mesh, eta, bc)
}

fn random_vector(rng: &mut SplitMix64, n: usize) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

#[test]
fn tensor_batched_matches_tensor_tightly() {
    // §III-E acceptance: the batched SoA operator must agree with the
    // scalar tensor operator to 1e-12 *relative* on randomized meshes,
    // including element counts that are not multiples of the lane width
    // (ghost-padded tail lanes), mixed Dirichlet masks, and the Newton
    // linearization path.
    let mut rng = SplitMix64::seed_from_u64(0x5eed_bead);
    // nel = 18, 6, 15, 16: three remainder cases + one lane-aligned case.
    for dims in [(3, 2, 3), (2, 3, 1), (5, 1, 3), (4, 2, 2)] {
        for with_newton in [false, true] {
            let (mesh, eta, bc) = random_setup(&mut rng, dims);
            let nel = mesh.num_elements();
            let mut data = ViscousOpData::new(&mesh, eta, &bc);
            if with_newton {
                let newton = NewtonData {
                    eta_prime: (0..nel * NQP).map(|_| rng.gen_range(-0.5..0.5)).collect(),
                    d_sym: (0..nel * NQP)
                        .map(|_| std::array::from_fn(|_| rng.gen_range(-1.0..1.0)))
                        .collect(),
                };
                data = data.with_newton(newton);
            }
            let data = Arc::new(data);
            let tensor = TensorViscousOp::new(data.clone());
            let batched = BatchedViscousOp::new(data.clone());
            let n = tensor.nrows();
            let x = random_vector(&mut rng, n);
            let mut yt = vec![0.0; n];
            let mut yb = vec![0.0; n];
            tensor.apply(&x, &mut yt);
            batched.apply(&x, &mut yb);
            let scale = 1.0 + yt.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for i in 0..n {
                assert!(
                    (yb[i] - yt[i]).abs() < 1e-12 * scale,
                    "dims {dims:?} newton={with_newton} dof {i}: batched {} vs tensor {}",
                    yb[i],
                    yt[i]
                );
            }
        }
    }
}

#[test]
fn batched_avx_and_portable_paths_agree_bitwise() {
    // The portable path is written with `f64::mul_add` in exactly the
    // fusion order of the AVX2+FMA path, so on hardware that has both the
    // two must produce bit-identical output.
    if !avx2_fma_available() {
        eprintln!("skipping: host lacks AVX2+FMA");
        return;
    }
    let mut rng = SplitMix64::seed_from_u64(0xb17_b17);
    for dims in [(3, 2, 3), (5, 1, 3)] {
        let (mesh, eta, bc) = random_setup(&mut rng, dims);
        let data = Arc::new(ViscousOpData::new(&mesh, eta, &bc));
        let portable = BatchedViscousOp::with_path(data.clone(), SimdPath::Portable);
        let avx = BatchedViscousOp::with_path(data.clone(), SimdPath::Avx2Fma);
        let n = portable.nrows();
        let x = random_vector(&mut rng, n);
        let mut yp = vec![0.0; n];
        let mut ya = vec![0.0; n];
        portable.apply(&x, &mut yp);
        avx.apply(&x, &mut ya);
        for i in 0..n {
            assert_eq!(
                yp[i].to_bits(),
                ya[i].to_bits(),
                "dims {dims:?} dof {i}: portable {} vs avx {}",
                yp[i],
                ya[i]
            );
        }
    }
}

#[test]
fn batched_projection_pipeline_matches_scalar_randomized() {
    // P2G + G2P, batched vs scalar reference, over randomized deformed
    // meshes and jittered swarms: element counts off the lane width
    // (nel % 4 ≠ 0), swarm sizes off the lane width (npts % 4 ≠ 0),
    // unlocated points, and both SIMD paths. Both directions are strictly
    // bitwise against their scalar references on every path: the lane
    // scatter keeps the scalar per-corner accumulation order, because
    // downstream consumers (SA-AMG strength-of-connection) make discrete
    // decisions that bifurcate on the last bit of the corner field.
    let mut rng = SplitMix64::seed_from_u64(0x9a7_1e57);
    for (dims, np) in [((3, 3, 3), 3), ((2, 2, 2), 2), ((5, 1, 3), 3)] {
        let (mesh, _, _) = random_setup(&mut rng, dims);
        let jitter = rng.gen_range(0.0..0.45);
        let mut pts = seed_regular(&mesh, np, jitter, &mut rng, |_| 0);
        // A few unlocated points must contribute nothing.
        for p in (0..pts.len()).step_by(17) {
            pts.element[p] = u32::MAX;
        }
        let vals: Vec<f64> = (0..pts.len()).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let value = |p: usize| vals[p];
        let reference = projection::project_to_corners_scalar(&mesh, &pts, value, |i| i as f64);
        let portable = projection::project_to_corners_with_path(
            &mesh,
            &pts,
            value,
            |i| i as f64,
            SimdPath::Portable,
        );
        for (c, (a, b)) in portable.iter().zip(&reference).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "dims {dims:?} np={np} corner {c}: batched {a} vs scalar {b}"
            );
        }
        if avx2_fma_available() {
            let avx = projection::project_to_corners_with_path(
                &mesh,
                &pts,
                value,
                |i| i as f64,
                SimdPath::Avx2Fma,
            );
            for (c, (a, b)) in avx.iter().zip(&portable).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "dims {dims:?} corner {c}: avx {a} vs portable {b}"
                );
            }
        }

        // G2P: quadrature interpolation of a random corner field.
        let tables = Q2QuadTables::standard();
        let corner_field: Vec<f64> = (0..mesh.num_corners())
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        let qref = projection::corners_to_quadrature_scalar(&mesh, &tables, &corner_field);
        let mut paths = vec![SimdPath::Portable];
        if avx2_fma_available() {
            paths.push(SimdPath::Avx2Fma);
        }
        for path in paths {
            let q =
                projection::corners_to_quadrature_with_path(&mesh, &tables, &corner_field, path);
            assert_eq!(q.len(), qref.len());
            for (i, (a, b)) in q.iter().zip(&qref).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "dims {dims:?} {path:?} qp {i}: {a} vs {b}"
                );
            }
        }
    }
}

#[test]
fn batched_transfer_matches_csr_randomized() {
    // The lane-packed grid transfer against the CSR reference on randomized
    // deformed hierarchies with mixed-BC-filtered transfer matrices:
    // prolongation is bitwise (`spmv` row order == slot order), restriction
    // matches the scalar transpose apply to within zero-sign/shortcut
    // effects (≤ 1e-12 relative), and the two SIMD paths are bitwise
    // identical to each other in both directions.
    let mut rng = SplitMix64::seed_from_u64(0x7a5_fe2);
    for dims in [(2, 2, 2), (4, 2, 2), (2, 4, 6)] {
        let (fine, _, _) = random_setup(&mut rng, dims);
        let hier = ptatin_mesh::hierarchy::MeshHierarchy::new(fine, 2);
        let mut p = expand_blocked(&hier.prolongations[0], 3);
        let fine_mask = bc(&hier.meshes[1]).mask(p.nrows());
        let coarse_mask = bc(&hier.meshes[0]).mask(p.ncols());
        filter_transfer(&mut p, &fine_mask, &coarse_mask);

        let xc: Vec<f64> = (0..p.ncols()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let r: Vec<f64> = (0..p.nrows()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut y_ref = vec![0.0; p.nrows()];
        p.spmv(&xc, &mut y_ref);
        let mut yc_ref = vec![0.0; p.ncols()];
        p.spmv_transpose(&r, &mut yc_ref);

        let mut variants = vec![BatchedTransfer::with_path(&p, SimdPath::Portable)];
        if avx2_fma_available() {
            variants.push(BatchedTransfer::with_path(&p, SimdPath::Avx2Fma));
        }
        let mut prev: Option<(Vec<f64>, Vec<f64>)> = None;
        for bt in &variants {
            let mut y = vec![0.0; p.nrows()];
            bt.prolong(&xc, &mut y);
            for (i, (a, b)) in y.iter().zip(&y_ref).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "dims {dims:?} {:?} prolong row {i}: {a} vs {b}",
                    bt.path()
                );
            }
            let mut yc = vec![0.0; p.ncols()];
            bt.restrict(&r, &mut yc);
            for (i, (a, b)) in yc.iter().zip(&yc_ref).enumerate() {
                let scale = b.abs().max(1.0);
                assert!(
                    (a - b).abs() <= 1e-12 * scale,
                    "dims {dims:?} {:?} restrict row {i}: {a} vs {b}",
                    bt.path()
                );
            }
            if let Some((py, pyc)) = &prev {
                assert!(y.iter().zip(py).all(|(a, b)| a.to_bits() == b.to_bits()));
                assert!(yc.iter().zip(pyc).all(|(a, b)| a.to_bits() == b.to_bits()));
            }
            prev = Some((y, yc));
        }
    }
}

#[test]
fn fused_chebyshev_matches_plain_sweeps_on_stokes_block() {
    // Cache-blocked fused smoothing against k plain sweeps, bitwise, on a
    // real assembled viscous block (deformed mesh, 9-decade viscosity,
    // mixed BCs) — auto tile size plus thin tiles whose halos make the
    // plan unprofitable (gating is a perf decision only; the bits match
    // either way).
    let mesh = deformed_mesh();
    let eta = wild_eta(mesh.num_elements());
    let bc = bc(&mesh);
    let tables = Q2QuadTables::standard();
    let a = ptatin_ops::assembled_viscous_op(&mesh, &tables, &eta, &bc);
    let n = a.nrows();
    let cheb = Chebyshev::new(&a, 4, 10);
    let mut rng = SplitMix64::seed_from_u64(0xc4eb);
    let b_vec = random_vector(&mut rng, n);
    let x_init = random_vector(&mut rng, n);
    for tile in [0usize, 64, 512] {
        let plan = cheb.fused_plan(&a, 4, tile);
        for k in [1usize, 2, 4] {
            let mut x_ref = x_init.clone();
            cheb.smooth_with(&a, &b_vec, &mut x_ref, k);
            let mut x = x_init.clone();
            cheb.apply_fused(&a, &plan, &b_vec, &mut x, k);
            for i in 0..n {
                assert_eq!(
                    x[i].to_bits(),
                    x_ref[i].to_bits(),
                    "tile={tile} k={k} dof {i}: fused {} vs plain {}",
                    x[i],
                    x_ref[i]
                );
            }
        }
    }
}

#[test]
fn element_matrix_consistent_with_operator() {
    // The dense element kernel used by assembly must match the matrix-free
    // action applied to a one-element mesh.
    let mesh = StructuredMesh::new_box(1, 1, 1, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
    let tables = Q2QuadTables::standard();
    let eta: Vec<f64> = (0..NQP).map(|q| 1.0 + q as f64).collect();
    let corners = mesh.element_corner_coords(0);
    let ae = ptatin_fem::element_viscous_matrix(&tables, &corners, &eta);
    let op = build_viscous_operator(
        OperatorKind::Tensor,
        &mesh,
        eta.clone(),
        &DirichletBc::new(),
    );
    let n = op.nrows();
    assert_eq!(n, 81);
    for col in [0usize, 40, 80] {
        let mut x = vec![0.0; n];
        x[col] = 1.0;
        let mut y = vec![0.0; n];
        op.apply(&x, &mut y);
        for row in 0..n {
            // Map (node-major interleaved) dof == local dof on 1 element.
            let expect = ae[row * n + col];
            assert!(
                (y[row] - expect).abs() < 1e-10 * (1.0 + expect.abs()),
                "entry ({row},{col}): {} vs {}",
                y[row],
                expect
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Setup-phase overhaul: SIMD-batched assembly, pattern-reuse re-assembly,
// cached solver rebuilds and SFC reordering (the perf work must be invisible
// in the bits).
// ---------------------------------------------------------------------------

use ptatin_bench::sinker_setup;
use ptatin_core::models::sinker::sinker_bc;
use ptatin_core::solver::{
    build_stokes_solver_cached, CoarseKind, GmgConfig, SetupCache, StokesSolver,
};
use ptatin_fem::pattern::ViscousPattern;
use ptatin_la::operator::Preconditioner;
use ptatin_la::par;
use ptatin_la::simd::F64x4;
use ptatin_mesh::sfc::{expand_permutation, morton_node_permutation};
use ptatin_ops::viscous_numeric_batched_into;
use std::sync::Mutex;

/// Serializes tests that touch the process-global worker-pool size.
static NT_LOCK: Mutex<()> = Mutex::new(());

/// Deformed meshes whose element counts hit every batch remainder
/// (`ne % 4` of 0, 1, 2 and 3) so the ghost-padded tail lanes are covered.
fn remainder_meshes() -> Vec<StructuredMesh> {
    [(4, 2, 2), (3, 3, 1), (3, 2, 3), (1, 1, 3)]
        .iter()
        .map(|&(mx, my, mz)| {
            let mut mesh = StructuredMesh::new_box(mx, my, mz, [0.0, 1.4], [0.0, 1.1], [0.0, 0.9]);
            mesh.deform(|c| {
                [
                    c[0] + 0.03 * (2.7 * c[1]).sin() * c[2],
                    c[1] - 0.04 * (1.9 * c[0]).cos() * c[2],
                    c[2] + 0.02 * c[0] * c[1],
                ]
            });
            mesh
        })
        .collect()
}

#[test]
fn batched_numeric_assembly_bitwise_matches_scalar_across_threads_and_paths() {
    // The SoA-batched numeric phase must reproduce the scalar element
    // kernels bit-for-bit — on every SIMD path, at every thread count,
    // and on meshes exercising every tail-lane remainder. The in-order
    // serial scatter makes the thread count invisible by construction;
    // this pins it.
    let _g = NT_LOCK.lock().unwrap();
    let tables = Q2QuadTables::standard();
    let mut paths = vec![SimdPath::Portable];
    if avx2_fma_available() {
        paths.push(SimdPath::Avx2Fma);
    }
    for mesh in remainder_meshes() {
        let eta = wild_eta(mesh.num_elements());
        let pat = ViscousPattern::build(&mesh);
        par::set_num_threads(1);
        let mut scratch_s: Vec<f64> = Vec::new();
        let mut vref = vec![0.0; pat.nnz()];
        pat.numeric_scalar_into(&mesh, &tables, &eta, &mut scratch_s, &mut vref);
        for nt in [1usize, 2, 4] {
            par::set_num_threads(nt);
            let mut v = vec![0.0; pat.nnz()];
            pat.numeric_scalar_into(&mesh, &tables, &eta, &mut scratch_s, &mut v);
            assert!(
                v.iter().zip(&vref).all(|(a, b)| a.to_bits() == b.to_bits()),
                "scalar numeric phase not thread-invariant at nt={nt}"
            );
            for &path in &paths {
                let mut scratch_b: Vec<F64x4> = Vec::new();
                v.fill(f64::NAN);
                viscous_numeric_batched_into(
                    &pat,
                    &mesh,
                    &tables,
                    &eta,
                    path,
                    &mut scratch_b,
                    &mut v,
                );
                for (i, (a, b)) in v.iter().zip(&vref).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "batched {path:?} nt={nt} differs at nnz {i}: {a} vs {b}"
                    );
                }
            }
        }
        par::set_num_threads(1);
    }
}

#[test]
fn pattern_assembly_with_bc_matches_public_assembled_op_bitwise() {
    // The symbolic/numeric split plus Dirichlet elimination is exactly the
    // one-shot public constructor: same pattern, same values, same mask.
    let _g = NT_LOCK.lock().unwrap();
    par::set_num_threads(1);
    let mesh = deformed_mesh();
    let eta = wild_eta(mesh.num_elements());
    let bc = bc(&mesh);
    let tables = Q2QuadTables::standard();
    let pat = ViscousPattern::build(&mesh);
    let mut scratch: Vec<f64> = Vec::new();
    let mut values = vec![0.0; pat.nnz()];
    pat.numeric_scalar_into(&mesh, &tables, &eta, &mut scratch, &mut values);
    let mut a = pat.to_csr(values);
    a.zero_rows_cols_set_identity(&bc.dofs);
    let aref = ptatin_ops::assembled_viscous_op(&mesh, &tables, &eta, &bc);
    assert_eq!(a.indptr, aref.indptr);
    assert_eq!(a.indices, aref.indices);
    assert!(
        a.values
            .iter()
            .zip(&aref.values)
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "pattern-path values differ from assembled_viscous_op"
    );
}

/// Deterministic bitwise probe of a built solver: the fine operator action,
/// one V-cycle application (smoother bounds, fused plans, transfers, coarse
/// solve) and the coupling-block values.
fn solver_probe(solver: &StokesSolver) -> Vec<u64> {
    let nu = solver.nu;
    let x: Vec<f64> = (0..nu)
        .map(|i| ((i * 131) % 17) as f64 / 8.0 - 1.0)
        .collect();
    let mut y = vec![0.0; nu];
    solver.a_fine.apply(&x, &mut y);
    let mut z = vec![0.0; nu];
    solver.mg.apply(&x, &mut z);
    y.iter()
        .chain(&z)
        .map(|v| v.to_bits())
        .chain(solver.b_masked.values.iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn cached_solver_rebuild_bitwise_matches_fresh_build() {
    // The re-linearization path Picard/Newton take (pattern reuse, value
    // buffers, transfer transposes, λ and fused-plan memos) must produce
    // exactly the solver a from-scratch build produces — after a viscosity
    // update (memo misses), and again on a frozen viscosity (memo hits).
    let _g = NT_LOCK.lock().unwrap();
    par::set_num_threads(1);
    let (model, fields) = sinker_setup(4, 2, 1e4);
    let bcs: Vec<DirichletBc> = model.hier.meshes.iter().map(sinker_bc).collect();
    let gmg = GmgConfig {
        levels: 2,
        fine_kind: OperatorKind::Assembled,
        galerkin_coarsest: false,
        coarse: CoarseKind::Amg { coarse_blocks: 2 },
        ..GmgConfig::default()
    };
    let eta0 = fields.eta_corner.clone();
    let eta1: Vec<f64> = eta0.iter().map(|&v| 2.0 * v).collect();

    // Fresh builds, one per viscosity state.
    let mut scratch_cache = SetupCache::new();
    let fresh0 = solver_probe(&build_stokes_solver_cached(
        &model.hier,
        &eta0,
        &bcs,
        &gmg,
        None,
        &mut SetupCache::new(),
    ));
    let fresh1 = solver_probe(&build_stokes_solver_cached(
        &model.hier,
        &eta1,
        &bcs,
        &gmg,
        None,
        &mut SetupCache::new(),
    ));
    assert_ne!(fresh0, fresh1, "viscosity update must change the operator");

    // One cache carried through the η0 → η1 → η1 sequence.
    let s0 = solver_probe(&build_stokes_solver_cached(
        &model.hier,
        &eta0,
        &bcs,
        &gmg,
        None,
        &mut scratch_cache,
    ));
    assert_eq!(s0, fresh0, "first cached build differs from fresh");
    let s1 = solver_probe(&build_stokes_solver_cached(
        &model.hier,
        &eta1,
        &bcs,
        &gmg,
        None,
        &mut scratch_cache,
    ));
    assert_eq!(s1, fresh1, "rebuild after η update differs from fresh");
    let s2 = solver_probe(&build_stokes_solver_cached(
        &model.hier,
        &eta1,
        &bcs,
        &gmg,
        None,
        &mut scratch_cache,
    ));
    assert_eq!(
        s2, fresh1,
        "frozen-η rebuild (memo hits) differs from fresh"
    );
}

#[test]
fn morton_permutation_roundtrips_and_preserves_the_operator() {
    // The SFC permutation is a true permutation, its inverse inverts it,
    // and P A Pᵀ applied in permuted space agrees with A in natural space.
    let mesh = deformed_mesh();
    let (nperm, niperm) = morton_node_permutation(&mesh);
    assert_eq!(nperm.len(), mesh.num_nodes());
    let mut seen = vec![false; nperm.len()];
    for (old, &new) in nperm.iter().enumerate() {
        assert!(!seen[new as usize], "duplicate image {new}");
        seen[new as usize] = true;
        assert_eq!(niperm[new as usize] as usize, old, "iperm fails to invert");
    }
    let dperm = expand_permutation(&nperm, 3);
    let eta = wild_eta(mesh.num_elements());
    let bc = bc(&mesh);
    let tables = Q2QuadTables::standard();
    let a = ptatin_ops::assembled_viscous_op(&mesh, &tables, &eta, &bc);
    let ap = a.permute_symmetric(&dperm);
    let n = a.nrows();
    let mut rng = SplitMix64::seed_from_u64(0x5fc0);
    let x = random_vector(&mut rng, n);
    let mut y = vec![0.0; n];
    a.apply(&x, &mut y);
    let mut xp = vec![0.0; n];
    for (old, &new) in dperm.iter().enumerate() {
        xp[new as usize] = x[old];
    }
    let mut yp = vec![0.0; n];
    ap.apply(&xp, &mut yp);
    let scale = 1.0 + y.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for (old, &new) in dperm.iter().enumerate() {
        assert!(
            (yp[new as usize] - y[old]).abs() < 1e-12 * scale,
            "permuted action differs at dof {old}: {} vs {}",
            yp[new as usize],
            y[old]
        );
    }
}

#[test]
fn fused_smoothing_on_morton_matrix_matches_natural_order() {
    // Fused Chebyshev on the Morton-permuted matrix (forced multi-tile via
    // an explicit tile size), scattered back to natural order, agrees with
    // plain sweeps on the natural matrix to rounding: the reorder changes
    // only the summation order inside each row.
    let mesh = deformed_mesh();
    let eta = wild_eta(mesh.num_elements());
    let bc = bc(&mesh);
    let tables = Q2QuadTables::standard();
    let a = ptatin_ops::assembled_viscous_op(&mesh, &tables, &eta, &bc);
    let n = a.nrows();
    let (nperm, _) = morton_node_permutation(&mesh);
    let dperm = expand_permutation(&nperm, 3);
    let ap = a.permute_symmetric(&dperm);
    let cheb = Chebyshev::new(&a, 3, 10);
    let chp = cheb.permuted(&dperm);
    assert_eq!(cheb.lambda_bounds(), chp.lambda_bounds());
    let plan = chp.fused_plan(&ap, 3, 64);
    assert!(plan.num_tiles() > 1, "tile size 64 must split {n} rows");
    let mut rng = SplitMix64::seed_from_u64(0x0f5c);
    let b_vec = random_vector(&mut rng, n);
    let x0 = random_vector(&mut rng, n);
    let mut x_ref = x0.clone();
    cheb.smooth_with(&a, &b_vec, &mut x_ref, 3);
    let mut bp = vec![0.0; n];
    let mut xp = vec![0.0; n];
    for (old, &new) in dperm.iter().enumerate() {
        bp[new as usize] = b_vec[old];
        xp[new as usize] = x0[old];
    }
    chp.apply_fused(&ap, &plan, &bp, &mut xp, 3);
    let scale = 1.0 + x_ref.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for (old, &new) in dperm.iter().enumerate() {
        assert!(
            (xp[new as usize] - x_ref[old]).abs() < 1e-10 * scale,
            "permuted fused smoothing differs at dof {old}"
        );
    }
}

#[test]
fn sfc_reorder_preserves_sinker_krylov_counts() {
    // The SFC reorder is a pure performance knob: on the golden-sized
    // sinker the Krylov trajectory must be preserved (identical counts at
    // this size, where the permuted plan is unprofitable and the reorder
    // must gracefully stand down; larger runs tolerate ±1 from the changed
    // summation order).
    let _g = NT_LOCK.lock().unwrap();
    par::set_num_threads(1);
    let (model, fields) = sinker_setup(4, 2, 1e3);
    let mut counts = Vec::new();
    let mut sols = Vec::new();
    for sfc in [false, true] {
        let gmg = GmgConfig {
            levels: 2,
            fine_kind: OperatorKind::Assembled,
            sfc_reorder: sfc,
            ..GmgConfig::default()
        };
        let solver = model.build_solver(&fields, &gmg);
        let rhs = model.rhs(&solver, &fields);
        let mut x = vec![0.0; solver.nu + solver.np];
        let stats = solver.solve(
            &rhs,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-8).with_max_it(400),
            ptatin_core::solver::KrylovOperatorChoice::Picard,
            None,
        );
        assert!(stats.converged, "sfc={sfc}: {stats:?}");
        counts.push(stats.iterations);
        sols.push(x);
    }
    assert!(
        counts[0].abs_diff(counts[1]) <= 1,
        "SFC reorder changed the Krylov trajectory: {counts:?}"
    );
    let scale = 1.0 + sols[0].iter().fold(0.0f64, |m, v| m.max(v.abs()));
    for i in 0..sols[0].len() {
        assert!(
            (sols[0][i] - sols[1][i]).abs() < 1e-6 * scale,
            "solutions diverge at dof {i}"
        );
    }
}

use ptatin_core::models::falling_block::falling_block_bc;
use ptatin_core::models::shear_band::shear_band_bc;
use ptatin_fem::assemble::assemble_viscous;
use ptatin_la::cholesky::{Regularization, SparseCholesky};
use ptatin_la::csr::Csr;
use ptatin_la::schwarz::DirectSolver;
use ptatin_mesh::hierarchy::{prolongation_scalar, MeshHierarchy};
use ptatin_mesh::nd::nested_dissection_order;
use ptatin_mg::galerkin_coarse;

/// Galerkin coarse matrix of a two-level hierarchy built the way the
/// production solver builds it — assembled fine operator with its
/// Dirichlet rows/columns replaced by identity, masked blocked
/// prolongation, `RAP` — with a log-uniform viscosity spanning 10⁴.
fn galerkin_coarse_matrix(
    fine_elems: [usize; 3],
    bc: &dyn Fn(&StructuredMesh) -> DirichletBc,
    seed: u64,
) -> (StructuredMesh, Csr) {
    let [mx, my, mz] = fine_elems;
    let fine = StructuredMesh::new_box(mx, my, mz, [0.0, 2.0], [0.0, 0.5], [0.0, 1.0]);
    let hier = MeshHierarchy::new(fine, 2);
    let masks: Vec<Vec<bool>> = hier
        .meshes
        .iter()
        .map(|m| bc(m).mask(3 * m.num_nodes()))
        .collect();
    let tables = Q2QuadTables::standard();
    let mut rng = SplitMix64::seed_from_u64(seed);
    let eta: Vec<f64> = (0..hier.meshes[1].num_elements() * tables.nqp())
        .map(|_| 10f64.powf(4.0 * rng.next_f64() - 2.0))
        .collect();
    let mut a = assemble_viscous(&hier.meshes[1], &tables, &eta);
    a.zero_rows_cols_set_identity(&bc(&hier.meshes[1]).dofs);
    let mut p = expand_blocked(&prolongation_scalar(&hier.meshes[0], &hier.meshes[1]), 3);
    filter_transfer(&mut p, &masks[1], &masks[0]);
    let ac = galerkin_coarse(&a, &p, &masks[0]);
    (hier.meshes[0].clone(), ac)
}

#[test]
fn sparse_cholesky_matches_dense_lu_on_zoo_coarse_matrices() {
    // The coarse shapes of the zoo: falling_block (9³ coarse nodes),
    // shear_band (17×3×9), solcx (9×3×9).
    let cases: [(&str, [usize; 3], &dyn Fn(&StructuredMesh) -> DirichletBc); 3] = [
        ("falling_block", [8, 8, 8], &|m| falling_block_bc(m, true)),
        ("shear_band", [16, 2, 8], &|m| shear_band_bc(m, 1.0, false)),
        ("solcx", [8, 2, 8], &|m| falling_block_bc(m, true)),
    ];
    for (seed, (label, elems, bc)) in cases.into_iter().enumerate() {
        let (coarse, ac) = galerkin_coarse_matrix(elems, bc, seed as u64);
        let n = ac.nrows();
        assert_eq!(n, 3 * coarse.num_nodes(), "{label}");
        let chol = SparseCholesky::new(&ac, &nested_dissection_order(&coarse, 3));
        assert_eq!(chol.regularization(), Regularization::None, "{label}");
        let lu = DirectSolver::new(&ac);
        let mut rng = SplitMix64::seed_from_u64(17 + seed as u64);
        for _ in 0..3 {
            let b = random_vector(&mut rng, n);
            let (mut xc, mut xd) = (vec![0.0; n], vec![0.0; n]);
            chol.apply(&b, &mut xc);
            lu.apply(&b, &mut xd);
            let norm = |v: &[f64]| v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
            let diff: Vec<f64> = xc.iter().zip(&xd).map(|(p, q)| p - q).collect();
            let rel = norm(&diff) / norm(&xd);
            assert!(rel <= 1e-12, "{label}: Cholesky vs LU differ by {rel:.2e}");
        }
    }
}

// ---------------------------------------------------------------------------
// Production-path guard: every production configuration smooths and runs
// its Picard matvec matrix-free on the finest level (DESIGN.md §16).
// ---------------------------------------------------------------------------

use ptatin3d::scenarios::{parse_scenario_file, Scenario};
use ptatin_core::models::falling_block::FallingBlockModel;
use ptatin_core::models::rift::{rift_bc, RiftConfig, RiftModel};
use ptatin_core::models::shear_band::ShearBandModel;
use ptatin_core::models::solcx::SolCxModel;
use ptatin_core::solver::build_stokes_solver;
use ptatin_core::{update_coefficients, StateFields};
use ptatin_mg::GmgCoarseSolver;
use ptatin_mpm::points::MaterialPoints;
use ptatin_ops::assembled_viscous_op;
use ptatin_rheology::MaterialTable;

/// A production solver together with the inputs it was built from.
struct ProductionBuild {
    label: String,
    hier: MeshHierarchy,
    bcs: Vec<DirichletBc>,
    /// Fine-level quadrature-point viscosity the build evaluated.
    eta_qp: Vec<f64>,
    /// Corner viscosity the build started from (`None`: analytic η).
    eta_corner: Option<Vec<f64>>,
    gmg: GmgConfig,
    solver: StokesSolver,
}

/// Build a scenario's solver through the production builder with its own
/// `GmgConfig`, at the coefficient state of its bc-lifted initial
/// velocity (the state of its first Picard linearization).
#[allow(clippy::too_many_arguments)]
fn corner_field_build(
    label: String,
    mesh: StructuredMesh,
    levels: usize,
    bc: &dyn Fn(&StructuredMesh) -> DirichletBc,
    points: &MaterialPoints,
    materials: &MaterialTable,
    temperature: Option<&[f64]>,
    gmg: &GmgConfig,
) -> ProductionBuild {
    assert!(gmg.geometric_averaging, "{label}");
    let hier = MeshHierarchy::new(mesh, levels);
    let bcs: Vec<DirichletBc> = hier.meshes.iter().map(bc).collect();
    let tables = Q2QuadTables::standard();
    let fine = hier.finest();
    let mut u = vec![0.0; 3 * fine.num_nodes()];
    bcs[levels - 1].apply_to_vector(&mut u);
    let state = StateFields {
        velocity: Some(&u),
        pressure: None,
        temperature,
    };
    let fields = update_coefficients(fine, &tables, points, materials, &state, false);
    let eta_qp = projection::corners_to_quadrature_log(fine, &tables, &fields.eta_corner);
    let solver = build_stokes_solver(&hier, &fields.eta_corner, &bcs, gmg, None);
    ProductionBuild {
        label,
        hier,
        bcs,
        eta_qp,
        eta_corner: Some(fields.eta_corner),
        gmg: gmg.clone(),
        solver,
    }
}

/// The rift reference and every checked-in scenario file.
fn production_builds() -> Vec<ProductionBuild> {
    let rift_cfg = RiftConfig::default();
    let rift = RiftModel::new(rift_cfg.clone());
    let (v_ext, v_short) = (rift_cfg.extension_velocity, rift_cfg.shortening_velocity);
    let mut builds = vec![corner_field_build(
        "rift".into(),
        rift.mesh.clone(),
        rift_cfg.levels,
        &|m| rift_bc(m, v_ext, v_short),
        &rift.points,
        &rift.materials,
        Some(&rift.temperature),
        &rift_cfg.gmg,
    )];
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    files.sort();
    assert!(files.len() >= 3, "scenario files missing from {dir:?}");
    for path in files {
        let label = path.file_name().unwrap().to_string_lossy().into_owned();
        let scenario = parse_scenario_file(&path).unwrap().scenario;
        builds.push(match scenario {
            Scenario::FallingBlock(cfg) => {
                let model = FallingBlockModel::new(cfg.clone());
                corner_field_build(
                    label,
                    model.mesh.clone(),
                    cfg.levels,
                    &|m| falling_block_bc(m, cfg.top_free_slip),
                    &model.points,
                    &model.materials,
                    None,
                    &cfg.gmg,
                )
            }
            Scenario::ShearBand(cfg) => {
                let model = ShearBandModel::new(cfg.clone());
                corner_field_build(
                    label,
                    model.mesh.clone(),
                    cfg.levels,
                    &|m| shear_band_bc(m, cfg.compression_velocity, cfg.top_free_slip),
                    &model.points,
                    &model.materials,
                    None,
                    &cfg.gmg,
                )
            }
            Scenario::SolCx(cfg) => {
                let model = SolCxModel::new(cfg.clone());
                let solver = model.build_solver();
                let tables = Q2QuadTables::standard();
                let fine = model.hier.finest();
                let nqp = tables.nqp();
                let mut eta_qp = vec![0.0; fine.num_elements() * nqp];
                for e in 0..fine.num_elements() {
                    let corners = fine.element_corner_coords(e);
                    for q in 0..nqp {
                        let x =
                            ptatin_fem::geometry::map_to_physical(&corners, tables.quad.points[q]);
                        eta_qp[e * nqp + q] = model.exact.eta(x);
                    }
                }
                let gmg = GmgConfig {
                    levels: cfg.levels,
                    fine_kind: cfg.fine_kind,
                    ..GmgConfig::default()
                };
                ProductionBuild {
                    label,
                    hier: model.hier,
                    bcs: model.bcs,
                    eta_qp,
                    eta_corner: None,
                    gmg,
                    solver,
                }
            }
            other => panic!("{label}: no production-path guard for {}", other.kind()),
        });
    }
    builds
}

fn assert_bitwise(label: &str, what: &str, got: &[f64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{label}: {what} length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{label}: {what} differs at {i}");
    }
}

#[test]
fn production_fine_level_is_matrix_free() {
    // Production must smooth and run its Picard matvec through the
    // operator `fine_kind` names — the batched SIMD kernel by default,
    // the scalar tensor kernel where solcx.scn pins it — while the
    // Galerkin coarse level is still RAP of the assembled fine matrix.
    // Only `fine_kind = Assembled` may put a CSR matrix on the fine level.
    let _g = NT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    par::set_num_threads(1);
    let tables = Q2QuadTables::standard();
    let mut rng = SplitMix64::seed_from_u64(2026);
    for b in production_builds() {
        let label = b.label.as_str();
        let want_kind = if label == "solcx.scn" {
            OperatorKind::Tensor
        } else {
            OperatorKind::TensorBatched
        };
        assert_eq!(b.gmg.fine_kind, want_kind, "{label}: production fine_kind");
        assert_eq!(b.hier.num_levels(), 2, "{label}: guard assumes 2 levels");
        assert!(b.gmg.galerkin_coarsest, "{label}");
        let fine = b.hier.finest();
        let fine_bc = &b.bcs[1];
        let top = b.solver.mg.levels.last().unwrap();
        assert!(
            top.matrix().is_none(),
            "{label}: finest level holds an assembled matrix"
        );
        assert!(
            top.fused_plan_ref().is_none(),
            "{label}: finest level holds a fused plan"
        );

        // The Krylov matvec (and the level operator it shares) is the
        // matrix-free kernel on the same η and bc.
        let reference = build_viscous_operator(want_kind, fine, b.eta_qp.clone(), fine_bc);
        let x = random_vector(&mut rng, b.solver.nu);
        let (mut got, mut want) = (vec![0.0; b.solver.nu], vec![0.0; b.solver.nu]);
        b.solver.a_fine.apply(&x, &mut got);
        reference.apply(&x, &mut want);
        assert_bitwise(label, "a_fine", &got, &want);

        // The Galerkin coarse matrix is RAP of the assembled fine matrix.
        let a_fine = assembled_viscous_op(fine, &tables, &b.eta_qp, fine_bc);
        let masks: Vec<Vec<bool>> = b
            .hier
            .meshes
            .iter()
            .zip(&b.bcs)
            .map(|(m, bc)| bc.mask(3 * m.num_nodes()))
            .collect();
        let mut p = expand_blocked(&prolongation_scalar(&b.hier.meshes[0], fine), 3);
        filter_transfer(&mut p, &masks[1], &masks[0]);
        let ac = galerkin_coarse(&a_fine, &p, &masks[0]);
        match &b.solver.mg.coarse {
            GmgCoarseSolver::InexactCgAsm { a, .. } => {
                assert_eq!(a.indptr, ac.indptr, "{label}: coarse pattern");
                assert_eq!(a.indices, ac.indices, "{label}: coarse pattern");
                assert_bitwise(label, "coarse matrix", &a.values, &ac.values);
            }
            GmgCoarseSolver::Direct(chol) => {
                let order = nested_dissection_order(&b.hier.meshes[0], 3);
                let reference = SparseCholesky::new(&ac, &order);
                let r = random_vector(&mut rng, ac.nrows());
                let (mut got, mut want) = (vec![0.0; ac.nrows()], vec![0.0; ac.nrows()]);
                chol.apply(&r, &mut got);
                reference.apply(&r, &mut want);
                assert_bitwise(label, "coarse solve", &got, &want);
            }
            _ => panic!("{label}: unexpected production coarse solver"),
        }

        // Asking for an assembled fine level still gets one.
        if let Some(eta_corner) = &b.eta_corner {
            let gmg = GmgConfig {
                fine_kind: OperatorKind::Assembled,
                ..b.gmg.clone()
            };
            let csr = build_stokes_solver(&b.hier, eta_corner, &b.bcs, &gmg, None);
            let top = csr.mg.levels.last().unwrap();
            let a = top.matrix().expect("fine_kind = Assembled keeps the CSR");
            assert_bitwise(label, "assembled fine level", &a.values, &a_fine.values);
            csr.a_fine.apply(&x, &mut got);
            a_fine.apply(&x, &mut want);
            assert_bitwise(label, "assembled a_fine", &got, &want);
        }
    }
    par::set_num_threads(0);
}
