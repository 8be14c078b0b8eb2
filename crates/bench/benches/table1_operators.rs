//! Micro-benchmarks of the five J_uu operator applications — the
//! statistical companion to `--bin table1` (Table I of the paper) and the
//! producer of the machine-readable `BENCH_kernels.json` perf record at
//! the repository root.
//!
//! Plain `fn main()` timing harness (`harness = false`): run with
//! `cargo bench -p ptatin-bench --bench table1_operators [-- smoke]`.
//! Full mode writes `BENCH_kernels.json` at the repo root (committed, the
//! cross-PR perf trajectory); smoke mode shrinks sizes/reps for CI and
//! writes to `output/BENCH_kernels_smoke.json` instead so a quick run
//! never clobbers the committed record.

use ptatin_bench::kernels_json::{
    FusedOrderingStats, KernelEntry, PerKernelEntry, SetupSection, KERNEL_BENCH_SCHEMA,
    WHOLE_STEP_VCYCLES,
};
use ptatin_bench::sinker_setup;
use ptatin_core::models::sinker::sinker_bc;
use ptatin_core::solver::{build_stokes_solver_cached, CoarseKind, GmgConfig, SetupCache};
use ptatin_fem::assemble::Q2QuadTables;
use ptatin_fem::bc::DirichletBc;
use ptatin_fem::pattern::ViscousPattern;
use ptatin_la::chebyshev::Chebyshev;
use ptatin_la::cholesky::SparseCholesky;
use ptatin_la::csr::Csr;
use ptatin_la::operator::{LinearOperator, Preconditioner};
use ptatin_la::par;
use ptatin_la::simd::{runtime_simd_path, F64x4};
use ptatin_la::transfer::BatchedTransfer;
use ptatin_mesh::hierarchy::{expand_blocked, prolongation_scalar};
use ptatin_mesh::nd::nested_dissection_order;
use ptatin_mesh::sfc::{expand_permutation, morton_node_permutation};
use ptatin_mg::{filter_transfer, ArcOp, GeometricMg, GmgCoarseSolver, GmgLevel};
use ptatin_mpm::points::seed_regular;
use ptatin_mpm::projection;
use ptatin_ops::{
    assembled_model, assembled_viscous_op, mf_model, tensor_batched_model, tensor_c_model,
    tensor_model, viscous_numeric_batched_into, BatchedViscousOp, MfViscousOp, OperatorKind,
    OperatorModel, SimdPath, TensorCViscousOp, TensorViscousOp, ViscousOpData,
};
use ptatin_prng::StdRng;
use ptatin_prof::json::Value;
use std::sync::Arc;
use std::time::Instant;

fn time_it<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    f();
    let mut samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[2]
}

fn git_rev(root: &str) -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Time every operator variant at the current thread count; returns the
/// JSON entries plus the batched-vs-tensor element-throughput speedup.
fn run_at_current_nt(m: usize, iters: usize) -> (Vec<KernelEntry>, f64) {
    let (model, fields) = sinker_setup(m, 2, 1e4);
    let mesh = model.hier.finest();
    let bc = sinker_bc(mesh);
    let tables = Q2QuadTables::standard();
    let nel = mesh.num_elements();
    let asmb = assembled_viscous_op(mesh, &tables, &fields.eta_qp, &bc);
    let data = Arc::new(ViscousOpData::new(mesh, fields.eta_qp.clone(), &bc));
    let mf = MfViscousOp::new(data.clone());
    let tensor = TensorViscousOp::new(data.clone());
    let tensor_c = TensorCViscousOp::new(data.clone());
    let batched = BatchedViscousOp::new(data);
    let n = asmb.nrows();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut y = vec![0.0; n];
    let ops: [(&str, &dyn LinearOperator, OperatorModel); 5] = [
        ("assembled", &asmb, assembled_model(asmb.nnz(), nel)),
        ("mf", &mf, mf_model()),
        ("tensor", &tensor, tensor_model()),
        ("tensor_c", &tensor_c, tensor_c_model()),
        ("tensor_batched", &batched, tensor_batched_model()),
    ];
    let mut entries = Vec::new();
    let mut secs_tensor = 0.0;
    let mut secs_batched = 0.0;
    for (name, op, mdl) in ops {
        let secs = time_it(iters, || op.apply(&x, &mut y));
        println!(
            "{name:<16} {m}^3 nt={}  {:12.3} us/apply  {:8.2} Mel/s",
            par::num_threads(),
            secs * 1e6,
            nel as f64 / secs / 1e6
        );
        if name == "tensor" {
            secs_tensor = secs;
        }
        if name == "tensor_batched" {
            secs_batched = secs;
        }
        entries.push(KernelEntry {
            operator: name.into(),
            us_per_apply: secs * 1e6,
            el_per_s: nel as f64 / secs,
            flops_per_s: mdl.flops as f64 * nel as f64 / secs,
            bytes_per_apply: mdl.bytes_perfect as f64 * nel as f64,
        });
    }
    (entries, secs_tensor / secs_batched)
}

/// Scalar-vs-batched timings of the rest of the per-step pipeline (the
/// operator table above covers the viscous-block apply itself):
///
/// * `projection` — one MPM P2G corner projection plus one G2P viscosity
///   interpolation over a 27-points-per-element swarm,
/// * `transfer` — one restriction plus one prolongation through the finest
///   grid-transfer operator (scalar CSR vs lane-packed SIMD),
/// * `smoother` — four Chebyshev iterations on the matrix-free fine level
///   production smooths: the scalar tensor operator vs the SIMD-batched
///   one,
/// * `vcycle` — one GMG V(2,2) application: the fully scalar pipeline
///   (scalar tensor fine operator, CSR transfers, unfused smoothing) vs
///   the fully batched one (SIMD tensor operator, batched transfers,
///   fused smoothing on assembled levels),
/// * `whole_step` — the composite `projection + WHOLE_STEP_VCYCLES ×
///   vcycle`: one material-point projection pass plus roughly one Stokes
///   solve (≈ 8 preconditioned Krylov iterations) per time step.
fn per_kernel_at_current_nt(m: usize, iters: usize) -> Vec<PerKernelEntry> {
    let levels = if m % 4 == 0 { 3 } else { 2 };
    let (model, fields) = sinker_setup(m, levels, 1e4);
    let meshes = &model.hier.meshes;
    let fine = model.hier.finest();
    let tables = Q2QuadTables::standard();

    // P2G + G2P over a jittered regular swarm.
    let mut rng = StdRng::seed_from_u64(42);
    let pts = seed_regular(fine, 3, 0.3, &mut rng, |_| 0);
    let value = |i: usize| ((i * 2654435761) % 1000) as f64 / 1000.0;
    let proj_scalar = time_it(iters, || {
        let c = projection::project_to_corners_scalar(fine, &pts, value, |_| 1.0);
        let _ = projection::corners_to_quadrature_scalar(fine, &tables, &c);
    });
    let proj_batched = time_it(iters, || {
        let c = projection::project_to_corners(fine, &pts, value, |_| 1.0);
        let _ = projection::corners_to_quadrature(fine, &tables, &c);
    });

    // Assembled operators below the (matrix-free) fine level, masks and
    // filtered transfers (unit viscosity — the timings don't depend on
    // the coefficient values).
    let bcs: Vec<DirichletBc> = meshes.iter().map(sinker_bc).collect();
    let ops: Vec<Csr> = meshes[..levels - 1]
        .iter()
        .zip(&bcs)
        .map(|(mm, bc)| {
            let eta = vec![1.0; mm.num_elements() * tables.nqp()];
            assembled_viscous_op(mm, &tables, &eta, bc)
        })
        .collect();
    let masks: Vec<Vec<bool>> = meshes
        .iter()
        .zip(&bcs)
        .map(|(mm, bc)| bc.mask(3 * mm.num_nodes()))
        .collect();
    let ps: Vec<Csr> = (0..levels - 1)
        .map(|l| {
            let mut p = expand_blocked(&prolongation_scalar(&meshes[l], &meshes[l + 1]), 3);
            filter_transfer(&mut p, &masks[l + 1], &masks[l]);
            p
        })
        .collect();

    // Finest grid transfer: restriction + prolongation.
    let pf = ps.last().expect("at least two levels");
    let bt = BatchedTransfer::from_csr(pf);
    let r: Vec<f64> = (0..pf.nrows()).map(|i| value(i) - 0.5).collect();
    let xc: Vec<f64> = (0..pf.ncols()).map(|i| value(i + 1) - 0.5).collect();
    let mut rc = vec![0.0; pf.ncols()];
    let mut corr = vec![0.0; pf.nrows()];
    let tr_scalar = time_it(iters, || {
        pf.spmv_transpose(&r, &mut rc);
        pf.spmv(&xc, &mut corr);
    });
    let tr_batched = time_it(iters, || {
        bt.restrict(&r, &mut rc);
        bt.prolong(&xc, &mut corr);
    });

    // Chebyshev smoothing, depth 4, on the matrix-free fine level that
    // production smooths (DESIGN.md §16): the scalar tensor operator vs
    // the SIMD-batched one, same η, bc and λ bounds.
    let data = Arc::new(ViscousOpData::new(
        fine,
        fields.eta_qp.clone(),
        &bcs[levels - 1],
    ));
    let op_tensor = TensorViscousOp::new(data.clone());
    let op_batched = BatchedViscousOp::new(data.clone());
    let cheb = Chebyshev::new(&op_tensor, 2, 10);
    let b: Vec<f64> = masks
        .last()
        .expect("masks per level")
        .iter()
        .map(|&m| if m { 0.0 } else { 1.0 })
        .collect();
    let nf = b.len();
    let mut xs = vec![0.0; nf];
    let sm_scalar = time_it(iters, || cheb.smooth_with(&op_tensor, &b, &mut xs, 4));
    let mut xb = vec![0.0; nf];
    let sm_batched = time_it(iters, || cheb.smooth_with(&op_batched, &b, &mut xb, 4));

    // One V(2,2) through the scalar vs the batched pipeline. The fine
    // level is the matrix-free tensor operator in its scalar vs SIMD
    // variant (the production fine-level kind); intermediate levels are
    // assembled and smooth fused only on the batched side.
    let build_mg = |scalar: bool| -> GeometricMg {
        let mut lvls = Vec::new();
        for l in 1..levels {
            if l == levels - 1 {
                let op: ArcOp = if scalar {
                    Arc::new(TensorViscousOp::new(data.clone()))
                } else {
                    Arc::new(BatchedViscousOp::new(data.clone()))
                };
                let smoother = Chebyshev::new(op.as_ref(), 2, 10);
                lvls.push(GmgLevel::new(op, smoother));
            } else {
                let a = Arc::new(ops[l].clone());
                let smoother = Chebyshev::new(a.as_ref(), 2, 10);
                lvls.push(GmgLevel::from_csr(a, smoother));
            }
        }
        let order = nested_dissection_order(&meshes[0], 3);
        let coarse = GmgCoarseSolver::Direct(SparseCholesky::new(&ops[0], &order));
        let mg = GeometricMg::new(lvls, ps.clone(), coarse, 2, 2);
        if scalar {
            mg.with_scalar_pipeline()
        } else {
            mg
        }
    };
    let mut z = vec![0.0; nf];
    let mg_s = build_mg(true);
    let vc_scalar = time_it(iters, || mg_s.apply(&b, &mut z));
    let mg_b = build_mg(false);
    let vc_batched = time_it(iters, || mg_b.apply(&b, &mut z));

    let whole_scalar = proj_scalar + WHOLE_STEP_VCYCLES as f64 * vc_scalar;
    let whole_batched = proj_batched + WHOLE_STEP_VCYCLES as f64 * vc_batched;
    let pairs = [
        ("projection", proj_scalar, proj_batched),
        ("transfer", tr_scalar, tr_batched),
        ("smoother", sm_scalar, sm_batched),
        ("vcycle", vc_scalar, vc_batched),
        ("whole_step", whole_scalar, whole_batched),
    ];
    pairs
        .iter()
        .map(|&(name, s, bsecs)| {
            println!(
                "{name:<16} {m}^3 nt={}  scalar {:10.1} us  batched {:10.1} us  {:5.2}x",
                par::num_threads(),
                s * 1e6,
                bsecs * 1e6,
                s / bsecs
            );
            PerKernelEntry {
                kernel: name.into(),
                scalar_us: s * 1e6,
                batched_us: bsecs * 1e6,
            }
        })
        .collect()
}

/// Setup-phase measurements at nt=1 (the thread count is pinned by the
/// caller): batched-vs-scalar viscous numeric assembly into a prebuilt
/// pattern, first-build vs warm `SetupCache` solver setup, and the
/// fused-smoothing profitability rerun on the Morton-reordered fine
/// matrix. The solver configuration is the GMG-i production shape
/// (assembled fine level, rediscretized coarse, SA-AMG coarse solve) —
/// the configuration whose setup the pattern-reuse path targets.
fn measure_setup(m: usize, iters: usize) -> SetupSection {
    let levels = if m % 4 == 0 { 3 } else { 2 };
    let (model, fields) = sinker_setup(m, levels, 1e4);
    let fine = model.hier.finest();
    let tables = Q2QuadTables::standard();
    let bc = sinker_bc(fine);
    let path = runtime_simd_path();

    // Numeric assembly into a prebuilt pattern: the per-iteration cost of
    // a Picard/Newton re-linearization once the symbolic phase is cached.
    let pat = ViscousPattern::build(fine);
    let mut values = vec![0.0; pat.nnz()];
    let mut scratch_s: Vec<f64> = Vec::new();
    let asm_scalar = time_it(iters, || {
        pat.numeric_scalar_into(fine, &tables, &fields.eta_qp, &mut scratch_s, &mut values);
    });
    let mut scratch_b: Vec<F64x4> = Vec::new();
    let asm_batched = time_it(iters, || {
        viscous_numeric_batched_into(
            &pat,
            fine,
            &tables,
            &fields.eta_qp,
            path,
            &mut scratch_b,
            &mut values,
        );
    });

    // Full solver setup: fresh build vs rebuild through a warm cache (the
    // re-linearization path Picard/Newton actually take).
    let bcs: Vec<DirichletBc> = model.hier.meshes.iter().map(sinker_bc).collect();
    let gmg = GmgConfig {
        levels,
        fine_kind: OperatorKind::Assembled,
        galerkin_coarsest: false,
        coarse: CoarseKind::Amg { coarse_blocks: 4 },
        ..GmgConfig::default()
    };
    let setup_iters = iters.min(3);
    let first = time_it(setup_iters, || {
        let mut cold = SetupCache::new();
        let _ = build_stokes_solver_cached(
            &model.hier,
            &fields.eta_corner,
            &bcs,
            &gmg,
            None,
            &mut cold,
        );
    });
    let mut warm = SetupCache::new();
    let _ =
        build_stokes_solver_cached(&model.hier, &fields.eta_corner, &bcs, &gmg, None, &mut warm);
    let re = time_it(setup_iters, || {
        let _ = build_stokes_solver_cached(
            &model.hier,
            &fields.eta_corner,
            &bcs,
            &gmg,
            None,
            &mut warm,
        );
    });

    // Fused-smoothing profitability on the assembled fine matrix: natural
    // dof order vs the Morton (SFC) reorder, plans at smoothing depth 4.
    let af = assembled_viscous_op(fine, &tables, &fields.eta_qp, &bc);
    let cheb = Chebyshev::new(&af, 2, 10);
    let natural_plan = cheb.fused_plan(&af, 4, 0);
    let (nperm, _) = morton_node_permutation(fine);
    let dperm = expand_permutation(&nperm, 3);
    let ap = af.permute_symmetric(&dperm);
    let chp = cheb.permuted(&dperm);
    let morton_plan = chp.fused_plan(&ap, 4, 0);
    let natural = FusedOrderingStats {
        num_tiles: natural_plan.num_tiles(),
        redundancy: natural_plan.redundancy(),
        profitable: natural_plan.profitable(),
    };
    let morton = FusedOrderingStats {
        num_tiles: morton_plan.num_tiles(),
        redundancy: morton_plan.redundancy(),
        profitable: morton_plan.profitable(),
    };

    // Four smoothing iterations through each ordering's production path:
    // fused where the plan is profitable, plain sweeps otherwise. The
    // Morton side pays its real cost — vector gather in, scatter out.
    let b: Vec<f64> = (0..af.nrows()).map(|i| (i as f64 * 0.61).cos()).collect();
    let mut x = vec![0.0; af.nrows()];
    let nat_smooth = time_it(iters, || {
        if natural_plan.profitable() {
            cheb.apply_fused(&af, &natural_plan, &b, &mut x, 4);
        } else {
            cheb.smooth_with(&af, &b, &mut x, 4);
        }
    });
    let mut bp = vec![0.0; af.nrows()];
    let mut xp = vec![0.0; af.nrows()];
    let mut xm = vec![0.0; af.nrows()];
    let mor_smooth = time_it(iters, || {
        for (old, &new) in dperm.iter().enumerate() {
            bp[new as usize] = b[old];
            xp[new as usize] = xm[old];
        }
        if morton_plan.profitable() {
            chp.apply_fused(&ap, &morton_plan, &bp, &mut xp, 4);
        } else {
            chp.smooth_with(&ap, &bp, &mut xp, 4);
        }
        for (old, &new) in dperm.iter().enumerate() {
            xm[old] = xp[new as usize];
        }
    });

    let verdict = match (natural.profitable, morton.profitable) {
        (false, true) if mor_smooth < nat_smooth => format!(
            "Morton reorder makes fused smoothing profitable and faster \
             ({:.2}x): redundancy {:.2} -> {:.2}",
            nat_smooth / mor_smooth,
            natural.redundancy,
            morton.redundancy
        ),
        (false, true) => format!(
            "Morton reorder admits a fused plan (redundancy {:.2} -> {:.2}) \
             but gather/scatter overhead keeps it slower ({:.2}x) — negative",
            natural.redundancy,
            morton.redundancy,
            nat_smooth / mor_smooth
        ),
        (true, true) => format!(
            "fused smoothing profitable in both orderings; Morton is {:.2}x \
             the natural speed",
            nat_smooth / mor_smooth
        ),
        (_, false) => format!(
            "fused smoothing remains unprofitable after Morton reorder \
             (redundancy {:.2} -> {:.2}, {} -> {} tiles) — negative result",
            natural.redundancy, morton.redundancy, natural.num_tiles, morton.num_tiles
        ),
    };
    println!(
        "setup            {m}^3 nt={}  asm scalar {:9.1} us  batched {:9.1} us  {:5.2}x",
        par::num_threads(),
        asm_scalar * 1e6,
        asm_batched * 1e6,
        asm_scalar / asm_batched
    );
    println!(
        "setup            {m}^3 nt={}  first {:11.1} us  resetup {:9.1} us  {:5.2}x",
        par::num_threads(),
        first * 1e6,
        re * 1e6,
        first / re
    );
    println!("fused-sfc verdict: {verdict}");

    SetupSection {
        assembly_scalar_us: asm_scalar * 1e6,
        assembly_batched_us: asm_batched * 1e6,
        first_setup_us: first * 1e6,
        resetup_us: re * 1e6,
        natural,
        morton,
        natural_smooth_us: nat_smooth * 1e6,
        morton_smooth_us: mor_smooth * 1e6,
        verdict,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "smoke" || a == "--smoke");
    let m = if smoke { 6 } else { 8 };
    let iters = if smoke { 3 } else { 10 };
    println!("table1_operator_apply (median of 5):");

    let mut runs = Vec::new();
    let mut speedup_nt1 = 0.0;
    for nt in [1usize, 4] {
        par::set_num_threads(nt);
        let (entries, speedup) = run_at_current_nt(m, iters);
        if nt == 1 {
            speedup_nt1 = speedup;
        }
        println!("  -> tensor_batched vs tensor at nt={nt}: {speedup:.2}x");
        let per_kernel = per_kernel_at_current_nt(m, iters);
        runs.push(Value::obj(vec![
            ("nt", Value::Num(nt as f64)),
            (
                "entries",
                Value::Arr(entries.iter().map(KernelEntry::to_value).collect()),
            ),
            ("speedup_tensor_batched_vs_tensor", Value::Num(speedup)),
            (
                "per_kernel",
                Value::Arr(per_kernel.iter().map(PerKernelEntry::to_value).collect()),
            ),
        ]));
    }
    // Setup-phase record, measured at nt=1 (the floors are single-thread
    // contracts; parallel scaling is covered by the runs above).
    par::set_num_threads(1);
    let setup = measure_setup(m, iters);
    par::set_num_threads(0);

    // cargo runs benches with CWD = the package dir; anchor paths to the
    // workspace root, where the committed record lives.
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let path = if smoke {
        let dir = format!("{root}/output");
        std::fs::create_dir_all(&dir).expect("create output dir");
        format!("{dir}/BENCH_kernels_smoke.json")
    } else {
        format!("{root}/BENCH_kernels.json")
    };
    let doc = Value::obj(vec![
        ("schema", Value::Str(KERNEL_BENCH_SCHEMA.into())),
        ("git_rev", Value::Str(git_rev(root))),
        (
            "simd_path",
            Value::Str(
                match ptatin_ops::detected_simd_path() {
                    SimdPath::Avx2Fma => "avx2+fma",
                    SimdPath::Portable => "portable",
                }
                .into(),
            ),
        ),
        ("m", Value::Num(m as f64)),
        ("nel", Value::Num((m * m * m) as f64)),
        ("runs", Value::Arr(runs)),
        ("setup", setup.to_value()),
    ]);
    ptatin_bench::kernels_json::validate(&doc).expect("self-check: generated JSON fits schema");
    std::fs::write(&path, doc.to_json()).expect("write BENCH_kernels json");
    println!("wrote {path}");
    if !smoke && speedup_nt1 < 1.5 {
        eprintln!("WARNING: batched speedup at nt=1 is only {speedup_nt1:.2}x (target >= 1.5x)");
    }
}
