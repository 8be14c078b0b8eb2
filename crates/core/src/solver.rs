//! The coupled Stokes solver: hybrid geometric/algebraic multigrid setup
//! for the viscous block, the full-space block operator, the
//! block-lower-triangular field-split preconditioner of Eq. (17) and the
//! Schur-complement-reduction (SCR) alternative of §III-B.

use ptatin_fem::assemble::{
    num_pressure_dofs, num_velocity_dofs, PressureMassBlocks, Q2QuadTables,
};
use ptatin_fem::bc::DirichletBc;
use ptatin_fem::pattern::ViscousPattern;
use ptatin_la::chebyshev::{Chebyshev, FusedPlan};
use ptatin_la::cholesky::SparseCholesky;
use ptatin_la::csr::Csr;
use ptatin_la::krylov::{cg, fgmres, gcr_monitored, KrylovConfig, Monitor, SolveStats};
use ptatin_la::operator::{LinearOperator, Preconditioner, TimedOperator};
use ptatin_la::schwarz::{grow_overlap, AdditiveSchwarz, SubdomainSolve};
use ptatin_la::simd::{runtime_simd_path, F64x4};
use ptatin_la::transfer::BatchedTransfer;
use ptatin_la::vec_ops;
use ptatin_mesh::decomp::nodes_to_dofs;
use ptatin_mesh::hierarchy::{expand_blocked, prolongation_scalar, MeshHierarchy};
use ptatin_mesh::nd::nested_dissection_order;
use ptatin_mesh::sfc::{expand_permutation, morton_node_permutation};
use ptatin_mesh::ElementPartition;
use ptatin_mg::amg::{build_sa_amg, AmgConfig};
use ptatin_mg::gmg::{
    filter_transfer, galerkin_coarse_with_pt, ArcOp, CycleType, GeometricMg, GmgCoarseSolver,
    GmgLevel,
};
use ptatin_mg::nullspace::rigid_body_modes;
use ptatin_mpm::projection::{corners_to_quadrature_log, restrict_corner_field};
use ptatin_ops::{
    assemble_gradient_batched, pressure_mass_blocks_batched, viscous_numeric_batched_into,
    BatchedViscousOp, MfViscousOp, OperatorKind, TensorCViscousOp, TensorViscousOp, ViscousOpData,
};
use ptatin_prof as prof;
use std::sync::Arc;

/// Coarsest-level solver selection for the velocity multigrid.
#[derive(Clone, Debug)]
pub enum CoarseKind {
    /// One V(2,2) cycle of smoothed-aggregation AMG with rigid-body modes
    /// (production configuration of §IV-A).
    Amg {
        /// Subdomain count of the AMG-coarsest block-Jacobi/LU solve.
        coarse_blocks: usize,
    },
    /// Exact sparse Cholesky under a nested-dissection order of the
    /// coarsest mesh (the zoo scenarios, the goldens, tests).
    Direct,
    /// One application of block-Jacobi with exact LU per subdomain.
    BlockJacobiLu { subdomains: usize },
    /// Inexact CG + ASM(ILU(0), overlap) — the rifting coarse solver of §V.
    InexactCgAsm {
        subdomains: usize,
        overlap: usize,
        rtol: f64,
        max_it: usize,
    },
}

/// Coefficient coarsening strategy for rediscretized coarse operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoefficientRestriction {
    /// Point sampling at coincident corners (the nodally-nested default).
    Injection,
    /// Full-weighting average ([½,1,½]³ stencil), geometric for viscosity.
    FullWeighting,
}

/// Velocity-block multigrid configuration (the knobs varied in §IV).
#[derive(Clone, Debug)]
pub struct GmgConfig {
    /// Number of geometric levels (paper: 3).
    pub levels: usize,
    /// Operator of the finest level: its smoother, λmax estimate and
    /// diagonal, and the Picard Krylov matvec (`StokesSolver::a_fine`).
    /// The default is the SIMD-batched matrix-free kernel (paper §IV-A);
    /// only `Assembled` gives a CSR fine level.
    pub fine_kind: OperatorKind,
    /// Intermediate levels via Galerkin projection of the level above
    /// (requires `fine_kind = Assembled` — GMG-ii) instead of
    /// rediscretization (GMG-i).
    pub galerkin_intermediate: bool,
    /// Coarsest operator via Galerkin projection (paper default) instead
    /// of rediscretization. On a 2-level hierarchy the fine matrix is then
    /// assembled as the RAP input only and dropped once the product
    /// exists, unless `fine_kind = Assembled`.
    pub galerkin_coarsest: bool,
    /// V(m,n) smoothing depths.
    pub pre_smooth: usize,
    pub post_smooth: usize,
    /// Power iterations for the Chebyshev λmax estimate.
    pub cheb_est_iters: usize,
    /// Interpolate viscosity to quadrature points geometrically (in log
    /// space, the default) or arithmetically — the averaging ablation.
    pub geometric_averaging: bool,
    /// Chebyshev target interval as fractions of the estimated λmax
    /// (paper: `[0.2, 1.1]`).
    pub cheb_targets: (f64, f64),
    /// How viscosity follows the hierarchy to rediscretized coarse levels.
    pub coefficient_restriction: CoefficientRestriction,
    /// V- or W-cycle recursion (paper: V).
    pub cycle: CycleType,
    pub coarse: CoarseKind,
    /// Smooth assembled levels in Morton (Z-order) dof order: the matrix
    /// is permuted once at setup and vectors round-trip through the
    /// permuted space per smoothing call. Changes the fused smoother's
    /// summation order, so results are not bitwise-comparable to the
    /// natural ordering (iteration counts should be preserved).
    pub sfc_reorder: bool,
}

impl Default for GmgConfig {
    fn default() -> Self {
        Self {
            levels: 3,
            fine_kind: OperatorKind::TensorBatched,
            galerkin_intermediate: false,
            galerkin_coarsest: true,
            pre_smooth: 2,
            post_smooth: 2,
            cheb_est_iters: 10,
            geometric_averaging: true,
            cheb_targets: (0.2, 1.1),
            coefficient_restriction: CoefficientRestriction::Injection,
            cycle: CycleType::V,
            coarse: CoarseKind::Amg { coarse_blocks: 4 },
            sfc_reorder: false,
        }
    }
}

/// Handles for instrumentation of the velocity MG.
pub struct GmgTimers {
    /// Per smoothed level (coarse → fine): timed operator handles.
    pub level_ops: Vec<Arc<TimedOperator<ArcOp>>>,
    /// Setup wall time (s), including assembly, RAP, AMG setup, λ estimates.
    pub setup_seconds: f64,
    /// Coarse-solver setup time (s) for every coarse kind: the interval
    /// the `setup/coarse` profiling scope times.
    pub coarse_setup_seconds: f64,
}

impl GmgTimers {
    /// Total operator-application ("MatMult") time across levels.
    pub fn matmult_seconds(&self) -> f64 {
        self.level_ops.iter().map(|t| t.seconds()).sum()
    }
    pub fn reset(&self) {
        for t in &self.level_ops {
            t.reset();
        }
    }
}

/// Everything needed to run linear Stokes solves against one linearization
/// state: the velocity multigrid, coupling blocks and Schur preconditioner.
pub struct StokesSolver {
    pub nu: usize,
    pub np: usize,
    /// The velocity-block V-cycle preconditioner.
    pub mg: GeometricMg,
    /// Finest-level (masked) viscous operator — the Krylov J_uu action.
    pub a_fine: ArcOp,
    /// Optional Newton-linearized J_uu action (Picard stays in `mg`).
    pub a_newton: Option<ArcOp>,
    /// J_pu with Dirichlet velocity columns zeroed.
    pub b_masked: Csr,
    /// J_pu untouched (residual evaluation).
    pub b_full: Csr,
    /// Element-block inverse of the (1/η)-weighted pressure mass matrix.
    pub schur: PressureMassBlocks,
    /// Instrumentation handles.
    pub timers: GmgTimers,
    /// Fine-level Dirichlet constraints.
    pub bc: DirichletBc,
}

/// Build the viscous operator of the requested kind as a shared handle.
/// `base` caches the gathered element tables across rebuilds (see
/// [`SetupCache`]); pass `&mut None` for a one-shot build.
fn build_arc_operator(
    kind: OperatorKind,
    mesh: &ptatin_mesh::StructuredMesh,
    tables: &Q2QuadTables,
    eta_qp: Vec<f64>,
    bc: &DirichletBc,
    newton: Option<ptatin_ops::NewtonData>,
    base: &mut Option<ViscousOpData>,
) -> ArcOp {
    match kind {
        OperatorKind::Assembled => {
            assert!(newton.is_none(), "Newton uses matrix-free kinds");
            Arc::new(ptatin_ops::assembled_viscous_op(mesh, tables, &eta_qp, bc))
        }
        OperatorKind::MatrixFree => {
            let data = make_op_data(base, mesh, eta_qp, bc, newton);
            Arc::new(MfViscousOp::new(Arc::new(data)))
        }
        OperatorKind::Tensor => {
            let data = make_op_data(base, mesh, eta_qp, bc, newton);
            Arc::new(TensorViscousOp::new(Arc::new(data)))
        }
        OperatorKind::TensorC => {
            assert!(newton.is_none(), "TensorC stores the Picard coefficient");
            let data = make_op_data(base, mesh, eta_qp, bc, None);
            Arc::new(TensorCViscousOp::new(Arc::new(data)))
        }
        OperatorKind::TensorBatched => {
            let data = make_op_data(base, mesh, eta_qp, bc, newton);
            Arc::new(BatchedViscousOp::new(Arc::new(data)))
        }
    }
}

/// How the effective viscosity reaches the quadrature points of every
/// multigrid level.
pub enum ViscositySpec<'a> {
    /// Corner field on the finest mesh (output of the material-point
    /// projection); coarser levels inherit it by the configured
    /// restriction, and quadrature values interpolate the corner field.
    Corner(&'a [f64]),
    /// Analytic η(x) evaluated *directly* at the physical coordinates of
    /// each quadrature point on every level. Keeps mesh-aligned viscosity
    /// discontinuities sharp (corner interpolation would smear a jump over
    /// the interface-adjacent elements and destroy the discretization
    /// order) — the SolCx verification path.
    Analytic(&'a dyn Fn([f64; 3]) -> f64),
}

/// Evaluate an analytic viscosity at every quadrature point of a mesh.
fn analytic_eta_qp(
    mesh: &ptatin_mesh::StructuredMesh,
    tables: &Q2QuadTables,
    eta: &dyn Fn([f64; 3]) -> f64,
) -> Vec<f64> {
    let nqp = tables.nqp();
    let mut out = vec![0.0; mesh.num_elements() * nqp];
    for e in 0..mesh.num_elements() {
        let corners = mesh.element_corner_coords(e);
        for q in 0..nqp {
            let x = ptatin_fem::geometry::map_to_physical(&corners, tables.quad.points[q]);
            out[e * nqp + q] = eta(x);
        }
    }
    out
}

/// Value-independent setup state reused across solver rebuilds on one
/// (hierarchy, boundary-condition) pair — the symbolic half of the
/// symbolic/numeric assembly split (DESIGN.md §13).
///
/// A Picard/Newton iteration changes only the coefficient field, so the
/// viscous sparsity patterns, the geometry-only gradient block, the
/// filtered transfers (and their transposes, the structural half of RAP)
/// and the gathered matrix-free element tables all survive re-linearization
/// untouched. Everything value-dependent — numeric assembly, RAP products,
/// λmax estimates, the AMG hierarchy (its smoothed prolongator depends on
/// the operator values, so it is *not* reusable; see DESIGN.md §13) and
/// coarse factorizations — is recomputed from bitwise-identical inputs,
/// so a cached rebuild is bitwise identical to a fresh one.
///
/// The cache self-invalidates when the hierarchy shape or Dirichlet sets
/// change (remeshing), keyed by per-level element counts and bc sizes.
#[derive(Default)]
pub struct SetupCache {
    fingerprint: Option<Vec<(usize, usize)>>,
    tables: Option<Q2QuadTables>,
    /// Per-level Dirichlet masks over velocity dofs.
    masks: Option<Vec<Vec<bool>>>,
    /// Filtered blocked transfers (coarse → fine edges).
    transfers: Option<Vec<Csr>>,
    /// Cached transposes of the transfers (the reusable half of RAP).
    transfer_t: Vec<Option<Csr>>,
    /// Lane-packed SIMD pack of the transfers (pure function of them).
    batched_transfers: Option<Arc<Vec<BatchedTransfer>>>,
    /// Per-level viscous sparsity patterns (levels that get assembled).
    patterns: Vec<Option<ViscousPattern>>,
    /// Per-level assembled-value buffers (reused allocations).
    values: Vec<Vec<f64>>,
    /// Lane scratch of the batched numeric phase, shared across levels.
    lane_scratch: Vec<F64x4>,
    /// Geometry-only gradient block `J_pu` and its bc-masked twin.
    b_full: Option<Csr>,
    b_masked: Option<Csr>,
    /// Gathered fine-level element tables for the matrix-free operators.
    fine_base: Option<ViscousOpData>,
    /// Memoized λmax estimates per smoothed level, keyed on the exact
    /// inputs that determine them (see [`LambdaMemo`]).
    lambda_memo: Vec<Option<LambdaMemo>>,
    /// Memoized fused-plan profitability per smoothed level. The verdict
    /// is a pure function of the sparsity pattern and smoothing depth, so
    /// a `false` lets the next build skip the plan construction.
    plan_memo: Vec<Option<PlanMemo>>,
}

/// A memoized λmax power-iteration result. The estimate is a deterministic
/// function of the level operator, which is itself a deterministic function
/// of (mesh, η, bc, operator kind) — the mesh and bc are covered by the
/// cache fingerprint, so reuse is gated on bit-identical η plus the
/// operator/estimator knobs. A hit returns exactly what a re-run would
/// produce, preserving the fresh-equals-cached bitwise contract; a Picard
/// → Newton rebuild on a frozen viscosity hits, an updated viscosity
/// misses and re-estimates.
struct LambdaMemo {
    eta_bits: Vec<u64>,
    kind: OperatorKind,
    est_iters: usize,
    targets: (f64, f64),
    galerkin: (bool, bool),
    bounds: (f64, f64),
}

/// Memoized fused-plan state of one level at a given smoothing depth.
/// The profitability verdict (plan present vs absent) is a pure function
/// of the sparsity pattern and the depth, so an absent plan lets the next
/// build skip the tile analysis outright, whatever the viscosity. The
/// plan *objects* additionally snapshot matrix values and the gathered
/// inverse diagonal — both pure functions of (mesh, η, bc) — so they are
/// handed back verbatim only when the level viscosity is bit-identical
/// (`eta_bits`), which reproduces exactly what a rebuild would construct.
/// `reordered` is `None` until a build ran with SFC reorder on.
struct PlanMemo {
    depth: usize,
    eta_bits: Vec<u64>,
    natural: Option<Arc<FusedPlan>>,
    reordered: Option<Option<Arc<FusedPlan>>>,
}

fn eta_bits_equal(bits: &[u64], eta: &[f64]) -> bool {
    bits.len() == eta.len() && bits.iter().zip(eta).all(|(&b, v)| b == v.to_bits())
}

impl SetupCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset when the mesh hierarchy or Dirichlet sets changed; size the
    /// per-level slots.
    fn validate(&mut self, hier: &MeshHierarchy, bcs: &[DirichletBc]) {
        let fp: Vec<(usize, usize)> = hier
            .meshes
            .iter()
            .zip(bcs)
            .map(|(m, bc)| (m.num_elements(), bc.dofs.len()))
            .collect();
        if self.fingerprint.as_ref() != Some(&fp) {
            *self = Self::default();
            self.fingerprint = Some(fp);
        }
        let levels = hier.num_levels();
        self.patterns.resize_with(levels, || None);
        self.values.resize_with(levels, Vec::new);
        self.transfer_t
            .resize_with(levels.saturating_sub(1), || None);
        self.lambda_memo.resize_with(levels, || None);
        self.plan_memo.resize_with(levels, || None);
    }
}

/// Assemble (or numerically re-assemble) the bc-eliminated viscous matrix
/// of level `l` through its cached sparsity pattern. Bitwise identical to
/// `ptatin_ops::assembled_viscous_op` — same pattern, same batched numeric
/// phase, same elimination — with the symbolic phase and the value/scratch
/// allocations amortized across rebuilds.
fn assemble_level(
    cache: &mut SetupCache,
    hier: &MeshHierarchy,
    tables: &Q2QuadTables,
    eta_qp: &[Vec<f64>],
    bcs: &[DirichletBc],
    l: usize,
) -> Csr {
    let _s = prof::scope("setup/assembly");
    let mesh = &hier.meshes[l];
    let pat = cache.patterns[l].get_or_insert_with(|| ViscousPattern::build(mesh));
    // Grow-once value buffer, reused across re-assemblies.
    let values = &mut cache.values[l];
    values.resize(pat.nnz(), 0.0);
    viscous_numeric_batched_into(
        pat,
        mesh,
        tables,
        &eta_qp[l],
        runtime_simd_path(),
        &mut cache.lane_scratch,
        values,
    );
    let mut a = pat.to_csr(values.clone());
    if !bcs[l].is_empty() {
        a.zero_rows_cols_set_identity(&bcs[l].dofs);
    }
    a
}

/// Gathered matrix-free element data, reusing the cached structural tables
/// when available (and snapshotting them on first build).
fn make_op_data(
    base: &mut Option<ViscousOpData>,
    mesh: &ptatin_mesh::StructuredMesh,
    eta_qp: Vec<f64>,
    bc: &DirichletBc,
    newton: Option<ptatin_ops::NewtonData>,
) -> ViscousOpData {
    let mut data = match base {
        Some(b) => b.with_new_eta(eta_qp),
        None => {
            let d = ViscousOpData::new(mesh, eta_qp, bc);
            *base = Some(d.clone());
            d
        }
    };
    if let Some(nd) = newton {
        data = data.with_newton(nd);
    }
    data
}

/// Build the full Stokes solver for one linearization state.
///
/// * `hier` — mesh hierarchy (coarse → fine),
/// * `eta_corner_fine` — effective viscosity on the finest corner mesh
///   (output of the material-point projection); coarser levels inherit it
///   by injection,
/// * `bcs` — velocity Dirichlet sets per level (coarse → fine),
/// * `newton` — optional Newton coefficient for the Krylov action.
pub fn build_stokes_solver(
    hier: &MeshHierarchy,
    eta_corner_fine: &[f64],
    bcs: &[DirichletBc],
    cfg: &GmgConfig,
    newton: Option<ptatin_ops::NewtonData>,
) -> StokesSolver {
    build_stokes_solver_spec(
        hier,
        ViscositySpec::Corner(eta_corner_fine),
        bcs,
        cfg,
        newton,
    )
}

/// [`build_stokes_solver`] with a [`SetupCache`] carried across
/// re-linearizations of the same hierarchy.
pub fn build_stokes_solver_cached(
    hier: &MeshHierarchy,
    eta_corner_fine: &[f64],
    bcs: &[DirichletBc],
    cfg: &GmgConfig,
    newton: Option<ptatin_ops::NewtonData>,
    cache: &mut SetupCache,
) -> StokesSolver {
    build_stokes_solver_spec_cached(
        hier,
        ViscositySpec::Corner(eta_corner_fine),
        bcs,
        cfg,
        newton,
        cache,
    )
}

/// [`build_stokes_solver`] generalized over the viscosity representation
/// (corner field vs analytic per-quadrature-point evaluation).
pub fn build_stokes_solver_spec(
    hier: &MeshHierarchy,
    viscosity: ViscositySpec,
    bcs: &[DirichletBc],
    cfg: &GmgConfig,
    newton: Option<ptatin_ops::NewtonData>,
) -> StokesSolver {
    // A fresh (empty) cache makes this identical to the cached path — the
    // fresh-equals-reuse contract holds by construction.
    build_stokes_solver_spec_cached(hier, viscosity, bcs, cfg, newton, &mut SetupCache::new())
}

/// [`build_stokes_solver_spec`] with pattern/structure reuse across
/// rebuilds: the symbolic phase runs once per (hierarchy, bc) pair, and
/// subsequent builds only re-run the value-dependent numeric work.
pub fn build_stokes_solver_spec_cached(
    hier: &MeshHierarchy,
    viscosity: ViscositySpec,
    bcs: &[DirichletBc],
    cfg: &GmgConfig,
    newton: Option<ptatin_ops::NewtonData>,
    cache: &mut SetupCache,
) -> StokesSolver {
    let _ev = prof::scope("StokesSetup");
    let t_setup = std::time::Instant::now();
    let levels = cfg.levels;
    assert_eq!(hier.num_levels(), levels);
    assert_eq!(bcs.len(), levels);
    cache.validate(hier, bcs);
    let tables = cache
        .tables
        .get_or_insert_with(Q2QuadTables::standard)
        .clone();
    let fine_mesh = hier.finest();

    // Coefficient fields per level.
    let _coeff_scope = prof::scope("setup/coeff");
    let eta_qp: Vec<Vec<f64>> = match viscosity {
        ViscositySpec::Corner(eta_corner_fine) => {
            // Fine → coarse restriction of the corner field, then
            // interpolation to quadrature points.
            let mut eta_corner: Vec<Vec<f64>> = vec![Vec::new(); levels];
            eta_corner[levels - 1] = eta_corner_fine.to_vec();
            for l in (0..levels - 1).rev() {
                eta_corner[l] = match cfg.coefficient_restriction {
                    CoefficientRestriction::Injection => {
                        ptatin_mpm::projection::coarsen_corner_field(
                            &hier.meshes[l + 1],
                            &hier.meshes[l],
                            &eta_corner[l + 1],
                        )
                    }
                    CoefficientRestriction::FullWeighting => restrict_corner_field(
                        &hier.meshes[l + 1],
                        &hier.meshes[l],
                        &eta_corner[l + 1],
                        cfg.geometric_averaging,
                    ),
                };
            }
            (0..levels)
                .map(|l| {
                    if cfg.geometric_averaging {
                        corners_to_quadrature_log(&hier.meshes[l], &tables, &eta_corner[l])
                    } else {
                        ptatin_mpm::projection::corners_to_quadrature(
                            &hier.meshes[l],
                            &tables,
                            &eta_corner[l],
                        )
                    }
                })
                .collect()
        }
        ViscositySpec::Analytic(eta) => (0..levels)
            .map(|l| analytic_eta_qp(&hier.meshes[l], &tables, eta))
            .collect(),
    };
    drop(_coeff_scope);

    // Masks and filtered blocked transfers: value-independent, built once
    // per hierarchy and cloned out of the cache on rebuilds (the multigrid
    // takes ownership of its transfer chain).
    let _tr_scope = prof::scope("setup/transfer");
    let masks: Vec<Vec<bool>> = cache
        .masks
        .get_or_insert_with(|| {
            (0..levels)
                .map(|l| bcs[l].mask(num_velocity_dofs(&hier.meshes[l])))
                .collect()
        })
        .clone();
    let transfers: Vec<Csr> = cache
        .transfers
        .get_or_insert_with(|| {
            let mut ts = Vec::with_capacity(levels - 1);
            for l in 0..levels - 1 {
                let mut p = expand_blocked(
                    &prolongation_scalar(&hier.meshes[l], &hier.meshes[l + 1]),
                    3,
                );
                filter_transfer(&mut p, &masks[l + 1], &masks[l]);
                ts.push(p);
            }
            ts
        })
        .clone();
    drop(_tr_scope);

    // Level operators. Intermediate levels are assembled (rediscretized or
    // Galerkin) through their cached patterns; the coarsest matrix feeds
    // the coarse solver. The finest level applies `cfg.fine_kind`: its
    // matrix is assembled only when that kind is `Assembled` or as the
    // input of a Galerkin product onto the level below, and in the latter
    // case it is dropped as soon as the product exists (DESIGN.md §16).
    let fine = levels - 1;
    let keep_fine_csr = cfg.fine_kind == OperatorKind::Assembled;
    let mut assembled: Vec<Option<Csr>> = vec![None; levels];
    if cfg.galerkin_intermediate {
        assert!(
            keep_fine_csr,
            "Galerkin intermediate levels require an assembled fine level"
        );
        assembled[fine] = Some(assemble_level(cache, hier, &tables, &eta_qp, bcs, fine));
        for l in (0..fine).rev() {
            let _s = prof::scope("setup/rap");
            let pt = cache.transfer_t[l].get_or_insert_with(|| transfers[l].transpose());
            // PANIC-OK: the finest level was assembled just above and
            // the loop runs top-down, so level l+1 is always filled.
            let above = assembled[l + 1].as_ref().unwrap();
            assembled[l] = Some(galerkin_coarse_with_pt(above, &transfers[l], pt, &masks[l]));
        }
    } else {
        for l in 1..fine {
            assembled[l] = Some(assemble_level(cache, hier, &tables, &eta_qp, bcs, l));
        }
        assembled[0] = Some(if cfg.galerkin_coarsest && levels >= 2 {
            // Level 1 is a rediscretized intermediate, or for a 2-level
            // hierarchy the fine level, assembled here as the RAP input.
            let above = match assembled[1].take() {
                Some(a) => a,
                None => assemble_level(cache, hier, &tables, &eta_qp, bcs, 1),
            };
            let _s = prof::scope("setup/rap");
            let pt = cache.transfer_t[0].get_or_insert_with(|| transfers[0].transpose());
            let ac = galerkin_coarse_with_pt(&above, &transfers[0], pt, &masks[0]);
            // An intermediate stays for smoothing; the fine matrix only
            // when it is the fine level's operator.
            if fine > 1 || keep_fine_csr {
                assembled[1] = Some(above);
            }
            ac
        } else {
            assemble_level(cache, hier, &tables, &eta_qp, bcs, 0)
        });
    }

    // Coarse solver from the coarsest assembled matrix.
    // PANIC-OK: every branch above assigns assembled[0].
    let a0 = assembled[0].take().expect("coarsest matrix built");
    let coarse_t0 = std::time::Instant::now();
    let _coarse_scope = prof::scope("setup/coarse");
    let coarse = match &cfg.coarse {
        CoarseKind::Direct => {
            let order = nested_dissection_order(&hier.meshes[0], 3);
            GmgCoarseSolver::Direct(SparseCholesky::new(&a0, &order))
        }
        CoarseKind::BlockJacobiLu { subdomains } => {
            let part = ElementPartition::auto(&hier.meshes[0], *subdomains);
            let sets = nodes_to_dofs(&part.owned_nodes(&hier.meshes[0]), 3);
            GmgCoarseSolver::BlockJacobiLu(AdditiveSchwarz::new(&a0, sets, SubdomainSolve::Lu))
        }
        CoarseKind::InexactCgAsm {
            subdomains,
            overlap,
            rtol,
            max_it,
        } => {
            let part = ElementPartition::auto(&hier.meshes[0], *subdomains);
            let sets: Vec<Vec<usize>> = nodes_to_dofs(&part.owned_nodes(&hier.meshes[0]), 3)
                .into_iter()
                .map(|s| grow_overlap(&a0, &s, *overlap))
                .collect();
            let pc = AdditiveSchwarz::new(&a0, sets, SubdomainSolve::Ilu0);
            GmgCoarseSolver::InexactCgAsm {
                a: a0,
                pc,
                rtol: *rtol,
                max_it: *max_it,
            }
        }
        CoarseKind::Amg { coarse_blocks } => {
            // The SA-AMG hierarchy is rebuilt every time: its strength
            // graph and smoothed prolongator depend on the operator
            // *values*, so no part of it survives a coefficient update
            // (the measured negative result of DESIGN.md §13).
            let _s = prof::scope("setup/amg");
            let nullspace = rigid_body_modes(&hier.meshes[0].coords, &masks[0]);
            let amg_cfg = AmgConfig {
                block_size: 3,
                max_coarse_size: 600,
                coarse_solver: ptatin_mg::amg::CoarseSolverKind::BlockJacobiLu {
                    blocks: *coarse_blocks,
                },
                ..AmgConfig::default()
            };
            let amg = build_sa_amg(a0.clone(), &nullspace, &amg_cfg);
            GmgCoarseSolver::AmgPcg {
                a: a0,
                hierarchy: amg,
                rtol: 1e-2,
                max_it: 10,
            }
        }
    };
    drop(_coarse_scope);
    let coarse_setup_seconds = coarse_t0.elapsed().as_secs_f64();

    // Smoothed levels: intermediates assembled, the finest the configured
    // kind (matrix-free unless `fine_kind = Assembled`).
    let mut level_ops: Vec<Arc<TimedOperator<ArcOp>>> = Vec::new();
    let mut gmg_levels: Vec<GmgLevel> = Vec::new();
    let plan_depth = cfg.pre_smooth.max(cfg.post_smooth).max(1);
    let mut assembled_smoothed = vec![false; levels];
    for l in 1..levels {
        // An assembled level keeps its `Arc<Csr>` beside the timing
        // wrapper: the fused cache-blocked smoother reads matrix rows,
        // which the `dyn LinearOperator` interface cannot provide. A
        // matrix-free finest level has no rows and smooths with plain
        // sweeps through its operator.
        let (op, csr): (ArcOp, Option<Arc<Csr>>) = if l == fine && !keep_fine_csr {
            let op = build_arc_operator(
                cfg.fine_kind,
                fine_mesh,
                &tables,
                eta_qp[l].clone(),
                &bcs[l],
                None,
                &mut cache.fine_base,
            );
            (op, None)
        } else {
            let a = match assembled[l].take() {
                Some(a) => a,
                None => assemble_level(cache, hier, &tables, &eta_qp, bcs, l),
            };
            let a = Arc::new(a);
            (a.clone() as ArcOp, Some(a))
        };
        let timed = Arc::new(TimedOperator::new(op));
        // λmax power iteration: value-dependent, so it re-runs whenever
        // the level's coefficient field changed. When η is bit-identical
        // to the previous build and the operator/estimator knobs match,
        // the estimate is a pure function of unchanged inputs — the
        // memoized bounds are exactly what a re-run would produce, so
        // reuse preserves the fresh-equals-cached bitwise contract.
        let _s = prof::scope("setup/lambda");
        let kind = if l == levels - 1 {
            cfg.fine_kind
        } else {
            OperatorKind::Assembled
        };
        let galerkin = (cfg.galerkin_intermediate, cfg.galerkin_coarsest);
        let memo = cache.lambda_memo[l].take().filter(|m| {
            m.kind == kind
                && m.est_iters == cfg.cheb_est_iters
                && m.targets == cfg.cheb_targets
                && m.galerkin == galerkin
                && eta_bits_equal(&m.eta_bits, &eta_qp[l])
        });
        let smoother = match &memo {
            Some(m) => {
                // Mirror `with_target_fractions` exactly: same diagonal
                // map, memoized bounds in place of the power iteration.
                let diag = timed
                    .diagonal()
                    // PANIC-OK: same construction-time contract as the
                    // estimating constructor below.
                    .expect("Chebyshev smoother requires an operator diagonal");
                let inv_diag = diag
                    .iter()
                    .map(|&d| if d != 0.0 { 1.0 / d } else { 1.0 })
                    .collect();
                Chebyshev::with_bounds(inv_diag, m.bounds.0, m.bounds.1, cfg.pre_smooth)
            }
            None => Chebyshev::with_target_fractions(
                timed.as_ref(),
                cfg.pre_smooth,
                cfg.cheb_est_iters,
                cfg.cheb_targets.0,
                cfg.cheb_targets.1,
            ),
        };
        cache.lambda_memo[l] = Some(memo.unwrap_or_else(|| LambdaMemo {
            eta_bits: eta_qp[l].iter().map(|v| v.to_bits()).collect(),
            kind,
            est_iters: cfg.cheb_est_iters,
            targets: cfg.cheb_targets,
            galerkin,
            bounds: smoother.lambda_bounds(),
        }));
        drop(_s);
        level_ops.push(timed.clone());
        gmg_levels.push(match csr {
            Some(a) => {
                let memo = cache.plan_memo[l]
                    .as_ref()
                    .filter(|p| p.depth == plan_depth);
                let eta_same = memo.is_some_and(|p| eta_bits_equal(&p.eta_bits, &eta_qp[l]));
                let mut lvl = GmgLevel::with_assembled(timed as ArcOp, a, smoother)
                    .with_fused_hints(
                        memo.map(|p| p.natural.is_some()),
                        memo.and_then(|p| p.reordered.as_ref().map(Option::is_some)),
                    );
                if cfg.sfc_reorder {
                    let (nperm, _) = morton_node_permutation(&hier.meshes[l]);
                    lvl = lvl.with_sfc_reorder(expand_permutation(&nperm, 3));
                }
                if eta_same {
                    // PANIC-OK: eta_same implies memo.is_some().
                    let p = memo.expect("memo present when eta matches");
                    lvl = lvl.with_fused_plans(p.natural.clone(), p.reordered.clone().flatten());
                }
                assembled_smoothed[l] = true;
                lvl
            }
            None => GmgLevel::new(timed as ArcOp, smoother),
        });
    }
    // Fused-plan construction (tile analysis + halo gathers) happens in
    // `GeometricMg::new`; keep it visible in the setup breakdown.
    let _plan_scope = prof::scope("setup/plan");
    let batched_transfers = cache
        .batched_transfers
        .get_or_insert_with(|| Arc::new(transfers.iter().map(BatchedTransfer::from_csr).collect()))
        .clone();
    let mg = GeometricMg::new_with_batched_transfers(
        gmg_levels,
        transfers,
        batched_transfers,
        coarse,
        cfg.pre_smooth,
        cfg.post_smooth,
    )
    .with_cycle(cfg.cycle);
    // Record the plans (shared handles) and profitability verdicts so the
    // next rebuild can either skip constructing plans that would only be
    // thrown away or, on a bit-identical viscosity, reuse them verbatim.
    for (i, lvl) in mg.levels.iter().enumerate() {
        let l = i + 1;
        if assembled_smoothed[l] {
            cache.plan_memo[l] = Some(PlanMemo {
                depth: plan_depth,
                eta_bits: eta_qp[l].iter().map(|v| v.to_bits()).collect(),
                natural: lvl.fused_plan_arc(),
                reordered: lvl.reorder_ref().map(|ro| ro.plan.clone()),
            });
        }
    }
    drop(_plan_scope);
    // PANIC-OK: MeshHierarchy::build asserts levels >= 2.
    let a_fine = mg.levels.last().expect("at least two levels").op.clone();

    // Newton action (matrix-free only). When η′ ≡ 0 the Newton action
    // equals the Picard operator exactly; reuse it (solve() falls back
    // to `a_fine`) instead of building a second matrix-free operator
    // whose apply may differ in round-off.
    let a_newton = newton.filter(|nd| nd.eta_prime.iter().any(|&e| e != 0.0));
    let a_newton = a_newton.map(|nd| {
        build_arc_operator(
            match cfg.fine_kind {
                OperatorKind::Assembled | OperatorKind::TensorC => OperatorKind::Tensor,
                k => k,
            },
            fine_mesh,
            &tables,
            eta_qp[levels - 1].clone(),
            &bcs[levels - 1],
            Some(nd),
            &mut cache.fine_base,
        )
    });

    // Coupling blocks and Schur preconditioner on the fine level. The
    // gradient block is geometry-only, so both it and its bc-masked twin
    // are cached verbatim across rebuilds; the (1/η)-weighted pressure
    // mass blocks are value-dependent and recomputed (batched).
    let _s = prof::scope("setup/assembly");
    let path = runtime_simd_path();
    let b_full = cache
        .b_full
        .get_or_insert_with(|| assemble_gradient_batched(fine_mesh, &tables, path))
        .clone();
    let b_masked = cache
        .b_masked
        .get_or_insert_with(|| {
            let mut b = b_full.clone();
            b.zero_cols(&bcs[levels - 1].dofs);
            b
        })
        .clone();
    let inv_eta: Vec<f64> = eta_qp[levels - 1].iter().map(|&e| 1.0 / e).collect();
    let schur = pressure_mass_blocks_batched(fine_mesh, &tables, &inv_eta, path);
    drop(_s);

    StokesSolver {
        nu: num_velocity_dofs(fine_mesh),
        np: num_pressure_dofs(fine_mesh),
        mg,
        a_fine,
        a_newton,
        b_masked,
        b_full,
        schur,
        timers: GmgTimers {
            level_ops,
            setup_seconds: t_setup.elapsed().as_secs_f64(),
            coarse_setup_seconds,
        },
        bc: bcs[levels - 1].clone(),
    }
}

// ---------------------------------------------------------------------------
// Full-space operator and field-split preconditioner.
// ---------------------------------------------------------------------------

/// The coupled operator of Eq. (14): `[[J_uu, J_up], [J_pu, 0]]` acting on
/// interleaved `[u; p]` vectors (velocity first).
pub struct StokesOperator<'s> {
    pub a: &'s dyn LinearOperator,
    pub b: &'s Csr,
    pub nu: usize,
    pub np: usize,
}

impl LinearOperator for StokesOperator<'_> {
    fn nrows(&self) -> usize {
        self.nu + self.np
    }
    fn ncols(&self) -> usize {
        self.nu + self.np
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let (xu, xp) = x.split_at(self.nu);
        let (yu, yp) = y.split_at_mut(self.nu);
        // yu = A xu + Bᵀ xp
        self.a.apply(xu, yu);
        let mut bt = vec![0.0; self.nu];
        self.b.spmv_transpose(xp, &mut bt);
        vec_ops::axpy(1.0, &bt, yu);
        // yp = B xu
        self.b.spmv(xu, yp);
    }
}

/// Block lower-triangular preconditioner (Eq. (17)):
/// `z_u = Â⁻¹ r_u` (one V-cycle of the velocity preconditioner `M`),
/// `z_p = Ŝ⁻¹ (r_p − J_pu z_u)` with `Ŝ = −M_p(1/η)` applied exactly per
/// element block. Generic over the velocity preconditioner so GMG and the
/// purely algebraic variants of Table IV are interchangeable.
pub struct BlockLowerTriangularPc<'s, M: Preconditioner + ?Sized = GeometricMg> {
    pub mg: &'s M,
    pub b: &'s Csr,
    pub schur: &'s PressureMassBlocks,
    pub nu: usize,
    pub np: usize,
}

impl<M: Preconditioner + ?Sized> Preconditioner for BlockLowerTriangularPc<'_, M> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let (ru, rp) = r.split_at(self.nu);
        let (zu, zp) = z.split_at_mut(self.nu);
        self.mg.apply(ru, zu);
        // t = r_p − B z_u
        let mut t = vec![0.0; self.np];
        self.b.spmv(zu, &mut t);
        vec_ops::axpby(1.0, rp, -1.0, &mut t);
        // z_p = Ŝ⁻¹ t = −M⁻¹ t.
        self.schur.apply_inverse(&t, zp);
        for v in zp.iter_mut() {
            *v = -*v;
        }
    }
}

/// Which linearized operator drives the Krylov iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KrylovOperatorChoice {
    /// Picard everywhere.
    Picard,
    /// Newton action in the Krylov operator, Picard in the preconditioner
    /// (§III-A).
    NewtonKrylovPicardPc,
}

impl StokesSolver {
    /// Solve `J [du; dp] = [rhs_u; rhs_p]` with full-space GCR and the
    /// block-triangular preconditioner. `x` holds `[du; dp]` on exit.
    pub fn solve(
        &self,
        rhs: &[f64],
        x: &mut [f64],
        cfg: &KrylovConfig,
        choice: KrylovOperatorChoice,
        monitor: Monitor,
    ) -> SolveStats {
        let a: &dyn LinearOperator = match choice {
            KrylovOperatorChoice::Picard => &self.a_fine,
            KrylovOperatorChoice::NewtonKrylovPicardPc => self
                .a_newton
                .as_ref()
                .map(|a| a as &dyn LinearOperator)
                .unwrap_or(&self.a_fine),
        };
        let op = StokesOperator {
            a,
            b: &self.b_masked,
            nu: self.nu,
            np: self.np,
        };
        let pc = BlockLowerTriangularPc {
            mg: &self.mg,
            b: &self.b_masked,
            schur: &self.schur,
            nu: self.nu,
            np: self.np,
        };
        let _ev = prof::scope("StokesSolve");
        // Label the outer solve so the profiler records its KSP history
        // (inner coarse-level solves stay unlabelled and unrecorded).
        let cfg = match cfg.label {
            Some(_) => cfg.clone(),
            None => cfg.clone().with_label("Stokes"),
        };
        gcr_monitored(&op, &pc, rhs, x, &cfg, monitor)
    }

    /// Schur-complement reduction (§III-B, §IV-A): accurate inner solves
    /// with `J_uu` expose a normal, definite pressure problem at the cost
    /// of one inner solve per outer iteration. More robust to extreme
    /// contrasts, usually more expensive.
    pub fn solve_scr(
        &self,
        rhs: &[f64],
        x: &mut [f64],
        outer: &KrylovConfig,
        inner_rtol: f64,
    ) -> (SolveStats, u64) {
        let _ev = prof::scope("StokesSolveSCR");
        let (rhs_u, rhs_p) = rhs.split_at(self.nu);
        let inner_cfg = KrylovConfig::default()
            .with_rtol(inner_rtol)
            .with_max_it(500);
        let inner_counter = std::sync::atomic::AtomicU64::new(0);
        // g = rhs_p − B A⁻¹ rhs_u
        let mut au = vec![0.0; self.nu];
        let s1 = cg(&self.a_fine, &self.mg, rhs_u, &mut au, &inner_cfg);
        inner_counter.fetch_add(s1.iterations as u64, std::sync::atomic::Ordering::Relaxed);
        let mut g = vec![0.0; self.np];
        self.b_masked.spmv(&au, &mut g);
        vec_ops::axpby(1.0, rhs_p, -1.0, &mut g);
        // Schur operator: S p = −B A⁻¹ Bᵀ p (A⁻¹ = inner MG-CG solve).
        struct SchurOp<'s> {
            solver: &'s StokesSolver,
            inner_cfg: KrylovConfig,
            counter: &'s std::sync::atomic::AtomicU64,
        }
        impl LinearOperator for SchurOp<'_> {
            fn nrows(&self) -> usize {
                self.solver.np
            }
            fn ncols(&self) -> usize {
                self.solver.np
            }
            fn apply(&self, p: &[f64], y: &mut [f64]) {
                let nu = self.solver.nu;
                let mut btp = vec![0.0; nu];
                self.solver.b_masked.spmv_transpose(p, &mut btp);
                let mut ainv = vec![0.0; nu];
                let st = cg(
                    &self.solver.a_fine,
                    &self.solver.mg,
                    &btp,
                    &mut ainv,
                    &self.inner_cfg,
                );
                self.counter
                    .fetch_add(st.iterations as u64, std::sync::atomic::Ordering::Relaxed);
                self.solver.b_masked.spmv(&ainv, y);
                for v in y.iter_mut() {
                    *v = -*v;
                }
            }
        }
        struct SchurPcNeg<'s>(&'s PressureMassBlocks);
        impl Preconditioner for SchurPcNeg<'_> {
            fn apply(&self, r: &[f64], z: &mut [f64]) {
                self.0.apply_inverse(r, z);
                for v in z.iter_mut() {
                    *v = -*v;
                }
            }
        }
        let sop = SchurOp {
            solver: self,
            inner_cfg: inner_cfg.clone(),
            counter: &inner_counter,
        };
        let spc = SchurPcNeg(&self.schur);
        let (xu_slice, xp_slice) = x.split_at_mut(self.nu);
        let outer = match outer.label {
            Some(_) => outer.clone(),
            None => outer.clone().with_label("StokesSCR"),
        };
        let stats = fgmres(&sop, &spc, &g, xp_slice, &outer);
        // Back-substitute: u = A⁻¹ (rhs_u − Bᵀ p).
        let mut btp = vec![0.0; self.nu];
        self.b_masked.spmv_transpose(xp_slice, &mut btp);
        let mut rhs_u2 = rhs_u.to_vec();
        vec_ops::axpy(-1.0, &btp, &mut rhs_u2);
        xu_slice.fill(0.0);
        let s2 = cg(&self.a_fine, &self.mg, &rhs_u2, xu_slice, &inner_cfg);
        inner_counter.fetch_add(s2.iterations as u64, std::sync::atomic::Ordering::Relaxed);
        (
            stats,
            inner_counter.load(std::sync::atomic::Ordering::Relaxed),
        )
    }

    /// Evaluate the nonlinear residual
    /// `F_u = A(u) u + Bᵀ p − f_u` (zeroed on Dirichlet dofs),
    /// `F_p = B u`,
    /// with `a_unconstrained` the *unmasked* viscous action of the current
    /// linearization state.
    pub fn residual(
        &self,
        a_unconstrained: &dyn LinearOperator,
        u: &[f64],
        p: &[f64],
        f_u: &[f64],
        out: &mut [f64],
    ) {
        let (fu, fp) = out.split_at_mut(self.nu);
        a_unconstrained.apply(u, fu);
        let mut bt = vec![0.0; self.nu];
        self.b_full.spmv_transpose(p, &mut bt);
        for i in 0..self.nu {
            fu[i] += bt[i] - f_u[i];
        }
        self.bc.zero_constrained(fu);
        self.b_full.spmv(u, fp);
    }
}

/// Split a full-space vector into velocity and pressure views.
pub fn split_up(x: &[f64], nu: usize) -> (&[f64], &[f64]) {
    x.split_at(nu)
}

/// Solve a coupled Stokes system with an arbitrary velocity-block
/// preconditioner (the swap point for the Table IV comparisons: GMG-i/ii,
/// SA-i, SAML-i/ii all drive this same full-space GCR iteration).
#[allow(clippy::too_many_arguments)]
pub fn solve_stokes_with_pc<M: Preconditioner + ?Sized>(
    a: &dyn LinearOperator,
    b_masked: &Csr,
    schur: &PressureMassBlocks,
    velocity_pc: &M,
    rhs: &[f64],
    x: &mut [f64],
    cfg: &KrylovConfig,
    monitor: Monitor,
) -> SolveStats {
    let nu = a.nrows();
    let np = b_masked.nrows();
    let op = StokesOperator {
        a,
        b: b_masked,
        nu,
        np,
    };
    let pc = BlockLowerTriangularPc {
        mg: velocity_pc,
        b: b_masked,
        schur,
        nu,
        np,
    };
    let _ev = prof::scope("StokesSolve");
    let cfg = match cfg.label {
        Some(_) => cfg.clone(),
        None => cfg.clone().with_label("Stokes"),
    };
    gcr_monitored(&op, &pc, rhs, x, &cfg, monitor)
}
