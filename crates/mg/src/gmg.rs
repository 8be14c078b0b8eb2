//! Geometric multigrid over the nodally-nested mesh hierarchy (§III-C of
//! the paper): Chebyshev(Jacobi) smoothing on every level, trilinear
//! prolongation / transposed restriction, coarse operators either
//! rediscretized or Galerkin, and a pluggable coarsest-level solver (GAMG
//! V-cycle, block-Jacobi+LU, inexact Krylov+ASM, or sparse Cholesky).

use crate::amg::AmgHierarchy;
use ptatin_la::chebyshev::{Chebyshev, FusedPlan};
use ptatin_la::cholesky::SparseCholesky;
use ptatin_la::csr::Csr;
use ptatin_la::krylov::{cg, fgmres, KrylovConfig};
use ptatin_la::operator::{LinearOperator, Preconditioner};
use ptatin_la::schwarz::AdditiveSchwarz;
use ptatin_la::transfer::BatchedTransfer;
use ptatin_la::vec_ops;
use ptatin_prof as prof;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Per-level smoother event names (profiling scopes need `&'static str`);
/// levels deeper than the table share the last entry.
const MG_SMOOTH_NAMES: [&str; 9] = [
    "MGSmooth_L0",
    "MGSmooth_L1",
    "MGSmooth_L2",
    "MGSmooth_L3",
    "MGSmooth_L4",
    "MGSmooth_L5",
    "MGSmooth_L6",
    "MGSmooth_L7",
    "MGSmooth_L8+",
];

fn smooth_event(k: usize) -> &'static str {
    MG_SMOOTH_NAMES[k.min(MG_SMOOTH_NAMES.len() - 1)]
}

/// Coarsest-level solver of the geometric hierarchy.
pub enum GmgCoarseSolver {
    /// One V-cycle of smoothed-aggregation AMG (the paper's production
    /// configuration, §IV-A).
    Amg(AmgHierarchy),
    /// AMG-preconditioned CG capped at a loose tolerance / few iterations.
    /// At the paper's scale the coarsest geometric level is still large and
    /// a single GAMG V-cycle is adequate; at this reproduction's shrunken
    /// coarse grids a lone V-cycle is too inexact and would distort the
    /// comparisons, so a capped inner solve stands in (DESIGN.md §1).
    AmgPcg {
        a: Csr,
        hierarchy: AmgHierarchy,
        rtol: f64,
        max_it: usize,
    },
    /// Exact sparse Cholesky factor under a nested-dissection order of the
    /// coarsest mesh (`ptatin_mesh::nd`).
    Direct(SparseCholesky),
    /// One application of block-Jacobi with per-block LU.
    BlockJacobiLu(AdditiveSchwarz),
    /// Inexact CG preconditioned with (overlapping) additive Schwarz —
    /// the rifting configuration of §V (CG + ASM(ILU0, overlap 4), capped
    /// at 25 iterations or a 10⁻⁴ residual reduction).
    InexactCgAsm {
        a: Csr,
        pc: AdditiveSchwarz,
        rtol: f64,
        max_it: usize,
    },
    /// Inexact FGMRES with any preconditioner-owning closure is modelled by
    /// the AMG/ASM variants above; `SmootherOnly` falls back to Chebyshev
    /// smoothing of the coarsest level (diagnostics).
    SmootherOnly(Chebyshev, Box<dyn LinearOperator + Send + Sync>),
}

impl GmgCoarseSolver {
    fn solve(&self, b: &[f64], x: &mut [f64]) {
        match self {
            GmgCoarseSolver::Amg(h) => h.apply(b, x),
            GmgCoarseSolver::AmgPcg {
                a,
                hierarchy,
                rtol,
                max_it,
            } => {
                x.fill(0.0);
                let cfg = KrylovConfig::default()
                    .with_rtol(*rtol)
                    .with_max_it(*max_it);
                let _ = cg(a, hierarchy, b, x, &cfg);
            }
            GmgCoarseSolver::Direct(chol) => chol.apply(b, x),
            GmgCoarseSolver::BlockJacobiLu(pc) => pc.apply(b, x),
            GmgCoarseSolver::InexactCgAsm {
                a,
                pc,
                rtol,
                max_it,
            } => {
                x.fill(0.0);
                let cfg = KrylovConfig::default()
                    .with_rtol(*rtol)
                    .with_max_it(*max_it);
                let stats = cg(a, pc, b, x, &cfg);
                if !stats.converged && stats.iterations == 0 {
                    // CG broke down (e.g. semi-definite residual): retry
                    // with FGMRES for robustness.
                    x.fill(0.0);
                    let _ = fgmres(a, pc, b, x, &cfg.with_restart(*max_it));
                }
            }
            GmgCoarseSolver::SmootherOnly(cheb, a) => {
                x.fill(0.0);
                cheb.smooth(a.as_ref(), b, x);
            }
        }
    }
}

/// Multigrid cycle shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CycleType {
    /// One coarse-grid correction per level (the paper's production cycle).
    #[default]
    V,
    /// Two coarse-grid corrections per level — more robust per cycle at
    /// roughly twice the coarse-level work (ablation option).
    W,
}

/// Shared operator handle used across MG levels and the outer Krylov
/// operator.
pub type ArcOp = std::sync::Arc<dyn LinearOperator + Send + Sync>;

/// A smoothed level's matrix and smoother transplanted to an SFC-permuted
/// dof space (see `ptatin_mesh::sfc`). Smoothing gathers residual and
/// iterate into the permuted order, runs the (fused, if profitable)
/// Chebyshev sweeps against the permuted matrix, and scatters the iterate
/// back — everything outside the smoother (residuals, transfers, coarse
/// solves) stays in natural order. Opt-in: permuted sweeps change the
/// floating-point summation order, so the default bitwise contract only
/// holds with reordering off.
pub struct LevelReorder {
    /// Dof permutation, `perm[old] = new`.
    pub perm: Vec<u32>,
    /// The level matrix in permuted space, `P A Pᵀ`.
    pub a: Arc<Csr>,
    /// The level smoother with its diagonal gathered to permuted order.
    smoother: Chebyshev,
    /// Fused plan on the permuted matrix — kept only when profitable
    /// there; `None` falls back to the natural-order paths. Shared so a
    /// setup cache can hand a previously built plan straight back when
    /// the matrix values are bitwise unchanged.
    pub plan: Option<Arc<FusedPlan>>,
}

/// One smoothed level of the geometric hierarchy.
pub struct GmgLevel {
    pub op: ArcOp,
    pub smoother: Chebyshev,
    /// Assembled matrix handle when the level has one — enables the
    /// cache-blocked fused smoother ([`Chebyshev::apply_fused`]; the plan
    /// is built by [`GeometricMg::new`], which knows the smoothing depths).
    assembled: Option<Arc<Csr>>,
    fused: Option<Arc<FusedPlan>>,
    reorder: Option<LevelReorder>,
    /// Memoized profitability verdicts (natural, reordered) from an
    /// earlier build against the same matrix structure. The verdict is a
    /// pure function of the sparsity pattern and the smoothing depth, so
    /// a cached `Some(false)` lets [`GeometricMg::new`] skip the plan
    /// construction outright without changing any observable behavior.
    fused_hint: Option<bool>,
    reorder_hint: Option<bool>,
}

impl GmgLevel {
    /// Level backed by an arbitrary (possibly matrix-free) operator; the
    /// smoother runs unfused full-mesh sweeps.
    pub fn new(op: ArcOp, smoother: Chebyshev) -> Self {
        Self {
            op,
            smoother,
            assembled: None,
            fused: None,
            reorder: None,
            fused_hint: None,
            reorder_hint: None,
        }
    }

    /// Level backed by an assembled matrix — the operator applies through
    /// the matrix and smoothing is eligible for the fused path.
    pub fn from_csr(a: Arc<Csr>, smoother: Chebyshev) -> Self {
        Self {
            op: a.clone() as ArcOp,
            smoother,
            assembled: Some(a),
            fused: None,
            reorder: None,
            fused_hint: None,
            reorder_hint: None,
        }
    }

    /// Level where residual applies go through `op` (e.g. a timing
    /// wrapper) but an assembled matrix is also at hand for fused
    /// smoothing. The caller must guarantee `op` and `a` represent the
    /// same linear operator.
    pub fn with_assembled(op: ArcOp, a: Arc<Csr>, smoother: Chebyshev) -> Self {
        Self {
            op,
            smoother,
            assembled: Some(a),
            fused: None,
            reorder: None,
            fused_hint: None,
            reorder_hint: None,
        }
    }

    /// Attach an SFC dof reordering (builder style; requires an assembled
    /// matrix). The permuted matrix and smoother are built here; the fused
    /// plan on the permuted matrix is built by [`GeometricMg::new`], which
    /// knows the smoothing depth, and kept only where profitable.
    pub fn with_sfc_reorder(mut self, perm: Vec<u32>) -> Self {
        let a = self
            .assembled
            .as_ref()
            // PANIC-OK: construction-time contract — the solver only
            // attaches the reorder to levels built `with_assembled`.
            .expect("SFC reorder requires an assembled level matrix");
        assert_eq!(perm.len(), a.nrows());
        let a_perm = Arc::new(a.permute_symmetric(&perm));
        let smoother = self.smoother.permuted(&perm);
        self.reorder = Some(LevelReorder {
            perm,
            a: a_perm,
            smoother,
            plan: None,
        });
        self
    }

    /// Provide memoized fused-plan profitability verdicts (builder
    /// style). `Some(false)` skips the corresponding plan construction in
    /// [`GeometricMg::new`] — valid only when the verdict was computed
    /// against an identical sparsity pattern and smoothing depth; any
    /// other value leaves behavior unchanged.
    pub fn with_fused_hints(mut self, natural: Option<bool>, reordered: Option<bool>) -> Self {
        self.fused_hint = natural;
        self.reorder_hint = reordered;
        self
    }

    /// Install previously built fused plans outright (builder style),
    /// skipping plan construction in [`GeometricMg::new`]. Sound only when
    /// the plans were built against bitwise-identical matrix values (a
    /// plan snapshots tile values and the gathered inverse diagonal);
    /// callers key on bit-exact viscosity for exactly that reason. A
    /// reordered plan is dropped if no reordering is attached.
    pub fn with_fused_plans(
        mut self,
        natural: Option<Arc<FusedPlan>>,
        reordered: Option<Arc<FusedPlan>>,
    ) -> Self {
        if natural.is_some() {
            self.fused = natural;
        }
        if let (Some(ro), Some(plan)) = (self.reorder.as_mut(), reordered) {
            ro.plan = Some(plan);
        }
        self
    }

    /// The level's assembled matrix, if it has one (`None` for a
    /// matrix-free level).
    pub fn matrix(&self) -> Option<&Csr> {
        self.assembled.as_deref()
    }

    /// The fused plan of the natural-order matrix, if one was kept.
    pub fn fused_plan_ref(&self) -> Option<&FusedPlan> {
        self.fused.as_deref()
    }

    /// Shared handle to the natural-order fused plan, for memoization.
    pub fn fused_plan_arc(&self) -> Option<Arc<FusedPlan>> {
        self.fused.clone()
    }

    /// The SFC reordering attached to this level, if any.
    pub fn reorder_ref(&self) -> Option<&LevelReorder> {
        self.reorder.as_ref()
    }
}

/// A geometric multigrid V(m,n)-cycle usable as a [`Preconditioner`].
///
/// Levels are ordered coarse → fine: `levels[0]` is the coarsest *smoothed*
/// level... more precisely level `0` is handled by `coarse` and
/// `levels[k]` (k ≥ 1 in cycle terms) carry smoothers; `prolongations[k]`
/// maps level `k` to level `k+1` (blocked over the 3 velocity components
/// and filtered for Dirichlet dofs).
pub struct GeometricMg {
    /// Operators of the smoothed levels, coarse → fine (the coarsest
    /// solver level is *not* in this list).
    pub levels: Vec<GmgLevel>,
    /// `prolongations[0]` maps the coarsest (solver) level to
    /// `levels[0]`; `prolongations[k]` maps `levels[k-1]` to `levels[k]`.
    pub prolongations: Vec<Csr>,
    /// Lane-packed SIMD forms of `prolongations` (same indices/weights,
    /// repacked for 4-wide row batches; see `ptatin-la::transfer`).
    /// `Arc`-shared so a setup cache can hand the identical pack to every
    /// rebuild — the pack is a pure function of the prolongations.
    transfers: Arc<Vec<BatchedTransfer>>,
    pub coarse: GmgCoarseSolver,
    /// Pre-/post-smoothing iteration counts (V(m,n)).
    pub pre_smooth: usize,
    pub post_smooth: usize,
    /// V- or W-cycle recursion.
    pub cycle: CycleType,
    /// Force the pre-batching code path (scalar CSR transfers, unfused
    /// full-mesh smoothing). Benchmark baseline and equivalence-test hook.
    scalar_pipeline: bool,
    /// Accumulated coarse-solve time (ns) and application count.
    coarse_nanos: AtomicU64,
    coarse_calls: AtomicU64,
}

impl GeometricMg {
    pub fn new(
        levels: Vec<GmgLevel>,
        prolongations: Vec<Csr>,
        coarse: GmgCoarseSolver,
        pre_smooth: usize,
        post_smooth: usize,
    ) -> Self {
        let batched = Arc::new(
            prolongations
                .iter()
                .map(BatchedTransfer::from_csr)
                .collect(),
        );
        Self::new_with_batched_transfers(
            levels,
            prolongations,
            batched,
            coarse,
            pre_smooth,
            post_smooth,
        )
    }

    /// [`new`](Self::new) with the lane-packed transfers supplied by the
    /// caller (e.g. cloned out of a setup cache). The pack must be the
    /// one `BatchedTransfer::from_csr` would produce from `prolongations`
    /// — it is a pure function of them, so sharing one pack across
    /// rebuilds is bitwise-neutral.
    pub fn new_with_batched_transfers(
        mut levels: Vec<GmgLevel>,
        prolongations: Vec<Csr>,
        transfers: Arc<Vec<BatchedTransfer>>,
        coarse: GmgCoarseSolver,
        pre_smooth: usize,
        post_smooth: usize,
    ) -> Self {
        assert_eq!(prolongations.len(), levels.len());
        assert_eq!(transfers.len(), prolongations.len());
        // Plan depth covers the deeper of the two smoothing passes; a
        // shallower sweep reuses the same plan (validity only shrinks).
        // Keep a plan only where its halo redundancy makes fusing a win —
        // unprofitable levels (wide-stencil or tiny matrices) smooth
        // unfused instead.
        let depth = pre_smooth.max(post_smooth).max(1);
        for lvl in &mut levels {
            if let Some(a) = lvl.assembled.clone() {
                if lvl.fused.is_none() {
                    lvl.fused = match lvl.fused_hint {
                        // Known unprofitable for this structure and depth —
                        // an unused plan would be discarded; skip the build.
                        Some(false) => None,
                        _ => Some(Arc::new(lvl.smoother.fused_plan(&a, depth, 0)))
                            .filter(|p| p.profitable()),
                    };
                }
            }
            if let Some(ro) = &mut lvl.reorder {
                if ro.plan.is_none() {
                    ro.plan = match lvl.reorder_hint {
                        Some(false) => None,
                        _ => Some(Arc::new(ro.smoother.fused_plan(&ro.a, depth, 0)))
                            .filter(|p| p.profitable()),
                    };
                }
            }
        }
        Self {
            levels,
            prolongations,
            transfers,
            coarse,
            pre_smooth,
            post_smooth,
            cycle: CycleType::V,
            scalar_pipeline: false,
            coarse_nanos: AtomicU64::new(0),
            coarse_calls: AtomicU64::new(0),
        }
    }

    /// Switch to W-cycles (builder style).
    pub fn with_cycle(mut self, cycle: CycleType) -> Self {
        self.cycle = cycle;
        self
    }

    /// Disable the batched transfer / fused smoother paths (builder style).
    /// Used by benches to time the pre-batching pipeline and by the
    /// equivalence suite to compare both paths on one hierarchy.
    pub fn with_scalar_pipeline(mut self) -> Self {
        self.scalar_pipeline = true;
        self
    }

    fn smooth_level(&self, lvl: &GmgLevel, b: &[f64], x: &mut [f64], iters: usize) {
        if !self.scalar_pipeline {
            // SFC-permuted fused smoothing: gather into Z-order, sweep the
            // permuted matrix, scatter the iterate back (opt-in; see
            // `LevelReorder`).
            if let Some(ro) = &lvl.reorder {
                if let Some(plan) = &ro.plan {
                    let n = b.len();
                    // ALLOC-OK: opt-in reorder scatter; two O(n)
                    // buffers per smoothing phase, amortized over the
                    // smoother's spmv sweeps on the permuted matrix.
                    let mut bp = vec![0.0; n];
                    let mut xp = vec![0.0; n]; // ALLOC-OK: see `bp` above.
                    for (old, &new) in ro.perm.iter().enumerate() {
                        bp[new as usize] = b[old];
                        xp[new as usize] = x[old];
                    }
                    ro.smoother.apply_fused(&ro.a, plan, &bp, &mut xp, iters);
                    for (old, &new) in ro.perm.iter().enumerate() {
                        x[old] = xp[new as usize];
                    }
                    return;
                }
            }
            if let (Some(a), Some(plan)) = (&lvl.assembled, &lvl.fused) {
                lvl.smoother.apply_fused(a, plan, b, x, iters);
                return;
            }
        }
        lvl.smoother.smooth_with(lvl.op.as_ref(), b, x, iters);
    }

    /// Total wall time spent in the coarse solver so far (seconds).
    pub fn coarse_apply_seconds(&self) -> f64 {
        self.coarse_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    pub fn coarse_apply_count(&self) -> u64 {
        self.coarse_calls.load(Ordering::Relaxed)
    }

    /// Number of levels including the coarse-solver level.
    pub fn num_levels(&self) -> usize {
        self.levels.len() + 1
    }

    /// `k` counts smoothed levels top-down: `k == levels.len()` is the
    /// finest.
    fn vcycle(&self, k: usize, b: &[f64], x: &mut [f64]) {
        if k == 0 {
            let _ev = prof::scope("MGCoarseSolve");
            // DETERMINISM-OK: coarse-solve wall-clock feeds counters only
            // and never influences numeric results.
            let t0 = std::time::Instant::now();
            self.coarse.solve(b, x);
            self.coarse_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.coarse_calls.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let lvl = &self.levels[k - 1];
        let a = lvl.op.as_ref();
        {
            let _ev = prof::scope(smooth_event(k));
            self.smooth_level(lvl, b, x, self.pre_smooth);
        }
        // Residual: r = b - A x (axpby(1, b, -1, r) is bitwise-identical
        // to the elementwise subtraction and runs on the worker pool).
        let n = b.len();
        // ALLOC-OK: per-level cycle scratch (r, rc, xc, corr), once
        // per V-cycle visit and amortized over the smoothing work done
        // at this level.
        let mut r = vec![0.0; n];
        a.apply(x, &mut r);
        vec_ops::axpby(1.0, b, -1.0, &mut r);
        // Restrict through Pᵀ.
        let p = &self.prolongations[k - 1];
        let mut rc = vec![0.0; p.ncols()]; // ALLOC-OK: see `r` above.
        {
            let _ev = prof::scope("MGRestrict");
            if self.scalar_pipeline {
                p.spmv_transpose(&r, &mut rc);
            } else {
                self.transfers[k - 1].restrict(&r, &mut rc);
            }
        }
        // μ-cycle: recurse μ times on the *same* coarse problem with a
        // warm start (the textbook W-cycle; refreshing the fine residual
        // between visits instead is not contractive when intermediate
        // operators are rediscretized rather than Galerkin).
        // Level 0's direct/AMG coarse solvers overwrite their output and
        // ignore warm starts, so extra visits there are wasted work.
        let visits = match self.cycle {
            CycleType::V => 1,
            CycleType::W if k == 1 => 1,
            CycleType::W => 2,
        };
        let mut xc = vec![0.0; p.ncols()]; // ALLOC-OK: see `r` above.
        for _ in 0..visits {
            self.vcycle(k - 1, &rc, &mut xc);
        }
        // Prolong and correct.
        let mut corr = vec![0.0; n]; // ALLOC-OK: see `r` above.
        {
            let _ev = prof::scope("MGProlong");
            if self.scalar_pipeline {
                p.spmv(&xc, &mut corr);
            } else {
                self.transfers[k - 1].prolong(&xc, &mut corr);
            }
        }
        vec_ops::axpy(1.0, &corr, x);
        {
            let _ev = prof::scope(smooth_event(k));
            self.smooth_level(lvl, b, x, self.post_smooth);
        }
    }
}

impl Preconditioner for GeometricMg {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.fill(0.0);
        self.vcycle(self.levels.len(), r, z);
    }
}

/// Zero the rows of a grid-transfer operator at constrained fine dofs and
/// the columns at constrained coarse dofs, so restricted residuals and
/// prolongated corrections respect the homogeneous Dirichlet space.
pub fn filter_transfer(p: &mut Csr, fine_mask: &[bool], coarse_mask: &[bool]) {
    assert_eq!(fine_mask.len(), p.nrows());
    assert_eq!(coarse_mask.len(), p.ncols());
    for i in 0..p.nrows() {
        let kill_row = fine_mask[i];
        let (s, e) = (p.indptr[i], p.indptr[i + 1]);
        for k in s..e {
            if kill_row || coarse_mask[p.indices[k] as usize] {
                p.values[k] = 0.0;
            }
        }
    }
}

/// Galerkin coarse operator `Pᵀ A P` with unit diagonal restored on
/// constrained coarse dofs (their rows/cols were filtered to zero).
pub fn galerkin_coarse(a_fine: &Csr, p: &Csr, coarse_mask: &[bool]) -> Csr {
    galerkin_coarse_with_pt(a_fine, p, &p.transpose(), coarse_mask)
}

/// [`galerkin_coarse`] with a precomputed (cacheable) transpose of `p`.
/// Bitwise identical to the fresh path because `transpose()` is
/// deterministic in the transfer alone.
pub fn galerkin_coarse_with_pt(a_fine: &Csr, p: &Csr, pt: &Csr, coarse_mask: &[bool]) -> Csr {
    let mut ac = Csr::rap_with_pt(a_fine, p, pt);
    let bc_rows: Vec<usize> = coarse_mask
        .iter()
        .enumerate()
        .filter_map(|(i, &m)| m.then_some(i))
        .collect();
    // Rows are zero after filtering; make them identity.
    let eye = {
        let triplets: Vec<(usize, usize, f64)> = bc_rows.iter().map(|&i| (i, i, 1.0)).collect();
        Csr::from_triplets(ac.nrows(), ac.ncols(), &triplets)
    };
    ac = ac.add_scaled(&eye, 1.0);
    // In case RAP left residues in constrained rows/cols, hard-enforce.
    ac.zero_rows_cols_set_identity(&bc_rows);
    ac
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptatin_fem::assemble::{assemble_viscous, Q2QuadTables};
    use ptatin_fem::bc::DirichletBc;
    use ptatin_la::krylov::gcr;
    use ptatin_mesh::hierarchy::{expand_blocked, prolongation_scalar, MeshHierarchy};
    use ptatin_mesh::nd::nested_dissection_order;
    use ptatin_mesh::StructuredMesh;

    /// Build a 2- or 3-level GMG for the constrained viscous operator on a
    /// box mesh with all-face no-slip, Galerkin coarse operators.
    fn build_gmg(m: usize, levels: usize, pre: usize, post: usize) -> (Csr, GeometricMg, Vec<f64>) {
        let tables = Q2QuadTables::standard();
        let fine = StructuredMesh::new_box(m, m, m, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let hier = MeshHierarchy::new(fine, levels);
        // Assemble per level with BCs.
        let mut ops: Vec<Csr> = Vec::new();
        let mut masks: Vec<Vec<bool>> = Vec::new();
        for mesh in &hier.meshes {
            let eta = vec![1.0; mesh.num_elements() * tables.nqp()];
            let mut bc = DirichletBc::new();
            for ax in 0..3 {
                for mn in [true, false] {
                    for nn in mesh.boundary_nodes(ax, mn) {
                        for c in 0..3 {
                            bc.set(3 * nn + c, 0.0);
                        }
                    }
                }
            }
            let mut a = assemble_viscous(mesh, &tables, &eta);
            a.zero_rows_cols_set_identity(&bc.dofs);
            masks.push(bc.mask(a.nrows()));
            ops.push(a);
        }
        // Transfers.
        let mut ps = Vec::new();
        for l in 0..levels - 1 {
            let mut p = expand_blocked(
                &prolongation_scalar(&hier.meshes[l], &hier.meshes[l + 1]),
                3,
            );
            filter_transfer(&mut p, &masks[l + 1], &masks[l]);
            ps.push(p);
        }
        // Replace coarsest op by Galerkin from the level above (the paper's
        // robust choice) and solve it directly.
        let ac = galerkin_coarse(&ops[1], &ps[0], &masks[0]);
        let order = nested_dissection_order(&hier.meshes[0], 3);
        let coarse = GmgCoarseSolver::Direct(SparseCholesky::new(&ac, &order));
        let fine_a = ops.last().unwrap().clone();
        let mut lvls = Vec::new();
        for a in ops.into_iter().skip(1) {
            let smoother = Chebyshev::new(&a, 2, 10);
            lvls.push(GmgLevel::from_csr(Arc::new(a), smoother));
        }
        let rhs: Vec<f64> = {
            let n = fine_a.nrows();
            let mask = masks.last().unwrap();
            (0..n).map(|i| if mask[i] { 0.0 } else { 1.0 }).collect()
        };
        (fine_a, GeometricMg::new(lvls, ps, coarse, pre, post), rhs)
    }

    #[test]
    fn vcycle_preconditioned_krylov_converges_fast() {
        let (a, mg, rhs) = build_gmg(4, 2, 2, 2);
        let mut x = vec![0.0; a.nrows()];
        let stats = gcr(
            &a,
            &mg,
            &rhs,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-8).with_max_it(100),
        );
        assert!(stats.converged, "{stats:?}");
        assert!(
            stats.iterations <= 25,
            "V(2,2) GMG should converge in few iterations, took {}",
            stats.iterations
        );
        assert!(mg.coarse_apply_count() as usize >= stats.iterations);
    }

    #[test]
    fn iteration_count_mesh_independent() {
        let (a4, mg4, rhs4) = build_gmg(4, 2, 2, 2);
        let mut x4 = vec![0.0; a4.nrows()];
        let s4 = gcr(
            &a4,
            &mg4,
            &rhs4,
            &mut x4,
            &KrylovConfig::default().with_rtol(1e-8).with_max_it(200),
        );
        let (a8, mg8, rhs8) = build_gmg(8, 3, 2, 2);
        let mut x8 = vec![0.0; a8.nrows()];
        let s8 = gcr(
            &a8,
            &mg8,
            &rhs8,
            &mut x8,
            &KrylovConfig::default().with_rtol(1e-8).with_max_it(200),
        );
        assert!(s4.converged && s8.converged);
        assert!(
            s8.iterations <= s4.iterations + 8,
            "GMG not h-independent: {} → {}",
            s4.iterations,
            s8.iterations
        );
    }

    #[test]
    fn deeper_smoothing_reduces_iterations() {
        let (a, mg22, rhs) = build_gmg(4, 2, 1, 1);
        let mut x = vec![0.0; a.nrows()];
        let s11 = gcr(
            &a,
            &mg22,
            &rhs,
            &mut x,
            &KrylovConfig::default().with_rtol(1e-8).with_max_it(200),
        );
        let (a2, mg33, rhs2) = build_gmg(4, 2, 3, 3);
        let mut x2 = vec![0.0; a2.nrows()];
        let s33 = gcr(
            &a2,
            &mg33,
            &rhs2,
            &mut x2,
            &KrylovConfig::default().with_rtol(1e-8).with_max_it(200),
        );
        assert!(s11.converged && s33.converged);
        assert!(s33.iterations <= s11.iterations);
    }

    #[test]
    fn w_cycle_converges_at_least_as_fast_as_v() {
        // 3 levels so the W recursion actually branches (at 2 levels the
        // coarse direct solve ignores warm starts and W degenerates to V).
        let (a, mgv, rhs) = build_gmg(8, 3, 2, 2);
        let mut xv = vec![0.0; a.nrows()];
        let sv = gcr(
            &a,
            &mgv,
            &rhs,
            &mut xv,
            &KrylovConfig::default().with_rtol(1e-8).with_max_it(200),
        );
        let (a2, mgw, rhs2) = build_gmg(8, 3, 2, 2);
        let mgw = mgw.with_cycle(crate::gmg::CycleType::W);
        let mut xw = vec![0.0; a2.nrows()];
        let sw = gcr(
            &a2,
            &mgw,
            &rhs2,
            &mut xw,
            &KrylovConfig::default().with_rtol(1e-8).with_max_it(200),
        );
        assert!(sv.converged && sw.converged);
        assert!(
            sw.iterations <= sv.iterations + 2,
            "W-cycle ({}) should be at least as strong as V ({})",
            sw.iterations,
            sv.iterations
        );
        // W-cycle visits the coarse solver more often per application.
        assert!(
            mgw.coarse_apply_count() as f64
                > 1.4 * mgv.coarse_apply_count() as f64
                    / (sv.iterations as f64 / sw.iterations as f64).max(1.0)
        );
    }

    #[test]
    fn filter_transfer_zeroes_constrained() {
        let fine = StructuredMesh::new_box(2, 2, 2, [0.0, 1.0], [0.0, 1.0], [0.0, 1.0]);
        let coarse = fine.coarsen();
        let mut p = expand_blocked(&prolongation_scalar(&coarse, &fine), 3);
        let mut fine_mask = vec![false; p.nrows()];
        fine_mask[5] = true;
        let mut coarse_mask = vec![false; p.ncols()];
        coarse_mask[2] = true;
        filter_transfer(&mut p, &fine_mask, &coarse_mask);
        for v in p.row_values(5) {
            assert_eq!(*v, 0.0);
        }
        for i in 0..p.nrows() {
            for (c, v) in p.row_indices(i).iter().zip(p.row_values(i)) {
                if *c == 2 {
                    assert_eq!(*v, 0.0);
                }
            }
        }
    }
}
