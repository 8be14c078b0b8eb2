//! Sparse Cholesky factorization under a caller-supplied fill-reducing
//! order — the exact coarse-grid solve of the geometric multigrid (§IV-A).
//!
//! Only the lower triangle of the permuted matrix is read: a Galerkin
//! `RAP` product is symmetric only to round-off, and the factor is that of
//! the symmetric matrix its lower triangle defines. The symbolic phase
//! builds the elimination tree and each row's pattern of `L` (the etree
//! reach of the row's lower-triangle entries); the numeric phase is the
//! up-looking row-by-row factorization. Entries stored as an exact zero —
//! the zeroed rows and columns of Dirichlet dofs — are not structure.
//!
//! A matrix that is not positive definite goes through the regularization
//! ladder of [`crate::schwarz::factor_regularized`], so construction never
//! fails (DESIGN.md §15).

use crate::csr::Csr;
use crate::operator::Preconditioner;
use std::sync::Mutex;

const NONE: usize = usize::MAX;

/// Which rung of the regularization ladder produced the factor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regularization {
    /// The matrix itself is positive definite.
    None,
    /// A `1e-12` diagonal shift was needed (singular, semi-definite input).
    Shift,
    /// Every row was shifted to positive strict diagonal dominance.
    DiagonalDominance,
}

/// `A = Pᵀ L Lᵀ P` for a symmetric `A`, with `L` stored by columns.
pub struct SparseCholesky {
    /// `order[new] = old`.
    order: Vec<u32>,
    /// Column `j` of `L` is `col_ptr[j]..col_ptr[j+1]`: the diagonal
    /// first, then the rows below it in increasing order.
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
    regularization: Regularization,
    /// Reused permuted right-hand side for `apply` (take when
    /// uncontended, allocate otherwise).
    scratch: Mutex<Vec<f64>>,
}

/// The permuted lower triangle `C = (P A Pᵀ)` restricted to `j ≤ i`, by
/// rows, with an explicit (possibly zero) diagonal in every row.
struct Lower {
    ptr: Vec<usize>,
    idx: Vec<u32>,
    val: Vec<f64>,
    /// Position of each row's diagonal in `idx`/`val`.
    diag: Vec<usize>,
}

impl Lower {
    fn new(a: &Csr, order: &[u32]) -> Self {
        let n = a.nrows();
        let mut pinv = vec![0usize; n];
        for (new, &old) in order.iter().enumerate() {
            pinv[old as usize] = new;
        }
        let mut lower = Lower {
            ptr: Vec::with_capacity(n + 1),
            idx: Vec::new(),
            val: Vec::new(),
            diag: vec![NONE; n],
        };
        lower.ptr.push(0);
        for (i, &old) in order.iter().enumerate() {
            let old = old as usize;
            for (&c, &v) in a.row_indices(old).iter().zip(a.row_values(old)) {
                let j = pinv[c as usize];
                if j == i {
                    lower.diag[i] = lower.idx.len();
                } else if j > i || v == 0.0 {
                    continue;
                }
                lower.idx.push(j as u32);
                lower.val.push(v);
            }
            if lower.diag[i] == NONE {
                lower.diag[i] = lower.idx.len();
                lower.idx.push(i as u32);
                lower.val.push(0.0);
            }
            lower.ptr.push(lower.idx.len());
        }
        lower
    }

    fn row(&self, i: usize) -> std::ops::Range<usize> {
        self.ptr[i]..self.ptr[i + 1]
    }
}

/// Symbolic factor: the strictly-lower pattern of each row of `L`, sorted
/// (ascending is a topological order of the elimination tree).
struct Symbolic {
    row_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    col_ptr: Vec<usize>,
}

impl Symbolic {
    fn new(c: &Lower) -> Self {
        let n = c.diag.len();
        // Elimination tree with path-compressed ancestors.
        let mut parent = vec![NONE; n];
        let mut ancestor = vec![NONE; n];
        for i in 0..n {
            for &j in &c.idx[c.row(i)] {
                let mut r = j as usize;
                while r < i {
                    let next = ancestor[r];
                    ancestor[r] = i;
                    if next == NONE {
                        parent[r] = i;
                        break;
                    }
                    r = next;
                }
            }
        }
        // Row patterns: the etree reach of each row's entries.
        let mut mark = vec![NONE; n];
        let mut col_count = vec![1usize; n];
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut row_idx: Vec<u32> = Vec::new();
        row_ptr.push(0);
        for i in 0..n {
            mark[i] = i;
            let start = row_idx.len();
            for &j in &c.idx[c.row(i)] {
                let mut r = j as usize;
                while mark[r] != i {
                    mark[r] = i;
                    row_idx.push(r as u32);
                    col_count[r] += 1;
                    r = parent[r];
                }
            }
            row_idx[start..].sort_unstable();
            row_ptr.push(row_idx.len());
        }
        let mut col_ptr = Vec::with_capacity(n + 1);
        col_ptr.push(0);
        for &cc in &col_count {
            col_ptr.push(col_ptr[col_ptr.len() - 1] + cc);
        }
        Self {
            row_ptr,
            row_idx,
            col_ptr,
        }
    }
}

/// Up-looking numeric factorization into `row_idx`/`values` (laid out by
/// `sym.col_ptr`). Returns `false` at the first non-positive pivot; with
/// `force`, such a pivot is replaced by the row's diagonal entry instead
/// (only non-finite input can reach it after the dominance shift).
fn numeric(
    c: &Lower,
    sym: &Symbolic,
    force: bool,
    row_idx: &mut [u32],
    values: &mut [f64],
) -> bool {
    let n = c.diag.len();
    let mut x = vec![0.0; n];
    let mut fill: Vec<usize> = sym.col_ptr[..n].to_vec();
    for k in 0..n {
        for p in c.row(k) {
            x[c.idx[p] as usize] = c.val[p];
        }
        let mut d = x[k];
        x[k] = 0.0;
        for &j in &sym.row_idx[sym.row_ptr[k]..sym.row_ptr[k + 1]] {
            let j = j as usize;
            let lkj = x[j] / values[sym.col_ptr[j]];
            x[j] = 0.0;
            for p in sym.col_ptr[j] + 1..fill[j] {
                x[row_idx[p] as usize] -= values[p] * lkj;
            }
            d -= lkj * lkj;
            row_idx[fill[j]] = k as u32;
            values[fill[j]] = lkj;
            fill[j] += 1;
        }
        if !(d > 0.0 && d.is_finite()) {
            if !force {
                return false;
            }
            d = c.val[c.diag[k]].abs().max(1.0);
        }
        row_idx[fill[k]] = k as u32;
        values[fill[k]] = d.sqrt();
        fill[k] += 1;
    }
    true
}

impl SparseCholesky {
    /// Factor the symmetric `a` (lower triangle read) in the elimination
    /// order `order` (`order[new] = old`), regularizing if it is not
    /// positive definite. Cannot fail.
    pub fn new(a: &Csr, order: &[u32]) -> Self {
        let n = a.nrows();
        assert_eq!(a.ncols(), n, "SparseCholesky needs a square matrix");
        assert_eq!(order.len(), n, "order must cover every row");
        let mut c = Lower::new(a, order);
        let sym = Symbolic::new(&c);
        let nnz = sym.col_ptr[n];
        let mut row_idx = vec![0u32; nnz];
        let mut values = vec![0.0; nnz];
        let mut regularization = Regularization::None;
        if !numeric(&c, &sym, false, &mut row_idx, &mut values) {
            // Singular input (e.g. an unconstrained rigid-body mode): the
            // mild shift `DirectSolver` also tries first.
            for &p in &c.diag {
                c.val[p] += 1e-12;
            }
            regularization = Regularization::Shift;
            if !numeric(&c, &sym, false, &mut row_idx, &mut values) {
                // Last resort: positive strict diagonal dominance of the
                // symmetric matrix the lower triangle defines.
                let mut off = vec![0.0; n];
                for i in 0..n {
                    for p in c.row(i) {
                        let j = c.idx[p] as usize;
                        if j != i {
                            off[i] += c.val[p].abs();
                            off[j] += c.val[p].abs();
                        }
                    }
                }
                for (i, &p) in c.diag.iter().enumerate() {
                    c.val[p] = c.val[p].max(off[i] + 1.0);
                }
                regularization = Regularization::DiagonalDominance;
                numeric(&c, &sym, true, &mut row_idx, &mut values);
            }
        }
        Self {
            order: order.to_vec(),
            col_ptr: sym.col_ptr,
            row_idx,
            values,
            regularization,
            scratch: Mutex::new(Vec::new()),
        }
    }

    fn n(&self) -> usize {
        self.order.len()
    }

    pub fn regularization(&self) -> Regularization {
        self.regularization
    }

    /// `L y = P b`, `Lᵀ z = y`, `x = Pᵀ z` with `y` as the work vector.
    fn solve_with(&self, b: &[f64], x: &mut [f64], y: &mut Vec<f64>) {
        let n = self.n();
        y.resize(n, 0.0);
        for (new, &old) in self.order.iter().enumerate() {
            y[new] = b[old as usize];
        }
        for j in 0..n {
            let (p0, p1) = (self.col_ptr[j], self.col_ptr[j + 1]);
            let yj = y[j] / self.values[p0];
            y[j] = yj;
            for p in p0 + 1..p1 {
                y[self.row_idx[p] as usize] -= self.values[p] * yj;
            }
        }
        for j in (0..n).rev() {
            let (p0, p1) = (self.col_ptr[j], self.col_ptr[j + 1]);
            let mut s = y[j];
            for p in p0 + 1..p1 {
                s -= self.values[p] * y[self.row_idx[p] as usize];
            }
            y[j] = s / self.values[p0];
        }
        for (new, &old) in self.order.iter().enumerate() {
            x[old as usize] = y[new];
        }
    }
}

impl Preconditioner for SparseCholesky {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.n());
        assert_eq!(z.len(), self.n());
        match self.scratch.try_lock() {
            Ok(mut y) => self.solve_with(r, z, &mut y),
            Err(_) => {
                // ALLOC-OK: fallback only when a concurrent apply holds the
                // cached scratch; the common path reuses the buffer above.
                let mut y = Vec::new();
                self.solve_with(r, z, &mut y);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schwarz::DirectSolver;

    fn solve(f: &SparseCholesky, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; b.len()];
        f.apply(b, &mut x);
        x
    }

    fn reversed(n: usize) -> Vec<u32> {
        (0..n as u32).rev().collect()
    }

    /// 2-D five-point Laplacian on a `m × m` grid, optionally with an
    /// explicit zero stored between the first and last rows.
    fn laplace2d(m: usize, stored_zero: bool) -> Csr {
        let mut t = Vec::new();
        for j in 0..m {
            for i in 0..m {
                let r = i + m * j;
                t.push((r, r, 4.0));
                for (di, dj) in [(-1i64, 0i64), (1, 0), (0, -1), (0, 1)] {
                    let (ii, jj) = (i as i64 + di, j as i64 + dj);
                    if (0..m as i64).contains(&ii) && (0..m as i64).contains(&jj) {
                        t.push((r, ii as usize + m * jj as usize, -1.0));
                    }
                }
            }
        }
        if stored_zero {
            t.push((0, m * m - 1, 0.0));
            t.push((m * m - 1, 0, 0.0));
        }
        Csr::from_triplets(m * m, m * m, &t)
    }

    #[test]
    fn factor_matches_dense_lu_under_any_order() {
        let a = laplace2d(7, true);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let mut xd = vec![0.0; n];
        DirectSolver::new(&a).apply(&b, &mut xd);
        for order in [(0..n as u32).collect(), reversed(n)] {
            let f = SparseCholesky::new(&a, &order);
            assert_eq!(f.regularization(), Regularization::None);
            let x = solve(&f, &b);
            for i in 0..n {
                assert!((x[i] - xd[i]).abs() < 1e-13 * (1.0 + xd[i].abs()));
            }
        }
    }

    #[test]
    fn explicit_zeros_are_not_structure() {
        // In natural order the stored zero coupling the first and last
        // rows would fill the whole last row of `L` if it were structure.
        let m = 6;
        let natural: Vec<u32> = (0..(m * m) as u32).collect();
        let with_zero = laplace2d(m, true);
        assert_eq!(with_zero.nnz(), laplace2d(m, false).nnz() + 2);
        let f0 = SparseCholesky::new(&with_zero, &natural);
        let f1 = SparseCholesky::new(&laplace2d(m, false), &natural);
        assert_eq!(f0.values.len(), f1.values.len());
    }

    #[test]
    fn singular_semidefinite_matrix_takes_the_shift_rung() {
        // Graph Laplacian of a path: constants are in the null space.
        let t = vec![
            (0, 0, 1.0),
            (0, 1, -1.0),
            (1, 0, -1.0),
            (1, 1, 2.0),
            (1, 2, -1.0),
            (2, 1, -1.0),
            (2, 2, 1.0),
        ];
        let a = Csr::from_triplets(3, 3, &t);
        let f = SparseCholesky::new(&a, &[0, 1, 2]);
        assert_eq!(f.regularization(), Regularization::Shift);
        let x = solve(&f, &[1.0, 0.0, -1.0]);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn indefinite_matrix_takes_the_dominance_rung() {
        let a = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 0, 2.0), (1, 1, 1.0)]);
        let f = SparseCholesky::new(&a, &[1, 0]);
        assert_eq!(f.regularization(), Regularization::DiagonalDominance);
        // The regularized matrix is [[3, 2], [2, 3]].
        let x = solve(&f, &[5.0, 5.0]);
        assert!((x[0] - 1.0).abs() < 1e-14 && (x[1] - 1.0).abs() < 1e-14);
    }

    #[test]
    fn negative_and_non_finite_input_still_factors() {
        let neg = Csr::from_triplets(2, 2, &[(0, 0, -4.0), (1, 1, -1.0)]);
        let f = SparseCholesky::new(&neg, &[0, 1]);
        assert_eq!(f.regularization(), Regularization::DiagonalDominance);
        assert!(solve(&f, &[1.0, 1.0]).iter().all(|v| v.is_finite()));
        let nan = Csr::from_triplets(2, 2, &[(0, 0, f64::NAN), (1, 0, 1.0), (1, 1, 2.0)]);
        let f = SparseCholesky::new(&nan, &[0, 1]);
        assert_eq!(f.regularization(), Regularization::DiagonalDominance);
        let empty = Csr::zeros(3, 3);
        let f = SparseCholesky::new(&empty, &[2, 1, 0]);
        assert_eq!(f.regularization(), Regularization::Shift);
    }
}
