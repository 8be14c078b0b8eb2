//! Small dense linear algebra: 3×3 geometry kernels, general LU with
//! partial pivoting (AMG-coarsest and coupled coarse solves, block-Jacobi
//! blocks) and Householder QR (smoothed-aggregation tentative
//! prolongators).

/// Row-major dense matrix.
#[derive(Clone, Debug)]
pub struct DenseMatrix {
    pub nrows: usize,
    pub ncols: usize,
    pub data: Vec<f64>,
}

impl DenseMatrix {
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut m = Self::zeros(nrows, ncols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), ncols);
            m.data[i * ncols..(i + 1) * ncols].copy_from_slice(r);
        }
        m
    }

    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.ncols + j]
    }

    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.ncols + j] = v;
    }

    #[inline]
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.ncols + j] += v;
    }

    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.ncols..(i + 1) * self.ncols]
    }

    /// y = A x
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        for i in 0..self.nrows {
            let r = self.row(i);
            let mut s = 0.0;
            for j in 0..self.ncols {
                s += r[j] * x[j];
            }
            y[i] = s;
        }
    }

    /// C = A * B
    pub fn matmul(&self, b: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.ncols, b.nrows);
        let mut c = DenseMatrix::zeros(self.nrows, b.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..b.ncols {
                    c.data[i * b.ncols + j] += aik * b.get(k, j);
                }
            }
        }
        c
    }

    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.ncols, self.nrows);
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }
}

/// LU factorization with partial pivoting of a square dense matrix.
///
/// Stored in packed form: `lu` holds L (unit diagonal, below) and U (on and
/// above the diagonal); `piv[i]` is the row swapped into position `i`.
#[derive(Clone, Debug)]
pub struct DenseLu {
    n: usize,
    lu: Vec<f64>,
    piv: Vec<usize>,
}

impl DenseLu {
    /// Factor `a` (row-major, n×n). Returns `None` for a numerically
    /// singular pivot.
    pub fn factor(a: &DenseMatrix) -> Option<Self> {
        assert_eq!(a.nrows, a.ncols);
        let n = a.nrows;
        let mut lu = a.data.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Pivot search in column k.
            let mut p = k;
            let mut pmax = lu[k * n + k].abs();
            for i in k + 1..n {
                let v = lu[i * n + k].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax == 0.0 {
                return None;
            }
            if p != k {
                for j in 0..n {
                    lu.swap(k * n + j, p * n + j);
                }
                piv.swap(k, p);
            }
            let pivot = lu[k * n + k];
            for i in k + 1..n {
                let m = lu[i * n + k] / pivot;
                lu[i * n + k] = m;
                if m != 0.0 {
                    for j in k + 1..n {
                        lu[i * n + j] -= m * lu[k * n + j];
                    }
                }
            }
        }
        Some(Self { n, lu, piv })
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Solve A x = b, writing the solution into `x`.
    pub fn solve(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        // Apply permutation.
        for i in 0..n {
            x[i] = b[self.piv[i]];
        }
        // Forward substitution with unit lower triangle.
        for i in 1..n {
            let mut s = x[i];
            for j in 0..i {
                s -= self.lu[i * n + j] * x[j];
            }
            x[i] = s;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in i + 1..n {
                s -= self.lu[i * n + j] * x[j];
            }
            x[i] = s / self.lu[i * n + i];
        }
    }
}

/// Thin Householder QR of an m×n (m ≥ n) matrix: A = Q R with Q m×n
/// orthonormal and R n×n upper triangular. Used to orthonormalize the
/// rigid-body modes restricted to an aggregate.
pub fn thin_qr(a: &DenseMatrix) -> (DenseMatrix, DenseMatrix) {
    let m = a.nrows;
    let n = a.ncols;
    assert!(m >= n, "thin_qr requires m >= n");
    let mut r = a.clone();
    // Householder vectors stored per column.
    let mut vs: Vec<Vec<f64>> = Vec::with_capacity(n);
    for k in 0..n {
        // Build Householder vector for column k.
        let mut normx = 0.0;
        for i in k..m {
            normx += r.get(i, k) * r.get(i, k);
        }
        let normx = normx.sqrt();
        let alpha = if r.get(k, k) >= 0.0 { -normx } else { normx };
        let mut v = vec![0.0; m];
        if normx == 0.0 {
            // Zero column; identity reflector.
            vs.push(v);
            continue;
        }
        for i in k..m {
            v[i] = r.get(i, k);
        }
        v[k] -= alpha;
        // DETERMINISM-OK: serial iterator fold, fixed left-to-right order.
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 == 0.0 {
            vs.push(v);
            continue;
        }
        // Apply reflector to R: R -= 2 v (vᵀ R)/ (vᵀv)
        for j in k..n {
            let mut s = 0.0;
            for i in k..m {
                s += v[i] * r.get(i, j);
            }
            let c = 2.0 * s / vnorm2;
            for i in k..m {
                let newv = r.get(i, j) - c * v[i];
                r.set(i, j, newv);
            }
        }
        vs.push(v);
    }
    // Extract upper-triangular R (n×n).
    let mut rr = DenseMatrix::zeros(n, n);
    for i in 0..n {
        for j in i..n {
            rr.set(i, j, r.get(i, j));
        }
    }
    // Form Q = H_0 ... H_{n-1} * [I; 0] by applying reflectors in reverse.
    let mut q = DenseMatrix::zeros(m, n);
    for j in 0..n {
        q.set(j, j, 1.0);
    }
    for k in (0..n).rev() {
        let v = &vs[k];
        // DETERMINISM-OK: serial iterator fold, fixed left-to-right order.
        let vnorm2: f64 = v.iter().map(|x| x * x).sum();
        if vnorm2 == 0.0 {
            continue;
        }
        for j in 0..n {
            let mut s = 0.0;
            for i in k..m {
                s += v[i] * q.get(i, j);
            }
            let c = 2.0 * s / vnorm2;
            for i in k..m {
                let newv = q.get(i, j) - c * v[i];
                q.set(i, j, newv);
            }
        }
    }
    (q, rr)
}

// ---------------------------------------------------------------------------
// 3×3 kernels used throughout the FEM geometry code.
// ---------------------------------------------------------------------------

/// Determinant of a 3×3 matrix stored row-major as `[[f64;3];3]`.
#[inline]
pub fn det3(a: &[[f64; 3]; 3]) -> f64 {
    a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
}

/// Inverse of a 3×3 matrix; returns (inverse, determinant).
#[inline]
pub fn inv3(a: &[[f64; 3]; 3]) -> ([[f64; 3]; 3], f64) {
    let d = det3(a);
    let id = 1.0 / d;
    let inv = [
        [
            (a[1][1] * a[2][2] - a[1][2] * a[2][1]) * id,
            (a[0][2] * a[2][1] - a[0][1] * a[2][2]) * id,
            (a[0][1] * a[1][2] - a[0][2] * a[1][1]) * id,
        ],
        [
            (a[1][2] * a[2][0] - a[1][0] * a[2][2]) * id,
            (a[0][0] * a[2][2] - a[0][2] * a[2][0]) * id,
            (a[0][2] * a[1][0] - a[0][0] * a[1][2]) * id,
        ],
        [
            (a[1][0] * a[2][1] - a[1][1] * a[2][0]) * id,
            (a[0][1] * a[2][0] - a[0][0] * a[2][1]) * id,
            (a[0][0] * a[1][1] - a[0][1] * a[1][0]) * id,
        ],
    ];
    (inv, d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_solves_random_system() {
        let n = 12;
        let mut a = DenseMatrix::zeros(n, n);
        // Diagonally dominant deterministic matrix.
        for i in 0..n {
            for j in 0..n {
                let v = ((i * 7 + j * 13) % 17) as f64 / 17.0;
                a.set(i, j, v);
            }
            a.add(i, i, n as f64);
        }
        let xstar: Vec<f64> = (0..n).map(|i| (i as f64) - 3.0).collect();
        let mut b = vec![0.0; n];
        a.matvec(&xstar, &mut b);
        let lu = DenseLu::factor(&a).unwrap();
        let mut x = vec![0.0; n];
        lu.solve(&b, &mut x);
        for i in 0..n {
            assert!((x[i] - xstar[i]).abs() < 1e-10, "{} vs {}", x[i], xstar[i]);
        }
    }

    #[test]
    fn lu_detects_singular() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(DenseLu::factor(&a).is_none());
    }

    #[test]
    fn qr_orthonormal_and_reconstructs() {
        let a = DenseMatrix::from_rows(&[
            &[1.0, 0.5, 0.0],
            &[0.0, 1.0, 2.0],
            &[1.0, 1.0, 1.0],
            &[2.0, -1.0, 0.5],
            &[0.0, 0.0, 3.0],
        ]);
        let (q, r) = thin_qr(&a);
        // QᵀQ = I
        let qtq = q.transpose().matmul(&q);
        for i in 0..3 {
            for j in 0..3 {
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((qtq.get(i, j) - expect).abs() < 1e-12);
            }
        }
        // QR = A
        let qr = q.matmul(&r);
        for i in 0..a.nrows {
            for j in 0..a.ncols {
                assert!((qr.get(i, j) - a.get(i, j)).abs() < 1e-12);
            }
        }
        // R upper triangular
        for i in 0..3 {
            for j in 0..i {
                assert_eq!(r.get(i, j), 0.0);
            }
        }
    }

    #[test]
    fn inv3_det3_roundtrip() {
        let a = [[2.0, 1.0, 0.5], [0.0, 3.0, 1.0], [1.0, -1.0, 2.0]];
        let (inv, d) = inv3(&a);
        assert!((d - det3(&a)).abs() < 1e-14);
        // a * inv = I
        for i in 0..3 {
            for j in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += a[i][k] * inv[k][j];
                }
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((s - expect).abs() < 1e-13);
            }
        }
    }
}
