//! Proposition-1 whitening without an SVD.
//!
//! Proposition 1 replaces a sensing system `y = A θ` (`m × n`, wide)
//! by `y' = Q θ`, where `Q` is an orthonormal basis of `A`'s row space
//! and `y'` satisfies `Qᵀ y' = A⁺ y`. Any orthonormal row basis poses
//! the same ℓ1 program, so the basis does not have to be the SVD's
//! `V_rᵀ`: [`whiten`] builds one from the small `m × m` Gram matrix
//! `K = A Aᵀ` instead.
//!
//! 1. A **pivoted Cholesky** of `K` picks `r` pivot rows `S` with
//!    `P K Pᵀ ≈ L Lᵀ`. A pivot is kept while it exceeds `ε·λ_max(K)`
//!    (`λ_max` from a short power iteration) — the squared form of the
//!    SVD rule `σ > √ε·σ_max`: below it a Schur pivot is Gram
//!    round-off, not signal.
//! 2. With `C` the leading `r × r` block of `L`, `Q = C⁻¹ A_S` has
//!    orthonormal rows in exact arithmetic (`Q Qᵀ = C⁻¹ K_SS C⁻ᵀ = I`),
//!    and `A = L Q`, so `A⁺ = Qᵀ L⁺` and `y' = L⁺ y`: a forward
//!    substitution at full rank, otherwise a least-squares solve on the
//!    `m × r` factor.
//! 3. `C` may be as ill-conditioned as the rank rule allows (`κ(C)² ≲
//!    1/ε`), so one pass can leave `Q` visibly non-orthonormal. A
//!    second **CholeskyQR** pass (`Q Qᵀ = R Rᵀ`, `Q ← R⁻¹ Q`,
//!    `y' ← R⁻¹ y'`) restores orthonormality to round-off. Should a row
//!    of the first-pass `Q` be numerically dependent on its
//!    predecessors, the basis is truncated before it: the pivoted
//!    factorization is nested, so the leading rows stay valid.
//!
//! When the rank equals the column count `n` (a group with more
//! readings than candidate columns), the row space is all of `ℝⁿ`:
//! `Q = I` and `y' = A⁺ y` is the plain least-squares solution, so the
//! passes are skipped.
//!
//! The cost is two `m × n` Gram products and two triangular solves on
//! `r × n` rows — no eigensolver, no back-multiplication.

// Index-based loops below mirror the textbook algorithms; iterator
// rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

use crate::matrix::Matrix;
use crate::{LinalgError, Result};
use std::cmp::Ordering;

/// Power-iteration steps used to estimate `λ_max(K)` for the rank rule.
const POWER_STEPS: usize = 12;

/// Relative change of the Rayleigh quotient at which the power
/// iteration stops early.
const POWER_TOL: f64 = 1e-6;

/// Smallest second-pass Cholesky pivot (a squared row distance in the
/// nearly orthonormal first-pass basis) a row may keep. CholeskyQR
/// leaves an orthonormality error of about `ε / d_min`, so rows closer
/// than this to the span of their predecessors would cost the
/// `1e-10` orthonormality the solvers rely on; they are numerical
/// duplicates the first pass let through.
const REORTH_MIN_PIVOT: f64 = 1e-5;

/// An orthonormal Proposition-1 system: `q` (`r × n`, orthonormal rows
/// spanning `A`'s numerical row space) and `y` (`r` entries) with
/// `qᵀ y = A⁺ y` on that row space.
#[derive(Debug, Clone)]
pub struct Whitened {
    /// The orthonormal row basis `Q`.
    pub q: Matrix,
    /// The transformed observation `y'`.
    pub y: Vec<f64>,
}

/// Whitens the system `y = A θ` (see the module docs).
///
/// Returns an `r × n` operator with `r` the numerical rank of `A`
/// (zero rows for an all-zero `A`).
///
/// # Errors
///
/// Returns [`LinalgError::Empty`] for a matrix with a zero dimension,
/// [`LinalgError::ShapeMismatch`] if `y.len() != a.rows()`, and
/// [`LinalgError::Singular`] if the rank-deficient least-squares solve
/// for `y'` meets a singular factor (non-finite input).
///
/// # Example
///
/// ```
/// use crowdwifi_linalg::{whiten::whiten, Matrix};
///
/// // Rows 0 and 2 are equal: rank 2.
/// let a = Matrix::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, 1.0, 1.0], &[1.0, 2.0, 0.0]]);
/// let w = whiten(&a, &[1.0, 2.0, 1.0]).unwrap();
/// assert_eq!(w.q.rows(), 2);
/// let qqt = w.q.matmul(&w.q.transpose());
/// assert!(qqt.approx_eq(&Matrix::identity(2), 1e-12));
/// ```
pub fn whiten(a: &Matrix, y: &[f64]) -> Result<Whitened> {
    let (m, n) = a.shape();
    if m == 0 || n == 0 {
        return Err(LinalgError::Empty);
    }
    if y.len() != m {
        return Err(LinalgError::ShapeMismatch {
            expected: format!("observation of length {m}"),
            found: format!("length {}", y.len()),
        });
    }
    let rows: Vec<&[f64]> = (0..m).map(|i| a.row(i)).collect();
    let k = gram_rows(&rows);
    let tol = f64::EPSILON * lambda_max(&k, m);
    let chol = PivotedCholesky::new(&k, m, tol);
    let r = chol.rank();
    if r == n {
        let colmajor: Vec<f64> = (0..m * n).map(|e| a.get(e % m, e / m)).collect();
        return Ok(Whitened {
            q: Matrix::identity(n),
            y: householder_lstsq(colmajor, m, n, y.to_vec())?,
        });
    }

    // First pass: Q₁ = C⁻¹ A_S, rows in pivot order.
    let mut q = vec![0.0; r * n];
    for i in 0..r {
        forward_row(&mut q, n, i, rows[chol.piv[i]], |t| chol.l(chol.piv[i], t));
    }

    // Second pass: Q₁ Q₁ᵀ = R Rᵀ, truncated before the first row whose
    // pivot shows it dependent on its predecessors.
    let q1: Vec<&[f64]> = q.chunks_exact(n).collect();
    let g = gram_rows(&q1);
    let (rr, kept) = cholesky_prefix(&g, r, REORTH_MIN_PIVOT);
    let y1 = chol.solve_factor(y, kept)?;
    let mut q2 = vec![0.0; kept * n];
    for i in 0..kept {
        forward_row(&mut q2, n, i, q1[i], |t| rr[i * r + t]);
    }
    let mut y2 = vec![0.0; kept];
    for i in 0..kept {
        let mut s = y1[i];
        for t in 0..i {
            s -= rr[i * r + t] * y2[t];
        }
        y2[i] = s / rr[i * r + i];
    }
    Ok(Whitened {
        q: Matrix::from_vec(kept, n, q2)?,
        y: y2,
    })
}

/// Row `i` of a lower-triangular forward substitution on matrix rows:
/// `out_i = (rhs − Σ_{t<i} c(t)·out_t) · (1 / c(i))`, where `out` holds
/// the earlier rows (row-major, `n` wide) and `c(t)` reads row `i` of
/// the triangular factor.
fn forward_row(out: &mut [f64], n: usize, i: usize, rhs: &[f64], c: impl Fn(usize) -> f64) {
    let (done, rest) = out.split_at_mut(i * n);
    let row = &mut rest[..n];
    row.copy_from_slice(rhs);
    for t in 0..i {
        let f = c(t);
        for (x, &p) in row.iter_mut().zip(&done[t * n..(t + 1) * n]) {
            *x -= f * p;
        }
    }
    let inv = 1.0 / c(i);
    for x in row.iter_mut() {
        *x *= inv;
    }
}

/// Symmetric Gram matrix `G[i][j] = ⟨rowᵢ, rowⱼ⟩` (row-major `p × p`).
fn gram_rows(rows: &[&[f64]]) -> Vec<f64> {
    let p = rows.len();
    let mut g = vec![0.0; p * p];
    for i in 0..p {
        for j in 0..=i {
            let v = dot_lanes(rows[i], rows[j]);
            g[i * p + j] = v;
            g[j * p + i] = v;
        }
    }
    g
}

/// Dot product with four independent partial sums (element `e` lands
/// in sum `e mod 4`; the sums combine pairwise, then the tail adds in
/// order), so the reduction is throughput- rather than latency-bound.
/// It reassociates the sum, so it stays private to the whitening rather
/// than joining [`crate::kernels`], whose contract is the scalar
/// left-to-right order.
fn dot_lanes(a: &[f64], b: &[f64]) -> f64 {
    let (ca, cb) = (a.chunks_exact(4), b.chunks_exact(4));
    let (ra, rb) = (ca.remainder(), cb.remainder());
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for (x, y) in ca.zip(cb) {
        s0 += x[0] * y[0];
        s1 += x[1] * y[1];
        s2 += x[2] * y[2];
        s3 += x[3] * y[3];
    }
    let mut s = (s0 + s2) + (s1 + s3);
    for (x, y) in ra.iter().zip(rb) {
        s += x * y;
    }
    s
}

/// Largest eigenvalue of the symmetric PSD `p × p` matrix `k`, by power
/// iteration from the all-ones vector (the Rayleigh quotient never
/// overshoots). For the non-negative Gram matrices of the sensing
/// problem the Perron vector is non-negative, so the start vector is
/// never orthogonal to it and the iteration settles in a few steps.
fn lambda_max(k: &[f64], p: usize) -> f64 {
    let mut v = vec![1.0 / (p as f64).sqrt(); p];
    let mut w = vec![0.0; p];
    let mut lambda = 0.0;
    for _ in 0..POWER_STEPS {
        for i in 0..p {
            w[i] = k[i * p..(i + 1) * p]
                .iter()
                .zip(&v)
                .map(|(a, b)| a * b)
                .sum();
        }
        let rayleigh: f64 = w.iter().zip(&v).map(|(a, b)| a * b).sum();
        let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        if norm == 0.0 {
            return 0.0;
        }
        for (vi, wi) in v.iter_mut().zip(&w) {
            *vi = wi / norm;
        }
        let done = (rayleigh - lambda).abs() <= POWER_TOL * rayleigh;
        lambda = rayleigh;
        if done {
            break;
        }
    }
    lambda
}

/// Diagonally pivoted Cholesky `P K Pᵀ ≈ L Lᵀ` of a symmetric PSD
/// `p × p` matrix, stopped once the largest remaining pivot is at or
/// below `tol`.
struct PivotedCholesky {
    /// Row `i` of `L` (original row order), `p` wide; column `t` is the
    /// `t`-th pivot step.
    l: Vec<f64>,
    p: usize,
    /// Rows in pivot order; the first `rank` are the kept pivots.
    piv: Vec<usize>,
    rank: usize,
}

impl PivotedCholesky {
    fn new(k: &[f64], p: usize, tol: f64) -> Self {
        let mut l = vec![0.0; p * p];
        let mut d: Vec<f64> = (0..p).map(|i| k[i * p + i]).collect();
        let mut piv: Vec<usize> = (0..p).collect();
        let mut rank = 0;
        while rank < p {
            // Largest remaining Schur diagonal; the first one wins ties.
            let mut best = rank;
            for s in rank + 1..p {
                if d[piv[s]] > d[piv[best]] {
                    best = s;
                }
            }
            let pr = piv[best];
            if d[pr].partial_cmp(&tol) != Some(Ordering::Greater) {
                break;
            }
            piv.swap(rank, best);
            let c = d[pr].sqrt();
            l[pr * p + rank] = c;
            for s in rank + 1..p {
                let i = piv[s];
                let mut v = k[i * p + pr];
                for t in 0..rank {
                    v -= l[i * p + t] * l[pr * p + t];
                }
                let v = v / c;
                l[i * p + rank] = v;
                d[i] -= v * v;
            }
            rank += 1;
        }
        PivotedCholesky { l, p, piv, rank }
    }

    fn rank(&self) -> usize {
        self.rank
    }

    /// Entry `(row, step)` of `L`.
    fn l(&self, row: usize, step: usize) -> f64 {
        self.l[row * self.p + step]
    }

    /// Least-squares solution of `L[:, ..cols] z = y`: forward
    /// substitution when the leading block is square, otherwise a
    /// Householder least-squares solve on the tall factor.
    fn solve_factor(&self, y: &[f64], cols: usize) -> Result<Vec<f64>> {
        if cols == self.p {
            let mut z = vec![0.0; cols];
            for i in 0..cols {
                let row = self.piv[i];
                let mut s = y[row];
                for t in 0..i {
                    s -= self.l(row, t) * z[t];
                }
                z[i] = s / self.l(row, i);
            }
            return Ok(z);
        }
        if cols == 0 {
            return Ok(Vec::new());
        }
        let factor: Vec<f64> = (0..cols * self.p)
            .map(|e| self.l(e % self.p, e / self.p))
            .collect();
        householder_lstsq(factor, self.p, cols, y.to_vec())
    }
}

/// `argmin ‖F z − b‖` for a tall `rows × cols` matrix `F` of full
/// column rank, stored column-major in `f`. Householder reflections
/// reduce `F` to `R` and are applied to `b` as they are built, so no
/// `Q` is formed; back substitution on `R` finishes the solve.
fn householder_lstsq(
    mut f: Vec<f64>,
    rows: usize,
    cols: usize,
    mut b: Vec<f64>,
) -> Result<Vec<f64>> {
    let mut v = Vec::with_capacity(rows);
    for k in 0..cols {
        let x = &f[k * rows + k..(k + 1) * rows];
        let alpha = x.iter().map(|e| e * e).sum::<f64>().sqrt();
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(LinalgError::Singular);
        }
        let beta = if x[0] >= 0.0 { -alpha } else { alpha };
        v.clear();
        v.extend_from_slice(x);
        v[0] -= beta;
        let vtv: f64 = v.iter().map(|e| e * e).sum();
        let reflect = |target: &mut [f64]| {
            let s = 2.0 * v.iter().zip(&*target).map(|(a, c)| a * c).sum::<f64>() / vtv;
            for (t, &vi) in target.iter_mut().zip(&v) {
                *t -= s * vi;
            }
        };
        for j in k + 1..cols {
            reflect(&mut f[j * rows + k..(j + 1) * rows]);
        }
        reflect(&mut b[k..]);
        f[k * rows + k] = beta;
    }
    let mut z = vec![0.0; cols];
    for i in (0..cols).rev() {
        let mut acc = b[i];
        for j in i + 1..cols {
            acc -= f[j * rows + i] * z[j];
        }
        z[i] = acc / f[i * rows + i];
    }
    Ok(z)
}

/// Cholesky `G = R Rᵀ` of the leading block of the symmetric `p × p`
/// matrix `g`, stopped before the first pivot at or below `min_pivot`.
/// Returns `R` (row-major `p × p`, lower triangular) and the number of
/// rows factored.
fn cholesky_prefix(g: &[f64], p: usize, min_pivot: f64) -> (Vec<f64>, usize) {
    let mut r = vec![0.0; p * p];
    for i in 0..p {
        for j in 0..=i {
            let mut s = g[i * p + j];
            for t in 0..j {
                s -= r[i * p + t] * r[j * p + t];
            }
            if i == j {
                if s.partial_cmp(&min_pivot) != Some(Ordering::Greater) {
                    return (r, i);
                }
                r[i * p + i] = s.sqrt();
            } else {
                r[i * p + j] = s / r[j * p + j];
            }
        }
    }
    (r, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::svd::pseudo_inverse;

    fn max_orth_error(q: &Matrix) -> f64 {
        let qqt = q.matmul(&q.transpose());
        qqt.sub(&Matrix::identity(q.rows())).max_abs()
    }

    #[test]
    fn full_rank_system_matches_the_pseudo_inverse() {
        let a = Matrix::from_rows(&[
            &[1.0, 2.0, 0.5, 0.0, 3.0],
            &[0.0, 1.0, 1.0, 2.0, 0.5],
            &[2.0, 0.0, 1.0, 1.0, 1.0],
        ]);
        let y = [1.0, -2.0, 0.5];
        let w = whiten(&a, &y).unwrap();
        assert_eq!(w.q.shape(), (3, 5));
        assert!(max_orth_error(&w.q) < 1e-14);
        let lhs = w.q.matvec_transposed(&w.y);
        let rhs = pseudo_inverse(&a).unwrap().matvec(&y);
        for (l, r) in lhs.iter().zip(&rhs) {
            assert!((l - r).abs() < 1e-12, "{l} vs {r}");
        }
    }

    #[test]
    fn duplicate_rows_reduce_the_rank() {
        let base = [0.3, 1.0, 0.2, 0.7];
        let a = Matrix::from_rows(&[&base, &[1.0, 0.0, 0.0, 1.0], &base, &base]);
        let w = whiten(&a, &[1.0, 1.0, 1.0, 1.0]).unwrap();
        assert_eq!(w.q.rows(), 2);
        assert!(max_orth_error(&w.q) < 1e-14);
        // The row space is unchanged: A (I − QᵀQ) = 0.
        let proj = a.sub(&a.matmul(&w.q.transpose()).matmul(&w.q));
        assert!(proj.max_abs() < 1e-12);
    }

    #[test]
    fn full_column_rank_is_the_identity_basis() {
        let a = Matrix::from_rows(&[&[1.0, 0.5], &[0.2, 2.0], &[1.0, 1.0], &[0.0, 0.3]]);
        let y = [1.0, -1.0, 0.5, 2.0];
        let w = whiten(&a, &y).unwrap();
        assert_eq!(w.q, Matrix::identity(2));
        let want = pseudo_inverse(&a).unwrap().matvec(&y);
        for (g, t) in w.y.iter().zip(&want) {
            assert!((g - t).abs() < 1e-12, "{g} vs {t}");
        }
    }

    #[test]
    fn zero_matrix_has_an_empty_basis_and_bad_shapes_fail() {
        let w = whiten(&Matrix::zeros(2, 3), &[0.0, 0.0]).unwrap();
        assert_eq!((w.q.rows(), w.y.len()), (0, 0));
        assert!(matches!(
            whiten(&Matrix::zeros(0, 3), &[]),
            Err(LinalgError::Empty)
        ));
        assert!(matches!(
            whiten(&Matrix::zeros(2, 3), &[1.0]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn householder_least_squares_matches_qr() {
        let f = Matrix::from_rows(&[
            &[2.0, 0.0, 0.0],
            &[0.5, 1.5, 0.0],
            &[-1.0, 0.3, 0.9],
            &[0.7, -0.2, 0.4],
            &[0.1, 0.8, -0.6],
        ]);
        let b = [1.0, -0.5, 2.0, 0.25, -1.5];
        let colmajor: Vec<f64> = (0..15).map(|e| f.get(e % 5, e / 5)).collect();
        let got = householder_lstsq(colmajor, 5, 3, b.to_vec()).unwrap();
        let want = crate::QrDecomposition::new(&f)
            .solve_least_squares(&b)
            .unwrap();
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-13, "{g} vs {w}");
        }
        let singular = householder_lstsq(vec![0.0; 6], 3, 2, vec![1.0; 3]);
        assert!(matches!(singular, Err(LinalgError::Singular)));
    }

    #[test]
    fn lanes_dot_matches_the_plain_sum_closely() {
        let a: Vec<f64> = (0..37).map(|i| (i as f64 * 0.37).sin()).collect();
        let b: Vec<f64> = (0..37).map(|i| (i as f64 * 0.11).cos()).collect();
        let plain: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot_lanes(&a, &b) - plain).abs() < 1e-13);
    }
}
