//! Householder QR decomposition and least squares.

// Index-based loops below mirror the textbook algorithms; iterator
// rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

use crate::matrix::Matrix;
use crate::vector;
use crate::{LinalgError, Result};

/// Relative tolerance used for rank decisions.
const RANK_TOL: f64 = 1e-10;

/// A thin QR decomposition `A = Q R` computed with Householder reflections.
///
/// For an `m × n` input with `p = min(m, n)`, `Q` is `m × p` with
/// orthonormal columns and `R` is `p × n` upper triangular (trapezoidal
/// when `m < n`).
///
/// # Example
///
/// ```
/// use crowdwifi_linalg::{Matrix, QrDecomposition};
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
/// let qr = QrDecomposition::new(&a);
/// let back = qr.q().matmul(qr.r());
/// assert!(back.approx_eq(&a, 1e-10));
/// ```
#[derive(Debug, Clone)]
pub struct QrDecomposition {
    q: Matrix,
    r: Matrix,
}

impl QrDecomposition {
    /// Computes the thin QR decomposition of `a`.
    pub fn new(a: &Matrix) -> Self {
        let m = a.rows();
        let n = a.cols();
        let p = m.min(n);

        // Working copy that is reduced to R in place; Householder vectors
        // are kept to accumulate the thin Q afterwards.
        let mut work = a.clone();
        let mut householders: Vec<Vec<f64>> = Vec::with_capacity(p);

        for k in 0..p {
            // Householder vector for column k, rows k..m.
            let mut v: Vec<f64> = (k..m).map(|r| work.get(r, k)).collect();
            let alpha = vector::norm2(&v);
            if alpha == 0.0 {
                householders.push(Vec::new());
                continue;
            }
            let sign = if v[0] >= 0.0 { 1.0 } else { -1.0 };
            v[0] += sign * alpha;
            let vnorm = vector::norm2(&v);
            if vnorm == 0.0 {
                householders.push(Vec::new());
                continue;
            }
            for x in v.iter_mut() {
                *x /= vnorm;
            }
            // Apply H = I - 2 v vᵀ to the trailing block of `work`.
            for c in k..n {
                let mut proj = 0.0;
                for (i, &vi) in v.iter().enumerate() {
                    proj += vi * work.get(k + i, c);
                }
                proj *= 2.0;
                for (i, &vi) in v.iter().enumerate() {
                    let cur = work.get(k + i, c);
                    work.set(k + i, c, cur - proj * vi);
                }
            }
            householders.push(v);
        }

        // R: top p rows of the reduced working matrix, zeroing round-off
        // below the diagonal.
        let mut r = Matrix::zeros(p, n);
        for i in 0..p {
            for j in i..n {
                r.set(i, j, work.get(i, j));
            }
        }

        // Thin Q: apply the reflections in reverse to the first p columns
        // of the identity.
        let mut q = Matrix::zeros(m, p);
        for c in 0..p {
            q.set(c, c, 1.0);
        }
        for k in (0..p).rev() {
            let v = &householders[k];
            if v.is_empty() {
                continue;
            }
            for c in 0..p {
                let mut proj = 0.0;
                for (i, &vi) in v.iter().enumerate() {
                    proj += vi * q.get(k + i, c);
                }
                proj *= 2.0;
                for (i, &vi) in v.iter().enumerate() {
                    let cur = q.get(k + i, c);
                    q.set(k + i, c, cur - proj * vi);
                }
            }
        }

        QrDecomposition { q, r }
    }

    /// The orthonormal factor `Q` (`m × min(m, n)`).
    pub fn q(&self) -> &Matrix {
        &self.q
    }

    /// The upper-triangular factor `R` (`min(m, n) × n`).
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Numerical rank estimated from the diagonal of `R`.
    pub fn rank(&self) -> usize {
        let p = self.r.rows().min(self.r.cols());
        let max_diag = (0..p).fold(0.0_f64, |m, i| m.max(self.r.get(i, i).abs()));
        if max_diag == 0.0 {
            return 0;
        }
        (0..p)
            .filter(|&i| self.r.get(i, i).abs() > RANK_TOL * max_diag)
            .count()
    }

    /// Solves the least-squares problem `min ‖A x − b‖₂` for tall or
    /// square full-rank `A`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len()` differs from the
    /// row count of `A`, and [`LinalgError::Singular`] if `R` is rank
    /// deficient.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        let m = self.q.rows();
        let p = self.q.cols();
        let n = self.r.cols();
        if b.len() != m {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("rhs of length {m}"),
                found: format!("length {}", b.len()),
            });
        }
        if n > p {
            // Underdetermined systems are handled by `Svd::pseudo_inverse`.
            return Err(LinalgError::Singular);
        }
        // x solves R x = Qᵀ b by back substitution.
        let qtb = self.q.matvec_transposed(b);
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let diag = self.r.get(i, i);
            if diag.abs() <= RANK_TOL * self.r.max_abs() || diag == 0.0 {
                return Err(LinalgError::Singular);
            }
            let mut s = qtb[i];
            for j in (i + 1)..n {
                s -= self.r.get(i, j) * x[j];
            }
            x[i] = s / diag;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reconstructs(a: &Matrix) {
        let qr = QrDecomposition::new(a);
        assert!(
            qr.q().matmul(qr.r()).approx_eq(a, 1e-9),
            "QR failed to reconstruct {a}"
        );
        // Qᵀ Q = I.
        let qtq = qr.q().transpose().matmul(qr.q());
        assert!(qtq.approx_eq(&Matrix::identity(qr.q().cols()), 1e-9));
    }

    #[test]
    fn qr_reconstructs_tall_square_wide() {
        reconstructs(&Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]));
        reconstructs(&Matrix::from_rows(&[&[2.0, -1.0], &[1.0, 3.0]]));
        reconstructs(&Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]));
    }

    #[test]
    fn qr_rank_detects_deficiency() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        assert_eq!(QrDecomposition::new(&a).rank(), 1);
        let b = Matrix::identity(3);
        assert_eq!(QrDecomposition::new(&b).rank(), 3);
    }

    #[test]
    fn least_squares_exact_square_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x_true = [1.0, -2.0];
        let b = a.matvec(&x_true);
        let x = QrDecomposition::new(&a).solve_least_squares(&b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] + 2.0).abs() < 1e-10);
    }

    #[test]
    fn least_squares_overdetermined_matches_normal_equations() {
        // Fit y = a + b t over 4 samples.
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let b = [1.0, 2.9, 5.1, 7.0];
        let x = QrDecomposition::new(&a).solve_least_squares(&b).unwrap();
        // Residual must be orthogonal to the columns of A.
        let r = vector::sub(&a.matvec(&x), &b);
        for c in 0..2 {
            assert!(vector::dot(&a.col(c), &r).abs() < 1e-9);
        }
    }

    #[test]
    fn least_squares_rejects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(
            QrDecomposition::new(&a).solve_least_squares(&[1.0, 1.0]),
            Err(LinalgError::Singular)
        );
    }
}
