//! Singular value decomposition and the Moore–Penrose pseudo-inverse.
//!
//! The paper's Proposition 1 orthogonalization is written as
//! `T = Q A†` with `A†` the pseudo-inverse of the sensing matrix
//! `A = ΦΨ`. The recovery path whitens from the Gram matrix instead
//! ([`crate::whiten`]), because vectors read off a Gram
//! eigendecomposition are only orthonormal to about `ε·σ_max/σ`; this
//! module serves the MDS baseline and the whitening tests' `A⁺` oracle.
//!
//! The SVD is built from the symmetric eigendecomposition of the smaller
//! Gram matrix (`AᵀA` or `AAᵀ`), which is accurate enough for the
//! measurement scales in this system (singular values well above
//! round-off) and keeps the kernel dependency-free.

// Index-based loops below mirror the textbook algorithms; iterator
// rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

use crate::eigen::SymmetricEigen;
use crate::matrix::Matrix;
use crate::{LinalgError, Result};

/// A (thin) singular value decomposition `A = U Σ Vᵀ`.
///
/// With `p = min(m, n)`, `U` is `m × p`, `Σ` is the vector of `p`
/// non-negative singular values in descending order and `V` is `n × p`.
///
/// # Example
///
/// ```
/// use crowdwifi_linalg::{Matrix, Svd};
///
/// let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
/// let svd = Svd::new(&a).unwrap();
/// assert!((svd.singular_values()[0] - 4.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Svd {
    u: Matrix,
    singular_values: Vec<f64>,
    v: Matrix,
}

impl Svd {
    /// Computes the thin SVD of `a`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for matrices with a zero dimension
    /// and propagates eigensolver failures.
    pub fn new(a: &Matrix) -> Result<Self> {
        let (m, n) = a.shape();
        if m == 0 || n == 0 {
            return Err(LinalgError::Empty);
        }

        let tall = m >= n;
        // Eigendecompose the smaller Gram matrix.
        let gram = if tall {
            a.transpose().matmul(a)
        } else {
            a.matmul(&a.transpose())
        };
        let eig = SymmetricEigen::new(&gram)?;

        let p = m.min(n);
        let mut singular_values: Vec<f64> = eig
            .eigenvalues()
            .iter()
            .take(p)
            .map(|&l| l.max(0.0).sqrt())
            .collect();

        let scale = singular_values.first().copied().unwrap_or(0.0);
        let tol = 1e-12 * scale.max(1e-300) * (m.max(n) as f64);

        let small_vecs = eig.eigenvectors().select_cols(&(0..p).collect::<Vec<_>>());
        // Columns above the rank tolerance get a singular vector on the
        // other side (`A V / σ` or `Aᵀ U / σ`); the rest are zeroed.
        for s in singular_values.iter_mut() {
            if *s <= tol {
                *s = 0.0;
            }
        }
        let mut col = Vec::new();
        let (u, v) = if tall {
            // V from the eigenvectors of AᵀA; U = A V / σ.
            let v = small_vecs;
            let mut u = Matrix::zeros(m, p);
            for (j, &s) in singular_values
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s > tol)
            {
                a.matvec_into(&v.col(j), &mut col);
                for (r, &x) in col.iter().enumerate() {
                    u.set(r, j, x / s);
                }
            }
            (u, v)
        } else {
            // U from the eigenvectors of AAᵀ; V = Aᵀ U / σ.
            let u = small_vecs;
            let mut v = Matrix::zeros(n, p);
            for (j, &s) in singular_values
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s > tol)
            {
                a.matvec_transposed_into(&u.col(j), &mut col);
                for (r, &x) in col.iter().enumerate() {
                    v.set(r, j, x / s);
                }
            }
            (u, v)
        };

        Ok(Svd {
            u,
            singular_values,
            v,
        })
    }

    /// Left singular vectors (`m × min(m, n)`).
    pub fn u(&self) -> &Matrix {
        &self.u
    }

    /// Singular values in descending order.
    pub fn singular_values(&self) -> &[f64] {
        &self.singular_values
    }

    /// Right singular vectors (`n × min(m, n)`).
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// Numerical rank: singular values above `tol_rel * σ_max`.
    pub fn rank(&self, tol_rel: f64) -> usize {
        let smax = self.singular_values.first().copied().unwrap_or(0.0);
        if smax == 0.0 {
            return 0;
        }
        self.singular_values
            .iter()
            .filter(|&&s| s > tol_rel * smax)
            .count()
    }

    /// Moore–Penrose pseudo-inverse `A† = V Σ⁺ Uᵀ`.
    ///
    /// Singular values below `1e-10 · σ_max` are treated as zero.
    pub fn pseudo_inverse(&self) -> Matrix {
        let smax = self.singular_values.first().copied().unwrap_or(0.0);
        let tol = 1e-10 * smax;
        let p = self.singular_values.len();
        let inv_sigma: Vec<f64> = self
            .singular_values
            .iter()
            .map(|&s| if s > tol { 1.0 / s } else { 0.0 })
            .collect();
        // V Σ⁺ then * Uᵀ.
        let mut vs = Matrix::zeros(self.v.rows(), p);
        for r in 0..self.v.rows() {
            for c in 0..p {
                vs.set(r, c, self.v.get(r, c) * inv_sigma[c]);
            }
        }
        vs.matmul(&self.u.transpose())
    }
}

/// Convenience wrapper: pseudo-inverse of `a` in one call.
///
/// # Errors
///
/// Propagates [`Svd::new`] failures.
pub fn pseudo_inverse(a: &Matrix) -> Result<Matrix> {
    Ok(Svd::new(a)?.pseudo_inverse())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_svd(a: &Matrix) {
        let svd = Svd::new(a).unwrap();
        let sigma = Matrix::diagonal(svd.singular_values());
        let back = svd.u().matmul(&sigma).matmul(&svd.v().transpose());
        assert!(back.approx_eq(a, 1e-7), "SVD reconstruction failed for {a}");
        for w in svd.singular_values().windows(2) {
            assert!(w[0] >= w[1] - 1e-12, "singular values not sorted");
        }
    }

    #[test]
    fn svd_reconstructs_various_shapes() {
        check_svd(&Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]));
        check_svd(&Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]));
        check_svd(&Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]));
    }

    #[test]
    fn pinv_of_invertible_is_inverse() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let pinv = pseudo_inverse(&a).unwrap();
        assert!(a.matmul(&pinv).approx_eq(&Matrix::identity(2), 1e-9));
    }

    #[test]
    fn pinv_satisfies_penrose_conditions() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let p = pseudo_inverse(&a).unwrap();
        // A A† A = A
        assert!(a.matmul(&p).matmul(&a).approx_eq(&a, 1e-7));
        // A† A A† = A†
        assert!(p.matmul(&a).matmul(&p).approx_eq(&p, 1e-7));
        // (A A†)ᵀ = A A†
        let aap = a.matmul(&p);
        assert!(aap.transpose().approx_eq(&aap, 1e-7));
        // (A† A)ᵀ = A† A
        let pa = p.matmul(&a);
        assert!(pa.transpose().approx_eq(&pa, 1e-7));
    }

    #[test]
    fn pinv_rank_deficient() {
        // Rank-1 matrix: A† A is the projector onto the row space.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        let p = pseudo_inverse(&a).unwrap();
        assert!(a.matmul(&p).matmul(&a).approx_eq(&a, 1e-8));
        assert_eq!(Svd::new(&a).unwrap().rank(1e-9), 1);
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            Svd::new(&Matrix::zeros(0, 3)),
            Err(LinalgError::Empty)
        ));
    }
}
