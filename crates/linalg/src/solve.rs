//! Direct solver: LU with partial pivoting.
//!
//! IRLS factors its weighted Gram matrix `A D Aᵀ` with LU every
//! iteration.

// Index-based loops below mirror the textbook algorithms; iterator
// rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

use crate::matrix::Matrix;
use crate::{LinalgError, Result};

/// LU decomposition with partial pivoting (`P A = L U`).
///
/// # Example
///
/// ```
/// use crowdwifi_linalg::{Matrix, solve::Lu};
///
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]);
/// let lu = Lu::new(&a).unwrap();
/// let x = lu.solve(&[2.0, 2.0]).unwrap();
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: Matrix,
    /// Row permutation applied to the right-hand side.
    perm: Vec<usize>,
}

impl Lu {
    /// Factors square `a`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] for non-square input and
    /// [`LinalgError::Singular`] if a pivot vanishes.
    pub fn new(a: &Matrix) -> Result<Self> {
        let n = a.rows();
        if n != a.cols() {
            return Err(LinalgError::ShapeMismatch {
                expected: "square matrix".to_string(),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for k in 0..n {
            // Partial pivoting: largest |entry| in column k at/below row k.
            let mut pivot_row = k;
            let mut pivot_val = lu.get(k, k).abs();
            for r in (k + 1)..n {
                let v = lu.get(r, k).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 {
                return Err(LinalgError::Singular);
            }
            if pivot_row != k {
                for c in 0..n {
                    let tmp = lu.get(k, c);
                    lu.set(k, c, lu.get(pivot_row, c));
                    lu.set(pivot_row, c, tmp);
                }
                perm.swap(k, pivot_row);
            }
            let pivot = lu.get(k, k);
            for r in (k + 1)..n {
                let factor = lu.get(r, k) / pivot;
                lu.set(r, k, factor);
                for c in (k + 1)..n {
                    let v = lu.get(r, c) - factor * lu.get(k, c);
                    lu.set(r, c, v);
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b` has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = Vec::new();
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// [`Lu::solve`] into a caller-provided buffer (cleared and resized),
    /// avoiding per-call allocation in iterative solvers. Both triangular
    /// substitutions run in `x` itself: back substitution at row `i`
    /// reads only `x[j]` for `j > i` (already transformed) and the
    /// forward-solve value still sitting at `x[i]`, so the floats match
    /// the two-buffer formulation exactly.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b` has the wrong length.
    pub fn solve_into(&self, b: &[f64], x: &mut Vec<f64>) -> Result<()> {
        let n = self.lu.rows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("rhs of length {n}"),
                found: format!("length {}", b.len()),
            });
        }
        x.clear();
        x.resize(n, 0.0);
        // Forward substitution with permuted b (L has unit diagonal).
        for i in 0..n {
            let mut s = b[self.perm[i]];
            for j in 0..i {
                s -= self.lu.get(i, j) * x[j];
            }
            x[i] = s;
        }
        // Back substitution on U.
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= self.lu.get(i, j) * x[j];
            }
            x[i] = s / self.lu.get(i, i);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_solves_with_pivoting_needed() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = Lu::new(&a).unwrap().solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lu_random_roundtrip() {
        let a = Matrix::from_rows(&[&[2.0, -1.0, 3.0], &[4.0, 2.0, 1.0], &[-2.0, 5.0, -1.0]]);
        let x_true = [1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let x = Lu::new(&a).unwrap().solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-10);
        }
    }

    #[test]
    fn lu_rejects_singular() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(Lu::new(&a).unwrap_err(), LinalgError::Singular);
    }
}
