//! Hand-rolled ℓ1-minimization / sparse-recovery solvers.
//!
//! CrowdWiFi (§4.1) recovers the AP indicator vector `θ` from compressive
//! RSS measurements by solving
//!
//! ```text
//! θ̂ = argmin ‖θ‖₁   s.t.  y = A θ (+ ε)
//! ```
//!
//! No maintained compressive-sensing crate exists, so this crate
//! implements the standard solver families from scratch on top of
//! [`crowdwifi_linalg`]:
//!
//! * [`active_set`] — an exact Lawson–Hanson active-set solver for the
//!   non-negative LASSO that certifies its answer by KKT. The pipeline
//!   default.
//! * [`fista`] — proximal-gradient LASSO (`min ½‖Aθ − y‖² + λ‖θ‖₁`), in
//!   plain ISTA and accelerated FISTA variants. The pipeline's fallback
//!   when the active set runs out of pivots.
//! * [`omp`] — orthogonal matching pursuit, a greedy baseline that is also
//!   used to sanity-check the convex solvers in tests,
//! * [`irls`] — iteratively reweighted least squares, a fourth family
//!   whose failure modes differ from the proximal methods.
//!
//! All solvers implement the [`SparseRecovery`] trait so the CS pipeline
//! can swap them.
//!
//! # Example
//!
//! ```
//! use crowdwifi_linalg::Matrix;
//! use crowdwifi_sparsesolve::{fista::Fista, SparseRecovery};
//!
//! // Identity sensing matrix: recovery is just soft thresholding.
//! let a = Matrix::identity(4);
//! let y = [0.0, 5.0, 0.0, -3.0];
//! let result = Fista::default().recover(&a, &y)?;
//! assert!(result.solution[1] > 4.0);
//! # Ok::<(), crowdwifi_sparsesolve::SolverError>(())
//! ```

#![deny(missing_docs)]

pub mod active_set;
pub mod any;
pub mod fista;
pub mod irls;
pub mod omp;
pub mod prox;
pub mod workspace;

pub use active_set::ActiveSet;
pub use any::AnySolver;
pub use fista::Fista;
pub use workspace::SolverWorkspace;

use crowdwifi_linalg::Matrix;

/// Errors produced by sparse-recovery solvers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverError {
    /// `y.len()` does not match the row count of `A`.
    ShapeMismatch {
        /// Rows of the sensing matrix.
        matrix_rows: usize,
        /// Length of the measurement vector.
        rhs_len: usize,
    },
    /// The sensing matrix has a zero dimension.
    EmptyProblem,
    /// The underlying linear-algebra kernel failed.
    Linalg(String),
    /// A solver parameter is out of its valid range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::ShapeMismatch {
                matrix_rows,
                rhs_len,
            } => write!(
                f,
                "measurement vector length {rhs_len} does not match {matrix_rows} matrix rows"
            ),
            SolverError::EmptyProblem => write!(f, "sensing matrix has a zero dimension"),
            SolverError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            SolverError::InvalidParameter { name, reason } => {
                write!(f, "invalid parameter `{name}`: {reason}")
            }
        }
    }
}

impl std::error::Error for SolverError {}

impl From<crowdwifi_linalg::LinalgError> for SolverError {
    fn from(e: crowdwifi_linalg::LinalgError) -> Self {
        SolverError::Linalg(e.to_string())
    }
}

/// Convenience alias for solver results.
pub type Result<T> = std::result::Result<T, SolverError>;

/// Outcome of a sparse-recovery solve.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// The recovered coefficient vector `θ̂` (length = columns of `A`).
    pub solution: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final residual norm `‖A θ̂ − y‖₂`.
    pub residual_norm: f64,
    /// Whether the stopping tolerance was reached before the iteration cap.
    pub converged: bool,
    /// Iteration-budget headroom left by early stopping: `cap − iterations`
    /// for converged solves of the iterative families, zero otherwise.
    pub iterations_saved: usize,
}

impl Recovery {
    /// Indices of coefficients with `|θ_i| > tol`, sorted by descending
    /// magnitude.
    pub fn support(&self, tol: f64) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.solution.len())
            .filter(|&i| self.solution[i].abs() > tol)
            .collect();
        idx.sort_by(|&i, &j| {
            self.solution[j]
                .abs()
                .partial_cmp(&self.solution[i].abs())
                .expect("NaN coefficient")
        });
        idx
    }
}

/// A solver for the sparse linear inverse problem `y ≈ A θ` with an
/// ℓ1 sparsity prior on `θ`.
pub trait SparseRecovery {
    /// Recovers a sparse `θ` from measurements `y` and sensing matrix `a`.
    ///
    /// # Errors
    ///
    /// Implementations return [`SolverError::ShapeMismatch`] when
    /// `y.len() != a.rows()` and [`SolverError::EmptyProblem`] for empty
    /// sensing matrices.
    fn recover(&self, a: &Matrix, y: &[f64]) -> Result<Recovery>;

    /// Like [`SparseRecovery::recover`], but reusing the buffers in
    /// `ws` across calls — the allocation-lean entry point for hot
    /// loops that solve many programs (the CS pipeline solves one per
    /// hypothesis group per window).
    ///
    /// Implementations must return exactly the [`Recovery`] that
    /// [`SparseRecovery::recover`] would; the workspace only changes
    /// where intermediates are stored. The default ignores `ws`, which
    /// trivially satisfies that contract (direct solvers like OMP have
    /// no per-iteration vectors worth pooling).
    ///
    /// # Errors
    ///
    /// Same error conditions as [`SparseRecovery::recover`].
    fn recover_with(&self, a: &Matrix, y: &[f64], ws: &mut SolverWorkspace) -> Result<Recovery> {
        let _ = ws;
        self.recover(a, y)
    }

    /// Short human-readable solver name (used in benches and logs).
    fn name(&self) -> &'static str;
}

pub(crate) fn validate_problem(a: &Matrix, y: &[f64]) -> Result<()> {
    if a.rows() == 0 || a.cols() == 0 {
        return Err(SolverError::EmptyProblem);
    }
    if y.len() != a.rows() {
        return Err(SolverError::ShapeMismatch {
            matrix_rows: a.rows(),
            rhs_len: y.len(),
        });
    }
    Ok(())
}

/// Estimates the squared spectral norm `‖A‖₂²` via power iteration on
/// `AᵀA`; used by the proximal-gradient solvers to pick a safe step size.
pub(crate) fn spectral_norm_sq(a: &Matrix, iterations: usize) -> f64 {
    let n = a.cols();
    if n == 0 || a.rows() == 0 {
        return 0.0;
    }
    // Deterministic, non-degenerate start vector.
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.7).sin()).collect();
    let mut lambda = 0.0;
    for _ in 0..iterations {
        let av = a.matvec(&v);
        let atav = a.matvec_transposed(&av);
        let norm = crowdwifi_linalg::vector::norm2(&atav);
        if norm == 0.0 {
            return 0.0;
        }
        lambda = norm;
        for (vi, &x) in v.iter_mut().zip(&atav) {
            *vi = x / norm;
        }
    }
    lambda
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectral_norm_of_diagonal() {
        let a = Matrix::diagonal(&[1.0, -4.0, 2.0]);
        let est = spectral_norm_sq(&a, 50);
        assert!((est - 16.0).abs() < 1e-6, "got {est}");
    }

    #[test]
    fn spectral_norm_of_zero_matrix() {
        assert_eq!(spectral_norm_sq(&Matrix::zeros(3, 3), 10), 0.0);
    }

    #[test]
    fn validate_catches_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            validate_problem(&a, &[1.0]),
            Err(SolverError::ShapeMismatch { .. })
        ));
        assert!(validate_problem(&a, &[1.0, 2.0]).is_ok());
    }

    #[test]
    fn recovery_support_sorted_by_magnitude() {
        let r = Recovery {
            solution: vec![0.1, -3.0, 0.0, 2.0],
            iterations: 1,
            residual_norm: 0.0,
            converged: true,
            iterations_saved: 0,
        };
        assert_eq!(r.support(0.5), vec![1, 3]);
    }

    #[test]
    fn error_display_nonempty() {
        assert!(!SolverError::EmptyProblem.to_string().is_empty());
    }
}
