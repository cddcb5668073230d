//! ADMM solver for equality-constrained basis pursuit.
//!
//! Follows the scaled-dual formulation of Boyd et al., *Distributed
//! Optimization and Statistical Learning via ADMM* (2011):
//! [`BasisPursuit`] solves the noiseless program `min ‖θ‖₁ s.t. Aθ = y`
//! by alternating projection onto the affine constraint set with
//! soft-thresholding — the closest implementable match to the paper's
//! written ℓ1 program.

use crate::prox::{soft_threshold_nonneg_vec, soft_threshold_vec};
use crate::{validate_problem, Recovery, Result, SolverWorkspace, SparseRecovery};
use crowdwifi_linalg::svd::pseudo_inverse;
use crowdwifi_linalg::vector;
use crowdwifi_linalg::Matrix;

/// ADMM solver for equality-constrained basis pursuit
/// (`min ‖θ‖₁ s.t. Aθ = y`), the literal program of §4.1.
///
/// Requires `A` to have full row rank (true for the orthogonalized
/// operators produced by Proposition 1, whose rows are orthonormal).
///
/// # Example
///
/// ```
/// use crowdwifi_linalg::Matrix;
/// use crowdwifi_sparsesolve::{admm::BasisPursuit, SparseRecovery};
///
/// let a = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 1.0]]);
/// let rec = BasisPursuit::default().recover(&a, &[1.0, 1.0])?;
/// // Minimum-ℓ1 solution is the single coefficient on column 2.
/// assert_eq!(rec.support(0.5), vec![2]);
/// # Ok::<(), crowdwifi_sparsesolve::SolverError>(())
/// ```
#[derive(Debug, Clone)]
pub struct BasisPursuit {
    max_iterations: usize,
    tolerance: f64,
    nonnegative: bool,
}

impl Default for BasisPursuit {
    fn default() -> Self {
        BasisPursuit {
            max_iterations: 2000,
            tolerance: 1e-9,
            nonnegative: false,
        }
    }
}

impl BasisPursuit {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the iteration cap (default 2000).
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations.max(1);
        self
    }

    /// Enables the `θ ≥ 0` constraint (default: disabled — the classic
    /// basis-pursuit program is signed).
    pub fn with_nonnegative(mut self, nonnegative: bool) -> Self {
        self.nonnegative = nonnegative;
        self
    }
}

impl SparseRecovery for BasisPursuit {
    fn recover(&self, a: &Matrix, y: &[f64]) -> Result<Recovery> {
        self.recover_with(a, y, &mut SolverWorkspace::new())
    }

    fn recover_with(&self, a: &Matrix, y: &[f64], ws: &mut SolverWorkspace) -> Result<Recovery> {
        validate_problem(a, y)?;
        let pinv = pseudo_inverse(a)?;
        let n = a.cols();

        // Projection onto {x : Ax = y} is x ↦ x − A†(Ax − y).
        pinv.matvec_into(y, &mut ws.x); // feasible start

        ws.z.clear();
        ws.z.resize(n, 0.0);
        ws.u.clear();
        ws.u.resize(n, 0.0);
        let rho = 1.0;
        let mut iterations = 0;
        let mut converged = false;

        for k in 0..self.max_iterations {
            iterations = k + 1;
            // x-update: project v = z − u onto the affine constraint
            // (built in `x_alt`, swapped into `x` once corrected).
            vector::sub_into(&ws.z, &ws.u, &mut ws.x_alt);
            a.matvec_into(&ws.x_alt, &mut ws.m_scratch);
            vector::sub_into(&ws.m_scratch, y, &mut ws.m_scratch2);
            pinv.matvec_into(&ws.m_scratch2, &mut ws.grad);
            vector::axpy(-1.0, &ws.grad, &mut ws.x_alt);
            std::mem::swap(&mut ws.x, &mut ws.x_alt);

            // z-update: soft threshold at 1/ρ; `n_scratch` keeps the
            // previous z for the dual residual.
            ws.n_scratch.clear();
            ws.n_scratch.extend_from_slice(&ws.z);
            for (zi, (&xi, &ui)) in ws.z.iter_mut().zip(ws.x.iter().zip(&ws.u)) {
                *zi = xi + ui;
            }
            if self.nonnegative {
                soft_threshold_nonneg_vec(&mut ws.z, 1.0 / rho);
            } else {
                soft_threshold_vec(&mut ws.z, 1.0 / rho);
            }

            for (ui, (&xi, &zi)) in ws.u.iter_mut().zip(ws.x.iter().zip(&ws.z)) {
                *ui += xi - zi;
            }

            let primal = vector::distance(&ws.x, &ws.z);
            let dual = rho * vector::distance(&ws.z, &ws.n_scratch);
            let scale = vector::norm2(&ws.x).max(1e-12);
            if primal <= self.tolerance * scale && dual <= self.tolerance * scale {
                converged = true;
                break;
            }
        }

        // x is the feasible iterate: report it (z may be slightly
        // infeasible but sparser; x inherits its sparsity at convergence).
        a.matvec_into(&ws.x, &mut ws.m_scratch);
        vector::sub_into(&ws.m_scratch, y, &mut ws.m_scratch2);
        let residual_norm = vector::norm2(&ws.m_scratch2);
        Ok(Recovery {
            solution: ws.x.clone(),
            iterations,
            residual_norm,
            converged,
            iterations_saved: if converged {
                self.max_iterations - iterations
            } else {
                0
            },
        })
    }

    fn name(&self) -> &'static str {
        "admm-bp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SolverError;

    fn bernoulli_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let scale = 1.0 / (m as f64).sqrt();
        Matrix::from_fn(m, n, |_, _| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            if (state.wrapping_mul(0x2545F4914F6CDD1D) >> 63) & 1 == 1 {
                scale
            } else {
                -scale
            }
        })
    }

    #[test]
    fn basis_pursuit_exact_recovery() {
        let (m, n) = (20, 50);
        let a = bernoulli_matrix(m, n, 11);
        let mut theta = vec![0.0; n];
        theta[4] = 1.5;
        theta[27] = -2.0;
        let y = a.matvec(&theta);
        let rec = BasisPursuit::default().recover(&a, &y).unwrap();
        // Exact recovery in the noiseless regime.
        let d = vector::distance(&rec.solution, &theta);
        assert!(d < 1e-4, "recovery error {d}");
        // Feasibility: A θ̂ = y.
        assert!(rec.residual_norm < 1e-8);
    }

    #[test]
    fn basis_pursuit_nonneg_variant() {
        let a = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 1.0]]);
        let rec = BasisPursuit::default()
            .with_nonnegative(true)
            .recover(&a, &[1.0, 1.0])
            .unwrap();
        assert_eq!(rec.support(0.5), vec![2]);
        assert!(rec.solution.iter().all(|&x| x >= -1e-9));
    }

    #[test]
    fn rejects_empty_problem() {
        assert!(matches!(
            BasisPursuit::default().recover(&Matrix::zeros(0, 0), &[]),
            Err(SolverError::EmptyProblem)
        ));
    }
}
