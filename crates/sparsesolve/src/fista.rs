//! FISTA proximal-gradient solver for the non-negative LASSO program.
//!
//! Solves `min_θ ½‖Aθ − y‖₂² + λ‖θ‖₁` subject to `θ ≥ 0`. Nesterov
//! momentum gives an `O(1/k²)` rate, which matters in the online
//! pipeline where each sliding-window round solves many small programs.

use crate::prox::soft_threshold_nonneg_vec;
use crate::{
    spectral_norm_sq, validate_problem, Recovery, Result, SolverError, SolverWorkspace,
    SparseRecovery,
};
use crowdwifi_linalg::vector;
use crowdwifi_linalg::Matrix;

/// Accelerated proximal-gradient LASSO solver.
///
/// Non-negative (AP indicators cannot be negative), with a data-scaled
/// regularization weight.
///
/// # Example
///
/// ```
/// use crowdwifi_linalg::Matrix;
/// use crowdwifi_sparsesolve::{Fista, SparseRecovery};
///
/// let a = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 1.0]]);
/// let y = [2.0, 0.0];
/// let rec = Fista::default().recover(&a, &y)?;
/// // Sparsest consistent explanation puts the mass on column 0.
/// assert_eq!(rec.support(0.1), vec![0]);
/// # Ok::<(), crowdwifi_sparsesolve::SolverError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Fista {
    lambda_rel: f64,
    max_iterations: usize,
    tolerance: f64,
}

impl Default for Fista {
    fn default() -> Self {
        Fista {
            // Shared with the active set, whose uncertified solves the
            // pipeline re-solves on FISTA: both must pose the same LASSO.
            lambda_rel: crate::active_set::LAMBDA_REL,
            max_iterations: 2000,
            tolerance: 1e-8,
        }
    }
}

impl Fista {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the regularization weight **relative to** `‖Aᵀy‖_∞` (the
    /// smallest λ for which the solution is identically zero). Must lie
    /// in `(0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidParameter`] when out of range.
    pub fn with_lambda_rel(mut self, lambda_rel: f64) -> Result<Self> {
        if !(lambda_rel > 0.0 && lambda_rel < 1.0) {
            return Err(SolverError::InvalidParameter {
                name: "lambda_rel",
                reason: format!("must be in (0, 1), got {lambda_rel}"),
            });
        }
        self.lambda_rel = lambda_rel;
        Ok(self)
    }

    /// Sets the iteration cap (default 2000).
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations.max(1);
        self
    }

    /// Sets the relative-change stopping tolerance (default `1e-8`).
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidParameter`] for negative or
    /// non-finite values (matching the other solver builders).
    pub fn with_tolerance(mut self, tolerance: f64) -> Result<Self> {
        if !(tolerance >= 0.0 && tolerance.is_finite()) {
            return Err(SolverError::InvalidParameter {
                name: "tolerance",
                reason: format!("must be non-negative and finite, got {tolerance}"),
            });
        }
        self.tolerance = tolerance;
        Ok(self)
    }
}

impl SparseRecovery for Fista {
    fn recover(&self, a: &Matrix, y: &[f64]) -> Result<Recovery> {
        self.recover_with(a, y, &mut SolverWorkspace::new())
    }

    /// Bit-for-bit the historical solver loop, so the default
    /// configuration stays byte-identical to the frozen seed baseline
    /// asserted by the throughput bench.
    fn recover_with(&self, a: &Matrix, y: &[f64], ws: &mut SolverWorkspace) -> Result<Recovery> {
        validate_problem(a, y)?;
        let n = a.cols();

        // Step size 1/L with L = ‖A‖₂² (Lipschitz constant of the smooth
        // part), padded slightly for the power-iteration error.
        let lipschitz = spectral_norm_sq(a, 30) * 1.02;
        if lipschitz == 0.0 {
            // A is the zero matrix: the minimizer is θ = 0.
            return Ok(Recovery {
                solution: vec![0.0; n],
                iterations: 0,
                residual_norm: vector::norm2(y),
                converged: true,
                iterations_saved: 0,
            });
        }
        let step = 1.0 / lipschitz;

        // λ scaled to the problem: λ_max = ‖Aᵀy‖_∞ zeroes the solution.
        a.matvec_transposed_into(y, &mut ws.grad);
        let lambda = self.lambda_rel * vector::norm_inf(&ws.grad);

        ws.x.clear();
        ws.x.resize(n, 0.0);
        ws.z.clear();
        ws.z.resize(n, 0.0); // extrapolation point
        let mut t: f64 = 1.0;
        let mut iterations = 0;
        let mut converged = false;

        for k in 0..self.max_iterations {
            iterations = k + 1;
            // Gradient step at z: z − step · Aᵀ(Az − y). `x_alt` plays
            // the role of x_new until the swap below.
            a.matvec_into(&ws.z, &mut ws.m_scratch);
            vector::sub_into(&ws.m_scratch, y, &mut ws.m_scratch2);
            a.matvec_transposed_into(&ws.m_scratch2, &mut ws.grad);
            ws.x_alt.clear();
            ws.x_alt.extend_from_slice(&ws.z);
            vector::axpy(-step, &ws.grad, &mut ws.x_alt);
            // Proximal step.
            soft_threshold_nonneg_vec(&mut ws.x_alt, step * lambda);

            // Relative change stopping rule.
            let delta = vector::distance(&ws.x_alt, &ws.x);
            let scale = vector::norm2(&ws.x_alt).max(1e-12);

            let t_new = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
            let beta = (t - 1.0) / t_new;
            ws.z.clear();
            ws.z.extend(
                ws.x_alt
                    .iter()
                    .zip(&ws.x)
                    .map(|(&xn, &xo)| xn + beta * (xn - xo)),
            );
            t = t_new;
            // x = x_new without a clone; the stale old-x contents of
            // `x_alt` are fully overwritten next iteration.
            std::mem::swap(&mut ws.x, &mut ws.x_alt);

            if delta <= self.tolerance * scale {
                converged = true;
                break;
            }
        }

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
        "fista"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random ±1/√M Bernoulli sensing matrix; such
    /// matrices satisfy RIP with high probability.
    fn bernoulli_matrix(m: usize, n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let scale = 1.0 / (m as f64).sqrt();
        Matrix::from_fn(m, n, |_, _| {
            // xorshift64*
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let bit = (state.wrapping_mul(0x2545F4914F6CDD1D) >> 63) & 1;
            if bit == 1 {
                scale
            } else {
                -scale
            }
        })
    }

    #[test]
    fn recovers_sparse_nonnegative_signal() {
        let (m, n) = (24, 64);
        let a = bernoulli_matrix(m, n, 7);
        let mut theta = vec![0.0; n];
        theta[5] = 1.0;
        theta[40] = 1.0;
        theta[61] = 1.0;
        let y = a.matvec(&theta);

        let rec = Fista::default()
            .with_lambda_rel(0.005)
            .unwrap()
            .recover(&a, &y)
            .unwrap();
        let supp = rec.support(0.3);
        let mut sorted = supp.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![5, 40, 61], "support {supp:?}");
    }

    #[test]
    fn zero_measurements_give_zero_solution() {
        let a = bernoulli_matrix(8, 16, 1);
        let rec = Fista::default().recover(&a, &[0.0; 8]).unwrap();
        assert!(rec.solution.iter().all(|&x| x.abs() < 1e-9));
    }

    #[test]
    fn zero_matrix_handled() {
        let a = Matrix::zeros(4, 8);
        let rec = Fista::default().recover(&a, &[1.0; 4]).unwrap();
        assert!(rec.converged);
        assert_eq!(rec.solution, vec![0.0; 8]);
        assert!((rec.residual_norm - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_lambda() {
        assert!(Fista::default().with_lambda_rel(0.0).is_err());
        assert!(Fista::default().with_lambda_rel(1.0).is_err());
        assert!(Fista::default().with_lambda_rel(-0.5).is_err());
    }

    #[test]
    fn rejects_bad_tolerances() {
        assert!(Fista::default().with_tolerance(-1e-9).is_err());
        assert!(Fista::default().with_tolerance(f64::NAN).is_err());
        assert!(Fista::default().with_tolerance(0.0).is_ok());
    }

    #[test]
    fn rejects_shape_mismatch() {
        let a = Matrix::zeros(4, 8);
        assert!(matches!(
            Fista::default().recover(&a, &[1.0; 3]),
            Err(SolverError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn noisy_recovery_stays_close() {
        let (m, n) = (32, 64);
        let a = bernoulli_matrix(m, n, 21);
        let mut theta = vec![0.0; n];
        theta[10] = 1.0;
        theta[50] = 1.0;
        let mut y = a.matvec(&theta);
        // Deterministic "noise" at roughly 30 dB SNR.
        for (i, yi) in y.iter_mut().enumerate() {
            *yi += 0.01 * ((i * 37) as f64).sin();
        }
        let rec = Fista::default()
            .with_lambda_rel(0.02)
            .unwrap()
            .recover(&a, &y)
            .unwrap();
        let mut supp = rec.support(0.3);
        supp.sort_unstable();
        assert_eq!(supp, vec![10, 50]);
    }
}
