//! Iteratively reweighted least squares (IRLS) for basis pursuit.
//!
//! Approximates `min ‖x‖₁ s.t. A x = y` by a sequence of weighted
//! least-squares problems (Chartrand & Yin style): with weights
//! `wᵢ = 1 / (|xᵢ| + ε)` the weighted minimum-norm solution has the
//! closed form `x = D Aᵀ (A D Aᵀ)⁻¹ y`, `D = diag(1/w)`; ε decays as the
//! support sharpens. A solver family alongside the active set, FISTA and
//! OMP — useful as a cross-check because its failure modes differ.

use crate::{validate_problem, Recovery, Result, SolverError, SolverWorkspace, SparseRecovery};
use crowdwifi_linalg::solve::Lu;
use crowdwifi_linalg::vector;
use crowdwifi_linalg::Matrix;

/// The IRLS basis-pursuit solver.
///
/// # Example
///
/// ```
/// use crowdwifi_linalg::Matrix;
/// use crowdwifi_sparsesolve::{irls::Irls, SparseRecovery};
///
/// let a = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 1.0]]);
/// let rec = Irls::default().recover(&a, &[1.0, 1.0])?;
/// // Minimum-l1 solution concentrates on column 2.
/// assert_eq!(rec.support(0.5), vec![2]);
/// # Ok::<(), crowdwifi_sparsesolve::SolverError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Irls {
    max_iterations: usize,
    tolerance: f64,
    epsilon_floor: f64,
}

impl Default for Irls {
    fn default() -> Self {
        Irls {
            max_iterations: 60,
            tolerance: 1e-8,
            epsilon_floor: 1e-10,
        }
    }
}

impl Irls {
    /// Creates a solver with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the iteration cap (default 60 — IRLS converges in tens of
    /// sweeps).
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations.max(1);
        self
    }

    /// Sets the relative-change stopping tolerance (default `1e-8`).
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidParameter`] for negative values.
    pub fn with_tolerance(mut self, tolerance: f64) -> Result<Self> {
        if tolerance < 0.0 {
            return Err(SolverError::InvalidParameter {
                name: "tolerance",
                reason: format!("must be non-negative, got {tolerance}"),
            });
        }
        self.tolerance = tolerance;
        Ok(self)
    }
}

impl SparseRecovery for Irls {
    fn recover(&self, a: &Matrix, y: &[f64]) -> Result<Recovery> {
        self.recover_with(a, y, &mut SolverWorkspace::new())
    }

    fn recover_with(&self, a: &Matrix, y: &[f64], ws: &mut SolverWorkspace) -> Result<Recovery> {
        validate_problem(a, y)?;
        let (m, n) = a.shape();

        // Start from the minimum-ℓ2 solution (D = I).
        ws.x.clear();
        ws.x.resize(n, 0.0);
        let mut epsilon: f64 = 1.0;
        let mut iterations = 0;
        let mut converged = false;
        // Every entry of G is rewritten each iteration, so the matrix
        // allocation hoists out of the loop.
        let mut g = Matrix::zeros(m, m);

        for k in 0..self.max_iterations {
            iterations = k + 1;
            // D = diag(|x| + ε) in `n_scratch`; G = A D Aᵀ (m × m, SPD
            // for full-row-rank A).
            ws.n_scratch.clear();
            ws.n_scratch
                .extend(ws.x.iter().map(|&xi| xi.abs() + epsilon));
            let d = &ws.n_scratch;
            for r in 0..m {
                for c in r..m {
                    let mut s = 0.0;
                    for (j, &dj) in d.iter().enumerate().take(n) {
                        s += a.get(r, j) * dj * a.get(c, j);
                    }
                    g.set(r, c, s);
                    g.set(c, r, s);
                }
            }
            // Regularize slightly so rank-deficient systems stay solvable.
            for r in 0..m {
                g.set(r, r, g.get(r, r) + 1e-12);
            }
            // λ = G⁻¹ y in `m_scratch`.
            if let Err(e) = Lu::new(&g).and_then(|lu| lu.solve_into(y, &mut ws.m_scratch)) {
                return Err(SolverError::Linalg(e.to_string()));
            }
            // x_new = D Aᵀ λ, built in `x_alt` and swapped into `x`.
            a.matvec_transposed_into(&ws.m_scratch, &mut ws.grad);
            ws.x_alt.clear();
            ws.x_alt
                .extend(ws.grad.iter().zip(&ws.n_scratch).map(|(&v, &di)| di * v));

            let delta = vector::distance(&ws.x_alt, &ws.x);
            let scale = vector::norm2(&ws.x_alt).max(1e-12);
            std::mem::swap(&mut ws.x, &mut ws.x_alt);
            // ε decays with the current sparsity estimate (Chartrand-Yin
            // schedule): shrink once the iterate has stabilized.
            if delta <= 0.1 * scale {
                epsilon = (epsilon / 10.0).max(self.epsilon_floor);
            }
            if delta <= self.tolerance * scale && epsilon <= self.epsilon_floor * 1.01 {
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
        "irls"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn exact_recovery_noiseless() {
        let (m, n) = (20, 50);
        let a = bernoulli_matrix(m, n, 3);
        let mut theta = vec![0.0; n];
        theta[7] = 1.5;
        theta[31] = -2.0;
        let y = a.matvec(&theta);
        let rec = Irls::default().recover(&a, &y).unwrap();
        let d = vector::distance(&rec.solution, &theta);
        assert!(d < 1e-4, "IRLS recovery error {d}");
        assert!(rec.residual_norm < 1e-6);
    }

    #[test]
    fn recovers_known_theta_on_a_wide_instance() {
        let (m, n) = (16, 40);
        let a = bernoulli_matrix(m, n, 9);
        let mut theta = vec![0.0; n];
        theta[4] = 1.0;
        theta[22] = 0.7;
        let y = a.matvec(&theta);
        let irls = Irls::default().recover(&a, &y).unwrap();
        let d = vector::distance(&irls.solution, &theta);
        assert!(d < 1e-3, "IRLS recovery error {d}");
    }

    #[test]
    fn solution_is_feasible_even_unconverged() {
        let a = bernoulli_matrix(10, 30, 5);
        let mut theta = vec![0.0; 30];
        theta[2] = 1.0;
        let y = a.matvec(&theta);
        let rec = Irls::default()
            .with_max_iterations(3)
            .recover(&a, &y)
            .unwrap();
        // Each IRLS iterate satisfies Ax = y by construction.
        assert!(rec.residual_norm < 1e-8, "residual {}", rec.residual_norm);
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let a = bernoulli_matrix(8, 20, 1);
        let rec = Irls::default().recover(&a, &[0.0; 8]).unwrap();
        assert!(rec.solution.iter().all(|&x| x.abs() < 1e-9));
    }

    #[test]
    fn rejects_bad_tolerance_and_shapes() {
        assert!(Irls::default().with_tolerance(-1.0).is_err());
        let a = bernoulli_matrix(4, 8, 2);
        assert!(matches!(
            Irls::default().recover(&a, &[1.0; 3]),
            Err(SolverError::ShapeMismatch { .. })
        ));
    }
}
