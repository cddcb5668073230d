//! Orthogonal matching pursuit — a greedy sparse-recovery baseline.
//!
//! OMP repeatedly picks the column most correlated with the residual and
//! re-fits by least squares over the selected atoms. It is much cheaper
//! than the convex programs and serves both as a cross-check in tests and
//! as an ablation point in the benches (greedy vs ℓ1 inside the CrowdWiFi
//! pipeline).

use crate::{validate_problem, Recovery, Result, SparseRecovery};
use crowdwifi_linalg::vector;
use crowdwifi_linalg::{Matrix, QrDecomposition};

/// Orthogonal matching pursuit solver.
///
/// Stops when `max_atoms` columns are selected or the residual norm falls
/// below `1e-6 · ‖y‖₂`.
///
/// # Example
///
/// ```
/// use crowdwifi_linalg::Matrix;
/// use crowdwifi_sparsesolve::{omp::Omp, SparseRecovery};
///
/// let a = Matrix::identity(4);
/// let rec = Omp::new(2).recover(&a, &[0.0, 3.0, 0.0, 0.0])?;
/// assert_eq!(rec.support(0.5), vec![1]);
/// # Ok::<(), crowdwifi_sparsesolve::SolverError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Omp {
    max_atoms: usize,
}

/// Relative residual norm `‖r‖₂ / ‖y‖₂` at which OMP stops selecting.
const RESIDUAL_TOLERANCE: f64 = 1e-6;

impl Omp {
    /// Creates an OMP solver selecting at most `max_atoms` columns.
    pub fn new(max_atoms: usize) -> Self {
        Omp {
            max_atoms: max_atoms.max(1),
        }
    }
}

impl SparseRecovery for Omp {
    fn recover(&self, a: &Matrix, y: &[f64]) -> Result<Recovery> {
        validate_problem(a, y)?;
        let n = a.cols();
        let m = a.rows();
        let ynorm = vector::norm2(y);

        let mut selected: Vec<usize> = Vec::new();
        let mut residual = y.to_vec();
        let mut coeffs: Vec<f64> = Vec::new();
        let budget = self.max_atoms.min(m).min(n);
        let mut iterations = 0;

        // Column norms for normalized correlation (guard zero columns).
        let col_norms: Vec<f64> = (0..n).map(|c| vector::norm2(&a.col(c))).collect();

        while selected.len() < budget {
            if vector::norm2(&residual) <= RESIDUAL_TOLERANCE * ynorm.max(1e-300) {
                break;
            }
            iterations += 1;
            // Most correlated unselected column.
            let corr = a.matvec_transposed(&residual);
            let mut best: Option<(usize, f64)> = None;
            for (c, &x) in corr.iter().enumerate() {
                if selected.contains(&c) || col_norms[c] == 0.0 {
                    continue;
                }
                let score = x.abs() / col_norms[c];
                if best.is_none_or(|(_, b)| score > b) {
                    best = Some((c, score));
                }
            }
            let Some((best_col, best_score)) = best else {
                break;
            };
            if best_score == 0.0 {
                break;
            }
            selected.push(best_col);

            // Least-squares refit on the selected atoms.
            let sub = a.select_cols(&selected);
            let qr = QrDecomposition::new(&sub);
            match qr.solve_least_squares(y) {
                Ok(c) => coeffs = c,
                Err(_) => {
                    // Newly added atom made the subproblem singular —
                    // drop it and stop.
                    selected.pop();
                    break;
                }
            }
            let fitted = sub.matvec(&coeffs);
            residual = vector::sub(y, &fitted);
        }

        let mut solution = vec![0.0; n];
        for (&idx, &c) in selected.iter().zip(&coeffs) {
            solution[idx] = c;
        }
        let residual_norm = vector::norm2(&residual);
        Ok(Recovery {
            solution,
            iterations,
            residual_norm,
            converged: residual_norm <= RESIDUAL_TOLERANCE * ynorm.max(1e-300)
                || selected.len() == budget,
            // OMP is budget-driven, not tolerance-driven: no
            // early-stopping headroom applies.
            iterations_saved: 0,
        })
    }

    fn name(&self) -> &'static str {
        "omp"
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
    fn exact_recovery_with_orthogonal_columns() {
        let a = Matrix::identity(6);
        let y = [0.0, 0.0, 2.0, 0.0, -1.0, 0.0];
        let rec = Omp::new(3).recover(&a, &y).unwrap();
        assert!((rec.solution[2] - 2.0).abs() < 1e-12);
        assert!((rec.solution[4] + 1.0).abs() < 1e-12);
        assert!(rec.residual_norm < 1e-10);
    }

    #[test]
    fn recovers_random_sparse_signal() {
        let (m, n) = (20, 60);
        let a = bernoulli_matrix(m, n, 17);
        let mut theta = vec![0.0; n];
        theta[12] = 1.0;
        theta[45] = 2.0;
        let y = a.matvec(&theta);
        let rec = Omp::new(2).recover(&a, &y).unwrap();
        let mut supp = rec.support(0.3);
        supp.sort_unstable();
        assert_eq!(supp, vec![12, 45]);
        assert!(vector::distance(&rec.solution, &theta) < 1e-8);
    }

    #[test]
    fn atom_budget_respected() {
        let a = bernoulli_matrix(10, 30, 23);
        let mut theta = vec![0.0; 30];
        for i in [1, 5, 9, 13] {
            theta[i] = 1.0;
        }
        let y = a.matvec(&theta);
        let rec = Omp::new(2).recover(&a, &y).unwrap();
        assert!(rec.support(1e-9).len() <= 2);
    }

    #[test]
    fn zero_rhs_selects_nothing() {
        let a = bernoulli_matrix(8, 16, 2);
        let rec = Omp::new(4).recover(&a, &[0.0; 8]).unwrap();
        assert!(rec.solution.iter().all(|&x| x == 0.0));
        assert!(rec.converged);
    }
}
