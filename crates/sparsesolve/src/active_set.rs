//! Exact active-set solver for the non-negative LASSO.
//!
//! Solves `min_θ ½‖Aθ − y‖₂² + λ·1ᵀθ` subject to `θ ≥ 0` — the program
//! [`crate::Fista`] approximates in its default (non-negative)
//! configuration, with the same data-scaled weight
//! `λ = λ_rel·‖Aᵀy‖∞` — by the Lawson–Hanson active-set method
//! (*Solving Least Squares Problems*, 1974, ch. 23), extended with the
//! linear ℓ1 term.
//!
//! The method keeps a *passive set* `P` of columns allowed to be
//! positive; every other coefficient is pinned at zero. Each outer step
//! prices the columns outside `P` by their KKT violation
//! `w_j = (Aᵀr)_j − λ` (with `r = y − Aθ`), moves the most violated one
//! into `P`, and re-solves the equality-constrained subproblem
//! `(A_PᵀA_P) z = A_Pᵀy − λ·1` through a Cholesky factorization of the
//! passive Gram matrix. When `z` leaves the feasible set, the iterate
//! steps back along the segment towards `z` until the first coordinate
//! hits zero, and that column leaves `P` (the Lawson–Hanson step-back).
//! On the CS pipeline's per-window group programs — around ten rows
//! against a couple of hundred columns, with supports of a few columns —
//! this terminates in a handful of pivots where proximal gradient needs
//! hundreds of iterations.
//!
//! The answer is **certified** by the KKT conditions: on exit every
//! passive coefficient is positive and solves its subproblem exactly,
//! and no column outside `P` violates `(Aᵀr)_j − λ ≤ tol`, with
//! `tol = KKT_TOLERANCE·‖Aᵀy‖∞`. A solve that cannot certify within its pivot
//! budget of `3·rows + 10` reports `converged: false` so the
//! caller can fall back to an iterative solver.
//!
//! Two rules keep the pivoting finite on near-degenerate operators (the
//! pipeline's 8 m lattice puts near-duplicate signatures side by side):
//!
//! * **Dependent entries exchange.** With the ℓ1 term, a column lying in
//!   the span of the passive columns (`a_j = A_P c`) can still violate
//!   KKT when `1ᵀc > 1`: it explains the same data with less ℓ1 mass.
//!   Such a column is detected by a vanishing Cholesky pivot and enters
//!   by a simplex-style exchange — mass shifts from `A_P c` to `a_j`
//!   until the first passive coefficient reaches zero and leaves.
//! * **A column that cannot take mass is barred.** If the first
//!   subproblem solved after a column enters gives it a non-positive
//!   coefficient (possible only through rounding when its violation is
//!   tiny), it leaves again at once and is not priced until the passive
//!   set next changes. A barred column that still violates KKT when
//!   pricing finds nothing else leaves the solve uncertified.
//!
//! Ties — in pricing and in the step-back — go to the lowest column
//! index, so the result is a deterministic function of `(A, y)`.

// Index loops over the small passive-set factor mirror the textbook
// triangular solves; iterator rewrites obscure them.
#![allow(clippy::needless_range_loop)]

use crate::{validate_problem, Recovery, Result, SparseRecovery};
use crowdwifi_linalg::vector;
use crowdwifi_linalg::Matrix;

/// The regularization weight relative to `‖Aᵀy‖_∞` (the smallest λ for
/// which the solution is identically zero) — the default of
/// [`crate::Fista`].
pub const LAMBDA_REL: f64 = 0.01;

/// The KKT certification tolerance relative to `‖Aᵀy‖_∞`, a tenth of
/// λ: a solve certifies once no column outside the passive set has
/// `(Aᵀr)_j − λ > KKT_TOLERANCE·‖Aᵀy‖∞`. Much tighter values make
/// rounding-level violations among near-duplicate columns keep pivoting
/// until the budget runs out.
pub const KKT_TOLERANCE: f64 = 1e-3;

/// A Cholesky pivot below this fraction of the entering column's squared
/// norm marks the column as linearly dependent on the passive set.
const DEPENDENT_PIVOT_REL: f64 = 1e-9;

/// Exact active-set solver for the non-negative LASSO (see the module
/// docs for the method and its certificate).
///
/// # Example
///
/// ```
/// use crowdwifi_linalg::Matrix;
/// use crowdwifi_sparsesolve::{ActiveSet, SparseRecovery};
///
/// let a = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 1.0, 1.0]]);
/// let rec = ActiveSet::default().recover(&a, &[2.0, 0.0])?;
/// assert!(rec.converged, "the KKT certificate holds");
/// assert_eq!(rec.support(0.1), vec![0]);
/// # Ok::<(), crowdwifi_sparsesolve::SolverError>(())
/// ```
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct ActiveSet {}

impl SparseRecovery for ActiveSet {
    fn recover(&self, a: &Matrix, y: &[f64]) -> Result<Recovery> {
        validate_problem(a, y)?;
        let n = a.cols();
        let b = a.matvec_transposed(y);
        let b_max = vector::norm_inf(&b);
        let finite = b.iter().all(|v| v.is_finite());
        if !finite || b_max == 0.0 {
            // `Aᵀy = 0` makes θ = 0 optimal (λ = 0 then, and every KKT
            // violation is zero); non-finite data cannot be certified.
            return Ok(Recovery {
                solution: vec![0.0; n],
                iterations: 0,
                residual_norm: vector::norm2(y),
                converged: finite,
                iterations_saved: 0,
            });
        }
        let mut solve = Solve::new(a, y, b, LAMBDA_REL * b_max);
        // Pivots counted: entries, exchanges and step-back removals.
        let converged = solve.run(KKT_TOLERANCE * b_max, 3 * a.rows() + 10);
        Ok(Recovery {
            residual_norm: vector::norm2(&solve.r),
            solution: solve.x,
            iterations: solve.pivots,
            converged,
            iterations_saved: 0,
        })
    }

    fn name(&self) -> &'static str {
        "active_set"
    }
}

/// State of one active-set solve.
struct Solve<'a> {
    a: &'a Matrix,
    y: &'a [f64],
    /// `Aᵀy`.
    b: Vec<f64>,
    lambda: f64,
    /// Current iterate; zero outside the passive set.
    x: Vec<f64>,
    /// Residual `y − Ax`.
    r: Vec<f64>,
    /// `Aᵀr`, refreshed by each pricing pass.
    correlations: Vec<f64>,
    /// Passive columns, in entry order.
    passive: Vec<usize>,
    /// Contiguous copies of the passive columns of `A`, aligned with
    /// `passive`.
    cols: Vec<Vec<f64>>,
    in_passive: Vec<bool>,
    /// Row-major lower-triangular Cholesky factor of `A_PᵀA_P`,
    /// `passive.len()` rows of stride `passive.len()`.
    chol: Vec<f64>,
    pivots: usize,
}

/// How a priced column joined the passive set.
enum Entry {
    /// Independent of the passive columns: appended, iterate unchanged.
    Appended,
    /// Dependent: exchanged in, mass moved onto it from the passive set.
    Exchanged,
    /// Dependent without an ℓ1 saving: refused.
    Refused,
}

impl<'a> Solve<'a> {
    fn new(a: &'a Matrix, y: &'a [f64], b: Vec<f64>, lambda: f64) -> Self {
        let n = a.cols();
        Solve {
            a,
            y,
            b,
            lambda,
            x: vec![0.0; n],
            r: y.to_vec(),
            correlations: Vec::with_capacity(n),
            passive: Vec::new(),
            cols: Vec::new(),
            in_passive: vec![false; n],
            chol: Vec::new(),
            pivots: 0,
        }
    }

    /// Pivots until the KKT certificate holds (`true`) or the budget or
    /// a numerical breakdown stops the solve (`false`).
    fn run(&mut self, tol: f64, budget: usize) -> bool {
        let n = self.x.len();
        let mut barred: Vec<usize> = Vec::new();
        loop {
            // Pricing: the most violated KKT condition outside P.
            self.a
                .matvec_transposed_into(&self.r, &mut self.correlations);
            let mut best: Option<(usize, f64)> = None;
            let mut barred_violation = false;
            for j in 0..n {
                if self.in_passive[j] {
                    continue;
                }
                let w = self.correlations[j] - self.lambda;
                if w <= tol {
                    continue;
                }
                if barred.contains(&j) {
                    barred_violation = true;
                } else if best.is_none_or(|(_, bw)| w > bw) {
                    best = Some((j, w));
                }
            }
            let Some((j, _)) = best else {
                return !barred_violation;
            };
            if self.pivots >= budget {
                return false;
            }
            self.pivots += 1;
            let Some(entry) = self.enter(j) else {
                return false;
            };
            if matches!(entry, Entry::Refused) {
                barred.push(j);
                continue;
            }
            // Inner loop: re-solve the passive subproblem, stepping back
            // whenever its solution leaves the feasible set.
            let mut fresh = matches!(entry, Entry::Appended);
            loop {
                let Some(z) = self.subproblem() else {
                    return false;
                };
                if z.iter().all(|&v| v > 0.0) {
                    for (&p, &v) in self.passive.iter().zip(&z) {
                        self.x[p] = v;
                    }
                    barred.clear();
                    break;
                }
                let last = self.passive.len() - 1;
                if fresh && z[last] <= 0.0 {
                    // The entering column cannot take mass: undo the
                    // entry (the iterate never moved) and bar it.
                    self.in_passive[j] = false;
                    self.passive.pop();
                    self.cols.pop();
                    self.chol = self.truncated_factor(last);
                    barred.push(j);
                    break;
                }
                fresh = false;
                if self.pivots >= budget {
                    return false;
                }
                self.pivots += 1;
                if self.step_back(&z).is_none() {
                    return false;
                }
            }
            self.update_residual();
        }
    }

    /// Moves column `j` into the passive set. `None` signals a
    /// numerical breakdown of the factorization.
    fn enter(&mut self, j: usize) -> Option<Entry> {
        let k = self.passive.len();
        let aj = self.a.col(j);
        let norm_sq = vector::dot(&aj, &aj);
        // s = L⁻¹ A_Pᵀ a_j, the new factor row (forward substitution).
        let mut s: Vec<f64> = self.cols.iter().map(|c| vector::dot(c, &aj)).collect();
        for i in 0..k {
            let acc = s[i] - vector::dot(&self.chol[i * k..i * k + i], &s[..i]);
            s[i] = acc / self.chol[i * k + i];
        }
        let pivot_sq = norm_sq - vector::dot(&s, &s);
        if pivot_sq > DEPENDENT_PIVOT_REL * norm_sq {
            let mut chol = vec![0.0; (k + 1) * (k + 1)];
            for i in 0..k {
                chol[i * (k + 1)..i * (k + 1) + i + 1]
                    .copy_from_slice(&self.chol[i * k..i * k + i + 1]);
            }
            chol[k * (k + 1)..k * (k + 1) + k].copy_from_slice(&s);
            chol[k * (k + 1) + k] = pivot_sq.sqrt();
            self.chol = chol;
            self.passive.push(j);
            self.cols.push(aj);
            self.in_passive[j] = true;
            return Some(Entry::Appended);
        }
        // a_j ≈ A_P c with c = L⁻ᵀ s. Moving t units of mass onto a_j
        // and off A_P c keeps Aθ and changes the ℓ1 term by t(1 − 1ᵀc).
        let c = self.back_substitute(s);
        if c.iter().sum::<f64>() <= 1.0 {
            return Some(Entry::Refused);
        }
        let mut step = f64::INFINITY;
        let mut leaving = usize::MAX;
        for (i, &p) in self.passive.iter().enumerate() {
            if c[i] > 0.0 {
                let t = self.x[p] / c[i];
                if t < step || (t == step && p < self.passive[leaving]) {
                    step = t;
                    leaving = i;
                }
            }
        }
        for (i, &p) in self.passive.iter().enumerate() {
            self.x[p] = if i == leaving {
                0.0
            } else {
                (self.x[p] - step * c[i]).max(0.0)
            };
        }
        self.x[j] = step;
        self.passive.push(j);
        self.cols.push(aj);
        self.in_passive[j] = true;
        self.drop_zeros()?;
        Some(Entry::Exchanged)
    }

    /// Solves the passive subproblem `L Lᵀ z = A_Pᵀy − λ·1`; `None` if
    /// the solution is not finite.
    fn subproblem(&self) -> Option<Vec<f64>> {
        let k = self.passive.len();
        let mut z: Vec<f64> = self
            .passive
            .iter()
            .map(|&p| self.b[p] - self.lambda)
            .collect();
        for i in 0..k {
            let acc = z[i] - vector::dot(&self.chol[i * k..i * k + i], &z[..i]);
            z[i] = acc / self.chol[i * k + i];
        }
        let z = self.back_substitute(z);
        z.iter().all(|v| v.is_finite()).then_some(z)
    }

    /// Solves `Lᵀ c = s` in place.
    fn back_substitute(&self, mut s: Vec<f64>) -> Vec<f64> {
        let k = self.passive.len();
        for i in (0..k).rev() {
            let mut acc = s[i];
            for l in i + 1..k {
                acc -= self.chol[l * k + i] * s[l];
            }
            s[i] = acc / self.chol[i * k + i];
        }
        s
    }

    /// The Lawson–Hanson step-back: moves the iterate from `x_P` towards
    /// the infeasible subproblem solution `z` until the first passive
    /// coefficient reaches zero, then drops every zeroed column. `None`
    /// if the smaller factorization breaks down.
    fn step_back(&mut self, z: &[f64]) -> Option<()> {
        let mut alpha = f64::INFINITY;
        let mut leaving = usize::MAX;
        for (i, &p) in self.passive.iter().enumerate() {
            if z[i] <= 0.0 {
                let t = self.x[p] / (self.x[p] - z[i]);
                if t < alpha || (t == alpha && p < self.passive[leaving]) {
                    alpha = t;
                    leaving = i;
                }
            }
        }
        for (i, &p) in self.passive.iter().enumerate() {
            self.x[p] = if i == leaving {
                0.0
            } else {
                (self.x[p] + alpha * (z[i] - self.x[p])).max(0.0)
            };
        }
        self.drop_zeros()
    }

    /// Removes zero coefficients from the passive set and refactors the
    /// (smaller) Gram matrix; `None` if the refactorization breaks down.
    fn drop_zeros(&mut self) -> Option<()> {
        let mut kept = 0;
        for i in 0..self.passive.len() {
            let p = self.passive[i];
            let keep = self.x[p] > 0.0;
            self.in_passive[p] = keep;
            if keep {
                self.passive.swap(kept, i);
                self.cols.swap(kept, i);
                kept += 1;
            }
        }
        self.passive.truncate(kept);
        self.cols.truncate(kept);
        self.refactor()
    }

    /// Rebuilds the Cholesky factor of `A_PᵀA_P` from scratch.
    fn refactor(&mut self) -> Option<()> {
        let k = self.passive.len();
        let mut chol = vec![0.0; k * k];
        for i in 0..k {
            let ai = &self.cols[i];
            for l in 0..=i {
                let g = vector::dot(ai, &self.cols[l]);
                let acc = g - vector::dot(&chol[i * k..i * k + l], &chol[l * k..l * k + l]);
                if l == i {
                    if acc.is_nan() || acc <= DEPENDENT_PIVOT_REL * g {
                        return None;
                    }
                    chol[i * k + i] = acc.sqrt();
                } else {
                    chol[i * k + l] = acc / chol[l * k + l];
                }
            }
        }
        self.chol = chol;
        Some(())
    }

    /// The factor of the first `k` passive columns: the leading block of
    /// the current `(k + 1)`-column factor, restrided.
    fn truncated_factor(&self, k: usize) -> Vec<f64> {
        let old = k + 1;
        let mut chol = vec![0.0; k * k];
        for i in 0..k {
            chol[i * k..i * k + i + 1].copy_from_slice(&self.chol[i * old..i * old + i + 1]);
        }
        chol
    }

    /// Recomputes `r = y − A_P x_P` from scratch.
    fn update_residual(&mut self) {
        self.r.clear();
        self.r.extend_from_slice(self.y);
        for (&p, col) in self.passive.iter().zip(&self.cols) {
            vector::axpy(-self.x[p], col, &mut self.r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fista, SolverError};

    fn objective(a: &Matrix, y: &[f64], x: &[f64], lambda: f64) -> f64 {
        let r = vector::sub(y, &a.matvec(x));
        0.5 * vector::dot(&r, &r) + lambda * vector::norm1(x)
    }

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
    fn identity_operator_is_soft_thresholding() {
        let a = Matrix::identity(4);
        let y = [0.0, 5.0, -1.0, 3.0];
        let rec = ActiveSet::default().recover(&a, &y).unwrap();
        assert!(rec.converged);
        // λ = 0.01·5; the negative entry stays at zero.
        let expect = [0.0, 5.0 - 0.05, 0.0, 3.0 - 0.05];
        for (x, e) in rec.solution.iter().zip(expect) {
            assert!((x - e).abs() < 1e-12, "{:?}", rec.solution);
        }
        assert_eq!(rec.iterations, 2);
    }

    #[test]
    fn matches_a_long_fista_run() {
        let (m, n) = (20, 64);
        let a = bernoulli_matrix(m, n, 11);
        let mut theta = vec![0.0; n];
        theta[4] = 1.0;
        theta[33] = 0.7;
        theta[50] = 1.3;
        let y = a.matvec(&theta);
        let rec = ActiveSet::default().recover(&a, &y).unwrap();
        assert!(rec.converged);
        let reference = Fista::default()
            .with_max_iterations(50_000)
            .with_tolerance(0.0)
            .unwrap()
            .recover(&a, &y)
            .unwrap();
        let lambda = LAMBDA_REL * vector::norm_inf(&a.matvec_transposed(&y));
        let ours = objective(&a, &y, &rec.solution, lambda);
        let theirs = objective(&a, &y, &reference.solution, lambda);
        assert!(
            (ours - theirs).abs() <= 1e-6 * theirs,
            "active set {ours} vs FISTA {theirs}"
        );
        let mut supp = rec.support(0.3);
        supp.sort_unstable();
        assert_eq!(supp, vec![4, 33, 50]);
    }

    /// Both solvers pose the same LASSO (`λ` from [`LAMBDA_REL`]), so a
    /// default FISTA run must land next to the exact solution.
    #[test]
    fn active_set_and_fista_agree() {
        let a = bernoulli_matrix(20, 40, 9);
        let mut theta = vec![0.0; 40];
        theta[7] = 1.0;
        theta[22] = 1.0;
        let y = a.matvec(&theta);
        let f = Fista::default().recover(&a, &y).unwrap();
        let s = ActiveSet::default().recover(&a, &y).unwrap();
        let d = vector::distance(&f.solution, &s.solution);
        assert!(d < 1e-2, "solver disagreement {d}");
    }

    #[test]
    fn zero_inputs_certify_the_zero_solution() {
        let a = bernoulli_matrix(6, 12, 3);
        let rec = ActiveSet::default().recover(&a, &[0.0; 6]).unwrap();
        assert!(rec.converged);
        assert_eq!(rec.solution, vec![0.0; 12]);
        let zero = Matrix::zeros(3, 5);
        let rec = ActiveSet::default().recover(&zero, &[1.0; 3]).unwrap();
        assert!(rec.converged);
        assert!((rec.residual_norm - 3f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn non_finite_data_is_not_certified() {
        let a = Matrix::identity(3);
        let rec = ActiveSet::default()
            .recover(&a, &[1.0, f64::NAN, 0.0])
            .unwrap();
        assert!(!rec.converged);
        assert!(rec.solution.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn single_row_puts_all_mass_on_the_strongest_column() {
        let a = Matrix::from_rows(&[&[0.5, 2.0, 2.0, 1.0]]);
        let rec = ActiveSet::default().recover(&a, &[4.0]).unwrap();
        assert!(rec.converged);
        // Ties between the duplicate columns 1 and 2 go to the lower index.
        assert_eq!(rec.support(1e-12), vec![1]);
    }

    #[test]
    fn dependent_column_enters_by_exchange() {
        // Column 2 is 0.6·(column 0 + column 1). Once both unit columns
        // are passive it explains their data with 1.2x less ℓ1 mass, so
        // it must replace the weaker one through the exchange.
        let a = Matrix::from_rows(&[&[1.0, 0.0, 0.6], &[0.0, 1.0, 0.6]]);
        let rec = ActiveSet::default().recover(&a, &[1.0, 0.2]).unwrap();
        assert!(rec.converged);
        let mut supp = rec.support(1e-9);
        supp.sort_unstable();
        assert_eq!(supp, vec![0, 2]);
        assert!(
            (rec.solution[0] - 0.79666).abs() < 1e-4,
            "{:?}",
            rec.solution
        );
    }

    #[test]
    fn exhausted_budget_is_reported_uncertified() {
        let a = bernoulli_matrix(20, 64, 11);
        let mut theta = vec![0.0; 64];
        theta[4] = 1.0;
        theta[33] = 0.7;
        let y = a.matvec(&theta);
        let b = a.matvec_transposed(&y);
        let b_max = vector::norm_inf(&b);
        // Two planted columns need at least two entries: one pivot
        // cannot certify.
        let mut solve = Solve::new(&a, &y, b, LAMBDA_REL * b_max);
        assert!(!solve.run(KKT_TOLERANCE * b_max, 1));
        assert_eq!(solve.pivots, 1);
        assert!(solve.x.iter().all(|&v| v >= 0.0));
        let mut solve = Solve::new(&a, &y, a.matvec_transposed(&y), LAMBDA_REL * b_max);
        assert!(solve.run(KKT_TOLERANCE * b_max, 3 * 20 + 10));
    }

    #[test]
    fn rejects_shape_mismatch() {
        assert!(matches!(
            ActiveSet::default().recover(&Matrix::zeros(2, 3), &[1.0]),
            Err(SolverError::ShapeMismatch { .. })
        ));
    }
}
