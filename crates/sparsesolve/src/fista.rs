//! ISTA / FISTA proximal-gradient solvers for the LASSO program.
//!
//! Solves `min_θ ½‖Aθ − y‖₂² + λ‖θ‖₁`, optionally with a `θ ≥ 0`
//! constraint. FISTA adds Nesterov momentum for an `O(1/k²)` rate, which
//! matters in the online pipeline where each sliding-window round solves
//! many small programs.

use crate::prox::{soft_threshold_nonneg_vec, soft_threshold_vec};
use crate::screen::{duality_gap, screen_columns};
use crate::{
    spectral_norm_sq, validate_problem, Recovery, Result, SolverError, SolverWorkspace,
    SparseRecovery,
};
use crowdwifi_linalg::vector;
use crowdwifi_linalg::Matrix;

/// How often (in iterations) the accelerated path evaluates the duality
/// gap and re-runs the screening test. The check costs two matrix–vector
/// products, so it is amortized over several cheap proximal steps.
const GAP_CHECK_EVERY: usize = 10;

/// Momentum variant used by [`Fista`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Acceleration {
    /// Plain ISTA (no momentum).
    None,
    /// Nesterov momentum (classic FISTA).
    #[default]
    Nesterov,
}

/// Proximal-gradient LASSO solver.
///
/// The default configuration matches what the CrowdWiFi pipeline needs:
/// accelerated, non-negative (AP indicators cannot be negative) and with a
/// data-scaled regularization weight.
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
    nonnegative: bool,
    acceleration: Acceleration,
    // Acceleration features, all off by default: the default solver
    // follows the classic iterate path bit-for-bit (the throughput
    // bench asserts this against a frozen seed implementation).
    screening: bool,
    gap_tolerance: f64,
    gram: bool,
    lipschitz: Option<f64>,
}

impl Default for Fista {
    fn default() -> Self {
        Fista {
            // Shared with the active set, whose uncertified solves the
            // pipeline re-solves on FISTA: both must pose the same LASSO.
            lambda_rel: crate::active_set::LAMBDA_REL,
            max_iterations: 2000,
            tolerance: 1e-8,
            nonnegative: true,
            acceleration: Acceleration::Nesterov,
            screening: false,
            gap_tolerance: 0.0,
            gram: false,
            lipschitz: None,
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

    /// Enables or disables the `θ ≥ 0` constraint (default: enabled).
    pub fn with_nonnegative(mut self, nonnegative: bool) -> Self {
        self.nonnegative = nonnegative;
        self
    }

    /// Selects the momentum variant (default: Nesterov / FISTA).
    pub fn with_acceleration(mut self, acceleration: Acceleration) -> Self {
        self.acceleration = acceleration;
        self
    }

    /// Enables gap-safe screening (default: off): columns provably
    /// outside every optimal support are removed before and during the
    /// iteration, shrinking the per-step work without changing the
    /// optimum (see the crate's `screen` module for the rule).
    pub fn with_screening(mut self, screening: bool) -> Self {
        self.screening = screening;
        self
    }

    /// Enables duality-gap early stopping (default: off / `0.0`): the
    /// solve stops once `gap ≤ tol · primal`, a rigorous suboptimality
    /// certificate, typically long before the relative-change rule
    /// fires. `0.0` disables the check.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidParameter`] for negative or
    /// non-finite values.
    pub fn with_gap_tolerance(mut self, tol: f64) -> Result<Self> {
        if !(tol >= 0.0 && tol.is_finite()) {
            return Err(SolverError::InvalidParameter {
                name: "gap_tolerance",
                reason: format!("must be non-negative and finite, got {tol}"),
            });
        }
        self.gap_tolerance = tol;
        Ok(self)
    }

    /// Enables the Gram-matrix gradient path (default: off): `AᵀA` and
    /// `Aᵀy` are built once per solve and each gradient becomes the
    /// fused update `Gz − Aᵀy`, which skips the rows of `G` whose
    /// coefficient is zero — after thresholding the iterate is sparse,
    /// so most rows are skipped. Wins when iterations ≫ columns and
    /// compounds with screening (the Gram shrinks with the active set).
    /// The solver only routes gradients through the Gram while the
    /// active set is at most twice as wide as the measurement count —
    /// wider systems stay on the cheaper two-pass gradient until
    /// screening narrows them into the profitable regime.
    pub fn with_gram(mut self, gram: bool) -> Self {
        self.gram = gram;
        self
    }

    /// Overrides the Lipschitz constant `L = ‖A‖₂²` of the smooth part
    /// (default: estimated by 30 power iterations per solve). The
    /// pipeline's orthogonalized operators (Proposition 1) have
    /// orthonormal rows, hence exactly `L = 1` — passing it skips the
    /// estimation entirely.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::InvalidParameter`] unless `0 < l < ∞`.
    pub fn with_fixed_lipschitz(mut self, l: f64) -> Result<Self> {
        if !(l > 0.0 && l.is_finite()) {
            return Err(SolverError::InvalidParameter {
                name: "lipschitz",
                reason: format!("must be positive and finite, got {l}"),
            });
        }
        self.lipschitz = Some(l);
        Ok(self)
    }

    /// Whether the cached-Gram gradient pays for the current compacted
    /// shape. A Gram step costs `n²` flops against `2·m·n` for the
    /// two-pass gradient, so on the pipeline's wide systems (m ≪ n) it
    /// is a pessimization until screening has shrunk the active set;
    /// re-evaluated after every compaction so a solve can start on the
    /// two-pass path and switch to the Gram once it becomes narrow.
    fn gram_pays(&self, a_act: &Matrix) -> bool {
        self.gram && a_act.cols() <= 2 * a_act.rows()
    }

    /// Whether any acceleration feature (or a pending warm start in
    /// `ws`) routes this solve through the accelerated path.
    fn accelerated(&self, ws: &SolverWorkspace) -> bool {
        self.screening
            || self.gap_tolerance > 0.0
            || self.gram
            || self.lipschitz.is_some()
            || ws.has_warm_start()
    }
}

impl SparseRecovery for Fista {
    fn recover(&self, a: &Matrix, y: &[f64]) -> Result<Recovery> {
        self.recover_with(a, y, &mut SolverWorkspace::new())
    }

    fn recover_with(&self, a: &Matrix, y: &[f64], ws: &mut SolverWorkspace) -> Result<Recovery> {
        validate_problem(a, y)?;
        if self.accelerated(ws) {
            self.recover_accel(a, y, ws)
        } else {
            self.recover_classic(a, y, ws)
        }
    }

    fn recover_multi(
        &self,
        a: &Matrix,
        ys: &[Vec<f64>],
        ws: &mut SolverWorkspace,
    ) -> Result<Vec<Recovery>> {
        ws.clear_warm_start();
        for y in ys {
            validate_problem(a, y)?;
        }
        if ys.is_empty() {
            return Ok(Vec::new());
        }
        if self.screening {
            // Screening compacts a per-column active set, so the columns
            // stop sharing one operator after the first drop; fall back
            // to the per-column loop (each solve keeps its own
            // screening benefit).
            return ys.iter().map(|y| self.recover_with(a, y, ws)).collect();
        }
        self.recover_lockstep(a, ys, ws)
    }

    fn name(&self) -> &'static str {
        match self.acceleration {
            Acceleration::Nesterov => "fista",
            Acceleration::None => "ista",
        }
    }
}

impl Fista {
    /// The classic iterate path: bit-for-bit the historical solver, so
    /// the default configuration stays byte-identical to the frozen
    /// seed baseline asserted by the throughput bench.
    fn recover_classic(&self, a: &Matrix, y: &[f64], ws: &mut SolverWorkspace) -> Result<Recovery> {
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
                screened_cols: 0,
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
            if self.nonnegative {
                soft_threshold_nonneg_vec(&mut ws.x_alt, step * lambda);
            } else {
                soft_threshold_vec(&mut ws.x_alt, step * lambda);
            }

            // Relative change stopping rule.
            let delta = vector::distance(&ws.x_alt, &ws.x);
            let scale = vector::norm2(&ws.x_alt).max(1e-12);

            match self.acceleration {
                Acceleration::Nesterov => {
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
                }
                Acceleration::None => {
                    ws.z.clear();
                    ws.z.extend_from_slice(&ws.x_alt);
                }
            }
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
            screened_cols: 0,
            iterations_saved: if converged {
                self.max_iterations - iterations
            } else {
                0
            },
        })
    }

    /// The accelerated path: warm starts, gap-safe screening with a
    /// compacted active set, optional Gram gradient, optional fixed
    /// Lipschitz constant and duality-gap early stopping. Minimizes the
    /// same objective as the classic path — a different iterate route
    /// to the same optimum — so recovered supports are unchanged.
    fn recover_accel(&self, a: &Matrix, y: &[f64], ws: &mut SolverWorkspace) -> Result<Recovery> {
        let n = a.cols();
        let warm = ws.take_warm_start(n);

        let lipschitz = match self.lipschitz {
            Some(l) => l,
            None => spectral_norm_sq(a, 30) * 1.02,
        };
        if lipschitz == 0.0 {
            return Ok(Recovery {
                solution: vec![0.0; n],
                iterations: 0,
                residual_norm: vector::norm2(y),
                converged: true,
                screened_cols: 0,
                iterations_saved: 0,
            });
        }
        let step = 1.0 / lipschitz;

        // λ relative to ‖Aᵀy‖_∞, exactly as the classic path.
        let b_full = a.matvec_transposed(y);
        let lambda = self.lambda_rel * vector::norm_inf(&b_full);

        // Warm seed (projected onto the feasible set, non-finite → 0);
        // cold start is the zero vector.
        let mut x_full = warm.unwrap_or_else(|| vec![0.0; n]);
        for v in &mut x_full {
            if !v.is_finite() || (self.nonnegative && *v < 0.0) {
                *v = 0.0;
            }
        }

        // Initial gap + screening at x⁰. For a cold start the residual
        // is y and the correlations are Aᵀy (already computed); a warm
        // start pays two matvecs but its small gap screens far harder.
        let mut active: Vec<usize> = (0..n).collect();
        let col_norms: Vec<f64> = if self.screening {
            (0..n).map(|c| vector::norm2(&a.col(c))).collect()
        } else {
            Vec::new()
        };
        if self.screening && lambda > 0.0 {
            let cold = x_full.iter().all(|&v| v == 0.0);
            let (r, atr) = if cold {
                (y.to_vec(), b_full.clone())
            } else {
                let ax = a.matvec(&x_full);
                let r: Vec<f64> = y.iter().zip(&ax).map(|(yi, vi)| yi - vi).collect();
                let atr = a.matvec_transposed(&r);
                (r, atr)
            };
            let gap = duality_gap(
                y,
                &r,
                &atr,
                vector::norm1(&x_full),
                lambda,
                self.nonnegative,
            );
            screen_columns(
                &mut active,
                &atr,
                &gap,
                &col_norms,
                lambda,
                self.nonnegative,
            );
        }

        // Compacted problem over the active columns. Rebuilt whenever
        // screening shrinks the active set further.
        let mut a_act = a.select_cols(&active);
        let mut b_act: Vec<f64> = active.iter().map(|&j| b_full[j]).collect();
        let mut g_act = self.gram_pays(&a_act).then(|| a_act.gram());
        ws.x.clear();
        ws.x.extend(active.iter().map(|&j| x_full[j]));
        ws.z.clear();
        ws.z.extend_from_slice(&ws.x);

        let mut t: f64 = 1.0;
        let mut iterations = 0;
        let mut converged = false;

        for k in 0..self.max_iterations {
            iterations = k + 1;
            // Gradient at z: Aᵀ(Az − y), or the fused Gram form Gz − b.
            match &g_act {
                Some(g) => g.matvec_transposed_sub_into(&ws.z, &b_act, &mut ws.grad),
                None => {
                    a_act.matvec_into(&ws.z, &mut ws.m_scratch);
                    vector::sub_into(&ws.m_scratch, y, &mut ws.m_scratch2);
                    a_act.matvec_transposed_into(&ws.m_scratch2, &mut ws.grad);
                }
            }
            ws.x_alt.clear();
            ws.x_alt.extend_from_slice(&ws.z);
            vector::axpy(-step, &ws.grad, &mut ws.x_alt);
            if self.nonnegative {
                soft_threshold_nonneg_vec(&mut ws.x_alt, step * lambda);
            } else {
                soft_threshold_vec(&mut ws.x_alt, step * lambda);
            }

            let delta = vector::distance(&ws.x_alt, &ws.x);
            let scale = vector::norm2(&ws.x_alt).max(1e-12);

            match self.acceleration {
                Acceleration::Nesterov => {
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
                }
                Acceleration::None => {
                    ws.z.clear();
                    ws.z.extend_from_slice(&ws.x_alt);
                }
            }
            std::mem::swap(&mut ws.x, &mut ws.x_alt);

            if delta <= self.tolerance * scale {
                converged = true;
                break;
            }

            // Periodic duality-gap check: rigorous early stopping and a
            // re-run of the screening test with the tightened gap.
            let check = self.gap_tolerance > 0.0 || self.screening;
            if check && iterations % GAP_CHECK_EVERY == 0 && lambda > 0.0 {
                a_act.matvec_into(&ws.x, &mut ws.m_scratch);
                // r = y − Ax lives in m_scratch2.
                vector::sub_into(y, &ws.m_scratch, &mut ws.m_scratch2);
                a_act.matvec_transposed_into(&ws.m_scratch2, &mut ws.n_scratch);
                let gap = duality_gap(
                    y,
                    &ws.m_scratch2,
                    &ws.n_scratch,
                    vector::norm1(&ws.x),
                    lambda,
                    self.nonnegative,
                );
                if self.gap_tolerance > 0.0
                    && gap.gap <= self.gap_tolerance * gap.primal.max(1e-300)
                {
                    converged = true;
                    break;
                }
                if self.screening {
                    let old_active = active.clone();
                    let dropped = screen_columns(
                        &mut active,
                        &ws.n_scratch,
                        &gap,
                        &col_norms,
                        lambda,
                        self.nonnegative,
                    );
                    if dropped > 0 {
                        // Compact the iterate and the momentum point to
                        // the surviving columns (the new active set is an
                        // ordered subsequence of the old one). Momentum
                        // is kept: the dropped coordinates are provably
                        // zero in every optimum, so zeroing them in `z`
                        // is a bounded perturbation, and the stopping
                        // rules (duality gap / relative change) certify
                        // the final iterate regardless of the momentum
                        // trajectory. Restarting here (z = x, t = 1) was
                        // measurably slower end to end.
                        let mut dst = 0;
                        for (i, &j) in old_active.iter().enumerate() {
                            if dst < active.len() && active[dst] == j {
                                ws.x[dst] = ws.x[i];
                                ws.z[dst] = ws.z[i];
                                dst += 1;
                            }
                        }
                        ws.x.truncate(active.len());
                        ws.z.truncate(active.len());
                        a_act = a.select_cols(&active);
                        b_act = active.iter().map(|&j| b_full[j]).collect();
                        g_act = self.gram_pays(&a_act).then(|| a_act.gram());
                    }
                }
            }
        }

        // Scatter back to the full column space.
        x_full.iter_mut().for_each(|v| *v = 0.0);
        for (i, &j) in active.iter().enumerate() {
            x_full[j] = ws.x[i];
        }
        a.matvec_into(&x_full, &mut ws.m_scratch);
        vector::sub_into(&ws.m_scratch, y, &mut ws.m_scratch2);
        let residual_norm = vector::norm2(&ws.m_scratch2);
        Ok(Recovery {
            solution: x_full,
            iterations,
            residual_norm,
            converged,
            screened_cols: n - active.len(),
            iterations_saved: if converged {
                self.max_iterations - iterations
            } else {
                0
            },
        })
    }

    /// Batched multi-RHS solve: every column marches in lockstep
    /// through the proximal-gradient iteration, sharing one Lipschitz
    /// estimate, one optional Gram matrix, and — via the batched
    /// kernels — one traversal of `A` (and `Aᵀ`) per gradient pass
    /// instead of one per column. Columns freeze as they converge.
    ///
    /// Each column's [`Recovery`] is bit-identical to a cold standalone
    /// [`SparseRecovery::recover_with`]: batching only changes *which
    /// column* is touched when, never the arithmetic sequence within a
    /// column.
    fn recover_lockstep(
        &self,
        a: &Matrix,
        ys: &[Vec<f64>],
        ws: &mut SolverWorkspace,
    ) -> Result<Vec<Recovery>> {
        let n = a.cols();
        let k_cols = ys.len();

        let lipschitz = match self.lipschitz {
            Some(l) => l,
            None => spectral_norm_sq(a, 30) * 1.02,
        };
        if lipschitz == 0.0 {
            return Ok(ys
                .iter()
                .map(|y| Recovery {
                    solution: vec![0.0; n],
                    iterations: 0,
                    residual_norm: vector::norm2(y),
                    converged: true,
                    screened_cols: 0,
                    iterations_saved: 0,
                })
                .collect());
        }
        let step = 1.0 / lipschitz;

        // One transposed pass computes every column's correlations Aᵀy.
        let mut bs: Vec<Vec<f64>> = vec![Vec::new(); k_cols];
        a.matvec_transposed_batch_into(ys, &mut bs);
        let lambdas: Vec<f64> = bs
            .iter()
            .map(|b| self.lambda_rel * vector::norm_inf(b))
            .collect();

        let gram = self.gram_pays(a).then(|| a.gram());

        let mut xs: Vec<Vec<f64>> = vec![vec![0.0; n]; k_cols];
        let mut zs: Vec<Vec<f64>> = vec![vec![0.0; n]; k_cols];
        let mut ts = vec![1.0_f64; k_cols];
        let mut iterations = vec![0_usize; k_cols];
        let mut converged = vec![false; k_cols];
        let mut done = vec![false; k_cols];

        // Batch scratch: `gather` stages the live columns' vectors
        // (moved in and out, never copied) for the fused kernel passes;
        // the rest are per-column outputs.
        let mut gather: Vec<Vec<f64>> = Vec::with_capacity(k_cols);
        let mut az: Vec<Vec<f64>> = vec![Vec::new(); k_cols];
        let mut residuals: Vec<Vec<f64>> = vec![Vec::new(); k_cols];
        let mut grads: Vec<Vec<f64>> = vec![Vec::new(); k_cols];

        let mut live: Vec<usize> = (0..k_cols).collect();
        let mut it = 0;
        while !live.is_empty() && it < self.max_iterations {
            it += 1;
            // Gradients at z for all live columns: one batched A / Aᵀ
            // traversal, or one shared-Gram pass per column.
            match &gram {
                Some(g) => {
                    for (idx, &j) in live.iter().enumerate() {
                        g.matvec_transposed_sub_into(&zs[j], &bs[j], &mut grads[idx]);
                    }
                }
                None => {
                    gather.clear();
                    for &j in &live {
                        gather.push(std::mem::take(&mut zs[j]));
                    }
                    a.matvec_batch_into(&gather, &mut az[..live.len()]);
                    for (idx, &j) in live.iter().enumerate() {
                        zs[j] = std::mem::take(&mut gather[idx]);
                    }
                    for (idx, &j) in live.iter().enumerate() {
                        vector::sub_into(&az[idx], &ys[j], &mut residuals[idx]);
                    }
                    a.matvec_transposed_batch_into(
                        &residuals[..live.len()],
                        &mut grads[..live.len()],
                    );
                }
            }

            // Proximal + momentum step per column — the exact
            // single-RHS iteration body, with `ws.x_alt` as the shared
            // x_new scratch.
            for (idx, &j) in live.iter().enumerate() {
                iterations[j] = it;
                ws.x_alt.clear();
                ws.x_alt.extend_from_slice(&zs[j]);
                vector::axpy(-step, &grads[idx], &mut ws.x_alt);
                if self.nonnegative {
                    soft_threshold_nonneg_vec(&mut ws.x_alt, step * lambdas[j]);
                } else {
                    soft_threshold_vec(&mut ws.x_alt, step * lambdas[j]);
                }

                let delta = vector::distance(&ws.x_alt, &xs[j]);
                let scale = vector::norm2(&ws.x_alt).max(1e-12);

                match self.acceleration {
                    Acceleration::Nesterov => {
                        let t_new = 0.5 * (1.0 + (1.0 + 4.0 * ts[j] * ts[j]).sqrt());
                        let beta = (ts[j] - 1.0) / t_new;
                        zs[j].clear();
                        zs[j].extend(
                            ws.x_alt
                                .iter()
                                .zip(&xs[j])
                                .map(|(&xn, &xo)| xn + beta * (xn - xo)),
                        );
                        ts[j] = t_new;
                    }
                    Acceleration::None => {
                        zs[j].clear();
                        zs[j].extend_from_slice(&ws.x_alt);
                    }
                }
                std::mem::swap(&mut xs[j], &mut ws.x_alt);

                if delta <= self.tolerance * scale {
                    done[j] = true;
                    converged[j] = true;
                }
            }

            // Periodic duality-gap certificate, batched across the
            // columns still running — they share the iteration counter,
            // so the every-GAP_CHECK_EVERY cadence lines up exactly
            // with the single-RHS schedule.
            if self.gap_tolerance > 0.0 && it % GAP_CHECK_EVERY == 0 {
                let checking: Vec<usize> = live
                    .iter()
                    .copied()
                    .filter(|&j| !done[j] && lambdas[j] > 0.0)
                    .collect();
                if !checking.is_empty() {
                    gather.clear();
                    for &j in &checking {
                        gather.push(std::mem::take(&mut xs[j]));
                    }
                    a.matvec_batch_into(&gather, &mut az[..checking.len()]);
                    for (idx, &j) in checking.iter().enumerate() {
                        xs[j] = std::mem::take(&mut gather[idx]);
                    }
                    for (idx, &j) in checking.iter().enumerate() {
                        // r = y − Ax, as in the single-RHS gap check.
                        vector::sub_into(&ys[j], &az[idx], &mut residuals[idx]);
                    }
                    a.matvec_transposed_batch_into(
                        &residuals[..checking.len()],
                        &mut grads[..checking.len()],
                    );
                    for (idx, &j) in checking.iter().enumerate() {
                        let gap = duality_gap(
                            &ys[j],
                            &residuals[idx],
                            &grads[idx],
                            vector::norm1(&xs[j]),
                            lambdas[j],
                            self.nonnegative,
                        );
                        if gap.gap <= self.gap_tolerance * gap.primal.max(1e-300) {
                            done[j] = true;
                            converged[j] = true;
                        }
                    }
                }
            }

            live.retain(|&j| !done[j]);
        }

        // Final residuals: one batched pass over all solutions.
        a.matvec_batch_into(&xs, &mut az);
        let mut out = Vec::with_capacity(k_cols);
        for (j, x) in xs.into_iter().enumerate() {
            vector::sub_into(&az[j], &ys[j], &mut ws.m_scratch2);
            let residual_norm = vector::norm2(&ws.m_scratch2);
            out.push(Recovery {
                solution: x,
                iterations: iterations[j],
                residual_norm,
                converged: converged[j],
                screened_cols: 0,
                iterations_saved: if converged[j] {
                    self.max_iterations - iterations[j]
                } else {
                    0
                },
            });
        }
        Ok(out)
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
    fn signed_recovery_needs_unconstrained_mode() {
        let (m, n) = (24, 48);
        let a = bernoulli_matrix(m, n, 13);
        let mut theta = vec![0.0; n];
        theta[3] = 2.0;
        theta[30] = -1.5;
        let y = a.matvec(&theta);

        let rec = Fista::default()
            .with_nonnegative(false)
            .with_lambda_rel(0.005)
            .unwrap()
            .recover(&a, &y)
            .unwrap();
        let mut supp = rec.support(0.3);
        supp.sort_unstable();
        assert_eq!(supp, vec![3, 30]);
        assert!(rec.solution[30] < 0.0);
    }

    #[test]
    fn ista_and_fista_agree_on_solution() {
        let a = bernoulli_matrix(16, 32, 3);
        let mut theta = vec![0.0; 32];
        theta[8] = 1.0;
        let y = a.matvec(&theta);
        let f = Fista::default().recover(&a, &y).unwrap();
        let i = Fista::default()
            .with_acceleration(Acceleration::None)
            .with_max_iterations(20000)
            .recover(&a, &y)
            .unwrap();
        let d = crowdwifi_linalg::vector::distance(&f.solution, &i.solution);
        assert!(d < 1e-3, "ISTA/FISTA disagreement: {d}");
        // FISTA should converge in fewer iterations.
        assert!(f.iterations <= i.iterations);
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
        assert!(Fista::default().with_gap_tolerance(-1.0).is_err());
        assert!(Fista::default().with_gap_tolerance(1e-6).is_ok());
        assert!(Fista::default().with_fixed_lipschitz(0.0).is_err());
        assert!(Fista::default()
            .with_fixed_lipschitz(f64::INFINITY)
            .is_err());
        assert!(Fista::default().with_fixed_lipschitz(1.0).is_ok());
    }

    /// The accelerated path (screening + Gram + gap stop) must land on
    /// the same optimum as the classic path: identical support, tiny
    /// coefficient distance, and a strictly reduced iteration count.
    #[test]
    fn accelerated_path_matches_classic_support() {
        let (m, n) = (24, 96);
        let a = bernoulli_matrix(m, n, 17);
        let mut theta = vec![0.0; n];
        theta[3] = 1.0;
        theta[47] = 0.8;
        theta[90] = 1.2;
        let y = a.matvec(&theta);

        let classic = Fista::default().recover(&a, &y).unwrap();
        let accel = Fista::default()
            .with_screening(true)
            .with_gram(true)
            .with_gap_tolerance(1e-10)
            .unwrap()
            .recover(&a, &y)
            .unwrap();
        assert_eq!(accel.support(0.3), classic.support(0.3));
        let d = crowdwifi_linalg::vector::distance(&accel.solution, &classic.solution);
        assert!(d < 1e-4, "accel drifted from classic by {d}");
        assert!(accel.screened_cols > 0, "screening removed nothing");
        assert!(
            accel.iterations <= classic.iterations,
            "accel took {} iterations vs classic {}",
            accel.iterations,
            classic.iterations
        );
    }

    /// A warm start at (near) the solution converges almost instantly
    /// and is consumed exactly once.
    #[test]
    fn warm_start_cuts_iterations_and_is_consumed() {
        let (m, n) = (20, 64);
        let a = bernoulli_matrix(m, n, 29);
        let mut theta = vec![0.0; n];
        theta[10] = 1.0;
        theta[55] = 1.0;
        let y = a.matvec(&theta);
        let solver = Fista::default().with_gap_tolerance(1e-8).unwrap();

        let mut ws = SolverWorkspace::new();
        let cold = solver.recover_with(&a, &y, &mut ws).unwrap();
        ws.set_warm_start(&cold.solution);
        let warm = solver.recover_with(&a, &y, &mut ws).unwrap();
        assert!(!ws.has_warm_start(), "seed must be consumed");
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
        let mut sw = warm.support(0.3);
        let mut sc = cold.support(0.3);
        sw.sort_unstable();
        sc.sort_unstable();
        assert_eq!(sw, sc);
    }

    /// A mis-sized warm seed is discarded and the solve starts cold.
    #[test]
    fn mismatched_warm_start_is_discarded() {
        let a = bernoulli_matrix(16, 32, 5);
        let mut theta = vec![0.0; 32];
        theta[8] = 1.0;
        let y = a.matvec(&theta);
        let solver = Fista::default().with_gap_tolerance(1e-8).unwrap();
        let mut ws = SolverWorkspace::new();
        let baseline = solver.recover_with(&a, &y, &mut ws).unwrap();
        ws.set_warm_start(&[1.0; 7]); // wrong length
        let rec = solver.recover_with(&a, &y, &mut ws).unwrap();
        assert!(!ws.has_warm_start());
        assert_eq!(rec.solution, baseline.solution);
        assert_eq!(rec.iterations, baseline.iterations);
    }

    /// The fixed-Lipschitz override must reproduce the estimated-L
    /// solution on an operator whose norm is known exactly (orthonormal
    /// rows → L = 1).
    #[test]
    fn fixed_lipschitz_matches_estimated_on_orthonormal_rows() {
        let a = Matrix::identity(12);
        let mut y = vec![0.0; 12];
        y[2] = 3.0;
        y[9] = 1.5;
        let est = Fista::default().recover(&a, &y).unwrap();
        let fixed = Fista::default()
            .with_fixed_lipschitz(1.0)
            .unwrap()
            .recover(&a, &y)
            .unwrap();
        assert_eq!(fixed.support(0.3), est.support(0.3));
        let d = crowdwifi_linalg::vector::distance(&fixed.solution, &est.solution);
        assert!(d < 1e-6, "fixed-L drifted by {d}");
    }

    /// Signed (unconstrained) screening must also preserve the support,
    /// including negative coefficients.
    #[test]
    fn signed_screening_preserves_negative_support() {
        let (m, n) = (24, 72);
        let a = bernoulli_matrix(m, n, 41);
        let mut theta = vec![0.0; n];
        theta[6] = 2.0;
        theta[60] = -1.5;
        let y = a.matvec(&theta);
        let base = Fista::default()
            .with_nonnegative(false)
            .recover(&a, &y)
            .unwrap();
        let accel = Fista::default()
            .with_nonnegative(false)
            .with_screening(true)
            .with_gap_tolerance(1e-10)
            .unwrap()
            .recover(&a, &y)
            .unwrap();
        assert_eq!(accel.support(0.3), base.support(0.3));
        assert!(accel.solution[60] < 0.0);
        assert!(accel.screened_cols > 0);
    }

    #[test]
    fn rejects_shape_mismatch() {
        let a = Matrix::zeros(4, 8);
        assert!(matches!(
            Fista::default().recover(&a, &[1.0; 3]),
            Err(SolverError::ShapeMismatch { .. })
        ));
    }

    fn batch_problem(m: usize, n: usize, seed: u64, rhs: usize) -> (Matrix, Vec<Vec<f64>>) {
        let a = bernoulli_matrix(m, n, seed);
        let ys = (0..rhs)
            .map(|s| {
                let mut theta = vec![0.0; n];
                theta[(5 + 11 * s) % n] = 1.0 + s as f64 * 0.25;
                theta[(37 * (s + 1)) % n] = 0.8;
                a.matvec(&theta)
            })
            .collect();
        (a, ys)
    }

    /// The batched entry point's contract: every column of
    /// `recover_multi` is bit-identical to a cold standalone
    /// `recover_with`, across the classic path, every acceleration
    /// feature, and the screening fallback.
    #[test]
    fn multi_rhs_matches_solo_bitwise() {
        let configs = [
            Fista::default(),
            Fista::default()
                .with_acceleration(Acceleration::None)
                .with_max_iterations(400),
            Fista::default().with_gap_tolerance(1e-9).unwrap(),
            Fista::default().with_gram(true),
            Fista::default().with_nonnegative(false),
            Fista::default().with_fixed_lipschitz(1.5).unwrap(),
            Fista::default()
                .with_screening(true)
                .with_gap_tolerance(1e-9)
                .unwrap(),
        ];
        // Wide (two-pass gradients) and narrow (Gram pays) shapes.
        let problems = [batch_problem(20, 56, 31, 4), batch_problem(24, 40, 43, 3)];
        for solver in &configs {
            for (a, ys) in &problems {
                let mut ws = SolverWorkspace::new();
                let multi = solver.recover_multi(a, ys, &mut ws).unwrap();
                assert_eq!(multi.len(), ys.len());
                for (y, rec) in ys.iter().zip(&multi) {
                    let solo = solver
                        .recover_with(a, y, &mut SolverWorkspace::new())
                        .unwrap();
                    assert_eq!(rec.solution, solo.solution, "{} drifted", solver.name());
                    assert_eq!(rec.iterations, solo.iterations, "{}", solver.name());
                    assert_eq!(
                        rec.residual_norm.to_bits(),
                        solo.residual_norm.to_bits(),
                        "{} residual drifted",
                        solver.name()
                    );
                    assert_eq!(rec.converged, solo.converged, "{}", solver.name());
                    assert_eq!(rec.screened_cols, solo.screened_cols, "{}", solver.name());
                    assert_eq!(
                        rec.iterations_saved,
                        solo.iterations_saved,
                        "{}",
                        solver.name()
                    );
                }
            }
        }
    }

    /// A pending warm-start seed (inherently per-column) must be
    /// dropped by the batched path: every column starts cold.
    #[test]
    fn multi_rhs_ignores_pending_warm_start() {
        let (a, ys) = batch_problem(16, 32, 19, 2);
        let solver = Fista::default().with_gap_tolerance(1e-8).unwrap();
        let cold = solver.recover(&a, &ys[0]).unwrap();
        let mut ws = SolverWorkspace::new();
        ws.set_warm_start(&cold.solution);
        let multi = solver.recover_multi(&a, &ys, &mut ws).unwrap();
        assert!(!ws.has_warm_start(), "seed must be cleared");
        assert_eq!(multi[0].solution, cold.solution);
        assert_eq!(multi[0].iterations, cold.iterations);
    }

    #[test]
    fn multi_rhs_edge_cases() {
        let a = bernoulli_matrix(8, 16, 3);
        let mut ws = SolverWorkspace::new();
        assert!(Fista::default()
            .recover_multi(&a, &[], &mut ws)
            .unwrap()
            .is_empty());
        let bad = vec![vec![1.0; 7]];
        assert!(matches!(
            Fista::default().recover_multi(&a, &bad, &mut ws),
            Err(SolverError::ShapeMismatch { .. })
        ));
        // Zero operator: every column is the zero solution.
        let z = Matrix::zeros(4, 8);
        let ys = vec![vec![1.0; 4], vec![2.0; 4]];
        let recs = Fista::default().recover_multi(&z, &ys, &mut ws).unwrap();
        for (rec, y) in recs.iter().zip(&ys) {
            assert!(rec.converged);
            assert_eq!(rec.solution, vec![0.0; 8]);
            assert_eq!(
                rec.residual_norm.to_bits(),
                vector::norm2(y).to_bits(),
                "zero-operator residual must be ‖y‖"
            );
        }
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
