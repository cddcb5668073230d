//! Enum dispatch over all solver families.
//!
//! [`AnySolver`] lets configuration (the CS pipeline, the benches) pick
//! the ℓ1 solver at runtime while staying `Clone + Debug` (a boxed
//! trait object would not be).

use crate::active_set::ActiveSet;
use crate::fista::Fista;
use crate::irls::Irls;
use crate::omp::Omp;
use crate::{Recovery, Result, SolverWorkspace, SparseRecovery};
use crowdwifi_linalg::Matrix;

/// A runtime-selected sparse-recovery solver.
///
/// # Example
///
/// ```
/// use crowdwifi_linalg::Matrix;
/// use crowdwifi_sparsesolve::any::AnySolver;
/// use crowdwifi_sparsesolve::SparseRecovery;
///
/// let solvers = [
///     AnySolver::default_active_set(),
///     AnySolver::default_fista(),
///     AnySolver::default_omp(),
/// ];
/// let a = Matrix::identity(3);
/// for s in &solvers {
///     let rec = s.recover(&a, &[2.0, 0.0, 0.0])?;
///     assert_eq!(rec.support(0.5), vec![0], "{} failed", s.name());
/// }
/// # Ok::<(), crowdwifi_sparsesolve::SolverError>(())
/// ```
#[derive(Debug, Clone)]
pub enum AnySolver {
    /// Exact active-set non-negative LASSO.
    ActiveSet(ActiveSet),
    /// Proximal-gradient LASSO (ISTA/FISTA).
    Fista(Fista),
    /// Orthogonal matching pursuit.
    Omp(Omp),
    /// Iteratively reweighted least squares.
    Irls(Irls),
}

impl AnySolver {
    /// The active-set solver with its default configuration.
    pub fn default_active_set() -> Self {
        AnySolver::ActiveSet(ActiveSet::default())
    }

    /// FISTA with its default configuration.
    pub fn default_fista() -> Self {
        AnySolver::Fista(Fista::default())
    }

    /// OMP selecting at most 4 atoms (a sensible per-AP budget).
    pub fn default_omp() -> Self {
        AnySolver::Omp(Omp::new(4))
    }

    /// IRLS with its default configuration.
    pub fn default_irls() -> Self {
        AnySolver::Irls(Irls::default())
    }
}

/// Records one solve outcome into the process-wide [`crowdwifi_obs`]
/// registry (a no-op unless that registry is enabled, e.g. via
/// `CROWDWIFI_OBS=1`). Keyed by solver family so a pipeline run shows
/// per-family convergence behaviour.
fn record_solve(name: &'static str, result: &Result<Recovery>) {
    let reg = crowdwifi_obs::global();
    if !reg.is_enabled() {
        return;
    }
    reg.counter(&format!("sparsesolve.{name}.solves")).inc();
    match result {
        Ok(rec) => {
            reg.histogram(
                &format!("sparsesolve.{name}.iterations"),
                crowdwifi_obs::ITERATION_BOUNDS,
            )
            .observe(rec.iterations as f64);
            if !rec.converged {
                reg.counter(&format!("sparsesolve.{name}.unconverged"))
                    .inc();
            }
            // Iteration-budget headroom from early stops.
            reg.counter(&format!("sparsesolve.{name}.iterations_saved"))
                .add(rec.iterations_saved as u64);
        }
        Err(_) => {
            reg.counter(&format!("sparsesolve.{name}.errors")).inc();
        }
    }
}

impl SparseRecovery for AnySolver {
    fn recover(&self, a: &Matrix, y: &[f64]) -> Result<Recovery> {
        let result = match self {
            AnySolver::ActiveSet(s) => s.recover(a, y),
            AnySolver::Fista(s) => s.recover(a, y),
            AnySolver::Omp(s) => s.recover(a, y),
            AnySolver::Irls(s) => s.recover(a, y),
        };
        record_solve(self.name(), &result);
        result
    }

    fn recover_with(&self, a: &Matrix, y: &[f64], ws: &mut SolverWorkspace) -> Result<Recovery> {
        let result = match self {
            AnySolver::ActiveSet(s) => s.recover_with(a, y, ws),
            AnySolver::Fista(s) => s.recover_with(a, y, ws),
            AnySolver::Omp(s) => s.recover_with(a, y, ws),
            AnySolver::Irls(s) => s.recover_with(a, y, ws),
        };
        record_solve(self.name(), &result);
        result
    }

    fn name(&self) -> &'static str {
        match self {
            AnySolver::ActiveSet(s) => s.name(),
            AnySolver::Fista(s) => s.name(),
            AnySolver::Omp(s) => s.name(),
            AnySolver::Irls(s) => s.name(),
        }
    }
}

impl From<ActiveSet> for AnySolver {
    fn from(s: ActiveSet) -> Self {
        AnySolver::ActiveSet(s)
    }
}

impl From<Fista> for AnySolver {
    fn from(s: Fista) -> Self {
        AnySolver::Fista(s)
    }
}

impl From<Omp> for AnySolver {
    fn from(s: Omp) -> Self {
        AnySolver::Omp(s)
    }
}

impl From<Irls> for AnySolver {
    fn from(s: Irls) -> Self {
        AnySolver::Irls(s)
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
    fn every_family_recovers_the_same_support() {
        let (m, n) = (20, 48);
        let a = bernoulli_matrix(m, n, 21);
        let mut theta = vec![0.0; n];
        theta[5] = 1.0;
        theta[30] = 1.5;
        let y = a.matvec(&theta);
        for solver in [
            AnySolver::default_active_set(),
            AnySolver::default_fista(),
            AnySolver::default_omp(),
            AnySolver::default_irls(),
        ] {
            let rec = solver.recover(&a, &y).unwrap();
            let mut supp = rec.support(0.3);
            supp.sort_unstable();
            assert_eq!(supp, vec![5, 30], "{} missed the support", solver.name());
        }
    }

    #[test]
    fn solves_record_into_enabled_global_registry() {
        if !crowdwifi_obs::RECORDING {
            return;
        }
        let reg = crowdwifi_obs::global();
        let was_enabled = reg.is_enabled();
        reg.set_enabled(true);
        let key = "sparsesolve.fista.solves";
        let before = reg.snapshot().counters.get(key).copied().unwrap_or(0);
        let a = Matrix::identity(3);
        AnySolver::default_fista()
            .recover(&a, &[2.0, 0.0, 0.0])
            .unwrap();
        let after = reg.snapshot().counters[key];
        reg.set_enabled(was_enabled);
        // Delta, not an absolute: other tests in this binary may solve
        // concurrently while the registry is enabled.
        assert!(after > before, "solve counter did not advance");
        assert!(reg
            .snapshot()
            .histograms
            .contains_key("sparsesolve.fista.iterations"));
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            AnySolver::default_active_set().name(),
            AnySolver::default_fista().name(),
            AnySolver::default_omp().name(),
            AnySolver::default_irls().name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
