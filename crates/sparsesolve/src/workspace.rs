//! Reusable scratch space for the iterative solvers.

/// Reusable buffers for [`crate::SparseRecovery::recover_with`].
///
/// The iterative solvers (FISTA, IRLS)
/// keep several solution-sized vectors alive across iterations;
/// historically each iteration *cloned* them — FISTA alone allocated
/// four fresh vectors per step, ~8000 heap allocations for a default
/// 2000-iteration solve. A `SolverWorkspace` owns those buffers so the
/// thousands of small recoveries in one sliding-window round reuse a
/// single set of allocations.
///
/// Buffers are cleared and resized on entry to every solve, so one
/// workspace serves problems of any (and varying) shape, and a solve
/// never observes stale data from a previous one. Routing a solver
/// through a workspace changes *where* intermediates live, never the
/// arithmetic: `recover` and `recover_with` return bit-identical
/// [`crate::Recovery`] values.
///
/// Buffer roles are loose by design — `x`/`x_alt` double as the
/// current/next iterate swap pair, `m_scratch`/`m_scratch2` hold
/// measurement-length intermediates like `Az` and residuals — because
/// each solver family needs a slightly different mix.
#[derive(Debug, Clone, Default)]
pub struct SolverWorkspace {
    /// Current iterate (solution-length).
    pub(crate) x: Vec<f64>,
    /// Swap partner for `x`: the next iterate or a previous-iterate
    /// snapshot, depending on the solver.
    pub(crate) x_alt: Vec<f64>,
    /// FISTA extrapolation point.
    pub(crate) z: Vec<f64>,
    /// Gradient / correction vector (solution-length).
    pub(crate) grad: Vec<f64>,
    /// Generic solution-length scratch (rhs, weights, snapshots).
    pub(crate) n_scratch: Vec<f64>,
    /// Measurement-length scratch (`Az`, dual iterates).
    pub(crate) m_scratch: Vec<f64>,
    /// Second measurement-length scratch (residuals).
    pub(crate) m_scratch2: Vec<f64>,
}

impl SolverWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active_set::ActiveSet;
    use crate::fista::Fista;
    use crate::irls::Irls;
    use crate::omp::Omp;
    use crate::{AnySolver, SparseRecovery};
    use crowdwifi_linalg::Matrix;

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

    fn problem(m: usize, n: usize, seed: u64, support: &[usize]) -> (Matrix, Vec<f64>) {
        let a = bernoulli_matrix(m, n, seed);
        let mut theta = vec![0.0; n];
        for &j in support {
            theta[j] = 1.0;
        }
        let y = a.matvec(&theta);
        (a, y)
    }

    /// The workspace contract: `recover_with` on a *reused* (dirty,
    /// differently-sized) workspace returns bit-identical results to a
    /// fresh `recover`, for every solver family.
    #[test]
    fn reused_workspace_is_bit_identical_to_fresh_recover() {
        let solvers = [
            AnySolver::ActiveSet(ActiveSet::default()),
            AnySolver::Fista(Fista::default()),
            AnySolver::Irls(Irls::default()),
            AnySolver::Omp(Omp::new(4)),
        ];
        // Shapes deliberately vary so buffers must resize between solves.
        let problems = [
            problem(16, 40, 3, &[5, 21]),
            problem(24, 64, 7, &[2, 33, 60]),
            problem(12, 20, 11, &[4]),
        ];
        for solver in &solvers {
            let mut ws = SolverWorkspace::new();
            for (a, y) in &problems {
                let fresh = solver.recover(a, y).unwrap();
                let reused = solver.recover_with(a, y, &mut ws).unwrap();
                assert_eq!(
                    fresh.solution,
                    reused.solution,
                    "{} solution drifted under workspace reuse",
                    solver.name()
                );
                assert_eq!(fresh.iterations, reused.iterations, "{}", solver.name());
                assert_eq!(
                    fresh.residual_norm.to_bits(),
                    reused.residual_norm.to_bits(),
                    "{} residual drifted",
                    solver.name()
                );
                assert_eq!(fresh.converged, reused.converged, "{}", solver.name());
            }
        }
    }
}
