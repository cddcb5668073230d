//! Property-based cross-solver tests: all solvers must recover random
//! k-sparse signals from random Bernoulli measurements when the sampling
//! bound M = O(k log(N/k)) is comfortably satisfied.

use crowdwifi_linalg::whiten::whiten;
use crowdwifi_linalg::{vector, Matrix};
use crowdwifi_sparsesolve::active_set::{ActiveSet, KKT_TOLERANCE, LAMBDA_REL};
use crowdwifi_sparsesolve::fista::Fista;
use crowdwifi_sparsesolve::irls::Irls;
use crowdwifi_sparsesolve::omp::Omp;
use crowdwifi_sparsesolve::SparseRecovery;
use proptest::prelude::*;
use proptest::TestCaseError;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

const N: usize = 48;
const M: usize = 24;

fn gaussian_matrix(rng: &mut ChaCha8Rng) -> Matrix {
    let scale = 1.0 / (M as f64).sqrt();
    Matrix::from_fn(M, N, |_, _| {
        // Box–Muller from two uniforms.
        let u1: f64 = rng.random_range(1e-9..1.0);
        let u2: f64 = rng.random_range(0.0..1.0);
        scale * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    })
}

fn sparse_signal(rng: &mut ChaCha8Rng, k: usize, nonneg: bool) -> Vec<f64> {
    let mut theta = vec![0.0; N];
    let mut idx: Vec<usize> = (0..N).collect();
    idx.shuffle(rng);
    for &i in idx.iter().take(k) {
        let mag = rng.random_range(0.5..2.0);
        theta[i] = if nonneg || rng.random_bool(0.5) {
            mag
        } else {
            -mag
        };
    }
    theta
}

/// A random non-negative problem: `r × n` uniform entries in `[0, 1)`
/// with `dups` columns overwritten by exact copies of others and `zeros`
/// columns zeroed, measuring a 1–3-sparse non-negative signal with
/// small non-negative noise.
fn nonneg_problem(seed: u64, r: usize, n: usize, dups: usize, zeros: usize) -> (Matrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut a = Matrix::from_fn(r, n, |_, _| rng.random_range(0.0..1.0));
    for _ in 0..dups {
        let (src, dst) = (rng.random_range(0..n), rng.random_range(0..n));
        for i in 0..r {
            a.set(i, dst, a.get(i, src));
        }
    }
    for _ in 0..zeros {
        let c = rng.random_range(0..n);
        for i in 0..r {
            a.set(i, c, 0.0);
        }
    }
    let mut theta = vec![0.0; n];
    for _ in 0..rng.random_range(1..=3) {
        theta[rng.random_range(0..n)] = rng.random_range(0.5..2.0);
    }
    let y = a
        .matvec(&theta)
        .into_iter()
        .map(|v| v + rng.random_range(0.0..0.05))
        .collect();
    (a, y)
}

/// Objective `½‖y − Ax‖² + λ·1ᵀx` of the non-negative LASSO and the
/// duality gap certified by `x`: the residual `r`, scaled to satisfy the
/// dual constraint `Aᵀθ ≤ λ`, is dual-feasible, so
/// `objective − gap ≤ optimum ≤ objective`.
fn objective_and_gap(a: &Matrix, y: &[f64], x: &[f64], lambda: f64) -> (f64, f64) {
    let r = vector::sub(y, &a.matvec(x));
    let primal = 0.5 * vector::dot(&r, &r) + lambda * vector::norm1(x);
    let worst = a.matvec_transposed(&r).into_iter().fold(lambda, f64::max);
    let s = lambda / worst;
    let theta: Vec<f64> = r.iter().map(|v| s * v).collect();
    let dual = vector::dot(y, &theta) - 0.5 * vector::dot(&theta, &theta);
    (primal, (primal - dual).max(0.0))
}

/// The active-set certification contract on one problem: deterministic
/// across runs, feasible, KKT-stationary when it reports convergence,
/// and within both duality gaps of a long FISTA run's objective.
fn assert_certified(a: &Matrix, y: &[f64]) -> Result<(), TestCaseError> {
    let rec = ActiveSet::default().recover(a, y).unwrap();
    prop_assert_eq!(&rec, &ActiveSet::default().recover(a, y).unwrap());
    prop_assert!(rec.solution.iter().all(|&v| v >= 0.0 && v.is_finite()));
    if rec.converged {
        let b_max = vector::norm_inf(&a.matvec_transposed(y));
        let lambda = LAMBDA_REL * b_max;
        let slack = 1e-9 * b_max;
        let r_vec = vector::sub(y, &a.matvec(&rec.solution));
        for (j, g) in a.matvec_transposed(&r_vec).into_iter().enumerate() {
            prop_assert!(
                g - lambda <= KKT_TOLERANCE * b_max + slack,
                "column {} violates KKT by {}",
                j,
                g - lambda
            );
            if rec.solution[j] > 0.0 {
                prop_assert!(
                    (g - lambda).abs() <= slack,
                    "passive column {} off stationarity by {}",
                    j,
                    g - lambda
                );
            }
        }
        let reference = Fista::default()
            .with_max_iterations(20_000)
            .with_tolerance(1e-12)
            .unwrap()
            .recover(a, y)
            .unwrap();
        let (ours, our_gap) = objective_and_gap(a, y, &rec.solution, lambda);
        let (theirs, their_gap) = objective_and_gap(a, y, &reference.solution, lambda);
        let eps = 1e-9 * (1.0 + theirs);
        prop_assert!(
            ours <= theirs + our_gap + eps,
            "active set {} vs FISTA {} (gap {})",
            ours,
            theirs,
            our_gap
        );
        prop_assert!(
            theirs <= ours + their_gap + eps,
            "FISTA {} beat the active set {} beyond its gap {}",
            theirs,
            ours,
            their_gap
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fista_recovers_support(seed in 0u64..1000, k in 1usize..4) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = gaussian_matrix(&mut rng);
        let theta = sparse_signal(&mut rng, k, true);
        let y = a.matvec(&theta);
        let rec = Fista::default().with_lambda_rel(0.005).unwrap()
            .recover(&a, &y).unwrap();
        let mut supp = rec.support(0.25);
        supp.sort_unstable();
        let truth = vector::support(&theta, 1e-9);
        prop_assert_eq!(supp, truth);
    }

    #[test]
    fn omp_exact_with_known_sparsity(seed in 0u64..1000, k in 1usize..4) {
        // OMP's exact-recovery guarantee needs comfortable sparsity and
        // non-vanishing coefficients; k <= 3 against M = 24 Gaussian
        // rows is squarely inside it (k = 4 with small coefficients is
        // not — greedy selection can be misled, a real OMP limitation).
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(1234));
        let a = gaussian_matrix(&mut rng);
        let theta = sparse_signal(&mut rng, k, false);
        let y = a.matvec(&theta);
        let rec = Omp::new(k).recover(&a, &y).unwrap();
        prop_assert!(vector::distance(&rec.solution, &theta) < 1e-6);
    }

    #[test]
    fn convex_solvers_agree(seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(4242));
        let a = gaussian_matrix(&mut rng);
        let theta = sparse_signal(&mut rng, 2, true);
        let y = a.matvec(&theta);
        // Both pose the LASSO with λ = LAMBDA_REL·‖Aᵀy‖∞.
        let f = Fista::default().recover(&a, &y).unwrap();
        let s = ActiveSet::default().recover(&a, &y).unwrap();
        prop_assert!(vector::distance(&f.solution, &s.solution) < 5e-2);
    }

    #[test]
    fn irls_matches_basis_pursuit(seed in 0u64..1000, k in 1usize..4) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(31337));
        let a = gaussian_matrix(&mut rng);
        let theta = sparse_signal(&mut rng, k, false);
        let y = a.matvec(&theta);
        let irls = Irls::default().recover(&a, &y).unwrap();
        prop_assert!(vector::distance(&irls.solution, &theta) < 1e-3,
            "IRLS missed the noiseless recovery");
    }

    #[test]
    fn solutions_never_contain_nan(seed in 0u64..1000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed.wrapping_add(999));
        let a = gaussian_matrix(&mut rng);
        // Random, not-necessarily-consistent measurements.
        let y: Vec<f64> = (0..M).map(|_| rng.random_range(-5.0..5.0)).collect();
        for solver in [&Fista::default() as &dyn SparseRecovery,
                       &ActiveSet::default(), &Omp::new(6), &Irls::default()] {
            let rec = solver.recover(&a, &y).unwrap();
            prop_assert!(rec.solution.iter().all(|x| x.is_finite()), "{} produced non-finite", solver.name());
        }
    }
}

proptest! {
    // Cheap solves: cover the shape space more densely than the
    // iterative families above.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn active_set_certifies_the_nonnegative_lasso(
        seed in 0u64..1000,
        r_pick in 0usize..=48,
        n in 1usize..=300,
        dups in 0usize..4,
        zeros in 0usize..4,
    ) {
        // Every certified solve must be feasible, satisfy KKT within the
        // solver's tolerance, match a long FISTA run's objective within
        // the two solutions' duality gaps, and repeat bit for bit across
        // runs — on the raw problem and on its Proposition-1 whitened
        // form (orthonormal rows, signed entries), which is what the
        // recovery pipeline solves. One case in five is a single-row
        // problem.
        let r = r_pick.saturating_sub(8).max(1);
        let (a, y) = nonneg_problem(seed, r, n, dups, zeros);
        assert_certified(&a, &y)?;
        let w = whiten(&a, &y).unwrap();
        if w.q.rows() > 0 {
            assert_certified(&w.q, &w.y)?;
        }
    }
}
