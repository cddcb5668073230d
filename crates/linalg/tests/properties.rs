//! Property-based tests for the linear-algebra kernels.

use crowdwifi_linalg::solve::Lu;
use crowdwifi_linalg::svd::pseudo_inverse;
use crowdwifi_linalg::whiten::whiten;
use crowdwifi_linalg::{Matrix, QrDecomposition, Svd, SymmetricEigen};
use proptest::prelude::*;

/// Small well-scaled matrix entries.
fn entry() -> impl Strategy<Value = f64> {
    (-10.0..10.0f64).prop_map(|x| (x * 16.0).round() / 16.0)
}

fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(entry(), rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(m in (1usize..6, 1usize..6).prop_flat_map(|(r, c)| matrix(r, c))) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associates_with_transpose(m in matrix(4, 3)) {
        // (A Aᵀ)ᵀ = A Aᵀ (symmetry of Gram matrices).
        let g = m.matmul(&m.transpose());
        prop_assert!(g.transpose().approx_eq(&g, 1e-9));
    }

    #[test]
    fn qr_reconstructs(m in (1usize..7, 1usize..7).prop_flat_map(|(r, c)| matrix(r, c))) {
        let qr = QrDecomposition::new(&m);
        prop_assert!(qr.q().matmul(qr.r()).approx_eq(&m, 1e-8));
        let qtq = qr.q().transpose().matmul(qr.q());
        prop_assert!(qtq.approx_eq(&Matrix::identity(qr.q().cols()), 1e-8));
    }

    #[test]
    fn eigen_reconstructs_gram(m in matrix(5, 3)) {
        let g = m.transpose().matmul(&m);
        let e = SymmetricEigen::new(&g).unwrap();
        let lam = Matrix::diagonal(e.eigenvalues());
        let back = e.eigenvectors().matmul(&lam).matmul(&e.eigenvectors().transpose());
        prop_assert!(back.approx_eq(&g, 1e-6 * (1.0 + g.max_abs())));
        // Gram matrices are PSD: eigenvalues non-negative up to round-off.
        for &l in e.eigenvalues() {
            prop_assert!(l > -1e-8 * (1.0 + g.max_abs()));
        }
    }

    #[test]
    fn svd_reconstructs(m in (1usize..6, 1usize..6).prop_flat_map(|(r, c)| matrix(r, c))) {
        let svd = Svd::new(&m).unwrap();
        let sigma = Matrix::diagonal(svd.singular_values());
        let back = svd.u().matmul(&sigma).matmul(&svd.v().transpose());
        prop_assert!(back.approx_eq(&m, 1e-6 * (1.0 + m.max_abs())));
    }

    #[test]
    fn pinv_penrose_one(m in (1usize..5, 1usize..5).prop_flat_map(|(r, c)| matrix(r, c))) {
        let p = pseudo_inverse(&m).unwrap();
        // A A† A = A always holds, full rank or not.
        let back = m.matmul(&p).matmul(&m);
        prop_assert!(back.approx_eq(&m, 1e-5 * (1.0 + m.max_abs())));
    }

    #[test]
    fn lu_roundtrips_diagonally_dominant(data in proptest::collection::vec(entry(), 9), x in proptest::collection::vec(entry(), 3)) {
        // Force diagonal dominance so the system is well conditioned.
        let mut a = Matrix::from_vec(3, 3, data).unwrap();
        for i in 0..3 {
            let rowsum: f64 = (0..3).map(|j| a.get(i, j).abs()).sum();
            a.set(i, i, rowsum + 1.0);
        }
        let b = a.matvec(&x);
        let got = Lu::new(&a).unwrap().solve(&b).unwrap();
        for (g, t) in got.iter().zip(&x) {
            prop_assert!((g - t).abs() < 1e-7);
        }
    }
}

/// Uniform `[0, 1)` stream from a 64-bit xorshift state.
fn next_unit(state: &mut u64) -> f64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// A wide non-negative `m × n` matrix whose last `dups` rows copy
/// earlier rows — exactly when `delta == 0`, otherwise with a relative
/// perturbation of size `delta` — plus a non-negative observation.
fn dup_rows_problem(seed: u64, m: usize, n: usize, dups: usize, delta: f64) -> (Matrix, Vec<f64>) {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut a = Matrix::from_fn(m, n, |_, _| next_unit(&mut state));
    let distinct = m - dups;
    for i in distinct..m {
        let src = (next_unit(&mut state) * distinct as f64) as usize;
        for j in 0..n {
            let jitter = 1.0 + delta * (next_unit(&mut state) - 0.5);
            a.set(i, j, a.get(src, j) * jitter);
        }
    }
    let y = (0..m).map(|_| next_unit(&mut state)).collect();
    (a, y)
}

/// `V_r Σ_r⁻¹ U_rᵀ y` over the singular values above `cut · σ_max` — the
/// pseudo-inverse applied to `y`, truncated at a spectral gap.
fn truncated_pinv_apply(a: &Matrix, y: &[f64], cut: f64) -> Vec<f64> {
    let svd = Svd::new(a).unwrap();
    let sigma = svd.singular_values();
    let mut out = vec![0.0; a.cols()];
    for (k, &s) in sigma.iter().enumerate() {
        if s > cut * sigma[0] {
            let c = svd.u().col_dot(k, y) / s;
            for (j, o) in out.iter_mut().enumerate() {
                *o += c * svd.v().get(j, k);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn whitened_operator_is_an_orthonormal_prop1_basis(
        seed in 0u64..10_000,
        m in 1usize..=60,
        extra in 0usize..=240,
        dup_pick in 0usize..=60,
        delta_pick in 0usize..4,
    ) {
        // Wide non-negative problems (m ≤ n ≤ 300) where up to half the
        // rows duplicate others: exactly, or perturbed far below, near
        // or far above the rank cutoff.
        let n = m + extra;
        let dups = dup_pick.min(m / 2);
        let delta = [0.0, 1e-12, 1e-8, 1e-2][delta_pick];
        let (a, y) = dup_rows_problem(seed, m, n, dups, delta);
        let w = whiten(&a, &y).unwrap();
        let r = w.q.rows();
        prop_assert!(r <= m && w.y.len() == r);
        // Orthonormal rows.
        let orth_err = w.q.matmul(&w.q.transpose()).sub(&Matrix::identity(r)).max_abs();
        prop_assert!(orth_err <= 1e-10, "rows off orthonormal by {}", orth_err);
        // Q spans A's row space: A (I − QᵀQ) ≈ 0.
        let proj = a.sub(&a.matmul(&w.q.transpose()).matmul(&w.q));
        prop_assert!(proj.max_abs() <= 1e-6 * a.frobenius_norm(),
            "row space lost: {}", proj.max_abs());
        // Qᵀ y' is the pseudo-inverse solution wherever the spectrum
        // separates signal from round-off: every singular value above
        // 1e-4·σ_max or below 1e-9·σ_max (Gram noise sits near
        // √ε·σ_max ≈ 1.5e-8·σ_max).
        let svd = Svd::new(&a).unwrap();
        let sigma = svd.singular_values();
        let gap = sigma.iter().all(|&s| s >= 1e-4 * sigma[0] || s <= 1e-9 * sigma[0]);
        if gap {
            let want = if sigma.iter().all(|&s| s >= 1e-4 * sigma[0]) {
                pseudo_inverse(&a).unwrap().matvec(&y)
            } else {
                truncated_pinv_apply(&a, &y, 1e-4)
            };
            let got = w.q.matvec_transposed(&w.y);
            let scale = want.iter().fold(1.0_f64, |s, v| s.max(v.abs()));
            for (g, t) in got.iter().zip(&want) {
                prop_assert!((g - t).abs() <= 1e-6 * scale, "Qᵀy' {} vs A⁺y {}", g, t);
            }
        }
    }
}
