//! Property tests pinning the shipped kernels to the scalar reference
//! **bit for bit**.
//!
//! The contract of `crowdwifi_linalg::kernels` is that each row-blocked
//! kernel is a pure layout optimization of its `kernels::scalar` twin:
//! per output element it performs the same floating-point operations in
//! the same order. These properties are the proof of that claim, across
//! the shapes the closed-form unit tests cannot enumerate — empty
//! matrices, odd tail lengths (`n % 4 != 0`), and non-finite inputs
//! (NaN propagation is order-sensitive, so bitwise equality here is
//! strictly stronger than approximate equality on finite data).
//!
//! Comparisons use `f64::to_bits` so `-0.0` vs `0.0` differences are
//! caught — with one relaxation: every NaN is canonicalized to a single
//! bit pattern first. NaN *payload* bits are the one thing the kernels
//! cannot pin: LLVM documents NaN payloads as nondeterministic and
//! freely commutes `fadd`/`fmul`, so `NaN(0x7ff8…) + NaN(0xfff8…)` may
//! keep either operand's payload depending on which side codegen placed
//! it on. The properties therefore assert: identical values everywhere,
//! identical signed-zero and infinity bits, and NaN-iff-NaN.

use crowdwifi_linalg::kernels::{self, scalar};
use proptest::prelude::*;

/// An element strategy that mixes ordinary magnitudes with the awkward
/// cases: signed zeros, infinities, NaN, and subnormal-adjacent tiny
/// values.
fn wild() -> impl Strategy<Value = f64> {
    (0u64..16, -100.0..100.0f64).prop_map(|(tag, x)| match tag {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => 1e-308,
        _ => x,
    })
}

/// A `rows × cols` row-major buffer with both dimensions drawn from
/// `0..=8` (covering empty matrices and every unroll-tail residue).
fn matrix() -> impl Strategy<Value = (usize, usize, Vec<f64>)> {
    (0usize..9, 0usize..9).prop_flat_map(|(rows, cols)| {
        (
            Just(rows),
            Just(cols),
            proptest::collection::vec(wild(), rows * cols),
        )
    })
}

/// `to_bits` with every NaN collapsed to the canonical quiet NaN (see
/// the module docs for why payload bits cannot be asserted).
fn canon(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|&x| canon(x)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dot_matches_bitwise(
        pair in (0usize..18).prop_flat_map(|n| {
            (
                proptest::collection::vec(wild(), n),
                proptest::collection::vec(wild(), n),
            )
        })
    ) {
        let (a, b) = pair;
        prop_assert_eq!(
            canon(scalar::dot(&a, &b)),
            canon(kernels::dot(&a, &b)),
            "dot diverged on len {}", a.len()
        );
    }

    #[test]
    fn distance_sq_matches_bitwise(
        pair in (0usize..18).prop_flat_map(|n| {
            (
                proptest::collection::vec(wild(), n),
                proptest::collection::vec(wild(), n),
            )
        })
    ) {
        let (a, b) = pair;
        prop_assert_eq!(
            canon(scalar::distance_sq(&a, &b)),
            canon(kernels::distance_sq(&a, &b)),
            "distance_sq diverged on len {}", a.len()
        );
    }

    #[test]
    fn axpy_matches_bitwise(
        case in (0usize..18).prop_flat_map(|n| {
            (
                wild(),
                proptest::collection::vec(wild(), n),
                proptest::collection::vec(wild(), n),
            )
        })
    ) {
        let (alpha, x, y0) = case;
        let mut ys = y0.clone();
        let mut yv = y0;
        scalar::axpy(alpha, &x, &mut ys);
        kernels::axpy(alpha, &x, &mut yv);
        prop_assert_eq!(bits(&ys), bits(&yv), "axpy diverged on len {}", x.len());
    }

    #[test]
    fn matvec_matches_bitwise(
        case in matrix().prop_flat_map(|(rows, cols, a)| {
            (
                Just(rows),
                Just(cols),
                Just(a),
                proptest::collection::vec(wild(), cols),
            )
        })
    ) {
        let (rows, cols, a, v) = case;
        let mut os = vec![0.0; rows];
        let mut ov = vec![0.0; rows];
        scalar::matvec(cols, &a, &v, &mut os);
        kernels::matvec(cols, &a, &v, &mut ov);
        prop_assert_eq!(bits(&os), bits(&ov), "matvec diverged on {}x{}", rows, cols);
    }

    #[test]
    fn acc_rows_matches_bitwise(
        case in matrix().prop_flat_map(|(rows, cols, a)| {
            (
                Just(rows),
                Just(cols),
                Just(a),
                proptest::collection::vec(wild(), rows),
                proptest::collection::vec(wild(), cols),
            )
        })
    ) {
        let (rows, cols, a, v, out0) = case;
        let mut os = out0.clone();
        let mut ov = out0;
        scalar::acc_rows(cols, &a, &v, &mut os);
        kernels::acc_rows(cols, &a, &v, &mut ov);
        prop_assert_eq!(bits(&os), bits(&ov), "acc_rows diverged on {}x{}", rows, cols);
    }

    #[test]
    fn matmul_matches_bitwise(
        case in (0usize..7, 0usize..7, 0usize..7).prop_flat_map(|(rows, k, cols)| {
            (
                Just(rows),
                Just(k),
                Just(cols),
                proptest::collection::vec(wild(), rows * k),
                proptest::collection::vec(wild(), k * cols),
            )
        })
    ) {
        let (rows, k, cols, a, b) = case;
        let mut os = vec![0.0; rows * cols];
        let mut ov = vec![0.0; rows * cols];
        scalar::matmul(rows, k, cols, &a, &b, &mut os);
        kernels::matmul(rows, k, cols, &a, &b, &mut ov);
        prop_assert_eq!(
            bits(&os), bits(&ov),
            "matmul diverged on {}x{}x{}", rows, k, cols
        );
    }
}
