//! The proximal operator of FISTA's non-negative LASSO.
//!
//! # Non-finite inputs
//!
//! The operator propagates non-finite *arguments* instead of silently
//! clamping them: a `NaN` coefficient stays `NaN`, `+∞` stays `+∞` and
//! `−∞` projects to `0`, which is the correct projection onto the
//! non-negative orthant. Silent clamping would hide a divergent solver
//! iterate as a plausible sparse zero. The *threshold* `t`, by
//! contrast, is solver-computed (`step · λ`); a non-finite or negative
//! `t` is always a solver bug and is rejected with a `debug_assert`.

/// Non-negative soft threshold `max(x − t, 0)`; the proximal map of
/// `t‖·‖₁ + ι_{x ≥ 0}`.
///
/// The AP indicator coefficients of the CrowdWiFi recovery are
/// non-negative by construction (a grid point either hosts an AP or not),
/// so the pipeline solves the non-negativity-constrained program.
///
/// `NaN` inputs propagate; `+∞` maps to `+∞` and `−∞` to `0` (the
/// projection onto the orthant — see the module docs).
///
/// # Panics
///
/// Debug builds panic when the threshold `t` is negative or non-finite.
///
/// # Example
///
/// ```
/// use crowdwifi_sparsesolve::prox::soft_threshold_nonneg;
///
/// assert_eq!(soft_threshold_nonneg(3.0, 1.0), 2.0);
/// assert_eq!(soft_threshold_nonneg(-3.0, 1.0), 0.0);
/// assert_eq!(soft_threshold_nonneg(0.5, 1.0), 0.0);
/// assert!(soft_threshold_nonneg(f64::NAN, 1.0).is_nan());
/// ```
#[inline]
pub fn soft_threshold_nonneg(x: f64, t: f64) -> f64 {
    debug_assert!(
        t >= 0.0 && t.is_finite(),
        "soft_threshold_nonneg: invalid threshold {t}"
    );
    if x.is_nan() {
        // `f64::max` would resolve NaN against 0.0 to 0.0 — silent loss
        // of a divergence signal.
        return x;
    }
    (x - t).max(0.0)
}

/// Applies [`soft_threshold_nonneg`] element-wise in place.
pub fn soft_threshold_nonneg_vec(v: &mut [f64], t: f64) {
    for x in v.iter_mut() {
        *x = soft_threshold_nonneg(*x, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn nonneg_clamps_negative_inputs() {
        assert_eq!(soft_threshold_nonneg(-5.0, 1.0), 0.0);
        assert_eq!(soft_threshold_nonneg(5.0, 1.0), 4.0);
        assert_eq!(soft_threshold_nonneg(1.5, 0.0), 1.5);
    }

    #[test]
    fn vector_variant_matches_scalar() {
        let mut w = [3.0, -0.5, -2.0];
        soft_threshold_nonneg_vec(&mut w, 1.0);
        assert_eq!(w, [2.0, 0.0, 0.0]);
    }

    #[test]
    fn nan_inputs_propagate() {
        assert!(soft_threshold_nonneg(f64::NAN, 1.0).is_nan());
        let mut w = [1.0, f64::NAN];
        soft_threshold_nonneg_vec(&mut w, 0.5);
        assert_eq!(w[0], 0.5);
        assert!(w[1].is_nan());
    }

    #[test]
    fn infinities_project_onto_the_orthant() {
        assert_eq!(soft_threshold_nonneg(f64::INFINITY, 1.0), f64::INFINITY);
        assert_eq!(soft_threshold_nonneg(f64::NEG_INFINITY, 1.0), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "invalid threshold")]
    fn negative_threshold_is_rejected_in_debug() {
        soft_threshold_nonneg(1.0, -0.5);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "invalid threshold")]
    fn nan_threshold_is_rejected_in_debug() {
        soft_threshold_nonneg(1.0, f64::NAN);
    }

    proptest! {
        #[test]
        fn shrinks_toward_zero(x in -100.0..100.0f64, t in 0.0..10.0f64) {
            let s = soft_threshold_nonneg(x, t);
            prop_assert!(s >= 0.0);
            // Exact shrink amount above the threshold, zero below it.
            if x > t {
                prop_assert!((s - (x - t)).abs() < 1e-12);
            } else {
                prop_assert_eq!(s, 0.0);
            }
        }
    }
}
