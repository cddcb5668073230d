//! Free functions over `&[f64]` vectors.
//!
//! These are deliberately plain-slice helpers rather than a newtype: the
//! solver crates shuffle buffers in and out of hot loops and a zero-cost
//! slice API keeps the call sites readable.

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    crate::kernels::dot(a, b)
}

/// Euclidean (ℓ2) norm.
pub fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

/// ℓ1 norm (sum of absolute values).
pub fn norm1(v: &[f64]) -> f64 {
    v.iter().map(|x| x.abs()).sum()
}

/// ∞-norm (maximum absolute value); `0.0` for the empty vector.
pub fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
}

/// In-place `y += alpha * x`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    crate::kernels::axpy(alpha, x, y)
}

/// Element-wise difference `a - b` as a new vector.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(a.len());
    sub_into(a, b, &mut out);
    out
}

/// [`sub`] into a caller-provided buffer (cleared and refilled), so hot
/// loops reuse one allocation.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn sub_into(a: &[f64], b: &[f64], out: &mut Vec<f64>) {
    assert_eq!(a.len(), b.len(), "sub length mismatch");
    out.clear();
    out.extend(a.iter().zip(b).map(|(x, y)| x - y));
}

/// Scales a vector by `s` into a new vector.
pub fn scale(v: &[f64], s: f64) -> Vec<f64> {
    v.iter().map(|x| x * s).collect()
}

/// Euclidean distance between two equal-length vectors.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    crate::kernels::distance_sq(a, b).sqrt()
}

/// Indices of entries with absolute value above `tol`, ascending.
pub fn support(v: &[f64], tol: f64) -> Vec<usize> {
    v.iter()
        .enumerate()
        .filter(|(_, x)| x.abs() > tol)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let a = [3.0, 4.0];
        assert_eq!(dot(&a, &a), 25.0);
        assert!((norm2(&a) - 5.0).abs() < 1e-12);
        assert_eq!(norm1(&a), 7.0);
        assert_eq!(norm_inf(&a), 4.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn axpy_in_place() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(0.5, &x, &mut y);
        assert_eq!(y, [10.5, 21.0]);
    }

    #[test]
    fn support_detection() {
        let v = [0.0, 1e-12, 0.5, -2.0];
        assert_eq!(support(&v, 1e-6), vec![2, 3]);
    }

    #[test]
    fn distance_known() {
        assert!((distance(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
