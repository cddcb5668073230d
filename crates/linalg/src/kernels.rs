//! Compute kernels for the dense hot path.
//!
//! Every dense primitive the solvers lean on per iteration — `matvec`,
//! the transposed accumulate behind `matvec_transposed_into`, `matmul`
//! and the vector `dot`/`axpy`/`distance` ops — is a row-blocked,
//! instruction-parallel loop that performs **the same floating-point
//! operations in the same order per output element** as the textbook
//! loop in [`scalar`]: reductions keep a single accumulator added left
//! to right. The speed comes from breaking serial FP dependency chains
//! and cutting memory traffic (four independent row accumulators in
//! [`matvec`], four fused row updates per output pass in [`acc_rows`]),
//! not from reassociating any reduction. Purely elementwise kernels
//! ([`axpy`], [`matmul`]) keep the slice-zip form: LLVM already
//! vectorizes it, and manual unrolls measured *slower*.
//!
//! [`scalar`] is the reference these kernels are proven against, not a
//! second path: no library code calls it. A property test
//! (`tests/kernel_equivalence.rs`) asserts bitwise equality with it
//! across shapes, ragged tails and non-finite inputs, with NaNs
//! canonicalized before comparison — NaN *payload* bits are the one
//! exception, which LLVM documents as nondeterministic (it may commute
//! `fadd` operands, and NaN-vs-NaN addition keeps whichever operand's
//! payload ends up on the favored side).

// Index-based loops below mirror the textbook algorithms (and the
// scalar reference loops they must match bit-for-bit); iterator
// rewrites obscure the unrolling structure.
#![allow(clippy::needless_range_loop)]

/// The reference kernels: verbatim transcriptions of the original
/// loops. They define the semantics the public kernels must reproduce
/// bit for bit; only tests and benches call them.
pub mod scalar {
    /// Dot product, accumulated left to right.
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    /// In-place `y += alpha * x`.
    pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    /// Squared Euclidean distance, accumulated left to right.
    pub fn distance_sq(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    /// Row-major matrix–vector product: `out[r] = a_row_r · v`.
    /// `a.len() == out.len() * cols`, `v.len() == cols`.
    pub fn matvec(cols: usize, a: &[f64], v: &[f64], out: &mut [f64]) {
        for (r, o) in out.iter_mut().enumerate() {
            *o = dot(&a[r * cols..(r + 1) * cols], v);
        }
    }

    /// Row accumulation `out += Σ_r v[r] · a_row_r` (i.e. `Aᵀv` folded
    /// onto a caller-initialized `out`), skipping rows whose
    /// coefficient is exactly zero.
    pub fn acc_rows(cols: usize, a: &[f64], v: &[f64], out: &mut [f64]) {
        for (r, &c) in v.iter().enumerate() {
            if c == 0.0 {
                continue;
            }
            for (o, &x) in out.iter_mut().zip(&a[r * cols..(r + 1) * cols]) {
                *o += c * x;
            }
        }
    }

    /// Matrix product `A · B` into a pre-zeroed `rows × cols` buffer,
    /// as row-axpy updates that skip zero coefficients of `A`
    /// (`A` is `rows × k`, `B` is `k × cols`).
    pub fn matmul(rows: usize, k: usize, cols: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
        for r in 0..rows {
            for kk in 0..k {
                let c = a[r * k + kk];
                if c == 0.0 {
                    continue;
                }
                let brow = &b[kk * cols..(kk + 1) * cols];
                let dst = &mut out[r * cols..(r + 1) * cols];
                for (d, &x) in dst.iter_mut().zip(brow) {
                    *d += c * x;
                }
            }
        }
    }
}

/// Dot product: single accumulator, 4-step unrolled body. The
/// accumulation order is exactly the scalar left-to-right fold.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let n = a.len();
    // One slice length for both operands lets LLVM drop bounds checks.
    let (a, b) = (&a[..n], &b[..n]);
    // `Iterator::sum` folds from -0.0 (the exact additive identity);
    // start there so the empty and signed-zero cases match the scalar
    // reference bit for bit.
    let mut acc = -0.0;
    let mut i = 0;
    while i + 4 <= n {
        acc += a[i] * b[i];
        acc += a[i + 1] * b[i + 1];
        acc += a[i + 2] * b[i + 2];
        acc += a[i + 3] * b[i + 3];
        i += 4;
    }
    while i < n {
        acc += a[i] * b[i];
        i += 1;
    }
    acc
}

/// In-place `y += alpha * x`. Output elements are independent, so the
/// zip form already auto-vectorizes optimally; a manual unroll only
/// obscures that from LLVM (measured slower).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Squared Euclidean distance: single accumulator, 4-step unrolled
/// body.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn distance_sq(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    let n = a.len();
    let (a, b) = (&a[..n], &b[..n]); // see `dot`
    let mut acc = -0.0; // sum's fold identity; see `dot`
    let mut i = 0;
    while i + 4 <= n {
        let d0 = a[i] - b[i];
        let d1 = a[i + 1] - b[i + 1];
        let d2 = a[i + 2] - b[i + 2];
        let d3 = a[i + 3] - b[i + 3];
        acc += d0 * d0;
        acc += d1 * d1;
        acc += d2 * d2;
        acc += d3 * d3;
        i += 4;
    }
    while i < n {
        let d = a[i] - b[i];
        acc += d * d;
        i += 1;
    }
    acc
}

/// Row-major matrix–vector product `out[r] = a_row_r · v` (`rows`
/// implied by `out.len()`) with 4-row blocking: four independent
/// accumulators (one per output row) break the serial FP-add chain a
/// per-row dot is stuck on, while each row's own sum still runs
/// strictly left to right — bit-identical per row.
pub fn matvec(cols: usize, a: &[f64], v: &[f64], out: &mut [f64]) {
    let rows = out.len();
    let v = &v[..cols];
    let mut r = 0;
    while r + 4 <= rows {
        let r0 = &a[r * cols..(r + 1) * cols];
        let r1 = &a[(r + 1) * cols..(r + 2) * cols];
        let r2 = &a[(r + 2) * cols..(r + 3) * cols];
        let r3 = &a[(r + 3) * cols..(r + 4) * cols];
        let (mut s0, mut s1, mut s2, mut s3) = (-0.0, -0.0, -0.0, -0.0);
        for i in 0..cols {
            let x = v[i];
            s0 += r0[i] * x;
            s1 += r1[i] * x;
            s2 += r2[i] * x;
            s3 += r3[i] * x;
        }
        out[r] = s0;
        out[r + 1] = s1;
        out[r + 2] = s2;
        out[r + 3] = s3;
        r += 4;
    }
    while r < rows {
        out[r] = dot(&a[r * cols..(r + 1) * cols], v);
        r += 1;
    }
}

/// Row accumulation `out += Σ_r v[r] · a_row_r` (the shared core of
/// `Aᵀv` and the fused `Aᵀv − c` gradient; `out` must be
/// caller-initialized) with 4-row blocking: when four consecutive
/// coefficients are all nonzero, `out` is read and written once for the
/// whole block instead of once per row. For each output element the
/// four adds still land in row order — exactly the order row-at-a-time
/// axpys produce — so results are bit-identical; blocks containing a
/// zero coefficient fall back to per-row [`axpy`], skipping the zero
/// rows.
pub fn acc_rows(cols: usize, a: &[f64], v: &[f64], out: &mut [f64]) {
    let out = &mut out[..cols];
    let rows = v.len();
    let mut r = 0;
    while r + 4 <= rows {
        let (c0, c1, c2, c3) = (v[r], v[r + 1], v[r + 2], v[r + 3]);
        if c0 != 0.0 && c1 != 0.0 && c2 != 0.0 && c3 != 0.0 {
            let r0 = &a[r * cols..(r + 1) * cols];
            let r1 = &a[(r + 1) * cols..(r + 2) * cols];
            let r2 = &a[(r + 2) * cols..(r + 3) * cols];
            let r3 = &a[(r + 3) * cols..(r + 4) * cols];
            for j in 0..cols {
                let mut acc = out[j];
                acc += c0 * r0[j];
                acc += c1 * r1[j];
                acc += c2 * r2[j];
                acc += c3 * r3[j];
                out[j] = acc;
            }
        } else {
            for k in 0..4 {
                let c = v[r + k];
                if c != 0.0 {
                    axpy(c, &a[(r + k) * cols..(r + k + 1) * cols], out);
                }
            }
        }
        r += 4;
    }
    while r < rows {
        let c = v[r];
        if c != 0.0 {
            axpy(c, &a[r * cols..(r + 1) * cols], out);
        }
        r += 1;
    }
}

/// Matrix product `A · B` into a pre-zeroed `rows × cols` buffer
/// (`A` is `rows × k`, `B` is `k × cols`): zero-skip row-axpy updates
/// with the destination row slice hoisted out of the inner loop.
pub fn matmul(rows: usize, k: usize, cols: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    for r in 0..rows {
        let dst = &mut out[r * cols..(r + 1) * cols];
        for kk in 0..k {
            let c = a[r * k + kk];
            if c == 0.0 {
                continue;
            }
            axpy(c, &b[kk * cols..(kk + 1) * cols], dst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, seed: f64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as f64) * 0.7 + seed).sin() * 3.0)
            .collect()
    }

    #[test]
    fn scalar_and_vector_dot_match_bitwise() {
        for n in [0, 1, 3, 4, 7, 16, 33] {
            let a = ramp(n, 0.3);
            let b = ramp(n, 1.1);
            assert_eq!(scalar::dot(&a, &b).to_bits(), dot(&a, &b).to_bits());
        }
    }

    #[test]
    fn scalar_and_vector_matvec_match_bitwise() {
        for (rows, cols) in [(0, 3), (1, 5), (4, 4), (5, 7), (9, 1), (6, 0)] {
            let a = ramp(rows * cols, 0.5);
            let v = ramp(cols, 2.2);
            let mut s = vec![0.0; rows];
            let mut u = vec![0.0; rows];
            scalar::matvec(cols, &a, &v, &mut s);
            matvec(cols, &a, &v, &mut u);
            assert_eq!(
                s.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                u.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }
}
