//! Runtime-dispatched compute kernels for the dense hot path.
//!
//! Every dense primitive the solvers lean on per iteration — `matvec`,
//! the transposed accumulate behind `matvec_transposed_into`, `matmul`
//! and the vector
//! `dot`/`axpy`/`distance` ops — exists here in two variants:
//!
//! * [`scalar`] — a verbatim transcription of the original loops. This
//!   is the reference semantics; the byte-equivalence contracts of the
//!   transport layer and the frozen seed-solver assertions in the
//!   throughput bench are defined against it.
//! * [`vector`] — row-blocked, instruction-parallel rewrites.
//!   They are constructed to perform **the same floating-point
//!   operations in the same order per output element** as the scalar
//!   variant, so results are bit-for-bit identical — up to NaN
//!   *payload* bits, which LLVM documents as nondeterministic (it may
//!   commute `fadd` operands, and NaN-vs-NaN addition keeps whichever
//!   operand's payload ends up on the favored side). A property test
//!   (`tests/kernel_equivalence.rs`) enforces bitwise equality across
//!   shapes, ragged tails and non-finite inputs, with NaNs
//!   canonicalized before comparison.
//!   The speed comes from breaking serial FP dependency chains and
//!   cutting memory traffic (four independent row accumulators in
//!   `matvec`, four fused row updates per output pass in `acc_rows`),
//!   not from reassociating any reduction.
//!
//! The top-level functions dispatch between the two at runtime: setting
//! `CROWDWIFI_FORCE_SCALAR=1` in the environment pins the scalar path
//! (benches and A/B tests can also pin a mode in-process with
//! [`set_mode`]). Batched forms ([`matvec_batch`], [`acc_rows_batch`])
//! stream the matrix once for several vectors instead of once per
//! vector.

// Index-based loops below mirror the textbook algorithms (and the
// scalar reference loops they must match bit-for-bit); iterator
// rewrites obscure the unrolling structure.
#![allow(clippy::needless_range_loop)]

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation the dispatched entry points use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The reference loops (seed-exact semantics).
    Scalar,
    /// The unrolled, instruction-parallel loops (bit-identical results).
    Vectorized,
}

/// 0 = unresolved (read the environment on first use),
/// 1 = scalar, 2 = vectorized.
static MODE: AtomicU8 = AtomicU8::new(0);

/// Environment variable that pins the scalar kernels for a process.
pub const FORCE_SCALAR_ENV: &str = "CROWDWIFI_FORCE_SCALAR";

/// Resolves the active kernel mode (reading [`FORCE_SCALAR_ENV`] once
/// on first use; the result is cached in an atomic).
#[inline]
pub fn mode() -> Mode {
    match MODE.load(Ordering::Relaxed) {
        1 => Mode::Scalar,
        2 => Mode::Vectorized,
        _ => resolve_mode(),
    }
}

#[cold]
fn resolve_mode() -> Mode {
    let forced = std::env::var(FORCE_SCALAR_ENV)
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    let m = if forced {
        Mode::Scalar
    } else {
        Mode::Vectorized
    };
    MODE.store(if forced { 1 } else { 2 }, Ordering::Relaxed);
    m
}

/// Pins the kernel mode process-wide (`None` returns to the
/// environment-derived default, re-read on next use). Intended for
/// benches and A/B tests; both modes produce bit-identical results, so
/// flipping mid-run never changes what is computed, only how fast.
pub fn set_mode(mode: Option<Mode>) {
    let v = match mode {
        None => 0,
        Some(Mode::Scalar) => 1,
        Some(Mode::Vectorized) => 2,
    };
    MODE.store(v, Ordering::Relaxed);
}

/// Whether the dispatched entry points currently use the unrolled path.
#[inline]
pub fn vectorized() -> bool {
    mode() == Mode::Vectorized
}

/// The reference kernels: verbatim transcriptions of the original
/// (pre-`kernels`) loops. Dispatch lands here under
/// `CROWDWIFI_FORCE_SCALAR=1`.
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

/// The blocked kernels. Each performs the same FP operations in the
/// same order per output element as its [`scalar`] twin — reductions
/// keep a single accumulator added left to right; the speed comes from
/// *row blocking* (four independent accumulators in `matvec`, four
/// fused row updates per pass over `out` in `acc_rows`), which cuts
/// memory traffic without reassociating anything — so results match
/// the scalar path bit for bit, including for ∞ inputs (NaN payload
/// bits are the one exception; see the module docs). Purely
/// elementwise kernels (`axpy`, `matmul`) keep the slice-zip
/// form: LLVM already vectorizes it, and manual unrolls measured
/// *slower*.
pub mod vector {
    /// Dot product: single accumulator, 4-step unrolled body. The
    /// accumulation order is exactly the scalar left-to-right fold.
    pub fn dot(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        // `Iterator::sum` folds from -0.0 (the exact additive
        // identity); start there so the empty and signed-zero cases
        // match the scalar reference bit for bit.
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

    /// In-place `y += alpha * x`. Output elements are independent, so
    /// the zip form already auto-vectorizes optimally; a manual unroll
    /// only obscures that from LLVM (measured slower). Kept as the
    /// building block the blocked kernels below fall back to.
    pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    }

    /// Squared distance: single accumulator, 4-step unrolled body.
    pub fn distance_sq(a: &[f64], b: &[f64]) -> f64 {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
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

    /// Matrix–vector product with 4-row blocking: four independent
    /// accumulators (one per output row) break the serial FP-add chain
    /// the scalar per-row dot is stuck on, while each row's own sum
    /// still runs strictly left to right — bit-identical per row.
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

    /// Row accumulation `out += Σ_r v[r] · a_row_r` with 4-row
    /// blocking: when four consecutive coefficients are all nonzero,
    /// `out` is read and written once for the whole block instead of
    /// once per row. For each output element the four adds still land
    /// in row order — exactly the order the scalar kernel's
    /// row-at-a-time axpys produce — so results are bit-identical;
    /// blocks containing a zero coefficient fall back to per-row
    /// [`axpy`] to preserve the scalar zero-skip.
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

    /// Matrix product into a pre-zeroed buffer: same zero-skip row-axpy
    /// structure as the scalar kernel, with the destination row slice
    /// hoisted out of the inner loop.
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
}

/// Dispatched dot product (see [`scalar::dot`] / [`vector::dot`]).
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    if vectorized() {
        vector::dot(a, b)
    } else {
        scalar::dot(a, b)
    }
}

/// Dispatched in-place `y += alpha * x`.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    if vectorized() {
        vector::axpy(alpha, x, y)
    } else {
        scalar::axpy(alpha, x, y)
    }
}

/// Dispatched squared Euclidean distance.
///
/// # Panics
///
/// Panics if lengths differ.
#[inline]
pub fn distance_sq(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    if vectorized() {
        vector::distance_sq(a, b)
    } else {
        scalar::distance_sq(a, b)
    }
}

/// Dispatched matrix–vector product (`a` row-major, `rows` implied by
/// `out.len()`).
pub fn matvec(cols: usize, a: &[f64], v: &[f64], out: &mut [f64]) {
    if vectorized() {
        vector::matvec(cols, a, v, out)
    } else {
        scalar::matvec(cols, a, v, out)
    }
}

/// Dispatched row accumulation (the shared core of `Aᵀv` and the fused
/// `Aᵀv − c` gradient; `out` must be caller-initialized).
pub fn acc_rows(cols: usize, a: &[f64], v: &[f64], out: &mut [f64]) {
    if vectorized() {
        vector::acc_rows(cols, a, v, out)
    } else {
        scalar::acc_rows(cols, a, v, out)
    }
}

/// Dispatched matrix product into a pre-zeroed `rows × cols` buffer.
pub fn matmul(rows: usize, k: usize, cols: usize, a: &[f64], b: &[f64], out: &mut [f64]) {
    if vectorized() {
        vector::matmul(rows, k, cols, a, b, out)
    } else {
        scalar::matmul(rows, k, cols, a, b, out)
    }
}

/// Batched matrix–vector products: `outs[j] = A · vs[j]` for all `j`
/// in **one pass over the matrix rows** (each row is loaded once and
/// dotted against every right-hand side), instead of the `k` separate
/// full-matrix traversals the one-vector entry point would make.
/// Per column the accumulation order equals [`matvec`], so each output
/// is bit-identical to a standalone product.
///
/// # Panics
///
/// Panics if any `vs[j].len() != cols` or `outs` length differs from
/// `vs`.
pub fn matvec_batch(rows: usize, cols: usize, a: &[f64], vs: &[Vec<f64>], outs: &mut [Vec<f64>]) {
    assert_eq!(vs.len(), outs.len(), "matvec_batch arity mismatch");
    for (v, out) in vs.iter().zip(outs.iter_mut()) {
        assert_eq!(v.len(), cols, "matvec_batch shape mismatch");
        out.clear();
        out.resize(rows, 0.0);
    }
    if vectorized() {
        let mut r = 0;
        while r < rows {
            let row = &a[r * cols..(r + 1) * cols];
            for (v, out) in vs.iter().zip(outs.iter_mut()) {
                out[r] = vector::dot(row, v);
            }
            r += 1;
        }
    } else {
        for (v, out) in vs.iter().zip(outs.iter_mut()) {
            scalar::matvec(cols, a, v, out);
        }
    }
}

/// Batched transposed products: `outs[j] += Aᵀ · vs[j]` onto
/// caller-initialized outputs, streaming the matrix rows once for all
/// right-hand sides. Zero coefficients are skipped per column exactly
/// as in [`acc_rows`], so each output is bit-identical to a standalone
/// accumulation.
///
/// # Panics
///
/// Panics if any `vs[j].len() != rows`, any `outs[j].len() != cols`, or
/// `outs` length differs from `vs`.
pub fn acc_rows_batch(rows: usize, cols: usize, a: &[f64], vs: &[Vec<f64>], outs: &mut [Vec<f64>]) {
    assert_eq!(vs.len(), outs.len(), "acc_rows_batch arity mismatch");
    for (v, out) in vs.iter().zip(outs.iter()) {
        assert_eq!(v.len(), rows, "acc_rows_batch shape mismatch");
        assert_eq!(out.len(), cols, "acc_rows_batch output mismatch");
    }
    if vectorized() {
        let mut r = 0;
        while r < rows {
            let row = &a[r * cols..(r + 1) * cols];
            for (v, out) in vs.iter().zip(outs.iter_mut()) {
                let c = v[r];
                if c == 0.0 {
                    continue;
                }
                vector::axpy(c, row, out);
            }
            r += 1;
        }
    } else {
        for (v, out) in vs.iter().zip(outs.iter_mut()) {
            scalar::acc_rows(cols, a, v, out);
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
            assert_eq!(scalar::dot(&a, &b).to_bits(), vector::dot(&a, &b).to_bits());
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
            vector::matvec(cols, &a, &v, &mut u);
            assert_eq!(
                s.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                u.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn mode_round_trips() {
        // Save and restore whatever the process-wide state was, so this
        // test composes with the equivalence suite.
        let before = mode();
        set_mode(Some(Mode::Scalar));
        assert!(!vectorized());
        set_mode(Some(Mode::Vectorized));
        assert!(vectorized());
        set_mode(Some(before));
    }

    #[test]
    fn batch_matches_singles() {
        let (rows, cols) = (5, 7);
        let a = ramp(rows * cols, 0.9);
        let vs: Vec<Vec<f64>> = (0..3).map(|j| ramp(cols, j as f64)).collect();
        let mut outs: Vec<Vec<f64>> = vec![Vec::new(); 3];
        matvec_batch(rows, cols, &a, &vs, &mut outs);
        for (v, out) in vs.iter().zip(&outs) {
            let mut single = vec![0.0; rows];
            matvec(cols, &a, v, &mut single);
            assert_eq!(&single, out);
        }

        let ws: Vec<Vec<f64>> = (0..3).map(|j| ramp(rows, 5.0 + j as f64)).collect();
        let mut touts: Vec<Vec<f64>> = vec![vec![0.0; cols]; 3];
        acc_rows_batch(rows, cols, &a, &ws, &mut touts);
        for (w, out) in ws.iter().zip(&touts) {
            let mut single = vec![0.0; cols];
            acc_rows(cols, &a, w, &mut single);
            assert_eq!(&single, out);
        }
    }
}
