//! Row-major dense matrix type and elementary operations.

// Index-based loops below mirror the textbook algorithms; iterator
// rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

use crate::kernels;
use crate::{LinalgError, Result};

/// A dense, row-major `f64` matrix.
///
/// This is the workhorse of the CrowdWiFi math stack: the sparsity basis
/// `Ψ`, measurement matrix `Φ`, sensing matrix `A = ΦΨ` and orthogonalized
/// operator `Q` of the paper are all `Matrix` values.
///
/// # Example
///
/// ```
/// use crowdwifi_linalg::Matrix;
///
/// let i = Matrix::identity(3);
/// let x = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
/// assert_eq!(i.matmul(&x), x);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows.checked_mul(cols).expect("matrix dimensions overflow");
        Matrix {
            rows,
            cols,
            data: vec![0.0; len],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, f(r, c));
            }
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut m = Matrix::zeros(rows.len(), cols);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "inconsistent row lengths");
            m.data[r * cols..(r + 1) * cols].copy_from_slice(row);
        }
        m
    }

    /// Creates a matrix taking ownership of a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                expected: format!("{rows}*{cols}={} elements", rows * cols),
                found: format!("{} elements", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a column vector (an `n × 1` matrix) from a slice.
    pub fn column(v: &[f64]) -> Self {
        Matrix {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
        }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn diagonal(diag: &[f64]) -> Self {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m.set(i, i, d);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new `Vec`.
    ///
    /// Hot loops that only need to *read* a column should prefer
    /// [`Matrix::col_iter`] (or the fused [`Matrix::col_dot`] /
    /// [`Matrix::col_sumsq`]), which walk the strided storage without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column out of bounds");
        self.col_iter(c).collect()
    }

    /// Iterates over column `c` (top to bottom) without allocating —
    /// the borrowing counterpart of [`Matrix::col`] for hot loops.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn col_iter(&self, c: usize) -> impl Iterator<Item = f64> + '_ {
        assert!(c < self.cols, "column out of bounds");
        let tail = if self.rows == 0 {
            &[][..]
        } else {
            &self.data[c..]
        };
        tail.iter().step_by(self.cols.max(1)).copied()
    }

    /// Dot product of column `c` with `v`, accumulated top to bottom —
    /// exactly the floats `vector::dot(&self.col(c), v)` would produce,
    /// without materializing the column.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or `v.len() != self.rows()`.
    pub fn col_dot(&self, c: usize, v: &[f64]) -> f64 {
        assert_eq!(v.len(), self.rows, "col_dot length mismatch");
        // -0.0 is `dot`'s fold identity; see `kernels::dot`.
        let mut acc = -0.0;
        for (x, &y) in self.col_iter(c).zip(v) {
            acc += x * y;
        }
        acc
    }

    /// Sum of squares of column `c`, accumulated top to bottom — the
    /// same floats as `vector::dot(&col, &col)` on the copied column.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn col_sumsq(&self, c: usize) -> f64 {
        // -0.0 is `dot`'s fold identity; see `kernels::dot`.
        let mut acc = -0.0;
        for x in self.col_iter(c) {
            acc += x * x;
        }
        acc
    }

    /// ℓ2 norm of column `c` (`col_sumsq(c).sqrt()`), matching
    /// `vector::norm2(&self.col(c))` bit for bit without the copy.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn col_norm2(&self, c: usize) -> f64 {
        self.col_sumsq(c).sqrt()
    }

    /// Underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.set(c, r, self.get(r, c));
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Matrix::zeros(self.rows, other.cols);
        kernels::matmul(
            self.rows,
            self.cols,
            other.cols,
            &self.data,
            &other.data,
            &mut out.data,
        );
        out
    }

    /// Matrix–vector product `self * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.rows);
        self.matvec_into(v, &mut out);
        out
    }

    /// [`Matrix::matvec`] into a caller-provided buffer (cleared and
    /// refilled), so hot loops reuse one allocation. Produces exactly
    /// the floats [`Matrix::matvec`] would.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec_into(&self, v: &[f64], out: &mut Vec<f64>) {
        assert_eq!(v.len(), self.cols, "matvec shape mismatch");
        out.clear();
        out.resize(self.rows, 0.0);
        kernels::matvec(self.cols, &self.data, v, out);
    }

    /// Transposed matrix–vector product `selfᵀ * v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()`.
    pub fn matvec_transposed(&self, v: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.cols);
        self.matvec_transposed_into(v, &mut out);
        out
    }

    /// [`Matrix::matvec_transposed`] into a caller-provided buffer
    /// (cleared and refilled); accumulation order — including the
    /// zero-coefficient row skip — matches the allocating form, so the
    /// two produce identical floats.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()`.
    pub fn matvec_transposed_into(&self, v: &[f64], out: &mut Vec<f64>) {
        assert_eq!(v.len(), self.rows, "matvec_transposed shape mismatch");
        out.clear();
        out.resize(self.cols, 0.0);
        kernels::acc_rows(self.cols, &self.data, v, out);
    }

    /// Element-wise sum `self + other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Element-wise difference `self - other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| a * s).collect(),
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|a| a * a).sum::<f64>().sqrt()
    }

    /// Maximum absolute element value (∞-entrywise norm); `0.0` when empty.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &a| m.max(a.abs()))
    }

    /// Returns a new matrix consisting of the selected columns, in order.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        let mut m = Matrix::zeros(self.rows, indices.len());
        for r in 0..self.rows {
            for (dst, &src) in indices.iter().enumerate() {
                assert!(src < self.cols, "column index out of bounds");
                m.set(r, dst, self.get(r, src));
            }
        }
        m
    }

    /// `true` if every corresponding element differs by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  [")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self.get(r, c))?;
            }
            writeln!(f, "]")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_right_shape_and_content() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_is_multiplicative_identity() {
        let x = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64 + 1.0);
        assert_eq!(Matrix::identity(3).matmul(&x), x);
        assert_eq!(x.matmul(&Matrix::identity(3)), x);
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(2, 4, |r, c| (r * 7 + c) as f64);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matvec_matches_matmul_with_column() {
        let a = Matrix::from_fn(3, 2, |r, c| (r + c) as f64);
        let v = [1.0, -2.0];
        let by_vec = a.matvec(&v);
        let by_mat = a.matmul(&Matrix::column(&v));
        for (i, x) in by_vec.iter().enumerate() {
            assert_eq!(*x, by_mat.get(i, 0));
        }
    }

    #[test]
    fn matvec_transposed_matches_transpose_then_matvec() {
        let a = Matrix::from_fn(3, 2, |r, c| (2 * r + 3 * c) as f64);
        let v = [1.0, 0.5, -1.0];
        assert_eq!(a.matvec_transposed(&v), a.transpose().matvec(&v));
    }

    #[test]
    fn select_cols_in_order() {
        let m = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let csel = m.select_cols(&[1]);
        assert_eq!(csel.col(0), vec![1.0, 4.0, 7.0]);
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        let m = Matrix::identity(2);
        assert!(!format!("{m}").is_empty());
    }

    #[test]
    fn diagonal_matrix() {
        let d = Matrix::diagonal(&[1.0, 2.0]);
        assert_eq!(d.get(0, 0), 1.0);
        assert_eq!(d.get(1, 1), 2.0);
        assert_eq!(d.get(0, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn get_out_of_bounds_panics() {
        Matrix::zeros(1, 1).get(1, 0);
    }
}
