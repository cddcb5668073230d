//! Dense linear algebra substrate for the CrowdWiFi reproduction.
//!
//! The CrowdWiFi pipeline needs a small but solid set of dense kernels:
//!
//! * a row-major [`Matrix`] type with the usual products ([`matrix`]),
//! * Householder QR with least-squares solving ([`qr`]),
//! * a symmetric Jacobi eigensolver ([`eigen`]) used by the MDS baseline,
//! * pivoted-Cholesky whitening ([`whiten`]): the Proposition 1
//!   orthogonalization — an orthonormal row basis of the sensing matrix
//!   and the transformed observation — from the small Gram matrix, with
//!   no SVD,
//! * singular value decomposition and the Moore–Penrose pseudo-inverse
//!   ([`svd`]), used by the MDS baseline and as the whitening tests'
//!   `A⁺` oracle,
//! * an LU solver ([`solve`]), used by IRLS,
//! * row-blocked unrolled kernels ([`kernels`]) behind the hot
//!   `Matrix`/[`vector`] operations — bit-identical to the scalar
//!   reference loops kept beside them for the tests.
//!
//! Everything is hand-rolled on `f64` — the problem sizes in the paper
//! (grids of `N ≤ ~1000` points, windows of `M ≤ ~200` measurements) are
//! comfortably in dense-kernel territory, and the repro brief forbids
//! pulling in an external linear-algebra crate.
//!
//! # Example
//!
//! ```
//! use crowdwifi_linalg::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = a.matmul(&a.transpose());
//! assert_eq!(b.get(0, 0), 5.0);
//! ```

#![deny(missing_docs)]

pub mod eigen;
pub mod kernels;
pub mod matrix;
pub mod qr;
pub mod solve;
pub mod svd;
pub mod vector;
pub mod whiten;

pub use eigen::SymmetricEigen;
pub use matrix::Matrix;
pub use qr::QrDecomposition;
pub use svd::Svd;

/// Errors produced by linear-algebra kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the expected shape relation.
        expected: String,
        /// Human-readable description of what was supplied.
        found: String,
    },
    /// The matrix is singular (or numerically so) and cannot be factored
    /// or inverted.
    Singular,
    /// An iterative kernel failed to converge within its iteration budget.
    NoConvergence {
        /// Number of iterations performed before giving up.
        iterations: usize,
    },
    /// The input is empty where a non-empty operand is required.
    Empty,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { expected, found } => {
                write!(f, "shape mismatch: expected {expected}, found {found}")
            }
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::NoConvergence { iterations } => {
                write!(f, "no convergence after {iterations} iterations")
            }
            LinalgError::Empty => write!(f, "empty operand"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
