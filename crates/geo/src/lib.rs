//! Geometry substrate: points, rectangles, driving grids and trajectories.
//!
//! CrowdWiFi discretizes the driving area into a lattice of grid points
//! (§4.3.1) and formulates AP lookup as sparse recovery over those
//! points. This crate provides the spatial vocabulary shared by the whole
//! stack:
//!
//! * [`Point`] — planar position in meters (local ENU frame),
//! * [`Rect`] — axis-aligned bounding boxes,
//! * [`Grid`] — the driving grid with index ↔ coordinate mapping,
//! * [`Trajectory`] — timed vehicle paths that the simulator samples,
//! * [`merge`] — the credit-weighted merge rule of §4.3.6 that every
//!   consolidating layer folds estimates with.
//!
//! # Example
//!
//! ```
//! use crowdwifi_geo::{Grid, Point, Rect};
//!
//! let area = Rect::new(Point::new(0.0, 0.0), Point::new(80.0, 40.0))?;
//! let grid = Grid::new(area, 8.0)?;
//! let gp = grid.nearest_index(Point::new(33.0, 17.0));
//! assert!(grid.point(gp).distance(Point::new(33.0, 17.0)) <= 8.0);
//! # Ok::<(), crowdwifi_geo::GeoError>(())
//! ```

#![deny(missing_docs)]
// `!(x > 0.0)` style guards are used deliberately throughout: unlike
// `x <= 0.0`, they also reject NaN, which is exactly what parameter
// validation wants.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod grid;
pub mod merge;
pub mod point;
pub mod rect;
pub mod trajectory;

pub use grid::{Grid, IndexBox};
pub use point::Point;
pub use rect::Rect;
pub use trajectory::{Trajectory, Waypoint};

/// Errors produced by geometric constructors.
#[derive(Debug, Clone, PartialEq)]
pub enum GeoError {
    /// Rectangle corners are not ordered `min ≤ max` component-wise.
    InvalidRect {
        /// Offending minimum corner.
        min: Point,
        /// Offending maximum corner.
        max: Point,
    },
    /// Lattice length must be positive and finite.
    InvalidLattice(f64),
    /// A trajectory needs at least two waypoints with increasing times.
    InvalidTrajectory(String),
    /// Coordinates must be finite.
    NonFinite,
}

impl std::fmt::Display for GeoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GeoError::InvalidRect { min, max } => {
                write!(f, "invalid rectangle corners: min {min}, max {max}")
            }
            GeoError::InvalidLattice(l) => write!(f, "invalid lattice length {l}"),
            GeoError::InvalidTrajectory(why) => write!(f, "invalid trajectory: {why}"),
            GeoError::NonFinite => write!(f, "non-finite coordinate"),
        }
    }
}

impl std::error::Error for GeoError {}

/// Convenience alias for geometry results.
pub type Result<T> = std::result::Result<T, GeoError>;
