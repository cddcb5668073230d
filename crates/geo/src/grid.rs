//! The driving grid: a lattice of candidate AP positions.
//!
//! §4.3.1 of the paper forms a grid over the driving area; every lattice
//! point is a candidate AP location and the sparse vector `θ` indexes
//! them. [`Grid`] owns the index ↔ coordinate mapping used everywhere.

use crate::point::Point;
use crate::rect::Rect;
use crate::{GeoError, Result};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A regular lattice over a rectangular driving area.
///
/// Grid points sit at the lattice *centers*: index `(i, j)` maps to
/// `min + (i + ½, j + ½)·ℓ`. Linear indices run row-major (x fastest).
///
/// # Example
///
/// ```
/// use crowdwifi_geo::{Grid, Point, Rect};
///
/// let area = Rect::new(Point::new(0.0, 0.0), Point::new(16.0, 8.0))?;
/// let grid = Grid::new(area, 8.0)?;
/// assert_eq!(grid.len(), 2); // 2 × 1 lattice cells
/// assert_eq!(grid.point(0), Point::new(4.0, 4.0));
/// # Ok::<(), crowdwifi_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    bounds: Rect,
    lattice: f64,
    nx: usize,
    ny: usize,
}

impl Grid {
    /// Creates a grid over `bounds` with lattice edge length `lattice`.
    ///
    /// At least one cell is created per axis even when the bounds are
    /// smaller than one lattice cell.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidLattice`] unless `lattice` is positive
    /// and finite.
    pub fn new(bounds: Rect, lattice: f64) -> Result<Self> {
        if !(lattice > 0.0) || !lattice.is_finite() {
            return Err(GeoError::InvalidLattice(lattice));
        }
        let nx = ((bounds.width() / lattice).ceil() as usize).max(1);
        let ny = ((bounds.height() / lattice).ceil() as usize).max(1);
        Ok(Grid {
            bounds,
            lattice,
            nx,
            ny,
        })
    }

    /// Grid formation of §4.3.1: bounding box of the reference points
    /// expanded by the radio range `radio_range`, with the given lattice.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidTrajectory`] when `reference_points` is
    /// empty, or lattice validation errors.
    pub fn from_reference_points(
        reference_points: &[Point],
        radio_range: f64,
        lattice: f64,
    ) -> Result<Self> {
        let bbox = Rect::bounding(reference_points).ok_or_else(|| {
            GeoError::InvalidTrajectory("no reference points for grid formation".to_string())
        })?;
        Grid::new(bbox.expanded(radio_range.max(0.0)), lattice)
    }

    /// The covered area.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Lattice edge length in meters.
    pub fn lattice(&self) -> f64 {
        self.lattice
    }

    /// Number of columns (x direction).
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of rows (y direction).
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of grid points `N = nx · ny`.
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// Whether the grid has no points (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Coordinate of linear index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    pub fn point(&self, idx: usize) -> Point {
        assert!(idx < self.len(), "grid index out of bounds");
        self.lattice_point(idx % self.nx, idx / self.nx)
    }

    /// Coordinate of the point in lattice column `i`, row `j`.
    fn lattice_point(&self, i: usize, j: usize) -> Point {
        Point::new(
            self.bounds.min().x + (i as f64 + 0.5) * self.lattice,
            self.bounds.min().y + (j as f64 + 0.5) * self.lattice,
        )
    }

    /// Linear index of the grid point nearest to `p` (clamped into the
    /// grid for outside points).
    pub fn nearest_index(&self, p: Point) -> usize {
        let clamped = self.bounds.clamp(p);
        let i =
            (((clamped.x - self.bounds.min().x) / self.lattice).floor() as usize).min(self.nx - 1);
        let j =
            (((clamped.y - self.bounds.min().y) / self.lattice).floor() as usize).min(self.ny - 1);
        j * self.nx + i
    }

    /// The index box holding every grid point within `radius` of
    /// `center`: the lattice columns and rows whose points can pass a
    /// `distance <= radius` test, widened by one cell on each side so
    /// coordinate round-off can never exclude a point, and clamped to
    /// the grid. The box is empty for a center farther than `radius`
    /// (plus that cell) outside the grid; a NaN bound keeps the whole
    /// axis. Callers still apply their own distance test to every index
    /// the box yields.
    ///
    /// # Example
    ///
    /// ```
    /// use crowdwifi_geo::{Grid, Point, Rect};
    ///
    /// let grid = Grid::new(Rect::new(Point::new(0.0, 0.0), Point::new(80.0, 80.0))?, 8.0)?;
    /// let center = Point::new(40.0, 40.0);
    /// let boxed = grid.index_box(center, 12.0);
    /// let within: Vec<usize> = (0..grid.len())
    ///     .filter(|&j| grid.point(j).distance(center) <= 12.0)
    ///     .collect();
    /// let walked: Vec<usize> = boxed.iter().map(|(j, _)| j).collect();
    /// assert!(within.iter().all(|j| walked.contains(j)));
    /// assert!(boxed.len() < grid.len());
    /// assert!(grid.index_box(Point::new(500.0, 40.0), 12.0).is_empty());
    /// # Ok::<(), crowdwifi_geo::GeoError>(())
    /// ```
    pub fn index_box(&self, center: Point, radius: f64) -> IndexBox<'_> {
        // Point k of an axis sits at min + (k + ½)·ℓ, so it is within
        // `radius` of c on that axis only for
        // k ∈ [(c − r − min)/ℓ − ½, (c + r − min)/ℓ − ½].
        let axis = |c: f64, min: f64, count: usize| -> Range<usize> {
            let lo = ((c - radius - min) / self.lattice - 0.5).floor() - 1.0;
            let hi = ((c + radius - min) / self.lattice - 0.5).ceil() + 1.0;
            let last = (count - 1) as f64;
            if hi < 0.0 || lo > last {
                return 0..0;
            }
            let lo = if lo > 0.0 { lo as usize } else { 0 };
            let hi = if hi < last { hi as usize } else { count - 1 };
            lo..hi + 1
        };
        IndexBox {
            grid: self,
            cols: axis(center.x, self.bounds.min().x, self.nx),
            rows: axis(center.y, self.bounds.min().y, self.ny),
        }
    }

    /// Iterates over all grid points in linear-index order.
    pub fn iter(&self) -> GridIter<'_> {
        GridIter { grid: self, idx: 0 }
    }

    /// The grid diagonal of one lattice cell (`ℓ√2`) — the paper's "grid
    /// diameter" used to normalize localization error.
    pub fn cell_diagonal(&self) -> f64 {
        self.lattice * std::f64::consts::SQRT_2
    }
}

/// A rectangular block of lattice indices; see [`Grid::index_box`].
#[derive(Debug, Clone, PartialEq)]
pub struct IndexBox<'a> {
    grid: &'a Grid,
    cols: Range<usize>,
    rows: Range<usize>,
}

impl<'a> IndexBox<'a> {
    /// Lattice columns (x indices) of the box.
    pub fn cols(&self) -> Range<usize> {
        self.cols.clone()
    }

    /// Lattice rows (y indices) of the box.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Number of grid points in the box.
    pub fn len(&self) -> usize {
        self.cols.len() * self.rows.len()
    }

    /// Whether the box holds no grid point.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The box's grid points as `(linear index, coordinate)` in
    /// ascending index order; each coordinate equals
    /// [`Grid::point`] of its index.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Point)> + 'a {
        let (grid, cols) = (self.grid, self.cols.clone());
        self.rows().flat_map(move |y| {
            cols.clone()
                .map(move |x| (y * grid.nx + x, grid.lattice_point(x, y)))
        })
    }
}

/// Iterator over grid points; see [`Grid::iter`].
#[derive(Debug)]
pub struct GridIter<'a> {
    grid: &'a Grid,
    idx: usize,
}

impl Iterator for GridIter<'_> {
    type Item = Point;

    fn next(&mut self) -> Option<Point> {
        if self.idx >= self.grid.len() {
            return None;
        }
        let p = self.grid.point(self.idx);
        self.idx += 1;
        Some(p)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.grid.len() - self.idx;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for GridIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(w: f64, h: f64) -> Rect {
        Rect::new(Point::new(0.0, 0.0), Point::new(w, h)).unwrap()
    }

    #[test]
    fn cell_counts_round_up() {
        let g = Grid::new(rect(17.0, 8.0), 8.0).unwrap();
        assert_eq!((g.nx(), g.ny()), (3, 1));
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn tiny_bounds_still_have_one_cell() {
        let g = Grid::new(rect(0.0, 0.0), 5.0).unwrap();
        assert_eq!(g.len(), 1);
        assert_eq!(g.point(0), Point::new(2.5, 2.5));
    }

    #[test]
    fn index_point_roundtrip() {
        let g = Grid::new(rect(40.0, 24.0), 8.0).unwrap();
        for idx in 0..g.len() {
            assert_eq!(g.nearest_index(g.point(idx)), idx);
        }
    }

    #[test]
    fn nearest_index_clamps_outside_points() {
        let g = Grid::new(rect(16.0, 16.0), 8.0).unwrap();
        assert_eq!(g.nearest_index(Point::new(-100.0, -100.0)), 0);
        assert_eq!(g.nearest_index(Point::new(100.0, 100.0)), g.len() - 1);
    }

    #[test]
    fn from_reference_points_expands_by_range() {
        let rps = [Point::new(10.0, 10.0), Point::new(20.0, 12.0)];
        let g = Grid::from_reference_points(&rps, 30.0, 10.0).unwrap();
        assert!(g.bounds().contains(Point::new(-15.0, -15.0)));
        assert!(g.bounds().contains(Point::new(45.0, 40.0)));
        assert!(Grid::from_reference_points(&[], 30.0, 10.0).is_err());
    }

    #[test]
    fn iterator_yields_all_points() {
        let g = Grid::new(rect(24.0, 16.0), 8.0).unwrap();
        let pts: Vec<Point> = g.iter().collect();
        assert_eq!(pts.len(), g.len());
        assert_eq!(pts[0], g.point(0));
        assert_eq!(pts[pts.len() - 1], g.point(g.len() - 1));
    }

    #[test]
    fn rejects_bad_lattice() {
        assert!(Grid::new(rect(1.0, 1.0), 0.0).is_err());
        assert!(Grid::new(rect(1.0, 1.0), -2.0).is_err());
        assert!(Grid::new(rect(1.0, 1.0), f64::INFINITY).is_err());
    }

    #[test]
    fn index_box_covers_the_disk_in_ascending_order() {
        let g = Grid::new(
            Rect::new(Point::new(-37.3, 12.9), Point::new(62.7, 92.9)).unwrap(),
            7.5,
        )
        .unwrap();
        for (c, r) in [
            (Point::new(10.0, 50.0), 20.0),
            (Point::new(-37.3, 12.9), 30.0),
            (Point::new(-60.0, 50.0), 25.0),
            (Point::new(0.0, 0.0), 0.0),
            (Point::new(12.0, 40.0), 1e4),
        ] {
            let boxed = g.index_box(c, r);
            let got: Vec<usize> = boxed
                .iter()
                .map(|(j, p)| {
                    assert_eq!(p, g.point(j));
                    j
                })
                .collect();
            assert_eq!(got.len(), boxed.len());
            assert!(got.windows(2).all(|w| w[0] < w[1]), "not ascending");
            for j in 0..g.len() {
                if g.point(j).distance(c) <= r {
                    assert!(
                        got.binary_search(&j).is_ok(),
                        "{j} within {r} of {c} missed"
                    );
                }
            }
        }
        assert_eq!(g.index_box(Point::new(12.0, 40.0), 1e4).len(), g.len());
        // Far outside, and a negative radius: empty.
        assert!(g.index_box(Point::new(500.0, 50.0), 100.0).is_empty());
        assert!(g.index_box(Point::new(10.0, -400.0), 100.0).is_empty());
        assert_eq!(g.index_box(Point::new(10.0, 50.0), -50.0).iter().count(), 0);
        // NaN keeps the whole grid (conservative).
        assert_eq!(
            g.index_box(Point::new(f64::NAN, 50.0), 10.0).cols(),
            0..g.nx()
        );
    }

    #[test]
    fn cell_diagonal_value() {
        let g = Grid::new(rect(8.0, 8.0), 8.0).unwrap();
        assert!((g.cell_diagonal() - 8.0 * 2.0_f64.sqrt()).abs() < 1e-12);
    }
}
