//! Centroid processing of dominant recovery coefficients (§4.3.4).
//!
//! The recovered `θ̂` is rarely an exact 1-sparse indicator; mass smears
//! over the grid points neighboring the true AP. Eq. (3) compensates by
//! taking the coefficient-weighted centroid of the dominant entries.

use crate::recovery::GridSupport;
use crowdwifi_geo::{point::weighted_centroid, Grid, Point};

/// Result of centroid processing for one AP hypothesis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CentroidEstimate {
    /// The Eq. (3) location estimate.
    pub position: Point,
    /// Total coefficient mass of the dominant set (Σ θ̂_k over S_k) — a
    /// crude confidence signal.
    pub mass: f64,
}

/// Applies Eq. (3): selects coefficients `θ̂(n) ≥ rel_threshold · max θ̂`
/// and returns their weighted centroid.
///
/// Returns `None` when `θ̂` has no positive coefficient (failed or
/// inconsistent recovery).
///
/// # Panics
///
/// Panics if `theta.len() != grid.len()` or `rel_threshold ∉ (0, 1]`.
///
/// # Example
///
/// ```
/// use crowdwifi_core::centroid::centroid_of_dominant;
/// use crowdwifi_geo::{Grid, Point, Rect};
///
/// let grid = Grid::new(
///     Rect::new(Point::new(0.0, 0.0), Point::new(20.0, 10.0)).unwrap(),
///     10.0,
/// ).unwrap();
/// let mut theta = vec![0.0; grid.len()];
/// theta[0] = 1.0;
/// theta[1] = 1.0;
/// let est = centroid_of_dominant(&theta, &grid, 0.5).unwrap();
/// // Equal mass on both cells: centroid midway.
/// assert_eq!(est.position, Point::new(10.0, 5.0));
/// ```
pub fn centroid_of_dominant(
    theta: &[f64],
    grid: &Grid,
    rel_threshold: f64,
) -> Option<CentroidEstimate> {
    assert_eq!(theta.len(), grid.len(), "theta/grid size mismatch");
    assert!(
        rel_threshold > 0.0 && rel_threshold <= 1.0,
        "rel_threshold must be in (0, 1]"
    );
    let max = theta.iter().cloned().fold(0.0_f64, f64::max);
    if max <= 0.0 {
        return None;
    }
    let zeta = rel_threshold * max;
    let mut points = Vec::new();
    let mut weights = Vec::new();
    for (n, &coef) in theta.iter().enumerate() {
        if coef >= zeta {
            points.push(grid.point(n));
            weights.push(coef);
        }
    }
    let position = weighted_centroid(&points, &weights)?;
    Some(CentroidEstimate {
        position,
        mass: weights.iter().sum(),
    })
}

/// Splits the dominant coefficients into spatially connected modes and
/// returns each mode's weighted centroid, strongest first (by mass).
///
/// A recovery from (nearly) colinear readings is bimodal: the true AP
/// position and its mirror across the trajectory carry similar mass.
/// Collapsing them into one centroid (as plain [`centroid_of_dominant`]
/// would) lands uselessly between the modes; returning both lets the
/// BIC/likelihood stage pick the side that is consistent with the rest
/// of the window.
///
/// Two dominant grid points belong to the same mode when they are within
/// `link_radius` of each other (transitively). Returns at most
/// `max_modes` modes.
///
/// `theta` is the sparse recovered indicator: every grid point outside
/// its support has `θ = 0`, so the maximum, the dominant set and the
/// modes come from the support alone.
///
/// # Panics
///
/// Panics if the support's indices and weights differ in length, its
/// indices are not strictly ascending or reach past the grid, or
/// `rel_threshold ∉ (0, 1]`.
pub fn candidate_modes(
    theta: &GridSupport,
    grid: &Grid,
    rel_threshold: f64,
    link_radius: f64,
    max_modes: usize,
) -> Vec<CentroidEstimate> {
    assert_eq!(
        theta.indices.len(),
        theta.weights.len(),
        "support/weight length mismatch"
    );
    assert!(
        theta.indices.windows(2).all(|w| w[0] < w[1])
            && theta.indices.last().is_none_or(|&n| n < grid.len()),
        "support indices must be strictly ascending grid indices"
    );
    assert!(
        rel_threshold > 0.0 && rel_threshold <= 1.0,
        "rel_threshold must be in (0, 1]"
    );
    let max = theta.weights.iter().cloned().fold(0.0_f64, f64::max);
    if max <= 0.0 || max_modes == 0 {
        return Vec::new();
    }
    let zeta = rel_threshold * max;
    let (dominant, dom_w): (Vec<usize>, Vec<f64>) = theta
        .indices
        .iter()
        .zip(&theta.weights)
        .filter(|&(_, &w)| w >= zeta)
        .map(|(&n, &w)| (n, w))
        .unzip();
    let dom_pts: Vec<Point> = dominant.iter().map(|&n| grid.point(n)).collect();

    // Union-find over dominant points linked within `link_radius`. Only
    // the lattice offsets of `link_offsets` can pass the distance test;
    // they point to later grid cells and are probed in grid-index
    // order, so the linked pairs `(i, j > i)` are visited in exactly the
    // order of an all-pairs scan and the components come out identical.
    // A probed cell is looked up in the sorted dominant indices with one
    // cursor per offset: an offset's in-grid targets ascend with `i`, so
    // its cursor only moves forward (a merge walk, linear in the
    // dominant set per offset).
    let mut parent: Vec<usize> = (0..dominant.len()).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let root = find(parent, parent[i]);
            parent[i] = root;
        }
        parent[i]
    }
    let (nx, ny) = (grid.nx() as isize, grid.ny() as isize);
    let offsets = link_offsets(grid.lattice(), link_radius, nx.max(ny));
    let mut cursors = vec![0_usize; offsets.len()];
    for (i, &n) in dominant.iter().enumerate() {
        let (cx, cy) = ((n % grid.nx()) as isize, (n / grid.nx()) as isize);
        for (&(dx, dy), cursor) in offsets.iter().zip(cursors.iter_mut()) {
            let (x, y) = (cx + dx, cy + dy);
            if x < 0 || x >= nx || y >= ny {
                continue;
            }
            let target = (y * nx + x) as usize;
            while *cursor < dominant.len() && dominant[*cursor] < target {
                *cursor += 1;
            }
            let j = *cursor;
            if j < dominant.len()
                && dominant[j] == target
                && dom_pts[i].distance(dom_pts[j]) <= link_radius
            {
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                if ri != rj {
                    parent[ri] = rj;
                }
            }
        }
    }

    // Weighted centroid per component (BTreeMap: deterministic order so
    // equal-mass modes never reorder between runs).
    let mut by_root: std::collections::BTreeMap<usize, (Vec<Point>, Vec<f64>)> =
        std::collections::BTreeMap::new();
    for i in 0..dominant.len() {
        let root = find(&mut parent, i);
        let entry = by_root.entry(root).or_default();
        entry.0.push(dom_pts[i]);
        entry.1.push(dom_w[i]);
    }
    let mut modes: Vec<CentroidEstimate> = by_root
        .values()
        .filter_map(|(pts, ws)| {
            weighted_centroid(pts, ws).map(|position| CentroidEstimate {
                position,
                mass: ws.iter().sum(),
            })
        })
        .collect();
    modes.sort_by(|a, b| {
        b.mass
            .partial_cmp(&a.mass)
            .expect("finite masses")
            .then(a.position.x.partial_cmp(&b.position.x).expect("finite x"))
            .then(a.position.y.partial_cmp(&b.position.y).expect("finite y"))
    });
    modes.truncate(max_modes);
    modes
}

/// Lattice offsets `(dx, dy)` to later grid cells (`dy > 0`, or
/// `dy = 0` and `dx > 0`) whose points can lie within `link_radius`, in
/// grid-index order. Point coordinates are `min + (i + ½)·lattice`, so
/// a pair's computed separation differs from `|d|·lattice` per axis
/// only by coordinate round-off; the `slack` keeps every offset that
/// round-off could bring inside the radius. Offsets stop at `max_reach`
/// cells, the grid's larger dimension.
fn link_offsets(lattice: f64, link_radius: f64, max_reach: isize) -> Vec<(isize, isize)> {
    if !(link_radius >= 0.0) {
        return Vec::new();
    }
    let slack = 1e-6 * lattice;
    let near = |d: isize| (d.unsigned_abs() as f64 * lattice - slack).max(0.0);
    let radius2 = link_radius * link_radius;
    let reach = ((link_radius / lattice).floor() as isize)
        .saturating_add(1)
        .min(max_reach);
    let mut offsets = Vec::new();
    for dy in 0..=reach {
        let x_from = if dy == 0 { 1 } else { -reach };
        for dx in x_from..=reach {
            let (ex, ey) = (near(dx), near(dy));
            if ex * ex + ey * ey <= radius2 {
                offsets.push((dx, dy));
            }
        }
    }
    offsets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdwifi_geo::Rect;

    fn grid() -> Grid {
        Grid::new(
            Rect::new(Point::new(0.0, 0.0), Point::new(40.0, 40.0)).unwrap(),
            10.0,
        )
        .unwrap()
    }

    #[test]
    fn single_spike_maps_to_its_grid_point() {
        let g = grid();
        let mut theta = vec![0.0; g.len()];
        theta[5] = 2.0;
        let est = centroid_of_dominant(&theta, &g, 0.3).unwrap();
        assert_eq!(est.position, g.point(5));
        assert_eq!(est.mass, 2.0);
    }

    #[test]
    fn threshold_excludes_weak_coefficients() {
        let g = grid();
        let mut theta = vec![0.0; g.len()];
        theta[0] = 1.0;
        theta[15] = 0.1; // below 0.3 × max
        let est = centroid_of_dominant(&theta, &g, 0.3).unwrap();
        assert_eq!(est.position, g.point(0));
    }

    #[test]
    fn weighting_pulls_centroid() {
        let g = grid();
        let mut theta = vec![0.0; g.len()];
        theta[0] = 3.0; // (5, 5)
        theta[1] = 1.0; // (15, 5)
        let est = centroid_of_dominant(&theta, &g, 0.1).unwrap();
        assert!((est.position.x - 7.5).abs() < 1e-12);
        assert!((est.position.y - 5.0).abs() < 1e-12);
    }

    #[test]
    fn all_zero_theta_yields_none() {
        let g = grid();
        assert!(centroid_of_dominant(&vec![0.0; g.len()], &g, 0.3).is_none());
    }

    #[test]
    #[should_panic(expected = "rel_threshold")]
    fn bad_threshold_panics() {
        let g = grid();
        centroid_of_dominant(&vec![0.0; g.len()], &g, 0.0);
    }

    /// The whole dense `θ` as a support (zeros included).
    fn full_support(theta: &[f64]) -> GridSupport {
        GridSupport {
            indices: (0..theta.len()).collect(),
            weights: theta.to_vec(),
        }
    }

    #[test]
    fn modes_separate_bimodal_mass() {
        let g = grid(); // 4×4 cells, 10 m lattice, centers (5,5)..(35,35)
        let mut theta = vec![0.0; g.len()];
        // Mode A: two adjacent cells bottom-left; Mode B: one cell top-right.
        theta[0] = 1.0; // (5, 5)
        theta[1] = 0.8; // (15, 5)
        theta[15] = 0.9; // (35, 35)
        let modes = candidate_modes(&full_support(&theta), &g, 0.3, 12.0, 3);
        // The nonzero entries alone give the same modes.
        let sparse = GridSupport {
            indices: vec![0, 1, 15],
            weights: vec![1.0, 0.8, 0.9],
        };
        assert_eq!(candidate_modes(&sparse, &g, 0.3, 12.0, 3), modes);
        assert_eq!(modes.len(), 2);
        // Strongest mode first (mass 1.8 > 0.9).
        assert!((modes[0].mass - 1.8).abs() < 1e-12);
        assert_eq!(modes[1].position, g.point(15));
        // Plain centroid would land between the modes.
        let collapsed = centroid_of_dominant(&theta, &g, 0.3).unwrap();
        assert!(collapsed.position.distance(modes[0].position) > 5.0);
    }

    #[test]
    fn modes_respect_max_cap_and_empty_theta() {
        let g = grid();
        let mut theta = vec![0.0; g.len()];
        theta[0] = 1.0;
        theta[5] = 1.0;
        theta[15] = 1.0;
        let modes = candidate_modes(&full_support(&theta), &g, 0.3, 5.0, 2);
        assert_eq!(modes.len(), 2);
        let zeros = full_support(&vec![0.0; g.len()]);
        assert!(candidate_modes(&zeros, &g, 0.3, 5.0, 3).is_empty());
        assert!(candidate_modes(&GridSupport::default(), &g, 0.3, 5.0, 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_support_panics() {
        let support = GridSupport {
            indices: vec![3, 1],
            weights: vec![1.0, 1.0],
        };
        candidate_modes(&support, &grid(), 0.3, 12.0, 3);
    }

    /// The all-pairs linking the lattice-local probe replaces.
    fn all_pairs_components(theta: &[f64], g: &Grid, zeta: f64, link: f64) -> Vec<Vec<usize>> {
        let dominant: Vec<usize> = (0..theta.len()).filter(|&n| theta[n] >= zeta).collect();
        let mut comp: Vec<usize> = (0..dominant.len()).collect();
        for i in 0..dominant.len() {
            for j in (i + 1)..dominant.len() {
                if g.point(dominant[i]).distance(g.point(dominant[j])) <= link {
                    let (a, b) = (comp[i], comp[j]);
                    for c in comp.iter_mut() {
                        if *c == a {
                            *c = b;
                        }
                    }
                }
            }
        }
        let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for (i, &c) in comp.iter().enumerate() {
            groups.entry(c).or_default().push(dominant[i]);
        }
        let mut out: Vec<Vec<usize>> = groups.into_values().collect();
        out.sort();
        out
    }

    #[test]
    fn lattice_local_linking_matches_all_pairs() {
        // An off-origin, non-square lattice with a link radius that
        // lands exactly on lattice distances (2 cells) and between them.
        let g = Grid::new(
            Rect::new(Point::new(-313.7, 91.3), Point::new(-113.7, 211.3)).unwrap(),
            8.0,
        )
        .unwrap();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        for case in 0..40 {
            let theta: Vec<f64> = (0..g.len())
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                    if u < 0.15 + 0.02 * (case % 10) as f64 {
                        u
                    } else {
                        0.0
                    }
                })
                .collect();
            let link = [16.0, 8.0, 11.3, 24.5, 0.0][case % 5];
            let max = theta.iter().cloned().fold(0.0_f64, f64::max);
            let expected = all_pairs_components(&theta, &g, 0.3 * max, link);
            let modes = candidate_modes(&full_support(&theta), &g, 0.3, link, usize::MAX);
            // The nonzero entries alone (a sparse recovery's support).
            let nonzero = GridSupport {
                indices: (0..theta.len()).filter(|&n| theta[n] != 0.0).collect(),
                weights: theta.iter().copied().filter(|&w| w != 0.0).collect(),
            };
            assert_eq!(
                candidate_modes(&nonzero, &g, 0.3, link, usize::MAX),
                modes,
                "case {case}"
            );
            assert_eq!(modes.len(), expected.len(), "case {case}");
            let mut want: Vec<CentroidEstimate> = expected
                .iter()
                .map(|comp| {
                    let pts: Vec<Point> = comp.iter().map(|&n| g.point(n)).collect();
                    let ws: Vec<f64> = comp.iter().map(|&n| theta[n]).collect();
                    CentroidEstimate {
                        position: weighted_centroid(&pts, &ws).unwrap(),
                        mass: ws.iter().sum(),
                    }
                })
                .collect();
            want.sort_by(|a, b| {
                b.mass
                    .partial_cmp(&a.mass)
                    .unwrap()
                    .then(a.position.x.partial_cmp(&b.position.x).unwrap())
                    .then(a.position.y.partial_cmp(&b.position.y).unwrap())
            });
            assert_eq!(modes, want, "case {case}");
        }
    }
}
