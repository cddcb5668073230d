//! The credit-weighted merge rule of §4.3.6, shared by every layer that
//! consolidates AP estimates.
//!
//! An estimate merges into the nearest existing estimate within a merge
//! radius; the merged position is the credit-weighted mean of the two,
//! and the credits add. The per-vehicle consolidator, the server's
//! reliability-weighted fusion and the AP map all fold estimates with
//! these two functions, so one input sequence gives bit-identical
//! positions in each.
//!
//! # Example
//!
//! ```
//! use crowdwifi_geo::merge::{credit_mean, nearest_within};
//! use crowdwifi_geo::Point;
//!
//! let entries = [Point::new(0.0, 0.0), Point::new(15.0, 0.0)];
//! let p = Point::new(9.0, 0.0);
//! let i = nearest_within(p, 10.0, entries.iter().copied().enumerate());
//! assert_eq!(i, Some(1));
//! assert_eq!(credit_mean(entries[1], 1.0, p, 1.0), Point::new(12.0, 0.0));
//! ```

use crate::point::Point;

/// The key of the candidate nearest to `p` within `radius`, or `None`
/// when no candidate is that close. Candidates at equal distance go to
/// the first one yielded.
pub fn nearest_within<K>(
    p: Point,
    radius: f64,
    candidates: impl IntoIterator<Item = (K, Point)>,
) -> Option<K> {
    let mut best: Option<(K, f64)> = None;
    for (key, position) in candidates {
        let d = position.distance(p);
        if d <= radius && best.as_ref().is_none_or(|(_, bd)| d < *bd) {
            best = Some((key, d));
        }
    }
    best.map(|(key, _)| key)
}

/// The credit-weighted mean `(a·ca + b·cb)/(ca + cb)` of two positions.
pub fn credit_mean(a: Point, ca: f64, b: Point, cb: f64) -> Point {
    let total = ca + cb;
    Point::new((a.x * ca + b.x * cb) / total, (a.y * ca + b.y * cb) / total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ties_go_to_the_first_and_far_candidates_never_win() {
        let pts = [Point::new(0.0, 0.0), Point::new(6.0, 0.0)];
        let near = |p| nearest_within(p, 10.0, pts.iter().copied().enumerate());
        // (3, 0) is 3 m from both.
        assert_eq!(near(Point::new(3.0, 0.0)), Some(0));
        assert_eq!(near(Point::new(4.0, 0.0)), Some(1));
        assert_eq!(near(Point::new(50.0, 0.0)), None);
    }
}
