//! "APs ahead on my trajectory": corridor queries over the map.
//!
//! A user vehicle hands the map its upcoming route polyline; the map
//! walks the geohash cells the corridor sweeps (prefix walk: the cell
//! set is computed first, then grouped by shard so each touched shard
//! is snapshotted exactly once) and filters the candidate entries by
//! exact distance to the polyline. This is the paper's offloading
//! use case (§6.3) and the feed for `handoff`'s BRR policy.

use crate::map::{canonical_order, GeoMap, MapAp};
use crowdwifi_geo::{Point, Rect};
use std::collections::{BTreeMap, BTreeSet};

/// Distance from `p` to the segment `a`–`b`.
pub(crate) fn dist_to_segment(p: Point, a: Point, b: Point) -> f64 {
    let (dx, dy) = (b.x - a.x, b.y - a.y);
    let len2 = dx * dx + dy * dy;
    if len2 <= 0.0 {
        return p.distance(a);
    }
    let t = (((p.x - a.x) * dx + (p.y - a.y) * dy) / len2).clamp(0.0, 1.0);
    p.distance(Point::new(a.x + t * dx, a.y + t * dy))
}

/// Distance from `p` to a polyline (minimum over its segments).
fn dist_to_path(p: Point, path: &[Point]) -> f64 {
    match path {
        [] => f64::INFINITY,
        [only] => p.distance(*only),
        _ => path
            .windows(2)
            .map(|w| dist_to_segment(p, w[0], w[1]))
            .fold(f64::INFINITY, f64::min),
    }
}

impl GeoMap {
    /// All entries within `half_width` meters of the route polyline
    /// `path` whose credit clears the spurious floor, deduplicated and
    /// in canonical order — the candidate list a vehicle's handoff
    /// policy consumes.
    ///
    /// The cell walk cuts the polyline into pieces of at most half a
    /// bucket, unions the covering cells of each piece's bounding box
    /// padded by `half_width`, then probes each touched shard's current
    /// generation once. Every point within `half_width` of a piece lies
    /// in that padded box, so the walk reaches every cell the exact
    /// corridor touches — also where a diagonal path clips the corner
    /// of a bucket between two sample points.
    pub fn aps_ahead(&self, path: &[Point], half_width: f64) -> Vec<MapAp> {
        if path.is_empty() || !half_width.is_finite() || half_width < 0.0 {
            return Vec::new();
        }
        let cfg = self.config();
        let world = *self.world();
        let n = f64::from(1u32 << cfg.bucket_level.min(30));
        let step = (world.area().width() / n).min(world.area().height() / n) / 2.0;

        // 1. Prefix walk: collect the bucket cells the corridor sweeps.
        let mut cells: BTreeSet<u64> = BTreeSet::new();
        let mut cover = |p: Point, q: Point| {
            let Ok(bbox) = Rect::new(
                Point::new(p.x.min(q.x) - half_width, p.y.min(q.y) - half_width),
                Point::new(p.x.max(q.x) + half_width, p.y.max(q.y) + half_width),
            ) else {
                return;
            };
            for cell in world.cells_covering(bbox, cfg.bucket_level) {
                cells.insert(cell.code);
            }
        };
        cover(path[0], path[0]);
        for w in path.windows(2) {
            let (a, b) = (w[0], w[1]);
            let len = a.distance(b);
            if !len.is_finite() {
                continue;
            }
            let samples = (len / step).ceil().max(1.0) as usize;
            let mut from = a;
            for i in 1..=samples {
                let to = a.lerp(b, i as f64 / samples as f64);
                cover(from, to);
                from = to;
            }
        }

        // 2. Group by shard; snapshot each touched shard once.
        let mut by_shard: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
        for code in cells {
            by_shard
                .entry(self.shard_of_code(code))
                .or_default()
                .push(code);
        }
        let mut out: Vec<MapAp> = Vec::new();
        for (s, codes) in by_shard {
            let generation = self.published(s);
            for code in codes {
                let Some(bucket) = generation.buckets.get(&code) else {
                    continue;
                };
                for ap in bucket.iter() {
                    if ap.credit > cfg.min_credit && dist_to_path(ap.position, path) <= half_width {
                        out.push(*ap);
                    }
                }
            }
        }

        // 3. Canonical order + dedup (an entry can only appear once per
        // generation, but migrations mean defensive dedup is cheap).
        out.sort_by(canonical_order);
        out.dedup_by(|a, b| {
            a.id == b.id
                && a.position.x.to_bits() == b.position.x.to_bits()
                && a.position.y.to_bits() == b.position.y.to_bits()
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map::MapConfig;
    use crowdwifi_core::ApEstimate;

    fn map() -> GeoMap {
        let world = Rect::new(Point::new(0.0, 0.0), Point::new(1024.0, 1024.0)).unwrap();
        let mut cfg = MapConfig::new(world);
        cfg.shard_level = 2;
        cfg.bucket_level = 5; // 32 m buckets
        GeoMap::new(cfg).unwrap()
    }

    fn est(x: f64, y: f64, credit: f64) -> ApEstimate {
        ApEstimate {
            position: Point::new(x, y),
            credit,
        }
    }

    #[test]
    fn segment_distance_basics() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        assert!((dist_to_segment(Point::new(5.0, 3.0), a, b) - 3.0).abs() < 1e-12);
        assert!((dist_to_segment(Point::new(-4.0, 0.0), a, b) - 4.0).abs() < 1e-12);
        assert!((dist_to_segment(Point::new(13.0, 4.0), a, b) - 5.0).abs() < 1e-12);
        // Degenerate segment falls back to point distance.
        assert!((dist_to_segment(Point::new(3.0, 4.0), a, a) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn corridor_keeps_near_route_aps_and_drops_far_ones() {
        let m = map();
        m.absorb_estimates(
            1,
            &[
                est(100.0, 210.0, 2.0), // 10 m off the route: kept
                est(500.0, 190.0, 2.0), // 10 m off: kept
                est(300.0, 500.0, 9.0), // 300 m off: dropped
                est(700.0, 200.0, 0.5), // on route but below credit floor
            ],
        );
        let route = [Point::new(0.0, 200.0), Point::new(900.0, 200.0)];
        let ahead = m.aps_ahead(&route, 50.0);
        let xs: Vec<f64> = ahead.iter().map(|a| a.position.x).collect();
        assert_eq!(xs, vec![100.0, 500.0]);
    }

    #[test]
    fn corridor_follows_turns() {
        let m = map();
        m.absorb_estimates(1, &[est(400.0, 395.0, 2.0), est(20.0, 20.0, 2.0)]);
        // L-shaped route passing near (400, 395) at the corner.
        let route = [
            Point::new(400.0, 100.0),
            Point::new(400.0, 390.0),
            Point::new(800.0, 390.0),
        ];
        let ahead = m.aps_ahead(&route, 20.0);
        assert_eq!(ahead.len(), 1);
        assert_eq!(ahead[0].position.y, 395.0);
    }

    #[test]
    fn narrow_corridor_reaches_a_bucket_clipped_at_its_corner() {
        let m = map();
        // The diagonal route crosses x = 32 at y = 30 and y = 32 at
        // x = 34, clipping the corner of bucket [32, 64) × [0, 32) that
        // neither end point falls in. The AP lies on the route there.
        m.absorb_estimates(1, &[est(33.0, 31.0, 2.0)]);
        let route = [Point::new(29.0, 27.0), Point::new(37.0, 35.0)];
        let ahead = m.aps_ahead(&route, 0.5);
        assert_eq!(ahead.len(), 1);
        assert_eq!(ahead[0].position, Point::new(33.0, 31.0));
    }

    #[test]
    fn empty_path_or_bad_width_yields_nothing() {
        let m = map();
        m.absorb_estimates(1, &[est(100.0, 100.0, 2.0)]);
        assert!(m.aps_ahead(&[], 50.0).is_empty());
        assert!(m
            .aps_ahead(&[Point::new(100.0, 100.0)], f64::NAN)
            .is_empty());
        // Single-point path: a disc query.
        assert_eq!(m.aps_ahead(&[Point::new(110.0, 100.0)], 20.0).len(), 1);
    }
}
