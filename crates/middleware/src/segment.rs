//! Road segments: the spatial unit of task assignment.
//!
//! The crowd-server partitions the service area into square segments;
//! sensing uploads and mapping tasks are keyed by segment.

use crate::messages::codec_err;
use crate::wire::{self, WireMessage, WireReader};
use crate::Result;
use crowdwifi_geo::{Point, Rect};
use serde::{Deserialize, Serialize};

/// Identifier of one road segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SegmentId(pub u32);

impl std::fmt::Display for SegmentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seg{}", self.0)
    }
}

/// A square partition of the service area.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentMap {
    area: Rect,
    segment_size: f64,
    nx: u32,
    ny: u32,
}

impl SegmentMap {
    /// Partitions `area` into `segment_size`-meter squares.
    ///
    /// # Panics
    ///
    /// Panics if `segment_size` is not positive and finite, or if the
    /// grid has more segments than a `u32` [`SegmentId`] can address.
    pub fn new(area: Rect, segment_size: f64) -> Self {
        assert!(
            segment_size > 0.0 && segment_size.is_finite(),
            "segment_size must be positive and finite"
        );
        let (nx, ny) = grid(area, segment_size);
        assert!(
            nx.checked_mul(ny).is_some(),
            "segment grid {nx}x{ny} overflows u32"
        );
        SegmentMap {
            area,
            segment_size,
            nx,
            ny,
        }
    }

    /// The covered area.
    pub fn area(&self) -> Rect {
        self.area
    }

    /// Total number of segments.
    pub fn len(&self) -> usize {
        (self.nx * self.ny) as usize
    }

    /// Whether the map has no segments (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The segment containing `p` (outside points clamp to the border).
    pub fn segment_of(&self, p: Point) -> SegmentId {
        let clamped = self.area.clamp(p);
        let i = (((clamped.x - self.area.min().x) / self.segment_size) as u32).min(self.nx - 1);
        let j = (((clamped.y - self.area.min().y) / self.segment_size) as u32).min(self.ny - 1);
        SegmentId(j * self.nx + i)
    }

    /// The bounding rectangle of a segment.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn bounds(&self, id: SegmentId) -> Rect {
        assert!((id.0 as usize) < self.len(), "segment id out of range");
        let i = id.0 % self.nx;
        let j = id.0 / self.nx;
        let min = Point::new(
            self.area.min().x + i as f64 * self.segment_size,
            self.area.min().y + j as f64 * self.segment_size,
        );
        let max = Point::new(
            (min.x + self.segment_size).min(self.area.max().x.max(min.x)),
            (min.y + self.segment_size).min(self.area.max().y.max(min.y)),
        );
        Rect::new(min, max).expect("segment bounds are ordered")
    }
}

impl WireMessage for SegmentMap {
    fn encode_binary(&self, out: &mut Vec<u8>) {
        wire::put_header(out, wire::TAG_SEGMENT_MAP);
        wire::put_f64(out, self.area.min().x);
        wire::put_f64(out, self.area.min().y);
        wire::put_f64(out, self.area.max().x);
        wire::put_f64(out, self.area.max().y);
        wire::put_f64(out, self.segment_size);
    }

    fn decode_body(r: &mut WireReader<'_>) -> Result<Self> {
        match r.header()? {
            wire::TAG_SEGMENT_MAP => {}
            t => return Err(codec_err(format!("unknown SegmentMap binary tag {t:#04x}"))),
        }
        let min = r.point()?;
        let max = r.point()?;
        let segment_size = r.f64()?;
        let area = Rect::new(min, max).map_err(|e| codec_err(format!("bad segment area: {e}")))?;
        if !(segment_size > 0.0 && segment_size.is_finite()) {
            return Err(codec_err(format!("bad segment size {segment_size}")));
        }
        // Segment ids are `u32`, so a grid with more cells than that
        // cannot be addressed; reject it before `new` would panic.
        let (nx, ny) = grid(area, segment_size);
        if nx.checked_mul(ny).is_none() {
            return Err(codec_err(format!("segment grid {nx}x{ny} overflows u32")));
        }
        Ok(SegmentMap::new(area, segment_size))
    }
}

/// Columns and rows of `segment_size` squares covering `area`, each at
/// least one (saturating at `u32::MAX`).
fn grid(area: Rect, segment_size: f64) -> (u32, u32) {
    let nx = ((area.width() / segment_size).ceil() as u32).max(1);
    let ny = ((area.height() / segment_size).ceil() as u32).max(1);
    (nx, ny)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> SegmentMap {
        SegmentMap::new(
            Rect::new(Point::new(0.0, 0.0), Point::new(300.0, 180.0)).unwrap(),
            100.0,
        )
    }

    #[test]
    fn partition_counts() {
        let m = map();
        assert_eq!(m.len(), 6); // 3 × 2
    }

    #[test]
    fn segment_lookup_and_bounds_roundtrip() {
        let m = map();
        let p = Point::new(250.0, 150.0);
        let id = m.segment_of(p);
        assert!(m.bounds(id).contains(p));
    }

    #[test]
    fn outside_points_clamp() {
        let m = map();
        let id = m.segment_of(Point::new(-50.0, -50.0));
        assert_eq!(id, SegmentId(0));
        let id2 = m.segment_of(Point::new(900.0, 900.0));
        assert_eq!(id2, SegmentId(5));
    }

    #[test]
    #[should_panic(expected = "overflows u32")]
    fn grid_wider_than_segment_ids_panics() {
        // 10^6 x 10^6 one-meter segments: 10^12 ids do not fit a u32.
        // (Decoding such a grid is a codec error instead; see
        // `wire_roundtrip::oversized_segment_grids_are_rejected`.)
        let area = Rect::new(Point::new(0.0, 0.0), Point::new(1e6, 1e6)).unwrap();
        let _ = SegmentMap::new(area, 1.0);
    }
}
