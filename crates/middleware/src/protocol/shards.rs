//! Campaign state sharded by road segment.
//!
//! The crowd-server's unit of spatial parallelism is the road segment
//! (§5.2): patterns, mapping tasks and fused AP estimates all belong to
//! exactly one segment, and nothing in the round protocol couples two
//! segments to each other. This module makes that explicit:
//!
//! * [`fuse_sharded`] runs reliability-weighted fusion *per segment*
//!   instead of over the whole map — each shard's fusion reads only its
//!   own estimates, which is the shape a multi-shard server needs;
//! * [`ShardedDatabase`] is the durable campaign's round-close snapshot
//!   state: each round replaces only the shards it actually covered, so
//!   independent segments advance at their own pace across a campaign.
//!   It is not a read path — user-vehicles download APs from the
//!   geo-sharded AP map.

use crate::messages::{codec_err, wire_capacity};
use crate::messages::{SensingUpload, VehicleId};
use crate::segment::{SegmentId, SegmentMap};
use crate::wire::{self, WireMessage, WireReader};
use crate::Result;
use crowdwifi_crowd::fusion::{fuse_submissions, FusedAp, Submission};
use crowdwifi_geo::Point;
use std::collections::BTreeMap;

/// Reliability-weighted fusion run shard by shard: every vehicle's
/// estimates are bucketed into their road segment, each segment fuses
/// only its own submissions, and the results are concatenated in
/// segment-id order. Clusters therefore never straddle a segment
/// boundary, and each shard's fusion is independent of every other —
/// the prerequisite for fanning shards out to separate servers.
pub fn fuse_sharded<'a, I>(
    segments: &SegmentMap,
    uploads: I,
    reliabilities: &BTreeMap<VehicleId, f64>,
    merge_radius: f64,
    spammer_cutoff: f64,
) -> Vec<FusedAp>
where
    I: IntoIterator<Item = &'a SensingUpload>,
{
    let mut per_segment: BTreeMap<SegmentId, Vec<Submission>> = BTreeMap::new();
    for up in uploads {
        let reliability = reliabilities
            .get(&up.vehicle)
            .copied()
            .unwrap_or(0.5)
            .clamp(0.0, 1.0);
        let mut buckets: BTreeMap<SegmentId, Vec<Point>> = BTreeMap::new();
        for est in &up.estimates {
            buckets
                .entry(segments.segment_of(est.position))
                .or_default()
                .push(est.position);
        }
        for (seg, positions) in buckets {
            per_segment
                .entry(seg)
                .or_default()
                .push(Submission::new(positions, reliability));
        }
    }
    per_segment
        .into_values()
        .flat_map(|subs| fuse_submissions(&subs, merge_radius, spammer_cutoff, 0.0))
        .collect()
}

/// One shard of the campaign-level AP database.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    /// Fused APs of this segment, from the last round that covered it.
    pub fused: Vec<FusedAp>,
    /// Index of the round that last updated this shard.
    pub round: usize,
}

/// The campaign's fused AP state, sharded by road segment: what a
/// durable campaign writes to its [`crate::durability::SnapshotStore`]
/// at every round close and recovers from after a crash.
///
/// Each round only replaces the shards it actually produced estimates
/// for; segments the round never covered keep the state of whichever
/// earlier round last saw them. Independent segments therefore advance
/// across the campaign at their own pace. It serves no AP downloads:
/// user-vehicles query the geo-sharded AP map instead.
#[derive(Debug, Clone, Default)]
pub struct ShardedDatabase {
    shards: BTreeMap<SegmentId, ShardState>,
}

impl ShardedDatabase {
    /// An empty database.
    pub fn new() -> Self {
        ShardedDatabase::default()
    }

    /// Folds one round's fused output into the database: every shard
    /// the round covered is replaced wholesale, every other shard is
    /// left untouched.
    pub fn absorb(&mut self, round: usize, segments: &SegmentMap, fused: &[FusedAp]) {
        let mut touched: BTreeMap<SegmentId, Vec<FusedAp>> = BTreeMap::new();
        for &ap in fused {
            touched
                .entry(segments.segment_of(ap.position))
                .or_default()
                .push(ap);
        }
        for (seg, aps) in touched {
            self.shards.insert(seg, ShardState { fused: aps, round });
        }
    }

    /// Number of shards with any state.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether no round has populated the database yet.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The state of one shard, if any round has covered it.
    pub fn shard(&self, segment: SegmentId) -> Option<&ShardState> {
        self.shards.get(&segment)
    }
}

impl WireMessage for ShardedDatabase {
    fn encode_binary(&self, out: &mut Vec<u8>) {
        wire::put_header(out, wire::TAG_DATABASE);
        wire::put_varint(out, self.shards.len() as u64);
        for (seg, state) in &self.shards {
            wire::put_varint(out, u64::from(seg.0));
            wire::put_varint(out, state.round as u64);
            wire::put_varint(out, state.fused.len() as u64);
            for ap in &state.fused {
                wire::put_f64(out, ap.position.x);
                wire::put_f64(out, ap.position.y);
                wire::put_f64(out, ap.support);
                wire::put_varint(out, ap.contributors as u64);
            }
        }
    }

    fn decode_body(r: &mut WireReader<'_>) -> Result<Self> {
        match r.header()? {
            wire::TAG_DATABASE => {}
            t => {
                return Err(codec_err(format!(
                    "unknown ShardedDatabase binary tag {t:#04x}"
                )))
            }
        }
        let n = r.usize()?;
        let mut shards = BTreeMap::new();
        for _ in 0..n {
            let seg = SegmentId(r.u32()?);
            let round = r.usize()?;
            let m = r.usize()?;
            let mut fused = Vec::with_capacity(wire_capacity(m));
            for _ in 0..m {
                fused.push(FusedAp {
                    position: r.point()?,
                    support: r.f64()?,
                    contributors: r.usize()?,
                });
            }
            shards.insert(seg, ShardState { fused, round });
        }
        Ok(ShardedDatabase { shards })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdwifi_core::ApEstimate;
    use crowdwifi_geo::Rect;

    fn map() -> SegmentMap {
        SegmentMap::new(
            Rect::new(Point::new(0.0, 0.0), Point::new(300.0, 100.0)).unwrap(),
            100.0,
        )
    }

    fn upload(vehicle: u32, points: &[(f64, f64)]) -> SensingUpload {
        SensingUpload {
            vehicle: VehicleId(vehicle),
            estimates: points
                .iter()
                .map(|&(x, y)| ApEstimate {
                    position: Point::new(x, y),
                    credit: 2.0,
                })
                .collect(),
        }
    }

    #[test]
    fn sharded_fusion_never_merges_across_segments() {
        let m = map();
        // Two estimates 30 m apart but in different 100 m segments;
        // a 50 m merge radius would fuse them globally.
        let ups = [upload(0, &[(85.0, 50.0)]), upload(1, &[(115.0, 50.0)])];
        let rel: BTreeMap<VehicleId, f64> = [(VehicleId(0), 0.9), (VehicleId(1), 0.9)]
            .into_iter()
            .collect();
        let fused = fuse_sharded(&m, ups.iter(), &rel, 50.0, 0.0);
        assert_eq!(fused.len(), 2, "segment boundary must split the cluster");
        let global = fuse_submissions(
            &[
                Submission::new(vec![Point::new(85.0, 50.0)], 0.9),
                Submission::new(vec![Point::new(115.0, 50.0)], 0.9),
            ],
            50.0,
            0.0,
            0.0,
        );
        assert_eq!(global.len(), 1, "sanity: global fusion would merge them");
    }

    #[test]
    fn sharded_fusion_honors_spammer_cutoff() {
        let m = map();
        let ups = [upload(0, &[(50.0, 50.0)]), upload(1, &[(52.0, 50.0)])];
        let rel: BTreeMap<VehicleId, f64> = [(VehicleId(0), 0.9), (VehicleId(1), 0.1)]
            .into_iter()
            .collect();
        let fused = fuse_sharded(&m, ups.iter(), &rel, 25.0, 0.3);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].contributors, 1, "spammer excluded from fusion");
    }

    #[test]
    fn database_replaces_only_covered_shards() {
        let m = map();
        let mut db = ShardedDatabase::new();
        let ap = |x: f64, support: f64| FusedAp {
            position: Point::new(x, 50.0),
            support,
            contributors: 1,
        };
        db.absorb(0, &m, &[ap(50.0, 1.0), ap(250.0, 1.0)]);
        assert_eq!(db.len(), 2);
        assert_eq!(
            db.shard(m.segment_of(Point::new(50.0, 50.0)))
                .unwrap()
                .round,
            0
        );
        // Round 1 covers only the first segment.
        db.absorb(1, &m, &[ap(55.0, 2.0)]);
        let first = db.shard(m.segment_of(Point::new(50.0, 50.0))).unwrap();
        assert_eq!(first.round, 1);
        assert_eq!(first.fused[0].support, 2.0);
        let last = db.shard(m.segment_of(Point::new(250.0, 50.0))).unwrap();
        assert_eq!(last.round, 0, "uncovered shard keeps its old state");
        assert_eq!(db.len(), 2);
    }
}
