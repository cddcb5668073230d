//! The geo-sharded global AP map.
//!
//! Entries live in geohash **buckets** (fine cells at
//! [`MapConfig::bucket_level`]); buckets are grouped into **shards** by
//! code-prefix truncation to [`MapConfig::shard_level`]. Each shard
//! publishes an immutable generation behind an `Arc`:
//!
//! * **readers** clone the shard's current `Arc` under a read lock held
//!   O(1) and probe the immutable generation — they never wait for an
//!   ingest batch, only for the pointer swap;
//! * **writers** serialize on a per-shard writer mutex, build the next
//!   generation off-lock (copy-on-write: the bucket table is cloned
//!   cheaply as `Arc` handles, only touched buckets are deep-cloned),
//!   then publish it with one pointer store.
//!
//! Ingest folds each estimate into the nearest existing entry within
//! the merge radius using the credit-weighted average of
//! `crowdwifi_core::consolidate` (§4.3.6); unmatched estimates open new
//! entries whose id is the geohash code of their founding position
//! (see [`MapAp::id`]). Time is an explicit microsecond clock supplied
//! by the caller, so TTL eviction is deterministic under a seeded clock.

use crate::geohash::{GeoCell, World, MAX_LEVEL};
use crate::{MapError, Result};
use crowdwifi_core::ApEstimate;
use crowdwifi_geo::{Point, Rect};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, RwLock};

/// One stored AP: identity, consolidated state, and freshness stamps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapAp {
    /// The Morton code of the position that opened the entry, at
    /// geohash level 16 (16 bits per axis). Merges and shard
    /// migrations keep it, so it depends only on the founding
    /// estimate, never on shard layout or ingest interleaving. Entries
    /// founded in the same level-16 cell share an id.
    pub id: u32,
    /// Credit-weighted consolidated position.
    pub position: Point,
    /// Accumulated credit.
    pub credit: f64,
    /// Clock value when the entry was opened, microseconds.
    pub first_seen_micros: u64,
    /// Clock value of the latest contributing estimate, microseconds.
    pub last_seen_micros: u64,
}

/// Canonical total order on map entries: by position (x, then y), ties
/// broken by id. Query results sorted this way are reproducible across
/// shard layouts and ingest interleavings.
pub fn canonical_order(a: &MapAp, b: &MapAp) -> Ordering {
    a.position
        .x
        .total_cmp(&b.position.x)
        .then(a.position.y.total_cmp(&b.position.y))
        .then(a.id.cmp(&b.id))
}

/// Counters returned by one [`GeoMap::absorb_estimates`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Estimates folded into an existing entry.
    pub merged: u64,
    /// Estimates that opened a new entry.
    pub opened: u64,
    /// Estimates rejected (non-positive credit or non-finite position).
    pub rejected: u64,
}

/// Counters returned by one [`GeoMap::evict`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictStats {
    /// Entries dropped because their TTL lapsed.
    pub expired: u64,
    /// Entries dropped as transient (credit never rose above the
    /// spurious floor within the grace period).
    pub transient: u64,
    /// Entries remaining after the sweep.
    pub remaining: u64,
}

/// A point-in-time size report for the map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapStats {
    /// Stored AP entries.
    pub aps: u64,
    /// Non-empty buckets.
    pub buckets: u64,
    /// Shard count (fixed at construction).
    pub shards: usize,
    /// Generations published so far (one per ingest/evict batch per
    /// shard).
    pub generation: u64,
}

/// Configuration of a [`GeoMap`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapConfig {
    /// The bounded world all positions are clamped into.
    pub world: Rect,
    /// Geohash level of the shard prefix: `4^shard_level` shards.
    pub shard_level: u8,
    /// Geohash level of the buckets entries live in. Must be at least
    /// `shard_level`; a bucket's shard is its code truncated to
    /// `shard_level`.
    pub bucket_level: u8,
    /// Estimates within this distance of an existing entry merge into
    /// it (credit-weighted), mirroring `consolidate::Consolidator`.
    pub merge_radius: f64,
    /// Entries not refreshed for this long are evicted as stale.
    pub ttl_micros: u64,
    /// Entries whose credit is still at or below `min_credit` this long
    /// after opening are evicted as transient.
    pub transient_grace_micros: u64,
    /// The spurious-credit floor (paper default 1: a location seen only
    /// once is not a real AP). Queries also filter at this floor.
    pub min_credit: f64,
}

impl MapConfig {
    /// Defaults over `world`: 64 shards, 256×256-slot buckets, 10 m
    /// merge radius, 24 h TTL, 1 h transient grace, credit floor 1.
    pub fn new(world: Rect) -> Self {
        MapConfig {
            world,
            shard_level: 3,
            bucket_level: 8,
            merge_radius: 10.0,
            ttl_micros: 86_400_000_000,
            transient_grace_micros: 3_600_000_000,
            min_credit: 1.0,
        }
    }

    fn validate(&self) -> Result<()> {
        let bad = |m: String| Err(MapError::InvalidConfig(m));
        if self.world.width() <= 0.0 || self.world.height() <= 0.0 {
            return bad("world must have positive extent".into());
        }
        if self.bucket_level == 0 || self.bucket_level > MAX_LEVEL {
            return bad(format!("bucket_level must be in 1..={MAX_LEVEL}"));
        }
        if self.shard_level > self.bucket_level {
            return bad("shard_level must not exceed bucket_level".into());
        }
        if self.shard_level > 8 {
            return bad("shard_level above 8 (65536 shards) is unsupported".into());
        }
        if !(self.merge_radius >= 0.0 && self.merge_radius.is_finite()) {
            return bad("merge_radius must be non-negative and finite".into());
        }
        if !self.min_credit.is_finite() {
            return bad("min_credit must be finite".into());
        }
        Ok(())
    }
}

/// A bucket is the entry list of one fine geohash cell.
pub(crate) type Bucket = Vec<MapAp>;

/// Fast hasher for bucket codes: one splitmix64 round. Bucket codes
/// are already well-spread Morton codes; this just decorrelates the
/// low bits the table indexes by.
#[derive(Debug, Default, Clone)]
pub(crate) struct CellHasher(u64);

impl Hasher for CellHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut z = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z ^= z >> 29;
        z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 32;
        self.0 = z;
    }
}

pub(crate) type BuildCellHasher = BuildHasherDefault<CellHasher>;

/// One immutable published generation of a shard.
#[derive(Debug, Default)]
pub(crate) struct ShardGen {
    /// Bucket table keyed by bucket-cell code. Values are `Arc` so a
    /// generation clone shares untouched buckets with its predecessor.
    pub(crate) buckets: HashMap<u64, Arc<Bucket>, BuildCellHasher>,
    /// Entry count across all buckets.
    pub(crate) aps: u64,
}

/// One shard: the published generation plus the writer serialization
/// lock. The `RwLock` only ever guards the `Arc` swap, never the build.
#[derive(Debug)]
pub(crate) struct Shard {
    pub(crate) current: RwLock<Arc<ShardGen>>,
    writer: Mutex<()>,
}

/// Work items an ingest batch routes to a shard: fresh estimates, or
/// entries migrating in because consolidation moved them across a
/// shard boundary. `hops` bounds re-routing so pathological border
/// dances terminate.
enum IngestItem {
    Est { pos: Point, credit: f64, hops: u8 },
    Mig { ap: MapAp, hops: u8 },
}

impl IngestItem {
    fn pos_credit(&self) -> (Point, f64) {
        match self {
            IngestItem::Est { pos, credit, .. } => (*pos, *credit),
            IngestItem::Mig { ap, .. } => (ap.position, ap.credit),
        }
    }

    fn hops(&self) -> u8 {
        match self {
            IngestItem::Est { hops, .. } | IngestItem::Mig { hops, .. } => *hops,
        }
    }

    fn rerouted(&self) -> Self {
        match self {
            IngestItem::Est { pos, credit, hops } => IngestItem::Est {
                pos: *pos,
                credit: *credit,
                hops: hops.saturating_add(1),
            },
            IngestItem::Mig { ap, hops } => IngestItem::Mig {
                ap: *ap,
                hops: hops.saturating_add(1),
            },
        }
    }
}

/// Geohash level of entry ids: 16 bits per axis fill a `u32` code.
const ID_LEVEL: u8 = 16;

/// Redirect budget for border estimates chasing a nearer entry that
/// keeps landing in another shard.
const MAX_HOPS: u8 = 4;

/// Where the nearest merge candidate for an estimate lives.
enum Candidate {
    /// In the shard being written: `(bucket_code, index)`.
    Local(u64, usize),
    /// In another shard's published generation.
    Remote(usize),
}

/// The geo-sharded, generation-published global AP map. See the
/// [module docs](self) for the concurrency scheme.
#[derive(Debug)]
pub struct GeoMap {
    cfg: MapConfig,
    world: World,
    pub(crate) shards: Vec<Shard>,
    generation: AtomicU64,
}

impl GeoMap {
    /// Creates an empty map.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::InvalidConfig`] for degenerate worlds, bad
    /// level pairs, or non-finite radii.
    pub fn new(cfg: MapConfig) -> Result<Self> {
        cfg.validate()?;
        let shard_count = 1usize << (2 * cfg.shard_level);
        let shards = (0..shard_count)
            .map(|_| Shard {
                current: RwLock::new(Arc::new(ShardGen::default())),
                writer: Mutex::new(()),
            })
            .collect();
        Ok(GeoMap {
            world: World::new(cfg.world),
            cfg,
            shards,
            generation: AtomicU64::new(0),
        })
    }

    /// The configuration the map was built with.
    pub fn config(&self) -> &MapConfig {
        &self.cfg
    }

    /// The geohash world positions are encoded against.
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index of a bucket-cell code.
    #[inline]
    pub(crate) fn shard_of_code(&self, bucket_code: u64) -> usize {
        (bucket_code >> (2 * u64::from(self.cfg.bucket_level - self.cfg.shard_level))) as usize
    }

    /// The bucket cell of a position.
    #[inline]
    pub(crate) fn bucket_of(&self, p: Point) -> GeoCell {
        self.world.encode(p, self.cfg.bucket_level)
    }

    /// Total stored entries (sums the shard generations).
    pub fn len(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.current.read().expect("shard lock poisoned").aps)
            .sum()
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size statistics across all shards.
    pub fn stats(&self) -> MapStats {
        let mut aps = 0;
        let mut buckets = 0;
        for s in &self.shards {
            let g = s.current.read().expect("shard lock poisoned").clone();
            aps += g.aps;
            buckets += g.buckets.len() as u64;
        }
        MapStats {
            aps,
            buckets,
            shards: self.shards.len(),
            generation: self.generation.load(AtomicOrdering::Acquire),
        }
    }

    /// Folds one batch of drive estimates into the map at clock `now`
    /// (microseconds): each estimate merges credit-weighted into the
    /// nearest existing entry within the merge radius, or opens a new
    /// entry with its founding cell as id. Shards are updated in index
    /// order; each publishes exactly one new generation per batch that
    /// touches it.
    pub fn absorb_estimates(&self, now_micros: u64, estimates: &[ApEstimate]) -> IngestStats {
        let mut stats = IngestStats::default();
        let mut by_shard: Vec<Vec<IngestItem>> = Vec::new();
        by_shard.resize_with(self.shards.len(), Vec::new);
        for e in estimates {
            if e.credit <= 0.0 || !e.position.is_finite() {
                stats.rejected += 1;
                continue;
            }
            let shard = self.shard_of_code(self.bucket_of(e.position).code);
            by_shard[shard].push(IngestItem::Est {
                pos: e.position,
                credit: e.credit,
                hops: 0,
            });
        }
        // Border estimates whose nearest entry lives in another shard
        // are re-routed there; consolidation that moves a merged entry
        // across a border emits a migrant the same way. Re-routing is
        // hop-bounded and migrant merges strictly shrink the entry
        // count, so this drains.
        loop {
            let mut moved = false;
            let mut next: Vec<Vec<IngestItem>> = Vec::new();
            next.resize_with(self.shards.len(), Vec::new);
            for (s, group) in by_shard.iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let (merged, opened, routed) = self.absorb_into_shard(s, now_micros, group);
                stats.merged += merged;
                stats.opened += opened;
                for (target, item) in routed {
                    moved = true;
                    next[target].push(item);
                }
            }
            if !moved {
                break;
            }
            by_shard = next;
        }
        stats
    }

    /// Applies one shard's work items and publishes the next
    /// generation. Returns `(merged, opened, rerouted_items)` where the
    /// rerouted items carry their target shard.
    fn absorb_into_shard(
        &self,
        s: usize,
        now: u64,
        items: &[IngestItem],
    ) -> (u64, u64, Vec<(usize, IngestItem)>) {
        let shard = &self.shards[s];
        let _writer = shard.writer.lock().expect("shard writer poisoned");
        let cur = shard.current.read().expect("shard lock poisoned").clone();
        let mut buckets = cur.buckets.clone();
        let mut aps = cur.aps;
        let mut merged_n = 0;
        let mut opened_n = 0;
        let mut routed: Vec<(usize, IngestItem)> = Vec::new();
        for item in items {
            let (pos, credit) = item.pos_credit();
            // Past the hop budget the candidate search stays local: a
            // border duplicate beats unbounded shard chasing.
            let remote_ok = item.hops() < MAX_HOPS;
            match self.nearest_candidate(&buckets, s, pos, remote_ok) {
                Some(Candidate::Remote(target)) => {
                    routed.push((target, item.rerouted()));
                }
                Some(Candidate::Local(code, i)) => {
                    let bucket = Arc::make_mut(buckets.get_mut(&code).expect("candidate bucket"));
                    let old = bucket[i];
                    let total = old.credit + credit;
                    let position = Point::new(
                        (old.position.x * old.credit + pos.x * credit) / total,
                        (old.position.y * old.credit + pos.y * credit) / total,
                    );
                    let updated = match item {
                        IngestItem::Est { .. } => MapAp {
                            id: old.id,
                            position,
                            credit: total,
                            first_seen_micros: old.first_seen_micros,
                            last_seen_micros: old.last_seen_micros.max(now),
                        },
                        IngestItem::Mig { ap, .. } => MapAp {
                            id: old.id,
                            position,
                            credit: total,
                            first_seen_micros: old.first_seen_micros.min(ap.first_seen_micros),
                            last_seen_micros: old.last_seen_micros.max(ap.last_seen_micros),
                        },
                    };
                    merged_n += 1;
                    let new_code = self.bucket_of(position).code;
                    if new_code == code {
                        bucket[i] = updated;
                    } else {
                        bucket.remove(i);
                        if bucket.is_empty() {
                            buckets.remove(&code);
                        }
                        if self.shard_of_code(new_code) == s {
                            Arc::make_mut(buckets.entry(new_code).or_default()).push(updated);
                        } else {
                            aps -= 1;
                            let target = self.shard_of_code(new_code);
                            routed.push((
                                target,
                                IngestItem::Mig {
                                    ap: updated,
                                    hops: 0,
                                },
                            ));
                        }
                    }
                }
                None => {
                    let code = self.bucket_of(pos).code;
                    let owner = self.shard_of_code(code);
                    if owner != s {
                        // A rerouted item whose candidate vanished: its
                        // home bucket belongs to another shard, so it
                        // must open (or merge) there, never here.
                        routed.push((owner, item.rerouted()));
                        continue;
                    }
                    let entry = match item {
                        IngestItem::Est { .. } => {
                            opened_n += 1;
                            MapAp {
                                id: self.world.encode(pos, ID_LEVEL).code as u32,
                                position: pos,
                                credit,
                                first_seen_micros: now,
                                last_seen_micros: now,
                            }
                        }
                        IngestItem::Mig { ap, .. } => *ap,
                    };
                    Arc::make_mut(buckets.entry(code).or_default()).push(entry);
                    aps += 1;
                }
            }
        }
        self.publish(shard, ShardGen { buckets, aps });
        (merged_n, opened_n, routed)
    }

    /// The nearest entry to `pos` within the merge radius across all
    /// candidate buckets. Local hits index the working table of shard
    /// `s`; hits in other shards' published generations (only possible
    /// for border positions, only searched when `remote_ok`) report the
    /// owning shard for re-routing.
    fn nearest_candidate(
        &self,
        buckets: &HashMap<u64, Arc<Bucket>, BuildCellHasher>,
        s: usize,
        pos: Point,
        remote_ok: bool,
    ) -> Option<Candidate> {
        let r = self.cfg.merge_radius;
        let bbox = Rect::new(
            Point::new(pos.x - r, pos.y - r),
            Point::new(pos.x + r, pos.y + r),
        )
        .expect("merge bbox is well-formed");
        let mut best: Option<(Candidate, f64)> = None;
        let mut remote: Option<(usize, Arc<ShardGen>)> = None;
        for cell in self.world.cells_covering(bbox, self.cfg.bucket_level) {
            let owner = self.shard_of_code(cell.code);
            if owner == s {
                let Some(bucket) = buckets.get(&cell.code) else {
                    continue;
                };
                for (i, ap) in bucket.iter().enumerate() {
                    let d = ap.position.distance(pos);
                    if d <= r && best.as_ref().is_none_or(|(_, bd)| d < *bd) {
                        best = Some((Candidate::Local(cell.code, i), d));
                    }
                }
            } else {
                if !remote_ok {
                    continue;
                }
                let cached = matches!(&remote, Some((o, _)) if *o == owner);
                if !cached {
                    let g = self.shards[owner]
                        .current
                        .read()
                        .expect("shard lock poisoned")
                        .clone();
                    remote = Some((owner, g));
                }
                let (_, g) = remote.as_ref().expect("cached remote generation");
                let Some(bucket) = g.buckets.get(&cell.code) else {
                    continue;
                };
                for ap in bucket.iter() {
                    let d = ap.position.distance(pos);
                    if d <= r && best.as_ref().is_none_or(|(_, bd)| d < *bd) {
                        best = Some((Candidate::Remote(owner), d));
                    }
                }
            }
        }
        best.map(|(c, _)| c)
    }

    /// Drops stale entries (TTL lapsed since `last_seen`) and transient
    /// entries (credit still at or below the floor once the grace
    /// period after `first_seen` lapsed). Deterministic: a pure
    /// function of the stored entries and `now_micros`.
    pub fn evict(&self, now_micros: u64) -> EvictStats {
        let mut stats = EvictStats::default();
        for shard in &self.shards {
            let _writer = shard.writer.lock().expect("shard writer poisoned");
            let cur = shard.current.read().expect("shard lock poisoned").clone();
            let mut buckets: HashMap<u64, Arc<Bucket>, BuildCellHasher> =
                HashMap::with_capacity_and_hasher(cur.buckets.len(), BuildCellHasher::default());
            let mut aps = 0u64;
            for (&code, bucket) in &cur.buckets {
                let mut kept = Vec::with_capacity(bucket.len());
                for ap in bucket.iter() {
                    if now_micros.saturating_sub(ap.last_seen_micros) > self.cfg.ttl_micros {
                        stats.expired += 1;
                    } else if ap.credit <= self.cfg.min_credit
                        && now_micros.saturating_sub(ap.first_seen_micros)
                            > self.cfg.transient_grace_micros
                    {
                        stats.transient += 1;
                    } else {
                        kept.push(*ap);
                    }
                }
                if !kept.is_empty() {
                    aps += kept.len() as u64;
                    buckets.insert(code, Arc::new(kept));
                }
            }
            stats.remaining += aps;
            self.publish(shard, ShardGen { buckets, aps });
        }
        stats
    }

    /// Swaps in the next generation of `shard`. The write lock guards
    /// only this pointer store.
    fn publish(&self, shard: &Shard, next: ShardGen) {
        *shard.current.write().expect("shard lock poisoned") = Arc::new(next);
        self.generation.fetch_add(1, AtomicOrdering::Release);
    }

    /// Calls `f` for every stored entry within `radius` of `center`.
    /// Lock-light: per shard touched, one read-lock acquisition to
    /// clone the current generation `Arc`; all probing runs on the
    /// immutable snapshot. No credit filtering — callers see transients
    /// too.
    pub fn for_each_near<F: FnMut(&MapAp)>(&self, center: Point, radius: f64, mut f: F) {
        if radius.is_nan() || radius < 0.0 || !center.is_finite() {
            return;
        }
        let Ok(bbox) = Rect::new(
            Point::new(center.x - radius, center.y - radius),
            Point::new(center.x + radius, center.y + radius),
        ) else {
            return;
        };
        // Squared-distance compare: one multiply instead of a sqrt per
        // scanned entry — the scan is the lookup hot loop.
        let r2 = radius * radius;
        let mut cached: Option<(usize, Arc<ShardGen>)> = None;
        self.world
            .for_each_cell_covering(bbox, self.cfg.bucket_level, |cell| {
                let s = self.shard_of_code(cell.code);
                let hit = matches!(&cached, Some((cs, _)) if *cs == s);
                if !hit {
                    let g = self.shards[s]
                        .current
                        .read()
                        .expect("shard lock poisoned")
                        .clone();
                    cached = Some((s, g));
                }
                let (_, g) = cached.as_ref().expect("cached generation");
                let Some(bucket) = g.buckets.get(&cell.code) else {
                    return;
                };
                for ap in bucket.iter() {
                    let dx = ap.position.x - center.x;
                    let dy = ap.position.y - center.y;
                    if dx * dx + dy * dy <= r2 {
                        f(ap);
                    }
                }
            });
    }

    /// Number of stored entries within `radius` of `center` — the
    /// allocation-free lookup the `ap_map` bench drives.
    pub fn count_near(&self, center: Point, radius: f64) -> usize {
        let mut n = 0;
        self.for_each_near(center, radius, |_| n += 1);
        n
    }

    /// All entries within `radius` of `center` whose credit clears the
    /// spurious floor, in canonical order.
    pub fn query_radius(&self, center: Point, radius: f64) -> Vec<MapAp> {
        let mut out = Vec::new();
        self.for_each_near(center, radius, |ap| {
            if ap.credit > self.cfg.min_credit {
                out.push(*ap);
            }
        });
        out.sort_by(canonical_order);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> MapConfig {
        let world = Rect::new(Point::new(0.0, 0.0), Point::new(1024.0, 1024.0)).unwrap();
        let mut cfg = MapConfig::new(world);
        cfg.shard_level = 1;
        cfg.bucket_level = 4; // 64 m buckets
        cfg
    }

    fn est(x: f64, y: f64, credit: f64) -> ApEstimate {
        ApEstimate {
            position: Point::new(x, y),
            credit,
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_setups() {
        let world = Rect::new(Point::new(0.0, 0.0), Point::new(0.0, 4.0)).unwrap();
        assert!(GeoMap::new(MapConfig::new(world)).is_err());
        let mut cfg = small_cfg();
        cfg.shard_level = 9;
        assert!(GeoMap::new(cfg).is_err());
        cfg = small_cfg();
        cfg.shard_level = 5;
        cfg.bucket_level = 4;
        assert!(GeoMap::new(cfg).is_err());
        cfg = small_cfg();
        cfg.merge_radius = f64::NAN;
        assert!(GeoMap::new(cfg).is_err());
    }

    #[test]
    fn ingest_merges_and_opens_like_the_consolidator() {
        let map = GeoMap::new(small_cfg()).unwrap();
        let s = map.absorb_estimates(1, &[est(100.0, 100.0, 1.0), est(500.0, 500.0, 1.0)]);
        assert_eq!((s.merged, s.opened), (0, 2));
        // Third vote at (106, 100): merged position x = (2·100 + 106)/3 = 102.
        map.absorb_estimates(2, &[est(100.0, 100.0, 1.0)]);
        let s = map.absorb_estimates(3, &[est(106.0, 100.0, 1.0)]);
        assert_eq!((s.merged, s.opened), (1, 0));
        assert_eq!(map.len(), 2);
        let hits = map.query_radius(Point::new(100.0, 100.0), 20.0);
        assert_eq!(hits.len(), 1);
        assert!((hits[0].position.x - 102.0).abs() < 1e-12);
        assert_eq!(hits[0].credit, 3.0);
        assert_eq!(hits[0].last_seen_micros, 3);
        assert_eq!(hits[0].first_seen_micros, 1);
    }

    #[test]
    fn ingest_rejects_garbage() {
        let map = GeoMap::new(small_cfg()).unwrap();
        let s = map.absorb_estimates(1, &[est(f64::NAN, 0.0, 1.0), est(1.0, 1.0, 0.0)]);
        assert_eq!(s.rejected, 2);
        assert!(map.is_empty());
    }

    #[test]
    fn merging_across_bucket_and_shard_borders_keeps_one_entry() {
        let mut cfg = small_cfg();
        cfg.merge_radius = 10.0;
        let map = GeoMap::new(cfg).unwrap();
        // 512 is both a bucket and a shard border (shard_level 1 splits
        // the 1024 m world at 512 m). Two votes straddling it must
        // consolidate into one entry even though they start in
        // different shards.
        map.absorb_estimates(1, &[est(508.0, 100.0, 1.0)]);
        let s = map.absorb_estimates(2, &[est(515.0, 100.0, 1.0)]);
        assert_eq!((s.merged, s.opened), (1, 0));
        assert_eq!(map.len(), 1);
        let hits = map.query_radius(Point::new(512.0, 100.0), 20.0);
        assert_eq!(hits.len(), 1);
        assert!((hits[0].position.x - 511.5).abs() < 1e-12);
    }

    #[test]
    fn eviction_drops_stale_and_transient_entries() {
        let mut cfg = small_cfg();
        cfg.ttl_micros = 100;
        cfg.transient_grace_micros = 10;
        cfg.min_credit = 1.0;
        let map = GeoMap::new(cfg).unwrap();
        // Refreshed entry with real credit: survives.
        map.absorb_estimates(0, &[est(100.0, 100.0, 2.0)]);
        map.absorb_estimates(90, &[est(100.0, 100.0, 2.0)]);
        // Single-credit entry: transient once the grace lapses.
        map.absorb_estimates(50, &[est(300.0, 300.0, 1.0)]);
        // Stale entry: last seen at 0, TTL 100.
        map.absorb_estimates(0, &[est(700.0, 700.0, 5.0)]);
        let s = map.evict(120);
        assert_eq!(
            s,
            EvictStats {
                expired: 1,
                transient: 1,
                remaining: 1
            }
        );
        assert_eq!(map.len(), 1);
        // Sweeping again at the same clock is a no-op.
        let s2 = map.evict(120);
        assert_eq!(
            s2,
            EvictStats {
                expired: 0,
                transient: 0,
                remaining: 1
            }
        );
    }

    #[test]
    fn queries_filter_the_credit_floor_but_count_near_does_not() {
        let map = GeoMap::new(small_cfg()).unwrap();
        map.absorb_estimates(1, &[est(100.0, 100.0, 1.0)]); // at the floor
        map.absorb_estimates(1, &[est(120.0, 100.0, 3.0)]);
        assert_eq!(map.count_near(Point::new(110.0, 100.0), 50.0), 2);
        let q = map.query_radius(Point::new(110.0, 100.0), 50.0);
        assert_eq!(q.len(), 1);
        assert_eq!(q[0].credit, 3.0);
    }

    #[test]
    fn query_results_come_back_in_canonical_order() {
        let map = GeoMap::new(small_cfg()).unwrap();
        map.absorb_estimates(
            1,
            &[
                est(300.0, 100.0, 2.0),
                est(100.0, 300.0, 2.0),
                est(100.0, 100.0, 2.0),
            ],
        );
        let q = map.query_radius(Point::new(200.0, 200.0), 500.0);
        let pos: Vec<(f64, f64)> = q.iter().map(|a| (a.position.x, a.position.y)).collect();
        assert_eq!(pos, vec![(100.0, 100.0), (100.0, 300.0), (300.0, 100.0)]);
    }

    #[test]
    fn generations_advance_on_publish() {
        let map = GeoMap::new(small_cfg()).unwrap();
        let g0 = map.stats().generation;
        map.absorb_estimates(1, &[est(100.0, 100.0, 2.0)]);
        assert!(map.stats().generation > g0);
    }
}
