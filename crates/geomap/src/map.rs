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
//! * **writers** serialize on the map's one writer mutex, build the
//!   next generation of each shard they change off-lock (copy-on-write:
//!   the bucket table is cloned cheaply as `Arc` handles, only touched
//!   buckets are deep-cloned), then publish it with one pointer store.
//!
//! Ingest folds each estimate, in input order, into the nearest
//! existing entry within the merge radius by the credit-weighted rule
//! of [`crowdwifi_geo::merge`] (§4.3.6), exactly as the per-vehicle
//! `Consolidator` does, whatever the shard layout; unmatched estimates
//! open new entries whose id is the geohash code of their founding
//! position (see [`MapAp::id`]). Time is an explicit microsecond clock
//! supplied by the caller, so TTL eviction is deterministic under a
//! seeded clock.

use crate::geohash::{GeoCell, World, MAX_LEVEL};
use crate::{MapError, Result};
use crowdwifi_core::ApEstimate;
use crowdwifi_geo::merge::{credit_mean, nearest_within};
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
    /// Generations published so far: one per shard an ingest batch
    /// writes, and one per shard per eviction sweep.
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
    /// it by the credit-weighted [`crowdwifi_geo::merge`] rule.
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
#[derive(Debug, Default, Clone)]
pub(crate) struct ShardGen {
    /// Bucket table keyed by bucket-cell code. Values are `Arc` so a
    /// generation clone shares untouched buckets with its predecessor.
    pub(crate) buckets: HashMap<u64, Arc<Bucket>, BuildCellHasher>,
    /// Entry count across all buckets.
    pub(crate) aps: u64,
}

/// Geohash level of entry ids: 16 bits per axis fill a `u32` code.
const ID_LEVEL: u8 = 16;

/// The geo-sharded, generation-published global AP map. See the
/// [module docs](self) for the concurrency scheme.
#[derive(Debug)]
pub struct GeoMap {
    cfg: MapConfig,
    world: World,
    /// Each shard's published generation. The `RwLock` only ever
    /// guards the `Arc` swap, never the build.
    pub(crate) shards: Vec<RwLock<Arc<ShardGen>>>,
    /// Serializes writers (ingest batches and eviction sweeps).
    writer: Mutex<()>,
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
            .map(|_| RwLock::new(Arc::new(ShardGen::default())))
            .collect();
        Ok(GeoMap {
            world: World::new(cfg.world),
            cfg,
            shards,
            writer: Mutex::new(()),
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

    /// The published generation of shard `s`.
    pub(crate) fn published(&self, s: usize) -> Arc<ShardGen> {
        self.shards[s].read().expect("shard lock poisoned").clone()
    }

    /// Total stored entries (sums the shard generations).
    pub fn len(&self) -> u64 {
        (0..self.shards.len()).map(|s| self.published(s).aps).sum()
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size statistics across all shards.
    pub fn stats(&self) -> MapStats {
        let mut aps = 0;
        let mut buckets = 0;
        for s in 0..self.shards.len() {
            let g = self.published(s);
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
    /// (microseconds), in input order: each estimate merges
    /// credit-weighted into the nearest existing entry within the merge
    /// radius, or opens a new entry with its founding cell as id. A
    /// merge that moves an entry into another bucket or shard moves it
    /// there without merging it again. Each shard the batch writes
    /// publishes exactly one new generation, in shard index order.
    pub fn absorb_estimates(&self, now_micros: u64, estimates: &[ApEstimate]) -> IngestStats {
        let _writer = self.writer.lock().expect("map writer poisoned");
        let mut stats = IngestStats::default();
        let mut work = Working {
            map: self,
            shards: vec![None; self.shards.len()],
            loaded: Vec::new(),
        };
        for e in estimates {
            if e.credit <= 0.0 || !e.position.is_finite() {
                stats.rejected += 1;
                continue;
            }
            let Some((code, i)) = work.nearest(e.position) else {
                stats.opened += 1;
                let ap = MapAp {
                    id: self.world.encode(e.position, ID_LEVEL).code as u32,
                    position: e.position,
                    credit: e.credit,
                    first_seen_micros: now_micros,
                    last_seen_micros: now_micros,
                };
                work.insert(self.bucket_of(e.position).code, ap);
                continue;
            };
            stats.merged += 1;
            let shard = work.shard_mut(self.shard_of_code(code));
            let bucket = Arc::make_mut(shard.buckets.get_mut(&code).expect("candidate bucket"));
            let old = bucket[i];
            let ap = MapAp {
                position: credit_mean(old.position, old.credit, e.position, e.credit),
                credit: old.credit + e.credit,
                last_seen_micros: old.last_seen_micros.max(now_micros),
                ..old
            };
            let new_code = self.bucket_of(ap.position).code;
            if new_code == code {
                bucket[i] = ap;
                continue;
            }
            bucket.remove(i);
            if bucket.is_empty() {
                shard.buckets.remove(&code);
            }
            shard.aps -= 1;
            work.insert(new_code, ap);
        }
        work.publish();
        stats
    }

    /// Drops stale entries (TTL lapsed since `last_seen`) and transient
    /// entries (credit still at or below the floor once the grace
    /// period after `first_seen` lapsed). Deterministic: a pure
    /// function of the stored entries and `now_micros`.
    pub fn evict(&self, now_micros: u64) -> EvictStats {
        let mut stats = EvictStats::default();
        let _writer = self.writer.lock().expect("map writer poisoned");
        for s in 0..self.shards.len() {
            let cur = self.published(s);
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
            self.publish(s, Arc::new(ShardGen { buckets, aps }));
        }
        stats
    }

    /// Swaps in the next generation of shard `s`. The write lock guards
    /// only this pointer store.
    fn publish(&self, s: usize, next: Arc<ShardGen>) {
        *self.shards[s].write().expect("shard lock poisoned") = next;
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
                    cached = Some((s, self.published(s)));
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

/// One ingest batch's view of the shards. A shard the batch reads
/// holds its published generation; the first write turns that into a
/// private working copy (`Arc::make_mut`), which [`Working::publish`]
/// swaps in. The map's writer lock keeps the published generations
/// fixed meanwhile.
struct Working<'m> {
    map: &'m GeoMap,
    shards: Vec<Option<Arc<ShardGen>>>,
    loaded: Vec<usize>,
}

impl Working<'_> {
    fn shard(&mut self, s: usize) -> &mut Arc<ShardGen> {
        let slot = &mut self.shards[s];
        if slot.is_none() {
            self.loaded.push(s);
        }
        slot.get_or_insert_with(|| self.map.published(s))
    }

    fn shard_mut(&mut self, s: usize) -> &mut ShardGen {
        Arc::make_mut(self.shard(s))
    }

    /// The `(bucket code, index)` of the entry nearest to `pos` within
    /// the merge radius, searching every bucket the radius overlaps.
    fn nearest(&mut self, pos: Point) -> Option<(u64, usize)> {
        let map = self.map;
        let r = map.cfg.merge_radius;
        let bbox = Rect::new(
            Point::new(pos.x - r, pos.y - r),
            Point::new(pos.x + r, pos.y + r),
        )
        .expect("merge bbox is well-formed");
        let cells = map.world.cells_covering(bbox, map.cfg.bucket_level);
        for cell in &cells {
            self.shard(map.shard_of_code(cell.code));
        }
        let shards = &self.shards;
        let candidates = cells.iter().flat_map(|cell| {
            let shard = shards[map.shard_of_code(cell.code)].as_deref();
            let bucket = shard.expect("loaded shard").buckets.get(&cell.code);
            let entries = bucket.map_or(&[][..], |b| b.as_slice()).iter();
            entries
                .enumerate()
                .map(move |(i, ap)| ((cell.code, i), ap.position))
        });
        nearest_within(pos, r, candidates)
    }

    /// Appends `ap` to the bucket `code`, in whichever shard owns it.
    fn insert(&mut self, code: u64, ap: MapAp) {
        let shard = self.shard_mut(self.map.shard_of_code(code));
        Arc::make_mut(shard.buckets.entry(code).or_default()).push(ap);
        shard.aps += 1;
    }

    /// Publishes every shard the batch wrote, in index order.
    fn publish(mut self) {
        self.loaded.sort_unstable();
        for &s in &self.loaded {
            let next = self.shards[s].take().expect("loaded shard");
            if !Arc::ptr_eq(&next, &self.map.published(s)) {
                self.map.publish(s, next);
            }
        }
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
    fn a_merge_dragged_across_a_shard_border_does_not_merge_again() {
        // (512.4, 100) is nearest to (504, 100); the heavy merge drags
        // that entry across the 512 m border, within 10 m of (521, 100).
        // Like the consolidator, the map must not merge it again, with
        // or without a shard border there.
        let entries = |shard_level: u8| {
            let mut cfg = small_cfg();
            cfg.shard_level = shard_level;
            let map = GeoMap::new(cfg).unwrap();
            map.absorb_estimates(1, &[est(504.0, 100.0, 1.0), est(521.0, 100.0, 1.0)]);
            let s = map.absorb_estimates(2, &[est(512.4, 100.0, 100.0)]);
            assert_eq!((s.merged, s.opened), (1, 0));
            let mut got = Vec::new();
            map.for_each_near(Point::new(512.0, 100.0), 50.0, |ap| {
                got.push((ap.position.x, ap.position.y, ap.credit));
            });
            got.sort_by(|a, b| a.partial_cmp(b).unwrap());
            got
        };
        let flat = entries(0);
        assert_eq!(flat.len(), 2);
        assert_eq!(flat, entries(1));
    }

    #[test]
    fn generations_advance_on_publish() {
        let map = GeoMap::new(small_cfg()).unwrap();
        let g0 = map.stats().generation;
        map.absorb_estimates(1, &[est(508.0, 100.0, 2.0)]);
        assert_eq!(map.stats().generation, g0 + 1);
        // (515, 100) lies in the right shard but merges into the entry
        // in the left one: only the shard it writes publishes.
        map.absorb_estimates(2, &[est(515.0, 100.0, 2.0)]);
        assert_eq!(map.stats().generation, g0 + 2);
    }
}
