//! CRC-framed snapshots and compaction for the map.
//!
//! Same framed-CRC idiom as `middleware::durability`: every frame is
//! `[len: u32 LE][crc32(payload): u32 LE][payload]`. Frame 0 is the
//! header (magic, version, config); every following frame is one
//! non-empty shard with its buckets in sorted-code order and entries in
//! stored order. Unlike the durability WAL, a snapshot is not a log —
//! a torn tail or a CRC mismatch is corruption and recovery fails
//! loudly instead of truncating.
//!
//! Snapshots are **byte-identical** under round-trip: serializing a
//! recovered map reproduces the input bytes exactly, which is what the
//! `snapshot → compact → recover` test pins down.

use crate::map::{EvictStats, GeoMap, MapAp, MapConfig};
use crate::{MapError, Result};
use crowdwifi_geo::{Point, Rect};
use std::sync::Arc;

/// Snapshot magic bytes.
const MAGIC: &[u8; 4] = b"GMAP";
/// Snapshot format version; `recover` rejects every other version.
const VERSION: u32 = 2;

/// Encoded size of one entry: id, x, y, credit, first and last seen.
const ENTRY_BYTES: usize = 4 + 8 * 5;

/// IEEE CRC32 lookup table (polynomial `0xEDB88320`), built at compile
/// time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// IEEE CRC32 of `data` — the same checksum the durability layer
/// frames its WAL records with.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Appends one `[len][crc][payload]` frame.
fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Splits `bytes` into CRC-validated frame payloads.
///
/// # Errors
///
/// Returns [`MapError::Corrupt`] on a torn frame or checksum mismatch.
fn split_frames(bytes: &[u8]) -> Result<Vec<&[u8]>> {
    let mut frames = Vec::new();
    let mut at = 0usize;
    while at < bytes.len() {
        if bytes.len() - at < 8 {
            return Err(MapError::Corrupt(format!("torn frame header at {at}")));
        }
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        let start = at + 8;
        let end = start
            .checked_add(len)
            .ok_or_else(|| MapError::Corrupt(format!("frame length overflow at {at}")))?;
        if end > bytes.len() {
            return Err(MapError::Corrupt(format!("torn frame payload at {at}")));
        }
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            return Err(MapError::Corrupt(format!("crc mismatch at {at}")));
        }
        frames.push(payload);
        at = end;
    }
    Ok(frames)
}

/// A little-endian reader over one frame payload.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| MapError::Corrupt(format!("short read at {}", self.at)))?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.at
    }

    fn done(&self) -> bool {
        self.remaining() == 0
    }
}

fn push_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

impl GeoMap {
    /// Serializes the map (config and every shard's current
    /// generation) into a framed snapshot. Deterministic: buckets are
    /// emitted in sorted-code order and entries in stored order, so
    /// equal maps produce equal bytes.
    pub fn snapshot(&self) -> Vec<u8> {
        let cfg = self.config();
        let mut out = Vec::new();

        let mut header = Vec::new();
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        push_f64(&mut header, cfg.world.min().x);
        push_f64(&mut header, cfg.world.min().y);
        push_f64(&mut header, cfg.world.max().x);
        push_f64(&mut header, cfg.world.max().y);
        header.push(cfg.shard_level);
        header.push(cfg.bucket_level);
        push_f64(&mut header, cfg.merge_radius);
        header.extend_from_slice(&cfg.ttl_micros.to_le_bytes());
        header.extend_from_slice(&cfg.transient_grace_micros.to_le_bytes());
        push_f64(&mut header, cfg.min_credit);
        push_frame(&mut out, &header);

        for s in 0..self.shards.len() {
            let generation = self.published(s);
            if generation.buckets.is_empty() {
                continue;
            }
            let mut codes: Vec<u64> = generation.buckets.keys().copied().collect();
            codes.sort_unstable();
            let mut frame = Vec::new();
            frame.extend_from_slice(&(s as u32).to_le_bytes());
            frame.extend_from_slice(&(codes.len() as u32).to_le_bytes());
            for code in codes {
                let bucket = &generation.buckets[&code];
                frame.extend_from_slice(&code.to_le_bytes());
                frame.extend_from_slice(&(bucket.len() as u32).to_le_bytes());
                for ap in bucket.iter() {
                    frame.extend_from_slice(&ap.id.to_le_bytes());
                    push_f64(&mut frame, ap.position.x);
                    push_f64(&mut frame, ap.position.y);
                    push_f64(&mut frame, ap.credit);
                    frame.extend_from_slice(&ap.first_seen_micros.to_le_bytes());
                    frame.extend_from_slice(&ap.last_seen_micros.to_le_bytes());
                }
            }
            push_frame(&mut out, &frame);
        }
        out
    }

    /// Rebuilds a map from snapshot bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::Corrupt`] for torn frames, CRC mismatches,
    /// bad magic/version, or structurally impossible contents, and
    /// [`MapError::InvalidConfig`] if the embedded config fails
    /// validation.
    pub fn recover(bytes: &[u8]) -> Result<GeoMap> {
        let frames = split_frames(bytes)?;
        let Some((header, shard_frames)) = frames.split_first() else {
            return Err(MapError::Corrupt("empty snapshot".into()));
        };

        let mut r = Reader::new(header);
        if r.take(4)? != MAGIC {
            return Err(MapError::Corrupt("bad magic".into()));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(MapError::Corrupt(format!("unsupported version {version}")));
        }
        let min = Point::new(r.f64()?, r.f64()?);
        let max = Point::new(r.f64()?, r.f64()?);
        let world =
            Rect::new(min, max).map_err(|e| MapError::Corrupt(format!("bad world rect: {e}")))?;
        let cfg = MapConfig {
            world,
            shard_level: r.u8()?,
            bucket_level: r.u8()?,
            merge_radius: r.f64()?,
            ttl_micros: r.u64()?,
            transient_grace_micros: r.u64()?,
            min_credit: r.f64()?,
        };
        if !r.done() {
            return Err(MapError::Corrupt("trailing header bytes".into()));
        }

        let map = GeoMap::new(cfg)?;
        for frame in shard_frames {
            let mut r = Reader::new(frame);
            let s = r.u32()? as usize;
            if s >= map.shards.len() {
                return Err(MapError::Corrupt(format!("shard index {s} out of range")));
            }
            let bucket_count = r.u32()?;
            let shard = &map.shards[s];
            let mut generation = std::mem::take(&mut *shard.write().expect("shard lock poisoned"));
            let inner = Arc::get_mut(&mut generation).expect("fresh map generation is unshared");
            for _ in 0..bucket_count {
                let code = r.u64()?;
                if map.shard_of_code(code) != s {
                    return Err(MapError::Corrupt(format!(
                        "bucket {code:#x} does not belong to shard {s}"
                    )));
                }
                let n = r.u32()?;
                // The count sizes an allocation, so it must fit the
                // bytes actually left in the frame.
                if (n as usize).saturating_mul(ENTRY_BYTES) > r.remaining() {
                    return Err(MapError::Corrupt(format!(
                        "bucket {code:#x} claims {n} entries past the frame end"
                    )));
                }
                let mut bucket: Vec<MapAp> = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    bucket.push(MapAp {
                        id: r.u32()?,
                        position: Point::new(r.f64()?, r.f64()?),
                        credit: r.f64()?,
                        first_seen_micros: r.u64()?,
                        last_seen_micros: r.u64()?,
                    });
                }
                inner.aps += n as u64;
                if inner.buckets.insert(code, Arc::new(bucket)).is_some() {
                    return Err(MapError::Corrupt(format!("duplicate bucket {code:#x}")));
                }
            }
            if !r.done() {
                return Err(MapError::Corrupt("trailing shard bytes".into()));
            }
            *shard.write().expect("shard lock poisoned") = generation;
        }
        Ok(map)
    }

    /// Compaction: evicts at clock `now_micros`, then snapshots what
    /// remains. Returns the eviction counters and the snapshot bytes.
    pub fn compact_snapshot(&self, now_micros: u64) -> (EvictStats, Vec<u8>) {
        let stats = self.evict(now_micros);
        (stats, self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdwifi_core::ApEstimate;

    fn populated() -> GeoMap {
        let world = Rect::new(Point::new(0.0, 0.0), Point::new(1024.0, 1024.0)).unwrap();
        let mut cfg = MapConfig::new(world);
        cfg.shard_level = 2;
        cfg.bucket_level = 5;
        cfg.ttl_micros = 1_000;
        cfg.transient_grace_micros = 100;
        let map = GeoMap::new(cfg).unwrap();
        let ests: Vec<ApEstimate> = (0..40)
            .map(|i| ApEstimate {
                position: Point::new(20.0 + 25.0 * f64::from(i), 13.0 * f64::from(i % 7)),
                credit: 2.0,
            })
            .collect();
        map.absorb_estimates(10, &ests);
        map.absorb_estimates(500, &ests[..20]);
        map
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn snapshot_recover_roundtrip_is_byte_identical() {
        let map = populated();
        let bytes = map.snapshot();
        let recovered = GeoMap::recover(&bytes).unwrap();
        assert_eq!(recovered.len(), map.len());
        assert_eq!(recovered.snapshot(), bytes);
        // Queries over the recovered map agree with the original.
        let q0 = map.query_radius(Point::new(300.0, 40.0), 200.0);
        let q1 = recovered.query_radius(Point::new(300.0, 40.0), 200.0);
        assert_eq!(q0, q1);
    }

    #[test]
    fn compact_evicts_then_snapshots_consistently() {
        let map = populated();
        // At t=1400: entries last seen at 10 are past the 1000 µs TTL;
        // the 20 refreshed at 500 survive.
        let (stats, bytes) = map.compact_snapshot(1400);
        assert_eq!(stats.expired, 20);
        assert_eq!(stats.remaining, 20);
        let recovered = GeoMap::recover(&bytes).unwrap();
        assert_eq!(recovered.len(), 20);
        // The compacted snapshot equals a snapshot of the evicted map.
        assert_eq!(recovered.snapshot(), map.snapshot());
    }

    #[test]
    fn corruption_is_detected_not_truncated() {
        let map = populated();
        let mut bytes = map.snapshot();
        // Flip one payload byte.
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(GeoMap::recover(&bytes), Err(MapError::Corrupt(_))));
        // Torn tail.
        let whole = map.snapshot();
        assert!(matches!(
            GeoMap::recover(&whole[..whole.len() - 3]),
            Err(MapError::Corrupt(_))
        ));
        // Bad magic.
        let mut bad = map.snapshot();
        bad[8] = b'X';
        assert!(matches!(GeoMap::recover(&bad), Err(MapError::Corrupt(_))));
        // A CRC-valid header of format version 1.
        let mut old = map.snapshot();
        old[12..16].copy_from_slice(&1u32.to_le_bytes());
        let len = u32::from_le_bytes(old[..4].try_into().unwrap()) as usize;
        let crc = crc32(&old[8..8 + len]);
        old[4..8].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(GeoMap::recover(&old), Err(MapError::Corrupt(_))));
    }

    #[test]
    fn oversized_bucket_count_is_corrupt_not_an_allocation() {
        let world = Rect::new(Point::new(0.0, 0.0), Point::new(64.0, 64.0)).unwrap();
        let mut bytes = GeoMap::new(MapConfig::new(world)).unwrap().snapshot();
        // A CRC-valid shard frame: shard 0, one bucket (code 0) that
        // claims u32::MAX entries with none following.
        let mut frame = Vec::new();
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.extend_from_slice(&0u64.to_le_bytes());
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        push_frame(&mut bytes, &frame);
        assert!(matches!(GeoMap::recover(&bytes), Err(MapError::Corrupt(_))));
    }

    #[test]
    fn empty_map_roundtrips() {
        let world = Rect::new(Point::new(0.0, 0.0), Point::new(64.0, 64.0)).unwrap();
        let map = GeoMap::new(MapConfig::new(world)).unwrap();
        let bytes = map.snapshot();
        let recovered = GeoMap::recover(&bytes).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(recovered.snapshot(), bytes);
    }
}
