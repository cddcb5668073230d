//! Geo-sharded global AP map — the read-mostly production database the
//! CrowdWiFi pipeline feeds.
//!
//! Crowd vehicles continuously upload per-drive AP estimates; user
//! vehicles continuously ask "which APs are ahead on my trajectory?"
//! (the paper's offloading use case, §6.3). This crate is the piece in
//! between:
//!
//! * [`geohash`] — planar Morton/Z-order cell codes over a bounded
//!   world; prefix truncation routes cells to shards.
//! * [`map`] — the sharded store: credit-based consolidation on ingest
//!   (the §4.3.6 math), TTL + transient eviction, and a lock-light
//!   generation-published read path (readers never wait on ingest).
//!   An entry's id is the geohash code of the position that founded it.
//! * [`corridor`] — trajectory-corridor queries over the map.
//! * [`snapshot`] — CRC-framed snapshots and compaction, in the same
//!   framing idiom as the middleware durability layer.

#![deny(missing_docs)]

pub mod corridor;
pub mod geohash;
pub mod map;
pub mod snapshot;

pub use geohash::{GeoCell, World, MAX_LEVEL};
pub use map::{canonical_order, EvictStats, GeoMap, IngestStats, MapAp, MapConfig, MapStats};
pub use snapshot::crc32;

/// Errors produced by the map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The configuration is degenerate (zero-extent world, bad level
    /// pair, non-finite radius, ...).
    InvalidConfig(String),
    /// Snapshot bytes are torn, checksum-broken, or structurally
    /// impossible.
    Corrupt(String),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::InvalidConfig(m) => write!(f, "invalid map config: {m}"),
            MapError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
        }
    }
}

impl std::error::Error for MapError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MapError>;
