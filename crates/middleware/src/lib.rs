//! The CrowdWiFi middleware: crowd-server, crowd-vehicles and
//! user-vehicles wired together (§3 and §5.5 of the paper).
//!
//! Three parties cooperate:
//!
//! * **crowd-vehicles** run the online CS estimator over their own RSS
//!   streams, upload coarse per-segment AP estimates, and answer the
//!   server's pattern-mapping tasks with ±1 labels ([`vehicle`]);
//! * the **crowd-server** partitions the map into road segments,
//!   generates candidate AP distribution patterns, assigns mapping
//!   tasks on a bipartite graph, infers vehicle reliabilities with
//!   iterative message passing, and fuses uploads into fine-grained AP
//!   estimates ([`server`]);
//! * **user-vehicles** download the APs ahead of their route from the
//!   geo-sharded AP map ([`crowdwifi_geomap::GeoMap::aps_ahead`]), which
//!   [`mapsink::GeoMapSink`] feeds from each closed round's fused
//!   output.
//!
//! The round/campaign machinery is layered sans-I/O style:
//!
//! * [`protocol`] holds the pure server-side state machine
//!   ([`protocol::ServerCore`]): timestamped events in, actions out, no
//!   threads, no channels, no wall clock. The durable campaign's
//!   round-close snapshot state is sharded by road segment
//!   ([`protocol::ShardedDatabase`]).
//! * [`transport`] supplies the I/O: a single-threaded deterministic
//!   simulator with a virtual clock ([`transport::SimTransport`]), and
//!   the fleet-scale engine that batches vehicle sessions over a
//!   bounded worker pool on the same virtual clock
//!   ([`transport::FleetTransport`]). Same seed + fault plan → the
//!   same deterministic round report on both backends.
//! * [`platform`] re-exports the round configuration and report types
//!   from [`protocol`].
//!
//! Rounds are fault-tolerant: per-vehicle deadlines with bounded
//! retries, reassignment of tasks orphaned by dead vehicles, and
//! quorum-based degraded completion. [`fault`] injects deterministic,
//! seeded message and vehicle faults for replayable chaos testing.
//!
//! # Example
//!
//! See `examples/crowd_platform.rs` at the workspace root for the full
//! three-party round trip.

#![deny(missing_docs)]

pub mod durability;
pub mod fault;
pub mod mapsink;
pub mod messages;
pub mod platform;
pub mod protocol;
pub mod segment;
pub mod server;
pub mod transport;
pub mod vehicle;
pub mod wire;

pub use server::CrowdServer;
pub use vehicle::CrowdVehicle;

/// Errors produced by the middleware.
#[derive(Debug, Clone, PartialEq)]
pub enum MiddlewareError {
    /// The referenced vehicle is not registered.
    UnknownVehicle(u32),
    /// Configuration problem.
    InvalidConfig(String),
    /// The underlying estimator failed.
    Estimator(String),
    /// Crowdsourcing failure.
    Crowd(String),
    /// A wire-encoded message or segment map failed to decode.
    Codec(String),
    /// The durability layer failed: write-ahead-log or snapshot I/O
    /// broke, or a recovered server diverged from the logged history.
    Durability(String),
    /// Too few vehicles survived the round to meet the completion
    /// quorum: `alive` out of `total` finished, `required` were needed.
    QuorumLost {
        /// Vehicles that completed the round.
        alive: usize,
        /// Minimum completions the quorum demanded.
        required: usize,
        /// Fleet size at round start.
        total: usize,
    },
}

impl std::fmt::Display for MiddlewareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MiddlewareError::UnknownVehicle(id) => write!(f, "unknown vehicle {id}"),
            MiddlewareError::InvalidConfig(why) => write!(f, "invalid config: {why}"),
            MiddlewareError::Estimator(e) => write!(f, "estimator failure: {e}"),
            MiddlewareError::Crowd(e) => write!(f, "crowdsourcing failure: {e}"),
            MiddlewareError::Codec(e) => write!(f, "codec failure: {e}"),
            MiddlewareError::Durability(e) => write!(f, "durability failure: {e}"),
            MiddlewareError::QuorumLost {
                alive,
                required,
                total,
            } => write!(
                f,
                "round quorum lost: {alive}/{total} vehicles completed, {required} required"
            ),
        }
    }
}

impl std::error::Error for MiddlewareError {}

impl From<crowdwifi_core::CoreError> for MiddlewareError {
    fn from(e: crowdwifi_core::CoreError) -> Self {
        MiddlewareError::Estimator(e.to_string())
    }
}

impl From<crowdwifi_crowd::CrowdError> for MiddlewareError {
    fn from(e: crowdwifi_crowd::CrowdError) -> Self {
        MiddlewareError::Crowd(e.to_string())
    }
}

/// Convenience alias for middleware results.
pub type Result<T> = std::result::Result<T, MiddlewareError>;
