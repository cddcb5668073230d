//! Vehicular-network simulator substrate.
//!
//! The paper evaluates CrowdWiFi with the NCTUns v5.0 simulator, a
//! physical UCI testbed and Microsoft's VanLan traces — none of which are
//! available. This crate is the substitute: it generates `(position,
//! RSS, time)` streams with exactly the channel parameters the paper
//! reports, which is all the CrowdWiFi algorithms ever consume.
//!
//! * [`ap`] — roadside access points,
//! * [`scenario`] — the four evaluation maps (UCI campus §6.1, random
//!   250×250 m §6.1, physical testbed §6.2, VanLan §6.3),
//! * [`mobility`] — route builders (campus loop,
//!   straight passes, van rounds),
//! * [`collector`] — the drive-by RSS collector (one reading at a time,
//!   source chosen by signal strength, log-normal fading applied),
//! * [`vanlan`] — the VanLan-like beacon trace generator for the handoff
//!   experiments,
//! * [`trace_io`] — CSV persistence for recorded drives.
//!
//! # Example
//!
//! ```
//! use crowdwifi_vanet_sim::{scenario::Scenario, collector::RssCollector};
//! use rand::SeedableRng;
//!
//! let scenario = Scenario::uci_campus();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let route = crowdwifi_vanet_sim::mobility::uci_loop_route();
//! let readings = RssCollector::new(&scenario)
//!     .collect_along(&route, 1.0, &mut rng);
//! assert!(!readings.is_empty());
//! ```

#![deny(missing_docs)]
// `!(x > 0.0)` style guards are used deliberately throughout: unlike
// `x <= 0.0`, they also reject NaN, which is exactly what parameter
// validation wants.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod ap;
pub mod collector;
pub mod mobility;
pub mod scenario;
pub mod trace_io;
pub mod vanlan;

pub use ap::AccessPoint;
pub use collector::RssCollector;
pub use scenario::Scenario;

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Could not place the requested number of APs under the separation
    /// constraint.
    PlacementFailed {
        /// APs successfully placed before giving up.
        placed: usize,
        /// APs requested.
        requested: usize,
    },
    /// Invalid scenario parameter.
    InvalidParameter(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::PlacementFailed { placed, requested } => write!(
                f,
                "could only place {placed} of {requested} APs under the separation constraint"
            ),
            SimError::InvalidParameter(why) => write!(f, "invalid parameter: {why}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Convenience alias for simulator results.
pub type Result<T> = std::result::Result<T, SimError>;

/// Converts miles per hour to meters per second (the paper quotes vehicle
/// speeds in mph).
pub fn mph_to_mps(mph: f64) -> f64 {
    mph * 0.44704
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mph_conversion() {
        assert!((mph_to_mps(25.0) - 11.176).abs() < 1e-9);
        assert!((mph_to_mps(45.0) - 20.1168).abs() < 1e-9);
    }
}
