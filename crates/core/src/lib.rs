//! CrowdWiFi online compressive sensing — the paper's core contribution.
//!
//! A crowd-vehicle drives past unknown roadside APs, collecting one noisy
//! RSS reading at a time. This crate turns that stream into AP count and
//! location estimates, following §4 of the paper:
//!
//! 1. [`window`] — sliding-window RSS reading with TTL expiry (§4.3.2),
//! 2. grid formation over the current driving area (§4.3.1, via
//!    [`crowdwifi_geo::Grid::from_reference_points`]),
//! 3. [`assign`] — hypothesize the AP count `K` and which reading came
//!    from which AP (§4.3.3, Proposition 2),
//! 4. [`recovery`] — per-hypothesis ℓ1 sparse recovery on the grid with
//!    the Proposition 1 orthogonalization (§4.2.2),
//! 5. [`centroid`] — centroid processing of the dominant coefficients
//!    (§4.3.4, Eq. 3),
//! 6. [`select`] — Gaussian-mixture likelihood + BIC model selection
//!    across hypotheses (§4.3.5),
//! 7. [`consolidate`] — credit-based consolidation across rounds and
//!    spurious-estimate filtering (§4.3.6),
//!
//! all orchestrated by [`pipeline::OnlineCs`]. [`metrics`] implements the
//! paper's counting- and localization-error definitions (§6).
//!
//! # Example
//!
//! ```
//! use crowdwifi_core::pipeline::{OnlineCs, OnlineCsConfig};
//! use crowdwifi_channel::{PathLossModel, RssReading};
//! use crowdwifi_geo::Point;
//!
//! // Synthetic fading-free drive past one AP at (40, 20). The lane
//! // staggers so the route is not one straight line (a colinear route
//! // cannot tell which side of the road the AP is on).
//! let model = PathLossModel::uci_campus();
//! let ap = Point::new(40.0, 20.0);
//! let readings: Vec<RssReading> = (0..30)
//!     .map(|i| {
//!         let p = Point::new(2.0 * i as f64, if (i / 5) % 2 == 0 { 0.0 } else { 6.0 });
//!         RssReading::new(p, model.mean_rss(p.distance(ap)), i as f64)
//!     })
//!     .collect();
//!
//! let estimator = OnlineCs::new(OnlineCsConfig {
//!     lattice: 8.0,
//!     ..OnlineCsConfig::default()
//! }, model)?;
//! let aps = estimator.run(&readings)?;
//! assert_eq!(aps.len(), 1);
//! assert!(aps[0].position.distance(ap) < 12.0);
//! # Ok::<(), crowdwifi_core::CoreError>(())
//! ```

#![deny(missing_docs)]
// `!(x > 0.0)` style guards are used deliberately throughout: unlike
// `x <= 0.0`, they also reject NaN, which is exactly what parameter
// validation wants.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod assign;
pub mod centroid;
pub mod consolidate;
pub mod metrics;
pub mod obs;
pub mod par;
pub mod pipeline;
pub mod recovery;
pub mod refine;
pub mod select;
pub mod window;

pub use consolidate::ApEstimate;
pub use pipeline::{OnlineCs, OnlineCsConfig};
pub use recovery::{GridSupport, SensingStats, StageTimes};

/// Errors produced by the online CS pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A configuration value is out of range.
    InvalidConfig {
        /// Field name.
        field: &'static str,
        /// Why the value was rejected.
        reason: String,
    },
    /// The sparse solver failed.
    Solver(String),
    /// Geometry construction failed.
    Geometry(String),
    /// Channel-model construction failed.
    Channel(String),
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidConfig { field, reason } => {
                write!(f, "invalid config `{field}`: {reason}")
            }
            CoreError::Solver(e) => write!(f, "sparse solver failure: {e}"),
            CoreError::Geometry(e) => write!(f, "geometry failure: {e}"),
            CoreError::Channel(e) => write!(f, "channel failure: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<crowdwifi_sparsesolve::SolverError> for CoreError {
    fn from(e: crowdwifi_sparsesolve::SolverError) -> Self {
        CoreError::Solver(e.to_string())
    }
}

impl From<crowdwifi_geo::GeoError> for CoreError {
    fn from(e: crowdwifi_geo::GeoError) -> Self {
        CoreError::Geometry(e.to_string())
    }
}

impl From<crowdwifi_channel::ChannelError> for CoreError {
    fn from(e: crowdwifi_channel::ChannelError) -> Self {
        CoreError::Channel(e.to_string())
    }
}

/// Convenience alias for pipeline results.
pub type Result<T> = std::result::Result<T, CoreError>;
