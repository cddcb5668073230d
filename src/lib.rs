//! # CrowdWiFi
//!
//! A from-scratch Rust reproduction of **"CrowdWiFi: Efficient
//! Crowdsensing of Roadside WiFi Networks"** (Wu et al., ACM
//! Middleware 2014): a vehicular middleware that counts and localizes
//! roadside WiFi access points from sparse drive-by RSS readings, using
//! online compressive sensing on the vehicle and offline crowdsourcing
//! on the server.
//!
//! This facade crate re-exports the full stack; each layer is its own
//! crate under `crates/`:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`linalg`] | `crowdwifi-linalg` | dense matrices, QR, eigen, SVD, pseudo-inverse, Prop-1 whitening |
//! | [`sparsesolve`] | `crowdwifi-sparsesolve` | ℓ1 solvers: active set (default), FISTA, OMP, IRLS |
//! | [`geo`] | `crowdwifi-geo` | points, rectangles, grids, trajectories |
//! | [`channel`] | `crowdwifi-channel` | path loss, fading, GMM likelihood, BIC |
//! | [`sim`] | `crowdwifi-vanet-sim` | scenario maps, mobility, RSS trace generation |
//! | [`core`] | `crowdwifi-core` | the online CS pipeline (§4 of the paper) |
//! | [`crowd`] | `crowdwifi-crowd` | bipartite crowdsourcing + iterative inference (§5) |
//! | [`baselines`] | `crowdwifi-baselines` | LGMM, MDS and Skyhook comparators |
//! | [`handoff`] | `crowdwifi-handoff` | BRR/AllAP policies, sessions, transfers (§6.3) |
//! | [`geomap`] | `crowdwifi-geomap` | geo-sharded global AP map: user-vehicle route downloads, lock-light reads, TTL eviction, snapshots |
//! | [`middleware`] | `crowdwifi-middleware` | crowd-server / crowd-vehicle roles, fault-tolerant rounds, round sink into the map (§3, §5.5) |
//!
//! # Quickstart
//!
//! ```
//! use crowdwifi::core::pipeline::{OnlineCs, OnlineCsConfig};
//! use crowdwifi::sim::{mobility, RssCollector, Scenario};
//! use rand::SeedableRng;
//!
//! // Drive the UCI campus loop and estimate the 8 APs.
//! let scenario = Scenario::uci_campus();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let readings = RssCollector::new(&scenario)
//!     .collect_along(&mobility::uci_loop_route(), 1.0, &mut rng);
//! let estimator = OnlineCs::new(OnlineCsConfig::default(), *scenario.pathloss())?;
//! let aps = estimator.run(&readings)?;
//! assert!(!aps.is_empty());
//! # Ok::<(), crowdwifi::core::CoreError>(())
//! ```

#![deny(missing_docs)]

pub use crowdwifi_baselines as baselines;
pub use crowdwifi_channel as channel;
pub use crowdwifi_core as core;
pub use crowdwifi_crowd as crowd;
pub use crowdwifi_geo as geo;
pub use crowdwifi_geomap as geomap;
pub use crowdwifi_handoff as handoff;
pub use crowdwifi_linalg as linalg;
pub use crowdwifi_middleware as middleware;
pub use crowdwifi_obs as obs;
pub use crowdwifi_sparsesolve as sparsesolve;
pub use crowdwifi_vanet_sim as sim;
