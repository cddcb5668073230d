//! Lightweight observability for the CrowdWiFi workspace.
//!
//! The online-CS pipeline and the crowd platform are concurrent, seeded
//! systems: when something degrades — solver iterations creep up, the
//! group-recovery memo stops hitting, a fleet keeps timing out — the
//! numbers that explain it live deep inside hot loops. This crate is the
//! shared, dependency-free layer those loops record into:
//!
//! * [`Registry`] — a set of named metrics. One **global** process-wide
//!   registry ([`global`]) serves fire-and-forget instrumentation (it
//!   starts disabled; see [`Registry::set_enabled`] and the
//!   [`OBS_ENV`] variable), and local registries serve scoped,
//!   deterministic measurement (e.g. one per platform round).
//! * [`Counter`], [`Gauge`], [`Histogram`] — cheap handles recording
//!   through relaxed atomics. Histograms have **fixed bucket
//!   boundaries** chosen at registration and accumulate their sum in
//!   integer units (micro-units for values, nanoseconds for timers,
//!   so sub-microsecond spans still add up), so concurrent recording
//!   stays exactly
//!   commutative: totals are identical regardless of thread
//!   interleaving.
//! * [`Span`] — a span-style timer started with
//!   [`Histogram::start_span`]; dropping (or [`Span::finish`]ing) it
//!   records the elapsed seconds into its timing histogram.
//! * [`Registry::event`] — a bounded buffer of structured events
//!   (name + typed fields, no wall-clock), for low-rate occurrences
//!   like vehicle deaths that deserve more context than a counter.
//! * [`Snapshot`] — a point-in-time copy of everything, exportable as
//!   **deterministic JSON** ([`Snapshot::to_json`]): keys sorted,
//!   floats in plain decimal, no timestamps. Timing histograms are
//!   inherently run-dependent, so [`Snapshot::deterministic`] strips
//!   them for byte-identical same-seed comparisons.
//!
//! # Overhead contract
//!
//! Recording into an enabled registry is one relaxed flag load plus one
//! or two relaxed atomic read-modify-writes — far below the cost of the
//! solves and channel round-trips it measures (<2% on the end-to-end
//! pipeline; see `BENCH_obs.json`). Recording into a *disabled*
//! registry is the flag load alone. Building with
//! `--no-default-features` (turning off the `record` feature) compiles
//! every recording call to an empty inline function.
//!
//! # Example
//!
//! ```
//! use crowdwifi_obs::Registry;
//!
//! let reg = Registry::new();
//! let windows = reg.counter("pipeline.windows_processed");
//! let k = reg.histogram("pipeline.round_winner_k", &[1.0, 2.0, 4.0, 8.0]);
//! windows.inc();
//! k.observe(2.0);
//! let snap = reg.snapshot();
//! if crowdwifi_obs::RECORDING {
//!     assert_eq!(snap.counters["pipeline.windows_processed"], 1);
//! }
//! assert!(snap.to_json().contains("round_winner_k"));
//! ```

#![deny(missing_docs)]

mod event;
mod registry;
mod snapshot;

pub use event::{Event, EventValue};
pub use registry::{global, Counter, Gauge, Histogram, Registry, Span, OBS_ENV};
pub use snapshot::{HistogramSnapshot, Snapshot};

/// Whether recording support is compiled in (the `record` feature,
/// on by default). With it off, every recording call is an empty
/// inline function and snapshots only ever show zeros.
pub const RECORDING: bool = cfg!(feature = "record");

/// Default bucket boundaries (in seconds) for latency histograms, from
/// 100 µs to ~30 s — wide enough for both a solver call and a platform
/// phase that waits out retry backoffs.
pub const LATENCY_BOUNDS_SECS: &[f64] = &[
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
];

/// Default bucket boundaries for iteration-count histograms (solver
/// convergence): powers-of-two-ish steps up to the FISTA default cap.
pub const ITERATION_BOUNDS: &[f64] = &[5.0, 10.0, 25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0];
