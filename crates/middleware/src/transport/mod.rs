//! Pluggable transports driving the sans-I/O [`crate::protocol`] core.
//!
//! A transport owns everything the core refuses to: queues, the clock,
//! scheduling, and the vehicle side of each link. Two backends ship,
//! both on one virtual clock — deadlines fire by advancing virtual
//! time, never by sleeping, so a multi-second degraded round replays in
//! milliseconds:
//!
//! * [`SimTransport`] — the reference: each vehicle, in id order, steps
//!   each queued message and sends its uplink before taking the next.
//! * [`FleetTransport`] — the fleet-scale engine: the queued messages
//!   are delivered first, then the vehicles step as one batch over a
//!   clamped worker pool and their outcomes are absorbed in id order.
//!
//! Both are one event loop (the private `drive` module) with one queue
//! each way — uplink frames to the server, downlink frames to the
//! fleet — behind the same [`crate::fault`] layer on every link,
//! driving the same [`ServerCore`] (bare, or inside the durability
//! layer's crash-injecting host). So a given seed + fault plan yields
//! the same [`PlatformReport::deterministic`] projection on either.
//! Only [`sim_round_with_digest`] and
//! [`FleetTransport::run_round_with_digest`] build the equivalence
//! digest; [`Transport`] rounds never pay for it.

mod drive;
mod fleet;
mod sim;

pub use fleet::FleetTransport;
pub use sim::{sim_round_with_digest, SimTransport};

use crate::durability::{LogSink, SnapshotStore};
use crate::fault::FaultPlan;
use crate::protocol::rounds::smooth_reliabilities;
use crate::protocol::{Action, Event, PlatformConfig, PlatformReport, ServerCore, ShardedDatabase};
use crate::segment::SegmentMap;
use crate::vehicle::CrowdVehicle;
use crate::{messages::VehicleId, MiddlewareError, Result};
use crowdwifi_channel::RssReading;
use crowdwifi_obs::Registry;
use std::collections::BTreeMap;

/// The server-shaped thing the round driver's event loop drives: a bare
/// [`ServerCore`], or the durability layer's crash-injecting
/// [`crate::durability`] host wrapping one. The driver is generic over
/// this, so plain and durable rounds run one loop.
pub(crate) trait EventHost {
    /// Starts the round (arms the initial deadlines).
    ///
    /// # Errors
    ///
    /// Durable hosts propagate log I/O failures.
    fn begin(&mut self) -> Result<Vec<Action>>;

    /// Feeds one event through the host.
    ///
    /// # Errors
    ///
    /// Durable hosts propagate log I/O and recovery failures.
    fn handle(&mut self, event: Event) -> Result<Vec<Action>>;

    /// End-of-round hook (final log sync, durability counters).
    ///
    /// # Errors
    ///
    /// Durable hosts propagate log I/O failures.
    fn finish(&mut self) -> Result<()> {
        Ok(())
    }

    /// The metrics registry the sealed report must snapshot. Fetched at
    /// seal time because recovery replaces it with a fresh one.
    fn registry(&self) -> Registry;
}

impl EventHost for ServerCore {
    fn begin(&mut self) -> Result<Vec<Action>> {
        Ok(self.start(crate::protocol::VirtualInstant::ZERO))
    }

    fn handle(&mut self, event: Event) -> Result<Vec<Action>> {
        Ok(ServerCore::handle(self, event))
    }

    fn registry(&self) -> Registry {
        self.registry_handle()
    }
}

/// One round-running backend. Implementations drive the whole fleet
/// plus the [`crate::protocol::ServerCore`] to completion and seal the
/// report with vehicle exits and fault tallies.
pub trait Transport {
    /// Runs one full crowdsensing round under a deterministic
    /// [`FaultPlan`].
    ///
    /// # Errors
    ///
    /// Rejects invalid configurations and plans; fails with
    /// [`MiddlewareError::QuorumLost`] when too few vehicles survive;
    /// propagates assignment and inference failures.
    fn run_round_with_faults(
        &self,
        segments: SegmentMap,
        fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
        config: PlatformConfig,
        plan: &FaultPlan,
    ) -> Result<PlatformReport>;

    /// [`Transport::run_round_with_faults`] with no injected faults.
    ///
    /// # Errors
    ///
    /// As [`Transport::run_round_with_faults`].
    fn run_round(
        &self,
        segments: SegmentMap,
        fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
        config: PlatformConfig,
    ) -> Result<PlatformReport> {
        self.run_round_with_faults(segments, fleet, config, &FaultPlan::none())
    }

    /// Runs one crash-consistent round: every server event is
    /// write-ahead logged to `wal` before it is applied, and the plan's
    /// [`crate::fault::ServerFault`] schedule may kill and recover the
    /// server mid-round. The report's metrics gain the `durability.*`
    /// counters (appends, fsync batches, recoveries, truncated tails).
    ///
    /// # Errors
    ///
    /// As [`Transport::run_round_with_faults`], plus
    /// [`MiddlewareError::Durability`] on log I/O failures or when a
    /// recovered server's state diverges from the never-crashed one.
    fn run_round_durable(
        &self,
        segments: SegmentMap,
        fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
        config: PlatformConfig,
        plan: &FaultPlan,
        wal: &mut dyn LogSink,
    ) -> Result<PlatformReport>;
}

/// Result of a campaign: the per-round reports plus the sharded AP
/// database accumulated across them.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// One report per round, in order.
    pub reports: Vec<PlatformReport>,
    /// Campaign AP state, each road-segment shard carrying the output
    /// of the last round that covered it.
    pub database: ShardedDatabase,
}

/// Observer of campaign round closes. The campaign drivers call
/// [`RoundSink::round_closed`] exactly once per round, after
/// reliability smoothing and the database fold, with the sealed
/// report — this is how downstream consumers (the geo-sharded AP map
/// via [`crate::mapsink::GeoMapSink`], metrics scrapers, ...) tap the
/// round stream without owning the campaign loop.
pub trait RoundSink {
    /// Called after round `round` closed with its sealed report.
    fn round_closed(&mut self, round: usize, report: &PlatformReport);
}

/// The do-nothing sink for callers with no round observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSink;

impl RoundSink for NoSink {
    fn round_closed(&mut self, _round: usize, _report: &PlatformReport) {}
}

/// Runs several crowdsourcing rounds back-to-back on `transport` with
/// reliability smoothing: each round re-senses, re-labels and
/// re-infers; per-vehicle reliability is the EMA across rounds, so a
/// spammer cannot whitewash itself with one lucky round. Round `i` runs
/// under `plans[i]` (or no faults when `plans` is shorter). Each
/// round's fused output is folded into the sharded campaign database,
/// then `sink` observes the round close — the wiring point that makes
/// the geo-sharded AP map the sink of any transport's round closes.
///
/// # Errors
///
/// Propagates single-round failures; requires at least one round and a
/// `smoothing` factor in `[0, 1]`.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_with_faults_into<T: Transport + ?Sized>(
    transport: &T,
    segments: SegmentMap,
    rounds: Vec<Vec<(CrowdVehicle, Vec<RssReading>)>>,
    config: PlatformConfig,
    smoothing: f64,
    plans: &[FaultPlan],
    sink: &mut dyn RoundSink,
) -> Result<CampaignOutcome> {
    run_campaign(
        transport, segments, rounds, config, smoothing, plans, None, sink,
    )
}

/// [`run_campaign_with_faults_into`] over the durable round driver:
/// every round write-ahead logs into `wal` (surviving injected
/// [`crate::fault::ServerFault`] crashes), and each round close writes
/// a [`SnapshotStore`] snapshot of the campaign database and compacts
/// the log — the snapshot owns everything up to its round, so the WAL
/// only ever carries the round in flight. Round `i`'s snapshot write
/// is torn when `plans[i].snapshot_torn(i)` says so. `sink` observes
/// each round close after the snapshot write and WAL compaction.
///
/// # Errors
///
/// As [`run_campaign_with_faults_into`], plus
/// [`MiddlewareError::Durability`] on log or snapshot I/O failures.
#[allow(clippy::too_many_arguments)]
pub fn run_durable_campaign_into<T: Transport + ?Sized>(
    transport: &T,
    segments: SegmentMap,
    rounds: Vec<Vec<(CrowdVehicle, Vec<RssReading>)>>,
    config: PlatformConfig,
    smoothing: f64,
    plans: &[FaultPlan],
    wal: &mut dyn LogSink,
    snapshots: &mut SnapshotStore,
    sink: &mut dyn RoundSink,
) -> Result<CampaignOutcome> {
    run_campaign(
        transport,
        segments,
        rounds,
        config,
        smoothing,
        plans,
        Some((wal, snapshots)),
        sink,
    )
}

/// The one campaign loop behind both entry points. With `durable` set,
/// rounds run on the durable driver and every round close snapshots the
/// database and compacts the WAL before `sink` sees it.
#[allow(clippy::too_many_arguments)]
fn run_campaign<T: Transport + ?Sized>(
    transport: &T,
    segments: SegmentMap,
    rounds: Vec<Vec<(CrowdVehicle, Vec<RssReading>)>>,
    config: PlatformConfig,
    smoothing: f64,
    plans: &[FaultPlan],
    mut durable: Option<(&mut dyn LogSink, &mut SnapshotStore)>,
    sink: &mut dyn RoundSink,
) -> Result<CampaignOutcome> {
    if rounds.is_empty() {
        return Err(MiddlewareError::InvalidConfig(
            "campaign needs at least one round".to_string(),
        ));
    }
    if !(0.0..=1.0).contains(&smoothing) || !smoothing.is_finite() {
        return Err(MiddlewareError::InvalidConfig(format!(
            "smoothing must lie in [0, 1], got {smoothing}"
        )));
    }
    let none = FaultPlan::none();
    let mut long_run: BTreeMap<VehicleId, f64> = BTreeMap::new();
    let mut reports = Vec::with_capacity(rounds.len());
    let mut database = ShardedDatabase::new();
    for (i, fleet) in rounds.into_iter().enumerate() {
        let mut round_config = config;
        round_config.seed = config.seed.wrapping_add(i as u64 * 1000);
        let plan = plans.get(i).unwrap_or(&none);
        let mut report = match &mut durable {
            Some((wal, _)) => {
                transport.run_round_durable(segments.clone(), fleet, round_config, plan, *wal)?
            }
            None => transport.run_round_with_faults(segments.clone(), fleet, round_config, plan)?,
        };
        smooth_reliabilities(&mut report, &mut long_run, smoothing);
        database.absorb(i, &segments, &report.fused);
        if let Some((wal, snapshots)) = &mut durable {
            // Round close: snapshot the database, then compact the WAL —
            // the snapshot now owns everything this round contributed.
            snapshots.write(i, &database, plan.snapshot_torn(i as u64))?;
            wal.reset(&[])?;
        }
        sink.round_closed(i, &report);
        reports.push(report);
    }
    Ok(CampaignOutcome { reports, database })
}
