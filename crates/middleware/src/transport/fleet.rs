//! The batched-stepping transport for fleet-scale rounds.
//!
//! [`FleetTransport`] runs the simulator's event loop
//! ([`super::drive`]) and differs only in how vehicles step. Each
//! session is split in two: its [`Link`] (faulty uplink, recorded exit)
//! stays with the driver, where every fault-RNG draw happens, and its
//! `Send` compute half (the [`VehicleCore`], its pending frames and its
//! staged outcomes) steps on a small worker pool in contiguous chunks.
//!
//! A tick routes the drained downlink queue into the pending batches,
//! steps every cell on the pool, then absorbs the staged outcomes **in
//! vehicle-id order** on the driver thread — the only place uplink
//! sends and exits happen. The server thus sees the exact event
//! sequence [`SimTransport`](super::SimTransport) generates, and a
//! same-seed round is byte-identical across the two backends for any
//! worker count. Only [`FleetTransport::run_round_with_digest`] builds
//! the equivalence digest; [`Transport`] rounds skip it.

use super::drive::{
    self, session_of, step_frame, step_start, Frame, Link, Sessions, StepOutcome, Vehicle,
};
use super::Transport;
use crate::durability::LogSink;
use crate::fault::FaultPlan;
use crate::protocol::{PlatformConfig, PlatformReport};
use crate::segment::SegmentMap;
use crate::vehicle::{CrowdVehicle, VehicleCore, VehicleStep};
use crate::Result;
use crowdwifi_channel::RssReading;

/// The fleet-scale backend: the shared event loop with vehicle sessions
/// stepped in batches over a clamped worker pool.
#[derive(Debug, Clone, Copy)]
pub struct FleetTransport {
    workers: usize,
}

impl FleetTransport {
    /// A transport with one worker per core of the machine's detected
    /// parallelism ([`crowdwifi_core::par::resolve_threads`]).
    pub fn new() -> Self {
        FleetTransport {
            workers: crowdwifi_core::par::resolve_threads(0),
        }
    }

    /// Overrides the worker count. Like the estimator's thread count,
    /// the request is clamped to the machine's detected parallelism
    /// ([`crowdwifi_core::par::resolve_threads`]) — oversubscribing an
    /// event loop whose work units are pure compute only adds
    /// scheduling noise. `0` restores auto-detection.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = crowdwifi_core::par::resolve_threads(workers);
        self
    }

    /// The effective (post-clamp) worker budget; benches record this
    /// under `machine.worker_budget`.
    pub fn worker_budget(&self) -> usize {
        self.workers
    }

    /// Runs one faulted round and returns the report plus the core's
    /// final [`state_digest`](crate::protocol::ServerCore::state_digest)
    /// extended with a [`WireDigest`](crate::wire::WireDigest) over the
    /// binary uplink frames, for byte-for-byte comparison against
    /// [`sim_round_with_digest`](super::sim_round_with_digest).
    ///
    /// # Errors
    ///
    /// As [`Transport::run_round_with_faults`].
    pub fn run_round_with_digest(
        &self,
        segments: SegmentMap,
        fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
        config: PlatformConfig,
        plan: &FaultPlan,
    ) -> Result<(PlatformReport, String)> {
        let batched = |vehicles| Batched::new(vehicles, self.workers);
        drive::round_with_digest(segments, fleet, config, plan, batched)
    }
}

impl Default for FleetTransport {
    fn default() -> Self {
        FleetTransport::new()
    }
}

impl Transport for FleetTransport {
    fn run_round_with_faults(
        &self,
        segments: SegmentMap,
        fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
        config: PlatformConfig,
        plan: &FaultPlan,
    ) -> Result<PlatformReport> {
        let batched = |vehicles| Batched::new(vehicles, self.workers);
        Ok(drive::round(segments, fleet, config, plan, batched)?.0)
    }

    fn run_round_durable(
        &self,
        segments: SegmentMap,
        fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
        config: PlatformConfig,
        plan: &FaultPlan,
        wal: &mut dyn LogSink,
    ) -> Result<PlatformReport> {
        let batched = |vehicles| Batched::new(vehicles, self.workers);
        drive::round_durable(segments, fleet, config, plan, wal, batched)
    }
}

/// The `Send` compute half of one vehicle session: the pure state
/// machine, the drive it has yet to sense, its pending downlink batch
/// and the outcomes it staged this tick. Workers touch nothing else.
struct ComputeCell {
    core: VehicleCore,
    /// `Some` until the start step has run.
    readings: Option<Vec<RssReading>>,
    pending: Vec<Vec<u8>>,
    staged: Vec<StepOutcome>,
}

impl ComputeCell {
    /// Runs this cell's share of the tick: the start step if still
    /// owed, then every pending frame in order. Once an exit (or
    /// failure, or panic) is staged, the rest of the batch is absorbed
    /// silently — the frames the inline stepping would skip.
    fn step(&mut self, segments: &SegmentMap) {
        if let Some(readings) = self.readings.take() {
            self.staged.push(step_start(&mut self.core, &readings));
        }
        let mut running = self.staged.last().is_none_or(continues);
        for frame in std::mem::take(&mut self.pending) {
            if running {
                let out = step_frame(&mut self.core, &frame, segments);
                running = continues(&out);
                self.staged.push(out);
            }
        }
    }
}

/// Whether a step leaves the vehicle running.
fn continues(outcome: &StepOutcome) -> bool {
    matches!(outcome, Ok(Ok(VehicleStep::Continue(_))))
}

/// The fleet engine's stepping: route every drained frame to its
/// cell, run one [`compute_batch`] over the worker pool, absorb in
/// vehicle-id order.
pub(super) struct Batched {
    cells: Vec<ComputeCell>,
    workers: usize,
}

impl Batched {
    pub(super) fn new(vehicles: Vec<Vehicle>, workers: usize) -> Self {
        let cells = vehicles
            .into_iter()
            .map(|(core, readings)| ComputeCell {
                core,
                readings: Some(readings),
                pending: Vec::new(),
                staged: Vec::new(),
            })
            .collect();
        Batched { cells, workers }
    }

    /// Steps every cell on the pool, then absorbs the staged outcomes
    /// in vehicle-id order on the driver thread — the only place uplink
    /// sends and exits happen, which is what pins the server-side event
    /// order to the simulator's.
    fn tick(&mut self, links: &mut [Link], segments: &SegmentMap) {
        compute_batch(&mut self.cells, segments, self.workers);
        for (link, cell) in links.iter_mut().zip(&mut self.cells) {
            for outcome in cell.staged.drain(..) {
                link.absorb(outcome);
            }
        }
    }
}

impl Sessions for Batched {
    fn start(&mut self, links: &mut [Link], segments: &SegmentMap) {
        self.tick(links, segments);
    }

    fn pump(&mut self, links: &mut [Link], frames: Vec<Frame>, segments: &SegmentMap) {
        if frames.is_empty() {
            return;
        }
        for (id, frame) in frames {
            let i = session_of(links, id);
            if !links[i].exited() {
                self.cells[i].pending.push(frame);
            }
        }
        self.tick(links, segments);
    }

    fn core(&self, i: usize) -> &VehicleCore {
        &self.cells[i].core
    }
}

/// Fans the compute batch out over `workers` contiguous chunks of the
/// cell array. Each cell's work is independent, so chunking is pure
/// load-splitting; with one worker (or one cell) everything runs
/// inline with zero thread spawns.
fn compute_batch(cells: &mut [ComputeCell], segments: &SegmentMap, workers: usize) {
    let workers = workers.max(1).min(cells.len().max(1));
    if workers <= 1 {
        for cell in cells.iter_mut() {
            cell.step(segments);
        }
        return;
    }
    let width = cells.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for part in cells.chunks_mut(width) {
            scope.spawn(move || {
                for cell in part {
                    cell.step(segments);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPoint;
    use crate::messages::VehicleId;
    use crate::transport::sim_round_with_digest;
    use crate::vehicle::Behavior;
    use crowdwifi_channel::PathLossModel;
    use crowdwifi_core::{OnlineCs, OnlineCsConfig};
    use crowdwifi_geo::{Point, Rect};

    /// Five vehicles on staggered drives past two roadside APs.
    fn fleet() -> Vec<(CrowdVehicle, Vec<RssReading>)> {
        let model = PathLossModel::uci_campus();
        (0..5u32)
            .map(|v| {
                let readings = (0..50)
                    .map(|i| {
                        let lane = if (i / 5) % 2 == 0 { 0.0 } else { 12.0 };
                        let p = Point::new(6.0 * i as f64, v as f64 * 0.5 + lane);
                        let ap = Point::new(if p.x < 140.0 { 60.0 } else { 220.0 }, 30.0);
                        RssReading::new(p, model.mean_rss(p.distance(ap)), i as f64)
                    })
                    .collect();
                let estimator = OnlineCs::new(OnlineCsConfig::default(), model).unwrap();
                let vehicle = CrowdVehicle::new(VehicleId(v), estimator, Behavior::Honest);
                (vehicle, readings)
            })
            .collect()
    }

    #[test]
    fn every_chunking_matches_the_simulator_byte_for_byte() {
        // Built directly, so the worker counts skip the clamp:
        // 3 and 5 workers split five vehicles into several chunks even
        // on a one- or two-core machine.
        let segments = SegmentMap::new(
            Rect::new(Point::new(0.0, -20.0), Point::new(300.0, 80.0)).unwrap(),
            150.0,
        );
        let config = PlatformConfig {
            workers_per_task: 3,
            ..PlatformConfig::default()
        };
        let plan = FaultPlan::noisy(29, 0.05, 0.05, 0.05).crash(VehicleId(1), FaultPoint::Upload);
        let (sim, sim_digest) =
            sim_round_with_digest(segments.clone(), fleet(), config, &plan).unwrap();
        for workers in [1, 2, 3, 5] {
            let (report, digest) = FleetTransport { workers }
                .run_round_with_digest(segments.clone(), fleet(), config, &plan)
                .unwrap();
            assert_eq!(digest, sim_digest, "digest diverged at {workers} workers");
            assert_eq!(
                format!("{:?}", report.deterministic()),
                format!("{:?}", sim.deterministic()),
                "projection diverged at {workers} workers"
            );
            assert_eq!(
                report.exits, sim.exits,
                "exits diverged at {workers} workers"
            );
        }
    }

    #[test]
    fn worker_clamp_mirrors_thread_budget() {
        let detected = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(FleetTransport::new().worker_budget(), detected);
        let t = FleetTransport::new().with_workers(usize::MAX);
        assert_eq!(t.worker_budget(), detected);
        assert_eq!(t.with_workers(1).worker_budget(), 1);
        assert_eq!(t.with_workers(0).worker_budget(), detected);
    }
}
