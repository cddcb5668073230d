//! The batched-stepping transport for fleet-scale rounds.
//!
//! [`FleetTransport`] runs the same virtual-clock event loop as the
//! simulator ([`super::drive`]) and differs only in how vehicle
//! sessions step: not one vehicle at a time, but in batches fanned out
//! over a small worker pool. Each session is split in two:
//!
//! * its [`Link`] on the driver thread — inbox queue, faulty uplink,
//!   recorded exit — which is where all `Rc`-backed queue plumbing and
//!   all fault-RNG consumption happens, keeping per-link fault streams
//!   in exactly the order the simulator produces; and
//! * a **compute half** (the [`VehicleCore`] plus its staged step
//!   outcomes), which is `Send` and is fanned out across the worker
//!   pool in contiguous chunks each tick.
//!
//! A tick delivers every queued inbox frame into per-vehicle pending
//! batches, runs the compute batch on the pool, then absorbs the staged
//! outcomes **in vehicle-id order** on the driver thread. Because
//! absorption — the only place uplink sends and exits happen — is
//! serial and id-ordered, the server sees the exact event sequence
//! [`SimTransport`](super::SimTransport) generates, and a same-seed
//! round is byte-identical across the two backends (state digest, fused
//! map and deterministic projection alike) for any worker count. The
//! worker pool parallelises the vehicle side only; the server core
//! stays single-threaded.

use super::drive::{self, step_frame, step_start, Link, Sessions, StepOutcome, Vehicle};
use super::Transport;
use crate::durability::LogSink;
use crate::fault::FaultPlan;
use crate::messages::VehicleId;
use crate::protocol::{PlatformConfig, PlatformReport};
use crate::segment::SegmentMap;
use crate::vehicle::{CrowdVehicle, VehicleCore, VehicleExit, VehicleStep};
use crate::Result;
use crowdwifi_channel::RssReading;
use std::collections::BTreeMap;

/// The fleet-scale backend: the shared event loop with vehicle sessions
/// stepped in batches over a clamped worker pool.
#[derive(Debug, Clone, Copy)]
pub struct FleetTransport {
    workers: usize,
}

impl FleetTransport {
    /// A transport with the auto-detected worker budget (the
    /// `CROWDWIFI_THREADS` resolution rules, clamped to detected
    /// parallelism).
    pub fn new() -> Self {
        FleetTransport {
            workers: clamp_workers(0),
        }
    }

    /// Overrides the worker count. Like `CROWDWIFI_THREADS`, the
    /// request is clamped to the machine's detected parallelism —
    /// oversubscribing an event loop whose work units are pure compute
    /// only adds scheduling noise. `0` restores auto-detection.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = clamp_workers(workers);
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
        let batched = |links, vehicles| Batched::new(links, vehicles, self.workers);
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
        Ok(self.run_round_with_digest(segments, fleet, config, plan)?.0)
    }

    fn run_round_durable(
        &self,
        segments: SegmentMap,
        fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
        config: PlatformConfig,
        plan: &FaultPlan,
        wal: &mut dyn LogSink,
    ) -> Result<PlatformReport> {
        let batched = |links, vehicles| Batched::new(links, vehicles, self.workers);
        drive::round_durable(segments, fleet, config, plan, wal, batched)
    }
}

/// Resolves a requested worker count exactly the way the compute
/// pipeline resolves `CROWDWIFI_THREADS`: `0` defers to
/// [`crowdwifi_core::par::resolve_threads`] (env override included,
/// already clamped), and an explicit request is clamped to the detected
/// parallelism.
fn clamp_workers(requested: usize) -> usize {
    if requested == 0 {
        return crowdwifi_core::par::resolve_threads(0);
    }
    let detected = std::thread::available_parallelism().map_or(1, |n| n.get());
    requested.min(detected.max(1))
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

/// The fleet engine's stepping: deliver every queued frame, run one
/// [`compute_batch`] over the worker pool, absorb in vehicle-id order.
pub(super) struct Batched {
    links: Vec<Link>,
    cells: Vec<ComputeCell>,
    workers: usize,
}

impl Batched {
    pub(super) fn new(links: Vec<Link>, vehicles: Vec<Vehicle>, workers: usize) -> Self {
        let cells = vehicles
            .into_iter()
            .map(|(core, readings)| ComputeCell {
                core,
                readings: Some(readings),
                pending: Vec::new(),
                staged: Vec::new(),
            })
            .collect();
        Batched {
            links,
            cells,
            workers,
        }
    }

    /// Steps every cell on the pool, then absorbs the staged outcomes
    /// in vehicle-id order on the driver thread — the only place uplink
    /// sends and exits happen, which is what pins the server-side event
    /// order to the simulator's.
    fn tick(&mut self, segments: &SegmentMap) {
        compute_batch(&mut self.cells, segments, self.workers);
        for (link, cell) in self.links.iter_mut().zip(&mut self.cells) {
            for outcome in cell.staged.drain(..) {
                link.absorb(outcome);
            }
        }
    }
}

impl Sessions for Batched {
    fn start(&mut self, segments: &SegmentMap) {
        self.tick(segments);
    }

    fn pump(&mut self, segments: &SegmentMap) -> bool {
        let mut delivered = false;
        for (link, cell) in self.links.iter_mut().zip(&mut self.cells) {
            while let Some(frame) = link.next_frame() {
                delivered = true;
                if !link.exited() {
                    cell.pending.push(frame);
                }
            }
        }
        if delivered {
            self.tick(segments);
        }
        delivered
    }

    fn links(&self) -> &[Link] {
        &self.links
    }

    fn exits(self) -> BTreeMap<VehicleId, VehicleExit> {
        let cores = self.cells.iter().map(|c| &c.core);
        self.links
            .into_iter()
            .zip(cores)
            .map(|(l, c)| l.finish(c))
            .collect()
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
        // Built directly, so the worker counts skip `clamp_workers`:
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
        assert_eq!(clamp_workers(usize::MAX), detected);
        assert!(clamp_workers(0) >= 1);
        assert_eq!(clamp_workers(1), 1);
        let t = FleetTransport::new().with_workers(usize::MAX);
        assert_eq!(t.worker_budget(), detected);
    }
}
