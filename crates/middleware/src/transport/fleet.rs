//! The batched-stepping transport for fleet-scale rounds.
//!
//! [`FleetTransport`] runs the simulator's event loop
//! ([`super::drive`]) and differs only in how vehicles step. A round's
//! fleet is sensed on the `crowdwifi_core::par` pool first. Each
//! session is split in two: its [`Link`] (faulty uplink, recorded exit)
//! stays with the driver, where every fault-RNG draw happens, and its
//! `Send` compute half, a [`Cell`] (the vehicle's state machine, its
//! pending frames and its staged outcomes), steps on the same pool.
//!
//! A tick routes the drained downlink queue into the pending batches,
//! steps every cell with `par_for_each_mut` (the caller takes part, and
//! workers come from the pool's one budget, so a tick runs inline while
//! a campaign's sensing job holds the spare core), then absorbs the
//! staged outcomes **in vehicle-id order** on the driver thread — the
//! only place uplink sends and exits happen. The server thus sees the
//! exact event sequence [`SimTransport`](super::SimTransport)
//! generates, and a same-seed round is byte-identical across the two
//! backends for any worker count. Only
//! [`FleetTransport::run_round_with_digest`] builds the equivalence
//! digest; [`Transport`] rounds skip it.

use super::drive::{self, session_of, step_frame, Backend, Cell, Frame, Link, Stepping};
use super::Transport;
use crate::fault::FaultPlan;
use crate::protocol::{PlatformConfig, PlatformReport};
use crate::segment::SegmentMap;
use crate::vehicle::{CrowdVehicle, VehicleStep};
use crate::Result;
use crowdwifi_channel::RssReading;
use crowdwifi_core::par::par_for_each_mut;

/// The fleet-scale backend: the shared event loop with vehicle sessions
/// sensed and stepped in batches on a clamped number of threads.
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
    /// scheduling noise. `0` restores auto-detection. The count sizes
    /// a round's sensing and each pump; a campaign's background sensing
    /// job takes `workers - 1` threads, but at least one, beside the
    /// caller serving the previous round.
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
        drive::round_with_digest(segments, fleet, config, plan, self.stepping())
    }
}

impl Default for FleetTransport {
    fn default() -> Self {
        FleetTransport::new()
    }
}

impl Backend for FleetTransport {
    fn stepping(&self) -> Stepping {
        Stepping::Batched(self.workers)
    }
}

impl Transport for FleetTransport {}

/// The fleet engine's stepping: route every drained frame to its
/// cell, step the cells on the pool, then absorb the staged outcomes
/// in vehicle-id order on the driver thread — the only place uplink
/// sends and exits happen, which is what pins the server-side event
/// order to the simulator's.
pub(super) fn pump(
    links: &mut [Link],
    cells: &mut [Cell],
    frames: Vec<Frame>,
    map: &SegmentMap,
    workers: usize,
) {
    if frames.is_empty() {
        return;
    }
    for (id, frame) in frames {
        let i = session_of(links, id);
        if !links[i].exited() {
            cells[i].pending.push(frame);
        }
    }
    par_for_each_mut(cells, workers, |cell| step(cell, map));
    for (link, cell) in links.iter_mut().zip(cells) {
        for outcome in cell.staged.drain(..) {
            link.absorb(outcome);
        }
    }
}

/// Runs one cell's share of a tick: every pending frame in order. Once
/// an exit (or failure, or panic) is staged, the rest of the batch is
/// absorbed silently — the frames the inline stepping would skip.
fn step(cell: &mut Cell, map: &SegmentMap) {
    for frame in std::mem::take(&mut cell.pending) {
        let out = step_frame(&mut cell.core, &frame, map);
        let running = matches!(out, Ok(Ok(VehicleStep::Continue(_))));
        cell.staged.push(out);
        if !running {
            break;
        }
    }
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
    fn every_worker_count_matches_the_simulator_byte_for_byte() {
        // Built directly, so the worker counts skip the transport's
        // clamp (the pool still clamps what it runs).
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
