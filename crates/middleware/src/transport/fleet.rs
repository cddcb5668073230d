//! The batched event-loop transport for fleet-scale rounds.
//!
//! [`FleetTransport`] multiplexes tens of thousands of simulated
//! vehicle sessions over a small worker pool instead of one OS thread
//! (or one inline drain) per vehicle. Each vehicle is a session state
//! machine split in two:
//!
//! * a **link half** on the driver thread — inbox queue, faulty uplink,
//!   recorded exit — which is where all `Rc`-backed queue plumbing and
//!   all fault-RNG consumption happens, keeping per-link fault streams
//!   in exactly the order the single-threaded simulator produces; and
//! * a **compute half** (the [`VehicleCore`] plus its staged step
//!   outcomes), which is `Send` and is fanned out across the worker
//!   pool in contiguous chunks each tick.
//!
//! A tick drains the server queue into the [`EventHost`], delivers
//! inbox traffic into per-vehicle pending batches, runs the compute
//! batch on the pool, then absorbs the staged outcomes **in vehicle-id
//! order** on the driver thread. Because absorption — the only place
//! uplink sends and exits happen — is serial and id-ordered, the server
//! sees the exact event sequence [`SimTransport`](super::SimTransport)
//! generates, and a same-seed round is byte-identical across the two
//! backends (state digest, fused map and deterministic projection
//! alike) for any worker count. Virtual time advances exactly as in
//! the simulator: only at quiescence, straight to the earliest armed
//! deadline.
//!
//! The server side is the same [`ServerCore`] the simulator drives, fusing per road segment in-line at round close; a durable
//! round wraps it in a [`DurableRound`]. The worker pool parallelises
//! the vehicle side only; the core stays single-threaded. Plain and
//! durable rounds run the same loop and differ only in the host handed
//! to `fleet_drive`.

use super::sim::{apply, Downlink, QueueSink, ServerQueue, Uplink};
use super::{panic_message, seal_report, vehicle_seed, EventHost, Transport};
use crate::durability::{DurableRound, LogSink};
use crate::fault::{FaultPlan, FaultTally, LinkDirection};
use crate::messages::{ToServer, ToVehicle, VehicleId};
use crate::protocol::{Event, PlatformConfig, PlatformReport, ServerCore, TimerId, VirtualInstant};
use crate::segment::SegmentMap;
use crate::vehicle::{CrowdVehicle, VehicleCore, VehicleExit, VehicleStep};
use crate::wire::{WireDigest, WireMessage};
use crate::{MiddlewareError, Result};
use crowdwifi_channel::RssReading;
use crowdwifi_obs::Registry;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

/// The fleet-scale backend: a batched event loop over a clamped worker
/// pool driving a [`ServerCore`].
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
    /// final [`state_digest`](ServerCore::state_digest) extended with a
    /// [`WireDigest`] over the binary uplink frames, for byte-for-byte
    /// comparison against
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
        let ids: Vec<VehicleId> = fleet.iter().map(|(v, _)| v.id()).collect();
        let mut core = ServerCore::new(segments.clone(), &ids, config, Registry::new())?;
        plan.validate()?;
        let tally = Arc::new(FaultTally::new());
        let mut wire = WireDigest::new();
        let report = fleet_drive(
            &mut core,
            segments,
            fleet,
            config,
            plan,
            tally,
            self.workers,
            &mut wire,
        )?;
        let digest = format!("{} | {}", core.state_digest(), wire.render());
        Ok((report, digest))
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
        let ids: Vec<VehicleId> = fleet.iter().map(|(v, _)| v.id()).collect();
        plan.validate()?;
        let tally = Arc::new(FaultTally::new());
        let mut host = DurableRound::new(
            segments.clone(),
            &ids,
            config,
            plan,
            wal,
            Arc::clone(&tally),
        )?;
        let mut wire = WireDigest::new();
        fleet_drive(
            &mut host,
            segments,
            fleet,
            config,
            plan,
            tally,
            self.workers,
            &mut wire,
        )
    }
}

/// Resolves a requested worker count exactly the way the compute
/// pipeline resolves `CROWDWIFI_THREADS` (PR 6): `0` defers to
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

/// A step outcome staged by the compute half, exactly what the
/// simulator's inline step produces: the vehicle's `Result`, or the
/// payload of a caught panic.
type StepOutcome = std::result::Result<Result<VehicleStep>, Box<dyn std::any::Any + Send>>;

/// The `Send` compute half of one vehicle session: the pure state
/// machine, its pending downlink batch and the outcomes it staged this
/// tick. Workers touch nothing else.
struct ComputeCell {
    core: VehicleCore,
    readings: Vec<RssReading>,
    pending: Vec<Vec<u8>>,
    staged: Vec<StepOutcome>,
    start_pending: bool,
    /// Mirrors "no exit recorded yet" from the link half; an inactive
    /// cell absorbs pending messages silently, like the simulator's
    /// post-exit inbox drain.
    active: bool,
}

impl ComputeCell {
    /// Runs this cell's share of the tick: the initial `start` if still
    /// owed, then every pending message in order. After an exit (or
    /// failure, or panic) is staged, the remaining batch is absorbed
    /// silently — the same messages the simulator's drain would skip.
    fn step(&mut self, segments: &SegmentMap) {
        if self.start_pending {
            self.start_pending = false;
            if self.active {
                let core = &mut self.core;
                let readings = std::mem::take(&mut self.readings);
                self.staged
                    .push(catch_unwind(AssertUnwindSafe(|| core.start(&readings))));
            }
        }
        if !self.active {
            self.pending.clear();
            return;
        }
        let mut exited = self
            .staged
            .last()
            .is_some_and(|out| !matches!(out, Ok(Ok(VehicleStep::Continue(_)))));
        for bytes in std::mem::take(&mut self.pending) {
            if exited {
                continue;
            }
            // A garbled downlink frame stages the decode error, which
            // the link half reports as `ToServer::Failed` — identical
            // to the simulator's inline drain.
            let out = match ToVehicle::from_frame(&bytes) {
                Ok(msg) => {
                    let core = &mut self.core;
                    catch_unwind(AssertUnwindSafe(|| Ok(core.on_message(msg, segments))))
                }
                Err(e) => Ok(Err(e)),
            };
            exited = !matches!(out, Ok(Ok(VehicleStep::Continue(_))));
            self.staged.push(out);
        }
    }
}

/// The link half of one vehicle session; driver-thread only (the inbox
/// and uplink queues are `Rc`-shared with the fault layer).
struct LinkCell {
    id: VehicleId,
    inbox: Rc<RefCell<VecDeque<Vec<u8>>>>,
    uplink: Option<Uplink>,
    exit: Option<VehicleExit>,
}

impl LinkCell {
    /// Folds one staged outcome into the session lifecycle, mirroring
    /// the simulator's `absorb`/`fail` pair: continues dispatch uplink
    /// messages, exits close the uplink, failures report then exit.
    fn absorb(&mut self, outcome: StepOutcome, active: &mut bool) {
        let step = match outcome {
            Ok(Ok(step)) => step,
            Ok(Err(e)) => return self.fail(e.to_string(), active),
            Err(payload) => return self.fail(format!("panic: {}", panic_message(payload)), active),
        };
        match step {
            VehicleStep::Continue(msgs) => {
                if let Some(uplink) = self.uplink.as_mut() {
                    for m in msgs {
                        uplink.send((self.id, m.to_frame()));
                    }
                }
            }
            VehicleStep::Exit(exit) => {
                self.exit = Some(exit);
                self.uplink = None;
                *active = false;
            }
        }
    }

    fn fail(&mut self, reason: String, active: &mut bool) {
        if let Some(uplink) = self.uplink.as_mut() {
            let frame = ToServer::Failed(reason.clone()).to_frame();
            uplink.send((self.id, frame));
        }
        self.exit = Some(VehicleExit::Failed(reason));
        self.uplink = None;
        *active = false;
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

/// Absorbs every staged outcome in vehicle-id order on the driver
/// thread — the only place uplink sends and exits happen, which is what
/// pins the server-side event order to the simulator's.
fn absorb_batch(links: &mut [LinkCell], cells: &mut [ComputeCell]) {
    for (link, cell) in links.iter_mut().zip(cells.iter_mut()) {
        for outcome in cell.staged.drain(..) {
            link.absorb(outcome, &mut cell.active);
        }
    }
}

/// The fleet event loop, generic over the server-shaped host exactly
/// like the simulator's driver; see the [module docs](self) for the
/// tick structure and the equivalence argument.
#[allow(clippy::too_many_lines, clippy::too_many_arguments)]
fn fleet_drive<H: EventHost>(
    host: &mut H,
    segments: SegmentMap,
    fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
    config: PlatformConfig,
    plan: &FaultPlan,
    tally: Arc<FaultTally>,
    workers: usize,
    wire: &mut WireDigest,
) -> Result<PlatformReport> {
    let server_queue: ServerQueue = Rc::new(RefCell::new(VecDeque::new()));
    // Seeds follow fleet order (matching the simulator); the
    // session arrays are then sorted into vehicle-id order, the order
    // ticks absorb in.
    let mut sessions: Vec<(LinkCell, ComputeCell)> = Vec::with_capacity(fleet.len());
    let mut downlinks: BTreeMap<VehicleId, Downlink> = BTreeMap::new();
    for (i, (vehicle, readings)) in fleet.into_iter().enumerate() {
        let id = vehicle.id();
        let inbox = Rc::new(RefCell::new(VecDeque::new()));
        downlinks.insert(
            id,
            plan.sender_tallied(
                QueueSink(Rc::clone(&inbox)),
                id,
                LinkDirection::ToVehicle,
                Some(Arc::clone(&tally)),
            ),
        );
        let uplink = plan.sender_tallied(
            QueueSink(Rc::clone(&server_queue)),
            id,
            LinkDirection::ToServer,
            Some(Arc::clone(&tally)),
        );
        sessions.push((
            LinkCell {
                id,
                inbox,
                uplink: Some(uplink),
                exit: None,
            },
            ComputeCell {
                core: VehicleCore::new(vehicle, vehicle_seed(config.seed, i), plan.misbehavior(id)),
                readings,
                pending: Vec::new(),
                staged: Vec::new(),
                start_pending: true,
                active: true,
            },
        ));
    }
    sessions.sort_by_key(|(link, _)| link.id);
    let (mut links, mut cells): (Vec<LinkCell>, Vec<ComputeCell>) = sessions.into_iter().unzip();

    let mut now = VirtualInstant::ZERO;
    let mut timers: BTreeMap<TimerId, VirtualInstant> = BTreeMap::new();
    let mut outcome: Option<Result<PlatformReport>> = None;

    apply(host.begin()?, &mut downlinks, &mut timers, &mut outcome);

    // Every vehicle runs its drive "at once" (virtual time zero): one
    // batched start tick.
    compute_batch(&mut cells, &segments, workers);
    absorb_batch(&mut links, &mut cells);

    loop {
        // Pump until every queue is empty: server traffic in queue
        // order, then one delivery + compute + absorb tick.
        loop {
            let mut progressed = false;
            loop {
                let next = server_queue.borrow_mut().pop_front();
                let Some((from, bytes)) = next else { break };
                progressed = true;
                wire.absorb(&bytes);
                apply(
                    host.handle(Event::uplink(now, from, &bytes))?,
                    &mut downlinks,
                    &mut timers,
                    &mut outcome,
                );
            }
            let mut delivered = false;
            for (link, cell) in links.iter_mut().zip(cells.iter_mut()) {
                loop {
                    let msg = link.inbox.borrow_mut().pop_front();
                    let Some(msg) = msg else { break };
                    delivered = true;
                    cell.pending.push(msg);
                }
            }
            if delivered {
                progressed = true;
                compute_batch(&mut cells, &segments, workers);
                absorb_batch(&mut links, &mut cells);
            }
            if !progressed {
                break;
            }
        }

        if outcome.is_some() {
            break;
        }

        // Quiescent: all links gone means the server sees a disconnect
        // (retried a bounded number of times for crash-eating durable
        // hosts); otherwise jump the clock to the earliest deadline.
        if links.iter().all(|link| link.uplink.is_none()) {
            for attempt in 0.. {
                apply(
                    host.handle(Event::LinksClosed { now })?,
                    &mut downlinks,
                    &mut timers,
                    &mut outcome,
                );
                if outcome.is_some() {
                    break;
                }
                if attempt >= 8 {
                    return Err(MiddlewareError::Crowd(
                        "simulation stalled: links closed but round undecided".to_string(),
                    ));
                }
            }
            continue;
        }
        let Some(&next) = timers.values().min() else {
            return Err(MiddlewareError::Crowd(
                "simulation stalled: no traffic and no armed deadlines".to_string(),
            ));
        };
        if next > now {
            now = next;
        }
        let mut due: Vec<(VirtualInstant, TimerId)> = timers
            .iter()
            .filter(|&(_, &at)| at <= now)
            .map(|(&t, &at)| (at, t))
            .collect();
        due.sort_unstable();
        for (_, timer) in due {
            timers.remove(&timer);
            if outcome.is_some() {
                continue;
            }
            apply(
                host.handle(Event::TimerFired { now, timer })?,
                &mut downlinks,
                &mut timers,
                &mut outcome,
            );
        }
    }

    let report = outcome.expect("round outcome decided")?;

    // Round complete: dropping the downlinks flushes delayed traffic
    // into the inboxes; one final tick lets every vehicle see its
    // `Done`, then survivors classify the hang-up.
    drop(downlinks);
    for (link, cell) in links.iter_mut().zip(cells.iter_mut()) {
        loop {
            let msg = link.inbox.borrow_mut().pop_front();
            let Some(msg) = msg else { break };
            cell.pending.push(msg);
        }
    }
    compute_batch(&mut cells, &segments, workers);
    absorb_batch(&mut links, &mut cells);
    let exits: BTreeMap<VehicleId, VehicleExit> = links
        .iter_mut()
        .zip(cells.iter_mut())
        .map(|(link, cell)| {
            let exit = link
                .exit
                .take()
                .unwrap_or_else(|| cell.core.on_disconnect());
            (link.id, exit)
        })
        .collect();
    host.finish()?;
    Ok(seal_report(report, exits, &host.registry(), &tally))
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
