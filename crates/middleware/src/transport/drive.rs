//! The one round driver both transports share, split in two stages.
//!
//! **Sensing** is pure: [`Cell::sense`] runs one vehicle's estimator over its
//! drive and builds its upload (or fires its scheduled crash or stall,
//! or catches its panic). It touches no link and no server, so it may
//! run on any thread and ahead of the round that serves it: a campaign
//! senses round r+1 as a background [`Job`] while round r is served.
//!
//! **Serving** is everything else and runs on the caller's thread: the
//! links behind the [`crate::fault`] layer and their vehicle ends, the
//! virtual-clock event loop around an [`EventHost`], the pumps, and
//! report sealing. A backend supplies only its [`Stepping`], so the
//! sim-vs-fleet digest comparison isolates exactly that.
//!
//! There is one queue each way: uplinks push `(sender, frame)` into
//! the server's, downlinks `(recipient, frame)` into the fleet's, which
//! the loop drains whole into the [`Stepping`]'s pump. Sensed uploads reach
//! the uplinks in vehicle-id order when the round opens, however the
//! sensing was scheduled. Only [`round_with_digest`] renders the
//! server's state digest.
//!
//! The loop keeps no timers: the server owns its deadlines. Time
//! advances only when both queues are empty, directly to the host's
//! [`next_deadline`](EventHost::next_deadline), never by sleeping, and
//! one [`Event::Deadline`] then expires everyone due. Fleet order, queue
//! order and per-link fault RNG streams are all fixed by the seeds, so
//! one run is one deterministic replay.

use super::{fleet, sim, EventHost};
use crate::durability::{DurableRound, LogSink};
use crate::fault::{FaultPlan, FaultTally, FaultySender, LinkDirection, MessageSink};
use crate::messages::{ToServer, ToVehicle, VehicleId};
use crate::protocol::{Action, Event, PlatformConfig, PlatformReport, ServerCore, VirtualInstant};
use crate::segment::SegmentMap;
use crate::vehicle::{CrowdVehicle, VehicleCore, VehicleExit, VehicleStep};
use crate::wire::{WireDigest, WireMessage};
use crate::{MiddlewareError, Result};
use crowdwifi_channel::RssReading;
use crowdwifi_core::par::Job;
use crowdwifi_obs::Registry;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

/// How a backend steps its vehicles' downlink traffic — the one thing
/// the two transports do differently.
#[derive(Debug, Clone, Copy)]
pub enum Stepping {
    /// Each vehicle, in id order, steps each queued message and sends
    /// its uplink before the next vehicle steps (the simulator).
    Inline,
    /// The queued messages are delivered first, then every vehicle
    /// steps as one batch on this many threads (the fleet engine).
    Batched(usize),
}

impl Stepping {
    /// Threads a batch of this backend's vehicles may use, the caller's
    /// included.
    pub(super) fn workers(self) -> usize {
        match self {
            Stepping::Inline => 1,
            Stepping::Batched(workers) => workers,
        }
    }

    /// Steps the vehicles through `frames`, the drained downlink queue
    /// in send order (an exited vehicle absorbs its silently). `cells`
    /// follow the id-sorted `links`, and every uplink send happens on
    /// the driver thread in that order, so a backend is free in how it
    /// computes steps but not in the event sequence the server sees.
    fn pump(self, links: &mut [Link], cells: &mut [Cell], frames: Vec<Frame>, map: &SegmentMap) {
        match self {
            Stepping::Inline => sim::pump(links, cells, frames, map),
            Stepping::Batched(workers) => fleet::pump(links, cells, frames, map, workers),
        }
    }
}

/// What a transport backend tells the shared driver. It lives in this
/// private module, so [`super::Transport`] is sealed: only the crate's
/// backends implement it.
pub trait Backend {
    /// How the backend steps its vehicles.
    fn stepping(&self) -> Stepping;
}

/// A [`MessageSink`] backed by a shared in-memory queue: the stand-in
/// for a network link. Never disconnects.
struct QueueSink<T>(Rc<RefCell<Vec<T>>>);

impl<T> MessageSink<T> for QueueSink<T> {
    fn deliver(&mut self, msg: T) {
        self.0.borrow_mut().push(msg);
    }
}

/// A raw binary frame tagged with the vehicle at the link's far end
/// (the sender of an uplink frame, the recipient of a downlink one).
pub(super) type Frame = (VehicleId, Vec<u8>);

// The links carry raw binary frames, not typed messages: encoding
// happens at the sender, decoding at the receiver, so the bytes the
// fault layer drops, duplicates and delays are the real wire bytes.
type LinkSender = FaultySender<Frame, QueueSink<Frame>>;

/// What one vehicle step produced: the state machine's `Result`, or
/// the payload of a caught panic.
pub(super) type StepOutcome = std::thread::Result<Result<VehicleStep>>;

/// The compute half of one vehicle session, whose link end is a
/// [`Link`]: the pure state machine, the drive it has yet to sense, its
/// pending downlink frames and the outcomes it staged for the driver.
/// Sensing and stepping touch nothing else, so cells may be computed on
/// any thread.
pub(super) struct Cell {
    pub(super) core: VehicleCore,
    readings: Vec<RssReading>,
    pub(super) pending: Vec<Vec<u8>>,
    pub(super) staged: Vec<StepOutcome>,
}

impl Cell {
    /// Senses: runs the start step over the drive, with a panic caught
    /// as a failed step, and stages it. Pure — the outcome depends on
    /// nothing but the vehicle — so it may run ahead of the round that
    /// serves it.
    pub(super) fn sense(&mut self) {
        let readings = std::mem::take(&mut self.readings);
        let core = &mut self.core;
        let start = catch_unwind(AssertUnwindSafe(|| core.start(&readings)));
        self.staged.push(start);
    }
}

/// Sets one round's fleet up for sensing: returns the vehicle ids in
/// fleet order (the server registers them so) and the vehicles' cells
/// in id order, each seeded by its fleet position and scripted by the
/// plan. The cells are built as they are consumed, with no
/// intermediate copy of the fleet.
pub(super) fn cells(
    mut fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
    seed: u64,
    plan: &FaultPlan,
) -> (Vec<VehicleId>, impl Iterator<Item = Cell> + '_) {
    let ids: Vec<VehicleId> = fleet.iter().map(|(v, _)| v.id()).collect();
    let mut seeds: Vec<(VehicleId, u64)> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| (id, vehicle_seed(seed, i)))
        .collect();
    // Both sorts are stable, so even a repeated id keeps its seed.
    if !seeds.is_sorted_by_key(|&(id, _)| id) {
        seeds.sort_by_key(|&(id, _)| id);
        fleet.sort_by_key(|(v, _)| v.id());
    }
    let cells = fleet
        .into_iter()
        .zip(seeds)
        .map(|((vehicle, readings), (id, seed))| Cell {
            core: VehicleCore::new(vehicle, seed, plan.misbehavior(id)),
            readings,
            pending: Vec::new(),
            staged: Vec::new(),
        });
    (ids, cells)
}

/// Senses every cell on `threads` threads, the caller's included.
pub(super) fn sense_all(cells: impl IntoIterator<Item = Cell>, threads: usize) -> Vec<Cell> {
    Job::spawn(cells, threads.saturating_sub(1), Cell::sense).join()
}

/// Decodes one downlink frame and steps the vehicle on it. A frame the
/// fault layer garbled fails the vehicle with the decode error.
pub(super) fn step_frame(
    core: &mut VehicleCore,
    frame: &[u8],
    segments: &SegmentMap,
) -> StepOutcome {
    match ToVehicle::from_frame(frame) {
        Ok(msg) => catch_unwind(AssertUnwindSafe(|| Ok(core.on_message(msg, segments)))),
        Err(e) => Ok(Err(e)),
    }
}

/// The vehicle end of one link: its (noisy) uplink and its recorded
/// exit. The uplink is dropped the moment the vehicle exits, flushing
/// any delayed messages. The driver owns these, in vehicle-id order,
/// on its thread: the server's queue is `Rc`-shared with the fault
/// layer.
pub(super) struct Link {
    id: VehicleId,
    uplink: Option<LinkSender>,
    exit: Option<VehicleExit>,
}

/// The position of vehicle `id` in the id-ordered `links`.
pub(super) fn session_of(links: &[Link], id: VehicleId) -> usize {
    links
        .binary_search_by_key(&id, |link| link.id)
        .expect("downlink frames go to vehicles of the round")
}

impl Link {
    /// Whether the vehicle has exited (and its uplink closed).
    pub(super) fn exited(&self) -> bool {
        self.exit.is_some()
    }

    /// Folds one step (or its failure) into the vehicle's lifecycle:
    /// dispatch uplink messages, or record the exit and close the
    /// uplink.
    pub(super) fn absorb(&mut self, outcome: StepOutcome) {
        let step = match outcome {
            Ok(Ok(step)) => step,
            Ok(Err(e)) => return self.fail(e.to_string()),
            Err(payload) => return self.fail(format!("panic: {}", panic_message(payload))),
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
            }
        }
    }

    /// The vehicle's error path: report the failure to the server, then
    /// exit.
    fn fail(&mut self, reason: String) {
        if let Some(uplink) = self.uplink.as_mut() {
            let frame = ToServer::Failed(reason.clone()).to_frame();
            uplink.send((self.id, frame));
        }
        self.exit = Some(VehicleExit::Failed(reason));
        self.uplink = None;
    }

    /// How the vehicle's round ended: its recorded exit, or else how a
    /// still-running `core` classifies the hang-up.
    fn finish(self, core: &VehicleCore) -> (VehicleId, VehicleExit) {
        let exit = self.exit.unwrap_or_else(|| core.on_disconnect());
        (self.id, exit)
    }
}

/// Serves one round of the fleet `ids` on a bare [`ServerCore`] and
/// returns the report with the final core and a [`WireDigest`] over the
/// binary uplink frames the server received. `sensed` yields the
/// id-ordered sensed cells once the config and plan have passed
/// validation.
pub(super) fn round(
    segments: SegmentMap,
    ids: &[VehicleId],
    config: PlatformConfig,
    plan: &FaultPlan,
    stepping: Stepping,
    sensed: impl FnOnce() -> Vec<Cell>,
) -> Result<(PlatformReport, ServerCore, WireDigest)> {
    let mut core = ServerCore::new(segments.clone(), ids, config, Registry::new())?;
    plan.validate()?;
    let tally = Arc::new(FaultTally::new());
    let (report, wire) = drive(&mut core, segments, sensed(), plan, tally, stepping)?;
    Ok((report, core, wire))
}

/// Senses and serves one round, then renders the equivalence digest:
/// the core's final [`state_digest`](ServerCore::state_digest), extended
/// with the rendered [`WireDigest`].
pub(super) fn round_with_digest(
    segments: SegmentMap,
    fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
    config: PlatformConfig,
    plan: &FaultPlan,
    stepping: Stepping,
) -> Result<(PlatformReport, String)> {
    let (ids, cells) = cells(fleet, config.seed, plan);
    let sensed = || sense_all(cells, stepping.workers());
    let (report, core, wire) = round(segments, &ids, config, plan, stepping, sensed)?;
    Ok((
        report,
        format!("{} | {}", core.state_digest(), wire.render()),
    ))
}

/// Serves one crash-consistent round: the server is a [`DurableRound`]
/// write-ahead logging into `wal`. `sensed` as in [`round`].
pub(super) fn round_durable(
    segments: SegmentMap,
    ids: &[VehicleId],
    config: PlatformConfig,
    plan: &FaultPlan,
    wal: &mut dyn LogSink,
    stepping: Stepping,
    sensed: impl FnOnce() -> Vec<Cell>,
) -> Result<PlatformReport> {
    plan.validate()?;
    let tally = Arc::new(FaultTally::new());
    let mut host = DurableRound::new(segments.clone(), ids, config, plan, wal, Arc::clone(&tally))?;
    Ok(drive(&mut host, segments, sensed(), plan, tally, stepping)?.0)
}

/// The driver's server end: the (faulty) downlinks and, once decided,
/// the round's outcome.
#[derive(Default)]
struct ServerEnd {
    downlinks: BTreeMap<VehicleId, LinkSender>,
    outcome: Option<Result<PlatformReport>>,
}

impl ServerEnd {
    /// Folds one batch of host actions in: sends go to the downlinks,
    /// terminal actions into `outcome`.
    fn apply(&mut self, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    if let Some(link) = self.downlinks.get_mut(&to) {
                        link.send((to, msg.to_frame()));
                    }
                }
                Action::Completed(report) => self.outcome = Some(Ok(*report)),
                Action::Failed(e) => self.outcome = Some(Err(e)),
            }
        }
    }
}

/// The event loop, generic over the server-shaped host so plain and
/// durable (crash-injecting) rounds share it. The id-ordered sensed
/// `cells` open the round with their start steps; `stepping` then pumps
/// their downlink traffic. Every uplink frame the server receives is
/// absorbed into the returned [`WireDigest`] before it is decoded, so
/// the digest covers the raw bytes in arrival order.
fn drive<H: EventHost>(
    host: &mut H,
    segments: SegmentMap,
    mut cells: Vec<Cell>,
    plan: &FaultPlan,
    tally: Arc<FaultTally>,
    stepping: Stepping,
) -> Result<(PlatformReport, WireDigest)> {
    let server_queue = Rc::new(RefCell::new(Vec::new()));
    let fleet_queue = Rc::new(RefCell::new(Vec::new()));
    let mut server = ServerEnd::default();
    let mut links = Vec::with_capacity(cells.len());
    for cell in &mut cells {
        let id = cell.core.id();
        let tallied = || Some(Arc::clone(&tally));
        let downlink = QueueSink(Rc::clone(&fleet_queue));
        let downlink = plan.sender_tallied(downlink, id, LinkDirection::ToVehicle, tallied());
        server.downlinks.insert(id, downlink);
        let uplink = QueueSink(Rc::clone(&server_queue));
        let uplink = plan.sender_tallied(uplink, id, LinkDirection::ToServer, tallied());
        let mut link = Link {
            id,
            uplink: Some(uplink),
            exit: None,
        };
        for start in cell.staged.drain(..) {
            link.absorb(start);
        }
        links.push(link);
    }

    let mut now = VirtualInstant::ZERO;
    let mut wire = WireDigest::new();

    loop {
        // Pump until both queues are empty: uplink traffic reaches the
        // host in queue order, then the sessions step the downlinks.
        loop {
            let uplinks = server_queue.take();
            let progressed = !uplinks.is_empty();
            for (from, bytes) in uplinks {
                wire.absorb(&bytes);
                server.apply(host.handle(Event::uplink(now, from, &bytes))?);
            }
            let frames = fleet_queue.take();
            if !progressed && frames.is_empty() {
                break;
            }
            stepping.pump(&mut links, &mut cells, frames, &segments);
        }

        if server.outcome.is_some() {
            break;
        }

        // Quiescent. If every uplink is closed the server would see a
        // disconnect; otherwise jump the clock to the next deadline.
        if links.iter().all(Link::exited) {
            // A crash-injecting host may consume the disconnect event
            // itself (the crash eats it), so retry a bounded number of
            // times — like a supervisor restarting the process and the
            // runtime re-reporting the closed links.
            for attempt in 0.. {
                server.apply(host.handle(Event::LinksClosed { now })?);
                if server.outcome.is_some() {
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
        // A deadline event a crash ate stays due: the recovered server
        // still reports it, so the next pass re-sends it.
        let Some(next) = host.next_deadline() else {
            return Err(MiddlewareError::Crowd(
                "simulation stalled: no traffic and no armed deadlines".to_string(),
            ));
        };
        now = now.max(next);
        server.apply(host.handle(Event::Deadline { now })?);
    }

    let report = server.outcome.take().expect("round outcome decided")?;

    // Round complete: dropping the downlinks flushes delayed traffic
    // into the queue; one last pump lets every vehicle see its `Done`,
    // then survivors classify the hang-up.
    drop(server);
    stepping.pump(&mut links, &mut cells, fleet_queue.take(), &segments);
    let exits = links.into_iter().zip(&cells);
    let exits = exits.map(|(link, cell)| link.finish(&cell.core)).collect();
    host.finish()?;
    Ok((seal_report(report, exits, &host.registry(), &tally), wire))
}

/// The RNG seed of the `i`-th vehicle in a round seeded with `base`:
/// `base + i + 1`, wrapping, so every base seed is valid.
fn vehicle_seed(base: u64, i: usize) -> u64 {
    base.wrapping_add(i as u64).wrapping_add(1)
}

/// Extracts a readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload.downcast_ref::<&str>().map(|s| s.to_string());
    text.or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// End-of-round sealing: record the vehicle-side exits, fold the
/// observed fault totals into the round's counters, and embed the final
/// metric snapshot.
fn seal_report(
    mut report: PlatformReport,
    exits: BTreeMap<VehicleId, VehicleExit>,
    registry: &Registry,
    tally: &FaultTally,
) -> PlatformReport {
    report.exits = exits;
    for (name, count) in [
        ("platform.faults.dropped", tally.dropped()),
        ("platform.faults.duplicated", tally.duplicated()),
        ("platform.faults.delayed", tally.delayed()),
        ("platform.faults.server_crashes", tally.server_crashes()),
        ("platform.faults.torn_wal_tails", tally.torn_wal_tails()),
    ] {
        registry.counter(name).add(count);
    }
    report.metrics = registry.snapshot();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPoint;
    use crate::vehicle::Behavior;
    use crowdwifi_channel::PathLossModel;
    use crowdwifi_core::{OnlineCs, OnlineCsConfig};
    use crowdwifi_geo::{Point, Rect};

    /// A server that never decides the round and arms no deadline.
    struct Undecided;

    impl EventHost for Undecided {
        fn handle(&mut self, _event: Event) -> Result<Vec<Action>> {
            Ok(Vec::new())
        }

        fn next_deadline(&self) -> Option<VirtualInstant> {
            None
        }

        fn registry(&self) -> Registry {
            Registry::new()
        }
    }

    /// Runs three vehicles with empty drives against [`Undecided`],
    /// stepped inline and batched, and returns each run's error.
    fn stall(plan: &FaultPlan) -> [String; 2] {
        let run = |stepping: Stepping| {
            let area = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)).unwrap();
            let segments = SegmentMap::new(area, 50.0);
            let fleet = (0..3u32)
                .map(|v| {
                    let model = PathLossModel::uci_campus();
                    let estimator = OnlineCs::new(OnlineCsConfig::default(), model).unwrap();
                    let vehicle = CrowdVehicle::new(VehicleId(v), estimator, Behavior::Honest);
                    (vehicle, Vec::new())
                })
                .collect();
            let sensed = sense_all(cells(fleet, 1, plan).1, stepping.workers());
            let tally = Arc::new(FaultTally::new());
            let result = drive(&mut Undecided, segments, sensed, plan, tally, stepping);
            match result.map(drop) {
                Err(MiddlewareError::Crowd(msg)) => msg,
                other => panic!("expected a stalled round, got {other:?}"),
            }
        };
        [run(Stepping::Inline), run(Stepping::Batched(2))]
    }

    #[test]
    fn a_fleet_that_all_crashed_stalls_with_its_links_closed() {
        let plan = (0..3).fold(FaultPlan::none(), |plan, v| {
            plan.crash(VehicleId(v), FaultPoint::Sense)
        });
        for msg in stall(&plan) {
            assert!(msg.contains("links closed but round undecided"), "{msg}");
        }
    }

    #[test]
    fn a_caught_panic_fails_the_vehicle_and_tells_the_server() {
        let queue = Rc::new(RefCell::new(Vec::new()));
        let sink = QueueSink(Rc::clone(&queue));
        let (id, direction) = (VehicleId(3), LinkDirection::ToServer);
        let uplink = FaultPlan::none().sender_tallied(sink, id, direction, None);
        let mut link = Link {
            id,
            uplink: Some(uplink),
            exit: None,
        };
        link.absorb(Err(Box::new("estimator blew up")));
        let reason = "panic: estimator blew up".to_string();
        assert_eq!(link.exit, Some(VehicleExit::Failed(reason.clone())));
        assert!(link.uplink.is_none(), "the uplink closes with the exit");
        let failed = ToServer::Failed(reason).to_frame();
        assert_eq!(queue.take(), vec![(id, failed)]);
    }

    #[test]
    fn an_open_fleet_with_no_deadline_stalls() {
        for msg in stall(&FaultPlan::none()) {
            assert!(msg.contains("no traffic and no armed deadlines"), "{msg}");
        }
    }
}
