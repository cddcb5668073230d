//! The one round driver both transports share.
//!
//! Everything about a round except how vehicle sessions step lives
//! here: the links behind the [`crate::fault`] layer and their vehicle
//! ends, session setup, the virtual-clock event loop around an
//! [`EventHost`], and report sealing. A backend supplies only a
//! [`Sessions`] implementation, so the sim-vs-fleet digest comparison
//! isolates exactly that stepping.
//!
//! There is one queue each way: uplinks push `(sender, frame)` into
//! the server's, downlinks `(recipient, frame)` into the fleet's, which
//! the loop drains whole into [`Sessions::pump`]. Only
//! [`round_with_digest`] renders the server's state digest.
//!
//! Time advances only when both queues are empty, directly to the
//! earliest armed deadline, never by sleeping. Fleet order, queue order
//! and per-link fault RNG streams are all fixed by the seeds, so one
//! run is one deterministic replay.

use super::EventHost;
use crate::durability::{DurableRound, LogSink};
use crate::fault::{FaultPlan, FaultTally, FaultySender, LinkDirection, MessageSink};
use crate::messages::{ToServer, ToVehicle, VehicleId};
use crate::protocol::{
    Action, Event, PlatformConfig, PlatformReport, ServerCore, TimerId, VirtualInstant,
};
use crate::segment::SegmentMap;
use crate::vehicle::{CrowdVehicle, VehicleCore, VehicleExit, VehicleStep};
use crate::wire::{WireDigest, WireMessage};
use crate::{MiddlewareError, Result};
use crowdwifi_channel::RssReading;
use crowdwifi_obs::Registry;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;

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

/// Runs a vehicle's drive, catching a panic as a failed step.
pub(super) fn step_start(core: &mut VehicleCore, readings: &[RssReading]) -> StepOutcome {
    catch_unwind(AssertUnwindSafe(|| core.start(readings)))
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

/// A vehicle's pure state machine and the drive it has yet to sense:
/// the compute side of a session, whose link end is a [`Link`].
pub(super) type Vehicle = (VehicleCore, Vec<RssReading>);

/// How a backend steps its vehicles — the only thing the two
/// transports do differently. Vehicles are held in the order of the
/// id-sorted `links`, and every uplink send happens on the driver
/// thread in that order, so a backend is free in how it computes steps
/// but not in the event sequence the server sees.
pub(super) trait Sessions {
    /// Runs every vehicle's drive "at once" (virtual time zero).
    fn start(&mut self, links: &mut [Link], segments: &SegmentMap);

    /// Steps every vehicle through its frames in `frames`, the drained
    /// downlink queue in send order (an exited vehicle absorbs its
    /// silently).
    fn pump(&mut self, links: &mut [Link], frames: Vec<Frame>, segments: &SegmentMap);

    /// The state machine of the `i`-th vehicle.
    fn core(&self, i: usize) -> &VehicleCore;
}

/// Runs one round on a bare [`ServerCore`] and returns the report
/// with the final core and a [`WireDigest`] over the binary uplink
/// frames the server received.
pub(super) fn round<S: Sessions>(
    segments: SegmentMap,
    fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
    config: PlatformConfig,
    plan: &FaultPlan,
    open: impl FnOnce(Vec<Vehicle>) -> S,
) -> Result<(PlatformReport, ServerCore, WireDigest)> {
    let ids: Vec<VehicleId> = fleet.iter().map(|(v, _)| v.id()).collect();
    let mut core = ServerCore::new(segments.clone(), &ids, config, Registry::new())?;
    plan.validate()?;
    let tally = Arc::new(FaultTally::new());
    let (report, wire) = drive(&mut core, segments, fleet, config.seed, plan, tally, open)?;
    Ok((report, core, wire))
}

/// [`round`] plus the equivalence digest: the core's final
/// [`state_digest`](ServerCore::state_digest), extended with the
/// rendered [`WireDigest`].
pub(super) fn round_with_digest<S: Sessions>(
    segments: SegmentMap,
    fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
    config: PlatformConfig,
    plan: &FaultPlan,
    open: impl FnOnce(Vec<Vehicle>) -> S,
) -> Result<(PlatformReport, String)> {
    let (report, core, wire) = round(segments, fleet, config, plan, open)?;
    Ok((
        report,
        format!("{} | {}", core.state_digest(), wire.render()),
    ))
}

/// Runs one crash-consistent round: the server is a [`DurableRound`]
/// write-ahead logging into `wal`.
pub(super) fn round_durable<S: Sessions>(
    segments: SegmentMap,
    fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
    config: PlatformConfig,
    plan: &FaultPlan,
    wal: &mut dyn LogSink,
    open: impl FnOnce(Vec<Vehicle>) -> S,
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
    Ok(drive(&mut host, segments, fleet, config.seed, plan, tally, open)?.0)
}

/// The driver's server end: the (faulty) downlinks, the armed
/// deadlines and, once decided, the round's outcome.
#[derive(Default)]
struct ServerEnd {
    downlinks: BTreeMap<VehicleId, LinkSender>,
    timers: BTreeMap<TimerId, VirtualInstant>,
    outcome: Option<Result<PlatformReport>>,
}

impl ServerEnd {
    /// Folds one batch of host actions in: sends go to the downlinks,
    /// timers into the deadline map, terminal actions into `outcome`.
    fn apply(&mut self, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    if let Some(link) = self.downlinks.get_mut(&to) {
                        link.send((to, msg.to_frame()));
                    }
                }
                Action::SetTimer { timer, deadline } => {
                    self.timers.insert(timer, deadline);
                }
                Action::Completed(report) => self.outcome = Some(Ok(*report)),
                Action::Failed(e) => self.outcome = Some(Err(e)),
            }
        }
    }
}

/// The event loop, generic over the server-shaped host so plain and
/// durable (crash-injecting) rounds share it, and over the sessions
/// `open` builds from the id-ordered vehicles. Every uplink frame the
/// server receives is absorbed into the returned [`WireDigest`] before
/// it is decoded, so the digest covers the raw bytes in arrival order.
fn drive<H: EventHost, S: Sessions>(
    host: &mut H,
    segments: SegmentMap,
    fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
    seed: u64,
    plan: &FaultPlan,
    tally: Arc<FaultTally>,
    open: impl FnOnce(Vec<Vehicle>) -> S,
) -> Result<(PlatformReport, WireDigest)> {
    let server_queue = Rc::new(RefCell::new(Vec::new()));
    let fleet_queue = Rc::new(RefCell::new(Vec::new()));
    let mut server = ServerEnd::default();
    // Seeds follow fleet order; sessions then run in vehicle-id order.
    let mut sessions = Vec::with_capacity(fleet.len());
    for (i, (vehicle, readings)) in fleet.into_iter().enumerate() {
        let id = vehicle.id();
        let tallied = || Some(Arc::clone(&tally));
        let downlink = QueueSink(Rc::clone(&fleet_queue));
        let downlink = plan.sender_tallied(downlink, id, LinkDirection::ToVehicle, tallied());
        server.downlinks.insert(id, downlink);
        let uplink = QueueSink(Rc::clone(&server_queue));
        let uplink = plan.sender_tallied(uplink, id, LinkDirection::ToServer, tallied());
        let link = Link {
            id,
            uplink: Some(uplink),
            exit: None,
        };
        let core = VehicleCore::new(vehicle, vehicle_seed(seed, i), plan.misbehavior(id));
        sessions.push((link, (core, readings)));
    }
    sessions.sort_by_key(|(link, _)| link.id);
    let (mut links, vehicles): (Vec<Link>, _) = sessions.into_iter().unzip();
    let mut sessions = open(vehicles);

    let mut now = VirtualInstant::ZERO;
    let mut wire = WireDigest::new();
    server.apply(host.begin()?);
    sessions.start(&mut links, &segments);

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
            sessions.pump(&mut links, frames, &segments);
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
        let Some(&next) = server.timers.values().min() else {
            return Err(MiddlewareError::Crowd(
                "simulation stalled: no traffic and no armed deadlines".to_string(),
            ));
        };
        if next > now {
            now = next;
        }
        let mut due: Vec<(VirtualInstant, TimerId)> = server
            .timers
            .iter()
            .filter(|&(_, &at)| at <= now)
            .map(|(&t, &at)| (at, t))
            .collect();
        due.sort_unstable();
        for (_, timer) in due {
            server.timers.remove(&timer);
            if server.outcome.is_none() {
                server.apply(host.handle(Event::TimerFired { now, timer })?);
            }
        }
    }

    let report = server.outcome.take().expect("round outcome decided")?;

    // Round complete: dropping the downlinks flushes delayed traffic
    // into the queue; one last pump lets every vehicle see its `Done`,
    // then survivors classify the hang-up.
    drop(server);
    sessions.pump(&mut links, fleet_queue.take(), &segments);
    let exits = links.into_iter().enumerate();
    let exits = exits
        .map(|(i, link)| link.finish(sessions.core(i)))
        .collect();
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
    use crate::transport::fleet::Batched;
    use crate::transport::sim::Inline;
    use crate::vehicle::Behavior;
    use crowdwifi_channel::PathLossModel;
    use crowdwifi_core::{OnlineCs, OnlineCsConfig};
    use crowdwifi_geo::{Point, Rect};

    /// A server that never decides the round and arms no deadline.
    struct Undecided;

    impl EventHost for Undecided {
        fn begin(&mut self) -> Result<Vec<Action>> {
            Ok(Vec::new())
        }

        fn handle(&mut self, _event: Event) -> Result<Vec<Action>> {
            Ok(Vec::new())
        }

        fn registry(&self) -> Registry {
            Registry::new()
        }
    }

    /// Runs three vehicles with empty drives against [`Undecided`],
    /// stepped inline and batched, and returns each run's error.
    fn stall(plan: &FaultPlan) -> [String; 2] {
        let run = |batched: bool| {
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
            let tally = Arc::new(FaultTally::new());
            let host = &mut Undecided;
            let result = if batched {
                let batched = |vehicles| Batched::new(vehicles, 2);
                drive(host, segments, fleet, 1, plan, tally, batched).map(drop)
            } else {
                drive(host, segments, fleet, 1, plan, tally, Inline).map(drop)
            };
            match result {
                Err(MiddlewareError::Crowd(msg)) => msg,
                other => panic!("expected a stalled round, got {other:?}"),
            }
        };
        [run(false), run(true)]
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
    fn an_open_fleet_with_no_deadline_stalls() {
        for msg in stall(&FaultPlan::none()) {
            assert!(msg.contains("no traffic and no armed deadlines"), "{msg}");
        }
    }
}
