//! The deterministic single-threaded simulation transport.
//!
//! The whole fleet runs on one thread with a virtual clock: messages
//! move through in-memory queues, and when the round quiesces the clock
//! jumps straight to the earliest armed deadline. A degraded round with
//! multi-second timeouts and retry backoff replays in microseconds.
//! This is the reference backend: [`super::FleetTransport`] must match
//! its [`PlatformReport::deterministic`] projection byte for byte.

use crate::durability::{DurableRound, LogSink};
use crate::fault::FaultPlan;
use crate::fault::{FaultTally, FaultySender, LinkDirection, MessageSink};
use crate::messages::{ToServer, ToVehicle, VehicleId};
use crate::protocol::{
    Action, Event, PlatformConfig, PlatformReport, ServerCore, TimerId, VirtualInstant,
};
use crate::segment::SegmentMap;
use crate::transport::{panic_message, seal_report, vehicle_seed, EventHost, Transport};
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

/// The virtual-clock backend: vehicles are stepped inline, links are
/// in-memory queues behind the [`crate::fault`] layer, and time
/// advances only when every queue is empty — directly to the earliest
/// armed deadline, never by sleeping. One run is one deterministic
/// replay: fleet order, queue order and per-link fault RNG streams are
/// all fixed by the seeds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTransport;

impl Transport for SimTransport {
    fn run_round_with_faults(
        &self,
        segments: SegmentMap,
        fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
        config: PlatformConfig,
        plan: &FaultPlan,
    ) -> Result<PlatformReport> {
        sim_round(segments, fleet, config, plan)
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
        sim_drive(&mut host, segments, fleet, config, plan, tally, &mut wire)
    }
}

/// A [`MessageSink`] backed by a shared in-memory queue; the sim's
/// stand-in for a channel sender. Never disconnects. Shared with the
/// fleet backend, whose links are the same in-memory queues.
pub(super) struct QueueSink<T>(pub(super) Rc<RefCell<VecDeque<T>>>);

impl<T> MessageSink<T> for QueueSink<T> {
    fn deliver(&mut self, msg: T) {
        self.0.borrow_mut().push_back(msg);
    }
}

// The links carry raw binary frames, not typed messages: encoding
// happens at the sender, decoding at the receiver, so the bytes the
// fault layer drops, duplicates and delays are the real wire bytes.
pub(super) type Uplink = FaultySender<(VehicleId, Vec<u8>), QueueSink<(VehicleId, Vec<u8>)>>;
pub(super) type Downlink = FaultySender<Vec<u8>, QueueSink<Vec<u8>>>;
/// The server's shared uplink inbox: frames tagged with their sender.
pub(super) type ServerQueue = Rc<RefCell<VecDeque<(VehicleId, Vec<u8>)>>>;

/// One simulated vehicle: its pure state machine, its inbox queue, and
/// its (noisy) uplink. The uplink is dropped the moment the vehicle
/// exits, flushing any delayed messages.
struct SimVehicle {
    core: VehicleCore,
    readings: Vec<RssReading>,
    inbox: Rc<RefCell<VecDeque<Vec<u8>>>>,
    uplink: Option<Uplink>,
    exit: Option<VehicleExit>,
}

impl SimVehicle {
    /// Folds one state-machine step (or its failure) into the vehicle's
    /// lifecycle: dispatch uplink messages, or record the exit and
    /// close the uplink.
    fn absorb(
        &mut self,
        outcome: std::result::Result<Result<VehicleStep>, Box<dyn std::any::Any + Send>>,
    ) {
        let step = match outcome {
            Ok(Ok(step)) => step,
            Ok(Err(e)) => return self.fail(e.to_string()),
            Err(payload) => return self.fail(format!("panic: {}", panic_message(payload))),
        };
        match step {
            VehicleStep::Continue(msgs) => {
                if let Some(uplink) = self.uplink.as_mut() {
                    let id = self.core.id();
                    for m in msgs {
                        uplink.send((id, m.to_frame()));
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
            uplink.send((self.core.id(), frame));
        }
        self.exit = Some(VehicleExit::Failed(reason));
        self.uplink = None;
    }

    /// Delivers every queued inbox message; exited vehicles absorb
    /// theirs silently. Returns whether anything was delivered.
    fn drain_inbox(&mut self, segments: &SegmentMap) -> bool {
        let mut progressed = false;
        loop {
            let bytes = self.inbox.borrow_mut().pop_front();
            let Some(bytes) = bytes else { break };
            progressed = true;
            if self.exit.is_some() {
                continue;
            }
            // A frame the fault layer garbled fails the vehicle with
            // the decode error.
            let step = match ToVehicle::from_frame(&bytes) {
                Ok(msg) => {
                    let core = &mut self.core;
                    catch_unwind(AssertUnwindSafe(|| Ok(core.on_message(msg, segments))))
                }
                Err(e) => Ok(Err(e)),
            };
            self.absorb(step);
        }
        progressed
    }
}

fn sim_round(
    segments: SegmentMap,
    fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
    config: PlatformConfig,
    plan: &FaultPlan,
) -> Result<PlatformReport> {
    Ok(sim_round_with_digest(segments, fleet, config, plan)?.0)
}

/// Runs one faulted round on the simulator and returns the report
/// together with the server core's final
/// [`state_digest`](ServerCore::state_digest), extended with a
/// [`WireDigest`] over the binary uplink frames the server received —
/// the reference string the fleet backend's equivalence tests compare
/// byte-for-byte (state *and* wire bytes must match).
///
/// # Errors
///
/// As [`Transport::run_round_with_faults`].
pub fn sim_round_with_digest(
    segments: SegmentMap,
    fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
    config: PlatformConfig,
    plan: &FaultPlan,
) -> Result<(PlatformReport, String)> {
    let ids: Vec<VehicleId> = fleet.iter().map(|(v, _)| v.id()).collect();
    let registry = Registry::new();
    let mut core = ServerCore::new(segments.clone(), &ids, config, registry)?;
    plan.validate()?;
    let tally = Arc::new(FaultTally::new());
    let mut wire = WireDigest::new();
    let report = sim_drive(&mut core, segments, fleet, config, plan, tally, &mut wire)?;
    let digest = format!("{} | {}", core.state_digest(), wire.render());
    Ok((report, digest))
}

/// The simulator's event loop, generic over the server-shaped host so
/// plain and durable (crash-injecting) rounds share one driver. Every
/// uplink frame the server receives is absorbed into `wire` before it
/// is decoded, so the digest covers the raw bytes in arrival order.
#[allow(clippy::too_many_arguments)]
fn sim_drive<H: EventHost>(
    host: &mut H,
    segments: SegmentMap,
    fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
    config: PlatformConfig,
    plan: &FaultPlan,
    tally: Arc<FaultTally>,
    wire: &mut WireDigest,
) -> Result<PlatformReport> {
    let server_queue: ServerQueue = Rc::new(RefCell::new(VecDeque::new()));
    let mut vehicles: BTreeMap<VehicleId, SimVehicle> = BTreeMap::new();
    let mut downlinks: BTreeMap<VehicleId, Downlink> = BTreeMap::new();
    // Seeds follow fleet order.
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
        vehicles.insert(
            id,
            SimVehicle {
                core: VehicleCore::new(vehicle, vehicle_seed(config.seed, i), plan.misbehavior(id)),
                readings,
                inbox,
                uplink: Some(uplink),
                exit: None,
            },
        );
    }

    let mut now = VirtualInstant::ZERO;
    let mut timers: BTreeMap<TimerId, VirtualInstant> = BTreeMap::new();
    let mut outcome: Option<Result<PlatformReport>> = None;

    apply(host.begin()?, &mut downlinks, &mut timers, &mut outcome);

    // Every vehicle runs its drive "at once" (virtual time zero).
    for v in vehicles.values_mut() {
        let core = &mut v.core;
        let readings = std::mem::take(&mut v.readings);
        let step = catch_unwind(AssertUnwindSafe(|| core.start(&readings)));
        v.absorb(step);
    }

    loop {
        // Pump messages until every queue is empty. Uplink traffic
        // reaches the core in queue order; inboxes drain in id order.
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
            for v in vehicles.values_mut() {
                progressed |= v.drain_inbox(&segments);
            }
            if !progressed {
                break;
            }
        }

        if outcome.is_some() {
            break;
        }

        // Quiescent. If every uplink is closed the server would see a
        // disconnect; otherwise jump the clock to the next deadline.
        if vehicles.values().all(|v| v.uplink.is_none()) {
            // A crash-injecting host may consume the disconnect event
            // itself (the crash eats it), so retry a bounded number of
            // times — like a supervisor restarting the process and the
            // runtime re-reporting the closed links.
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

    // Round complete: flush delayed downlink traffic and deliver it, so
    // every vehicle sees its `Done`, then let survivors classify the
    // hang-up.
    drop(downlinks);
    for v in vehicles.values_mut() {
        v.drain_inbox(&segments);
    }
    let exits: BTreeMap<VehicleId, VehicleExit> = vehicles
        .into_iter()
        .map(|(id, mut v)| {
            let exit = v.exit.take().unwrap_or_else(|| v.core.on_disconnect());
            (id, exit)
        })
        .collect();
    host.finish()?;
    Ok(seal_report(report, exits, &host.registry(), &tally))
}

/// Folds one batch of core actions into the driver state: sends go to
/// the (faulty) downlinks, timers into the deadline map, terminal
/// actions into `outcome`. Shared with the fleet backend.
pub(super) fn apply(
    actions: Vec<Action>,
    downlinks: &mut BTreeMap<VehicleId, Downlink>,
    timers: &mut BTreeMap<TimerId, VirtualInstant>,
    outcome: &mut Option<Result<PlatformReport>>,
) {
    for action in actions {
        match action {
            Action::Send { to, msg } => {
                if let Some(link) = downlinks.get_mut(&to) {
                    link.send(msg.to_frame());
                }
            }
            Action::SetTimer { timer, deadline } => {
                timers.insert(timer, deadline);
            }
            Action::Completed(report) => *outcome = Some(Ok(*report)),
            Action::Failed(e) => *outcome = Some(Err(e)),
        }
    }
}
