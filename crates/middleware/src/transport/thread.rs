//! The threaded transport: one scoped OS thread per vehicle, crossbeam
//! channels, wall-clock deadlines. All protocol decisions live in
//! [`ServerCore`]; this driver only moves messages, keeps wall-clock
//! timers, and stamps events with the elapsed time since round start.

use crate::durability::{DurableRound, LogSink};
use crate::fault::{FaultPlan, FaultTally, FaultySender, LinkDirection};
use crate::messages::{ToServer, VehicleId};
use crate::protocol::{
    Action, Event, PlatformConfig, PlatformReport, ServerCore, TimerId, VirtualInstant,
};
use crate::segment::SegmentMap;
use crate::transport::{panic_message, seal_report, vehicle_seed, EventHost, Transport};
use crate::vehicle::{run_protocol, CrowdVehicle, VehicleCore, VehicleExit};
use crate::wire::WireMessage;
use crate::Result;
use crossbeam::channel::{self, RecvTimeoutError};
use crowdwifi_channel::RssReading;
use crowdwifi_obs::Registry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The original concurrent runtime: each crowd-vehicle runs on its own
/// scoped thread and talks to the server over (possibly noisy)
/// channels, like the paper's fleet of independent devices. Vehicle
/// threads are spawned under [`std::thread::scope`], so none can
/// outlive the round; each wraps its protocol in `catch_unwind`,
/// reporting panics and estimator errors to the server as
/// [`ToServer::Failed`]. Silent deaths (injected crashes, dropped
/// packets) are caught by the core's per-vehicle deadlines instead —
/// nothing blocks forever.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadTransport;

impl Transport for ThreadTransport {
    fn run_round_with_faults(
        &self,
        segments: SegmentMap,
        fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
        config: PlatformConfig,
        plan: &FaultPlan,
    ) -> Result<PlatformReport> {
        thread_round(segments, fleet, config, plan)
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
        // The durable host lives on the scope's main thread only; the
        // vehicle threads never touch it.
        let host = DurableRound::new(
            segments.clone(),
            &ids,
            config,
            plan,
            wal,
            Arc::clone(&tally),
        )?;
        thread_drive_round(host, segments, fleet, config, plan, tally)
    }
}

/// Server-side handle to one vehicle: the (possibly noisy) downlink
/// sender plus a receiver clone that keeps the channel open, so sends
/// to an already-dead vehicle are quietly absorbed instead of erroring.
struct VehicleLink {
    tx: FaultySender<Vec<u8>>,
    _keepalive: channel::Receiver<Vec<u8>>,
}

fn thread_round(
    segments: SegmentMap,
    fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
    config: PlatformConfig,
    plan: &FaultPlan,
) -> Result<PlatformReport> {
    let ids: Vec<VehicleId> = fleet.iter().map(|(v, _)| v.id()).collect();
    let registry = Registry::new();
    let core = ServerCore::new(segments.clone(), &ids, config, registry)?;
    plan.validate()?;
    let tally = Arc::new(FaultTally::new());
    thread_drive_round(core, segments, fleet, config, plan, tally)
}

/// Spawns the fleet and drives `host` to completion: the backend's
/// shared round body, generic over the server-shaped host so plain and
/// durable (crash-injecting) rounds use the same loop.
fn thread_drive_round<H: EventHost>(
    mut host: H,
    segments: SegmentMap,
    mut fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
    config: PlatformConfig,
    plan: &FaultPlan,
    tally: Arc<FaultTally>,
) -> Result<PlatformReport> {
    let ids: Vec<VehicleId> = fleet.iter().map(|(v, _)| v.id()).collect();

    let (to_server_tx, to_server_rx) = channel::unbounded::<(VehicleId, Vec<u8>)>();
    let mut links: BTreeMap<VehicleId, VehicleLink> = BTreeMap::new();
    let mut vehicle_rxs: BTreeMap<VehicleId, channel::Receiver<Vec<u8>>> = BTreeMap::new();
    for &id in &ids {
        let (tx, rx) = channel::unbounded::<Vec<u8>>();
        vehicle_rxs.insert(id, rx.clone());
        links.insert(
            id,
            VehicleLink {
                tx: plan.sender_tallied(tx, id, LinkDirection::ToVehicle, Some(Arc::clone(&tally))),
                _keepalive: rx,
            },
        );
    }

    let exits: Mutex<BTreeMap<VehicleId, VehicleExit>> = Mutex::new(BTreeMap::new());

    let server_result = std::thread::scope(|scope| {
        for (i, (vehicle, readings)) in fleet.drain(..).enumerate() {
            let id = vehicle.id();
            let mut to_server = plan.sender_tallied(
                to_server_tx.clone(),
                id,
                LinkDirection::ToServer,
                Some(Arc::clone(&tally)),
            );
            let rx = vehicle_rxs[&id].clone();
            let script = plan.misbehavior(id);
            let seed = vehicle_seed(config.seed, i);
            let segments = &segments;
            let exits = &exits;
            scope.spawn(move || {
                let mut vehicle_core = VehicleCore::new(vehicle, seed, script);
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_protocol(&mut vehicle_core, &readings, segments, &mut to_server, &rx)
                }));
                let exit = match outcome {
                    Ok(Ok(exit)) => exit,
                    Ok(Err(e)) => {
                        let reason = e.to_string();
                        // Best-effort: the server may already be gone.
                        let frame = ToServer::Failed(reason.clone()).to_frame();
                        let _ = to_server.send((id, frame));
                        VehicleExit::Failed(reason)
                    }
                    Err(payload) => {
                        let reason = format!("panic: {}", panic_message(payload));
                        let frame = ToServer::Failed(reason.clone()).to_frame();
                        let _ = to_server.send((id, frame));
                        VehicleExit::Failed(reason)
                    }
                };
                exits.lock().expect("exit log lock").insert(id, exit);
            });
        }
        drop(to_server_tx);

        let result = drive(&mut host, &to_server_rx, &mut links);
        // Success or failure, release every vehicle before the scope
        // joins: dropping the downlinks turns any blocked `rx.recv()`
        // into a clean disconnect-and-exit. (On failure the core has
        // already emitted `Abort` notices through the links.)
        drop(links);
        result
    });

    let report = server_result?;
    let exits = exits.into_inner().expect("exit log lock");
    host.finish()?;
    // Fault totals are read only after the scope joins, when every
    // sender (including the uplinks owned by vehicle threads) is done.
    Ok(seal_report(report, exits, &host.registry(), &tally))
}

/// Maps wall time onto the core's virtual clock: microseconds since
/// round start.
fn virtual_now(start: Instant) -> VirtualInstant {
    VirtualInstant::from_micros(start.elapsed().as_micros() as u64)
}

/// The event loop: waits for uplink messages up to the earliest armed
/// deadline, fires due timers in (deadline, timer) order, and performs
/// whatever actions the core returns.
fn drive<H: EventHost>(
    host: &mut H,
    rx: &channel::Receiver<(VehicleId, Vec<u8>)>,
    links: &mut BTreeMap<VehicleId, VehicleLink>,
) -> Result<PlatformReport> {
    let start = Instant::now();
    let mut timers: BTreeMap<TimerId, VirtualInstant> = BTreeMap::new();
    let mut outcome: Option<Result<PlatformReport>> = None;

    apply(host.begin()?, links, &mut timers, &mut outcome);

    while outcome.is_none() {
        // Fire every due timer, earliest deadline first. Stale
        // generations pass through the core as no-ops.
        let now = virtual_now(start);
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
            let actions = host.handle(Event::TimerFired {
                now: virtual_now(start),
                timer,
            })?;
            apply(actions, links, &mut timers, &mut outcome);
        }
        if outcome.is_some() {
            break;
        }

        // Wait for traffic until the earliest remaining deadline.
        let event = match timers.values().min().copied() {
            Some(at) => {
                let wall = start + Duration::from_micros(at.as_micros());
                let timeout = wall
                    .saturating_duration_since(Instant::now())
                    .max(Duration::from_millis(1));
                match rx.recv_timeout(timeout) {
                    Ok((from, bytes)) => Some(Event::uplink(virtual_now(start), from, &bytes)),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => Some(Event::LinksClosed {
                        now: virtual_now(start),
                    }),
                }
            }
            // No armed deadlines (the core is between phases only
            // momentarily, so this is defensive): block on traffic.
            None => match rx.recv() {
                Ok((from, bytes)) => Some(Event::uplink(virtual_now(start), from, &bytes)),
                Err(_) => Some(Event::LinksClosed {
                    now: virtual_now(start),
                }),
            },
        };
        if let Some(event) = event {
            let actions = host.handle(event)?;
            apply(actions, links, &mut timers, &mut outcome);
        }
    }
    outcome.expect("round outcome decided")
}

fn apply(
    actions: Vec<Action>,
    links: &mut BTreeMap<VehicleId, VehicleLink>,
    timers: &mut BTreeMap<TimerId, VirtualInstant>,
    outcome: &mut Option<Result<PlatformReport>>,
) {
    for action in actions {
        match action {
            Action::Send { to, msg } => {
                if let Some(link) = links.get_mut(&to) {
                    let _ = link.tx.send(msg.to_frame());
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
