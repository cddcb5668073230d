//! The pure, sans-I/O crowd-server protocol.
//!
//! [`ServerCore`] is the whole round protocol of §5.5 — uploads under
//! deadline, (ℓ,γ)-regular task assignment, answer collection with
//! retry/backoff, quorum-gated degradation, orphan reassignment,
//! Dawid–Skene EM inference and shard-by-shard fusion — expressed as a
//! state machine with **no I/O of any kind**. It never blocks, never
//! sleeps, never reads a clock and never owns a channel or an OS
//! thread: every stimulus arrives as a timestamped [`Event`], every
//! effect leaves as an [`Action`], and "time" is whatever
//! [`VirtualInstant`]s the driver stamps onto events.
//!
//! ```text
//!                 Event                      Action
//!   transport ───────────────▶ ServerCore ───────────────▶ transport
//!   Message{now, from, msg}                 Send{to, msg}
//!   Deadline{now}                           Completed(report)
//!   LinksClosed{now}                        Failed(error)
//!   Garbled{now, from}
//!                        next_deadline()
//!   transport ◀─────────────── ServerCore
//! ```
//!
//! The core owns its deadlines: one per vehicle it waits on, armed at
//! round start (every upload is owed by `deadline`) and re-armed or
//! released as the round moves. A driver never stores a timer. When its
//! queues run dry it asks [`ServerCore::next_deadline`], jumps its clock
//! there and sends one [`Event::Deadline`]; the core expires every
//! vehicle due by then.
//!
//! The drivers in [`crate::transport`] are thin: the simulation
//! backend replays the protocol under a virtual clock in a single OS
//! thread, and the fleet backend batches vehicle sessions over a worker
//! pool on the same clock. Because all protocol decisions live here,
//! both backends get deadlines, retries, quorum, reassignment and the
//! `platform.*` metrics for free — and same-seed rounds agree across
//! backends byte for byte.
//!
//! Fusion is sharded by road segment (see [`shards`]): it runs per
//! segment inside this one core, and the durable campaign's round-close
//! snapshot state, [`shards::ShardedDatabase`], advances each segment
//! independently.

pub mod fates;
pub mod quorum;
pub mod rounds;
pub mod shards;

pub use fates::{FateRecord, RoundHealth, RoundPhase, VehicleFate};
pub use quorum::quorum_required;
pub use rounds::{validate_config, FaultTolerance, PlatformConfig, PlatformReport};
pub use shards::{ShardState, ShardedDatabase};

use self::quorum::RoundLedger;
use self::rounds::{LabelingState, DEAD_RELIABILITY_FACTOR};
use crate::messages::codec_err;
use crate::messages::{MappingTask, ToServer, ToVehicle, VehicleId};
use crate::segment::SegmentMap;
use crate::server::CrowdServer;
use crate::wire::{self, WireMessage, WireReader};
use crate::{MiddlewareError, Result};
use crowdwifi_obs::{EventValue, Registry, Snapshot};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Add;
use std::time::Duration;

/// A point on the driver's clock, in microseconds since the round
/// started. The core never reads a clock; drivers stamp every event
/// with the current virtual instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct VirtualInstant(u64);

impl VirtualInstant {
    /// The start of the round.
    pub const ZERO: VirtualInstant = VirtualInstant(0);

    /// The instant `micros` microseconds after round start.
    pub fn from_micros(micros: u64) -> Self {
        VirtualInstant(micros)
    }

    /// Microseconds since round start.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier` (zero if `earlier` is later).
    pub fn since(self, earlier: VirtualInstant) -> Duration {
        Duration::from_micros(self.0.saturating_sub(earlier.0))
    }
}

/// Whole microseconds later, saturating at the last representable
/// instant (sub-microsecond remainders are dropped).
impl Add<Duration> for VirtualInstant {
    type Output = VirtualInstant;

    fn add(self, rhs: Duration) -> VirtualInstant {
        let micros = u64::try_from(rhs.as_micros()).unwrap_or(u64::MAX);
        VirtualInstant(self.0.saturating_add(micros))
    }
}

/// A stimulus fed into [`ServerCore::handle`], stamped with the
/// driver's current instant.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A message arrived from a vehicle.
    Message {
        /// Driver time at delivery.
        now: VirtualInstant,
        /// The sending vehicle.
        from: VehicleId,
        /// The message itself.
        msg: ToServer,
    },
    /// The driver's clock reached `now` with no traffic in flight:
    /// every vehicle whose deadline is at or before `now` expires.
    Deadline {
        /// Driver time, at or after [`ServerCore::next_deadline`].
        now: VirtualInstant,
    },
    /// Every vehicle link is gone; no further messages can arrive.
    LinksClosed {
        /// Driver time at disconnect.
        now: VirtualInstant,
    },
    /// A frame from `from` arrived but failed to decode (bad CRC,
    /// truncation, unknown tag). Recorded as an event — rather than
    /// handled transport-side — so the resulting quarantine replays
    /// deterministically from the write-ahead log.
    Garbled {
        /// Driver time at delivery.
        now: VirtualInstant,
        /// The vehicle whose link produced the undecodable frame.
        from: VehicleId,
    },
}

impl Event {
    /// The event for one raw uplink frame from `from`: the decoded
    /// [`Event::Message`], or [`Event::Garbled`] when the frame fails
    /// framing (bad CRC, bad length prefix) or decoding (bad version
    /// byte, unknown tag, truncated varint, trailing bytes). Every
    /// transport turns uplink bytes into events here, so a malformed
    /// (or malicious) frame quarantines its sender the same way on
    /// every backend.
    pub fn uplink(now: VirtualInstant, from: VehicleId, frame: &[u8]) -> Event {
        match ToServer::from_frame(frame) {
            Ok(msg) => Event::Message { now, from, msg },
            Err(_) => Event::Garbled { now, from },
        }
    }
}

impl WireMessage for Event {
    fn encode_binary(&self, out: &mut Vec<u8>) {
        match self {
            Event::Message { now, from, msg } => {
                wire::put_header(out, wire::TAG_EVENT_MESSAGE);
                wire::put_varint(out, now.as_micros());
                wire::put_varint(out, u64::from(from.0));
                // The inner message nests inline, version byte and all:
                // its own decoder consumes exactly its fields.
                msg.encode_binary(out);
            }
            Event::Deadline { now } => {
                wire::put_header(out, wire::TAG_EVENT_DEADLINE);
                wire::put_varint(out, now.as_micros());
            }
            Event::LinksClosed { now } => {
                wire::put_header(out, wire::TAG_EVENT_LINKS_CLOSED);
                wire::put_varint(out, now.as_micros());
            }
            Event::Garbled { now, from } => {
                wire::put_header(out, wire::TAG_EVENT_GARBLED);
                wire::put_varint(out, now.as_micros());
                wire::put_varint(out, u64::from(from.0));
            }
        }
    }

    fn decode_body(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match r.header()? {
            wire::TAG_EVENT_MESSAGE => {
                let now = VirtualInstant::from_micros(r.varint()?);
                let from = VehicleId(r.u32()?);
                let msg = ToServer::decode_body(r)?;
                Event::Message { now, from, msg }
            }
            wire::TAG_EVENT_DEADLINE => Event::Deadline {
                now: VirtualInstant::from_micros(r.varint()?),
            },
            wire::TAG_EVENT_LINKS_CLOSED => Event::LinksClosed {
                now: VirtualInstant::from_micros(r.varint()?),
            },
            wire::TAG_EVENT_GARBLED => Event::Garbled {
                now: VirtualInstant::from_micros(r.varint()?),
                from: VehicleId(r.u32()?),
            },
            t => return Err(codec_err(format!("unknown Event binary tag {t:#04x}"))),
        })
    }
}

/// An effect the driver must perform on behalf of the core.
#[derive(Debug)]
pub enum Action {
    /// Deliver `msg` to vehicle `to` (best-effort; the vehicle may
    /// already be gone).
    Send {
        /// Destination vehicle.
        to: VehicleId,
        /// The message to deliver.
        msg: ToVehicle,
    },
    /// The round finished. The report's `exits` and `metrics` are still
    /// empty: only the driver knows vehicle-side exits and when every
    /// fault tally is final, so it seals them in afterwards.
    Completed(Box<PlatformReport>),
    /// The round was abandoned with this error. Abort notifications to
    /// the fleet precede this action in the same batch.
    Failed(MiddlewareError),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Uploads,
    Labeling,
    Done,
}

/// The crowd-server round protocol as a pure state machine. See the
/// [module docs](self) for the event/action contract.
#[derive(Debug)]
pub struct ServerCore {
    server: CrowdServer,
    config: PlatformConfig,
    rng: ChaCha8Rng,
    registry: Registry,
    ledger: RoundLedger,
    phase: Phase,
    phase_started: VirtualInstant,
    /// When each vehicle the round waits on expires; the key set is
    /// exactly the vehicles still owing an upload or answers.
    deadlines: BTreeMap<VehicleId, VirtualInstant>,
    labeling: LabelingState,
    finished: bool,
}

impl ServerCore {
    /// Builds the core for one round: validates the config, registers
    /// the fleet (rejecting empty fleets and duplicate ids) and seeds
    /// the protocol RNG. The round opens at [`VirtualInstant::ZERO`]:
    /// every vehicle owes an upload by the configured deadline. Metrics
    /// land in `registry`, which the driver also uses for its own
    /// transport-side counters.
    pub fn new(
        segments: SegmentMap,
        fleet: &[VehicleId],
        config: PlatformConfig,
        registry: Registry,
    ) -> Result<Self> {
        validate_config(&config)?;
        if fleet.is_empty() {
            return Err(MiddlewareError::InvalidConfig("empty fleet".to_string()));
        }
        let mut server = CrowdServer::new(segments);
        let mut deadlines = BTreeMap::new();
        let first = VirtualInstant::ZERO + config.tolerance.deadline;
        for &v in fleet {
            if deadlines.insert(v, first).is_some() {
                return Err(MiddlewareError::InvalidConfig(format!(
                    "duplicate vehicle id {v}"
                )));
            }
            server.register(v);
        }
        Ok(ServerCore {
            server,
            config,
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            registry,
            ledger: RoundLedger::new(),
            phase: Phase::Uploads,
            phase_started: VirtualInstant::ZERO,
            deadlines,
            labeling: LabelingState::default(),
            finished: false,
        })
    }

    /// Rebuilds a crashed server from its durable round history: a
    /// fresh core is built exactly as [`ServerCore::new`] would, and the
    /// logged events are replayed in order. Because the protocol RNG is
    /// seeded from the config and consumed only at phase transitions,
    /// the replayed core is byte-identical (see
    /// [`ServerCore::state_digest`]) to a server that processed the same
    /// events without crashing — deadlines included, so a past-due one
    /// is simply due at the driver's next [`Event::Deadline`].
    ///
    /// Returns the recovered core together with the replay's terminal
    /// `Completed`/`Failed` action, if the logged events decided the
    /// round. `Send` actions are dropped: the crash already lost them,
    /// and the deadline/retry machinery re-sends whatever still matters.
    ///
    /// # Errors
    ///
    /// As [`ServerCore::new`].
    pub fn recover(
        segments: SegmentMap,
        fleet: &[VehicleId],
        config: PlatformConfig,
        registry: Registry,
        events: &[Event],
    ) -> Result<(Self, Option<Action>)> {
        let mut core = ServerCore::new(segments, fleet, config, registry)?;
        let mut terminal = None;
        for event in events {
            let mut actions = core.handle(event.clone()).into_iter();
            terminal = terminal.or(actions.find(|a| !matches!(a, Action::Send { .. })));
        }
        Ok((core, terminal))
    }

    /// A deterministic fingerprint of the full protocol state —
    /// everything that decides future behavior (phase, ledger, labeling
    /// book, RNG stream position, crowd-server state), and
    /// nothing that does not (the metrics registry, whose timing
    /// histograms are driver-dependent). Two cores with equal digests
    /// respond identically to every future event sequence; the chaos
    /// harness uses this to verify a recovered server against the
    /// never-crashed one.
    pub fn state_digest(&self) -> String {
        format!(
            "phase={:?} started={:?} finished={} deadlines={:?} rng={:?} \
             fates={:?} retries={:?} dead={:?} outstanding={:?} answered={:?} \
             reassigned={} lost={} server={:?}",
            self.phase,
            self.phase_started,
            self.finished,
            self.deadlines,
            self.rng,
            self.ledger.fates,
            self.ledger.retries,
            self.ledger.dead,
            self.labeling.outstanding,
            self.labeling.answered,
            self.labeling.reassigned,
            self.labeling.lost,
            self.server,
        )
    }

    /// A handle on the registry this core records its metrics into
    /// (clones share state).
    pub(crate) fn registry_handle(&self) -> Registry {
        self.registry.clone()
    }

    /// Whether the round has emitted [`Action::Completed`] or
    /// [`Action::Failed`]; all later events are ignored.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The earliest armed deadline: when the driver, once quiescent,
    /// must send [`Event::Deadline`]. `None` when no vehicle is owed
    /// anything.
    pub fn next_deadline(&self) -> Option<VirtualInstant> {
        self.deadlines.values().min().copied()
    }

    /// Feeds one event through the state machine.
    pub fn handle(&mut self, event: Event) -> Vec<Action> {
        if self.finished {
            return Vec::new();
        }
        match event {
            Event::Message { now, from, msg } => self.on_message(now, from, msg),
            Event::Deadline { now } => self.on_deadline(now),
            Event::LinksClosed { now } => self.on_links_closed(now),
            Event::Garbled { now, from } => self.quarantine(now, from),
        }
    }

    /// Declares `from` dead with [`VehicleFate::Quarantined`] after a
    /// malformed frame or a forged upload, keeping the round alive for
    /// everyone else: its outstanding work is reassigned and the
    /// `platform.quarantine` counter is bumped. Frames from an
    /// already-dead or unregistered vehicle are inert.
    fn quarantine(&mut self, now: VirtualInstant, from: VehicleId) -> Vec<Action> {
        if self.ledger.dead.contains(&from) || !self.server.is_registered(from) {
            return Vec::new();
        }
        self.registry.counter("platform.quarantine").inc();
        let mut actions = Vec::new();
        self.retire(now, from, VehicleFate::Quarantined, &mut actions);
        actions
    }

    /// Declares `v` dead with `fate` and settles what it owed: during
    /// uploads the round stops waiting on it, during labeling its
    /// outstanding tasks are reassigned. Either may close the phase.
    fn retire(
        &mut self,
        now: VirtualInstant,
        v: VehicleId,
        fate: VehicleFate,
        actions: &mut Vec<Action>,
    ) {
        self.ledger.mark_dead(&mut self.server, v, fate);
        match self.phase {
            Phase::Uploads => {
                self.deadlines.remove(&v);
                self.maybe_finish_uploads(now, actions);
            }
            Phase::Labeling => {
                self.reassign(now, v, actions);
                self.maybe_finish_labeling(now, actions);
            }
            Phase::Done => {}
        }
    }

    /// Closes the phase timing span `name` at `now` and reopens the
    /// span clock for the next phase.
    fn observe_phase(&mut self, name: &str, now: VirtualInstant) {
        self.registry
            .timer(name)
            .observe_duration(now.since(self.phase_started));
        self.phase_started = now;
    }

    /// Messages from an unregistered link are inert, like garbled
    /// frames from one; an upload claiming another vehicle's identity
    /// quarantines its sender instead of replacing the victim's upload,
    /// and so does an upload carrying a non-finite position or credit,
    /// or an answer batch carrying a label other than ±1.
    fn on_message(&mut self, now: VirtualInstant, from: VehicleId, msg: ToServer) -> Vec<Action> {
        if self.ledger.dead.contains(&from) || !self.server.is_registered(from) {
            return Vec::new(); // late message from a declared-dead vehicle, or a stranger
        }
        if matches!(&msg, ToServer::Upload(up) if up.vehicle != from
            || up.estimates.iter().any(|e| !(e.position.is_finite() && e.credit.is_finite())))
        {
            return self.quarantine(now, from);
        }
        let mut actions = Vec::new();
        match self.phase {
            Phase::Uploads => match msg {
                ToServer::Upload(up) => {
                    if let Err(e) = self.server.receive_upload(up) {
                        return self.abort(e);
                    }
                    self.deadlines.remove(&from);
                    self.maybe_finish_uploads(now, &mut actions);
                }
                ToServer::Failed(m) => {
                    self.retire(now, from, VehicleFate::Reported(m), &mut actions);
                }
                // Answers cannot precede an assignment; a duplicate or
                // delayed stray is simply ignored.
                ToServer::Answers(_) => {}
            },
            Phase::Labeling => match msg {
                // A label outside {−1, +1} is malformed input, like a
                // forged upload: it never reaches inference.
                ToServer::Answers(batch) if batch.iter().any(|a| !matches!(a.label, -1 | 1)) => {
                    return self.quarantine(now, from);
                }
                ToServer::Answers(batch) => {
                    let Some(owed) = self.labeling.outstanding.get_mut(&from) else {
                        return actions; // task-less vehicle or duplicate batch
                    };
                    let mut fresh = Vec::with_capacity(batch.len());
                    for a in batch {
                        if a.vehicle == from && owed.remove(&a.task_id) {
                            self.labeling.answered.insert((from, a.task_id));
                            fresh.push(a);
                        }
                    }
                    self.server.receive_answers(fresh);
                    if self
                        .labeling
                        .outstanding
                        .get(&from)
                        .is_some_and(|owed| owed.is_empty())
                    {
                        self.labeling.outstanding.remove(&from);
                        self.deadlines.remove(&from);
                    }
                    self.maybe_finish_labeling(now, &mut actions);
                }
                ToServer::Failed(m) => {
                    self.retire(now, from, VehicleFate::Reported(m), &mut actions);
                }
                // A delayed or re-requested upload arriving late; the
                // first copy already counted.
                ToServer::Upload(_) => {}
            },
            Phase::Done => {}
        }
        actions
    }

    /// Expires every vehicle due by `now`, in (deadline, id) order.
    fn on_deadline(&mut self, now: VirtualInstant) -> Vec<Action> {
        let mut due: Vec<(VirtualInstant, VehicleId)> = self
            .deadlines
            .iter()
            .filter(|&(_, &at)| at <= now)
            .map(|(&v, &at)| (at, v))
            .collect();
        due.sort_unstable();
        let mut actions = Vec::new();
        for (_, v) in due {
            if self.finished {
                break;
            }
            // An earlier expiry in this event may have re-armed `v`
            // (orphans handed to it) or released it.
            if self.deadlines.get(&v).is_some_and(|&at| at <= now) {
                self.expire(now, v, &mut actions);
            }
        }
        actions
    }

    /// `v` missed its deadline: retry it with backoff, or declare it
    /// dead once its retries are spent.
    fn expire(&mut self, now: VirtualInstant, v: VehicleId, actions: &mut Vec<Action>) {
        let tolerance = self.config.tolerance;
        let uploads = self.phase == Phase::Uploads;
        let spent = self.ledger.retries.entry(v).or_insert(0);
        if *spent >= tolerance.max_retries {
            let phase = if uploads {
                RoundPhase::Upload
            } else {
                RoundPhase::Labeling
            };
            return self.retire(now, v, VehicleFate::TimedOut(phase), actions);
        }
        *spent += 1;
        let extra = tolerance.retry_backoff.saturating_mul(*spent);
        let msg = if uploads {
            ToVehicle::RequestUpload
        } else {
            let owed = &self.labeling.outstanding[&v];
            let patterns = self.server.patterns();
            ToVehicle::Assign(
                owed.iter()
                    .map(|&task_id| MappingTask {
                        task_id,
                        pattern: patterns[task_id].clone(),
                    })
                    .collect(),
            )
        };
        actions.push(Action::Send { to: v, msg });
        self.deadlines.insert(v, now + tolerance.deadline + extra);
    }

    fn on_links_closed(&mut self, now: VirtualInstant) -> Vec<Action> {
        let phase = self.phase;
        let fate = match phase {
            Phase::Uploads => VehicleFate::Vanished(RoundPhase::Upload),
            Phase::Labeling => VehicleFate::Vanished(RoundPhase::Labeling),
            Phase::Done => return Vec::new(),
        };
        let mut actions = Vec::new();
        // Reassignment can hand orphans to vehicles that were not
        // waiting, but their links are just as gone — kill wave after
        // wave until nobody in this phase is owed anything.
        while self.phase == phase && !self.deadlines.is_empty() {
            for v in self.deadlines.keys().copied().collect::<Vec<_>>() {
                self.retire(now, v, fate.clone(), &mut actions);
            }
        }
        actions
    }

    /// Declared-dead `v`'s orphans move to the least-loaded survivors;
    /// each recipient gets the batch plus a fresh deadline.
    fn reassign(&mut self, now: VirtualInstant, v: VehicleId, actions: &mut Vec<Action>) {
        self.deadlines.remove(&v);
        let batches = self.labeling.reassign_orphans(v);
        let deadline = self.config.tolerance.deadline;
        let patterns = self.server.patterns();
        for (w, tasks) in batches {
            let tasks = tasks
                .into_iter()
                .map(|task_id| MappingTask {
                    task_id,
                    pattern: patterns[task_id].clone(),
                })
                .collect();
            actions.push(Action::Send {
                to: w,
                msg: ToVehicle::Assign(tasks),
            });
            self.deadlines.insert(w, now + deadline);
        }
    }

    /// If every upload is in (or its owner is dead), closes phase 1 and
    /// runs assignment: patterns are generated, tasks fanned out to the
    /// survivors, and labeling deadlines armed.
    fn maybe_finish_uploads(&mut self, now: VirtualInstant, actions: &mut Vec<Action>) {
        if self.phase != Phase::Uploads || !self.deadlines.is_empty() {
            return;
        }
        self.observe_phase("platform.phase.upload_seconds", now);
        if let Err(e) = self
            .ledger
            .check_quorum(&self.server, self.config.tolerance.quorum)
        {
            actions.extend(self.abort(e));
            return;
        }

        // Phase 2 (assignment) is synchronous in event time: it opens
        // and closes inside this call.
        self.server
            .generate_patterns(self.config.bootstrap_patterns, &mut self.rng);
        let alive = self.ledger.alive(&self.server);
        let mut assignments = match self
            .server
            .assign_tasks(self.config.workers_per_task.min(alive.len()), &mut self.rng)
        {
            Ok(a) => a,
            Err(e) => {
                actions.extend(self.abort(e));
                return;
            }
        };
        for &v in &alive {
            let tasks = assignments.remove(&v).unwrap_or_default();
            self.labeling
                .enlist(v, tasks.iter().map(|t| t.task_id).collect());
            actions.push(Action::Send {
                to: v,
                msg: ToVehicle::Assign(tasks),
            });
        }
        self.observe_phase("platform.phase.assign_seconds", now);
        self.phase = Phase::Labeling;
        let due = now + self.config.tolerance.deadline;
        self.deadlines
            .extend(self.labeling.outstanding.keys().map(|&v| (v, due)));
        // Degenerate but legal: nobody owes an answer (e.g. everyone
        // who could label is dead but quorum still holds).
        self.maybe_finish_labeling(now, actions);
    }

    /// If no answers are outstanding, closes phase 3 and runs inference
    /// plus shard-by-shard fusion, emitting the final report.
    fn maybe_finish_labeling(&mut self, now: VirtualInstant, actions: &mut Vec<Action>) {
        if self.phase != Phase::Labeling || !self.deadlines.is_empty() {
            return;
        }
        self.observe_phase("platform.phase.labeling_seconds", now);
        if let Err(e) = self
            .ledger
            .check_quorum(&self.server, self.config.tolerance.quorum)
        {
            actions.extend(self.abort(e));
            return;
        }
        for v in self.ledger.alive(&self.server) {
            actions.push(Action::Send {
                to: v,
                msg: ToVehicle::Done,
            });
        }

        // Phase 4: inference + fusion. Dead vehicles are penalized in
        // the reliability prior before fusion weighs their uploads.
        let mut outcome = match self.server.infer(&mut self.rng) {
            Ok(o) => o,
            Err(e) => {
                actions.extend(self.abort(e));
                return;
            }
        };
        for &v in &self.ledger.dead {
            let q = self.server.penalize(v, DEAD_RELIABILITY_FACTOR);
            outcome.reliabilities.insert(v, q);
        }
        let fused = self
            .server
            .finalize_sharded(self.config.merge_radius, self.config.spammer_cutoff);
        self.observe_phase("platform.phase.inference_seconds", now);

        let reassigned_tasks = self.labeling.reassigned;
        let lost_label_slots = self.labeling.lost;
        let total_retries: u32 = self.ledger.retries.values().sum();
        let health = if self.ledger.dead.is_empty()
            && reassigned_tasks == 0
            && lost_label_slots == 0
            && total_retries == 0
        {
            RoundHealth::Complete
        } else {
            RoundHealth::Degraded
        };
        let mut fates = std::mem::take(&mut self.ledger.fates);
        for v in self.server.vehicles() {
            fates.entry(*v).or_insert_with(|| FateRecord {
                fate: VehicleFate::Completed,
                retries: self.ledger.retries.get(v).copied().unwrap_or(0),
            });
        }

        // Round bookkeeping metrics. Fates iterate in `VehicleId`
        // order, so the `vehicle.dead` event sequence is deterministic.
        let reg = &self.registry;
        reg.counter("platform.retries")
            .add(u64::from(total_retries));
        reg.counter("platform.reassigned_tasks")
            .add(reassigned_tasks as u64);
        reg.counter("platform.lost_label_slots")
            .add(lost_label_slots as u64);
        let mut per_fate: BTreeMap<&str, u64> = BTreeMap::new();
        for (v, record) in &fates {
            *per_fate.entry(fates::fate_label(&record.fate)).or_insert(0) += 1;
            if record.fate != VehicleFate::Completed {
                reg.event(
                    "vehicle.dead",
                    &[
                        ("vehicle", EventValue::Uint(u64::from(v.0))),
                        (
                            "fate",
                            EventValue::Str(fates::fate_label(&record.fate).to_string()),
                        ),
                        ("retries", EventValue::Uint(u64::from(record.retries))),
                    ],
                );
            }
        }
        for (label, count) in per_fate {
            reg.counter(&format!("platform.fates.{label}")).add(count);
        }
        let total = self.server.vehicles().len();
        let alive = total - self.ledger.dead.len();
        reg.gauge("platform.fleet_size").set(total as i64);
        reg.gauge("platform.dead_vehicles")
            .set(self.ledger.dead.len() as i64);
        reg.gauge("platform.quorum_margin")
            .set(alive as i64 - quorum_required(total, self.config.tolerance.quorum) as i64);
        // Segments holding at least one pattern, then at least one
        // fused AP.
        let pattern_shards: BTreeSet<_> =
            self.server.patterns().iter().map(|p| p.segment).collect();
        reg.gauge("platform.shards")
            .set(pattern_shards.len() as i64);
        let fused_shards: BTreeSet<_> = fused
            .iter()
            .map(|ap| self.server.segments().segment_of(ap.position))
            .collect();
        reg.gauge("platform.shards.fused")
            .set(fused_shards.len() as i64);

        self.phase = Phase::Done;
        self.finished = true;
        actions.push(Action::Completed(Box::new(PlatformReport {
            outcome,
            fused,
            health,
            fates,
            exits: BTreeMap::new(), // sealed in by the driver
            reassigned_tasks,
            lost_label_slots,
            metrics: Snapshot::default(), // likewise: fault tallies are driver-side
        })));
    }

    /// Abandons the round: every vehicle is told why, then the error is
    /// surfaced as the final action.
    fn abort(&mut self, err: MiddlewareError) -> Vec<Action> {
        self.phase = Phase::Done;
        self.finished = true;
        let reason = err.to_string();
        let mut actions: Vec<Action> = self
            .server
            .vehicles()
            .iter()
            .map(|&v| Action::Send {
                to: v,
                msg: ToVehicle::Abort(reason.clone()),
            })
            .collect();
        actions.push(Action::Failed(err));
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{MappingAnswer, MappingTask, SensingUpload};
    use crowdwifi_core::ApEstimate;
    use crowdwifi_geo::{Point, Rect};
    use std::collections::VecDeque;

    fn segments() -> SegmentMap {
        SegmentMap::new(
            Rect::new(Point::new(0.0, -20.0), Point::new(300.0, 80.0)).unwrap(),
            150.0,
        )
    }

    fn core(fleet: &[u32]) -> ServerCore {
        let ids: Vec<VehicleId> = fleet.iter().map(|&v| VehicleId(v)).collect();
        ServerCore::new(segments(), &ids, PlatformConfig::default(), Registry::new())
            .expect("valid core")
    }

    /// A five-vehicle core that asks three labels per task, so the
    /// round survives one quarantined vehicle.
    fn core5() -> ServerCore {
        let ids: Vec<VehicleId> = (0..5).map(VehicleId).collect();
        let config = PlatformConfig {
            workers_per_task: 3,
            seed: 11,
            ..PlatformConfig::default()
        };
        ServerCore::new(segments(), &ids, config, Registry::new()).expect("valid core")
    }

    /// An upload claiming to come from `vehicle`, sensing one AP at
    /// `(x, 30)`.
    fn upload(vehicle: u32, x: f64) -> SensingUpload {
        SensingUpload {
            vehicle: VehicleId(vehicle),
            estimates: vec![ApEstimate {
                position: Point::new(x, 30.0),
                credit: 2.0,
            }],
        }
    }

    fn sent(from: u32, up: SensingUpload) -> Event {
        Event::Message {
            now: VirtualInstant::from_micros(1),
            from: VehicleId(from),
            msg: ToServer::Upload(up),
        }
    }

    /// Every vehicle in `vehicles` uploads its own estimate near x = 40.
    fn own_uploads(vehicles: std::ops::Range<u32>) -> impl DoubleEndedIterator<Item = Event> {
        vehicles.map(|v| sent(v, upload(v, 40.0 + f64::from(v))))
    }

    /// `to` answers every task in `tasks` with `label`.
    fn answers(to: VehicleId, tasks: &[MappingTask], label: i8) -> Event {
        Event::Message {
            now: VirtualInstant::from_micros(2),
            from: to,
            msg: ToServer::Answers(
                tasks
                    .iter()
                    .map(|task| MappingAnswer {
                        vehicle: to,
                        task_id: task.task_id,
                        label,
                    })
                    .collect(),
            ),
        }
    }

    /// Feeds `events` in order and answers every assignment with
    /// "exists"; returns how the round ended.
    fn run(c: &mut ServerCore, events: impl IntoIterator<Item = Event>) -> Result<PlatformReport> {
        run_with(c, events, |to, tasks| answers(to, tasks, 1))
    }

    /// [`run`] with `reply` producing each assigned vehicle's response.
    fn run_with(
        c: &mut ServerCore,
        events: impl IntoIterator<Item = Event>,
        reply: impl FnMut(VehicleId, &[MappingTask]) -> Event,
    ) -> Result<PlatformReport> {
        drive(c, events, reply, false)
    }

    /// The harness loop: replies to one batch of actions are queued in
    /// action order, or last to first with `reverse_replies`.
    fn drive(
        c: &mut ServerCore,
        events: impl IntoIterator<Item = Event>,
        mut reply: impl FnMut(VehicleId, &[MappingTask]) -> Event,
        reverse_replies: bool,
    ) -> Result<PlatformReport> {
        let mut queue: VecDeque<Event> = events.into_iter().collect();
        let mut actions = Vec::new();
        loop {
            let mut replies = Vec::new();
            for action in actions {
                match action {
                    Action::Send {
                        to,
                        msg: ToVehicle::Assign(tasks),
                    } if !tasks.is_empty() => replies.push(reply(to, &tasks)),
                    Action::Completed(report) => return Ok(*report),
                    Action::Failed(e) => return Err(e),
                    _ => {}
                }
            }
            if reverse_replies {
                replies.reverse();
            }
            queue.extend(replies);
            let event = queue.pop_front().expect("round left undecided");
            actions = c.handle(event);
        }
    }

    #[test]
    fn round_outcome_does_not_depend_on_arrival_order() {
        // A transport may deliver uploads and answers in any order. The
        // report and the deterministic metrics must not notice. (The
        // state digest is not compared: it records answers in arrival
        // order.)
        let mut forward = core5();
        let forward = run(&mut forward, own_uploads(0..5)).expect("round completes");
        let mut reversed = core5();
        let reversed = drive(
            &mut reversed,
            own_uploads(0..5).rev(),
            |to, tasks| answers(to, tasks, 1),
            true,
        )
        .expect("round completes");
        assert!(!forward.fused.is_empty());
        assert_eq!(
            format!("{:?}", forward.deterministic()),
            format!("{:?}", reversed.deterministic())
        );
        assert_eq!(
            forward.metrics.deterministic().to_json(),
            reversed.metrics.deterministic().to_json()
        );
    }

    #[test]
    fn replacement_upload_replaces_the_first() {
        // Vehicle 0 uploads twice while uploads are open; the fused map
        // must be the one a single upload of the second copy produces.
        let mut twice = core5();
        let events = [sent(0, upload(0, 40.0))]
            .into_iter()
            .chain(own_uploads(1..4))
            .chain([sent(0, upload(0, 47.0))])
            .chain(own_uploads(4..5));
        let twice = run(&mut twice, events).expect("round completes");
        let once = |x: f64| {
            let mut c = core5();
            let events = [sent(0, upload(0, x))].into_iter().chain(own_uploads(1..5));
            run(&mut c, events).expect("round completes").fused
        };
        assert!(!twice.fused.is_empty());
        assert_eq!(format!("{:?}", twice.fused), format!("{:?}", once(47.0)));
        assert_ne!(
            format!("{:?}", twice.fused),
            format!("{:?}", once(40.0)),
            "the two uploads must fuse differently for this test to bite"
        );
    }

    #[test]
    fn upload_under_an_unknown_identity_quarantines_the_sender() {
        let mut c = core5();
        let events = [sent(0, upload(99, 40.0))]
            .into_iter()
            .chain(own_uploads(1..5));
        let report = run(&mut c, events).expect("one forged upload must not fail the round");
        assert_eq!(report.dead_vehicles(), vec![VehicleId(0)]);
        assert_eq!(report.fates[&VehicleId(0)].fate, VehicleFate::Quarantined);
    }

    #[test]
    fn upload_under_another_vehicles_identity_cannot_replace_its_upload() {
        // Vehicle 0 re-sends as vehicle 1 after vehicle 1's own upload.
        // The round must end exactly as if vehicle 0 had sent garbage.
        let mut forged = core5();
        let events = own_uploads(1..2)
            .chain([sent(0, upload(1, 200.0))])
            .chain(own_uploads(2..5));
        let forged_report = run(&mut forged, events).expect("round completes");
        let mut garbled = core5();
        let events = own_uploads(1..2)
            .chain([Event::Garbled {
                now: VirtualInstant::from_micros(1),
                from: VehicleId(0),
            }])
            .chain(own_uploads(2..5));
        let garbled_report = run(&mut garbled, events).expect("round completes");

        assert_eq!(
            forged.server.upload_of(VehicleId(1)),
            Some(&upload(1, 41.0))
        );
        assert_eq!(
            forged_report.fates[&VehicleId(0)].fate,
            VehicleFate::Quarantined
        );
        assert!(!forged_report.fused.is_empty());
        assert_eq!(
            format!("{:?}", forged_report.fused),
            format!("{:?}", garbled_report.fused)
        );
        assert_eq!(forged.state_digest(), garbled.state_digest());
    }

    #[test]
    fn answer_labels_outside_plus_minus_one_quarantine_the_sender() {
        // Vehicle 0 answers every task with an out-of-range label. The
        // round must end exactly as if vehicle 0 had sent garbage at
        // the same point.
        let mut garbled = core5();
        let garbled_report = run_with(&mut garbled, own_uploads(0..5), |to, tasks| {
            if to == VehicleId(0) {
                Event::Garbled {
                    now: VirtualInstant::from_micros(2),
                    from: to,
                }
            } else {
                answers(to, tasks, 1)
            }
        })
        .expect("round completes");
        for bad in [0, 2, -2, i8::MIN] {
            let mut mislabelled = core5();
            let report = run_with(&mut mislabelled, own_uploads(0..5), |to, tasks| {
                answers(to, tasks, if to == VehicleId(0) { bad } else { 1 })
            })
            .expect("one mislabelled batch must not fail the round");
            assert_eq!(report.fates[&VehicleId(0)].fate, VehicleFate::Quarantined);
            assert!(!report.fused.is_empty());
            assert_eq!(
                format!("{:?}", report.fused),
                format!("{:?}", garbled_report.fused)
            );
            assert_eq!(mislabelled.state_digest(), garbled.state_digest());
        }
    }

    #[test]
    fn upload_with_a_non_finite_estimate_quarantines_the_sender() {
        // Vehicle 0 uploads one non-finite estimate beside a valid one.
        // The round must end exactly as if vehicle 0 had sent garbage
        // at the same point.
        let mut garbled = core5();
        let events = [Event::Garbled {
            now: VirtualInstant::from_micros(1),
            from: VehicleId(0),
        }]
        .into_iter()
        .chain(own_uploads(1..5));
        let garbled_report = run(&mut garbled, events).expect("round completes");
        let bad_estimates = [
            ApEstimate {
                position: Point::new(f64::NAN, f64::NAN),
                credit: 2.0,
            },
            ApEstimate {
                position: Point::new(f64::INFINITY, 30.0),
                credit: 2.0,
            },
            ApEstimate {
                position: Point::new(40.0, f64::NEG_INFINITY),
                credit: 2.0,
            },
            ApEstimate {
                position: Point::new(40.0, 30.0),
                credit: f64::NAN,
            },
        ];
        for bad in bad_estimates {
            let mut up = upload(0, 40.0);
            up.estimates.push(bad);
            let mut c = core5();
            let events = [sent(0, up)].into_iter().chain(own_uploads(1..5));
            let report =
                run(&mut c, events).expect("one non-finite upload must not fail the round");
            assert_eq!(report.fates[&VehicleId(0)].fate, VehicleFate::Quarantined);
            assert!(!report.fused.is_empty());
            assert_eq!(
                format!("{:?}", report.fused),
                format!("{:?}", garbled_report.fused)
            );
            assert_eq!(c.state_digest(), garbled.state_digest());
        }
    }

    #[test]
    fn messages_from_an_unregistered_link_are_inert() {
        let mut c = core5();
        let before = c.state_digest();
        for up in [upload(99, 40.0), upload(1, 40.0)] {
            assert!(c.handle(sent(99, up)).is_empty());
        }
        assert_eq!(c.state_digest(), before);
    }

    #[test]
    fn new_arms_one_upload_deadline_per_vehicle() {
        let mut c = core(&[0, 1, 2]);
        let deadline = VirtualInstant::ZERO + PlatformConfig::default().tolerance.deadline;
        assert_eq!(c.next_deadline(), Some(deadline));
        assert_eq!(c.deadlines.len(), 3);
        let early = VirtualInstant::from_micros(deadline.as_micros() - 1);
        assert!(c.handle(Event::Deadline { now: early }).is_empty());
        assert!(!c.is_finished());
    }

    #[test]
    fn released_vehicles_never_expire() {
        let mut c = core(&[0, 1]);
        let deadline = c.next_deadline().expect("armed at round start");
        // Vehicle 0 dies by report; only vehicle 1 is still owed.
        let out = c.handle(Event::Message {
            now: VirtualInstant::from_micros(10),
            from: VehicleId(0),
            msg: ToServer::Failed("engine fire".to_string()),
        });
        assert!(out.is_empty());
        let out = c.handle(Event::Deadline { now: deadline });
        let retried: Vec<VehicleId> = out
            .iter()
            .filter_map(|a| match a {
                Action::Send {
                    to,
                    msg: ToVehicle::RequestUpload,
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(retried, vec![VehicleId(1)], "a released vehicle is inert");
    }

    #[test]
    fn upload_timeout_retries_with_backoff() {
        let mut c = core(&[0, 1]);
        let deadline = c.next_deadline().expect("armed at round start");
        // One event expires both vehicles, in id order: a RequestUpload
        // retry each and a pushed-back deadline.
        let out = c.handle(Event::Deadline { now: deadline });
        let retried: Vec<VehicleId> = out
            .iter()
            .map(|a| match a {
                Action::Send {
                    to,
                    msg: ToVehicle::RequestUpload,
                } => *to,
                other => panic!("expected a retry, got {other:?}"),
            })
            .collect();
        assert_eq!(retried, vec![VehicleId(0), VehicleId(1)]);
        let tolerance = PlatformConfig::default().tolerance;
        let retry_deadline = deadline + tolerance.deadline + tolerance.retry_backoff;
        assert_eq!(c.next_deadline(), Some(retry_deadline));
        assert!(c.deadlines.values().all(|&at| at == retry_deadline));
    }

    #[test]
    fn an_orphan_handed_to_a_due_vehicle_re_arms_it_instead_of_expiring_it() {
        // Two vehicles, one label per task and no retries: both owe
        // answers by the same instant. Vehicle 0 expires first and its
        // orphans go to vehicle 1, whose fresh deadline must spare it
        // from the expiry already under way.
        let ids = [VehicleId(0), VehicleId(1)];
        let mut config = PlatformConfig {
            workers_per_task: 1,
            seed: 5,
            ..PlatformConfig::default()
        };
        config.tolerance.max_retries = 0;
        let mut c = ServerCore::new(segments(), &ids, config, Registry::new()).expect("valid");
        let mut owed = BTreeMap::new();
        for event in own_uploads(0..2) {
            for action in c.handle(event) {
                if let Action::Send {
                    to,
                    msg: ToVehicle::Assign(tasks),
                } = action
                {
                    owed.insert(to, tasks);
                }
            }
        }
        assert!(
            owed.values().all(|tasks| !tasks.is_empty()) && owed.len() == 2,
            "both vehicles must owe answers for this test to bite"
        );
        let due = c.next_deadline().expect("labeling deadlines armed");
        assert!(c.deadlines.values().all(|&at| at == due));

        let out = c.handle(Event::Deadline { now: due });
        let orphans: Vec<usize> = owed[&VehicleId(0)].iter().map(|t| t.task_id).collect();
        match &out[..] {
            [Action::Send {
                to: VehicleId(1),
                msg: ToVehicle::Assign(tasks),
            }] => assert_eq!(tasks.iter().map(|t| t.task_id).collect::<Vec<_>>(), orphans),
            other => panic!("expected only the orphan batch for vehicle 1, got {other:?}"),
        }
        assert_eq!(
            c.ledger.fates[&VehicleId(0)].fate,
            VehicleFate::TimedOut(RoundPhase::Labeling)
        );
        assert!(!c.ledger.dead.contains(&VehicleId(1)));
        assert_eq!(
            c.deadlines.get(&VehicleId(1)),
            Some(&(due + config.tolerance.deadline))
        );
        assert!(!c.is_finished());
    }

    #[test]
    fn losing_every_link_aborts_on_quorum() {
        let mut c = core(&[0, 1, 2, 3]);
        let out = c.handle(Event::LinksClosed {
            now: VirtualInstant::from_micros(5),
        });
        assert!(c.is_finished());
        let aborts = out
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Send {
                        msg: ToVehicle::Abort(_),
                        ..
                    }
                )
            })
            .count();
        assert_eq!(aborts, 4, "every vehicle is told why");
        assert!(matches!(
            out.last(),
            Some(Action::Failed(MiddlewareError::QuorumLost {
                alive: 0,
                required: 2,
                total: 4
            }))
        ));
        // Post-mortem events are inert.
        assert!(c
            .handle(Event::LinksClosed {
                now: VirtualInstant::from_micros(6)
            })
            .is_empty());
    }

    #[test]
    fn rejects_empty_and_duplicate_fleets() {
        assert!(matches!(
            ServerCore::new(segments(), &[], PlatformConfig::default(), Registry::new()),
            Err(MiddlewareError::InvalidConfig(_))
        ));
        assert!(matches!(
            ServerCore::new(
                segments(),
                &[VehicleId(7), VehicleId(7)],
                PlatformConfig::default(),
                Registry::new()
            ),
            Err(MiddlewareError::InvalidConfig(_))
        ));
    }

    #[test]
    fn clock_addition_saturates() {
        let now = VirtualInstant::from_micros(5);
        let end = VirtualInstant::from_micros(u64::MAX);
        let past_u64_micros = Duration::from_micros(u64::MAX) + Duration::from_micros(1);
        assert_eq!(now + past_u64_micros, end);
        assert_eq!(now + Duration::MAX, end);
        assert_eq!(
            now + Duration::from_nanos(1_500),
            VirtualInstant::from_micros(6)
        );
    }
}
