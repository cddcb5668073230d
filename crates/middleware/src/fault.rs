//! Deterministic fault injection for any platform transport.
//!
//! Crowdsensing lives or dies on its tolerance of unreliable
//! participants (§5.3–§5.5): vehicles crash mid-drive, cellular links
//! drop and reorder packets, and stragglers hold a round hostage. This
//! module wraps a transport's links in a seeded fault layer so all of
//! those failures can be *injected on schedule and replayed
//! byte-for-byte*:
//!
//! * [`FaultPlan`] describes link-level noise (drop / duplicate / delay
//!   probabilities) and per-vehicle misbehavior (silent crash or
//!   permanent stall at a chosen protocol point);
//! * [`FaultySender`] wraps any [`MessageSink`] — the in-memory link
//!   queues of the simulator and the fleet engine — and applies the
//!   plan's noise with a per-link [`ChaCha8Rng`], keyed by the plan
//!   seed, the vehicle id and the link direction. Two runs with the
//!   same plan therefore produce the same message-level fault sequence
//!   regardless of scheduling *and* regardless of which transport
//!   carries the messages.
//!
//! A default ([`FaultPlan::none`]) plan is perfectly transparent: no
//! extra RNG draws, no reordering, zero overhead on the healthy path.

use crate::messages::VehicleId;
use crate::{MiddlewareError, Result};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Where a [`FaultySender`] puts the messages that survive the fault
/// layer. Implemented by the transports' in-memory link queues, so one
/// fault layer serves every backend. A sink never disconnects.
pub trait MessageSink<T> {
    /// Delivers `msg`.
    fn deliver(&mut self, msg: T);
}

/// Shared count of faults a set of [`FaultySender`]s actually injected.
///
/// The plan's probabilities say what *may* happen; the tally says what
/// *did*. One tally is typically shared (via [`Arc`]) by every link of a
/// platform round, so the server can report observed fault totals next
/// to its other round metrics. Counts are exact: each is bumped with a
/// relaxed atomic add at the injection site, and the per-link RNG
/// streams make the totals replayable along with the message sequence.
#[derive(Debug, Default)]
pub struct FaultTally {
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    server_crashes: AtomicU64,
    torn_wal_tails: AtomicU64,
}

impl FaultTally {
    /// A fresh all-zero tally.
    pub fn new() -> Self {
        FaultTally::default()
    }

    /// Messages silently dropped.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Messages delivered twice.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }

    /// Messages held back past later sends (reordered).
    pub fn delayed(&self) -> u64 {
        self.delayed.load(Ordering::Relaxed)
    }

    /// Injected server crashes (any [`ServerFault`] variant).
    pub fn server_crashes(&self) -> u64 {
        self.server_crashes.load(Ordering::Relaxed)
    }

    /// Injected crashes that also mangled the WAL tail (truncation or
    /// corruption).
    pub fn torn_wal_tails(&self) -> u64 {
        self.torn_wal_tails.load(Ordering::Relaxed)
    }

    /// Total injected faults of any kind.
    pub fn total(&self) -> u64 {
        self.dropped()
            + self.duplicated()
            + self.delayed()
            + self.server_crashes()
            + self.torn_wal_tails()
    }

    /// Records one injected server crash.
    pub(crate) fn count_server_crash(&self) {
        self.server_crashes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one injected torn WAL tail.
    pub(crate) fn count_torn_wal_tail(&self) {
        self.torn_wal_tails.fetch_add(1, Ordering::Relaxed);
    }
}

/// Protocol points at which a scheduled vehicle fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultPoint {
    /// Before the vehicle runs its estimator.
    Sense,
    /// After sensing, before the coarse upload is sent.
    Upload,
    /// Upon receiving the first task assignment, before answering.
    Answer,
}

/// Scheduled misbehavior of one vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Misbehavior {
    /// The vehicle exits silently — no `Failed` report, no
    /// upload, nothing. The server only notices via its deadline.
    Crash(FaultPoint),
    /// The vehicle stops responding but keeps draining its inbox until
    /// the server hangs up (a straggler past every deadline).
    Stall(FaultPoint),
}

impl Misbehavior {
    /// The protocol point at which this misbehavior fires.
    pub fn point(&self) -> FaultPoint {
        match self {
            Misbehavior::Crash(p) | Misbehavior::Stall(p) => *p,
        }
    }
}

/// A scheduled crash of the *server* process, keyed to the index of
/// the event being handled when it fires. The crash model is
/// append-then-apply against the durability write-ahead log: what a
/// restart recovers depends on where in that sequence the process
/// died and what state the log was left in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerFault {
    /// The process dies before the in-flight event reaches the log:
    /// that event is lost outright, exactly like a message the network
    /// never delivered.
    CrashBeforeAppend,
    /// The process dies after the event is logged but before any of
    /// its effects (sends, acks) leave the building: recovery replays
    /// the event, its outputs are re-derived or retried.
    CrashAfterAppend,
    /// The process dies after appending, and the unsynced log suffix
    /// loses its last `n` bytes (a torn write at the tail).
    CrashTruncateTail(usize),
    /// The process dies after appending, and the last byte of the log
    /// is corrupted — recovery must detect the bad CRC and drop the
    /// torn tail.
    CrashCorruptTail,
}

/// Direction of a platform link, used to key per-link RNG streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDirection {
    /// Vehicle → server uplink.
    ToServer,
    /// Server → vehicle downlink.
    ToVehicle,
}

/// A replayable fault schedule for one platform round.
///
/// All probabilities are per-message; `drop + duplicate + delay` must
/// not exceed 1. Vehicle misbehaviors fire once, at their scheduled
/// [`FaultPoint`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault layer's own RNG streams (independent of the
    /// platform seed, so the same drive can be replayed under different
    /// weather).
    pub seed: u64,
    /// Probability that a message is silently dropped.
    pub drop_prob: f64,
    /// Probability that a message is delivered twice.
    pub duplicate_prob: f64,
    /// Probability that a message is held back and delivered after up
    /// to [`FaultPlan::max_delay`] later messages on the same link
    /// (reordering). Only a later send on that link, or the link
    /// closing, releases a held message — no clock does. On an idle
    /// link a delay therefore acts like a drop until the server's retry
    /// makes the vehicle send again, so a delay-heavy plan needs more
    /// `max_retries` than a drop rate of the same size.
    pub delay_prob: f64,
    /// Maximum number of later messages a delayed message lets pass.
    pub max_delay: usize,
    vehicle_faults: BTreeMap<VehicleId, Misbehavior>,
    /// Server crash schedule, keyed by the 0-based index of the event
    /// the server is handling when the crash fires. Each entry fires
    /// at most once.
    server_faults: BTreeMap<u64, ServerFault>,
    /// Campaign snapshot writes (by 0-based write sequence) that are
    /// torn mid-write.
    torn_snapshots: BTreeSet<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The empty plan: fully transparent links, no misbehavior.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            delay_prob: 0.0,
            max_delay: 2,
            vehicle_faults: BTreeMap::new(),
            server_faults: BTreeMap::new(),
            torn_snapshots: BTreeSet::new(),
        }
    }

    /// A plan with message-level noise only, seeded for replay.
    pub fn noisy(seed: u64, drop_prob: f64, duplicate_prob: f64, delay_prob: f64) -> Self {
        FaultPlan {
            seed,
            drop_prob,
            duplicate_prob,
            delay_prob,
            ..FaultPlan::none()
        }
    }

    /// Schedules a silent crash for `vehicle` at `point`.
    pub fn crash(mut self, vehicle: VehicleId, point: FaultPoint) -> Self {
        self.vehicle_faults
            .insert(vehicle, Misbehavior::Crash(point));
        self
    }

    /// Schedules a permanent stall for `vehicle` at `point`.
    pub fn stall(mut self, vehicle: VehicleId, point: FaultPoint) -> Self {
        self.vehicle_faults
            .insert(vehicle, Misbehavior::Stall(point));
        self
    }

    /// The misbehavior scheduled for `vehicle`, if any.
    pub fn misbehavior(&self, vehicle: VehicleId) -> Option<Misbehavior> {
        self.vehicle_faults.get(&vehicle).copied()
    }

    /// Schedules a server crash at the event with 0-based sequence
    /// index `event_index`. The decision is a pure function of the
    /// index, so the same plan over the same event stream always
    /// crashes at the same place — the chaos harness's replayability
    /// contract.
    pub fn server_crash(mut self, event_index: u64, fault: ServerFault) -> Self {
        self.server_faults.insert(event_index, fault);
        self
    }

    /// Schedules the campaign snapshot with write sequence `seq` to be
    /// torn mid-write.
    pub fn torn_snapshot(mut self, seq: u64) -> Self {
        self.torn_snapshots.insert(seq);
        self
    }

    /// The server crash scheduled for the event at `event_index`, if
    /// any.
    pub fn server_fault(&self, event_index: u64) -> Option<ServerFault> {
        self.server_faults.get(&event_index).copied()
    }

    /// Whether any server-side crash is scheduled.
    pub fn has_server_faults(&self) -> bool {
        !self.server_faults.is_empty()
    }

    /// Whether the snapshot write with sequence `seq` is scheduled to
    /// be torn.
    pub fn snapshot_torn(&self, seq: u64) -> bool {
        self.torn_snapshots.contains(&seq)
    }

    /// Whether the plan perturbs messages at all.
    pub fn is_noisy(&self) -> bool {
        self.drop_prob > 0.0 || self.duplicate_prob > 0.0 || self.delay_prob > 0.0
    }

    /// Checks the plan's probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::InvalidConfig`] when any probability
    /// is outside `[0, 1]`, non-finite, or their sum exceeds 1.
    pub fn validate(&self) -> Result<()> {
        let probs = [
            ("drop_prob", self.drop_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("delay_prob", self.delay_prob),
        ];
        for (name, p) in probs {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(MiddlewareError::InvalidConfig(format!(
                    "fault plan {name} must lie in [0, 1], got {p}"
                )));
            }
        }
        let total = self.drop_prob + self.duplicate_prob + self.delay_prob;
        if total > 1.0 {
            return Err(MiddlewareError::InvalidConfig(format!(
                "fault plan probabilities sum to {total} > 1"
            )));
        }
        if self.delay_prob > 0.0 && self.max_delay == 0 {
            return Err(MiddlewareError::InvalidConfig(
                "delay_prob > 0 requires max_delay >= 1".to_string(),
            ));
        }
        Ok(())
    }

    /// Wraps a sink in this plan's noise for one link, counting
    /// injected faults into `tally` (shared across links, so one tally
    /// can cover a whole round). Noiseless plans produce a
    /// zero-overhead pass-through.
    pub fn sender_tallied<T: Clone, S: MessageSink<T>>(
        &self,
        tx: S,
        vehicle: VehicleId,
        direction: LinkDirection,
        tally: Option<Arc<FaultTally>>,
    ) -> FaultySender<T, S> {
        let noise = if self.is_noisy() {
            Some(LinkNoise {
                rng: ChaCha8Rng::seed_from_u64(link_seed(self.seed, vehicle, direction)),
                drop_prob: self.drop_prob,
                duplicate_prob: self.duplicate_prob,
                delay_prob: self.delay_prob,
                max_delay: self.max_delay.max(1),
                held: Vec::new(),
            })
        } else {
            None
        };
        FaultySender { tx, noise, tally }
    }
}

/// Derives a per-link seed from the plan seed, vehicle and direction
/// (splitmix64 finalizer — avalanches even adjacent vehicle ids).
fn link_seed(seed: u64, vehicle: VehicleId, direction: LinkDirection) -> u64 {
    let dir = match direction {
        LinkDirection::ToServer => 0u64,
        LinkDirection::ToVehicle => 1u64,
    };
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(vehicle.0) * 2 + dir + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct LinkNoise<T> {
    rng: ChaCha8Rng,
    drop_prob: f64,
    duplicate_prob: f64,
    delay_prob: f64,
    max_delay: usize,
    /// Delayed messages: `(sends still to let pass, message)`.
    held: Vec<(usize, T)>,
}

/// A link sender that applies a seeded fault schedule: messages may be
/// dropped, duplicated, or held back past later sends. With no noise
/// configured it is a plain pass-through. Held messages are flushed in
/// order when their countdown expires and, last-resort, when the sender
/// is dropped (in-flight packets still land after the sender hangs up).
pub struct FaultySender<T, S: MessageSink<T>> {
    tx: S,
    noise: Option<LinkNoise<T>>,
    tally: Option<Arc<FaultTally>>,
}

impl<T: Clone, S: MessageSink<T>> FaultySender<T, S> {
    /// Sends `msg` through the fault layer. Injected drops are silent
    /// (the sender cannot tell its packet was lost — that is the
    /// point).
    pub fn send(&mut self, msg: T) {
        let Some(noise) = self.noise.as_mut() else {
            return self.tx.deliver(msg);
        };
        // Age held messages; flush, in hold order, those whose countdown
        // of later sends has expired.
        let mut still_held = Vec::with_capacity(noise.held.len());
        for (left, held_msg) in noise.held.drain(..) {
            if left <= 1 {
                self.tx.deliver(held_msg);
            } else {
                still_held.push((left - 1, held_msg));
            }
        }
        noise.held = still_held;

        let u: f64 = noise.rng.random_range(0.0..1.0);
        if u < noise.drop_prob {
            if let Some(t) = &self.tally {
                t.dropped.fetch_add(1, Ordering::Relaxed);
            }
            return;
        }
        if u < noise.drop_prob + noise.duplicate_prob {
            if let Some(t) = &self.tally {
                t.duplicated.fetch_add(1, Ordering::Relaxed);
            }
            self.tx.deliver(msg.clone());
            return self.tx.deliver(msg);
        }
        if u < noise.drop_prob + noise.duplicate_prob + noise.delay_prob {
            if let Some(t) = &self.tally {
                t.delayed.fetch_add(1, Ordering::Relaxed);
            }
            let k = noise.rng.random_range(1..=noise.max_delay);
            noise.held.push((k, msg));
            return;
        }
        self.tx.deliver(msg);
    }
}

impl<T, S: MessageSink<T>> Drop for FaultySender<T, S> {
    fn drop(&mut self) {
        if let Some(noise) = self.noise.as_mut() {
            for (_, msg) in noise.held.drain(..) {
                self.tx.deliver(msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// An in-memory sink recording every delivered message in order.
    struct VecSink(Rc<RefCell<Vec<u32>>>);

    impl MessageSink<u32> for VecSink {
        fn deliver(&mut self, msg: u32) {
            self.0.borrow_mut().push(msg);
        }
    }

    /// A link of `plan` into a fresh [`VecSink`], plus the sink's log.
    fn link(
        plan: &FaultPlan,
        vehicle: VehicleId,
        direction: LinkDirection,
        tally: Option<Arc<FaultTally>>,
    ) -> (FaultySender<u32, VecSink>, Rc<RefCell<Vec<u32>>>) {
        let log = Rc::new(RefCell::new(Vec::new()));
        let sender = plan.sender_tallied(VecSink(Rc::clone(&log)), vehicle, direction, tally);
        (sender, log)
    }

    fn drain(rx: &Rc<RefCell<Vec<u32>>>) -> Vec<u32> {
        std::mem::take(&mut *rx.borrow_mut())
    }

    #[test]
    fn transparent_plan_passes_everything_through_in_order() {
        let (mut s, rx) = link(
            &FaultPlan::none(),
            VehicleId(0),
            LinkDirection::ToServer,
            None,
        );
        for i in 0..10 {
            s.send(i);
        }
        assert_eq!(drain(&rx), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn drop_probability_one_loses_everything() {
        let plan = FaultPlan::noisy(1, 1.0, 0.0, 0.0);
        let (mut s, rx) = link(&plan, VehicleId(0), LinkDirection::ToServer, None);
        for i in 0..10 {
            s.send(i);
        }
        drop(s);
        assert!(drain(&rx).is_empty());
    }

    #[test]
    fn duplicate_probability_one_doubles_everything() {
        let plan = FaultPlan::noisy(1, 0.0, 1.0, 0.0);
        let (mut s, rx) = link(&plan, VehicleId(0), LinkDirection::ToServer, None);
        for i in 0..5 {
            s.send(i);
        }
        assert_eq!(drain(&rx), vec![0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
    }

    #[test]
    fn delayed_messages_reorder_but_are_never_lost() {
        let mut plan = FaultPlan::noisy(7, 0.0, 0.0, 0.5);
        plan.max_delay = 2;
        let (mut s, rx) = link(&plan, VehicleId(3), LinkDirection::ToVehicle, None);
        for i in 0..50 {
            s.send(i);
        }
        drop(s); // flush any still-held tail
        let mut got = drain(&rx);
        assert_eq!(
            got.len(),
            50,
            "no message may vanish under delay-only noise"
        );
        got.sort_unstable();
        assert_eq!(got, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn same_plan_same_link_is_replayable() {
        let run = || {
            let plan = FaultPlan::noisy(42, 0.2, 0.1, 0.2);
            let (mut s, rx) = link(&plan, VehicleId(1), LinkDirection::ToServer, None);
            for i in 0..100 {
                s.send(i);
            }
            drop(s);
            drain(&rx)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn links_get_independent_streams() {
        assert_ne!(
            link_seed(0, VehicleId(0), LinkDirection::ToServer),
            link_seed(0, VehicleId(0), LinkDirection::ToVehicle)
        );
        assert_ne!(
            link_seed(0, VehicleId(0), LinkDirection::ToServer),
            link_seed(0, VehicleId(1), LinkDirection::ToServer)
        );
    }

    #[test]
    fn plan_validation_rejects_nonsense() {
        assert!(FaultPlan::noisy(0, 1.1, 0.0, 0.0).validate().is_err());
        assert!(FaultPlan::noisy(0, 0.6, 0.6, 0.0).validate().is_err());
        assert!(FaultPlan::noisy(0, -0.1, 0.0, 0.0).validate().is_err());
        let mut bad_delay = FaultPlan::noisy(0, 0.0, 0.0, 0.5);
        bad_delay.max_delay = 0;
        assert!(bad_delay.validate().is_err());
        assert!(FaultPlan::none().validate().is_ok());
        assert!(FaultPlan::noisy(0, 0.3, 0.3, 0.3).validate().is_ok());
    }

    #[test]
    fn tally_counts_injected_faults_exactly() {
        let tally = Arc::new(FaultTally::new());
        let (mut s, rx) = link(
            &FaultPlan::noisy(9, 0.3, 0.3, 0.3),
            VehicleId(0),
            LinkDirection::ToServer,
            Some(Arc::clone(&tally)),
        );
        for i in 0..200u32 {
            s.send(i);
        }
        drop(s);
        let delivered = drain(&rx).len() as u64;
        // Conservation: every message is delivered once, plus one extra
        // per duplicate, minus one per drop (delays only reorder).
        assert_eq!(delivered, 200 - tally.dropped() + tally.duplicated());
        assert!(tally.dropped() > 0 && tally.duplicated() > 0 && tally.delayed() > 0);
        assert_eq!(
            tally.total(),
            tally.dropped() + tally.duplicated() + tally.delayed()
        );
    }

    #[test]
    fn server_crash_schedule_is_a_pure_function_of_the_index() {
        let plan = FaultPlan::none()
            .server_crash(3, ServerFault::CrashBeforeAppend)
            .server_crash(9, ServerFault::CrashTruncateTail(5))
            .torn_snapshot(1);
        assert_eq!(plan.server_fault(3), Some(ServerFault::CrashBeforeAppend));
        assert_eq!(
            plan.server_fault(9),
            Some(ServerFault::CrashTruncateTail(5))
        );
        assert_eq!(plan.server_fault(4), None);
        assert!(plan.has_server_faults());
        assert!(!FaultPlan::none().has_server_faults());
        assert!(plan.snapshot_torn(1));
        assert!(!plan.snapshot_torn(0));
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn misbehavior_schedule_round_trips() {
        let plan = FaultPlan::none()
            .crash(VehicleId(1), FaultPoint::Upload)
            .stall(VehicleId(2), FaultPoint::Answer);
        assert_eq!(
            plan.misbehavior(VehicleId(1)),
            Some(Misbehavior::Crash(FaultPoint::Upload))
        );
        assert_eq!(
            plan.misbehavior(VehicleId(2)),
            Some(Misbehavior::Stall(FaultPoint::Answer))
        );
        assert_eq!(plan.misbehavior(VehicleId(0)), None);
        assert_eq!(
            Misbehavior::Stall(FaultPoint::Answer).point(),
            FaultPoint::Answer
        );
    }
}
