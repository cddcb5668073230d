//! Round configuration, the round report, and the labeling-phase
//! bookkeeping shared by every transport backend.

use super::fates::{FateRecord, RoundHealth, VehicleFate};
use crate::messages::codec_err;
use crate::messages::VehicleId;
use crate::server::RoundOutcome;
use crate::vehicle::VehicleExit;
use crate::wire::{self, WireMessage, WireReader};
use crate::{MiddlewareError, Result};
use crowdwifi_crowd::fusion::FusedAp;
use crowdwifi_obs::Snapshot;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// Reliability multiplier applied to vehicles that died mid-round.
pub(crate) const DEAD_RELIABILITY_FACTOR: f64 = 0.5;

/// Fault-tolerance knobs of the round protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultTolerance {
    /// How long the server waits for a vehicle's upload or answers
    /// before retrying; at least 1 µs, the virtual clock's tick.
    pub deadline: Duration,
    /// Extra wait added per retry (linear backoff: retry `k` waits
    /// `deadline + k * retry_backoff`). The wait saturates instead of
    /// overflowing, so any backoff is accepted.
    pub retry_backoff: Duration,
    /// Retries per vehicle per phase before it is declared dead.
    pub max_retries: u32,
    /// Fraction of the fleet (in `(0, 1]`) that must complete the round
    /// for it to finish — degraded — instead of erroring out with
    /// [`MiddlewareError::QuorumLost`].
    pub quorum: f64,
}

impl Default for FaultTolerance {
    fn default() -> Self {
        FaultTolerance {
            deadline: Duration::from_secs(2),
            retry_backoff: Duration::from_millis(250),
            max_retries: 2,
            quorum: 0.5,
        }
    }
}

/// Configuration of one platform round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlatformConfig {
    /// Bootstrap (random) patterns per active segment.
    pub bootstrap_patterns: usize,
    /// Crowd-vehicles assigned per mapping task.
    pub workers_per_task: usize,
    /// Fusion merge radius in meters.
    pub merge_radius: f64,
    /// Vehicles at or below this inferred reliability are excluded from
    /// fusion.
    pub spammer_cutoff: f64,
    /// Base RNG seed; vehicle `i` uses `seed + i + 1`, wrapping at
    /// `u64::MAX`.
    pub seed: u64,
    /// Deadlines, retries and the completion quorum.
    pub tolerance: FaultTolerance,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            bootstrap_patterns: 2,
            workers_per_task: 5,
            merge_radius: 25.0,
            spammer_cutoff: 0.3,
            seed: 0,
            tolerance: FaultTolerance::default(),
        }
    }
}

impl WireMessage for PlatformConfig {
    fn encode_binary(&self, out: &mut Vec<u8>) {
        wire::put_header(out, wire::TAG_CONFIG);
        wire::put_varint(out, self.bootstrap_patterns as u64);
        wire::put_varint(out, self.workers_per_task as u64);
        wire::put_f64(out, self.merge_radius);
        wire::put_f64(out, self.spammer_cutoff);
        wire::put_varint(out, self.seed);
        wire::put_duration(out, self.tolerance.deadline);
        wire::put_duration(out, self.tolerance.retry_backoff);
        wire::put_varint(out, u64::from(self.tolerance.max_retries));
        wire::put_f64(out, self.tolerance.quorum);
    }

    fn decode_body(r: &mut WireReader<'_>) -> Result<Self> {
        match r.header()? {
            wire::TAG_CONFIG => {}
            t => {
                return Err(codec_err(format!(
                    "unknown PlatformConfig binary tag {t:#04x}"
                )))
            }
        }
        Ok(PlatformConfig {
            bootstrap_patterns: r.usize()?,
            workers_per_task: r.usize()?,
            merge_radius: r.f64()?,
            spammer_cutoff: r.f64()?,
            seed: r.varint()?,
            tolerance: FaultTolerance {
                deadline: r.duration()?,
                retry_backoff: r.duration()?,
                max_retries: r.u32()?,
                quorum: r.f64()?,
            },
        })
    }
}

/// Checks a [`PlatformConfig`] before any driver starts, so bad knobs
/// surface as a typed error instead of a downstream panic or silently
/// nonsensical round.
pub fn validate_config(config: &PlatformConfig) -> Result<()> {
    let reject = |why: String| Err(MiddlewareError::InvalidConfig(why));
    if config.workers_per_task == 0 {
        return reject("workers_per_task must be at least 1".to_string());
    }
    if !config.spammer_cutoff.is_finite() || !(0.0..=1.0).contains(&config.spammer_cutoff) {
        return reject(format!(
            "spammer_cutoff must lie in [0, 1], got {}",
            config.spammer_cutoff
        ));
    }
    if !config.merge_radius.is_finite() || config.merge_radius <= 0.0 {
        return reject(format!(
            "merge_radius must be positive and finite, got {}",
            config.merge_radius
        ));
    }
    let t = &config.tolerance;
    if t.deadline < Duration::from_micros(1) {
        return reject(format!(
            "tolerance.deadline must be at least 1 µs, the virtual clock's tick; got {:?}",
            t.deadline
        ));
    }
    if !t.quorum.is_finite() || t.quorum <= 0.0 || t.quorum > 1.0 {
        return reject(format!(
            "tolerance.quorum must lie in (0, 1], got {}",
            t.quorum
        ));
    }
    Ok(())
}

/// Result of a full platform round.
#[derive(Debug, Clone)]
pub struct PlatformReport {
    /// The crowdsourcing outcome (accepted patterns, reliabilities).
    pub outcome: RoundOutcome,
    /// The fused fine-grained AP estimates, fused shard by shard
    /// (road segment by road segment) and concatenated in segment-id
    /// order.
    pub fused: Vec<FusedAp>,
    /// Whether the round needed any recovery action.
    pub health: RoundHealth,
    /// Server-side fate of every vehicle in the fleet.
    pub fates: BTreeMap<VehicleId, FateRecord>,
    /// Vehicle-side exit classification (how each driver-side vehicle
    /// ended).
    pub exits: BTreeMap<VehicleId, VehicleExit>,
    /// Mapping tasks moved from dead vehicles to healthy ones.
    pub reassigned_tasks: usize,
    /// Label slots that could not be reassigned (coverage lost against
    /// the intended (ℓ,γ)-regular assignment).
    pub lost_label_slots: usize,
    /// Round metrics: per-phase timers, retry / fate / reassignment
    /// counters, observed fault-injection totals, fleet / quorum /
    /// shard gauges, plus a `vehicle.dead` event per casualty. The
    /// [`Snapshot::deterministic`] projection (which drops the timing
    /// histograms) is byte-identical across same-seed runs of the same
    /// fleet, config and fault plan — on *any* transport backend.
    pub metrics: Snapshot,
}

impl PlatformReport {
    /// Vehicles the server declared dead this round.
    pub fn dead_vehicles(&self) -> Vec<VehicleId> {
        self.fates
            .iter()
            .filter(|(_, r)| r.fate != VehicleFate::Completed)
            .map(|(&v, _)| v)
            .collect()
    }

    /// The transport-independent projection of this report: everything
    /// except timing histograms, which measure clock spans. Two
    /// same-seed rounds of the same fleet, config and fault plan
    /// produce identical projections on every backend.
    pub fn deterministic(&self) -> PlatformReport {
        PlatformReport {
            metrics: self.metrics.deterministic(),
            ..self.clone()
        }
    }
}

/// Mutable state of the answer-collection phase, grouped so the
/// reassignment path can be one method shared by every backend.
#[derive(Debug, Default)]
pub(crate) struct LabelingState {
    /// Tasks each vehicle still owes, by task id.
    pub(crate) outstanding: BTreeMap<VehicleId, BTreeSet<usize>>,
    /// (vehicle, task) pairs already answered, so reassignment never
    /// hands a task back to a vehicle whose label is already counted.
    pub(crate) answered: BTreeSet<(VehicleId, usize)>,
    /// Each alive vehicle's load: labels given plus labels still owed.
    /// An answer moves a task from owed to given, so only assignment,
    /// reassignment and death change a load.
    load: BTreeMap<VehicleId, usize>,
    /// The same alive vehicles ordered by `(load, id)`: reassignment's
    /// candidate order.
    by_load: BTreeSet<(usize, VehicleId)>,
    pub(crate) reassigned: usize,
    pub(crate) lost: usize,
}

impl LabelingState {
    /// Opens labeling for alive vehicle `v`, which now owes `tasks`.
    pub(crate) fn enlist(&mut self, v: VehicleId, tasks: BTreeSet<usize>) {
        self.load.insert(v, tasks.len());
        self.by_load.insert((tasks.len(), v));
        if !tasks.is_empty() {
            self.outstanding.insert(v, tasks);
        }
    }

    /// Moves the orphaned tasks of dead `v` to healthy candidates: for
    /// each orphan, the least-loaded survivor (ties to the lower id)
    /// that has neither answered nor currently holds the task. That is
    /// the first eligible entry of the `(load, id)` index, and only the
    /// task's few holders are ineligible, so a pick costs O(log fleet).
    /// Unplaceable orphans count as lost label slots. Returns the task
    /// ids each survivor must be sent (and armed a fresh deadline for).
    pub(crate) fn reassign_orphans(&mut self, v: VehicleId) -> BTreeMap<VehicleId, Vec<usize>> {
        if let Some(load) = self.load.remove(&v) {
            self.by_load.remove(&(load, v));
        }
        let orphans = self.outstanding.remove(&v).unwrap_or_default();
        let mut batches: BTreeMap<VehicleId, Vec<usize>> = BTreeMap::new();
        for task_id in orphans {
            let eligible = |w: VehicleId| {
                !self.answered.contains(&(w, task_id))
                    && !self
                        .outstanding
                        .get(&w)
                        .is_some_and(|s| s.contains(&task_id))
            };
            let candidate = self.by_load.iter().map(|&(_, w)| w).find(|&w| eligible(w));
            match candidate {
                Some(w) => {
                    self.outstanding.entry(w).or_default().insert(task_id);
                    let load = self.load.get_mut(&w).expect("indexed vehicle");
                    self.by_load.remove(&(*load, w));
                    *load += 1;
                    self.by_load.insert((*load, w));
                    batches.entry(w).or_default().push(task_id);
                    self.reassigned += 1;
                }
                // Every survivor already labeled (or holds) this task:
                // the label slot is unrecoverable.
                None => self.lost += 1,
            }
        }
        batches
    }
}

/// Folds one round's inferred reliabilities into the campaign's
/// long-run EMA (`q ← α·round + (1−α)·previous`, 0.5 prior), updating
/// both the report and the cross-round state. Shared by every
/// transport's campaign driver so a spammer cannot whitewash itself by
/// switching backends.
pub(crate) fn smooth_reliabilities(
    report: &mut PlatformReport,
    long_run: &mut BTreeMap<VehicleId, f64>,
    smoothing: f64,
) {
    for (vehicle, q) in report.outcome.reliabilities.iter_mut() {
        let prev = long_run.get(vehicle).copied().unwrap_or(0.5);
        *q = smoothing * *q + (1.0 - smoothing) * prev;
        long_run.insert(*vehicle, *q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The survivor scan the index replaced: per orphan, the eligible
    /// survivor with the least `(load, id)`, loads recounted from the
    /// ledger.
    #[derive(Debug, Default)]
    struct Scan {
        outstanding: BTreeMap<VehicleId, BTreeSet<usize>>,
        answered: BTreeSet<(VehicleId, usize)>,
        alive: BTreeSet<VehicleId>,
        reassigned: usize,
        lost: usize,
    }

    impl Scan {
        fn reassign_orphans(&mut self, v: VehicleId) -> BTreeMap<VehicleId, Vec<usize>> {
            self.alive.remove(&v);
            let orphans = self.outstanding.remove(&v).unwrap_or_default();
            let mut load: BTreeMap<VehicleId, usize> = self
                .alive
                .iter()
                .map(|&w| {
                    let done = self.answered.iter().filter(|&&(a, _)| a == w).count();
                    let owed = self.outstanding.get(&w).map_or(0, BTreeSet::len);
                    (w, done + owed)
                })
                .collect();
            let mut batches: BTreeMap<VehicleId, Vec<usize>> = BTreeMap::new();
            for task_id in orphans {
                let candidate = self
                    .alive
                    .iter()
                    .copied()
                    .filter(|&w| {
                        !self.answered.contains(&(w, task_id))
                            && !self
                                .outstanding
                                .get(&w)
                                .is_some_and(|s| s.contains(&task_id))
                    })
                    .min_by_key(|&w| (load[&w], w.0));
                match candidate {
                    Some(w) => {
                        self.outstanding.entry(w).or_default().insert(task_id);
                        *load.get_mut(&w).unwrap() += 1;
                        batches.entry(w).or_default().push(task_id);
                        self.reassigned += 1;
                    }
                    None => self.lost += 1,
                }
            }
            batches
        }
    }

    /// `w` answers `task` if it owes it, on both ledgers alike.
    fn answer(
        outstanding: &mut BTreeMap<VehicleId, BTreeSet<usize>>,
        answered: &mut BTreeSet<(VehicleId, usize)>,
        w: VehicleId,
        task: usize,
    ) {
        if let Some(owed) = outstanding.get_mut(&w) {
            if owed.remove(&task) {
                answered.insert((w, task));
            }
            if owed.is_empty() {
                outstanding.remove(&w);
            }
        }
    }

    proptest! {
        #[test]
        fn indexed_reassignment_matches_the_survivor_scan(
            owed in collection::vec(collection::vec(0usize..8, 0..5), 1..12),
            ops in collection::vec((any::<bool>(), 0usize..12, 0usize..8), 0..40),
        ) {
            // Sparse, unordered ids, so id order and fleet order differ.
            let id = |i: usize| VehicleId(((i * 7 + 3) % 23) as u32);
            let mut index = LabelingState::default();
            let mut scan = Scan::default();
            for (i, tasks) in owed.iter().enumerate() {
                let tasks: BTreeSet<usize> = tasks.iter().copied().collect();
                index.enlist(id(i), tasks.clone());
                scan.alive.insert(id(i));
                if !tasks.is_empty() {
                    scan.outstanding.insert(id(i), tasks);
                }
            }
            for (dies, who, task) in ops {
                let w = id(who % owed.len());
                if !scan.alive.contains(&w) {
                    continue;
                }
                if dies {
                    prop_assert_eq!(index.reassign_orphans(w), scan.reassign_orphans(w));
                } else {
                    answer(&mut index.outstanding, &mut index.answered, w, task);
                    answer(&mut scan.outstanding, &mut scan.answered, w, task);
                }
                prop_assert_eq!(&index.outstanding, &scan.outstanding);
                prop_assert_eq!(&index.answered, &scan.answered);
                prop_assert_eq!((index.reassigned, index.lost), (scan.reassigned, scan.lost));
            }
        }
    }
}
