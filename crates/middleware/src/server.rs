//! The crowd-server: task assignment, reliability inference and
//! fine-grained estimation.

use crate::messages::{MappingAnswer, MappingTask, Pattern, SensingUpload, VehicleId};
use crate::segment::SegmentMap;
use crate::{MiddlewareError, Result};
use crowdwifi_crowd::em::EmAggregator;
use crowdwifi_crowd::fusion::FusedAp;
use crowdwifi_crowd::graph::BipartiteAssignment;
use crowdwifi_crowd::LabelMatrix;
use crowdwifi_geo::Point;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;

/// Participating-fleet size at which task assignment switches from the
/// full-pool shuffle to index sampling. Small fleets keep the original
/// RNG draw sequence (seed-stable against the existing test corpus);
/// large fleets draw `workers_per_task` indices per task instead of
/// shuffling the whole pool per task, turning an `O(tasks × fleet)`
/// assignment into `O(tasks × workers_per_task)`.
const SAMPLED_ASSIGNMENT_FLOOR: usize = 65;

/// Outcome of one crowdsourcing round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Patterns the inference accepted as existing (ẑ = +1).
    pub accepted_patterns: Vec<Pattern>,
    /// Inferred reliability per vehicle, in `[0, 1]`.
    pub reliabilities: BTreeMap<VehicleId, f64>,
    /// Whether reliability inference converged within its iteration
    /// budget.
    pub converged: bool,
}

/// The crowd-server.
#[derive(Debug)]
pub struct CrowdServer {
    segments: SegmentMap,
    vehicles: Vec<VehicleId>,
    /// Set mirror of `vehicles` for `O(log n)` membership checks; the
    /// `Vec` stays authoritative for registration order.
    registered: std::collections::BTreeSet<VehicleId>,
    opted_out: std::collections::BTreeSet<VehicleId>,
    uploads: BTreeMap<VehicleId, SensingUpload>,
    patterns: Vec<Pattern>,
    answers: Vec<MappingAnswer>,
    reliabilities: BTreeMap<VehicleId, f64>,
}

impl CrowdServer {
    /// Creates a server over the given segment map.
    pub fn new(segments: SegmentMap) -> Self {
        CrowdServer {
            segments,
            vehicles: Vec::new(),
            registered: std::collections::BTreeSet::new(),
            opted_out: std::collections::BTreeSet::new(),
            uploads: BTreeMap::new(),
            patterns: Vec::new(),
            answers: Vec::new(),
            reliabilities: BTreeMap::new(),
        }
    }

    /// The segment map in force.
    pub fn segments(&self) -> &SegmentMap {
        &self.segments
    }

    /// Registers a crowd-vehicle (idempotent).
    pub fn register(&mut self, vehicle: VehicleId) {
        if self.registered.insert(vehicle) {
            self.vehicles.push(vehicle);
        }
    }

    /// Whether a vehicle has been registered.
    pub fn is_registered(&self, vehicle: VehicleId) -> bool {
        self.registered.contains(&vehicle)
    }

    /// Registered vehicles, in registration order.
    pub fn vehicles(&self) -> &[VehicleId] {
        &self.vehicles
    }

    /// Records a vehicle's participation choice (§5.5: crowd-vehicles
    /// may deny tasks to protect their privacy). Opted-out vehicles are
    /// never assigned mapping tasks; their uploads, if any, are still
    /// used.
    pub fn set_participation(&mut self, vehicle: VehicleId, participates: bool) {
        if participates {
            self.opted_out.remove(&vehicle);
        } else {
            self.opted_out.insert(vehicle);
        }
    }

    /// Whether a vehicle currently accepts mapping tasks.
    pub fn participates(&self, vehicle: VehicleId) -> bool {
        !self.opted_out.contains(&vehicle)
    }

    /// Ingests a sensing upload (replacing the vehicle's previous one).
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::UnknownVehicle`] for unregistered
    /// senders.
    pub fn receive_upload(&mut self, upload: SensingUpload) -> Result<()> {
        if !self.registered.contains(&upload.vehicle) {
            return Err(MiddlewareError::UnknownVehicle(upload.vehicle.0));
        }
        self.uploads.insert(upload.vehicle, upload);
        Ok(())
    }

    /// The stored upload for a vehicle, if it has sent one this round.
    pub fn upload_of(&self, vehicle: VehicleId) -> Option<&SensingUpload> {
        self.uploads.get(&vehicle)
    }

    /// Generates the mapping-task pattern set: one pattern per segment
    /// per upload (candidate true patterns) plus `bootstrap` random
    /// patterns per non-empty segment (§5.2: random patterns for
    /// bootstrapping, so the inference has negatives to reject).
    pub fn generate_patterns<R: Rng + ?Sized>(&mut self, bootstrap: usize, rng: &mut R) {
        self.patterns.clear();
        // Candidate patterns from uploads, grouped per segment. Two
        // patterns can only be similar within one segment, so dedup
        // scans a per-segment index instead of the whole pattern list —
        // same accept/reject decisions, `O(uploads-per-segment)` per
        // candidate instead of `O(total patterns)`.
        let mut seen_segments = std::collections::BTreeSet::new();
        let mut by_segment_index: BTreeMap<crate::segment::SegmentId, Vec<usize>> = BTreeMap::new();
        for upload in self.uploads.values() {
            let mut by_segment: BTreeMap<_, Vec<Point>> = BTreeMap::new();
            for est in &upload.estimates {
                by_segment
                    .entry(self.segments.segment_of(est.position))
                    .or_default()
                    .push(est.position);
            }
            for (segment, aps) in by_segment {
                seen_segments.insert(segment);
                let pattern = Pattern { segment, aps };
                let peers = by_segment_index.entry(segment).or_default();
                if !peers
                    .iter()
                    .any(|&i| patterns_similar(&self.patterns[i], &pattern, 15.0))
                {
                    peers.push(self.patterns.len());
                    self.patterns.push(pattern);
                }
            }
        }
        // Random bootstrap patterns in segments where something was
        // sensed (deliberately implausible: uniform positions).
        for &segment in &seen_segments {
            let bounds = self.segments.bounds(segment);
            for _ in 0..bootstrap {
                let count = rng.random_range(1..=3usize);
                let aps = (0..count)
                    .map(|_| {
                        Point::new(
                            rng.random_range(
                                bounds.min().x..bounds.max().x.max(bounds.min().x + 1.0),
                            ),
                            rng.random_range(
                                bounds.min().y..bounds.max().y.max(bounds.min().y + 1.0),
                            ),
                        )
                    })
                    .collect();
                self.patterns.push(Pattern { segment, aps });
            }
        }
    }

    /// The current pattern set (tasks), in task-id order.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Assigns every pattern to `workers_per_task` distinct vehicles at
    /// random; returns the per-vehicle task lists.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::InvalidConfig`] when there are no
    /// patterns, no vehicles, or fewer vehicles than `workers_per_task`.
    pub fn assign_tasks<R: Rng + ?Sized>(
        &mut self,
        workers_per_task: usize,
        rng: &mut R,
    ) -> Result<BTreeMap<VehicleId, Vec<MappingTask>>> {
        if self.patterns.is_empty() {
            return Err(MiddlewareError::InvalidConfig(
                "no patterns to assign".to_string(),
            ));
        }
        let participating: Vec<VehicleId> = self
            .vehicles
            .iter()
            .copied()
            .filter(|v| self.participates(*v))
            .collect();
        if participating.len() < workers_per_task || workers_per_task == 0 {
            return Err(MiddlewareError::InvalidConfig(format!(
                "need at least {workers_per_task} participating vehicles"
            )));
        }
        self.answers.clear();
        let mut out: BTreeMap<VehicleId, Vec<MappingTask>> = BTreeMap::new();
        let sampled = participating.len() >= SAMPLED_ASSIGNMENT_FLOOR;
        // Reusable index pool for the sampled path: a partial
        // Fisher–Yates draws `workers_per_task` distinct entries per
        // task; leaving the pool permuted between tasks keeps every
        // draw uniform without re-shuffling (or re-allocating) it.
        let mut pool_idx: Vec<usize> = if sampled {
            (0..participating.len()).collect()
        } else {
            Vec::new()
        };
        for (task_id, pattern) in self.patterns.iter().enumerate() {
            let assign = |out: &mut BTreeMap<VehicleId, Vec<MappingTask>>, vehicle: VehicleId| {
                out.entry(vehicle).or_default().push(MappingTask {
                    task_id,
                    pattern: pattern.clone(),
                });
            };
            if sampled {
                for k in 0..workers_per_task {
                    let j = rng.random_range(k..pool_idx.len());
                    pool_idx.swap(k, j);
                    assign(&mut out, participating[pool_idx[k]]);
                }
            } else {
                let mut pool = participating.clone();
                pool.shuffle(rng);
                for &vehicle in pool.iter().take(workers_per_task) {
                    assign(&mut out, vehicle);
                }
            }
        }
        Ok(out)
    }

    /// Ingests a batch of answers.
    pub fn receive_answers(&mut self, answers: Vec<MappingAnswer>) {
        self.answers.extend(answers);
    }

    /// Runs reliability inference over the collected answers, updating
    /// vehicle reliabilities and returning the accepted patterns.
    ///
    /// Uses one-coin Dawid–Skene EM seeded from majority voting: a
    /// single round produces a small, class-imbalanced task graph (one
    /// true pattern among several bootstrap negatives), where the
    /// message-passing decoder's rank-1 dynamics latch onto the "reject
    /// everything" direction and rank blanket-negative spammers above
    /// honest vehicles. EM is robust to that imbalance and makes round
    /// inference deterministic; the `rng` parameter is kept for
    /// API stability but no longer consumed.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::InvalidConfig`] when no answers were
    /// collected, and propagates graph-construction failures.
    pub fn infer<R: Rng + ?Sized>(&mut self, _rng: &mut R) -> Result<RoundOutcome> {
        if self.answers.is_empty() {
            return Err(MiddlewareError::InvalidConfig(
                "no answers collected".to_string(),
            ));
        }
        // Dense vehicle indices for the bipartite graph.
        let vehicle_index: BTreeMap<VehicleId, usize> = self
            .vehicles
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i))
            .collect();
        // Canonicalize: answers arrive in whatever order the transport
        // delivers them (and, under fault injection, duplicated or
        // reordered). Keep the
        // first answer per (task, vehicle) and sort, so inference — and
        // the floating-point sums inside EM — see a deterministic edge
        // list regardless of arrival interleaving.
        let mut canonical: Vec<&MappingAnswer> = Vec::with_capacity(self.answers.len());
        let mut seen = std::collections::BTreeSet::new();
        for a in &self.answers {
            if seen.insert((a.task_id, a.vehicle)) {
                canonical.push(a);
            }
        }
        canonical.sort_by_key(|a| (a.task_id, a.vehicle));
        let mut edges = Vec::with_capacity(canonical.len());
        let mut labels = Vec::with_capacity(canonical.len());
        let mut covered = vec![false; self.patterns.len()];
        for a in canonical {
            let Some(&w) = vehicle_index.get(&a.vehicle) else {
                return Err(MiddlewareError::UnknownVehicle(a.vehicle.0));
            };
            if a.task_id < covered.len() {
                covered[a.task_id] = true;
            }
            edges.push((a.task_id, w));
            labels.push(a.label);
        }
        let graph =
            BipartiteAssignment::from_edge_list(self.patterns.len(), self.vehicles.len(), edges)?;
        let matrix = LabelMatrix::from_labels(graph, labels);
        let result = EmAggregator::default().run(&matrix);

        let reliability = &result.reliabilities;
        for (i, &v) in self.vehicles.iter().enumerate() {
            self.reliabilities.insert(v, reliability[i]);
        }

        // A task that lost all of its labels (every assigned vehicle
        // died) sits at the EM prior of 0.5 and would be waved through;
        // unlabeled patterns are never accepted.
        let accepted_patterns: Vec<Pattern> = result
            .estimates
            .iter()
            .enumerate()
            .filter(|&(i, &z)| z == 1 && covered[i])
            .map(|(i, _)| self.patterns[i].clone())
            .collect();
        Ok(RoundOutcome {
            accepted_patterns,
            reliabilities: self.reliabilities.clone(),
            converged: result.converged,
        })
    }

    /// Multiplies a vehicle's stored reliability by `factor` (clamped
    /// to `[0, 1]`), returning the new value. The platform applies this
    /// to vehicles that died mid-round: a crash or missed deadline is
    /// evidence against the vehicle just like a wrong label, and the
    /// penalty feeds the cross-round prior so repeat offenders are
    /// down-weighted even if their answers looked fine while they
    /// lasted. Vehicles never seen before start from the 0.5 prior.
    pub fn penalize(&mut self, vehicle: VehicleId, factor: f64) -> f64 {
        let prev = self.reliabilities.get(&vehicle).copied().unwrap_or(0.5);
        let q = (prev * factor.clamp(0.0, 1.0)).clamp(0.0, 1.0);
        self.reliabilities.insert(vehicle, q);
        q
    }

    /// Fuses all uploads into fine-grained AP estimates, weighting each
    /// vehicle by its inferred reliability (§5.4); vehicles with
    /// reliability ≤ `spammer_cutoff` are ignored. Fusion runs
    /// independently per road segment (see
    /// [`crate::protocol::shards::fuse_sharded`]) and the results are
    /// concatenated in segment-id order, so clusters never straddle a
    /// segment boundary. User-vehicles download the result from the
    /// geo-sharded AP map it is fed into.
    pub fn finalize_sharded(&self, merge_radius: f64, spammer_cutoff: f64) -> Vec<FusedAp> {
        crate::protocol::shards::fuse_sharded(
            &self.segments,
            self.uploads.values(),
            &self.reliabilities,
            merge_radius,
            spammer_cutoff,
        )
    }
}

/// Two patterns are similar when they describe the same segment with
/// the same AP count and pairwise-matched positions within `tol`.
fn patterns_similar(a: &Pattern, b: &Pattern, tol: f64) -> bool {
    if a.segment != b.segment || a.aps.len() != b.aps.len() {
        return false;
    }
    let mut used = vec![false; b.aps.len()];
    for pa in &a.aps {
        let found = b
            .aps
            .iter()
            .enumerate()
            .find(|(i, pb)| !used[*i] && pa.distance(**pb) <= tol);
        match found {
            Some((i, _)) => used[i] = true,
            None => return false,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdwifi_core::ApEstimate;
    use crowdwifi_geo::Rect;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn server() -> CrowdServer {
        CrowdServer::new(SegmentMap::new(
            Rect::new(Point::new(0.0, 0.0), Point::new(300.0, 180.0)).unwrap(),
            150.0,
        ))
    }

    fn upload(vehicle: u32, points: &[(f64, f64)]) -> SensingUpload {
        SensingUpload {
            vehicle: VehicleId(vehicle),
            estimates: points
                .iter()
                .map(|&(x, y)| ApEstimate {
                    position: Point::new(x, y),
                    credit: 2.0,
                })
                .collect(),
        }
    }

    #[test]
    fn upload_requires_registration() {
        let mut s = server();
        assert!(matches!(
            s.receive_upload(upload(9, &[(10.0, 10.0)])),
            Err(MiddlewareError::UnknownVehicle(9))
        ));
        s.register(VehicleId(9));
        assert!(s.receive_upload(upload(9, &[(10.0, 10.0)])).is_ok());
    }

    #[test]
    fn pattern_generation_dedups_similar_uploads() {
        let mut s = server();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for v in 0..3 {
            s.register(VehicleId(v));
            // All three vehicles agree on roughly the same AP.
            s.receive_upload(upload(v, &[(50.0 + v as f64, 50.0)]))
                .unwrap();
        }
        s.generate_patterns(2, &mut rng);
        // 1 deduped candidate + 2 bootstrap for the one active segment.
        assert_eq!(s.patterns().len(), 3);
    }

    #[test]
    fn assignment_covers_every_pattern_l_times() {
        let mut s = server();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for v in 0..5 {
            s.register(VehicleId(v));
        }
        s.receive_upload(upload(0, &[(50.0, 50.0), (200.0, 100.0)]))
            .unwrap();
        s.generate_patterns(1, &mut rng);
        let tasks = s.assign_tasks(3, &mut rng).unwrap();
        let total: usize = tasks.values().map(|t| t.len()).sum();
        assert_eq!(total, s.patterns().len() * 3);
        // No vehicle got the same task twice.
        for list in tasks.values() {
            let mut ids: Vec<usize> = list.iter().map(|t| t.task_id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), list.len());
        }
    }

    #[test]
    fn full_round_identifies_spammers_and_fuses() {
        let mut s = server();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let truth = Point::new(60.0, 60.0);
        // 6 honest vehicles agree; 2 spammers answer randomly later.
        for v in 0..8 {
            s.register(VehicleId(v));
        }
        for v in 0..6 {
            s.receive_upload(upload(v, &[(truth.x + v as f64 - 3.0, truth.y)]))
                .unwrap();
        }
        s.generate_patterns(3, &mut rng);
        let tasks = s.assign_tasks(5, &mut rng).unwrap();
        // Honest vehicles: label +1 iff the pattern matches the truth.
        let mut answers = Vec::new();
        for (&vehicle, list) in &tasks {
            for task in list {
                let honest =
                    task.pattern.aps.len() == 1 && task.pattern.aps[0].distance(truth) <= 20.0;
                let label = if vehicle.0 < 6 {
                    if honest {
                        1
                    } else {
                        -1
                    }
                } else if rng.random_range(0.0..1.0) < 0.5 {
                    1
                } else {
                    -1
                };
                answers.push(MappingAnswer {
                    vehicle,
                    task_id: task.task_id,
                    label,
                });
            }
        }
        s.receive_answers(answers);
        let outcome = s.infer(&mut rng).unwrap();
        // The true pattern must be accepted, most bootstrap junk rejected.
        assert!(outcome
            .accepted_patterns
            .iter()
            .any(|p| p.aps.len() == 1 && p.aps[0].distance(truth) <= 20.0));
        // Honest vehicles should out-rank spammers on average.
        let honest_avg: f64 = (0..6)
            .map(|v| outcome.reliabilities[&VehicleId(v)])
            .sum::<f64>()
            / 6.0;
        let spam_avg: f64 = (6..8)
            .map(|v| outcome.reliabilities[&VehicleId(v)])
            .sum::<f64>()
            / 2.0;
        assert!(
            honest_avg > spam_avg,
            "honest {honest_avg:.2} vs spammers {spam_avg:.2}"
        );
        // Fusion lands near the truth.
        let fused = s.finalize_sharded(25.0, 0.3);
        assert!(!fused.is_empty());
        let best = fused
            .iter()
            .map(|f| f.position.distance(truth))
            .fold(f64::INFINITY, f64::min);
        assert!(best < 10.0, "fused estimate {best:.1} m off");
    }

    #[test]
    fn opted_out_vehicles_get_no_tasks() {
        let mut s = server();
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for v in 0..4 {
            s.register(VehicleId(v));
        }
        s.receive_upload(upload(0, &[(50.0, 50.0)])).unwrap();
        s.generate_patterns(1, &mut rng);
        s.set_participation(VehicleId(3), false);
        assert!(!s.participates(VehicleId(3)));
        let tasks = s.assign_tasks(3, &mut rng).unwrap();
        assert!(!tasks.contains_key(&VehicleId(3)));
        // With one vehicle opted out, asking for 4 workers per task must
        // fail cleanly.
        assert!(s.assign_tasks(4, &mut rng).is_err());
        // Opting back in restores eligibility.
        s.set_participation(VehicleId(3), true);
        assert!(s.assign_tasks(4, &mut rng).is_ok());
    }

    #[test]
    fn infer_without_answers_fails() {
        let mut s = server();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        assert!(s.infer(&mut rng).is_err());
    }
}
