//! The crowd-vehicle client.

use crate::fault::{FaultPoint, Misbehavior};
use crate::messages::{MappingAnswer, MappingTask, SensingUpload, ToServer, ToVehicle, VehicleId};
use crate::segment::SegmentMap;
use crate::Result;
use crowdwifi_channel::RssReading;
use crowdwifi_core::{ApEstimate, OnlineCs};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// How the vehicle answers mapping tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Behavior {
    /// Good-faith answers derived from the vehicle's own sensing.
    Honest,
    /// Random ±1 answers (the spammer of §5.1).
    Spammer,
}

/// A crowd-vehicle: runs online CS over its own readings, uploads the
/// result, and labels the server's pattern-mapping tasks.
#[derive(Debug)]
pub struct CrowdVehicle {
    id: VehicleId,
    estimator: OnlineCs,
    behavior: Behavior,
    estimates: Vec<ApEstimate>,
}

/// A pattern AP "matches" one of the vehicle's own estimates within
/// this distance (meters).
const MATCH_TOLERANCE_M: f64 = 25.0;

impl CrowdVehicle {
    /// Creates a vehicle with the given estimator and behavior.
    pub fn new(id: VehicleId, estimator: OnlineCs, behavior: Behavior) -> Self {
        CrowdVehicle {
            id,
            estimator,
            behavior,
            estimates: Vec::new(),
        }
    }

    /// The vehicle's identifier.
    pub fn id(&self) -> VehicleId {
        self.id
    }

    /// The declared behavior.
    pub fn behavior(&self) -> Behavior {
        self.behavior
    }

    /// Runs the online CS estimator over a recorded drive, replacing any
    /// previous sensing result.
    ///
    /// # Errors
    ///
    /// Propagates estimator failures.
    pub fn sense(&mut self, readings: &[RssReading]) -> Result<()> {
        self.estimates = self.estimator.run(readings)?;
        Ok(())
    }

    /// The current coarse estimates (empty before [`CrowdVehicle::sense`]).
    pub fn estimates(&self) -> &[ApEstimate] {
        &self.estimates
    }

    /// Builds the sensing upload for the crowd-server.
    pub fn upload(&self) -> SensingUpload {
        SensingUpload {
            vehicle: self.id,
            estimates: self.estimates.clone(),
        }
    }

    /// Answers one mapping task. Honest vehicles check the pattern
    /// against their own estimates; spammers flip a coin.
    pub fn answer<R: Rng + ?Sized>(
        &self,
        task: &MappingTask,
        segments: &SegmentMap,
        rng: &mut R,
    ) -> MappingAnswer {
        let label = match self.behavior {
            Behavior::Spammer => {
                if rng.random_range(0.0..1.0) < 0.5 {
                    1
                } else {
                    -1
                }
            }
            Behavior::Honest => self.honest_label(task, segments),
        };
        MappingAnswer {
            vehicle: self.id,
            task_id: task.task_id,
            label,
        }
    }

    /// A pattern "exists" for an honest vehicle when every pattern AP is
    /// matched by one of its own estimates within the tolerance **and**
    /// the vehicle saw no extra APs inside the pattern's segment.
    fn honest_label(&self, task: &MappingTask, segments: &SegmentMap) -> i8 {
        let seg_bounds = segments.bounds(task.pattern.segment);
        let own_in_segment: Vec<_> = self
            .estimates
            .iter()
            .filter(|e| seg_bounds.contains(e.position))
            .collect();
        if own_in_segment.len() != task.pattern.aps.len() {
            return -1;
        }
        // Greedy matching within tolerance.
        let mut used = vec![false; own_in_segment.len()];
        for pattern_ap in &task.pattern.aps {
            let found = own_in_segment
                .iter()
                .enumerate()
                .find(|(i, e)| !used[*i] && e.position.distance(*pattern_ap) <= MATCH_TOLERANCE_M);
            match found {
                Some((i, _)) => used[i] = true,
                None => return -1,
            }
        }
        1
    }
}

/// How one vehicle's round ended, from the vehicle's own perspective.
/// Complements the server-side fate in degraded-round postmortems: the
/// server knows *that* a vehicle went quiet, the exit records *why* the
/// vehicle stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VehicleExit {
    /// Received `Done`: a full, clean round.
    Completed,
    /// The server sent `Abort(reason)`: it deliberately abandoned the
    /// round and said why.
    Aborted(String),
    /// The link closed with no `Done` and no `Abort`: the server
    /// hung up unexpectedly (crashed, or dropped this vehicle after its
    /// deadline while messages were still in flight).
    Disconnected,
    /// An injected silent crash ([`Misbehavior::Crash`]).
    Crashed,
    /// An injected stall ([`Misbehavior::Stall`]); the vehicle drained
    /// its inbox without responding until the server hung up.
    Stalled,
    /// The vehicle's own protocol failed: estimator error or panic.
    Failed(String),
}

/// One step of the sans-I/O vehicle state machine: either messages to
/// put on the uplink (possibly none) or a terminal exit.
#[derive(Debug)]
pub(crate) enum VehicleStep {
    /// Keep going; deliver these uplink messages (may be empty).
    Continue(Vec<ToServer>),
    /// The vehicle is done; stop delivering messages to it.
    Exit(VehicleExit),
}

/// The vehicle's side of the round protocol as a pure state machine:
/// no channels, no blocking, no clock. Transports feed it the drive
/// (via [`VehicleCore::start`]) and each downlink message (via
/// [`VehicleCore::on_message`]), and put whatever it returns on the
/// uplink. Scheduled misbehavior ([`Misbehavior`]) is folded in here so
/// every transport injects crashes and stalls identically. The start
/// step depends on nothing but the vehicle and its drive, which is what
/// lets a campaign sense a round before serving it.
#[derive(Debug)]
pub(crate) struct VehicleCore {
    vehicle: CrowdVehicle,
    rng: ChaCha8Rng,
    script: Option<Misbehavior>,
    stalled: bool,
}

impl VehicleCore {
    pub(crate) fn new(vehicle: CrowdVehicle, seed: u64, script: Option<Misbehavior>) -> Self {
        VehicleCore {
            vehicle,
            rng: ChaCha8Rng::seed_from_u64(seed),
            script,
            stalled: false,
        }
    }

    /// The vehicle's identifier.
    pub(crate) fn id(&self) -> VehicleId {
        self.vehicle.id()
    }

    /// Fires a scheduled misbehavior if `point` matches the script. A
    /// stall leaves the vehicle "running" — it keeps absorbing downlink
    /// messages without ever responding — so the server only learns of
    /// it through deadlines.
    fn misbehave(&mut self, point: FaultPoint) -> Option<VehicleStep> {
        match self.script {
            Some(Misbehavior::Crash(p)) if p == point => {
                Some(VehicleStep::Exit(VehicleExit::Crashed))
            }
            Some(Misbehavior::Stall(p)) if p == point => {
                self.stalled = true;
                Some(VehicleStep::Continue(Vec::new()))
            }
            _ => None,
        }
    }

    /// Runs the drive: sense, then produce the coarse upload.
    ///
    /// # Errors
    ///
    /// Propagates estimator failures; the transport reports them to the
    /// server as [`ToServer::Failed`].
    pub(crate) fn start(&mut self, readings: &[RssReading]) -> Result<VehicleStep> {
        if let Some(step) = self.misbehave(FaultPoint::Sense) {
            return Ok(step);
        }
        self.vehicle.sense(readings)?;
        if let Some(step) = self.misbehave(FaultPoint::Upload) {
            return Ok(step);
        }
        Ok(VehicleStep::Continue(vec![ToServer::Upload(
            self.vehicle.upload(),
        )]))
    }

    /// Reacts to one downlink message.
    pub(crate) fn on_message(&mut self, msg: ToVehicle, segments: &SegmentMap) -> VehicleStep {
        if self.stalled {
            return VehicleStep::Continue(Vec::new());
        }
        match msg {
            ToVehicle::Assign(tasks) => {
                if let Some(step) = self.misbehave(FaultPoint::Answer) {
                    return step;
                }
                let answers = tasks
                    .iter()
                    .map(|t| self.vehicle.answer(t, segments, &mut self.rng))
                    .collect();
                VehicleStep::Continue(vec![ToServer::Answers(answers)])
            }
            ToVehicle::RequestUpload => {
                VehicleStep::Continue(vec![ToServer::Upload(self.vehicle.upload())])
            }
            ToVehicle::Done => VehicleStep::Exit(VehicleExit::Completed),
            ToVehicle::Abort(reason) => VehicleStep::Exit(VehicleExit::Aborted(reason)),
        }
    }

    /// How a still-running vehicle classifies the link closing under it.
    pub(crate) fn on_disconnect(&self) -> VehicleExit {
        if self.stalled {
            VehicleExit::Stalled
        } else {
            VehicleExit::Disconnected
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::Pattern;
    use crate::segment::SegmentMap;
    use crowdwifi_channel::PathLossModel;
    use crowdwifi_core::OnlineCsConfig;
    use crowdwifi_geo::{Point, Rect};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn vehicle(behavior: Behavior) -> CrowdVehicle {
        let estimator =
            OnlineCs::new(OnlineCsConfig::default(), PathLossModel::uci_campus()).unwrap();
        CrowdVehicle::new(VehicleId(1), estimator, behavior)
    }

    fn segments() -> SegmentMap {
        SegmentMap::new(
            Rect::new(Point::new(0.0, 0.0), Point::new(300.0, 180.0)).unwrap(),
            150.0,
        )
    }

    fn seeded_vehicle_with_estimates(points: &[Point]) -> CrowdVehicle {
        let mut v = vehicle(Behavior::Honest);
        v.estimates = points
            .iter()
            .map(|&position| ApEstimate {
                position,
                credit: 3.0,
            })
            .collect();
        v
    }

    #[test]
    fn honest_vehicle_confirms_matching_pattern() {
        let segs = segments();
        let v = seeded_vehicle_with_estimates(&[Point::new(50.0, 50.0)]);
        let task = MappingTask {
            task_id: 0,
            pattern: Pattern {
                segment: segs.segment_of(Point::new(50.0, 50.0)),
                aps: vec![Point::new(55.0, 52.0)],
            },
        };
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(v.answer(&task, &segs, &mut rng).label, 1);
    }

    #[test]
    fn honest_vehicle_denies_wrong_count_or_position() {
        let segs = segments();
        let v = seeded_vehicle_with_estimates(&[Point::new(50.0, 50.0)]);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        // Wrong position.
        let far = MappingTask {
            task_id: 0,
            pattern: Pattern {
                segment: segs.segment_of(Point::new(50.0, 50.0)),
                aps: vec![Point::new(140.0, 140.0)],
            },
        };
        assert_eq!(v.answer(&far, &segs, &mut rng).label, -1);
        // Wrong count (pattern claims two APs).
        let two = MappingTask {
            task_id: 1,
            pattern: Pattern {
                segment: segs.segment_of(Point::new(50.0, 50.0)),
                aps: vec![Point::new(55.0, 52.0), Point::new(80.0, 60.0)],
            },
        };
        assert_eq!(v.answer(&two, &segs, &mut rng).label, -1);
    }

    #[test]
    fn spammer_answers_are_random() {
        let segs = segments();
        let v = vehicle(Behavior::Spammer);
        let task = MappingTask {
            task_id: 0,
            pattern: Pattern {
                segment: crate::segment::SegmentId(0),
                aps: vec![],
            },
        };
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let labels: Vec<i8> = (0..100)
            .map(|_| v.answer(&task, &segs, &mut rng).label)
            .collect();
        let ones = labels.iter().filter(|&&l| l == 1).count();
        assert!(ones > 30 && ones < 70, "spammer bias: {ones}/100 ones");
    }

    #[test]
    fn upload_carries_estimates() {
        let v = seeded_vehicle_with_estimates(&[Point::new(10.0, 10.0)]);
        let up = v.upload();
        assert_eq!(up.vehicle, VehicleId(1));
        assert_eq!(up.estimates.len(), 1);
    }
}
