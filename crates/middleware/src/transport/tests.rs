//! The pipelined campaign, which senses round r+1 while round r is
//! served, against a sequential one that senses each round just before
//! serving it: every report, exit, WAL and snapshot byte and sink call
//! must match, on the simulator and on the fleet engine at one and two
//! workers.

use super::*;
use crate::durability::MemorySink;
use crate::fault::{FaultPoint, ServerFault};
use crate::vehicle::{Behavior, VehicleExit};
use crowdwifi_channel::PathLossModel;
use crowdwifi_core::{OnlineCs, OnlineCsConfig};
use crowdwifi_geo::{Point, Rect};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

type Fleet = Vec<(CrowdVehicle, Vec<RssReading>)>;

/// What a campaign leaves observable, in the order it happened.
type Trace = Rc<RefCell<Vec<String>>>;

/// A fading-free staggered drive past two roadside APs; `shift` moves
/// the lane so rounds differ.
fn drive(shift: f64) -> Vec<RssReading> {
    let model = PathLossModel::uci_campus();
    (0..50)
        .map(|i| {
            let lane = if (i / 5) % 2 == 0 { 0.0 } else { 12.0 };
            let p = Point::new(6.0 * i as f64, shift + lane);
            let ap = Point::new(if p.x < 140.0 { 60.0 } else { 220.0 }, 30.0);
            RssReading::new(p, model.mean_rss(p.distance(ap)), i as f64)
        })
        .collect()
}

fn segments() -> SegmentMap {
    SegmentMap::new(
        Rect::new(Point::new(0.0, -20.0), Point::new(300.0, 80.0)).unwrap(),
        150.0,
    )
}

fn config() -> PlatformConfig {
    PlatformConfig {
        workers_per_task: 3,
        seed: 11,
        tolerance: crate::protocol::FaultTolerance {
            retry_backoff: Duration::from_millis(100),
            max_retries: 1,
            ..Default::default()
        },
        ..PlatformConfig::default()
    }
}

fn estimator() -> OnlineCs {
    OnlineCs::new(OnlineCsConfig::default(), PathLossModel::uci_campus()).unwrap()
}

/// Round `round` of a five-vehicle campaign; vehicle 4 is a spammer.
fn fleet(round: usize) -> Fleet {
    (0..5u32)
        .map(|v| {
            let behavior = if v == 4 {
                Behavior::Spammer
            } else {
                Behavior::Honest
            };
            let vehicle = CrowdVehicle::new(VehicleId(v), estimator(), behavior);
            (vehicle, drive(v as f64 * 0.5 + round as f64))
        })
        .collect()
}

/// A log that records every operation on it into `trace`.
struct Recording {
    inner: MemorySink,
    name: &'static str,
    trace: Trace,
}

impl Recording {
    fn new(name: &'static str, trace: &Trace) -> Self {
        Recording {
            inner: MemorySink::new(),
            name,
            trace: Rc::clone(trace),
        }
    }

    fn note(&self, what: String) {
        self.trace
            .borrow_mut()
            .push(format!("{} {what}", self.name));
    }
}

impl LogSink for Recording {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.note(format!("append {bytes:?}"));
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> Result<()> {
        self.note("sync".to_string());
        self.inner.sync()
    }

    fn contents(&mut self) -> Result<Vec<u8>> {
        self.inner.contents()
    }

    fn reset(&mut self, bytes: &[u8]) -> Result<()> {
        self.note(format!("reset {bytes:?}"));
        self.inner.reset(bytes)
    }
}

/// A round sink that records each close with its report's
/// deterministic projection.
struct Closes(Trace);

impl RoundSink for Closes {
    fn round_closed(&mut self, round: usize, report: &PlatformReport) {
        let closed = format!("close {round} {:?}", report.deterministic());
        self.0.borrow_mut().push(closed);
    }
}

/// The campaign loop as it ran before sensing was pipelined: each
/// round senses inside its own transport call.
#[allow(clippy::too_many_arguments)]
fn sequential(
    transport: &dyn Transport,
    segments: SegmentMap,
    rounds: Vec<Fleet>,
    config: PlatformConfig,
    smoothing: f64,
    plans: &[FaultPlan],
    mut durable: Option<(&mut dyn LogSink, &mut SnapshotStore)>,
    sink: &mut dyn RoundSink,
) -> Result<CampaignOutcome> {
    let none = FaultPlan::none();
    let mut long_run: BTreeMap<VehicleId, f64> = BTreeMap::new();
    let mut reports = Vec::new();
    let mut database = ShardedDatabase::new();
    for (i, fleet) in rounds.into_iter().enumerate() {
        let mut round_config = config;
        round_config.seed = config.seed.wrapping_add(i as u64 * 1000);
        let plan = plans.get(i).unwrap_or(&none);
        let mut report = match &mut durable {
            Some((wal, _)) => {
                transport.run_round_durable(segments.clone(), fleet, round_config, plan, *wal)?
            }
            None => transport.run_round_with_faults(segments.clone(), fleet, round_config, plan)?,
        };
        smooth_reliabilities(&mut report, &mut long_run, smoothing);
        database.absorb(i, &segments, &report.fused);
        if let Some((wal, snapshots)) = &mut durable {
            snapshots.write(i, &database, plan.snapshot_torn(i as u64))?;
            wal.reset(&[])?;
        }
        sink.round_closed(i, &report);
        reports.push(report);
    }
    Ok(CampaignOutcome { reports, database })
}

/// Runs one campaign, pipelined or sequential, durable or not, and
/// renders everything it left observable: WAL and snapshot operations
/// and sink calls in order, then the outcome (reports' deterministic
/// projections and the database) or the error.
fn observe(
    transport: &dyn Transport,
    rounds: Vec<Fleet>,
    plans: &[FaultPlan],
    durable: bool,
    pipelined: bool,
) -> String {
    let trace: Trace = Rc::default();
    let mut wal = Recording::new("wal", &trace);
    let mut snapshots = SnapshotStore::new(
        Box::new(Recording::new("snapshot a", &trace)),
        Box::new(Recording::new("snapshot b", &trace)),
    );
    let durable = durable.then_some((&mut wal as &mut dyn LogSink, &mut snapshots));
    let mut sink = Closes(Rc::clone(&trace));
    let (segments, config) = (segments(), config());
    let outcome = if pipelined {
        run_campaign(
            transport, segments, rounds, config, 0.5, plans, durable, &mut sink,
        )
    } else {
        sequential(
            transport, segments, rounds, config, 0.5, plans, durable, &mut sink,
        )
    };
    let outcome = match outcome {
        Ok(o) => {
            let reports: Vec<_> = o
                .reports
                .iter()
                .map(PlatformReport::deterministic)
                .collect();
            format!("{reports:?} {:?}", o.database)
        }
        Err(e) => format!("error: {e:?}"),
    };
    let mut trace = trace.take();
    trace.push(outcome);
    trace.join("\n")
}

/// Asserts the pipelined campaign equals the sequential one on every
/// backend, and returns the simulator's rendering.
fn assert_pipelining_invisible(
    rounds: impl Fn() -> Vec<Fleet>,
    plans: &[FaultPlan],
    durable: bool,
) -> String {
    let one = FleetTransport::new().with_workers(1);
    let two = FleetTransport::new().with_workers(2);
    let backends: [(&str, &dyn Transport); 3] =
        [("sim", &SimTransport), ("fleet@1", &one), ("fleet@2", &two)];
    let reference = observe(&SimTransport, rounds(), plans, durable, false);
    for (name, transport) in backends {
        let sequential = observe(transport, rounds(), plans, durable, false);
        let pipelined = observe(transport, rounds(), plans, durable, true);
        assert!(
            sequential == reference,
            "{name}: the sequential campaign diverged from the simulator's"
        );
        assert!(
            pipelined == sequential,
            "{name}: the pipelined campaign diverged from the sequential one"
        );
    }
    reference
}

/// The rounds a rendered campaign closed, in order.
fn closes(rendered: &str) -> Vec<usize> {
    let rounds = rendered.lines().filter_map(|l| l.strip_prefix("close "));
    rounds
        .map(|l| l.split(' ').next().unwrap().parse().unwrap())
        .collect()
}

#[test]
fn durable_campaign_with_server_crashes_is_unchanged_by_pipelining() {
    let rounds = || (0..3).map(fleet).collect();
    let plans = [
        FaultPlan::noisy(3, 0.05, 0.05, 0.05),
        FaultPlan::none()
            .server_crash(2, ServerFault::CrashAfterAppend)
            .server_crash(6, ServerFault::CrashCorruptTail)
            .torn_snapshot(1),
        FaultPlan::noisy(5, 0.1, 0.0, 0.0).server_crash(4, ServerFault::CrashTruncateTail(3)),
    ];
    let rendered = assert_pipelining_invisible(rounds, &plans, true);
    assert_eq!(closes(&rendered), [0, 1, 2]);
    let logged = |log: &str| rendered.lines().filter(|l| l.starts_with(log)).count();
    assert!(
        logged("wal append") > 0,
        "the rounds were write-ahead logged"
    );
    assert!(logged("snapshot ") > 0, "the round closes wrote snapshots");
}

#[test]
fn quorum_loss_mid_campaign_cancels_the_sensing_job_and_keeps_the_error() {
    // Round 1 loses four of five vehicles at sensing; round 2 is being
    // sensed in the background when round 1 fails.
    let rounds = || (0..3).map(fleet).collect();
    let lost = (0..4).fold(FaultPlan::none(), |plan, v| {
        plan.crash(VehicleId(v), FaultPoint::Sense)
    });
    let plans = [FaultPlan::none(), lost];
    for durable in [false, true] {
        let rendered = assert_pipelining_invisible(rounds, &plans, durable);
        assert_eq!(closes(&rendered), [0], "only round 0 closed");
        assert!(
            rendered.ends_with("error: QuorumLost { alive: 1, required: 3, total: 5 }"),
            "{}",
            rendered.lines().last().unwrap_or_default()
        );
    }
}

#[test]
fn a_failing_estimator_in_a_pre_sensed_round_fails_its_vehicle_the_same_way() {
    // Vehicle 2's round-1 drive carries a -inf RSS, which the estimator
    // rejects. Round 1 is sensed in the background while round 0 is
    // served.
    let rounds = || {
        let mut rounds: Vec<Fleet> = (0..2).map(fleet).collect();
        for r in rounds[1][2].1.iter_mut() {
            *r = RssReading::new(r.position, f64::NEG_INFINITY, r.time);
        }
        rounds
    };
    assert_pipelining_invisible(rounds, &[], false);
    for transport in [&SimTransport as &dyn Transport, &FleetTransport::new()] {
        let outcome = run_campaign_with_faults_into(
            transport,
            segments(),
            rounds(),
            config(),
            0.5,
            &[],
            &mut NoSink,
        )
        .expect("one failed vehicle leaves the quorum");
        match &outcome.reports[1].exits[&VehicleId(2)] {
            VehicleExit::Failed(reason) => assert_eq!(
                reason,
                "estimator failure: channel failure: reading 0: non-finite RSS -inf dBm"
            ),
            other => panic!("expected a failed exit, got {other:?}"),
        }
    }
}

#[test]
fn vehicles_crashing_at_sense_never_run_their_estimator() {
    let plans = [
        FaultPlan::none(),
        FaultPlan::none().crash(VehicleId(1), FaultPoint::Sense),
    ];
    let rounds = || (0..2).map(fleet).collect();
    assert_pipelining_invisible(rounds, &plans, true);
    for transport in [&SimTransport as &dyn Transport, &FleetTransport::new()] {
        let crashed = Registry::new();
        let healthy = Registry::new();
        let mut rounds: Vec<Fleet> = rounds();
        let with = |registry: &Registry, v: u32| {
            let estimator = estimator().with_registry(registry);
            CrowdVehicle::new(VehicleId(v), estimator, Behavior::Honest)
        };
        rounds[1][1].0 = with(&crashed, 1);
        rounds[1][0].0 = with(&healthy, 0);
        let outcome = run_campaign_with_faults_into(
            transport,
            segments(),
            rounds,
            config(),
            0.5,
            &plans,
            &mut NoSink,
        )
        .expect("campaign");
        assert_eq!(
            outcome.reports[1].exits[&VehicleId(1)],
            VehicleExit::Crashed
        );
        let windows = |r: &Registry| {
            r.snapshot()
                .counters
                .get("pipeline.windows_processed")
                .copied()
        };
        assert!(
            windows(&healthy).unwrap_or(0) > 0,
            "the healthy vehicle sensed"
        );
        assert_eq!(
            windows(&crashed).unwrap_or(0),
            0,
            "the crashed vehicle sensed"
        );
    }
}
