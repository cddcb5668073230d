//! Platform round throughput on the virtual-clock simulator backend.
//!
//! The sans-I/O split makes the protocol outcome a pure function of
//! (fleet, config, fault plan), and on [`SimTransport`] deadlines jump
//! a virtual clock instead of sleeping, so a degraded round replays as
//! fast as the estimator maths allows. This bench measures:
//!
//! 1. **Sim throughput** — rounds/sec for a clean five-vehicle round
//!    and for a degraded round (crash + stall + 10% message drop) on
//!    the simulator.
//! 2. **Determinism contract** — two same-seed sim rounds must produce
//!    byte-identical deterministic projections (asserted, not
//!    reported).
//! 3. **Durability cost** — WAL overhead of a clean durable round over
//!    the plain round (budget: 5% of round wall), and recovery replay
//!    throughput over a synthetic mid-round WAL (floor: 50k
//!    events/sec).
//!
//! Writes `BENCH_platform.json` at the repo root (or `$BENCH_OUT_DIR`).
//! `BENCH_SMOKE=1` cuts repetitions for CI.
//! Run with `cargo run -p crowdwifi-bench --release --bin platform_rounds`.

use crowdwifi_bench::{num, obj, paired_median, smoke_mode, time, Report};
use crowdwifi_channel::{PathLossModel, RssReading};
use crowdwifi_core::pipeline::{OnlineCs, OnlineCsConfig};
use crowdwifi_core::ApEstimate;
use crowdwifi_geo::{Point, Rect};
use crowdwifi_middleware::durability::{read_wal, MemorySink, WalHeader, WalWriter};
use crowdwifi_middleware::fault::{FaultPlan, FaultPoint};
use crowdwifi_middleware::messages::{SensingUpload, ToServer, VehicleId};
use crowdwifi_middleware::platform::{FaultTolerance, PlatformConfig};
use crowdwifi_middleware::protocol::{Event, ServerCore, VirtualInstant};
use crowdwifi_middleware::segment::SegmentMap;
use crowdwifi_middleware::transport::{SimTransport, Transport};
use crowdwifi_middleware::vehicle::{Behavior, CrowdVehicle};
use crowdwifi_obs::Registry;
use std::time::Duration;

/// Fading-free staggered drive past two roadside APs.
fn drive(lane_offset: f64) -> Vec<RssReading> {
    let model = PathLossModel::uci_campus();
    let aps = [Point::new(60.0, 30.0), Point::new(220.0, 30.0)];
    (0..50)
        .map(|i| {
            let p = Point::new(
                6.0 * i as f64,
                lane_offset + if (i / 5) % 2 == 0 { 0.0 } else { 12.0 },
            );
            let nearest = aps
                .iter()
                .min_by(|a, b| p.distance(**a).partial_cmp(&p.distance(**b)).unwrap())
                .unwrap();
            RssReading::new(p, model.mean_rss(p.distance(*nearest)), i as f64)
        })
        .collect()
}

fn segments() -> SegmentMap {
    SegmentMap::new(
        Rect::new(Point::new(0.0, -20.0), Point::new(300.0, 80.0)).expect("ordered rect"),
        150.0,
    )
}

fn fleet(n: u32) -> Vec<(CrowdVehicle, Vec<RssReading>)> {
    (0..n)
        .map(|v| {
            let estimator = OnlineCs::new(OnlineCsConfig::default(), PathLossModel::uci_campus())
                .expect("valid estimator config");
            (
                CrowdVehicle::new(VehicleId(v), estimator, Behavior::Honest),
                drive(v as f64 * 0.5),
            )
        })
        .collect()
}

fn config() -> PlatformConfig {
    PlatformConfig {
        workers_per_task: 3,
        seed: 7,
        tolerance: FaultTolerance {
            // Deadlines are virtual time: they shape the degraded
            // round's timeline, not its wall time.
            deadline: Duration::from_millis(800),
            retry_backoff: Duration::from_millis(100),
            ..FaultTolerance::default()
        },
        ..PlatformConfig::default()
    }
}

/// A degraded round: one crash, one straggler, 10% message drop.
fn degraded_plan() -> FaultPlan {
    FaultPlan::noisy(7, 0.10, 0.0, 0.0)
        .crash(VehicleId(1), FaultPoint::Upload)
        .stall(VehicleId(2), FaultPoint::Answer)
}

/// A synthetic mid-round WAL: a large fleet caught one upload short of
/// quorum, so replay exercises the per-event bookkeeping cost without
/// the end-of-round inference (which a real crash would defer anyway —
/// recovery's job is to reach the pre-crash state fast, not to finish
/// the round).
fn replay_wal(vehicles: u32) -> Vec<u8> {
    let fleet: Vec<VehicleId> = (0..vehicles).map(VehicleId).collect();
    let header = WalHeader {
        segments: segments(),
        fleet: fleet.clone(),
        config: config(),
    };
    let mut sink = MemorySink::new();
    let mut writer = WalWriter::create(&mut sink, &header, u64::MAX).expect("in-memory WAL create");
    for &v in fleet.iter().take(fleet.len() - 1) {
        let event = Event::Message {
            now: VirtualInstant::from_micros(u64::from(v.0) * 1_000),
            from: v,
            msg: ToServer::Upload(SensingUpload {
                vehicle: v,
                estimates: vec![
                    ApEstimate {
                        position: Point::new(60.0 + f64::from(v.0), 30.0),
                        credit: 1.0,
                    },
                    ApEstimate {
                        position: Point::new(220.0 - f64::from(v.0), 30.0),
                        credit: 0.5,
                    },
                ],
            }),
        };
        writer.append_event(&event).expect("in-memory WAL append");
    }
    writer.contents().expect("in-memory WAL contents")
}

/// The `notes` paragraph of `BENCH_platform.json`.
const NOTES: &str = "clean round = 5 honest vehicles over a 2-AP drive; degraded adds one crash, \
    one stall and 10% message drop; both run on the virtual-clock simulator, so deadlines and \
    backoffs cost no wall time. Determinism (same seed, byte-identical deterministic projection) \
    is asserted before measuring. durability.wal_overhead_pct is the median over wal_reps of the \
    per-rep durable/plain wall-time ratio, minus one, where each rep runs the plain clean round \
    and the same round with a write-ahead log on the in-memory sink (count-batched syncs), \
    alternating which runs first; plain_ms and durable_ms are the legs' median wall times; the \
    appends cost microseconds against a round dominated by estimator maths, so the percentage \
    hovers around zero (residual noise, possibly negative) and CI gates it at 5%. \
    recovery_replay_events_per_sec decodes a synthetic 64-vehicle mid-round WAL and rebuilds the \
    server by replay; the floor is 50k events/sec.";

fn main() {
    let smoke = smoke_mode();
    let reps = if smoke { 2 } else { 8 };
    println!(
        "platform rounds: 5 vehicles, {} reps{} ...",
        reps,
        if smoke { " (smoke)" } else { "" }
    );

    // Determinism contract: same seed + plan → byte-identical
    // deterministic projection. Cheap, and the bench is meaningless
    // without it.
    let once = SimTransport
        .run_round_with_faults(segments(), fleet(5), config(), &degraded_plan())
        .expect("sim degraded round");
    let twice = SimTransport
        .run_round_with_faults(segments(), fleet(5), config(), &degraded_plan())
        .expect("sim degraded round repeat");
    assert_eq!(
        format!("{:?}", once.deterministic()),
        format!("{:?}", twice.deterministic()),
        "simulator rounds are not deterministic"
    );

    // Warm up once per shape, then measure.
    let clean = |transport: &dyn Transport| {
        transport
            .run_round(segments(), fleet(5), config())
            .expect("clean round");
    };
    let degraded = |transport: &dyn Transport| {
        transport
            .run_round_with_faults(segments(), fleet(5), config(), &degraded_plan())
            .expect("degraded round");
    };

    clean(&SimTransport);
    let sim_clean_secs = time(|| clean(&SimTransport), reps);
    let sim_degraded_secs = time(|| degraded(&SimTransport), reps);
    let sim_rounds_per_sec = 1.0 / sim_clean_secs;

    // WAL overhead: the same clean round with every server event
    // appended to an in-memory log (count-batched syncs, the sim's
    // deterministic sink), one round per leg per rep. The budget is 5%
    // of round wall.
    let durable = |transport: &dyn Transport| {
        let mut wal = MemorySink::new();
        transport
            .run_round_durable(segments(), fleet(5), config(), &FaultPlan::none(), &mut wal)
            .expect("durable clean round");
    };
    durable(&SimTransport);
    // A single round's wall time swings ~±10% on a shared 2-core
    // machine, so one rep's ratio is too noisy for a 5% gate; the
    // median of 21 is not. Odd counts give the median one middle rep.
    let wal_reps = if smoke { 21 } else { 41 };
    let wal = paired_median(
        wal_reps,
        || time(|| durable(&SimTransport), 1),
        || time(|| clean(&SimTransport), 1),
    );
    let (durable_secs, plain_secs) = (wal.a_secs, wal.b_secs);
    let wal_overhead_pct = (wal.ratio - 1.0) * 100.0;

    // Recovery replay throughput: decode a mid-round WAL and rebuild
    // the server by replaying it. The log holds one upload short of
    // quorum from a 64-vehicle fleet, so the rate reflects per-event
    // replay cost — what recovery latency actually scales with.
    let wal_bytes = replay_wal(64);
    let replay_reps = if smoke { 40 } else { 200 };
    let mut replayed_events = 0u64;
    let replay_secs = time(
        || {
            let replay = read_wal(&wal_bytes).expect("intact synthetic WAL");
            let (_, _) = ServerCore::recover(
                replay.header.segments.clone(),
                &replay.header.fleet,
                replay.header.config,
                Registry::new(),
                &replay.events,
            )
            .expect("synthetic WAL recovery");
            replayed_events = replay.events.len() as u64;
        },
        replay_reps,
    );
    let recovery_replay_events_per_sec = replayed_events as f64 / replay_secs;

    Report::new("platform_rounds", 9)
        .field(
            "sim",
            obj([
                ("reps", reps.into()),
                ("clean_ms", num(sim_clean_secs * 1e3, 3)),
                ("degraded_ms", num(sim_degraded_secs * 1e3, 3)),
                ("sim_rounds_per_sec", num(sim_rounds_per_sec, 3)),
            ]),
        )
        .field(
            "durability",
            obj([
                ("wal_reps", wal_reps.into()),
                ("plain_ms", num(plain_secs * 1e3, 3)),
                ("durable_ms", num(durable_secs * 1e3, 3)),
                ("wal_overhead_pct", num(wal_overhead_pct, 3)),
                ("wal_overhead_budget_pct", num(5.0, 1)),
                ("replay_reps", replay_reps.into()),
                ("replay_events", replayed_events.into()),
                ("replay_ms", num(replay_secs * 1e3, 4)),
                (
                    "recovery_replay_events_per_sec",
                    num(recovery_replay_events_per_sec, 0),
                ),
                ("recovery_replay_floor_per_sec", 50_000u64.into()),
            ]),
        )
        .notes(NOTES)
        .write("BENCH_platform.json");
}
