//! Cross-backend determinism: the same seed and fault plan must yield
//! byte-identical rounds whether they run on the virtual-clock
//! simulator or on the batched fleet engine. This is the payoff of the
//! sans-I/O split — the protocol outcome is a pure function of (fleet,
//! config, plan), with the transport contributing scheduling only. The
//! simulator is the independent reference; the fleet engine must match
//! it at every worker count.

use crowdwifi::channel::{PathLossModel, RssReading};
use crowdwifi::core::pipeline::{OnlineCs, OnlineCsConfig};
use crowdwifi::geo::{Point, Rect};
use crowdwifi::middleware::durability::MemorySink;
use crowdwifi::middleware::fault::{FaultPlan, FaultPoint};
use crowdwifi::middleware::messages::VehicleId;
use crowdwifi::middleware::platform::{
    FateRecord, FaultTolerance, PlatformConfig, PlatformReport, RoundHealth, RoundPhase,
    VehicleFate,
};
use crowdwifi::middleware::segment::SegmentMap;
use crowdwifi::middleware::transport::{
    run_campaign_with_faults_into, sim_round_with_digest, FleetTransport, NoSink, SimTransport,
    Transport,
};
use crowdwifi::middleware::vehicle::{Behavior, CrowdVehicle, VehicleExit};
use std::time::Duration;

type Fleet = Vec<(CrowdVehicle, Vec<RssReading>)>;

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
        Rect::new(Point::new(0.0, -20.0), Point::new(300.0, 80.0)).unwrap(),
        150.0,
    )
}

fn fleet(n: u32) -> Fleet {
    (0..n)
        .map(|v| {
            let estimator =
                OnlineCs::new(OnlineCsConfig::default(), PathLossModel::uci_campus()).unwrap();
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
            retry_backoff: Duration::from_millis(100),
            max_retries: 1,
            ..FaultTolerance::default()
        },
        ..PlatformConfig::default()
    }
}

/// Runs one faulted round on the virtual-clock simulator and on
/// `engine`, asserting byte-identical server state digests and fused
/// maps on the same seed, plus equal deterministic projections, metrics
/// and exits. Returns the simulator's report for further checks.
fn assert_fleet_round_equivalent(
    mk_fleet: impl Fn() -> Fleet,
    plan: &FaultPlan,
    engine: FleetTransport,
    config: PlatformConfig,
) -> PlatformReport {
    let (sim_report, sim_digest) =
        sim_round_with_digest(segments(), mk_fleet(), config, plan).expect("sim round");
    let (fleet_report, fleet_digest) = engine
        .run_round_with_digest(segments(), mk_fleet(), config, plan)
        .expect("fleet round");
    assert_eq!(
        sim_digest, fleet_digest,
        "state digests diverged for plan {plan:?}"
    );
    assert_eq!(
        format!("{:?}", sim_report.fused),
        format!("{:?}", fleet_report.fused),
        "fused maps diverged for plan {plan:?}"
    );
    assert_eq!(
        format!("{:?}", sim_report.deterministic()),
        format!("{:?}", fleet_report.deterministic()),
        "deterministic projections diverged for plan {plan:?}"
    );
    assert_eq!(
        sim_report.metrics.deterministic().to_json(),
        fleet_report.metrics.deterministic().to_json(),
        "deterministic metrics diverged for plan {plan:?}"
    );
    assert_eq!(sim_report.exits, fleet_report.exits, "exits diverged");
    sim_report
}

#[test]
fn healthy_round_is_backend_equivalent() {
    assert_fleet_round_equivalent(
        || fleet(3),
        &FaultPlan::none(),
        FleetTransport::new(),
        config(),
    );
}

#[test]
fn crashed_vehicle_round_is_backend_equivalent() {
    assert_fleet_round_equivalent(
        || fleet(4),
        &FaultPlan::none().crash(VehicleId(2), FaultPoint::Upload),
        FleetTransport::new(),
        config(),
    );
}

#[test]
fn straggler_round_is_backend_equivalent() {
    assert_fleet_round_equivalent(
        || fleet(5),
        &FaultPlan::none().stall(VehicleId(1), FaultPoint::Answer),
        FleetTransport::new(),
        config(),
    );
}

#[test]
fn noisy_links_round_is_backend_equivalent() {
    // Mixed message noise: drops force retries, duplicates are ignored,
    // delays reorder. The per-link RNG streams are keyed by (plan seed,
    // vehicle, direction), so both backends inject the same faults at
    // the same points in each link's send sequence.
    assert_fleet_round_equivalent(
        || fleet(4),
        &FaultPlan::noisy(11, 0.08, 0.15, 0.05),
        FleetTransport::new(),
        config(),
    );
}

#[test]
fn max_seed_round_is_backend_equivalent() {
    // Vehicle seeds are `seed + i + 1`: at the top of the range they
    // must wrap on every backend, not overflow.
    let config = PlatformConfig {
        seed: u64::MAX,
        ..config()
    };
    let plan = FaultPlan::noisy(11, 0.08, 0.15, 0.05);
    assert_fleet_round_equivalent(|| fleet(4), &plan, FleetTransport::new(), config);
    assert_fleet_round_equivalent(
        || fleet(4),
        &plan,
        FleetTransport::new().with_workers(2),
        config,
    );
}

#[test]
fn saturating_retry_backoff_round_is_backend_equivalent() {
    // `validate_config` accepts any backoff, so the k-th retry's extra
    // wait must saturate rather than overflow: the straggler's second
    // labeling retry waits "forever" and the round still degrades.
    let config = PlatformConfig {
        tolerance: FaultTolerance {
            retry_backoff: Duration::MAX,
            max_retries: 2,
            ..config().tolerance
        },
        ..config()
    };
    let plan = FaultPlan::none().stall(VehicleId(1), FaultPoint::Answer);
    let report = assert_fleet_round_equivalent(|| fleet(5), &plan, FleetTransport::new(), config);
    assert_eq!(report.health, RoundHealth::Degraded);
    assert_eq!(
        report.fates[&VehicleId(1)],
        FateRecord {
            fate: VehicleFate::TimedOut(RoundPhase::Labeling),
            retries: 2
        }
    );
}

#[test]
fn failing_vehicle_round_is_backend_equivalent() {
    // Vehicle 1's drive is poisoned with NaN coordinates, so its
    // estimator fails mid-sense: the fleet engine must report the
    // failure upstream exactly like the simulator, at any worker count.
    let poisoned = || {
        let mut fleet = fleet(3);
        for r in fleet[1].1.iter_mut() {
            *r = RssReading::new(Point::new(f64::NAN, f64::NAN), r.rss_dbm, r.time);
        }
        fleet
    };
    for workers in [1, 2] {
        let engine = FleetTransport::new().with_workers(workers);
        let report = assert_fleet_round_equivalent(poisoned, &FaultPlan::none(), engine, config());
        assert!(
            matches!(&report.exits[&VehicleId(1)], VehicleExit::Failed(_)),
            "unexpected exit {:?}",
            report.exits[&VehicleId(1)]
        );
        let fate = &report.fates[&VehicleId(1)].fate;
        assert!(
            matches!(fate, VehicleFate::Reported(_)),
            "unexpected fate {fate:?}"
        );
    }
}

#[test]
fn quorum_loss_fails_identically_on_both_backends() {
    let plan = FaultPlan::none()
        .crash(VehicleId(0), FaultPoint::Sense)
        .crash(VehicleId(1), FaultPoint::Upload);
    let fleeted = FleetTransport::new()
        .run_round_with_faults(segments(), fleet(3), config(), &plan)
        .expect_err("quorum must fail");
    let simulated = SimTransport
        .run_round_with_faults(segments(), fleet(3), config(), &plan)
        .expect_err("quorum must fail");
    assert_eq!(fleeted, simulated);
}

#[test]
fn injected_fault_tallies_are_backend_equivalent() {
    // The observed fault totals land in the sealed report's metrics
    // under the same names with the same values on both backends —
    // the fault layer is keyed by per-link RNG streams, not by
    // scheduling.
    let plan = FaultPlan::noisy(13, 0.12, 0.08, 0.04)
        .crash(VehicleId(1), FaultPoint::Upload)
        .stall(VehicleId(3), FaultPoint::Answer);
    let fleeted = FleetTransport::new()
        .run_round_with_faults(segments(), fleet(5), config(), &plan)
        .expect("fleet round");
    let simulated = SimTransport
        .run_round_with_faults(segments(), fleet(5), config(), &plan)
        .expect("simulated round");
    for name in [
        "platform.faults.dropped",
        "platform.faults.duplicated",
        "platform.faults.delayed",
        "platform.faults.server_crashes",
        "platform.faults.torn_wal_tails",
    ] {
        assert_eq!(
            fleeted.metrics.counters.get(name),
            simulated.metrics.counters.get(name),
            "injected-fault counter {name} diverged across backends"
        );
    }
    // The schedule injected message noise, so something was counted.
    assert!(
        fleeted
            .metrics
            .counters
            .get("platform.faults.dropped")
            .copied()
            .unwrap_or(0)
            > 0,
        "noise plan injected nothing — test is vacuous"
    );
}

#[test]
fn clean_durable_round_is_backend_equivalent() {
    // With no injected crashes the WAL is a pure transcript, and its
    // count-based fsync batching makes even the durability counters
    // backend-identical: same events handled, same appends, same
    // batches, zero recoveries.
    let mut fleet_wal = MemorySink::new();
    let fleeted = FleetTransport::new()
        .run_round_durable(
            segments(),
            fleet(3),
            config(),
            &FaultPlan::none(),
            &mut fleet_wal,
        )
        .expect("fleet durable round");
    let mut sim_wal = MemorySink::new();
    let simulated = SimTransport
        .run_round_durable(
            segments(),
            fleet(3),
            config(),
            &FaultPlan::none(),
            &mut sim_wal,
        )
        .expect("simulated durable round");
    assert_eq!(
        format!("{:?}", fleeted.deterministic()),
        format!("{:?}", simulated.deterministic()),
        "durable deterministic projections diverged"
    );
    assert_eq!(
        fleeted.metrics.deterministic().to_json(),
        simulated.metrics.deterministic().to_json(),
        "durable deterministic metrics diverged (durability.* included)"
    );
    for name in ["durability.appends", "durability.fsync_batches"] {
        assert!(
            fleeted.metrics.counters.get(name).copied().unwrap_or(0) > 0,
            "{name} missing from durable round metrics"
        );
    }
    assert_eq!(
        fleeted.metrics.counters.get("durability.recoveries"),
        Some(&0)
    );
}

#[test]
fn fleet_round_matches_sim_byte_for_byte() {
    // Faults on: message noise plus a crash and a straggler.
    let plan = FaultPlan::noisy(17, 0.08, 0.1, 0.05)
        .crash(VehicleId(1), FaultPoint::Upload)
        .stall(VehicleId(3), FaultPoint::Answer);
    assert_fleet_round_equivalent(
        || fleet(6),
        &plan,
        FleetTransport::new().with_workers(2),
        config(),
    );
}

#[test]
fn fleet_results_are_invariant_to_worker_count() {
    // Every worker count must reproduce the simulator byte for byte,
    // so the results cannot depend on how vehicles were batched.
    let plan = FaultPlan::noisy(29, 0.05, 0.05, 0.05);
    for workers in [1, 2, 3] {
        let engine = FleetTransport::new().with_workers(workers);
        assert_fleet_round_equivalent(|| fleet(5), &plan, engine, config());
    }
}

#[test]
fn fleet_durable_round_matches_sim() {
    // The fleet engine composes with the WAL + server-crash layer from
    // the durability work: same crash schedule, same recovery, same
    // deterministic metrics (durability.* included).
    let plan = FaultPlan::noisy(31, 0.05, 0.05, 0.0).server_crash(
        2,
        crowdwifi::middleware::fault::ServerFault::CrashAfterAppend,
    );
    let mut sim_wal = MemorySink::new();
    let simulated = SimTransport
        .run_round_durable(segments(), fleet(4), config(), &plan, &mut sim_wal)
        .expect("simulated durable round");
    let mut fleet_wal = MemorySink::new();
    let fleeted = FleetTransport::new()
        .with_workers(2)
        .run_round_durable(segments(), fleet(4), config(), &plan, &mut fleet_wal)
        .expect("fleet durable round");
    assert_eq!(
        format!("{:?}", simulated.deterministic()),
        format!("{:?}", fleeted.deterministic()),
        "durable deterministic projections diverged"
    );
    assert_eq!(
        simulated.metrics.deterministic().to_json(),
        fleeted.metrics.deterministic().to_json(),
        "durable deterministic metrics diverged"
    );
    assert!(
        fleeted
            .metrics
            .counters
            .get("durability.recoveries")
            .copied()
            .unwrap_or(0)
            > 0,
        "crash schedule injected no recovery — test is vacuous"
    );
}

#[test]
fn campaign_database_is_backend_equivalent() {
    let rounds = || vec![fleet(3), fleet(4)];
    let plans = [
        FaultPlan::none(),
        FaultPlan::none().crash(VehicleId(3), FaultPoint::Upload),
    ];
    let fleeted = run_campaign_with_faults_into(
        &FleetTransport::new(),
        segments(),
        rounds(),
        config(),
        0.5,
        &plans,
        &mut NoSink,
    )
    .expect("fleet campaign");
    let simulated = run_campaign_with_faults_into(
        &SimTransport,
        segments(),
        rounds(),
        config(),
        0.5,
        &plans,
        &mut NoSink,
    )
    .expect("simulated campaign");
    assert_eq!(fleeted.reports.len(), simulated.reports.len());
    for (f, s) in fleeted.reports.iter().zip(&simulated.reports) {
        assert_eq!(
            format!("{:?}", f.deterministic()),
            format!("{:?}", s.deterministic())
        );
    }
    assert_eq!(
        format!("{:?}", fleeted.database),
        format!("{:?}", simulated.database),
        "sharded campaign databases diverged"
    );
    assert!(!fleeted.database.is_empty());
}
