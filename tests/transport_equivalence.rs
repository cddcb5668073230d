//! Cross-backend determinism: the same seed and fault plan must yield
//! byte-identical deterministic round projections whether the round runs
//! on the concurrent threaded transport or on the virtual-clock
//! simulator. This is the payoff of the sans-I/O split — the protocol
//! outcome is a pure function of (fleet, config, plan), with the
//! transport contributing scheduling and wall time only.

use crowdwifi::channel::{PathLossModel, RssReading};
use crowdwifi::core::pipeline::{OnlineCs, OnlineCsConfig};
use crowdwifi::geo::{Point, Rect};
use crowdwifi::middleware::durability::MemorySink;
use crowdwifi::middleware::fault::{FaultPlan, FaultPoint};
use crowdwifi::middleware::messages::VehicleId;
use crowdwifi::middleware::platform::{FaultTolerance, PlatformConfig};
use crowdwifi::middleware::segment::SegmentMap;
use crowdwifi::middleware::transport::{
    run_campaign_with_faults_into, sim_round_with_digest, FleetTransport, NoSink, SimTransport,
    ThreadTransport, Transport,
};
use crowdwifi::middleware::vehicle::{Behavior, CrowdVehicle};
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
        Rect::new(Point::new(0.0, -20.0), Point::new(300.0, 80.0)).unwrap(),
        150.0,
    )
}

fn fleet(n: u32) -> Vec<(CrowdVehicle, Vec<RssReading>)> {
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

/// Runs one round on both backends and asserts the outcomes are
/// byte-identical: same error, or same deterministic projection
/// (everything except wall-clock timings).
fn assert_round_equivalent(n: u32, plan: &FaultPlan, config: PlatformConfig) {
    let threaded = ThreadTransport.run_round_with_faults(segments(), fleet(n), config, plan);
    let simulated = SimTransport.run_round_with_faults(segments(), fleet(n), config, plan);
    match (threaded, simulated) {
        (Ok(threaded), Ok(simulated)) => {
            assert_eq!(
                format!("{:?}", threaded.deterministic()),
                format!("{:?}", simulated.deterministic()),
                "deterministic projections diverged for plan {plan:?}"
            );
            assert_eq!(
                threaded.metrics.deterministic().to_json(),
                simulated.metrics.deterministic().to_json(),
                "deterministic metrics diverged for plan {plan:?}"
            );
            assert_eq!(threaded.exits, simulated.exits, "vehicle exits diverged");
        }
        (Err(threaded), Err(simulated)) => assert_eq!(threaded, simulated),
        (t, s) => panic!("backends disagree on round outcome: threaded {t:?} vs sim {s:?}"),
    }
}

#[test]
fn healthy_round_is_backend_equivalent() {
    assert_round_equivalent(3, &FaultPlan::none(), config());
}

#[test]
fn crashed_vehicle_round_is_backend_equivalent() {
    assert_round_equivalent(
        4,
        &FaultPlan::none().crash(VehicleId(2), FaultPoint::Upload),
        config(),
    );
}

#[test]
fn straggler_round_is_backend_equivalent() {
    assert_round_equivalent(
        5,
        &FaultPlan::none().stall(VehicleId(1), FaultPoint::Answer),
        config(),
    );
}

#[test]
fn noisy_links_round_is_backend_equivalent() {
    // Mixed message noise: drops force retries, duplicates are ignored,
    // delays reorder. The per-link RNG streams are keyed by (plan seed,
    // vehicle, direction), so both backends inject the same faults at
    // the same points in each link's send sequence.
    assert_round_equivalent(4, &FaultPlan::noisy(11, 0.08, 0.15, 0.05), config());
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
    assert_round_equivalent(4, &plan, config);
    assert_fleet_round_equivalent(4, &plan, 2, config);
}

#[test]
fn quorum_loss_fails_identically_on_both_backends() {
    let plan = FaultPlan::none()
        .crash(VehicleId(0), FaultPoint::Sense)
        .crash(VehicleId(1), FaultPoint::Upload);
    let threaded = ThreadTransport
        .run_round_with_faults(segments(), fleet(3), config(), &plan)
        .expect_err("quorum must fail");
    let simulated = SimTransport
        .run_round_with_faults(segments(), fleet(3), config(), &plan)
        .expect_err("quorum must fail");
    assert_eq!(threaded, simulated);
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
    let threaded = ThreadTransport
        .run_round_with_faults(segments(), fleet(5), config(), &plan)
        .expect("threaded round");
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
            threaded.metrics.counters.get(name),
            simulated.metrics.counters.get(name),
            "injected-fault counter {name} diverged across backends"
        );
    }
    // The schedule injected message noise, so something was counted.
    assert!(
        threaded
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
    let mut thread_wal = MemorySink::new();
    let threaded = ThreadTransport
        .run_round_durable(
            segments(),
            fleet(3),
            config(),
            &FaultPlan::none(),
            &mut thread_wal,
        )
        .expect("threaded durable round");
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
        format!("{:?}", threaded.deterministic()),
        format!("{:?}", simulated.deterministic()),
        "durable deterministic projections diverged"
    );
    assert_eq!(
        threaded.metrics.deterministic().to_json(),
        simulated.metrics.deterministic().to_json(),
        "durable deterministic metrics diverged (durability.* included)"
    );
    for name in ["durability.appends", "durability.fsync_batches"] {
        assert!(
            threaded.metrics.counters.get(name).copied().unwrap_or(0) > 0,
            "{name} missing from durable round metrics"
        );
    }
    assert_eq!(
        threaded.metrics.counters.get("durability.recoveries"),
        Some(&0)
    );
}

/// Runs one faulted round on the virtual-clock simulator and on the
/// fleet-scale engine, asserting the issue's contract: byte-identical
/// server state digests and fused maps on the same seed, plus equal
/// deterministic projections, metrics and exits.
fn assert_fleet_round_equivalent(n: u32, plan: &FaultPlan, workers: usize, config: PlatformConfig) {
    let (sim_report, sim_digest) =
        sim_round_with_digest(segments(), fleet(n), config, plan).expect("sim round");
    let engine = FleetTransport::new().with_workers(workers);
    let (fleet_report, fleet_digest) = engine
        .run_round_with_digest(segments(), fleet(n), config, plan)
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
}

#[test]
fn fleet_round_matches_sim_byte_for_byte() {
    // Faults on: message noise plus a crash and a straggler, the same
    // classes the sim-vs-threaded suite exercises.
    let plan = FaultPlan::noisy(17, 0.08, 0.1, 0.05)
        .crash(VehicleId(1), FaultPoint::Upload)
        .stall(VehicleId(3), FaultPoint::Answer);
    assert_fleet_round_equivalent(6, &plan, 2, config());
}

#[test]
fn fleet_results_are_invariant_to_worker_count() {
    // Every worker count must reproduce the simulator byte for byte,
    // so the results cannot depend on how vehicles were batched.
    let plan = FaultPlan::noisy(29, 0.05, 0.05, 0.05);
    for workers in [1, 2, 3] {
        assert_fleet_round_equivalent(5, &plan, workers, config());
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
    let threaded = run_campaign_with_faults_into(
        &ThreadTransport,
        segments(),
        rounds(),
        config(),
        0.5,
        &plans,
        &mut NoSink,
    )
    .expect("threaded campaign");
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
    assert_eq!(threaded.reports.len(), simulated.reports.len());
    for (t, s) in threaded.reports.iter().zip(&simulated.reports) {
        assert_eq!(
            format!("{:?}", t.deterministic()),
            format!("{:?}", s.deterministic())
        );
    }
    assert_eq!(
        format!("{:?}", threaded.database),
        format!("{:?}", simulated.database),
        "sharded campaign databases diverged"
    );
    assert!(!threaded.database.is_empty());
}
