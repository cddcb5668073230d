//! Fleet-scale round throughput on the batched event-loop backend.
//!
//! [`FleetTransport`] multiplexes tens of thousands of vehicle session
//! state machines over a clamped worker pool in front of the one
//! server core. This bench measures what that buys:
//! **simulated vehicle-rounds per hour** — how many vehicle
//! participations in a full faulted crowdsensing round the engine
//! completes per wall-clock hour — at 10k, 50k and 100k vehicles
//! (one 2k row under `BENCH_SMOKE=1`). The target is ≥ 1M.
//!
//! Every measured round runs with faults on: background message drop
//! and duplication plus a sprinkle of vehicle crashes and stalls, so
//! the number reflects the engine with its retry/reassignment
//! machinery exercised, not a fair-weather fast path.
//!
//! Before measuring, a small fleet is run on both `SimTransport` and
//! [`FleetTransport`] and the `state_digest` / fused maps are asserted
//! byte-identical — the throughput of an engine that diverges from the
//! reference simulator would be meaningless.
//!
//! Writes `BENCH_fleet.json` at the repo root (or `$BENCH_OUT_DIR`).
//! Run with `cargo run -p crowdwifi-bench --release --bin fleet_rounds`.

use crowdwifi_bench::{num, obj, smoke_mode, Json, Report};
use crowdwifi_channel::{PathLossModel, RssReading};
use crowdwifi_core::pipeline::{OnlineCs, OnlineCsConfig};
use crowdwifi_core::window::WindowConfig;
use crowdwifi_geo::{Point, Rect};
use crowdwifi_middleware::fault::{FaultPlan, FaultPoint};
use crowdwifi_middleware::messages::VehicleId;
use crowdwifi_middleware::platform::{FaultTolerance, PlatformConfig};
use crowdwifi_middleware::segment::SegmentMap;
use crowdwifi_middleware::transport::{sim_round_with_digest, FleetTransport, Transport};
use crowdwifi_middleware::vehicle::{Behavior, CrowdVehicle};
use std::time::{Duration, Instant};

/// Vehicles sharing one road segment (and its single roadside AP).
const VEHICLES_PER_SEGMENT: u32 = 20;
/// Road-segment length in meters.
const SEG_LEN: f64 = 150.0;

/// A long straight road: one 150 m segment per 20 vehicles, so fleet
/// size scales the number of road segments, not the density.
fn road(n: u32) -> SegmentMap {
    let segs = n.div_ceil(VEHICLES_PER_SEGMENT).max(1);
    SegmentMap::new(
        Rect::new(
            Point::new(0.0, -20.0),
            Point::new(f64::from(segs) * SEG_LEN, 40.0),
        )
        .expect("ordered rect"),
        SEG_LEN,
    )
}

/// Per-vehicle estimator tuned for fleet scale: one 12-sample window,
/// coarse lattice, short radio range, no global refinement, and a
/// single solver thread — parallelism lives in the transport's worker
/// pool, not inside each (tiny) per-vehicle solve.
fn estimator_config() -> OnlineCsConfig {
    OnlineCsConfig {
        window: WindowConfig {
            size: 12,
            step: 12,
            ..WindowConfig::default()
        },
        lattice: 10.0,
        radio_range: 60.0,
        max_ap_per_window: 2,
        global_refine: false,
        threads: 1,
        ..OnlineCsConfig::default()
    }
}

/// `n` honest vehicles, 20 per segment, each driving 12 samples past
/// its segment's single roadside AP in a slightly offset lane.
fn fleet(n: u32) -> Vec<(CrowdVehicle, Vec<RssReading>)> {
    (0..n)
        .map(|v| {
            let model = PathLossModel::uci_campus();
            let seg = v / VEHICLES_PER_SEGMENT;
            let lane = f64::from(v % VEHICLES_PER_SEGMENT);
            let x0 = f64::from(seg) * SEG_LEN;
            let ap = Point::new(x0 + 75.0, 25.0);
            let readings = (0..12)
                .map(|i| {
                    let p = Point::new(x0 + 20.0 + 10.0 * f64::from(i), lane * 0.7);
                    RssReading::new(p, model.mean_rss(p.distance(ap)), f64::from(i))
                })
                .collect();
            let estimator =
                OnlineCs::new(estimator_config(), model).expect("valid estimator config");
            (
                CrowdVehicle::new(VehicleId(v), estimator, Behavior::Honest),
                readings,
            )
        })
        .collect()
}

fn config() -> PlatformConfig {
    PlatformConfig {
        workers_per_task: 3,
        seed: 1009,
        tolerance: FaultTolerance {
            deadline: Duration::from_millis(800),
            retry_backoff: Duration::from_millis(100),
            ..FaultTolerance::default()
        },
        ..PlatformConfig::default()
    }
}

/// Faults on, scaled to the fleet: 1% message drop, 0.5% duplication,
/// plus one crashing and one stalling vehicle per 2048 — enough to
/// keep the retry and reassignment machinery busy at every size.
fn fleet_plan(n: u32) -> FaultPlan {
    let mut plan = FaultPlan::noisy(u64::from(n) + 11, 0.01, 0.005, 0.0);
    let mut v = 7;
    while v < n {
        plan = plan.crash(VehicleId(v), FaultPoint::Upload);
        v += 2048;
    }
    let mut v = 1031;
    while v < n {
        plan = plan.stall(VehicleId(v), FaultPoint::Answer);
        v += 2048;
    }
    plan
}

/// The `notes` paragraph of `BENCH_fleet.json`.
const NOTES: &str = "Each row is one full crowdsensing round on FleetTransport with faults on (1% \
    drop, 0.5% duplication, one crash and one stall per 2048 vehicles): sensing, upload, labeling \
    with retries and reassignment, per-segment fusion, reliability scoring. \
    vehicle_rounds_per_hour = vehicles / wall_secs * 3600; headline is the worst row. Vehicles \
    run a deliberately cheap estimator (one 12-sample window, 10 m lattice, 60 m radio range, no \
    global refine, single-threaded solves) so the number measures the round engine — event \
    batching, timer machinery — not estimator maths. machine.worker_budget is the transport's \
    worker-pool size: the machine's detected parallelism (par::resolve_threads). Before \
    timing, a 200-vehicle round is asserted byte-identical (state digest and fused map) between \
    FleetTransport and the reference SimTransport on the same seed and plan.";

fn main() {
    let smoke = smoke_mode();
    let sizes: &[u32] = if smoke {
        &[2_000]
    } else {
        &[10_000, 50_000, 100_000]
    };
    let transport = FleetTransport::new();
    let worker_budget = transport.worker_budget();
    println!(
        "fleet rounds: sizes {sizes:?}, {worker_budget} worker(s){} ...",
        if smoke { " (smoke)" } else { "" }
    );

    // Equivalence contract: a small fleet on the batched engine
    // must be byte-identical to the reference simulator on the same
    // seed and fault plan. Asserted before anything is timed.
    let eq_n = 200;
    let (sim_report, sim_digest) =
        sim_round_with_digest(road(eq_n), fleet(eq_n), config(), &fleet_plan(eq_n))
            .expect("sim reference round");
    let (fleet_report, fleet_digest) = transport
        .run_round_with_digest(road(eq_n), fleet(eq_n), config(), &fleet_plan(eq_n))
        .expect("fleet reference round");
    assert_eq!(sim_digest, fleet_digest, "state digests diverged");
    assert_eq!(
        format!("{:?}", sim_report.fused),
        format!("{:?}", fleet_report.fused),
        "fused maps diverged"
    );

    let mut rows = Vec::new();
    let mut headline = f64::INFINITY;
    for &n in sizes {
        let segments = road(n);
        let vehicles = fleet(n);
        let plan = fleet_plan(n);
        let start = Instant::now();
        let report = transport
            .run_round_with_faults(segments, vehicles, config(), &plan)
            .expect("fleet round");
        let wall_secs = start.elapsed().as_secs_f64();
        let vrph = f64::from(n) / wall_secs * 3600.0;
        headline = headline.min(vrph);
        let fused = report.fused.len();
        let failed = report
            .exits
            .values()
            .filter(|e| !matches!(e, crowdwifi_middleware::vehicle::VehicleExit::Completed))
            .count();
        rows.push(obj([
            ("vehicles", n.into()),
            ("wall_secs", num(wall_secs, 3)),
            ("vehicle_rounds_per_hour", num(vrph, 0)),
            ("fused_aps", fused.into()),
            ("non_clean_exits", failed.into()),
        ]));
    }

    Report::new("fleet_rounds", 8)
        .worker_budget(worker_budget)
        .field(
            "equivalence",
            obj([("vehicles", eq_n.into()), ("digest_match", true.into())]),
        )
        .field("rows", Json::Arr(rows))
        .field("headline_vehicle_rounds_per_hour", num(headline, 0))
        .field("target_vehicle_rounds_per_hour", 1_000_000u64)
        .notes(NOTES)
        .write("BENCH_fleet.json");
}
