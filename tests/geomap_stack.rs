//! The geo-sharded AP map wired through the full stack: campaign
//! rounds drain into the map via [`GeoMapSink`], and the map's corridor
//! query feeds the handoff policies.

use crowdwifi::channel::{PathLossModel, RssReading};
use crowdwifi::core::pipeline::{OnlineCs, OnlineCsConfig};
use crowdwifi::core::ApEstimate;
use crowdwifi::geo::{Point, Rect};
use crowdwifi::geomap::{GeoMap, MapConfig};
use crowdwifi::handoff::connectivity::{simulate, ConnectivityConfig, Policy};
use crowdwifi::handoff::db::ApDatabase;
use crowdwifi::middleware::fault::FaultPlan;
use crowdwifi::middleware::mapsink::GeoMapSink;
use crowdwifi::middleware::messages::VehicleId;
use crowdwifi::middleware::platform::{FaultTolerance, PlatformConfig};
use crowdwifi::middleware::segment::SegmentMap;
use crowdwifi::middleware::transport::{run_campaign_with_faults_into, FleetTransport};
use crowdwifi::middleware::vehicle::{Behavior, CrowdVehicle};
use crowdwifi::sim::mobility::vanlan_round;
use crowdwifi::sim::Scenario;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;
use std::time::Duration;

/// Fading-free staggered drive past two roadside APs (the
/// transport-equivalence fixture).
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

fn area() -> Rect {
    Rect::new(Point::new(0.0, -20.0), Point::new(300.0, 80.0)).unwrap()
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

#[test]
fn campaign_rounds_drain_into_the_map_through_the_sink() {
    let period = Duration::from_secs(60);
    let map = Arc::new(GeoMap::new(MapConfig::new(area())).unwrap());
    let mut sink = GeoMapSink::new(Arc::clone(&map), period);
    let outcome = run_campaign_with_faults_into(
        &FleetTransport::new().with_workers(2),
        SegmentMap::new(area(), 150.0),
        vec![fleet(3), fleet(4)],
        config(),
        0.5,
        &[FaultPlan::none(), FaultPlan::none()],
        &mut sink,
    )
    .expect("campaign");
    assert_eq!(sink.rounds_closed(), 2);
    assert!(!map.is_empty(), "campaign produced no map entries");

    // The sink is a pure fold of the report stream: replaying each
    // round's fused estimates by hand must reproduce the map byte for
    // byte.
    let replay = GeoMap::new(MapConfig::new(area())).unwrap();
    for (i, report) in outcome.reports.iter().enumerate() {
        let estimates: Vec<ApEstimate> = report
            .fused
            .iter()
            .map(|f| ApEstimate {
                position: f.position,
                credit: f.support,
            })
            .collect();
        replay.absorb_estimates((i as u64 + 1) * period.as_micros() as u64, &estimates);
    }
    assert_eq!(
        map.snapshot(),
        replay.snapshot(),
        "sink-fed map diverged from a replay of the report stream"
    );
}

#[test]
fn map_fed_brr_is_identical_to_the_static_list_baseline() {
    let scenario = Scenario::vanlan();
    let route = vanlan_round(0.0);
    let cfg = ConnectivityConfig::default();

    // Two rounds of credit-2 fused estimates: each AP consolidates to
    // credit 4 at its exact position (power-of-two credits keep the
    // weighted-mean merge bit-exact).
    let map = GeoMap::new(MapConfig::new(scenario.area())).unwrap();
    for round in 0u64..2 {
        let estimates: Vec<ApEstimate> = scenario
            .ap_positions()
            .into_iter()
            .map(|position| ApEstimate {
                position,
                credit: 2.0,
            })
            .collect();
        map.absorb_estimates((round + 1) * 60_000_000, &estimates);
    }

    let path: Vec<Point> = route.waypoints().iter().map(|w| w.position).collect();
    let ahead = map.aps_ahead(&path, cfg.believed_range);
    let map_db = ApDatabase::new(ahead.iter().map(|a| a.position).collect());
    assert!(!map_db.is_empty(), "corridor query found nothing");

    // Static baseline in the map's canonical order: any AP the policies
    // could consider sits within `believed_range` of the route, i.e.
    // inside the corridor, so the two databases filter identically at
    // every step of the drive.
    let mut baseline = scenario.ap_positions();
    baseline.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
    let static_db = ApDatabase::new(baseline);

    for policy in [Policy::Brr, Policy::AllAp] {
        let from_map = simulate(
            policy,
            &scenario,
            &route,
            &map_db,
            cfg,
            &mut ChaCha8Rng::seed_from_u64(9),
        )
        .expect("map-fed simulation");
        let from_static = simulate(
            policy,
            &scenario,
            &route,
            &static_db,
            cfg,
            &mut ChaCha8Rng::seed_from_u64(9),
        )
        .expect("static simulation");
        assert_eq!(
            from_map, from_static,
            "{policy} trace diverged between map-fed and static databases"
        );
    }
}
