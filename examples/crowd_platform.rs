//! The three-party crowdsensing platform (§3, §5.5): crowd-vehicles
//! sense and label, the crowd-server infers reliabilities and fuses, a
//! user-vehicle downloads the APs ahead of its route from the
//! geo-sharded AP map the round feeds.
//!
//! The server is a sans-I/O state machine; the rounds run on the
//! single-threaded virtual-clock simulator, so a degraded round with
//! multi-second deadlines replays in milliseconds.
//!
//! Round 1: one of the five vehicles is a spammer; watch its inferred
//! reliability sink and its influence disappear from the fused map.
//!
//! Round 2 replays the same fleet under an injected fault schedule —
//! one vehicle crashes silently, one stalls past every deadline, and
//! every link drops 10% of its messages — and still completes, degraded,
//! on the survivors.
//!
//! ```sh
//! cargo run --release --example crowd_platform
//! cargo run --release --example crowd_platform -- --smoke # CI budget
//! ```
//!
//! `--smoke` runs both rounds with a short retry backoff and prints a
//! one-line verdict — the mode `scripts/tier1.sh` exercises.

use crowdwifi::channel::{PathLossModel, RssReading};
use crowdwifi::core::pipeline::{OnlineCs, OnlineCsConfig};
use crowdwifi::geo::{Point, Rect};
use crowdwifi::geomap::{GeoMap, MapConfig};
use crowdwifi::middleware::fault::{FaultPlan, FaultPoint};
use crowdwifi::middleware::mapsink::GeoMapSink;
use crowdwifi::middleware::messages::VehicleId;
use crowdwifi::middleware::platform::{FaultTolerance, PlatformConfig, RoundHealth};
use crowdwifi::middleware::segment::SegmentMap;
use crowdwifi::middleware::transport::{RoundSink, SimTransport, Transport};
use crowdwifi::middleware::vehicle::{Behavior, CrowdVehicle};
use std::sync::Arc;
use std::time::Duration;

/// Fading-free staggered drive past the two "roadside" APs.
fn drive(lane_offset: f64, aps: &[Point]) -> Vec<RssReading> {
    let model = PathLossModel::uci_campus();
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

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = std::env::args().skip(1).any(|a| a == "--smoke");

    let truth = [Point::new(60.0, 30.0), Point::new(220.0, 30.0)];
    let area = Rect::new(Point::new(0.0, -20.0), Point::new(300.0, 80.0))?;
    let segments = SegmentMap::new(area, 150.0);

    // Smoke runs use a shorter retry backoff; on the virtual clock that
    // changes the round's timeline, not its wall time.
    let tolerance = if smoke {
        FaultTolerance {
            retry_backoff: Duration::from_millis(50),
            ..FaultTolerance::default()
        }
    } else {
        FaultTolerance::default()
    };

    // Five crowd-vehicles: four honest, one spammer.
    let mk_fleet = |truth: &[Point]| -> Result<Vec<_>, Box<dyn std::error::Error>> {
        let mut fleet = Vec::new();
        for v in 0..5u32 {
            let estimator = OnlineCs::new(OnlineCsConfig::default(), PathLossModel::uci_campus())?;
            let behavior = if v == 4 {
                Behavior::Spammer
            } else {
                Behavior::Honest
            };
            fleet.push((
                CrowdVehicle::new(VehicleId(v), estimator, behavior),
                drive(v as f64 * 0.5, truth),
            ));
        }
        Ok(fleet)
    };

    if !smoke {
        println!(
            "running one crowdsensing round with 4 honest vehicles + 1 spammer \
             on the sim backend..."
        );
    }
    let report = SimTransport.run_round(
        segments.clone(),
        mk_fleet(&truth)?,
        PlatformConfig {
            workers_per_task: 4,
            tolerance,
            ..PlatformConfig::default()
        },
    )?;

    if !smoke {
        println!("\ninferred reliabilities:");
        for (vehicle, q) in &report.outcome.reliabilities {
            let tag = if vehicle.0 == 4 { " (spammer)" } else { "" };
            println!("  {vehicle}: {q:.2}{tag}");
        }

        println!("\nfused AP database (what a user-vehicle downloads):");
        for ap in &report.fused {
            let nearest = truth
                .iter()
                .map(|t| t.distance(ap.position))
                .fold(f64::INFINITY, f64::min);
            println!(
                "  {} support {:.1} from {} vehicles ({nearest:.1} m from truth)",
                ap.position, ap.support, ap.contributors
            );
        }
    }

    // The round close feeds the geo-sharded AP map; a user-vehicle about
    // to drive the road downloads the APs within 50 m of its route.
    let map = Arc::new(GeoMap::new(MapConfig::new(area))?);
    GeoMapSink::new(Arc::clone(&map), Duration::from_secs(60)).round_closed(0, &report);
    let route = [Point::new(0.0, 0.0), Point::new(300.0, 0.0)];
    let ahead = map.aps_ahead(&route, 50.0);
    if !smoke {
        println!(
            "\nuser-vehicle driving {} -> {}: {} APs within 50 m of its route \
             available for opportunistic access",
            route[0],
            route[1],
            ahead.len()
        );
        for ap in &ahead {
            println!("  {} credit {:.1}", ap.position, ap.credit);
        }
    }

    // Round 2: same road, hostile weather. vehicle1 crashes before it
    // can upload, vehicle2 stalls instead of answering its mapping
    // tasks, and every link drops 10% of its messages. The round must
    // still finish on the survivors — degraded, with every casualty
    // accounted for.
    let plan = FaultPlan::noisy(7, 0.10, 0.0, 0.0)
        .crash(VehicleId(1), FaultPoint::Upload)
        .stall(VehicleId(2), FaultPoint::Answer);
    if !smoke {
        println!("\nrunning a second round under an injected fault schedule");
        println!("(vehicle1 crashes, vehicle2 stalls, 10% message drop)...");
    }
    let degraded = SimTransport.run_round_with_faults(
        segments,
        mk_fleet(&truth)?,
        PlatformConfig {
            workers_per_task: 3,
            tolerance,
            ..PlatformConfig::default()
        },
        &plan,
    )?;

    if smoke {
        // CI budget mode: assert the essentials and report one line.
        assert_eq!(report.health, RoundHealth::Complete, "clean round degraded");
        assert!(!report.fused.is_empty(), "clean round fused nothing");
        assert_eq!(
            ahead.len(),
            report.fused.len(),
            "user-vehicle download missed fused APs along the road"
        );
        assert_eq!(
            degraded.health,
            RoundHealth::Degraded,
            "faulty round should degrade, got {:?}",
            degraded.health
        );
        println!(
            "smoke ok: sim backend, clean round fused {} APs, \
             degraded round survived with {} fates recorded",
            report.fused.len(),
            degraded.fates.len()
        );
        return Ok(());
    }

    println!("\nround health: {:?}", degraded.health);
    println!(
        "reassigned tasks: {}, lost label slots: {}",
        degraded.reassigned_tasks, degraded.lost_label_slots
    );
    println!("per-vehicle fates (server view / vehicle view):");
    for (vehicle, record) in &degraded.fates {
        println!(
            "  {vehicle}: {:?} after {} retries / {:?}",
            record.fate,
            record.retries,
            degraded.exits.get(vehicle)
        );
    }
    println!("fused APs from the survivors:");
    for ap in &degraded.fused {
        let nearest = truth
            .iter()
            .map(|t| t.distance(ap.position))
            .fold(f64::INFINITY, f64::min);
        println!(
            "  {} support {:.1} from {} vehicles ({nearest:.1} m from truth)",
            ap.position, ap.support, ap.contributors
        );
    }
    Ok(())
}
