//! Failure injection: hostile, degenerate and malformed inputs must be
//! rejected cleanly or absorbed without panics or non-finite outputs —
//! and the platform must survive crashing, stalling and lossy vehicles,
//! completing rounds degraded instead of hanging or erroring.

use crowdwifi::channel::RssReading;
use crowdwifi::core::pipeline::{ensemble_run, OnlineCs, OnlineCsConfig};
use crowdwifi::core::window::WindowConfig;
use crowdwifi::core::CoreError;
use crowdwifi::crowd::graph::BipartiteAssignment;
use crowdwifi::crowd::inference::IterativeInference;
use crowdwifi::crowd::worker::WorkerPool;
use crowdwifi::crowd::LabelMatrix;
use crowdwifi::geo::Point;
use crowdwifi::sim::Scenario;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn pipeline() -> OnlineCs {
    OnlineCs::new(
        OnlineCsConfig::default(),
        *Scenario::uci_campus().pathloss(),
    )
    .unwrap()
}

#[test]
fn empty_and_tiny_streams_are_fine() {
    let p = pipeline();
    assert!(p.run(&[]).unwrap().is_empty());
    // A single reading cannot resolve anything but must not panic.
    let one = [RssReading::new(Point::new(0.0, 0.0), -60.0, 0.0)];
    let est = p.run(&one).unwrap();
    for e in est {
        assert!(e.position.is_finite());
    }
}

#[test]
fn identical_positions_do_not_crash_grid_formation() {
    let p = pipeline();
    // 50 readings all from the exact same spot: zero-extent bounding box.
    let readings: Vec<RssReading> = (0..50)
        .map(|i| RssReading::new(Point::new(10.0, 10.0), -55.0 - (i % 3) as f64, i as f64))
        .collect();
    let est = p.run(&readings).unwrap();
    for e in est {
        assert!(e.position.is_finite());
    }
}

#[test]
fn extreme_rss_values_stay_finite() {
    let p = pipeline();
    let readings: Vec<RssReading> = (0..40)
        .map(|i| {
            let rss = match i % 4 {
                0 => -200.0, // absurdly weak
                1 => 50.0,   // absurdly strong
                2 => -60.0,
                _ => -95.0,
            };
            RssReading::new(Point::new(3.0 * i as f64, (i % 7) as f64), rss, i as f64)
        })
        .collect();
    let est = p.run(&readings).unwrap();
    for e in est {
        assert!(e.position.is_finite(), "non-finite estimate {e:?}");
        assert!(e.credit.is_finite());
    }
}

#[test]
fn ensemble_handles_empty_input() {
    let est = ensemble_run(
        &[],
        OnlineCsConfig::default(),
        *Scenario::uci_campus().pathloss(),
        5,
    )
    .unwrap();
    assert!(est.is_empty());
}

#[test]
fn out_of_order_timestamps_are_rejected_by_window_or_absorbed() {
    // The sliding window uses timestamps only for TTL expiry; feeding
    // out-of-order times must not panic.
    let cfg = OnlineCsConfig {
        window: WindowConfig {
            size: 10,
            step: 5,
            ttl: 30.0,
        },
        ..OnlineCsConfig::default()
    };
    let p = OnlineCs::new(cfg, *Scenario::uci_campus().pathloss()).unwrap();
    let readings: Vec<RssReading> = (0..30)
        .map(|i| {
            let t = if i % 5 == 0 { 0.0 } else { i as f64 };
            RssReading::new(Point::new(4.0 * i as f64, 0.0), -60.0, t)
        })
        .collect();
    let _ = p.run(&readings).unwrap();
}

/// Replaces reading 17 of a 50-reading drive that the estimator maps
/// (a window completes at every tenth reading) with `bad(reading)`, and
/// checks that a batch run, a streaming push and `ensemble_run` each
/// reject it with an error of the `expected` kind instead of panicking
/// or returning no estimates.
fn assert_rejected(bad: fn(RssReading) -> RssReading, expected: fn(&CoreError) -> bool) {
    let p = pipeline();
    let mut drive = platform_faults::drive(0.0);
    assert!(
        !p.run(&drive).unwrap().is_empty(),
        "the clean drive maps APs"
    );
    drive[17] = bad(drive[17]);
    let check = |err: CoreError| assert!(expected(&err), "wrong error kind: {err}");
    check(p.run(&drive).unwrap_err());
    let pathloss = *Scenario::uci_campus().pathloss();
    check(ensemble_run(&drive, OnlineCsConfig::default(), pathloss, 5).unwrap_err());
    let mut session = p.session().unwrap();
    for r in &drive[..17] {
        session.push(*r).unwrap();
    }
    check(session.push(drive[17]).unwrap_err());
}

fn channel(err: &CoreError) -> bool {
    matches!(err, CoreError::Channel(_))
}

fn geometry(err: &CoreError) -> bool {
    matches!(err, CoreError::Geometry(_))
}

#[test]
fn minus_infinite_rss_is_rejected() {
    assert_rejected(
        |r| RssReading::new(r.position, f64::NEG_INFINITY, r.time),
        channel,
    );
}

#[test]
fn plus_infinite_rss_is_rejected() {
    assert_rejected(
        |r| RssReading::new(r.position, f64::INFINITY, r.time),
        channel,
    );
}

#[test]
fn nan_rss_is_rejected() {
    assert_rejected(|r| RssReading::new(r.position, f64::NAN, r.time), channel);
}

#[test]
fn infinite_position_is_rejected() {
    let bad = |r: RssReading| {
        let far = Point::new(f64::INFINITY, r.position.y);
        RssReading::new(far, r.rss_dbm, r.time)
    };
    assert_rejected(bad, geometry);
}

#[test]
fn nan_position_is_rejected() {
    let bad = |r: RssReading| {
        let nowhere = Point::new(f64::NAN, r.position.y);
        RssReading::new(nowhere, r.rss_dbm, r.time)
    };
    assert_rejected(bad, geometry);
}

#[test]
fn a_rejected_push_leaves_the_session_as_it_was() {
    // Both bad readings arrive where a window would complete, and the
    // session's outputs match a session that never saw them.
    let p = pipeline();
    let drive = platform_faults::drive(0.0);
    let (mut clean, mut probed) = (p.session().unwrap(), p.session().unwrap());
    for (i, &r) in drive.iter().enumerate() {
        if i == 19 {
            let rss = RssReading::new(r.position, f64::NEG_INFINITY, r.time);
            let nowhere = Point::new(f64::NAN, r.position.y);
            for bad in [rss, RssReading::new(nowhere, r.rss_dbm, r.time)] {
                assert!(probed.push(bad).is_err());
            }
        }
        assert_eq!(probed.push(r).unwrap(), clean.push(r).unwrap());
        assert_eq!(probed.estimates(), clean.estimates());
    }
    let (probed, clean) = (probed.finish().unwrap(), clean.finish().unwrap());
    assert!(!clean.is_empty());
    assert_eq!(probed, clean);
    assert_eq!(probed, p.run(&drive).unwrap());
}

#[test]
fn all_spammer_crowd_degrades_gracefully() {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let graph = BipartiteAssignment::regular(200, 5, 5, &mut rng).unwrap();
    let truth: Vec<i8> = (0..200).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
    // Every worker is a coin-flipper: no decoder can beat chance, but
    // nothing may panic and the error must hover near 1/2.
    let pool = WorkerPool::new(vec![0.5; graph.workers()]).unwrap();
    let labels = LabelMatrix::generate(&graph, &truth, &pool, &mut rng);
    let err = IterativeInference::default().decode_error(&labels, &truth, &mut rng);
    assert!((0.2..=0.8).contains(&err), "all-spammer error {err}");
}

#[test]
fn adversarial_workers_do_not_break_inference() {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let graph = BipartiteAssignment::regular(300, 7, 7, &mut rng).unwrap();
    let truth: Vec<i8> = (0..300).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
    // 20 % adversaries (q = 0.1, systematically lying), 80 % hammers.
    let reliabilities: Vec<f64> = (0..graph.workers())
        .map(|j| if j % 5 == 0 { 0.1 } else { 0.95 })
        .collect();
    let pool = WorkerPool::new(reliabilities).unwrap();
    let labels = LabelMatrix::generate(&graph, &truth, &pool, &mut rng);
    let result = IterativeInference::default().run(&labels, &mut rng);
    let err = crowdwifi::crowd::bit_error_rate(&result.estimates, &truth);
    // Message passing exploits the anti-correlation: adversaries get
    // negative scores and the decode stays accurate.
    assert!(err < 0.05, "error with adversaries {err}");
    let adv_score: f64 =
        result.worker_scores.iter().step_by(5).sum::<f64>() / (graph.workers() / 5) as f64;
    assert!(
        adv_score < 0.0,
        "adversaries should score negative: {adv_score}"
    );
}

// ---------------------------------------------------------------------
// Platform-level fault injection: whole rounds under scheduled vehicle
// deaths and lossy links.
// ---------------------------------------------------------------------

mod platform_faults {
    use crowdwifi::channel::{PathLossModel, RssReading};
    use crowdwifi::core::pipeline::{OnlineCs, OnlineCsConfig};
    use crowdwifi::geo::{Point, Rect};
    use crowdwifi::middleware::fault::{FaultPlan, FaultPoint};
    use crowdwifi::middleware::messages::VehicleId;
    use crowdwifi::middleware::platform::{
        FaultTolerance, PlatformConfig, PlatformReport, RoundHealth, VehicleFate,
    };
    use crowdwifi::middleware::segment::SegmentMap;
    use crowdwifi::middleware::transport::{SimTransport, Transport};
    use crowdwifi::middleware::vehicle::{Behavior, CrowdVehicle};
    use std::time::Duration;

    /// Fading-free staggered drive past two roadside APs.
    pub(super) fn drive(lane_offset: f64) -> Vec<RssReading> {
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

    /// One retry, short backoff: a dead vehicle is declared after about
    /// two deadlines instead of three. The deadline stays at the 2 s
    /// default; on the virtual clock it costs no wall time.
    fn config() -> PlatformConfig {
        PlatformConfig {
            workers_per_task: 3,
            tolerance: FaultTolerance {
                retry_backoff: Duration::from_millis(100),
                max_retries: 1,
                ..FaultTolerance::default()
            },
            ..PlatformConfig::default()
        }
    }

    fn assert_finite(report: &PlatformReport) {
        assert!(!report.fused.is_empty(), "no fused output");
        for ap in &report.fused {
            assert!(ap.position.is_finite(), "non-finite fused AP {ap:?}");
            assert!(ap.support.is_finite());
        }
        for q in report.outcome.reliabilities.values() {
            assert!(q.is_finite() && (0.0..=1.0).contains(q));
        }
    }

    #[test]
    fn crashed_vehicle_degrades_round() {
        let plan = FaultPlan::none().crash(VehicleId(1), FaultPoint::Sense);
        let report = SimTransport
            .run_round_with_faults(segments(), fleet(4), config(), &plan)
            .unwrap();
        assert_eq!(report.health, RoundHealth::Degraded);
        assert_eq!(report.dead_vehicles(), vec![VehicleId(1)]);
        assert_finite(&report);
    }

    #[test]
    fn straggler_past_deadline_gets_tasks_reassigned() {
        let plan = FaultPlan::none().stall(VehicleId(2), FaultPoint::Answer);
        let report = SimTransport
            .run_round_with_faults(segments(), fleet(5), config(), &plan)
            .unwrap();
        assert_eq!(report.health, RoundHealth::Degraded);
        assert_eq!(report.dead_vehicles(), vec![VehicleId(2)]);
        assert!(
            report.reassigned_tasks > 0,
            "straggler tasks were not reassigned"
        );
        assert_eq!(report.lost_label_slots, 0);
        assert_finite(&report);
    }

    #[test]
    fn ten_percent_message_drop_still_completes() {
        let plan = FaultPlan::noisy(11, 0.10, 0.0, 0.0);
        let report = SimTransport
            .run_round_with_faults(segments(), fleet(5), config(), &plan)
            .unwrap();
        // Whether a retry was needed depends on which messages the
        // schedule hit; the round must complete with sane output either
        // way, and no vehicle may die — retries recover every drop.
        assert!(
            report.dead_vehicles().is_empty(),
            "drop noise killed a vehicle"
        );
        assert_finite(&report);
    }

    #[test]
    fn combined_faults_are_deterministic_across_runs() {
        let run = || {
            let plan = FaultPlan::noisy(7, 0.10, 0.0, 0.0)
                .crash(VehicleId(1), FaultPoint::Upload)
                .stall(VehicleId(2), FaultPoint::Answer);
            SimTransport
                .run_round_with_faults(segments(), fleet(5), config(), &plan)
                .unwrap()
        };
        let first = run();
        assert_eq!(first.health, RoundHealth::Degraded);
        let dead = first.dead_vehicles();
        assert!(
            dead.contains(&VehicleId(1)) && dead.contains(&VehicleId(2)),
            "{dead:?}"
        );
        assert!(matches!(
            first.fates[&VehicleId(1)].fate,
            VehicleFate::TimedOut(_)
        ));
        assert!(first.reassigned_tasks > 0, "no reassignment recorded");
        assert_finite(&first);

        // Same seed, same plan: the full report — fates, retry counts,
        // reassignments, reliabilities, fused floats — must replay
        // byte-for-byte. Compare the embedded metrics snapshot's
        // deterministic projection, which drops the phase timers, and
        // strip the timers from the Debug comparison too.
        let mut second = run();
        assert_eq!(
            first.metrics.deterministic().to_json(),
            second.metrics.deterministic().to_json()
        );
        let mut first = first;
        first.metrics = first.metrics.deterministic();
        second.metrics = second.metrics.deterministic();
        assert_eq!(format!("{first:?}"), format!("{second:?}"));
    }

    #[test]
    fn zero_fault_round_is_complete_and_clean() {
        let report = SimTransport
            .run_round_with_faults(segments(), fleet(4), config(), &FaultPlan::none())
            .unwrap();
        assert_eq!(report.health, RoundHealth::Complete);
        assert!(report.dead_vehicles().is_empty());
        assert_eq!(report.reassigned_tasks, 0);
        assert_eq!(report.lost_label_slots, 0);
        for record in report.fates.values() {
            assert_eq!(record.fate, VehicleFate::Completed);
            assert_eq!(record.retries, 0);
        }
        assert_finite(&report);
    }

    #[test]
    fn losing_the_quorum_aborts() {
        use crowdwifi::middleware::MiddlewareError;
        let plan = FaultPlan::none()
            .crash(VehicleId(0), FaultPoint::Sense)
            .crash(VehicleId(2), FaultPoint::Sense);
        let err = SimTransport
            .run_round_with_faults(segments(), fleet(3), config(), &plan)
            .unwrap_err();
        assert_eq!(
            err,
            MiddlewareError::QuorumLost {
                alive: 1,
                required: 2,
                total: 3
            }
        );
    }

    #[test]
    fn invalid_configs_are_rejected_before_spawning() {
        use crowdwifi::middleware::MiddlewareError;
        for bad in [
            PlatformConfig {
                workers_per_task: 0,
                ..config()
            },
            PlatformConfig {
                merge_radius: -1.0,
                ..config()
            },
            PlatformConfig {
                spammer_cutoff: 2.0,
                ..config()
            },
            PlatformConfig {
                tolerance: FaultTolerance {
                    quorum: 0.0,
                    ..config().tolerance
                },
                ..config()
            },
        ] {
            let err = SimTransport
                .run_round_with_faults(segments(), fleet(3), bad, &FaultPlan::none())
                .unwrap_err();
            assert!(matches!(err, MiddlewareError::InvalidConfig(_)), "{err:?}");
        }
        // Bad fault plans are rejected too.
        let err = SimTransport
            .run_round_with_faults(
                segments(),
                fleet(3),
                config(),
                &FaultPlan::noisy(0, 0.7, 0.7, 0.0),
            )
            .unwrap_err();
        assert!(matches!(err, MiddlewareError::InvalidConfig(_)));
    }
}
