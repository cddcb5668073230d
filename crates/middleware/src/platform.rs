//! The crowdsourcing platform's round types — configuration, fault
//! tolerance, per-vehicle fates and round reports — re-exported from
//! the layered [`crate::protocol`] / [`crate::transport`] stack.
//!
//! The paper's whole premise is that crowd-vehicles cannot be trusted
//! (§5.3): they spam, they crash, their links drop packets. A round
//! therefore never hinges on any single vehicle. The server enforces a
//! per-vehicle **deadline** with bounded retry/backoff in every
//! collection phase; a vehicle that stays silent past its retries is
//! marked dead, its orphaned mapping tasks are **reassigned** to the
//! least-loaded healthy vehicles (preserving (ℓ,γ)-regularity as
//! closely as the survivors allow), and the round completes in a
//! [`RoundHealth::Degraded`] state as long as a configurable **quorum**
//! of the fleet finished. Dead vehicles are penalized in the
//! reliability prior, so repeat offenders are down-weighted across
//! rounds exactly like vehicles that label badly.
//!
//! Faults are injected — deterministically, from a seeded
//! [`crate::fault::FaultPlan`] — rather than awaited, so every degraded-round path is
//! replayable byte-for-byte in tests.
//!
//! All of that logic lives in the pure [`crate::protocol::ServerCore`]
//! state machine; this module re-exports its round/report types. Rounds
//! run on a [`crate::transport::Transport`] backend: the deterministic
//! [`crate::transport::SimTransport`] or the batched
//! [`crate::transport::FleetTransport`]. Campaigns run through
//! [`crate::transport::run_campaign_with_faults_into`] and
//! [`crate::transport::run_durable_campaign_into`].

pub use crate::protocol::{
    quorum_required, validate_config, FateRecord, FaultTolerance, PlatformConfig, PlatformReport,
    RoundHealth, RoundPhase, VehicleFate,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultPoint};
    use crate::messages::VehicleId;
    use crate::segment::SegmentMap;
    use crate::transport::{run_campaign_with_faults_into, NoSink, SimTransport, Transport};
    use crate::vehicle::CrowdVehicle;
    use crate::vehicle::{Behavior, VehicleExit};
    use crate::MiddlewareError;
    use crowdwifi_channel::{PathLossModel, RssReading};
    use crowdwifi_core::{OnlineCs, OnlineCsConfig};
    use crowdwifi_geo::{Point, Rect};
    use std::time::Duration;

    /// Fading-free staggered drive past two APs.
    fn drive(offset: f64) -> Vec<RssReading> {
        let model = PathLossModel::uci_campus();
        let aps = [Point::new(60.0, 30.0), Point::new(220.0, 30.0)];
        (0..50)
            .map(|i| {
                let p = Point::new(
                    6.0 * i as f64,
                    offset + if (i / 5) % 2 == 0 { 0.0 } else { 12.0 },
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

    fn mk_estimator() -> OnlineCs {
        OnlineCs::new(OnlineCsConfig::default(), PathLossModel::uci_campus()).unwrap()
    }

    fn fleet_with_spammer(n: u32, spammer: u32) -> Vec<(CrowdVehicle, Vec<RssReading>)> {
        (0..n)
            .map(|v| {
                let behavior = if v == spammer {
                    Behavior::Spammer
                } else {
                    Behavior::Honest
                };
                (
                    CrowdVehicle::new(VehicleId(v), mk_estimator(), behavior),
                    drive(v as f64 * 0.5),
                )
            })
            .collect()
    }

    /// One retry with a short backoff, so a dead vehicle is declared
    /// after at most two deadlines. The deadline stays at the 2 s
    /// default; on the virtual clock it costs no wall time.
    fn snappy_tolerance() -> FaultTolerance {
        FaultTolerance {
            retry_backoff: Duration::from_millis(100),
            max_retries: 1,
            ..FaultTolerance::default()
        }
    }

    #[test]
    fn full_round_with_spammers_converges_to_truth() {
        let report = SimTransport
            .run_round(
                segments(),
                fleet_with_spammer(5, 4),
                PlatformConfig {
                    workers_per_task: 4,
                    ..PlatformConfig::default()
                },
            )
            .unwrap();
        assert_eq!(report.health, RoundHealth::Complete);
        assert!(report.dead_vehicles().is_empty());
        for fate in report.fates.values() {
            assert_eq!(
                *fate,
                FateRecord {
                    fate: VehicleFate::Completed,
                    retries: 0
                }
            );
        }
        for exit in report.exits.values() {
            assert_eq!(*exit, VehicleExit::Completed);
        }
        // Both APs recovered by the fused database.
        for truth in [Point::new(60.0, 30.0), Point::new(220.0, 30.0)] {
            let d = report
                .fused
                .iter()
                .map(|f| f.position.distance(truth))
                .fold(f64::INFINITY, f64::min);
            assert!(d < 20.0, "AP {truth} unmatched in fusion ({d:.1} m)");
        }
        // The spammer's reliability must not exceed every honest one.
        let spam = report.outcome.reliabilities[&VehicleId(4)];
        let best_honest = (0..4)
            .map(|v| report.outcome.reliabilities[&VehicleId(v)])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            spam <= best_honest,
            "spammer {spam:.2} outranked honest {best_honest:.2}"
        );
    }

    #[test]
    fn campaign_reliability_is_smoothed_across_rounds() {
        let reports = run_campaign_with_faults_into(
            &SimTransport,
            segments(),
            vec![fleet_with_spammer(5, 4), fleet_with_spammer(5, 4)],
            PlatformConfig {
                workers_per_task: 4,
                ..PlatformConfig::default()
            },
            0.5,
            &[],
            &mut NoSink,
        )
        .unwrap()
        .reports;
        assert_eq!(reports.len(), 2);
        // With α = 0.5 from a 0.5 prior, round-1 reliabilities stay
        // within 0.25 of the prior; round 2 can move further.
        for &q in reports[0].outcome.reliabilities.values() {
            assert!((q - 0.5).abs() <= 0.25 + 1e-9, "round 1 moved too far: {q}");
        }
        // The spammer's long-run reliability never exceeds the honest max.
        let spam = reports[1].outcome.reliabilities[&VehicleId(4)];
        let best_honest = (0..4)
            .map(|v| reports[1].outcome.reliabilities[&VehicleId(v)])
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(spam <= best_honest + 1e-9);
    }

    #[test]
    fn failing_vehicle_degrades_round_instead_of_aborting() {
        let mut fleet = fleet_with_spammer(3, u32::MAX);
        // Poison one vehicle's drive: NaN coordinates blow up its
        // estimator mid-sense. The vehicle reports `Failed`; the round
        // must finish degraded on the two survivors instead of erroring
        // out or hanging.
        for r in fleet[1].1.iter_mut() {
            *r = RssReading::new(Point::new(f64::NAN, f64::NAN), r.rss_dbm, r.time);
        }
        let report = SimTransport
            .run_round(segments(), fleet, PlatformConfig::default())
            .unwrap();
        assert_eq!(report.health, RoundHealth::Degraded);
        assert_eq!(report.dead_vehicles(), vec![VehicleId(1)]);
        let fate = &report.fates[&VehicleId(1)].fate;
        assert!(
            matches!(fate, VehicleFate::Reported(m) if !m.is_empty()),
            "unexpected fate {fate:?}"
        );
        assert!(
            matches!(&report.exits[&VehicleId(1)], VehicleExit::Failed(_)),
            "unexpected exit {:?}",
            report.exits[&VehicleId(1)]
        );
        // The dead vehicle is penalized below the neutral prior.
        assert!(report.outcome.reliabilities[&VehicleId(1)] < 0.5);
        for f in &report.fused {
            assert!(f.position.is_finite());
        }
    }

    #[test]
    fn quorum_loss_aborts_the_round() {
        let mut fleet = fleet_with_spammer(3, u32::MAX);
        for idx in [0, 1] {
            for r in fleet[idx].1.iter_mut() {
                *r = RssReading::new(Point::new(f64::NAN, f64::NAN), r.rss_dbm, r.time);
            }
        }
        // 1 of 3 survivors < ceil(0.5 * 3) = 2 required.
        let err = SimTransport
            .run_round(segments(), fleet, PlatformConfig::default())
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
    fn crashed_vehicle_times_out_and_round_degrades() {
        let plan = FaultPlan::none().crash(VehicleId(2), FaultPoint::Upload);
        let report = SimTransport
            .run_round_with_faults(
                segments(),
                fleet_with_spammer(4, u32::MAX),
                PlatformConfig {
                    workers_per_task: 3,
                    tolerance: snappy_tolerance(),
                    ..PlatformConfig::default()
                },
                &plan,
            )
            .unwrap();
        assert_eq!(report.health, RoundHealth::Degraded);
        assert_eq!(report.dead_vehicles(), vec![VehicleId(2)]);
        let record = &report.fates[&VehicleId(2)];
        assert_eq!(record.fate, VehicleFate::TimedOut(RoundPhase::Upload));
        assert_eq!(record.retries, 1, "one RequestUpload retry before death");
        assert_eq!(report.exits[&VehicleId(2)], VehicleExit::Crashed);
        assert!(report.outcome.reliabilities[&VehicleId(2)] < 0.5);
    }

    #[test]
    fn straggler_tasks_are_reassigned() {
        let plan = FaultPlan::none().stall(VehicleId(1), FaultPoint::Answer);
        let report = SimTransport
            .run_round_with_faults(
                segments(),
                fleet_with_spammer(5, u32::MAX),
                PlatformConfig {
                    workers_per_task: 3,
                    tolerance: snappy_tolerance(),
                    ..PlatformConfig::default()
                },
                &plan,
            )
            .unwrap();
        assert_eq!(report.health, RoundHealth::Degraded);
        assert_eq!(report.dead_vehicles(), vec![VehicleId(1)]);
        assert_eq!(
            report.fates[&VehicleId(1)].fate,
            VehicleFate::TimedOut(RoundPhase::Labeling)
        );
        assert_eq!(report.exits[&VehicleId(1)], VehicleExit::Stalled);
        // The straggler uploaded and was assigned tasks; with two spare
        // vehicles per task every orphan finds a new home.
        assert!(report.reassigned_tasks > 0, "no tasks were reassigned");
        assert_eq!(report.lost_label_slots, 0);
    }

    #[test]
    fn metrics_snapshot_is_byte_identical_across_same_seed_runs() {
        let run = || {
            SimTransport
                .run_round(
                    segments(),
                    fleet_with_spammer(3, u32::MAX),
                    PlatformConfig {
                        workers_per_task: 3,
                        ..PlatformConfig::default()
                    },
                )
                .unwrap()
        };
        let (a, b) = (run(), run());
        // The deterministic projection drops the phase timers; all the
        // rest — counters, gauges, events — must match.
        let (ja, jb) = (
            a.metrics.deterministic().to_json(),
            b.metrics.deterministic().to_json(),
        );
        assert_eq!(
            ja, jb,
            "deterministic metrics diverged across same-seed runs"
        );

        let m = &a.metrics;
        assert_eq!(m.counters["platform.fates.completed"], 3);
        assert_eq!(m.counters["platform.retries"], 0);
        assert_eq!(m.counters["platform.faults.dropped"], 0);
        assert_eq!(m.counters["platform.faults.duplicated"], 0);
        assert_eq!(m.counters["platform.faults.delayed"], 0);
        assert_eq!(m.gauges["platform.fleet_size"], 3);
        assert_eq!(m.gauges["platform.dead_vehicles"], 0);
        assert_eq!(m.gauges["platform.quorum_margin"], 1); // 3 alive - ceil(0.5*3)
        assert!(
            m.events.is_empty(),
            "healthy round must emit no death events"
        );
        // All four phases were timed (present in the full snapshot,
        // stripped from the deterministic projection).
        for phase in ["upload", "assign", "labeling", "inference"] {
            let name = format!("platform.phase.{phase}_seconds");
            assert_eq!(m.histograms[&name].count, 1, "{name} not timed");
            assert!(!a.metrics.deterministic().histograms.contains_key(&name));
        }
    }

    #[test]
    fn dead_vehicle_shows_up_in_round_metrics() {
        let plan = FaultPlan::none().crash(VehicleId(2), FaultPoint::Upload);
        let report = SimTransport
            .run_round_with_faults(
                segments(),
                fleet_with_spammer(4, u32::MAX),
                PlatformConfig {
                    workers_per_task: 3,
                    tolerance: snappy_tolerance(),
                    ..PlatformConfig::default()
                },
                &plan,
            )
            .unwrap();
        let m = &report.metrics;
        assert_eq!(m.counters["platform.fates.timed_out"], 1);
        assert_eq!(m.counters["platform.fates.completed"], 3);
        assert_eq!(m.counters["platform.retries"], 1);
        assert_eq!(m.gauges["platform.dead_vehicles"], 1);
        let ev = m
            .events
            .iter()
            .find(|e| e.name == "vehicle.dead")
            .expect("death event");
        assert!(ev
            .fields
            .iter()
            .any(|(k, v)| k == "vehicle" && *v == crowdwifi_obs::EventValue::Uint(2)));
    }

    #[test]
    fn injected_link_faults_are_tallied_in_metrics() {
        // Duplicate-only noise: the protocol ignores duplicates, so the
        // round still completes cleanly while the tally observes them.
        let plan = FaultPlan::noisy(5, 0.0, 0.5, 0.0);
        let report = SimTransport
            .run_round_with_faults(
                segments(),
                fleet_with_spammer(3, u32::MAX),
                PlatformConfig {
                    workers_per_task: 3,
                    ..PlatformConfig::default()
                },
                &plan,
            )
            .unwrap();
        assert_eq!(report.health, RoundHealth::Complete);
        let m = &report.metrics;
        assert!(m.counters["platform.faults.duplicated"] > 0);
        assert_eq!(m.counters["platform.faults.dropped"], 0);
        assert_eq!(m.counters["platform.faults.delayed"], 0);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let base = PlatformConfig::default();
        let cases = [
            PlatformConfig {
                workers_per_task: 0,
                ..base
            },
            PlatformConfig {
                spammer_cutoff: 1.5,
                ..base
            },
            PlatformConfig {
                spammer_cutoff: f64::NAN,
                ..base
            },
            PlatformConfig {
                merge_radius: 0.0,
                ..base
            },
            PlatformConfig {
                merge_radius: f64::INFINITY,
                ..base
            },
            PlatformConfig {
                tolerance: FaultTolerance {
                    quorum: 0.0,
                    ..base.tolerance
                },
                ..base
            },
            PlatformConfig {
                tolerance: FaultTolerance {
                    quorum: 1.1,
                    ..base.tolerance
                },
                ..base
            },
            PlatformConfig {
                tolerance: FaultTolerance {
                    deadline: Duration::ZERO,
                    ..base.tolerance
                },
                ..base
            },
            // Under the virtual clock's 1 µs tick.
            PlatformConfig {
                tolerance: FaultTolerance {
                    deadline: Duration::from_nanos(500),
                    ..base.tolerance
                },
                ..base
            },
        ];
        for bad in cases {
            let err = SimTransport
                .run_round(segments(), fleet_with_spammer(3, u32::MAX), bad)
                .unwrap_err();
            assert!(
                matches!(err, MiddlewareError::InvalidConfig(_)),
                "expected InvalidConfig for {bad:?}, got {err:?}"
            );
        }
    }

    #[test]
    fn duplicate_vehicle_ids_rejected() {
        let fleet = vec![
            (
                CrowdVehicle::new(VehicleId(1), mk_estimator(), Behavior::Honest),
                drive(0.0),
            ),
            (
                CrowdVehicle::new(VehicleId(1), mk_estimator(), Behavior::Honest),
                drive(0.5),
            ),
        ];
        assert!(matches!(
            SimTransport.run_round(segments(), fleet, PlatformConfig::default()),
            Err(MiddlewareError::InvalidConfig(_))
        ));
    }

    #[test]
    fn empty_fleet_rejected() {
        let segments = SegmentMap::new(
            Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)).unwrap(),
            10.0,
        );
        assert!(SimTransport
            .run_round(segments, vec![], PlatformConfig::default())
            .is_err());
    }
}
