//! Cross-crate integration: online CS estimates feed the offline
//! crowdsourcing layer, spanning core, crowd and middleware.

use crowdwifi::channel::{PathLossModel, RssReading};
use crowdwifi::core::consolidate::Consolidator;
use crowdwifi::core::pipeline::{OnlineCs, OnlineCsConfig};
use crowdwifi::crowd::aggregate::majority_vote;
use crowdwifi::crowd::fusion::{fuse_submissions, Submission};
use crowdwifi::crowd::graph::BipartiteAssignment;
use crowdwifi::crowd::inference::IterativeInference;
use crowdwifi::crowd::worker::SpammerHammerPrior;
use crowdwifi::crowd::{bit_error_rate, LabelMatrix};
use crowdwifi::geo::{Point, Rect};
use crowdwifi::middleware::messages::VehicleId;
use crowdwifi::middleware::platform::PlatformConfig;
use crowdwifi::middleware::segment::SegmentMap;
use crowdwifi::middleware::transport::{SimTransport, Transport};
use crowdwifi::middleware::vehicle::{Behavior, CrowdVehicle};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[test]
fn iterative_inference_beats_majority_voting_at_scale() {
    // The paper's Fig. 7 claim, averaged over several random graphs.
    let mut kos_total = 0.0;
    let mut mv_total = 0.0;
    for seed in 0..10u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let graph = BipartiteAssignment::regular(500, 9, 9, &mut rng).unwrap();
        let truth: Vec<i8> = (0..500).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        let pool = SpammerHammerPrior::default().draw_pool(graph.workers(), &mut rng);
        let labels = LabelMatrix::generate(&graph, &truth, &pool, &mut rng);
        kos_total += IterativeInference::default().decode_error(&labels, &truth, &mut rng);
        mv_total += bit_error_rate(&majority_vote(&labels), &truth);
    }
    assert!(
        kos_total < mv_total * 0.5,
        "iterative inference ({kos_total:.3}) should roughly halve MV error ({mv_total:.3})"
    );
}

#[test]
fn fusion_is_the_consolidator_fold_weighted_by_reliability() {
    // Server fusion and the per-vehicle consolidator share one merge
    // rule: fusing submissions equals feeding each estimate, in
    // submission order, to a consolidator with the vehicle's
    // reliability as credit — bit for bit.
    for seed in 0..200u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let aps: Vec<Point> = (0..4)
            .map(|_| Point::new(rng.random_range(0.0..200.0), rng.random_range(0.0..60.0)))
            .collect();
        let mut subs = Vec::new();
        for _ in 0..rng.random_range(2..10) {
            let mut seen = Vec::new();
            for ap in &aps {
                if rng.random_range(0.0..1.0) < 0.7 {
                    let jitter =
                        Point::new(rng.random_range(-8.0..8.0), rng.random_range(-8.0..8.0));
                    seen.push(Point::new(ap.x + jitter.x, ap.y + jitter.y));
                }
            }
            subs.push(Submission::new(seen, rng.random_range(0.0..1.0)));
        }
        let radius = 12.0;
        let mut reference = Consolidator::new(radius);
        for sub in &subs {
            for &p in &sub.ap_positions {
                reference.merge_one(p, sub.reliability);
            }
        }
        let bits = |p: Point, c: f64| (p.x.to_bits(), p.y.to_bits(), c.to_bits());
        let fused: Vec<_> = fuse_submissions(&subs, radius, 0.0, 0.0)
            .iter()
            .map(|f| bits(f.position, f.support))
            .collect();
        let expect: Vec<_> = reference
            .estimates()
            .iter()
            .map(|e| bits(e.position, e.credit))
            .collect();
        assert_eq!(fused, expect, "seed {seed}");
    }
}

/// Fading-free staggered drive past two APs for the platform test.
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

#[test]
fn threaded_platform_round_flags_spammer_and_finds_aps() {
    let truth = [Point::new(60.0, 30.0), Point::new(220.0, 30.0)];
    let segments = SegmentMap::new(
        Rect::new(Point::new(0.0, -20.0), Point::new(300.0, 80.0)).unwrap(),
        150.0,
    );
    let mut fleet = Vec::new();
    for v in 0..5u32 {
        let estimator =
            OnlineCs::new(OnlineCsConfig::default(), PathLossModel::uci_campus()).unwrap();
        let behavior = if v == 4 {
            Behavior::Spammer
        } else {
            Behavior::Honest
        };
        fleet.push((
            CrowdVehicle::new(VehicleId(v), estimator, behavior),
            drive(v as f64 * 0.5, &truth),
        ));
    }
    let report = SimTransport
        .run_round(
            segments,
            fleet,
            PlatformConfig {
                workers_per_task: 4,
                ..PlatformConfig::default()
            },
        )
        .unwrap();

    // Both APs present in the fused database.
    for t in truth {
        let d = report
            .fused
            .iter()
            .map(|f| f.position.distance(t))
            .fold(f64::INFINITY, f64::min);
        assert!(d < 20.0, "AP {t} missing from fusion ({d:.1} m)");
    }
    // The spammer must not outrank every honest vehicle.
    let spam = report.outcome.reliabilities[&VehicleId(4)];
    let best_honest = (0..4)
        .map(|v| report.outcome.reliabilities[&VehicleId(v)])
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(spam <= best_honest);
}
