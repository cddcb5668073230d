//! Property-based tests for the baseline localizers.

use crowdwifi_baselines::lgmm::Lgmm;
use crowdwifi_baselines::mds::MdsLocalizer;
use crowdwifi_baselines::skyhook::Skyhook;
use crowdwifi_baselines::ApLocalizer;
use crowdwifi_channel::{ApId, PathLossModel, RssReading};
use crowdwifi_geo::{Point, Rect};
use proptest::prelude::*;

/// Tagged readings along a staggered drive past up to 3 APs.
fn drive(ap_xs: &[f64], n: usize) -> Vec<RssReading> {
    let model = PathLossModel::uci_campus();
    let aps: Vec<(ApId, Point)> = ap_xs
        .iter()
        .enumerate()
        .map(|(i, &x)| (ApId(i as u32), Point::new(x, 30.0)))
        .collect();
    (0..n)
        .map(|i| {
            let p = Point::new(4.0 * i as f64, if (i / 4) % 2 == 0 { 0.0 } else { 10.0 });
            let (id, ap) = aps
                .iter()
                .min_by(|a, b| p.distance(a.1).partial_cmp(&p.distance(b.1)).unwrap())
                .unwrap();
            RssReading::with_source(p, model.mean_rss(p.distance(*ap)), i as f64, *id)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn skyhook_estimates_lie_inside_the_scan_hull(
        ap1 in 20.0..120.0f64,
        gap in 60.0..120.0f64,
        n in 20usize..60,
    ) {
        let readings = drive(&[ap1, ap1 + gap], n);
        let est = Skyhook.localize(&readings);
        let scan_bbox = Rect::bounding(
            &readings.iter().map(|r| r.position).collect::<Vec<_>>()
        ).unwrap().expanded(1e-9);
        for p in &est.positions {
            // A weighted centroid of scan positions can never leave
            // their convex hull, let alone the bounding box.
            prop_assert!(scan_bbox.contains(*p), "{p} outside scans");
        }
        // Count equals the number of heard BSSIDs.
        prop_assert!(est.count() <= 2);
    }

    #[test]
    fn mds_outputs_are_finite_and_counted_by_bssid(
        ap1 in 20.0..100.0f64,
        gap in 60.0..120.0f64,
        n in 20usize..50,
    ) {
        let readings = drive(&[ap1, ap1 + gap], n);
        let est = MdsLocalizer::new(PathLossModel::uci_campus(), 8).localize(&readings);
        prop_assert!(est.positions.iter().all(|p| p.is_finite()));
        prop_assert!(est.count() <= 2);
    }

    #[test]
    fn lgmm_count_is_bounded_by_max_k(
        ap1 in 20.0..100.0f64,
        n in 16usize..40,
        max_k in 1usize..4,
    ) {
        let readings = drive(&[ap1], n);
        let est = Lgmm::new(PathLossModel::uci_campus(), 10.0, 100.0, max_k)
            .localize(&readings);
        prop_assert!(est.count() >= 1);
        prop_assert!(est.count() <= max_k);
        prop_assert!(est.positions.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn all_baselines_tolerate_tiny_inputs(n in 0usize..3) {
        let readings = drive(&[50.0], n);
        for localizer in [
            &Skyhook as &dyn ApLocalizer,
            &MdsLocalizer::new(PathLossModel::uci_campus(), 3),
            &Lgmm::new(PathLossModel::uci_campus(), 10.0, 100.0, 3),
        ] {
            let est = localizer.localize(&readings);
            prop_assert!(est.positions.iter().all(|p| p.is_finite()),
                "{} produced non-finite output", localizer.name());
        }
    }
}
