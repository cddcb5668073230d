//! Place-Lab-style war-driving fingerprint localizer ("Skyhook").
//!
//! Per the paper, Skyhook's production algorithm is proprietary but
//! similar to Place Lab (Cheng et al., MobiSys'05): every heard BSSID is
//! positioned at the weighted centroid of the scan positions that heard
//! it, weighting stronger scans higher after rank-sorting. Accuracy is
//! limited by how asymmetrically the drive sampled the AP's coverage —
//! exactly the tens-of-meters errors §6 reports for it.

use crate::{group_by_source, ApLocalizer, LocalizationEstimate};
use crowdwifi_channel::RssReading;
use crowdwifi_geo::point::weighted_centroid;
use crowdwifi_geo::Point;

/// The fingerprint localizer.
#[derive(Debug, Clone)]
pub struct Skyhook;

/// Use only the strongest `TOP_N` scans per AP (Place Lab's ranking
/// step).
const TOP_N: usize = 20;

/// RSS-to-weight exponent: weight = (rss − floor)^exponent.
const EXPONENT: f64 = 2.0;

/// Detection floor (weight origin) in dBm.
const FLOOR_DBM: f64 = -95.0;

impl Skyhook {
    fn locate_one(&self, readings: &[RssReading]) -> Option<Point> {
        // Rank by RSS, strongest first.
        let mut sorted: Vec<&RssReading> = readings.iter().collect();
        sorted.sort_by(|a, b| {
            b.rss_dbm
                .partial_cmp(&a.rss_dbm)
                .expect("finite RSS values")
        });
        sorted.truncate(TOP_N);
        let points: Vec<Point> = sorted.iter().map(|r| r.position).collect();
        let weights: Vec<f64> = sorted
            .iter()
            .map(|r| (r.rss_dbm - FLOOR_DBM).max(0.0).powf(EXPONENT))
            .collect();
        weighted_centroid(&points, &weights)
    }
}

impl ApLocalizer for Skyhook {
    fn localize(&self, readings: &[RssReading]) -> LocalizationEstimate {
        let positions = group_by_source(readings)
            .values()
            .filter_map(|group| self.locate_one(group))
            .collect();
        LocalizationEstimate { positions }
    }

    fn name(&self) -> &'static str {
        "skyhook"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdwifi_channel::{ApId, PathLossModel};

    /// Readings along a two-sided drive past an AP.
    fn drive(ap: Point, id: ApId, xs: &[f64], y: f64) -> Vec<RssReading> {
        let model = PathLossModel::uci_campus();
        xs.iter()
            .enumerate()
            .map(|(i, &x)| {
                let p = Point::new(x, y);
                RssReading::with_source(p, model.mean_rss(p.distance(ap)), i as f64, id)
            })
            .collect()
    }

    #[test]
    fn centroid_lands_near_strongest_scans() {
        let ap = Point::new(50.0, 10.0);
        let xs: Vec<f64> = (0..21).map(|i| 5.0 * i as f64).collect();
        let readings = drive(ap, ApId(0), &xs, 0.0);
        let est = Skyhook.localize(&readings);
        assert_eq!(est.count(), 1);
        // Fingerprinting cannot leave the scan line: y stays 0, but x
        // should be near the AP's x.
        assert!((est.positions[0].x - 50.0).abs() < 10.0);
        assert_eq!(est.positions[0].y, 0.0);
    }

    #[test]
    fn counts_only_heard_bssids() {
        let mut readings = drive(Point::new(20.0, 5.0), ApId(0), &[0.0, 10.0, 20.0], 0.0);
        readings.extend(drive(
            Point::new(80.0, 5.0),
            ApId(3),
            &[70.0, 80.0, 90.0],
            0.0,
        ));
        let est = Skyhook.localize(&readings);
        assert_eq!(est.count(), 2);
    }

    #[test]
    fn empty_and_untagged_inputs() {
        assert_eq!(Skyhook.localize(&[]).count(), 0);
        let untagged = [RssReading::new(Point::new(0.0, 0.0), -60.0, 0.0)];
        assert_eq!(Skyhook.localize(&untagged).count(), 0);
    }

    #[test]
    fn top_n_limits_the_fingerprint() {
        // 20 scans around the AP plus 16 weaker ones far to the east:
        // only the strongest 20 enter the centroid, so the far scans
        // change nothing.
        let ap = Point::new(0.0, 5.0);
        let near: Vec<f64> = (0..20).map(|i| i as f64 - 9.5).collect();
        let far: Vec<f64> = (0..16).map(|i| 50.0 + 10.0 * i as f64).collect();
        let all: Vec<f64> = near.iter().chain(&far).copied().collect();
        let locate = |xs: &[f64]| Skyhook.localize(&drive(ap, ApId(0), xs, 0.0)).positions;
        assert_eq!(locate(&all), locate(&near));
        assert!(locate(&all)[0].x.abs() < 1e-9);
        // One near scan fewer: the strongest far scan takes the 20th
        // slot and pulls the centroid east.
        assert!(locate(&all[1..])[0].x > locate(&near[1..])[0].x + 1.0);
    }
}
