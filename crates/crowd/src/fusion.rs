//! Reliability-weighted centroid fine estimation (§5.4, Fig. 4(b)).
//!
//! Crowd-vehicles upload coarse AP estimates produced on *their own*
//! driving grids; the same physical AP therefore lands on different
//! nearby grid points for different vehicles. The crowd-server merges
//! overlapping submissions with a centroid weighted by each vehicle's
//! inferred reliability, edging the merged estimate toward the true
//! location.

use crowdwifi_geo::merge::{credit_mean, nearest_within};
use crowdwifi_geo::Point;
use serde::{Deserialize, Serialize};

/// One crowd-vehicle's uploaded AP set with its inferred reliability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Submission {
    /// The vehicle's coarse AP location estimates.
    pub ap_positions: Vec<Point>,
    /// Reliability weight in `[0, 1]` (from iterative inference).
    pub reliability: f64,
}

impl Submission {
    /// Creates a submission.
    ///
    /// # Panics
    ///
    /// Panics if the reliability is outside `[0, 1]`.
    pub fn new(ap_positions: Vec<Point>, reliability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&reliability) && reliability.is_finite(),
            "reliability must lie in [0, 1]"
        );
        Submission {
            ap_positions,
            reliability,
        }
    }
}

/// A fused AP estimate with the total reliability mass behind it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FusedAp {
    /// Reliability-weighted centroid position.
    pub position: Point,
    /// Sum of contributing reliabilities.
    pub support: f64,
    /// Number of distinct submissions that contributed.
    pub contributors: usize,
}

/// Fuses submissions by reliability-weighted centroid: in submission
/// order, each estimate folds into the nearest fused AP within
/// `merge_radius` by the [`crowdwifi_geo::merge`] rule, with its
/// vehicle's reliability as credit, so a fused AP sits at its members'
/// centroid `Σ q_v·p_v / Σ q_v`, kept as a running mean.
///
/// Vehicles with reliability ≤ `min_reliability` are ignored entirely
/// (spammer cutoff); fused APs supported by less than `min_support`
/// total reliability are dropped.
///
/// # Panics
///
/// Panics if `merge_radius` is negative or non-finite.
pub fn fuse_submissions(
    submissions: &[Submission],
    merge_radius: f64,
    min_reliability: f64,
    min_support: f64,
) -> Vec<FusedAp> {
    assert!(
        merge_radius >= 0.0 && merge_radius.is_finite(),
        "merge_radius must be non-negative and finite"
    );
    let mut fused: Vec<FusedAp> = Vec::new();
    for sub in submissions {
        if sub.reliability <= min_reliability {
            continue;
        }
        for &p in &sub.ap_positions {
            if !p.is_finite() {
                continue;
            }
            let candidates = fused.iter().map(|c| c.position).enumerate();
            match nearest_within(p, merge_radius, candidates) {
                Some(i) => {
                    let c = &mut fused[i];
                    c.position = credit_mean(c.position, c.support, p, sub.reliability);
                    c.support += sub.reliability;
                    c.contributors += 1;
                }
                None => fused.push(FusedAp {
                    position: p,
                    support: sub.reliability,
                    contributors: 1,
                }),
            }
        }
    }
    fused.retain(|c| c.support >= min_support);
    fused
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_grids_merge_toward_truth() {
        // Fig. 4(b): three vehicles on different grids put the same AP
        // on three nearby grid points; fusion recovers the middle.
        let subs = [
            Submission::new(vec![Point::new(10.0, 10.0)], 1.0),
            Submission::new(vec![Point::new(14.0, 10.0)], 1.0),
            Submission::new(vec![Point::new(12.0, 14.0)], 1.0),
        ];
        let fused = fuse_submissions(&subs, 10.0, 0.0, 0.0);
        assert_eq!(fused.len(), 1);
        assert!((fused[0].position.x - 12.0).abs() < 1e-9);
        assert!((fused[0].position.y - 11.333333).abs() < 1e-5);
        assert_eq!(fused[0].contributors, 3);
    }

    #[test]
    fn reliability_weights_dominate() {
        let subs = [
            Submission::new(vec![Point::new(0.0, 0.0)], 0.9),
            Submission::new(vec![Point::new(10.0, 0.0)], 0.1),
        ];
        let fused = fuse_submissions(&subs, 20.0, 0.0, 0.0);
        assert_eq!(fused.len(), 1);
        assert!((fused[0].position.x - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spammers_are_cut_off() {
        let subs = [
            Submission::new(vec![Point::new(0.0, 0.0)], 0.95),
            Submission::new(vec![Point::new(500.0, 0.0)], 0.4), // spammer junk
        ];
        let fused = fuse_submissions(&subs, 20.0, 0.5, 0.0);
        assert_eq!(fused.len(), 1);
        assert_eq!(fused[0].position, Point::new(0.0, 0.0));
    }

    #[test]
    fn min_support_drops_lonely_estimates() {
        let subs = [
            Submission::new(vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)], 0.9),
            Submission::new(vec![Point::new(1.0, 0.0)], 0.9),
        ];
        // (100, 0) has support 0.9 < 1.5, the shared AP has 1.8.
        let fused = fuse_submissions(&subs, 10.0, 0.0, 1.5);
        assert_eq!(fused.len(), 1);
        assert!(fused[0].position.x < 2.0);
    }

    #[test]
    fn distinct_aps_stay_distinct() {
        let subs = [Submission::new(
            vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)],
            1.0,
        )];
        let fused = fuse_submissions(&subs, 10.0, 0.0, 0.0);
        assert_eq!(fused.len(), 2);
    }

    #[test]
    #[should_panic(expected = "reliability")]
    fn submission_validates_reliability() {
        Submission::new(vec![], 1.5);
    }
}
