//! Credit-based consolidation across rounds (§4.3.6).
//!
//! Each round's BIC-winning constellation grants one credit to every
//! estimated location. Estimates that align with a previous estimate
//! (within a merge radius) are merged — position averaged proportional
//! to credit, credits summed. When collection ends, estimates with at
//! most `min_credit` credits are filtered out as spurious.

use crowdwifi_geo::merge::{credit_mean, nearest_within};
use crowdwifi_geo::Point;
use serde::{Deserialize, Serialize};

/// A consolidated AP location estimate with its accumulated credit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApEstimate {
    /// Credit-weighted position.
    pub position: Point,
    /// Accumulated credit (one per round that voted for this location).
    pub credit: f64,
}

/// The consolidation data set.
///
/// # Example
///
/// ```
/// use crowdwifi_core::consolidate::Consolidator;
/// use crowdwifi_geo::Point;
///
/// let mut c = Consolidator::new(10.0);
/// c.merge_round(&[Point::new(0.0, 0.0)]);
/// c.merge_round(&[Point::new(4.0, 0.0)]); // aligns with the first
/// c.merge_round(&[Point::new(500.0, 0.0)]); // new location
/// let all = c.estimates();
/// assert_eq!(all.len(), 2);
/// // Only the twice-voted location survives the spurious filter.
/// assert_eq!(c.filtered(1.0).len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Consolidator {
    merge_radius: f64,
    estimates: Vec<ApEstimate>,
}

impl Consolidator {
    /// Creates a consolidator that merges estimates within
    /// `merge_radius` meters.
    ///
    /// # Panics
    ///
    /// Panics if the radius is negative or non-finite.
    pub fn new(merge_radius: f64) -> Self {
        assert!(
            merge_radius >= 0.0 && merge_radius.is_finite(),
            "merge_radius must be non-negative and finite"
        );
        Consolidator {
            merge_radius,
            estimates: Vec::new(),
        }
    }

    /// Ingests one round's estimated locations, granting one credit each
    /// and merging with aligned prior estimates. Returns how many of the
    /// locations merged into an existing estimate (the rest opened new
    /// ones or were rejected).
    pub fn merge_round(&mut self, locations: &[Point]) -> usize {
        locations
            .iter()
            .filter(|&&loc| self.merge_one(loc, 1.0))
            .count()
    }

    /// Ingests a single location with an explicit credit grant by the
    /// shared [`crowdwifi_geo::merge`] rule (server fusion folds each
    /// crowd-vehicle's vote the same way, weighted by its reliability).
    /// Returns `true` when the location merged into an existing
    /// estimate, `false` when it opened a new one or was rejected
    /// (non-positive credit / non-finite position).
    pub fn merge_one(&mut self, location: Point, credit: f64) -> bool {
        if credit <= 0.0 || !location.is_finite() {
            return false;
        }
        let candidates = self.estimates.iter().map(|e| e.position).enumerate();
        match nearest_within(location, self.merge_radius, candidates) {
            Some(i) => {
                let existing = &mut self.estimates[i];
                existing.position =
                    credit_mean(existing.position, existing.credit, location, credit);
                existing.credit += credit;
                true
            }
            None => {
                self.estimates.push(ApEstimate {
                    position: location,
                    credit,
                });
                false
            }
        }
    }

    /// All current estimates (unfiltered), in insertion order.
    pub fn estimates(&self) -> &[ApEstimate] {
        &self.estimates
    }

    /// The final AP set: estimates with credit strictly above
    /// `min_credit` (the paper's reality-checked default is 1 — a
    /// location seen only once is removed).
    pub fn filtered(&self, min_credit: f64) -> Vec<ApEstimate> {
        self.estimates
            .iter()
            .filter(|e| e.credit > min_credit)
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_estimates_merge_with_credit_weighting() {
        let mut c = Consolidator::new(10.0);
        c.merge_round(&[Point::new(0.0, 0.0)]);
        c.merge_round(&[Point::new(0.0, 0.0)]);
        // Third vote at (6, 0): merged position = (2·0 + 1·6)/3 = 2.
        c.merge_round(&[Point::new(6.0, 0.0)]);
        let e = c.estimates();
        assert_eq!(e.len(), 1);
        assert!((e[0].position.x - 2.0).abs() < 1e-12);
        assert_eq!(e[0].credit, 3.0);
    }

    #[test]
    fn distant_estimates_stay_separate() {
        let mut c = Consolidator::new(10.0);
        c.merge_round(&[Point::new(0.0, 0.0), Point::new(100.0, 0.0)]);
        assert_eq!(c.estimates().len(), 2);
    }

    #[test]
    fn spurious_filter_drops_single_credit() {
        let mut c = Consolidator::new(10.0);
        c.merge_round(&[Point::new(0.0, 0.0), Point::new(100.0, 0.0)]);
        c.merge_round(&[Point::new(1.0, 0.0)]);
        let kept = c.filtered(1.0);
        assert_eq!(kept.len(), 1);
        assert!(kept[0].position.x < 2.0);
    }

    #[test]
    fn weighted_merge_one_respects_credit() {
        let mut c = Consolidator::new(20.0);
        c.merge_one(Point::new(0.0, 0.0), 9.0);
        c.merge_one(Point::new(10.0, 0.0), 1.0);
        let e = c.estimates();
        assert_eq!(e.len(), 1);
        assert!((e[0].position.x - 1.0).abs() < 1e-12);
        assert_eq!(e[0].credit, 10.0);
    }

    #[test]
    fn non_positive_credit_and_nan_ignored() {
        let mut c = Consolidator::new(5.0);
        assert!(!c.merge_one(Point::new(0.0, 0.0), 0.0));
        assert!(!c.merge_one(Point::new(f64::NAN, 0.0), 1.0));
        assert!(c.estimates().is_empty());
    }

    #[test]
    fn merge_results_distinguish_new_from_merged() {
        let mut c = Consolidator::new(10.0);
        assert!(!c.merge_one(Point::new(0.0, 0.0), 1.0));
        assert!(c.merge_one(Point::new(3.0, 0.0), 1.0));
        // One aligned vote, one new location.
        assert_eq!(
            c.merge_round(&[Point::new(1.0, 0.0), Point::new(80.0, 0.0)]),
            1
        );
    }

    #[test]
    fn merges_to_nearest_not_first() {
        let mut c = Consolidator::new(10.0);
        c.merge_round(&[Point::new(0.0, 0.0), Point::new(15.0, 0.0)]);
        // (9, 0) is within radius of both; must merge into (15, 0).
        c.merge_one(Point::new(9.0, 0.0), 1.0);
        let e = c.estimates();
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].credit, 1.0);
        assert_eq!(e[1].credit, 2.0);
        assert!((e[1].position.x - 12.0).abs() < 1e-12);
    }
}
