//! (AP, RSS) combination hypotheses (§4.3.3).
//!
//! The formulation cannot say how many APs exist nor which reading came
//! from which AP. Proposition 2 shows exhaustively testing every
//! combination is `Ω(M^M)` — intractable even for the paper's own
//! 60-reading windows. CrowdWiFi therefore keeps windows small *and* we
//! provide two assigners behind one trait:
//!
//! * [`ExhaustiveAssigner`] — the literal enumeration, feasible for tiny
//!   `M` (used in unit tests and as a correctness oracle),
//! * [`ClusterAssigner`] — tractable hypothesis generation: a
//!   deterministic k-means over (position, RSS-range) features plus a
//!   time-contiguous segmentation candidate, exploiting that drive-by
//!   readings from one AP are spatially and temporally bunched.

use crowdwifi_channel::{PathLossModel, RssReading};

/// One hypothesis: `labels[i] ∈ 0..k` says reading `i` came from
/// hypothetical AP `labels[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assignment {
    labels: Vec<usize>,
    k: usize,
}

impl Assignment {
    /// Creates an assignment, verifying every label is `< k` and all `k`
    /// labels are used (an unused AP hypothesis is a smaller-`k`
    /// hypothesis in disguise).
    pub fn new(labels: Vec<usize>, k: usize) -> Option<Self> {
        if labels.is_empty() || k == 0 || k > labels.len() {
            return None;
        }
        let mut used = vec![false; k];
        for &l in &labels {
            if l >= k {
                return None;
            }
            used[l] = true;
        }
        if !used.iter().all(|&u| u) {
            return None;
        }
        Some(Assignment { labels, k })
    }

    /// Label per reading.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Number of hypothetical APs.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Indices of the readings assigned to AP `ap`.
    pub fn group(&self, ap: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == ap)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Produces candidate (AP, RSS) assignments for a hypothesized count `k`.
pub trait Assigner {
    /// Candidate assignments of `readings` to `k` APs. May be empty when
    /// `k` is infeasible (e.g. `k > readings.len()`).
    fn candidate_assignments(&self, readings: &[RssReading], k: usize) -> Vec<Assignment>;

    /// Short name for logs/benches.
    fn name(&self) -> &'static str;
}

/// Literal enumeration of all `k^M` label vectors that use every label —
/// the Proposition 2 search space. Refuses windows larger than
/// `max_readings` (the count explodes as `M^M`).
#[derive(Debug, Clone)]
pub struct ExhaustiveAssigner {
    max_readings: usize,
}

impl ExhaustiveAssigner {
    /// Creates an exhaustive assigner for windows of at most
    /// `max_readings` readings (keep this ≤ ~8).
    pub fn new(max_readings: usize) -> Self {
        ExhaustiveAssigner { max_readings }
    }
}

impl Default for ExhaustiveAssigner {
    fn default() -> Self {
        ExhaustiveAssigner::new(8)
    }
}

impl Assigner for ExhaustiveAssigner {
    fn candidate_assignments(&self, readings: &[RssReading], k: usize) -> Vec<Assignment> {
        let m = readings.len();
        if m == 0 || k == 0 || k > m || m > self.max_readings {
            return Vec::new();
        }
        let mut out = Vec::new();
        let mut labels = vec![0usize; m];
        loop {
            if let Some(a) = Assignment::new(labels.clone(), k) {
                out.push(a);
            }
            // Odometer increment in base k.
            let mut pos = 0;
            loop {
                if pos == m {
                    return out;
                }
                labels[pos] += 1;
                if labels[pos] < k {
                    break;
                }
                labels[pos] = 0;
                pos += 1;
            }
        }
    }

    fn name(&self) -> &'static str {
        "exhaustive"
    }
}

/// Tractable hypothesis generation for realistic windows.
///
/// Produces up to two candidates per `k`:
///
/// 1. a deterministic k-means (farthest-first seeding, fixed iteration
///    budget) over features `(x, y, w·d̂)` where `d̂` is the path-loss
///    inverse of the reading's RSS,
/// 2. a time-contiguous segmentation of the window into `k` equal runs —
///    the natural hypothesis for drive-by data, where the vehicle hears
///    one AP, then the next.
#[derive(Debug, Clone)]
pub struct ClusterAssigner {
    pathloss: PathLossModel,
}

/// Weight `w` of the RSS-derived range feature relative to the spatial
/// coordinates.
const RANGE_WEIGHT: f64 = 0.5;

/// Lloyd iterations per k-means run.
const KMEANS_ITERATIONS: usize = 25;

impl ClusterAssigner {
    /// Creates a cluster assigner using `pathloss` to convert RSS to an
    /// estimated range feature.
    pub fn new(pathloss: PathLossModel) -> Self {
        ClusterAssigner { pathloss }
    }

    fn features(&self, readings: &[RssReading]) -> Vec<[f64; 3]> {
        readings
            .iter()
            .map(|r| {
                let d = self.pathloss.distance_for_rss(r.rss_dbm);
                [r.position.x, r.position.y, RANGE_WEIGHT * d]
            })
            .collect()
    }

    fn kmeans(&self, feats: &[[f64; 3]], k: usize) -> Vec<usize> {
        let n = feats.len();
        // Farthest-first seeding from the feature centroid.
        let mut centers: Vec<[f64; 3]> = Vec::with_capacity(k);
        let mean = {
            let mut m = [0.0; 3];
            for f in feats {
                for (mi, fi) in m.iter_mut().zip(f) {
                    *mi += fi / n as f64;
                }
            }
            m
        };
        let far = |c: &[[f64; 3]], cand: &[f64; 3]| -> f64 {
            c.iter()
                .map(|x| dist3(x, cand))
                .fold(f64::INFINITY, f64::min)
        };
        // First center: farthest from the mean (deterministic).
        let first = (0..n)
            .max_by(|&a, &b| {
                dist3(&feats[a], &mean)
                    .partial_cmp(&dist3(&feats[b], &mean))
                    .expect("finite features")
            })
            .expect("non-empty features");
        centers.push(feats[first]);
        while centers.len() < k {
            let next = (0..n)
                .max_by(|&a, &b| {
                    far(&centers, &feats[a])
                        .partial_cmp(&far(&centers, &feats[b]))
                        .expect("finite features")
                })
                .expect("non-empty features");
            centers.push(feats[next]);
        }

        let mut labels = vec![0usize; n];
        for _ in 0..KMEANS_ITERATIONS {
            let mut changed = false;
            for (i, f) in feats.iter().enumerate() {
                let best = (0..k)
                    .min_by(|&a, &b| {
                        dist3(&centers[a], f)
                            .partial_cmp(&dist3(&centers[b], f))
                            .expect("finite features")
                    })
                    .expect("k > 0");
                if labels[i] != best {
                    labels[i] = best;
                    changed = true;
                }
            }
            // Recompute centers; keep old center for empty clusters.
            let mut sums = vec![[0.0; 3]; k];
            let mut counts = vec![0usize; k];
            for (f, &l) in feats.iter().zip(&labels) {
                for (s, fi) in sums[l].iter_mut().zip(f) {
                    *s += fi;
                }
                counts[l] += 1;
            }
            for (c, (s, &cnt)) in centers.iter_mut().zip(sums.iter().zip(&counts)) {
                if cnt > 0 {
                    for (ci, si) in c.iter_mut().zip(s) {
                        *ci = si / cnt as f64;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        labels
    }
}

fn dist3(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Relabels `labels` so label ids are dense `0..k'` and returns the
/// number of distinct labels actually used.
fn densify(labels: &mut [usize]) -> usize {
    let mut map = std::collections::HashMap::new();
    for l in labels.iter_mut() {
        let next = map.len();
        let id = *map.entry(*l).or_insert(next);
        *l = id;
    }
    map.len()
}

impl Assigner for ClusterAssigner {
    fn candidate_assignments(&self, readings: &[RssReading], k: usize) -> Vec<Assignment> {
        let m = readings.len();
        if m == 0 || k == 0 || k > m {
            return Vec::new();
        }
        let mut out = Vec::new();

        if k == 1 {
            if let Some(a) = Assignment::new(vec![0; m], 1) {
                out.push(a);
            }
            return out;
        }

        // Candidate 1: k-means (may merge clusters; densify and accept
        // at the effective k).
        let feats = self.features(readings);
        let mut labels = self.kmeans(&feats, k);
        let used = densify(&mut labels);
        if used == k {
            if let Some(a) = Assignment::new(labels, k) {
                out.push(a);
            }
        }

        // Candidate 2: time-contiguous equal segmentation.
        let seg: Vec<usize> = (0..m).map(|i| (i * k / m).min(k - 1)).collect();
        if let Some(a) = Assignment::new(seg, k) {
            if !out.contains(&a) {
                out.push(a);
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "cluster"
    }
}

/// The Proposition 2 search-space size: the number of surjective
/// assignments of `m` RSS readings onto `k` APs (`k! · S(m, k)`, the
/// count of ordered set partitions), saturating at `u64::MAX`.
///
/// The total over `k = 1..=m` grows as `Ω(m^m)` — the paper's argument
/// for keeping windows small.
///
/// # Example
///
/// ```
/// use crowdwifi_core::assign::combination_count;
///
/// assert_eq!(combination_count(1, 4), 1);
/// assert_eq!(combination_count(2, 4), 14);
/// assert_eq!(combination_count(3, 4), 36);
/// assert_eq!(combination_count(4, 4), 24);
/// ```
pub fn combination_count(k: usize, m: usize) -> u64 {
    if k == 0 || k > m {
        return 0;
    }
    // Inclusion–exclusion: Σ_{j=0..k} (−1)^j C(k, j) (k − j)^m.
    let mut total: i128 = 0;
    for j in 0..=k {
        let sign: i128 = if j % 2 == 0 { 1 } else { -1 };
        let choose = binomial(k as u64, j as u64) as i128;
        let power = ((k - j) as u128)
            .saturating_pow(m as u32)
            .min(u64::MAX as u128) as i128;
        total += sign * choose * power;
    }
    total.clamp(0, u64::MAX as i128) as u64
}

fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u128 = 1;
    for i in 0..k {
        result = result * (n - i) as u128 / (i + 1) as u128;
    }
    result.min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdwifi_geo::Point;

    fn reading_at(x: f64, rss: f64, t: f64) -> RssReading {
        RssReading::new(Point::new(x, 0.0), rss, t)
    }

    #[test]
    fn assignment_validation() {
        assert!(Assignment::new(vec![0, 1, 0], 2).is_some());
        // Label out of range.
        assert!(Assignment::new(vec![0, 2], 2).is_none());
        // Unused label.
        assert!(Assignment::new(vec![0, 0], 2).is_none());
        assert!(Assignment::new(vec![], 1).is_none());
        // k exceeding reading count.
        assert!(Assignment::new(vec![0], 2).is_none());
    }

    #[test]
    fn exhaustive_counts_are_stirling_like() {
        let readings: Vec<RssReading> = (0..4)
            .map(|i| reading_at(i as f64, -60.0, i as f64))
            .collect();
        let a = ExhaustiveAssigner::default();
        // Surjections 4→1: 1, 4→2: 14, 4→3: 36, 4→4: 24.
        assert_eq!(a.candidate_assignments(&readings, 1).len(), 1);
        assert_eq!(a.candidate_assignments(&readings, 2).len(), 14);
        assert_eq!(a.candidate_assignments(&readings, 3).len(), 36);
        assert_eq!(a.candidate_assignments(&readings, 4).len(), 24);
        assert!(a.candidate_assignments(&readings, 5).is_empty());
    }

    #[test]
    fn combination_count_matches_enumeration() {
        // The analytic count must equal what the exhaustive assigner
        // enumerates, for every feasible (k, m) pair small enough to try.
        let a = ExhaustiveAssigner::default();
        for m in 1..=6usize {
            let readings: Vec<RssReading> = (0..m)
                .map(|i| reading_at(i as f64, -60.0, i as f64))
                .collect();
            for k in 1..=m {
                assert_eq!(
                    combination_count(k, m),
                    a.candidate_assignments(&readings, k).len() as u64,
                    "mismatch at k={k} m={m}"
                );
            }
        }
        assert_eq!(combination_count(0, 4), 0);
        assert_eq!(combination_count(5, 4), 0);
    }

    #[test]
    fn proposition_2_total_grows_superexponentially() {
        // Σ_k surjections(k, m) — the paper's Ω(m^m) search space.
        let total = |m: usize| -> u64 { (1..=m).map(|k| combination_count(k, m)).sum() };
        // Ordered Bell numbers: 1, 3, 13, 75, 541, 4683, ...
        assert_eq!(total(1), 1);
        assert_eq!(total(2), 3);
        assert_eq!(total(3), 13);
        assert_eq!(total(4), 75);
        assert_eq!(total(5), 541);
        assert_eq!(total(6), 4683);
        // Already enormous at the paper's window sizes.
        assert!(total(12) > 1_000_000_000);
    }

    #[test]
    fn exhaustive_refuses_large_windows() {
        let readings: Vec<RssReading> = (0..9)
            .map(|i| reading_at(i as f64, -60.0, i as f64))
            .collect();
        assert!(ExhaustiveAssigner::new(8)
            .candidate_assignments(&readings, 2)
            .is_empty());
    }

    #[test]
    fn cluster_assigner_separates_two_spatial_groups() {
        // Two clearly separated bunches along x.
        let mut readings = Vec::new();
        for i in 0..5 {
            readings.push(reading_at(i as f64, -50.0, i as f64));
        }
        for i in 0..5 {
            readings.push(reading_at(500.0 + i as f64, -50.0, 5.0 + i as f64));
        }
        let assigner = ClusterAssigner::new(PathLossModel::uci_campus());
        let cands = assigner.candidate_assignments(&readings, 2);
        assert!(!cands.is_empty());
        let a = &cands[0];
        // First five share a label, last five share the other.
        let first = a.labels()[0];
        assert!(a.labels()[..5].iter().all(|&l| l == first));
        assert!(a.labels()[5..].iter().all(|&l| l != first));
    }

    #[test]
    fn cluster_assigner_k1_is_trivial() {
        let readings: Vec<RssReading> = (0..3)
            .map(|i| reading_at(i as f64, -60.0, i as f64))
            .collect();
        let assigner = ClusterAssigner::new(PathLossModel::uci_campus());
        let cands = assigner.candidate_assignments(&readings, 1);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].labels(), &[0, 0, 0]);
    }

    #[test]
    fn segmentation_candidate_is_contiguous() {
        let readings: Vec<RssReading> = (0..6)
            .map(|i| reading_at(i as f64, -60.0, i as f64))
            .collect();
        let assigner = ClusterAssigner::new(PathLossModel::uci_campus());
        let cands = assigner.candidate_assignments(&readings, 3);
        // The segmentation candidate must exist and be non-decreasing.
        assert!(cands
            .iter()
            .any(|a| { a.labels().windows(2).all(|w| w[0] <= w[1]) }));
    }

    #[test]
    fn infeasible_k_yields_nothing() {
        let readings: Vec<RssReading> = (0..3)
            .map(|i| reading_at(i as f64, -60.0, i as f64))
            .collect();
        let assigner = ClusterAssigner::new(PathLossModel::uci_campus());
        assert!(assigner.candidate_assignments(&readings, 0).is_empty());
        assert!(assigner.candidate_assignments(&readings, 4).is_empty());
        assert!(assigner.candidate_assignments(&[], 1).is_empty());
    }
}
