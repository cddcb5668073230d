//! Hypothesis scoring and BIC model selection (§4.3.5).
//!
//! For every hypothesized AP count `K` and every candidate (AP, RSS)
//! assignment, the round's readings are recovered per AP, centroid-
//! processed, and the resulting constellation is scored by the
//! Gaussian-mixture log-likelihood of the data penalized by BIC. The
//! maximizing hypothesis wins the round.

use crate::assign::{Assigner, Assignment};
use crate::recovery::{CsRecovery, WindowSensing};
use crate::Result;
use crowdwifi_channel::bic::{bic, free_params_for_ap_count};
use crowdwifi_channel::{GmmModel, RssReading};
use crowdwifi_geo::{Grid, Point};
use std::ops::RangeInclusive;
use std::time::Instant;

/// The winning hypothesis of one sliding-window round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundEstimate {
    /// Estimated AP positions (length = `k`).
    pub aps: Vec<Point>,
    /// Chosen AP count.
    pub k: usize,
    /// GMM log-likelihood of the round's readings under `aps`.
    pub log_likelihood: f64,
    /// The BIC score that won.
    pub bic: f64,
    /// All candidate modes of the winning hypothesis's groups, including
    /// the losing sides of mirror-ambiguous recoveries. Consolidation
    /// feeds these to the global refinement with reduced credit so the
    /// true side stays available even when every window picked the
    /// ghost side (see `crate::refine`).
    pub alternates: Vec<Point>,
    /// How many (k, assignment) hypotheses the round materialized.
    pub hypotheses: usize,
    /// How many candidate constellations were scored across all
    /// hypotheses and EM passes before the BIC reduction picked this
    /// winner.
    pub candidates: usize,
}

/// What [`estimate_round`] found over its AP-count range: the BIC
/// winner, when some hypothesis produced a usable constellation, and
/// the work done to find it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scored {
    /// The BIC maximizer; its `hypotheses` and `candidates` fields are
    /// filled in by [`Scored::winner`].
    pub best: Option<RoundEstimate>,
    /// (k, assignment) hypotheses materialized.
    pub hypotheses: usize,
    /// Candidate constellations scored.
    pub candidates: usize,
}

impl Scored {
    /// Folds the scoring of the window's next AP-count range into
    /// `self`. The result is what one [`estimate_round`] over both
    /// ranges gives: a BIC tie keeps the earlier winner.
    pub fn then(mut self, next: Scored) -> Scored {
        if let Some(b) = next.best {
            if self.best.as_ref().is_none_or(|a| b.bic > a.bic) {
                self.best = Some(b);
            }
        }
        self.hypotheses += next.hypotheses;
        self.candidates += next.candidates;
        self
    }

    /// The winner, carrying the hypothesis and candidate counts.
    pub fn winner(self) -> Option<RoundEstimate> {
        self.best.map(|b| RoundEstimate {
            hypotheses: self.hypotheses,
            candidates: self.candidates,
            ..b
        })
    }
}

/// Scores the hypotheses with AP counts in `ks` for one round.
///
/// The (k, assignment) hypotheses are evaluated in order on the calling
/// thread, and a BIC tie goes to the earliest candidate. All of them
/// share the caller-provided [`WindowSensing`] workspace (from
/// [`CsRecovery::prepare_window`] over the same grid and readings):
/// each in-range signature is evaluated at most once per workspace and
/// per-group recoveries are memoized across hypotheses. The caller
/// keeps the workspace, so it can read the accumulated
/// [`WindowSensing::stats`] afterwards; they depend only on the window
/// and `ks`. Scoring disjoint ranges on separate workspaces and folding
/// them in order with [`Scored::then`] picks the same winner as one
/// call over their union; the pipeline does that to score a window
/// with many AP counts on several threads
/// ([`crate::pipeline::OnlineCsSession`]).
///
/// The result's `best` is `None` when no hypothesis produced a usable
/// constellation (e.g. every recovery came back empty).
///
/// # Errors
///
/// Propagates recovery failures.
#[allow(clippy::too_many_arguments)]
pub fn estimate_round(
    readings: &[RssReading],
    grid: &Grid,
    gmm: &GmmModel,
    assigner: &dyn Assigner,
    recovery: &CsRecovery,
    sensing: &mut WindowSensing,
    ks: RangeInclusive<usize>,
    rel_threshold: f64,
) -> Result<Scored> {
    let mut scored = Scored::default();
    if readings.is_empty() {
        return Ok(scored);
    }
    let m = readings.len();
    let data: Vec<(Point, f64)> = readings.iter().map(|r| (r.position, r.rss_dbm)).collect();

    // Materialize the hypothesis list up front (clustering is cheap
    // next to recovery).
    let hypotheses: Vec<(usize, Assignment)> = (*ks.start()..=(*ks.end()).min(m))
        .flat_map(|k| {
            assigner
                .candidate_assignments(readings, k)
                .into_iter()
                .map(move |a| (k, a))
        })
        .collect();

    for (k, assignment) in &hypotheses {
        let candidates = evaluate_hypothesis(
            readings,
            &data,
            grid,
            gmm,
            recovery,
            sensing,
            *k,
            assignment.labels(),
            rel_threshold,
        )?;
        for candidate in candidates {
            scored.candidates += 1;
            if scored.best.as_ref().is_none_or(|b| candidate.bic > b.bic) {
                scored.best = Some(candidate);
            }
        }
    }
    scored.hypotheses = hypotheses.len();
    Ok(scored)
}

/// Evaluates one (k, assignment) hypothesis: up to two EM-style
/// refinement passes (re-assign each reading to the estimated AP that
/// best predicts its RSS and re-recover — the initial clustering can mix
/// readings across APs at group boundaries), returning every pass's
/// candidate in order. The chain never looks at other hypotheses'
/// results; it shares only the window's memos with them. Scoring and
/// re-assignment time is added to the workspace's score stage.
#[allow(clippy::too_many_arguments)]
fn evaluate_hypothesis(
    readings: &[RssReading],
    data: &[(Point, f64)],
    grid: &Grid,
    gmm: &GmmModel,
    recovery: &CsRecovery,
    sensing: &mut WindowSensing,
    k: usize,
    initial_labels: &[usize],
    rel_threshold: f64,
) -> Result<Vec<RoundEstimate>> {
    let m = readings.len();
    let mut labels = initial_labels.to_vec();
    let mut k_used = k;
    let mut candidates = Vec::new();

    for _ in 0..=2 {
        // Per-group recovery may be multi-modal (a colinear group cannot
        // tell which side of the road its AP is on); score every
        // combination of per-group modes and let the window-wide
        // likelihood decide.
        let Some(group_modes) =
            recover_group_modes(&labels, k_used, grid, recovery, sensing, rel_threshold)?
        else {
            break;
        };
        let scoring = Instant::now();
        let best = best_mode_combination(&group_modes, data, gmm, grid, m);
        sensing.stage_times.score += scoring.elapsed();
        let Some(mut candidate) = best else {
            break;
        };

        let constellation = candidate.aps.clone();
        candidate.alternates = group_modes.iter().flatten().map(|m| m.position).collect();
        candidates.push(candidate);

        let reassigning = Instant::now();
        let new_labels = reassign_by_fit(readings, &constellation, gmm);
        sensing.stage_times.score += reassigning.elapsed();
        if new_labels == labels {
            break;
        }
        k_used = new_labels.iter().max().map_or(0, |&l| l + 1);
        labels = new_labels;
    }
    Ok(candidates)
}

/// Enumerates combinations of per-group candidate modes (capped) and
/// returns the BIC-best constellation.
fn best_mode_combination(
    group_modes: &[Vec<crate::centroid::CentroidEstimate>],
    data: &[(Point, f64)],
    gmm: &GmmModel,
    grid: &Grid,
    m: usize,
) -> Option<RoundEstimate> {
    const COMBO_CAP: usize = 243;
    // Trim the widest groups until the product fits the cap.
    let mut counts: Vec<usize> = group_modes.iter().map(|g| g.len().max(1)).collect();
    loop {
        let product: usize = counts.iter().product();
        if product <= COMBO_CAP {
            break;
        }
        let widest = counts
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)
            .map(|(i, _)| i)
            .expect("non-empty groups");
        counts[widest] -= 1;
    }

    let mut best: Option<RoundEstimate> = None;
    let mut combo = vec![0usize; group_modes.len()];
    loop {
        // Build and score this combination.
        let aps: Vec<Point> = group_modes
            .iter()
            .zip(&combo)
            .map(|(modes, &i)| modes[i].position)
            .collect();
        // Two hypothesized APs recovered to (nearly) the same spot are
        // one AP counted twice: merge them so the hypothesis is scored
        // at its *effective* complexity.
        let aps = dedup_constellation(aps, 1.2 * grid.lattice());
        let k_eff = aps.len();
        let ll = gmm.log_likelihood(data, &aps);
        if ll.is_finite() {
            let score = bic(ll, free_params_for_ap_count(k_eff), m);
            if best.as_ref().is_none_or(|b| score > b.bic) {
                best = Some(RoundEstimate {
                    aps,
                    k: k_eff,
                    log_likelihood: ll,
                    bic: score,
                    alternates: Vec::new(),
                    hypotheses: 0,
                    candidates: 0,
                });
            }
        }
        // Odometer over the (possibly trimmed) mode counts.
        let mut pos = 0;
        loop {
            if pos == combo.len() {
                return best;
            }
            combo[pos] += 1;
            if combo[pos] < counts[pos] {
                break;
            }
            combo[pos] = 0;
            pos += 1;
        }
    }
}

/// Recovers candidate position modes for every non-empty group; `None`
/// when any group recovery is degenerate (empty recovered support).
/// Group recoveries go through the shared [`WindowSensing`] workspace,
/// so a grouping that recurs in another hypothesis (or EM pass) is
/// served from the memo instead of re-solved.
fn recover_group_modes(
    labels: &[usize],
    k: usize,
    grid: &Grid,
    recovery: &CsRecovery,
    sensing: &mut WindowSensing,
    rel_threshold: f64,
) -> Result<Option<Vec<Vec<crate::centroid::CentroidEstimate>>>> {
    // Groups are recovered one at a time so a degenerate group aborts
    // the hypothesis *before* solving its remaining siblings: extra
    // solves would be pure waste. Duplicate groupings across
    // hypotheses and EM passes still hit the [`WindowSensing`] memo.
    let mut groups = Vec::with_capacity(k);
    for ap in 0..k {
        let idx: Vec<usize> = labels
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l == ap)
            .map(|(i, _)| i)
            .collect();
        if idx.is_empty() {
            // Empty group: hypothesis effectively smaller k.
            continue;
        }
        let theta = recovery.recover_group(sensing, &idx)?;
        // Groupings recur across hypotheses and EM passes just like the
        // recoveries themselves, so the modes are memoized alongside
        // them.
        let modes = sensing.modes_or_compute(&idx, rel_threshold, || {
            crate::centroid::candidate_modes(&theta, grid, rel_threshold, 2.0 * grid.lattice(), 3)
        });
        if modes.is_empty() {
            return Ok(None);
        }
        groups.push(modes);
    }
    if groups.is_empty() {
        return Ok(None);
    }
    Ok(Some(groups))
}

/// Re-assigns each reading to the estimated AP whose path-loss
/// prediction best matches the observed RSS (ties broken toward the
/// nearer AP by the prediction itself), then densifies labels.
fn reassign_by_fit(readings: &[RssReading], aps: &[Point], gmm: &GmmModel) -> Vec<usize> {
    let mut labels: Vec<usize> = readings
        .iter()
        .map(|r| {
            (0..aps.len())
                .min_by(|&a, &b| {
                    let ea =
                        (r.rss_dbm - gmm.pathloss().mean_rss(r.position.distance(aps[a]))).abs();
                    let eb =
                        (r.rss_dbm - gmm.pathloss().mean_rss(r.position.distance(aps[b]))).abs();
                    ea.partial_cmp(&eb).expect("finite RSS errors")
                })
                .expect("non-empty constellation")
        })
        .collect();
    // Densify so labels are contiguous 0..k'.
    let mut map = std::collections::HashMap::new();
    for l in labels.iter_mut() {
        let next = map.len();
        *l = *map.entry(*l).or_insert(next);
    }
    labels
}

/// Greedily merges constellation points closer than `radius` (averaging
/// merged positions) until all pairwise distances are at least `radius`.
fn dedup_constellation(mut aps: Vec<Point>, radius: f64) -> Vec<Point> {
    loop {
        let mut merged = false;
        'outer: for i in 0..aps.len() {
            for j in (i + 1)..aps.len() {
                if aps[i].distance(aps[j]) < radius {
                    let mid = aps[i].midpoint(aps[j]);
                    aps[i] = mid;
                    aps.swap_remove(j);
                    merged = true;
                    break 'outer;
                }
            }
        }
        if !merged {
            return aps;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::ClusterAssigner;
    use crowdwifi_channel::PathLossModel;
    use crowdwifi_geo::Rect;

    fn setup() -> (Grid, GmmModel, ClusterAssigner, CsRecovery) {
        let model = PathLossModel::uci_campus();
        let grid = Grid::new(
            Rect::new(Point::new(-20.0, -20.0), Point::new(220.0, 80.0)).unwrap(),
            10.0,
        )
        .unwrap();
        let gmm = GmmModel::new(model, 0.05).unwrap();
        let assigner = ClusterAssigner::new(model);
        let recovery = CsRecovery::new(model, 100.0, -95.0);
        (grid, gmm, assigner, recovery)
    }

    fn clean_readings(aps: &[Point], positions: &[Point]) -> Vec<RssReading> {
        // Each position hears its nearest AP, fading-free.
        let model = PathLossModel::uci_campus();
        positions
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let nearest = aps
                    .iter()
                    .min_by(|a, b| p.distance(**a).partial_cmp(&p.distance(**b)).unwrap())
                    .unwrap();
                RssReading::new(p, model.mean_rss(p.distance(*nearest)), i as f64)
            })
            .collect()
    }

    /// Staggered lane positions: keeps the route non-colinear so the
    /// recovery's mirror ambiguity (see `recovery` docs) cannot bite.
    fn staggered(i: usize, spacing: f64) -> Point {
        Point::new(
            spacing * i as f64,
            if (i / 4).is_multiple_of(2) { 0.0 } else { 12.0 },
        )
    }

    #[test]
    fn selects_k1_for_single_ap_data() {
        let (grid, gmm, assigner, recovery) = setup();
        let ap = grid.point(grid.nearest_index(Point::new(50.0, 30.0)));
        let positions: Vec<Point> = (0..12).map(|i| staggered(i, 8.0)).collect();
        let readings = clean_readings(&[ap], &positions);
        let mut sensing = recovery.prepare_window(&grid, &readings);
        let est = estimate_round(
            &readings,
            &grid,
            &gmm,
            &assigner,
            &recovery,
            &mut sensing,
            1..=3,
            0.3,
        )
        .unwrap()
        .winner()
        .expect("a hypothesis must win");
        assert_eq!(est.k, 1, "BIC should pick one AP, got {est:?}");
        assert!(est.aps[0].distance(ap) < 15.0);
        assert!(est.hypotheses >= 3, "expected all k hypothesized");
        assert!(est.candidates >= est.hypotheses);
        let stats = sensing.stats();
        // `>=`, not `==`: a group with no reachable grid cell counts a
        // lookup but neither a hit nor a solve (trivial zero solution).
        assert!(stats.lookups >= stats.hits + stats.solves);
        assert!(stats.solves > 0);
    }

    /// Also checks the block split: disjoint AP-count ranges scored on
    /// their own workspaces and folded in order pick the winner of one
    /// call over the union, with the same hypothesis and candidate
    /// counts.
    #[test]
    fn selects_k2_for_two_separated_aps() {
        let (grid, gmm, assigner, recovery) = setup();
        let ap1 = grid.point(grid.nearest_index(Point::new(20.0, 30.0)));
        let ap2 = grid.point(grid.nearest_index(Point::new(180.0, 30.0)));
        let positions: Vec<Point> = (0..20).map(|i| staggered(i, 10.0)).collect();
        let readings = clean_readings(&[ap1, ap2], &positions);
        let score = |ks: RangeInclusive<usize>| {
            let mut sensing = recovery.prepare_window(&grid, &readings);
            estimate_round(
                &readings,
                &grid,
                &gmm,
                &assigner,
                &recovery,
                &mut sensing,
                ks,
                0.3,
            )
            .unwrap()
        };
        let est = score(1..=4).winner().expect("a hypothesis must win");
        assert_eq!(est.k, 2, "BIC should pick two APs, got k={}", est.k);
        // Each true AP matched by some estimate within ~1.5 cells.
        for true_ap in [ap1, ap2] {
            let d = est
                .aps
                .iter()
                .map(|a| a.distance(true_ap))
                .fold(f64::INFINITY, f64::min);
            assert!(d < 16.0, "true AP {true_ap} unmatched (nearest {d:.1} m)");
        }
        for split in 1..4 {
            let folded = score(1..=split).then(score(split + 1..=4)).winner();
            assert_eq!(folded.as_ref(), Some(&est), "split after k = {split}");
        }
    }

    #[test]
    fn empty_round_yields_none() {
        let (grid, gmm, assigner, recovery) = setup();
        let mut sensing = recovery.prepare_window(&grid, &[]);
        let est = estimate_round(
            &[],
            &grid,
            &gmm,
            &assigner,
            &recovery,
            &mut sensing,
            1..=3,
            0.3,
        )
        .unwrap();
        assert!(est.winner().is_none());
    }
}
