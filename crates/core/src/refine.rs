//! Global BIC refinement of the consolidated AP set.
//!
//! Credit-based consolidation (§4.3.6) filters locally: it keeps any
//! location that won at least two rounds. Two failure modes survive it:
//!
//! * **mirror ghosts** — a window whose readings for one AP are colinear
//!   cannot tell which side of the road the AP is on; the wrong side
//!   wins some rounds and accumulates credit alongside the right side,
//! * **weak APs** — an AP skirted at long range may never win two
//!   rounds, so its (correct) single-credit estimate is discarded.
//!
//! Both are resolved by the *global* data: a ghost adds nothing to the
//! likelihood of the full drive (readings from other road legs never
//! corroborate it), while a weak AP's estimate is the only explanation
//! for the readings collected near it. This module greedily builds the
//! constellation that maximizes the whole-drive GMM likelihood with the
//! BIC complexity penalty — the same objective the per-round selection
//! uses, lifted to the entire reading set.

// Index-based loops below mirror the textbook algorithms; iterator
// rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

use crate::consolidate::ApEstimate;
use crowdwifi_channel::bic::{bic, free_params_for_ap_count};
use crowdwifi_channel::{GmmModel, RssReading};
use crowdwifi_geo::Point;

/// Greedy forward selection of candidate estimates by global BIC.
///
/// Starts from the empty constellation and repeatedly adds the candidate
/// that improves the BIC the most, stopping when no addition improves
/// it. Returns the selected estimates (credits preserved), in selection
/// order.
pub fn global_bic_selection(
    readings: &[RssReading],
    candidates: &[ApEstimate],
    gmm: &GmmModel,
) -> Vec<ApEstimate> {
    if readings.is_empty() || candidates.is_empty() {
        return Vec::new();
    }
    let data: Vec<(Point, f64)> = readings.iter().map(|r| (r.position, r.rss_dbm)).collect();
    let m = readings.len();

    // The search below scores hundreds of subsets of one fixed candidate
    // pool; the per-(reading, candidate) transcendentals are hoisted into
    // a cache once, which is bit-identical to direct scoring (see
    // [`crowdwifi_channel::gmm::HardFitCache`]).
    let pool: Vec<Point> = candidates.iter().map(|e| e.position).collect();
    let cache = gmm.hard_fit_cache(&data, &pool);
    let score_of = |sel: &[usize]| -> f64 {
        let ll = cache.hard_log_likelihood(sel);
        if ll.is_finite() {
            bic(ll, free_params_for_ap_count(sel.len()), m)
        } else {
            f64::NEG_INFINITY
        }
    };

    let mut chosen: Vec<usize> = Vec::new();
    let mut remaining: Vec<usize> = (0..candidates.len()).collect();
    let mut current_bic = f64::NEG_INFINITY;

    // Alternate greedy additions with swap/removal local search. Plain
    // greedy is order-sensitive: with few APs selected, a mirror ghost
    // can outscore its true twin and then block it forever; the swap
    // phase repairs such choices once the rest of the constellation is
    // in place.
    for _pass in 0..6 {
        let mut changed = false;

        // Additions.
        loop {
            let mut best: Option<(usize, f64)> = None;
            for (i, &cand) in remaining.iter().enumerate() {
                let mut sel = chosen.clone();
                sel.push(cand);
                let score = score_of(&sel);
                if score.is_finite() && best.is_none_or(|(_, b)| score > b) {
                    best = Some((i, score));
                }
            }
            match best {
                Some((i, score)) if score > current_bic => {
                    current_bic = score;
                    chosen.push(remaining.swap_remove(i));
                    changed = true;
                }
                _ => break,
            }
        }

        // Swaps: replace one selected estimate with one candidate.
        'swap: for i in 0..chosen.len() {
            for j in 0..remaining.len() {
                let mut sel = chosen.clone();
                sel[i] = remaining[j];
                let score = score_of(&sel);
                if score > current_bic + 1e-9 {
                    std::mem::swap(&mut chosen[i], &mut remaining[j]);
                    current_bic = score;
                    changed = true;
                    continue 'swap;
                }
            }
        }

        // Removals.
        let mut i = 0;
        while i < chosen.len() {
            let mut sel = chosen.clone();
            sel.remove(i);
            let score = if sel.is_empty() {
                f64::NEG_INFINITY
            } else {
                score_of(&sel)
            };
            if score > current_bic + 1e-9 {
                remaining.push(chosen.remove(i));
                current_bic = score;
                changed = true;
            } else {
                i += 1;
            }
        }

        if !changed {
            break;
        }
    }
    chosen.into_iter().map(|i| candidates[i]).collect()
}

/// Polishes selected AP positions with whole-drive EM passes: readings
/// are attributed to their nearest selected AP, each AP is re-recovered
/// from *all* its readings (not just one window's worth) on a grid over
/// the full driving area, and positions update to the strongest
/// recovered mode near the previous position.
///
/// Returns the polished estimates; APs whose groups are too small to
/// re-recover keep their previous positions.
pub fn polish_positions(
    readings: &[RssReading],
    selected: &[ApEstimate],
    recovery: &crate::recovery::CsRecovery,
    lattice: f64,
    passes: usize,
) -> Vec<ApEstimate> {
    if readings.is_empty() || selected.is_empty() {
        return selected.to_vec();
    }
    let mut aps: Vec<ApEstimate> = selected.to_vec();
    for _ in 0..passes {
        // Attribute each reading to the nearest current AP.
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); aps.len()];
        for (i, r) in readings.iter().enumerate() {
            let nearest = aps
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    r.position
                        .distance(a.position)
                        .partial_cmp(&r.position.distance(b.position))
                        .expect("finite distances")
                })
                .map(|(j, _)| j)
                .expect("non-empty constellation");
            groups[nearest].push(i);
        }
        let mut moved = false;
        for (j, group) in groups.iter().enumerate() {
            if group.len() < 3 {
                continue;
            }
            let positions: Vec<Point> = group.iter().map(|&i| readings[i].position).collect();
            let rss: Vec<f64> = group.iter().map(|&i| readings[i].rss_dbm).collect();
            let Ok(grid) = crowdwifi_geo::Grid::from_reference_points(
                &positions,
                recovery.radio_range(),
                lattice,
            ) else {
                continue;
            };
            let Ok(support) = recovery.recover_single_ap(&grid, &positions, &rss) else {
                continue;
            };
            let modes = crate::centroid::candidate_modes(&support, &grid, 0.3, 2.0 * lattice, 3);
            // Take the mode nearest the current estimate (the global
            // selection already chose the side; don't flip it).
            if let Some(best) = modes.iter().min_by(|a, b| {
                a.position
                    .distance(aps[j].position)
                    .partial_cmp(&b.position.distance(aps[j].position))
                    .expect("finite distances")
            }) {
                if best.position.distance(aps[j].position) > 1e-9 {
                    moved = true;
                }
                aps[j].position = best.position;
            }
        }
        if !moved {
            break;
        }
    }
    aps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdwifi_channel::PathLossModel;

    fn gmm() -> GmmModel {
        GmmModel::new(PathLossModel::uci_campus(), 0.05).unwrap()
    }

    /// Readings generated fading-free from `aps` (nearest AP heard).
    fn readings_from(aps: &[Point], positions: &[Point]) -> Vec<RssReading> {
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

    fn est(x: f64, y: f64, credit: f64) -> ApEstimate {
        ApEstimate {
            position: Point::new(x, y),
            credit,
        }
    }

    #[test]
    fn keeps_true_ap_and_drops_mirror_ghost() {
        let truth = Point::new(50.0, 30.0);
        // Route passes on y = 0 (ambiguous leg) and on y = 60 (which
        // refutes the ghost at y = -30).
        let mut positions: Vec<Point> = (0..10).map(|i| Point::new(10.0 * i as f64, 0.0)).collect();
        positions.extend((0..10).map(|i| Point::new(10.0 * i as f64, 60.0)));
        let readings = readings_from(&[truth], &positions);
        let candidates = [est(50.0, 30.0, 3.0), est(50.0, -30.0, 3.0)];
        let selected = global_bic_selection(&readings, &candidates, &gmm());
        assert_eq!(selected.len(), 1, "got {selected:?}");
        assert!(selected[0].position.y > 0.0, "ghost won: {selected:?}");
    }

    #[test]
    fn rescues_low_credit_true_ap() {
        let ap1 = Point::new(20.0, 30.0);
        let ap2 = Point::new(180.0, 30.0);
        let positions: Vec<Point> = (0..20).map(|i| Point::new(10.0 * i as f64, 0.0)).collect();
        let readings = readings_from(&[ap1, ap2], &positions);
        // ap2's estimate has only one credit (would be filtered by the
        // credit rule) but is needed to explain the right half of the
        // drive.
        let candidates = [est(20.0, 30.0, 5.0), est(180.0, 30.0, 1.0)];
        let selected = global_bic_selection(&readings, &candidates, &gmm());
        assert_eq!(selected.len(), 2, "got {selected:?}");
    }

    #[test]
    fn rejects_redundant_duplicate() {
        let truth = Point::new(50.0, 30.0);
        let positions: Vec<Point> = (0..12).map(|i| Point::new(8.0 * i as f64, 5.0)).collect();
        let readings = readings_from(&[truth], &positions);
        let candidates = [est(50.0, 30.0, 4.0), est(52.0, 32.0, 2.0)];
        let selected = global_bic_selection(&readings, &candidates, &gmm());
        assert_eq!(selected.len(), 1);
    }

    #[test]
    fn empty_inputs() {
        assert!(global_bic_selection(&[], &[est(0.0, 0.0, 1.0)], &gmm()).is_empty());
        assert!(global_bic_selection(
            &readings_from(&[Point::new(0.0, 0.0)], &[Point::new(1.0, 1.0)]),
            &[],
            &gmm()
        )
        .is_empty());
    }
}
