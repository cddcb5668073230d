//! Gaussian-mixture likelihood of an RSS series (Eq. 1 of the paper).
//!
//! Each RSS measurement `rᵢ` may originate from any of the `K` candidate
//! APs; the mixture weight of AP `j` for measurement `i` is the myopic
//! softmax `w_ij = e^{−d_ij} / Σ_j' e^{−d_ij'}`, the component mean
//! `μ_ij` comes from the path-loss model and the component deviation is
//! `σ_ij = b·|μ_ij|`.

use crate::pathloss::PathLossModel;
use crate::{ChannelError, Result};
use crowdwifi_geo::Point;

/// Gaussian-mixture RSS likelihood model.
///
/// # Example
///
/// ```
/// use crowdwifi_channel::{GmmModel, PathLossModel};
/// use crowdwifi_geo::Point;
///
/// let gmm = GmmModel::new(PathLossModel::uci_campus(), 0.05)?;
/// let ap = Point::new(0.0, 0.0);
/// let here = Point::new(10.0, 0.0);
/// let expected = PathLossModel::uci_campus().mean_rss(10.0);
/// // The likelihood peaks at the model-predicted RSS.
/// let at_peak = gmm.log_likelihood(&[(here, expected)], &[ap]);
/// let off_peak = gmm.log_likelihood(&[(here, expected - 20.0)], &[ap]);
/// assert!(at_peak > off_peak);
/// # Ok::<(), crowdwifi_channel::ChannelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmmModel {
    pathloss: PathLossModel,
    sigma_factor: f64,
}

impl GmmModel {
    /// Creates a mixture model; `sigma_factor` is the paper's constant
    /// `b` in `σ_ij = b·μ_ij` (we take `b·|μ_ij|` since dBm means are
    /// negative).
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidParameter`] unless
    /// `sigma_factor > 0` and finite.
    pub fn new(pathloss: PathLossModel, sigma_factor: f64) -> Result<Self> {
        if !(sigma_factor > 0.0) || !sigma_factor.is_finite() {
            return Err(ChannelError::InvalidParameter {
                name: "sigma_factor",
                value: sigma_factor,
            });
        }
        Ok(GmmModel {
            pathloss,
            sigma_factor,
        })
    }

    /// The underlying path-loss model.
    pub fn pathloss(&self) -> &PathLossModel {
        &self.pathloss
    }

    /// The σ scale factor `b`.
    pub fn sigma_factor(&self) -> f64 {
        self.sigma_factor
    }

    /// Log of Eq. (1): `Σᵢ log Σⱼ w_ij · N(rᵢ; μ_ij, σ_ij²)` for readings
    /// `(collector position, rss_dbm)` against candidate APs `aps`.
    ///
    /// Returns `f64::NEG_INFINITY` when `aps` is empty and `0.0` when
    /// there are no readings (empty product).
    pub fn log_likelihood(&self, readings: &[(Point, f64)], aps: &[Point]) -> f64 {
        if readings.is_empty() {
            return 0.0;
        }
        if aps.is_empty() {
            return f64::NEG_INFINITY;
        }
        let mut total = 0.0;
        // Per-reading scratch, allocated once per call.
        let mut dists: Vec<f64> = Vec::with_capacity(aps.len());
        let mut weights: Vec<f64> = Vec::with_capacity(aps.len());
        let mut log_terms: Vec<f64> = Vec::with_capacity(aps.len());
        for &(pos, rss) in readings {
            dists.clear();
            dists.extend(aps.iter().map(|ap| pos.distance(*ap)));
            // Myopic softmax weights over −d_ij (max-subtracted for
            // numerical stability; the normalization cancels the shift).
            let dmin = dists.iter().cloned().fold(f64::INFINITY, f64::min);
            weights.clear();
            weights.extend(dists.iter().map(|d| (-(d - dmin)).exp()));
            let wsum: f64 = weights.iter().sum();
            for w in weights.iter_mut() {
                *w /= wsum;
            }

            // Mixture density via log-sum-exp.
            log_terms.clear();
            for (j, &d) in dists.iter().enumerate() {
                let mu = self.pathloss.mean_rss(d);
                let sigma = (self.sigma_factor * mu.abs()).max(1e-6);
                let z = (rss - mu) / sigma;
                let log_pdf = -0.5 * z * z - sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln();
                if weights[j] > 0.0 {
                    log_terms.push(weights[j].ln() + log_pdf);
                }
            }
            let m = log_terms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let lse = m + log_terms.iter().map(|t| (t - m).exp()).sum::<f64>().ln();
            total += lse;
        }
        total
    }

    /// Hard-assignment ("classification") log-likelihood: each reading
    /// is explained by its single best component,
    /// `Σᵢ max_j [ln w_ij + ln N(rᵢ; μ_ij, σ_ij²)]`.
    ///
    /// More discriminative than the Eq. (1) mixture for *comparing
    /// constellations*: under the mixture, a reading stolen by a wrong
    /// nearby component can still be "explained" through the tiny
    /// residual weight of a far correct component, so ghost APs barely
    /// cost anything. Under hard assignment they pay full price. The
    /// global refinement uses this; the per-round BIC keeps the paper's
    /// mixture.
    pub fn hard_log_likelihood(&self, readings: &[(Point, f64)], aps: &[Point]) -> f64 {
        if readings.is_empty() {
            return 0.0;
        }
        if aps.is_empty() {
            return f64::NEG_INFINITY;
        }
        let mut total = 0.0;
        for &(pos, rss) in readings {
            let dists: Vec<f64> = aps.iter().map(|ap| pos.distance(*ap)).collect();
            let dmin = dists.iter().cloned().fold(f64::INFINITY, f64::min);
            let raw: Vec<f64> = dists.iter().map(|d| (-(d - dmin)).exp()).collect();
            let wsum: f64 = raw.iter().sum();
            let mut best = f64::NEG_INFINITY;
            for (j, &d) in dists.iter().enumerate() {
                let w = raw[j] / wsum;
                if w <= 0.0 {
                    continue;
                }
                let mu = self.pathloss.mean_rss(d);
                let sigma = (self.sigma_factor * mu.abs()).max(1e-6);
                let z = (rss - mu) / sigma;
                let log_pdf = -0.5 * z * z - sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln();
                best = best.max(w.ln() + log_pdf);
            }
            total += best;
        }
        total
    }

    /// Precomputes the per-(reading, candidate) factors of
    /// [`GmmModel::hard_log_likelihood`] against a fixed candidate pool,
    /// so a search that scores many *subsets* of the pool (the global
    /// BIC refinement evaluates hundreds of constellations over the same
    /// drive) pays the distance / path-loss / log-density transcendentals
    /// once per pair instead of once per evaluation. Scoring through the
    /// cache is bit-identical to calling `hard_log_likelihood` with the
    /// selected positions in the same order: only set-independent values
    /// are cached, and the set-dependent softmax weights are computed
    /// with exactly the original operations.
    pub fn hard_fit_cache(&self, readings: &[(Point, f64)], pool: &[Point]) -> HardFitCache {
        let k = pool.len();
        let mut dist = Vec::with_capacity(readings.len() * k);
        let mut log_pdf = Vec::with_capacity(readings.len() * k);
        for &(pos, rss) in readings {
            for ap in pool {
                let d = pos.distance(*ap);
                let mu = self.pathloss.mean_rss(d);
                let sigma = (self.sigma_factor * mu.abs()).max(1e-6);
                let z = (rss - mu) / sigma;
                dist.push(d);
                log_pdf.push(-0.5 * z * z - sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln());
            }
        }
        HardFitCache {
            readings: readings.len(),
            k,
            dist,
            log_pdf,
        }
    }

    /// Myopic mixture weights `w_ij` of one reading position against the
    /// candidate APs (exposed for tests and diagnostics).
    pub fn weights(&self, position: Point, aps: &[Point]) -> Vec<f64> {
        if aps.is_empty() {
            return Vec::new();
        }
        let dists: Vec<f64> = aps.iter().map(|ap| position.distance(*ap)).collect();
        let dmin = dists.iter().cloned().fold(f64::INFINITY, f64::min);
        let raw: Vec<f64> = dists.iter().map(|d| (-(d - dmin)).exp()).collect();
        let sum: f64 = raw.iter().sum();
        raw.into_iter().map(|w| w / sum).collect()
    }
}

/// Per-(reading, candidate) factors cached by
/// [`GmmModel::hard_fit_cache`]: the reading–candidate distance and the
/// per-pair log-density `ln N(rss; μ(d), σ(d)²)`. Both depend only on
/// the pair, never on which other candidates are selected, which is what
/// makes subset scoring through the cache bit-identical to the direct
/// evaluation.
#[derive(Debug, Clone)]
pub struct HardFitCache {
    readings: usize,
    k: usize,
    /// Row-major `[reading][candidate]` distances.
    dist: Vec<f64>,
    /// Row-major `[reading][candidate]` log-densities.
    log_pdf: Vec<f64>,
}

impl HardFitCache {
    /// [`GmmModel::hard_log_likelihood`] of the subset `sel` (indices
    /// into the cached pool, in constellation order). Bit-identical to
    /// the direct call with the corresponding positions: the gathered
    /// distance vector, softmax weights and hard-assignment reduction
    /// run the original operations in the original order, only the
    /// per-pair transcendentals come from the cache.
    ///
    /// # Panics
    ///
    /// Panics if any index in `sel` is out of the pool's range.
    pub fn hard_log_likelihood(&self, sel: &[usize]) -> f64 {
        if self.readings == 0 {
            return 0.0;
        }
        if sel.is_empty() {
            return f64::NEG_INFINITY;
        }
        assert!(
            sel.iter().all(|&j| j < self.k),
            "selection index out of pool range"
        );
        let mut dists = vec![0.0_f64; sel.len()];
        let mut raw = vec![0.0_f64; sel.len()];
        let mut total = 0.0;
        for i in 0..self.readings {
            let drow = &self.dist[i * self.k..(i + 1) * self.k];
            let prow = &self.log_pdf[i * self.k..(i + 1) * self.k];
            for (t, &j) in dists.iter_mut().zip(sel) {
                *t = drow[j];
            }
            let dmin = dists.iter().cloned().fold(f64::INFINITY, f64::min);
            for (r, &d) in raw.iter_mut().zip(&dists) {
                *r = (-(d - dmin)).exp();
            }
            let wsum: f64 = raw.iter().sum();
            let mut best = f64::NEG_INFINITY;
            for (jj, &j) in sel.iter().enumerate() {
                let w = raw[jj] / wsum;
                if w <= 0.0 {
                    continue;
                }
                best = best.max(w.ln() + prow[j]);
            }
            total += best;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> GmmModel {
        GmmModel::new(PathLossModel::uci_campus(), 0.05).unwrap()
    }

    #[test]
    fn weights_sum_to_one_and_favor_near_ap() {
        let m = model();
        let aps = [Point::new(0.0, 0.0), Point::new(100.0, 0.0)];
        let w = m.weights(Point::new(10.0, 0.0), &aps);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(w[0] > w[1], "closer AP must dominate: {w:?}");
        // 90 m difference at e^-d scale: essentially all mass on AP 0.
        assert!(w[0] > 0.999999);
    }

    #[test]
    fn likelihood_prefers_true_constellation() {
        let m = model();
        let true_ap = Point::new(50.0, 20.0);
        // Fading-free readings generated by the true AP.
        let readings: Vec<(Point, f64)> = (0..10)
            .map(|i| {
                let pos = Point::new(10.0 * i as f64, 0.0);
                (pos, m.pathloss().mean_rss(pos.distance(true_ap)))
            })
            .collect();
        let good = m.log_likelihood(&readings, &[true_ap]);
        let bad = m.log_likelihood(&readings, &[Point::new(200.0, 200.0)]);
        assert!(good > bad);
    }

    #[test]
    fn degenerate_inputs() {
        let m = model();
        assert_eq!(m.log_likelihood(&[], &[Point::new(0.0, 0.0)]), 0.0);
        assert_eq!(
            m.log_likelihood(&[(Point::new(0.0, 0.0), -60.0)], &[]),
            f64::NEG_INFINITY
        );
        assert!(m.weights(Point::new(0.0, 0.0), &[]).is_empty());
    }

    #[test]
    fn likelihood_is_finite_for_extreme_rss() {
        let m = model();
        let aps = [Point::new(0.0, 0.0)];
        let ll = m.log_likelihood(&[(Point::new(5.0, 5.0), -200.0)], &aps);
        assert!(ll.is_finite());
    }

    #[test]
    fn rejects_bad_sigma_factor() {
        assert!(GmmModel::new(PathLossModel::uci_campus(), 0.0).is_err());
        assert!(GmmModel::new(PathLossModel::uci_campus(), f64::NAN).is_err());
    }

    #[test]
    fn more_aps_with_identical_position_do_not_change_peak() {
        // Two identical components = one component (weights split).
        let m = model();
        let ap = Point::new(30.0, 0.0);
        let readings = [(Point::new(0.0, 0.0), m.pathloss().mean_rss(30.0))];
        let one = m.log_likelihood(&readings, &[ap]);
        let two = m.log_likelihood(&readings, &[ap, ap]);
        assert!((one - two).abs() < 1e-9);
    }
}
