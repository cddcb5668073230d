//! Order statistics for reported timings.
//!
//! A timing is reported as its median plus a tail percentile chosen by
//! sample count: the highest rung of [`TAIL_LADDER`] that still has at
//! least [`TAIL_MIN_BEYOND`] samples beyond it. A run with too few
//! samples for any rung above the median reports the median as its tail,
//! so a short run never prints a percentile it cannot resolve.

/// Candidate tail percentiles in per-mille, lowest first (integers, so
/// the "samples beyond" test is exact).
pub const TAIL_LADDER: [u64; 4] = [500, 900, 990, 999];

/// Samples a reported percentile must have beyond it.
pub const TAIL_MIN_BEYOND: u64 = 10;

/// Nearest-rank percentile `p` (0–100, resolved to 0.1) of `samples`,
/// or `None` when there are none. Sorts a copy; NaNs sort last.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let per_mille = (p * 10.0).round().clamp(0.0, 1000.0) as usize;
    let rank = (per_mille * sorted.len()).div_ceil(1000);
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (nearest-rank p50).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// of `n` samples beyond it; the median when none above it qualifies.
pub fn tail_rank(n: usize) -> f64 {
    let per_mille = TAIL_LADDER
        .iter()
        .copied()
        .rev()
        .find(|&pm| n as u64 * (1000 - pm) >= TAIL_MIN_BEYOND * 1000)
        .unwrap_or(TAIL_LADDER[0]);
    per_mille as f64 / 10.0
}

/// `(percentile, value)` of the tail reported for `samples`.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let p = tail_rank(samples.len());
    percentile(samples, p).map(|v| (p, v))
}

/// Mean of `samples`, or `None` when empty.
pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_rank_needs_ten_samples_beyond() {
        // p90 needs 100 samples, p99 1000, p99.9 10 000.
        assert_eq!(tail_rank(0), 50.0);
        assert_eq!(tail_rank(19), 50.0);
        assert_eq!(tail_rank(99), 50.0);
        assert_eq!(tail_rank(100), 90.0);
        assert_eq!(tail_rank(999), 90.0);
        assert_eq!(tail_rank(1000), 99.0);
        assert_eq!(tail_rank(9_999), 99.0);
        assert_eq!(tail_rank(10_000), 99.9);
        assert_eq!(tail_rank(1_000_000), 99.9);
    }

    #[test]
    fn tail_reports_the_chosen_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((99.0, 990.0)));
        // Five rounds: nothing above the median is resolvable.
        assert_eq!(tail(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((50.0, 3.0)));
        assert_eq!(tail(&[]), None);
    }
}
