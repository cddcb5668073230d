//! Crowd-vehicle reliability models (§5.1).

use crate::{CrowdError, Result};
use rand::Rng;

/// A pool of crowd-vehicles with per-vehicle reliability `q_j` — the
/// probability that vehicle `j` answers a mapping task correctly.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerPool {
    reliabilities: Vec<f64>,
}

impl WorkerPool {
    /// Creates a pool from explicit reliabilities, each in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`CrowdError::InvalidParameter`] when empty or any value
    /// is out of `[0, 1]`.
    pub fn new(reliabilities: Vec<f64>) -> Result<Self> {
        if reliabilities.is_empty() {
            return Err(CrowdError::InvalidParameter(
                "worker pool must be non-empty".to_string(),
            ));
        }
        if reliabilities
            .iter()
            .any(|&q| !(0.0..=1.0).contains(&q) || !q.is_finite())
        {
            return Err(CrowdError::InvalidParameter(
                "reliabilities must lie in [0, 1]".to_string(),
            ));
        }
        Ok(WorkerPool { reliabilities })
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.reliabilities.len()
    }

    /// Whether the pool is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.reliabilities.is_empty()
    }

    /// Reliability `q_j` of worker `j`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn reliability(&self, worker: usize) -> f64 {
        self.reliabilities[worker]
    }

    /// All reliabilities.
    pub fn reliabilities(&self) -> &[f64] {
        &self.reliabilities
    }
}

/// The discrete spammer–hammer prior: a vehicle is a *hammer*
/// (`q = hammer_q`) with probability `hammer_fraction`, otherwise a
/// *spammer* (`q = spammer_q ≈ ½`, i.e. random answers).
///
/// The default is the paper's typical prior: hammers and spammers with
/// equal probability, `q ∈ {1.0, 0.5}`. Note `E[q] = 0.75 > ½`, as §5.1
/// requires to keep spammers from overwhelming the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpammerHammerPrior {
    /// Probability that a drawn vehicle is a hammer.
    pub hammer_fraction: f64,
    /// Reliability of hammers (≈ 1).
    pub hammer_q: f64,
    /// Reliability of spammers (≈ ½).
    pub spammer_q: f64,
}

impl Default for SpammerHammerPrior {
    fn default() -> Self {
        SpammerHammerPrior {
            hammer_fraction: 0.5,
            hammer_q: 1.0,
            spammer_q: 0.5,
        }
    }
}

impl SpammerHammerPrior {
    /// Creates a prior, validating all probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`CrowdError::InvalidParameter`] when any value is
    /// outside `[0, 1]` or when `E[q] ≤ ½` (spammers would overwhelm
    /// the system; §5.1 requires `E[q] > ½`).
    pub fn new(hammer_fraction: f64, hammer_q: f64, spammer_q: f64) -> Result<Self> {
        for (name, v) in [
            ("hammer_fraction", hammer_fraction),
            ("hammer_q", hammer_q),
            ("spammer_q", spammer_q),
        ] {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return Err(CrowdError::InvalidParameter(format!(
                    "{name} must lie in [0, 1], got {v}"
                )));
            }
        }
        let expected = hammer_fraction * hammer_q + (1.0 - hammer_fraction) * spammer_q;
        if expected <= 0.5 {
            return Err(CrowdError::InvalidParameter(format!(
                "E[q] = {expected} must exceed 1/2"
            )));
        }
        Ok(SpammerHammerPrior {
            hammer_fraction,
            hammer_q,
            spammer_q,
        })
    }

    /// Draws one reliability.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if rng.random_range(0.0..1.0) < self.hammer_fraction {
            self.hammer_q
        } else {
            self.spammer_q
        }
    }

    /// Draws a pool of `n` i.i.d. reliabilities.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn draw_pool<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> WorkerPool {
        assert!(n > 0, "pool size must be positive");
        let reliabilities = (0..n).map(|_| self.draw(rng)).collect();
        WorkerPool::new(reliabilities).expect("drawn reliabilities are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn pool_validation() {
        assert!(WorkerPool::new(vec![]).is_err());
        assert!(WorkerPool::new(vec![1.1]).is_err());
        assert!(WorkerPool::new(vec![-0.1]).is_err());
        assert!(WorkerPool::new(vec![0.5, 1.0]).is_ok());
    }

    #[test]
    fn prior_validation() {
        assert!(SpammerHammerPrior::new(0.5, 1.0, 0.5).is_ok());
        // E[q] = 0.5 exactly: rejected.
        assert!(SpammerHammerPrior::new(0.0, 1.0, 0.5).is_err());
        assert!(SpammerHammerPrior::new(1.5, 1.0, 0.5).is_err());
    }

    #[test]
    fn drawn_pool_matches_prior_statistics() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let prior = SpammerHammerPrior::default();
        let pool = prior.draw_pool(4000, &mut rng);
        let hammers = pool.reliabilities().iter().filter(|&&q| q == 1.0).count();
        let frac = hammers as f64 / pool.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "hammer fraction {frac}");
        let mean = pool.reliabilities().iter().sum::<f64>() / pool.len() as f64;
        assert!((mean - 0.75).abs() < 0.03, "mean reliability {mean}");
    }

    #[test]
    fn draw_returns_only_the_two_levels() {
        let mut rng = ChaCha8Rng::seed_from_u64(10);
        let prior = SpammerHammerPrior::default();
        for _ in 0..100 {
            let q = prior.draw(&mut rng);
            assert!(q == 1.0 || q == 0.5);
        }
    }
}
