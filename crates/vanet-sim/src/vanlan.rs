//! VanLan-like beacon trace generation (§6.3 substitute).
//!
//! The real VanLan dataset (Microsoft Research) logged beacon receptions
//! between 11 campus APs and 2 vans. This module synthesizes an
//! equivalent trace: both vans repeatedly drive their rounds while every
//! AP broadcasts a 500-byte beacon at 1 Mbps every 100 ms; the van logs
//! an RSS row for each beacon it successfully receives. The paper's
//! experiment then subsamples 300 RSS rows for the lookup evaluation.

use crate::collector::RssCollector;
use crate::mobility::vanlan_round;
use crate::scenario::Scenario;
use crowdwifi_channel::RssReading;
use rand::seq::SliceRandom;
use rand::Rng;

/// Configuration of the VanLan-like trace generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VanLanConfig {
    /// Beacon period in seconds (paper: one 500-byte packet every 100 ms).
    pub beacon_interval: f64,
    /// Number of vans (paper: 2).
    pub vans: usize,
    /// Rounds each van drives (paper: ~10 region visits per day).
    pub rounds: usize,
}

impl Default for VanLanConfig {
    fn default() -> Self {
        VanLanConfig {
            beacon_interval: 0.1,
            vans: 2,
            rounds: 10,
        }
    }
}

/// A generated VanLan-like trace.
#[derive(Debug, Clone)]
pub struct VanLanTrace {
    /// All beacon receptions, in time order per van, vans concatenated.
    pub readings: Vec<RssReading>,
    /// Which van logged each reading (parallel to `readings`).
    pub van_of_reading: Vec<usize>,
}

impl VanLanTrace {
    /// Generates a trace over the [`Scenario::vanlan`] map.
    ///
    /// # Panics
    ///
    /// Panics if `config.vans == 0` or `config.rounds == 0`.
    pub fn generate<R: Rng + ?Sized>(config: VanLanConfig, rng: &mut R) -> Self {
        assert!(config.vans > 0 && config.rounds > 0, "need vans and rounds");
        let scenario = Scenario::vanlan();
        let collector = RssCollector::new(&scenario);
        let mut readings = Vec::new();
        let mut van_of_reading = Vec::new();
        for van in 0..config.vans {
            // Offset lanes so the two vans see slightly different
            // geometry, like distinct physical vehicles would.
            let route = vanlan_round(8.0 * van as f64);
            for round in 0..config.rounds {
                let t_offset = round as f64 * (route.duration() + 60.0);
                for w in route.sample(config.beacon_interval) {
                    if let Some(mut r) = collector.sample_at(w.position, w.time + t_offset, rng) {
                        // Beacon loss: reception degrades with weaker
                        // signal (bursty fading is handled by the
                        // per-sample shadowing).
                        if rng.random_range(0.0..1.0) < reception_probability(r.rss_dbm) {
                            r.time = w.time + t_offset;
                            readings.push(r);
                            van_of_reading.push(van);
                        }
                    }
                }
            }
        }
        VanLanTrace {
            readings,
            van_of_reading,
        }
    }

    /// Number of logged RSS rows.
    pub fn len(&self) -> usize {
        self.readings.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.readings.is_empty()
    }

    /// Readings logged by one van, in time order.
    pub fn van_readings(&self, van: usize) -> Vec<RssReading> {
        self.readings
            .iter()
            .zip(&self.van_of_reading)
            .filter(|&(_, &v)| v == van)
            .map(|(r, _)| *r)
            .collect()
    }

    /// Uniformly subsamples `n` readings (the paper evaluates lookup on
    /// 300 of the 12544 rows), returned in global time order.
    pub fn subsample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<RssReading> {
        let mut chosen: Vec<RssReading> = if n >= self.readings.len() {
            self.readings.clone()
        } else {
            let mut idx: Vec<usize> = (0..self.readings.len()).collect();
            idx.shuffle(rng);
            idx.into_iter().take(n).map(|i| self.readings[i]).collect()
        };
        chosen.sort_by(|a, b| a.time.partial_cmp(&b.time).expect("finite times"));
        chosen
    }
}

/// Probability that a beacon at the given RSS is successfully decoded:
/// a smooth ramp from 0 at −90 dBm to 1 at −55 dBm, mimicking the
/// bursty, distance-graded loss VanLan reports — mid-range links lose a
/// substantial fraction of their packets, which is what separates a
/// hard-handoff policy stuck on one AP from an opportunistic one.
pub fn reception_probability(rss_dbm: f64) -> f64 {
    let x = (rss_dbm + 90.0) / 35.0; // 0 at -90, 1 at -55
    x.clamp(0.0, 1.0).powf(1.2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn trace_has_thousands_of_rows() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let trace = VanLanTrace::generate(VanLanConfig::default(), &mut rng);
        // The real dataset has 12544 rows; ours should be the same order
        // of magnitude.
        assert!(
            trace.len() > 4_000,
            "trace too sparse: {} rows",
            trace.len()
        );
        assert_eq!(trace.readings.len(), trace.van_of_reading.len());
    }

    #[test]
    fn both_vans_contribute() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let trace = VanLanTrace::generate(VanLanConfig::default(), &mut rng);
        assert!(!trace.van_readings(0).is_empty());
        assert!(!trace.van_readings(1).is_empty());
    }

    #[test]
    fn subsample_is_time_ordered_and_sized() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let trace = VanLanTrace::generate(
            VanLanConfig {
                rounds: 2,
                ..VanLanConfig::default()
            },
            &mut rng,
        );
        let sub = trace.subsample(300, &mut rng);
        assert_eq!(sub.len(), 300);
        for w in sub.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        // Asking for more than available returns everything.
        let all = trace.subsample(usize::MAX, &mut rng);
        assert_eq!(all.len(), trace.len());
    }

    #[test]
    fn reception_probability_is_monotone() {
        let mut prev = -0.1;
        for rss in (-100..-60).map(|x| x as f64) {
            let p = reception_probability(rss);
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= prev);
            prev = p;
        }
        assert_eq!(reception_probability(-95.0), 0.0);
        assert_eq!(reception_probability(-55.0), 1.0);
        let mid = reception_probability(-70.0);
        assert!(mid > 0.3 && mid < 0.8, "mid-range p {mid}");
    }
}
