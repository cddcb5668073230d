//! Integration: the Fig. 8 algorithm ordering on a small instance —
//! CrowdWiFi's full stack against the three baselines on identical data.

use crowdwifi::baselines::lgmm::Lgmm;
use crowdwifi::baselines::skyhook::Skyhook;
use crowdwifi::baselines::ApLocalizer;
use crowdwifi::channel::RssReading;
use crowdwifi::core::metrics::mean_distance_error;
use crowdwifi::core::pipeline::{ensemble_run, OnlineCsConfig};
use crowdwifi::geo::Point;
use crowdwifi::sim::{RssCollector, Scenario};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn scattered_readings(scenario: &Scenario, m: usize, rng: &mut ChaCha8Rng) -> Vec<RssReading> {
    let collector = RssCollector::new(scenario);
    let area = scenario.area();
    let mut out = Vec::new();
    let mut t = 0.0;
    while out.len() < m {
        let p = Point::new(
            rng.random_range(area.min().x..area.max().x),
            rng.random_range(area.min().y..area.max().y),
        );
        if let Some(r) = collector.sample_at(p, t, rng) {
            out.push(r);
        }
        t += 1.0;
    }
    out
}

#[test]
fn crowdwifi_beats_lgmm_on_sparse_measurements() {
    // k = 6 APs, 80 scattered measurements: the low-M regime where the
    // paper's CS advantage is largest.
    let mut cw_err = 0.0;
    let mut lgmm_err = 0.0;
    let mut sky_err = 0.0;
    let trials = 3;
    for trial in 0..trials {
        let mut rng = ChaCha8Rng::seed_from_u64(50 + trial);
        let scenario = Scenario::random_250(6, 40.0, &mut rng).unwrap();
        let truth = scenario.ap_positions();
        let readings = scattered_readings(&scenario, 80, &mut rng);

        let config = OnlineCsConfig {
            lattice: 8.0,
            merge_radius: 12.0,
            sigma_factor: 0.015,
            ..OnlineCsConfig::default()
        };
        let cw: Vec<Point> = ensemble_run(&readings, config, *scenario.pathloss(), 6)
            .unwrap()
            .iter()
            .map(|e| e.position)
            .collect();
        let lg = Lgmm::new(*scenario.pathloss(), 8.0, 100.0, 10)
            .localize(&readings)
            .positions;
        let sky = Skyhook.localize(&readings).positions;

        cw_err += mean_distance_error(&truth, &cw).unwrap_or(100.0);
        lgmm_err += mean_distance_error(&truth, &lg).unwrap_or(100.0);
        sky_err += mean_distance_error(&truth, &sky).unwrap_or(100.0);
    }
    // CrowdWiFi must beat the blind LGMM baseline comfortably; Skyhook
    // (which reads BSSIDs) sets context but is not required to lose.
    assert!(
        cw_err < lgmm_err,
        "CrowdWiFi {cw_err:.1} m should beat LGMM {lgmm_err:.1} m (Skyhook at {sky_err:.1} m)"
    );
    assert!(cw_err / trials as f64 <= 25.0, "CrowdWiFi error too large");
}
