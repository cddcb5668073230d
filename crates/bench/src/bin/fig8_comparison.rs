//! Fig. 8 — CrowdWiFi vs LGMM, MDS and Skyhook on counting and
//! localization error.
//!
//! Paper setup (§6.1, third simulation set): 250 × 250 m area, 8 m
//! lattice (N ≈ 900 grid points), SNR 30 dB, measurements taken at `M`
//! *arbitrary reference points over the grid* (§4.2.2) — scattered
//! positions, not a continuous drive.
//!
//! * (a, b): error vs sparsity level k = 10..40 at M = 160 measurements.
//! * (c, d): error vs measurement count M = 20..160 at k = 10.
//!
//! Paper result: CrowdWiFi is near zero for k ≤ 30 and for M ≥ 40;
//! baselines are far worse (≥ 21 % counting, > 200 % localization at
//! k = 30), with Skyhook the best baseline.
//!
//! CrowdWiFi here runs the full §4+§5 stack on one vehicle's readings:
//! candidate generation from both a whole-batch CS round and windowed
//! rounds, global BIC selection, and position polish.

use crowdwifi_baselines::lgmm::Lgmm;
use crowdwifi_baselines::mds::MdsLocalizer;
use crowdwifi_baselines::skyhook::Skyhook;
use crowdwifi_baselines::ApLocalizer;
use crowdwifi_bench::{lookup_errors, print_table, Row};
use crowdwifi_channel::RssReading;
use crowdwifi_core::pipeline::{ensemble_run, OnlineCsConfig};
use crowdwifi_geo::Point;
use crowdwifi_vanet_sim::{RssCollector, Scenario};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const LATTICE: f64 = 8.0;
const TRIALS: u64 = 5;
const SIGMA_FACTOR: f64 = 0.015;

struct PointResult {
    counting: [f64; 4],
    localization: [f64; 4],
}

/// M readings at arbitrary positions over the area (the paper's RPs).
fn scattered_readings<R: Rng + ?Sized>(
    scenario: &Scenario,
    m: usize,
    rng: &mut R,
) -> Vec<RssReading> {
    let collector = RssCollector::new(scenario);
    let area = scenario.area();
    let mut readings = Vec::with_capacity(m);
    let mut t = 0.0;
    let mut attempts = 0;
    while readings.len() < m && attempts < m * 100 {
        attempts += 1;
        let p = Point::new(
            rng.random_range(area.min().x..area.max().x),
            rng.random_range(area.min().y..area.max().y),
        );
        if let Some(r) = collector.sample_at(p, t, rng) {
            readings.push(r);
        }
        t += 1.0;
    }
    readings
}

/// The full CrowdWiFi estimate via [`ensemble_run`]: batch + windowed
/// candidate generation, global BIC selection, position polish.
fn crowdwifi_estimate(scenario: &Scenario, readings: &[RssReading], k_hint: usize) -> Vec<Point> {
    let config = OnlineCsConfig {
        lattice: LATTICE,
        merge_radius: 12.0,
        sigma_factor: SIGMA_FACTOR,
        ..OnlineCsConfig::default()
    };
    ensemble_run(readings, config, *scenario.pathloss(), k_hint)
        .expect("ensemble run")
        .iter()
        .map(|e| e.position)
        .collect()
}

/// Runs all four algorithms for one (k, M) setting, averaged over
/// random scenarios. All algorithms see the same M readings.
fn run_point(k: usize, m_measurements: usize) -> PointResult {
    let mut counting = [0.0; 4];
    let mut localization = [0.0; 4];
    for trial in 0..TRIALS {
        let mut rng = ChaCha8Rng::seed_from_u64(9000 + trial);
        let scenario = Scenario::random_250(k, 25.0, &mut rng).expect("feasible AP placement");
        let truth = scenario.ap_positions();
        let readings = scattered_readings(&scenario, m_measurements, &mut rng);

        let cw = crowdwifi_estimate(&scenario, &readings, k);
        let sky = Skyhook.localize(&readings).positions;
        let lg = Lgmm::new(*scenario.pathloss(), LATTICE, 100.0, (k + 5).min(20))
            .localize(&readings)
            .positions;
        let mds = MdsLocalizer::new(*scenario.pathloss(), 12)
            .localize(&readings)
            .positions;

        for (slot, est) in [cw, sky, lg, mds].into_iter().enumerate() {
            let e = lookup_errors(&truth, &est, LATTICE);
            counting[slot] += e.counting;
            localization[slot] += e.localization.unwrap_or(5.0).min(5.0);
        }
    }
    PointResult {
        counting: counting.map(|c| c / TRIALS as f64 * 100.0),
        localization: localization.map(|l| l / TRIALS as f64 * 100.0),
    }
}

fn emit(title_count: &str, title_loc: &str, xs: &[usize], results: &[PointResult], x_name: &str) {
    let headers = [x_name, "CrowdWiFi", "Skyhook", "LGMM", "MDS"];
    let count_rows: Vec<Row> = xs
        .iter()
        .zip(results)
        .map(|(&x, r)| Row {
            cells: std::iter::once(x.to_string())
                .chain(r.counting.iter().map(|v| format!("{v:.1}")))
                .collect(),
        })
        .collect();
    print_table(title_count, &headers, &count_rows);
    let loc_rows: Vec<Row> = xs
        .iter()
        .zip(results)
        .map(|(&x, r)| Row {
            cells: std::iter::once(x.to_string())
                .chain(r.localization.iter().map(|v| format!("{v:.0}")))
                .collect(),
        })
        .collect();
    print_table(title_loc, &headers, &loc_rows);
}

fn main() {
    println!("250x250 m, 8 m lattice, scattered RPs, {TRIALS} trials per point (errors in %)");

    // (a, b): vs sparsity at M = 160.
    let ks = [10usize, 20, 30, 40];
    let res_k: Vec<PointResult> = ks.iter().map(|&k| run_point(k, 160)).collect();
    emit(
        "Fig. 8(a): counting error % vs sparsity k (M = 160)",
        "Fig. 8(b): localization error % vs sparsity k (M = 160)",
        &ks,
        &res_k,
        "k",
    );

    // (c, d): vs measurements at k = 10.
    let ms = [20usize, 40, 80, 120, 160];
    let res_m: Vec<PointResult> = ms.iter().map(|&m| run_point(10, m)).collect();
    emit(
        "Fig. 8(c): counting error % vs measurements M (k = 10)",
        "Fig. 8(d): localization error % vs measurements M (k = 10)",
        &ms,
        &res_m,
        "M",
    );

    println!("\npaper: CrowdWiFi ~0 for k<=30 and M>=40; baselines >=21% counting / >200% localization at k=30; ordering CrowdWiFi < Skyhook < LGMM/MDS");
}
