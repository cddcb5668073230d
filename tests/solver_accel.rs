//! Acceptance test for the ℓ1 solvers on the seed UCI campus drive: the
//! default active-set pipeline must be as accurate as pinned FISTA (the
//! plain fallback solver) on the same drive, for an order of magnitude
//! less solver work — the bound the `solver_work` section of
//! BENCH_pipeline.json gates as `active_set_iteration_ratio`.

use crowdwifi::channel::{PathLossModel, RssReading};
use crowdwifi::core::consolidate::ApEstimate;
use crowdwifi::core::pipeline::{OnlineCs, OnlineCsConfig};
use crowdwifi::core::recovery::CsRecovery;
use crowdwifi::core::window::WindowConfig;
use crowdwifi::geo::{Grid, Point};
use crowdwifi::sim::{mobility, RssCollector, Scenario};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn uci_config() -> OnlineCsConfig {
    OnlineCsConfig {
        window: WindowConfig {
            size: 40,
            step: 10,
            ttl: f64::INFINITY,
        },
        lattice: 8.0,
        sigma_factor: 0.04,
        merge_radius: 20.0,
        ..OnlineCsConfig::default()
    }
}

/// The pipeline with FISTA pinned as its ℓ1 solver.
fn fista_pipeline(config: OnlineCsConfig, model: PathLossModel) -> OnlineCs {
    OnlineCs::new(config, model).unwrap().with_recovery(
        CsRecovery::new(model, config.radio_range, config.detection_floor_dbm)
            .with_solver(CsRecovery::fallback_fista()),
    )
}

/// The same seeded campus drive the throughput bench replays.
fn campus_drive() -> (Scenario, Vec<RssReading>) {
    let scenario = Scenario::uci_campus();
    let grid = Grid::new(scenario.area(), 8.0).unwrap();
    let scenario = scenario.snapped_to_grid(&grid);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let route = mobility::uci_loop_route_with(1, 25.0);
    let readings =
        RssCollector::new(&scenario).collect_along(&route, route.duration() / 361.0, &mut rng);
    assert!(readings.len() > 150, "drive too sparse: {}", readings.len());
    (scenario, readings)
}

/// Mean distance from each true AP to its nearest estimate.
fn mean_error(aps: &[ApEstimate], truth: &[Point]) -> f64 {
    let total: f64 = truth
        .iter()
        .map(|t| {
            aps.iter()
                .map(|e| e.position.distance(*t))
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    total / truth.len() as f64
}

#[test]
fn active_set_default_is_as_accurate_as_pinned_fista() {
    let (scenario, readings) = campus_drive();
    let model = *scenario.pathloss();
    let config = uci_config();
    let exact = OnlineCs::new(config, model)
        .unwrap()
        .run_detailed(&readings)
        .unwrap();
    let fista = fista_pipeline(config, model)
        .run_detailed(&readings)
        .unwrap();

    // Asserted for the drive as a whole, not per AP: the two solvers'
    // optima differ within FISTA's stopping tolerance, which is enough
    // to move individual positions by more than a lattice cell while
    // the mean error stays put.
    let truth = scenario.ap_positions();
    assert_eq!(exact.final_aps.len(), fista.final_aps.len());
    let (e_exact, e_fista) = (
        mean_error(&exact.final_aps, &truth),
        mean_error(&fista.final_aps, &truth),
    );
    assert!(
        (e_exact - e_fista).abs() <= 1.0,
        "mean error {e_exact:.2} m (active set) vs {e_fista:.2} m (FISTA)"
    );

    // Every solve certified: no fallback, nothing left unconverged, and
    // an order of magnitude less solver work.
    assert_eq!(exact.sensing.fallbacks, 0);
    assert_eq!(exact.sensing.unconverged, 0);
    assert!(
        10 * exact.sensing.solver_iterations < fista.sensing.solver_iterations,
        "{} pivots vs {} FISTA iterations",
        exact.sensing.solver_iterations,
        fista.sensing.solver_iterations
    );
}
