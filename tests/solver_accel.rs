//! Acceptance tests for the ℓ1 solvers on the seed UCI campus drive.
//!
//! * The cross-window acceleration layer of the FISTA path (gap-safe
//!   screening + duality-gap stops + warm starts + Gram caching) must
//!   recover the same AP support as the unaccelerated path while
//!   spending at least 30 % fewer total ℓ1 iterations — the
//!   machine-independent reduction the `solver_accel` section of
//!   BENCH_pipeline.json reports. FISTA is pinned on both legs: the
//!   pipeline's default solver is the exact active set, which the
//!   acceleration layer does not touch.
//! * The default active-set pipeline must be as accurate as pinned
//!   FISTA on the same drive.

use crowdwifi::channel::{PathLossModel, RssReading};
use crowdwifi::core::consolidate::ApEstimate;
use crowdwifi::core::pipeline::{OnlineCs, OnlineCsConfig};
use crowdwifi::core::recovery::CsRecovery;
use crowdwifi::core::window::WindowConfig;
use crowdwifi::core::SolverAccel;
use crowdwifi::geo::{Grid, Point};
use crowdwifi::sim::{mobility, RssCollector, Scenario};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn uci_config(accel: SolverAccel) -> OnlineCsConfig {
    OnlineCsConfig {
        window: WindowConfig {
            size: 40,
            step: 10,
            ttl: f64::INFINITY,
        },
        lattice: 8.0,
        sigma_factor: 0.04,
        merge_radius: 20.0,
        accel,
        ..OnlineCsConfig::default()
    }
}

/// The pipeline with FISTA pinned as its ℓ1 solver.
fn fista_pipeline(config: OnlineCsConfig, model: PathLossModel) -> OnlineCs {
    OnlineCs::new(config, model).unwrap().with_recovery(
        CsRecovery::new(model, config.radio_range, config.detection_floor_dbm)
            .with_accel(config.accel)
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

#[test]
fn accelerated_drive_keeps_the_support_and_cuts_iterations() {
    let (scenario, readings) = campus_drive();
    let model = *scenario.pathloss();
    let baseline = fista_pipeline(uci_config(SolverAccel::disabled()), model)
        .run_detailed(&readings)
        .unwrap();
    let accel = fista_pipeline(uci_config(SolverAccel::enabled()), model)
        .run_detailed(&readings)
        .unwrap();

    // Identical recovered support: the same AP count, each accelerated
    // estimate landing on the same lattice neighborhood as its baseline
    // counterpart.
    assert_eq!(
        baseline.final_aps.len(),
        accel.final_aps.len(),
        "acceleration changed the number of recovered APs"
    );
    for b in &baseline.final_aps {
        let d = accel
            .final_aps
            .iter()
            .map(|a| a.position.distance(b.position))
            .fold(f64::INFINITY, f64::min);
        assert!(
            d < 8.0,
            "baseline AP at {} has no accelerated counterpart ({d:.1} m away)",
            b.position
        );
    }

    // The headline number: ≥ 30 % fewer total ℓ1 iterations per drive.
    let base_iters = baseline.sensing.solver_iterations as f64;
    let accel_iters = accel.sensing.solver_iterations as f64;
    assert!(base_iters > 0.0);
    let reduction = 1.0 - accel_iters / base_iters;
    assert!(
        reduction >= 0.30,
        "iteration reduction {:.1}% below the 30% floor ({} -> {})",
        100.0 * reduction,
        base_iters,
        accel_iters
    );

    // Acceleration accounting is live: screening removed columns and
    // warm starts seeded later windows.
    assert!(accel.sensing.screened_cols > 0, "screening never fired");
    assert!(accel.sensing.warm_seeded > 0, "warm starts never fired");
    assert_eq!(baseline.sensing.screened_cols, 0);
    assert_eq!(baseline.sensing.warm_seeded, 0);
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
    let config = uci_config(SolverAccel::enabled());
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
