//! Ablation study over CrowdWiFi's design choices (accuracy, not speed —
//! the timing side lives in `pipeline_throughput`).
//!
//! Each row disables or varies one component of the pipeline on the
//! same UCI drive and reports counting / localization error:
//!
//! * Proposition-1 orthogonalization on/off,
//! * global BIC refinement on/off (credit filter only),
//! * sliding-window size,
//! * consolidation merge radius.

use crowdwifi_bench::{campus_config, fmt_opt, lookup_errors, print_table, Row};
use crowdwifi_core::pipeline::{OnlineCs, OnlineCsConfig};
use crowdwifi_core::recovery::CsRecovery;
use crowdwifi_core::window::WindowConfig;
use crowdwifi_geo::{Grid, Point};
use crowdwifi_vanet_sim::{mobility, RssCollector, Scenario};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let scenario = Scenario::uci_campus();
    let grid = Grid::new(scenario.area(), 8.0).expect("static grid");
    let scenario = scenario.snapped_to_grid(&grid);
    let truth = scenario.ap_positions();

    // The same three two-lap drives (different fading seeds) for every
    // variant.
    let route = mobility::uci_loop_route_with(2, 25.0);
    let drives: Vec<Vec<_>> = (0..3u64)
        .map(|seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(7 + seed);
            RssCollector::new(&scenario).collect_along(&route, route.duration() / 361.0, &mut rng)
        })
        .collect();
    println!(
        "UCI drives, {} readings each x {} seeds; every variant sees identical data",
        drives[0].len(),
        drives.len()
    );

    let mut rows = Vec::new();
    let mut run = |name: &str, pipeline: &OnlineCs| {
        let mut count_err = 0.0;
        let mut dist_err = 0.0;
        let mut k_sum = 0usize;
        for readings in &drives {
            let est: Vec<Point> = pipeline
                .run(readings)
                .expect("pipeline run")
                .iter()
                .map(|e| e.position)
                .collect();
            let e = lookup_errors(&truth, &est, 8.0);
            count_err += e.counting;
            dist_err += e.mean_distance_m.unwrap_or(100.0);
            k_sum += e.estimated_k;
        }
        let n = drives.len() as f64;
        rows.push(Row {
            cells: vec![
                name.to_string(),
                format!("{:.1}", k_sum as f64 / n),
                format!("{:.2}", count_err / n),
                fmt_opt(Some(dist_err / n), 2),
            ],
        });
    };

    let model = *scenario.pathloss();

    // Baseline.
    let full = OnlineCs::new(campus_config(), model).expect("valid config");
    run("full pipeline", &full);

    // No Proposition-1 orthogonalization.
    let cfg = campus_config();
    let no_orth = OnlineCs::new(cfg, model)
        .expect("valid config")
        .with_recovery(
            CsRecovery::new(model, cfg.radio_range, cfg.detection_floor_dbm)
                .without_orthogonalization(),
        );
    run("no orthogonalization", &no_orth);

    // No global refinement (paper's plain credit filter).
    let cfg = OnlineCsConfig {
        global_refine: false,
        ..campus_config()
    };
    run(
        "credit filter only",
        &OnlineCs::new(cfg, model).expect("valid config"),
    );

    // Window-size sweep.
    for size in [20usize, 60] {
        let cfg = OnlineCsConfig {
            window: WindowConfig {
                size,
                step: 10,
                ttl: f64::INFINITY,
            },
            ..campus_config()
        };
        run(
            &format!("window = {size}"),
            &OnlineCs::new(cfg, model).expect("valid config"),
        );
    }

    // Plain FISTA in place of the default exact active-set solver: the
    // same l1 program solved to the proximal-gradient path's tolerance.
    let cfg = campus_config();
    let fista = OnlineCs::new(cfg, model)
        .expect("valid config")
        .with_recovery(
            CsRecovery::new(model, cfg.radio_range, cfg.detection_floor_dbm)
                .with_solver(CsRecovery::fallback_fista()),
        );
    run("solver = FISTA", &fista);

    // Solver family sweep (the l1 program is the paper's; OMP is the
    // greedy alternative, IRLS the classical reweighting scheme).
    for (name, solver) in [
        (
            "solver = OMP",
            crowdwifi_sparsesolve::AnySolver::default_omp(),
        ),
        (
            "solver = IRLS",
            crowdwifi_sparsesolve::AnySolver::default_irls(),
        ),
    ] {
        let cfg = campus_config();
        let variant = OnlineCs::new(cfg, model)
            .expect("valid config")
            .with_recovery(
                CsRecovery::new(model, cfg.radio_range, cfg.detection_floor_dbm)
                    .with_solver(solver),
            );
        run(name, &variant);
    }

    // Merge-radius sweep.
    for mr in [8.0, 40.0] {
        let cfg = OnlineCsConfig {
            merge_radius: mr,
            ..campus_config()
        };
        run(
            &format!("merge radius = {mr} m"),
            &OnlineCs::new(cfg, model).expect("valid config"),
        );
    }

    print_table(
        "Ablations on the UCI drive (k = 8 APs)",
        &["variant", "k_est", "count_err", "avg_err_m"],
        &rows,
    );
}
