//! End-to-end observability: the online-CS pipeline records into a
//! scoped registry, and the deterministic snapshot projection is
//! byte-identical across same-seed runs.

use crowdwifi::core::pipeline::{OnlineCs, OnlineCsConfig};
use crowdwifi::core::window::WindowConfig;
use crowdwifi::geo::Grid;
use crowdwifi::obs::Registry;
use crowdwifi::sim::{mobility, RssCollector, Scenario};
use crowdwifi_channel::RssReading;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn uci_drive() -> (Vec<RssReading>, crowdwifi::channel::PathLossModel) {
    let scenario = Scenario::uci_campus();
    let grid = Grid::new(scenario.area(), 8.0).unwrap();
    let scenario = scenario.snapped_to_grid(&grid);
    let route = mobility::uci_loop_route_with(1, 25.0);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let readings =
        RssCollector::new(&scenario).collect_along(&route, route.duration() / 181.0, &mut rng);
    (readings, *scenario.pathloss())
}

fn config() -> OnlineCsConfig {
    OnlineCsConfig {
        window: WindowConfig {
            size: 40,
            step: 20,
            ttl: f64::INFINITY,
        },
        lattice: 8.0,
        sigma_factor: 0.04,
        merge_radius: 20.0,
        ..OnlineCsConfig::default()
    }
}

#[test]
fn pipeline_metrics_cover_the_hot_path() {
    if !crowdwifi::obs::RECORDING {
        return;
    }
    let (readings, model) = uci_drive();
    let reg = Registry::new();
    let pipeline = OnlineCs::new(config(), model).unwrap().with_registry(&reg);
    let aps = pipeline.run(&readings).unwrap();
    assert!(!aps.is_empty(), "drive must recover APs");

    let snap = reg.snapshot();
    let c = &snap.counters;
    assert!(c["pipeline.windows_processed"] > 0);
    assert!(c["pipeline.hypotheses_evaluated"] > 0);
    assert!(c["pipeline.candidates_scored"] >= c["pipeline.hypotheses_evaluated"]);
    assert!(c["pipeline.group_solves"] > 0);
    assert!(c["pipeline.solver_iterations"] > c["pipeline.group_solves"]);
    // Every memo lookup either hit the cache, ran a solve, or returned
    // the trivial zero solution (a group with no reachable grid cell).
    assert!(c["pipeline.memo_lookups"] >= c["pipeline.memo_hits"] + c["pipeline.group_solves"]);
    // Consolidation saw every round's estimates.
    assert!(c["pipeline.consolidation_merges"] + c["pipeline.consolidation_new"] > 0);
    // The round timer observed one span per processed window, and is
    // flagged as timing so the deterministic projection strips it.
    let timer = &snap.histograms["pipeline.round_seconds"];
    assert!(timer.timing);
    assert_eq!(timer.count, c["pipeline.windows_processed"]);
    assert!(!snap
        .deterministic()
        .histograms
        .contains_key("pipeline.round_seconds"));
    assert!(snap
        .deterministic()
        .histograms
        .contains_key("pipeline.round_winner_k"));
}

#[test]
fn deterministic_snapshot_is_byte_identical_across_runs() {
    if !crowdwifi::obs::RECORDING {
        return;
    }
    let (readings, model) = uci_drive();
    let run = |threads| {
        let reg = Registry::new();
        let config = OnlineCsConfig {
            threads,
            ..config()
        };
        let pipeline = OnlineCs::new(config, model).unwrap().with_registry(&reg);
        pipeline.run(&readings).unwrap();
        reg.snapshot().deterministic().to_json()
    };
    // Memo and solver counters depend only on the windows, so a serial
    // and an all-cores run agree too.
    assert_eq!(run(1), run(0), "same-seed pipeline metrics diverged");
}
