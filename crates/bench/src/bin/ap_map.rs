//! Geo-sharded AP map benchmarks: sustained lookup throughput and
//! latency under concurrent ingest at 1M+ stored APs.
//!
//! The map under test is the global [`GeoMap`]: geohash-bucketed,
//! shard-per-prefix, with an epoch read path (readers clone a shard's
//! published generation `Arc` and never block on ingest). Four
//! questions, one bench:
//!
//! 1. How fast does consolidation ingest run — founding inserts and
//!    merge-heavy re-observation passes?
//! 2. How many radius lookups per second does the read path sustain
//!    **while a writer thread continuously re-ingests the estimate
//!    stream** (target ≥ 1M lookups/s)?
//! 3. What do lookup latency percentiles look like with ingest off vs
//!    on (target p99 ≤ 10 µs, on/off ratio ≤ 2×)? Latency is sampled
//!    in batches of 64 lookups per timing read so a scheduler
//!    preemption poisons under 1 % of samples on a single-core box.
//! 4. Does TTL eviction behave at scale — a full sweep over the loaded
//!    map with half the entries refreshed must expire the stale half?
//!
//! A final end-to-end check feeds the VanLan BRR handoff policy from
//! the map's corridor query and asserts the connectivity trace is
//! identical to the canonically-ordered static AP list on the same
//! seed (`brr_identical` in the JSON).
//!
//! Writes `BENCH_map.json` at the repo root (or `$BENCH_OUT_DIR`).
//! Run with `cargo run -p crowdwifi-bench --release --bin ap_map`.

use crowdwifi_bench::{num, obj, smoke_mode, Report};
use crowdwifi_core::ApEstimate;
use crowdwifi_geo::{Point, Rect};
use crowdwifi_geomap::{GeoMap, MapConfig};
use crowdwifi_handoff::connectivity::{simulate, ConnectivityConfig, Policy};
use crowdwifi_handoff::db::ApDatabase;
use crowdwifi_vanet_sim::mobility::vanlan_round;
use crowdwifi_vanet_sim::Scenario;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// World edge in meters: 64 km square, a metro-scale road network.
const WORLD_M: f64 = 65_536.0;
/// Lookup radius: the believed WiFi association range neighborhood.
const LOOKUP_RADIUS_M: f64 = 60.0;
/// Lookups per latency sample; one `Instant` read per batch.
const LAT_BATCH: usize = 64;
/// Timed ingest passes, each on a fresh map; the ingest rows report
/// the median pass.
const INGEST_PASSES: usize = 5;

/// Deterministic road-grid AP layout: `roads` streets per direction,
/// `slots` APs along each, horizontal and vertical offset from each
/// other so intersections rarely collapse into one consolidated entry.
fn road_grid(roads: usize, slots: usize) -> Vec<ApEstimate> {
    let road_gap = WORLD_M / roads as f64;
    let slot_gap = WORLD_M / slots as f64;
    let mut out = Vec::with_capacity(2 * roads * slots);
    for r in 0..roads {
        let line = (r as f64 + 0.5) * road_gap;
        for j in 0..slots {
            let along = (j as f64 + 0.5) * slot_gap;
            out.push(ApEstimate {
                position: Point::new(along, line),
                credit: 2.0,
            });
            out.push(ApEstimate {
                position: Point::new(line + 7.0, along + 5.0),
                credit: 2.0,
            });
        }
    }
    out
}

/// Query stream shaped like user-vehicle drives: each run of
/// `DRIVE_LEN` consecutive centers walks one road with lateral jitter —
/// a vehicle polling "what's around me" along its route, which is how
/// the paper's user-vehicles actually hit the map. Drives start on
/// random roads, so the stream still sweeps the whole world.
fn query_centers(roads: usize, slots: usize, n: usize) -> Vec<Point> {
    const DRIVE_LEN: usize = 256;
    let road_gap = WORLD_M / roads as f64;
    let slot_gap = WORLD_M / slots as f64;
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let mut out = Vec::with_capacity(n + DRIVE_LEN);
    while out.len() < n {
        let line = (rng.random_range(0..roads) as f64 + 0.5) * road_gap;
        let start: usize = rng.random_range(0..slots);
        let horizontal = rng.random_range(0..2u32) == 0;
        for j in 0..DRIVE_LEN {
            let along = (((start + j) % slots) as f64 + 0.5) * slot_gap;
            let lat: f64 = rng.random_range(-20.0..20.0);
            let p = if horizontal {
                Point::new(along, line + lat)
            } else {
                Point::new(line + 7.0 + lat, along + 5.0)
            };
            out.push(Point::new(p.x.clamp(0.0, WORLD_M), p.y.clamp(0.0, WORLD_M)));
        }
    }
    out.truncate(n);
    out
}

/// Runs `batches × LAT_BATCH` lookups, returning (lookups/sec, p50 µs,
/// p99 µs) with per-lookup latency sampled per batch.
fn run_lookups(map: &GeoMap, centers: &[Point], batches: usize) -> (f64, f64, f64) {
    let mut lat_us: Vec<f64> = Vec::with_capacity(batches);
    let mut hits = 0usize;
    let mut i = 0usize;
    let start = Instant::now();
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..LAT_BATCH {
            hits += map.count_near(centers[i], LOOKUP_RADIUS_M);
            i = (i + 1) % centers.len();
        }
        lat_us.push(t.elapsed().as_secs_f64() * 1e6 / LAT_BATCH as f64);
    }
    let total = start.elapsed().as_secs_f64();
    black_box(hits);
    lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = lat_us[lat_us.len() / 2];
    let p99 = lat_us[lat_us.len() * 99 / 100];
    ((batches * LAT_BATCH) as f64 / total, p50, p99)
}

/// The end-to-end handoff check: map-fed BRR must equal the static
/// canonical list on the same seed.
fn brr_identity_holds() -> bool {
    let scenario = Scenario::vanlan();
    let route = vanlan_round(0.0);
    let cfg = ConnectivityConfig::default();
    let map = GeoMap::new(MapConfig::new(scenario.area())).expect("vanlan map");
    for round in 0u64..2 {
        let estimates: Vec<ApEstimate> = scenario
            .ap_positions()
            .into_iter()
            .map(|position| ApEstimate {
                position,
                credit: 2.0,
            })
            .collect();
        map.absorb_estimates((round + 1) * 60_000_000, &estimates);
    }
    let path: Vec<Point> = route.waypoints().iter().map(|w| w.position).collect();
    let ahead = map.aps_ahead(&path, cfg.believed_range);
    let map_db = ApDatabase::new(ahead.iter().map(|a| a.position).collect());
    let mut baseline = scenario.ap_positions();
    baseline.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
    let static_db = ApDatabase::new(baseline);
    let from_map = simulate(
        Policy::Brr,
        &scenario,
        &route,
        &map_db,
        cfg,
        &mut ChaCha8Rng::seed_from_u64(9),
    )
    .expect("map-fed simulation");
    let from_static = simulate(
        Policy::Brr,
        &scenario,
        &route,
        &static_db,
        cfg,
        &mut ChaCha8Rng::seed_from_u64(9),
    )
    .expect("static simulation");
    from_map == from_static
}

/// The `notes` paragraph of `BENCH_map.json`.
const NOTES: &str = "The map stores a deterministic metro-scale road grid of consolidated AP \
    entries (merge radius keeps neighbors distinct at the grid spacing). Lookups are \
    allocation-free count_near radius probes along drive-shaped query streams (256 consecutive \
    jittered positions per road drive, drives starting on random roads — the spatial pattern of \
    user-vehicles polling along their routes); the read path clones each touched shard's \
    published generation Arc under an O(1) read lock, so a concurrent writer re-ingesting the \
    full estimate stream (merge-heavy consolidation plus generation republish per batch) never \
    blocks readers. The concurrent writer is paced at a fixed 250k-estimates/s arrival rate — a \
    load generator modeling transports draining round closes — with full-speed ingest throughput \
    reported separately by the build and re-observe rows, each the median of timed_passes passes on \
    fresh maps. Latency is sampled per 64-lookup batch \
    — one clock read per batch — so on a single-core box a scheduler preemption poisons well \
    under 1% of samples and the p99 reflects the read path, not the timeslice. The eviction sweep \
    refreshes every other estimate at a late timestamp and then evicts at refresh+TTL, expiring \
    exactly the unrefreshed entries in one full-map generation rebuild. brr_identical re-runs the \
    VanLan BRR policy fed from the map's corridor query (aps_ahead) against the \
    canonically-ordered static ground-truth list on the same seed and requires identical \
    connectivity traces end to end.";

fn main() {
    let smoke = smoke_mode();
    let (roads, slots) = if smoke { (64, 2_000) } else { (128, 4_800) };
    let batches = if smoke { 16_384 } else { 65_536 };
    let world = Rect::new(Point::new(0.0, 0.0), Point::new(WORLD_M, WORLD_M)).unwrap();
    let mut cfg = MapConfig::new(world);
    cfg.shard_level = 5; // 1024 shards
    cfg.bucket_level = 8; // 256 m buckets
    let bucket_edge = WORLD_M / (1u64 << cfg.bucket_level) as f64;
    let ttl = cfg.ttl_micros;

    let estimates = road_grid(roads, slots);
    println!(
        "ap_map: {} estimates on a {roads}x2-road grid, {} lookup batches of {LAT_BATCH}{} ...",
        estimates.len(),
        batches,
        if smoke { " (smoke)" } else { "" }
    );

    // --- Ingest: founding build, then a merge-heavy re-observation ----
    // One timed pass swings ±15% run to run on a shared machine, so
    // each row is the median of INGEST_PASSES passes on fresh maps; the
    // last map built serves the lookup phase.
    let t_base = 1_000_000u64;
    let ingest = |map: &GeoMap, now: u64| {
        let start = Instant::now();
        for chunk in estimates.chunks(8_192) {
            map.absorb_estimates(now, chunk);
        }
        estimates.len() as f64 / start.elapsed().as_secs_f64()
    };
    let mut map = GeoMap::new(cfg).expect("map config");
    let (mut build_rates, mut merge_rates) = (Vec::new(), Vec::new());
    for pass in 0..INGEST_PASSES {
        if pass > 0 {
            map = GeoMap::new(cfg).expect("map config");
        }
        build_rates.push(ingest(&map, t_base));
        merge_rates.push(ingest(&map, t_base + 1_000));
    }
    let median = |mut rates: Vec<f64>| {
        rates.sort_by(f64::total_cmp);
        rates[rates.len() / 2]
    };
    let (build_rate, merge_rate) = (median(build_rates), median(merge_rates));
    let stored = map.len();
    let stats = map.stats();

    // --- Lookups: ingest off, then with a concurrent writer -----------
    let centers = query_centers(roads, slots, 65_536);
    run_lookups(&map, &centers, batches / 8); // warm-up
    let (off_rate, off_p50, off_p99) = run_lookups(&map, &centers, batches);

    // The writer is a fixed-rate load generator: it re-ingests the
    // estimate stream in chunks paced to INGEST_TARGET_PER_SEC (a heavy
    // but realistic arrival rate — a fleet round delivering a quarter
    // million estimates every second), sleeping off the slack between
    // chunks exactly like a transport draining round closes would.
    const INGEST_TARGET_PER_SEC: f64 = 250_000.0;
    let stop = AtomicBool::new(false);
    let passes = AtomicU64::new(0);
    let ingested = AtomicU64::new(0);
    let (on_rate, on_p50, on_p99, concurrent_ingest_rate) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut pass = 0u64;
            let start = Instant::now();
            'outer: loop {
                pass += 1;
                let now = t_base + 2_000 + pass * 1_000;
                for chunk in estimates.chunks(16_384) {
                    if stop.load(Ordering::Relaxed) {
                        break 'outer;
                    }
                    map.absorb_estimates(now, chunk);
                    let total = ingested.fetch_add(chunk.len() as u64, Ordering::Relaxed)
                        + chunk.len() as u64;
                    let due = total as f64 / INGEST_TARGET_PER_SEC;
                    let elapsed = start.elapsed().as_secs_f64();
                    if due > elapsed {
                        std::thread::sleep(std::time::Duration::from_secs_f64(due - elapsed));
                    }
                }
                passes.store(pass, Ordering::Relaxed);
            }
            ingested.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
        });
        let (rate, p50, p99) = run_lookups(&map, &centers, batches);
        stop.store(true, Ordering::Relaxed);
        let ingest_rate = writer.join().expect("writer thread");
        (rate, p50, p99, ingest_rate)
    });
    let p99_ratio = on_p99 / off_p99.max(1e-9);

    // --- Eviction: refresh half, sweep the rest -----------------------
    let last_pass = passes.load(Ordering::Relaxed) + 2;
    let t_refresh = t_base + 2_000 + last_pass * 1_000 + ttl / 2;
    let refreshed: Vec<ApEstimate> = estimates.iter().step_by(2).copied().collect();
    for chunk in refreshed.chunks(8_192) {
        map.absorb_estimates(t_refresh, chunk);
    }
    let before = map.len();
    let start = Instant::now();
    let sweep = map.evict(t_refresh + ttl);
    let sweep_secs = start.elapsed().as_secs_f64();
    let sweep_rate = before as f64 / sweep_secs;

    // --- Handoff: map-fed BRR vs static list --------------------------
    let brr_identical = brr_identity_holds();

    let min_stored = if smoke { 200_000 } else { 1_000_000 };
    assert!(
        stored >= min_stored,
        "stored {stored} APs, need ≥ {min_stored}"
    );
    assert!(
        on_rate >= 1_000_000.0,
        "sustained {on_rate:.0} lookups/s under ingest missed the ≥1M target"
    );
    assert!(
        on_p99 <= 10.0,
        "lookup p99 {on_p99:.3} µs under ingest missed the ≤10 µs target"
    );
    assert!(
        p99_ratio <= 2.0,
        "p99 ratio {p99_ratio:.2}x missed the ≤2x ingest-on/off target"
    );
    assert!(brr_identical, "map-fed BRR diverged from the static list");

    Report::new("ap_map", 8)
        .field(
            "map",
            obj([
                ("stored_aps", stored.into()),
                ("shards", map.shard_count().into()),
                ("buckets", stats.buckets.into()),
                ("bucket_edge_m", num(bucket_edge, 1)),
                ("world_edge_m", num(WORLD_M, 0)),
                ("lookup_radius_m", num(LOOKUP_RADIUS_M, 0)),
            ]),
        )
        .field(
            "ingest",
            obj([
                ("timed_passes", INGEST_PASSES.into()),
                ("build_estimates_per_sec", num(build_rate, 0)),
                ("reobserve_estimates_per_sec", num(merge_rate, 0)),
                (
                    "concurrent_ingest_estimates_per_sec",
                    num(concurrent_ingest_rate, 0),
                ),
                ("concurrent_ingest_target_per_sec", 250_000u64.into()),
            ]),
        )
        .field(
            "lookup",
            obj([
                ("latency_batch", LAT_BATCH.into()),
                ("batches", batches.into()),
                ("lookups_per_sec_ingest_off", num(off_rate, 0)),
                ("p50_us_ingest_off", num(off_p50, 4)),
                ("p99_us_ingest_off", num(off_p99, 4)),
                ("lookups_per_sec_with_ingest", num(on_rate, 0)),
                ("p50_us_with_ingest", num(on_p50, 4)),
                ("p99_us_with_ingest", num(on_p99, 4)),
                ("p99_ratio_on_off", num(p99_ratio, 4)),
                ("target_lookups_per_sec_with_ingest", 1_000_000u64.into()),
                ("target_p99_us_with_ingest", num(10.0, 1)),
                ("target_p99_ratio_on_off", num(2.0, 1)),
            ]),
        )
        .field(
            "eviction",
            obj([
                ("entries_before", before.into()),
                ("expired", sweep.expired.into()),
                ("transient", sweep.transient.into()),
                ("remaining", sweep.remaining.into()),
                ("sweep_secs", num(sweep_secs, 4)),
                ("sweep_entries_per_sec", num(sweep_rate, 0)),
            ]),
        )
        .field("handoff", obj([("brr_identical", brr_identical.into())]))
        .notes(NOTES)
        .write("BENCH_map.json");
}
