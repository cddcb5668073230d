//! The `map_serve` workload: the user-vehicle side of the loop.
//!
//! A `GeoMap` is preloaded with the `ap_map` road grid (1.2M entries in
//! a 64 km world). One thread issues `aps_ahead` corridor queries over
//! short route polylines along the grid roads, open loop at a fixed rate
//! below capacity; another absorbs round-close batches (re-observations
//! of stored APs mixed with new entries) open loop at a fixed rate and
//! runs a periodic eviction sweep. No estimator runs: the map's read path
//! and generation publishing do all the work, side by side.

use crate::openloop::{drive, Sample};
use crate::report::{peak_rss_mb, OpTally, Outcome};
use crate::stats::{mean, median, percentile, tail};
use crate::trace::{layer_self_times, Recorder};
use crate::{median_setup, Args};
use crowdwifi_channel::{ApId, PathLossModel};
use crowdwifi_core::ApEstimate;
use crowdwifi_geo::{Point, Rect, Trajectory};
use crowdwifi_geomap::{canonical_order, GeoMap, IngestStats, MapAp, MapConfig};
use crowdwifi_handoff::connectivity::{simulate, ConnectivityConfig, Policy};
use crowdwifi_handoff::db::ApDatabase;
use crowdwifi_vanet_sim::{mph_to_mps, AccessPoint, Scenario};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// World edge in meters.
const WORLD_M: f64 = 65_536.0;
/// Streets per direction.
const ROADS: usize = 128;
/// AP slots along each street.
const SLOTS: usize = 4_800;
const ROAD_GAP: f64 = WORLD_M / ROADS as f64;
const SLOT_GAP: f64 = WORLD_M / SLOTS as f64;
/// Map clock of the preload, microseconds.
const T0: u64 = 1_000_000;
/// Corridor half-width of a query.
const HALF_WIDTH: f64 = 60.0;
/// Queries per second, far below the read path's capacity. A 10 s run
/// issues 900, so its tail is the p90: on a shared 2-core machine the
/// p99 of 8000 queries swung 2x from run to run with host stalls.
const QUERY_RATE: f64 = 90.0;
/// Writer batches per second; one batch is one round close.
const BATCH_RATE: f64 = 2.0;
/// Estimates per writer batch.
const BATCH_SIZE: usize = 2_048;
/// Share of a batch that re-observes stored APs; the rest are new.
const REOBSERVED_SHARE: f64 = 0.75;
/// Map-clock advance per batch.
const BATCH_CLOCK_MICROS: u64 = 1_000_000;
/// The writer sweeps eviction after every this many batches.
const EVICT_EVERY: u64 = 10;
/// Entries still at the credit floor this long after opening are
/// evicted as transient.
const TRANSIENT_GRACE_MICROS: u64 = 5_000_000;
/// Queries checked against a brute-force scan, before and after timing.
const CHECKED_QUERIES: usize = 16;
/// Re-observed APs whose served position is compared with the truth.
const ERROR_SAMPLE: usize = 2_000;
/// The writer sleeps between batches and spins only this close to each.
const WRITER_SPIN: Duration = Duration::from_micros(300);
/// Length of the BRR user drive along one street.
const USER_DRIVE_M: f64 = 3_000.0;

/// Everything the workload feeds the program, generated from the seed.
struct Inputs {
    /// Preload estimates (the road grid), in build order.
    grid: Vec<ApEstimate>,
    routes: Vec<Vec<Point>>,
    batches: Vec<Vec<ApEstimate>>,
    /// Grid indices the batches re-observe, in batch order.
    reobserved: Vec<usize>,
    user_road: usize,
    user_start: f64,
}

fn map_config() -> MapConfig {
    let world = Rect::new(Point::new(0.0, 0.0), Point::new(WORLD_M, WORLD_M)).expect("world");
    let mut cfg = MapConfig::new(world);
    cfg.shard_level = 5; // 1024 shards
    cfg.bucket_level = 8; // 256 m buckets
    cfg.transient_grace_micros = TRANSIENT_GRACE_MICROS;
    cfg
}

fn road_line(r: usize) -> f64 {
    (r as f64 + 0.5) * ROAD_GAP
}

/// The `ap_map` road grid: per street, an AP every slot on the east–west
/// street and one on the north–south street, offset so the two families
/// rarely collapse at intersections.
fn road_grid() -> Vec<ApEstimate> {
    let mut out = Vec::with_capacity(2 * ROADS * SLOTS);
    for r in 0..ROADS {
        let line = road_line(r);
        for j in 0..SLOTS {
            let along = (j as f64 + 0.5) * SLOT_GAP;
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

/// Distance from `v` to the nearest street line shifted by `offset`.
fn off_street(v: f64, offset: f64) -> f64 {
    let k = ((v - offset) / ROAD_GAP - 0.5)
        .round()
        .clamp(0.0, (ROADS - 1) as f64);
    (v - (road_line(k as usize) + offset)).abs()
}

/// A query route: 200–400 m along a random street, half of them turning
/// onto the crossing street for another 100–200 m.
fn route(rng: &mut ChaCha8Rng) -> Vec<Point> {
    let east_west = rng.random_bool(0.5);
    let line = road_line(rng.random_range(0..ROADS)) + rng.random_range(-5.0..5.0);
    let start = rng.random_range(1_000.0..WORLD_M - 1_000.0);
    let dir = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
    let end: f64 = start + dir * rng.random_range(200.0..400.0);
    // (along the street, across it) pairs.
    let mut pts = vec![(start, line)];
    if rng.random_bool(0.5) {
        let k = (end / ROAD_GAP - 0.5)
            .round()
            .clamp(0.0, (ROADS - 1) as f64);
        let corner = road_line(k as usize) + 7.0;
        let turn = if rng.random_bool(0.5) { 1.0 } else { -1.0 };
        pts.push((corner, line));
        pts.push((corner, line + turn * rng.random_range(100.0..200.0)));
    } else {
        pts.push((end, line));
    }
    pts.into_iter()
        .map(|(a, b)| {
            if east_west {
                Point::new(a, b)
            } else {
                Point::new(b, a)
            }
        })
        .collect()
}

impl Inputs {
    fn generate(seed: u64, seconds: f64) -> Inputs {
        let grid = road_grid();
        // Entries far enough from crossing streets that the preload
        // leaves them unmerged at their true position; re-observations
        // target these. East–west entries sit at even indices.
        let clean: Vec<usize> = (0..grid.len())
            .filter(|&i| {
                let p = grid[i].position;
                if i % 2 == 0 {
                    off_street(p.x, 7.0) > 20.0
                } else {
                    off_street(p.y, 0.0) > 20.0
                }
            })
            .collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let queries = (seconds * QUERY_RATE).ceil() as usize;
        let routes = (0..queries).map(|_| route(&mut rng)).collect();
        let n_batches = (seconds * BATCH_RATE).ceil() as usize;
        let mut reobserved = Vec::new();
        let batches = (0..n_batches)
            .map(|_| {
                (0..BATCH_SIZE)
                    .map(|_| {
                        if rng.random_bool(REOBSERVED_SHARE) {
                            let i = clean[rng.random_range(0..clean.len())];
                            reobserved.push(i);
                            let p = grid[i].position;
                            ApEstimate {
                                position: Point::new(
                                    p.x + rng.random_range(-3.0..3.0),
                                    p.y + rng.random_range(-3.0..3.0),
                                ),
                                credit: 2.0,
                            }
                        } else {
                            // A new AP mid-block, far from every street;
                            // most are heard once and stay transient.
                            let bx = rng.random_range(1..ROADS) as f64 * ROAD_GAP;
                            let by = rng.random_range(1..ROADS) as f64 * ROAD_GAP;
                            ApEstimate {
                                position: Point::new(
                                    bx + rng.random_range(-100.0..100.0),
                                    by + rng.random_range(-100.0..100.0),
                                ),
                                credit: if rng.random_bool(0.25) { 2.0 } else { 1.0 },
                            }
                        }
                    })
                    .collect()
            })
            .collect();
        Inputs {
            grid,
            routes,
            batches,
            reobserved,
            user_road: rng.random_range(0..ROADS),
            user_start: rng.random_range(1_000.0..WORLD_M - USER_DRIVE_M - 1_000.0),
        }
    }

    /// A fresh map holding the preload.
    fn preload(&self) -> GeoMap {
        let map = GeoMap::new(map_config()).expect("valid map config");
        for chunk in self.grid.chunks(8_192) {
            map.absorb_estimates(T0, chunk);
        }
        map
    }
}

/// Distance from `p` to the segment `a`–`b` (projection, clamped).
fn dist_to_segment(p: Point, a: Point, b: Point) -> f64 {
    let (dx, dy) = (b.x - a.x, b.y - a.y);
    let len2 = dx * dx + dy * dy;
    if len2 <= 0.0 {
        return p.distance(a);
    }
    let t = (((p.x - a.x) * dx + (p.y - a.y) * dy) / len2).clamp(0.0, 1.0);
    p.distance(Point::new(a.x + t * dx, a.y + t * dy))
}

/// The corridor answer by brute force: every reference entry above the
/// credit floor within `half_width` of the polyline, canonically ordered.
fn brute_force(reference: &[MapAp], path: &[Point], half_width: f64, floor: f64) -> Vec<MapAp> {
    let mut out: Vec<MapAp> = reference
        .iter()
        .filter(|ap| {
            ap.credit > floor
                && path
                    .windows(2)
                    .map(|w| dist_to_segment(ap.position, w[0], w[1]))
                    .fold(f64::INFINITY, f64::min)
                    <= half_width
        })
        .copied()
        .collect();
    out.sort_by(canonical_order);
    out
}

/// Every served entry (credit above the floor).
fn served(map: &GeoMap) -> Vec<MapAp> {
    map.query_radius(
        Point::new(WORLD_M / 2.0, WORLD_M / 2.0),
        WORLD_M * std::f64::consts::SQRT_2,
    )
}

/// A seeded sample of queries must answer exactly as the brute force.
fn check_queries(map: &GeoMap, inputs: &Inputs, salt: u64) -> Result<(), String> {
    let reference = served(map);
    let floor = map.config().min_credit;
    let mut rng = ChaCha8Rng::seed_from_u64(salt);
    for _ in 0..CHECKED_QUERIES {
        let path = &inputs.routes[rng.random_range(0..inputs.routes.len())];
        let got = map.aps_ahead(path, HALF_WIDTH);
        let want = brute_force(&reference, path, HALF_WIDTH, floor);
        if got != want {
            return Err(format!(
                "aps_ahead returned {} entries where the brute-force scan finds {} on {path:?}",
                got.len(),
                want.len()
            ));
        }
    }
    Ok(())
}

/// Mean distance from a seeded sample of re-observed APs to the served
/// entry nearest their true position.
fn map_error(map: &GeoMap, inputs: &Inputs, salt: u64) -> Result<f64, String> {
    let mut rng = ChaCha8Rng::seed_from_u64(salt);
    let mut total = 0.0;
    for _ in 0..ERROR_SAMPLE {
        let i = inputs.reobserved[rng.random_range(0..inputs.reobserved.len())];
        let truth = inputs.grid[i].position;
        let nearest = map
            .query_radius(truth, map.config().merge_radius)
            .iter()
            .map(|a| a.position.distance(truth))
            .fold(f64::INFINITY, f64::min);
        if !nearest.is_finite() {
            return Err(format!(
                "no served entry near the re-observed AP at {truth:?}"
            ));
        }
        total += nearest;
    }
    Ok(total / ERROR_SAMPLE as f64)
}

/// What the user drive saw.
struct UserDrive {
    connected: f64,
    interruptions: usize,
    simulate_s: f64,
}

/// The user side: a 3 km drive along one street, BRR fed from the map's
/// corridor query, against the true APs near the street.
fn user_drive(map: &GeoMap, inputs: &Inputs, seed: u64) -> Result<UserDrive, String> {
    let line = road_line(inputs.user_road);
    let (x0, x1) = (inputs.user_start, inputs.user_start + USER_DRIVE_M);
    let path = [Point::new(x0, line), Point::new(x1, line)];
    let aps: Vec<AccessPoint> = inputs
        .grid
        .iter()
        .filter(|e| {
            let p = e.position;
            p.x >= x0 - 200.0 && p.x <= x1 + 200.0 && (p.y - line).abs() <= 200.0
        })
        .enumerate()
        .map(|(i, e)| AccessPoint::new(ApId(i as u32), e.position, 100.0))
        .collect();
    let area = Rect::new(
        Point::new(x0 - 200.0, line - 200.0),
        Point::new(x1 + 200.0, line + 200.0),
    )
    .expect("ordered drive area");
    let scenario = Scenario::new(
        "map-serve-street",
        area,
        aps,
        PathLossModel::uci_campus(),
        1.0,
    )
    .map_err(|e| e.to_string())?;
    let route =
        Trajectory::with_constant_speed(&path, mph_to_mps(25.0)).map_err(|e| e.to_string())?;
    let cfg = ConnectivityConfig::default();
    let ahead = map.aps_ahead(&path, cfg.believed_range);
    let db = ApDatabase::new(ahead.iter().map(|a| a.position).collect());
    let t0 = Instant::now();
    let trace = simulate(
        Policy::Brr,
        &scenario,
        &route,
        &db,
        cfg,
        &mut ChaCha8Rng::seed_from_u64(seed),
    )
    .map_err(|e| e.to_string())?;
    Ok(UserDrive {
        connected: trace.connectivity_fraction(),
        interruptions: trace.interruptions(),
        simulate_s: t0.elapsed().as_secs_f64(),
    })
}

/// What one open-loop phase measured.
#[derive(Default)]
struct Phase {
    queries: Vec<Sample>,
    /// From the phase start until the last query returned.
    reader_s: f64,
    results: usize,
    /// Per writer batch: from its due time until it was published.
    publish: Vec<f64>,
    absorb_s: f64,
    evict_s: f64,
    ingest: IngestStats,
    expired: u64,
}

/// Runs queries `q` and writer batches `b` open loop side by side over
/// `seconds`: the reader on this thread, the writer on one more. Batch
/// `i` is stamped with map clock `T0 + (i + 1) s`. With `rec`, every
/// request gets a root span from its due time and a child span per map
/// call.
fn phase(
    map: &GeoMap,
    inputs: &Inputs,
    q: std::ops::Range<usize>,
    b: std::ops::Range<usize>,
    seconds: f64,
    rec: Option<&mut Recorder>,
) -> Phase {
    let start = Instant::now() + Duration::from_millis(5);
    let origin = rec.as_ref().map(|r| r.origin());
    let query_period = Duration::from_secs_f64(seconds / q.len().max(1) as f64);
    let batch_period = Duration::from_secs_f64(seconds / b.len().max(1) as f64);
    let mut reader_rec = origin.map(Recorder::with_origin);
    let mut results = 0;
    let (queries, reader_end, (mut out, writer_rec)) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut w = Phase::default();
            let mut wrec = origin.map(Recorder::with_origin);
            drive(
                start,
                batch_period,
                WRITER_SPIN,
                b.len() as u64,
                |i, due| {
                    let batch = b.start + i as usize;
                    let now = T0 + (batch as u64 + 1) * BATCH_CLOCK_MICROS;
                    let t0 = Instant::now();
                    let stats = map.absorb_estimates(now, &inputs.batches[batch]);
                    let t1 = Instant::now();
                    w.publish.push((t1 - due).as_secs_f64());
                    w.absorb_s += (t1 - t0).as_secs_f64();
                    w.ingest.merged += stats.merged;
                    w.ingest.opened += stats.opened;
                    w.ingest.rejected += stats.rejected;
                    if let Some(r) = wrec.as_mut() {
                        let root = r.record("publish", None, batch as u64, due, t1);
                        r.record("geomap.absorb", Some(root), batch as u64, t0, t1);
                    }
                    if (batch as u64 + 1).is_multiple_of(EVICT_EVERY) {
                        let swept = map.evict(now);
                        let t2 = Instant::now();
                        w.evict_s += (t2 - t1).as_secs_f64();
                        w.expired += swept.expired + swept.transient;
                        if let Some(r) = wrec.as_mut() {
                            let root = r.record("maintain", None, batch as u64, t1, t2);
                            r.record("geomap.evict", Some(root), batch as u64, t1, t2);
                        }
                    }
                },
            );
            (w, wrec)
        });
        // The reader spins through the whole gap between queries: a
        // sleeping vCPU woke milliseconds late on this class of machine.
        let queries = drive(
            start,
            query_period,
            query_period,
            q.len() as u64,
            |i, due| {
                let id = q.start + i as usize;
                let t0 = Instant::now();
                let ahead = map.aps_ahead(&inputs.routes[id], HALF_WIDTH);
                let t1 = Instant::now();
                results += ahead.len();
                black_box(ahead);
                if let Some(r) = reader_rec.as_mut() {
                    let root = r.record("query", None, id as u64, due, t1);
                    r.record("geomap.query", Some(root), id as u64, t0, t1);
                }
            },
        );
        let reader_end = Instant::now();
        (
            queries,
            reader_end,
            writer.join().expect("writer thread panicked"),
        )
    });
    out.reader_s = reader_end.duration_since(start).as_secs_f64();
    out.queries = queries;
    out.results = results;
    if let Some(rec) = rec {
        for r in [reader_rec, writer_rec].into_iter().flatten() {
            rec.append(r);
        }
    }
    out
}

/// Runs `map_serve` and returns its result.
pub fn run(args: &Args) -> Outcome {
    let (setup_s, (inputs, map)) = median_setup(|| {
        let inputs = Inputs::generate(args.seed, args.seconds);
        let map = inputs.preload();
        (inputs, map)
    });
    let (nq, nb) = (inputs.routes.len(), inputs.batches.len());
    println!(
        "map_serve: seed {}, nproc {}, {} stored APs; {nq} queries and {nb} batches of {BATCH_SIZE}, one reader and one writer thread",
        args.seed,
        crate::nproc(),
        map.len(),
    );
    let mut checks = Vec::new();
    if let Err(e) = check_queries(&map, &inputs, args.seed ^ 0x5eed) {
        checks.push(format!("before timing: {e}"));
    }
    let mut tally = OpTally::default();
    tally.completed(nq + nb);
    let mut values: Vec<(&'static str, f64)> = Vec::new();
    if args.trace {
        // Untraced first half, traced second half.
        let half = args.seconds / 2.0;
        let untraced = phase(&map, &inputs, 0..nq / 2, 0..nb / 2, half, None);
        let mut rec = Recorder::new();
        let traced = phase(&map, &inputs, nq / 2..nq, nb / 2..nb, half, Some(&mut rec));
        let roots: Vec<usize> = (0..rec.spans().len())
            .filter(|&i| rec.spans()[i].parent.is_none())
            .collect();
        let roots_s: f64 = roots.iter().map(|&i| rec.spans()[i].duration()).sum();
        let geomap_s = layer_self_times(rec.spans(), &roots)
            .get("geomap")
            .copied()
            .unwrap_or(0.0);
        let service = |p: &Phase| mean(&p.queries.iter().map(|s| s.service).collect::<Vec<_>>());
        let overhead = service(&traced).unwrap_or(0.0) - service(&untraced).unwrap_or(0.0);
        let share = geomap_s / roots_s.max(f64::MIN_POSITIVE);
        println!(
            "map_serve trace: {} spans; geomap self {geomap_s:.4} s, {:.1}% of the request spans ({roots_s:.4} s); trace.overhead_s {overhead:+.3e} per query",
            rec.spans().len(),
            100.0 * share,
        );
        crate::write_trace(&rec, args);
        let ingested = traced.ingest.merged + traced.ingest.opened;
        let queue: Vec<f64> = traced.queries.iter().map(|s| s.queue_wait).collect();
        let late: Vec<f64> = traced.queries.iter().map(|s| s.generator_late).collect();
        values.extend([
            ("geomap.absorb_s", traced.absorb_s),
            (
                "geomap.publish_p50_ms",
                median(&traced.publish).unwrap_or(0.0) * 1e3,
            ),
            (
                "geomap.merge_ratio",
                traced.ingest.merged as f64 / ingested.max(1) as f64,
            ),
            ("geomap.rejected", traced.ingest.rejected as f64),
            ("geomap.entries", map.len() as f64),
            ("geomap.evict_s", traced.evict_s),
            ("geomap.expired", traced.expired as f64),
            (
                "geomap.query_s",
                traced.queries.iter().map(|s| s.service).sum::<f64>(),
            ),
            ("geomap.queue_wait_us", mean(&queue).unwrap_or(0.0) * 1e6),
            (
                "geomap.results_per_query",
                traced.results as f64 / traced.queries.len().max(1) as f64,
            ),
            ("geomap.share", share),
            ("ops.fail_frac", tally.fail_frac()),
            ("gen.readings", (inputs.grid.len() + nb * BATCH_SIZE) as f64),
            (
                "gen.late_p99_us",
                percentile(&late, 99.0).unwrap_or(0.0) * 1e6,
            ),
            ("trace.overhead_s", overhead),
        ]);
    } else {
        let p = phase(&map, &inputs, 0..nq, 0..nb, args.seconds, None);
        let latency: Vec<f64> = p.queries.iter().map(Sample::latency).collect();
        let (tail_p, tail_s) = tail(&latency).unwrap_or((50.0, f64::NAN));
        let late: Vec<f64> = p.queries.iter().map(|s| s.generator_late).collect();
        println!(
            "map_serve: query latency p50 {:.2} us, p{tail_p} {:.2} us over {} queries, generator late p99 {:.2} us; publish p50 {:.3} ms over {} batches",
            median(&latency).unwrap_or(f64::NAN) * 1e6,
            tail_s * 1e6,
            latency.len(),
            percentile(&late, 99.0).unwrap_or(f64::NAN) * 1e6,
            median(&p.publish).unwrap_or(f64::NAN) * 1e3,
            p.publish.len(),
        );
        values.extend([
            ("ops_per_s", latency.len() as f64 / p.reader_s),
            ("latency_p50_ms", median(&latency).unwrap_or(f64::NAN) * 1e3),
            ("latency_tail_ms", tail_s * 1e3),
            ("completed_frac", 1.0 - tally.fail_frac()),
            ("setup_s", setup_s),
        ]);
        match map_error(&map, &inputs, args.seed ^ 0xe77) {
            Ok(e) => values.push(("map_error_m", e)),
            Err(e) => checks.push(e),
        }
    }
    if let Err(e) = check_queries(&map, &inputs, args.seed ^ 0xc0de) {
        checks.push(format!("after timing: {e}"));
    }
    match user_drive(&map, &inputs, args.seed) {
        Ok(u) if args.trace => values.extend([
            ("handoff.simulate_s", u.simulate_s),
            ("handoff.interruptions", u.interruptions as f64),
        ]),
        Ok(u) => values.push(("brr_connected_frac", u.connected)),
        Err(e) => checks.push(format!("user drive failed: {e}")),
    }
    if !args.trace {
        values.push(("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN)));
    }
    let mut out = Outcome::new(tally, &checks);
    for (name, value) in values {
        out.set(name, value);
    }
    crate::report_checks(&checks);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let (a, b) = (Inputs::generate(3, 1.0), Inputs::generate(3, 1.0));
        assert_eq!(a.routes, b.routes);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.reobserved, b.reobserved);
        assert_ne!(a.routes, Inputs::generate(4, 1.0).routes);
        assert_eq!(a.routes.len(), QUERY_RATE as usize);
    }

    #[test]
    fn brute_force_matches_the_corridor_query_on_a_small_map() {
        let world = Rect::new(Point::new(0.0, 0.0), Point::new(1024.0, 1024.0)).unwrap();
        let map = GeoMap::new(MapConfig::new(world)).unwrap();
        let est = |x, y, credit| ApEstimate {
            position: Point::new(x, y),
            credit,
        };
        map.absorb_estimates(
            1,
            &[
                est(100.0, 210.0, 2.0),
                est(500.0, 190.0, 2.0),
                est(300.0, 500.0, 9.0),
                est(700.0, 200.0, 0.5),
            ],
        );
        let route = [Point::new(0.0, 200.0), Point::new(900.0, 200.0)];
        let reference = map.query_radius(Point::new(512.0, 512.0), 2000.0);
        let want = brute_force(&reference, &route, 50.0, map.config().min_credit);
        assert_eq!(want.len(), 2);
        assert_eq!(map.aps_ahead(&route, 50.0), want);
    }
}
