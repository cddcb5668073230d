//! Map-level behavior pins: consolidation equivalence against the
//! reference `Consolidator`, TTL-eviction determinism under a seeded
//! clock, and snapshot → compact → recover byte-identity.

use crowdwifi_core::consolidate::Consolidator;
use crowdwifi_core::ApEstimate;
use crowdwifi_geo::{Point, Rect};
use crowdwifi_geomap::{canonical_order, GeoMap, MapConfig};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const ROUND_MICROS: u64 = 60_000_000;

fn cfg(shard_level: u8) -> MapConfig {
    let world = Rect::new(Point::new(0.0, 0.0), Point::new(2048.0, 2048.0)).unwrap();
    let mut cfg = MapConfig::new(world);
    cfg.shard_level = shard_level;
    cfg.bucket_level = 6; // 32 m buckets
    cfg.ttl_micros = 5 * ROUND_MICROS;
    cfg.transient_grace_micros = 2 * ROUND_MICROS;
    cfg
}

/// A deterministic multi-round estimate schedule: `aps` home positions
/// re-observed with jitter, plus occasional one-off transients.
fn schedule(seed: u64, rounds: usize, aps: usize) -> Vec<Vec<ApEstimate>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let homes: Vec<Point> = (0..aps)
        .map(|_| {
            Point::new(
                rng.random_range(100.0..1900.0),
                rng.random_range(100.0..1900.0),
            )
        })
        .collect();
    (0..rounds)
        .map(|_| {
            let mut batch = Vec::new();
            for &home in &homes {
                if rng.random_range(0.0..1.0) < 0.8 {
                    batch.push(ApEstimate {
                        position: Point::new(
                            home.x + rng.random_range(-3.0..3.0),
                            home.y + rng.random_range(-3.0..3.0),
                        ),
                        credit: rng.random_range(0.5..2.0),
                    });
                }
            }
            if rng.random_range(0.0..1.0) < 0.5 {
                batch.push(ApEstimate {
                    position: Point::new(
                        rng.random_range(0.0..2048.0),
                        rng.random_range(0.0..2048.0),
                    ),
                    credit: 0.6,
                });
            }
            batch
        })
        .collect()
}

/// Distance from `p` to the polyline `path` (a single point is a disc
/// centre), computed independently of the map's corridor code.
fn distance_to_path(p: Point, path: &[Point]) -> f64 {
    if let [only] = path {
        return p.distance(*only);
    }
    path.windows(2)
        .map(|w| {
            let (a, b) = (w[0], w[1]);
            let (dx, dy) = (b.x - a.x, b.y - a.y);
            let len2 = dx * dx + dy * dy;
            if len2 <= 0.0 {
                return p.distance(a);
            }
            let t = (((p.x - a.x) * dx + (p.y - a.y) * dy) / len2).clamp(0.0, 1.0);
            p.distance(Point::new(a.x + t * dx, a.y + t * dy))
        })
        .fold(f64::INFINITY, f64::min)
}

fn run_schedule(map: &GeoMap, batches: &[Vec<ApEstimate>]) {
    for (round, batch) in batches.iter().enumerate() {
        map.absorb_estimates((round as u64 + 1) * ROUND_MICROS, batch);
    }
}

/// Ingest is the §4.3.6 fold in input order, and a merge that moves an
/// entry across a shard border never merges it again, so every shard
/// layout replays the reference consolidator exactly. The 400-AP
/// schedules are dense enough that merges drag entries across shard
/// borders next to other entries.
#[test]
fn single_shard_map_matches_the_reference_consolidator() {
    let sparse = [3u64, 17, 99].map(|seed| (seed, 40));
    for (seed, aps) in sparse.into_iter().chain((0..8).map(|seed| (seed, 400))) {
        let batches = schedule(seed, 6, aps);
        let mut reference = Consolidator::new(cfg(0).merge_radius);
        for batch in &batches {
            for e in batch {
                reference.merge_one(e.position, e.credit);
            }
        }
        let mut expect: Vec<(f64, f64, f64)> = reference
            .estimates()
            .iter()
            .map(|e| (e.position.x, e.position.y, e.credit))
            .collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for shard_level in 0..=3 {
            let map = GeoMap::new(cfg(shard_level)).unwrap();
            run_schedule(&map, &batches);
            let mut got: Vec<(f64, f64, f64)> = Vec::new();
            map.for_each_near(Point::new(1024.0, 1024.0), 1e9, |ap| {
                got.push((ap.position.x, ap.position.y, ap.credit));
            });
            got.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(
                got, expect,
                "map must replay §4.3.6 consolidation exactly (seed {seed}, {aps} APs, shard level {shard_level})"
            );
        }
    }
}

#[test]
fn entry_ids_do_not_depend_on_shard_layout() {
    for seed in [3u64, 17, 99] {
        let batches = schedule(seed, 6, 40);
        let served = |shard_level: u8| {
            let map = GeoMap::new(cfg(shard_level)).unwrap();
            run_schedule(&map, &batches);
            map.query_radius(Point::new(1024.0, 1024.0), 2048.0)
        };
        let flat = served(0);
        assert!(!flat.is_empty());
        assert_eq!(
            flat,
            served(3),
            "served entries, ids included, differ across shard layouts (seed {seed})"
        );
    }
}

#[test]
fn ttl_eviction_is_deterministic_under_a_seeded_clock() {
    // Two maps fed the identical seeded schedule evict identically and
    // end up byte-identical — the virtual clock is the only time
    // source.
    let batches = schedule(42, 8, 60);
    let run = |shard_level: u8| {
        let map = GeoMap::new(cfg(shard_level)).unwrap();
        run_schedule(&map, &batches);
        let stats = map.evict(9 * ROUND_MICROS);
        (stats, map.snapshot())
    };
    let (stats_a, bytes_a) = run(2);
    let (stats_b, bytes_b) = run(2);
    assert_eq!(stats_a, stats_b);
    assert_eq!(bytes_a, bytes_b);

    // Eviction counters are also layout-independent: total dropped and
    // remaining match across shard layouts (entry sets are equal).
    let (stats_c, _) = run(0);
    assert_eq!(
        stats_a.expired + stats_a.transient + stats_a.remaining,
        stats_c.expired + stats_c.transient + stats_c.remaining,
    );

    // Re-running the sweep at the same clock is a fixed point.
    let map = GeoMap::new(cfg(2)).unwrap();
    run_schedule(&map, &batches);
    let first = map.evict(9 * ROUND_MICROS);
    let again = map.evict(9 * ROUND_MICROS);
    assert_eq!(again.expired, 0);
    assert_eq!(again.transient, 0);
    assert_eq!(again.remaining, first.remaining);
}

#[test]
fn transients_survive_within_grace_then_fall() {
    let map = GeoMap::new(cfg(1)).unwrap();
    map.absorb_estimates(
        ROUND_MICROS,
        &[ApEstimate {
            position: Point::new(500.0, 500.0),
            credit: 0.8,
        }],
    );
    // Inside the 2-round grace: kept.
    let s = map.evict(2 * ROUND_MICROS);
    assert_eq!((s.transient, s.remaining), (0, 1));
    // Past the grace with credit still at/below the floor: dropped.
    let s = map.evict(4 * ROUND_MICROS);
    assert_eq!((s.transient, s.remaining), (1, 0));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn snapshot_compact_recover_is_byte_identical(
        seed in 0u64..1000,
        shard_level in 0u8..=3,
        rounds in 1usize..6,
    ) {
        let batches = schedule(seed, rounds, 30);
        let map = GeoMap::new(cfg(shard_level)).unwrap();
        run_schedule(&map, &batches);

        // Plain round-trip: recover reproduces the bytes exactly.
        let bytes = map.snapshot();
        let recovered = GeoMap::recover(&bytes).unwrap();
        prop_assert_eq!(recovered.snapshot(), bytes.clone());

        // Compaction round-trip: evict + snapshot on the live map
        // equals the snapshot of the recovered-then-evicted copy.
        let now = (rounds as u64 + 4) * ROUND_MICROS;
        let twin = GeoMap::recover(&bytes).unwrap();
        let (stats_live, compacted) = map.compact_snapshot(now);
        let stats_twin = twin.evict(now);
        prop_assert_eq!(stats_live, stats_twin);
        prop_assert_eq!(twin.snapshot(), compacted.clone());

        // And the compacted bytes recover to the same entry count.
        let back = GeoMap::recover(&compacted).unwrap();
        prop_assert_eq!(back.len(), stats_live.remaining);
    }

    #[test]
    fn query_radius_agrees_with_brute_force(
        seed in 0u64..1000,
        shard_level in 0u8..=3,
        cx in 100.0..1900.0f64,
        cy in 100.0..1900.0f64,
        radius in 10.0..600.0f64,
    ) {
        let batches = schedule(seed, 4, 40);
        let map = GeoMap::new(cfg(shard_level)).unwrap();
        run_schedule(&map, &batches);
        let center = Point::new(cx, cy);
        let mut brute = Vec::new();
        map.for_each_near(center, 1e9, |ap| {
            if ap.credit > map.config().min_credit && ap.position.distance(center) <= radius {
                brute.push(*ap);
            }
        });
        brute.sort_by(canonical_order);
        prop_assert_eq!(map.query_radius(center, radius), brute);
    }

    #[test]
    fn aps_ahead_agrees_with_brute_force(
        seed in 0u64..1000,
        shard_level in 0u8..=3,
        path in proptest::collection::vec((0.0..2048.0f64, 0.0..2048.0f64), 1..6),
        half_width in 0.0..400.0f64,
    ) {
        let batches = schedule(seed, 4, 40);
        let map = GeoMap::new(cfg(shard_level)).unwrap();
        run_schedule(&map, &batches);
        let path: Vec<Point> = path.into_iter().map(|(x, y)| Point::new(x, y)).collect();
        let mut brute = Vec::new();
        map.for_each_near(Point::new(1024.0, 1024.0), 1e9, |ap| {
            if ap.credit > map.config().min_credit && distance_to_path(ap.position, &path) <= half_width {
                brute.push(*ap);
            }
        });
        brute.sort_by(canonical_order);
        prop_assert_eq!(map.aps_ahead(&path, half_width), brute);
    }
}
