//! Property-based tests for the online CS pipeline's building blocks.

use crowdwifi_channel::{PathLossModel, RssReading};
use crowdwifi_core::centroid::{candidate_modes, centroid_of_dominant, CentroidEstimate};
use crowdwifi_core::consolidate::Consolidator;
use crowdwifi_core::metrics::{counting_error, greedy_match, localization_error};
use crowdwifi_core::recovery::CsRecovery;
use crowdwifi_core::window::{windows_over, SlidingWindow, WindowConfig};
use crowdwifi_core::GridSupport;
use crowdwifi_core::{OnlineCs, OnlineCsConfig};
use crowdwifi_geo::point::weighted_centroid;
use crowdwifi_geo::{Grid, Point, Rect};
use proptest::prelude::*;

fn reading(i: usize) -> RssReading {
    RssReading::new(Point::new(i as f64, 0.0), -60.0, i as f64)
}

/// Deterministic xorshift stream in `[0, 1)`, for inputs drawn from one
/// proptest-chosen seed.
struct Unit(u64);

impl Unit {
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.next() * n as f64) as usize).min(n - 1)
    }
}

/// A drive of `m` readings that spans `span` radio ranges: straight
/// legs with random turns, every third reading snapped onto a lattice
/// cell edge of the window's grid, RSS from one AP plus bounded noise.
fn random_window(
    rng: &mut Unit,
    m: usize,
    lattice: f64,
    range: f64,
    span: f64,
) -> (Grid, Vec<RssReading>) {
    let step = span * range / m as f64;
    let (mut p, mut heading) = (Point::new(0.0, 0.0), 0.0_f64);
    let mut positions = Vec::with_capacity(m);
    for i in 0..m {
        if i % 7 == 0 {
            heading += (rng.next() - 0.5) * 3.0;
        }
        positions.push(p);
        p = Point::new(p.x + step * heading.cos(), p.y + step * heading.sin());
    }
    let grid = Grid::from_reference_points(&positions, range, lattice).unwrap();
    let min = grid.bounds().min();
    let edge = |v: f64, origin: f64| origin + ((v - origin) / lattice).round() * lattice;
    for (i, q) in positions.iter_mut().enumerate() {
        match i % 3 {
            0 => *q = Point::new(edge(q.x, min.x), q.y),
            1 => *q = Point::new(edge(q.x, min.x), edge(q.y, min.y)),
            _ => {}
        }
    }
    let model = PathLossModel::uci_campus();
    let ap = positions[rng.below(m)];
    let ap = Point::new(
        ap.x + 0.4 * range * rng.next(),
        ap.y - 0.4 * range * rng.next(),
    );
    let readings = positions
        .iter()
        .enumerate()
        .map(|(i, &q)| {
            let rss = model.mean_rss(q.distance(ap)) + 6.0 * (rng.next() - 0.5);
            RssReading::new(q, rss, i as f64)
        })
        .collect();
    (grid, readings)
}

/// Random reading groups over `m` readings: contiguous runs, strided
/// runs and arbitrary subsets, each ascending and non-empty.
fn random_groups(rng: &mut Unit, m: usize, count: usize) -> Vec<Vec<usize>> {
    (0..count)
        .map(|g| {
            let start = rng.below(m);
            let len = 1 + rng.below((m - start).min(24));
            match g % 3 {
                0 => (start..start + len).collect(),
                1 => (start..m).step_by(1 + rng.below(5)).take(len).collect(),
                _ => {
                    let group: Vec<usize> = (0..m).filter(|_| rng.next() < 0.15).collect();
                    if group.is_empty() {
                        vec![start]
                    } else {
                        group
                    }
                }
            }
        })
        .collect()
}

/// A drive of `n` readings, one a second, along a road with lane
/// changes and random bends, each hearing the nearer of two roadside
/// APs with bounded noise.
fn random_drive(rng: &mut Unit, n: usize) -> Vec<RssReading> {
    let model = PathLossModel::uci_campus();
    let aps = [
        Point::new(40.0 + 60.0 * rng.next(), 15.0 + 20.0 * rng.next()),
        Point::new(160.0 + 80.0 * rng.next(), -15.0 - 20.0 * rng.next()),
    ];
    let mut y = 0.0;
    (0..n)
        .map(|i| {
            if i % 5 == 0 {
                y = 12.0 * (rng.next() - 0.5);
            }
            let p = Point::new(3.0 * i as f64, y);
            let d = aps
                .iter()
                .map(|ap| p.distance(*ap))
                .fold(f64::INFINITY, f64::min);
            RssReading::new(p, model.mean_rss(d) + 4.0 * (rng.next() - 0.5), i as f64)
        })
        .collect()
}

fn support_bits(s: &GridSupport) -> (Vec<usize>, Vec<u64>) {
    (
        s.indices.clone(),
        s.weights.iter().map(|w| w.to_bits()).collect(),
    )
}

/// The dense reference of `candidate_modes`: scan the whole dense θ for
/// the dominant set, link every pair within `link` (all-pairs
/// union-by-relabel), then centroid, order and cap like the library.
fn dense_modes(
    theta: &[f64],
    grid: &Grid,
    rel_threshold: f64,
    link: f64,
    max_modes: usize,
) -> Vec<CentroidEstimate> {
    let max = theta.iter().cloned().fold(0.0_f64, f64::max);
    if max <= 0.0 || max_modes == 0 {
        return Vec::new();
    }
    let zeta = rel_threshold * max;
    let dominant: Vec<usize> = (0..theta.len()).filter(|&n| theta[n] >= zeta).collect();
    let mut comp: Vec<usize> = (0..dominant.len()).collect();
    for i in 0..dominant.len() {
        for j in (i + 1)..dominant.len() {
            if grid.point(dominant[i]).distance(grid.point(dominant[j])) <= link {
                let (a, b) = (comp[i], comp[j]);
                for c in comp.iter_mut() {
                    if *c == a {
                        *c = b;
                    }
                }
            }
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for (i, &c) in comp.iter().enumerate() {
        groups.entry(c).or_default().push(dominant[i]);
    }
    let mut modes: Vec<CentroidEstimate> = groups
        .values()
        .map(|members| {
            let pts: Vec<Point> = members.iter().map(|&n| grid.point(n)).collect();
            let ws: Vec<f64> = members.iter().map(|&n| theta[n]).collect();
            CentroidEstimate {
                position: weighted_centroid(&pts, &ws).unwrap(),
                mass: ws.iter().sum(),
            }
        })
        .collect();
    modes.sort_by(|a, b| {
        b.mass
            .partial_cmp(&a.mass)
            .unwrap()
            .then(a.position.x.partial_cmp(&b.position.x).unwrap())
            .then(a.position.y.partial_cmp(&b.position.y).unwrap())
    });
    modes.truncate(max_modes);
    modes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn window_rounds_never_exceed_size(
        size in 1usize..30,
        step_raw in 1usize..30,
        n in 0usize..120,
    ) {
        let step = step_raw.min(size);
        let cfg = WindowConfig { size, step, ttl: f64::INFINITY };
        let readings: Vec<RssReading> = (0..n).map(reading).collect();
        let rounds = windows_over(&readings, cfg).unwrap();
        for round in &rounds {
            prop_assert!(round.len() <= size);
            prop_assert!(!round.is_empty());
            // Rounds are time-contiguous suffixes of the stream.
            for pair in round.windows(2) {
                prop_assert!(pair[0].time < pair[1].time);
            }
        }
        // Every reading appears in at least one round when n > 0.
        if n > 0 {
            let last = rounds.last().unwrap();
            prop_assert_eq!(last.last().unwrap().time, (n - 1) as f64);
        }
    }

    #[test]
    fn streaming_window_ttl_never_returns_expired(
        ttl in 1.0..20.0f64,
        n in 1usize..60,
    ) {
        let cfg = WindowConfig { size: 50, step: 1, ttl };
        let mut w = SlidingWindow::new(cfg).unwrap();
        for i in 0..n {
            if let Some(round) = w.push(reading(i)) {
                let now = i as f64;
                prop_assert!(round.iter().all(|r| now - r.time <= ttl));
            }
        }
    }

    #[test]
    fn consolidator_credit_is_conserved(
        points in proptest::collection::vec((0.0..200.0f64, 0.0..200.0f64), 1..40),
        merge_radius in 0.0..30.0f64,
    ) {
        let mut c = Consolidator::new(merge_radius);
        for &(x, y) in &points {
            c.merge_one(Point::new(x, y), 1.0);
        }
        let total: f64 = c.estimates().iter().map(|e| e.credit).sum();
        prop_assert!((total - points.len() as f64).abs() < 1e-9);
        // No two surviving estimates are within the merge radius of the
        // merge target they'd have joined — weaker invariant: count can
        // never exceed inputs.
        prop_assert!(c.estimates().len() <= points.len());
    }

    #[test]
    fn centroid_of_dominant_is_inside_grid(
        coeffs in proptest::collection::vec(0.0..1.0f64, 16),
        threshold in 0.05..1.0f64,
    ) {
        let grid = Grid::new(
            Rect::new(Point::new(0.0, 0.0), Point::new(40.0, 40.0)).unwrap(),
            10.0,
        ).unwrap();
        if let Some(est) = centroid_of_dominant(&coeffs, &grid, threshold) {
            prop_assert!(grid.bounds().contains(est.position));
            prop_assert!(est.mass > 0.0);
        }
    }

    #[test]
    fn modes_partition_dominant_mass(
        coeffs in proptest::collection::vec(0.0..1.0f64, 16),
    ) {
        let grid = Grid::new(
            Rect::new(Point::new(0.0, 0.0), Point::new(40.0, 40.0)).unwrap(),
            10.0,
        ).unwrap();
        let support = GridSupport { indices: (0..coeffs.len()).collect(), weights: coeffs.clone() };
        let modes = candidate_modes(&support, &grid, 0.3, 12.0, 16);
        let max = coeffs.iter().cloned().fold(0.0f64, f64::max);
        if max > 0.0 {
            let dominant_mass: f64 = coeffs.iter().filter(|&&c| c >= 0.3 * max).sum();
            let mode_mass: f64 = modes.iter().map(|m| m.mass).sum();
            prop_assert!((dominant_mass - mode_mass).abs() < 1e-9);
            // Sorted by descending mass.
            for w in modes.windows(2) {
                prop_assert!(w[0].mass >= w[1].mass - 1e-12);
            }
        } else {
            prop_assert!(modes.is_empty());
        }
    }

    #[test]
    fn greedy_match_pairs_are_unique(
        actual in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 0..8),
        estimated in proptest::collection::vec((0.0..100.0f64, 0.0..100.0f64), 0..8),
    ) {
        let a: Vec<Point> = actual.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let e: Vec<Point> = estimated.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let pairs = greedy_match(&a, &e);
        prop_assert_eq!(pairs.len(), a.len().min(e.len()));
        let mut ai: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        let mut ei: Vec<usize> = pairs.iter().map(|p| p.1).collect();
        ai.sort_unstable(); ai.dedup();
        ei.sort_unstable(); ei.dedup();
        prop_assert_eq!(ai.len(), pairs.len());
        prop_assert_eq!(ei.len(), pairs.len());
    }

    #[test]
    fn error_metrics_are_scale_consistent(
        k in 1usize..20,
        khat in 0usize..40,
    ) {
        let err = counting_error(k, khat);
        prop_assert!(err >= 0.0);
        // Exact count means zero error and vice versa.
        prop_assert_eq!(err == 0.0, k == khat);
    }

    #[test]
    fn localization_error_scales_inversely_with_lattice(
        lattice in 1.0..50.0f64,
    ) {
        let actual = [Point::new(0.0, 0.0)];
        let estimated = [Point::new(10.0, 0.0)];
        let e = localization_error(&actual, &estimated, lattice).unwrap();
        prop_assert!((e * lattice - 10.0).abs() < 1e-9);
    }

    /// Sparse mode extraction equals the dense all-pairs reference on
    /// random supports (zero weights and lattice-exact link radii
    /// included).
    #[test]
    fn sparse_modes_match_dense_all_pairs_linking(
        seed in 0u64..u64::MAX,
        lattice in 2.0..25.0f64,
        (nx, ny) in (1usize..30, 1usize..30),
        density in 0.05..0.9f64,
        (link_kind, link_frac) in (0usize..4, 0.0..4.0f64),
        rel_threshold in 0.05..1.0f64,
        max_modes in 0usize..6,
    ) {
        let mut rng = Unit(seed | 1);
        let min = Point::new(-1000.0 * rng.next(), 500.0 * rng.next());
        let max = Point::new(min.x + nx as f64 * lattice, min.y + ny as f64 * lattice);
        let grid = Grid::new(Rect::new(min, max).unwrap(), lattice).unwrap();
        let mut support = GridSupport::default();
        for n in 0..grid.len() {
            if rng.next() < density {
                support.indices.push(n);
                let w = rng.next();
                support.weights.push(if w < 0.2 { 0.0 } else { w });
            }
        }
        let link = [0.0, 1.0, 2.0, link_frac][link_kind] * lattice;
        let dense = support.to_dense(grid.len());
        let want = dense_modes(&dense, &grid, rel_threshold, link, max_modes);
        let got = candidate_modes(&support, &grid, rel_threshold, link, max_modes);
        prop_assert_eq!(got, want);
    }

    /// `Grid::index_box` holds every grid point within `r`, for centers
    /// inside and far outside the grid and a point at exactly `r`.
    #[test]
    fn index_box_holds_every_point_within_radius(
        seed in 0u64..u64::MAX,
        lattice in 2.0..25.0f64,
        (w, h) in (0.0..400.0f64, 0.0..400.0f64),
        r in 0.0..150.0f64,
        (cx, cy) in (-1.0..2.0f64, -1.0..2.0f64),
    ) {
        let mut rng = Unit(seed | 1);
        let min = Point::new(-300.0 * rng.next(), 300.0 * rng.next());
        let grid = Grid::new(Rect::new(min, Point::new(min.x + w, min.y + h)).unwrap(), lattice)
            .unwrap();
        let far = Point::new(min.x + cx * (w + 3.0 * r), min.y + cy * (h + 3.0 * r));
        // A center at exactly `r` (as computed) from a random grid point:
        // straight along a lattice axis (where the box edge is tight) or
        // at a random angle.
        let anchor = grid.point(rng.below(grid.len()));
        let (ux, uy) = match rng.below(5) {
            0 => (1.0, 0.0),
            1 => (-1.0, 0.0),
            2 => (0.0, 1.0),
            3 => (0.0, -1.0),
            _ => {
                let angle = rng.next() * std::f64::consts::TAU;
                (angle.cos(), angle.sin())
            }
        };
        let on_circle = Point::new(anchor.x + r * ux, anchor.y + r * uy);
        let exact_r = anchor.distance(on_circle);
        for (center, radius) in [(far, r), (on_circle, exact_r)] {
            let boxed = grid.index_box(center, radius);
            let walked: Vec<usize> = boxed.iter().map(|(j, _)| j).collect();
            prop_assert!(walked.windows(2).all(|p| p[0] < p[1]));
            for j in 0..grid.len() {
                if grid.point(j).distance(center) <= radius {
                    prop_assert!(walked.binary_search(&j).is_ok(), "{} missed", j);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Recovery through the range-local workspace equals, bit for bit,
    /// the direct path whose candidates are a full-grid scan — in any
    /// recovery order.
    #[test]
    fn workspace_recovery_matches_brute_force(
        seed in 0u64..u64::MAX,
        lattice in 2.0..25.0f64,
        range in 30.0..150.0f64,
        span in 1.5..4.0f64,
        m in 1usize..80,
    ) {
        let mut rng = Unit(seed | 1);
        let (grid, readings) = random_window(&mut rng, m, lattice, range, span);
        let engine = CsRecovery::new(PathLossModel::uci_campus(), range, -95.0);
        let groups = random_groups(&mut rng, m, 6);

        let mut sensing = engine.prepare_window(&grid, &readings);
        let mut first = Vec::new();
        for idx in &groups {
            let positions: Vec<Point> = idx.iter().map(|&i| readings[i].position).collect();
            let rss: Vec<f64> = idx.iter().map(|&i| readings[i].rss_dbm).collect();
            let full_scan: Vec<usize> = (0..grid.len())
                .filter(|&j| positions.iter().all(|p| p.distance(grid.point(j)) <= range))
                .collect();
            let direct = engine.recover_single_ap(&grid, &positions, &rss).unwrap();
            prop_assert_eq!(&direct.indices, &full_scan);
            let shared = engine.recover_group(&mut sensing, idx).unwrap();
            prop_assert_eq!(support_bits(&shared), support_bits(&direct));
            let dense: Vec<u64> = shared.to_dense(grid.len()).iter().map(|w| w.to_bits()).collect();
            let want: Vec<u64> = direct.to_dense(grid.len()).iter().map(|w| w.to_bits()).collect();
            prop_assert_eq!(dense, want);
            first.push(support_bits(&shared));
        }
        prop_assert!(sensing.stats().signature_evals as usize <= sensing.in_range_pairs());

        // Shuffled first-read order on a fresh workspace.
        let mut order: Vec<usize> = (0..groups.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        let mut shuffled = engine.prepare_window(&grid, &readings);
        for &g in &order {
            let got = engine.recover_group(&mut shuffled, &groups[g]).unwrap();
            prop_assert_eq!(support_bits(&got), first[g].clone());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A batch run is a session fed the whole drive: `run` equals
    /// pushing every reading and finishing, bit for bit, at any window,
    /// TTL, hypothesis-block split (six AP counts are two blocks) and
    /// thread count.
    #[test]
    fn batch_run_equals_a_streamed_drive(
        seed in 0u64..u64::MAX,
        n in 0usize..=120,
        size in 4usize..40,
        step_raw in 1usize..40,
        finite_ttl in any::<bool>(),
        ttl_raw in 5.0..60.0f64,
        two_blocks in any::<bool>(),
        threads in 1usize..=2,
    ) {
        let drive = random_drive(&mut Unit(seed | 1), n);
        let ttl = if finite_ttl { ttl_raw } else { f64::INFINITY };
        let config = OnlineCsConfig {
            window: WindowConfig { size, step: step_raw.min(size), ttl },
            max_ap_per_window: if two_blocks { 6 } else { 3 },
            threads,
            ..OnlineCsConfig::default()
        };
        let pipeline = OnlineCs::new(config, PathLossModel::uci_campus()).unwrap();
        let batch = pipeline.run(&drive).unwrap();
        let mut session = pipeline.session().unwrap();
        for r in &drive {
            session.push(*r).unwrap();
        }
        prop_assert_eq!(session.finish().unwrap(), batch);
    }
}
