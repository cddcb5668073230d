//! Criterion bench: ℓ1 solver scaling with the grid size N.
//!
//! §4.3 motivates the online strategy by the cost of ℓ1-minimization at
//! large N; this bench quantifies that cost for the three solver
//! families and for the Proposition-1 orthogonalized pipeline recovery
//! (with and without orthogonalization — the paper's efficiency claim).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowdwifi_channel::PathLossModel;
use crowdwifi_core::recovery::CsRecovery;
use crowdwifi_geo::{Grid, Point, Rect};
use crowdwifi_linalg::Matrix;
use crowdwifi_sparsesolve::omp::Omp;
use crowdwifi_sparsesolve::{ActiveSet, Fista, SparseRecovery};
use std::hint::black_box;

/// Deterministic ±1/√M Bernoulli sensing matrix.
fn bernoulli(m: usize, n: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let scale = 1.0 / (m as f64).sqrt();
    Matrix::from_fn(m, n, |_, _| {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        if (state.wrapping_mul(0x2545F4914F6CDD1D) >> 63) & 1 == 1 {
            scale
        } else {
            -scale
        }
    })
}

fn sparse_problem(m: usize, n: usize) -> (Matrix, Vec<f64>) {
    let a = bernoulli(m, n, 7);
    let mut theta = vec![0.0; n];
    theta[n / 7] = 1.0;
    theta[n / 2] = 1.0;
    theta[(6 * n) / 7] = 1.0;
    let y = a.matvec(&theta);
    (a, y)
}

fn solver_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("l1_solvers_vs_N");
    for n in [100usize, 400, 900] {
        let m = 60;
        let (a, y) = sparse_problem(m, n);
        group.bench_with_input(BenchmarkId::new("fista", n), &n, |b, _| {
            let solver = Fista::default();
            b.iter(|| black_box(solver.recover(&a, &y).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("active_set", n), &n, |b, _| {
            let solver = ActiveSet::default();
            b.iter(|| black_box(solver.recover(&a, &y).unwrap()));
        });
        group.bench_with_input(BenchmarkId::new("omp", n), &n, |b, _| {
            let solver = Omp::new(3);
            b.iter(|| black_box(solver.recover(&a, &y).unwrap()));
        });
    }
    group.finish();
}

fn orthogonalization_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("prop1_orthogonalization");
    let model = PathLossModel::uci_campus();
    let grid = Grid::new(
        Rect::new(Point::new(0.0, 0.0), Point::new(240.0, 240.0)).expect("static rect"),
        8.0,
    )
    .expect("static grid");
    let ap = grid.point(grid.nearest_index(Point::new(120.0, 120.0)));
    let positions: Vec<Point> = (0..30)
        .map(|i| {
            Point::new(
                40.0 + 5.0 * i as f64,
                if (i / 5) % 2 == 0 { 60.0 } else { 75.0 },
            )
        })
        .collect();
    let rss: Vec<f64> = positions
        .iter()
        .map(|p| model.mean_rss(p.distance(ap)))
        .collect();

    group.bench_function("with_orthogonalization", |b| {
        let rec = CsRecovery::new(model, 100.0, -95.0);
        b.iter(|| black_box(rec.recover_single_ap(&grid, &positions, &rss).unwrap()));
    });
    group.bench_function("without_orthogonalization", |b| {
        let rec = CsRecovery::new(model, 100.0, -95.0).without_orthogonalization();
        b.iter(|| black_box(rec.recover_single_ap(&grid, &positions, &rss).unwrap()));
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = solver_scaling, orthogonalization_ablation
);
criterion_main!(benches);
