//! End-to-end online-CS pipeline throughput bench (the perf tentpole).
//!
//! Five measurements on one seeded UCI drive:
//!
//! 1. **Stage split** — one single-thread run of [`OnlineCs::run`]
//!    recording into a local registry: its `pipeline.*_seconds` stage
//!    timers, summed over the run's wall time, give `stage_coverage`.
//! 2. **Shared window factorization** — one round's hypothesis groups
//!    recovered the seed way (`recover_single_ap`: rebuild the sensing
//!    matrix per group) vs the shared way (`prepare_window` once +
//!    memoized `recover_group`), cold and warm (the warm replay is what
//!    EM refinement passes and recurring hypotheses see).
//! 3. **Solver workspace** — the seed's FISTA loop (per-iteration
//!    `clone`s, reproduced verbatim from the seed commit below) vs the
//!    current allocation-lean `recover_with` on a reused
//!    [`SolverWorkspace`], verified to produce identical iterates. The
//!    legs alternate rep by rep; the speedup is the median per-rep
//!    ratio.
//! 4. **Solver work** — the full drive once with the default exact
//!    active set and once with plain FISTA pinned (the active set's
//!    fallback), recording both ℓ1 work totals (pivots vs iterations)
//!    and asserting both recover the same number of APs.
//! 5. **Kernels** — FISTA's per-iteration kernel pair (`matvec` then
//!    `acc_rows`) on section 3's operator, with the scalar reference
//!    kernels vs the shipped row-blocked kernels, bit-identity asserted.
//!
//! Every measurement is single-threaded or machine-independent, so the
//! numbers read the same on a 1–2-core machine as on a big one; that
//! parallel runs give the serial estimates is a unit test of the
//! pipeline (`parallel_and_serial_runs_are_identical`), not a timing.
//! Writes `BENCH_pipeline.json` at the repo root.
//!
//! Run with `cargo run -p crowdwifi-bench --release --bin pipeline_throughput`.
//! `BENCH_SMOKE=1` cuts repetitions for CI's regression gate;
//! `BENCH_OUT_DIR` redirects the JSON away from the repo root.

use crowdwifi_bench::{
    campus_config, campus_drive, num, obj, paired_median, smoke_mode, time, Report,
};
use crowdwifi_core::assign::{Assigner, ClusterAssigner};
use crowdwifi_core::pipeline::{OnlineCs, OnlineCsConfig};
use crowdwifi_core::recovery::CsRecovery;
use crowdwifi_geo::{Grid, Point};
use crowdwifi_linalg::kernels::{self, scalar};
use crowdwifi_linalg::vector;
use crowdwifi_linalg::Matrix;
use crowdwifi_sparsesolve::prox::soft_threshold_nonneg_vec;
use crowdwifi_sparsesolve::{Fista, SolverWorkspace, SparseRecovery};

/// The seed commit's `spectral_norm_sq` (power iteration), reproduced
/// so [`seed_fista_solve`] computes the exact same step size as the
/// current solver and the two run the identical iterate sequence.
fn seed_spectral_norm_sq(a: &Matrix, iterations: usize) -> f64 {
    let n = a.cols();
    if n == 0 || a.rows() == 0 {
        return 0.0;
    }
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.7).sin()).collect();
    let mut lambda = 0.0;
    for _ in 0..iterations {
        let av = a.matvec(&v);
        let atav = a.matvec_transposed(&av);
        let norm = vector::norm2(&atav);
        if norm == 0.0 {
            return 0.0;
        }
        lambda = norm;
        for (vi, &x) in v.iter_mut().zip(&atav) {
            *vi = x / norm;
        }
    }
    lambda
}

/// The seed commit's FISTA loop, verbatim in structure: `matvec`,
/// `sub`, `matvec_transposed` and two `clone`s allocate fresh vectors
/// on **every** iteration. This is the measured baseline the
/// allocation-lean `recover_with` is compared against; same λ, step and
/// update order, so both produce bit-identical solutions in the same
/// iteration count — the only difference is where intermediates live.
fn seed_fista_solve(a: &Matrix, y: &[f64]) -> (Vec<f64>, usize, bool) {
    const LAMBDA_REL: f64 = 0.01;
    const MAX_ITERATIONS: usize = 2000;
    const TOLERANCE: f64 = 1e-8;
    let lipschitz = seed_spectral_norm_sq(a, 30) * 1.02;
    let step = 1.0 / lipschitz;
    let lambda = LAMBDA_REL * vector::norm_inf(&a.matvec_transposed(y));
    let mut x = vec![0.0; a.cols()];
    let mut z = x.clone();
    let mut t: f64 = 1.0;
    let mut iterations = 0;
    let mut converged = false;
    for k in 0..MAX_ITERATIONS {
        iterations = k + 1;
        let az = a.matvec(&z);
        let grad = a.matvec_transposed(&vector::sub(&az, y));
        let mut x_new = z.clone();
        vector::axpy(-step, &grad, &mut x_new);
        soft_threshold_nonneg_vec(&mut x_new, step * lambda);
        let delta = vector::distance(&x_new, &x);
        let scale = vector::norm2(&x_new).max(1e-12);
        let t_new = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
        let beta = (t - 1.0) / t_new;
        z = x_new.clone();
        for (zi, (&xn, &xo)) in z.iter_mut().zip(x_new.iter().zip(&x)) {
            *zi = xn + beta * (xn - xo);
        }
        t = t_new;
        x = x_new;
        if delta <= TOLERANCE * scale {
            converged = true;
            break;
        }
    }
    (x, iterations, converged)
}

fn bernoulli_matrix(m: usize, n: usize, seed: u64) -> Matrix {
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

/// The `notes` paragraph of `BENCH_pipeline.json`.
const NOTES: &str = "Every measurement is single-threaded or machine-independent: stages, \
    shared_window, solver_workspace, solver_work and kernel_accel read the same on a 1-2-core \
    machine as on a big one. The seed FISTA baseline is reproduced verbatim in this bench and \
    asserted to yield bit-identical solutions; solver_workspace times a batch of solves per leg \
    per rep, alternating which leg runs first: seed_clone_per_iter_us and workspace_us are median \
    microseconds per solve, speedup is the median per-rep ratio. solver_work runs the drive once \
    with the default exact active set and once with plain FISTA pinned (400 iterations, tolerance \
    1e-7, the active set's fallback): active_set_iteration_ratio is total active-set pivots over \
    total FISTA iterations, and ap_count_identical records the in-bench assertion that both runs \
    recover the same number of APs. kernel_accel times FISTA's per-iteration kernel pair (matvec, \
    then acc_rows) on the solver_workspace operator with the scalar reference kernels vs the \
    shipped row-blocked kernels, alternating which leg runs first rep by rep: kernel_scalar_us \
    and kernel_vectorized_us are median microseconds per pair, kernel_wall_speedup is the median \
    per-rep ratio, and kernel_bit_identical records the in-bench assertion that both legs produce \
    the same bits (NaN-canonicalized). stages is one single-thread run of the drive, after one \
    warmup run, recording into a local registry: each pipeline.*_seconds stage timer's total in \
    milliseconds, and stage_coverage, their sum over the run's wall time.";

fn main() {
    let smoke = smoke_mode();

    let (readings, model) = campus_drive();
    let cfg = campus_config();

    println!(
        "pipeline throughput: {} readings, window {}x{}{} ...",
        readings.len(),
        cfg.window.size,
        cfg.window.step,
        if smoke { " (smoke)" } else { "" }
    );

    // --- 1. Stage split. ---
    // Stage coverage: one single-thread run on a local registry. With
    // one thread the stage timers are wall time, so their sum over the
    // run's wall time is the share of the run the split accounts for.
    const STAGES: [&str; 9] = [
        "prepare",
        "gather",
        "factorize",
        "solve",
        "debias",
        "modes",
        "score",
        "refine",
        "polish",
    ];
    let serial = OnlineCsConfig { threads: 1, ..cfg };
    OnlineCs::new(serial, model)
        .expect("valid config")
        .run(&readings)
        .expect("warmup run");
    let registry = crowdwifi_obs::Registry::new();
    let staged = OnlineCs::new(serial, model)
        .expect("valid config")
        .with_registry(&registry);
    let stage_wall = time(|| drop(staged.run(&readings).expect("staged run")), 1);
    let snapshot = registry.snapshot();
    let mut stages = vec![
        ("threads".to_string(), 1usize.into()),
        ("wall_ms".to_string(), num(stage_wall * 1e3, 3)),
    ];
    let mut staged_secs = 0.0;
    for stage in STAGES {
        let secs = snapshot.histograms[&format!("pipeline.{stage}_seconds")].sum;
        staged_secs += secs;
        stages.push((format!("{stage}_ms"), num(secs * 1e3, 3)));
    }
    let stage_coverage = staged_secs / stage_wall;
    stages.push(("stage_coverage".to_string(), num(stage_coverage, 3)));

    // --- 2. Shared window factorization vs per-group rebuild. ---
    // The groups are the real hypothesis fan-out of one round: every
    // (k, assignment, ap-cluster) the pipeline would recover.
    let window = &readings[..cfg.window.size.min(readings.len())];
    let recovery = CsRecovery::new(model, cfg.radio_range, cfg.detection_floor_dbm);
    let positions: Vec<Point> = window.iter().map(|r| r.position).collect();
    let wgrid =
        Grid::from_reference_points(&positions, cfg.radio_range, cfg.lattice).expect("grid");
    let assigner = ClusterAssigner::new(model);
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for k in 1..=cfg.max_ap_per_window {
        for a in assigner.candidate_assignments(window, k) {
            for ap in 0..k {
                let g = a.group(ap);
                if !g.is_empty() {
                    groups.push(g);
                }
            }
        }
    }
    let distinct = groups
        .iter()
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let group_reps: usize = if smoke { 2 } else { 5 };
    let direct_secs = time(
        || {
            for g in &groups {
                let pos: Vec<Point> = g.iter().map(|&i| window[i].position).collect();
                let rss: Vec<f64> = g.iter().map(|&i| window[i].rss_dbm).collect();
                recovery
                    .recover_single_ap(&wgrid, &pos, &rss)
                    .expect("direct recovery");
            }
        },
        group_reps,
    );
    let shared_secs = time(
        || {
            let mut sensing = recovery.prepare_window(&wgrid, window);
            for g in &groups {
                recovery
                    .recover_group(&mut sensing, g)
                    .expect("shared recovery");
            }
        },
        group_reps,
    );
    // Warm replay: the same groupings recur across EM refinement passes
    // and k hypotheses inside a round; the memo serves those from cache.
    let mut sensing = recovery.prepare_window(&wgrid, window);
    for g in &groups {
        recovery.recover_group(&mut sensing, g).expect("memo fill");
    }
    let warm_secs = time(
        || {
            for g in &groups {
                recovery.recover_group(&mut sensing, g).expect("memo hit");
            }
        },
        group_reps,
    );
    let shared_speedup = direct_secs / shared_secs;
    let warm_speedup = direct_secs / warm_secs;

    // --- 3. Allocation-lean solver vs the seed's per-iteration clones. ---
    let (m, n) = (24, 160);
    let a = bernoulli_matrix(m, n, 21);
    let mut theta = vec![0.0; n];
    theta[9] = 1.0;
    theta[77] = 1.0;
    theta[140] = 1.0;
    let y = a.matvec(&theta);
    let solver = Fista::default();
    // The baseline really is the same algorithm: identical solution,
    // in the identical number of iterations.
    let (seed_x, seed_iters, seed_converged) = seed_fista_solve(&a, &y);
    let mut ws = SolverWorkspace::new();
    let current = solver.recover_with(&a, &y, &mut ws).expect("warmup solve");
    assert_eq!(
        seed_x, current.solution,
        "seed baseline diverged from current solver"
    );
    assert_eq!(seed_iters, current.iterations);
    assert_eq!(seed_converged, current.converged);
    let (ws_reps, solves_per_rep): (usize, usize) = if smoke { (31, 5) } else { (61, 5) };
    let ws = paired_median(
        ws_reps,
        || time(|| drop(seed_fista_solve(&a, &y)), solves_per_rep),
        || {
            time(
                || drop(solver.recover_with(&a, &y, &mut ws).expect("solve")),
                solves_per_rep,
            )
        },
    );
    let (seed_secs, lean_secs, ws_speedup) = (ws.a_secs, ws.b_secs, ws.ratio);

    // --- 4. Solver work: exact active set vs pinned plain FISTA. ---
    // One drive through the full pipeline per solver. The headline
    // number is machine-independent: the active set's total pivots over
    // the FISTA leg's total iterations across every group solve.
    let fista_pipe = OnlineCs::new(cfg, model)
        .expect("valid config")
        .with_recovery(
            CsRecovery::new(model, cfg.radio_range, cfg.detection_floor_dbm)
                .with_solver(CsRecovery::fallback_fista()),
        );
    let exact_report = OnlineCs::new(cfg, model)
        .expect("valid config")
        .run_detailed(&readings)
        .expect("active-set run");
    let fista_report = fista_pipe.run_detailed(&readings).expect("FISTA run");
    assert_eq!(
        exact_report.final_aps.len(),
        fista_report.final_aps.len(),
        "the active set and FISTA recovered different AP counts"
    );
    let (exact, fista) = (exact_report.sensing, fista_report.sensing);
    let work_ratio = exact.solver_iterations as f64 / (fista.solver_iterations as f64).max(1.0);

    // --- 5. Shipped kernels vs the scalar reference. ---
    // FISTA's per-iteration kernel pair on section 3's operator: `A z`
    // (`matvec`), then `Aᵀ(A z)` accumulated onto a zeroed buffer
    // (`acc_rows`), once with `kernels::scalar` and once with the
    // shipped row-blocked kernels. The two are bit-identical by
    // construction: asserted (NaN-canonicalized), then recorded as
    // kernel_bit_identical. Each rep times a batch of pairs per leg.
    type Kernel = fn(usize, &[f64], &[f64], &mut [f64]);
    let z = a.matvec_transposed(&y);
    let (mut az, mut grad) = (vec![0.0; m], vec![0.0; n]);
    let kernel_pair = |matvec: Kernel, acc_rows: Kernel, az: &mut [f64], grad: &mut [f64]| {
        matvec(n, a.as_slice(), &z, az);
        grad.fill(0.0);
        acc_rows(n, a.as_slice(), az, grad);
        std::hint::black_box((az, grad));
    };
    let canon = |v: &[f64]| -> Vec<u64> {
        v.iter()
            .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
            .collect()
    };
    kernel_pair(scalar::matvec, scalar::acc_rows, &mut az, &mut grad);
    let scalar_out = (canon(&az), canon(&grad));
    kernel_pair(kernels::matvec, kernels::acc_rows, &mut az, &mut grad);
    assert_eq!(
        scalar_out,
        (canon(&az), canon(&grad)),
        "shipped kernels diverged from the scalar reference"
    );
    let (kernel_reps, pairs_per_rep): (usize, usize) = if smoke { (21, 1000) } else { (51, 2000) };
    let (mut az_k, mut grad_k) = (az.clone(), grad.clone());
    let kernel = paired_median(
        kernel_reps,
        || {
            time(
                || kernel_pair(scalar::matvec, scalar::acc_rows, &mut az, &mut grad),
                pairs_per_rep,
            )
        },
        || {
            time(
                || kernel_pair(kernels::matvec, kernels::acc_rows, &mut az_k, &mut grad_k),
                pairs_per_rep,
            )
        },
    );
    let (scalar_us, kernel_us) = (kernel.a_secs * 1e6, kernel.b_secs * 1e6);
    let kernel_speedup = kernel.ratio;

    let matrix = format!("{m}x{n}");
    Report::new("pipeline_throughput", 12)
        .field(
            "drive",
            obj([
                ("readings", readings.len().into()),
                ("window_size", cfg.window.size.into()),
                ("window_step", cfg.window.step.into()),
            ]),
        )
        .field("stages", obj(stages))
        .field(
            "shared_window",
            obj([
                ("groups_per_round", groups.len().into()),
                ("distinct_groups", distinct.into()),
                ("per_group_rebuild_ms", num(direct_secs * 1e3, 3)),
                ("shared_cold_ms", num(shared_secs * 1e3, 3)),
                ("memoized_replay_ms", num(warm_secs * 1e3, 4)),
                ("cold_speedup", num(shared_speedup, 3)),
                ("memoized_speedup", num(warm_speedup, 1)),
            ]),
        )
        .field(
            "solver_workspace",
            obj([
                ("matrix", matrix.as_str().into()),
                ("iterations", seed_iters.into()),
                ("reps", ws_reps.into()),
                ("solves_per_rep", solves_per_rep.into()),
                ("seed_clone_per_iter_us", num(seed_secs * 1e6, 1)),
                ("workspace_us", num(lean_secs * 1e6, 1)),
                ("speedup", num(ws_speedup, 3)),
                ("bit_identical", true.into()),
            ]),
        )
        .field(
            "solver_work",
            obj([
                ("active_set_pivots", exact.solver_iterations.into()),
                ("fista_iterations", fista.solver_iterations.into()),
                ("active_set_iteration_ratio", num(work_ratio, 3)),
                ("active_set_solves", exact.solves.into()),
                ("fista_solves", fista.solves.into()),
                ("active_set_fallbacks", exact.fallbacks.into()),
                ("active_set_unconverged", exact.unconverged.into()),
                ("fista_unconverged", fista.unconverged.into()),
                ("aps", exact_report.final_aps.len().into()),
                ("ap_count_identical", true.into()),
            ]),
        )
        .field(
            "kernel_accel",
            obj([
                ("matrix", matrix.as_str().into()),
                ("reps", kernel_reps.into()),
                ("pairs_per_rep", pairs_per_rep.into()),
                ("kernel_scalar_us", num(scalar_us, 3)),
                ("kernel_vectorized_us", num(kernel_us, 3)),
                ("kernel_wall_speedup", num(kernel_speedup, 3)),
                ("kernel_bit_identical", true.into()),
            ]),
        )
        .notes(NOTES)
        .write("BENCH_pipeline.json");
}
