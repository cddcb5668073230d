//! CS problem construction and Proposition-1 orthogonalized recovery
//! (§4.2.2).
//!
//! For one hypothesized AP with readings at positions `p₁…p_M` and
//! values `r₁…r_M`, the sensing model is `y = Φ_k Ψ θ + ε` where row `i`
//! of `A = Φ_k Ψ` is the model RSS from every grid point evaluated at
//! `pᵢ`, and `θ` is the 1-sparse grid indicator of the AP.
//!
//! Two engineering details (documented in DESIGN.md):
//!
//! * **dBm shift.** `Ψ` entries are dBm values (negative); both `A` and
//!   `y` are shifted by the detection floor so the problem is
//!   non-negative and "large coefficient = strong signal". For an
//!   exactly-1-sparse `θ` the shift is exact, not an approximation.
//! * **Column pruning.** An AP that was heard at position `pᵢ` must lie
//!   within radio range of `pᵢ`; grid columns outside the intersection
//!   of the readings' range disks cannot carry mass and are dropped
//!   before the solve, which both sharpens and accelerates recovery.
//!
//! The orthogonalization follows Proposition 1: with `Q` an orthonormal
//! basis of `A`'s row space and `y'` chosen so that `Qᵀ y' = A† y`, the
//! transformed system `y' = Q θ + ε'` has orthonormal rows, restoring
//! the incoherence ℓ1 recovery needs. `Q` and `y'` come from a pivoted
//! Cholesky of the small `m × m` Gram matrix `A Aᵀ` plus one CholeskyQR
//! re-orthogonalization pass ([`crowdwifi_linalg::whiten`]) — no
//! per-group SVD.
//!
//! Each group is solved by the exact active set ([`ActiveSet`]); a solve
//! it cannot certify is re-solved by plain FISTA
//! ([`CsRecovery::fallback_fista`]).
//!
//! A recovered `θ` stays sparse ([`GridSupport`]): its candidate
//! columns, which are the only grid points pruning leaves in play, with
//! their debiased weights.

use crate::{CoreError, Result};
use crowdwifi_channel::{PathLossModel, RssReading};
use crowdwifi_geo::{Grid, Point};
use crowdwifi_linalg::whiten::whiten;
use crowdwifi_linalg::Matrix;
use crowdwifi_sparsesolve::{
    ActiveSet, AnySolver, Fista, Recovery, SolverWorkspace, SparseRecovery,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cumulative memo and solver statistics of one [`WindowSensing`]
/// workspace, read with [`WindowSensing::stats`].
///
/// A workspace has one owner, which evaluates its hypotheses in order,
/// so every count is a pure function of the window and the engine: the
/// same drive gives the same stats whatever the thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SensingStats {
    /// Group-recovery requests served (memo hits + solves).
    pub lookups: u64,
    /// Requests answered from the memo.
    pub hits: u64,
    /// Requests that ran the ℓ1 solver.
    pub solves: u64,
    /// Total solver iterations across all solves: active-set pivots
    /// plus the iterations of any FISTA fallback.
    pub solver_iterations: u64,
    /// Solves left uncertified: the active set ran out of pivots and
    /// its FISTA fallback also hit the iteration cap (or FISTA, when
    /// selected directly, hit the cap).
    pub unconverged: u64,
    /// Active-set solves that exhausted their pivot budget and were
    /// re-solved on the FISTA path.
    pub fallbacks: u64,
    /// Iteration-budget headroom left by early-converged FISTA solves
    /// (the active set reports none).
    pub iterations_saved: u64,
    /// Path-loss signatures evaluated by group gathers (first reads of
    /// a (grid point, reading) pair).
    pub signature_evals: u64,
}

impl SensingStats {
    /// Adds another window's totals into `self` (used by the pipeline to
    /// aggregate per-drive statistics into the report).
    pub fn merge(&mut self, other: &SensingStats) {
        self.lookups += other.lookups;
        self.hits += other.hits;
        self.solves += other.solves;
        self.solver_iterations += other.solver_iterations;
        self.unconverged += other.unconverged;
        self.fallbacks += other.fallbacks;
        self.iterations_saved += other.iterations_saved;
        self.signature_evals += other.signature_evals;
    }
}

/// Cumulative wall time one [`WindowSensing`] workspace spent in each
/// stage of its hypothesis evaluation, read with
/// [`WindowSensing::stage_times`]. The workspace's one owner runs every
/// stage, so this is that thread's wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageTimes {
    /// Candidate scan plus the signature gather of every group solved,
    /// first-read path-loss evaluations included.
    pub gather: Duration,
    /// Column normalization plus the Proposition-1 factorization.
    pub factorize: Duration,
    /// The ℓ1 solves, including any FISTA fallback.
    pub solve: Duration,
    /// Matched-filter debias.
    pub debias: Duration,
    /// Candidate-mode extraction (memo misses only).
    pub modes: Duration,
    /// Hypothesis scoring: mode-combination BIC scoring plus the EM
    /// re-assignment of readings.
    pub score: Duration,
}

impl StageTimes {
    /// Adds another workspace's stage times into `self` (used by the
    /// pipeline to total a window scored in several blocks).
    pub fn merge(&mut self, other: &StageTimes) {
        self.gather += other.gather;
        self.factorize += other.factorize;
        self.solve += other.solve;
        self.debias += other.debias;
        self.modes += other.modes;
        self.score += other.score;
    }
}

/// A recovered grid indicator `θ` kept sparse: the candidate grid
/// points of one group solve with their debiased weights. Every grid
/// point outside `indices` has `θ = 0` (pruning ruled it out). An empty
/// support is the inconsistent-hypothesis result: no grid point is in
/// radio range of every reading.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GridSupport {
    /// Candidate linear grid indices, strictly ascending.
    pub indices: Vec<usize>,
    /// Debiased weight of each candidate, aligned with `indices`.
    pub weights: Vec<f64>,
}

impl GridSupport {
    /// Scatters the support into a dense `θ` over an `n`-point grid.
    ///
    /// # Panics
    ///
    /// Panics if an index is `>= n`.
    pub fn to_dense(&self, n: usize) -> Vec<f64> {
        let mut theta = vec![0.0; n];
        for (&j, &w) in self.indices.iter().zip(&self.weights) {
            theta[j] = w;
        }
        theta
    }
}

/// Model RSS from `grid_point` heard at `position`, shifted to the
/// detection floor's origin.
fn shifted_model_rss(
    pathloss: &PathLossModel,
    floor_dbm: f64,
    position: Point,
    grid_point: Point,
) -> f64 {
    (pathloss.mean_rss(position.distance(grid_point)) - floor_dbm).max(0.0)
}

/// Memoized candidate-mode extractions, keyed by reading-index set and
/// the relative-threshold bits.
type ModesMemo = HashMap<(Vec<usize>, u64), Vec<crate::centroid::CentroidEstimate>>;

/// Precomputed per-window sensing state shared by every hypothesis.
///
/// One sliding-window round scores dozens of (k, assignment) hypotheses,
/// and each hypothesis re-derives the same physics: which grid points
/// are in radio range of which readings, and the path-loss signatures
/// of those pairs. [`CsRecovery::prepare_window`] finds the in-range
/// pairs once, walking only each reading's lattice box, and lays out
/// one signature slot per pair; [`CsRecovery::recover_group`] then
/// assembles a group's pruned sensing matrix from the slots, evaluating
/// the model only the first time any group reads a pair, and memoizes
/// whole group recoveries by their reading-index set (the same grouping
/// recurs across hypothesized k values and EM refinement passes).
///
/// The workspace has one owner, the thread that scores the window's
/// hypotheses in order, so the slots, memos and counters are plain
/// values filled through `&mut`. A signature and a recovery are pure
/// functions of their inputs, so any recovery order gives the same
/// supports.
#[derive(Debug)]
pub struct WindowSensing {
    /// The preparing engine's path-loss model, detection floor and
    /// radio range: the reach bitsets were built with them, so every
    /// gather fills slots and bounds candidates with them too.
    pathloss: PathLossModel,
    floor_dbm: f64,
    radio_range: f64,
    /// The window's grid.
    grid: Grid,
    /// Position per reading.
    positions: Vec<Point>,
    /// Per grid point, a bitset over readings (`reach_words` words per
    /// column): bit `i` of column `j` is set when grid point `j` lies
    /// within radio range of reading `i`.
    reach: Vec<u64>,
    /// Words per column of `reach`.
    reach_words: usize,
    /// Column `j` owns `signatures[offsets[j]..offsets[j + 1]]`, one slot
    /// per reading it reaches, in reading order (`n + 1` entries).
    offsets: Vec<usize>,
    /// Floor-shifted model RSS of every in-range (grid point, reading)
    /// pair, NaN until a group gather first reads it (a shifted model
    /// RSS is `max(·, 0.0)` of a finite value, so it is never NaN).
    signatures: Vec<f64>,
    /// Floor-shifted observed RSS per reading.
    shifted_rss: Vec<f64>,
    /// Completed group recoveries (the sparse debiased indicators handed
    /// to hypothesis scoring) keyed by reading-index set.
    memo: HashMap<Vec<usize>, Arc<GridSupport>>,
    /// Memoized candidate-mode extractions keyed by reading-index set
    /// and threshold bits (modes are fully determined by both, since
    /// the recovered indicator itself is memoized by index set).
    modes_memo: ModesMemo,
    /// Memo and solver counters.
    stats: SensingStats,
    /// Wall time per hypothesis-evaluation stage.
    pub(crate) stage_times: StageTimes,
}

impl WindowSensing {
    /// Number of readings this workspace was prepared for.
    pub fn readings(&self) -> usize {
        self.positions.len()
    }

    /// Number of in-range (grid point, reading) pairs: the signature
    /// slots a group gather can read.
    pub fn in_range_pairs(&self) -> usize {
        self.signatures.len()
    }

    /// The reach bitset of grid column `j`.
    fn reach_of(&self, j: usize) -> &[u64] {
        &self.reach[j * self.reach_words..(j + 1) * self.reach_words]
    }

    /// Returns the memoized candidate modes for a group, running
    /// `compute` and caching its result on first request.
    pub fn modes_or_compute(
        &mut self,
        idx: &[usize],
        rel_threshold: f64,
        compute: impl FnOnce() -> Vec<crate::centroid::CentroidEstimate>,
    ) -> Vec<crate::centroid::CentroidEstimate> {
        let key = (idx.to_vec(), rel_threshold.to_bits());
        if let Some(modes) = self.modes_memo.get(&key) {
            return modes.clone();
        }
        let start = Instant::now();
        let modes = compute();
        self.stage_times.modes += start.elapsed();
        self.modes_memo.insert(key, modes.clone());
        modes
    }

    /// Cumulative memo and solver statistics (see [`SensingStats`]).
    pub fn stats(&self) -> SensingStats {
        self.stats
    }

    /// Cumulative per-stage time (see [`StageTimes`]).
    pub fn stage_times(&self) -> StageTimes {
        self.stage_times
    }
}

/// Orthogonalized ℓ1 recovery of one AP's grid indicator.
#[derive(Debug, Clone)]
pub struct CsRecovery {
    pathloss: PathLossModel,
    floor_dbm: f64,
    radio_range: f64,
    solver: AnySolver,
    orthogonalize: bool,
}

impl CsRecovery {
    /// Creates a recovery engine.
    ///
    /// `radio_range` bounds how far an AP can be from a position that
    /// heard it (used for column pruning); `floor_dbm` is the detection
    /// floor used as the dBm shift origin.
    pub fn new(pathloss: PathLossModel, radio_range: f64, floor_dbm: f64) -> Self {
        CsRecovery {
            pathloss,
            floor_dbm,
            radio_range,
            solver: AnySolver::from(ActiveSet::default()),
            orthogonalize: true,
        }
    }

    /// The pipeline's FISTA configuration (400 iterations, relative-change
    /// tolerance `1e-7`, `λ` from the active set's `LAMBDA_REL`): the
    /// fallback for active-set solves that run out of pivots, and the
    /// solver to pass to [`CsRecovery::with_solver`] when an experiment
    /// needs the proximal-gradient path itself (the `solver = FISTA`
    /// ablation, the solver-work bench and tests).
    pub fn fallback_fista() -> Fista {
        Fista::default()
            .with_max_iterations(400)
            .with_tolerance(1e-7)
            .expect("fallback tolerance is valid")
    }

    /// Replaces the ℓ1 solver (default: the exact [`ActiveSet`], falling
    /// back to [`CsRecovery::fallback_fista`] for solves it cannot
    /// certify). Accepts anything that converts into [`AnySolver`], e.g.
    /// [`CsRecovery::fallback_fista`] to run FISTA alone, or an `Omp`
    /// for the greedy ablation. Only the active set falls back.
    pub fn with_solver(mut self, solver: impl Into<AnySolver>) -> Self {
        self.solver = solver.into();
        self
    }

    /// Disables the Proposition-1 orthogonalization (ablation switch for
    /// the benches; recovery quality degrades as the paper predicts).
    pub fn without_orthogonalization(mut self) -> Self {
        self.orthogonalize = false;
        self
    }

    /// Whether orthogonalization is enabled.
    pub fn orthogonalize(&self) -> bool {
        self.orthogonalize
    }

    /// The radio range used for column pruning.
    pub fn radio_range(&self) -> f64 {
        self.radio_range
    }

    /// Recovers the grid indicator `θ` of a single hypothesized AP from
    /// the readings assigned to it, as its candidate support (empty when
    /// no grid point is in range of every reading).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when `positions` and `rss`
    /// have different lengths or are empty, and solver/linalg failures
    /// otherwise.
    pub fn recover_single_ap(
        &self,
        grid: &Grid,
        positions: &[Point],
        rss_dbm: &[f64],
    ) -> Result<GridSupport> {
        if positions.is_empty() || positions.len() != rss_dbm.len() {
            return Err(CoreError::InvalidConfig {
                field: "readings",
                reason: format!(
                    "need equal, non-zero counts of positions ({}) and rss ({})",
                    positions.len(),
                    rss_dbm.len()
                ),
            });
        }
        // Column pruning: the AP must be within radio range of every
        // position that heard it, so only the first position's lattice
        // box can hold candidates.
        let candidates: Vec<usize> = grid
            .index_box(positions[0], self.radio_range)
            .iter()
            .filter(|&(_, gp)| positions.iter().all(|p| p.distance(gp) <= self.radio_range))
            .map(|(j, _)| j)
            .collect();
        if candidates.is_empty() {
            // Inconsistent hypothesis (no grid point can explain all
            // readings): return the empty support, the caller's BIC
            // will discard it.
            return Ok(GridSupport::default());
        }

        // A over the pruned columns, one row per column; y shifted to
        // the same origin.
        let m = positions.len();
        let cols = Matrix::from_fn(candidates.len(), m, |jc, i| {
            shifted_model_rss(
                &self.pathloss,
                self.floor_dbm,
                positions[i],
                grid.point(candidates[jc]),
            )
        });
        let y: Vec<f64> = rss_dbm
            .iter()
            .map(|&r| (r - self.floor_dbm).max(0.0))
            .collect();
        let weights = self.solve_pruned(&cols, &y)?.weights;
        Ok(GridSupport {
            indices: candidates,
            weights,
        })
    }

    /// Prepares the window-wide sensing workspace shared by every
    /// hypothesis of one round. See [`WindowSensing`].
    ///
    /// Each reading's reach is found by walking only its lattice box
    /// ([`Grid::index_box`]) and kept as a bitset per grid point, so a
    /// group's candidate columns cost one masked comparison per column.
    /// No path-loss value is evaluated here: every in-range pair gets a
    /// signature slot that the first group gather to read it fills.
    pub fn prepare_window(&self, grid: &Grid, readings: &[RssReading]) -> WindowSensing {
        let m = readings.len();
        let n = grid.len();
        let reach_words = m.div_ceil(64);
        let mut reach = vec![0_u64; n * reach_words];
        // Per-column pair counts, shifted by one so the prefix sum below
        // turns them into slot offsets in place.
        let mut offsets = vec![0_usize; n + 1];
        for (i, reading) in readings.iter().enumerate() {
            for (j, gp) in grid.index_box(reading.position, self.radio_range).iter() {
                if reading.position.distance(gp) <= self.radio_range {
                    reach[j * reach_words + i / 64] |= 1 << (i % 64);
                    offsets[j + 1] += 1;
                }
            }
        }
        for j in 0..n {
            offsets[j + 1] += offsets[j];
        }
        let signatures = vec![f64::NAN; offsets[n]];
        let shifted_rss = readings
            .iter()
            .map(|r| (r.rss_dbm - self.floor_dbm).max(0.0))
            .collect();
        WindowSensing {
            pathloss: self.pathloss,
            floor_dbm: self.floor_dbm,
            radio_range: self.radio_range,
            grid: grid.clone(),
            positions: readings.iter().map(|r| r.position).collect(),
            reach,
            reach_words,
            offsets,
            signatures,
            shifted_rss,
            memo: HashMap::new(),
            modes_memo: HashMap::new(),
            stats: SensingStats::default(),
            stage_times: StageTimes::default(),
        }
    }

    /// Recovers the grid indicator of one hypothesized AP from the
    /// readings at `idx` (indices into the window `sensing` was prepared
    /// for), reading the window's signature slots and memoizing the
    /// result by index set. Reach, candidates and signatures follow the
    /// model of the engine that prepared `sensing`; this engine supplies
    /// the solver.
    ///
    /// Produces exactly the same support as
    /// [`CsRecovery::recover_single_ap`] called on the corresponding
    /// position/RSS subsets, whatever order groups are recovered in.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty or out-of-range
    /// index set, and solver/linalg failures otherwise.
    pub fn recover_group(
        &self,
        sensing: &mut WindowSensing,
        idx: &[usize],
    ) -> Result<Arc<GridSupport>> {
        let m_all = sensing.readings();
        if idx.is_empty() || idx.iter().any(|&i| i >= m_all) {
            return Err(CoreError::InvalidConfig {
                field: "idx",
                reason: format!("need non-empty indices within 0..{m_all}, got {idx:?}"),
            });
        }
        sensing.stats.lookups += 1;
        if let Some(hit) = sensing.memo.get(idx) {
            sensing.stats.hits += 1;
            return Ok(hit.clone());
        }

        let gather_start = Instant::now();
        let mut group = vec![0_u64; sensing.reach_words];
        for &i in idx {
            group[i / 64] |= 1 << (i % 64);
        }
        // Every candidate reaches the group's first reading, so only
        // that reading's lattice box can hold one; rows and columns are
        // walked in ascending grid-index order.
        let boxed = sensing
            .grid
            .index_box(sensing.positions[idx[0]], sensing.radio_range);
        let nx = sensing.grid.nx();
        let mut candidates = Vec::with_capacity(boxed.len());
        for y in boxed.rows() {
            for j in y * nx + boxed.cols().start..y * nx + boxed.cols().end {
                let col = sensing.reach_of(j);
                if col.iter().zip(&group).all(|(&c, &g)| c & g == g) {
                    candidates.push(j);
                }
            }
        }
        let theta = if candidates.is_empty() {
            sensing.stage_times.gather += gather_start.elapsed();
            GridSupport::default()
        } else {
            // A slot's position in its column is the reading's rank
            // among the readings the column reaches: the set bits of
            // the column's bitset below the reading's bit.
            let lanes: Vec<(usize, u64)> = idx
                .iter()
                .map(|&i| (i / 64, (1_u64 << (i % 64)) - 1))
                .collect();
            let mut cols = Vec::with_capacity(candidates.len() * idx.len());
            for &j in &candidates {
                let col = &sensing.reach[j * sensing.reach_words..(j + 1) * sensing.reach_words];
                let slots = &mut sensing.signatures[sensing.offsets[j]..sensing.offsets[j + 1]];
                let mut gp = None;
                for (&i, &(word, below)) in idx.iter().zip(&lanes) {
                    let before: u32 = col[..word].iter().map(|c| c.count_ones()).sum();
                    let slot = &mut slots[(before + (col[word] & below).count_ones()) as usize];
                    if slot.is_nan() {
                        let gp = *gp.get_or_insert_with(|| sensing.grid.point(j));
                        *slot = shifted_model_rss(
                            &sensing.pathloss,
                            sensing.floor_dbm,
                            sensing.positions[i],
                            gp,
                        );
                        sensing.stats.signature_evals += 1;
                    }
                    cols.push(*slot);
                }
            }
            let cols = Matrix::from_vec(candidates.len(), idx.len(), cols)
                .expect("one entry per (candidate, reading)");
            let y: Vec<f64> = idx.iter().map(|&i| sensing.shifted_rss[i]).collect();
            sensing.stage_times.gather += gather_start.elapsed();
            let solve = self.solve_pruned(&cols, &y)?;
            let [factorize, solve_time, debias] = solve.stage_times;
            sensing.stage_times.factorize += factorize;
            sensing.stage_times.solve += solve_time;
            sensing.stage_times.debias += debias;
            let stats = &mut sensing.stats;
            stats.solves += 1;
            stats.solver_iterations += solve.iterations as u64;
            stats.unconverged += u64::from(!solve.converged);
            stats.fallbacks += u64::from(solve.fallback);
            stats.iterations_saved += solve.iterations_saved as u64;
            GridSupport {
                indices: candidates,
                weights: solve.weights,
            }
        };
        let theta = Arc::new(theta);
        sensing.memo.insert(idx.to_vec(), theta.clone());
        Ok(theta)
    }

    /// The system the ℓ1 solver sees for the column-normalized `a`: the
    /// Proposition-1 operator and observation, or `(a, y)` itself when
    /// orthogonalization is off.
    fn prop1_operator(&self, a: Matrix, y: &[f64]) -> Result<(Matrix, Vec<f64>)> {
        if !self.orthogonalize {
            return Ok((a, y.to_vec()));
        }
        // Proposition 1 by whitening A from its m × m Gram matrix —
        // pivoted Cholesky under the √ε·σ_max rank rule (squared: pivots
        // above ε·λ_max(AAᵀ)), Q = C⁻¹ A_S on the pivot rows, y' = L⁺ y,
        // then one CholeskyQR pass so Q's rows are orthonormal to
        // round-off. Keeping noise-level directions would divide y' by
        // them and inflate ‖Qᵀy'‖∞ — and with it the relative ℓ1 weight
        // λ — enough to shrink away genuinely weak APs.
        let w = whiten(&a, y).map_err(|e| CoreError::Solver(e.to_string()))?;
        Ok((w.q, w.y))
    }

    /// Normalizes, (optionally) orthogonalizes, solves and debiases the
    /// pruned system, returning one weight per candidate column. Shared
    /// by the direct and workspace recovery paths. `cols` holds the
    /// pruned sensing matrix column-contiguously (row `jc` is the
    /// signature of candidate `jc` over the group's readings).
    fn solve_pruned(&self, cols: &Matrix, y: &[f64]) -> Result<GroupSolve> {
        let started = Instant::now();
        let (sumsq, norms, a) = normalize_columns(cols);
        let (op, rhs) = self.prop1_operator(a, y)?;
        let factorized = Instant::now();
        // One workspace per solve keeps the iterative solvers'
        // per-iteration vectors (x/z/gradients) in reused buffers instead
        // of fresh heap allocations every step.
        let solve = |solver: &AnySolver| -> Result<Recovery> {
            Ok(solver.recover_with(&op, &rhs, &mut SolverWorkspace::new())?)
        };
        let (recovery, fallback) = settle(&self.solver, solve(&self.solver)?, || {
            solve(&AnySolver::from(Self::fallback_fista()))
        })?;
        let solved = Instant::now();

        // Un-scale the pruned solution.
        let mut pruned: Vec<f64> = recovery
            .solution
            .iter()
            .zip(&norms)
            .map(|(s, nm)| s / nm)
            .collect();

        // Debias by matched-filter rescoring over *all* candidate
        // columns. ℓ1 shrinkage both spreads mass over near-collinear
        // columns and — on nearly flat signatures from short colinear
        // stretches — can drop the true column from its support
        // entirely, so restricting the rescoring to the ℓ1 support is
        // not safe. Since each per-AP indicator is exactly 1-sparse,
        // every candidate column can be scored by how well it *alone*
        // explains `y` (`c_j = ⟨a_j, y⟩ / ‖a_j‖²`, relative residual
        // `ρ_j`); the ℓ1 coefficients survive as a multiplicative soft
        // prior on the final weights. One caveat the rescoring cannot
        // fix: readings taken on a single straight line leave a mirror
        // ambiguity (columns reflected across the trajectory have
        // *identical* signatures) — the recovered θ is then bimodal and
        // the hypothesis-selection stage disambiguates using the rest
        // of the window (see `select`).
        let max_coef = pruned.iter().cloned().fold(0.0_f64, f64::max);
        let scored = matched_filter_scores(cols, &sumsq, y);
        if !scored.is_empty() {
            let res_min = scored.iter().map(|s| s.2).fold(f64::INFINITY, f64::min);
            let scale = res_min.max(0.01);
            let l1_rel: Vec<f64> = pruned
                .iter()
                .map(|&p| if max_coef > 0.0 { p / max_coef } else { 0.0 })
                .collect();
            for p in pruned.iter_mut() {
                *p = 0.0;
            }
            for &(j, cj, relres) in &scored {
                let w = (-((relres * relres - res_min * res_min) / (2.0 * scale * scale))).exp();
                pruned[j] = cj * w * (0.5 + 0.5 * l1_rel[j]);
            }
        }

        let debiased = Instant::now();
        Ok(GroupSolve {
            weights: pruned,
            iterations: recovery.iterations,
            converged: recovery.converged,
            fallback,
            iterations_saved: recovery.iterations_saved,
            stage_times: [factorized - started, solved - factorized, debiased - solved],
        })
    }
}

/// Result of one pruned group solve: the debiased weight per candidate
/// column plus the solver's convergence diagnostics (fed into
/// [`SensingStats`]).
struct GroupSolve {
    weights: Vec<f64>,
    iterations: usize,
    converged: bool,
    /// Whether the active set gave up and FISTA produced the solution.
    fallback: bool,
    iterations_saved: usize,
    /// Wall time of the factorize, solve and debias stages.
    stage_times: [Duration; 3],
}

/// Column normalization of a column-contiguous pruned sensing matrix
/// (row `j` of `cols` is column `j`): RSS signatures of near columns
/// have much larger norms than far ones, which biases ℓ1 toward
/// trajectory-adjacent grid points, so every column is scaled to unit
/// norm — the convention CS theory assumes — and the solution is
/// un-scaled afterwards so θ keeps its indicator interpretation.
/// Returns each column's sum of squares (accumulated top to bottom from
/// -0.0, like `Matrix::col_sumsq`, and reused by the debias), the
/// norms, and the normalized `m × N` matrix.
fn normalize_columns(cols: &Matrix) -> (Vec<f64>, Vec<f64>, Matrix) {
    let sumsq: Vec<f64> = (0..cols.rows())
        .map(|j| {
            let mut acc = -0.0;
            for &x in cols.row(j) {
                acc += x * x;
            }
            acc
        })
        .collect();
    let norms: Vec<f64> = sumsq.iter().map(|ss| ss.sqrt().max(1e-12)).collect();
    let a = Matrix::from_fn(cols.cols(), cols.rows(), |i, j| cols.get(j, i) / norms[j]);
    (sumsq, norms, a)
}

/// Scores every candidate column by how well it alone explains `y`:
/// `(j, c_j, ρ_j)` with `c_j = max(⟨a_j, y⟩ / ‖a_j‖², 0)` and `ρ_j` the
/// relative residual `‖y − c_j a_j‖ / ‖y‖`, skipping all-zero columns.
/// `cols` holds the raw columns contiguously and `sumsq` their sums of
/// squares. Both reductions run top to bottom from -0.0, exactly like
/// `Matrix::col_dot` and `vector::norm2`; the residual is formed
/// explicitly, since the shortcut `‖y‖² − ⟨a_j, y⟩²/‖a_j‖²` rounds
/// differently.
fn matched_filter_scores(cols: &Matrix, sumsq: &[f64], y: &[f64]) -> Vec<(usize, f64, f64)> {
    let ynorm = crowdwifi_linalg::vector::norm2(y).max(1e-12);
    let mut scored = Vec::with_capacity(sumsq.len());
    for (j, &cc) in sumsq.iter().enumerate() {
        if cc <= 0.0 {
            continue;
        }
        let col = cols.row(j);
        let mut dot = -0.0;
        for (&x, &yy) in col.iter().zip(y) {
            dot += x * yy;
        }
        let cj = (dot / cc).max(0.0);
        let mut res2 = -0.0;
        for (&x, &yy) in col.iter().zip(y) {
            let r = yy - cj * x;
            res2 += r * r;
        }
        scored.push((j, cj, res2.sqrt() / ynorm));
    }
    scored
}

/// Accepts `solver`'s `first` solve, or — when an active set could not
/// certify it — the FISTA fallback computed by `refit`, whose iterations
/// then include the spent pivots. Returns the kept recovery and whether
/// the fallback ran.
fn settle(
    solver: &AnySolver,
    first: Recovery,
    refit: impl FnOnce() -> Result<Recovery>,
) -> Result<(Recovery, bool)> {
    let mut recovery = first;
    let fallback = !recovery.converged && matches!(solver, AnySolver::ActiveSet(_));
    if fallback {
        let pivots = recovery.iterations;
        recovery = refit()?;
        recovery.iterations += pivots;
    }
    Ok((recovery, fallback))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdwifi_geo::Rect;

    fn grid_100() -> Grid {
        let area = Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)).unwrap();
        Grid::new(area, 10.0).unwrap()
    }

    fn engine() -> CsRecovery {
        CsRecovery::new(PathLossModel::uci_campus(), 100.0, -95.0)
    }

    /// Fading-free readings from an AP at `ap` heard at `positions`.
    fn clean_rss(ap: Point, positions: &[Point]) -> Vec<f64> {
        let model = PathLossModel::uci_campus();
        positions
            .iter()
            .map(|p| model.mean_rss(p.distance(ap)))
            .collect()
    }

    /// An L-shaped drive: east along y = 0, then north along x = 75.
    /// A turning route is essential — readings on one straight line
    /// leave a mirror ambiguity about which side of the road the AP is
    /// on (see the module docs).
    fn l_route() -> Vec<Point> {
        let mut route: Vec<Point> = (0..6).map(|i| Point::new(15.0 * i as f64, 0.0)).collect();
        route.extend((1..5).map(|i| Point::new(75.0, 15.0 * i as f64)));
        route
    }

    #[test]
    fn recovers_ap_on_grid_point() {
        let grid = grid_100();
        let ap_idx = grid.nearest_index(Point::new(45.0, 45.0));
        let ap = grid.point(ap_idx);
        let positions = l_route();
        let rss = clean_rss(ap, &positions);
        let theta = engine()
            .recover_single_ap(&grid, &positions, &rss)
            .unwrap()
            .to_dense(grid.len());
        // Dominant coefficient on the true grid point.
        let best = (0..theta.len())
            .max_by(|&a, &b| theta[a].partial_cmp(&theta[b]).unwrap())
            .unwrap();
        assert_eq!(best, ap_idx, "peak at {} expected {}", best, ap_idx);
    }

    #[test]
    fn off_grid_ap_recovers_to_neighborhood() {
        let grid = grid_100();
        let ap = Point::new(43.0, 47.0); // intentionally off-lattice
        let positions = l_route();
        let rss = clean_rss(ap, &positions);
        let theta = engine()
            .recover_single_ap(&grid, &positions, &rss)
            .unwrap()
            .to_dense(grid.len());
        let best = (0..theta.len())
            .max_by(|&a, &b| theta[a].partial_cmp(&theta[b]).unwrap())
            .unwrap();
        assert!(
            grid.point(best).distance(ap) <= grid.cell_diagonal(),
            "peak {} is {:.1} m away",
            best,
            grid.point(best).distance(ap)
        );
    }

    #[test]
    fn pruning_returns_zero_for_inconsistent_hypothesis() {
        let grid = grid_100();
        // Two readings 300 m apart with a 100 m radio range: no grid
        // point is in range of both.
        let engine = CsRecovery::new(PathLossModel::uci_campus(), 100.0, -95.0);
        let positions = [Point::new(-150.0, 50.0), Point::new(250.0, 50.0)];
        let theta = engine
            .recover_single_ap(&grid, &positions, &[-60.0, -60.0])
            .unwrap();
        assert_eq!(theta, GridSupport::default());
    }

    #[test]
    fn orthogonalization_ablation_still_runs() {
        let grid = grid_100();
        let ap = grid.point(grid.nearest_index(Point::new(55.0, 55.0)));
        let positions: Vec<Point> = (0..6)
            .map(|i| Point::new(20.0 + 12.0 * i as f64, 40.0))
            .collect();
        let rss = clean_rss(ap, &positions);
        let plain = engine()
            .without_orthogonalization()
            .recover_single_ap(&grid, &positions, &rss)
            .unwrap();
        assert!(plain.weights.iter().any(|&x| x > 0.0));
    }

    #[test]
    fn rejects_mismatched_inputs() {
        let grid = grid_100();
        assert!(matches!(
            engine().recover_single_ap(&grid, &[Point::new(0.0, 0.0)], &[]),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            engine().recover_single_ap(&grid, &[], &[]),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    /// Clean readings of an AP at `ap` taken at `route`, in order.
    fn readings_along(ap: Point, route: &[Point]) -> Vec<crowdwifi_channel::RssReading> {
        route
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                crowdwifi_channel::RssReading::new(
                    p,
                    PathLossModel::uci_campus().mean_rss(p.distance(ap)),
                    i as f64,
                )
            })
            .collect()
    }

    /// Every group recovered through a prepared window must be
    /// bit-identical to the direct per-subset recovery.
    fn assert_workspace_matches_direct(
        engine: &CsRecovery,
        grid: &Grid,
        readings: &[crowdwifi_channel::RssReading],
        groups: &[Vec<usize>],
    ) -> WindowSensing {
        let mut sensing = engine.prepare_window(grid, readings);
        for idx in groups {
            let positions: Vec<Point> = idx.iter().map(|&i| readings[i].position).collect();
            let rss: Vec<f64> = idx.iter().map(|&i| readings[i].rss_dbm).collect();
            let direct = engine.recover_single_ap(grid, &positions, &rss).unwrap();
            let shared = engine.recover_group(&mut sensing, idx).unwrap();
            assert_eq!(direct, *shared, "subset {idx:?} diverged");
        }
        sensing
    }

    #[test]
    fn workspace_recovery_matches_direct_path() {
        let grid = grid_100();
        let ap = grid.point(grid.nearest_index(Point::new(45.0, 45.0)));
        let readings = readings_along(ap, &l_route());
        let engine = engine();
        // Whole window, a prefix group and a strided group.
        let groups: [Vec<usize>; 3] = [
            (0..readings.len()).collect(),
            (0..4).collect(),
            (0..readings.len()).step_by(2).collect(),
        ];
        let mut sensing = assert_workspace_matches_direct(&engine, &grid, &readings, &groups);
        assert_eq!(sensing.stats().solves, groups.len() as u64);
        // A repeated query is served from the memo (same Arc).
        let again = engine.recover_group(&mut sensing, &groups[1]).unwrap();
        let first = engine.recover_group(&mut sensing, &groups[1]).unwrap();
        assert!(Arc::ptr_eq(&again, &first));
        assert_eq!(sensing.stats().solves, groups.len() as u64);
    }

    /// The range-restricted signatures on a window far wider than the
    /// radio range: a 700 m L-shaped drive of 70 readings (two reach
    /// words per column) over a 520 × 240 m lattice, where most grid
    /// points are out of range of most readings.
    #[test]
    fn range_restricted_window_matches_direct_path() {
        let area = Rect::new(Point::new(0.0, -20.0), Point::new(520.0, 220.0)).unwrap();
        let grid = Grid::new(area, 10.0).unwrap();
        let mut route: Vec<Point> = (0..50).map(|i| Point::new(10.0 * i as f64, 0.0)).collect();
        route.extend((0..20).map(|i| Point::new(500.0, 10.0 * i as f64)));
        let readings = readings_along(Point::new(250.0, 40.0), &route);
        let engine = engine();
        let groups: Vec<Vec<usize>> = vec![
            (0..readings.len()).collect(),
            (18..30).collect(),
            (15..45).step_by(7).collect(),
            (44..56).collect(),
            (60..70).collect(),
            vec![3],
        ];
        let mut sensing = assert_workspace_matches_direct(&engine, &grid, &readings, &groups);
        let in_range = sensing.reach.iter().map(|w| w.count_ones()).sum::<u32>() as usize;
        let pairs = readings.len() * grid.len();
        assert!(in_range * 4 < pairs, "{in_range} of {pairs} pairs in range");
        // One slot per in-range pair, each evaluated at most once.
        assert_eq!(sensing.in_range_pairs(), in_range);
        let evals = sensing.stats().signature_evals as usize;
        assert!(evals > 0 && evals <= in_range, "{evals} evaluations");
        // A memo hit evaluates nothing.
        engine.recover_group(&mut sensing, &groups[1]).unwrap();
        assert_eq!(sensing.stats().signature_evals as usize, evals);

        // Slots and candidate boxes follow the model the workspace was
        // prepared with, whichever engine recovers a group.
        let other = CsRecovery::new(PathLossModel::uci_campus(), 40.0, -80.0);
        let mut fresh = engine.prepare_window(&grid, &readings);
        for idx in &groups {
            let shared = other.recover_group(&mut fresh, idx).unwrap();
            assert_eq!(sensing.memo[idx], shared);
        }
    }

    #[test]
    fn workspace_rejects_bad_indices() {
        let grid = grid_100();
        let readings = vec![crowdwifi_channel::RssReading::new(
            Point::new(10.0, 10.0),
            -60.0,
            0.0,
        )];
        let engine = engine();
        let mut sensing = engine.prepare_window(&grid, &readings);
        assert!(engine.recover_group(&mut sensing, &[]).is_err());
        assert!(engine.recover_group(&mut sensing, &[5]).is_err());
    }

    /// Twelve readings 1 m apart along a straight road with centimetre
    /// jitter: the group's signatures are nearly colinear and its
    /// spectrum decays into round-off. The Proposition-1 operator must still have
    /// orthonormal rows — the ℓ1 program is only rotation-invariant for
    /// an orthonormal basis.
    #[test]
    fn near_colinear_group_has_an_orthonormal_operator() {
        let grid = grid_100();
        let positions: Vec<Point> = (0..12)
            .map(|i| Point::new(5.0 + i as f64, 50.0 + 0.02 * (i % 3) as f64))
            .collect();
        let rss = clean_rss(Point::new(40.0, 70.0), &positions);
        let engine = engine();
        let candidates: Vec<usize> = (0..grid.len())
            .filter(|&j| {
                let gp = grid.point(j);
                positions
                    .iter()
                    .all(|p| p.distance(gp) <= engine.radio_range())
            })
            .collect();
        let cols = Matrix::from_fn(candidates.len(), positions.len(), |jc, i| {
            shifted_model_rss(
                &engine.pathloss,
                engine.floor_dbm,
                positions[i],
                grid.point(candidates[jc]),
            )
        });
        let y: Vec<f64> = rss.iter().map(|&r| (r + 95.0).max(0.0)).collect();
        let (_, _, a) = normalize_columns(&cols);
        let (q, y_prime) = engine.prop1_operator(a, &y).unwrap();
        assert!(q.rows() >= 2, "rank {}", q.rows());
        assert_eq!(y_prime.len(), q.rows());
        let err = q
            .matmul(&q.transpose())
            .sub(&Matrix::identity(q.rows()))
            .max_abs();
        assert!(err <= 1e-10, "rows off orthonormal by {err:e}");
    }

    /// The column-contiguous norms and matched-filter scores reproduce,
    /// bit for bit, the strided-column formulas they replace
    /// (`col_norm2`, `col_sumsq`, `col_dot` and an explicit residual
    /// through `vector::norm2`).
    #[test]
    fn contiguous_debias_scores_match_the_strided_formulas() {
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut unit = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for (m, n) in [(1, 5), (7, 40), (12, 171), (13, 3)] {
            // Path-loss-like magnitudes with exact zeros (out of range)
            // and one all-zero column.
            let mut cols = Matrix::from_fn(n, m, |_, _| {
                let u = unit();
                if u < 0.2 {
                    0.0
                } else {
                    60.0 * u
                }
            });
            for i in 0..m {
                cols.set(n / 2, i, 0.0);
            }
            let y: Vec<f64> = (0..m).map(|_| 50.0 * unit()).collect();
            let (sumsq, norms, a) = normalize_columns(&cols);
            let scores = matched_filter_scores(&cols, &sumsq, &y);
            let a_raw = cols.transpose();
            let ynorm = crowdwifi_linalg::vector::norm2(&y).max(1e-12);
            let mut want = Vec::new();
            for (j, &norm) in norms.iter().enumerate() {
                assert_eq!(norm.to_bits(), a_raw.col_norm2(j).max(1e-12).to_bits());
                for i in 0..m {
                    let v = a_raw.get(i, j) / norm;
                    assert_eq!(a.get(i, j).to_bits(), v.to_bits());
                }
                let cc = a_raw.col_sumsq(j);
                if cc <= 0.0 {
                    continue;
                }
                let cj = (a_raw.col_dot(j, &y) / cc).max(0.0);
                let res: Vec<f64> = y
                    .iter()
                    .zip(a_raw.col_iter(j))
                    .map(|(yy, aa)| yy - cj * aa)
                    .collect();
                want.push((j, cj, crowdwifi_linalg::vector::norm2(&res) / ynorm));
            }
            let bits = |v: &[(usize, f64, f64)]| -> Vec<(usize, u64, u64)> {
                v.iter()
                    .map(|&(j, c, r)| (j, c.to_bits(), r.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&scores), bits(&want), "{m}x{n}");
        }
    }

    fn recovery(iterations: usize, converged: bool) -> Recovery {
        Recovery {
            solution: vec![0.5, 0.0],
            iterations,
            residual_norm: 0.1,
            converged,
            iterations_saved: 0,
        }
    }

    /// An uncertified active-set solve is replaced by the fallback, its
    /// pivots added to the fallback's iterations; a certified one, or an
    /// uncertified solve of any other family, is kept as is.
    #[test]
    fn uncertified_active_set_solves_fall_back() {
        let active = AnySolver::from(ActiveSet::default());
        let fista = AnySolver::from(CsRecovery::fallback_fista());
        let refit = || Ok(recovery(400, false));

        let (rec, fallback) = settle(&active, recovery(7, false), refit).unwrap();
        assert!(fallback);
        assert_eq!(rec, recovery(407, false));

        let unused = || -> Result<Recovery> { panic!("no fallback expected") };
        let (rec, fallback) = settle(&active, recovery(3, true), unused).unwrap();
        assert!(!fallback);
        assert_eq!(rec, recovery(3, true));
        let (rec, fallback) = settle(&fista, recovery(400, false), unused).unwrap();
        assert!(!fallback);
        assert_eq!(rec, recovery(400, false));

        // The certified default never falls back on this clean drive.
        let grid = grid_100();
        let ap = grid.point(grid.nearest_index(Point::new(45.0, 45.0)));
        let readings = readings_along(ap, &l_route());
        let idx: Vec<usize> = (0..readings.len()).collect();
        let default = engine();
        let mut sensing = default.prepare_window(&grid, &readings);
        default.recover_group(&mut sensing, &idx).unwrap();
        let stats = sensing.stats();
        assert_eq!(
            (stats.solves, stats.fallbacks, stats.unconverged),
            (1, 0, 0)
        );
    }

    #[test]
    fn stats_merge_sums_every_field() {
        let a = SensingStats {
            lookups: 1,
            hits: 2,
            solves: 3,
            solver_iterations: 4,
            unconverged: 5,
            fallbacks: 9,
            iterations_saved: 7,
            signature_evals: 11,
        };
        let mut total = a;
        total.merge(&a);
        assert_eq!(
            total,
            SensingStats {
                lookups: 2,
                hits: 4,
                solves: 6,
                solver_iterations: 8,
                unconverged: 10,
                fallbacks: 18,
                iterations_saved: 14,
                signature_evals: 22,
            }
        );
    }

    #[test]
    fn single_reading_recovery_is_well_defined() {
        let grid = grid_100();
        let ap = grid.point(grid.nearest_index(Point::new(45.0, 45.0)));
        let p = [Point::new(40.0, 40.0)];
        let rss = clean_rss(ap, &p);
        let theta = engine().recover_single_ap(&grid, &p, &rss).unwrap();
        // With one measurement the solution is underdetermined but must
        // be finite and non-negative.
        assert!(theta.weights.iter().all(|&x| x.is_finite() && x >= 0.0));
        assert!(theta.weights.iter().any(|&x| x > 0.0));
    }
}
