//! The assembled online CS estimator (workflow of Fig. 2).
//!
//! [`OnlineCs`] wires together the sliding window, per-round grid
//! formation, hypothesis generation, orthogonalized ℓ1 recovery,
//! centroid processing, BIC selection and credit-based consolidation.
//! Use [`OnlineCs::run`] for batch processing of a recorded drive, or
//! [`OnlineCs::session`] to feed readings one at a time as the vehicle
//! moves.

use crate::assign::ClusterAssigner;
use crate::consolidate::{ApEstimate, Consolidator};
use crate::obs::PipelineInstruments;
use crate::recovery::{CsRecovery, SensingStats, StageTimes};
use crate::select::{estimate_round, RoundEstimate, Scored};
use crate::window::{SlidingWindow, WindowConfig};
use crate::{CoreError, Result};
use crowdwifi_channel::{GmmModel, PathLossModel, RssReading};
use crowdwifi_geo::{Grid, Point};
use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of the online CS pipeline.
///
/// Defaults match the paper's UCI simulation: 60-reading window, step
/// 10, 8 m lattice, 100 m radio range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineCsConfig {
    /// Sliding-window parameters (§4.3.2).
    pub window: WindowConfig,
    /// Lattice edge length in meters (§4.3.1; paper default 8 m).
    pub lattice: f64,
    /// Communication radius `r_m` used for grid expansion and recovery
    /// column pruning (paper: 100 m).
    pub radio_range: f64,
    /// Maximum AP count hypothesized within one window.
    pub max_ap_per_window: usize,
    /// GMM deviation factor `b` in `σ = b·|μ|` (§4.2.1).
    pub sigma_factor: f64,
    /// Relative centroid threshold `ζ` (§4.3.4).
    pub rel_threshold: f64,
    /// Consolidation merge radius in meters (§4.3.6).
    pub merge_radius: f64,
    /// Estimates with credit ≤ this are filtered as spurious (paper: 1).
    pub min_credit: f64,
    /// Detection floor in dBm (shift origin of the recovery).
    pub detection_floor_dbm: f64,
    /// Whether to run the global BIC refinement over all consolidated
    /// candidates at the end of a batch run (see [`crate::refine`]).
    /// When disabled, only the credit filter of §4.3.6 applies.
    pub global_refine: bool,
    /// Worker threads for a session's one fan-out, over the hypothesis
    /// blocks of the windows that one call completes: every window of a
    /// batch run's drive, or the window a [`OnlineCsSession::push`]
    /// completes (`0` = all of the machine's parallelism; see
    /// [`crate::par::resolve_threads`]). Each block's hypotheses run in
    /// order on one thread, and blocks and windows are merged in input
    /// order, so any thread count produces byte-identical estimates and
    /// sensing stats.
    pub threads: usize,
}

impl Default for OnlineCsConfig {
    fn default() -> Self {
        OnlineCsConfig {
            window: WindowConfig::default(),
            lattice: 8.0,
            radio_range: 100.0,
            max_ap_per_window: 4,
            sigma_factor: 0.05,
            rel_threshold: 0.3,
            merge_radius: 12.0,
            min_credit: 1.0,
            detection_floor_dbm: -95.0,
            global_refine: true,
            threads: 0,
        }
    }
}

impl OnlineCsConfig {
    fn validate(&self) -> Result<()> {
        self.window.validate()?;
        if !(self.lattice > 0.0) || !self.lattice.is_finite() {
            return Err(CoreError::InvalidConfig {
                field: "lattice",
                reason: format!("must be positive, got {}", self.lattice),
            });
        }
        if !(self.radio_range > 0.0) || !self.radio_range.is_finite() {
            return Err(CoreError::InvalidConfig {
                field: "radio_range",
                reason: format!("must be positive, got {}", self.radio_range),
            });
        }
        if self.max_ap_per_window == 0 {
            return Err(CoreError::InvalidConfig {
                field: "max_ap_per_window",
                reason: "must be at least 1".to_string(),
            });
        }
        if !(self.rel_threshold > 0.0 && self.rel_threshold <= 1.0) {
            return Err(CoreError::InvalidConfig {
                field: "rel_threshold",
                reason: format!("must be in (0, 1], got {}", self.rel_threshold),
            });
        }
        if !(self.merge_radius >= 0.0) || !self.merge_radius.is_finite() {
            return Err(CoreError::InvalidConfig {
                field: "merge_radius",
                reason: format!("must be non-negative, got {}", self.merge_radius),
            });
        }
        Ok(())
    }
}

/// The online compressive-sensing AP estimator.
///
/// See the crate-level example for end-to-end usage.
#[derive(Debug, Clone)]
pub struct OnlineCs {
    config: OnlineCsConfig,
    gmm: GmmModel,
    assigner: ClusterAssigner,
    recovery: CsRecovery,
    instruments: Arc<PipelineInstruments>,
}

impl OnlineCs {
    /// Creates an estimator for the given channel model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for invalid configuration and
    /// propagates channel-model errors.
    pub fn new(config: OnlineCsConfig, pathloss: PathLossModel) -> Result<Self> {
        config.validate()?;
        let gmm = GmmModel::new(pathloss, config.sigma_factor)?;
        let assigner = ClusterAssigner::new(pathloss);
        let recovery = CsRecovery::new(pathloss, config.radio_range, config.detection_floor_dbm);
        Ok(OnlineCs {
            config,
            gmm,
            assigner,
            recovery,
            instruments: PipelineInstruments::global(),
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &OnlineCsConfig {
        &self.config
    }

    /// Replaces the recovery engine (ablation hook: e.g.
    /// [`CsRecovery::without_orthogonalization`]).
    pub fn with_recovery(mut self, recovery: CsRecovery) -> Self {
        self.recovery = recovery;
        self
    }

    /// Redirects this estimator's metrics into `registry` instead of the
    /// process-wide [`crowdwifi_obs::global`] registry — e.g. a local
    /// [`crowdwifi_obs::Registry`] whose snapshot covers exactly one run.
    pub fn with_registry(mut self, registry: &crowdwifi_obs::Registry) -> Self {
        self.instruments = Arc::new(PipelineInstruments::from_registry(registry));
        self
    }

    /// A window's hypothesis blocks: the AP counts
    /// `1..=max_ap_per_window` in runs of [`K_BLOCK`], highest counts
    /// first. A hypothesis costs more the more APs it has, so the
    /// session's fan-out starts a window's costliest blocks first and
    /// the cheap ones fill in behind them.
    fn k_blocks(&self) -> Vec<RangeInclusive<usize>> {
        let max_k = self.config.max_ap_per_window;
        (1..max_k + 1)
            .step_by(K_BLOCK)
            .rev()
            .map(|lo| lo..=(lo + K_BLOCK - 1).min(max_k))
            .collect()
    }

    /// Scores one hypothesis block of a non-empty window on a workspace
    /// of its own: grid formation, workspace preparation, hypothesis
    /// search.
    fn score_block(&self, round: &[RssReading], ks: RangeInclusive<usize>) -> Result<Block> {
        let positions: Vec<Point> = round.iter().map(|r| r.position).collect();
        let grid =
            Grid::from_reference_points(&positions, self.config.radio_range, self.config.lattice)?;
        let prepare_start = Instant::now();
        let mut sensing = self.recovery.prepare_window(&grid, round);
        let search_start = Instant::now();
        let scored = estimate_round(
            round,
            &grid,
            &self.gmm,
            &self.assigner,
            &self.recovery,
            &mut sensing,
            ks,
            self.config.rel_threshold,
        )?;
        Ok(Block {
            scored,
            stats: sensing.stats(),
            stages: sensing.stage_times(),
            prepare: search_start - prepare_start,
            search: search_start.elapsed(),
        })
    }

    /// Folds a window's blocks (in [`OnlineCs::k_blocks`] order) from the
    /// lowest AP counts up, records the window's metrics and returns its
    /// winner and stats.
    fn finish_window(&self, blocks: Vec<Block>) -> (Option<RoundEstimate>, SensingStats) {
        let window = blocks
            .into_iter()
            .rev()
            .fold(Block::default(), |window, block| window.then(block));
        let est = window.scored.winner();
        self.instruments
            .record_round(est.as_ref(), &window.stats, window.search);
        self.instruments
            .record_stages(window.prepare, &window.stages);
        (est, window.stats)
    }

    /// Batch entry point: runs the full pipeline over a recorded drive
    /// and returns the consolidated, spurious-filtered AP estimates.
    ///
    /// # Errors
    ///
    /// Rejects non-finite readings (see [`OnlineCsSession::push`]) and
    /// propagates round-processing failures.
    pub fn run(&self, readings: &[RssReading]) -> Result<Vec<ApEstimate>> {
        Ok(self.run_detailed(readings)?.final_aps)
    }

    /// Batch entry point that also returns per-round diagnostics: a
    /// [`OnlineCs::session`] fed the whole drive at once, then finished.
    ///
    /// # Errors
    ///
    /// Rejects non-finite readings (see [`OnlineCsSession::push`]) and
    /// propagates round-processing failures.
    pub fn run_detailed(&self, readings: &[RssReading]) -> Result<PipelineReport> {
        let mut session = self.session()?;
        session.feed(readings)?;
        session.finish_detailed()
    }

    /// Whole-drive refinement: the global BIC selection over
    /// `candidates`, then `passes` position-polish passes, each timed
    /// into its stage metric.
    fn refine(
        &self,
        readings: &[RssReading],
        candidates: &[ApEstimate],
        passes: usize,
    ) -> Vec<ApEstimate> {
        let refining = Instant::now();
        let selected = crate::refine::global_bic_selection(readings, candidates, &self.gmm);
        let polishing = Instant::now();
        let polished = crate::refine::polish_positions(
            readings,
            &selected,
            &self.recovery,
            self.config.lattice,
            passes,
        );
        self.instruments
            .record_refinement(polishing - refining, polishing.elapsed());
        polished
    }

    /// Starts a streaming session.
    ///
    /// # Errors
    ///
    /// Propagates window-configuration failures.
    pub fn session(&self) -> Result<OnlineCsSession<'_>> {
        Ok(OnlineCsSession {
            pipeline: self,
            window: SlidingWindow::new(self.config.window)?,
            consolidator: Consolidator::new(self.config.merge_radius),
            history: Vec::new(),
            rounds: Vec::new(),
            sensing: SensingStats::default(),
        })
    }
}

/// The full-strength batch estimator: candidate generation from both a
/// whole-batch CS round and sliding-window rounds, global BIC selection
/// over the pooled candidates, and whole-drive position polish.
///
/// This is the recipe the Fig. 8/Fig. 10 benches use. The plain
/// [`OnlineCs::run`] is the *online* estimator a vehicle runs while
/// driving; `ensemble_run` is what the crowd-server (or an offline
/// analysis) can afford once the whole drive is recorded. `k_hint`
/// bounds how many APs the batch round may hypothesize (use a generous
/// upper bound; the BIC still selects the count).
///
/// # Errors
///
/// Propagates pipeline failures from either internal estimator.
pub fn ensemble_run(
    readings: &[RssReading],
    base: OnlineCsConfig,
    pathloss: PathLossModel,
    k_hint: usize,
) -> Result<Vec<ApEstimate>> {
    if readings.is_empty() {
        return Ok(Vec::new());
    }
    let m = readings.len().max(4);
    let batch_config = OnlineCsConfig {
        window: WindowConfig {
            size: m,
            step: m,
            ttl: f64::INFINITY,
        },
        max_ap_per_window: k_hint.max(1) + 5,
        global_refine: false, // selection happens over the pooled set
        ..base
    };
    let windowed_config = OnlineCsConfig {
        window: WindowConfig {
            size: 40.min(m),
            step: 20.min(m),
            ttl: base.window.ttl,
        },
        max_ap_per_window: base.max_ap_per_window.max(6),
        global_refine: false,
        ..base
    };
    let batch = OnlineCs::new(batch_config, pathloss)?;
    let windowed = OnlineCs::new(windowed_config, pathloss)?;
    let mut candidates = batch.run_detailed(readings)?.all_estimates;
    candidates.extend(windowed.run_detailed(readings)?.all_estimates);
    // The batch estimator shares `base`'s channel model, radio range,
    // detection floor and lattice, which is all the refinement reads.
    Ok(batch.refine(readings, &candidates, 4))
}

/// AP counts per hypothesis block. A window is scored in blocks of
/// consecutive AP counts, each on its own [`crate::recovery::WindowSensing`]
/// workspace, and a session's fan-out spreads the blocks over its
/// threads, so a single wide window (the batch round of
/// [`ensemble_run`], or a streamed window) still uses every core.
/// Blocks share no memo, and consecutive counts share the most groups,
/// so a narrower block buys balance with repeated recoveries. A window
/// with at most this many AP counts (the default configuration's) is
/// one block, and the split depends on the configuration only, never on
/// the thread count.
const K_BLOCK: usize = 4;

/// One hypothesis block's outcome, or a window's total over its blocks.
#[derive(Debug, Default)]
struct Block {
    scored: Scored,
    stats: SensingStats,
    stages: StageTimes,
    /// Workspace preparation time.
    prepare: Duration,
    /// Hypothesis-search wall time.
    search: Duration,
}

impl Block {
    /// Folds the window's next block into `self`.
    fn then(mut self, next: Block) -> Block {
        self.scored = self.scored.then(next.scored);
        self.stats.merge(&next.stats);
        self.stages.merge(&next.stages);
        self.prepare += next.prepare;
        self.search += next.search;
        self
    }
}

/// Output of [`OnlineCs::run_detailed`].
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// Consolidated estimates that survived the spurious filter.
    pub final_aps: Vec<ApEstimate>,
    /// All consolidated estimates, including single-credit ones.
    pub all_estimates: Vec<ApEstimate>,
    /// The BIC-winning hypothesis of every round, in order.
    pub rounds: Vec<RoundEstimate>,
    /// Drive-total memo/solver statistics summed over every window —
    /// the accounting behind the `solver_work` bench section (solves,
    /// iterations, fallbacks).
    pub sensing: SensingStats,
}

/// A streaming pipeline session; see [`OnlineCs::session`]. It is the
/// estimator's one driver: [`OnlineCs::run_detailed`] is a session fed
/// the whole drive at once.
#[derive(Debug)]
pub struct OnlineCsSession<'a> {
    pipeline: &'a OnlineCs,
    window: SlidingWindow,
    consolidator: Consolidator,
    history: Vec<RssReading>,
    rounds: Vec<RoundEstimate>,
    sensing: SensingStats,
}

impl OnlineCsSession<'_> {
    /// Pushes `readings` through the sliding window, scores every window
    /// they complete and folds them into the session; returns whether
    /// any window completed. A reading with a non-finite RSS or position
    /// is rejected before any state changes.
    fn feed(&mut self, readings: &[RssReading]) -> Result<bool> {
        for (i, r) in (self.history.len()..).zip(readings) {
            if !r.rss_dbm.is_finite() {
                return Err(CoreError::Channel(format!(
                    "reading {i}: non-finite RSS {} dBm",
                    r.rss_dbm
                )));
            }
            if !r.position.is_finite() {
                return Err(CoreError::Geometry(format!(
                    "reading {i}: non-finite position {}",
                    r.position
                )));
            }
        }
        self.history.extend_from_slice(readings);
        let windows: Vec<_> = readings
            .iter()
            .filter_map(|r| self.window.push(*r))
            .collect();
        self.score(&windows)?;
        Ok(!windows.is_empty())
    }

    /// Scores `windows` in the estimator's only parallel region, one
    /// workspace per (window, hypothesis block) pair, then folds each
    /// window's winner and alternates into the consolidator strictly in
    /// order, so it sees the sequence a serial run produces (credit
    /// accumulation is order-sensitive).
    fn score(&mut self, windows: &[Vec<RssReading>]) -> Result<()> {
        let pipeline = self.pipeline;
        let k_blocks = pipeline.k_blocks();
        let units: Vec<(&[RssReading], &RangeInclusive<usize>)> = windows
            .iter()
            .flat_map(|round| k_blocks.iter().map(move |ks| (round.as_slice(), ks)))
            .collect();
        let mut blocks =
            crate::par::try_par_map(&units, pipeline.config.threads, |_, (round, ks)| {
                pipeline.score_block(round, (*ks).clone())
            })?
            .into_iter();
        for _ in windows {
            let window = blocks.by_ref().take(k_blocks.len()).collect();
            let (est, stats) = pipeline.finish_window(window);
            self.sensing.merge(&stats);
            if let Some(est) = est {
                let mut merged = self.consolidator.merge_round(&est.aps);
                for &alt in &est.alternates {
                    if self.consolidator.merge_one(alt, 0.25) {
                        merged += 1;
                    }
                }
                let total = est.aps.len() + est.alternates.len();
                pipeline.instruments.record_consolidation(merged, total);
                self.rounds.push(est);
            }
        }
        Ok(())
    }

    /// Feeds one reading. When a round completes, processes it and
    /// returns the **current** filtered AP estimates.
    ///
    /// # Errors
    ///
    /// Rejects a reading with a non-finite RSS ([`CoreError::Channel`])
    /// or position ([`CoreError::Geometry`]), leaving the session as it
    /// was, and propagates round-processing failures.
    pub fn push(&mut self, reading: RssReading) -> Result<Option<Vec<ApEstimate>>> {
        let completed = self.feed(&[reading])?;
        Ok(completed.then(|| self.consolidator.filtered(self.pipeline.config.min_credit)))
    }

    /// Ends the session: processes any partial round and returns the
    /// final filtered estimates.
    ///
    /// # Errors
    ///
    /// Propagates round-processing failures.
    pub fn finish(self) -> Result<Vec<ApEstimate>> {
        Ok(self.finish_detailed()?.final_aps)
    }

    /// [`OnlineCsSession::finish`] with the whole report: scores the
    /// partial round, then refines (or credit-filters) the candidates.
    fn finish_detailed(mut self) -> Result<PipelineReport> {
        if let Some(round) = self.window.flush() {
            self.score(&[round])?;
        }
        let config = &self.pipeline.config;
        let final_aps = if config.global_refine {
            // Global refinement sees *all* candidates, including
            // single-credit ones a weak AP may only have earned once.
            self.pipeline
                .refine(&self.history, self.consolidator.estimates(), 2)
        } else {
            self.consolidator.filtered(config.min_credit)
        };
        Ok(PipelineReport {
            final_aps,
            all_estimates: self.consolidator.estimates().to_vec(),
            rounds: self.rounds,
            sensing: self.sensing,
        })
    }

    /// Current unfiltered estimates.
    pub fn estimates(&self) -> &[ApEstimate] {
        self.consolidator.estimates()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PathLossModel {
        PathLossModel::uci_campus()
    }

    /// Fading-free readings along a staggered drive past `aps`, each
    /// instant hearing its nearest AP. The lane changes every few
    /// samples keep the route non-colinear (a single straight line would
    /// leave the recovery's mirror ambiguity unresolved).
    fn drive_past(aps: &[Point], n: usize, spacing: f64) -> Vec<RssReading> {
        let m = model();
        (0..n)
            .map(|i| {
                let p = Point::new(
                    spacing * i as f64,
                    if (i / 5) % 2 == 0 { 0.0 } else { 14.0 },
                );
                let nearest = aps
                    .iter()
                    .min_by(|a, b| p.distance(**a).partial_cmp(&p.distance(**b)).unwrap())
                    .unwrap();
                RssReading::new(p, m.mean_rss(p.distance(*nearest)), i as f64)
            })
            .collect()
    }

    fn small_config() -> OnlineCsConfig {
        OnlineCsConfig {
            window: WindowConfig {
                size: 20,
                step: 10,
                ttl: f64::INFINITY,
            },
            max_ap_per_window: 3,
            ..OnlineCsConfig::default()
        }
    }

    /// The determinism contract: any `threads` setting yields
    /// byte-identical output and sensing stats, because windows are
    /// merged in input order regardless of completion order and each
    /// window's hypotheses run in order on one thread. On a single-core
    /// machine the parallel run degrades to inline execution, which
    /// must (and does) take the same code path through the reduction.
    #[test]
    fn parallel_and_serial_runs_are_identical() {
        use rand::{Rng, SeedableRng};
        // Seeded UCI-style scenario: two roadside APs, staggered lane,
        // deterministic noise on every reading.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xC0FFEE);
        let m = model();
        let aps = [Point::new(40.0, 22.0), Point::new(160.0, 18.0)];
        let readings: Vec<RssReading> = (0..80)
            .map(|i| {
                let p = Point::new(3.0 * i as f64, if (i / 5) % 2 == 0 { 0.0 } else { 14.0 });
                let nearest = aps
                    .iter()
                    .min_by(|a, b| p.distance(**a).partial_cmp(&p.distance(**b)).unwrap())
                    .unwrap();
                let noise: f64 = rng.random_range(-2.0..2.0);
                RssReading::new(p, m.mean_rss(p.distance(*nearest)) + noise, i as f64)
            })
            .collect();

        let serial = OnlineCs::new(
            OnlineCsConfig {
                threads: 1,
                ..small_config()
            },
            model(),
        )
        .unwrap();
        let parallel = OnlineCs::new(
            OnlineCsConfig {
                threads: 8,
                ..small_config()
            },
            model(),
        )
        .unwrap();
        let a = serial.run_detailed(&readings).unwrap();
        let b = parallel.run_detailed(&readings).unwrap();
        assert!(!a.rounds.is_empty(), "scenario produced no rounds");
        assert_eq!(a.final_aps, b.final_aps);
        assert_eq!(a.all_estimates, b.all_estimates);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.sensing, b.sensing);

        // Pinned FISTA fans windows out exactly like the default solver.
        let fista = |pipeline: OnlineCs| {
            let cfg = *pipeline.config();
            pipeline.with_recovery(
                CsRecovery::new(model(), cfg.radio_range, cfg.detection_floor_dbm)
                    .with_solver(CsRecovery::fallback_fista()),
            )
        };
        let a = fista(serial).run_detailed(&readings).unwrap();
        let b = fista(parallel).run_detailed(&readings).unwrap();
        assert!(!a.rounds.is_empty(), "pinned FISTA produced no rounds");
        assert!(a.sensing.solver_iterations > 0);
        assert_eq!(a.final_aps, b.final_aps);
        assert_eq!(a.all_estimates, b.all_estimates);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.sensing, b.sensing);

        // One whole-drive window scored in two hypothesis blocks (AP
        // counts 5..=6 and 1..=4) spreads over the threads, and so does
        // the window a streaming session's last push completes.
        let wide = |threads| {
            let config = OnlineCsConfig {
                window: WindowConfig {
                    size: readings.len(),
                    step: readings.len(),
                    ttl: f64::INFINITY,
                },
                max_ap_per_window: K_BLOCK + 2,
                threads,
                ..small_config()
            };
            OnlineCs::new(config, model()).unwrap()
        };
        let (serial, parallel) = (wide(1), wide(8));
        assert_eq!(serial.k_blocks(), vec![5..=6, 1..=4]);
        let a = serial.run_detailed(&readings).unwrap();
        let b = parallel.run_detailed(&readings).unwrap();
        assert_eq!(a.rounds.len(), 1);
        assert_eq!(a.final_aps, b.final_aps);
        assert_eq!(a.all_estimates, b.all_estimates);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.sensing, b.sensing);
        let mut session = parallel.session().unwrap();
        for r in &readings {
            session.push(*r).unwrap();
        }
        assert_eq!(session.estimates(), a.all_estimates.as_slice());
        assert_eq!(session.finish().unwrap(), a.final_aps);
    }

    #[test]
    fn single_ap_end_to_end() {
        let ap = Point::new(60.0, 24.0);
        let readings = drive_past(&[ap], 40, 3.0);
        let pipeline = OnlineCs::new(small_config(), model()).unwrap();
        let aps = pipeline.run(&readings).unwrap();
        assert_eq!(aps.len(), 1, "got {aps:?}");
        assert!(aps[0].position.distance(ap) < 12.0);
        assert!(aps[0].credit > 1.0);
    }

    #[test]
    fn two_aps_end_to_end() {
        let ap1 = Point::new(30.0, 20.0);
        let ap2 = Point::new(150.0, 20.0);
        let readings = drive_past(&[ap1, ap2], 60, 3.0);
        let pipeline = OnlineCs::new(small_config(), model()).unwrap();
        let aps = pipeline.run(&readings).unwrap();
        assert_eq!(aps.len(), 2, "got {aps:?}");
        for truth in [ap1, ap2] {
            let d = aps
                .iter()
                .map(|e| e.position.distance(truth))
                .fold(f64::INFINITY, f64::min);
            assert!(d < 14.0, "AP at {truth} unmatched ({d:.1} m)");
        }
    }

    #[test]
    fn streaming_session_matches_batch() {
        let ap = Point::new(45.0, 16.0);
        let readings = drive_past(&[ap], 40, 3.0);
        let pipeline = OnlineCs::new(small_config(), model()).unwrap();
        let batch = pipeline.run(&readings).unwrap();

        let mut session = pipeline.session().unwrap();
        for r in &readings {
            session.push(*r).unwrap();
        }
        assert!(!batch.is_empty());
        assert_eq!(session.finish().unwrap(), batch);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let pipeline = OnlineCs::new(small_config(), model()).unwrap();
        assert!(pipeline.run(&[]).unwrap().is_empty());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let bad_lattice = OnlineCsConfig {
            lattice: 0.0,
            ..OnlineCsConfig::default()
        };
        assert!(OnlineCs::new(bad_lattice, model()).is_err());
        let bad_thresh = OnlineCsConfig {
            rel_threshold: 1.5,
            ..OnlineCsConfig::default()
        };
        assert!(OnlineCs::new(bad_thresh, model()).is_err());
        let bad_max = OnlineCsConfig {
            max_ap_per_window: 0,
            ..OnlineCsConfig::default()
        };
        assert!(OnlineCs::new(bad_max, model()).is_err());
    }

    #[test]
    fn report_contains_round_history() {
        let ap = Point::new(50.0, 20.0);
        let readings = drive_past(&[ap], 40, 3.0);
        let pipeline = OnlineCs::new(small_config(), model()).unwrap();
        let report = pipeline.run_detailed(&readings).unwrap();
        assert!(!report.rounds.is_empty());
        assert!(report.all_estimates.len() >= report.final_aps.len());
        for round in &report.rounds {
            assert!(round.k >= 1);
            assert!(round.bic.is_finite());
        }
    }
}
