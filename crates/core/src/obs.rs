//! Pipeline instrumentation: pre-registered metric handles for the
//! online-CS hot path.
//!
//! [`PipelineInstruments`] binds every metric the pipeline records once,
//! at estimator construction, so the per-round recording path is pure
//! relaxed-atomic arithmetic — no name lookups, no locks. By default the
//! handles point at the process-wide [`crowdwifi_obs::global`] registry
//! (disabled unless `CROWDWIFI_OBS=1`); [`crate::OnlineCs::with_registry`]
//! redirects them to a local registry for scoped, deterministic
//! measurement.
//!
//! # Metric reference
//!
//! | name | kind | meaning |
//! |---|---|---|
//! | `pipeline.windows_processed` | counter | sliding-window rounds run |
//! | `pipeline.windows_empty` | counter | rounds with no usable hypothesis |
//! | `pipeline.hypotheses_evaluated` | counter | (k, assignment) hypotheses materialized |
//! | `pipeline.candidates_scored` | counter | candidate constellations scored before the BIC reduction |
//! | `pipeline.round_winner_k` | histogram | BIC-selected AP count per round |
//! | `pipeline.memo_lookups` / `pipeline.memo_hits` | counter | group-recovery memo traffic |
//! | `pipeline.group_solves` | counter | ℓ1 solves actually run |
//! | `pipeline.solver_iterations` | counter | total solver work: active-set pivots plus FISTA iterations (fallback or pinned) |
//! | `pipeline.solver_unconverged` | counter | solves left uncertified after any fallback (FISTA stopped at its iteration cap) |
//! | `pipeline.solver_fallbacks` | counter | active-set solves that ran out of pivots and were re-solved on FISTA |
//! | `pipeline.iterations_saved` | counter | iteration-budget headroom from early-converged FISTA solves |
//! | `pipeline.signature_evals` | counter | path-loss signatures evaluated on first read by group gathers |
//! | `pipeline.consolidation_merges` | counter | estimates merged into an existing location |
//! | `pipeline.consolidation_new` | counter | estimates that opened a new location |
//! | `pipeline.round_seconds` | timer | per processed round: wall time of the hypothesis search, summed over the round's blocks |
//! | `pipeline.prepare_seconds` | timer | per round: building the window's sensing workspace (each reading's lattice-box walk for its reach bitset, and the signature slot layout; no path-loss evaluation) |
//! | `pipeline.gather_seconds` | timer | per round: candidate scan plus signature gather of every group solved, first-read path-loss evaluations included |
//! | `pipeline.factorize_seconds` | timer | per round: column normalization plus the Proposition-1 whitening of every group solved |
//! | `pipeline.solve_seconds` | timer | per round: the ℓ1 solves of every group, fallbacks included |
//! | `pipeline.debias_seconds` | timer | per round: matched-filter debias of every group solved |
//! | `pipeline.modes_seconds` | timer | per round: candidate-mode extraction (mode-memo misses) |
//! | `pipeline.score_seconds` | timer | per round: mode-combination BIC scoring plus the EM re-assignment of readings |
//! | `pipeline.refine_seconds` | timer | per run: the global BIC selection (`refine::global_bic_selection`) |
//! | `pipeline.polish_seconds` | timer | per run: whole-drive position polish (`refine::polish_positions`) |
//!
//! A round is scored in blocks of consecutive AP counts (one block
//! unless `max_ap_per_window` exceeds four), and each block's
//! hypotheses run in order on the one thread that owns its workspace.
//! The per-round timers sum those threads' wall times over the blocks,
//! so the gather-to-score timers never exceed `round_seconds`. With one
//! thread the stage timers together cover the run's wall time but for
//! grid formation, hypothesis generation, consolidation and
//! bookkeeping.
//!
//! Memo hits/solves and signature evaluations depend only on the
//! windows and their blocks (see [`crate::recovery::SensingStats`]), so
//! they are the same at every thread count; only the timers vary run to
//! run.

use crate::recovery::{SensingStats, StageTimes};
use crate::select::RoundEstimate;
use crowdwifi_obs::{Counter, Histogram, Registry};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Bucket bounds for the per-round BIC-winning AP count.
const WINNER_K_BOUNDS: &[f64] = &[1.0, 2.0, 3.0, 4.0, 6.0, 8.0];

/// Pre-registered handles for every pipeline metric (see the module
/// docs for the metric reference).
#[derive(Debug, Clone)]
pub struct PipelineInstruments {
    windows: Counter,
    windows_empty: Counter,
    hypotheses: Counter,
    candidates: Counter,
    winner_k: Histogram,
    memo_lookups: Counter,
    memo_hits: Counter,
    group_solves: Counter,
    solver_iterations: Counter,
    solver_unconverged: Counter,
    solver_fallbacks: Counter,
    iterations_saved: Counter,
    signature_evals: Counter,
    merges: Counter,
    new_estimates: Counter,
    round_time: Histogram,
    prepare_time: Histogram,
    gather_time: Histogram,
    factorize_time: Histogram,
    solve_time: Histogram,
    debias_time: Histogram,
    modes_time: Histogram,
    score_time: Histogram,
    refine_time: Histogram,
    polish_time: Histogram,
}

impl PipelineInstruments {
    /// Binds all pipeline metrics in `registry`.
    pub fn from_registry(registry: &Registry) -> Self {
        PipelineInstruments {
            windows: registry.counter("pipeline.windows_processed"),
            windows_empty: registry.counter("pipeline.windows_empty"),
            hypotheses: registry.counter("pipeline.hypotheses_evaluated"),
            candidates: registry.counter("pipeline.candidates_scored"),
            winner_k: registry.histogram("pipeline.round_winner_k", WINNER_K_BOUNDS),
            memo_lookups: registry.counter("pipeline.memo_lookups"),
            memo_hits: registry.counter("pipeline.memo_hits"),
            group_solves: registry.counter("pipeline.group_solves"),
            solver_iterations: registry.counter("pipeline.solver_iterations"),
            solver_unconverged: registry.counter("pipeline.solver_unconverged"),
            solver_fallbacks: registry.counter("pipeline.solver_fallbacks"),
            iterations_saved: registry.counter("pipeline.iterations_saved"),
            signature_evals: registry.counter("pipeline.signature_evals"),
            merges: registry.counter("pipeline.consolidation_merges"),
            new_estimates: registry.counter("pipeline.consolidation_new"),
            round_time: registry.timer("pipeline.round_seconds"),
            prepare_time: registry.timer("pipeline.prepare_seconds"),
            gather_time: registry.timer("pipeline.gather_seconds"),
            factorize_time: registry.timer("pipeline.factorize_seconds"),
            solve_time: registry.timer("pipeline.solve_seconds"),
            debias_time: registry.timer("pipeline.debias_seconds"),
            modes_time: registry.timer("pipeline.modes_seconds"),
            score_time: registry.timer("pipeline.score_seconds"),
            refine_time: registry.timer("pipeline.refine_seconds"),
            polish_time: registry.timer("pipeline.polish_seconds"),
        }
    }

    /// Binds all pipeline metrics in the process-wide
    /// [`crowdwifi_obs::global`] registry (the default for
    /// [`crate::OnlineCs`]). The handles are looked up once per process
    /// and shared after that: the global registry's cells live as long
    /// as the process, and fleets build one estimator per vehicle, each
    /// holding one pointer instead of a copy of every handle.
    pub fn global() -> Arc<Self> {
        static GLOBAL: OnceLock<Arc<PipelineInstruments>> = OnceLock::new();
        GLOBAL
            .get_or_init(|| Arc::new(Self::from_registry(crowdwifi_obs::global())))
            .clone()
    }

    /// Records the outcome of one processed round: the winning estimate
    /// (or its absence), the memo/solver stats of its workspaces and its
    /// hypothesis-search wall time summed over its blocks.
    pub(crate) fn record_round(
        &self,
        winner: Option<&RoundEstimate>,
        stats: &SensingStats,
        search: Duration,
    ) {
        self.round_time.observe_duration(search);
        self.windows.inc();
        match winner {
            Some(est) => {
                self.hypotheses.add(est.hypotheses as u64);
                self.candidates.add(est.candidates as u64);
                self.winner_k.observe(est.k as f64);
            }
            None => self.windows_empty.inc(),
        }
        self.memo_lookups.add(stats.lookups);
        self.memo_hits.add(stats.hits);
        self.group_solves.add(stats.solves);
        self.solver_iterations.add(stats.solver_iterations);
        self.solver_unconverged.add(stats.unconverged);
        self.solver_fallbacks.add(stats.fallbacks);
        self.iterations_saved.add(stats.iterations_saved);
        self.signature_evals.add(stats.signature_evals);
    }

    /// Records one round's stage breakdown: the workspace preparation
    /// time plus the window's accumulated stage times, each summed over
    /// the round's blocks.
    pub(crate) fn record_stages(&self, prepare: Duration, stages: &StageTimes) {
        self.prepare_time.observe_duration(prepare);
        self.gather_time.observe_duration(stages.gather);
        self.factorize_time.observe_duration(stages.factorize);
        self.solve_time.observe_duration(stages.solve);
        self.debias_time.observe_duration(stages.debias);
        self.modes_time.observe_duration(stages.modes);
        self.score_time.observe_duration(stages.score);
    }

    /// Records one run's whole-drive refinement: the global BIC
    /// selection time and the position-polish time.
    pub(crate) fn record_refinement(&self, refine: Duration, polish: Duration) {
        self.refine_time.observe_duration(refine);
        self.polish_time.observe_duration(polish);
    }

    /// Records one consolidation step: `merged` locations folded into
    /// existing estimates out of `total` offered.
    pub(crate) fn record_consolidation(&self, merged: usize, total: usize) {
        self.merges.add(merged as u64);
        self.new_estimates.add(total.saturating_sub(merged) as u64);
    }
}

impl Default for PipelineInstruments {
    fn default() -> Self {
        Self::global().as_ref().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_a_local_registry() {
        if !crowdwifi_obs::RECORDING {
            return;
        }
        let reg = Registry::new();
        let inst = PipelineInstruments::from_registry(&reg);
        let est = RoundEstimate {
            aps: Vec::new(),
            k: 2,
            log_likelihood: -10.0,
            bic: -25.0,
            alternates: Vec::new(),
            hypotheses: 7,
            candidates: 12,
        };
        let stats = SensingStats {
            lookups: 10,
            hits: 4,
            solves: 6,
            solver_iterations: 600,
            unconverged: 1,
            fallbacks: 2,
            iterations_saved: 120,
            signature_evals: 77,
        };
        let ms = Duration::from_millis;
        inst.record_round(Some(&est), &stats, ms(10));
        inst.record_round(None, &SensingStats::default(), ms(1));
        inst.record_consolidation(1, 3);
        let stages = StageTimes {
            gather: ms(6),
            factorize: ms(4),
            solve: ms(3),
            debias: ms(2),
            modes: ms(1),
            score: ms(7),
        };
        inst.record_stages(ms(5), &stages);
        inst.record_refinement(ms(8), ms(9));
        let snap = reg.snapshot();
        assert_eq!(snap.counters["pipeline.windows_processed"], 2);
        assert_eq!(snap.counters["pipeline.windows_empty"], 1);
        assert_eq!(snap.counters["pipeline.hypotheses_evaluated"], 7);
        assert_eq!(snap.counters["pipeline.candidates_scored"], 12);
        assert_eq!(snap.counters["pipeline.memo_hits"], 4);
        assert_eq!(snap.counters["pipeline.solver_iterations"], 600);
        assert_eq!(snap.counters["pipeline.solver_unconverged"], 1);
        assert_eq!(snap.counters["pipeline.solver_fallbacks"], 2);
        assert_eq!(snap.counters["pipeline.iterations_saved"], 120);
        assert_eq!(snap.counters["pipeline.signature_evals"], 77);
        assert_eq!(snap.counters["pipeline.consolidation_merges"], 1);
        assert_eq!(snap.counters["pipeline.consolidation_new"], 2);
        assert_eq!(snap.histograms["pipeline.round_winner_k"].count, 1);
        let rounds = &snap.histograms["pipeline.round_seconds"];
        assert_eq!(rounds.count, 2);
        assert!((rounds.sum - 0.011).abs() < 1e-12, "round: {}", rounds.sum);
        for (stage, secs) in [
            ("prepare", 0.005),
            ("gather", 0.006),
            ("factorize", 0.004),
            ("solve", 0.003),
            ("debias", 0.002),
            ("modes", 0.001),
            ("score", 0.007),
            ("refine", 0.008),
            ("polish", 0.009),
        ] {
            let h = &snap.histograms[&format!("pipeline.{stage}_seconds")];
            assert_eq!(h.count, 1, "{stage}");
            assert!((h.sum - secs).abs() < 1e-12, "{stage}: {}", h.sum);
        }
    }
}
