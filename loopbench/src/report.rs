//! The result line, the metric lists behind it, and the operation tally.

use crowdwifi_middleware::protocol::PlatformReport;
use crowdwifi_middleware::vehicle::VehicleExit;
use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, printed with tracing off. Every
/// workload defines each one; the README gives the per-workload meaning.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("map_error_m", "m"),
    ("brr_connected_frac", "ratio"),
    ("completed_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, printed by the traced run. A layer
/// a workload never calls reports 0. Times and counts are totals per
/// traced campaign (campaign workloads) or over the traced phase
/// (`map_serve`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.sense_s", "s"),
    ("core.readings", "count"),
    ("core.windows", "count"),
    ("core.solver_iterations", "count"),
    ("core.unconverged", "count"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.estimates_out", "count"),
    ("core.share", "ratio"),
    ("wire.codec_s", "s"),
    ("wire.frames", "count"),
    ("wire.bytes", "bytes"),
    ("wire.decode_failures", "count"),
    ("wire.share", "ratio"),
    ("crowd.assign_s", "s"),
    ("crowd.label_s", "s"),
    ("crowd.infer_s", "s"),
    ("crowd.fuse_s", "s"),
    ("crowd.patterns", "count"),
    ("crowd.tasks", "count"),
    ("crowd.accepted_ratio", "ratio"),
    ("crowd.share", "ratio"),
    ("transport.round_s", "s"),
    ("transport.self_s", "s"),
    ("transport.share", "ratio"),
    ("transport.retries", "count"),
    ("transport.reassigned_tasks", "count"),
    ("transport.lost_label_slots", "count"),
    ("transport.dead_vehicles", "count"),
    ("transport.quarantined", "count"),
    ("transport.faults_dropped", "count"),
    ("transport.faults_duplicated", "count"),
    ("transport.not_completed", "count"),
    ("durability.appends", "count"),
    ("durability.wal_bytes", "bytes"),
    ("durability.snapshot_s", "s"),
    ("durability.share", "ratio"),
    ("geomap.absorb_s", "s"),
    ("geomap.publish_p50_ms", "ms"),
    ("geomap.merge_ratio", "ratio"),
    ("geomap.rejected", "count"),
    ("geomap.entries", "count"),
    ("geomap.evict_s", "s"),
    ("geomap.expired", "count"),
    ("geomap.query_s", "s"),
    ("geomap.queue_wait_us", "us"),
    ("geomap.results_per_query", "count"),
    ("geomap.share", "ratio"),
    ("handoff.simulate_s", "s"),
    ("handoff.interruptions", "count"),
    ("map.count_error", "ratio"),
    ("ops.fail_frac", "ratio"),
    ("gen.readings", "count"),
    ("gen.late_p99_us", "us"),
    ("trace.overhead_s", "s"),
];

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (vehicle-rounds, or queries plus absorbs).
    pub attempted: u64,
    /// Operations whose call returned an error.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// An outcome over `tally`, correct when no check failed.
    pub fn new(tally: OpTally, failed_checks: &[String]) -> Self {
        Outcome {
            correct: failed_checks.is_empty(),
            attempted: tally.attempted,
            failed: tally.errored,
            values: BTreeMap::new(),
        }
    }

    /// Sets a metric listed in [`END_TO_END`] or [`PER_LAYER`].
    ///
    /// # Panics
    ///
    /// Panics on a name in neither list: a misspelt metric is a bug in
    /// this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The single-line JSON result: every end-to-end metric, or with
    /// `trace` every per-layer metric. A missing end-to-end value or a
    /// non-finite value cannot be reported; it prints as 0 and marks
    /// the run incorrect. A missing per-layer value is a layer the
    /// workload never called and prints as 0.
    pub fn to_json(&self, trace: bool) -> String {
        let mut correct = self.correct;
        let list = if trace { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = list
            .iter()
            .map(|&(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) if v.is_finite() => *v,
                    None if trace => 0.0,
                    _ => {
                        correct = false;
                        0.0
                    }
                };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Counts operations by how they ended.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpTally {
    /// Operations attempted.
    pub attempted: u64,
    /// Attempted operations that did not complete cleanly.
    pub not_completed: u64,
    /// Operations inside calls that returned an error (also counted as
    /// attempted and not completed).
    pub errored: u64,
}

impl OpTally {
    /// Folds one round of `fleet_size` vehicle-rounds: a vehicle-round
    /// completes only when its exit is [`VehicleExit::Completed`]; one
    /// with no recorded exit did not complete.
    pub fn round(&mut self, fleet_size: usize, report: &PlatformReport) {
        let completed = report
            .exits
            .values()
            .filter(|e| matches!(e, VehicleExit::Completed))
            .count();
        self.attempted += fleet_size as u64;
        self.not_completed += fleet_size.saturating_sub(completed) as u64;
    }

    /// Folds a call over `ops` operations that returned an error.
    pub fn errored(&mut self, ops: usize) {
        self.attempted += ops as u64;
        self.not_completed += ops as u64;
        self.errored += ops as u64;
    }

    /// Folds `ops` operations that completed.
    pub fn completed(&mut self, ops: usize) {
        self.attempted += ops as u64;
    }

    /// Operations that completed cleanly.
    pub fn completed_count(&self) -> u64 {
        self.attempted - self.not_completed
    }

    /// Not completed ÷ attempted (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.not_completed as f64 / self.attempted as f64
        }
    }
}

/// Peak resident memory of this process in MB (VmHWM), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdwifi_middleware::messages::VehicleId;
    use crowdwifi_middleware::protocol::RoundHealth;
    use crowdwifi_middleware::server::RoundOutcome;

    fn report(exits: &[(u32, VehicleExit)]) -> PlatformReport {
        PlatformReport {
            outcome: RoundOutcome {
                accepted_patterns: Vec::new(),
                reliabilities: BTreeMap::new(),
                converged: true,
            },
            fused: Vec::new(),
            health: RoundHealth::Degraded,
            fates: BTreeMap::new(),
            exits: exits
                .iter()
                .map(|(v, e)| (VehicleId(*v), e.clone()))
                .collect(),
            reassigned_tasks: 0,
            lost_label_slots: 0,
            metrics: Default::default(),
        }
    }

    #[test]
    fn only_completed_exits_count_as_completed() {
        let mut tally = OpTally::default();
        // Five vehicles: two completed, one crashed, one disconnected,
        // one with no recorded exit at all.
        tally.round(
            5,
            &report(&[
                (0, VehicleExit::Completed),
                (1, VehicleExit::Crashed),
                (2, VehicleExit::Completed),
                (3, VehicleExit::Disconnected),
            ]),
        );
        assert_eq!(tally.attempted, 5);
        assert_eq!(tally.not_completed, 3);
        assert_eq!(tally.completed_count(), 2);
        assert_eq!(tally.errored, 0);
        assert_eq!(tally.fail_frac(), 0.6);
    }

    #[test]
    fn errored_calls_and_clean_ops_add_up_exactly() {
        let mut tally = OpTally::default();
        assert_eq!(tally.fail_frac(), 0.0);
        tally.completed(997);
        tally.errored(3);
        tally.round(
            2,
            &report(&[(0, VehicleExit::Completed), (1, VehicleExit::Completed)]),
        );
        assert_eq!(tally.attempted, 1002);
        assert_eq!(tally.not_completed, 3);
        assert_eq!(tally.errored, 3);
        assert_eq!(tally.fail_frac(), 3.0 / 1002.0);
    }

    #[test]
    fn json_line_lists_exactly_the_chosen_metrics() {
        let mut tally = OpTally::default();
        tally.completed(10);
        let mut out = Outcome::new(tally, &[]);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            out.set(name, i as f64 + 0.5);
        }
        let line = out.to_json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"ops_per_s\": {\"value\": 0.5, \"unit\": \"1/s\"}, "));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        // Per-layer values never set print as 0 and keep the run correct.
        let traced = out.to_json(true);
        assert!(traced.starts_with("{\"correct\": true"));
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
        // A missing or non-finite end-to-end value fails the run.
        out.set("setup_s", f64::NAN);
        assert!(out.to_json(false).starts_with("{\"correct\": false"));
        assert!(Outcome::new(tally, &[])
            .to_json(false)
            .starts_with("{\"correct\": false"));
        assert!(Outcome::new(tally, &["bad".to_string()])
            .to_json(true)
            .starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        for (list, section) in [(END_TO_END, "end_to_end"), (PER_LAYER, "per_layer")] {
            let start = json.find(&format!("\"{section}\"")).expect("section");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section end")];
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section} lacks {entry}");
            }
            assert_eq!(body.matches("\"name\"").count(), list.len(), "{section}");
        }
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(unit.len() <= 16);
        }
    }
}
