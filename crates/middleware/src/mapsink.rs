//! The bridge from campaign round closes into the geo-sharded AP map.
//!
//! [`GeoMapSink`] implements [`RoundSink`]: each round's fused AP
//! estimates (support standing in as consolidation credit, exactly as
//! the sharded campaign database treats them) are absorbed into a
//! [`GeoMap`], stamped with a virtual clock derived from the round
//! index. The round index *is* the clock, with no wall-clock
//! dependency, which keeps map contents a deterministic function of the
//! campaign. Eviction is the map owner's call ([`GeoMap::evict`]).

use crate::protocol::PlatformReport;
use crate::transport::RoundSink;
use crowdwifi_core::ApEstimate;
use crowdwifi_geomap::{GeoMap, IngestStats};
use std::sync::Arc;
use std::time::Duration;

/// Feeds each closed round's fused estimates into a shared [`GeoMap`].
#[derive(Debug, Clone)]
pub struct GeoMapSink {
    map: Arc<GeoMap>,
    round_period_micros: u64,
    rounds_closed: usize,
    ingested: IngestStats,
}

impl GeoMapSink {
    /// A sink writing into `map`, advancing the map clock by
    /// `round_period` per closed round (round `i` closes at
    /// `(i + 1) × round_period`).
    pub fn new(map: Arc<GeoMap>, round_period: Duration) -> Self {
        GeoMapSink {
            map,
            round_period_micros: round_period.as_micros().min(u128::from(u64::MAX)) as u64,
            rounds_closed: 0,
            ingested: IngestStats::default(),
        }
    }

    /// The map clock value (microseconds) at which round `round`
    /// closes.
    pub fn close_instant_micros(&self, round: usize) -> u64 {
        (round as u64 + 1).saturating_mul(self.round_period_micros)
    }

    /// The map this sink writes into.
    pub fn map(&self) -> &Arc<GeoMap> {
        &self.map
    }

    /// Rounds observed so far.
    pub fn rounds_closed(&self) -> usize {
        self.rounds_closed
    }

    /// Accumulated ingest counters across all observed rounds.
    pub fn ingested(&self) -> IngestStats {
        self.ingested
    }
}

impl RoundSink for GeoMapSink {
    fn round_closed(&mut self, round: usize, report: &PlatformReport) {
        let now = self.close_instant_micros(round);
        let estimates: Vec<ApEstimate> = report
            .fused
            .iter()
            .map(|f| ApEstimate {
                position: f.position,
                credit: f.support,
            })
            .collect();
        let stats = self.map.absorb_estimates(now, &estimates);
        self.ingested.merged += stats.merged;
        self.ingested.opened += stats.opened;
        self.ingested.rejected += stats.rejected;
        self.rounds_closed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::RoundHealth;
    use crate::server::RoundOutcome;
    use crowdwifi_crowd::fusion::FusedAp;
    use crowdwifi_geo::{Point, Rect};
    use crowdwifi_geomap::MapConfig;
    use std::collections::BTreeMap;

    fn report(fused: Vec<FusedAp>) -> PlatformReport {
        PlatformReport {
            outcome: RoundOutcome {
                accepted_patterns: Vec::new(),
                reliabilities: BTreeMap::new(),
                converged: true,
            },
            fused,
            health: RoundHealth::Complete,
            fates: BTreeMap::new(),
            exits: BTreeMap::new(),
            reassigned_tasks: 0,
            lost_label_slots: 0,
            metrics: Default::default(),
        }
    }

    fn fused(x: f64, y: f64, support: f64) -> FusedAp {
        FusedAp {
            position: Point::new(x, y),
            support,
            contributors: 1,
        }
    }

    #[test]
    fn sink_absorbs_fused_estimates_with_round_clock() {
        let world = Rect::new(Point::new(0.0, 0.0), Point::new(1000.0, 1000.0)).unwrap();
        let map = Arc::new(GeoMap::new(MapConfig::new(world)).unwrap());
        let mut sink = GeoMapSink::new(Arc::clone(&map), Duration::from_secs(60));
        sink.round_closed(0, &report(vec![fused(100.0, 100.0, 2.0)]));
        sink.round_closed(1, &report(vec![fused(100.0, 100.0, 2.0)]));
        assert_eq!(sink.rounds_closed(), 2);
        assert_eq!(sink.ingested().opened, 1);
        assert_eq!(sink.ingested().merged, 1);
        let hits = map.query_radius(Point::new(100.0, 100.0), 10.0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].credit, 4.0);
        assert_eq!(hits[0].first_seen_micros, 60_000_000);
        assert_eq!(hits[0].last_seen_micros, 120_000_000);
    }
}
