//! The deterministic single-threaded simulation transport: the
//! reference backend, whose [`PlatformReport::deterministic`]
//! projection [`super::FleetTransport`] must match byte for byte.

use super::drive::{self, step_frame, step_start, Link, Sessions, Vehicle};
use crate::durability::LogSink;
use crate::fault::FaultPlan;
use crate::messages::VehicleId;
use crate::protocol::{PlatformConfig, PlatformReport};
use crate::segment::SegmentMap;
use crate::transport::Transport;
use crate::vehicle::{CrowdVehicle, VehicleExit};
use crate::Result;
use crowdwifi_channel::RssReading;
use std::collections::BTreeMap;

/// The virtual-clock simulator: the whole fleet is stepped inline on
/// the driver thread, links are in-memory queues behind the
/// [`crate::fault`] layer, and time advances only when every queue is
/// empty — directly to the earliest armed deadline, never by sleeping,
/// so a degraded round with multi-second timeouts and retry backoff
/// replays in microseconds. One run is one deterministic replay: fleet
/// order, queue order and per-link fault RNG streams are all fixed by
/// the seeds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTransport;

impl Transport for SimTransport {
    fn run_round_with_faults(
        &self,
        segments: SegmentMap,
        fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
        config: PlatformConfig,
        plan: &FaultPlan,
    ) -> Result<PlatformReport> {
        Ok(sim_round_with_digest(segments, fleet, config, plan)?.0)
    }

    fn run_round_durable(
        &self,
        segments: SegmentMap,
        fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
        config: PlatformConfig,
        plan: &FaultPlan,
        wal: &mut dyn LogSink,
    ) -> Result<PlatformReport> {
        drive::round_durable(segments, fleet, config, plan, wal, Inline::new)
    }
}

/// Runs one faulted round on the simulator and returns the report
/// together with the server core's final
/// [`state_digest`](crate::protocol::ServerCore::state_digest),
/// extended with a [`WireDigest`](crate::wire::WireDigest) over the
/// binary uplink frames the server received — the reference string the
/// fleet backend's equivalence tests compare byte-for-byte (state *and*
/// wire bytes must match).
///
/// # Errors
///
/// As [`Transport::run_round_with_faults`].
pub fn sim_round_with_digest(
    segments: SegmentMap,
    fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
    config: PlatformConfig,
    plan: &FaultPlan,
) -> Result<(PlatformReport, String)> {
    drive::round_with_digest(segments, fleet, config, plan, Inline::new)
}

/// The reference stepping: each vehicle, in id order, steps each queued
/// message and sends its uplink before taking the next.
pub(super) struct Inline {
    links: Vec<Link>,
    vehicles: Vec<Vehicle>,
}

impl Inline {
    pub(super) fn new(links: Vec<Link>, vehicles: Vec<Vehicle>) -> Self {
        Inline { links, vehicles }
    }
}

impl Sessions for Inline {
    fn start(&mut self, _segments: &SegmentMap) {
        for (link, (core, readings)) in self.links.iter_mut().zip(&mut self.vehicles) {
            link.absorb(step_start(core, &std::mem::take(readings)));
        }
    }

    fn pump(&mut self, segments: &SegmentMap) -> bool {
        let mut progressed = false;
        for (link, (core, _)) in self.links.iter_mut().zip(&mut self.vehicles) {
            while let Some(frame) = link.next_frame() {
                progressed = true;
                if !link.exited() {
                    link.absorb(step_frame(core, &frame, segments));
                }
            }
        }
        progressed
    }

    fn links(&self) -> &[Link] {
        &self.links
    }

    fn exits(self) -> BTreeMap<VehicleId, VehicleExit> {
        let cores = self.vehicles.iter().map(|(core, _)| core);
        self.links
            .into_iter()
            .zip(cores)
            .map(|(l, c)| l.finish(c))
            .collect()
    }
}
