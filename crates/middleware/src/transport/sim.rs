//! The deterministic single-threaded simulation transport: the
//! reference backend, whose [`PlatformReport::deterministic`]
//! projection [`super::FleetTransport`] must match byte for byte.

use super::drive::{self, session_of, step_frame, step_start, Frame, Link, Sessions, Vehicle};
use crate::durability::LogSink;
use crate::fault::FaultPlan;
use crate::protocol::{PlatformConfig, PlatformReport};
use crate::segment::SegmentMap;
use crate::transport::Transport;
use crate::vehicle::{CrowdVehicle, VehicleCore};
use crate::Result;
use crowdwifi_channel::RssReading;

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
        Ok(drive::round(segments, fleet, config, plan, Inline)?.0)
    }

    fn run_round_durable(
        &self,
        segments: SegmentMap,
        fleet: Vec<(CrowdVehicle, Vec<RssReading>)>,
        config: PlatformConfig,
        plan: &FaultPlan,
        wal: &mut dyn LogSink,
    ) -> Result<PlatformReport> {
        drive::round_durable(segments, fleet, config, plan, wal, Inline)
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
    drive::round_with_digest(segments, fleet, config, plan, Inline)
}

/// The reference stepping: each vehicle, in id order, steps each queued
/// message and sends its uplink before taking the next.
pub(super) struct Inline(pub(super) Vec<Vehicle>);

impl Sessions for Inline {
    fn start(&mut self, links: &mut [Link], _segments: &SegmentMap) {
        for (link, (core, readings)) in links.iter_mut().zip(&mut self.0) {
            link.absorb(step_start(core, &std::mem::take(readings)));
        }
    }

    fn pump(&mut self, links: &mut [Link], mut frames: Vec<Frame>, segments: &SegmentMap) {
        // Stable: each vehicle keeps its frames in send order.
        frames.sort_by_key(|&(id, _)| id);
        for (id, frame) in frames {
            let i = session_of(links, id);
            if !links[i].exited() {
                links[i].absorb(step_frame(&mut self.0[i].0, &frame, segments));
            }
        }
    }

    fn core(&self, i: usize) -> &VehicleCore {
        &self.0[i].0
    }
}
