//! The deterministic single-threaded simulation transport: the
//! reference backend, whose [`PlatformReport::deterministic`]
//! projection [`super::FleetTransport`] must match byte for byte.

use super::drive::{self, session_of, step_frame, Backend, Cell, Frame, Link, Stepping};
use crate::fault::FaultPlan;
use crate::protocol::{PlatformConfig, PlatformReport};
use crate::segment::SegmentMap;
use crate::transport::Transport;
use crate::vehicle::CrowdVehicle;
use crate::Result;
use crowdwifi_channel::RssReading;

/// The virtual-clock simulator: a round's fleet is sensed and stepped
/// inline on the driver thread, links are in-memory queues behind the
/// [`crate::fault`] layer, and time advances only when every queue is
/// empty — directly to the earliest armed deadline, never by sleeping,
/// so a degraded round with multi-second timeouts and retry backoff
/// replays in microseconds. One run is one deterministic replay: fleet
/// order, queue order and per-link fault RNG streams are all fixed by
/// the seeds. A campaign still senses its next round in the background
/// (see [`super::run_campaign_with_faults_into`]); sensing is pure, so
/// that changes no output.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTransport;

impl Backend for SimTransport {
    fn stepping(&self) -> Stepping {
        Stepping::Inline
    }
}

impl Transport for SimTransport {}

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
    drive::round_with_digest(segments, fleet, config, plan, Stepping::Inline)
}

/// The reference stepping: each vehicle, in id order, steps each queued
/// message and sends its uplink before taking the next.
pub(super) fn pump(
    links: &mut [Link],
    cells: &mut [Cell],
    mut frames: Vec<Frame>,
    map: &SegmentMap,
) {
    // Stable: each vehicle keeps its frames in send order.
    frames.sort_by_key(|&(id, _)| id);
    for (id, frame) in frames {
        let i = session_of(links, id);
        if !links[i].exited() {
            links[i].absorb(step_frame(&mut cells[i].core, &frame, map));
        }
    }
}
