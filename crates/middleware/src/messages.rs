//! Client–server protocol messages.
//!
//! Every type here travels in the binary encoding of [`crate::wire`]
//! (each implements [`crate::wire::WireMessage`]): the same encoding
//! carries transport frames, write-ahead-log records and snapshots, and
//! round-trips every value bit-exactly — NaN payloads, `-0.0` and
//! subnormals included — without pulling a serialization crate into
//! the offline build.

use crate::segment::SegmentId;
use crate::wire::{self, WireMessage, WireReader};
use crate::{MiddlewareError, Result};
use crowdwifi_core::ApEstimate;
use crowdwifi_geo::Point;
use serde::{Deserialize, Serialize};

/// Identifier of a crowd-vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VehicleId(pub u32);

impl std::fmt::Display for VehicleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vehicle{}", self.0)
    }
}

/// A candidate AP distribution pattern for one road segment — the unit
/// of a mapping task (§5.2, Fig. 4(a)): crowd-vehicles answer whether
/// this pattern exists (+1) or not (−1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pattern {
    /// The road segment the pattern describes.
    pub segment: SegmentId,
    /// Hypothesized AP positions within the segment.
    pub aps: Vec<Point>,
}

/// A coarse sensing upload from one crowd-vehicle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensingUpload {
    /// The reporting vehicle.
    pub vehicle: VehicleId,
    /// Consolidated estimates from the vehicle's online CS run.
    pub estimates: Vec<ApEstimate>,
}

/// A mapping task handed to a crowd-vehicle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MappingTask {
    /// Server-side task index (stable across the round).
    pub task_id: usize,
    /// The pattern to confirm or deny.
    pub pattern: Pattern,
}

/// A crowd-vehicle's answer to one mapping task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MappingAnswer {
    /// The answering vehicle.
    pub vehicle: VehicleId,
    /// The task being answered.
    pub task_id: usize,
    /// +1 = the pattern exists, −1 = it does not.
    pub label: i8,
}

/// Messages from vehicles to the server (the uplink of a
/// [`crate::transport`] round).
#[derive(Debug, Clone, PartialEq)]
pub enum ToServer {
    /// Upload of coarse sensing results.
    Upload(SensingUpload),
    /// Answers to assigned mapping tasks.
    Answers(Vec<MappingAnswer>),
    /// The vehicle's protocol failed (estimator error or caught panic).
    /// Lets the server abort the round immediately instead of waiting
    /// forever for an upload or answer that will never arrive.
    Failed(String),
}

/// Messages from the server to a vehicle.
#[derive(Debug, Clone, PartialEq)]
pub enum ToVehicle {
    /// Mapping tasks to label. Sent once per assignment wave: the
    /// initial assignment, deadline-expiry retries (same tasks again),
    /// and reassignment of tasks orphaned by a dead vehicle all arrive
    /// as further `Assign` batches.
    Assign(Vec<MappingTask>),
    /// The server never saw the vehicle's upload (lost or late): please
    /// resend it.
    RequestUpload,
    /// End of the crowdsourcing round.
    Done,
    /// The server abandoned the round for the given reason (quorum
    /// lost, inference failure). Distinguishes a deliberate abort from
    /// the server just vanishing.
    Abort(String),
}

// ---------------------------------------------------------------------
// Wire codec
// ---------------------------------------------------------------------

/// Builds a [`MiddlewareError::Codec`].
pub(crate) fn codec_err(why: impl Into<String>) -> MiddlewareError {
    MiddlewareError::Codec(why.into())
}

/// Caps a length prefix read from the wire so a malformed message
/// cannot force a huge allocation before the (inevitable) truncation
/// error surfaces.
pub(crate) fn wire_capacity(n: usize) -> usize {
    n.min(1024)
}

impl WireMessage for ToServer {
    fn encode_binary(&self, out: &mut Vec<u8>) {
        match self {
            ToServer::Upload(u) => {
                wire::put_header(out, wire::TAG_UPLOAD);
                wire::put_varint(out, u64::from(u.vehicle.0));
                wire::put_varint(out, u.estimates.len() as u64);
                for e in &u.estimates {
                    wire::put_f64(out, e.position.x);
                    wire::put_f64(out, e.position.y);
                    wire::put_f64(out, e.credit);
                }
            }
            ToServer::Answers(answers) => {
                wire::put_header(out, wire::TAG_ANSWERS);
                wire::put_varint(out, answers.len() as u64);
                for a in answers {
                    wire::put_varint(out, u64::from(a.vehicle.0));
                    wire::put_varint(out, a.task_id as u64);
                    wire::put_i8(out, a.label);
                }
            }
            ToServer::Failed(reason) => {
                wire::put_header(out, wire::TAG_FAILED);
                wire::put_str(out, reason);
            }
        }
    }

    fn decode_body(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match r.header()? {
            wire::TAG_UPLOAD => {
                let vehicle = VehicleId(r.u32()?);
                let n = r.usize()?;
                let mut estimates = Vec::with_capacity(wire_capacity(n));
                for _ in 0..n {
                    estimates.push(ApEstimate {
                        position: r.point()?,
                        credit: r.f64()?,
                    });
                }
                ToServer::Upload(SensingUpload { vehicle, estimates })
            }
            wire::TAG_ANSWERS => {
                let n = r.usize()?;
                let mut answers = Vec::with_capacity(wire_capacity(n));
                for _ in 0..n {
                    answers.push(MappingAnswer {
                        vehicle: VehicleId(r.u32()?),
                        task_id: r.usize()?,
                        label: r.i8()?,
                    });
                }
                ToServer::Answers(answers)
            }
            wire::TAG_FAILED => ToServer::Failed(r.string()?),
            t => return Err(codec_err(format!("unknown ToServer binary tag {t:#04x}"))),
        })
    }
}

impl WireMessage for ToVehicle {
    fn encode_binary(&self, out: &mut Vec<u8>) {
        match self {
            ToVehicle::Assign(tasks) => {
                wire::put_header(out, wire::TAG_ASSIGN);
                wire::put_varint(out, tasks.len() as u64);
                for t in tasks {
                    wire::put_varint(out, t.task_id as u64);
                    wire::put_varint(out, u64::from(t.pattern.segment.0));
                    wire::put_varint(out, t.pattern.aps.len() as u64);
                    for ap in &t.pattern.aps {
                        wire::put_f64(out, ap.x);
                        wire::put_f64(out, ap.y);
                    }
                }
            }
            ToVehicle::RequestUpload => wire::put_header(out, wire::TAG_REQUEST_UPLOAD),
            ToVehicle::Done => wire::put_header(out, wire::TAG_DONE),
            ToVehicle::Abort(reason) => {
                wire::put_header(out, wire::TAG_ABORT);
                wire::put_str(out, reason);
            }
        }
    }

    fn decode_body(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match r.header()? {
            wire::TAG_ASSIGN => {
                let n = r.usize()?;
                let mut tasks = Vec::with_capacity(wire_capacity(n));
                for _ in 0..n {
                    let task_id = r.usize()?;
                    let segment = SegmentId(r.u32()?);
                    let m = r.usize()?;
                    let mut aps = Vec::with_capacity(wire_capacity(m));
                    for _ in 0..m {
                        aps.push(r.point()?);
                    }
                    tasks.push(MappingTask {
                        task_id,
                        pattern: Pattern { segment, aps },
                    });
                }
                ToVehicle::Assign(tasks)
            }
            wire::TAG_REQUEST_UPLOAD => ToVehicle::RequestUpload,
            wire::TAG_DONE => ToVehicle::Done,
            wire::TAG_ABORT => ToVehicle::Abort(r.string()?),
            t => return Err(codec_err(format!("unknown ToVehicle binary tag {t:#04x}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_impls() {
        assert_eq!(VehicleId(3).to_string(), "vehicle3");
    }

    #[test]
    fn answer_labels_are_plain_data() {
        let a = MappingAnswer {
            vehicle: VehicleId(1),
            task_id: 7,
            label: -1,
        };
        assert_eq!(a.label, -1);
        let b = a;
        assert_eq!(a, b);
    }
}
