//! Vehicle fates: the server-side classification of how each fleet
//! member's round ended, plus the round-health verdict derived from
//! them.

/// Overall health of a finished round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundHealth {
    /// Every vehicle completed on the first try; full coverage.
    Complete,
    /// The round finished, but only after recovery actions: retries,
    /// vehicle deaths, task reassignment, or lost label slots.
    Degraded,
}

/// Protocol phase in which a vehicle was lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundPhase {
    /// Collecting coarse sensing uploads.
    Upload,
    /// Collecting mapping-task answers.
    Labeling,
}

/// The server-side verdict on one vehicle's round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VehicleFate {
    /// Answered everything it was asked.
    Completed,
    /// Reported its own failure with this reason.
    Reported(String),
    /// Went silent and missed its deadline after all retries.
    TimedOut(RoundPhase),
    /// Its link closed (with every other outstanding vehicle) before
    /// responding.
    Vanished(RoundPhase),
    /// It sent a frame that failed to decode, or an upload claiming
    /// another vehicle's identity; the server stopped trusting it
    /// rather than fail the round.
    Quarantined,
}

/// Per-vehicle fate plus how many retries it cost the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FateRecord {
    /// How the server classified the vehicle.
    pub fate: VehicleFate,
    /// Deadline-expiry retries spent on this vehicle (both phases).
    pub retries: u32,
}

/// Short, stable label of a fate for metric names and event fields.
pub fn fate_label(fate: &VehicleFate) -> &'static str {
    match fate {
        VehicleFate::Completed => "completed",
        VehicleFate::Reported(_) => "reported",
        VehicleFate::TimedOut(_) => "timed_out",
        VehicleFate::Vanished(_) => "vanished",
        VehicleFate::Quarantined => "quarantined",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fate_labels_are_stable() {
        assert_eq!(fate_label(&VehicleFate::Completed), "completed");
        assert_eq!(fate_label(&VehicleFate::Reported("x".into())), "reported");
        assert_eq!(
            fate_label(&VehicleFate::TimedOut(RoundPhase::Upload)),
            "timed_out"
        );
        assert_eq!(
            fate_label(&VehicleFate::Vanished(RoundPhase::Labeling)),
            "vanished"
        );
        assert_eq!(fate_label(&VehicleFate::Quarantined), "quarantined");
    }
}
