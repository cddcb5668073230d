//! Schedule determinism of the fault-injection layer: a [`FaultPlan`]
//! is a *replayable* schedule, so the same seed applied to the same
//! message stream must make identical drop/duplicate/delay decisions
//! and produce an identical [`FaultTally`] — and the server-side crash
//! schedule must be a pure function of the event index, indifferent to
//! query order or plan cloning. The chaos harness leans on both: a
//! crash sweep is only reproducible if every fault decision is.

use crowdwifi_middleware::fault::{FaultPlan, FaultTally, LinkDirection, MessageSink, ServerFault};
use crowdwifi_middleware::messages::VehicleId;
use proptest::collection::vec;
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// A sink that records every delivered message in order.
struct VecSink(Rc<RefCell<Vec<u32>>>);

impl MessageSink<u32> for VecSink {
    fn deliver(&mut self, msg: u32) {
        self.0.borrow_mut().push(msg);
    }
}

/// Sends `stream` through one noisy link of `plan` and returns the
/// delivered sequence plus the observed tally.
fn run_link(
    plan: &FaultPlan,
    vehicle: VehicleId,
    direction: LinkDirection,
    stream: &[u32],
) -> (Vec<u32>, (u64, u64, u64)) {
    let delivered = Rc::new(RefCell::new(Vec::new()));
    let tally = Arc::new(FaultTally::new());
    let mut sender = plan.sender_tallied(
        VecSink(Rc::clone(&delivered)),
        vehicle,
        direction,
        Some(Arc::clone(&tally)),
    );
    for &msg in stream {
        sender.send(msg);
    }
    // Dropping the sender flushes messages held back for delayed
    // delivery — part of the deterministic schedule.
    drop(sender);
    let seq = delivered.borrow().clone();
    (seq, (tally.dropped(), tally.duplicated(), tally.delayed()))
}

fn build_server_schedule(entries: &[(u64, u8, u8)]) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for &(idx, kind, n) in entries {
        let fault = match kind % 4 {
            0 => ServerFault::CrashBeforeAppend,
            1 => ServerFault::CrashAfterAppend,
            2 => ServerFault::CrashTruncateTail(usize::from(n) + 1),
            _ => ServerFault::CrashCorruptTail,
        };
        plan = plan.server_crash(idx, fault);
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn same_seed_and_stream_give_identical_link_decisions_and_tally(
        seed in 0u64..u64::MAX,
        drop_prob in 0.0f64..0.4,
        duplicate_prob in 0.0f64..0.3,
        delay_prob in 0.0f64..0.3,
        vehicle in 0u32..64,
        to_server in any::<bool>(),
        stream in vec(0u32..u32::MAX, 0..64),
    ) {
        let direction = if to_server {
            LinkDirection::ToServer
        } else {
            LinkDirection::ToVehicle
        };
        let plan = FaultPlan::noisy(seed, drop_prob, duplicate_prob, delay_prob);
        let first = run_link(&plan, VehicleId(vehicle), direction, &stream);
        let second = run_link(&plan, VehicleId(vehicle), direction, &stream);
        prop_assert_eq!(&first, &second, "replay of the same link diverged");
        // A clone is the same schedule, not a reseeded one.
        let cloned = run_link(&plan.clone(), VehicleId(vehicle), direction, &stream);
        prop_assert_eq!(&first, &cloned, "cloned plan diverged");
    }

    #[test]
    fn server_crash_schedule_is_pure_in_the_event_index(
        entries in vec((0u64..256, 0u8..4, 0u8..64), 0..12),
        probes in vec(0u64..512, 1..64),
    ) {
        let plan = build_server_schedule(&entries);
        let rebuilt = build_server_schedule(&entries);

        // Forward sweep, reverse sweep, repeated probes: the decision
        // for an index never depends on what was asked before it.
        let forward: Vec<_> = probes.iter().map(|&i| plan.server_fault(i)).collect();
        let reverse: Vec<_> = probes
            .iter()
            .rev()
            .map(|&i| plan.server_fault(i))
            .collect();
        let mut reverse_restored = reverse;
        reverse_restored.reverse();
        prop_assert_eq!(&forward, &reverse_restored, "query order changed decisions");

        let again: Vec<_> = probes.iter().map(|&i| plan.server_fault(i)).collect();
        prop_assert_eq!(&forward, &again, "repeated queries changed decisions");

        let other: Vec<_> = probes.iter().map(|&i| rebuilt.server_fault(i)).collect();
        prop_assert_eq!(&forward, &other, "rebuilding the plan changed decisions");

        prop_assert_eq!(
            plan.has_server_faults(),
            !entries.is_empty() || forward.iter().any(Option::is_some)
        );
    }

    #[test]
    fn torn_snapshot_schedule_is_pure_in_the_sequence_number(
        seqs in vec(0u64..64, 0..8),
        probes in vec(0u64..128, 1..32),
    ) {
        let mut plan = FaultPlan::none();
        for &s in &seqs {
            plan = plan.torn_snapshot(s);
        }
        for &p in &probes {
            let expected = seqs.contains(&p);
            prop_assert_eq!(plan.server_fault(u64::MAX), None);
            prop_assert_eq!(plan.snapshot_torn(p), expected);
            prop_assert_eq!(plan.clone().snapshot_torn(p), expected);
        }
    }
}
