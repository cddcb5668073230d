//! The chaos harness: deterministic server-kill schedules over full
//! crowdsensing rounds on the virtual-clock simulator.
//!
//! Every schedule in the sweep crashes the server at a different event
//! index with a different [`ServerFault`] flavor — before the
//! write-ahead append, after it, and with the log tail truncated or
//! corrupted — then lets recovery rebuild the server from the log and
//! the protocol's retry machinery repair whatever the crash dropped.
//! The invariants asserted are the durability layer's contract:
//!
//! * the round still completes (a server crash is a recoverable event,
//!   not a round-fatal one);
//! * recovery happened and was counted;
//! * whenever the crash cost no vehicle its round, the final fused
//!   segment map and the inferred reliabilities are byte-identical to
//!   the crash-free run — no acked contribution lost, no un-acked
//!   contribution double-counted.
//!
//! Both run against two baselines: a fault-free round, and a faulted
//! one (a stalled vehicle, ~10% of frames dropped) whose log holds the
//! `Deadline` events a clean round never needs, so crashes also land
//! mid-expiry.
//!
//! The sweep size defaults to 32 schedules and can be reduced for
//! quick CI runs via `CROWDWIFI_CHAOS_SCHEDULES`.

use crowdwifi::channel::{PathLossModel, RssReading};
use crowdwifi::core::pipeline::{OnlineCs, OnlineCsConfig};
use crowdwifi::geo::{Point, Rect};
use crowdwifi::middleware::durability::{read_wal, LogSink, MemorySink, SnapshotStore};
use crowdwifi::middleware::fault::{FaultPlan, FaultPoint, ServerFault};
use crowdwifi::middleware::messages::VehicleId;
use crowdwifi::middleware::platform::{FaultTolerance, PlatformConfig, PlatformReport};
use crowdwifi::middleware::protocol::{Event, ServerCore};
use crowdwifi::middleware::segment::SegmentMap;
use crowdwifi::middleware::transport::{
    run_campaign_with_faults_into, run_durable_campaign_into, NoSink, SimTransport, Transport,
};
use crowdwifi::middleware::vehicle::{Behavior, CrowdVehicle};
use crowdwifi::obs::Registry;
use std::time::Duration;

/// Fading-free staggered drive past two roadside APs.
fn drive(lane_offset: f64) -> Vec<RssReading> {
    let model = PathLossModel::uci_campus();
    let aps = [Point::new(60.0, 30.0), Point::new(220.0, 30.0)];
    (0..50)
        .map(|i| {
            let p = Point::new(
                6.0 * i as f64,
                lane_offset + if (i / 5) % 2 == 0 { 0.0 } else { 12.0 },
            );
            let nearest = aps
                .iter()
                .min_by(|a, b| p.distance(**a).partial_cmp(&p.distance(**b)).unwrap())
                .unwrap();
            RssReading::new(p, model.mean_rss(p.distance(*nearest)), i as f64)
        })
        .collect()
}

fn segments() -> SegmentMap {
    SegmentMap::new(
        Rect::new(Point::new(0.0, -20.0), Point::new(300.0, 80.0)).unwrap(),
        150.0,
    )
}

fn fleet(n: u32) -> Vec<(CrowdVehicle, Vec<RssReading>)> {
    (0..n)
        .map(|v| {
            let estimator =
                OnlineCs::new(OnlineCsConfig::default(), PathLossModel::uci_campus()).unwrap();
            (
                CrowdVehicle::new(VehicleId(v), estimator, Behavior::Honest),
                drive(v as f64 * 0.5),
            )
        })
        .collect()
}

fn config() -> PlatformConfig {
    PlatformConfig {
        workers_per_task: 3,
        seed: 7,
        tolerance: FaultTolerance {
            retry_backoff: Duration::from_millis(100),
            ..FaultTolerance::default()
        },
        ..PlatformConfig::default()
    }
}

fn counter(report: &PlatformReport, name: &str) -> u64 {
    report.metrics.counters.get(name).copied().unwrap_or(0)
}

/// The rounds crash schedules are replayed against, by name, fleet
/// size and link plan: a fault-free round, which never expires a
/// deadline, and a faulted one — one vehicle stalls before answering
/// and ~10% of frames are dropped — which expires several: the stalled
/// vehicle three times, and seed 7's drops cost two more expiries.
fn baselines() -> [(&'static str, u32, FaultPlan); 2] {
    [
        ("fault-free", 3, FaultPlan::none()),
        (
            "faulted",
            4,
            FaultPlan::noisy(7, 0.1, 0.0, 0.0).stall(VehicleId(3), FaultPoint::Answer),
        ),
    ]
}

/// One crash-free durable round under `plan`; also returns the WAL
/// image left behind (header + every event of the round, uncompacted).
fn durable_baseline(n: u32, plan: &FaultPlan) -> (PlatformReport, Vec<u8>) {
    let mut wal = MemorySink::new();
    let report = SimTransport
        .run_round_durable(segments(), fleet(n), config(), plan, &mut wal)
        .expect("crash-free durable round");
    let bytes = wal.contents().expect("in-memory contents");
    (report, bytes)
}

/// Whether `event` is a logged deadline expiry.
fn is_deadline(event: &Event) -> bool {
    matches!(event, Event::Deadline { .. })
}

fn sweep_size() -> u64 {
    std::env::var("CROWDWIFI_CHAOS_SCHEDULES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(32)
}

#[test]
fn fault_free_durable_round_matches_plain_round_and_logs_everything() {
    let plain = SimTransport
        .run_round(segments(), fleet(3), config())
        .expect("plain round");
    let (durable, wal) = durable_baseline(3, &FaultPlan::none());

    // Durability is transparent to the protocol outcome.
    assert_eq!(
        format!("{:?}", durable.fused),
        format!("{:?}", plain.fused),
        "WAL layer changed the fused map"
    );
    assert_eq!(
        format!("{:?}", durable.outcome.reliabilities),
        format!("{:?}", plain.outcome.reliabilities)
    );
    assert_eq!(durable.exits, plain.exits);

    // Every event the server handled is in the log, and the log is a
    // faithful transcript: appends == replayable events.
    let replay = read_wal(&wal).expect("intact WAL");
    assert_eq!(replay.dropped_tail_bytes, 0);
    assert_eq!(
        counter(&durable, "durability.appends"),
        replay.events.len() as u64
    );
    assert!(counter(&durable, "durability.fsync_batches") >= 2);
    assert_eq!(counter(&durable, "durability.recoveries"), 0);
    assert_eq!(counter(&durable, "durability.truncated_tail"), 0);
    assert_eq!(counter(&durable, "platform.faults.server_crashes"), 0);
}

/// Every WAL prefix replays to the exact state the live server had at
/// that point: the byte-identity half of the crash-recovery contract,
/// checked at every possible crash position of a real round. Every
/// logged deadline event must also move the live state: the server
/// logs no expiry that expires nobody.
#[test]
fn every_wal_prefix_recovers_to_the_live_server_state() {
    for (name, n, plan) in baselines() {
        let (_, wal) = durable_baseline(n, &plan);
        let replay = read_wal(&wal).expect("intact WAL");
        assert!(!replay.events.is_empty(), "{name}: round logged no events");
        if name == "faulted" {
            assert!(
                replay.events.iter().any(is_deadline),
                "{name}: round logged no deadline event"
            );
        }

        // The reference: a live server stepped through the same
        // events, never crashed, never recovered.
        let mut live = ServerCore::new(
            replay.header.segments.clone(),
            &replay.header.fleet,
            replay.header.config,
            Registry::new(),
        )
        .expect("live server");
        for k in 0..=replay.events.len() {
            if let Some(event) = k.checked_sub(1).map(|i| &replay.events[i]) {
                let before = live.state_digest();
                live.handle(event.clone());
                assert!(
                    !is_deadline(event) || live.state_digest() != before,
                    "{name}: deadline event {} changed nothing",
                    k - 1
                );
            }
            let (recovered, _) = ServerCore::recover(
                replay.header.segments.clone(),
                &replay.header.fleet,
                replay.header.config,
                Registry::new(),
                &replay.events[..k],
            )
            .expect("prefix recovery");
            assert_eq!(
                recovered.state_digest(),
                live.state_digest(),
                "{name}: replay diverged from live state after {k} events"
            );
        }
    }
}

/// The seeded crash sweep: schedules cycle through all four server
/// fault flavors at varying event indices, every other group of four
/// aimed at the baseline's deadline events. Every schedule must
/// complete its round after in-flight recovery, and — whenever the
/// crash cost no vehicle its round — converge to the exact crash-free
/// fused map and reliabilities.
#[test]
fn seeded_crash_sweep_recovers_every_schedule() {
    let schedules = sweep_size();
    for (name, n, baseline) in baselines() {
        let plain = SimTransport
            .run_round_with_faults(segments(), fleet(n), config(), &baseline)
            .expect("crash-free round");
        let (_, wal) = durable_baseline(n, &baseline);
        let events = read_wal(&wal).expect("intact WAL").events;
        let total_events = events.len() as u64;
        assert!(total_events > 0);
        let deadlines: Vec<u64> = (0..total_events)
            .filter(|&i| is_deadline(&events[i as usize]))
            .collect();

        let mut exercised = [false; 4];
        let mut on_deadline = [false; 4];
        for s in 0..schedules {
            let flavor = (s % 4) as usize;
            let fault = match flavor {
                0 => ServerFault::CrashBeforeAppend,
                1 => ServerFault::CrashAfterAppend,
                2 => ServerFault::CrashTruncateTail(3 + (s % 37) as usize),
                _ => ServerFault::CrashCorruptTail,
            };
            let idx = match deadlines.len() {
                len if s % 8 >= 4 && len > 0 => deadlines[(s / 8) as usize % len],
                _ => (s * 7 + 1) % total_events,
            };
            exercised[flavor] = true;
            on_deadline[flavor] |= is_deadline(&events[idx as usize]);
            let plan = baseline.clone().server_crash(idx, fault);

            let mut wal = MemorySink::new();
            let report = SimTransport
                .run_round_durable(segments(), fleet(n), config(), &plan, &mut wal)
                .unwrap_or_else(|e| {
                    panic!("{name} schedule {s} ({fault:?} at event {idx}) failed: {e}")
                });

            assert_eq!(
                counter(&report, "platform.faults.server_crashes"),
                1,
                "{name} schedule {s} did not fire its crash"
            );
            assert!(
                counter(&report, "durability.recoveries") >= 1,
                "{name} schedule {s} never recovered"
            );
            if matches!(
                fault,
                ServerFault::CrashTruncateTail(_) | ServerFault::CrashCorruptTail
            ) {
                assert_eq!(
                    counter(&report, "platform.faults.torn_wal_tails"),
                    1,
                    "{name} schedule {s} lost its torn-tail count"
                );
            }

            // The crash may cost retries (Degraded health) but, as long
            // as it killed no vehicle, the consolidated segment map and
            // the inferred reliabilities must be byte-identical to the
            // crash-free round: nothing acked was lost, nothing un-acked
            // was double-counted.
            if report.dead_vehicles() == plain.dead_vehicles() {
                assert_eq!(
                    format!("{:?}", report.fused),
                    format!("{:?}", plain.fused),
                    "{name} schedule {s} ({fault:?} at event {idx}): fused map diverged"
                );
                assert_eq!(
                    format!("{:?}", report.outcome.reliabilities),
                    format!("{:?}", plain.outcome.reliabilities),
                    "{name} schedule {s}: reliabilities diverged"
                );
            }
        }
        assert!(
            exercised.iter().all(|&e| e),
            "sweep too small to cover every ServerFault flavor"
        );
        if name == "faulted" {
            assert!(
                on_deadline.iter().all(|&d| d),
                "{name}: some ServerFault flavor never crashed on a deadline event \
                 ({on_deadline:?}; sweep of {schedules} over deadline events {deadlines:?})"
            );
        }
    }
}

/// Campaign-level durability: round-close snapshots alternate slots, a
/// torn snapshot write never destroys the previous good one, and a
/// mid-campaign server crash leaves the campaign database identical to
/// the undisturbed run.
#[test]
fn durable_campaign_survives_torn_snapshots_and_mid_round_crashes() {
    let rounds = || vec![fleet(3), fleet(3), fleet(3)];
    let reference = run_campaign_with_faults_into(
        &SimTransport,
        segments(),
        rounds(),
        config(),
        0.5,
        &[],
        &mut NoSink,
    )
    .expect("reference campaign");

    // Round 1's snapshot write is torn, and round 1 also crashes the
    // server mid-round.
    let plans = [
        FaultPlan::none(),
        FaultPlan::none()
            .server_crash(2, ServerFault::CrashAfterAppend)
            .torn_snapshot(1),
        FaultPlan::none(),
    ];
    let mut wal = MemorySink::new();
    let mut snapshots = SnapshotStore::in_memory();
    let outcome = run_durable_campaign_into(
        &SimTransport,
        segments(),
        rounds(),
        config(),
        0.5,
        &plans,
        &mut wal,
        &mut snapshots,
        &mut NoSink,
    )
    .expect("durable campaign");

    assert_eq!(
        format!("{:?}", outcome.database),
        format!("{:?}", reference.database),
        "crash-recovered campaign database diverged"
    );
    assert_eq!(snapshots.writes(), 3);
    assert_eq!(snapshots.torn_writes(), 1);

    // The newest intact snapshot is round 2's; round 1's torn write is
    // invisible.
    let loaded = snapshots
        .load()
        .expect("snapshot slots readable")
        .expect("some snapshot intact");
    assert_eq!(loaded.seq, 2);
    assert_eq!(loaded.round, 2);
    assert_eq!(
        format!("{:?}", loaded.database),
        format!("{:?}", outcome.database)
    );

    // Round close compacted the WAL: nothing left in flight.
    assert!(wal.contents().expect("in-memory contents").is_empty());
}

/// A torn snapshot with no later round falls back to the previous good
/// slot on load.
#[test]
fn torn_final_snapshot_falls_back_to_previous_slot() {
    let rounds = || vec![fleet(3), fleet(3)];
    let plans = [FaultPlan::none(), FaultPlan::none().torn_snapshot(1)];
    let mut wal = MemorySink::new();
    let mut snapshots = SnapshotStore::in_memory();
    run_durable_campaign_into(
        &SimTransport,
        segments(),
        rounds(),
        config(),
        0.5,
        &plans,
        &mut wal,
        &mut snapshots,
        &mut NoSink,
    )
    .expect("durable campaign");

    let loaded = snapshots
        .load()
        .expect("snapshot slots readable")
        .expect("round 0 snapshot intact");
    assert_eq!(loaded.seq, 0, "must fall back past the torn slot");
    assert_eq!(loaded.round, 0);
}
