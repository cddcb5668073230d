//! Round-trip property tests for the middleware wire codec: any message
//! the protocol can produce must decode back bit-exactly, including the
//! awkward corners — empty task batches, `f64::MAX` credits, negative
//! zero, infinities, NaN bit patterns, and strings full of unsafe
//! characters. Malformed frames, logs and snapshots must be rejected
//! (or quarantine their sender) without panicking.

use crowdwifi_core::ApEstimate;
use crowdwifi_geo::{Point, Rect};
use crowdwifi_middleware::durability::{
    encode_frame, read_wal, LogSink, MemorySink, SnapshotStore, WalHeader,
};
use crowdwifi_middleware::messages::{
    MappingAnswer, MappingTask, Pattern, SensingUpload, ToServer, ToVehicle, VehicleId,
};
use crowdwifi_middleware::protocol::{
    Action, Event, FaultTolerance, PlatformConfig, ServerCore, ShardedDatabase, VehicleFate,
    VirtualInstant,
};
use crowdwifi_middleware::segment::{SegmentId, SegmentMap};
use crowdwifi_middleware::wire::{self, WireMessage};
use crowdwifi_middleware::MiddlewareError;
use crowdwifi_obs::Registry;
use proptest::collection::vec;
use proptest::prelude::*;
use std::time::Duration;

/// Bit-pattern-exact equality via the canonical encoding: two messages
/// are "the same on the wire" iff they re-encode identically. This is
/// the right comparison for floats, where `==` lies about NaN and
/// `-0.0`.
fn assert_to_server_roundtrips(msg: &ToServer) {
    let frame = msg.to_frame();
    let decoded = ToServer::from_frame(&frame).expect("decode");
    assert_eq!(frame, decoded.to_frame(), "re-encode diverged: {msg:?}");
}

fn assert_to_vehicle_roundtrips(msg: &ToVehicle) {
    let frame = msg.to_frame();
    let decoded = ToVehicle::from_frame(&frame).expect("decode");
    assert_eq!(frame, decoded.to_frame(), "re-encode diverged: {msg:?}");
}

/// One CRC-clean frame around whatever payload `encode` writes.
fn frame_of(encode: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    wire::frame_into(&mut out, encode);
    out
}

/// A CRC-clean `SegmentMap` frame with arbitrary corner and size
/// fields, including ones `SegmentMap::new` would refuse.
fn segment_map_frame(fields: [f64; 5]) -> Vec<u8> {
    frame_of(|out| {
        wire::put_header(out, wire::TAG_SEGMENT_MAP);
        for v in fields {
            wire::put_f64(out, v);
        }
    })
}

/// An arbitrary f64 bit pattern (covers NaNs, infinities, subnormals).
fn f64_from_bits(bits: u64) -> f64 {
    f64::from_bits(bits)
}

/// Maps a code point to a char, folding surrogates onto '�'.
fn char_from(cp: u32) -> char {
    char::from_u32(cp % 0x11_0000).unwrap_or('\u{fffd}')
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn uploads_roundtrip(
        vehicle in 0u32..u32::MAX,
        estimates in vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 0..8),
    ) {
        let msg = ToServer::Upload(SensingUpload {
            vehicle: VehicleId(vehicle),
            estimates: estimates
                .into_iter()
                .map(|(x, y, credit)| ApEstimate {
                    position: Point::new(f64_from_bits(x), f64_from_bits(y)),
                    credit: f64_from_bits(credit),
                })
                .collect(),
        });
        assert_to_server_roundtrips(&msg);
    }

    #[test]
    fn answers_roundtrip(
        answers in vec((0u32..u32::MAX, 0usize..1_000_000, 0u8..2), 0..16),
    ) {
        let msg = ToServer::Answers(
            answers
                .into_iter()
                .map(|(vehicle, task_id, flip)| MappingAnswer {
                    vehicle: VehicleId(vehicle),
                    task_id,
                    label: if flip == 0 { -1 } else { 1 },
                })
                .collect(),
        );
        assert_to_server_roundtrips(&msg);
    }

    #[test]
    fn assignments_roundtrip(
        tasks in vec(
            (0usize..1_000_000, 0u32..4096, vec((0u64..u64::MAX, 0u64..u64::MAX), 0..4)),
            0..6,
        ),
    ) {
        let msg = ToVehicle::Assign(
            tasks
                .into_iter()
                .map(|(task_id, segment, aps)| MappingTask {
                    task_id,
                    pattern: Pattern {
                        segment: SegmentId(segment),
                        aps: aps
                            .into_iter()
                            .map(|(x, y)| Point::new(f64_from_bits(x), f64_from_bits(y)))
                            .collect(),
                    },
                })
                .collect(),
        );
        assert_to_vehicle_roundtrips(&msg);
    }

    #[test]
    fn reason_strings_roundtrip(codepoints in vec(0u32..0x11_0000, 0..32)) {
        let reason: String = codepoints.into_iter().map(char_from).collect();
        let failed = ToServer::Failed(reason.clone());
        match ToServer::from_frame(&failed.to_frame()).expect("decode") {
            ToServer::Failed(decoded) => prop_assert_eq!(decoded, reason.clone()),
            other => prop_assert!(false, "decoded to {:?}", other),
        }
        let abort = ToVehicle::Abort(reason.clone());
        match ToVehicle::from_frame(&abort.to_frame()).expect("decode") {
            ToVehicle::Abort(decoded) => prop_assert_eq!(decoded, reason),
            other => prop_assert!(false, "decoded to {:?}", other),
        }
    }

    #[test]
    fn events_roundtrip(
        now in 0u64..u64::MAX,
        vehicle in 0u32..u32::MAX,
        generation in 0u64..u64::MAX,
        codepoints in vec(0u32..0x11_0000, 0..16),
        estimates in vec((0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX), 0..4),
    ) {
        // The durability WAL stores every server-side event in the same
        // wire codec the messages use; its nested-message encoding must
        // survive the trip bit-exactly too.
        let reason: String = codepoints.into_iter().map(char_from).collect();
        let events = [
            Event::LinksClosed { now: VirtualInstant::from_micros(now) },
            Event::Deadline { now: VirtualInstant::from_micros(now) },
            Event::Message {
                now: VirtualInstant::from_micros(now),
                from: VehicleId(vehicle),
                msg: ToServer::Failed(reason),
            },
            Event::Message {
                now: VirtualInstant::from_micros(now),
                from: VehicleId(vehicle),
                msg: ToServer::Upload(SensingUpload {
                    vehicle: VehicleId(vehicle),
                    estimates: estimates
                        .into_iter()
                        .map(|(x, y, credit)| ApEstimate {
                            position: Point::new(f64_from_bits(x), f64_from_bits(y)),
                            credit: f64_from_bits(credit),
                        })
                        .collect(),
                }),
            },
        ];
        for event in &events {
            let frame = event.to_frame();
            let decoded = Event::from_frame(&frame).expect("decode");
            prop_assert_eq!(&frame, &decoded.to_frame(), "re-encode diverged for {:?}", event);
        }
        // The retired timer event shared the deadline tag but carried a
        // vehicle and a timer generation after `now`; a log written in
        // that format is rejected, not misread.
        let timer_frame = frame_of(|out| {
            wire::put_header(out, wire::TAG_EVENT_DEADLINE);
            wire::put_varint(out, now);
            wire::put_varint(out, u64::from(vehicle));
            wire::put_varint(out, generation);
        });
        prop_assert!(Event::from_frame(&timer_frame).is_err());
    }

    #[test]
    fn segment_maps_roundtrip(
        x0 in -1e4f64..1e4,
        y0 in -1e4f64..1e4,
        w in 1.0f64..2e4,
        h in 1.0f64..2e4,
        size in 0.5f64..5e3,
    ) {
        let area = Rect::new(Point::new(x0, y0), Point::new(x0 + w, y0 + h)).unwrap();
        let map = SegmentMap::new(area, size);
        let decoded = SegmentMap::from_frame(&map.to_frame()).expect("decode");
        prop_assert_eq!(map.to_frame(), decoded.to_frame());
        prop_assert_eq!(map.len(), decoded.len());
        // Same partition: probe a few points.
        for (fx, fy) in [(0.1, 0.2), (0.5, 0.5), (0.9, 0.7)] {
            let p = Point::new(x0 + fx * w, y0 + fy * h);
            prop_assert_eq!(map.segment_of(p), decoded.segment_of(p));
        }
    }
}

#[test]
fn empty_task_assignment_roundtrips() {
    // The protocol really sends these: a vehicle alive during labeling
    // with nothing assigned still gets an (empty) Assign.
    assert_to_vehicle_roundtrips(&ToVehicle::Assign(Vec::new()));
    assert_to_server_roundtrips(&ToServer::Answers(Vec::new()));
    assert_to_server_roundtrips(&ToServer::Upload(SensingUpload {
        vehicle: VehicleId(0),
        estimates: Vec::new(),
    }));
}

/// The WAL header's deadline and backoff round-trip exactly, from the
/// longest `Duration` down to sub-microsecond parts.
#[test]
fn config_durations_roundtrip_exactly() {
    for d in [
        Duration::MAX,
        Duration::from_secs(1 << 50),
        Duration::from_nanos(1_500),
    ] {
        let config = PlatformConfig {
            tolerance: FaultTolerance {
                deadline: d,
                retry_backoff: d,
                ..FaultTolerance::default()
            },
            ..PlatformConfig::default()
        };
        assert_eq!(
            PlatformConfig::from_frame(&config.to_frame()).unwrap(),
            config
        );
    }

    // A nanosecond part of a whole second or more is not a duration.
    let frame = frame_of(|out| {
        wire::put_header(out, wire::TAG_CONFIG);
        wire::put_varint(out, 2);
        wire::put_varint(out, 5);
        wire::put_f64(out, 25.0);
        wire::put_f64(out, 0.3);
        wire::put_varint(out, 0);
        wire::put_varint(out, 2);
        wire::put_varint(out, 1_000_000_000);
        wire::put_duration(out, Duration::ZERO);
        wire::put_varint(out, 2);
        wire::put_f64(out, 0.5);
    });
    assert!(matches!(
        PlatformConfig::from_frame(&frame),
        Err(MiddlewareError::Codec(_))
    ));
}

#[test]
fn extreme_floats_roundtrip_bit_exactly() {
    for credit in [
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::EPSILON,
    ] {
        let msg = ToServer::Upload(SensingUpload {
            vehicle: VehicleId(7),
            estimates: vec![ApEstimate {
                position: Point::new(credit, -credit),
                credit,
            }],
        });
        // The varint float packing must preserve the exact bit
        // pattern, NaN payload bits included.
        let frame = msg.to_frame();
        let decoded = ToServer::from_frame(&frame).expect("decode");
        let ToServer::Upload(upload) = &decoded else {
            panic!("decoded to {decoded:?}");
        };
        assert_eq!(upload.estimates[0].credit.to_bits(), credit.to_bits());
        assert_eq!(upload.estimates[0].position.x.to_bits(), credit.to_bits());
        assert_eq!(frame, decoded.to_frame());
    }
}

#[test]
fn simple_tags_roundtrip() {
    assert_to_vehicle_roundtrips(&ToVehicle::RequestUpload);
    assert_to_vehicle_roundtrips(&ToVehicle::Done);
    assert_to_vehicle_roundtrips(&ToVehicle::Abort(String::new()));
    assert_to_server_roundtrips(&ToServer::Failed("panic: index out of bounds".to_string()));
}

#[test]
fn malformed_wire_input_is_rejected() {
    let upload_prefix = |out: &mut Vec<u8>| {
        wire::put_header(out, wire::TAG_UPLOAD);
        wire::put_varint(out, 1);
    };
    let cases: Vec<Vec<u8>> = vec![
        frame_of(|_| {}),                             // no header
        frame_of(|out| out.push(wire::WIRE_VERSION)), // no tag
        frame_of(|out| wire::put_header(out, 0x7f)),  // unknown tag
        frame_of(upload_prefix),                      // truncated upload
        frame_of(|out| {
            upload_prefix(out);
            wire::put_varint(out, 2);
            wire::put_f64(out, 0.0);
        }), // truncated estimate list
        frame_of(|out| {
            wire::put_header(out, wire::TAG_ASSIGN);
            wire::put_varint(out, 1);
            wire::put_varint(out, 5);
        }), // truncated task
        frame_of(|out| {
            wire::put_header(out, wire::TAG_FAILED);
            wire::put_varint(out, 9);
            out.extend_from_slice(b"ab");
        }), // string longer than the payload
        frame_of(|out| {
            wire::put_header(out, wire::TAG_ABORT);
            wire::put_varint(out, 2);
            out.extend_from_slice(&[0xc3, 0x28]);
        }), // non-UTF-8 string
        frame_of(|out| {
            wire::put_header(out, wire::TAG_DONE);
            out.push(0);
        }), // trailing garbage
        frame_of(|out| {
            upload_prefix(out);
            wire::put_varint(out, 0);
            out.extend_from_slice(&[0xff, 0xff]);
        }), // trailing garbage after a valid prefix
        encode_frame(b"U 0 0"),                       // a text-era payload
    ];
    for (i, case) in cases.iter().enumerate() {
        let to_server = ToServer::from_frame(case);
        let to_vehicle = ToVehicle::from_frame(case);
        assert!(
            matches!(to_server, Err(MiddlewareError::Codec(_)))
                && matches!(to_vehicle, Err(MiddlewareError::Codec(_))),
            "case {i} decoded as {to_server:?} / {to_vehicle:?}"
        );
    }

    // Truncated map, inverted corners, and zero, negative or
    // non-finite segment sizes must all fail cleanly, never panic
    // inside the constructor.
    let truncated = frame_of(|out| {
        wire::put_header(out, wire::TAG_SEGMENT_MAP);
        wire::put_f64(out, 0.0);
    });
    let bad_maps = [
        truncated,
        segment_map_frame([10.0, 10.0, 0.0, 0.0, 5.0]),
        segment_map_frame([0.0, 0.0, 10.0, 10.0, 0.0]),
        segment_map_frame([0.0, 0.0, 10.0, 10.0, -5.0]),
        segment_map_frame([0.0, 0.0, 10.0, 10.0, f64::NAN]),
        segment_map_frame([0.0, 0.0, 10.0, 10.0, f64::INFINITY]),
        segment_map_frame([0.0, 0.0, f64::INFINITY, 10.0, 5.0]),
    ];
    for (i, frame) in bad_maps.iter().enumerate() {
        assert!(
            matches!(
                SegmentMap::from_frame(frame),
                Err(MiddlewareError::Codec(_))
            ),
            "bad segment map {i} was accepted"
        );
    }
}

/// A grid whose cell count overflows the `u32` segment-id space is disk
/// input (a WAL header carries the map), so it must be a codec error
/// rather than a multiply overflow later in `len`.
#[test]
fn oversized_segment_grids_are_rejected() {
    let overflowing = segment_map_frame([0.0, 0.0, 1e5, 1e5, 1.0]);
    assert!(matches!(
        SegmentMap::from_frame(&overflowing),
        Err(MiddlewareError::Codec(_))
    ));
    // The largest grids that still fit decode and report their size.
    let fits = segment_map_frame([0.0, 0.0, 65_536.0, 65_535.0, 1.0]);
    let map = SegmentMap::from_frame(&fits).expect("65536 x 65535 fits in u32");
    assert_eq!(map.len(), 65_536 * 65_535);
}

/// A header in the retired text codec's format: `H 1`, then the
/// percent-escaped config and segment map, then a one-vehicle fleet.
const TEXT_ERA_WAL_HEADER: &[u8] = b"H 1 s:C%202%205%204039000000000000%203fd3333333333333%200\
%202000000%20250000%202%203fe0000000000000 s:S%200000000000000000%20c034000000000000\
%204072c00000000000%204054000000000000%204062c00000000000 1 0";

/// A CRC-clean log whose payloads are not the wire codec is not a torn
/// tail: `read_wal` must refuse it with a codec error.
#[test]
fn non_binary_wal_is_rejected() {
    let mut log = encode_frame(TEXT_ERA_WAL_HEADER);
    log.extend_from_slice(&encode_frame(b"EL 5"));
    assert!(matches!(read_wal(&log), Err(MiddlewareError::Codec(_))));

    // A binary header followed by a CRC-clean non-binary event frame is
    // rejected too, rather than silently truncated.
    let header = WalHeader {
        segments: SegmentMap::new(
            Rect::new(Point::new(0.0, -20.0), Point::new(300.0, 80.0)).unwrap(),
            150.0,
        ),
        fleet: vec![VehicleId(0)],
        config: PlatformConfig::default(),
    };
    let mut log = header.to_frame();
    log.extend_from_slice(&encode_frame(b"EL 5"));
    assert!(matches!(read_wal(&log), Err(MiddlewareError::Codec(_))));
}

/// A snapshot slot holding a non-binary payload reads as absent, so
/// `load` falls back to the other slot.
#[test]
fn non_binary_snapshot_slot_is_skipped() {
    let mut text_slot = MemorySink::new();
    // A text-era snapshot record claiming a newer sequence number.
    text_slot.reset(&encode_frame(b"P 9 1 s:D%200")).unwrap();
    let mut store = SnapshotStore::new(Box::new(MemorySink::new()), Box::new(text_slot));
    let db = ShardedDatabase::new();
    store.write(0, &db, false).unwrap();
    let loaded = store.load().unwrap().expect("the binary slot loads");
    assert_eq!(loaded.seq, 0);
    assert_eq!(loaded.database.to_frame(), db.to_frame());
}

/// A corrupted frame from a fleet member must quarantine that vehicle
/// — not surface a codec error and fail the round. Every class of frame
/// damage the codec can meet — flipped payload bits under a now stale
/// CRC, a mangled CRC itself, a wrong codec version, an oversized
/// length prefix, truncated frames and truncated varints — declares the
/// sender dead (its work is retried elsewhere), is counted once, and
/// leaves the round running to completion without it.
#[test]
fn corrupted_frames_quarantine_the_sender() {
    let segments = SegmentMap::new(
        Rect::new(Point::new(0.0, -20.0), Point::new(300.0, 80.0)).unwrap(),
        150.0,
    );
    let fleet = [VehicleId(0), VehicleId(1), VehicleId(2)];
    let registry = Registry::new();
    let mut core = ServerCore::new(
        segments,
        &fleet,
        PlatformConfig::default(),
        registry.clone(),
    )
    .expect("valid core");

    let valid = ToServer::Upload(SensingUpload {
        vehicle: VehicleId(2),
        estimates: vec![ApEstimate {
            position: Point::new(62.0, 30.0),
            credit: 1.5,
        }],
    })
    .to_frame();

    // Bit-flipped payload: the CRC no longer matches.
    let mut bad_crc = valid.clone();
    *bad_crc.last_mut().unwrap() ^= 0x40;
    // Mangled CRC field itself.
    let mut mangled_crc = valid.clone();
    mangled_crc[4] ^= 0xff;
    // Wrong codec version byte, but internally consistent CRC/length —
    // the damage is only caught by the payload header check.
    let mut bad_version = Vec::new();
    wire::frame_into(&mut bad_version, |out| {
        out.push(0x07);
        out.push(wire::TAG_UPLOAD);
    });
    // Length prefix claims more bytes than the buffer holds.
    let mut oversized = valid.clone();
    oversized[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
    // A varint cut off mid-continuation, inside a CRC-clean frame.
    let mut truncated_varint = Vec::new();
    wire::frame_into(&mut truncated_varint, |out| {
        out.push(wire::WIRE_VERSION);
        out.push(wire::TAG_UPLOAD);
        out.push(0x80);
    });
    // Unknown message tag, CRC-clean.
    let mut unknown_tag = Vec::new();
    wire::frame_into(&mut unknown_tag, |out| {
        out.push(wire::WIRE_VERSION);
        out.push(0x7f);
    });
    let corpus: Vec<Vec<u8>> = vec![
        bad_crc,
        mangled_crc,
        bad_version,
        oversized,
        truncated_varint,
        unknown_tag,
        valid[..valid.len() - 1].to_vec(),   // truncated frame
        valid[..5].to_vec(),                 // shorter than the header
        Vec::new(),                          // empty
        [valid.clone(), vec![0u8]].concat(), // trailing garbage
    ];

    let now = VirtualInstant::from_micros(10);
    for (i, frame) in corpus.iter().enumerate() {
        let actions = core.handle(Event::uplink(now, VehicleId(2), frame));
        assert!(
            !core.is_finished(),
            "round must survive corrupted frame {i}"
        );
        if i > 0 {
            // Only the first frame changes anything: the sender is
            // already quarantined, later garbage from it is inert.
            assert!(actions.is_empty(), "frame {i} was not inert: {actions:?}");
        }
    }
    // Garbage "from" a vehicle that is not in the fleet at all is
    // ignored outright.
    assert!(core
        .handle(Event::uplink(now, VehicleId(99), b"not even close"))
        .is_empty());
    assert_eq!(
        registry.snapshot().counters.get("platform.quarantine"),
        Some(&1),
        "one quarantine despite ten bad frames"
    );

    // The two honest vehicles carry the round to completion: upload,
    // then answer whatever mapping tasks come back assigned.
    let mut last = Vec::new();
    for v in [VehicleId(0), VehicleId(1)] {
        let upload = ToServer::Upload(SensingUpload {
            vehicle: v,
            estimates: vec![ApEstimate {
                position: Point::new(60.0 + f64::from(v.0), 30.0),
                credit: 1.0,
            }],
        });
        last = core.handle(Event::uplink(now, v, &upload.to_frame()));
    }
    let assignments: Vec<(VehicleId, Vec<MappingTask>)> = last
        .iter()
        .filter_map(|a| match a {
            Action::Send {
                to,
                msg: ToVehicle::Assign(tasks),
            } => Some((*to, tasks.clone())),
            _ => None,
        })
        .collect();
    let find_completed = |actions: &[Action]| {
        actions.iter().find_map(|a| match a {
            Action::Completed(report) => Some((**report).clone()),
            _ => None,
        })
    };
    let mut report = find_completed(&last);
    for (v, tasks) in assignments {
        if report.is_some() || tasks.is_empty() {
            continue;
        }
        let answers = ToServer::Answers(
            tasks
                .iter()
                .map(|t| MappingAnswer {
                    vehicle: v,
                    task_id: t.task_id,
                    label: 1,
                })
                .collect(),
        );
        report = find_completed(&core.handle(Event::uplink(now, v, &answers.to_frame())));
    }
    let report = report.expect("round completes without the quarantined vehicle");
    assert_eq!(report.fates[&VehicleId(2)].fate, VehicleFate::Quarantined);
    // The report's metrics are sealed by the transport driver; at the
    // core level the registry holds the counter.
    assert_eq!(
        registry.snapshot().counters.get("platform.quarantine"),
        Some(&1)
    );
    assert!(report.dead_vehicles().contains(&VehicleId(2)));
}
