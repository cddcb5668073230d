//! Crash-consistent server state: write-ahead log, snapshots, and the
//! recovery path the chaos harness exercises.
//!
//! The sans-I/O [`ServerCore`] keeps all
//! round state in memory; this module makes that state survive a
//! server crash. The design is deliberately boring:
//!
//! * every [`Event`] the server applies is first appended to a
//!   **write-ahead log** of length-prefixed, CRC32-validated frames
//!   (append-then-apply, [`WalWriter`]), batched between fsyncs;
//! * the log opens with a [`WalHeader`] frame carrying everything
//!   `ServerCore::new` needs (segment map, fleet, config), so a bare
//!   log is sufficient to rebuild the server from nothing;
//! * recovery ([`read_wal`] + [`ServerCore::recover`]) tolerates a
//!   **torn tail** — the first incomplete or CRC-bad frame and
//!   everything after it is dropped, modeling the unsynced suffix a
//!   real crash loses — then replays the surviving events. Because the
//!   protocol core is a deterministic state machine, the replayed
//!   server is byte-identical ([`ServerCore::state_digest`]) to one
//!   that never crashed — its per-vehicle deadlines included, so the
//!   driver has no timers to re-arm, and a deadline whose
//!   [`Event::Deadline`] a crash swallowed is simply still due;
//! * at round close the campaign driver writes a [`SnapshotStore`]
//!   snapshot of the [`ShardedDatabase`] (alternating between two
//!   slots, so a torn snapshot write can never destroy the previous
//!   good one) and compacts the WAL.
//!
//! Storage is behind the pluggable [`LogSink`] trait: [`MemorySink`]
//! keeps the deterministic simulator single-threaded and allocation-
//! only, [`FileSink`] buffers onto a real file for real runs.
//!
//! Crash *injection* lives in [`crate::fault::ServerFault`]: the
//! crate-internal `DurableRound` event host (what the transports'
//! `run_round_durable` drives) consults the plan before every event,
//! and on a scheduled crash drops the live server on the floor,
//! mangles the log tail as instructed, and recovers from storage alone
//! — verifying the recovered digest against the never-crashed server
//! whenever the fault semantics make them comparable.

use crate::fault::{FaultPlan, FaultTally, ServerFault};
use crate::messages::{codec_err, wire_capacity, VehicleId};
use crate::protocol::{Action, Event, PlatformConfig, ServerCore, ShardedDatabase, VirtualInstant};
use crate::segment::SegmentMap;
use crate::transport::EventHost;
use crate::wire::{self, WireMessage, WireReader};
use crate::{MiddlewareError, Result};
use crowdwifi_obs::Registry;
use std::io::Write as _;
use std::sync::Arc;

/// Events appended between fsync batches by default. Count-based (not
/// time-based) so the batching is identical on the virtual-clock and
/// wall-clock backends.
pub const DEFAULT_SYNC_EVERY: u64 = 8;

// ---------------------------------------------------------------------
// Framing (shared with the binary wire codec)
// ---------------------------------------------------------------------

pub use crate::wire::crc32;

/// Frames `payload` as `[len: u32 LE][crc32(payload): u32 LE][payload]`.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    wire::frame_into(&mut frame, |out| out.extend_from_slice(payload));
    frame
}

/// Splits `bytes` into intact frame payloads, applying the torn-tail
/// rule: the first incomplete or CRC-bad frame and everything after it
/// is dropped. Returns the payloads plus how many tail bytes were
/// dropped.
fn split_frames(bytes: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut payloads = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        if rest.len() < 8 {
            break; // incomplete header: torn tail
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let want = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        let Some(payload) = rest.get(8..8 + len) else {
            break; // incomplete payload: torn tail
        };
        if crc32(payload) != want {
            break; // corrupted: everything from here on is suspect
        }
        payloads.push(payload);
        offset += 8 + len;
    }
    (payloads, bytes.len() - offset)
}

// ---------------------------------------------------------------------
// Log sinks
// ---------------------------------------------------------------------

/// Where the write-ahead log's bytes live. The simulator uses the
/// in-memory sink (deterministic, single-threaded, no I/O); real
/// deployments use the buffered file sink. `sync` is the durability
/// barrier: bytes appended since the last `sync` are what a crash may
/// tear.
pub trait LogSink {
    /// Appends raw bytes to the log.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::Durability`] on I/O failure.
    fn append(&mut self, bytes: &[u8]) -> Result<()>;

    /// Durability barrier: everything appended so far survives a crash
    /// after this returns.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::Durability`] on I/O failure.
    fn sync(&mut self) -> Result<()>;

    /// The log's full current contents (what a restarted process would
    /// find on disk).
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::Durability`] on I/O failure.
    fn contents(&mut self) -> Result<Vec<u8>>;

    /// Replaces the log's contents wholesale (log creation and
    /// compaction).
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::Durability`] on I/O failure.
    fn reset(&mut self, bytes: &[u8]) -> Result<()>;
}

impl<T: LogSink + ?Sized> LogSink for &mut T {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        (**self).append(bytes)
    }
    fn sync(&mut self) -> Result<()> {
        (**self).sync()
    }
    fn contents(&mut self) -> Result<Vec<u8>> {
        (**self).contents()
    }
    fn reset(&mut self, bytes: &[u8]) -> Result<()> {
        (**self).reset(bytes)
    }
}

/// An in-memory log: a growable byte vector. `sync` is a no-op —
/// memory is "durable" within a simulation, which is exactly what the
/// deterministic chaos harness wants (the *injected* tail truncation
/// models the unsynced suffix instead).
#[derive(Debug, Default, Clone)]
pub struct MemorySink {
    bytes: Vec<u8>,
}

impl MemorySink {
    /// An empty in-memory log.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl LogSink for MemorySink {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.bytes.extend_from_slice(bytes);
        Ok(())
    }
    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
    fn contents(&mut self) -> Result<Vec<u8>> {
        Ok(self.bytes.clone())
    }
    fn reset(&mut self, bytes: &[u8]) -> Result<()> {
        self.bytes.clear();
        self.bytes.extend_from_slice(bytes);
        Ok(())
    }
}

fn io_err(op: &str, e: std::io::Error) -> MiddlewareError {
    MiddlewareError::Durability(format!("log {op} failed: {e}"))
}

/// A buffered file-backed log for real runs: appends go through a
/// [`std::io::BufWriter`], `sync` flushes and fsyncs.
#[derive(Debug)]
pub struct FileSink {
    path: std::path::PathBuf,
    writer: std::io::BufWriter<std::fs::File>,
}

impl FileSink {
    /// Creates (or truncates) the log file at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`MiddlewareError::Durability`] when the file cannot be
    /// created.
    pub fn create(path: impl Into<std::path::PathBuf>) -> Result<Self> {
        let path = path.into();
        let file = std::fs::File::create(&path).map_err(|e| io_err("create", e))?;
        Ok(FileSink {
            path,
            writer: std::io::BufWriter::new(file),
        })
    }

    /// The file this sink writes to.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl LogSink for FileSink {
    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.writer
            .write_all(bytes)
            .map_err(|e| io_err("append", e))
    }
    fn sync(&mut self) -> Result<()> {
        self.writer.flush().map_err(|e| io_err("flush", e))?;
        self.writer
            .get_ref()
            .sync_all()
            .map_err(|e| io_err("fsync", e))
    }
    fn contents(&mut self) -> Result<Vec<u8>> {
        self.writer.flush().map_err(|e| io_err("flush", e))?;
        std::fs::read(&self.path).map_err(|e| io_err("read", e))
    }
    fn reset(&mut self, bytes: &[u8]) -> Result<()> {
        let file = std::fs::File::create(&self.path).map_err(|e| io_err("recreate", e))?;
        self.writer = std::io::BufWriter::new(file);
        self.append(bytes)
    }
}

// ---------------------------------------------------------------------
// WAL header + writer + reader
// ---------------------------------------------------------------------

/// The WAL's opening frame: everything needed to rebuild the server
/// from the log alone. Recovery rebuilds under the *logged* config and
/// fleet — not whatever the restarted process is configured with.
#[derive(Debug, Clone)]
pub struct WalHeader {
    /// The round's road-segment map.
    pub segments: SegmentMap,
    /// The registered fleet, in registration order.
    pub fleet: Vec<VehicleId>,
    /// The round's platform configuration.
    pub config: PlatformConfig,
}

impl WireMessage for WalHeader {
    fn encode_binary(&self, out: &mut Vec<u8>) {
        wire::put_header(out, wire::TAG_WAL_HEADER);
        self.config.encode_binary(out);
        self.segments.encode_binary(out);
        wire::put_varint(out, self.fleet.len() as u64);
        for v in &self.fleet {
            wire::put_varint(out, u64::from(v.0));
        }
    }

    fn decode_body(r: &mut WireReader<'_>) -> Result<Self> {
        match r.header()? {
            wire::TAG_WAL_HEADER => {}
            t => return Err(codec_err(format!("unknown WalHeader binary tag {t:#04x}"))),
        }
        let config = PlatformConfig::decode_body(r)?;
        let segments = SegmentMap::decode_body(r)?;
        let n = r.usize()?;
        let mut fleet = Vec::with_capacity(wire_capacity(n));
        for _ in 0..n {
            fleet.push(VehicleId(r.u32()?));
        }
        Ok(WalHeader {
            segments,
            fleet,
            config,
        })
    }
}

/// Appends events to a [`LogSink`] as CRC-framed [`crate::wire`]
/// records, fsyncing every [`DEFAULT_SYNC_EVERY`] appends (count-based,
/// so batching is deterministic across backends). Created with the
/// round's header as the first frame; `rewrite` compacts the log in
/// place. One scratch buffer is reused across appends, so the
/// steady-state log path performs zero per-event allocations.
pub struct WalWriter<'a> {
    sink: &'a mut dyn LogSink,
    sync_every: u64,
    unsynced: u64,
    appends: u64,
    syncs: u64,
    scratch: Vec<u8>,
}

impl<'a> WalWriter<'a> {
    /// Resets `sink` to a fresh log holding only the header frame, and
    /// syncs it.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures.
    pub fn create(sink: &'a mut dyn LogSink, header: &WalHeader, sync_every: u64) -> Result<Self> {
        sink.reset(&header.to_frame())?;
        let mut w = WalWriter {
            sink,
            sync_every: sync_every.max(1),
            unsynced: 0,
            appends: 0,
            syncs: 0,
            scratch: Vec::new(),
        };
        w.sync()?;
        Ok(w)
    }

    /// Appends one event frame; every `sync_every` appends trigger a
    /// sync.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures.
    pub fn append_event(&mut self, event: &Event) -> Result<()> {
        self.scratch.clear();
        event.encode_frame_into(&mut self.scratch);
        self.sink.append(&self.scratch)?;
        self.appends += 1;
        self.unsynced += 1;
        if self.unsynced >= self.sync_every {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces a durability barrier now.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures.
    pub fn sync(&mut self) -> Result<()> {
        self.sink.sync()?;
        self.syncs += 1;
        self.unsynced = 0;
        Ok(())
    }

    /// The log's full current contents.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures.
    pub fn contents(&mut self) -> Result<Vec<u8>> {
        self.sink.contents()
    }

    /// Compaction: replaces the log with a clean header + `events`
    /// sequence and syncs. Used after recovery (so the next crash
    /// recovers from an intact file) and at round close.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures.
    pub fn rewrite(&mut self, header: &WalHeader, events: &[Event]) -> Result<()> {
        let mut bytes = header.to_frame();
        for event in events {
            event.encode_frame_into(&mut bytes);
        }
        self.sink.reset(&bytes)?;
        self.sync()
    }

    /// Event frames appended so far (compaction rewrites not counted).
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Fsync batches issued so far (creation, count-triggered, forced
    /// and compaction syncs).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

/// What [`read_wal`] salvages from a (possibly torn) log.
#[derive(Debug)]
pub struct WalReplay {
    /// The decoded opening header.
    pub header: WalHeader,
    /// Every intact logged event, in append order.
    pub events: Vec<Event>,
    /// Bytes dropped from the tail (0 for a cleanly closed log).
    pub dropped_tail_bytes: usize,
}

/// Parses a WAL byte image, tolerating a torn tail: the first
/// incomplete or CRC-invalid frame and everything after it is dropped
/// (that suffix was never durably synced). Frames that pass the CRC
/// but fail to decode are *not* tail damage — they mean the log was
/// written by something else entirely (any payload whose first byte is
/// not [`wire::WIRE_VERSION`], say), and surface as errors.
///
/// # Errors
///
/// Returns [`MiddlewareError::Durability`] when no intact header frame
/// exists (nothing can be recovered), and [`MiddlewareError::Codec`]
/// when an intact frame fails to decode.
pub fn read_wal(bytes: &[u8]) -> Result<WalReplay> {
    let (payloads, dropped_tail_bytes) = split_frames(bytes);
    let Some((first, rest)) = payloads.split_first() else {
        return Err(MiddlewareError::Durability(
            "WAL unrecoverable: no intact header frame".to_string(),
        ));
    };
    let header = WalHeader::decode_binary(first)?;
    let events = rest
        .iter()
        .map(|payload| Event::decode_binary(payload))
        .collect::<Result<Vec<_>>>()?;
    Ok(WalReplay {
        header,
        events,
        dropped_tail_bytes,
    })
}

// ---------------------------------------------------------------------
// Snapshot store
// ---------------------------------------------------------------------

/// A snapshot loaded back from the [`SnapshotStore`].
#[derive(Debug)]
pub struct LoadedSnapshot {
    /// The write sequence number the snapshot was stored under.
    pub seq: u64,
    /// The campaign round index the snapshot closed.
    pub round: usize,
    /// The campaign database at that point.
    pub database: ShardedDatabase,
}

/// Periodic [`ShardedDatabase`] snapshots, written alternately into
/// two slots so a torn write can only ever destroy the snapshot being
/// written — the previous good one survives and `load` falls back to
/// it. Each snapshot is one CRC-framed record carrying the write
/// sequence, the round index and the database's per-segment wire
/// encoding.
pub struct SnapshotStore {
    slots: [Box<dyn LogSink>; 2],
    writes: u64,
    torn_writes: u64,
}

impl SnapshotStore {
    /// A store over two caller-provided slots (file sinks for real
    /// runs).
    pub fn new(a: Box<dyn LogSink>, b: Box<dyn LogSink>) -> Self {
        SnapshotStore {
            slots: [a, b],
            writes: 0,
            torn_writes: 0,
        }
    }

    /// A deterministic in-memory store for tests and the simulator.
    pub fn in_memory() -> Self {
        SnapshotStore::new(Box::new(MemorySink::new()), Box::new(MemorySink::new()))
    }

    /// Writes the next snapshot (alternating slots). When `torn` is
    /// set, the write is cut off mid-frame — the injected
    /// `snapshot-torn-write` fault — leaving that slot invalid.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures.
    pub fn write(&mut self, round: usize, database: &ShardedDatabase, torn: bool) -> Result<()> {
        let seq = self.writes;
        let mut frame = Vec::new();
        wire::frame_into(&mut frame, |out| {
            wire::put_header(out, wire::TAG_SNAPSHOT);
            wire::put_varint(out, seq);
            wire::put_varint(out, round as u64);
            database.encode_binary(out);
        });
        if torn {
            frame.truncate(frame.len() * 2 / 5);
            self.torn_writes += 1;
        }
        let slot = &mut self.slots[(seq % 2) as usize];
        slot.reset(&frame)?;
        slot.sync()?;
        self.writes += 1;
        Ok(())
    }

    /// Loads the newest intact snapshot, if any slot holds one. A slot
    /// whose frame is torn or whose payload fails to decode is skipped
    /// — that is the whole point of alternating slots.
    ///
    /// # Errors
    ///
    /// Propagates sink I/O failures (invalid *contents* are skipped,
    /// not errors).
    pub fn load(&mut self) -> Result<Option<LoadedSnapshot>> {
        let mut best: Option<LoadedSnapshot> = None;
        for slot in &mut self.slots {
            let bytes = slot.contents()?;
            let (payloads, _) = split_frames(&bytes);
            let Some(payload) = payloads.first() else {
                continue;
            };
            let Some(snapshot) = decode_snapshot(payload) else {
                continue;
            };
            if best.as_ref().is_none_or(|b| snapshot.seq > b.seq) {
                best = Some(snapshot);
            }
        }
        Ok(best)
    }

    /// Snapshot writes so far (torn ones included).
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Snapshot writes that were injected as torn.
    pub fn torn_writes(&self) -> u64 {
        self.torn_writes
    }
}

/// Decodes one snapshot payload; `None` for anything that is not a
/// well-formed snapshot record, so `load` skips the slot.
fn decode_snapshot(payload: &[u8]) -> Option<LoadedSnapshot> {
    let mut r = WireReader::new(payload);
    if r.header().ok()? != wire::TAG_SNAPSHOT {
        return None;
    }
    let seq = r.varint().ok()?;
    let round = r.usize().ok()?;
    let database = ShardedDatabase::decode_body(&mut r).ok()?;
    r.finish().ok()?;
    Some(LoadedSnapshot {
        seq,
        round,
        database,
    })
}

// ---------------------------------------------------------------------
// Durable event host (crash injection + recovery)
// ---------------------------------------------------------------------

/// How an injected crash mangles the log before recovery reads it.
enum TailDamage {
    Truncate(usize),
    FlipLastByte,
}

/// The crash-consistent server host both transports can drive: every
/// event is appended to the WAL before it is applied
/// (append-then-apply), and the fault plan's [`ServerFault`] schedule
/// is consulted per event. On a scheduled crash the live core is
/// dropped, the log tail is damaged as the fault dictates, and the
/// server is rebuilt from storage alone — with the recovered state
/// digest checked against the never-crashed server whenever the fault
/// semantics define what "identical" means (the tail-damage faults
/// lose a suffix of events by design, so there the protocol's
/// retry/deadline machinery is what restores equivalence, not replay).
pub(crate) struct DurableRound<'a> {
    core: ServerCore,
    wal: WalWriter<'a>,
    header: WalHeader,
    plan: FaultPlan,
    tally: Arc<FaultTally>,
    /// Monotone count of events offered to the host — the crash
    /// schedule's key. Independent of the append count so a
    /// crash-before-append consumes its schedule slot.
    seen: u64,
    recoveries: u64,
    truncated_tails: u64,
}

impl<'a> DurableRound<'a> {
    pub(crate) fn new(
        segments: SegmentMap,
        fleet: &[VehicleId],
        config: PlatformConfig,
        plan: &FaultPlan,
        wal: &'a mut dyn LogSink,
        tally: Arc<FaultTally>,
    ) -> Result<Self> {
        let core = ServerCore::new(segments.clone(), fleet, config, Registry::new())?;
        let header = WalHeader {
            segments,
            fleet: fleet.to_vec(),
            config,
        };
        let wal = WalWriter::create(wal, &header, DEFAULT_SYNC_EVERY)?;
        Ok(DurableRound {
            core,
            wal,
            header,
            plan: plan.clone(),
            tally,
            seen: 0,
            recoveries: 0,
            truncated_tails: 0,
        })
    }

    /// Kills the live server and rebuilds it from the (possibly
    /// damaged) log. The recovered state — armed deadlines included —
    /// replaces `self.core`; a terminal action the replay reached is
    /// handed back for the driver. With `expected_digest` set, recovery
    /// is verified byte-identical to the never-crashed server.
    fn crash_and_recover(
        &mut self,
        damage: Option<TailDamage>,
        expected_digest: Option<String>,
    ) -> Result<Vec<Action>> {
        self.recoveries += 1;
        let mut bytes = self.wal.contents()?;
        match damage {
            Some(TailDamage::Truncate(n)) => {
                let keep = bytes.len().saturating_sub(n);
                bytes.truncate(keep);
            }
            Some(TailDamage::FlipLastByte) => {
                if let Some(last) = bytes.last_mut() {
                    *last ^= 0xff;
                }
            }
            None => {}
        }
        let replay = read_wal(&bytes)?;
        if replay.dropped_tail_bytes > 0 {
            self.truncated_tails += 1;
        }
        // Compact the salvaged prefix back into a clean log, so a
        // second crash recovers from an intact file.
        self.wal.rewrite(&self.header, &replay.events)?;
        // A restarted process starts with a fresh metrics registry:
        // replay re-records the protocol counters from scratch, so
        // keeping the old registry would double-count them.
        let (core, terminal) = ServerCore::recover(
            self.header.segments.clone(),
            &self.header.fleet,
            self.header.config,
            Registry::new(),
            &replay.events,
        )?;
        if let Some(expected) = expected_digest {
            if core.state_digest() != expected {
                return Err(MiddlewareError::Durability(
                    "recovered server state diverged from the never-crashed server".to_string(),
                ));
            }
        }
        self.core = core;
        Ok(terminal.into_iter().collect())
    }
}

impl EventHost for DurableRound<'_> {
    fn handle(&mut self, event: Event) -> Result<Vec<Action>> {
        let idx = self.seen;
        self.seen += 1;
        match self.plan.server_fault(idx) {
            None => {
                self.wal.append_event(&event)?;
                Ok(self.core.handle(event))
            }
            Some(ServerFault::CrashBeforeAppend) => {
                // The in-flight event dies with the process: the live
                // server never saw it either, so live and recovered
                // must agree exactly.
                self.tally.count_server_crash();
                let expected = self.core.state_digest();
                self.crash_and_recover(None, Some(expected))
            }
            Some(ServerFault::CrashAfterAppend) => {
                // Logged but un-acked: the event's *state* survives via
                // replay, its output actions die with the crash. Apply
                // it to the live core (discarding the doomed actions)
                // purely to compute the expected digest.
                self.wal.append_event(&event)?;
                let _ = self.core.handle(event);
                self.tally.count_server_crash();
                let expected = self.core.state_digest();
                self.crash_and_recover(None, Some(expected))
            }
            Some(ServerFault::CrashTruncateTail(n)) => {
                self.wal.append_event(&event)?;
                self.tally.count_server_crash();
                self.tally.count_torn_wal_tail();
                self.crash_and_recover(Some(TailDamage::Truncate(n)), None)
            }
            Some(ServerFault::CrashCorruptTail) => {
                self.wal.append_event(&event)?;
                self.tally.count_server_crash();
                self.tally.count_torn_wal_tail();
                self.crash_and_recover(Some(TailDamage::FlipLastByte), None)
            }
        }
    }

    fn next_deadline(&self) -> Option<VirtualInstant> {
        self.core.next_deadline()
    }

    fn finish(&mut self) -> Result<()> {
        self.wal.sync()?;
        let reg = self.core.registry_handle();
        reg.counter("durability.appends").add(self.wal.appends());
        reg.counter("durability.fsync_batches")
            .add(self.wal.syncs());
        reg.counter("durability.recoveries").add(self.recoveries);
        reg.counter("durability.truncated_tail")
            .add(self.truncated_tails);
        Ok(())
    }

    fn registry(&self) -> Registry {
        self.core.registry_handle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdwifi_geo::{Point, Rect};

    fn segments() -> SegmentMap {
        SegmentMap::new(
            Rect::new(Point::new(0.0, -20.0), Point::new(300.0, 80.0)).unwrap(),
            150.0,
        )
    }

    fn header() -> WalHeader {
        WalHeader {
            segments: segments(),
            fleet: vec![VehicleId(0), VehicleId(3), VehicleId(7)],
            config: PlatformConfig {
                seed: 42,
                ..PlatformConfig::default()
            },
        }
    }

    #[test]
    fn crc32_known_answer() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip_and_tolerate_torn_tails() {
        // Layout: `[len u32 LE][crc32 u32 LE][payload]`.
        let header = [5u32.to_le_bytes(), crc32(b"alpha").to_le_bytes()].concat();
        assert_eq!(encode_frame(b"alpha"), [&header[..], b"alpha"].concat());

        let mut log = encode_frame(b"alpha");
        log.extend_from_slice(&encode_frame(b"beta"));
        log.extend_from_slice(&encode_frame(b"gamma"));
        let (payloads, dropped) = split_frames(&log);
        assert_eq!(payloads, vec![&b"alpha"[..], b"beta", b"gamma"]);
        assert_eq!(dropped, 0);

        // Truncate into the last frame: it and only it is dropped.
        let torn = &log[..log.len() - 3];
        let (payloads, dropped) = split_frames(torn);
        assert_eq!(payloads, vec![&b"alpha"[..], b"beta"]);
        assert_eq!(dropped, 8 + 5 - 3);

        // Corrupt a middle frame: it *and everything after it* goes.
        let mut corrupt = log.clone();
        corrupt[8 + 5 + 8] ^= 0xff; // first payload byte of "beta"
        let (payloads, dropped) = split_frames(&corrupt);
        assert_eq!(payloads, vec![&b"alpha"[..]]);
        assert_eq!(dropped, corrupt.len() - (8 + 5));
    }

    #[test]
    fn wal_header_round_trips() {
        let h = header();
        let frame = h.to_frame();
        let decoded = WalHeader::from_frame(&frame).unwrap();
        assert_eq!(decoded.fleet, h.fleet);
        assert_eq!(decoded.config, h.config);
        assert_eq!(decoded.segments.to_frame(), h.segments.to_frame());
        assert_eq!(decoded.to_frame(), frame);

        let payload = &frame[8..];
        let mut future_version = payload.to_vec();
        future_version[0] = wire::WIRE_VERSION + 1;
        assert!(
            WalHeader::decode_binary(&future_version).is_err(),
            "future version"
        );
        let mut wrong_tag = payload.to_vec();
        wrong_tag[1] = wire::TAG_SNAPSHOT;
        assert!(WalHeader::decode_binary(&wrong_tag).is_err(), "wrong tag");
    }

    #[test]
    fn wal_writer_logs_header_then_events_and_batches_syncs() {
        let mut sink = MemorySink::new();
        let h = header();
        let mut w = WalWriter::create(&mut sink, &h, 2).unwrap();
        assert_eq!(w.syncs(), 1, "creation syncs the header");
        let events = [
            Event::LinksClosed {
                now: VirtualInstant::from_micros(5),
            },
            Event::Deadline {
                now: VirtualInstant::from_micros(9),
            },
            Event::Message {
                now: VirtualInstant::from_micros(11),
                from: VehicleId(7),
                msg: crate::messages::ToServer::Failed("engine fire".to_string()),
            },
        ];
        for e in &events {
            w.append_event(e).unwrap();
        }
        assert_eq!(w.appends(), 3);
        assert_eq!(w.syncs(), 2, "one count-triggered sync after two appends");
        let replay = read_wal(&w.contents().unwrap()).unwrap();
        assert_eq!(replay.events, events);
        assert_eq!(replay.dropped_tail_bytes, 0);
        assert_eq!(replay.header.fleet, h.fleet);

        // Compaction keeps only what it is told to keep.
        w.rewrite(&h, &events[..1]).unwrap();
        let replay = read_wal(&w.contents().unwrap()).unwrap();
        assert_eq!(replay.events, events[..1]);
    }

    #[test]
    fn read_wal_drops_torn_tail_but_rejects_headerless_logs() {
        let mut sink = MemorySink::new();
        let h = header();
        let mut w = WalWriter::create(&mut sink, &h, 64).unwrap();
        let e = Event::LinksClosed {
            now: VirtualInstant::from_micros(1),
        };
        w.append_event(&e).unwrap();
        w.append_event(&e).unwrap();
        let full = w.contents().unwrap();
        let torn = &full[..full.len() - 2];
        let replay = read_wal(torn).unwrap();
        assert_eq!(replay.events.len(), 1, "torn last event dropped");
        assert_eq!(replay.dropped_tail_bytes, replay_len(&full) - 2);

        assert!(matches!(
            read_wal(&full[..4]),
            Err(MiddlewareError::Durability(_))
        ));
        assert!(matches!(read_wal(b""), Err(MiddlewareError::Durability(_))));
    }

    /// Length of `full` minus its final frame.
    fn replay_len(full: &[u8]) -> usize {
        let (payloads, _) = split_frames(full);
        let last = payloads.last().unwrap();
        8 + last.len()
    }

    #[test]
    fn file_sink_round_trips_through_disk() {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/durability-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("wal-{}.log", std::process::id()));
        let mut sink = FileSink::create(&path).unwrap();
        sink.append(&encode_frame(b"on disk")).unwrap();
        sink.sync().unwrap();
        let bytes = sink.contents().unwrap();
        let (payloads, dropped) = split_frames(&bytes);
        assert_eq!(payloads, vec![&b"on disk"[..]]);
        assert_eq!(dropped, 0);
        sink.reset(&encode_frame(b"compacted")).unwrap();
        let bytes = sink.contents().unwrap();
        let (payloads, _) = split_frames(&bytes);
        assert_eq!(payloads, vec![&b"compacted"[..]]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_store_alternates_slots_and_survives_torn_writes() {
        let mut store = SnapshotStore::in_memory();
        assert!(store.load().unwrap().is_none(), "empty store");

        let mut db = ShardedDatabase::new();
        db.absorb(
            0,
            &segments(),
            &[crowdwifi_crowd::fusion::FusedAp {
                position: Point::new(50.0, 30.0),
                support: 1.5,
                contributors: 2,
            }],
        );
        store.write(0, &db, false).unwrap();
        let loaded = store.load().unwrap().unwrap();
        assert_eq!(loaded.seq, 0);
        assert_eq!(loaded.round, 0);
        assert_eq!(loaded.database.to_frame(), db.to_frame());

        // A torn second write must not destroy the first snapshot.
        let mut db2 = db.clone();
        db2.absorb(
            1,
            &segments(),
            &[crowdwifi_crowd::fusion::FusedAp {
                position: Point::new(250.0, 30.0),
                support: 2.0,
                contributors: 3,
            }],
        );
        store.write(1, &db2, true).unwrap();
        assert_eq!(store.torn_writes(), 1);
        let loaded = store.load().unwrap().unwrap();
        assert_eq!(loaded.seq, 0, "fell back to the previous good slot");
        assert_eq!(loaded.database.to_frame(), db.to_frame());

        // The next good write overwrites the torn slot and wins.
        store.write(2, &db2, false).unwrap();
        let loaded = store.load().unwrap().unwrap();
        assert_eq!(loaded.seq, 2);
        assert_eq!(loaded.database.to_frame(), db2.to_frame());
    }
}
