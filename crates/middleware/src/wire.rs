//! The middleware's wire codec: length-prefixed, CRC32-validated frames
//! over a compact little-endian payload encoding.
//!
//! It is the only serialization in the crate: transport links, WAL
//! frames and snapshots all carry it. The design follows the
//! embedded-sensing playbook: no serialization crate, no per-message
//! allocation on the encode path, and every frame is independently
//! checksummed so a flipped bit quarantines one sender instead of
//! poisoning a round.
//!
//! # Frame layout
//!
//! ```text
//! [len: u32 LE][crc32(payload): u32 LE][payload...]
//! payload = [version: u8][tag: u8][fields...]
//! ```
//!
//! The frame header is byte-identical to the durability layer's WAL
//! framing, so one `split_frames` walks both. The payload's leading
//! version byte must be [`WIRE_VERSION`]; a payload with any other
//! first byte fails to decode.
//!
//! # Field encodings
//!
//! * unsigned integers (ids, counts, lengths, microsecond timestamps)
//!   travel as LEB128 varints;
//! * `i8` labels as one sign-extended byte;
//! * `f64` as the LEB128 varint of its **byte-swapped** IEEE-754 bit
//!   pattern. Real-world coordinates (lattice nodes, credits, segment
//!   sizes) have mostly-zero low mantissa bytes, so byte-swapping puts
//!   the zeros in front and the varint collapses them: `60.0` costs 3
//!   bytes instead of 8. Arbitrary bit patterns — NaN payloads
//!   included — still round-trip exactly, at a worst case of 10 bytes;
//! * strings as a varint byte length followed by raw UTF-8.
//!
//! Encoders append into a caller-supplied `Vec<u8>` ([`WireMessage::
//! encode_binary`] / [`frame_into`]), so a steady-state sender (the
//! WAL writer, the bench loops) reuses one buffer and performs zero
//! per-message allocations. Decoders are zero-copy: [`WireReader`]
//! walks the borrowed payload without intermediate buffers.

use crate::messages::codec_err;
use crate::Result;
use crowdwifi_geo::Point;
use std::time::Duration;

/// Version byte opening every payload. Version 1 was a retired text
/// codec, so this encoding starts at 2.
pub const WIRE_VERSION: u8 = 2;

// ---------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------

/// Slice-by-8 lookup tables: `TABLES[0]` is the classic byte-at-a-time
/// table, `TABLES[j]` advances a byte j positions further, so eight
/// bytes fold in one step. Checksumming every frame on the transport
/// hot path is what pays for the extra 7 KiB.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut i = 0;
        while i < 256 {
            t[j][i] = t[0][(t[j - 1][i] & 0xff) as usize] ^ (t[j - 1][i] >> 8);
            i += 1;
        }
        j += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// IEEE CRC32 (the zlib/PNG polynomial), table-driven. Self-contained
/// because the offline build bakes in no checksum crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Streaming CRC32: folds `bytes` into a running checksum, so a digest
/// over a whole frame sequence needs no concatenated copy. Eight bytes
/// per table step (slice-by-8), byte-at-a-time on the tail.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = crc ^ 0xffff_ffff;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[..4].try_into().expect("4 bytes")) ^ c;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().expect("4 bytes"));
        c = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

// ---------------------------------------------------------------------
// Writer primitives (append-only, caller-supplied buffer)
// ---------------------------------------------------------------------

/// Appends a LEB128 varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Appends an `i8` as one byte.
pub fn put_i8(out: &mut Vec<u8>, v: i8) {
    out.push(v as u8);
}

/// Appends an `f64` as the varint of its byte-swapped bit pattern (see
/// the [module docs](self) for why this compresses real coordinates).
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_varint(out, v.to_bits().swap_bytes());
}

/// Appends a `Duration` exactly, as varints of its whole seconds and
/// its sub-second nanoseconds.
pub fn put_duration(out: &mut Vec<u8>, d: Duration) {
    put_varint(out, d.as_secs());
    put_varint(out, u64::from(d.subsec_nanos()));
}

/// Appends a string as a varint byte length plus raw UTF-8.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends the binary payload preamble: version byte plus message tag.
pub fn put_header(out: &mut Vec<u8>, tag: u8) {
    out.push(WIRE_VERSION);
    out.push(tag);
}

/// Appends one complete frame — `[len][crc][payload]` — where the
/// payload is whatever `encode` appends. The length and checksum are
/// back-filled after encoding, so the payload is written exactly once
/// into the caller's buffer: no scratch allocation per message.
pub fn frame_into(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0u8; 8]);
    encode(out);
    let payload_len = out.len() - start - 8;
    let crc = crc32(&out[start + 8..]);
    out[start..start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Validates `bytes` as exactly one frame and returns its payload.
///
/// # Errors
///
/// Returns [`crate::MiddlewareError::Codec`] on a short header, a
/// length prefix that disagrees with the byte count (oversized or
/// truncated), or a CRC mismatch.
pub fn unframe(bytes: &[u8]) -> Result<&[u8]> {
    if bytes.len() < 8 {
        return Err(codec_err("frame shorter than its header"));
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    let want = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    let payload = &bytes[8..];
    if payload.len() != len {
        return Err(codec_err(format!(
            "frame length prefix {len} disagrees with {} payload bytes",
            payload.len()
        )));
    }
    if crc32(payload) != want {
        return Err(codec_err("frame CRC mismatch"));
    }
    Ok(payload)
}

// ---------------------------------------------------------------------
// Reader (zero-copy)
// ---------------------------------------------------------------------

/// Zero-copy pull parser over one binary payload. Every accessor
/// returns [`crate::MiddlewareError::Codec`] on truncated or malformed
/// input; [`WireReader::finish`] rejects trailing bytes.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `payload` (frame header already stripped).
    pub fn new(payload: &'a [u8]) -> Self {
        WireReader {
            buf: payload,
            pos: 0,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    fn byte(&mut self) -> Result<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| codec_err("truncated binary payload"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads and checks the payload preamble, returning the message
    /// tag.
    pub fn header(&mut self) -> Result<u8> {
        let version = self.byte()?;
        if version != WIRE_VERSION {
            return Err(codec_err(format!(
                "unsupported wire version {version} (expected {WIRE_VERSION})"
            )));
        }
        self.byte()
    }

    /// Reads a LEB128 varint. When at least eight payload bytes remain,
    /// varints up to four bytes long — one-byte tags and counts plus the
    /// 2–4 byte byte-swapped coordinate floats that dominate real
    /// traffic — resolve from a single little-endian `u64` load; the
    /// loop handles longer values and buffer tails.
    #[inline]
    pub fn varint(&mut self) -> Result<u64> {
        let buf = &self.buf[self.pos..];
        if buf.len() >= 8 {
            let word = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes"));
            if word & 0x80 == 0 {
                self.pos += 1;
                return Ok(word & 0x7f);
            }
            if word & 0x8000 == 0 {
                self.pos += 2;
                return Ok((word & 0x7f) | ((word >> 1) & 0x3f80));
            }
            if word & 0x0080_0000 == 0 {
                self.pos += 3;
                return Ok((word & 0x7f) | ((word >> 1) & 0x3f80) | ((word >> 2) & 0x001f_c000));
            }
            if word & 0x8000_0000 == 0 {
                self.pos += 4;
                return Ok((word & 0x7f)
                    | ((word >> 1) & 0x3f80)
                    | ((word >> 2) & 0x001f_c000)
                    | ((word >> 3) & 0x0fe0_0000));
            }
        }
        match buf.first() {
            Some(&first) if first < 0x80 => {
                self.pos += 1;
                return Ok(u64::from(first));
            }
            None => return Err(codec_err("truncated varint")),
            _ => {}
        }
        let mut v = 0u64;
        for (i, &byte) in buf.iter().enumerate().take(10) {
            if i == 9 && byte > 0x01 {
                return Err(codec_err("varint overflows u64"));
            }
            v |= u64::from(byte & 0x7f) << (i * 7);
            if byte & 0x80 == 0 {
                self.pos += i + 1;
                return Ok(v);
            }
        }
        if buf.len() < 10 {
            return Err(codec_err("truncated varint"));
        }
        Err(codec_err("varint longer than 10 bytes"))
    }

    /// Reads a varint and narrows it to `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        u32::try_from(self.varint()?).map_err(|_| codec_err("varint overflows u32"))
    }

    /// Reads a varint and narrows it to `usize`.
    pub fn usize(&mut self) -> Result<usize> {
        usize::try_from(self.varint()?).map_err(|_| codec_err("varint overflows usize"))
    }

    /// Reads a `Duration` written by [`put_duration`], rejecting a
    /// nanosecond part of a second or more.
    pub fn duration(&mut self) -> Result<Duration> {
        let secs = self.varint()?;
        let nanos = self.u32()?;
        if nanos >= 1_000_000_000 {
            return Err(codec_err(format!("duration nanos {nanos} ≥ 1e9")));
        }
        Ok(Duration::new(secs, nanos))
    }

    /// Reads one sign-extended byte.
    pub fn i8(&mut self) -> Result<i8> {
        Ok(self.byte()? as i8)
    }

    /// Reads an `f64` written by [`put_f64`] (bit-exact, NaN payloads
    /// included).
    #[inline]
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.varint()?.swap_bytes()))
    }

    /// Reads a 2-D point (two [`WireReader::f64`]s).
    pub fn point(&mut self) -> Result<Point> {
        Ok(Point::new(self.f64()?, self.f64()?))
    }

    /// Reads a string written by [`put_str`]. The declared length is
    /// checked against the remaining bytes *before* anything is
    /// allocated, so an oversized length prefix fails cheaply.
    pub fn string(&mut self) -> Result<String> {
        let len = self.usize()?;
        if len > self.remaining() {
            return Err(codec_err(format!(
                "string length {len} exceeds {} remaining payload bytes",
                self.remaining()
            )));
        }
        let bytes = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        String::from_utf8(bytes.to_vec()).map_err(|_| codec_err("non-UTF-8 string bytes"))
    }

    /// Consumes the reader, rejecting trailing bytes.
    pub fn finish(self) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(codec_err(format!(
                "{} trailing bytes after binary payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The message trait
// ---------------------------------------------------------------------

/// A protocol type with a binary wire encoding. Implementors provide
/// the payload body (version byte + tag + fields); framing, strict
/// whole-buffer decoding and the convenience allocating forms are
/// derived here.
pub trait WireMessage: Sized {
    /// Appends this message's binary payload (version byte, tag,
    /// fields) to `out`. Never fails and never allocates beyond `out`'s
    /// growth.
    fn encode_binary(&self, out: &mut Vec<u8>);

    /// Decodes the payload body from `r`, leaving any trailing bytes
    /// unread (so messages nest).
    ///
    /// # Errors
    ///
    /// Returns [`crate::MiddlewareError::Codec`] on truncated input,
    /// unknown tags or unsupported versions.
    fn decode_body(r: &mut WireReader<'_>) -> Result<Self>;

    /// Decodes one complete payload, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// As [`WireMessage::decode_body`], plus trailing garbage.
    fn decode_binary(payload: &[u8]) -> Result<Self> {
        let mut r = WireReader::new(payload);
        let v = Self::decode_body(&mut r)?;
        r.finish()?;
        Ok(v)
    }

    /// Appends this message as one complete CRC-framed record.
    fn encode_frame_into(&self, out: &mut Vec<u8>) {
        frame_into(out, |b| self.encode_binary(b));
    }

    /// This message as a freshly allocated frame (convenience; hot
    /// paths reuse a buffer via [`WireMessage::encode_frame_into`]).
    fn to_frame(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_frame_into(&mut out);
        out
    }

    /// Decodes one complete frame (header + CRC validated).
    ///
    /// # Errors
    ///
    /// As [`unframe`] and [`WireMessage::decode_binary`].
    fn from_frame(bytes: &[u8]) -> Result<Self> {
        Self::decode_binary(unframe(bytes)?)
    }
}

// Message tags. One namespace across all frame kinds, so a frame
// misrouted between layers can never decode as the wrong type.
/// [`crate::messages::ToServer::Upload`].
pub const TAG_UPLOAD: u8 = 0x01;
/// [`crate::messages::ToServer::Answers`].
pub const TAG_ANSWERS: u8 = 0x02;
/// [`crate::messages::ToServer::Failed`].
pub const TAG_FAILED: u8 = 0x03;
/// [`crate::messages::ToVehicle::Assign`].
pub const TAG_ASSIGN: u8 = 0x10;
/// [`crate::messages::ToVehicle::RequestUpload`].
pub const TAG_REQUEST_UPLOAD: u8 = 0x11;
/// [`crate::messages::ToVehicle::Done`].
pub const TAG_DONE: u8 = 0x12;
/// [`crate::messages::ToVehicle::Abort`].
pub const TAG_ABORT: u8 = 0x13;
/// [`crate::protocol::Event::Message`].
pub const TAG_EVENT_MESSAGE: u8 = 0x20;
/// [`crate::protocol::Event::Deadline`].
pub const TAG_EVENT_DEADLINE: u8 = 0x21;
/// [`crate::protocol::Event::LinksClosed`].
pub const TAG_EVENT_LINKS_CLOSED: u8 = 0x22;
/// [`crate::protocol::Event::Garbled`].
pub const TAG_EVENT_GARBLED: u8 = 0x23;
/// [`crate::segment::SegmentMap`].
pub const TAG_SEGMENT_MAP: u8 = 0x30;
/// [`crate::protocol::PlatformConfig`].
pub const TAG_CONFIG: u8 = 0x31;
/// [`crate::protocol::ShardedDatabase`].
pub const TAG_DATABASE: u8 = 0x32;
/// [`crate::durability::WalHeader`].
pub const TAG_WAL_HEADER: u8 = 0x33;
/// A [`crate::durability::SnapshotStore`] record.
pub const TAG_SNAPSHOT: u8 = 0x34;

// ---------------------------------------------------------------------
// Wire digest
// ---------------------------------------------------------------------

/// A running fingerprint of a frame sequence: frame count, byte count
/// and a chained CRC32 over the raw frame bytes in arrival order. The
/// deterministic backends (sim, fleet) fold every uplink frame the
/// server consumes into one of these, and the equivalence tests compare
/// the rendered digest byte-for-byte — proving not just that both
/// backends reached the same state, but that the *bytes on the wire*
/// were identical.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireDigest {
    crc: u32,
    frames: u64,
    bytes: u64,
}

impl WireDigest {
    /// An empty digest.
    pub fn new() -> Self {
        WireDigest::default()
    }

    /// Folds one raw frame into the digest.
    pub fn absorb(&mut self, frame: &[u8]) {
        self.crc = crc32_update(self.crc, frame);
        self.frames += 1;
        self.bytes += frame.len() as u64;
    }

    /// Frames absorbed so far.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// The digest as a comparable string.
    pub fn render(&self) -> String {
        format!(
            "frames={} bytes={} crc=0x{:08x}",
            self.frames, self.bytes, self.crc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_answer_and_streaming_equivalence() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        let split = crc32_update(crc32_update(0, b"1234"), b"56789");
        assert_eq!(split, crc32(b"123456789"));
    }

    #[test]
    fn varints_round_trip_boundaries() {
        let mut out = Vec::new();
        let cases = [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX,
        ];
        for &v in &cases {
            out.clear();
            put_varint(&mut out, v);
            let mut r = WireReader::new(&out);
            assert_eq!(r.varint().unwrap(), v);
            r.finish().unwrap();
        }
        // u64::MAX takes the full 10 bytes.
        out.clear();
        put_varint(&mut out, u64::MAX);
        assert_eq!(out.len(), 10);
    }

    #[test]
    fn overlong_varints_are_rejected() {
        // 11 continuation bytes: longer than any u64 varint.
        let bad = [0x80u8; 11];
        assert!(WireReader::new(&bad).varint().is_err());
        // 10 bytes but the last one carries bits past bit 63.
        let mut overflow = [0x80u8; 10];
        overflow[9] = 0x02;
        assert!(WireReader::new(&overflow).varint().is_err());
        // Truncated mid-varint.
        assert!(WireReader::new(&[0x80u8]).varint().is_err());
    }

    #[test]
    fn byte_swapped_floats_compress_lattice_coordinates() {
        let mut out = Vec::new();
        put_f64(&mut out, 60.0);
        assert!(out.len() <= 3, "60.0 took {} bytes", out.len());
        let mut r = WireReader::new(&out);
        assert_eq!(r.f64().unwrap().to_bits(), 60.0f64.to_bits());

        // Arbitrary bit patterns still round-trip, at worst 10 bytes.
        for bits in [u64::MAX, 0x7ff8_0000_dead_beef, 1, 0x8000_0000_0000_0000] {
            out.clear();
            put_f64(&mut out, f64::from_bits(bits));
            assert!(out.len() <= 10);
            let mut r = WireReader::new(&out);
            assert_eq!(r.f64().unwrap().to_bits(), bits);
        }
    }

    #[test]
    fn frames_validate_length_and_crc() {
        let mut frame = Vec::new();
        frame_into(&mut frame, |out| out.extend_from_slice(b"payload"));
        assert_eq!(unframe(&frame).unwrap(), b"payload");

        let mut bad_crc = frame.clone();
        *bad_crc.last_mut().unwrap() ^= 0x01;
        assert!(unframe(&bad_crc).is_err());

        let mut oversized = frame.clone();
        oversized[0] = 0xff; // length prefix disagrees with byte count
        assert!(unframe(&oversized).is_err());

        assert!(unframe(&frame[..frame.len() - 1]).is_err(), "truncated");
        assert!(unframe(&frame[..4]).is_err(), "short header");
    }

    #[test]
    fn string_length_is_checked_before_allocation() {
        let mut out = Vec::new();
        put_varint(&mut out, u64::MAX); // absurd declared length
        out.extend_from_slice(b"short");
        assert!(WireReader::new(&out).string().is_err());
    }

    #[test]
    fn wire_digest_is_order_sensitive() {
        let mut a = WireDigest::new();
        a.absorb(b"one");
        a.absorb(b"two");
        let mut b = WireDigest::new();
        b.absorb(b"two");
        b.absorb(b"one");
        assert_ne!(a.render(), b.render());
        assert_eq!(a.frames(), 2);
    }
}
