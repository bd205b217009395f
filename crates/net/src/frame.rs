//! The wire format: length-prefixed, version-tagged, CRC-checked frames.
//!
//! ```text
//!  offset  size  field
//!  0       4     magic  "IDB1"
//!  4       1     protocol version (currently 1)
//!  5       1     frame type
//!  6       2     flags, big-endian (bit 0 = [`FLAG_TRACE`]; others reserved)
//!  8       4     payload length, big-endian (cap: 64 MiB)
//!  12      4     CRC-32 (IEEE) of the payload, big-endian
//!  16      ..    payload
//! ```
//!
//! [`FLAG_TRACE`] is the framing extension for pipeline observability: a
//! `Publish` frame with bit 0 set carries 16 extra payload bytes
//! ([`TraceInfo`]: trace id + send timestamp) after the opaque envelope
//! blob, letting the receiving broker server stamp the broker stage into a
//! sampled trace and measure the client→server hop without parsing
//! untraced payloads.
//!
//! Frame payloads are a tiny hand-rolled binary encoding (length-prefixed
//! strings and byte blobs); the *application* envelopes carried inside
//! `Publish` frames stay exactly what the in-process broker transports —
//! opaque `Bytes` produced by `invalidb-json`. The decoder is incremental:
//! feed it arbitrary chunks as they arrive off the socket and it yields
//! complete frames, holding torn tails until the rest shows up, and
//! rejecting corruption (bad magic/version/CRC, oversized lengths) with a
//! hard error so the connection can be dropped instead of silently
//! desynchronizing.

use bytes::Bytes;
use std::fmt;

/// Bytes every frame starts with.
pub const MAGIC: [u8; 4] = *b"IDB1";

/// Current protocol version.
pub const PROTOCOL_VERSION: u8 = 1;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;

/// Upper bound on payload size — anything larger is corruption.
pub const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// Header flag bit 0: the `Publish` payload is followed by [`TraceInfo`].
pub const FLAG_TRACE: u16 = 0x0001;

/// Stage-tracing sidecar of a `Publish` frame (present iff [`FLAG_TRACE`]
/// is set): identifies the sampled trace inside the opaque envelope and
/// carries the sender's transmit timestamp, so the server can attribute
/// client→server latency to the broker stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceInfo {
    /// Trace id, mirroring the `trace.id` field inside the envelope.
    pub trace_id: u64,
    /// Sender wall clock at transmit, unix-epoch microseconds.
    pub sent_at_micros: u64,
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Start delivering `topic` to this connection.
    Subscribe {
        /// Client-chosen sequence number, echoed in the `Ack`.
        seq: u64,
        /// Topic name.
        topic: String,
    },
    /// Stop delivering `topic` to this connection.
    Unsubscribe {
        /// Client-chosen sequence number, echoed in the `Ack`.
        seq: u64,
        /// Topic name.
        topic: String,
    },
    /// An application envelope, in either direction: client → server to
    /// publish, server → client to deliver to a subscription.
    Publish {
        /// Topic name.
        topic: String,
        /// Opaque application payload.
        payload: Bytes,
        /// Stage-tracing sidecar ([`FLAG_TRACE`] extension).
        trace: Option<TraceInfo>,
    },
    /// Server confirmation of a `Subscribe`/`Unsubscribe`.
    Ack {
        /// The confirmed request's sequence number.
        seq: u64,
    },
    /// Liveness probe, in either direction.
    Heartbeat {
        /// Sender-chosen value, echoed back by the peer.
        nonce: u64,
    },
    /// Worker → coordinator: request membership in the matching grid.
    JoinCluster {
        /// Unique worker name (the assignment table keys on it).
        worker: String,
        /// Relative placement weight (1 = one share of cells).
        weight: u32,
    },
    /// Coordinator → worker: the authoritative epoch-numbered assignment
    /// table mapping grid cells to workers. Broadcast to every joined
    /// worker whenever membership changes.
    Assign {
        /// Epoch number; strictly increases on every membership change.
        epoch: u64,
        /// Grid rows (query partitions).
        query_partitions: u32,
        /// Grid columns (write partitions).
        write_partitions: u32,
        /// `(cell index, worker name)` pairs, one per *assigned* cell —
        /// cells missing from the list are currently unassigned.
        cells: Vec<(u32, String)>,
    },
    /// Worker → coordinator: per-cell load report (feeds placement and
    /// the coordinator's assignment-table view).
    CellState {
        /// Reporting worker.
        worker: String,
        /// Epoch the worker is running.
        epoch: u64,
        /// Cell index being reported.
        cell: u32,
        /// Active query groups hosted in the cell.
        active_queries: u64,
        /// After-images currently retained for replay.
        retained_writes: u64,
    },
    /// Worker → coordinator liveness. Unlike the plain [`Frame::Heartbeat`]
    /// it names the worker and its current epoch, so the coordinator can
    /// detect members running a stale assignment and re-send it.
    WorkerHeartbeat {
        /// Reporting worker.
        worker: String,
        /// Epoch the worker is running (0 before the first `Assign`).
        epoch: u64,
        /// Sender-chosen value (diagnostics).
        nonce: u64,
    },
    /// Worker → coordinator: a full `MetricsSnapshot` of the worker's
    /// registry, shipped on a fixed cadence so the coordinator can serve a
    /// federated `/metrics` for the whole fleet. The snapshot is opaque at
    /// this layer (its JSON rendering), so the wire protocol does not chase
    /// the metrics schema.
    MetricsReport {
        /// Reporting worker.
        worker: String,
        /// Epoch the worker is running.
        epoch: u64,
        /// `MetricsSnapshot::to_json` bytes.
        snapshot: Bytes,
    },
}

impl Frame {
    /// The frame type byte. Id 1 belonged to the retired `Hello` frame
    /// and is never reused.
    fn type_id(&self) -> u8 {
        match self {
            Frame::Subscribe { .. } => 2,
            Frame::Unsubscribe { .. } => 3,
            Frame::Publish { .. } => 4,
            Frame::Ack { .. } => 5,
            Frame::Heartbeat { .. } => 6,
            Frame::JoinCluster { .. } => 7,
            Frame::Assign { .. } => 8,
            Frame::CellState { .. } => 9,
            Frame::WorkerHeartbeat { .. } => 10,
            Frame::MetricsReport { .. } => 11,
        }
    }

    fn flags(&self) -> u16 {
        match self {
            Frame::Publish { trace: Some(_), .. } => FLAG_TRACE,
            _ => 0,
        }
    }

    /// Encodes the frame, header included, appending to `out` — the
    /// allocation-free form writer threads use to coalesce a whole batch
    /// of frames into one reused scratch buffer. The payload is written
    /// directly after the header; length and CRC are backfilled.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let header = out.len();
        out.extend_from_slice(&MAGIC);
        out.push(PROTOCOL_VERSION);
        out.push(self.type_id());
        out.extend_from_slice(&self.flags().to_be_bytes());
        out.extend_from_slice(&[0u8; 8]); // length + CRC, backfilled below
        let body = out.len();
        match self {
            Frame::Subscribe { seq, topic } | Frame::Unsubscribe { seq, topic } => {
                put_u64(out, *seq);
                put_str(out, topic);
            }
            Frame::Publish { topic, payload: blob, trace } => {
                put_str(out, topic);
                put_blob(out, blob);
                if let Some(info) = trace {
                    put_u64(out, info.trace_id);
                    put_u64(out, info.sent_at_micros);
                }
            }
            Frame::Ack { seq } => put_u64(out, *seq),
            Frame::Heartbeat { nonce } => put_u64(out, *nonce),
            Frame::JoinCluster { worker, weight } => {
                put_str(out, worker);
                out.extend_from_slice(&weight.to_be_bytes());
            }
            Frame::Assign { epoch, query_partitions, write_partitions, cells } => {
                put_u64(out, *epoch);
                out.extend_from_slice(&query_partitions.to_be_bytes());
                out.extend_from_slice(&write_partitions.to_be_bytes());
                out.extend_from_slice(&(cells.len() as u32).to_be_bytes());
                for (cell, worker) in cells {
                    out.extend_from_slice(&cell.to_be_bytes());
                    put_str(out, worker);
                }
            }
            Frame::CellState { worker, epoch, cell, active_queries, retained_writes } => {
                put_str(out, worker);
                put_u64(out, *epoch);
                out.extend_from_slice(&cell.to_be_bytes());
                put_u64(out, *active_queries);
                put_u64(out, *retained_writes);
            }
            Frame::WorkerHeartbeat { worker, epoch, nonce } => {
                put_str(out, worker);
                put_u64(out, *epoch);
                put_u64(out, *nonce);
            }
            Frame::MetricsReport { worker, epoch, snapshot } => {
                put_str(out, worker);
                put_u64(out, *epoch);
                put_blob(out, snapshot);
            }
        }
        let len = (out.len() - body) as u32;
        let crc = crc32(&out[body..]);
        out[header + 8..header + 12].copy_from_slice(&len.to_be_bytes());
        out[header + 12..header + 16].copy_from_slice(&crc.to_be_bytes());
    }

    /// Encodes the frame into a fresh buffer ([`Frame::encode_into`] with
    /// a one-off allocation).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + 64);
        self.encode_into(&mut out);
        out
    }

    fn decode_payload(type_id: u8, flags: u16, payload: &[u8]) -> Result<Frame, FrameError> {
        if flags & !FLAG_TRACE != 0 || (flags & FLAG_TRACE != 0 && type_id != 4) {
            return Err(FrameError::UnknownFlags(flags));
        }
        let mut r = Reader { buf: payload, pos: 0 };
        let frame = match type_id {
            2 => Frame::Subscribe { seq: r.u64()?, topic: r.str()? },
            3 => Frame::Unsubscribe { seq: r.u64()?, topic: r.str()? },
            4 => {
                let topic = r.str()?;
                let payload = r.blob()?;
                let trace = if flags & FLAG_TRACE != 0 {
                    Some(TraceInfo { trace_id: r.u64()?, sent_at_micros: r.u64()? })
                } else {
                    None
                };
                Frame::Publish { topic, payload, trace }
            }
            5 => Frame::Ack { seq: r.u64()? },
            6 => Frame::Heartbeat { nonce: r.u64()? },
            7 => Frame::JoinCluster { worker: r.str()?, weight: r.u32()? },
            8 => {
                let epoch = r.u64()?;
                let query_partitions = r.u32()?;
                let write_partitions = r.u32()?;
                let count = r.u32()? as usize;
                // The count is attacker-controlled until the entries are
                // actually read; bound the pre-allocation by what the
                // remaining payload could possibly hold (≥ 4 bytes each).
                let mut cells = Vec::with_capacity(count.min(payload.len() / 4));
                for _ in 0..count {
                    cells.push((r.u32()?, r.str()?));
                }
                Frame::Assign { epoch, query_partitions, write_partitions, cells }
            }
            9 => Frame::CellState {
                worker: r.str()?,
                epoch: r.u64()?,
                cell: r.u32()?,
                active_queries: r.u64()?,
                retained_writes: r.u64()?,
            },
            10 => Frame::WorkerHeartbeat { worker: r.str()?, epoch: r.u64()?, nonce: r.u64()? },
            11 => Frame::MetricsReport { worker: r.str()?, epoch: r.u64()?, snapshot: r.blob()? },
            other => return Err(FrameError::UnknownType(other)),
        };
        if r.pos != payload.len() {
            return Err(FrameError::TrailingBytes { extra: payload.len() - r.pos });
        }
        Ok(frame)
    }
}

/// Why a byte stream could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// First four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown frame type byte.
    UnknownType(u8),
    /// Payload length exceeds [`MAX_PAYLOAD`].
    Oversized(usize),
    /// CRC of the received payload did not match the header.
    CrcMismatch {
        /// CRC from the header.
        expected: u32,
        /// CRC of the received payload.
        actual: u32,
    },
    /// Payload ended inside a field.
    Truncated,
    /// Payload had bytes left over after the last field.
    TrailingBytes {
        /// How many bytes were unconsumed.
        extra: usize,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Header flags contain unsupported bits (or a flag invalid for the
    /// frame type).
    UnknownFlags(u16),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::UnknownType(t) => write!(f, "unknown frame type {t}"),
            FrameError::Oversized(n) => write!(f, "payload of {n} bytes exceeds cap"),
            FrameError::CrcMismatch { expected, actual } => {
                write!(f, "crc mismatch: header {expected:08x}, payload {actual:08x}")
            }
            FrameError::Truncated => write!(f, "payload truncated mid-field"),
            FrameError::TrailingBytes { extra } => write!(f, "{extra} trailing payload bytes"),
            FrameError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            FrameError::UnknownFlags(flags) => write!(f, "unsupported header flags {flags:#06x}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Incremental frame decoder.
///
/// Feed raw socket chunks with [`Decoder::feed`], then drain complete
/// frames with [`Decoder::next`]. `Ok(None)` means "need more bytes"
/// (including a torn tail mid-frame); an `Err` means the stream is
/// corrupt and the connection must be torn down — the decoder does not
/// attempt to resynchronize.
#[derive(Default)]
pub struct Decoder {
    buf: Vec<u8>,
    /// Set once a hard error is returned; all further reads fail.
    poisoned: bool,
}

impl Decoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends received bytes.
    pub fn feed(&mut self, chunk: &[u8]) {
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes buffered but not yet consumed (torn tail size).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Tries to decode the next complete frame.
    // Not `Iterator`: the tri-state (frame / need-more-bytes / corrupt
    // stream) is the decoder's whole contract.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Frame>, FrameError> {
        if self.poisoned {
            return Err(FrameError::Truncated);
        }
        match self.next_inner() {
            Ok(v) => Ok(v),
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    fn next_inner(&mut self) -> Result<Option<Frame>, FrameError> {
        if self.buf.len() < HEADER_LEN {
            // Validate what we can see of the header early, so garbage is
            // rejected without waiting for 16 bytes that may never come.
            let seen = self.buf.len().min(4);
            if self.buf[..seen] != MAGIC[..seen] {
                let mut m = [0u8; 4];
                m[..seen].copy_from_slice(&self.buf[..seen]);
                return Err(FrameError::BadMagic(m));
            }
            return Ok(None);
        }
        if self.buf[..4] != MAGIC {
            let mut m = [0u8; 4];
            m.copy_from_slice(&self.buf[..4]);
            return Err(FrameError::BadMagic(m));
        }
        if self.buf[4] != PROTOCOL_VERSION {
            return Err(FrameError::BadVersion(self.buf[4]));
        }
        let type_id = self.buf[5];
        let flags = u16::from_be_bytes([self.buf[6], self.buf[7]]);
        let len = u32::from_be_bytes([self.buf[8], self.buf[9], self.buf[10], self.buf[11]]) as usize;
        if len > MAX_PAYLOAD {
            return Err(FrameError::Oversized(len));
        }
        if self.buf.len() < HEADER_LEN + len {
            return Ok(None); // torn tail: wait for the rest
        }
        let expected = u32::from_be_bytes([self.buf[12], self.buf[13], self.buf[14], self.buf[15]]);
        let payload = &self.buf[HEADER_LEN..HEADER_LEN + len];
        let actual = crc32(payload);
        if actual != expected {
            return Err(FrameError::CrcMismatch { expected, actual });
        }
        let frame = Frame::decode_payload(type_id, flags, payload)?;
        self.buf.drain(..HEADER_LEN + len);
        Ok(Some(frame))
    }
}

// ---------------------------------------------------------------------------
// Payload field encoding
// ---------------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    // Topics and client names are short; u16 is plenty and keeps the
    // header compact. Oversized names are a caller bug.
    assert!(s.len() <= u16::MAX as usize, "string field too long");
    out.extend_from_slice(&(s.len() as u16).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_blob(out: &mut Vec<u8>, b: &[u8]) {
    out.extend_from_slice(&(b.len() as u32).to_be_bytes());
    out.extend_from_slice(b);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], FrameError> {
        if self.buf.len() - self.pos < n {
            return Err(FrameError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes(b.try_into().expect("8 bytes")))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes(b.try_into().expect("4 bytes")))
    }

    fn str(&mut self) -> Result<String, FrameError> {
        let len = {
            let b = self.take(2)?;
            u16::from_be_bytes([b[0], b[1]]) as usize
        };
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::BadUtf8)
    }

    fn blob(&mut self) -> Result<Bytes, FrameError> {
        let len = {
            let b = self.take(4)?;
            u32::from_be_bytes([b[0], b[1], b[2], b[3]]) as usize
        };
        Ok(Bytes::copy_from_slice(self.take(len)?))
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, no dependencies
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Subscribe { seq: 7, topic: "invalidb.cluster".into() },
            Frame::Unsubscribe { seq: 8, topic: "invalidb.notify.t".into() },
            Frame::Publish { topic: "t".into(), payload: Bytes::from_static(b"{\"n\":1}"), trace: None },
            Frame::Publish { topic: String::new(), payload: Bytes::new(), trace: None },
            Frame::Publish {
                topic: "traced".into(),
                payload: Bytes::from_static(b"{\"trace\":{\"id\":9}}"),
                trace: Some(TraceInfo { trace_id: 9, sent_at_micros: 1_700_000_000_000_000 }),
            },
            Frame::Ack { seq: u64::MAX },
            Frame::Heartbeat { nonce: 42 },
            Frame::JoinCluster { worker: "worker-1".into(), weight: 1 },
            Frame::Assign {
                epoch: 3,
                query_partitions: 2,
                write_partitions: 2,
                cells: vec![(0, "worker-1".into()), (1, "worker-1".into()), (2, "worker-2".into())],
            },
            Frame::Assign { epoch: 1, query_partitions: 1, write_partitions: 1, cells: Vec::new() },
            Frame::CellState {
                worker: "worker-2".into(),
                epoch: 3,
                cell: 2,
                active_queries: 17,
                retained_writes: 4096,
            },
            Frame::WorkerHeartbeat { worker: "worker-1".into(), epoch: 3, nonce: 99 },
            Frame::MetricsReport {
                worker: "worker-1".into(),
                epoch: 3,
                snapshot: Bytes::from_static(b"{\"counters\":{},\"gauges\":{},\"hists\":{}}"),
            },
            Frame::MetricsReport { worker: "w".into(), epoch: 0, snapshot: Bytes::new() },
        ]
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_every_type() {
        for frame in all_frames() {
            let wire = frame.encode();
            let mut d = Decoder::new();
            d.feed(&wire);
            assert_eq!(d.next().unwrap(), Some(frame.clone()), "frame {frame:?}");
            assert_eq!(d.next().unwrap(), None);
            assert_eq!(d.buffered(), 0);
        }
    }

    #[test]
    fn incremental_byte_by_byte() {
        let frames = all_frames();
        let wire: Vec<u8> = frames.iter().flat_map(|f| f.encode()).collect();
        let mut d = Decoder::new();
        let mut got = Vec::new();
        for b in wire {
            d.feed(&[b]);
            while let Some(f) = d.next().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn torn_tail_waits() {
        let wire = Frame::Heartbeat { nonce: 9 }.encode();
        let mut d = Decoder::new();
        d.feed(&wire[..wire.len() - 1]);
        assert_eq!(d.next().unwrap(), None, "incomplete frame is not an error");
        d.feed(&wire[wire.len() - 1..]);
        assert_eq!(d.next().unwrap(), Some(Frame::Heartbeat { nonce: 9 }));
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let mut wire =
            Frame::Publish { topic: "t".into(), payload: Bytes::from_static(b"abc"), trace: None }
                .encode();
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        let mut d = Decoder::new();
        d.feed(&wire);
        assert!(matches!(d.next(), Err(FrameError::CrcMismatch { .. })));
        // Poisoned: the stream cannot be trusted after corruption.
        d.feed(&Frame::Ack { seq: 1 }.encode());
        assert!(d.next().is_err());
    }

    #[test]
    fn bad_magic_fails_fast() {
        let mut d = Decoder::new();
        d.feed(b"GET "); // e.g. someone pointed an HTTP client at us
        assert!(matches!(d.next(), Err(FrameError::BadMagic(_))));
        // Even a partial bad prefix fails without waiting for a full header.
        let mut d = Decoder::new();
        d.feed(b"X");
        assert!(matches!(d.next(), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut wire = Frame::Ack { seq: 3 }.encode();
        wire[4] = 9;
        let mut d = Decoder::new();
        d.feed(&wire);
        assert!(matches!(d.next(), Err(FrameError::BadVersion(9))));
    }

    #[test]
    fn oversized_length_rejected() {
        let mut wire = Frame::Ack { seq: 3 }.encode();
        wire[8..12].copy_from_slice(&(u32::MAX).to_be_bytes());
        let mut d = Decoder::new();
        d.feed(&wire);
        assert!(matches!(d.next(), Err(FrameError::Oversized(_))));
    }

    #[test]
    fn traced_publish_roundtrips_and_sets_flag() {
        let frame = Frame::Publish {
            topic: "invalidb.cluster".into(),
            payload: Bytes::from_static(b"{\"type\":\"write\"}"),
            trace: Some(TraceInfo { trace_id: u64::MAX, sent_at_micros: 123 }),
        };
        let wire = frame.encode();
        assert_eq!(u16::from_be_bytes([wire[6], wire[7]]), FLAG_TRACE);
        let mut d = Decoder::new();
        d.feed(&wire);
        assert_eq!(d.next().unwrap(), Some(frame));
    }

    #[test]
    fn unknown_flag_bits_rejected() {
        let mut wire = Frame::Ack { seq: 3 }.encode();
        wire[7] = 0x02; // reserved bit
        let mut d = Decoder::new();
        d.feed(&wire);
        assert!(matches!(d.next(), Err(FrameError::UnknownFlags(0x0002))));
        // FLAG_TRACE is Publish-only.
        let mut wire = Frame::Ack { seq: 3 }.encode();
        wire[7] = 0x01;
        let mut d = Decoder::new();
        d.feed(&wire);
        assert!(matches!(d.next(), Err(FrameError::UnknownFlags(FLAG_TRACE))));
    }

    #[test]
    fn trace_flag_without_trace_bytes_is_truncated() {
        // Set FLAG_TRACE on an untraced publish: the 16 sidecar bytes are
        // missing, so the decoder must report truncation, not garbage.
        let frame = Frame::Publish { topic: "t".into(), payload: Bytes::from_static(b"x"), trace: None };
        let mut wire = frame.encode();
        wire[7] = 0x01;
        // Fix the CRC? No — flags are outside the CRC'd payload, so the
        // frame still passes the CRC check and fails in field decoding.
        let mut d = Decoder::new();
        d.feed(&wire);
        assert!(matches!(d.next(), Err(FrameError::Truncated)));
    }

    #[test]
    fn retired_hello_type_id_is_unknown() {
        // Type id 1 was the capability-negotiating `Hello`; a peer that
        // still sends one gets a clean teardown, and the id is never reused.
        let mut payload = Vec::new();
        payload.extend_from_slice(&5u16.to_be_bytes());
        payload.extend_from_slice(b"app-1");
        payload.extend_from_slice(&1u32.to_be_bytes());
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.push(PROTOCOL_VERSION);
        wire.push(1);
        wire.extend_from_slice(&[0, 0]);
        wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        wire.extend_from_slice(&crc32(&payload).to_be_bytes());
        wire.extend_from_slice(&payload);
        let mut d = Decoder::new();
        d.feed(&wire);
        assert_eq!(d.next(), Err(FrameError::UnknownType(1)));
        assert!(all_frames().iter().all(|f| f.encode()[5] != 1));
    }

    #[test]
    fn encode_into_appends_and_matches_encode() {
        let frames = all_frames();
        let mut scratch = Vec::new();
        for f in &frames {
            f.encode_into(&mut scratch);
        }
        let concat: Vec<u8> = frames.iter().flat_map(|f| f.encode()).collect();
        assert_eq!(scratch, concat, "batch encoding must equal per-frame encoding");
        let mut d = Decoder::new();
        d.feed(&scratch);
        let mut got = Vec::new();
        while let Some(f) = d.next().unwrap() {
            got.push(f);
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn cluster_frames_are_unknown_to_legacy_decoders() {
        // A peer that predates the membership protocol sees type bytes
        // 7–10 as UnknownType — a clean connection teardown, not a panic.
        // (This test pins the type ids so they can never be reused.)
        for (frame, id) in [
            (Frame::JoinCluster { worker: "w".into(), weight: 1 }, 7u8),
            (
                Frame::Assign {
                    epoch: 1,
                    query_partitions: 1,
                    write_partitions: 1,
                    cells: vec![(0, "w".into())],
                },
                8,
            ),
            (
                Frame::CellState {
                    worker: "w".into(),
                    epoch: 1,
                    cell: 0,
                    active_queries: 0,
                    retained_writes: 0,
                },
                9,
            ),
            (Frame::WorkerHeartbeat { worker: "w".into(), epoch: 1, nonce: 0 }, 10),
            (Frame::MetricsReport { worker: "w".into(), epoch: 1, snapshot: Bytes::new() }, 11),
        ] {
            assert_eq!(frame.encode()[5], id, "type id of {frame:?}");
        }
    }

    #[test]
    fn assign_with_lying_cell_count_is_truncated() {
        // Hand-build an Assign whose declared entry count exceeds the
        // entries actually present: the decoder must report truncation
        // (and must not pre-allocate by the attacker-controlled count).
        let mut payload = Vec::new();
        put_u64(&mut payload, 1); // epoch
        payload.extend_from_slice(&1u32.to_be_bytes()); // qp
        payload.extend_from_slice(&1u32.to_be_bytes()); // wp
        payload.extend_from_slice(&u32::MAX.to_be_bytes()); // entry count (lie)
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.push(PROTOCOL_VERSION);
        wire.push(8); // Assign
        wire.extend_from_slice(&[0, 0]);
        wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        wire.extend_from_slice(&crc32(&payload).to_be_bytes());
        wire.extend_from_slice(&payload);
        let mut d = Decoder::new();
        d.feed(&wire);
        assert!(matches!(d.next(), Err(FrameError::Truncated)));
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        // Hand-build an Ack with one extra payload byte and a valid CRC.
        let mut payload = 5u64.to_be_bytes().to_vec();
        payload.push(0xEE);
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.push(PROTOCOL_VERSION);
        wire.push(5); // Ack
        wire.extend_from_slice(&[0, 0]);
        wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        wire.extend_from_slice(&crc32(&payload).to_be_bytes());
        wire.extend_from_slice(&payload);
        let mut d = Decoder::new();
        d.feed(&wire);
        assert!(matches!(d.next(), Err(FrameError::TrailingBytes { extra: 1 })));
    }
}
