//! Property tests for the wire codec: every frame that can be encoded
//! must round-trip through the decoder, under arbitrary chunking — and
//! torn or corrupted streams must be rejected without producing a frame.
//! The borrowing decode (`Decoder::next_ref`) yields what the owning one
//! (`Decoder::next`) does, frame for frame and error for error.

use bytes::Bytes;
use invalidb_net::frame::{Decoder, Frame, FrameError, FrameRef, TraceInfo, HEADER_LEN};
use proptest::prelude::*;

fn topic_strategy() -> impl Strategy<Value = String> {
    // Realistic topic shapes, including the empty string.
    "[a-zA-Z0-9_.$-]{0,24}"
}

fn trace_strategy() -> impl Strategy<Value = Option<TraceInfo>> {
    (any::<bool>(), any::<u64>(), any::<u64>()).prop_map(|(traced, trace_id, sent_at_micros)| {
        traced.then_some(TraceInfo { trace_id, sent_at_micros })
    })
}

fn worker_strategy() -> impl Strategy<Value = String> {
    // Worker names, including the empty string the codec must tolerate.
    "[a-z0-9-]{0,16}"
}

fn cells_strategy() -> impl Strategy<Value = Vec<(u32, String)>> {
    prop::collection::vec((any::<u32>(), worker_strategy()), 0..16)
}

fn frame_strategy() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (any::<u64>(), topic_strategy()).prop_map(|(seq, topic)| Frame::Subscribe { seq, topic }),
        (any::<u64>(), topic_strategy()).prop_map(|(seq, topic)| Frame::Unsubscribe { seq, topic }),
        (topic_strategy(), prop::collection::vec(any::<u8>(), 0..256), trace_strategy()).prop_map(
            |(topic, payload, trace)| Frame::Publish { topic, payload: Bytes::from(payload), trace }
        ),
        any::<u64>().prop_map(|seq| Frame::Ack { seq }),
        any::<u64>().prop_map(|nonce| Frame::Heartbeat { nonce }),
        (worker_strategy(), any::<u32>())
            .prop_map(|(worker, weight)| Frame::JoinCluster { worker, weight }),
        (any::<u64>(), any::<u32>(), any::<u32>(), cells_strategy()).prop_map(
            |(epoch, query_partitions, write_partitions, cells)| Frame::Assign {
                epoch,
                query_partitions,
                write_partitions,
                cells
            }
        ),
        (worker_strategy(), any::<u64>(), any::<u32>(), any::<u64>(), any::<u64>()).prop_map(
            |(worker, epoch, cell, active_queries, retained_writes)| Frame::CellState {
                worker,
                epoch,
                cell,
                active_queries,
                retained_writes
            }
        ),
        (worker_strategy(), any::<u64>(), any::<u64>())
            .prop_map(|(worker, epoch, nonce)| Frame::WorkerHeartbeat { worker, epoch, nonce }),
        (worker_strategy(), any::<u64>(), prop::collection::vec(any::<u8>(), 0..64)).prop_map(
            |(worker, epoch, snapshot)| Frame::MetricsReport {
                worker,
                epoch,
                snapshot: Bytes::from(snapshot)
            }
        ),
    ]
}

type Decoded = Vec<Result<Frame, FrameError>>;

/// What `wire`, fed in `chunk`-byte pieces, decodes to through `next` and
/// through `next_ref` (each frame made owned): every frame, and the error
/// that ends the stream, if one does.
fn decode_both(wire: &[u8], chunk: usize) -> (Decoded, Decoded) {
    let (mut owning, mut borrowing) = (Decoder::new(), Decoder::new());
    let (mut by_next, mut by_next_ref) = (Vec::new(), Vec::new());
    for piece in wire.chunks(chunk) {
        owning.feed(piece);
        borrowing.feed(piece);
        loop {
            let next = owning.next().transpose();
            let next_ref = borrowing.next_ref().map(|f| f.map(FrameRef::into_owned)).transpose();
            let (Some(next), Some(next_ref)) = (next, next_ref) else {
                break;
            };
            let failed = next.is_err() || next_ref.is_err();
            by_next.push(next);
            by_next_ref.push(next_ref);
            if failed {
                return (by_next, by_next_ref);
            }
        }
    }
    (by_next, by_next_ref)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn roundtrip(frame in frame_strategy()) {
        let wire = frame.encode();
        let mut d = Decoder::new();
        d.feed(&wire);
        prop_assert_eq!(d.next().unwrap(), Some(frame));
        prop_assert_eq!(d.next().unwrap(), None);
        prop_assert_eq!(d.buffered(), 0, "no leftover bytes");
    }

    #[test]
    fn roundtrip_under_arbitrary_chunking(
        frames in prop::collection::vec(frame_strategy(), 1..5),
        chunk_size in 1usize..64,
    ) {
        let wire: Vec<u8> = frames.iter().flat_map(|f| f.encode()).collect();
        let mut d = Decoder::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(chunk_size) {
            d.feed(chunk);
            while let Some(f) = d.next().unwrap() {
                got.push(f);
            }
        }
        prop_assert_eq!(got, frames);
    }

    #[test]
    fn torn_tail_yields_nothing_then_resumes(
        frame in frame_strategy(),
        cut_fraction in 0.0f64..1.0,
    ) {
        let wire = frame.encode();
        // Cut strictly inside the frame.
        let cut = 1 + ((wire.len() - 2) as f64 * cut_fraction) as usize;
        let mut d = Decoder::new();
        d.feed(&wire[..cut]);
        prop_assert_eq!(d.next().unwrap(), None, "torn tail is not an error");
        d.feed(&wire[cut..]);
        prop_assert_eq!(d.next().unwrap(), Some(frame));
    }

    #[test]
    fn truncated_stream_never_yields_a_frame(frame in frame_strategy()) {
        // A stream that ends mid-frame (connection reset) must never
        // produce a frame, no matter where it was cut.
        let wire = frame.encode();
        for cut in 1..wire.len() {
            let mut d = Decoder::new();
            d.feed(&wire[..cut]);
            prop_assert_eq!(d.next().unwrap(), None, "cut at {} produced a frame", cut);
        }
    }

    #[test]
    fn payload_corruption_is_detected(
        frame in frame_strategy(),
        flip_fraction in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut wire = frame.encode();
        if wire.len() == HEADER_LEN {
            return Ok(()); // empty payload: nothing to corrupt
        }
        let idx = HEADER_LEN + ((wire.len() - HEADER_LEN - 1) as f64 * flip_fraction) as usize;
        wire[idx] ^= 1 << bit;
        let mut d = Decoder::new();
        d.feed(&wire);
        prop_assert!(
            matches!(d.next(), Err(FrameError::CrcMismatch { .. })),
            "flipped payload bit must fail the CRC"
        );
    }

    #[test]
    fn next_ref_yields_what_next_yields(
        frames in prop::collection::vec(frame_strategy(), 1..5),
        chunk_size in 1usize..64,
        (corrupt, flip_fraction, bit) in (any::<bool>(), 0.0f64..1.0, 0u8..8),
        (truncate, cut_fraction) in (any::<bool>(), 0.0f64..1.0),
    ) {
        let mut wire: Vec<u8> = frames.iter().flat_map(|f| f.encode()).collect();
        if corrupt {
            // Anywhere: magic, version, type, flags, length, CRC or payload.
            let idx = ((wire.len() - 1) as f64 * flip_fraction) as usize;
            wire[idx] ^= 1 << bit;
        }
        if truncate {
            wire.truncate(((wire.len() - 1) as f64 * cut_fraction) as usize);
        }
        let (by_next, by_next_ref) = decode_both(&wire, chunk_size);
        prop_assert_eq!(&by_next, &by_next_ref);
        if !corrupt && !truncate {
            let expected: Decoded = frames.into_iter().map(Ok).collect();
            prop_assert_eq!(by_next_ref, expected);
        }
    }

    #[test]
    fn header_corruption_never_panics(
        frame in frame_strategy(),
        idx in 0usize..HEADER_LEN,
        bit in 0u8..8,
    ) {
        let mut wire = frame.encode();
        wire[idx] ^= 1 << bit;
        let mut d = Decoder::new();
        d.feed(&wire);
        // Whatever the corruption hit (magic, version, type, flags,
        // length, CRC), the decoder must fail cleanly or wait for more
        // bytes — never panic. It may still yield a frame: the type and
        // flags bytes sit outside the CRC-protected span, so a flip
        // there can legally decode as a *different* frame when the
        // payload layouts coincide (e.g. Subscribe ↔ Unsubscribe). The
        // sound invariant is that anything the decoder accepts must be
        // a canonical encoding of the frame it returned.
        if let Ok(Some(got)) = d.next() {
            prop_assert_eq!(
                got.encode(),
                wire,
                "accepted image is not a canonical encoding of the decoded frame"
            );
        }
    }
}
