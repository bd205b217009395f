//! Property tests for the wire codec: every frame that can be encoded
//! must round-trip through the decoder, under arbitrary chunking — and
//! torn or corrupted streams must be rejected without producing a frame.

use bytes::Bytes;
use invalidb_net::frame::{Decoder, Frame, FrameError, TraceInfo, HEADER_LEN};
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
    ]
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
