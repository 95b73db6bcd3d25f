//! Property test for the distributed wire path: every wire-enabled
//! bench message type survives serialise → frame → deframe →
//! deserialise, with the byte stream re-chunked at adversarial
//! boundaries between the two ends.
//!
//! The round-trip tests use no property-testing crate: a small
//! deterministic xorshift generator drives both the message payloads
//! and the chunk sizes, so failures replay exactly from the printed
//! seed. The decoder's two intake paths are compared with the proptest
//! shim.

use std::io::Read;

use bench::protocols::{double_buffering, streaming};
use proptest::prelude::*;
use rumpsteak::net::{encode_frame, encode_frame_traced, FrameDecoder, FRAME_HEADER};
use rumpsteak::wire::{from_bytes, to_bytes, TraceContext, Wire};

/// Xorshift64*: deterministic, seedable, good enough to sweep payload
/// shapes and split points.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// Round-trips `messages` through one framed stream delivered in
/// `rng`-sized chunks; `check` compares each decoded message with its
/// original. Every other frame carries a [`TraceContext`] (the stream a
/// telemetry-enabled sender interleaves with an uninstrumented one),
/// and the decoded contexts must come back verbatim.
fn roundtrip<M: Wire>(rng: &mut Rng, messages: &[M], check: impl Fn(&M, &M)) {
    let mut stream = Vec::new();
    let mut contexts = Vec::new();
    for (index, message) in messages.iter().enumerate() {
        let payload = to_bytes(message);
        let trace = (index % 2 == 0).then(|| TraceContext {
            session: rng.next(),
            seq: index as u64,
            t_ns: rng.next(),
        });
        encode_frame_traced(&payload, trace.as_ref(), &mut stream)
            .expect("bench messages are far below MAX_FRAME");
        contexts.push(trace);
    }
    let mut decoder = FrameDecoder::new();
    let mut decoded = Vec::new();
    let mut offset = 0;
    while offset < stream.len() {
        let chunk = 1 + rng.below(64) as usize;
        let end = (offset + chunk).min(stream.len());
        decoder.push(&stream[offset..end]);
        offset = end;
        while let Some(frame) = decoder.next_frame().expect("stream is well-formed") {
            decoded.push(frame);
        }
    }
    assert_eq!(decoder.buffered(), 0, "trailing bytes after the last frame");
    assert_eq!(decoded.len(), messages.len());
    for ((original, frame), trace) in messages.iter().zip(&decoded).zip(&contexts) {
        check(
            original,
            &from_bytes::<M>(&frame.payload).expect("payload round-trips"),
        );
        assert_eq!(&frame.trace, trace, "trace context changed across the wire");
    }
}

#[test]
fn streaming_labels_roundtrip_under_every_split() {
    let seed = 0x5EED_0001_u64;
    let mut rng = Rng(seed);
    for _ in 0..50 {
        let messages: Vec<streaming::Label> = (0..100)
            .map(|_| match rng.below(3) {
                0 => streaming::Label::Ready(streaming::Ready),
                1 => streaming::Label::Value(streaming::Value(rng.next() as i32)),
                _ => streaming::Label::Stop(streaming::Stop),
            })
            .collect();
        roundtrip(&mut rng, &messages, |original, copy| {
            match (original, copy) {
                (streaming::Label::Ready(_), streaming::Label::Ready(_)) => {}
                (streaming::Label::Stop(_), streaming::Label::Stop(_)) => {}
                (
                    streaming::Label::Value(streaming::Value(a)),
                    streaming::Label::Value(streaming::Value(b)),
                ) => assert_eq!(a, b, "seed {seed:#x}"),
                _ => panic!("variant changed across the wire (seed {seed:#x})"),
            }
        });
    }
}

#[test]
fn double_buffering_labels_roundtrip_under_every_split() {
    let seed = 0x5EED_0002_u64;
    let mut rng = Rng(seed);
    for _ in 0..20 {
        let messages: Vec<double_buffering::Label> = (0..40)
            .map(|_| {
                if rng.below(2) == 0 {
                    double_buffering::Label::Ready(double_buffering::Ready)
                } else {
                    let len = rng.below(200) as usize;
                    let buffer: double_buffering::Buffer =
                        (0..len).map(|_| rng.next() as i32).collect();
                    double_buffering::Label::Value(double_buffering::Value(buffer))
                }
            })
            .collect();
        roundtrip(&mut rng, &messages, |original, copy| {
            match (original, copy) {
                (double_buffering::Label::Ready(_), double_buffering::Label::Ready(_)) => {}
                (
                    double_buffering::Label::Value(double_buffering::Value(a)),
                    double_buffering::Label::Value(double_buffering::Value(b)),
                ) => assert_eq!(a, b, "seed {seed:#x}"),
                _ => panic!("variant changed across the wire (seed {seed:#x})"),
            }
        });
    }
}

/// Zero-length payloads (unit labels) are legal frames: `Ready` encodes
/// to a bare tag, and an empty `Vec` payload to a bare count — both
/// must survive framing adjacent to maximum-entropy neighbours.
#[test]
fn zero_and_empty_payloads_frame_cleanly() {
    let mut rng = Rng(0x5EED_0003);
    let messages = vec![
        double_buffering::Label::Ready(double_buffering::Ready),
        double_buffering::Label::Value(double_buffering::Value(Vec::new())),
        double_buffering::Label::Value(double_buffering::Value(vec![i32::MIN, -1, 0, i32::MAX])),
        double_buffering::Label::Ready(double_buffering::Ready),
    ];
    roundtrip(&mut rng, &messages, |original, copy| {
        match (original, copy) {
            (double_buffering::Label::Ready(_), double_buffering::Label::Ready(_)) => {}
            (
                double_buffering::Label::Value(double_buffering::Value(a)),
                double_buffering::Label::Value(double_buffering::Value(b)),
            ) => assert_eq!(a, b),
            _ => panic!("variant changed across the wire"),
        }
    });
    // An empty frame really is header-only on the wire, and attaching a
    // trace context costs exactly its fixed encoding — the payload
    // length word never includes it.
    let mut wire = Vec::new();
    encode_frame(&[], &mut wire).unwrap();
    assert_eq!(wire.len(), FRAME_HEADER);
    wire.clear();
    encode_frame_traced(&[], Some(&TraceContext::default()), &mut wire).unwrap();
    assert_eq!(wire.len(), FRAME_HEADER + TraceContext::WIRE_SIZE);
}

/// Splits a traced frame at *every* byte boundary — including each of
/// the 24 positions inside the trace context — and requires the decoder
/// to reassemble the identical context every time.
#[test]
fn trace_context_survives_every_single_byte_boundary() {
    let ctx = TraceContext {
        session: 0x0123_4567_89AB_CDEF,
        seq: u64::MAX,
        t_ns: 0xFEDC_BA98_7654_3210,
    };
    let payload = to_bytes(&streaming::Label::Value(streaming::Value(-7)));
    let mut wire = Vec::new();
    encode_frame_traced(&payload, Some(&ctx), &mut wire).unwrap();
    for split in 0..=wire.len() {
        let mut decoder = FrameDecoder::new();
        decoder.push(&wire[..split]);
        if split < wire.len() {
            assert!(
                decoder
                    .next_frame()
                    .expect("prefix is well-formed")
                    .is_none(),
                "frame completed {} byte(s) early",
                wire.len() - split
            );
        }
        decoder.push(&wire[split..]);
        let frame = decoder
            .next_frame()
            .expect("stream is well-formed")
            .expect("frame completes once every byte arrived");
        assert_eq!(frame.trace, Some(ctx));
        assert_eq!(frame.payload, payload);
        assert_eq!(decoder.buffered(), 0);
    }
}

/// A socket as the link sees it: hands out the stream in reads of the
/// given lengths (cycled), each at most what the caller offered.
struct ShortReads<'a> {
    stream: &'a [u8],
    lens: std::iter::Cycle<std::slice::Iter<'a, usize>>,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let len = *self.lens.next().expect("cycle of a non-empty vec");
        let len = len.min(buf.len()).min(self.stream.len());
        buf[..len].copy_from_slice(&self.stream[..len]);
        self.stream = &self.stream[len..];
        Ok(len)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The decoder reading a socket itself (`read_from`, what `NetLink`
    /// does) yields exactly the frames of the whole stream `push`ed at
    /// once, however short the reads and whichever frames are traced —
    /// payloads up to a few read chunks long, so the buffer both wraps
    /// to its front and grows.
    #[test]
    fn read_from_short_reads_yields_the_frames_push_does(
        payload_lens in proptest::collection::vec(
            prop_oneof![0usize..64, 0usize..5_000, 30_000usize..70_000],
            1..12,
        ),
        read_lens in proptest::collection::vec(1usize..40_000, 1..8),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Rng(seed | 1);
        let mut stream = Vec::new();
        for (index, len) in payload_lens.iter().enumerate() {
            let payload: Vec<u8> = (0..*len).map(|_| rng.next() as u8).collect();
            let trace = (rng.below(2) == 0).then(|| TraceContext {
                session: rng.next(),
                seq: index as u64,
                t_ns: rng.next(),
            });
            encode_frame_traced(&payload, trace.as_ref(), &mut stream).unwrap();
        }

        let mut pushed = FrameDecoder::new();
        pushed.push(&stream);
        let mut expected = Vec::new();
        while let Some(frame) = pushed.next_frame().unwrap() {
            expected.push(frame);
        }
        prop_assert_eq!(expected.len(), payload_lens.len());

        let mut reader = ShortReads { stream: &stream, lens: read_lens.iter().cycle() };
        let mut decoder = FrameDecoder::new();
        let mut frames = Vec::new();
        loop {
            while let Some(frame) = decoder.next_frame().unwrap() {
                frames.push(frame);
            }
            if decoder.read_from(&mut reader).unwrap() == 0 {
                break;
            }
        }
        prop_assert_eq!(decoder.buffered(), 0);
        prop_assert_eq!(frames, expected);
    }
}
