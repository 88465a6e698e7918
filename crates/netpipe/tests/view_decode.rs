//! The receive path decodes payloads as views, measured: no deep copy
//! between a marshalled packet and the defragmenter's join, no
//! allocation for a decoded payload, a copy exactly where there is no
//! source to view — and the decode source is scoped, so a nested decode
//! (or a panic inside one) cannot leave the wrong buffer installed. A
//! trace's length fields are claims too: opening a file that claims far
//! more than it holds allocates what it holds.
//!
//! Deep copies are tallied process-wide and allocations per thread, so
//! the tests here take turns ([`exclusive`]) and keep the measured work
//! on their own thread.

use infopipes::helpers::{CollectSink, IterSource};
use infopipes::{payload_copy_count, FreePump, PayloadBytes, Pipeline, SourceSample};
use mbthread::{Kernel, KernelConfig};
use media::{CompressedFrame, Defragmenter, Fragmenter, FrameType, Packet};
use netpipe::wire::{self, WireError};
use netpipe::{BufferPool, Marshal, TraceError, TraceReader, Unmarshal};
use serde::Deserialize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};

#[global_allocator]
static A: counting_alloc::Counting = counting_alloc::Counting;

/// Bytes this thread allocated while `work` ran.
fn allocated_by<R>(work: impl FnOnce() -> R) -> (R, usize) {
    // A thread's first decode scope sets up its thread-local slot, which
    // some platforms allocate for: not the decode's cost.
    PayloadBytes::new().decode_with(|_| ());
    let before = counting_alloc::allocated_bytes();
    let out = work();
    (out, (counting_alloc::allocated_bytes() - before) as usize)
}

/// One test at a time: `payload_copy_count` is process-wide.
fn exclusive() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(PoisonError::into_inner)
}

fn packet(payload: usize) -> Packet {
    Packet {
        frame_seq: 7,
        index: 2,
        count: 5,
        ftype: FrameType::B,
        pts_us: 70_000,
        bytes: (0..payload).map(|i| i as u8).collect(),
    }
}

/// Marshal → unmarshal → defragment, the receive path of Fig. 1 without
/// the socket: five packets cross it and nothing is deep-copied; the
/// join in the defragmenter is the only time the bytes move.
#[test]
fn a_five_packet_frame_crosses_without_a_deep_copy() {
    let _turn = exclusive();
    let frame = CompressedFrame {
        seq: 1,
        pts_us: 40_000,
        ftype: FrameType::I,
        data: (0..5000u32).map(|i| (i % 251) as u8).collect(),
    };
    let pool = BufferPool::new();
    let kernel = Kernel::new(KernelConfig::virtual_time());
    let before = payload_copy_count();
    let delivered = {
        let pipeline = Pipeline::new(&kernel, "view-decode");
        let src = pipeline.add_producer("src", IterSource::new("src", vec![frame.clone()]));
        let pump = pipeline.add_pump("pump", FreePump::new());
        let frag = pipeline.add_consumer("frag", Fragmenter::new(1024));
        let marshal = pipeline.add_function(
            "marshal",
            Marshal::<Packet>::new("marshal").with_pool(&pool),
        );
        let unmarshal = Unmarshal::<Packet>::new("unmarshal");
        let decoded = unmarshal.stats_handle();
        let unmarshal = pipeline.add_function("unmarshal", unmarshal);
        let defrag = pipeline.add_consumer("defrag", Defragmenter::new());
        let (sink, out) = CollectSink::<CompressedFrame>::new("sink");
        let sink = pipeline.add_consumer("sink", sink);
        let _ = src >> pump >> frag >> marshal >> unmarshal >> defrag >> sink;
        let running = pipeline.start().expect("plan");
        running.start_flow().expect("start");
        running.wait_quiescent();
        assert_eq!(decoded.decoded(), 5, "5000 B at MTU 1024");
        let delivered = out.lock().clone();
        delivered
    };
    kernel.shutdown();
    assert_eq!(delivered, vec![frame]);
    assert_eq!(payload_copy_count(), before, "no deep copy on the way");
    drop(delivered);
    assert_eq!(pool.stats().outstanding, 0, "every wire buffer came home");
}

/// A decoded payload costs no allocation at all when it is a view, and
/// one payload-sized copy when there is nothing to view: a plain slice,
/// or bytes that lie outside the installed source.
#[test]
fn a_view_allocates_nothing_and_a_copy_is_made_only_without_a_source() {
    let _turn = exclusive();
    let sent = packet(1024);
    let on_wire = wire::to_payload(&sent).expect("serialize");

    let before = payload_copy_count();
    let (viewed, bytes) = allocated_by(|| on_wire.decode_with(wire::from_bytes::<Packet>));
    let viewed = viewed.expect("decode");
    assert_eq!(viewed, sent);
    assert!(viewed.bytes.shares_allocation_with(&on_wire));
    assert_eq!(bytes, 0, "a `Packet` owns nothing but its payload");
    assert_eq!(payload_copy_count(), before);

    // No source installed: `from_bytes` on a plain slice copies.
    let (copied, bytes) = allocated_by(|| wire::from_bytes::<Packet>(&on_wire));
    let copied = copied.expect("decode");
    assert_eq!(copied, sent);
    assert!(!copied.bytes.shares_allocation_with(&on_wire));
    assert!(bytes >= 1024, "the payload was copied, {bytes} B allocated");
    assert_eq!(payload_copy_count(), before + 1);

    // A source installed, but the bytes decoded are not its own.
    let elsewhere = on_wire.to_vec();
    let before = payload_copy_count();
    let foreign = on_wire
        .decode_with(|_| wire::from_bytes::<Packet>(&elsewhere))
        .expect("decode");
    assert_eq!(foreign, sent);
    assert!(!foreign.bytes.shares_allocation_with(&on_wire));
    assert_eq!(payload_copy_count(), before + 1);
}

/// Hostile input fails exactly as it does without a source, and before
/// anything is sized by what the input claims.
#[test]
fn truncated_and_lying_input_fails_typed_and_allocates_nothing() {
    let _turn = exclusive();
    let on_wire = wire::to_payload(&packet(1024)).expect("serialize");
    let header = on_wire.len() - 1024;

    // Cut inside the payload, inside the length prefix, inside a scalar.
    for cut in [on_wire.len() - 1, header + 1, header - 2, 3, 0] {
        let short = on_wire.slice(..cut);
        let (plain, _) = allocated_by(|| wire::from_bytes::<Packet>(&short));
        let (viewed, bytes) = allocated_by(|| short.decode_with(wire::from_bytes::<Packet>));
        assert_eq!(viewed, Err(WireError::Eof), "cut at {cut}");
        assert_eq!(viewed, plain, "cut at {cut}");
        assert_eq!(bytes, 0, "cut at {cut}");
    }

    // A length prefix that promises 4 GiB over a 1 KiB payload.
    let mut lying = on_wire.to_vec();
    lying[header - 4..header].copy_from_slice(&u32::MAX.to_le_bytes());
    let lying = PayloadBytes::from_vec(lying);
    let (viewed, bytes) = allocated_by(|| lying.decode_with(wire::from_bytes::<Packet>));
    assert_eq!(viewed, Err(WireError::Eof));
    assert_eq!(bytes, 0, "nothing may be sized by the prefix");

    // A count prefix that promises 4 G elements (~100 B each) over an
    // empty tail: no preallocation beyond what the input could hold.
    let count = u32::MAX.to_le_bytes();
    let (decoded, bytes) = allocated_by(|| wire::from_bytes::<Vec<SourceSample>>(&count[..]));
    assert_eq!(decoded, Err(WireError::Eof));
    assert_eq!(bytes, 0, "nothing may be sized by the count");

    // One that promises less than is there: the rest is trailing bytes.
    let mut modest = on_wire.to_vec();
    modest[header - 4..header].copy_from_slice(&1000u32.to_le_bytes());
    let modest = PayloadBytes::from_vec(modest);
    assert_eq!(
        modest.decode_with(wire::from_bytes::<Packet>),
        Err(WireError::TrailingBytes(24))
    );
    assert_eq!(
        wire::from_bytes::<Packet>(&modest),
        Err(WireError::TrailingBytes(24))
    );
}

/// A field that is itself a marshalled packet, decoded on the spot —
/// out of a buffer of its own, so the two sources differ. With
/// `PANIC_FIRST`, an inner decode that panics comes first.
#[derive(Debug)]
struct Inner<const PANIC_FIRST: bool> {
    packet: Packet,
    source: PayloadBytes,
}

impl<'de, const PANIC_FIRST: bool> Deserialize<'de> for Inner<PANIC_FIRST> {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let blob = PayloadBytes::deserialize(deserializer)?;
        let source = PayloadBytes::from_vec(blob.to_vec());
        if PANIC_FIRST {
            let unwound = catch_unwind(AssertUnwindSafe(|| {
                source.decode_with(|_| panic!("the inner decode fails, loudly"))
            }));
            assert!(unwound.is_err());
        }
        let packet = source
            .decode_with(wire::from_bytes::<Packet>)
            .map_err(serde::de::Error::custom)?;
        Ok(Inner { packet, source })
    }
}

/// The outer message: the nested decode runs between two plain fields.
type Outer<const PANIC_FIRST: bool> = (PayloadBytes, Inner<PANIC_FIRST>, PayloadBytes);

fn nested_decode_restores_the_outer_source<const PANIC_FIRST: bool>() {
    let sent = packet(300);
    let blob = wire::to_payload(&sent).expect("serialize inner");
    let (before, after) = (
        PayloadBytes::from_vec(vec![1; 40]),
        PayloadBytes::from_vec(vec![2; 50]),
    );
    let on_wire = wire::to_payload(&(&before, &blob, &after)).expect("serialize outer");

    let (got_before, inner, got_after): Outer<PANIC_FIRST> =
        on_wire.decode_with(wire::from_bytes).expect("decode");
    assert_eq!(inner.packet, sent);
    assert!(
        inner.packet.bytes.shares_allocation_with(&inner.source),
        "the inner decode views the inner buffer"
    );
    assert!(!inner.source.shares_allocation_with(&on_wire));
    assert_eq!((&got_before, &got_after), (&before, &after));
    assert!(got_before.shares_allocation_with(&on_wire));
    assert!(
        got_after.shares_allocation_with(&on_wire),
        "the outer source must be back once the inner decode is over"
    );

    // And nothing stays installed once the outermost scope is over.
    let again: (PayloadBytes, PayloadBytes, PayloadBytes) = wire::from_bytes(&on_wire).unwrap();
    assert!(
        !again.0.shares_allocation_with(&on_wire),
        "no source: a copy"
    );
}

#[test]
fn a_nested_decode_restores_the_outer_source() {
    let _turn = exclusive();
    nested_decode_restores_the_outer_source::<false>();
}

#[test]
fn a_panic_in_a_nested_decode_restores_the_outer_source() {
    let _turn = exclusive();
    nested_decode_restores_the_outer_source::<true>();
}

/// An 18-byte file: the NPTRACE magic, a chunk header claiming the
/// largest accepted record (64 MiB + 64 KiB), and 5 body bytes. Opening
/// it allocates no more than 128 KiB and fails typed: the torn chunk
/// holds nothing, and there is no header.
#[test]
fn a_hostile_trace_length_allocates_only_what_the_file_holds() {
    const CHUNK: u8 = 3;
    const MAX_TOP_RECORD: u32 = (64 << 20) + (1 << 16);
    let _turn = exclusive();
    let mut file = b"NPTRACE\0".to_vec();
    file.push(CHUNK);
    file.extend_from_slice(&MAX_TOP_RECORD.to_le_bytes());
    file.extend_from_slice(&[0; 5]);
    assert_eq!(file.len(), 18);
    let path = std::env::temp_dir().join(format!("view-decode-{}.trace", std::process::id()));
    std::fs::write(&path, &file).unwrap();
    let (opened, bytes) = allocated_by(|| TraceReader::open(&path));
    let _ = std::fs::remove_file(&path);
    assert!(matches!(opened, Err(TraceError::Corrupt(_))), "{opened:?}");
    assert!(bytes <= 128 << 10, "opening allocated {bytes} bytes");
}
