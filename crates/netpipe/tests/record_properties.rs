//! Property-based tests for the trace container: arbitrary record
//! streams round-trip bit-identically through the writer and reader —
//! including zero-length payloads and payloads that are zero-copy
//! slices of one shared parent buffer — under arbitrary chunk bounds,
//! set by flushing the writer every few records.

use infopipes::PayloadBytes;
use netpipe::{ChannelDecl, FrameKind, TraceReader, TraceWriter};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// One generated record, pre-payload-construction.
#[derive(Clone, Debug)]
struct GenRecord {
    channel: u16,
    ts_ns: u64,
    kind: FrameKind,
    payload: Vec<u8>,
}

fn arb_kind() -> impl Strategy<Value = FrameKind> {
    prop_oneof![
        Just(FrameKind::Data),
        Just(FrameKind::Event),
        Just(FrameKind::Control),
        Just(FrameKind::Fin),
    ]
}

fn arb_record() -> impl Strategy<Value = GenRecord> {
    (
        any::<u16>(),
        any::<u64>(),
        arb_kind(),
        // 0-length payloads are a required case, not a corner.
        proptest::collection::vec(any::<u8>(), 0..96),
    )
        .prop_map(|(channel, ts_ns, kind, payload)| GenRecord {
            channel,
            ts_ns,
            kind,
            payload,
        })
}

/// How many records go into each chunk before the test flushes it.
fn arb_chunk_records() -> impl Strategy<Value = usize> {
    1usize..9
}

/// A unique scratch path per proptest case.
fn scratch() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "nptrace-prop-{}-{}.trace",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

struct TempTrace(PathBuf);

impl Drop for TempTrace {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn check_round_trip(records: &[(u16, u64, FrameKind, PayloadBytes)], chunk_records: usize) {
    let path = TempTrace(scratch());
    let writer = TraceWriter::create(&path.0, "prop", None).expect("create");
    writer
        .declare_channel(&ChannelDecl::new(0, "prop", "bytes"))
        .expect("declare");
    for (i, (channel, ts, kind, payload)) in records.iter().enumerate() {
        writer
            .record(*channel, *ts, *kind, payload.clone())
            .expect("record");
        if (i + 1) % chunk_records == 0 {
            writer.flush().expect("flush");
        }
    }
    writer.finish().expect("finish");

    let reader = TraceReader::open(&path.0).expect("open");
    assert!(reader.clean_close);
    assert_eq!(reader.recovered_bytes, 0);
    assert_eq!(reader.records.len(), records.len());
    for (got, (channel, ts, kind, payload)) in reader.records.iter().zip(records) {
        assert_eq!(got.channel, *channel);
        assert_eq!(got.ts_ns, *ts);
        assert_eq!(got.kind, *kind);
        assert_eq!(got.payload.as_slice(), payload.as_slice());
    }
    let footer = reader.footer.expect("footer");
    assert_eq!(footer.records, records.len() as u64);
    assert_eq!(
        footer.bytes,
        records
            .iter()
            .map(|(_, _, _, p)| p.len() as u64)
            .sum::<u64>()
    );
}

proptest! {
    /// Arbitrary record streams round-trip exactly under arbitrary
    /// chunk bounds.
    #[test]
    fn record_streams_round_trip(
        records in proptest::collection::vec(arb_record(), 0..48),
        chunk_records in arb_chunk_records(),
    ) {
        let owned: Vec<_> = records
            .iter()
            .map(|r| (r.channel, r.ts_ns, r.kind, PayloadBytes::from_vec(r.payload.clone())))
            .collect();
        check_round_trip(&owned, chunk_records);
    }

    /// Payloads that are zero-copy slices of one shared parent buffer
    /// round-trip the same as owned payloads: the writer never cares
    /// where a handle's bytes live.
    #[test]
    fn shared_parent_slices_round_trip(
        parent in proptest::collection::vec(any::<u8>(), 1..512),
        cuts in proptest::collection::vec((any::<u16>(), any::<u64>(), arb_kind()), 1..24),
        chunk_records in arb_chunk_records(),
    ) {
        let shared = PayloadBytes::from_vec(parent);
        // Deterministic overlapping windows over the parent — several
        // records alias the same bytes, including empty windows.
        let n = shared.len();
        let records: Vec<_> = cuts
            .iter()
            .enumerate()
            .map(|(i, (channel, ts, kind))| {
                let start = (i * 7) % (n + 1);
                let end = start + (i * 13) % (n - start + 1);
                (*channel, *ts, *kind, shared.slice(start..end))
            })
            .collect();
        check_round_trip(&records, chunk_records);
    }

    /// The reader's frame-aware digest is a pure function of the record
    /// stream: two independent writes of the same records digest equal.
    #[test]
    fn digest_is_stable_across_rewrites(
        records in proptest::collection::vec(arb_record(), 1..24),
    ) {
        let write_once = |chunk_records: usize| {
            let path = TempTrace(scratch());
            let writer = TraceWriter::create(&path.0, "digest", None).expect("create");
            for (i, r) in records.iter().enumerate() {
                writer
                    .record(r.channel, r.ts_ns, r.kind, PayloadBytes::from_vec(r.payload.clone()))
                    .expect("record");
                if (i + 1) % chunk_records == 0 {
                    writer.flush().expect("flush");
                }
            }
            writer.finish().expect("finish");
            TraceReader::open(&path.0).expect("open").digest()
        };
        // Chunking differently must not change the digest: chunk bounds
        // are a container concern, not part of the recorded stream.
        let a = write_once(2);
        let b = write_once(usize::MAX);
        prop_assert_eq!(a, b);
    }
}
