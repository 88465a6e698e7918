//! `fanout_inproc`: the serving tier alone — no kernel, no pipeline.
//!
//! An `AcceptLoop` admits 256 in-process sessions into a
//! `SessionRegistry`; one thread seals 4 KiB pooled frames and calls
//! `broadcast` + `sweep`; one reader thread drains every client. An
//! item is a *delivery*. The loop is closed: the broadcaster never runs
//! more than `window` frames ahead of the slowest session, so nothing
//! is shed.

use super::{
    layer_deltas, per_item_us, reference_digest, Mark, RepeatCtx, RepeatResult, Script, StallWatch,
    TracedRepeat, STALL,
};
use crate::gen::{Arena, FANOUT_BODY};
use crate::trace::{now_ns, ItemKey, SpanRoles, SAMPLE_EVERY};
use infopipes::{BufferPool, Digest64, PayloadBytes};
use netpipe::{
    AcceptLoop, Acceptor, Frame, InProcLink, InProcTransport, Link, RecvOutcome, ServeConfig,
    SessionRegistry, Transport,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SESSIONS: usize = 256;
const FRAME_BYTES: usize = FANOUT_BODY + 8;

const SCRIPT: Script = Script {
    warm: 200,
    closed: 60_000,
    window: 32,
    paced: 0,
    period_ns: 0,
    paced_window: 0,
};

struct ReaderShared {
    /// Frames every session has received.
    floor: AtomicU64,
    abort: AtomicBool,
}

#[derive(Default)]
struct ReaderTally {
    ok: u64,
    bad: u64,
    digest: u64,
    /// When each tenth of the measured deliveries had arrived, starting
    /// with the last warm-up delivery (eleven instants).
    tenths_ns: Vec<u64>,
}

/// Drains all clients round-robin until each has every frame. Content
/// is compared against the arena once per frame; the other 255
/// deliveries of that frame must be the same allocation (the fan-out is
/// refcounted), which is checked by pointer and falls back to a full
/// compare if it ever is not.
fn reader(
    clients: Vec<InProcLink>,
    arena: &Arena,
    script: Script,
    shared: &ReaderShared,
) -> ReaderTally {
    let sessions = clients.len() as u64;
    let mut next = vec![0u64; clients.len()];
    // Verified frames by sequence: (pointer, length) of the shared buffer.
    let mut verified: Vec<(usize, usize)> = vec![(0, 0); script.total() as usize];
    let mut tally = ReaderTally::default();
    let mut digest = Digest64::new();
    let all = script.total() * sessions;
    let tenth = script.closed / 10 * sessions;
    let mut next_tenth = script.warm * sessions;
    while tally.ok + tally.bad < all && !shared.abort.load(Ordering::Relaxed) {
        let mut progressed = false;
        for (i, link) in clients.iter().enumerate() {
            while let RecvOutcome::Frame(Frame::Data(payload)) = link.recv(Duration::ZERO) {
                progressed = true;
                let seq = next[i];
                next[i] += 1;
                let good = verified
                    .get_mut(seq as usize)
                    .is_some_and(|slot| check(&payload, seq, arena, slot));
                if good {
                    tally.ok += 1;
                } else {
                    tally.bad += 1;
                }
                // Session 0 sees every frame in order: its stream is
                // the one the digest commits to.
                if good && i == 0 {
                    digest.update_u64(seq);
                    digest.update_u64(payload.len() as u64);
                }
                if tally.ok + tally.bad == next_tenth {
                    tally.tenths_ns.push(now_ns());
                    next_tenth += tenth;
                }
            }
        }
        let floor = next.iter().copied().min().unwrap_or(0);
        shared.floor.store(floor, Ordering::Release);
        if !progressed {
            std::thread::yield_now();
        }
    }
    tally.digest = digest.value();
    tally
}

/// Frame layout: `[seq u64][arena window]`.
fn check(payload: &PayloadBytes, seq: u64, arena: &Arena, verified: &mut (usize, usize)) -> bool {
    if (payload.as_ptr() as usize, payload.len()) == *verified {
        return true;
    }
    let good = payload.len() == FRAME_BYTES
        && payload[..8] == seq.to_le_bytes()
        && payload[8..] == arena.window(seq, FANOUT_BODY)[..];
    if good {
        *verified = (payload.as_ptr() as usize, payload.len());
    }
    good
}

pub fn run(ctx: &RepeatCtx) -> RepeatResult {
    let mut out = RepeatResult::default();
    let script = Script {
        warm: ctx.scaled(SCRIPT.warm),
        closed: ctx.scaled(SCRIPT.closed),
        ..SCRIPT
    };
    let arena = Arena::new(ctx.seed);
    let expected = reference_digest(script.total(), |_| FRAME_BYTES as u64);

    let started_ns = now_ns();
    let transport = InProcTransport::with_capacity(256);
    let acceptor = transport.listen("fanout").expect("listen");
    let bound = acceptor.local_addr();
    let registry: SessionRegistry<InProcLink> = SessionRegistry::new(ServeConfig {
        queue_capacity: 64,
        ..ServeConfig::default()
    });
    let accept = AcceptLoop::spawn(acceptor, registry.clone());
    let admitting = Instant::now();
    let clients: Vec<InProcLink> = (0..SESSIONS)
        .map(|_| transport.connect(&bound).expect("connect"))
        .collect();
    while registry.stats().active < SESSIONS {
        if admitting.elapsed() > STALL {
            out.faults.push("sessions never admitted".into());
            return out;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    out.layers.insert(
        "netpipe.serve.admit_ms",
        admitting.elapsed().as_secs_f64() * 1e3,
    );

    let shared = Arc::new(ReaderShared {
        floor: AtomicU64::new(0),
        abort: AtomicBool::new(false),
    });
    let reader_thread = {
        let (arena, shared) = (arena.clone(), Arc::clone(&shared));
        std::thread::Builder::new()
            .name("fanout-reader".into())
            .spawn(move || reader(clients, &arena, script, &shared))
            .expect("spawn reader")
    };
    // Waits until every session has `floor` frames; false on a stall.
    let wait_floor = |ready: &dyn Fn(u64) -> bool| {
        let mut watch = StallWatch::new();
        loop {
            let floor = shared.floor.load(Ordering::Acquire);
            if ready(floor) {
                return true;
            }
            if watch.stalled(floor) {
                shared.abort.store(true, Ordering::Release);
                return false;
            }
            registry.sweep();
            std::thread::yield_now();
        }
    };

    // Harness-side spans around sealing and the two registry calls
    // (traced only).
    let mut spans = ctx.tracer.as_ref().map(|t| {
        (
            t.recorder("netpipe.serve.broadcast"),
            t.recorder("netpipe.serve.sweep"),
            t.recorder("gen.seal"),
        )
    });
    let pool = BufferPool::new();
    let (mut broadcast_ns, mut sweep_ns) = (0u64, 0u64);
    let mut queued_max = 0usize;
    let mut start = None;
    for seq in 0..script.total() {
        if seq == script.warm {
            start = Some(Mark::now(ctx.detailed));
        }
        // Hold the backlog of the slowest session.
        if !wait_floor(&|floor| seq - floor < script.window) {
            out.faults
                .push(format!("readers stalled before frame {seq}"));
            break;
        }
        let key = ItemKey { seq, sub: Some(0) };
        let traced = spans.is_some() && seq.is_multiple_of(SAMPLE_EVERY);
        let sealing = now_ns();
        let mut buf = pool.acquire(FRAME_BYTES);
        buf.buf_mut().extend_from_slice(&seq.to_le_bytes());
        buf.buf_mut()
            .extend_from_slice(&arena.window(seq, FANOUT_BODY));
        let payload = buf.seal();
        if let (Some((_, _, seal)), true) = (&mut spans, traced) {
            seal.record(sealing, key);
        }

        let t0 = now_ns();
        match &mut spans {
            Some((b, ..)) if traced => {
                let open = b.open();
                registry.broadcast(&payload);
                b.close(open, key);
            }
            _ => {
                registry.broadcast(&payload);
            }
        }
        let t1 = now_ns();
        match &mut spans {
            Some((_, s, _)) if traced => {
                let open = s.open();
                registry.sweep();
                s.close(open, key);
            }
            _ => registry.sweep(),
        }
        if seq >= script.warm {
            broadcast_ns += t1 - t0;
            sweep_ns += now_ns() - t1;
            queued_max = queued_max.max(registry.stats().queued_frames);
        }
    }
    // Flush what the last broadcasts left queued, until the reader has it.
    if out.faults.is_empty() && !wait_floor(&|floor| floor == script.total()) {
        out.faults.push("deliveries never completed".into());
    }
    let end = Mark::now(ctx.detailed);
    shared.abort.store(true, Ordering::Release);
    let tally = reader_thread.join().expect("reader thread");
    let stats = registry.stats();
    accept.shutdown();

    let sessions = SESSIONS as u64;
    out.attempted = script.total() * sessions;
    out.failed = out.attempted - tally.ok.min(out.attempted);
    if tally.bad > 0 {
        out.faults
            .push(format!("{} deliveries out of order or corrupt", tally.bad));
    }
    if out.failed == 0 && tally.digest != expected {
        out.faults.push(format!(
            "stream digest {:#018x} != reference {expected:#018x}",
            tally.digest
        ));
    }
    out.gate_zero("netpipe.serve.shed_total", stats.shed_total);
    out.gate_zero("netpipe.serve.thinned_total", stats.thinned_total);
    out.gate_zero("netpipe.serve.evicted_total", stats.evicted_total);
    out.layers
        .insert("netpipe.serve.queued_frames_max", queued_max as f64);
    out.layers
        .insert("core.pool_miss_rate", pool.stats().miss_rate());
    out.notes
        .push(format!("{SESSIONS} in-process sessions, one reader thread"));

    let (Some(start), Some((warm_done_ns, closed_done_ns))) = (
        start,
        (tally.tenths_ns.len() == 11).then(|| (tally.tenths_ns[0], tally.tenths_ns[10])),
    ) else {
        out.faults.push("closed loop never completed".into());
        return out;
    };
    let deliveries = script.closed * sessions;
    out.setup_s = (warm_done_ns - started_ns) as f64 / 1e9;
    out.items_per_s = deliveries as f64 / ((closed_done_ns - warm_done_ns) as f64 / 1e9);
    out.closed_windows_us = per_item_us(&tally.tenths_ns, script.closed / 10 * sessions);
    layer_deltas(&mut out.layers, &start, &end, deliveries);
    // The fan-out is by refcount: one deep copy anywhere breaks the claim.
    if end.copies != start.copies {
        out.faults.push(format!(
            "{} payload deep copies during the fan-out, expected 0",
            end.copies - start.copies
        ));
    }
    out.layers.insert(
        "netpipe.serve.broadcast_ns",
        broadcast_ns as f64 / script.closed as f64,
    );
    out.layers.insert(
        "netpipe.serve.sweep_ns",
        sweep_ns as f64 / script.closed as f64,
    );

    if let Some(tracer) = &ctx.tracer {
        // No pipeline here: the two registry calls are the whole path,
        // and the "interval" is one broadcast-and-sweep round.
        let roles = SpanRoles {
            source: "gen.seal",
            sink: "netpipe.serve.sweep",
            transit: None,
        };
        out.trace = Some(TracedRepeat::collect(
            tracer,
            &roles,
            &script,
            "closed loop",
        ));
    }
    out
}
