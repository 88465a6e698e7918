//! The replayer: a kernel thread that feeds recorded records back into
//! live links at their recorded virtual timestamps.
//!
//! Replay is **sequential by record order**: the replay thread walks
//! the trace front to back, scheduling itself a wake-up timer
//! ([`Ctx::set_timer`]) for each record whose timestamp lies ahead of
//! the virtual clock, and sending every due record through
//! [`Link::send_via`] before sleeping again. Sequential delivery is
//! what preserves the control-overtakes-data property end to end: a
//! [`FrameKind::Control`] or event record captured ahead of queued data
//! is re-offered to the link in exactly that relative order, and the
//! link's own control lane does the overtaking — the same division of
//! labor as live traffic.
//!
//! Under a virtual-time kernel the entire replay is deterministic: the
//! clock only advances to the next timer deadline, so every record is
//! sent at *exactly* its recorded nanosecond. Kick-off uses
//! [`Kernel::freeze_clock`] + [`ExternalPort::send_at`] so the first
//! record's deadline is registered before the clock starts moving.

use super::format::{TraceError, TraceRecord};
use super::reader::TraceReader;
use crate::framing::FrameKind;
use crate::proto::WireEvent;
use crate::transport::{Frame, Link};
use crate::wire;
use infopipes::PayloadBytes;
use mbthread::{Ctx, Envelope, Flow, Kernel, Message, Tag, ThreadId, Time};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Replay thread self-wakeup.
const REPLAY_KICK: Tag = Tag(0x5250_0001);

/// How replay timing maps recorded timestamps onto the clock.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReplayMode {
    /// Deliver each record at its recorded virtual timestamp (the
    /// default: bit-identical timing under virtual time).
    AsRecorded,
    /// Ignore timestamps and deliver everything immediately, in order
    /// (`--as-fast-as-possible`): same frames, same order, compressed
    /// schedule.
    AsFastAsPossible,
}

/// Lock-free counters of a running replay, read through its
/// [`ReplayHandle`].
#[derive(Debug, Default)]
pub struct ReplayCounters {
    frames: AtomicU64,
    bytes: AtomicU64,
    done: AtomicBool,
}

impl ReplayCounters {
    /// Frames re-offered to links so far.
    pub fn frames(&self) -> u64 {
        self.frames.load(Ordering::Relaxed)
    }

    /// Payload bytes re-offered so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Whether the replay has delivered its last record.
    pub fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }
}

/// Rebuilds a transport [`Frame`] from a recorded `(kind, payload)`.
///
/// Data payloads move zero-copy (the frame shares the trace chunk's
/// buffer); events are wire-decoded; control bytes are copied out of
/// the shared buffer into the `Vec` the frame variant requires.
///
/// # Errors
///
/// [`TraceError::Wire`] when an event payload fails to decode.
fn record_to_frame(kind: FrameKind, payload: &PayloadBytes) -> Result<Frame, TraceError> {
    Ok(match kind {
        FrameKind::Data => Frame::Data(payload.clone()),
        FrameKind::Event => Frame::Event(wire::from_bytes::<WireEvent>(payload.as_slice())?),
        FrameKind::Control => Frame::Control(payload.as_slice().to_vec()),
        FrameKind::Fin => Frame::Fin,
    })
}

struct ReplayFn<L: Link> {
    records: Vec<TraceRecord>,
    next: usize,
    routes: HashMap<u16, L>,
    mode: ReplayMode,
    counters: Arc<ReplayCounters>,
}

impl<L: Link> ReplayFn<L> {
    fn send_record(&self, ctx: &mut Ctx<'_>, idx: usize) {
        let rec = &self.records[idx];
        // A record on a channel no link is routed for, or an event that no
        // longer decodes, is skipped; a send into a closed link still
        // counts as offered.
        let Some(link) = self.routes.get(&rec.channel) else {
            return;
        };
        let Ok(frame) = record_to_frame(rec.kind, &rec.payload) else {
            return;
        };
        let _ = link.send_via(&mut |to, msg| ctx.send(to, msg).is_ok(), frame);
        self.counters.frames.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(rec.payload.len() as u64, Ordering::Relaxed);
    }
}

impl<L: Link> mbthread::CodeFn for ReplayFn<L> {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, env: Envelope) -> Flow {
        if env.tag() != REPLAY_KICK {
            return Flow::Continue;
        }
        while self.next < self.records.len() {
            if matches!(self.mode, ReplayMode::AsRecorded) {
                let at = Time::from_nanos(self.records[self.next].ts_ns);
                if at > ctx.now() {
                    // Not due yet: sleep until the recorded timestamp.
                    let _ = ctx.set_timer(at, Message::signal(REPLAY_KICK), None);
                    return Flow::Continue;
                }
            }
            let idx = self.next;
            self.next += 1;
            self.send_record(ctx, idx);
        }
        self.counters.done.store(true, Ordering::Release);
        Flow::Stop
    }
}

/// A trace replayer: routes recorded channels onto live links and
/// launches the replay thread.
pub struct Replayer<L: Link> {
    kernel: Kernel,
    mode: ReplayMode,
    routes: HashMap<u16, L>,
}

/// A handle onto a launched replay.
#[derive(Clone, Debug)]
pub struct ReplayHandle {
    thread: ThreadId,
    counters: Arc<ReplayCounters>,
}

impl ReplayHandle {
    /// The replay thread's id.
    #[must_use]
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// The replay's counters.
    #[must_use]
    pub fn counters(&self) -> Arc<ReplayCounters> {
        Arc::clone(&self.counters)
    }

    /// Whether the replay delivered its last record.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.counters.is_done()
    }
}

impl<L: Link> Replayer<L> {
    /// A replayer on `kernel` with the given timing mode.
    #[must_use]
    pub fn new(kernel: &Kernel, mode: ReplayMode) -> Replayer<L> {
        Replayer {
            kernel: kernel.clone(),
            mode,
            routes: HashMap::new(),
        }
    }

    /// Routes a recorded channel onto a live link (builder style).
    #[must_use]
    pub fn route(mut self, channel: u16, link: L) -> Replayer<L> {
        self.routes.insert(channel, link);
        self
    }

    /// Launches the replay of `reader`'s records.
    ///
    /// The clock is frozen across kick-off
    /// ([`Kernel::freeze_clock`]), the first wake-up is scheduled at
    /// the first record's timestamp via [`ExternalPort::send_at`]
    /// ([`Time::ZERO`] for [`ReplayMode::AsFastAsPossible`]), and only
    /// then is the clock released — so a virtual-time kernel cannot run
    /// past the first deadline before it exists.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] if the kernel refuses the spawn (shutdown).
    ///
    /// [`ExternalPort::send_at`]: mbthread::ExternalPort::send_at
    pub fn launch(self, reader: &TraceReader) -> Result<ReplayHandle, TraceError> {
        let records = reader.records.clone();
        let counters = Arc::new(ReplayCounters::default());
        let kick_at = match self.mode {
            ReplayMode::AsRecorded => Time::from_nanos(records.first().map_or(0, |r| r.ts_ns)),
            ReplayMode::AsFastAsPossible => Time::ZERO,
        };
        let empty = records.is_empty();
        let replay = ReplayFn {
            records,
            next: 0,
            routes: self.routes,
            mode: self.mode,
            counters: Arc::clone(&counters),
        };
        let hold = self.kernel.freeze_clock();
        let thread = self
            .kernel
            .spawn("trace-replay", replay)
            .map_err(|_| TraceError::Io(std::io::Error::other("kernel is shutting down")))?;
        if empty {
            counters.done.store(true, Ordering::Release);
        }
        let port = self.kernel.external("trace-replay-kick");
        port.send_at(thread, kick_at, Message::signal(REPLAY_KICK))
            .map_err(|e| TraceError::Io(std::io::Error::other(format!("replay kick-off: {e}"))))?;
        drop(hold);
        Ok(ReplayHandle { thread, counters })
    }
}

impl<L: Link> std::fmt::Debug for Replayer<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replayer")
            .field("mode", &self.mode)
            .field("channels", &self.routes.keys().collect::<Vec<_>>())
            .finish()
    }
}
