//! The two-lane frame queue: the one statement of the lane policy, and
//! the one arrival path.
//!
//! Control frames (events, factory messages) ride an unbounded lane and
//! overtake queued data; data rides a bounded lane; `Fin` is a mark, not
//! a queued frame, honoured only once both lanes are empty, so end of
//! stream never overtakes its own data and stays readable afterwards.
//!
//! The receive side of every backend is this type: an inproc direction
//! (the sending thread arrives), a sim direction (its kernel thread
//! arrives), a TCP link and a UDP link (the socket reader arrives, a
//! read's frames at a time). Such a queue is polled until it is bound,
//! `Bound` after, and `Ended` after that. Polled, an arrival queues;
//! bound, the arriving thread delivers it into the binding under the
//! queue's one lock. `bind` flushes the backlog into the binding under
//! that same lock, so nothing that arrives meanwhile is lost or
//! overtaken, and nothing is delivered twice.
//!
//! The send side of a socket link (TCP, UDP) is a [`Transmit`]: this
//! queue, drained a batch at a time by one writer thread that the link's
//! first send starts, into the backend's one drain function.

use super::{
    Frame, RecvOutcome, SendStatus, SharedStats, TransportError, BATCH_BYTES, BATCH_FRAMES,
};
use crate::worker::Worker;
use infopipes::{ControlEvent, InboxSender, Item, PayloadBytes};
use mbthread::Ctx;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::iter::Peekable;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use std::vec::Drain;

/// A receive queue's binding: the pipeline that hears its arrivals, fed
/// by whichever thread delivers them.
struct Bound {
    inbox: Option<InboxSender>,
    on_event: Box<dyn Fn(ControlEvent) + Send>,
}

impl Bound {
    /// Hands one arrived frame to the pipeline: data to the inbox
    /// (counted in `stats` as delivered or refused), events to the
    /// callback. Wake-ups go through `ctx` when a kernel thread delivers
    /// (the simulator, deterministically), through the inbox's own port
    /// otherwise.
    fn accept(&self, mut ctx: Option<&mut Ctx<'_>>, frame: Frame, stats: &SharedStats) {
        match (frame, &self.inbox) {
            (Frame::Data(bytes), Some(inbox)) => {
                // The bytes fast path: the inbox item shares the frame
                // buffer, no copy and no payload box.
                let item = Item::bytes(bytes);
                let taken = match ctx.as_mut() {
                    Some(ctx) => inbox.put_via(ctx, item),
                    None => inbox.put(item),
                };
                let counter = if taken {
                    &stats.delivered
                } else {
                    &stats.refused
                };
                counter.fetch_add(1, Ordering::Relaxed);
            }
            (Frame::Event(ev), _) => (self.on_event)(ev),
            _ => {}
        }
    }

    /// Hands one read's frames to the pipeline, up to `Fin`: each run of
    /// data frames in one put (counted in `stats` as delivered or
    /// refused), each event to the callback once the data ahead of it is
    /// in. `true` if `Fin` came.
    fn accept_all(&self, frames: &mut Peekable<Drain<'_, Frame>>, stats: &SharedStats) -> bool {
        let is_data = |f: &Frame| matches!(f, Frame::Data(_));
        loop {
            if let (Some(inbox), true) = (&self.inbox, frames.peek().is_some_and(is_data)) {
                let mut run = 0;
                let refused = inbox.put_all(std::iter::from_fn(|| {
                    let Some(Frame::Data(bytes)) = frames.next_if(is_data) else {
                        return None;
                    };
                    run += 1;
                    Some(Item::bytes(bytes))
                }));
                stats
                    .delivered
                    .fetch_add((run - refused) as u64, Ordering::Relaxed);
                stats.refused.fetch_add(refused as u64, Ordering::Relaxed);
            }
            match frames.next() {
                None => return false,
                Some(Frame::Fin) => return true,
                Some(Frame::Event(ev)) => (self.on_event)(ev),
                Some(_) => {}
            }
        }
    }

    /// The stream is over: the inbox ends, and the binding is let go.
    fn finish(self, ctx: Option<&mut Ctx<'_>>) {
        if let Some(inbox) = &self.inbox {
            match ctx {
                Some(ctx) => inbox.finish_via(ctx),
                None => inbox.finish(),
            }
        }
    }
}

/// Who hears a queue's arrivals.
enum Receiver {
    /// Polled through `recv`: arrivals queue.
    Polled,
    /// Bound by `bind`: each arrival is delivered into it.
    Bound(Bound),
    /// Was bound, and its stream has ended: the binding has been let go.
    Ended,
}

struct Lanes {
    ctrl: VecDeque<Frame>,
    data: VecDeque<PayloadBytes>,
    /// `Fin` was queued; nothing follows it.
    fin: bool,
    /// The other side of the queue is gone (a socket link's writer
    /// exited, a socket reader's stream ended or failed, the sending end
    /// or the link was dropped).
    closed: bool,
    receiver: Receiver,
    /// Threads asleep on the queue's condvar that no
    /// [`wake`](LaneQueue::wake) has notified yet.
    waiters: usize,
    /// How many times `wake` has notified: a sleeper that finds it moved
    /// on knows its registration was struck from `waiters`.
    wakes: u64,
}

impl Lanes {
    fn put(&mut self, frame: Frame) {
        match frame {
            Frame::Data(bytes) => self.data.push_back(bytes),
            Frame::Fin => self.fin = true,
            ctrl_frame => self.ctrl.push_back(ctrl_frame),
        }
    }

    /// The lane policy, one frame at a time. A bound queue holds nothing
    /// for a poller: it reads `Closed`.
    fn next(&mut self) -> Option<RecvOutcome> {
        if let Some(frame) = self.ctrl.pop_front() {
            return Some(RecvOutcome::Frame(frame));
        }
        if let Some(bytes) = self.data.pop_front() {
            return Some(RecvOutcome::Frame(Frame::Data(bytes)));
        }
        if self.fin {
            Some(RecvOutcome::Fin)
        } else if self.closed || !matches!(self.receiver, Receiver::Polled) {
            Some(RecvOutcome::Closed)
        } else {
            None
        }
    }

    /// The lane policy, a write batch at a time: every control frame,
    /// then data up to the batch limits, and whether `Fin` is due after
    /// them.
    fn take(&mut self, batch: &mut Batch) {
        batch.ctrl.extend(self.ctrl.drain(..));
        while batch.data.len() < BATCH_FRAMES && batch.data_bytes < BATCH_BYTES {
            let Some(bytes) = self.data.pop_front() else {
                break;
            };
            batch.data_bytes += bytes.len();
            batch.data.push(bytes);
        }
        batch.fin = self.fin && self.data.is_empty();
    }
}

/// What a writer takes off a send queue in one go.
#[derive(Default)]
pub(crate) struct Batch {
    pub(crate) ctrl: Vec<Frame>,
    pub(crate) data: Vec<PayloadBytes>,
    data_bytes: usize,
    /// Both lanes are drained and `Fin` is due after this batch.
    pub(crate) fin: bool,
}

pub(crate) struct LaneQueue {
    lanes: Mutex<Lanes>,
    cv: Condvar,
    /// Data frames the bounded lane holds.
    capacity: usize,
}

/// Data frames a socket link's receive lane holds for polls.
pub(crate) const RX_QUEUE_FRAMES: usize = 1024;

/// What a polled receive lane does with a data frame that arrives while
/// it is full: a lossy backend (UDP) sheds it; a reliable one (TCP)
/// keeps it, and its reader waits for room before the next read.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum OnFull {
    Shed,
    Keep,
}

/// What became of an [`arrive`](LaneQueue::arrive)d frame.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Arrival {
    /// Queued for polls; the data lane now holds this many frames.
    Queued(usize),
    /// A data frame found its lane full and was shed.
    Shed,
    /// Handed to the binding.
    Delivered,
    /// The stream is over (`Fin` arrived, or the other side is gone):
    /// nothing took the frame.
    Ended,
}

impl LaneQueue {
    pub(crate) fn new(capacity: usize) -> LaneQueue {
        LaneQueue {
            lanes: Mutex::new(Lanes {
                ctrl: VecDeque::new(),
                data: VecDeque::new(),
                fin: false,
                closed: false,
                receiver: Receiver::Polled,
                waiters: 0,
                wakes: 0,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Sleeps on the condvar — until notified, or `timeout` if given —
    /// registered in `waiters` under the lock both sides hold, until
    /// [`wake`](LaneQueue::wake) strikes the registration or the sleep
    /// ends without one (timeout, `close`, spurious return).
    fn wait(&self, q: &mut MutexGuard<'_, Lanes>, timeout: Option<Duration>) {
        let wakes = q.wakes;
        q.waiters += 1;
        match timeout {
            Some(timeout) => {
                self.cv.wait_for(q, timeout);
            }
            None => self.cv.wait(q),
        }
        if q.wakes == wakes {
            q.waiters -= 1;
        }
    }

    /// Ends a critical section that changed the queue: unlocks, then
    /// wakes the registered sleepers — and only them: with nobody
    /// registered there is nobody to wake, and the `futex` call a notify
    /// costs is skipped. One notify serves every registration made so
    /// far, so they are struck here, not when the sleepers get to run:
    /// on a busy core that can be many frames later.
    fn wake(&self, mut q: MutexGuard<'_, Lanes>) {
        if q.waiters == 0 {
            return;
        }
        q.waiters = 0;
        q.wakes += 1;
        drop(q);
        self.cv.notify_all();
    }

    /// The sending side of a reliable stream queues a frame: a data
    /// frame *waits* for room in its lane. `None` once the stream has
    /// ended (`Fin` queued) or the consumer is gone; otherwise whether
    /// the frame met pressure — it had to wait, or left the data lane
    /// more than half full.
    pub(crate) fn offer(&self, frame: Frame) -> Option<bool> {
        let mut q = self.lanes.lock();
        if q.fin || q.closed {
            return None;
        }
        let mut pressured = false;
        if matches!(frame, Frame::Data(_)) {
            while q.data.len() >= self.capacity {
                pressured = true;
                self.wait(&mut q, None);
                if q.closed {
                    return None;
                }
            }
            pressured |= (q.data.len() + 2) * 2 > self.capacity;
        }
        q.put(frame);
        self.wake(q);
        Some(pressured)
    }

    /// Whether a data-lane [`offer`](LaneQueue::offer) would wait now.
    pub(crate) fn would_block(&self) -> bool {
        let q = self.lanes.lock();
        !q.fin && !q.closed && q.data.len() >= self.capacity
    }

    /// The receiving side takes an arrival, on the arriving thread: it
    /// never waits, and never refuses a control frame while the stream
    /// runs. Polled, the frame queues, and a data frame that finds its
    /// lane full is shed. Bound, the frame is delivered into the binding
    /// under the queue's lock, with wake-ups through `ctx` when a kernel
    /// thread delivers; `Fin` ends the binding. Deliveries and refusals
    /// are counted in `stats`.
    pub(crate) fn arrive(
        &self,
        ctx: Option<&mut Ctx<'_>>,
        frame: Frame,
        stats: &SharedStats,
    ) -> Arrival {
        let mut q = self.lanes.lock();
        match &q.receiver {
            Receiver::Polled if q.fin || q.closed => Arrival::Ended,
            Receiver::Polled => {
                if matches!(frame, Frame::Data(_)) && q.data.len() >= self.capacity {
                    return Arrival::Shed;
                }
                q.put(frame);
                let queued = q.data.len();
                self.wake(q);
                Arrival::Queued(queued)
            }
            Receiver::Bound(_) if matches!(frame, Frame::Fin) => {
                self.end(q, ctx);
                Arrival::Delivered
            }
            Receiver::Bound(bound) => {
                bound.accept(ctx, frame, stats);
                Arrival::Delivered
            }
            Receiver::Ended => Arrival::Ended,
        }
    }

    /// The receiving side takes one socket read's frames at once, on the
    /// reader's thread, under one lock and with one wake-up: it never
    /// waits, and never refuses a control frame while the stream runs.
    /// Polled, the frames queue; a data frame that finds its lane full
    /// goes as `full` says. Bound, each run of data frames goes into the
    /// inbox in one put, a control frame flushes the data ahead of it
    /// first, and `Fin` ends the binding. Deliveries, refusals and sheds
    /// are counted in `stats`. `frames` is left empty; `false` once the
    /// stream is over (`Fin` arrived, or the other side is gone).
    pub(crate) fn arrive_all(
        &self,
        frames: &mut Vec<Frame>,
        full: OnFull,
        stats: &SharedStats,
    ) -> bool {
        let mut frames = frames.drain(..).peekable();
        let mut q = self.lanes.lock();
        match &q.receiver {
            Receiver::Polled if !(q.fin || q.closed) => {
                for frame in frames.by_ref() {
                    let is_data = matches!(frame, Frame::Data(_));
                    if is_data && full == OnFull::Shed && q.data.len() >= self.capacity {
                        stats.dropped.fetch_add(1, Ordering::Relaxed);
                        stats.rx_shed.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    q.put(frame);
                    if q.fin {
                        break;
                    }
                }
                let open = !q.fin;
                self.wake(q);
                open
            }
            Receiver::Bound(bound) => {
                if !bound.accept_all(&mut frames, stats) {
                    return true;
                }
                self.end(q, None);
                false
            }
            _ => false,
        }
    }

    /// The reader of a reliable stream waits here before each socket
    /// read until its polled data lane has room (a bound lane always
    /// has); `false` once the stream is over.
    pub(crate) fn wait_room(&self) -> bool {
        let mut q = self.lanes.lock();
        loop {
            match q.receiver {
                Receiver::Ended => return false,
                Receiver::Bound(_) => return true,
                Receiver::Polled if q.fin || q.closed => return false,
                Receiver::Polled if q.data.len() < self.capacity => return true,
                Receiver::Polled => self.wait(&mut q, None),
            }
        }
    }

    /// Binds the receive side: data to `inbox` (counted in `stats` as
    /// delivered or refused), events to `on_event`, the stream's end to
    /// the inbox's end. Under the lock every arrival takes, the backlog
    /// goes into the binding first, in lane order; every later arrival
    /// delivers itself.
    pub(crate) fn bind(
        &self,
        inbox: Option<InboxSender>,
        on_event: impl Fn(ControlEvent) + Send + 'static,
        stats: &SharedStats,
    ) -> Result<(), TransportError> {
        let mut q = self.lanes.lock();
        if !matches!(q.receiver, Receiver::Polled) {
            return Err(TransportError::ReceiverTaken);
        }
        let bound = Bound {
            inbox,
            on_event: Box::new(on_event),
        };
        loop {
            match q.next() {
                Some(RecvOutcome::Frame(frame)) => bound.accept(None, frame, stats),
                // `Fin`, or the other side is gone: the stream is over.
                Some(_) => {
                    q.receiver = Receiver::Ended;
                    drop(q);
                    bound.finish(None);
                    return Ok(());
                }
                None => break,
            }
        }
        q.receiver = Receiver::Bound(bound);
        // A poller asleep on the queue now reads `Closed`.
        self.wake(q);
        Ok(())
    }

    /// [`bind`](LaneQueue::bind) for a socket link: a data binding holds
    /// `link` until the stream ends ("bind and forget"), so the reader
    /// delivers the rest after the caller drops every handle.
    pub(crate) fn bind_holding<L: Send + 'static>(
        &self,
        link: L,
        inbox: Option<InboxSender>,
        on_event: impl Fn(ControlEvent) + Send + 'static,
        stats: &SharedStats,
    ) -> Result<(), TransportError> {
        let link = inbox.is_some().then_some(link);
        let on_event = move |ev| {
            let _ = &link;
            on_event(ev);
        };
        self.bind(inbox, on_event, stats)
    }

    /// Lets go of a binding whose stream is over. `Ended` goes in under
    /// the lock, so no later arrival reaches the binding; the inbox hears
    /// its end after the unlock, and the binding drops there too, so its
    /// callback's captures never drop under the lock.
    fn end(&self, mut q: MutexGuard<'_, Lanes>, ctx: Option<&mut Ctx<'_>>) {
        if !matches!(q.receiver, Receiver::Bound(_)) {
            return;
        }
        let ended = std::mem::replace(&mut q.receiver, Receiver::Ended);
        drop(q);
        if let Receiver::Bound(bound) = ended {
            bound.finish(ctx);
        }
    }

    /// Marks the other side gone: a poller reads `Closed` once the lanes
    /// drain, a binding's inbox ends, and every waiter wakes.
    pub(crate) fn close(&self, ctx: Option<&mut Ctx<'_>>) {
        let mut q = self.lanes.lock();
        q.closed = true;
        self.end(q, ctx);
        self.cv.notify_all();
    }

    /// Waits up to `timeout` for [`close`](LaneQueue::close).
    pub(crate) fn wait_closed(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut q = self.lanes.lock();
        while !q.closed {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.wait(&mut q, Some(deadline - now));
        }
        true
    }

    /// Hands a poller the frame `next` gave. A data frame is counted in
    /// `stats` as delivered, and makes room: a reader waiting for it is
    /// woken.
    fn taken(
        &self,
        q: MutexGuard<'_, Lanes>,
        out: RecvOutcome,
        stats: &SharedStats,
    ) -> RecvOutcome {
        if matches!(out, RecvOutcome::Frame(Frame::Data(_))) {
            stats.delivered.fetch_add(1, Ordering::Relaxed);
            self.wake(q);
        }
        out
    }

    /// The next frame by lane policy, if any is due.
    #[cfg(test)]
    pub(crate) fn try_recv(&self, stats: &SharedStats) -> Option<RecvOutcome> {
        let mut q = self.lanes.lock();
        q.next().map(|out| self.taken(q, out, stats))
    }

    /// The next frame by lane policy, waiting up to `timeout` for one;
    /// a data frame is counted in `stats` as delivered.
    pub(crate) fn recv(&self, timeout: Duration, stats: &SharedStats) -> RecvOutcome {
        let mut q = self.lanes.lock();
        // Look before reading the clock: a frame that is already there,
        // or a poll (`Duration::ZERO`), never needs the time.
        if let Some(out) = q.next() {
            return self.taken(q, out, stats);
        }
        if timeout.is_zero() {
            return RecvOutcome::TimedOut;
        }
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return RecvOutcome::TimedOut;
            }
            self.wait(&mut q, Some(deadline - now));
            if let Some(out) = q.next() {
                return self.taken(q, out, stats);
            }
        }
    }

    /// Threads asleep on the queue that no wake has struck yet.
    #[cfg(test)]
    pub(crate) fn sleepers(&self) -> usize {
        self.lanes.lock().waiters
    }

    /// Waits until something is due, then takes a write batch.
    pub(crate) fn take_batch(&self) -> Batch {
        let mut batch = Batch::default();
        let mut q = self.lanes.lock();
        loop {
            q.take(&mut batch);
            if !batch.ctrl.is_empty() || !batch.data.is_empty() || batch.fin {
                break;
            }
            self.wait(&mut q, None);
        }
        if !batch.data.is_empty() {
            self.wake(q); // space freed
        }
        batch
    }
}

/// Data frames a socket link's send lane holds before `send` waits.
pub(crate) const TX_QUEUE_FRAMES: usize = 1024;

/// A backend's drain: puts one batch on its wire `W` — control frames,
/// then data, then `Fin` if due — counting the socket writes in `stats`.
/// `false` once the wire is broken.
pub(crate) type WireDrain<W> = fn(&mut W, &Batch, &SharedStats) -> bool;

/// The send side of a socket link. A data frame above `max_frame` is
/// shed and counted; every other frame takes the lane policy, and the
/// one writer, started by the link's first `send`, hands each batch to
/// the backend's [`WireDrain`]: a batch forms exactly when the sender
/// outruns the wire. A link that never sends starts no writer.
pub(crate) struct Transmit<W> {
    queue: Arc<LaneQueue>,
    max_frame: usize,
    stats: Arc<SharedStats>,
    drain: WireDrain<W>,
    /// The wire, until the writer or the closing `Fin` takes it.
    wire: Mutex<Option<W>>,
    name: &'static str,
    /// The writer; `None` if the OS refused the thread (the lane is
    /// closed then) or the link closed before it ever sent.
    writer: OnceLock<Option<Worker>>,
}

impl<W: Send + 'static> Transmit<W> {
    pub(crate) fn new(
        name: &'static str,
        wire: W,
        drain: WireDrain<W>,
        max_frame: usize,
        queue_frames: usize,
        stats: Arc<SharedStats>,
    ) -> Transmit<W> {
        Transmit {
            queue: Arc::new(LaneQueue::new(queue_frames)),
            max_frame,
            stats,
            drain,
            wire: Mutex::new(Some(wire)),
            name,
            writer: OnceLock::new(),
        }
    }

    /// Queues one frame for the writer. `Saturated` if it met pressure
    /// (a data frame waited for room, or left the lane more than half
    /// full), `Closed` once `Fin` is queued or the wire is gone.
    pub(crate) fn send(&self, frame: Frame) -> SendStatus {
        let stats = &self.stats;
        let data_len = match &frame {
            Frame::Data(bytes) if bytes.len() > self.max_frame => {
                // No peer takes a frame this long: shed it, and only it.
                stats.sent.fetch_add(1, Ordering::Relaxed);
                stats.dropped.fetch_add(1, Ordering::Relaxed);
                return SendStatus::Dropped;
            }
            Frame::Data(bytes) => Some(bytes.len() as u64),
            _ => None,
        };
        self.start_writer();
        let Some(pressured) = self.queue.offer(frame) else {
            return SendStatus::Closed;
        };
        // Counted only once queued: a frame abandoned because the writer
        // died mid-wait was never sent.
        if let Some(len) = data_len {
            stats.sent.fetch_add(1, Ordering::Relaxed);
            stats.bytes_sent.fetch_add(len, Ordering::Relaxed);
        }
        if pressured {
            SendStatus::Saturated
        } else {
            SendStatus::Sent
        }
    }

    /// Whether a data-frame `send` would return without waiting.
    pub(crate) fn send_ready(&self) -> bool {
        !self.queue.would_block()
    }

    /// Starts the writer, once; a thread the OS refuses closes the lane.
    fn start_writer(&self) {
        self.writer.get_or_init(|| {
            let mut wire = self.wire.lock().take()?;
            let (queue, stats) = (Arc::clone(&self.queue), Arc::clone(&self.stats));
            let drain = self.drain;
            Worker::spawn(self.name, move |_| {
                loop {
                    let batch = queue.take_batch();
                    if !drain(&mut wire, &batch, &stats) || batch.fin {
                        break;
                    }
                }
                queue.close(None);
            })
            .inspect_err(|_| self.queue.close(None))
            .ok()
        });
    }

    /// The link is going: queues `Fin` and gives the writer up to 2 s to
    /// put it on the wire behind the queued data. A link that never sent
    /// has no writer and nothing queued: its `Fin` goes out through the
    /// drain here, and nothing waits.
    pub(crate) fn close(&self) {
        if self.queue.offer(Frame::Fin).is_some() && self.writer.set(None).is_ok() {
            if let Some(mut wire) = self.wire.lock().take() {
                (self.drain)(&mut wire, &self.queue.take_batch(), &self.stats);
            }
            self.queue.close(None);
        }
        self.queue.wait_closed(Duration::from_secs(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::thread;

    /// Runs `body` on a thread of its own and fails the test if it is
    /// still running after a minute: a lost wake-up is a hang, and a
    /// hang must read as a failure, not as a stuck job.
    fn within_deadline(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = mpsc::channel();
        let runner = thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(Duration::from_secs(60)) {
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("hung: a wake-up was lost"),
            // Finished, or panicked and dropped `done`: the join tells.
            _ => runner.join().expect("test body panicked"),
        }
    }

    fn data(tag: u64) -> Frame {
        Frame::Data(PayloadBytes::from_vec(tag.to_le_bytes().to_vec()))
    }

    fn tag(bytes: &PayloadBytes) -> u64 {
        u64::from_le_bytes(bytes[..].try_into().expect("8 bytes"))
    }

    /// Blocks until `n` threads are registered asleep on `q` — the state
    /// the test wants, reached by watching for it, not by sleeping.
    fn await_waiters(q: &LaneQueue, n: usize) {
        while q.lanes.lock().waiters != n {
            thread::yield_now();
        }
    }

    #[test]
    fn an_offer_blocked_on_a_full_lane_returns_once_a_batch_frees_room() {
        within_deadline(|| {
            let q = LaneQueue::new(2);
            assert_eq!(
                q.offer(data(0)),
                Some(true),
                "a short lane is soon half full"
            );
            assert_eq!(q.offer(data(1)), Some(true));
            assert!(q.would_block());
            thread::scope(|s| {
                let blocked = s.spawn(|| q.offer(data(2)));
                await_waiters(&q, 1);
                let batch = q.take_batch();
                assert_eq!(batch.data.iter().map(tag).collect::<Vec<_>>(), [0, 1]);
                assert_eq!(blocked.join().unwrap(), Some(true), "it waited: pressure");
            });
            assert_eq!(q.lanes.lock().waiters, 0);
            match q.try_recv(&SharedStats::default()) {
                Some(RecvOutcome::Frame(Frame::Data(bytes))) => assert_eq!(tag(&bytes), 2),
                other => panic!("the blocked frame must be queued, got {other:?}"),
            }
        });
    }

    #[test]
    fn a_blocked_take_batch_or_recv_returns_after_offer_or_arrive() {
        within_deadline(|| {
            let q = LaneQueue::new(8);
            thread::scope(|s| {
                let writer = s.spawn(|| q.take_batch());
                await_waiters(&q, 1);
                assert_eq!(q.offer(data(7)), Some(false));
                let batch = writer.join().unwrap();
                assert_eq!(batch.data.iter().map(tag).collect::<Vec<_>>(), [7]);
                assert!(batch.ctrl.is_empty() && !batch.fin);
            });
            thread::scope(|s| {
                let reader = s.spawn(|| q.recv(Duration::from_secs(3600), &SharedStats::default()));
                await_waiters(&q, 1);
                assert_eq!(
                    q.arrive(None, Frame::Control(vec![1, 2, 3]), &SharedStats::default()),
                    Arrival::Queued(0)
                );
                match reader.join().unwrap() {
                    RecvOutcome::Frame(Frame::Control(bytes)) => assert_eq!(bytes, [1, 2, 3]),
                    other => panic!("expected the control frame, got {other:?}"),
                }
            });
            assert_eq!(q.lanes.lock().waiters, 0);
        });
    }

    #[test]
    fn close_releases_a_blocked_offer_recv_and_wait_closed() {
        within_deadline(|| {
            let full = LaneQueue::new(1);
            assert!(full.offer(data(0)).is_some());
            thread::scope(|s| {
                let offer = s.spawn(|| full.offer(data(1)));
                let closed = s.spawn(|| full.wait_closed(Duration::from_secs(3600)));
                await_waiters(&full, 2);
                full.close(None);
                assert_eq!(offer.join().unwrap(), None, "the frame was not queued");
                assert!(closed.join().unwrap());
            });
            assert_eq!(full.lanes.lock().waiters, 0);

            let empty = LaneQueue::new(1);
            thread::scope(|s| {
                let recv =
                    s.spawn(|| empty.recv(Duration::from_secs(3600), &SharedStats::default()));
                await_waiters(&empty, 1);
                empty.close(None);
                assert!(matches!(recv.join().unwrap(), RecvOutcome::Closed));
            });
            assert_eq!(empty.lanes.lock().waiters, 0);
        });
    }

    /// A timed-out sleeper must take its registration with it: the count
    /// is what the next `offer` goes by.
    #[test]
    fn a_timed_out_recv_leaves_no_waiter_behind() {
        within_deadline(|| {
            let q = LaneQueue::new(4);
            assert!(matches!(
                q.recv(Duration::from_millis(2), &SharedStats::default()),
                RecvOutcome::TimedOut
            ));
            assert!(!q.wait_closed(Duration::from_millis(2)));
            assert_eq!(q.lanes.lock().waiters, 0);
            // And a real sleeper after it is counted, and woken.
            thread::scope(|s| {
                let reader = s.spawn(|| q.recv(Duration::from_secs(3600), &SharedStats::default()));
                await_waiters(&q, 1);
                assert_eq!(q.offer(data(9)), Some(false));
                assert_eq!(q.lanes.lock().waiters, 0, "one notify serves it");
                assert!(matches!(
                    reader.join().unwrap(),
                    RecvOutcome::Frame(Frame::Data(_))
                ));
            });
        });
    }

    /// A reliable stream's reader stops at a full polled lane and goes on
    /// once polls have made room; a bound lane always has room, and an
    /// ended one never again.
    #[test]
    fn a_reader_waits_for_room_until_polls_make_some() {
        within_deadline(|| {
            let q = LaneQueue::new(2);
            let stats = SharedStats::default();
            let mut frames = vec![data(0), data(1), data(2)];
            assert!(q.arrive_all(&mut frames, OnFull::Keep, &stats));
            assert!(frames.is_empty());
            thread::scope(|s| {
                let reader = s.spawn(|| q.wait_room());
                await_waiters(&q, 1);
                // Two of three queued frames still fill the lane.
                assert!(matches!(
                    q.recv(Duration::ZERO, &stats),
                    RecvOutcome::Frame(Frame::Data(_))
                ));
                await_waiters(&q, 1);
                assert!(!reader.is_finished());
                assert!(matches!(
                    q.recv(Duration::ZERO, &stats),
                    RecvOutcome::Frame(Frame::Data(_))
                ));
                assert!(reader.join().unwrap());
            });
            q.bind(None, |_| {}, &stats).unwrap();
            assert!(q.wait_room());
            q.close(None);
            assert!(!q.wait_room());
            assert_eq!(q.lanes.lock().waiters, 0);
        });
    }

    /// Both sides of a 4-slot lane sleep and wake constantly: 100 000
    /// frames from two producers arrive complete, each producer's in
    /// order.
    #[test]
    fn two_producers_one_consumer_lose_nothing_through_a_short_lane() {
        const PER_PRODUCER: u64 = 50_000;
        within_deadline(|| {
            let q = Arc::new(LaneQueue::new(4));
            let producers: Vec<_> = (0..2u64)
                .map(|id| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || {
                        for seq in 0..PER_PRODUCER {
                            assert!(q.offer(data(id << 32 | seq)).is_some());
                        }
                    })
                })
                .collect();
            let mut next = [0u64; 2];
            while next.iter().sum::<u64>() < 2 * PER_PRODUCER {
                let batch = q.take_batch();
                assert!(batch.data.len() <= 4, "the lane holds four");
                for bytes in &batch.data {
                    let (id, seq) = ((tag(bytes) >> 32) as usize, tag(bytes) & 0xffff_ffff);
                    assert_eq!(seq, next[id], "producer {id} out of order");
                    next[id] += 1;
                }
            }
            for p in producers {
                p.join().unwrap();
            }
            assert_eq!(next, [PER_PRODUCER; 2]);
            assert!(q.try_recv(&SharedStats::default()).is_none());
            assert_eq!(q.lanes.lock().waiters, 0);
        });
    }

    /// Four producers arrive 200 frames each while one poller drains:
    /// each producer's frames come out complete and in order. A full lane
    /// sheds, so a producer offers a shed frame again.
    #[test]
    fn concurrent_arrivals_keep_each_producers_order() {
        const PER_PRODUCER: u64 = 200;
        within_deadline(|| {
            let q = Arc::new(LaneQueue::new(16));
            let producers: Vec<_> = (0..4u64)
                .map(|id| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || {
                        let stats = SharedStats::default();
                        for seq in 0..PER_PRODUCER {
                            while q.arrive(None, data(id << 32 | seq), &stats) == Arrival::Shed {
                                thread::yield_now();
                            }
                        }
                    })
                })
                .collect();
            let mut next = [0u64; 4];
            while next.iter().sum::<u64>() < 4 * PER_PRODUCER {
                match q.recv(Duration::from_secs(3600), &SharedStats::default()) {
                    RecvOutcome::Frame(Frame::Data(bytes)) => {
                        let (id, seq) = ((tag(&bytes) >> 32) as usize, tag(&bytes) & 0xffff_ffff);
                        assert_eq!(seq, next[id], "producer {id} out of order");
                        next[id] += 1;
                    }
                    other => panic!("expected data, got {other:?}"),
                }
            }
            for p in producers {
                p.join().unwrap();
            }
            assert!(q.try_recv(&SharedStats::default()).is_none());
            assert_eq!(q.lanes.lock().waiters, 0);
        });
    }

    /// Each batch a drain was handed: the thread it ran on, its data
    /// tags, and whether `Fin` closed it.
    type Record = Arc<Mutex<Vec<(thread::ThreadId, Vec<u64>, bool)>>>;

    fn record(log: &mut Record, batch: &Batch, _: &SharedStats) -> bool {
        let tags = batch.data.iter().map(tag).collect();
        log.lock().push((thread::current().id(), tags, batch.fin));
        true
    }

    fn recording_transmit(log: &Record, queue_frames: usize) -> Transmit<Record> {
        let stats = Arc::new(SharedStats::default());
        Transmit::new(
            "test-writer",
            Arc::clone(log),
            record,
            64,
            queue_frames,
            stats,
        )
    }

    /// Eight threads make the first sends on one fresh transmit queue at
    /// once: exactly one writer starts, on a thread of its own, and each
    /// sender's frames reach the drain complete and in order, `Fin` last.
    #[test]
    fn concurrent_first_sends_start_exactly_one_writer() {
        const SENDERS: u64 = 8;
        const PER_SENDER: u64 = 500;
        within_deadline(|| {
            let log = Record::default();
            let tx = Arc::new(recording_transmit(&log, 16));
            let start = Arc::new(std::sync::Barrier::new(SENDERS as usize));
            let senders: Vec<_> = (0..SENDERS)
                .map(|id| {
                    let (tx, start) = (Arc::clone(&tx), Arc::clone(&start));
                    thread::spawn(move || {
                        start.wait();
                        for seq in 0..PER_SENDER {
                            assert!(tx.send(data(id << 32 | seq)).accepted());
                        }
                        thread::current().id()
                    })
                })
                .collect();
            let mut not_writers: Vec<_> = senders.into_iter().map(|s| s.join().unwrap()).collect();
            not_writers.push(thread::current().id());
            tx.close();
            let log = log.lock();
            let writers: std::collections::HashSet<_> = log.iter().map(|(t, ..)| *t).collect();
            assert_eq!(writers.len(), 1, "{} writers drained", writers.len());
            assert!(writers.iter().all(|w| !not_writers.contains(w)));
            let fins: Vec<bool> = log.iter().map(|(.., fin)| *fin).collect();
            assert_eq!(fins.iter().position(|&fin| fin), Some(fins.len() - 1));
            let mut next = [0u64; SENDERS as usize];
            for tag in log.iter().flat_map(|(_, tags, _)| tags) {
                let (id, seq) = ((tag >> 32) as usize, tag & 0xffff_ffff);
                assert_eq!(seq, next[id], "sender {id} out of order");
                next[id] += 1;
            }
            assert_eq!(next, [PER_SENDER; SENDERS as usize]);
        });
    }

    /// A transmit queue that never sent starts no writer: its closing
    /// `Fin` goes through the drain on the closing thread, and data
    /// above the frame limit is shed without starting one either.
    #[test]
    fn a_queue_that_never_sends_closes_on_the_closing_thread() {
        within_deadline(|| {
            let log = Record::default();
            let tx = recording_transmit(&log, 16);
            let long = Frame::Data(PayloadBytes::from_vec(vec![0; 65]));
            assert_eq!(tx.send(long), SendStatus::Dropped);
            tx.close();
            assert!(tx.writer.get().is_some_and(Option::is_none), "no writer");
            assert_eq!(*log.lock(), [(thread::current().id(), vec![], true)]);
            assert_eq!(tx.send(data(1)), SendStatus::Closed);
        });
    }
}
