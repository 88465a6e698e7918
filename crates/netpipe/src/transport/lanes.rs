//! The two-lane frame queue: the one statement of the lane policy.
//!
//! Control frames (events, factory messages) ride an unbounded lane and
//! overtake queued data; data rides a bounded lane; `Fin` is a mark, not
//! a queued frame, honoured only once both lanes are empty, so end of
//! stream never overtakes its own data and stays readable afterwards.
//! The TCP send queue, the UDP receive queue and the simulator's
//! external receive queue are this type. (`inproc` keeps its lock-free
//! ring for the data lane and so cannot share the lock this queue is
//! built around.)

use super::{BatchPolicy, Frame, RecvOutcome};
use infopipes::PayloadBytes;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

struct Lanes {
    ctrl: VecDeque<Frame>,
    data: VecDeque<PayloadBytes>,
    /// `Fin` was queued; nothing follows it.
    fin: bool,
    /// The other side of the queue is gone (the TCP writer exited, the
    /// UDP socket failed, the simulated peer was dropped).
    closed: bool,
}

impl Lanes {
    fn put(&mut self, frame: Frame) {
        match frame {
            Frame::Data(bytes) => self.data.push_back(bytes),
            Frame::Fin => self.fin = true,
            ctrl_frame => self.ctrl.push_back(ctrl_frame),
        }
    }

    /// The lane policy, one frame at a time.
    fn next(&mut self) -> Option<RecvOutcome> {
        if let Some(frame) = self.ctrl.pop_front() {
            return Some(RecvOutcome::Frame(frame));
        }
        if let Some(bytes) = self.data.pop_front() {
            return Some(RecvOutcome::Frame(Frame::Data(bytes)));
        }
        if self.fin {
            Some(RecvOutcome::Fin)
        } else if self.closed {
            Some(RecvOutcome::Closed)
        } else {
            None
        }
    }

    /// The lane policy, a write batch at a time: every control frame,
    /// then data up to the policy, and whether `Fin` is due after them.
    fn take(&mut self, policy: BatchPolicy, batch: &mut Batch) {
        batch.ctrl.extend(self.ctrl.drain(..));
        while batch.data.len() < policy.max_frames.max(1) && batch.data_bytes < policy.max_bytes {
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

impl LaneQueue {
    pub(crate) fn new(capacity: usize) -> LaneQueue {
        LaneQueue {
            lanes: Mutex::new(Lanes {
                ctrl: VecDeque::new(),
                data: VecDeque::new(),
                fin: false,
                closed: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
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
                self.cv.wait(&mut q);
                if q.closed {
                    return None;
                }
            }
            pressured |= (q.data.len() + 2) * 2 > self.capacity;
        }
        q.put(frame);
        self.cv.notify_all();
        Some(pressured)
    }

    /// Whether a data-lane [`offer`](LaneQueue::offer) would wait now.
    pub(crate) fn would_block(&self) -> bool {
        let q = self.lanes.lock();
        !q.fin && !q.closed && q.data.len() >= self.capacity
    }

    /// The receiving side of a lossy link queues an arrival: never
    /// waits, never refuses a control frame; a data frame that finds its
    /// lane full is shed and `false` returned.
    pub(crate) fn arrive(&self, frame: Frame) -> bool {
        let mut q = self.lanes.lock();
        if matches!(frame, Frame::Data(_)) && q.data.len() >= self.capacity {
            return false;
        }
        q.put(frame);
        self.cv.notify_all();
        true
    }

    /// Marks the other side gone and wakes every waiter.
    pub(crate) fn close(&self) {
        self.lanes.lock().closed = true;
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
            self.cv.wait_for(&mut q, deadline - now);
        }
        true
    }

    /// The next frame by lane policy, if any is due.
    pub(crate) fn try_recv(&self) -> Option<RecvOutcome> {
        self.lanes.lock().next()
    }

    /// The next frame by lane policy, waiting up to `timeout` for one.
    pub(crate) fn recv(&self, timeout: Duration) -> RecvOutcome {
        let deadline = Instant::now() + timeout;
        let mut q = self.lanes.lock();
        loop {
            if let Some(out) = q.next() {
                return out;
            }
            let now = Instant::now();
            if now >= deadline {
                return RecvOutcome::TimedOut;
            }
            self.cv.wait_for(&mut q, deadline - now);
        }
    }

    /// Waits until something is due, then takes a write batch. An
    /// undersized all-data batch is held open for one `policy.linger`:
    /// frames arriving meanwhile join the same write.
    pub(crate) fn take_batch(&self, policy: BatchPolicy) -> Batch {
        let mut batch = Batch::default();
        let mut q = self.lanes.lock();
        loop {
            q.take(policy, &mut batch);
            if !batch.ctrl.is_empty() || !batch.data.is_empty() || batch.fin {
                break;
            }
            self.cv.wait(&mut q);
        }
        if let Some(linger) = policy.linger {
            if batch.ctrl.is_empty()
                && !batch.fin
                && batch.data.len() < policy.max_frames
                && batch.data_bytes < policy.max_bytes
            {
                self.cv.wait_for(&mut q, linger);
                q.take(policy, &mut batch);
            }
        }
        if !batch.data.is_empty() {
            self.cv.notify_all(); // space freed
        }
        batch
    }
}
