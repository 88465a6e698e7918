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
use parking_lot::{Condvar, Mutex, MutexGuard};
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

    /// The receiving side of a lossy link queues an arrival: never
    /// waits, never refuses a control frame; a data frame that finds its
    /// lane full is shed and `false` returned.
    pub(crate) fn arrive(&self, frame: Frame) -> bool {
        let mut q = self.lanes.lock();
        if matches!(frame, Frame::Data(_)) && q.data.len() >= self.capacity {
            return false;
        }
        q.put(frame);
        self.wake(q);
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
            self.wait(&mut q, Some(deadline - now));
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
            self.wait(&mut q, Some(deadline - now));
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
            self.wait(&mut q, None);
        }
        if let Some(linger) = policy.linger {
            if batch.ctrl.is_empty()
                && !batch.fin
                && batch.data.len() < policy.max_frames
                && batch.data_bytes < policy.max_bytes
            {
                self.wait(&mut q, Some(linger));
                q.take(policy, &mut batch);
            }
        }
        if !batch.data.is_empty() {
            self.wake(q); // space freed
        }
        batch
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
                let batch = q.take_batch(BatchPolicy::default());
                assert_eq!(batch.data.iter().map(tag).collect::<Vec<_>>(), [0, 1]);
                assert_eq!(blocked.join().unwrap(), Some(true), "it waited: pressure");
            });
            assert_eq!(q.lanes.lock().waiters, 0);
            match q.try_recv() {
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
                let writer = s.spawn(|| q.take_batch(BatchPolicy::default()));
                await_waiters(&q, 1);
                assert_eq!(q.offer(data(7)), Some(false));
                let batch = writer.join().unwrap();
                assert_eq!(batch.data.iter().map(tag).collect::<Vec<_>>(), [7]);
                assert!(batch.ctrl.is_empty() && !batch.fin);
            });
            thread::scope(|s| {
                let reader = s.spawn(|| q.recv(Duration::from_secs(3600)));
                await_waiters(&q, 1);
                assert!(q.arrive(Frame::Control(vec![1, 2, 3])));
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
                full.close();
                assert_eq!(offer.join().unwrap(), None, "the frame was not queued");
                assert!(closed.join().unwrap());
            });
            assert_eq!(full.lanes.lock().waiters, 0);

            let empty = LaneQueue::new(1);
            thread::scope(|s| {
                let recv = s.spawn(|| empty.recv(Duration::from_secs(3600)));
                await_waiters(&empty, 1);
                empty.close();
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
                q.recv(Duration::from_millis(2)),
                RecvOutcome::TimedOut
            ));
            assert!(!q.wait_closed(Duration::from_millis(2)));
            assert_eq!(q.lanes.lock().waiters, 0);
            // And a real sleeper after it is counted, and woken.
            thread::scope(|s| {
                let reader = s.spawn(|| q.recv(Duration::from_secs(3600)));
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
                let batch = q.take_batch(BatchPolicy::default());
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
            assert!(q.try_recv().is_none());
            assert_eq!(q.lanes.lock().waiters, 0);
        });
    }
}
