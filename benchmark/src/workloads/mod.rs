//! The five workloads and the pieces they share: the scripted source,
//! the verifying sink, and the marks taken at phase boundaries.

pub mod chain;
pub mod fanout;
pub mod remote;

use crate::stats;
use crate::trace::{self, now_ns, Span, TraceSummary, Tracer};
use crate::{alloc, procfs};
use infopipes::{
    payload_copy_count, Consumer, Digest64, Item, Producer, Stage, StageCtx, Typespec,
};
use mbthread::{Kernel, KernelStats};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A run fails if the sink sees nothing new for this long.
const STALL: Duration = Duration::from_secs(20);

/// How long the closed loop waits on a full window with nothing
/// completing before it releases one more item. A saturated pipe
/// completes an item every few microseconds; the longest pauses that
/// end by themselves (loopback TCP's 200 ms persist timer, a virtual CPU
/// taken away by the host) stay below this.
const PATIENCE: Duration = Duration::from_millis(500);

/// Decides when a progress counter has stopped for good. The clock
/// alone cannot: when the host pauses the whole machine, monotonic time
/// jumps and a healthy run would look stalled on resume. So the counter
/// must also have been seen unchanged many times over.
pub struct StallWatch {
    value: u64,
    since: Instant,
    polls: u32,
}

impl StallWatch {
    pub fn new() -> StallWatch {
        StallWatch {
            value: u64::MAX,
            since: Instant::now(),
            polls: 0,
        }
    }

    /// Notes the counter's current value; true once it has not moved
    /// for [`STALL`] and a thousand observations.
    pub fn stalled(&mut self, value: u64) -> bool {
        if value != self.value {
            *self = StallWatch {
                value,
                ..StallWatch::new()
            };
            return false;
        }
        self.polls = self.polls.saturating_add(1);
        self.polls > 1000 && self.since.elapsed() > STALL
    }
}

/// What one repeat is asked to do.
pub struct RepeatCtx {
    pub seed: u64,
    /// Item counts are divided by this (`--smoke` sets 50).
    pub shrink: u64,
    /// Record spans and the costlier marks (`--trace 1`).
    pub tracer: Option<Arc<Tracer>>,
    /// Take CPU-time and thread-count readings at phase marks.
    pub detailed: bool,
}

impl RepeatCtx {
    /// Always a multiple of ten, so the ten windows of a phase are
    /// equal and cover it.
    pub fn scaled(&self, items: u64) -> u64 {
        (items / self.shrink).max(trace::SAMPLE_EVERY * 4) / 10 * 10
    }
}

/// What one repeat measured. End-to-end values are plain fields; layer
/// values are keyed by their final metric names.
#[derive(Default)]
pub struct RepeatResult {
    pub setup_s: f64,
    pub items_per_s: f64,
    /// Open-loop latencies (sink time - due time) in arrival order,
    /// nanoseconds; empty on a workload with no open loop.
    pub latencies_ns: Vec<f64>,
    /// Closed-loop wall time per verified item over each of ten equal
    /// windows of arrivals, microseconds.
    pub closed_windows_us: Vec<f64>,
    /// Times the closed loop had to be restarted (see [`PATIENCE`]); a
    /// repeat that needed it is kept out of the reported medians.
    pub keepalives: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Why the repeat is not correct; empty when it is.
    pub faults: Vec<String>,
    /// Facts about the run worth printing (which link carried it).
    pub notes: Vec<String>,
    pub layers: BTreeMap<&'static str, f64>,
    pub trace: Option<TracedRepeat>,
}

pub struct TracedRepeat {
    pub spans: Vec<Span>,
    pub names: Vec<String>,
    /// One summary per measured phase, by phase name. The last one is
    /// the phase `lat_p50_us` is taken from.
    pub phases: Vec<(&'static str, TraceSummary)>,
}

impl TracedRepeat {
    /// Collects the tracer's spans and summarises each measured phase
    /// of `script` (the warm-up is traced but not reported).
    pub fn collect(
        tracer: &Tracer,
        roles: &trace::SpanRoles<'_>,
        script: &Script,
        closed_name: &'static str,
    ) -> TracedRepeat {
        let (spans, names) = (tracer.collect(), tracer.names());
        let mut phases = vec![(
            closed_name,
            trace::summarize(&spans, &names, roles, script.warm..script.paced_from()),
        )];
        if script.paced > 0 {
            let seqs = script.paced_from()..script.total();
            phases.push(("paced", trace::summarize(&spans, &names, roles, seqs)));
        }
        TracedRepeat {
            spans,
            names,
            phases,
        }
    }
}

impl RepeatResult {
    /// The median of ten window medians of open-loop latency. A
    /// workload with no open loop has no latency from a due time; the
    /// result line must carry every end-to-end metric all the same, so
    /// there this is the closed loop's time per item, the median of
    /// its ten windows. `NaN` for a repeat that failed before either.
    pub fn lat_p50_us(&self) -> f64 {
        if !self.latencies_ns.is_empty() {
            stats::median_of_windows(&self.latencies_ns, 10) / 1e3
        } else if !self.closed_windows_us.is_empty() {
            stats::median(&self.closed_windows_us)
        } else {
            f64::NAN
        }
    }

    /// Records a counter that must be zero for the run to be correct.
    fn gate_zero(&mut self, name: &'static str, value: u64) {
        self.layers.insert(name, value as f64);
        if value != 0 {
            self.faults.push(format!("{name} = {value}, expected 0"));
        }
    }
}

// ---------------------------------------------------------------------
// Marks: counters sampled at exact item boundaries
// ---------------------------------------------------------------------

/// Process and kernel counters at one instant.
#[derive(Clone, Default)]
pub struct Mark {
    pub t_ns: u64,
    pub allocs: u64,
    pub copies: u64,
    pub cpu_us: u64,
    pub threads: u64,
    pub kernels: Vec<KernelStats>,
    /// Workload-specific counters (link and pool stats).
    pub extra: Vec<u64>,
}

impl Mark {
    /// The process-wide counters now; `detailed` adds the readings that
    /// cost a `/proc` read.
    pub fn now(detailed: bool) -> Mark {
        Mark {
            t_ns: now_ns(),
            allocs: alloc::allocs(),
            copies: payload_copy_count(),
            cpu_us: if detailed { procfs::cpu_us() } else { 0 },
            threads: if detailed { procfs::threads() } else { 0 },
            ..Mark::default()
        }
    }
}

type ExtraFn = Box<dyn Fn() -> Vec<u64> + Send + Sync>;

/// Takes [`Mark`]s from inside the sink, so a delta spans
/// exactly the items of a phase rather than whatever the harness thread
/// happened to observe.
pub struct Marker {
    kernels: Vec<Kernel>,
    extra: ExtraFn,
    detailed: bool,
    marks: Mutex<BTreeMap<Phase, Mark>>,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Warm-up delivered; the closed loop is now measured.
    ClosedStart,
    /// Last closed-loop item delivered.
    ClosedEnd,
}

impl Marker {
    pub fn new(kernels: Vec<Kernel>, detailed: bool, extra: ExtraFn) -> Arc<Marker> {
        Arc::new(Marker {
            kernels,
            extra,
            detailed,
            marks: Mutex::new(BTreeMap::new()),
        })
    }

    pub fn mark(&self, phase: Phase) {
        let m = Mark {
            kernels: self.kernels.iter().map(Kernel::stats).collect(),
            extra: (self.extra)(),
            ..Mark::now(self.detailed)
        };
        self.marks.lock().expect("marks").insert(phase, m);
    }

    pub fn get(&self, phase: Phase) -> Option<Mark> {
        self.marks.lock().expect("marks").get(&phase).cloned()
    }
}

/// Per-item deltas between two marks, under their final metric names.
pub fn layer_deltas(out: &mut BTreeMap<&'static str, f64>, a: &Mark, b: &Mark, items: u64) {
    let n = items as f64;
    let sum = |f: fn(&KernelStats) -> u64| {
        let total = |m: &Mark| m.kernels.iter().map(f).sum::<u64>();
        (total(b) - total(a)) as f64
    };
    out.insert(
        "mbthread.ctx_switches_per_item",
        sum(|k| k.context_switches) / n,
    );
    out.insert("mbthread.msgs_per_item", sum(|k| k.messages_sent) / n);
    out.insert("mbthread.sync_sends_per_item", sum(|k| k.sync_sends) / n);
    out.insert("proc.allocs_per_item", (b.allocs - a.allocs) as f64 / n);
    out.insert("proc.cpu_us_per_item", (b.cpu_us - a.cpu_us) as f64 / n);
    out.insert("proc.threads_max", a.threads.max(b.threads) as f64);
    out.insert(
        "core.payload_copies_per_item",
        (b.copies - a.copies) as f64 / n,
    );
}

// ---------------------------------------------------------------------
// The scripted source
// ---------------------------------------------------------------------

/// What the source emits, in order: a warm-up and a measured closed
/// loop (both bounded by `window` items in flight), then an open loop
/// at a fixed rate.
#[derive(Copy, Clone, Debug)]
pub struct Script {
    pub warm: u64,
    pub closed: u64,
    /// Items allowed between source and sink in the closed loop.
    pub window: u64,
    pub paced: u64,
    pub period_ns: u64,
    /// Items allowed in flight in the open loop. Far above what the
    /// pinned rates ever queue; it exists so that a host stall longer
    /// than the rings and inboxes can absorb delays the generator (and
    /// shows as `gen.late_max_us` and latency) instead of losing items.
    pub paced_window: u64,
}

impl Script {
    pub fn total(&self) -> u64 {
        self.warm + self.closed + self.paced
    }

    pub fn paced_from(&self) -> u64 {
        self.warm + self.closed
    }
}

/// State shared by the source, the sink and the harness thread.
#[derive(Default)]
pub struct Shared {
    /// Items that reached the sink, right or wrong.
    pub seen: AtomicU64,
    /// When paced item 0 is due; set by the source.
    pub paced_t0_ns: AtomicU64,
    pub done: AtomicBool,
    /// Set by the harness on a stall so the source stops waiting.
    pub abort: AtomicBool,
    /// Times the closed loop released an item although its window was
    /// full, because nothing had completed for [`PATIENCE`].
    pub keepalives: AtomicU64,
    pub tally: Mutex<Tally>,
    /// How late each paced item left the generator, nanoseconds.
    pub late_ns: Mutex<Vec<f64>>,
}

/// The sink's verdict, published when the last item arrives (or on
/// abort).
#[derive(Clone, Default)]
pub struct Tally {
    pub ok: u64,
    pub bad: u64,
    pub digest: u64,
    pub latencies_ns: Vec<f64>,
    /// When each tenth of the closed loop's items had arrived, starting
    /// with the last warm-up item (eleven instants).
    pub tenths_ns: Vec<u64>,
}

/// The source stage of every pipeline workload: builds item `seq` from
/// the seed and emits it when the [`Script`] says so.
pub struct ScriptSource {
    make: Box<dyn FnMut(u64) -> Item + Send>,
    offers: Typespec,
    script: Script,
    next: u64,
    shared: Arc<Shared>,
    late_ns: Vec<f64>,
}

impl ScriptSource {
    pub fn new(
        offers: Typespec,
        script: Script,
        shared: &Arc<Shared>,
        make: impl FnMut(u64) -> Item + Send + 'static,
    ) -> ScriptSource {
        ScriptSource {
            make: Box::new(make),
            offers,
            script,
            next: 0,
            shared: Arc::clone(shared),
            late_ns: Vec::with_capacity(script.paced as usize),
        }
    }

    /// Blocks this kernel's only runnable thread until `ready`; gives
    /// up when the harness aborts the run.
    ///
    /// With `keepalive_below`, also returns once nothing has reached the
    /// sink for [`PATIENCE`] (and a thousand polls, so a paused machine
    /// does not count) while fewer items than that are in flight. A
    /// closed loop that only sends when something completes turns one
    /// lost wake-up on the consumer side into a deadlock; releasing one
    /// more item makes the next `put` wake the consumer again.
    fn wait_for(&self, ready: impl Fn(u64) -> bool, keepalive_below: Option<u64>) -> bool {
        let mut last = (u64::MAX, Instant::now(), 0u32);
        loop {
            let seen = self.shared.seen.load(Ordering::Acquire);
            if ready(seen) {
                return true;
            }
            if self.shared.abort.load(Ordering::Relaxed) {
                return false;
            }
            if seen != last.0 {
                last = (seen, Instant::now(), 0);
            } else {
                last.2 = last.2.saturating_add(1);
                if keepalive_below.is_some_and(|cap| self.next - seen < cap)
                    && last.2 > 1000
                    && last.1.elapsed() > PATIENCE
                {
                    self.shared.keepalives.fetch_add(1, Ordering::Relaxed);
                    return true;
                }
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }
}

/// Open-loop pacing: sleeps to within 100 µs of `due_ns`, then spins.
/// Returns how late the caller wakes, in nanoseconds.
fn pace_until(due_ns: u64) -> u64 {
    loop {
        let now = now_ns();
        if now >= due_ns {
            return now - due_ns;
        }
        if due_ns - now > 100_000 {
            std::thread::sleep(Duration::from_nanos(due_ns - now - 100_000));
        } else {
            std::hint::spin_loop();
        }
    }
}

impl Stage for ScriptSource {
    fn name(&self) -> &str {
        "script-source"
    }

    fn offers(&self) -> Typespec {
        self.offers.clone()
    }
}

impl Producer for ScriptSource {
    fn pull(&mut self, _ctx: &mut StageCtx<'_, '_>) -> Option<Item> {
        let seq = self.next;
        let s = self.script;
        if seq == s.total() {
            self.shared
                .late_ns
                .lock()
                .expect("late")
                .append(&mut self.late_ns);
            return None;
        }
        if seq < s.paced_from() {
            // Never more than twice the window, whatever happens.
            let cap = s.window.saturating_mul(2);
            if !self.wait_for(|seen| seq - seen < s.window, Some(cap)) {
                return None;
            }
        } else {
            if seq == s.paced_from() {
                // The open loop starts from an empty pipe. No keep-alive
                // here: it would start the phase with an item in flight.
                if !self.wait_for(|seen| seen == seq, None) {
                    return None;
                }
                self.shared
                    .paced_t0_ns
                    .store(now_ns() + 2_000_000, Ordering::Release);
            }
            if !self.wait_for(|seen| seq - seen < s.paced_window, None) {
                return None;
            }
            let t0 = self.shared.paced_t0_ns.load(Ordering::Relaxed);
            let late = pace_until(t0 + (seq - s.paced_from()) * s.period_ns);
            self.late_ns.push(late as f64);
        }
        self.next += 1;
        Some((self.make)(seq).with_seq(seq))
    }
}

// ---------------------------------------------------------------------
// The verifying sink
// ---------------------------------------------------------------------

/// How a sink recomputes what item `seq` must be.
pub trait Verify: Send + 'static {
    type Payload: Send + 'static;

    /// The item's sequence number: from its metadata in-process, from
    /// the payload once it has crossed a link.
    fn seq(&self, meta_seq: u64, payload: &Self::Payload) -> u64;

    /// Whether `payload` is exactly what the generator made for `seq`.
    fn matches(&self, seq: u64, payload: &Self::Payload) -> bool;

    /// What the stream digest commits to for this item.
    fn fingerprint(&self, payload: &Self::Payload) -> u64;
}

/// The stream digest over `(seq, fingerprint)` pairs — computed by the
/// sink over what arrived and by the harness over what was generated.
pub fn reference_digest(items: u64, fingerprint: impl Fn(u64) -> u64) -> u64 {
    let mut d = Digest64::new();
    for seq in 0..items {
        d.update_u64(seq);
        d.update_u64(fingerprint(seq));
    }
    d.value()
}

/// The final stage of every pipeline workload: checks order and content
/// of each item, takes the phase marks, and times latency.
pub struct VerifySink<V: Verify> {
    verify: V,
    script: Script,
    next: u64,
    /// The arrival count at which the next closed-loop tenth ends.
    next_tenth: u64,
    tally: Tally,
    digest: Digest64,
    shared: Arc<Shared>,
    marker: Arc<Marker>,
}

impl<V: Verify> VerifySink<V> {
    pub fn new(verify: V, script: Script, shared: &Arc<Shared>, marker: &Arc<Marker>) -> Self {
        VerifySink {
            verify,
            script,
            next: 0,
            next_tenth: script.warm,
            tally: Tally {
                latencies_ns: Vec::with_capacity(script.paced as usize),
                tenths_ns: Vec::with_capacity(11),
                ..Tally::default()
            },
            digest: Digest64::new(),
            shared: Arc::clone(shared),
            marker: Arc::clone(marker),
        }
    }

    fn publish(&mut self) {
        self.tally.digest = self.digest.value();
        *self.shared.tally.lock().expect("tally") = std::mem::take(&mut self.tally);
        self.shared.done.store(true, Ordering::Release);
    }
}

impl<V: Verify> Stage for VerifySink<V> {
    fn name(&self) -> &str {
        "verify-sink"
    }

    fn accepts(&self) -> Typespec {
        Typespec::of::<V::Payload>()
    }
}

impl<V: Verify> Consumer for VerifySink<V> {
    fn push(&mut self, _ctx: &mut StageCtx<'_, '_>, item: Item) {
        let meta_seq = item.meta.seq;
        let s = self.script;
        match item.into_payload::<V::Payload>() {
            Ok((payload, _)) => {
                let seq = self.verify.seq(meta_seq, &payload);
                if seq == self.next && self.verify.matches(seq, &payload) {
                    self.tally.ok += 1;
                    self.digest.update_u64(seq);
                    self.digest.update_u64(self.verify.fingerprint(&payload));
                } else {
                    self.tally.bad += 1;
                }
                self.next = seq + 1;
                // Open-loop latency runs from the item's due time.
                if seq >= s.paced_from() {
                    let t0 = self.shared.paced_t0_ns.load(Ordering::Acquire);
                    let due = t0 + (seq - s.paced_from()) * s.period_ns;
                    self.tally
                        .latencies_ns
                        .push(now_ns().saturating_sub(due) as f64);
                }
            }
            Err(_) => self.tally.bad += 1,
        }
        let seen = self.tally.ok + self.tally.bad;
        if seen == s.warm {
            self.marker.mark(Phase::ClosedStart);
        }
        if seen == self.next_tenth {
            self.tally.tenths_ns.push(now_ns());
            self.next_tenth = if self.tally.tenths_ns.len() > 10 {
                u64::MAX
            } else {
                seen + s.closed / 10
            };
        }
        if seen == s.paced_from() {
            self.marker.mark(Phase::ClosedEnd);
        }
        self.shared.seen.store(seen, Ordering::Release);
        if seen == s.total() {
            self.publish();
        }
    }
}

/// Waits for the sink to report completion. Completion is by verified
/// count, never by an end-of-stream frame; if the count stops moving
/// for [`STALL`] the run is aborted and reported as failed.
pub fn wait_done(shared: &Shared) -> Result<(), String> {
    let mut watch = StallWatch::new();
    while !shared.done.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(1));
        let seen = shared.seen.load(Ordering::Acquire);
        if watch.stalled(seen) {
            shared.abort.store(true, Ordering::Release);
            return Err(format!("stalled after {seen} items"));
        }
    }
    Ok(())
}

/// Folds the sink's tally and the phase marks into a result: the
/// correctness verdict, `items_per_s` over the closed loop, latencies,
/// and the per-item layer counts.
pub fn conclude(
    out: &mut RepeatResult,
    script: &Script,
    shared: &Shared,
    marker: &Marker,
    started_ns: u64,
    expected_digest: u64,
) {
    let tally = shared.tally.lock().expect("tally").clone();
    out.attempted = script.total();
    out.failed = script.total() - tally.ok.min(script.total());
    if tally.bad > 0 {
        out.faults
            .push(format!("{} items out of order or corrupt", tally.bad));
    }
    if out.failed == 0 && tally.digest != expected_digest {
        out.faults.push(format!(
            "stream digest {:#018x} != reference {expected_digest:#018x}",
            tally.digest
        ));
    }
    out.latencies_ns = tally.latencies_ns;
    out.closed_windows_us = per_item_us(&tally.tenths_ns, script.closed / 10);
    let (Some(a), Some(b)) = (marker.get(Phase::ClosedStart), marker.get(Phase::ClosedEnd)) else {
        out.faults.push("closed loop never completed".into());
        return;
    };
    out.setup_s = (a.t_ns - started_ns) as f64 / 1e9;
    out.items_per_s = script.closed as f64 / ((b.t_ns - a.t_ns) as f64 / 1e9);
    layer_deltas(&mut out.layers, &a, &b, script.closed);

    out.keepalives = shared.keepalives.load(Ordering::Relaxed);
    out.layers.insert("gen.keepalives", out.keepalives as f64);
    let late = shared.late_ns.lock().expect("late").clone();
    generator_layers(out, script, &late);
    latency_layers(out);
}

/// Wall time per item, in microseconds, between consecutive instants
/// that are `items` arrivals apart.
pub fn per_item_us(instants_ns: &[u64], items: u64) -> Vec<f64> {
    instants_ns
        .windows(2)
        .map(|w| (w[1] - w[0]) as f64 / 1e3 / items as f64)
        .collect()
}

/// How faithfully the open loop kept its schedule: `gen.*`.
fn generator_layers(out: &mut RepeatResult, script: &Script, late_ns: &[f64]) {
    let Some(last) = late_ns.last() else { return };
    // From item 0's due time to the moment the last item left.
    let span_ns = (script.paced - 1) * script.period_ns + *last as u64;
    out.layers.insert(
        "gen.offered_per_s",
        script.paced as f64 / (span_ns.max(1) as f64 / 1e9),
    );
    out.layers
        .insert("gen.late_p50_us", stats::median(late_ns) / 1e3);
    out.layers.insert(
        "gen.late_max_us",
        late_ns.iter().copied().fold(0.0, f64::max) / 1e3,
    );
}

/// The diagnostic tail of the latency samples: `tail.*`.
fn latency_layers(out: &mut RepeatResult) {
    let mut sorted = out.latencies_ns.clone();
    sorted.sort_by(f64::total_cmp);
    if let Some(max) = sorted.last() {
        out.layers
            .insert("tail.lat_p99_us", stats::percentile(&sorted, 99.0) / 1e3);
        out.layers.insert("tail.lat_max_us", max / 1e3);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_latency_is_the_median_window_time_per_item() {
        // Three windows of 1000 items: 1 ms, 2 ms and 10 ms long.
        let windows = per_item_us(&[5_000, 1_005_000, 3_005_000, 13_005_000], 1000);
        assert_eq!(windows, [1.0, 2.0, 10.0]);
        let repeat = RepeatResult {
            closed_windows_us: windows,
            ..RepeatResult::default()
        };
        assert_eq!(repeat.lat_p50_us(), 2.0);
        // An open loop's due-time latencies take precedence.
        let paced = RepeatResult {
            latencies_ns: vec![7_000.0; 20],
            ..repeat
        };
        assert_eq!(paced.lat_p50_us(), 7.0);
        assert!(RepeatResult::default().lat_p50_us().is_nan());
    }
}
