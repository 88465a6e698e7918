//! Tracing from outside the program: span-recording adapters that wrap
//! a stage, and the analysis that turns spans into self time per layer.
//!
//! Nothing here touches the crates under test. A `Spanned` adapter is an
//! ordinary component that forwards to the real one and notes when the
//! call started and ended; the planner places it exactly as it would
//! place the wrapped stage. Only every [`SAMPLE_EVERY`]-th item is
//! recorded, into buffers allocated before the run.

use infopipes::{
    Consumer, ControlEvent, EventCtx, Function, Item, Node, Pipeline, Producer, Stage, StageCtx,
    TypeError, Typespec,
};
use media::{CompressedFrame, Packet};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One item in this many is traced.
pub const SAMPLE_EVERY: u64 = 64;

/// Spans each adapter can hold; recording stops when it is full.
const BUF_SPANS: usize = 1 << 15;

/// Nanoseconds since the process-wide epoch (first use).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded call into a layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within a [`Tracer`]; never 0.
    pub id: u32,
    /// The span that was open on this thread when this one began, or 0.
    pub parent: u32,
    /// Index into [`Tracer::names`].
    pub name: u16,
    /// The item this call served (frame number on `remote_tcp`).
    pub seq: u64,
    /// Which part of the item (packet index within a frame).
    pub sub: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// The span currently open on this thread (0 = none): the parent of
    /// whatever span opens next. Push-style stages call downstream
    /// synchronously, so nesting follows the call stack.
    static OPEN: Cell<u32> = const { Cell::new(0) };
}

/// Owns the span buffers of one traced repeat.
pub struct Tracer {
    names: Mutex<Vec<String>>,
    bufs: Mutex<Vec<Arc<Mutex<Vec<Span>>>>>,
    next_id: AtomicU32,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            names: Mutex::new(Vec::new()),
            bufs: Mutex::new(Vec::new()),
            next_id: AtomicU32::new(1),
        })
    }

    /// A recorder writing spans under `name` into its own preallocated
    /// buffer. Recorders of the same name share the name index.
    pub fn recorder(self: &Arc<Tracer>, name: &str) -> Recorder {
        let mut names = self.names.lock().expect("tracer names");
        let idx = names.iter().position(|n| n == name).unwrap_or_else(|| {
            names.push(name.to_owned());
            names.len() - 1
        });
        let buf = Arc::new(Mutex::new(Vec::with_capacity(BUF_SPANS)));
        self.bufs
            .lock()
            .expect("tracer bufs")
            .push(Arc::clone(&buf));
        Recorder {
            tracer: Arc::clone(self),
            name: idx as u16,
            buf,
            last_seq: u64::MAX,
            next_sub: 0,
        }
    }

    pub fn names(&self) -> Vec<String> {
        self.names.lock().expect("tracer names").clone()
    }

    /// Every span recorded so far, ordered by start time.
    pub fn collect(&self) -> Vec<Span> {
        let mut all: Vec<Span> = Vec::new();
        for buf in self.bufs.lock().expect("tracer bufs").iter() {
            all.extend(buf.lock().expect("span buf").iter().cloned());
        }
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    }
}

/// A span that has begun but not ended.
pub struct OpenSpan {
    id: u32,
    parent: u32,
    start_ns: u64,
}

/// Writes spans of one name; owned by one adapter (or the harness).
pub struct Recorder {
    tracer: Arc<Tracer>,
    name: u16,
    buf: Arc<Mutex<Vec<Span>>>,
    last_seq: u64,
    next_sub: u32,
}

impl Recorder {
    /// Begins a span and makes it the parent of spans opened under it.
    pub fn open(&self) -> OpenSpan {
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| o.replace(id));
        OpenSpan {
            id,
            parent,
            start_ns: now_ns(),
        }
    }

    /// Ends a span begun with [`open`](Recorder::open).
    pub fn close(&mut self, open: OpenSpan, key: ItemKey) {
        let end_ns = now_ns();
        OPEN.with(|o| o.set(open.parent));
        self.push(open.id, open.parent, open.start_ns, end_ns, key);
    }

    /// Records a childless span whose start was noted before the item
    /// (and so whether to sample it) was known.
    pub fn record(&mut self, start_ns: u64, key: ItemKey) {
        let end_ns = now_ns();
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(id, OPEN.with(Cell::get), start_ns, end_ns, key);
    }

    fn push(&mut self, id: u32, parent: u32, start_ns: u64, end_ns: u64, key: ItemKey) {
        // Parts without an index of their own are numbered in order of
        // arrival within their item.
        let sub = key.sub.unwrap_or_else(|| {
            if key.seq != self.last_seq {
                self.last_seq = key.seq;
                self.next_sub = 0;
            }
            self.next_sub += 1;
            self.next_sub - 1
        });
        let mut buf = self.buf.lock().expect("span buf");
        if buf.len() < BUF_SPANS {
            buf.push(Span {
                id,
                parent,
                name: self.name,
                seq: key.seq,
                sub,
                start_ns,
                end_ns,
            });
        }
    }
}

/// Which item (and which part of it) a call served.
#[derive(Copy, Clone, Debug)]
pub struct ItemKey {
    pub seq: u64,
    pub sub: Option<u32>,
}

impl ItemKey {
    fn sampled(self) -> bool {
        self.seq.is_multiple_of(SAMPLE_EVERY)
    }
}

/// How an adapter reads the key off an item.
pub type KeyFn = fn(&Item) -> Option<ItemKey>;

/// The sequence number the source put in the item's metadata. Survives
/// every stage up to the network; parts are numbered by arrival.
pub fn key_meta(item: &Item) -> Option<ItemKey> {
    Some(ItemKey {
        seq: item.meta.seq,
        sub: None,
    })
}

/// Frame number and packet index of a [`Packet`] item.
pub fn key_packet(item: &Item) -> Option<ItemKey> {
    item.payload_ref::<Packet>().map(|p| ItemKey {
        seq: p.frame_seq,
        sub: Some(p.index),
    })
}

/// Frame number of a [`CompressedFrame`] item.
pub fn key_frame(item: &Item) -> Option<ItemKey> {
    item.payload_ref::<CompressedFrame>().map(|f| ItemKey {
        seq: f.seq,
        sub: Some(0),
    })
}

/// A stage wrapped so that calls into it are recorded.
pub struct Spanned<S> {
    inner: S,
    rec: Recorder,
    key: KeyFn,
    /// Read the key off the stage's output instead of its input (a
    /// stage whose input is opaque bytes, like an unmarshaller).
    key_on_output: bool,
}

impl<S: Stage> Stage for Spanned<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_event(&mut self, ctx: &mut EventCtx<'_, '_>, event: &ControlEvent) {
        self.inner.on_event(ctx, event);
    }

    fn accepts(&self) -> Typespec {
        self.inner.accepts()
    }

    fn transform_spec(&self, input: &Typespec) -> Result<Typespec, TypeError> {
        self.inner.transform_spec(input)
    }

    fn offers(&self) -> Typespec {
        self.inner.offers()
    }
}

impl<S: Producer> Producer for Spanned<S> {
    fn pull(&mut self, ctx: &mut StageCtx<'_, '_>) -> Option<Item> {
        let start_ns = now_ns();
        let item = self.inner.pull(ctx)?;
        if let Some(key) = (self.key)(&item).filter(|k| k.sampled()) {
            self.rec.record(start_ns, key);
        }
        Some(item)
    }
}

impl<S: Function> Function for Spanned<S> {
    fn convert(&mut self, item: Item) -> Option<Item> {
        if self.key_on_output {
            let start_ns = now_ns();
            let out = self.inner.convert(item)?;
            if let Some(key) = (self.key)(&out).filter(|k| k.sampled()) {
                self.rec.record(start_ns, key);
            }
            return Some(out);
        }
        match (self.key)(&item).filter(|k| k.sampled()) {
            Some(key) => {
                let start_ns = now_ns();
                let out = self.inner.convert(item);
                self.rec.record(start_ns, key);
                out
            }
            None => self.inner.convert(item),
        }
    }
}

impl<S: Consumer> Consumer for Spanned<S> {
    fn push(&mut self, ctx: &mut StageCtx<'_, '_>, item: Item) {
        match (self.key)(&item).filter(|k| k.sampled()) {
            Some(key) => {
                let open = self.rec.open();
                self.inner.push(ctx, item);
                self.rec.close(open, key);
            }
            None => self.inner.push(ctx, item),
        }
    }
}

/// Adds stages to a pipeline, wrapped in [`Spanned`] when tracing.
pub struct StageAdder<'p> {
    pub pipeline: &'p Pipeline,
    pub tracer: Option<Arc<Tracer>>,
}

impl<'p> StageAdder<'p> {
    fn wrap<S>(
        &self,
        span: &str,
        key: KeyFn,
        key_on_output: bool,
        inner: S,
    ) -> Result<Spanned<S>, S> {
        match &self.tracer {
            Some(t) => Ok(Spanned {
                inner,
                rec: t.recorder(span),
                key,
                key_on_output,
            }),
            None => Err(inner),
        }
    }

    /// Adds a producer; its spans are keyed by the items it returns.
    pub fn producer(&self, name: &str, span: &str, key: KeyFn, p: impl Producer) -> Node<'p> {
        match self.wrap(span, key, true, p) {
            Ok(s) => self.pipeline.add_producer(name, s),
            Err(p) => self.pipeline.add_producer(name, p),
        }
    }

    /// Adds a function keyed by its input.
    pub fn function(&self, name: &str, span: &str, key: KeyFn, f: impl Function) -> Node<'p> {
        match self.wrap(span, key, false, f) {
            Ok(s) => self.pipeline.add_function(name, s),
            Err(f) => self.pipeline.add_function(name, f),
        }
    }

    /// Adds a function keyed by its output.
    pub fn function_keyed_on_output(
        &self,
        name: &str,
        span: &str,
        key: KeyFn,
        f: impl Function,
    ) -> Node<'p> {
        match self.wrap(span, key, true, f) {
            Ok(s) => self.pipeline.add_function(name, s),
            Err(f) => self.pipeline.add_function(name, f),
        }
    }

    /// Adds a consumer keyed by its input.
    pub fn consumer(&self, name: &str, span: &str, key: KeyFn, c: impl Consumer) -> Node<'p> {
        match self.wrap(span, key, false, c) {
            Ok(s) => self.pipeline.add_consumer(name, s),
            Err(c) => self.pipeline.add_consumer(name, c),
        }
    }
}

// ---------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------

/// Self time of every span: its duration minus the part of it that its
/// child spans cover. Children are clipped to the parent and their
/// overlaps counted once, so self time is never negative.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, s.duration() - covered)
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Per-layer summary of one traced repeat.
#[derive(Clone, Debug, Default)]
pub struct LayerRow {
    pub name: String,
    pub spans: usize,
    /// Mean self time of one call.
    pub self_ns_per_call: f64,
    /// Self time per traced item (calls per item times the above).
    pub self_ns_per_item: f64,
}

/// What the spans of one repeat say.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// The span that hands the item over; the interval starts where it
    /// ends, so its own time (the generator's) is not part of it.
    pub source: String,
    pub rows: Vec<LayerRow>,
    /// Traced items that have both a source and a sink span.
    pub items: usize,
    /// Median source-return → sink-return interval.
    pub interval_ns_p50: f64,
    /// Median share of that interval covered by a named span or by
    /// transit.
    pub explained_frac: f64,
    /// Median gap between a part leaving `send` and entering `recv_into`.
    pub transit_ns_p50: f64,
}

/// Names the analysis needs to find its way: which span ends the source
/// side, which ends the sink side, and which two bracket the network.
pub struct SpanRoles<'a> {
    pub source: &'a str,
    pub sink: &'a str,
    /// `(last span before the link, first span after it)`, if any.
    pub transit: Option<(&'a str, &'a str)>,
}

/// Self time per layer and how much of each item's source→sink interval
/// the spans explain, over the items of one phase (`seqs`).
pub fn summarize(
    spans: &[Span],
    names: &[String],
    roles: &SpanRoles<'_>,
    seqs: std::ops::Range<u64>,
) -> TraceSummary {
    let idx = |n: &str| names.iter().position(|x| x == n).map(|i| i as u16);
    let spans: Vec<Span> = spans
        .iter()
        .filter(|s| seqs.contains(&s.seq))
        .cloned()
        .collect();
    let selfs = self_times(&spans);

    let mut by_seq: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in &spans {
        by_seq.entry(s.seq).or_default().push(s);
    }
    let (source, sink) = (idx(roles.source), idx(roles.sink));
    let transit = roles.transit.and_then(|(a, b)| Some((idx(a)?, idx(b)?)));

    let (mut intervals, mut explained, mut transits) = (Vec::new(), Vec::new(), Vec::new());
    for item in by_seq.values() {
        let src_end = item
            .iter()
            .filter(|s| Some(s.name) == source)
            .map(|s| s.end_ns)
            .min();
        let sink_end = item
            .iter()
            .filter(|s| Some(s.name) == sink)
            .map(|s| s.end_ns)
            .max();
        let (Some(lo), Some(hi)) = (src_end, sink_end) else {
            continue;
        };
        if hi <= lo {
            continue;
        }
        let mut cover: Vec<(u64, u64)> = item.iter().map(|s| (s.start_ns, s.end_ns)).collect();
        if let Some((before, after)) = transit {
            for out in item.iter().filter(|s| s.name == before) {
                let arrival = item
                    .iter()
                    .find(|s| s.name == after && s.sub == out.sub)
                    .map(|s| s.start_ns);
                if let Some(arrival) = arrival.filter(|&a| a > out.end_ns) {
                    cover.push((out.end_ns, arrival));
                    transits.push((arrival - out.end_ns) as f64);
                }
            }
        }
        intervals.push((hi - lo) as f64);
        explained.push(covered_ns(&mut cover, lo, hi) as f64 / (hi - lo) as f64);
    }

    let items = intervals.len();
    let rows = names
        .iter()
        .enumerate()
        .filter_map(|(i, name)| {
            let mine: Vec<&Span> = spans.iter().filter(|s| s.name as usize == i).collect();
            if mine.is_empty() {
                return None;
            }
            let total: u64 = mine.iter().map(|s| selfs[&s.id]).sum();
            Some(LayerRow {
                name: name.clone(),
                spans: mine.len(),
                self_ns_per_call: total as f64 / mine.len() as f64,
                self_ns_per_item: total as f64 / by_seq.len().max(1) as f64,
            })
        })
        .collect();
    let med = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            crate::stats::median(v)
        }
    };
    TraceSummary {
        source: roles.source.to_owned(),
        rows,
        items,
        interval_ns_p50: med(&intervals),
        explained_frac: med(&explained),
        transit_ns_p50: med(&transits),
    }
}

/// The self-time table the traced run prints for one phase.
pub fn render_table(phase: &str, summary: &TraceSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "  {:<28} {:>8} {:>14} {:>14} {:>8}",
        format!("{phase}: layer (span)"),
        "calls",
        "self ns/call",
        "self ns/item",
        "share"
    );
    for r in &summary.rows {
        let share = if r.name == summary.source || summary.interval_ns_p50 <= 0.0 {
            "before".to_owned()
        } else {
            format!(
                "{:.1}%",
                r.self_ns_per_item / summary.interval_ns_p50 * 100.0
            )
        };
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>14.0} {:>14.0} {:>8}",
            r.name, r.spans, r.self_ns_per_call, r.self_ns_per_item, share
        );
    }
    if summary.transit_ns_p50 > 0.0 {
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>14.0}",
            "transit (p50 gap)", "", summary.transit_ns_p50
        );
    }
    let _ = writeln!(
        out,
        "  source->sink interval p50 {:.0} ns over {} traced items; spans + transit explain {:.1}%",
        summary.interval_ns_p50,
        summary.items,
        summary.explained_frac * 100.0
    );
    out
}

/// The spans as a JSON document, names resolved.
pub fn to_json(workload: &str, spans: &[Span], names: &[String]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 64);
    let _ = write!(out, "{{\"workload\": \"{workload}\", \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{sep}\n{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"seq\": {}, \"part\": {}, \
             \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.parent, names[s.name as usize], s.seq, s.sub, s.start_ns, s.end_ns
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: u16, seq: u64, sub: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            seq,
            sub,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // parent 0..100; children 10..30 and 20..50 overlap (count 10..50
        // once); grandchild 12..18 comes off the first child only; a
        // child leaking past the parent is clipped.
        let spans = vec![
            span(1, 0, 0, 0, 0, 0, 100),
            span(2, 1, 1, 0, 0, 10, 30),
            span(3, 1, 1, 0, 1, 20, 50),
            span(4, 2, 2, 0, 0, 12, 18),
            span(5, 1, 1, 0, 2, 90, 130),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20 - 6);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 6);
        assert_eq!(selfs[&5], 40);
    }

    #[test]
    fn coverage_is_a_clipped_union() {
        let mut v = vec![(5, 10), (0, 3), (8, 20), (30, 40)];
        assert_eq!(covered_ns(&mut v, 2, 35), 1 + 15 + 5);
        assert_eq!(covered_ns(&mut [], 0, 10), 0);
    }

    #[test]
    fn summary_explains_the_interval_with_spans_and_transit() {
        let names: Vec<String> = ["src", "send", "recv", "sink"]
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        // src returns at 100; send 110..150; transit 150..400;
        // recv 400..450; sink 460..500. Unexplained: 100..110, 450..460.
        let spans = vec![
            span(1, 0, 0, 64, 0, 50, 100),
            span(2, 0, 1, 64, 0, 110, 150),
            span(3, 0, 2, 64, 0, 400, 450),
            span(4, 0, 3, 64, 0, 460, 500),
            // Warm-up item: ignored.
            span(5, 0, 0, 0, 0, 0, 10),
        ];
        let roles = SpanRoles {
            source: "src",
            sink: "sink",
            transit: Some(("send", "recv")),
        };
        let s = summarize(&spans, &names, &roles, 64..65);
        assert_eq!(s.items, 1);
        assert_eq!(s.interval_ns_p50, 400.0);
        assert_eq!(s.transit_ns_p50, 250.0);
        assert!((s.explained_frac - 380.0 / 400.0).abs() < 1e-12);
        assert_eq!(s.rows.len(), 4);
        assert_eq!(s.rows[1].self_ns_per_call, 40.0);
        assert!(render_table("paced", &s).contains("95.0%"));
    }

    #[test]
    fn recorder_nests_by_call_stack_and_numbers_parts() {
        let tracer = Tracer::new();
        let mut outer = tracer.recorder("outer");
        let mut inner = tracer.recorder("inner");
        let key = ItemKey { seq: 0, sub: None };
        let o = outer.open();
        for _ in 0..2 {
            let i = inner.open();
            inner.close(i, key);
        }
        outer.close(o, key);
        let spans = tracer.collect();
        let parent = spans.iter().find(|s| s.name == 0).unwrap();
        let kids: Vec<&Span> = spans.iter().filter(|s| s.name == 1).collect();
        assert_eq!(parent.parent, 0);
        assert!(kids.iter().all(|k| k.parent == parent.id));
        assert_eq!(kids.iter().map(|k| k.sub).collect::<Vec<_>>(), vec![0, 1]);
        assert!(to_json("w", &spans, &tracer.names()).contains("\"name\": \"inner\""));
    }
}
