//! Ready-made typed components: sources from iterators, sinks into
//! vectors, closures as filters, and the paper's defragmenter/fragmenter
//! in every activity style (used throughout the tests, examples, and the
//! Fig. 4/6/8 experiments).

use crate::events::ControlEvent;
use crate::item::Item;
use crate::runtime::{ActiveCtx, EventCtx, StageCtx};
use crate::stage::{ActiveObject, ActiveRun, Consumer, Function, Producer, Stage};
use parking_lot::Mutex;
use std::marker::PhantomData;
use std::sync::Arc;
use typespec::{ItemType, TypeError, Typespec};

/// A passive source producing the items of an iterator, in pull style.
pub struct IterSource<I, T> {
    name: String,
    iter: I,
    seq: u64,
    _marker: PhantomData<fn() -> T>,
}

impl<I, T> IterSource<I, T>
where
    I: Iterator<Item = T> + Send + 'static,
    T: Clone + Send + 'static,
{
    /// Wraps an iterator as a source of cloneable items.
    pub fn new(name: impl Into<String>, iter: impl IntoIterator<IntoIter = I>) -> Self {
        IterSource {
            name: name.into(),
            iter: iter.into_iter(),
            seq: 0,
            _marker: PhantomData,
        }
    }
}

impl<I, T> Stage for IterSource<I, T>
where
    I: Iterator<Item = T> + Send + 'static,
    T: Clone + Send + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn offers(&self) -> Typespec {
        Typespec::of::<T>()
    }
}

impl<I, T> Producer for IterSource<I, T>
where
    I: Iterator<Item = T> + Send + 'static,
    T: Clone + Send + 'static,
{
    fn pull(&mut self, ctx: &mut StageCtx<'_, '_>) -> Option<Item> {
        let v = self.iter.next()?;
        let seq = self.seq;
        self.seq += 1;
        Some(Item::cloneable(v).with_seq(seq).with_ts(ctx.now()))
    }
}

/// A typed conversion function built from a closure; `None` drops the
/// item (function style).
pub struct FnFunction<In, Out, F> {
    name: String,
    f: F,
    _marker: PhantomData<fn(In) -> Out>,
}

impl<In, Out, F> FnFunction<In, Out, F>
where
    In: Send + 'static,
    Out: Clone + Send + 'static,
    F: FnMut(In) -> Option<Out> + Send + 'static,
{
    /// Wraps a closure as a function-style component.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnFunction {
            name: name.into(),
            f,
            _marker: PhantomData,
        }
    }
}

impl<In, Out, F> Stage for FnFunction<In, Out, F>
where
    In: Send + 'static,
    Out: Clone + Send + 'static,
    F: FnMut(In) -> Option<Out> + Send + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn accepts(&self) -> Typespec {
        Typespec::of::<In>()
    }

    fn transform_spec(&self, input: &Typespec) -> Result<Typespec, TypeError> {
        Ok(input.clone().map_item(ItemType::of::<Out>()))
    }
}

impl<In, Out, F> Function for FnFunction<In, Out, F>
where
    In: Send + 'static,
    Out: Clone + Send + 'static,
    F: FnMut(In) -> Option<Out> + Send + 'static,
{
    fn convert(&mut self, item: Item) -> Option<Item> {
        // A `u64` or `PayloadBytes` moves in and out without a box, so
        // converting one allocates nothing.
        let (v, meta) = item.into_payload::<In>().ok()?;
        (self.f)(v).map(|out| {
            let mut it = Item::cloneable(out);
            it.meta = meta;
            it
        })
    }
}

/// A passive sink collecting typed payloads into a shared vector.
pub struct CollectSink<T> {
    name: String,
    out: Arc<Mutex<Vec<T>>>,
}

impl<T: Send + 'static> CollectSink<T> {
    /// Creates the sink and the shared handle its items land in.
    pub fn new(name: impl Into<String>) -> (Self, Arc<Mutex<Vec<T>>>) {
        let out = Arc::new(Mutex::new(Vec::new()));
        (
            CollectSink {
                name: name.into(),
                out: Arc::clone(&out),
            },
            out,
        )
    }
}

impl<T: Send + 'static> Stage for CollectSink<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn accepts(&self) -> Typespec {
        Typespec::of::<T>()
    }
}

impl<T: Send + 'static> Consumer for CollectSink<T> {
    fn push(&mut self, _ctx: &mut StageCtx<'_, '_>, item: Item) {
        if let Ok((v, _)) = item.into_payload::<T>() {
            self.out.lock().push(v);
        }
    }
}

/// A passive sink invoking a closure per item.
pub struct FnSink<T, F> {
    name: String,
    f: F,
    _marker: PhantomData<fn(T)>,
}

impl<T, F> FnSink<T, F>
where
    T: Send + 'static,
    F: FnMut(T, u64) + Send + 'static,
{
    /// Wraps a closure (receiving the payload and its sequence number) as
    /// a sink.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnSink {
            name: name.into(),
            f,
            _marker: PhantomData,
        }
    }
}

impl<T, F> Stage for FnSink<T, F>
where
    T: Send + 'static,
    F: FnMut(T, u64) + Send + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn accepts(&self) -> Typespec {
        Typespec::of::<T>()
    }
}

impl<T, F> Consumer for FnSink<T, F>
where
    T: Send + 'static,
    F: FnMut(T, u64) + Send + 'static,
{
    fn push(&mut self, _ctx: &mut StageCtx<'_, '_>, item: Item) {
        let seq = item.meta.seq;
        if let Ok((v, _)) = item.into_payload::<T>() {
            (self.f)(v, seq);
        }
    }
}

/// An active identity relay — a legacy-style component with its own main
/// loop (`while running { x = pull(); push(x) }`), useful for exercising
/// the coroutine glue.
pub struct ActiveRelay {
    name: String,
}

impl ActiveRelay {
    /// Creates a relay with the given diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        ActiveRelay { name: name.into() }
    }
}

impl Stage for ActiveRelay {
    fn name(&self) -> &str {
        &self.name
    }
}

impl ActiveObject for ActiveRelay {
    fn run<'a>(&'a mut self, ctx: &'a mut ActiveCtx<'_, '_>) -> ActiveRun<'a> {
        Box::pin(async move {
            while !ctx.stopping() {
                match ctx.get().await {
                    Some(item) => ctx.put(item).await,
                    None => break,
                }
            }
        })
    }
}

/// A producer-style identity relay: `pull` simply takes one item from
/// upstream (`x = prev->pull(); return x`).
pub struct RelayProducer {
    name: String,
}

impl RelayProducer {
    /// Creates a pull-style identity relay.
    pub fn new(name: impl Into<String>) -> Self {
        RelayProducer { name: name.into() }
    }
}

impl Stage for RelayProducer {
    fn name(&self) -> &str {
        &self.name
    }
}

impl Producer for RelayProducer {
    fn pull(&mut self, ctx: &mut StageCtx<'_, '_>) -> Option<Item> {
        ctx.get()
    }
}

/// A consumer-style identity relay: `push` simply forwards the item
/// (`next->push(x)`).
pub struct RelayConsumer {
    name: String,
}

impl RelayConsumer {
    /// Creates a push-style identity relay.
    pub fn new(name: impl Into<String>) -> Self {
        RelayConsumer { name: name.into() }
    }
}

impl Stage for RelayConsumer {
    fn name(&self) -> &str {
        &self.name
    }
}

impl Consumer for RelayConsumer {
    fn push(&mut self, ctx: &mut StageCtx<'_, '_>, item: Item) {
        ctx.put(item);
    }
}

// ---------------------------------------------------------------------
// The paper's defragmenter in all four styles (§3.3, Figs. 4, 6, 8)
// ---------------------------------------------------------------------

/// Joins two `Vec<u8>` halves into one (the paper's
/// `y = assemble(x1, x2)`).
fn assemble(mut x1: Vec<u8>, x2: Vec<u8>) -> Vec<u8> {
    x1.extend_from_slice(&x2);
    x1
}

fn defrag_spec_in() -> Typespec {
    Typespec::of::<Vec<u8>>()
}

/// Defragmenter in **consumer (push) style** — Fig. 4a: state between
/// invocations is kept explicitly in `saved`.
#[derive(Default)]
pub struct PushDefrag {
    saved: Option<(Vec<u8>, u64)>,
    /// Window-resize events seen (exercises control-event delivery).
    pub events_seen: u64,
}

impl PushDefrag {
    /// A fresh push-style defragmenter.
    #[must_use]
    pub fn new() -> Self {
        PushDefrag::default()
    }
}

impl Stage for PushDefrag {
    fn name(&self) -> &str {
        "defrag-push"
    }

    fn accepts(&self) -> Typespec {
        defrag_spec_in()
    }

    fn on_event(&mut self, _ctx: &mut EventCtx<'_, '_>, event: &ControlEvent) {
        if matches!(event, ControlEvent::WindowResize { .. }) {
            self.events_seen += 1;
        }
    }
}

impl Consumer for PushDefrag {
    fn push(&mut self, ctx: &mut StageCtx<'_, '_>, item: Item) {
        let seq = item.meta.seq;
        let x = item.expect::<Vec<u8>>();
        match self.saved.take() {
            Some((x1, first_seq)) => {
                let y = assemble(x1, x);
                ctx.put(Item::cloneable(y).with_seq(first_seq / 2));
            }
            None => self.saved = Some((x, seq)),
        }
    }
}

/// Defragmenter in **producer (pull) style** — Fig. 4b: no explicit state;
/// each pull simply takes two items from upstream.
#[derive(Default)]
pub struct PullDefrag;

impl PullDefrag {
    /// A fresh pull-style defragmenter.
    #[must_use]
    pub fn new() -> Self {
        PullDefrag
    }
}

impl Stage for PullDefrag {
    fn name(&self) -> &str {
        "defrag-pull"
    }

    fn accepts(&self) -> Typespec {
        defrag_spec_in()
    }
}

impl Producer for PullDefrag {
    fn pull(&mut self, ctx: &mut StageCtx<'_, '_>) -> Option<Item> {
        let first = ctx.get()?;
        let seq = first.meta.seq;
        let x1 = first.expect::<Vec<u8>>();
        let x2 = ctx.get()?.expect::<Vec<u8>>();
        Some(Item::cloneable(assemble(x1, x2)).with_seq(seq / 2))
    }
}

/// Defragmenter in **active style** — Fig. 6: a main loop mixing pulls and
/// pushes, as reused legacy code would.
#[derive(Default)]
pub struct ActiveDefrag;

impl ActiveDefrag {
    /// A fresh active-style defragmenter.
    #[must_use]
    pub fn new() -> Self {
        ActiveDefrag
    }
}

impl Stage for ActiveDefrag {
    fn name(&self) -> &str {
        "defrag-active"
    }

    fn accepts(&self) -> Typespec {
        defrag_spec_in()
    }
}

impl ActiveObject for ActiveDefrag {
    fn run<'a>(&'a mut self, ctx: &'a mut ActiveCtx<'_, '_>) -> ActiveRun<'a> {
        Box::pin(async move {
            while !ctx.stopping() {
                let Some(first) = ctx.get().await else { break };
                let seq = first.meta.seq;
                let x1 = first.expect::<Vec<u8>>();
                let Some(second) = ctx.get().await else { break };
                let x2 = second.expect::<Vec<u8>>();
                ctx.put(Item::cloneable(assemble(x1, x2)).with_seq(seq / 2))
                    .await;
            }
        })
    }
}

/// Fragmenter in **function style**: splits each input into two halves?
/// No — a function is one-to-at-most-one, so the *fragmenter* cannot be a
/// function; this is the identity-cost **function-style** stage used by
/// the style-comparison experiments (`item fct(item x)` of §3.3).
pub struct IdentityFn {
    name: String,
}

impl IdentityFn {
    /// A function-style identity stage.
    pub fn new(name: impl Into<String>) -> Self {
        IdentityFn { name: name.into() }
    }
}

impl Stage for IdentityFn {
    fn name(&self) -> &str {
        &self.name
    }
}

impl Function for IdentityFn {
    fn convert(&mut self, item: Item) -> Option<Item> {
        Some(item)
    }
}

/// Fragmenter in **consumer (push) style**: the easy direction — one
/// input, two outputs, no saved state (the dual of Fig. 4).
#[derive(Default)]
pub struct PushFrag;

impl PushFrag {
    /// A fresh push-style fragmenter.
    #[must_use]
    pub fn new() -> Self {
        PushFrag
    }
}

impl Stage for PushFrag {
    fn name(&self) -> &str {
        "frag-push"
    }

    fn accepts(&self) -> Typespec {
        defrag_spec_in()
    }
}

impl Consumer for PushFrag {
    fn push(&mut self, ctx: &mut StageCtx<'_, '_>, item: Item) {
        let seq = item.meta.seq;
        let x = item.expect::<Vec<u8>>();
        let mid = x.len() / 2;
        let (a, b) = x.split_at(mid);
        ctx.put(Item::cloneable(a.to_vec()).with_seq(seq * 2));
        ctx.put(Item::cloneable(b.to_vec()).with_seq(seq * 2 + 1));
    }
}

/// Fragmenter in **producer (pull) style**: the awkward direction — state
/// must be kept between invocations, mirroring Fig. 4a's difficulty.
#[derive(Default)]
pub struct PullFrag {
    saved: Option<(Vec<u8>, u64)>,
}

impl PullFrag {
    /// A fresh pull-style fragmenter.
    #[must_use]
    pub fn new() -> Self {
        PullFrag::default()
    }
}

impl Stage for PullFrag {
    fn name(&self) -> &str {
        "frag-pull"
    }

    fn accepts(&self) -> Typespec {
        defrag_spec_in()
    }
}

impl Producer for PullFrag {
    fn pull(&mut self, ctx: &mut StageCtx<'_, '_>) -> Option<Item> {
        if let Some((b, seq)) = self.saved.take() {
            return Some(Item::cloneable(b).with_seq(seq));
        }
        let item = ctx.get()?;
        let seq = item.meta.seq;
        let x = item.expect::<Vec<u8>>();
        let mid = x.len() / 2;
        let (a, b) = x.split_at(mid);
        self.saved = Some((b.to_vec(), seq * 2 + 1));
        Some(Item::cloneable(a.to_vec()).with_seq(seq * 2))
    }
}
