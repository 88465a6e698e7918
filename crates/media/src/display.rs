//! The display sink and the resizer of the paper's examples.

use crate::frame::RawFrame;
use crate::stats::TimingStats;
use infopipes::{Consumer, ControlEvent, EventCtx, Function, Item, ItemType, Stage, StageCtx};
use parking_lot::Mutex;
use std::sync::Arc;
use typespec::Typespec;

/// Statistics collected by a [`DisplaySink`].
#[derive(Clone, Debug, Default)]
pub struct DisplayStats {
    /// Arrival timing (presentation jitter).
    pub timing: TimingStats,
    /// Sequence numbers presented, in order.
    pub presented: Vec<u64>,
}

impl DisplayStats {
    /// Frames presented.
    #[must_use]
    pub fn count(&self) -> usize {
        self.presented.len()
    }
}

/// A passive video display: records when each frame is presented, for the
/// jitter experiments (Fig. 1's motivation for the jitter buffer).
pub struct DisplaySink {
    stats: Arc<Mutex<DisplayStats>>,
}

impl DisplaySink {
    /// Creates the display and a shared handle on its statistics.
    #[must_use]
    pub fn new() -> (DisplaySink, Arc<Mutex<DisplayStats>>) {
        let stats = Arc::new(Mutex::new(DisplayStats::default()));
        (
            DisplaySink {
                stats: Arc::clone(&stats),
            },
            stats,
        )
    }
}

impl Stage for DisplaySink {
    fn name(&self) -> &str {
        "video-display"
    }

    fn accepts(&self) -> Typespec {
        Typespec::with_item_type(ItemType::of::<RawFrame>()).offering_event("window-resize")
    }
}

impl Consumer for DisplaySink {
    fn push(&mut self, ctx: &mut StageCtx<'_, '_>, item: Item) {
        let frame = item.expect::<RawFrame>();
        let mut stats = self.stats.lock();
        stats.timing.record(ctx.now().as_micros());
        stats.presented.push(frame.seq);
    }
}

/// The paper's resizing component (§2.2): scales frames to the current
/// window size, which it learns from `WindowResize` control events sent
/// by the display.
pub struct Resizer {
    width: u32,
    height: u32,
    /// Resize events handled (observable for the control-event tests).
    resizes: Arc<Mutex<u32>>,
}

impl Resizer {
    /// Creates a resizer with an initial target size and a counter handle
    /// for observed resize events.
    #[must_use]
    pub fn new(width: u32, height: u32) -> (Resizer, Arc<Mutex<u32>>) {
        let resizes = Arc::new(Mutex::new(0));
        (
            Resizer {
                width,
                height,
                resizes: Arc::clone(&resizes),
            },
            resizes,
        )
    }
}

impl Stage for Resizer {
    fn name(&self) -> &str {
        "resizer"
    }

    fn accepts(&self) -> Typespec {
        // The resizer *requires* its peers to deliver window-resize events
        // (§2.3's event-capability checking).
        Typespec::with_item_type(ItemType::of::<RawFrame>()).requiring_event("window-resize")
    }

    fn on_event(&mut self, _ctx: &mut EventCtx<'_, '_>, event: &ControlEvent) {
        if let ControlEvent::WindowResize { width, height } = event {
            self.width = *width;
            self.height = *height;
            *self.resizes.lock() += 1;
        }
    }
}

impl Function for Resizer {
    fn convert(&mut self, mut item: Item) -> Option<Item> {
        if let Some(frame) = item.payload_mut::<RawFrame>() {
            frame.width = self.width;
            frame.height = self.height;
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resizer_applies_current_window_size() {
        let (mut r, resizes) = Resizer::new(320, 200);
        let item = Item::cloneable(RawFrame {
            seq: 0,
            pts_us: 0,
            width: 640,
            height: 480,
            checksum: 0,
        });
        let out = r.convert(item).unwrap();
        let f = out.expect::<RawFrame>();
        assert_eq!((f.width, f.height), (320, 200));
        assert_eq!(*resizes.lock(), 0);
    }

    #[test]
    fn resizer_spec_requires_the_resize_event() {
        let (r, _) = Resizer::new(1, 1);
        let needs = r.accepts();
        assert!(needs.events_required().any(|e| e == "window-resize"));
        // The display offers it.
        let (d, _) = DisplaySink::new();
        assert!(d.accepts().events_offered().any(|e| e == "window-resize"));
    }
}
