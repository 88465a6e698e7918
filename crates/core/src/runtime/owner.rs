//! The section owner's code function: pump scheduling and cycle
//! execution, or the main loop of an active endpoint.

use super::coroutine::dispatch_event_to;
use super::nodes::{PullNode, PushNode};
use super::stagectx::{ActiveCtx, GetWiring, PutWiring, StageCtx};
use super::{Pulled, PushRes, RtState};
use crate::buffer::BufHandle;
use crate::events::{tags, ControlEvent, EventMsg, EventTarget};
use crate::graph::NodeId;
use crate::pump::{CycleOutcome, Pump, Schedule};
use crate::stage::{ActiveObject, Stage};
use mbthread::{block_on, Constraint, Ctx, Envelope, Flow, Message, TimerId};

/// Which kind of activity owner runs this section; built by the planner.
pub(crate) enum OwnerRole {
    Pump {
        pump: Box<dyn Pump>,
    },
    ActiveSource {
        id: NodeId,
        stage: Box<dyn ActiveObject>,
    },
    ActiveSink {
        id: NodeId,
        stage: Box<dyn ActiveObject>,
    },
}

impl OwnerRole {
    /// The kind as plan reports name it.
    pub(crate) fn kind_name(&self) -> &'static str {
        match self {
            OwnerRole::Pump { .. } => "pump",
            OwnerRole::ActiveSource { .. } => "active-source",
            OwnerRole::ActiveSink { .. } => "active-sink",
        }
    }

    /// An active endpoint's own stage; a pump has none.
    fn active_stage(&mut self) -> Option<(NodeId, &mut dyn Stage)> {
        match self {
            OwnerRole::ActiveSource { id, stage } | OwnerRole::ActiveSink { id, stage } => {
                Some((*id, stage.as_mut()))
            }
            OwnerRole::Pump { .. } => None,
        }
    }
}

/// The next cycle is due right away, under this constraint.
struct DueNow(Option<Constraint>);

pub(crate) struct OwnerFn {
    pub(crate) role: OwnerRole,
    pub(crate) up: PullNode,
    pub(crate) down: PushNode,
    pub(crate) rt: RtState,
    /// The owner's nearest upstream buffer (within its direct segment),
    /// used for `OnArrival` parking.
    pub(crate) arrival_buf: Option<BufHandle>,
    pub(crate) started: bool,
    pub(crate) stopped: bool,
    pub(crate) pending_tick: Option<TimerId>,
    pub(crate) waiting_arrival: bool,
}

impl OwnerFn {
    pub(crate) fn new(role: OwnerRole, up: PullNode, down: PushNode, rt: RtState) -> OwnerFn {
        let arrival_buf = up.nearest_buffer();
        OwnerFn {
            role,
            up,
            down,
            rt,
            arrival_buf,
            started: false,
            stopped: false,
            pending_tick: None,
            waiting_arrival: false,
        }
    }

    /// Runs one pump cycle: pull one item from upstream, push it through
    /// the downstream tree.
    fn cycle(&mut self, ctx: &mut Ctx<'_>) -> CycleOutcome {
        match self.up.pull(ctx, &mut self.rt) {
            Pulled::Item(item) => {
                self.rt.items_moved += 1;
                match self.down.push(ctx, &mut self.rt, item) {
                    PushRes::Ok => CycleOutcome::Moved,
                    PushRes::Interrupted => CycleOutcome::Interrupted,
                }
            }
            Pulled::Empty => CycleOutcome::UpstreamEmpty,
            Pulled::Eos => {
                self.section_ended(ctx);
                CycleOutcome::Eos
            }
            Pulled::Interrupted => CycleOutcome::Interrupted,
        }
    }

    /// Arms what `schedule` asks for. Returns the next cycle's constraint
    /// when that cycle is due right away; the caller then either runs it
    /// where it stands or asks for it with [`OwnerFn::send_tick`].
    fn apply_schedule(&mut self, ctx: &mut Ctx<'_>, schedule: Schedule) -> Option<DueNow> {
        if let Some(t) = self.pending_tick.take() {
            let _ = ctx.cancel_timer(t);
        }
        self.waiting_arrival = false;
        let OwnerRole::Pump { pump } = &self.role else {
            return None;
        };
        let constraint = pump.cycle_constraint();
        let due_now = match schedule {
            Schedule::Stopped => {
                self.stopped = true;
                false
            }
            Schedule::At(t) => {
                self.pending_tick = Some(ctx.set_timer(t, Message::signal(tags::TICK), constraint));
                false
            }
            Schedule::Immediately => true,
            // Without a buffer boundary in the direct segment a coroutine
            // or passive source blocks instead, so the cycle may as well
            // start; with one, it may when data is already present.
            Schedule::OnArrival => {
                self.waiting_arrival = self
                    .arrival_buf
                    .as_ref()
                    .is_some_and(|buf| buf.watch_arrival(ctx.id()));
                !self.waiting_arrival
            }
        };
        due_now.then_some(DueNow(constraint))
    }

    /// Asks for the next cycle through the main loop: whatever waits in
    /// the mailbox is received first, and a more urgent thread runs first.
    fn send_tick(ctx: &mut Ctx<'_>, DueNow(constraint): DueNow) {
        let me = ctx.id();
        let _ = ctx.send_with(me, Message::signal(tags::TICK), constraint);
    }

    /// [`OwnerFn::apply_schedule`] from outside a cycle (start, a
    /// rescheduling event): a cycle due right away goes through the main
    /// loop, behind the events still to be delivered.
    fn reschedule(&mut self, ctx: &mut Ctx<'_>, schedule: Schedule) {
        if let Some(due) = self.apply_schedule(ctx, schedule) {
            Self::send_tick(ctx, due);
        }
    }

    /// Runs pump cycles for as long as each is due right after the one
    /// before and nothing needs the thread in between: no control event to
    /// handle (they are handled between items, §3.2), no message to
    /// receive, no more urgent thread to run. When something does, the
    /// next cycle is asked for with a `TICK` and the main loop takes over;
    /// so it does when the next cycle carries another constraint than
    /// `current`, that of the message being processed, which only a
    /// received message replaces.
    fn run_cycles(&mut self, ctx: &mut Ctx<'_>, current: Option<Constraint>) {
        while self.started && !self.stopped && !self.rt.stopping {
            let outcome = self.cycle(ctx);
            let schedule = match &mut self.role {
                OwnerRole::Pump { pump } => pump.after_cycle(&|| ctx.now(), outcome),
                _ => Schedule::Stopped,
            };
            let Some(due) = self.apply_schedule(ctx, schedule) else {
                return;
            };
            let stay = due.0 == current && self.rt.pending_events.is_empty() && ctx.undisturbed();
            if !stay {
                Self::send_tick(ctx, due);
                return;
            }
        }
    }

    /// The end of the section's stream: its stages hear `Eos` behind the
    /// events already queued, what lies below is end-marked, and the
    /// pipeline's external subscribers hear one `Eos`.
    fn section_ended(&mut self, ctx: &mut Ctx<'_>) {
        self.rt
            .deliver(ctx, ctx.id(), &ControlEvent::Eos, EventTarget::Broadcast);
        self.drain(ctx);
        self.down.mark_eos(ctx, &mut self.rt);
        let listeners = self.rt.shared.routing.lock().listeners.clone();
        for t in listeners {
            self.rt
                .deliver(ctx, t, &ControlEvent::Eos, EventTarget::Broadcast);
        }
    }

    /// Runs an active endpoint's main function to completion on this OS
    /// thread. An endpoint ends its stream by returning, unless it was
    /// stopped.
    fn run_active(&mut self, ctx: &mut Ctx<'_>) {
        let (stage, get, put) = match &mut self.role {
            OwnerRole::ActiveSource { stage, .. } => {
                (stage, GetWiring::None, PutWiring::Tree(&mut self.down))
            }
            OwnerRole::ActiveSink { stage, .. } => {
                (stage, GetWiring::Tree(&mut self.up), PutWiring::None)
            }
            OwnerRole::Pump { .. } => unreachable!("run_active on a pump section"),
        };
        let mut actx = ActiveCtx(StageCtx::wired(ctx, &mut self.rt, get, put));
        block_on(|| stage.run(&mut actx));
        if !actx.stopping() {
            self.section_ended(ctx);
        }
        self.stopped = true;
    }

    /// Processes every queued control event: delivery to this thread's
    /// stages first, so they hear `Start` before an active endpoint runs,
    /// then owner-level handling (start, stop, pump rescheduling). Events
    /// queue up while data is processed and are handled here (§3.2).
    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        let mut budget = self.rt.pending_events.len().max(4) * 4;
        while budget > 0 {
            budget -= 1;
            let Some(msg) = self.rt.pending_events.pop_front() else {
                break;
            };
            let EventMsg { event, target } = msg;
            dispatch_event_to(
                ctx,
                &mut self.rt,
                &event,
                target,
                self.role.active_stage(),
                Some(&mut self.up),
                Some(&mut self.down),
            );
            match &event {
                ControlEvent::Stop => {
                    self.rt.stopping = true;
                    if let Some(t) = self.pending_tick.take() {
                        let _ = ctx.cancel_timer(t);
                    }
                    self.stopped = true;
                }
                ControlEvent::Start if !self.started => {
                    self.started = true;
                    match &mut self.role {
                        OwnerRole::Pump { pump } => {
                            let s = pump.on_start(ctx.now());
                            self.reschedule(ctx, s);
                        }
                        _ => self.run_active(ctx),
                    }
                }
                ControlEvent::Start => {}
                other => {
                    let resched = match &mut self.role {
                        OwnerRole::Pump { pump } => pump.on_event(ctx.now(), other),
                        _ => None,
                    };
                    if let Some(s) = resched {
                        if self.started && !self.stopped {
                            self.reschedule(ctx, s);
                        }
                    }
                }
            }
        }
    }
}

impl mbthread::CodeFn for OwnerFn {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, mut env: Envelope) -> Flow {
        match env.tag() {
            t if t == tags::CTRL => {
                if let Some(msg) = env.message_mut().take_body::<EventMsg>() {
                    self.rt.pending_events.push_back(msg);
                }
            }
            t if t == tags::TICK => {
                self.run_cycles(ctx, env.constraint());
            }
            t if t == tags::ARRIVAL && self.waiting_arrival => {
                self.waiting_arrival = false;
                self.run_cycles(ctx, env.constraint());
            }
            // Otherwise: a stray wakeup from an earlier blocking wait.
            _ => { /* SPACE and other stray wakeups are harmless */ }
        }
        self.drain(ctx);
        Flow::Continue
    }
}
