//! The section owner's code function: pump scheduling and cycle
//! execution, or the main loop of an active endpoint.

use super::coroutine::dispatch_event_to;
use super::nodes::{PullNode, PushNode};
use super::stagectx::{GetWiring, PutWiring, StageCtx};
use super::{Pulled, PushRes, RtState};
use crate::buffer::BufHandle;
use crate::events::{tags, ControlEvent, EventMsg};
use crate::graph::NodeId;
use crate::pump::{CycleOutcome, Pump, Schedule};
use crate::stage::{ActiveObject, Stage};
use mbthread::{Constraint, Ctx, Envelope, Flow, Message, Time, TimerId};

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
                // Propagate end of stream downstream and announce it.
                self.down.mark_eos(ctx, &mut self.rt);
                self.rt.broadcast(ctx, &ControlEvent::Eos);
                CycleOutcome::Eos
            }
            Pulled::Interrupted => CycleOutcome::Interrupted,
        }
    }

    /// Arms what `schedule` asks for. Returns the next cycle's constraint
    /// when that cycle is due right away; the caller then either runs it
    /// where it stands or asks for it with [`OwnerFn::send_tick`].
    fn apply_schedule(
        &mut self,
        ctx: &mut Ctx<'_>,
        schedule: Schedule,
        now: Time,
    ) -> Option<DueNow> {
        if let Some(t) = self.pending_tick.take() {
            let _ = ctx.cancel_timer(t);
        }
        self.waiting_arrival = false;
        let OwnerRole::Pump { pump } = &self.role else {
            return None;
        };
        let constraint = pump.cycle_constraint(now);
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
    fn reschedule(&mut self, ctx: &mut Ctx<'_>, schedule: Schedule, now: Time) {
        if let Some(due) = self.apply_schedule(ctx, schedule, now) {
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
            let now = ctx.now();
            let schedule = match &mut self.role {
                OwnerRole::Pump { pump } => pump.after_cycle(now, outcome),
                _ => Schedule::Stopped,
            };
            let Some(due) = self.apply_schedule(ctx, schedule, now) else {
                return;
            };
            let stay = due.0 == current && self.rt.pending_events.is_empty() && ctx.undisturbed();
            if !stay {
                Self::send_tick(ctx, due);
                return;
            }
        }
    }

    /// Runs an active endpoint's main function to completion.
    fn run_active(&mut self, ctx: &mut Ctx<'_>) {
        let rt = &mut self.rt;
        match &mut self.role {
            OwnerRole::ActiveSource { stage, .. } => {
                {
                    let mut sctx =
                        StageCtx::wired(ctx, rt, GetWiring::None, PutWiring::Tree(&mut self.down));
                    stage.run(&mut sctx);
                }
                if !rt.stopping {
                    self.down.mark_eos(ctx, rt);
                    rt.broadcast(ctx, &ControlEvent::Eos);
                }
            }
            OwnerRole::ActiveSink { stage, .. } => {
                let mut sctx =
                    StageCtx::wired(ctx, rt, GetWiring::Tree(&mut self.up), PutWiring::None);
                stage.run(&mut sctx);
            }
            OwnerRole::Pump { .. } => unreachable!("run_active on a pump section"),
        }
        self.stopped = true;
    }

    /// Processes every queued control event: owner-level handling (start,
    /// stop, pump rescheduling) followed by delivery to this thread's
    /// stages. Events queue up while data processing is in progress and
    /// are handled here, as soon as it is done (§3.2).
    fn drain(&mut self, ctx: &mut Ctx<'_>) {
        let mut budget = self.rt.pending_events.len().max(4) * 4;
        while budget > 0 {
            budget -= 1;
            let Some(msg) = self.rt.pending_events.pop_front() else {
                break;
            };
            let EventMsg { event, target } = msg;

            // Owner-level handling first.
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
                            let now = ctx.now();
                            let s = pump.on_start(now);
                            self.reschedule(ctx, s, now);
                        }
                        _ => self.run_active(ctx),
                    }
                }
                ControlEvent::Start => {}
                other => {
                    let now = ctx.now();
                    let resched = match &mut self.role {
                        OwnerRole::Pump { pump } => pump.on_event(now, other),
                        _ => None,
                    };
                    if let Some(s) = resched {
                        if self.started && !self.stopped {
                            self.reschedule(ctx, s, now);
                        }
                    }
                }
            }

            // Then deliver to the stages this thread owns (and, for active
            // endpoints not currently inside run(), the endpoint itself).
            let own: Option<(NodeId, &mut dyn Stage)> = match &mut self.role {
                OwnerRole::ActiveSource { id, stage } | OwnerRole::ActiveSink { id, stage } => {
                    Some((*id, stage.as_mut()))
                }
                OwnerRole::Pump { .. } => None,
            };
            dispatch_event_to(
                ctx,
                &mut self.rt,
                &event,
                target,
                own,
                Some(&mut self.up),
                Some(&mut self.down),
            );
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
