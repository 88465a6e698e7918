//! Launching a planned pipeline and controlling it while it runs.

use super::owner::{OwnerFn, OwnerRole};
use super::{Routing, RtState, Shared};
use crate::buffer::BufferProbe;
use crate::error::PipeError;
use crate::events::{tags, ControlEvent, EventMsg, EventTarget};
use crate::graph::StageId;
use crate::plan::{Plan, PlanReport};
use mbthread::{ExternalPort, Kernel, MatchSpec, Priority, SpawnOptions};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Spawns all section and coroutine threads for a plan. Every section of
/// the plan has validated by now, so a composition error spawns nothing.
pub(crate) fn launch(
    kernel: Kernel,
    name: String,
    plan: Plan,
    neighbors: HashMap<StageId, (Option<StageId>, Vec<StageId>)>,
) -> Result<RunningPipeline, PipeError> {
    let shared = Arc::new(Shared {
        kernel: kernel.clone(),
        routing: Mutex::new(Routing {
            neighbors,
            ..Routing::default()
        }),
        name: name.clone(),
    });

    let mut probes = BTreeMap::new();
    for (_, handle) in &plan.buffers {
        probes.insert(
            handle.name().to_owned(),
            BufferProbe {
                handle: handle.clone(),
            },
        );
    }

    let report = plan.report;
    for (mut section, described) in plan.sections.into_iter().zip(&report.sections) {
        let priority = match &section.role {
            OwnerRole::Pump { pump } => pump.thread_priority(),
            _ => Priority::NORMAL,
        };
        // The planned coroutines become threads in place; what is left of
        // the tree is what the owner's thread calls directly.
        let mut local_stages = Vec::new();
        section
            .up
            .spawn_coroutines(&shared, priority, &mut local_stages)?;
        section
            .down
            .spawn_coroutines(&shared, priority, &mut local_stages)?;
        if let OwnerRole::ActiveSource { id, .. } | OwnerRole::ActiveSink { id, .. } = &section.role
        {
            local_stages.push(*id);
        }
        let rt = RtState::new(Arc::clone(&shared));
        let owner = OwnerFn::new(section.role, section.up, section.down, rt);
        let options = SpawnOptions::new(format!("section-{}", described.owner)).priority(priority);
        let tid = kernel.spawn(options, owner)?;
        shared.routing.lock().enroll(tid, local_stages);
    }

    let port = kernel.external(&format!("pipeline-{name}"));
    Ok(RunningPipeline {
        shared,
        report,
        probes,
        port,
    })
}

/// A started pipeline: the handle for sending control events, reading the
/// thread-allocation report, and probing buffers.
///
/// Created by [`Pipeline::start`](crate::Pipeline::start). The pipeline
/// does not flow until [`ControlEvent::Start`] is sent (the paper's
/// `send_event(START)`, §4): use [`RunningPipeline::start_flow`].
pub struct RunningPipeline {
    shared: Arc<Shared>,
    report: PlanReport,
    probes: BTreeMap<String, BufferProbe>,
    port: ExternalPort,
}

impl RunningPipeline {
    /// The middleware's thread/coroutine allocation, per section.
    #[must_use]
    pub fn report(&self) -> &PlanReport {
        &self.report
    }

    /// The kernel the pipeline runs on.
    #[must_use]
    pub fn kernel(&self) -> &Kernel {
        &self.shared.kernel
    }

    /// Broadcasts a control event to every component from outside the
    /// kernel.
    ///
    /// # Errors
    ///
    /// [`PipeError::Kernel`] if the kernel is shutting down.
    pub fn send_event(&self, event: ControlEvent) -> Result<(), PipeError> {
        let (threads, listeners) = {
            let routing = self.shared.routing.lock();
            (routing.threads.clone(), routing.listeners.clone())
        };
        let mut delivered = false;
        for t in threads.into_iter().chain(listeners) {
            let (msg, constraint) = EventMsg::message(&event, EventTarget::Broadcast);
            delivered |= self.port.send_with(t, msg, constraint).is_ok();
        }
        if delivered {
            Ok(())
        } else {
            Err(PipeError::Kernel("no pipeline thread reachable".into()))
        }
    }

    /// Starts the flow (broadcasts [`ControlEvent::Start`]).
    ///
    /// # Errors
    ///
    /// [`PipeError::Kernel`] if the kernel is shutting down.
    pub fn start_flow(&self) -> Result<(), PipeError> {
        self.send_event(ControlEvent::Start)
    }

    /// Stops the flow (broadcasts [`ControlEvent::Stop`]); blocked
    /// operations abort and pumps cease scheduling.
    ///
    /// # Errors
    ///
    /// [`PipeError::Kernel`] if the kernel is shutting down.
    pub fn stop(&self) -> Result<(), PipeError> {
        self.send_event(ControlEvent::Stop)
    }

    /// A probe on the named buffer.
    #[must_use]
    pub fn probe(&self, buffer_name: &str) -> Option<BufferProbe> {
        self.probes.get(buffer_name).cloned()
    }

    /// Subscribes to broadcast control events, and to one
    /// [`ControlEvent::Eos`] per section whose stream ends.
    #[must_use]
    pub fn subscribe(&self) -> EventSubscription {
        let port = self.shared.kernel.external("pipeline-listener");
        self.shared.routing.lock().listeners.push(port.id());
        EventSubscription {
            shared: Arc::clone(&self.shared),
            port,
        }
    }

    /// Blocks the calling (non-kernel) thread until the kernel is idle.
    /// Under a virtual clock this means the pipeline has run to
    /// completion or is waiting on external input.
    pub fn wait_quiescent(&self) {
        self.shared.kernel.wait_quiescent();
    }
}

impl std::fmt::Debug for RunningPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunningPipeline")
            .field("name", &self.shared.name)
            .field("threads", &self.report.total_threads())
            .finish()
    }
}

/// A subscription to the pipeline's broadcast control events.
pub struct EventSubscription {
    shared: Arc<Shared>,
    port: ExternalPort,
}

impl EventSubscription {
    /// Waits up to `timeout` (wall clock) for the next broadcast event.
    #[must_use]
    pub fn recv_timeout(&self, timeout: Duration) -> Option<ControlEvent> {
        let spec = MatchSpec::Tags(vec![tags::CTRL]);
        let mut env = self.port.recv_timeout(&spec, timeout)?;
        env.message_mut().take_body::<EventMsg>().map(|m| m.event)
    }

    /// Waits up to `timeout` for an event of the given kind (e.g. `"eos"`);
    /// returns whether it arrived.
    #[must_use]
    pub fn wait_for(&self, kind: &str, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            match self.recv_timeout(deadline - now) {
                Some(ev) if ev.kind_name() == kind => return true,
                Some(_) => {}
                None => return false,
            }
        }
    }
}

impl Drop for EventSubscription {
    fn drop(&mut self) {
        let mut routing = self.shared.routing.lock();
        let id = self.port.id();
        routing.listeners.retain(|&t| t != id);
    }
}

impl std::fmt::Debug for EventSubscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSubscription").finish()
    }
}
