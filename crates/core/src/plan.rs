//! The section planner: decides which parts of a pipeline need separate
//! threads or coroutines (§3.3, Fig. 9).
//!
//! A pipeline is cut at its **passive boundaries** (buffers and passive
//! endpoints) into *sections*. Each section must contain exactly one
//! **activity owner** — a pump, an active source, or an active sink — whose
//! thread operates every stage in the section. Stages upstream of the owner
//! run in *pull mode*, stages downstream in *push mode*. A stage is invoked
//! by **direct function calls** when its style matches its mode:
//!
//! | style     | pull mode  | push mode  |
//! |-----------|------------|------------|
//! | producer  | direct     | coroutine  |
//! | consumer  | coroutine  | direct     |
//! | function  | direct     | direct     |
//! | active    | coroutine  | coroutine  |
//!
//! Everything else gets a **coroutine**: an extra kernel thread in the
//! owner's coroutine set, interacting synchronously so that activity
//! travels with the data (Fig. 5). For the paper's Fig. 9 configurations
//! this yields exactly 1 thread for a/b/c, 2 for d/g/h, and 3 for e/f —
//! verified by the integration tests and by `infopipes-bench`'s
//! `all_fig9_configs_match_the_paper`.
//!
//! A kernel thread is not always an OS thread. An active object's
//! coroutine is *polled* — a future the kernel's hand-off polls on the OS
//! thread that gives up the CPU — when every stage it calls directly runs
//! without blocking; any other coroutine, and every section owner, has an
//! OS thread of its own. The report marks each coroutine `polled` or
//! `os-thread` and states both counts per section.
//!
//! The table exists in code once: `lower_pull` and `lower_push` pick
//! the node of the section tree (`runtime::nodes`) a stage becomes, and
//! the report's [`Exec`] is read off that node. The tree the planner
//! builds is the tree the threads run: a coroutine is a *planned* node
//! until every section of the pipeline has validated, and only then does
//! launch turn planned nodes into threads in place — so a composition
//! error anywhere costs no thread. See `docs/threading.md`.

use crate::buffer::BufHandle;
use crate::error::PipeError;
use crate::graph::{GraphInner, NodeId, NodeKind};
use crate::runtime::{OwnerRole, PullNode, PushNode};
use crate::stage::Style;
use std::collections::BTreeMap;
use typespec::Typespec;

/// The direction a stage operates in, relative to its section's owner.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Upstream of the owner: items are pulled through the stage.
    Pull,
    /// Downstream of the owner: items are pushed through the stage.
    Push,
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Mode::Pull => "pull",
            Mode::Push => "push",
        })
    }
}

/// How a stage is invoked at runtime.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Exec {
    /// Plain function calls on the owner's (or enclosing coroutine's)
    /// thread.
    Direct,
    /// A coroutine: an extra thread in the section's coroutine set.
    Coroutine,
}

impl std::fmt::Display for Exec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Exec::Direct => "direct",
            Exec::Coroutine => "coroutine",
        })
    }
}

/// One stage's placement in the plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StagePlacement {
    /// Component name.
    pub name: String,
    /// Activity style ("consumer", "producer", "function", "active").
    pub style: String,
    /// Pull or push mode.
    pub mode: Mode,
    /// Direct call or coroutine.
    pub exec: Exec,
    /// The transport this stage bridges to when it sits on a planned
    /// section boundary (`scheme://addr`, set via
    /// [`Pipeline::set_transport`](crate::Pipeline::set_transport));
    /// `None` for purely local stages.
    pub transport: Option<String>,
    /// A coroutine that is polled rather than backed by an OS thread.
    pub(crate) polled: bool,
}

/// One section's thread/coroutine allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SectionReport {
    /// Name of the activity owner (pump or active endpoint).
    pub owner: String,
    /// What owns the activity: "pump", "active-source", or "active-sink".
    pub owner_kind: String,
    /// Placement of every stage in the section, source to sink.
    pub stages: Vec<StagePlacement>,
    /// Number of coroutines allocated (extra threads beyond the owner's).
    pub coroutines: usize,
}

impl SectionReport {
    /// Total kernel threads for this section (owner + coroutines).
    #[must_use]
    pub fn threads(&self) -> usize {
        1 + self.coroutines
    }

    /// The OS threads behind them: the owner's and one per coroutine that
    /// is not polled.
    pub(crate) fn os_threads(&self) -> usize {
        let backed = |p: &&StagePlacement| p.exec == Exec::Coroutine && !p.polled;
        1 + self.stages.iter().filter(backed).count()
    }
}

/// The planner's public summary: what the middleware allocated and why.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlanReport {
    /// One entry per section.
    pub sections: Vec<SectionReport>,
}

impl PlanReport {
    /// Total kernel threads allocated for the pipeline.
    #[must_use]
    pub fn total_threads(&self) -> usize {
        self.sections.iter().map(SectionReport::threads).sum()
    }
}

impl std::fmt::Display for PlanReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, s) in self.sections.iter().enumerate() {
            writeln!(
                f,
                "section {i}: owner {} ({}), {} thread(s) on {} OS thread(s)",
                s.owner,
                s.owner_kind,
                s.threads(),
                s.os_threads()
            )?;
            for p in &s.stages {
                write!(f, "  {:24} {:8} {} {}", p.name, p.style, p.mode, p.exec)?;
                if p.exec == Exec::Coroutine {
                    write!(f, " {}", if p.polled { "polled" } else { "os-thread" })?;
                }
                match &p.transport {
                    Some(t) => writeln!(f, " via {t}")?,
                    None => writeln!(f)?,
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// What the planner hands to the runtime
// ---------------------------------------------------------------------

/// One section: its activity owner and the trees that owner's thread
/// operates, coroutines still planned.
pub(crate) struct Section {
    pub(crate) role: OwnerRole,
    pub(crate) up: PullNode,
    pub(crate) down: PushNode,
}

pub(crate) struct Plan {
    /// One per entry of `report.sections`, in the same order.
    pub(crate) sections: Vec<Section>,
    pub(crate) report: PlanReport,
    /// Buffers by node, for probes and end-of-stream propagation.
    pub(crate) buffers: Vec<(NodeId, BufHandle)>,
}

// ---------------------------------------------------------------------
// Flow spec propagation (Typespec queries and start-time checking)
// ---------------------------------------------------------------------

/// Each node's offered spec, computed once per query. `None` marks a node
/// whose ancestry is being threaded: meeting it again is a cycle.
type SpecMemo = BTreeMap<NodeId, Option<Typespec>>;

/// Computes the spec of the flow offered at a node's output by threading
/// Typespecs from the sources through every transformation (§2.3).
pub(crate) fn flow_spec_at(g: &GraphInner, id: NodeId) -> Result<Typespec, PipeError> {
    flow_spec_rec(g, id, &mut SpecMemo::new())
}

/// [`flow_spec_at`] sharing `memo` with the other queries of one check, so
/// each stage's [`Stage::transform_spec`](crate::Stage::transform_spec)
/// runs once however many paths reach it (a tee's branches meeting again
/// at a buffer would otherwise double the work per diamond).
fn flow_spec_rec(g: &GraphInner, id: NodeId, memo: &mut SpecMemo) -> Result<Typespec, PipeError> {
    match memo.get(&id) {
        Some(Some(spec)) => return Ok(spec.clone()),
        Some(None) => {
            return Err(PipeError::Type(typespec::TypeError::Rejected(format!(
                "pipeline graph contains a cycle through '{}'",
                g.node(id).name
            ))))
        }
        None => {}
    }
    memo.insert(id, None);
    let preds: Vec<NodeId> = g.in_edges(id).map(|e| e.from).collect();
    let spec = match g.node(id).kind.as_ref() {
        None => return Err(PipeError::AlreadyStarted),
        Some(NodeKind::Stage(style)) => {
            let stage = style.stage();
            if preds.is_empty() {
                // A source: it offers its own spec.
                stage.offers()
            } else {
                let upstream = flow_spec_rec(g, preds[0], memo)?;
                let agreed = upstream.intersect(&stage.accepts())?;
                stage.transform_spec(&agreed).map_err(PipeError::Type)?
            }
        }
        Some(NodeKind::Pump(_) | NodeKind::Split(_)) => {
            if preds.is_empty() {
                return Err(PipeError::Dangling {
                    node: g.node(id).name.clone(),
                    missing: "an input connection".into(),
                });
            }
            flow_spec_rec(g, preds[0], memo)?
        }
        Some(NodeKind::Buffer(_)) => {
            // Merge point: all incoming flows must agree; an unfed
            // buffer (inbox) offers an unconstrained flow.
            let mut spec = Typespec::new();
            for p in preds {
                let up = flow_spec_rec(g, p, memo)?;
                spec = spec.intersect(&up)?;
            }
            spec
        }
    };
    memo.insert(id, Some(spec.clone()));
    Ok(spec)
}

// ---------------------------------------------------------------------
// The planner
// ---------------------------------------------------------------------

fn is_boundary(g: &GraphInner, id: NodeId) -> bool {
    matches!(g.node(id).kind.as_ref(), Some(NodeKind::Buffer(_)))
}

/// Whether a node can own its section's activity: a pump, or an active
/// object at either end of the pipeline (an active intermediate is a
/// coroutine, not an owner).
fn is_owner(g: &GraphInner, id: NodeId) -> bool {
    match g.node(id).kind.as_ref() {
        Some(NodeKind::Pump(_)) => true,
        Some(NodeKind::Stage(Style::Active(_))) => {
            g.in_edges(id).next().is_none() || g.out_edges(id).next().is_none()
        }
        _ => false,
    }
}

/// The pull-mode column of the style × mode table: producers and functions
/// are called directly, a consumer or an active object becomes a planned
/// coroutine owning everything further upstream. A function joins the run
/// directly upstream of it as that run's last stage, or starts one.
fn lower_pull(id: NodeId, style: Style, up: PullNode) -> PullNode {
    let (style, up) = match (style, up) {
        (Style::Function(stage), PullNode::Run { mut stages, up }) => {
            stages.push((id, stage));
            return PullNode::Run { stages, up };
        }
        other => other,
    };
    let up = Box::new(up);
    match style {
        Style::Producer(stage) => PullNode::Producer { id, stage, up },
        Style::Function(stage) => PullNode::Run {
            stages: vec![(id, stage)],
            up,
        },
        style @ (Style::Consumer(_) | Style::Active(_)) => PullNode::Planned { id, style, up },
    }
}

/// The push-mode column: consumers and functions are called directly, a
/// producer or an active object becomes a planned coroutine owning
/// everything further downstream. A function joins the run directly
/// downstream of it as that run's first stage, or starts one.
fn lower_push(id: NodeId, style: Style, down: PushNode) -> PushNode {
    let (style, down) = match (style, down) {
        (Style::Function(stage), PushNode::Run { mut stages, down }) => {
            stages.insert(0, (id, stage));
            return PushNode::Run { stages, down };
        }
        other => other,
    };
    let down = Box::new(down);
    match style {
        Style::Consumer(stage) => PushNode::Consumer { id, stage, down },
        Style::Function(stage) => PushNode::Run {
            stages: vec![(id, stage)],
            down,
        },
        style @ (Style::Producer(_) | Style::Active(_)) => PushNode::Planned { id, style, down },
    }
}

/// The report entry of the node a stage (or tee) was lowered to.
fn placement(g: &GraphInner, id: NodeId, style: &str, mode: Mode, exec: Exec) -> StagePlacement {
    StagePlacement {
        name: g.node(id).name.clone(),
        style: style.to_owned(),
        mode,
        exec,
        transport: g.node(id).transport.clone(),
        polled: false,
    }
}

/// Validates the graph and produces the build plan, consuming the node
/// implementations.
pub(crate) fn plan(g: &mut GraphInner) -> Result<Plan, PipeError> {
    if g.nodes.is_empty() {
        return Err(PipeError::Empty);
    }
    validate_arity(g)?;
    // Flow-spec check over the whole graph (every terminal node pulls the
    // check through its ancestry, each node's spec computed once).
    let mut specs = SpecMemo::new();
    for id in (0..g.nodes.len()).map(NodeId) {
        if g.out_edges(id).next().is_none() {
            let _ = flow_spec_rec(g, id, &mut specs)?;
        }
    }

    // Partition non-buffer nodes into sections (connected regions of the
    // graph with buffer-incident edges removed).
    let section_ids = partition_sections(g);

    let mut sections = Vec::new();
    let mut report = PlanReport::default();
    for ids in &section_ids {
        let (section, described) = plan_section(g, ids)?;
        sections.push(section);
        report.sections.push(described);
    }

    // Collect buffer handles (still present in the graph) and teach each
    // buffer how many writers feed it, so merge points only report end of
    // stream when every input has finished.
    let mut buffers = Vec::new();
    for (i, node) in g.nodes.iter().enumerate() {
        let id = NodeId(i);
        if let Some(NodeKind::Buffer(h)) = node.kind.as_ref() {
            let in_edges = g.in_edges(id).count();
            let external = usize::from(h.has_external_writer());
            h.set_writer_count(in_edges + external);
            buffers.push((id, h.clone()));
        }
    }

    Ok(Plan {
        sections,
        report,
        buffers,
    })
}

fn validate_arity(g: &GraphInner) -> Result<(), PipeError> {
    for (i, node) in g.nodes.iter().enumerate() {
        let id = NodeId(i);
        let ins = g.in_edges(id).count();
        let outs = g.out_edges(id).count();
        match node.kind.as_ref() {
            Some(NodeKind::Pump(_)) => {
                if ins != 1 {
                    return Err(PipeError::Dangling {
                        node: node.name.clone(),
                        missing: "an upstream connection (pumps pull from upstream)".into(),
                    });
                }
                if outs != 1 {
                    return Err(PipeError::Dangling {
                        node: node.name.clone(),
                        missing: "a downstream connection (pumps push downstream)".into(),
                    });
                }
            }
            Some(NodeKind::Split(_)) => {
                if ins != 1 {
                    return Err(PipeError::Dangling {
                        node: node.name.clone(),
                        missing: "an input connection".into(),
                    });
                }
                if outs < 2 {
                    return Err(PipeError::Dangling {
                        node: node.name.clone(),
                        missing: "at least two output branches".into(),
                    });
                }
            }
            Some(NodeKind::Stage(_)) => {
                if ins == 0 && outs == 0 && g.nodes.len() > 1 {
                    return Err(PipeError::Dangling {
                        node: node.name.clone(),
                        missing: "any connection".into(),
                    });
                }
            }
            Some(NodeKind::Buffer(_)) | None => {}
        }
    }
    Ok(())
}

fn partition_sections(g: &GraphInner) -> Vec<Vec<NodeId>> {
    let n = g.nodes.len();
    let mut seen = vec![false; n];
    let mut out = Vec::new();
    for start in 0..n {
        let id = NodeId(start);
        if seen[start] || is_boundary(g, id) {
            continue;
        }
        // BFS over non-boundary nodes.
        let mut component = Vec::new();
        let mut queue = vec![id];
        seen[start] = true;
        while let Some(cur) = queue.pop() {
            component.push(cur);
            for e in g.edges.iter() {
                let next = if e.from == cur {
                    e.to
                } else if e.to == cur {
                    e.from
                } else {
                    continue;
                };
                if !seen[next.0] && !is_boundary(g, next) {
                    seen[next.0] = true;
                    queue.push(next);
                }
            }
        }
        component.sort();
        out.push(component);
    }
    out
}

fn take_style(g: &mut GraphInner, id: NodeId) -> Style {
    match g.nodes[id.0].kind.take() {
        Some(NodeKind::Stage(s)) => s,
        other => unreachable!(
            "expected stage at {id}, found {:?}",
            other.map(|k| k.kind_name())
        ),
    }
}

fn plan_section(g: &mut GraphInner, ids: &[NodeId]) -> Result<(Section, SectionReport), PipeError> {
    let names = |ids: &[NodeId]| ids.iter().map(|&id| g.node(id).name.clone()).collect();
    // Identify the activity owner.
    let owners: Vec<NodeId> = ids.iter().copied().filter(|&id| is_owner(g, id)).collect();
    let owner_id = match owners[..] {
        [] => {
            return Err(PipeError::NoActivity {
                section: names(ids),
            })
        }
        [one] => one,
        _ => {
            return Err(PipeError::MultipleActivity {
                owners: names(&owners),
            })
        }
    };

    // An active source has nothing upstream and an active sink nothing
    // downstream, so the owner's edges say where each side starts.
    let up_start = g.in_edges(owner_id).next().map(|e| e.from);
    let down_start = g.out_edges(owner_id).next().map(|e| e.to);
    let mut stages = Vec::new();
    let up = build_pull(g, up_start, &mut stages)?;
    let down = match down_start {
        None => PushNode::End,
        Some(first) => build_push(g, first, &mut stages)?,
    };

    let role = match g.nodes[owner_id.0].kind.take() {
        Some(NodeKind::Pump(pump)) => OwnerRole::Pump { pump },
        Some(NodeKind::Stage(Style::Active(stage))) => {
            let id = owner_id;
            if g.in_edges(id).next().is_none() {
                OwnerRole::ActiveSource { id, stage }
            } else {
                OwnerRole::ActiveSink { id, stage }
            }
        }
        other => unreachable!(
            "owner {owner_id} is not a pump or active endpoint: {:?}",
            other.map(|k| k.kind_name())
        ),
    };

    let report = SectionReport {
        owner: g.node(owner_id).name.clone(),
        owner_kind: role.kind_name().to_owned(),
        coroutines: stages.iter().filter(|p| p.exec == Exec::Coroutine).count(),
        stages,
    };
    Ok((Section { role, up, down }, report))
}

/// Builds the pull-side chain starting at `start` (the node immediately
/// upstream of the owner) and walking to the boundary.
fn build_pull(
    g: &mut GraphInner,
    start: Option<NodeId>,
    placements: &mut Vec<StagePlacement>,
) -> Result<PullNode, PipeError> {
    // Collect the chain owner-adjacent first.
    let mut chain = Vec::new();
    let mut cur = start;
    let mut built = PullNode::Origin;
    while let Some(id) = cur {
        match g.node(id).kind.as_ref() {
            Some(NodeKind::Buffer(h)) => {
                built = PullNode::Buffer(h.clone());
                break;
            }
            Some(NodeKind::Split(_)) => {
                return Err(PipeError::TeeInPullPath {
                    tee: g.node(id).name.clone(),
                });
            }
            Some(NodeKind::Stage(_)) => {
                chain.push(id);
                cur = g.in_edges(id).next().map(|e| e.from);
            }
            Some(NodeKind::Pump(_)) => {
                unreachable!("second pump in section should have been caught")
            }
            None => return Err(PipeError::AlreadyStarted),
        }
    }
    // Fold from the boundary inward; the placements then read source to
    // owner.
    for &id in chain.iter().rev() {
        let style = take_style(g, id);
        let style_name = style.style_name();
        built = lower_pull(id, style, built);
        placements.push(StagePlacement {
            polled: built.polled(),
            ..placement(g, id, style_name, Mode::Pull, built.exec())
        });
    }
    Ok(built)
}

/// Builds the push-side tree rooted at `id` (the node immediately
/// downstream of the owner).
fn build_push(
    g: &mut GraphInner,
    id: NodeId,
    placements: &mut Vec<StagePlacement>,
) -> Result<PushNode, PipeError> {
    match g.node(id).kind.as_ref() {
        Some(NodeKind::Buffer(h)) => Ok(PushNode::Buffer(h.clone())),
        Some(NodeKind::Split(_)) => {
            let branch_heads: Vec<NodeId> = g.out_edges(id).map(|e| e.to).collect();
            let Some(NodeKind::Split(kind)) = g.nodes[id.0].kind.take() else {
                unreachable!("split checked above")
            };
            placements.push(placement(g, id, kind.kind_name(), Mode::Push, Exec::Direct));
            let branches = branch_heads
                .into_iter()
                .map(|head| build_push(g, head, placements))
                .collect::<Result<_, _>>()?;
            Ok(PushNode::Split { kind, branches })
        }
        Some(NodeKind::Stage(_)) => {
            let next = g.out_edges(id).next().map(|e| e.to);
            let style = take_style(g, id);
            // The stage reads before what follows it; its node exists only
            // once what follows is built, so `exec` is filled in then.
            let slot = placements.len();
            placements.push(placement(
                g,
                id,
                style.style_name(),
                Mode::Push,
                Exec::Direct,
            ));
            let down = match next {
                None => PushNode::End,
                Some(n) => build_push(g, n, placements)?,
            };
            let node = lower_push(id, style, down);
            placements[slot].exec = node.exec();
            placements[slot].polled = node.polled();
            Ok(node)
        }
        Some(NodeKind::Pump(_)) => unreachable!("second pump in section should have been caught"),
        None => Err(PipeError::AlreadyStarted),
    }
}

/// Computes each stage's nearest stage neighbours (skipping pumps,
/// buffers, and tees), for adjacent-component control events (§2.2).
pub(crate) fn compute_neighbors(
    g: &GraphInner,
) -> std::collections::HashMap<NodeId, (Option<NodeId>, Vec<NodeId>)> {
    fn nearest_up(g: &GraphInner, from: NodeId) -> Option<NodeId> {
        let mut cur = g.in_edges(from).next()?.from;
        loop {
            if matches!(g.node(cur).kind.as_ref(), Some(NodeKind::Stage(_))) {
                return Some(cur);
            }
            cur = g.in_edges(cur).next()?.from;
        }
    }
    fn nearest_down(g: &GraphInner, from: NodeId, acc: &mut Vec<NodeId>) {
        for e in g.out_edges(from) {
            if matches!(g.node(e.to).kind.as_ref(), Some(NodeKind::Stage(_))) {
                acc.push(e.to);
            } else {
                nearest_down(g, e.to, acc);
            }
        }
    }
    let mut out = std::collections::HashMap::new();
    for i in 0..g.nodes.len() {
        let id = NodeId(i);
        if !matches!(g.node(id).kind.as_ref(), Some(NodeKind::Stage(_))) {
            continue;
        }
        let up = nearest_up(g, id);
        let mut downs = Vec::new();
        nearest_down(g, id, &mut downs);
        out.insert(id, (up, downs));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty() {
        assert_eq!(Mode::Pull.to_string(), "pull");
        assert_eq!(Exec::Coroutine.to_string(), "coroutine");
        let report = PlanReport {
            sections: vec![SectionReport {
                owner: "pump".into(),
                owner_kind: "pump".into(),
                stages: vec![StagePlacement {
                    name: "dec".into(),
                    style: "function".into(),
                    mode: Mode::Push,
                    exec: Exec::Direct,
                    transport: Some("tcp://10.0.0.7:4000".into()),
                    polled: false,
                }],
                coroutines: 0,
            }],
        };
        assert_eq!(report.total_threads(), 1);
        assert!(report.to_string().contains("pump"));
        assert!(report.to_string().contains("dec"));
        assert!(report.to_string().contains("via tcp://10.0.0.7:4000"));
    }
}
