//! Executing an allocation on the simulated cluster.
//!
//! The evaluation metric is the paper's **processing time** `PT = t_s − t_c`
//! (§V-C): from experiment start (`t_c`) to the instant the industry
//! decision is made (`t_s`). The simulated timeline of one round is:
//!
//! 1. the controller partitions the application (`partition_overhead_s`);
//! 2. each allocated task's input ships over the worker's star link
//!    (links are half-duplex FIFO: inputs and results serialise);
//! 3. the worker computes (non-preemptive FIFO per node);
//! 4. the (small) result ships back;
//! 5. once every allocated task's result has arrived, the controller
//!    aggregates the decision (`decision_overhead_s`).
//!
//! Tasks allocated to the controller itself skip the network.

use crate::cluster::{Cluster, NetTopology};
use crate::event::{CalendarQueue, IndexedHeap};
use crate::faults::{FaultKind, FaultSchedule};
use crate::network::{MediumMode, MeshNetwork, Routes};
use crate::node::NodeId;
use crate::trace::{FailureKind, FailureRecord};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

/// A task as the simulator sees it: pure demands, no learning semantics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTask {
    /// Input payload shipped to the worker, in bits.
    pub input_bits: f64,
    /// Result payload shipped back, in bits.
    pub result_bits: f64,
    /// Abstract resource demand (`v_j` of Eq. 4) — checked, not timed.
    pub resource_demand: f64,
}

impl SimTask {
    /// Creates a task, validating non-negative finite demands.
    ///
    /// # Errors
    ///
    /// [`SimError::BadTask`] on invalid values.
    pub fn new(input_bits: f64, result_bits: f64, resource_demand: f64) -> Result<Self, SimError> {
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        if !(ok(input_bits) && ok(result_bits) && ok(resource_demand)) {
            return Err(SimError::BadTask { input_bits, result_bits, resource_demand });
        }
        Ok(Self { input_bits, result_bits, resource_demand })
    }
}

/// Maps each task to a worker (or leaves it unscheduled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeAssignment {
    assignment: Vec<Option<NodeId>>,
}

impl NodeAssignment {
    /// All tasks unscheduled.
    pub fn empty(num_tasks: usize) -> Self {
        Self { assignment: vec![None; num_tasks] }
    }

    /// Builds from an explicit vector.
    pub fn from_vec(assignment: Vec<Option<NodeId>>) -> Self {
        Self { assignment }
    }

    /// Number of tasks covered.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// `true` when covering zero tasks.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Node of task `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn node_of(&self, i: usize) -> Option<NodeId> {
        self.assignment[i]
    }

    /// Assigns task `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn assign(&mut self, i: usize, node: Option<NodeId>) {
        self.assignment[i] = node;
    }

    /// Number of scheduled tasks.
    pub fn scheduled_count(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_some()).count()
    }
}

/// Controller-side retry policy for fault-aware runs
/// ([`simulate_with_faults`]); plain [`simulate`] ignores it.
///
/// The controller cannot observe a crash directly — it learns of lost work
/// when a per-attempt heartbeat timeout fires. Each dispatched attempt arms
/// a timer of `timeout_factor ×` the attempt's nominal processing time
/// (input transfer + compute + result return at advertised rates, floored
/// by `min_timeout_s`); a timer firing on a healthy in-flight attempt
/// simply re-arms, so fault-free runs are untouched. A timer firing on a
/// dead attempt triggers re-dispatch after an exponential backoff
/// (`backoff_base_s × 2^(attempt−1)`), up to `max_retries` retries.
///
/// Re-dispatch target selection is fully deterministic: candidates are
/// ranked by availability preference score when one is supplied
/// ([`simulate_with_faults_biased`]), then by least cumulative dispatched
/// nominal compute-seconds, and remaining ties break by **ascending node
/// id** — so recovery-policy comparisons are never confounded by tie
/// order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Heartbeat timeout as a multiple of the attempt's nominal PT.
    pub timeout_factor: f64,
    /// Re-dispatches allowed after the first attempt (0 = fail on first
    /// loss).
    pub max_retries: usize,
    /// Backoff before the first re-dispatch; doubles on each further retry.
    pub backoff_base_s: f64,
    /// Floor on the heartbeat timeout (guards zero-cost tasks; must be
    /// positive).
    pub min_timeout_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { timeout_factor: 3.0, max_retries: 2, backoff_base_s: 0.05, min_timeout_s: 0.05 }
    }
}

impl RetryPolicy {
    /// A policy that never re-dispatches: first loss fails the task. Used
    /// as the no-recovery baseline in the fault sweep.
    pub fn no_retry() -> Self {
        Self { max_retries: 0, ..Self::default() }
    }

    fn validate(&self) -> Result<(), SimError> {
        let ok = self.timeout_factor.is_finite()
            && self.timeout_factor >= 0.0
            && self.backoff_base_s.is_finite()
            && self.backoff_base_s >= 0.0
            && self.min_timeout_s.is_finite()
            && self.min_timeout_s > 0.0;
        if ok {
            Ok(())
        } else {
            Err(SimError::BadRetryPolicy {
                timeout_factor: self.timeout_factor,
                backoff_base_s: self.backoff_base_s,
                min_timeout_s: self.min_timeout_s,
            })
        }
    }
}

/// Controller-side preference scores for re-dispatch target selection:
/// when an orphaned attempt must be re-placed, candidates with a strictly
/// higher score win before the least-loaded rule applies (score ties fall
/// back to load, then ascending node id). The proactive controller feeds
/// learned per-node survival probabilities here so orphans land on the
/// most-available node rather than merely the least-loaded one. An empty
/// preference set reproduces [`simulate_with_faults`] exactly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RedispatchPrefs {
    /// Score per node id (`scores[id]`); nodes beyond the vector score 0.
    scores: Vec<f64>,
}

impl RedispatchPrefs {
    /// No preferences: selection is purely least-loaded (lowest id ties).
    pub fn none() -> Self {
        Self::default()
    }

    /// Preference scores indexed by node id. Non-finite scores are
    /// rejected at [`simulate_with_faults_biased`] validation.
    pub fn from_scores(scores: Vec<f64>) -> Self {
        Self { scores }
    }

    /// The score of `node` (0 when unknown).
    pub fn score_of(&self, node: NodeId) -> f64 {
        self.scores.get(node.0).copied().unwrap_or(0.0)
    }

    /// Whether any score is set.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    fn validate(&self) -> Result<(), SimError> {
        if self.scores.iter().all(|s| s.is_finite()) {
            Ok(())
        } else {
            Err(SimError::BadRedispatchPrefs)
        }
    }
}

/// Fixed overheads of one allocation round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Time the controller spends partitioning the application.
    pub partition_overhead_s: f64,
    /// Time the controller spends aggregating the final decision.
    pub decision_overhead_s: f64,
    /// When `true`, a task whose resource demand exceeds its node's
    /// remaining capacity is an error; when `false` it is silently allowed
    /// (useful for what-if sweeps).
    pub enforce_capacity: bool,
    /// Timeout/retry policy for fault-aware runs; ignored by [`simulate`].
    pub retry: RetryPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            partition_overhead_s: 0.05,
            decision_overhead_s: 0.02,
            enforce_capacity: true,
            retry: RetryPolicy::default(),
        }
    }
}

/// Error raised by the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Invalid task parameters.
    BadTask {
        /// Offending input size.
        input_bits: f64,
        /// Offending result size.
        result_bits: f64,
        /// Offending resource demand.
        resource_demand: f64,
    },
    /// Assignment length differs from the task list.
    LengthMismatch {
        /// Tasks supplied.
        tasks: usize,
        /// Assignment entries supplied.
        assignments: usize,
    },
    /// A task was assigned to a node that is not in the cluster.
    UnknownNode {
        /// Task index.
        task: usize,
        /// The missing node.
        node: NodeId,
    },
    /// Aggregate resource demand on a node exceeded its capacity.
    OverCapacity {
        /// The overloaded node.
        node: NodeId,
        /// Aggregate demand placed on it.
        demand: f64,
        /// Its capacity.
        capacity: f64,
    },
    /// A fault schedule targets a node that is not in the cluster.
    UnknownFaultNode {
        /// The missing node.
        node: NodeId,
    },
    /// A fault schedule targets the controller, which cannot fail (it hosts
    /// the retry/recovery logic itself).
    ControllerFault {
        /// The controller node.
        node: NodeId,
    },
    /// A task was assigned to a mesh node with no route from the
    /// controller (the mesh is disconnected there).
    UnreachableNode {
        /// Task index.
        task: usize,
        /// The unreachable node.
        node: NodeId,
    },
    /// A [`RedispatchPrefs`] score is non-finite.
    BadRedispatchPrefs,
    /// Invalid [`RetryPolicy`] parameters.
    BadRetryPolicy {
        /// Offending timeout factor.
        timeout_factor: f64,
        /// Offending backoff base.
        backoff_base_s: f64,
        /// Offending timeout floor.
        min_timeout_s: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BadTask { input_bits, result_bits, resource_demand } => write!(
                f,
                "invalid task (input {input_bits} bits, result {result_bits} bits, resource {resource_demand})"
            ),
            SimError::LengthMismatch { tasks, assignments } => {
                write!(f, "{tasks} tasks but {assignments} assignment entries")
            }
            SimError::UnknownNode { task, node } => {
                write!(f, "task {task} assigned to unknown {node}")
            }
            SimError::OverCapacity { node, demand, capacity } => {
                write!(f, "{node} overloaded: demand {demand} > capacity {capacity}")
            }
            SimError::UnknownFaultNode { node } => {
                write!(f, "fault schedule targets unknown {node}")
            }
            SimError::ControllerFault { node } => {
                write!(f, "fault schedule targets the controller {node}")
            }
            SimError::UnreachableNode { task, node } => {
                write!(f, "task {task} assigned to {node}, which has no route from the controller")
            }
            SimError::BadRedispatchPrefs => {
                write!(f, "redispatch preference scores must be finite")
            }
            SimError::BadRetryPolicy { timeout_factor, backoff_base_s, min_timeout_s } => write!(
                f,
                "invalid retry policy (timeout_factor {timeout_factor}, backoff {backoff_base_s}, min timeout {min_timeout_s})"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Timeline of one task's journey through the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskTimeline {
    /// Node that executed the task.
    pub node: NodeId,
    /// When the input transfer began.
    pub transfer_start: f64,
    /// When the input landed on the worker.
    pub compute_start: f64,
    /// When computation finished.
    pub compute_end: f64,
    /// When the result arrived back at the controller.
    pub result_at: f64,
}

/// Result of simulating one allocation round.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// The paper's PT metric: time from round start to decision.
    pub processing_time: f64,
    /// Per-task timelines, `None` for unscheduled tasks.
    pub timelines: Vec<Option<TaskTimeline>>,
    /// Total busy compute seconds per node.
    pub node_busy: HashMap<NodeId, f64>,
    /// Total busy link seconds per node.
    pub link_busy: HashMap<NodeId, f64>,
}

impl SimReport {
    /// Completion time of the latest task, before decision overhead; equals
    /// partition overhead when nothing was scheduled.
    pub fn makespan(&self) -> f64 {
        self.timelines.iter().flatten().map(|t| t.result_at).fold(0.0, f64::max)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Input transfer finished for task.
    InputArrived(usize),
    /// Compute finished for task.
    ComputeDone(usize),
    /// Result transfer finished for task.
    ResultArrived(usize),
}

/// Validates an assignment against the cluster: matching length, every
/// target node present, and (when `config.enforce_capacity`) aggregate
/// resource demand within each node's capacity. Shared by [`simulate`] and
/// [`simulate_with_faults`] so both reject bad input with the same typed
/// errors instead of trusting the caller.
///
/// # Errors
///
/// [`SimError::LengthMismatch`], [`SimError::UnknownNode`] or
/// [`SimError::OverCapacity`].
pub fn validate_assignment(
    cluster: &Cluster,
    tasks: &[SimTask],
    assignment: &NodeAssignment,
    config: SimConfig,
) -> Result<(), SimError> {
    if tasks.len() != assignment.len() {
        return Err(SimError::LengthMismatch { tasks: tasks.len(), assignments: assignment.len() });
    }
    let mut demand: HashMap<NodeId, f64> = HashMap::new();
    for i in 0..tasks.len() {
        if let Some(node) = assignment.node_of(i) {
            if cluster.node(node).is_none() {
                return Err(SimError::UnknownNode { task: i, node });
            }
            *demand.entry(node).or_insert(0.0) += tasks[i].resource_demand;
        }
    }
    if config.enforce_capacity {
        for (&node, &d) in &demand {
            let capacity = cluster.node(node).expect("validated above").capacity();
            if d > capacity + 1e-9 {
                return Err(SimError::OverCapacity { node, demand: d, capacity });
            }
        }
    }
    Ok(())
}

/// Scheduled-task threshold below which [`simulate`] keeps the global
/// event loop even in per-node-link mode: the paper-scale rounds (tens of
/// tasks) finish in microseconds, where thread spawn/join would dominate.
/// At or above it, the independent per-node transmission/compute legs fan
/// out across `dcta-parallel` workers. Both paths produce bit-identical
/// reports (gated by the parity tests below), so the threshold only
/// changes how the work runs, never the result.
const PAR_MIN_SCHEDULED: usize = 256;

/// Simulates one allocation round.
///
/// On a star cluster in [`MediumMode::PerNodeLink`] mode the nodes'
/// timelines are mutually independent — each star link and CPU is touched
/// only by its own node's tasks — so large rounds are computed per node in
/// parallel (ordered assembly, bit-identical at every thread count); small
/// rounds and [`MediumMode::SharedMedium`] (where every transfer
/// serialises through one channel) run the global discrete-event loop.
///
/// On a mesh cluster the round runs the proportional-share fluid-flow
/// engine (see [`simulate_with_faults`]) with an empty fault schedule; the
/// engine is single-threaded, so thread-count invariance is structural.
///
/// # Errors
///
/// See [`SimError`] variants.
pub fn simulate(
    cluster: &Cluster,
    tasks: &[SimTask],
    assignment: &NodeAssignment,
    config: SimConfig,
) -> Result<SimReport, SimError> {
    validate_assignment(cluster, tasks, assignment, config)?;
    match cluster.topology() {
        NetTopology::Mesh(mesh) => {
            config.retry.validate()?;
            validate_reachable(mesh, cluster, tasks, assignment)?;
            let report = MeshSim::new(cluster, mesh, tasks, config, RedispatchPrefs::none())
                .run(assignment, &FaultSchedule::new());
            Ok(report.to_sim_report())
        }
        NetTopology::Star(net) => {
            if matches!(net.medium(), MediumMode::PerNodeLink)
                && assignment.scheduled_count() >= PAR_MIN_SCHEDULED
            {
                return Ok(simulate_per_node(cluster, tasks, assignment, config));
            }
            Ok(simulate_event_loop(cluster, tasks, assignment, config))
        }
    }
}

/// Rejects assignments that target mesh nodes with no route from the
/// controller on the healthy (all edges up) topology.
fn validate_reachable(
    mesh: &MeshNetwork,
    cluster: &Cluster,
    tasks: &[SimTask],
    assignment: &NodeAssignment,
) -> Result<(), SimError> {
    let routes = mesh.routes_from(cluster.controller().0, &[]);
    for i in 0..tasks.len() {
        if let Some(node) = assignment.node_of(i) {
            if node != cluster.controller() && !routes.reachable(node.0) {
                return Err(SimError::UnreachableNode { task: i, node });
            }
        }
    }
    Ok(())
}

/// The reference discrete-event engine for star clusters: one global
/// queue, causal order, FIFO tie-breaks. Handles both medium modes;
/// [`simulate`] routes here for shared-medium and small rounds, and the
/// per-node fan-out is pinned bit-identical to this loop by the parity
/// tests.
///
/// All engine state is dense `Vec` storage indexed by node id (ids are
/// dense in every cluster constructor), so an event costs a few array
/// reads — no hashing, no scans. The arithmetic is operation-for-operation
/// the one the original `HashMap`-based loop performed: lazily-initialised
/// entries started at exactly the values the vectors are pre-filled with,
/// so every `max`/`+` sees the same operands and the reports stay
/// byte-identical.
fn simulate_event_loop(
    cluster: &Cluster,
    tasks: &[SimTask],
    assignment: &NodeAssignment,
    config: SimConfig,
) -> SimReport {
    let controller = cluster.controller();
    let net = cluster.network().expect("star simulation path");
    let shared = matches!(net.medium(), MediumMode::SharedMedium);
    let slots = cluster.nodes().iter().map(|n| n.id().0).max().unwrap_or(0) + 1;
    let t0 = config.partition_overhead_s;

    // Per-slot precomputation: link parameters and compute-rate
    // coefficient (seconds_per_bit × slowdown — `compute_time` multiplies
    // left-to-right, so folding the first product keeps the bits).
    let mut links = vec![net.link(NodeId(0)); slots];
    let mut compute_coef = vec![0.0f64; slots];
    for n in cluster.nodes() {
        links[n.id().0] = net.link(n.id());
        compute_coef[n.id().0] = n.model().seconds_per_bit() * n.slowdown();
    }

    let mut queue: CalendarQueue<Ev> = CalendarQueue::new();
    // In shared-medium mode every transfer serialises through one channel,
    // modelled as a single virtual link slot.
    let mut shared_free = t0;
    let mut link_free = vec![t0; slots];
    let mut cpu_free = vec![0.0f64; slots];
    let mut link_busy = vec![0.0f64; slots];
    let mut node_busy = vec![0.0f64; slots];
    let mut link_touched = vec![false; slots];
    let mut node_touched = vec![false; slots];
    let mut timelines: Vec<Option<TaskTimeline>> = vec![None; tasks.len()];

    // Dispatch all inputs at t0, FIFO per link in task order.
    for i in 0..tasks.len() {
        let Some(node) = assignment.node_of(i) else { continue };
        let (transfer_start, arrive) = if node == controller {
            (t0, t0) // local task: no network hop
        } else {
            let free = if shared { &mut shared_free } else { &mut link_free[node.0] };
            let start = free.max(t0);
            let dur = links[node.0].transfer_time(tasks[i].input_bits);
            *free = start + dur;
            link_busy[node.0] += dur;
            link_touched[node.0] = true;
            (start, start + dur)
        };
        timelines[i] = Some(TaskTimeline {
            node,
            transfer_start,
            compute_start: 0.0,
            compute_end: 0.0,
            result_at: 0.0,
        });
        queue.schedule(arrive, Ev::InputArrived(i));
    }

    let mut pending = assignment.scheduled_count();
    let mut last_result = t0;
    while let Some((now, ev)) = queue.pop_next() {
        match ev {
            Ev::InputArrived(i) => {
                let node = timelines[i].expect("scheduled task").node;
                let free = &mut cpu_free[node.0];
                let start = free.max(now);
                let dur = compute_coef[node.0] * tasks[i].input_bits.max(0.0);
                *free = start + dur;
                node_busy[node.0] += dur;
                node_touched[node.0] = true;
                let tl = timelines[i].as_mut().expect("scheduled task");
                tl.compute_start = start;
                tl.compute_end = start + dur;
                queue.schedule(start + dur, Ev::ComputeDone(i));
            }
            Ev::ComputeDone(i) => {
                let node = timelines[i].expect("scheduled task").node;
                if node == controller {
                    queue.schedule(now, Ev::ResultArrived(i));
                } else {
                    let free = if shared { &mut shared_free } else { &mut link_free[node.0] };
                    let start = free.max(now);
                    let dur = links[node.0].transfer_time(tasks[i].result_bits);
                    *free = start + dur;
                    link_busy[node.0] += dur;
                    queue.schedule(start + dur, Ev::ResultArrived(i));
                }
            }
            Ev::ResultArrived(i) => {
                timelines[i].as_mut().expect("scheduled task").result_at = now;
                last_result = last_result.max(now);
                pending -= 1;
                if pending == 0 {
                    break;
                }
            }
        }
    }

    SimReport {
        processing_time: last_result + config.decision_overhead_s,
        timelines,
        node_busy: gather_busy(&node_busy, &node_touched),
        link_busy: gather_busy(&link_busy, &link_touched),
    }
}

/// Converts dense busy accumulators back to the report's sparse map,
/// keeping the `HashMap` era's entry-existence semantics: a node appears
/// iff it touched that resource.
fn gather_busy(busy: &[f64], touched: &[bool]) -> HashMap<NodeId, f64> {
    busy.iter()
        .zip(touched)
        .enumerate()
        .filter(|&(_, (_, &t))| t)
        .map(|(i, (&b, _))| (NodeId(i), b))
        .collect()
}

/// One node's completed leg of a per-node-link round: its tasks' timelines
/// plus the node-local accumulators, ready for ordered assembly.
struct NodeLeg {
    node: NodeId,
    /// `(task index, timeline)` in task order.
    timelines: Vec<(usize, TaskTimeline)>,
    node_busy: f64,
    link_busy: f64,
    /// Whether the leg reserved its star link at all (controller-local
    /// tasks never do); mirrors which `link_busy` entries the event loop
    /// creates.
    uses_link: bool,
    last_result: f64,
}

/// Per-node decomposition of [`simulate_event_loop`] for
/// [`MediumMode::PerNodeLink`]: each node's tasks replay, in task order,
/// exactly the event sequence the global loop would process for that node.
///
/// Why this is bit-identical to the event loop: inputs are dispatched at
/// `t0` in task order, reserving each link's FIFO chain up front, so a
/// node's `InputArrived` events carry non-decreasing times and pop in task
/// order (the queue breaks time ties by insertion sequence). The FIFO CPU
/// then finishes computations in that same order, so `ComputeDone` — and
/// with it the result-leg link reservations — also replays in task order.
/// No state is shared across nodes except `last_result`, a max over
/// non-negative values, which is order-invariant. Every floating-point
/// operation below is the same operation, on the same operands, in the
/// same per-node order as in the event loop.
fn simulate_per_node(
    cluster: &Cluster,
    tasks: &[SimTask],
    assignment: &NodeAssignment,
    config: SimConfig,
) -> SimReport {
    let controller = cluster.controller();
    let t0 = config.partition_overhead_s;

    // Group task indices by node, groups ordered by first appearance so
    // the fan-out and assembly order is a pure function of the assignment.
    let mut group_of: HashMap<NodeId, usize> = HashMap::new();
    let mut groups: Vec<(NodeId, Vec<usize>)> = Vec::new();
    for i in 0..tasks.len() {
        let Some(node) = assignment.node_of(i) else { continue };
        let g = *group_of.entry(node).or_insert_with(|| {
            groups.push((node, Vec::new()));
            groups.len() - 1
        });
        groups[g].1.push(i);
    }

    // Grain 1: groups are few (one per busy node) but each carries many
    // tasks, so every group is worth a worker.
    let legs: Vec<NodeLeg> = parallel::par_map_indexed_grained(groups.len(), 1, |g| {
        let (node, idxs) = &groups[g];
        node_leg(cluster, tasks, config, *node, controller, idxs)
    });

    // Serial ordered assembly.
    let mut timelines: Vec<Option<TaskTimeline>> = vec![None; tasks.len()];
    let mut node_busy: HashMap<NodeId, f64> = HashMap::new();
    let mut link_busy: HashMap<NodeId, f64> = HashMap::new();
    let mut last_result = t0;
    for leg in legs {
        node_busy.insert(leg.node, leg.node_busy);
        if leg.uses_link {
            link_busy.insert(leg.node, leg.link_busy);
        }
        last_result = last_result.max(leg.last_result);
        for (i, tl) in leg.timelines {
            timelines[i] = Some(tl);
        }
    }

    SimReport {
        processing_time: last_result + config.decision_overhead_s,
        timelines,
        node_busy,
        link_busy,
    }
}

/// Replays one node's input legs, FIFO compute, and result legs in task
/// order, mirroring the event loop's arithmetic operation for operation.
fn node_leg(
    cluster: &Cluster,
    tasks: &[SimTask],
    config: SimConfig,
    node: NodeId,
    controller: NodeId,
    idxs: &[usize],
) -> NodeLeg {
    let t0 = config.partition_overhead_s;
    let is_controller = node == controller;
    let mut link_free = t0;
    let mut cpu_free: Option<f64> = None;
    let mut node_busy = 0.0;
    let mut link_busy = 0.0;
    let mut timelines: Vec<(usize, TaskTimeline)> = Vec::with_capacity(idxs.len());
    let mut arrivals: Vec<f64> = Vec::with_capacity(idxs.len());

    // Input legs: the event loop reserves the link chain up front at t0,
    // in task order.
    for &i in idxs {
        let (transfer_start, arrive) = if is_controller {
            (t0, t0) // local task: no network hop
        } else {
            let start = link_free.max(t0);
            let dur = cluster
                .network()
                .expect("star simulation path")
                .transfer_time(node, tasks[i].input_bits);
            link_free = start + dur;
            link_busy += dur;
            (start, start + dur)
        };
        timelines.push((
            i,
            TaskTimeline {
                node,
                transfer_start,
                compute_start: 0.0,
                compute_end: 0.0,
                result_at: 0.0,
            },
        ));
        arrivals.push(arrive);
    }

    // FIFO compute: arrivals are non-decreasing in task order, so the CPU
    // serves tasks in task order exactly as the event loop does.
    let compute_node = cluster.node(node).expect("validated");
    for (k, (_, tl)) in timelines.iter_mut().enumerate() {
        let arrive = arrivals[k];
        let free = cpu_free.unwrap_or(arrive);
        let start = free.max(arrive);
        let dur = compute_node.compute_time(tasks[idxs[k]].input_bits);
        cpu_free = Some(start + dur);
        node_busy += dur;
        tl.compute_start = start;
        tl.compute_end = start + dur;
    }

    // Result legs: compute ends are non-decreasing in task order, so the
    // link's return chain is reserved in task order too.
    let mut last_result = t0;
    for (k, (_, tl)) in timelines.iter_mut().enumerate() {
        let result_at = if is_controller {
            tl.compute_end
        } else {
            let start = link_free.max(tl.compute_end);
            let dur = cluster
                .network()
                .expect("star simulation path")
                .transfer_time(node, tasks[idxs[k]].result_bits);
            link_free = start + dur;
            link_busy += dur;
            start + dur
        };
        tl.result_at = result_at;
        last_result = last_result.max(result_at);
    }

    NodeLeg { node, timelines, node_busy, link_busy, uses_link: !is_controller, last_result }
}

/// Result of a fault-injected allocation round ([`simulate_with_faults`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// PT to the controller's decision: the instant every scheduled task
    /// was either delivered or declared failed, plus decision overhead.
    pub processing_time: f64,
    /// Timeline of each task's *successful* attempt; `None` for
    /// unscheduled or failed tasks.
    pub timelines: Vec<Option<TaskTimeline>>,
    /// Whether each task's result reached the controller.
    pub completed: Vec<bool>,
    /// Attempts consumed per task (0 = never scheduled).
    pub attempts: Vec<usize>,
    /// Typed failure log, in event order.
    pub failures: Vec<FailureRecord>,
    /// Committed busy compute seconds per node. Compute reservations lost
    /// to a crash are refunded (the node reboots with an empty queue).
    pub node_busy: HashMap<NodeId, f64>,
    /// Committed busy link seconds per node. Per-node link reservations
    /// lost to a crash or link dropout are refunded; on a shared medium the
    /// channel time stays burned (the radio was transmitting).
    pub link_busy: HashMap<NodeId, f64>,
    /// Nodes still down when the round ended, ascending id.
    pub down_at_end: Vec<NodeId>,
}

impl FaultReport {
    /// Number of tasks whose result reached the controller.
    pub fn completed_count(&self) -> usize {
        self.completed.iter().filter(|c| **c).count()
    }

    /// Scheduled tasks that exhausted their retries (or had no surviving
    /// host), ascending index.
    pub fn failed_tasks(&self) -> Vec<usize> {
        (0..self.completed.len()).filter(|&i| self.attempts[i] > 0 && !self.completed[i]).collect()
    }

    /// Completion time of the latest delivered task, before decision
    /// overhead.
    pub fn makespan(&self) -> f64 {
        self.timelines.iter().flatten().map(|t| t.result_at).fold(0.0, f64::max)
    }

    /// Projects onto a [`SimReport`] (successful timelines only) so the
    /// [`crate::trace`] exporters apply unchanged.
    pub fn to_sim_report(&self) -> SimReport {
        SimReport {
            processing_time: self.processing_time,
            timelines: self.timelines.clone(),
            node_busy: self.node_busy.clone(),
            link_busy: self.link_busy.clone(),
        }
    }
}

/// Events of the fault-aware engine. Each task-scoped event carries its
/// attempt number so events of an aborted attempt become inert the moment
/// the controller re-dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FEv {
    /// Index into the fault schedule fires.
    Fault(usize),
    /// Input transfer finished for (task, attempt).
    InputArrived {
        task: usize,
        attempt: usize,
    },
    ComputeDone {
        task: usize,
        attempt: usize,
    },
    ResultArrived {
        task: usize,
        attempt: usize,
    },
    /// Controller-side heartbeat timer for (task, attempt).
    Heartbeat {
        task: usize,
        attempt: usize,
    },
    /// Backoff elapsed; pick a surviving node and re-dispatch.
    Redispatch {
        task: usize,
    },
}

/// Pipeline stage of a live attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    InputTransfer,
    Computing,
    /// Result computed but the node's link is down; parked until LinkUp.
    AwaitingLink,
    ResultTransfer,
}

#[derive(Debug, Clone, Copy)]
enum AbortCause {
    Crash,
    LinkLoss,
    /// Heartbeat gave up on a result stranded behind a dead link.
    Strand,
}

#[derive(Debug, Clone, Copy)]
struct TaskState {
    /// 1-based attempt number currently in flight (or last attempted).
    attempt: usize,
    node: NodeId,
    leg: Leg,
    /// Reserved interval of the current leg (start, end).
    interval: (f64, f64),
    aborted: bool,
    resolved: bool,
    completed: bool,
    timeline: TaskTimeline,
}

struct FaultSim<'a> {
    cluster: &'a Cluster,
    tasks: &'a [SimTask],
    config: SimConfig,
    controller: NodeId,
    queue: CalendarQueue<FEv>,
    link_free: HashMap<NodeId, f64>,
    cpu_free: HashMap<NodeId, f64>,
    link_busy: HashMap<NodeId, f64>,
    node_busy: HashMap<NodeId, f64>,
    state: Vec<Option<TaskState>>,
    final_timelines: Vec<Option<TaskTimeline>>,
    attempts_used: Vec<usize>,
    failures: Vec<FailureRecord>,
    down: BTreeSet<NodeId>,
    link_down: HashSet<NodeId>,
    straggle: HashMap<NodeId, f64>,
    /// Per-node FIFO of (task, attempt) results parked behind a dead link.
    waiting: HashMap<NodeId, Vec<(usize, usize)>>,
    /// Cumulative nominal compute seconds dispatched per node — the
    /// controller's load ledger for re-dispatch target selection.
    dispatched_load: HashMap<NodeId, f64>,
    /// Resource demand currently resident per node (capacity bookkeeping
    /// for retries; aborts release it, completions keep it for the round).
    resident: HashMap<NodeId, f64>,
    /// Availability preference scores for re-dispatch target selection.
    prefs: RedispatchPrefs,
    pending: usize,
    last_resolution: f64,
}

impl FaultSim<'_> {
    fn per_node_links(&self) -> bool {
        matches!(
            self.cluster.network().expect("star simulation path").medium(),
            MediumMode::PerNodeLink
        )
    }

    fn link_key(&self, node: NodeId) -> NodeId {
        match self.cluster.network().expect("star simulation path").medium() {
            MediumMode::PerNodeLink => node,
            MediumMode::SharedMedium => NodeId(usize::MAX),
        }
    }

    /// Heartbeat duration for `task` on `node`: retry-factor × the
    /// attempt's nominal PT at advertised rates (no queueing, no
    /// stragglers), floored by the policy minimum.
    fn timeout_of(&self, task: usize, node: NodeId) -> f64 {
        let spec = self.tasks[task];
        let compute =
            self.cluster.node(node).expect("validated node").compute_time(spec.input_bits);
        let nominal = if node == self.controller {
            compute
        } else {
            self.cluster
                .network()
                .expect("star simulation path")
                .transfer_time(node, spec.input_bits)
                + compute
                + self
                    .cluster
                    .network()
                    .expect("star simulation path")
                    .transfer_time(node, spec.result_bits)
        };
        (self.config.retry.timeout_factor * nominal).max(self.config.retry.min_timeout_s)
    }

    fn dispatch(&mut self, task: usize, node: NodeId, t: f64, attempt: usize) {
        let spec = self.tasks[task];
        let nominal =
            self.cluster.node(node).expect("validated node").compute_time(spec.input_bits);
        *self.dispatched_load.entry(node).or_insert(0.0) += nominal;
        *self.resident.entry(node).or_insert(0.0) += spec.resource_demand;
        let (transfer_start, arrive) = if node == self.controller {
            (t, t)
        } else {
            let free = self.link_free.entry(self.link_key(node)).or_insert(t);
            let start = free.max(t);
            let dur = self
                .cluster
                .network()
                .expect("star simulation path")
                .transfer_time(node, spec.input_bits);
            *free = start + dur;
            *self.link_busy.entry(node).or_insert(0.0) += dur;
            (start, start + dur)
        };
        self.state[task] = Some(TaskState {
            attempt,
            node,
            leg: Leg::InputTransfer,
            interval: (transfer_start, arrive),
            aborted: false,
            resolved: false,
            completed: false,
            timeline: TaskTimeline {
                node,
                transfer_start,
                compute_start: 0.0,
                compute_end: 0.0,
                result_at: 0.0,
            },
        });
        self.attempts_used[task] = attempt;
        self.queue.schedule(arrive, FEv::InputArrived { task, attempt });
        self.queue.schedule(t + self.timeout_of(task, node), FEv::Heartbeat { task, attempt });
    }

    /// Kills the current attempt: refunds un-elapsed reservations where the
    /// resource collapses with the fault (crashed CPU, dead per-node link),
    /// releases residency, and leaves the attempt for the heartbeat to
    /// detect.
    fn abort_attempt(&mut self, task: usize, now: f64, cause: AbortCause) {
        let st = self.state[task].expect("abort of unscheduled task");
        match st.leg {
            Leg::InputTransfer | Leg::ResultTransfer => {
                if st.node != self.controller && self.per_node_links() {
                    let lost = st.interval.1 - st.interval.0.max(now);
                    if lost > 0.0 {
                        *self.link_busy.entry(st.node).or_insert(0.0) -= lost;
                    }
                }
            }
            Leg::Computing => {
                if matches!(cause, AbortCause::Crash) {
                    let lost = st.interval.1 - st.interval.0.max(now);
                    if lost > 0.0 {
                        *self.node_busy.entry(st.node).or_insert(0.0) -= lost;
                    }
                }
            }
            Leg::AwaitingLink => {
                if let Some(w) = self.waiting.get_mut(&st.node) {
                    w.retain(|&(t, _)| t != task);
                }
            }
        }
        *self.resident.entry(st.node).or_insert(0.0) -= self.tasks[task].resource_demand;
        let s = self.state[task].as_mut().expect("present");
        s.aborted = true;
        self.failures.push(FailureRecord {
            time: now,
            kind: FailureKind::AttemptAborted { task, node: st.node, attempt: st.attempt },
        });
    }

    fn on_fault(&mut self, now: f64, kind: FaultKind) {
        match kind {
            FaultKind::Crash(n) => {
                self.failures.push(FailureRecord { time: now, kind: FailureKind::NodeCrashed(n) });
                if self.down.insert(n) {
                    for task in 0..self.tasks.len() {
                        let Some(st) = self.state[task] else { continue };
                        if st.node == n && !st.resolved && !st.aborted {
                            self.abort_attempt(task, now, AbortCause::Crash);
                        }
                    }
                    self.cpu_free.insert(n, now);
                    if self.per_node_links() {
                        self.link_free.insert(n, now);
                    }
                    self.straggle.remove(&n);
                    self.waiting.remove(&n);
                }
            }
            FaultKind::Recover(n) => {
                self.failures
                    .push(FailureRecord { time: now, kind: FailureKind::NodeRecovered(n) });
                if self.down.remove(&n) {
                    self.cpu_free.insert(n, now);
                    if self.per_node_links() {
                        self.link_free.insert(n, now);
                    }
                }
            }
            FaultKind::LinkDown(n) => {
                self.failures.push(FailureRecord { time: now, kind: FailureKind::LinkWentDown(n) });
                if self.link_down.insert(n) {
                    for task in 0..self.tasks.len() {
                        let Some(st) = self.state[task] else { continue };
                        if st.node == n
                            && !st.resolved
                            && !st.aborted
                            && matches!(st.leg, Leg::InputTransfer | Leg::ResultTransfer)
                        {
                            self.abort_attempt(task, now, AbortCause::LinkLoss);
                        }
                    }
                    if self.per_node_links() {
                        self.link_free.insert(n, now);
                    }
                }
            }
            FaultKind::LinkUp(n) => {
                self.failures.push(FailureRecord { time: now, kind: FailureKind::LinkRestored(n) });
                if self.link_down.remove(&n) {
                    // Drain results parked behind the dead link, FIFO.
                    for (task, attempt) in self.waiting.remove(&n).unwrap_or_default() {
                        let Some(st) = self.state[task] else { continue };
                        if st.resolved || st.aborted || st.attempt != attempt {
                            continue;
                        }
                        let free = self.link_free.entry(self.link_key(n)).or_insert(now);
                        let start = free.max(now);
                        let dur = self
                            .cluster
                            .network()
                            .expect("star simulation path")
                            .transfer_time(n, self.tasks[task].result_bits);
                        *free = start + dur;
                        *self.link_busy.entry(n).or_insert(0.0) += dur;
                        let s = self.state[task].as_mut().expect("present");
                        s.leg = Leg::ResultTransfer;
                        s.interval = (start, start + dur);
                        self.queue.schedule(start + dur, FEv::ResultArrived { task, attempt });
                    }
                }
            }
            FaultKind::StragglerStart(n, factor) => {
                self.straggle.insert(n, factor);
            }
            FaultKind::StragglerEnd(n) => {
                self.straggle.remove(&n);
            }
        }
    }

    fn live(&self, task: usize, attempt: usize) -> bool {
        match self.state[task] {
            Some(st) => !st.resolved && !st.aborted && st.attempt == attempt,
            None => false,
        }
    }

    fn on_input_arrived(&mut self, now: f64, task: usize, attempt: usize) {
        if !self.live(task, attempt) {
            return;
        }
        let node = self.state[task].expect("live").node;
        let free = self.cpu_free.entry(node).or_insert(now);
        let start = free.max(now);
        let base =
            self.cluster.node(node).expect("validated").compute_time(self.tasks[task].input_bits);
        // Straggler factor of the window the compute leg *starts* in; 1.0×
        // multiplies bit-exactly, preserving fault-free parity.
        let dur = base * self.straggle.get(&node).copied().unwrap_or(1.0);
        *free = start + dur;
        *self.node_busy.entry(node).or_insert(0.0) += dur;
        let s = self.state[task].as_mut().expect("live");
        s.leg = Leg::Computing;
        s.interval = (start, start + dur);
        s.timeline.compute_start = start;
        s.timeline.compute_end = start + dur;
        self.queue.schedule(start + dur, FEv::ComputeDone { task, attempt });
    }

    fn on_compute_done(&mut self, now: f64, task: usize, attempt: usize) {
        if !self.live(task, attempt) {
            return;
        }
        let node = self.state[task].expect("live").node;
        if node == self.controller {
            let s = self.state[task].as_mut().expect("live");
            s.leg = Leg::ResultTransfer;
            s.interval = (now, now);
            self.queue.schedule(now, FEv::ResultArrived { task, attempt });
        } else if self.link_down.contains(&node) {
            let s = self.state[task].as_mut().expect("live");
            s.leg = Leg::AwaitingLink;
            s.interval = (now, now);
            self.waiting.entry(node).or_default().push((task, attempt));
        } else {
            let free = self.link_free.entry(self.link_key(node)).or_insert(now);
            let start = free.max(now);
            let dur = self
                .cluster
                .network()
                .expect("star simulation path")
                .transfer_time(node, self.tasks[task].result_bits);
            *free = start + dur;
            *self.link_busy.entry(node).or_insert(0.0) += dur;
            let s = self.state[task].as_mut().expect("live");
            s.leg = Leg::ResultTransfer;
            s.interval = (start, start + dur);
            self.queue.schedule(start + dur, FEv::ResultArrived { task, attempt });
        }
    }

    fn on_result_arrived(&mut self, now: f64, task: usize, attempt: usize) {
        if !self.live(task, attempt) {
            return;
        }
        let s = self.state[task].as_mut().expect("live");
        s.timeline.result_at = now;
        s.resolved = true;
        s.completed = true;
        self.final_timelines[task] = Some(s.timeline);
        self.last_resolution = self.last_resolution.max(now);
        self.pending -= 1;
    }

    fn on_heartbeat(&mut self, now: f64, task: usize, attempt: usize) {
        let Some(st) = self.state[task] else { return };
        if st.resolved || st.attempt != attempt {
            return;
        }
        if st.aborted {
            self.failures.push(FailureRecord {
                time: now,
                kind: FailureKind::TimeoutDetected { task, node: st.node, attempt },
            });
            self.retry_or_fail(task, now);
        } else if matches!(st.leg, Leg::AwaitingLink) && self.link_down.contains(&st.node) {
            // Result stranded behind a link that is still down at timeout:
            // give up on this attempt and recompute elsewhere.
            self.abort_attempt(task, now, AbortCause::Strand);
            self.failures.push(FailureRecord {
                time: now,
                kind: FailureKind::TimeoutDetected { task, node: st.node, attempt },
            });
            self.retry_or_fail(task, now);
        } else {
            // Healthy in-flight work is never preempted: re-arm. Every leg
            // completes in finite time, so re-arming terminates.
            self.queue
                .schedule(now + self.timeout_of(task, st.node), FEv::Heartbeat { task, attempt });
        }
    }

    fn retry_or_fail(&mut self, task: usize, now: f64) {
        let used = self.state[task].expect("scheduled").attempt;
        if used > self.config.retry.max_retries {
            self.fail_task(task, now);
        } else {
            let delay = self.config.retry.backoff_base_s * 2f64.powi(used as i32 - 1);
            self.queue.schedule(now + delay, FEv::Redispatch { task });
        }
    }

    fn fail_task(&mut self, task: usize, now: f64) {
        let used = self.state[task].expect("scheduled").attempt;
        let s = self.state[task].as_mut().expect("scheduled");
        s.resolved = true;
        self.failures.push(FailureRecord {
            time: now,
            kind: FailureKind::TaskFailed { task, attempts: used },
        });
        self.last_resolution = self.last_resolution.max(now);
        self.pending -= 1;
    }

    fn on_redispatch(&mut self, now: f64, task: usize) {
        let st = self.state[task].expect("scheduled");
        if st.resolved || !st.aborted {
            return;
        }
        let next = st.attempt + 1;
        let demand = self.tasks[task].resource_demand;
        // Deterministic target selection: highest availability preference
        // score first (when prefs are set), then least cumulative
        // dispatched nominal compute seconds among up nodes with a live
        // link, ties broken by ascending node id. The controller is always
        // a candidate (it cannot fault), so selection only fails on
        // capacity.
        let mut best: Option<(f64, f64, NodeId)> = None;
        for n in self.cluster.nodes() {
            let id = n.id();
            if self.down.contains(&id) || self.link_down.contains(&id) {
                continue;
            }
            if self.config.enforce_capacity {
                let used = self.resident.get(&id).copied().unwrap_or(0.0);
                if used + demand > n.capacity() + 1e-9 {
                    continue;
                }
            }
            let score = self.prefs.score_of(id);
            let load = self.dispatched_load.get(&id).copied().unwrap_or(0.0);
            let better = match best {
                None => true,
                Some((bs, bl, bid)) => {
                    score > bs || (score == bs && (load < bl || (load == bl && id < bid)))
                }
            };
            if better {
                best = Some((score, load, id));
            }
        }
        match best {
            Some((_, _, node)) => {
                self.failures.push(FailureRecord {
                    time: now,
                    kind: FailureKind::Redispatched { task, node, attempt: next },
                });
                self.dispatch(task, node, now, next);
            }
            None => self.fail_task(task, now),
        }
    }
}

/// Queued events of the mesh engine. A flow's serialisation completion is
/// not among them: it lives in [`MeshSim::completions`], one entry per
/// active flow, re-keyed whenever the flow's rate changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MEv {
    /// Index into the fault schedule fires.
    Fault(usize),
    /// A finished flow's payload, delayed by path propagation, lands.
    Delivered {
        flow: usize,
    },
    /// Controller-local input leg finished for (task, attempt).
    InputArrived {
        task: usize,
        attempt: usize,
    },
    ComputeDone {
        task: usize,
        attempt: usize,
    },
    /// Controller-local result leg finished for (task, attempt).
    ResultArrived {
        task: usize,
        attempt: usize,
    },
    /// Controller-side heartbeat timer for (task, attempt).
    Heartbeat {
        task: usize,
        attempt: usize,
    },
    /// Backoff elapsed; pick a surviving node and re-dispatch.
    Redispatch {
        task: usize,
    },
}

/// One transfer in flight across the mesh under proportional-share
/// contention. The flow's share weight is its total requested size
/// (`bits`), constant for its lifetime; the granted rate is the minimum
/// over its path edges of `capacity × (bits / load)` where `load` sums the
/// weights of the flows crossing that edge. A lone flow's share is
/// `bits / bits == 1.0` exactly, so it gets the full edge capacity.
#[derive(Debug, Clone)]
struct Flow {
    task: usize,
    attempt: usize,
    /// `false` = input leg (controller → worker), `true` = result leg.
    result: bool,
    /// Worker-side endpoint (dense mesh node index).
    node: usize,
    /// Edge ids along the route, fixed at flow start (re-routing only
    /// affects flows started after the topology change); shared with the
    /// engine's per-destination route cache.
    path: Rc<[usize]>,
    /// Where this flow's per-edge grants start in [`MeshSim::grants`]:
    /// `grants[slots + i]` is what `path[i]` currently grants it.
    slots: usize,
    /// Requested size — the constant share weight.
    bits: f64,
    /// Bits still to serialise.
    remaining: f64,
    /// Currently granted rate in bits/sec.
    rate: f64,
    /// Instant `remaining` was last advanced to.
    last_update: f64,
    /// Creation instant (for elapsed link-busy accounting).
    started: f64,
    /// Sum of one-way propagation latencies along `path`, applied once
    /// after serialisation completes.
    latency: f64,
    active: bool,
}

/// Per-task state of the mesh engine: [`TaskState`] plus the id of the
/// attempt's in-flight flow (if the current leg is a network transfer).
#[derive(Debug, Clone, Copy)]
struct MTaskState {
    attempt: usize,
    node: NodeId,
    leg: Leg,
    flow: Option<usize>,
    /// Reserved compute interval (start, end); transfers track their flow
    /// instead.
    interval: (f64, f64),
    aborted: bool,
    resolved: bool,
    completed: bool,
    timeline: TaskTimeline,
}

/// The mesh discrete-event engine: fluid-flow transfers with
/// proportional-share contention and incremental rate settlement.
///
/// All state is dense `Vec` storage indexed by mesh node or edge id.
/// After every handled event, [`MeshSim::settle`] revisits only the edges
/// whose flow set changed ("dirty" edges) and the flows crossing them:
/// each such edge rewrites the grant it gives each of its flows, then each
/// touched flow is advanced under its previously granted rate and takes
/// the minimum of its path's grants; a flow whose rate is bitwise unchanged
/// keeps its pending completion, so a settlement costs O(dirty edges'
/// flows), not all active flows times their path lengths.
///
/// Every active flow owns exactly one pending completion, in
/// [`MeshSim::completions`]; the main loop merges that heap with the
/// calendar queue by `(time, seq)`, both drawing `seq` from the calendar's
/// counter, so events fire in the order one shared queue would give.
///
/// The engine is single-threaded, so thread-count invariance is
/// structural; determinism follows from the (time, seq) FIFO contract and
/// the dense, id-ordered iteration everywhere.
struct MeshSim<'a> {
    cluster: &'a Cluster,
    mesh: &'a MeshNetwork,
    tasks: &'a [SimTask],
    config: SimConfig,
    controller: NodeId,
    queue: CalendarQueue<MEv>,
    /// The pending serialisation completion of each active flow, keyed
    /// `(fire time, ticket)` with tickets from `queue`.
    completions: IndexedHeap,
    /// Shortest-path tree from the controller over the live edges;
    /// recomputed on every topology change ([`MeshSim::reroute`]).
    routes: Routes,
    /// `(path edges, summed latency)` of the current route to each node,
    /// filled on first use and emptied with every `routes` change.
    route_cache: Vec<Option<(Rc<[usize]>, f64)>>,
    edge_down: Vec<bool>,
    /// The uplink edge a `LinkDown(n)` fault took out, so `LinkUp(n)`
    /// restores exactly that edge.
    downed_uplink: Vec<Option<usize>>,
    /// Flow slab; ids are never reused within a run.
    flows: Vec<Flow>,
    /// Active flows crossing each edge, in arrival order, as `(flow id,
    /// index into `grants` of what this edge grants that flow)`.
    edge_flows: Vec<Vec<(usize, usize)>>,
    /// `capacity × (bits / load)` per (flow, path edge), each flow's run
    /// starting at its [`Flow::slots`]. An edge's entries are rewritten
    /// whenever its load changed, so every entry of an active flow always
    /// equals a fresh evaluation.
    grants: Vec<f64>,
    /// Sum of active flows' share weights per edge; reset to exactly 0.0
    /// when an edge empties so no float residue leaks across rounds of
    /// contention.
    edge_load: Vec<f64>,
    /// Edges whose flow set changed since the last settlement.
    dirty: Vec<usize>,
    /// Settlement stamp per edge (dedupes repeated dirty entries).
    edge_stamp: Vec<u64>,
    /// Settlement stamp per flow (dedupes flows crossing several dirty
    /// edges).
    touch_stamp: Vec<u64>,
    stamp: u64,
    /// Scratch: the flows a settlement touched, in first-touch order.
    touched: Vec<usize>,
    cpu_free: Vec<f64>,
    node_busy: Vec<f64>,
    link_busy: Vec<f64>,
    node_touched: Vec<bool>,
    link_touched: Vec<bool>,
    dispatched_load: Vec<f64>,
    resident: Vec<f64>,
    state: Vec<Option<MTaskState>>,
    final_timelines: Vec<Option<TaskTimeline>>,
    attempts_used: Vec<usize>,
    failures: Vec<FailureRecord>,
    down: Vec<bool>,
    /// Compute-time multiplier per node; exactly 1.0 outside straggler
    /// windows (bit-exact identity multiply).
    straggle: Vec<f64>,
    /// Per-node FIFO of (task, attempt) results parked while the node was
    /// unreachable.
    waiting: Vec<Vec<(usize, usize)>>,
    /// Availability preference scores for re-dispatch target selection.
    prefs: RedispatchPrefs,
    pending: usize,
    last_resolution: f64,
}

impl<'a> MeshSim<'a> {
    fn new(
        cluster: &'a Cluster,
        mesh: &'a MeshNetwork,
        tasks: &'a [SimTask],
        config: SimConfig,
        prefs: RedispatchPrefs,
    ) -> Self {
        let n = mesh.nodes();
        let m = mesh.num_edges();
        let controller = cluster.controller();
        Self {
            cluster,
            mesh,
            tasks,
            config,
            controller,
            queue: CalendarQueue::new(),
            completions: IndexedHeap::default(),
            routes: mesh.routes_from(controller.0, &[]),
            route_cache: vec![None; n],
            edge_down: vec![false; m],
            downed_uplink: vec![None; n],
            flows: Vec::new(),
            edge_flows: std::iter::repeat_with(Vec::new).take(m).collect(),
            grants: Vec::new(),
            edge_load: vec![0.0; m],
            dirty: Vec::new(),
            edge_stamp: vec![0; m],
            touch_stamp: Vec::new(),
            stamp: 0,
            touched: Vec::new(),
            cpu_free: vec![0.0; n],
            node_busy: vec![0.0; n],
            link_busy: vec![0.0; n],
            node_touched: vec![false; n],
            link_touched: vec![false; n],
            dispatched_load: vec![0.0; n],
            resident: vec![0.0; n],
            state: vec![None; tasks.len()],
            final_timelines: vec![None; tasks.len()],
            attempts_used: vec![0; tasks.len()],
            failures: Vec::new(),
            down: vec![false; n],
            straggle: vec![1.0; n],
            waiting: vec![Vec::new(); n],
            prefs,
            pending: 0,
            last_resolution: config.partition_overhead_s,
        }
    }

    fn live(&self, task: usize, attempt: usize) -> bool {
        match self.state[task] {
            Some(st) => !st.resolved && !st.aborted && st.attempt == attempt,
            None => false,
        }
    }

    /// Recomputes the shortest-path tree over the live edges after a
    /// topology change, dropping every cached route with the old tree.
    fn reroute(&mut self) {
        self.routes = self.mesh.routes_from(self.controller.0, &self.edge_down);
        self.route_cache.fill(None);
    }

    /// Starts a transfer toward (or from) `node` along the current route.
    /// Zero-size payloads skip the fluid phase entirely: they hold no
    /// share of any edge and deliver after pure path latency.
    ///
    /// The caller guarantees `node` is currently reachable.
    fn start_flow(
        &mut self,
        task: usize,
        attempt: usize,
        result: bool,
        node: NodeId,
        t: f64,
        bits: f64,
    ) -> usize {
        let (routes, mesh) = (&self.routes, self.mesh);
        let (path, latency) = self.route_cache[node.0].get_or_insert_with(|| {
            let path = routes.path_edges(node.0);
            let latency = path.iter().map(|&e| mesh.link(e).latency_s()).sum();
            (path.into(), latency)
        });
        let (path, latency) = (Rc::clone(path), *latency);
        let bits = bits.max(0.0);
        let fid = self.flows.len();
        let slots = self.grants.len();
        self.link_touched[node.0] = true;
        let active = bits > 0.0;
        if active {
            self.grants.resize(slots + path.len(), 0.0);
            for (i, &e) in path.iter().enumerate() {
                self.edge_flows[e].push((fid, slots + i));
                self.edge_load[e] += bits;
                self.dirty.push(e);
            }
        } else {
            // Nothing to serialise: deliver after propagation alone.
            self.queue.schedule(t + latency, MEv::Delivered { flow: fid });
        }
        self.flows.push(Flow {
            task,
            attempt,
            result,
            node: node.0,
            path,
            slots,
            bits,
            remaining: bits,
            rate: 0.0,
            last_update: t,
            started: t,
            latency,
            active,
        });
        self.touch_stamp.push(0);
        fid
    }

    /// Takes `fid` off the network: accrues its elapsed serialisation time
    /// to the worker's link-busy ledger, releases its share on every path
    /// edge, marks those edges dirty, and drops its pending completion.
    /// Idempotent.
    fn end_flow(&mut self, fid: usize, now: f64) {
        let f = &mut self.flows[fid];
        if !f.active {
            return;
        }
        f.active = false;
        let elapsed = (now - f.started).max(0.0);
        let node = f.node;
        let bits = f.bits;
        let path = Rc::clone(&f.path);
        self.completions.remove(fid);
        self.link_busy[node] += elapsed;
        for &e in path.iter() {
            // Order-preserving: the survivors' order decides the tickets
            // of same-instant rate changes.
            self.edge_flows[e].retain(|&(g, _)| g != fid);
            self.edge_load[e] -= bits;
            if self.edge_flows[e].is_empty() {
                self.edge_load[e] = 0.0;
            }
            self.dirty.push(e);
        }
    }

    /// Settles the network after a flow-set change. Pass 1 walks each
    /// distinct dirty edge once and rewrites the grant
    /// `capacity × (bits / load)` it gives each flow crossing it, collecting
    /// those flows in first-touch order. Pass 2 advances each touched flow
    /// under its old rate and re-grants it the minimum over its path's
    /// cached grants — the grants of its non-dirty edges were computed from
    /// loads that have not changed since, so the minimum sees exactly the
    /// operands a walk of the whole path would recompute. Only a bitwise
    /// rate change re-keys the flow's completion (drawing a fresh ticket);
    /// unaffected flows keep theirs untouched.
    ///
    /// Settling once per handled event is equivalent to settling after
    /// each individual flow change at that instant: intermediate
    /// settlements at the same timestamp advance flows by `dt = 0`, which
    /// is a no-op, so only the final rate grant matters.
    fn settle(&mut self, now: f64) {
        if self.dirty.is_empty() {
            return;
        }
        self.stamp += 1;
        let stamp = self.stamp;
        let mut dirty = std::mem::take(&mut self.dirty);
        let mut touched = std::mem::take(&mut self.touched);
        for &e in &dirty {
            if self.edge_stamp[e] == stamp {
                continue;
            }
            self.edge_stamp[e] = stamp;
            let capacity = self.mesh.link(e).bandwidth_bps();
            let load = self.edge_load[e];
            for &(fid, slot) in &self.edge_flows[e] {
                self.grants[slot] = capacity * (self.flows[fid].bits / load);
                if self.touch_stamp[fid] != stamp {
                    self.touch_stamp[fid] = stamp;
                    touched.push(fid);
                }
            }
        }
        for &fid in &touched {
            let f = &mut self.flows[fid];
            // Advance under the old rate. A flow created at t0 can see a
            // settlement at an earlier fault instant; it has not started
            // transferring yet, so its clock stays put.
            if now > f.last_update {
                f.remaining = (f.remaining - f.rate * (now - f.last_update)).max(0.0);
                f.last_update = now;
            }
            let mut rate = f64::INFINITY;
            for &r in &self.grants[f.slots..f.slots + f.path.len()] {
                if r < rate {
                    rate = r;
                }
            }
            if rate.to_bits() == f.rate.to_bits() {
                continue;
            }
            f.rate = rate;
            let fire = f.last_update + f.remaining / rate;
            assert!(
                fire + 1e-12 >= self.queue.now(),
                "flow completes in the past: {fire} < {}",
                self.queue.now()
            );
            let ticket = self.queue.ticket();
            self.completions.set(fid, fire, ticket);
        }
        dirty.clear();
        touched.clear();
        self.dirty = dirty;
        self.touched = touched;
        #[cfg(any(test, debug_assertions))]
        self.check_settled();
    }

    /// The settlement invariant, checked against the computation the grant
    /// cache replaced: every active flow's rate equals a fresh
    /// `min over path of capacity × (bits / load)` bit for bit, and it owns
    /// one pending completion at `last_update + remaining / rate` (up to
    /// the rounding of advancing `remaining` since the key was set);
    /// inactive flows own none.
    #[cfg(any(test, debug_assertions))]
    fn check_settled(&self) {
        for (fid, f) in self.flows.iter().enumerate() {
            let key = self.completions.key_of(fid);
            if !f.active {
                assert!(key.is_none(), "inactive flow {fid} still has a pending completion");
                continue;
            }
            let mut rate = f64::INFINITY;
            for &e in f.path.iter() {
                let r = self.mesh.link(e).bandwidth_bps() * (f.bits / self.edge_load[e]);
                if r < rate {
                    rate = r;
                }
            }
            assert_eq!(rate.to_bits(), f.rate.to_bits(), "flow {fid}: cached grants went stale");
            let (fire, _) = key.expect("an active flow owns a pending completion");
            let expected = f.last_update + f.remaining / f.rate;
            assert!(
                (fire - expected).abs() <= 1e-9 * expected.abs().max(1.0),
                "flow {fid} fires at {fire}, its rate says {expected}"
            );
        }
    }

    /// Heartbeat duration for `task` on `node`: retry-factor × the
    /// attempt's nominal PT — uncontended transfers at the current route's
    /// bottleneck bandwidth plus compute at advertised rates. Falls back
    /// to compute alone while the node is unreachable (the transfer cost
    /// is unknowable; the floor and factor keep the timer sane).
    fn timeout_of(&self, task: usize, node: NodeId) -> f64 {
        let spec = self.tasks[task];
        let compute =
            self.cluster.node(node).expect("validated node").compute_time(spec.input_bits);
        let nominal = if node == self.controller || !self.routes.reachable(node.0) {
            compute
        } else {
            self.mesh.nominal_transfer_time(&self.routes, node.0, spec.input_bits)
                + compute
                + self.mesh.nominal_transfer_time(&self.routes, node.0, spec.result_bits)
        };
        (self.config.retry.timeout_factor * nominal).max(self.config.retry.min_timeout_s)
    }

    fn dispatch(&mut self, task: usize, node: NodeId, t: f64, attempt: usize) {
        let spec = self.tasks[task];
        let nominal =
            self.cluster.node(node).expect("validated node").compute_time(spec.input_bits);
        self.dispatched_load[node.0] += nominal;
        self.resident[node.0] += spec.resource_demand;
        let flow = if node == self.controller {
            self.queue.schedule(t, MEv::InputArrived { task, attempt });
            None
        } else {
            Some(self.start_flow(task, attempt, false, node, t, spec.input_bits))
        };
        self.state[task] = Some(MTaskState {
            attempt,
            node,
            leg: Leg::InputTransfer,
            flow,
            interval: (t, t),
            aborted: false,
            resolved: false,
            completed: false,
            timeline: TaskTimeline {
                node,
                transfer_start: t,
                compute_start: 0.0,
                compute_end: 0.0,
                result_at: 0.0,
            },
        });
        self.attempts_used[task] = attempt;
        self.queue.schedule(t + self.timeout_of(task, node), MEv::Heartbeat { task, attempt });
    }

    /// Kills the current attempt: ends its in-flight flow (elapsed
    /// serialisation time stays accrued; the un-transferred remainder is
    /// never charged), refunds un-elapsed compute on a crash, releases
    /// residency, and leaves the attempt for the heartbeat to detect.
    fn abort_attempt(&mut self, task: usize, now: f64, cause: AbortCause) {
        let st = self.state[task].expect("abort of unscheduled task");
        match st.leg {
            Leg::InputTransfer | Leg::ResultTransfer => {
                if let Some(fid) = st.flow {
                    self.end_flow(fid, now);
                }
            }
            Leg::Computing => {
                if matches!(cause, AbortCause::Crash) {
                    let lost = st.interval.1 - st.interval.0.max(now);
                    if lost > 0.0 {
                        self.node_busy[st.node.0] -= lost;
                    }
                }
            }
            Leg::AwaitingLink => {
                self.waiting[st.node.0].retain(|&(t, _)| t != task);
            }
        }
        self.resident[st.node.0] -= self.tasks[task].resource_demand;
        self.state[task].as_mut().expect("present").aborted = true;
        self.failures.push(FailureRecord {
            time: now,
            kind: FailureKind::AttemptAborted { task, node: st.node, attempt: st.attempt },
        });
    }

    /// Mesh fault semantics. A crash takes out the node's *compute* — its
    /// resident attempts abort — but the node keeps forwarding transit
    /// flows (the radio survives the process). Topology damage is
    /// `LinkDown(n)`, which drops `n`'s current uplink edge: every flow
    /// crossing that edge aborts (whichever task it served) and routes are
    /// recomputed, possibly re-routing *around* the dead edge for flows
    /// started later.
    fn on_fault(&mut self, now: f64, kind: FaultKind) {
        match kind {
            FaultKind::Crash(n) => {
                self.failures.push(FailureRecord { time: now, kind: FailureKind::NodeCrashed(n) });
                if !self.down[n.0] {
                    self.down[n.0] = true;
                    for task in 0..self.tasks.len() {
                        let Some(st) = self.state[task] else { continue };
                        if st.node == n && !st.resolved && !st.aborted {
                            self.abort_attempt(task, now, AbortCause::Crash);
                        }
                    }
                    self.cpu_free[n.0] = now;
                    self.straggle[n.0] = 1.0;
                    self.waiting[n.0].clear();
                }
            }
            FaultKind::Recover(n) => {
                self.failures
                    .push(FailureRecord { time: now, kind: FailureKind::NodeRecovered(n) });
                if self.down[n.0] {
                    self.down[n.0] = false;
                    self.cpu_free[n.0] = now;
                }
            }
            FaultKind::LinkDown(n) => {
                self.failures.push(FailureRecord { time: now, kind: FailureKind::LinkWentDown(n) });
                if self.downed_uplink[n.0].is_none() {
                    if let Some(e) = self.routes.uplink_edge(n.0) {
                        self.downed_uplink[n.0] = Some(e);
                        self.edge_down[e] = true;
                        // Every flow crossing the dead edge dies with it.
                        let crossing = self.edge_flows[e].clone();
                        for (fid, _) in crossing {
                            let (task, attempt) = (self.flows[fid].task, self.flows[fid].attempt);
                            if self.live(task, attempt) {
                                self.abort_attempt(task, now, AbortCause::LinkLoss);
                            }
                        }
                        self.reroute();
                    }
                }
            }
            FaultKind::LinkUp(n) => {
                self.failures.push(FailureRecord { time: now, kind: FailureKind::LinkRestored(n) });
                if let Some(e) = self.downed_uplink[n.0].take() {
                    self.edge_down[e] = false;
                    self.reroute();
                    // Drain results parked behind the partition for every
                    // node the restore reconnected: ascending node id,
                    // FIFO within each node.
                    for v in 0..self.mesh.nodes() {
                        if self.waiting[v].is_empty() || !self.routes.reachable(v) {
                            continue;
                        }
                        let parked = std::mem::take(&mut self.waiting[v]);
                        for (task, attempt) in parked {
                            if !self.live(task, attempt) {
                                continue;
                            }
                            let fid = self.start_flow(
                                task,
                                attempt,
                                true,
                                NodeId(v),
                                now,
                                self.tasks[task].result_bits,
                            );
                            let s = self.state[task].as_mut().expect("live");
                            s.leg = Leg::ResultTransfer;
                            s.flow = Some(fid);
                            s.interval = (now, now);
                        }
                    }
                }
            }
            FaultKind::StragglerStart(n, factor) => {
                self.straggle[n.0] = factor;
            }
            FaultKind::StragglerEnd(n) => {
                self.straggle[n.0] = 1.0;
            }
        }
    }

    /// Input payload landed on the worker (or the controller-local leg
    /// fired): queue the compute, FIFO per node.
    fn begin_compute(&mut self, now: f64, task: usize, attempt: usize) {
        let node = self.state[task].expect("live").node;
        let free = &mut self.cpu_free[node.0];
        let start = free.max(now);
        let base =
            self.cluster.node(node).expect("validated").compute_time(self.tasks[task].input_bits);
        let dur = base * self.straggle[node.0];
        *free = start + dur;
        self.node_busy[node.0] += dur;
        self.node_touched[node.0] = true;
        let s = self.state[task].as_mut().expect("live");
        s.leg = Leg::Computing;
        s.flow = None;
        s.interval = (start, start + dur);
        s.timeline.compute_start = start;
        s.timeline.compute_end = start + dur;
        self.queue.schedule(start + dur, MEv::ComputeDone { task, attempt });
    }

    fn on_compute_done(&mut self, now: f64, task: usize, attempt: usize) {
        if !self.live(task, attempt) {
            return;
        }
        let node = self.state[task].expect("live").node;
        if node == self.controller {
            let s = self.state[task].as_mut().expect("live");
            s.leg = Leg::ResultTransfer;
            s.interval = (now, now);
            self.queue.schedule(now, MEv::ResultArrived { task, attempt });
        } else if !self.routes.reachable(node.0) {
            // Result computed but the node is partitioned off: park until
            // a LinkUp reconnects it.
            let s = self.state[task].as_mut().expect("live");
            s.leg = Leg::AwaitingLink;
            s.interval = (now, now);
            self.waiting[node.0].push((task, attempt));
        } else {
            let fid = self.start_flow(task, attempt, true, node, now, self.tasks[task].result_bits);
            let s = self.state[task].as_mut().expect("live");
            s.leg = Leg::ResultTransfer;
            s.flow = Some(fid);
            s.interval = (now, now);
        }
    }

    /// `fid`'s pending completion fired: its serialisation is done.
    fn on_flow_done(&mut self, now: f64, fid: usize) {
        let latency = self.flows[fid].latency;
        self.end_flow(fid, now);
        self.queue.schedule(now + latency, MEv::Delivered { flow: fid });
    }

    fn on_delivered(&mut self, now: f64, fid: usize) {
        let f = &self.flows[fid];
        let (task, attempt, result) = (f.task, f.attempt, f.result);
        if !self.live(task, attempt) {
            return;
        }
        if result {
            self.resolve_completed(now, task);
        } else {
            self.begin_compute(now, task, attempt);
        }
    }

    fn resolve_completed(&mut self, now: f64, task: usize) {
        let s = self.state[task].as_mut().expect("live");
        s.timeline.result_at = now;
        s.resolved = true;
        s.completed = true;
        self.final_timelines[task] = Some(s.timeline);
        self.last_resolution = self.last_resolution.max(now);
        self.pending -= 1;
    }

    fn on_heartbeat(&mut self, now: f64, task: usize, attempt: usize) {
        let Some(st) = self.state[task] else { return };
        if st.resolved || st.attempt != attempt {
            return;
        }
        if st.aborted {
            self.failures.push(FailureRecord {
                time: now,
                kind: FailureKind::TimeoutDetected { task, node: st.node, attempt },
            });
            self.retry_or_fail(task, now);
        } else if matches!(st.leg, Leg::AwaitingLink) && !self.routes.reachable(st.node.0) {
            // Result stranded behind a partition that outlived the
            // timeout: give up on this attempt and recompute elsewhere.
            self.abort_attempt(task, now, AbortCause::Strand);
            self.failures.push(FailureRecord {
                time: now,
                kind: FailureKind::TimeoutDetected { task, node: st.node, attempt },
            });
            self.retry_or_fail(task, now);
        } else {
            // Healthy in-flight work is never preempted: re-arm.
            self.queue
                .schedule(now + self.timeout_of(task, st.node), MEv::Heartbeat { task, attempt });
        }
    }

    fn retry_or_fail(&mut self, task: usize, now: f64) {
        let used = self.state[task].expect("scheduled").attempt;
        if used > self.config.retry.max_retries {
            self.fail_task(task, now);
        } else {
            let delay = self.config.retry.backoff_base_s * 2f64.powi(used as i32 - 1);
            self.queue.schedule(now + delay, MEv::Redispatch { task });
        }
    }

    fn fail_task(&mut self, task: usize, now: f64) {
        let used = self.state[task].expect("scheduled").attempt;
        let s = self.state[task].as_mut().expect("scheduled");
        s.resolved = true;
        self.failures.push(FailureRecord {
            time: now,
            kind: FailureKind::TaskFailed { task, attempts: used },
        });
        self.last_resolution = self.last_resolution.max(now);
        self.pending -= 1;
    }

    fn on_redispatch(&mut self, now: f64, task: usize) {
        let st = self.state[task].expect("scheduled");
        if st.resolved || !st.aborted {
            return;
        }
        let next = st.attempt + 1;
        let demand = self.tasks[task].resource_demand;
        // Deterministic target selection, as on the star: preference score
        // first, then least cumulative dispatched nominal compute seconds
        // among up nodes the controller can currently reach, ties broken
        // by ascending node id.
        let mut best: Option<(f64, f64, NodeId)> = None;
        for n in self.cluster.nodes() {
            let id = n.id();
            if self.down[id.0] || (id != self.controller && !self.routes.reachable(id.0)) {
                continue;
            }
            if self.config.enforce_capacity && self.resident[id.0] + demand > n.capacity() + 1e-9 {
                continue;
            }
            let score = self.prefs.score_of(id);
            let load = self.dispatched_load[id.0];
            let better = match best {
                None => true,
                Some((bs, bl, bid)) => {
                    score > bs || (score == bs && (load < bl || (load == bl && id < bid)))
                }
            };
            if better {
                best = Some((score, load, id));
            }
        }
        match best {
            Some((_, _, node)) => {
                self.failures.push(FailureRecord {
                    time: now,
                    kind: FailureKind::Redispatched { task, node, attempt: next },
                });
                self.dispatch(task, node, now, next);
            }
            None => self.fail_task(task, now),
        }
    }

    fn run(mut self, assignment: &NodeAssignment, schedule: &FaultSchedule) -> FaultReport {
        // Faults enter the queue first so that, at equal timestamps, a
        // fault takes effect before task events of the same instant.
        for (idx, ev) in schedule.events().iter().enumerate() {
            self.queue.schedule(ev.time, MEv::Fault(idx));
        }
        let t0 = self.config.partition_overhead_s;
        for i in 0..self.tasks.len() {
            if let Some(node) = assignment.node_of(i) {
                self.dispatch(i, node, t0, 1);
                self.pending += 1;
            }
        }
        // One settlement grants every t0 flow its initial rate.
        self.settle(t0);
        while self.pending > 0 {
            // The earlier of the next flow completion and the next queued
            // event, by (time, ticket) — one counter issues both tickets.
            if let Some((fire, fid)) = self.completions.first_before(self.queue.peek_key()) {
                self.queue.advance(fire);
                self.on_flow_done(fire, fid);
                self.settle(fire);
                continue;
            }
            let Some((now, ev)) = self.queue.pop_next() else { break };
            match ev {
                MEv::Fault(idx) => self.on_fault(now, schedule.events()[idx].kind),
                MEv::Delivered { flow } => self.on_delivered(now, flow),
                MEv::InputArrived { task, attempt } => {
                    if self.live(task, attempt) {
                        self.begin_compute(now, task, attempt);
                    }
                }
                MEv::ComputeDone { task, attempt } => self.on_compute_done(now, task, attempt),
                MEv::ResultArrived { task, attempt } => {
                    if self.live(task, attempt) {
                        self.resolve_completed(now, task);
                    }
                }
                MEv::Heartbeat { task, attempt } => self.on_heartbeat(now, task, attempt),
                MEv::Redispatch { task } => self.on_redispatch(now, task),
            }
            self.settle(now);
        }
        let n = self.mesh.nodes();
        FaultReport {
            processing_time: self.last_resolution + self.config.decision_overhead_s,
            timelines: self.final_timelines,
            completed: self
                .state
                .iter()
                .map(|s| s.map(|st| st.completed).unwrap_or(false))
                .collect(),
            attempts: self.attempts_used,
            failures: self.failures,
            node_busy: gather_busy(&self.node_busy, &self.node_touched),
            link_busy: gather_busy(&self.link_busy, &self.link_touched),
            down_at_end: (0..n).filter(|&v| self.down[v]).map(NodeId).collect(),
        }
    }
}

/// Simulates one allocation round under an injected [`FaultSchedule`], with
/// controller-side timeout detection, bounded retries and re-dispatch to
/// surviving nodes ([`RetryPolicy`]).
///
/// Fault semantics (DESIGN.md §9): a crash aborts every unfinished attempt
/// resident on the node (in-flight transfers, queued and executing
/// compute, parked results) and the node rejoins empty on recovery; a link
/// dropout aborts in-flight transfer legs and parks finished results until
/// restore; a straggler window multiplies compute legs starting inside it.
/// The controller detects lost attempts via per-attempt heartbeat timeouts
/// and re-dispatches after exponential backoff to the surviving node with
/// the least dispatched load (ties to the lowest id); exhausted retries
/// fail the task, which the round's decision then proceeds without.
///
/// The engine is single-threaded discrete-event simulation: results are
/// bit-identical at any `dcta-parallel` thread count, and with an empty
/// schedule the report matches [`simulate`] bitwise (heartbeat timers fire
/// only on lost attempts or after completion).
///
/// # Errors
///
/// See [`SimError`] variants: assignment validation as [`simulate`], plus
/// [`SimError::UnknownFaultNode`] / [`SimError::ControllerFault`] for bad
/// schedules and [`SimError::BadRetryPolicy`] for invalid policies.
pub fn simulate_with_faults(
    cluster: &Cluster,
    tasks: &[SimTask],
    assignment: &NodeAssignment,
    config: SimConfig,
    schedule: &FaultSchedule,
) -> Result<FaultReport, SimError> {
    simulate_with_faults_biased(
        cluster,
        tasks,
        assignment,
        config,
        schedule,
        &RedispatchPrefs::none(),
    )
}

/// [`simulate_with_faults`] with availability-biased re-dispatch targeting:
/// when the controller re-places an orphaned attempt, candidates with a
/// strictly higher [`RedispatchPrefs`] score win before the least-loaded
/// rule applies (score ties fall back to load, then ascending node id).
/// With empty prefs this is bit-identical to [`simulate_with_faults`].
///
/// # Errors
///
/// As [`simulate_with_faults`], plus [`SimError::BadRedispatchPrefs`] for
/// non-finite scores.
pub fn simulate_with_faults_biased(
    cluster: &Cluster,
    tasks: &[SimTask],
    assignment: &NodeAssignment,
    config: SimConfig,
    schedule: &FaultSchedule,
    prefs: &RedispatchPrefs,
) -> Result<FaultReport, SimError> {
    validate_assignment(cluster, tasks, assignment, config)?;
    config.retry.validate()?;
    prefs.validate()?;
    for ev in schedule.events() {
        let node = ev.kind.node();
        if cluster.node(node).is_none() {
            return Err(SimError::UnknownFaultNode { node });
        }
        if node == cluster.controller() {
            return Err(SimError::ControllerFault { node });
        }
    }
    if let NetTopology::Mesh(mesh) = cluster.topology() {
        validate_reachable(mesh, cluster, tasks, assignment)?;
        return Ok(
            MeshSim::new(cluster, mesh, tasks, config, prefs.clone()).run(assignment, schedule)
        );
    }

    let mut sim = FaultSim {
        cluster,
        tasks,
        config,
        controller: cluster.controller(),
        queue: CalendarQueue::new(),
        link_free: HashMap::new(),
        cpu_free: HashMap::new(),
        link_busy: HashMap::new(),
        node_busy: HashMap::new(),
        state: vec![None; tasks.len()],
        final_timelines: vec![None; tasks.len()],
        attempts_used: vec![0; tasks.len()],
        failures: Vec::new(),
        down: BTreeSet::new(),
        link_down: HashSet::new(),
        straggle: HashMap::new(),
        waiting: HashMap::new(),
        dispatched_load: HashMap::new(),
        resident: HashMap::new(),
        prefs: prefs.clone(),
        pending: 0,
        last_resolution: config.partition_overhead_s,
    };
    // Faults enter the queue first so that, at equal timestamps, a fault
    // takes effect before task events of the same instant (FIFO tie-break).
    for (idx, ev) in schedule.events().iter().enumerate() {
        sim.queue.schedule(ev.time, FEv::Fault(idx));
    }
    let t0 = config.partition_overhead_s;
    for i in 0..tasks.len() {
        if let Some(node) = assignment.node_of(i) {
            sim.dispatch(i, node, t0, 1);
            sim.pending += 1;
        }
    }
    while sim.pending > 0 {
        let Some((now, ev)) = sim.queue.pop_next() else { break };
        match ev {
            FEv::Fault(idx) => sim.on_fault(now, schedule.events()[idx].kind),
            FEv::InputArrived { task, attempt } => sim.on_input_arrived(now, task, attempt),
            FEv::ComputeDone { task, attempt } => sim.on_compute_done(now, task, attempt),
            FEv::ResultArrived { task, attempt } => sim.on_result_arrived(now, task, attempt),
            FEv::Heartbeat { task, attempt } => sim.on_heartbeat(now, task, attempt),
            FEv::Redispatch { task } => sim.on_redispatch(now, task),
        }
    }
    Ok(FaultReport {
        processing_time: sim.last_resolution + config.decision_overhead_s,
        timelines: sim.final_timelines,
        completed: sim.state.iter().map(|s| s.map(|st| st.completed).unwrap_or(false)).collect(),
        attempts: sim.attempts_used,
        failures: sim.failures,
        node_busy: sim.node_busy,
        link_busy: sim.link_busy,
        down_at_end: sim.down.into_iter().collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::node::DeviceModel;

    fn cfg() -> SimConfig {
        SimConfig { partition_overhead_s: 0.0, decision_overhead_s: 0.0, ..SimConfig::default() }
    }

    fn one_task(bits: f64) -> Vec<SimTask> {
        vec![SimTask::new(bits, bits / 100.0, 1.0).unwrap()]
    }

    #[test]
    fn task_validation() {
        assert!(SimTask::new(-1.0, 0.0, 0.0).is_err());
        assert!(SimTask::new(0.0, f64::NAN, 0.0).is_err());
        assert!(SimTask::new(1.0, 1.0, 1.0).is_ok());
    }

    #[test]
    fn single_task_timeline_is_additive() {
        let c = Cluster::paper_testbed().unwrap();
        let tasks = one_task(1e6);
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(1)));
        let r = simulate(&c, &tasks, &a, cfg()).unwrap();
        let tl = r.timelines[0].unwrap();
        let link = c.network().expect("star simulation path").transfer_time(NodeId(1), 1e6);
        let compute = c.node(NodeId(1)).unwrap().compute_time(1e6);
        let back = c.network().expect("star simulation path").transfer_time(NodeId(1), 1e4);
        assert!((tl.compute_start - link).abs() < 1e-9);
        assert!((tl.compute_end - (link + compute)).abs() < 1e-9);
        assert!((r.processing_time - (link + compute + back)).abs() < 1e-9);
    }

    #[test]
    fn controller_local_task_skips_network() {
        let c = Cluster::paper_testbed().unwrap();
        let tasks = one_task(1e6);
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(0)));
        let r = simulate(&c, &tasks, &a, cfg()).unwrap();
        let compute = c.node(NodeId(0)).unwrap().compute_time(1e6);
        assert!((r.processing_time - compute).abs() < 1e-9);
        assert!(r.link_busy.is_empty());
    }

    #[test]
    fn same_node_tasks_serialize_different_nodes_parallelize() {
        let c = Cluster::paper_testbed().unwrap();
        let tasks =
            vec![SimTask::new(1e6, 0.0, 1.0).unwrap(), SimTask::new(1e6, 0.0, 1.0).unwrap()];
        // Both on node 1.
        let mut serial = NodeAssignment::empty(2);
        serial.assign(0, Some(NodeId(1)));
        serial.assign(1, Some(NodeId(1)));
        let rs = simulate(&c, &tasks, &serial, cfg()).unwrap();
        // Split over nodes 1 and 4 (both A+ class? node 4 is A+ too: 1,4,7).
        let mut parallel = NodeAssignment::empty(2);
        parallel.assign(0, Some(NodeId(1)));
        parallel.assign(1, Some(NodeId(4)));
        let rp = simulate(&c, &tasks, &parallel, cfg()).unwrap();
        assert!(rp.processing_time < rs.processing_time);
    }

    #[test]
    fn empty_assignment_costs_only_overheads() {
        let c = Cluster::paper_testbed().unwrap();
        let tasks = one_task(1e6);
        let a = NodeAssignment::empty(1);
        let r = simulate(
            &c,
            &tasks,
            &a,
            SimConfig {
                partition_overhead_s: 0.5,
                decision_overhead_s: 0.25,
                ..SimConfig::default()
            },
        )
        .unwrap();
        assert!((r.processing_time - 0.75).abs() < 1e-12);
        assert_eq!(r.makespan(), 0.0);
    }

    #[test]
    fn capacity_enforcement() {
        let c = Cluster::paper_testbed().unwrap();
        let cap = c.node(NodeId(1)).unwrap().capacity();
        let tasks = vec![SimTask::new(1.0, 0.0, cap + 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(1)));
        assert!(matches!(simulate(&c, &tasks, &a, cfg()), Err(SimError::OverCapacity { .. })));
        // Disabled enforcement lets it through.
        let relaxed = SimConfig { enforce_capacity: false, ..cfg() };
        assert!(simulate(&c, &tasks, &a, relaxed).is_ok());
    }

    #[test]
    fn unknown_node_and_length_mismatch() {
        let c = Cluster::paper_testbed().unwrap();
        let tasks = one_task(1.0);
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(77)));
        assert!(matches!(
            simulate(&c, &tasks, &a, cfg()),
            Err(SimError::UnknownNode { task: 0, .. })
        ));
        let a2 = NodeAssignment::empty(2);
        assert!(matches!(
            simulate(&c, &tasks, &a2, cfg()),
            Err(SimError::LengthMismatch { tasks: 1, assignments: 2 })
        ));
    }

    #[test]
    fn faster_node_finishes_sooner() {
        let c = Cluster::paper_testbed().unwrap();
        let tasks = one_task(1e8);
        // Node 1 = A+ (slowest Pi), node 3 = B+ (fastest Pi).
        assert_eq!(c.node(NodeId(1)).unwrap().model(), DeviceModel::RaspberryPiAPlus);
        assert_eq!(c.node(NodeId(3)).unwrap().model(), DeviceModel::RaspberryPiBPlus);
        let mut slow = NodeAssignment::empty(1);
        slow.assign(0, Some(NodeId(1)));
        let mut fast = NodeAssignment::empty(1);
        fast.assign(0, Some(NodeId(3)));
        let rs = simulate(&c, &tasks, &slow, cfg()).unwrap();
        let rf = simulate(&c, &tasks, &fast, cfg()).unwrap();
        assert!(rf.processing_time < rs.processing_time);
    }

    #[test]
    fn bandwidth_scaling_reduces_processing_time() {
        let mut c = Cluster::paper_testbed().unwrap();
        let tasks = one_task(5e8);
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(1)));
        let before = simulate(&c, &tasks, &a, cfg()).unwrap().processing_time;
        c.network_mut().expect("star simulation path").scale_bandwidth(4.0);
        let after = simulate(&c, &tasks, &a, cfg()).unwrap().processing_time;
        assert!(after < before);
    }

    #[test]
    fn busy_accounting_sums_durations() {
        let c = Cluster::paper_testbed().unwrap();
        let tasks =
            vec![SimTask::new(1e6, 1e4, 1.0).unwrap(), SimTask::new(2e6, 1e4, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(2);
        a.assign(0, Some(NodeId(2)));
        a.assign(1, Some(NodeId(2)));
        let r = simulate(&c, &tasks, &a, cfg()).unwrap();
        let expected_compute = c.node(NodeId(2)).unwrap().compute_time(1e6)
            + c.node(NodeId(2)).unwrap().compute_time(2e6);
        assert!((r.node_busy[&NodeId(2)] - expected_compute).abs() < 1e-9);
        let expected_link =
            c.network().expect("star simulation path").transfer_time(NodeId(2), 1e6)
                + c.network().expect("star simulation path").transfer_time(NodeId(2), 2e6)
                + 2.0 * c.network().expect("star simulation path").transfer_time(NodeId(2), 1e4);
        assert!((r.link_busy[&NodeId(2)] - expected_link).abs() < 1e-9);
    }

    #[test]
    fn results_share_the_link_with_inputs() {
        // Large result of task 0 must delay the input of task 1 when both
        // use the same link... actually inputs are all enqueued first (FIFO
        // at t0), so the *result* waits for the second input. Verify that
        // ordering.
        let c = Cluster::paper_testbed().unwrap();
        let tasks = vec![
            SimTask::new(1e4, 5e7, 1.0).unwrap(), // tiny input, huge result
            SimTask::new(5e7, 1e3, 1.0).unwrap(), // huge input
        ];
        let mut a = NodeAssignment::empty(2);
        a.assign(0, Some(NodeId(1)));
        a.assign(1, Some(NodeId(1)));
        let r = simulate(&c, &tasks, &a, cfg()).unwrap();
        let tl0 = r.timelines[0].unwrap();
        let tl1 = r.timelines[1].unwrap();
        // Task 0 computes quickly, but its result transfer cannot start
        // before task 1's input finished occupying the link.
        let input1_done = tl1.compute_start;
        assert!(tl0.result_at >= input1_done);
    }

    /// Thread-invariance tests flip the process-wide override; serialise.
    static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// A round big enough to cross [`PAR_MIN_SCHEDULED`]: varied task
    /// sizes, round-robin over every node including the controller, plus a
    /// sprinkling of unscheduled tasks.
    fn big_round(n: usize) -> (Cluster, Vec<SimTask>, NodeAssignment) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let c = Cluster::paper_testbed().unwrap();
        let ids: Vec<NodeId> = c.nodes().iter().map(|node| node.id()).collect();
        let mut rng = StdRng::seed_from_u64(0xE5D1);
        let tasks: Vec<SimTask> = (0..n)
            .map(|_| SimTask::new(rng.gen_range(1e3..5e6), rng.gen_range(1e2..1e5), 0.0).unwrap())
            .collect();
        let mut a = NodeAssignment::empty(n);
        for i in 0..n {
            if i % 17 == 11 {
                continue; // leave some tasks unscheduled
            }
            a.assign(i, Some(ids[i % ids.len()]));
        }
        (c, tasks, a)
    }

    fn report_bits(r: &SimReport) -> Vec<u64> {
        let mut bits = vec![r.processing_time.to_bits()];
        for tl in r.timelines.iter().flatten() {
            bits.extend([
                tl.transfer_start.to_bits(),
                tl.compute_start.to_bits(),
                tl.compute_end.to_bits(),
                tl.result_at.to_bits(),
            ]);
        }
        let mut busy: Vec<(NodeId, u64, Option<u64>)> = r
            .node_busy
            .iter()
            .map(|(&id, b)| (id, b.to_bits(), r.link_busy.get(&id).map(|l| l.to_bits())))
            .collect();
        busy.sort_by_key(|e| e.0 .0);
        for (id, nb, lb) in busy {
            bits.push(id.0 as u64);
            bits.push(nb);
            bits.push(lb.unwrap_or(u64::MAX));
        }
        bits
    }

    #[test]
    fn per_node_fan_out_matches_event_loop_bitwise() {
        let (c, tasks, a) = big_round(400);
        let config = SimConfig::default(); // non-zero overheads
        let reference = simulate_event_loop(&c, &tasks, &a, config);
        let fanned = simulate_per_node(&c, &tasks, &a, config);
        assert_eq!(report_bits(&fanned), report_bits(&reference));
        assert_eq!(fanned, reference);
        // And via the public entry point, which routes to the fan-out at
        // this size.
        assert!(a.scheduled_count() >= PAR_MIN_SCHEDULED);
        let public = simulate(&c, &tasks, &a, config).unwrap();
        assert_eq!(report_bits(&public), report_bits(&reference));
    }

    #[test]
    fn per_node_fan_out_parity_on_small_and_skewed_rounds() {
        let c = Cluster::paper_testbed().unwrap();
        // Everything on one worker (single group), plus a controller task.
        let tasks = vec![
            SimTask::new(1e6, 1e4, 0.0).unwrap(),
            SimTask::new(2e6, 1e3, 0.0).unwrap(),
            SimTask::new(5e5, 5e4, 0.0).unwrap(),
        ];
        let mut a = NodeAssignment::empty(3);
        a.assign(0, Some(NodeId(2)));
        a.assign(1, Some(NodeId(0)));
        a.assign(2, Some(NodeId(2)));
        let config = SimConfig::default();
        let reference = simulate_event_loop(&c, &tasks, &a, config);
        let fanned = simulate_per_node(&c, &tasks, &a, config);
        assert_eq!(report_bits(&fanned), report_bits(&reference));
        // Empty assignment.
        let empty = NodeAssignment::empty(3);
        assert_eq!(
            simulate_per_node(&c, &tasks, &empty, config),
            simulate_event_loop(&c, &tasks, &empty, config)
        );
    }

    #[test]
    fn parallel_simulate_is_thread_count_invariant() {
        let _g = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (c, tasks, a) = big_round(600);
        let config = SimConfig::default();
        let reference = {
            let _t = parallel::ScopedThreads::new(1);
            simulate(&c, &tasks, &a, config).unwrap()
        };
        for threads in [2usize, 8] {
            let _t = parallel::ScopedThreads::new(threads);
            let got = simulate(&c, &tasks, &a, config).unwrap();
            assert_eq!(report_bits(&got), report_bits(&reference), "threads {threads}");
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::faults::FaultSchedule;

    fn cfg() -> SimConfig {
        SimConfig { partition_overhead_s: 0.0, decision_overhead_s: 0.0, ..SimConfig::default() }
    }

    fn has_kind(report: &FaultReport, pred: impl Fn(&FailureKind) -> bool) -> bool {
        report.failures.iter().any(|r| pred(&r.kind))
    }

    #[test]
    fn empty_schedule_is_bitwise_identical_to_simulate() {
        let c = Cluster::paper_testbed().unwrap();
        let tasks: Vec<SimTask> =
            (1..=6).map(|i| SimTask::new(i as f64 * 5e5, 1e4, 1.0).unwrap()).collect();
        let mut a = NodeAssignment::empty(6);
        for i in 0..6 {
            a.assign(i, Some(NodeId(1 + i % 3)));
        }
        let plain = simulate(&c, &tasks, &a, SimConfig::default()).unwrap();
        let faulty =
            simulate_with_faults(&c, &tasks, &a, SimConfig::default(), &FaultSchedule::new())
                .unwrap();
        assert_eq!(plain.processing_time.to_bits(), faulty.processing_time.to_bits());
        assert_eq!(plain.timelines, faulty.timelines);
        assert_eq!(plain.node_busy, faulty.node_busy);
        assert_eq!(plain.link_busy, faulty.link_busy);
        assert!(faulty.failures.is_empty());
        assert_eq!(faulty.attempts, vec![1; 6]);
    }

    #[test]
    fn mid_compute_crash_is_detected_and_redispatched() {
        let c = Cluster::paper_testbed().unwrap();
        // Input transfer lands ≈0.168s, compute on the A+ spans ≈[0.168, 0.643].
        let tasks = vec![SimTask::new(1e6, 1e4, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(1)));
        let schedule = FaultSchedule::new().with_crash(NodeId(1), 0.3).unwrap();
        let r = simulate_with_faults(&c, &tasks, &a, cfg(), &schedule).unwrap();
        assert_eq!(r.completed_count(), 1);
        assert_eq!(r.attempts, vec![2], "one retry after the crash");
        assert!(has_kind(&r, |k| matches!(k, FailureKind::NodeCrashed(n) if *n == NodeId(1))));
        assert!(has_kind(&r, |k| matches!(k, FailureKind::AttemptAborted { task: 0, .. })));
        assert!(has_kind(&r, |k| matches!(k, FailureKind::TimeoutDetected { task: 0, .. })));
        assert!(has_kind(&r, |k| matches!(k, FailureKind::Redispatched { task: 0, .. })));
        assert_eq!(r.down_at_end, vec![NodeId(1)]);
        // The survivor attempt ran on a different node.
        assert_ne!(r.timelines[0].unwrap().node, NodeId(1));
        let healthy = simulate(&c, &tasks, &a, cfg()).unwrap();
        assert!(r.processing_time > healthy.processing_time, "recovery is not free");
    }

    #[test]
    fn no_retry_policy_fails_the_task_on_first_loss() {
        let c = Cluster::paper_testbed().unwrap();
        let tasks = vec![SimTask::new(1e6, 1e4, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(1)));
        let schedule = FaultSchedule::new().with_crash(NodeId(1), 0.3).unwrap();
        let mut config = cfg();
        config.retry = RetryPolicy::no_retry();
        let r = simulate_with_faults(&c, &tasks, &a, config, &schedule).unwrap();
        assert_eq!(r.completed_count(), 0);
        assert_eq!(r.failed_tasks(), vec![0]);
        assert!(r.timelines[0].is_none());
        assert!(has_kind(&r, |k| matches!(k, FailureKind::TaskFailed { task: 0, attempts: 1 })));
    }

    #[test]
    fn recovered_node_accepts_redispatch() {
        let c = Cluster::testbed_with_workers(1).unwrap();
        // Decoy keeps the controller's load ledger high so the retry
        // prefers the recovered worker.
        let tasks =
            vec![SimTask::new(1e6, 1e4, 1.0).unwrap(), SimTask::new(1e8, 0.0, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(2);
        a.assign(0, Some(NodeId(1)));
        a.assign(1, Some(NodeId(0)));
        let schedule = FaultSchedule::new()
            .with_crash(NodeId(1), 0.3)
            .unwrap()
            .with_recovery(NodeId(1), 0.4)
            .unwrap();
        let r = simulate_with_faults(&c, &tasks, &a, cfg(), &schedule).unwrap();
        assert_eq!(r.completed_count(), 2);
        assert!(has_kind(
            &r,
            |k| matches!(k, FailureKind::Redispatched { task: 0, node, .. } if *node == NodeId(1))
        ));
        assert!(has_kind(&r, |k| matches!(k, FailureKind::NodeRecovered(n) if *n == NodeId(1))));
        assert!(r.down_at_end.is_empty());
        assert_eq!(r.timelines[0].unwrap().node, NodeId(1));
    }

    #[test]
    fn redispatch_prefers_lowest_node_id_on_load_ties() {
        let c = Cluster::testbed_with_workers(3).unwrap();
        let tasks = vec![SimTask::new(1e6, 1e4, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(1)));
        let schedule = FaultSchedule::new().with_crash(NodeId(1), 0.3).unwrap();
        let r = simulate_with_faults(&c, &tasks, &a, cfg(), &schedule).unwrap();
        assert_eq!(r.completed_count(), 1);
        // Nodes 0, 2 and 3 all carry zero dispatched load when the retry
        // fires; the tie breaks by ascending node id.
        assert!(has_kind(
            &r,
            |k| matches!(k, FailureKind::Redispatched { task: 0, node, .. } if *node == NodeId(0))
        ));
        assert_eq!(r.timelines[0].unwrap().node, NodeId(0));
    }

    #[test]
    fn availability_bias_overrides_the_least_loaded_rule() {
        let c = Cluster::testbed_with_workers(3).unwrap();
        // The decoy keeps node 3 the *most* loaded candidate, so only the
        // preference score can send the retry there.
        let tasks =
            vec![SimTask::new(1e6, 1e4, 1.0).unwrap(), SimTask::new(1e8, 0.0, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(2);
        a.assign(0, Some(NodeId(1)));
        a.assign(1, Some(NodeId(3)));
        let schedule = FaultSchedule::new().with_crash(NodeId(1), 0.3).unwrap();
        let prefs = RedispatchPrefs::from_scores(vec![0.1, 0.1, 0.1, 0.9]);
        let r = simulate_with_faults_biased(&c, &tasks, &a, cfg(), &schedule, &prefs).unwrap();
        assert!(has_kind(
            &r,
            |k| matches!(k, FailureKind::Redispatched { task: 0, node, .. } if *node == NodeId(3))
        ));
        assert_eq!(r.timelines[0].unwrap().node, NodeId(3));
    }

    #[test]
    fn uniform_bias_scores_degenerate_to_the_plain_rule() {
        let c = Cluster::testbed_with_workers(3).unwrap();
        let tasks = vec![SimTask::new(1e6, 1e4, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(1)));
        let schedule = FaultSchedule::new().with_crash(NodeId(1), 0.3).unwrap();
        let plain = simulate_with_faults(&c, &tasks, &a, cfg(), &schedule).unwrap();
        let prefs = RedispatchPrefs::from_scores(vec![0.5; 4]);
        let biased = simulate_with_faults_biased(&c, &tasks, &a, cfg(), &schedule, &prefs).unwrap();
        assert_eq!(plain.processing_time.to_bits(), biased.processing_time.to_bits());
        assert_eq!(plain.timelines, biased.timelines);
        assert_eq!(plain.failures, biased.failures);
    }

    #[test]
    fn non_finite_bias_scores_are_rejected() {
        let c = Cluster::testbed_with_workers(1).unwrap();
        let tasks = vec![SimTask::new(1e6, 1e4, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(1)));
        let prefs = RedispatchPrefs::from_scores(vec![0.5, f64::NAN]);
        let err = simulate_with_faults_biased(&c, &tasks, &a, cfg(), &FaultSchedule::new(), &prefs)
            .unwrap_err();
        assert!(matches!(err, SimError::BadRedispatchPrefs));
    }

    #[test]
    fn short_link_outage_parks_the_result_until_restore() {
        let c = Cluster::paper_testbed().unwrap();
        let tasks = vec![SimTask::new(1e6, 1e4, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(1)));
        // Down across the compute-done instant (≈0.643); restored well
        // before the heartbeat (≈1.94).
        let schedule = FaultSchedule::new().with_link_outage(NodeId(1), 0.5, 1.0).unwrap();
        let r = simulate_with_faults(&c, &tasks, &a, cfg(), &schedule).unwrap();
        assert_eq!(r.completed_count(), 1);
        assert_eq!(r.attempts, vec![1], "no retry needed: the result waited out the outage");
        assert!(r.timelines[0].unwrap().result_at >= 1.0);
        assert!(has_kind(&r, |k| matches!(k, FailureKind::LinkWentDown(_))));
        assert!(has_kind(&r, |k| matches!(k, FailureKind::LinkRestored(_))));
        assert!(!has_kind(&r, |k| matches!(k, FailureKind::AttemptAborted { .. })));
    }

    #[test]
    fn long_link_outage_strands_the_result_and_triggers_retry() {
        let c = Cluster::paper_testbed().unwrap();
        let tasks = vec![SimTask::new(1e6, 1e4, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(1)));
        let schedule = FaultSchedule::new().with_link_outage(NodeId(1), 0.5, 100.0).unwrap();
        let r = simulate_with_faults(&c, &tasks, &a, cfg(), &schedule).unwrap();
        assert_eq!(r.completed_count(), 1);
        assert_eq!(r.attempts, vec![2]);
        assert_ne!(r.timelines[0].unwrap().node, NodeId(1));
        assert!(has_kind(&r, |k| matches!(k, FailureKind::AttemptAborted { task: 0, .. })));
        assert!(r.processing_time < 100.0, "retry beat waiting for the link");
    }

    #[test]
    fn straggler_window_multiplies_compute() {
        let c = Cluster::paper_testbed().unwrap();
        let tasks = vec![SimTask::new(1e6, 1e4, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(1)));
        let schedule = FaultSchedule::new().with_straggler(NodeId(1), 0.0, 10.0, 3.0).unwrap();
        let r = simulate_with_faults(&c, &tasks, &a, cfg(), &schedule).unwrap();
        let tl = r.timelines[0].unwrap();
        let nominal = c.node(NodeId(1)).unwrap().compute_time(1e6);
        assert!((tl.compute_end - tl.compute_start - 3.0 * nominal).abs() < 1e-9);
        assert_eq!(r.attempts, vec![1], "a straggler is slow, not lost");
    }

    #[test]
    fn retries_exhaust_when_every_host_keeps_crashing() {
        let c = Cluster::testbed_with_workers(2).unwrap();
        let tasks =
            vec![SimTask::new(1e6, 1e4, 1.0).unwrap(), SimTask::new(1e8, 0.0, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(2);
        a.assign(0, Some(NodeId(1)));
        a.assign(1, Some(NodeId(0))); // decoy load keeps the controller unattractive
        let mut config = cfg();
        config.retry.max_retries = 1;
        // First host dies mid-compute; the retry lands on node 2 (least
        // load), which dies mid-compute too.
        let schedule = FaultSchedule::new()
            .with_crash(NodeId(1), 0.3)
            .unwrap()
            .with_crash(NodeId(2), 2.2)
            .unwrap();
        let r = simulate_with_faults(&c, &tasks, &a, config, &schedule).unwrap();
        assert_eq!(r.failed_tasks(), vec![0]);
        assert_eq!(r.attempts[0], 2);
        assert!(r.completed[1], "the decoy task is unaffected");
        assert!(has_kind(&r, |k| matches!(k, FailureKind::TaskFailed { task: 0, attempts: 2 })));
        assert_eq!(r.down_at_end, vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn fault_schedule_validation() {
        let c = Cluster::paper_testbed().unwrap();
        let tasks = vec![SimTask::new(1e6, 1e4, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(1)));
        let ghost = FaultSchedule::new().with_crash(NodeId(77), 1.0).unwrap();
        assert!(matches!(
            simulate_with_faults(&c, &tasks, &a, cfg(), &ghost),
            Err(SimError::UnknownFaultNode { node: NodeId(77) })
        ));
        let coup = FaultSchedule::new().with_crash(NodeId(0), 1.0).unwrap();
        assert!(matches!(
            simulate_with_faults(&c, &tasks, &a, cfg(), &coup),
            Err(SimError::ControllerFault { node: NodeId(0) })
        ));
        let mut config = cfg();
        config.retry.min_timeout_s = 0.0;
        assert!(matches!(
            simulate_with_faults(&c, &tasks, &a, config, &FaultSchedule::new()),
            Err(SimError::BadRetryPolicy { .. })
        ));
        // Bad assignments fail through the shared validator.
        let mut ghost_assignment = NodeAssignment::empty(1);
        ghost_assignment.assign(0, Some(NodeId(42)));
        assert!(matches!(
            simulate_with_faults(&c, &tasks, &ghost_assignment, cfg(), &FaultSchedule::new()),
            Err(SimError::UnknownNode { task: 0, node: NodeId(42) })
        ));
    }

    #[test]
    fn crash_refunds_lost_compute_reservations() {
        let c = Cluster::paper_testbed().unwrap();
        // Two tasks queued on node 1; crash kills both (one executing, one
        // queued) and both re-run elsewhere.
        let tasks =
            vec![SimTask::new(1e6, 1e4, 1.0).unwrap(), SimTask::new(1e6, 1e4, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(2);
        a.assign(0, Some(NodeId(1)));
        a.assign(1, Some(NodeId(1)));
        let schedule = FaultSchedule::new().with_crash(NodeId(1), 0.3).unwrap();
        let r = simulate_with_faults(&c, &tasks, &a, cfg(), &schedule).unwrap();
        assert_eq!(r.completed_count(), 2);
        // Node 1's committed compute is only what elapsed before the crash:
        // compute started ≈0.168 and died at 0.3.
        let burned = r.node_busy.get(&NodeId(1)).copied().unwrap_or(0.0);
        assert!((0.0..0.2).contains(&burned), "refund missing: {burned}");
    }
}

#[cfg(test)]
mod medium_tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::network::{MediumMode, StarNetwork};
    use crate::node::{DeviceModel, Node};

    fn shared_cluster() -> Cluster {
        let nodes: Vec<Node> = (0..4)
            .map(|i| {
                Node::new(
                    NodeId(i),
                    if i == 0 { DeviceModel::Laptop } else { DeviceModel::RaspberryPiB },
                )
            })
            .collect();
        let net = StarNetwork::uniform(1e6, 0.0).unwrap().with_medium(MediumMode::SharedMedium);
        Cluster::new(nodes, net, NodeId(0)).unwrap()
    }

    #[test]
    fn shared_medium_serialises_cross_node_transfers() {
        let per_link = Cluster::paper_testbed().unwrap();
        let shared = shared_cluster();
        // Three transfer-heavy tasks on three different nodes.
        let tasks: Vec<SimTask> = (0..3).map(|_| SimTask::new(1e6, 0.0, 1.0).unwrap()).collect();
        let mut a = NodeAssignment::empty(3);
        for i in 0..3 {
            a.assign(i, Some(NodeId(i + 1)));
        }
        let cfg = SimConfig {
            partition_overhead_s: 0.0,
            decision_overhead_s: 0.0,
            enforce_capacity: false,
            ..SimConfig::default()
        };
        let r_shared = simulate(&shared, &tasks, &a, cfg).unwrap();
        // Under the shared medium, input transfers cannot overlap: the last
        // task's compute cannot start before 3 transfer times have elapsed.
        let third_start =
            r_shared.timelines.iter().flatten().map(|t| t.compute_start).fold(0.0f64, f64::max);
        let one_transfer =
            shared.network().expect("star simulation path").transfer_time(NodeId(1), 1e6);
        assert!(
            third_start >= 3.0 * one_transfer - 1e-9,
            "transfers overlapped: {third_start} < {}",
            3.0 * one_transfer
        );
        // Per-node links let them overlap.
        let r_par = simulate(&per_link, &tasks, &a, cfg).unwrap();
        let par_third =
            r_par.timelines.iter().flatten().map(|t| t.compute_start).fold(0.0f64, f64::max);
        let par_one =
            per_link.network().expect("star simulation path").transfer_time(NodeId(1), 1e6);
        assert!(par_third < 2.0 * par_one, "per-link transfers did not overlap");
    }

    #[test]
    fn single_node_workload_is_mode_invariant() {
        // All tasks on one node: both media serialise identically.
        let shared = shared_cluster();
        let mut per_link_cluster = shared_cluster();
        *per_link_cluster.network_mut().expect("star simulation path") =
            StarNetwork::uniform(1e6, 0.0).unwrap().with_medium(MediumMode::PerNodeLink);
        let tasks: Vec<SimTask> = (0..3).map(|_| SimTask::new(1e6, 1e4, 1.0).unwrap()).collect();
        let mut a = NodeAssignment::empty(3);
        for i in 0..3 {
            a.assign(i, Some(NodeId(1)));
        }
        let cfg = SimConfig::default();
        let r1 = simulate(&shared, &tasks, &a, cfg).unwrap();
        let r2 = simulate(&per_link_cluster, &tasks, &a, cfg).unwrap();
        assert!((r1.processing_time - r2.processing_time).abs() < 1e-9);
    }
}

#[cfg(test)]
mod mesh_tests {
    use super::*;
    use crate::cluster::{Cluster, MeshSpec};
    use crate::faults::FaultSchedule;
    use crate::network::{Link, MeshNetwork};
    use crate::node::{DeviceModel, Node};

    fn cfg() -> SimConfig {
        SimConfig { partition_overhead_s: 0.0, decision_overhead_s: 0.0, ..SimConfig::default() }
    }

    /// Controller(0) — 1 — 2 line: the first hop is shared by every
    /// transfer, the second only by node 2's.
    fn line3(cap01: f64, cap12: f64, lat: f64) -> Cluster {
        let mut b = MeshNetwork::builder(3);
        b.add_edge(0, 1, Link::new(cap01, lat).unwrap()).unwrap();
        b.add_edge(1, 2, Link::new(cap12, lat).unwrap()).unwrap();
        let nodes = vec![
            Node::new(NodeId(0), DeviceModel::Laptop),
            Node::new(NodeId(1), DeviceModel::RaspberryPiB),
            Node::new(NodeId(2), DeviceModel::RaspberryPiB),
        ];
        Cluster::new_mesh(nodes, b.build(), NodeId(0)).unwrap()
    }

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn lone_flow_gets_full_bottleneck_capacity() {
        let c = line3(1e6, 2e6, 0.01);
        let tasks = vec![SimTask::new(1e6, 0.0, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(2)));
        let r = simulate(&c, &tasks, &a, cfg()).unwrap();
        let tl = r.timelines[0].unwrap();
        // A lone flow's share is exactly 1.0 on both hops, so it
        // serialises at the bottleneck (1e6 bps) and lands after the two
        // hops' propagation latency.
        assert_eq!(tl.transfer_start, 0.0);
        approx(tl.compute_start, 1.0 + 0.02);
        // The zero-bit result skips the fluid phase: pure path latency.
        approx(tl.result_at, tl.compute_end + 0.02);
    }

    #[test]
    fn two_flow_split_matches_closed_form() {
        let c = line3(1e6, 1e6, 0.0);
        let tasks =
            vec![SimTask::new(1e6, 0.0, 1.0).unwrap(), SimTask::new(1e6, 0.0, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(2);
        a.assign(0, Some(NodeId(1)));
        a.assign(1, Some(NodeId(2)));
        let r = simulate(&c, &tasks, &a, cfg()).unwrap();
        // Both flows cross the first hop with equal weights: each is
        // granted cap/2 = 0.5e6 bps, so both 1e6-bit payloads land at 2.0.
        approx(r.timelines[0].unwrap().compute_start, 2.0);
        approx(r.timelines[1].unwrap().compute_start, 2.0);
        // Alone, the same payload lands in half the time.
        let mut solo = NodeAssignment::empty(2);
        solo.assign(0, Some(NodeId(1)));
        let rs = simulate(&c, &tasks, &solo, cfg()).unwrap();
        approx(rs.timelines[0].unwrap().compute_start, 1.0);
    }

    #[test]
    fn three_flow_split_takes_min_over_path() {
        let c = line3(6e6, 0.5e6, 0.0);
        let tasks = vec![
            SimTask::new(3e6, 0.0, 1.0).unwrap(),
            SimTask::new(2e6, 0.0, 1.0).unwrap(),
            SimTask::new(1e6, 0.0, 1.0).unwrap(),
        ];
        let mut a = NodeAssignment::empty(3);
        a.assign(0, Some(NodeId(1)));
        a.assign(1, Some(NodeId(1)));
        a.assign(2, Some(NodeId(2)));
        let r = simulate(&c, &tasks, &a, cfg()).unwrap();
        // First hop load = 6e6: shares are 3e6/2e6/1e6 bps — the two
        // node-1 payloads land together at 1.0. Node 2's flow is capped by
        // its second hop (0.5e6 < its 1e6 first-hop share) and lands at 2.0.
        let tl0 = r.timelines[0].unwrap();
        let tl1 = r.timelines[1].unwrap();
        approx(tl0.compute_start, 1.0);
        approx(r.timelines[2].unwrap().compute_start, 2.0);
        // Simultaneous landings compute FIFO in task order.
        assert_eq!(tl1.compute_start.to_bits(), tl0.compute_end.to_bits());
    }

    #[test]
    fn flow_release_raises_rates_incrementally() {
        // A's result (2e6 bits) joins the first hop while B's input
        // (1e6 bits, capped at 0.5e6 by its second hop) still crosses it;
        // when B's input ends, A's result is re-granted the full 2e6 bps
        // mid-flight, superseding its previously scheduled completion.
        let c = line3(2e6, 0.5e6, 0.0);
        let tasks =
            vec![SimTask::new(1e6, 2e6, 1.0).unwrap(), SimTask::new(1e6, 0.0, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(2);
        a.assign(0, Some(NodeId(1)));
        a.assign(1, Some(NodeId(2)));
        let r = simulate(&c, &tasks, &a, cfg()).unwrap();
        let cb = c.node(NodeId(1)).unwrap().compute_time(1e6);
        // A's input: share 1e6/2e6 of a 2e6 edge → 1e6 bps → lands at 1.0.
        let t_res = 1.0 + cb;
        assert!(t_res < 2.0, "compute must finish while B is still transferring");
        // B's input rides its 0.5e6 bottleneck throughout → ends at 2.0.
        approx(r.timelines[1].unwrap().compute_start, 2.0);
        // A's result: 2/3 share of 2e6 until 2.0, full 2e6 after.
        let transferred = (2.0 - t_res) * (2e6 * (2.0 / 3.0));
        let expect = 2.0 + (2e6 - transferred) / 2e6;
        approx(r.timelines[0].unwrap().result_at, expect);
    }

    #[test]
    fn mesh_empty_fault_schedule_matches_simulate_bitwise() {
        let c = Cluster::mesh_testbed(MeshSpec::new(20, 7)).unwrap();
        let tasks: Vec<SimTask> =
            (1..=8).map(|i| SimTask::new(i as f64 * 4e5, 1e4, 0.0).unwrap()).collect();
        let mut a = NodeAssignment::empty(8);
        for i in 0..8 {
            a.assign(i, Some(NodeId(1 + (i * 2) % 19)));
        }
        let cfg = SimConfig { enforce_capacity: false, ..SimConfig::default() };
        let plain = simulate(&c, &tasks, &a, cfg).unwrap();
        let faulty = simulate_with_faults(&c, &tasks, &a, cfg, &FaultSchedule::new()).unwrap();
        assert_eq!(plain.processing_time.to_bits(), faulty.processing_time.to_bits());
        assert_eq!(plain.timelines, faulty.timelines);
        assert_eq!(plain.node_busy, faulty.node_busy);
        assert_eq!(plain.link_busy, faulty.link_busy);
        assert!(faulty.failures.is_empty());
    }

    #[test]
    fn unreachable_mesh_node_is_rejected() {
        let mut b = MeshNetwork::builder(3);
        b.add_edge(0, 1, Link::new(1e6, 0.0).unwrap()).unwrap();
        let nodes = vec![
            Node::new(NodeId(0), DeviceModel::Laptop),
            Node::new(NodeId(1), DeviceModel::RaspberryPiB),
            Node::new(NodeId(2), DeviceModel::RaspberryPiB),
        ];
        let c = Cluster::new_mesh(nodes, b.build(), NodeId(0)).unwrap();
        let tasks = vec![SimTask::new(1e6, 0.0, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(2)));
        assert!(matches!(
            simulate(&c, &tasks, &a, cfg()),
            Err(SimError::UnreachableNode { task: 0, node: NodeId(2) })
        ));
        assert!(matches!(
            simulate_with_faults(&c, &tasks, &a, cfg(), &FaultSchedule::new()),
            Err(SimError::UnreachableNode { task: 0, node: NodeId(2) })
        ));
    }

    #[test]
    fn mesh_crash_is_detected_and_redispatched() {
        let c = line3(1e6, 1e6, 0.0);
        let tasks = vec![SimTask::new(1e6, 1e4, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(2)));
        // Input lands at 1.0; compute spans ≈[1.0, 1.0 + cb]. Crash inside.
        let cb = c.node(NodeId(2)).unwrap().compute_time(1e6);
        let schedule = FaultSchedule::new().with_crash(NodeId(2), 1.0 + cb / 2.0).unwrap();
        let r = simulate_with_faults(&c, &tasks, &a, cfg(), &schedule).unwrap();
        assert_eq!(r.completed_count(), 1);
        assert_eq!(r.attempts, vec![2], "one retry after the crash");
        assert_ne!(r.timelines[0].unwrap().node, NodeId(2));
        assert_eq!(r.down_at_end, vec![NodeId(2)]);
        let kinds = |p: fn(&FailureKind) -> bool| r.failures.iter().any(|f| p(&f.kind));
        assert!(kinds(|k| matches!(k, FailureKind::NodeCrashed(n) if *n == NodeId(2))));
        assert!(kinds(|k| matches!(k, FailureKind::AttemptAborted { task: 0, .. })));
        assert!(kinds(|k| matches!(k, FailureKind::Redispatched { task: 0, .. })));
    }

    #[test]
    fn link_dropout_forces_reroute_around_dead_edge() {
        // Triangle: fast two-hop route to node 2 plus a slow direct edge.
        let mut b = MeshNetwork::builder(3);
        b.add_edge(0, 1, Link::new(2e6, 0.0).unwrap()).unwrap();
        b.add_edge(1, 2, Link::new(2e6, 0.0).unwrap()).unwrap();
        b.add_edge(0, 2, Link::new(0.1e6, 0.0).unwrap()).unwrap();
        let nodes = vec![
            Node::new(NodeId(0), DeviceModel::Laptop),
            Node::new(NodeId(1), DeviceModel::RaspberryPiB),
            Node::new(NodeId(2), DeviceModel::RaspberryPiB),
        ];
        let c = Cluster::new_mesh(nodes, b.build(), NodeId(0)).unwrap();
        let tasks = vec![SimTask::new(1e6, 1e6, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(2)));
        // Input takes the fast route and lands at 0.5; the dropout fires
        // mid-compute (no flow in flight), killing node 2's uplink edge
        // 1—2. The result leg must re-route over the slow direct edge.
        let cb = c.node(NodeId(2)).unwrap().compute_time(1e6);
        assert!(cb > 0.1, "compute window must contain the dropout");
        let schedule =
            FaultSchedule::new().with_link_outage(NodeId(2), 0.5 + cb / 2.0, 1e6).unwrap();
        let r = simulate_with_faults(&c, &tasks, &a, cfg(), &schedule).unwrap();
        assert_eq!(r.completed_count(), 1);
        assert_eq!(r.attempts, vec![1], "the attempt itself survives the dropout");
        let tl = r.timelines[0].unwrap();
        assert!((tl.compute_start - 0.5).abs() < 1e-9);
        // Result serialises at the direct edge's 0.1e6 bps: 10 seconds.
        assert!((tl.result_at - (tl.compute_end + 10.0)).abs() < 1e-9);
    }

    #[test]
    fn link_dropout_aborts_crossing_flows() {
        let c = line3(1e6, 1e6, 0.0);
        let tasks = vec![SimTask::new(2e6, 0.0, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(2)));
        // The input flow crosses edge 1—2 until 2.0; the dropout at 0.5
        // kills it and partitions node 2, so the retry lands elsewhere.
        let schedule = FaultSchedule::new().with_link_outage(NodeId(2), 0.5, 1e6).unwrap();
        let r = simulate_with_faults(&c, &tasks, &a, cfg(), &schedule).unwrap();
        assert_eq!(r.completed_count(), 1);
        assert_eq!(r.attempts, vec![2]);
        assert_ne!(r.timelines[0].unwrap().node, NodeId(2));
        let kinds = |p: fn(&FailureKind) -> bool| r.failures.iter().any(|f| p(&f.kind));
        assert!(kinds(|k| matches!(k, FailureKind::LinkWentDown(n) if *n == NodeId(2))));
        assert!(kinds(|k| matches!(k, FailureKind::AttemptAborted { task: 0, .. })));
        assert!(kinds(|k| matches!(k, FailureKind::Redispatched { task: 0, .. })));
    }

    #[test]
    fn link_restore_drains_parked_results() {
        let c = line3(1e6, 1e6, 0.0);
        let tasks = vec![SimTask::new(1e6, 1e6, 1.0).unwrap()];
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(2)));
        let cb = c.node(NodeId(2)).unwrap().compute_time(1e6);
        // Dropout during compute, restore shortly after the result is
        // ready: the parked result ships at restore time over both hops.
        let up = 1.0 + cb + 0.2;
        let schedule =
            FaultSchedule::new().with_link_outage(NodeId(2), 1.0 + cb / 2.0, up).unwrap();
        let r = simulate_with_faults(&c, &tasks, &a, cfg(), &schedule).unwrap();
        assert_eq!(r.completed_count(), 1);
        assert_eq!(r.attempts, vec![1], "parked result needs no retry");
        let tl = r.timelines[0].unwrap();
        // Result flow starts at the restore and gets the full 1e6 bps.
        assert!((tl.result_at - (up + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn mesh_runs_are_deterministic() {
        let c = Cluster::mesh_testbed(MeshSpec::new(100, 3)).unwrap();
        let tasks: Vec<SimTask> =
            (0..40).map(|i| SimTask::new((i as f64 + 1.0) * 1e5, 2e4, 0.0).unwrap()).collect();
        let mut a = NodeAssignment::empty(40);
        for i in 0..40 {
            a.assign(i, Some(NodeId(1 + (i * 7) % 99)));
        }
        let cfg = SimConfig { enforce_capacity: false, ..SimConfig::default() };
        let workers: Vec<NodeId> = (1..100).map(NodeId).collect();
        let schedule = FaultSchedule::seeded(17, &workers, 0.5, 0.5, 5.0).unwrap();
        let r1 = simulate_with_faults(&c, &tasks, &a, cfg, &schedule).unwrap();
        let r2 = simulate_with_faults(&c, &tasks, &a, cfg, &schedule).unwrap();
        assert_eq!(r1, r2);
    }
}
