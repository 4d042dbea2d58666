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
//!
//! This module holds the public types, input validation and the three
//! entry points. Behind them is **one** event-driven engine — the
//! fault-aware task lifecycle of `lifecycle.rs` — generic over how a
//! transfer is carried: `fifo.rs` (the star's link reservations) or
//! `fluid.rs` (a mesh's proportional-share flows). Healthy per-node-link
//! star rounds need no events at all and take the closed form of
//! `star.rs`.

mod fifo;
mod fluid;
mod lifecycle;
mod star;

use crate::cluster::{Cluster, NetTopology};
use crate::faults::FaultSchedule;
use crate::network::MediumMode;
use crate::node::NodeId;
use crate::trace::FailureRecord;
use fifo::Fifo;
use fluid::Fluid;
use lifecycle::{node_slots, Lifecycle};
use std::collections::HashMap;
use std::fmt;

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
    // Node → (aggregate demand placed on it, its capacity).
    let mut demand: HashMap<NodeId, (f64, f64)> = HashMap::new();
    for i in 0..tasks.len() {
        if let Some(id) = assignment.node_of(i) {
            let Some(node) = cluster.node(id) else {
                return Err(SimError::UnknownNode { task: i, node: id });
            };
            demand.entry(id).or_insert((0.0, node.capacity())).0 += tasks[i].resource_demand;
        }
    }
    if config.enforce_capacity {
        for (&node, &(demand, capacity)) in &demand {
            if demand > capacity + 1e-9 {
                return Err(SimError::OverCapacity { node, demand, capacity });
            }
        }
    }
    Ok(())
}

/// Simulates one allocation round.
///
/// On a star cluster in [`MediumMode::PerNodeLink`] mode the nodes'
/// timelines are mutually independent — each star link and CPU is touched
/// only by its own node's tasks — so the round is computed per node in
/// closed form, large rounds in parallel (ordered assembly, bit-identical
/// at every thread count). [`MediumMode::SharedMedium`] rounds (where every
/// transfer serialises through one channel) and mesh rounds run the
/// event-driven engine of [`simulate_with_faults`] with an empty fault
/// schedule; that engine is single-threaded, so thread-count invariance is
/// structural.
///
/// `config.retry` is ignored on every topology: with nothing to inject a
/// heartbeat can only re-arm, so the engine is handed
/// [`RetryPolicy::default`] and no report bit depends on the policy.
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
    validate_reachable(cluster, tasks, assignment)?;
    if let NetTopology::Star(net) = cluster.topology() {
        if matches!(net.medium(), MediumMode::PerNodeLink) {
            return Ok(star::simulate_per_node(cluster, net, tasks, assignment, config));
        }
    }
    let config = SimConfig { retry: RetryPolicy::default(), ..config };
    let report = run_engine(
        cluster,
        tasks,
        assignment,
        config,
        &FaultSchedule::new(),
        &RedispatchPrefs::none(),
    );
    Ok(SimReport {
        processing_time: report.processing_time,
        timelines: report.timelines,
        node_busy: report.node_busy,
        link_busy: report.link_busy,
    })
}

/// Runs the event-driven engine on the cluster's transport. The callers
/// have validated every input.
fn run_engine(
    cluster: &Cluster,
    tasks: &[SimTask],
    assignment: &NodeAssignment,
    config: SimConfig,
    schedule: &FaultSchedule,
    prefs: &RedispatchPrefs,
) -> FaultReport {
    match cluster.topology() {
        NetTopology::Star(net) => {
            let fifo = Fifo::new(net, node_slots(cluster), config.partition_overhead_s);
            Lifecycle::new(cluster, tasks, config, prefs, fifo).run(assignment, schedule)
        }
        NetTopology::Mesh(mesh) => {
            let fluid = Fluid::new(mesh, cluster.controller());
            Lifecycle::new(cluster, tasks, config, prefs, fluid).run(assignment, schedule)
        }
    }
}
/// Rejects assignments that target mesh nodes with no route from the
/// controller on the healthy (all edges up) topology. Every star node is
/// one hop from the hub.
fn validate_reachable(
    cluster: &Cluster,
    tasks: &[SimTask],
    assignment: &NodeAssignment,
) -> Result<(), SimError> {
    let NetTopology::Mesh(mesh) = cluster.topology() else { return Ok(()) };
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
/// schedule the report matches [`simulate`] bitwise (a heartbeat firing on
/// a healthy in-flight attempt only re-arms).
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
    validate_reachable(cluster, tasks, assignment)?;
    Ok(run_engine(cluster, tasks, assignment, config, schedule, prefs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::MeshSpec;
    use crate::network::{Link, MeshNetwork};
    use crate::node::{DeviceModel, Node};

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
    fn simulate_ignores_the_retry_policy_on_every_topology() {
        // A policy `simulate_with_faults` must reject: healthy runs never
        // consult it, whatever the topology or medium.
        let mut config = cfg();
        config.retry.min_timeout_s = 0.0;
        let tasks = one_task(1e6);
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(1)));
        let mut shared = Cluster::paper_testbed().unwrap();
        shared.network_mut().expect("star testbed").set_medium(MediumMode::SharedMedium);
        let worlds = [
            Cluster::paper_testbed().unwrap(),
            shared,
            Cluster::mesh_testbed(MeshSpec::new(16, 1)).unwrap(),
        ];
        for c in &worlds {
            let plain = simulate(c, &tasks, &a, config).expect("healthy runs ignore the policy");
            assert_eq!(plain, simulate(c, &tasks, &a, cfg()).unwrap());
            assert!(matches!(
                simulate_with_faults(c, &tasks, &a, config, &FaultSchedule::new()),
                Err(SimError::BadRetryPolicy { .. })
            ));
        }
    }
}
