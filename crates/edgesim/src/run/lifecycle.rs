//! The fault-aware task lifecycle, written once for both topologies.
//!
//! One attempt of one task is: ship the input, compute (non-preemptive FIFO
//! per node), ship the result. Around it sits the controller's fault
//! protocol — a per-attempt heartbeat, abort and refund when a fault takes
//! the attempt's resource away, exponential back-off, a deterministic
//! re-dispatch target rule, and the report. All of that is [`Lifecycle`],
//! generic over a [`Transport`] that decides one thing only: *how a
//! transfer is carried* — FIFO link reservations on the star
//! ([`super::fifo::Fifo`]) or proportional-share flows on a mesh
//! ([`super::fluid::Fluid`]). Dispatch is static; there is no runtime
//! engine switch.
//!
//! All state is dense `Vec` storage indexed by node id (ids are dense in
//! every cluster constructor), pre-filled with the values a lazily created
//! entry would start from, so every `max`/`+` sees the operands it always
//! did: `cpu_free` at 0.0 (`0.0.max(now) == now`), ledgers at 0.0,
//! straggler factors at exactly 1.0.

use super::{FaultReport, NodeAssignment, RedispatchPrefs, SimConfig, SimTask, TaskTimeline};
use crate::cluster::Cluster;
use crate::event::CalendarQueue;
use crate::faults::{FaultKind, FaultSchedule};
use crate::node::NodeId;
use crate::trace::{FailureKind, FailureRecord};
use std::collections::HashMap;
use std::ops::Range;

/// The engine's event queue.
pub(super) type Queue = CalendarQueue<Ev>;

/// Events of the lifecycle. Each task-scoped event carries its attempt
/// number so events of an aborted attempt become inert the moment the
/// controller re-dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Ev {
    /// Index into the fault schedule fires.
    Fault(usize),
    /// The input landed on the worker (or the controller-local leg fired).
    InputArrived {
        task: usize,
        attempt: usize,
    },
    ComputeDone {
        task: usize,
        attempt: usize,
    },
    /// The result landed on the controller.
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

/// Whose payload a transfer carries, and which way.
#[derive(Debug, Clone, Copy)]
pub(super) struct Cargo {
    pub(super) task: usize,
    pub(super) attempt: usize,
    /// `false` = input leg (controller → worker), `true` = result leg.
    pub(super) result: bool,
}

impl Cargo {
    /// The event that fires when this payload lands.
    pub(super) fn arrival(self) -> Ev {
        let Cargo { task, attempt, result } = self;
        if result {
            Ev::ResultArrived { task, attempt }
        } else {
            Ev::InputArrived { task, attempt }
        }
    }
}

/// Pipeline stage of a live attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    InputTransfer,
    Computing,
    /// Result computed but the node is cut off; parked until a `LinkUp`.
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

/// Per-task state: the attempt in flight (or last attempted). `X` is the
/// transport's handle on a transfer it is carrying.
#[derive(Debug, Clone, Copy)]
pub(super) struct TaskState<X> {
    /// 1-based attempt number.
    pub(super) attempt: usize,
    pub(super) node: NodeId,
    leg: Leg,
    /// The current leg's transfer, when the network is carrying one:
    /// `None` while computing or parked, and for controller-local legs.
    transfer: Option<X>,
    /// Reserved compute interval (start, end); meaningful from the
    /// `Computing` leg on.
    compute: (f64, f64),
    aborted: bool,
    /// Delivered or declared failed: nothing more happens to this task.
    resolved: bool,
    timeline: TaskTimeline,
}

impl<X> TaskState<X> {
    /// Neither delivered, failed nor aborted: the attempt can still finish.
    pub(super) fn live(&self) -> bool {
        !self.resolved && !self.aborted
    }

    /// An input or result leg is in progress.
    pub(super) fn in_transfer(&self) -> bool {
        matches!(self.leg, Leg::InputTransfer | Leg::ResultTransfer)
    }
}

/// How transfers are carried between the controller and a worker — the one
/// thing the star and the mesh do differently. A transport hides its
/// contention algorithm and nothing else; every rule about attempts,
/// timers, retries and placement is the [`Lifecycle`]'s.
///
/// Landed payloads are announced by scheduling [`Cargo::arrival`] on the
/// queue the lifecycle passes in, so a transport's events interleave with
/// the lifecycle's on one `(time, ticket)` order.
pub(super) trait Transport {
    /// Handle on one transfer in flight.
    type Transfer: Copy;

    /// Starts carrying `bits` to (input) or from (result) `node` at `t`.
    /// Returns the handle and the instant the transfer starts occupying
    /// the network (the report's `transfer_start` for input legs). The
    /// caller guarantees `node` is a worker and currently
    /// [`reachable`](Self::reachable).
    fn start_leg(
        &mut self,
        q: &mut Queue,
        cargo: Cargo,
        node: NodeId,
        t: f64,
        bits: f64,
    ) -> (Self::Transfer, f64);

    /// Takes an aborted attempt's transfer off the network at `now`,
    /// applying this transport's refund rule to the link-busy ledger.
    fn abort_leg(&mut self, transfer: Self::Transfer, node: NodeId, now: f64);

    /// Whether a transfer to or from `node` could start now.
    fn reachable(&self, node: NodeId) -> bool;

    /// Uncontended time to move `bits` to or from `node` (for the
    /// heartbeat timeout); `None` when no route exists to price.
    fn nominal_transfer(&self, node: NodeId, bits: f64) -> Option<f64>;

    /// `node` crashed or rejoined at `now`: what that does to the network.
    fn node_reset(&mut self, node: NodeId, now: f64);

    /// `node`'s link dropped at `now`. Returns the tasks whose in-flight
    /// transfer died with it, in the order their attempts must abort
    /// (empty when the link was already down).
    fn link_down(
        &mut self,
        node: NodeId,
        now: f64,
        state: &[Option<TaskState<Self::Transfer>>],
    ) -> Vec<usize>;

    /// `node`'s link is restored. Returns the node ids whose parked
    /// results may drain, in drain order (empty when the link was not
    /// down); the lifecycle skips those still unreachable.
    fn link_up(&mut self, node: NodeId) -> Range<usize>;

    /// If a transfer's completion is due before the queue's next event,
    /// handles it (advancing the queue's clock) and returns its instant.
    /// Transports that announce every landing up front have none.
    fn complete_next(&mut self, _q: &mut Queue) -> Option<f64> {
        None
    }

    /// Re-balances the network after the transfers in flight changed.
    /// A no-op for transports whose reservations never change once made.
    fn settle(&mut self, _q: &mut Queue, _now: f64) {}

    /// The link-busy ledger: one entry per node that ever carried a leg.
    fn into_link_busy(self) -> HashMap<NodeId, f64>;
}

/// Number of dense per-node slots a cluster needs (`max id + 1`).
pub(super) fn node_slots(cluster: &Cluster) -> usize {
    cluster.nodes().iter().map(|n| n.id().0 + 1).max().unwrap_or(0)
}

/// Converts dense busy accumulators to the report's sparse map: a node
/// appears iff it touched that resource.
pub(super) fn gather_busy(busy: &[f64], touched: &[bool]) -> HashMap<NodeId, f64> {
    busy.iter()
        .zip(touched)
        .enumerate()
        .filter(|&(_, (_, &t))| t)
        .map(|(i, (&b, _))| (NodeId(i), b))
        .collect()
}

/// The discrete-event engine: single-threaded, so thread-count invariance
/// is structural; determinism follows from the queue's `(time, ticket)`
/// FIFO contract and dense, id-ordered iteration everywhere.
pub(super) struct Lifecycle<'a, T: Transport> {
    cluster: &'a Cluster,
    tasks: &'a [SimTask],
    config: SimConfig,
    controller: NodeId,
    net: T,
    queue: Queue,
    /// `seconds_per_bit × slowdown` per node — `Node::compute_time`
    /// multiplies left to right, so folding its first product keeps the
    /// bits.
    compute_coef: Vec<f64>,
    cpu_free: Vec<f64>,
    node_busy: Vec<f64>,
    node_touched: Vec<bool>,
    /// Cumulative nominal compute seconds dispatched per node — the
    /// controller's load ledger for re-dispatch target selection.
    dispatched_load: Vec<f64>,
    /// Resource demand currently resident per node (capacity bookkeeping
    /// for retries; aborts release it, completions keep it for the round).
    resident: Vec<f64>,
    state: Vec<Option<TaskState<T::Transfer>>>,
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
    prefs: &'a RedispatchPrefs,
    pending: usize,
    last_resolution: f64,
}

impl<'a, T: Transport> Lifecycle<'a, T> {
    pub(super) fn new(
        cluster: &'a Cluster,
        tasks: &'a [SimTask],
        config: SimConfig,
        prefs: &'a RedispatchPrefs,
        net: T,
    ) -> Self {
        let n = node_slots(cluster);
        let mut compute_coef = vec![0.0; n];
        for node in cluster.nodes() {
            compute_coef[node.id().0] = node.model().seconds_per_bit() * node.slowdown();
        }
        Self {
            cluster,
            tasks,
            config,
            controller: cluster.controller(),
            net,
            queue: CalendarQueue::new(),
            compute_coef,
            cpu_free: vec![0.0; n],
            node_busy: vec![0.0; n],
            node_touched: vec![false; n],
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

    /// `task`'s state, if `attempt` is its current attempt and still live.
    fn live(&self, task: usize, attempt: usize) -> Option<TaskState<T::Transfer>> {
        self.state[task].filter(|st| st.live() && st.attempt == attempt)
    }

    fn record(&mut self, time: f64, kind: FailureKind) {
        self.failures.push(FailureRecord { time, kind });
    }

    fn compute_time(&self, node: NodeId, bits: f64) -> f64 {
        self.compute_coef[node.0] * bits.max(0.0)
    }

    /// Heartbeat duration for `task` on `node`: retry-factor × the
    /// attempt's nominal PT — uncontended transfers plus compute at
    /// advertised rates (no queueing, no stragglers), floored by the policy
    /// minimum. Falls back to compute alone where the transport cannot
    /// price the route (the floor and factor keep the timer sane).
    fn timeout_of(&self, task: usize, node: NodeId) -> f64 {
        let spec = self.tasks[task];
        let compute = self.compute_time(node, spec.input_bits);
        let legs = if node == self.controller {
            None
        } else {
            self.net
                .nominal_transfer(node, spec.input_bits)
                .zip(self.net.nominal_transfer(node, spec.result_bits))
        };
        let nominal = match legs {
            Some((input, result)) => input + compute + result,
            None => compute,
        };
        (self.config.retry.timeout_factor * nominal).max(self.config.retry.min_timeout_s)
    }

    /// Starts attempt `attempt` of `task` on `node` at `t`. The input
    /// leg's events are scheduled before the heartbeat: the order decides
    /// same-instant tickets.
    fn dispatch(&mut self, task: usize, node: NodeId, t: f64, attempt: usize) {
        let spec = self.tasks[task];
        self.dispatched_load[node.0] += self.compute_time(node, spec.input_bits);
        self.resident[node.0] += spec.resource_demand;
        let cargo = Cargo { task, attempt, result: false };
        let (transfer, transfer_start) = if node == self.controller {
            self.queue.schedule(t, cargo.arrival()); // local task: no network hop
            (None, t)
        } else {
            let (transfer, start) =
                self.net.start_leg(&mut self.queue, cargo, node, t, spec.input_bits);
            (Some(transfer), start)
        };
        self.state[task] = Some(TaskState {
            attempt,
            node,
            leg: Leg::InputTransfer,
            transfer,
            compute: (t, t),
            aborted: false,
            resolved: false,
            timeline: TaskTimeline {
                node,
                transfer_start,
                compute_start: 0.0,
                compute_end: 0.0,
                result_at: 0.0,
            },
        });
        self.attempts_used[task] = attempt;
        self.queue.schedule(t + self.timeout_of(task, node), Ev::Heartbeat { task, attempt });
    }

    /// Kills `task`'s current attempt (`st`, as just read): hands an
    /// in-flight transfer back to the transport (which applies its refund
    /// rule), refunds un-elapsed compute when the CPU died with it,
    /// releases residency, and leaves the attempt for the heartbeat to
    /// detect.
    fn abort_attempt(
        &mut self,
        task: usize,
        st: TaskState<T::Transfer>,
        now: f64,
        cause: AbortCause,
    ) {
        match st.leg {
            Leg::InputTransfer | Leg::ResultTransfer => {
                if let Some(transfer) = st.transfer {
                    self.net.abort_leg(transfer, st.node, now);
                }
            }
            Leg::Computing => {
                if matches!(cause, AbortCause::Crash) {
                    let lost = st.compute.1 - st.compute.0.max(now);
                    if lost > 0.0 {
                        self.node_busy[st.node.0] -= lost;
                    }
                }
            }
            Leg::AwaitingLink => self.waiting[st.node.0].retain(|&(t, _)| t != task),
        }
        self.resident[st.node.0] -= self.tasks[task].resource_demand;
        self.state[task] = Some(TaskState { aborted: true, ..st });
        self.record(now, FailureKind::AttemptAborted { task, node: st.node, attempt: st.attempt });
    }

    /// Fault semantics shared by both topologies: a crash takes out the
    /// node's *compute* — every unfinished attempt resident on it aborts
    /// and it rejoins empty on recovery — and a straggler window multiplies
    /// compute legs starting inside it. What a crash or a link dropout does
    /// to the *network*, whose transfers die with a link and which parked
    /// results a restore drains are the transport's.
    fn on_fault(&mut self, now: f64, kind: FaultKind) {
        match kind {
            FaultKind::Crash(n) => {
                self.record(now, FailureKind::NodeCrashed(n));
                if !self.down[n.0] {
                    self.down[n.0] = true;
                    for task in 0..self.tasks.len() {
                        let Some(st) = self.state[task] else { continue };
                        if st.node == n && st.live() {
                            self.abort_attempt(task, st, now, AbortCause::Crash);
                        }
                    }
                    self.cpu_free[n.0] = now;
                    self.net.node_reset(n, now);
                    self.straggle[n.0] = 1.0;
                    self.waiting[n.0].clear();
                }
            }
            FaultKind::Recover(n) => {
                self.record(now, FailureKind::NodeRecovered(n));
                if self.down[n.0] {
                    self.down[n.0] = false;
                    self.cpu_free[n.0] = now;
                    self.net.node_reset(n, now);
                }
            }
            FaultKind::LinkDown(n) => {
                self.record(now, FailureKind::LinkWentDown(n));
                for task in self.net.link_down(n, now, &self.state) {
                    if let Some(st) = self.state[task] {
                        self.abort_attempt(task, st, now, AbortCause::LinkLoss);
                    }
                }
            }
            FaultKind::LinkUp(n) => {
                self.record(now, FailureKind::LinkRestored(n));
                for v in self.net.link_up(n) {
                    if self.waiting[v].is_empty() || !self.net.reachable(NodeId(v)) {
                        continue;
                    }
                    // Drain the results parked behind the outage, FIFO.
                    for (task, attempt) in std::mem::take(&mut self.waiting[v]) {
                        if let Some(st) = self.live(task, attempt) {
                            self.ship_result(now, task, st);
                        }
                    }
                }
            }
            FaultKind::StragglerStart(n, factor) => self.straggle[n.0] = factor,
            FaultKind::StragglerEnd(n) => self.straggle[n.0] = 1.0,
        }
    }

    /// Input payload landed on the worker (or the controller-local leg
    /// fired): queue the compute, FIFO per node.
    fn begin_compute(&mut self, now: f64, task: usize, st: TaskState<T::Transfer>) {
        let node = st.node;
        let start = self.cpu_free[node.0].max(now);
        // Straggler factor of the window the compute leg *starts* in; 1.0×
        // multiplies bit-exactly, preserving fault-free parity.
        let dur = self.compute_time(node, self.tasks[task].input_bits) * self.straggle[node.0];
        self.cpu_free[node.0] = start + dur;
        self.node_busy[node.0] += dur;
        self.node_touched[node.0] = true;
        self.state[task] = Some(TaskState {
            leg: Leg::Computing,
            transfer: None,
            compute: (start, start + dur),
            timeline: TaskTimeline {
                compute_start: start,
                compute_end: start + dur,
                ..st.timeline
            },
            ..st
        });
        self.queue.schedule(start + dur, Ev::ComputeDone { task, attempt: st.attempt });
    }

    fn on_compute_done(&mut self, now: f64, task: usize, st: TaskState<T::Transfer>) {
        if st.node == self.controller {
            let cargo = Cargo { task, attempt: st.attempt, result: true };
            self.queue.schedule(now, cargo.arrival());
            self.state[task] = Some(TaskState { leg: Leg::ResultTransfer, ..st });
        } else if !self.net.reachable(st.node) {
            // Result computed but the node is cut off: park until a LinkUp
            // reconnects it.
            self.waiting[st.node.0].push((task, st.attempt));
            self.state[task] = Some(TaskState { leg: Leg::AwaitingLink, ..st });
        } else {
            self.ship_result(now, task, st);
        }
    }

    /// Starts the result leg of a worker-side attempt at `now`.
    fn ship_result(&mut self, now: f64, task: usize, st: TaskState<T::Transfer>) {
        let cargo = Cargo { task, attempt: st.attempt, result: true };
        let bits = self.tasks[task].result_bits;
        let (transfer, _) = self.net.start_leg(&mut self.queue, cargo, st.node, now, bits);
        self.state[task] =
            Some(TaskState { leg: Leg::ResultTransfer, transfer: Some(transfer), ..st });
    }

    fn resolve_completed(&mut self, now: f64, task: usize, st: TaskState<T::Transfer>) {
        let timeline = TaskTimeline { result_at: now, ..st.timeline };
        self.state[task] = Some(TaskState { resolved: true, timeline, ..st });
        self.final_timelines[task] = Some(timeline);
        self.last_resolution = self.last_resolution.max(now);
        self.pending -= 1;
    }

    fn on_heartbeat(&mut self, now: f64, task: usize, attempt: usize) {
        let Some(st) = self.state[task] else { return };
        if st.resolved || st.attempt != attempt {
            return;
        }
        // A result stranded behind an outage that outlived the timeout:
        // give up on this attempt and recompute elsewhere.
        let stranded =
            !st.aborted && matches!(st.leg, Leg::AwaitingLink) && !self.net.reachable(st.node);
        if stranded {
            self.abort_attempt(task, st, now, AbortCause::Strand);
        }
        if st.aborted || stranded {
            self.record(now, FailureKind::TimeoutDetected { task, node: st.node, attempt });
            self.retry_or_fail(task, attempt, now);
        } else {
            // Healthy in-flight work is never preempted: re-arm. Every leg
            // completes in finite time, so re-arming terminates.
            self.queue
                .schedule(now + self.timeout_of(task, st.node), Ev::Heartbeat { task, attempt });
        }
    }

    /// `used` attempts of `task` are lost: back off and re-dispatch, or
    /// give up once the policy's retries are spent.
    fn retry_or_fail(&mut self, task: usize, used: usize, now: f64) {
        if used > self.config.retry.max_retries {
            self.fail_task(task, used, now);
        } else {
            let delay = self.config.retry.backoff_base_s * 2f64.powi(used as i32 - 1);
            self.queue.schedule(now + delay, Ev::Redispatch { task });
        }
    }

    fn fail_task(&mut self, task: usize, used: usize, now: f64) {
        if let Some(st) = &mut self.state[task] {
            st.resolved = true;
        }
        self.record(now, FailureKind::TaskFailed { task, attempts: used });
        self.last_resolution = self.last_resolution.max(now);
        self.pending -= 1;
    }

    fn on_redispatch(&mut self, now: f64, task: usize) {
        let Some(st) = self.state[task] else { return };
        if st.resolved || !st.aborted {
            return;
        }
        let next = st.attempt + 1;
        let demand = self.tasks[task].resource_demand;
        // Deterministic target selection: highest availability preference
        // score first (when prefs are set), then least cumulative
        // dispatched nominal compute seconds among up nodes the controller
        // can currently reach, ties broken by ascending node id. The
        // controller is always a candidate (it cannot fault), so selection
        // only fails on capacity.
        let mut best: Option<(f64, f64, NodeId)> = None;
        for n in self.cluster.nodes() {
            let id = n.id();
            if self.down[id.0] || (id != self.controller && !self.net.reachable(id)) {
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
                self.record(now, FailureKind::Redispatched { task, node, attempt: next });
                self.dispatch(task, node, now, next);
            }
            None => self.fail_task(task, st.attempt, now),
        }
    }

    /// Runs the round to its decision instant.
    pub(super) fn run(
        mut self,
        assignment: &NodeAssignment,
        schedule: &FaultSchedule,
    ) -> FaultReport {
        // Faults enter the queue first so that, at equal timestamps, a
        // fault takes effect before task events of the same instant (FIFO
        // tie-break).
        for (idx, ev) in schedule.events().iter().enumerate() {
            self.queue.schedule(ev.time, Ev::Fault(idx));
        }
        let t0 = self.config.partition_overhead_s;
        for i in 0..self.tasks.len() {
            if let Some(node) = assignment.node_of(i) {
                self.dispatch(i, node, t0, 1);
                self.pending += 1;
            }
        }
        self.net.settle(&mut self.queue, t0);
        while self.pending > 0 {
            // The earlier of the transport's next completion and the next
            // queued event, by (time, ticket) — one counter issues both.
            if let Some(now) = self.net.complete_next(&mut self.queue) {
                self.net.settle(&mut self.queue, now);
                continue;
            }
            let Some((now, ev)) = self.queue.pop_next() else { break };
            match ev {
                Ev::Fault(idx) => self.on_fault(now, schedule.events()[idx].kind),
                Ev::InputArrived { task, attempt } => {
                    if let Some(st) = self.live(task, attempt) {
                        self.begin_compute(now, task, st);
                    }
                }
                Ev::ComputeDone { task, attempt } => {
                    if let Some(st) = self.live(task, attempt) {
                        self.on_compute_done(now, task, st);
                    }
                }
                Ev::ResultArrived { task, attempt } => {
                    if let Some(st) = self.live(task, attempt) {
                        self.resolve_completed(now, task, st);
                    }
                }
                Ev::Heartbeat { task, attempt } => self.on_heartbeat(now, task, attempt),
                Ev::Redispatch { task } => self.on_redispatch(now, task),
            }
            self.net.settle(&mut self.queue, now);
        }
        self.into_report()
    }

    fn into_report(self) -> FaultReport {
        FaultReport {
            processing_time: self.last_resolution + self.config.decision_overhead_s,
            completed: self.final_timelines.iter().map(Option::is_some).collect(),
            timelines: self.final_timelines,
            attempts: self.attempts_used,
            failures: self.failures,
            node_busy: gather_busy(&self.node_busy, &self.node_touched),
            link_busy: self.net.into_link_busy(),
            down_at_end: (0..self.down.len()).filter(|&v| self.down[v]).map(NodeId).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::cluster::Cluster;
    use crate::faults::FaultSchedule;
    use crate::node::NodeId;
    use crate::run::{
        simulate, simulate_with_faults, simulate_with_faults_biased, FaultReport, NodeAssignment,
        RedispatchPrefs, RetryPolicy, SimConfig, SimTask,
    };
    use crate::trace::FailureKind;

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
