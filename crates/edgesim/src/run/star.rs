//! Healthy per-node-link star rounds in closed form.
//!
//! In [`MediumMode::PerNodeLink`](crate::network::MediumMode) with no
//! faults the nodes' timelines are mutually independent — each star link
//! and CPU is touched only by its own node's tasks — so a round needs no
//! event queue at all: each node's legs are replayed in task order
//! ([`node_leg`]) and assembled in a fixed order. Rounds of every size take
//! this path; large ones map the nodes across `dcta-parallel` workers.

use super::{NodeAssignment, SimConfig, SimReport, SimTask, TaskTimeline};
use crate::cluster::Cluster;
use crate::network::StarNetwork;
use crate::node::{Node, NodeId};
use std::collections::HashMap;

/// Scheduled-task threshold below which the per-node legs are mapped
/// serially: the paper-scale rounds (tens of tasks) finish in microseconds,
/// where thread spawn/join would dominate. At or above it the legs fan out
/// across `dcta-parallel` workers. It is one function either way, so the
/// threshold only changes how the work runs, never the result.
pub(super) const PAR_MIN_SCHEDULED: usize = 256;

/// One node's completed leg of a per-node-link round: its tasks' timelines
/// plus the node-local accumulators, ready for ordered assembly.
struct NodeLeg {
    node: NodeId,
    /// `(task index, timeline)` in task order.
    timelines: Vec<(usize, TaskTimeline)>,
    node_busy: f64,
    link_busy: f64,
    /// Whether the leg reserved its star link at all (controller-local
    /// tasks never do): a node appears in the report's `link_busy` iff it
    /// carried a transfer.
    uses_link: bool,
    last_result: f64,
}

/// A healthy per-node-link round: every node's tasks replay, in task order,
/// exactly the event sequence a global discrete-event loop would process
/// for that node.
///
/// Why this equals the event-driven engine bit for bit (pinned against it —
/// [`super::lifecycle`] on the FIFO transport with an empty fault schedule —
/// by the parity tests below and `engine_golden`): inputs are dispatched at
/// `t0` in task order, reserving each link's FIFO chain up front, so a
/// node's input arrivals carry non-decreasing times and pop in task order
/// (the queue breaks time ties by insertion sequence). The FIFO CPU then
/// finishes computations in that same order, so the result-leg link
/// reservations also replay in task order. No state is shared across nodes
/// except the latest result, a max over non-negative values, which is
/// order-invariant. Every floating-point operation is the same operation,
/// on the same operands, in the same per-node order.
pub(super) fn simulate_per_node(
    cluster: &Cluster,
    net: &StarNetwork,
    tasks: &[SimTask],
    assignment: &NodeAssignment,
    config: SimConfig,
) -> SimReport {
    let t0 = config.partition_overhead_s;

    // Group task indices by node, groups ordered by first appearance so
    // the fan-out and assembly order is a pure function of the assignment.
    let mut group_of: HashMap<NodeId, usize> = HashMap::new();
    let mut groups: Vec<(&Node, Vec<usize>)> = Vec::new();
    for i in 0..tasks.len() {
        let Some(id) = assignment.node_of(i) else { continue };
        let g = *group_of.entry(id).or_insert_with(|| {
            let node = cluster.node(id).expect("validate_assignment checked every target node");
            groups.push((node, Vec::new()));
            groups.len() - 1
        });
        groups[g].1.push(i);
    }

    let leg = |g: usize| {
        let (node, idxs) = &groups[g];
        node_leg(net, tasks, t0, node, node.id() == cluster.controller(), idxs)
    };
    let legs: Vec<NodeLeg> = if assignment.scheduled_count() < PAR_MIN_SCHEDULED {
        (0..groups.len()).map(leg).collect()
    } else {
        // Grain 1: groups are few (one per busy node) but each carries
        // many tasks, so every group is worth a worker.
        parallel::map(groups.len(), 1, leg)
    };

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
/// order, mirroring the event-driven engine's arithmetic operation for
/// operation.
fn node_leg(
    net: &StarNetwork,
    tasks: &[SimTask],
    t0: f64,
    node: &Node,
    is_controller: bool,
    idxs: &[usize],
) -> NodeLeg {
    let id = node.id();
    let mut link_free = t0;
    let mut cpu_free: Option<f64> = None;
    let mut node_busy = 0.0;
    let mut link_busy = 0.0;
    let mut timelines: Vec<(usize, TaskTimeline)> = Vec::with_capacity(idxs.len());
    let mut arrivals: Vec<f64> = Vec::with_capacity(idxs.len());

    // Input legs: the link chain is reserved up front at t0, in task order.
    for &i in idxs {
        let (transfer_start, arrive) = if is_controller {
            (t0, t0) // local task: no network hop
        } else {
            let start = link_free.max(t0);
            let dur = net.transfer_time(id, tasks[i].input_bits);
            link_free = start + dur;
            link_busy += dur;
            (start, start + dur)
        };
        timelines.push((
            i,
            TaskTimeline {
                node: id,
                transfer_start,
                compute_start: 0.0,
                compute_end: 0.0,
                result_at: 0.0,
            },
        ));
        arrivals.push(arrive);
    }

    // FIFO compute: arrivals are non-decreasing in task order, so the CPU
    // serves tasks in task order.
    for (k, (_, tl)) in timelines.iter_mut().enumerate() {
        let arrive = arrivals[k];
        let free = cpu_free.unwrap_or(arrive);
        let start = free.max(arrive);
        let dur = node.compute_time(tasks[idxs[k]].input_bits);
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
            let dur = net.transfer_time(id, tasks[idxs[k]].result_bits);
            link_free = start + dur;
            link_busy += dur;
            start + dur
        };
        tl.result_at = result_at;
        last_result = last_result.max(result_at);
    }

    NodeLeg { node: id, timelines, node_busy, link_busy, uses_link: !is_controller, last_result }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultSchedule;
    use crate::node::DeviceModel;
    use crate::run::{run_engine, simulate, RedispatchPrefs};

    fn cfg() -> SimConfig {
        SimConfig { partition_overhead_s: 0.0, decision_overhead_s: 0.0, ..SimConfig::default() }
    }

    fn one_task(bits: f64) -> Vec<SimTask> {
        vec![SimTask::new(bits, bits / 100.0, 1.0).unwrap()]
    }

    #[test]
    fn single_task_timeline_is_additive() {
        let c = Cluster::paper_testbed().unwrap();
        let tasks = one_task(1e6);
        let mut a = NodeAssignment::empty(1);
        a.assign(0, Some(NodeId(1)));
        let r = simulate(&c, &tasks, &a, cfg()).unwrap();
        let tl = r.timelines[0].unwrap();
        let link = c.network().expect("star testbed").transfer_time(NodeId(1), 1e6);
        let compute = c.node(NodeId(1)).unwrap().compute_time(1e6);
        let back = c.network().expect("star testbed").transfer_time(NodeId(1), 1e4);
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
        c.network_mut().expect("star testbed").scale_bandwidth(4.0);
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
        let expected_link = c.network().expect("star testbed").transfer_time(NodeId(2), 1e6)
            + c.network().expect("star testbed").transfer_time(NodeId(2), 2e6)
            + 2.0 * c.network().expect("star testbed").transfer_time(NodeId(2), 1e4);
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

    /// The event-driven engine with nothing to inject: the reference side
    /// of the parity tests.
    fn event_loop(
        c: &Cluster,
        tasks: &[SimTask],
        a: &NodeAssignment,
        config: SimConfig,
    ) -> SimReport {
        run_engine(c, tasks, a, config, &FaultSchedule::new(), &RedispatchPrefs::none())
            .to_sim_report()
    }

    fn per_node(
        c: &Cluster,
        tasks: &[SimTask],
        a: &NodeAssignment,
        config: SimConfig,
    ) -> SimReport {
        simulate_per_node(c, c.network().expect("star testbed"), tasks, a, config)
    }

    #[test]
    fn per_node_fan_out_matches_event_loop_bitwise() {
        let (c, tasks, a) = big_round(400);
        let config = SimConfig::default(); // non-zero overheads
        let reference = event_loop(&c, &tasks, &a, config);
        let fanned = per_node(&c, &tasks, &a, config);
        assert_eq!(report_bits(&fanned), report_bits(&reference));
        assert_eq!(fanned, reference);
        // And via the public entry point, which maps the legs in parallel
        // at this size.
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
        let reference = event_loop(&c, &tasks, &a, config);
        let fanned = per_node(&c, &tasks, &a, config);
        assert_eq!(report_bits(&fanned), report_bits(&reference));
        // Empty assignment.
        let empty = NodeAssignment::empty(3);
        assert_eq!(per_node(&c, &tasks, &empty, config), event_loop(&c, &tasks, &empty, config));
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
