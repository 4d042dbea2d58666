//! An independent oracle for the mesh engine's contention model: a
//! fixed-step proportional-share stepper that shares no code with the fluid
//! transport — no events, no dirty edges, no cached grants, no routing.
//!
//! Every step it recomputes, for every edge, the total size of the
//! transfers crossing it, gives each transfer the share
//! `r = size / total; c = capacity · r` of each edge on its path, and moves
//! the transfer forward at the smallest such `c` for one step. Worlds are
//! random *trees* rooted at the controller, so the route to a worker is the
//! walk up its parent pointers and the test needs none of the simulator's
//! path-finding either. One task per worker keeps the CPU free on arrival,
//! which makes a task's `compute_start` exactly its input's arrival time.
//!
//! The stepper sees each completion and each result departure up to one step
//! late, and a late completion holds its shares for that long, so the two
//! models agree only to within a few steps; the tolerance is stated in steps
//! (the worst case the generated worlds reach is under three).

use edgesim::cluster::Cluster;
use edgesim::network::{Link, MeshNetwork};
use edgesim::node::{DeviceModel, Node, NodeId};
use edgesim::run::{simulate, NodeAssignment, SimConfig, SimTask};
use proptest::prelude::*;

/// Step of the oracle, seconds.
const DT: f64 = 1e-4;
/// One step each for a task's input completion, result departure and result
/// completion, and as much again for what late neighbours hold back.
const TOLERANCE: f64 = 6.0 * DT;

/// One worker of a generated world: where it hangs in the tree, the link to
/// its parent, and the task it is given (if any).
#[derive(Debug, Clone, Copy)]
struct WorkerSpec {
    parent_pick: usize,
    capacity_bps: f64,
    latency_s: f64,
    /// `(input bits, result bits)`.
    task: Option<(f64, f64)>,
}

fn world() -> impl Strategy<Value = Vec<WorkerSpec>> {
    let worker = (
        0usize..1000,
        1e6f64..2e7,
        0.0f64..2e-3,
        prop::option::of((1e5f64..2e6, prop::option::of(1e3f64..2e5))),
    )
        .prop_map(|(parent_pick, capacity_bps, latency_s, task)| WorkerSpec {
            parent_pick,
            capacity_bps,
            latency_s,
            task: task.map(|(bits, result)| (bits, result.unwrap_or(0.0))),
        });
    prop::collection::vec(worker, 2..12)
}

/// A transfer in flight in the oracle: the tree edges it crosses (each named
/// by its child endpoint), its size and how much of it has been sent.
struct Transfer {
    task: usize,
    result: bool,
    edges: Vec<usize>,
    size: f64,
    sent: f64,
}

/// What the oracle predicts for one task.
#[derive(Debug, Clone, Copy, Default)]
struct Predicted {
    input_arrived: f64,
    result_arrived: f64,
}

/// Steps every task of the world to completion.
fn step_world(
    parents: &[usize],
    specs: &[WorkerSpec],
    compute_s: &[f64],
    t0: f64,
) -> Vec<Option<Predicted>> {
    // Tree edges from worker `v` (node `v + 1`) up to the controller.
    let path = |worker: usize| {
        let mut edges = Vec::new();
        let mut at = worker + 1;
        while at != 0 {
            edges.push(at);
            at = parents[at - 1];
        }
        edges
    };
    let latency = |edges: &[usize]| edges.iter().map(|&e| specs[e - 1].latency_s).sum::<f64>();

    let mut predicted: Vec<Option<Predicted>> =
        specs.iter().map(|s| s.task.map(|_| Predicted::default())).collect();
    let mut transfers: Vec<Transfer> = Vec::new();
    // (time, task, is_result) landings and (time, task) result departures.
    let mut landings: Vec<(f64, usize, bool)> = Vec::new();
    let mut departures: Vec<(f64, usize)> = Vec::new();
    for (task, spec) in specs.iter().enumerate() {
        if let Some((bits, _)) = spec.task {
            transfers.push(Transfer {
                task,
                result: false,
                edges: path(task),
                size: bits,
                sent: 0.0,
            });
        }
    }
    let mut open = transfers.len();
    let mut t = t0;
    while open > 0 {
        let mut total = vec![0.0; specs.len() + 1];
        for tr in &transfers {
            for &e in &tr.edges {
                total[e] += tr.size;
            }
        }
        for tr in &mut transfers {
            let mut c = f64::INFINITY;
            for &e in &tr.edges {
                let r = tr.size / total[e];
                c = c.min(specs[e - 1].capacity_bps * r);
            }
            tr.sent += c * DT;
        }
        t += DT;
        transfers.retain(|tr| {
            if tr.sent < tr.size {
                return true;
            }
            landings.push((t + latency(&tr.edges), tr.task, tr.result));
            false
        });
        landings.retain(|&(at, task, result)| {
            if at > t {
                return true;
            }
            let p = predicted[task].as_mut().expect("a task in flight has a prediction");
            if result {
                p.result_arrived = at;
                open -= 1;
            } else {
                p.input_arrived = at;
                departures.push((at + compute_s[task], task));
            }
            false
        });
        departures.retain(|&(at, task)| {
            if at > t {
                return true;
            }
            let edges = path(task);
            let (_, result_bits) = specs[task].task.expect("a departing task exists");
            if result_bits > 0.0 {
                transfers.push(Transfer {
                    task,
                    result: true,
                    edges,
                    size: result_bits,
                    sent: 0.0,
                });
            } else {
                landings.push((at + latency(&edges), task, true));
            }
            false
        });
    }
    predicted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mesh_sim_arrivals_match_the_fixed_step_stepper(specs in world()) {
        prop_assume!(specs.iter().any(|s| s.task.is_some()));
        let n = specs.len() + 1;
        let parents: Vec<usize> =
            specs.iter().enumerate().map(|(i, s)| s.parent_pick % (i + 1)).collect();
        let mut builder = MeshNetwork::builder(n);
        for (i, s) in specs.iter().enumerate() {
            let link = Link::new(s.capacity_bps, s.latency_s).expect("generated link");
            builder.add_edge(parents[i], i + 1, link).expect("tree edge");
        }
        let models =
            [DeviceModel::RaspberryPiAPlus, DeviceModel::RaspberryPiB, DeviceModel::RaspberryPiBPlus];
        let mut nodes = vec![Node::new(NodeId(0), DeviceModel::Laptop)];
        nodes.extend((1..n).map(|v| Node::new(NodeId(v), models[v % models.len()])));
        let cluster = Cluster::new_mesh(nodes, builder.build(), NodeId(0)).expect("tree cluster");

        // Task `i` belongs to worker `i` (node `i + 1`); workers without a
        // task keep an unscheduled placeholder so indices line up.
        let tasks: Vec<SimTask> = specs
            .iter()
            .map(|s| {
                let (bits, result) = s.task.unwrap_or((1.0, 0.0));
                SimTask::new(bits, result, 0.0).expect("valid sizes")
            })
            .collect();
        let assignment = NodeAssignment::from_vec(
            specs.iter().enumerate().map(|(i, s)| s.task.map(|_| NodeId(i + 1))).collect(),
        );
        let config = SimConfig { enforce_capacity: false, ..SimConfig::default() };
        let report = simulate(&cluster, &tasks, &assignment, config).expect("simulate");

        let compute_s: Vec<f64> = (0..specs.len())
            .map(|i| cluster.node(NodeId(i + 1)).expect("worker").compute_time(tasks[i].input_bits))
            .collect();
        let predicted = step_world(&parents, &specs, &compute_s, config.partition_overhead_s);

        for (i, p) in predicted.iter().enumerate() {
            let Some(p) = p else {
                prop_assert!(report.timelines[i].is_none());
                continue;
            };
            let t = report.timelines[i].expect("scheduled task has a timeline");
            prop_assert!(
                (t.compute_start - p.input_arrived).abs() <= TOLERANCE,
                "task {i}: input arrives at {} in the engine, {} in the stepper",
                t.compute_start, p.input_arrived
            );
            prop_assert!(
                (t.result_at - p.result_arrived).abs() <= TOLERANCE,
                "task {i}: result arrives at {} in the engine, {} in the stepper",
                t.result_at, p.result_arrived
            );
        }
    }
}
