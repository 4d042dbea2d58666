//! Simulator scale sweep (`reproduce --exp edgesim-scale`): events per
//! second at 10/100/1000 nodes, star vs mesh, at 1/2/8 threads.
//!
//! Star rows run healthy per-node-link rounds (the closed-form per-node
//! legs, fanned out above 256 scheduled tasks); mesh rows run the
//! proportional-share fluid transport on the seeded grid-with-chords
//! testbed at the same node counts. Star and mesh work are not comparable
//! (multi-hop routing, rate recomputation), so every speedup is reported
//! against the same topology's own 1-thread row. What the rounds compute
//! is pinned elsewhere, bit for bit: `edgesim`'s `engine_golden` test
//! holds whole reports on both topologies, on both sides of the fan-out
//! threshold, to digests of the engines these replaced.
//!
//! The throughput unit is *task events per second*: every scheduled task
//! costs one input-arrival, one compute-done and one result-arrival, so a
//! round is `3 × scheduled` causal task events regardless of internal
//! bookkeeping.

use crate::common::{best_of_ms, f1, f3, RunOpts, Table};
use edgesim::cluster::{Cluster, MeshSpec};
use edgesim::node::NodeId;
use edgesim::run::{simulate, NodeAssignment, SimConfig, SimTask};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::error::Error;
use std::hint::black_box;

/// Cluster sizes the sweep visits (total nodes, controller included).
pub const NODE_COUNTS: [usize; 3] = [10, 100, 1000];

/// Thread caps each engine row is timed under.
pub const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// One `(topology, node count, thread cap)` cell.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleRow {
    /// `star` or `mesh`.
    pub topology: String,
    /// Total nodes, controller included.
    pub nodes: usize,
    /// Thread cap the round ran under.
    pub threads: usize,
    /// Tasks the round schedules.
    pub scheduled: usize,
    /// Best-of-reps wall time of one round, milliseconds.
    pub wall_ms: f64,
    /// Task events per second (`3 × scheduled` per round).
    pub events_per_s: f64,
    /// Against the same topology and node count at 1 thread.
    pub speedup: f64,
}

/// The sweep snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleStudy {
    /// Every measured cell.
    pub rows: Vec<ScaleRow>,
    /// Whether quick workloads were used.
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Rendered table.
    pub table: Table,
}

/// A seeded round-robin round over the cluster's workers: the same task
/// stream for the star and mesh clusters of one node count.
fn scale_round(
    nodes: usize,
    tasks_per_node: usize,
    seed: u64,
) -> Result<(Vec<SimTask>, NodeAssignment), Box<dyn Error>> {
    let n = nodes * tasks_per_node;
    let mut rng = StdRng::seed_from_u64(seed ^ nodes as u64);
    let tasks: Vec<SimTask> = (0..n)
        .map(|_| SimTask::new(rng.gen_range(1.0e3..2.0e6), rng.gen_range(1.0e2..1.0e5), 0.0))
        .collect::<Result<_, _>>()?;
    let mut assignment = NodeAssignment::empty(n);
    for i in 0..n {
        assignment.assign(i, Some(NodeId(1 + (i % (nodes - 1)))));
    }
    Ok((tasks, assignment))
}

/// Runs the scale sweep.
///
/// # Errors
///
/// Propagates cluster, task construction and simulation failures.
pub fn run(opts: &RunOpts) -> Result<ScaleStudy, Box<dyn Error>> {
    let reps = opts.pick(3, 1);
    let tasks_per_node = opts.pick(12, 3);
    let mut table = Table::new(
        "Simulator scale — task events per second by topology, nodes and threads",
        &["topology", "nodes", "tasks", "threads", "wall (ms)", "events/s", "speedup"],
    );
    let mut rows = Vec::new();

    for &nodes in &NODE_COUNTS {
        let (tasks, assignment) = scale_round(nodes, tasks_per_node, opts.seed)?;
        let scheduled = assignment.scheduled_count();
        let config = SimConfig::default();
        let worlds = [
            ("star", Cluster::testbed_with_workers(nodes - 1)?),
            ("mesh", Cluster::mesh_testbed(MeshSpec::new(nodes, opts.seed ^ 0x3E5))?),
        ];
        for (topology, cluster) in &worlds {
            let mut serial_ms = None;
            for &threads in &THREAD_COUNTS {
                let _threads = parallel::ScopedThreads::new(threads);
                let (wall_ms, _) = best_of_ms(reps, || {
                    simulate(cluster, &tasks, &assignment, config).map(black_box)
                })?;
                let row = ScaleRow {
                    topology: topology.to_string(),
                    nodes,
                    threads,
                    scheduled,
                    wall_ms,
                    events_per_s: 3.0 * scheduled as f64 / (wall_ms / 1e3).max(1e-9),
                    speedup: *serial_ms.get_or_insert(wall_ms) / wall_ms.max(1e-9),
                };
                table.push_row(vec![
                    row.topology.clone(),
                    nodes.to_string(),
                    scheduled.to_string(),
                    threads.to_string(),
                    f3(wall_ms),
                    f1(row.events_per_s),
                    f3(row.speedup),
                ]);
                rows.push(row);
            }
        }
    }
    Ok(ScaleStudy { rows, quick: opts.quick, seed: opts.seed, table })
}
