//! Simulator scale sweep: events per second at 10/100/1000 nodes, star
//! vs mesh, at 1/2/8 threads.
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

use crate::common::{f1, RunOpts};
use crate::trend::TrendRow as Row;
use edgesim::cluster::{Cluster, MeshSpec};
use edgesim::node::NodeId;
use edgesim::run::{simulate, NodeAssignment, SimConfig, SimTask};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;
use std::hint::black_box;
use std::time::Instant;

/// Cluster sizes the sweep visits (total nodes, controller included).
pub const NODE_COUNTS: [usize; 3] = [10, 100, 1000];

/// Thread caps each engine row is timed under.
pub const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

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

/// Best-of-`reps` wall time in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

fn events_per_sec(scheduled: usize, wall_ms: f64) -> f64 {
    3.0 * scheduled as f64 / (wall_ms / 1e3).max(1e-9)
}

/// Runs the scale sweep; returns one trend row per
/// `(topology, node count, thread cap)` cell, each topology's speedups
/// against its own 1-thread row.
///
/// # Errors
///
/// Propagates cluster and task construction failures.
pub fn edgesim_scale(opts: &RunOpts) -> Result<Vec<Row>, Box<dyn Error>> {
    let reps = opts.pick(3, 1);
    let tasks_per_node = opts.pick(12, 3);
    let mut rows = Vec::new();

    for &nodes in &NODE_COUNTS {
        let (tasks, assignment) = scale_round(nodes, tasks_per_node, opts.seed)?;
        let scheduled = assignment.scheduled_count();
        let config = SimConfig::default();
        println!("[edgesim scale: {nodes} nodes, {scheduled} tasks]");

        let worlds = [
            ("star", Cluster::testbed_with_workers(nodes - 1)?),
            ("mesh", Cluster::mesh_testbed(MeshSpec::new(nodes, opts.seed ^ 0x3E5))?),
        ];
        for (topology, cluster) in &worlds {
            let mut serial_ms = None;
            for &threads in &THREAD_COUNTS {
                parallel::set_max_threads(threads);
                let wall = time_ms(reps, || {
                    black_box(simulate(cluster, &tasks, &assignment, config).expect("simulate"));
                });
                parallel::set_max_threads(0);
                let base = *serial_ms.get_or_insert(wall);
                println!(
                    "  {topology} {threads}t: {} ev/s ({} ms)",
                    f1(events_per_sec(scheduled, wall)),
                    f1(wall),
                );
                rows.push(Row {
                    bench: format!("edgesim_scale_{topology}{nodes}"),
                    threads,
                    wall_ms: wall,
                    speedup: base / wall.max(1e-9),
                });
            }
        }
    }
    Ok(rows)
}
