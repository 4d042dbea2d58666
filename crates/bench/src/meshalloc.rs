//! Topology-aware vs topology-blind allocation on large mesh testbeds
//! (the PR-10 headline experiment, `reproduce --exp mesh-alloc`).
//!
//! For each mesh world the study prices one seeded synthetic round —
//! importances, input sizes, a shared Eq.-3 budget — then solves TATIM
//! twice per solver: *blind* over the raw fleet, and *aware* over the
//! route-deflated fleet of `dcta_core::objective` (the same budgets every
//! route-cost `AllocQuery` solves over). Both allocations replay through
//! the mesh fluid simulator, and the scored metric is **retained
//! importance per makespan second**: aware allocations trade a sliver of
//! captured importance for much cheaper routes, so the ratio must come out
//! ahead on congested worlds.

use crate::common::{f3, RunOpts, Table};
use dcta_core::objective::{deflated_fleet_with, route_budget_factors};
use dcta_core::processor::ProcessorFleet;
use dcta_core::task::{EdgeTask, TaskId};
use dcta_core::tatim::{SolverKind, TatimInstance};
use edgesim::cluster::{Cluster, MeshSpec};
use edgesim::run::{simulate, SimConfig, SimTask};
use knapsack::portfolio::SolveBudget;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::error::Error;
use std::time::Instant;

/// Mesh sizes the full study visits (total nodes, controller included).
pub const MESH_NODE_COUNTS: [usize; 2] = [1000, 4000];
/// Quick-mode sizes.
pub const QUICK_NODE_COUNTS: [usize; 2] = [60, 120];

/// One (world, solver, blind/aware) cell.
#[derive(Debug, Clone, Serialize)]
pub struct MeshAllocCell {
    /// Total mesh nodes (controller included).
    pub nodes: usize,
    /// `greedy` or `portfolio`.
    pub solver: String,
    /// Whether the solve ran over the route-deflated fleet.
    pub aware: bool,
    /// Tasks the allocation schedules.
    pub scheduled: usize,
    /// Captured importance (the TATIM objective).
    pub captured: f64,
    /// Simulated mesh makespan, seconds.
    pub makespan_s: f64,
    /// The scored metric: captured importance per makespan second.
    pub importance_per_s: f64,
    /// Solver wall-clock, milliseconds.
    pub solve_ms: f64,
}

/// One world's aware-vs-blind comparison per solver.
#[derive(Debug, Clone, Serialize)]
pub struct MeshAllocGain {
    /// Total mesh nodes.
    pub nodes: usize,
    /// Solver id.
    pub solver: String,
    /// `aware.importance_per_s / blind.importance_per_s`.
    pub gain: f64,
}

/// The full study snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct MeshAllocStudy {
    /// Every measured cell.
    pub cells: Vec<MeshAllocCell>,
    /// Aware-over-blind metric ratios, one per (world, solver).
    pub gains: Vec<MeshAllocGain>,
    /// Whether quick workloads were used.
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Rendered table.
    pub table: Table,
}

/// The seeded synthetic round for one mesh world: ~2 tasks per worker with
/// log-uniform-ish input sizes and uniform importances, plus the matching
/// simulator tasks (results are 1% of inputs, the pipeline's default
/// shape).
fn synthetic_round(
    workers: usize,
    seed: u64,
) -> Result<(Vec<EdgeTask>, Vec<SimTask>), Box<dyn Error>> {
    let n = 2 * workers;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tasks = Vec::with_capacity(n);
    let mut sim_tasks = Vec::with_capacity(n);
    for i in 0..n {
        let bits = rng.gen_range(2e5..4e6);
        let importance = rng.gen_range(0.0..1.0);
        tasks.push(EdgeTask::new(TaskId(i), format!("t{i}"), bits, 1.0, importance)?);
        sim_tasks.push(SimTask::new(bits, bits * 0.01, 1.0)?);
    }
    Ok((tasks, sim_tasks))
}

/// One seeded mesh world priced as a TATIM round: the cluster, the round's
/// simulator tasks, and the same tasks over the raw (*blind*) and the
/// route-deflated (*aware*) fleet.
struct MeshWorld {
    /// The mesh testbed.
    cluster: Cluster,
    /// The round as the simulator replays it.
    sim_tasks: Vec<SimTask>,
    /// The undeflated fleet (the real cluster's budgets).
    fleet: ProcessorFleet,
    /// Smallest route budget factor over the fleet.
    min_route_factor: f64,
    /// The round over the raw fleet.
    blind: TatimInstance,
    /// The round over the route-deflated fleet.
    aware: TatimInstance,
}

impl MeshWorld {
    /// Builds the world of `nodes` total nodes (controller included) under
    /// the master `seed`: the shared Eq.-3 budget is half the round's total
    /// reference time spread over the workers.
    ///
    /// # Errors
    ///
    /// Propagates cluster, task and fleet construction failures.
    fn build(nodes: usize, seed: u64) -> Result<Self, Box<dyn Error>> {
        let cluster = Cluster::mesh_testbed(MeshSpec::new(nodes, seed ^ 0xA110C))?;
        let workers = cluster.num_workers();
        let (tasks, sim_tasks) = synthetic_round(workers, seed ^ nodes as u64)?;
        let total: f64 = tasks.iter().map(EdgeTask::reference_time_s).sum();
        let fleet = ProcessorFleet::from_cluster(&cluster, 0.5 * total / workers as f64)?;
        let factors = route_budget_factors(&cluster, &fleet);
        let deflated = deflated_fleet_with(&fleet, &factors)?;
        Ok(Self {
            min_route_factor: factors.iter().copied().fold(f64::INFINITY, f64::min),
            blind: TatimInstance::new(tasks.clone(), fleet.clone()),
            aware: TatimInstance::new(tasks, deflated),
            cluster,
            sim_tasks,
            fleet,
        })
    }
}

/// Runs the mesh allocation study.
///
/// # Errors
///
/// Propagates cluster construction, solver and simulation failures.
pub fn run(opts: &RunOpts) -> Result<MeshAllocStudy, Box<dyn Error>> {
    let node_counts = opts.pick(MESH_NODE_COUNTS, QUICK_NODE_COUNTS);
    let mut table = Table::new(
        "Mesh allocation — topology-aware vs blind (importance per makespan second)",
        &[
            "nodes",
            "solver",
            "budgets",
            "scheduled",
            "captured",
            "makespan (s)",
            "imp/s",
            "solve (ms)",
        ],
    );
    let mut cells = Vec::new();
    let mut gains = Vec::new();

    for &nodes in &node_counts {
        let MeshWorld { cluster, sim_tasks, fleet, min_route_factor, blind, aware } =
            MeshWorld::build(nodes, opts.seed)?;
        println!(
            "[mesh-alloc: {nodes} nodes, {} tasks, min route factor {min_route_factor:.3}]",
            blind.num_tasks(),
        );

        for (solver, kind) in [
            ("greedy", SolverKind::Greedy),
            // `Anytime` is the portfolio's production-size configuration
            // (DESIGN.md §15.2) — these worlds are exactly the sizes it
            // exists for.
            ("portfolio", SolverKind::Portfolio(SolveBudget::Anytime)),
        ] {
            let mut metric = [0.0f64; 2];
            for (slot, (label, inst)) in [("blind", &blind), ("aware", &aware)].iter().enumerate() {
                let t0 = Instant::now();
                let report = inst.solve(&kind)?;
                let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
                // Node mapping only needs the processor columns, identical
                // in both fleets; the undeflated one is the real cluster.
                let assignment = report.allocation.to_node_assignment(&fleet);
                let sim = simulate(&cluster, &sim_tasks, &assignment, SimConfig::default())?;
                let makespan = sim.processing_time;
                let per_s = report.objective / makespan.max(1e-9);
                metric[slot] = per_s;
                table.push_row(vec![
                    nodes.to_string(),
                    solver.to_string(),
                    label.to_string(),
                    report.allocation.scheduled_count().to_string(),
                    f3(report.objective),
                    f3(makespan),
                    f3(per_s),
                    f3(solve_ms),
                ]);
                cells.push(MeshAllocCell {
                    nodes,
                    solver: solver.to_string(),
                    aware: slot == 1,
                    scheduled: report.allocation.scheduled_count(),
                    captured: report.objective,
                    makespan_s: makespan,
                    importance_per_s: per_s,
                    solve_ms,
                });
            }
            let gain = metric[1] / metric[0].max(1e-12);
            println!("  {solver}: aware/blind imp-per-s = {gain:.3}");
            gains.push(MeshAllocGain { nodes, solver: solver.to_string(), gain });
        }
    }

    Ok(MeshAllocStudy { cells, gains, quick: opts.quick, seed: opts.seed, table })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar: on the 1000-node mesh the route-aware greedy
    /// allocation must retain more importance per makespan second than the
    /// blind one.
    #[test]
    #[ignore = "full-size world; run explicitly or via reproduce --exp mesh-alloc"]
    fn aware_beats_blind_on_the_thousand_node_mesh() {
        let study = run(&RunOpts::default()).unwrap();
        let g = study
            .gains
            .iter()
            .find(|g| g.nodes == 1000 && g.solver == "greedy")
            .expect("1000-node greedy gain");
        assert!(g.gain > 1.0, "aware must beat blind: gain {}", g.gain);
    }

    #[test]
    fn quick_study_produces_all_cells_and_positive_metrics() {
        let study = run(&RunOpts { quick: true, ..RunOpts::default() }).unwrap();
        assert_eq!(study.cells.len(), QUICK_NODE_COUNTS.len() * 4);
        assert!(study.cells.iter().all(|c| c.importance_per_s > 0.0));
        assert_eq!(study.gains.len(), QUICK_NODE_COUNTS.len() * 2);
    }
}
