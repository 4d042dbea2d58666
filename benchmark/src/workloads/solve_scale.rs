//! `solve_scale`: one re-solve round at freshly seeded importances — the
//! paper's "re-solved repeatedly because importance is time-varying".
//! `knapsack` (with `core::tatim` and `core::objective`) is the whole op.
//!
//! A round is four solves: `Greedy` blind and route-deflated on a large mesh
//! world, then `Portfolio(Anytime)` blind and route-deflated on a small one.
//! The sizes keep the three unexplained ROADMAP anomalies inside the op —
//! route-aware greedy several times slower than blind on the large world,
//! and an anytime portfolio that spends hundreds of milliseconds to return
//! exactly the greedy allocation — with comparable weight on both halves.

use super::{SingleClient, MESH_WORLD_SEED};
use crate::harness::{
    stream_rng, BoxError, Metrics, OpOutcome, Quality, RunConfig, Stages, WARMUP_SEED,
};
use crate::trace::{Span, Tracer};
use rand::Rng;
use std::time::Instant;
use tatim::core::objective::{deflated_fleet_with, route_budget_factors};
use tatim::core::processor::ProcessorFleet;
use tatim::core::task::{EdgeTask, TaskId};
use tatim::core::tatim::{SolveReport, SolverKind, TatimInstance};
use tatim::edgesim::cluster::{Cluster, MeshSpec};
use tatim::knapsack::portfolio::SolveBudget;

const TASKS_PER_WORKER: usize = 2;

const STREAM_SIZES: u64 = 11;
const STREAM_IMPORTANCES: u64 = 12;

/// One mesh world with its blind and route-deflated TATIM instances.
struct World {
    blind: TatimInstance,
    aware: TatimInstance,
}

impl World {
    fn build(nodes: usize, seed: u64, stages: &mut Stages) -> Result<Self, BoxError> {
        let cluster = stages.time("edgesim.mesh.build_ms", || {
            Cluster::mesh_testbed(MeshSpec::new(nodes, MESH_WORLD_SEED))
        })?;
        let workers = cluster.num_workers();
        let mut rng = stream_rng(seed, STREAM_SIZES, nodes as u64);
        let tasks = (0..TASKS_PER_WORKER * workers)
            .map(|i| EdgeTask::new(TaskId(i), format!("t{i}"), rng.gen_range(2e5..4e6), 1.0, 0.0))
            .collect::<Result<Vec<_>, _>>()?;
        let total: f64 = tasks.iter().map(EdgeTask::reference_time_s).sum();
        let fleet = ProcessorFleet::from_cluster(&cluster, 0.5 * total / workers as f64)?;
        let factors = stages
            .time("core.objective.route_factors_ms", || route_budget_factors(&cluster, &fleet));
        let deflated = deflated_fleet_with(&fleet, &factors)?;
        Ok(Self {
            blind: TatimInstance::new(tasks.clone(), fleet),
            aware: TatimInstance::new(tasks, deflated),
        })
    }

    fn num_tasks(&self) -> usize {
        self.blind.num_tasks()
    }
}

/// Round `i`'s importances for a world of `n` tasks.
pub fn round_importances(seed: u64, i: u64, n: usize) -> Vec<f64> {
    let mut rng = stream_rng(seed, STREAM_IMPORTANCES ^ ((n as u64) << 8), i);
    (0..n).map(|_| rng.gen_range(0.0..1.0)).collect()
}

pub struct Resolve {
    seed: u64,
    greedy: World,
    anytime: World,
    /// Branch-and-bound nodes and solves of the counted anytime solves.
    nodes: (u64, u64),
    min_ops: u64,
}

/// Feasible against its own (deflated, when aware) fleet, and worth what
/// the solver says it is.
fn check_solve(what: &str, instance: &TatimInstance, report: &SolveReport) -> Result<(), String> {
    if !report.allocation.is_feasible(instance.tasks(), instance.fleet()) {
        return Err(format!("{what}: allocation violates its fleet's budgets"));
    }
    let worth = report.allocation.total_importance(instance.tasks());
    if (worth - report.objective).abs() > 1e-9 * worth.abs().max(1.0) {
        return Err(format!(
            "{what}: objective {} but allocation is worth {worth}",
            report.objective
        ));
    }
    Ok(())
}

/// A sound certificate: the objective under its upper bound, and at least
/// the greedy floor the portfolio warm-starts from.
fn check_certified(
    what: &str,
    instance: &TatimInstance,
    report: &SolveReport,
) -> Result<(), String> {
    check_solve(what, instance, report)?;
    let Some(cert) = report.certificate else {
        return Err(format!("{what}: portfolio returned no certificate"));
    };
    let slack = 1e-9 * cert.upper_bound.abs().max(1.0);
    if report.objective > cert.upper_bound + slack || !(cert.gap >= 0.0 && cert.gap.is_finite()) {
        return Err(format!(
            "{what}: unsound certificate (objective {}, bound {}, gap {})",
            report.objective, cert.upper_bound, cert.gap
        ));
    }
    let greedy = instance.solve(&SolverKind::Greedy).map_err(|e| format!("{what}: {e}"))?;
    if report.objective + slack < greedy.objective {
        return Err(format!(
            "{what}: anytime {} below greedy {}",
            report.objective, greedy.objective
        ));
    }
    Ok(())
}

impl SingleClient for Resolve {
    const WARMUP: u64 = 1;

    fn min_ops(config: &RunConfig) -> u64 {
        config.pick(6, 2)
    }

    fn build(config: &RunConfig, stages: &mut Stages) -> Result<Self, BoxError> {
        let mut resolve = Self {
            seed: WARMUP_SEED,
            greedy: World::build(config.pick(3000, 120), config.seed, stages)?,
            // Only the large world's build and route pricing are reported.
            anytime: World::build(config.pick(150, 30), config.seed, &mut Stages::default())?,
            nodes: (0, 0),
            min_ops: Self::min_ops(config),
        };
        let mut off = Tracer::new(false, Instant::now());
        resolve.op(u64::MAX, &mut off).verdict?;
        resolve.seed = config.seed;
        Ok(resolve)
    }

    fn op(&mut self, i: u64, tracer: &mut Tracer) -> OpOutcome {
        let big = round_importances(self.seed, i, self.greedy.num_tasks());
        let small = round_importances(self.seed, i, self.anytime.num_tasks());
        let anytime = SolverKind::Portfolio(SolveBudget::Anytime);

        let root = tracer.root(i);
        let start = Instant::now();
        let span = tracer.begin("core.tatim.instance_build", root, i);
        let instances = [
            self.greedy.blind.with_importances(&big),
            self.greedy.aware.with_importances(&big),
            self.anytime.blind.with_importances(&small),
            self.anytime.aware.with_importances(&small),
        ];
        tracer.end(span);
        let mut solve = |name: &'static str, instance: &TatimInstance, kind: &SolverKind| {
            let span = tracer.begin(name, root, i);
            let report = instance.solve(kind);
            tracer.end(span);
            report
        };
        let reports = [
            solve("knapsack.greedy_blind", &instances[0], &SolverKind::Greedy),
            solve("knapsack.greedy_aware", &instances[1], &SolverKind::Greedy),
            solve("knapsack.anytime_blind", &instances[2], &anytime),
            solve("knapsack.anytime_aware", &instances[3], &anytime),
        ];
        let latency_ns = start.elapsed().as_nanos() as u64;
        tracer.end(root);

        let mut quality = Quality::default();
        let mut verdict = Ok(());
        let names = ["greedy blind", "greedy aware", "anytime blind", "anytime aware"];
        for (k, (report, instance)) in reports.iter().zip(&instances).enumerate() {
            let report = match report {
                Ok(report) => report,
                Err(e) => return OpOutcome::failed(latency_ns, format!("{}: {e}", names[k])),
            };
            let total: f64 = if k < 2 { &big } else { &small }.iter().sum();
            quality.add_captured(report.objective, total);
            let check: fn(&str, &TatimInstance, &SolveReport) -> Result<(), String> =
                if k < 2 { check_solve } else { check_certified };
            verdict = verdict.and(check(names[k], instance, report));
            if let Some(cert) = report.certificate {
                quality.add_gap(cert.gap);
                if i < self.min_ops && !tracer.enabled() {
                    self.nodes.0 += cert.nodes;
                    self.nodes.1 += 1;
                }
            }
        }
        OpOutcome { latency_ns, verdict, quality }
    }

    fn layers(&mut self, spans: &[Span], metrics: &mut Metrics) -> Result<(), BoxError> {
        // Four `with_importances` calls per span.
        metrics.set_from_spans(
            "core.tatim.instance_build_us",
            spans,
            "core.tatim.instance_build",
            4e3,
        );
        for (name, span) in [
            ("knapsack.greedy_blind_ms", "knapsack.greedy_blind"),
            ("knapsack.greedy_aware_ms", "knapsack.greedy_aware"),
            ("knapsack.anytime_blind_ms", "knapsack.anytime_blind"),
            ("knapsack.anytime_aware_ms", "knapsack.anytime_aware"),
        ] {
            metrics.set_from_spans(name, spans, span, 1e6);
        }
        let (nodes, solves) = self.nodes;
        metrics.set("knapsack.anytime_nodes", nodes as f64 / solves.max(1) as f64, solves as usize);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn importances_are_pure_functions_of_seed_round_and_size() {
        assert_eq!(round_importances(9, 2, 300), round_importances(9, 2, 300));
        assert_ne!(round_importances(9, 2, 300), round_importances(10, 2, 300));
        assert_ne!(round_importances(9, 2, 300), round_importances(9, 3, 300));
        assert_ne!(round_importances(9, 2, 300)[..60], round_importances(9, 2, 60)[..]);
        assert!(round_importances(9, 2, 300).iter().all(|x| (0.0..1.0).contains(x)));
    }
}
