//! `mesh_round`: one healthy and one faulted simulated round on a seeded
//! mesh world — `edgesim` (MeshSim, the calendar queue, dirty-edge
//! settlement, reroute on `LinkDown`) is the whole op.
//!
//! The op is the *pair*, not a single round: healthy and faulted rounds cost
//! differently (steady fluid flows vs abort/refund/reroute), and alternating
//! them as separate ops would put the median latency on the seam between
//! two modes. The per-layer metrics time the two rounds apart.

use super::{SingleClient, MESH_WORLD_SEED};
use crate::harness::{
    probe_ns, stream_rng, BoxError, Metrics, OpOutcome, Quality, RunConfig, Stages, WARMUP_SEED,
};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use rand::seq::SliceRandom;
use rand::Rng;
use std::time::Instant;
use tatim::edgesim::cluster::{Cluster, MeshSpec};
use tatim::edgesim::event::CalendarQueue;
use tatim::edgesim::faults::FaultSchedule;
use tatim::edgesim::node::NodeId;
use tatim::edgesim::run::{
    simulate, simulate_with_faults, FaultReport, NodeAssignment, SimConfig, SimReport, SimTask,
    TaskTimeline,
};

const TASKS_PER_WORKER: usize = 3;
/// Shares of the workers that crash, and whose uplink drops, per faulted
/// round; each outage lasts `MTTR_SHARE` of the healthy round's PT.
const CRASH_SHARE: f64 = 0.05;
const OUTAGE_SHARE: f64 = 0.02;
const MTTR_SHARE: f64 = 0.2;

const STREAM_TASKS: u64 = 1;
const STREAM_FAULTS: u64 = 2;
const STREAM_CALENDAR: u64 = 3;

pub struct Rounds {
    seed: u64,
    cluster: Cluster,
    workers: Vec<NodeId>,
    assignment: NodeAssignment,
    sim: SimConfig,
    /// Delivered and scheduled tasks of the counted faulted rounds.
    delivered: (u64, u64),
    min_ops: u64,
}

/// The tasks of round `i`: sizes drawn per task, results 1 % of inputs (the
/// pipeline's default shape).
pub fn round_tasks(seed: u64, i: u64, n: usize) -> Vec<SimTask> {
    let mut rng = stream_rng(seed, STREAM_TASKS, i);
    (0..n)
        .map(|_| {
            let bits = rng.gen_range(2e5..4e6);
            SimTask::new(bits, bits * 0.01, 1.0).expect("positive sizes are valid")
        })
        .collect()
}

/// The fault schedule of round `i`: a fixed share of distinct workers crash
/// at seeded times within the healthy round's span and recover one MTTR
/// later; another share lose their uplink for one MTTR.
pub fn round_faults(seed: u64, i: u64, workers: &[NodeId], healthy_pt: f64) -> FaultSchedule {
    let mut rng = stream_rng(seed, STREAM_FAULTS, i);
    let share = |s: f64| ((s * workers.len() as f64).ceil() as usize).max(1);
    let (crashes, outages) = (share(CRASH_SHARE), share(OUTAGE_SHARE));
    let mut victims = workers.to_vec();
    victims.shuffle(&mut rng);
    let mttr = MTTR_SHARE * healthy_pt;
    let mut schedule = FaultSchedule::new();
    for (k, &node) in victims.iter().take(crashes + outages).enumerate() {
        let at = rng.gen_range(0.0..1.0) * healthy_pt;
        schedule = if k < crashes {
            schedule.with_crash(node, at).and_then(|s| s.with_recovery(node, at + mttr))
        } else {
            schedule.with_link_outage(node, at, at + mttr)
        }
        .expect("finite, ordered fault times are valid");
    }
    schedule
}

fn ordered(t: &TaskTimeline, end: f64) -> bool {
    t.transfer_start <= t.compute_start
        && t.compute_start <= t.compute_end
        && t.compute_end <= t.result_at
        && t.result_at <= end
}

fn check_healthy(report: &SimReport, scheduled: usize) -> Result<(), String> {
    let delivered = report.timelines.iter().flatten().count();
    if delivered != scheduled {
        return Err(format!("healthy round delivered {delivered} of {scheduled} tasks"));
    }
    if !report.timelines.iter().flatten().all(|t| ordered(t, report.processing_time)) {
        return Err("healthy round has a causally unordered timeline".to_string());
    }
    Ok(())
}

fn check_faulted(report: &FaultReport, scheduled: usize) -> Result<(), String> {
    let (done, lost) = (report.completed_count(), report.failed_tasks().len());
    if done + lost != scheduled {
        return Err(format!("faulted round: {done} delivered + {lost} failed != {scheduled}"));
    }
    let consistent = report.timelines.iter().zip(&report.completed).all(|(t, &completed)| {
        t.map_or(!completed, |t| completed && ordered(&t, report.processing_time))
    });
    if !consistent {
        return Err("faulted round has an unordered or unaccounted timeline".to_string());
    }
    Ok(())
}

impl SingleClient for Rounds {
    const WARMUP: u64 = 2;

    fn min_ops(config: &RunConfig) -> u64 {
        config.pick(24, 3)
    }

    fn build(config: &RunConfig, stages: &mut Stages) -> Result<Self, BoxError> {
        let nodes = config.pick(300, 40);
        let cluster = stages.time("edgesim.mesh.build_ms", || {
            Cluster::mesh_testbed(MeshSpec::new(nodes, MESH_WORLD_SEED))
        })?;
        let workers: Vec<NodeId> = cluster.workers().map(|n| n.id()).collect();
        let n = TASKS_PER_WORKER * workers.len();
        let assignment =
            NodeAssignment::from_vec((0..n).map(|i| Some(workers[i % workers.len()])).collect());
        let mut rounds = Self {
            seed: WARMUP_SEED,
            cluster,
            workers,
            assignment,
            sim: SimConfig { enforce_capacity: false, ..SimConfig::default() },
            delivered: (0, 0),
            min_ops: Self::min_ops(config),
        };
        let mut off = Tracer::new(false, Instant::now());
        for i in 0..Self::WARMUP {
            rounds.op(u64::MAX - i, &mut off).verdict?;
        }
        rounds.seed = config.seed;
        Ok(rounds)
    }

    fn op(&mut self, i: u64, tracer: &mut Tracer) -> OpOutcome {
        let scheduled = self.assignment.scheduled_count();
        let tasks = round_tasks(self.seed, i, self.assignment.len());

        let root = tracer.root(i);
        let start = Instant::now();
        let span = tracer.begin("edgesim.mesh.healthy_round", root, i);
        let healthy = simulate(&self.cluster, &tasks, &self.assignment, self.sim);
        tracer.end(span);
        let Ok(healthy) = healthy else {
            return OpOutcome::failed(start.elapsed().as_nanos() as u64, "healthy round failed");
        };
        let schedule = round_faults(self.seed, i, &self.workers, healthy.processing_time);
        let span = tracer.begin("edgesim.mesh.faulted_round", root, i);
        let faulted =
            simulate_with_faults(&self.cluster, &tasks, &self.assignment, self.sim, &schedule);
        tracer.end(span);
        let latency_ns = start.elapsed().as_nanos() as u64;
        tracer.end(root);

        let faulted = match faulted {
            Ok(report) => report,
            Err(e) => return OpOutcome::failed(latency_ns, format!("faulted round: {e}")),
        };
        let verdict = check_healthy(&healthy, scheduled).and(check_faulted(&faulted, scheduled));
        let mut quality = Quality::default();
        quality.add_pt(healthy.processing_time);
        quality.add_pt(faulted.processing_time);
        if i < self.min_ops && !tracer.enabled() {
            self.delivered.0 += faulted.completed_count() as u64;
            self.delivered.1 += scheduled as u64;
        }
        OpOutcome { latency_ns, verdict, quality }
    }

    fn layers(&mut self, spans: &[Span], metrics: &mut Metrics) -> Result<(), BoxError> {
        metrics.set_from_spans(
            "edgesim.mesh.healthy_round_ms",
            spans,
            "edgesim.mesh.healthy_round",
            1e6,
        );
        metrics.set_from_spans(
            "edgesim.mesh.faulted_round_ms",
            spans,
            "edgesim.mesh.faulted_round",
            1e6,
        );
        // Every scheduled task is one input arrival, one compute completion
        // and one result arrival, whatever the engine does internally.
        let healthy_ns = trace::durations_of(spans, "edgesim.mesh.healthy_round");
        if !healthy_ns.is_empty() {
            let events = 3.0 * self.assignment.scheduled_count() as f64;
            metrics.set(
                "edgesim.mesh.task_events_per_s",
                events / (stats::median(&healthy_ns) / 1e9),
                healthy_ns.len(),
            );
        }
        let (delivered, scheduled) = self.delivered;
        metrics.set(
            "edgesim.mesh.delivered_frac",
            delivered as f64 / scheduled.max(1) as f64,
            scheduled as usize,
        );

        // The calendar queue on a long-tailed timestamp stream: mostly
        // near-future events, one in sixteen far ahead, as a round's mix of
        // transfer completions and retry timers.
        let events = 20_000usize;
        let mut rng = stream_rng(self.seed, STREAM_CALENDAR, 0);
        let gaps: Vec<f64> = (0..events)
            .map(|k| {
                let near: f64 = rng.gen_range(0.0..1.0);
                if k % 16 == 0 {
                    near * 1000.0
                } else {
                    near
                }
            })
            .collect();
        let (ns, samples) = probe_ns(3, 50, 0.3, || {
            let mut queue = CalendarQueue::new();
            for (k, gap) in gaps.iter().take(events / 2).enumerate() {
                queue.schedule(*gap, k);
            }
            // Steady state: every pop schedules a successor.
            for (k, gap) in gaps.iter().enumerate().skip(events / 2) {
                let (now, _) = queue.pop_next().expect("queue holds events");
                queue.schedule(now + gap, k);
            }
            while let Some(event) = queue.pop_next() {
                std::hint::black_box(event);
            }
        });
        metrics.set("edgesim.calendar.ops_per_s", 2.0 * events as f64 / (ns / 1e9), samples);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_and_fault_schedules_are_pure_functions_of_the_seed() {
        let workers: Vec<NodeId> = (1..=40).map(NodeId).collect();
        assert_eq!(round_tasks(5, 3, 60), round_tasks(5, 3, 60));
        assert_ne!(round_tasks(5, 3, 60), round_tasks(6, 3, 60));
        assert_ne!(round_tasks(5, 3, 60), round_tasks(5, 4, 60));
        let a = round_faults(5, 3, &workers, 10.0);
        assert_eq!(a, round_faults(5, 3, &workers, 10.0));
        assert_ne!(a, round_faults(6, 3, &workers, 10.0));
        // 5 % of 40 workers crash and recover, 2 % (one) lose their link.
        assert_eq!(a.crashed_nodes().len(), 2);
        assert_eq!(a.len(), 2 * 2 + 2);
    }
}
