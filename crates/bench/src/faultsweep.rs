//! Mid-run fault sweep: a crash-rate × MTTR grid comparing how much task
//! importance each recovery policy salvages.
//!
//! Every grid cell seeds a [`FaultSchedule`] over the worker nodes and
//! replays the *same* faulted round under four controller reactions:
//!
//! * `resolve` — DCTA with recovery: re-solve TATIM over the survivors,
//!   shedding ascending-importance tasks when capacity falls short;
//! * `none` — no recovery: orphaned work is simply lost;
//! * `random-shed` — re-dispatch as much as fits, chosen importance-blind;
//! * `proactive` — the learned availability posterior shapes the *initial*
//!   allocation (important tasks steer clear of fragile nodes) and the
//!   post-crash re-solve prefers high-availability survivors.
//!
//! Crash behaviour is heterogeneous: within a cell, even-indexed workers
//! are *fragile* (1.6× the cell's crash rate) and odd-indexed workers are
//! *steady* (0.4×), keeping the fleet-mean rate at the cell's nominal
//! value. That per-node skew is the long-run signal the proactive arm's
//! Beta posterior learns — first from a seeded warm-up of schedule
//! exposures (no simulation, observation only), then online from each
//! faulted round it runs (`observe_faults` after every proactive run). The
//! posterior is cleared at every cell boundary so cells stay independent;
//! the three reactive arms never touch it and remain bit-identical to their
//! pre-availability behaviour.
//!
//! The headline metric is the retained-importance fraction (delivered true
//! importance over the healthy run's), alongside degraded-mode decision
//! performance and the re-allocation latency of the recovery solve. The
//! sweep also reports each policy's *worst cell* — proactive's win
//! condition is the worst-case, not just the mean.
//!
//! The sweep also replays a 100-node mesh scenario ([`Topology::Mesh`])
//! whose schedule mixes crashes with link outages — the partition-heavy
//! regime where redispatch targeting matters most.

use crate::common::{
    f3, mean, paper_pipeline, paper_scenario, persist_availability, prepare_cached, RunOpts, Table,
};
use dcta_core::pipeline::{Method, RunSpec, Topology};
use dcta_core::recovery::RecoveryMode;
use dcta_core::shared::PreparedCore;
use edgesim::cluster::MeshSpec;
use edgesim::faults::{FaultKind, FaultSchedule};
use edgesim::node::NodeId;
use edgesim::trace::{node_exposures, FailureKind, FailureRecord, NodeExposure};
use serde::Serialize;
use std::error::Error;

/// The four controller reactions compared in every cell.
const MODES: [RecoveryMode; 4] =
    [RecoveryMode::Resolve, RecoveryMode::None, RecoveryMode::RandomShed, RecoveryMode::Proactive];

/// Observation-only warm-up rounds absorbed into the availability
/// posterior at each cell boundary (full mode, quick mode).
const WARMUP_ROUNDS: (usize, usize) = (60, 30);

/// Per-policy aggregate over one grid cell (all evaluation days).
#[derive(Debug, Clone, Serialize)]
pub struct ArmStats {
    /// Policy name (`resolve`, `none`, `random-shed`, `proactive`).
    pub mode: String,
    /// Mean retained-importance fraction across days.
    pub mean_retained_fraction: f64,
    /// Worst retained-importance fraction across days.
    pub min_retained_fraction: f64,
    /// Mean degraded-over-healthy decision-performance ratio.
    pub mean_decision_fraction: f64,
    /// Mean faulted-over-healthy processing-time ratio (simulated time
    /// only — the measured re-solve latency is reported separately).
    pub mean_slowdown: f64,
    /// Mean recovery re-solve latency in milliseconds (0 without one).
    pub mean_replan_latency_ms: f64,
    /// Tasks shed by the recovery plans, summed over days.
    pub shed_tasks: usize,
    /// Scheduled tasks that never delivered, summed over days.
    pub lost_tasks: usize,
}

/// One crash-rate × MTTR grid cell.
#[derive(Debug, Clone, Serialize)]
pub struct FaultCell {
    /// Per-worker *mean* crash probability (fragile workers run at 1.6×,
    /// steady workers at 0.4× this value).
    pub crash_rate: f64,
    /// Mean time to recovery as a fraction of the healthy round's PT.
    pub mttr_fraction: f64,
    /// Days on which at least one assigned worker actually crashed.
    pub faulted_days: usize,
    /// Aggregates for `resolve`, `none`, `random-shed`, `proactive` (in
    /// that order).
    pub arms: Vec<ArmStats>,
}

/// The 100-node mesh leg: link outages plus crashes on a
/// [`Topology::Mesh`] cluster, same four reactions.
#[derive(Debug, Clone, Serialize)]
pub struct MeshLeg {
    /// Mesh size (nodes).
    pub nodes: usize,
    /// Link-outage events scheduled, summed over days.
    pub link_outages: usize,
    /// Crash events scheduled, summed over days.
    pub crashes: usize,
    /// Days on which at least one fault actually bit.
    pub faulted_days: usize,
    /// Aggregates per reaction, in `MODES` order.
    pub arms: Vec<ArmStats>,
}

/// Snapshot of the full sweep.
#[derive(Debug, Clone, Serialize)]
pub struct FaultSweep {
    /// Quick mode flag.
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Allocator whose plan the faults hit.
    pub method: String,
    /// Evaluation days per cell.
    pub days: usize,
    /// The grid.
    pub cells: Vec<FaultCell>,
    /// Grand mean retained fraction per policy, over faulted cells.
    pub overall_retained: Vec<f64>,
    /// Per policy, the *minimum* over cells of the cell-mean retained
    /// fraction — the worst-case a deployment actually feels.
    pub worst_cell_retained: Vec<f64>,
    /// The 100-node mesh link-outage leg.
    pub mesh: Option<MeshLeg>,
    /// Rendered table.
    pub table: Table,
}

struct Accumulator {
    retained: Vec<f64>,
    decision: Vec<f64>,
    slowdown: Vec<f64>,
    latency_ms: Vec<f64>,
    shed: usize,
    lost: usize,
}

impl Accumulator {
    fn new() -> Self {
        Self {
            retained: Vec::new(),
            decision: Vec::new(),
            slowdown: Vec::new(),
            latency_ms: Vec::new(),
            shed: 0,
            lost: 0,
        }
    }

    fn finish(self, mode: RecoveryMode) -> ArmStats {
        ArmStats {
            mode: mode.to_string(),
            mean_retained_fraction: mean(&self.retained),
            min_retained_fraction: self.retained.iter().copied().fold(f64::INFINITY, f64::min),
            mean_decision_fraction: mean(&self.decision),
            mean_slowdown: mean(&self.slowdown),
            mean_replan_latency_ms: mean(&self.latency_ms),
            shed_tasks: self.shed,
            lost_tasks: self.lost,
        }
    }
}

/// Per-worker crash rates for one cell: even-indexed workers fragile at
/// 1.6× the nominal rate, odd-indexed steady at 0.4×, fleet mean ≈
/// nominal. Clamped to probabilities.
fn fragility_rates(crash_rate: f64, workers: usize) -> Vec<f64> {
    (0..workers)
        .map(|i| if i % 2 == 0 { (1.6 * crash_rate).min(1.0) } else { 0.4 * crash_rate })
        .collect()
}

/// Re-expresses a fault *schedule* as the failure *history* an observer of
/// that round would have logged, and folds it into exposures. Warm-up uses
/// this to feed the posterior pure observations — no simulation runs.
fn schedule_exposures(
    schedule: &FaultSchedule,
    nodes: &[NodeId],
    horizon_s: f64,
) -> Vec<NodeExposure> {
    let records: Vec<FailureRecord> = schedule
        .events()
        .iter()
        .filter_map(|ev| {
            let kind = match ev.kind {
                FaultKind::Crash(n) => Some(FailureKind::NodeCrashed(n)),
                FaultKind::Recover(n) => Some(FailureKind::NodeRecovered(n)),
                FaultKind::LinkDown(n) => Some(FailureKind::LinkWentDown(n)),
                FaultKind::LinkUp(n) => Some(FailureKind::LinkRestored(n)),
                FaultKind::StragglerStart(..) | FaultKind::StragglerEnd(_) => None,
            };
            kind.map(|kind| FailureRecord { time: ev.time, kind })
        })
        .collect();
    node_exposures(&records, nodes, horizon_s)
}

/// Clears the posterior and absorbs `rounds` seeded warm-up schedules —
/// the operational prior a long-running deployment would hold before the
/// evaluated rounds begin. `nodes` must be the *full* fleet (controller
/// included): nodes a schedule never faults accrue clean uptime, which is
/// exactly how the posterior learns that the controller is the one node
/// that never dies.
fn warm_up_posterior(
    prepared: &PreparedCore,
    rounds: usize,
    seed: u64,
    nodes: &[NodeId],
    horizon_s: f64,
    mut schedule_for: impl FnMut(u64) -> Result<FaultSchedule, Box<dyn Error>>,
) -> Result<(), Box<dyn Error>> {
    let model = prepared.availability();
    model.clear();
    for w in 0..rounds {
        let round_seed = seed ^ (w as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let schedule = schedule_for(round_seed)?;
        model.absorb(&schedule_exposures(&schedule, nodes, horizon_s));
        model.advance_round();
    }
    Ok(())
}

/// Runs the sweep: crash rates × MTTR fractions, four policies each.
///
/// # Errors
///
/// Propagates scenario, pipeline, and fault-schedule failures.
pub fn run(opts: &RunOpts) -> Result<FaultSweep, Box<dyn Error>> {
    let scenario = paper_scenario(opts, opts.pick(10, 6))?;
    // PT must stay a pure function of the simulation so the seeded fault
    // windows (fractions of the healthy PT) are reproducible bit for bit;
    // wall-clock allocation overhead would jitter them.
    let mut config = paper_pipeline(opts);
    config.include_allocation_overhead = false;
    // Recovery capacity is scarce: the re-solve round only gets 30% of
    // each survivor's time budget, so a crash that orphans important work
    // cannot always be papered over after the fact — the regime where the
    // *initial* placement decides what survives.
    config.recovery_budget_fraction = 0.3;
    let mut prepared = prepare_cached(config, &scenario)?;
    let days: Vec<usize> = prepared.test_days().collect();

    let fleet_nodes: Vec<NodeId> = prepared.fleet().processors().iter().map(|p| p.node).collect();
    let workers: Vec<NodeId> = fleet_nodes.iter().copied().filter(|node| node.0 != 0).collect();

    // The healthy round length per day anchors both the crash window and
    // the MTTR scale.
    let mut horizons = Vec::with_capacity(days.len());
    for &day in &days {
        horizons.push(prepared.run(&RunSpec::new(Method::Dcta, day))?.processing_time_s());
    }
    let mean_horizon = mean(&horizons).max(1e-6);

    let crash_rates: Vec<f64> = opts.pick(vec![0.2, 0.4, 0.6, 0.8], vec![0.4, 0.8]);
    let mttr_fractions: Vec<f64> = opts.pick(vec![0.0, 0.25, 0.75], vec![0.0, 0.5]);
    let warmup = opts.pick(WARMUP_ROUNDS.0, WARMUP_ROUNDS.1);

    let mut table = Table::new(
        "Fault sweep — retained importance fraction by recovery policy",
        &[
            "crash rate",
            "MTTR/PT",
            "faulted days",
            "resolve",
            "none",
            "random-shed",
            "proactive",
            "replan ms",
        ],
    );
    let mut cells = Vec::new();
    let mut overall = vec![Vec::new(); MODES.len()];
    for (ci, &crash_rate) in crash_rates.iter().enumerate() {
        for (mi, &mttr_fraction) in mttr_fractions.iter().enumerate() {
            let rates = fragility_rates(crash_rate, workers.len());
            // A fresh posterior per cell, warmed on the cell's own fault
            // regime: cells stay independent and order-invariant.
            warm_up_posterior(
                &prepared,
                warmup,
                opts.seed ^ 0xAB1E ^ (ci as u64) << 8 ^ (mi as u64),
                &fleet_nodes,
                mean_horizon,
                |round_seed| {
                    Ok(FaultSchedule::seeded_rates(
                        round_seed,
                        &workers,
                        &rates,
                        mttr_fraction * mean_horizon,
                        mean_horizon,
                    )?)
                },
            )?;
            let mut accs: Vec<Accumulator> = MODES.iter().map(|_| Accumulator::new()).collect();
            let mut faulted_days = 0usize;
            for (di, &day) in days.iter().enumerate() {
                let horizon = horizons[di].max(1e-6);
                let seed = opts
                    .seed
                    .wrapping_add(0x9E37 * (ci as u64 + 1))
                    .wrapping_add(0x79B9 * (mi as u64 + 1))
                    .wrapping_add(day as u64);
                let schedule = FaultSchedule::seeded_rates(
                    seed,
                    &workers,
                    &rates,
                    mttr_fraction * horizon,
                    horizon,
                )?;
                let mut any_fault = false;
                for (ai, &mode) in MODES.iter().enumerate() {
                    let spec = RunSpec::new(Method::Dcta, day).with_faults(schedule.clone(), mode);
                    let r = prepared.run(&spec)?.into_faulted().expect("faulted spec");
                    if mode == RecoveryMode::Proactive {
                        prepared.observe_faults(&r);
                    }
                    any_fault |= !r.failures.is_empty();
                    let acc = &mut accs[ai];
                    acc.retained.push(r.retained_fraction);
                    acc.decision.push(if r.healthy_decision_performance.abs() > 1e-12 {
                        r.decision_performance / r.healthy_decision_performance
                    } else {
                        1.0
                    });
                    // Simulated slowdown only: the measured re-solve
                    // latency is reported separately (latency_ms) so this
                    // column stays seed-deterministic.
                    acc.slowdown.push(
                        r.simulated_processing_time_s / r.healthy_processing_time_s.max(1e-12),
                    );
                    acc.latency_ms.push(r.reallocation_latency_s * 1e3);
                    acc.shed += r.shed.len();
                    acc.lost += r.lost.len();
                }
                faulted_days += usize::from(any_fault);
            }
            let arms: Vec<ArmStats> =
                accs.into_iter().zip(MODES).map(|(acc, mode)| acc.finish(mode)).collect();
            for (o, arm) in overall.iter_mut().zip(&arms) {
                o.push(arm.mean_retained_fraction);
            }
            table.push_row(vec![
                format!("{crash_rate:.2}"),
                format!("{mttr_fraction:.2}"),
                faulted_days.to_string(),
                f3(arms[0].mean_retained_fraction),
                f3(arms[1].mean_retained_fraction),
                f3(arms[2].mean_retained_fraction),
                f3(arms[3].mean_retained_fraction),
                f3(arms[0].mean_replan_latency_ms),
            ]);
            cells.push(FaultCell { crash_rate, mttr_fraction, faulted_days, arms });
        }
    }

    // The last cell's learned posterior becomes the durable operational
    // prior, persisted next to the importance cache so a redeployment (or
    // the next sweep) warm-starts instead of learning from scratch.
    persist_availability(prepared.availability());

    let mesh = Some(mesh_leg(opts)?);

    let worst_cell_retained: Vec<f64> = (0..MODES.len())
        .map(|ai| {
            cells.iter().map(|c| c.arms[ai].mean_retained_fraction).fold(f64::INFINITY, f64::min)
        })
        .collect();
    Ok(FaultSweep {
        quick: opts.quick,
        seed: opts.seed,
        method: "dcta".to_string(),
        days: days.len(),
        cells,
        overall_retained: overall.iter().map(|o| mean(o)).collect(),
        worst_cell_retained,
        mesh,
        table,
    })
}

/// The mesh leg: the same scenario on a 100-node
/// [`Topology::Mesh`] cluster, faulted with a mixed crash + link-outage
/// schedule (partitions strand results instead of killing compute — the
/// regime where availability-aware redispatch targeting matters).
fn mesh_leg(opts: &RunOpts) -> Result<MeshLeg, Box<dyn Error>> {
    const MESH_NODES: usize = 100;
    let scenario = paper_scenario(opts, opts.pick(10, 6))?;
    let mut config = paper_pipeline(opts);
    config.include_allocation_overhead = false;
    config.recovery_budget_fraction = 0.3;
    config.topology = Topology::Mesh(MeshSpec::new(MESH_NODES, opts.seed ^ 0x3E5D));
    let mut prepared = prepare_cached(config, &scenario)?;
    let days: Vec<usize> = prepared.test_days().collect();
    let fleet_nodes: Vec<NodeId> = prepared.fleet().processors().iter().map(|p| p.node).collect();
    let workers: Vec<NodeId> = fleet_nodes.iter().copied().filter(|node| node.0 != 0).collect();

    let mut horizons = Vec::with_capacity(days.len());
    for &day in &days {
        horizons.push(prepared.run(&RunSpec::new(Method::Dcta, day))?.processing_time_s());
    }
    let mean_horizon = mean(&horizons).max(1e-6);

    let rates = fragility_rates(0.4, workers.len());
    let mut link_outages = 0usize;
    let mut crashes = 0usize;

    // Per-day schedules: seeded crashes over the fragility profile, plus a
    // link outage on every *steady* worker covering the middle half of the
    // round (results park behind the dead link and must wait it out or be
    // redispatched).
    let mut schedules = Vec::with_capacity(days.len());
    for (di, &day) in days.iter().enumerate() {
        let horizon = horizons[di].max(1e-6);
        let seed = opts.seed ^ 0x6E54 ^ (day as u64) << 4;
        let mut schedule =
            FaultSchedule::seeded_rates(seed, &workers, &rates, 0.5 * horizon, horizon)?;
        crashes += schedule.crashed_nodes().len();
        for (wi, &w) in workers.iter().enumerate() {
            if wi % 2 == 1 {
                schedule = schedule.with_link_outage(w, 0.25 * horizon, 0.75 * horizon)?;
                link_outages += 1;
            }
        }
        schedules.push(schedule);
    }

    // Warm-up mirrors the evaluated regime faithfully: seeded crashes over
    // the fragility profile *and* the recurring mid-round link outage on
    // every steady worker — without the latter the posterior would rate
    // the steady workers clean and steer importance straight into the
    // partition.
    warm_up_posterior(
        &prepared,
        opts.pick(WARMUP_ROUNDS.0, WARMUP_ROUNDS.1),
        opts.seed ^ 0x3E5D,
        &fleet_nodes,
        mean_horizon,
        |round_seed| {
            let mut schedule = FaultSchedule::seeded_rates(
                round_seed,
                &workers,
                &rates,
                0.5 * mean_horizon,
                mean_horizon,
            )?;
            for (wi, &w) in workers.iter().enumerate() {
                if wi % 2 == 1 {
                    schedule =
                        schedule.with_link_outage(w, 0.25 * mean_horizon, 0.75 * mean_horizon)?;
                }
            }
            Ok(schedule)
        },
    )?;

    let mut accs: Vec<Accumulator> = MODES.iter().map(|_| Accumulator::new()).collect();
    let mut faulted_days = 0usize;
    for (di, &day) in days.iter().enumerate() {
        let mut any_fault = false;
        for (ai, &mode) in MODES.iter().enumerate() {
            let spec = RunSpec::new(Method::Dcta, day).with_faults(schedules[di].clone(), mode);
            let r = prepared.run(&spec)?.into_faulted().expect("faulted spec");
            if mode == RecoveryMode::Proactive {
                prepared.observe_faults(&r);
            }
            any_fault |= !r.failures.is_empty();
            let acc = &mut accs[ai];
            acc.retained.push(r.retained_fraction);
            acc.decision.push(if r.healthy_decision_performance.abs() > 1e-12 {
                r.decision_performance / r.healthy_decision_performance
            } else {
                1.0
            });
            acc.slowdown
                .push(r.simulated_processing_time_s / r.healthy_processing_time_s.max(1e-12));
            acc.latency_ms.push(r.reallocation_latency_s * 1e3);
            acc.shed += r.shed.len();
            acc.lost += r.lost.len();
        }
        faulted_days += usize::from(any_fault);
    }
    Ok(MeshLeg {
        nodes: MESH_NODES,
        link_outages,
        crashes,
        faulted_days,
        arms: accs.into_iter().zip(MODES).map(|(acc, mode)| acc.finish(mode)).collect(),
    })
}
