//! Controller-side recovery after mid-run processor loss.
//!
//! When the fault-aware simulator ([`edgesim::run::simulate_with_faults`])
//! reports that processors died mid-round, the controller re-solves TATIM
//! over the *surviving* processors and the remaining time budget. The
//! re-solve always uses the greedy knapsack solver: the CRL allocator's
//! learned environment matrix is shaped by the full `M`-processor fleet, so
//! after a crash its policy faces a shrunken `M′ < M` action space it was
//! never trained on — the greedy solver (the paper's edge-affordable
//! fallback) is what a real controller would run in that mismatch. When
//! surviving capacity cannot host every orphaned task, the greedy objective
//! drops the least valuable ones; [`RecoveryPlan::shed`] reports the dropped
//! set in ascending-importance order so the loss is auditable.
//! [`replan_random_shed`] is the ablation baseline that sheds uniformly at
//! random instead of by importance.

use crate::allocation::Allocation;
use crate::availability::{AvailabilityModel, ProactiveConfig};
use crate::processor::{FleetError, Processor, ProcessorFleet};
use crate::tatim::{SolverKind, TatimError, TatimInstance};
use edgesim::node::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::fmt;
use std::time::Instant;

/// How the controller reacts to mid-run processor loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryMode {
    /// No re-planning (and no in-round retries): orphaned tasks stay lost.
    /// The ablation floor.
    None,
    /// Re-solve TATIM over the survivors, shedding the least important
    /// tasks when capacity falls short. The paper-faithful policy.
    Resolve,
    /// Re-place orphans in seeded-random order, first-fit, shedding
    /// whatever does not fit — importance-blind. The ablation control that
    /// isolates the value of importance-aware shedding.
    RandomShed,
    /// Anticipate failure: the *initial* allocation already weights each
    /// processor by its learned survival probability
    /// ([`crate::availability::AvailabilityModel`]), and the post-crash
    /// re-solve prefers high-availability survivors the same way.
    Proactive,
}

impl fmt::Display for RecoveryMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            RecoveryMode::None => "none",
            RecoveryMode::Resolve => "resolve",
            RecoveryMode::RandomShed => "random-shed",
            RecoveryMode::Proactive => "proactive",
        };
        f.write_str(name)
    }
}

/// Error re-planning after a fault.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// Every processor is down; there is nothing to re-plan onto.
    NoSurvivors,
    /// The remaining-budget fraction is not in `(0, 1]`.
    BadBudget {
        /// Offending value.
        fraction: f64,
    },
    /// The completion mask does not cover the instance's tasks.
    MaskLength {
        /// Mask entries supplied.
        mask: usize,
        /// Tasks in the instance.
        tasks: usize,
    },
    /// Sub-fleet construction failed.
    Fleet(FleetError),
    /// The knapsack re-solve failed.
    Tatim(TatimError),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::NoSurvivors => write!(f, "no surviving processors to re-plan onto"),
            RecoveryError::BadBudget { fraction } => {
                write!(f, "remaining budget fraction must be in (0, 1], got {fraction}")
            }
            RecoveryError::MaskLength { mask, tasks } => {
                write!(f, "completion mask covers {mask} tasks, instance has {tasks}")
            }
            RecoveryError::Fleet(e) => write!(f, "surviving sub-fleet invalid: {e}"),
            RecoveryError::Tatim(e) => write!(f, "recovery re-solve failed: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Fleet(e) => Some(e),
            RecoveryError::Tatim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FleetError> for RecoveryError {
    fn from(e: FleetError) -> Self {
        RecoveryError::Fleet(e)
    }
}

impl From<TatimError> for RecoveryError {
    fn from(e: TatimError) -> Self {
        RecoveryError::Tatim(e)
    }
}

/// The controller's answer to a mid-run processor loss.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPlan {
    /// Re-placement of the unfinished tasks, expressed over the *original*
    /// fleet's processor columns (finished tasks stay `None`).
    pub allocation: Allocation,
    /// Unfinished tasks the plan dropped, ascending importance.
    pub shed: Vec<usize>,
    /// Total importance of the re-planned (kept) tasks.
    pub recovered_importance: f64,
    /// Total importance of the shed tasks.
    pub shed_importance: f64,
    /// Wall-clock seconds the re-solve took — the re-allocation latency a
    /// real controller would add to the round.
    pub replan_latency_s: f64,
}

impl RecoveryPlan {
    /// Fraction of the orphaned importance the plan recovers (`1.0` when
    /// nothing was orphaned).
    pub fn recovered_fraction(&self) -> f64 {
        let total = self.recovered_importance + self.shed_importance;
        if total <= 0.0 {
            1.0
        } else {
            self.recovered_importance / total
        }
    }
}

/// Validates inputs and projects the surviving columns / unfinished tasks.
fn setup(
    instance: &TatimInstance,
    completed: &[bool],
    surviving: &[NodeId],
    budget_fraction: f64,
) -> Result<(Vec<usize>, Vec<usize>), RecoveryError> {
    if completed.len() != instance.num_tasks() {
        return Err(RecoveryError::MaskLength {
            mask: completed.len(),
            tasks: instance.num_tasks(),
        });
    }
    if !(budget_fraction.is_finite() && budget_fraction > 0.0 && budget_fraction <= 1.0) {
        return Err(RecoveryError::BadBudget { fraction: budget_fraction });
    }
    let cols: Vec<usize> = (0..instance.fleet().len())
        .filter(|&p| surviving.contains(&instance.fleet().node_of(p)))
        .collect();
    if cols.is_empty() {
        return Err(RecoveryError::NoSurvivors);
    }
    let unfinished: Vec<usize> = (0..instance.num_tasks()).filter(|&j| !completed[j]).collect();
    Ok((cols, unfinished))
}

/// The surviving columns as a fleet of their own, with each processor's
/// time limit scaled to the budget left in the round.
fn surviving_fleet(
    fleet: &ProcessorFleet,
    cols: &[usize],
    budget_fraction: f64,
) -> Result<ProcessorFleet, RecoveryError> {
    let processors: Vec<Processor> = cols.iter().map(|&c| fleet.processors()[c]).collect();
    let limits: Vec<f64> = cols.iter().map(|&c| fleet.time_limit_of(c) * budget_fraction).collect();
    Ok(ProcessorFleet::with_time_limits(processors, limits)?)
}

/// Packages an original-column allocation of the unfinished tasks into a
/// [`RecoveryPlan`], deriving the shed set and the importance split.
fn finish_plan(
    instance: &TatimInstance,
    allocation: Allocation,
    unfinished: &[usize],
    started: Instant,
) -> RecoveryPlan {
    let mut shed: Vec<usize> =
        unfinished.iter().copied().filter(|&j| allocation.processor_of(j).is_none()).collect();
    // Importances are validated into [0, 1], never NaN, and `+ 0.0` folds
    // −0.0 into +0.0, so `total_cmp` orders them as `partial_cmp` would.
    shed.sort_by(|&a, &b| {
        let ia = instance.tasks()[a].importance() + 0.0;
        let ib = instance.tasks()[b].importance() + 0.0;
        ia.total_cmp(&ib).then(a.cmp(&b))
    });
    let importance_of =
        |idx: &[usize]| -> f64 { idx.iter().map(|&j| instance.tasks()[j].importance()).sum() };
    let kept: Vec<usize> =
        unfinished.iter().copied().filter(|&j| allocation.processor_of(j).is_some()).collect();
    RecoveryPlan {
        allocation,
        shed_importance: importance_of(&shed),
        recovered_importance: importance_of(&kept),
        shed,
        replan_latency_s: started.elapsed().as_secs_f64(),
    }
}

/// Re-solves TATIM over the surviving processors for every unfinished task
/// of `instance` (which must already be priced with the day's importances).
///
/// `completed[j]` marks tasks that need no re-planning (delivered results
/// and tasks the original allocation never scheduled). `budget_fraction`
/// scales every survivor's Eq.-3 time limit to the budget remaining after
/// the faulted portion of the round.
///
/// # Errors
///
/// See [`RecoveryError`] variants.
pub fn replan(
    instance: &TatimInstance,
    completed: &[bool],
    surviving: &[NodeId],
    budget_fraction: f64,
) -> Result<RecoveryPlan, RecoveryError> {
    resolve(instance, completed, surviving, budget_fraction, |_| SolverKind::Greedy)
}

/// Availability-aware variant of [`replan`]: the re-solve maximises
/// *expected retained* importance, weighting each surviving processor by
/// `(1 − w) + w · survival` from the learned availability posterior — so
/// orphans preferentially land on survivors the model believes will stay
/// up. `draw_seed` keys any Thompson draw (mix the day in for per-day
/// refresh); with `w = 0` this degenerates to plain [`replan`] placement.
///
/// # Errors
///
/// See [`RecoveryError`] variants.
pub fn replan_proactive(
    instance: &TatimInstance,
    completed: &[bool],
    surviving: &[NodeId],
    budget_fraction: f64,
    model: &AvailabilityModel,
    proactive: &ProactiveConfig,
    draw_seed: u64,
) -> Result<RecoveryPlan, RecoveryError> {
    resolve(instance, completed, surviving, budget_fraction, |cols| {
        let fleet = instance.fleet();
        SolverKind::WeightedGreedy(
            cols.iter()
                .map(|&c| proactive.survival_weight(model, fleet.node_of(c).0, draw_seed))
                .collect(),
        )
    })
}

/// The re-solve behind [`replan`] and [`replan_proactive`]: the unfinished
/// tasks over the surviving columns `cols` under the solver `solver(cols)`
/// picks, mapped back to original columns.
fn resolve(
    instance: &TatimInstance,
    completed: &[bool],
    surviving: &[NodeId],
    budget_fraction: f64,
    solver: impl FnOnce(&[usize]) -> SolverKind,
) -> Result<RecoveryPlan, RecoveryError> {
    let started = Instant::now();
    let (cols, unfinished) = setup(instance, completed, surviving, budget_fraction)?;
    let mut allocation = Allocation::empty(instance.num_tasks());
    if unfinished.is_empty() {
        return Ok(finish_plan(instance, allocation, &unfinished, started));
    }
    let fleet = surviving_fleet(instance.fleet(), &cols, budget_fraction)?;
    let tasks = unfinished.iter().map(|&j| instance.tasks()[j].clone()).collect();
    let sub = TatimInstance::new(tasks, fleet);
    let sub_alloc = sub.solve(&solver(&cols))?.allocation;
    for (k, &j) in unfinished.iter().enumerate() {
        if let Some(p) = sub_alloc.processor_of(k) {
            allocation.assign(j, Some(cols[p]));
        }
    }
    Ok(finish_plan(instance, allocation, &unfinished, started))
}

/// Importance-blind ablation of [`replan`]: visits the unfinished tasks in
/// a seeded-random order and first-fits each onto the surviving processors
/// under the same scaled budgets; whatever does not fit is shed.
///
/// # Errors
///
/// See [`RecoveryError`] variants.
pub fn replan_random_shed(
    instance: &TatimInstance,
    completed: &[bool],
    surviving: &[NodeId],
    budget_fraction: f64,
    seed: u64,
) -> Result<RecoveryPlan, RecoveryError> {
    let started = Instant::now();
    let (cols, unfinished) = setup(instance, completed, surviving, budget_fraction)?;
    let mut allocation = Allocation::empty(instance.num_tasks());
    if unfinished.is_empty() {
        return Ok(finish_plan(instance, allocation, &unfinished, started));
    }
    let mut order = unfinished.clone();
    order.shuffle(&mut StdRng::seed_from_u64(seed));
    let fleet = instance.fleet();
    let mut time_left: Vec<f64> =
        cols.iter().map(|&c| fleet.time_limit_of(c) * budget_fraction).collect();
    let mut cap_left: Vec<f64> = cols.iter().map(|&c| fleet.processors()[c].capacity).collect();
    const EPS: f64 = 1e-9;
    for &j in &order {
        let t = instance.tasks()[j].reference_time_s();
        let v = instance.tasks()[j].resource_demand();
        if let Some(k) =
            (0..cols.len()).find(|&k| time_left[k] + EPS >= t && cap_left[k] + EPS >= v)
        {
            time_left[k] -= t;
            cap_left[k] -= v;
            allocation.assign(j, Some(cols[k]));
        }
    }
    Ok(finish_plan(instance, allocation, &unfinished, started))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{EdgeTask, TaskId};

    fn task(id: usize, mbits: f64, resource: f64, importance: f64) -> EdgeTask {
        EdgeTask::new(TaskId(id), format!("t{id}"), mbits * 1e6, resource, importance).unwrap()
    }

    fn fleet(limit: f64, n: usize) -> ProcessorFleet {
        ProcessorFleet::new(
            (0..n)
                .map(|i| Processor { node: NodeId(i + 1), capacity: 4.0, seconds_per_bit: 4.75e-7 })
                .collect(),
            limit,
        )
        .unwrap()
    }

    /// Six 1 Mb tasks (0.475 s each), importances 0.2..0.7, three
    /// processors with room for two tasks each at the full budget.
    fn instance() -> TatimInstance {
        let tasks = (0..6).map(|i| task(i, 1.0, 1.0, 0.2 + 0.1 * i as f64)).collect();
        TatimInstance::new(tasks, fleet(1.0, 3))
    }

    #[test]
    fn replan_avoids_dead_columns_and_keeps_the_important() {
        let inst = instance();
        // Node 2 (column 1) died; nothing finished yet. Survivors hold four
        // of six tasks at full budget, so the two least important are shed.
        let survivors = [NodeId(1), NodeId(3)];
        let plan = replan(&inst, &[false; 6], &survivors, 1.0).unwrap();
        assert_eq!(plan.shed, vec![0, 1], "least-important first: {:?}", plan.shed);
        for j in 2..6 {
            let col = plan.allocation.processor_of(j).expect("kept");
            assert_ne!(inst.fleet().node_of(col), NodeId(2), "task {j} on dead node");
        }
        assert!((plan.recovered_importance - (0.4 + 0.5 + 0.6 + 0.7)).abs() < 1e-9);
        assert!((plan.shed_importance - (0.2 + 0.3)).abs() < 1e-9);
        assert!((plan.recovered_fraction() - 2.2 / 2.7).abs() < 1e-9);
        assert!(plan.replan_latency_s >= 0.0);
    }

    #[test]
    fn completed_tasks_are_not_replanned() {
        let inst = instance();
        let completed = [true, true, true, true, false, false];
        let plan = replan(&inst, &completed, &[NodeId(1)], 1.0).unwrap();
        for j in 0..4 {
            assert_eq!(plan.allocation.processor_of(j), None, "task {j} re-planned");
        }
        assert!(plan.allocation.processor_of(4).is_some());
        assert!(plan.allocation.processor_of(5).is_some());
        assert!(plan.shed.is_empty());
        assert_eq!(plan.recovered_fraction(), 1.0);
    }

    #[test]
    fn shrunken_budget_sheds_more() {
        let inst = instance();
        let survivors = [NodeId(1), NodeId(3)];
        let full = replan(&inst, &[false; 6], &survivors, 1.0).unwrap();
        // Half budget: one 0.475 s task per survivor.
        let half = replan(&inst, &[false; 6], &survivors, 0.5).unwrap();
        assert!(half.shed.len() > full.shed.len(), "{:?} vs {:?}", half.shed, full.shed);
        assert!(half.recovered_importance < full.recovered_importance);
        // The survivors still keep the most important tasks.
        assert!(half.allocation.processor_of(5).is_some());
    }

    #[test]
    fn nothing_unfinished_is_a_trivial_plan() {
        let inst = instance();
        let plan = replan(&inst, &[true; 6], &[NodeId(1)], 1.0).unwrap();
        assert_eq!(plan.allocation.scheduled_count(), 0);
        assert!(plan.shed.is_empty());
        assert_eq!(plan.recovered_fraction(), 1.0);
    }

    #[test]
    fn validation_errors() {
        let inst = instance();
        assert!(matches!(replan(&inst, &[false; 6], &[], 1.0), Err(RecoveryError::NoSurvivors)));
        // A node outside the fleet is no survivor either.
        assert!(matches!(
            replan(&inst, &[false; 6], &[NodeId(99)], 1.0),
            Err(RecoveryError::NoSurvivors)
        ));
        assert!(matches!(
            replan(&inst, &[false; 2], &[NodeId(1)], 1.0),
            Err(RecoveryError::MaskLength { mask: 2, tasks: 6 })
        ));
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    replan(&inst, &[false; 6], &[NodeId(1)], bad),
                    Err(RecoveryError::BadBudget { .. })
                ),
                "fraction {bad} accepted"
            );
        }
        assert!(RecoveryError::NoSurvivors.to_string().contains("surviving"));
    }

    #[test]
    fn random_shed_is_deterministic_and_importance_blind() {
        let inst = instance();
        let survivors = [NodeId(1), NodeId(3)];
        let a = replan_random_shed(&inst, &[false; 6], &survivors, 0.5, 7).unwrap();
        let b = replan_random_shed(&inst, &[false; 6], &survivors, 0.5, 7).unwrap();
        // Decision content is seed-deterministic; only the measured
        // wall-clock latency may differ between runs.
        assert_eq!(a.allocation, b.allocation, "same seed must reproduce the placement");
        assert_eq!(a.shed, b.shed);
        assert_eq!(a.recovered_importance.to_bits(), b.recovered_importance.to_bits());
        // Half budget fits one task per survivor: exactly four shed.
        assert_eq!(a.shed.len(), 4);
        assert_eq!(a.allocation.scheduled_count(), 2);
        // Across seeds the choice varies — eventually an important task is
        // shed, which the importance-aware replan never does here.
        let resolve = replan(&inst, &[false; 6], &survivors, 0.5).unwrap();
        let blind_sheds_important = (0..32).any(|seed| {
            let p = replan_random_shed(&inst, &[false; 6], &survivors, 0.5, seed).unwrap();
            p.shed.contains(&5)
        });
        assert!(blind_sheds_important, "random shed never touched the top task in 32 seeds");
        assert!(!resolve.shed.contains(&5), "importance-aware replan shed the top task");
        assert!(resolve.recovered_importance >= a.recovered_importance - 1e-9);
    }

    #[test]
    fn random_shed_respects_capacity_and_survivors() {
        let inst = instance();
        let survivors = [NodeId(2)];
        let plan = replan_random_shed(&inst, &[false; 6], &survivors, 1.0, 3).unwrap();
        // One survivor, budget for two tasks (capacity allows four).
        assert_eq!(plan.allocation.scheduled_count(), 2);
        for j in 0..6 {
            if let Some(col) = plan.allocation.processor_of(j) {
                assert_eq!(inst.fleet().node_of(col), NodeId(2));
            }
        }
        // The kept set is feasible under the scaled budget.
        let sub_fleet = surviving_fleet(inst.fleet(), &[1], 1.0).unwrap();
        let mut total_t = 0.0;
        for j in 0..6 {
            if plan.allocation.processor_of(j).is_some() {
                total_t += inst.tasks()[j].reference_time_s();
            }
        }
        assert!(total_t <= sub_fleet.time_limit_of(0) + 1e-9);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(RecoveryMode::None.to_string(), "none");
        assert_eq!(RecoveryMode::Resolve.to_string(), "resolve");
        assert_eq!(RecoveryMode::RandomShed.to_string(), "random-shed");
        assert_eq!(RecoveryMode::Proactive.to_string(), "proactive");
    }

    mod proactive {
        use super::*;
        use crate::availability::{AvailabilityModel, ProactiveConfig};
        use edgesim::trace::NodeExposure;

        fn model_with(beliefs: &[(usize, f64, f64, u64)]) -> AvailabilityModel {
            let m = AvailabilityModel::default();
            let exposures: Vec<NodeExposure> = beliefs
                .iter()
                .map(|&(node, up_s, down_s, crashes)| NodeExposure {
                    node: NodeId(node),
                    up_s,
                    down_s,
                    crashes,
                })
                .collect();
            m.absorb(&exposures);
            m.advance_round();
            m
        }

        #[test]
        fn proactive_replan_steers_orphans_to_reliable_survivors() {
            let inst = instance();
            // Survivors: node 1 (steady) and node 3 (crashy). Half budget
            // fits one task per survivor — the more important of the two
            // kept tasks must land on node 1.
            let model = model_with(&[(1, 3600.0, 0.0, 0), (3, 60.0, 3540.0, 8)]);
            let pc = ProactiveConfig { weight: 0.8, ..ProactiveConfig::default() };
            let survivors = [NodeId(1), NodeId(3)];
            let plan =
                replan_proactive(&inst, &[false; 6], &survivors, 0.5, &model, &pc, 7).unwrap();
            assert_eq!(plan.allocation.scheduled_count(), 2);
            let col5 = plan.allocation.processor_of(5).expect("top task kept");
            assert_eq!(inst.fleet().node_of(col5), NodeId(1), "top task on the steady node");
        }

        #[test]
        fn zero_weight_matches_plain_replan_placement() {
            let inst = instance();
            let model = model_with(&[(1, 60.0, 3540.0, 9)]);
            let pc = ProactiveConfig { weight: 0.0, ..ProactiveConfig::default() };
            let survivors = [NodeId(1), NodeId(3)];
            let pro =
                replan_proactive(&inst, &[false; 6], &survivors, 1.0, &model, &pc, 0).unwrap();
            let plain = replan(&inst, &[false; 6], &survivors, 1.0).unwrap();
            // With the availability term switched off both solve the same
            // unweighted objective over the same survivors.
            assert_eq!(pro.shed, plain.shed);
            assert_eq!(pro.recovered_importance.to_bits(), plain.recovered_importance.to_bits());
        }

        #[test]
        fn proactive_replan_is_seed_deterministic() {
            let inst = instance();
            let model = model_with(&[(1, 600.0, 60.0, 1), (2, 300.0, 300.0, 2)]);
            let pc = ProactiveConfig::default();
            let survivors = [NodeId(1), NodeId(2), NodeId(3)];
            let a = replan_proactive(&inst, &[false; 6], &survivors, 0.5, &model, &pc, 42).unwrap();
            let b = replan_proactive(&inst, &[false; 6], &survivors, 0.5, &model, &pc, 42).unwrap();
            assert_eq!(a.allocation, b.allocation);
            assert_eq!(a.shed, b.shed);
        }

        #[test]
        fn proactive_replan_validates_like_replan() {
            let inst = instance();
            let model = AvailabilityModel::default();
            let pc = ProactiveConfig::default();
            assert!(matches!(
                replan_proactive(&inst, &[false; 6], &[], 1.0, &model, &pc, 0),
                Err(RecoveryError::NoSurvivors)
            ));
            assert!(matches!(
                replan_proactive(&inst, &[false; 2], &[NodeId(1)], 1.0, &model, &pc, 0),
                Err(RecoveryError::MaskLength { .. })
            ));
        }
    }
}
