//! The TATIM problem (Definition 4) and its knapsack reduction (Theorem 1).
//!
//! `maximise Σ_j Σ_p I_j · u_{j,p}` subject to the per-processor time limit
//! (Eq. 3) and resource capacity (Eq. 4). Theorem 1 maps tasks to items
//! (time → weight, resource → volume, importance → profit) and processors to
//! sacks; this module realises that reduction so the `knapsack` crate's
//! exact and heuristic solvers become TATIM solvers. A solver selects;
//! [`place`] then decides where the oracles' and DCTA's selections run.

use crate::allocation::Allocation;
use crate::processor::ProcessorFleet;
use crate::task::EdgeTask;
use knapsack::greedy;
use knapsack::portfolio::{solve_portfolio, SolveBudget};
use knapsack::problem::{Item, Packing, Problem, ProblemError, Sack};
use rl::alloc_env::AllocSpec;
use std::cell::Cell;
use std::fmt;
use std::sync::Arc;

pub use knapsack::portfolio::SolveCertificate;

thread_local! {
    /// The item and sack vectors of this thread's last
    /// [`TatimInstance::solve`], refilled by its next one: a controller
    /// re-solves one fleet every round, so the reduction keeps its storage
    /// as the greedy keeps its own.
    static REDUCTION: Cell<(Vec<Item>, Vec<Sack>)> =
        const { Cell::new((Vec::new(), Vec::new())) };
}

/// Node budget the pipeline's `ExactOracle` method grants branch-and-bound,
/// applied *per top-level subtree* by the portfolio (the deterministic
/// parallel split of `knapsack::exact`). Paper-scale instances (tens of
/// tasks × ~10 processors) exhaust their tree well inside this budget, so
/// the oracle stays a proved optimum there; on production-size instances
/// the oracle degrades gracefully to a certified incumbent instead of
/// silently truncating.
pub const EXACT_ORACLE_NODE_BUDGET: u64 = 200_000;

/// A complete TATIM instance: tasks plus the processor fleet. The fleet is
/// shared, not copied, by the instances [`TatimInstance::with_importances`]
/// derives.
#[derive(Debug, Clone, PartialEq)]
pub struct TatimInstance {
    tasks: Vec<EdgeTask>,
    fleet: Arc<ProcessorFleet>,
}

/// Error constructing or reducing an instance.
#[derive(Debug, Clone, PartialEq)]
pub enum TatimError {
    /// Underlying knapsack-model error.
    Problem(ProblemError),
}

impl fmt::Display for TatimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TatimError::Problem(e) => write!(f, "knapsack reduction failed: {e}"),
        }
    }
}

impl std::error::Error for TatimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TatimError::Problem(e) => Some(e),
        }
    }
}

impl From<ProblemError> for TatimError {
    fn from(e: ProblemError) -> Self {
        TatimError::Problem(e)
    }
}

/// Which solver a [`TatimInstance::solve`] request runs. Every variant is
/// deterministic and bit-identical across thread counts; the kinds are
/// *distinct algorithms*, not quality tiers — in particular
/// [`SolverKind::WeightedGreedy`] with unit weights places like plain
/// greedy *without* the local-search polish, so the two are deliberately
/// separate kinds rather than one with a default weight.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverKind {
    /// Greedy + local search (the paper's edge-affordable solver).
    Greedy,
    /// Multiplier-weighted greedy: places to maximise `Σ_j I_j · m_{p(j)}`
    /// for per-sack multipliers `m` (survival weighting uses this). No
    /// local search; deterministic multiplier/best-fit/index tie-breaks.
    WeightedGreedy(Vec<f64>),
    /// Anytime portfolio under a [`SolveBudget`]; the only kind that
    /// returns a [`SolveCertificate`].
    Portfolio(SolveBudget),
}

/// What [`TatimInstance::solve`] produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// The allocation found.
    pub allocation: Allocation,
    /// The importance it captures, for every kind: bit-identical to
    /// `allocation.total_importance(tasks)`.
    pub objective: f64,
    /// Optimality certificate ([`SolverKind::Portfolio`] only).
    pub certificate: Option<SolveCertificate>,
}

impl TatimInstance {
    /// Creates an instance.
    pub fn new(tasks: Vec<EdgeTask>, fleet: ProcessorFleet) -> Self {
        Self { tasks, fleet: Arc::new(fleet) }
    }

    /// The tasks.
    pub fn tasks(&self) -> &[EdgeTask] {
        &self.tasks
    }

    /// The fleet.
    pub fn fleet(&self) -> &ProcessorFleet {
        &self.fleet
    }

    /// Number of tasks `N`.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Replaces every task's importance (importance is the time-varying
    /// parameter that forces repeated re-solving).
    ///
    /// # Panics
    ///
    /// Panics if `importances` has the wrong length or holds values outside
    /// `[0, 1]`.
    pub fn with_importances(&self, importances: &[f64]) -> Self {
        assert_eq!(importances.len(), self.tasks.len(), "importance vector length");
        let tasks = self
            .tasks
            .iter()
            .zip(importances)
            .map(|(t, &i)| t.with_importance(i).expect("importance in range"))
            .collect();
        Self { tasks, fleet: Arc::clone(&self.fleet) }
    }

    /// The Theorem-1 reduction: tasks → items, processors → sacks.
    ///
    /// # Errors
    ///
    /// Propagates knapsack model validation.
    pub fn to_knapsack(&self) -> Result<Problem, TatimError> {
        self.reduce_into(Vec::new(), Vec::new())
    }

    /// [`Self::to_knapsack`] into `items` and `sacks`, whose contents it
    /// replaces. They are sized once and filled in place, which a `Result`
    /// collect cannot do.
    fn reduce_into(
        &self,
        mut items: Vec<Item>,
        mut sacks: Vec<Sack>,
    ) -> Result<Problem, TatimError> {
        items.clear();
        items.reserve(self.tasks.len());
        for t in &self.tasks {
            items.push(Item::new(t.reference_time_s(), t.resource_demand(), t.importance())?);
        }
        sacks.clear();
        sacks.reserve(self.fleet.len());
        for (col, p) in self.fleet.processors().iter().enumerate() {
            sacks.push(Sack::new(self.fleet.time_limit_of(col), p.capacity)?);
        }
        Ok(Problem::new(items, sacks)?)
    }

    /// Interprets a knapsack packing back as an allocation.
    pub fn allocation_from_packing(&self, packing: &Packing) -> Allocation {
        Allocation::from_placement(packing.placement().to_vec())
    }

    /// The unified solver entry point: runs `kind` over the knapsack
    /// reduction and reports the allocation, the objective value, and —
    /// for [`SolverKind::Portfolio`] — the optimality certificate.
    ///
    /// Every kind is bit-identical across thread counts.
    ///
    /// # Panics
    ///
    /// [`SolverKind::WeightedGreedy`] panics if the weight vector has the
    /// wrong length or holds a non-finite or negative weight.
    ///
    /// # Errors
    ///
    /// Propagates the reduction.
    pub fn solve(&self, kind: &SolverKind) -> Result<SolveReport, TatimError> {
        let (items, sacks) = REDUCTION.take();
        let problem = self.reduce_into(items, sacks)?;
        let (packing, certificate) = match kind {
            SolverKind::Greedy => (greedy::greedy_with_local_search(&problem), None),
            SolverKind::WeightedGreedy(weights) => {
                (greedy::greedy_weighted(&problem, weights), None)
            }
            SolverKind::Portfolio(budget) => {
                let r = solve_portfolio(&problem, *budget);
                (r.packing, Some(r.certificate))
            }
        };
        let objective = packing.profit(&problem);
        let allocation = Allocation::from_placement(packing.into_placement());
        REDUCTION.set(problem.into_parts());
        Ok(SolveReport { allocation, objective, certificate })
    }

    /// Optimal allocation via the portfolio's exhaustive branch-and-bound,
    /// [`SolveBudget::Exact`] (the offline reference the data-driven
    /// allocators are measured against).
    ///
    /// # Errors
    ///
    /// Propagates the reduction.
    pub fn solve_exact(&self) -> Result<(Allocation, f64), TatimError> {
        let r = self.solve(&SolverKind::Portfolio(SolveBudget::Exact))?;
        Ok((r.allocation, r.objective))
    }

    /// The RL view of the instance (for CRL): task demands and processor
    /// budgets; importances carried as-is (CRL overrides them with its
    /// clustered estimate), one time limit per processor (§VII's
    /// heterogeneous budgets included).
    pub fn to_alloc_spec(&self) -> AllocSpec {
        AllocSpec {
            importances: self.tasks.iter().map(EdgeTask::importance).collect(),
            times: self.tasks.iter().map(EdgeTask::reference_time_s).collect(),
            resources: self.tasks.iter().map(EdgeTask::resource_demand).collect(),
            time_limits: (0..self.fleet.len()).map(|p| self.fleet.time_limit_of(p)).collect(),
            capacities: self.fleet.capacities(),
        }
    }
}

/// The placement stage: re-places the tasks `selected` schedules,
/// heaviest first, each onto the processor where it would finish first
/// (the paper's "more important tasks to more powerful edge devices"),
/// subject to Eqs. 3–4. Keeps the selection and only moves where its tasks
/// run. A placer never thins a selection: when this pass cannot place
/// every selected task, `selected` — a solver's feasible placement — comes
/// back unchanged.
pub fn place(instance: &TatimInstance, selected: &Allocation) -> Allocation {
    let placed = speed_aware(instance, selected);
    if placed.scheduled_count() == selected.scheduled_count() {
        placed
    } else {
        selected.clone()
    }
}

/// The speed-aware pass of [`place`]: tasks that no longer fit anywhere
/// are dropped.
fn speed_aware(instance: &TatimInstance, packed: &Allocation) -> Allocation {
    let fleet = instance.fleet();
    let m = fleet.len();
    let mut order: Vec<usize> =
        (0..instance.num_tasks()).filter(|&j| packed.processor_of(j).is_some()).collect();
    // Sizes are validated finite and non-negative and rates are finite, so
    // no key is NaN, and `+ 0.0` folds −0.0 into +0.0: `total_cmp` orders
    // them as `partial_cmp` would, and the stable sorts keep ties in index
    // order.
    let size = |j: usize| instance.tasks()[j].input_bits() + 0.0;
    order.sort_by(|&a, &b| size(b).total_cmp(&size(a)));
    let rate = |p: usize| fleet.processors()[p].seconds_per_bit + 0.0;
    let mut speed_order: Vec<usize> = (0..m).collect();
    speed_order.sort_by(|&a, &b| rate(a).total_cmp(&rate(b)));
    let fastest = fleet.processors()[speed_order[0]].seconds_per_bit;
    let slowdown: Vec<f64> =
        fleet.processors().iter().map(|p| p.seconds_per_bit / fastest).collect();
    let mut time = vec![0.0; m];
    let mut resource = vec![0.0; m];
    let mut alloc = Allocation::empty(instance.num_tasks());
    for j in order {
        let t = &instance.tasks()[j];
        // Fastest processor (by actual execution time including queue) that
        // satisfies the reference-time and resource budgets.
        let mut best: Option<(usize, f64)> = None;
        for &p in &speed_order {
            if time[p] + t.reference_time_s() > fleet.time_limit_of(p) + 1e-9
                || resource[p] + t.resource_demand() > fleet.processors()[p].capacity + 1e-9
            {
                continue;
            }
            let finish = (time[p] + t.reference_time_s()) * slowdown[p];
            if best.is_none_or(|(_, b)| finish < b) {
                best = Some((p, finish));
            }
        }
        if let Some((p, _)) = best {
            time[p] += t.reference_time_s();
            resource[p] += t.resource_demand();
            alloc.assign(j, Some(p));
        }
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::Processor;
    use crate::task::TaskId;
    use edgesim::node::NodeId;

    fn task(id: usize, mbits: f64, resource: f64, importance: f64) -> EdgeTask {
        EdgeTask::new(TaskId(id), format!("t{id}"), mbits * 1e6, resource, importance).unwrap()
    }

    fn fleet(limit: f64, caps: &[f64]) -> ProcessorFleet {
        ProcessorFleet::new(
            caps.iter()
                .enumerate()
                .map(|(i, &c)| Processor {
                    node: NodeId(i + 1),
                    capacity: c,
                    seconds_per_bit: 4.75e-7,
                })
                .collect(),
            limit,
        )
        .unwrap()
    }

    fn instance() -> TatimInstance {
        // Reference times: 1 Mb -> 0.475 s. Limit 0.5 s fits one 1 Mb task
        // per processor.
        TatimInstance::new(
            vec![task(0, 1.0, 1.0, 0.9), task(1, 1.0, 1.0, 0.5), task(2, 1.0, 1.0, 0.1)],
            fleet(0.5, &[2.0, 2.0]),
        )
    }

    #[test]
    fn reduction_preserves_dimensions_and_values() {
        let inst = instance();
        let p = inst.to_knapsack().unwrap();
        assert_eq!(p.num_items(), 3);
        assert_eq!(p.num_sacks(), 2);
        assert!((p.items()[0].weight - 0.475).abs() < 1e-12);
        assert_eq!(p.items()[0].volume, 1.0);
        assert_eq!(p.items()[0].profit, 0.9);
        assert_eq!(p.sacks()[0].weight_capacity, 0.5);
        assert_eq!(p.sacks()[0].volume_capacity, 2.0);
    }

    #[test]
    fn exact_picks_the_important_tasks() {
        let inst = instance();
        let (alloc, profit) = inst.solve_exact().unwrap();
        assert!((profit - 1.4).abs() < 1e-12, "profit {profit}");
        assert!(alloc.processor_of(0).is_some());
        assert!(alloc.processor_of(1).is_some());
        assert_eq!(alloc.processor_of(2), None);
        assert!(alloc.is_feasible(inst.tasks(), inst.fleet()));
    }

    #[test]
    fn greedy_is_feasible_and_bounded_by_exact() {
        let inst = instance();
        let greedy = inst.solve(&SolverKind::Greedy).unwrap();
        let (_, eprofit) = inst.solve_exact().unwrap();
        assert!(greedy.objective <= eprofit + 1e-9);
        assert!(greedy.allocation.is_feasible(inst.tasks(), inst.fleet()));
    }

    #[test]
    fn with_importances_reprices_tasks() {
        let inst = instance();
        let flipped = inst.with_importances(&[0.1, 0.5, 0.9]);
        let (alloc, _) = flipped.solve_exact().unwrap();
        assert_eq!(alloc.processor_of(0), None);
        assert!(alloc.processor_of(2).is_some());
    }

    #[test]
    #[should_panic(expected = "length")]
    fn with_importances_checks_length() {
        instance().with_importances(&[0.5]);
    }

    #[test]
    fn alloc_spec_mirrors_instance() {
        let inst = instance();
        let spec = inst.to_alloc_spec();
        assert_eq!(spec.num_tasks(), 3);
        assert_eq!(spec.num_processors(), 2);
        assert_eq!(spec.time_limits, vec![0.5, 0.5]);
        assert!((spec.times[0] - 0.475).abs() < 1e-12);
        assert!(spec.validate().is_ok());
    }

    /// The weighted greedy's allocation and its multiplier-weighted sum
    /// `Σ_j I_j · m_{p(j)}`, summed from the allocation.
    fn weighted(inst: &TatimInstance, weights: &[f64]) -> (Allocation, f64) {
        let r = inst.solve(&SolverKind::WeightedGreedy(weights.to_vec())).unwrap();
        let wprofit = (0..inst.num_tasks())
            .filter_map(|j| {
                r.allocation.processor_of(j).map(|p| inst.tasks()[j].importance() * weights[p])
            })
            .sum();
        assert_eq!(r.objective.to_bits(), r.allocation.total_importance(inst.tasks()).to_bits());
        (r.allocation, wprofit)
    }

    #[test]
    fn weighted_solve_with_unit_weights_matches_plain_objective() {
        let inst = instance();
        let (alloc, wprofit) = weighted(&inst, &[1.0, 1.0]);
        assert!(alloc.is_feasible(inst.tasks(), inst.fleet()));
        assert!((alloc.total_importance(inst.tasks()) - wprofit).abs() < 1e-12);
        // Same scheduled set as the exact solver on this tiny instance.
        assert_eq!(alloc.scheduled_count(), 2);
        assert_eq!(alloc.processor_of(2), None);
    }

    #[test]
    fn weighted_solve_steers_important_tasks_to_reliable_processors() {
        let inst = instance();
        // Processor 1 is far more likely to survive: the most important
        // task must land there.
        let (alloc, _) = weighted(&inst, &[0.2, 0.9]);
        assert_eq!(alloc.processor_of(0), Some(1));
        let (flipped, _) = weighted(&inst, &[0.9, 0.2]);
        assert_eq!(flipped.processor_of(0), Some(0));
    }

    #[test]
    fn weighted_profit_accounts_for_the_multiplier() {
        let inst = instance();
        let (alloc, wprofit) = weighted(&inst, &[0.5, 0.5]);
        assert!((wprofit - 0.5 * alloc.total_importance(inst.tasks())).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn weighted_solve_checks_weight_length() {
        let _ = instance().solve(&SolverKind::WeightedGreedy(vec![1.0]));
    }

    #[test]
    fn objective_matches_solver_profit() {
        let inst = instance();
        let (alloc, profit) = inst.solve_exact().unwrap();
        assert!((alloc.total_importance(inst.tasks()) - profit).abs() < 1e-12);
    }

    /// The reduction's reused storage carries nothing between solves: a
    /// thread that solved larger and smaller instances first reports what
    /// a fresh thread reports, for every kind.
    #[test]
    fn solve_ignores_what_the_thread_solved_before() {
        let large = TatimInstance::new(
            (0..40)
                .map(|i| task(i, 0.2 + 0.05 * i as f64, 1.0, 0.9 / (1 + i % 7) as f64))
                .collect(),
            fleet(2.0, &[3.0, 5.0, 8.0, 2.0, 6.0]),
        );
        let kinds = [
            SolverKind::Greedy,
            SolverKind::WeightedGreedy(vec![1.0, 0.5]),
            SolverKind::Portfolio(SolveBudget::Exact),
        ];
        let small = instance();
        let fresh: Vec<SolveReport> = std::thread::scope(|s| {
            kinds.iter().map(|k| s.spawn(|| small.solve(k).unwrap()).join().unwrap()).collect()
        });
        large.solve(&SolverKind::Greedy).unwrap();
        for (kind, fresh) in kinds.iter().zip(&fresh) {
            assert_eq!(&small.solve(kind).unwrap(), fresh, "{kind:?}");
        }
    }

    /// Tasks of the given reference times on a slow (Pi A+ rate) and a
    /// fast processor, limit `limit` each, capacity for every task.
    fn two_speed(times: &[f64], fast: f64, limit: f64) -> TatimInstance {
        let tasks =
            times.iter().enumerate().map(|(i, &t)| task(i, t / 4.75e-7 / 1e6, 1.0, 0.5)).collect();
        let procs = vec![
            Processor { node: NodeId(1), capacity: 10.0, seconds_per_bit: 4.75e-7 },
            Processor { node: NodeId(2), capacity: 10.0, seconds_per_bit: fast },
        ];
        TatimInstance::new(tasks, ProcessorFleet::new(procs, limit).unwrap())
    }

    #[test]
    fn place_prefers_the_fast_processor() {
        let inst = two_speed(&[0.475, 0.57], 2.4e-7, 10.0);
        let placed = place(&inst, &Allocation::from_placement(vec![Some(0), Some(0)]));
        // Both tasks fit anywhere; the heaviest (task 1) must land on the
        // fast processor column 1.
        assert_eq!(placed.processor_of(1), Some(1));
        assert_eq!(placed.scheduled_count(), 2);
    }

    #[test]
    fn place_respects_budgets() {
        // Time limit fits one reference task per processor, so the lighter
        // task goes to the slow processor once the heavier holds the fast.
        let inst = two_speed(&[0.475, 0.57, 0.665], 2.4e-7, 0.6);
        let packed = Allocation::from_placement(vec![Some(1), Some(0), None]);
        let placed = place(&inst, &packed);
        assert!(placed.is_feasible(inst.tasks(), inst.fleet()));
        assert_eq!(placed.placement(), &[Some(0), Some(1), None]);
    }

    /// The speed-aware pass sends both 0.4 s tasks to the fast node (the
    /// tie at 0.8 s goes to the faster one), and four 0.3 s tasks do not
    /// fit the slow node's 1.0 s. The exact packing holds all six, and the
    /// placer must not thin it.
    #[test]
    fn place_keeps_a_selection_its_pass_cannot_place() {
        let inst = two_speed(&[0.4, 0.4, 0.3, 0.3, 0.3, 0.3], 2.375e-7, 1.0);
        let (exact, _) = inst.solve_exact().unwrap();
        assert_eq!(exact.scheduled_count(), 6);
        assert_eq!(speed_aware(&inst, &exact).scheduled_count(), 5);
        assert_eq!(place(&inst, &exact), exact);
    }

    /// A feasible packing of a random instance: each task tries one random
    /// processor (or none) and stays out where it does not fit.
    fn random_packing(rng: &mut impl rand::Rng, inst: &TatimInstance) -> Allocation {
        let fleet = inst.fleet();
        let mut alloc = Allocation::empty(inst.num_tasks());
        for j in 0..inst.num_tasks() {
            alloc.assign(j, Some(rng.gen_range(0..fleet.len())).filter(|_| rng.gen_bool(0.8)));
            if !alloc.is_feasible(inst.tasks(), fleet) {
                alloc.assign(j, None);
            }
        }
        alloc
    }

    #[test]
    fn place_schedules_exactly_the_selection() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x91ACE);
        let (mut kept, mut fell_back) = (0, 0);
        for _ in 0..400 {
            let n = rng.gen_range(1..12);
            let tasks = (0..n)
                .map(|i| task(i, rng.gen_range(0.1..2.0), rng.gen_range(0.0..2.0), 0.5))
                .collect();
            let procs = (0..rng.gen_range(1..5))
                .map(|p| Processor {
                    node: NodeId(p + 1),
                    capacity: rng.gen_range(1.0..6.0),
                    seconds_per_bit: rng.gen_range(1.0e-7..5.0e-7),
                })
                .collect::<Vec<_>>();
            let limits = procs.iter().map(|_| rng.gen_range(0.3..3.0)).collect();
            let fleet = ProcessorFleet::with_time_limits(procs, limits).unwrap();
            let inst = TatimInstance::new(tasks, fleet);
            let selected = random_packing(&mut rng, &inst);
            let placed = place(&inst, &selected);
            assert!(placed.is_feasible(inst.tasks(), inst.fleet()));
            for j in 0..n {
                assert_eq!(placed.processor_of(j).is_some(), selected.processor_of(j).is_some());
            }
            let pass = speed_aware(&inst, &selected);
            if pass.scheduled_count() == selected.scheduled_count() {
                assert_eq!(placed, pass);
                kept += 1;
            } else {
                assert_eq!(placed, selected);
                fell_back += 1;
            }
        }
        assert!(kept > 100 && fell_back > 0, "kept {kept}, fell back {fell_back}");
    }
}

#[cfg(test)]
mod heterogeneous_tests {
    use super::*;
    use crate::processor::{Processor, ProcessorFleet};
    use crate::task::TaskId;
    use edgesim::node::NodeId;

    #[test]
    fn powerful_node_budget_is_exploited_by_exact_solver() {
        // Three 1 Mb tasks (0.475 s each). Processor 0 has budget for one,
        // processor 1 (the SVII "powerful node") for two.
        let tasks: Vec<EdgeTask> = (0..3)
            .map(|i| {
                EdgeTask::new(TaskId(i), format!("t{i}"), 1e6, 1.0, 0.5 + 0.1 * i as f64).unwrap()
            })
            .collect();
        let procs = vec![
            Processor { node: NodeId(1), capacity: 10.0, seconds_per_bit: 4.75e-7 },
            Processor { node: NodeId(2), capacity: 10.0, seconds_per_bit: 4.75e-7 },
        ];
        let fleet = ProcessorFleet::with_time_limits(procs, vec![0.5, 1.0]).unwrap();
        let inst = TatimInstance::new(tasks, fleet);
        let p = inst.to_knapsack().unwrap();
        assert_eq!(p.sacks()[0].weight_capacity, 0.5);
        assert_eq!(p.sacks()[1].weight_capacity, 1.0);
        let (alloc, profit) = inst.solve_exact().unwrap();
        // All three fit: one on proc 0, two on proc 1.
        assert_eq!(alloc.scheduled_count(), 3);
        assert!((profit - 1.8).abs() < 1e-12);
        assert!(alloc.is_feasible(inst.tasks(), inst.fleet()));
        // With a uniform 0.5 budget only two would fit.
        let uniform = TatimInstance::new(
            inst.tasks().to_vec(),
            ProcessorFleet::new(inst.fleet().processors().to_vec(), 0.5).unwrap(),
        );
        let (ualloc, _) = uniform.solve_exact().unwrap();
        assert_eq!(ualloc.scheduled_count(), 2);
    }
}
