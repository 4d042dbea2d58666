//! The TATIM problem (Definition 4) and its knapsack reduction (Theorem 1).
//!
//! `maximise Σ_j Σ_p I_j · u_{j,p}` subject to the per-processor time limit
//! (Eq. 3) and resource capacity (Eq. 4). Theorem 1 maps tasks to items
//! (time → weight, resource → volume, importance → profit) and processors to
//! sacks; this module realises that reduction so the `knapsack` crate's
//! exact and heuristic solvers become TATIM solvers.

use crate::allocation::Allocation;
use crate::processor::ProcessorFleet;
use crate::task::EdgeTask;
use knapsack::greedy;
use knapsack::portfolio::{solve_portfolio, SolveBudget};
use knapsack::problem::{Item, Packing, Problem, ProblemError, Sack};
use rl::alloc_env::AllocSpec;
use std::fmt;

pub use knapsack::portfolio::SolveCertificate;

/// Node budget the pipeline's `ExactOracle` method grants branch-and-bound,
/// applied *per top-level subtree* by the portfolio (the deterministic
/// parallel split of `knapsack::exact`). Paper-scale instances (tens of
/// tasks × ~10 processors) exhaust their tree well inside this budget, so
/// the oracle stays a proved optimum there; on production-size instances
/// the oracle degrades gracefully to a certified incumbent instead of
/// silently truncating.
pub const EXACT_ORACLE_NODE_BUDGET: u64 = 200_000;

/// A complete TATIM instance: tasks plus the processor fleet, optionally
/// annotated with per-processor route budget factors (the topology-aware
/// feature the RL layer consumes; see [`crate::objective`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TatimInstance {
    tasks: Vec<EdgeTask>,
    fleet: ProcessorFleet,
    route_factors: Option<Vec<f64>>,
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
        Self { tasks, fleet, route_factors: None }
    }

    /// Annotates the instance with per-processor route budget factors
    /// (`(0, 1]`, `1.0` = cheapest route; see
    /// [`crate::objective::route_budget_factors`]). The factors do *not*
    /// change the knapsack reduction — budget deflation happens in the
    /// fleet — they ride along as the flag-gated route feature column of
    /// [`Self::to_alloc_spec`].
    ///
    /// # Panics
    ///
    /// Panics if `factors` has the wrong length or holds a non-finite or
    /// non-positive value.
    #[must_use]
    pub fn with_route_factors(mut self, factors: Vec<f64>) -> Self {
        assert_eq!(factors.len(), self.fleet.len(), "route factor vector length");
        assert!(
            factors.iter().all(|f| f.is_finite() && *f > 0.0),
            "route factors must be finite and positive"
        );
        self.route_factors = Some(factors);
        self
    }

    /// The route budget factors, when annotated.
    pub fn route_factors(&self) -> Option<&[f64]> {
        self.route_factors.as_deref()
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
        Self { tasks, fleet: self.fleet.clone(), route_factors: self.route_factors.clone() }
    }

    /// The Theorem-1 reduction: tasks → items, processors → sacks.
    ///
    /// # Errors
    ///
    /// Propagates knapsack model validation.
    pub fn to_knapsack(&self) -> Result<Problem, TatimError> {
        let items: Vec<Item> = self
            .tasks
            .iter()
            .map(|t| Item::new(t.reference_time_s(), t.resource_demand(), t.importance()))
            .collect::<Result<_, _>>()?;
        let sacks: Vec<Sack> = self
            .fleet
            .processors()
            .iter()
            .enumerate()
            .map(|(col, p)| Sack::new(self.fleet.time_limit_of(col), p.capacity))
            .collect::<Result<_, _>>()?;
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
        let problem = self.to_knapsack()?;
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
        Ok(SolveReport {
            allocation: self.allocation_from_packing(&packing),
            objective: packing.profit(&problem),
            certificate,
        })
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
    /// clustered estimate). Heterogeneous per-processor limits (§VII) are
    /// carried through via `time_limits`.
    pub fn to_alloc_spec(&self) -> AllocSpec {
        AllocSpec {
            importances: self.tasks.iter().map(EdgeTask::importance).collect(),
            times: self.tasks.iter().map(EdgeTask::reference_time_s).collect(),
            resources: self.tasks.iter().map(EdgeTask::resource_demand).collect(),
            time_limit: self.fleet.time_limit_s(),
            time_limits: Some((0..self.fleet.len()).map(|p| self.fleet.time_limit_of(p)).collect()),
            capacities: self.fleet.capacities(),
            route_factors: self.route_factors.clone(),
        }
    }
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
        assert_eq!(spec.time_limit, 0.5);
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
