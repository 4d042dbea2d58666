//! The typed allocation objective and the unified allocator query.
//!
//! Every allocator entry point used to be its own method — plain,
//! certified, proactive — and none of them saw the network. This module
//! collapses the choices into one [`Objective`] (importance weighting ×
//! survival weighting × route cost, each optional) consumed by a single
//! `allocate(&AllocQuery) -> AllocOutcome` on
//! [`crate::shared::PreparedCore`].
//!
//! # The route-cost model (topology-aware allocation)
//!
//! TATIM's Eq.-3 budget prices compute only: task `j` occupies its
//! processor for `t_j = c_ref · bits_j` reference-seconds. On a mesh the
//! task's bits must also cross the controller→node route, and on shared
//! backbone edges they contend with every other flow the allocator sends
//! the same way. [`Cluster::route_costs`] prices that route at `r_p`
//! congestion-adjusted seconds per bit (see `edgesim::cluster::RouteCost`
//! for the proxy), so a task effectively occupies node `p` for
//! `bits_j · (c_ref + r_p)` seconds of combined compute+transfer.
//!
//! Rather than re-deriving every solver, the model folds the transfer term
//! into the *budget*: scaling processor `p`'s time limit by
//!
//! ```text
//! factor_p = (c_ref + r_min) / (c_ref + r_p)      (r_min = min_p r_p)
//! ```
//!
//! makes the unchanged compute-priced weights `t_j` consume exactly the
//! compute+transfer share of the round, so greedy, weighted-greedy, exact
//! and portfolio solves all optimise importance per unit
//! (compute + transfer) without touching `DensityIndex`, `SuffixBounds`,
//! or the portfolio warm start — PR 9's bit-identity and
//! budget-monotonicity contracts hold by construction. Normalising by
//! `r_min` pins the degenerate case: on a uniform star every worker's
//! uplink cost equals `r_min`, the factor is *exactly* `1.0`, and
//! `T × 1.0` is bitwise `T` — topology-blind and route-aware allocations
//! coincide to the bit, which is how star artefacts stay byte-identical
//! with the feature enabled.
//!
//! Route latency is reported by the query layer but deliberately not
//! folded in: TATIM's transfers are megabits, so the per-bit term
//! dominates hop latency by 3–6 orders of magnitude.

use crate::allocation::Allocation;
use crate::processor::{FleetError, ProcessorFleet};
use crate::tatim::SolveCertificate;
use edgesim::cluster::Cluster;
use edgesim::node::DeviceModel;

/// Floor for a route budget factor: an unreachable node deflates to a
/// near-zero (never zero — fleet validation requires positive limits)
/// budget instead of poisoning the fleet with a non-finite limit.
pub const MIN_ROUTE_FACTOR: f64 = 1e-9;

/// What an allocation should optimise. Blank (the [`Default`]) reproduces
/// the classic per-method behaviour bit-for-bit; each axis is optional and
/// they compose.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Objective {
    importances: Option<Vec<f64>>,
    survival: bool,
    route_cost: bool,
}

impl Objective {
    /// The blank objective: method-default importance pricing, no survival
    /// weighting, topology-blind budgets.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prices tasks with an explicit importance vector instead of the
    /// method's own estimate. The method then only picks the solver:
    /// `ExactOracle` runs the certified portfolio, everything else the
    /// greedy solver.
    #[must_use]
    pub fn with_importances(mut self, importances: Vec<f64>) -> Self {
        self.importances = Some(importances);
        self
    }

    /// Weights each processor by its learned survival probability
    /// (`(1 − w) + w · survival`, the proactive model of DESIGN.md §13),
    /// so at-risk processors only win tasks their capacity advantage can
    /// still justify. Methods with no importance signal (`RandomMapping`,
    /// `Dml`) fall back to their plain allocation.
    #[must_use]
    pub fn with_survival(mut self, on: bool) -> Self {
        self.survival = on;
        self
    }

    /// Folds controller↔node route cost into every processor's time budget
    /// (see the module docs). A no-op to the bit on uniform-star clusters.
    #[must_use]
    pub fn with_route_cost(mut self, on: bool) -> Self {
        self.route_cost = on;
        self
    }

    /// The explicit importance vector, when one was set.
    pub fn importances(&self) -> Option<&[f64]> {
        self.importances.as_deref()
    }

    /// Whether survival weighting is on.
    pub fn survival(&self) -> bool {
        self.survival
    }

    /// Whether route-cost budget deflation is on.
    pub fn route_cost(&self) -> bool {
        self.route_cost
    }
}

/// One allocation request: which [`crate::pipeline::Method`] on which
/// evaluation day, under which [`Objective`].
#[derive(Debug, Clone, PartialEq)]
pub struct AllocQuery {
    method: crate::pipeline::Method,
    day: usize,
    objective: Objective,
}

impl AllocQuery {
    /// A blank-objective query — bit-identical to the pre-redesign
    /// `allocate(method, day)`.
    pub fn new(method: crate::pipeline::Method, day: usize) -> Self {
        Self { method, day, objective: Objective::default() }
    }

    /// Sets the objective.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// The method under evaluation.
    pub fn method(&self) -> crate::pipeline::Method {
        self.method
    }

    /// The evaluation-day index.
    pub fn day(&self) -> usize {
        self.day
    }

    /// The objective.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }
}

/// What an allocation query produced.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocOutcome {
    /// The allocation found.
    pub allocation: Allocation,
    /// Wall-clock seconds the allocator itself consumed.
    pub overhead_s: f64,
    /// The solver's optimality certificate when the query ran an
    /// exact/portfolio solve (`None` for heuristic and learned paths, and
    /// for survival-weighted solves, whose weighted objective has no
    /// certified bound).
    pub certificate: Option<SolveCertificate>,
}

/// Per-processor budget deflation factors for `fleet` on `cluster` (the
/// module-docs formula), aligned with the fleet's processor columns.
///
/// Deterministic: one [`Cluster::route_costs`] query plus O(M) arithmetic.
/// Uniform stars yield exactly `1.0` everywhere; a fleet processor on an
/// unreachable node gets [`MIN_ROUTE_FACTOR`].
pub fn route_budget_factors(cluster: &Cluster, fleet: &ProcessorFleet) -> Vec<f64> {
    let costs = cluster.route_costs();
    // NodeId → position in the cluster's node list (ids are dense in every
    // cluster constructor, so a direct table beats a scan per processor).
    let max_id = cluster.nodes().iter().map(|n| n.id().0).max().unwrap_or(0);
    let mut pos = vec![usize::MAX; max_id + 1];
    for (i, n) in cluster.nodes().iter().enumerate() {
        pos[n.id().0] = i;
    }
    let per_bit: Vec<f64> = fleet
        .processors()
        .iter()
        .map(|p| {
            pos.get(p.node.0)
                .copied()
                .filter(|&i| i != usize::MAX)
                .map_or(f64::INFINITY, |i| costs[i].per_bit_s)
        })
        .collect();
    // The unit of knapsack weights: reference seconds per bit (the Pi A+
    // rate `EdgeTask::reference_time_s` is defined against).
    let c_ref = DeviceModel::RaspberryPiAPlus.seconds_per_bit();
    let r_min = per_bit.iter().copied().fold(f64::INFINITY, f64::min);
    per_bit
        .iter()
        .map(|&r| {
            let f = (c_ref + r_min) / (c_ref + r);
            if f.is_finite() {
                f.max(MIN_ROUTE_FACTOR)
            } else {
                MIN_ROUTE_FACTOR
            }
        })
        .collect()
}

/// `fleet` with every processor's time limit deflated by its route budget
/// factor — the topology-aware fleet the route-cost objective solves over.
///
/// On a uniform star the factors are exactly `1.0` and the returned
/// fleet's limits are bitwise the input's.
///
/// # Errors
///
/// Propagates fleet validation (never fails for factors from
/// [`route_budget_factors`]: they are finite and positive by
/// construction).
pub fn deflated_fleet(
    cluster: &Cluster,
    fleet: &ProcessorFleet,
) -> Result<ProcessorFleet, FleetError> {
    let factors = route_budget_factors(cluster, fleet);
    deflated_fleet_with(fleet, &factors)
}

/// [`deflated_fleet`] over pre-computed factors (prepared pipelines cache
/// them so repeated queries skip the Dijkstra).
///
/// # Errors
///
/// Propagates fleet validation.
pub fn deflated_fleet_with(
    fleet: &ProcessorFleet,
    factors: &[f64],
) -> Result<ProcessorFleet, FleetError> {
    let limits: Vec<f64> = (0..fleet.len()).map(|p| fleet.time_limit_of(p) * factors[p]).collect();
    ProcessorFleet::with_time_limits(fleet.processors().to_vec(), limits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::Processor;
    use crate::task::{EdgeTask, TaskId};
    use crate::tatim::TatimInstance;
    use edgesim::cluster::MeshSpec;
    use edgesim::node::NodeId;

    #[test]
    fn uniform_star_factors_are_exactly_one() {
        let cluster = Cluster::paper_testbed().unwrap();
        let fleet = ProcessorFleet::from_cluster(&cluster, 1.0).unwrap();
        let factors = route_budget_factors(&cluster, &fleet);
        assert_eq!(factors.len(), fleet.len());
        assert!(factors.iter().all(|f| f.to_bits() == 1.0f64.to_bits()), "{factors:?}");
        let deflated = deflated_fleet(&cluster, &fleet).unwrap();
        for p in 0..fleet.len() {
            assert_eq!(deflated.time_limit_of(p).to_bits(), fleet.time_limit_of(p).to_bits());
        }
    }

    #[test]
    fn mesh_factors_penalise_congested_routes() {
        let cluster = Cluster::mesh_testbed(MeshSpec::new(100, 42)).unwrap();
        let fleet = ProcessorFleet::from_cluster(&cluster, 1.0).unwrap();
        let factors = route_budget_factors(&cluster, &fleet);
        assert_eq!(factors.len(), fleet.len());
        assert!(factors.iter().all(|&f| f > 0.0 && f <= 1.0), "factors in (0, 1]");
        // The mesh testbed's tiered links guarantee heterogeneous routes.
        let min = factors.iter().copied().fold(f64::INFINITY, f64::min);
        let max = factors.iter().copied().fold(0.0f64, f64::max);
        assert!(max.to_bits() == 1.0f64.to_bits(), "cheapest route normalises to 1.0");
        assert!(min < max, "congested routes must deflate harder");
    }

    #[test]
    fn deflation_reduces_what_a_congested_node_can_host() {
        // One task, two equal processors — but processor 1 sits behind a
        // route priced so high its deflated budget cannot host the task.
        let cluster = Cluster::mesh_testbed(MeshSpec::new(16, 3)).unwrap();
        let fleet = ProcessorFleet::from_cluster(&cluster, 10.0).unwrap();
        let deflated = deflated_fleet(&cluster, &fleet).unwrap();
        for p in 0..fleet.len() {
            assert!(deflated.time_limit_of(p) <= fleet.time_limit_of(p) + 1e-15);
        }
    }

    #[test]
    fn factors_for_off_cluster_processor_hit_the_floor() {
        let cluster = Cluster::paper_testbed().unwrap();
        let fleet = ProcessorFleet::new(
            vec![Processor { node: NodeId(77), capacity: 1.0, seconds_per_bit: 4.75e-7 }],
            1.0,
        )
        .unwrap();
        let factors = route_budget_factors(&cluster, &fleet);
        assert_eq!(factors, vec![MIN_ROUTE_FACTOR]);
    }

    #[test]
    fn star_solve_is_bit_identical_under_route_cost() {
        let cluster = Cluster::paper_testbed().unwrap();
        let fleet = ProcessorFleet::from_cluster(&cluster, 0.5).unwrap();
        let tasks: Vec<EdgeTask> = (0..6)
            .map(|i| {
                EdgeTask::new(TaskId(i), format!("t{i}"), 1e6, 1.0, 0.1 + 0.1 * i as f64).unwrap()
            })
            .collect();
        let blind = TatimInstance::new(tasks.clone(), fleet.clone());
        let aware = TatimInstance::new(tasks, deflated_fleet(&cluster, &fleet).unwrap());
        let a = blind.solve(&crate::tatim::SolverKind::Greedy).unwrap();
        let b = aware.solve(&crate::tatim::SolverKind::Greedy).unwrap();
        assert_eq!(a.allocation, b.allocation);
        assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    }
}
