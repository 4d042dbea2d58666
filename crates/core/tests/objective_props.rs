//! Determinism contracts of the route-cost objective (DESIGN.md §16):
//!
//! * **Star worlds are provably unaffected** — on any uniform-star testbed
//!   the budget factors are exactly `1.0`, so a route-cost solve is bitwise
//!   the blind solve (property-tested over random instances).
//! * **Mesh runs are thread-invariant** — the same `RunSpec` with the
//!   route-cost objective yields bit-identical reports at 1, 2 and 8
//!   threads, healthy and faulted alike.
//! * **Certificates stay sound under deflation** — the portfolio's warm
//!   start and upper bound still bracket its objective on deflated fleets.

use buildings::scenario::{Scenario, ScenarioConfig};
use dcta_core::objective::{deflated_fleet, route_budget_factors, Objective};
use dcta_core::pipeline::{Method, Pipeline, PipelineConfig, RunSpec, Topology};
use dcta_core::processor::ProcessorFleet;
use dcta_core::recovery::RecoveryMode;
use dcta_core::task::{EdgeTask, TaskId};
use dcta_core::tatim::{SolverKind, TatimInstance};
use edgesim::cluster::{Cluster, MeshSpec};
use edgesim::faults::FaultSchedule;
use knapsack::portfolio::SolveBudget;
use proptest::prelude::*;
use rl::crl::CrlConfig;
use rl::dqn::DqnConfig;

fn tasks_from(sizes: &[(f64, f64, f64)]) -> Vec<EdgeTask> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &(bits, res, imp))| {
            EdgeTask::new(TaskId(i), format!("t{i}"), bits, res, imp).expect("valid ranges")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On any star testbed the route factors are exactly `1.0`, so every
    /// solver mode returns bitwise the blind answer.
    #[test]
    fn star_route_cost_solves_are_bitwise_blind(
        sizes in prop::collection::vec((1e5f64..5e6, 0.0f64..3.0, 0.0f64..1.0), 1..12),
        workers in 2usize..10,
        limit_scale in 0.1f64..1.5,
    ) {
        let cluster = Cluster::testbed_with_workers(workers).expect("star cluster");
        let tasks = tasks_from(&sizes);
        let total: f64 = tasks.iter().map(EdgeTask::reference_time_s).sum();
        let fleet = ProcessorFleet::from_cluster(
            &cluster,
            (limit_scale * total / workers as f64).max(1e-3),
        )
        .expect("fleet");

        let factors = route_budget_factors(&cluster, &fleet);
        prop_assert!(factors.iter().all(|f| f.to_bits() == 1.0f64.to_bits()), "{factors:?}");

        let blind = TatimInstance::new(tasks.clone(), fleet.clone());
        let aware = TatimInstance::new(tasks, deflated_fleet(&cluster, &fleet).expect("deflate"));
        for kind in [
            SolverKind::Greedy,
            SolverKind::Portfolio(SolveBudget::NodeBudget(20_000)),
        ] {
            let a = blind.solve(&kind).expect("blind");
            let b = aware.solve(&kind).expect("aware");
            prop_assert_eq!(&a.allocation, &b.allocation);
            prop_assert_eq!(a.objective.to_bits(), b.objective.to_bits());
        }
    }

    /// Deflating budgets must keep the portfolio certificate sound: the
    /// greedy warm start and the surrogate upper bound bracket the
    /// portfolio's objective, and a proved-optimal run reports a zero gap.
    #[test]
    fn portfolio_certificate_sound_under_route_cost(
        sizes in prop::collection::vec((1e5f64..5e6, 0.0f64..3.0, 0.0f64..1.0), 1..12),
        seed in 0u64..64,
        limit_scale in 0.1f64..1.5,
    ) {
        let cluster = Cluster::mesh_testbed(MeshSpec::new(24, seed)).expect("mesh cluster");
        let tasks = tasks_from(&sizes);
        let total: f64 = tasks.iter().map(EdgeTask::reference_time_s).sum();
        let m = cluster.num_workers();
        let fleet = ProcessorFleet::from_cluster(
            &cluster,
            (limit_scale * total / m as f64).max(1e-3),
        )
        .expect("fleet");
        let aware =
            TatimInstance::new(tasks, deflated_fleet(&cluster, &fleet).expect("deflate"));

        let warm = aware.solve(&SolverKind::Greedy).expect("greedy").objective;
        let report =
            aware.solve(&SolverKind::Portfolio(SolveBudget::NodeBudget(20_000))).expect("solve");
        let cert = report.certificate.expect("portfolio solves always certify");
        prop_assert!(warm <= report.objective + 1e-9, "warm start must not beat the portfolio");
        prop_assert!(
            report.objective <= cert.upper_bound + 1e-9,
            "objective {} above its upper bound {}",
            report.objective,
            cert.upper_bound
        );
        prop_assert!(cert.gap >= 0.0);
        if cert.proved_optimal {
            prop_assert!(cert.gap == 0.0, "a proved-optimal run certifies a zero gap");
        }
    }
}

fn mesh_scenario() -> Scenario {
    Scenario::generate(ScenarioConfig {
        num_buildings: 2,
        chillers_per_building: 2,
        bands_per_chiller: 4,
        num_tasks: 12,
        history_days: 50,
        eval_days: 8,
        mean_input_mbit: 40.0,
        ..ScenarioConfig::default()
    })
    .unwrap()
}

fn mesh_config() -> PipelineConfig {
    PipelineConfig {
        workers: 4,
        topology: Topology::Mesh(MeshSpec::new(12, 7)),
        env_history_days: 5,
        crl: CrlConfig {
            episodes: 12,
            dqn: DqnConfig { hidden: vec![24], ..DqnConfig::default() },
            ..CrlConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// Mesh route-cost runs are bit-identical at 1, 2 and 8 threads for every
/// solver mode, healthy and faulted (proactive recovery included).
#[test]
fn mesh_route_cost_runs_are_thread_invariant() {
    let s = mesh_scenario();
    let reference = Pipeline::new(mesh_config()).prepare(&s).unwrap();
    let day = reference.test_days().start;
    let objective = Objective::new().with_route_cost(true);
    let victim = reference.fleet().node_of(0);
    let schedule = FaultSchedule::new().with_crash(victim, 0.2).unwrap();

    for method in [Method::RandomMapping, Method::Dml, Method::GreedyOracle, Method::ExactOracle] {
        let healthy: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&t| {
                let _threads = parallel::ScopedThreads::new(t);
                let p = Pipeline::new(mesh_config()).prepare(&s).unwrap();
                p.run(&RunSpec::new(method, day).with_objective(objective.clone()))
                    .unwrap()
                    .into_healthy()
                    .unwrap()
            })
            .collect();
        assert_eq!(healthy[0], healthy[1], "{method}: threads 1 vs 2 diverged");
        assert_eq!(healthy[0], healthy[2], "{method}: threads 1 vs 8 diverged");
    }

    for mode in [RecoveryMode::Resolve, RecoveryMode::Proactive] {
        let faulted: Vec<_> = [1usize, 2, 8]
            .iter()
            .map(|&t| {
                let _threads = parallel::ScopedThreads::new(t);
                let p = Pipeline::new(mesh_config()).prepare(&s).unwrap();
                let spec = RunSpec::new(Method::GreedyOracle, day)
                    .with_objective(objective.clone())
                    .with_faults(schedule.clone(), mode);
                p.run(&spec).unwrap().into_faulted().unwrap()
            })
            .collect();
        // Resolve/Proactive time the recovery re-solve, so compare every
        // deterministic field rather than the report wholesale.
        for other in &faulted[1..] {
            assert_eq!(faulted[0].allocation, other.allocation, "{mode:?}: allocation");
            assert_eq!(faulted[0].delivered, other.delivered, "{mode:?}: delivered");
            assert_eq!(
                faulted[0].simulated_processing_time_s.to_bits(),
                other.simulated_processing_time_s.to_bits(),
                "{mode:?}: simulated PT"
            );
            assert_eq!(
                faulted[0].delivered_importance.to_bits(),
                other.delivered_importance.to_bits(),
                "{mode:?}: delivered importance"
            );
            assert_eq!(
                faulted[0].retained_fraction.to_bits(),
                other.retained_fraction.to_bits(),
                "{mode:?}: retained fraction"
            );
            assert_eq!(faulted[0].shed, other.shed, "{mode:?}: shed");
            assert_eq!(faulted[0].lost, other.lost, "{mode:?}: lost");
            assert_eq!(faulted[0].failures, other.failures, "{mode:?}: failures");
        }
    }
}

/// A route-cost query on a mesh must actually change something relative to
/// the blind query (the mesh testbed's tiered links guarantee heterogeneous
/// factors), while the blank objective stays the classic path.
#[test]
fn mesh_route_cost_deflates_budgets() {
    let s = mesh_scenario();
    let prepared = Pipeline::new(mesh_config()).prepare(&s).unwrap();
    let factors = prepared.route_factors();
    assert!(!factors.is_empty());
    assert!(factors.iter().all(|&f| f > 0.0 && f <= 1.0), "factors in (0, 1]: {factors:?}");
    let min = factors.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(min < 1.0, "a mesh world must deflate at least one route: {factors:?}");
}
