//! Theorem-1 integration: the TATIM ↔ MCMK reduction round-trips across
//! crates, with property tests on randomly generated instances.

use proptest::prelude::*;
use tatim::core::processor::{Processor, ProcessorFleet};
use tatim::core::task::{EdgeTask, TaskId};
use tatim::core::tatim::{SolverKind, TatimInstance};
use tatim::edgesim::node::NodeId;
use tatim::knapsack::portfolio::{solve_portfolio, SolveBudget};

fn instance_strategy() -> impl Strategy<Value = TatimInstance> {
    let task = (0.0f64..5e6, 0.0f64..4.0, 0.0f64..1.0);
    let proc = 1.0f64..10.0;
    (prop::collection::vec(task, 1..10), prop::collection::vec(proc, 1..4), 0.1f64..2.0).prop_map(
        |(tasks, capacities, limit_scale)| {
            let tasks: Vec<EdgeTask> = tasks
                .into_iter()
                .enumerate()
                .map(|(i, (bits, res, imp))| {
                    EdgeTask::new(TaskId(i), format!("t{i}"), bits, res, imp).expect("valid ranges")
                })
                .collect();
            let total: f64 = tasks.iter().map(EdgeTask::reference_time_s).sum();
            let m = capacities.len();
            let fleet = ProcessorFleet::new(
                capacities
                    .into_iter()
                    .enumerate()
                    .map(|(p, c)| Processor {
                        node: NodeId(p + 1),
                        capacity: c,
                        seconds_per_bit: 4.75e-7,
                    })
                    .collect(),
                (limit_scale * total / m as f64).max(1e-3),
            )
            .expect("non-empty fleet");
            TatimInstance::new(tasks, fleet)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reduction_preserves_objective(inst in instance_strategy()) {
        // Solving the reduced knapsack and interpreting the packing back
        // must give an allocation whose importance is the solver's reported
        // profit, to the bit.
        let problem = inst.to_knapsack().expect("reduction");
        let sol = solve_portfolio(&problem, SolveBudget::Exact);
        let alloc = inst.allocation_from_packing(&sol.packing);
        prop_assert_eq!(alloc.total_importance(inst.tasks()).to_bits(), sol.profit.to_bits());
    }

    #[test]
    fn exact_solutions_are_feasible_in_tatim_terms(inst in instance_strategy()) {
        let (alloc, _) = inst.solve_exact().expect("solve");
        prop_assert!(
            alloc.is_feasible(inst.tasks(), inst.fleet()),
            "violations: {:?}",
            alloc.check(inst.tasks(), inst.fleet())
        );
    }

    #[test]
    fn greedy_bounded_by_exact(inst in instance_strategy()) {
        let greedy = inst.solve(&SolverKind::Greedy).expect("greedy").objective;
        let (_, exact) = inst.solve_exact().expect("exact");
        prop_assert!(greedy <= exact + 1e-9, "greedy {greedy} > exact {exact}");
    }

    #[test]
    fn repricing_importances_respects_bounds(inst in instance_strategy(),
                                             seed in 0u64..1000) {
        // New random importances in [0,1] keep the instance solvable and
        // the objective within [0, sum of importances].
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let imp: Vec<f64> = (0..inst.num_tasks()).map(|_| rng.gen_range(0.0..1.0)).collect();
        let repriced = inst.with_importances(&imp);
        let (_, profit) = repriced.solve_exact().expect("solve");
        let total: f64 = imp.iter().sum();
        prop_assert!((0.0..=total + 1e-9).contains(&profit));
    }

    #[test]
    fn alloc_spec_round_trip_is_consistent(inst in instance_strategy()) {
        let spec = inst.to_alloc_spec();
        prop_assert!(spec.validate().is_ok());
        prop_assert_eq!(spec.num_tasks(), inst.num_tasks());
        prop_assert_eq!(spec.num_processors(), inst.fleet().len());
        // The environment matrix has N*M entries (Definition of e).
        prop_assert_eq!(
            spec.environment_matrix().len(),
            inst.num_tasks() * inst.fleet().len()
        );
    }
}
