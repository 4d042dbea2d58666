//! Metamorphic relations of the one exact path,
//! `TatimInstance::solve(&SolverKind::Portfolio(SolveBudget::Exact))`, at 1,
//! 2 and 8 threads:
//!
//! * halving every importance keeps the placement and gives exactly half
//!   the objective, to the bit;
//! * raising one processor's time limit never lowers the objective;
//! * appending a zero-importance task keeps the objective bits.
//!
//! Importances are dyadic (`k/16`): every sum of them is exact, halving one
//! is exact, and two different objectives differ by at least `1/32`, far
//! above the solver's `1e-12` prune epsilon, so the exhaustive search
//! returns the same first optimum achiever whichever epsilon prunes fire.

use dcta_core::processor::{Processor, ProcessorFleet};
use dcta_core::task::{EdgeTask, TaskId};
use dcta_core::tatim::{SolveReport, SolverKind, TatimInstance};
use edgesim::node::NodeId;
use knapsack::portfolio::SolveBudget;
use proptest::prelude::*;
use std::sync::Mutex;

/// The relations flip the process-wide thread override; serialise them.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

const THREADS: [usize; 3] = [1, 2, 8];

/// `(bits, resource, importance numerator)` per task.
type TaskSpec = (f64, f64, u8);

fn task(i: usize, &(bits, resource, k): &TaskSpec) -> EdgeTask {
    EdgeTask::new(TaskId(i), format!("t{i}"), bits, resource, f64::from(k) / 16.0)
        .expect("valid ranges")
}

fn instance(tasks: &[TaskSpec], capacities: &[f64], limits: Vec<f64>) -> TatimInstance {
    let processors = capacities
        .iter()
        .enumerate()
        .map(|(p, &capacity)| Processor { node: NodeId(p + 1), capacity, seconds_per_bit: 4.75e-7 })
        .collect();
    let fleet = ProcessorFleet::with_time_limits(processors, limits).expect("valid fleet");
    TatimInstance::new(tasks.iter().enumerate().map(|(i, t)| task(i, t)).collect(), fleet)
}

/// A small instance: 1–12 tasks of up to 5 Mb, 1–3 processors whose time
/// limits are each a random share of the total task time, so some tasks fit
/// no processor and the rest compete.
fn world() -> impl Strategy<Value = (Vec<TaskSpec>, Vec<f64>, Vec<f64>)> {
    let task = (1e5f64..5e6, 0.0f64..4.0, 0u8..=16);
    let processor = (1.0f64..10.0, 0.05f64..0.8);
    (prop::collection::vec(task, 1..13), prop::collection::vec(processor, 1..4)).prop_map(
        |(tasks, processors)| {
            let total: f64 = tasks.iter().map(|t| t.0 * 4.75e-7).sum();
            let capacities = processors.iter().map(|p| p.0).collect();
            let limits = processors.iter().map(|p| p.1 * total).collect();
            (tasks, capacities, limits)
        },
    )
}

fn exact(instance: &TatimInstance) -> SolveReport {
    instance.solve(&SolverKind::Portfolio(SolveBudget::Exact)).expect("solve")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn halving_every_importance_halves_the_objective_exactly(
        (tasks, capacities, limits) in world(),
    ) {
        let _g = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let base = instance(&tasks, &capacities, limits);
        let halved: Vec<f64> = base.tasks().iter().map(|t| t.importance() / 2.0).collect();
        let halved = base.with_importances(&halved);
        for threads in THREADS {
            let _t = parallel::ScopedThreads::new(threads);
            let (a, b) = (exact(&base), exact(&halved));
            prop_assert_eq!(
                b.allocation.placement(), a.allocation.placement(),
                "{} threads: placement moved", threads
            );
            prop_assert_eq!(
                b.objective.to_bits(), (a.objective / 2.0).to_bits(),
                "{} threads: {} is not half of {}", threads, b.objective, a.objective
            );
        }
    }

    #[test]
    fn raising_one_time_limit_never_lowers_the_objective(
        (tasks, capacities, limits) in world(),
        pick in 0usize..3,
        factor in 1.0f64..3.0,
    ) {
        let _g = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let p = pick % limits.len();
        let mut raised = limits.clone();
        raised[p] *= factor;
        let base = instance(&tasks, &capacities, limits);
        let raised = instance(&tasks, &capacities, raised);
        for threads in THREADS {
            let _t = parallel::ScopedThreads::new(threads);
            let (a, b) = (exact(&base), exact(&raised));
            prop_assert!(
                b.objective >= a.objective,
                "{} threads: raising processor {}'s limit by {} lowered {} to {}",
                threads, p, factor, a.objective, b.objective
            );
        }
    }

    #[test]
    fn appending_a_zero_importance_task_keeps_the_objective_bits(
        (tasks, capacities, limits) in world(),
        bits in 1e5f64..5e6,
        resource in 0.0f64..4.0,
    ) {
        let _g = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut grown = tasks.clone();
        grown.push((bits, resource, 0));
        let base = instance(&tasks, &capacities, limits.clone());
        let grown = instance(&grown, &capacities, limits);
        for threads in THREADS {
            let _t = parallel::ScopedThreads::new(threads);
            let (a, b) = (exact(&base), exact(&grown));
            prop_assert_eq!(
                b.objective.to_bits(), a.objective.to_bits(),
                "{} threads: {} became {}", threads, a.objective, b.objective
            );
        }
    }
}
