//! An answer's value is a function of the answer. For every solver kind —
//! `Greedy`, `WeightedGreedy`, and `Portfolio` under `Exact`, node budgets
//! and `Anytime` — at 1, 2 and 8 threads:
//!
//! * the reported objective is the allocation's `total_importance`, to the
//!   bit;
//! * the certificate's gap is `0.0` when proved optimal, and otherwise
//!   `((ub − objective) / |ub|).max(0.0)`, to the bit;
//! * two solves that return the same allocation report the same objective
//!   bits, whichever kind, budget or thread count produced them.
//!
//! Importances are continuous, so the same set of tasks summed in another
//! order would differ in the last bits.

use dcta_core::processor::{Processor, ProcessorFleet};
use dcta_core::task::{EdgeTask, TaskId};
use dcta_core::tatim::{SolveReport, SolverKind, TatimInstance};
use edgesim::node::NodeId;
use knapsack::portfolio::SolveBudget;
use proptest::prelude::*;

/// `(bits, resource, importance)` per task.
type TaskSpec = (f64, f64, f64);

/// 1–13 tasks of up to 5 Mb over 1–4 processors whose time limits are each a
/// random share of the total task time, with a survival-style multiplier per
/// processor.
fn world() -> impl Strategy<Value = (TatimInstance, Vec<f64>)> {
    let task = (1e5f64..5e6, 0.0f64..4.0, 0.0f64..1.0);
    let processor = (1.0f64..10.0, 0.05f64..0.8, 0.0f64..1.0);
    (prop::collection::vec(task, 1..14), prop::collection::vec(processor, 1..5)).prop_map(
        |(tasks, processors): (Vec<TaskSpec>, Vec<(f64, f64, f64)>)| {
            let total: f64 = tasks.iter().map(|t| t.0 * 4.75e-7).sum();
            let fleet = ProcessorFleet::with_time_limits(
                processors
                    .iter()
                    .enumerate()
                    .map(|(p, &(capacity, _, _))| Processor {
                        node: NodeId(p + 1),
                        capacity,
                        seconds_per_bit: 4.75e-7,
                    })
                    .collect(),
                processors.iter().map(|p| p.1 * total).collect(),
            )
            .expect("valid fleet");
            let tasks = tasks
                .iter()
                .enumerate()
                .map(|(i, &(bits, resource, importance))| {
                    EdgeTask::new(TaskId(i), format!("t{i}"), bits, resource, importance)
                        .expect("valid ranges")
                })
                .collect();
            (TatimInstance::new(tasks, fleet), processors.iter().map(|p| p.2).collect())
        },
    )
}

fn check(
    instance: &TatimInstance,
    kind: &SolverKind,
    r: &SolveReport,
) -> Result<(), TestCaseError> {
    let worth = r.allocation.total_importance(instance.tasks());
    prop_assert_eq!(
        r.objective.to_bits(),
        worth.to_bits(),
        "{:?}: {} vs {}",
        kind,
        r.objective,
        worth
    );
    prop_assert_eq!(r.certificate.is_some(), matches!(kind, SolverKind::Portfolio(_)));
    if let Some(c) = r.certificate {
        let gap = if c.proved_optimal {
            0.0
        } else {
            ((c.upper_bound - r.objective) / c.upper_bound.abs().max(1e-12)).max(0.0)
        };
        prop_assert_eq!(c.gap.to_bits(), gap.to_bits(), "{:?}: gap {} vs {}", kind, c.gap, gap);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn the_value_is_a_function_of_the_answer((instance, weights) in world()) {
        let kinds = [
            SolverKind::Greedy,
            SolverKind::WeightedGreedy(weights),
            SolverKind::Portfolio(SolveBudget::Exact),
            SolverKind::Portfolio(SolveBudget::NodeBudget(0)),
            SolverKind::Portfolio(SolveBudget::NodeBudget(16)),
            SolverKind::Portfolio(SolveBudget::NodeBudget(256)),
            SolverKind::Portfolio(SolveBudget::Anytime),
        ];
        let mut reports = Vec::new();
        for threads in [1usize, 2, 8] {
            let _t = parallel::ScopedThreads::new(threads);
            for kind in &kinds {
                let r = instance.solve(kind).expect("solve");
                check(&instance, kind, &r)?;
                reports.push(r);
            }
        }
        for a in &reports {
            for b in reports.iter().filter(|b| b.allocation == a.allocation) {
                prop_assert_eq!(a.objective.to_bits(), b.objective.to_bits());
            }
        }
    }
}
