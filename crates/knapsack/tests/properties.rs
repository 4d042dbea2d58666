//! Property-based tests of the MCMK solver stack invariants:
//! feasibility of every solver output, greedy ≤ exact ≤ upper bound, and
//! monotonicity of the optimum in capacity, and that no solver packs an
//! item that earns nothing. "Exact" is
//! `solve_portfolio(.., SolveBudget::Exact)`, the one exhaustive search.

use knapsack::bounds::upper_bound;
use knapsack::exact::brute_force;
use knapsack::greedy::{greedy, greedy_weighted, greedy_with_local_search, local_search};
use knapsack::portfolio::{solve_portfolio, SolveBudget};
use knapsack::problem::{Item, Packing, Problem, Sack};
use proptest::prelude::*;
use std::sync::Mutex;

/// The thread-count test flips the process-wide thread override; serialise
/// it so concurrent test threads don't fight over it.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

fn exact(p: &Problem) -> f64 {
    solve_portfolio(p, SolveBudget::Exact).profit
}

fn small_problem() -> impl Strategy<Value = Problem> {
    let item = (0.0f64..5.0, 0.0f64..5.0, 0.0f64..1.0)
        .prop_map(|(w, v, p)| Item::new(w, v, p).expect("valid ranges"));
    let sack =
        (0.0f64..10.0, 0.0f64..10.0).prop_map(|(w, v)| Sack::new(w, v).expect("valid ranges"));
    (prop::collection::vec(item, 0..8), prop::collection::vec(sack, 1..4))
        .prop_map(|(items, sacks)| Problem::new(items, sacks).expect("sacks non-empty"))
}

/// Integer-valued MCMK instances: zero sizes, zero profits and profit ties.
fn integer_problem() -> impl Strategy<Value = Problem> {
    integer_problem_of(16, 5)
}

/// [`integer_problem`] with fewer than `items` items and `sacks` sacks.
fn integer_problem_of(items: usize, sacks: usize) -> impl Strategy<Value = Problem> {
    let item = (0u8..5, 0u8..5, 0u8..10).prop_map(|(w, v, p)| {
        Item::new(f64::from(w), f64::from(v), f64::from(p)).expect("valid ranges")
    });
    let sack = (0u8..10, 0u8..10)
        .prop_map(|(w, v)| Sack::new(f64::from(w), f64::from(v)).expect("valid ranges"));
    (prop::collection::vec(item, 0..items), prop::collection::vec(sack, 1..sacks))
        .prop_map(|(items, sacks)| Problem::new(items, sacks).expect("sacks non-empty"))
}

fn medium_problem() -> impl Strategy<Value = Problem> {
    let item = (0.0f64..5.0, 0.0f64..5.0, 0.0f64..1.0)
        .prop_map(|(w, v, p)| Item::new(w, v, p).expect("valid ranges"));
    let sack =
        (0.0f64..12.0, 0.0f64..12.0).prop_map(|(w, v)| Sack::new(w, v).expect("valid ranges"));
    (prop::collection::vec(item, 0..25), prop::collection::vec(sack, 1..6))
        .prop_map(|(items, sacks)| Problem::new(items, sacks).expect("sacks non-empty"))
}

/// The contract of `local_search` from one start: the result is feasible,
/// earns at least the start's profit, is a fixed point, and is a true local
/// optimum — no unpacked item fits any sack or profitably replaces any
/// packed item, by brute force over every pair.
fn check_local_search(p: &Problem, start: Packing) -> Result<(), TestCaseError> {
    let done = local_search(p, start.clone(), usize::MAX);
    prop_assert!(done.is_feasible(p));
    let (after, before) = (done.profit(p), start.profit(p));
    prop_assert!(after >= before, "{} < start {}", after, before);
    let again = local_search(p, done.clone(), usize::MAX);
    prop_assert_eq!(again.placement(), done.placement());

    let residual = done.residual_capacities(p);
    let fits = |i: &Item, (rw, rv): (f64, f64)| i.weight <= rw + 1e-12 && i.volume <= rv + 1e-12;
    for (i, inc) in p.items().iter().enumerate().filter(|(i, _)| done.sack_of(*i).is_none()) {
        if inc.profit > 0.0 {
            prop_assert!(!residual.iter().any(|&r| fits(inc, r)), "item {i} still fits a sack");
        }
        for (j, out) in p.items().iter().enumerate() {
            let Some(s) = done.sack_of(j) else { continue };
            let freed = (residual[s].0 + out.weight, residual[s].1 + out.volume);
            prop_assert!(
                !(inc.profit > out.profit + 1e-12 && fits(inc, freed)),
                "item {i} still profitably replaces item {j}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn local_search_reaches_a_feasible_local_optimum(p in medium_problem(), q in integer_problem()) {
        // Continuous instances, and integer ones for profit ties, zero
        // sizes and zero profits; from the greedy packing and from nothing.
        for p in [&p, &q] {
            check_local_search(p, greedy(p))?;
            check_local_search(p, Packing::empty(p.num_items()))?;
        }
    }

    /// One selection rule for every solver: an item of zero profit is left
    /// out, zero-size ones included, whatever room is left.
    #[test]
    fn no_solver_packs_a_zero_profit_item(p in integer_problem(), q in integer_problem_of(8, 4),
                                          weights in prop::collection::vec(0u8..4, 4)) {
        let multipliers: Vec<f64> =
            (0..p.num_sacks()).map(|s| f64::from(weights[s % weights.len()])).collect();
        let mut solved = vec![
            (&p, "greedy", greedy(&p)),
            (&p, "greedy_weighted", greedy_weighted(&p, &multipliers)),
            (&p, "greedy_with_local_search", greedy_with_local_search(&p)),
            // Brute force enumerates `(M + 1)^N` placements: a smaller instance.
            (&q, "brute_force", brute_force(&q)),
        ];
        for budget in [SolveBudget::Exact, SolveBudget::NodeBudget(0), SolveBudget::NodeBudget(50),
                       SolveBudget::Anytime] {
            solved.push((&p, "portfolio", solve_portfolio(&p, budget).packing));
        }
        for (p, name, packing) in solved {
            for (i, item) in p.items().iter().enumerate() {
                prop_assert!(item.profit > 0.0 || packing.sack_of(i).is_none(),
                    "{}: packed item {} of zero profit", name, i);
            }
        }
    }

    #[test]
    fn exact_matches_brute_force(p in small_problem()) {
        let bb = exact(&p);
        let bf = brute_force(&p).profit(&p);
        prop_assert!((bb - bf).abs() < 1e-9, "bb {} != bf {}", bb, bf);
    }

    #[test]
    fn all_solvers_return_feasible_packings(p in medium_problem()) {
        prop_assert!(greedy(&p).is_feasible(&p));
        prop_assert!(greedy_with_local_search(&p).is_feasible(&p));
        // Branch-and-bound with a small node budget must stay feasible too.
        let bb = solve_portfolio(&p, SolveBudget::NodeBudget(500)).packing;
        prop_assert!(bb.is_feasible(&p));
    }

    #[test]
    fn solver_chain_is_ordered(p in small_problem()) {
        let g = greedy(&p).profit(&p);
        let gl = greedy_with_local_search(&p).profit(&p);
        let e = exact(&p);
        let ub = upper_bound(&p);
        prop_assert!(g <= gl + 1e-9, "local search regressed greedy");
        prop_assert!(gl <= e + 1e-9, "heuristic beat the optimum");
        prop_assert!(e <= ub + 1e-9, "optimum {} exceeded bound {}", e, ub);
        prop_assert!(ub <= p.total_profit() + 1e-9);
    }

    /// The reported profit is the packing's own, to the bit.
    #[test]
    fn reported_profit_is_the_packings(p in medium_problem()) {
        let e = solve_portfolio(&p, SolveBudget::NodeBudget(2_000));
        prop_assert_eq!(e.profit.to_bits(), e.packing.profit(&p).to_bits());
    }

    #[test]
    fn optimum_monotone_in_capacity(p in small_problem(), extra in 0.0f64..5.0) {
        let base = exact(&p);
        let grown = Problem::new(
            p.items().to_vec(),
            p.sacks()
                .iter()
                .map(|s| Sack::new(s.weight_capacity + extra, s.volume_capacity + extra)
                    .expect("valid"))
                .collect(),
        ).expect("sacks unchanged");
        let bigger = exact(&grown);
        prop_assert!(bigger + 1e-9 >= base, "capacity growth reduced optimum");
    }

    #[test]
    fn adding_an_item_never_hurts(p in small_problem(), w in 0.0f64..5.0, v in 0.0f64..5.0,
                                  profit in 0.0f64..1.0) {
        let base = exact(&p);
        let mut items = p.items().to_vec();
        items.push(Item::new(w, v, profit).expect("valid"));
        let grown = Problem::new(items, p.sacks().to_vec()).expect("sacks unchanged");
        let bigger = exact(&grown);
        prop_assert!(bigger + 1e-9 >= base, "new item reduced optimum");
    }

    #[test]
    fn exact_profit_within_eps_across_threads_on_continuous_instances(p in medium_problem()) {
        let _g = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let one = {
            let _t = parallel::ScopedThreads::new(1);
            solve_portfolio(&p, SolveBudget::Exact)
        };
        let _t = parallel::ScopedThreads::new(4);
        let four = solve_portfolio(&p, SolveBudget::Exact);
        // Continuous profits can tie within the solver's 1e-12 prune
        // epsilon, where the assignment may legitimately differ; the
        // optimum value itself must still agree to ~1e-12.
        prop_assert!((four.profit - one.profit).abs() < 1e-9,
            "4 threads {} vs 1 thread {}", four.profit, one.profit);
        prop_assert!(four.packing.is_feasible(&p));
    }

    #[test]
    fn zero_profit_items_do_not_change_optimum(p in small_problem()) {
        let base = exact(&p);
        let mut items = p.items().to_vec();
        items.push(Item::new(1.0, 1.0, 0.0).expect("valid"));
        let grown = Problem::new(items, p.sacks().to_vec()).expect("sacks unchanged");
        let same = exact(&grown);
        prop_assert!((same - base).abs() < 1e-9);
    }
}
