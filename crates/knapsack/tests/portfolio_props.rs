//! Property-based tests of the anytime portfolio's contract: the result
//! never falls below the warm start, never exceeds the certified upper
//! bound, the gap certificate is sound against brute force, a larger node
//! budget never worsens the incumbent, every budget mode is bit-identical
//! across thread counts, and items that earn nothing change no answer.

use knapsack::exact::brute_force;
use knapsack::greedy::greedy_with_local_search;
use knapsack::portfolio::{solve_portfolio, SolveBudget};
use knapsack::problem::{Item, Problem, Sack};
use proptest::prelude::*;
use std::sync::Mutex;

/// See `tests/properties.rs`: the thread override is process-wide, so the
/// tests that flip it are serialised against each other.
static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// An item of the paper's shape or, one time in four, one whose weight or
/// volume may exceed every sack (sacks reach `max_size`). The bounds'
/// largest-room rule then bites at the root and, as residuals shrink,
/// inside the search.
fn item(max_size: f64) -> impl Strategy<Value = Item> {
    let fitting = (0.0f64..5.0, 0.0f64..5.0, 0.0f64..1.0);
    let oversized = (0.0f64..max_size + 5.0, 0.0f64..max_size + 3.0, 0.0f64..1.0);
    (0u8..4, fitting, oversized).prop_map(|(pick, fitting, oversized)| {
        let (w, v, p) = if pick == 0 { oversized } else { fitting };
        Item::new(w, v, p).expect("valid ranges")
    })
}

fn small_problem() -> impl Strategy<Value = Problem> {
    let sack =
        (0.0f64..10.0, 0.0f64..10.0).prop_map(|(w, v)| Sack::new(w, v).expect("valid ranges"));
    (prop::collection::vec(item(10.0), 0..8), prop::collection::vec(sack, 1..4))
        .prop_map(|(items, sacks)| Problem::new(items, sacks).expect("sacks non-empty"))
}

fn medium_problem() -> impl Strategy<Value = Problem> {
    let sack =
        (0.0f64..12.0, 0.0f64..12.0).prop_map(|(w, v)| Sack::new(w, v).expect("valid ranges"));
    (prop::collection::vec(item(12.0), 0..25), prop::collection::vec(sack, 1..6))
        .prop_map(|(items, sacks)| Problem::new(items, sacks).expect("sacks non-empty"))
}

/// Integer-valued instances: profit gaps are ≥ 1 ≫ the solver's 1e-12
/// epsilon, so results must agree to the bit across thread counts. Weights
/// reach 15 against sacks up to 9.
fn integer_problem() -> impl Strategy<Value = Problem> {
    let fitting = (0u8..5, 0u8..5, 0u8..10);
    let oversized = (0u8..16, 0u8..12, 0u8..10);
    let item = (0u8..4, fitting, oversized).prop_map(|(pick, fitting, oversized)| {
        let (w, v, p) = if pick == 0 { oversized } else { fitting };
        Item::new(f64::from(w), f64::from(v), f64::from(p)).expect("valid ranges")
    });
    let sack = (0u8..10, 0u8..10)
        .prop_map(|(w, v)| Sack::new(f64::from(w), f64::from(v)).expect("valid ranges"));
    (prop::collection::vec(item, 0..16), prop::collection::vec(sack, 1..5))
        .prop_map(|(items, sacks)| Problem::new(items, sacks).expect("sacks non-empty"))
}

/// A problem, the same problem with zero-profit items inserted at random
/// indices, and where each of its items went. The inserted items have
/// integer sizes of at least 1, one of the two zero one time in three, so
/// every density sort puts them after the items that score, or, in the
/// dimension they do not use, at the front where they count `+0.0` and take
/// no room.
fn with_zero_profit_items() -> impl Strategy<Value = (Problem, Problem, Vec<usize>)> {
    let zero = (0u8..3, 1u8..7, 1u8..7).prop_map(|(pick, w, v)| {
        let (w, v) = match pick {
            0 => (0, v),
            1 => (w, 0),
            _ => (w, v),
        };
        Item::new(f64::from(w), f64::from(v), 0.0).expect("valid ranges")
    });
    (integer_problem(), prop::collection::vec((0usize..64, zero), 1..8)).prop_map(|(p, inserts)| {
        let mut items: Vec<(Option<usize>, Item)> =
            p.items().iter().copied().enumerate().map(|(i, item)| (Some(i), item)).collect();
        for (at, item) in inserts {
            items.insert(at % (items.len() + 1), (None, item));
        }
        let mut moved = vec![0; p.num_items()];
        for (j, (from, _)) in items.iter().enumerate() {
            if let Some(i) = from {
                moved[*i] = j;
            }
        }
        let items = items.into_iter().map(|(_, item)| item).collect();
        let q = Problem::new(items, p.sacks().to_vec()).expect("sacks non-empty");
        (p, q, moved)
    })
}

const BUDGETS: [SolveBudget; 4] = [
    SolveBudget::Exact,
    SolveBudget::NodeBudget(50),
    SolveBudget::Anytime,
    SolveBudget::NodeBudget(0),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// In every budget mode the incumbent sits in the certified window:
    /// warm start ≤ result ≤ upper bound, and the packing is feasible.
    #[test]
    fn result_bracketed_by_warm_start_and_upper_bound(p in medium_problem()) {
        let warm = greedy_with_local_search(&p).profit(&p);
        for budget in BUDGETS {
            let r = solve_portfolio(&p, budget);
            let cert = r.certificate;
            prop_assert!(r.packing.is_feasible(&p), "{budget:?}: infeasible packing");
            prop_assert!(r.profit >= warm,
                "{budget:?}: result {} below warm start {}", r.profit, warm);
            prop_assert!(r.profit <= cert.upper_bound + 1e-9,
                "{budget:?}: result {} above bound {}", r.profit, cert.upper_bound);
            prop_assert!(cert.gap >= 0.0 && cert.gap.is_finite(), "{budget:?}: bad gap");
            if cert.proved_optimal {
                prop_assert!(cert.gap == 0.0, "{budget:?}: proved but gap {}", cert.gap);
            }
        }
    }

    /// The certificate is sound against brute force: the true optimum lies
    /// inside `[profit, upper_bound]`, and a proved-optimal result *is*
    /// the optimum. Exact mode must always prove.
    #[test]
    fn gap_certificate_is_sound_against_brute_force(p in small_problem()) {
        let opt = brute_force(&p).profit(&p);
        for budget in BUDGETS {
            let r = solve_portfolio(&p, budget);
            let cert = r.certificate;
            prop_assert!(r.profit <= opt + 1e-9,
                "{budget:?}: incumbent {} beat the optimum {}", r.profit, opt);
            prop_assert!(opt <= cert.upper_bound + 1e-9,
                "{budget:?}: bound {} below the optimum {}", cert.upper_bound, opt);
            if cert.proved_optimal {
                prop_assert!((r.profit - opt).abs() < 1e-9,
                    "{budget:?}: proved {} but optimum is {}", r.profit, opt);
            }
        }
        let exact = solve_portfolio(&p, SolveBudget::Exact);
        prop_assert!(exact.certificate.proved_optimal, "exact mode must prove optimality");
    }

    /// Growing the node budget never worsens the incumbent: the budgeted
    /// DFS visits a deterministic node sequence, so a larger cap explores
    /// a superset and its best can only improve.
    #[test]
    fn node_budget_is_monotone(p in medium_problem()) {
        let mut prev = f64::NEG_INFINITY;
        for nodes in [0u64, 10, 50, 250, 2_000] {
            let r = solve_portfolio(&p, SolveBudget::NodeBudget(nodes));
            prop_assert!(r.profit + 1e-9 >= prev,
                "budget {} worsened the incumbent: {} < {}", nodes, r.profit, prev);
            prev = r.profit;
        }
    }

    /// Every budget mode returns a bit-identical profit, placement and
    /// certificate at 1, 2 and 8 threads (the documented determinism
    /// contract).
    #[test]
    fn portfolio_bit_identical_across_threads(p in integer_problem()) {
        let _g = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        for budget in BUDGETS {
            let reference = {
                let _t = parallel::ScopedThreads::new(1);
                solve_portfolio(&p, budget)
            };
            for threads in [2usize, 8] {
                let _t = parallel::ScopedThreads::new(threads);
                let r = solve_portfolio(&p, budget);
                prop_assert_eq!(r.profit.to_bits(), reference.profit.to_bits(),
                    "{:?} at {} threads: profit diverged", budget, threads);
                prop_assert_eq!(r.packing.placement(), reference.packing.placement(),
                    "{:?} at {} threads: placement diverged", budget, threads);
                // Field by field: `PartialEq` on the certificate would miss
                // a sign flip of a zero gap.
                let (a, b) = (r.certificate, reference.certificate);
                prop_assert_eq!(a.upper_bound.to_bits(), b.upper_bound.to_bits(),
                    "{:?} at {} threads: bound diverged", budget, threads);
                prop_assert_eq!(a.gap.to_bits(), b.gap.to_bits(),
                    "{:?} at {} threads: gap diverged", budget, threads);
                prop_assert_eq!(a.proved_optimal, b.proved_optimal,
                    "{:?} at {} threads: certificate diverged", budget, threads);
                prop_assert_eq!(a.nodes, b.nodes,
                    "{:?} at {} threads: node count diverged", budget, threads);
            }
        }
    }

    /// Items that earn nothing change no answer: with zero-profit items
    /// inserted anywhere, every mode returns the same profit bits, places
    /// the original items in the same sacks, and certifies the same bound
    /// over the same node count. Every solver walks only the items that
    /// score, so the warm start, the search's order, its bounds and its
    /// split are those of the problem without them.
    #[test]
    fn zero_profit_items_change_no_answer((p, q, moved) in with_zero_profit_items()) {
        for budget in [BUDGETS.as_slice(), &[SolveBudget::NodeBudget(2000)]].concat() {
            let (a, b) = (solve_portfolio(&p, budget), solve_portfolio(&q, budget));
            prop_assert_eq!(a.profit.to_bits(), b.profit.to_bits(),
                "{:?}: profit moved", budget);
            for (i, &j) in moved.iter().enumerate() {
                prop_assert_eq!(a.packing.sack_of(i), b.packing.sack_of(j),
                    "{:?}: item {} moved", budget, i);
            }
            prop_assert_eq!(b.packing.packed_count(), a.packing.packed_count(),
                "{:?}: a zero-profit item was packed", budget);
            prop_assert_eq!(a.certificate.nodes, b.certificate.nodes,
                "{:?}: node count moved", budget);
            prop_assert_eq!(a.certificate.upper_bound.to_bits(),
                b.certificate.upper_bound.to_bits(), "{:?}: bound moved", budget);
            prop_assert_eq!(a.certificate.proved_optimal, b.certificate.proved_optimal,
                "{:?}: proof moved", budget);
        }
    }
}
