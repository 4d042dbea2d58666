//! Metamorphic relation: appending items no sack can hold changes nothing.
//!
//! An item heavier or bulkier than the largest sack fails the largest-room
//! test at every node, so the bounds skip it, the search's exploration
//! order leaves it out, the greedy skips it and local search never finds it
//! room. Appending such items to an instance must therefore leave every
//! solve as it was, to the bit: the profit, the placement of the original
//! items (the appended ones stay unpacked), the upper bound, the proof flag
//! and the node count. The relation is checked in every `SolveBudget` mode
//! and in `greedy_with_local_search`, at 1, 2 and 8 threads.

use knapsack::generator::{generate, GeneratorConfig};
use knapsack::greedy::greedy_with_local_search;
use knapsack::portfolio::{solve_portfolio, SolveBudget};
use knapsack::problem::{Item, Packing, Problem, Sack};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Everything a solve reports that the relation pins.
#[derive(Debug, PartialEq)]
struct Outcome {
    profit_bits: u64,
    placement: Vec<Option<usize>>,
    upper_bound_bits: Option<u64>,
    proved: Option<bool>,
    nodes: Option<u64>,
}

impl Outcome {
    fn of(problem: &Problem, packing: &Packing) -> Self {
        Self {
            profit_bits: packing.profit(problem).to_bits(),
            placement: packing.placement().to_vec(),
            upper_bound_bits: None,
            proved: None,
            nodes: None,
        }
    }
}

const BUDGETS: [SolveBudget; 5] = [
    SolveBudget::Exact,
    SolveBudget::NodeBudget(0),
    SolveBudget::NodeBudget(50),
    SolveBudget::NodeBudget(2_000),
    SolveBudget::Anytime,
];

/// Every solve the relation covers, labelled.
fn solves(problem: &Problem) -> Vec<(String, Outcome)> {
    let mut out = Vec::new();
    for budget in BUDGETS {
        let r = solve_portfolio(problem, budget);
        let outcome = Outcome {
            profit_bits: r.profit.to_bits(),
            upper_bound_bits: Some(r.certificate.upper_bound.to_bits()),
            proved: Some(r.certificate.proved_optimal),
            nodes: Some(r.certificate.nodes),
            ..Outcome::of(problem, &r.packing)
        };
        out.push((format!("{budget:?}"), outcome));
    }
    out.push((
        "greedy_with_local_search".to_string(),
        Outcome::of(problem, &greedy_with_local_search(problem)),
    ));
    out
}

/// `problem` with `count` items appended, each heavier or bulkier than the
/// largest sack (and possibly the other size anything), some with profits
/// far above any original item's.
fn with_unpackable(problem: &Problem, count: usize, rng: &mut StdRng) -> Problem {
    let max_w = problem.sacks().iter().map(|s| s.weight_capacity).fold(0.0, f64::max);
    let max_v = problem.sacks().iter().map(|s| s.volume_capacity).fold(0.0, f64::max);
    let mut items = problem.items().to_vec();
    for _ in 0..count {
        let over =
            |max: f64, rng: &mut StdRng| max * rng.gen_range(1.0..3.0) + rng.gen_range(1e-9..1.0);
        let (weight, volume) = match rng.gen_range(0..3) {
            0 => (over(max_w, rng), max_v * rng.gen_range(0.0..1.0)),
            1 => (max_w * rng.gen_range(0.0..1.0), over(max_v, rng)),
            _ => (over(max_w, rng), over(max_v, rng)),
        };
        let profit =
            if rng.gen_bool(0.5) { rng.gen_range(0.0..1.0) } else { rng.gen_range(1e3..1e6) };
        items.push(Item::new(weight, volume, profit).unwrap());
    }
    Problem::new(items, problem.sacks().to_vec()).unwrap()
}

/// Integer sizes and profits: ties in every sort, zero sizes and identical
/// sacks.
fn integer(rng: &mut StdRng) -> Problem {
    let n = rng.gen_range(0..15);
    let m = rng.gen_range(1..5);
    let items = (0..n)
        .map(|_| {
            let (w, v, p) = (rng.gen_range(0..6u8), rng.gen_range(0..6u8), rng.gen_range(0..10u8));
            Item::new(f64::from(w), f64::from(v), f64::from(p)).unwrap()
        })
        .collect();
    let sacks = (0..m)
        .map(|_| {
            Sack::new(f64::from(rng.gen_range(0..4u8) * 3), f64::from(rng.gen_range(1..9u8)))
                .unwrap()
        })
        .collect();
    Problem::new(items, sacks).unwrap()
}

/// The benchmark's `solve_scale` in small: one time budget, the mean task
/// time, for every sack, two unit-demand tasks per sack, so about half the
/// original tasks already fit no sack.
fn uniform_budget(rng: &mut StdRng) -> Problem {
    let n = 2 * rng.gen_range(10..30);
    let items: Vec<Item> = (0..n)
        .map(|_| {
            Item::new(rng.gen_range(2e5..4e6) * 4.75e-7, 1.0, rng.gen_range(0.0..1.0)).unwrap()
        })
        .collect();
    let budget = items.iter().map(|i| i.weight).sum::<f64>() / n as f64;
    Problem::new(items, vec![Sack::new(budget, 4.0).unwrap(); n / 2]).unwrap()
}

#[test]
fn appending_unpackable_items_changes_nothing() {
    let mut rng = StdRng::seed_from_u64(0x0E_5ACC);
    for round in 0..36 {
        let original = match round % 3 {
            0 => integer(&mut rng),
            1 => {
                let config = GeneratorConfig {
                    num_items: rng.gen_range(1..16),
                    num_sacks: rng.gen_range(1..5),
                    ..GeneratorConfig::default()
                };
                generate(config, &mut rng)
            }
            _ => uniform_budget(&mut rng),
        };
        let count = rng.gen_range(1..6);
        let grown = with_unpackable(&original, count, &mut rng);
        let n = original.num_items();
        for threads in [1usize, 2, 8] {
            let _t = parallel::ScopedThreads::new(threads);
            for ((label, before), (_, mut after)) in
                solves(&original).into_iter().zip(solves(&grown))
            {
                let what = format!("round {round}, {threads} threads, {label}");
                assert!(
                    after.placement[n..].iter().all(Option::is_none),
                    "{what}: packed an appended item"
                );
                after.placement.truncate(n);
                assert_eq!(after, before, "{what}");
            }
        }
    }
}
