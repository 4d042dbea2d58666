//! Golden digests of whole branch-and-bound answers and their certificates.
//!
//! Each solve is pinned by two FNV-1a digests: its *answer* — profit bits
//! and placement — and its *certificate* — upper bound bits, proof flag and
//! node count. The answer digests of the exhaustive `exact` solves were
//! generated before the search's per-node bookkeeping was
//! rewritten (the linked live-suffix bound, the indexed sack scan and the
//! presorted surrogate views), and kept when the bounds began to count only
//! items that fit the largest room: a valid bound changes which nodes an
//! exhaustive search visits, never what it returns. The certificate digests,
//! and the answers of budgeted solves, whose incumbents depend on the
//! visited tree, were regenerated with that rule. A change to how a node is
//! evaluated must keep all of them to the bit: the node count pins the
//! visited tree, the placement pins the branching order, and the bound bits
//! pin the certificate. An answer's profit is `Packing::profit` of its
//! placement, which every row asserts. Three budgeted answers
//! (`gen_40x6/budget50`, `gen_120x12/budget2000` and `/anytime`) were
//! regenerated when the search stopped reporting its depth-first path sum,
//! which differed from that value by 1 ulp; their placements did not move.
//!
//! The cases cover the portfolio in every budget mode on seeded generator
//! instances, a route-deflated mesh-shaped instance whose
//! subtrees run out of anytime budget, and a uniform-budget instance shaped
//! like the benchmark's `solve_scale`, whose anytime solve the bound alone
//! proves. Every digest is asserted at 1, 2 and 8 threads.
//!
//! Only an intended change to what a solve returns may regenerate these:
//! the test prints the rows on mismatch; paste them over `GOLDEN`.

use knapsack::generator::{generate, GeneratorConfig};
use knapsack::greedy::greedy_with_local_search;
use knapsack::portfolio::{solve_portfolio, SolveBudget, SolveCertificate};
use knapsack::problem::{Item, Packing, Problem, Sack};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in words {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(profit bits, placement)`, with an unpacked item as `u64::MAX`.
fn answer(profit: f64, packing: &Packing) -> u64 {
    let placement = packing.placement().iter().map(|s| s.map_or(u64::MAX, |s| s as u64));
    fnv(std::iter::once(profit.to_bits()).chain(placement))
}

/// `(upper bound bits, proved, nodes)`.
fn certificate(c: &SolveCertificate) -> u64 {
    fnv([c.upper_bound.to_bits(), u64::from(c.proved_optimal), c.nodes])
}

fn generated(num_items: usize, num_sacks: usize, seed: u64) -> Problem {
    let config = GeneratorConfig { num_items, num_sacks, ..GeneratorConfig::default() };
    generate(config, &mut StdRng::seed_from_u64(seed))
}

/// Integer sizes and profits: zero sizes, duplicate densities and identical
/// sacks, so ties in every sort and the sack de-duplication both fire.
fn integer(num_items: usize, num_sacks: usize, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let items = (0..num_items)
        .map(|_| {
            let w = rng.gen_range(0..5u8);
            let v = rng.gen_range(0..5u8);
            let p = rng.gen_range(0..10u8);
            Item::new(f64::from(w), f64::from(v), f64::from(p)).unwrap()
        })
        .collect();
    let sacks = (0..num_sacks)
        .map(|_| Sack::new(f64::from(rng.gen_range(0..4u8) * 3), 9.0).unwrap())
        .collect();
    Problem::new(items, sacks).unwrap()
}

/// `solve_scale`'s shape: two unit-demand tasks per sack and one time
/// budget, the mean task time, for every sack. Task sizes span 2e5–4e6
/// bits, so about half the tasks fit no sack.
fn uniform_budget(num_items: usize, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let items: Vec<Item> = (0..num_items)
        .map(|_| {
            Item::new(rng.gen_range(2e5..4e6) * 4.75e-7, 1.0, rng.gen_range(0.0..1.0)).unwrap()
        })
        .collect();
    let budget = items.iter().map(|i| i.weight).sum::<f64>() / num_items as f64;
    let sacks = vec![Sack::new(budget, 4.0).unwrap(); num_items / 2];
    Problem::new(items, sacks).unwrap()
}

/// A mesh round's shape (two unit-demand tasks per worker, half the fleet's
/// time needed) over route-deflated time budgets.
fn deflated_mesh(num_items: usize, num_sacks: usize, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let items: Vec<Item> = (0..num_items)
        .map(|_| {
            Item::new(rng.gen_range(2e5..4e6) * 4.75e-7, 1.0, rng.gen_range(0.0..1.0)).unwrap()
        })
        .collect();
    let budget = 0.5 * items.iter().map(|i| i.weight).sum::<f64>() / num_sacks as f64;
    let sacks = (0..num_sacks)
        .map(|_| {
            let factor: f64 = rng.gen_range(0.0..1.0);
            Sack::new(budget * factor * factor, 4.0).unwrap()
        })
        .collect();
    Problem::new(items, sacks).unwrap()
}

/// `(answer, certificate)` digests of one solve, whose reported profit
/// must be its packing's own.
fn run(problem: &Problem, budget: SolveBudget) -> (u64, u64) {
    let r = solve_portfolio(problem, budget);
    assert_eq!(r.profit.to_bits(), r.packing.profit(problem).to_bits(), "{budget:?}");
    (answer(r.profit, &r.packing), certificate(&r.certificate))
}

/// One instance and the labelled budgets it is solved under.
type Case = (&'static str, Problem, Vec<(&'static str, SolveBudget)>);

fn cases() -> Vec<Case> {
    let budgeted = || {
        vec![
            ("budget50", SolveBudget::NodeBudget(50)),
            ("budget2000", SolveBudget::NodeBudget(2000)),
            ("anytime", SolveBudget::Anytime),
        ]
    };
    let every_budget = || [vec![("exact", SolveBudget::Exact)], budgeted()].concat();
    vec![
        ("gen_12x3", generated(12, 3, 0x5EA2), every_budget()),
        ("gen_20x4", generated(20, 4, 0x5EA3), every_budget()),
        ("int_14x4", integer(14, 4, 0x5EA4), every_budget()),
        ("gen_40x6", generated(40, 6, 0x5EA5), budgeted()),
        ("gen_120x12", generated(120, 12, 0x5EA6), budgeted()),
        ("int_60x8", integer(60, 8, 0x5EA7), budgeted()),
        ("mesh_200x100", deflated_mesh(200, 100, 0x5EA8), budgeted()),
        ("uniform_200x100", uniform_budget(200, 0x5EA9), budgeted()),
    ]
}

const GOLDEN: [(&str, u64, u64); 27] = [
    ("gen_12x3/exact", 0x0a1c8b63c9c7df1f, 0x9f2f55e54f89286d),
    ("gen_12x3/budget50", 0x0a1c8b63c9c7df1f, 0x3399c6786c417279),
    ("gen_12x3/budget2000", 0x0a1c8b63c9c7df1f, 0x3399c6786c417279),
    ("gen_12x3/anytime", 0x0a1c8b63c9c7df1f, 0x3399c6786c417279),
    ("gen_20x4/exact", 0x48ca49cd9fb4100a, 0x47738c7cfa0c87b1),
    ("gen_20x4/budget50", 0x5ebf2f26147b8fe5, 0x568fac466cbec88b),
    ("gen_20x4/budget2000", 0x48ca49cd9fb4100a, 0xf371b9be52f4ab79),
    ("gen_20x4/anytime", 0x48ca49cd9fb4100a, 0xf371b9be52f4ab79),
    ("int_14x4/exact", 0x5831f48f3d8e006f, 0x19ffefc5500ef927),
    ("int_14x4/budget50", 0x5831f48f3d8e006f, 0x82378a6ce4c01117),
    ("int_14x4/budget2000", 0x5831f48f3d8e006f, 0xb5807ea6cd51efab),
    ("int_14x4/anytime", 0x5831f48f3d8e006f, 0xb5807ea6cd51efab),
    ("gen_40x6/budget50", 0x6499ade6f4d976ef, 0x37ba05b9d9fa84fc),
    ("gen_40x6/budget2000", 0x6c2c531bf43e07da, 0x66fab188dfbda469),
    ("gen_40x6/anytime", 0x6c2c531bf43e07da, 0x66fab188dfbda469),
    ("gen_120x12/budget50", 0x43d0047d1bb264bc, 0x3ddba358abb0f0a2),
    ("gen_120x12/budget2000", 0x4a560f8d8ff7b449, 0xa4ced6b5129b6443),
    ("gen_120x12/anytime", 0x4a560f8d8ff7b449, 0xa4ced6b5129b6443),
    ("int_60x8/budget50", 0x11c710cdb731f391, 0x1a067bc10eee3310),
    ("int_60x8/budget2000", 0x11c710cdb731f391, 0x5210000f143c311d),
    ("int_60x8/anytime", 0x11c710cdb731f391, 0x5210000f143c311d),
    ("mesh_200x100/budget50", 0xac553f4b2b800cdc, 0x702958d644788e00),
    ("mesh_200x100/budget2000", 0xac553f4b2b800cdc, 0x781f652d8cbf4ec0),
    ("mesh_200x100/anytime", 0xac553f4b2b800cdc, 0x781f652d8cbf4ec0),
    ("uniform_200x100/budget50", 0x9b730fe1a4588404, 0x81c1ed23d00d2a96),
    ("uniform_200x100/budget2000", 0x9b730fe1a4588404, 0x81c1ed23d00d2a96),
    ("uniform_200x100/anytime", 0x9b730fe1a4588404, 0x81c1ed23d00d2a96),
];

#[test]
fn search_answers_match_parent_digests() {
    let cases = cases();
    for threads in [1usize, 2, 8] {
        let _t = parallel::ScopedThreads::new(threads);
        let mut got: Vec<(String, u64, u64)> = Vec::new();
        for (name, problem, solves) in &cases {
            for (label, budget) in solves {
                let (answer, certificate) = run(problem, *budget);
                got.push((format!("{name}/{label}"), answer, certificate));
            }
        }
        let matches = got.len() == GOLDEN.len()
            && got
                .iter()
                .zip(GOLDEN)
                .all(|((n, a, c), (gn, ga, gc))| n == gn && *a == ga && *c == gc);
        if !matches {
            for (name, a, c) in &got {
                println!("    (\"{name}\", {a:#018x}, {c:#018x}),");
            }
        }
        assert!(matches, "{threads} threads: search answers drifted from the golden digests");
    }
}

/// The uniform-budget case is the benchmark's `solve_scale` in small: the
/// warm start packs every task some sack holds, and the bound, counting
/// only those, proves it optimal before any search.
#[test]
fn uniform_budget_anytime_is_proved_without_search() {
    let problem = uniform_budget(200, 0x5EA9);
    let budget = problem.sacks()[0].weight_capacity;
    let unpackable = problem.items().iter().filter(|i| i.weight > budget).count();
    assert!(unpackable > 60, "only {unpackable} of 200 tasks exceed the budget");
    for threads in [1usize, 2, 8] {
        let _t = parallel::ScopedThreads::new(threads);
        let r = solve_portfolio(&problem, SolveBudget::Anytime);
        assert!(r.certificate.proved_optimal, "{threads} threads: gap {}", r.certificate.gap);
        assert_eq!(r.certificate.nodes, 0, "{threads} threads");
        assert_eq!(r.packing, greedy_with_local_search(&problem), "{threads} threads");
    }
}
