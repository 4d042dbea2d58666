//! Golden digests of whole branch-and-bound answers.
//!
//! Each constant below is an FNV-1a digest of one solve's `(profit bits,
//! placement, upper bound bits, proved optimal, nodes)`, generated on the
//! commit *before* the search's per-node bookkeeping was rewritten (the
//! linked live-suffix bound, the indexed sack scan and the presorted
//! surrogate views). A change to how a node is evaluated must keep them to
//! the bit: the node count pins the visited tree, the placement pins the
//! branching order, and the bound bits pin the certificate.
//!
//! The cases cover the portfolio in every budget mode, the serial solver
//! with and without a node limit, the parallel solver under a node limit,
//! seeded generator instances and a route-deflated mesh-shaped instance
//! whose subtrees run out of anytime budget. Every digest is asserted at 1,
//! 2 and 8 threads.
//!
//! Only an intended change to what a solve returns may regenerate these:
//! the test prints the rows on mismatch; paste them over `GOLDEN`.

use knapsack::exact::{BranchAndBound, SearchReport, SolverOptions};
use knapsack::generator::{generate, GeneratorConfig};
use knapsack::portfolio::{solve_portfolio, PortfolioSolution, SolveBudget};
use knapsack::problem::{Item, Problem, Sack};
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

/// `(profit bits, placement, upper bound bits, proved, nodes)`, with an
/// unpacked item as `u64::MAX` and a report without a bound as `u64::MAX`.
fn digest(
    profit: f64,
    placement: &[Option<usize>],
    upper_bound: Option<f64>,
    proved: bool,
    nodes: u64,
) -> u64 {
    let placement = placement.iter().map(|s| s.map_or(u64::MAX, |s| s as u64));
    fnv(std::iter::once(profit.to_bits()).chain(placement).chain([
        upper_bound.map_or(u64::MAX, f64::to_bits),
        u64::from(proved),
        nodes,
    ]))
}

fn portfolio_digest(r: &PortfolioSolution) -> u64 {
    digest(
        r.solution.profit,
        r.solution.packing.placement(),
        Some(r.upper_bound),
        r.proved_optimal,
        r.nodes,
    )
}

fn search_digest(r: &SearchReport) -> u64 {
    digest(r.solution.profit, r.solution.packing.placement(), None, r.completed, r.nodes)
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

enum Solve {
    Portfolio(SolveBudget),
    Search(SolverOptions),
}

fn run(problem: &Problem, solve: &Solve) -> u64 {
    match solve {
        Solve::Portfolio(budget) => portfolio_digest(&solve_portfolio(problem, *budget)),
        Solve::Search(options) => {
            search_digest(&BranchAndBound::with_options(*options).solve_reporting(problem))
        }
    }
}

/// One instance and the labelled solves run on it.
type Case = (&'static str, Problem, Vec<(&'static str, Solve)>);

fn cases() -> Vec<Case> {
    let every_budget = || {
        vec![
            ("exact", Solve::Portfolio(SolveBudget::Exact)),
            ("budget50", Solve::Portfolio(SolveBudget::NodeBudget(50))),
            ("budget2000", Solve::Portfolio(SolveBudget::NodeBudget(2000))),
            ("anytime", Solve::Portfolio(SolveBudget::Anytime)),
            ("serial", Solve::Search(SolverOptions::new())),
            ("serial_limit", Solve::Search(SolverOptions::new().node_limit(5_000))),
            ("parallel_limit", Solve::Search(SolverOptions::new().parallel(true).node_limit(300))),
        ]
    };
    let budgeted = || {
        vec![
            ("budget50", Solve::Portfolio(SolveBudget::NodeBudget(50))),
            ("budget2000", Solve::Portfolio(SolveBudget::NodeBudget(2000))),
            ("anytime", Solve::Portfolio(SolveBudget::Anytime)),
            ("serial_limit", Solve::Search(SolverOptions::new().node_limit(20_000))),
            ("parallel_limit", Solve::Search(SolverOptions::new().parallel(true).node_limit(300))),
        ]
    };
    vec![
        ("gen_12x3", generated(12, 3, 0x5EA2), every_budget()),
        ("gen_20x4", generated(20, 4, 0x5EA3), every_budget()),
        ("int_14x4", integer(14, 4, 0x5EA4), every_budget()),
        ("gen_40x6", generated(40, 6, 0x5EA5), budgeted()),
        ("gen_120x12", generated(120, 12, 0x5EA6), budgeted()),
        ("int_60x8", integer(60, 8, 0x5EA7), budgeted()),
        ("mesh_200x100", deflated_mesh(200, 100, 0x5EA8), budgeted()),
    ]
}

const GOLDEN: [(&str, u64); 41] = [
    ("gen_12x3/exact", 0xeef821c4160c22e3),
    ("gen_12x3/budget50", 0xe135a662891df161),
    ("gen_12x3/budget2000", 0x84eba0c74548d14c),
    ("gen_12x3/anytime", 0x84eba0c74548d14c),
    ("gen_12x3/serial", 0x4a4e8ca3c99ba98c),
    ("gen_12x3/serial_limit", 0x4a4e8ca3c99ba98c),
    ("gen_12x3/parallel_limit", 0xe86bd35ea15e06ed),
    ("gen_20x4/exact", 0x89cfa93467753dfa),
    ("gen_20x4/budget50", 0xb3d58151e8d905e9),
    ("gen_20x4/budget2000", 0x1be9ec91193279cd),
    ("gen_20x4/anytime", 0x1be9ec91193279cd),
    ("gen_20x4/serial", 0xa57342c283828cb2),
    ("gen_20x4/serial_limit", 0x82907cbb1263ade9),
    ("gen_20x4/parallel_limit", 0x5dec768a75ed1f2e),
    ("int_14x4/exact", 0x71611a9529924c1d),
    ("int_14x4/budget50", 0xf54975616a163271),
    ("int_14x4/budget2000", 0x60a6cee5dd2ff411),
    ("int_14x4/anytime", 0x60a6cee5dd2ff411),
    ("int_14x4/serial", 0x82a1466bc8c6a311),
    ("int_14x4/serial_limit", 0x28c18dbfe75285fc),
    ("int_14x4/parallel_limit", 0x128ad3493ba32ca9),
    ("gen_40x6/budget50", 0x68213471f00a3f4d),
    ("gen_40x6/budget2000", 0x5e99d01342abe5ba),
    ("gen_40x6/anytime", 0x5e99d01342abe5ba),
    ("gen_40x6/serial_limit", 0x234da84a84493d0a),
    ("gen_40x6/parallel_limit", 0x037b066f7cece20b),
    ("gen_120x12/budget50", 0x9962f2fc5fbf8c97),
    ("gen_120x12/budget2000", 0x2427920ab1e9398e),
    ("gen_120x12/anytime", 0x2427920ab1e9398e),
    ("gen_120x12/serial_limit", 0x20bae5b638d48612),
    ("gen_120x12/parallel_limit", 0x9d97099fb05af586),
    ("int_60x8/budget50", 0x7939ca151eb50fbc),
    ("int_60x8/budget2000", 0xda1434f96e9f78a1),
    ("int_60x8/anytime", 0xda1434f96e9f78a1),
    ("int_60x8/serial_limit", 0x1b071a5b07963bc6),
    ("int_60x8/parallel_limit", 0x49ae2e42fb65cf89),
    ("mesh_200x100/budget50", 0x1edee6535c55a785),
    ("mesh_200x100/budget2000", 0x774ea894e1453c52),
    ("mesh_200x100/anytime", 0x774ea894e1453c52),
    ("mesh_200x100/serial_limit", 0xd296f81bcc2056cc),
    ("mesh_200x100/parallel_limit", 0x29bb4375b0731ea2),
];

#[test]
fn search_answers_match_parent_digests() {
    let cases = cases();
    for threads in [1usize, 2, 8] {
        let _t = parallel::ScopedThreads::new(threads);
        let mut got: Vec<(String, u64)> = Vec::new();
        for (name, problem, solves) in &cases {
            for (label, solve) in solves {
                got.push((format!("{name}/{label}"), run(problem, solve)));
            }
        }
        let matches = got.len() == GOLDEN.len()
            && got.iter().zip(GOLDEN).all(|((n, d), (gn, gd))| n == gn && *d == gd);
        if !matches {
            for (name, d) in &got {
                println!("    (\"{name}\", {d:#018x}),");
            }
        }
        assert!(matches, "{threads} threads: search answers drifted from the parent digests");
    }
}
