//! Theorem-1 solver study: the TATIM ↔ MCMK reduction exercised across the
//! solver stack, reporting optimality gaps and solve times. This quantifies
//! the paper's motivation — the exact knapsack is too slow to re-solve
//! "repeatedly under varying contexts", which is what the data-driven
//! allocators amortise.

use crate::common::{pct, RunOpts, Table};
use knapsack::bounds::upper_bound;
use knapsack::generator::{generate, GeneratorConfig};
use knapsack::greedy::{greedy, greedy_with_local_search};
use knapsack::portfolio::{solve_portfolio, SolveBudget};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::error::Error;
use std::time::Instant;

/// One instance-size row of the solver study.
#[derive(Debug, Clone, Serialize)]
pub struct SolverRow {
    /// Items (tasks) in the instance.
    pub num_items: usize,
    /// Sacks (processors) in the instance.
    pub num_sacks: usize,
    /// Mean greedy/exact profit ratio.
    pub greedy_ratio: f64,
    /// Mean greedy+local-search/exact profit ratio.
    pub local_search_ratio: f64,
    /// Mean exact/upper-bound tightness.
    pub bound_tightness: f64,
    /// Mean greedy solve time, microseconds.
    pub greedy_us: f64,
    /// Mean exact solve time, microseconds.
    pub exact_us: f64,
}

/// Solver-study snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct Solvers {
    /// Per-size rows.
    pub rows: Vec<SolverRow>,
    /// Rendered table.
    pub table: Table,
}

/// Runs the solver study.
///
/// # Errors
///
/// Currently infallible in practice; boxed for interface uniformity.
pub fn run(opts: &RunOpts) -> Result<Solvers, Box<dyn Error>> {
    let sizes: Vec<(usize, usize)> =
        opts.pick(vec![(10, 3), (15, 5), (20, 9), (25, 9)], vec![(10, 3), (15, 5)]);
    let instances_per_size = opts.pick(8, 3);
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x501E);
    let mut rows = Vec::new();
    let mut table = Table::new(
        "Theorem 1 — MCMK solver stack (mean over random TATIM-shaped instances)",
        &["N x M", "greedy/opt", "greedy+LS/opt", "opt/bound", "greedy us", "exact us"],
    );
    for (n, m) in sizes {
        let mut g_ratio = 0.0;
        let mut ls_ratio = 0.0;
        let mut tightness = 0.0;
        let mut g_time = 0.0;
        let mut e_time = 0.0;
        for _ in 0..instances_per_size {
            let p = generate(
                GeneratorConfig { num_items: n, num_sacks: m, ..GeneratorConfig::default() },
                &mut rng,
            );
            let t0 = Instant::now();
            let g = greedy(&p);
            g_time += t0.elapsed().as_secs_f64() * 1e6;
            let ls = greedy_with_local_search(&p);
            let t1 = Instant::now();
            let e = solve_portfolio(&p, SolveBudget::Exact);
            e_time += t1.elapsed().as_secs_f64() * 1e6;
            let opt = e.profit.max(1e-12);
            g_ratio += g.profit(&p) / opt;
            ls_ratio += ls.profit(&p) / opt;
            tightness += opt / upper_bound(&p).max(1e-12);
        }
        let k = instances_per_size as f64;
        let row = SolverRow {
            num_items: n,
            num_sacks: m,
            greedy_ratio: g_ratio / k,
            local_search_ratio: ls_ratio / k,
            bound_tightness: tightness / k,
            greedy_us: g_time / k,
            exact_us: e_time / k,
        };
        table.push_row(vec![
            format!("{n} x {m}"),
            pct(row.greedy_ratio),
            pct(row.local_search_ratio),
            pct(row.bound_tightness),
            format!("{:.0}", row.greedy_us),
            format!("{:.0}", row.exact_us),
        ]);
        rows.push(row);
    }
    Ok(Solvers { rows, table })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heuristics_are_near_optimal() {
        let r = run(&RunOpts { quick: true, ..Default::default() }).unwrap();
        for row in &r.rows {
            assert!(row.greedy_ratio <= 1.0 + 1e-9);
            assert!(row.local_search_ratio + 1e-9 >= row.greedy_ratio);
            assert!(row.local_search_ratio > 0.8, "LS ratio {}", row.local_search_ratio);
            assert!(row.bound_tightness <= 1.0 + 1e-9);
        }
    }
}
