//! Production-size solver sweep: exact branch-and-bound vs the anytime
//! portfolio (`reproduce --exp bnb-solve-large`).
//!
//! The Theorem-1 solver study ([`crate::solvers`]) stops at paper scale
//! (≤25 items), where exact branch-and-bound is the clear oracle. This
//! sweep asks the production question instead: what happens at 40–1200
//! tasks and 5–120 processors, where exact search stops being an option?
//! For each instance size it times
//!
//! 1. the *exact probe* — serial [`BranchAndBound`] under a node cap,
//!    reporting whether the search actually completed (when the cap cut it
//!    short the profit is only an incumbent — the same on every host), and
//! 2. the *portfolio* — [`solve_portfolio`] in [`SolveBudget::Anytime`]
//!    mode, with its certified optimality gap and whether the certificate
//!    is exact.
//!
//! Everything runs under a serial thread cap — the portfolio result is
//! thread-invariant by construction (see `knapsack::portfolio`), so the
//! sweep measures node-count reduction, not parallel fan-out.

use crate::common::{best_of_ms, f3, pct, RunOpts, Table};
use knapsack::exact::{BranchAndBound, SolverOptions};
use knapsack::generator::{generate, GeneratorConfig};
use knapsack::portfolio::{solve_portfolio, SolveBudget};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::convert::Infallible;
use std::error::Error;
use std::hint::black_box;
use std::time::Instant;

/// Instance sizes (tasks × processors) the full sweep visits. The small
/// end overlaps the solver study's exact-tractable regime (so the sweep
/// contains at least one size where the exact probe completes and the
/// portfolio speedup is measured against a *proved* optimum); the large
/// end is production scale, far beyond what exact search finishes.
pub const SIZES: [(usize, usize); 5] = [(35, 4), (120, 12), (400, 40), (800, 80), (1200, 120)];

/// Sizes the `--quick` smoke run visits.
pub const QUICK_SIZES: [(usize, usize); 4] = [(35, 4), (120, 12), (400, 40), (1200, 120)];

/// Budget of one exact probe in the full sweep, in nodes × sacks: a node's
/// cost is linear in the sack count (≈ 12 ns per sack on the reference
/// host), so a probe over `m` sacks gets `EXACT_SACK_NODES / m` nodes —
/// about 20 s at every size. Generous enough that paper-scale instances
/// complete with slack, small enough that the production sizes (which
/// would run for days) cut off quickly. `--quick` takes a twentieth.
pub const EXACT_SACK_NODES: u64 = 1_600_000_000;

/// One instance size: the exact probe and the portfolio side by side.
#[derive(Debug, Clone, Serialize)]
pub struct PortfolioRow {
    /// Items (tasks).
    pub items: usize,
    /// Sacks (processors).
    pub sacks: usize,
    /// Whether the exact probe finished inside its node cap; when it did
    /// not, `exact_profit` is an incumbent, not an optimum.
    pub exact_completed: bool,
    /// Exact probe wall-clock, milliseconds (one run).
    pub exact_ms: f64,
    /// Exact probe profit.
    pub exact_profit: f64,
    /// Portfolio wall-clock, best of reps, milliseconds.
    pub portfolio_ms: f64,
    /// Portfolio profit.
    pub portfolio_profit: f64,
    /// The portfolio's certified optimality gap, as a fraction.
    pub gap: f64,
    /// Whether the portfolio's certificate is exact.
    pub proved_optimal: bool,
}

/// The sweep snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct PortfolioStudy {
    /// One row per instance size.
    pub rows: Vec<PortfolioRow>,
    /// Whether quick workloads were used.
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Rendered table.
    pub table: Table,
}

/// Runs the production-size sweep.
///
/// # Errors
///
/// Returns an error if a portfolio answer beats an optimum the exact
/// probe proved — a solver bug, reported instead of aborting the run.
pub fn run(opts: &RunOpts) -> Result<PortfolioStudy, Box<dyn Error>> {
    let sizes: &[(usize, usize)] = if opts.quick { &QUICK_SIZES } else { &SIZES };
    let sack_nodes = opts.pick(EXACT_SACK_NODES, EXACT_SACK_NODES / 20);
    let reps = opts.pick(3, 1);
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xB16);
    let mut table = Table::new(
        "Production-size solves — exact probe vs anytime portfolio",
        &["size", "exact (ms)", "exact", "portfolio (ms)", "speedup", "gap", "proved"],
    );
    let mut rows = Vec::new();
    let _serial = parallel::ScopedThreads::new(1);
    for &(n, m) in sizes {
        let problem = generate(
            GeneratorConfig { num_items: n, num_sacks: m, ..GeneratorConfig::default() },
            &mut rng,
        );

        // Exact probe: one serial run (best-of-reps would multiply the
        // cost for no information — the probe is deterministic).
        let solver =
            BranchAndBound::with_options(SolverOptions::new().node_limit(sack_nodes / m as u64));
        let t0 = Instant::now();
        let exact = black_box(solver.solve_reporting(&problem));
        let exact_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (portfolio_ms, r) = best_of_ms(reps, || {
            Ok::<_, Infallible>(black_box(solve_portfolio(&problem, SolveBudget::Anytime)))
        })?;
        if exact.completed && r.solution.profit > exact.solution.profit + 1e-9 {
            return Err(format!(
                "portfolio profit {} above the proved optimum {} at {n}x{m}",
                r.solution.profit, exact.solution.profit
            )
            .into());
        }
        let row = PortfolioRow {
            items: n,
            sacks: m,
            exact_completed: exact.completed,
            exact_ms,
            exact_profit: exact.solution.profit,
            portfolio_ms,
            portfolio_profit: r.solution.profit,
            gap: r.gap(),
            proved_optimal: r.proved_optimal,
        };
        table.push_row(vec![
            format!("{n}x{m}"),
            f3(exact_ms),
            if row.exact_completed { "completed" } else { "dnf" }.to_string(),
            f3(portfolio_ms),
            f3(exact_ms / portfolio_ms.max(1e-9)),
            pct(row.gap),
            row.proved_optimal.to_string(),
        ]);
        rows.push(row);
    }
    Ok(PortfolioStudy { rows, quick: opts.quick, seed: opts.seed, table })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_rows_carry_sound_certificates() {
        let study = run(&RunOpts { quick: true, ..Default::default() }).expect("sweep runs");
        assert_eq!(study.rows.len(), QUICK_SIZES.len());
        for row in &study.rows {
            if row.proved_optimal {
                assert_eq!(row.gap, 0.0, "proved row with a gap: {row:?}");
            }
            if row.exact_completed {
                assert!(row.portfolio_profit <= row.exact_profit + 1e-9, "{row:?}");
            }
        }
    }
}
