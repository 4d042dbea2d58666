//! Production-size solver sweep: exact branch-and-bound vs the anytime
//! portfolio (`perfbench bnb_solve_large`).
//!
//! The Theorem-1 solver study ([`crate::solvers`]) stops at paper scale
//! (≤25 items), where exact branch-and-bound is the clear oracle. This
//! sweep asks the production question instead: what happens at 40–1200
//! tasks and 5–120 processors, where exact search stops being an option?
//! For each instance size it times
//!
//! 1. the *exact probe* — serial [`BranchAndBound`] under a node cap,
//!    reporting whether the search actually completed
//!    (`bnb_exact_{n}x{m}`, suffix `_dnf` when the cap cut it short and
//!    the profit is only an incumbent — the same on every host), and
//! 2. the *portfolio* — [`solve_portfolio`] in [`SolveBudget::Anytime`]
//!    mode, whose row name carries the certified optimality gap
//!    (`bnb_portfolio_{n}x{m}_gap{g}pct`, suffix `_proved` when the
//!    certificate is exact).
//!
//! [`crate::trend::TrendRow`] is a fixed shape (`bench`/`threads`/
//! `wall_ms`/`speedup`), so the completion flag and gap certificate are
//! encoded in the `bench` string; the portfolio row's `speedup` is
//! measured against the exact probe on the same instance. Everything runs
//! under a serial thread cap — the portfolio result is thread-invariant
//! by construction (see `knapsack::portfolio`), so the sweep measures
//! node-count reduction, not parallel fan-out.

use crate::common::RunOpts;
use crate::trend::TrendRow as Row;
use knapsack::exact::{BranchAndBound, SolverOptions};
use knapsack::generator::{generate, GeneratorConfig};
use knapsack::portfolio::{solve_portfolio, PortfolioSolution, SolveBudget};
use rand::rngs::StdRng;
use rand::SeedableRng;
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

/// Runs the production-size sweep, returning trend rows.
///
/// # Errors
///
/// Currently infallible in practice; boxed for interface uniformity.
pub fn bnb_solve_large(opts: &RunOpts) -> Result<Vec<Row>, Box<dyn Error>> {
    let sizes: &[(usize, usize)] = if opts.quick { &QUICK_SIZES } else { &SIZES };
    let sack_nodes = opts.pick(EXACT_SACK_NODES, EXACT_SACK_NODES / 20);
    let reps = opts.pick(3, 1);
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xB16);
    let mut rows = Vec::new();
    parallel::set_max_threads(1);
    for &(n, m) in sizes {
        let problem = generate(
            GeneratorConfig { num_items: n, num_sacks: m, ..GeneratorConfig::default() },
            &mut rng,
        );

        // Exact probe: one serial run (best-of-reps would multiply the
        // cost for no information — the probe is deterministic).
        let node_cap = sack_nodes / m as u64;
        let solver = BranchAndBound::with_options(SolverOptions::new().node_limit(node_cap));
        let t0 = Instant::now();
        let exact = black_box(solver.solve_reporting(&problem));
        let exact_ms = t0.elapsed().as_secs_f64() * 1e3;
        let exact_name = if exact.completed {
            format!("bnb_exact_{n}x{m}")
        } else {
            format!("bnb_exact_{n}x{m}_dnf")
        };
        rows.push(Row { bench: exact_name, threads: 1, wall_ms: exact_ms, speedup: 1.0 });

        // Portfolio: anytime mode, best-of-reps (cheap enough to repeat).
        let mut best_ms = f64::INFINITY;
        let mut portfolio: Option<PortfolioSolution> = None;
        for _ in 0..reps {
            let t1 = Instant::now();
            let r = black_box(solve_portfolio(&problem, SolveBudget::Anytime));
            best_ms = best_ms.min(t1.elapsed().as_secs_f64() * 1e3);
            portfolio = Some(r);
        }
        let r = portfolio.expect("at least one rep");
        let gap_pct = 100.0 * r.gap();
        let name = format!(
            "bnb_portfolio_{n}x{m}_gap{gap_pct:.2}pct{}",
            if r.proved_optimal { "_proved" } else { "" }
        );
        println!(
            "[bnb_solve_large {n}x{m}: exact {:.1} ms ({}), portfolio {:.3} ms, \
             gap {gap_pct:.2}%, profit {:.3} vs exact incumbent {:.3}]",
            exact_ms,
            if exact.completed { "completed" } else { "dnf" },
            best_ms,
            r.solution.profit,
            exact.solution.profit,
        );
        // The exact probe can only beat the portfolio's certified window
        // when it completes; when it did, sanity-check agreement.
        if exact.completed {
            assert!(
                r.solution.profit <= exact.solution.profit + 1e-9,
                "portfolio profit above proved optimum at {n}x{m}"
            );
        }
        rows.push(Row {
            bench: name,
            threads: 1,
            wall_ms: best_ms,
            speedup: exact_ms / best_ms.max(1e-9),
        });
    }
    parallel::set_max_threads(0);
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_produces_paired_rows_with_sound_certificates() {
        let rows =
            bnb_solve_large(&RunOpts { quick: true, ..Default::default() }).expect("sweep runs");
        assert_eq!(rows.len(), 2 * QUICK_SIZES.len());
        for pair in rows.chunks_exact(2) {
            assert!(pair[0].bench.starts_with("bnb_exact_"), "exact row first: {}", pair[0].bench);
            assert!(
                pair[1].bench.starts_with("bnb_portfolio_"),
                "portfolio row second: {}",
                pair[1].bench
            );
            assert!(pair[1].bench.contains("_gap"), "gap missing from {}", pair[1].bench);
            // A proved row must certify a zero gap.
            if pair[1].bench.ends_with("_proved") {
                assert!(pair[1].bench.contains("_gap0.00pct"), "{}", pair[1].bench);
            }
        }
    }
}
