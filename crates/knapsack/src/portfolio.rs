//! Anytime MCMK solver portfolio: greedy warm start → relaxation bound →
//! budgeted branch-and-bound, with an explicit optimality-gap certificate.
//!
//! The paper-scale TATIM instances (tens of tasks × ~10 processors) are
//! solved exactly; the mesh worlds push the reduction to thousands of tasks
//! × hundreds of knapsacks, where exhaustive branch-and-bound is not
//! viable. The portfolio makes the trade-off explicit instead of silent:
//!
//! 1. **Warm start** — density greedy plus local search
//!    ([`crate::greedy`]) produces a feasible incumbent: `O(N log N + N·M)`
//!    at worst for the greedy pass, which skips whole blocks of 64 sacks
//!    that cannot hold an item or beat its best sack so far, then per
//!    local-search round `O(N + M)` plus one indexed find-first query per
//!    unpacked item (costs and worst case at
//!    [`crate::greedy::local_search`]). Its profit seeds the
//!    branch-and-bound floor (and, in exhaustive mode, the shared atomic
//!    incumbent), so the search starts pruning against a realistic bar
//!    instead of rediscovering it.
//! 2. **Upper bound** — the surrogate relaxation
//!    ([`crate::bounds::surrogate_bound`]) certifies how far the incumbent
//!    can be from the optimum before any tree search runs, and certifies
//!    whole subtrees as hopeless at their roots during the search. Like
//!    every bound in [`crate::bounds`] it counts only items that fit the
//!    largest room a sack has left: an item larger than every sack can
//!    never be packed, so counting it only loosens the certificate. When
//!    budgets are tight enough that many items fit no sack (a uniform time
//!    budget equal to the mean task time leaves about half the tasks out)
//!    and the warm start packs all the rest, the bound equals the warm
//!    profit and proves it optimal before any search.
//! 3. **Budgeted search** — [`SolveBudget`] picks how much tree the solve
//!    is allowed: everything, an explicit per-subtree node budget, or the
//!    fixed [`ANYTIME_SUBTREE_NODE_BUDGET`].
//!
//! # Determinism contract
//!
//! Every mode is bit-identical across thread counts (1/2/8/…):
//!
//! * [`SolveBudget::Exact`] explores until exhaustion; the result is the
//!   first optimum achiever of a plain depth-first search from the root
//!   (warm start only tightens pruning — the floor and shared-bound prunes
//!   are strict, so tie paths survive; see [`crate::exact`]).
//! * [`SolveBudget::NodeBudget`] applies the budget per subtree with the
//!   shared bound disabled, so each subtree is a pure function of the
//!   instance; more budget can only improve the incumbent.
//! * [`SolveBudget::Anytime`] is `NodeBudget(ANYTIME_SUBTREE_NODE_BUDGET)`,
//!   except that when the warm start already meets the relaxation bound the
//!   tree search is skipped entirely and the warm packing is returned as
//!   proved optimal. (`Exact`/`NodeBudget` never take this shortcut: their
//!   returned *packing* is part of the contract, not just its profit.)
//!
//! The reported profit is [`Packing::profit`] of the returned packing,
//! whichever phase found it: the search's depth-first path sums only decide
//! which packing it returns. Two solves that return the same placement
//! report the same bits, and the portfolio picks between the warm start and
//! the search on those values.
//!
//! An exhaustive search returns the same packing whichever valid
//! bound prunes it: a prune only cuts subtrees that cannot beat the
//! incumbent. A tighter bound moves only the certificate (bound bits, node
//! count) and, under a node budget, which incumbent the budget reaches.

use crate::bounds::surrogate_bound;
use crate::exact::solve_with_floor;
use crate::greedy::greedy_with_local_search;
use crate::problem::{Packing, Problem};

/// How much search a [`solve_portfolio`] call may spend after the warm
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveBudget {
    /// Run branch-and-bound to exhaustion: the result is the proved optimum,
    /// the packing a plain depth-first search from the root finds first.
    Exact,
    /// Explore at most this many nodes *per top-level subtree* (the
    /// deterministic parallel split of [`crate::exact`]), then return the
    /// best incumbent with a gap certificate.
    NodeBudget(u64),
    /// Fixed small budget ([`ANYTIME_SUBTREE_NODE_BUDGET`]) aimed at
    /// production-size instances: warm start plus a short certificate-
    /// guided search, milliseconds-to-subseconds at thousands of items.
    Anytime,
}

/// Per-subtree node budget used by [`SolveBudget::Anytime`]. Sized so that
/// even a ~hundred-subtree split on a 1000-item instance stays well under a
/// second on one core, while still letting branch-and-bound repair the
/// greedy warm start's local mistakes near the top of the tree.
pub const ANYTIME_SUBTREE_NODE_BUDGET: u64 = 2_000;

/// Optimality certificate of a solve, so a node-capped incumbent is
/// distinguishable from a proved optimum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveCertificate {
    /// True when the result is proved optimal: the budgeted search ran to
    /// exhaustion, or the warm start already met the relaxation bound.
    pub proved_optimal: bool,
    /// Relative optimality gap: `(upper_bound − profit) / upper_bound`,
    /// floored at `0.0`, and exactly `0.0` when proved optimal. The true
    /// optimum is guaranteed within this fraction of the returned profit.
    pub gap: f64,
    /// Surrogate-relaxation upper bound on the optimum, clamped to at least
    /// the warm start's profit.
    pub upper_bound: f64,
    /// Branch-and-bound nodes explored. Deterministic in the budgeted
    /// modes; reported as `0` in [`SolveBudget::Exact`] because exhaustive
    /// shared-bound node counts depend on thread interleaving and would
    /// break the bit-identity contract.
    pub nodes: u64,
}

/// A packing, its value and its optimality certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct PortfolioSolution {
    /// Best packing found (never worse than the greedy warm start).
    pub packing: Packing,
    /// Its [`Packing::profit`].
    pub profit: f64,
    /// How far from optimal it can be.
    pub certificate: SolveCertificate,
}

impl PortfolioSolution {
    fn new(packing: Packing, profit: f64, upper_bound: f64, proved: bool, nodes: u64) -> Self {
        let gap = if proved {
            0.0
        } else {
            ((upper_bound - profit) / upper_bound.abs().max(1e-12)).max(0.0)
        };
        let certificate = SolveCertificate { proved_optimal: proved, gap, upper_bound, nodes };
        Self { packing, profit, certificate }
    }
}

/// Solves `problem` with the anytime portfolio under the given budget.
///
/// See the [module docs](self) for the phase breakdown and the determinism
/// contract. The result is always feasible, never worse than the greedy
/// warm start, and carries a sound gap certificate.
///
/// # Examples
///
/// ```
/// use knapsack::portfolio::{solve_portfolio, SolveBudget};
/// use knapsack::problem::{Item, Problem, Sack};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = Problem::new(
///     vec![Item::new(2.0, 1.0, 10.0)?, Item::new(2.0, 1.0, 7.0)?],
///     vec![Sack::new(2.0, 1.0)?],
/// )?;
/// let r = solve_portfolio(&p, SolveBudget::Exact);
/// assert_eq!(r.profit, 10.0);
/// assert!(r.certificate.proved_optimal);
/// assert_eq!(r.certificate.gap, 0.0);
/// # Ok(())
/// # }
/// ```
pub fn solve_portfolio(problem: &Problem, budget: SolveBudget) -> PortfolioSolution {
    let warm = greedy_with_local_search(problem);
    let warm_profit = warm.profit(problem);
    let raw_upper = surrogate_bound(problem);
    // A bound numerically below a feasible profit is float slack; clamping
    // keeps the certificate sound and the gap non-negative.
    let upper_bound = raw_upper.max(warm_profit);
    let proved_by_bound = raw_upper <= warm_profit + 1e-12;

    if problem.num_items() == 0 {
        return PortfolioSolution::new(warm, warm_profit, upper_bound, true, 0);
    }

    let node_limit = match budget {
        SolveBudget::Exact => None,
        SolveBudget::NodeBudget(n) => Some(n),
        SolveBudget::Anytime if proved_by_bound => {
            return PortfolioSolution::new(warm, warm_profit, upper_bound, true, 0);
        }
        SolveBudget::Anytime => Some(ANYTIME_SUBTREE_NODE_BUDGET),
    };

    let report = solve_with_floor(problem, node_limit, warm_profit);
    let search_profit = report.packing.profit(problem);
    // `>=` prefers the branch-and-bound packing on ties, so whenever the
    // search completes the returned packing is the plain DFS's first
    // optimum achiever — warm start or not.
    let (packing, profit) = if search_profit >= warm_profit {
        (report.packing, search_profit)
    } else {
        (warm, warm_profit)
    };
    let nodes = if matches!(budget, SolveBudget::Exact) { 0 } else { report.nodes };
    PortfolioSolution::new(packing, profit, upper_bound, proved_by_bound || report.completed, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::brute_force;
    use crate::problem::{Item, Sack};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn problem(items: Vec<(f64, f64, f64)>, sacks: Vec<(f64, f64)>) -> Problem {
        Problem::new(
            items.into_iter().map(|(w, v, p)| Item::new(w, v, p).unwrap()).collect(),
            sacks.into_iter().map(|(w, v)| Sack::new(w, v).unwrap()).collect(),
        )
        .unwrap()
    }

    fn random_integer_problem(rng: &mut StdRng, max_items: usize) -> Problem {
        let n = rng.gen_range(1..=max_items);
        let m = rng.gen_range(1..=4);
        let items: Vec<(f64, f64, f64)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0.0..5.0f64).round(),
                    rng.gen_range(0.0..5.0f64).round(),
                    rng.gen_range(0.0..10.0f64).round(),
                )
            })
            .collect();
        let sacks: Vec<(f64, f64)> = (0..m)
            .map(|_| (rng.gen_range(0.0..9.0f64).round(), rng.gen_range(0.0..9.0f64).round()))
            .collect();
        problem(items, sacks)
    }

    #[test]
    fn empty_problem_is_trivially_proved() {
        let p = problem(vec![], vec![(1.0, 1.0)]);
        for budget in [SolveBudget::Exact, SolveBudget::NodeBudget(1), SolveBudget::Anytime] {
            let r = solve_portfolio(&p, budget);
            assert_eq!(r.profit, 0.0);
            assert!(r.certificate.proved_optimal);
            assert_eq!(r.certificate.gap, 0.0);
        }
    }

    #[test]
    fn proved_optimal_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(77);
        for round in 0..40 {
            let p = random_integer_problem(&mut rng, 7);
            for budget in [SolveBudget::Exact, SolveBudget::Anytime] {
                let r = solve_portfolio(&p, budget);
                let bf = brute_force(&p).profit(&p);
                assert!(r.packing.is_feasible(&p));
                if r.certificate.proved_optimal {
                    assert!(
                        (r.profit - bf).abs() < 1e-9,
                        "round {round} {budget:?}: claimed optimal {} vs {bf}",
                        r.profit,
                    );
                }
            }
        }
    }

    #[test]
    fn gap_certificate_is_sound() {
        let mut rng = StdRng::seed_from_u64(909);
        for round in 0..40 {
            let p = random_integer_problem(&mut rng, 7);
            let r = solve_portfolio(&p, SolveBudget::NodeBudget(3));
            let bf = brute_force(&p).profit(&p);
            let SolveCertificate { gap, upper_bound, .. } = r.certificate;
            assert!(upper_bound + 1e-9 >= bf, "round {round}: bound below optimum");
            assert!(
                r.profit + gap * upper_bound + 1e-9 >= bf,
                "round {round}: gap certificate unsound"
            );
        }
    }
}
