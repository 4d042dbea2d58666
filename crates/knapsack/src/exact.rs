//! Exact MCMK search: the depth-first branch-and-bound behind
//! [`crate::portfolio::solve_portfolio`], plus a tiny brute-force enumerator
//! used as ground truth in tests.
//!
//! TATIM instances on the edge are small (tens of tasks, ~10 processors), so
//! exact solutions are attainable offline; the paper's point is that solving
//! them *repeatedly under varying importance* is too slow on-device, which is
//! what the data-driven allocators amortise. The exact solve
//! (`solve_portfolio(problem, SolveBudget::Exact)`) is the reference that
//! CRL/DCTA allocation quality is measured against.

use crate::bounds::{largest_room, LiveBounds, SuffixBounds};
use crate::first_hit::{FirstHit, Summary};
use crate::problem::{Packing, Problem};
use std::sync::atomic::{AtomicU64, Ordering};

/// Exhaustive search over all `(num_sacks + 1)^num_items` placements.
///
/// Only viable for very small instances; used to validate the
/// branch-and-bound. Runs in `O((M+1)^N)` and returns the first packing, in
/// enumeration order, of the highest [`Packing::profit`].
///
/// # Panics
///
/// Panics if `problem.num_items() > 16` — beyond that the enumeration is
/// unreasonable even for tests.
pub fn brute_force(problem: &Problem) -> Packing {
    assert!(problem.num_items() <= 16, "brute force limited to 16 items");
    let n = problem.num_items();
    let mut best = Packing::empty(n);
    let mut best_profit = 0.0;
    let mut current = Packing::empty(n);

    fn recurse(
        problem: &Problem,
        i: usize,
        current: &mut Packing,
        best: &mut Packing,
        best_profit: &mut f64,
    ) {
        let n = problem.num_items();
        if i == n {
            if current.is_feasible(problem) {
                let profit = current.profit(problem);
                if profit > *best_profit {
                    *best_profit = profit;
                    *best = current.clone();
                }
            }
            return;
        }
        current.assign(i, None);
        recurse(problem, i + 1, current, best, best_profit);
        for s in 0..problem.num_sacks() {
            current.assign(i, Some(s));
            recurse(problem, i + 1, current, best, best_profit);
        }
        current.assign(i, None);
    }

    recurse(problem, 0, &mut current, &mut best, &mut best_profit);
    best
}

/// Once at least this many open subtrees exist at the split depth, prefix
/// enumeration stops deepening. Thread-count *independent* so the subtree
/// partition — and with it the reduction order — is a pure function of the
/// problem.
const PAR_SUBTREE_TARGET: usize = 64;

/// Hard cap on the split depth: past this, enumeration itself would start
/// to dominate, and a tree still this thin is heavily pruned anyway.
const PAR_MAX_SPLIT_DEPTH: usize = 12;

/// Outcome of [`solve_with_floor`]: the incumbent plus an explicit
/// optimality signal, so a node-capped solve is distinguishable from a
/// proved optimum. The search's path sums stay inside it; the packing's
/// value is [`Packing::profit`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SearchReport {
    /// Best packing found: the first strict improvement in DFS order.
    pub(crate) packing: Packing,
    /// True when no node budget cut exploration short, so
    /// `packing` is proved optimal (over the region not excluded by a
    /// warm-start floor, which only ever excludes sub-incumbent packings).
    pub(crate) completed: bool,
    /// Explored node count. Deterministic under a node budget (shared-bound
    /// pruning disabled); for exhaustive runs the count depends on thread
    /// interleaving and is reported as observed.
    pub(crate) nodes: u64,
}

/// Item exploration order: decreasing profit per aggregate size, over the
/// items some sack can hold. Residuals only shrink, so an item no sack
/// holds empty can only ever take the skip child: leaving it out removes
/// one level of single-child nodes and changes no answer.
pub(crate) fn density_order(problem: &Problem) -> Vec<usize> {
    let total_w: f64 = problem.sacks().iter().map(|s| s.weight_capacity).sum::<f64>().max(1e-12);
    let total_v: f64 = problem.sacks().iter().map(|s| s.volume_capacity).sum::<f64>().max(1e-12);
    let sacks: Vec<Summary> = full_residual(problem).into_iter().map(Summary::room).collect();
    let mut order: Vec<usize> = (0..problem.num_items())
        .filter(|&i| sacks.iter().any(|sack| sack.fits(&problem.items()[i])))
        .collect();
    // Densities are never NaN and `+ 0.0` folds −0.0 into +0.0, so
    // `total_cmp` orders them as `partial_cmp` would; the sort is stable.
    order.sort_by(|&a, &b| {
        let da = problem.items()[a].density(total_w, total_v) + 0.0;
        let db = problem.items()[b].density(total_w, total_v) + 0.0;
        db.total_cmp(&da)
    });
    order
}

fn full_residual(problem: &Problem) -> Vec<(f64, f64)> {
    problem.sacks().iter().map(|s| (s.weight_capacity, s.volume_capacity)).collect()
}

struct Search<'a> {
    problem: &'a Problem,
    order: &'a [usize],
    /// The not-yet-branched suffix, linked for the per-node bound.
    live: LiveBounds<'a>,
    /// The sacks keyed by `residual`, for the branching scan.
    sacks: FirstHit,
    best: Packing,
    best_profit: f64,
    /// Warm-start incumbent profit: subtrees whose optimistic potential is
    /// strictly below this are pruned. `NEG_INFINITY` disables the floor.
    /// Strictness matters — a path tying the floor (hence possibly tying
    /// the optimum) is never cut, so the plain DFS's first optimum achiever
    /// survives and the returned packing is unchanged.
    floor: f64,
    residual: Vec<(f64, f64)>,
    current: Packing,
    nodes: u64,
    node_limit: Option<u64>,
    limit_hit: bool,
}

// ---------------------------------------------------------------------------
// Parallel subtree exploration.
//
// The plain depth-first search — `Search` from the root, with no split, no
// floor, no budget and no shared bound; a test oracle (`tests::plain_dfs`) —
// is a fixed-order DFS whose answer is its *first* strict-improvement
// optimum achiever. The exhaustive search reproduces that answer in three
// phases:
//
//  1. A serial *prefix enumeration* walks the identical DFS down to a
//     deterministic split depth, recording in DFS order both every
//     incumbent improvement it sees (`Slot::Candidate`) and every open
//     node at the split depth (`Slot::Subtree`). The split depth grows
//     until at least `PAR_SUBTREE_TARGET` subtrees exist, and is a pure
//     function of the problem — never of the thread count.
//  2. The subtrees run concurrently via `parallel::par_map_indexed`
//     (ordered assembly). Each continues the same DFS with a *local*
//     incumbent, publishing improvements into a shared `AtomicU64`
//     incumbent via `fetch_max` over the profit's bit pattern (valid
//     because non-negative IEEE-754 doubles order like their bits). The
//     shared bound prunes with a *strict* `<`: a path whose optimistic
//     potential ties the global optimum is never shared-pruned, so the
//     subtree containing the plain DFS's answer always reaches it, no
//     matter how the threads interleave. Local pruning keeps the plain
//     DFS's epsilon rule.
//  3. A serial reduction scans the slots in DFS order, keeping the first
//     strict improvement — i.e. the plain DFS's first achiever. The slot
//     order is the branching order (sack 0, 1, …, skip), so ties resolve
//     to the lexicographically-smallest branching sequence, exactly as in
//     the plain DFS.
//
// Racy sub-optimal subtrees (whose exploration was cut short by a shared
// bound published mid-flight) can only under-report — and only in subtrees
// whose true maximum is below the global optimum — so they can never win
// the reduction, and the returned packing is thread-count invariant.
// Caveat: like the plain DFS's epsilon prune, the argument assumes optima are
// separated by more than 1e-12; profits built from small integers (as in
// the TATIM reduction's scaled importances) satisfy this exactly.
// ---------------------------------------------------------------------------

/// One entry of the DFS-ordered work list produced by prefix enumeration.
enum Slot {
    /// An incumbent improvement observed *during* enumeration: a feasible
    /// packing and its profit, at its DFS position.
    Candidate { profit: f64, packing: Packing },
    /// An unexplored subtree rooted at the split depth.
    Subtree(SubtreeRoot),
}

/// Frozen DFS state at a subtree root.
struct SubtreeRoot {
    depth: usize,
    profit: f64,
    residual: Vec<(f64, f64)>,
    current: Packing,
}

struct PrefixEnum<'a> {
    problem: &'a Problem,
    order: &'a [usize],
    bounds: &'a SuffixBounds,
    split_depth: usize,
    floor: f64,
    residual: Vec<(f64, f64)>,
    current: Packing,
    enum_best: f64,
    slots: Vec<Slot>,
}

impl PrefixEnum<'_> {
    fn walk(&mut self, depth: usize, profit: f64) {
        if profit > self.enum_best {
            self.enum_best = profit;
            self.slots.push(Slot::Candidate { profit, packing: self.current.clone() });
        }
        if depth == self.order.len() {
            return;
        }
        // Same epsilon prune as the plain DFS, but against the running
        // enumeration incumbent — a lower bar than the plain DFS's global
        // incumbent at the same node, so this prunes a *subset* of what the
        // plain DFS prunes and can never cut off its answer.
        let agg_w: f64 = self.residual.iter().map(|r| r.0.max(0.0)).sum();
        let agg_v: f64 = self.residual.iter().map(|r| r.1.max(0.0)).sum();
        let room = largest_room(self.residual.iter().copied());
        let bound = self.bounds.bound(depth, agg_w, agg_v, room);
        if profit + bound <= self.enum_best + 1e-12 {
            return;
        }
        // Warm-start floor: strictly sub-incumbent prefixes need no slots.
        if profit + bound < self.floor {
            return;
        }
        if depth == self.split_depth {
            self.slots.push(Slot::Subtree(SubtreeRoot {
                depth,
                profit,
                residual: self.residual.clone(),
                current: self.current.clone(),
            }));
            return;
        }

        let item_idx = self.order[depth];
        let item = self.problem.items()[item_idx];
        let mut seen: Vec<(f64, f64)> = Vec::new();
        for s in 0..self.problem.num_sacks() {
            let (rw, rv) = self.residual[s];
            if item.weight > rw + 1e-12 || item.volume > rv + 1e-12 {
                continue;
            }
            if seen.iter().any(|&(w, v)| (w - rw).abs() < 1e-12 && (v - rv).abs() < 1e-12) {
                continue;
            }
            seen.push((rw, rv));
            self.residual[s] = (rw - item.weight, rv - item.volume);
            self.current.assign(item_idx, Some(s));
            self.walk(depth + 1, profit + item.profit);
            self.current.assign(item_idx, None);
            self.residual[s] = (rw, rv);
        }
        self.walk(depth + 1, profit);
    }
}

fn enumerate_prefix(
    problem: &Problem,
    order: &[usize],
    bounds: &SuffixBounds,
    split_depth: usize,
    floor: f64,
) -> (Vec<Slot>, f64) {
    let mut en = PrefixEnum {
        problem,
        order,
        bounds,
        split_depth,
        floor,
        residual: full_residual(problem),
        current: Packing::empty(problem.num_items()),
        enum_best: -1.0,
        slots: Vec::new(),
    };
    en.walk(0, 0.0);
    (en.slots, en.enum_best)
}

/// The branch-and-bound behind [`crate::portfolio::solve_portfolio`]:
/// parallel subtree search seeded with a warm-start incumbent `floor`, with
/// whole subtrees certified-and-skipped via the surrogate relaxation when
/// their optimistic maximum is strictly below the floor.
///
/// `node_limit`, when given, is a budget per subtree (shared bound off), so
/// the result is thread-count invariant in every mode. Without one the
/// returned packing is the plain DFS's first optimum achiever.
pub(crate) fn solve_with_floor(
    problem: &Problem,
    node_limit: Option<u64>,
    floor: f64,
) -> SearchReport {
    let n = problem.num_items();
    let order = density_order(problem);
    let bounds = SuffixBounds::new(problem, &order);
    // Deepen the split until enough independent subtrees exist. Each
    // candidate depth re-enumerates from scratch; the prefix region is tiny
    // relative to the full tree, so this costs a negligible serial prelude.
    let max_split = order.len().min(PAR_MAX_SPLIT_DEPTH);
    let mut split_depth = 1usize.min(max_split);
    let (mut slots, mut enum_best) = enumerate_prefix(problem, &order, &bounds, split_depth, floor);
    while split_depth < max_split
        && (1..PAR_SUBTREE_TARGET)
            .contains(&slots.iter().filter(|s| matches!(s, Slot::Subtree(_))).count())
    {
        split_depth += 1;
        (slots, enum_best) = enumerate_prefix(problem, &order, &bounds, split_depth, floor);
    }

    // A node budget makes each subtree's exploration depend on its pruning
    // history, so the shared bound must be off for the anytime result to
    // stay thread-count invariant; each subtree then is a pure function.
    // (Seeding with the warm floor is safe for the same reason the floor
    // prune is: the shared prune is strict.)
    let shared = if node_limit.is_none() {
        Some(AtomicU64::new(enum_best.max(0.0).max(floor).to_bits()))
    } else {
        None
    };

    let roots: Vec<&SubtreeRoot> = slots
        .iter()
        .filter_map(|s| match s {
            Slot::Subtree(root) => Some(root),
            Slot::Candidate { .. } => None,
        })
        .collect();
    // Grain 1: subtrees are few but expensive, the exact case the
    // serial-below-threshold default grain would mis-handle.
    let results: Vec<(f64, Packing, bool, u64)> = parallel::par_map_grained(&roots, 1, |root| {
        // A subtree whose surrogate-certified maximum is below the floor
        // can be discarded wholesale: it cannot contain anything the
        // portfolio would return. The test is a pure function of the root,
        // so the partition of skipped subtrees is thread-invariant.
        let agg_w: f64 = root.residual.iter().map(|r| r.0.max(0.0)).sum();
        let agg_v: f64 = root.residual.iter().map(|r| r.1.max(0.0)).sum();
        let room = largest_room(root.residual.iter().copied());
        if root.profit + bounds.surrogate(root.depth, agg_w, agg_v, room) < floor {
            return (f64::NEG_INFINITY, Packing::empty(n), true, 0);
        }
        let mut search = Search::new(problem, &order, &bounds, floor, node_limit, root);
        search.dfs_shared(root.depth, root.profit, shared.as_ref());
        (search.best_profit, search.best, !search.limit_hit, search.nodes)
    });

    // Serial reduction in DFS slot order over the path sums: first strict
    // improvement wins, reproducing the plain DFS's first optimum achiever.
    let mut best_profit = -1.0;
    let mut best = Packing::empty(n);
    let mut completed = true;
    let mut nodes = 0u64;
    let mut sub_results = results.into_iter();
    for slot in slots {
        let (profit, packing) = match slot {
            Slot::Candidate { profit, packing } => (profit, packing),
            Slot::Subtree(_) => {
                let (profit, packing, sub_completed, sub_nodes) =
                    sub_results.next().expect("one result per subtree");
                completed &= sub_completed;
                nodes += sub_nodes;
                (profit, packing)
            }
        };
        if profit > best_profit {
            best_profit = profit;
            best = packing;
        }
    }
    SearchReport { packing: best, completed, nodes }
}

impl<'a> Search<'a> {
    /// A search of the subtree below `root`: its live suffix linked from
    /// the root's depth, its sack index keyed by the root's residuals.
    fn new(
        problem: &'a Problem,
        order: &'a [usize],
        bounds: &'a SuffixBounds,
        floor: f64,
        node_limit: Option<u64>,
        root: &SubtreeRoot,
    ) -> Self {
        let mut sacks = FirstHit::new(problem.num_sacks());
        sacks.fill(root.residual.iter().copied().map(Summary::room));
        let room = sacks.root();
        Self {
            problem,
            order,
            live: LiveBounds::new(bounds, root.depth, (room.weight, room.volume)),
            sacks,
            best: Packing::empty(problem.num_items()),
            best_profit: -1.0,
            floor,
            residual: root.residual.clone(),
            current: root.current.clone(),
            nodes: 0,
            node_limit,
            limit_hit: false,
        }
    }

    /// The branch-and-bound DFS, with an optional shared incumbent:
    /// improvements are published with a monotone `fetch_max` over the
    /// profit bits, and subtrees are additionally pruned against the shared
    /// bound with a *strict* `<` so tie-potential paths survive (see the
    /// module notes on determinism). `shared = None` searches without one:
    /// a budgeted subtree, or the plain DFS.
    fn dfs_shared(&mut self, depth: usize, profit: f64, shared: Option<&AtomicU64>) {
        self.nodes += 1;
        if let Some(limit) = self.node_limit {
            if self.nodes > limit {
                self.limit_hit = true;
                return;
            }
        }
        if profit > self.best_profit {
            self.best_profit = profit;
            self.best.clone_from(&self.current);
            if let Some(shared) = shared {
                shared.fetch_max(profit.to_bits(), Ordering::Relaxed);
            }
        }
        if depth == self.order.len() {
            return;
        }

        // Prune: fractional bound on the remaining items that fit the
        // largest residual at the search's root over aggregate residual
        // capacity, walked over the live suffix (bit-identical to sorting
        // it — see `SuffixBounds` and `LiveBounds`).
        let agg_w: f64 = self.residual.iter().map(|r| r.0.max(0.0)).sum();
        let agg_v: f64 = self.residual.iter().map(|r| r.1.max(0.0)).sum();
        let bound = self.live.bound(agg_w, agg_v);
        let potential = profit + bound;
        if potential <= self.best_profit + 1e-12 {
            return;
        }
        if potential < self.floor {
            return;
        }
        if let Some(shared) = shared {
            if potential < f64::from_bits(shared.load(Ordering::Relaxed)) {
                return;
            }
        }

        let item_idx = self.order[depth];
        let item = self.problem.items()[item_idx];
        self.live.unlink(depth);
        // One child per sack the item fits, in sack order — the sack index
        // finds exactly the sacks a scan would — except residuals already
        // tried; then the skip child.
        let mut seen: Vec<(f64, f64)> = Vec::new();
        let mut next = self.sacks.first_from(0, |room| room.fits(&item));
        while let Some(s) = next {
            let (rw, rv) = self.residual[s];
            if !seen.iter().any(|&(w, v)| (w - rw).abs() < 1e-12 && (v - rv).abs() < 1e-12) {
                seen.push((rw, rv));
                self.set_residual(s, (rw - item.weight, rv - item.volume));
                self.current.assign(item_idx, Some(s));
                self.dfs_shared(depth + 1, profit + item.profit, shared);
                self.current.assign(item_idx, None);
                self.set_residual(s, (rw, rv));
            }
            next = self.sacks.first_from(s + 1, |room| room.fits(&item));
        }
        self.dfs_shared(depth + 1, profit, shared);
        self.live.relink(depth);
    }

    fn set_residual(&mut self, s: usize, residual: (f64, f64)) {
        self.residual[s] = residual;
        self.sacks.set(s, Summary::room(residual));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::{solve_portfolio, SolveBudget};
    use crate::problem::{Item, Sack};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn problem(items: Vec<(f64, f64, f64)>, sacks: Vec<(f64, f64)>) -> Problem {
        Problem::new(
            items.into_iter().map(|(w, v, p)| Item::new(w, v, p).unwrap()).collect(),
            sacks.into_iter().map(|(w, v)| Sack::new(w, v).unwrap()).collect(),
        )
        .unwrap()
    }

    /// The contract's reference: `Search` from the root, with no split, no
    /// floor, no budget and no shared bound. The exhaustive search must
    /// return its first optimum achiever.
    fn plain_dfs(problem: &Problem) -> Packing {
        let order = density_order(problem);
        let bounds = SuffixBounds::new(problem, &order);
        let root = SubtreeRoot {
            depth: 0,
            profit: 0.0,
            residual: full_residual(problem),
            current: Packing::empty(problem.num_items()),
        };
        let mut search = Search::new(problem, &order, &bounds, f64::NEG_INFINITY, None, &root);
        search.dfs_shared(0, 0.0, None);
        search.best
    }

    fn exact(problem: &Problem) -> Packing {
        solve_portfolio(problem, SolveBudget::Exact).packing
    }

    #[test]
    fn picks_higher_profit_when_capacity_binds() {
        let p = problem(vec![(2.0, 1.0, 10.0), (2.0, 1.0, 7.0)], vec![(2.0, 1.0)]);
        let s = exact(&p);
        assert_eq!(s.profit(&p), 10.0);
        assert!(s.is_feasible(&p));
        assert_eq!(s.sack_of(0), Some(0));
        assert_eq!(s.sack_of(1), None);
    }

    #[test]
    fn uses_both_sacks() {
        let p = problem(
            vec![(2.0, 1.0, 10.0), (2.0, 1.0, 7.0), (2.0, 1.0, 5.0)],
            vec![(2.0, 1.0), (2.0, 1.0)],
        );
        let s = exact(&p);
        assert_eq!(s.profit(&p), 17.0);
        assert_eq!(s.packed_count(), 2);
    }

    #[test]
    fn respects_volume_constraint() {
        // Weight is loose, volume binds.
        let p = problem(vec![(0.1, 2.0, 5.0), (0.1, 2.0, 4.0)], vec![(10.0, 2.0)]);
        assert_eq!(exact(&p).profit(&p), 5.0);
    }

    #[test]
    fn empty_items_is_zero() {
        let p = problem(vec![], vec![(1.0, 1.0)]);
        assert_eq!(exact(&p).packed_count(), 0);
        assert_eq!(plain_dfs(&p).packed_count(), 0);
    }

    #[test]
    fn nothing_fits_is_zero() {
        let p = problem(vec![(5.0, 5.0, 100.0)], vec![(1.0, 1.0)]);
        assert_eq!(exact(&p).packed_count(), 0);
        assert_eq!(plain_dfs(&p).packed_count(), 0);
    }

    #[test]
    fn knapsack_classic_instance() {
        // Classic single-sack 0-1 instance (volume unconstrained):
        // capacities 10; items (w,p): (5,10) (4,40) (6,30) (3,50); opt = 90.
        let p = problem(
            vec![(5.0, 0.0, 10.0), (4.0, 0.0, 40.0), (6.0, 0.0, 30.0), (3.0, 0.0, 50.0)],
            vec![(10.0, 0.0)],
        );
        assert_eq!(exact(&p).profit(&p), 90.0);
        assert_eq!(plain_dfs(&p).profit(&p), 90.0);
    }

    #[test]
    fn matches_brute_force_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(2024);
        for round in 0..60 {
            let n = rng.gen_range(1..=7);
            let m = rng.gen_range(1..=3);
            // Weights reach 11 against sacks up to 8: some items fit no
            // sack and leave the exploration order.
            let items: Vec<(f64, f64, f64)> = (0..n)
                .map(|_| {
                    (
                        rng.gen_range(0.0..11.0f64).round(),
                        rng.gen_range(0.0..5.0f64).round(),
                        rng.gen_range(0.0..10.0f64).round(),
                    )
                })
                .collect();
            let sacks: Vec<(f64, f64)> = (0..m)
                .map(|_| (rng.gen_range(0.0..8.0f64).round(), rng.gen_range(0.0..8.0f64).round()))
                .collect();
            let p = problem(items, sacks);
            let bf = brute_force(&p).profit(&p);
            for (name, s) in [("plain DFS", plain_dfs(&p)), ("exact", exact(&p))] {
                assert!(
                    (s.profit(&p) - bf).abs() < 1e-9,
                    "round {round}: {name} {} vs bf {bf} on {p:?}",
                    s.profit(&p),
                );
                assert!(s.is_feasible(&p));
            }
        }
    }

    #[test]
    fn node_limit_returns_feasible_incumbent() {
        let mut rng = StdRng::seed_from_u64(9);
        let items: Vec<(f64, f64, f64)> = (0..20)
            .map(|_| (rng.gen_range(1.0..5.0), rng.gen_range(1.0..5.0), rng.gen_range(1.0..10.0)))
            .collect();
        let p = problem(items, vec![(15.0, 15.0), (10.0, 10.0)]);
        let r = solve_with_floor(&p, Some(50), f64::NEG_INFINITY);
        assert!(r.packing.is_feasible(&p));
        assert!(plain_dfs(&p).profit(&p) >= r.packing.profit(&p));
    }

    /// Integer-valued MCMK instances: profit gaps are ≥ 1 ≫ the solver's
    /// 1e-12 epsilon, so the answers must agree to the bit.
    fn integer_problem() -> impl Strategy<Value = Problem> {
        let item = (0u8..5, 0u8..5, 0u8..10).prop_map(|(w, v, p)| {
            Item::new(f64::from(w), f64::from(v), f64::from(p)).expect("valid ranges")
        });
        let sack = (0u8..10, 0u8..10)
            .prop_map(|(w, v)| Sack::new(f64::from(w), f64::from(v)).expect("valid ranges"));
        (prop::collection::vec(item, 1..16), prop::collection::vec(sack, 1..5))
            .prop_map(|(items, sacks)| Problem::new(items, sacks).expect("sacks non-empty"))
    }

    /// Tests below flip the process-wide thread override; serialise them.
    static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The exhaustive portfolio returns the plain DFS's placement at 1,
        /// 2 and 8 threads, and that placement's profit bits: the split, the
        /// warm floor, the subtree skip and the shared bound only prune.
        #[test]
        fn exact_mode_matches_plain_dfs_packing(p in integer_problem()) {
            let _g = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            let reference = plain_dfs(&p);
            for threads in [1usize, 2, 8] {
                let _t = parallel::ScopedThreads::new(threads);
                let r = solve_portfolio(&p, SolveBudget::Exact);
                prop_assert!(r.certificate.proved_optimal, "threads {}", threads);
                prop_assert_eq!(r.packing.placement(), reference.placement(),
                    "threads {}: packing differs from the plain DFS's first achiever", threads);
                prop_assert_eq!(r.profit.to_bits(), reference.profit(&p).to_bits(),
                    "threads {}", threads);
            }
        }
    }
}
