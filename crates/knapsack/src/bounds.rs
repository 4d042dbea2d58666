//! Upper bounds on MCMK optima, used for branch-and-bound pruning and as
//! optimality certificates in tests and the anytime portfolio
//! ([`crate::portfolio`]).
//!
//! Every bound here counts an item only if it fits the *largest room*: the
//! largest weight and the largest volume any sack has left, taken
//! dimension by dimension (`w ≤ max_s r_w + 1e-12 ∧ v ≤ max_s r_v + 1e-12`,
//! the branching test applied to the maxima). A packed item fits its own
//! sack, so it fits the largest room; an item that does not can only be
//! left out, and leaving it out of the relaxation keeps the bound valid.
//! Residuals only shrink along a depth-first path, so an item that fails
//! the test at a node fails it everywhere below. Each bound takes the room
//! as an argument next to the aggregate capacities; the whole-instance
//! bounds take it from the sack capacities.

use crate::first_hit::Summary;
use crate::problem::{Item, Problem};
use std::cmp::Ordering;

/// Decreasing profit density of two `(size, profit)` pairs, a size of at
/// most `1e-15` counting as `+∞`. Every density sort in this module uses
/// this one comparator, which is what lets a sorted view stand in for the
/// sort of any subset of it (see [`SuffixBounds`]).
///
/// `Item::new` rejects non-finite and negative values, so a density is
/// finite or +∞, never NaN; `+ 0.0` folds −0.0 into +0.0, so `total_cmp`
/// orders densities as `partial_cmp` would.
fn by_density(a: (f64, f64), b: (f64, f64)) -> Ordering {
    let density =
        |(size, profit): (f64, f64)| if size <= 1e-15 { f64::INFINITY } else { profit / size };
    (density(b) + 0.0).total_cmp(&(density(a) + 0.0))
}

/// The largest room among residual `(weight, volume)` pairs, dimension by
/// dimension: what the root of a [`crate::first_hit::FirstHit`] over them
/// holds. No pairs give `(−∞, −∞)`, a room nothing fits.
pub(crate) fn largest_room(residuals: impl IntoIterator<Item = (f64, f64)>) -> (f64, f64) {
    residuals
        .into_iter()
        .fold((f64::NEG_INFINITY, f64::NEG_INFINITY), |(w, v), (rw, rv)| (w.max(rw), v.max(rv)))
}

/// The largest room the sacks of `problem` offer before anything is packed.
fn sack_room(problem: &Problem) -> (f64, f64) {
    largest_room(problem.sacks().iter().map(|s| (s.weight_capacity, s.volume_capacity)))
}

/// Fractional knapsack fill of `(size, profit)` pairs, taken in the given
/// order, into `capacity`: whole items while they fit, then the fitting
/// fraction of the first that does not. Zero-size items always count fully.
fn fill(sorted: impl IntoIterator<Item = (f64, f64)>, capacity: f64) -> f64 {
    let mut remaining = capacity;
    let mut bound = 0.0;
    for (size, profit) in sorted {
        if size <= 1e-15 {
            bound += profit;
        } else if size <= remaining {
            remaining -= size;
            bound += profit;
        } else {
            bound += profit * (remaining / size);
            break;
        }
    }
    bound
}

/// Fractional single-constraint bound: relax to one aggregate knapsack on
/// the given `capacity`, allowing fractional items, in density order.
fn fractional_bound(
    items: &[(f64, f64)], // (size, profit)
    capacity: f64,
) -> f64 {
    let mut sorted: Vec<(f64, f64)> = items.to_vec();
    sorted.sort_by(|&a, &b| by_density(a, b));
    fill(sorted, capacity)
}

/// The items of `indices` that fit `room`, in the order given.
fn fitting<'a>(problem: &'a Problem, indices: &[usize], room: (f64, f64)) -> Vec<&'a Item> {
    let room = Summary::room(room);
    indices.iter().map(|&i| &problem.items()[i]).filter(|item| room.fits(item)).collect()
}

/// A valid upper bound on the optimal MCMK profit.
///
/// Every feasible packing satisfies, in aggregate, `Σ packed weights ≤
/// Σ weight capacities` and `Σ packed volumes ≤ Σ volume capacities`, and
/// packs only items that fit the largest sack (see the [module docs](self));
/// hence each single-constraint fractional relaxation over those items
/// bounds the optimum, and so does their minimum.
pub fn upper_bound(problem: &Problem) -> f64 {
    let total_w: f64 = problem.sacks().iter().map(|s| s.weight_capacity).sum();
    let total_v: f64 = problem.sacks().iter().map(|s| s.volume_capacity).sum();
    let all: Vec<usize> = (0..problem.num_items()).collect();
    upper_bound_subset(problem, &all, total_w, total_v, sack_room(problem))
}

/// Same bound restricted to the item subset `indices`, explicit aggregate
/// residual capacities and the largest residual `room` — the form
/// branch-and-bound needs mid-search.
pub fn upper_bound_subset(
    problem: &Problem,
    indices: &[usize],
    aggregate_weight: f64,
    aggregate_volume: f64,
    room: (f64, f64),
) -> f64 {
    let items = fitting(problem, indices, room);
    let w_items: Vec<(f64, f64)> = items.iter().map(|item| (item.weight, item.profit)).collect();
    let v_items: Vec<(f64, f64)> = items.iter().map(|item| (item.volume, item.profit)).collect();
    let wb = fractional_bound(&w_items, aggregate_weight.max(0.0));
    let vb = fractional_bound(&v_items, aggregate_volume.max(0.0));
    wb.min(vb)
}

/// Interior surrogate multipliers tried by [`surrogate_bound_subset`] on top
/// of the two pure-dimension endpoints evaluated by [`upper_bound_subset`].
/// A fixed grid keeps the bound a pure function of the instance (no search
/// state), which the portfolio's determinism contract relies on.
const SURROGATE_THETAS: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 0.9];

/// Surrogate-relaxation upper bound over the whole instance: the tightest of
/// [`upper_bound`] and the fractional bounds of the combined constraints
/// `Σ (θ·w + (1−θ)·v) x ≤ θ·W + (1−θ)·V` for each `θ` in a fixed grid.
///
/// Validity: every feasible packing satisfies both aggregate constraints, so
/// it satisfies any convex combination of them; the fractional optimum of
/// that single combined knapsack therefore bounds the MCMK optimum, and so
/// does the minimum over `θ`. This is the surrogate dual of the aggregate
/// relaxation (equivalently, a Lagrangian bound on the aggregated pair),
/// and is never looser than [`upper_bound`] because the endpoints are
/// included. Like every bound here it counts only the items that fit the
/// largest sack.
pub fn surrogate_bound(problem: &Problem) -> f64 {
    let total_w: f64 = problem.sacks().iter().map(|s| s.weight_capacity).sum();
    let total_v: f64 = problem.sacks().iter().map(|s| s.volume_capacity).sum();
    let all: Vec<usize> = (0..problem.num_items()).collect();
    surrogate_bound_subset(problem, &all, total_w, total_v, sack_room(problem))
}

/// [`surrogate_bound`] restricted to the item subset `indices` under explicit
/// aggregate residual capacities and the largest residual `room` — the
/// bound that certifies whole branch-and-bound subtrees against a
/// warm-start incumbent, which the search computes without sorting through
/// [`SuffixBounds::surrogate`].
pub fn surrogate_bound_subset(
    problem: &Problem,
    indices: &[usize],
    aggregate_weight: f64,
    aggregate_volume: f64,
    room: (f64, f64),
) -> f64 {
    let mut best = upper_bound_subset(problem, indices, aggregate_weight, aggregate_volume, room);
    let w = aggregate_weight.max(0.0);
    let v = aggregate_volume.max(0.0);
    let items = fitting(problem, indices, room);
    for theta in SURROGATE_THETAS {
        let combined: Vec<(f64, f64)> = items
            .iter()
            .map(|item| (theta * item.weight + (1.0 - theta) * item.volume, item.profit))
            .collect();
        best = best.min(fractional_bound(&combined, theta * w + (1.0 - theta) * v));
    }
    best
}

/// Density-sorted views for branch-and-bound over a fixed exploration
/// `order`: one per dimension, and one combined size per surrogate
/// multiplier.
///
/// The search bounds the not-yet-branched suffix `order[depth..]`. Every
/// view is sorted once, stably, with the one density comparator; the
/// density sort of any subset of the suffix — the items that fit a room —
/// is then this view filtered to those positions, because a stable sort
/// commutes with taking subsequences under the same comparator. A query
/// walks a view in that order, so it visits the suffix's fitting items in
/// exactly the sequence [`upper_bound_subset`] and
/// [`surrogate_bound_subset`] sort them into and accumulates the same
/// floats: [`SuffixBounds::bound`] and [`SuffixBounds::surrogate`] are
/// bit-identical to them. Inside one search, `LiveBounds` walks the weight
/// and volume views over linked live entries instead of skipping decided
/// ones.
pub struct SuffixBounds {
    /// Weight, then volume.
    dims: [View; 2],
    /// One combined-size view per entry of [`SURROGATE_THETAS`].
    thetas: [View; SURROGATE_THETAS.len()],
    /// The items in exploration order, for the room test.
    items: Vec<Item>,
    /// The largest weight and the largest volume among `items`: a room that
    /// holds these holds every item, with no per-item test.
    largest: Item,
}

/// One density-sorted view of the exploration order.
struct View {
    /// Entries in decreasing density, ties in exploration order.
    sorted: Vec<DimEntry>,
    /// `rank[pos]`: the index in `sorted` of exploration position `pos`.
    rank: Vec<u32>,
}

#[derive(Clone, Copy)]
struct DimEntry {
    /// Position of the item in the exploration order.
    pos: u32,
    size: f64,
    profit: f64,
}

impl View {
    fn new(items: &[Item], size: impl Fn(&Item) -> f64) -> Self {
        let mut sorted: Vec<DimEntry> = items
            .iter()
            .enumerate()
            .map(|(pos, item)| DimEntry { pos: pos as u32, size: size(item), profit: item.profit })
            .collect();
        sorted.sort_by(|a, b| by_density((a.size, a.profit), (b.size, b.profit)));
        let mut rank = vec![0; sorted.len()];
        for (k, e) in sorted.iter().enumerate() {
            rank[e.pos as usize] = k as u32;
        }
        Self { sorted, rank }
    }

    /// The fractional fill of the positions `counts` admits into `capacity`.
    fn fill(&self, capacity: f64, counts: impl Fn(usize) -> bool) -> f64 {
        let live = self.sorted.iter().filter(|e| counts(e.pos as usize));
        fill(live.map(|e| (e.size, e.profit)), capacity)
    }
}

impl SuffixBounds {
    /// Sorts the views of `problem` over the fixed exploration `order`.
    pub fn new(problem: &Problem, order: &[usize]) -> Self {
        let items: Vec<Item> = order.iter().map(|&i| problem.items()[i]).collect();
        Self {
            dims: [View::new(&items, |item| item.weight), View::new(&items, |item| item.volume)],
            thetas: SURROGATE_THETAS.map(|theta| {
                View::new(&items, |item| theta * item.weight + (1.0 - theta) * item.volume)
            }),
            largest: items.iter().fold(Item { weight: 0.0, volume: 0.0, profit: 0.0 }, |m, i| {
                Item { weight: m.weight.max(i.weight), volume: m.volume.max(i.volume), ..m }
            }),
            items,
        }
    }

    /// Whether exploration position `pos` is at or past `depth` and its item
    /// fits `room`.
    fn counts(&self, depth: usize, room: (f64, f64)) -> impl Fn(usize) -> bool + '_ {
        let room = Summary::room(room);
        let all_fit = room.fits(&self.largest);
        move |pos| pos >= depth && (all_fit || room.fits(&self.items[pos]))
    }

    /// Upper bound on the profit attainable from the suffix `order[depth..]`
    /// under the given aggregate residual capacities and largest residual
    /// `room`. Bit-identical to
    /// `upper_bound_subset(problem, &order[depth..], agg_w, agg_v, room)`.
    pub fn bound(
        &self,
        depth: usize,
        aggregate_weight: f64,
        aggregate_volume: f64,
        room: (f64, f64),
    ) -> f64 {
        let [w, v] = &self.dims;
        let wb = w.fill(aggregate_weight.max(0.0), self.counts(depth, room));
        let vb = v.fill(aggregate_volume.max(0.0), self.counts(depth, room));
        wb.min(vb)
    }

    /// Surrogate upper bound on the suffix `order[depth..]`. Bit-identical
    /// to `surrogate_bound_subset(problem, &order[depth..], agg_w, agg_v,
    /// room)`.
    pub fn surrogate(
        &self,
        depth: usize,
        aggregate_weight: f64,
        aggregate_volume: f64,
        room: (f64, f64),
    ) -> f64 {
        let mut best = self.bound(depth, aggregate_weight, aggregate_volume, room);
        let w = aggregate_weight.max(0.0);
        let v = aggregate_volume.max(0.0);
        for (theta, view) in SURROGATE_THETAS.into_iter().zip(&self.thetas) {
            best = best.min(view.fill(theta * w + (1.0 - theta) * v, self.counts(depth, room)));
        }
        best
    }
}

/// The live suffix of one depth-first search: the weight and volume views
/// of a [`SuffixBounds`] with only the not-yet-branched positions whose
/// items fit the room at the search's root linked.
///
/// The room is fixed when the search starts. Residuals only shrink below
/// the root, so a node's own room is never larger and the bound stays valid
/// with the root's: an item that fails the root's room can be packed
/// nowhere below it. Re-reading the room at every node would be tighter,
/// but the walk would then have to pass the entries that fail it instead of
/// ending at the first that overflows, which costs more per node than it
/// saves in nodes (DESIGN.md §15.1).
///
/// Dancing links: the search unlinks position `d` before it explores the
/// children of a depth-`d` node and relinks it after the last child, so the
/// calls nest last-in first-out and each relink finds the neighbours its
/// unlink left. Unlinking keeps the others in sorted order, so
/// [`LiveBounds::bound`] walks the entries [`SuffixBounds::bound`] keeps, in
/// its order, without visiting the ones it skips: the same float
/// operations, over a walk whose length does not grow with the depth.
pub(crate) struct LiveBounds<'a> {
    bounds: &'a SuffixBounds,
    /// Per dimension.
    links: [Links; 2],
    /// `linked[pos]`: position `pos` was linked when the search started.
    linked: Vec<bool>,
}

/// Doubly linked list over one view's sorted indices; index `len` is the
/// head.
struct Links {
    next: Vec<u32>,
    prev: Vec<u32>,
}

impl<'a> LiveBounds<'a> {
    /// Links the positions `≥ depth` whose items fit `room`: the live
    /// suffix of a search rooted at `depth` whose largest residual is
    /// `room`.
    pub(crate) fn new(bounds: &'a SuffixBounds, depth: usize, room: (f64, f64)) -> Self {
        let counts = bounds.counts(depth, room);
        let linked: Vec<bool> = (0..bounds.items.len()).map(counts).collect();
        let links = bounds.dims.each_ref().map(|view| {
            let head = view.sorted.len();
            let mut next = vec![head as u32; head + 1];
            let mut prev = vec![head as u32; head + 1];
            let mut last = head;
            for (k, e) in view.sorted.iter().enumerate() {
                if linked[e.pos as usize] {
                    next[last] = k as u32;
                    prev[k] = last as u32;
                    last = k;
                }
            }
            next[last] = head as u32;
            prev[head] = last as u32;
            Links { next, prev }
        });
        Self { bounds, links, linked }
    }

    /// Takes position `pos` out of the live suffix.
    pub(crate) fn unlink(&mut self, pos: usize) {
        if !self.linked[pos] {
            return;
        }
        for (view, links) in self.bounds.dims.iter().zip(&mut self.links) {
            let k = view.rank[pos] as usize;
            let (prev, next) = (links.prev[k], links.next[k]);
            links.next[prev as usize] = next;
            links.prev[next as usize] = prev;
        }
    }

    /// Puts `pos`, the position most recently unlinked, back in place.
    pub(crate) fn relink(&mut self, pos: usize) {
        if !self.linked[pos] {
            return;
        }
        for (view, links) in self.bounds.dims.iter().zip(&mut self.links) {
            let k = view.rank[pos];
            links.next[links.prev[k as usize] as usize] = k;
            links.prev[links.next[k as usize] as usize] = k;
        }
    }

    /// [`SuffixBounds::bound`] at the depth whose suffix is linked and the
    /// room the links were built with, to the bit.
    pub(crate) fn bound(&self, aggregate_weight: f64, aggregate_volume: f64) -> f64 {
        let [w, v] = &self.bounds.dims;
        let [lw, lv] = &self.links;
        let wb = fill(linked(w, lw), aggregate_weight.max(0.0));
        let vb = fill(linked(v, lv), aggregate_volume.max(0.0));
        wb.min(vb)
    }
}

/// The linked entries of `view`, in sorted order, as `(size, profit)`.
fn linked<'a>(view: &'a View, links: &'a Links) -> impl Iterator<Item = (f64, f64)> + 'a {
    let head = view.sorted.len();
    let mut k = links.next[head] as usize;
    std::iter::from_fn(move || {
        (k != head).then(|| {
            let e = view.sorted[k];
            k = links.next[k] as usize;
            (e.size, e.profit)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Sack;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn problem(items: Vec<(f64, f64, f64)>, sacks: Vec<(f64, f64)>) -> Problem {
        Problem::new(
            items.into_iter().map(|(w, v, p)| Item::new(w, v, p).unwrap()).collect(),
            sacks.into_iter().map(|(w, v)| Sack::new(w, v).unwrap()).collect(),
        )
        .unwrap()
    }

    #[test]
    fn bound_at_least_any_feasible_packing() {
        // Pack item 0 alone: profit 10. Bound must be >= 10.
        let p = problem(vec![(2.0, 1.0, 10.0), (3.0, 2.0, 5.0)], vec![(4.0, 2.0)]);
        assert!(upper_bound(&p) >= 10.0);
    }

    #[test]
    fn bound_no_more_than_total_profit() {
        let p = problem(vec![(1.0, 1.0, 3.0), (1.0, 1.0, 4.0)], vec![(100.0, 100.0)]);
        assert_eq!(upper_bound(&p), 7.0);
    }

    #[test]
    fn tight_on_single_constraint_fit() {
        // Weight binds: capacity 3 of weight, items of weight 2 each.
        let p = problem(vec![(2.0, 0.0, 6.0), (2.0, 0.0, 6.0)], vec![(3.0, 10.0)]);
        // Fractional: 6 + 6 * (1/2) = 9.
        assert!((upper_bound(&p) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn volume_dimension_can_be_binding() {
        let p = problem(vec![(0.0, 2.0, 6.0), (0.0, 2.0, 6.0)], vec![(100.0, 3.0)]);
        assert!((upper_bound(&p) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn zero_size_items_count_fully() {
        let p = problem(vec![(0.0, 0.0, 5.0), (1.0, 1.0, 1.0)], vec![(0.0, 0.0)]);
        assert!((upper_bound(&p) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn subset_bound_uses_residuals() {
        let p = problem(vec![(2.0, 1.0, 10.0), (2.0, 1.0, 8.0)], vec![(4.0, 2.0)]);
        let b = upper_bound_subset(&p, &[1], 1.0, 1.0, (2.0, 1.0));
        // Only half of item 1 fits the residual weight 1.0.
        assert!((b - 4.0).abs() < 1e-12);
        // No residual holds item 1's weight 2, so none of it counts.
        assert_eq!(upper_bound_subset(&p, &[1], 1.0, 1.0, (1.0, 1.0)), 0.0);
        assert_eq!(upper_bound_subset(&p, &[], 4.0, 2.0, (4.0, 2.0)), 0.0);
        assert_eq!(upper_bound_subset(&p, &[0], -1.0, 1.0, (-1.0, 1.0)), 0.0);
    }

    #[test]
    fn items_no_sack_holds_do_not_count() {
        // Item 0 is heavier than either sack; item 1 is bulkier. Together
        // they would fill the aggregate capacity; only item 2 counts.
        let p = problem(
            vec![(5.0, 1.0, 100.0), (1.0, 3.0, 50.0), (1.0, 1.0, 1.0)],
            vec![(4.0, 2.0), (2.0, 2.0)],
        );
        assert_eq!(upper_bound(&p), 1.0);
        assert_eq!(surrogate_bound(&p), 1.0);
        // The test is per dimension over the largest room: an item that
        // fits the weight of one sack and the volume of another counts.
        let split = problem(vec![(3.0, 3.0, 7.0)], vec![(4.0, 1.0), (1.0, 4.0)]);
        assert_eq!(upper_bound(&split), 7.0);
    }

    #[test]
    fn surrogate_never_looser_than_aggregate_bound() {
        let mut rng = StdRng::seed_from_u64(41);
        for _ in 0..40 {
            let n = rng.gen_range(1..12);
            let m = rng.gen_range(1..4);
            let items: Vec<(f64, f64, f64)> = (0..n)
                .map(|_| {
                    (rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0), rng.gen_range(0.0..9.0))
                })
                .collect();
            let sacks: Vec<(f64, f64)> =
                (0..m).map(|_| (rng.gen_range(0.0..8.0), rng.gen_range(0.0..8.0))).collect();
            let p = problem(items, sacks);
            assert!(surrogate_bound(&p) <= upper_bound(&p) + 1e-12);
        }
    }

    /// `(weight, volume, profit)` items and `(weight, volume)` sacks.
    type Instance = (Vec<(f64, f64, f64)>, Vec<(f64, f64)>);

    /// Integer items whose sizes reach 15 against sacks up to 10, so some
    /// items fit no sack at all and others only some of them.
    fn oversized(rng: &mut StdRng) -> Instance {
        let n = rng.gen_range(1..8);
        let m = rng.gen_range(1..4);
        let items = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0.0..15.0f64).round(),
                    rng.gen_range(0.0..12.0f64).round(),
                    rng.gen_range(0.0..9.0f64).round(),
                )
            })
            .collect();
        let sacks = (0..m)
            .map(|_| (rng.gen_range(0.0..10.0f64).round(), rng.gen_range(0.0..10.0f64).round()))
            .collect();
        (items, sacks)
    }

    /// How many of `items` fail the largest-room test against `residuals`.
    fn left_out(items: &[(f64, f64, f64)], residuals: &[(f64, f64)]) -> usize {
        let room = Summary::room(largest_room(residuals.iter().copied()));
        items.iter().filter(|&&(w, v, p)| !room.fits(&Item::new(w, v, p).unwrap())).count()
    }

    #[test]
    fn surrogate_bounds_the_optimum() {
        use crate::exact::brute_force;
        let mut rng = StdRng::seed_from_u64(42);
        let mut excluded = 0;
        for round in 0..60 {
            let (items, sacks) = oversized(&mut rng);
            excluded += left_out(&items, &sacks);
            let p = problem(items, sacks);
            let opt = brute_force(&p).profit(&p);
            let sb = surrogate_bound(&p);
            let ub = upper_bound(&p);
            assert!(sb + 1e-9 >= opt, "round {round}: surrogate {sb} < optimum {opt}");
            assert!(ub + 1e-9 >= opt, "round {round}: bound {ub} < optimum {opt}");
        }
        assert!(excluded > 20, "the rule must bite at the root, left out {excluded} items");
    }

    /// The rule below the root: pack a random prefix, then every bound over
    /// the rest, under the residuals' aggregate and largest room, is at
    /// least the best completion, found by brute force over the residuals.
    #[test]
    fn subset_bounds_bound_the_best_completion() {
        use crate::exact::brute_force;
        let mut rng = StdRng::seed_from_u64(46);
        let mut excluded = 0;
        for round in 0..120 {
            let (items, sacks) = oversized(&mut rng);
            let p = problem(items.clone(), sacks.clone());
            let k = rng.gen_range(0..=items.len());
            let mut residual = sacks;
            for &(w, v, _) in &items[..k] {
                let s = rng.gen_range(0..residual.len());
                if w <= residual[s].0 && v <= residual[s].1 {
                    residual[s] = (residual[s].0 - w, residual[s].1 - v);
                }
            }
            excluded += left_out(&items[k..], &residual);
            let rest: Vec<usize> = (k..items.len()).collect();
            let rest_problem = problem(items[k..].to_vec(), residual.clone());
            let opt = brute_force(&rest_problem).profit(&rest_problem);
            let agg_w: f64 = residual.iter().map(|r| r.0).sum();
            let agg_v: f64 = residual.iter().map(|r| r.1).sum();
            let room = largest_room(residual.iter().copied());
            let ub = upper_bound_subset(&p, &rest, agg_w, agg_v, room);
            let sb = surrogate_bound_subset(&p, &rest, agg_w, agg_v, room);
            assert!(ub + 1e-9 >= opt, "round {round}: bound {ub} < best completion {opt}");
            assert!(sb + 1e-9 >= opt, "round {round}: surrogate {sb} < best completion {opt}");
        }
        assert!(excluded > 40, "the rule must bite below the root, left out {excluded} items");
    }

    /// Residual caps the bit-identity tests query: roomy, tight, empty and
    /// negative (a clamped over-packed residual).
    const CAPS: [(f64, f64); 4] = [(10.0, 12.0), (3.5, 2.0), (0.0, 5.0), (-1.0, 4.0)];

    /// Largest rooms the bit-identity tests query: one that holds every
    /// item, two that leave some entries out by weight or by volume, and
    /// one that holds only weightless items.
    const ROOMS: [(f64, f64); 4] = [(7.0, 7.0), (2.0, 3.0), (1.5, 0.5), (0.0, 2.0)];

    /// Every pair of residual caps and largest room.
    fn queries() -> impl Iterator<Item = ((f64, f64), (f64, f64))> {
        CAPS.into_iter().flat_map(|caps| ROOMS.into_iter().map(move |room| (caps, room)))
    }

    /// Up to 14 items and a shuffled exploration order. On the integer grid
    /// the items include zero sizes and duplicate densities, so stable-sort
    /// tie handling is actually exercised.
    fn shuffled_instance(rng: &mut StdRng, integer: bool) -> (Problem, Vec<usize>) {
        let n = rng.gen_range(1..15);
        let items: Vec<(f64, f64, f64)> = (0..n)
            .map(|_| {
                let (w, v, p) = (
                    rng.gen_range(0.0..3.0f64),
                    rng.gen_range(0.0..3.0f64),
                    rng.gen_range(0.0..5.0f64),
                );
                if integer {
                    (w.round(), v.round(), p.round())
                } else {
                    (w, v, p)
                }
            })
            .collect();
        let p = problem(items, vec![(7.0, 7.0), (3.0, 5.0)]);
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        (p, order)
    }

    #[test]
    fn suffix_bounds_bit_identical_to_subset_bound() {
        let mut rng = StdRng::seed_from_u64(43);
        for _ in 0..30 {
            let (p, order) = shuffled_instance(&mut rng, true);
            let sb = SuffixBounds::new(&p, &order);
            for depth in 0..=order.len() {
                for ((agg_w, agg_v), room) in queries() {
                    let fast = sb.bound(depth, agg_w, agg_v, room);
                    let slow = upper_bound_subset(&p, &order[depth..], agg_w, agg_v, room);
                    assert_eq!(
                        fast.to_bits(),
                        slow.to_bits(),
                        "depth {depth} caps ({agg_w},{agg_v}) room {room:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn presorted_surrogate_bit_identical_to_subset_surrogate() {
        let mut rng = StdRng::seed_from_u64(45);
        for round in 0..60 {
            let (p, order) = shuffled_instance(&mut rng, round % 2 == 0);
            let sb = SuffixBounds::new(&p, &order);
            for depth in 0..=order.len() {
                for ((agg_w, agg_v), room) in queries() {
                    let fast = sb.surrogate(depth, agg_w, agg_v, room);
                    let slow = surrogate_bound_subset(&p, &order[depth..], agg_w, agg_v, room);
                    assert_eq!(
                        fast.to_bits(),
                        slow.to_bits(),
                        "round {round} depth {depth} caps ({agg_w},{agg_v}) room {room:?}"
                    );
                }
            }
        }
    }

    /// The search's use of the links: rooted at a random depth and room,
    /// descend (unlink) and backtrack (relink) last-in first-out, and at
    /// every depth reached the linked bound equals the sorted suffix's under
    /// the root's room, whose entries the room leaves out never linked.
    #[test]
    fn live_bounds_bit_identical_along_a_depth_first_walk() {
        let mut rng = StdRng::seed_from_u64(44);
        for round in 0..60 {
            let (p, order) = shuffled_instance(&mut rng, round % 2 == 0);
            let n = order.len();
            let sb = SuffixBounds::new(&p, &order);
            let root = rng.gen_range(0..=n);
            let room = ROOMS[rng.gen_range(0..ROOMS.len())];
            let mut live = LiveBounds::new(&sb, root, room);
            let mut depth = root;
            for step in 0..120 {
                for (agg_w, agg_v) in CAPS {
                    let fast = live.bound(agg_w, agg_v);
                    let slow = upper_bound_subset(&p, &order[depth..], agg_w, agg_v, room);
                    assert_eq!(
                        fast.to_bits(),
                        slow.to_bits(),
                        "round {round} step {step} root {root} depth {depth} room {room:?}"
                    );
                }
                // Descend twice as often as backtrack, so walks reach leaves.
                if depth < n && (depth == root || rng.gen_range(0..3) > 0) {
                    live.unlink(depth);
                    depth += 1;
                } else if depth > root {
                    depth -= 1;
                    live.relink(depth);
                }
            }
        }
    }
}
