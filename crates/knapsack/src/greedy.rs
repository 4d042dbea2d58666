//! Greedy and local-search heuristics for MCMK.
//!
//! The density-ordered greedy is what an edge controller can afford to run
//! every allocation round; it is also the "accurate task allocation" proxy
//! used when reproducing Fig. 3 (allocate by importance under capacity
//! limits). Local search tightens it when a little more compute is
//! available.

use crate::bounds::largest_room;
use crate::first_hit::{FirstHit, Summary};
use crate::problem::{Item, Packing, Problem};

/// Density-ordered greedy first-fit: items are sorted by profit density
/// (profit per aggregate-normalised size) and each is placed into the sack
/// with the *least* remaining headroom that still fits (best-fit), leaving
/// big headroom for big items.
///
/// Runs in `O(N log N + N·M)` in the worst case: the density sort plus one
/// best-fit pass over the sacks per item. The pass walks blocks of 64
/// sacks and scans only those that could hold the item and beat the best
/// sack found so far, so it typically costs `N·M/64` block tests plus a
/// few scanned blocks per item. That is this function alone — the
/// controller's `SolverKind::Greedy` is [`greedy_with_local_search`], which
/// also pays for [`local_search`] (costs stated there).
///
/// # Examples
///
/// ```
/// use knapsack::greedy::greedy;
/// use knapsack::problem::{Item, Problem, Sack};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = Problem::new(
///     vec![Item::new(2.0, 1.0, 10.0)?, Item::new(2.0, 1.0, 1.0)?],
///     vec![Sack::new(2.0, 1.0)?],
/// )?;
/// assert_eq!(greedy(&p).profit(&p), 10.0);
/// # Ok(())
/// # }
/// ```
pub fn greedy(problem: &Problem) -> Packing {
    greedy_with_index(problem, &DensityIndex::new(problem))
}

/// Reusable profit-density ordering for greedy passes.
///
/// `greedy` used to re-sort a fresh density index on every call; callers
/// that solve the same item set repeatedly — day-over-day re-allocation,
/// the portfolio warm start, benchmark sweeps — can build the index once
/// and pass it to [`greedy_with_index`] to skip the `O(N log N)` sort.
/// The placement produced through a reused index is bit-identical to a
/// fresh `greedy` call (pinned by a regression test against the original
/// inline implementation).
#[derive(Debug, Clone)]
pub struct DensityIndex {
    order: Vec<usize>,
    total_w: f64,
    total_v: f64,
}

impl DensityIndex {
    /// Sorts the items of `problem` by decreasing profit density, breaking
    /// density ties by decreasing profit.
    ///
    /// Each item's `(density, profit)` key is computed once. Keys are never
    /// NaN (items are finite and non-negative; a zero size has density
    /// +∞), and `+ 0.0` turns −0.0 into +0.0, so `total_cmp` on them
    /// decides every comparison as `partial_cmp` would; the sort is stable,
    /// so equal keys keep index order.
    pub fn new(problem: &Problem) -> Self {
        let (total_w, total_v) = capacity_scales(problem);
        let mut keyed: Vec<(f64, f64, usize)> = problem
            .items()
            .iter()
            .enumerate()
            .map(|(i, item)| (item.density(total_w, total_v) + 0.0, item.profit + 0.0, i))
            .collect();
        keyed.sort_by(|a, b| b.0.total_cmp(&a.0).then(b.1.total_cmp(&a.1)));
        let order = keyed.into_iter().map(|(_, _, i)| i).collect();
        Self { order, total_w, total_v }
    }

    /// Item indices in greedy placement order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The aggregate `(weight, volume)` capacity scales the densities were
    /// normalised by (both clamped to ≥ 1e-12).
    pub fn scales(&self) -> (f64, f64) {
        (self.total_w, self.total_v)
    }
}

/// The aggregate `(weight, volume)` sack capacities densities and best-fit
/// slack are normalised by, both clamped to ≥ 1e-12.
fn capacity_scales(problem: &Problem) -> (f64, f64) {
    let total_w: f64 = problem.sacks().iter().map(|s| s.weight_capacity).sum::<f64>().max(1e-12);
    let total_v: f64 = problem.sacks().iter().map(|s| s.volume_capacity).sum::<f64>().max(1e-12);
    (total_w, total_v)
}

/// [`greedy`] with a prebuilt [`DensityIndex`], which must have been built
/// for this `problem`'s items and sacks.
///
/// # Panics
///
/// Panics if `index` was built for another problem: its order must cover
/// exactly this problem's items, and its scales must equal this problem's
/// aggregate sack capacities. (An index over the same sacks and the same
/// *number* of different items cannot be told apart and stays the caller's
/// responsibility.)
pub fn greedy_with_index(problem: &Problem, index: &DensityIndex) -> Packing {
    let n = problem.num_items();
    assert_eq!(index.order.len(), n, "density index built for a different item count");
    assert_eq!(index.scales(), capacity_scales(problem), "density index built for different sacks");
    place(problem, index, None)
}

/// Multiplier-weighted greedy: maximises `Σ_i profit_i · m_{s(i)}` for
/// per-sack multipliers `m`. Items are visited in [`greedy`]'s density
/// order; each goes to the feasible sack with the highest multiplier,
/// multipliers within `1e-12` of each other tied and broken by best-fit
/// slack, then by the lowest sack index. With equal multipliers that is
/// [`greedy`]'s placement.
///
/// # Panics
///
/// Panics unless `multipliers` holds one finite, non-negative value per
/// sack.
pub fn greedy_weighted(problem: &Problem, multipliers: &[f64]) -> Packing {
    assert_eq!(multipliers.len(), problem.sacks().len(), "sack weight vector length");
    assert!(
        multipliers.iter().all(|m| m.is_finite() && *m >= 0.0),
        "sack weights must be finite and non-negative"
    );
    place(problem, &DensityIndex::new(problem), Some(multipliers))
}

/// Sacks per block of the best-fit pass. Not a knob: any value gives the
/// same placement.
const BLOCK: usize = 64;

/// Lanes of the masked minimum inside a block.
const LANES: usize = 8;

/// Best-fit slack of `item` in a sack with residual `(rw, rv)`: the headroom
/// left, each dimension normalised by its aggregate scale. Monotone in each
/// residual, since a float subtraction, a division by a positive scale and
/// an addition each preserve order under rounding.
fn best_fit_slack(item: &Item, rw: f64, rv: f64, (total_w, total_v): (f64, f64)) -> f64 {
    (rw - item.weight) / total_w + (rv - item.volume) / total_v
}

/// What [`place`] keeps per block of sacks: the largest residual in each
/// dimension, which an item must fit for any sack of the block to hold it,
/// and the smallest, whose slack no sack of the block goes below.
struct Block {
    room: Summary,
    low: (f64, f64),
}

impl Block {
    fn of(rw: &[f64], rv: &[f64]) -> Self {
        let residuals = rw.iter().copied().zip(rv.iter().copied());
        let low = residuals
            .clone()
            .fold((f64::INFINITY, f64::INFINITY), |(w, v), (rw, rv)| (w.min(rw), v.min(rv)));
        Self { room: Summary::room(largest_room(residuals)), low }
    }
}

/// The one placement loop: items in `index` order, each into the feasible
/// sack with the highest multiplier, then the least leftover headroom
/// (best fit), then the lowest index. `None` stands for a multiplier of 1 on
/// every sack, under which the rule is plain best fit.
///
/// The residuals are two flat vectors, padded to whole blocks of [`BLOCK`]
/// sacks with `−∞`, which no item fits. A block is skipped unless the item
/// fits its largest residuals: the monotone test [`FirstHit`] descends by,
/// so a skipped block holds no sack the item fits. A placement recomputes
/// only its own block. An item larger than the largest sack is skipped
/// before the walk: residuals only shrink.
///
/// Under a uniform multiplier a block is also skipped once the slack at its
/// smallest residuals is not below the incumbent's (by monotonicity no sack
/// in it could displace the incumbent), and otherwise searched by
/// [`block_best_fit`]. A block replaces the incumbent only on a strictly
/// smaller slack, so the sack chosen is the full scan's first least-slack
/// sack. Per-sack multipliers keep the sequential rule inside a block: its
/// `1e-12` multiplier tolerance is not transitive, so no lane reduction
/// reproduces it.
///
/// Cost per item: one or two tests per block, then, per block searched, 64
/// slack evaluations for the minimum and, only if it beats the incumbent,
/// at most 64 more to find its first sack.
fn place(problem: &Problem, index: &DensityIndex, multipliers: Option<&[f64]>) -> Packing {
    let scales = index.scales();
    let sacks = problem.sacks();
    let num_sacks = sacks.len();
    let padded = num_sacks.div_ceil(BLOCK) * BLOCK;
    let mut rw = vec![f64::NEG_INFINITY; padded];
    let mut rv = vec![f64::NEG_INFINITY; padded];
    for (s, sack) in sacks.iter().enumerate() {
        rw[s] = sack.weight_capacity;
        rv[s] = sack.volume_capacity;
    }
    let real = |b: usize| b * BLOCK..num_sacks.min((b + 1) * BLOCK);
    let block = |b: usize, rw: &[f64], rv: &[f64]| Block::of(&rw[real(b)], &rv[real(b)]);
    let mut blocks: Vec<Block> = (0..padded / BLOCK).map(|b| block(b, &rw, &rv)).collect();
    let room =
        Summary::room(largest_room(sacks.iter().map(|s| (s.weight_capacity, s.volume_capacity))));
    let mut packing = Packing::empty(problem.num_items());
    for &i in &index.order {
        let item = problem.items()[i];
        if !room.fits(&item) {
            continue;
        }
        // The incumbent's (sack, multiplier, slack).
        let mut best: Option<(usize, f64, f64)> = None;
        for (b, block) in blocks.iter().enumerate() {
            if !block.room.fits(&item) {
                continue;
            }
            if let Some(multipliers) = multipliers {
                for s in real(b) {
                    if item.weight <= rw[s] + 1e-12 && item.volume <= rv[s] + 1e-12 {
                        let m = multipliers[s];
                        let slack = best_fit_slack(&item, rw[s], rv[s], scales);
                        let better = best.is_none_or(|(_, bm, bs)| {
                            m > bm + 1e-12 || ((m - bm).abs() <= 1e-12 && slack < bs)
                        });
                        if better {
                            best = Some((s, m, slack));
                        }
                    }
                }
                continue;
            }
            let incumbent = best.map(|(_, _, slack)| slack);
            let (low_w, low_v) = block.low;
            if incumbent.is_some_and(|bs| best_fit_slack(&item, low_w, low_v, scales) >= bs) {
                continue;
            }
            let span = b * BLOCK..(b + 1) * BLOCK;
            if let Some((k, least)) =
                block_best_fit(&rw[span.clone()], &rv[span], &item, scales, incumbent)
            {
                best = Some((b * BLOCK + k, 1.0, least));
            }
        }
        if let Some((s, _, _)) = best {
            rw[s] -= item.weight;
            rv[s] -= item.volume;
            blocks[s / BLOCK] = block(s / BLOCK, &rw, &rv);
            packing.assign(i, Some(s));
        }
    }
    packing
}

/// The first sack of one block with the least best-fit slack among those
/// `item` fits, and that slack, if the slack is strictly below the
/// `incumbent`'s; `None` when it is not, or when the item fits no sack here.
///
/// A branch-free masked minimum over [`LANES`] lanes, then, only if it
/// beats the incumbent, the first sack at that minimum. The slack is the
/// scan's expression (no reciprocal, no fused multiply-add), so every
/// rounding is the scan's, and `==` holds −0.0 and +0.0 equal as the scan's
/// `<` does: the sack found is the scan's first argmin within the block,
/// and a block never displaces an earlier tie.
fn block_best_fit(
    rw: &[f64],
    rv: &[f64],
    item: &Item,
    scales: (f64, f64),
    incumbent: Option<f64>,
) -> Option<(usize, f64)> {
    let fits = |w: f64, v: f64| (item.weight <= w + 1e-12) & (item.volume <= v + 1e-12);
    let mut lanes = [f64::INFINITY; LANES];
    for (cw, cv) in rw.chunks_exact(LANES).zip(rv.chunks_exact(LANES)) {
        for k in 0..LANES {
            let masked = if fits(cw[k], cv[k]) {
                best_fit_slack(item, cw[k], cv[k], scales)
            } else {
                f64::INFINITY
            };
            lanes[k] = if masked < lanes[k] { masked } else { lanes[k] };
        }
    }
    let least = lanes.into_iter().fold(f64::INFINITY, |a, x| if x < a { x } else { a });
    if incumbent.is_some_and(|bs| least >= bs) {
        return None;
    }
    rw.iter()
        .zip(rv)
        .position(|(&w, &v)| fits(w, v) && best_fit_slack(item, w, v, scales) == least)
        .map(|k| (k, least))
}

/// Hill-climbing improvement over an initial packing. Each round visits the
/// unpacked items in index order twice: first every item with positive
/// profit is *inserted* into the lowest-indexed sack with room, then every
/// item still unpacked *swaps* with the lowest-indexed packed item of lower
/// profit whose sack it fits once that item is out. Rounds repeat until one
/// makes no move, or `max_rounds` have run. Returns the improved packing.
///
/// Both "lowest-indexed" searches are [`FirstHit`] queries — over sacks
/// keyed by residual capacity, and over items keyed by profit and the
/// residual of their sack with the item itself removed. A round costs
/// `O((N + M) + U·q + S·k·log N)` for `U` unpacked items, `S` swaps made
/// and `k` items per touched sack, where a query `q` is `O(1)` when the
/// root already rules a hit out (the common case for an item nothing has
/// room for) and otherwise the root-to-leaf paths the summaries cannot
/// rule out: ~13 to a few hundred nodes on mesh rounds. The linear scans
/// this replaced cost `O(U·(N + M))` per round: 90–175 ms on a 6000 × 3000
/// mesh round that the index improves in 0.3–1.5 ms, with the same packing
/// and the same profit bits (pinned against the scans in this module's
/// tests).
///
/// The descent is not worst-case logarithmic. A node can pass all three
/// summary tests through three *different* leaves and hold no hit, so an
/// adversarial instance still costs `O(N)` per query, as the scan did.
pub fn local_search(problem: &Problem, initial: Packing, max_rounds: usize) -> Packing {
    let items = problem.items();
    let mut packing = initial;
    let mut sacks = FirstHit::new(problem.num_sacks());
    let mut packed = FirstHit::new(items.len());
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); problem.num_sacks()];
    for _ in 0..max_rounds {
        let mut residual = packing.residual_capacities(problem);
        let mut improved = false;

        // Insert moves.
        sacks.fill(residual.iter().copied().map(Summary::room));
        for (i, item) in items.iter().enumerate() {
            if packing.sack_of(i).is_some() || item.profit <= 0.0 {
                continue;
            }
            if let Some(s) = sacks.first_from(0, |room| room.fits(item)) {
                packing.assign(i, Some(s));
                residual[s].0 -= item.weight;
                residual[s].1 -= item.volume;
                sacks.set(s, Summary::room(residual[s]));
                improved = true;
            }
        }

        // Swap moves: out-item j (packed) replaced by in-item i (unpacked).
        // A packed leaf holds what its sack would have left without it.
        let leaf = |j: usize, s: usize, residual: &[(f64, f64)]| Summary {
            weight: residual[s].0 + items[j].weight,
            volume: residual[s].1 + items[j].volume,
            profit: items[j].profit,
        };
        members.iter_mut().for_each(Vec::clear);
        for (j, s) in packing.placement().iter().enumerate() {
            if let Some(s) = *s {
                members[s].push(j);
            }
        }
        packed.fill(
            packing
                .placement()
                .iter()
                .enumerate()
                .map(|(j, s)| s.map_or(Summary::NONE, |s| leaf(j, s, &residual))),
        );
        for (i, inc) in items.iter().enumerate() {
            if packing.sack_of(i).is_some() {
                continue;
            }
            let Some(j) = packed.first_from(0, |out| out.yields_to(inc)) else { continue };
            let s = packing.sack_of(j).expect("only packed leaves admit a swap");
            let freed = leaf(j, s, &residual);
            packing.assign(j, None);
            packing.assign(i, Some(s));
            residual[s] = (freed.weight - inc.weight, freed.volume - inc.volume);
            improved = true;
            // Sack `s` changed residual and membership: re-key its leaves.
            let slot = members[s].iter().position(|&k| k == j).expect("j was packed in s");
            members[s][slot] = i;
            packed.set(j, Summary::NONE);
            for &k in &members[s] {
                packed.set(k, leaf(k, s, &residual));
            }
        }

        if !improved {
            break;
        }
    }
    packing
}

/// Convenience: greedy followed by local search.
pub fn greedy_with_local_search(problem: &Problem) -> Packing {
    local_search(problem, greedy(problem), 32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::portfolio::{solve_portfolio, SolveBudget};
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

    #[test]
    fn greedy_prefers_dense_items() {
        let p = problem(vec![(2.0, 1.0, 10.0), (2.0, 1.0, 1.0)], vec![(2.0, 1.0)]);
        let s = greedy(&p);
        assert_eq!(s.profit(&p), 10.0);
        assert!(s.is_feasible(&p));
    }

    #[test]
    fn greedy_feasible_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let n = rng.gen_range(0..30);
            let m = rng.gen_range(1..6);
            let items: Vec<(f64, f64, f64)> = (0..n)
                .map(|_| {
                    (rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0), rng.gen_range(0.0..1.0))
                })
                .collect();
            let sacks: Vec<(f64, f64)> =
                (0..m).map(|_| (rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0))).collect();
            let p = problem(items, sacks);
            assert!(greedy(&p).is_feasible(&p));
        }
    }

    #[test]
    fn greedy_never_beats_exact_and_is_close() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut ratio_sum = 0.0;
        let rounds = 25;
        for _ in 0..rounds {
            let n = rng.gen_range(4..9);
            let items: Vec<(f64, f64, f64)> = (0..n)
                .map(|_| {
                    (rng.gen_range(1.0..4.0), rng.gen_range(1.0..4.0), rng.gen_range(0.1..1.0))
                })
                .collect();
            let p = problem(items, vec![(6.0, 6.0), (4.0, 4.0)]);
            let g = greedy_with_local_search(&p).profit(&p);
            let e = solve_portfolio(&p, SolveBudget::Exact).profit;
            assert!(g <= e + 1e-9, "greedy {g} > exact {e}");
            if e > 0.0 {
                ratio_sum += g / e;
            } else {
                ratio_sum += 1.0;
            }
        }
        assert!(ratio_sum / rounds as f64 > 0.85, "avg ratio {}", ratio_sum / rounds as f64);
    }

    #[test]
    fn local_search_inserts_missed_items() {
        let p = problem(vec![(1.0, 1.0, 1.0), (1.0, 1.0, 2.0)], vec![(2.0, 2.0)]);
        // Start from an empty packing.
        let s = local_search(&p, Packing::empty(2), 10);
        assert_eq!(s.profit(&p), 3.0);
    }

    #[test]
    fn local_search_swaps_in_better_item() {
        let p = problem(vec![(2.0, 2.0, 1.0), (2.0, 2.0, 5.0)], vec![(2.0, 2.0)]);
        let mut packing = Packing::empty(2);
        packing.assign(0, Some(0)); // suboptimal start
        let s = local_search(&p, packing, 10);
        assert_eq!(s.profit(&p), 5.0);
        assert_eq!(s.sack_of(0), None);
        assert_eq!(s.sack_of(1), Some(0));
    }

    #[test]
    fn local_search_terminates_at_local_optimum() {
        let p = problem(vec![(1.0, 1.0, 4.0)], vec![(1.0, 1.0)]);
        let s0 = greedy(&p);
        let s1 = local_search(&p, s0.clone(), 100);
        assert_eq!(s0, s1);
    }

    /// The original `greedy`, verbatim as it stood before the sort was
    /// hoisted into `DensityIndex` — the regression oracle for exact
    /// output equality.
    fn greedy_original(problem: &Problem) -> Packing {
        let n = problem.num_items();
        let total_w: f64 =
            problem.sacks().iter().map(|s| s.weight_capacity).sum::<f64>().max(1e-12);
        let total_v: f64 =
            problem.sacks().iter().map(|s| s.volume_capacity).sum::<f64>().max(1e-12);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let da = problem.items()[a].density(total_w, total_v);
            let db = problem.items()[b].density(total_w, total_v);
            db.partial_cmp(&da).expect("densities comparable").then(
                problem.items()[b].profit.partial_cmp(&problem.items()[a].profit).expect("finite"),
            )
        });

        let mut packing = Packing::empty(n);
        let mut residual: Vec<(f64, f64)> =
            problem.sacks().iter().map(|s| (s.weight_capacity, s.volume_capacity)).collect();
        for &i in &order {
            let item = problem.items()[i];
            let mut best: Option<(usize, f64)> = None;
            for (s, &(rw, rv)) in residual.iter().enumerate() {
                if item.weight <= rw + 1e-12 && item.volume <= rv + 1e-12 {
                    let slack = (rw - item.weight) / total_w + (rv - item.volume) / total_v;
                    if best.is_none_or(|(_, b)| slack < b) {
                        best = Some((s, slack));
                    }
                }
            }
            if let Some((s, _)) = best {
                residual[s].0 -= item.weight;
                residual[s].1 -= item.volume;
                packing.assign(i, Some(s));
            }
        }
        packing
    }

    #[test]
    fn indexed_greedy_bit_identical_to_original() {
        let mut rng = StdRng::seed_from_u64(8080);
        for round in 0..60 {
            let n = rng.gen_range(0..40);
            let m = rng.gen_range(1..8);
            // Duplicate densities and zero sizes exercise the tie-break.
            let items: Vec<(f64, f64, f64)> = (0..n)
                .map(|_| {
                    (
                        rng.gen_range(0.0..4.0f64).round(),
                        rng.gen_range(0.0..4.0f64).round(),
                        rng.gen_range(0.0..6.0f64).round(),
                    )
                })
                .collect();
            let sacks: Vec<(f64, f64)> =
                (0..m).map(|_| (rng.gen_range(0.0..9.0), rng.gen_range(0.0..9.0))).collect();
            let p = problem(items, sacks);
            let reference = greedy_original(&p);

            assert_eq!(greedy(&p), reference, "round {round}");

            // Reusing one index across repeated solves must not drift.
            let index = DensityIndex::new(&p);
            for _ in 0..3 {
                assert_eq!(greedy_with_index(&p, &index), reference, "round {round}");
            }

            // And the full warm-start chain stays put too.
            let ls_reference = local_search_scan(&p, reference, 32);
            assert_eq!(greedy_with_local_search(&p), ls_reference, "round {round}");
        }
    }

    #[test]
    fn equal_multipliers_place_like_plain_greedy() {
        // Under equal multipliers the weighted rule never prefers a sack by
        // multiplier, so it must be plain best fit to the bit — whatever
        // the common value, zero included.
        use crate::generator::{generate, GeneratorConfig};
        let mut rng = StdRng::seed_from_u64(0x9EED);
        for (round, m) in [1.0, 0.37, 0.0, 1.0, 2.5, 1.0].into_iter().enumerate() {
            let config = GeneratorConfig {
                num_items: 20 + 30 * round,
                num_sacks: 1 + 3 * round,
                capacity_ratio: 0.3 + 0.1 * round as f64,
                ..GeneratorConfig::default()
            };
            let p = generate(config, &mut rng);
            let plain = greedy_with_index(&p, &DensityIndex::new(&p));
            let weighted = greedy_weighted(&p, &vec![m; p.sacks().len()]);
            assert_eq!(weighted, plain, "round {round}");
        }
    }

    /// `place` verbatim as it stood before the sacks were walked in blocks:
    /// one sequential scan of every sack per item — the oracle the blocked
    /// loop is held to under per-sack multipliers.
    fn place_scan(
        problem: &Problem,
        index: &DensityIndex,
        multiplier: impl Fn(usize) -> f64,
    ) -> Packing {
        let (total_w, total_v) = index.scales();
        let mut packing = Packing::empty(problem.num_items());
        let mut residual: Vec<(f64, f64)> =
            problem.sacks().iter().map(|s| (s.weight_capacity, s.volume_capacity)).collect();
        let room = Summary::room(largest_room(residual.iter().copied()));
        for &i in &index.order {
            let item = problem.items()[i];
            if !room.fits(&item) {
                continue;
            }
            let mut best: Option<(usize, f64, f64)> = None;
            for (s, &(rw, rv)) in residual.iter().enumerate() {
                if item.weight <= rw + 1e-12 && item.volume <= rv + 1e-12 {
                    let m = multiplier(s);
                    let slack = (rw - item.weight) / total_w + (rv - item.volume) / total_v;
                    let better = best.is_none_or(|(_, bm, bs)| {
                        m > bm + 1e-12 || ((m - bm).abs() <= 1e-12 && slack < bs)
                    });
                    if better {
                        best = Some((s, m, slack));
                    }
                }
            }
            if let Some((s, _, _)) = best {
                residual[s].0 -= item.weight;
                residual[s].1 -= item.volume;
                packing.assign(i, Some(s));
            }
        }
        packing
    }

    /// Sack counts on both sides of the block size: one partial block, one
    /// short of a block, exactly one, one over, and several.
    const BLOCKED_SACK_COUNTS: [usize; 6] = [1, 63, 64, 65, 130, 300];

    /// A seeded instance of `shape` over `m` sacks, drawn to put the block
    /// walk's edge cases in play.
    fn blocked_instance(rng: &mut StdRng, m: usize, shape: usize) -> Problem {
        let n = rng.gen_range(m / 2..2 * m + 8);
        let grid = |rng: &mut StdRng, hi: f64| rng.gen_range(0.0..hi).round();
        let sacks: Vec<(f64, f64)> = (0..m)
            .map(|s| match shape {
                // Identical sacks: every slack ties, across every boundary.
                0 => (4.0, 3.0),
                // Few distinct capacities, signed zeros among them.
                1 => match rng.gen_range(0..5) {
                    0 => (0.0, 0.0),
                    1 => (-0.0, -0.0),
                    2 => (0.0, 2.0),
                    _ => (grid(rng, 5.0), grid(rng, 4.0)),
                },
                // Equal least-slack sacks on both sides of each boundary,
                // everything else roomier.
                2 if s % BLOCK == BLOCK - 1 || s % BLOCK == 0 => (2.0, 2.0),
                2 => (6.0, 6.0),
                _ => (rng.gen_range(0.0..9.0), rng.gen_range(0.0..9.0)),
            })
            .collect();
        let items: Vec<(f64, f64, f64)> = (0..n)
            .map(|_| {
                let profit = match rng.gen_range(0..4) {
                    0 => 0.0,
                    1 => -0.0,
                    _ => grid(rng, 6.0),
                };
                match (shape, rng.gen_range(0..6)) {
                    (_, 0) => (0.0, 0.0, profit),
                    (_, 1) => (-0.0, 0.0, profit),
                    // Exactly at the `1e-12` edge of a capacity, and past it.
                    (_, 2) => (2.0 + 1e-12, 1.0, profit),
                    (_, 3) => (2.0 + 2e-12, 1.0, profit),
                    (3, _) => (rng.gen_range(0.0..5.0), rng.gen_range(0.0..5.0), profit),
                    _ => (grid(rng, 4.0), grid(rng, 3.0), profit),
                }
            })
            .collect();
        Problem::new(
            items.into_iter().map(|(w, v, p)| Item::new(w, v, p).unwrap()).collect(),
            sacks.into_iter().map(|(w, v)| Sack::new(w, v).unwrap()).collect(),
        )
        .unwrap()
    }

    #[test]
    fn blocked_greedy_bit_identical_to_original() {
        let mut rng = StdRng::seed_from_u64(0xB10C);
        for m in BLOCKED_SACK_COUNTS {
            for shape in 0..4 {
                for round in 0..6 {
                    let p = blocked_instance(&mut rng, m, shape);
                    let what = format!("{m} sacks, shape {shape}, round {round}");
                    assert_eq!(greedy(&p), greedy_original(&p), "{what}");
                }
            }
        }
    }

    #[test]
    fn blocked_ties_keep_the_first_sack() {
        // Sacks 63 and 64 tie on the least slack from two blocks; 127 and
        // 128 tie again once both are full. Best fit takes the lower index.
        let mut sacks = vec![(6.0, 6.0); 200];
        for s in [63, 64, 127, 128] {
            sacks[s] = (2.0, 2.0);
        }
        let p = problem(vec![(2.0, 2.0, 4.0); 5], sacks);
        let want = [63, 64, 127, 128, 0].map(Some);
        assert_eq!(greedy(&p).placement(), want);
        assert_eq!(greedy_original(&p).placement(), want);
    }

    #[test]
    fn blocked_weighted_greedy_matches_the_scan() {
        let mut rng = StdRng::seed_from_u64(0x5CA7);
        for m in BLOCKED_SACK_COUNTS {
            for shape in 0..4 {
                for round in 0..4 {
                    let p = blocked_instance(&mut rng, m, shape);
                    // Multipliers within 1e-12 of each other (tied by the
                    // rule), just beyond it, and spread out.
                    let multipliers: Vec<f64> = (0..m)
                        .map(|_| match rng.gen_range(0..6) {
                            0 => 1.0,
                            1 => 1.0 + 5e-13,
                            2 => 1.0 - 9e-13,
                            3 => 1.0 + 2e-12,
                            4 => 0.0,
                            _ => rng.gen_range(0.0..2.0),
                        })
                        .collect();
                    let scan = place_scan(&p, &DensityIndex::new(&p), |s| multipliers[s]);
                    let what = format!("{m} sacks, shape {shape}, round {round}");
                    assert_eq!(greedy_weighted(&p, &multipliers), scan, "{what}");
                }
            }
        }
    }

    /// The original `local_search`, verbatim as it stood before the two
    /// linear scans became `FirstHit` queries — the regression oracle for
    /// exact output equality.
    fn local_search_scan(problem: &Problem, initial: Packing, max_rounds: usize) -> Packing {
        let mut packing = initial;
        for _ in 0..max_rounds {
            let mut residual = packing.residual_capacities(problem);
            let mut improved = false;

            // Insert moves.
            for i in 0..problem.num_items() {
                if packing.sack_of(i).is_some() {
                    continue;
                }
                let item = problem.items()[i];
                if item.profit <= 0.0 {
                    continue;
                }
                if let Some(s) = (0..problem.num_sacks()).find(|&s| {
                    item.weight <= residual[s].0 + 1e-12 && item.volume <= residual[s].1 + 1e-12
                }) {
                    packing.assign(i, Some(s));
                    residual[s].0 -= item.weight;
                    residual[s].1 -= item.volume;
                    improved = true;
                }
            }

            // Swap moves: out-item j (packed) replaced by in-item i (unpacked).
            'swap: for i in 0..problem.num_items() {
                if packing.sack_of(i).is_some() {
                    continue;
                }
                let inc = problem.items()[i];
                for j in 0..problem.num_items() {
                    let Some(s) = packing.sack_of(j) else { continue };
                    let out = problem.items()[j];
                    if inc.profit <= out.profit + 1e-12 {
                        continue;
                    }
                    let rw = residual[s].0 + out.weight;
                    let rv = residual[s].1 + out.volume;
                    if inc.weight <= rw + 1e-12 && inc.volume <= rv + 1e-12 {
                        packing.assign(j, None);
                        packing.assign(i, Some(s));
                        residual[s].0 = rw - inc.weight;
                        residual[s].1 = rv - inc.volume;
                        improved = true;
                        continue 'swap;
                    }
                }
            }

            if !improved {
                break;
            }
        }
        packing
    }

    /// Runs both local searches from `start` and requires the same packing.
    /// Returns how many of `start`'s packed items came out unpacked, i.e.
    /// how many swaps provably fired.
    fn assert_matches_scan(p: &Problem, start: &Packing, max_rounds: usize, what: &str) -> usize {
        let expect = local_search_scan(p, start.clone(), max_rounds);
        let got = local_search(p, start.clone(), max_rounds);
        assert_eq!(got, expect, "{what}");
        (0..p.num_items())
            .filter(|&i| start.sack_of(i).is_some() && got.sack_of(i).is_none())
            .count()
    }

    #[test]
    fn indexed_local_search_bit_identical_to_scan() {
        let mut rng = StdRng::seed_from_u64(0x15_1DE7);
        let mut swapped_out = 0;
        for round in 0..480 {
            let n = rng.gen_range(0..70);
            let m = rng.gen_range(1..12);
            let shape = round % 4;
            let items: Vec<(f64, f64, f64)> = (0..n)
                .map(|_| {
                    let w = rng.gen_range(0.0..4.0f64);
                    let v = rng.gen_range(0.0..4.0f64);
                    let p = rng.gen_range(0.0..6.0f64);
                    match shape {
                        // Integer grid: ties everywhere, zero sizes, zero profits.
                        0 => (w.round(), v.round(), p.round()),
                        // Exact profit ties over continuous sizes.
                        1 => (w, v, p.round()),
                        _ => (w, v, p),
                    }
                })
                .collect();
            let sacks: Vec<(f64, f64)> = (0..m)
                .map(|_| match shape {
                    // Only volume binds.
                    2 => (1e6, rng.gen_range(0.0..6.0)),
                    // Both dimensions bind, some sacks hold nothing at all.
                    _ => (rng.gen_range(0.0..9.0), rng.gen_range(0.0..9.0)),
                })
                .collect();
            let p = problem(items, sacks);
            for (label, start) in [("greedy", greedy(&p)), ("empty", Packing::empty(n))] {
                for max_rounds in [0, 1, 32] {
                    let what = format!("round {round}, {label} start, {max_rounds} rounds");
                    swapped_out += assert_matches_scan(&p, &start, max_rounds, &what);
                }
            }
        }
        assert!(swapped_out > 100, "the suite must exercise swaps, saw {swapped_out}");
    }

    /// The shape that made the scans slow: a mesh round (two unit-demand
    /// tasks per worker, half the fleet's time needed) over route-deflated
    /// time budgets, so greedy leaves most items out and swaps fire.
    #[test]
    fn indexed_local_search_bit_identical_on_deflated_mesh_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let (n, m) = (600, 300);
        let items: Vec<(f64, f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(2e5..4e6) * 4.75e-7, 1.0, rng.gen_range(0.0..1.0)))
            .collect();
        let budget = 0.5 * items.iter().map(|i| i.0).sum::<f64>() / m as f64;
        let sacks: Vec<(f64, f64)> = (0..m)
            .map(|_| {
                let factor: f64 = rng.gen_range(0.0..1.0);
                (budget * factor * factor, 4.0)
            })
            .collect();
        let p = problem(items, sacks);
        let start = greedy(&p);
        assert!(start.packed_count() < n / 2, "most items must start unpacked");
        let swapped_out = assert_matches_scan(&p, &start, 32, "deflated mesh");
        assert!(swapped_out > 0, "swaps must fire on the deflated mesh shape");
        assert_matches_scan(&p, &Packing::empty(n), 32, "deflated mesh, empty start");
    }

    #[test]
    #[should_panic(expected = "density index built for a different item count")]
    fn greedy_rejects_an_index_over_other_items() {
        let small = problem(vec![(1.0, 1.0, 1.0)], vec![(2.0, 2.0)]);
        let large = problem(vec![(1.0, 1.0, 1.0), (1.0, 1.0, 2.0)], vec![(2.0, 2.0)]);
        greedy_with_index(&large, &DensityIndex::new(&small));
    }

    #[test]
    #[should_panic(expected = "density index built for different sacks")]
    fn greedy_rejects_an_index_over_other_sacks() {
        let items = vec![(1.0, 1.0, 1.0), (1.0, 1.0, 2.0)];
        let roomy = problem(items.clone(), vec![(2.0, 2.0), (2.0, 2.0)]);
        let tight = problem(items, vec![(2.0, 2.0), (1.0, 2.0)]);
        greedy_with_index(&tight, &DensityIndex::new(&roomy));
    }

    #[test]
    fn best_fit_keeps_room_for_large_items() {
        // Best-fit puts the small item in the small sack so the large item
        // still fits in the large sack. (First-fit into the large sack
        // would lose profit 10.)
        let p = problem(vec![(1.0, 0.0, 10.0), (4.0, 0.0, 10.0)], vec![(4.0, 0.0), (1.0, 0.0)]);
        assert_eq!(greedy(&p).profit(&p), 20.0);
    }
}
