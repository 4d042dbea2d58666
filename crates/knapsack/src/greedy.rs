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
use std::cell::Cell;

/// Density-ordered greedy best fit: the scoring items
/// ([`Problem::scoring`]) are sorted by profit density (profit per
/// aggregate-normalised size) and each is placed into the sack with the
/// *least* remaining headroom that still fits (best-fit), leaving big
/// headroom for big items. An item that earns nothing is left out.
///
/// Costs the density sort, `O(N log N)`, one sort of the sacks, `O(M log
/// M)`, and per item a walk over the sacks in slack order that starts at the
/// least slack the item could have and stops once no sack can beat the best
/// found; identical sacks are visited as one. On the benchmark's mesh round
/// (5 998 items, 2 999 sacks) a walk visits tens of entries and evaluates
/// about one slack; the worst case, every sack at a distinct residual the
/// item does not fit, stays `O(M)` per item (costs in `place`). That is this
/// function alone — the controller's `SolverKind::Greedy` is
/// [`greedy_with_local_search`], which also pays for [`local_search`] (costs
/// stated there).
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
    with_scratch(|scratch| scratch.greedy(problem))
}

/// The working buffers of [`greedy`] and [`local_search`]. A controller
/// re-solves every round at fresh importances, so each thread keeps one set
/// and every solve on it reuses them: after the first solve of a size, only
/// the returned [`Packing`] is allocated afresh. Every buffer is cleared or
/// refilled before it is read, so no solve sees another's state.
#[derive(Debug, Default)]
struct Scratch {
    density: DensityIndex,
    slack: SlackOrder,
    search: SearchState,
}

impl Scratch {
    fn greedy(&mut self, problem: &Problem) -> Packing {
        self.density.sort(problem);
        place(problem, &self.density, &mut self.slack)
    }
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
}

/// Runs `solve` on this thread's [`Scratch`], taken out for the call and put
/// back after it, so it is never borrowed across one. A call made while
/// another holds it starts from empty buffers.
fn with_scratch<R>(solve: impl FnOnce(&mut Scratch) -> R) -> R {
    let mut scratch = SCRATCH.take();
    let result = solve(&mut scratch);
    SCRATCH.set(scratch);
    result
}

/// The scoring items ([`Problem::scoring`]) by decreasing profit density,
/// and the scales the densities were normalised by.
#[derive(Debug, Default)]
struct DensityIndex {
    /// `(density, profit, item)` keys, the sort's working buffer.
    keyed: Vec<(f64, f64, usize)>,
    order: Vec<usize>,
    scales: (f64, f64),
}

impl DensityIndex {
    /// Sorts the scoring items of `problem` by decreasing profit density,
    /// breaking density ties by decreasing profit.
    ///
    /// Each item's `(density, profit)` key is computed once. Keys are
    /// positive or +0.0, never NaN (items are finite, a scoring profit is
    /// positive, and a zero size has density +∞), so `total_cmp` on them
    /// decides every comparison as `partial_cmp` would; the index decides
    /// the rest, so equal keys keep index order.
    fn sort(&mut self, problem: &Problem) {
        let scales = capacity_scales(problem);
        self.keyed.clear();
        self.keyed.extend(problem.scoring().map(|i| {
            let item = &problem.items()[i];
            (item.density(scales.0, scales.1), item.profit, i)
        }));
        self.keyed.sort_unstable_by(|a, b| {
            b.0.total_cmp(&a.0).then(b.1.total_cmp(&a.1)).then(a.2.cmp(&b.2))
        });
        self.order.clear();
        self.order.extend(self.keyed.iter().map(|&(_, _, i)| i));
        self.scales = scales;
    }
}

/// The aggregate `(weight, volume)` sack capacities densities and best-fit
/// slack are normalised by, both clamped to ≥ 1e-12.
pub(crate) fn capacity_scales(problem: &Problem) -> (f64, f64) {
    let total_w: f64 = problem.sacks().iter().map(|s| s.weight_capacity).sum::<f64>().max(1e-12);
    let total_v: f64 = problem.sacks().iter().map(|s| s.volume_capacity).sum::<f64>().max(1e-12);
    (total_w, total_v)
}

/// Multiplier-weighted greedy: maximises `Σ_i profit_i · m_{s(i)}` for
/// per-sack multipliers `m`. The scoring items are visited in [`greedy`]'s
/// density order; each goes to the feasible sack with the highest multiplier,
/// multipliers within `1e-12` of each other tied and broken by best-fit
/// slack, then by the lowest sack index. With equal multipliers that is
/// [`greedy`]'s placement.
///
/// The rule is sequential, since its multiplier tolerance is not
/// transitive, so each item scans every sack: `O(N·M)`. Its callers weight
/// paper-size fleets (survival weighting, proactive re-plans).
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
    let mut index = DensityIndex::default();
    index.sort(problem);
    let mut residual: Vec<(f64, f64)> =
        problem.sacks().iter().map(|s| (s.weight_capacity, s.volume_capacity)).collect();
    let room = Summary::room(largest_room(residual.iter().copied()));
    let mut packing = Packing::empty(problem.num_items());
    for &i in &index.order {
        let item = problem.items()[i];
        if !room.fits(&item) {
            continue;
        }
        // The incumbent's (sack, multiplier, slack).
        let mut best: Option<(usize, f64, f64)> = None;
        for (s, (&(rw, rv), &m)) in residual.iter().zip(multipliers).enumerate() {
            if Summary::room((rw, rv)).fits(&item) {
                let slack = best_fit_slack(&item, rw, rv, index.scales);
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

/// Best-fit slack of `item` in a sack with residual `(rw, rv)`: the headroom
/// left, each dimension normalised by its aggregate scale.
fn best_fit_slack(item: &Item, rw: f64, rv: f64, (total_w, total_v): (f64, f64)) -> f64 {
    (rw - item.weight) / total_w + (rv - item.volume) / total_v
}

/// The item-free part of [`best_fit_slack`]: a sack's slack is, up to
/// rounding, its key minus the item's `weight/W + volume/V`.
fn slack_key(rw: f64, rv: f64, (total_w, total_v): (f64, f64)) -> f64 {
    rw / total_w + rv / total_v
}

/// Entries a run of [`SlackOrder`] holds at most; a full run splits in two.
/// Not a knob: any value gives the same placement.
const RUN: usize = 128;

/// How far [`SlackOrder::best_fit`] looks past the exact form of its two
/// bounds, in absolute scaled units: `2⁻⁴⁶`, i.e. 128 units of roundoff `u =
/// 2⁻⁵³`.
///
/// Per dimension let `x = r/W` and `y = size/W` (`/V` for volume). A sack's
/// slack is exactly `key − c` for `key = x_w + x_v` and `c = y_w + y_v`.
/// Every residual lies in `[−2e-12, W]`: it starts at a capacity, at most
/// the sum `W ≥ 1e-12`, and a placement needs `size ≤ fl(r + 1e-12) ≤ r +
/// 2e-12`, the nearest float to `r + 1e-12` being no farther than `r`. So
/// `|x| ≤ 2`; an item that fits the largest capacity has `y ≤ 3`; and `|x −
/// y| ≤ 5`. Rounding each operation to nearest (relative error `u`, and an
/// absolute `2⁻¹⁰⁷⁵` on underflow) puts the computed `key` within `8u` of
/// exact and `c` within `12u`. The stop test adds `30u` in the slack and
/// `32u` in `slack + c + ALLOWANCE`, `82u` in all; the start test adds `8u`
/// in `edge` and `20u` in `c − edge − ALLOWANCE`, `48u` in all. Both stay
/// below the `128u` allowed.
const ALLOWANCE: f64 = 64.0 * f64::EPSILON;

/// A class of sacks at bit-identical residuals: `members[at..end]` of a
/// [`SlackOrder`], in index order, so `members[at]` is the one best fit can
/// pick. `key` is the item-free part of the class's slack.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: f64,
    rw: f64,
    rv: f64,
    at: usize,
    end: usize,
}

/// A key-ordered run of entries: `slots[base..base + len]` of a
/// [`SlackOrder`], and the largest residual in each dimension among them.
#[derive(Debug)]
struct Run {
    base: usize,
    len: usize,
    room: Summary,
}

/// The sacks of one [`place`] pass, as classes of identical residuals in
/// the order of their slack key `rw/W + rv/V`. A class sits in one
/// [`Entry`]; entries sit in key order in runs of at most [`RUN`], each a
/// segment of one flat vector.
#[derive(Debug, Default)]
struct SlackOrder {
    scales: (f64, f64),
    /// How far below `c(item)` the key of a sack the item fits can lie
    /// before [`ALLOWANCE`]: `2e-12/W + 2e-12/V`.
    edge: f64,
    members: Vec<usize>,
    slots: Vec<Entry>,
    runs: Vec<Run>,
    /// Segments of `slots` whose run emptied, for the next split to reuse.
    free: Vec<usize>,
    /// `(key, rw bits, rv bits, sack)`, and the classes they form: the
    /// working buffers of [`SlackOrder::reset`].
    keyed: Vec<(f64, u64, u64, usize)>,
    entries: Vec<Entry>,
}

impl SlackOrder {
    /// Orders the sacks of `problem`, replacing every earlier state. One
    /// sort of the sack indices by key, then by capacity bits, then by
    /// index makes each class a contiguous slice in index order and lists
    /// the classes in key order; runs start half full.
    fn reset(&mut self, problem: &Problem, scales: (f64, f64)) {
        self.keyed.clear();
        self.keyed.extend(problem.sacks().iter().enumerate().map(|(s, sack)| {
            let (rw, rv) = (sack.weight_capacity, sack.volume_capacity);
            (slack_key(rw, rv, scales), rw.to_bits(), rv.to_bits(), s)
        }));
        self.keyed.sort_unstable_by(|a, b| {
            a.0.total_cmp(&b.0).then((a.1, a.2, a.3).cmp(&(b.1, b.2, b.3)))
        });
        let mut entries = std::mem::take(&mut self.entries);
        entries.clear();
        for class in self.keyed.chunk_by(|a, b| (a.1, a.2) == (b.1, b.2)) {
            let at = entries.last().map_or(0, |e: &Entry| e.end);
            let (key, rw, rv, _) = class[0];
            let (rw, rv) = (f64::from_bits(rw), f64::from_bits(rv));
            entries.push(Entry { key, rw, rv, at, end: at + class.len() });
        }
        self.members.clear();
        self.members.reserve(self.keyed.len() + problem.num_items());
        self.members.extend(self.keyed.iter().map(|k| k.3));
        self.scales = scales;
        self.edge = 2e-12 / scales.0 + 2e-12 / scales.1;
        self.slots.clear();
        self.runs.clear();
        self.free.clear();
        for chunk in entries.chunks(RUN / 2) {
            let base = self.segment();
            self.slots[base..base + chunk.len()].copy_from_slice(chunk);
            self.runs.push(Run { base, len: chunk.len(), room: Summary::NONE });
            self.refresh(self.runs.len() - 1);
        }
        self.entries = entries;
    }

    fn entries(&self, run: &Run) -> &[Entry] {
        &self.slots[run.base..run.base + run.len]
    }

    fn last_key(&self, run: &Run) -> f64 {
        self.slots[run.base + run.len - 1].key
    }

    /// A vacant segment of [`RUN`] slots: a freed one, else a new one.
    fn segment(&mut self) -> usize {
        self.free.pop().unwrap_or_else(|| {
            let filler = Entry { key: 0.0, rw: 0.0, rv: 0.0, at: 0, end: 0 };
            self.slots.resize(self.slots.len() + RUN, filler);
            self.slots.len() - RUN
        })
    }

    fn refresh(&mut self, r: usize) {
        let room = largest_room(self.entries(&self.runs[r]).iter().map(|e| (e.rw, e.rv)));
        self.runs[r].room = Summary::room(room);
    }

    /// The entry whose first sack plain best fit packs `item` into — the
    /// least slack among the sacks `item` fits, the lowest index on exact
    /// ties — as `(run, position)`; `None` when it fits no sack.
    ///
    /// A sack `item` fits has `r ≥ size − 2e-12` in each dimension (see
    /// [`ALLOWANCE`]), so no key below `c − edge − ALLOWANCE` holds one: the
    /// walk starts there. It skips runs whose room cannot hold the item and
    /// stops at the first key above the incumbent's `slack + c +
    /// ALLOWANCE`, past which every slack is strictly above the incumbent's.
    /// The allowance only bounds the walk: the winner is compared on the
    /// computed slack and the sack index, as the full scan compares them.
    fn best_fit(&self, item: &Item) -> Option<(usize, usize)> {
        let c = slack_key(item.weight, item.volume, self.scales);
        let lo = c - self.edge - ALLOWANCE;
        let first = self.runs.partition_point(|run| self.last_key(run) < lo);
        // The incumbent's (slack, sack, run, position).
        let mut best: Option<(f64, usize, usize, usize)> = None;
        let mut stop = f64::INFINITY;
        for (r, run) in self.runs.iter().enumerate().skip(first) {
            let entries = self.entries(run);
            if entries[0].key > stop {
                break;
            }
            if !run.room.fits(item) {
                continue;
            }
            let from = if r == first { entries.partition_point(|e| e.key < lo) } else { 0 };
            for (k, e) in entries.iter().enumerate().skip(from) {
                if e.key > stop {
                    break;
                }
                if !Summary::room((e.rw, e.rv)).fits(item) {
                    continue;
                }
                let slack = best_fit_slack(item, e.rw, e.rv, self.scales);
                let sack = self.members[e.at];
                if best.is_none_or(|(bs, b, ..)| slack < bs || (slack == bs && sack < b)) {
                    best = Some((slack, sack, r, k));
                    stop = slack + c + ALLOWANCE;
                }
            }
        }
        best.map(|(_, _, r, k)| (r, k))
    }

    /// Packs `item` into the first sack of entry `(r, k)` and returns that
    /// sack, which leaves its class and re-enters as its own entry at its
    /// new key.
    fn pack(&mut self, (r, k): (usize, usize), item: &Item) -> usize {
        let e = &mut self.slots[self.runs[r].base + k];
        let sack = self.members[e.at];
        e.at += 1;
        let (rw, rv) = (e.rw - item.weight, e.rv - item.volume);
        if e.at == e.end {
            self.remove(r, k);
        }
        self.members.push(sack);
        let at = self.members.len() - 1;
        self.insert(Entry { key: slack_key(rw, rv, self.scales), rw, rv, at, end: at + 1 });
        sack
    }

    fn remove(&mut self, r: usize, k: usize) {
        let run = &mut self.runs[r];
        self.slots.copy_within(run.base + k + 1..run.base + run.len, run.base + k);
        run.len -= 1;
        if run.len == 0 {
            self.free.push(run.base);
            self.runs.remove(r);
        } else {
            self.refresh(r);
        }
    }

    /// Inserts `entry` into the first run whose last key is not below its
    /// own (else the last run), splitting that run first if it is full.
    fn insert(&mut self, entry: Entry) {
        let mut r = self.runs.partition_point(|run| self.last_key(run) < entry.key);
        if self.runs.is_empty() {
            let base = self.segment();
            self.runs.push(Run { base, len: 0, room: Summary::NONE });
        }
        r = r.min(self.runs.len() - 1);
        if self.runs[r].len == RUN {
            self.split(r);
            r += usize::from(self.last_key(&self.runs[r]) < entry.key);
        }
        let run = &mut self.runs[r];
        let segment = &mut self.slots[run.base..run.base + run.len + 1];
        let k = segment[..run.len].partition_point(|e| e.key < entry.key);
        segment.copy_within(k..run.len, k + 1);
        segment[k] = entry;
        run.len += 1;
        let room = (run.room.weight.max(entry.rw), run.room.volume.max(entry.rv));
        run.room = Summary::room(room);
    }

    /// Moves the upper half of full run `r` into a new run after it.
    fn split(&mut self, r: usize) {
        let base = self.segment();
        let from = self.runs[r].base + RUN / 2;
        self.slots.copy_within(from..from + RUN / 2, base);
        self.runs[r].len = RUN / 2;
        self.runs.insert(r + 1, Run { base, len: RUN / 2, room: Summary::NONE });
        self.refresh(r);
        self.refresh(r + 1);
    }
}

/// Plain best fit: items in `index` order, each into the feasible sack with
/// the least leftover headroom, then the lowest index — the placement of a
/// full scan of every sack per item (`place_scan` in this module's tests),
/// found through a [`SlackOrder`]. An item larger than the largest sack is
/// skipped before the walk: residuals only shrink.
///
/// Cost per item: two binary searches to the fit edge, then, up to the
/// incumbent's stop key, one room test per run, one fit test per entry of a
/// run that passes, and one slack per entry the item fits. Identical sacks
/// are one entry, so a fleet of a few capacities starts as a few entries;
/// every packed sack becomes its own. A placement moves at most [`RUN`]
/// entries and rescans one run's room; a split or an emptied run shifts the
/// run list.
fn place(problem: &Problem, index: &DensityIndex, order: &mut SlackOrder) -> Packing {
    order.reset(problem, index.scales);
    let sacks = problem.sacks();
    let room =
        Summary::room(largest_room(sacks.iter().map(|s| (s.weight_capacity, s.volume_capacity))));
    let mut packing = Packing::empty(problem.num_items());
    for &i in &index.order {
        let item = problem.items()[i];
        if !room.fits(&item) {
            continue;
        }
        if let Some(at) = order.best_fit(&item) {
            packing.assign(i, Some(order.pack(at, &item)));
        }
    }
    packing
}

/// Hill-climbing improvement over an initial packing. Each round visits the
/// unpacked scoring items ([`Problem::scoring`]) in index order twice: first
/// each is *inserted* into the lowest-indexed sack with room, then every
/// one still unpacked *swaps* with the lowest-indexed packed item of lower
/// profit whose sack it fits once that item is out. Rounds repeat until one
/// makes no move, or `max_rounds` have run. Returns the improved packing.
///
/// Both "lowest-indexed" searches are `FirstHit` tree queries — over sacks
/// keyed by residual capacity, and over items keyed by profit and the
/// residual of their sack with the item itself removed — that find what
/// the linear scans they replaced found (pinned in this module's tests).
/// A swap query runs only for an item past two exact necessary tests: the
/// tree's root and a `Staircase` of the packed items' leaves.
///
/// A round costs `O(N + M)` of bookkeeping, one `O(P log P)` sort of the
/// `P` packed leaves, `O(log P)` per unpacked item, a query per item the
/// gate admits, and `O(k·log N)` per swap re-keying its sack's `k` leaves.
/// A query is not worst-case logarithmic: a node can pass all three summary
/// tests through three *different* leaves and hold no hit, so it can cost
/// `O(N)`, as the scan did. The gate keeps such queries few: ~200 a solve
/// on the benchmark's route-deflated 5998 × 2999 world, where ~4 000 items
/// pass the root alone. The bookkeeping rewrites buffers the thread keeps
/// between solves — both trees, the per-sack member lists, the item slots,
/// the residuals and the gate's steps — so once the thread has solved an
/// instance of this size, a round allocates nothing.
pub fn local_search(problem: &Problem, initial: Packing, max_rounds: usize) -> Packing {
    with_scratch(|scratch| search(&mut scratch.search, problem, initial, max_rounds))
}

/// The working buffers of [`local_search`].
#[derive(Debug, Default)]
struct SearchState {
    sacks: FirstHit,
    packed: FirstHit,
    /// The items packed in each sack; sacks past the problem's are unused.
    members: Vec<Vec<usize>>,
    /// Each packed item's sack and its slot in that sack's `members`.
    slot_of: Vec<(usize, usize)>,
    residual: Vec<(f64, f64)>,
    gate: Staircase,
}

/// [`local_search`] in the buffers of `state`.
fn search(
    state: &mut SearchState,
    problem: &Problem,
    initial: Packing,
    max_rounds: usize,
) -> Packing {
    let SearchState { sacks, packed, members, slot_of, residual, gate } = state;
    let items = problem.items();
    let mut packing = initial;
    sacks.reset(problem.num_sacks());
    packed.reset(items.len());
    if members.len() < problem.num_sacks() {
        members.resize_with(problem.num_sacks(), Vec::new);
    }
    let members = &mut members[..problem.num_sacks()];
    slot_of.clear();
    slot_of.resize(items.len(), (0, 0));
    for _ in 0..max_rounds {
        packing.residual_into(problem, residual);
        let mut improved = false;

        // Insert moves.
        sacks.fill(residual.iter().copied().map(Summary::room));
        for i in problem.scoring() {
            let item = &items[i];
            if packing.sack_of(i).is_some() {
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
                slot_of[j] = (s, members[s].len());
                members[s].push(j);
            }
        }
        packed.fill(
            packing
                .placement()
                .iter()
                .enumerate()
                .map(|(j, s)| s.map_or(Summary::NONE, |s| leaf(j, s, residual))),
        );
        let mut gated = false;
        for i in problem.scoring() {
            let inc = &items[i];
            if packing.sack_of(i).is_some() || !packed.root().yields_to(inc) {
                continue;
            }
            if !gated {
                let placed = packing.placement().iter().enumerate();
                gate.rebuild(placed.filter_map(|(j, s)| s.map(|s| leaf(j, s, residual))));
                gated = true;
            }
            if !gate.admits(inc) {
                continue;
            }
            // Only packed leaves admit a swap, so `slot_of[j]` is current.
            let Some(j) = packed.first_from(0, |out| out.yields_to(inc)) else { continue };
            let (s, slot) = slot_of[j];
            let freed = leaf(j, s, residual);
            packing.assign(j, None);
            packing.assign(i, Some(s));
            residual[s] = (freed.weight - inc.weight, freed.volume - inc.volume);
            improved = true;
            // Sack `s` changed residual and membership: re-key its leaves.
            members[s][slot] = i;
            slot_of[i] = (s, slot);
            packed.set(j, Summary::NONE);
            for &k in &members[s] {
                let rekeyed = leaf(k, s, residual);
                packed.set(k, rekeyed);
                gate.insert(rekeyed);
            }
        }

        if !improved {
            break;
        }
    }
    packing
}

/// The swap gate of [`local_search`]: leaves as steps of weight headroom
/// (non-increasing), each with the least profit at or above it (falling).
/// [`Staircase::admits`] applies [`Summary::yields_to`]'s weight and profit
/// tests to the same leaf values; `fl(x + 1e-12)` is monotone, so the steps
/// an item fits are a prefix whose last profit is their least, and an item
/// it rejects is one no leaf admits. Steps of leaves a swap has since moved
/// or re-keyed stay, and only admit more.
#[derive(Debug, Default)]
struct Staircase(Vec<(f64, f64)>);

impl Staircase {
    /// Replaces the steps with those of `leaves`.
    fn rebuild(&mut self, leaves: impl Iterator<Item = Summary>) {
        let steps = &mut self.0;
        steps.clear();
        steps.extend(leaves.map(|leaf| (leaf.weight, leaf.profit)));
        steps.sort_unstable_by(|a, b| b.0.total_cmp(&a.0));
        steps.dedup_by(|next, kept| next.1 >= kept.1);
    }

    /// Adds a leaf unless a step at no less headroom already has no more
    /// profit; the steps below it with no less profit go.
    fn insert(&mut self, leaf: Summary) {
        let at = self.0.partition_point(|&(h, _)| h >= leaf.weight);
        if at > 0 && self.0[at - 1].1 <= leaf.profit {
            return;
        }
        let end = at + self.0[at..].partition_point(|&(_, p)| p >= leaf.profit);
        self.0.splice(at..end, [(leaf.weight, leaf.profit)]);
    }

    fn admits(&self, item: &Item) -> bool {
        let fit = self.0.partition_point(|&(h, _)| item.weight <= h + 1e-12);
        fit > 0 && item.profit > self.0[fit - 1].1 + 1e-12
    }
}

/// Convenience: greedy followed by local search.
pub fn greedy_with_local_search(problem: &Problem) -> Packing {
    with_scratch(|scratch| {
        let packing = scratch.greedy(problem);
        search(&mut scratch.search, problem, packing, 32)
    })
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

    /// The greedy's visiting order as it stood before the sort was hoisted
    /// into `DensityIndex`, over the items with `profit > 0.0`, and the
    /// scales it normalised by.
    fn order_original(problem: &Problem) -> (Vec<usize>, (f64, f64)) {
        let total_w: f64 =
            problem.sacks().iter().map(|s| s.weight_capacity).sum::<f64>().max(1e-12);
        let total_v: f64 =
            problem.sacks().iter().map(|s| s.volume_capacity).sum::<f64>().max(1e-12);
        let mut order: Vec<usize> =
            (0..problem.num_items()).filter(|&i| problem.items()[i].profit > 0.0).collect();
        order.sort_by(|&a, &b| {
            let da = problem.items()[a].density(total_w, total_v);
            let db = problem.items()[b].density(total_w, total_v);
            db.partial_cmp(&da).expect("densities comparable").then(
                problem.items()[b].profit.partial_cmp(&problem.items()[a].profit).expect("finite"),
            )
        });
        (order, (total_w, total_v))
    }

    /// The original `greedy`, verbatim but for the items it visits — the
    /// regression oracle for exact output equality.
    fn greedy_original(problem: &Problem) -> Packing {
        let n = problem.num_items();
        let (order, (total_w, total_v)) = order_original(problem);
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

            // The full warm-start chain stays put too.
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
            let plain = greedy(&p);
            let weighted = greedy_weighted(&p, &vec![m; p.sacks().len()]);
            assert_eq!(weighted, plain, "round {round}");
        }
    }

    /// `place` verbatim as it stood before the sacks were walked in blocks,
    /// over `order_original`: one sequential scan of every sack per item —
    /// the oracle the slack order and the weighted scan are held to.
    fn place_scan(problem: &Problem, multiplier: impl Fn(usize) -> f64) -> Packing {
        let (order, (total_w, total_v)) = order_original(problem);
        let mut packing = Packing::empty(problem.num_items());
        let mut residual: Vec<(f64, f64)> =
            problem.sacks().iter().map(|s| (s.weight_capacity, s.volume_capacity)).collect();
        let room = Summary::room(largest_room(residual.iter().copied()));
        for &i in &order {
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

    /// Sack counts on both sides of 64, the entries a run of the slack order
    /// starts with: one sack, one short, exactly 64, one over, and several
    /// runs.
    const SACK_COUNTS: [usize; 6] = [1, 63, 64, 65, 130, 300];

    /// A seeded instance of `shape` over `m` sacks, drawn to put ties, signed
    /// zeros and the fit edge in play.
    fn tie_instance(rng: &mut StdRng, m: usize, shape: usize) -> Problem {
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
                // Equal least-slack sacks on both sides of each multiple of
                // 64, everything else roomier.
                2 if s % 64 == 63 || s % 64 == 0 => (2.0, 2.0),
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
    fn best_fit_bit_identical_to_original() {
        let mut rng = StdRng::seed_from_u64(0xB10C);
        for m in SACK_COUNTS {
            for shape in 0..4 {
                for round in 0..6 {
                    let p = tie_instance(&mut rng, m, shape);
                    let what = format!("{m} sacks, shape {shape}, round {round}");
                    assert_eq!(greedy(&p), greedy_original(&p), "{what}");
                }
            }
        }
    }

    #[test]
    fn best_fit_ties_keep_the_first_sack() {
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
    fn weighted_greedy_matches_the_scan() {
        let mut rng = StdRng::seed_from_u64(0x5CA7);
        for m in SACK_COUNTS {
            for shape in 0..4 {
                for round in 0..4 {
                    let p = tie_instance(&mut rng, m, shape);
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
                    let scan = place_scan(&p, |s| multipliers[s]);
                    let what = format!("{m} sacks, shape {shape}, round {round}");
                    assert_eq!(greedy_weighted(&p, &multipliers), scan, "{what}");
                }
            }
        }
    }

    /// `x` moved `k` units in the last place (up for positive `k`), for
    /// positive `x`.
    fn ulps(x: f64, k: i64) -> f64 {
        f64::from_bits(x.to_bits().wrapping_add_signed(k))
    }

    /// Sacks at one or two base capacities, half of them exactly at a base
    /// (classes that every placement into them splits), the rest moved 1–4
    /// ulps in either dimension; items sized in tenths, so residuals reached
    /// by different sums differ by a few ulps, beside items exactly at the
    /// `1e-12` fit edge of a base capacity. Slacks tie or differ by a few
    /// ulps between sacks whose index and key orders disagree.
    fn ulp_instance(rng: &mut StdRng, m: usize) -> Problem {
        let bases = [(1.0, 1.0), (0.6, 0.9), (2.0, 0.5), (0.7, 0.7)];
        let pair = [bases[rng.gen_range(0..4)], bases[rng.gen_range(0..4)]];
        let sacks: Vec<(f64, f64)> = (0..m)
            .map(|_| {
                let (w, v) = pair[rng.gen_range(0..2)];
                match rng.gen_range(0..4) {
                    0 | 1 => (w, v),
                    2 => (ulps(w, rng.gen_range(-4..=4)), v),
                    _ => (ulps(w, rng.gen_range(-4..=4)), ulps(v, rng.gen_range(-4..=4))),
                }
            })
            .collect();
        let tenths = |rng: &mut StdRng| f64::from(rng.gen_range(0..8u8)) / 10.0;
        let items: Vec<(f64, f64, f64)> = (0..2 * m + 6)
            .map(|_| {
                let profit = f64::from(rng.gen_range(1..5u8));
                let (w, v) = pair[rng.gen_range(0..2)];
                match rng.gen_range(0..8) {
                    0 => (w + 1e-12, v, profit),
                    1 => (w, v + 1e-12, profit),
                    2 => (ulps(tenths(rng) + 0.1, rng.gen_range(-2..=2)), tenths(rng), profit),
                    _ => (tenths(rng), tenths(rng), profit),
                }
            })
            .collect();
        problem(items, sacks)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(200))]

        /// Plain best fit through the slack order is the full scan's
        /// placement where slacks tie or differ by a few ulps, where a key
        /// sits at the fit edge, and where placements split classes.
        #[test]
        fn slack_order_matches_the_scan_at_ulp_ties(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            for m in [1, 9, 63, 64, 65, 300] {
                let p = ulp_instance(&mut rng, m);
                proptest::prop_assert_eq!(greedy(&p), place_scan(&p, |_| 1.0), "{} sacks", m);
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

    /// Sizes and capacities on a dyadic grid, so a leaf's headroom
    /// `residual + weight` is exact, beside weights exactly `1e-12` past a
    /// headroom (which the swap's fit test admits) and `2e-12` past it
    /// (which it rejects); profits `1e-12` apart (no swap) and `2e-12`
    /// apart (a swap). Several items share a sack, so a swap re-keys
    /// leaves that a later item in the same round can displace.
    fn tolerance_edge_instance(rng: &mut StdRng, m: usize) -> Problem {
        let sacks = [(2.0, 1.0), (1.0, 1.0), (3.0, 2.0)];
        let sacks: Vec<(f64, f64)> = (0..m).map(|_| sacks[rng.gen_range(0..3)]).collect();
        let items: Vec<(f64, f64, f64)> = (0..rng.gen_range(2 * m..4 * m + 6))
            .map(|_| {
                let base = [0.5, 1.0, 1.5, 2.0, 3.0][rng.gen_range(0..5)];
                let weight = match rng.gen_range(0..4) {
                    0 => base + 1e-12,
                    1 => base + 2e-12,
                    _ => base,
                };
                let profit = f64::from(rng.gen_range(1..4u8));
                let profit = match rng.gen_range(0..4) {
                    0 => profit + 1e-12,
                    1 => profit + 2e-12,
                    _ => profit,
                };
                (weight, f64::from(rng.gen_range(0..2u8)) / 2.0, profit)
            })
            .collect();
        problem(items, sacks)
    }

    /// The swap gate skips only items no packed leaf admits: held to the
    /// scan where profits and headrooms sit at the `1e-12` edges of the
    /// swap test, and where a swap re-keys the leaves a later swap takes.
    #[test]
    fn local_search_matches_the_scan_at_tolerance_edges() {
        let mut rng = StdRng::seed_from_u64(0xED6E);
        let mut swapped_out = 0;
        for round in 0..400 {
            let p = tolerance_edge_instance(&mut rng, 1 + round % 7);
            let n = p.num_items();
            for (label, start) in [("greedy", greedy(&p)), ("empty", Packing::empty(n))] {
                for max_rounds in [1, 32] {
                    let what = format!("round {round}, {label} start, {max_rounds} rounds");
                    swapped_out += assert_matches_scan(&p, &start, max_rounds, &what);
                }
            }
        }
        assert!(swapped_out > 100, "the suite must exercise swaps, saw {swapped_out}");
    }

    /// A swap frees headroom in its sack; the re-keyed leaf is the only one
    /// a later, larger item of the same round fits.
    #[test]
    fn swap_gate_sees_leaves_a_swap_re_keys() {
        // Items 0 and 1 fill the sack; 2 displaces 0 and leaves 1 with 1.5
        // of headroom, which only 3 (weight 1.4) fits.
        let items = vec![(1.0, 0.0, 1.0), (1.0, 0.0, 5.0), (0.5, 0.0, 2.0), (1.4, 0.0, 6.0)];
        let p = problem(items, vec![(2.0, 1.0)]);
        let mut start = Packing::empty(4);
        start.assign(0, Some(0));
        start.assign(1, Some(0));
        let got = local_search(&p, start.clone(), 1);
        assert_eq!(got.placement(), [None, None, Some(0), Some(0)]);
        assert_matches_scan(&p, &start, 1, "re-keyed leaf");
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
