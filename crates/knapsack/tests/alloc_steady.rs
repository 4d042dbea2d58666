//! Buffer reuse in the greedy is invisible except in the allocator.
//!
//! A controller re-solves the same fleet every round at fresh importances,
//! so `greedy_with_local_search` keeps its working buffers on the thread
//! between solves. Two contracts hold that reuse to account:
//! - once a thread has solved an instance of a size, re-solving it, or the
//!   same world at fresh profits, makes no allocation of 64 KiB or more
//!   except the returned `Packing`;
//! - a thread that solved other instances first, larger and smaller,
//!   returns the same packing, to the bit, as a fresh thread.
//!
//! This binary's global allocator counts, per thread, the large
//! allocations made while the thread is armed; everything is forwarded to
//! the system allocator unchanged.

use knapsack::generator::{generate, GeneratorConfig};
use knapsack::greedy::{greedy, greedy_with_local_search, local_search};
use knapsack::problem::{Item, Packing, Problem, Sack};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The size from which an allocation counts as large.
const LARGE: usize = 64 * 1024;
/// Large allocations whose sizes are kept; later ones are only counted.
const KEPT: usize = 32;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
    static SIZES: Cell<[usize; KEPT]> = const { Cell::new([0; KEPT]) };
}

/// Records an allocation of `size` bytes on this thread. Touches only
/// const-initialised thread-locals, so it never allocates itself.
fn note(size: usize) {
    if size < LARGE || !ARMED.get() {
        return;
    }
    let k = COUNT.get();
    COUNT.set(k + 1);
    if k < KEPT {
        let mut sizes = SIZES.get();
        sizes[k] = size;
        SIZES.set(sizes);
    }
}

struct Counting;

// SAFETY: every method passes its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `note` reads only the size and
// neither allocates nor touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` meets `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the sizes of the large allocations
/// it made on this thread.
fn large_allocations<R>(f: impl FnOnce() -> R) -> (R, Vec<usize>) {
    COUNT.set(0);
    ARMED.set(true);
    let result = f();
    ARMED.set(false);
    let count = COUNT.get();
    assert!(count <= KEPT, "{count} large allocations");
    (result, SIZES.get()[..count].to_vec())
}

/// The benchmark's re-solve shape: two unit-demand tasks per worker whose
/// reference times sum to twice the fleet's budget, each sack's time limit
/// scaled by a squared route factor (so greedy leaves most items out and
/// local search swaps), resource capacities from four values. `round`
/// draws the profits, as a controller's fresh importances; the sizes and
/// sacks depend on `seed` alone.
fn mesh_round(num_sacks: usize, seed: u64, round: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let times: Vec<f64> = (0..2 * num_sacks).map(|_| rng.gen_range(2e5..4e6) * 4.75e-7).collect();
    let limit = 0.5 * times.iter().sum::<f64>() / num_sacks as f64;
    let sacks = (0..num_sacks)
        .map(|_| {
            let factor: f64 = rng.gen_range(0.2..1.0);
            let capacity = [4.0, 6.0, 8.0, 32.0][rng.gen_range(0..4)];
            Sack::new(limit * factor * factor, capacity).unwrap()
        })
        .collect();
    let mut profits = StdRng::seed_from_u64(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let items = times.iter().map(|&t| Item::new(t, 1.0, profits.gen_range(0.0..1.0)).unwrap());
    Problem::new(items.collect(), sacks).unwrap()
}

fn packing_bytes(problem: &Problem) -> usize {
    problem.num_items() * std::mem::size_of::<Option<usize>>()
}

#[test]
fn a_steady_re_solve_allocates_only_its_packing() {
    let world = mesh_round(3000, 0x57EAD, 0);
    let want = packing_bytes(&world);
    assert!(want >= LARGE, "the returned packing is itself a large allocation");
    let (first, cold) = large_allocations(|| greedy_with_local_search(&world));
    assert!(cold.len() > 1, "a cold solve sizes its buffers: {cold:?}");

    let (again, sizes) = large_allocations(|| greedy_with_local_search(&world));
    assert_eq!(again, first);
    assert_eq!(sizes, [want], "re-solving the same instance");

    for round in 1..4 {
        let repriced = mesh_round(3000, 0x57EAD, round);
        let (_, sizes) = large_allocations(|| greedy_with_local_search(&repriced));
        assert_eq!(sizes, [want], "the same world at round {round}'s profits");
    }
}

/// Every entry point that reuses the buffers, on one instance.
fn solve_all(problem: &Problem) -> [Packing; 3] {
    [
        greedy_with_local_search(problem),
        greedy(problem),
        local_search(problem, Packing::empty(problem.num_items()), 32),
    ]
}

#[test]
fn what_a_thread_solved_before_changes_no_packing() {
    let mut rng = StdRng::seed_from_u64(0x5C4A7C);
    let small = GeneratorConfig { num_items: 40, num_sacks: 6, ..GeneratorConfig::default() };
    // More sacks than items, so sacks past a smaller instance's are in use.
    let wide = GeneratorConfig { num_items: 150, num_sacks: 400, ..GeneratorConfig::default() };
    let sequence = [
        mesh_round(3000, 0xB16, 0),
        generate(small, &mut rng),
        generate(wide, &mut rng),
        mesh_round(3000, 0xB16, 1),
        generate(small, &mut rng),
        mesh_round(300, 0xB16, 2),
    ];
    let fresh: Vec<[Packing; 3]> = sequence
        .iter()
        .map(|p| std::thread::scope(|s| s.spawn(|| solve_all(p)).join().unwrap()))
        .collect();
    let reused: Vec<[Packing; 3]> =
        std::thread::scope(|s| s.spawn(|| sequence.iter().map(solve_all).collect()).join())
            .unwrap();
    for (k, (fresh, reused)) in fresh.iter().zip(&reused).enumerate() {
        assert_eq!(fresh, reused, "instance {k} of the sequence");
    }
}
