//! # dcta-parallel — deterministic scoped parallel maps
//!
//! A minimal, std-only execution layer for the workspace's hot loops
//! (leave-one-out importance, Shapley permutation sampling, per-cluster DQN
//! training, benchmark sweeps). The whole workspace promises bit-for-bit
//! reproducibility (see `learn::linalg`), so the layer's contract is strict:
//!
//! **Determinism contract.** For a *pure* closure `f` (no interior
//! mutability, output depends only on the input item/index),
//! [`par_map`]/[`par_map_indexed`] return exactly the `Vec` the serial loop
//! `(0..n).map(f).collect()` would return — same order, same `f64` bits —
//! for every thread count. This holds by construction: items are never
//! re-associated or reduced across threads; each output slot is computed by
//! exactly one closure call and written to its final position, and any
//! cross-item combining is left to the (serial) caller.
//!
//! Work is chunked: contiguous index ranges are claimed from an atomic
//! counter by a scoped crew of worker threads (std threads, no external
//! runtime), so uneven per-item cost load-balances without changing output
//! order. Each chunk's outputs land in a `OnceLock` slot that only the
//! worker which claimed the chunk sets, so no lock is taken and none can be
//! poisoned; sharing the slots across the crew is why outputs and errors
//! must be `Sync` as well as `Send`. With an effective thread count of 1 the
//! implementation *is* the serial loop — no threads are spawned at all. The
//! crew is additionally capped by a serial-below-threshold guard
//! ([`DEFAULT_MIN_ITEMS_PER_THREAD`], tunable per call via the `*_grained`
//! variants), so tiny workloads never pay thread spawn/join overhead.
//!
//! ## Thread-count configuration
//!
//! The effective thread count is resolved, in order, from:
//! 1. a process-wide override set with [`set_max_threads`] (used by
//!    benchmarks to sweep 1 vs N within one process),
//! 2. the `DCTA_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! ## Errors
//!
//! [`try_par_map`]/[`try_par_map_indexed`] mirror `Iterator::collect::<
//! Result<_, _>>` determinism: when several items fail, the error of the
//! *lowest index* is returned — exactly the error a serial left-to-right
//! loop would surface first. (Unlike the serial loop, later items may still
//! have been evaluated; with pure closures this is unobservable.)
//!
//! ## Examples
//!
//! ```
//! let squares = parallel::par_map_indexed(5, |i| (i * i) as f64);
//! assert_eq!(squares, vec![0.0, 1.0, 4.0, 9.0, 16.0]);
//!
//! let doubled = parallel::par_map(&[1, 2, 3], |&x| x * 2);
//! assert_eq!(doubled, vec![2, 4, 6]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide thread-count override; 0 means "no override".
static MAX_THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Environment variable consulted when no override is set.
pub const THREADS_ENV: &str = "DCTA_THREADS";

/// Chunks handed out per worker thread: >1 so uneven per-item cost
/// load-balances, small enough that chunk bookkeeping stays negligible.
const CHUNKS_PER_THREAD: usize = 4;

/// Minimum items each worker thread must have before the standard entry
/// points ([`par_map`], [`par_map_indexed`], `try_*`) will spawn it.
///
/// Tiny workloads lose more to thread spawn/join than they gain from
/// parallelism (the perf log showed a 0.90× *slowdown* on a ~10-item map at
/// 2 threads), so the default entry points cap the crew at
/// `n / DEFAULT_MIN_ITEMS_PER_THREAD` workers and fall back to the exact
/// serial loop below that. Callers that know their per-item cost can pick a
/// different grain via the `*_grained` variants: `1` restores the old
/// always-parallel behaviour for few-but-expensive items (e.g. per-cluster
/// DQN pretraining), larger grains serialise cheap fine-grained maps.
/// The guard only changes *how* the work runs, never the result — every
/// thread count returns identical bits.
pub const DEFAULT_MIN_ITEMS_PER_THREAD: usize = 2;

/// The worker-crew size for `n` items at `min_items_per_thread` grain: the
/// configured [`max_threads`], capped so each worker has at least the grain's
/// worth of items (always at least 1).
fn effective_threads(n: usize, min_items_per_thread: usize) -> usize {
    max_threads().min(n / min_items_per_thread.max(1)).max(1)
}

/// One chunk's outcome: its ordered outputs, or the first failing index.
/// Each chunk index is claimed by exactly one worker, which sets its slot
/// once; the slot is read only after the crew has joined.
type ChunkSlot<U, E> = OnceLock<Result<Vec<U>, (usize, E)>>;

/// Sets a process-wide thread-count override (`0` clears it, falling back
/// to `DCTA_THREADS` / detected parallelism). Benchmarks use this to time
/// identical work at 1 vs N threads inside one process.
pub fn set_max_threads(threads: usize) {
    MAX_THREADS_OVERRIDE.store(threads, Ordering::SeqCst);
}

/// The raw process-wide override as last set by [`set_max_threads`] (or an
/// active [`ScopedThreads`] guard); `0` means "no override". Unlike
/// [`max_threads`] this does not consult `DCTA_THREADS` or detected
/// parallelism — it exists so callers can save and restore the override
/// around a temporary change.
pub fn max_threads_override() -> usize {
    MAX_THREADS_OVERRIDE.load(Ordering::SeqCst)
}

/// RAII guard that overrides the process-wide thread count for a scope.
///
/// On construction the guard swaps in `threads` (as [`set_max_threads`]
/// would); on drop it restores the override that was active before, so
/// guards nest LIFO. The override is *process-wide*, not thread-local:
/// concurrent scopes with different guards race on the same slot, so the
/// guard is intended for the single-threaded orchestration layers
/// (pipeline construction, benchmark drivers), not for worker closures.
/// Per the crate determinism contract the override only changes how work
/// is scheduled, never the bits of any result.
///
/// ```
/// parallel::set_max_threads(0);
/// {
///     let _guard = parallel::ScopedThreads::new(2);
///     assert_eq!(parallel::max_threads(), 2);
/// }
/// assert_eq!(parallel::max_threads_override(), 0);
/// ```
#[derive(Debug)]
#[must_use = "the override is restored when the guard drops"]
pub struct ScopedThreads {
    prior: usize,
}

impl ScopedThreads {
    /// Overrides the thread count until the guard drops (`0` = clear the
    /// override for the scope).
    pub fn new(threads: usize) -> Self {
        Self { prior: MAX_THREADS_OVERRIDE.swap(threads, Ordering::SeqCst) }
    }
}

impl Drop for ScopedThreads {
    fn drop(&mut self) {
        MAX_THREADS_OVERRIDE.store(self.prior, Ordering::SeqCst);
    }
}

/// The effective maximum thread count: the [`set_max_threads`] override if
/// set, else `DCTA_THREADS` if parseable and non-zero, else
/// [`std::thread::available_parallelism`] (1 when undetectable).
pub fn max_threads() -> usize {
    let over = MAX_THREADS_OVERRIDE.load(Ordering::SeqCst);
    if over > 0 {
        return over;
    }
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// Maps `f` over `items`, in parallel, returning outputs in input order.
///
/// See the crate docs for the determinism contract: with a pure `f` the
/// result is bit-identical to `items.iter().map(f).collect()` at every
/// thread count.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send + Sync,
    F: Fn(&T) -> U + Sync,
{
    par_map_grained(items, DEFAULT_MIN_ITEMS_PER_THREAD, f)
}

/// [`par_map`] with an explicit serial-below-threshold grain: at most
/// `n / min_items_per_thread` worker threads are used (serial below that).
/// The grain never changes the result, only the crew size.
pub fn par_map_grained<T, U, F>(items: &[T], min_items_per_thread: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send + Sync,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed_grained(items.len(), min_items_per_thread, |i| f(&items[i]))
}

/// Maps `f` over `0..n`, in parallel, returning outputs in index order.
///
/// See the crate docs for the determinism contract.
pub fn par_map_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send + Sync,
    F: Fn(usize) -> U + Sync,
{
    par_map_indexed_grained(n, DEFAULT_MIN_ITEMS_PER_THREAD, f)
}

/// [`par_map_indexed`] with an explicit serial-below-threshold grain; see
/// [`par_map_grained`].
pub fn par_map_indexed_grained<U, F>(n: usize, min_items_per_thread: usize, f: F) -> Vec<U>
where
    U: Send + Sync,
    F: Fn(usize) -> U + Sync,
{
    match try_par_map_indexed_grained(n, min_items_per_thread, |i| Ok::<U, Infallible>(f(i))) {
        Ok(v) => v,
        Err(e) => match e {},
    }
}

/// Fallible [`par_map`]: returns the lowest-index error, like a serial
/// left-to-right `collect::<Result<_, _>>`.
///
/// # Errors
///
/// The first (lowest-index) `Err` produced by `f`, if any.
pub fn try_par_map<T, U, E, F>(items: &[T], f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send + Sync,
    E: Send + Sync,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    try_par_map_grained(items, DEFAULT_MIN_ITEMS_PER_THREAD, f)
}

/// [`try_par_map`] with an explicit serial-below-threshold grain; see
/// [`par_map_grained`].
///
/// # Errors
///
/// The first (lowest-index) `Err` produced by `f`, if any.
pub fn try_par_map_grained<T, U, E, F>(
    items: &[T],
    min_items_per_thread: usize,
    f: F,
) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send + Sync,
    E: Send + Sync,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    try_par_map_indexed_grained(items.len(), min_items_per_thread, |i| f(&items[i]))
}

/// Fallible [`par_map_indexed`]: returns the lowest-index error, like a
/// serial left-to-right `collect::<Result<_, _>>`.
///
/// # Errors
///
/// The first (lowest-index) `Err` produced by `f`, if any.
pub fn try_par_map_indexed<U, E, F>(n: usize, f: F) -> Result<Vec<U>, E>
where
    U: Send + Sync,
    E: Send + Sync,
    F: Fn(usize) -> Result<U, E> + Sync,
{
    try_par_map_indexed_grained(n, DEFAULT_MIN_ITEMS_PER_THREAD, f)
}

/// [`try_par_map_indexed`] with an explicit serial-below-threshold grain;
/// see [`par_map_grained`]. This is the implementation all other entry
/// points funnel into.
///
/// # Errors
///
/// The first (lowest-index) `Err` produced by `f`, if any.
pub fn try_par_map_indexed_grained<U, E, F>(
    n: usize,
    min_items_per_thread: usize,
    f: F,
) -> Result<Vec<U>, E>
where
    U: Send + Sync,
    E: Send + Sync,
    F: Fn(usize) -> Result<U, E> + Sync,
{
    let threads = effective_threads(n, min_items_per_thread);
    if threads <= 1 {
        // Exact serial path: no threads, natural short-circuit on error.
        return (0..n).map(f).collect();
    }

    // Static chunk boundaries (deterministic), dynamic chunk *claiming*
    // (load-balancing). Each chunk's outputs land in a dedicated slot, so
    // claiming order cannot perturb output order.
    let num_chunks = (threads * CHUNKS_PER_THREAD).min(n);
    let chunk_len = n.div_ceil(num_chunks);
    let next_chunk = AtomicUsize::new(0);
    let slots: Vec<ChunkSlot<U, E>> = (0..num_chunks).map(|_| OnceLock::new()).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let c = next_chunk.fetch_add(1, Ordering::Relaxed);
                if c >= num_chunks {
                    return;
                }
                let start = (c * chunk_len).min(n);
                let end = ((c + 1) * chunk_len).min(n);
                let mut out = Vec::with_capacity(end - start);
                let mut failure = None;
                for i in start..end {
                    match f(i) {
                        Ok(v) => out.push(v),
                        Err(e) => {
                            failure = Some((i, e));
                            break;
                        }
                    }
                }
                // `c` came from the counter once, so this is the slot's only set.
                let _ = slots[c].set(match failure {
                    None => Ok(out),
                    Some(ie) => Err(ie),
                });
            });
        }
    });

    // Serial, in-order assembly; the lowest-index error wins, matching what
    // a serial loop would have returned first.
    let mut results = Vec::with_capacity(n);
    let mut first_err: Option<(usize, E)> = None;
    for slot in slots {
        let outcome = slot.into_inner().expect("chunk completed");
        match outcome {
            Ok(mut v) => results.append(&mut v),
            Err((i, e)) => {
                if first_err.as_ref().is_none_or(|(fi, _)| i < *fi) {
                    first_err = Some((i, e));
                }
            }
        }
    }
    match first_err {
        Some((_, e)) => Err(e),
        None => Ok(results),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Tests mutate the process-wide override; serialise them.
    static LOCK: Mutex<()> = Mutex::new(());

    fn guard(threads: usize) -> MutexGuard<'static, ()> {
        let g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_max_threads(threads);
        g
    }

    #[test]
    fn ordered_output_at_many_threads() {
        let _g = guard(8);
        let out = par_map_indexed(1000, |i| i * 3);
        assert_eq!(out, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
        set_max_threads(0);
    }

    #[test]
    fn serial_path_taken_at_one_thread() {
        let _g = guard(1);
        let out = par_map_indexed(10, |i| i as f64 / 3.0);
        assert_eq!(out, (0..10).map(|i| i as f64 / 3.0).collect::<Vec<_>>());
        set_max_threads(0);
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let _g = guard(0);
        // A float-heavy closure: any re-association would change bits.
        let f = |i: usize| {
            let mut acc = 0.0f64;
            for k in 1..=64 {
                acc += ((i * k) as f64).sqrt() / (k as f64 + 0.1);
            }
            acc
        };
        set_max_threads(1);
        let serial: Vec<u64> = par_map_indexed(257, f).into_iter().map(f64::to_bits).collect();
        for threads in [2, 3, 8] {
            set_max_threads(threads);
            let par: Vec<u64> = par_map_indexed(257, f).into_iter().map(f64::to_bits).collect();
            assert_eq!(par, serial, "thread count {threads} changed bits");
        }
        set_max_threads(0);
    }

    #[test]
    fn par_map_over_slice() {
        let _g = guard(4);
        let items: Vec<i64> = (0..100).collect();
        assert_eq!(par_map(&items, |&x| x - 7), (0..100).map(|x| x - 7).collect::<Vec<i64>>());
        set_max_threads(0);
    }

    #[test]
    fn empty_and_single_inputs() {
        let _g = guard(8);
        assert_eq!(par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indexed(1, |i| i + 1), vec![1]);
        assert_eq!(par_map::<i32, i32, _>(&[], |&x| x), Vec::<i32>::new());
        set_max_threads(0);
    }

    #[test]
    fn lowest_index_error_wins() {
        let _g = guard(0);
        let f = |i: usize| if i % 10 == 3 { Err(i) } else { Ok(i) };
        for threads in [1, 2, 8] {
            set_max_threads(threads);
            assert_eq!(try_par_map_indexed(100, f), Err(3), "threads {threads}");
        }
        set_max_threads(0);
    }

    #[test]
    fn try_success_matches_serial() {
        let _g = guard(8);
        let ok = try_par_map_indexed(50, |i| Ok::<usize, ()>(i * i)).unwrap();
        assert_eq!(ok, (0..50).map(|i| i * i).collect::<Vec<_>>());
        let items = [1.0, 2.0, 3.0];
        let mapped = try_par_map(&items, |&x| Ok::<f64, ()>(x / 7.0)).unwrap();
        assert_eq!(mapped, items.iter().map(|&x| x / 7.0).collect::<Vec<_>>());
        set_max_threads(0);
    }

    #[test]
    fn override_beats_env_and_detection() {
        let _g = guard(3);
        assert_eq!(max_threads(), 3);
        set_max_threads(0);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn scoped_threads_restores_prior_override() {
        let _g = guard(5);
        assert_eq!(max_threads_override(), 5);
        {
            let _s = ScopedThreads::new(2);
            assert_eq!(max_threads(), 2);
            {
                let _inner = ScopedThreads::new(7);
                assert_eq!(max_threads(), 7);
            }
            assert_eq!(max_threads(), 2, "inner guard restores outer override");
        }
        assert_eq!(max_threads_override(), 5, "outer guard restores set_max_threads value");
        set_max_threads(0);
        assert_eq!(max_threads_override(), 0);
    }

    #[test]
    fn serial_guard_caps_crew_size() {
        let _g = guard(8);
        // Default grain: a tiny map gets at most n/2 workers.
        assert_eq!(effective_threads(3, DEFAULT_MIN_ITEMS_PER_THREAD), 1);
        assert_eq!(effective_threads(10, DEFAULT_MIN_ITEMS_PER_THREAD), 5);
        assert_eq!(effective_threads(100, DEFAULT_MIN_ITEMS_PER_THREAD), 8);
        // Explicit grains: 1 restores full parallelism for few expensive
        // items; large grains serialise cheap maps entirely.
        assert_eq!(effective_threads(3, 1), 3);
        assert_eq!(effective_threads(500, 32), 8);
        assert_eq!(effective_threads(40, 32), 1);
        assert_eq!(effective_threads(40, 0), 8, "grain 0 behaves as 1");
        assert_eq!(effective_threads(0, 4), 1, "empty input still yields 1");
        set_max_threads(0);
    }

    #[test]
    fn grained_outputs_bit_identical_to_standard() {
        let _g = guard(0);
        let f = |i: usize| {
            let mut acc = 0.0f64;
            for k in 1..=32 {
                acc += ((i * k) as f64).sqrt() / (k as f64 + 0.3);
            }
            acc
        };
        set_max_threads(1);
        let serial: Vec<u64> = par_map_indexed(100, f).into_iter().map(f64::to_bits).collect();
        for threads in [2, 8] {
            for grain in [1, 2, 16, 64, 1000] {
                set_max_threads(threads);
                let got: Vec<u64> =
                    par_map_indexed_grained(100, grain, f).into_iter().map(f64::to_bits).collect();
                assert_eq!(got, serial, "threads {threads} grain {grain} changed bits");
            }
        }
        set_max_threads(0);
    }

    #[test]
    fn grained_error_reporting_matches_standard() {
        let _g = guard(4);
        let f = |i: usize| if i % 7 == 5 { Err(i) } else { Ok(i) };
        for grain in [1, 4, 100] {
            assert_eq!(try_par_map_indexed_grained(50, grain, f), Err(5), "grain {grain}");
        }
        let items: Vec<usize> = (0..20).collect();
        assert_eq!(try_par_map_grained(&items, 1, |&i| f(i)), Err(5));
        assert_eq!(
            par_map_grained(&items, 3, |&i| i * 2),
            (0..20).map(|i| i * 2).collect::<Vec<_>>()
        );
        set_max_threads(0);
    }
}
