//! # dcta-parallel — deterministic scoped parallel maps
//!
//! A minimal, std-only execution layer for the workspace's hot loops
//! (leave-one-out importance, Shapley permutation sampling, per-cluster DQN
//! training, benchmark sweeps). The whole workspace promises bit-for-bit
//! reproducibility (see `learn::linalg`), so the layer's contract is strict:
//!
//! **Determinism contract.** For a *pure* closure `f` (no interior
//! mutability, output depends only on the index), [`map`]`(n, grain, f)`
//! returns exactly the `Vec` the serial loop `(0..n).map(f).collect()`
//! would return — same order, same `f64` bits — for every thread count and
//! every grain. This holds by construction: items are never re-associated
//! or reduced across threads; each output slot is computed by exactly one
//! closure call and written to its final position, and any cross-item
//! combining is left to the (serial) caller.
//!
//! Work is chunked: contiguous index ranges are claimed from an atomic
//! counter by a scoped crew of worker threads (std threads, no external
//! runtime), so uneven per-item cost load-balances without changing output
//! order. Each chunk's outputs land in a `OnceLock` slot that only the
//! worker which claimed the chunk sets, so no lock is taken and none can be
//! poisoned; sharing the slots across the crew is why outputs and errors
//! must be `Sync` as well as `Send`. With an effective thread count of 1 the
//! implementation *is* the serial loop — no threads are spawned at all.
//!
//! **Grain.** Every call names its grain: the fewest items a worker thread
//! must have before it is spawned, so at most `n / grain` workers run and
//! a map below one grain's worth per extra worker stays serial. Tiny
//! workloads lose more to thread spawn/join than they gain (the perf log
//! showed a 0.90× *slowdown* on a ~10-item map at 2 threads): cheap
//! fine-grained maps pass a large grain, few-but-expensive items (per-cluster
//! DQN pretraining, gradient chunks) pass `1`. The grain only changes *how*
//! the work runs, never the result.
//!
//! ## Thread-count configuration
//!
//! The effective thread count is resolved, in order, from:
//! 1. the innermost live [`ScopedThreads`] guard (benchmarks and tests use
//!    it to time or compare 1 vs N threads within one process),
//! 2. the `DCTA_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! ## Errors
//!
//! [`try_map`] mirrors `Iterator::collect::<Result<_, _>>` determinism: when
//! several items fail, the error of the *lowest index* is returned —
//! exactly the error a serial left-to-right loop would surface first.
//! (Unlike the serial loop, later items may still have been evaluated; with
//! pure closures this is unobservable.)
//!
//! ## Examples
//!
//! ```
//! let squares = parallel::map(5, 2, |i| (i * i) as f64);
//! assert_eq!(squares, vec![0.0, 1.0, 4.0, 9.0, 16.0]);
//!
//! let items = [1, 2, 3];
//! assert_eq!(parallel::try_map(items.len(), 1, |i| Ok::<_, ()>(items[i] * 2)), Ok(vec![2, 4, 6]));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide thread-count override held by the live [`ScopedThreads`]
/// guards; 0 means "no override".
static MAX_THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Environment variable consulted when no guard is live.
const THREADS_ENV: &str = "DCTA_THREADS";

/// Chunks handed out per worker thread: >1 so uneven per-item cost
/// load-balances, small enough that chunk bookkeeping stays negligible.
const CHUNKS_PER_THREAD: usize = 4;

/// The worker-crew size for `n` items at `grain`: the configured
/// [`max_threads`], capped so each worker has at least the grain's worth of
/// items (always at least 1).
fn effective_threads(n: usize, grain: usize) -> usize {
    max_threads().min(n / grain.max(1)).max(1)
}

/// One chunk's outcome: its ordered outputs, or the first failing index.
/// Each chunk index is claimed by exactly one worker, which sets its slot
/// once; the slot is read only after the crew has joined.
type ChunkSlot<U, E> = OnceLock<Result<Vec<U>, (usize, E)>>;

/// RAII guard that overrides the process-wide thread count for a scope.
///
/// On construction the guard swaps in `threads`; on drop — including a drop
/// while a panic unwinds — it restores the override that was active
/// before, so guards nest LIFO. The override is *process-wide*, not
/// thread-local: concurrent scopes with different guards race on the same
/// slot, so the guard is intended for the single-threaded orchestration
/// layers (pipeline construction, benchmark drivers, a binary's `main`),
/// not for worker closures. Per the crate determinism contract the override
/// only changes how work is scheduled, never the bits of any result.
///
/// ```
/// let outside = parallel::max_threads();
/// {
///     let _guard = parallel::ScopedThreads::new(2);
///     assert_eq!(parallel::max_threads(), 2);
/// }
/// assert_eq!(parallel::max_threads(), outside);
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

/// The effective maximum thread count: the innermost live [`ScopedThreads`]
/// override if any, else `DCTA_THREADS` if parseable and non-zero, else
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

/// Maps `f` over `0..n`, in parallel, returning outputs in index order, with
/// at most `n / grain` worker threads (serial below that).
///
/// See the crate docs for the determinism contract: with a pure `f` the
/// result is bit-identical to `(0..n).map(f).collect()` at every thread
/// count and grain.
pub fn map<U, F>(n: usize, grain: usize, f: F) -> Vec<U>
where
    U: Send + Sync,
    F: Fn(usize) -> U + Sync,
{
    match try_map(n, grain, |i| Ok::<U, Infallible>(f(i))) {
        Ok(v) => v,
        Err(e) => match e {},
    }
}

/// Fallible [`map`]: returns the lowest-index error, like a serial
/// left-to-right `collect::<Result<_, _>>`.
///
/// # Errors
///
/// The first (lowest-index) `Err` produced by `f`, if any.
pub fn try_map<U, E, F>(n: usize, grain: usize, f: F) -> Result<Vec<U>, E>
where
    U: Send + Sync,
    E: Send + Sync,
    F: Fn(usize) -> Result<U, E> + Sync,
{
    let threads = effective_threads(n, grain);
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

    /// Tests move the process-wide override; serialise them.
    static LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A float-heavy closure: any re-association would change bits.
    fn knead(i: usize) -> f64 {
        let mut acc = 0.0f64;
        for k in 1..=64 {
            acc += ((i * k) as f64).sqrt() / (k as f64 + 0.1);
        }
        acc
    }

    fn bits(v: Vec<f64>) -> Vec<u64> {
        v.into_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn ordered_output_at_many_threads() {
        let _g = serial();
        let _t = ScopedThreads::new(8);
        let out = map(1000, 2, |i| i * 3);
        assert_eq!(out, (0..1000).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn bit_identical_across_thread_counts_and_grains() {
        let _g = serial();
        let serial_bits = bits((0..257).map(knead).collect());
        for threads in [1, 2, 3, 8] {
            let _t = ScopedThreads::new(threads);
            for grain in [0, 1, 2, 16, 64, 1000] {
                assert_eq!(
                    bits(map(257, grain, knead)),
                    serial_bits,
                    "threads {threads} grain {grain} changed bits"
                );
            }
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let _g = serial();
        let _t = ScopedThreads::new(8);
        assert_eq!(map(0, 1, |i| i), Vec::<usize>::new());
        assert_eq!(map(1, 1, |i| i + 1), vec![1]);
        assert_eq!(try_map(0, 1, Err::<usize, usize>), Ok(Vec::new()));
    }

    #[test]
    fn lowest_index_error_wins() {
        let _g = serial();
        let f = |i: usize| if i % 10 == 3 { Err(i) } else { Ok(i) };
        for threads in [1, 2, 8] {
            let _t = ScopedThreads::new(threads);
            for grain in [1, 4, 100] {
                assert_eq!(try_map(100, grain, f), Err(3), "threads {threads} grain {grain}");
            }
        }
    }

    #[test]
    fn try_success_matches_serial() {
        let _g = serial();
        let _t = ScopedThreads::new(8);
        let ok = try_map(50, 1, |i| Ok::<usize, ()>(i * i)).unwrap();
        assert_eq!(ok, (0..50).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn grain_caps_crew_size() {
        let _g = serial();
        let _t = ScopedThreads::new(8);
        assert_eq!(effective_threads(3, 2), 1);
        assert_eq!(effective_threads(10, 2), 5);
        assert_eq!(effective_threads(100, 2), 8);
        // 1 gives full parallelism to few expensive items; large grains
        // serialise cheap maps entirely.
        assert_eq!(effective_threads(3, 1), 3);
        assert_eq!(effective_threads(500, 32), 8);
        assert_eq!(effective_threads(40, 32), 1);
        assert_eq!(effective_threads(40, 0), 8, "grain 0 behaves as 1");
        assert_eq!(effective_threads(0, 4), 1, "empty input still yields 1");
    }

    #[test]
    fn guards_nest_and_restore_the_prior_override() {
        let _g = serial();
        let outside = max_threads();
        {
            let _outer = ScopedThreads::new(2);
            assert_eq!(max_threads(), 2);
            {
                let _inner = ScopedThreads::new(7);
                assert_eq!(max_threads(), 7);
                let _cleared = ScopedThreads::new(0);
                assert_eq!(max_threads(), outside, "0 clears the override for its scope");
            }
            assert_eq!(max_threads(), 2, "inner guards restore the outer override");
        }
        assert_eq!(max_threads(), outside);
        assert_eq!(MAX_THREADS_OVERRIDE.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn a_guard_restores_the_prior_override_when_its_scope_unwinds() {
        let _g = serial();
        let _outer = ScopedThreads::new(3);
        let unwound = std::panic::catch_unwind(|| {
            let _inner = ScopedThreads::new(5);
            assert_eq!(max_threads(), 5);
            panic!("a failing assert inside the guarded scope");
        });
        assert!(unwound.is_err());
        assert_eq!(max_threads(), 3, "the unwound guard leaked its override");
    }
}
