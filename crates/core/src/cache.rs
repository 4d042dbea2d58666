//! Memoisation of decision-performance evaluations.
//!
//! The importance pipeline is dominated by repeated calls to
//! `H(J'; θ)` — the decision function evaluated on the *same* day under
//! the *same* availability mask. Leave-one-out importance, Shapley
//! sampling, the DCTA combiner and the per-day reports all re-derive
//! overlapping subsets (e.g. the full mask is evaluated once per task per
//! day by the naive loop). Since `H` is a pure function of
//! `(scenario, models, fallback COP, day, mask)`, its results can be
//! memoised without changing a single bit of any output.
//!
//! The cache key is built from
//! * the scenario's master seed (scenarios are bit-identical functions of
//!   their config, and the seed is the discriminating field in practice),
//! * an FNV-1a fingerprint of the day's content (`f64::to_bits` of every
//!   weather/demand/sensing figure — [`DayContext`] carries no index, so
//!   content is the identity),
//! * a fingerprint of the model weights and the fallback COP (computed
//!   once when the cache is attached, see
//!   [`ImportanceEvaluator::with_cache`]), and
//! * the availability mask packed into a `u64` bitset.
//!
//! The map is **sharded**: entries are distributed over `SHARDS`
//! independently-locked shards selected by an FNV-1a fingerprint of the
//! full key, so concurrent serving threads (see `dcta-serve`) contend only
//! when they touch the same shard. Recency is a single process-wide atomic
//! clock, which keeps least-recently-used ordering global across shards;
//! capacity eviction takes every shard lock in index order (lookups hold at
//! most one shard lock and never acquire a second, so the ordering is
//! deadlock-free). A shard poisoned by a panicking thread is used as it is:
//! every critical section is a single map operation on memoised pure values
//! (`compute` runs outside the lock), so no panic leaves a shard half
//! written. Hit/miss tallies are lock-free [`AtomicU64`]s and stay
//! exact under concurrency. Two threads that race on the same missing key
//! both compute it — the values are identical by determinism, so the second
//! insert is a no-op overwrite, never a wrong answer.
//!
//! Caches can be **persisted** between runs ([`ImportanceCache::save_file`] /
//! [`ImportanceCache::load_file`]) in a versioned plain-text format, so a
//! repeated `reproduce` sweep skips the offline importance sweep entirely.
//! Persistence is safe because every key carries the scenario seed and the
//! evaluator fingerprint: entries from a different scenario or model build
//! are simply never hit. A size cap ([`ImportanceCache::with_capacity`])
//! bounds the on-disk and in-memory footprint with least-recently-used
//! eviction.
//!
//! [`ImportanceEvaluator::with_cache`]: crate::importance::ImportanceEvaluator::with_cache

use crate::persist::{self, PersistError};
use buildings::scenario::DayContext;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Running FNV-1a accumulator over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Starts a fresh accumulator.
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Absorbs one 64-bit word.
    pub fn push_u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs an `f64` by its exact bit pattern (distinguishes `-0.0`
    /// from `0.0` and every NaN payload — exactness is the point).
    pub fn push_f64(&mut self, value: f64) {
        self.push_u64(value.to_bits());
    }

    /// The accumulated digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

/// Content fingerprint of a day: every weather figure, per-slot demand and
/// sensing component, via `f64::to_bits`.
pub fn day_fingerprint(day: &DayContext) -> u64 {
    let mut fp = Fingerprint::new();
    fp.push_u64(day.hours.len() as u64);
    for slot in &day.hours {
        fp.push_f64(slot.weather.condition.as_feature());
        fp.push_f64(slot.weather.outdoor_temp_c);
        fp.push_u64(slot.demand_kw.len() as u64);
        for &d in &slot.demand_kw {
            fp.push_f64(d);
        }
    }
    fp.push_f64(day.weather.condition.as_feature());
    fp.push_f64(day.weather.outdoor_temp_c);
    fp.push_u64(day.sensing.len() as u64);
    for &s in &day.sensing {
        fp.push_f64(s);
    }
    fp.finish()
}

/// Packs an availability mask into a little-endian `u64` bitset.
fn pack_mask(available: &[bool]) -> Vec<u64> {
    let mut packed = vec![0u64; available.len().div_ceil(64)];
    for (i, &bit) in available.iter().enumerate() {
        if bit {
            packed[i / 64] |= 1u64 << (i % 64);
        }
    }
    packed
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    /// Scenario master seed.
    seed: u64,
    /// Evaluator fingerprint: model weights + fallback COP.
    evaluator: u64,
    /// Day content fingerprint.
    day: u64,
    /// Packed availability mask.
    mask: Vec<u64>,
}

/// Number of independently-locked shards. A fixed power of two keeps shard
/// selection a mask and the behaviour identical on every host.
const SHARDS: usize = 8;

impl CacheKey {
    /// The shard this key lives in: an FNV-1a fingerprint over every key
    /// word, masked down to a shard index.
    fn shard(&self) -> usize {
        let mut fp = Fingerprint::new();
        fp.push_u64(self.seed);
        fp.push_u64(self.evaluator);
        fp.push_u64(self.day);
        for &word in &self.mask {
            fp.push_u64(word);
        }
        (fp.finish() as usize) & (SHARDS - 1)
    }
}

/// Point-in-time cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the map.
    pub hits: u64,
    /// Lookups that fell through to a fresh evaluation.
    pub misses: u64,
    /// Distinct `(day, mask)` results currently held.
    pub entries: usize,
    /// Entries dropped by the LRU cap since construction (or
    /// [`ImportanceCache::clear`]).
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (`0.0` when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits / {} misses ({:.1}% hit rate, {} entries, {} evicted)",
            self.hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.entries,
            self.evictions
        )
    }
}

/// One cached value plus its recency stamp.
#[derive(Debug, Clone, Copy)]
struct Slot {
    value: f64,
    last_used: u64,
}

/// One independently-locked shard of the map.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<CacheKey, Slot>,
}

/// Magic first line of the on-disk format. Version-bump on any layout
/// change; old dumps are then rejected instead of misread.
const PERSIST_HEADER: &str = "dcta-importance-cache v1";

/// Memoised decision-performance results, shared across the whole pipeline
/// run (importance matrices, Shapley sampling, per-day reports).
///
/// A cache is only valid for one `(scenario, models, fallback)` triple; the
/// evaluator fingerprint inside the key enforces this even if a cache is
/// accidentally shared across ablations — or restored from another run's
/// dump via [`ImportanceCache::load_file`].
#[derive(Debug)]
pub struct ImportanceCache {
    shards: [Mutex<Shard>; SHARDS],
    /// Maximum resident entries across all shards (`None` = unbounded).
    capacity: Option<usize>,
    /// Global logical recency clock: stamps are process-wide monotonic, so
    /// least-recently-used ordering stays total across shards.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ImportanceCache {
    fn default() -> Self {
        Self {
            shards: std::array::from_fn(|_| Mutex::default()),
            capacity: None,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }
}

impl ImportanceCache {
    /// Creates an empty, unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next recency stamp.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Locks every shard in index order. Lookups hold at most one shard
    /// lock and never acquire a second, so this total order is
    /// deadlock-free.
    fn lock_all(&self) -> Vec<std::sync::MutexGuard<'_, Shard>> {
        self.shards.iter().map(|s| s.lock().unwrap_or_else(PoisonError::into_inner)).collect()
    }

    /// Inserts `key` (stamping it most-recent) and, when a capacity is
    /// configured, evicts globally least-recently-used entries down to it.
    fn insert(&self, key: CacheKey, value: f64) {
        let shard = key.shard();
        let stamp = self.tick();
        self.shards[shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .map
            .insert(key, Slot { value, last_used: stamp });
        if let Some(cap) = self.capacity {
            self.evict_to(cap);
        }
    }

    /// Evicts globally least-recently-used entries until at most `cap`
    /// remain. Takes every shard lock for the duration — only capped caches
    /// ever pay this, and only on inserts past capacity.
    fn evict_to(&self, cap: usize) {
        let mut guards = self.lock_all();
        loop {
            let total: usize = guards.iter().map(|g| g.map.len()).sum();
            if total <= cap {
                return;
            }
            let mut oldest: Option<(usize, CacheKey, u64)> = None;
            for (i, guard) in guards.iter().enumerate() {
                for (k, slot) in &guard.map {
                    if oldest.as_ref().is_none_or(|(_, _, stamp)| slot.last_used < *stamp) {
                        oldest = Some((i, k.clone(), slot.last_used));
                    }
                }
            }
            let (i, key, _) = oldest.expect("map over capacity is non-empty");
            guards[i].map.remove(&key);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Creates an empty cache that holds at most `capacity` entries,
    /// evicting least-recently-used beyond that.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a cache that can hold nothing is a
    /// configuration error, not a degenerate mode).
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self { capacity: Some(capacity), ..Self::default() }
    }

    /// The configured entry cap, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Returns the memoised value for the keyed evaluation or computes,
    /// stores and returns it. Errors are never cached.
    ///
    /// # Errors
    ///
    /// Propagates the compute closure's error.
    pub fn lookup_or_compute<E>(
        &self,
        seed: u64,
        evaluator: u64,
        day: u64,
        available: &[bool],
        compute: impl FnOnce() -> Result<f64, E>,
    ) -> Result<f64, E> {
        let key = CacheKey { seed, evaluator, day, mask: pack_mask(available) };
        {
            let mut shard = self.shards[key.shard()].lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(slot) = shard.map.get_mut(&key) {
                slot.last_used = self.tick();
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(slot.value);
            }
        }
        // Deliberately computed outside the lock: evaluations are orders of
        // magnitude slower than the map, and parallel leave-one-out workers
        // must not serialise on each other's misses.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = compute()?;
        self.insert(key, value);
        Ok(value)
    }

    /// Counters and current size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.lock_all().iter().map(|g| g.map.len()).sum(),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry and zeroes the counters.
    pub fn clear(&self) {
        let mut guards = self.lock_all();
        for guard in &mut guards {
            guard.map.clear();
        }
        self.clock.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }

    /// Serialises the cache, least-recently-used entries first, so a
    /// round-trip through [`ImportanceCache::load_text`] reconstructs the
    /// same eviction order. Values are written as exact `f64` bit patterns
    /// — persistence must not perturb a single bit of any result.
    pub fn to_text(&self) -> String {
        let guards = self.lock_all();
        let mut entries: Vec<(&CacheKey, &Slot)> =
            guards.iter().flat_map(|g| g.map.iter()).collect();
        entries.sort_by_key(|(_, slot)| slot.last_used);
        let mut out = String::from(PERSIST_HEADER);
        out.push('\n');
        for (key, slot) in entries {
            let mut line = format!(
                "{:016x} {:016x} {:016x} {:016x}",
                key.seed,
                key.evaluator,
                key.day,
                slot.value.to_bits()
            );
            for word in &key.mask {
                line.push_str(&format!(" {word:016x}"));
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Merges a [`ImportanceCache::to_text`] dump into this cache (in dump
    /// order, so recency carries over), applying the capacity cap. Returns
    /// the number of entries read.
    ///
    /// # Errors
    ///
    /// [`PersistError::Parse`] on a malformed dump, a non-finite value,
    /// or a key the dump repeats; nothing is merged partially — the text is
    /// validated before any insert.
    pub fn load_text(&self, text: &str) -> Result<usize, PersistError> {
        let mut parsed: Vec<(CacheKey, f64)> = Vec::new();
        let mut seen: HashSet<CacheKey> = HashSet::new();
        for record in persist::records(text, PERSIST_HEADER)? {
            let [seed, evaluator, day, value, ref mask @ ..] = record.words[..] else {
                return Err(record.reject("too few fields"));
            };
            let value = f64::from_bits(value);
            if !value.is_finite() {
                return Err(record.reject("value not finite"));
            }
            let key = CacheKey { seed, evaluator, day, mask: mask.to_vec() };
            if !seen.insert(key.clone()) {
                return Err(record.reject("duplicate key"));
            }
            parsed.push((key, value));
        }
        let count = parsed.len();
        for (key, value) in parsed {
            self.insert(key, value);
        }
        Ok(count)
    }

    /// Writes the cache to `path` (see [`ImportanceCache::to_text`]).
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on filesystem failure.
    pub fn save_file(&self, path: &Path) -> Result<(), PersistError> {
        std::fs::write(path, self.to_text())?;
        Ok(())
    }

    /// Merges the dump at `path` into this cache. A missing file is not an
    /// error — it simply merges nothing (first run of a sweep).
    ///
    /// # Errors
    ///
    /// See [`PersistError`] variants.
    pub fn load_file(&self, path: &Path) -> Result<usize, PersistError> {
        persist::load_file(path, |text| self.load_text(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_counting() {
        let cache = ImportanceCache::new();
        let mask = [true, false, true];
        let v1: Result<f64, ()> = cache.lookup_or_compute(1, 2, 3, &mask, || Ok(0.5));
        let v2: Result<f64, ()> =
            cache.lookup_or_compute(1, 2, 3, &mask, || panic!("must be served from cache"));
        assert_eq!(v1, Ok(0.5));
        assert_eq!(v2, Ok(0.5));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let cache = ImportanceCache::new();
        let a: Result<f64, ()> = cache.lookup_or_compute(1, 2, 3, &[true], || Ok(1.0));
        let b: Result<f64, ()> = cache.lookup_or_compute(1, 2, 3, &[false], || Ok(2.0));
        let c: Result<f64, ()> = cache.lookup_or_compute(1, 2, 4, &[true], || Ok(3.0));
        let d: Result<f64, ()> = cache.lookup_or_compute(9, 2, 3, &[true], || Ok(4.0));
        let e: Result<f64, ()> = cache.lookup_or_compute(1, 7, 3, &[true], || Ok(5.0));
        assert_eq!(
            (a.unwrap(), b.unwrap(), c.unwrap(), d.unwrap(), e.unwrap()),
            (1.0, 2.0, 3.0, 4.0, 5.0)
        );
        assert_eq!(cache.stats().entries, 5);
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = ImportanceCache::new();
        let first: Result<f64, &str> = cache.lookup_or_compute(0, 0, 0, &[], || Err("boom"));
        assert!(first.is_err());
        let second: Result<f64, &str> = cache.lookup_or_compute(0, 0, 0, &[], || Ok(9.0));
        assert_eq!(second, Ok(9.0));
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = ImportanceCache::new();
        let _: Result<f64, ()> = cache.lookup_or_compute(1, 1, 1, &[true], || Ok(1.0));
        cache.clear();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn concurrent_lookups_keep_counters_exact() {
        let cache = ImportanceCache::new();
        const THREADS: u64 = 8;
        const KEYS: u64 = 32;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = &cache;
                scope.spawn(move || {
                    // Every thread touches every key twice: the second pass is
                    // all hits, and the per-key value must come back bit-equal
                    // no matter which thread computed it first.
                    for _pass in 0..2 {
                        for day in 0..KEYS {
                            let value = cache
                                .lookup_or_compute(7, 1, day, &[day % 3 == 0], || {
                                    Ok::<f64, ()>((day as f64) * 0.125 + 1.0)
                                })
                                .expect("compute is infallible");
                            assert_eq!(
                                value.to_bits(),
                                ((day as f64) * 0.125 + 1.0).to_bits(),
                                "thread {t} day {day}"
                            );
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.entries, KEYS as usize);
        // Exactly one miss per key is not guaranteed (two threads can race the
        // same cold key), but hits + misses is the exact number of lookups and
        // misses is bounded by lookups of cold slots.
        assert_eq!(stats.hits + stats.misses, THREADS * KEYS * 2);
        assert!(stats.misses >= KEYS);
        assert!(stats.misses <= THREADS * KEYS);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn mask_packing_is_positional() {
        // Bit 64 must land in the second word, not alias bit 0.
        let mut long_a = vec![false; 65];
        long_a[64] = true;
        let mut long_b = vec![false; 65];
        long_b[0] = true;
        assert_ne!(pack_mask(&long_a), pack_mask(&long_b));
        assert_eq!(pack_mask(&long_a).len(), 2);
    }

    #[test]
    fn fingerprint_distinguishes_zero_signs() {
        let mut a = Fingerprint::new();
        a.push_f64(0.0);
        let mut b = Fingerprint::new();
        b.push_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }
}

#[cfg(test)]
mod lru_tests {
    use super::*;

    fn fill(cache: &ImportanceCache, days: std::ops::Range<u64>) {
        for day in days {
            let _: Result<f64, ()> = cache.lookup_or_compute(1, 2, day, &[true], || Ok(day as f64));
        }
    }

    #[test]
    fn capped_cache_evicts_least_recently_used() {
        let cache = ImportanceCache::with_capacity(3);
        assert_eq!(cache.capacity(), Some(3));
        fill(&cache, 0..3);
        // Touch day 0 so day 1 becomes the oldest.
        let _: Result<f64, ()> = cache.lookup_or_compute(1, 2, 0, &[true], || unreachable!());
        fill(&cache, 3..4); // evicts day 1
        let stats = cache.stats();
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.evictions, 1);
        // Day 1 is gone (recomputes); day 0 survives (served).
        let recomputed: Result<f64, ()> = cache.lookup_or_compute(1, 2, 1, &[true], || Ok(-1.0));
        assert_eq!(recomputed, Ok(-1.0));
        let kept: Result<f64, ()> = cache.lookup_or_compute(1, 2, 0, &[true], || unreachable!());
        assert_eq!(kept, Ok(0.0));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = ImportanceCache::with_capacity(0);
    }

    /// A thread that panics holding the shard locks poisons them. Every
    /// critical section is one map operation on memoised pure values, so
    /// the shards are still whole and every entry point goes on answering.
    #[test]
    fn a_poisoned_shard_still_answers() {
        let cache = ImportanceCache::with_capacity(2);
        fill(&cache, 0..2);
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guards = cache.lock_all();
                    panic!("a panic while holding every shard lock");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(cache.shards.iter().all(Mutex::is_poisoned));
        let hit: Result<f64, ()> = cache.lookup_or_compute(1, 2, 1, &[true], || unreachable!());
        assert_eq!(hit, Ok(1.0));
        fill(&cache, 2..3); // a capped insert: evicts day 0
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries, stats.evictions), (1, 3, 2, 1));
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = ImportanceCache::new();
        assert_eq!(cache.capacity(), None);
        fill(&cache, 0..100);
        let stats = cache.stats();
        assert_eq!(stats.entries, 100);
        assert_eq!(stats.evictions, 0);
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;

    #[test]
    fn text_round_trip_preserves_every_bit() {
        let cache = ImportanceCache::new();
        // Values chosen to stress the bit-exactness: subnormal, -0.0, huge.
        let values = [5e-324, -0.0, 1.7976931348623157e308, 0.25];
        for (i, &v) in values.iter().enumerate() {
            let mask = vec![i % 2 == 0; i + 1];
            let _: Result<f64, ()> = cache.lookup_or_compute(7, 9, i as u64, &mask, || Ok(v));
        }
        let text = cache.to_text();
        assert!(text.starts_with(PERSIST_HEADER));

        let restored = ImportanceCache::new();
        assert_eq!(restored.load_text(&text).unwrap(), values.len());
        for (i, &v) in values.iter().enumerate() {
            let mask = vec![i % 2 == 0; i + 1];
            let got: Result<f64, ()> =
                restored.lookup_or_compute(7, 9, i as u64, &mask, || unreachable!());
            assert_eq!(got.unwrap().to_bits(), v.to_bits(), "value {i} perturbed");
        }
        assert_eq!(restored.stats().hits, values.len() as u64);
    }

    #[test]
    fn dump_order_carries_recency_into_a_capped_cache() {
        let cache = ImportanceCache::new();
        for day in 0..4u64 {
            let _: Result<f64, ()> = cache.lookup_or_compute(1, 1, day, &[true], || Ok(day as f64));
        }
        // Re-touch day 0: it is now the most recent.
        let _: Result<f64, ()> = cache.lookup_or_compute(1, 1, 0, &[true], || unreachable!());

        let capped = ImportanceCache::with_capacity(2);
        capped.load_text(&cache.to_text()).unwrap();
        // Only the two most recent survive: days 3 and 0.
        let s = capped.stats();
        assert_eq!((s.entries, s.evictions), (2, 2));
        let day3: Result<f64, ()> = capped.lookup_or_compute(1, 1, 3, &[true], || unreachable!());
        assert_eq!(day3, Ok(3.0));
        let day0: Result<f64, ()> = capped.lookup_or_compute(1, 1, 0, &[true], || unreachable!());
        assert_eq!(day0, Ok(0.0));
    }

    #[test]
    fn malformed_dumps_are_rejected() {
        let cache = ImportanceCache::new();
        assert!(matches!(
            cache.load_text(""),
            Err(PersistError::Parse { line: 1, reason: "empty file" })
        ));
        assert!(matches!(
            cache.load_text("some other format\n"),
            Err(PersistError::Parse { line: 1, .. })
        ));
        let bad_fields = format!("{PERSIST_HEADER}\n{:016x} {:016x}\n", 0x11, 0x2233);
        assert!(matches!(
            cache.load_text(&bad_fields),
            Err(PersistError::Parse { line: 2, reason: "too few fields" })
        ));
        let bad_hex = format!("{PERSIST_HEADER}\nzz 00 00 00\n");
        assert!(matches!(
            cache.load_text(&bad_hex),
            Err(PersistError::Parse { line: 2, reason: "bad hex word" })
        ));
        // Nothing was merged by the failed loads.
        assert_eq!(cache.stats().entries, 0);
        assert!(PersistError::Parse { line: 2, reason: "x" }.to_string().contains("line 2"));
    }

    /// A dump whose line 2 is valid and whose line 3 carries `value` under
    /// `day` must fail on line 3 with `reason`, leaving `cache` as it was.
    fn assert_rejected_whole(value: f64, day: u64, reason: &'static str) {
        let cache = ImportanceCache::new();
        let _: Result<f64, ()> = cache.lookup_or_compute(9, 9, 9, &[true], || Ok(0.75));
        let _: Result<f64, ()> = cache.lookup_or_compute(9, 9, 9, &[true], || unreachable!());
        let (text, stats) = (cache.to_text(), cache.stats());
        let line = |day: u64, v: f64| {
            format!("{:016x} {:016x} {day:016x} {:016x} {:016x}", 1, 2, v.to_bits(), 1)
        };
        let dump = format!("{PERSIST_HEADER}\n{}\n{}\n", line(0, 0.5), line(day, value));
        assert!(matches!(
            cache.load_text(&dump),
            Err(PersistError::Parse { line: 3, reason: r }) if r == reason
        ));
        assert_eq!(cache.to_text(), text, "contents moved");
        assert_eq!(cache.stats(), stats, "stats moved");
    }

    #[test]
    fn nan_value_is_rejected_before_any_insert() {
        assert_rejected_whole(f64::NAN, 1, "value not finite");
    }

    #[test]
    fn infinite_value_is_rejected_before_any_insert() {
        assert_rejected_whole(f64::INFINITY, 1, "value not finite");
    }

    #[test]
    fn duplicate_key_is_rejected_before_any_insert() {
        assert_rejected_whole(0.25, 0, "duplicate key");
    }

    #[test]
    fn file_round_trip_and_missing_file() {
        let dir = std::env::temp_dir().join(format!("dcta-cache-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("importance_cache.txt");
        let _ = std::fs::remove_file(&path);

        let cache = ImportanceCache::new();
        assert_eq!(cache.load_file(&path).unwrap(), 0, "missing file must merge nothing");
        let _: Result<f64, ()> = cache.lookup_or_compute(3, 4, 5, &[true, false], || Ok(0.5));
        cache.save_file(&path).unwrap();

        let restored = ImportanceCache::new();
        assert_eq!(restored.load_file(&path).unwrap(), 1);
        let got: Result<f64, ()> =
            restored.lookup_or_compute(3, 4, 5, &[true, false], || unreachable!());
        assert_eq!(got, Ok(0.5));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
