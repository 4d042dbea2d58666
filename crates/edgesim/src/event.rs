//! A minimal deterministic discrete-event engine.
//!
//! Events carry an `f64` timestamp and a user payload; ties are broken by
//! insertion order so simulations are fully reproducible. This engine drives
//! [`crate::run`]'s transmission/compute pipeline. The production queue is
//! [`CalendarQueue`]; the one-global-`BinaryHeap` queue it replaced lives
//! on in this module's tests as the oracle its pop order is held to.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event.
#[derive(Debug, Clone, PartialEq)]
struct Scheduled<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T: PartialEq> Eq for Scheduled<T> {}

impl<T: PartialEq> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: PartialEq> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to get earliest-first, with
        // insertion order as tiebreak.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times must be finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Smallest bucket count a [`CalendarQueue`] will shrink to.
const MIN_BUCKETS: usize = 16;
/// Largest bucket count a [`CalendarQueue`] will grow to.
const MAX_BUCKETS: usize = 1 << 20;

/// An indexed calendar (bucket) queue: earliest time first, FIFO among
/// equal timestamps.
///
/// Events hash into `buckets.len()` time slices of `width` seconds each
/// (`bucket = floor(time / width) mod buckets`); popping walks the calendar
/// from the current day, so insert and pop are O(1) amortised for a calendar
/// in balance — the difference against one global O(log n) heap dominates at
/// 1000+ simulated nodes where the event population stays large for the
/// whole run. Each bucket is itself a small earliest-first heap, so even a
/// long-tailed timestamp distribution that crowds one bucket degrades to
/// O(log b), never a linear sorted insert. The queue resizes (doubling or
/// halving the bucket count, re-estimating the width from the observed event
/// span) when the population drifts out of balance with the calendar, so no
/// tuning is needed.
///
/// The pop order is *identical* to that of one global `BinaryHeap` keyed
/// `(time, seq)` — same key, same FIFO tie-break — which this module's
/// tests pin with a proptest over random insert/pop interleavings against
/// that heap. The engine in [`crate::run`] relies on the equivalence: the
/// calendar cannot move a single event.
///
/// # Examples
///
/// ```
/// use edgesim::event::CalendarQueue;
///
/// let mut q = CalendarQueue::new();
/// q.schedule(2.0, "later");
/// q.schedule(1.0, "sooner");
/// assert_eq!(q.pop_next(), Some((1.0, "sooner")));
/// assert_eq!(q.pop_next(), Some((2.0, "later")));
/// assert_eq!(q.pop_next(), None);
/// ```
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    /// Each bucket is a small earliest-first heap ([`Scheduled`]'s order is
    /// inverted, so `peek`/`pop` yield the bucket's minimum `(time, seq)`).
    /// A heap rather than a sorted `Vec` keeps inserts O(log b) even when a
    /// long-tailed timestamp distribution crowds one bucket — a sorted
    /// insert would pay an O(b) memmove per event there.
    buckets: Vec<BinaryHeap<Scheduled<T>>>,
    /// Seconds covered by one bucket.
    width: f64,
    /// Virtual day the pop cursor is on: events with
    /// `floor(time / width) == day` live in bucket `day % buckets.len()`.
    day: u64,
    len: usize,
    seq: u64,
    now: f64,
}

impl<T: PartialEq> CalendarQueue<T> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        let buckets = std::iter::repeat_with(BinaryHeap::new).take(MIN_BUCKETS).collect();
        Self { buckets, width: 1.0, day: 0, len: 0, seq: 0, now: 0.0 }
    }

    /// Current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn day_of(&self, time: f64) -> u64 {
        // `as u64` saturates, so negative epsilons clamp to day 0 and huge
        // times to the last representable day.
        (time / self.width).floor().max(0.0) as u64
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is non-finite or earlier than the current time
    /// (events cannot be scheduled in the past).
    pub fn schedule(&mut self, time: f64, payload: T) {
        assert!(time.is_finite(), "event time must be finite");
        assert!(time + 1e-12 >= self.now, "cannot schedule in the past: {time} < {}", self.now);
        if self.len >= self.buckets.len() * 2 && self.buckets.len() < MAX_BUCKETS {
            self.resize(self.buckets.len() * 2);
        }
        let seq = self.seq;
        self.seq += 1;
        let ev = Scheduled { time, seq, payload };
        let n = self.buckets.len();
        let day = self.day_of(time);
        // The ε-past allowance lets `time` land one day behind the cursor
        // when a bucket boundary falls inside the epsilon; back up so the
        // scan still pops strictly in (time, seq) order.
        if day < self.day {
            self.day = day;
        }
        self.buckets[day as usize % n].push(ev);
        self.len += 1;
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop_next(&mut self) -> Option<(f64, T)> {
        if self.len == 0 {
            return None;
        }
        if self.len <= self.buckets.len() / 4 && self.buckets.len() > MIN_BUCKETS {
            self.resize((self.buckets.len() / 2).max(MIN_BUCKETS));
        }
        let b = self.seek()?;
        let ev = self.buckets[b].pop().expect("seek found the minimum's bucket");
        self.len -= 1;
        self.now = ev.time;
        Some((ev.time, ev.payload))
    }

    /// Moves the day cursor onto the earliest pending event and returns
    /// its bucket, whose heap top is that event.
    fn seek(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let n = self.buckets.len() as u64;
        // Walk the calendar from the current day; after a full fruitless
        // rotation fall back to a direct scan for the global minimum (the
        // pending events are all far in the future).
        for _ in 0..n {
            let b = (self.day % n) as usize;
            if let Some(ev) = self.buckets[b].peek() {
                if self.day_of(ev.time) <= self.day {
                    return Some(b);
                }
            }
            self.day += 1;
        }
        self.day = self.day_of(self.min_time().expect("len > 0"));
        Some((self.day % n) as usize)
    }

    /// Draws the next insertion ticket — the `seq` half of the `(time,
    /// seq)` ordering key — without scheduling anything.
    ///
    /// This is for a caller that keeps some of its events in a structure
    /// of its own (the mesh engine's one-completion-per-flow set) and
    /// merges the two by key: an event ticketed here sorts against the
    /// queue's events exactly as if it had been [`schedule`](Self::schedule)d
    /// at that moment.
    ///
    /// # Examples
    ///
    /// ```
    /// use edgesim::event::CalendarQueue;
    ///
    /// let mut q = CalendarQueue::new();
    /// q.schedule(1.0, "queued first");
    /// let held = (1.0, q.ticket());
    /// q.schedule(1.0, "queued last");
    /// // FIFO among equal times: the held event fires between the two.
    /// assert!(q.peek_key().unwrap() < held);
    /// q.pop_next();
    /// assert!(held < q.peek_key().unwrap());
    /// ```
    pub fn ticket(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// The `(time, ticket)` key of the event [`pop_next`](Self::pop_next)
    /// would return, or `None` when the queue is empty. Takes `&mut self`
    /// because it moves the calendar's day cursor onto that event, as a pop
    /// would; the pending events and the clock are untouched.
    ///
    /// # Examples
    ///
    /// ```
    /// use edgesim::event::CalendarQueue;
    ///
    /// let mut q = CalendarQueue::new();
    /// assert_eq!(q.peek_key(), None);
    /// q.schedule(2.0, 'b');
    /// q.schedule(1.0, 'a');
    /// assert_eq!(q.peek_key(), Some((1.0, 1)));
    /// assert_eq!(q.len(), 2);
    /// assert_eq!(q.pop_next(), Some((1.0, 'a')));
    /// ```
    pub fn peek_key(&mut self) -> Option<(f64, u64)> {
        let b = self.seek()?;
        self.buckets[b].peek().map(|ev| (ev.time, ev.seq))
    }

    /// Moves the clock to `time` without popping — what the caller does
    /// when an event it holds outside the queue (see
    /// [`ticket`](Self::ticket)) fires ahead of [`peek_key`](Self::peek_key).
    ///
    /// # Panics
    ///
    /// Panics if `time` is non-finite or earlier than the current time.
    ///
    /// # Examples
    ///
    /// ```
    /// use edgesim::event::CalendarQueue;
    ///
    /// let mut q = CalendarQueue::new();
    /// q.schedule(5.0, "queued");
    /// q.advance(3.0);
    /// assert_eq!(q.now(), 3.0);
    /// q.schedule(4.0, "follow-up of the held event");
    /// assert_eq!(q.pop_next(), Some((4.0, "follow-up of the held event")));
    /// ```
    pub fn advance(&mut self, time: f64) {
        assert!(time.is_finite(), "event time must be finite");
        assert!(time + 1e-12 >= self.now, "cannot advance into the past: {time} < {}", self.now);
        self.now = time;
    }

    /// Earliest pending timestamp, or `None` when empty. O(buckets).
    fn min_time(&self) -> Option<f64> {
        self.buckets
            .iter()
            .filter_map(|b| b.peek().map(|e| e.time))
            .fold(None, |m, t| Some(m.map_or(t, |m: f64| m.min(t))))
    }

    /// Rebuilds the calendar with `n` buckets and a width estimated from
    /// the current event span (aiming for ~2 events per active day).
    fn resize(&mut self, n: usize) {
        let events: Vec<Scheduled<T>> = self.buckets.iter_mut().flat_map(std::mem::take).collect();
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for ev in &events {
            lo = lo.min(ev.time);
            hi = hi.max(ev.time);
        }
        let span = (hi - lo).max(0.0);
        self.width = if span > 0.0 && !events.is_empty() {
            (span * 2.0 / events.len() as f64).max(1e-9)
        } else {
            1.0
        };
        self.buckets = std::iter::repeat_with(BinaryHeap::new).take(n).collect();
        self.day = self.day_of(if lo.is_finite() { lo } else { self.now });
        for ev in events {
            let b = self.day_of(ev.time) as usize % n;
            self.buckets[b].push(ev);
        }
    }
}

impl<T: PartialEq> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Slot of an id that has no entry.
const ABSENT: usize = usize::MAX;

/// A flat set over dense ids, keyed `(time, seq)` like the queues above and
/// holding at most one entry per id: [`set`](Self::set) inserts or re-keys
/// in place, [`remove`](Self::remove) deletes by id. Entries are unordered;
/// the minimum's slot is cached and rescanned only after a `set` or
/// `remove` may have displaced it.
///
/// The mesh engine keeps each active flow's single pending completion here,
/// with `seq`s from [`CalendarQueue::ticket`]: merging this set with the
/// calendar by key pops what one queue holding both would (see the tests).
#[derive(Debug, Clone, Default)]
pub(crate) struct KeyedSet {
    times: Vec<f64>,
    seqs: Vec<u64>,
    ids: Vec<usize>,
    /// Slot of each id, [`ABSENT`] when it has no entry.
    slot: Vec<usize>,
    /// Slot of the minimum, `None` when it must be rescanned.
    min: Option<usize>,
}

impl KeyedSet {
    fn key(&self, slot: usize) -> (f64, u64) {
        (self.times[slot], self.seqs[slot])
    }

    /// The minimum `(time, seq, id)`.
    fn peek(&mut self) -> Option<(f64, u64, usize)> {
        if self.min.is_none() {
            let (mut time, mut seq) = (f64::INFINITY, u64::MAX);
            for (i, (&t, &s)) in self.times.iter().zip(&self.seqs).enumerate() {
                if t < time || (t == time && s < seq) {
                    (time, seq, self.min) = (t, s, Some(i));
                }
            }
        }
        self.min.map(|m| (self.times[m], self.seqs[m], self.ids[m]))
    }

    /// The minimum as `(time, id)` if it sorts before `key` — the next
    /// event of a queue this set is merged with, `None` for an empty one.
    pub(crate) fn first_before(&mut self, key: Option<(f64, u64)>) -> Option<(f64, usize)> {
        let (time, seq, id) = self.peek()?;
        key.is_none_or(|key| (time, seq) < key).then_some((time, id))
    }

    fn slot_of(&self, id: usize) -> Option<usize> {
        self.slot.get(id).copied().filter(|&slot| slot != ABSENT)
    }

    /// The key of `id`'s entry, if it has one.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn key_of(&self, id: usize) -> Option<(f64, u64)> {
        Some(self.key(self.slot_of(id)?))
    }

    /// Gives `id` the key `(time, seq)`, replacing its entry if it has one.
    ///
    /// # Panics
    ///
    /// Panics if `time` is non-finite.
    pub(crate) fn set(&mut self, id: usize, time: f64, seq: u64) {
        assert!(time.is_finite(), "event time must be finite");
        if id >= self.slot.len() {
            self.slot.resize(id + 1, ABSENT);
        }
        let slot = self.slot[id];
        if slot == ABSENT {
            self.slot[id] = self.ids.len();
            self.times.push(time);
            self.seqs.push(seq);
            self.ids.push(id);
        } else {
            // A minimum re-keyed later may have lost its place.
            if self.min == Some(slot) && (time, seq) > self.key(slot) {
                self.min = None;
            }
            (self.times[slot], self.seqs[slot]) = (time, seq);
        }
        if self.min.is_some_and(|m| (time, seq) < self.key(m)) {
            self.min = Some(self.slot[id]);
        }
    }

    /// Deletes `id`'s entry; a no-op when it has none.
    pub(crate) fn remove(&mut self, id: usize) {
        let Some(slot) = self.slot_of(id) else { return };
        self.slot[id] = ABSENT;
        let last = self.ids.len() - 1;
        self.times.swap_remove(slot);
        self.seqs.swap_remove(slot);
        self.ids.swap_remove(slot);
        if slot < last {
            self.slot[self.ids[slot]] = slot;
        }
        if self.min == Some(slot) {
            self.min = None;
        } else if self.min == Some(last) {
            self.min = Some(slot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference queue [`CalendarQueue`] is held to: one global
    /// `BinaryHeap` ordered by time, FIFO among equal times.
    #[derive(Debug, Clone)]
    struct EventQueue<T> {
        heap: BinaryHeap<Scheduled<T>>,
        seq: u64,
        now: f64,
    }

    impl<T: PartialEq> EventQueue<T> {
        /// Creates an empty queue at time zero.
        fn new() -> Self {
            Self { heap: BinaryHeap::new(), seq: 0, now: 0.0 }
        }

        /// Current simulation time: the timestamp of the last popped event.
        fn now(&self) -> f64 {
            self.now
        }

        /// Number of pending events.
        fn len(&self) -> usize {
            self.heap.len()
        }

        /// `true` when no events are pending.
        fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        /// Schedules `payload` at absolute time `time`.
        ///
        /// # Panics
        ///
        /// Panics if `time` is non-finite or earlier than the current time
        /// (events cannot be scheduled in the past).
        fn schedule(&mut self, time: f64, payload: T) {
            assert!(time.is_finite(), "event time must be finite");
            assert!(time + 1e-12 >= self.now, "cannot schedule in the past: {time} < {}", self.now);
            self.heap.push(Scheduled { time, seq: self.seq, payload });
            self.seq += 1;
        }

        /// Pops the earliest event, advancing the clock to its timestamp.
        /// (Named `pop_next` rather than `next` to avoid reading like
        /// `Iterator::next`.)
        fn pop_next(&mut self) -> Option<(f64, T)> {
            let ev = self.heap.pop()?;
            self.now = ev.time;
            Some((ev.time, ev.payload))
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, 'c');
        q.schedule(1.0, 'a');
        q.schedule(2.0, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop_next().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(1.0, 2);
        q.schedule(1.0, 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop_next().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0.0);
        q.schedule(5.0, ());
        q.pop_next();
        assert_eq!(q.now(), 5.0);
    }

    #[test]
    fn scheduling_during_processing_is_allowed_at_now() {
        let mut q = EventQueue::new();
        q.schedule(5.0, "first");
        let (t, _) = q.pop_next().unwrap();
        q.schedule(t, "same-time follow-up");
        assert_eq!(q.pop_next().unwrap().1, "same-time follow-up");
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop_next();
        q.schedule(1.0, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_time_panics() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1.0, ());
        assert_eq!(q.len(), 1);
        q.pop_next();
        assert!(q.is_empty());
        assert!(q.pop_next().is_none());
    }

    #[test]
    fn calendar_pops_in_time_order() {
        let mut q = CalendarQueue::new();
        q.schedule(3.0, 'c');
        q.schedule(1.0, 'a');
        q.schedule(2.0, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop_next().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn calendar_equal_times_are_fifo() {
        let mut q = CalendarQueue::new();
        for i in 0..100 {
            q.schedule(1.0, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop_next().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn calendar_clock_advances_and_same_time_followup() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.now(), 0.0);
        q.schedule(5.0, "first");
        let (t, _) = q.pop_next().unwrap();
        assert_eq!(q.now(), 5.0);
        q.schedule(t, "same-time follow-up");
        assert_eq!(q.pop_next().unwrap().1, "same-time follow-up");
    }

    #[test]
    #[should_panic(expected = "past")]
    fn calendar_scheduling_in_the_past_panics() {
        let mut q = CalendarQueue::new();
        q.schedule(5.0, ());
        q.pop_next();
        q.schedule(1.0, ());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn calendar_non_finite_time_panics() {
        let mut q = CalendarQueue::new();
        q.schedule(f64::NAN, ());
    }

    #[test]
    fn calendar_survives_resize_cycles() {
        // Push enough to force grow resizes, drain to force shrink, with
        // wildly uneven time spreads; compare against the heap reference.
        let mut cal = CalendarQueue::new();
        let mut heap = EventQueue::new();
        let mut state = 0x5EEDu64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut pending = 0usize;
        for step in 0..4000u64 {
            if pending == 0 || rnd() % 3 != 0 {
                let base = cal.now();
                let dt = match rnd() % 4 {
                    0 => 0.0,
                    1 => (rnd() % 1000) as f64 * 1e-6,
                    2 => (rnd() % 1000) as f64,
                    _ => (rnd() % 10) as f64 * 1e6,
                };
                cal.schedule(base + dt, step);
                heap.schedule(base + dt, step);
                pending += 1;
            } else {
                assert_eq!(cal.pop_next(), heap.pop_next());
                pending -= 1;
            }
        }
        while pending > 0 {
            assert_eq!(cal.pop_next(), heap.pop_next());
            pending -= 1;
        }
        assert!(cal.pop_next().is_none());
    }

    #[test]
    fn ticket_peek_and_advance_interleave_with_scheduling() {
        let mut q = CalendarQueue::new();
        q.schedule(2.0, 'a');
        let held = (2.0, q.ticket());
        q.schedule(2.0, 'b');
        assert_eq!(q.peek_key(), Some((2.0, 0)));
        assert_eq!(q.len(), 2, "peeking pops nothing");
        assert_eq!(q.now(), 0.0, "peeking leaves the clock alone");
        assert_eq!(q.pop_next(), Some((2.0, 'a')));
        // The held event's ticket sits between the two queued ones.
        assert!(held < q.peek_key().unwrap());
        q.advance(held.0);
        assert_eq!(q.now(), 2.0);
        assert_eq!(q.pop_next(), Some((2.0, 'b')));
        assert_eq!(q.peek_key(), None);
    }

    #[test]
    fn peek_then_earlier_schedule_still_pops_in_order() {
        // Peeking parks the day cursor on a far event; a later schedule
        // ahead of it must still pop first.
        let mut q = CalendarQueue::new();
        q.schedule(1e6, "far");
        assert_eq!(q.peek_key(), Some((1e6, 0)));
        q.schedule(3.0, "near");
        assert_eq!(q.peek_key(), Some((3.0, 1)));
        assert_eq!(q.pop_next(), Some((3.0, "near")));
        assert_eq!(q.pop_next(), Some((1e6, "far")));
    }

    #[test]
    #[should_panic(expected = "past")]
    fn advancing_into_the_past_panics() {
        let mut q: CalendarQueue<()> = CalendarQueue::new();
        q.advance(5.0);
        q.advance(1.0);
    }

    #[test]
    fn indexed_heap_rekeys_and_removes_by_id() {
        let mut h = KeyedSet::default();
        assert_eq!(h.peek(), None);
        h.set(3, 5.0, 0);
        h.set(1, 2.0, 1);
        h.set(7, 2.0, 2);
        assert_eq!(h.peek(), Some((2.0, 1, 1)), "equal times order by seq");
        h.set(3, 1.0, 3);
        assert_eq!(h.peek(), Some((1.0, 3, 3)), "re-keying moves the one entry");
        assert_eq!(h.key_of(3), Some((1.0, 3)));
        h.set(3, 9.0, 4);
        assert_eq!(h.peek(), Some((2.0, 1, 1)));
        h.remove(1);
        h.remove(1);
        assert_eq!(h.key_of(1), None);
        assert_eq!(h.peek(), Some((2.0, 2, 7)));
        h.remove(7);
        assert_eq!(h.peek(), Some((9.0, 4, 3)));
        h.remove(3);
        assert_eq!(h.peek(), None);
        h.remove(100);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn indexed_heap_rejects_non_finite_keys() {
        KeyedSet::default().set(0, f64::INFINITY, 0);
    }

    /// Three entries with the cached minimum, `(1.0, 2)` of id 2, in the
    /// last slot.
    fn cached_set() -> KeyedSet {
        let mut h = KeyedSet::default();
        h.set(0, 5.0, 0);
        h.set(1, 3.0, 1);
        h.set(2, 1.0, 2);
        assert_eq!(h.peek(), Some((1.0, 2, 2)));
        assert_eq!(h.min, Some(2));
        h
    }

    #[test]
    fn keyed_set_rekeying_the_minimum_later_rescans() {
        let mut h = cached_set();
        h.set(2, 4.0, 3);
        assert_eq!(h.min, None, "the minimum may have lost its place");
        assert_eq!(h.peek(), Some((3.0, 1, 1)));
    }

    #[test]
    fn keyed_set_rekeying_the_minimum_earlier_keeps_the_cache() {
        let mut h = cached_set();
        h.set(2, 0.5, 3);
        assert_eq!(h.min, Some(2));
        assert_eq!(h.peek(), Some((0.5, 3, 2)));
    }

    #[test]
    fn keyed_set_removing_the_minimum_rescans() {
        let mut h = cached_set();
        h.remove(2);
        assert_eq!(h.min, None);
        assert_eq!(h.peek(), Some((3.0, 1, 1)));
        assert_eq!(h.key_of(2), None);
    }

    #[test]
    fn keyed_set_cache_follows_the_minimum_into_a_freed_slot() {
        let mut h = cached_set();
        // `swap_remove` of slot 0 moves the minimum there from the end.
        h.remove(0);
        assert_eq!(h.min, Some(0));
        assert_eq!(h.peek(), Some((1.0, 2, 2)));
        assert_eq!(h.key_of(1), Some((3.0, 1)));
    }

    /// What the merged pop yields: a queued payload or a held id firing.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Fired {
        Queued(u32),
        Held(usize),
    }

    /// The mesh engine's main-loop step: the earlier of the calendar's
    /// next event and the set's minimum, by `(time, ticket)`.
    fn merged_pop(cal: &mut CalendarQueue<u32>, held: &mut KeyedSet) -> Option<(f64, Fired)> {
        match held.first_before(cal.peek_key()) {
            Some((t, id)) => {
                cal.advance(t);
                held.remove(id);
                Some((t, Fired::Held(id)))
            }
            None => cal.pop_next().map(|(t, v)| (t, Fired::Queued(v))),
        }
    }

    /// The scheme the merged pop replaced, as the reference: everything in
    /// one [`EventQueue`], a re-key pushing a new versioned entry and a
    /// cancel bumping the version, superseded entries discarded on pop.
    fn lazy_pop(
        all: &mut EventQueue<(Fired, u64)>,
        version: &mut [u64],
        live: &mut [bool],
    ) -> Option<(f64, Fired)> {
        loop {
            let (t, (fired, v)) = all.pop_next()?;
            match fired {
                Fired::Queued(_) => return Some((t, fired)),
                Fired::Held(id) if live[id] && version[id] == v => {
                    live[id] = false;
                    return Some((t, fired));
                }
                Fired::Held(_) => {}
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After every random `set` or `remove` over 64 ids, the set's
        /// minimum is the brute-force minimum of a shadow map of the keys.
        #[test]
        fn keyed_set_minimum_matches_a_brute_force_scan(
            ops in prop::collection::vec((0u8..3, 0usize..64, 0u8..16), 1..400),
        ) {
            let mut h = KeyedSet::default();
            let mut shadow = std::collections::HashMap::new();
            for (seq, (op, id, t)) in (0u64..).zip(ops) {
                if op == 0 {
                    h.remove(id);
                    shadow.remove(&id);
                } else {
                    // A coarse grid makes equal times common.
                    let time = f64::from(t) * 0.5;
                    h.set(id, time, seq);
                    shadow.insert(id, (time, seq));
                }
                let want = shadow
                    .iter()
                    .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite keys"))
                    .map(|(&id, &(time, _))| (time, id));
                prop_assert_eq!(h.first_before(None), want);
                prop_assert_eq!(h.key_of(id), shadow.get(&id).copied());
            }
        }

        /// The calendar queue must replay the `BinaryHeap` reference
        /// exactly — same pop times (bitwise) and same payloads, including
        /// FIFO order among same-timestamp ties — across random
        /// schedule/pop interleavings that drive it through grow/shrink
        /// resizes and bucket-rotation fallbacks.
        #[test]
        fn calendar_matches_heap_on_random_interleavings(
            ops in prop::collection::vec((0u8..2, 0.0f64..50.0, 0usize..4), 1..300),
        ) {
            let mut cal: CalendarQueue<u32> = CalendarQueue::new();
            let mut heap: EventQueue<u32> = EventQueue::new();
            let mut next = 0u32;
            for (pop, dt, dup) in ops {
                if pop == 1 {
                    match (cal.pop_next(), heap.pop_next()) {
                        (Some((tc, vc)), Some((th, vh))) => {
                            prop_assert_eq!(tc.to_bits(), th.to_bits());
                            prop_assert_eq!(vc, vh);
                        }
                        (None, None) => {}
                        (c, h) => prop_assert!(false, "divergence: {:?} vs {:?}", c, h),
                    }
                } else {
                    // dup+1 events at one timestamp exercise the FIFO
                    // tie-break; the time base is whichever clock both
                    // queues share (they pop in lockstep).
                    let t = cal.now() + dt;
                    for _ in 0..=dup {
                        cal.schedule(t, next);
                        heap.schedule(t, next);
                        next += 1;
                    }
                }
            }
            loop {
                match (cal.pop_next(), heap.pop_next()) {
                    (Some((tc, vc)), Some((th, vh))) => {
                        prop_assert_eq!(tc.to_bits(), th.to_bits());
                        prop_assert_eq!(vc, vh);
                    }
                    (None, None) => break,
                    (c, h) => prop_assert!(false, "drain divergence: {:?} vs {:?}", c, h),
                }
            }
        }

        /// Calendar + keyed set with shared tickets pops exactly what
        /// one lazily-deleting queue pops — times bitwise, same-timestamp
        /// bursts in the same FIFO order — under random interleavings of
        /// schedule, re-key, cancel and pop.
        #[test]
        fn merged_pop_order_matches_lazy_deletion(
            ops in prop::collection::vec((0u8..5, 0u32..40, 0usize..12, 0usize..4), 1..400),
        ) {
            const IDS: usize = 12;
            let mut cal: CalendarQueue<u32> = CalendarQueue::new();
            let mut held = KeyedSet::default();
            let mut all: EventQueue<(Fired, u64)> = EventQueue::new();
            let (mut version, mut live) = ([0u64; IDS], [false; IDS]);
            let mut next = 0u32;
            for (op, dt, id, dup) in ops {
                // A coarse time grid makes equal timestamps common. The
                // reference's clock is the later one when it drained
                // superseded entries past the last live event.
                let t = all.now() + f64::from(dt) * 0.25;
                match op {
                    0 => {
                        for _ in 0..=dup {
                            cal.schedule(t, next);
                            all.schedule(t, (Fired::Queued(next), 0));
                            next += 1;
                        }
                    }
                    1 | 2 => {
                        let ticket = cal.ticket();
                        held.set(id, t, ticket);
                        version[id] += 1;
                        live[id] = true;
                        all.schedule(t, (Fired::Held(id), version[id]));
                    }
                    3 => {
                        held.remove(id);
                        live[id] = false;
                    }
                    _ => {
                        let got = merged_pop(&mut cal, &mut held);
                        let want = lazy_pop(&mut all, &mut version, &mut live);
                        prop_assert_eq!(got.map(|(t, f)| (t.to_bits(), f)),
                                                  want.map(|(t, f)| (t.to_bits(), f)));
                    }
                }
            }
            loop {
                let got = merged_pop(&mut cal, &mut held);
                let want = lazy_pop(&mut all, &mut version, &mut live);
                prop_assert_eq!(got.map(|(t, f)| (t.to_bits(), f)),
                                          want.map(|(t, f)| (t.to_bits(), f)));
                if got.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn calendar_far_future_fallback_scan() {
        // One event many "years" ahead of the cursor: the rotation comes up
        // empty and the direct-minimum fallback must find it.
        let mut q = CalendarQueue::new();
        q.schedule(0.5, "near");
        q.schedule(1e9, "far");
        assert_eq!(q.pop_next().unwrap().1, "near");
        assert_eq!(q.pop_next().unwrap().1, "far");
    }
}
