//! Experience replay buffer for the DQN.
//!
//! A bounded ring buffer of transitions sampled uniformly at random —
//! the standard decorrelation device of deep Q-learning (the paper cites
//! the DQN line of work for its optimiser, §III-D).
//!
//! States are kept in the compact form the learn step consumes
//! ([`StoredState`]), shared between the transition that reached them and
//! the one that left them. Each slot also carries the target network's
//! output at its successor state, memoised per target-sync epoch.

use learn::nn::PrefixRow;
use rand::Rng;
use std::sync::Arc;

/// An encoded state as the replay keeps it: the ascending indices of the
/// ones in its binary prefix ([`crate::mdp::Environment::binary_prefix`]),
/// every entry after that prefix, and the actions valid in it.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredState {
    ones: Vec<u32>,
    tail: Vec<f64>,
    valid: Vec<usize>,
}

impl StoredState {
    /// Compacts `state`, whose first `binary_prefix` entries must be exactly
    /// `0.0` or `1.0`, and records the actions `valid` in it (empty when
    /// terminal).
    ///
    /// # Panics
    ///
    /// Panics if the prefix is longer than `state` or holds any other value
    /// — an environment that breaks its own `binary_prefix` promise.
    pub fn new(state: &[f64], binary_prefix: usize, valid: Vec<usize>) -> Self {
        let (block, tail) = state.split_at(binary_prefix);
        let mut ones = Vec::new();
        for (i, &x) in block.iter().enumerate() {
            if x == 1.0 {
                ones.push(u32::try_from(i).expect("state index fits u32"));
            } else {
                assert!(x == 0.0, "binary prefix entry {i} is {x}, not 0 or 1");
            }
        }
        Self { ones, tail: tail.to_vec(), valid }
    }

    /// The state as a network input.
    pub fn as_row(&self) -> PrefixRow<'_> {
        PrefixRow { ones: &self.ones, tail: &self.tail }
    }

    /// Actions valid in this state (empty when terminal).
    pub fn valid(&self) -> &[usize] {
        &self.valid
    }

    /// Writes the dense `state_dim`-long encoding back into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `state_dim` is shorter than the stored state.
    pub fn write_dense(&self, state_dim: usize, out: &mut Vec<f64>) {
        out.clear();
        out.resize(state_dim - self.tail.len(), 0.0);
        for &i in &self.ones {
            out[i as usize] = 1.0;
        }
        out.extend_from_slice(&self.tail);
    }
}

/// One stored transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Experience {
    /// State the action was taken in.
    pub state: Arc<StoredState>,
    /// Action taken.
    pub action: usize,
    /// Immediate reward.
    pub reward: f64,
    /// Successor state; its valid actions mask the TD target.
    pub next: Arc<StoredState>,
    /// Whether the episode ended.
    pub done: bool,
}

impl Experience {
    /// Whether the TD target is the bare reward (no bootstrap term).
    pub fn is_terminal(&self) -> bool {
        self.done || self.next.valid().is_empty()
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Slot {
    exp: Experience,
    /// The target network's output at `exp.next`, current while `row_epoch`
    /// equals the agent's sync epoch. Epoch 0 is never current.
    target_row: Vec<f64>,
    row_epoch: u64,
}

/// A bounded uniform-sampling replay buffer.
///
/// # Examples
///
/// ```
/// use rl::replay::{Experience, ReplayBuffer, StoredState};
/// use rand::SeedableRng;
/// use std::sync::Arc;
///
/// let mut buf = ReplayBuffer::new(2);
/// for i in 0..3 {
///     let state = Arc::new(StoredState::new(&[i as f64], 0, vec![0]));
///     let next = Arc::new(StoredState::new(&[0.0], 0, vec![]));
///     buf.push(Experience { state, action: 0, reward: 0.0, next, done: true });
/// }
/// assert_eq!(buf.len(), 2); // oldest evicted
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut slots = Vec::new();
/// buf.sample_into(5, &mut rng, &mut slots); // sampling with replacement
/// assert_eq!(slots.len(), 5);
/// assert!(buf.get(slots[0]).done);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayBuffer {
    slots: Vec<Slot>,
    capacity: usize,
    head: usize,
}

impl ReplayBuffer {
    /// Creates a buffer holding up to `capacity` transitions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self { slots: Vec::with_capacity(capacity.min(1 << 16)), capacity, head: 0 }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Maximum capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a transition, evicting the oldest when full. The evicted
    /// slot's memoised target row goes with it.
    pub fn push(&mut self, exp: Experience) {
        if self.slots.len() < self.capacity {
            self.slots.push(Slot { exp, target_row: Vec::new(), row_epoch: 0 });
        } else {
            let slot = &mut self.slots[self.head];
            slot.exp = exp;
            slot.row_epoch = 0;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Fills `slots` with `n` slot indices drawn uniformly with replacement
    /// (one `gen_range` each); leaves it empty when the buffer is empty.
    pub fn sample_into(&self, n: usize, rng: &mut impl Rng, slots: &mut Vec<usize>) {
        slots.clear();
        if !self.slots.is_empty() {
            slots.extend((0..n).map(|_| rng.gen_range(0..self.slots.len())));
        }
    }

    /// The transition in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.len()`.
    pub fn get(&self, slot: usize) -> &Experience {
        &self.slots[slot].exp
    }

    /// The target network's output at `slot`'s successor state, if it was
    /// stored under this sync `epoch` and the slot has not been overwritten
    /// since.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.len()`.
    pub fn target_row(&self, slot: usize, epoch: u64) -> Option<&[f64]> {
        let slot = &self.slots[slot];
        (slot.row_epoch == epoch).then_some(slot.target_row.as_slice())
    }

    /// Stores `row` as `slot`'s target output under sync `epoch` (which
    /// must be non-zero to ever be found again).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.len()`.
    pub fn set_target_row(&mut self, slot: usize, epoch: u64, row: &[f64]) {
        let slot = &mut self.slots[slot];
        slot.target_row.clear();
        slot.target_row.extend_from_slice(row);
        slot.row_epoch = epoch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn exp(tag: f64) -> Experience {
        let state = Arc::new(StoredState::new(&[tag], 0, vec![0]));
        Experience { next: Arc::clone(&state), state, action: 0, reward: tag, done: false }
    }

    fn sample(buf: &ReplayBuffer, n: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut slots = Vec::new();
        buf.sample_into(n, rng, &mut slots);
        slots
    }

    #[test]
    fn fifo_eviction_when_full() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(exp(i as f64));
        }
        assert_eq!(buf.len(), 3);
        // 0 and 1 evicted; remaining rewards are {2, 3, 4}.
        let mut rewards: Vec<f64> = (0..3).map(|s| buf.get(s).reward).collect();
        rewards.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(rewards, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn sample_empty_is_empty() {
        let buf = ReplayBuffer::new(4);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(sample(&buf, 3, &mut rng).is_empty());
    }

    #[test]
    fn sample_covers_buffer_eventually() {
        let mut buf = ReplayBuffer::new(8);
        for i in 0..8 {
            buf.push(exp(i as f64));
        }
        let mut rng = StdRng::seed_from_u64(1);
        let seen: std::collections::HashSet<usize> =
            sample(&buf, 500, &mut rng).into_iter().collect();
        assert_eq!(seen.len(), 8);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        ReplayBuffer::new(0);
    }

    #[test]
    fn stored_state_round_trips_through_dense() {
        let dense = [0.0, 1.0, -0.0, 1.0, 0.25, -3.0];
        let stored = StoredState::new(&dense, 4, vec![2]);
        assert_eq!(stored.as_row().ones, &[1, 3]);
        assert_eq!(stored.as_row().tail, &[0.25, -3.0]);
        let mut back = vec![9.0; 2];
        stored.write_dense(6, &mut back);
        assert_eq!(back, vec![0.0, 1.0, 0.0, 1.0, 0.25, -3.0]);
    }

    #[test]
    #[should_panic(expected = "not 0 or 1")]
    fn non_binary_prefix_entry_panics() {
        StoredState::new(&[0.0, 0.5], 2, vec![]);
    }

    #[test]
    fn target_rows_live_for_one_epoch_and_one_occupant() {
        let mut buf = ReplayBuffer::new(2);
        buf.push(exp(0.0));
        buf.push(exp(1.0));
        assert_eq!(buf.target_row(0, 1), None);
        buf.set_target_row(0, 1, &[0.5, 0.75]);
        assert_eq!(buf.target_row(0, 1), Some(&[0.5, 0.75][..]));
        // A target sync moves the epoch on: the row is stale.
        assert_eq!(buf.target_row(0, 2), None);
        // The ring overwrites slot 0: the row belonged to the old occupant.
        buf.push(exp(2.0));
        assert_eq!(buf.get(0).reward, 2.0);
        assert_eq!(buf.target_row(0, 1), None);
        assert_eq!(buf.target_row(1, 1), None);
    }
}
