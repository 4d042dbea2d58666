//! Deep Q-Network agent with action masking, experience replay and a target
//! network — the optimiser of Algorithm 1.
//!
//! The paper's loss (Alg. 1, line 4) is
//! `L(s, a | θ) = (r + max_a' Q(s', a' | θ) − Q(s, a | θ))²`; this agent
//! minimises exactly that squared temporal difference, with the usual
//! stabilisers (a periodically-synced target network for the bootstrap term
//! and uniform replay sampling).

use crate::mdp::{Environment, StepError};
use crate::replay::{Experience, ReplayBuffer, StoredState};
use learn::nn::{
    Activation, AdamOptimizer, BatchWorkspace, ForwardScratch, Mlp, NetworkError, PrefixRow,
};
use rand::Rng;
use std::fmt;
use std::sync::Arc;

/// Hyper-parameters for [`DqnAgent`].
#[derive(Debug, Clone, PartialEq)]
pub struct DqnConfig {
    /// Hidden-layer widths of the Q-network.
    pub hidden: Vec<usize>,
    /// Discount factor λ.
    pub discount: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Initial exploration rate.
    pub epsilon: f64,
    /// Multiplicative ε decay per episode.
    pub epsilon_decay: f64,
    /// Floor for ε.
    pub epsilon_min: f64,
    /// Replay buffer capacity.
    pub replay_capacity: usize,
    /// Minibatch size per learning step.
    pub batch_size: usize,
    /// Environment steps between target-network syncs.
    pub target_sync_interval: usize,
    /// Safety cap on steps per episode.
    pub max_steps_per_episode: usize,
    /// Use the Double-DQN target (`r + λ Q_target(s', argmax_a Q_online(s',
    /// a))`), which counters Q-learning's max-operator overestimation bias.
    /// An extension beyond the paper's plain DQN; ablatable.
    pub double_dqn: bool,
}

impl Default for DqnConfig {
    fn default() -> Self {
        Self {
            hidden: vec![64, 32],
            discount: 0.95,
            learning_rate: 1e-3,
            epsilon: 1.0,
            epsilon_decay: 0.97,
            epsilon_min: 0.05,
            replay_capacity: 10_000,
            batch_size: 32,
            target_sync_interval: 200,
            max_steps_per_episode: 500,
            double_dqn: false,
        }
    }
}

/// Error returned by DQN training or acting.
#[derive(Debug, Clone, PartialEq)]
pub enum DqnError {
    /// The environment reported an empty action set in a non-terminal state.
    NoValidActions,
    /// Underlying network error.
    Network(NetworkError),
    /// Environment step failed.
    Step(StepError),
}

impl fmt::Display for DqnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DqnError::NoValidActions => {
                write!(f, "environment offered no valid actions in a non-terminal state")
            }
            DqnError::Network(e) => write!(f, "network error: {e}"),
            DqnError::Step(e) => write!(f, "environment step failed: {e}"),
        }
    }
}

impl std::error::Error for DqnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DqnError::Network(e) => Some(e),
            DqnError::Step(e) => Some(e),
            DqnError::NoValidActions => None,
        }
    }
}

impl From<NetworkError> for DqnError {
    fn from(e: NetworkError) -> Self {
        DqnError::Network(e)
    }
}

impl From<StepError> for DqnError {
    fn from(e: StepError) -> Self {
        DqnError::Step(e)
    }
}

/// Work counts of an agent's learn steps since construction.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TrainCounters {
    /// Minibatch updates applied.
    pub learn_steps: u64,
    /// Sampled non-terminal transitions whose target-network row was
    /// already stored under the current sync epoch.
    pub bootstrap_hits: u64,
    /// Sampled non-terminal transitions whose row had to be evaluated.
    pub bootstrap_misses: u64,
    /// Online → target parameter copies.
    pub target_syncs: u64,
}

/// A DQN agent bound to a fixed state/action geometry.
#[derive(Debug, Clone)]
pub struct DqnAgent {
    online: Mlp,
    target: Mlp,
    optimizer: AdamOptimizer,
    replay: ReplayBuffer,
    config: DqnConfig,
    epsilon: f64,
    num_actions: usize,
    /// Length of the states' binary prefix, learnt from the environment at
    /// each episode start ([`Environment::binary_prefix`]).
    binary_prefix: usize,
    /// Bumped by every online → target copy; the replay's memoised target
    /// rows are current only under the epoch they were stored with.
    target_epoch: u64,
    counters: TrainCounters,
    /// Scratch for the TD forward/backward pass (and, before it, the
    /// Double-DQN online forward over the successor states).
    ws: BatchWorkspace,
    /// Scratch for single-state forwards: action selection and the target
    /// rows the memo misses.
    forward: ForwardScratch,
    /// Per-step scratch: a missed successor state written out densely, the
    /// sampled replay slots, and their actions and bootstrap values.
    dense: Vec<f64>,
    slots: Vec<usize>,
    actions: Vec<usize>,
    bootstraps: Vec<f64>,
}

/// Greedy action over `q` restricted to a non-empty `valid`, ties toward
/// lower indices.
fn greedy(q: &[f64], valid: &[usize]) -> usize {
    valid
        .iter()
        .copied()
        .max_by(|&a, &b| q[a].partial_cmp(&q[b]).expect("finite Q").then(b.cmp(&a)))
        .expect("non-empty valid set")
}

/// ε-greedy choice over `valid`: one `gen_bool(ε)`, then either one
/// `gen_range` over `valid` or whatever `exploit` picks.
fn epsilon_greedy(
    epsilon: f64,
    valid: &[usize],
    rng: &mut impl Rng,
    exploit: impl FnOnce() -> Result<usize, DqnError>,
) -> Result<usize, DqnError> {
    if valid.is_empty() {
        return Err(DqnError::NoValidActions);
    }
    if rng.gen_bool(epsilon.clamp(0.0, 1.0)) {
        Ok(valid[rng.gen_range(0..valid.len())])
    } else {
        exploit()
    }
}

impl DqnAgent {
    /// Creates an agent for `state_dim`-dimensional states and
    /// `num_actions` actions.
    ///
    /// # Errors
    ///
    /// Propagates [`NetworkError`] for degenerate architectures.
    pub fn new(
        state_dim: usize,
        num_actions: usize,
        config: DqnConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, DqnError> {
        let mut sizes = vec![state_dim];
        sizes.extend_from_slice(&config.hidden);
        sizes.push(num_actions);
        let online = Mlp::new(&sizes, Activation::Relu, rng)?;
        let target = online.clone();
        let optimizer = AdamOptimizer::new(config.learning_rate);
        let replay = ReplayBuffer::new(config.replay_capacity.max(1));
        Ok(Self {
            online,
            target,
            optimizer,
            replay,
            epsilon: config.epsilon,
            config,
            num_actions,
            binary_prefix: 0,
            target_epoch: 1,
            counters: TrainCounters::default(),
            ws: BatchWorkspace::new(),
            forward: ForwardScratch::default(),
            dense: Vec::new(),
            slots: Vec::new(),
            actions: Vec::new(),
            bootstraps: Vec::new(),
        })
    }

    /// Learn-step work counts: how often the memoised target rows hit.
    #[doc(hidden)]
    pub fn train_counters(&self) -> TrainCounters {
        self.counters
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The action space size this agent was built for.
    pub fn num_actions(&self) -> usize {
        self.num_actions
    }

    /// Raw `f64` bit patterns of the online then target network parameters.
    /// Test hook for bit-identity assertions across execution strategies.
    #[doc(hidden)]
    pub fn parameter_bits(&self) -> Vec<u64> {
        let mut bits = self.online.parameter_bits();
        bits.extend(self.target.parameter_bits());
        bits
    }

    /// Q-values of every action at `state`.
    ///
    /// # Errors
    ///
    /// Propagates arity mismatches from the network.
    pub fn q_values(&self, state: &[f64]) -> Result<Vec<f64>, DqnError> {
        Ok(self.online.forward_single(state)?)
    }

    /// The state dimensionality this agent was built for.
    pub fn state_dim(&self) -> usize {
        self.online.input_size()
    }

    /// Greedy action restricted to `valid`, ties toward lower indices.
    ///
    /// # Errors
    ///
    /// [`DqnError::NoValidActions`] when `valid` is empty.
    pub fn act_greedy(&self, state: &[f64], valid: &[usize]) -> Result<usize, DqnError> {
        self.act_greedy_scratch(state, valid, &mut ForwardScratch::default())
    }

    /// [`Self::act_greedy`] with the forward in caller-owned scratch.
    fn act_greedy_scratch(
        &self,
        state: &[f64],
        valid: &[usize],
        scratch: &mut ForwardScratch,
    ) -> Result<usize, DqnError> {
        if valid.is_empty() {
            return Err(DqnError::NoValidActions);
        }
        Ok(greedy(self.online.forward_single_scratch(state, scratch)?, valid))
    }

    /// ε-greedy action restricted to `valid`.
    ///
    /// # Errors
    ///
    /// [`DqnError::NoValidActions`] when `valid` is empty.
    pub fn act(
        &self,
        state: &[f64],
        valid: &[usize],
        rng: &mut impl Rng,
    ) -> Result<usize, DqnError> {
        epsilon_greedy(self.epsilon, valid, rng, || self.act_greedy(state, valid))
    }

    /// Runs one training episode on `env`, returning its cumulative reward.
    ///
    /// # Errors
    ///
    /// Propagates environment and network errors.
    pub fn train_episode(
        &mut self,
        env: &mut impl Environment,
        rng: &mut impl Rng,
    ) -> Result<f64, DqnError> {
        self.run_episode(env, rng, Self::learn_step)
    }

    /// [`Self::train_episode`] with the minibatch update as a parameter, so
    /// tests can drive the per-sample oracle through the same loop.
    fn run_episode<R: Rng>(
        &mut self,
        env: &mut impl Environment,
        rng: &mut R,
        mut learn: impl FnMut(&mut Self, &mut R) -> Result<(), DqnError>,
    ) -> Result<f64, DqnError> {
        let mut state = env.reset();
        self.binary_prefix = env.binary_prefix();
        // Each state is compacted once and shared by the transition that
        // reaches it and the one that leaves it; its valid actions ride
        // along, so the mask computed for the TD target also serves the
        // next step's action choice.
        let mut stored =
            Arc::new(StoredState::new(&state, self.binary_prefix, env.valid_actions()));
        let mut total = 0.0;
        for _ in 0..self.config.max_steps_per_episode {
            if env.is_terminal() {
                break;
            }
            let valid = stored.valid();
            // The greedy forward runs in agent-owned scratch.
            let action = epsilon_greedy(self.epsilon, valid, rng, || {
                Ok(greedy(self.online.forward_single_scratch(&state, &mut self.forward)?, valid))
            })?;
            let tr = env.step(action)?;
            total += tr.reward;
            let next_valid = if tr.done { Vec::new() } else { env.valid_actions() };
            let next = Arc::new(StoredState::new(&tr.state, self.binary_prefix, next_valid));
            self.replay.push(Experience {
                state: stored,
                action,
                reward: tr.reward,
                next: Arc::clone(&next),
                done: tr.done,
            });
            learn(self, rng)?;
            state = tr.state;
            stored = next;
            if tr.done {
                break;
            }
        }
        self.epsilon = (self.epsilon * self.config.epsilon_decay).max(self.config.epsilon_min);
        Ok(total)
    }

    /// Runs the greedy policy for one episode, returning `(cumulative
    /// reward, actions taken)`. Leaves parameters untouched.
    ///
    /// # Errors
    ///
    /// Propagates environment and network errors.
    pub fn evaluate_episode(
        &self,
        env: &mut impl Environment,
    ) -> Result<(f64, Vec<usize>), DqnError> {
        let mut state = env.reset();
        let mut total = 0.0;
        let mut actions = Vec::new();
        let mut scratch = ForwardScratch::default();
        for _ in 0..self.config.max_steps_per_episode {
            if env.is_terminal() {
                break;
            }
            let valid = env.valid_actions();
            let action = self.act_greedy_scratch(&state, &valid, &mut scratch)?;
            let tr = env.step(action)?;
            actions.push(action);
            total += tr.reward;
            state = tr.state;
            if tr.done {
                break;
            }
        }
        Ok((total, actions))
    }

    /// One minibatch TD update (no-op until the replay holds a full batch).
    ///
    /// Public (but doc-hidden) so `perfbench` can time the update in
    /// isolation; everything else reaches it through [`Self::train_episode`].
    ///
    /// # Errors
    ///
    /// Propagates network and optimizer errors.
    #[doc(hidden)]
    pub fn learn_step(&mut self, rng: &mut impl Rng) -> Result<(), DqnError> {
        if self.replay.len() < self.config.batch_size {
            return Ok(());
        }
        self.td_update(rng)?;
        self.finish_step()
    }

    /// Counts the update and copies online → target every
    /// `target_sync_interval` of them, which retires every memoised row.
    fn finish_step(&mut self) -> Result<(), DqnError> {
        self.counters.learn_steps += 1;
        let interval = self.config.target_sync_interval.max(1) as u64;
        if self.counters.learn_steps.is_multiple_of(interval) {
            self.target.copy_parameters_from(&self.online)?;
            self.target_epoch += 1;
            self.counters.target_syncs += 1;
        }
        Ok(())
    }

    /// The TD update, computing only what can have changed since the last
    /// one.
    ///
    /// The bootstrap term needs the target network's output at each sampled
    /// successor state — a pure function of the target parameters and that
    /// state, both fixed until the next sync (or until the ring reuses the
    /// slot). So the row is evaluated once, by a single-state forward, and
    /// kept on the replay slot under the current sync epoch; re-sampled
    /// slots read it back. Plain DQN takes the masked max of the row,
    /// Double DQN the entry the online network's argmax picks. Row `s` of a
    /// batched forward equals the single-state forward bit for bit, so the
    /// bootstraps equal a batched target forward's.
    ///
    /// The online half runs through [`Mlp::train_td_batch_ws`] on the
    /// compact states, whose first layer skips the selection block's zeros.
    fn td_update(&mut self, rng: &mut impl Rng) -> Result<(), DqnError> {
        let Self {
            online,
            target,
            optimizer,
            replay,
            config,
            binary_prefix,
            target_epoch,
            counters,
            ws,
            forward,
            dense,
            slots,
            actions,
            bootstraps,
            ..
        } = self;
        let (prefix, epoch) = (*binary_prefix, *target_epoch);
        replay.sample_into(config.batch_size, rng, slots);

        for &slot in slots.iter() {
            let exp = replay.get(slot);
            if exp.is_terminal() {
                continue;
            }
            if replay.target_row(slot, epoch).is_some() {
                counters.bootstrap_hits += 1;
            } else {
                counters.bootstrap_misses += 1;
                exp.next.write_dense(target.input_size(), dense);
                let row = target.forward_single_scratch(dense, forward)?;
                replay.set_target_row(slot, epoch, row);
            }
        }

        let q_online = if config.double_dqn {
            // The online network selects the action, the target network
            // (through its stored row) evaluates it.
            let next: Vec<PrefixRow> = slots.iter().map(|&i| replay.get(i).next.as_row()).collect();
            Some(online.forward_prefix_batch_ws(prefix, &next, ws)?)
        } else {
            None
        };
        actions.clear();
        bootstraps.clear();
        for (s, &slot) in slots.iter().enumerate() {
            let exp = replay.get(slot);
            actions.push(exp.action);
            bootstraps.push(if exp.is_terminal() {
                exp.reward
            } else {
                let q_target = replay.target_row(slot, epoch).expect("stored above");
                let valid = exp.next.valid();
                let q_next = match q_online {
                    Some(q) => q_target[greedy(q.row(s), valid)],
                    None => valid.iter().map(|&a| q_target[a]).fold(f64::NEG_INFINITY, f64::max),
                };
                exp.reward + config.discount * q_next
            });
        }

        // TD step: target rows are the training forward's own predictions
        // with the taken action's entry replaced by its bootstrap value —
        // no separate predict-the-targets forward needed.
        let states: Vec<PrefixRow> = slots.iter().map(|&i| replay.get(i).state.as_row()).collect();
        online.train_td_batch_ws(prefix, &states, actions, bootstraps, optimizer, ws)?;
        Ok(())
    }

    /// Per-sample reference for [`Self::learn_step`]: every bootstrap is
    /// recomputed with [`Mlp::forward`] on the dense state and the update
    /// goes through [`Mlp::train_batch`] — no memo, no sparse kernel, no
    /// batching.
    #[cfg(test)]
    fn learn_step_oracle(&mut self, rng: &mut impl Rng) -> Result<(), DqnError> {
        if self.replay.len() < self.config.batch_size {
            return Ok(());
        }
        self.replay.sample_into(self.config.batch_size, rng, &mut self.slots);
        let state_dim = self.online.input_size();
        let mut inputs = Vec::with_capacity(self.slots.len());
        let mut targets = Vec::with_capacity(self.slots.len());
        for &slot in &self.slots {
            let exp = self.replay.get(slot);
            let (mut state, mut next) = (Vec::new(), Vec::new());
            exp.state.write_dense(state_dim, &mut state);
            exp.next.write_dense(state_dim, &mut next);
            // Target = current prediction everywhere except the taken
            // action, which gets the Alg.-1 bootstrap value. This makes the
            // batch MSE exactly the per-action TD loss.
            let mut t = self.online.forward(&state)?;
            t[exp.action] = if exp.is_terminal() {
                exp.reward
            } else if self.config.double_dqn {
                let chosen = greedy(&self.online.forward(&next)?, exp.next.valid());
                exp.reward + self.config.discount * self.target.forward(&next)?[chosen]
            } else {
                let qn = self.target.forward(&next)?;
                let best =
                    exp.next.valid().iter().map(|&a| qn[a]).fold(f64::NEG_INFINITY, f64::max);
                exp.reward + self.config.discount * best
            };
            inputs.push(state);
            targets.push(t);
        }
        self.online.train_batch(&inputs, &targets, &mut self.optimizer)?;
        self.finish_step()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc_env::{AllocEnv, AllocSpec};
    use crate::mdp::Transition;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two-step bandit chain: state 0, action 0 pays 0.1 and ends; action 1
    /// moves to state 1 where action 0 pays 1.0. Optimal = delayed reward.
    struct Chain {
        state: usize,
        done: bool,
    }

    impl Chain {
        fn new() -> Self {
            Self { state: 0, done: false }
        }
        fn encode(&self) -> Vec<f64> {
            // One-hot: an all-zero input would starve ReLU gradients.
            vec![f64::from(self.state == 0), f64::from(self.state == 1)]
        }
    }

    impl Environment for Chain {
        fn num_actions(&self) -> usize {
            2
        }
        fn state_dim(&self) -> usize {
            2
        }
        fn reset(&mut self) -> Vec<f64> {
            self.state = 0;
            self.done = false;
            self.encode()
        }
        fn valid_actions(&self) -> Vec<usize> {
            if self.done {
                Vec::new()
            } else if self.state == 0 {
                vec![0, 1]
            } else {
                vec![0]
            }
        }
        fn step(&mut self, action: usize) -> Result<Transition, StepError> {
            if self.done {
                return Err(StepError::EpisodeOver);
            }
            if action >= 2 {
                return Err(StepError::UnknownAction { action, num_actions: 2 });
            }
            match (self.state, action) {
                (0, 0) => {
                    self.done = true;
                    Ok(Transition { state: self.encode(), reward: 0.1, done: true })
                }
                (0, 1) => {
                    self.state = 1;
                    Ok(Transition { state: self.encode(), reward: 0.0, done: false })
                }
                (1, 0) => {
                    self.done = true;
                    Ok(Transition { state: self.encode(), reward: 1.0, done: true })
                }
                _ => Err(StepError::InvalidAction { action }),
            }
        }
        fn is_terminal(&self) -> bool {
            self.done
        }
    }

    fn quick_config() -> DqnConfig {
        DqnConfig {
            hidden: vec![16],
            batch_size: 8,
            replay_capacity: 256,
            target_sync_interval: 20,
            epsilon_decay: 0.95,
            ..DqnConfig::default()
        }
    }

    #[test]
    fn learns_delayed_reward() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut env = Chain::new();
        let mut agent = DqnAgent::new(2, 2, quick_config(), &mut rng).unwrap();
        for _ in 0..300 {
            agent.train_episode(&mut env, &mut rng).unwrap();
        }
        let (reward, actions) = agent.evaluate_episode(&mut env).unwrap();
        assert_eq!(actions, vec![1, 0], "should take the delayed-reward path");
        assert!((reward - 1.0).abs() < 1e-12);
    }

    #[test]
    fn masking_restricts_choices() {
        let mut rng = StdRng::seed_from_u64(8);
        let agent = DqnAgent::new(1, 3, quick_config(), &mut rng).unwrap();
        for _ in 0..20 {
            let a = agent.act(&[0.0], &[2], &mut rng).unwrap();
            assert_eq!(a, 2);
        }
        assert!(matches!(agent.act(&[0.0], &[], &mut rng), Err(DqnError::NoValidActions)));
    }

    #[test]
    fn epsilon_decays_toward_floor() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut env = Chain::new();
        let mut agent = DqnAgent::new(
            2,
            2,
            DqnConfig { epsilon_min: 0.1, epsilon_decay: 0.5, ..quick_config() },
            &mut rng,
        )
        .unwrap();
        for _ in 0..30 {
            agent.train_episode(&mut env, &mut rng).unwrap();
        }
        assert!((agent.epsilon() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn q_values_have_action_arity() {
        let mut rng = StdRng::seed_from_u64(10);
        let agent = DqnAgent::new(4, 5, quick_config(), &mut rng).unwrap();
        assert_eq!(agent.q_values(&[0.0; 4]).unwrap().len(), 5);
        assert_eq!(agent.num_actions(), 5);
        assert_eq!(agent.state_dim(), 4);
        assert!(agent.q_values(&[0.0; 3]).is_err());
    }

    #[test]
    fn double_dqn_also_learns_delayed_reward() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut env = Chain::new();
        let mut agent =
            DqnAgent::new(2, 2, DqnConfig { double_dqn: true, ..quick_config() }, &mut rng)
                .unwrap();
        for _ in 0..300 {
            agent.train_episode(&mut env, &mut rng).unwrap();
        }
        let (reward, actions) = agent.evaluate_episode(&mut env).unwrap();
        assert_eq!(actions, vec![1, 0]);
        assert!((reward - 1.0).abs() < 1e-12);
    }

    /// Trains `episodes` episodes with `learn` as the minibatch update.
    fn train_with<E: Environment>(
        mut env: E,
        config: DqnConfig,
        episodes: usize,
        mut learn: impl FnMut(&mut DqnAgent, &mut StdRng) -> Result<(), DqnError>,
    ) -> DqnAgent {
        let mut rng = StdRng::seed_from_u64(33);
        let mut agent =
            DqnAgent::new(env.state_dim(), env.num_actions(), config, &mut rng).unwrap();
        for _ in 0..episodes {
            agent.run_episode(&mut env, &mut rng, &mut learn).unwrap();
        }
        agent
    }

    #[test]
    fn batched_learn_step_bits_match_scalar_path() {
        // Same seed, same environment, same sampling stream: the learn step
        // must leave exactly the same weights as the per-sample oracle — for
        // plain and Double DQN.
        for double_dqn in [false, true] {
            let config = DqnConfig { double_dqn, ..quick_config() };
            let fast = train_with(Chain::new(), config.clone(), 60, DqnAgent::learn_step);
            let oracle = train_with(Chain::new(), config, 60, DqnAgent::learn_step_oracle);
            assert_eq!(fast.parameter_bits(), oracle.parameter_bits(), "double_dqn = {double_dqn}");
            assert_eq!(fast.train_counters().learn_steps, oracle.train_counters().learn_steps);
        }
    }

    /// A small allocation MDP: a 6 × 2 selection block (the binary prefix)
    /// ahead of the dense columns, routed or not.
    fn alloc_env(routed: bool) -> AllocEnv {
        AllocEnv::new(AllocSpec {
            importances: vec![0.9, 0.2, 0.6, 0.4, 0.8, 0.1],
            times: vec![1.0, 2.0, 1.5, 1.0, 2.5, 0.5],
            resources: vec![1.0, 0.5, 1.0, 2.0, 1.0, 0.5],
            time_limit: 3.0,
            time_limits: None,
            capacities: vec![3.0, 2.5],
            route_factors: routed.then(|| vec![1.0, 0.5]),
        })
        .unwrap()
    }

    #[test]
    fn memoised_bootstraps_bits_match_oracle_across_syncs_and_ring_wraps() {
        for (double_dqn, routed) in [(false, false), (true, false), (false, true), (true, true)] {
            let config = DqnConfig {
                hidden: vec![12, 9],
                batch_size: 16,
                replay_capacity: 24,
                target_sync_interval: 20,
                double_dqn,
                ..DqnConfig::default()
            };
            // Before each update, peek at the slots it is about to draw
            // (same generator state, same draws): sampling is with
            // replacement, so a slot can come up twice — and when its row is
            // not current, the second draw must read what the first stored.
            let mut repeated_misses = 0;
            let fast = train_with(alloc_env(routed), config.clone(), 25, |agent, rng| {
                if agent.replay.len() >= agent.config.batch_size {
                    let mut slots = Vec::new();
                    agent.replay.sample_into(agent.config.batch_size, &mut rng.clone(), &mut slots);
                    slots.sort_unstable();
                    repeated_misses += slots
                        .windows(2)
                        .filter(|w| {
                            w[0] == w[1]
                                && !agent.replay.get(w[0]).is_terminal()
                                && agent.replay.target_row(w[0], agent.target_epoch).is_none()
                        })
                        .count();
                }
                agent.learn_step(rng)
            });
            let oracle = train_with(alloc_env(routed), config, 25, DqnAgent::learn_step_oracle);
            assert_eq!(
                fast.parameter_bits(),
                oracle.parameter_bits(),
                "double_dqn = {double_dqn}, routed = {routed}"
            );

            let c = fast.train_counters();
            assert!(c.target_syncs >= 3, "only {} target syncs", c.target_syncs);
            assert!(
                c.learn_steps > 2 * fast.replay.capacity() as u64,
                "the ring must wrap: {} steps",
                c.learn_steps
            );
            assert!(repeated_misses > 0, "no batch drew a stale slot twice");
            assert!(c.bootstrap_hits > 0 && c.bootstrap_misses > 0, "{c:?}");
            assert_eq!(fast.binary_prefix, 12);
        }
    }

    /// The paper's 50 × 9 geometry, routed or not.
    fn paper_env(routed: bool) -> AllocEnv {
        let n = 50;
        AllocEnv::new(AllocSpec {
            importances: (0..n).map(|j| (j * 37 % 100) as f64 / 100.0).collect(),
            times: (0..n).map(|j| 0.5 + (j * 13 % 10) as f64 / 10.0).collect(),
            resources: (0..n).map(|j| 0.2 + (j * 7 % 5) as f64 / 10.0).collect(),
            time_limit: 4.0,
            time_limits: None,
            capacities: vec![4.0; 9],
            route_factors: routed.then(|| (0..9).map(|p| 1.0 - p as f64 / 12.0).collect()),
        })
        .unwrap()
    }

    #[test]
    fn bootstrap_memo_hits_at_the_benchmark_shape() {
        // The paper's geometry with the benchmark's `hidden [48]` network
        // and default replay/sync settings: a sampled successor state's
        // target row is almost always still current.
        let config = DqnConfig { hidden: vec![48], ..DqnConfig::default() };
        let agent = train_with(paper_env(false), config, 8, DqnAgent::learn_step);
        let c = agent.train_counters();
        let lookups = c.bootstrap_hits + c.bootstrap_misses;
        assert!(c.target_syncs >= 1 && lookups > 0, "{c:?}");
        assert!(
            (c.bootstrap_misses as f64) < 0.10 * lookups as f64,
            "miss fraction {:.3} ({c:?})",
            c.bootstrap_misses as f64 / lookups as f64
        );
    }

    #[test]
    fn rollout_matches_an_episode_driven_through_the_reference_forward() {
        // The served decision: `evaluate_episode` on a trained agent at the
        // benchmark shape, against the same episode stepped by hand with
        // `Mlp::forward` choosing every action.
        for routed in [false, true] {
            let config = DqnConfig { hidden: vec![48], ..DqnConfig::default() };
            let agent = train_with(paper_env(routed), config, 3, DqnAgent::learn_step);
            let mut env = paper_env(routed);
            let mut state = env.reset();
            let (mut reward, mut actions) = (0.0, Vec::new());
            while !env.is_terminal() {
                let q = agent.online.forward(&state).unwrap();
                let bits = |q: &[f64]| q.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&agent.q_values(&state).unwrap()),
                    bits(&q),
                    "routed = {routed}, step {}",
                    actions.len()
                );
                let action = greedy(&q, &env.valid_actions());
                let tr = env.step(action).unwrap();
                actions.push(action);
                reward += tr.reward;
                state = tr.state;
            }
            assert!(actions.len() > 1, "a {}-step episode compares nothing", actions.len());
            assert_eq!(agent.evaluate_episode(&mut env).unwrap(), (reward, actions));
        }
    }

    #[test]
    fn evaluate_does_not_mutate_parameters() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut env = Chain::new();
        let mut agent = DqnAgent::new(2, 2, quick_config(), &mut rng).unwrap();
        for _ in 0..10 {
            agent.train_episode(&mut env, &mut rng).unwrap();
        }
        let before = agent.q_values(&[1.0, 0.0]).unwrap();
        agent.evaluate_episode(&mut env).unwrap();
        assert_eq!(agent.q_values(&[1.0, 0.0]).unwrap(), before);
    }
}
