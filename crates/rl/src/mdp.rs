//! Environment abstractions for reinforcement learning.
//!
//! The paper optimises TATIM "in a Markov Decision Process ... a five-tuple
//! ⟨S, A, P, r, λ⟩" (§III-B). [`Environment`] exposes encoded (vector)
//! states for function-approximation agents like the DQN.

use learn::nn::PrefixRow;
use std::fmt;

/// Error returned when stepping an environment with an unusable action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepError {
    /// The action index is out of range.
    UnknownAction {
        /// The offending action.
        action: usize,
        /// The environment's action-space size.
        num_actions: usize,
    },
    /// The action is currently masked (invalid in this state).
    InvalidAction {
        /// The offending action.
        action: usize,
    },
    /// The episode already ended; call `reset` first.
    EpisodeOver,
}

impl fmt::Display for StepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StepError::UnknownAction { action, num_actions } => {
                write!(f, "action {action} out of range (space size {num_actions})")
            }
            StepError::InvalidAction { action } => {
                write!(f, "action {action} is invalid in the current state")
            }
            StepError::EpisodeOver => write!(f, "episode is over; reset the environment"),
        }
    }
}

impl std::error::Error for StepError {}

/// What one environment step returned; the successor state is
/// [`Environment::state`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Immediate reward.
    pub reward: f64,
    /// Whether the episode ended with this step.
    pub done: bool,
}

/// An episodic environment with vector-encoded states and a *masked*
/// discrete action space (invalid actions are reported per state, the way
/// the allocation MDP constrains placements to fitting processors).
///
/// The state is handed out in sparse-prefix form ([`PrefixRow`]): the
/// ascending indices of the ones in a leading 0/1 block, then every entry
/// after it. The block is `state_dim() - state().tail.len()` wide; a
/// plain dense state is the width-0 case.
pub trait Environment {
    /// Size of the (fixed) action space.
    fn num_actions(&self) -> usize;

    /// Length of the encoded state vector.
    fn state_dim(&self) -> usize;

    /// Starts a new episode, returning its initial state written out
    /// densely — what a probe of a context's starting state sends as a
    /// plain input. Agents read [`Environment::state`] instead.
    fn reset(&mut self) -> Vec<f64>;

    /// The current state.
    fn state(&self) -> PrefixRow<'_>;

    /// Actions valid in the current state. Never empty unless the episode
    /// is over.
    fn valid_actions(&self) -> Vec<usize>;

    /// Applies `action`.
    ///
    /// # Errors
    ///
    /// [`StepError`] when the action is unknown, masked, or the episode is
    /// over.
    fn step(&mut self, action: usize) -> Result<Transition, StepError>;

    /// Whether the current episode has ended.
    fn is_terminal(&self) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_error_messages() {
        assert!(StepError::UnknownAction { action: 5, num_actions: 3 }
            .to_string()
            .contains("out of range"));
        assert!(StepError::InvalidAction { action: 2 }.to_string().contains("invalid"));
        assert!(StepError::EpisodeOver.to_string().contains("reset"));
    }
}
