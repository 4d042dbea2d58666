//! # rl — reinforcement-learning substrate for the TATIM/DCTA reproduction
//!
//! Implements the learning stack of §III: the allocation MDP with the
//! paper's one-action-per-step trick and terminal `Σ I_j` reward, deep
//! Q-learning with replay and a target network (Algorithm 1's optimiser),
//! and Clustered RL (kNN environment definition over a historical store,
//! per-environment agent cache).
//!
//! * [`mdp`] — environment traits and step errors.
//! * [`replay`] — experience replay buffer.
//! * [`dqn`] — masked-action DQN agent.
//! * [`alloc_env`] — the TATIM allocation environment (`e = [I_j × V_p]`).
//! * [`crl`] — Clustered Reinforcement Learning (Algorithm 1).
//!
//! ## Example
//!
//! ```
//! use rl::alloc_env::{AllocEnv, AllocSpec};
//! use rl::mdp::Environment;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = AllocSpec {
//!     importances: vec![0.9, 0.1],
//!     times: vec![1.0, 1.0],
//!     resources: vec![1.0, 1.0],
//!     time_limit: 1.0,
//!     time_limits: None,
//!     capacities: vec![1.0],
//!     route_factors: None,
//! };
//! let mut env = AllocEnv::new(spec)?;
//! env.reset();
//! env.step(0)?; // assign the important task
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alloc_env;
pub mod crl;
pub mod dqn;
pub mod mdp;
pub mod replay;
