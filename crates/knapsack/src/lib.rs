//! # knapsack — multiply-constrained multiple knapsack (MCMK) substrate
//!
//! Theorem 1 of the paper reduces TATIM (task allocation with task
//! importance) to the 0-1 multiply-constrained multiple knapsack problem:
//! tasks are items (execution time = weight, resource demand = volume,
//! importance = profit) and processors are sacks (time limit and resource
//! capacity). This crate provides the combinatorial machinery:
//!
//! * [`problem`] — items, sacks, packings, feasibility.
//! * [`exact`] — branch-and-bound (optionally anytime) and brute force.
//! * [`greedy`] — density greedy + local search, the on-edge-affordable
//!   heuristics.
//! * [`portfolio`] — anytime solver portfolio: warm start + budgeted
//!   branch-and-bound + optimality-gap certificate, for production-size
//!   instances.
//! * [`bounds`] — fractional and surrogate relaxation upper bounds.
//! * [`generator`] — long-tail random instances shaped like TATIM
//!   workloads.
//!
//! ## Example
//!
//! ```
//! use knapsack::exact::BranchAndBound;
//! use knapsack::greedy::greedy;
//! use knapsack::problem::{Item, Problem, Sack};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let problem = Problem::new(
//!     vec![Item::new(2.0, 1.0, 0.9)?, Item::new(1.0, 1.0, 0.2)?],
//!     vec![Sack::new(2.0, 2.0)?],
//! )?;
//! let heuristic = greedy(&problem);
//! let optimum = BranchAndBound::new().solve(&problem);
//! assert!(heuristic.profit <= optimum.profit);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod exact;
mod first_hit;
pub mod generator;
pub mod greedy;
pub mod portfolio;
pub mod problem;
