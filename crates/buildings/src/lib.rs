//! # dcta-buildings — the synthetic green-building data substrate
//!
//! The paper's evaluation runs on a proprietary 1 TB, four-year operation
//! log of three commercial buildings' chiller plants (§V). Its allocator
//! only ever consumes *distributional statistics* of that data — per-task
//! sample counts, task importance profiles, day-to-day drift — so this
//! crate substitutes a seeded parametric generator calibrated to the
//! published statistics (Obs. 1: ~12.72 % of tasks carry >80 % of decision
//! performance; Obs. 3: importance fluctuates day to day).
//!
//! * [`weather`] — seeded seasonal/diurnal weather process.
//! * [`chiller`] — chiller physics: COP curves, part-load ratio.
//! * [`plant`] — multi-chiller plants and sequencing operations.
//! * [`telemetry`] — sensing records carrying the Table-I domain fields.
//! * [`scenario`] — the 50-task, four-year, three-building scenario
//!   generator ([`scenario::Scenario`] / [`scenario::ScenarioConfig`]).
//!
//! Everything is deterministic per seed: the same
//! [`scenario::ScenarioConfig`] always yields a bit-identical
//! [`scenario::Scenario`] (no wall-clock, no global state).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chiller;
pub mod plant;
pub mod scenario;
pub mod telemetry;
pub mod weather;
