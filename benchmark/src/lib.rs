//! The system benchmark of this repository: four named workloads, nine
//! end-to-end metrics with fixed regression bounds, forty-six per-layer
//! metrics from a traced run, output validation, and `compare`. `README.md`
//! has the rationale and the metric tables; `src/main.rs` the command line.

pub mod catalog;
pub mod harness;
pub mod host;
pub mod json;
pub mod stats;
pub mod suite;
pub mod trace;
pub mod workloads;
