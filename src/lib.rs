//! # tatim — Data-driven Task Allocation for Multi-task Transfer Learning on the Edge
//!
//! Facade crate for the ICDCS 2019 reproduction. Re-exports every workspace
//! crate under one roof so examples and integration tests can reach the full
//! stack:
//!
//! * [`core`] ([`dcta_core`]) — task importance, the TATIM problem, the CRL
//!   and DCTA allocators (the paper's contribution).
//! * [`knapsack`] — exact/greedy solvers for the multiply-constrained
//!   multiple knapsack problem TATIM reduces to (Thm. 1).
//! * [`learn`] — regression/SVM/trees/boosting/kNN/k-means/MLP substrate.
//! * [`rl`] — DQN and Clustered RL.
//! * [`edgesim`] — discrete-event simulator of the Raspberry-Pi testbed.
//! * [`parallel`] — deterministic fork-join layer (bit-identical results at
//!   any thread count).
//! * [`buildings`] — synthetic green-building (chiller AIOps) workloads.
//! * [`serve`] — allocation-as-a-service: a concurrent multi-tenant serving
//!   layer over prepared pipeline cores.
//!
//! See `README.md` for a tour and `DESIGN.md` for the per-experiment index.
//!
//! ## Quickstart
//!
//! ```
//! use tatim::buildings::scenario::{Scenario, ScenarioConfig};
//! use tatim::core::pipeline::{Method, Pipeline, PipelineConfig, RunSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = Scenario::generate(ScenarioConfig { num_tasks: 10, ..Default::default() })?;
//! let prepared = Pipeline::builder(PipelineConfig::default()).prepare(&scenario)?;
//! let day = prepared.test_days().start;
//! let report = prepared.run(&RunSpec::new(Method::Dcta, day))?;
//! assert!(report.decision_performance() >= 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use buildings;
pub use dcta_core as core;
pub use edgesim;
pub use knapsack;
pub use learn;
pub use parallel;
pub use rl;
pub use serve;

/// One-import convenience: the types a typical consumer touches.
///
/// ```
/// use tatim::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let scenario = Scenario::generate(ScenarioConfig {
///     history_days: 20,
///     eval_days: 2,
///     num_tasks: 6,
///     ..ScenarioConfig::default()
/// })?;
/// assert_eq!(scenario.num_tasks(), 6);
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use buildings::scenario::{DayContext, Scenario, ScenarioConfig};
    pub use dcta_core::allocation::Allocation;
    pub use dcta_core::dcta::DctaAllocator;
    pub use dcta_core::importance::{CopModels, ImportanceEvaluator};
    pub use dcta_core::pipeline::{
        DayReport, Method, Pipeline, PipelineBuilder, PipelineConfig, RunReport, RunSpec,
    };
    pub use dcta_core::processor::{Processor, ProcessorFleet};
    pub use dcta_core::shared::PreparedCore;
    pub use dcta_core::task::{EdgeTask, TaskId};
    pub use dcta_core::tatim::TatimInstance;
    pub use edgesim::cluster::Cluster;
    pub use edgesim::node::{DeviceModel, NodeId};
    pub use edgesim::run::{simulate, NodeAssignment, SimConfig, SimTask};
    pub use learn::transfer::MtlConfig;
    pub use rl::crl::{CrlConfig, LookupMode};
    pub use serve::pool::{ServicePool, Ticket};
    pub use serve::{AllocRequest, AllocResponse, AllocatorService, Query, ServeError};
}
