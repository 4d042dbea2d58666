//! # dcta-core — the paper's contribution
//!
//! Task importance (Definition 1), the TATIM allocation problem
//! (Definition 4) with its knapsack reduction (Theorem 1), and the
//! allocator family evaluated in §V: the RM/DML baselines, Clustered
//! Reinforcement Learning (`F1`), the SVM local process (`F2`), and their
//! cooperative combination DCTA (Eq. 6).
//!
//! * [`task`], [`processor`] — TATIM's view of workloads and devices.
//! * [`importance`] — leave-one-out task importance over the green-building
//!   decision function.
//! * [`cache`] — memoised decision-performance evaluations with hit/miss
//!   accounting.
//! * [`allocation`], [`tatim`] — the allocation matrix `u`, constraints
//!   Eqs. 2-4, and the MCMK reduction.
//! * [`baselines`] — Random Mapping and DML.
//! * [`features`], [`local`] — Table-I feature engineering and the local
//!   process.
//! * [`crl_alloc`], [`dcta`] — the general process and the cooperative
//!   combiner.
//! * [`pipeline`] — offline preparation + per-day evaluation producing the
//!   paper's PT / decision-performance metrics.
//! * [`recovery`] — importance-aware re-planning after mid-run processor
//!   loss (re-solve over survivors, shed least-important first).
//! * [`availability`] — learned per-node Beta availability priors with
//!   seeded Thompson survival draws, driving the proactive allocation
//!   path (`RecoveryMode::Proactive`) ahead of any crash.
//! * [`persist`] — the one reader of the cache's and the prior's versioned
//!   text dumps, and their [`persist::PersistError`].
//! * [`shared`] — the prepared pipeline ([`shared::PreparedCore`]): one
//!   `Send + Sync` type whose runs take `&self`, shared by batch callers
//!   and the concurrent serving layer alike.
//! * [`shapley`] — permutation-sampling group importance (an extension
//!   beyond the paper's leave-one-out metric).
//!
//! ## Example
//!
//! ```no_run
//! use buildings::scenario::{Scenario, ScenarioConfig};
//! use dcta_core::pipeline::{Method, Pipeline, PipelineConfig, RunSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = Scenario::generate(ScenarioConfig::default())?;
//! let prepared = Pipeline::builder(PipelineConfig::default()).prepare(&scenario)?;
//! let day = prepared.test_days().start;
//! let report = prepared.run(&RunSpec::new(Method::Dcta, day))?;
//! println!("PT = {:.3}s, H = {:.3}", report.processing_time_s(), report.decision_performance());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod allocation;
pub mod availability;
pub mod baselines;
pub mod cache;
pub mod crl_alloc;
pub mod dcta;
pub mod features;
pub mod importance;
pub mod local;
pub mod objective;
pub mod persist;
pub mod pipeline;
pub mod processor;
pub mod recovery;
pub mod shapley;
pub mod shared;
pub mod task;
pub mod tatim;
