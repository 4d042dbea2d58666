//! # serve — allocation-as-a-service over prepared pipeline cores
//!
//! This crate turns prepared pipelines into a long-lived, multi-tenant
//! service. An [`AllocatorService`] owns a registry of prepared scenarios
//! keyed by tenant name — each a [`dcta_core::shared::PreparedCore`], whose
//! runs take `&self` — and answers [`AllocRequest`]s from any number of
//! threads through shared state:
//!
//! * full evaluation runs ([`Query::Run`]) and bare allocation decisions
//!   ([`Query::Decision`]) execute directly on the tenant's core;
//! * a Q-value probe ([`Query::QValues`]) is one single-state forward of
//!   the day's per-context agent, on the thread that handles it.
//!
//! [`pool::ServicePool`] adds a worker pool in front of the service:
//! [`pool::ServicePool::submit`] enqueues a request and returns a
//! [`pool::Ticket`] to wait on, so callers overlap while a fixed number of
//! workers drain the queue. A request whose handler panics answers its own
//! ticket with [`ServeError::WorkerPanicked`]; the worker keeps serving.
//!
//! ## Determinism contract
//!
//! Every response is bit-identical to the same query answered solo on a
//! freshly prepared core: no request order, interleaving, or worker count
//! can change an answer (see the `dcta_core::shared` module docs). A
//! tenant never learns: the registry holds its core behind an `Arc`, and
//! no per-tenant `observe` exists. Tenants are fully isolated — they share
//! no caches, agents, or RNG.
//!
//! ## Example
//!
//! ```no_run
//! use buildings::scenario::{Scenario, ScenarioConfig};
//! use dcta_core::pipeline::{Method, Pipeline, PipelineConfig, RunSpec};
//! use serve::{AllocRequest, AllocatorService, Query};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = Scenario::generate(ScenarioConfig::default())?;
//! let core = Pipeline::builder(PipelineConfig::default()).prepare(&scenario)?;
//! let service = AllocatorService::new();
//! service.register("plant-a", core)?;
//! let day = service.with_core("plant-a", |c| c.test_days().start)?;
//! let response = service.handle(&AllocRequest {
//!     tenant: "plant-a".into(),
//!     query: Query::Run(RunSpec::new(Method::Dcta, day)),
//! })?;
//! println!("PT = {:.3}s", response.into_run().unwrap().processing_time_s());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod pool;
pub mod service;

pub use service::{
    AllocRequest, AllocResponse, AllocatorService, BatcherStats, Query, ServeError, TenantStats,
};
