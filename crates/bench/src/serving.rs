//! Serving-throughput study (`reproduce --exp serve-throughput`): requests
//! per second through the allocation service's worker pool.
//!
//! One tenant (the canonical paper scenario's prepared core) is registered
//! on an [`AllocatorService`]
//! and warmed, then a fixed mixed request stream — DCTA runs, DML
//! decisions and Q-value probes over every evaluation day — is
//! pushed through a [`ServicePool`] at 1, 2 and 8 workers. The wall clock
//! covers pool creation, submission, and every ticket's answer; the
//! request list and all answers are identical at every worker count (the
//! serving layer's bit-identity contract), so the rows measure throughput
//! and nothing else.
//!
//! The intra-request parallel layer is pinned to one thread while timing,
//! so worker fan-out is the only concurrency the rows see.

use crate::common::{best_of_ms, f1, f3, RunOpts, Table};
use dcta_core::pipeline::{Method, Pipeline, RunSpec};
use serde::Serialize;
use serve::pool::ServicePool;
use serve::{AllocRequest, AllocatorService, Query, ServeError};
use std::error::Error;
use std::sync::Arc;

/// Worker counts the throughput rows sweep.
pub const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Tenant name the study registers.
pub const TENANT: &str = "bench";

/// One pool size.
#[derive(Debug, Clone, Serialize)]
pub struct ServeRow {
    /// Pool worker threads.
    pub workers: usize,
    /// Best-of-reps wall time for the whole stream, milliseconds.
    pub wall_ms: f64,
    /// Requests answered per second.
    pub requests_per_s: f64,
    /// Against the 1-worker row.
    pub speedup: f64,
}

/// The study snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct ServeStudy {
    /// Requests in the stream.
    pub requests: usize,
    /// Evaluation days the stream covers.
    pub days: usize,
    /// Agents trained by the warm-up.
    pub agents_warm: usize,
    /// One row per pool size.
    pub rows: Vec<ServeRow>,
    /// Q-value probes the tenant answered over every pool size.
    pub qvalue_probes: u64,
    /// The tenant's importance-cache hit rate.
    pub cache_hit_rate: f64,
    /// Whether quick workloads were used.
    pub quick: bool,
    /// Master seed.
    pub seed: u64,
    /// Rendered table.
    pub table: Table,
}

/// Runs the serving study.
///
/// # Errors
///
/// Propagates scenario/pipeline preparation and serving failures.
pub fn run(opts: &RunOpts) -> Result<ServeStudy, Box<dyn Error>> {
    let reps = opts.pick(3, 1);
    let scenario = crate::common::paper_scenario(opts, opts.pick(10, 6))?;
    let mut config = crate::common::paper_pipeline(opts);
    // PT here is measured by *us*, not by the experiment: exclude the
    // allocator's self-timed overhead so the bench stays a pure function.
    config.include_allocation_overhead = false;

    let service = Arc::new(AllocatorService::new());
    service.register(TENANT, Pipeline::builder(config).prepare(&scenario)?)?;
    // Train every agent up front so the timed path measures serving, not
    // first-touch training.
    let agents_warm = service.warm(TENANT)?;
    let days: Vec<usize> = service.with_core(TENANT, |c| c.test_days())?.collect();

    // Mixed stream: a full DCTA day run, a bare DML decision, and a
    // Q-value probe per evaluation day, tiled to the target size.
    let per_day: Vec<AllocRequest> = days
        .iter()
        .flat_map(|&day| {
            [
                Query::Run(RunSpec::new(Method::Dcta, day)),
                Query::Decision { method: Method::Dml, day },
                Query::QValues { day, state: None },
            ]
        })
        .map(|query| AllocRequest { tenant: TENANT.into(), query })
        .collect();
    let tiles = opts.pick(2, 1);
    let requests: Vec<AllocRequest> =
        std::iter::repeat_with(|| per_day.iter().cloned()).take(tiles).flatten().collect();

    let mut table = Table::new(
        format!("Serving throughput — {} mixed requests through a worker pool", requests.len()),
        &["workers", "wall (ms)", "req/s", "speedup"],
    );
    let mut rows = Vec::new();
    // Worker fan-out is the only concurrency under test.
    let _serial = parallel::ScopedThreads::new(1);
    let mut base_ms = None;
    for &workers in &WORKER_COUNTS {
        // The pool is returned so its shutdown falls outside the clock.
        let (wall_ms, _pool) = best_of_ms(reps, || {
            let pool = ServicePool::new(Arc::clone(&service), workers);
            let tickets: Vec<_> = requests.iter().map(|r| pool.submit(r.clone())).collect();
            for ticket in tickets {
                ticket.wait()?;
            }
            Ok::<_, ServeError>(pool)
        })?;
        let row = ServeRow {
            workers,
            wall_ms,
            requests_per_s: requests.len() as f64 / (wall_ms / 1e3).max(1e-9),
            speedup: *base_ms.get_or_insert(wall_ms) / wall_ms.max(1e-9),
        };
        table.push_row(vec![
            workers.to_string(),
            f3(wall_ms),
            f1(row.requests_per_s),
            f3(row.speedup),
        ]);
        rows.push(row);
    }

    let stats = service.stats(TENANT)?;
    Ok(ServeStudy {
        requests: requests.len(),
        days: days.len(),
        agents_warm,
        rows,
        qvalue_probes: stats.batcher.requests,
        cache_hit_rate: stats.cache.hit_rate(),
        quick: opts.quick,
        seed: opts.seed,
        table,
    })
}
