//! Serving-throughput benchmark: requests per second through the
//! allocation service's worker pool.
//!
//! One tenant (the canonical paper scenario, frozen via
//! `PreparedPipeline::into_core`) is registered on an [`AllocatorService`]
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

use crate::common::{f1, RunOpts};
use crate::trend::TrendRow as Row;
use dcta_core::pipeline::{Method, Pipeline, RunSpec};
use serve::pool::ServicePool;
use serve::{AllocRequest, AllocatorService, Query};
use std::error::Error;
use std::sync::Arc;
use std::time::Instant;

/// Worker counts the throughput rows sweep.
pub const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Tenant name the benchmark registers.
pub const TENANT: &str = "bench";

/// Runs the serving benchmark; returns the trend rows plus the tenant's
/// importance-cache hit rate (for the report header).
///
/// # Errors
///
/// Propagates scenario/pipeline preparation and serving failures.
pub fn serve_throughput(opts: &RunOpts) -> Result<(Vec<Row>, f64), Box<dyn Error>> {
    let reps = opts.pick(3, 1);
    let scenario = crate::common::paper_scenario(opts, opts.pick(10, 6))?;
    let mut config = crate::common::paper_pipeline(opts);
    // PT here is measured by *us*, not by the experiment: exclude the
    // allocator's self-timed overhead so the bench stays a pure function.
    config.include_allocation_overhead = false;

    let service = Arc::new(AllocatorService::new());
    service.register(TENANT, Pipeline::builder(config).prepare(&scenario)?.into_core()?)?;
    // Train every agent up front so the timed path measures serving, not
    // first-touch training.
    let trained = service.warm(TENANT)?;
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
    println!(
        "[serve throughput: {} requests over {} days, {trained} agents warm, workers {:?}]",
        requests.len(),
        days.len(),
        WORKER_COUNTS,
    );

    // Worker fan-out is the only concurrency under test.
    parallel::set_max_threads(1);
    let mut rows = Vec::new();
    let mut base_ms = None;
    for &workers in &WORKER_COUNTS {
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let pool = ServicePool::new(Arc::clone(&service), workers);
            let start = Instant::now();
            let tickets: Vec<_> = requests.iter().map(|r| pool.submit(r.clone())).collect();
            for ticket in tickets {
                ticket.wait()?;
            }
            best = best.min(start.elapsed().as_secs_f64() * 1e3);
            drop(pool);
        }
        let base = *base_ms.get_or_insert(best);
        println!(
            "  {workers} workers: {} req/s ({} ms)",
            f1(requests.len() as f64 / (best / 1e3).max(1e-9)),
            f1(best),
        );
        rows.push(Row {
            bench: "serve_throughput".to_string(),
            threads: workers,
            wall_ms: best,
            speedup: base / best.max(1e-9),
        });
    }
    parallel::set_max_threads(0);

    let stats = service.stats(TENANT)?;
    println!(
        "  [{} q-value probes; cache {} hits / {} misses]",
        stats.batcher.requests, stats.cache.hits, stats.cache.misses,
    );
    Ok((rows, stats.cache.hit_rate()))
}
