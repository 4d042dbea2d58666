//! Allocation-as-a-service: two tenant scenarios served concurrently from
//! one `AllocatorService` through a 4-worker pool.
//!
//! Each tenant is a prepared pipeline core (`PreparedCore`): `Send + Sync`,
//! and its runs take `&self`, so one service instance answers any number of
//! request threads. A Q-value probe is one single-state forward of the
//! day's CRL agent on the worker that handles it. CI runs this example as
//! a smoke test: a hang or a panic in the pool fails the build.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```

use std::sync::Arc;
use tatim::buildings::scenario::{Scenario, ScenarioConfig};
use tatim::core::pipeline::{Method, Pipeline, PipelineConfig, RunSpec};
use tatim::prelude::{AllocRequest, AllocatorService, Query, ServicePool};
use tatim::rl::crl::CrlConfig;
use tatim::rl::dqn::DqnConfig;

fn tenant_core(
    seed: u64,
    num_tasks: usize,
) -> Result<tatim::core::shared::PreparedCore, Box<dyn std::error::Error>> {
    let scenario = Scenario::generate(ScenarioConfig {
        num_buildings: 2,
        chillers_per_building: 2,
        bands_per_chiller: 4,
        num_tasks,
        history_days: 45,
        eval_days: 8,
        mean_input_mbit: 40.0,
        seed,
    })?;
    let core = Pipeline::new(PipelineConfig {
        workers: 4,
        env_history_days: 5,
        crl: CrlConfig {
            episodes: 15,
            dqn: DqnConfig { hidden: vec![24], ..DqnConfig::default() },
            ..CrlConfig::default()
        },
        seed,
        ..PipelineConfig::default()
    })
    .prepare(&scenario)?;
    Ok(core)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Register two isolated tenants — different plants, different seeds.
    println!("== 1. preparing tenants ==");
    let service = Arc::new(AllocatorService::new());
    service.register("plant-north", tenant_core(7, 12)?)?;
    service.register("plant-south", tenant_core(21, 10)?)?;
    for name in service.tenant_names() {
        let (days, tasks) =
            service.with_core(&name, |c| (c.test_days(), c.scenario().num_tasks()))?;
        println!("  {name}: {tasks} tasks, evaluation days {days:?}");
    }

    // 2. Fan concurrent requests at a 4-worker pool: every tenant × every
    //    evaluation day × (a DCTA run + a Q-value probe).
    println!("\n== 2. serving concurrent requests (4 workers) ==");
    let pool = ServicePool::new(Arc::clone(&service), 4);
    let mut tickets = Vec::new();
    for tenant in service.tenant_names() {
        for day in service.with_core(&tenant, |c| c.test_days())? {
            tickets.push((
                tenant.clone(),
                pool.submit(AllocRequest {
                    tenant: tenant.clone(),
                    query: Query::Run(RunSpec::new(Method::Dcta, day)),
                }),
            ));
            tickets.push((
                tenant.clone(),
                pool.submit(AllocRequest {
                    tenant: tenant.clone(),
                    query: Query::QValues { day, state: None },
                }),
            ));
        }
    }
    println!("  {} requests in flight", tickets.len());

    // 3. Collect per-tenant outcomes.
    let mut captured: std::collections::BTreeMap<String, (f64, f64, usize)> = Default::default();
    for (tenant, ticket) in tickets {
        let entry = captured.entry(tenant).or_insert((0.0, 0.0, 0));
        match ticket.wait()? {
            tatim::prelude::AllocResponse::Run(report) => {
                entry.0 += report.decision_performance();
                entry.1 += report.processing_time_s();
                entry.2 += 1;
            }
            tatim::prelude::AllocResponse::QValues { key, q } => {
                let best = q.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                println!("  q-probe: context {key}, best action value {best:+.4}");
            }
            tatim::prelude::AllocResponse::Decision { .. } => unreachable!(),
        }
    }
    println!("\n== 3. per-tenant summary ==");
    for (tenant, (h_sum, pt_sum, runs)) in &captured {
        println!(
            "  {tenant}: mean H {:.4}, mean PT {:.2}s over {runs} DCTA days",
            h_sum / *runs as f64,
            pt_sum / *runs as f64,
        );
    }
    for tenant in service.tenant_names() {
        let stats = service.stats(&tenant)?;
        println!(
            "  {tenant}: {} q-value probes, cache {} hits / {} misses, {} trained agents",
            stats.batcher.requests, stats.cache.hits, stats.cache.misses, stats.trained_agents,
        );
    }
    drop(pool);
    Ok(())
}
