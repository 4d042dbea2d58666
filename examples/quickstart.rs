//! Quickstart: generate a green-building scenario, prepare the DCTA
//! pipeline, and evaluate one day end-to-end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use tatim::buildings::scenario::{Scenario, ScenarioConfig};
use tatim::core::pipeline::{Method, Pipeline, PipelineConfig, RunSpec};
use tatim::rl::crl::CrlConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A compact scenario: 20 tasks over 2 buildings, ~3 months of history.
    let scenario = Scenario::generate(ScenarioConfig {
        num_buildings: 2,
        chillers_per_building: 2,
        bands_per_chiller: 5,
        num_tasks: 20,
        history_days: 90,
        eval_days: 8,
        ..ScenarioConfig::default()
    })?;
    println!(
        "scenario: {} tasks, {} buildings, {} evaluation days",
        scenario.num_tasks(),
        scenario.plants().len(),
        scenario.days().len()
    );

    // Offline phase: train COP models, build the CRL environment store and
    // the SVM local process from the first evaluation days.
    let prepared = Pipeline::builder(PipelineConfig {
        workers: 4,
        env_history_days: 4,
        crl: CrlConfig { episodes: 40, ..CrlConfig::default() },
        ..PipelineConfig::default()
    })
    .prepare(&scenario)?;

    // Online phase: allocate and execute each remaining day with DCTA and
    // the Random Mapping baseline.
    println!("\n{:>4}  {:>10}  {:>10}  {:>9}  {:>9}", "day", "DCTA PT", "RM PT", "DCTA H", "RM H");
    for day in prepared.test_days().collect::<Vec<_>>() {
        let dcta = prepared.run(&RunSpec::new(Method::Dcta, day))?;
        let rm = prepared.run(&RunSpec::new(Method::RandomMapping, day))?;
        println!(
            "{day:>4}  {:>9.1}s  {:>9.1}s  {:>9.3}  {:>9.3}",
            dcta.processing_time_s(),
            rm.processing_time_s(),
            dcta.decision_performance(),
            rm.decision_performance()
        );
    }
    println!("\nDCTA runs only the important tasks, cutting processing time while");
    println!("keeping decision performance close to executing everything.");
    Ok(())
}
