//! Online adaptation: the accumulating environment store of the paper's
//! §VII "Real-time Sensing Data" discussion. After each day runs, its
//! observed importances are fed back into the CRL store, so the clustered
//! environment keeps tracking the building as seasons shift — and the
//! offline k-means lookup mode is shown alongside the default online kNN.
//!
//! ```text
//! cargo run --release --example online_adaptation
//! ```

use tatim::buildings::scenario::{Scenario, ScenarioConfig};
use tatim::core::pipeline::{Method, Pipeline, PipelineConfig, RunSpec};
use tatim::rl::crl::{CrlConfig, LookupMode};
use tatim::rl::dqn::DqnConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scenario = Scenario::generate(ScenarioConfig {
        num_tasks: 24,
        history_days: 120,
        eval_days: 12,
        ..ScenarioConfig::default()
    })?;

    for (label, lookup) in [
        ("online kNN (paper's choice)", LookupMode::OnlineKnn),
        ("offline k-means (SVII alternative)", LookupMode::OfflineKMeans { clusters: 3 }),
    ] {
        let mut prepared = Pipeline::builder(PipelineConfig {
            workers: 4,
            env_history_days: 4,
            crl: CrlConfig {
                episodes: 30,
                lookup,
                dqn: DqnConfig { hidden: vec![32], ..DqnConfig::default() },
                ..CrlConfig::default()
            },
            ..PipelineConfig::default()
        })
        .prepare(&scenario)?;
        println!("== {label} ==");
        let mut captured = 0.0;
        for day in prepared.test_days().collect::<Vec<_>>() {
            let report =
                prepared.run(&RunSpec::new(Method::Crl, day))?.into_healthy().expect("healthy run");
            captured += report.captured_importance;
            let trained = prepared.crl().cached_agents();
            // Feed today's observation back: tomorrow's lookup knows more.
            prepared.observe_day(day)?;
            println!(
                "day {day}: scheduled {:>2} tasks, captured importance {:.3}, decision perf {:.3}, \
                 store size {}, agents kept {} of {trained}",
                report.scheduled,
                report.captured_importance,
                report.decision_performance,
                prepared.crl().store_len(),
                prepared.crl().cached_agents(),
            );
        }
        println!("total captured importance: {captured:.3}\n");
    }
    println!("The store grows by one environment per day. An agent survives the growth");
    println!("only if its environment came out bit-identical: a kNN context the new day");
    println!("did not join, or a k-means cluster the re-fit reproduced. Observing the day");
    println!("just served joins the very context that served it, so its agent retrains.");
    Ok(())
}
