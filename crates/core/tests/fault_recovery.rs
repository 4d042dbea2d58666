//! Thread-count invariance of the full faulted pipeline path: allocation,
//! faulted round, recovery re-solve and degraded-mode scoring must agree
//! bit for bit at `threads ∈ {1, 2, 8}`. Wall-clock fields (re-allocation
//! latency and the PT that includes it) are the only exception — they are
//! measured, not simulated.
//!
//! This lives in its own test binary because the thread cap is
//! process-global: the loop below must own it for the whole run.

use buildings::scenario::{Scenario, ScenarioConfig};
use dcta_core::pipeline::{FaultRunReport, Method, Pipeline, PipelineConfig, RunSpec};
use dcta_core::recovery::RecoveryMode;
use edgesim::faults::FaultSchedule;
use edgesim::node::NodeId;
use rl::crl::CrlConfig;
use rl::dqn::DqnConfig;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn small_scenario() -> Scenario {
    Scenario::generate(ScenarioConfig {
        num_buildings: 2,
        chillers_per_building: 2,
        bands_per_chiller: 4,
        num_tasks: 12,
        history_days: 50,
        eval_days: 8,
        mean_input_mbit: 40.0,
        ..ScenarioConfig::default()
    })
    .unwrap()
}

fn quick_config() -> PipelineConfig {
    PipelineConfig {
        workers: 4,
        env_history_days: 5,
        crl: CrlConfig {
            episodes: 12,
            dqn: DqnConfig { hidden: vec![24], ..DqnConfig::default() },
            ..CrlConfig::default()
        },
        ..PipelineConfig::default()
    }
}

fn deterministic_bits(r: &FaultRunReport) -> (Vec<u64>, Vec<usize>, String) {
    (
        vec![
            r.healthy_processing_time_s.to_bits(),
            r.simulated_processing_time_s.to_bits(),
            r.healthy_importance.to_bits(),
            r.healthy_decision_performance.to_bits(),
            r.delivered_importance.to_bits(),
            r.retained_fraction.to_bits(),
            r.decision_performance.to_bits(),
        ],
        [r.delivered]
            .into_iter()
            .chain(r.shed.iter().copied())
            .chain(r.lost.iter().copied())
            .collect(),
        format!("{:?} {:?} {:?}", r.allocation, r.failures, r.down_at_end),
    )
}

#[test]
fn faulted_pipeline_is_thread_count_invariant() {
    let s = small_scenario();
    let mut runs = Vec::new();
    for threads in THREAD_COUNTS {
        // Preparation (model training + the offline importance sweep) is
        // inside the loop on purpose: the whole train → allocate → fault →
        // recover chain must be invariant, not just the last hop. One scoped
        // override caps both halves.
        let _threads = parallel::ScopedThreads::new(threads);
        let mut prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let day = prepared.test_days().start;
        let workers: Vec<NodeId> =
            prepared.fleet().processors().iter().map(|p| p.node).filter(|n| n.0 != 0).collect();
        let schedule = FaultSchedule::seeded(9, &workers, 0.7, 0.0, 10.0).unwrap();
        assert!(!schedule.is_empty(), "seed 9 must crash at least one worker");
        let spec =
            RunSpec::new(Method::GreedyOracle, day).with_faults(schedule, RecoveryMode::Resolve);
        let r = prepared.run(&spec).unwrap().into_faulted().unwrap();
        runs.push(deterministic_bits(&r));
    }
    assert_eq!(runs[0], runs[1], "threads 1 vs 2 diverged");
    assert_eq!(runs[0], runs[2], "threads 1 vs 8 diverged");
}
