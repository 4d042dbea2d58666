//! End-to-end integration: scenario generation → MTL → importance → every
//! allocator → simulated execution, asserting the paper's qualitative
//! claims hold across the whole stack.

use tatim::buildings::scenario::{Scenario, ScenarioConfig};
use tatim::core::objective::AllocQuery;
use tatim::core::pipeline::{Method, Pipeline, PipelineConfig, RunSpec};
use tatim::rl::crl::CrlConfig;
use tatim::rl::dqn::DqnConfig;

fn scenario() -> Scenario {
    Scenario::generate(ScenarioConfig {
        num_buildings: 2,
        chillers_per_building: 2,
        bands_per_chiller: 4,
        num_tasks: 12,
        history_days: 60,
        eval_days: 9,
        mean_input_mbit: 60.0,
        ..ScenarioConfig::default()
    })
    .expect("scenario generates")
}

fn config() -> PipelineConfig {
    PipelineConfig {
        workers: 4,
        env_history_days: 5,
        crl: CrlConfig {
            episodes: 25,
            dqn: DqnConfig { hidden: vec![24], ..DqnConfig::default() },
            ..CrlConfig::default()
        },
        ..PipelineConfig::default()
    }
}

#[test]
fn full_stack_produces_consistent_reports() {
    let s = scenario();
    let prepared = Pipeline::builder(config()).prepare(&s).expect("prepare");
    let days: Vec<usize> = prepared.test_days().collect();
    assert_eq!(days.len(), 4);
    for &day in &days {
        for method in [Method::RandomMapping, Method::Dml, Method::Crl, Method::Dcta] {
            let r = prepared
                .run(&RunSpec::new(method, day))
                .expect("run day")
                .into_healthy()
                .expect("healthy run");
            assert_eq!(r.day, day);
            assert!(r.processing_time_s.is_finite() && r.processing_time_s > 0.0);
            assert!((0.0..=1.0).contains(&r.decision_performance));
            assert!(r.scheduled <= s.num_tasks());
            assert!(r.allocation.len() == s.num_tasks());
        }
    }
}

#[test]
fn importance_aware_methods_save_processing_time() {
    let s = scenario();
    let prepared = Pipeline::builder(config()).prepare(&s).expect("prepare");
    let mut rm = 0.0;
    let mut dml = 0.0;
    let mut dcta = 0.0;
    let days: Vec<usize> = prepared.test_days().collect();
    for &day in &days {
        rm += prepared
            .run(&RunSpec::new(Method::RandomMapping, day))
            .expect("rm")
            .processing_time_s();
        dml += prepared.run(&RunSpec::new(Method::Dml, day)).expect("dml").processing_time_s();
        dcta += prepared.run(&RunSpec::new(Method::Dcta, day)).expect("dcta").processing_time_s();
    }
    // The paper's headline: importance-aware allocation cuts PT vs both
    // non-selective baselines, and RM is the worst.
    assert!(dcta < dml, "DCTA {dcta} !< DML {dml}");
    assert!(dml < rm, "DML {dml} !< RM {rm}");
}

#[test]
fn decision_performance_survives_task_selection() {
    let s = scenario();
    let prepared = Pipeline::builder(config()).prepare(&s).expect("prepare");
    let days: Vec<usize> = prepared.test_days().collect();
    let mut full = 0.0;
    let mut selected = 0.0;
    for &day in &days {
        full += prepared.run(&RunSpec::new(Method::Dml, day)).expect("dml").decision_performance();
        selected += prepared
            .run(&RunSpec::new(Method::GreedyOracle, day))
            .expect("oracle")
            .decision_performance();
    }
    // Dropping the unimportant tasks must cost almost nothing: the
    // "without performance degradation" claim.
    assert!(selected >= full - 0.1 * days.len() as f64, "selected {selected} vs full {full}");
}

#[test]
fn determinism_per_seed() {
    let s = scenario();
    let a = Pipeline::builder(config()).prepare(&s).expect("prepare a");
    let b = Pipeline::builder(config()).prepare(&s).expect("prepare b");
    let day = a.test_days().start;
    // Deterministic methods must agree across identically-seeded pipelines.
    for method in [Method::Dml, Method::GreedyOracle, Method::Dcta] {
        let ra = a.run(&RunSpec::new(method, day)).expect("a");
        let rb = b.run(&RunSpec::new(method, day)).expect("b");
        assert_eq!(ra.allocation(), rb.allocation(), "{method} not deterministic");
    }
}

#[test]
fn sweeping_workers_reduces_processing_time() {
    let s = scenario();
    let mut pts = Vec::new();
    for workers in [2usize, 6] {
        let p = Pipeline::builder(PipelineConfig {
            workers,
            env_history_days: 5,
            crl: CrlConfig {
                episodes: 10,
                dqn: DqnConfig { hidden: vec![16], ..DqnConfig::default() },
                ..CrlConfig::default()
            },
            ..PipelineConfig::default()
        });
        let prepared = p.prepare(&s).expect("prepare");
        let day = prepared.test_days().start;
        pts.push(prepared.run(&RunSpec::new(Method::Dml, day)).expect("dml").processing_time_s());
    }
    assert!(pts[1] < pts[0], "more workers should cut PT: {pts:?}");
}

#[test]
fn bandwidth_scaling_cuts_processing_time_end_to_end() {
    let s = scenario();
    let mut prepared = Pipeline::builder(config()).prepare(&s).expect("prepare");
    let day = prepared.test_days().start;
    let out = prepared.allocate(&AllocQuery::new(Method::Dml, day)).expect("allocate");
    let slow = prepared
        .execute(Method::Dml, day, out.allocation.clone(), out.overhead_s)
        .expect("slow run")
        .processing_time_s;
    prepared.cluster_mut().network_mut().expect("star testbed").scale_bandwidth(4.0);
    let fast = prepared
        .execute(Method::Dml, day, out.allocation, out.overhead_s)
        .expect("fast run")
        .processing_time_s;
    assert!(fast < slow, "bandwidth x4 should cut PT: {fast} !< {slow}");
}
