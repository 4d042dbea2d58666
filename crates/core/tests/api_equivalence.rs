//! Equivalences of the prepare/run API that still have two sides:
//! `Pipeline::new(c).prepare(s)` against `Pipeline::builder(c).prepare(s)`,
//! a seeded `.cache(..)` against the default one, and pre-training or a
//! pinned thread count against the plain offline phase. Everything
//! deterministic must agree to the bit. (The pre-`RunSpec` and pre-`AllocQuery` wrappers this
//! file used to pin were removed in PR 15; `stack_golden.rs` holds the
//! stack itself to the digests of the commit before.)

use buildings::scenario::{Scenario, ScenarioConfig};
use dcta_core::cache::ImportanceCache;
use dcta_core::pipeline::{Method, Pipeline, PipelineConfig, RunSpec};
use dcta_core::recovery::RecoveryMode;
use edgesim::faults::FaultSchedule;
use rl::crl::CrlConfig;
use rl::dqn::DqnConfig;

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

/// The builder with default options is the same offline phase as plain
/// `prepare`, and seeding it with a cache changes no result.
#[test]
fn builder_matches_prepare_paths() {
    let s = small_scenario();
    let mut plain = Pipeline::new(quick_config()).prepare(&s).unwrap();
    let day = plain.test_days().start;
    let spec = RunSpec::new(Method::Dcta, day);
    let reference = plain.run(&spec).unwrap();

    let mut built = Pipeline::builder(quick_config()).prepare(&s).unwrap();
    assert_eq!(reference, built.run(&spec).unwrap(), "builder default diverged from prepare");

    // Seeded with everything the plain pipeline evaluated, the offline
    // phase computes nothing afresh and still reaches the same report.
    let warm = ImportanceCache::new();
    warm.load_text(&plain.importance_cache().to_text()).unwrap();
    let mut cached = Pipeline::builder(quick_config()).cache(warm).prepare(&s).unwrap();
    assert_eq!(reference, cached.run(&spec).unwrap(), "cache seeding changed the result");
    assert_eq!(cached.cache_stats().misses, 0, "a fully seeded cache still missed");
}

/// Pinning a thread count around prepare and run is a pure wall-clock
/// choice. Pre-training reseeds the agents per context (DESIGN.md §17.3),
/// which on this star scenario reaches the same reports as the lazy stream.
#[test]
fn pretrain_and_thread_overrides_do_not_change_results() {
    let s = small_scenario();
    let methods = [Method::Crl, Method::Dcta];
    let mut plain = Pipeline::new(quick_config()).prepare(&s).unwrap();
    let day = plain.test_days().start;
    let reference: Vec<_> =
        methods.iter().map(|&m| plain.run(&RunSpec::new(m, day)).unwrap()).collect();

    let _threads = parallel::ScopedThreads::new(2);
    let mut tuned = Pipeline::builder(quick_config()).pretrain(true).prepare(&s).unwrap();
    for (&method, a) in methods.iter().zip(&reference) {
        let b = tuned.run(&RunSpec::new(method, day)).unwrap();
        assert_eq!(a, &b, "{method}: pretrain/threads changed the report");
    }
}

/// The spec accessors round-trip what the builders set, and the report
/// accessors agree with the underlying variants.
#[test]
fn run_spec_and_report_accessors() {
    let schedule = FaultSchedule::new();
    let spec =
        RunSpec::new(Method::Dcta, 7).with_faults(schedule.clone(), RecoveryMode::RandomShed);
    assert_eq!(spec.method(), Method::Dcta);
    assert_eq!(spec.day(), 7);
    let (sched, mode) = spec.faults().expect("faults set");
    assert_eq!(sched, &schedule);
    assert_eq!(mode, RecoveryMode::RandomShed);

    let s = small_scenario();
    let mut p = Pipeline::new(quick_config()).prepare(&s).unwrap();
    let day = p.test_days().start;
    let report = p.run(&RunSpec::new(Method::Dml, day)).unwrap();
    assert!(report.as_healthy().is_some());
    assert!(report.as_faulted().is_none());
    let pt = report.processing_time_s();
    let h = report.decision_performance();
    let healthy = report.into_healthy().unwrap();
    assert_eq!(pt.to_bits(), healthy.processing_time_s.to_bits());
    assert_eq!(h.to_bits(), healthy.decision_performance.to_bits());

    let victim = p.fleet().node_of(0);
    let crash = FaultSchedule::new().with_crash(victim, 0.2).unwrap();
    let faulted =
        p.run(&RunSpec::new(Method::Dml, day).with_faults(crash, RecoveryMode::None)).unwrap();
    assert!(faulted.as_faulted().is_some());
    assert_eq!(faulted.method(), Method::Dml);
    assert!(faulted.allocation().scheduled_count() > 0);
}
