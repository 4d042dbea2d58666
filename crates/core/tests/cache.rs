//! Gating tests of the importance cache: the pipeline must actually hit it,
//! and cached replies must be bit-identical to fresh evaluations.

use buildings::scenario::{Scenario, ScenarioConfig};
use dcta_core::cache::ImportanceCache;
use dcta_core::importance::{CopModels, ImportanceEvaluator};
use dcta_core::pipeline::{Method, Pipeline, PipelineConfig, RunSpec};
use learn::transfer::MtlConfig;
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

#[test]
fn evaluator_cache_serves_repeats_bit_identically() {
    let s = small_scenario();
    let m =
        CopModels::train(&s, MtlConfig { transfer_strength: 2.0, ..MtlConfig::default() }).unwrap();
    let plain = ImportanceEvaluator::new(&s, &m);
    let cache = ImportanceCache::new();
    let cached = ImportanceEvaluator::new(&s, &m).with_cache(&cache);

    let first = cached.importances(s.day(0)).unwrap();
    let baseline = plain.importances(s.day(0)).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&first), bits(&baseline), "cached evaluator must not perturb results");

    let after_first = cache.stats();
    assert!(after_first.misses > 0, "first pass must populate the cache");

    // The second pass re-queries the exact same (day, mask) keys: every
    // lookup must be a hit, and the replies must be the same bits.
    let second = cached.importances(s.day(0)).unwrap();
    assert_eq!(bits(&second), bits(&first));
    let after_second = cache.stats();
    assert_eq!(after_second.misses, after_first.misses, "second pass must not recompute anything");
    assert!(after_second.hits >= after_first.hits + first.len() as u64);
}

#[test]
fn pipeline_surfaces_cache_hits_in_summary() {
    let s = small_scenario();
    let prepared = Pipeline::builder(quick_config()).prepare(&s).unwrap();
    let after_prepare = prepared.cache_stats();
    assert!(after_prepare.misses > 0, "prepare must evaluate through the cache");
    assert_eq!(after_prepare.entries as u64, after_prepare.misses);

    // Baseline methods execute the full task set, whose decision
    // performance the offline importance sweep already priced — the
    // evaluation inside `execute` must be a cache hit.
    let day = prepared.test_days().start;
    prepared.run(&RunSpec::new(Method::Dml, day)).unwrap();
    let after_run = prepared.cache_stats();
    assert!(after_run.hits > after_prepare.hits, "run summary should show cache hits: {after_run}");
    assert!(after_run.hit_rate() > 0.0);
}

#[test]
fn persisted_cache_skips_the_offline_importance_sweep() {
    let s = small_scenario();
    let cold = Pipeline::builder(quick_config()).prepare(&s).unwrap();
    let cold_stats = cold.cache_stats();
    assert!(cold_stats.misses > 0);

    // Persist next to where a sweep would write its results, then restore
    // into a size-capped cache for the warm run.
    let dir = std::env::temp_dir().join(format!("dcta-cache-warm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("importance_cache.txt");
    cold.importance_cache().save_file(&path).unwrap();

    let warm_cache = ImportanceCache::with_capacity(1 << 16);
    assert_eq!(warm_cache.load_file(&path).unwrap() as u64, cold_stats.misses);
    let warm = Pipeline::builder(quick_config()).cache(warm_cache).prepare(&s).unwrap();
    let warm_stats = warm.cache_stats();
    assert_eq!(warm_stats.misses, 0, "warm prepare must recompute nothing: {warm_stats}");

    // And the warm pipeline reproduces the cold one bit for bit.
    let day = cold.test_days().start;
    let spec = RunSpec::new(Method::GreedyOracle, day);
    let a = cold.run(&spec).unwrap().into_healthy().unwrap();
    let b = warm.run(&spec).unwrap().into_healthy().unwrap();
    assert_eq!(a.processing_time_s.to_bits(), b.processing_time_s.to_bits());
    assert_eq!(a.decision_performance.to_bits(), b.decision_performance.to_bits());
    assert_eq!(a.allocation, b.allocation);
    std::fs::remove_dir_all(&dir).unwrap();
}
