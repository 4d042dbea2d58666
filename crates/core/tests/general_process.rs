//! One general process: `Method::Dcta` rides the pipeline's one CRL instead
//! of a second allocator trained to the same weights. The oracle here is the
//! design that was replaced, rebuilt from public parts — an independent
//! [`CrlAllocator`] with the same config and history that only DCTA requests
//! touch, combined through the pipeline's own [`DctaAllocator`] — so the
//! determinism contract (DESIGN.md §17) is a tested fact on both sides:
//! bit-identical wherever CRL and DCTA first touch contexts in the same
//! order, and the first toucher's agent where they do not.
//!
//! [`DctaAllocator`]: dcta_core::dcta::DctaAllocator

use buildings::scenario::{Scenario, ScenarioConfig};
use dcta_core::crl_alloc::CrlAllocator;
use dcta_core::pipeline::{DayReport, Method, Pipeline, PipelineConfig, PreparedPipeline, RunSpec};
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
        eval_days: 10,
        mean_input_mbit: 40.0,
        ..ScenarioConfig::default()
    })
    .unwrap()
}

fn quick_config() -> PipelineConfig {
    PipelineConfig {
        workers: 4,
        env_history_days: 4,
        crl: CrlConfig {
            episodes: 6,
            dqn: DqnConfig { hidden: vec![16], ..DqnConfig::default() },
            ..CrlConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// DCTA's former private general process: same config (so same seed), same
/// history, its own RNG stream and agent cache.
struct Twin(CrlAllocator);

impl Twin {
    fn new(prepared: &PreparedPipeline<'_>, config: &PipelineConfig) -> Self {
        let mut twin = Self(CrlAllocator::new(config.crl.clone()));
        for day in 0..config.env_history_days {
            twin.observe(prepared, day);
        }
        twin
    }

    fn observe(&mut self, prepared: &PreparedPipeline<'_>, day: usize) {
        let sensing = prepared.scenario().day(day).sensing.clone();
        self.0.observe(sensing, prepared.true_importances(day).to_vec()).unwrap();
    }

    /// `Method::Dcta` on `day` as the twin design ran it. The instance
    /// carries the day's true importances, which neither process reads:
    /// CRL substitutes its blend, the projection its combined scores.
    fn dcta(&mut self, prepared: &mut PreparedPipeline<'_>, day: usize) -> DayReport {
        let instance = prepared.instance_for_day(day).unwrap();
        let general = self.0.allocate(&instance, &prepared.scenario().day(day).sensing).unwrap();
        let allocation = prepared
            .dcta()
            .allocate(&instance, general, &prepared.local_rows(day))
            .unwrap()
            .allocation;
        prepared.execute(Method::Dcta, day, allocation, 0.0).unwrap()
    }
}

fn run(prepared: &mut PreparedPipeline<'_>, method: Method, day: usize) -> DayReport {
    prepared.run(&RunSpec::new(method, day)).unwrap().into_healthy().unwrap()
}

/// Both in-repo producer orders, an `observe_day` between two blocks of
/// days, at every thread count: DCTA's report equals the twin's on every
/// day. (`include_allocation_overhead` is off, so a `DayReport` holds no
/// measured time and whole-report equality is the bit-identity check.)
#[test]
fn dcta_matches_the_twin_under_both_producer_orders() {
    let s = small_scenario();
    let config = quick_config();
    for threads in THREAD_COUNTS {
        let _threads = parallel::ScopedThreads::new(threads);
        for methods_outer in [true, false] {
            let mut prepared = Pipeline::new(config.clone()).prepare(&s).unwrap();
            let mut twin = Twin::new(&prepared, &config);
            let days: Vec<usize> = prepared.test_days().collect();
            let (early, late) = days.split_at(days.len() / 2);
            for block in [early, late] {
                let mut got = Vec::new();
                if methods_outer {
                    for &day in block {
                        run(&mut prepared, Method::Crl, day);
                    }
                }
                for &day in block {
                    if !methods_outer {
                        run(&mut prepared, Method::Crl, day);
                    }
                    got.push(run(&mut prepared, Method::Dcta, day));
                }
                for (report, &day) in got.iter().zip(block) {
                    assert_eq!(
                        report,
                        &twin.dcta(&mut prepared, day),
                        "threads {threads}, methods_outer {methods_outer}, day {day}"
                    );
                }
                // The store grows between the blocks, on both sides.
                let seen = block[0];
                prepared.observe_day(seen).unwrap();
                twin.observe(&prepared, seen);
            }
        }
    }
}

/// The unconditional half of the contract: per-key seeds make the
/// pretrained pipeline and the frozen core independent of touch order, so
/// they match a pretrained twin with the days reversed and no CRL request
/// at all.
#[test]
fn pretrained_and_frozen_dcta_match_the_twin_in_any_order() {
    let s = small_scenario();
    let config = quick_config();
    let mut prepared = Pipeline::builder(config.clone()).pretrain(true).prepare(&s).unwrap();
    let core = Pipeline::new(config.clone()).prepare(&s).unwrap().into_core().unwrap();
    let mut twin = Twin::new(&prepared, &config);
    let start = prepared.test_days().start;
    twin.0.pretrain(&prepared.instance_for_day(start).unwrap()).unwrap();
    for day in prepared.test_days().rev() {
        let want = twin.dcta(&mut prepared, day);
        assert_eq!(run(&mut prepared, Method::Dcta, day), want, "pretrained, day {day}");
        let frozen = core.run(&RunSpec::new(Method::Dcta, day)).unwrap().into_healthy().unwrap();
        assert_eq!(frozen, want, "frozen, day {day}");
    }
}

/// The documented divergence, pinned: once CRL has trained context A, a
/// DCTA request that is first to touch context B trains B's agent *after*
/// A's on the allocator's one RNG stream, where the twin's private
/// allocator trained it from the start of its own. The pipeline now answers
/// with the agent a CRL request on B would have got — one agent per
/// (seed, context), whoever asks first.
#[test]
fn first_toucher_decides_the_agent_where_orders_differ() {
    let s = small_scenario();
    let config = quick_config();
    let mut prepared = Pipeline::new(config.clone()).prepare(&s).unwrap();
    let days: Vec<usize> = prepared.test_days().collect();
    let a = days[0];
    // A day whose context is not A's: a probe allocator that has served A
    // misses its cache on it.
    let mut probe = Twin::new(&prepared, &config);
    probe.dcta(&mut prepared, a);
    let b = *days[1..]
        .iter()
        .find(|&&day| {
            let instance = prepared.instance_for_day(day).unwrap();
            !probe.0.allocate(&instance, &s.day(day).sensing).unwrap().cache_hit
        })
        .expect("the test days span more than one context");

    run(&mut prepared, Method::Crl, a);
    let got = run(&mut prepared, Method::Dcta, b);

    // The twin design: DCTA's allocator has never seen A.
    let old = Twin::new(&prepared, &config).dcta(&mut prepared, b);
    assert_ne!(got.allocation, old.allocation, "the caveat no longer shows on this seed");
    // The contract: B's agent is the one CRL's own touch order produces.
    let mut in_order = Twin::new(&prepared, &config);
    in_order.dcta(&mut prepared, a);
    assert_eq!(got, in_order.dcta(&mut prepared, b));
}
