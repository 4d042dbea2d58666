//! One general process: `Method::Dcta` rides the pipeline's one CRL instead
//! of a second allocator trained to the same weights. The oracle here is the
//! design that was replaced, rebuilt from public parts — an independent
//! [`CrlAllocator`] with the same config and history that only DCTA requests
//! touch, combined through the pipeline's own [`DctaAllocator`] — so the
//! determinism contract (DESIGN.md §17, §21) is a tested fact: a context's
//! agent is a function of the seed and the context, so DCTA's reports are
//! bit-identical to the twin's whichever request touched a context first.
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
/// history, its own agents.
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

/// Both in-repo producer orders and one where CRL runs the days backwards
/// before DCTA sees any, an `observe_day` between two blocks of days, at
/// every thread count: DCTA's report equals the twin's on every day,
/// although the twin's allocator never sees a CRL request.
/// (`include_allocation_overhead` is off, so a `DayReport` holds no
/// measured time and whole-report equality is the bit-identity check.)
#[test]
fn dcta_matches_the_twin_whoever_touches_a_context_first() {
    let s = small_scenario();
    let config = quick_config();
    for threads in THREAD_COUNTS {
        let _threads = parallel::ScopedThreads::new(threads);
        for order in ["methods outer", "days outer", "crl reversed"] {
            let mut prepared = Pipeline::new(config.clone()).prepare(&s).unwrap();
            let mut twin = Twin::new(&prepared, &config);
            let days: Vec<usize> = prepared.test_days().collect();
            let (early, late) = days.split_at(days.len() / 2);
            for block in [early, late] {
                let mut got = Vec::new();
                match order {
                    "methods outer" => block.iter().for_each(|&day| {
                        run(&mut prepared, Method::Crl, day);
                    }),
                    "crl reversed" => block.iter().rev().for_each(|&day| {
                        run(&mut prepared, Method::Crl, day);
                    }),
                    _ => {}
                }
                for &day in block {
                    if order == "days outer" {
                        run(&mut prepared, Method::Crl, day);
                    }
                    got.push(run(&mut prepared, Method::Dcta, day));
                }
                for (report, &day) in got.iter().zip(block) {
                    assert_eq!(
                        report,
                        &twin.dcta(&mut prepared, day),
                        "threads {threads}, {order}, day {day}"
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

/// The same holds when nothing is trained on first touch: the pretrained
/// pipeline and the frozen core match a pretrained twin with the days
/// reversed and no CRL request at all.
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
