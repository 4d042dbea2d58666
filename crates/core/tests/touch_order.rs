//! Touch order cannot change an answer.
//!
//! A context's agent is a function of the seed, the context and the blind
//! geometry (DESIGN.md §21), so which request reaches a context first —
//! which method, which day, under which objective's fleet — decides only
//! who pays for the training. Here a lazy pipeline on `stack_golden`'s
//! `mesh16` world (where the route-deflated fleet differs from the blind
//! one) answers the same runs in four orders, with the store growing
//! between two blocks of days, and every report must equal the one a
//! pretrained pipeline gives — and the frozen core's, up to the first
//! `observe_day`, which the core does not have.

use buildings::scenario::{Scenario, ScenarioConfig};
use dcta_core::objective::Objective;
use dcta_core::pipeline::{DayReport, Method, Pipeline, PipelineConfig, RunSpec, Topology};
use dcta_core::shared::PreparedCore;
use edgesim::cluster::MeshSpec;
use rl::crl::CrlConfig;
use rl::dqn::DqnConfig;
use std::cmp::Reverse;

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

fn mesh16() -> PipelineConfig {
    PipelineConfig {
        workers: 4,
        topology: Topology::Mesh(MeshSpec::new(16, 5)),
        env_history_days: 5,
        crl: CrlConfig {
            episodes: 12,
            dqn: DqnConfig { hidden: vec![24], ..DqnConfig::default() },
            ..CrlConfig::default()
        },
        ..PipelineConfig::default()
    }
}

/// The three learned runs of a day, by index: CRL, DCTA, and DCTA over the
/// route-deflated fleet.
fn spec(kind: usize, day: usize) -> RunSpec {
    let method = if kind == 0 { Method::Crl } else { Method::Dcta };
    RunSpec::new(method, day).with_objective(Objective::new().with_route_cost(kind == 2))
}

const ORDERS: [&str; 4] = ["methods outer", "days outer", "days reversed", "routed first"];

/// `block`'s `(kind, day)` runs in the named order.
fn sequence(order: &str, block: &[usize]) -> Vec<(usize, usize)> {
    let mut runs: Vec<(usize, usize)> =
        (0..3).flat_map(|kind| block.iter().map(move |&day| (kind, day))).collect();
    match order {
        "methods outer" => {}
        "days outer" => runs.sort_by_key(|&(kind, day)| (day, kind)),
        "days reversed" => runs.sort_by_key(|&(kind, day)| (kind, Reverse(day))),
        "routed first" => runs.sort_by_key(|&(kind, day)| (Reverse(kind), day)),
        _ => unreachable!("unknown order {order}"),
    }
    runs
}

type Runs = Vec<((usize, usize), DayReport)>;

/// Runs both blocks in `order`, growing the store in between, and returns
/// each block's reports sorted by kind and day.
fn drive(prepared: &mut PreparedCore, order: &str) -> Runs {
    let days: Vec<usize> = prepared.test_days().collect();
    let (early, late) = days.split_at(days.len() / 2);
    let mut reports = Runs::new();
    for block in [early, late] {
        let mut runs: Runs = sequence(order, block)
            .into_iter()
            .map(|(kind, day)| {
                let report = prepared.run(&spec(kind, day)).unwrap().into_healthy().unwrap();
                ((kind, day), report)
            })
            .collect();
        runs.sort_by_key(|&(key, _)| key);
        reports.extend(runs);
        prepared.observe_day(block[0]).unwrap();
    }
    reports
}

/// (`include_allocation_overhead` is off, so a `DayReport` holds no
/// measured time and whole-report equality is the bit-identity check.)
#[test]
fn every_touch_order_answers_like_the_pretrained_pipeline_and_the_core() {
    let s = small_scenario();
    for threads in THREAD_COUNTS {
        let _threads = parallel::ScopedThreads::new(threads);
        let mut pretrained = Pipeline::new(mesh16()).prepare(&s).unwrap();
        let day = pretrained.test_days().start;
        pretrained.crl().pretrain(&pretrained.instance_for_day(day).unwrap()).unwrap();
        assert!(
            pretrained.route_factors().iter().any(|&f| f < 1.0),
            "the routed fleet must differ from the blind one, or `routed first` pins nothing"
        );
        let want = drive(&mut pretrained, ORDERS[0]);
        for order in ORDERS {
            let mut lazy = Pipeline::new(mesh16()).prepare(&s).unwrap();
            assert_eq!(drive(&mut lazy, order), want, "threads {threads}, {order}");
        }

        // The core answers the first block — the store it was frozen with —
        // in yet another order.
        let core = Pipeline::new(mesh16()).prepare(&s).unwrap();
        let block: Vec<usize> = core.test_days().take(core.test_days().len() / 2).collect();
        for (key, report) in want.iter().take(3 * block.len()).rev() {
            let frozen = core.run(&spec(key.0, key.1)).unwrap().into_healthy().unwrap();
            assert_eq!(&frozen, report, "threads {threads}, frozen {key:?}");
        }
    }
}
