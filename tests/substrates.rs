//! Cross-substrate integration below the pipeline level: the RL stack
//! against the knapsack ground truth, MTL against the scenario generator,
//! and the simulator against hand-computable timelines.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tatim::buildings::scenario::{Scenario, ScenarioConfig};
use tatim::core::importance::{strip_power_feature, CopModels, ImportanceEvaluator};
use tatim::knapsack::portfolio::{solve_portfolio, SolveBudget};
use tatim::knapsack::problem::{Item, Problem, Sack};
use tatim::learn::transfer::MtlConfig;
use tatim::rl::alloc_env::{AllocEnv, AllocSpec};
use tatim::rl::dqn::{DqnAgent, DqnConfig};
use tatim::rl::mdp::Environment;

#[test]
fn trained_dqn_approaches_knapsack_optimum_on_small_instance() {
    // 4 tasks, 2 processors, each fitting exactly one task: optimum picks
    // the two most important tasks.
    let importances = vec![0.9, 0.7, 0.2, 0.1];
    let spec = AllocSpec {
        importances: importances.clone(),
        times: vec![1.0; 4],
        resources: vec![1.0; 4],
        time_limits: vec![1.0; 2],
        capacities: vec![1.0, 1.0],
    };
    // Ground truth from the exact solver via the same shape.
    let problem = Problem::new(
        importances.iter().map(|&p| Item::new(1.0, 1.0, p).expect("valid")).collect(),
        vec![Sack::new(1.0, 1.0).expect("valid"); 2],
    )
    .expect("problem");
    let optimum = solve_portfolio(&problem, SolveBudget::Exact).profit;
    assert!((optimum - 1.6).abs() < 1e-9);

    let mut rng = StdRng::seed_from_u64(5);
    let mut env = AllocEnv::new(spec).expect("env");
    let mut agent = DqnAgent::new(
        env.state_dim(),
        env.num_actions(),
        DqnConfig { hidden: vec![32], epsilon_decay: 0.98, ..DqnConfig::default() },
        &mut rng,
    )
    .expect("agent");
    for _ in 0..250 {
        agent.train_episode(&mut env, &mut rng).expect("train");
    }
    let (reward, _) = agent.evaluate_episode(&mut env).expect("evaluate");
    assert!(
        reward >= 0.9 * optimum,
        "DQN reward {reward} should approach knapsack optimum {optimum}"
    );
}

#[test]
fn mtl_transfer_beats_independent_on_scarce_scenario_tasks() {
    let scenario = Scenario::generate(ScenarioConfig {
        history_days: 60,
        eval_days: 3,
        num_tasks: 0,
        ..ScenarioConfig::default()
    })
    .expect("scenario");
    // Pick the scarcest tasks and compare model quality at band midpoints.
    let mut scarce: Vec<usize> = (0..scenario.num_tasks()).collect();
    scarce.sort_by_key(|&t| scenario.dataset(t).len());
    let scarce: Vec<usize> = scarce.into_iter().take(6).collect();

    let fit = |strength: f64| {
        CopModels::train(
            &scenario,
            MtlConfig { transfer_strength: strength, ..MtlConfig::default() },
        )
        .expect("train")
    };
    let indep = fit(0.0);
    let shared = fit(2.0);

    let day = scenario.day(0);
    let err = |models: &CopModels| -> f64 {
        scarce
            .iter()
            .map(|&t| {
                let spec = &scenario.tasks()[t];
                let plant = scenario.plant(spec.building);
                let ch = &plant.chillers()[spec.chiller];
                let mid = plant
                    .band_midpoint_kw(spec.chiller, spec.band, scenario.config().bands_per_chiller)
                    .expect("valid band");
                let f = tatim::core::importance::prediction_features(
                    spec.building,
                    ch.model(),
                    ch.capacity_kw(),
                    &day.weather,
                    mid,
                );
                let truth = ch.cop(mid, day.weather.outdoor_temp_c);
                (models.predict(t, &f) - truth).abs()
            })
            .sum::<f64>()
    };
    let e_indep = err(&indep);
    let e_shared = err(&shared);
    assert!(
        e_shared <= e_indep * 1.2,
        "transfer should not hurt scarce tasks: {e_shared} vs {e_indep}"
    );
}

#[test]
fn stripped_datasets_feed_models_with_consistent_arity() {
    let scenario = Scenario::generate(ScenarioConfig {
        history_days: 30,
        eval_days: 2,
        num_tasks: 10,
        ..ScenarioConfig::default()
    })
    .expect("scenario");
    for t in 0..scenario.num_tasks() {
        let stripped = strip_power_feature(scenario.dataset(t));
        assert_eq!(stripped.num_features(), tatim::core::importance::NUM_PREDICTION_FEATURES);
    }
}

#[test]
fn importance_evaluator_is_deterministic() {
    let scenario = Scenario::generate(ScenarioConfig {
        history_days: 40,
        eval_days: 4,
        num_tasks: 16,
        ..ScenarioConfig::default()
    })
    .expect("scenario");
    let models = CopModels::train(&scenario, MtlConfig::default()).expect("models");
    let ev = ImportanceEvaluator::new(&scenario, &models);
    let a = ev.importance_matrix().expect("matrix a");
    let b = ev.importance_matrix().expect("matrix b");
    assert_eq!(a, b);
}

#[test]
fn masked_env_never_offers_infeasible_assignments() {
    // Fuzz the allocation environment with random valid actions; every
    // reachable state must satisfy the TATIM budgets.
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(11);
    for round in 0..50 {
        let n = rng.gen_range(1..8);
        let m = rng.gen_range(1..4);
        let spec = AllocSpec {
            importances: (0..n).map(|_| rng.gen_range(0.0..1.0)).collect(),
            times: (0..n).map(|_| rng.gen_range(0.0..3.0)).collect(),
            resources: (0..n).map(|_| rng.gen_range(0.0..3.0)).collect(),
            time_limits: vec![rng.gen_range(0.5..4.0); m],
            capacities: (0..m).map(|_| rng.gen_range(0.5..4.0)).collect(),
        };
        let mut env = AllocEnv::new(spec.clone()).expect("env");
        env.reset();
        while !env.is_terminal() {
            let valid = env.valid_actions();
            assert!(!valid.is_empty(), "non-terminal state with no actions");
            let action = valid[rng.gen_range(0..valid.len())];
            env.step(action).expect("valid action steps");
        }
        // Check budgets on the final assignment.
        let mut time = vec![0.0; m];
        let mut res = vec![0.0; m];
        for (j, p) in env.assignment().iter().enumerate() {
            if let Some(p) = *p {
                time[p] += spec.times[j];
                res[p] += spec.resources[j];
            }
        }
        for p in 0..m {
            assert!(time[p] <= spec.time_limits[p] + 1e-9, "round {round}: time over budget");
            assert!(res[p] <= spec.capacities[p] + 1e-9, "round {round}: resource over budget");
        }
    }
}
