//! Property tests for the data substrate: determinism per seed and physical
//! plausibility of everything the generator emits, across randomly drawn
//! scenario configurations.

use buildings::chiller::{MAX_COP, MIN_COP};
use buildings::scenario::{Scenario, ScenarioConfig, DECISION_SLOTS_PER_DAY};
use proptest::prelude::*;

fn config_strategy() -> impl Strategy<Value = ScenarioConfig> {
    (
        (1usize..4, 1usize..4, 2usize..7),
        (0usize..13, 29u32..45, 1u32..4),
        (1.0f64..200.0, 0u64..1_000_000),
    )
        .prop_map(
            |(
                (num_buildings, chillers, bands),
                (num_tasks, history_days, eval_days),
                (mbit, seed),
            )| {
                ScenarioConfig {
                    num_buildings,
                    chillers_per_building: chillers,
                    bands_per_chiller: bands,
                    // Cannot request more task cells than the grid holds.
                    num_tasks: num_tasks.min(num_buildings * chillers * bands),
                    history_days,
                    eval_days,
                    mean_input_mbit: mbit,
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn same_config_same_seed_is_bit_identical(config in config_strategy()) {
        let a = Scenario::generate(config).expect("valid config");
        let b = Scenario::generate(config).expect("valid config");
        prop_assert!(a == b, "two generations from {config:?} diverged");
    }

    #[test]
    fn different_seeds_differ(config in config_strategy()) {
        let a = Scenario::generate(config).expect("valid config");
        let b = Scenario::generate(ScenarioConfig { seed: config.seed ^ 0x5555, ..config })
            .expect("valid config");
        // Weather, demand and plant hardware are all seed-derived; at
        // minimum the eval-day contexts must not coincide.
        prop_assert!(a.days() != b.days(), "seed change left eval days untouched");
    }

    #[test]
    fn generated_values_are_physically_plausible(config in config_strategy()) {
        let s = Scenario::generate(config).expect("valid config");

        for plant in s.plants() {
            prop_assert!(plant.total_capacity_kw() > 0.0);
            for c in plant.chillers() {
                prop_assert!(c.capacity_kw() > 0.0);
                prop_assert!(c.peak_cop() > MIN_COP && c.peak_cop() <= MAX_COP);
            }
        }

        for day in s.days() {
            prop_assert!(day.hours.len() == DECISION_SLOTS_PER_DAY);
            prop_assert!(day.sensing.len() == 2 + config.num_buildings);
            prop_assert!(day.sensing.iter().all(|v| v.is_finite()));
            for slot in &day.hours {
                prop_assert!((-20.0..60.0).contains(&slot.weather.outdoor_temp_c));
                prop_assert!(slot.demand_kw.len() == config.num_buildings);
                for (b, &d) in slot.demand_kw.iter().enumerate() {
                    prop_assert!(d > 0.0, "non-positive demand");
                    prop_assert!(
                        d <= s.plant(b).total_capacity_kw() + 1e-9,
                        "demand {d} exceeds plant capacity"
                    );
                }
            }
        }

        for t in 0..s.num_tasks() {
            let ds = s.dataset(t);
            prop_assert!(!ds.is_empty(), "task {t} has an empty dataset");
            for i in 0..ds.len() {
                let cop = ds.targets()[i];
                prop_assert!(cop > 0.0 && cop <= MAX_COP * 1.1, "implausible COP {cop}");
                let row = ds.features().row(i);
                prop_assert!(row.iter().all(|v| v.is_finite()));
                // Load (index 5), flow (6) and ΔT (7) obey the heat balance
                // Q = ṁ·c_p·ΔT used to derive the water loop.
                let (load, flow, dt) = (row[5], row[6], row[7]);
                prop_assert!(load > 0.0 && flow > 0.0 && (4.0..=6.0).contains(&dt));
                prop_assert!(
                    (flow * buildings::telemetry::WATER_CP * dt - load).abs() < 1e-6,
                    "heat balance violated: load {load}, flow {flow}, ΔT {dt}"
                );
            }
            prop_assert!(s.input_bits(t) > 0.0);
        }
    }
}
