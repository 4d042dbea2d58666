//! Table-I feature engineering for the DCTA local process.
//!
//! The local predictor is trained on scarce real-world data, so §IV-D
//! hand-crafts its features: two **general** features that summarise the
//! task's track record (Past Success — how often the task appeared in the
//! optimal decision; Prediction Accuracy — how well its model has predicted
//! lately) and eight **domain** features describing the chiller context
//! (building, model type, operating power, weather condition, outdoor
//! temperature, latest cooling load, water mass flow rate, water temperature
//! difference).

use crate::importance::{prediction_features, CopModels};
use buildings::scenario::{DayContext, Scenario};
use buildings::telemetry::WATER_CP;

/// Number of features the local process consumes (2 general + 8 domain).
pub const NUM_LOCAL_FEATURES: usize = 10;

/// Rolling per-task track record feeding the general features.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskHistory {
    /// Times each task appeared in the optimal decision so far.
    past_success: Vec<u32>,
    /// Running mean of each task's recent prediction accuracy.
    accuracy_mean: Vec<f64>,
    /// Observations behind each accuracy mean.
    accuracy_count: Vec<u32>,
}

impl TaskHistory {
    /// Fresh history for `num_tasks` tasks (accuracy starts at a neutral
    /// 0.5 until observed).
    pub fn new(num_tasks: usize) -> Self {
        Self {
            past_success: vec![0; num_tasks],
            accuracy_mean: vec![0.5; num_tasks],
            accuracy_count: vec![0; num_tasks],
        }
    }

    /// Number of tasks tracked.
    pub fn len(&self) -> usize {
        self.past_success.len()
    }

    /// `true` when tracking zero tasks.
    pub fn is_empty(&self) -> bool {
        self.past_success.is_empty()
    }

    /// Past-success count of task `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of bounds.
    pub fn past_success(&self, t: usize) -> u32 {
        self.past_success[t]
    }

    /// Mean prediction accuracy of task `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of bounds.
    pub fn accuracy(&self, t: usize) -> f64 {
        self.accuracy_mean[t]
    }

    /// Records that the tasks flagged in `selected` appeared in the day's
    /// optimal decision.
    ///
    /// # Panics
    ///
    /// Panics if `selected` has the wrong length.
    pub fn record_selection(&mut self, selected: &[bool]) {
        assert_eq!(selected.len(), self.past_success.len(), "selection mask length");
        for (count, &sel) in self.past_success.iter_mut().zip(selected) {
            if sel {
                *count += 1;
            }
        }
    }

    /// Records one `(predicted, actual)` COP observation for task `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of bounds.
    pub fn record_prediction(&mut self, t: usize, predicted: f64, actual: f64) {
        let acc = prediction_accuracy(predicted, actual);
        let n = self.accuracy_count[t] as f64;
        self.accuracy_mean[t] = (self.accuracy_mean[t] * n + acc) / (n + 1.0);
        self.accuracy_count[t] += 1;
    }
}

/// Table I's accuracy of one prediction, `1 − |truth − pred| / |truth|` in
/// `[0, 1]` (Definition 1's `H(J; θ)`); a zero truth credits an exact hit.
fn prediction_accuracy(pred: f64, truth: f64) -> f64 {
    if truth.abs() < 1e-12 {
        return if pred.abs() < 1e-12 { 1.0 } else { 0.0 };
    }
    (1.0 - (truth - pred).abs() / truth.abs()).clamp(0.0, 1.0)
}

/// Builds the 10-dimensional Table-I feature vector of task `t` for `day`.
///
/// The domain features describe the task's chiller at its band-midpoint
/// operating point under the day's weather; operating power uses the task
/// model's own COP estimate (`power = load / ĉop`), the information actually
/// available before execution.
///
/// # Panics
///
/// Panics if `t` is out of bounds for the scenario/history/models.
pub fn local_features(
    scenario: &Scenario,
    models: &CopModels,
    history: &TaskHistory,
    day: &DayContext,
    t: usize,
) -> Vec<f64> {
    let spec = &scenario.tasks()[t];
    let plant = scenario.plant(spec.building);
    let chiller = &plant.chillers()[spec.chiller];
    let bands = scenario.config().bands_per_chiller;
    let load = plant
        .band_midpoint_kw(spec.chiller, spec.band, bands)
        .expect("task band within configured range");
    let cop_hat = models.predict(
        t,
        &prediction_features(
            spec.building,
            chiller.model(),
            chiller.capacity_kw(),
            &day.weather,
            load,
        ),
    );
    let plr = load / chiller.capacity_kw();
    let delta_t = 4.0 + 2.0 * plr;
    vec![
        // General.
        f64::from(history.past_success(t)),
        history.accuracy(t),
        // Domain (Table-I order).
        spec.building as f64,
        chiller.model().as_feature(),
        load / cop_hat, // operating power estimate, kW
        day.weather.condition.as_feature(),
        day.weather.outdoor_temp_c,
        load, // latest cooling load on this chiller's band
        load / (WATER_CP * delta_t),
        delta_t,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use buildings::scenario::ScenarioConfig;
    use learn::transfer::MtlConfig;

    fn setup() -> (Scenario, CopModels) {
        let s = Scenario::generate(ScenarioConfig {
            history_days: 40,
            eval_days: 4,
            num_tasks: 20,
            ..ScenarioConfig::default()
        })
        .unwrap();
        let m = CopModels::train(&s, MtlConfig::default()).unwrap();
        (s, m)
    }

    #[test]
    fn feature_vector_shape() {
        let (s, m) = setup();
        let h = TaskHistory::new(s.num_tasks());
        let f = local_features(&s, &m, &h, s.day(0), 0);
        assert_eq!(f.len(), NUM_LOCAL_FEATURES);
        assert!(f.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn history_starts_neutral() {
        let h = TaskHistory::new(5);
        assert_eq!(h.len(), 5);
        assert_eq!(h.past_success(2), 0);
        assert_eq!(h.accuracy(2), 0.5);
    }

    #[test]
    fn selection_counts_accumulate() {
        let mut h = TaskHistory::new(3);
        h.record_selection(&[true, false, true]);
        h.record_selection(&[true, false, false]);
        assert_eq!(h.past_success(0), 2);
        assert_eq!(h.past_success(1), 0);
        assert_eq!(h.past_success(2), 1);
    }

    #[test]
    fn prediction_accuracy_clamps() {
        assert_eq!(prediction_accuracy(5.0, 5.0), 1.0);
        assert_eq!(prediction_accuracy(10.0, 5.0), 0.0); // 100% off -> 0
        assert!((prediction_accuracy(4.0, 5.0) - 0.8).abs() < 1e-12);
        assert_eq!(prediction_accuracy(-20.0, 5.0), 0.0); // clamped below
        assert_eq!(prediction_accuracy(0.0, 0.0), 1.0);
        assert_eq!(prediction_accuracy(1.0, 0.0), 0.0);
    }

    proptest::proptest! {
        #[test]
        fn prediction_accuracy_bounded(p in -100.0f64..100.0, t in -100.0f64..100.0) {
            let a = prediction_accuracy(p, t);
            proptest::prop_assert!((0.0..=1.0).contains(&a));
            // Exact predictions always score 1.
            proptest::prop_assert!((prediction_accuracy(t, t) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn prediction_accuracy_running_mean() {
        let mut h = TaskHistory::new(1);
        h.record_prediction(0, 5.0, 5.0); // acc 1.0: mean (0.5*0 + 1)/1 = 1
        assert_eq!(h.accuracy(0), 1.0);
        h.record_prediction(0, 0.0, 5.0); // acc 0.0: mean 0.5
        assert_eq!(h.accuracy(0), 0.5);
    }

    #[test]
    #[should_panic(expected = "selection mask")]
    fn wrong_mask_length_panics() {
        TaskHistory::new(2).record_selection(&[true]);
    }

    #[test]
    fn general_features_respond_to_history() {
        let (s, m) = setup();
        let mut h = TaskHistory::new(s.num_tasks());
        let before = local_features(&s, &m, &h, s.day(0), 3);
        let mut mask = vec![false; s.num_tasks()];
        mask[3] = true;
        h.record_selection(&mask);
        h.record_prediction(3, 4.0, 4.0);
        let after = local_features(&s, &m, &h, s.day(0), 3);
        assert_eq!(after[0], before[0] + 1.0);
        assert!(after[1] > before[1]);
        // Domain features unchanged.
        assert_eq!(&after[2..], &before[2..]);
    }

    #[test]
    fn domain_features_respond_to_weather() {
        let (s, m) = setup();
        let h = TaskHistory::new(s.num_tasks());
        let d0 = local_features(&s, &m, &h, s.day(0), 0);
        let d1 = local_features(&s, &m, &h, s.day(1), 0);
        // Outdoor temperature differs across days.
        assert_ne!(d0[6], d1[6]);
    }
}
