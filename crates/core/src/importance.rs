//! Task importance (Definition 1) and the decision function `H(·)`.
//!
//! The importance of task `j` is the overall decision-performance
//! degradation when `j` is left out:
//!
//! ```text
//! I_j = H(J; θ) − H(J \ {j}; θ \ {θ_j})                         (Eq. 1)
//! ```
//!
//! with the paper's example decision function
//! `H(J; θ) = 1 − |D − D(θ)| / D`, where `D` is the ideal performance and
//! `D(θ)` the data-driven decision's performance. In the green-building
//! scenario the decision is chiller sequencing: `D` is the electrical power
//! of the *true-optimal* sequencing and `D(θ)` the true power of the
//! sequencing chosen using the available tasks' predicted COPs. Tasks whose
//! load band never enters any candidate sequencing that day cannot change
//! the decision, so their importance is zero — which is precisely how the
//! long-tail of Fig. 2 arises.

use crate::cache::{self, Fingerprint, ImportanceCache};
use buildings::chiller::ChillerModel;
use buildings::plant::Plant;
use buildings::scenario::{DayContext, Scenario};
use buildings::telemetry::{TelemetryRecord, WATER_CP};
use buildings::weather::WeatherSample;
use learn::dataset::Dataset;
use learn::linalg::Matrix;
use learn::linear::LinearModel;
use learn::transfer::{MtlConfig, MtlError, MtlSystem, TransferTask};
use std::fmt;

/// Index (within [`TelemetryRecord::domain_features`]) of the operating
/// power feature, which leaks the COP target (`power = load / cop`) and is
/// therefore excluded from COP-model training.
const POWER_FEATURE: usize = 2;

/// Number of features the COP models consume (Table-I domain features minus
/// operating power).
pub const NUM_PREDICTION_FEATURES: usize = TelemetryRecord::NUM_DOMAIN_FEATURES - 1;

/// Builds the prediction-time feature vector for a hypothetical operating
/// point, mirroring the (power-stripped) telemetry layout. Water-loop
/// figures use their nominal noiseless relations (`ΔT = 4 + 2·plr`,
/// `ṁ = load / (c_p · ΔT)`).
pub fn prediction_features(
    building: usize,
    model: ChillerModel,
    capacity_kw: f64,
    weather: &WeatherSample,
    load_kw: f64,
) -> Vec<f64> {
    let plr = if capacity_kw > 0.0 { load_kw / capacity_kw } else { 0.0 };
    let delta_t = 4.0 + 2.0 * plr;
    let flow = load_kw / (WATER_CP * delta_t);
    vec![
        building as f64,
        model.as_feature(),
        weather.condition.as_feature(),
        weather.outdoor_temp_c,
        load_kw,
        flow,
        delta_t,
    ]
}

/// Returns a copy of `data` with the power feature removed.
///
/// Copies straight into one flat buffer (two `memcpy`s per row around the
/// dropped column) instead of materialising a `Vec<Vec<f64>>` — this runs
/// once per task per retrain, so the per-row allocations used to dominate
/// the setup phase of every leave-one-out sweep.
pub fn strip_power_feature(data: &Dataset) -> Dataset {
    let rows = data.len();
    let cols = data.num_features();
    if rows == 0 || cols <= POWER_FEATURE {
        return data.clone();
    }
    let mut flat = Vec::with_capacity(rows * (cols - 1));
    for i in 0..rows {
        let row = data.features().row(i);
        flat.extend_from_slice(&row[..POWER_FEATURE]);
        flat.extend_from_slice(&row[POWER_FEATURE + 1..]);
    }
    let features = Matrix::from_vec(rows, cols - 1, flat).expect("stripped dims consistent");
    Dataset::new(features, data.targets().to_vec()).expect("stripped rows share arity")
}

/// Error training or querying COP models.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportanceError {
    /// Underlying MTL failure.
    Mtl(MtlError),
    /// Availability mask has the wrong length.
    MaskLength {
        /// Expected (task count).
        expected: usize,
        /// Supplied.
        got: usize,
    },
}

impl fmt::Display for ImportanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportanceError::Mtl(e) => write!(f, "MTL training failed: {e}"),
            ImportanceError::MaskLength { expected, got } => {
                write!(f, "availability mask has {got} entries, expected {expected}")
            }
        }
    }
}

impl std::error::Error for ImportanceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ImportanceError::Mtl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MtlError> for ImportanceError {
    fn from(e: MtlError) -> Self {
        ImportanceError::Mtl(e)
    }
}

/// Per-task COP predictors, trained with multi-task transfer so the
/// data-scarce tasks borrow from their siblings.
#[derive(Debug, Clone, PartialEq)]
pub struct CopModels {
    models: Vec<LinearModel>,
}

impl CopModels {
    /// Trains one model per scenario task under `config` (power feature
    /// stripped; see module docs).
    ///
    /// # Errors
    ///
    /// Propagates MTL failures.
    pub fn train(scenario: &Scenario, config: MtlConfig) -> Result<Self, ImportanceError> {
        // Stripping is pure per-task work; fan it out alongside the MTL fit
        // (itself parallel over tasks inside `MtlSystem::fit`).
        let tasks: Vec<TransferTask> = parallel::map(scenario.tasks().len(), 2, |t| {
            TransferTask::new(
                scenario.tasks()[t].name.clone(),
                strip_power_feature(scenario.dataset(t)),
            )
        });
        let sys = MtlSystem::fit(&tasks, config)?;
        Ok(Self { models: sys.models().to_vec() })
    }

    /// Number of task models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// `true` when no models are held.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Predicted COP of task `t` at a prediction-feature vector, clamped to
    /// a physically sensible floor.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of bounds or features have the wrong arity.
    pub fn predict(&self, t: usize, features: &[f64]) -> f64 {
        self.models[t].predict(features).expect("prediction feature arity").max(0.2)
    }
}

/// Aggregate energy of a day's sequencing decisions (see
/// [`ImportanceEvaluator::energy_report`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Energy of the data-driven decisions, kW-slots.
    pub chosen_kw: f64,
    /// Energy of the true-optimal decisions.
    pub ideal_kw: f64,
    /// Energy of the naive all-chillers-on baseline.
    pub naive_kw: f64,
}

impl EnergyReport {
    /// Energy saving of the data-driven decision vs the naive baseline
    /// (Fig. 3's y-axis).
    pub fn saving(&self) -> f64 {
        if self.naive_kw <= 1e-12 {
            0.0
        } else {
            (self.naive_kw - self.chosen_kw) / self.naive_kw
        }
    }
}

/// Evaluates decision performance and leave-one-out task importance over a
/// scenario.
#[derive(Debug, Clone)]
pub struct ImportanceEvaluator<'a> {
    scenario: &'a Scenario,
    models: &'a CopModels,
    /// Optional memoisation of `decision_performance` results, keyed by
    /// `(scenario seed, evaluator fingerprint, day content, mask)`.
    cache: Option<&'a ImportanceCache>,
    /// Fingerprint of `(model weights, fallback COP)`, computed once when
    /// the cache is attached so per-call keying stays cheap.
    evaluator_fp: u64,
}

/// COP assumed for bands with no usable task: a single rule-of-thumb plant
/// COP, the same for every chiller. Without the data-driven task the
/// operator has no machine-specific knowledge at all, so the fallback
/// deliberately carries none — cross-chiller ranking is lost, which is
/// exactly the degradation Definition 1 measures.
const FALLBACK_COP: f64 = 3.0;

impl<'a> ImportanceEvaluator<'a> {
    /// Creates an evaluator over `scenario` with the trained `models`.
    pub fn new(scenario: &'a Scenario, models: &'a CopModels) -> Self {
        Self { scenario, models, cache: None, evaluator_fp: 0 }
    }

    /// The scenario under evaluation.
    pub fn scenario(&self) -> &'a Scenario {
        self.scenario
    }

    /// Attaches a memoisation cache. Results are pure functions of the
    /// evaluator's inputs, so cached replies are bit-identical to fresh
    /// evaluations; the key embeds a fingerprint of the model weights and
    /// fallback COP so a cache shared across model sets cannot alias.
    pub fn with_cache(mut self, cache: &'a ImportanceCache) -> Self {
        self.evaluator_fp = self.fingerprint();
        self.cache = Some(cache);
        self
    }

    /// Digest of everything (besides scenario seed and per-call inputs)
    /// that determines a decision-performance value.
    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        // Digested although constant, so persisted caches keep their keys.
        fp.push_f64(FALLBACK_COP);
        for model in &self.models.models {
            fp.push_f64(model.bias());
            for &w in model.weights() {
                fp.push_f64(w);
            }
        }
        fp.finish()
    }

    /// Predicted COP for chiller `c` of building `b` at `load_kw` under
    /// `weather`, using the band's task model when `available`, else the
    /// rule-of-thumb fallback.
    fn cop_hat(
        &self,
        weather: &WeatherSample,
        b: usize,
        c: usize,
        load_kw: f64,
        available: &[bool],
    ) -> f64 {
        let plant = self.scenario.plant(b);
        let bands = self.scenario.config().bands_per_chiller;
        let chiller = &plant.chillers()[c];
        let task = plant
            .load_band(c, load_kw, bands)
            .and_then(|band| self.scenario.task_for(b, c, band))
            .filter(|&t| available[t]);
        match task {
            Some(t) => {
                let f = prediction_features(
                    b,
                    chiller.model(),
                    chiller.capacity_kw(),
                    weather,
                    load_kw,
                );
                self.models.predict(t, &f)
            }
            None => FALLBACK_COP,
        }
    }

    /// The decision function `H(J; θ)` for one day, restricted to the tasks
    /// flagged in `available`: mean over the day's decision slots and
    /// buildings of `1 − |D − D(θ)| / D`, clamped to `[0, 1]`. Sequencing is
    /// re-decided per slot, so a missing task hurts at every hour whose
    /// loads touch its band.
    ///
    /// # Errors
    ///
    /// [`ImportanceError::MaskLength`] when the mask is mis-sized.
    pub fn decision_performance(
        &self,
        day: &DayContext,
        available: &[bool],
    ) -> Result<f64, ImportanceError> {
        if available.len() != self.scenario.num_tasks() {
            return Err(ImportanceError::MaskLength {
                expected: self.scenario.num_tasks(),
                got: available.len(),
            });
        }
        match self.cache {
            Some(cache) => cache.lookup_or_compute(
                self.scenario.config().seed,
                self.evaluator_fp,
                cache::day_fingerprint(day),
                available,
                || self.decision_performance_uncached(day, available),
            ),
            None => self.decision_performance_uncached(day, available),
        }
    }

    /// The raw evaluation behind [`Self::decision_performance`].
    fn decision_performance_uncached(
        &self,
        day: &DayContext,
        available: &[bool],
    ) -> Result<f64, ImportanceError> {
        let mut total = 0.0;
        let mut counted = 0usize;
        for slot in &day.hours {
            for (b, plant) in self.scenario.plants().iter().enumerate() {
                let demand = slot.demand_kw[b];
                if demand <= 0.0 {
                    continue;
                }
                let Some(h) =
                    building_performance(self, plant, &slot.weather, b, demand, available)
                else {
                    continue;
                };
                total += h;
                counted += 1;
            }
        }
        Ok(if counted == 0 { 1.0 } else { total / counted as f64 })
    }

    /// Aggregate electrical energy of the day's sequencing decisions under
    /// three policies: the data-driven decision restricted to `available`
    /// tasks, the true optimum, and the naive all-chillers-on baseline.
    /// Fig. 3's "energy saving for cooling" is `(naive − chosen) / naive`.
    ///
    /// # Errors
    ///
    /// [`ImportanceError::MaskLength`] when the mask is mis-sized.
    pub fn energy_report(
        &self,
        day: &DayContext,
        available: &[bool],
    ) -> Result<EnergyReport, ImportanceError> {
        if available.len() != self.scenario.num_tasks() {
            return Err(ImportanceError::MaskLength {
                expected: self.scenario.num_tasks(),
                got: available.len(),
            });
        }
        let mut report = EnergyReport { chosen_kw: 0.0, ideal_kw: 0.0, naive_kw: 0.0 };
        for slot in &day.hours {
            for (b, plant) in self.scenario.plants().iter().enumerate() {
                let demand = slot.demand_kw[b];
                if demand <= 0.0 {
                    continue;
                }
                let temp = slot.weather.outdoor_temp_c;
                let Ok((_, ideal)) = plant.best_sequencing_true(demand, temp) else {
                    continue;
                };
                let Ok((chosen, _)) = plant.best_sequencing_by(demand, |c, load| {
                    self.cop_hat(&slot.weather, b, c, load, available)
                }) else {
                    continue;
                };
                let chosen_power = plant.true_power(&chosen, temp);
                // Naive baseline: every chiller on, capacity-proportional —
                // what runs when no sequencing decision is made at all.
                let Ok(candidates) = plant.sequencing_candidates(demand) else {
                    continue;
                };
                let Some(all_on) = candidates.into_iter().max_by_key(|s| s.running().count())
                else {
                    continue;
                };
                let naive_power = plant.true_power(&all_on, temp);
                if chosen_power.is_finite() && naive_power.is_finite() && ideal.is_finite() {
                    report.chosen_kw += chosen_power;
                    report.ideal_kw += ideal;
                    report.naive_kw += naive_power;
                }
            }
        }
        Ok(report)
    }

    /// Leave-one-out importances `I_j` for one day (Eq. 1). Values are
    /// clamped to `[0, 1]`: a task whose removal *helps* (negative raw
    /// importance) is simply unimportant for allocation purposes.
    ///
    /// # Errors
    ///
    /// Propagates [`ImportanceError`].
    pub fn importances(&self, day: &DayContext) -> Result<Vec<f64>, ImportanceError> {
        let n = self.scenario.num_tasks();
        let full = self.decision_performance(day, &vec![true; n])?;
        // Each leave-one-out retrial is an independent pure evaluation, so
        // the per-task loop fans out across threads; `I_j = full − without_j`
        // touches no cross-task state and results come back in task order,
        // making the parallel sweep bit-identical to the serial one. Each
        // retrial is only ~10 µs warm, so demand a meaty slice per worker
        // before paying thread spawn/join.
        parallel::try_map(n, 16, |j| -> Result<f64, ImportanceError> {
            let mut mask = vec![true; n];
            mask[j] = false;
            let without = self.decision_performance(day, &mask)?;
            Ok((full - without).clamp(0.0, 1.0))
        })
    }

    /// Importance matrix over all evaluation days (`days × tasks`), the raw
    /// material of Figs. 2, 4 and 5.
    ///
    /// Parallelised in two flat phases — full-mask performance per day,
    /// then the whole `days × tasks` leave-one-out grid — rather than
    /// nesting [`Self::importances`] inside a per-day loop, which would
    /// stack thread pools. Every cell's arithmetic is identical to the
    /// serial nested loop, so the matrix is bit-identical at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Propagates [`ImportanceError`].
    pub fn importance_matrix(&self) -> Result<Vec<Vec<f64>>, ImportanceError> {
        let days = self.scenario.days();
        let n = self.scenario.num_tasks();
        if n == 0 {
            return Ok(vec![Vec::new(); days.len()]);
        }
        // Per-cell cost is ~10 µs warm, so both phases ask for a substantial
        // slice per worker (the tracked perf log showed a 0.90× *slowdown*
        // at 2 threads when every tiny map spawned a full crew). Grains
        // affect crew size only — cell arithmetic and order are unchanged.
        let full: Vec<f64> = parallel::try_map(days.len(), 8, |d| {
            self.decision_performance(&days[d], &vec![true; n])
        })?;
        let cells: Vec<f64> =
            parallel::try_map(days.len() * n, 32, |idx| -> Result<f64, ImportanceError> {
                let (d, j) = (idx / n, idx % n);
                let mut mask = vec![true; n];
                mask[j] = false;
                let without = self.decision_performance(&days[d], &mask)?;
                Ok((full[d] - without).clamp(0.0, 1.0))
            })?;
        Ok(cells.chunks(n).map(<[f64]>::to_vec).collect())
    }
}

fn building_performance(
    ev: &ImportanceEvaluator<'_>,
    plant: &Plant,
    weather: &WeatherSample,
    b: usize,
    demand: f64,
    available: &[bool],
) -> Option<f64> {
    let temp = weather.outdoor_temp_c;
    let (_, ideal) = plant.best_sequencing_true(demand, temp).ok()?;
    let (chosen, _) = plant
        .best_sequencing_by(demand, |c, load| ev.cop_hat(weather, b, c, load, available))
        .ok()?;
    let actual = plant.true_power(&chosen, temp);
    if !ideal.is_finite() || ideal <= 0.0 || !actual.is_finite() {
        return None;
    }
    Some((1.0 - (actual - ideal).abs() / ideal).clamp(0.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use buildings::scenario::ScenarioConfig;

    fn scenario() -> Scenario {
        Scenario::generate(ScenarioConfig {
            history_days: 60,
            eval_days: 8,
            num_tasks: 0, // full grid so every band has a task
            ..ScenarioConfig::default()
        })
        .unwrap()
    }

    fn models(s: &Scenario) -> CopModels {
        CopModels::train(s, MtlConfig { transfer_strength: 2.0, ..Default::default() }).unwrap()
    }

    #[test]
    fn prediction_features_arity_and_water_loop() {
        let s = scenario();
        let w = s.day(0).weather;
        let f = prediction_features(1, ChillerModel::Screw, 600.0, &w, 300.0);
        assert_eq!(f.len(), NUM_PREDICTION_FEATURES);
        // ΔT at plr 0.5 = 5.0; flow = 300 / (4.186 * 5).
        assert!((f[6] - 5.0).abs() < 1e-12);
        assert!((f[5] - 300.0 / (WATER_CP * 5.0)).abs() < 1e-12);
    }

    #[test]
    fn strip_power_removes_one_column() {
        let s = scenario();
        let stripped = strip_power_feature(s.dataset(0));
        assert_eq!(stripped.num_features(), TelemetryRecord::NUM_DOMAIN_FEATURES - 1);
        assert_eq!(stripped.len(), s.dataset(0).len());
        // Remaining columns preserve order: col 0/1 unchanged, col 2 is old 3.
        assert_eq!(stripped.features().row(0)[0], s.dataset(0).features().row(0)[0]);
        assert_eq!(stripped.features().row(0)[2], s.dataset(0).features().row(0)[3]);
    }

    #[test]
    fn models_predict_sane_cops() {
        let s = scenario();
        let m = models(&s);
        assert_eq!(m.len(), s.num_tasks());
        let day = s.day(0);
        for (t, spec) in s.tasks().iter().enumerate().step_by(7) {
            let plant = s.plant(spec.building);
            let chiller = &plant.chillers()[spec.chiller];
            let mid = plant
                .band_midpoint_kw(spec.chiller, spec.band, s.config().bands_per_chiller)
                .unwrap();
            let f = prediction_features(
                spec.building,
                chiller.model(),
                chiller.capacity_kw(),
                &day.weather,
                mid,
            );
            let pred = m.predict(t, &f);
            assert!((0.2..=12.0).contains(&pred), "task {t} predicted COP {pred}");
        }
    }

    #[test]
    fn full_availability_beats_none() {
        let s = scenario();
        let m = models(&s);
        let ev = ImportanceEvaluator::new(&s, &m);
        let mut sum_all = 0.0;
        let mut sum_none = 0.0;
        for day in s.days() {
            let all = ev.decision_performance(day, &vec![true; s.num_tasks()]).unwrap();
            let none = ev.decision_performance(day, &vec![false; s.num_tasks()]).unwrap();
            assert!((0.0..=1.0).contains(&all));
            assert!((0.0..=1.0).contains(&none));
            // The learned models should never be materially worse than the
            // datasheet fallback on any single day…
            assert!(all + 0.05 >= none, "models hurt: {all} vs {none}");
            sum_all += all;
            sum_none += none;
        }
        // …and must beat it in aggregate: on days where rankings are
        // fragile, COP knowledge is what rescues the decision.
        assert!(sum_all > sum_none + 0.1, "aggregate H(all) {sum_all} vs H(none) {sum_none}");
    }

    #[test]
    fn mask_length_checked() {
        let s = scenario();
        let m = models(&s);
        let ev = ImportanceEvaluator::new(&s, &m);
        assert!(matches!(
            ev.decision_performance(s.day(0), &[true]),
            Err(ImportanceError::MaskLength { .. })
        ));
    }

    #[test]
    fn importances_are_bounded_and_sparse() {
        let s = scenario();
        let m = models(&s);
        let ev = ImportanceEvaluator::new(&s, &m);
        let imp = ev.importances(s.day(0)).unwrap();
        assert_eq!(imp.len(), s.num_tasks());
        assert!(imp.iter().all(|&i| (0.0..=1.0).contains(&i)));
        // Only bands the day's sequencings can touch may matter: importance
        // must be sparse (the long-tail property).
        let nonzero = imp.iter().filter(|&&i| i > 1e-9).count();
        assert!(nonzero < s.num_tasks() / 2, "{nonzero} of {} tasks important", s.num_tasks());
    }

    #[test]
    fn importance_varies_across_days() {
        let s = scenario();
        let m = models(&s);
        let ev = ImportanceEvaluator::new(&s, &m);
        let matrix = ev.importance_matrix().unwrap();
        assert_eq!(matrix.len(), s.days().len());
        // Obs. 3: the important set is not constant.
        let sets: Vec<Vec<usize>> = matrix
            .iter()
            .map(|row| row.iter().enumerate().filter(|(_, &v)| v > 1e-9).map(|(t, _)| t).collect())
            .collect();
        assert!(sets.windows(2).any(|w| w[0] != w[1]), "importance sets identical every day");
    }
}
