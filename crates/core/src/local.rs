//! The DCTA local process `F2` (§IV-B-D): a model trained on local
//! real-world data that predicts, per task, whether it belongs in the
//! optimal selection.
//!
//! Training pairs come from past days: the Table-I features of each task
//! (see [`crate::features`]) labelled `+1` when the task appeared in that
//! day's optimal decision and `-1` otherwise. The paper compares SVM,
//! AdaBoost and Random Forest and "select\[s\] SVM because of its highest
//! accuracy"; all three are available here so that comparison is
//! reproducible (`local-model` experiment).

use learn::adaboost::AdaBoost;
use learn::dataset::{Dataset, DatasetError, Standardizer};
use learn::forest::{ForestConfig, RandomForest};
use learn::svm::{LinearSvm, SvmConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// Which model family backs the local process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LocalModelKind {
    /// Squared-hinge primal SVM (Eq. 8) — the paper's pick.
    #[default]
    Svm,
    /// AdaBoost over decision stumps.
    AdaBoost,
    /// Random forest (sign of the ensemble mean).
    RandomForest,
}

impl fmt::Display for LocalModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LocalModelKind::Svm => "svm",
            LocalModelKind::AdaBoost => "adaboost",
            LocalModelKind::RandomForest => "random-forest",
        };
        f.write_str(name)
    }
}

/// Error training or querying the local process.
#[derive(Debug, Clone, PartialEq)]
pub enum LocalError {
    /// No training rows were supplied.
    NoTrainingData,
    /// Labels must be `±1`.
    BadLabel {
        /// Index of the offending row.
        row: usize,
    },
    /// Dataset assembly failed.
    Dataset(DatasetError),
    /// Underlying learner failed.
    Fit(String),
    /// Query feature arity mismatch.
    ArityMismatch {
        /// Expected arity.
        expected: usize,
        /// Supplied arity.
        got: usize,
    },
}

impl fmt::Display for LocalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocalError::NoTrainingData => write!(f, "local process has no training data"),
            LocalError::BadLabel { row } => write!(f, "row {row} has a label that is not ±1"),
            LocalError::Dataset(e) => write!(f, "dataset error: {e}"),
            LocalError::Fit(msg) => write!(f, "model fit failed: {msg}"),
            LocalError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} features, got {got}")
            }
        }
    }
}

impl std::error::Error for LocalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LocalError::Dataset(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DatasetError> for LocalError {
    fn from(e: DatasetError) -> Self {
        LocalError::Dataset(e)
    }
}

#[derive(Debug, Clone)]
enum Fitted {
    Svm(LinearSvm),
    AdaBoost(AdaBoost),
    Forest(RandomForest),
}

/// The trained local process.
#[derive(Debug, Clone)]
pub struct LocalProcess {
    model: Fitted,
    standardizer: Standardizer,
    kind: LocalModelKind,
}

impl LocalProcess {
    /// Trains on `(features, ±1 label)` rows.
    ///
    /// # Errors
    ///
    /// See [`LocalError`] variants.
    pub fn train(
        rows: Vec<Vec<f64>>,
        labels: Vec<f64>,
        kind: LocalModelKind,
        seed: u64,
    ) -> Result<Self, LocalError> {
        if rows.is_empty() {
            return Err(LocalError::NoTrainingData);
        }
        if let Some(row) = labels.iter().position(|&y| y != 1.0 && y != -1.0) {
            return Err(LocalError::BadLabel { row });
        }
        let raw = Dataset::from_rows(rows, labels)?;
        let standardizer = Standardizer::fit(&raw);
        let data = standardizer.transform_dataset(&raw);
        let mut rng = StdRng::seed_from_u64(seed);
        let model = match kind {
            LocalModelKind::Svm => Fitted::Svm(
                LinearSvm::fit(&data, SvmConfig::default())
                    .map_err(|e| LocalError::Fit(e.to_string()))?,
            ),
            LocalModelKind::AdaBoost => Fitted::AdaBoost(
                AdaBoost::fit(&data, 40).map_err(|e| LocalError::Fit(e.to_string()))?,
            ),
            LocalModelKind::RandomForest => Fitted::Forest(
                RandomForest::fit(&data, ForestConfig::default(), &mut rng)
                    .map_err(|e| LocalError::Fit(e.to_string()))?,
            ),
        };
        Ok(Self { model, standardizer, kind })
    }

    /// The model family in use.
    pub fn kind(&self) -> LocalModelKind {
        self.kind
    }

    /// Signed selection score for one feature vector: positive favours
    /// selecting the task. DCTA consumes this margin through a squashing to
    /// `[0, 1]` (see [`LocalProcess::selection_score`]).
    ///
    /// # Errors
    ///
    /// [`LocalError::ArityMismatch`] on wrong arity.
    pub fn decision_value(&self, features: &[f64]) -> Result<f64, LocalError> {
        if features.len() != self.standardizer.num_features() {
            return Err(LocalError::ArityMismatch {
                expected: self.standardizer.num_features(),
                got: features.len(),
            });
        }
        let x = self.standardizer.transform(features);
        let v = match &self.model {
            Fitted::Svm(m) => m.decision_value(&x).map_err(|e| LocalError::Fit(e.to_string()))?,
            Fitted::AdaBoost(m) => {
                m.decision_value(&x).map_err(|e| LocalError::Fit(e.to_string()))?
            }
            Fitted::Forest(m) => m.predict(&x).map_err(|e| LocalError::Fit(e.to_string()))?,
        };
        Ok(v)
    }

    /// Hard `±1` prediction.
    ///
    /// # Errors
    ///
    /// [`LocalError::ArityMismatch`] on wrong arity.
    pub fn predict(&self, features: &[f64]) -> Result<f64, LocalError> {
        Ok(if self.decision_value(features)? >= 0.0 { 1.0 } else { -1.0 })
    }

    /// The margin squashed to `[0, 1]` by a logistic — the `F2` score DCTA
    /// mixes into Eq. (6).
    ///
    /// # Errors
    ///
    /// [`LocalError::ArityMismatch`] on wrong arity.
    pub fn selection_score(&self, features: &[f64]) -> Result<f64, LocalError> {
        let v = self.decision_value(features)?;
        Ok(1.0 / (1.0 + (-v).exp()))
    }

    /// Held-out `±1` accuracy over rows/labels — the §IV-B model-selection
    /// criterion.
    ///
    /// # Errors
    ///
    /// See [`LocalError`] variants.
    pub fn accuracy(&self, rows: &[Vec<f64>], labels: &[f64]) -> Result<f64, LocalError> {
        if rows.is_empty() || rows.len() != labels.len() {
            return Err(LocalError::NoTrainingData);
        }
        let mut hits = 0usize;
        for (x, &y) in rows.iter().zip(labels) {
            if self.predict(x)? == y {
                hits += 1;
            }
        }
        Ok(hits as f64 / rows.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// Synthetic selection problem: tasks with high feature-0 (importance
    /// proxy) and low feature-1 (cost proxy) are selected.
    fn synthetic(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let imp: f64 = rng.gen_range(0.0..1.0);
            let cost: f64 = rng.gen_range(0.0..1.0);
            let noise: f64 = rng.gen_range(-0.05..0.05);
            rows.push(vec![imp, cost, rng.gen_range(0.0..3.0)]);
            labels.push(if imp - cost + noise > 0.0 { 1.0 } else { -1.0 });
        }
        (rows, labels)
    }

    #[test]
    fn all_three_kinds_learn_the_rule() {
        let (rows, labels) = synthetic(300, 1);
        let (test_rows, test_labels) = synthetic(100, 2);
        for kind in [LocalModelKind::Svm, LocalModelKind::AdaBoost, LocalModelKind::RandomForest] {
            let lp = LocalProcess::train(rows.clone(), labels.clone(), kind, 7).unwrap();
            let acc = lp.accuracy(&test_rows, &test_labels).unwrap();
            assert!(acc > 0.8, "{kind} accuracy {acc}");
            assert_eq!(lp.kind(), kind);
        }
    }

    #[test]
    fn selection_score_is_probability_like() {
        let (rows, labels) = synthetic(200, 3);
        let lp = LocalProcess::train(rows, labels, LocalModelKind::Svm, 7).unwrap();
        let hi = lp.selection_score(&[0.95, 0.05, 1.0]).unwrap();
        let lo = lp.selection_score(&[0.05, 0.95, 1.0]).unwrap();
        assert!((0.0..=1.0).contains(&hi) && (0.0..=1.0).contains(&lo));
        assert!(hi > lo);
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            LocalProcess::train(vec![], vec![], LocalModelKind::Svm, 0),
            Err(LocalError::NoTrainingData)
        ));
        assert!(matches!(
            LocalProcess::train(vec![vec![1.0]], vec![0.5], LocalModelKind::Svm, 0),
            Err(LocalError::BadLabel { row: 0 })
        ));
        let (rows, labels) = synthetic(50, 4);
        let lp = LocalProcess::train(rows, labels, LocalModelKind::Svm, 0).unwrap();
        assert!(matches!(
            lp.decision_value(&[1.0]),
            Err(LocalError::ArityMismatch { expected: 3, got: 1 })
        ));
        assert!(lp.accuracy(&[], &[]).is_err());
    }

    #[test]
    fn standardisation_makes_scale_irrelevant() {
        // Feature 2 is 1000x larger but uninformative; training must still
        // recover the imp-vs-cost rule.
        let (mut rows, labels) = synthetic(300, 5);
        for r in &mut rows {
            r[2] *= 1000.0;
        }
        let lp = LocalProcess::train(rows.clone(), labels.clone(), LocalModelKind::Svm, 0).unwrap();
        assert!(lp.accuracy(&rows, &labels).unwrap() > 0.85);
    }
}
