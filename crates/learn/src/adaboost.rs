//! AdaBoost with decision stumps (discrete AdaBoost / SAMME for 2 classes).
//!
//! The second candidate model in §IV-B's local-process comparison. Labels
//! follow the crate-wide `±1` convention.

use crate::dataset::Dataset;
use std::fmt;

/// Error returned by AdaBoost training or prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoostError {
    /// Training set was empty.
    EmptyDataset,
    /// Labels were not all `±1`.
    BadLabel {
        /// Index of the first offending sample.
        index: usize,
    },
    /// Zero rounds requested.
    ZeroRounds,
    /// Wrong feature arity at predict time.
    ArityMismatch {
        /// Arity the ensemble was trained with.
        expected: usize,
        /// Arity supplied.
        got: usize,
    },
}

impl fmt::Display for BoostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoostError::EmptyDataset => write!(f, "cannot boost on an empty dataset"),
            BoostError::BadLabel { index } => {
                write!(f, "sample {index} has a label that is not +1 or -1")
            }
            BoostError::ZeroRounds => write!(f, "boosting needs at least one round"),
            BoostError::ArityMismatch { expected, got } => {
                write!(f, "ensemble expects {expected} features, got {got}")
            }
        }
    }
}

impl std::error::Error for BoostError {}

/// A single axis-aligned decision stump `sign(polarity * (x[feature] - threshold))`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Stump {
    feature: usize,
    threshold: f64,
    /// `+1.0`: predict +1 above threshold; `-1.0`: predict +1 below.
    polarity: f64,
    /// Ensemble weight (alpha).
    alpha: f64,
}

impl Stump {
    fn raw(&self, x: &[f64]) -> f64 {
        if self.polarity * (x[self.feature] - self.threshold) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }
}

/// A trained AdaBoost ensemble of decision stumps.
///
/// # Examples
///
/// ```
/// use learn::adaboost::AdaBoost;
/// use learn::dataset::Dataset;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ds = Dataset::from_rows(
///     vec![vec![0.0], vec![1.0], vec![5.0], vec![6.0]],
///     vec![-1.0, -1.0, 1.0, 1.0],
/// )?;
/// let model = AdaBoost::fit(&ds, 10)?;
/// assert_eq!(model.predict(&[7.0])?, 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdaBoost {
    stumps: Vec<Stump>,
    arity: usize,
}

impl AdaBoost {
    /// Boosts `rounds` stumps on `data` (targets must be `±1`).
    ///
    /// Training stops early when a stump achieves zero weighted error (the
    /// data is stump-separable) or when no stump beats random guessing.
    ///
    /// # Errors
    ///
    /// See [`BoostError`] variants.
    pub fn fit(data: &Dataset, rounds: usize) -> Result<Self, BoostError> {
        if data.is_empty() {
            return Err(BoostError::EmptyDataset);
        }
        if rounds == 0 {
            return Err(BoostError::ZeroRounds);
        }
        if let Some(index) =
            (0..data.len()).find(|&i| data.targets()[i] != 1.0 && data.targets()[i] != -1.0)
        {
            return Err(BoostError::BadLabel { index });
        }

        let n = data.len();
        let mut w = vec![1.0 / n as f64; n];
        let mut stumps = Vec::new();
        for _ in 0..rounds {
            let (mut stump, err) = best_stump(data, &w);
            if err >= 0.5 - 1e-9 {
                break; // no better than chance
            }
            let err = err.max(1e-12);
            stump.alpha = 0.5 * ((1.0 - err) / err).ln();
            // Reweight: misclassified up, correct down.
            let mut z = 0.0;
            for i in 0..n {
                let (x, y) = data.sample(i);
                w[i] *= (-stump.alpha * y * stump.raw(x)).exp();
                z += w[i];
            }
            for wi in &mut w {
                *wi /= z;
            }
            let perfect = err <= 1e-10;
            stumps.push(stump);
            if perfect {
                break;
            }
        }
        if stumps.is_empty() {
            // Fall back to the best available stump so predict() still works.
            let (mut stump, err) = best_stump(data, &w);
            stump.alpha = if err < 0.5 { 1.0 } else { 0.0 };
            stumps.push(stump);
        }
        Ok(Self { stumps, arity: data.num_features() })
    }

    /// Weighted ensemble margin `Σ α_t h_t(x)`; sign is the class.
    ///
    /// # Errors
    ///
    /// [`BoostError::ArityMismatch`] when `x` has the wrong length.
    pub fn decision_value(&self, x: &[f64]) -> Result<f64, BoostError> {
        if x.len() != self.arity {
            return Err(BoostError::ArityMismatch { expected: self.arity, got: x.len() });
        }
        Ok(self.stumps.iter().map(|s| s.alpha * s.raw(x)).sum())
    }

    /// Hard `±1` prediction.
    ///
    /// # Errors
    ///
    /// [`BoostError::ArityMismatch`] when `x` has the wrong length.
    pub fn predict(&self, x: &[f64]) -> Result<f64, BoostError> {
        Ok(if self.decision_value(x)? >= 0.0 { 1.0 } else { -1.0 })
    }
}

/// Exhaustive weighted-error search over stumps (all features × thresholds ×
/// polarities). Returns the stump (alpha unset) and its weighted error.
fn best_stump(data: &Dataset, w: &[f64]) -> (Stump, f64) {
    let d = data.num_features();
    let n = data.len();
    let mut best = (Stump { feature: 0, threshold: 0.0, polarity: 1.0, alpha: 0.0 }, f64::INFINITY);
    for feat in 0..d {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            data.features().row(a)[feat]
                .partial_cmp(&data.features().row(b)[feat])
                .expect("finite features")
        });
        // Candidate thresholds: below the minimum, then midpoints.
        let lo = data.features().row(order[0])[feat];
        let mut candidates = vec![lo - 1.0];
        for k in 1..n {
            let a = data.features().row(order[k - 1])[feat];
            let b = data.features().row(order[k])[feat];
            if b - a > 1e-12 {
                candidates.push((a + b) / 2.0);
            }
        }
        for &threshold in &candidates {
            for polarity in [1.0, -1.0] {
                let stump = Stump { feature: feat, threshold, polarity, alpha: 0.0 };
                let err: f64 = (0..n)
                    .filter(|&i| {
                        let (x, y) = data.sample(i);
                        stump.raw(x) != y
                    })
                    .map(|i| w[i])
                    .sum();
                if err < best.1 {
                    best = (stump, err);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn separable_1d_is_perfect_in_one_round() {
        let ds = Dataset::from_rows(
            vec![vec![0.0], vec![1.0], vec![5.0], vec![6.0]],
            vec![-1.0, -1.0, 1.0, 1.0],
        )
        .unwrap();
        let model = AdaBoost::fit(&ds, 20).unwrap();
        assert_eq!(model.stumps.len(), 1);
        for i in 0..ds.len() {
            let (x, y) = ds.sample(i);
            assert_eq!(model.predict(x).unwrap(), y);
        }
    }

    #[test]
    fn boosting_beats_single_stump_on_interval_class() {
        // +1 inside [2, 4], -1 outside: needs >= 2 stumps.
        let xs: Vec<f64> = (0..40).map(|i| i as f64 * 0.2).collect();
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let ys: Vec<f64> =
            xs.iter().map(|&x| if (2.0..=4.0).contains(&x) { 1.0 } else { -1.0 }).collect();
        let ds = Dataset::from_rows(rows, ys).unwrap();
        let one = AdaBoost::fit(&ds, 1).unwrap();
        let many = AdaBoost::fit(&ds, 50).unwrap();
        let acc = |m: &AdaBoost| {
            let preds: Vec<f64> =
                (0..ds.len()).map(|i| m.predict(ds.features().row(i)).unwrap()).collect();
            accuracy(&preds, ds.targets()).unwrap()
        };
        assert!(acc(&many) > acc(&one));
        assert!(acc(&many) > 0.95);
    }

    #[test]
    fn noisy_two_feature_problem() {
        let mut rng = StdRng::seed_from_u64(31);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..150 {
            let y: f64 = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            rows.push(vec![y * 1.5 + rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]);
            ys.push(y);
        }
        let ds = Dataset::from_rows(rows, ys).unwrap();
        let model = AdaBoost::fit(&ds, 30).unwrap();
        let preds: Vec<f64> =
            (0..ds.len()).map(|i| model.predict(ds.features().row(i)).unwrap()).collect();
        assert!(accuracy(&preds, ds.targets()).unwrap() > 0.85);
    }

    #[test]
    fn errors() {
        let ds = Dataset::from_rows(vec![vec![1.0]], vec![1.0]).unwrap();
        assert!(matches!(AdaBoost::fit(&ds.subset(&[]), 5), Err(BoostError::EmptyDataset)));
        assert!(matches!(AdaBoost::fit(&ds, 0), Err(BoostError::ZeroRounds)));
        let bad = Dataset::from_rows(vec![vec![1.0]], vec![0.3]).unwrap();
        assert!(matches!(AdaBoost::fit(&bad, 5), Err(BoostError::BadLabel { index: 0 })));
        let model = AdaBoost::fit(&ds, 1).unwrap();
        assert!(matches!(
            model.predict(&[1.0, 2.0]),
            Err(BoostError::ArityMismatch { expected: 1, got: 2 })
        ));
    }

    #[test]
    fn decision_value_magnitude_grows_with_agreement() {
        let xs: Vec<f64> = (0..40).map(|i| i as f64 * 0.2).collect();
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let ys: Vec<f64> =
            xs.iter().map(|&x| if (2.0..=4.0).contains(&x) { 1.0 } else { -1.0 }).collect();
        let ds = Dataset::from_rows(rows, ys).unwrap();
        let model = AdaBoost::fit(&ds, 50).unwrap();
        // Deep inside the negative region, all stumps agree.
        let deep = model.decision_value(&[7.5]).unwrap();
        let edge = model.decision_value(&[4.1]).unwrap();
        assert!(deep < 0.0);
        assert!(deep <= edge);
    }
}
