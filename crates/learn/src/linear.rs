//! Ordinary least squares and ridge regression.
//!
//! The per-task COP predictors in the green-building scenario are small ridge
//! regressors: each chiller-load *task* maps telemetry features to a
//! coefficient-of-performance estimate. Ridge (rather than plain OLS) keeps
//! tasks with very few on-edge samples well-posed, which is exactly the data
//! scarcity regime the paper motivates.

use crate::dataset::Dataset;
use crate::linalg::{dot, Matrix};
use std::fmt;

/// Error returned when fitting a linear model fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// The training set was empty.
    EmptyDataset,
    /// The normal equations were singular (use a larger ridge penalty).
    Singular,
    /// A prediction was requested with the wrong feature arity.
    ArityMismatch {
        /// Arity the model was trained with.
        expected: usize,
        /// Arity supplied.
        got: usize,
    },
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::EmptyDataset => write!(f, "cannot fit a model on an empty dataset"),
            FitError::Singular => {
                write!(f, "normal equations are singular; increase the ridge penalty")
            }
            FitError::ArityMismatch { expected, got } => {
                write!(f, "model expects {expected} features, got {got}")
            }
        }
    }
}

impl std::error::Error for FitError {}

/// A fitted linear model `y = w·x + b`.
///
/// # Examples
///
/// ```
/// use learn::dataset::Dataset;
/// use learn::linear::RidgeRegression;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // y = 2x + 1
/// let ds = Dataset::from_rows(
///     vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]],
///     vec![1.0, 3.0, 5.0, 7.0],
/// )?;
/// let model = RidgeRegression::new(1e-9).fit(&ds)?;
/// assert!((model.predict(&[4.0])? - 9.0).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    weights: Vec<f64>,
    bias: f64,
}

impl LinearModel {
    /// Creates a model directly from weights and bias, primarily for tests
    /// and for transfer-learning warm starts.
    pub fn from_parts(weights: Vec<f64>, bias: f64) -> Self {
        Self { weights, bias }
    }

    /// The learned weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The learned intercept.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Predicts the target for one feature vector.
    ///
    /// # Errors
    ///
    /// Returns [`FitError::ArityMismatch`] when `x` has the wrong length.
    pub fn predict(&self, x: &[f64]) -> Result<f64, FitError> {
        if x.len() != self.weights.len() {
            return Err(FitError::ArityMismatch { expected: self.weights.len(), got: x.len() });
        }
        Ok(dot(&self.weights, x) + self.bias)
    }
}

/// Ridge regression trainer (L2-regularised least squares, closed form).
///
/// `lambda = 0` recovers ordinary least squares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RidgeRegression {
    lambda: f64,
}

impl RidgeRegression {
    /// Creates a trainer with ridge penalty `lambda`.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or non-finite.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda.is_finite() && lambda >= 0.0, "lambda must be >= 0, got {lambda}");
        Self { lambda }
    }

    /// The configured penalty.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Solves the normal equations `(XᵀX + λI) w = Xᵀy` on the augmented
    /// design matrix (a trailing all-ones column carries the intercept; the
    /// intercept itself is *not* penalised, matching standard practice).
    ///
    /// # Errors
    ///
    /// [`FitError::EmptyDataset`] when `data` has no samples,
    /// [`FitError::Singular`] when the system cannot be solved.
    pub fn fit(&self, data: &Dataset) -> Result<LinearModel, FitError> {
        if data.is_empty() {
            return Err(FitError::EmptyDataset);
        }
        let n = data.len();
        let d = data.num_features();
        // Augmented design: d feature columns + intercept column.
        let mut xtx = Matrix::zeros(d + 1, d + 1);
        let mut xty = vec![0.0; d + 1];
        for i in 0..n {
            let (x, y) = data.sample(i);
            for a in 0..d {
                for b in 0..d {
                    xtx[(a, b)] += x[a] * x[b];
                }
                xtx[(a, d)] += x[a];
                xtx[(d, a)] += x[a];
                xty[a] += x[a] * y;
            }
            xtx[(d, d)] += 1.0;
            xty[d] += y;
        }
        for a in 0..d {
            xtx[(a, a)] += self.lambda;
        }
        let sol = xtx.solve(&xty).map_err(|_| FitError::Singular)?;
        let (weights, bias) = sol.split_at(d);
        Ok(LinearModel { weights: weights.to_vec(), bias: bias[0] })
    }
}

impl Default for RidgeRegression {
    /// A small default penalty that keeps scarce-data fits well-posed.
    fn default() -> Self {
        Self { lambda: 1e-6 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn line_data(n: usize, w: &[f64], b: f64, noise: f64, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let x: Vec<f64> = (0..w.len()).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let y = dot(w, &x) + b + noise * rng.gen_range(-1.0..1.0);
            rows.push(x);
            ys.push(y);
        }
        Dataset::from_rows(rows, ys).unwrap()
    }

    #[test]
    fn recovers_exact_line() {
        let ds = line_data(50, &[2.0, -3.0], 0.5, 0.0, 1);
        let m = RidgeRegression::new(0.0).fit(&ds).unwrap();
        assert!((m.weights()[0] - 2.0).abs() < 1e-8);
        assert!((m.weights()[1] + 3.0).abs() < 1e-8);
        assert!((m.bias() - 0.5).abs() < 1e-8);
    }

    #[test]
    fn noisy_fit_has_low_rmse() {
        let ds = line_data(200, &[1.0, 2.0, 3.0], -1.0, 0.1, 2);
        let m = RidgeRegression::default().fit(&ds).unwrap();
        let preds: Vec<f64> =
            (0..ds.len()).map(|i| m.predict(ds.features().row(i)).unwrap()).collect();
        assert!(rmse(&preds, ds.targets()).unwrap() < 0.12);
    }

    #[test]
    fn ridge_shrinks_weights() {
        let ds = line_data(30, &[5.0], 0.0, 0.0, 3);
        let free = RidgeRegression::new(0.0).fit(&ds).unwrap();
        let shrunk = RidgeRegression::new(1e4).fit(&ds).unwrap();
        assert!(shrunk.weights()[0].abs() < free.weights()[0].abs());
    }

    #[test]
    fn ridge_handles_underdetermined() {
        // 2 samples, 3 features: OLS is singular; ridge is not.
        let ds = Dataset::from_rows(vec![vec![1.0, 0.0, 2.0], vec![0.0, 1.0, 1.0]], vec![1.0, 2.0])
            .unwrap();
        assert!(matches!(RidgeRegression::new(0.0).fit(&ds), Err(FitError::Singular)));
        assert!(RidgeRegression::new(0.1).fit(&ds).is_ok());
    }

    #[test]
    fn empty_dataset_rejected() {
        let ds = Dataset::from_rows(vec![vec![1.0]], vec![1.0]).unwrap().subset(&[]);
        assert!(matches!(RidgeRegression::default().fit(&ds), Err(FitError::EmptyDataset)));
    }

    #[test]
    fn predict_checks_arity() {
        let m = LinearModel::from_parts(vec![1.0, 2.0], 0.0);
        assert!(matches!(m.predict(&[1.0]), Err(FitError::ArityMismatch { expected: 2, got: 1 })));
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn negative_lambda_panics() {
        RidgeRegression::new(-1.0);
    }
}
