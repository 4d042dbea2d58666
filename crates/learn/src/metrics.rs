//! Evaluation metrics for regressors and binary classifiers. (Table I's
//! similarity-style "Prediction Accuracy" feature is the allocator's, in
//! `core::features`.)

use std::fmt;

/// Error returned when two metric input slices differ in length or are empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricError {
    expected: usize,
    got: usize,
}

impl fmt::Display for MetricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.expected == 0 {
            write!(f, "metric inputs are empty")
        } else {
            write!(f, "metric inputs differ in length: {} vs {}", self.expected, self.got)
        }
    }
}

impl std::error::Error for MetricError {}

fn check(pred: &[f64], truth: &[f64]) -> Result<(), MetricError> {
    if pred.is_empty() {
        return Err(MetricError { expected: 0, got: 0 });
    }
    if pred.len() != truth.len() {
        return Err(MetricError { expected: truth.len(), got: pred.len() });
    }
    Ok(())
}

/// Mean absolute error.
///
/// # Errors
///
/// Fails on empty or unequal-length inputs.
pub fn mae(pred: &[f64], truth: &[f64]) -> Result<f64, MetricError> {
    check(pred, truth)?;
    Ok(pred.iter().zip(truth).map(|(p, t)| (p - t).abs()).sum::<f64>() / pred.len() as f64)
}

/// Root mean squared error.
///
/// # Errors
///
/// Fails on empty or unequal-length inputs.
pub fn rmse(pred: &[f64], truth: &[f64]) -> Result<f64, MetricError> {
    check(pred, truth)?;
    let mse =
        pred.iter().zip(truth).map(|(p, t)| (p - t) * (p - t)).sum::<f64>() / pred.len() as f64;
    Ok(mse.sqrt())
}

/// Coefficient of determination R². A constant-truth input yields 0.0 when
/// predictions are imperfect (by convention) and 1.0 when they are exact.
///
/// # Errors
///
/// Fails on empty or unequal-length inputs.
pub fn r2(pred: &[f64], truth: &[f64]) -> Result<f64, MetricError> {
    check(pred, truth)?;
    let mean_t = truth.iter().sum::<f64>() / truth.len() as f64;
    let ss_res: f64 = pred.iter().zip(truth).map(|(p, t)| (t - p) * (t - p)).sum();
    let ss_tot: f64 = truth.iter().map(|t| (t - mean_t) * (t - mean_t)).sum();
    if ss_tot < 1e-15 {
        return Ok(if ss_res < 1e-15 { 1.0 } else { 0.0 });
    }
    Ok(1.0 - ss_res / ss_tot)
}

/// Fraction of samples whose `±1` sign matches.
///
/// # Errors
///
/// Fails on empty or unequal-length inputs.
pub fn accuracy(pred: &[f64], truth: &[f64]) -> Result<f64, MetricError> {
    check(pred, truth)?;
    let hits = pred.iter().zip(truth).filter(|(p, t)| p.signum() == t.signum()).count();
    Ok(hits as f64 / pred.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mae_rmse_known_values() {
        let p = [1.0, 2.0, 3.0];
        let t = [1.0, 4.0, 3.0];
        assert!((mae(&p, &t).unwrap() - 2.0 / 3.0).abs() < 1e-12);
        assert!((rmse(&p, &t).unwrap() - (4.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn perfect_prediction_scores() {
        let t = [1.0, 2.0, 3.0];
        assert_eq!(mae(&t, &t).unwrap(), 0.0);
        assert_eq!(rmse(&t, &t).unwrap(), 0.0);
        assert_eq!(r2(&t, &t).unwrap(), 1.0);
        assert_eq!(accuracy(&[1.0, -1.0], &[2.0, -0.5]).unwrap(), 1.0);
    }

    #[test]
    fn r2_of_mean_predictor_is_zero() {
        let t = [1.0, 2.0, 3.0];
        let p = [2.0, 2.0, 2.0];
        assert!(r2(&p, &t).unwrap().abs() < 1e-12);
    }

    #[test]
    fn r2_constant_truth_convention() {
        assert_eq!(r2(&[1.0, 1.0], &[1.0, 1.0]).unwrap(), 1.0);
        assert_eq!(r2(&[0.0, 2.0], &[1.0, 1.0]).unwrap(), 0.0);
    }

    #[test]
    fn accuracy_counts_sign_matches() {
        assert_eq!(accuracy(&[0.4, -0.2, 3.0, -9.0], &[1.0, 1.0, 1.0, -1.0]).unwrap(), 0.75);
    }

    #[test]
    fn errors_on_bad_input() {
        assert!(mae(&[], &[]).is_err());
        assert!(rmse(&[1.0], &[1.0, 2.0]).is_err());
        assert!(r2(&[1.0], &[]).is_err());
        assert!(accuracy(&[], &[]).is_err());
        let msg = mae(&[1.0], &[1.0, 2.0]).unwrap_err().to_string();
        assert!(msg.contains("differ in length"));
    }
}
