//! # learn — machine-learning substrate for the TATIM/DCTA reproduction
//!
//! Self-contained implementations of every learner the paper relies on,
//! with no external ML dependency (the reproduction's substitution rule for
//! "immature DL libraries"):
//!
//! * [`linalg`] — dense vectors/matrices, Gaussian elimination.
//! * [`dataset`] — labelled datasets, splits, standardisation.
//! * [`metrics`] — MAE/RMSE/R², `±1` accuracy, the paper's similarity-style
//!   prediction accuracy.
//! * [`linear`] — ridge regression (per-task COP predictors).
//! * [`svm`] — primal squared-hinge SVM, Eq. (8) verbatim (DCTA local
//!   process).
//! * [`tree`], [`forest`], [`adaboost`] — the other §IV-B local-process
//!   candidates.
//! * [`knn`] — online environment lookup (`e = kNN(E, Z)`, §III-C).
//! * [`kmeans`] — offline environment clustering (Discussion, §VII).
//! * [`nn`] — the MLP + optimisers backing the Deep-Q-Network.
//! * [`transfer`] — multi-task transfer learning over per-task models.
//!
//! ## Quick example
//!
//! ```
//! use learn::dataset::Dataset;
//! use learn::linear::RidgeRegression;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ds = Dataset::from_rows(vec![vec![1.0], vec![2.0]], vec![2.0, 4.0])?;
//! let model = RidgeRegression::default().fit(&ds)?;
//! assert!((model.predict(&[3.0])? - 6.0).abs() < 1e-2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaboost;
pub mod dataset;
pub mod forest;
pub mod kmeans;
pub mod knn;
pub mod linalg;
pub mod linear;
pub mod metrics;
pub mod nn;
pub mod svm;
pub mod transfer;
pub mod tree;
