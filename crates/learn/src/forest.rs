//! Random forest over bootstrap-resampled [`RegressionTree`]s.
//!
//! One of the three candidate local-process models of §IV-B (the paper
//! selects SVM after comparing accuracy; the `local-model` experiment in the
//! bench harness reproduces that comparison).

use crate::dataset::Dataset;
use crate::tree::{RegressionTree, TreeConfig, TreeError};
use rand::Rng;
use std::fmt;

/// Error returned by forest training or prediction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForestError {
    /// Training set was empty.
    EmptyDataset,
    /// Zero trees requested.
    ZeroTrees,
    /// Wrong feature arity at predict time.
    ArityMismatch {
        /// Arity the forest was trained with.
        expected: usize,
        /// Arity supplied.
        got: usize,
    },
}

impl fmt::Display for ForestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForestError::EmptyDataset => write!(f, "cannot train a forest on an empty dataset"),
            ForestError::ZeroTrees => write!(f, "forest needs at least one tree"),
            ForestError::ArityMismatch { expected, got } => {
                write!(f, "forest expects {expected} features, got {got}")
            }
        }
    }
}

impl std::error::Error for ForestError {}

impl From<TreeError> for ForestError {
    fn from(e: TreeError) -> Self {
        match e {
            TreeError::EmptyDataset => ForestError::EmptyDataset,
            TreeError::ArityMismatch { expected, got } => {
                ForestError::ArityMismatch { expected, got }
            }
        }
    }
}

/// Hyper-parameters for [`RandomForest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForestConfig {
    /// Number of bootstrap trees.
    pub num_trees: usize,
    /// Per-tree growth limits. When `max_features` is `None` here, the
    /// forest substitutes `ceil(sqrt(d))`, the usual forest default.
    pub tree: TreeConfig,
}

impl Default for ForestConfig {
    fn default() -> Self {
        Self { num_trees: 25, tree: TreeConfig::default() }
    }
}

/// A trained random forest regressor (classify via the sign of
/// [`RandomForest::predict`], which is majority vote for `±1` targets).
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<RegressionTree>,
    arity: usize,
}

impl RandomForest {
    /// Trains `config.num_trees` trees on bootstrap resamples of `data`.
    ///
    /// # Errors
    ///
    /// [`ForestError::EmptyDataset`] / [`ForestError::ZeroTrees`] on invalid
    /// input.
    pub fn fit(
        data: &Dataset,
        config: ForestConfig,
        rng: &mut impl Rng,
    ) -> Result<Self, ForestError> {
        if data.is_empty() {
            return Err(ForestError::EmptyDataset);
        }
        if config.num_trees == 0 {
            return Err(ForestError::ZeroTrees);
        }
        let d = data.num_features();
        let mut tree_cfg = config.tree;
        if tree_cfg.max_features.is_none() {
            tree_cfg.max_features = Some((d as f64).sqrt().ceil() as usize);
        }
        let mut trees = Vec::with_capacity(config.num_trees);
        for _ in 0..config.num_trees {
            let (sample, _oob) = data.bootstrap(rng);
            trees.push(RegressionTree::fit(&sample, tree_cfg, rng)?);
        }
        Ok(Self { trees, arity: d })
    }

    /// Number of trees in the ensemble.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    /// Mean prediction of all trees.
    ///
    /// # Errors
    ///
    /// [`ForestError::ArityMismatch`] when `x` has the wrong length.
    pub fn predict(&self, x: &[f64]) -> Result<f64, ForestError> {
        if x.len() != self.arity {
            return Err(ForestError::ArityMismatch { expected: self.arity, got: x.len() });
        }
        let mut sum = 0.0;
        for t in &self.trees {
            sum += t.predict(x)?;
        }
        Ok(sum / self.trees.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::accuracy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor_like(n: usize, seed: u64) -> Dataset {
        // Nonlinear target a single linear model cannot express.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..n {
            let a = rng.gen_range(-1.0..1.0f64);
            let b = rng.gen_range(-1.0..1.0f64);
            rows.push(vec![a, b]);
            ys.push(if (a > 0.0) ^ (b > 0.0) { 1.0 } else { -1.0 });
        }
        Dataset::from_rows(rows, ys).unwrap()
    }

    /// `±1` predictions: the sign of the ensemble mean.
    fn classify(forest: &RandomForest, ds: &Dataset) -> Vec<f64> {
        (0..ds.len())
            .map(|i| if forest.predict(ds.features().row(i)).unwrap() >= 0.0 { 1.0 } else { -1.0 })
            .collect()
    }

    #[test]
    fn learns_xor_pattern() {
        let ds = xor_like(300, 8);
        let mut rng = StdRng::seed_from_u64(9);
        let forest = RandomForest::fit(&ds, ForestConfig::default(), &mut rng).unwrap();
        assert!(accuracy(&classify(&forest, &ds), ds.targets()).unwrap() > 0.9);
    }

    #[test]
    fn more_trees_do_not_hurt() {
        let ds = xor_like(200, 10);
        let mut rng = StdRng::seed_from_u64(11);
        let small =
            RandomForest::fit(&ds, ForestConfig { num_trees: 1, ..Default::default() }, &mut rng)
                .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let big =
            RandomForest::fit(&ds, ForestConfig { num_trees: 50, ..Default::default() }, &mut rng)
                .unwrap();
        let acc = |f: &RandomForest| accuracy(&classify(f, &ds), ds.targets()).unwrap();
        assert!(acc(&big) >= acc(&small) - 0.05);
        assert_eq!(big.num_trees(), 50);
    }

    #[test]
    fn regression_mean_is_bounded_by_targets() {
        let ds = Dataset::from_rows(
            vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let forest = RandomForest::fit(&ds, ForestConfig::default(), &mut rng).unwrap();
        let p = forest.predict(&[1.5]).unwrap();
        assert!((1.0..=4.0).contains(&p));
    }

    #[test]
    fn errors() {
        let mut rng = StdRng::seed_from_u64(0);
        let empty = xor_like(10, 0).subset(&[]);
        assert!(matches!(
            RandomForest::fit(&empty, ForestConfig::default(), &mut rng),
            Err(ForestError::EmptyDataset)
        ));
        let ds = xor_like(10, 0);
        assert!(matches!(
            RandomForest::fit(&ds, ForestConfig { num_trees: 0, ..Default::default() }, &mut rng),
            Err(ForestError::ZeroTrees)
        ));
        let forest = RandomForest::fit(&ds, ForestConfig::default(), &mut rng).unwrap();
        assert!(matches!(
            forest.predict(&[1.0]),
            Err(ForestError::ArityMismatch { expected: 2, got: 1 })
        ));
    }
}
