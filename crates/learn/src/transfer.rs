//! Multi-task transfer learning (MTL) over per-task ridge models.
//!
//! The paper defines a *task* as "a set of data, label and its corresponding
//! learning model for a predefined context" (§II-A) — e.g. COP prediction of
//! one chiller under one load band. Its experiment setup (§V-B) names three
//! MTL flavours: **independent** (no sharing), **self-adapted**
//! (similarity-weighted parameter transfer) and **clustered** (transfer
//! within task clusters). [`MtlSystem::fit`] is the self-adapted fit, the
//! one every run uses; `transfer_strength: 0.0` gives the independent one.
//!
//! Parameter transfer uses biased ridge regression: the target task minimises
//! `||y − Xw||² + λ‖w − w₀‖²` where `w₀` is a similarity-weighted blend of
//! source-task parameters. With scarce target data the prior dominates
//! (knowledge flows in); with abundant data the likelihood dominates
//! (tasks stay autonomous) — exactly the data-scarcity remedy the paper
//! attributes to transfer learning.

use crate::dataset::Dataset;
use crate::linalg::{euclidean_distance, Matrix};
use crate::linear::{FitError, LinearModel};
use std::fmt;

/// A single learning task: named context plus its local dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferTask {
    name: String,
    data: Dataset,
}

impl TransferTask {
    /// Creates a task from a context name and its dataset.
    pub fn new(name: impl Into<String>, data: Dataset) -> Self {
        Self { name: name.into(), data }
    }

    /// The task's context name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task's local training data.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// Mean feature vector — the task's *signature* used for similarity.
    pub fn signature(&self) -> Vec<f64> {
        let d = self.data.num_features();
        let mut sig = vec![0.0; d];
        for i in 0..self.data.len() {
            for (s, &x) in sig.iter_mut().zip(self.data.features().row(i)) {
                *s += x;
            }
        }
        let n = self.data.len().max(1) as f64;
        for s in &mut sig {
            *s /= n;
        }
        sig
    }
}

/// Hyper-parameters for [`MtlSystem::fit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MtlConfig {
    /// Ridge penalty of the per-task base fit.
    pub base_lambda: f64,
    /// Strength of the pull toward the transferred prior (λ of the biased
    /// ridge). `0` disables transfer: every task keeps its base fit.
    pub transfer_strength: f64,
    /// RBF bandwidth for signature similarity.
    pub similarity_bandwidth: f64,
}

impl Default for MtlConfig {
    fn default() -> Self {
        Self { base_lambda: 1e-3, transfer_strength: 1.0, similarity_bandwidth: 1.0 }
    }
}

/// Error returned by MTL training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MtlError {
    /// No tasks supplied.
    NoTasks,
    /// Tasks disagree on feature arity.
    MixedArity {
        /// Arity of task 0.
        expected: usize,
        /// Index of the offending task.
        task: usize,
        /// Its arity.
        got: usize,
    },
    /// An underlying per-task fit failed.
    TaskFit {
        /// Index of the failing task.
        task: usize,
        /// The underlying error.
        source: FitError,
    },
}

impl fmt::Display for MtlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MtlError::NoTasks => write!(f, "no tasks supplied"),
            MtlError::MixedArity { expected, task, got } => {
                write!(f, "task {task} has {got} features, expected {expected}")
            }
            MtlError::TaskFit { task, source } => write!(f, "task {task} failed to fit: {source}"),
        }
    }
}

impl std::error::Error for MtlError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MtlError::TaskFit { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A fitted multi-task system: one [`LinearModel`] per task, plus the
/// similarity structure used for transfer.
#[derive(Debug, Clone, PartialEq)]
pub struct MtlSystem {
    models: Vec<LinearModel>,
    names: Vec<String>,
    similarity: Matrix,
    config: MtlConfig,
}

impl MtlSystem {
    /// Fits all tasks under `config`: an independent base fit per task,
    /// then a refit of each biased toward the similarity-weighted blend of
    /// the other tasks' base fits.
    ///
    /// # Errors
    ///
    /// See [`MtlError`] variants.
    pub fn fit(tasks: &[TransferTask], config: MtlConfig) -> Result<Self, MtlError> {
        if tasks.is_empty() {
            return Err(MtlError::NoTasks);
        }
        let arity = tasks[0].data.num_features();
        for (i, t) in tasks.iter().enumerate() {
            if t.data.num_features() != arity {
                return Err(MtlError::MixedArity {
                    expected: arity,
                    task: i,
                    got: t.data.num_features(),
                });
            }
        }

        // Stage 1: independent base fits. Per-task normal equations are
        // independent, so they fan out across the deterministic crew; each
        // task's fit is a pure function of its dataset, keeping results
        // bit-identical to the serial loop at any thread count.
        let base: Vec<LinearModel> = parallel::try_map(tasks.len(), 2, |i| {
            fit_biased_ridge(&tasks[i].data, config.base_lambda, None)
                .map_err(|source| MtlError::TaskFit { task: i, source })
        })?;

        let similarity = signature_similarity(tasks, config.similarity_bandwidth);

        // Stage 2: transfer refits. Every target's prior reads only the
        // (already final) stage-1 models, so refits are likewise
        // independent across tasks.
        let models = if config.transfer_strength <= 0.0 {
            base
        } else {
            parallel::try_map(tasks.len(), 2, |i| match blended_prior(i, &base, &similarity) {
                Some(p) => fit_biased_ridge(&tasks[i].data, config.transfer_strength, Some(&p))
                    .map_err(|source| MtlError::TaskFit { task: i, source }),
                None => Ok(base[i].clone()),
            })?
        };

        Ok(Self {
            models,
            names: tasks.iter().map(|t| t.name.clone()).collect(),
            similarity,
            config,
        })
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// `true` when the system holds no tasks (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The fitted model of task `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn model(&self, i: usize) -> &LinearModel {
        &self.models[i]
    }

    /// All fitted models, task order preserved.
    pub fn models(&self) -> &[LinearModel] {
        &self.models
    }

    /// Task names, order preserved.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Pairwise task-similarity matrix (RBF of signature distance).
    pub fn similarity(&self) -> &Matrix {
        &self.similarity
    }

    /// The configuration used at fit time.
    pub fn config(&self) -> MtlConfig {
        self.config
    }
}

/// Ridge regression optionally biased toward a prior model:
/// minimises `Σ (y − w·x − b)² + λ(‖w − w₀‖² + (b − b₀)²)`.
///
/// With `prior = None` this is ordinary ridge toward zero (intercept
/// unpenalised).
///
/// # Errors
///
/// Mirrors [`crate::linear::RidgeRegression::fit`].
pub fn fit_biased_ridge(
    data: &Dataset,
    lambda: f64,
    prior: Option<&LinearModel>,
) -> Result<LinearModel, FitError> {
    if data.is_empty() {
        return Err(FitError::EmptyDataset);
    }
    let d = data.num_features();
    if let Some(p) = prior {
        if p.weights().len() != d {
            return Err(FitError::ArityMismatch { expected: d, got: p.weights().len() });
        }
    }
    let mut xtx = Matrix::zeros(d + 1, d + 1);
    let mut xty = vec![0.0; d + 1];
    for i in 0..data.len() {
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
        xtx[(a, a)] += lambda;
    }
    // With a prior, penalise the intercept toward the prior intercept too:
    // the prior *is* meaningful there (COP level of the source task).
    // Without one, the intercept stays unpenalised, matching
    // `RidgeRegression`.
    if let Some(p) = prior {
        xtx[(d, d)] += lambda;
        for (a, &pw) in p.weights().iter().enumerate() {
            xty[a] += lambda * pw;
        }
        xty[d] += lambda * p.bias();
    }
    let sol = xtx.solve(&xty).map_err(|_| FitError::Singular)?;
    let (w, b) = sol.split_at(d);
    Ok(LinearModel::from_parts(w.to_vec(), b[0]))
}

fn signature_similarity(tasks: &[TransferTask], bandwidth: f64) -> Matrix {
    let n = tasks.len();
    let sigs: Vec<Vec<f64>> = tasks.iter().map(TransferTask::signature).collect();
    let mut sim = Matrix::zeros(n, n);
    let bw = bandwidth.max(1e-9);
    for i in 0..n {
        for j in 0..n {
            let d = euclidean_distance(&sigs[i], &sigs[j]);
            sim[(i, j)] = (-(d * d) / (2.0 * bw * bw)).exp();
        }
    }
    sim
}

/// Similarity-weighted average of the other tasks' base parameters. `None`
/// when no other task is similar at all.
fn blended_prior(target: usize, base: &[LinearModel], similarity: &Matrix) -> Option<LinearModel> {
    let d = base[target].weights().len();
    let mut w = vec![0.0; d];
    let mut b = 0.0;
    let mut total = 0.0;
    for (j, m) in base.iter().enumerate() {
        if j == target {
            continue;
        }
        let s = similarity[(target, j)];
        if s <= 0.0 {
            continue;
        }
        for (wi, &mw) in w.iter_mut().zip(m.weights()) {
            *wi += s * mw;
        }
        b += s * m.bias();
        total += s;
    }
    if total <= 1e-12 {
        return None;
    }
    for wi in &mut w {
        *wi /= total;
    }
    Some(LinearModel::from_parts(w, b / total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds `n_tasks` related tasks: all share the true weight vector
    /// `[2, -1]`, per-task biases differ slightly; `scarce` tasks get only 3
    /// samples while others get 60.
    fn related_tasks(n_tasks: usize, scarce: &[usize], seed: u64) -> Vec<TransferTask> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_tasks)
            .map(|t| {
                let n = if scarce.contains(&t) { 3 } else { 60 };
                let bias = 0.1 * t as f64;
                let mut rows = Vec::new();
                let mut ys = Vec::new();
                for _ in 0..n {
                    let x = vec![rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)];
                    let y = 2.0 * x[0] - x[1] + bias + 0.3 * rng.gen_range(-1.0..1.0);
                    rows.push(x);
                    ys.push(y);
                }
                TransferTask::new(format!("task-{t}"), Dataset::from_rows(rows, ys).unwrap())
            })
            .collect()
    }

    fn weight_error(m: &LinearModel) -> f64 {
        euclidean_distance(m.weights(), &[2.0, -1.0])
    }

    #[test]
    fn transfer_helps_scarce_task() {
        let tasks = related_tasks(6, &[0], 42);
        let indep =
            MtlSystem::fit(&tasks, MtlConfig { transfer_strength: 0.0, ..MtlConfig::default() })
                .unwrap();
        let shared =
            MtlSystem::fit(&tasks, MtlConfig { transfer_strength: 5.0, ..Default::default() })
                .unwrap();
        // The scarce task's weights should land closer to truth with transfer.
        assert!(
            weight_error(shared.model(0)) < weight_error(indep.model(0)),
            "transfer {} vs independent {}",
            weight_error(shared.model(0)),
            weight_error(indep.model(0))
        );
    }

    #[test]
    fn zero_strength_keeps_the_independent_base_fits() {
        let tasks = related_tasks(4, &[], 7);
        let config = MtlConfig { transfer_strength: 0.0, ..Default::default() };
        let sys = MtlSystem::fit(&tasks, config).unwrap();
        for (m, t) in sys.models().iter().zip(&tasks) {
            assert_eq!(m, &fit_biased_ridge(t.data(), config.base_lambda, None).unwrap());
        }
    }

    #[test]
    fn similarity_limits_transfer_to_the_task_family() {
        // Two families of tasks with very different signatures; the scarce
        // task should borrow only from its own family.
        let mut rng = StdRng::seed_from_u64(3);
        let mut tasks = Vec::new();
        for t in 0..3 {
            // Family A near origin, true w = [1, 0], plenty of data except task 0.
            let n = if t == 0 { 3 } else { 50 };
            let mut rows = Vec::new();
            let mut ys = Vec::new();
            for _ in 0..n {
                let x = vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)];
                ys.push(x[0] + 0.05 * rng.gen_range(-1.0..1.0));
                rows.push(x);
            }
            tasks.push(TransferTask::new(format!("a{t}"), Dataset::from_rows(rows, ys).unwrap()));
        }
        for t in 0..3 {
            // Family B far away, true w = [-1, 0].
            let mut rows = Vec::new();
            let mut ys = Vec::new();
            for _ in 0..50 {
                let x = vec![100.0 + rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)];
                ys.push(-(x[0] - 100.0) + 0.05 * rng.gen_range(-1.0..1.0));
                rows.push(x);
            }
            tasks.push(TransferTask::new(format!("b{t}"), Dataset::from_rows(rows, ys).unwrap()));
        }
        let sys = MtlSystem::fit(
            &tasks,
            MtlConfig { transfer_strength: 5.0, similarity_bandwidth: 5.0, ..Default::default() },
        )
        .unwrap();
        // Task 0's weights should stay near +1 (family A), not be dragged to -1.
        assert!(sys.model(0).weights()[0] > 0.3, "w0 = {:?}", sys.model(0).weights());
    }

    #[test]
    fn biased_ridge_with_huge_lambda_returns_prior() {
        let tasks = related_tasks(1, &[], 9);
        let prior = LinearModel::from_parts(vec![5.0, 5.0], 1.0);
        let m = fit_biased_ridge(tasks[0].data(), 1e9, Some(&prior)).unwrap();
        assert!(euclidean_distance(m.weights(), prior.weights()) < 1e-3);
        assert!((m.bias() - prior.bias()).abs() < 1e-3);
    }

    #[test]
    fn biased_ridge_validates_prior_arity() {
        let tasks = related_tasks(1, &[], 10);
        let prior = LinearModel::from_parts(vec![1.0], 0.0);
        assert!(matches!(
            fit_biased_ridge(tasks[0].data(), 1.0, Some(&prior)),
            Err(FitError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn errors_on_bad_task_sets() {
        assert!(matches!(MtlSystem::fit(&[], MtlConfig::default()), Err(MtlError::NoTasks)));
        let a =
            TransferTask::new("a", Dataset::from_rows(vec![vec![1.0, 2.0]], vec![0.0]).unwrap());
        let b = TransferTask::new("b", Dataset::from_rows(vec![vec![1.0]], vec![0.0]).unwrap());
        assert!(matches!(
            MtlSystem::fit(&[a, b], MtlConfig::default()),
            Err(MtlError::MixedArity { task: 1, .. })
        ));
    }

    #[test]
    fn similarity_matrix_is_symmetric_with_unit_diagonal() {
        let tasks = related_tasks(5, &[], 11);
        let sys = MtlSystem::fit(&tasks, MtlConfig::default()).unwrap();
        let s = sys.similarity();
        for i in 0..5 {
            assert!((s[(i, i)] - 1.0).abs() < 1e-12);
            for j in 0..5 {
                assert!((s[(i, j)] - s[(j, i)]).abs() < 1e-12);
                assert!((0.0..=1.0).contains(&s[(i, j)]));
            }
        }
    }

    #[test]
    fn signature_is_feature_mean() {
        let t = TransferTask::new(
            "t",
            Dataset::from_rows(vec![vec![0.0, 2.0], vec![2.0, 4.0]], vec![0.0, 0.0]).unwrap(),
        );
        assert_eq!(t.signature(), vec![1.0, 3.0]);
    }
}
