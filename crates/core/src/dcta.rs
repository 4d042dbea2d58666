//! DCTA — Data-driven Cooperative Task Allocation (§IV, Eq. 6).
//!
//! The cooperative model combines the general process `F1` (CRL over
//! simulated environment-definition data) with the local process `F2` (a
//! model over scarce real-world data):
//!
//! ```text
//! F(J, X) = w1 · F1(J, C) + w2 · F2(J, R)                       (Eq. 6)
//! ```
//!
//! Both processes score every task — `F1` contributes its binary allocation
//! decision, `F2` its logistic selection score — and the weighted sum is a
//! *fractional* allocation preference. A task the general process estimates
//! to matter nothing scores `0`: TATIM maximises importance, so running it
//! adds only time. This module is that scorer and nothing else. The
//! pipeline selects by the scores like every importance-driven method (a
//! knapsack packing with the scores as profits, so only tasks that score
//! run) and then places the selection with the one shared placer,
//! [`crate::tatim::place`].

use crate::crl_alloc::CrlOutcome;
use crate::local::{LocalError, LocalProcess};
use crate::tatim::TatimInstance;
use rl::crl::CrlError;
use std::fmt;

/// Error returned by the DCTA scorer.
#[derive(Debug, Clone, PartialEq)]
pub enum DctaError {
    /// The general process's outcome does not fit the instance.
    Crl(CrlError),
    /// Local-process failure.
    Local(LocalError),
    /// Feature row count differs from the task count.
    FeatureCount {
        /// Tasks in the instance.
        tasks: usize,
        /// Feature rows supplied.
        rows: usize,
    },
    /// Weights must be non-negative and not both zero.
    BadWeights {
        /// Supplied `w1`.
        w1: f64,
        /// Supplied `w2`.
        w2: f64,
    },
}

impl fmt::Display for DctaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DctaError::Crl(e) => write!(f, "general process failed: {e}"),
            DctaError::Local(e) => write!(f, "local process failed: {e}"),
            DctaError::FeatureCount { tasks, rows } => {
                write!(f, "{rows} feature rows for {tasks} tasks")
            }
            DctaError::BadWeights { w1, w2 } => {
                write!(f, "invalid cooperative weights ({w1}, {w2})")
            }
        }
    }
}

impl std::error::Error for DctaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DctaError::Crl(e) => Some(e),
            DctaError::Local(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CrlError> for DctaError {
    fn from(e: CrlError) -> Self {
        DctaError::Crl(e)
    }
}

impl From<LocalError> for DctaError {
    fn from(e: LocalError) -> Self {
        DctaError::Local(e)
    }
}

/// The cooperative step of Eq. 6: the local process `F2` and the weights.
///
/// It owns no general process. The caller runs its one [`CrlAllocator`]
/// and hands the outcome to [`Self::scores`], so CRL and DCTA share every
/// trained agent and the allocator itself is immutable — `&self` serves the
/// batch pipeline and the concurrent core alike.
///
/// [`CrlAllocator`]: crate::crl_alloc::CrlAllocator
#[derive(Debug)]
pub struct DctaAllocator {
    local: LocalProcess,
    w1: f64,
    w2: f64,
}

impl DctaAllocator {
    /// Combines a trained local process with the general process's
    /// outcomes under weights `(w1, w2)`.
    ///
    /// # Errors
    ///
    /// [`DctaError::BadWeights`] unless both weights are non-negative,
    /// finite, and at least one is positive.
    pub fn new(local: LocalProcess, w1: f64, w2: f64) -> Result<Self, DctaError> {
        let ok = |w: f64| w.is_finite() && w >= 0.0;
        if !(ok(w1) && ok(w2)) || w1 + w2 <= 0.0 {
            return Err(DctaError::BadWeights { w1, w2 });
        }
        Ok(Self { local, w1, w2 })
    }

    /// The cooperative weights `(w1, w2)`.
    pub fn weights(&self) -> (f64, f64) {
        (self.w1, self.w2)
    }

    /// The combined per-task scores `w1·F1 + w2·F2` (normalised by
    /// `w1 + w2`) for `instance`, and `0` for a task the general process
    /// estimates at `0`. `general` is the general process's outcome for the
    /// day, over the same instance; `local_rows` holds one Table-I feature
    /// vector per task, fed to the local process.
    ///
    /// # Errors
    ///
    /// [`DctaError::FeatureCount`] when `local_rows` does not cover every
    /// task, [`CrlError::Shape`] when `general` does not; otherwise see
    /// [`DctaError`] variants.
    pub fn scores(
        &self,
        instance: &TatimInstance,
        general: &CrlOutcome,
        local_rows: &[Vec<f64>],
    ) -> Result<Vec<f64>, DctaError> {
        let n = instance.num_tasks();
        if local_rows.len() != n {
            return Err(DctaError::FeatureCount { tasks: n, rows: local_rows.len() });
        }
        if general.allocation.len() != n || general.estimated_importances.len() != n {
            return Err(CrlError::Shape.into());
        }
        let norm = self.w1 + self.w2;
        local_rows
            .iter()
            .enumerate()
            .map(|(j, row)| {
                let f1 = f64::from(general.allocation.processor_of(j).is_some());
                let f2 = self.local.selection_score(row)?;
                let score = (self.w1 * f1 + self.w2 * f2) / norm;
                Ok(if general.estimated_importances[j] > 0.0 { score } else { 0.0 })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::Allocation;
    use crate::crl_alloc::CrlAllocator;
    use crate::local::LocalModelKind;
    use crate::processor::{Processor, ProcessorFleet};
    use crate::task::{EdgeTask, TaskId};
    use crate::tatim::{place, SolverKind};
    use edgesim::node::NodeId;
    use rl::crl::CrlConfig;
    use rl::dqn::DqnConfig;

    fn instance(n: usize, limit: f64) -> TatimInstance {
        let tasks = (0..n)
            .map(|i| {
                EdgeTask::new(TaskId(i), format!("t{i}"), (1.0 + i as f64 * 0.2) * 1e6, 1.0, 0.0)
                    .unwrap()
            })
            .collect();
        let fleet = ProcessorFleet::new(
            vec![
                Processor { node: NodeId(1), capacity: 10.0, seconds_per_bit: 4.75e-7 },
                Processor { node: NodeId(2), capacity: 10.0, seconds_per_bit: 2.4e-7 },
            ],
            limit,
        )
        .unwrap();
        TatimInstance::new(tasks, fleet)
    }

    /// Local process trained so tasks with feature-0 > 0.5 are selected.
    fn local() -> LocalProcess {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 10) as f64 / 10.0]).collect();
        let labels: Vec<f64> = rows.iter().map(|r| if r[0] > 0.5 { 1.0 } else { -1.0 }).collect();
        LocalProcess::train(rows, labels, LocalModelKind::Svm, 0).unwrap()
    }

    /// The general process's outcome for `inst` after a short training
    /// that favours task `important`.
    fn general(inst: &TatimInstance, important: usize) -> CrlOutcome {
        let n = inst.num_tasks();
        let mut alloc = CrlAllocator::new(CrlConfig {
            episodes: 40,
            dqn: DqnConfig { hidden: vec![32], ..DqnConfig::default() },
            ..CrlConfig::default()
        });
        let mut imp = vec![0.05; n];
        imp[important] = 0.9;
        for d in 0..3 {
            alloc.observe(vec![d as f64 * 0.1], imp.clone()).unwrap();
        }
        alloc.allocate(inst, &[0.0]).unwrap()
    }

    /// What the pipeline does with DCTA's scores: a greedy packing with
    /// the scores as profits, then the shared placer.
    fn select(inst: &TatimInstance, scores: &[f64]) -> Allocation {
        place(inst, &inst.with_importances(scores).solve(&SolverKind::Greedy).unwrap().allocation)
    }

    #[test]
    fn weights_validated() {
        assert!(matches!(
            DctaAllocator::new(local(), -1.0, 1.0),
            Err(DctaError::BadWeights { .. })
        ));
        assert!(matches!(DctaAllocator::new(local(), 0.0, 0.0), Err(DctaError::BadWeights { .. })));
        assert!(DctaAllocator::new(local(), 0.5, 0.5).is_ok());
    }

    #[test]
    fn combines_both_processes() {
        let n = 4;
        let inst = instance(n, 1.0);
        let dcta = DctaAllocator::new(local(), 0.5, 0.5).unwrap();
        // Local features favour task 3 (feature 0.9), CRL favours task 1.
        let rows: Vec<Vec<f64>> = vec![vec![0.1], vec![0.2], vec![0.3], vec![0.9]];
        let scores = dcta.scores(&inst, &general(&inst, 1), &rows).unwrap();
        assert_eq!(scores.len(), n);
        // Task 3 gets local support; task 1 general support — both should
        // outscore task 0 which neither process likes.
        assert!(scores[3] > scores[0]);
        assert!(scores[1] > scores[0]);
        assert!(select(&inst, &scores).is_feasible(inst.tasks(), inst.fleet()));
    }

    #[test]
    fn a_task_the_general_process_rates_zero_is_never_allocated() {
        let n = 4;
        let inst = instance(n, 10.0);
        let dcta = DctaAllocator::new(local(), 0.5, 0.5).unwrap();
        // Every task fits, the general process allocates every one, and the
        // local process rates task 2 highest; only its estimate is zero.
        let general = CrlOutcome {
            allocation: Allocation::from_placement(vec![Some(0); n]),
            estimated_importances: vec![0.4, 0.2, 0.0, 0.1],
            cache_hit: true,
        };
        for rows in [vec![vec![0.1], vec![0.2], vec![0.95], vec![0.3]], vec![vec![0.9]; n]] {
            let scores = dcta.scores(&inst, &general, &rows).unwrap();
            assert_eq!(scores[2], 0.0);
            let allocation = select(&inst, &scores);
            assert_eq!(allocation.processor_of(2), None);
            for j in [0, 1, 3] {
                assert!(allocation.processor_of(j).is_some(), "task {j}");
            }
        }
    }

    #[test]
    fn feature_count_checked() {
        let inst = instance(3, 1.0);
        let dcta = DctaAllocator::new(local(), 1.0, 1.0).unwrap();
        let blank = |n| CrlOutcome {
            allocation: Allocation::empty(n),
            estimated_importances: vec![0.0; n],
            cache_hit: true,
        };
        assert!(matches!(
            dcta.scores(&inst, &blank(3), &[vec![0.1]]),
            Err(DctaError::FeatureCount { tasks: 3, rows: 1 })
        ));
        // A general outcome over another instance is rejected, not indexed.
        let rows = vec![vec![0.1]; 3];
        assert!(matches!(
            dcta.scores(&inst, &blank(2), &rows),
            Err(DctaError::Crl(CrlError::Shape))
        ));
    }

    #[test]
    fn pure_local_weighting_follows_svm() {
        let n = 4;
        let inst = instance(n, 0.6);
        // w1 = 0: the SVM alone decides the selection priority.
        let dcta = DctaAllocator::new(local(), 0.0, 1.0).unwrap();
        let rows: Vec<Vec<f64>> = vec![vec![0.0], vec![0.95], vec![0.1], vec![0.2]];
        let scores = dcta.scores(&inst, &general(&inst, 0), &rows).unwrap();
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(scores[1], max);
        assert!(select(&inst, &scores).processor_of(1).is_some());
    }
}
