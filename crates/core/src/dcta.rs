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
//! adds only time. The final binary matrix `u` is the feasible projection
//! of those preferences: a knapsack packing that uses the combined score as
//! profit, and so selects only tasks that score, followed by a speed-aware
//! placement that sends the heaviest selected tasks to the fastest
//! processors (the paper's "more important tasks to more powerful edge
//! devices").

use crate::allocation::Allocation;
use crate::crl_alloc::CrlOutcome;
use crate::local::{LocalError, LocalProcess};
use crate::tatim::{SolverKind, TatimError, TatimInstance};
use rl::crl::CrlError;
use std::fmt;

/// Error returned by DCTA allocation.
#[derive(Debug, Clone, PartialEq)]
pub enum DctaError {
    /// The general process's outcome does not fit the instance.
    Crl(CrlError),
    /// Local-process failure.
    Local(LocalError),
    /// Knapsack projection failure.
    Tatim(TatimError),
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
            DctaError::Tatim(e) => write!(f, "projection failed: {e}"),
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
            DctaError::Tatim(e) => Some(e),
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

impl From<TatimError> for DctaError {
    fn from(e: TatimError) -> Self {
        DctaError::Tatim(e)
    }
}

/// Outcome of one DCTA allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct DctaOutcome {
    /// The final feasible allocation.
    pub allocation: Allocation,
    /// Combined per-task scores `w1·F1 + w2·F2`, and `0` for a task the
    /// general process estimates at `0`.
    pub combined_scores: Vec<f64>,
    /// The general process's raw outcome.
    pub crl: CrlOutcome,
}

/// The cooperative step of Eq. 6: the local process `F2` and the weights.
///
/// It owns no general process. The caller runs its one [`CrlAllocator`]
/// and hands the outcome to [`Self::allocate`], so CRL and DCTA share every
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

    /// Allocates `instance` from `general` — the general process's outcome
    /// for the day, over the same instance — and `local_rows` (one Table-I
    /// feature vector per task, fed to the local process).
    ///
    /// # Errors
    ///
    /// [`DctaError::FeatureCount`] when `local_rows` does not cover every
    /// task, [`CrlError::Shape`] when `general` does not; otherwise see
    /// [`DctaError`] variants.
    pub fn allocate(
        &self,
        instance: &TatimInstance,
        general: CrlOutcome,
        local_rows: &[Vec<f64>],
    ) -> Result<DctaOutcome, DctaError> {
        let n = instance.num_tasks();
        if local_rows.len() != n {
            return Err(DctaError::FeatureCount { tasks: n, rows: local_rows.len() });
        }
        if general.allocation.len() != n || general.estimated_importances.len() != n {
            return Err(CrlError::Shape.into());
        }
        // F1 contributes its binary allocation decision, F2 its selection
        // score; a task the general process estimates at zero importance
        // scores nothing, so the projection leaves it out.
        let mut combined = Vec::with_capacity(n);
        let norm = self.w1 + self.w2;
        for (j, row) in local_rows.iter().enumerate() {
            let f1 = f64::from(general.allocation.processor_of(j).is_some());
            let f2 = self.local.selection_score(row)?;
            let score = (self.w1 * f1 + self.w2 * f2) / norm;
            combined.push(if general.estimated_importances[j] > 0.0 { score } else { 0.0 });
        }
        // Feasible projection: knapsack with combined scores as profits…
        let scored = instance.with_importances(&combined);
        let packed = scored.solve(&SolverKind::Greedy)?.allocation;
        // …then speed-aware placement of the selected set: heaviest tasks
        // onto the fastest processors, respecting both budgets.
        let allocation = speed_aware_placement(instance, &packed);
        Ok(DctaOutcome { allocation, combined_scores: combined, crl: general })
    }
}

/// Re-places the selected tasks (those `packed` scheduled) heaviest-first
/// onto processors in fastest-first order, subject to Eqs. 3-4; tasks that
/// no longer fit anywhere are dropped. Keeps the *selection* of `packed`
/// while improving the *placement* for execution time.
fn speed_aware_placement(instance: &TatimInstance, packed: &Allocation) -> Allocation {
    let fleet = instance.fleet();
    let m = fleet.len();
    let mut order: Vec<usize> =
        (0..instance.num_tasks()).filter(|&j| packed.processor_of(j).is_some()).collect();
    // Sizes are validated finite and non-negative and rates are finite, so
    // no key is NaN, and `+ 0.0` folds −0.0 into +0.0: `total_cmp` orders
    // them as `partial_cmp` would, and the stable sorts keep ties in index
    // order.
    let size = |j: usize| instance.tasks()[j].input_bits() + 0.0;
    order.sort_by(|&a, &b| size(b).total_cmp(&size(a)));
    let rate = |p: usize| fleet.processors()[p].seconds_per_bit + 0.0;
    let mut speed_order: Vec<usize> = (0..m).collect();
    speed_order.sort_by(|&a, &b| rate(a).total_cmp(&rate(b)));
    let mut time = vec![0.0; m];
    let mut resource = vec![0.0; m];
    let mut alloc = Allocation::empty(instance.num_tasks());
    for j in order {
        let t = &instance.tasks()[j];
        // Fastest processor (by actual execution time including queue) that
        // satisfies the reference-time and resource budgets.
        let mut best: Option<(usize, f64)> = None;
        for &p in &speed_order {
            if time[p] + t.reference_time_s() > fleet.time_limit_of(p) + 1e-9
                || resource[p] + t.resource_demand() > fleet.processors()[p].capacity + 1e-9
            {
                continue;
            }
            let finish = (time[p] + t.reference_time_s())
                * (fleet.processors()[p].seconds_per_bit
                    / fleet.processors()[speed_order[0]].seconds_per_bit);
            if best.is_none_or(|(_, b)| finish < b) {
                best = Some((p, finish));
            }
        }
        if let Some((p, _)) = best {
            time[p] += t.reference_time_s();
            resource[p] += t.resource_demand();
            alloc.assign(j, Some(p));
        }
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crl_alloc::CrlAllocator;
    use crate::local::LocalModelKind;
    use crate::processor::{Processor, ProcessorFleet};
    use crate::task::{EdgeTask, TaskId};
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
        let out = dcta.allocate(&inst, general(&inst, 1), &rows).unwrap();
        assert_eq!(out.combined_scores.len(), n);
        // Task 3 gets local support; task 1 general support — both should
        // outscore task 0 which neither process likes.
        assert!(out.combined_scores[3] > out.combined_scores[0]);
        assert!(out.combined_scores[1] > out.combined_scores[0]);
        assert!(out.allocation.is_feasible(inst.tasks(), inst.fleet()));
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
            let out = dcta.allocate(&inst, general.clone(), &rows).unwrap();
            assert_eq!(out.combined_scores[2], 0.0);
            assert_eq!(out.allocation.processor_of(2), None);
            for j in [0, 1, 3] {
                assert!(out.allocation.processor_of(j).is_some(), "task {j}");
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
            dcta.allocate(&inst, blank(3), &[vec![0.1]]),
            Err(DctaError::FeatureCount { tasks: 3, rows: 1 })
        ));
        // A general outcome over another instance is rejected, not indexed.
        let rows = vec![vec![0.1]; 3];
        assert!(matches!(
            dcta.allocate(&inst, blank(2), &rows),
            Err(DctaError::Crl(CrlError::Shape))
        ));
    }

    #[test]
    fn speed_aware_placement_prefers_fast_processor() {
        let inst = instance(2, 10.0);
        let packed = Allocation::from_placement(vec![Some(0), Some(0)]);
        let placed = speed_aware_placement(&inst, &packed);
        // Both tasks fit anywhere; the heaviest (task 1) must land on the
        // fast processor column 1.
        assert_eq!(placed.processor_of(1), Some(1));
        assert_eq!(placed.scheduled_count(), 2);
    }

    #[test]
    fn speed_aware_placement_respects_budgets() {
        // Time limit fits one reference task per processor.
        let inst = instance(3, 0.6);
        let packed = Allocation::from_placement(vec![Some(0), Some(0), Some(1)]);
        let placed = speed_aware_placement(&inst, &packed);
        assert!(placed.is_feasible(inst.tasks(), inst.fleet()));
        assert!(placed.scheduled_count() <= 2);
    }

    #[test]
    fn pure_local_weighting_follows_svm() {
        let n = 4;
        let inst = instance(n, 0.6);
        // w1 = 0: the SVM alone decides the selection priority.
        let dcta = DctaAllocator::new(local(), 0.0, 1.0).unwrap();
        let rows: Vec<Vec<f64>> = vec![vec![0.0], vec![0.95], vec![0.1], vec![0.2]];
        let out = dcta.allocate(&inst, general(&inst, 0), &rows).unwrap();
        let max = out.combined_scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(out.combined_scores[1], max);
        assert!(out.allocation.processor_of(1).is_some());
    }
}
