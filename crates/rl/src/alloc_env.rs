//! The task-allocation MDP of §III-D.
//!
//! * **Environment**: the matrix `e = [I_j × V_p]` of task importances
//!   crossed with processor capacities, fixed for an episode.
//! * **State**: the binary selection matrix `S ∈ {0,1}^{N×M}` (augmented
//!   with normalised residual budgets so the value network can see the
//!   remaining room — the paper's constraints Eq. 3-4 are enforced through
//!   action masking).
//! * **Actions**: following the paper's one-action-per-time-step trick the
//!   agent assigns one task to the *current* processor per step; action `N`
//!   advances to the next processor. This keeps the action space linear
//!   instead of `2^(N×M)`.
//! * **Reward**: zero on intermediate steps; on reaching the terminal state
//!   the summed importance of every assigned task (the TATIM objective).

use crate::mdp::{Environment, StepError, Transition};
use std::fmt;

/// A TATIM instance as the RL layer sees it: task demands, importances, and
/// processor budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocSpec {
    /// Task importances `I_j ∈ [0, 1]`.
    pub importances: Vec<f64>,
    /// Task execution times `t_j`.
    pub times: Vec<f64>,
    /// Task resource demands `v_j`.
    pub resources: Vec<f64>,
    /// Per-processor time limits `T` (Eq. 3); all equal in the paper,
    /// heterogeneous under the §VII budget-constraint extension.
    pub time_limits: Vec<f64>,
    /// Per-processor resource capacities `V_p` (Eq. 4).
    pub capacities: Vec<f64>,
}

/// Error validating an [`AllocSpec`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// Task vectors disagree in length.
    RaggedTasks,
    /// No processors.
    NoProcessors,
    /// A negative or non-finite number was supplied.
    BadValue,
    /// `time_limits` and `capacities` differ in length.
    RaggedLimits,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::RaggedTasks => write!(f, "task vectors have inconsistent lengths"),
            SpecError::NoProcessors => write!(f, "spec has no processors"),
            SpecError::BadValue => write!(f, "spec contains a negative or non-finite value"),
            SpecError::RaggedLimits => {
                write!(f, "time-limit count differs from the processor count")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl AllocSpec {
    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// See [`SpecError`] variants.
    pub fn validate(&self) -> Result<(), SpecError> {
        let n = self.importances.len();
        if self.times.len() != n || self.resources.len() != n {
            return Err(SpecError::RaggedTasks);
        }
        if self.capacities.is_empty() {
            return Err(SpecError::NoProcessors);
        }
        let ok = |v: f64| v.is_finite() && v >= 0.0;
        let all_ok = self
            .importances
            .iter()
            .chain(&self.times)
            .chain(&self.resources)
            .chain(&self.capacities)
            .chain(&self.time_limits)
            .all(|&v| ok(v));
        if !all_ok {
            return Err(SpecError::BadValue);
        }
        if self.time_limits.len() != self.capacities.len() {
            return Err(SpecError::RaggedLimits);
        }
        Ok(())
    }

    /// Number of tasks `N`.
    pub fn num_tasks(&self) -> usize {
        self.importances.len()
    }

    /// Number of processors `M`.
    pub fn num_processors(&self) -> usize {
        self.capacities.len()
    }

    /// The environment matrix `e = [I_j × V_p]`, row-major `N × M`.
    pub fn environment_matrix(&self) -> Vec<f64> {
        let mut e = Vec::with_capacity(self.num_tasks() * self.num_processors());
        for &i in &self.importances {
            for &v in &self.capacities {
                e.push(i * v);
            }
        }
        e
    }
}

/// The allocation environment (one episode = one allocation round).
#[derive(Debug, Clone, PartialEq)]
pub struct AllocEnv {
    spec: AllocSpec,
    /// Assignment of each task (`None` = unassigned).
    assignment: Vec<Option<usize>>,
    /// Residual time per processor.
    residual_time: Vec<f64>,
    /// Residual resource per processor.
    residual_resource: Vec<f64>,
    /// Processor currently being filled.
    cursor: usize,
    done: bool,
    /// Normalisation constants frozen at construction.
    max_capacity: f64,
}

impl AllocEnv {
    /// Creates an environment for `spec`.
    ///
    /// # Errors
    ///
    /// Propagates [`SpecError`] from validation.
    pub fn new(spec: AllocSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        let max_capacity = spec.capacities.iter().copied().fold(0.0f64, f64::max).max(1e-12);
        Ok(Self {
            assignment: vec![None; spec.num_tasks()],
            residual_time: spec.time_limits.clone(),
            residual_resource: spec.capacities.clone(),
            cursor: 0,
            done: spec.num_tasks() == 0,
            max_capacity,
            spec,
        })
    }

    /// The instance being allocated.
    pub fn spec(&self) -> &AllocSpec {
        &self.spec
    }

    /// The current task→processor assignment.
    pub fn assignment(&self) -> &[Option<usize>] {
        &self.assignment
    }

    /// Summed importance of assigned tasks — the episode's terminal reward.
    pub fn assigned_value(&self) -> f64 {
        self.assignment
            .iter()
            .enumerate()
            .filter_map(|(j, a)| a.map(|_| self.spec.importances[j]))
            .sum()
    }

    /// The state-vector length for a given geometry, exposed so agents can
    /// be constructed before an environment exists.
    pub fn state_dim_for(num_tasks: usize, num_processors: usize) -> usize {
        // selection matrix + environment matrix + residual time + residual
        // resource + one-hot cursor.
        2 * num_tasks * num_processors + 3 * num_processors
    }

    /// The action-space size for a geometry (`N` assignments + advance).
    pub fn num_actions_for(num_tasks: usize) -> usize {
        num_tasks + 1
    }

    fn encode(&self) -> Vec<f64> {
        let n = self.spec.num_tasks();
        let m = self.spec.num_processors();
        let mut s = Vec::with_capacity(Self::state_dim_for(n, m));
        // Selection matrix S.
        for j in 0..n {
            for p in 0..m {
                s.push(f64::from(self.assignment[j] == Some(p)));
            }
        }
        // Environment matrix e = [I_j × V_p], normalised by max capacity.
        for &i in &self.spec.importances {
            for &v in &self.spec.capacities {
                s.push(i * v / self.max_capacity);
            }
        }
        // Residual budgets, normalised per processor.
        for (&t, &limit) in self.residual_time.iter().zip(&self.spec.time_limits) {
            s.push(t / limit.max(1e-12));
        }
        for (&r, &c) in self.residual_resource.iter().zip(&self.spec.capacities) {
            s.push(r / c.max(1e-12));
        }
        // Cursor one-hot.
        for p in 0..m {
            s.push(f64::from(p == self.cursor && !self.done));
        }
        s
    }

    fn fits(&self, task: usize) -> bool {
        self.assignment[task].is_none()
            && self.spec.times[task] <= self.residual_time[self.cursor] + 1e-12
            && self.spec.resources[task] <= self.residual_resource[self.cursor] + 1e-12
    }

    fn advance_cursor(&mut self) {
        self.cursor += 1;
        if self.cursor >= self.spec.num_processors() || self.assignment.iter().all(Option::is_some)
        {
            self.done = true;
        }
    }
}

impl Environment for AllocEnv {
    fn num_actions(&self) -> usize {
        Self::num_actions_for(self.spec.num_tasks())
    }

    fn state_dim(&self) -> usize {
        Self::state_dim_for(self.spec.num_tasks(), self.spec.num_processors())
    }

    fn reset(&mut self) -> Vec<f64> {
        self.assignment.iter_mut().for_each(|a| *a = None);
        self.residual_time.clone_from(&self.spec.time_limits);
        self.residual_resource.clone_from(&self.spec.capacities);
        self.cursor = 0;
        self.done = self.spec.num_tasks() == 0;
        self.encode()
    }

    fn valid_actions(&self) -> Vec<usize> {
        if self.done {
            return Vec::new();
        }
        let n = self.spec.num_tasks();
        let mut valid: Vec<usize> = (0..n).filter(|&j| self.fits(j)).collect();
        valid.push(n); // advancing is always allowed
        valid
    }

    fn step(&mut self, action: usize) -> Result<Transition, StepError> {
        if self.done {
            return Err(StepError::EpisodeOver);
        }
        let n = self.spec.num_tasks();
        if action > n {
            return Err(StepError::UnknownAction { action, num_actions: n + 1 });
        }
        if action == n {
            self.advance_cursor();
        } else {
            if !self.fits(action) {
                return Err(StepError::InvalidAction { action });
            }
            self.assignment[action] = Some(self.cursor);
            self.residual_time[self.cursor] -= self.spec.times[action];
            self.residual_resource[self.cursor] -= self.spec.resources[action];
            if self.assignment.iter().all(Option::is_some) {
                self.done = true;
            }
        }
        let reward = if self.done { self.assigned_value() } else { 0.0 };
        Ok(Transition { state: self.encode(), reward, done: self.done })
    }

    fn is_terminal(&self) -> bool {
        self.done
    }

    /// The selection matrix `S` leads the encoding.
    fn binary_prefix(&self) -> usize {
        self.spec.num_tasks() * self.spec.num_processors()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> AllocSpec {
        AllocSpec {
            importances: vec![0.9, 0.5, 0.1],
            times: vec![2.0, 2.0, 2.0],
            resources: vec![1.0, 1.0, 1.0],
            time_limits: vec![2.0; 2],
            capacities: vec![1.0, 1.0],
        }
    }

    #[test]
    fn validation() {
        assert!(spec().validate().is_ok());
        let mut s = spec();
        s.times.pop();
        assert_eq!(s.validate(), Err(SpecError::RaggedTasks));
        let mut s = spec();
        s.capacities.clear();
        assert_eq!(s.validate(), Err(SpecError::NoProcessors));
        let mut s = spec();
        s.importances[0] = -0.1;
        assert_eq!(s.validate(), Err(SpecError::BadValue));
        let mut s = spec();
        s.time_limits[1] = f64::NAN;
        assert_eq!(s.validate(), Err(SpecError::BadValue));
    }

    #[test]
    fn environment_matrix_is_outer_product() {
        let s = AllocSpec {
            importances: vec![0.5, 1.0],
            times: vec![1.0, 1.0],
            resources: vec![0.0, 0.0],
            time_limits: vec![1.0; 2],
            capacities: vec![2.0, 4.0],
        };
        assert_eq!(s.environment_matrix(), vec![1.0, 2.0, 2.0, 4.0]);
    }

    #[test]
    fn geometry_helpers_match_instance() {
        let mut env = AllocEnv::new(spec()).unwrap();
        assert_eq!(env.state_dim(), AllocEnv::state_dim_for(3, 2));
        assert_eq!(env.num_actions(), AllocEnv::num_actions_for(3));
        assert_eq!(env.reset().len(), env.state_dim());
    }

    #[test]
    fn full_episode_collects_terminal_reward() {
        let mut env = AllocEnv::new(spec()).unwrap();
        env.reset();
        // Each processor fits exactly one task (time limit 2, tasks cost 2).
        let t1 = env.step(0).unwrap(); // task 0 -> proc 0
        assert_eq!(t1.reward, 0.0);
        assert!(!t1.done);
        // Task 1 no longer fits proc 0 (time exhausted): advance.
        assert_eq!(env.valid_actions(), vec![3]);
        env.step(3).unwrap();
        let t2 = env.step(1).unwrap(); // task 1 -> proc 1
                                       // Advancing past the last processor terminates.
        assert_eq!(env.valid_actions(), vec![3]);
        let t3 = env.step(3).unwrap();
        assert!(t3.done);
        assert!((t3.reward - 1.4).abs() < 1e-12, "reward {}", t3.reward);
        assert_eq!(env.assignment(), &[Some(0), Some(1), None]);
        let _ = t2;
    }

    #[test]
    fn assigning_every_task_terminates_early() {
        let s = AllocSpec {
            importances: vec![0.3, 0.7],
            times: vec![1.0, 1.0],
            resources: vec![1.0, 1.0],
            time_limits: vec![10.0],
            capacities: vec![10.0],
        };
        let mut env = AllocEnv::new(s).unwrap();
        env.reset();
        env.step(0).unwrap();
        let t = env.step(1).unwrap();
        assert!(t.done);
        assert!((t.reward - 1.0).abs() < 1e-12);
    }

    #[test]
    fn masking_respects_both_constraints() {
        let s = AllocSpec {
            importances: vec![0.5, 0.5],
            times: vec![1.0, 5.0],     // task 1 too slow
            resources: vec![9.0, 1.0], // task 0 too big
            time_limits: vec![2.0],
            capacities: vec![2.0],
        };
        let mut env = AllocEnv::new(s).unwrap();
        env.reset();
        // Neither task fits: only advance (action 2) is valid.
        assert_eq!(env.valid_actions(), vec![2]);
        assert!(matches!(env.step(0), Err(StepError::InvalidAction { action: 0 })));
    }

    #[test]
    fn reset_restores_budgets() {
        let mut env = AllocEnv::new(spec()).unwrap();
        env.reset();
        env.step(0).unwrap();
        let s = env.reset();
        assert_eq!(env.assignment(), &[None, None, None]);
        assert!(!env.is_terminal());
        // The residual-time block (after 2 * 3 * 2 matrix entries) is all 1.
        let off = 12;
        assert_eq!(&s[off..off + 2], &[1.0, 1.0]);
    }

    #[test]
    fn empty_task_list_is_immediately_terminal() {
        let s = AllocSpec {
            importances: vec![],
            times: vec![],
            resources: vec![],
            time_limits: vec![1.0],
            capacities: vec![1.0],
        };
        let mut env = AllocEnv::new(s).unwrap();
        env.reset();
        assert!(env.is_terminal());
        assert!(env.valid_actions().is_empty());
        assert!(matches!(env.step(0), Err(StepError::EpisodeOver)));
    }

    #[test]
    fn unknown_action_rejected() {
        let mut env = AllocEnv::new(spec()).unwrap();
        env.reset();
        assert!(matches!(env.step(9), Err(StepError::UnknownAction { action: 9, num_actions: 4 })));
    }

    #[test]
    fn binary_prefix_is_the_selection_matrix_along_random_episodes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let mut env = AllocEnv::new(spec()).unwrap();
        assert_eq!(env.binary_prefix(), 3 * 2);
        for _ in 0..20 {
            let mut state = env.reset();
            loop {
                let block = &state[..env.binary_prefix()];
                assert!(block.iter().all(|&x| x.to_bits() == 0f64.to_bits() || x == 1.0));
                let assigned = env.assignment().iter().flatten().count();
                assert_eq!(block.iter().filter(|&&x| x == 1.0).count(), assigned);
                if env.is_terminal() {
                    break;
                }
                let valid = env.valid_actions();
                state = env.step(valid[rng.gen_range(0..valid.len())]).unwrap().state;
            }
        }
    }

    #[test]
    fn assigned_value_tracks_importances() {
        let mut env = AllocEnv::new(spec()).unwrap();
        env.reset();
        assert_eq!(env.assigned_value(), 0.0);
        env.step(1).unwrap();
        assert!((env.assigned_value() - 0.5).abs() < 1e-12);
    }
}

#[cfg(test)]
mod heterogeneous_tests {
    use super::*;
    use crate::mdp::Environment;

    fn hetero_spec() -> AllocSpec {
        AllocSpec {
            importances: vec![0.5, 0.5, 0.5],
            times: vec![1.0, 1.0, 1.0],
            resources: vec![0.0, 0.0, 0.0],
            // Processor 0 fits one task, processor 1 fits two (SVII's
            // "powerful edge node").
            time_limits: vec![1.0, 2.0],
            capacities: vec![5.0, 5.0],
        }
    }

    #[test]
    fn per_processor_limits_bound_masking() {
        let mut env = AllocEnv::new(hetero_spec()).unwrap();
        env.reset();
        env.step(0).unwrap(); // task 0 -> proc 0 (now full)
        assert_eq!(env.valid_actions(), vec![3], "proc 0 must be exhausted");
        env.step(3).unwrap(); // advance to proc 1
        env.step(1).unwrap(); // fits
        env.step(2).unwrap(); // fits too: limit 2.0
        assert!(env.is_terminal());
        assert_eq!(env.assigned_value(), 1.5);
    }

    #[test]
    fn ragged_limits_rejected() {
        let mut spec = hetero_spec();
        spec.time_limits = vec![1.0];
        assert_eq!(spec.validate(), Err(SpecError::RaggedLimits));
        let mut spec = hetero_spec();
        spec.time_limits = vec![1.0, f64::NAN];
        assert_eq!(spec.validate(), Err(SpecError::BadValue));
    }

    #[test]
    fn reset_restores_heterogeneous_budgets() {
        let mut env = AllocEnv::new(hetero_spec()).unwrap();
        env.reset();
        env.step(0).unwrap();
        env.reset();
        // After reset, proc 0 fits a task again.
        assert!(env.valid_actions().contains(&0));
        env.step(0).unwrap();
    }
}
