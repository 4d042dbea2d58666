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
use learn::nn::PrefixRow;
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
    /// `N·M` selection entries do not fit the `u32` indices a state hands
    /// out.
    TooLarge,
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
            SpecError::TooLarge => write!(f, "tasks × processors exceeds u32 state indices"),
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
///
/// The encoded state is kept in place: the ascending indices of the
/// selection matrix's ones, and a dense tail — the environment matrix
/// (built once, with the environment), the normalised residual budgets and
/// the cursor one-hot. An assignment inserts one index and rewrites its
/// processor's two residual entries; an advance moves the cursor entry.
#[derive(Debug, Clone, PartialEq)]
pub struct AllocEnv {
    spec: AllocSpec,
    /// Assignment of each task (`None` = unassigned).
    assignment: Vec<Option<usize>>,
    unassigned: usize,
    /// Residual time per processor.
    residual_time: Vec<f64>,
    /// Residual resource per processor.
    residual_resource: Vec<f64>,
    /// Processor currently being filled.
    cursor: usize,
    done: bool,
    /// Ascending `j·M + p` of the selection matrix's ones.
    ones: Vec<u32>,
    /// Every state entry after the selection matrix.
    tail: Vec<f64>,
}

impl AllocEnv {
    /// Creates an environment for `spec`.
    ///
    /// # Errors
    ///
    /// Propagates [`SpecError`] from validation; [`SpecError::TooLarge`]
    /// when the selection matrix's `N·M` entries do not fit `u32` indices.
    pub fn new(spec: AllocSpec) -> Result<Self, SpecError> {
        spec.validate()?;
        let (n, m) = (spec.num_tasks(), spec.num_processors());
        if n.checked_mul(m).is_none_or(|nm| u32::try_from(nm).is_err()) {
            return Err(SpecError::TooLarge);
        }
        // Environment matrix e = [I_j × V_p], normalised by max capacity.
        let max_capacity = spec.capacities.iter().copied().fold(0.0f64, f64::max).max(1e-12);
        let mut tail = Vec::with_capacity(Self::state_dim_for(n, m) - n * m);
        for &i in &spec.importances {
            for &v in &spec.capacities {
                tail.push(i * v / max_capacity);
            }
        }
        tail.resize(tail.len() + 3 * m, 0.0);
        let mut env = Self {
            assignment: vec![None; n],
            unassigned: n,
            residual_time: spec.time_limits.clone(),
            residual_resource: spec.capacities.clone(),
            cursor: 0,
            done: n == 0,
            ones: Vec::new(),
            tail,
            spec,
        };
        env.restart();
        Ok(env)
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

    /// Where the residual-time entries start in the tail; the residual
    /// resources and then the cursor one-hot follow, `M` entries each.
    fn budgets_at(&self) -> usize {
        self.spec.num_tasks() * self.spec.num_processors()
    }

    /// Restores every budget and the cursor, and rewrites their entries.
    fn restart(&mut self) {
        self.assignment.fill(None);
        self.unassigned = self.spec.num_tasks();
        self.residual_time.clone_from(&self.spec.time_limits);
        self.residual_resource.clone_from(&self.spec.capacities);
        self.cursor = 0;
        self.done = self.unassigned == 0;
        self.ones.clear();
        let (at, m) = (self.budgets_at(), self.spec.num_processors());
        for p in 0..m {
            self.write_budgets(p);
        }
        self.tail[at + 2 * m..].fill(0.0);
        self.set_cursor_entry(1.0);
    }

    /// Rewrites processor `p`'s two residual entries, normalised per
    /// processor.
    fn write_budgets(&mut self, p: usize) {
        let (at, m) = (self.budgets_at(), self.spec.num_processors());
        self.tail[at + p] = self.residual_time[p] / self.spec.time_limits[p].max(1e-12);
        self.tail[at + m + p] = self.residual_resource[p] / self.spec.capacities[p].max(1e-12);
    }

    /// Writes `value` into the cursor's one-hot entry, if the episode is
    /// still running (a finished episode has no cursor entry).
    fn set_cursor_entry(&mut self, value: f64) {
        if !self.done {
            let at = self.budgets_at() + 2 * self.spec.num_processors() + self.cursor;
            self.tail[at] = value;
        }
    }

    fn fits(&self, task: usize) -> bool {
        // `&`, not `&&`: three comparisons and no branch.
        self.assignment[task].is_none()
            & (self.spec.times[task] <= self.residual_time[self.cursor] + 1e-12)
            & (self.spec.resources[task] <= self.residual_resource[self.cursor] + 1e-12)
    }

    fn assign(&mut self, task: usize) {
        let p = self.cursor;
        self.assignment[task] = Some(p);
        self.unassigned -= 1;
        self.residual_time[p] -= self.spec.times[task];
        self.residual_resource[p] -= self.spec.resources[task];
        self.write_budgets(p);
        // `new` checked that every `j·M + p` fits.
        let index = (task * self.spec.num_processors() + p) as u32;
        let at = self.ones.partition_point(|&i| i < index);
        self.ones.insert(at, index);
        if self.unassigned == 0 {
            self.set_cursor_entry(0.0);
            self.done = true;
        }
    }

    fn advance_cursor(&mut self) {
        self.set_cursor_entry(0.0);
        self.cursor += 1;
        if self.cursor >= self.spec.num_processors() || self.unassigned == 0 {
            self.done = true;
        }
        self.set_cursor_entry(1.0);
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
        self.restart();
        self.state().to_dense(self.budgets_at())
    }

    /// The selection matrix `S` is the 0/1 block.
    fn state(&self) -> PrefixRow<'_> {
        PrefixRow { ones: &self.ones, tail: &self.tail }
    }

    fn valid_actions(&self) -> Vec<usize> {
        if self.done {
            return Vec::new();
        }
        // Every task is written and only a fitting one kept: no branch on
        // the mask. Advancing is always allowed.
        let n = self.spec.num_tasks();
        let mut valid = vec![n; n + 1];
        let mut kept = 0;
        for j in 0..n {
            valid[kept] = j;
            kept += usize::from(self.fits(j));
        }
        valid[kept] = n;
        valid.truncate(kept + 1);
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
            self.assign(action);
        }
        let reward = if self.done { self.assigned_value() } else { 0.0 };
        Ok(Transition { reward, done: self.done })
    }

    fn is_terminal(&self) -> bool {
        self.done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The state encoded from scratch: the reference the in-place state is
    /// held to.
    fn encode(env: &AllocEnv) -> Vec<f64> {
        let n = env.spec.num_tasks();
        let m = env.spec.num_processors();
        let max_capacity = env.spec.capacities.iter().copied().fold(0.0f64, f64::max).max(1e-12);
        let mut s = Vec::with_capacity(AllocEnv::state_dim_for(n, m));
        // Selection matrix S.
        for j in 0..n {
            for p in 0..m {
                s.push(f64::from(env.assignment[j] == Some(p)));
            }
        }
        // Environment matrix e = [I_j × V_p], normalised by max capacity.
        for &i in &env.spec.importances {
            for &v in &env.spec.capacities {
                s.push(i * v / max_capacity);
            }
        }
        // Residual budgets, normalised per processor.
        for (&t, &limit) in env.residual_time.iter().zip(&env.spec.time_limits) {
            s.push(t / limit.max(1e-12));
        }
        for (&r, &c) in env.residual_resource.iter().zip(&env.spec.capacities) {
            s.push(r / c.max(1e-12));
        }
        // Cursor one-hot.
        for p in 0..m {
            s.push(f64::from(p == env.cursor && !env.done));
        }
        s
    }

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

    /// A random instance on dyadic numbers, so budgets subtract exactly and
    /// can reach `0.0`: zero (and `-0.0`) importances, per-processor
    /// limits, tasks too slow or too big for every processor, and sizes of
    /// zero.
    fn random_spec(rng: &mut rand::rngs::StdRng) -> AllocSpec {
        use rand::Rng;
        let (n, m) = (rng.gen_range(0..9), rng.gen_range(1..5));
        let mut dyadic = |max: u32| f64::from(rng.gen_range(0..=max)) / 4.0;
        AllocSpec {
            importances: (0..n)
                .map(|_| [0.0, -0.0, 0.5, 0.75, 1.0][(dyadic(16) as usize) % 5])
                .collect(),
            times: (0..n).map(|_| dyadic(12)).collect(),
            resources: (0..n).map(|_| dyadic(12)).collect(),
            time_limits: (0..m).map(|_| dyadic(10)).collect(),
            capacities: (0..m).map(|_| dyadic(10)).collect(),
        }
    }

    #[test]
    fn in_place_state_equals_the_encoding_after_every_step() {
        // A property over random instances and random episodes: after
        // `reset` and after every step, the state kept in place, written
        // out densely, equals `encode()` bit for bit, its ones are strictly
        // ascending, and a budget entry that reached exactly `0.0` is `+0.0`
        // and so leaves the gathered input. The run must see every case it
        // exists for; the counts say it did (60 all-assigned endings, the
        // rarest, at this seed).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = StdRng::seed_from_u64(5);
        let (mut all_assigned, mut last_advance, mut zeroed, mut unfit, mut empty) =
            (0, 0, 0, 0, 0);
        for _ in 0..400 {
            let spec = random_spec(&mut rng);
            let (n, m) = (spec.num_tasks(), spec.num_processors());
            let max_limit = spec.time_limits.iter().copied().fold(0.0, f64::max);
            unfit += spec.times.iter().filter(|&&t| t > max_limit).count();
            let mut env = AllocEnv::new(spec).unwrap();
            for _ in 0..3 {
                let reset = env.reset();
                assert_eq!(bits(&reset), bits(&encode(&env)));
                empty += usize::from(env.is_terminal());
                loop {
                    let row = env.state();
                    assert_eq!(bits(&row.to_dense(n * m)), bits(&encode(&env)));
                    assert!(row.ones.windows(2).all(|w| w[0] < w[1]));
                    let mut gathered = Vec::new();
                    learn::linalg::gather_nonzero(0, row.tail, &mut gathered);
                    for (p, budget) in env.residual_time.iter().enumerate() {
                        if *budget == 0.0 && env.spec.time_limits[p] > 0.0 {
                            zeroed += 1;
                            assert_eq!(row.tail[n * m + p].to_bits(), 0f64.to_bits());
                            assert!(gathered.iter().all(|&(c, _)| c != n * m + p));
                        }
                    }
                    if env.is_terminal() {
                        break;
                    }
                    let valid = env.valid_actions();
                    let advance = rng.gen_bool(0.05) || valid.len() == 1;
                    let action = if advance { n } else { valid[rng.gen_range(0..valid.len() - 1)] };
                    if env.step(action).unwrap().done {
                        if env.assignment().iter().all(Option::is_some) {
                            all_assigned += 1;
                        } else {
                            assert_eq!(action, n);
                            last_advance += 1;
                        }
                    }
                }
                assert!(row_has_no_cursor(&env));
            }
        }
        for (case, count) in [
            ("episodes ending all-assigned", all_assigned),
            ("episodes ending by the last advance", last_advance),
            ("budget entries at exactly 0.0", zeroed),
            ("tasks too slow for every processor", unfit),
            ("episodes with no tasks", empty),
        ] {
            assert!(count >= 20, "only {count} {case}");
        }
    }

    /// Whether the cursor's one-hot block is all `+0.0`, as it must be once
    /// an episode is over.
    fn row_has_no_cursor(env: &AllocEnv) -> bool {
        let at = env.budgets_at() + 2 * env.spec.num_processors();
        env.tail[at..].iter().all(|x| x.to_bits() == 0f64.to_bits())
    }

    #[test]
    fn a_selection_matrix_past_u32_indices_is_rejected() {
        // 65 536 × 65 537 = 2³² + 2¹⁶ entries: past `u32`, yet each vector
        // is short. Rejected before any state is allocated.
        let (n, m) = (1 << 16, (1 << 16) + 1);
        let spec = AllocSpec {
            importances: vec![0.5; n],
            times: vec![1.0; n],
            resources: vec![1.0; n],
            time_limits: vec![1.0; m],
            capacities: vec![1.0; m],
        };
        assert_eq!(AllocEnv::new(spec.clone()), Err(SpecError::TooLarge));
        assert!(SpecError::TooLarge.to_string().contains("u32"));
        let fits = AllocSpec { capacities: vec![1.0; 2], time_limits: vec![1.0; 2], ..spec };
        assert!(AllocEnv::new(fits).is_ok());
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
