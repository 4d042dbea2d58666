//! Edge tasks as the allocator sees them.
//!
//! Definition 1's notion of task ("a set of data, label and its
//! corresponding learning model for a predefined context") lives in the
//! `buildings`/`learn` crates; here a task is reduced to what allocation
//! needs: its shippable input size, its execution-time and resource demands
//! (the `t_j`, `v_j` of Eqs. 3-4), and — once estimated — its importance
//! `I_j`.

use edgesim::node::DeviceModel;
use std::fmt;
use std::sync::Arc;

/// Identifier of a task within a [`crate::tatim::TatimInstance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task-{}", self.0)
    }
}

/// A task ready for allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeTask {
    id: TaskId,
    /// Shared, so a re-priced copy allocates nothing.
    name: Arc<str>,
    /// Input payload shipped to whichever worker runs the task, bits.
    input_bits: f64,
    /// Abstract resource demand `v_j` (Eq. 4).
    resource_demand: f64,
    /// Estimated importance `I_j ∈ [0, 1]`.
    importance: f64,
}

/// Error constructing an [`EdgeTask`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaskError {
    field: &'static str,
    value: f64,
}

impl fmt::Display for TaskError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task field `{}` must be finite and non-negative, got {}", self.field, self.value)
    }
}

impl std::error::Error for TaskError {}

impl EdgeTask {
    /// Creates a task.
    ///
    /// # Errors
    ///
    /// [`TaskError`] when any numeric field is negative or non-finite, or
    /// importance exceeds 1.
    pub fn new(
        id: TaskId,
        name: impl Into<String>,
        input_bits: f64,
        resource_demand: f64,
        importance: f64,
    ) -> Result<Self, TaskError> {
        for (field, value) in [("input_bits", input_bits), ("resource_demand", resource_demand)] {
            if !(value.is_finite() && value >= 0.0) {
                return Err(TaskError { field, value });
            }
        }
        Self { id, name: Arc::from(name.into()), input_bits, resource_demand, importance: 0.0 }
            .with_importance(importance)
    }

    /// The task id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Human-readable context name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input payload, bits.
    pub fn input_bits(&self) -> f64 {
        self.input_bits
    }

    /// Resource demand `v_j`.
    pub fn resource_demand(&self) -> f64 {
        self.resource_demand
    }

    /// Importance estimate `I_j`.
    pub fn importance(&self) -> f64 {
        self.importance
    }

    /// Returns a copy with a revised importance (importance estimates are
    /// time-varying; tasks otherwise are not).
    ///
    /// # Errors
    ///
    /// [`TaskError`] when `importance` is outside `[0, 1]`.
    pub fn with_importance(&self, importance: f64) -> Result<Self, TaskError> {
        if !(0.0..=1.0).contains(&importance) {
            return Err(TaskError { field: "importance", value: importance });
        }
        Ok(Self { name: Arc::clone(&self.name), importance, ..*self })
    }

    /// Execution time `t_j` on the *reference processor* (the Raspberry Pi
    /// A+ whose `4.75e-7 s/bit` rate the paper fixes): the canonical
    /// per-task time demand used in the TATIM constraints.
    pub fn reference_time_s(&self) -> f64 {
        DeviceModel::RaspberryPiAPlus.seconds_per_bit() * self.input_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(EdgeTask::new(TaskId(0), "t", -1.0, 0.0, 0.0).is_err());
        assert!(EdgeTask::new(TaskId(0), "t", 0.0, f64::NAN, 0.0).is_err());
        assert!(EdgeTask::new(TaskId(0), "t", 0.0, 0.0, 1.5).is_err());
        assert!(EdgeTask::new(TaskId(0), "t", 1e6, 2.0, 0.7).is_ok());
    }

    #[test]
    fn accessors() {
        let t = EdgeTask::new(TaskId(3), "b0/c1/band2", 1e6, 2.0, 0.7).unwrap();
        assert_eq!(t.id(), TaskId(3));
        assert_eq!(t.name(), "b0/c1/band2");
        assert_eq!(t.input_bits(), 1e6);
        assert_eq!(t.resource_demand(), 2.0);
        assert_eq!(t.importance(), 0.7);
    }

    #[test]
    fn reference_time_uses_paper_constant() {
        let t = EdgeTask::new(TaskId(0), "t", 1e6, 0.0, 0.0).unwrap();
        assert!((t.reference_time_s() - 4.75e-7 * 1e6).abs() < 1e-12);
    }

    #[test]
    fn with_importance_updates_only_importance() {
        let t = EdgeTask::new(TaskId(1), "t", 5.0, 1.0, 0.1).unwrap();
        let u = t.with_importance(0.9).unwrap();
        assert_eq!(u.importance(), 0.9);
        assert_eq!(u.input_bits(), 5.0);
        assert!(Arc::ptr_eq(&t.name, &u.name), "a re-priced task shares its name");
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY] {
            let err = t.with_importance(bad).unwrap_err();
            assert_eq!((err.field, err.value.to_bits()), ("importance", bad.to_bits()));
        }
    }

    #[test]
    fn display() {
        assert_eq!(TaskId(7).to_string(), "task-7");
        let err = EdgeTask::new(TaskId(0), "t", -1.0, 0.0, 0.0).unwrap_err();
        assert!(err.to_string().contains("input_bits"));
    }
}
