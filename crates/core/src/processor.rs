//! Processors: the TATIM view of worker nodes.
//!
//! Eq. (3) gives every processor the same time limit `T`; Eq. (4) gives each
//! its own resource capacity `V_p`. A [`ProcessorFleet`] snapshots the
//! workers of an [`edgesim::cluster::Cluster`] into that form and remembers
//! which node each processor column maps back to.

use edgesim::cluster::Cluster;
use edgesim::node::NodeId;
use std::fmt;

/// One TATIM processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Processor {
    /// Backing simulator node.
    pub node: NodeId,
    /// Resource capacity `V_p`.
    pub capacity: f64,
    /// Compute rate, seconds per bit (heterogeneity the allocators exploit).
    pub seconds_per_bit: f64,
}

/// The processor set `P` plus per-processor time limits.
///
/// Eq. (3) of the paper uses one shared limit `T`; the Discussion (§VII)
/// notes that heterogeneous budgets ("the case where powerful edge nodes
/// are available ... by changing the budget constraints") are a direct
/// extension — [`ProcessorFleet::with_time_limits`] provides it.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorFleet {
    processors: Vec<Processor>,
    time_limits_s: Vec<f64>,
}

/// Error constructing a fleet.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// No worker processors.
    Empty,
    /// The time limit is not positive and finite.
    BadTimeLimit {
        /// Offending value.
        time_limit_s: f64,
    },
    /// Per-processor limit count differs from the processor count.
    LimitCount {
        /// Processors supplied.
        processors: usize,
        /// Limits supplied.
        limits: usize,
    },
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Empty => write!(f, "fleet has no processors"),
            FleetError::BadTimeLimit { time_limit_s } => {
                write!(f, "time limit must be positive and finite, got {time_limit_s}")
            }
            FleetError::LimitCount { processors, limits } => {
                write!(f, "{limits} time limits for {processors} processors")
            }
        }
    }
}

impl std::error::Error for FleetError {}

impl ProcessorFleet {
    /// Builds a fleet from explicit processors.
    ///
    /// # Errors
    ///
    /// See [`FleetError`] variants.
    pub fn new(processors: Vec<Processor>, time_limit_s: f64) -> Result<Self, FleetError> {
        let n = processors.len();
        Self::with_time_limits(processors, vec![time_limit_s; n])
    }

    /// Builds a fleet with heterogeneous per-processor time limits — the
    /// §VII budget-constraint extension.
    ///
    /// # Errors
    ///
    /// See [`FleetError`] variants.
    pub fn with_time_limits(
        processors: Vec<Processor>,
        time_limits_s: Vec<f64>,
    ) -> Result<Self, FleetError> {
        if processors.is_empty() {
            return Err(FleetError::Empty);
        }
        if time_limits_s.len() != processors.len() {
            return Err(FleetError::LimitCount {
                processors: processors.len(),
                limits: time_limits_s.len(),
            });
        }
        if let Some(&bad) = time_limits_s.iter().find(|&&t| !(t.is_finite() && t > 0.0)) {
            return Err(FleetError::BadTimeLimit { time_limit_s: bad });
        }
        Ok(Self { processors, time_limits_s })
    }

    /// Snapshots a cluster's workers under a shared time limit.
    ///
    /// # Errors
    ///
    /// See [`FleetError`] variants.
    pub fn from_cluster(cluster: &Cluster, time_limit_s: f64) -> Result<Self, FleetError> {
        let processors = cluster
            .workers()
            .map(|n| Processor {
                node: n.id(),
                capacity: n.capacity(),
                seconds_per_bit: n.model().seconds_per_bit(),
            })
            .collect();
        Self::new(processors, time_limit_s)
    }

    /// The processors, in column order.
    pub fn processors(&self) -> &[Processor] {
        &self.processors
    }

    /// Number of processors `M`.
    pub fn len(&self) -> usize {
        self.processors.len()
    }

    /// `true` when the fleet is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.processors.is_empty()
    }

    /// The shared time limit `T` when uniform; for heterogeneous fleets the
    /// *minimum* per-processor limit (the conservative value the RL path
    /// uses — see [`crate::tatim::TatimInstance::to_alloc_spec`]).
    pub fn time_limit_s(&self) -> f64 {
        self.time_limits_s.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Time limit of processor column `p` (Eq. 3's `T`, per §VII
    /// heterogeneous when built via [`ProcessorFleet::with_time_limits`]).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of bounds.
    pub fn time_limit_of(&self, p: usize) -> f64 {
        self.time_limits_s[p]
    }

    /// Per-processor capacities `V_p` in column order.
    pub fn capacities(&self) -> Vec<f64> {
        self.processors.iter().map(|p| p.capacity).collect()
    }

    /// The simulator node behind processor column `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of bounds.
    pub fn node_of(&self, p: usize) -> NodeId {
        self.processors[p].node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_cluster_excludes_controller() {
        let cluster = Cluster::paper_testbed().unwrap();
        let fleet = ProcessorFleet::from_cluster(&cluster, 10.0).unwrap();
        assert_eq!(fleet.len(), 9);
        assert!(
            (0..fleet.len()).all(|p| fleet.node_of(p) != NodeId(0)),
            "controller must not be a processor"
        );
        assert_eq!(fleet.time_limit_s(), 10.0);
    }

    #[test]
    fn columns_name_distinct_nodes() {
        let cluster = Cluster::paper_testbed().unwrap();
        let fleet = ProcessorFleet::from_cluster(&cluster, 5.0).unwrap();
        let mut nodes: Vec<NodeId> = (0..fleet.len()).map(|p| fleet.node_of(p)).collect();
        nodes.sort();
        nodes.dedup();
        assert_eq!(nodes.len(), fleet.len());
    }

    #[test]
    fn capacities_match_nodes() {
        let cluster = Cluster::paper_testbed().unwrap();
        let fleet = ProcessorFleet::from_cluster(&cluster, 5.0).unwrap();
        let caps = fleet.capacities();
        assert_eq!(caps.len(), 9);
        for (p, cap) in fleet.processors().iter().zip(&caps) {
            assert_eq!(cluster.node(p.node).unwrap().capacity(), *cap);
        }
    }

    #[test]
    fn validation() {
        assert!(matches!(ProcessorFleet::new(vec![], 1.0), Err(FleetError::Empty)));
        let p = Processor { node: NodeId(1), capacity: 1.0, seconds_per_bit: 1e-7 };
        assert!(matches!(ProcessorFleet::new(vec![p], 0.0), Err(FleetError::BadTimeLimit { .. })));
        assert!(matches!(
            ProcessorFleet::new(vec![p], f64::INFINITY),
            Err(FleetError::BadTimeLimit { .. })
        ));
    }
}

#[cfg(test)]
mod heterogeneous_tests {
    use super::*;

    fn procs(n: usize) -> Vec<Processor> {
        (0..n)
            .map(|i| Processor { node: NodeId(i + 1), capacity: 4.0, seconds_per_bit: 4.75e-7 })
            .collect()
    }

    #[test]
    fn heterogeneous_limits_round_trip() {
        let fleet = ProcessorFleet::with_time_limits(procs(3), vec![1.0, 5.0, 2.0]).unwrap();
        assert_eq!(fleet.time_limit_of(0), 1.0);
        assert_eq!(fleet.time_limit_of(1), 5.0);
        // The shared view is the conservative minimum.
        assert_eq!(fleet.time_limit_s(), 1.0);
    }

    #[test]
    fn limit_count_validated() {
        assert!(matches!(
            ProcessorFleet::with_time_limits(procs(3), vec![1.0, 2.0]),
            Err(FleetError::LimitCount { processors: 3, limits: 2 })
        ));
        assert!(matches!(
            ProcessorFleet::with_time_limits(procs(2), vec![1.0, -1.0]),
            Err(FleetError::BadTimeLimit { .. })
        ));
    }
}
