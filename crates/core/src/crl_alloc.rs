//! The general process `F1`: Clustered Reinforcement Learning over TATIM
//! instances (bridging [`rl::crl`] to core types).

use crate::allocation::Allocation;
use crate::tatim::TatimInstance;
use rl::crl::{Crl, CrlAllocation, CrlConfig, CrlError, EnvironmentRecord, EnvironmentStore};

/// CRL allocator over [`TatimInstance`]s.
///
/// Holds the historical environment store and one agent per environment;
/// see [`rl::crl::Crl`] for the Algorithm 1 machinery and the contract that
/// makes every method but [`Self::observe`] `&self`: an agent is a function
/// of the seed, its context and the geometry bound once, never of which
/// request trained it.
#[derive(Debug)]
pub struct CrlAllocator {
    crl: Crl,
}

/// Outcome of one CRL allocation over a TATIM instance.
#[derive(Debug, Clone, PartialEq)]
pub struct CrlOutcome {
    /// The allocation.
    pub allocation: Allocation,
    /// The clustered importance estimate used.
    pub estimated_importances: Vec<f64>,
    /// Whether a cached agent served the request.
    pub cache_hit: bool,
}

impl CrlAllocator {
    /// Creates an allocator with an empty environment store.
    pub fn new(config: CrlConfig) -> Self {
        Self::with_store(EnvironmentStore::new(), config)
    }

    /// Creates an allocator over a pre-populated store.
    pub fn with_store(store: EnvironmentStore, config: CrlConfig) -> Self {
        Self { crl: Crl::new(store, config) }
    }

    /// Records a historical `(sensing signature, importance vector)` pair.
    /// Agents whose environment the new record leaves bit-identical are
    /// kept ([`rl::crl::Crl::observe`]).
    ///
    /// # Errors
    ///
    /// Propagates shape validation.
    pub fn observe(&mut self, signature: Vec<f64>, importances: Vec<f64>) -> Result<(), CrlError> {
        self.crl.observe(EnvironmentRecord { signature, importances })
    }

    /// Number of stored environments.
    pub fn store_len(&self) -> usize {
        self.crl.store().len()
    }

    /// Number of agents trained so far.
    pub fn cached_agents(&self) -> usize {
        self.crl.cached_agents()
    }

    /// The underlying CRL — exposes environment definition, geometry
    /// binding and per-key agents (Q-value serving reads them).
    pub fn shared(&self) -> &Crl {
        &self.crl
    }

    /// Trains an agent for every environment the store can produce, in
    /// parallel, so later [`Self::allocate`] calls are pure cache hits.
    /// Returns the number of agents trained now. It moves work, not
    /// answers ([`rl::crl::Crl::pretrain`]).
    ///
    /// # Errors
    ///
    /// Propagates [`CrlError`].
    pub fn pretrain(&self, instance: &TatimInstance) -> Result<usize, CrlError> {
        self.crl.pretrain(&instance.to_alloc_spec())
    }

    /// Allocates `instance` for the context described by `signature`,
    /// training the context's agent (race-free) on first touch. The
    /// instance's own importances are ignored — CRL substitutes its
    /// clustered estimate, which is the whole point of the method.
    ///
    /// # Errors
    ///
    /// Propagates [`CrlError`].
    pub fn allocate(
        &self,
        instance: &TatimInstance,
        signature: &[f64],
    ) -> Result<CrlOutcome, CrlError> {
        let CrlAllocation { assignment, estimated_importances, cache_hit, .. } =
            self.crl.allocate(signature, &instance.to_alloc_spec())?;
        Ok(CrlOutcome {
            allocation: Allocation::from_placement(assignment),
            estimated_importances,
            cache_hit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::{Processor, ProcessorFleet};
    use crate::task::{EdgeTask, TaskId};
    use edgesim::node::NodeId;
    use rl::dqn::DqnConfig;

    fn instance(n: usize) -> TatimInstance {
        let tasks = (0..n)
            .map(|i| EdgeTask::new(TaskId(i), format!("t{i}"), 1e6, 1.0, 0.0).unwrap())
            .collect();
        let fleet = ProcessorFleet::new(
            vec![
                Processor { node: NodeId(1), capacity: 1.0, seconds_per_bit: 4.75e-7 },
                Processor { node: NodeId(2), capacity: 1.0, seconds_per_bit: 2.4e-7 },
            ],
            0.5, // one 1 Mb task per processor
        )
        .unwrap();
        TatimInstance::new(tasks, fleet)
    }

    fn config() -> CrlConfig {
        CrlConfig {
            episodes: 150,
            dqn: DqnConfig { hidden: vec![32], epsilon_decay: 0.98, ..DqnConfig::default() },
            ..CrlConfig::default()
        }
    }

    #[test]
    fn allocates_important_tasks_per_context() {
        let n = 4;
        let mut alloc = CrlAllocator::new(config());
        let mut imp_a = vec![0.05; n];
        imp_a[1] = 0.9;
        for d in 0..4 {
            alloc.observe(vec![d as f64 * 0.1], imp_a.clone()).unwrap();
        }
        assert_eq!(alloc.store_len(), 4);
        let out = alloc.allocate(&instance(n), &[0.0]).unwrap();
        assert!(out.allocation.processor_of(1).is_some(), "{:?}", out.allocation);
        assert!(out.estimated_importances[1] > 0.8);
        assert!(!out.cache_hit);
        assert_eq!(alloc.cached_agents(), 1);
        // Second call on the same context reuses the agent.
        let again = alloc.allocate(&instance(n), &[0.05]).unwrap();
        assert!(again.cache_hit);
    }

    #[test]
    fn allocation_respects_feasibility() {
        let n = 5;
        let mut alloc = CrlAllocator::new(config());
        alloc.observe(vec![0.0], vec![0.5; n]).unwrap();
        let inst = instance(n);
        let out = alloc.allocate(&inst, &[0.0]).unwrap();
        // The env masks infeasible placements, so the result must satisfy
        // Eqs. 2-4.
        assert!(
            out.allocation.is_feasible(inst.tasks(), inst.fleet()),
            "{:?}",
            out.allocation.check(inst.tasks(), inst.fleet())
        );
        // Time limit fits one task per processor: at most 2 scheduled.
        assert!(out.allocation.scheduled_count() <= 2);
    }

    #[test]
    fn empty_store_errors() {
        let alloc = CrlAllocator::new(config());
        assert!(matches!(alloc.allocate(&instance(3), &[0.0]), Err(CrlError::EmptyStore)));
    }

    #[test]
    fn pretrain_then_allocate_hits_cache() {
        let n = 4;
        let mut alloc = CrlAllocator::new(CrlConfig { episodes: 10, ..config() });
        let mut imp = vec![0.05; n];
        imp[1] = 0.9;
        for d in 0..3 {
            alloc.observe(vec![d as f64 * 0.1], imp.clone()).unwrap();
        }
        let inst = instance(n);
        let trained = alloc.pretrain(&inst).unwrap();
        assert!(trained >= 1);
        assert_eq!(alloc.cached_agents(), trained);
        assert!(alloc.allocate(&inst, &[0.0]).unwrap().cache_hit);
    }
}
