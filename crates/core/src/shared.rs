//! A `Send + Sync` prepared pipeline for concurrent serving.
//!
//! [`crate::pipeline::PreparedPipeline`] is a batch artefact: it borrows its
//! scenario, serves one caller through `&mut self`, and can grow its
//! environment store. [`PreparedCore`] is its frozen counterpart for a
//! serving layer: it owns its scenario, every method takes `&self`, and all
//! interior state is thread-safe — the sharded
//! [`crate::cache::ImportanceCache`], the per-key `OnceLock` agent slots of
//! the one CRL allocator ([`Method::Crl`] and [`Method::Dcta`] share its
//! agents, and the first request that needs one trains them all, in
//! parallel), and a per-request seeded RNG for the one stochastic baseline.
//!
//! ## One stack, two faces
//!
//! Both types embed the same prepared state — general process included —
//! and `allocate`, `run`, `execute` and the faulted run are written once
//! over it (in `pipeline.rs`). A face hands that code the two things it
//! does differently, and nothing else differs
//! (`tests/stack_golden.rs::the_faces_differ_in_two_things_only`):
//!
//! | | batch `PreparedPipeline` | frozen `PreparedCore` |
//! |---|---|---|
//! | `RandomMapping` RNG | the pipeline's sequential `StdRng` (`seed ^ 0x51AB`) | a fresh `StdRng` keyed by `(seed, day)` |
//! | availability learning | a [`RecoveryMode::Proactive`](crate::recovery::RecoveryMode::Proactive) round absorbs its failure log and advances the posterior | never: the posterior is read-only |
//!
//! ## Determinism contract
//!
//! For every method except [`Method::RandomMapping`], a `PreparedCore` run
//! is bit-identical to the same [`RunSpec`] on the `PreparedPipeline` it was
//! made from, pretrained or not: a context's agent is a function of the
//! seed, the context and the blind geometry, so neither request order, nor
//! request interleaving, nor the number of serving threads, nor the face
//! whose first touch trained every agent at once can change a single answer
//! bit (DESIGN.md §21). `RandomMapping`'s per-`(seed, day)` draws are
//! as deterministic and interleaving-invariant, but differ from the batch
//! stream's, which depend on how many allocations preceded them — a
//! history no concurrent server can meaningfully reproduce.
//!
//! The frozen core deliberately has no `observe_day`: the accumulating
//! environment store is an offline-phase facility. Re-prepare and re-freeze
//! to fold new days in.

use crate::allocation::Allocation;
use crate::availability::AvailabilityModel;
use crate::baselines::random_mapping;
use crate::cache::CacheStats;
use crate::crl_alloc::CrlAllocator;
use crate::objective::{AllocOutcome, AllocQuery};
use crate::pipeline::{
    DayReport, Face, Method, PipelineConfig, PipelineError, Prepared, RunReport, RunSpec,
};
use crate::processor::ProcessorFleet;
use crate::tatim::TatimInstance;
use buildings::scenario::Scenario;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;

/// The prepared pipeline, frozen for concurrent `&self` serving (see the
/// module docs for the determinism contract). Built by
/// [`crate::pipeline::PreparedPipeline::into_core`].
#[derive(Debug)]
pub struct PreparedCore {
    pub(crate) state: Prepared,
}

/// The frozen face (see the module docs).
struct Frozen;

impl Face for Frozen {
    const LEARNS_AVAILABILITY: bool = false;

    fn random_mapping(&mut self, blind: &TatimInstance, seed: u64, day: usize) -> Allocation {
        let mut rng = StdRng::seed_from_u64(
            seed ^ 0x51AB ^ (day as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        random_mapping(blind, &mut rng)
    }
}

impl PreparedCore {
    /// The per-processor route budget factors of the frozen cluster
    /// (`1.0` everywhere on the uniform star testbed), aligned with
    /// [`Self::fleet`] columns.
    pub fn route_factors(&self) -> &[f64] {
        &self.state.route_factors
    }

    /// The frozen availability posterior [`RecoveryMode::Proactive`] runs
    /// read. Frozen means *read-only*: unlike the batch pipeline, serving
    /// never absorbs failure history, so repeat runs of the same
    /// [`RunSpec`] stay bit-identical regardless of what ran in between.
    /// Re-prepare and re-freeze to fold new observations in.
    ///
    /// [`RecoveryMode::Proactive`]: crate::recovery::RecoveryMode::Proactive
    pub fn availability(&self) -> &AvailabilityModel {
        &self.state.availability
    }

    /// The evaluation (non-history) day range.
    pub fn test_days(&self) -> Range<usize> {
        self.state.test_days()
    }

    /// The scenario under evaluation (owned by the core).
    pub fn scenario(&self) -> &Scenario {
        &self.state.scenario
    }

    /// The pipeline configuration this core was prepared with.
    pub fn config(&self) -> &PipelineConfig {
        &self.state.config
    }

    /// The processor fleet.
    pub fn fleet(&self) -> &ProcessorFleet {
        self.state.fleet()
    }

    /// The general process (per-key agents for Q-value serving).
    pub fn crl(&self) -> &CrlAllocator {
        &self.state.crl
    }

    /// Hit/miss counters of the shared decision-performance cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.state.cache.stats()
    }

    /// True importances of evaluation day `day`.
    ///
    /// # Panics
    ///
    /// Panics if `day` is out of range.
    pub fn true_importances(&self, day: usize) -> &[f64] {
        &self.state.true_importances[day]
    }

    /// The sensing signature of day `day` (the CRL context key).
    ///
    /// # Errors
    ///
    /// [`PipelineError::BadDay`] for out-of-range days.
    pub fn signature_of_day(&self, day: usize) -> Result<&[f64], PipelineError> {
        self.state.check_day(day)?;
        Ok(&self.state.scenario.day(day).sensing)
    }

    /// The blind TATIM instance (no importances priced in) every online
    /// allocator decides over — the geometry the general process's agents
    /// train against.
    pub fn blind_instance(&self) -> TatimInstance {
        self.state.blind.clone()
    }

    /// The TATIM instance of a day, priced with its true importances.
    ///
    /// # Errors
    ///
    /// [`PipelineError::BadDay`] for out-of-range days.
    pub fn instance_for_day(&self, day: usize) -> Result<TatimInstance, PipelineError> {
        self.state.instance_for_day(day)
    }

    /// Produces the allocation described by `query` — the `&self`
    /// counterpart of [`crate::pipeline::PreparedPipeline::allocate`],
    /// with the same typed [`crate::objective::Objective`] semantics.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`] variants.
    pub fn allocate(&self, query: &AllocQuery) -> Result<AllocOutcome, PipelineError> {
        self.state.allocate(&mut Frozen, query)
    }

    /// Executes one evaluation run described by `spec` — the `&self`
    /// counterpart of [`crate::pipeline::PreparedPipeline::run`].
    ///
    /// # Errors
    ///
    /// See [`PipelineError`] variants.
    pub fn run(&self, spec: &RunSpec) -> Result<RunReport, PipelineError> {
        self.state.run(&mut Frozen, spec)
    }

    /// Executes a pre-computed allocation on the simulated testbed.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`] variants.
    pub fn execute(
        &self,
        method: Method,
        day: usize,
        allocation: Allocation,
        allocator_overhead_s: f64,
    ) -> Result<DayReport, PipelineError> {
        self.state.execute(method, day, allocation, allocator_overhead_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{healthy, quick_config, small_scenario};
    use crate::pipeline::Pipeline;
    use crate::recovery::RecoveryMode;
    use edgesim::faults::FaultSchedule;

    #[test]
    fn core_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedCore>();
    }

    #[test]
    fn core_reports_match_pretrained_pipeline_bitwise() {
        let s = small_scenario();
        let mut reference = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let core = Pipeline::new(quick_config()).prepare(&s).unwrap().into_core().unwrap();
        let day = core.test_days().start;
        reference.crl().pretrain(&reference.instance_for_day(day).unwrap()).unwrap();
        // Every deterministic method: bit-identical PT and H.
        for method in
            [Method::Dml, Method::GreedyOracle, Method::ExactOracle, Method::Crl, Method::Dcta]
        {
            let want = healthy(&mut reference, method, day);
            let got = core.run(&RunSpec::new(method, day)).unwrap().into_healthy().unwrap();
            assert_eq!(
                got.processing_time_s.to_bits(),
                want.processing_time_s.to_bits(),
                "{method} PT"
            );
            assert_eq!(
                got.decision_performance.to_bits(),
                want.decision_performance.to_bits(),
                "{method} H"
            );
            assert_eq!(got.allocation, want.allocation, "{method} allocation");
        }
    }

    #[test]
    fn concurrent_runs_are_interleaving_invariant() {
        let s = small_scenario();
        let core = Pipeline::new(quick_config()).prepare(&s).unwrap().into_core().unwrap();
        let days: Vec<usize> = core.test_days().take(3).collect();
        let solo: Vec<DayReport> = days
            .iter()
            .map(|&d| core.run(&RunSpec::new(Method::Dcta, d)).unwrap().into_healthy().unwrap())
            .collect();
        std::thread::scope(|scope| {
            for t in 0..4 {
                let core = &core;
                let solo = &solo;
                let days = &days;
                scope.spawn(move || {
                    let mut order: Vec<usize> = (0..days.len()).collect();
                    if t % 2 == 1 {
                        order.reverse();
                    }
                    for i in order {
                        let got = core
                            .run(&RunSpec::new(Method::Dcta, days[i]))
                            .unwrap()
                            .into_healthy()
                            .unwrap();
                        assert_eq!(got, solo[i], "thread {t} day {}", days[i]);
                    }
                });
            }
        });
    }

    #[test]
    fn faulted_runs_work_through_the_core() {
        let s = small_scenario();
        let core = Pipeline::new(quick_config()).prepare(&s).unwrap().into_core().unwrap();
        let day = core.test_days().start;
        let victim = core.fleet().node_of(0);
        let schedule = FaultSchedule::new().with_crash(victim, 0.2).unwrap();
        let spec = RunSpec::new(Method::Dml, day).with_faults(schedule, RecoveryMode::Resolve);
        let report = core.run(&spec).unwrap().into_faulted().unwrap();
        assert_eq!(report.day, day);
        assert!(report.retained_fraction >= 0.0);
        // Same spec twice: the simulated outcome is bit-identical (the core
        // is stateless per run). `reallocation_latency_s` is measured
        // wall-clock, so `processing_time_s` is excluded by design.
        let again = core.run(&spec).unwrap().into_faulted().unwrap();
        assert_eq!(report.allocation, again.allocation);
        assert_eq!(
            report.simulated_processing_time_s.to_bits(),
            again.simulated_processing_time_s.to_bits()
        );
        assert_eq!(report.decision_performance.to_bits(), again.decision_performance.to_bits());
        assert_eq!(report.delivered_importance.to_bits(), again.delivered_importance.to_bits());
        assert_eq!(report.shed, again.shed);
        assert_eq!(report.lost, again.lost);
        assert_eq!(report.failures, again.failures);
    }

    #[test]
    fn bad_day_rejected() {
        let s = small_scenario();
        let core = Pipeline::new(quick_config()).prepare(&s).unwrap().into_core().unwrap();
        assert!(matches!(
            core.run(&RunSpec::new(Method::Dml, 0)),
            Err(PipelineError::BadDay { .. })
        ));
        assert!(matches!(core.signature_of_day(999), Err(PipelineError::BadDay { .. })));
    }
}
