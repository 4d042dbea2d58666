//! The prepared pipeline: what the offline phase leaves behind, and the one
//! allocate → simulate → recover → score stack over it.
//!
//! [`PreparedCore`] owns its scenario and everything
//! [`crate::pipeline::Pipeline::prepare`] built. `allocate`, `run` and
//! `execute` take `&self` and write nothing a later answer reads, so a run
//! is a function of `(core, spec)`. All interior state is thread-safe — the
//! sharded [`crate::cache::ImportanceCache`] and the per-key `OnceLock` agent
//! slots of the one CRL allocator ([`Method::Crl`] and [`Method::Dcta`] share
//! its agents, and the first request that needs one trains them all, in
//! parallel) — so one core serves any number of request threads.
//!
//! ## Determinism contract
//!
//! A context's agent is a function of the seed, the context and the blind
//! geometry, so neither request order, nor interleaving, nor the number of
//! threads, nor pretraining can change a single answer bit (DESIGN.md §21).
//! [`Method::RandomMapping`] draws from a fresh `StdRng` keyed by
//! `(seed, day)`, so its answers depend on nothing that ran before either.
//!
//! ## Learning
//!
//! Learning is an explicit step after the fact, and the only one that
//! takes `&mut self`: [`PreparedCore::observe_day`] grows the CRL environment
//! store with an evaluation day's observed importances, and
//! [`PreparedCore::observe_faults`] folds a faulted run's failure log into
//! the availability posterior. A caller that learns online runs, then
//! observes.

use crate::allocation::Allocation;
use crate::availability::{proactive_draw_seed, AvailabilityModel};
use crate::baselines::{dml_balanced, random_mapping};
use crate::cache::{CacheStats, ImportanceCache};
use crate::crl_alloc::CrlAllocator;
use crate::dcta::DctaAllocator;
use crate::features::{local_features, TaskHistory};
use crate::importance::{CopModels, ImportanceEvaluator};
use crate::objective::{AllocOutcome, AllocQuery};
use crate::pipeline::{
    DayReport, FaultRunReport, Method, PipelineConfig, PipelineError, RunReport, RunSpec,
    SolveCertificate,
};
use crate::processor::ProcessorFleet;
use crate::recovery::{self, RecoveryMode};
use crate::tatim::{SolverKind, TatimInstance, EXACT_ORACLE_NODE_BUDGET};
use buildings::scenario::Scenario;
use edgesim::cluster::Cluster;
use edgesim::faults::FaultSchedule;
use edgesim::node::NodeId;
use edgesim::run::{
    simulate, simulate_with_faults, simulate_with_faults_biased, RedispatchPrefs, RetryPolicy,
    SimTask,
};
use edgesim::trace::node_exposures;
use knapsack::portfolio::SolveBudget;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::time::Instant;

/// The pipeline after its offline phase: ready to allocate and execute any
/// evaluation day, from any number of threads (see the module docs).
#[derive(Debug)]
pub struct PreparedCore {
    pub(crate) scenario: Scenario,
    pub(crate) config: PipelineConfig,
    pub(crate) models: CopModels,
    pub(crate) cluster: Cluster,
    /// The instance every online allocator decides over: the prepared
    /// tasks and fleet with no importances priced in.
    pub(crate) blind: TatimInstance,
    pub(crate) route_factors: Vec<f64>,
    /// `blind` over the fleet deflated by `route_factors` — what a
    /// route-cost objective solves over.
    pub(crate) blind_routed: TatimInstance,
    pub(crate) true_importances: Vec<Vec<f64>>,
    /// The one general process: [`Method::Crl`]'s allocator, whose outcome
    /// [`Method::Dcta`] feeds to the cooperative step.
    pub(crate) crl: CrlAllocator,
    pub(crate) dcta: DctaAllocator,
    pub(crate) history: TaskHistory,
    pub(crate) cache: ImportanceCache,
    pub(crate) availability: AvailabilityModel,
}

impl PreparedCore {
    /// The evaluation (non-history) day range.
    pub fn test_days(&self) -> Range<usize> {
        self.config.env_history_days..self.scenario.days().len()
    }

    /// The scenario under evaluation (owned by the core).
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The pipeline configuration this core was prepared with.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Mutable cluster access (bandwidth sweeps).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// The processor fleet.
    pub fn fleet(&self) -> &ProcessorFleet {
        self.blind.fleet()
    }

    /// The per-processor route budget factors of the prepared cluster
    /// (`1.0` everywhere on the uniform star testbed), aligned with
    /// [`Self::fleet`] columns.
    pub fn route_factors(&self) -> &[f64] {
        &self.route_factors
    }

    /// The trained COP models.
    pub fn models(&self) -> &CopModels {
        &self.models
    }

    /// The shared decision-performance cache.
    pub fn importance_cache(&self) -> &ImportanceCache {
        &self.cache
    }

    /// Hit/miss counters of the decision-performance cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The learned per-node availability posterior that
    /// [`RecoveryMode::Proactive`] runs read. No run writes it;
    /// [`Self::observe_faults`] does. Interior-mutable: callers may also
    /// [`AvailabilityModel::absorb`] external failure history or persist it
    /// ([`AvailabilityModel::save_file`]) through `&self`.
    pub fn availability(&self) -> &AvailabilityModel {
        &self.availability
    }

    /// The general process (store size, trained agents, per-key agents).
    pub fn crl(&self) -> &CrlAllocator {
        &self.crl
    }

    /// The cooperative step [`Method::Dcta`] applies to the general
    /// process's outcome.
    pub fn dcta(&self) -> &DctaAllocator {
        &self.dcta
    }

    /// True importances of evaluation day `day`.
    ///
    /// # Panics
    ///
    /// Panics if `day` is out of range.
    pub fn true_importances(&self, day: usize) -> &[f64] {
        &self.true_importances[day]
    }

    /// The sensing signature of day `day` (the CRL context key).
    ///
    /// # Errors
    ///
    /// [`PipelineError::BadDay`] for out-of-range days.
    pub fn signature_of_day(&self, day: usize) -> Result<&[f64], PipelineError> {
        self.check_day(day)?;
        Ok(&self.scenario.day(day).sensing)
    }

    /// The blind TATIM instance (no importances priced in) every online
    /// allocator decides over — the geometry the general process's agents
    /// train against.
    pub fn blind_instance(&self) -> TatimInstance {
        self.blind.clone()
    }

    /// The TATIM instance of a day, priced with its true importances.
    ///
    /// # Errors
    ///
    /// [`PipelineError::BadDay`] for out-of-range days.
    pub fn instance_for_day(&self, day: usize) -> Result<TatimInstance, PipelineError> {
        self.check_day(day)?;
        Ok(self.blind.with_importances(&self.true_importances[day]))
    }

    /// The Table-I local feature rows of day `day` (DCTA's `F2` input).
    ///
    /// # Panics
    ///
    /// Panics if `day` is not a scenario day.
    pub fn local_rows(&self, day: usize) -> Vec<Vec<f64>> {
        let ctx = self.scenario.day(day);
        (0..self.blind.num_tasks())
            .map(|j| local_features(&self.scenario, &self.models, &self.history, ctx, j))
            .collect()
    }

    /// Feeds evaluation day `day`'s observed importances back into the CRL
    /// environment store — the accumulating-store behaviour of the paper's
    /// online mode (footnote 2 / §VII): "the environment can change over
    /// time, due to the accumulating size of training data".
    ///
    /// # Errors
    ///
    /// [`PipelineError::BadDay`] for out-of-range days; propagates store
    /// shape errors.
    pub fn observe_day(&mut self, day: usize) -> Result<(), PipelineError> {
        self.check_day(day)?;
        let sensing = self.scenario.day(day).sensing.clone();
        Ok(self.crl.observe(sensing, self.true_importances[day].clone())?)
    }

    /// Teaches the availability posterior what a faulted run saw: the
    /// faulted round's failure log, as per-node exposure over that round's
    /// PT, then one round of decay. A run never learns by itself; callers
    /// that learn online call this after each [`RecoveryMode::Proactive`]
    /// run, and the advance happens even when nothing failed.
    pub fn observe_faults(&mut self, report: &FaultRunReport) {
        let nodes: Vec<NodeId> = self.fleet().processors().iter().map(|p| p.node).collect();
        let horizon = report.faulted_processing_time_s.max(1e-9);
        self.availability.absorb(&node_exposures(&report.failures, &nodes, horizon));
        self.availability.advance_round();
    }

    /// Produces the allocation described by `query`: `query.method()` on
    /// `query.day()`, shaped by the typed [`crate::objective::Objective`] —
    /// importance overrides, survival weighting (the proactive path), and
    /// route-cost budget deflation (the topology-aware path), each
    /// independently optional. A blank objective reproduces the classic
    /// per-method behaviour bit-for-bit; on the uniform star testbed every
    /// route budget factor is exactly `1.0`, so enabling route cost there is
    /// also a bitwise no-op (see [`crate::objective`]).
    ///
    /// # Errors
    ///
    /// [`PipelineError::BadObjective`] for an importance override of the
    /// wrong length or with an entry outside `[0, 1]`; otherwise see
    /// [`PipelineError`] variants.
    pub fn allocate(&self, query: &AllocQuery) -> Result<AllocOutcome, PipelineError> {
        let (method, day) = (query.method(), query.day());
        let obj = query.objective();
        self.check_day(day)?;
        if let Some(overrides) = obj.importances() {
            self.check_overrides(overrides)?;
        }
        let start = Instant::now();
        // Route-cost objective: each processor's Eq.-3 budget is deflated
        // by its route budget factor, so expensive-to-reach processors can
        // host less and every solver mode optimises importance per unit
        // (compute + transfer) without any solver-internal change.
        let blind = if obj.route_cost() { &self.blind_routed } else { &self.blind };
        let mut certificate = None;
        let allocation = if obj.survival() {
            let ctx = self.scenario.day(day);
            // The importance estimates the method would act on; RM/DML
            // carry no per-task signal and fall back to their plain path.
            let estimates: Option<Vec<f64>> = match obj.importances() {
                Some(imp) => Some(imp.to_vec()),
                None => match method {
                    Method::GreedyOracle | Method::ExactOracle => {
                        Some(self.true_importances[day].clone())
                    }
                    Method::Crl => {
                        Some(self.crl.allocate(blind, &ctx.sensing)?.estimated_importances)
                    }
                    Method::Dcta => {
                        let general = self.crl.allocate(blind, &ctx.sensing)?;
                        let rows = self.local_rows(day);
                        Some(self.dcta.allocate(blind, general, &rows)?.combined_scores)
                    }
                    Method::RandomMapping | Method::Dml => None,
                },
            };
            match estimates {
                None => self.plain_allocation(method, day, blind, None, &mut certificate)?,
                Some(mut est) => {
                    for e in &mut est {
                        *e = e.clamp(0.0, 1.0);
                    }
                    let pc = self.config.proactive;
                    let draw_seed = proactive_draw_seed(pc.seed ^ self.config.seed, day as u64);
                    let weights: Vec<f64> = self
                        .fleet()
                        .processors()
                        .iter()
                        .map(|p| {
                            (1.0 - pc.weight)
                                + pc.weight * self.availability.thompson(p.node.0, draw_seed)
                        })
                        .collect();
                    blind
                        .with_importances(&est)
                        .solve(&SolverKind::WeightedGreedy(weights))?
                        .allocation
                }
            }
        } else {
            self.plain_allocation(method, day, blind, obj.importances(), &mut certificate)?
        };
        Ok(AllocOutcome { allocation, overhead_s: start.elapsed().as_secs_f64(), certificate })
    }

    /// Executes one evaluation run described by `spec`. A fault-free spec
    /// yields [`RunReport::Healthy`]; a spec with a schedule yields
    /// [`RunReport::Faulted`] (allocate, run under the schedule, re-plan
    /// per its [`RecoveryMode`]; DESIGN.md §9).
    ///
    /// # Errors
    ///
    /// See [`PipelineError`] variants.
    pub fn run(&self, spec: &RunSpec) -> Result<RunReport, PipelineError> {
        match spec.faults() {
            None => {
                let (method, day) = (spec.method(), spec.day());
                let query = AllocQuery::new(method, day).with_objective(spec.objective().clone());
                let out = self.allocate(&query)?;
                let mut report = self.execute(method, day, out.allocation, out.overhead_s)?;
                report.solver = out.certificate;
                Ok(RunReport::Healthy(report))
            }
            Some((schedule, mode)) => {
                let report = self.run_faulted(spec, schedule, mode)?;
                Ok(RunReport::Faulted(Box::new(report)))
            }
        }
    }

    /// Executes a pre-computed allocation on the simulated testbed (sweeps
    /// that vary the cluster between allocation and execution use it).
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
        self.check_day(day)?;
        let sim_tasks = self.sim_tasks()?;
        let node_assignment = allocation.to_node_assignment(self.fleet());
        let report = simulate(&self.cluster, &sim_tasks, &node_assignment, self.config.sim)?;

        let available: Vec<bool> =
            (0..self.blind.num_tasks()).map(|j| allocation.processor_of(j).is_some()).collect();
        let evaluator =
            ImportanceEvaluator::new(&self.scenario, &self.models).with_cache(&self.cache);
        let decision_performance =
            evaluator.decision_performance(self.scenario.day(day), &available)?;
        let captured_importance = self.importance_of(day, &available);
        let scheduled = allocation.scheduled_count();
        let mut processing_time_s = report.processing_time;
        if self.config.include_allocation_overhead {
            processing_time_s += allocator_overhead_s;
        }
        Ok(DayReport {
            method,
            day,
            allocation,
            processing_time_s,
            decision_performance,
            scheduled,
            captured_importance,
            solver: None,
        })
    }

    /// Returns `self`; kept for `benchmark/`, which is built against it.
    ///
    /// # Errors
    ///
    /// None.
    pub fn into_core(self) -> Result<PreparedCore, PipelineError> {
        Ok(self)
    }

    fn check_day(&self, day: usize) -> Result<(), PipelineError> {
        let range = self.test_days();
        if !range.contains(&day) {
            return Err(PipelineError::BadDay { day, range });
        }
        Ok(())
    }

    /// An importance override arrives from outside the process
    /// (`Query::Run` carries a [`RunSpec`]), and
    /// [`TatimInstance::with_importances`] asserts what this checks.
    fn check_overrides(&self, overrides: &[f64]) -> Result<(), PipelineError> {
        let tasks = self.blind.num_tasks();
        let invalid = overrides.iter().copied().enumerate().find(|(_, v)| !(0.0..=1.0).contains(v));
        if overrides.len() != tasks || invalid.is_some() {
            return Err(PipelineError::BadObjective { tasks, len: overrides.len(), invalid });
        }
        Ok(())
    }

    /// The classic per-method dispatch: importances from `overrides` when
    /// set, else the day's true importances (oracles) or the method's own
    /// estimates (CRL/DCTA).
    fn plain_allocation(
        &self,
        method: Method,
        day: usize,
        blind: &TatimInstance,
        overrides: Option<&[f64]>,
        certificate: &mut Option<SolveCertificate>,
    ) -> Result<Allocation, PipelineError> {
        let ctx = self.scenario.day(day);
        let importances = overrides.unwrap_or(&self.true_importances[day]);
        Ok(match method {
            Method::RandomMapping => {
                // Keyed by (seed, day): no earlier draw moves this one.
                let day_key = (day as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                let seed = self.config.seed ^ 0x51AB ^ day_key;
                random_mapping(blind, &mut StdRng::seed_from_u64(seed))
            }
            Method::Dml => dml_balanced(blind),
            Method::GreedyOracle => {
                blind.with_importances(importances).solve(&SolverKind::Greedy)?.allocation
            }
            Method::ExactOracle => {
                let report = blind.with_importances(importances).solve(&SolverKind::Portfolio(
                    SolveBudget::NodeBudget(EXACT_ORACLE_NODE_BUDGET),
                ))?;
                *certificate = report.certificate;
                report.allocation
            }
            Method::Crl => self.crl.allocate(blind, &ctx.sensing)?.allocation,
            Method::Dcta => {
                let general = self.crl.allocate(blind, &ctx.sensing)?;
                self.dcta.allocate(blind, general, &self.local_rows(day))?.allocation
            }
        })
    }

    /// True importance of `day` summed over the tasks `mask` selects.
    fn importance_of(&self, day: usize, mask: &[bool]) -> f64 {
        mask.iter().zip(&self.true_importances[day]).filter(|(&m, _)| m).map(|(_, &i)| i).sum()
    }

    fn sim_tasks(&self) -> Result<Vec<SimTask>, PipelineError> {
        Ok(self
            .blind
            .tasks()
            .iter()
            .map(|t| SimTask::new(t.input_bits(), self.config.result_bits, t.resource_demand()))
            .collect::<Result<_, _>>()?)
    }

    /// Allocates with `method`, executes under the fault `schedule`, and —
    /// depending on `mode` — re-plans the orphaned tasks over the surviving
    /// processors and runs the recovery round (DESIGN.md §9).
    ///
    /// The faulted round always runs with [`RetryPolicy::no_retry`]: at the
    /// pipeline level the supervision loop owns loss handling, and giving
    /// every [`RecoveryMode`] the *same* faulted round makes the three
    /// reactions directly comparable (identical losses, different
    /// responses). In-round timeout/redispatch retries remain an
    /// `edgesim`-level facility configured via
    /// [`edgesim::run::SimConfig::retry`].
    fn run_faulted(
        &self,
        spec: &RunSpec,
        schedule: &FaultSchedule,
        mode: RecoveryMode,
    ) -> Result<FaultRunReport, PipelineError> {
        let (method, day) = (spec.method(), spec.day());
        self.check_day(day)?;
        // Proactive mode shapes the *initial* allocation with the learned
        // availability posterior (survival weighting forced on); every
        // other mode allocates with the spec's objective as-is and differs
        // only in its reaction.
        let survival = spec.objective().survival() || mode == RecoveryMode::Proactive;
        let objective = spec.objective().clone().with_survival(survival);
        let allocation = self
            .allocate(&AllocQuery::new(method, day).with_objective(objective.clone()))?
            .allocation;
        let sim_tasks = self.sim_tasks()?;
        let node_assignment = allocation.to_node_assignment(self.fleet());

        // The fault-free reference: what this allocation delivers on a
        // healthy testbed.
        let healthy = simulate(&self.cluster, &sim_tasks, &node_assignment, self.config.sim)?;

        // Reactive modes replay the round with retries disabled so every
        // reaction faces an identical trajectory. The proactive controller
        // keeps its heartbeat retry layer live and biases orphan
        // re-dispatch toward the most-available candidate: posterior mean
        // survival feeds [`RedispatchPrefs`], so score beats load beats
        // node id (see `edgesim::run`).
        let mut sim_cfg = self.config.sim;
        let faulted = if mode == RecoveryMode::Proactive {
            let max_node = self.fleet().processors().iter().map(|p| p.node.0).max().unwrap_or(0);
            let scores: Vec<f64> = (0..=max_node).map(|n| self.availability.mean(n)).collect();
            simulate_with_faults_biased(
                &self.cluster,
                &sim_tasks,
                &node_assignment,
                sim_cfg,
                schedule,
                &RedispatchPrefs::from_scores(scores),
            )?
        } else {
            sim_cfg.retry = RetryPolicy::no_retry();
            simulate_with_faults(&self.cluster, &sim_tasks, &node_assignment, sim_cfg, schedule)?
        };

        let n = self.blind.num_tasks();
        let mut delivered_mask = faulted.completed.clone();
        let mut simulated_processing_time_s = faulted.processing_time;
        let mut shed = Vec::new();
        let mut reallocation_latency_s = 0.0;

        let orphans = faulted.failed_tasks();
        let survivors: Vec<NodeId> = self
            .fleet()
            .processors()
            .iter()
            .map(|p| p.node)
            .filter(|node| !faulted.down_at_end.contains(node))
            .collect();
        if mode != RecoveryMode::None && !orphans.is_empty() && !survivors.is_empty() {
            // Finished = delivered, or never scheduled in the first place.
            let finished: Vec<bool> =
                (0..n).map(|j| allocation.processor_of(j).is_none() || delivered_mask[j]).collect();
            // Recovery re-solves under the same objective the round was
            // allocated with: a route-cost objective deflates the
            // survivors' budgets too.
            let blind = if objective.route_cost() { &self.blind_routed } else { &self.blind };
            let instance = blind.with_importances(&self.true_importances[day]);
            let budget = self.config.recovery_budget_fraction;
            let plan = match mode {
                RecoveryMode::Resolve => {
                    recovery::replan(&instance, &finished, &survivors, budget)?
                }
                RecoveryMode::Proactive => recovery::replan_proactive(
                    &instance,
                    &finished,
                    &survivors,
                    budget,
                    &self.availability,
                    &self.config.proactive,
                    proactive_draw_seed(self.config.proactive.seed ^ self.config.seed, day as u64),
                )?,
                RecoveryMode::RandomShed => recovery::replan_random_shed(
                    &instance,
                    &finished,
                    &survivors,
                    budget,
                    self.config.seed ^ day as u64,
                )?,
                RecoveryMode::None => unreachable!("guarded above"),
            };
            reallocation_latency_s = plan.replan_latency_s;
            shed = plan.shed;
            if plan.allocation.scheduled_count() > 0 {
                let retry_assignment = plan.allocation.to_node_assignment(self.fleet());
                let retry_round =
                    simulate(&self.cluster, &sim_tasks, &retry_assignment, self.config.sim)?;
                simulated_processing_time_s += retry_round.processing_time;
                for (j, timeline) in retry_round.timelines.iter().enumerate() {
                    if timeline.is_some() {
                        delivered_mask[j] = true;
                    }
                }
            }
        }

        let evaluator =
            ImportanceEvaluator::new(&self.scenario, &self.models).with_cache(&self.cache);
        let scheduled_mask: Vec<bool> =
            (0..n).map(|j| allocation.processor_of(j).is_some()).collect();
        let healthy_decision_performance =
            evaluator.decision_performance(self.scenario.day(day), &scheduled_mask)?;
        let decision_performance =
            evaluator.decision_performance(self.scenario.day(day), &delivered_mask)?;
        let healthy_importance = self.importance_of(day, &scheduled_mask);
        let delivered_importance = self.importance_of(day, &delivered_mask);
        let retained_fraction =
            if healthy_importance <= 0.0 { 1.0 } else { delivered_importance / healthy_importance };
        let lost: Vec<usize> =
            (0..n).filter(|&j| scheduled_mask[j] && !delivered_mask[j]).collect();
        Ok(FaultRunReport {
            method,
            day,
            mode,
            allocation,
            healthy_processing_time_s: healthy.processing_time,
            healthy_importance,
            healthy_decision_performance,
            processing_time_s: simulated_processing_time_s + reallocation_latency_s,
            simulated_processing_time_s,
            faulted_processing_time_s: faulted.processing_time,
            delivered: delivered_mask.iter().filter(|d| **d).count(),
            delivered_importance,
            retained_fraction,
            decision_performance,
            shed,
            lost,
            reallocation_latency_s,
            failures: faulted.failures,
            down_at_end: faulted.down_at_end,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::{quick_config, small_scenario};
    use crate::pipeline::Pipeline;

    #[test]
    fn core_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedCore>();
    }

    #[test]
    fn concurrent_runs_are_interleaving_invariant() {
        let s = small_scenario();
        let core = Pipeline::new(quick_config()).prepare(&s).unwrap();
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
        let core = Pipeline::new(quick_config()).prepare(&s).unwrap();
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
        let core = Pipeline::new(quick_config()).prepare(&s).unwrap();
        assert!(matches!(
            core.run(&RunSpec::new(Method::Dml, 0)),
            Err(PipelineError::BadDay { .. })
        ));
        assert!(matches!(core.signature_of_day(999), Err(PipelineError::BadDay { .. })));
    }
}
