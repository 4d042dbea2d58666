//! A `Send + Sync` prepared pipeline for concurrent serving.
//!
//! [`crate::pipeline::PreparedPipeline`] is a batch artefact: it borrows its
//! scenario, takes `&mut self` everywhere (a shared RNG, lazily-trained CRL
//! agents, accumulating stores), and therefore serves exactly one caller.
//! [`PreparedCore`] is its frozen counterpart for a serving layer: it owns
//! its scenario, every method takes `&self`, and all interior state is
//! thread-safe — the sharded [`ImportanceCache`], the per-key `OnceLock`
//! agent slots inside the one frozen CRL allocator ([`Method::Crl`] and
//! [`Method::Dcta`] share its agents), and per-request seeded RNG for the
//! one stochastic baseline.
//!
//! ## Determinism contract
//!
//! For every method except [`Method::RandomMapping`], a `PreparedCore` run
//! is bit-identical to the same [`RunSpec`] on a `PreparedPipeline` built
//! with `.pretrain(true)` — frozen agents are trained with the `pretrain`
//! per-key seed formula, so neither request order, nor request interleaving,
//! nor the number of serving threads can change a single answer bit.
//! `RandomMapping` draws from a fresh RNG seeded by `(config.seed, day)`
//! instead of the batch pipeline's sequential shared stream: still fully
//! deterministic and interleaving-invariant, but its draws differ from the
//! mutable pipeline's (which depend on how many allocations preceded them —
//! a history no concurrent server can meaningfully reproduce).
//!
//! A second order-dependence stays behind in the *lazy* batch pipeline (no
//! `.pretrain(true)`): its one CRL trains agents on first touch from a
//! single RNG stream, so whichever request — [`Method::Crl`] or
//! [`Method::Dcta`], which share the agents — touches a context first
//! decides that agent for both. The core's per-key seeds give every
//! `(seed, context)` one agent, whoever asks.
//!
//! The frozen core deliberately has no `observe_day`: the accumulating
//! environment store is an offline-phase facility. Re-prepare and re-freeze
//! to fold new days in.

use crate::allocation::Allocation;
use crate::availability::{proactive_draw_seed, AvailabilityModel};
use crate::baselines::{dml_balanced, random_mapping};
use crate::cache::{CacheStats, ImportanceCache};
use crate::crl_alloc::SharedCrlAllocator;
use crate::dcta::DctaAllocator;
use crate::features::{local_features, TaskHistory};
use crate::importance::{CopModels, ImportanceEvaluator};
use crate::objective::{self, AllocOutcome, AllocQuery, Objective};
use crate::pipeline::{
    DayReport, FaultRunReport, Method, PipelineConfig, PipelineError, RunReport, RunSpec,
    SolveCertificate,
};
use crate::processor::ProcessorFleet;
use crate::recovery::{self, RecoveryMode};
use crate::task::EdgeTask;
use crate::tatim::{SolverKind, TatimInstance, EXACT_ORACLE_NODE_BUDGET};
use buildings::scenario::Scenario;
use edgesim::cluster::Cluster;
use edgesim::faults::FaultSchedule;
use edgesim::node::NodeId;
use edgesim::run::{
    simulate, simulate_with_faults, simulate_with_faults_biased, RedispatchPrefs, RetryPolicy,
    SimTask,
};
use knapsack::portfolio::SolveBudget;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::time::Instant;

/// The prepared pipeline, frozen for concurrent `&self` serving (see the
/// module docs for the determinism contract). Built by
/// [`crate::pipeline::PreparedPipeline::into_core`].
#[derive(Debug)]
pub struct PreparedCore {
    pub(crate) scenario: Scenario,
    pub(crate) config: PipelineConfig,
    pub(crate) models: CopModels,
    pub(crate) cluster: Cluster,
    pub(crate) fleet: ProcessorFleet,
    pub(crate) route_factors: Vec<f64>,
    pub(crate) tasks: Vec<EdgeTask>,
    pub(crate) true_importances: Vec<Vec<f64>>,
    pub(crate) crl: SharedCrlAllocator,
    pub(crate) dcta: DctaAllocator,
    pub(crate) history: TaskHistory,
    pub(crate) cache: ImportanceCache,
    pub(crate) availability: AvailabilityModel,
}

impl PreparedCore {
    /// The per-processor route budget factors of the frozen cluster
    /// (`1.0` everywhere on the uniform star testbed), aligned with
    /// [`Self::fleet`] columns.
    pub fn route_factors(&self) -> &[f64] {
        &self.route_factors
    }

    /// The frozen availability posterior [`RecoveryMode::Proactive`] runs
    /// read. Frozen means *read-only*: unlike the batch pipeline, serving
    /// never absorbs failure history, so repeat runs of the same
    /// [`RunSpec`] stay bit-identical regardless of what ran in between.
    /// Re-prepare and re-freeze to fold new observations in.
    pub fn availability(&self) -> &AvailabilityModel {
        &self.availability
    }

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

    /// The processor fleet.
    pub fn fleet(&self) -> &ProcessorFleet {
        &self.fleet
    }

    /// The frozen general process (per-key agents for Q-value serving).
    pub fn crl(&self) -> &SharedCrlAllocator {
        &self.crl
    }

    /// Hit/miss counters of the shared decision-performance cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
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
    /// allocator decides over.
    pub fn blind_instance(&self) -> TatimInstance {
        TatimInstance::new(self.tasks.clone(), self.fleet.clone())
    }

    /// The TATIM instance of a day, priced with its true importances.
    ///
    /// # Errors
    ///
    /// [`PipelineError::BadDay`] for out-of-range days.
    pub fn instance_for_day(&self, day: usize) -> Result<TatimInstance, PipelineError> {
        self.check_day(day)?;
        Ok(self.blind_instance().with_importances(&self.true_importances[day]))
    }

    fn check_day(&self, day: usize) -> Result<(), PipelineError> {
        let range = self.test_days();
        if !range.contains(&day) {
            return Err(PipelineError::BadDay { day, range });
        }
        Ok(())
    }

    /// The Table-I local feature rows of day `day` (DCTA's `F2` input).
    fn local_rows(&self, day: usize) -> Vec<Vec<f64>> {
        let ctx = self.scenario.day(day);
        (0..self.tasks.len())
            .map(|j| local_features(&self.scenario, &self.models, &self.history, ctx, j))
            .collect()
    }

    /// Produces the allocation described by `query` — the `&self`
    /// counterpart of [`crate::pipeline::PreparedPipeline::allocate`],
    /// with the same typed [`Objective`] semantics (importance overrides,
    /// survival weighting, route-cost budget deflation). A blank objective
    /// reproduces the classic per-method behaviour bit-for-bit.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`] variants.
    pub fn allocate(&self, query: &AllocQuery) -> Result<AllocOutcome, PipelineError> {
        let (method, day) = (query.method(), query.day());
        let obj = query.objective();
        self.check_day(day)?;
        let start = Instant::now();
        let fleet = if obj.route_cost() {
            objective::deflated_fleet_with(&self.fleet, &self.route_factors)?
        } else {
            self.fleet.clone()
        };
        let mut blind = TatimInstance::new(self.tasks.clone(), fleet);
        if self.config.crl.route_feature {
            blind = blind.with_route_factors(self.route_factors.clone());
        }
        let mut certificate = None;
        let allocation = if obj.survival() {
            let ctx = self.scenario.day(day);
            let estimates: Option<Vec<f64>> = match obj.importances() {
                Some(imp) => Some(imp.to_vec()),
                None => match method {
                    Method::GreedyOracle | Method::ExactOracle => {
                        Some(self.true_importances[day].clone())
                    }
                    Method::Crl => {
                        Some(self.crl.allocate(&blind, &ctx.sensing)?.estimated_importances)
                    }
                    Method::Dcta => {
                        let general = self.crl.allocate(&blind, &ctx.sensing)?;
                        let rows = self.local_rows(day);
                        Some(self.dcta.allocate(&blind, general, &rows)?.combined_scores)
                    }
                    Method::RandomMapping | Method::Dml => None,
                },
            };
            match estimates {
                None => self.plain_allocation(method, day, &blind, None, &mut certificate)?,
                Some(mut est) => {
                    for e in &mut est {
                        *e = e.clamp(0.0, 1.0);
                    }
                    let pc = self.config.proactive;
                    let draw_seed = proactive_draw_seed(pc.seed ^ self.config.seed, day as u64);
                    let weights: Vec<f64> = self
                        .fleet
                        .processors()
                        .iter()
                        .map(|p| {
                            (1.0 - pc.weight)
                                + pc.weight * self.availability.survival(p.node.0, &pc, draw_seed)
                        })
                        .collect();
                    blind
                        .with_importances(&est)
                        .solve(&SolverKind::WeightedGreedy(weights))?
                        .allocation
                }
            }
        } else {
            self.plain_allocation(method, day, &blind, obj.importances(), &mut certificate)?
        };
        Ok(AllocOutcome { allocation, overhead_s: start.elapsed().as_secs_f64(), certificate })
    }

    /// The classic per-method dispatch (see
    /// `PreparedPipeline::plain_allocation`); RandomMapping draws from the
    /// per-request `(seed, day)` RNG of the module docs.
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
                // Per-request RNG keyed by (seed, day): deterministic and
                // interleaving-invariant, unlike the batch pipeline's
                // sequential shared stream (see module docs).
                let mut rng = StdRng::seed_from_u64(
                    self.config.seed
                        ^ 0x51AB
                        ^ (day as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                random_mapping(blind, &mut rng)
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

    /// [`Self::allocate`] under the blank objective, returning the tuple
    /// shape of the pre-query API.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`] variants.
    #[deprecated(note = "use `allocate(&AllocQuery::new(method, day))`")]
    pub fn allocate_certified(
        &self,
        method: Method,
        day: usize,
    ) -> Result<(Allocation, f64, Option<SolveCertificate>), PipelineError> {
        let out = self.allocate(&AllocQuery::new(method, day))?;
        Ok((out.allocation, out.overhead_s, out.certificate))
    }

    /// [`Self::allocate`] under `Objective::new().with_survival(true)`,
    /// returning the tuple shape of the pre-query API.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`] variants.
    #[deprecated(note = "use `allocate` with `Objective::new().with_survival(true)`")]
    pub fn allocate_proactive(
        &self,
        method: Method,
        day: usize,
    ) -> Result<(Allocation, f64), PipelineError> {
        let query =
            AllocQuery::new(method, day).with_objective(Objective::new().with_survival(true));
        let out = self.allocate(&query)?;
        Ok((out.allocation, out.overhead_s))
    }

    /// Executes one evaluation run described by `spec` — the `&self`
    /// counterpart of [`crate::pipeline::PreparedPipeline::run`].
    ///
    /// `spec`'s thread override is ignored: the ambient thread count is a
    /// process-global knob, and scoping it per request from concurrent
    /// serving threads would race. Results are thread-count invariant
    /// anyway (§8.1); a serving layer's concurrency comes from its own
    /// worker pool.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`] variants.
    pub fn run(&self, spec: &RunSpec) -> Result<RunReport, PipelineError> {
        match spec.faults() {
            None => {
                let query = AllocQuery::new(spec.method(), spec.day())
                    .with_objective(spec.objective().clone());
                let out = self.allocate(&query)?;
                let mut report =
                    self.execute(spec.method(), spec.day(), out.allocation, out.overhead_s)?;
                report.solver = out.certificate;
                Ok(RunReport::Healthy(report))
            }
            Some((schedule, mode)) => {
                let report =
                    self.run_faulted(spec.method(), spec.day(), schedule, mode, spec.objective())?;
                Ok(RunReport::Faulted(Box::new(report)))
            }
        }
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
        self.check_day(day)?;
        let sim_tasks = self.sim_tasks()?;
        let node_assignment = allocation.to_node_assignment(&self.fleet);
        let report = simulate(&self.cluster, &sim_tasks, &node_assignment, self.config.sim)?;

        let available: Vec<bool> =
            (0..self.tasks.len()).map(|j| allocation.processor_of(j).is_some()).collect();
        let evaluator =
            ImportanceEvaluator::new(&self.scenario, &self.models).with_cache(&self.cache);
        let decision_performance =
            evaluator.decision_performance(self.scenario.day(day), &available)?;
        let captured_importance: f64 = available
            .iter()
            .zip(&self.true_importances[day])
            .filter(|(&a, _)| a)
            .map(|(_, &i)| i)
            .sum();
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

    fn sim_tasks(&self) -> Result<Vec<SimTask>, PipelineError> {
        Ok(self
            .tasks
            .iter()
            .map(|t| SimTask::new(t.input_bits(), self.config.result_bits, t.resource_demand()))
            .collect::<Result<_, _>>()?)
    }

    fn run_faulted(
        &self,
        method: Method,
        day: usize,
        schedule: &FaultSchedule,
        mode: RecoveryMode,
        base_objective: &Objective,
    ) -> Result<FaultRunReport, PipelineError> {
        self.check_day(day)?;
        let objective = if mode == RecoveryMode::Proactive {
            base_objective.clone().with_survival(true)
        } else {
            base_objective.clone()
        };
        let allocation = self
            .allocate(&AllocQuery::new(method, day).with_objective(objective.clone()))?
            .allocation;
        let sim_tasks = self.sim_tasks()?;
        let node_assignment = allocation.to_node_assignment(&self.fleet);

        let healthy = simulate(&self.cluster, &sim_tasks, &node_assignment, self.config.sim)?;

        // Same arm split as `PreparedPipeline::run_faulted_impl`: reactive
        // modes disable retries for an identical trajectory, proactive
        // keeps the retry layer live with availability-biased re-dispatch
        // read from the frozen posterior.
        let mut sim_cfg = self.config.sim;
        let faulted = if mode == RecoveryMode::Proactive {
            let max_node = self.fleet.processors().iter().map(|p| p.node.0).max().unwrap_or(0);
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

        let n = self.tasks.len();
        let mut delivered_mask = faulted.completed.clone();
        let mut simulated_processing_time_s = faulted.processing_time;
        let mut shed = Vec::new();
        let mut reallocation_latency_s = 0.0;

        let orphans = faulted.failed_tasks();
        let survivors: Vec<NodeId> = self
            .fleet
            .processors()
            .iter()
            .map(|p| p.node)
            .filter(|node| !faulted.down_at_end.contains(node))
            .collect();
        if mode != RecoveryMode::None && !orphans.is_empty() && !survivors.is_empty() {
            let finished: Vec<bool> =
                (0..n).map(|j| allocation.processor_of(j).is_none() || delivered_mask[j]).collect();
            // Recovery re-solves under the same objective the round was
            // allocated with (route-cost deflation included).
            let instance = if objective.route_cost() {
                let fleet = objective::deflated_fleet_with(&self.fleet, &self.route_factors)?;
                TatimInstance::new(self.tasks.clone(), fleet)
                    .with_importances(&self.true_importances[day])
            } else {
                self.instance_for_day(day)?
            };
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
                let retry_assignment = plan.allocation.to_node_assignment(&self.fleet);
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
        let importance_of = |mask: &[bool]| -> f64 {
            mask.iter().zip(&self.true_importances[day]).filter(|(&m, _)| m).map(|(_, &i)| i).sum()
        };
        let healthy_importance = importance_of(&scheduled_mask);
        let delivered_importance = importance_of(&delivered_mask);
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
    use crate::pipeline::{Pipeline, PipelineConfig};
    use buildings::scenario::ScenarioConfig;
    use edgesim::faults::FaultSchedule;
    use rl::crl::CrlConfig;
    use rl::dqn::DqnConfig;

    fn small_scenario() -> Scenario {
        Scenario::generate(ScenarioConfig {
            num_buildings: 2,
            chillers_per_building: 2,
            bands_per_chiller: 4,
            num_tasks: 12,
            history_days: 50,
            eval_days: 8,
            mean_input_mbit: 40.0,
            ..ScenarioConfig::default()
        })
        .unwrap()
    }

    fn quick_config() -> PipelineConfig {
        PipelineConfig {
            workers: 4,
            env_history_days: 5,
            crl: CrlConfig {
                episodes: 12,
                dqn: DqnConfig { hidden: vec![24], ..DqnConfig::default() },
                ..CrlConfig::default()
            },
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn core_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PreparedCore>();
    }

    #[test]
    fn core_reports_match_pretrained_pipeline_bitwise() {
        let s = small_scenario();
        let mut reference = Pipeline::builder(quick_config()).pretrain(true).prepare(&s).unwrap();
        let core = Pipeline::builder(quick_config())
            .pretrain(false)
            .prepare(&s)
            .unwrap()
            .into_core()
            .unwrap();
        let day = core.test_days().start;
        // Every deterministic method: bit-identical PT and H.
        for method in
            [Method::Dml, Method::GreedyOracle, Method::ExactOracle, Method::Crl, Method::Dcta]
        {
            let want = reference.run_day(method, day).unwrap();
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
    fn random_mapping_is_deterministic_per_day() {
        let s = small_scenario();
        let core = Pipeline::new(quick_config()).prepare(&s).unwrap().into_core().unwrap();
        let day = core.test_days().start;
        let a = core.allocate(&AllocQuery::new(Method::RandomMapping, day)).unwrap().allocation;
        let b = core.allocate(&AllocQuery::new(Method::RandomMapping, day)).unwrap().allocation;
        assert_eq!(a, b, "same (seed, day) must draw the same mapping");
        let c = core.allocate(&AllocQuery::new(Method::RandomMapping, day + 1)).unwrap().allocation;
        assert_ne!(a, c, "different days draw different mappings");
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
