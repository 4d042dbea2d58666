//! End-to-end orchestration: data → MTL models → importance → allocation →
//! simulated execution.
//!
//! [`Pipeline::prepare`] performs the offline phase once (train the COP
//! models, walk the environment-history days to populate the CRL store and
//! the local process's training set); [`PreparedCore::run`] then
//! executes any allocation [`Method`] on any evaluation day and reports the
//! paper's metrics: processing time `PT` and decision performance `H`.

use crate::allocation::Allocation;
use crate::availability::{AvailabilityModel, ProactiveConfig};
use crate::cache::ImportanceCache;
use crate::crl_alloc::CrlAllocator;
use crate::dcta::{DctaAllocator, DctaError};
use crate::features::{local_features, TaskHistory};
use crate::importance::{prediction_features, CopModels, ImportanceError, ImportanceEvaluator};
use crate::local::{LocalError, LocalModelKind, LocalProcess};
use crate::objective::{self, Objective};
use crate::processor::{FleetError, ProcessorFleet};
use crate::recovery::{RecoveryError, RecoveryMode};
use crate::shared::PreparedCore;
use crate::task::{EdgeTask, TaskId};
use crate::tatim::{SolverKind, TatimError, TatimInstance};
use buildings::scenario::Scenario;
use edgesim::cluster::{Cluster, ClusterError, MeshSpec};
use edgesim::faults::FaultSchedule;
use edgesim::node::NodeId;
use edgesim::run::{SimConfig, SimError};
use edgesim::trace::FailureRecord;
use learn::transfer::MtlConfig;
use rl::crl::{CrlConfig, CrlError};
use std::fmt;
use std::ops::Range;

/// The allocation methods under evaluation (§V-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Random Mapping baseline.
    RandomMapping,
    /// Distributed-ML balanced baseline.
    Dml,
    /// Clustered Reinforcement Learning alone.
    Crl,
    /// The full cooperative DCTA.
    Dcta,
    /// Greedy knapsack over the *true* importances (the "accurate task
    /// allocation" of Fig. 3; an oracle, not deployable), then the shared
    /// placer.
    GreedyOracle,
    /// Exact (node-limited) branch-and-bound over true importances, then
    /// the shared placer.
    ExactOracle,
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Method::RandomMapping => "RM",
            Method::Dml => "DML",
            Method::Crl => "CRL",
            Method::Dcta => "DCTA",
            Method::GreedyOracle => "GreedyOracle",
            Method::ExactOracle => "ExactOracle",
        };
        f.write_str(name)
    }
}

/// Which simulated world the pipeline runs on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Topology {
    /// The paper's star WiFi testbed ([`PipelineConfig::workers`] workers
    /// behind per-node links).
    Star,
    /// A seeded grid-with-chords mesh. The spec fixes the node count;
    /// [`PipelineConfig::workers`] still divides the Eq.-3 time budget
    /// (`T = time_limit_fraction · Σ t_j / workers`), so it sets how much
    /// each mesh node may host, not how many nodes there are.
    Mesh(MeshSpec),
}

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// MTL settings for the COP models.
    pub mtl: MtlConfig,
    /// Worker count of the simulated testbed (Fig. 9 sweeps this); the
    /// paper's full testbed has 9.
    pub workers: usize,
    /// Simulated network topology (star testbed by default).
    pub topology: Topology,
    /// Shared time limit `T` as a fraction of `Σ t_j / M` — i.e. how much
    /// of the total reference workload each processor may take. Below ~1.0
    /// the selection pressure of TATIM kicks in.
    pub time_limit_fraction: f64,
    /// Evaluation days reserved as CRL/local training history.
    pub env_history_days: usize,
    /// CRL settings.
    pub crl: CrlConfig,
    /// Local-process model family.
    pub local_kind: LocalModelKind,
    /// Cooperative weights `(w1, w2)` of Eq. 6.
    pub weights: (f64, f64),
    /// Simulator overheads.
    pub sim: SimConfig,
    /// Result payload shipped back per task, bits.
    pub result_bits: f64,
    /// Include the measured wall-clock of the allocator itself in PT
    /// (the paper's PT covers partitioning and decision making). Off by
    /// default so unit tests stay deterministic; the bench harness turns it
    /// on.
    pub include_allocation_overhead: bool,
    /// Fraction of each processor's Eq.-3 time budget granted to the
    /// recovery round after a mid-run fault. `1.0` (the default) treats
    /// recovery as a fresh round on the survivors; lower it to model a
    /// recovery that must finish inside the original round's remaining
    /// window (tasks longer than the scaled budget become unplaceable).
    /// Only fault-injected runs read it.
    pub recovery_budget_fraction: f64,
    /// How hard proactive allocation leans on learned availability.
    pub proactive: ProactiveConfig,
    /// Master seed.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            mtl: MtlConfig { transfer_strength: 2.0, ..MtlConfig::default() },
            workers: 9,
            topology: Topology::Star,
            time_limit_fraction: 0.5,
            env_history_days: 6,
            crl: CrlConfig::default(),
            local_kind: LocalModelKind::Svm,
            weights: (0.5, 0.5),
            sim: SimConfig { enforce_capacity: false, ..SimConfig::default() },
            result_bits: 1e4,
            include_allocation_overhead: false,
            recovery_budget_fraction: 1.0,
            proactive: ProactiveConfig::default(),
            seed: 99,
        }
    }
}

/// Error raised anywhere in the pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// Importance/MTL failure.
    Importance(ImportanceError),
    /// Cluster construction failure.
    Cluster(ClusterError),
    /// Fleet construction failure.
    Fleet(FleetError),
    /// TATIM/knapsack failure.
    Tatim(TatimError),
    /// CRL failure.
    Crl(CrlError),
    /// Local-process failure.
    Local(LocalError),
    /// DCTA failure.
    Dcta(DctaError),
    /// Simulator failure.
    Sim(SimError),
    /// Post-fault re-planning failure.
    Recovery(RecoveryError),
    /// A day index outside the evaluation range.
    BadDay {
        /// Requested day.
        day: usize,
        /// Valid range.
        range: Range<usize>,
    },
    /// An [`Objective::with_importances`] override the instance cannot be
    /// priced with.
    BadObjective {
        /// Task count the override must match.
        tasks: usize,
        /// Length of the override supplied.
        len: usize,
        /// The first entry that is not a number in `[0, 1]`, if any.
        invalid: Option<(usize, f64)>,
    },
    /// Scenario has too few evaluation days for the configured history.
    TooFewDays {
        /// Days available.
        available: usize,
        /// History required.
        required: usize,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Importance(e) => write!(f, "importance stage failed: {e}"),
            PipelineError::Cluster(e) => write!(f, "cluster setup failed: {e}"),
            PipelineError::Fleet(e) => write!(f, "fleet setup failed: {e}"),
            PipelineError::Tatim(e) => write!(f, "allocation stage failed: {e}"),
            PipelineError::Crl(e) => write!(f, "CRL failed: {e}"),
            PipelineError::Local(e) => write!(f, "local process failed: {e}"),
            PipelineError::Dcta(e) => write!(f, "DCTA failed: {e}"),
            PipelineError::Sim(e) => write!(f, "simulation failed: {e}"),
            PipelineError::Recovery(e) => write!(f, "recovery failed: {e}"),
            PipelineError::BadDay { day, range } => {
                write!(f, "day {day} outside evaluation range {range:?}")
            }
            PipelineError::BadObjective { tasks, len, invalid: None } => {
                write!(f, "importance override has {len} entries for {tasks} tasks")
            }
            PipelineError::BadObjective { invalid: Some((task, value)), .. } => {
                write!(f, "importance override for task {task} is {value}, outside [0, 1]")
            }
            PipelineError::TooFewDays { available, required } => {
                write!(f, "scenario has {available} eval days, need more than {required}")
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Importance(e) => Some(e),
            PipelineError::Cluster(e) => Some(e),
            PipelineError::Fleet(e) => Some(e),
            PipelineError::Tatim(e) => Some(e),
            PipelineError::Crl(e) => Some(e),
            PipelineError::Local(e) => Some(e),
            PipelineError::Dcta(e) => Some(e),
            PipelineError::Sim(e) => Some(e),
            PipelineError::Recovery(e) => Some(e),
            _ => None,
        }
    }
}

macro_rules! from_err {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for PipelineError {
            fn from(e: $ty) -> Self {
                PipelineError::$variant(e)
            }
        }
    };
}

from_err!(Importance, ImportanceError);
from_err!(Cluster, ClusterError);
from_err!(Fleet, FleetError);
from_err!(Tatim, TatimError);
from_err!(Crl, CrlError);
from_err!(Local, LocalError);
from_err!(Dcta, DctaError);
from_err!(Sim, SimError);
from_err!(Recovery, RecoveryError);

pub use crate::tatim::SolveCertificate;

/// One day's evaluation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DayReport {
    /// Method that produced the allocation.
    pub method: Method,
    /// Evaluation-day index.
    pub day: usize,
    /// The allocation executed.
    pub allocation: Allocation,
    /// The paper's PT metric, seconds.
    pub processing_time_s: f64,
    /// Decision performance `H` achieved with the executed task set.
    pub decision_performance: f64,
    /// Tasks executed.
    pub scheduled: usize,
    /// True importance captured by the executed set.
    pub captured_importance: f64,
    /// The allocator's optimality certificate, when the method runs an
    /// exact/portfolio solve ([`Method::ExactOracle`] today). `None` for
    /// heuristic and learned allocators, and for pre-computed allocations
    /// fed straight into [`PreparedCore::execute`].
    pub solver: Option<SolveCertificate>,
}

/// Outcome of a fault-injected day: the healthy reference run, the faulted
/// round, and (mode permitting) the recovery round, merged.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRunReport {
    /// Method that produced the original allocation.
    pub method: Method,
    /// Evaluation-day index.
    pub day: usize,
    /// How the controller reacted to processor loss.
    pub mode: RecoveryMode,
    /// The allocation the day started with.
    pub allocation: Allocation,
    /// PT of the same allocation on a fault-free testbed (the baseline the
    /// degradation is measured against).
    pub healthy_processing_time_s: f64,
    /// True importance delivered by the healthy run (every scheduled task).
    pub healthy_importance: f64,
    /// Decision performance `H` of the healthy run.
    pub healthy_decision_performance: f64,
    /// End-to-end PT under faults: faulted round, plus re-allocation
    /// latency and the recovery round when one ran.
    pub processing_time_s: f64,
    /// The simulated share of [`Self::processing_time_s`]: faulted round
    /// plus recovery round, *excluding* the measured re-solve latency —
    /// a pure function of the seed, bit-reproducible across runs.
    pub simulated_processing_time_s: f64,
    /// PT of the faulted round alone: the horizon its failure log covers,
    /// which [`PreparedCore::observe_faults`] reads as exposure time.
    pub faulted_processing_time_s: f64,
    /// Tasks whose results reached the controller (either round).
    pub delivered: usize,
    /// True importance of the delivered set.
    pub delivered_importance: f64,
    /// `delivered_importance / healthy_importance` (`1.0` when the healthy
    /// run captured nothing).
    pub retained_fraction: f64,
    /// Degraded-mode decision performance `H` over the delivered set.
    pub decision_performance: f64,
    /// Tasks the recovery plan dropped, ascending importance.
    pub shed: Vec<usize>,
    /// Scheduled tasks that never produced a result in either round.
    pub lost: Vec<usize>,
    /// Wall-clock seconds of the recovery re-solve (0 without one).
    pub reallocation_latency_s: f64,
    /// Typed failure log of the faulted round.
    pub failures: Vec<FailureRecord>,
    /// Nodes still down when the faulted round ended.
    pub down_at_end: Vec<NodeId>,
}

impl FaultRunReport {
    /// PT degradation relative to the healthy run (`≥ 1.0` in practice).
    pub fn slowdown(&self) -> f64 {
        if self.healthy_processing_time_s <= 0.0 {
            1.0
        } else {
            self.processing_time_s / self.healthy_processing_time_s
        }
    }
}

/// A complete description of one evaluation run: which [`Method`] on which
/// day, optionally under a [`FaultSchedule`] with a [`RecoveryMode`]. The
/// single entry point [`PreparedCore::run`] consumes it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    method: Method,
    day: usize,
    faults: Option<(FaultSchedule, RecoveryMode)>,
    objective: Objective,
}

impl RunSpec {
    /// A fault-free run of `method` on evaluation day `day`, under the
    /// blank (classic) objective.
    pub fn new(method: Method, day: usize) -> Self {
        Self { method, day, faults: None, objective: Objective::default() }
    }

    /// Shapes the allocation with `objective` (route-cost deflation,
    /// survival weighting, importance overrides). A blank objective
    /// reproduces the classic behaviour bit-for-bit. Under faults with
    /// [`RecoveryMode::Proactive`], survival weighting is forced on
    /// regardless of what the objective says.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Injects `schedule` mid-run and reacts with `mode`. The resulting
    /// [`RunReport`] is the [`RunReport::Faulted`] variant.
    #[must_use]
    pub fn with_faults(mut self, schedule: FaultSchedule, mode: RecoveryMode) -> Self {
        self.faults = Some((schedule, mode));
        self
    }

    /// The method under evaluation.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The evaluation-day index.
    pub fn day(&self) -> usize {
        self.day
    }

    /// The fault schedule and recovery mode, when set.
    pub fn faults(&self) -> Option<(&FaultSchedule, RecoveryMode)> {
        self.faults.as_ref().map(|(s, m)| (s, *m))
    }

    /// The allocation objective.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }
}

/// What [`PreparedCore::run`] produced: a plain [`DayReport`] for a
/// fault-free spec, a [`FaultRunReport`] when the spec carried a schedule.
#[derive(Debug, Clone, PartialEq)]
pub enum RunReport {
    /// Fault-free outcome.
    Healthy(DayReport),
    /// Fault-injected outcome (boxed: the fault report is much larger).
    Faulted(Box<FaultRunReport>),
}

impl RunReport {
    /// The method that produced the run.
    pub fn method(&self) -> Method {
        match self {
            RunReport::Healthy(r) => r.method,
            RunReport::Faulted(r) => r.method,
        }
    }

    /// The evaluation-day index.
    pub fn day(&self) -> usize {
        match self {
            RunReport::Healthy(r) => r.day,
            RunReport::Faulted(r) => r.day,
        }
    }

    /// The allocation the day started with.
    pub fn allocation(&self) -> &Allocation {
        match self {
            RunReport::Healthy(r) => &r.allocation,
            RunReport::Faulted(r) => &r.allocation,
        }
    }

    /// End-to-end PT, seconds (under faults: faulted round + recovery +
    /// re-allocation latency).
    pub fn processing_time_s(&self) -> f64 {
        match self {
            RunReport::Healthy(r) => r.processing_time_s,
            RunReport::Faulted(r) => r.processing_time_s,
        }
    }

    /// Decision performance `H` over the delivered task set.
    pub fn decision_performance(&self) -> f64 {
        match self {
            RunReport::Healthy(r) => r.decision_performance,
            RunReport::Faulted(r) => r.decision_performance,
        }
    }

    /// The healthy report, if this was a fault-free run.
    pub fn as_healthy(&self) -> Option<&DayReport> {
        match self {
            RunReport::Healthy(r) => Some(r),
            RunReport::Faulted(_) => None,
        }
    }

    /// The fault report, if the spec injected faults.
    pub fn as_faulted(&self) -> Option<&FaultRunReport> {
        match self {
            RunReport::Healthy(_) => None,
            RunReport::Faulted(r) => Some(r),
        }
    }

    /// Unwraps the healthy report, if this was a fault-free run.
    pub fn into_healthy(self) -> Option<DayReport> {
        match self {
            RunReport::Healthy(r) => Some(r),
            RunReport::Faulted(_) => None,
        }
    }

    /// Unwraps the fault report, if the spec injected faults.
    pub fn into_faulted(self) -> Option<FaultRunReport> {
        match self {
            RunReport::Healthy(_) => None,
            RunReport::Faulted(r) => Some(*r),
        }
    }
}

/// The pipeline factory.
#[derive(Debug, Clone, PartialEq)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline with `config`.
    pub fn new(config: PipelineConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Starts a [`PipelineBuilder`] — the preferred way to configure the
    /// offline phase (`.cache(...)`, `.availability(...)`) before calling
    /// [`PipelineBuilder::prepare`].
    pub fn builder(config: PipelineConfig) -> PipelineBuilder {
        PipelineBuilder {
            config,
            cache: ImportanceCache::new(),
            availability: AvailabilityModel::default(),
        }
    }

    /// Runs the offline phase against `scenario`.
    ///
    /// Equivalent to `Pipeline::builder(config).prepare(scenario)`; kept as
    /// the short spelling for the no-options case.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`] variants.
    pub fn prepare(&self, scenario: &Scenario) -> Result<PreparedCore, PipelineError> {
        self.prepare_impl(scenario, ImportanceCache::new(), AvailabilityModel::default())
    }

    fn prepare_impl(
        &self,
        scenario: &Scenario,
        cache: ImportanceCache,
        availability: AvailabilityModel,
    ) -> Result<PreparedCore, PipelineError> {
        let cfg = &self.config;
        if scenario.days().len() <= cfg.env_history_days {
            return Err(PipelineError::TooFewDays {
                available: scenario.days().len(),
                required: cfg.env_history_days,
            });
        }

        let models = CopModels::train(scenario, cfg.mtl)?;
        let cluster = match cfg.topology {
            Topology::Star => Cluster::testbed_with_workers(cfg.workers)?,
            Topology::Mesh(spec) => Cluster::mesh_testbed(spec)?,
        };

        // Tasks: input sizes from the scenario; resource demand relative to
        // the mean input (mean demand 1.0).
        let n = scenario.num_tasks();
        let mean_bits = (0..n).map(|t| scenario.input_bits(t)).sum::<f64>() / n.max(1) as f64;
        let tasks: Vec<EdgeTask> = (0..n)
            .map(|t| {
                EdgeTask::new(
                    TaskId(t),
                    scenario.tasks()[t].name.clone(),
                    scenario.input_bits(t),
                    scenario.input_bits(t) / mean_bits.max(1e-12),
                    0.0,
                )
                .expect("scenario sizes are valid")
            })
            .collect();
        let total_ref_time: f64 = tasks.iter().map(EdgeTask::reference_time_s).sum();
        let time_limit =
            (cfg.time_limit_fraction * total_ref_time / cfg.workers.max(1) as f64).max(1e-6);
        let fleet = ProcessorFleet::from_cluster(&cluster, time_limit)?;
        // Per-processor route budget factors of the topology (exactly 1.0
        // everywhere on the uniform star testbed). Computed once: the
        // cluster's routes are fixed for the pipeline's lifetime.
        let route_factors = objective::route_budget_factors(&cluster, &fleet);

        // True importance of every evaluation day (oracles + CRL history +
        // metrics all need it). The cache memoises every decision-function
        // evaluation from here on: the full-mask result is shared by all
        // leave-one-out columns of a day, and `run`/`execute` re-query
        // masks the offline phase already priced.
        let evaluator = ImportanceEvaluator::new(scenario, &models).with_cache(&cache);
        let true_importances = evaluator.importance_matrix()?;

        // Offline phase: walk the history days, feeding the CRL store and
        // the local process's training set.
        let mut crl = CrlAllocator::new(cfg.crl.clone());
        let mut history = TaskHistory::new(n);
        let mut local_rows = Vec::new();
        let mut local_labels = Vec::new();
        let routed_fleet = objective::deflated_fleet_with(&fleet, &route_factors)?;
        let blind_routed = TatimInstance::new(tasks.clone(), routed_fleet);
        let blind = TatimInstance::new(tasks, fleet);
        for d in 0..cfg.env_history_days {
            let day = scenario.day(d);
            let imp = &true_importances[d];
            crl.observe(day.sensing.clone(), imp.clone())?;
            // Optimal selection labels from the greedy oracle.
            let opt = blind.with_importances(imp).solve(&SolverKind::Greedy)?.allocation;
            let selected: Vec<bool> = (0..n).map(|j| opt.processor_of(j).is_some()).collect();
            for j in 0..n {
                local_rows.push(local_features(scenario, &models, &history, day, j));
                local_labels.push(if selected[j] { 1.0 } else { -1.0 });
            }
            // Update the rolling record *after* extracting features (the
            // features describe what was known before the day ran).
            history.record_selection(&selected);
            for j in 0..n {
                let spec = &scenario.tasks()[j];
                let plant = scenario.plant(spec.building);
                let chiller = &plant.chillers()[spec.chiller];
                if let Some(mid) = plant.band_midpoint_kw(
                    spec.chiller,
                    spec.band,
                    scenario.config().bands_per_chiller,
                ) {
                    let f = prediction_features(
                        spec.building,
                        chiller.model(),
                        chiller.capacity_kw(),
                        &day.weather,
                        mid,
                    );
                    history.record_prediction(
                        j,
                        models.predict(j, &f),
                        chiller.cop(mid, day.weather.outdoor_temp_c),
                    );
                }
            }
        }
        let local = LocalProcess::train(local_rows, local_labels, cfg.local_kind, cfg.seed)?;
        let dcta = DctaAllocator::new(local, cfg.weights.0, cfg.weights.1)?;
        // Every agent trains against the blind geometry, whichever request —
        // and whichever objective's fleet — reaches its context first.
        crl.shared().bind(&blind.to_alloc_spec())?;

        Ok(PreparedCore {
            scenario: scenario.clone(),
            config: cfg.clone(),
            models,
            cluster,
            blind,
            route_factors,
            blind_routed,
            true_importances,
            crl,
            dcta,
            history,
            cache,
            availability,
        })
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Self::new(PipelineConfig::default())
    }
}

/// Configures the offline phase before running it. Built by
/// [`Pipeline::builder`]; every option defaults to the behaviour of plain
/// [`Pipeline::prepare`], so `Pipeline::builder(cfg).prepare(&s)` and
/// `Pipeline::new(cfg).prepare(&s)` are interchangeable. No option trains
/// agents: the first request that needs one trains every environment's at
/// once, in parallel ([`rl::crl::Crl::agent`]), and
/// `prepared.crl().pretrain(..)` only moves that earlier.
#[derive(Debug)]
pub struct PipelineBuilder {
    config: PipelineConfig,
    cache: ImportanceCache,
    availability: AvailabilityModel,
}

impl PipelineBuilder {
    /// Seeds the offline phase with an existing decision-performance cache
    /// — typically one restored from a previous run's dump
    /// ([`ImportanceCache::load_file`]), which lets a repeated sweep skip
    /// the offline importance sweep entirely. Keys carry the scenario seed
    /// and evaluator fingerprint, so a mismatched cache is merely useless,
    /// never wrong.
    #[must_use]
    pub fn cache(mut self, cache: ImportanceCache) -> Self {
        self.cache = cache;
        self
    }

    /// Seeds the pipeline with an existing availability posterior —
    /// typically one restored from a previous run's dump
    /// ([`AvailabilityModel::load_file`]), so availability learning
    /// survives across runs the way the importance cache does. Without
    /// this, every node starts at the prior.
    #[must_use]
    pub fn availability(mut self, model: AvailabilityModel) -> Self {
        self.availability = model;
        self
    }

    /// Runs the offline phase against `scenario` with the configured
    /// options.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`] variants.
    pub fn prepare(self, scenario: &Scenario) -> Result<PreparedCore, PipelineError> {
        Pipeline::new(self.config).prepare_impl(scenario, self.cache, self.availability)
    }
}

/// The prepared pipeline's former name; kept for `benchmark/`, which is
/// built against it.
pub type PreparedPipeline<'a> = PreparedCore;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::objective::AllocQuery;
    use buildings::scenario::ScenarioConfig;
    use rl::dqn::DqnConfig;

    pub(crate) fn small_scenario() -> Scenario {
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

    pub(crate) fn quick_config() -> PipelineConfig {
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

    pub(crate) fn healthy(prepared: &PreparedCore, method: Method, day: usize) -> DayReport {
        prepared.run(&RunSpec::new(method, day)).unwrap().into_healthy().unwrap()
    }

    #[test]
    fn prepare_validates_day_budget() {
        let s = small_scenario();
        let p = Pipeline::new(PipelineConfig { env_history_days: 8, ..quick_config() });
        assert!(matches!(p.prepare(&s), Err(PipelineError::TooFewDays { .. })));
    }

    #[test]
    fn mesh_topology_runs_end_to_end() {
        let s = small_scenario();
        let cfg =
            PipelineConfig { topology: Topology::Mesh(MeshSpec::new(16, 5)), ..quick_config() };
        let prepared = Pipeline::new(cfg).prepare(&s).unwrap();
        assert!(prepared.cluster().mesh().is_some(), "cluster should be a mesh");
        assert_eq!(prepared.cluster().nodes().len(), 16);
        let day = prepared.test_days().start;
        let a = healthy(&prepared, Method::Dcta, day);
        assert!(a.processing_time_s > 0.0);
        // Same prepared state, same day: mesh rounds are deterministic.
        let b = healthy(&prepared, Method::Dcta, day);
        assert_eq!(a.processing_time_s.to_bits(), b.processing_time_s.to_bits());
    }

    #[test]
    fn all_methods_produce_reports() {
        let s = small_scenario();
        let prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let day = prepared.test_days().start;
        for method in [
            Method::RandomMapping,
            Method::Dml,
            Method::GreedyOracle,
            Method::ExactOracle,
            Method::Crl,
            Method::Dcta,
        ] {
            let r = healthy(&prepared, method, day);
            assert_eq!(r.method, method);
            assert!(r.processing_time_s > 0.0, "{method}: PT = {}", r.processing_time_s);
            assert!((0.0..=1.0).contains(&r.decision_performance), "{method}");
            assert!(r.captured_importance >= 0.0);
        }
    }

    #[test]
    fn baselines_execute_everything_allocators_select() {
        let s = small_scenario();
        let prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let day = prepared.test_days().start;
        let rm = healthy(&prepared, Method::RandomMapping, day);
        let dml = healthy(&prepared, Method::Dml, day);
        let oracle = healthy(&prepared, Method::GreedyOracle, day);
        assert_eq!(rm.scheduled, s.num_tasks());
        assert_eq!(dml.scheduled, s.num_tasks());
        assert!(oracle.scheduled < s.num_tasks(), "oracle must select a subset");
        // It selects; it does not fill: no task that matters nothing runs.
        let truth = prepared.true_importances(day);
        for j in (0..s.num_tasks()).filter(|&j| oracle.allocation.processor_of(j).is_some()) {
            assert!(truth[j] > 0.0, "task {j} of importance {} allocated", truth[j]);
        }
    }

    /// Table I's prediction-accuracy column (column 1 of a local row) is
    /// learnt over the offline days: every task's mean leaves its initial
    /// `0.5`.
    #[test]
    fn prediction_accuracy_column_is_learnt_offline() {
        let s = small_scenario();
        let prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        for (j, row) in prepared.local_rows(prepared.test_days().start).iter().enumerate() {
            assert!(row[1] != 0.5 && (0.0..=1.0).contains(&row[1]), "task {j}: {}", row[1]);
        }
    }

    #[test]
    fn selective_methods_are_faster_than_baselines() {
        let s = small_scenario();
        let prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let day = prepared.test_days().start;
        let rm = healthy(&prepared, Method::RandomMapping, day);
        let dcta = healthy(&prepared, Method::Dcta, day);
        assert!(
            dcta.processing_time_s < rm.processing_time_s,
            "DCTA {} vs RM {}",
            dcta.processing_time_s,
            rm.processing_time_s
        );
    }

    #[test]
    fn oracle_allocations_are_feasible() {
        let s = small_scenario();
        let prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let day = prepared.test_days().start;
        let inst = prepared.instance_for_day(day).unwrap();
        for method in [Method::GreedyOracle, Method::ExactOracle, Method::Crl, Method::Dcta] {
            let alloc = prepared.allocate(&AllocQuery::new(method, day)).unwrap().allocation;
            assert!(
                alloc.is_feasible(inst.tasks(), inst.fleet()),
                "{method}: {:?}",
                alloc.check(inst.tasks(), inst.fleet())
            );
        }
    }

    #[test]
    fn bad_day_rejected() {
        let s = small_scenario();
        let prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        for day in [0, 999] {
            assert!(matches!(
                prepared.run(&RunSpec::new(Method::Dml, day)),
                Err(PipelineError::BadDay { .. })
            ));
        }
    }

    #[test]
    fn bad_importance_overrides_are_rejected_before_any_solve() {
        let s = small_scenario();
        let prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let day = prepared.test_days().start;
        let n = s.num_tasks();
        let mut not_a_number = vec![0.5; n];
        not_a_number[3] = f64::NAN;
        let mut too_large = vec![0.5; n];
        too_large[0] = 1.5;
        for survival in [false, true] {
            for overrides in [vec![0.5; n + 1], not_a_number.clone(), too_large.clone()] {
                let objective =
                    Objective::new().with_importances(overrides).with_survival(survival);
                let query = AllocQuery::new(Method::GreedyOracle, day).with_objective(objective);
                assert!(matches!(
                    prepared.allocate(&query),
                    Err(PipelineError::BadObjective { tasks, .. }) if tasks == n
                ));
            }
        }
        let fine = Objective::new().with_importances(vec![0.5; n]);
        assert!(prepared.run(&RunSpec::new(Method::Dml, day).with_objective(fine)).is_ok());
    }

    #[test]
    fn crl_and_dcta_train_each_context_once() {
        let s = small_scenario();
        let prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let days: Vec<usize> = prepared.test_days().collect();
        let keys = prepared.crl().shared().num_keys();
        assert_eq!(prepared.crl().cached_agents(), 0, "a cold pipeline has trained nothing");
        for method in [Method::Crl, Method::Dcta] {
            for &day in &days {
                healthy(&prepared, method, day);
            }
            // The first touch trained every context, the days' and the rest.
            assert_eq!(prepared.crl().cached_agents(), keys, "after the {method} pass");
        }
        for &day in &days {
            let blind = &prepared.blind;
            let general = prepared.crl().allocate(blind, &s.day(day).sensing).unwrap();
            assert!(general.cache_hit, "day {day}");
        }
    }

    #[test]
    fn pretrain_trains_one_allocator_not_two() {
        let s = small_scenario();
        let prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let day = prepared.test_days().start;
        let agents_trained = prepared.crl().pretrain(&prepared.instance_for_day(day).unwrap());
        assert_eq!(agents_trained, Ok(prepared.crl().shared().num_keys()));
        let agents_trained = agents_trained.unwrap();
        assert!(agents_trained >= 1);
        assert_eq!(prepared.crl().cached_agents(), agents_trained);
        // Neither learned method trains anything further.
        for method in [Method::Crl, Method::Dcta] {
            for day in prepared.test_days() {
                healthy(&prepared, method, day);
            }
        }
        assert_eq!(prepared.crl().cached_agents(), agents_trained);
    }

    #[test]
    fn captured_importance_ordering_favours_oracle() {
        let s = small_scenario();
        let prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let mut oracle_total = 0.0;
        let mut dcta_total = 0.0;
        for day in prepared.test_days() {
            oracle_total += healthy(&prepared, Method::GreedyOracle, day).captured_importance;
            dcta_total += healthy(&prepared, Method::Dcta, day).captured_importance;
        }
        assert!(oracle_total + 1e-9 >= dcta_total * 0.8, "oracle {oracle_total} dcta {dcta_total}");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::tests::{healthy, quick_config, small_scenario};
    use super::*;
    use crate::objective::AllocQuery;

    fn faulted(
        prepared: &PreparedCore,
        method: Method,
        day: usize,
        schedule: &FaultSchedule,
        mode: RecoveryMode,
    ) -> FaultRunReport {
        let spec = RunSpec::new(method, day).with_faults(schedule.clone(), mode);
        prepared.run(&spec).unwrap().into_faulted().unwrap()
    }

    /// The worker hosting the most scheduled tasks — guaranteed to orphan
    /// work when crashed early in the round.
    fn busiest_node(prepared: &PreparedCore, allocation: &Allocation) -> NodeId {
        let mut counts = vec![0usize; prepared.fleet().len()];
        for p in allocation.placement().iter().flatten() {
            counts[*p] += 1;
        }
        let col = (0..counts.len()).max_by_key(|&p| counts[p]).unwrap();
        prepared.fleet().node_of(col)
    }

    #[test]
    fn recovery_retains_most_importance_and_beats_no_recovery() {
        let s = small_scenario();
        let prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let day = prepared.test_days().start;
        let healthy = healthy(&prepared, Method::GreedyOracle, day);
        let alloc =
            prepared.allocate(&AllocQuery::new(Method::GreedyOracle, day)).unwrap().allocation;
        let victim = busiest_node(&prepared, &alloc);
        let schedule =
            FaultSchedule::new().with_crash(victim, healthy.processing_time_s * 0.1).unwrap();

        let resolve =
            faulted(&prepared, Method::GreedyOracle, day, &schedule, RecoveryMode::Resolve);
        let none = faulted(&prepared, Method::GreedyOracle, day, &schedule, RecoveryMode::None);

        assert!(!resolve.failures.is_empty(), "crash left no trace");
        assert_eq!(resolve.down_at_end, vec![victim]);
        assert!(
            resolve.retained_fraction >= 0.8,
            "recovery retained only {:.3}",
            resolve.retained_fraction
        );
        assert!(
            none.delivered_importance < resolve.delivered_importance,
            "no-recovery must retain strictly less: {} vs {}",
            none.delivered_importance,
            resolve.delivered_importance
        );
        assert!(none.retained_fraction < 1.0, "the crash orphaned nothing");
        // The healthy reference matches the plain run of the same method.
        assert!((resolve.healthy_processing_time_s - healthy.processing_time_s).abs() < 1e-9);
        assert!((resolve.healthy_importance - healthy.captured_importance).abs() < 1e-9);
        assert!(resolve.slowdown() >= 1.0, "faults cannot speed the round up");
        // No-recovery skips the re-solve entirely.
        assert_eq!(none.reallocation_latency_s, 0.0);
        assert!(none.shed.is_empty());
        assert!(!none.lost.is_empty());
    }

    #[test]
    fn importance_aware_shedding_beats_random_shedding() {
        let s = small_scenario();
        let prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let day = prepared.test_days().start;
        // Crash every worker but one very early: the single survivor's
        // halved budget cannot host all orphans, forcing real shedding.
        let mut schedule = FaultSchedule::new();
        for col in 1..prepared.fleet().len() {
            let node = prepared.fleet().node_of(col);
            schedule = schedule.with_crash(node, 0.2).unwrap();
        }
        let resolve = faulted(&prepared, Method::Dml, day, &schedule, RecoveryMode::Resolve);
        let random = faulted(&prepared, Method::Dml, day, &schedule, RecoveryMode::RandomShed);
        let none = faulted(&prepared, Method::Dml, day, &schedule, RecoveryMode::None);

        assert!(!resolve.shed.is_empty(), "survivor hosted everything; no shedding exercised");
        // Shed list is reported least-important first.
        let imps = prepared.true_importances(day).to_vec();
        for w in resolve.shed.windows(2) {
            assert!(imps[w[0]] <= imps[w[1]] + 1e-12, "shed order: {:?}", resolve.shed);
        }
        assert!(
            resolve.delivered_importance >= random.delivered_importance - 1e-9,
            "random shedding out-performed the importance-aware re-solve"
        );
        assert!(random.delivered_importance >= none.delivered_importance - 1e-9);
        assert!(resolve.delivered >= random.delivered.min(none.delivered));
    }

    #[test]
    fn fault_runs_check_the_day_range() {
        let s = small_scenario();
        let prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let spec =
            RunSpec::new(Method::Dml, 0).with_faults(FaultSchedule::new(), RecoveryMode::Resolve);
        assert!(matches!(prepared.run(&spec), Err(PipelineError::BadDay { .. })));
    }

    #[test]
    fn empty_schedule_degrades_nothing() {
        let s = small_scenario();
        let prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let day = prepared.test_days().start;
        let r = faulted(&prepared, Method::Dml, day, &FaultSchedule::new(), RecoveryMode::Resolve);
        assert_eq!(r.retained_fraction, 1.0);
        assert!(r.failures.is_empty());
        assert!(r.lost.is_empty());
        assert!(r.shed.is_empty());
        assert_eq!(r.processing_time_s.to_bits(), r.healthy_processing_time_s.to_bits());
        assert_eq!(r.decision_performance.to_bits(), r.healthy_decision_performance.to_bits());
    }
}

#[cfg(test)]
mod online_tests {
    use super::*;
    use buildings::scenario::ScenarioConfig;
    use rl::dqn::DqnConfig;

    #[test]
    fn observe_day_grows_the_environment_stores() {
        let s = Scenario::generate(ScenarioConfig {
            num_buildings: 2,
            chillers_per_building: 2,
            bands_per_chiller: 4,
            num_tasks: 10,
            history_days: 40,
            eval_days: 7,
            ..ScenarioConfig::default()
        })
        .unwrap();
        let mut prepared = Pipeline::new(PipelineConfig {
            workers: 3,
            env_history_days: 4,
            crl: CrlConfig {
                episodes: 5,
                dqn: DqnConfig { hidden: vec![16], ..DqnConfig::default() },
                ..CrlConfig::default()
            },
            ..PipelineConfig::default()
        })
        .prepare(&s)
        .unwrap();
        let day = prepared.test_days().start;
        assert_eq!(prepared.crl().store_len(), 4);
        prepared.observe_day(day).unwrap();
        assert_eq!(prepared.crl().store_len(), 5);
        // Out-of-range observation is rejected.
        assert!(matches!(prepared.observe_day(0), Err(PipelineError::BadDay { .. })));
        // Allocation still works with the grown store.
        assert!(prepared.run(&RunSpec::new(Method::Crl, day + 1)).is_ok());
    }
}
