//! End-to-end orchestration: data → MTL models → importance → allocation →
//! simulated execution.
//!
//! [`Pipeline::prepare`] performs the offline phase once (train the COP
//! models, walk the environment-history days to populate the CRL store and
//! the local process's training set); [`PreparedPipeline::run`] then
//! executes any allocation [`Method`] on any evaluation day and reports the
//! paper's metrics: processing time `PT` and decision performance `H`.

use crate::allocation::Allocation;
use crate::availability::{
    proactive_draw_seed, AvailabilityConfig, AvailabilityModel, ProactiveConfig,
};
use crate::baselines::{dml_balanced, random_mapping};
use crate::cache::{CacheStats, ImportanceCache};
use crate::crl_alloc::CrlAllocator;
use crate::dcta::{DctaAllocator, DctaError};
use crate::features::{local_features, TaskHistory};
use crate::importance::{prediction_features, CopModels, ImportanceError, ImportanceEvaluator};
use crate::local::{LocalError, LocalModelKind, LocalProcess};
use crate::objective::{self, AllocOutcome, AllocQuery, Objective};
use crate::processor::{FleetError, ProcessorFleet};
use crate::recovery::{self, RecoveryError, RecoveryMode};
use crate::task::{EdgeTask, TaskId};
use crate::tatim::{SolverKind, TatimError, TatimInstance, EXACT_ORACLE_NODE_BUDGET};
use buildings::scenario::Scenario;
use edgesim::cluster::{Cluster, ClusterError, MeshSpec};
use edgesim::faults::FaultSchedule;
use edgesim::node::NodeId;
use edgesim::run::{
    simulate, simulate_with_faults, simulate_with_faults_biased, RedispatchPrefs, RetryPolicy,
    SimConfig, SimError, SimTask,
};
use edgesim::trace::node_exposures;
use edgesim::trace::FailureRecord;
use knapsack::portfolio::SolveBudget;
use learn::transfer::MtlConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::crl::{CrlConfig, CrlError};
use std::fmt;
use std::ops::Range;
use std::time::Instant;

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
    /// allocation" of Fig. 3; an oracle, not deployable).
    GreedyOracle,
    /// Exact (node-limited) branch-and-bound over true importances.
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
    /// Shaping of the learned per-node availability posterior
    /// ([`RecoveryMode::Proactive`] runs feed and read it).
    pub availability: AvailabilityConfig,
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
            availability: AvailabilityConfig::default(),
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
    /// fed straight into [`PreparedPipeline::execute`].
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
/// single entry point [`PreparedPipeline::run`] consumes it.
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

/// What [`PreparedPipeline::run`] produced: a plain [`DayReport`] for a
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
    /// offline phase (`.cache(...)`, `.pretrain(true)`) before calling
    /// [`PipelineBuilder::prepare`].
    pub fn builder(config: PipelineConfig) -> PipelineBuilder {
        PipelineBuilder {
            config,
            cache: ImportanceCache::new(),
            pretrain: false,
            availability: None,
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
    pub fn prepare<'a>(
        &self,
        scenario: &'a Scenario,
    ) -> Result<PreparedPipeline<'a>, PipelineError> {
        self.prepare_impl(scenario, ImportanceCache::new(), false, None)
    }

    fn prepare_impl<'a>(
        &self,
        scenario: &'a Scenario,
        cache: ImportanceCache,
        pretrain: bool,
        availability: Option<AvailabilityModel>,
    ) -> Result<PreparedPipeline<'a>, PipelineError> {
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
        if pretrain {
            crl.pretrain(&blind)?;
        }

        Ok(PreparedPipeline {
            scenario,
            state: Prepared {
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
                availability: availability
                    .unwrap_or_else(|| AvailabilityModel::new(cfg.availability)),
            },
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x51AB),
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
/// `Pipeline::new(cfg).prepare(&s)` are interchangeable.
#[derive(Debug)]
pub struct PipelineBuilder {
    config: PipelineConfig,
    cache: ImportanceCache,
    pretrain: bool,
    availability: Option<AvailabilityModel>,
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
    /// this, a fresh model is built from
    /// [`PipelineConfig::availability`].
    #[must_use]
    pub fn availability(mut self, model: AvailabilityModel) -> Self {
        self.availability = Some(model);
        self
    }

    /// Eagerly trains a CRL agent per stored environment during the offline
    /// phase, so the first online allocation of each context — by
    /// [`Method::Crl`] or [`Method::Dcta`], which share the agents — skips
    /// training. It moves work and changes no answer: these are the agents
    /// first touch would have trained. Off by default: it front-loads work
    /// sweeps may never need.
    #[must_use]
    pub fn pretrain(mut self, on: bool) -> Self {
        self.pretrain = on;
        self
    }

    /// Runs the offline phase against `scenario` with the configured
    /// options.
    ///
    /// # Errors
    ///
    /// See [`PipelineError`] variants.
    pub fn prepare<'a>(
        self,
        scenario: &'a Scenario,
    ) -> Result<PreparedPipeline<'a>, PipelineError> {
        Pipeline::new(self.config).prepare_impl(
            scenario,
            self.cache,
            self.pretrain,
            self.availability,
        )
    }
}

/// What [`PreparedPipeline`] and [`crate::shared::PreparedCore`] do
/// differently. The [`crate::shared`] module docs hold the complete list
/// and the reasons; everything else is [`Prepared`], written once.
pub(crate) trait Face {
    /// Whether a [`RecoveryMode::Proactive`] round teaches the availability
    /// posterior.
    const LEARNS_AVAILABILITY: bool;

    /// The [`Method::RandomMapping`] draw of `day` under master seed `seed`.
    fn random_mapping(&mut self, blind: &TatimInstance, seed: u64, day: usize) -> Allocation;
}

/// The batch face is its one sequential `RandomMapping` stream.
impl Face for StdRng {
    const LEARNS_AVAILABILITY: bool = true;

    fn random_mapping(&mut self, blind: &TatimInstance, _seed: u64, _day: usize) -> Allocation {
        random_mapping(blind, self)
    }
}

/// The prepared state both faces embed, and the allocate → simulate →
/// recover → score stack over it.
#[derive(Debug)]
pub(crate) struct Prepared {
    pub(crate) scenario: Scenario,
    pub(crate) config: PipelineConfig,
    models: CopModels,
    cluster: Cluster,
    /// The instance every online allocator decides over: the prepared
    /// tasks and fleet with no importances priced in.
    pub(crate) blind: TatimInstance,
    pub(crate) route_factors: Vec<f64>,
    /// `blind` over the fleet deflated by `route_factors` — what a
    /// route-cost objective solves over.
    blind_routed: TatimInstance,
    pub(crate) true_importances: Vec<Vec<f64>>,
    /// The one general process: [`Method::Crl`]'s allocator, whose outcome
    /// [`Method::Dcta`] feeds to the cooperative step.
    pub(crate) crl: CrlAllocator,
    dcta: DctaAllocator,
    history: TaskHistory,
    pub(crate) cache: ImportanceCache,
    pub(crate) availability: AvailabilityModel,
}

impl Prepared {
    pub(crate) fn fleet(&self) -> &ProcessorFleet {
        self.blind.fleet()
    }

    pub(crate) fn test_days(&self) -> Range<usize> {
        self.config.env_history_days..self.scenario.days().len()
    }

    pub(crate) fn check_day(&self, day: usize) -> Result<(), PipelineError> {
        let range = self.test_days();
        if !range.contains(&day) {
            return Err(PipelineError::BadDay { day, range });
        }
        Ok(())
    }

    pub(crate) fn instance_for_day(&self, day: usize) -> Result<TatimInstance, PipelineError> {
        self.check_day(day)?;
        Ok(self.blind.with_importances(&self.true_importances[day]))
    }

    pub(crate) fn local_rows(&self, day: usize) -> Vec<Vec<f64>> {
        let ctx = self.scenario.day(day);
        (0..self.blind.num_tasks())
            .map(|j| local_features(&self.scenario, &self.models, &self.history, ctx, j))
            .collect()
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

    pub(crate) fn allocate<F: Face>(
        &self,
        face: &mut F,
        query: &AllocQuery,
    ) -> Result<AllocOutcome, PipelineError> {
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
                None => self.plain_allocation(face, method, day, blind, None, &mut certificate)?,
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
            self.plain_allocation(face, method, day, blind, obj.importances(), &mut certificate)?
        };
        Ok(AllocOutcome { allocation, overhead_s: start.elapsed().as_secs_f64(), certificate })
    }

    /// The classic per-method dispatch: importances from `overrides` when
    /// set, else the day's true importances (oracles) or the method's own
    /// estimates (CRL/DCTA).
    fn plain_allocation<F: Face>(
        &self,
        face: &mut F,
        method: Method,
        day: usize,
        blind: &TatimInstance,
        overrides: Option<&[f64]>,
        certificate: &mut Option<SolveCertificate>,
    ) -> Result<Allocation, PipelineError> {
        let ctx = self.scenario.day(day);
        let importances = overrides.unwrap_or(&self.true_importances[day]);
        Ok(match method {
            Method::RandomMapping => face.random_mapping(blind, self.config.seed, day),
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

    pub(crate) fn run<F: Face>(
        &self,
        face: &mut F,
        spec: &RunSpec,
    ) -> Result<RunReport, PipelineError> {
        match &spec.faults {
            None => {
                let query =
                    AllocQuery::new(spec.method, spec.day).with_objective(spec.objective.clone());
                let out = self.allocate(face, &query)?;
                let mut report =
                    self.execute(spec.method, spec.day, out.allocation, out.overhead_s)?;
                report.solver = out.certificate;
                Ok(RunReport::Healthy(report))
            }
            Some((schedule, mode)) => {
                let report = self.run_faulted(face, spec, schedule, *mode)?;
                Ok(RunReport::Faulted(Box::new(report)))
            }
        }
    }

    pub(crate) fn execute(
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
    /// `edgesim`-level facility configured via [`SimConfig::retry`].
    fn run_faulted<F: Face>(
        &self,
        face: &mut F,
        spec: &RunSpec,
        schedule: &FaultSchedule,
        mode: RecoveryMode,
    ) -> Result<FaultRunReport, PipelineError> {
        let (method, day) = (spec.method, spec.day);
        self.check_day(day)?;
        // Proactive mode shapes the *initial* allocation with the learned
        // availability posterior (survival weighting forced on); every
        // other mode allocates with the spec's objective as-is and differs
        // only in its reaction.
        let survival = spec.objective.survival() || mode == RecoveryMode::Proactive;
        let objective = spec.objective.clone().with_survival(survival);
        let allocation = self
            .allocate(face, &AllocQuery::new(method, day).with_objective(objective.clone()))?
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

        // A learning face absorbs the round's failure history as an
        // exposure observation and advances the posterior one round. The
        // other modes leave the model untouched, so reactive arms of a
        // sweep stay bit-identical to their pre-availability behaviour.
        if mode == RecoveryMode::Proactive && F::LEARNS_AVAILABILITY {
            let nodes: Vec<NodeId> = self.fleet().processors().iter().map(|p| p.node).collect();
            let horizon = faulted.processing_time.max(1e-9);
            self.availability.absorb(&node_exposures(&faulted.failures, &nodes, horizon));
            self.availability.advance_round();
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

/// The pipeline after its offline phase: ready to allocate and execute any
/// evaluation day.
///
/// It holds one general process: [`Method::Dcta`] feeds [`Method::Crl`]'s
/// outcome to the cooperative step, so whichever request touches a context
/// first trains the agent both then use — and, agents being seeded per
/// context, trains the same agent any other request would have (DESIGN.md
/// §21, `tests/touch_order.rs`).
#[derive(Debug)]
pub struct PreparedPipeline<'a> {
    scenario: &'a Scenario,
    state: Prepared,
    rng: StdRng,
}

impl<'a> PreparedPipeline<'a> {
    /// The evaluation (non-history) day range.
    pub fn test_days(&self) -> Range<usize> {
        self.state.test_days()
    }

    /// The scenario under evaluation.
    pub fn scenario(&self) -> &'a Scenario {
        self.scenario
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.state.cluster
    }

    /// Mutable cluster access (bandwidth sweeps).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.state.cluster
    }

    /// The processor fleet.
    pub fn fleet(&self) -> &ProcessorFleet {
        self.state.fleet()
    }

    /// The trained COP models.
    pub fn models(&self) -> &CopModels {
        &self.state.models
    }

    /// The pipeline's shared decision-performance cache.
    pub fn importance_cache(&self) -> &ImportanceCache {
        &self.state.cache
    }

    /// Hit/miss counters of the decision-performance cache — part of the
    /// pipeline's run summary alongside PT and `H`.
    pub fn cache_stats(&self) -> CacheStats {
        self.state.cache.stats()
    }

    /// The learned per-node availability posterior. Interior-mutable:
    /// callers may [`AvailabilityModel::absorb`] external failure history
    /// or persist it ([`AvailabilityModel::save_file`]) through `&self`.
    /// [`RecoveryMode::Proactive`] runs feed it automatically.
    pub fn availability(&self) -> &AvailabilityModel {
        &self.state.availability
    }

    /// True importances of evaluation day `day`.
    ///
    /// # Panics
    ///
    /// Panics if `day` is out of range.
    pub fn true_importances(&self, day: usize) -> &[f64] {
        &self.state.true_importances[day]
    }

    /// The TATIM instance of a day, priced with its true importances.
    ///
    /// # Errors
    ///
    /// [`PipelineError::BadDay`] for out-of-range days.
    pub fn instance_for_day(&self, day: usize) -> Result<TatimInstance, PipelineError> {
        self.state.instance_for_day(day)
    }

    /// The general process (store size, trained agents, per-key agents).
    pub fn crl(&self) -> &CrlAllocator {
        &self.state.crl
    }

    /// The cooperative step [`Method::Dcta`] applies to the general
    /// process's outcome.
    pub fn dcta(&self) -> &DctaAllocator {
        &self.state.dcta
    }

    /// The Table-I local feature rows of day `day` (DCTA's `F2` input).
    ///
    /// # Panics
    ///
    /// Panics if `day` is not a scenario day.
    pub fn local_rows(&self, day: usize) -> Vec<Vec<f64>> {
        self.state.local_rows(day)
    }

    /// Produces the allocation described by `query`: `query.method()` on
    /// `query.day()`, shaped by the typed [`Objective`] — importance
    /// overrides, survival weighting (the proactive path), and route-cost
    /// budget deflation (the topology-aware path), each independently
    /// optional. A blank objective reproduces the classic per-method
    /// behaviour bit-for-bit; on the uniform star testbed every route
    /// budget factor is exactly `1.0`, so enabling route cost there is
    /// also a bitwise no-op (see [`crate::objective`]).
    ///
    /// # Errors
    ///
    /// [`PipelineError::BadObjective`] for an importance override of the
    /// wrong length or with an entry outside `[0, 1]`; otherwise see
    /// [`PipelineError`] variants.
    pub fn allocate(&mut self, query: &AllocQuery) -> Result<AllocOutcome, PipelineError> {
        self.state.allocate(&mut self.rng, query)
    }

    /// The per-processor route budget factors of the prepared cluster
    /// (`1.0` everywhere on the uniform star testbed), aligned with
    /// [`Self::fleet`] columns.
    pub fn route_factors(&self) -> &[f64] {
        &self.state.route_factors
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
        self.state.check_day(day)?;
        let sensing = self.scenario.day(day).sensing.clone();
        Ok(self.state.crl.observe(sensing, self.state.true_importances[day].clone())?)
    }

    /// Executes one evaluation run described by `spec`. A fault-free spec
    /// yields [`RunReport::Healthy`]; a spec with a schedule yields
    /// [`RunReport::Faulted`] (allocate, run under the schedule, re-plan
    /// per its [`RecoveryMode`]; DESIGN.md §9).
    ///
    /// # Errors
    ///
    /// See [`PipelineError`] variants.
    pub fn run(&mut self, spec: &RunSpec) -> Result<RunReport, PipelineError> {
        self.state.run(&mut self.rng, spec)
    }

    /// Executes a pre-computed allocation (used by sweeps that vary the
    /// cluster between allocation and execution).
    ///
    /// # Errors
    ///
    /// See [`PipelineError`] variants.
    pub fn execute(
        &mut self,
        method: Method,
        day: usize,
        allocation: Allocation,
        allocator_overhead_s: f64,
    ) -> Result<DayReport, PipelineError> {
        self.state.execute(method, day, allocation, allocator_overhead_s)
    }

    /// Freezes this pipeline into a [`crate::shared::PreparedCore`] — the
    /// `Send + Sync`, `&self`-only form a serving layer shares across
    /// request threads. The prepared state moves over as it is, every agent
    /// already trained included, so for every method except
    /// [`Method::RandomMapping`] the core's runs are bit-identical to this
    /// pipeline's (the `shared` module docs list what differs).
    ///
    /// # Errors
    ///
    /// None: whatever could fail already did in `prepare`. The `Result` is
    /// what callers have always unwrapped.
    pub fn into_core(self) -> Result<crate::shared::PreparedCore, PipelineError> {
        Ok(crate::shared::PreparedCore { state: self.state })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
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

    pub(crate) fn healthy(
        prepared: &mut PreparedPipeline<'_>,
        method: Method,
        day: usize,
    ) -> DayReport {
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
        let mut prepared = Pipeline::new(cfg).prepare(&s).unwrap();
        assert!(prepared.cluster().mesh().is_some(), "cluster should be a mesh");
        assert_eq!(prepared.cluster().nodes().len(), 16);
        let day = prepared.test_days().start;
        let a = healthy(&mut prepared, Method::Dcta, day);
        assert!(a.processing_time_s > 0.0);
        // Same prepared state, same day: mesh rounds are deterministic.
        let b = healthy(&mut prepared, Method::Dcta, day);
        assert_eq!(a.processing_time_s.to_bits(), b.processing_time_s.to_bits());
    }

    #[test]
    fn all_methods_produce_reports() {
        let s = small_scenario();
        let mut prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let day = prepared.test_days().start;
        for method in [
            Method::RandomMapping,
            Method::Dml,
            Method::GreedyOracle,
            Method::ExactOracle,
            Method::Crl,
            Method::Dcta,
        ] {
            let r = healthy(&mut prepared, method, day);
            assert_eq!(r.method, method);
            assert!(r.processing_time_s > 0.0, "{method}: PT = {}", r.processing_time_s);
            assert!((0.0..=1.0).contains(&r.decision_performance), "{method}");
            assert!(r.captured_importance >= 0.0);
        }
    }

    #[test]
    fn baselines_execute_everything_allocators_select() {
        let s = small_scenario();
        let mut prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let day = prepared.test_days().start;
        let rm = healthy(&mut prepared, Method::RandomMapping, day);
        let dml = healthy(&mut prepared, Method::Dml, day);
        let oracle = healthy(&mut prepared, Method::GreedyOracle, day);
        assert_eq!(rm.scheduled, s.num_tasks());
        assert_eq!(dml.scheduled, s.num_tasks());
        assert!(oracle.scheduled < s.num_tasks(), "oracle must select a subset");
    }

    #[test]
    fn selective_methods_are_faster_than_baselines() {
        let s = small_scenario();
        let mut prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let day = prepared.test_days().start;
        let rm = healthy(&mut prepared, Method::RandomMapping, day);
        let dcta = healthy(&mut prepared, Method::Dcta, day);
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
        let mut prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
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
        let mut prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
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
        let mut prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
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
        let mut prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let days: Vec<usize> = prepared.test_days().collect();
        // Distinct contexts: the keys the days' signatures resolve to.
        let key =
            |d: usize| prepared.crl().shared().define_environment(&s.day(d).sensing).unwrap().0;
        let mut contexts: Vec<usize> = days.iter().map(|&d| key(d)).collect();
        contexts.sort_unstable();
        contexts.dedup();
        assert_eq!(prepared.crl().cached_agents(), 0, "a cold pipeline has trained nothing");
        for method in [Method::Crl, Method::Dcta] {
            for &day in &days {
                healthy(&mut prepared, method, day);
            }
            assert_eq!(prepared.crl().cached_agents(), contexts.len(), "after the {method} pass");
        }
        for &day in &days {
            let blind = &prepared.state.blind;
            let general = prepared.crl().allocate(blind, &s.day(day).sensing).unwrap();
            let out = prepared.dcta().allocate(blind, general, &prepared.local_rows(day)).unwrap();
            assert!(out.crl.cache_hit, "day {day}");
        }
    }

    #[test]
    fn pretrain_trains_one_allocator_not_two() {
        let s = small_scenario();
        let mut prepared = Pipeline::builder(quick_config()).pretrain(true).prepare(&s).unwrap();
        let agents_trained = prepared.crl().shared().num_keys();
        assert!(agents_trained >= 1);
        assert_eq!(prepared.crl().cached_agents(), agents_trained);
        // Neither learned method trains anything further.
        for method in [Method::Crl, Method::Dcta] {
            for day in prepared.test_days() {
                healthy(&mut prepared, method, day);
            }
        }
        assert_eq!(prepared.crl().cached_agents(), agents_trained);
    }

    #[test]
    fn captured_importance_ordering_favours_oracle() {
        let s = small_scenario();
        let mut prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let mut oracle_total = 0.0;
        let mut dcta_total = 0.0;
        for day in prepared.test_days() {
            oracle_total += healthy(&mut prepared, Method::GreedyOracle, day).captured_importance;
            dcta_total += healthy(&mut prepared, Method::Dcta, day).captured_importance;
        }
        assert!(oracle_total + 1e-9 >= dcta_total * 0.8, "oracle {oracle_total} dcta {dcta_total}");
    }
}

#[cfg(test)]
mod fault_tests {
    use super::tests::{healthy, quick_config, small_scenario};
    use super::*;

    fn faulted(
        prepared: &mut PreparedPipeline<'_>,
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
    fn busiest_node(prepared: &PreparedPipeline<'_>, allocation: &Allocation) -> NodeId {
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
        let mut prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let day = prepared.test_days().start;
        let healthy = healthy(&mut prepared, Method::GreedyOracle, day);
        let alloc =
            prepared.allocate(&AllocQuery::new(Method::GreedyOracle, day)).unwrap().allocation;
        let victim = busiest_node(&prepared, &alloc);
        let schedule =
            FaultSchedule::new().with_crash(victim, healthy.processing_time_s * 0.1).unwrap();

        let resolve =
            faulted(&mut prepared, Method::GreedyOracle, day, &schedule, RecoveryMode::Resolve);
        let none = faulted(&mut prepared, Method::GreedyOracle, day, &schedule, RecoveryMode::None);

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
        let mut prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let day = prepared.test_days().start;
        // Crash every worker but one very early: the single survivor's
        // halved budget cannot host all orphans, forcing real shedding.
        let mut schedule = FaultSchedule::new();
        for col in 1..prepared.fleet().len() {
            let node = prepared.fleet().node_of(col);
            schedule = schedule.with_crash(node, 0.2).unwrap();
        }
        let resolve = faulted(&mut prepared, Method::Dml, day, &schedule, RecoveryMode::Resolve);
        let random = faulted(&mut prepared, Method::Dml, day, &schedule, RecoveryMode::RandomShed);
        let none = faulted(&mut prepared, Method::Dml, day, &schedule, RecoveryMode::None);

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
        let mut prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let spec =
            RunSpec::new(Method::Dml, 0).with_faults(FaultSchedule::new(), RecoveryMode::Resolve);
        assert!(matches!(prepared.run(&spec), Err(PipelineError::BadDay { .. })));
    }

    #[test]
    fn empty_schedule_degrades_nothing() {
        let s = small_scenario();
        let mut prepared = Pipeline::new(quick_config()).prepare(&s).unwrap();
        let day = prepared.test_days().start;
        let r =
            faulted(&mut prepared, Method::Dml, day, &FaultSchedule::new(), RecoveryMode::Resolve);
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
