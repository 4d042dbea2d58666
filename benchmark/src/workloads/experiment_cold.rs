//! `experiment_cold`: one reproduction cell — what every sweep point of
//! `reproduce` (Figs. 9–11) pays. `prepare` against an empty cache, then
//! every method on every evaluation day through the `&mut PreparedPipeline`
//! twin. First-touch CRL/DCTA training is nearly the whole cell, so this is
//! where `learn` kernels, `rl::dqn::learn_step` and `rl::crl` show, and where
//! `edgesim`, `knapsack` and `serve` do almost nothing.

use super::SingleClient;
use crate::harness::{
    probe_ns, stream_rng, BoxError, Metrics, OpOutcome, Quality, RunConfig, Stages, WARMUP_SEED,
};
use crate::stats;
use crate::trace::{self, Span, SpanId, Tracer};
use rand::Rng;
use std::collections::BTreeMap;
use std::time::Instant;
use tatim::buildings::scenario::{Scenario, ScenarioConfig};
use tatim::core::cache::ImportanceCache;
use tatim::core::crl_alloc::CrlAllocator;
use tatim::core::features::{local_features, TaskHistory};
use tatim::core::importance::{prediction_features, CopModels, ImportanceEvaluator};
use tatim::core::local::LocalProcess;
use tatim::core::pipeline::{
    DayReport, Method, Pipeline, PipelineConfig, PreparedPipeline, RunSpec,
};
use tatim::core::tatim::SolverKind;
use tatim::learn::linalg::Matrix;
use tatim::rl::alloc_env::AllocEnv;
use tatim::rl::crl::CrlConfig;
use tatim::rl::dqn::{DqnAgent, DqnConfig};
use tatim::rl::mdp::Environment;

/// The canonical paper scenario (`bench::common::paper_scenario`'s seed).
/// The scenario is the workload's; `--seed` drives the per-cell configs.
pub const SCENARIO_SEED: u64 = 0xDC7A;
const STREAM_CELLS: u64 = 21;

const METHODS: [Method; 6] = [
    Method::RandomMapping,
    Method::Dml,
    Method::Crl,
    Method::Dcta,
    Method::GreedyOracle,
    Method::ExactOracle,
];

/// RM and DML run every task and ignore the Eq.-3 budgets by design; the
/// other four must respect them.
fn budgeted(method: Method) -> bool {
    !matches!(method, Method::RandomMapping | Method::Dml)
}

pub fn scenario(config: &RunConfig, seed: u64) -> Result<Scenario, BoxError> {
    Ok(Scenario::generate(ScenarioConfig {
        num_tasks: config.pick(50, 12),
        history_days: config.pick(90, 30),
        eval_days: config.pick(10, 6),
        seed,
        ..ScenarioConfig::default()
    })?)
}

/// The pipeline configuration of a cell or tenant: the paper pipeline in
/// its quick shape (`bench::common::paper_pipeline`), PT a pure function.
pub fn pipeline_config(seed: u64, episodes: usize) -> PipelineConfig {
    PipelineConfig {
        env_history_days: 4,
        crl: CrlConfig {
            episodes,
            dqn: DqnConfig { hidden: vec![48], ..DqnConfig::default() },
            seed: seed ^ 0x17,
            ..CrlConfig::default()
        },
        include_allocation_overhead: false,
        seed,
        ..PipelineConfig::default()
    }
}

pub struct Cell {
    seed: u64,
    episodes: usize,
    scenario: Scenario,
    /// Decision-function evaluations (cache misses) of cell 0.
    evals: Option<u64>,
}

impl Cell {
    /// Cell `i`'s configuration: its own pipeline and CRL seeds.
    fn config(&self, i: u64) -> PipelineConfig {
        pipeline_config(stream_rng(self.seed, STREAM_CELLS, i).gen(), self.episodes)
    }

    fn specs(prepared: &PreparedPipeline<'_>) -> Vec<RunSpec> {
        METHODS
            .iter()
            .flat_map(|&m| prepared.test_days().map(move |d| RunSpec::new(m, d)))
            .collect()
    }
}

/// Checks one cell's reports and sums their quality: budgeted methods
/// feasible, ExactOracle's certificate sound, and a proved optimum at least
/// as good as every other feasible allocation of that day.
fn check_cell(
    prepared: &PreparedPipeline<'_>,
    reports: &[DayReport],
) -> (Result<(), String>, Quality) {
    let mut quality = Quality::default();
    let mut verdict = Ok(());
    let mut fail = |why: String| {
        if verdict.is_ok() {
            verdict = Err(why);
        }
    };
    let mut best_feasible: BTreeMap<usize, f64> = BTreeMap::new();
    for r in reports {
        let total: f64 = prepared.true_importances(r.day).iter().sum();
        quality.add_captured(r.captured_importance, total);
        quality.add_pt(r.processing_time_s);
        if !(r.processing_time_s.is_finite() && r.processing_time_s > 0.0) {
            fail(format!("{} day {}: PT {}", r.method, r.day, r.processing_time_s));
        }
        if !budgeted(r.method) {
            continue;
        }
        match prepared.instance_for_day(r.day) {
            Ok(inst) if r.allocation.is_feasible(inst.tasks(), inst.fleet()) => {
                let best = best_feasible.entry(r.day).or_insert(0.0);
                *best = best.max(r.captured_importance);
            }
            Ok(_) => fail(format!("{} day {}: infeasible allocation", r.method, r.day)),
            Err(e) => fail(format!("day {}: {e}", r.day)),
        }
    }
    for r in reports.iter().filter(|r| r.method == Method::ExactOracle) {
        let Some(cert) = r.solver else {
            fail(format!("ExactOracle day {}: no certificate", r.day));
            continue;
        };
        let slack = 1e-9 * cert.upper_bound.abs().max(1.0);
        if r.captured_importance > cert.upper_bound + slack {
            fail(format!("ExactOracle day {}: objective above its upper bound", r.day));
        }
        let best = best_feasible.get(&r.day).copied().unwrap_or(0.0);
        if cert.proved_optimal && r.captured_importance + slack < best {
            fail(format!(
                "ExactOracle day {}: proved optimum {} below {best}",
                r.day, r.captured_importance
            ));
        }
    }
    (verdict, quality)
}

impl SingleClient for Cell {
    const WARMUP: u64 = 1;

    fn min_ops(config: &RunConfig) -> u64 {
        config.pick(6, 2)
    }

    fn build(config: &RunConfig, stages: &mut Stages) -> Result<Self, BoxError> {
        let scenario = stages.time("buildings.generate_ms", || scenario(config, SCENARIO_SEED))?;
        let mut cell =
            Self { seed: WARMUP_SEED, episodes: config.pick(5, 1), scenario, evals: None };
        let mut off = Tracer::new(false, Instant::now());
        cell.op(u64::MAX, &mut off).verdict?;
        cell.seed = config.seed;
        Ok(cell)
    }

    fn op(&mut self, i: u64, tracer: &mut Tracer) -> OpOutcome {
        let cfg = self.config(i);

        let root = tracer.root(i);
        let start = Instant::now();
        let span = tracer.begin("core.pipeline.prepare", root, i);
        let prepared = Pipeline::builder(cfg).prepare(&self.scenario);
        tracer.end(span);
        let mut prepared = match prepared {
            Ok(p) => p,
            Err(e) => {
                return OpOutcome::failed(
                    start.elapsed().as_nanos() as u64,
                    format!("prepare: {e}"),
                )
            }
        };
        let specs = Self::specs(&prepared);
        let mut reports = Vec::with_capacity(specs.len());
        let mut run_spans: Vec<SpanId> = Vec::with_capacity(specs.len());
        for spec in &specs {
            let learned = matches!(spec.method(), Method::Crl | Method::Dcta);
            let name =
                if learned { "core.pipeline.run.learned" } else { "core.pipeline.run.other" };
            let span = tracer.begin(name, root, i);
            let report = prepared.run(spec);
            tracer.end(span);
            run_spans.push(span);
            match report.map(|r| r.into_healthy()) {
                Ok(Some(r)) => reports.push(r),
                Ok(None) => return OpOutcome::failed(0, "healthy spec produced a fault report"),
                Err(e) => {
                    let ns = start.elapsed().as_nanos() as u64;
                    return OpOutcome::failed(
                        ns,
                        format!("{} day {}: {e}", spec.method(), spec.day()),
                    );
                }
            }
        }
        let latency_ns = start.elapsed().as_nanos() as u64;
        tracer.end(root);

        if tracer.enabled() {
            // A repeat of each spec is a warm run; the first run's excess
            // over it is first-touch training (self time of the cold span).
            for (spec, &cold) in specs.iter().zip(&run_spans) {
                let span = tracer.begin_replay("core.pipeline.run.warm", cold, i);
                let _ = std::hint::black_box(prepared.run(spec));
                tracer.end(span);
            }
        } else if i == 0 {
            self.evals = Some(prepared.cache_stats().misses);
        }
        let (verdict, quality) = check_cell(&prepared, &reports);
        OpOutcome { latency_ns, verdict, quality }
    }

    fn layers(&mut self, spans: &[Span], metrics: &mut Metrics) -> Result<(), BoxError> {
        metrics.set_from_spans("core.pipeline.prepare_ms", spans, "core.pipeline.prepare", 1e6);
        metrics.set_from_spans("core.pipeline.warm_run_us", spans, "core.pipeline.run.warm", 1e3);
        // First-touch training per cell: what the learned methods' first
        // runs cost beyond their warm repeats.
        let mut per_cell: BTreeMap<u64, f64> = BTreeMap::new();
        for (span, self_ns) in spans.iter().zip(trace::self_times_ns(spans)) {
            if span.name == "core.pipeline.run.learned" {
                *per_cell.entry(span.op_id).or_default() += self_ns as f64 / 1e6;
            }
        }
        let cells: Vec<f64> = per_cell.into_values().collect();
        metrics.set("core.pipeline.first_touch_run_ms", stats::median(&cells), cells.len());
        if let Some(evals) = self.evals {
            metrics.set("core.cache.evals", evals as f64, 1);
        }

        // Single layer calls on the cell's own inputs.
        let cfg = self.config(0);
        let scenario = &self.scenario;
        metrics.set_probe(
            "learn.cop_train_ms",
            probe_ns(3, 10, 0.3, || {
                std::hint::black_box(
                    CopModels::train(scenario, cfg.mtl).expect("COP models train"),
                );
            }),
            1e6,
        );
        let prepared = Pipeline::builder(cfg.clone()).prepare(scenario)?;
        let models = prepared.models();
        metrics.set_probe(
            "core.importance.matrix_cold_ms",
            probe_ns(3, 10, 0.3, || {
                let cache = ImportanceCache::new();
                let evaluator = ImportanceEvaluator::new(scenario, models).with_cache(&cache);
                std::hint::black_box(evaluator.importance_matrix().expect("importance matrix"));
            }),
            1e6,
        );
        let cache = ImportanceCache::new();
        let evaluator = ImportanceEvaluator::new(scenario, models).with_cache(&cache);
        let matrix = evaluator.importance_matrix()?;
        metrics.set_probe(
            "core.importance.matrix_warm_ms",
            probe_ns(3, 50, 0.2, || {
                std::hint::black_box(evaluator.importance_matrix().expect("importance matrix"));
            }),
            1e6,
        );

        let day0 = prepared.test_days().start;
        let base = prepared.instance_for_day(day0)?;
        let (rows, labels) =
            local_training_set(scenario, models, &matrix, &prepared, cfg.env_history_days)?;
        metrics.set_probe(
            "core.local.train_ms",
            probe_ns(3, 20, 0.3, || {
                let local =
                    LocalProcess::train(rows.clone(), labels.clone(), cfg.local_kind, cfg.seed);
                std::hint::black_box(local.expect("local process trains"));
            }),
            1e6,
        );

        // CRL pre-training over the cell's store (the history days).
        let mut trained = 0;
        metrics.set_probe(
            "rl.crl.pretrain_ms",
            probe_ns(1, 3, 1.0, || {
                let mut crl = CrlAllocator::new(cfg.crl.clone());
                for (d, importances) in matrix.iter().enumerate().take(cfg.env_history_days) {
                    crl.observe(scenario.day(d).sensing.clone(), importances.clone())
                        .expect("store accepts the day");
                }
                trained = crl.pretrain(&base).expect("CRL pre-trains");
            }),
            1e6,
        );
        metrics.set("rl.crl.agents_trained", trained as f64, 1);

        // The DQN's minibatch update on a warm replay buffer, and the
        // matmul at its hidden-layer shapes (batch 32, 48 hidden units).
        let mut env = AllocEnv::new(base.to_alloc_spec())?;
        let mut rng = stream_rng(self.seed, STREAM_CELLS, u64::MAX);
        let mut agent =
            DqnAgent::new(env.state_dim(), env.num_actions(), cfg.crl.dqn.clone(), &mut rng)?;
        // Enough episodes (about one step per task each) to fill the replay
        // past the batch size, below which `learn_step` is a no-op.
        for _ in 0..(4 * cfg.crl.dqn.batch_size).div_ceil(scenario.num_tasks()) {
            agent.train_episode(&mut env, &mut rng)?;
        }
        metrics.set_probe(
            "rl.dqn.learn_step_us",
            probe_ns(50, 2000, 0.3, || {
                agent.learn_step(&mut rng).expect("learn step");
            }),
            1e3,
        );
        let batch = cfg.crl.dqn.batch_size;
        let mut fill = |rows: usize, cols: usize| {
            let data = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            Matrix::from_vec(rows, cols, data).expect("length matches")
        };
        let (a, b) = (fill(batch, env.state_dim()), fill(env.state_dim(), 48));
        metrics.set_probe(
            "learn.matmul48_us",
            probe_ns(50, 5000, 0.2, || {
                std::hint::black_box(
                    std::hint::black_box(&a)
                        .matmul(std::hint::black_box(&b))
                        .expect("shapes agree"),
                );
            }),
            1e3,
        );
        Ok(())
    }
}

/// The local process's training set, built as `prepare` builds it: per
/// history day, every task's Table-I features labelled by the greedy
/// oracle's selection, the rolling history updated after each day.
fn local_training_set(
    scenario: &Scenario,
    models: &CopModels,
    matrix: &[Vec<f64>],
    prepared: &PreparedPipeline<'_>,
    history_days: usize,
) -> Result<(Vec<Vec<f64>>, Vec<f64>), BoxError> {
    let n = scenario.num_tasks();
    let base = prepared.instance_for_day(prepared.test_days().start)?;
    let mut history = TaskHistory::new(n);
    let (mut rows, mut labels) = (Vec::new(), Vec::new());
    for (d, importances) in matrix.iter().enumerate().take(history_days) {
        let day = scenario.day(d);
        let chosen = base.with_importances(importances).solve(&SolverKind::Greedy)?.allocation;
        let selected: Vec<bool> = (0..n).map(|j| chosen.processor_of(j).is_some()).collect();
        for (j, &picked) in selected.iter().enumerate() {
            rows.push(local_features(scenario, models, &history, day, j));
            labels.push(if picked { 1.0 } else { -1.0 });
        }
        history.record_selection(&selected);
        for (j, spec) in scenario.tasks().iter().enumerate() {
            let plant = scenario.plant(spec.building);
            let chiller = &plant.chillers()[spec.chiller];
            let bands = scenario.config().bands_per_chiller;
            if let Some(mid) = plant.band_midpoint_kw(spec.chiller, spec.band, bands) {
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
    Ok((rows, labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Workload;

    #[test]
    fn cell_configs_are_pure_functions_of_seed_and_index() {
        let config = RunConfig {
            workload: Workload::ExperimentCold,
            seed: 3,
            seconds: 0.1,
            quick: true,
            traced: false,
            single_core: false,
        };
        let cell = |seed| Cell {
            seed,
            episodes: 1,
            scenario: scenario(&config, SCENARIO_SEED).unwrap(),
            evals: None,
        };
        let (a, b) = (cell(3), cell(4));
        assert_eq!(a.config(2), a.config(2));
        assert_ne!(a.config(2).seed, a.config(3).seed);
        assert_ne!(a.config(2).seed, b.config(2).seed);
        assert_eq!(a.config(2).crl.seed, a.config(2).seed ^ 0x17);
    }
}
