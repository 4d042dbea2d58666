//! `serve_mixed`: closed-loop clients calling `ServicePool::submit(..).wait()`
//! against two warmed tenants — controllers call and wait for an allocation,
//! hence a closed loop. Training happens in set-up, so the op is pure
//! serving: the `serve` queue and registry, `rl::batcher::QBatcher`, the
//! `&self` twin `core::shared::PreparedCore::{allocate, execute}`, small
//! `knapsack` solves and `edgesim` star rounds.
//!
//! One stream mixes request kinds that use the same core layer differently:
//! compute-bound `Run`s beside `QValues` probes whose latency is mostly the
//! batcher's 100 µs deadline, and fault-recovery re-solves beside healthy
//! runs — a gain for one kind that costs another shows in `op_ms_p99`.
//!
//! Every answer must equal the direct `handle` answer computed at set-up for
//! its (tenant, kind, day): the serving layer's bit-identity contract, minus
//! the measured re-allocation wall clock inside a fault report.

use super::experiment_cold::{pipeline_config, scenario};
use super::{finish_trace, new_result, REFERENCE_SHARE, TRACED_SHARE};
use crate::harness::{
    clients, closed_loop, repeat_setup, stream_rng, BoxError, Metrics, OpOutcome, Phase, Quality,
    RunConfig, RunResult, Stages,
};
use crate::host;
use crate::stats;
use crate::trace::{Span, SpanId, Tracer};
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tatim::core::objective::AllocQuery;
use tatim::core::pipeline::{FaultRunReport, Method, Pipeline, RunReport, RunSpec};
use tatim::core::recovery::RecoveryMode;
use tatim::core::shared::PreparedCore;
use tatim::core::tatim::{SolverKind, EXACT_ORACLE_NODE_BUDGET};
use tatim::edgesim::cluster::Cluster;
use tatim::edgesim::faults::FaultSchedule;
use tatim::edgesim::node::NodeId;
use tatim::edgesim::run::{simulate, SimTask};
use tatim::knapsack::portfolio::SolveBudget;
use tatim::rl::alloc_env::{AllocEnv, AllocSpec};
use tatim::rl::mdp::Environment;
use tatim::serve::pool::ServicePool;
use tatim::serve::{AllocRequest, AllocResponse, AllocatorService, Query};

/// The two tenants' scenario and pipeline seeds: fixed, like the tenants of
/// a running service; `--seed` drives the request stream and the faults.
const TENANT_SEEDS: [u64; 2] = [0xDC7A, 0x7E4A];
const TENANTS: [&str; 2] = ["plant-a", "plant-b"];

/// One op in this many of a traced phase is traced. Replays run on the
/// client's thread while the workers are busy with the other clients'
/// requests, so they slow those down: explaining one op in sixteen keeps the
/// traced stream close to the real one. (`--quick` phases are too short to
/// sample: they trace every op.)
const TRACE_EVERY: u64 = 16;

const STREAM_REQUESTS: u64 = 31;
const STREAM_FAULTS: u64 = 32;

/// What a request asks, in the order the reference table is laid out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    RunDcta,
    RunCrl,
    RunExact,
    RunFaulted,
    DecisionDcta,
    DecisionGreedy,
    QValues,
}

use Kind::{DecisionDcta, DecisionGreedy, QValues, RunCrl, RunDcta, RunExact, RunFaulted};

const KINDS: [Kind; 7] =
    [RunDcta, RunCrl, RunExact, RunFaulted, DecisionDcta, DecisionGreedy, QValues];

/// The mix, per 20 requests: 9 runs (one fault-injected, one exact), 5 bare
/// decisions, 6 Q-value probes.
#[rustfmt::skip]
const MIX: [Kind; 20] = [
    RunDcta, RunDcta, RunDcta, RunDcta, RunDcta, RunCrl, RunCrl, RunExact, RunFaulted,
    DecisionDcta, DecisionDcta, DecisionDcta, DecisionGreedy, DecisionGreedy,
    QValues, QValues, QValues, QValues, QValues, QValues,
];

/// Where (tenant, kind, day) sits in the reference table.
fn table_index(tenant: usize, kind: Kind, day: usize, days: usize) -> usize {
    (tenant * KINDS.len() + kind as usize) * days + day
}

/// The request stream: `blocks` seeded shuffles of [`MIX`], each request
/// with a uniform tenant and day, as indices into the reference table.
pub fn request_stream(seed: u64, blocks: usize, days: usize) -> Vec<u16> {
    let mut keys = Vec::with_capacity(blocks * MIX.len());
    for block in 0..blocks {
        let mut rng = stream_rng(seed, STREAM_REQUESTS, block as u64);
        let mut mix = MIX;
        mix.shuffle(&mut rng);
        for kind in mix {
            let tenant = rng.gen_range(0..TENANTS.len());
            let day = rng.gen_range(0..days);
            keys.push(table_index(tenant, kind, day, days) as u16);
        }
    }
    keys
}

/// The run's crash schedule over the star's workers: each crashes with
/// probability 0.3 at a seeded time inside `horizon_s` and recovers a
/// quarter of it later. Re-drawn until someone crashes, so the faulted
/// kind always recovers from something.
pub fn fault_schedule(seed: u64, workers: usize, horizon_s: f64) -> FaultSchedule {
    let nodes: Vec<NodeId> = (1..=workers).map(NodeId).collect();
    (0..)
        .map(|attempt| {
            let draw = stream_rng(seed, STREAM_FAULTS, attempt).gen();
            FaultSchedule::seeded(draw, &nodes, 0.3, 0.25 * horizon_s, horizon_s)
                .expect("positive horizon and MTTR are valid")
        })
        .find(|schedule| !schedule.crashed_nodes().is_empty())
        .expect("an unbounded search ends at the first crash")
}

/// One cell of the reference table: the request, the answer a direct
/// `handle` gave at set-up, and what that answer adds to the quality sums.
struct Reference {
    tenant: usize,
    kind: Kind,
    day: usize,
    request: AllocRequest,
    answer: AllocResponse,
    quality: Quality,
}

struct Served {
    service: Arc<AllocatorService>,
    pool: ServicePool,
    /// The star testbed and each tenant's simulator tasks, for replaying a
    /// run's round from outside the core.
    cluster: Cluster,
    sim_tasks: Vec<Vec<SimTask>>,
    table: Vec<Reference>,
    stream: Vec<u16>,
    warmup_ops: u64,
    trace_every: u64,
}

fn query_of(kind: Kind, day: usize, faults: &FaultSchedule) -> Query {
    match kind {
        RunDcta => Query::Run(RunSpec::new(Method::Dcta, day)),
        RunCrl => Query::Run(RunSpec::new(Method::Crl, day)),
        RunExact => Query::Run(RunSpec::new(Method::ExactOracle, day)),
        RunFaulted => Query::Run(
            RunSpec::new(Method::Dcta, day).with_faults(faults.clone(), RecoveryMode::Resolve),
        ),
        DecisionDcta => Query::Decision { method: Method::Dcta, day },
        DecisionGreedy => Query::Decision { method: Method::GreedyOracle, day },
        QValues => Query::QValues { day, state: None },
    }
}

/// Fault reports equal but for the two fields that carry the measured
/// re-solve wall clock.
fn same_fault_report(a: &FaultRunReport, b: &FaultRunReport) -> bool {
    a.method == b.method
        && a.day == b.day
        && a.mode == b.mode
        && a.allocation == b.allocation
        && a.healthy_processing_time_s == b.healthy_processing_time_s
        && a.healthy_importance == b.healthy_importance
        && a.healthy_decision_performance == b.healthy_decision_performance
        && a.simulated_processing_time_s == b.simulated_processing_time_s
        && a.delivered == b.delivered
        && a.delivered_importance == b.delivered_importance
        && a.retained_fraction == b.retained_fraction
        && a.decision_performance == b.decision_performance
        && a.shed == b.shed
        && a.lost == b.lost
        && a.failures == b.failures
        && a.down_at_end == b.down_at_end
}

/// The serving layer's bit-identity contract.
fn same_answer(got: &AllocResponse, want: &AllocResponse) -> bool {
    match (got, want) {
        (AllocResponse::Run(RunReport::Healthy(a)), AllocResponse::Run(RunReport::Healthy(b))) => {
            a == b
        }
        (AllocResponse::Run(RunReport::Faulted(a)), AllocResponse::Run(RunReport::Faulted(b))) => {
            same_fault_report(a, b)
        }
        (
            AllocResponse::Decision { allocation: a, .. },
            AllocResponse::Decision { allocation: b, .. },
        ) => a == b,
        (AllocResponse::QValues { .. }, AllocResponse::QValues { .. }) => got == want,
        _ => false,
    }
}

/// Checks a reference answer (feasibility against the tenant's fleet, a
/// sound certificate) and extracts its quality numbers. Pooled answers are
/// then only compared for equality with it.
fn vet(
    core: &PreparedCore,
    kind: Kind,
    day: usize,
    answer: &AllocResponse,
) -> Result<Quality, String> {
    let mut quality = Quality::default();
    let truth = core.true_importances(day);
    let total: f64 = truth.iter().sum();
    let instance = core.instance_for_day(day).map_err(|e| e.to_string())?;
    let allocation = match answer {
        AllocResponse::Run(RunReport::Healthy(r)) => {
            quality.add_captured(r.captured_importance, total);
            quality.add_pt(r.processing_time_s);
            if let Some(cert) = r.solver {
                quality.add_gap(cert.gap);
                let slack = 1e-9 * cert.upper_bound.abs().max(1.0);
                if r.captured_importance > cert.upper_bound + slack {
                    return Err(format!("{kind:?} day {day}: objective above its upper bound"));
                }
            }
            &r.allocation
        }
        AllocResponse::Run(RunReport::Faulted(r)) => {
            quality.add_captured(r.delivered_importance, total);
            quality.add_pt(r.simulated_processing_time_s);
            if r.delivered > r.allocation.scheduled_count()
                || !(0.0..=1.0 + 1e-9).contains(&r.retained_fraction)
            {
                return Err(format!("{kind:?} day {day}: delivered more than was scheduled"));
            }
            &r.allocation
        }
        AllocResponse::Decision { allocation, .. } => {
            let captured: f64 = (0..truth.len())
                .filter(|&j| allocation.processor_of(j).is_some())
                .map(|j| truth[j])
                .sum();
            quality.add_captured(captured, total);
            allocation
        }
        AllocResponse::QValues { q, .. } => {
            if q.is_empty() || q.iter().any(|v| !v.is_finite()) {
                return Err(format!("{kind:?} day {day}: non-finite Q-values"));
            }
            return Ok(quality);
        }
    };
    if !allocation.is_feasible(instance.tasks(), instance.fleet()) {
        return Err(format!("{kind:?} day {day}: infeasible allocation"));
    }
    Ok(quality)
}

impl Served {
    fn build(config: &RunConfig, stages: &mut Stages) -> Result<Self, BoxError> {
        let service = Arc::new(AllocatorService::new());
        let episodes = config.pick(6, 1);
        for (name, seed) in TENANTS.iter().zip(TENANT_SEEDS) {
            let scenario = stages.time("buildings.generate_ms", || scenario(config, seed))?;
            let prepared = Pipeline::builder(pipeline_config(seed, episodes)).prepare(&scenario)?;
            let core = stages.time("core.shared.into_core_ms", || prepared.into_core())?;
            service.register(*name, core)?;
            stages.time("serve.warm_ms", || service.warm(name))?;
        }
        let days: Vec<usize> = service.with_core(TENANTS[0], |c| c.test_days())?.collect();
        let workers = service.with_core(TENANTS[0], |c| c.config().workers)?;
        let cluster = Cluster::testbed_with_workers(workers)?;

        // The crash schedule spans a healthy round of the first tenant.
        let probe = AllocRequest {
            tenant: TENANTS[0].to_string(),
            query: Query::Run(RunSpec::new(Method::Dcta, days[0])),
        };
        let horizon = match service.handle(&probe)? {
            AllocResponse::Run(report) => report.processing_time_s(),
            _ => unreachable!("a run query answers with a run report"),
        };
        let faults = fault_schedule(config.seed, workers, horizon);

        let mut table = Vec::with_capacity(TENANTS.len() * KINDS.len() * days.len());
        let mut sim_tasks = Vec::new();
        for (tenant, name) in TENANTS.iter().enumerate() {
            for kind in KINDS {
                for &day in &days {
                    let request = AllocRequest {
                        tenant: name.to_string(),
                        query: query_of(kind, day, &faults),
                    };
                    let answer = service.handle(&request)?;
                    let quality =
                        service.with_core(name, |core| vet(core, kind, day, &answer))??;
                    table.push(Reference { tenant, kind, day, request, answer, quality });
                }
            }
            sim_tasks.push(service.with_core(name, |core| {
                core.blind_instance()
                    .tasks()
                    .iter()
                    .map(|t| {
                        SimTask::new(t.input_bits(), core.config().result_bits, t.resource_demand())
                    })
                    .collect::<Result<Vec<_>, _>>()
            })??);
        }
        let stream = request_stream(config.seed, config.pick(1 << 14, 64), days.len());
        let pool = ServicePool::new(Arc::clone(&service), clients());
        let warmup_ops = config.pick(2000, 40);
        let trace_every = config.pick(TRACE_EVERY, 1);
        let served =
            Self { service, pool, cluster, sim_tasks, table, stream, warmup_ops, trace_every };
        // Warm-up requests come from the far end of the stream.
        let warm = served.drive(0.0, warmup_ops, served.stream.len() as u64 / 2, false);
        if let Some((i, why)) = warm.0.failures.first() {
            return Err(format!("warm-up op {i}: {why}").into());
        }
        Ok(served)
    }

    fn reference(&self, i: u64) -> &Reference {
        &self.table[self.stream[(i % self.stream.len() as u64) as usize] as usize]
    }

    /// One request through the pool, checked against its reference; with an
    /// enabled tracer, followed by the replays that explain it.
    fn op(&self, i: u64, tracer: &mut Tracer) -> OpOutcome {
        let reference = self.reference(i);
        let request = reference.request.clone();

        let root = tracer.root(i);
        let start = Instant::now();
        let pooled = tracer.begin("serve.pool.submit_wait", root, i);
        let answer = self.pool.submit(request).wait();
        tracer.end(pooled);
        let latency_ns = start.elapsed().as_nanos() as u64;
        tracer.end(root);

        let verdict = match &answer {
            Ok(got) if same_answer(got, &reference.answer) => Ok(()),
            Ok(_) => Err(format!(
                "{:?} day {} of {}: pooled answer differs from direct handle",
                reference.kind, reference.day, TENANTS[reference.tenant]
            )),
            Err(e) => Err(e.to_string()),
        };
        if tracer.enabled() && verdict.is_ok() {
            self.replay(reference, pooled, i, tracer);
        }
        OpOutcome { latency_ns, verdict, quality: Quality::default() }
    }

    /// Calls the layers under a pooled request again, on the calling thread
    /// and on the same inputs, each as a replay span under the call it
    /// explains: `handle` under the pool round trip, `allocate`/`execute`
    /// under `handle`, the solver, lookup and star round under those.
    fn replay(&self, reference: &Reference, pooled: SpanId, i: u64, tracer: &mut Tracer) {
        let handle = tracer.begin_replay("serve.handle", pooled, i);
        let _ = std::hint::black_box(self.service.handle(&reference.request));
        tracer.end(handle);
        let (kind, day) = (reference.kind, reference.day);
        let name = TENANTS[reference.tenant];
        let sim_tasks = &self.sim_tasks[reference.tenant];
        let replayed = self.service.with_core(name, |core| {
            let method = match kind {
                RunDcta | DecisionDcta => Method::Dcta,
                RunCrl => Method::Crl,
                RunExact => Method::ExactOracle,
                DecisionGreedy => Method::GreedyOracle,
                RunFaulted => {
                    let Query::Run(spec) = &reference.request.query else { return };
                    let span = tracer.begin_replay("core.recovery.faulted_run", handle, i);
                    let _ = std::hint::black_box(core.run(spec));
                    tracer.end(span);
                    return;
                }
                QValues => {
                    let Ok(signature) = core.signature_of_day(day) else { return };
                    let shared = core.crl().shared();
                    let span = tracer.begin_replay("rl.crl.lookup", handle, i);
                    let defined = shared.define_environment(signature);
                    tracer.end(span);
                    // The context's reset state, as the service builds it.
                    let Ok((key, blend)) = defined else { return };
                    let spec =
                        AllocSpec { importances: blend, ..core.blind_instance().to_alloc_spec() };
                    let (Ok(agent), Ok(mut env)) = (shared.agent(key), AllocEnv::new(spec)) else {
                        return;
                    };
                    let state = env.reset();
                    let span = tracer.begin_replay("rl.dqn.q_values", handle, i);
                    let _ = std::hint::black_box(agent.q_values(&state));
                    tracer.end(span);
                    return;
                }
            };
            let allocate = tracer.begin_replay(
                match method {
                    Method::Dcta => "core.shared.allocate.dcta",
                    Method::Crl => "core.shared.allocate.crl",
                    Method::GreedyOracle => "core.shared.allocate.greedy",
                    _ => "core.shared.allocate.exact",
                },
                handle,
                i,
            );
            let outcome = core.allocate(&AllocQuery::new(method, day));
            tracer.end(allocate);
            let Ok(outcome) = outcome else { return };

            // Inside `allocate`: the per-call instance build, then the
            // method's solver or its CRL context lookup.
            let span = tracer.begin_replay("core.tatim.instance_build", allocate, i);
            let instance = core.instance_for_day(day);
            tracer.end(span);
            match (method, instance) {
                (Method::GreedyOracle, Ok(instance)) => {
                    let span = tracer.begin_replay("core.tatim.solve.greedy", allocate, i);
                    let _ = std::hint::black_box(instance.solve(&SolverKind::Greedy));
                    tracer.end(span);
                }
                (Method::ExactOracle, Ok(instance)) => {
                    let budget = SolveBudget::NodeBudget(EXACT_ORACLE_NODE_BUDGET);
                    let span = tracer.begin_replay("core.tatim.solve.portfolio", allocate, i);
                    let _ = std::hint::black_box(instance.solve(&SolverKind::Portfolio(budget)));
                    tracer.end(span);
                }
                _ => {
                    if let Ok(signature) = core.signature_of_day(day) {
                        let span = tracer.begin_replay("rl.crl.lookup", allocate, i);
                        let _ =
                            std::hint::black_box(core.crl().shared().define_environment(signature));
                        tracer.end(span);
                    }
                }
            }
            if matches!(kind, DecisionDcta | DecisionGreedy) {
                return;
            }
            let assignment = outcome.allocation.to_node_assignment(core.fleet());
            let execute = tracer.begin_replay("core.shared.execute", handle, i);
            let _ = std::hint::black_box(core.execute(method, day, outcome.allocation, 0.0));
            tracer.end(execute);
            let span = tracer.begin_replay("edgesim.star.round", execute, i);
            let _ = std::hint::black_box(simulate(
                &self.cluster,
                sim_tasks,
                &assignment,
                core.config().sim,
            ));
            tracer.end(span);
        });
        debug_assert!(replayed.is_ok(), "tenants stay registered for the whole run");
    }

    /// The closed loop: `clients()` threads, client `c` sending ops
    /// `offset + c, offset + c + C, …`, each until `seconds` have passed and
    /// its share of the first `min_ops` ops is done. A watchdog ends the
    /// process if the clients hang (a pool worker that dies never fills its
    /// ticket, and `Ticket::wait` has no timeout).
    fn drive(&self, seconds: f64, min_ops: u64, offset: u64, traced: bool) -> (Phase, Tracer) {
        let stride = clients() as u64;
        let start = Instant::now();
        let done = AtomicBool::new(false);
        let limit = Duration::from_secs_f64(3.0 * seconds + 120.0);
        let per_client: Vec<(Phase, Tracer)> = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::Acquire) {
                    if start.elapsed() > limit {
                        eprintln!("serve_mixed: clients made no progress for {limit:?}; a pool worker died");
                        std::process::exit(3);
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            });
            let handles: Vec<_> = (0..stride)
                .map(|c| {
                    scope.spawn(move || {
                        let mut tracer = Tracer::new(traced, start);
                        let mut off = Tracer::new(false, start);
                        let phase = closed_loop(seconds, min_ops, (c, stride), |i| {
                            let sampled = (offset + i).is_multiple_of(self.trace_every);
                            self.op(offset + i, if sampled { &mut tracer } else { &mut off })
                        });
                        (phase, tracer)
                    })
                })
                .collect();
            let joined = handles
                .into_iter()
                .map(|h| h.join().expect("clients catch their panics"))
                .collect();
            done.store(true, Ordering::Release);
            joined
        });
        let mut phase = Phase::default();
        let mut tracer = Tracer::new(traced, start);
        for (client_phase, client_tracer) in per_client {
            phase.absorb(client_phase);
            tracer.absorb(client_tracer);
        }
        phase.seal();
        // Quality in request-index order, from the references the answers
        // were checked against: bit-stable under any interleaving.
        let failed = phase.failed_ops();
        for i in (0..min_ops).filter(|i| !failed.contains(i)) {
            phase.quality.merge(&self.reference(offset + i).quality);
        }
        (phase, tracer)
    }

    /// Batcher and cache counters summed over the tenants.
    fn counters(&self) -> Result<[u64; 5], BoxError> {
        let mut sum = [0u64; 5];
        for name in TENANTS {
            let s = self.service.stats(name)?;
            let add = [
                s.batcher.batches,
                s.batcher.batched_states,
                s.batcher.deadline_flushes,
                s.cache.hits,
                s.cache.misses,
            ];
            for (total, x) in sum.iter_mut().zip(add) {
                *total += x;
            }
        }
        Ok(sum)
    }

    /// Median pool round trip minus median direct `handle`, one client, the
    /// same requests: what the queue, wake-ups and ticket cost when nothing
    /// contends.
    fn pool_overhead_ns(&self, requests: u64) -> (f64, usize) {
        let (mut pooled, mut direct) = (Vec::new(), Vec::new());
        for i in 0..requests {
            let request = &self.reference(i).request;
            let t = Instant::now();
            let _ = std::hint::black_box(self.pool.submit(request.clone()).wait());
            pooled.push(t.elapsed().as_nanos() as f64);
            let t = Instant::now();
            let _ = std::hint::black_box(self.service.handle(request));
            direct.push(t.elapsed().as_nanos() as f64);
        }
        (stats::median(&pooled) - stats::median(&direct), pooled.len())
    }

    fn layers(&self, spans: &[Span], metrics: &mut Metrics) {
        for (name, span) in [
            ("serve.handle_us", "serve.handle"),
            ("core.shared.allocate_dcta_us", "core.shared.allocate.dcta"),
            ("core.shared.allocate_crl_us", "core.shared.allocate.crl"),
            ("core.shared.allocate_greedy_us", "core.shared.allocate.greedy"),
            ("core.shared.allocate_exact_us", "core.shared.allocate.exact"),
            ("core.shared.execute_us", "core.shared.execute"),
            ("core.recovery.faulted_run_us", "core.recovery.faulted_run"),
            ("core.tatim.instance_build_us", "core.tatim.instance_build"),
            ("knapsack.portfolio50_us", "core.tatim.solve.portfolio"),
            ("edgesim.star.round_us", "edgesim.star.round"),
            ("rl.crl.lookup_us", "rl.crl.lookup"),
            ("rl.dqn.q_values_us", "rl.dqn.q_values"),
        ] {
            metrics.set_from_spans(name, spans, span, 1e3);
        }
    }
}

/// `op_ms_p99` when the phase has the ten samples beyond it that make it
/// reportable.
fn record_tail(phase: &Phase, metrics: &mut Metrics) {
    let latencies = phase.latencies_ms();
    if stats::tail_supported(latencies.len(), 0.99) {
        metrics.set("op_ms_p99", stats::percentile(&latencies, 0.99), latencies.len());
    }
}

pub fn run(config: &RunConfig) -> Result<RunResult, BoxError> {
    let min_ops: u64 = config.pick(4000, 80);
    let (served, setup_s, stages) = repeat_setup(config, |stages| Served::build(config, stages))?;
    let mut result = new_result(config, clients(), min_ops, served.warmup_ops);
    if config.traced {
        let before = served.counters()?;
        let (reference, _) = served.drive(REFERENCE_SHARE * config.seconds, min_ops, 0, false);
        let after = served.counters()?;
        let (traced, tracer) =
            served.drive(TRACED_SHARE * config.seconds, min_ops.div_ceil(4), 0, true);
        result.record_phase(&reference, &setup_s);
        record_tail(&reference, &mut result.metrics);
        stages.report(&mut result.metrics);
        finish_trace(&mut result, &reference, &traced, tracer.spans())?;
        served.layers(tracer.spans(), &mut result.metrics);

        let m = &mut result.metrics;
        let [batches, states, deadline, hits, misses] =
            std::array::from_fn(|k| after[k] - before[k]);
        m.set(
            "core.cache.hit_rate",
            hits as f64 / (hits + misses).max(1) as f64,
            (hits + misses) as usize,
        );
        m.set("core.cache.evals", after[4] as f64, 1);
        m.set(
            "rl.batcher.mean_batch_size",
            states as f64 / batches.max(1) as f64,
            batches as usize,
        );
        m.set(
            "rl.batcher.deadline_flush_frac",
            deadline as f64 / batches.max(1) as f64,
            batches as usize,
        );
        m.set_probe("serve.pool_overhead_us", served.pool_overhead_ns(config.pick(600, 40)), 1e3);
    } else {
        let (phase, _) = served.drive(config.seconds, min_ops, 0, false);
        result.record_phase(&phase, &setup_s);
        record_tail(&phase, &mut result.metrics);
    }
    // A worker that panicked resurfaces when the pool joins it.
    if std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(served))).is_err() {
        result.failed += 1;
        result.failures.push("a pool worker panicked".to_string());
    }
    result.metrics.set("peak_rss_mb", host::peak_rss_mib(), 1);
    result.withhold_concurrent();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_stream_is_a_pure_function_of_the_seed_and_keeps_the_mix() {
        let days = 6;
        let a = request_stream(11, 50, days);
        assert_eq!(a, request_stream(11, 50, days));
        assert_ne!(a, request_stream(12, 50, days));
        assert_eq!(a.len(), 1000);
        let table = TENANTS.len() * KINDS.len() * days;
        assert!(a.iter().all(|&k| (k as usize) < table));
        // Every block of 20 holds the mix exactly: six Q-value probes, one
        // fault-injected run, …
        let kind_of = |key: u16| KINDS[(key as usize / days) % KINDS.len()];
        for block in a.chunks(MIX.len()) {
            for kind in KINDS {
                let want = MIX.iter().filter(|&&k| k == kind).count();
                assert_eq!(block.iter().filter(|&&k| kind_of(k) == kind).count(), want);
            }
        }
        assert_eq!(table_index(1, QValues, 5, days), table - 1);
    }

    #[test]
    fn fault_schedule_is_seeded_and_always_crashes_someone() {
        let a = fault_schedule(5, 9, 2.0);
        assert_eq!(a, fault_schedule(5, 9, 2.0));
        assert!((1..40).any(|seed| fault_schedule(seed, 9, 2.0) != a));
        assert!((1..40).all(|seed| !fault_schedule(seed, 9, 2.0).crashed_nodes().is_empty()));
    }
}
