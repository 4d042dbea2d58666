//! The four workloads, and the run skeleton the three single-client ones
//! share.
//!
//! An untraced run is: set up (several times, for a steady `setup_s`), then
//! one timed closed-loop phase with tracing off — the end-to-end metrics.
//! A traced run sets up once, runs a shorter untraced reference phase, then
//! replays the op stream from op 0 with tracing on, then times single layer
//! calls on the op's own inputs; the two phases' medians give the tracing
//! overhead.

pub mod experiment_cold;
pub mod mesh_round;
pub mod serve_mixed;
pub mod solve_scale;

use crate::catalog::Workload;
use crate::harness::{
    closed_loop, repeat_setup, BoxError, Metrics, OpOutcome, Phase, RunConfig, RunResult, Stages,
};
use crate::host::{self, Host};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use std::path::PathBuf;
use std::time::Instant;

/// Share of `--seconds` a traced run spends on its untraced reference
/// phase, and on the traced replay.
const REFERENCE_SHARE: f64 = 0.4;
const TRACED_SHARE: f64 = 0.3;

/// A single client runs every op: first 0, stride 1.
const SOLO: (u64, u64) = (0, 1);

/// Seed of the mesh worlds — the meshalloc study's, so rounds and solves
/// compare with its tracked `PR10-meshalloc` rows. A world is the workload's,
/// not an input: the same mesh for every `--seed`.
pub const MESH_WORLD_SEED: u64 = 0xDC7A ^ 0xA110C;

/// Where traces and result files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// A workload driven by one closed-loop client.
pub trait SingleClient: Sized {
    /// Ops run (and discarded) at the end of set-up.
    const WARMUP: u64;

    /// The ops whose answers the quality metrics average over. The timed
    /// phase never stops short of them.
    fn min_ops(config: &RunConfig) -> u64;

    /// Builds the world and runs the warm-up ops. Stage timings that are
    /// per-layer metrics go through `stages`.
    fn build(config: &RunConfig, stages: &mut Stages) -> Result<Self, BoxError>;

    /// Generates op `i`'s inputs from the seed, times the op, then checks
    /// its answer. With an enabled tracer, also records the spans.
    fn op(&mut self, i: u64, tracer: &mut Tracer) -> OpOutcome;

    /// The workload's per-layer metrics: from the traced `spans`, from
    /// counters, and by timing single layer calls on the op's inputs.
    fn layers(&mut self, spans: &[Span], metrics: &mut Metrics) -> Result<(), BoxError>;
}

pub fn run(config: &RunConfig) -> Result<RunResult, BoxError> {
    match config.workload {
        Workload::ExperimentCold => run_single_client::<experiment_cold::Cell>(config),
        Workload::ServeMixed => serve_mixed::run(config),
        Workload::MeshRound => run_single_client::<mesh_round::Rounds>(config),
        Workload::SolveScale => run_single_client::<solve_scale::Resolve>(config),
    }
}

pub fn new_result(config: &RunConfig, clients: usize, min_ops: u64, warmup_ops: u64) -> RunResult {
    RunResult {
        config: config.clone(),
        host: Host::detect(),
        attempted: 0,
        failed: 0,
        timed_ops: 0,
        clients,
        min_ops,
        warmup_ops,
        setups: 0,
        timed_wall_s: 0.0,
        metrics: Metrics::default(),
        failures: Vec::new(),
    }
}

fn run_single_client<W: SingleClient>(config: &RunConfig) -> Result<RunResult, BoxError> {
    let min_ops = W::min_ops(config);
    let (mut world, setup_s, stages) = repeat_setup(config, |stages| W::build(config, stages))?;
    let mut result = new_result(config, 1, min_ops, W::WARMUP);
    let epoch = Instant::now();
    let mut off = Tracer::new(false, epoch);
    if config.traced {
        let reference =
            closed_loop(REFERENCE_SHARE * config.seconds, min_ops, SOLO, |i| world.op(i, &mut off));
        let mut tracer = Tracer::new(true, epoch);
        let traced = closed_loop(TRACED_SHARE * config.seconds, min_ops.div_ceil(4), SOLO, |i| {
            world.op(i, &mut tracer)
        });
        result.record_phase(&reference, &setup_s);
        stages.report(&mut result.metrics);
        finish_trace(&mut result, &reference, &traced, tracer.spans())?;
        world.layers(tracer.spans(), &mut result.metrics)?;
    } else {
        let phase = closed_loop(config.seconds, min_ops, SOLO, |i| world.op(i, &mut off));
        result.record_phase(&phase, &setup_s);
    }
    drop(world);
    result.metrics.set("peak_rss_mb", host::peak_rss_mib(), 1);
    Ok(result)
}

/// Records what every traced run reports — thread cap, coverage, tracing
/// overhead — counts the traced phase's failures, and writes the spans to
/// `out/trace-<workload>.json`.
pub fn finish_trace(
    result: &mut RunResult,
    reference: &Phase,
    traced: &Phase,
    spans: &[Span],
) -> Result<(), BoxError> {
    result.failed += traced.failed();
    result.attempted += traced.attempted();
    result
        .failures
        .extend(traced.failures.iter().take(5).map(|(i, why)| format!("traced op {i}: {why}")));
    let m = &mut result.metrics;
    m.set("parallel.host_threads", result.host.host_threads as f64, 1);
    m.set("trace.coverage", trace::coverage(spans), spans.len());
    let untraced_p50 = stats::percentile(&reference.latencies_ms(), 0.5);
    let traced_p50 = stats::percentile(&traced.latencies_ms(), 0.5);
    if untraced_p50 > 0.0 {
        m.set("trace.overhead_frac", traced_p50 / untraced_p50 - 1.0, traced.attempted());
    }
    let path = out_dir().join(format!("trace-{}.json", result.config.workload.name()));
    trace::write_file(&path, spans)?;
    print_layer_shares(spans);
    Ok(())
}

/// Self time per span name as a share of op time: the layer × workload
/// matrix row of this workload.
fn print_layer_shares(spans: &[Span]) {
    let totals = trace::totals_by_name(spans);
    let op_ns = totals.get("op").map_or(0, |t| t.total_ns).max(1) as f64;
    println!("  -- self time by span, share of op time --");
    for (name, t) in &totals {
        println!(
            "  {:<36} {:>8.2} %  self {:>12.3} ms  calls {}",
            name,
            100.0 * t.self_ns as f64 / op_ns,
            t.self_ns as f64 / 1e6,
            t.count
        );
    }
}
