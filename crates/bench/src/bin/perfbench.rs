//! Tracked performance harness for the deterministic parallel layer.
//!
//! ```text
//! perfbench [serve_throughput | edgesim_scale | bnb_solve_large | mesh_alloc]
//!           [--quick] [--seed N] [--threads N] [--key NAME]
//!           [--trend PATH] [--out PATH]
//! ```
//!
//! Times the hot compute paths — the blocked matmul kernel against the
//! old `ikj` loop, the DQN TD update, the importance matrix, CRL
//! pretraining, the parallel
//! edgesim step, the parallel branch-and-bound, the end-to-end pipeline,
//! and the mesh-scale greedy re-solve — once on the exact serial path
//! (`threads = 1`) and once at `--threads` (default: all cores), plus a
//! warm pass over the importance cache. Every timed computation returns bit-identical results at both
//! settings; only the wall clock may differ. Results print as a table and
//! are upserted under `--key` into the tracked trend file (default
//! `BENCH_TREND.json`) — one file accumulating an entry per PR/commit,
//! replacing the per-PR `BENCH_PR*.json` snapshots. `--out PATH`
//! additionally writes the single-run report in the old snapshot shape.
//!
//! The `serve_throughput` mode swaps the kernel suite for the serving
//! benchmark (`dcta_bench::serving`): one warmed tenant on an
//! `AllocatorService`, a fixed mixed request stream pushed through a
//! `ServicePool` at 1, 2 and 8 workers, rows upserted under the same
//! `--key` machinery. Use a distinct key (e.g. `ci-<sha>-serve`) so the
//! entry never clobbers the kernel-suite entry for the same commit.
//!
//! The `edgesim_scale` mode runs the simulator scale sweep
//! (`dcta_bench::scale`): star and mesh rounds at 10/100/1000 nodes and
//! 1/2/8 threads, each topology's speedups against its own 1-thread row.
//! Again use a distinct key (e.g. `ci-<sha>-scale`).
//!
//! The `bnb_solve_large` mode runs the production-size solver sweep
//! (`dcta_bench::portfolio`): exact branch-and-bound under a deadline vs
//! the anytime portfolio at 40–1200 tasks, with the certified optimality
//! gap encoded in each portfolio row's name. Use a distinct key (e.g.
//! `ci-<sha>-portfolio`).
//!
//! The `mesh_alloc` mode runs the topology-aware allocation study
//! (`dcta_bench::meshalloc`): blind vs route-deflated solves on large mesh
//! testbeds, each row's `wall_ms` the solver wall-clock and `speedup` the
//! world's aware-over-blind importance-per-makespan gain. Use a distinct
//! key (e.g. `ci-<sha>-meshalloc`).

use buildings::scenario::Scenario;
use dcta_bench::common::{f3, paper_pipeline, paper_scenario, RunOpts, Table};
use dcta_bench::meshalloc::MeshWorld;
use dcta_bench::trend::{self, TrendEntry, TrendRow as Row};
use dcta_core::cache::ImportanceCache;
use dcta_core::crl_alloc::CrlAllocator;
use dcta_core::importance::{CopModels, ImportanceEvaluator};
use dcta_core::pipeline::{Method, Pipeline, RunSpec};
use dcta_core::processor::{Processor, ProcessorFleet};
use dcta_core::task::{EdgeTask, TaskId};
use dcta_core::tatim::{SolverKind, TatimInstance};
use edgesim::cluster::Cluster;
use edgesim::node::NodeId;
use edgesim::run::{simulate, NodeAssignment, SimConfig, SimTask};
use knapsack::exact::{BranchAndBound, SolverOptions};
use knapsack::generator::{generate, GeneratorConfig};
use learn::linalg::Matrix;
use learn::transfer::MtlConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::alloc_env::{AllocEnv, AllocSpec};
use rl::crl::{CrlConfig, EnvironmentStore};
use rl::dqn::{DqnAgent, DqnConfig};
use rl::mdp::Environment;
use serde::Serialize;
use std::error::Error;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct Report {
    generated_by: String,
    quick: bool,
    seed: u64,
    host_threads: usize,
    cache_hit_rate: f64,
    rows: Vec<Row>,
}

/// Which benchmark suite a `perfbench` invocation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The kernel/pipeline suite (default).
    Kernels,
    /// The serving-layer throughput sweep.
    ServeThroughput,
    /// The simulator scale sweep (star/mesh × node count × threads).
    EdgesimScale,
    /// The production-size exact-vs-portfolio solver sweep.
    BnbSolveLarge,
    /// The topology-aware vs blind mesh allocation study.
    MeshAlloc,
}

struct Args {
    mode: Mode,
    opts: RunOpts,
    threads: usize,
    key: String,
    trend: PathBuf,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut mode = Mode::Kernels;
    let mut opts = RunOpts::default();
    let mut threads = parallel::max_threads();
    let mut key = "local".to_string();
    let mut trend = PathBuf::from("BENCH_TREND.json");
    let mut out = None;
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "serve_throughput" => mode = Mode::ServeThroughput,
            "edgesim_scale" => mode = Mode::EdgesimScale,
            "bnb_solve_large" => mode = Mode::BnbSolveLarge,
            "mesh_alloc" => mode = Mode::MeshAlloc,
            "--quick" => opts.quick = true,
            "--seed" => {
                let v = iter.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--threads" => {
                let v = iter.next().ok_or("--threads needs a value")?;
                threads = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
                if threads == 0 {
                    return Err("--threads must be at least 1".into());
                }
            }
            "--key" => {
                key = iter.next().ok_or("--key needs a value")?;
            }
            "--trend" => {
                trend = PathBuf::from(iter.next().ok_or("--trend needs a value")?);
            }
            "--out" => {
                out = Some(PathBuf::from(iter.next().ok_or("--out needs a value")?));
            }
            "--help" | "-h" => {
                println!(
                    "perfbench [serve_throughput | edgesim_scale | bnb_solve_large | mesh_alloc] \
                     [--quick] [--seed N] [--threads N] [--key NAME] [--trend PATH] [--out PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args { mode, opts, threads, key, trend, out })
}

/// Best-of-`reps` wall time in milliseconds.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

/// Times `f` on the serial path and at `threads`, returning the two rows.
fn versus(bench: &str, threads: usize, reps: usize, mut f: impl FnMut()) -> Vec<Row> {
    parallel::set_max_threads(1);
    let serial_ms = time_ms(reps, &mut f);
    let mut rows =
        vec![Row { bench: bench.to_string(), threads: 1, wall_ms: serial_ms, speedup: 1.0 }];
    if threads > 1 {
        parallel::set_max_threads(threads);
        let par_ms = time_ms(reps, &mut f);
        rows.push(Row {
            bench: bench.to_string(),
            threads,
            wall_ms: par_ms,
            speedup: serial_ms / par_ms.max(1e-9),
        });
    }
    parallel::set_max_threads(0);
    rows
}

/// The pre-PR4 `ikj` matmul loop, kept verbatim (slice iterators and all)
/// as the baseline the register-blocked kernel is measured against.
/// Accumulation order per output element is identical (`k` ascending), so
/// both kernels return the same bits — only the wall clock differs.
fn matmul_ikj(a: &Matrix, b: &Matrix) -> Matrix {
    let n = b.cols();
    let k = a.cols();
    let mut out = Matrix::zeros(a.rows(), n);
    for (lhs_row, out_row) in
        a.as_slice().chunks_exact(k).zip(out.as_mut_slice().chunks_exact_mut(n))
    {
        for (&lhs_rk, rhs_row) in lhs_row.iter().zip(b.as_slice().chunks_exact(n)) {
            for (o, &x) in out_row.iter_mut().zip(rhs_row) {
                *o += lhs_rk * x;
            }
        }
    }
    out
}

/// Deterministic dense test matrix (no RNG: the bench only times FLOPs).
fn bench_matrix(rows: usize, cols: usize, salt: u64) -> Matrix {
    let data: Vec<f64> = (0..rows * cols)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
            (h % 2_000) as f64 / 100.0 - 10.0
        })
        .collect();
    Matrix::from_vec(rows, cols, data).expect("length matches")
}

/// A DQN agent over a small allocation MDP with a warm replay buffer, so
/// `learn_step` runs its full minibatch update from the first timed call.
fn warm_dqn_agent(
    batch_size: usize,
    warm_episodes: usize,
) -> Result<(DqnAgent, StdRng), Box<dyn Error>> {
    let n = 8;
    let spec = AllocSpec {
        importances: (0..n).map(|i| 0.1 + 0.1 * i as f64).collect(),
        times: vec![1.0; n],
        resources: vec![1.0; n],
        time_limit: 3.0,
        time_limits: None,
        capacities: vec![2.5, 2.5],
        route_factors: None,
    };
    let mut env = AllocEnv::new(spec)?;
    let mut rng = StdRng::seed_from_u64(0x5EED_0004);
    let mut agent = DqnAgent::new(
        env.state_dim(),
        env.num_actions(),
        DqnConfig { hidden: vec![32], batch_size, replay_capacity: 4096, ..DqnConfig::default() },
        &mut rng,
    )?;
    for _ in 0..warm_episodes {
        agent.train_episode(&mut env, &mut rng)?;
    }
    Ok((agent, rng))
}

/// A small edge instance over the scenario's tasks (same shape the
/// pipeline builds) for the CRL pretraining bench.
fn crl_instance(scenario: &Scenario) -> TatimInstance {
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
    let total_ref: f64 = tasks.iter().map(EdgeTask::reference_time_s).sum();
    let fleet = ProcessorFleet::new(
        (0..4)
            .map(|i| Processor { node: NodeId(i + 1), capacity: 1.0, seconds_per_bit: 4.75e-7 })
            .collect(),
        (0.5 * total_ref / 4.0).max(1e-6),
    )
    .expect("fleet is valid");
    TatimInstance::new(tasks, fleet)
}

fn run(args: &Args) -> Result<Report, Box<dyn Error>> {
    let opts = &args.opts;
    if args.mode == Mode::ServeThroughput {
        let (rows, cache_hit_rate) = dcta_bench::serving::serve_throughput(opts)?;
        return Ok(Report {
            generated_by: "perfbench serve_throughput".to_string(),
            quick: opts.quick,
            seed: opts.seed,
            host_threads: parallel::max_threads(),
            cache_hit_rate,
            rows,
        });
    }
    if args.mode == Mode::EdgesimScale {
        let rows = dcta_bench::scale::edgesim_scale(opts)?;
        return Ok(Report {
            generated_by: "perfbench edgesim_scale".to_string(),
            quick: opts.quick,
            seed: opts.seed,
            host_threads: parallel::max_threads(),
            // No importance evaluations run in this mode.
            cache_hit_rate: 0.0,
            rows,
        });
    }
    if args.mode == Mode::BnbSolveLarge {
        let rows = dcta_bench::portfolio::bnb_solve_large(opts)?;
        return Ok(Report {
            generated_by: "perfbench bnb_solve_large".to_string(),
            quick: opts.quick,
            seed: opts.seed,
            host_threads: parallel::max_threads(),
            // No importance evaluations run in this mode.
            cache_hit_rate: 0.0,
            rows,
        });
    }
    if args.mode == Mode::MeshAlloc {
        let rows = dcta_bench::meshalloc::run(opts)?.trend_rows();
        return Ok(Report {
            generated_by: "perfbench mesh_alloc".to_string(),
            quick: opts.quick,
            seed: opts.seed,
            host_threads: parallel::max_threads(),
            // No importance evaluations run in this mode.
            cache_hit_rate: 0.0,
            rows,
        });
    }
    let reps = opts.pick(3, 1);
    let scenario = paper_scenario(opts, opts.pick(10, 6))?;
    let models =
        CopModels::train(&scenario, MtlConfig { transfer_strength: 2.0, ..MtlConfig::default() })?;
    let evaluator = ImportanceEvaluator::new(&scenario, &models);
    let mut rows = Vec::new();

    // -- matmul kernel: register-blocked vs the old ikj loop (serial, the
    // kernel itself is single-threaded). Several multiplies per rep so the
    // wall time is comfortably above timer resolution.
    let dim = opts.pick(192, 96);
    println!("[matmul kernels: {dim}x{dim}]");
    let a = bench_matrix(dim, dim, 0x0A);
    let b = bench_matrix(dim, dim, 0x0B);
    let matmul_reps = reps.max(3);
    parallel::set_max_threads(1);
    let ikj_ms = time_ms(matmul_reps, || {
        for _ in 0..4 {
            black_box(matmul_ikj(black_box(&a), black_box(&b)));
        }
    });
    let blocked_ms = time_ms(matmul_reps, || {
        for _ in 0..4 {
            black_box(black_box(&a).matmul(black_box(&b)).expect("shapes"));
        }
    });
    parallel::set_max_threads(0);
    rows.push(Row { bench: "matmul_ikj".to_string(), threads: 1, wall_ms: ikj_ms, speedup: 1.0 });
    rows.push(Row {
        bench: "matmul_blocked".to_string(),
        threads: 1,
        wall_ms: blocked_ms,
        speedup: ikj_ms / blocked_ms.max(1e-9),
    });

    // -- DQN TD update at the default batch size (serial).
    let learn_steps = opts.pick(300, 60);
    println!("[dqn learn step: batch 32 x {learn_steps} steps]");
    parallel::set_max_threads(1);
    let (mut agent, mut agent_rng) = warm_dqn_agent(32, 12)?;
    let step_ms = time_ms(reps, || {
        for _ in 0..learn_steps {
            agent.learn_step(&mut agent_rng).expect("learn step");
        }
    });
    parallel::set_max_threads(0);
    rows.push(Row {
        bench: "dqn_learn_step".to_string(),
        threads: 1,
        wall_ms: step_ms,
        speedup: 1.0,
    });

    // -- Chunked gradient reduction: a batch above GRAD_CHUNK (64) exercises
    // the fixed-order parallel reduction, thread-count invariant by
    // construction. Episodes on this MDP run ~5 steps, so 60 warm episodes
    // comfortably fill the replay past 160 (learn_step no-ops below that).
    let chunk_steps = opts.pick(120, 24);
    println!("[dqn learn step, chunked: batch 160 x {chunk_steps} steps]");
    let (mut chunked_agent, mut chunked_rng) = warm_dqn_agent(160, 60)?;
    rows.extend(versus("dqn_learn_step_chunked", args.threads, reps, || {
        for _ in 0..chunk_steps {
            chunked_agent.learn_step(&mut chunked_rng).expect("learn step");
        }
    }));

    println!(
        "[importance matrix: {} days x {} tasks]",
        scenario.days().len(),
        scenario.num_tasks()
    );
    rows.extend(versus("importance_matrix", args.threads, reps, || {
        evaluator.importance_matrix().expect("importance matrix");
    }));

    // Warm-cache pass: the same matrix served from the memoised store.
    parallel::set_max_threads(1);
    let cache = ImportanceCache::new();
    let cached = ImportanceEvaluator::new(&scenario, &models).with_cache(&cache);
    cached.importance_matrix()?;
    let warm_ms = time_ms(reps, || {
        cached.importance_matrix().expect("warm importance matrix");
    });
    parallel::set_max_threads(0);
    let cold_ms = rows
        .iter()
        .find(|r| r.bench == "importance_matrix")
        .expect("importance_matrix row exists")
        .wall_ms;
    rows.push(Row {
        bench: "importance_matrix_warm_cache".to_string(),
        threads: 1,
        wall_ms: warm_ms,
        speedup: cold_ms / warm_ms.max(1e-9),
    });
    let cache_stats = cache.stats();
    println!("[importance cache: {cache_stats}]");

    println!("[CRL pretraining]");
    let matrix = evaluator.importance_matrix()?;
    let mut store = EnvironmentStore::new();
    for (day, importances) in scenario.days().iter().zip(&matrix) {
        store.push(rl::crl::EnvironmentRecord {
            signature: day.sensing.clone(),
            importances: importances.clone(),
        })?;
    }
    let crl_config = CrlConfig {
        episodes: opts.pick(60, 12),
        dqn: DqnConfig { hidden: vec![32], ..DqnConfig::default() },
        seed: opts.seed ^ 0x17,
        ..CrlConfig::default()
    };
    let instance = crl_instance(&scenario);

    rows.extend(versus("crl_pretrain", args.threads, reps, || {
        let crl = CrlAllocator::with_store(store.clone(), crl_config.clone());
        crl.pretrain(&instance).expect("pretrain");
    }));

    // -- edgesim step: the per-node transmission fan-out vs the serial
    // event loop. A synthetic round-robin round well above the 256-task
    // fan-out threshold; zero resource demand keeps the capacity check out
    // of the way so the bench times pure leg simulation.
    let sim_tasks_n = opts.pick(60_000, 12_000);
    println!("[edgesim step: {sim_tasks_n} tasks round-robin on the paper testbed]");
    let cluster = Cluster::paper_testbed()?;
    let worker_ids: Vec<NodeId> = cluster.workers().map(|w| w.id()).collect();
    let mut sim_rng = StdRng::seed_from_u64(opts.seed ^ 0xED6E);
    let sim_tasks: Vec<SimTask> = (0..sim_tasks_n)
        .map(|_| {
            SimTask::new(sim_rng.gen_range(1.0e3..2.0e6), sim_rng.gen_range(1.0e2..1.0e5), 0.0)
        })
        .collect::<Result<_, _>>()?;
    let mut sim_assignment = NodeAssignment::empty(sim_tasks_n);
    for i in 0..sim_tasks_n {
        sim_assignment.assign(i, Some(worker_ids[i % worker_ids.len()]));
    }
    let sim_config = SimConfig::default();
    rows.extend(versus("edgesim_step", args.threads, reps, || {
        // Several steps per rep so the wall time sits well above timer
        // resolution even in quick mode.
        for _ in 0..4 {
            black_box(
                simulate(&cluster, &sim_tasks, &sim_assignment, sim_config).expect("simulate"),
            );
        }
    }));

    // -- parallel branch-and-bound: top-level subtree fan-out with the
    // shared incumbent bound vs the serial DFS, on a long-tail instance
    // sized to be hard but tractable.
    let bnb_items = opts.pick(26, 24);
    println!("[branch and bound: {bnb_items} items x 4 sacks]");
    let mut bnb_rng = StdRng::seed_from_u64(opts.seed ^ 0xB4B);
    let bnb_problem = generate(
        GeneratorConfig { num_items: bnb_items, num_sacks: 4, ..Default::default() },
        &mut bnb_rng,
    );
    let bnb_solver = BranchAndBound::with_options(SolverOptions::new().parallel(true));
    rows.extend(versus("bnb_solve", args.threads, reps, || {
        black_box(bnb_solver.solve(&bnb_problem));
    }));

    println!("[end-to-end pipeline]");
    let mut pipeline_config = paper_pipeline(opts);
    // PT here is measured by *us*, not by the experiment: exclude the
    // allocator's self-timed overhead so the bench stays a pure function.
    pipeline_config.include_allocation_overhead = false;
    let mut last_stats = None;
    rows.extend(versus("pipeline_end_to_end", args.threads, reps, || {
        let mut prepared =
            Pipeline::builder(pipeline_config.clone()).prepare(&scenario).expect("prepare");
        let day = prepared.test_days().start;
        prepared.run(&RunSpec::new(Method::Dcta, day)).expect("run day");
        last_stats = Some(prepared.cache_stats());
    }));
    if let Some(stats) = last_stats {
        println!("[pipeline cache: {stats}]");
    }

    // The persisted-cache path `reproduce` takes on a second run: every
    // rep warm-starts from a snapshot, so the offline importance sweep is
    // pure cache hits and only training + the day run cost wall-clock.
    let snapshot = Pipeline::builder(pipeline_config.clone())
        .prepare(&scenario)
        .expect("prepare")
        .importance_cache()
        .to_text();
    rows.extend(versus("pipeline_end_to_end_warm_cache", args.threads, reps, || {
        let cache = ImportanceCache::with_capacity(dcta_bench::common::CACHE_CAPACITY);
        cache.load_text(&snapshot).expect("load snapshot");
        let mut prepared = Pipeline::builder(pipeline_config.clone())
            .cache(cache)
            .prepare(&scenario)
            .expect("prepare warm");
        let day = prepared.test_days().start;
        prepared.run(&RunSpec::new(Method::Dcta, day)).expect("run day");
    }));

    // -- fault replan: the reactive recovery solve vs the availability-
    // weighted proactive one, on the paper-scale TATIM instance with one
    // processor lost and half the tasks orphaned. Many solves per rep keep
    // the wall time above timer resolution; both paths return in well
    // under a millisecond, so the interesting number is their *ratio*
    // (the survival queries and weighted greedy are the only extra work).
    println!("[fault replan: reactive vs proactive recovery solve]");
    let replan_pipeline =
        Pipeline::builder(pipeline_config.clone()).prepare(&scenario).expect("prepare");
    let replan_day = replan_pipeline.test_days().start;
    let replan_instance = replan_pipeline.instance_for_day(replan_day)?;
    let fleet_nodes: Vec<NodeId> =
        replan_pipeline.fleet().processors().iter().map(|p| p.node).collect();
    let survivors: Vec<NodeId> =
        fleet_nodes.iter().copied().filter(|&n| Some(n) != fleet_nodes.last().copied()).collect();
    let finished: Vec<bool> = (0..replan_instance.num_tasks()).map(|j| j % 2 == 0).collect();
    let availability = replan_pipeline.availability().clone();
    let proactive_cfg = pipeline_config.proactive;
    let replan_reps = opts.pick(200, 50);
    rows.extend(versus("fault_replan_reactive", args.threads, reps, || {
        for _ in 0..replan_reps {
            black_box(
                dcta_core::recovery::replan(&replan_instance, &finished, &survivors, 1.0)
                    .expect("replan"),
            );
        }
    }));
    rows.extend(versus("fault_replan_proactive", args.threads, reps, || {
        for _ in 0..replan_reps {
            black_box(
                dcta_core::recovery::replan_proactive(
                    &replan_instance,
                    &finished,
                    &survivors,
                    1.0,
                    &availability,
                    &proactive_cfg,
                    0xA7A1,
                )
                .expect("replan proactive"),
            );
        }
    }));

    // -- mesh-scale re-solve: `SolverKind::Greedy` (density greedy + local
    // search) on the `mesh_alloc` world recipe, over the raw and the
    // route-deflated fleet. The aware row's `speedup` is blind/aware wall
    // time: below 1 is the aware-greedy cliff (local search over a mostly
    // unpacked item set), at or above 1 it is gone.
    let world = MeshWorld::build(opts.pick(3001, 121), opts.seed)?;
    let shape = format!("{}x{}", world.blind.num_tasks(), world.fleet.len());
    println!("[greedy + local search: {shape} mesh round, blind and route-aware]");
    let solve_ms = |instance: &TatimInstance| {
        time_ms(reps, || {
            black_box(instance.solve(&SolverKind::Greedy).expect("greedy solve"));
        })
    };
    let blind_ms = solve_ms(&world.blind);
    for (label, wall_ms) in [("blind", blind_ms), ("aware", solve_ms(&world.aware))] {
        rows.push(Row {
            bench: format!("greedy_ls_{shape}_{label}"),
            threads: 1,
            wall_ms,
            speedup: blind_ms / wall_ms.max(1e-9),
        });
    }

    Ok(Report {
        generated_by: "perfbench".to_string(),
        quick: opts.quick,
        seed: opts.seed,
        host_threads: parallel::max_threads(),
        cache_hit_rate: cache_stats.hit_rate(),
        rows,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut table = Table::new("perfbench", &["bench", "threads", "wall_ms", "speedup"]);
    for row in &report.rows {
        table.push_row(vec![
            row.bench.clone(),
            row.threads.to_string(),
            f3(row.wall_ms),
            f3(row.speedup),
        ]);
    }
    print!("{}", table.render());

    let entry = TrendEntry {
        key: args.key.clone(),
        quick: report.quick,
        seed: report.seed,
        host_threads: report.host_threads,
        cache_hit_rate: report.cache_hit_rate,
        rows: report.rows.clone(),
    };
    let existing = std::fs::read_to_string(&args.trend).ok();
    let merged = trend::upsert(existing.as_deref(), &entry);
    if let Err(e) = std::fs::write(&args.trend, merged) {
        eprintln!("error writing {}: {e}", args.trend.display());
        return ExitCode::FAILURE;
    }
    println!("[trend {} updated under key `{}`]", args.trend.display(), args.key);

    if let Some(out) = &args.out {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => {
                if let Err(e) = std::fs::write(out, json + "\n") {
                    eprintln!("error writing {}: {e}", out.display());
                    return ExitCode::FAILURE;
                }
                println!("[saved {}]", out.display());
            }
            Err(e) => {
                eprintln!("error serialising report: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
