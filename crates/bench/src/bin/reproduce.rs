//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! reproduce [--quick] [--seed N] [--out DIR] [--threads N] [--exp ID]...
//! ```
//!
//! `--threads` caps the deterministic parallel layer (default: all cores;
//! `1` forces the exact serial path). Results are bit-identical at any
//! setting — see the `parallel` crate's determinism contract.
//!
//! With no `--exp`, every experiment runs. Available ids: `fig2`, `fig3`,
//! `fig45`, `tab1`, `rl-stale` (covers both staleness ablations),
//! `local-model`, `fig9`, `fig10`, `fig11`, `knapsack`, `weights`,
//! `env-lookup`, `quality-gap`, `shapley`, `medium`, `hetero-budget`,
//! `fault-sweep`, `mesh-alloc`, `edgesim-scale`, `bnb-solve-large`,
//! `serve-throughput`.
//! Tables print to stdout; JSON snapshots land in `--out` (default
//! `results/`).

use dcta_bench::common::RunOpts;
use dcta_bench::{
    ablations, distribution, extensions, faultsweep, localmodel, meshalloc, portfolio, scale,
    serving, solvers, staleness, sweeps,
};
use serde::Serialize;
use std::error::Error;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const ALL: &[&str] = &[
    "fig2",
    "fig3",
    "fig45",
    "tab1",
    "rl-stale",
    "local-model",
    "fig9",
    "fig10",
    "fig11",
    "knapsack",
    "weights",
    "env-lookup",
    "quality-gap",
    "shapley",
    "medium",
    "hetero-budget",
    "fault-sweep",
    "mesh-alloc",
    "edgesim-scale",
    "bnb-solve-large",
    "serve-throughput",
];

struct Args {
    opts: RunOpts,
    out: PathBuf,
    threads: Option<usize>,
    experiments: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut opts = RunOpts::default();
    let mut out = PathBuf::from("results");
    let mut threads = None;
    let mut experiments = Vec::new();
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--seed" => {
                let v = iter.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--out" => {
                out = PathBuf::from(iter.next().ok_or("--out needs a value")?);
            }
            "--threads" => {
                let v = iter.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                threads = Some(n);
            }
            "--exp" => {
                let v = iter.next().ok_or("--exp needs a value")?;
                if !ALL.contains(&v.as_str()) {
                    return Err(format!("unknown experiment `{v}`; known: {ALL:?}"));
                }
                experiments.push(v);
            }
            "--help" | "-h" => {
                println!("reproduce [--quick] [--seed N] [--out DIR] [--threads N] [--exp ID]...");
                println!("experiments: {ALL:?}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if experiments.is_empty() {
        experiments = ALL.iter().map(|s| s.to_string()).collect();
    }
    Ok(Args { opts, out, threads, experiments })
}

fn save<T: Serialize>(dir: &Path, name: &str, value: &T) -> Result<(), Box<dyn Error>> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, serde_json::to_string_pretty(value)?)?;
    println!("[saved {}]", path.display());
    Ok(())
}

fn run_one(id: &str, opts: &RunOpts, out: &Path) -> Result<(), Box<dyn Error>> {
    match id {
        "fig2" => {
            let r = distribution::fig2(opts)?;
            print!("{}", r.table.render());
            save(out, "fig2", &r)
        }
        "fig3" => {
            let r = distribution::fig3(opts)?;
            print!("{}", r.table.render());
            save(out, "fig3", &r)
        }
        "fig45" => {
            let r = distribution::fig45(opts)?;
            for t in &r.tables {
                print!("{}", t.render());
            }
            save(out, "fig45", &r)
        }
        "tab1" => {
            let r = distribution::tab1(opts)?;
            print!("{}", r.table.render());
            save(out, "tab1", &r)
        }
        "rl-stale" => {
            let r = staleness::run(opts)?;
            print!("{}", r.table.render());
            save(out, "staleness", &r)
        }
        "local-model" => {
            let r = localmodel::run(opts)?;
            print!("{}", r.table.render());
            save(out, "local_model", &r)
        }
        "fig9" => {
            let r = sweeps::fig9(opts)?;
            print!("{}", r.table.render());
            save(out, "fig9", &r)
        }
        "fig10" => {
            let r = sweeps::fig10(opts)?;
            print!("{}", r.table.render());
            save(out, "fig10", &r)
        }
        "fig11" => {
            let r = sweeps::fig11(opts)?;
            print!("{}", r.table.render());
            save(out, "fig11", &r)
        }
        "knapsack" => {
            let r = solvers::run(opts)?;
            print!("{}", r.table.render());
            save(out, "knapsack", &r)
        }
        "weights" => {
            let r = ablations::weights(opts)?;
            print!("{}", r.table.render());
            save(out, "weights", &r)
        }
        "env-lookup" => {
            let r = ablations::env_lookup(opts)?;
            print!("{}", r.table.render());
            save(out, "env_lookup", &r)
        }
        "quality-gap" => {
            let r = ablations::quality_gap(opts)?;
            print!("{}", r.table.render());
            save(out, "quality_gap", &r)
        }
        "shapley" => {
            let r = extensions::shapley(opts)?;
            print!("{}", r.table.render());
            save(out, "shapley", &r)
        }
        "medium" => {
            let r = extensions::medium(opts)?;
            print!("{}", r.table.render());
            save(out, "medium", &r)
        }
        "hetero-budget" => {
            let r = extensions::hetero_budget(opts)?;
            print!("{}", r.table.render());
            save(out, "hetero_budget", &r)
        }
        "fault-sweep" => {
            let r = faultsweep::run(opts)?;
            print!("{}", r.table.render());
            // Per policy, in `resolve`, `none`, `random-shed`, `proactive`
            // order: the summary lines the table does not show.
            let (overall, worst) = (&r.overall_retained, &r.worst_cell_retained);
            println!(
                "[overall retained: resolve {:.3}, none {:.3}, random-shed {:.3}, proactive {:.3}]",
                overall[0], overall[1], overall[2], overall[3]
            );
            println!(
                "[worst cell retained: resolve {:.3}, proactive {:.3} ({:+.3})]",
                worst[0],
                worst[3],
                worst[3] - worst[0]
            );
            if let Some(mesh) = &r.mesh {
                println!(
                    "[mesh {} nodes: {} link outages, {} crashes; retained resolve {:.3}, \
                     proactive {:.3}]",
                    mesh.nodes,
                    mesh.link_outages,
                    mesh.crashes,
                    mesh.arms[0].mean_retained_fraction,
                    mesh.arms[3].mean_retained_fraction
                );
            }
            save(out, "fault_sweep", &r)
        }
        "mesh-alloc" => {
            let r = meshalloc::run(opts)?;
            print!("{}", r.table.render());
            save(out, "mesh_alloc", &r)
        }
        "edgesim-scale" => {
            let r = scale::run(opts)?;
            print!("{}", r.table.render());
            save(out, "edgesim_scale", &r)
        }
        "bnb-solve-large" => {
            let r = portfolio::run(opts)?;
            print!("{}", r.table.render());
            save(out, "bnb_solve_large", &r)
        }
        "serve-throughput" => {
            let r = serving::run(opts)?;
            print!("{}", r.table.render());
            save(out, "serve_throughput", &r)
        }
        other => Err(format!("unknown experiment `{other}`").into()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Every experiment runs under the `--threads` cap; a study that pins
    // its own cap nests a guard inside this one.
    let _threads = args.threads.map(parallel::ScopedThreads::new);
    // Persist the importance cache next to the JSON snapshots so repeated
    // sweeps skip the offline importance sweep (results are bit-identical
    // either way; the cache only affects wall-clock).
    if fs::create_dir_all(&args.out).is_ok() {
        dcta_bench::common::set_cache_dir(&args.out);
    }
    let mut failures = 0;
    for id in &args.experiments {
        println!("\n#### {id} {}", if args.opts.quick { "(quick)" } else { "" });
        let t = Instant::now();
        match run_one(id, &args.opts, &args.out) {
            Ok(()) => println!("[{id} done in {:.1?}]", t.elapsed()),
            Err(e) => {
                eprintln!("[{id} FAILED: {e}]");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("\n{failures} experiment(s) failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
