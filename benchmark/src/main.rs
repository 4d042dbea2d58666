//! The system benchmark of this repository.
//!
//! ```text
//! benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!               [--repeats N] [--quick] [--allow-single-core]
//!               [--out FILE [--append]]
//! benchmark compare A.json B.json
//! benchmark spec
//! ```
//!
//! `run --workload NAME` measures one workload in this process, prints every
//! metric by name with its unit and sample count, writes
//! `out/result-NAME[-traced].json`, and ends with the one-line JSON object
//! the acceptance driver reads. Without `--workload` (or with `--repeats` or
//! `--out`) it runs each workload in a fresh process of its own, so peak
//! memory is per workload, and writes the medians over repeats to
//! `out/results.json` (or `--out`), the file `compare` takes. `--append`
//! adds the runs to those already in the file, so two builds can be measured
//! in alternation. See `README.md`.

use benchmark::catalog::{self, Workload};
use benchmark::harness::{BoxError, RunConfig};
use benchmark::json::Json;
use benchmark::{host, suite, workloads};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const DEFAULT_SEED: u64 = 0xDC7A;

struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    repeats: usize,
    quick: bool,
    allow_single_core: bool,
    out: Option<PathBuf>,
    append: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        repeats: 1,
        quick: false,
        allow_single_core: false,
        out: None,
        append: false,
    };
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| iter.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = || Workload::ALL.map(Workload::name).join(", ");
                parsed.workload =
                    Some(Workload::from_name(name).ok_or_else(|| {
                        format!("unknown workload `{name}` (known: {})", known())
                    })?);
            }
            "--seed" => {
                let v = value("a number")?;
                parsed.seed = v.parse().map_err(|_| format!("bad seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must lie in (0, 3600], got `{v}`"));
                }
                parsed.seconds = Some(s);
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1.
            "--trace" => match iter.peek().map(|s| s.as_str()) {
                Some("0") => {
                    iter.next();
                }
                Some("1") => {
                    iter.next();
                    parsed.traced = true;
                }
                _ => parsed.traced = true,
            },
            "--repeats" => {
                let v = value("a count")?;
                parsed.repeats = v
                    .parse()
                    .ok()
                    .filter(|&n| (1..=100).contains(&n))
                    .ok_or(format!("--repeats must lie in 1..=100, got `{v}`"))?;
            }
            "--quick" => parsed.quick = true,
            "--allow-single-core" => parsed.allow_single_core = true,
            "--out" => parsed.out = Some(PathBuf::from(value("a path")?)),
            "--append" => parsed.append = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.append && parsed.out.is_none() {
        return Err("--append needs --out FILE".to_string());
    }
    Ok(parsed)
}

/// Where one run of `workload` leaves its result file.
fn result_path(workload: Workload, traced: bool) -> PathBuf {
    let suffix = if traced { "-traced" } else { "" };
    workloads::out_dir().join(format!("result-{}{suffix}.json", workload.name()))
}

fn write_json(path: &Path, doc: &Json) -> Result<(), BoxError> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.pretty())?;
    Ok(())
}

/// One workload, in this process.
fn run_here(args: &RunArgs, workload: Workload, single_core: bool) -> Result<bool, BoxError> {
    let config = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.quick { 0.3 } else { catalog::RUN_SECONDS as f64 }),
        quick: args.quick,
        traced: args.traced,
        single_core,
    };
    let result = workloads::run(&config)?;
    result.print_table();
    write_json(&result_path(workload, args.traced), &result.to_json())?;
    // The line carries the verdict (`correct`, `failed`); the exit code only
    // says whether there is a line to read.
    println!("{}", result.driver_line().compact());
    Ok(true)
}

/// Each workload `repeats` times, each run in a fresh process; medians over
/// repeats (and, with `--append`, over the runs already in the file) to the
/// suite file.
fn run_suite(args: &RunArgs, selected: &[Workload]) -> Result<bool, BoxError> {
    let exe = std::env::current_exe()?;
    let path = args.out.clone().unwrap_or_else(|| workloads::out_dir().join("results.json"));
    let mut suite = if args.append && path.exists() {
        suite::read_suite(&Json::parse(&std::fs::read_to_string(&path)?)?)?
    } else {
        Default::default()
    };
    let mut all_correct = true;
    for &workload in selected {
        let mut runs = suite.remove(workload.name()).unwrap_or_default();
        let modes: &[bool] = if args.traced { &[false, true] } else { &[false] };
        for repeat in 0..args.repeats {
            for &traced in modes {
                eprintln!(
                    "[{} · repeat {}/{} · {}]",
                    workload.name(),
                    repeat + 1,
                    args.repeats,
                    if traced { "traced" } else { "untraced" }
                );
                let mut child = Command::new(&exe);
                child.args([
                    "run",
                    "--workload",
                    workload.name(),
                    "--seed",
                    &args.seed.to_string(),
                ]);
                child.args(["--trace", if traced { "1" } else { "0" }]);
                if let Some(s) = args.seconds {
                    child.args(["--seconds", &s.to_string()]);
                }
                if args.quick {
                    child.arg("--quick");
                }
                if args.allow_single_core {
                    child.arg("--allow-single-core");
                }
                let output = child.output()?;
                if !output.status.success() {
                    eprint!("{}", String::from_utf8_lossy(&output.stdout));
                    eprint!("{}", String::from_utf8_lossy(&output.stderr));
                    return Err(
                        format!("{} did not finish: {}", workload.name(), output.status).into()
                    );
                }
                let text = std::fs::read_to_string(result_path(workload, traced))?;
                runs.absorb(&Json::parse(&text)?)?;
            }
        }
        runs.print_table(workload.name());
        all_correct &= runs.failed == 0;
        suite.insert(workload.name().to_string(), runs);
    }
    let doc = Json::obj([
        ("host", host::Host::detect().to_json()),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", args.seconds.map_or(Json::Null, Json::num)),
        ("quick", Json::Bool(args.quick)),
        ("workloads", Json::obj(suite.iter().map(|(name, runs)| (name.as_str(), runs.to_json())))),
    ]);
    write_json(&path, &doc)?;
    eprintln!("[results written to {}]", path.display());
    Ok(all_correct)
}

fn run(args: &[String]) -> Result<bool, BoxError> {
    let args = parse_run(args)?;
    let host_threads = tatim::parallel::max_threads();
    if host_threads == 1 && !args.allow_single_core {
        return Err("host_threads == 1: nothing here can run concurrently, so closed-loop \
                    throughput, op_ms_p99, pool overhead and batching would describe the \
                    scheduler, not the program. Run on a host with at least two cores, or pass \
                    --allow-single-core to measure anyway with those metrics withheld."
            .into());
    }
    match args.workload {
        Some(workload) if args.repeats == 1 && args.out.is_none() => {
            run_here(&args, workload, host_threads == 1)
        }
        Some(workload) => run_suite(&args, &[workload]),
        None => run_suite(&args, &Workload::ALL),
    }
}

fn compare(args: &[String]) -> Result<bool, BoxError> {
    let [a, b] = args else { return Err("usage: benchmark compare A.json B.json".into()) };
    let read = |path: &String| -> Result<Json, BoxError> {
        Ok(Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)?)
    };
    let rows = suite::compare(&read(a)?, &read(b)?)?;
    suite::print_rows(&rows);
    let count = |v: suite::Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let (regressed, unresolved) =
        (count(suite::Verdict::Regressed), count(suite::Verdict::Unresolved));
    println!(
        "verdicts: {} ok, {regressed} regressed, {} improved, {unresolved} unresolved",
        count(suite::Verdict::Ok),
        count(suite::Verdict::Improved),
    );
    Ok(regressed + unresolved == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare(rest),
        Some((cmd, [])) if cmd == "spec" => {
            print!("{}", catalog::benchmark_json().pretty());
            Ok(true)
        }
        _ => {
            Err("usage: benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                  [--repeats N] [--quick] [--allow-single-core] [--out FILE [--append]]\n       \
                  benchmark compare A.json B.json\n       benchmark spec"
                .into())
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // Ran to the end, but an op failed or a metric regressed.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
