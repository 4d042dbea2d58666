//! Drives the binary's `--quick` mode end to end: tiny worlds and op counts
//! through the same code paths as a full run, a few seconds in total.

use benchmark::catalog::{self, Listing, Workload};
use benchmark::json::Json;
use benchmark::workloads::out_dir;
use std::collections::BTreeSet;
use std::process::{Command, Output};
use std::sync::{Mutex, MutexGuard};

/// Runs write `out/result-<workload>.json`; one benchmark process at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark")).args(args).output().expect("benchmark starts")
}

fn stdout(output: &Output) -> String {
    assert!(
        output.status.success(),
        "{}\n{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout.clone()).expect("UTF-8 output")
}

fn driver_line(text: &str) -> Json {
    Json::parse(text.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn read_json(name: &str) -> Json {
    let path = out_dir().join(name);
    Json::parse(
        &std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())),
    )
    .expect("well-formed JSON")
}

fn quick(workload: Workload, seed: &str, trace: &str) -> String {
    let args = ["run", "--quick", "--allow-single-core", "--workload", workload.name()];
    stdout(&bench(&[&args[..], &["--seed", seed, "--seconds", "0.3", "--trace", trace]].concat()))
}

fn metric_value(line: &Json, name: &str) -> f64 {
    line.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap()
}

#[test]
fn every_workload_validates_and_reports_the_listed_metrics() {
    let _guard = lock();
    for workload in Workload::ALL {
        for (trace, listing) in [("0", Listing::EndToEnd), ("1", Listing::PerLayer)] {
            let text = quick(workload, "7", trace);
            assert!(!text.contains("FAILED") && !text.contains("MISSING"), "{text}");
            let line = driver_line(&text);
            let keys: Vec<_> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{}", workload.name());
            assert_eq!(line.get("failed").unwrap().as_f64(), Some(0.0));
            assert!(line.get("attempted").unwrap().as_f64().unwrap() >= 1.0);

            let want: Vec<_> =
                catalog::METRICS.iter().filter(|m| m.listing == listing).map(|m| m.name).collect();
            let metrics = line.get("metrics").unwrap().as_obj().unwrap();
            let got: Vec<_> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(got, want);
            for (name, m) in metrics {
                let def = catalog::metric(name).unwrap();
                assert_eq!(m.get("unit").unwrap().as_str(), Some(def.unit));
                let value = m.get("value").unwrap().as_f64().unwrap();
                // End-to-end metrics are never zero; a per-layer metric is
                // zero on the workloads that bypass its layer.
                if listing == Listing::EndToEnd {
                    assert!(value > 0.0, "{name} = {value}");
                }
            }
        }
        // The trace: JSON, one root span per op, every parent link in range
        // and inside its op.
        let trace = read_json(&format!("trace-{}.json", workload.name()));
        let spans = trace.as_arr().unwrap();
        let roots: Vec<f64> = spans
            .iter()
            .filter(|s| s.get("parent") == Some(&Json::Null))
            .map(|s| s.get("op_id").unwrap().as_f64().unwrap())
            .collect();
        assert!(!roots.is_empty());
        assert_eq!(roots.iter().map(|r| r.to_bits()).collect::<BTreeSet<_>>().len(), roots.len());
        for span in spans {
            assert!(span.get("end_ns").unwrap().as_f64() >= span.get("start_ns").unwrap().as_f64());
            if let Some(parent) = span.get("parent").unwrap().as_f64() {
                assert_eq!(spans[parent as usize].get("op_id"), span.get("op_id"));
            }
        }
        // The result file carries the fingerprint and typed metrics.
        let result = read_json(&format!("result-{}-traced.json", workload.name()));
        for key in ["nproc", "host_threads", "cpu", "rustc", "commit"] {
            assert!(result.get("host").unwrap().get(key).is_some(), "{key}");
        }
        assert_eq!(result.get("seed").unwrap().as_f64(), Some(7.0));
        let coverage = result.get("metrics").unwrap().get("trace.coverage").unwrap();
        assert!(coverage.get("value").unwrap().as_f64().unwrap() >= 0.9);
        assert_eq!(coverage.get("direction").unwrap().as_str(), Some("higher"));
    }
}

#[test]
fn quality_metrics_repeat_to_the_bit_and_follow_the_seed() {
    let _guard = lock();
    for (workload, metric) in [
        (Workload::MeshRound, "sim_pt_s"),
        (Workload::SolveScale, "captured_importance"),
        (Workload::ServeMixed, "captured_importance"),
    ] {
        let value = |seed: &str| metric_value(&driver_line(&quick(workload, seed, "1")), metric);
        let (a, again, other) = (value("11"), value("11"), value("12"));
        assert!(a > 0.0);
        assert_eq!(a.to_bits(), again.to_bits(), "{} {metric}", workload.name());
        assert_ne!(a.to_bits(), other.to_bits(), "{} {metric}", workload.name());
    }
}

#[test]
fn suite_runs_each_workload_in_its_own_process_and_compares_clean_with_itself() {
    let _guard = lock();
    let file = out_dir().join("test-suite.json");
    let path = file.to_str().unwrap();
    let args = ["run", "--quick", "--allow-single-core", "--seconds", "0.2", "--repeats", "2"];
    let text = stdout(&bench(&[&args[..], &["--trace", "--out", path]].concat()));
    for workload in Workload::ALL {
        assert!(text.contains(&format!("== {}:", workload.name())), "{text}");
    }
    let suite = read_json("test-suite.json");
    let p50 = suite
        .get("workloads")
        .unwrap()
        .get("mesh_round")
        .unwrap()
        .get("metrics")
        .unwrap()
        .get("op_ms_p50")
        .unwrap();
    assert_eq!(p50.get("values").unwrap().as_arr().unwrap().len(), 2);
    assert!(p50.get("q1").unwrap().as_f64() <= p50.get("q3").unwrap().as_f64());

    let text = stdout(&bench(&["compare", path, path]));
    assert!(
        text.contains("captured_importance") && text.contains("knapsack.anytime_nodes"),
        "{text}"
    );
    assert!(text.contains(" 0 regressed, 0 improved, 0 unresolved"), "{text}");
    std::fs::remove_file(file).unwrap();
}

#[test]
fn a_single_core_host_is_refused_unless_allowed_and_then_withholds_concurrent_metrics() {
    let _guard = lock();
    let single = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .env("DCTA_THREADS", "1")
            .args([
                "run",
                "--quick",
                "--seconds",
                "0.2",
                "--workload",
                "serve_mixed",
                "--trace",
                "1",
            ])
            .args(args)
            .output()
            .expect("benchmark starts")
    };
    let refused = single(&[]);
    assert_eq!(refused.status.code(), Some(2));
    assert!(refused.stdout.is_empty());
    assert!(String::from_utf8_lossy(&refused.stderr).contains("--allow-single-core"));

    let line = driver_line(&stdout(&single(&["--allow-single-core"])));
    assert_eq!(metric_value(&line, "op_ms_p99"), 0.0);
    assert_eq!(metric_value(&line, "parallel.host_threads"), 1.0);
    let result = read_json("result-serve_mixed-traced.json");
    for name in ["op_ms_p99", "serve.pool_overhead_us", "rl.batcher.mean_batch_size"] {
        let m = result.get("metrics").unwrap().get(name).unwrap();
        assert_eq!(m.get("value"), Some(&Json::Null), "{name}");
    }
}

#[test]
fn bad_arguments_exit_with_a_message_and_no_result() {
    for args in [
        &["run", "--workload", "nope"][..],
        &["run", "--seconds", "0"],
        &["compare", "one.json"],
        &[],
    ] {
        let output = bench(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty() && !output.stderr.is_empty(), "{args:?}");
    }
}
