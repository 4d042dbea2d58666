//! Results of several runs: what `run` writes after repeating workloads in
//! fresh processes, and `compare`'s verdicts on two such files.

use crate::catalog::{self, Bound, Direction, MetricDef};
use crate::json::Json;
use crate::stats;
use std::collections::BTreeMap;

/// One metric over the repeats of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Repeated {
    /// One value per repeat; `None` where the run withheld it.
    pub values: Vec<Option<f64>>,
    pub samples: usize,
}

impl Repeated {
    fn present(&self) -> Option<Vec<f64>> {
        self.values.iter().copied().collect()
    }

    /// Median of the repeats' values (each itself a median over ops).
    pub fn median(&self) -> Option<f64> {
        self.present().map(|v| stats::median(&v))
    }

    fn to_json(&self, def: &MetricDef) -> Json {
        let present = self.present();
        let quartiles = present.as_deref().map(stats::quartiles);
        let opt = |v: Option<f64>| v.map_or(Json::Null, Json::num);
        let mut fields = def.typed();
        fields.extend([
            ("median", opt(self.median())),
            ("q1", opt(quartiles.map(|q| q.0))),
            ("q3", opt(quartiles.map(|q| q.1))),
            ("values", Json::Arr(self.values.iter().map(|&v| opt(v)).collect())),
            ("samples", Json::Num(self.samples as f64)),
        ]);
        Json::obj(fields)
    }

    fn from_json(doc: &Json) -> Option<Self> {
        let values =
            doc.get("values")?.as_arr()?.iter().map(Json::as_f64).collect::<Vec<Option<f64>>>();
        Some(Self { values, samples: doc.get("samples")?.as_f64()? as usize })
    }
}

/// The repeats of one workload, metric by metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkloadRuns {
    pub metrics: BTreeMap<String, Repeated>,
    pub attempted: u64,
    pub failed: u64,
}

impl WorkloadRuns {
    /// Folds in one run's result file (see `RunResult::to_json`). End-to-end
    /// metrics always come from untraced runs: a traced run contributes its
    /// per-layer metrics only.
    pub fn absorb(&mut self, run: &Json) -> Result<(), String> {
        let bad = || "malformed run result".to_string();
        let ops = run.get("ops").ok_or_else(bad)?;
        self.attempted += ops.get("attempted").and_then(Json::as_f64).ok_or_else(bad)? as u64;
        self.failed += ops.get("failed").and_then(Json::as_f64).ok_or_else(bad)? as u64;
        let traced = run.get("traced") == Some(&Json::Bool(true));
        for (name, m) in run.get("metrics").and_then(Json::as_obj).ok_or_else(bad)? {
            if traced && catalog::metric(name).is_some_and(|def| def.end_to_end) {
                continue;
            }
            let entry = self
                .metrics
                .entry(name.clone())
                .or_insert_with(|| Repeated { values: Vec::new(), samples: 0 });
            entry.values.push(m.get("value").and_then(Json::as_f64));
            entry.samples = m.get("samples").and_then(Json::as_f64).ok_or_else(bad)? as usize;
        }
        Ok(())
    }

    pub fn to_json(&self) -> Json {
        let metrics = catalog::METRICS
            .iter()
            .filter_map(|def| self.metrics.get(def.name).map(|r| (def.name, r.to_json(def))));
        Json::obj([
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    fn from_json(doc: &Json) -> Option<Self> {
        let metrics = doc
            .get("metrics")?
            .as_obj()?
            .iter()
            .map(|(name, m)| Repeated::from_json(m).map(|r| (name.clone(), r)))
            .collect::<Option<_>>()?;
        Some(Self {
            metrics,
            attempted: doc.get("attempted")?.as_f64()? as u64,
            failed: doc.get("failed")?.as_f64()? as u64,
        })
    }

    /// Median, quartiles, unit and sample count of every metric.
    pub fn print_table(&self, workload: &str) {
        println!("== {workload}: {} ops attempted, {} failed ==", self.attempted, self.failed);
        println!("  {:<36} {:>16} {:>16} {:>16} {:<9} n", "metric", "median", "q1", "q3", "unit");
        for def in catalog::METRICS {
            let Some(r) = self.metrics.get(def.name) else { continue };
            let present = r.present();
            let (q1, q3) = present.as_deref().map_or((None, None), |v| {
                let q = stats::quartiles(v);
                (Some(q.0), Some(q.1))
            });
            let show = |v: Option<f64>| v.map_or_else(|| "null".to_string(), |v| format!("{v:.6}"));
            println!(
                "  {:<36} {:>16} {:>16} {:>16} {:<9} {}",
                def.name,
                show(r.median()),
                show(q1),
                show(q3),
                def.unit,
                r.samples
            );
        }
    }
}

/// Reads the `workloads` of a suite file written by `run`.
pub fn read_suite(doc: &Json) -> Result<BTreeMap<String, WorkloadRuns>, String> {
    doc.get("workloads")
        .and_then(Json::as_obj)
        .ok_or("not a benchmark result file: no `workloads`")?
        .iter()
        .map(|(name, w)| {
            WorkloadRuns::from_json(w)
                .map(|runs| (name.clone(), runs))
                .ok_or_else(|| format!("malformed results for workload `{name}`"))
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Improved,
    /// The medians differ by more than the bound, but the repeats' spread is
    /// wider than the bound and the two sides' runs interleave.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges candidate `b` against baseline `a` under the metric's bound.
/// `None` when either side withheld the metric.
pub fn judge(def: &MetricDef, a: &Repeated, b: &Repeated) -> Option<Verdict> {
    let (va, vb) = (a.present()?, b.present()?);
    let (ma, mb) = (stats::median(&va), stats::median(&vb));
    // Positive = the candidate is worse.
    let worse_by = match def.better {
        Direction::Lower => mb - ma,
        Direction::Higher => ma - mb,
    };
    let by_sign = |worse_by: f64| {
        if worse_by > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Improved
        }
    };
    Some(match def.bound {
        Bound::Unbounded => Verdict::Ok,
        Bound::Exact if ma.to_bits() == mb.to_bits() => Verdict::Ok,
        Bound::Exact => by_sign(worse_by),
        Bound::NoIncrease if worse_by > 0.0 => Verdict::Regressed,
        Bound::NoIncrease => Verdict::Ok,
        Bound::Relative { share, floor } => {
            let allowed = (share * ma.abs()).max(floor);
            if worse_by.abs() <= allowed {
                return Some(Verdict::Ok);
            }
            let noisy = stats::spread(&va) > share || stats::spread(&vb) > share;
            // Separated: every candidate run on the same side of every
            // baseline run.
            let lower_is_b = vb.iter().all(|y| va.iter().all(|x| y < x));
            let higher_is_b = vb.iter().all(|y| va.iter().all(|x| y > x));
            if noisy && !(lower_is_b || higher_is_b) {
                Verdict::Unresolved
            } else {
                by_sign(worse_by)
            }
        }
    })
}

/// One row of `compare`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub baseline: f64,
    pub candidate: f64,
    pub bound: String,
    pub verdict: Verdict,
}

/// A row per (workload, end-to-end metric) both files report, plus one per
/// per-layer metric that must match to the bit.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    let (a, b) = (read_suite(a)?, read_suite(b)?);
    let mut rows = Vec::new();
    for (workload, runs_a) in &a {
        let Some(runs_b) = b.get(workload) else { continue };
        for def in catalog::METRICS.iter().filter(|d| d.end_to_end || d.bound == Bound::Exact) {
            let (Some(ra), Some(rb)) = (runs_a.metrics.get(def.name), runs_b.metrics.get(def.name))
            else {
                continue;
            };
            let Some(verdict) = judge(def, ra, rb) else { continue };
            let bound = match def.bound {
                Bound::Relative { share, floor } if floor > 0.0 => {
                    format!("{:.0} % or {floor} {}", 100.0 * share, def.unit)
                }
                Bound::Relative { share, .. } => format!("{:.0} %", 100.0 * share),
                Bound::NoIncrease => "no increase".to_string(),
                Bound::Exact => "exact".to_string(),
                Bound::Unbounded => "-".to_string(),
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                baseline: ra.median().expect("judged metrics are present"),
                candidate: rb.median().expect("judged metrics are present"),
                bound,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two files share no workload".to_string());
    }
    Ok(rows)
}

pub fn print_rows(rows: &[Row]) {
    println!(
        "{:<16} {:<32} {:>16} {:>16} {:>9}  {:<18} verdict",
        "workload", "metric", "baseline", "candidate", "change", "bound"
    );
    for r in rows {
        let change = if r.baseline != 0.0 {
            format!("{:+.2} %", 100.0 * (r.candidate - r.baseline) / r.baseline.abs())
        } else {
            "-".to_string()
        };
        println!(
            "{:<16} {:<32} {:>16.6} {:>16.6} {:>9}  {:<18} {}",
            r.workload,
            r.metric,
            r.baseline,
            r.candidate,
            change,
            r.bound,
            r.verdict.name()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(values: &[f64]) -> Repeated {
        Repeated { values: values.iter().map(|&v| Some(v)).collect(), samples: 100 }
    }

    fn def(name: &str) -> &'static MetricDef {
        catalog::metric(name).unwrap()
    }

    #[test]
    fn relative_bounds_respect_direction_floor_and_spread() {
        let p50 = def("op_ms_p50");
        assert_eq!(judge(p50, &rep(&[10.0]), &rep(&[12.0])), Some(Verdict::Ok));
        assert_eq!(judge(p50, &rep(&[10.0]), &rep(&[13.0])), Some(Verdict::Regressed));
        assert_eq!(judge(p50, &rep(&[10.0]), &rep(&[7.0])), Some(Verdict::Improved));
        let rate = def("ops_per_s");
        assert_eq!(judge(rate, &rep(&[100.0]), &rep(&[70.0])), Some(Verdict::Regressed));
        assert_eq!(judge(rate, &rep(&[100.0]), &rep(&[130.0])), Some(Verdict::Improved));
        // setup_s: +25 % or +0.25 s, whichever is larger.
        let setup = def("setup_s");
        assert_eq!(judge(setup, &rep(&[0.1]), &rep(&[0.3])), Some(Verdict::Ok));
        assert_eq!(judge(setup, &rep(&[4.0]), &rep(&[5.1])), Some(Verdict::Regressed));
        // Wide, interleaving repeats cannot resolve a difference…
        let a = rep(&[10.0, 20.0, 30.0]);
        let b = rep(&[12.0, 28.0, 40.0]);
        assert_eq!(judge(p50, &a, &b), Some(Verdict::Unresolved));
        // …unless every candidate run is beyond every baseline run.
        let c = rep(&[31.0, 45.0, 60.0]);
        assert_eq!(judge(p50, &a, &c), Some(Verdict::Regressed));
    }

    #[test]
    fn exact_and_no_increase_bounds() {
        let captured = def("captured_importance");
        let x = 0.1 + 0.2;
        assert_eq!(judge(captured, &rep(&[x]), &rep(&[x])), Some(Verdict::Ok));
        assert_eq!(judge(captured, &rep(&[x]), &rep(&[0.3])), Some(Verdict::Regressed));
        assert_eq!(judge(def("sim_pt_s"), &rep(&[2.0]), &rep(&[1.9999])), Some(Verdict::Improved));
        let failed = def("failed_frac");
        assert_eq!(judge(failed, &rep(&[0.0]), &rep(&[0.0])), Some(Verdict::Ok));
        assert_eq!(judge(failed, &rep(&[0.0]), &rep(&[0.001])), Some(Verdict::Regressed));
        let withheld = Repeated { values: vec![None], samples: 0 };
        assert_eq!(judge(def("op_ms_p99"), &withheld, &rep(&[1.0])), None);
    }

    #[test]
    fn suite_files_round_trip_and_compare() {
        let run = |p50: f64| {
            Json::obj([
                ("ops", Json::obj([("attempted", Json::Num(10.0)), ("failed", Json::Num(0.0))])),
                (
                    "metrics",
                    Json::obj([
                        (
                            "op_ms_p50",
                            Json::obj([("value", Json::Num(p50)), ("samples", Json::Num(10.0))]),
                        ),
                        (
                            "op_ms_p99",
                            Json::obj([("value", Json::Null), ("samples", Json::Num(0.0))]),
                        ),
                        (
                            "solve_gap",
                            Json::obj([("value", Json::Num(0.25)), ("samples", Json::Num(4.0))]),
                        ),
                    ]),
                ),
            ])
        };
        let suite = |values: &[f64]| {
            let mut runs = WorkloadRuns::default();
            for &v in values {
                runs.absorb(&run(v)).unwrap();
            }
            Json::obj([("workloads", Json::obj([("solve_scale", runs.to_json())]))])
        };
        let a = suite(&[10.0, 11.0, 12.0]);
        let back = read_suite(&Json::parse(&a.pretty()).unwrap()).unwrap();
        let runs = &back["solve_scale"];
        assert_eq!((runs.attempted, runs.failed), (30, 0));
        assert_eq!(runs.metrics["op_ms_p50"].median(), Some(11.0));
        assert_eq!(runs.metrics["op_ms_p99"].median(), None);

        let rows = compare(&a, &suite(&[20.0, 21.0, 22.0])).unwrap();
        let verdicts: Vec<_> = rows.iter().map(|r| (r.metric, r.verdict)).collect();
        assert_eq!(verdicts, [("op_ms_p50", Verdict::Regressed), ("solve_gap", Verdict::Ok)]);
        assert!(compare(&a, &Json::obj([("workloads", Json::obj::<String>([]))])).is_err());
    }
}
