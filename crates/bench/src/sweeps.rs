//! The processing-time figures of §V-D:
//!
//! * **Fig. 9** — PT vs number of processors (DCTA up to 3.24×/2.32×/2.01×
//!   faster than RM/DML/CRL; 2.70×/2.05×/1.80× on average).
//! * **Fig. 10** — PT vs average input data size (2.71×/1.83×/1.68× at
//!   500 Mb).
//! * **Fig. 11** — PT vs network bandwidth (2.68×/1.94×/1.71× on average).

use crate::common::{f1, mean, paper_pipeline, paper_scenario, prepare_cached, RunOpts, Table};
use buildings::scenario::{Scenario, ScenarioConfig};
use dcta_core::objective::AllocQuery;
use dcta_core::pipeline::{Method, PipelineConfig, RunSpec};
use serde::Serialize;
use std::error::Error;

/// The four methods of the paper's PT figures, in plot order.
pub const METHODS: [Method; 4] = [Method::RandomMapping, Method::Dml, Method::Crl, Method::Dcta];

/// One sweep point: the x-value and each method's mean PT (seconds).
#[derive(Debug, Clone, Serialize)]
pub struct SweepPoint {
    /// The swept x-value (processor count, Mb, or Mbps).
    pub x: f64,
    /// Mean PT per method, in [`METHODS`] order.
    pub pt: Vec<f64>,
}

/// A complete sweep result.
#[derive(Debug, Clone, Serialize)]
pub struct Sweep {
    /// Figure identifier.
    pub figure: String,
    /// The series.
    pub points: Vec<SweepPoint>,
    /// Mean PT ratio of RM/DML/CRL over DCTA across points.
    pub mean_ratios: Vec<f64>,
    /// Max PT ratio of RM/DML/CRL over DCTA across points.
    pub max_ratios: Vec<f64>,
    /// The paper's average-ratio anchors.
    pub paper_mean_ratios: Vec<f64>,
    /// Rendered table.
    pub table: Table,
}

fn mean_pts(scenario: &Scenario, config: PipelineConfig) -> Result<Vec<f64>, Box<dyn Error>> {
    let prepared = prepare_cached(config, scenario)?;
    let days: Vec<usize> = prepared.test_days().collect();
    let mut out = Vec::with_capacity(METHODS.len());
    for method in METHODS {
        let mut pts = Vec::new();
        for &day in &days {
            pts.push(prepared.run(&RunSpec::new(method, day))?.processing_time_s());
        }
        out.push(mean(&pts));
    }
    Ok(out)
}

fn finish(
    figure: &str,
    points: Vec<SweepPoint>,
    paper_mean_ratios: Vec<f64>,
    x_label: &str,
) -> Sweep {
    let mut mean_ratios = vec![0.0; 3];
    let mut max_ratios = vec![0.0f64; 3];
    for p in &points {
        let dcta = p.pt[3].max(1e-12);
        for m in 0..3 {
            let r = p.pt[m] / dcta;
            mean_ratios[m] += r / points.len() as f64;
            max_ratios[m] = max_ratios[m].max(r);
        }
    }
    let mut table = Table::new(
        format!("{figure} — processing time (s)"),
        &[x_label, "RM", "DML", "CRL", "DCTA", "RM/DCTA", "DML/DCTA", "CRL/DCTA"],
    );
    for p in &points {
        let dcta = p.pt[3].max(1e-12);
        table.push_row(vec![
            f1(p.x),
            f1(p.pt[0]),
            f1(p.pt[1]),
            f1(p.pt[2]),
            f1(p.pt[3]),
            format!("{:.2}x", p.pt[0] / dcta),
            format!("{:.2}x", p.pt[1] / dcta),
            format!("{:.2}x", p.pt[2] / dcta),
        ]);
    }
    table.push_row(vec![
        "mean ratio".into(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        format!("{:.2}x (paper {:.2}x)", mean_ratios[0], paper_mean_ratios[0]),
        format!("{:.2}x (paper {:.2}x)", mean_ratios[1], paper_mean_ratios[1]),
        format!("{:.2}x (paper {:.2}x)", mean_ratios[2], paper_mean_ratios[2]),
    ]);
    Sweep { figure: figure.to_string(), points, mean_ratios, max_ratios, paper_mean_ratios, table }
}

/// Fig. 9: PT as a function of the number of processors.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig9(opts: &RunOpts) -> Result<Sweep, Box<dyn Error>> {
    let scenario = paper_scenario(opts, opts.pick(10, 6))?;
    let workers: Vec<usize> = opts.pick(vec![3, 5, 7, 9], vec![5, 9]);
    let mut points = Vec::new();
    for w in workers {
        let config = PipelineConfig { workers: w, ..paper_pipeline(opts) };
        let pt = mean_pts(&scenario, config)?;
        points.push(SweepPoint { x: w as f64, pt });
    }
    Ok(finish("Fig. 9", points, vec![2.70, 2.05, 1.80], "processors"))
}

/// Fig. 10: PT as a function of the average input data size (Mb).
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig10(opts: &RunOpts) -> Result<Sweep, Box<dyn Error>> {
    let sizes: Vec<f64> = opts.pick(vec![200.0, 400.0, 600.0, 800.0, 1000.0], vec![300.0, 900.0]);
    let mut points = Vec::new();
    for mb in sizes {
        let scenario = Scenario::generate(ScenarioConfig {
            history_days: opts.pick(240, 90),
            eval_days: opts.pick(10, 6),
            mean_input_mbit: mb,
            seed: opts.seed,
            ..ScenarioConfig::default()
        })?;
        let pt = mean_pts(&scenario, paper_pipeline(opts))?;
        points.push(SweepPoint { x: mb, pt });
    }
    Ok(finish("Fig. 10", points, vec![2.71, 1.83, 1.68], "input (Mb)"))
}

/// Fig. 11: PT as a function of network bandwidth (Mbps). Allocations are
/// computed once (bandwidth is not an allocator input) and re-executed
/// under each scaled network.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn fig11(opts: &RunOpts) -> Result<Sweep, Box<dyn Error>> {
    let scenario = paper_scenario(opts, opts.pick(10, 6))?;
    let mut prepared = prepare_cached(paper_pipeline(opts), &scenario)?;
    let days: Vec<usize> = prepared.test_days().collect();

    // Pre-compute allocations at the default bandwidth.
    let mut allocations = Vec::new();
    for method in METHODS {
        let mut per_day = Vec::new();
        for &day in &days {
            per_day.push(prepared.allocate(&AllocQuery::new(method, day))?);
        }
        allocations.push(per_day);
    }

    let base_bps = edgesim::cluster::DEFAULT_WIFI_BPS;
    let factors: Vec<f64> =
        opts.pick(vec![1.0 / 3.0, 2.0 / 3.0, 1.0, 4.0 / 3.0, 5.0 / 3.0], vec![0.5, 1.5]);
    let mut points = Vec::new();
    let mut current = 1.0;
    for factor in factors {
        prepared
            .cluster_mut()
            .network_mut()
            .expect("star testbed")
            .scale_bandwidth(factor / current);
        current = factor;
        let mut pt = Vec::new();
        for (mi, method) in METHODS.iter().enumerate() {
            let mut per_day = Vec::new();
            for (di, &day) in days.iter().enumerate() {
                let decision = allocations[mi][di].clone();
                per_day.push(
                    prepared
                        .execute(*method, day, decision.allocation, decision.overhead_s)?
                        .processing_time_s,
                );
            }
            pt.push(mean(&per_day));
        }
        points.push(SweepPoint { x: base_bps * factor / 1e6, pt });
    }
    Ok(finish("Fig. 11", points, vec![2.68, 1.94, 1.71], "bandwidth (Mbps)"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunOpts {
        RunOpts { quick: true, ..Default::default() }
    }

    #[test]
    fn fig9_pt_decreases_with_processors_and_dcta_wins() {
        let r = fig9(&quick()).unwrap();
        assert_eq!(r.points.len(), 2);
        // More processors => lower PT for every method.
        for m in 0..4 {
            assert!(
                r.points[1].pt[m] < r.points[0].pt[m],
                "method {m}: {} !< {}",
                r.points[1].pt[m],
                r.points[0].pt[m]
            );
        }
        // DCTA clearly beats the non-selective baselines; the CRL margin
        // needs full training (quick mode undertrains the DQN), so only a
        // loose floor is asserted there.
        assert!(r.mean_ratios[0] > 1.5, "RM ratio {:?}", r.mean_ratios);
        assert!(r.mean_ratios[1] > 1.2, "DML ratio {:?}", r.mean_ratios);
        assert!(r.mean_ratios[2] > 0.7, "CRL ratio {:?}", r.mean_ratios);
    }

    #[test]
    fn fig11_pt_decreases_with_bandwidth() {
        let r = fig11(&quick()).unwrap();
        assert_eq!(r.points.len(), 2);
        for m in 0..4 {
            assert!(
                r.points[1].pt[m] < r.points[0].pt[m],
                "method {m}: bandwidth increase did not reduce PT"
            );
        }
        assert!(r.mean_ratios[0] > 1.0);
    }
}
