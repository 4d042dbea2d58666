//! Design-choice ablations called out by the paper:
//!
//! * **Cooperative weights** (Eq. 6): sweeping `(w1, w2)` between pure-CRL
//!   and pure-local shows why the blend is used.
//! * **Online kNN vs offline k-means** environment lookup (Discussion,
//!   §VII): the paper adopts the online mode for accuracy.
//! * **Allocation-quality gap**: captured true importance of every method
//!   normalised by the exact-oracle optimum.

use crate::common::{
    f3, mean, paper_pipeline, paper_scenario, pct, prepare_cached, RunOpts, Table,
};
use dcta_core::pipeline::{Method, PipelineConfig, RunSpec};
use dcta_core::shared::PreparedCore;
use learn::kmeans::KMeans;
use learn::linalg::euclidean_distance;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::error::Error;

/// Weight-sweep snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct WeightSweep {
    /// `(w1, w2, mean captured importance, mean H, mean PT)` rows.
    pub rows: Vec<(f64, f64, f64, f64, f64)>,
    /// Rendered table.
    pub table: Table,
}

/// Sweeps the cooperative weights of Eq. 6.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn weights(opts: &RunOpts) -> Result<WeightSweep, Box<dyn Error>> {
    let scenario = paper_scenario(opts, opts.pick(10, 6))?;
    let sweep: Vec<(f64, f64)> = opts.pick(
        vec![(1.0, 0.0), (0.7, 0.3), (0.5, 0.5), (0.3, 0.7), (0.0, 1.0)],
        vec![(1.0, 0.0), (0.5, 0.5), (0.0, 1.0)],
    );
    let mut rows = Vec::new();
    let mut table = Table::new(
        "Ablation — cooperative weights (w1 = CRL, w2 = local SVM)",
        &["w1", "w2", "captured importance", "decision perf", "PT (s)"],
    );
    for (w1, w2) in sweep {
        let config = PipelineConfig { weights: (w1, w2), ..paper_pipeline(opts) };
        let prepared = prepare_cached(config, &scenario)?;
        let days: Vec<usize> = prepared.test_days().collect();
        let mut captured = Vec::new();
        let mut perf = Vec::new();
        let mut pt = Vec::new();
        for &day in &days {
            let r =
                prepared.run(&RunSpec::new(Method::Dcta, day))?.into_healthy().expect("healthy");
            captured.push(r.captured_importance);
            perf.push(r.decision_performance);
            pt.push(r.processing_time_s);
        }
        let row = (w1, w2, mean(&captured), mean(&perf), mean(&pt));
        table.push_row(vec![
            format!("{w1:.1}"),
            format!("{w2:.1}"),
            f3(row.2),
            f3(row.3),
            format!("{:.1}", row.4),
        ]);
        rows.push(row);
    }
    Ok(WeightSweep { rows, table })
}

/// Environment-lookup ablation snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct EnvLookup {
    /// Mean squared error of the kNN-blended importance estimate.
    pub knn_mse: f64,
    /// Mean squared error of the k-means-centroid importance estimate.
    pub kmeans_mse: f64,
    /// Rendered table.
    pub table: Table,
}

/// Compares the online-kNN environment definition against the offline
/// k-means mode of §VII, by the accuracy of the importance estimate each
/// produces for held-out days.
///
/// # Errors
///
/// Propagates scenario/training failures.
pub fn env_lookup(opts: &RunOpts) -> Result<EnvLookup, Box<dyn Error>> {
    use dcta_core::importance::{CopModels, ImportanceEvaluator};
    use learn::transfer::MtlConfig;

    let scenario = paper_scenario(opts, opts.pick(24, 10))?;
    let models =
        CopModels::train(&scenario, MtlConfig { transfer_strength: 2.0, ..MtlConfig::default() })?;
    let evaluator = ImportanceEvaluator::new(&scenario, &models);
    let matrix = evaluator.importance_matrix()?;
    let split = matrix.len() * 2 / 3;

    // Historical store.
    let signatures: Vec<Vec<f64>> = (0..split).map(|d| scenario.day(d).sensing.clone()).collect();
    let knn = learn::knn::KnnIndex::new(signatures.clone())?;
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0xE7);
    let k_clusters = opts.pick(4, 2).min(split);
    let km = KMeans::fit(&signatures, k_clusters, 100, &mut rng)?;
    // Per-cluster mean importance vector.
    let n = scenario.num_tasks();
    let mut centroid_imp = vec![vec![0.0; n]; k_clusters];
    let mut counts = vec![0usize; k_clusters];
    for (d, &c) in km.assignments().iter().enumerate() {
        counts[c] += 1;
        for (acc, &v) in centroid_imp[c].iter_mut().zip(&matrix[d]) {
            *acc += v;
        }
    }
    for (c, imp) in centroid_imp.iter_mut().enumerate() {
        for v in imp.iter_mut() {
            *v /= counts[c].max(1) as f64;
        }
    }

    let mut knn_err = Vec::new();
    let mut km_err = Vec::new();
    for d in split..matrix.len() {
        let sig = &scenario.day(d).sensing;
        let truth = &matrix[d];
        // Online: inverse-distance blend of the 3 nearest days.
        let hits = knn.nearest(sig, 3)?;
        let mut est = vec![0.0; n];
        let mut total = 0.0;
        for h in &hits {
            let w = 1.0 / (h.distance + 1e-9);
            for (e, &v) in est.iter_mut().zip(&matrix[h.index]) {
                *e += w * v;
            }
            total += w;
        }
        for e in &mut est {
            *e /= total;
        }
        knn_err.push(euclidean_distance(&est, truth).powi(2) / n as f64);
        // Offline: the assigned cluster's mean importance.
        let c = km.predict(sig);
        km_err.push(euclidean_distance(&centroid_imp[c], truth).powi(2) / n as f64);
    }
    let knn_mse = mean(&knn_err);
    let kmeans_mse = mean(&km_err);

    let mut table = Table::new(
        "Ablation SVII — environment lookup: online kNN vs offline k-means",
        &["mode", "importance-estimate MSE"],
    );
    table.push_row(vec!["online kNN (paper's choice)".into(), format!("{knn_mse:.6}")]);
    table.push_row(vec![format!("offline k-means (k={k_clusters})"), format!("{kmeans_mse:.6}")]);
    Ok(EnvLookup { knn_mse, kmeans_mse, table })
}

/// Allocation-quality gap snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct QualityGap {
    /// `(method, captured/oracle)` rows.
    pub rows: Vec<(String, f64)>,
    /// Rendered table.
    pub table: Table,
}

/// Captured-importance optimality gap of every method vs the exact oracle.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn quality_gap(opts: &RunOpts) -> Result<QualityGap, Box<dyn Error>> {
    let scenario = paper_scenario(opts, opts.pick(10, 6))?;
    quality_gap_of(&prepare_cached(paper_pipeline(opts), &scenario)?)
}

fn quality_gap_of(prepared: &PreparedCore) -> Result<QualityGap, Box<dyn Error>> {
    let days: Vec<usize> = prepared.test_days().collect();
    let methods = [
        Method::ExactOracle,
        Method::GreedyOracle,
        Method::Dcta,
        Method::Crl,
        Method::RandomMapping,
        Method::Dml,
    ];
    // Oracle capture per day for normalisation. The oracle solve now
    // carries a certificate (see `dcta_core::pipeline::SolveCertificate`);
    // log it so `reproduce` output records whether the "exact" oracle was
    // actually proved optimal on every evaluation day.
    let mut oracle = Vec::new();
    for &day in &days {
        let r = prepared.run(&RunSpec::new(Method::ExactOracle, day))?;
        let report = r.into_healthy().expect("healthy");
        if let Some(cert) = report.solver {
            println!(
                "[oracle day {day}: proved_optimal={} gap={:.4}% upper_bound={:.4} nodes={}]",
                cert.proved_optimal,
                100.0 * cert.gap,
                cert.upper_bound,
                cert.nodes
            );
        }
        oracle.push(report.captured_importance);
    }
    let mut rows = Vec::new();
    let mut table = Table::new(
        "Ablation — allocation quality (captured true importance / exact oracle)",
        &["method", "capture ratio"],
    );
    for method in methods {
        let mut ratios = Vec::new();
        for (i, &day) in days.iter().enumerate() {
            if oracle[i] <= 1e-9 {
                continue; // nothing important that day; ratio undefined
            }
            let r = prepared.run(&RunSpec::new(method, day))?;
            let captured = r.into_healthy().expect("healthy").captured_importance;
            ratios.push(captured / oracle[i]);
        }
        let r = mean(&ratios);
        table.push_row(vec![method.to_string(), pct(r)]);
        rows.push((method.to_string(), r));
    }
    Ok(QualityGap { rows, table })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunOpts {
        RunOpts { quick: true, ..Default::default() }
    }

    #[test]
    fn weight_sweep_produces_all_rows() {
        let r = weights(&quick()).unwrap();
        assert_eq!(r.rows.len(), 3);
        for (_, _, captured, perf, pt) in &r.rows {
            assert!(*captured >= 0.0);
            assert!((0.0..=1.0).contains(perf));
            assert!(*pt > 0.0);
        }
    }

    #[test]
    fn env_lookup_reports_finite_mses() {
        let r = env_lookup(&quick()).unwrap();
        assert!(r.knn_mse.is_finite() && r.knn_mse >= 0.0);
        assert!(r.kmeans_mse.is_finite() && r.kmeans_mse >= 0.0);
    }

    #[test]
    fn quality_gap_oracle_is_ceiling() {
        let opts = quick();
        let scenario = paper_scenario(&opts, opts.pick(10, 6)).unwrap();
        let prepared = prepare_cached(paper_pipeline(&opts), &scenario).unwrap();
        let r = quality_gap_of(&prepared).unwrap();
        let exact = r.rows.iter().find(|(m, _)| m == "ExactOracle").unwrap().1;
        assert!((exact - 1.0).abs() < 1e-9);
        // Per day, on the same core: nothing captures more than a proved
        // optimum, and RM and DML, which run every task, capture
        // everything the oracle does.
        let report = |method, day| {
            let r = prepared.run(&RunSpec::new(method, day)).unwrap();
            r.into_healthy().unwrap()
        };
        let mut proved = 0;
        for day in prepared.test_days() {
            let oracle = report(Method::ExactOracle, day);
            if oracle.captured_importance <= 1e-9 {
                continue;
            }
            let ratio =
                |method| report(method, day).captured_importance / oracle.captured_importance;
            if oracle.solver.unwrap().proved_optimal {
                proved += 1;
                for method in [Method::GreedyOracle, Method::Dcta, Method::Crl] {
                    assert!(ratio(method) <= 1.0 + 1e-9, "{method} on day {day}");
                }
            }
            for method in [Method::RandomMapping, Method::Dml] {
                assert!(ratio(method) >= 1.0 - 1e-9, "{method} on day {day}");
            }
        }
        assert!(proved > 0, "no day's optimum was proved");
    }
}
