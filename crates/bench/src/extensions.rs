//! Extension experiments beyond the paper's evaluation:
//!
//! * **shapley** — leave-one-out (Definition 1) vs permutation-sampling
//!   Shapley importance: how much joint task value the paper's metric
//!   misses.
//! * **medium** — per-node-link vs shared-medium WiFi contention: how the
//!   Fig. 9-11 ordering behaves under the pessimistic channel model.

use crate::common::{
    f3, mean, paper_pipeline, paper_scenario, pct, prepare_cached, RunOpts, Table,
};
use crate::sweeps::METHODS;
use dcta_core::importance::{CopModels, ImportanceEvaluator};
use dcta_core::objective::AllocQuery;
use dcta_core::processor::ProcessorFleet;
use dcta_core::shapley::{efficiency_gap, shapley_importances};
use dcta_core::shared::PreparedCore;
use dcta_core::task::{EdgeTask, TaskId};
use dcta_core::tatim::{SolverKind, TatimInstance};
use edgesim::cluster::Cluster;
use edgesim::network::MediumMode;
use edgesim::node::DeviceModel;
use learn::transfer::MtlConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::error::Error;

/// Shapley-vs-LOO snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct ShapleyStudy {
    /// Mean per-day total LOO importance.
    pub loo_total: f64,
    /// Mean per-day total Shapley importance.
    pub shapley_total: f64,
    /// Mean per-day `H(all) − H(none)` (the mass Shapley should recover).
    pub joint_value: f64,
    /// Rendered table.
    pub table: Table,
}

/// Runs the Shapley-vs-leave-one-out comparison.
///
/// # Errors
///
/// Propagates scenario/training failures.
pub fn shapley(opts: &RunOpts) -> Result<ShapleyStudy, Box<dyn Error>> {
    let scenario = paper_scenario(opts, opts.pick(10, 5))?;
    let models =
        CopModels::train(&scenario, MtlConfig { transfer_strength: 2.0, ..MtlConfig::default() })?;
    let evaluator = ImportanceEvaluator::new(&scenario, &models);
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5A);
    let samples = opts.pick(16, 6);

    let mut table = Table::new(
        "Extension — leave-one-out (Def. 1) vs Shapley importance",
        &["day", "sum LOO", "sum Shapley", "H(all) - H(none)"],
    );
    let mut loo_sums = Vec::new();
    let mut sh_sums = Vec::new();
    let mut joints = Vec::new();
    for (d, day) in scenario.days().iter().enumerate() {
        let loo: f64 = evaluator.importances(day)?.iter().sum();
        let phi = shapley_importances(&evaluator, day, samples, &mut rng)?;
        let (sh, joint) = efficiency_gap(&evaluator, day, &phi)?;
        table.push_row(vec![d.to_string(), f3(loo), f3(sh), f3(joint)]);
        loo_sums.push(loo);
        sh_sums.push(sh);
        joints.push(joint);
    }
    let study = ShapleyStudy {
        loo_total: mean(&loo_sums),
        shapley_total: mean(&sh_sums),
        joint_value: mean(&joints),
        table,
    };
    let mut t = study.table.clone();
    t.push_row(vec![
        "mean".into(),
        f3(study.loo_total),
        f3(study.shapley_total),
        f3(study.joint_value),
    ]);
    Ok(ShapleyStudy { table: t, ..study })
}

/// Medium-contention snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct MediumStudy {
    /// Mean PT per method under per-node links, [`METHODS`] order.
    pub per_link_pt: Vec<f64>,
    /// Mean PT per method under the shared medium.
    pub shared_pt: Vec<f64>,
    /// Rendered table.
    pub table: Table,
}

/// Runs the medium-contention ablation: the same allocations executed under
/// both channel models.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn medium(opts: &RunOpts) -> Result<MediumStudy, Box<dyn Error>> {
    let scenario = paper_scenario(opts, opts.pick(9, 6))?;
    let mut prepared = prepare_cached(paper_pipeline(opts), &scenario)?;
    let days: Vec<usize> = prepared.test_days().collect();

    let mut allocations = Vec::new();
    for method in METHODS {
        let mut per_day = Vec::new();
        for &day in &days {
            per_day.push(prepared.allocate(&AllocQuery::new(method, day))?);
        }
        allocations.push(per_day);
    }

    let run_all = |prepared: &PreparedCore| -> Result<Vec<f64>, Box<dyn Error>> {
        let mut out = Vec::new();
        for (mi, method) in METHODS.iter().enumerate() {
            let mut pts = Vec::new();
            for (di, &day) in days.iter().enumerate() {
                let decision = allocations[mi][di].clone();
                pts.push(
                    prepared
                        .execute(*method, day, decision.allocation, decision.overhead_s)?
                        .processing_time_s,
                );
            }
            out.push(mean(&pts));
        }
        Ok(out)
    };
    let per_link_pt = run_all(&prepared)?;
    prepared
        .cluster_mut()
        .network_mut()
        .expect("star testbed")
        .set_medium(MediumMode::SharedMedium);
    let shared_pt = run_all(&prepared)?;

    let mut table = Table::new(
        "Extension — WiFi contention model (mean PT, s)",
        &["method", "per-node links", "shared medium", "inflation"],
    );
    for (i, method) in METHODS.iter().enumerate() {
        table.push_row(vec![
            method.to_string(),
            format!("{:.1}", per_link_pt[i]),
            format!("{:.1}", shared_pt[i]),
            pct(shared_pt[i] / per_link_pt[i].max(1e-12) - 1.0),
        ]);
    }
    Ok(MediumStudy { per_link_pt, shared_pt, table })
}

/// Heterogeneous-budget snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct HeteroBudget {
    /// Mean captured importance under the uniform budget.
    pub uniform_capture: f64,
    /// Mean captured importance when B+ nodes get a doubled budget.
    pub hetero_capture: f64,
    /// Mean scheduled-task counts (uniform, hetero).
    pub scheduled: (f64, f64),
    /// Rendered table.
    pub table: Table,
}

/// The §VII "powerful edge nodes" extension: doubling the time budget of
/// the fastest Pis (as if upgraded) and re-solving TATIM exactly. The
/// knapsack reduction carries per-sack budgets natively, so the extension
/// is purely a constraint change, as the paper predicts.
///
/// # Errors
///
/// Propagates scenario/training failures.
pub fn hetero_budget(opts: &RunOpts) -> Result<HeteroBudget, Box<dyn Error>> {
    let scenario = paper_scenario(opts, opts.pick(10, 5))?;
    let models =
        CopModels::train(&scenario, MtlConfig { transfer_strength: 2.0, ..MtlConfig::default() })?;
    let evaluator = ImportanceEvaluator::new(&scenario, &models);
    let n = scenario.num_tasks();
    let cluster = Cluster::paper_testbed()?;
    let mean_bits = (0..n).map(|t| scenario.input_bits(t)).sum::<f64>() / n as f64;
    let tasks: Vec<EdgeTask> = (0..n)
        .map(|t| {
            EdgeTask::new(
                TaskId(t),
                scenario.tasks()[t].name.clone(),
                scenario.input_bits(t),
                scenario.input_bits(t) / mean_bits,
                0.0,
            )
            .expect("valid scenario sizes")
        })
        .collect();
    let total: f64 = tasks.iter().map(EdgeTask::reference_time_s).sum();
    let base_limit = 0.5 * total / 9.0;
    let uniform_fleet = ProcessorFleet::from_cluster(&cluster, base_limit)?;
    let hetero_limits: Vec<f64> = cluster
        .workers()
        .map(|node| {
            if node.model() == DeviceModel::RaspberryPiBPlus {
                base_limit * 2.0
            } else {
                base_limit
            }
        })
        .collect();
    let hetero_fleet =
        ProcessorFleet::with_time_limits(uniform_fleet.processors().to_vec(), hetero_limits)?;

    let mut u_cap = Vec::new();
    let mut h_cap = Vec::new();
    let mut u_sched = Vec::new();
    let mut h_sched = Vec::new();
    for day in scenario.days() {
        let imp = evaluator.importances(day)?;
        let uniform =
            TatimInstance::new(tasks.clone(), uniform_fleet.clone()).with_importances(&imp);
        let hetero = TatimInstance::new(tasks.clone(), hetero_fleet.clone()).with_importances(&imp);
        let u = uniform.solve(&SolverKind::Greedy)?;
        let h = hetero.solve(&SolverKind::Greedy)?;
        u_cap.push(u.objective);
        h_cap.push(h.objective);
        u_sched.push(u.allocation.scheduled_count() as f64);
        h_sched.push(h.allocation.scheduled_count() as f64);
    }

    let result = HeteroBudget {
        uniform_capture: mean(&u_cap),
        hetero_capture: mean(&h_cap),
        scheduled: (mean(&u_sched), mean(&h_sched)),
        table: Table::new("", &[]),
    };
    let mut table = Table::new(
        "Extension SVII — heterogeneous budgets (B+ nodes doubled)",
        &["fleet", "captured importance", "scheduled tasks"],
    );
    table.push_row(vec![
        "uniform T".into(),
        f3(result.uniform_capture),
        format!("{:.1}", result.scheduled.0),
    ]);
    table.push_row(vec![
        "hetero T (B+ x2)".into(),
        f3(result.hetero_capture),
        format!("{:.1}", result.scheduled.1),
    ]);
    Ok(HeteroBudget { table, ..result })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> RunOpts {
        RunOpts { quick: true, ..Default::default() }
    }

    #[test]
    fn bigger_budgets_never_capture_less() {
        let r = hetero_budget(&quick()).unwrap();
        assert!(
            r.hetero_capture + 1e-9 >= r.uniform_capture,
            "hetero {} < uniform {}",
            r.hetero_capture,
            r.uniform_capture
        );
        assert!(r.scheduled.1 + 1e-9 >= r.scheduled.0);
    }

    #[test]
    fn shapley_recovers_more_joint_value_than_loo() {
        let r = shapley(&quick()).unwrap();
        // Shapley totals must track the joint value far better than LOO
        // totals do (substitutability makes LOO a gross underestimate).
        assert!(r.shapley_total + 1e-9 >= r.loo_total * 0.9);
        assert!(r.shapley_total.is_finite() && r.joint_value.is_finite());
    }

    #[test]
    fn shared_medium_never_speeds_anything_up() {
        let r = medium(&quick()).unwrap();
        for (i, (&p, &s)) in r.per_link_pt.iter().zip(&r.shared_pt).enumerate() {
            assert!(s + 1e-6 >= p, "method {i}: shared {s} < per-link {p}");
        }
        // The non-selective baselines ship more bytes, so contention hits
        // them at least as hard in absolute terms.
        assert!(
            r.shared_pt[0] - r.per_link_pt[0] >= r.shared_pt[3] - r.per_link_pt[3] - 1e-6,
            "RM absolute inflation below DCTA's"
        );
    }
}
