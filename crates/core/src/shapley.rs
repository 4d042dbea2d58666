//! Permutation-sampling (Shapley-style) task importance.
//!
//! Definition 1's leave-one-out importance underestimates tasks whose value
//! is *joint*: when several tasks cover substitutable bands, removing any
//! single one barely moves `H`, yet removing the group is costly. The
//! Shapley value fixes this by averaging each task's marginal contribution
//! over random orderings of the whole task set:
//!
//! ```text
//! φ_j = E_π [ H(P_π(j) ∪ {j}) − H(P_π(j)) ]
//! ```
//!
//! where `P_π(j)` is the set of tasks preceding `j` in permutation `π`.
//! Exact computation is exponential; the standard Monte-Carlo estimator
//! samples permutations. This is an *extension* beyond the paper (which
//! uses leave-one-out); the `shapley` experiment compares the two.

use crate::importance::{ImportanceError, ImportanceEvaluator};
use buildings::scenario::DayContext;
use rand::seq::SliceRandom;
use rand::Rng;

/// Monte-Carlo Shapley importance estimates for one day.
///
/// `samples` permutations are drawn; each costs `N + 1` decision-function
/// evaluations, so total cost is `samples × (N + 1)` evaluations. Estimates
/// are clamped at zero (negative marginal contributions read as
/// "unimportant", matching the leave-one-out convention).
///
/// # Errors
///
/// Propagates [`ImportanceError`] from the underlying evaluator.
pub fn shapley_importances(
    evaluator: &ImportanceEvaluator<'_>,
    day: &DayContext,
    samples: usize,
    rng: &mut impl Rng,
) -> Result<Vec<f64>, ImportanceError> {
    let n = evaluator.scenario().num_tasks();
    // Permutations are drawn up front, serially, from the caller's RNG —
    // the stream of `shuffle` calls is exactly what the sequential sampler
    // consumed, so seeded runs reproduce the same sample set regardless of
    // how the evaluations below are scheduled.
    let mut order: Vec<usize> = (0..n).collect();
    let permutations: Vec<Vec<usize>> = (0..samples.max(1))
        .map(|_| {
            order.shuffle(rng);
            order.clone()
        })
        .collect();
    // Each permutation's marginal-contribution chain is independent;
    // evaluate them in parallel and reduce in sample order afterwards so
    // the floating-point accumulation order matches the serial loop.
    let deltas: Vec<Vec<f64>> =
        parallel::try_map(permutations.len(), 2, |p| -> Result<Vec<f64>, ImportanceError> {
            let mut mask = vec![false; n];
            let mut previous = evaluator.decision_performance(day, &mask)?;
            let mut delta = vec![0.0; n];
            for &j in &permutations[p] {
                mask[j] = true;
                let current = evaluator.decision_performance(day, &mask)?;
                delta[j] = current - previous;
                previous = current;
            }
            Ok(delta)
        })?;
    let mut totals = vec![0.0; n];
    for delta in &deltas {
        for (total, &d) in totals.iter_mut().zip(delta) {
            *total += d;
        }
    }
    let scale = 1.0 / samples.max(1) as f64;
    Ok(totals.into_iter().map(|t| (t * scale).max(0.0)).collect())
}

/// Efficiency check: the Shapley values of one permutation-sampled run sum
/// (in expectation) to `H(all) − H(none)`. Returns the pair for diagnostics.
///
/// # Errors
///
/// Propagates [`ImportanceError`].
pub fn efficiency_gap(
    evaluator: &ImportanceEvaluator<'_>,
    day: &DayContext,
    shapley: &[f64],
) -> Result<(f64, f64), ImportanceError> {
    let n = evaluator.scenario().num_tasks();
    let all = evaluator.decision_performance(day, &vec![true; n])?;
    let none = evaluator.decision_performance(day, &vec![false; n])?;
    Ok((shapley.iter().sum(), all - none))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::importance::CopModels;
    use buildings::scenario::{Scenario, ScenarioConfig};
    use learn::transfer::MtlConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn scenario() -> Scenario {
        Scenario::generate(ScenarioConfig {
            num_buildings: 2,
            chillers_per_building: 2,
            bands_per_chiller: 4,
            num_tasks: 0,
            history_days: 50,
            eval_days: 4,
            ..ScenarioConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn shapley_bounded_and_shaped() {
        let s = scenario();
        let m = CopModels::train(&s, MtlConfig { transfer_strength: 2.0, ..MtlConfig::default() })
            .unwrap();
        let ev = ImportanceEvaluator::new(&s, &m);
        let mut rng = StdRng::seed_from_u64(3);
        let phi = shapley_importances(&ev, s.day(0), 8, &mut rng).unwrap();
        assert_eq!(phi.len(), s.num_tasks());
        assert!(phi.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn shapley_captures_at_least_loo_mass() {
        // Substitutability means the leave-one-out total is a lower bound
        // (up to sampling noise) on the Shapley total.
        let s = scenario();
        let m = CopModels::train(&s, MtlConfig { transfer_strength: 2.0, ..MtlConfig::default() })
            .unwrap();
        let ev = ImportanceEvaluator::new(&s, &m);
        let mut rng = StdRng::seed_from_u64(4);
        let mut total_loo = 0.0;
        let mut total_shapley = 0.0;
        for day in s.days() {
            total_loo += ev.importances(day).unwrap().iter().sum::<f64>();
            total_shapley +=
                shapley_importances(&ev, day, 10, &mut rng).unwrap().iter().sum::<f64>();
        }
        assert!(total_shapley >= total_loo * 0.8, "shapley {total_shapley} vs loo {total_loo}");
    }

    #[test]
    fn efficiency_approximately_holds() {
        let s = scenario();
        let m = CopModels::train(&s, MtlConfig { transfer_strength: 2.0, ..MtlConfig::default() })
            .unwrap();
        let ev = ImportanceEvaluator::new(&s, &m);
        let mut rng = StdRng::seed_from_u64(5);
        let phi = shapley_importances(&ev, s.day(1), 20, &mut rng).unwrap();
        let (sum, target) = efficiency_gap(&ev, s.day(1), &phi).unwrap();
        // Clamping at zero can only push the sum above the signed target.
        assert!(sum + 1e-9 >= target - 0.05, "efficiency violated: sum {sum} target {target}");
    }

    #[test]
    fn zero_samples_treated_as_one() {
        let s = scenario();
        let m = CopModels::train(&s, MtlConfig::default()).unwrap();
        let ev = ImportanceEvaluator::new(&s, &m);
        let mut rng = StdRng::seed_from_u64(6);
        let phi = shapley_importances(&ev, s.day(0), 0, &mut rng).unwrap();
        assert_eq!(phi.len(), s.num_tasks());
    }
}
