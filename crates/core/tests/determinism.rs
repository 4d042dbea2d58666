//! The parallel execution layer's contract, checked end-to-end: every
//! parallelised call site in the importance/Shapley/MTL path returns
//! bit-identical results at `threads ∈ {1, 2, 8}` (1 = the exact serial
//! path, no spawns at all).

use buildings::scenario::{Scenario, ScenarioConfig};
use dcta_core::importance::{CopModels, ImportanceEvaluator};
use dcta_core::shapley::shapley_importances;
use learn::transfer::MtlConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn scenario() -> Scenario {
    Scenario::generate(ScenarioConfig {
        num_buildings: 2,
        chillers_per_building: 2,
        bands_per_chiller: 4,
        num_tasks: 0, // full grid
        history_days: 50,
        eval_days: 4,
        ..ScenarioConfig::default()
    })
    .unwrap()
}

fn matrix_bits(matrix: &[Vec<f64>]) -> Vec<Vec<u64>> {
    matrix.iter().map(|row| row.iter().map(|v| v.to_bits()).collect()).collect()
}

#[test]
fn importance_pipeline_is_thread_count_invariant() {
    let s = scenario();
    let mut runs = Vec::new();
    for threads in THREAD_COUNTS {
        let _threads = parallel::ScopedThreads::new(threads);
        // Model training (parallel MTL fit + stripping) is inside the loop
        // on purpose: the whole train → evaluate chain must be invariant,
        // not just the final sweep.
        let m = CopModels::train(&s, MtlConfig { transfer_strength: 2.0, ..MtlConfig::default() })
            .unwrap();
        let ev = ImportanceEvaluator::new(&s, &m);
        let matrix = ev.importance_matrix().unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let shapley = shapley_importances(&ev, s.day(1), 6, &mut rng).unwrap();
        runs.push((matrix_bits(&matrix), matrix_bits(&[shapley])));
    }
    assert_eq!(runs[0], runs[1], "threads 1 vs 2 diverged");
    assert_eq!(runs[0], runs[2], "threads 1 vs 8 diverged");
}
