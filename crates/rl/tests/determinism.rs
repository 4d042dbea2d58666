//! CRL pretraining is seeded per cache key, so the trained agents — and the
//! allocations they emit — must be bit-identical at any thread count.

use rl::alloc_env::AllocSpec;
use rl::crl::{Crl, CrlConfig, EnvironmentRecord, EnvironmentStore, LookupMode};
use rl::dqn::DqnConfig;

fn spec(n: usize) -> AllocSpec {
    AllocSpec {
        importances: vec![0.0; n],
        times: vec![1.0; n],
        resources: vec![1.0; n],
        time_limit: 1.0,
        time_limits: None,
        capacities: vec![1.0, 1.0],
        route_factors: None,
    }
}

fn store(n: usize) -> EnvironmentStore {
    let mut store = EnvironmentStore::new();
    let mut imp_a = vec![0.05; n];
    imp_a[0] = 0.95;
    let mut imp_b = vec![0.05; n];
    imp_b[n - 1] = 0.95;
    for d in 0..4 {
        let jitter = d as f64 * 0.1;
        store
            .push(EnvironmentRecord { signature: vec![jitter], importances: imp_a.clone() })
            .unwrap();
        store
            .push(EnvironmentRecord { signature: vec![10.0 + jitter], importances: imp_b.clone() })
            .unwrap();
    }
    store
}

fn run_at(threads: usize, lookup: LookupMode) -> Vec<(Vec<Option<usize>>, Vec<u64>)> {
    let n = 4;
    parallel::set_max_threads(threads);
    let crl = Crl::new(
        store(n),
        CrlConfig {
            lookup,
            episodes: 12,
            dqn: DqnConfig { hidden: vec![16], ..DqnConfig::default() },
            ..CrlConfig::default()
        },
    );
    crl.pretrain(&spec(n)).unwrap();
    let out = [0.0, 10.0]
        .iter()
        .map(|&sig| {
            let alloc = crl.allocate(&[sig], &spec(n)).unwrap();
            let value_bits: Vec<u64> =
                alloc.estimated_importances.iter().map(|v| v.to_bits()).collect();
            (alloc.assignment, value_bits)
        })
        .collect();
    parallel::set_max_threads(0);
    out
}

#[test]
fn pretrained_crl_is_thread_count_invariant() {
    for lookup in [LookupMode::OnlineKnn, LookupMode::OfflineKMeans { clusters: 2 }] {
        let at_1 = run_at(1, lookup);
        let at_2 = run_at(2, lookup);
        let at_8 = run_at(8, lookup);
        assert_eq!(at_1, at_2, "{lookup:?}: threads 1 vs 2 diverged");
        assert_eq!(at_1, at_8, "{lookup:?}: threads 1 vs 8 diverged");
    }
}

/// Trains a single DQN with a batch size above the 64-sample gradient chunk,
/// so every learn step goes through the parallel fixed-order chunked
/// reduction, and returns all network parameter bits.
fn train_large_batch_at(threads: usize) -> Vec<u64> {
    use rand::SeedableRng;
    use rl::alloc_env::AllocEnv;
    use rl::dqn::DqnAgent;
    use rl::mdp::Environment;

    parallel::set_max_threads(threads);
    let n = 6;
    let task_spec = AllocSpec {
        importances: (0..n).map(|i| 0.1 + 0.15 * i as f64).collect(),
        times: vec![1.0; n],
        resources: vec![1.0; n],
        time_limit: 2.0,
        time_limits: None,
        capacities: vec![2.0, 2.0],
        route_factors: None,
    };
    let mut env = AllocEnv::new(task_spec).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let mut agent = DqnAgent::new(
        env.state_dim(),
        env.num_actions(),
        DqnConfig {
            hidden: vec![16],
            batch_size: 160,
            replay_capacity: 1024,
            target_sync_interval: 50,
            ..DqnConfig::default()
        },
        &mut rng,
    )
    .unwrap();
    for _ in 0..60 {
        agent.train_episode(&mut env, &mut rng).unwrap();
    }
    parallel::set_max_threads(0);
    agent.parameter_bits()
}

#[test]
fn chunked_minibatch_gradients_are_thread_count_invariant() {
    let at_1 = train_large_batch_at(1);
    let at_2 = train_large_batch_at(2);
    let at_8 = train_large_batch_at(8);
    assert_eq!(at_1, at_2, "threads 1 vs 2 diverged");
    assert_eq!(at_1, at_8, "threads 1 vs 8 diverged");
}
