//! Algorithm-1 bench: DQN training and CRL inference costs.
//!
//! Separates the one-off training phase ("merely needs to be conducted once
//! in advance") from the per-round prediction phase whose speed is DCTA's
//! selling point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::alloc_env::{AllocEnv, AllocSpec};
use rl::crl::{Crl, CrlConfig, EnvironmentRecord, EnvironmentStore};
use rl::dqn::{DqnAgent, DqnConfig};
use rl::mdp::Environment;
use std::hint::black_box;

fn spec(n: usize, m: usize) -> AllocSpec {
    AllocSpec {
        importances: (0..n).map(|i| ((i * 7) % 10) as f64 / 10.0).collect(),
        times: vec![1.0; n],
        resources: vec![1.0; n],
        time_limit: (n as f64 / m as f64 / 2.0).max(1.0),
        time_limits: None,
        capacities: vec![8.0; m],
        route_factors: None,
    }
}

fn bench_training(c: &mut Criterion) {
    let mut group = c.benchmark_group("crl_training");
    group.sample_size(10);
    for &(n, m) in &[(10usize, 3usize), (20, 5)] {
        group.bench_with_input(
            BenchmarkId::new("dqn_train_episode", format!("{n}x{m}")),
            &(n, m),
            |b, &(n, m)| {
                let mut rng = StdRng::seed_from_u64(1);
                let mut env = AllocEnv::new(spec(n, m)).expect("env");
                let mut agent = DqnAgent::new(
                    env.state_dim(),
                    env.num_actions(),
                    DqnConfig { hidden: vec![48], ..DqnConfig::default() },
                    &mut rng,
                )
                .expect("agent");
                b.iter(|| black_box(agent.train_episode(&mut env, &mut rng).expect("episode")))
            },
        );
    }
    group.finish();
}

fn bench_prediction(c: &mut Criterion) {
    let n = 20;
    let m = 5;
    let mut store = EnvironmentStore::new();
    for d in 0..6 {
        store
            .push(EnvironmentRecord {
                signature: vec![d as f64],
                importances: (0..n).map(|i| ((i + d) % 10) as f64 / 10.0).collect(),
            })
            .expect("record");
    }
    let crl = Crl::new(
        store,
        CrlConfig {
            episodes: 20,
            dqn: DqnConfig { hidden: vec![32], ..DqnConfig::default() },
            ..CrlConfig::default()
        },
    );
    let s = spec(n, m);
    // Warm the cache: the first call trains, later calls only infer.
    crl.allocate(&[0.0], &s).expect("warm-up");

    let mut group = c.benchmark_group("crl_prediction");
    group.sample_size(20);
    group.bench_function("allocate_cached_20x5", |b| {
        b.iter(|| black_box(crl.allocate(&[0.0], &s).expect("allocate")))
    });
    group.finish();
}

criterion_group!(benches, bench_training, bench_prediction);
criterion_main!(benches);
