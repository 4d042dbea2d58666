//! Golden digests of trained DQN parameters at paper-shaped geometries.
//!
//! Each constant below is an FNV-1a digest of [`DqnAgent::parameter_bits`]
//! (online then target network) after a short seeded training run, and was
//! generated on the commit *before* the learn step memoised its target
//! bootstraps and skipped the selection block's zeros. The learn step must
//! keep reproducing them to the bit: the other goldens reach this code only
//! at small geometries, where the register-tile kernels never see a full
//! 927-wide state or a ragged 51-action output.
//!
//! Every run crosses several target syncs, and the 12 × 4 run wraps a replay
//! smaller than its step count, so stale and overwritten bootstrap rows
//! would both show. Its row was generated on the parent of the commit that
//! retired the routed state column, from the retired routed case's
//! configuration without route factors.
//!
//! Only an intended change to what training computes may regenerate these:
//! the test prints the rows on mismatch; paste them over `GOLDEN`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::alloc_env::{AllocEnv, AllocSpec};
use rl::dqn::{DqnAgent, DqnConfig};
use rl::mdp::Environment;

fn fnv(bits: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in bits {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A seeded instance whose budgets admit roughly two thirds of the tasks, so
/// episodes mix assignments, masked tasks and cursor advances.
fn spec(n: usize, m: usize, seed: u64) -> AllocSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let times: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..2.0)).collect();
    let resources: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
    let time_limit = times.iter().sum::<f64>() * 0.65 / m as f64;
    AllocSpec {
        importances: (0..n).map(|_| rng.gen_range(0.0..1.0)).collect(),
        times,
        resources,
        time_limits: vec![time_limit; m],
        capacities: (0..m).map(|_| rng.gen_range(3.0..6.0)).collect(),
    }
}

struct Case {
    name: &'static str,
    tasks: usize,
    processors: usize,
    episodes: usize,
    config: fn() -> DqnConfig,
}

const CASES: [Case; 2] = [
    Case {
        name: "paper_50x9_hidden48",
        tasks: 50,
        processors: 9,
        episodes: 4,
        config: || DqnConfig { hidden: vec![48], target_sync_interval: 25, ..DqnConfig::default() },
    },
    Case {
        name: "plain_12x4",
        tasks: 12,
        processors: 4,
        episodes: 30,
        config: || DqnConfig {
            replay_capacity: 96,
            target_sync_interval: 50,
            ..DqnConfig::default()
        },
    },
];

const GOLDEN: [(&str, u64); 2] =
    [("paper_50x9_hidden48", 0x4595_f7ee_a1f1_614e), ("plain_12x4", 0x3118_7a96_6619_411a)];

fn digest(case: &Case) -> u64 {
    let mut env = AllocEnv::new(spec(case.tasks, case.processors, 0xD016)).unwrap();
    let mut rng = StdRng::seed_from_u64(0x16D0);
    let mut agent =
        DqnAgent::new(env.state_dim(), env.num_actions(), (case.config)(), &mut rng).unwrap();
    for _ in 0..case.episodes {
        agent.train_episode(&mut env, &mut rng).unwrap();
    }
    fnv(&agent.parameter_bits())
}

#[test]
fn trained_parameters_match_parent_digests() {
    let got: Vec<(&str, u64)> = CASES.iter().map(|c| (c.name, digest(c))).collect();
    if got != GOLDEN {
        for (name, d) in &got {
            println!("    (\"{name}\", {d:#018x}),");
        }
    }
    assert_eq!(got, GOLDEN, "trained DQN parameters drifted from the parent commit's digests");
}
