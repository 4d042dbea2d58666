//! The paper's motivating example: a self-driving car's perception tasks
//! (neighbouring-car, traffic-sign, pedestrian detection, …) whose
//! importance depends on context — "neighboring car detection can be much
//! more related and important [on the highway] compared with most tasks
//! like pedestrian detection which are more important in a downtown area".
//!
//! Contexts (highway / downtown / school zone) are encoded as sensing
//! signatures; a Clustered-RL allocator learns from historical drives and
//! then allocates the car's heterogeneous compute under a per-frame time
//! budget.
//!
//! ```text
//! cargo run --release --example self_driving
//! ```

use tatim::rl::alloc_env::AllocSpec;
use tatim::rl::crl::{Crl, CrlConfig, EnvironmentRecord, EnvironmentStore};

const TASKS: [&str; 6] = [
    "neighbouring-car detection",
    "traffic-sign detection",
    "pedestrian detection",
    "lane tracking",
    "cyclist detection",
    "animal detection",
];

/// Context signature: [speed km/h / 100, pedestrian density, intersection density].
fn context(name: &str) -> Vec<f64> {
    match name {
        "highway" => vec![1.1, 0.02, 0.05],
        "downtown" => vec![0.35, 0.8, 0.9],
        "school" => vec![0.2, 0.95, 0.4],
        _ => unreachable!("unknown context"),
    }
}

/// Task importances observed historically per context.
fn importances(name: &str) -> Vec<f64> {
    match name {
        //          car   sign  ped   lane  cycl  animal
        "highway" => vec![0.95, 0.40, 0.05, 0.80, 0.05, 0.30],
        "downtown" => vec![0.60, 0.70, 0.90, 0.30, 0.75, 0.05],
        "school" => vec![0.30, 0.60, 0.98, 0.20, 0.85, 0.02],
        _ => unreachable!("unknown context"),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Historical drives populate the environment store (with daily jitter).
    let mut store = EnvironmentStore::new();
    for drive in 0..5 {
        for ctx in ["highway", "downtown", "school"] {
            let mut signature = context(ctx);
            for (i, s) in signature.iter_mut().enumerate() {
                *s += 0.01 * ((drive * 3 + i) as f64 % 5.0 - 2.0);
            }
            store.push(EnvironmentRecord { signature, importances: importances(ctx) })?;
        }
    }

    // The car's compute: two processors (GPU-ish and CPU-ish), a per-frame
    // time budget that fits only half the tasks.
    let spec = AllocSpec {
        importances: vec![0.0; TASKS.len()], // unknown at run time!
        times: vec![1.0; TASKS.len()],
        resources: vec![1.0, 1.0, 2.0, 1.0, 2.0, 1.0],
        time_limits: vec![1.5; 2], // one task per processor, plus slack
        capacities: vec![4.0, 2.0],
    };

    let crl = Crl::new(store, CrlConfig { episodes: 120, ..CrlConfig::default() });
    for ctx in ["highway", "school", "downtown"] {
        let out = crl.allocate(&context(ctx), &spec)?;
        println!("== context: {ctx} ==");
        let mut chosen: Vec<(usize, f64)> = out
            .assignment
            .iter()
            .enumerate()
            .filter_map(|(t, a)| a.map(|_| (t, out.estimated_importances[t])))
            .collect();
        chosen.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        for (t, imp) in &chosen {
            println!("  runs {} (estimated importance {:.2})", TASKS[*t], imp);
        }
        let skipped: Vec<&str> = out
            .assignment
            .iter()
            .enumerate()
            .filter(|(_, a)| a.is_none())
            .map(|(t, _)| TASKS[t])
            .collect();
        println!("  skips: {}", skipped.join(", "));
        println!(
            "  (agent cache {} — training runs once per recognised context)\n",
            if out.cache_hit { "hit" } else { "miss" }
        );
    }
    Ok(())
}
