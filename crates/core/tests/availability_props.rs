//! Property-based tests of the availability model's determinism contract:
//! posterior updates are invariant to `absorb` arrival order and thread
//! interleaving, and persistence round-trips the posterior bit-exactly.

use dcta_core::availability::AvailabilityModel;
use edgesim::node::NodeId;
use edgesim::trace::NodeExposure;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn exposures() -> impl Strategy<Value = Vec<NodeExposure>> {
    prop::collection::vec((0usize..8, 0.0f64..5e3, 0.0f64..5e3, 0u64..4), 1..40).prop_map(|specs| {
        specs
            .into_iter()
            .map(|(node, up_s, down_s, crashes)| NodeExposure {
                node: NodeId(node),
                up_s,
                down_s,
                crashes,
            })
            .collect()
    })
}

/// Absorbs each exposure as its own `absorb` call, the calls split across
/// `threads` OS threads, then folds the round and returns the exact
/// posterior dump.
fn absorb_with_threads(exposures: &[NodeExposure], threads: usize) -> String {
    let model = AvailabilityModel::default();
    let model_ref = &model;
    let chunk = exposures.len().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        for part in exposures.chunks(chunk) {
            s.spawn(move || {
                for e in part {
                    model_ref.absorb(std::slice::from_ref(e));
                }
            });
        }
    });
    model.advance_round();
    model.to_text()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any permutation of the exposure stream, split across 1, 2 or 8
    /// threads in any interleaving, leaves bit-identical posterior state.
    #[test]
    fn absorb_is_order_and_interleaving_invariant(exps in exposures(), seed in 0u64..u64::MAX) {
        let reference = absorb_with_threads(&exps, 1);
        let mut shuffled = exps.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
        for threads in [1usize, 2, 8] {
            let got = absorb_with_threads(&shuffled, threads);
            prop_assert_eq!(&got, &reference, "threads {}", threads);
        }
    }

    /// `to_text` → `load_text` reconstructs the posterior bit-exactly —
    /// including un-folded pending ticks — and the posterior mean and the
    /// seeded Thompson draw agree to the last bit.
    #[test]
    fn persistence_round_trips_bit_exactly(
        exps in exposures(),
        rounds in 1usize..4,
        draw_seed in 0u64..u64::MAX,
    ) {
        let model = AvailabilityModel::default();
        for _ in 0..rounds {
            model.absorb(&exps);
            model.advance_round();
        }
        // Leave un-folded ticks pending: the dump must carry those too.
        model.absorb(&exps);
        let text = model.to_text();

        let restored = AvailabilityModel::default();
        restored.load_text(&text).expect("well-formed dump");
        prop_assert_eq!(restored.to_text(), text);

        for node in 0..8usize {
            prop_assert_eq!(model.posterior(node), restored.posterior(node));
            prop_assert_eq!(model.mean(node).to_bits(), restored.mean(node).to_bits());
            prop_assert_eq!(
                model.thompson(node, draw_seed).to_bits(),
                restored.thompson(node, draw_seed).to_bits()
            );
        }
    }

    /// Thompson draws are pure functions of `(state, node, seed)`: repeat
    /// queries, query order, and other nodes' queries never perturb them,
    /// and every draw is a probability.
    #[test]
    fn thompson_draws_are_pure_and_bounded(exps in exposures(), seed in 0u64..u64::MAX) {
        let model = AvailabilityModel::default();
        model.absorb(&exps);
        model.advance_round();
        let forward: Vec<u64> = (0..8).map(|n| model.thompson(n, seed).to_bits()).collect();
        let backward: Vec<u64> =
            (0..8).rev().map(|n| model.thompson(n, seed).to_bits()).collect();
        for (n, (&f, &b)) in forward.iter().zip(backward.iter().rev()).enumerate() {
            prop_assert_eq!(f, b, "node {}", n);
            let draw = f64::from_bits(f);
            prop_assert!((0.0..=1.0).contains(&draw), "node {} draw {}", n, draw);
        }
    }
}
