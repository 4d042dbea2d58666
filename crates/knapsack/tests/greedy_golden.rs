//! Golden digests of greedy placements.
//!
//! Each row pins one FNV-1a digest of a whole placement (item by item, an
//! unpacked item as `u64::MAX`) from [`greedy`], [`greedy_with_local_search`]
//! and [`greedy_weighted`] on a fixed instance. The rows were taken before
//! plain best fit stopped scanning every sack per item, and a change to how
//! the best-fit sack is found must keep every one of them to the bit.
//!
//! The families are the shapes on which a sack index could go wrong:
//! - mesh rounds: one shared time limit, resource capacities from a handful
//!   of values, thousands of items; once more with per-sack route-deflated
//!   time limits;
//! - fleets of identical sacks, where every slack ties;
//! - integer sizes over capacities that include `+0.0` and `−0.0`;
//! - sizes exactly at, and just past, the `1e-12` fit tolerance;
//! - capacity scales at their `1e-12` clamp (every sack empty in one or
//!   both dimensions), where that tolerance is a whole scale unit.
//!
//! Only an intended change to what a greedy returns may regenerate these:
//! the test prints the rows on mismatch; paste them over `GOLDEN`.

use knapsack::greedy::{greedy, greedy_weighted, greedy_with_local_search};
use knapsack::problem::{Item, Packing, Problem, Sack};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in words {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn digest(packing: &Packing) -> u64 {
    fnv(packing.placement().iter().map(|s| s.map_or(u64::MAX, |s| s as u64)))
}

fn build(items: Vec<(f64, f64, f64)>, sacks: Vec<(f64, f64)>) -> Problem {
    Problem::new(
        items.into_iter().map(|(w, v, p)| Item::new(w, v, p).unwrap()).collect(),
        sacks.into_iter().map(|(w, v)| Sack::new(w, v).unwrap()).collect(),
    )
    .unwrap()
}

/// A mesh round: two unit-demand tasks per worker whose times sum to twice
/// the fleet's, one time limit for every sack (scaled per sack by a route
/// factor when `deflated`), and resource capacities from four values.
fn mesh(num_sacks: usize, deflated: bool, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let items: Vec<(f64, f64, f64)> = (0..2 * num_sacks)
        .map(|_| (rng.gen_range(2e5..4e6) * 4.75e-7, 1.0, rng.gen_range(0.0..1.0)))
        .collect();
    let limit = 0.5 * items.iter().map(|i| i.0).sum::<f64>() / num_sacks as f64;
    let sacks = (0..num_sacks)
        .map(|_| {
            let factor = if deflated { rng.gen_range(0.2..1.0) } else { 1.0 };
            (limit * factor, [2.0, 4.0, 6.0, 8.0][rng.gen_range(0..4)])
        })
        .collect();
    build(items, sacks)
}

/// `num_sacks` identical sacks and items drawn on a coarse grid, so slacks
/// tie across the whole fleet at every step.
fn identical(num_sacks: usize, num_items: usize, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let items = (0..num_items)
        .map(|_| {
            let w = f64::from(rng.gen_range(0..4u8));
            let v = f64::from(rng.gen_range(0..3u8));
            (w, v, f64::from(rng.gen_range(0..6u8)))
        })
        .collect();
    build(items, vec![(6.0, 4.0); num_sacks])
}

/// Integer sizes and profits, signed zeros among them, over capacities that
/// include `+0.0` and `−0.0` in either dimension.
fn signed_zero(num_sacks: usize, num_items: usize, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let grid = |rng: &mut StdRng, hi: u8| f64::from(rng.gen_range(0..hi));
    let signed = |rng: &mut StdRng, hi: u8| match rng.gen_range(0..4) {
        0 => 0.0,
        1 => -0.0,
        _ => grid(rng, hi),
    };
    let items = (0..num_items)
        .map(|_| (signed(&mut rng, 4), signed(&mut rng, 3), signed(&mut rng, 6)))
        .collect();
    let sacks = (0..num_sacks).map(|_| (signed(&mut rng, 6), signed(&mut rng, 5))).collect();
    build(items, sacks)
}

/// Items sized exactly `1e-12` past a capacity (which the fit test admits)
/// and `2e-12` past it (which it rejects), beside items that fit plainly.
fn fit_edge(num_sacks: usize, num_items: usize, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let items = (0..num_items)
        .map(|_| {
            let p = f64::from(rng.gen_range(1..6u8));
            match rng.gen_range(0..5) {
                0 => (2.0 + 1e-12, 1.0, p),
                1 => (2.0 + 2e-12, 1.0, p),
                2 => (1.0, 1.0 + 1e-12, p),
                3 => (1e-12, 1e-12, p),
                _ => (f64::from(rng.gen_range(0..3u8)), f64::from(rng.gen_range(0..2u8)), p),
            }
        })
        .collect();
    let sacks = (0..num_sacks)
        .map(|_| match rng.gen_range(0..4) {
            0 => (2.0, 1.0),
            1 => (2.0 + 1e-12, 1.0 + 1e-12),
            2 => (4.0, 2.0),
            _ => (1e-12, 0.0),
        })
        .collect();
    build(items, sacks)
}

/// Every sack empty in weight (and, with `both`, in volume), so the scale
/// clamps to `1e-12`; items of size zero, `1e-12`-fitting or slightly
/// larger.
fn clamped(num_sacks: usize, num_items: usize, both: bool, seed: u64) -> Problem {
    let mut rng = StdRng::seed_from_u64(seed);
    let tiny = |rng: &mut StdRng| match rng.gen_range(0..5) {
        0 => 0.0,
        1 => -0.0,
        2 => 1e-12,
        3 => 5e-13,
        _ => 3e-12,
    };
    let items = (0..num_items)
        .map(|_| {
            let v = if both { tiny(&mut rng) } else { f64::from(rng.gen_range(0..3u8)) };
            (tiny(&mut rng), v, f64::from(rng.gen_range(0..6u8)))
        })
        .collect();
    let sacks = (0..num_sacks)
        .map(|_| {
            let w = if rng.gen_bool(0.5) { 0.0 } else { -0.0 };
            (w, if both { 0.0 } else { f64::from(rng.gen_range(0..5u8)) })
        })
        .collect();
    build(items, sacks)
}

/// Per-sack multipliers from a handful of values, two of them within the
/// weighted rule's `1e-12` tie tolerance.
fn multipliers(num_sacks: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..num_sacks).map(|_| [1.0, 1.0 + 5e-13, 0.5, 2.0, 0.0][rng.gen_range(0..5)]).collect()
}

fn cases() -> Vec<(&'static str, Problem)> {
    vec![
        ("mesh_3000x1500", mesh(1500, false, 0x6D01)),
        ("mesh_deflated_3000x1500", mesh(1500, true, 0x6D02)),
        ("mesh_100x50", mesh(50, false, 0x6D03)),
        ("identical_400x9", identical(9, 400, 0x6D04)),
        ("identical_1500x300", identical(300, 1500, 0x6D05)),
        ("signed_zero_200x9", signed_zero(9, 200, 0x6D06)),
        ("signed_zero_600x130", signed_zero(130, 600, 0x6D07)),
        ("fit_edge_120x1", fit_edge(1, 120, 0x6D08)),
        ("fit_edge_500x65", fit_edge(65, 500, 0x6D09)),
        ("clamped_weight_300x40", clamped(40, 300, false, 0x6D0A)),
        ("clamped_both_300x40", clamped(40, 300, true, 0x6D0B)),
    ]
}

const GOLDEN: [(&str, u64, u64, u64); 11] = [
    ("mesh_3000x1500", 0x21d609564067a2ac, 0x21d609564067a2ac, 0x121d8e7c544bb0d6),
    ("mesh_deflated_3000x1500", 0x200e376a6f29d3b5, 0x200e376a6f29d3b5, 0xacfdea71ad390289),
    ("mesh_100x50", 0x6d43e3e33dd58b57, 0x6d43e3e33dd58b57, 0x80e6f20d2f3992bb),
    ("identical_400x9", 0x2c6546c794bf661f, 0x2c6546c794bf661f, 0x76602df204f5496f),
    ("identical_1500x300", 0xdcab7bdac298e376, 0xdcab7bdac298e376, 0xecf48f5d0ee8966d),
    ("signed_zero_200x9", 0xd65a67ef81e22d93, 0xd65a67ef81e22d93, 0xddf560a9b08b6ef2),
    ("signed_zero_600x130", 0xe4280ea7d27be0a8, 0xe4280ea7d27be0a8, 0x1fdb10e043c1fad9),
    ("fit_edge_120x1", 0x0a956870bec88f35, 0x0a956870bec88f35, 0x0a956870bec88f35),
    ("fit_edge_500x65", 0xd1cdc94feac8caf3, 0x505230484834c8c3, 0xd3fd2eedbb4c5220),
    ("clamped_weight_300x40", 0xab9d4d75bfbbf3af, 0x35197b8cb56c9d8d, 0x2deb095858dba7a6),
    ("clamped_both_300x40", 0x7ccd62b889215797, 0x7ccd62b889215797, 0xce8c20a82dce5b44),
];

#[test]
fn greedy_placements_match_golden_digests() {
    let got: Vec<(&str, u64, u64, u64)> = cases()
        .iter()
        .map(|(name, p)| {
            let weighted = greedy_weighted(p, &multipliers(p.num_sacks(), 0x6D10));
            (*name, digest(&greedy(p)), digest(&greedy_with_local_search(p)), digest(&weighted))
        })
        .collect();
    let matches = got.len() == GOLDEN.len() && got.iter().zip(GOLDEN).all(|(a, b)| *a == b);
    if !matches {
        for (name, g, ls, w) in &got {
            println!("    (\"{name}\", {g:#018x}, {ls:#018x}, {w:#018x}),");
        }
    }
    assert!(matches, "greedy placements drifted from the golden digests");
}
