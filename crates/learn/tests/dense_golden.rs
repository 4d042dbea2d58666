//! Golden digests of `Mlp` parameters after short seeded training runs, and
//! the pin on the order `Mlp::new` fills and `parameter_bits()` emits.
//!
//! Each constant in `GOLDEN` is an FNV-1a digest of [`Mlp::parameter_bits`]
//! generated on the commit *before* a layer stored its weights as `Wᵀ`
//! alone, except `adam_td_chunked_70`, generated on the commit before the
//! dense MSE batch step was deleted (the TD step was the same code there).
//! `dqn_golden` reaches only Adam and the TD step on one hidden layer; the
//! bit-identity tests in `nn` and `properties.rs` compare two sides that a
//! layout change moves together. These rows cover what is left: the
//! per-sample reference under both optimisers, and the TD step's dense
//! propagation through a second hidden layer under both optimisers and,
//! above 64 samples, through the chunked reduction.
//!
//! Only an intended change to what training computes may regenerate them:
//! the test prints the rows on mismatch; paste them over `GOLDEN`.

use learn::nn::{
    Activation, AdamOptimizer, BatchWorkspace, Mlp, Optimizer, PrefixRow, SgdOptimizer,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIZES: [usize; 4] = [5, 9, 6, 4];

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

fn random_rows(rng: &mut StdRng, n: usize, dim: usize) -> Vec<Vec<f64>> {
    (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect()).collect()
}

/// The seeded net and a batch of `n` samples for it.
fn fixture(n: usize) -> (Mlp, Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut rng = StdRng::seed_from_u64(0xD5E);
    let net = Mlp::new(&SIZES, Activation::Tanh, &mut rng).unwrap();
    let inputs = random_rows(&mut rng, n, SIZES[0]);
    let targets = random_rows(&mut rng, n, SIZES[3]);
    (net, inputs, targets)
}

fn per_sample(n: usize, mut opt: impl Optimizer) -> u64 {
    let (mut net, inputs, targets) = fixture(n);
    for _ in 0..3 {
        net.train_batch(&inputs, &targets, &mut opt).unwrap();
    }
    fnv(&net.parameter_bits())
}

/// TD steps on sparse-prefix rows: the first two inputs are a 0/1 block.
fn td(n: usize, mut opt: impl Optimizer) -> u64 {
    let (mut net, inputs, targets) = fixture(n);
    let ones: Vec<Vec<u32>> =
        (0..n).map(|s| (0..2).filter(|b| (s >> b) & 1 == 1).collect()).collect();
    let rows: Vec<PrefixRow> =
        inputs.iter().zip(&ones).map(|(x, o)| PrefixRow { ones: o, tail: &x[2..] }).collect();
    let actions: Vec<usize> = (0..n).map(|s| s % SIZES[3]).collect();
    let bootstraps: Vec<f64> = targets.iter().map(|y| y[0]).collect();
    let mut ws = BatchWorkspace::new();
    for _ in 0..3 {
        net.train_td_batch_ws(2, &rows, &actions, &bootstraps, &mut opt, &mut ws).unwrap();
    }
    fnv(&net.parameter_bits())
}

const GOLDEN: [(&str, u64); 5] = [
    ("adam_per_sample", 0xb614_0c17_c4e7_4fb5),
    ("sgd_momentum_per_sample", 0xacf4_d25f_ddba_5331),
    ("adam_td", 0xfa77_ea86_6722_1048),
    ("sgd_momentum_td", 0xedc9_cb8d_37a9_09f8),
    ("adam_td_chunked_70", 0x8301_d2af_7316_bd8c),
];

#[test]
fn trained_parameters_match_parent_digests() {
    let adam = || AdamOptimizer::new(0.01);
    let sgd = || SgdOptimizer::new(0.05, 0.9);
    let got = [
        ("adam_per_sample", per_sample(7, adam())),
        ("sgd_momentum_per_sample", per_sample(7, sgd())),
        ("adam_td", td(7, adam())),
        ("sgd_momentum_td", td(7, sgd())),
        ("adam_td_chunked_70", td(70, adam())),
    ];
    if got != GOLDEN {
        for (name, d) in &got {
            println!("    (\"{name}\", {d:#018x}),");
        }
    }
    assert_eq!(got, GOLDEN, "trained Mlp parameters drifted from the parent commit's digests");
}

/// `Mlp::new` draws a layer's weights in `out × in` row-major order, each
/// `gen_range(-1.0..1.0) · sqrt(2 / fan_in)`, and `parameter_bits()` emits
/// them in that order followed by the layer's `+0.0` biases. Every golden
/// downstream of a seeded network rests on both halves; the one-hot forward
/// below ties the emitted order to what the network computes, so filling
/// and emitting in some other shared order fails too.
#[test]
fn new_fills_and_parameter_bits_emits_in_out_by_in_row_major_order() {
    let seed = 0xF111;
    let net = Mlp::new(&SIZES, Activation::Tanh, &mut StdRng::seed_from_u64(seed)).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut expected = Vec::new();
    for w in SIZES.windows(2) {
        let (fan_in, fan_out) = (w[0], w[1]);
        let scale = (2.0 / fan_in as f64).sqrt();
        expected
            .extend((0..fan_out * fan_in).map(|_| (rng.gen_range(-1.0..1.0) * scale).to_bits()));
        expected.extend(std::iter::repeat_n(0.0f64.to_bits(), fan_out));
    }
    assert_eq!(net.parameter_bits(), expected);

    // One linear layer: `forward(e_c)[r]` is `W[r][c]`, draw `r · in + c`.
    let (fan_in, fan_out) = (3, 4);
    let layer =
        Mlp::new(&[fan_in, fan_out], Activation::Relu, &mut StdRng::seed_from_u64(seed)).unwrap();
    let bits = layer.parameter_bits();
    for c in 0..fan_in {
        let mut e = vec![0.0; fan_in];
        e[c] = 1.0;
        let out = layer.forward(&e).unwrap();
        for r in 0..fan_out {
            assert_eq!(out[r].to_bits(), bits[r * fan_in + c], "W[{r}][{c}]");
        }
    }
}
