//! Property-based tests of the ML substrate's core invariants.

use learn::dataset::{Dataset, Standardizer};
use learn::linalg::{dot, euclidean_distance, BinaryRows, Matrix};
use learn::linear::RidgeRegression;
use learn::metrics::{mae, prediction_accuracy, rmse};
use learn::nn::{Activation, AdamOptimizer, BatchWorkspace, Mlp, PrefixRow};
use learn::transfer::fit_biased_ridge;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, len)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Reference `C[i][j] = Σ_k A[i][k]·B[k][j]` with `k` strictly ascending —
/// the accumulation order every blocked kernel must preserve.
fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0;
            for k in 0..a.cols() {
                acc += a[(i, k)] * b[(k, j)];
            }
            out[(i, j)] = acc;
        }
    }
    out
}

fn small_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..5, 1usize..5).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0f64..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).expect("length matches"))
    })
}

/// A left operand `[P | T]` in both forms: `P` a 0/1 block of width `prefix`
/// (as index lists and written out), `T` dense with exact and negative
/// zeros mixed in. Rows are all-zero, all-one, a copy of the row above, or
/// random, so empty lists, full lists and duplicates all occur.
fn prefixed_operand(
    rng: &mut StdRng,
    rows: usize,
    prefix: usize,
    tail: usize,
) -> (BinaryRows, Matrix, Matrix) {
    use rand::Rng;
    let mut ones = BinaryRows::default();
    ones.clear(prefix);
    let mut tails = Matrix::zeros(rows, tail);
    let mut dense = Matrix::zeros(rows, prefix + tail);
    for r in 0..rows {
        let set: Vec<u32> = match rng.gen_range(0..4) {
            0 => Vec::new(),
            1 => (0..prefix as u32).collect(),
            2 if r > 0 => ones.row(r - 1).to_vec(),
            _ => (0..prefix as u32).filter(|_| rng.gen_bool(0.1)).collect(),
        };
        for &i in &set {
            dense[(r, i as usize)] = 1.0;
        }
        ones.push_row(&set).expect("ascending, in range");
        for c in 0..tail {
            let x = match rng.gen_range(0..6) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-10.0..10.0),
            };
            tails[(r, c)] = x;
            dense[(r, prefix + c)] = x;
        }
    }
    (ones, tails, dense)
}

/// Batch sizes around the kernels' 4-row register block (row tails of
/// every size) and output widths around their 8-column tile (48 exact, 51
/// and 5 ragged); `(prefix, tail)` covers no block, only a block, both, and
/// the inputs of the benchmark's two layers (927 = 450 + 477, and 48).
const PREFIX_BATCHES: [usize; 5] = [1, 3, 4, 32, 33];
const PREFIX_WIDTHS: [usize; 3] = [48, 51, 5];
const PREFIX_SPLITS: [(usize, usize); 6] =
    [(0, 13), (37, 0), (37, 13), (90, 27), (450, 477), (0, 48)];

/// `Wᵀ` shapes `(inputs, outputs)` for the single-state kernel: both layers
/// of the benchmark's 927 → 48 → 51 network, output widths on either side
/// of its 16-wide register tile (narrower, exact, a ragged tile overlapping
/// one or two full ones) and an empty sum.
const VECMAT_SHAPES: [(usize, usize); 8] =
    [(927, 48), (48, 51), (48, 1), (48, 15), (48, 16), (48, 17), (48, 33), (0, 51)];

/// A single-state input of one of five kinds: all `+0.0`, all `-0.0`,
/// one-hot, dense, or a DQN-like mix of exact zeros of both signs,
/// subnormals and values of both signs.
fn vecmat_input(rng: &mut StdRng, kind: usize, len: usize) -> Vec<f64> {
    use rand::Rng;
    let hot = rng.gen_range(0..len.max(1));
    (0..len)
        .map(|i| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from(i == hot),
            3 => rng.gen_range(-10.0..10.0),
            _ => match rng.gen_range(0..6) {
                0 | 1 => 0.0,
                2 => -0.0,
                3 => rng.gen_range(-1.0..1.0) * f64::MIN_POSITIVE,
                _ => rng.gen_range(-10.0..10.0),
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involutive(m in small_matrix()) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_with_identity_is_identity(m in small_matrix()) {
        let left = Matrix::identity(m.rows()).matmul(&m).expect("shapes");
        let right = m.matmul(&Matrix::identity(m.cols())).expect("shapes");
        prop_assert_eq!(&left, &m);
        prop_assert_eq!(&right, &m);
    }

    #[test]
    fn solve_recovers_solution(x in finite_vec(3), rows in prop::collection::vec(finite_vec(3), 3)) {
        let a = Matrix::from_rows(&rows).expect("3x3");
        // Build b = A x; a solvable system must return (approximately) x
        // whenever A is well-conditioned.
        let b = a.matvec(&x).expect("shapes");
        if let Ok(sol) = a.solve(&b) {
            let back = a.matvec(&sol).expect("shapes");
            let err = euclidean_distance(&back, &b);
            let scale = 1.0 + b.iter().map(|v| v.abs()).fold(0.0, f64::max);
            prop_assert!(err / scale < 1e-6, "residual {err}");
        }
    }

    #[test]
    fn dot_is_symmetric_and_bilinear(a in finite_vec(4), b in finite_vec(4), k in -5.0f64..5.0) {
        prop_assert!((dot(&a, &b) - dot(&b, &a)).abs() < 1e-9);
        let scaled: Vec<f64> = a.iter().map(|x| k * x).collect();
        prop_assert!((dot(&scaled, &b) - k * dot(&a, &b)).abs() < 1e-6);
    }

    #[test]
    fn standardizer_is_idempotent_on_standardised_data(
        rows in prop::collection::vec(finite_vec(3), 4..12)
    ) {
        let n = rows.len();
        let ds = Dataset::from_rows(rows, vec![0.0; n]).expect("consistent");
        let st = Standardizer::fit(&ds);
        let tds = st.transform_dataset(&ds);
        let st2 = Standardizer::fit(&tds);
        let ttds = st2.transform_dataset(&tds);
        for i in 0..tds.len() {
            let d = euclidean_distance(tds.features().row(i), ttds.features().row(i));
            prop_assert!(d < 1e-9, "row {i} moved by {d}");
        }
    }

    #[test]
    fn ridge_residual_never_beats_ols_on_train(
        xs in prop::collection::vec(-5.0f64..5.0, 8..20),
        w in -3.0f64..3.0,
        b in -3.0f64..3.0,
    ) {
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| w * x + b).collect();
        let ds = Dataset::from_rows(rows, ys).expect("consistent");
        // Distinct x values needed for a well-posed OLS.
        let distinct = {
            let mut v = xs.clone();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
            v.len()
        };
        prop_assume!(distinct >= 2);
        let ols = RidgeRegression::new(0.0).fit(&ds);
        prop_assume!(ols.is_ok());
        let ols = ols.expect("checked");
        let ridge = RidgeRegression::new(10.0).fit(&ds).expect("regularised is solvable");
        let res = |m: &learn::linear::LinearModel| -> f64 {
            let preds = m.predict_dataset(&ds).expect("arity");
            rmse(&preds, ds.targets()).expect("non-empty")
        };
        prop_assert!(res(&ols) <= res(&ridge) + 1e-6);
    }

    #[test]
    fn biased_ridge_with_zero_lambda_matches_data(
        xs in prop::collection::vec(-5.0f64..5.0, 6..15),
        w in -3.0f64..3.0,
    ) {
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x]).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| w * x).collect();
        let ds = Dataset::from_rows(rows, ys).expect("consistent");
        let distinct = {
            let mut v = xs.clone();
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            v.dedup_by(|a, b| (*a - *b).abs() < 1e-6);
            v.len()
        };
        prop_assume!(distinct >= 2);
        if let Ok(m) = fit_biased_ridge(&ds, 0.0, None) {
            let preds = m.predict_dataset(&ds).expect("arity");
            prop_assert!(mae(&preds, ds.targets()).expect("non-empty") < 1e-6);
        }
    }

    #[test]
    fn prediction_accuracy_bounded(p in -100.0f64..100.0, t in -100.0f64..100.0) {
        let a = prediction_accuracy(p, t);
        prop_assert!((0.0..=1.0).contains(&a));
        // Exact predictions always score 1.
        prop_assert!((prediction_accuracy(t, t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn blocked_matmul_bits_match_naive_triple_loop(
        m in 1usize..12, k in 1usize..12, n in 1usize..12,
        seed in 0u64..10_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rand_mat = |r: usize, c: usize| {
            let data: Vec<f64> =
                (0..r * c).map(|_| rand::Rng::gen_range(&mut rng, -10.0..10.0)).collect();
            Matrix::from_vec(r, c, data).expect("length matches")
        };
        let a = rand_mat(m, k);
        let b = rand_mat(k, n);
        let slow = matmul_naive(&a, &b);
        let fast = a.matmul(&b).expect("shapes");
        prop_assert_eq!(bits(fast.as_slice()), bits(slow.as_slice()));
        // A·Bᵀ against the materialised transpose.
        let bt = rand_mat(n, k);
        let direct = a.matmul_transpose_b(&bt).expect("shapes");
        let via = a.matmul(&bt.transpose()).expect("shapes");
        prop_assert_eq!(bits(direct.as_slice()), bits(via.as_slice()));
        // Allocation-free matvec against per-row dot products.
        let v: Vec<f64> = (0..k).map(|_| rand::Rng::gen_range(&mut rng, -10.0..10.0)).collect();
        let mut out = vec![f64::NAN; m];
        a.matvec_into(&v, &mut out).expect("shapes");
        let per_row: Vec<f64> = (0..m).map(|r| dot(a.row(r), &v)).collect();
        prop_assert_eq!(bits(&out), bits(&per_row));
    }

    #[test]
    fn prefix_forward_bits_match_dense_matmul(
        batch in 0usize..5, width in 0usize..3, split in 0usize..6, seed in 0u64..10_000,
    ) {
        let (rows, n) = (PREFIX_BATCHES[batch], PREFIX_WIDTHS[width]);
        let (prefix, tail) = PREFIX_SPLITS[split];
        let mut rng = StdRng::seed_from_u64(seed);
        let (ones, tails, dense) = prefixed_operand(&mut rng, rows, prefix, tail);
        let weights: Vec<f64> = (0..(prefix + tail) * n)
            .map(|i| if i % 11 == 0 { -0.0 } else { rand::Rng::gen_range(&mut rng, -3.0..3.0) })
            .collect();
        let rhs = Matrix::from_vec(prefix + tail, n, weights).expect("length matches");
        let mut reference = Matrix::filled(rows, n, f64::NAN);
        dense.matmul_into(&rhs, &mut reference).expect("shapes");
        let mut fast = Matrix::filled(rows, n, f64::NAN);
        tails.matmul_prefix_into(&ones, &rhs, &mut fast).expect("shapes");
        prop_assert_eq!(bits(fast.as_slice()), bits(reference.as_slice()));
    }

    #[test]
    fn prefix_weight_gradient_bits_match_dense_kernel(
        batch in 0usize..5, width in 0usize..3, split in 0usize..6, seed in 0u64..10_000,
    ) {
        let (rows, m) = (PREFIX_BATCHES[batch], PREFIX_WIDTHS[width]);
        let (prefix, tail) = PREFIX_SPLITS[split];
        let mut rng = StdRng::seed_from_u64(seed);
        let (ones, tails, dense) = prefixed_operand(&mut rng, rows, prefix, tail);
        // Deltas as backprop leaves them: dead units are exact zeros of
        // either sign.
        let deltas: Vec<f64> = (0..rows * m)
            .map(|_| match rand::Rng::gen_range(&mut rng, 0..4) {
                0 => 0.0,
                1 => -0.0,
                _ => rand::Rng::gen_range(&mut rng, -2.0..2.0),
            })
            .collect();
        let delta = Matrix::from_vec(rows, m, deltas).expect("length matches");
        let alpha = 1.0 / rows as f64;
        // The per-sample loop of `Mlp::gradients`, no term skipped.
        let mut reference = Matrix::zeros(prefix + tail, m);
        for s in 0..rows {
            for r in 0..m {
                for c in 0..prefix + tail {
                    reference[(c, r)] += alpha * delta[(s, r)] * dense[(s, c)];
                }
            }
        }
        let mut dense_out = Matrix::filled(prefix + tail, m, f64::NAN);
        dense.prefix_gram_scaled_into(None, &delta, alpha, &mut dense_out).expect("shapes");
        prop_assert_eq!(bits(dense_out.as_slice()), bits(reference.as_slice()));
        let mut fast = Matrix::filled(prefix + tail, m, f64::NAN);
        tails.prefix_gram_scaled_into(Some(&ones), &delta, alpha, &mut fast).expect("shapes");
        prop_assert_eq!(bits(fast.as_slice()), bits(reference.as_slice()));
    }

    #[test]
    fn prefix_training_bits_match_dense_rows(
        batch in 0usize..5, split in 0usize..6, seed in 0u64..10_000,
    ) {
        // End to end through the network: TD training on sparse-prefix rows
        // leaves the parameters training on the densified rows leaves.
        let rows = PREFIX_BATCHES[batch];
        let (prefix, tail) = PREFIX_SPLITS[split];
        let mut rng = StdRng::seed_from_u64(seed);
        let (ones, tails, dense) = prefixed_operand(&mut rng, rows, prefix, tail);
        let mut on_dense =
            Mlp::new(&[prefix + tail, 9, 6, 5], Activation::Relu, &mut rng).expect("sizes");
        let mut on_prefix = on_dense.clone();
        let dense_rows: Vec<PrefixRow> =
            (0..rows).map(|s| PrefixRow::dense(dense.row(s))).collect();
        let prefix_rows: Vec<PrefixRow> =
            (0..rows).map(|s| PrefixRow { ones: ones.row(s), tail: tails.row(s) }).collect();
        let actions: Vec<usize> = (0..rows).map(|s| s % 5).collect();
        let bootstraps: Vec<f64> = (0..rows).map(|s| s as f64 * 0.125 - 1.0).collect();
        let (mut opt_d, mut opt_p) = (AdamOptimizer::new(0.01), AdamOptimizer::new(0.01));
        let (mut ws_d, mut ws_p) = (BatchWorkspace::new(), BatchWorkspace::new());
        for _ in 0..3 {
            let ld = on_dense
                .train_td_batch_ws(0, &dense_rows, &actions, &bootstraps, &mut opt_d, &mut ws_d)
                .expect("valid batch");
            let lp = on_prefix
                .train_td_batch_ws(prefix, &prefix_rows, &actions, &bootstraps, &mut opt_p, &mut ws_p)
                .expect("valid batch");
            prop_assert_eq!(ld.to_bits(), lp.to_bits());
        }
        prop_assert_eq!(on_dense.parameter_bits(), on_prefix.parameter_bits());
        let q_dense = on_dense.forward_prefix_batch_ws(0, &dense_rows, &mut ws_d).expect("valid");
        let q_prefix =
            on_prefix.forward_prefix_batch_ws(prefix, &prefix_rows, &mut ws_p).expect("valid");
        prop_assert_eq!(bits(q_dense.as_slice()), bits(q_prefix.as_slice()));
    }

    #[test]
    fn batched_forward_bits_match_per_sample(
        seed in 0u64..10_000,
        hidden in 1usize..10,
        inputs in prop::collection::vec(prop::collection::vec(-5.0f64..5.0, 4), 1..40),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(&[4, hidden, 3], Activation::Tanh, &mut rng).expect("valid sizes");
        let rows: Vec<PrefixRow> = inputs.iter().map(|x| PrefixRow::dense(x)).collect();
        let mut ws = BatchWorkspace::new();
        let batched = net.forward_prefix_batch_ws(0, &rows, &mut ws).expect("valid batch");
        for (s, x) in inputs.iter().enumerate() {
            let single = net.forward(x).expect("arity");
            prop_assert_eq!(bits(batched.row(s)), bits(&single));
        }
    }

    #[test]
    fn vecmat_bits_match_matvec_on_the_transpose(
        shape in 0usize..8, kind in 0usize..5, seed in 0u64..10_000,
    ) {
        // The kernel on `Wᵀ` against the frozen row-dot reference on `W`.
        // (The one documented difference needs every term of an output to
        // be `-0.0` — all 48+ weights of a column of one sign under an
        // all-zero input — and is pinned in `linalg`'s unit tests.)
        let (k, n) = VECMAT_SHAPES[shape];
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = (0..k * n)
            .map(|_| match rand::Rng::gen_range(&mut rng, 0..12) {
                0 => 0.0,
                1 => -0.0,
                _ => rand::Rng::gen_range(&mut rng, -3.0..3.0),
            })
            .collect();
        let wt = Matrix::from_vec(k, n, weights).expect("length matches");
        let x = vecmat_input(&mut rng, kind, k);
        let mut reference = vec![f64::NAN; n];
        wt.transpose().matvec_into(&x, &mut reference).expect("shapes");
        let mut fast = vec![f64::NAN; n];
        wt.vecmat_into(&x, &mut fast).expect("shapes");
        prop_assert_eq!(bits(&fast), bits(&reference));
    }

    #[test]
    fn single_state_forward_bits_match_reference(
        seed in 0u64..10_000,
        hidden in 1usize..40,
        kind in 0usize..5,
    ) {
        // Hidden widths on both sides of the kernel's tile; ReLU, so dead
        // units feed exact zeros to the second layer as well.
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(&[13, hidden, 19], Activation::Relu, &mut rng).expect("valid sizes");
        let x = vecmat_input(&mut rng, kind, 13);
        let reference = net.forward(&x).expect("arity");
        let single = net.forward_single(&x).expect("arity");
        prop_assert_eq!(bits(&reference), bits(&single));
    }

    #[test]
    fn fused_td_training_bits_match_dense_targets(
        seed in 0u64..10_000,
        hidden in 1usize..10,
        samples in prop::collection::vec(
            (prop::collection::vec(-5.0f64..5.0, 3), 0usize..4, -2.0f64..2.0),
            1..48,
        ),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dense = Mlp::new(&[3, hidden, 4], Activation::Relu, &mut rng).expect("sizes");
        let mut fused = dense.clone();
        let inputs: Vec<Vec<f64>> = samples.iter().map(|(x, _, _)| x.clone()).collect();
        let refs_x: Vec<PrefixRow> = inputs.iter().map(|x| PrefixRow::dense(x)).collect();
        let actions: Vec<usize> = samples.iter().map(|(_, a, _)| *a).collect();
        let bootstraps: Vec<f64> = samples.iter().map(|(_, _, b)| *b).collect();
        let mut opt_d = AdamOptimizer::new(0.01);
        let mut opt_f = AdamOptimizer::new(0.01);
        let mut ws = BatchWorkspace::new();
        for _ in 0..3 {
            // Dense reference: materialise full target rows from the net's
            // own current predictions, exactly like the scalar DQN path.
            let targets: Vec<Vec<f64>> = inputs
                .iter()
                .zip(&actions)
                .zip(&bootstraps)
                .map(|((x, &a), &b)| {
                    let mut t = dense.forward(x).expect("arity");
                    t[a] = b;
                    t
                })
                .collect();
            let ld = dense.train_batch(&inputs, &targets, &mut opt_d).expect("valid batch");
            let lf = fused
                .train_td_batch_ws(0, &refs_x, &actions, &bootstraps, &mut opt_f, &mut ws)
                .expect("valid batch");
            prop_assert_eq!(ld.to_bits(), lf.to_bits());
        }
        prop_assert_eq!(dense.parameter_bits(), fused.parameter_bits());
    }

    #[test]
    fn dataset_split_partitions(rows in prop::collection::vec(finite_vec(2), 2..20),
                                frac in 0.0f64..1.0, seed in 0u64..1000) {
        use rand::SeedableRng;
        let n = rows.len();
        let ds = Dataset::from_rows(rows, (0..n).map(|i| i as f64).collect()).expect("ok");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (tr, te) = ds.split(frac, &mut rng);
        prop_assert_eq!(tr.len() + te.len(), n);
        // Targets form a permutation of 0..n.
        let mut all: Vec<f64> = tr.targets().iter().chain(te.targets()).copied().collect();
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let expect: Vec<f64> = (0..n).map(|i| i as f64).collect();
        prop_assert_eq!(all, expect);
    }
}
