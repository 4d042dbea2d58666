//! A small dense multi-layer perceptron with backpropagation.
//!
//! The paper's Deep Q-Network (§III-D, Alg. 1) needs only a modest value
//! network: the state is an `N × M` binary selection matrix flattened to a
//! vector, and the output is one Q-value per action. This module provides
//! exactly that — dense layers, ReLU/tanh activations, mean-squared-error
//! loss, and SGD/Adam optimisers — with no external deep-learning
//! dependency, as called for by the reproduction's substitution rule.

use crate::linalg::{DimensionError, GatheredRows, Matrix};
use rand::Rng;
use std::fmt;

/// Activation function applied element-wise after a dense layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Rectified linear unit `max(0, x)`.
    #[default]
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// No nonlinearity (used for output layers of value networks).
    Identity,
}

impl Activation {
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed in terms of the *pre-activation* input `x`.
    fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - x.tanh().powi(2),
            Activation::Identity => 1.0,
        }
    }
}

/// Error returned by network construction or use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// Fewer than two layer sizes supplied (need at least input and output).
    TooFewLayers,
    /// A layer size was zero.
    ZeroWidth,
    /// Input/target arity did not match the network.
    ArityMismatch {
        /// Expected length.
        expected: usize,
        /// Supplied length.
        got: usize,
    },
    /// An empty training batch was supplied.
    EmptyBatch,
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::TooFewLayers => {
                write!(f, "network needs at least input and output sizes")
            }
            NetworkError::ZeroWidth => write!(f, "layer width must be at least 1"),
            NetworkError::ArityMismatch { expected, got } => {
                write!(f, "expected a vector of length {expected}, got {got}")
            }
            NetworkError::EmptyBatch => write!(f, "training batch is empty"),
        }
    }
}

impl std::error::Error for NetworkError {}

#[derive(Debug, Clone, PartialEq)]
struct Layer {
    /// `Wᵀ` (`in × out`): a row is one input's contribution to every
    /// output, contiguous over the output dimension. The only copy of the
    /// weights; `LayerGrad` and Adam's moments share the layout.
    wt: Matrix,
    bias: Vec<f64>,
    activation: Activation,
}

impl Layer {
    /// `pre = x·Wᵀ + b` and `act = σ(pre)` for one gathered input row `x`.
    fn forward_into(
        &self,
        x: &[(usize, f64)],
        pre: &mut [f64],
        act: &mut [f64],
    ) -> Result<(), NetworkError> {
        self.wt.gathered_vecmat_into(x, pre).map_err(arity)?;
        for ((z, a), &b) in pre.iter_mut().zip(act.iter_mut()).zip(&self.bias) {
            *z += b;
            *a = self.activation.apply(*z);
        }
        Ok(())
    }
}

/// A row [`GatheredRows::push_row`] or a gathered kernel rejected, as the
/// arity it expected and the one it got.
fn arity(e: DimensionError) -> NetworkError {
    NetworkError::ArityMismatch { expected: e.right.1, got: e.left.1 }
}

/// Gradients of the loss with respect to one layer's parameters.
#[derive(Debug, Clone, PartialEq)]
struct LayerGrad {
    /// `∂loss/∂Wᵀ`: `in × out`, like the layer's own `wt`.
    wt: Matrix,
    bias: Vec<f64>,
}

impl LayerGrad {
    /// All-zero gradients shaped like `wt` and `bias`.
    fn zeros(wt: &Matrix, bias: &[f64]) -> Self {
        Self { wt: Matrix::zeros(wt.rows(), wt.cols()), bias: vec![0.0; bias.len()] }
    }
}

/// Number of samples per fixed gradient-accumulation chunk.
///
/// Batches up to this size are accumulated in one stream, which keeps the
/// batched path bit-identical to the per-sample reference
/// ([`Mlp::train_batch`]). Larger batches are split at fixed `GRAD_CHUNK`
/// boundaries; chunk partials are computed (possibly in parallel) and reduced
/// serially in ascending order, so the result depends only on the batch
/// contents and this constant — never on the thread count (DESIGN.md §8.1,
/// §10).
const GRAD_CHUNK: usize = 64;

/// One network input in sparse-prefix form: its leading entries are a block
/// of exact `0.0`/`1.0` values given by the ascending indices of its ones,
/// and `tail` holds every entry after that block. The block's width is
/// passed beside the rows and is the same for a whole batch; a plain dense
/// input is the width-0 case ([`PrefixRow::dense`]).
///
/// Every forward checks and gathers it once with [`GatheredRows::push_row`]
/// and then multiplies only its non-zero entries (see
/// [`Matrix::gathered_vecmat_into`] for why that cannot change a bit): most
/// of the DQN's `N × M` selection-matrix state is the block's zeros.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefixRow<'a> {
    /// Strictly ascending indices of the ones in the leading 0/1 block.
    pub ones: &'a [u32],
    /// The entries after the block.
    pub tail: &'a [f64],
}

impl<'a> PrefixRow<'a> {
    /// A fully dense input (no 0/1 block).
    pub fn dense(input: &'a [f64]) -> Self {
        Self { ones: &[], tail: input }
    }

    /// The input written out densely, its 0/1 block `prefix` wide.
    ///
    /// # Panics
    ///
    /// Panics if a one sits at or past `prefix`.
    pub fn to_dense(&self, prefix: usize) -> Vec<f64> {
        let mut out = vec![0.0; prefix];
        for &i in self.ones {
            out[i as usize] = 1.0;
        }
        out.extend_from_slice(self.tail);
        out
    }
}

/// Reusable scratch for the batched forward/backward paths.
///
/// Owns the gathered input, activation, pre-activation, delta and gradient
/// buffers so steady-state training performs zero heap allocations. Create
/// one per training loop and pass it to [`Mlp::forward_prefix_batch_ws`] /
/// [`Mlp::train_td_batch_ws`]; buffers are rebuilt when the architecture
/// changes and otherwise only ever grow, so alternating batch sizes on one
/// workspace allocates nothing once the largest has been seen.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchWorkspace {
    sizes: Vec<usize>,
    /// `inputs[l]` holds layer `l`'s input rows in gathered form: the
    /// batch itself at layer 0, the previous layer's activations above.
    inputs: Vec<GatheredRows>,
    /// `acts[l]` holds layer `l`'s activations.
    acts: Vec<Matrix>,
    /// `pres[l]` holds layer `l`'s pre-activations (`z + b`).
    pres: Vec<Matrix>,
    /// `deltas[l]` holds ∂loss/∂z for layer `l`.
    deltas: Vec<Matrix>,
    grads: Vec<LayerGrad>,
}

impl BatchWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shapes the buffers for `batch` samples of `net`.
    fn ensure(&mut self, net: &Mlp, batch: usize) {
        if self.sizes != net.sizes {
            let layers = net.layers.len();
            self.sizes.clone_from(&net.sizes);
            self.inputs = vec![GatheredRows::default(); layers];
            self.acts = vec![Matrix::zeros(0, 0); layers];
            self.pres = vec![Matrix::zeros(0, 0); layers];
            self.deltas = vec![Matrix::zeros(0, 0); layers];
            self.grads = net.layers.iter().map(|l| LayerGrad::zeros(&l.wt, &l.bias)).collect();
        }
        for (l, &w) in net.sizes[1..].iter().enumerate() {
            self.acts[l].resize(batch, w);
            self.pres[l].resize(batch, w);
            self.deltas[l].resize(batch, w);
        }
    }
}

/// `W·x` read off `wt = Wᵀ` for the per-sample reference: output `r` is one
/// serial [`Iterator::sum`] down column `r` — the terms, the order and the
/// `-0.0` seed of [`crate::linalg::dot`] along row `r` of `W`.
fn column_dots(wt: &Matrix, x: &[f64]) -> Vec<f64> {
    (0..wt.cols()).map(|r| x.iter().enumerate().map(|(c, x)| wt[(c, r)] * x).sum()).collect()
}

/// Reusable scratch for [`Mlp::forward_single_scratch`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ForwardScratch {
    /// The input of the layer being computed, as one gathered row.
    gathered: GatheredRows,
    pre: Vec<f64>,
    act: Vec<f64>,
}

/// A dense feed-forward network.
///
/// # Examples
///
/// ```
/// use learn::nn::{Activation, AdamOptimizer, Mlp};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// // 2 inputs -> 8 hidden -> 1 output.
/// let mut net = Mlp::new(&[2, 8, 1], Activation::Tanh, &mut rng)?;
/// let mut opt = AdamOptimizer::new(0.05);
/// for _ in 0..500 {
///     // learn XOR-ish parity of signs
///     net.train_batch(
///         &[vec![1.0, 1.0], vec![-1.0, -1.0], vec![1.0, -1.0], vec![-1.0, 1.0]],
///         &[vec![-1.0], vec![-1.0], vec![1.0], vec![1.0]],
///         &mut opt,
///     )?;
/// }
/// assert!(net.forward(&[1.0, -1.0])?[0] > 0.0);
/// assert!(net.forward(&[1.0, 1.0])?[0] < 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Layer>,
    sizes: Vec<usize>,
}

impl Mlp {
    /// Builds a network with the given layer sizes. All hidden layers use
    /// `hidden_activation`; the output layer is linear (Identity), the
    /// standard choice for Q-value regression.
    ///
    /// Weights are initialised with He/Xavier-style scaling from `rng`, drawn
    /// in `out × in` row-major order — the order [`Mlp::parameter_bits`]
    /// emits, whatever the layer stores.
    ///
    /// # Errors
    ///
    /// [`NetworkError::TooFewLayers`] / [`NetworkError::ZeroWidth`] on a bad
    /// architecture.
    pub fn new(
        sizes: &[usize],
        hidden_activation: Activation,
        rng: &mut impl Rng,
    ) -> Result<Self, NetworkError> {
        if sizes.len() < 2 {
            return Err(NetworkError::TooFewLayers);
        }
        if sizes.contains(&0) {
            return Err(NetworkError::ZeroWidth);
        }
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for w in sizes.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let is_output = layers.len() == sizes.len() - 2;
            let scale = (2.0 / fan_in as f64).sqrt();
            let mut wt = Matrix::zeros(fan_in, fan_out);
            for r in 0..fan_out {
                for c in 0..fan_in {
                    wt[(c, r)] = rng.gen_range(-1.0..1.0) * scale;
                }
            }
            layers.push(Layer {
                wt,
                bias: vec![0.0; fan_out],
                activation: if is_output { Activation::Identity } else { hidden_activation },
            });
        }
        Ok(Self { layers, sizes: sizes.to_vec() })
    }

    /// Input arity.
    pub fn input_size(&self) -> usize {
        self.sizes[0]
    }

    /// Output arity.
    pub fn output_size(&self) -> usize {
        *self.sizes.last().expect("at least two sizes")
    }

    /// Total number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.layers.iter().map(|l| l.wt.as_slice().len() + l.bias.len()).sum()
    }

    /// Forward pass: the per-sample reference, one serial dot per output
    /// down a column of `Wᵀ` — the sum [`Matrix::matvec`] takes along a row
    /// of `W`. Every other forward is held to its bits; callers that want
    /// speed take [`Mlp::forward_single`].
    ///
    /// # Errors
    ///
    /// [`NetworkError::ArityMismatch`] when `input` has the wrong length.
    pub fn forward(&self, input: &[f64]) -> Result<Vec<f64>, NetworkError> {
        if input.len() != self.input_size() {
            return Err(NetworkError::ArityMismatch {
                expected: self.input_size(),
                got: input.len(),
            });
        }
        let mut act = input.to_vec();
        for layer in &self.layers {
            let z = column_dots(&layer.wt, &act);
            act =
                z.iter().zip(&layer.bias).map(|(&zi, &b)| layer.activation.apply(zi + b)).collect();
        }
        Ok(act)
    }

    /// Single-state forward pass, the input in sparse-prefix form (its
    /// first `prefix` entries a 0/1 block; `0` with [`PrefixRow::dense`]
    /// for a plain input). Each layer gathers its non-zero inputs once, in
    /// ascending order ([`GatheredRows::push_row`]: the block's ones as
    /// `1.0`, then the non-zero entries after it), and
    /// [`Matrix::gathered_vecmat_into`] runs its register tiles over that
    /// list alone. Each output adds the terms of [`Mlp::forward`]'s dot in
    /// its order, less the exact-zero ones, so for finite weights the
    /// result is `forward`'s bit for bit (the one pre-activation the
    /// kernels can disagree on is `±0.0`, and a bias is never `-0.0`: it
    /// starts at `+0.0` and no optimiser step can produce one). Action
    /// selection, rollouts and every other one-sample inference go through
    /// here.
    ///
    /// # Errors
    ///
    /// [`NetworkError::ArityMismatch`] unless `prefix + input.tail.len()` is
    /// the input size and `input.ones` are strictly ascending below `prefix`.
    pub fn forward_single(
        &self,
        prefix: usize,
        input: PrefixRow<'_>,
    ) -> Result<Vec<f64>, NetworkError> {
        let mut scratch = ForwardScratch::default();
        self.forward_single_scratch(prefix, input, &mut scratch)?;
        Ok(scratch.act)
    }

    /// [`Mlp::forward_single`] into caller-owned scratch: no allocation once
    /// `scratch` has seen this architecture, and no copy of `input`.
    ///
    /// # Errors
    ///
    /// As [`Mlp::forward_single`].
    pub fn forward_single_scratch<'s>(
        &self,
        prefix: usize,
        input: PrefixRow<'_>,
        scratch: &'s mut ForwardScratch,
    ) -> Result<&'s [f64], NetworkError> {
        let ForwardScratch { gathered, pre, act } = scratch;
        gathered.clear(self.input_size());
        gathered.push_row(prefix, input.ones, input.tail).map_err(arity)?;
        for (li, layer) in self.layers.iter().enumerate() {
            if li > 0 {
                gathered.clear(act.len());
                gathered.push_row(0, &[], act).map_err(arity)?;
            }
            pre.resize(layer.bias.len(), 0.0);
            act.resize(layer.bias.len(), 0.0);
            layer.forward_into(gathered.row(0), pre, act)?;
        }
        Ok(act)
    }

    /// Forward pass retaining pre-activations and activations per layer, for
    /// backprop. Returns `(pre_activations, activations)` where
    /// `activations[0]` is the input.
    fn forward_trace(&self, input: &[f64]) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut pres = Vec::with_capacity(self.layers.len());
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(input.to_vec());
        for layer in &self.layers {
            let mut z = column_dots(&layer.wt, acts.last().expect("non-empty"));
            for (zi, &b) in z.iter_mut().zip(&layer.bias) {
                *zi += b;
            }
            let a = z.iter().map(|&zi| layer.activation.apply(zi)).collect();
            pres.push(z);
            acts.push(a);
        }
        (pres, acts)
    }

    /// Batched forward pass, with no allocation once `ws` has seen this
    /// batch size. Inputs come in sparse-prefix form (their first `prefix`
    /// entries are a 0/1 block; `0` with [`PrefixRow::dense`] rows for plain
    /// inputs). Returns the `B × out` activation matrix held in `ws`; row
    /// `s` is [`Mlp::forward_single`] on `inputs[s]` — the same gathered
    /// rows through the same kernel — and so `self.forward` on it written
    /// out densely, bit for bit.
    ///
    /// # Errors
    ///
    /// [`NetworkError::EmptyBatch`]; [`NetworkError::ArityMismatch`] when a
    /// row's `prefix + tail.len()` is not the input size, or its `ones` are
    /// not strictly ascending inside the block.
    pub fn forward_prefix_batch_ws<'w>(
        &self,
        prefix: usize,
        inputs: &[PrefixRow<'_>],
        ws: &'w mut BatchWorkspace,
    ) -> Result<&'w Matrix, NetworkError> {
        self.forward_trace_batch(prefix, inputs, ws)?;
        Ok(&ws.acts[self.layers.len() - 1])
    }

    /// Batched analogue of `forward_trace`: gathers each input row once into
    /// `ws.inputs[0]`, then per layer and sample runs the single-state
    /// kernel (`Layer::forward_into`) into `ws.pres` / `ws.acts`, and
    /// gathers the activations as the next layer's input rows.
    fn forward_trace_batch(
        &self,
        prefix: usize,
        inputs: &[PrefixRow<'_>],
        ws: &mut BatchWorkspace,
    ) -> Result<(), NetworkError> {
        if inputs.is_empty() {
            return Err(NetworkError::EmptyBatch);
        }
        ws.ensure(self, inputs.len());
        let BatchWorkspace { inputs: rows, acts, pres, .. } = ws;
        rows[0].clear(self.input_size());
        for x in inputs {
            rows[0].push_row(prefix, x.ones, x.tail).map_err(arity)?;
        }
        for (li, layer) in self.layers.iter().enumerate() {
            let (pre, act) = (&mut pres[li], &mut acts[li]);
            for s in 0..inputs.len() {
                layer.forward_into(rows[li].row(s), pre.row_mut(s), act.row_mut(s))?;
            }
            if let Some(next) = rows.get_mut(li + 1) {
                next.clear(act.cols());
                for s in 0..inputs.len() {
                    next.push_row(0, &[], act.row(s)).map_err(arity)?;
                }
            }
        }
        Ok(())
    }

    /// Temporal-difference loss and gradients for one chunk, all samples in
    /// a single accumulation stream, written into `ws.grads`; returns the
    /// *unscaled* summed loss. The target row for sample `s` is this pass's
    /// own output with entry `actions[s]` replaced by `bootstraps[s]`, so
    /// the redundant "predict the targets" forward the dense formulation
    /// needs is fused away — and every off-action residual is the exact
    /// `+0.0` of the dense subtraction `o − o`, so an output delta row is
    /// `+0.0` but at its action. The output layer's weight and bias
    /// gradients therefore take one column a sample, at its action, and the
    /// propagation below it reads one row of `W` per sample instead of the
    /// full `Δ·W` product.
    ///
    /// Below the output layer every weight gradient is
    /// [`Matrix::gathered_gram_scaled_into`] over the layer's gathered
    /// inputs; the output layer's column takes the same `(scale·δ)·x` terms
    /// in the same sample order. The terms skipped — exact-zero inputs,
    /// off-action outputs — are exact `±0.0` products, and skipping them
    /// cannot change any accumulated bit: under round-to-nearest an f64
    /// accumulator that starts at `+0.0` can never reach `-0.0`
    /// (cancellation `x + (−x)` yields `+0.0`, and sums never underflow to
    /// zero), so adding a `±0.0` term is always the identity. Loss and
    /// gradients are therefore bit-identical to the dense reference. The
    /// scalar-vs-batched DQN tests gate the end-to-end equivalence.
    fn grad_td_chunk_into(
        &self,
        prefix: usize,
        inputs: &[PrefixRow<'_>],
        actions: &[usize],
        bootstraps: &[f64],
        scale: f64,
        ws: &mut BatchWorkspace,
    ) -> Result<f64, NetworkError> {
        self.forward_trace_batch(prefix, inputs, ws)?;
        let last = self.layers.len() - 1;
        let act_last = self.layers[last].activation;
        let mut total_loss = 0.0;
        let BatchWorkspace { inputs: rows, acts, pres, deltas, grads, .. } = ws;
        deltas[last].as_mut_slice().fill(0.0);
        for (s, (&a, &bootstrap)) in actions.iter().zip(bootstraps).enumerate() {
            let r = acts[last].row(s)[a] - bootstrap;
            total_loss += r * r / 2.0;
            deltas[last].row_mut(s)[a] = r * act_last.derivative(pres[last].row(s)[a]);
        }
        for li in (0..=last).rev() {
            // dWᵀ = Xᵀ·(scale·Δ) and db = Σ scale·δ with samples ascending —
            // the accumulation order (and the `(scale·δ)·x` product shape)
            // of the per-sample reference.
            let (delta, grad) = (&deltas[li], &mut grads[li]);
            if li == last {
                grad.wt.as_mut_slice().fill(0.0);
                grad.bias.fill(0.0);
                for (s, &a) in actions.iter().enumerate() {
                    let t = scale * delta.row(s)[a];
                    for &(c, x) in rows[li].row(s) {
                        grad.wt[(c, a)] += t * x;
                    }
                    grad.bias[a] += t;
                }
            } else {
                delta.gathered_gram_scaled_into(&rows[li], scale, &mut grad.wt).map_err(arity)?;
                grad.bias.fill(0.0);
                for s in 0..inputs.len() {
                    for (b, &d) in grad.bias.iter_mut().zip(delta.row(s)) {
                        *b += scale * d;
                    }
                }
            }
            if li == 0 {
                break;
            }
            // Propagate: Δ_prev = (Δ·W) ⊙ σ'(z_prev), outputs of W ascending
            // from `+0.0` as in the per-sample loop — from the output layer,
            // the action's row of `W` alone.
            let (lower, upper) = deltas.split_at_mut(li);
            let (prev, delta, wt) = (&mut lower[li - 1], &upper[0], &self.layers[li].wt);
            if li == last {
                for (s, &a) in actions.iter().enumerate() {
                    let d = delta.row(s)[a];
                    for (c, p) in prev.row_mut(s).iter_mut().enumerate() {
                        *p = d * wt[(c, a)];
                    }
                }
            } else {
                delta.matmul_transpose_b_into(wt, prev).map_err(arity)?;
            }
            let act = self.layers[li - 1].activation;
            for s in 0..inputs.len() {
                for (d, &z) in prev.row_mut(s).iter_mut().zip(pres[li - 1].row(s)) {
                    *d *= act.derivative(z);
                }
            }
        }
        Ok(total_loss)
    }

    /// Fills `ws.grads` for a batch of `n` samples and returns its unscaled
    /// summed loss, where `chunk(start, end, ws)` does so for samples
    /// `start..end`. Up to `GRAD_CHUNK` samples are one chunk, straight
    /// into `ws`; above, chunks at fixed `GRAD_CHUNK` boundaries run through
    /// `dcta-parallel`, each in a workspace of its own, and are summed
    /// serially in ascending order.
    fn chunked_gradients(
        &self,
        n: usize,
        ws: &mut BatchWorkspace,
        chunk: impl Fn(usize, usize, &mut BatchWorkspace) -> Result<f64, NetworkError> + Sync,
    ) -> Result<f64, NetworkError> {
        if n <= GRAD_CHUNK {
            return chunk(0, n, ws);
        }
        let bounds: Vec<(usize, usize)> =
            (0..n).step_by(GRAD_CHUNK).map(|s| (s, (s + GRAD_CHUNK).min(n))).collect();
        // Grain 1: one chunk is GRAD_CHUNK whole forward/backward passes,
        // far above thread spawn cost, so even two chunks get two threads.
        let partials = parallel::try_map(bounds.len(), 1, |c| {
            let (s, e) = bounds[c];
            let mut local = BatchWorkspace::new();
            chunk(s, e, &mut local).map(|loss| (loss, local.grads))
        })?;
        ws.ensure(self, 0);
        for g in &mut ws.grads {
            g.wt.as_mut_slice().fill(0.0);
            g.bias.fill(0.0);
        }
        let mut total = 0.0;
        for (chunk_loss, chunk_grads) in &partials {
            total += chunk_loss;
            for (dst, src) in ws.grads.iter_mut().zip(chunk_grads) {
                for (d, &s) in dst.wt.as_mut_slice().iter_mut().zip(src.wt.as_slice()) {
                    *d += s;
                }
                for (d, &s) in dst.bias.iter_mut().zip(&src.bias) {
                    *d += s;
                }
            }
        }
        Ok(total)
    }

    /// One optimiser step on the temporal-difference loss: the target row
    /// for sample `s` is the network's *own* prediction with entry
    /// `actions[s]` replaced by `bootstraps[s]` — the Q-learning update —
    /// computed from the training forward itself instead of a separate
    /// predict-the-targets pass. Scratch lives in `ws`, so steady-state
    /// training allocates nothing for batches of at most `GRAD_CHUNK`
    /// samples, and for those it is bit-identical to materialising the
    /// target rows and calling the per-sample [`Mlp::train_batch`]. Larger
    /// batches are split at fixed `GRAD_CHUNK` boundaries and their chunk
    /// partials summed in ascending order: a different (equally valid)
    /// summation order than the per-sample path, invariant to the thread
    /// count.
    ///
    /// Inputs come in sparse-prefix form (their first `prefix` entries are a
    /// 0/1 block; `0` with [`PrefixRow::dense`] rows for plain inputs), and
    /// no layer's forward or weight gradient touches an exact-zero input —
    /// bit-identical to training on the densified rows.
    ///
    /// # Errors
    ///
    /// [`NetworkError::EmptyBatch`] when the batch is empty or the slice
    /// lengths disagree; [`NetworkError::ArityMismatch`] when an action
    /// index is out of range for the output layer, or an input is
    /// malformed as in [`Mlp::forward_prefix_batch_ws`].
    pub fn train_td_batch_ws(
        &mut self,
        prefix: usize,
        inputs: &[PrefixRow<'_>],
        actions: &[usize],
        bootstraps: &[f64],
        optimizer: &mut AdamOptimizer,
        ws: &mut BatchWorkspace,
    ) -> Result<f64, NetworkError> {
        if inputs.is_empty() || inputs.len() != actions.len() || inputs.len() != bootstraps.len() {
            return Err(NetworkError::EmptyBatch);
        }
        for &a in actions {
            if a >= self.output_size() {
                return Err(NetworkError::ArityMismatch { expected: self.output_size(), got: a });
            }
        }
        let scale = 1.0 / inputs.len() as f64;
        let total = self.chunked_gradients(inputs.len(), ws, |s, e, ws| {
            let (actions, bootstraps) = (&actions[s..e], &bootstraps[s..e]);
            self.grad_td_chunk_into(prefix, &inputs[s..e], actions, bootstraps, scale, ws)
        })?;
        let loss = total * scale;
        optimizer.step(self, &ws.grads);
        Ok(loss)
    }

    /// All trainable parameters' raw `f64` bit patterns: per layer, `W` in
    /// `out × in` row-major order (a strided read of the stored `Wᵀ`), then
    /// the biases. Test hook for bit-identity assertions across execution
    /// strategies; the order is what every parameter digest is taken in.
    #[doc(hidden)]
    pub fn parameter_bits(&self) -> Vec<u64> {
        let mut bits = Vec::with_capacity(self.num_parameters());
        for l in &self.layers {
            for r in 0..l.wt.cols() {
                bits.extend((0..l.wt.rows()).map(|c| l.wt[(c, r)].to_bits()));
            }
            bits.extend(l.bias.iter().map(|x| x.to_bits()));
        }
        bits
    }

    /// Mean-squared-error over a batch: `mean_i ||f(x_i) - y_i||² / 2`.
    ///
    /// # Errors
    ///
    /// [`NetworkError::EmptyBatch`] or [`NetworkError::ArityMismatch`].
    pub fn loss(&self, inputs: &[Vec<f64>], targets: &[Vec<f64>]) -> Result<f64, NetworkError> {
        if inputs.is_empty() || inputs.len() != targets.len() {
            return Err(NetworkError::EmptyBatch);
        }
        let mut total = 0.0;
        for (x, y) in inputs.iter().zip(targets) {
            if y.len() != self.output_size() {
                return Err(NetworkError::ArityMismatch {
                    expected: self.output_size(),
                    got: y.len(),
                });
            }
            let out = self.forward(x)?;
            total += out.iter().zip(y).map(|(o, t)| (o - t) * (o - t)).sum::<f64>() / 2.0;
        }
        Ok(total / inputs.len() as f64)
    }

    /// One optimiser step on the batch MSE. Returns the pre-step loss.
    ///
    /// This is the *per-sample reference path* (one forward/backward per
    /// sample). [`Mlp::train_td_batch_ws`] is the batched step, held
    /// bit-identical to it for batches of at most `GRAD_CHUNK` samples.
    ///
    /// DQN usage note: passing targets equal to the current prediction in
    /// every coordinate except the taken action makes this exactly the Alg. 1
    /// per-action temporal-difference update.
    ///
    /// # Errors
    ///
    /// [`NetworkError::EmptyBatch`] or [`NetworkError::ArityMismatch`].
    pub fn train_batch(
        &mut self,
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
        optimizer: &mut AdamOptimizer,
    ) -> Result<f64, NetworkError> {
        let (loss, grads) = self.gradients(inputs, targets)?;
        optimizer.step(self, &grads);
        Ok(loss)
    }

    /// Computes batch loss and parameter gradients without applying them.
    fn gradients(
        &self,
        inputs: &[Vec<f64>],
        targets: &[Vec<f64>],
    ) -> Result<(f64, Vec<LayerGrad>), NetworkError> {
        if inputs.is_empty() || inputs.len() != targets.len() {
            return Err(NetworkError::EmptyBatch);
        }
        let mut grads: Vec<LayerGrad> =
            self.layers.iter().map(|l| LayerGrad::zeros(&l.wt, &l.bias)).collect();
        let mut total_loss = 0.0;
        let scale = 1.0 / inputs.len() as f64;

        for (x, y) in inputs.iter().zip(targets) {
            if x.len() != self.input_size() {
                return Err(NetworkError::ArityMismatch {
                    expected: self.input_size(),
                    got: x.len(),
                });
            }
            if y.len() != self.output_size() {
                return Err(NetworkError::ArityMismatch {
                    expected: self.output_size(),
                    got: y.len(),
                });
            }
            let (pres, acts) = self.forward_trace(x);
            let out = acts.last().expect("non-empty");
            total_loss += out.iter().zip(y).map(|(o, t)| (o - t) * (o - t)).sum::<f64>() / 2.0;

            // delta at output: (out - y) ⊙ σ'(z)
            let mut delta: Vec<f64> = out
                .iter()
                .zip(y)
                .zip(&pres[self.layers.len() - 1])
                .map(|((o, t), &z)| {
                    (o - t) * self.layers[self.layers.len() - 1].activation.derivative(z)
                })
                .collect();

            for li in (0..self.layers.len()).rev() {
                // Accumulate grads for layer li: dW = delta ⊗ act_in, db = delta.
                let act_in = &acts[li];
                let g = &mut grads[li];
                for (r, &dr) in delta.iter().enumerate() {
                    for (c, &a) in act_in.iter().enumerate() {
                        g.wt[(c, r)] += scale * dr * a;
                    }
                    g.bias[r] += scale * dr;
                }
                // Propagate delta to previous layer.
                if li > 0 {
                    let wt = &self.layers[li].wt;
                    let mut next = vec![0.0; wt.rows()];
                    for (r, &dr) in delta.iter().enumerate() {
                        for (c, nc) in next.iter_mut().enumerate() {
                            *nc += dr * wt[(c, r)];
                        }
                    }
                    for (nc, &z) in next.iter_mut().zip(&pres[li - 1]) {
                        *nc *= self.layers[li - 1].activation.derivative(z);
                    }
                    delta = next;
                }
            }
        }
        Ok((total_loss * scale, grads))
    }

    /// Copies all parameters from `other` (used for DQN target networks).
    ///
    /// # Errors
    ///
    /// [`NetworkError::ArityMismatch`] when architectures differ.
    pub fn copy_parameters_from(&mut self, other: &Mlp) -> Result<(), NetworkError> {
        if self.sizes != other.sizes {
            return Err(NetworkError::ArityMismatch {
                expected: self.num_parameters(),
                got: other.num_parameters(),
            });
        }
        for (dst, src) in self.layers.iter_mut().zip(&other.layers) {
            dst.wt.clone_from(&src.wt);
            dst.bias.clone_from(&src.bias);
            dst.activation = src.activation;
        }
        Ok(())
    }
}

/// Adam optimiser (Kingma & Ba) — the usual choice for DQN training.
///
/// A row of a layer's `Wᵀ` — one input's weights to every output — whose
/// moments are still all `+0.0` and whose gradient row is all `+0.0` is
/// skipped: the update would leave its moments `+0.0` and subtract `+0.0`
/// from each weight, which is the identity on every `f64`. Such rows are
/// the inputs no sample of the run has yet set: selection entries never
/// chosen, and environment columns of a long-tailed state that are zero in
/// every state an agent sees.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamOptimizer {
    learning_rate: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    t: u64,
    /// One entry per layer, built on the first step.
    moments: Vec<Moments>,
    /// Rows of `Wᵀ` the steps so far have skipped.
    rows_skipped: u64,
}

/// One layer's Adam state: first and second moments shaped like its
/// gradients, and per row of `Wᵀ` whether that row has ever been updated —
/// a row never updated has all-`+0.0` moments.
#[derive(Debug, Clone, PartialEq)]
struct Moments {
    m: LayerGrad,
    v: LayerGrad,
    touched: Vec<bool>,
}

impl AdamOptimizer {
    /// Creates an Adam optimiser with standard betas (0.9, 0.999).
    ///
    /// # Panics
    ///
    /// Panics unless `learning_rate > 0`.
    pub fn new(learning_rate: f64) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        Self {
            learning_rate,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
            t: 0,
            moments: Vec::new(),
            rows_skipped: 0,
        }
    }

    /// `(visited, skipped)`: rows of `Wᵀ` the steps so far have visited,
    /// and how many of those they skipped as untouched. A work count for
    /// tests and benchmarks.
    #[doc(hidden)]
    pub fn row_counts(&self) -> (u64, u64) {
        let rows: usize = self.moments.iter().map(|mo| mo.touched.len()).sum();
        (self.t * rows as u64, self.rows_skipped)
    }

    /// Applies one update to `net` from accumulated `grads`.
    fn step(&mut self, net: &mut Mlp, grads: &[LayerGrad]) {
        if self.moments.is_empty() {
            self.moments = grads
                .iter()
                .map(|g| Moments {
                    m: LayerGrad::zeros(&g.wt, &g.bias),
                    v: LayerGrad::zeros(&g.wt, &g.bias),
                    touched: vec![false; g.wt.rows()],
                })
                .collect();
        }
        self.t += 1;
        let (b1, b2) = (self.beta1, self.beta2);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let (lr, eps) = (self.learning_rate, self.epsilon);
        // Zipped slice walks (no per-element indexing) so the whole
        // element-wise update — including the sqrt/divide — vectorises.
        let update = |w: &mut [f64], g: &[f64], m: &mut [f64], v: &mut [f64]| {
            for (((w, &g), mk), vk) in w.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
                *mk = b1 * *mk + (1.0 - b1) * g;
                *vk = b2 * *vk + (1.0 - b2) * g * g;
                let m_hat = *mk / bc1;
                let v_hat = *vk / bc2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        };
        for ((layer, grad), Moments { m, v, touched }) in
            net.layers.iter_mut().zip(grads).zip(&mut self.moments)
        {
            let width = grad.wt.cols();
            let rows = layer
                .wt
                .as_mut_slice()
                .chunks_exact_mut(width)
                .zip(grad.wt.as_slice().chunks_exact(width))
                .zip(m.wt.as_mut_slice().chunks_exact_mut(width))
                .zip(v.wt.as_mut_slice().chunks_exact_mut(width))
                .zip(touched.iter_mut());
            for ((((w, g), m), v), touched) in rows {
                if !*touched {
                    // All `+0.0` iff no bit is set in any entry; `-0.0` and
                    // NaN have bits set and take the update.
                    if g.iter().fold(0, |bits, g| bits | g.to_bits()) == 0 {
                        self.rows_skipped += 1;
                        continue;
                    }
                    *touched = true;
                }
                update(w, g, m, v);
            }
            update(&mut layer.bias, &grad.bias, &mut m.bias, &mut v.bias);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn construction_validates() {
        let mut r = rng(0);
        assert!(matches!(
            Mlp::new(&[3], Activation::Relu, &mut r),
            Err(NetworkError::TooFewLayers)
        ));
        assert!(matches!(
            Mlp::new(&[3, 0, 1], Activation::Relu, &mut r),
            Err(NetworkError::ZeroWidth)
        ));
        let net = Mlp::new(&[3, 4, 2], Activation::Relu, &mut r).unwrap();
        assert_eq!(net.input_size(), 3);
        assert_eq!(net.output_size(), 2);
        assert_eq!(net.num_parameters(), 3 * 4 + 4 + 4 * 2 + 2);
    }

    #[test]
    fn forward_checks_arity() {
        let net = Mlp::new(&[2, 3, 1], Activation::Relu, &mut rng(1)).unwrap();
        assert!(net.forward(&[1.0, 2.0]).is_ok());
        assert!(matches!(
            net.forward(&[1.0]),
            Err(NetworkError::ArityMismatch { expected: 2, got: 1 })
        ));
    }

    #[test]
    fn gradients_match_finite_differences() {
        // The canonical backprop correctness check.
        let mut net = Mlp::new(&[2, 3, 2], Activation::Tanh, &mut rng(2)).unwrap();
        let inputs = vec![vec![0.3, -0.7], vec![-0.1, 0.9]];
        let targets = vec![vec![0.5, -0.5], vec![-1.0, 1.0]];
        let (_, grads) = net.gradients(&inputs, &targets).unwrap();
        let eps = 1e-6;
        for li in 0..net.layers.len() {
            for k in 0..net.layers[li].wt.as_slice().len() {
                let orig = net.layers[li].wt.as_slice()[k];
                net.layers[li].wt.as_mut_slice()[k] = orig + eps;
                let lp = net.loss(&inputs, &targets).unwrap();
                net.layers[li].wt.as_mut_slice()[k] = orig - eps;
                let lm = net.loss(&inputs, &targets).unwrap();
                net.layers[li].wt.as_mut_slice()[k] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let analytic = grads[li].wt.as_slice()[k];
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "layer {li} weight {k}: numeric {numeric} vs analytic {analytic}"
                );
            }
            for k in 0..net.layers[li].bias.len() {
                let orig = net.layers[li].bias[k];
                net.layers[li].bias[k] = orig + eps;
                let lp = net.loss(&inputs, &targets).unwrap();
                net.layers[li].bias[k] = orig - eps;
                let lm = net.loss(&inputs, &targets).unwrap();
                net.layers[li].bias[k] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                assert!((numeric - grads[li].bias[k]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn adam_fits_xor() {
        let mut net = Mlp::new(&[2, 12, 1], Activation::Tanh, &mut rng(4)).unwrap();
        let inputs = vec![vec![0.0, 0.0], vec![0.0, 1.0], vec![1.0, 0.0], vec![1.0, 1.0]];
        let targets = vec![vec![0.0], vec![1.0], vec![1.0], vec![0.0]];
        let mut opt = AdamOptimizer::new(0.01);
        for _ in 0..2000 {
            net.train_batch(&inputs, &targets, &mut opt).unwrap();
        }
        for (x, y) in inputs.iter().zip(&targets) {
            let out = net.forward(x).unwrap()[0];
            assert!((out - y[0]).abs() < 0.2, "xor({x:?}) = {out}, want {}", y[0]);
        }
    }

    #[test]
    fn copy_parameters_makes_outputs_identical() {
        let mut a = Mlp::new(&[3, 5, 2], Activation::Relu, &mut rng(5)).unwrap();
        let b = Mlp::new(&[3, 5, 2], Activation::Relu, &mut rng(6)).unwrap();
        let x = vec![0.1, -0.2, 0.3];
        assert_ne!(a.forward(&x).unwrap(), b.forward(&x).unwrap());
        a.copy_parameters_from(&b).unwrap();
        assert_eq!(a.forward(&x).unwrap(), b.forward(&x).unwrap());
        // Architecture mismatch is rejected.
        let c = Mlp::new(&[3, 6, 2], Activation::Relu, &mut rng(7)).unwrap();
        assert!(a.copy_parameters_from(&c).is_err());
    }

    #[test]
    fn empty_batch_rejected() {
        let mut net = Mlp::new(&[1, 1], Activation::Relu, &mut rng(8)).unwrap();
        let mut opt = AdamOptimizer::new(0.1);
        assert!(matches!(net.train_batch(&[], &[], &mut opt), Err(NetworkError::EmptyBatch)));
        assert!(net.loss(&[], &[]).is_err());
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn bad_learning_rate_panics() {
        AdamOptimizer::new(0.0);
    }

    fn random_batch(rng: &mut StdRng, n: usize, dim: usize) -> Vec<Vec<f64>> {
        (0..n).map(|_| (0..dim).map(|_| rng.gen_range(-2.0..2.0)).collect()).collect()
    }

    fn dense_rows(inputs: &[Vec<f64>]) -> Vec<PrefixRow<'_>> {
        inputs.iter().map(|x| PrefixRow::dense(x)).collect()
    }

    /// The per-sample TD reference: full target rows materialised from the
    /// net's own predictions, the action entry replaced by its bootstrap.
    fn td_targets(
        net: &Mlp,
        inputs: &[Vec<f64>],
        actions: &[usize],
        boots: &[f64],
    ) -> Vec<Vec<f64>> {
        inputs
            .iter()
            .zip(actions.iter().zip(boots))
            .map(|(x, (&a, &b))| {
                let mut t = net.forward(x).unwrap();
                t[a] = b;
                t
            })
            .collect()
    }

    #[test]
    fn forward_batch_bits_match_per_sample_forward() {
        let mut r = rng(40);
        let net = Mlp::new(&[5, 9, 7, 3], Activation::Relu, &mut r).unwrap();
        let mut ws = BatchWorkspace::new();
        for n in [1, 4, 5, 32] {
            let inputs = random_batch(&mut r, n, 5);
            let batched = net.forward_prefix_batch_ws(0, &dense_rows(&inputs), &mut ws).unwrap();
            for (s, x) in inputs.iter().enumerate() {
                let (row, single) = (batched.row(s), net.forward(x).unwrap());
                assert_eq!(
                    row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    single.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "batch size {n} diverged from per-sample forward"
                );
            }
        }
    }

    #[test]
    fn train_td_batch_ws_bits_match_per_sample_path() {
        for batch in [1, 3, 32, GRAD_CHUNK] {
            let mut r = rng(41);
            let mut scalar = Mlp::new(&[4, 8, 2], Activation::Tanh, &mut r).unwrap();
            let mut batched = scalar.clone();
            let inputs = random_batch(&mut r, batch, 4);
            let boots: Vec<f64> = (0..batch).map(|_| r.gen_range(-2.0..2.0)).collect();
            let rows = dense_rows(&inputs);
            let mut opt_s = AdamOptimizer::new(0.01);
            let mut opt_b = AdamOptimizer::new(0.01);
            let mut ws = BatchWorkspace::new();
            for step in 0..5 {
                // The actions move between steps on one workspace, so a
                // stale output delta would be read.
                let actions: Vec<usize> = (0..batch).map(|s| (s + step) % 2).collect();
                let targets = td_targets(&scalar, &inputs, &actions, &boots);
                let ls = scalar.train_batch(&inputs, &targets, &mut opt_s).unwrap();
                let lb = batched
                    .train_td_batch_ws(0, &rows, &actions, &boots, &mut opt_b, &mut ws)
                    .unwrap();
                assert_eq!(ls.to_bits(), lb.to_bits(), "loss diverged at batch {batch}");
            }
            assert_eq!(
                scalar.parameter_bits(),
                batched.parameter_bits(),
                "parameters diverged at batch {batch}"
            );
        }
    }

    #[test]
    fn chunked_gradients_match_manual_chunk_reduction() {
        // Above GRAD_CHUNK the TD step switches to fixed-boundary chunk
        // partials reduced in ascending order; replicate that reduction by
        // hand from one-chunk gradients and compare bits.
        let n = GRAD_CHUNK + 37;
        let mut r = rng(42);
        let mut net = Mlp::new(&[3, 6, 2], Activation::Relu, &mut r).unwrap();
        let before = net.clone();
        let inputs = random_batch(&mut r, n, 3);
        let rows = dense_rows(&inputs);
        let actions: Vec<usize> = (0..n).map(|s| s % 2).collect();
        let boots: Vec<f64> = (0..n).map(|_| r.gen_range(-2.0..2.0)).collect();
        let mut ws = BatchWorkspace::new();
        let mut opt = AdamOptimizer::new(0.1);
        let loss = net.train_td_batch_ws(0, &rows, &actions, &boots, &mut opt, &mut ws).unwrap();

        let scale = 1.0 / n as f64;
        let mut expected: Vec<LayerGrad> =
            ws.grads.iter().map(|g| LayerGrad::zeros(&g.wt, &g.bias)).collect();
        let mut expected_loss = 0.0;
        for start in (0..n).step_by(GRAD_CHUNK) {
            let end = (start + GRAD_CHUNK).min(n);
            let mut chunk_ws = BatchWorkspace::new();
            let (a, b) = (&actions[start..end], &boots[start..end]);
            let chunk_loss = before
                .grad_td_chunk_into(0, &rows[start..end], a, b, scale, &mut chunk_ws)
                .unwrap();
            expected_loss += chunk_loss;
            for (dst, src) in expected.iter_mut().zip(&chunk_ws.grads) {
                for (d, &s) in dst.wt.as_mut_slice().iter_mut().zip(src.wt.as_slice()) {
                    *d += s;
                }
                for (d, &s) in dst.bias.iter_mut().zip(&src.bias) {
                    *d += s;
                }
            }
        }
        assert_eq!(loss.to_bits(), (expected_loss * scale).to_bits());
        for (got, want) in ws.grads.iter().zip(&expected) {
            let gb: Vec<u64> = got.wt.as_slice().iter().map(|x| x.to_bits()).collect();
            let wb: Vec<u64> = want.wt.as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(gb, wb);
            assert_eq!(
                got.bias.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                want.bias.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn chunked_gradients_descend() {
        // Sanity: a > GRAD_CHUNK batch still trains (finite-difference level
        // checks live in gradients_match_finite_differences; this guards the
        // chunk plumbing end to end). One output, so the TD loss at action
        // 0 is the MSE against the bootstraps.
        let n = 2 * GRAD_CHUNK + 5;
        let mut r = rng(43);
        let mut net = Mlp::new(&[1, 8, 1], Activation::Relu, &mut r).unwrap();
        let inputs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64 - 0.5]).collect();
        let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![1.5 * x[0] - 0.2]).collect();
        let rows = dense_rows(&inputs);
        let actions = vec![0; n];
        let boots: Vec<f64> = targets.iter().map(|y| y[0]).collect();
        let mut opt = AdamOptimizer::new(0.01);
        let mut ws = BatchWorkspace::new();
        let first = net.loss(&inputs, &targets).unwrap();
        for _ in 0..300 {
            net.train_td_batch_ws(0, &rows, &actions, &boots, &mut opt, &mut ws).unwrap();
        }
        let last = net.loss(&inputs, &targets).unwrap();
        assert!(last < first / 10.0, "loss {first} -> {last}");
    }

    #[test]
    fn workspace_buffers_only_grow_across_batch_sizes() {
        let mut r = rng(45);
        let net = Mlp::new(&[6, 9, 3], Activation::Relu, &mut r).unwrap();
        let inputs = random_batch(&mut r, 32, 6);
        let rows = dense_rows(&inputs);
        let mut ws = BatchWorkspace::new();
        let big = bits_of(net.forward_prefix_batch_ws(0, &rows, &mut ws).unwrap());
        let buffers = |ws: &BatchWorkspace| -> Vec<*const f64> {
            ws.acts
                .iter()
                .chain(&ws.pres)
                .chain(&ws.deltas)
                .map(|m| m.as_slice().as_ptr())
                .collect()
        };
        let before = buffers(&ws);
        // A 3-row batch between two 32-row ones reuses every allocation,
        // and answers as a fresh workspace would.
        let small = bits_of(net.forward_prefix_batch_ws(0, &rows[..3], &mut ws).unwrap());
        assert_eq!(
            small,
            bits_of(
                net.forward_prefix_batch_ws(0, &rows[..3], &mut BatchWorkspace::new()).unwrap()
            )
        );
        assert_eq!(bits_of(net.forward_prefix_batch_ws(0, &rows, &mut ws).unwrap()), big);
        assert_eq!(buffers(&ws), before);
    }

    fn bits_of(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn single_input_forwards_match_the_reference() {
        let mut r = rng(46);
        let net = Mlp::new(&[5, 7, 4, 3], Activation::Tanh, &mut r).unwrap();
        let (mut scratch, mut ws) = (ForwardScratch::default(), BatchWorkspace::new());
        for x in random_batch(&mut r, 4, 5) {
            let reference = net.forward(&x).unwrap();
            let batched = net.forward_prefix_batch_ws(0, &[PrefixRow::dense(&x)], &mut ws).unwrap();
            assert_eq!(batched.row(0), &reference[..]);
            let single = net.forward_single_scratch(0, PrefixRow::dense(&x), &mut scratch);
            assert_eq!(single.unwrap(), &reference[..]);
        }
        assert!(net.forward_single_scratch(0, PrefixRow::dense(&[0.0; 4]), &mut scratch).is_err());
    }

    /// The three forwards read the one `Wᵀ` three ways: [`Mlp::forward`]
    /// down its columns, the single-state kernel across its rows, the
    /// batched kernels in register tiles. Whatever wrote the parameters —
    /// construction, Adam steps, `copy_parameters_from`, `clone` — the
    /// single-state forward and a batched row equal `forward` to the bit.
    #[test]
    fn all_forwards_agree_after_every_writer() {
        fn check(net: &Mlp, r: &mut StdRng, writer: &str) {
            let xs = random_batch(r, 3, 6);
            let mut ws = BatchWorkspace::new();
            let batched = net.forward_prefix_batch_ws(0, &dense_rows(&xs), &mut ws).unwrap();
            for (s, x) in xs.iter().enumerate() {
                let (row, reference) = (batched.row(s), net.forward(x).unwrap());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&net.forward_single(0, PrefixRow::dense(x)).unwrap()),
                    bits(&reference),
                    "single-state forward diverged after {writer}"
                );
                assert_eq!(bits(row), bits(&reference), "batched forward diverged after {writer}");
            }
        }
        let mut r = rng(48);
        let mut net = Mlp::new(&[6, 20, 5], Activation::Relu, &mut r).unwrap();
        check(&net, &mut r, "Mlp::new");
        let (x, y) = (random_batch(&mut r, 4, 6), random_batch(&mut r, 4, 5));
        let mut adam = AdamOptimizer::new(0.05);
        for _ in 0..3 {
            net.train_batch(&x, &y, &mut adam).unwrap();
            check(&net, &mut r, "AdamOptimizer::step");
        }
        let mut copy = Mlp::new(&[6, 20, 5], Activation::Relu, &mut r).unwrap();
        copy.copy_parameters_from(&net).unwrap();
        check(&copy, &mut r, "copy_parameters_from");
        check(&net.clone(), &mut r, "clone");
    }

    /// Adam with no row skipped: every element of every layer, every step —
    /// the optimiser's loop as it was before untouched rows were skipped,
    /// held here as the reference [`AdamOptimizer`] must match.
    struct DenseAdam {
        lr: f64,
        t: u64,
        m: Vec<LayerGrad>,
        v: Vec<LayerGrad>,
    }

    impl DenseAdam {
        fn step(&mut self, net: &mut Mlp, grads: &[LayerGrad]) {
            if self.m.is_empty() {
                self.m = grads.iter().map(|g| LayerGrad::zeros(&g.wt, &g.bias)).collect();
                self.v = self.m.clone();
            }
            self.t += 1;
            let (b1, b2, eps) = (0.9f64, 0.999f64, 1e-8);
            let bc1 = 1.0 - b1.powi(self.t as i32);
            let bc2 = 1.0 - b2.powi(self.t as i32);
            for (((layer, grad), mi), vi) in
                net.layers.iter_mut().zip(grads).zip(&mut self.m).zip(&mut self.v)
            {
                let params = layer.wt.as_mut_slice().iter_mut().chain(&mut layer.bias);
                let gs = grad.wt.as_slice().iter().chain(&grad.bias);
                let ms = mi.wt.as_mut_slice().iter_mut().chain(&mut mi.bias);
                let vs = vi.wt.as_mut_slice().iter_mut().chain(&mut vi.bias);
                for (((w, &g), mk), vk) in params.zip(gs).zip(ms).zip(vs) {
                    *mk = b1 * *mk + (1.0 - b1) * g;
                    *vk = b2 * *vk + (1.0 - b2) * g * g;
                    let m_hat = *mk / bc1;
                    let v_hat = *vk / bc2;
                    *w -= self.lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
        }
    }

    fn grad_bits(grads: &[LayerGrad]) -> Vec<u64> {
        grads
            .iter()
            .flat_map(|g| g.wt.as_slice().iter().chain(&g.bias))
            .map(|x| x.to_bits())
            .collect()
    }

    proptest::proptest! {
        /// The untouched-row skip changes no bit: after every step of a
        /// random gradient stream, parameters and both moments equal the
        /// dense loop's. Each row of `Wᵀ` follows one of five schedules —
        /// zero throughout, live from a late step on, live and then zero
        /// again, `-0.0` until it goes live, or live throughout — and live
        /// entries mix `±0.0`, NaN and values of both signs.
        #[test]
        fn adam_row_skip_bits_match_dense_adam(seed in 0u64..10_000) {
            let mut r = rng(seed);
            let mut net = Mlp::new(&[9, 6, 4], Activation::Relu, &mut r).unwrap();
            let mut dense_net = net.clone();
            let mut adam = AdamOptimizer::new(0.01);
            let mut dense = DenseAdam { lr: 0.01, t: 0, m: Vec::new(), v: Vec::new() };
            let schedules: Vec<Vec<(usize, usize, usize)>> = net
                .layers
                .iter()
                .map(|l| {
                    (0..l.wt.rows())
                        .map(|_| (r.gen_range(0..5), r.gen_range(0..12), r.gen_range(0..12)))
                        .collect()
                })
                .collect();
            for step in 0..12 {
                let grads: Vec<LayerGrad> = net
                    .layers
                    .iter()
                    .zip(&schedules)
                    .map(|(l, rows)| {
                        let mut g = LayerGrad::zeros(&l.wt, &l.bias);
                        for (c, &(kind, on, off)) in rows.iter().enumerate() {
                            let live = match kind {
                                0 => false,
                                1 | 3 => step >= on,
                                2 => step >= on.min(off) && step < on.max(off),
                                _ => true,
                            };
                            for x in g.wt.row_mut(c) {
                                *x = match (live, r.gen_range(0..10)) {
                                    (false, _) if kind == 3 => -0.0,
                                    (false, _) => 0.0,
                                    (true, 0) => 0.0,
                                    (true, 1) => -0.0,
                                    (true, 2) if r.gen_bool(0.1) => f64::NAN,
                                    _ => r.gen_range(-1.0..1.0),
                                };
                            }
                        }
                        for b in &mut g.bias {
                            *b = r.gen_range(-1.0..1.0);
                        }
                        g
                    })
                    .collect();
                adam.step(&mut net, &grads);
                dense.step(&mut dense_net, &grads);
                proptest::prop_assert_eq!(net.parameter_bits(), dense_net.parameter_bits());
                let (ms, vs): (Vec<_>, Vec<_>) =
                    adam.moments.iter().map(|mo| (mo.m.clone(), mo.v.clone())).unzip();
                proptest::prop_assert_eq!(grad_bits(&ms), grad_bits(&dense.m));
                proptest::prop_assert_eq!(grad_bits(&vs), grad_bits(&dense.v));
            }
        }
    }

    #[test]
    fn adam_skips_exactly_the_rows_never_touched() {
        // Two layers, 3 + 2 rows of `Wᵀ`. Step 1 touches row 1 of layer 0
        // only; step 2 touches nothing, but row 1 is now touched and stays
        // updated; step 3 gives row 0 of layer 1 a `-0.0`, which has a bit
        // set. Every other gradient entry is `+0.0` throughout.
        let mut net = Mlp::new(&[3, 2, 1], Activation::Relu, &mut rng(49)).unwrap();
        let mut adam = AdamOptimizer::new(0.01);
        let mut grads: Vec<LayerGrad> =
            net.layers.iter().map(|l| LayerGrad::zeros(&l.wt, &l.bias)).collect();
        grads[0].wt.row_mut(1).fill(0.5);
        adam.step(&mut net, &grads);
        assert_eq!(adam.row_counts(), (5, 4));
        grads[0].wt.row_mut(1).fill(0.0);
        adam.step(&mut net, &grads);
        assert_eq!(adam.row_counts(), (10, 8));
        grads[1].wt.row_mut(0)[0] = -0.0;
        adam.step(&mut net, &grads);
        assert_eq!(adam.row_counts(), (15, 11));
    }

    #[test]
    fn malformed_prefix_rows_are_rejected() {
        let net = Mlp::new(&[5, 3, 2], Activation::Relu, &mut rng(47)).unwrap();
        let mut ws = BatchWorkspace::new();
        let tail = [0.5, -0.5];
        let row = |ones| PrefixRow { ones, tail: &tail };
        assert!(net.forward_prefix_batch_ws(3, &[row(&[0, 2])], &mut ws).is_ok());
        let dense = [1.0, 0.0, 1.0, 0.5, -0.5];
        assert_eq!(net.forward_single(3, row(&[0, 2])).unwrap(), net.forward(&dense).unwrap());
        // Both forwards check a row through `GatheredRows::push_row`, which
        // leaves its rows as they were when it rejects one.
        let mut rows = GatheredRows::default();
        rows.clear(5);
        rows.push_row(3, &[0, 2], &tail).unwrap();
        let before = rows.clone();
        for (prefix, ones) in [
            (3, &[2u32, 0][..]),
            (3, &[1, 1]),
            (3, &[3]),
            (3, &[0, 4]),
            (2, &[]),
            (6, &[]),
            (usize::MAX, &[]),
        ] {
            assert!(rows.push_row(prefix, ones, &tail).is_err(), "prefix {prefix}, ones {ones:?}");
            assert_eq!(rows, before, "a rejected row changed the rows: {prefix}, {ones:?}");
            assert!(
                matches!(
                    net.forward_prefix_batch_ws(prefix, &[row(ones)], &mut ws),
                    Err(NetworkError::ArityMismatch { .. })
                ),
                "prefix {prefix}, ones {ones:?}"
            );
            assert!(
                matches!(
                    net.forward_single(prefix, row(ones)),
                    Err(NetworkError::ArityMismatch { .. })
                ),
                "single-state forward, prefix {prefix}, ones {ones:?}"
            );
        }
    }

    #[test]
    fn batched_path_validates() {
        let mut net = Mlp::new(&[2, 3, 1], Activation::Relu, &mut rng(44)).unwrap();
        let mut opt = AdamOptimizer::new(0.1);
        let mut ws = BatchWorkspace::new();
        assert!(matches!(
            net.forward_prefix_batch_ws(0, &[], &mut ws),
            Err(NetworkError::EmptyBatch)
        ));
        assert!(matches!(
            net.forward_prefix_batch_ws(0, &[PrefixRow::dense(&[1.0])], &mut ws),
            Err(NetworkError::ArityMismatch { expected: 2, got: 1 })
        ));
        assert!(matches!(
            net.train_td_batch_ws(0, &[], &[], &[], &mut opt, &mut ws),
            Err(NetworkError::EmptyBatch)
        ));
        let row = [PrefixRow::dense(&[1.0, 2.0])];
        assert!(matches!(
            net.train_td_batch_ws(0, &row, &[0, 0], &[0.5], &mut opt, &mut ws),
            Err(NetworkError::EmptyBatch)
        ));
        assert!(matches!(
            net.train_td_batch_ws(0, &row, &[1], &[0.5], &mut opt, &mut ws),
            Err(NetworkError::ArityMismatch { expected: 1, got: 1 })
        ));
    }
}
