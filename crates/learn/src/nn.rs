//! A small dense multi-layer perceptron with backpropagation.
//!
//! The paper's Deep Q-Network (§III-D, Alg. 1) needs only a modest value
//! network: the state is an `N × M` binary selection matrix flattened to a
//! vector, and the output is one Q-value per action. This module provides
//! exactly that — dense layers, ReLU/tanh activations, mean-squared-error
//! loss, and SGD/Adam optimisers — with no external deep-learning
//! dependency, as called for by the reproduction's substitution rule.

use crate::linalg::{BinaryRows, Matrix};
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
    /// weights; `LayerGrad` and the optimisers' moments share the layout.
    wt: Matrix,
    bias: Vec<f64>,
    activation: Activation,
}

/// Gradients of the loss with respect to one layer's parameters.
///
/// Public only because [`Optimizer::step`] mentions it; its fields are
/// crate-private, so downstream crates cannot construct or inspect it.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGrad {
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
/// The first layer never multiplies by the block's zeros (see
/// [`Matrix::matmul_prefix_into`] for why that cannot change a bit), which
/// is most of the DQN's `N × M` selection-matrix state.
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
}

/// Reusable scratch for the batched forward/backward paths.
///
/// Owns the packed activation, pre-activation, delta and gradient buffers so
/// steady-state training performs zero heap allocations. Create one per
/// training loop and pass it to [`Mlp::forward_prefix_batch_ws`] /
/// [`Mlp::train_td_batch_ws`]; buffers are rebuilt when the architecture
/// changes and otherwise only ever grow, so alternating batch sizes on one
/// workspace allocates nothing once the largest has been seen.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchWorkspace {
    sizes: Vec<usize>,
    /// The packed batch's leading 0/1 block, one row per sample.
    ones: BinaryRows,
    /// `acts[0]` is the packed `B × tail` batch (the input columns after
    /// the 0/1 block); `acts[l + 1]` holds layer `l`'s activations.
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

    /// Shapes the buffers for `batch` samples of `net`, `tail` of whose
    /// input columns are dense.
    fn ensure(&mut self, net: &Mlp, batch: usize, tail: usize) {
        if self.sizes != net.sizes {
            self.sizes.clone_from(&net.sizes);
            self.acts = vec![Matrix::zeros(0, 0); net.sizes.len()];
            self.pres = vec![Matrix::zeros(0, 0); net.layers.len()];
            self.deltas = vec![Matrix::zeros(0, 0); net.layers.len()];
            self.grads = net.layers.iter().map(|l| LayerGrad::zeros(&l.wt, &l.bias)).collect();
        }
        self.acts[0].resize(batch, tail);
        for (l, &w) in net.sizes[1..].iter().enumerate() {
            self.acts[l + 1].resize(batch, w);
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
    act: Vec<f64>,
    z: Vec<f64>,
}

/// A dense feed-forward network.
///
/// # Examples
///
/// ```
/// use learn::nn::{Activation, Mlp, SgdOptimizer};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// // 2 inputs -> 8 hidden -> 1 output.
/// let mut net = Mlp::new(&[2, 8, 1], Activation::Tanh, &mut rng)?;
/// let mut opt = SgdOptimizer::new(0.1, 0.0);
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

    /// Single-state forward pass ([`Matrix::vecmat_into`] on `Wᵀ`): every
    /// output of a layer accumulates side by side, and an input that is
    /// exactly zero — an unset selection entry, a dead ReLU — costs nothing.
    /// Each output adds the terms of [`Mlp::forward`]'s dot in its order,
    /// less the exact-zero ones, so for finite weights the result is
    /// `forward`'s bit for bit (the one pre-activation the kernels can
    /// disagree on is `±0.0`, and a bias is never `-0.0`: it starts at
    /// `+0.0` and no optimiser step can produce one). Action selection,
    /// rollouts and every other one-sample inference go through here.
    ///
    /// # Errors
    ///
    /// [`NetworkError::ArityMismatch`] when `input` has the wrong length.
    pub fn forward_single(&self, input: &[f64]) -> Result<Vec<f64>, NetworkError> {
        let mut scratch = ForwardScratch::default();
        self.forward_single_scratch(input, &mut scratch)?;
        Ok(scratch.act)
    }

    /// [`Mlp::forward_single`] into caller-owned scratch: no allocation once
    /// `scratch` has seen this architecture, and no copy of `input`.
    ///
    /// # Errors
    ///
    /// [`NetworkError::ArityMismatch`] when `input` has the wrong length.
    pub fn forward_single_scratch<'s>(
        &self,
        input: &[f64],
        scratch: &'s mut ForwardScratch,
    ) -> Result<&'s [f64], NetworkError> {
        if input.len() != self.input_size() {
            return Err(NetworkError::ArityMismatch {
                expected: self.input_size(),
                got: input.len(),
            });
        }
        for (li, layer) in self.layers.iter().enumerate() {
            let ForwardScratch { act, z } = &mut *scratch;
            let src: &[f64] = if li == 0 { input } else { act };
            z.resize(layer.bias.len(), 0.0);
            layer.wt.vecmat_into(src, z).expect("sizes consistent by construction");
            for (zi, &b) in z.iter_mut().zip(&layer.bias) {
                *zi = layer.activation.apply(*zi + b);
            }
            std::mem::swap(act, z);
        }
        Ok(&scratch.act)
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

    /// Batched forward pass: one blocked matmul per layer instead of `B`
    /// matvecs, with no allocation once `ws` has seen this batch size.
    /// Inputs come in sparse-prefix form (their first `prefix` entries are a
    /// 0/1 block; `0` with [`PrefixRow::dense`] rows for plain inputs).
    /// Returns the `B × out` activation matrix held in `ws`; row `s` equals
    /// `self.forward` on `inputs[s]` written out densely, bit for bit — the
    /// `linalg` kernels keep every output element's textbook accumulation
    /// order.
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
        self.pack_batch(prefix, inputs, ws)?;
        self.forward_trace_batch(ws);
        Ok(ws.acts.last().expect("at least the input buffer"))
    }

    /// Validates `inputs` and packs them into `ws.ones` / `ws.acts[0]`.
    fn pack_batch(
        &self,
        prefix: usize,
        inputs: &[PrefixRow<'_>],
        ws: &mut BatchWorkspace,
    ) -> Result<(), NetworkError> {
        if inputs.is_empty() {
            return Err(NetworkError::EmptyBatch);
        }
        let Some(tail) = self.input_size().checked_sub(prefix) else {
            return Err(NetworkError::ArityMismatch { expected: self.input_size(), got: prefix });
        };
        ws.ensure(self, inputs.len(), tail);
        ws.ones.clear(prefix);
        for (s, x) in inputs.iter().enumerate() {
            if x.tail.len() != tail {
                return Err(NetworkError::ArityMismatch {
                    expected: self.input_size(),
                    got: prefix + x.tail.len(),
                });
            }
            ws.ones.push_row(x.ones).map_err(|_| NetworkError::ArityMismatch {
                expected: prefix,
                got: x.ones.last().map_or(0, |&i| i as usize),
            })?;
            ws.acts[0].row_mut(s).copy_from_slice(x.tail);
        }
        Ok(())
    }

    /// Batched analogue of `forward_trace` over the packed batch in
    /// `ws.ones` / `ws.acts[0]`: per layer `Z = A·Wᵀ` (one blocked matmul),
    /// `Z += bias` broadcast row-wise, `A' = σ(Z)`.
    ///
    /// The plain `A·(Wᵀ)` kernels' inner loop is contiguous over the output
    /// dimension and auto-vectorises; they multiply the same operand pairs
    /// in the same `k` order as the reference's per-output dot, so the
    /// result is bit-identical.
    fn forward_trace_batch(&self, ws: &mut BatchWorkspace) {
        let batch = ws.acts[0].rows();
        for (li, layer) in self.layers.iter().enumerate() {
            let (done, rest) = ws.acts.split_at_mut(li + 1);
            let a_in = &done[li];
            let pre = &mut ws.pres[li];
            if li == 0 {
                a_in.matmul_prefix_into(&ws.ones, &layer.wt, pre).expect("sizes consistent");
            } else {
                a_in.matmul_into(&layer.wt, pre).expect("sizes consistent");
            }
            let a_out = &mut rest[0];
            for s in 0..batch {
                for (z, &b) in pre.row_mut(s).iter_mut().zip(&layer.bias) {
                    *z += b;
                }
                for (o, &z) in a_out.row_mut(s).iter_mut().zip(pre.row(s)) {
                    *o = layer.activation.apply(z);
                }
            }
        }
    }

    /// Temporal-difference loss and gradients for one chunk, all samples in
    /// a single accumulation stream, written into `ws.grads`; returns the
    /// *unscaled* summed loss. The target row for sample `s` is this pass's
    /// own output with entry `actions[s]` replaced by `bootstraps[s]`, so
    /// the redundant "predict the targets" forward the dense formulation
    /// needs is fused away — and because every off-action residual is the
    /// exact `+0.0` of the dense subtraction `o − o`, the output-layer
    /// backward touches only the action entries instead of all `B × out`
    /// deltas.
    ///
    /// The skipped terms are all exact `±0.0` products, and skipping them
    /// cannot change any accumulated bit: under round-to-nearest an f64
    /// accumulator that starts at `+0.0` can never reach `-0.0` (cancellation
    /// `x + (−x)` yields `+0.0`, and sums never underflow to zero), so
    /// adding a `±0.0` term is always the identity. Loss and gradients are
    /// therefore bit-identical to the dense reference; only the transient
    /// delta buffer (whose skipped entries feed nothing) is left unwritten.
    /// The scalar-vs-batched DQN tests gate the end-to-end equivalence.
    fn grad_td_chunk_into(
        &self,
        prefix: usize,
        inputs: &[PrefixRow<'_>],
        actions: &[usize],
        bootstraps: &[f64],
        scale: f64,
        ws: &mut BatchWorkspace,
    ) -> Result<f64, NetworkError> {
        self.pack_batch(prefix, inputs, ws)?;
        self.forward_trace_batch(ws);
        let batch = inputs.len();
        let last = self.layers.len() - 1;
        let act_last = self.layers[last].activation;
        let mut total_loss = 0.0;
        // Sparse output layer: per sample the only non-zero residual sits at
        // the action index, so the loss reduces to that one squared term and
        // dWᵀ/db accumulate a single scaled column per sample — in the same
        // ascending sample order as the dense accumulation.
        let LayerGrad { wt: gw, bias: gb } = &mut ws.grads[last];
        gw.as_mut_slice().fill(0.0);
        gb.fill(0.0);
        for (s, (&a, &bootstrap)) in actions.iter().zip(bootstraps).enumerate() {
            let o = ws.acts[last + 1].row(s)[a];
            let r = o - bootstrap;
            total_loss += r * r / 2.0;
            let d = r * act_last.derivative(ws.pres[last].row(s)[a]);
            ws.deltas[last].row_mut(s)[a] = d;
            let t = scale * d;
            for (c, &x) in ws.acts[last].row(s).iter().enumerate() {
                gw[(c, a)] += t * x;
            }
            gb[a] += t;
        }
        if last > 0 {
            // Sparse propagation: Δ_prev[s] = δ_s · W[a_s] ⊙ σ'(z_prev) —
            // one column of `Wᵀ` per sample instead of the full Δ·W product.
            let wt = &self.layers[last].wt;
            let act_prev = self.layers[last - 1].activation;
            let (lower, upper) = ws.deltas.split_at_mut(last);
            let prev = &mut lower[last - 1];
            for (s, &a) in actions.iter().enumerate() {
                let d = upper[0].row(s)[a];
                for (c, (p, &z)) in
                    prev.row_mut(s).iter_mut().zip(ws.pres[last - 1].row(s)).enumerate()
                {
                    *p = (d * wt[(c, a)]) * act_prev.derivative(z);
                }
            }
            self.backward_layers_into(last - 1, batch, scale, ws);
        }
        Ok(total_loss)
    }

    /// Dense backward pass over layers `0..=top`: consumes the deltas
    /// already in `ws.deltas[top]` and fills `ws.grads[..=top]`.
    fn backward_layers_into(&self, top: usize, batch: usize, scale: f64, ws: &mut BatchWorkspace) {
        for li in (0..=top).rev() {
            // dWᵀ = A_inᵀ·(scale·Δ) with samples ascending — the same
            // accumulation order (and the same `(scale·δ)·a` product shape)
            // as the per-sample reference; db likewise.
            let ones = (li == 0).then_some(&ws.ones);
            ws.acts[li]
                .prefix_gram_scaled_into(ones, &ws.deltas[li], scale, &mut ws.grads[li].wt)
                .expect("sizes consistent");
            let gb = &mut ws.grads[li].bias;
            gb.fill(0.0);
            for s in 0..batch {
                for (b, &d) in gb.iter_mut().zip(ws.deltas[li].row(s)) {
                    *b += scale * d;
                }
            }
            // Propagate: Δ_prev = (Δ·W) ⊙ σ'(z_prev) as Δ·(Wᵀ)ᵀ, outputs of
            // W ascending from `+0.0` as in the per-sample loop.
            if li > 0 {
                let (lower, upper) = ws.deltas.split_at_mut(li);
                let prev = &mut lower[li - 1];
                upper[0]
                    .matmul_transpose_b_into(&self.layers[li].wt, prev)
                    .expect("sizes consistent");
                let act = self.layers[li - 1].activation;
                for s in 0..batch {
                    for (d, &z) in prev.row_mut(s).iter_mut().zip(ws.pres[li - 1].row(s)) {
                        *d *= act.derivative(z);
                    }
                }
            }
        }
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
        let partials = parallel::try_par_map_grained(&bounds, 1, |&(s, e)| {
            let mut local = BatchWorkspace::new();
            chunk(s, e, &mut local).map(|loss| (loss, local.grads))
        })?;
        ws.ensure(self, 0, 0);
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
    /// the first layer's forward and weight gradient never touch the
    /// block's zeros — bit-identical to training on the densified rows.
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
        optimizer: &mut impl Optimizer,
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
        optimizer: &mut impl Optimizer,
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

/// A gradient-descent rule. Sealed in practice: the two provided impls cover
/// the paper's needs and the trait operates on private gradient types.
pub trait Optimizer {
    /// Applies one update to `net` from accumulated `grads`.
    #[doc(hidden)]
    fn step(&mut self, net: &mut Mlp, grads: &[LayerGrad]);
}

/// Plain SGD with optional momentum.
#[derive(Debug, Clone, PartialEq)]
pub struct SgdOptimizer {
    learning_rate: f64,
    momentum: f64,
    velocity: Option<Vec<LayerGrad>>,
}

impl SgdOptimizer {
    /// Creates an SGD optimiser.
    ///
    /// # Panics
    ///
    /// Panics unless `learning_rate > 0` and `0 <= momentum < 1`.
    pub fn new(learning_rate: f64, momentum: f64) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        Self { learning_rate, momentum, velocity: None }
    }

    /// The configured learning rate.
    pub fn learning_rate(&self) -> f64 {
        self.learning_rate
    }
}

impl Optimizer for SgdOptimizer {
    fn step(&mut self, net: &mut Mlp, grads: &[LayerGrad]) {
        let velocity = self.velocity.get_or_insert_with(|| {
            grads.iter().map(|g| LayerGrad::zeros(&g.wt, &g.bias)).collect()
        });
        for ((layer, grad), vel) in net.layers.iter_mut().zip(grads).zip(velocity.iter_mut()) {
            vel.wt.scale(self.momentum);
            vel.wt.axpy(-self.learning_rate, &grad.wt).expect("same shape");
            layer.wt.axpy(1.0, &vel.wt).expect("same shape");
            for ((b, &g), v) in layer.bias.iter_mut().zip(&grad.bias).zip(&mut vel.bias) {
                *v = self.momentum * *v - self.learning_rate * g;
                *b += *v;
            }
        }
    }
}

/// Adam optimiser (Kingma & Ba) — the usual choice for DQN training.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamOptimizer {
    learning_rate: f64,
    beta1: f64,
    beta2: f64,
    epsilon: f64,
    t: u64,
    m: Option<Vec<LayerGrad>>,
    v: Option<Vec<LayerGrad>>,
}

impl AdamOptimizer {
    /// Creates an Adam optimiser with standard betas (0.9, 0.999).
    ///
    /// # Panics
    ///
    /// Panics unless `learning_rate > 0`.
    pub fn new(learning_rate: f64) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        Self { learning_rate, beta1: 0.9, beta2: 0.999, epsilon: 1e-8, t: 0, m: None, v: None }
    }
}

impl Optimizer for AdamOptimizer {
    fn step(&mut self, net: &mut Mlp, grads: &[LayerGrad]) {
        let zeros = || -> Vec<LayerGrad> {
            grads.iter().map(|g| LayerGrad::zeros(&g.wt, &g.bias)).collect()
        };
        if self.m.is_none() {
            self.m = Some(zeros());
            self.v = Some(zeros());
        }
        self.t += 1;
        let (b1, b2) = (self.beta1, self.beta2);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        let m = self.m.as_mut().expect("initialised above");
        let v = self.v.as_mut().expect("initialised above");
        for (((layer, grad), mi), vi) in
            net.layers.iter_mut().zip(grads).zip(m.iter_mut()).zip(v.iter_mut())
        {
            // Zipped slice walks (no per-element indexing) so the whole
            // element-wise update — including the sqrt/divide — vectorises;
            // per-element arithmetic is unchanged, so bits are unchanged.
            let (lr, eps) = (self.learning_rate, self.epsilon);
            for (((w, &g), mk), vk) in layer
                .wt
                .as_mut_slice()
                .iter_mut()
                .zip(grad.wt.as_slice())
                .zip(mi.wt.as_mut_slice().iter_mut())
                .zip(vi.wt.as_mut_slice().iter_mut())
            {
                *mk = b1 * *mk + (1.0 - b1) * g;
                *vk = b2 * *vk + (1.0 - b2) * g * g;
                let m_hat = *mk / bc1;
                let v_hat = *vk / bc2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            for (((w, &g), mk), vk) in layer
                .bias
                .iter_mut()
                .zip(&grad.bias)
                .zip(mi.bias.iter_mut())
                .zip(vi.bias.iter_mut())
            {
                *mk = b1 * *mk + (1.0 - b1) * g;
                *vk = b2 * *vk + (1.0 - b2) * g * g;
                let m_hat = *mk / bc1;
                let v_hat = *vk / bc2;
                *w -= lr * m_hat / (v_hat.sqrt() + eps);
            }
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
    fn sgd_descends_on_linear_target() {
        let mut net = Mlp::new(&[1, 8, 1], Activation::Relu, &mut rng(3)).unwrap();
        let inputs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 10.0 - 1.0]).collect();
        let targets: Vec<Vec<f64>> = inputs.iter().map(|x| vec![2.0 * x[0] + 0.3]).collect();
        let mut opt = SgdOptimizer::new(0.05, 0.9);
        let first = net.loss(&inputs, &targets).unwrap();
        for _ in 0..300 {
            net.train_batch(&inputs, &targets, &mut opt).unwrap();
        }
        let last = net.loss(&inputs, &targets).unwrap();
        assert!(last < first / 10.0, "loss {first} -> {last}");
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
        let mut opt = SgdOptimizer::new(0.1, 0.0);
        assert!(matches!(net.train_batch(&[], &[], &mut opt), Err(NetworkError::EmptyBatch)));
        assert!(net.loss(&[], &[]).is_err());
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn bad_learning_rate_panics() {
        SgdOptimizer::new(0.0, 0.0);
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
            let actions: Vec<usize> = (0..batch).map(|s| s % 2).collect();
            let boots: Vec<f64> = (0..batch).map(|_| r.gen_range(-2.0..2.0)).collect();
            let rows = dense_rows(&inputs);
            let mut opt_s = AdamOptimizer::new(0.01);
            let mut opt_b = AdamOptimizer::new(0.01);
            let mut ws = BatchWorkspace::new();
            for _ in 0..5 {
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
        let mut opt = SgdOptimizer::new(0.1, 0.0);
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
        let mut opt = SgdOptimizer::new(0.05, 0.9);
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
            assert_eq!(net.forward_single_scratch(&x, &mut scratch).unwrap(), &reference[..]);
        }
        assert!(net.forward_single_scratch(&[0.0; 4], &mut scratch).is_err());
    }

    /// The three forwards read the one `Wᵀ` three ways: [`Mlp::forward`]
    /// down its columns, the single-state kernel across its rows, the
    /// batched kernels in register tiles. Whatever wrote the parameters —
    /// construction, an Adam step, SGD steps with momentum,
    /// `copy_parameters_from`, `clone` — the single-state forward and a
    /// batched row equal `forward` to the bit.
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
                    bits(&net.forward_single(x).unwrap()),
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
        net.train_batch(&x, &y, &mut AdamOptimizer::new(0.05)).unwrap();
        check(&net, &mut r, "AdamOptimizer::step");
        let mut sgd = SgdOptimizer::new(0.05, 0.9);
        for _ in 0..2 {
            net.train_batch(&x, &y, &mut sgd).unwrap();
            check(&net, &mut r, "SgdOptimizer::step");
        }
        let mut copy = Mlp::new(&[6, 20, 5], Activation::Relu, &mut r).unwrap();
        copy.copy_parameters_from(&net).unwrap();
        check(&copy, &mut r, "copy_parameters_from");
        check(&net.clone(), &mut r, "clone");
    }

    #[test]
    fn malformed_prefix_rows_are_rejected() {
        let net = Mlp::new(&[5, 3, 2], Activation::Relu, &mut rng(47)).unwrap();
        let mut ws = BatchWorkspace::new();
        let tail = [0.5, -0.5];
        let row = |ones| PrefixRow { ones, tail: &tail };
        assert!(net.forward_prefix_batch_ws(3, &[row(&[0, 2])], &mut ws).is_ok());
        for (prefix, ones) in [(3, &[2u32, 0][..]), (3, &[1, 1]), (3, &[3]), (2, &[]), (6, &[])] {
            assert!(
                matches!(
                    net.forward_prefix_batch_ws(prefix, &[row(ones)], &mut ws),
                    Err(NetworkError::ArityMismatch { .. })
                ),
                "prefix {prefix}, ones {ones:?}"
            );
        }
    }

    #[test]
    fn batched_path_validates() {
        let mut net = Mlp::new(&[2, 3, 1], Activation::Relu, &mut rng(44)).unwrap();
        let mut opt = SgdOptimizer::new(0.1, 0.0);
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
