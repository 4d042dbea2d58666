//! Dense vector and matrix primitives used by every learner in this crate.
//!
//! The paper's models (ridge regression for COP prediction, the primal SVM of
//! Eq. 8, the DQN's multi-layer perceptron) are all small and dense, so a
//! straightforward row-major `Vec<f64>` representation is both sufficient and
//! easy to audit. No external BLAS is used: experiments must be bit-for-bit
//! reproducible across machines.

use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub};

/// A dense, row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use learn::linalg::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// assert_eq!(m[(1, 0)], 3.0);
/// assert_eq!(m.transpose()[(0, 1)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Error returned when matrix dimensions do not line up for an operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionError {
    op: &'static str,
    pub(crate) left: (usize, usize),
    pub(crate) right: (usize, usize),
}

impl fmt::Display for DimensionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dimension mismatch in {}: {}x{} vs {}x{}",
            self.op, self.left.0, self.left.1, self.right.0, self.right.1
        )
    }
}

impl std::error::Error for DimensionError {}

/// Rows in gathered form: per row, the entries that are not exactly zero,
/// as ascending `(column, value)` pairs over `width()` columns. It is the
/// one form every layer of [`crate::nn::Mlp`] multiplies: the rows'
/// entries feed [`Matrix::gathered_vecmat_into`] one row at a time and
/// [`Matrix::gathered_gram_scaled_into`] a batch at a time, so an exact
/// zero — an unset selection entry, a zero-importance column, a dead ReLU
/// — costs nothing.
///
/// # Examples
///
/// ```
/// use learn::linalg::GatheredRows;
///
/// let mut rows = GatheredRows::default();
/// rows.clear(5);
/// // A 0/1 block three wide with its ones at 0 and 2, then two dense entries.
/// rows.push_row(3, &[0, 2], &[0.0, -1.5]).unwrap();
/// rows.push_row(0, &[], &[0.0, 4.0, -0.0, 0.0, 1.0]).unwrap();
/// assert!(rows.push_row(3, &[3], &[0.0, 0.0]).is_err());
/// assert_eq!(rows.rows(), 2);
/// assert_eq!(rows.row(0), &[(0, 1.0), (2, 1.0), (4, -1.5)]);
/// assert_eq!(rows.row(1), &[(1, 4.0), (4, 1.0)]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GatheredRows {
    width: usize,
    entries: Vec<(usize, f64)>,
    /// `ends[r]` is one past row `r`'s last position in `entries`.
    ends: Vec<usize>,
}

impl GatheredRows {
    /// Drops every row (keeping the allocations) and sets the column count.
    pub fn clear(&mut self, width: usize) {
        self.width = width;
        self.entries.clear();
        self.ends.clear();
    }

    /// Appends the row whose first `prefix` entries are a 0/1 block with its
    /// ones at `ones` and whose remaining entries are `tail`: the ones as
    /// `(i, 1.0)`, then `tail`'s entries that are not exactly zero at
    /// `prefix + k` ([`gather_nonzero`]). A dense row is `(0, &[], row)`.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionError`] (leaving `self` unchanged) unless the row
    /// is `width()` long (`prefix + tail.len()`) and `ones` is strictly
    /// ascending below `prefix` — the order is what the kernels'
    /// bit-identity rests on.
    pub fn push_row(
        &mut self,
        prefix: usize,
        ones: &[u32],
        tail: &[f64],
    ) -> Result<(), DimensionError> {
        let err = |got, bound| DimensionError { op: "push_row", left: (1, got), right: (1, bound) };
        if prefix.checked_add(tail.len()) != Some(self.width) {
            return Err(err(prefix.saturating_add(tail.len()), self.width));
        }
        if !ascending_below(ones.iter().map(|&i| i as usize), prefix) {
            return Err(err(ones.last().map_or(0, |&i| i as usize + 1), prefix));
        }
        self.entries.extend(ones.iter().map(|&i| (i as usize, 1.0)));
        gather_nonzero(prefix, tail, &mut self.entries);
        self.ends.push(self.entries.len());
        Ok(())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.ends.len()
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `r`'s non-zero entries, ascending by column.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[(usize, f64)] {
        let start = if r == 0 { 0 } else { self.ends[r - 1] };
        &self.entries[start..self.ends[r]]
    }
}

/// Whether `indices` is strictly ascending and every index is below `bound`
/// — the shape of a gathered row.
fn ascending_below(mut indices: impl Iterator<Item = usize>, bound: usize) -> bool {
    let mut next = 0;
    indices.all(|i| {
        let ok = i >= next && i < bound;
        next = i + 1;
        ok
    })
}

/// Appends to `out` the entries of `v` that are not exactly zero, each as
/// `(offset + index, value)`, in ascending order: the gathered form
/// [`Matrix::gathered_vecmat_into`] multiplies. NaNs are kept; `±0.0` are
/// not.
pub fn gather_nonzero(offset: usize, v: &[f64], out: &mut Vec<(usize, f64)>) {
    // Eight entries are tested at once into a bit mask, without a branch
    // per entry, and only the set bits are visited: exact zeros come in
    // long runs (unset selection entries, the `e` columns of
    // zero-importance tasks).
    let mut blocks = v.chunks_exact(8);
    let mut base = offset;
    for block in &mut blocks {
        let mut mask = 0u32;
        for (i, &x) in block.iter().enumerate() {
            mask |= u32::from(x != 0.0) << i;
        }
        while mask != 0 {
            let i = mask.trailing_zeros() as usize;
            out.push((base + i, block[i]));
            mask &= mask - 1;
        }
        base += 8;
    }
    let rest = blocks.remainder();
    out.extend(rest.iter().enumerate().filter(|&(_, &x)| x != 0.0).map(|(k, &x)| (base + k, x)));
}

/// Register-block height of the tiled kernels: how many output rows (or
/// accumulators) each pass keeps live. Four doubles fit comfortably in
/// registers on every supported target while quartering the passes over the
/// shared operand; the value only affects speed, never results — every
/// kernel accumulates each output element's `k` terms in index order
/// regardless of blocking.
const MR: usize = 4;

/// Register-tile width of [`Matrix::gathered_vecmat_into`]: how many outputs keep
/// their accumulator live across the whole `k` loop. Like [`MR`] it only
/// affects speed.
const VR: usize = 16;

/// Three [`VR`]-wide tiles that share one pass of
/// [`Matrix::gathered_vecmat_into`] wherever they fit: twelve independent
/// add chains of four lanes, where one tile's four wait on the add latency.
const VG: usize = 3 * VR;

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Re-shapes to `rows × cols` in place, keeping the allocation whenever
    /// it is already large enough (shrinking never frees). Contents are
    /// unspecified afterwards; meant for scratch that a kernel overwrites.
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// Returns `None` when rows are empty or ragged (unequal lengths).
    pub fn from_rows(rows: &[Vec<f64>]) -> Option<Self> {
        let ncols = rows.first()?.len();
        if ncols == 0 || rows.iter().any(|r| r.len() != ncols) {
            return None;
        }
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Some(Self { rows: rows.len(), cols: ncols, data })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// Returns `None` if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Option<Self> {
        (data.len() == rows * cols).then_some(Self { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// A view of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Column `c` copied into a `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col {c} out of bounds for {} cols", self.cols);
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Matrix transpose; every element is a bitwise copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for (r, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            for (c, &x) in row.iter().enumerate() {
                t.data[c * self.rows + r] = x;
            }
        }
        t
    }

    /// Matrix product `self · rhs`, computed by the register-blocked
    /// [`Matrix::matmul_into`] kernel. Each output element still accumulates
    /// its `k` terms in exactly the order of the textbook ijk triple loop —
    /// so results are bit-identical to the naive reference (see the
    /// `matmul_bits_match_naive_triple_loop` test).
    ///
    /// # Errors
    ///
    /// Returns [`DimensionError`] when `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, DimensionError> {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self · rhs` written into `out` (which is fully
    /// overwritten), allocating nothing.
    ///
    /// The kernel computes `MR×NR` register tiles of `out`: the accumulators
    /// for a 4-row × 8-column block start at `+0.0`, live in registers
    /// across the entire `k` loop and are stored once (the store-bound
    /// pattern that capped the old k-outer sweep). Each output element
    /// still sums its `k` terms in index order from `+0.0`, exactly as the
    /// textbook ijk triple loop does — bit-identical to the naive reference
    /// at any tile size.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionError`] when `self.cols() != rhs.rows()` or when
    /// `out` is not `self.rows() × rhs.cols()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<(), DimensionError> {
        if self.cols != rhs.rows {
            return Err(DimensionError { op: "matmul", left: self.shape(), right: rhs.shape() });
        }
        if out.shape() != (self.rows, rhs.cols) {
            return Err(DimensionError {
                op: "matmul_into(out)",
                left: out.shape(),
                right: (self.rows, rhs.cols),
            });
        }
        out.data.fill(0.0);
        let n = out.cols;
        let k = self.cols;
        if n == 0 || k == 0 {
            return Ok(());
        }
        const NR: usize = 8;
        let rhs_rows = || rhs.data.chunks_exact(n).enumerate();
        let mut lhs_blocks = self.data.chunks_exact(MR * k);
        let mut out_blocks = out.data.chunks_exact_mut(MR * n);
        for (lhs_block, out_block) in lhs_blocks.by_ref().zip(out_blocks.by_ref()) {
            let (l0, lr) = lhs_block.split_at(k);
            let (l1, lr) = lr.split_at(k);
            let (l2, l3) = lr.split_at(k);
            let (o0, or) = out_block.split_at_mut(n);
            let (o1, or) = or.split_at_mut(n);
            let (o2, o3) = or.split_at_mut(n);
            let mut j0 = 0;
            while j0 + NR <= n {
                let (mut a0, mut a1, mut a2, mut a3) =
                    ([0.0f64; NR], [0.0; NR], [0.0; NR], [0.0; NR]);
                for (c, rhs_row) in rhs_rows() {
                    let (c0, c1, c2, c3) = (l0[c], l1[c], l2[c], l3[c]);
                    let rv: &[f64; NR] = rhs_row[j0..j0 + NR].try_into().expect("tile width");
                    for t in 0..NR {
                        a0[t] += c0 * rv[t];
                        a1[t] += c1 * rv[t];
                        a2[t] += c2 * rv[t];
                        a3[t] += c3 * rv[t];
                    }
                }
                o0[j0..j0 + NR].copy_from_slice(&a0);
                o1[j0..j0 + NR].copy_from_slice(&a1);
                o2[j0..j0 + NR].copy_from_slice(&a2);
                o3[j0..j0 + NR].copy_from_slice(&a3);
                j0 += NR;
            }
            if j0 < n {
                // Ragged column tail (< NR wide), once per row block: same
                // tile, rhs copied into a zero-padded array. A pad lane's
                // `+0.0` accumulator only ever adds `±0.0` terms, stays
                // `+0.0`, and is never stored — the live lanes accumulate
                // exactly as in the full tile.
                let nt = n - j0;
                let mut acc = [[0.0f64; NR]; MR];
                for (c, rhs_row) in rhs_rows() {
                    let (c0, c1, c2, c3) = (l0[c], l1[c], l2[c], l3[c]);
                    let mut rv = [0.0f64; NR];
                    rv[..nt].copy_from_slice(&rhs_row[j0..]);
                    for (t, &x) in rv.iter().enumerate() {
                        acc[0][t] += c0 * x;
                        acc[1][t] += c1 * x;
                        acc[2][t] += c2 * x;
                        acc[3][t] += c3 * x;
                    }
                }
                o0[j0..].copy_from_slice(&acc[0][..nt]);
                o1[j0..].copy_from_slice(&acc[1][..nt]);
                o2[j0..].copy_from_slice(&acc[2][..nt]);
                o3[j0..].copy_from_slice(&acc[3][..nt]);
            }
        }
        // Tail rows (fewer than MR left): plain ikj, same accumulation order.
        for (lhs_row, out_row) in lhs_blocks
            .remainder()
            .chunks_exact(k)
            .zip(out_blocks.into_remainder().chunks_exact_mut(n))
        {
            for (c, rhs_row) in rhs_rows() {
                let x = lhs_row[c];
                for (o, &w) in out_row.iter_mut().zip(rhs_row) {
                    *o += x * w;
                }
            }
        }
        Ok(())
    }

    /// Matrix product `self · rhsᵀ` without materialising the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionError`] when `self.cols() != rhs.cols()`.
    pub fn matmul_transpose_b(&self, rhs: &Matrix) -> Result<Matrix, DimensionError> {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_transpose_b_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix product `self · rhsᵀ` written into `out` (fully overwritten),
    /// allocating nothing and never materialising the transpose.
    ///
    /// `out[i][j] = Σ_k self[i][k] · rhs[j][k]`, with `k` ascending — the
    /// same accumulation order (and therefore the same bits) as a dot
    /// product of the two rows. The kernel keeps `MR` accumulators live so
    /// one pass over a `self` row feeds `MR` output columns.
    ///
    /// This is the delta-propagation kernel of batched backprop: with `self`
    /// a `B×out` batch of layer deltas and `rhs` the layer's `in×out` `Wᵀ`,
    /// `out` holds `Δ·W` — each element summed over the layer's outputs in
    /// ascending order from `+0.0`, as [`Matrix::matmul_into`] would on `W`.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionError`] when `self.cols() != rhs.cols()` or when
    /// `out` is not `self.rows() × rhs.rows()`.
    pub fn matmul_transpose_b_into(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
    ) -> Result<(), DimensionError> {
        if self.cols != rhs.cols {
            return Err(DimensionError {
                op: "matmul_transpose_b",
                left: self.shape(),
                right: rhs.shape(),
            });
        }
        if out.shape() != (self.rows, rhs.rows) {
            return Err(DimensionError {
                op: "matmul_transpose_b_into(out)",
                left: out.shape(),
                right: (self.rows, rhs.rows),
            });
        }
        let k = self.cols;
        if k == 0 || rhs.rows == 0 {
            out.data.fill(0.0);
            return Ok(());
        }
        for (lhs_row, out_row) in self.data.chunks_exact(k).zip(out.data.chunks_exact_mut(rhs.rows))
        {
            let mut rhs_blocks = rhs.data.chunks_exact(MR * k);
            let mut out_cells = out_row.chunks_exact_mut(MR);
            for (rhs_block, cells) in rhs_blocks.by_ref().zip(out_cells.by_ref()) {
                let (r0, rr) = rhs_block.split_at(k);
                let (r1, rr) = rr.split_at(k);
                let (r2, r3) = rr.split_at(k);
                let (mut a0, mut a1, mut a2, mut a3) = (0.0, 0.0, 0.0, 0.0);
                for (kk, &x) in lhs_row.iter().enumerate() {
                    a0 += x * r0[kk];
                    a1 += x * r1[kk];
                    a2 += x * r2[kk];
                    a3 += x * r3[kk];
                }
                cells[0] = a0;
                cells[1] = a1;
                cells[2] = a2;
                cells[3] = a3;
            }
            for (rhs_row, cell) in
                rhs_blocks.remainder().chunks_exact(k).zip(out_cells.into_remainder())
            {
                let mut acc = 0.0;
                for (&x, &w) in lhs_row.iter().zip(rhs_row) {
                    acc += x * w;
                }
                *cell = acc;
            }
        }
        Ok(())
    }

    /// Scaled Gram product `out = Xᵀ·(α·self)` over the gathered rows `x`,
    /// written into `out` (fully overwritten): `out[c][r] = Σ_b
    /// (α·self[b][r]) · x_b[c]`, `b` ascending, where row `b` of `x` lists
    /// the non-zero `x_b[c]`.
    ///
    /// This is the weight-gradient kernel of batched backprop: with `x` a
    /// layer's `B` gathered inputs, `self` its `B×out` deltas and `α` the
    /// `1/batch` loss scale, `out` receives `∂loss/∂Wᵀ` with exactly the
    /// bits of the per-sample loop `grad[c][r] += (α·δ_b[r]) · a_b[c]`
    /// accumulated over samples in order. An entry contributes its sample's
    /// scaled delta row to `out`'s row `c` (a one of a 0/1 block: `t · 1.0`
    /// is `t`). The inputs it leaves out are exact zeros, so their terms
    /// are exact `±0.0` addends (for finite deltas) to accumulators that
    /// start at `+0.0` and so can never be `-0.0`: identities.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionError`] when `x` does not have one row per row of
    /// `self`, or when `out` is not `x.width() × self.cols()`.
    pub fn gathered_gram_scaled_into(
        &self,
        x: &GatheredRows,
        alpha: f64,
        out: &mut Matrix,
    ) -> Result<(), DimensionError> {
        if x.rows() != self.rows {
            return Err(DimensionError {
                op: "gathered_gram",
                left: (x.rows(), x.width()),
                right: self.shape(),
            });
        }
        if out.shape() != (x.width(), self.cols) {
            return Err(DimensionError {
                op: "gathered_gram_scaled_into(out)",
                left: out.shape(),
                right: (x.width(), self.cols),
            });
        }
        out.data.fill(0.0);
        let m = self.cols;
        if m == 0 {
            return Ok(());
        }
        for (b, d_row) in self.data.chunks_exact(m).enumerate() {
            for &(c, v) in x.row(b) {
                for (o, &d) in out.data[c * m..][..m].iter_mut().zip(d_row) {
                    *o += (alpha * d) * v;
                }
            }
        }
        Ok(())
    }

    /// Matrix-vector product `self · v`.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionError`] when `self.cols() != v.len()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, DimensionError> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(v, &mut out)?;
        Ok(out)
    }

    /// Matrix-vector product `self · v` written into `out`, allocating
    /// nothing. Each `out[r]` is the dot product of row `r` with `v`,
    /// accumulated in index order — bit-identical to [`Matrix::matvec`]. The
    /// kernel keeps `MR` row accumulators live so each element of `v` is
    /// loaded once per `MR` rows.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionError`] when `self.cols() != v.len()` or
    /// `out.len() != self.rows()`.
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) -> Result<(), DimensionError> {
        if self.cols != v.len() {
            return Err(DimensionError { op: "matvec", left: self.shape(), right: (v.len(), 1) });
        }
        if out.len() != self.rows {
            return Err(DimensionError {
                op: "matvec_into(out)",
                left: (out.len(), 1),
                right: (self.rows, 1),
            });
        }
        let k = self.cols;
        if k == 0 {
            out.fill(0.0);
            return Ok(());
        }
        // Deliberately the plain per-row dot: this is the per-sample
        // reference kernel the batched paths are measured against, so it is
        // kept bit- and instruction-faithful to the original implementation.
        for (row, cell) in self.data.chunks_exact(k).zip(out.iter_mut()) {
            *cell = dot(row, v);
        }
        Ok(())
    }

    /// Vector–matrix product over a gathered vector: `out[j] = Σ x ·
    /// self[k][j]` over the `(k, x)` entries of `v`, in list order, from
    /// `+0.0`. This is the single-state inference kernel: with `self` a
    /// layer's `in × out` weights `Wᵀ`, a row is one *input's* contribution
    /// to every output, so the outputs are independent, contiguous
    /// accumulator chains, and `v` lists only the inputs that are not
    /// exactly zero ([`gather_nonzero`]) — the rest cost nothing, not even a
    /// test.
    ///
    /// Accumulators live in register tiles across the whole list and are
    /// stored once: `VG` outputs a pass where they fit, then `VR`-wide
    /// tiles; outputs narrower than a tile accumulate in `out`. A ragged
    /// last tile slides left to end at the last output, recomputing the
    /// outputs it shares with its neighbour to the same bits. With `v` the
    /// non-zero entries of a dense `x` in ascending order, each output adds
    /// the terms of [`Matrix::matvec_into`]'s row dot on `self.transpose()`,
    /// in its order, less the ones with `x[k]` zero: for finite `self` those
    /// are `±0.0` products added to an accumulator that starts at `+0.0` and
    /// so can never hold `-0.0` — identities. So the bits are the row dot's,
    /// with one exception this kernel shares with the `matmul` family: an
    /// output whose every term is `-0.0` is `+0.0` here and `-0.0` there,
    /// because [`dot`]'s `Iterator::sum` starts from `-0.0`.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionError`] unless `v`'s indices are strictly
    /// ascending below `self.rows()` and `out` has `self.cols()` entries.
    pub fn gathered_vecmat_into(
        &self,
        v: &[(usize, f64)],
        out: &mut [f64],
    ) -> Result<(), DimensionError> {
        if !ascending_below(v.iter().map(|&(k, _)| k), self.rows) {
            let top = v.iter().map(|&(k, _)| k + 1).max().unwrap_or(0);
            return Err(DimensionError {
                op: "gathered_vecmat",
                left: (1, top),
                right: self.shape(),
            });
        }
        if out.len() != self.cols {
            return Err(DimensionError {
                op: "gathered_vecmat_into(out)",
                left: (1, out.len()),
                right: (1, self.cols),
            });
        }
        let n = self.cols;
        if n == 0 {
            return Ok(());
        }
        if n < VR {
            // Narrower than a tile: accumulate in `out` itself.
            out.fill(0.0);
            for &(k, x) in v {
                for (o, &w) in out.iter_mut().zip(&self.data[k * n..(k + 1) * n]) {
                    *o += x * w;
                }
            }
            return Ok(());
        }
        let mut j0 = 0;
        while j0 + VG <= n {
            self.tile_pass::<VG>(v, out, j0);
            j0 += VG;
        }
        while j0 < n {
            // A ragged last tile slides left to end at `n`.
            let j = j0.min(n - VR);
            self.tile_pass::<VR>(v, out, j);
            j0 = j + VR;
        }
        Ok(())
    }

    /// One pass of [`Matrix::gathered_vecmat_into`] over the whole list for
    /// the `W` outputs from `j0`, their accumulators held in registers.
    fn tile_pass<const W: usize>(&self, v: &[(usize, f64)], out: &mut [f64], j0: usize) {
        let mut acc = [0.0f64; W];
        for &(k, x) in v {
            let start = k * self.cols + j0;
            let rv: &[f64; W] = self.data[start..start + W].try_into().expect("tile width");
            for c in 0..W {
                acc[c] += x * rv[c];
            }
        }
        out[j0..j0 + W].copy_from_slice(&acc);
    }

    /// Element-wise map, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&x| f(x)).collect() }
    }

    /// In-place scaled addition `self += alpha * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`DimensionError`] on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) -> Result<(), DimensionError> {
        if self.shape() != rhs.shape() {
            return Err(DimensionError { op: "axpy", left: self.shape(), right: rhs.shape() });
        }
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Scales every element in place.
    pub fn scale(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Solves `self · x = b` for square `self` via Gaussian elimination with
    /// partial pivoting. Used by the ridge-regression normal equations.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] when the matrix is non-square, `b` has the
    /// wrong length, the system is (numerically) singular, or a pivot is
    /// NaN or infinite (a non-finite entry, or an overflow during
    /// elimination).
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        let n = self.rows;
        if self.cols != n {
            return Err(SolveError::NotSquare { rows: self.rows, cols: self.cols });
        }
        if b.len() != n {
            return Err(SolveError::BadRhs { expected: n, got: b.len() });
        }
        // Augmented system, eliminated in place.
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivot: the last row of largest magnitude. `total_cmp`
            // orders finite magnitudes as `<` does and puts NaN above ∞.
            let pivot = (col..n)
                .max_by(|&i, &j| a[i * n + col].abs().total_cmp(&a[j * n + col].abs()))
                .unwrap_or(col);
            let magnitude = a[pivot * n + col].abs();
            if !magnitude.is_finite() {
                return Err(SolveError::NonFinite { col });
            }
            if magnitude < 1e-12 {
                return Err(SolveError::Singular { col });
            }
            if pivot != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot * n + k);
                }
                x.swap(col, pivot);
            }
            let diag = a[col * n + col];
            for row in (col + 1)..n {
                let factor = a[row * n + col] / diag;
                if factor == 0.0 {
                    continue;
                }
                for k in col..n {
                    a[row * n + k] -= factor * a[col * n + k];
                }
                x[row] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = x[col];
            for k in (col + 1)..n {
                sum -= a[col * n + k] * x[k];
            }
            x[col] = sum / a[col * n + col];
        }
        Ok(x)
    }
}

/// Error returned by [`Matrix::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The coefficient matrix is not square.
    NotSquare {
        /// Row count of the offending matrix.
        rows: usize,
        /// Column count of the offending matrix.
        cols: usize,
    },
    /// The right-hand side has the wrong length.
    BadRhs {
        /// Expected length (matrix order).
        expected: usize,
        /// Supplied length.
        got: usize,
    },
    /// A pivot below tolerance was encountered.
    Singular {
        /// Column at which elimination failed.
        col: usize,
    },
    /// A NaN or infinite pivot was encountered.
    NonFinite {
        /// Column at which elimination failed.
        col: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NotSquare { rows, cols } => {
                write!(f, "cannot solve non-square system of shape {rows}x{cols}")
            }
            SolveError::BadRhs { expected, got } => {
                write!(f, "right-hand side has length {got}, expected {expected}")
            }
            SolveError::Singular { col } => {
                write!(f, "matrix is singular at column {col}")
            }
            SolveError::NonFinite { col } => {
                write!(f, "non-finite pivot at column {col}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Matrix::axpy`] for a fallible variant.
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix addition shape mismatch");
        let mut out = self.clone();
        out.axpy(1.0, rhs).expect("shapes checked");
        out
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Matrix::axpy`] for a fallible variant.
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix subtraction shape mismatch");
        let mut out = self.clone();
        out.axpy(-1.0, rhs).expect("shapes checked");
        out
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, alpha: f64) -> Matrix {
        let mut out = self.clone();
        out.scale(alpha);
        out
    }
}

impl AddAssign<&Matrix> for Matrix {
    /// # Panics
    ///
    /// Panics on shape mismatch; use [`Matrix::axpy`] for a fallible variant.
    fn add_assign(&mut self, rhs: &Matrix) {
        self.axpy(1.0, rhs).expect("matrix += shape mismatch");
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm of a slice.
pub fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn euclidean_distance(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance length mismatch");
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

/// In-place scaled vector addition `a += alpha * b`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn axpy(a: &mut [f64], alpha: f64, b: &[f64]) {
    assert_eq!(a.len(), b.len(), "axpy length mismatch");
    for (x, y) in a.iter_mut().zip(b) {
        *x += alpha * y;
    }
}

/// Mean of a slice; `0.0` for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f64>() / a.len() as f64
    }
}

/// Population variance of a slice; `0.0` for slices shorter than 2.
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / a.len() as f64
}

/// Population standard deviation of a slice.
pub fn std_dev(a: &[f64]) -> f64 {
    variance(a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_requested_shape_and_content() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_is_diagonal_ones() {
        let m = Matrix::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(m[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_none());
        assert!(Matrix::from_rows(&[]).is_none());
        assert!(Matrix::from_rows(&[vec![]]).is_none());
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_none());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_some());
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn transpose_copies_every_element() {
        for (r, c, salt) in [(1, 7, 31), (7, 3, 32), (8, 8, 33), (9, 5, 34), (17, 31, 35)] {
            let m = dense_test_matrix(r, c, salt);
            let t = m.transpose();
            assert_eq!(t.shape(), (c, r));
            for i in 0..r {
                for j in 0..c {
                    assert_eq!(t[(j, i)].to_bits(), m[(i, j)].to_bits(), "{r}x{c} at ({i},{j})");
                }
            }
        }
        assert_eq!(Matrix::zeros(0, 3).transpose().shape(), (3, 0));
        assert_eq!(Matrix::zeros(3, 0).transpose().shape(), (0, 3));
    }

    #[test]
    fn resize_keeps_the_allocation_when_it_fits() {
        let mut m = Matrix::zeros(8, 4);
        let ptr = m.as_slice().as_ptr();
        m.resize(2, 4);
        assert_eq!(m.shape(), (2, 4));
        m.resize(4, 8);
        assert_eq!((m.shape(), m.as_slice().len()), ((4, 8), 32));
        assert_eq!(m.as_slice().as_ptr(), ptr);
    }

    /// The textbook ijk triple loop the ikj implementation must match
    /// bit-for-bit: each output element accumulates its `k` terms in index
    /// order.
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

    /// Deterministic value mix: varied magnitudes, signs, and exact zeros
    /// (zeros exercised deliberately — the previous implementation skipped
    /// zero lhs entries, which is not order-preserving around signed zeros).
    fn dense_test_matrix(rows: usize, cols: usize, salt: u64) -> Matrix {
        let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let data: Vec<f64> = (0..rows * cols)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match state % 7 {
                    0 => 0.0,
                    1 => -0.0,
                    k => ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 10f64.powi(k as i32),
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn matmul_bits_match_naive_triple_loop() {
        // Shapes straddle the MR register block: exact multiples, tails of
        // every size, and degenerate single rows/columns.
        for (m, k, n, salt) in [
            (1, 1, 1, 1),
            (3, 5, 2, 2),
            (4, 4, 4, 6),
            (5, 9, 4, 7),
            (8, 8, 8, 3),
            (17, 31, 13, 4),
            (40, 7, 40, 5),
        ] {
            let a = dense_test_matrix(m, k, salt);
            let b = dense_test_matrix(k, n, salt ^ 0xFFFF);
            let fast = a.matmul(&b).unwrap();
            let slow = matmul_naive(&a, &b);
            let fast_bits: Vec<u64> = fast.as_slice().iter().map(|x| x.to_bits()).collect();
            let slow_bits: Vec<u64> = slow.as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(fast_bits, slow_bits, "shape {m}x{k}·{k}x{n} diverged from naive order");

            // The into-variant is the same kernel without the allocation.
            let mut out = Matrix::filled(m, n, f64::NAN);
            a.matmul_into(&b, &mut out).unwrap();
            assert_eq!(
                out.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                slow_bits,
                "matmul_into diverged at {m}x{k}·{k}x{n}"
            );

            // A·Bᵀ must match matmul against the materialised transpose.
            let bt = dense_test_matrix(n, k, salt ^ 0xAAAA);
            let via_transpose = a.matmul(&bt.transpose()).unwrap();
            let direct = a.matmul_transpose_b(&bt).unwrap();
            assert_eq!(
                direct.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                via_transpose.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "matmul_transpose_b diverged at {m}x{k}·({n}x{k})ᵀ"
            );
        }
    }

    #[test]
    fn matmul_transpose_b_on_transposed_weights_matches_matmul_on_the_weights() {
        // Delta propagation: `Δ·(Wᵀ)ᵀ` against `matmul_into(Δ, W)`, at the
        // DQN's output layer and a ragged shape. Input 1 of `W` meets only
        // `-0.0` weights, so every term of its sum is a signed zero: both
        // kernels start from `+0.0` and agree (a `dot` would keep the sign).
        for (b, m, n, salt) in [(32, 51, 48, 15), (5, 7, 9, 16)] {
            let delta = dense_test_matrix(b, m, salt);
            let mut wt = dense_test_matrix(n, m, salt ^ 0x9999);
            wt.row_mut(1).fill(-0.0);
            let mut reference = Matrix::filled(b, n, f64::NAN);
            delta.matmul_into(&wt.transpose(), &mut reference).unwrap();
            let mut out = Matrix::filled(b, n, f64::NAN);
            delta.matmul_transpose_b_into(&wt, &mut out).unwrap();
            assert_eq!(
                out.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                reference.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "Δ·(Wᵀ)ᵀ diverged at {b}x{m} · ({n}x{m})ᵀ"
            );
            assert!((0..b).all(|s| out[(s, 1)].to_bits() == 0.0f64.to_bits()));
        }
    }

    /// `m`'s rows in gathered form.
    fn gathered_rows(m: &Matrix) -> GatheredRows {
        let mut rows = GatheredRows::default();
        rows.clear(m.cols());
        for r in 0..m.rows() {
            rows.push_row(0, &[], m.row(r)).unwrap();
        }
        rows
    }

    #[test]
    fn gathered_gram_scaled_matches_per_sample_loop() {
        for (b, m, n, salt) in [(1, 1, 1, 11), (4, 3, 5, 12), (9, 4, 4, 13), (32, 5, 7, 14)] {
            let delta = dense_test_matrix(b, m, salt);
            let acts = dense_test_matrix(b, n, salt ^ 0x5555);
            let alpha = 1.0 / b as f64;
            // Reference: the per-sample accumulation order of nn backprop.
            let mut reference = Matrix::zeros(n, m);
            for s in 0..b {
                for r in 0..m {
                    for c in 0..n {
                        reference[(c, r)] += alpha * delta[(s, r)] * acts[(s, c)];
                    }
                }
            }
            let mut out = Matrix::filled(n, m, f64::NAN);
            delta.gathered_gram_scaled_into(&gathered_rows(&acts), alpha, &mut out).unwrap();
            assert_eq!(
                out.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                reference.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "scaled Aᵀ·δ diverged at {b}x{n} · {b}x{m}"
            );
        }
    }

    #[test]
    fn matvec_into_bits_match_dot_products() {
        for (m, k, salt) in [(1, 1, 21), (4, 6, 22), (7, 9, 23), (12, 33, 24)] {
            let a = dense_test_matrix(m, k, salt);
            let v: Vec<f64> = dense_test_matrix(1, k, salt ^ 0x3333).into_vec();
            let reference: Vec<u64> = (0..m).map(|r| dot(a.row(r), &v).to_bits()).collect();
            let mut out = vec![f64::NAN; m];
            a.matvec_into(&v, &mut out).unwrap();
            assert_eq!(
                out.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                reference,
                "matvec_into diverged at {m}x{k}"
            );
            let alloc: Vec<u64> = a.matvec(&v).unwrap().iter().map(|x| x.to_bits()).collect();
            assert_eq!(alloc, reference);
        }
    }

    fn gathered(v: &[f64]) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        gather_nonzero(0, v, &mut out);
        out
    }

    #[test]
    fn gathered_vecmat_bits_match_matvec_on_the_transpose() {
        // Output widths below, at and past the VR-wide tile (the ragged
        // last tile overlaps its neighbour), one and two VG-wide groups
        // with tiles after them, and both DQN layer shapes.
        // `dense_test_matrix` mixes `±0.0` into weights and inputs alike, so
        // gathering drops entries mid-stream.
        for (k, n, salt) in [
            (1, 1, 41),
            (9, 15, 42),
            (9, 16, 43),
            (9, 17, 44),
            (33, 33, 45),
            (48, 51, 46),
            (927, 48, 47),
            (9, 64, 48),
            (9, 100, 49),
        ] {
            let wt = dense_test_matrix(k, n, salt);
            let w = wt.transpose();
            let dense = dense_test_matrix(1, k, salt ^ 0x7777).into_vec();
            let mut one_hot = vec![0.0; k];
            one_hot[k / 2] = 1.0;
            for v in [dense, one_hot] {
                let mut reference = vec![f64::NAN; n];
                w.matvec_into(&v, &mut reference).unwrap();
                let reference: Vec<u64> = reference.iter().map(|x| x.to_bits()).collect();
                let mut out = vec![f64::NAN; n];
                wt.gathered_vecmat_into(&gathered(&v), &mut out).unwrap();
                let bits: Vec<u64> = out.iter().map(|x| x.to_bits()).collect();
                assert_eq!(bits, reference, "gathered_vecmat_into diverged at {k}x{n}");
            }
        }
        // The documented exception: when every term of an output is `-0.0`
        // the row dot (whose `sum` starts from `-0.0`) keeps the sign, and a
        // `+0.0` accumulator does not. (Here the terms are gathered by hand:
        // `gather_nonzero` would drop the zeros.)
        let wt = Matrix::from_vec(2, 1, vec![-1.0, -2.0]).unwrap();
        let (mut out, mut reference) = ([f64::NAN], [f64::NAN]);
        wt.gathered_vecmat_into(&[(0, 0.0), (1, 0.0)], &mut out).unwrap();
        wt.transpose().matvec_into(&[0.0, 0.0], &mut reference).unwrap();
        assert_eq!(
            (out[0].to_bits(), reference[0].to_bits()),
            (0.0f64.to_bits(), (-0.0f64).to_bits())
        );
    }

    #[test]
    fn gather_matches_a_filter_across_whole_and_partial_blocks() {
        for len in 0..40 {
            let v: Vec<f64> = (0..len)
                .map(|i| match (i * 7 + len) % 5 {
                    0 | 1 => 0.0,
                    2 => -0.0,
                    3 => f64::NAN,
                    _ => i as f64 - 9.5,
                })
                .collect();
            let mut out = vec![(7, 1.0)];
            gather_nonzero(3, &v, &mut out);
            let expected: Vec<(usize, u64)> = std::iter::once((7, 1f64.to_bits()))
                .chain(
                    v.iter()
                        .enumerate()
                        .filter(|(_, x)| **x != 0.0)
                        .map(|(k, x)| (k + 3, x.to_bits())),
                )
                .collect();
            let got: Vec<(usize, u64)> = out.iter().map(|&(k, x)| (k, x.to_bits())).collect();
            assert_eq!(got, expected, "length {len}");
        }
    }

    #[test]
    fn gather_keeps_nan_and_drops_both_zeros() {
        let mut out = vec![(0, 9.0)];
        gather_nonzero(10, &[0.0, -0.0, f64::NAN, -1.5, f64::INFINITY], &mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(out[0], (0, 9.0));
        assert!(out[1].0 == 12 && out[1].1.is_nan());
        assert_eq!(&out[2..], &[(13, -1.5), (14, f64::INFINITY)]);
    }

    #[test]
    fn into_kernels_validate_shapes() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(4, 2);
        let mut bad = Matrix::zeros(2, 2);
        assert!(a.matmul_into(&b, &mut bad).is_err());
        assert!(a.matmul_into(&Matrix::zeros(3, 2), &mut Matrix::zeros(3, 2)).is_err());
        assert!(a.matmul_transpose_b_into(&Matrix::zeros(2, 3), &mut bad).is_err());
        assert!(a.matmul_transpose_b_into(&Matrix::zeros(2, 4), &mut bad).is_err());
        // The gradient over `a`'s three gathered rows: one delta row per
        // row, `out` is `a.cols() × delta.cols()`.
        let rows = gathered_rows(&a);
        let delta = Matrix::zeros(3, 2);
        let mut grad = Matrix::zeros(4, 2);
        assert!(Matrix::zeros(2, 2).gathered_gram_scaled_into(&rows, 1.0, &mut bad).is_err());
        assert!(delta.gathered_gram_scaled_into(&rows, 1.0, &mut Matrix::zeros(3, 3)).is_err());
        assert!(delta.gathered_gram_scaled_into(&rows, 1.0, &mut Matrix::zeros(5, 2)).is_err());
        assert!(delta.gathered_gram_scaled_into(&rows, 1.0, &mut grad).is_ok());
        assert!(a.matvec_into(&[0.0; 3], &mut [0.0; 3]).is_err());
        assert!(a.matvec_into(&[0.0; 4], &mut [0.0; 2]).is_err());
        // A gathered list must be strictly ascending below `a.rows()`; the
        // output is `a.cols()` long.
        for (list, ok) in [
            (&[(0, 1.0), (2, 1.0)][..], true),
            (&[(2, 1.0), (0, 1.0)], false),
            (&[(1, 1.0), (1, 1.0)], false),
            (&[(3, 1.0)], false),
        ] {
            assert_eq!(a.gathered_vecmat_into(list, &mut [0.0; 4]).is_ok(), ok, "{list:?}");
        }
        assert!(a.gathered_vecmat_into(&[], &mut [0.0; 3]).is_err());
    }

    #[test]
    fn zero_dimension_kernels_are_safe() {
        // Empty inner dimension: every output element is an empty sum (0.0).
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let mut out = Matrix::filled(3, 2, f64::NAN);
        a.matmul_into(&b, &mut out).unwrap();
        assert!(out.as_slice().iter().all(|&x| x == 0.0));
        let bt = Matrix::zeros(2, 0);
        let mut out_t = Matrix::filled(3, 2, f64::NAN);
        a.matmul_transpose_b_into(&bt, &mut out_t).unwrap();
        assert!(out_t.as_slice().iter().all(|&x| x == 0.0));
        let mut mv = [f64::NAN; 3];
        a.matvec_into(&[], &mut mv).unwrap();
        assert!(mv.iter().all(|&x| x == 0.0));
        // `gathered_vecmat_into`: no inputs (narrow and tiled), then no
        // outputs.
        for n in [2, 51] {
            let mut vm = vec![f64::NAN; n];
            Matrix::zeros(0, n).gathered_vecmat_into(&[], &mut vm).unwrap();
            assert!(vm.iter().all(|&x| x.to_bits() == 0.0f64.to_bits()));
        }
        a.gathered_vecmat_into(&[(2, 1.0)], &mut []).unwrap();
        // `gathered_gram_scaled_into`: no rows, rows with no entries, no
        // inputs, no outputs.
        let mut rows = GatheredRows::default();
        for (batch, width, m) in [(0, 3, 2), (3, 3, 2), (3, 0, 2), (3, 3, 0)] {
            rows.clear(width);
            for _ in 0..batch {
                rows.push_row(0, &[], &vec![0.0; width]).unwrap();
            }
            let mut grad = Matrix::filled(width, m, f64::NAN);
            Matrix::filled(batch, m, 1.0).gathered_gram_scaled_into(&rows, 1.0, &mut grad).unwrap();
            assert!(grad.as_slice().iter().all(|&x| x.to_bits() == 0.0f64.to_bits()));
        }
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.matmul(&Matrix::identity(2)).unwrap(), a);
        assert_eq!(Matrix::identity(2).matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_dimension_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let err = a.matmul(&b).unwrap_err();
        assert!(err.to_string().contains("matmul"));
    }

    #[test]
    fn matvec_matches_manual() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]).unwrap();
        let x = a.solve(&[3.0, 5.0]).unwrap();
        // 2x + y = 3, x + 3y = 5 => x = 4/5, y = 7/5
        assert!((x[0] - 0.8).abs() < 1e-10);
        assert!((x[1] - 1.4).abs() < 1e-10);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero leading pivot forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_detects_singular() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert!(matches!(a.solve(&[1.0, 2.0]), Err(SolveError::Singular { .. })));
    }

    #[test]
    fn solve_rejects_non_finite_pivots() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let a = Matrix::from_rows(&[vec![bad]]).unwrap();
            assert_eq!(a.solve(&[1.0]), Err(SolveError::NonFinite { col: 0 }), "{bad}");
        }
        // Finite entries whose elimination overflows to ∞.
        let a = Matrix::from_rows(&[vec![1.0, 1e308], vec![1.0, -1e308]]).unwrap();
        assert_eq!(a.solve(&[1.0, 1.0]), Err(SolveError::NonFinite { col: 1 }));
    }

    #[test]
    fn solve_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.solve(&[0.0, 0.0]), Err(SolveError::NotSquare { .. })));
        let b = Matrix::identity(2);
        assert!(matches!(b.solve(&[0.0]), Err(SolveError::BadRhs { .. })));
    }

    #[test]
    fn operators_add_sub_scale() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![10.0, 20.0]]).unwrap();
        assert_eq!((&a + &b).as_slice(), &[11.0, 22.0]);
        assert_eq!((&b - &a).as_slice(), &[9.0, 18.0]);
        assert_eq!((&a * 3.0).as_slice(), &[3.0, 6.0]);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[11.0, 22.0]);
    }

    #[test]
    fn vector_helpers() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert_eq!(euclidean_distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        let mut v = vec![1.0, 1.0];
        axpy(&mut v, 2.0, &[1.0, 2.0]);
        assert_eq!(v, vec![3.0, 5.0]);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert!((variance(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
        assert!((std_dev(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn row_col_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
    }

    #[test]
    fn map_and_norm() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.map(|x| x * x).as_slice(), &[9.0, 16.0]);
        assert_eq!(m.frobenius_norm(), 5.0);
    }
}
