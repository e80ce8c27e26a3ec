//! Shared inputs of the GEMM M-sweep (`gemm_threads` and the `kernels`
//! criterion bench): the serving projection shapes and the LM head at
//! the row counts a step carries, each against one pass per row of the
//! loop a kernel-free implementation would run.

use anda_tensor::{Matrix, Rng};

/// Row counts of a step: solo decode, small decode batches, a full
/// decode batch, a prefill chunk.
pub const SWEEP_M: [usize; 6] = [1, 2, 4, 8, 16, 64];

/// `(k, n, relu_sparse)` of the serving model's projections — `wqkv`,
/// `wup`, `wdown`. The first two read normed (dense) activations; only
/// `wdown` reads the post-ReLU block.
pub const SERVING_SHAPES: [(usize, usize, bool); 3] =
    [(256, 768, false), (256, 1024, false), (1024, 256, true)];

/// `(k, n)` of the serving model's tied LM head, whose `rhs` — the
/// embedding table — is held `n × k`.
pub const LM_HEAD_SHAPE: (usize, usize) = (256, 512);

/// Normal weights (`k × n`).
pub fn weights(k: usize, n: usize, seed: u64) -> Matrix {
    let mut w = Matrix::zeros(k, n);
    Rng::new(seed).fill_normal(w.as_mut_slice(), 0.05);
    w
}

/// An activation block (`m × k`) of normal draws; with `relu_sparse`
/// the negative half is zeroed — the sparsity the `a == 0` skip of the
/// per-row loop feeds on and a register tile cannot use.
pub fn lhs(m: usize, k: usize, relu_sparse: bool, seed: u64) -> Matrix {
    let mut a = Matrix::zeros(m, k);
    Rng::new(seed).fill_normal(a.as_mut_slice(), 1.0);
    if relu_sparse {
        a.map_inplace(|v| v.max(0.0));
    }
    a
}

/// The row-major baseline: one pass of the single-row axpy loop per row
/// of `lhs` — what the serving path ran per token before the step-wide
/// GEMM — so every row re-streams all of `rhs`.
pub fn per_row_gemv(lhs: &Matrix, rhs: &Matrix, out: &mut Matrix) {
    for i in 0..lhs.rows() {
        let out_row = out.row_mut(i);
        out_row.fill(0.0);
        for (kidx, &a) in lhs.row(i).iter().enumerate() {
            if a == 0.0 {
                continue;
            }
            for (o, &b) in out_row.iter_mut().zip(rhs.row(kidx)) {
                *o += a * b;
            }
        }
    }
}

/// The transposed baseline (`rhs_t` held `n × k`): one plain
/// ascending-`k` dot per output element, row by row — the scalar oracle
/// of `matmul_transposed`.
pub fn per_row_dots(lhs: &Matrix, rhs_t: &Matrix, out: &mut Matrix) {
    for i in 0..lhs.rows() {
        for (o, b_row) in out.row_mut(i).iter_mut().zip(rhs_t.rows_iter()) {
            let mut acc = 0.0f32;
            for (&a, &b) in lhs.row(i).iter().zip(b_row) {
                acc += a * b;
            }
            *o = acc;
        }
    }
}
