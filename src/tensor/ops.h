// Differentiable operators over taste::tensor::Tensor.
//
// Every function builds the forward result eagerly and, when gradient
// recording is enabled (see NoGradGuard), attaches a backward closure that
// accumulates into the inputs' gradient buffers. Shape contracts are
// enforced with TASTE_CHECK: shape mismatches are programmer errors, not
// recoverable conditions.

#ifndef TASTE_TENSOR_OPS_H_
#define TASTE_TENSOR_OPS_H_

#include <vector>

#include "common/rng.h"
#include "tensor/quant.h"
#include "tensor/tensor.h"

namespace taste::tensor {

// -- Elementwise ------------------------------------------------------------

/// a + b, identical shapes.
Tensor Add(const Tensor& a, const Tensor& b);
/// a - b, identical shapes.
Tensor Sub(const Tensor& a, const Tensor& b);
/// a * b elementwise, identical shapes.
Tensor Mul(const Tensor& a, const Tensor& b);
/// x * s for a compile-time-constant scalar s (no grad through s).
Tensor Scale(const Tensor& x, float s);
/// x + c elementwise for a constant c.
Tensor AddScalar(const Tensor& x, float c);
/// x^2 elementwise.
Tensor Square(const Tensor& x);
/// ln(x) elementwise; x must be positive.
Tensor Log(const Tensor& x);
/// 1/x elementwise; x must be nonzero.
Tensor Reciprocal(const Tensor& x);
/// max(x, 0).
Tensor Relu(const Tensor& x);
/// Gaussian error linear unit (tanh approximation, as in BERT).
Tensor Gelu(const Tensor& x);
/// Logistic sigmoid.
Tensor Sigmoid(const Tensor& x);
/// Hyperbolic tangent.
Tensor Tanh(const Tensor& x);
/// Inverted-dropout with keep-prob 1-p; identity when !training or p == 0.
Tensor Dropout(const Tensor& x, float p, Rng& rng, bool training);

// -- Broadcast adds ----------------------------------------------------------

/// x (..., H) + bias (H): bias broadcast over all leading dims.
Tensor AddBias(const Tensor& x, const Tensor& bias);
/// x (B, m, n) + m2 (m, n): matrix broadcast over the batch dim. Used to
/// apply an attention mask across heads.
Tensor AddBroadcastMat(const Tensor& x, const Tensor& m2);

// -- Linear algebra ----------------------------------------------------------

/// (m, k) x (k, n) -> (m, n).
Tensor MatMul(const Tensor& a, const Tensor& b);
/// The affine map x W + b: x (m, k), W (k, n), b (n) -> (m, n), in one
/// GEMM pass whose store adds the bias (kernels::Gemm). Outputs and x/W/b
/// gradients are bitwise AddBias(MatMul(x, W), b)'s: the backward runs
/// AddBias's and then MatMul's kernels in the order the two-node chain
/// ran them.
Tensor Linear(const Tensor& x, const Tensor& w, const Tensor& bias);
/// Inference-only fused affine through a prepacked int8 weight: x (m, k)
/// is quantized dynamically per row, multiplied against w's int8 panels
/// with int32 accumulation, and dequantized (+ fp32 bias) in one pass —
/// the int8 equivalent of Linear(x, W, b). Requires gradient
/// recording to be off (serving contexts set no_grad); never records an
/// autograd edge. `bias` may be undefined for a bias-free layer.
Tensor QuantLinear(const Tensor& x, const quant::PackedQuantWeight& w,
                   const Tensor& bias);
/// (B, m, k) x (B, k, n) -> (B, m, n).
Tensor BatchedMatMul(const Tensor& a, const Tensor& b);
/// Swaps the last two dims of a rank-2 or rank-3 tensor.
Tensor TransposeLast2(const Tensor& x);
/// Reinterprets data in a new shape with equal element count (no copy of
/// layout; grad flows straight through).
Tensor Reshape(const Tensor& x, Shape shape);

// -- Attention -------------------------------------------------------------------

/// Rows [begin, begin + rows) of a rank-2 tensor.
struct RowRange {
  int64_t begin = 0;
  int64_t rows = 0;
};

/// One block of attention queries: the query rows attend over the
/// concatenation of the key/value rows of kv[0] then kv[1] (kv[1] may be
/// empty), `width = kv[0].rows + kv[1].rows` keys in all. `mask`, when
/// non-null, is an additive (>= mask_row + query.rows, width) constant: its
/// row mask_row + r is added to query row r's scaled scores, for every
/// head. With `shared_mask_row`, the one row mask_row is added to every
/// query row of the span instead (the mask needs >= mask_row + 1 rows):
/// bitwise the per-row form over that row repeated, since each score gets
/// the same addend. The mask is not differentiated and must not require
/// grad.
struct AttentionSpan {
  RowRange query;
  RowRange kv[2];
  const Tensor* mask = nullptr;
  int64_t mask_row = 0;
  bool shared_mask_row = false;
};

/// Multi-head scaled-dot-product attention over already-projected
/// q (sq, H), k and v (skv, H), with H = num_heads * head_dim and head a in
/// columns [a*head_dim, (a+1)*head_dim). For each (span, head) it computes
/// softmax(q_h k_hᵀ / sqrt(head_dim) + mask) v_h into that head's columns of
/// the span's query rows; rows no span covers stay zero. Query ranges must
/// not overlap. Consecutive spans that share kv[0], the mask and the width
/// and whose query rows are contiguous run as one (group, head) block
/// (kernels::AttentionBlockForward): the shared kv[0] keys and values are
/// packed once for all of them, and the query rows are walked in register
/// bands across the spans, each band's scores, softmax and context done
/// while they sit in L1. A block depends only on its own rows, so the
/// result is independent of the other spans and of the grouping. The
/// blocks run one after another on the calling thread. The bits equal the
/// unfused composition (GatherRows, TransposeLast2, BatchedMatMul, Scale,
/// AddBroadcastMat, Softmax, BatchedMatMul): every element runs the same
/// kernel arithmetic in the same order on the same values. Records one
/// autograd edge to q, k and v; the probabilities are kept only when it
/// does.
Tensor Attention(const Tensor& q, const Tensor& k, const Tensor& v,
                 int64_t num_heads, const std::vector<AttentionSpan>& spans);

// -- Normalization & softmax -------------------------------------------------

/// Layer normalization over the last dim with affine parameters
/// gamma, beta of shape (H).
Tensor LayerNorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps = 1e-5f);
/// Softmax over the last dimension.
Tensor Softmax(const Tensor& x);

// -- Gather / concat / slice --------------------------------------------------

/// Rows of `weight` (V, H) selected by ids -> (|ids|, H). Grad scatters into
/// `weight`. Ids must be in [0, V).
Tensor EmbeddingLookup(const Tensor& weight, const std::vector<int>& ids);
/// Rows of a rank-2 tensor (n, H) selected by indices -> (|rows|, H).
Tensor GatherRows(const Tensor& x, const std::vector<int>& rows);
/// Concatenation of rank-2 tensors (n_i, H) along dim 0.
Tensor ConcatRows(const std::vector<Tensor>& xs);
/// Concatenation of two rank-2 tensors (n, a) and (n, b) -> (n, a+b).
Tensor ConcatCols(const Tensor& a, const Tensor& b);
/// Rows [begin, end) of a rank-2 tensor.
Tensor SliceRows(const Tensor& x, int64_t begin, int64_t end);

// -- Reductions & losses -------------------------------------------------------

/// Sum of all elements -> scalar.
Tensor SumAll(const Tensor& x);
/// Mean of all elements -> scalar.
Tensor MeanAll(const Tensor& x);
/// Numerically stable mean binary cross-entropy with logits:
/// mean over all elements of
///   pos_weight * y * softplus(-z) + (1-y) * softplus(z).
/// `targets` is same-shape, in [0,1], not differentiated. `pos_weight` > 1
/// counterweights sparse positives (many-type multi-label targets).
Tensor BceWithLogits(const Tensor& logits, const Tensor& targets,
                     float pos_weight = 1.0f);
/// Softmax cross-entropy with integer targets, mean over rows whose target
/// is not `ignore_index`. logits is (n, V). Returns scalar (0 if all rows
/// are ignored).
Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<int>& targets,
                              int ignore_index = -1);

// -- Non-differentiable helpers -----------------------------------------------

/// Elementwise sigmoid of values into a plain vector (inference helper).
std::vector<float> SigmoidValues(const Tensor& logits);

}  // namespace taste::tensor

#endif  // TASTE_TENSOR_OPS_H_
