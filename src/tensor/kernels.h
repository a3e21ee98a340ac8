// Raw numeric kernels over float* spans — the autograd-free bottom layer of
// the tensor substrate.
//
// Everything in this header is a pure function of its arguments: no tape,
// no TensorImpl, no allocation visible to the caller (GEMM packing scratch
// is thread-local inside kernels.cc). The autograd shell in ops.cc calls
// these for BOTH the forward pass and the backward closures, so an
// optimization here speeds up training and serving alike.
//
// Every kernel is serial. Parallelism lives above this layer: the pipeline
// runs one table per stage worker (Algorithm 1) and the replica tier runs
// one process per replica, so no kernel ever shares its work out.
//
// Determinism contract: GemmAcc accumulates each output element strictly in
// increasing-k order, seeded from C, regardless of blocking — so pipeline
// output is byte-identical whatever ExecContext (pooled or heap) is in
// effect. Stronger still, a C row's bits depend only on its own op(A) row
// and op(B) — NOT on m or on where the row sits inside M. Every row runs
// through one register band of kGemmBandRows rows: a band past the last
// live row fills its padding rows from a row of zeros, so every row, at
// every offset, runs the exact same micro-kernel instruction sequence, and
// concatenating extra rows above or below leaves existing rows bitwise
// unchanged. The band height is a property of the target ISA (8 rows under
// AVX-512, 4 otherwise); it sets how many independent accumulation chains
// run side by side, never the chain of any one element, so it cannot move
// a bit either. The packed B panel is zero-padded to a whole number of
// 16-column register tiles, so the column tail (n mod 16 columns, e.g.
// every head_dim-wide attention product) runs through the same vector tile
// as full columns; only the seeding from C and the store back touch just
// the live columns. There is no scalar remainder path for rows or columns.
//
// A non-transposed A is read in place, row by row; a transposed A is
// packed first. A non-transposed B is read in place too whenever its
// columns fill whole 16-column tiles, and packed otherwise. None of this
// changes a single product or its order, so packing does not touch the
// bits. Splitting k (kKc blocking, or a caller summing two GEMMs into one
// C) stores and reloads an exact fp32 partial sum, so it is bitwise the
// unsplit chain.
//
// Gemm is GemmAcc with an overwrite epilogue: its first k-block seeds the
// accumulators with zero instead of reading C, and its last k-block adds
// an optional bias row as it stores. A zero-filled C would have seeded the
// same +0.0, and the bias add is the same single rounding AddBias does
// after the chain, so Gemm is bitwise a zero fill, GemmAcc and a bias add,
// without the fill pass, the separate add pass or a C that must be zeroed.
//
// The anchor-only last layer and the band attention kernel rest on this
// row-stability (every other forward op is row-wise by construction;
// DESIGN.md §9). Parity with the naive GemmAccRef is 1e-5 relative, not
// bitwise: the reference's rounding differs by accumulation seeding
// (transposed variants) and by how the compiler contracts mul+add to FMA
// in each loop shape. kernels_test checks exactly this split, and
// content_attention_test's anchor-layer cases are the end-to-end proof of
// the row-stability clause.

#ifndef TASTE_TENSOR_KERNELS_H_
#define TASTE_TENSOR_KERNELS_H_

#include <cstdint>

namespace taste::tensor::kernels {

// -- GEMM ---------------------------------------------------------------------

/// Rows of C computed side by side in one register band: 8 when AVX-512 is
/// enabled and 4 otherwise. GCC vectorizes the 16-column tile as two
/// 8-float ymm halves either way (it prefers 256-bit vectors under
/// -march=native), so a band holds 2 x kGemmBandRows ymm accumulators:
/// 16 of AVX-512's 32 vector registers, or 8 of AVX2's 16, leaving room
/// for the broadcasts and the B loads.
#if defined(__AVX512F__)
inline constexpr int64_t kGemmBandRows = 8;
#else
inline constexpr int64_t kGemmBandRows = 4;
#endif

/// C += op(A) * op(B) where op(A) is (m,k) and op(B) is (k,n), C is (m,n)
/// row-major. If trans_a, A is stored as (k,m); if trans_b, B is stored as
/// (n,k). Naive triple-loop reference: kept as the parity oracle and as the
/// baseline the substrate bench compares against.
void GemmAccRef(const float* a, const float* b, float* c, int64_t m,
                int64_t n, int64_t k, bool trans_a, bool trans_b);

/// Same contract as GemmAccRef, computed with cache blocking and panel
/// packing (op(B) is packed unless it can be read in place, A only when
/// transposed, so all four variants share one register-blocked micro
/// kernel). Results match GemmAccRef to 1e-5 relative (see the determinism
/// note above).
void GemmAcc(const float* a, const float* b, float* c, int64_t m, int64_t n,
             int64_t k, bool trans_a, bool trans_b);

/// C = op(A) * op(B) (+ bias): GemmAcc's contract and bits with C's
/// contents on entry ignored, so C may be uninitialized (it is only
/// written). `bias`, when non-null, holds n floats added to every row in
/// the last k-block's store; the result is bitwise GemmAcc into a zeroed C
/// followed by a separate bias add. k == 0 stores the bias (or zeros).
void Gemm(const float* a, const float* b, const float* bias, float* c,
          int64_t m, int64_t n, int64_t k, bool trans_a, bool trans_b);

// -- Attention ----------------------------------------------------------------

/// One span of an attention block: `rows` query rows, right after the
/// previous span's, attending over the block's sm shared memory keys and
/// then its own width - sm key/value rows from `own_begin`. Query row r of
/// the span adds the `width` floats at mask + r * mask_stride: a stride of
/// width walks a rows x width mask, a stride of 0 adds one row to every
/// query row.
struct AttentionBlockSpan {
  int64_t rows = 0;
  int64_t own_begin = 0;
  const float* mask = nullptr;  // additive mask, or null
  int64_t mask_stride = 0;      // 0 or the block's width
};

/// The geometry of one (group, head) attention block. q, k, v and out rows
/// are `ld` floats apart; the block's query rows start at `query_begin`,
/// its memory key/value rows at `mem_begin`.
struct AttentionBlock {
  int64_t ld = 0;
  int64_t head_dim = 0;
  float scale = 1.0f;  // multiplies every score before the mask
  int64_t query_begin = 0;
  int64_t mem_begin = 0;
  int64_t sm = 0;     // shared memory keys
  int64_t width = 0;  // sm + every span's own keys
  const AttentionBlockSpan* spans = nullptr;
  int64_t num_spans = 0;
};

/// Overwrites the block's query rows of `out` with
/// softmax(q k^T * scale + mask) v over [memory ; own] keys, where q, k, v
/// and out point at the head's first column. Packs the memory keys and
/// values once, each span's own keys and values once, then walks the query
/// rows kGemmBandRows at a time: a band's scores (memory, then each span's
/// own), scale, mask and softmax stay in band-sized scratch tiles padded to
/// whole register tiles, and one context chain per element runs
/// P[:, :sm] V_mem then P[:, sm:] V_own. `probs`, when non-null, receives
/// the probabilities (the block's rows x width, row-major). Every score,
/// probability and context element runs the same FMA chain, seeded from 0
/// in increasing k, as GemmAcc on zeroed tiles followed by ScaleSpan,
/// AddSpan and SoftmaxRows over the whole block, so the bits do not depend
/// on the band walk.
void AttentionBlockForward(const AttentionBlock& block, const float* q,
                           const float* k, const float* v, float* probs,
                           float* out);

// -- Row-wise normalization / softmax ----------------------------------------

/// y[r] = softmax(x[r]) over `h` for each of `rows` rows (max-subtracted).
void SoftmaxRows(const float* x, float* y, int64_t rows, int64_t h);

/// dx[r] += y[r] * (dy[r] - <dy[r], y[r]>) — softmax backward, accumulating.
void SoftmaxGradRows(const float* y, const float* dy, float* dx,
                     int64_t rows, int64_t h);

/// Per-row layer normalization with affine parameters gamma/beta (length h):
/// y = gamma * xhat + beta with xhat = (x - mean) / sqrt(var + eps).
/// `xhat` (rows*h) and `inv_std` (rows) are saved for the backward pass;
/// pass null for both to skip them (inference). y is the same either way.
void LayerNormRows(const float* x, const float* gamma, const float* beta,
                   float eps, int64_t rows, int64_t h, float* y, float* xhat,
                   float* inv_std);

/// Layer-norm backward, accumulating into any non-null output:
/// dgamma[j] += sum_r dy[r,j]*xhat[r,j]; dbeta[j] += sum_r dy[r,j];
/// dx via the standard three-term normalized-input gradient.
void LayerNormGradRows(const float* gamma, const float* xhat,
                       const float* inv_std, const float* dy, int64_t rows,
                       int64_t h, float* dgamma, float* dbeta, float* dx);

// -- Activations --------------------------------------------------------------

/// y = gelu(x) (tanh approximation, as in BERT), elementwise over n.
void GeluRows(const float* x, float* y, int64_t n);
/// dx += gelu'(x) * dy, elementwise over n.
void GeluGradRows(const float* x, const float* dy, float* dx, int64_t n);

// -- Elementwise spans --------------------------------------------------------

/// y = a + b over n.
void AddSpan(const float* a, const float* b, float* y, int64_t n);
/// y = a - b over n.
void SubSpan(const float* a, const float* b, float* y, int64_t n);
/// y = a * b over n.
void MulSpan(const float* a, const float* b, float* y, int64_t n);
/// y = x * s over n.
void ScaleSpan(const float* x, float s, float* y, int64_t n);
/// dst += src over n (grad accumulation).
void AccumulateSpan(const float* src, float* dst, int64_t n);
/// dst += alpha * src over n.
void AxpySpan(float alpha, const float* src, float* dst, int64_t n);
/// dst += a * b elementwise over n (product-rule accumulation).
void MulAccumulateSpan(const float* a, const float* b, float* dst, int64_t n);

}  // namespace taste::tensor::kernels

#endif  // TASTE_TENSOR_KERNELS_H_
