// Transformer encoder building blocks: multi-head attention (self-,
// cross- and column-segmented), position-wise feed-forward, and the
// post-LN encoder block.
//
// The ADTD content tower (paper Sec. 4.2.3) attends with Q = content
// latents and K = V = concat(metadata latents, content latents), where a
// content token may only see the metadata and its own column's tokens
// (Sec. 6.4). ForwardSegmented computes exactly that: the content rows
// are equal-length column segments, and segment j's queries attend over
// [K_meta ; K_c[j]] and [V_meta ; V_c[j]] — (seg, sm+seg) scores per
// segment instead of a dense (sc, sm+sc) score matrix whose other-column
// entries a mask would zero. The q/k/v/out projections still run as one
// GEMM each over all rows, and the metadata rows are projected once per
// layer, not once per column. Both attention forms then hand the projected
// rows to one op, tensor::Attention, as spans: the dense form is one span,
// the segmented form one span per segment.
//
// The segmented form can also compute each segment's first row alone
// (SegmentQueries::kFirstRows). The content tower's last layer is read
// only at the column anchors, which are the segments' first rows, and an
// attention output row depends only on its own query row and the keys;
// every op after attention is row-wise.

#ifndef TASTE_NN_TRANSFORMER_H_
#define TASTE_NN_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace taste::nn {

/// A run of equal-length segments that share a key/value memory. Its
/// `segments * segment_len` input rows are consecutive; segment j's queries
/// attend over [memory ; its own rows], each adding row j of `mask` to its
/// scores. Pointees must outlive the call.
struct SegmentGroup {
  const Tensor* memory = nullptr;  // (sm, H) keys/values every segment sees
  const Tensor* mask = nullptr;    // (segments, sm+segment_len)
  int64_t segments = 0;
  int64_t segment_len = 0;
};

/// The query rows of the segmented form: every input row, or only each
/// segment's first row (its keys and values are still the whole segment).
enum class SegmentQueries { kAllRows, kFirstRows };

/// Multi-head scaled-dot-product attention.
class MultiHeadAttention : public Module {
 public:
  /// `hidden` must be divisible by `num_heads`.
  MultiHeadAttention(int64_t hidden, int64_t num_heads, Rng& rng);

  /// q_input (sq, H), kv_input (skv, H), optional additive mask (sq, skv)
  /// with 0 for attendable and a large negative value for masked positions,
  /// or (1, skv) when every query row sees the same keys: its one row is
  /// added to every query row, bitwise the (sq, skv) mask of that row
  /// repeated. Returns (sq, H).
  Tensor Forward(const Tensor& q_input, const Tensor& kv_input,
                 const Tensor* mask = nullptr,
                 ExecContext* ctx = nullptr) const;

  /// Column-segmented form: x (segments*segment_len, H) holds the group's
  /// segment rows (see SegmentGroup). Every segment attends over the
  /// group's memory and its own rows only, so no attention crosses a
  /// segment. Returns (x.rows, H) for kAllRows, and for kFirstRows one row
  /// per segment, in segment order: bitwise the first rows of the kAllRows
  /// result, since each segment is its own tensor::Attention span whose
  /// rows depend on nothing else.
  Tensor ForwardSegmented(const Tensor& x, const SegmentGroup& group,
                          SegmentQueries queries = SegmentQueries::kAllRows,
                          ExecContext* ctx = nullptr) const;

  /// Self-attention over x (s, H) computed for `rows` only: each of those
  /// rows attends over every row of x, with its row of the optional
  /// (s, s) mask, or the one row of a (1, s) mask. Returns
  /// (rows.size(), H), bitwise those rows of Forward(x, x, mask).
  Tensor ForwardRows(const Tensor& x, const std::vector<int>& rows,
                     const Tensor* mask = nullptr,
                     ExecContext* ctx = nullptr) const;

  int64_t num_heads() const { return num_heads_; }

  /// Prepacks the q/k/v/out projections for the int8 inference path. The
  /// score and context matmuls (activation × activation) stay fp32.
  /// Returns packed resident bytes (as do the other PrepackQuant below).
  int64_t PrepackQuant();

 private:
  /// q_proj of `rows` of x (all rows when empty). Without a tape it
  /// projects only those rows; a recorded forward projects every row and
  /// gathers, which keeps training bitwise.
  Tensor QueryProjection(const Tensor& x, const std::vector<int>& rows) const;

  int64_t num_heads_;
  Linear q_proj_;
  Linear k_proj_;
  Linear v_proj_;
  Linear out_proj_;
};

/// Position-wise feed-forward: Linear(H->I) -> GELU -> Linear(I->H).
class FeedForward : public Module {
 public:
  FeedForward(int64_t hidden, int64_t intermediate, Rng& rng);
  Tensor Forward(const Tensor& x, ExecContext* ctx = nullptr) const;

  /// Prepacks both projections for the int8 inference path.
  int64_t PrepackQuant();

 private:
  Linear up_;
  Linear down_;
};

/// One post-LayerNorm (BERT-style) Transformer encoder block. The same
/// block instance serves both ADTD towers — shared parameters, two
/// dataflows.
class TransformerBlock : public Module {
 public:
  TransformerBlock(int64_t hidden, int64_t num_heads, int64_t intermediate,
                   float dropout, Rng& rng);

  /// Self-attention form: kv = q.
  Tensor Forward(const Tensor& x, const Tensor* mask = nullptr,
                 ExecContext* ctx = nullptr) const;

  /// General (cross-attention-capable) form. q_input (sq, H) is also the
  /// residual stream; kv_input (skv, H) feeds keys/values.
  Tensor Forward(const Tensor& q_input, const Tensor& kv_input,
                 const Tensor* mask, ExecContext* ctx = nullptr) const;

  /// Self-attention form computed for `rows` of x only (see
  /// MultiHeadAttention::ForwardRows). Returns (rows.size(), H), bitwise
  /// those rows of Forward(x, mask); without dropout a training step's
  /// gradients through it are bitwise the full form's too (see Finish).
  Tensor ForwardRows(const Tensor& x, const std::vector<int>& rows,
                     const Tensor* mask = nullptr,
                     ExecContext* ctx = nullptr) const;

  /// Column-segmented form (see MultiHeadAttention::ForwardSegmented);
  /// x's query rows are also the residual stream. kFirstRows returns
  /// bitwise the first rows of kAllRows, and without dropout a training
  /// step's gradients through it are bitwise those through kAllRows (see
  /// Finish).
  Tensor ForwardSegmented(const Tensor& x, const SegmentGroup& group,
                          SegmentQueries queries = SegmentQueries::kAllRows,
                          ExecContext* ctx = nullptr) const;

  /// Prepacks attention + FFN Linears for the int8 inference path.
  int64_t PrepackQuant();

 private:
  /// Dropout + residual + norm1, FFN, dropout + residual + norm2. The
  /// residual is x, or its `rows` when given.
  Tensor Finish(const Tensor& x, const Tensor& attn,
                const std::vector<int>* rows = nullptr) const;

  MultiHeadAttention attention_;
  FeedForward ffn_;
  LayerNorm norm1_;
  LayerNorm norm2_;
  float dropout_;
  mutable Rng dropout_rng_;
};

/// Configuration of a BERT-style encoder stack (paper Sec. 2.3 notation).
struct EncoderConfig {
  int64_t num_layers = 2;       // L
  int64_t num_heads = 4;        // A
  int64_t max_seq_len = 512;    // Wmax
  int64_t intermediate = 256;   // I
  int64_t hidden = 64;          // H
  float dropout = 0.0f;

  /// The paper's TinyBERT-scale configuration (Sec. 4.2.1): L=4, A=12,
  /// Wmax=512, I=1200, H=312 (~14.5M parameters with vocab).
  static EncoderConfig Paper() {
    return {.num_layers = 4,
            .num_heads = 12,
            .max_seq_len = 512,
            .intermediate = 1200,
            .hidden = 312,
            .dropout = 0.1f};
  }
};

/// A stack of TransformerBlocks with shared ownership semantics: blocks are
/// addressable individually so two dataflows (the ADTD towers) can run over
/// the same parameters layer by layer.
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(const EncoderConfig& config, Rng& rng);

  /// Plain self-attention encoding of x (s, H) through all layers.
  Tensor Forward(const Tensor& x, const Tensor* mask = nullptr,
                 ExecContext* ctx = nullptr) const;

  int64_t num_layers() const { return static_cast<int64_t>(blocks_.size()); }
  const TransformerBlock& block(int64_t i) const { return *blocks_[i]; }
  const EncoderConfig& config() const { return config_; }

  /// Prepacks every block's Linears for the int8 inference path.
  int64_t PrepackQuant();

 private:
  EncoderConfig config_;
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
};

}  // namespace taste::nn

#endif  // TASTE_NN_TRANSFORMER_H_
