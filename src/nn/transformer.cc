#include "nn/transformer.h"

#include "common/string_util.h"

namespace taste::nn {

namespace {

/// The row of x at which each segment of `groups` starts, in segment
/// order.
std::vector<int> SegmentFirstRows(const std::vector<SegmentGroup>& groups) {
  std::vector<int> rows;
  int64_t off = 0;
  for (const SegmentGroup& g : groups) {
    for (int64_t j = 0; j < g.segments; ++j) {
      rows.push_back(static_cast<int>(off + j * g.segment_len));
    }
    off += g.segments * g.segment_len;
  }
  return rows;
}

}  // namespace

MultiHeadAttention::MultiHeadAttention(int64_t hidden, int64_t num_heads,
                                       Rng& rng)
    : num_heads_(num_heads),
      q_proj_(hidden, hidden, rng),
      k_proj_(hidden, hidden, rng),
      v_proj_(hidden, hidden, rng),
      out_proj_(hidden, hidden, rng) {
  TASTE_CHECK_MSG(hidden % num_heads == 0,
                  "hidden size must be divisible by num_heads");
  RegisterModule("q", &q_proj_);
  RegisterModule("k", &k_proj_);
  RegisterModule("v", &v_proj_);
  RegisterModule("out", &out_proj_);
}

Tensor MultiHeadAttention::Forward(const Tensor& q_input,
                                   const Tensor& kv_input, const Tensor* mask,
                                   ExecContext* exec_ctx) const {
  tensor::ScopedExecContext scope(exec_ctx);
  const int64_t sq = q_input.dim(0);
  const int64_t skv = kv_input.dim(0);
  if (mask != nullptr) {
    TASTE_CHECK_MSG(mask->dim(0) == sq && mask->dim(1) == skv,
                    "attention mask shape mismatch");
  }
  tensor::AttentionSpan span;
  span.query = {0, sq};
  span.kv[0] = {0, skv};
  span.mask = mask;
  const Tensor q = q_proj_.Forward(q_input);
  const Tensor k = k_proj_.Forward(kv_input);
  const Tensor v = v_proj_.Forward(kv_input);
  return out_proj_.Forward(tensor::Attention(q, k, v, num_heads_, {span}));
}

Tensor MultiHeadAttention::ForwardSegmented(
    const Tensor& x, const std::vector<SegmentGroup>& groups,
    SegmentQueries queries, ExecContext* exec_ctx) const {
  tensor::ScopedExecContext scope(exec_ctx);
  TASTE_CHECK(!groups.empty());
  // Key/value rows: every group's memory, then x.
  std::vector<Tensor> kv_parts;
  kv_parts.reserve(groups.size() + 1);
  int64_t memory_rows = 0;
  int64_t query_rows = 0;
  for (const SegmentGroup& g : groups) {
    TASTE_CHECK(g.memory != nullptr && g.mask != nullptr && g.segments > 0 &&
                g.segment_len > 0);
    TASTE_CHECK_MSG(g.mask->dim(0) == g.segments * g.segment_len &&
                        g.mask->dim(1) == g.memory->dim(0) + g.segment_len,
                    "segment mask shape mismatch");
    kv_parts.push_back(*g.memory);
    memory_rows += g.memory->dim(0);
    query_rows += g.segments * g.segment_len;
  }
  TASTE_CHECK_MSG(x.dim(0) == query_rows,
                  "query rows must equal the groups' segment rows");
  kv_parts.push_back(x);

  // One span per segment: its query rows attend over [its group's memory ;
  // its own rows] of the key/value rows, with its rows of the group mask.
  // A first-row span is query row i alone (segment i's first row, gathered
  // below), with the mask row of that first row.
  const bool first_rows = queries == SegmentQueries::kFirstRows;
  std::vector<tensor::AttentionSpan> spans;
  int64_t memory_off = 0;
  int64_t query_off = 0;
  for (const SegmentGroup& g : groups) {
    const int64_t sm = g.memory->dim(0);
    for (int64_t j = 0; j < g.segments; ++j) {
      const int64_t own = query_off + j * g.segment_len;
      tensor::AttentionSpan span;
      span.query = first_rows
                       ? tensor::RowRange{static_cast<int64_t>(spans.size()), 1}
                       : tensor::RowRange{own, g.segment_len};
      span.kv[0] = {memory_off, sm};
      span.kv[1] = {memory_rows + own, g.segment_len};
      span.mask = g.mask;
      span.mask_row = j * g.segment_len;
      spans.push_back(span);
    }
    memory_off += sm;
    query_off += g.segments * g.segment_len;
  }
  const Tensor kv_input = tensor::ConcatRows(kv_parts);
  const Tensor q = QueryProjection(x, first_rows ? SegmentFirstRows(groups)
                                                 : std::vector<int>{});
  const Tensor k = k_proj_.Forward(kv_input);
  const Tensor v = v_proj_.Forward(kv_input);
  return out_proj_.Forward(tensor::Attention(q, k, v, num_heads_, spans));
}

Tensor MultiHeadAttention::ForwardRows(const Tensor& x,
                                       const std::vector<int>& rows,
                                       const Tensor* mask,
                                       ExecContext* exec_ctx) const {
  tensor::ScopedExecContext scope(exec_ctx);
  const int64_t s = x.dim(0);
  const int64_t n = static_cast<int64_t>(rows.size());
  // The rows' part of the mask; one span over every query row and key.
  Tensor row_mask;
  tensor::AttentionSpan span;
  span.query = {0, n};
  span.kv[0] = {0, s};
  if (mask != nullptr) {
    TASTE_CHECK_MSG(mask->dim(0) == s && mask->dim(1) == s,
                    "attention mask shape mismatch");
    row_mask = tensor::GatherRows(*mask, rows);
    span.mask = &row_mask;
  }
  const Tensor q = QueryProjection(x, rows);
  const Tensor k = k_proj_.Forward(x);
  const Tensor v = v_proj_.Forward(x);
  return out_proj_.Forward(tensor::Attention(q, k, v, num_heads_, {span}));
}

Tensor MultiHeadAttention::QueryProjection(const Tensor& x,
                                           const std::vector<int>& rows) const {
  const Tensor q = q_proj_.Forward(x);
  // Projecting every row and then gathering costs the rows no query reads,
  // but keeps training bitwise: the projection's backward then accumulates
  // x's gradient in one GEMM seeded with what the residual and keys/values
  // put there, as the layer over all rows does. Gathering x first would
  // add a separately rounded sum instead.
  return rows.empty() ? q : tensor::GatherRows(q, rows);
}

FeedForward::FeedForward(int64_t hidden, int64_t intermediate, Rng& rng)
    : up_(hidden, intermediate, rng), down_(intermediate, hidden, rng) {
  RegisterModule("up", &up_);
  RegisterModule("down", &down_);
}

Tensor FeedForward::Forward(const Tensor& x, ExecContext* ctx) const {
  tensor::ScopedExecContext scope(ctx);
  return down_.Forward(tensor::Gelu(up_.Forward(x)));
}

int64_t FeedForward::PrepackQuant() {
  return up_.PrepackQuant() + down_.PrepackQuant();
}

int64_t MultiHeadAttention::PrepackQuant() {
  return q_proj_.PrepackQuant() + k_proj_.PrepackQuant() +
         v_proj_.PrepackQuant() + out_proj_.PrepackQuant();
}

TransformerBlock::TransformerBlock(int64_t hidden, int64_t num_heads,
                                   int64_t intermediate, float dropout,
                                   Rng& rng)
    : attention_(hidden, num_heads, rng),
      ffn_(hidden, intermediate, rng),
      norm1_(hidden),
      norm2_(hidden),
      dropout_(dropout),
      dropout_rng_(rng.NextU64()) {
  RegisterModule("attn", &attention_);
  RegisterModule("ffn", &ffn_);
  RegisterModule("norm1", &norm1_);
  RegisterModule("norm2", &norm2_);
}

Tensor TransformerBlock::Forward(const Tensor& x, const Tensor* mask,
                                 ExecContext* ctx) const {
  return Forward(x, x, mask, ctx);
}

Tensor TransformerBlock::Forward(const Tensor& q_input, const Tensor& kv_input,
                                 const Tensor* mask, ExecContext* ctx) const {
  tensor::ScopedExecContext scope(ctx);
  return Finish(q_input, attention_.Forward(q_input, kv_input, mask));
}

Tensor TransformerBlock::ForwardRows(const Tensor& x,
                                     const std::vector<int>& rows,
                                     const Tensor* mask,
                                     ExecContext* ctx) const {
  tensor::ScopedExecContext scope(ctx);
  return Finish(x, attention_.ForwardRows(x, rows, mask), &rows);
}

Tensor TransformerBlock::ForwardSegmented(
    const Tensor& x, const std::vector<SegmentGroup>& groups,
    SegmentQueries queries, ExecContext* ctx) const {
  tensor::ScopedExecContext scope(ctx);
  const Tensor attn = attention_.ForwardSegmented(x, groups, queries);
  if (queries == SegmentQueries::kAllRows) return Finish(x, attn);
  const std::vector<int> rows = SegmentFirstRows(groups);
  return Finish(x, attn, &rows);
}

Tensor TransformerBlock::Finish(const Tensor& x, const Tensor& attn,
                                const std::vector<int>* rows) const {
  Tensor dropped = tensor::Dropout(attn, dropout_, dropout_rng_, training());
  // A row subset's residual is its own gather, added as the second operand
  // (the sum's bits are the same either way). Backward visits the tape
  // depth-first in operand order, so the residual's gradient then reaches
  // x before the key/value and query gradients do, the order in which a
  // layer over all rows accumulates them: training steps through the
  // subset are bitwise those through all rows.
  Tensor h = norm1_.Forward(
      rows == nullptr ? tensor::Add(x, dropped)
                      : tensor::Add(dropped, tensor::GatherRows(x, *rows)));
  Tensor ff = ffn_.Forward(h);
  ff = tensor::Dropout(ff, dropout_, dropout_rng_, training());
  return norm2_.Forward(tensor::Add(h, ff));
}

int64_t TransformerBlock::PrepackQuant() {
  return attention_.PrepackQuant() + ffn_.PrepackQuant();
}

TransformerEncoder::TransformerEncoder(const EncoderConfig& config, Rng& rng)
    : config_(config) {
  TASTE_CHECK(config.num_layers > 0);
  blocks_.reserve(config.num_layers);
  for (int64_t i = 0; i < config.num_layers; ++i) {
    blocks_.push_back(std::make_unique<TransformerBlock>(
        config.hidden, config.num_heads, config.intermediate, config.dropout,
        rng));
    RegisterModule(StrFormat("layer%d", static_cast<int>(i)),
                   blocks_.back().get());
  }
}

Tensor TransformerEncoder::Forward(const Tensor& x, const Tensor* mask,
                                   ExecContext* ctx) const {
  tensor::ScopedExecContext scope(ctx);
  Tensor h = x;
  for (const auto& block : blocks_) h = block->Forward(h, mask);
  return h;
}

int64_t TransformerEncoder::PrepackQuant() {
  int64_t bytes = 0;
  for (const auto& block : blocks_) bytes += block->PrepackQuant();
  return bytes;
}

}  // namespace taste::nn
