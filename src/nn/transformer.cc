#include "nn/transformer.h"

#include "common/string_util.h"

namespace taste::nn {

namespace {

/// The row of x at which each segment of `group` starts, in segment order.
std::vector<int> SegmentFirstRows(const SegmentGroup& group) {
  std::vector<int> rows;
  rows.reserve(static_cast<size_t>(group.segments));
  for (int64_t j = 0; j < group.segments; ++j) {
    rows.push_back(static_cast<int>(j * group.segment_len));
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
  tensor::AttentionSpan span;
  span.query = {0, sq};
  span.kv[0] = {0, skv};
  if (mask != nullptr) {
    TASTE_CHECK_MSG((mask->dim(0) == sq || mask->dim(0) == 1) &&
                        mask->dim(1) == skv,
                    "attention mask shape mismatch");
    span.mask = mask;
    span.shared_mask_row = mask->dim(0) == 1;
  }
  const Tensor q = q_proj_.Forward(q_input);
  const Tensor k = k_proj_.Forward(kv_input);
  const Tensor v = v_proj_.Forward(kv_input);
  return out_proj_.Forward(tensor::Attention(q, k, v, num_heads_, {span}));
}

Tensor MultiHeadAttention::ForwardSegmented(const Tensor& x,
                                            const SegmentGroup& group,
                                            SegmentQueries queries,
                                            ExecContext* exec_ctx) const {
  tensor::ScopedExecContext scope(exec_ctx);
  TASTE_CHECK(group.memory != nullptr && group.mask != nullptr &&
              group.segments > 0 && group.segment_len > 0);
  const int64_t sm = group.memory->dim(0);
  const int64_t query_rows = group.segments * group.segment_len;
  TASTE_CHECK_MSG(group.mask->dim(0) == group.segments &&
                      group.mask->dim(1) == sm + group.segment_len,
                  "segment mask shape mismatch");
  TASTE_CHECK_MSG(x.dim(0) == query_rows,
                  "query rows must equal the group's segment rows");

  // One span per segment: its query rows attend over [memory ; its own
  // rows] of the key/value rows [memory ; x], each with the segment's mask
  // row. A first-row span is query row j alone (segment j's first row,
  // gathered below).
  const bool first_rows = queries == SegmentQueries::kFirstRows;
  std::vector<tensor::AttentionSpan> spans;
  spans.reserve(static_cast<size_t>(group.segments));
  for (int64_t j = 0; j < group.segments; ++j) {
    const int64_t own = j * group.segment_len;
    tensor::AttentionSpan span;
    span.query = first_rows ? tensor::RowRange{j, 1}
                            : tensor::RowRange{own, group.segment_len};
    span.kv[0] = {0, sm};
    span.kv[1] = {sm + own, group.segment_len};
    span.mask = group.mask;
    span.mask_row = j;
    span.shared_mask_row = true;
    spans.push_back(span);
  }
  const Tensor kv_input = tensor::ConcatRows({*group.memory, x});
  const Tensor q = QueryProjection(x, first_rows ? SegmentFirstRows(group)
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
  // One span over every query row and key, with a (1, s) mask's one row
  // or the rows' part of an (s, s) mask.
  Tensor row_mask;
  tensor::AttentionSpan span;
  span.query = {0, n};
  span.kv[0] = {0, s};
  if (mask != nullptr) {
    TASTE_CHECK_MSG((mask->dim(0) == s || mask->dim(0) == 1) &&
                        mask->dim(1) == s,
                    "attention mask shape mismatch");
    if (mask->dim(0) == 1) {
      span.mask = mask;
      span.shared_mask_row = true;
    } else {
      row_mask = tensor::GatherRows(*mask, rows);
      span.mask = &row_mask;
    }
  }
  const Tensor q = QueryProjection(x, rows);
  const Tensor k = k_proj_.Forward(x);
  const Tensor v = v_proj_.Forward(x);
  return out_proj_.Forward(tensor::Attention(q, k, v, num_heads_, {span}));
}

Tensor MultiHeadAttention::QueryProjection(const Tensor& x,
                                           const std::vector<int>& rows) const {
  if (rows.empty()) return q_proj_.Forward(x);
  // Without a tape, only the rows a query reads are projected: the
  // projection is row-stable (fp32 GEMM and per-row int8 alike), so each
  // row's bits are those of projecting every row.
  if (!tensor::GradEnabled()) {
    return q_proj_.Forward(tensor::GatherRows(x, rows));
  }
  // A recorded forward projects every row and then gathers. That costs the
  // rows no query reads, but keeps training bitwise: the projection's
  // backward then accumulates x's gradient in one GEMM seeded with what the
  // residual and keys/values put there, as the layer over all rows does.
  // Gathering x first would add a separately rounded sum instead.
  return tensor::GatherRows(q_proj_.Forward(x), rows);
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

Tensor TransformerBlock::ForwardSegmented(const Tensor& x,
                                          const SegmentGroup& group,
                                          SegmentQueries queries,
                                          ExecContext* ctx) const {
  tensor::ScopedExecContext scope(ctx);
  const Tensor attn = attention_.ForwardSegmented(x, group, queries);
  if (queries == SegmentQueries::kAllRows) return Finish(x, attn);
  const std::vector<int> rows = SegmentFirstRows(group);
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
