#include "nn/transformer.h"

#include <cmath>

#include "common/string_util.h"

namespace taste::nn {

using tensor::Shape;

MultiHeadAttention::MultiHeadAttention(int64_t hidden, int64_t num_heads,
                                       Rng& rng)
    : hidden_(hidden),
      num_heads_(num_heads),
      head_dim_(hidden / num_heads),
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
  // Project and split heads: (s, H) -> (s, A, hd) -> (A, s, hd).
  auto split = [this](const Tensor& x, int64_t s) {
    return tensor::Permute3(
        tensor::Reshape(x, {s, num_heads_, head_dim_}), {1, 0, 2});
  };
  Tensor q = split(q_proj_.Forward(q_input), sq);    // (A, sq, hd)
  Tensor k = split(k_proj_.Forward(kv_input), skv);  // (A, skv, hd)
  Tensor v = split(v_proj_.Forward(kv_input), skv);  // (A, skv, hd)

  Tensor scores = tensor::BatchedMatMul(q, tensor::TransposeLast2(k));
  scores = tensor::Scale(scores, 1.0f / std::sqrt(static_cast<float>(head_dim_)));
  if (mask != nullptr) {
    TASTE_CHECK_MSG(mask->dim(0) == sq && mask->dim(1) == skv,
                    "attention mask shape mismatch");
    scores = tensor::AddBroadcastMat(scores, *mask);
  }
  Tensor probs = tensor::Softmax(scores);           // (A, sq, skv)
  Tensor ctx = tensor::BatchedMatMul(probs, v);     // (A, sq, hd)
  ctx = tensor::Reshape(tensor::Permute3(ctx, {1, 0, 2}), {sq, hidden_});
  return out_proj_.Forward(ctx);
}

Tensor MultiHeadAttention::ForwardSegmented(
    const Tensor& x, const std::vector<SegmentGroup>& groups,
    ExecContext* exec_ctx) const {
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

  // One GEMM each for q/k/v over all rows, viewed as (s*A, hd): row t*A + a
  // is token t's head-a slice, so GatherRows assembles any (head, segment)
  // batch entry in one copy.
  auto by_head = [this](const Tensor& t) {
    return tensor::Reshape(t, {t.dim(0) * num_heads_, head_dim_});
  };
  const Tensor kv_input = tensor::ConcatRows(kv_parts);
  const Tensor q_all = by_head(q_proj_.Forward(x));
  const Tensor k_all = by_head(k_proj_.Forward(kv_input));
  const Tensor v_all = by_head(v_proj_.Forward(kv_input));
  const float inv_sqrt_hd = 1.0f / std::sqrt(static_cast<float>(head_dim_));

  // Per group, one batch entry per (head, segment): queries (seg, hd)
  // against keys/values [memory ; own segment]. Contexts come out in
  // (head, segment, row) order; `merge_rows` maps each (token, head) slice
  // back to its row among all groups' contexts.
  std::vector<Tensor> contexts;
  contexts.reserve(groups.size());
  std::vector<int> merge_rows(static_cast<size_t>(query_rows * num_heads_));
  std::vector<int> q_rows;
  std::vector<int> kv_rows;
  int64_t memory_off = 0;
  int64_t query_off = 0;
  int64_t context_off = 0;
  for (const SegmentGroup& g : groups) {
    const int64_t n = g.segments;
    const int64_t seg = g.segment_len;
    const int64_t sm = g.memory->dim(0);
    const int64_t width = sm + seg;
    const int64_t batch = num_heads_ * n;
    q_rows.clear();
    kv_rows.clear();
    for (int64_t a = 0; a < num_heads_; ++a) {
      for (int64_t j = 0; j < n; ++j) {
        const int64_t own = query_off + j * seg;  // segment's first x row
        const int64_t entry_row = context_off + (a * n + j) * seg;
        for (int64_t r = 0; r < seg; ++r) {
          q_rows.push_back(static_cast<int>((own + r) * num_heads_ + a));
          merge_rows[static_cast<size_t>((own + r) * num_heads_ + a)] =
              static_cast<int>(entry_row + r);
        }
        for (int64_t r = 0; r < sm; ++r) {
          kv_rows.push_back(
              static_cast<int>((memory_off + r) * num_heads_ + a));
        }
        for (int64_t r = 0; r < seg; ++r) {
          kv_rows.push_back(
              static_cast<int>((memory_rows + own + r) * num_heads_ + a));
        }
      }
    }
    Tensor q = tensor::Reshape(tensor::GatherRows(q_all, q_rows),
                               {batch, seg, head_dim_});
    Tensor k = tensor::Reshape(tensor::GatherRows(k_all, kv_rows),
                               {batch, width, head_dim_});
    Tensor v = tensor::Reshape(tensor::GatherRows(v_all, kv_rows),
                               {batch, width, head_dim_});
    // (A*n, seg, width) is laid out as (A, n*seg, width): one mask row per
    // query row, shared by all heads.
    Tensor scores = tensor::BatchedMatMul(q, tensor::TransposeLast2(k));
    scores = tensor::Scale(
        tensor::Reshape(scores, {num_heads_, n * seg, width}), inv_sqrt_hd);
    scores = tensor::AddBroadcastMat(scores, *g.mask);
    Tensor probs =
        tensor::Reshape(tensor::Softmax(scores), {batch, seg, width});
    Tensor ctx = tensor::BatchedMatMul(probs, v);  // (A*n, seg, hd)
    contexts.push_back(tensor::Reshape(ctx, {batch * seg, head_dim_}));
    memory_off += sm;
    query_off += n * seg;
    context_off += batch * seg;
  }
  const Tensor merged = tensor::GatherRows(
      contexts.size() == 1 ? contexts[0] : tensor::ConcatRows(contexts),
      merge_rows);
  return out_proj_.Forward(tensor::Reshape(merged, {query_rows, hidden_}));
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

Tensor TransformerBlock::ForwardSegmented(
    const Tensor& x, const std::vector<SegmentGroup>& groups,
    ExecContext* ctx) const {
  tensor::ScopedExecContext scope(ctx);
  return Finish(x, attention_.ForwardSegmented(x, groups));
}

Tensor TransformerBlock::Finish(const Tensor& x, const Tensor& attn) const {
  Tensor dropped = tensor::Dropout(attn, dropout_, dropout_rng_, training());
  Tensor h = norm1_.Forward(tensor::Add(x, dropped));
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
