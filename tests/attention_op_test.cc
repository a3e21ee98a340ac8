// tensor::Attention against the unfused op chain it replaced. The reference
// below is that chain, written out per span: gather each head's rows,
// TransposeLast2 -> BatchedMatMul -> Scale -> AddBroadcastMat -> Softmax ->
// BatchedMatMul, then scatter the context back to the head's columns. The
// fused op must reproduce it bit for bit (memcmp), serially and on an
// intra-op pool, and must not touch the tape when gradients are off.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.h"
#include "tensor/exec_context.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace taste::tensor {
namespace {

constexpr float kBlocked = -1e9f;

/// The unfused composition for one call: per span, one BatchedMatMul batch
/// entry per head.
Tensor ReferenceAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                          int64_t heads,
                          const std::vector<AttentionSpan>& spans) {
  const int64_t hidden = q.dim(1);
  const int64_t hd = hidden / heads;
  // Row t * heads + a of the (rows * heads, hd) view is token t's head a.
  const Tensor q_view = Reshape(q, {q.dim(0) * heads, hd});
  const Tensor k_view = Reshape(k, {k.dim(0) * heads, hd});
  const Tensor v_view = Reshape(v, {v.dim(0) * heads, hd});
  Tensor out = Tensor::Zeros({q.dim(0), hidden});
  for (const AttentionSpan& s : spans) {
    const int64_t seg = s.query.rows;
    const int64_t width = s.kv[0].rows + s.kv[1].rows;
    if (seg == 0) continue;
    std::vector<int> q_rows;
    std::vector<int> kv_rows;
    for (int64_t a = 0; a < heads; ++a) {
      for (int64_t r = 0; r < seg; ++r) {
        q_rows.push_back(static_cast<int>((s.query.begin + r) * heads + a));
      }
      for (const RowRange& range : s.kv) {
        for (int64_t r = 0; r < range.rows; ++r) {
          kv_rows.push_back(static_cast<int>((range.begin + r) * heads + a));
        }
      }
    }
    const Tensor qh = Reshape(GatherRows(q_view, q_rows), {heads, seg, hd});
    const Tensor kh = Reshape(GatherRows(k_view, kv_rows), {heads, width, hd});
    const Tensor vh = Reshape(GatherRows(v_view, kv_rows), {heads, width, hd});
    Tensor scores = BatchedMatMul(qh, TransposeLast2(kh));
    scores = Scale(scores, 1.0f / std::sqrt(static_cast<float>(hd)));
    if (s.mask != nullptr) {
      scores = AddBroadcastMat(
          scores, SliceRows(*s.mask, s.mask_row, s.mask_row + seg));
    }
    const Tensor ctx = BatchedMatMul(Softmax(scores), vh);  // (A, seg, hd)
    for (int64_t a = 0; a < heads; ++a) {
      for (int64_t r = 0; r < seg; ++r) {
        std::memcpy(out.data() + (s.query.begin + r) * hidden + a * hd,
                    ctx.data() + (a * seg + r) * hd, sizeof(float) * hd);
      }
    }
  }
  return out;
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
}

/// Random additive mask with ~1/4 of the keys blocked; every row keeps at
/// least key `r % width` open, and every third row keeps only that key.
Tensor RandomMask(int64_t rows, int64_t width, Rng& rng) {
  Tensor m = Tensor::Zeros({rows, width});
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t keep = r % width;
    for (int64_t c = 0; c < width; ++c) {
      const bool blocked = r % 3 == 2 ? c != keep
                                      : c != keep && rng.NextBool(0.25);
      if (blocked) m.data()[r * width + c] = kBlocked;
    }
  }
  return m;
}

/// One column-segmented group laid out as the content tower does: query
/// rows [q_off, q_off + n*seg), keys/values = memory rows then the query
/// rows (offset by `kv_query_off`), one mask row per query row.
struct Group {
  int64_t memory_begin, memory_rows, q_off, segments, seg;
  const Tensor* mask;
};

std::vector<AttentionSpan> Segmented(const std::vector<Group>& groups,
                                     int64_t kv_query_off) {
  std::vector<AttentionSpan> spans;
  for (const Group& g : groups) {
    for (int64_t j = 0; j < g.segments; ++j) {
      AttentionSpan s;
      s.query = {g.q_off + j * g.seg, g.seg};
      s.kv[0] = {g.memory_begin, g.memory_rows};
      s.kv[1] = {kv_query_off + g.q_off + j * g.seg, g.seg};
      s.mask = g.mask;
      s.mask_row = j * g.seg;
      spans.push_back(s);
    }
  }
  return spans;
}

TEST(AttentionOpTest, SegmentedMatchesUnfusedChainBitwise) {
  int cases = 0;
  for (int64_t hd : {12, 26}) {
    for (int64_t heads : {1, 4}) {
      for (int64_t segments : {1, 3, 16}) {
        for (int64_t seg : {1, 27}) {
          for (int64_t memory : {1, 111}) {
            Rng rng(static_cast<uint64_t>(1000 + cases));
            const int64_t hidden = hd * heads;
            const int64_t rows = segments * seg;
            const Tensor q = Tensor::Randn({rows, hidden}, rng);
            const Tensor k = Tensor::Randn({memory + rows, hidden}, rng);
            const Tensor v = Tensor::Randn({memory + rows, hidden}, rng);
            const Tensor mask = RandomMask(rows, memory + seg, rng);
            const auto spans =
                Segmented({{0, memory, 0, segments, seg, &mask}}, memory);
            EXPECT_TRUE(SameBytes(Attention(q, k, v, heads, spans),
                                  ReferenceAttention(q, k, v, heads, spans)))
                << "hd=" << hd << " heads=" << heads
                << " segments=" << segments << " seg=" << seg
                << " memory=" << memory;
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 48);
}

TEST(AttentionOpTest, TwoGroupsInOneCallMatchBitwise) {
  Rng rng(7);
  const int64_t heads = 4, hd = 12, hidden = heads * hd;
  // Group 0: 3 segments of 27 over 111 memory rows; group 1: 5 segments of
  // 9 over 37. K/V rows: both memories, then all query rows.
  const int64_t rows0 = 3 * 27, rows1 = 5 * 9, memory = 111 + 37;
  const Tensor q = Tensor::Randn({rows0 + rows1, hidden}, rng);
  const Tensor k = Tensor::Randn({memory + rows0 + rows1, hidden}, rng);
  const Tensor v = Tensor::Randn({memory + rows0 + rows1, hidden}, rng);
  const Tensor mask0 = RandomMask(rows0, 111 + 27, rng);
  const Tensor mask1 = RandomMask(rows1, 37 + 9, rng);
  const auto spans = Segmented({{0, 111, 0, 3, 27, &mask0},
                                {111, 37, rows0, 5, 9, &mask1}},
                               memory);
  const Tensor both = Attention(q, k, v, heads, spans);
  EXPECT_TRUE(SameBytes(both, ReferenceAttention(q, k, v, heads, spans)));

  // Each block depends only on its own rows: group 1 alone writes the same
  // bytes into its rows.
  const std::vector<AttentionSpan> only1(spans.begin() + 3, spans.end());
  const Tensor alone = Attention(q, k, v, heads, only1);
  EXPECT_EQ(std::memcmp(both.data() + rows0 * hidden,
                        alone.data() + rows0 * hidden,
                        sizeof(float) * rows1 * hidden),
            0);
}

TEST(AttentionOpTest, DenseP1ShapeMatchesBitwise) {
  Rng rng(11);
  const int64_t heads = 4, hidden = 48, s = 111;
  const Tensor q = Tensor::Randn({s, hidden}, rng);
  const Tensor k = Tensor::Randn({s, hidden}, rng);
  const Tensor v = Tensor::Randn({s, hidden}, rng);
  const Tensor mask = RandomMask(s, s, rng);
  AttentionSpan span;
  span.query = {0, s};
  span.kv[0] = {0, s};
  for (const Tensor* m : {&mask, static_cast<const Tensor*>(nullptr)}) {
    span.mask = m;
    EXPECT_TRUE(SameBytes(Attention(q, k, v, heads, {span}),
                          ReferenceAttention(q, k, v, heads, {span})))
        << (m != nullptr ? "masked" : "unmasked");
  }
}

TEST(AttentionOpTest, CrossAttentionWithFewerQueriesMatchesBitwise) {
  Rng rng(13);
  const int64_t heads = 2, hidden = 2 * 26;
  const Tensor q = Tensor::Randn({5, hidden}, rng);
  const Tensor k = Tensor::Randn({29, hidden}, rng);
  const Tensor v = Tensor::Randn({29, hidden}, rng);
  const Tensor mask = RandomMask(8, 20, rng);
  AttentionSpan span;
  span.query = {1, 3};          // rows 0 and 4 stay zero
  span.kv[0] = {2, 13};
  span.kv[1] = {22, 7};
  span.mask = &mask;
  span.mask_row = 4;
  const Tensor out = Attention(q, k, v, heads, {span});
  EXPECT_TRUE(SameBytes(out, ReferenceAttention(q, k, v, heads, {span})));
  for (int64_t c = 0; c < hidden; ++c) {
    EXPECT_EQ(out.data()[c], 0.0f);
    EXPECT_EQ(out.data()[4 * hidden + c], 0.0f);
  }
}

TEST(AttentionOpTest, IntraOpPoolMatchesSerialBitwise) {
  Rng rng(17);
  const int64_t heads = 4, hd = 26, hidden = heads * hd;
  const int64_t segments = 16, seg = 27, memory = 111;
  const int64_t rows = segments * seg;
  const Tensor q = Tensor::Randn({rows, hidden}, rng);
  const Tensor k = Tensor::Randn({memory + rows, hidden}, rng);
  const Tensor v = Tensor::Randn({memory + rows, hidden}, rng);
  const Tensor mask = RandomMask(rows, memory + seg, rng);
  const auto spans =
      Segmented({{0, memory, 0, segments, seg, &mask}}, memory);
  const Tensor serial = Attention(q, k, v, heads, spans);

  ExecContext::Options opt;
  opt.intra_op_threads = 4;
  opt.profile = true;
  ExecContext ctx(opt);
  ASSERT_NE(ctx.intra_pool(), nullptr);
  Tensor pooled;
  {
    ScopedExecContext bind(&ctx);
    pooled = Attention(q, k, v, heads, spans);
  }
  EXPECT_TRUE(SameBytes(pooled, serial));
  const ExecStats st = ctx.stats();
  EXPECT_EQ(st.attention.calls, 1);
  EXPECT_EQ(st.gemm.calls, 0);  // the products run inside the op
  EXPECT_EQ(st.softmax.calls, 0);
}

TEST(AttentionOpTest, NoTapeUnderNoGradGuard) {
  Rng rng(19);
  const Tensor q = Tensor::Randn({6, 8}, rng, 1.0f, /*requires_grad=*/true);
  const Tensor k = Tensor::Randn({9, 8}, rng, 1.0f, true);
  const Tensor v = Tensor::Randn({9, 8}, rng, 1.0f, true);
  AttentionSpan span;
  span.query = {0, 6};
  span.kv[0] = {0, 9};
  {
    NoGradGuard guard;
    const int64_t before = GradEdgesRecorded();
    const Tensor out = Attention(q, k, v, 2, {span});
    EXPECT_EQ(GradEdgesRecorded(), before);
    EXPECT_FALSE(out.requires_grad());
  }
  const int64_t before = GradEdgesRecorded();
  const Tensor out = Attention(q, k, v, 2, {span});
  EXPECT_EQ(GradEdgesRecorded(), before + 1);  // one edge for the whole op
  EXPECT_TRUE(out.requires_grad());
}

TEST(AttentionOpTest, EmptyInputs) {
  Rng rng(23);
  const Tensor q = Tensor::Randn({3, 4}, rng);
  const Tensor k = Tensor::Randn({5, 4}, rng);
  // No spans, and a span with no queries: output stays zero.
  AttentionSpan empty;
  empty.kv[0] = {0, 5};
  for (const auto& spans :
       {std::vector<AttentionSpan>{}, std::vector<AttentionSpan>{empty}}) {
    const Tensor out = Attention(q, k, k, 2, spans);
    ASSERT_EQ(out.shape(), (Shape{3, 4}));
    for (int64_t i = 0; i < out.numel(); ++i) EXPECT_EQ(out.data()[i], 0.0f);
  }
  const Tensor none = Tensor::Zeros({0, 4});
  EXPECT_EQ(Attention(none, k, k, 2, {empty}).numel(), 0);
}

}  // namespace
}  // namespace taste::tensor
