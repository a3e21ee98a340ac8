// tensor::Attention against the unfused op chain it replaced. The reference
// below is that chain, written out per span: gather each head's rows,
// TransposeLast2 -> BatchedMatMul -> Scale -> AddBroadcastMat -> Softmax ->
// BatchedMatMul, then scatter the context back to the head's columns. The
// fused op must reproduce it bit for bit (memcmp), with or without an
// ExecContext bound, and must not touch the tape when gradients are off.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
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

TEST(AttentionOpTest, ProfiledContextMatchesUnboundBitwise) {
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
  const Tensor unbound = Attention(q, k, v, heads, spans);

  ExecContext ctx({.profile = true});
  Tensor bound;
  {
    ScopedExecContext bind(&ctx);
    bound = Attention(q, k, v, heads, spans);
  }
  EXPECT_TRUE(SameBytes(bound, unbound));
  const ExecStats st = ctx.stats();
  EXPECT_EQ(st.attention.calls, 1);
  EXPECT_EQ(st.gemm.calls, 0);  // the products run inside the op
  EXPECT_EQ(st.softmax.calls, 0);
}

/// The op's output, unbound and under a bound context whose buffer pool
/// hands it a NaN-filled recycled output buffer, must equal the unfused
/// chain's bytes.
void ExpectMatchesReference(const Tensor& q, const Tensor& k, const Tensor& v,
                            int64_t heads,
                            const std::vector<AttentionSpan>& spans,
                            const char* what) {
  const Tensor want = ReferenceAttention(q, k, v, heads, spans);
  EXPECT_TRUE(SameBytes(Attention(q, k, v, heads, spans), want))
      << what << " (unbound)";
  ExecContext ctx;
  ctx.buffer_pool()->Release(
      std::vector<float>(static_cast<size_t>(q.numel()), std::nanf("")));
  ScopedExecContext bind(&ctx);
  EXPECT_TRUE(SameBytes(Attention(q, k, v, heads, spans), want))
      << what << " (pooled)";
  EXPECT_EQ(ctx.stats().pool.reuses, 1) << what;
}

/// Anchor-form spans of one group: segment j's first query row is row
/// q_off + j; it attends over the memory and segment j's own rows (at
/// kv_own + j * seg), with mask row j * seg. The mask rows are not
/// contiguous, so each span must add its own.
std::vector<AttentionSpan> Anchors(int64_t q_off, int64_t memory_begin,
                                   int64_t memory_rows, int64_t kv_own,
                                   int64_t segments, int64_t seg,
                                   const Tensor* mask) {
  std::vector<AttentionSpan> spans;
  for (int64_t j = 0; j < segments; ++j) {
    AttentionSpan s;
    s.query = {q_off + j, 1};
    s.kv[0] = {memory_begin, memory_rows};
    s.kv[1] = {kv_own + j * seg, seg};
    s.mask = mask;
    s.mask_row = j * seg;
    spans.push_back(s);
  }
  return spans;
}

TEST(AttentionOpTest, SpanListsThatBreakGroupingMatchBitwise) {
  // Consecutive spans form one (group, head) block only when they share
  // kv[0], the mask and the width and their query rows are contiguous.
  // Each list below breaks or stresses one of those conditions.
  Rng rng(29);
  const int64_t heads = 4, hidden = 4 * 12;
  const Tensor q = Tensor::Randn({64, hidden}, rng);
  const Tensor k = Tensor::Randn({160, hidden}, rng);
  const Tensor v = Tensor::Randn({160, hidden}, rng);
  const Tensor mask = RandomMask(40, 30 + 6, rng);
  const Tensor other_mask = RandomMask(40, 30 + 6, rng);
  const Tensor wide_mask = RandomMask(40, 45 + 9, rng);
  auto span = [](RowRange query, RowRange kv0, RowRange kv1,
                 const Tensor* m, int64_t mask_row) {
    AttentionSpan s;
    s.query = query;
    s.kv[0] = kv0;
    s.kv[1] = kv1;
    s.mask = m;
    s.mask_row = mask_row;
    return s;
  };
  struct Case {
    const char* what;
    std::vector<AttentionSpan> spans;
  };
  const std::vector<Case> cases = {
      {"non-contiguous query rows",
       {span({0, 6}, {0, 30}, {100, 6}, &mask, 0),
        span({8, 6}, {0, 30}, {106, 6}, &mask, 6),
        span({14, 6}, {0, 30}, {112, 6}, &mask, 12)}},
      {"consecutive spans with different kv[0]",
       {span({0, 6}, {0, 30}, {100, 6}, &mask, 0),
        span({6, 6}, {2, 30}, {106, 6}, &mask, 6),
        span({12, 6}, {2, 30}, {112, 6}, &mask, 12)}},
      {"consecutive spans with different masks",
       {span({0, 6}, {0, 30}, {100, 6}, &mask, 0),
        span({6, 6}, {0, 30}, {106, 6}, &other_mask, 6),
        span({12, 6}, {0, 30}, {112, 6}, nullptr, 0)}},
      {"0-row spans inside a run",
       {span({0, 6}, {0, 30}, {100, 6}, &mask, 0),
        span({6, 0}, {0, 30}, {106, 6}, &mask, 6),
        span({6, 6}, {0, 30}, {106, 6}, &mask, 12),
        span({50, 0}, {0, 30}, {112, 6}, &mask, 18),
        span({12, 6}, {0, 30}, {118, 6}, &mask, 24)}},
      {"empty kv[0]",
       {span({0, 6}, {0, 0}, {100, 6}, nullptr, 0),
        span({6, 6}, {0, 0}, {106, 6}, nullptr, 0),
        span({12, 1}, {0, 0}, {112, 6}, nullptr, 0)}},
      {"empty kv[1]",
       {span({0, 5}, {10, 36}, {0, 0}, &mask, 0),
        span({5, 7}, {10, 36}, {0, 0}, &mask, 5),
        span({12, 3}, {10, 36}, {0, 0}, &mask, 21)}},
      {"anchor form",
       Anchors(3, 0, 30, 100, 6, 6, &mask)},
      {"two items of different widths",
       [&] {
         std::vector<AttentionSpan> a = Anchors(0, 0, 30, 100, 5, 6, &mask);
         const std::vector<AttentionSpan> b =
             Anchors(5, 30, 45, 130, 3, 9, &wide_mask);
         a.insert(a.end(), b.begin(), b.end());
         for (int64_t j = 0; j < 3; ++j) {
           a.push_back(span({8 + 6 * j, 6}, {30, 45}, {130 + 9 * j, 9},
                            &wide_mask, 9 * j));
         }
         return a;
       }()},
  };
  for (const Case& c : cases) {
    ExpectMatchesReference(q, k, v, heads, c.spans, c.what);
  }
}

TEST(AttentionOpTest, PooledAnchorGroupsMatchBitwise) {
  // Two tables' anchor rows in one call, 64 and 40 columns over 130 and
  // 111 memory rows: two groups of many single-row spans each, unbound and
  // under a pooled context.
  Rng rng(31);
  const int64_t heads = 4, hd = 26, hidden = heads * hd, seg = 27;
  const int64_t memory = 130 + 111, own = (64 + 40) * seg;
  const Tensor q = Tensor::Randn({64 + 40, hidden}, rng);
  const Tensor k = Tensor::Randn({memory + own, hidden}, rng);
  const Tensor v = Tensor::Randn({memory + own, hidden}, rng);
  const Tensor mask0 = RandomMask(64 * seg, 130 + seg, rng);
  const Tensor mask1 = RandomMask(40 * seg, 111 + seg, rng);
  std::vector<AttentionSpan> spans =
      Anchors(0, 0, 130, memory, 64, seg, &mask0);
  const std::vector<AttentionSpan> second =
      Anchors(64, 130, 111, memory + 64 * seg, 40, seg, &mask1);
  spans.insert(spans.end(), second.begin(), second.end());
  ExpectMatchesReference(q, k, v, heads, spans, "anchors of two tables");
}

/// `spans`, each with its own mask row written out once per query row: the
/// per-row form that a shared mask row stands for. The rows go to `*rows`,
/// span after span; every masked span must have the width `width`.
std::vector<AttentionSpan> RepeatSharedRows(
    const std::vector<AttentionSpan>& spans, int64_t width, Tensor* rows) {
  int64_t total = 0;
  for (const AttentionSpan& s : spans) total += s.query.rows;
  *rows = Tensor::Zeros({total, width});
  std::vector<AttentionSpan> out = spans;
  int64_t next = 0;
  for (AttentionSpan& s : out) {
    if (s.mask == nullptr || !s.shared_mask_row) continue;
    for (int64_t r = 0; r < s.query.rows; ++r) {
      std::memcpy(rows->data() + (next + r) * width,
                  s.mask->data() + s.mask_row * width, sizeof(float) * width);
    }
    s.mask = rows;
    s.mask_row = next;
    s.shared_mask_row = false;
    next += s.query.rows;
  }
  return out;
}

TEST(AttentionOpTest, SharedMaskRowMatchesRepeatedRowsBitwise) {
  // The content tower's segment j adds one mask row, row j, to every query
  // row of its span. Written out per query row, the same mask must give
  // the same bytes, for all-rows spans and for the last layer's first-rows
  // spans; the written-out form must in turn match the unfused chain.
  Rng rng(37);
  const int64_t heads = 4, hd = 26, hidden = heads * hd;
  const int64_t segments = 64, seg = 27, memory = 111, width = memory + seg;
  const int64_t rows = segments * seg;
  const Tensor q = Tensor::Randn({rows, hidden}, rng);
  const Tensor k = Tensor::Randn({memory + rows, hidden}, rng);
  const Tensor v = Tensor::Randn({memory + rows, hidden}, rng);
  const Tensor seg_mask = RandomMask(segments, width, rng);
  for (const bool first_rows : {false, true}) {
    const char* what = first_rows ? "first rows" : "all rows";
    std::vector<AttentionSpan> spans;
    for (int64_t j = 0; j < segments; ++j) {
      AttentionSpan s;
      s.query = first_rows ? RowRange{j, 1} : RowRange{j * seg, seg};
      s.kv[0] = {0, memory};
      s.kv[1] = {memory + j * seg, seg};
      s.mask = &seg_mask;
      s.mask_row = j;
      s.shared_mask_row = true;
      spans.push_back(s);
    }
    const Tensor qs = first_rows ? SliceRows(q, 0, segments) : q;
    Tensor repeated_mask;
    const std::vector<AttentionSpan> repeated =
        RepeatSharedRows(spans, width, &repeated_mask);
    ExpectMatchesReference(qs, k, v, heads, repeated, what);
    EXPECT_TRUE(SameBytes(Attention(qs, k, v, heads, spans),
                          Attention(qs, k, v, heads, repeated)))
        << what;
  }
}

/// The unfused autograd chain for spans of one query length and one width:
/// every (span, head) block is one batch entry, span-major, so a key or
/// value row that several spans read accumulates its gradient in span
/// order, as the op's backward does. Returns sum(out * w) over the spans'
/// query rows.
Tensor ReferenceLoss(const Tensor& q, const Tensor& k, const Tensor& v,
                     int64_t heads, const std::vector<AttentionSpan>& spans,
                     const Tensor& w) {
  const int64_t hd = q.dim(1) / heads;
  const int64_t seg = spans[0].query.rows;
  const int64_t width = spans[0].kv[0].rows + spans[0].kv[1].rows;
  const int64_t batch = static_cast<int64_t>(spans.size()) * heads;
  std::vector<int> q_rows;
  std::vector<int> kv_rows;
  Tensor mask = Tensor::Zeros({batch, seg, width});
  for (const AttentionSpan& s : spans) {
    EXPECT_EQ(s.query.rows, seg);
    EXPECT_EQ(s.kv[0].rows + s.kv[1].rows, width);
    for (int64_t a = 0; a < heads; ++a) {
      for (int64_t r = 0; r < seg; ++r) {
        q_rows.push_back(static_cast<int>((s.query.begin + r) * heads + a));
      }
      for (const RowRange& range : s.kv) {
        for (int64_t r = 0; r < range.rows; ++r) {
          kv_rows.push_back(static_cast<int>((range.begin + r) * heads + a));
        }
      }
      const int64_t b = static_cast<int64_t>(q_rows.size()) / seg - 1;
      std::memcpy(mask.data() + b * seg * width,
                  s.mask->data() + s.mask_row * width,
                  sizeof(float) * seg * width);
    }
  }
  auto view = [&](const Tensor& x, const std::vector<int>& rows,
                  int64_t len) {
    return Reshape(GatherRows(Reshape(x, {x.dim(0) * heads, hd}), rows),
                   {batch, len, hd});
  };
  Tensor scores = BatchedMatMul(view(q, q_rows, seg),
                                TransposeLast2(view(k, kv_rows, width)));
  scores = Scale(scores, 1.0f / std::sqrt(static_cast<float>(hd)));
  scores = Add(scores, mask);
  const Tensor ctx = BatchedMatMul(Softmax(scores), view(v, kv_rows, width));
  return SumAll(Mul(ctx, view(w, q_rows, seg)));
}

TEST(AttentionOpTest, RecordedGradientsMatchUnfusedChainBitwise) {
  // The backward reads each (span, head) probability slice out of the
  // forward's [group][head][rows x width] tiles; a wrong offset would feed
  // it another block's probabilities. Two tables' anchor rows (one group
  // each, mask rows not contiguous) and one table's full segments.
  const int64_t heads = 2, hd = 12, hidden = heads * hd;
  struct Case {
    const char* what;
    int64_t q_rows;
    std::vector<AttentionSpan> spans;
  };
  Rng mask_rng(37);
  const Tensor mask0 = RandomMask(5 * 7, 20 + 7, mask_rng);
  const Tensor mask1 = RandomMask(3 * 7, 20 + 7, mask_rng);
  const Tensor mask2 = RandomMask(4 * 7, 20 + 7, mask_rng);
  std::vector<AttentionSpan> anchors = Anchors(0, 0, 20, 40, 5, 7, &mask0);
  const std::vector<AttentionSpan> more = Anchors(5, 27, 20, 75, 3, 7, &mask1);
  anchors.insert(anchors.end(), more.begin(), more.end());
  // Equal widths across the two tables: 20 + 7 both.
  for (AttentionSpan& s : anchors) ASSERT_EQ(s.kv[0].rows, 20);
  std::vector<AttentionSpan> segments;
  for (int64_t j = 0; j < 4; ++j) {
    AttentionSpan s;
    s.query = {j * 7, 7};
    s.kv[0] = {0, 20};
    s.kv[1] = {40 + j * 7, 7};
    s.mask = &mask2;
    s.mask_row = j * 7;
    segments.push_back(s);
  }
  const std::vector<Case> cases = {{"anchor rows of two tables", 8, anchors},
                                   {"full segments", 28, segments}};
  for (const Case& c : cases) {
    // The op's and the reference's leaves: equal values, separate grads.
    Rng rng(41);
    Rng ref_rng(41);
    const Tensor q = Tensor::Randn({c.q_rows, hidden}, rng, 1.0f, true);
    const Tensor k = Tensor::Randn({100, hidden}, rng, 1.0f, true);
    const Tensor v = Tensor::Randn({100, hidden}, rng, 1.0f, true);
    const Tensor rq = Tensor::Randn({c.q_rows, hidden}, ref_rng, 1.0f, true);
    const Tensor rk = Tensor::Randn({100, hidden}, ref_rng, 1.0f, true);
    const Tensor rv = Tensor::Randn({100, hidden}, ref_rng, 1.0f, true);
    const Tensor w = Tensor::Randn({c.q_rows, hidden}, rng);
    SumAll(Mul(Attention(q, k, v, heads, c.spans), w)).Backward();
    ReferenceLoss(rq, rk, rv, heads, c.spans, w).Backward();
    for (const auto& [got, want, name] :
         {std::tuple{&q, &rq, "q"}, std::tuple{&k, &rk, "k"},
          std::tuple{&v, &rv, "v"}}) {
      ASSERT_EQ(got->grad().size(), want->grad().size());
      EXPECT_EQ(0, std::memcmp(got->grad().data(), want->grad().data(),
                               sizeof(float) * got->grad().size()))
          << c.what << ": d" << name;
    }
  }
}

TEST(AttentionOpTest, BandEdgeGeometriesMatchBitwise) {
  // The forward pads each band's scores to whole 16-column tiles, packs
  // every span's own keys apart and walks the query rows in register bands
  // that cross span boundaries. Widths off the tile grid, an empty own
  // segment, no memory at all, masks on and off: the output must equal the
  // unfused chain whether or not an edge is recorded, and the recorded
  // probabilities must give the chain's gradients.
  const int64_t heads = 2, hd = 12, hidden = heads * hd, segments = 4;
  int cases = 0;
  for (int64_t sm : {0, 5, 16, 37}) {
    for (int64_t own : {0, 3, 16, 21}) {
      if (sm + own == 0) continue;
      for (bool masked : {false, true}) {
        for (int64_t seg : {1, 5, 9}) {
          const uint64_t seed = static_cast<uint64_t>(7000 + cases++);
          const int64_t rows = segments * seg, width = sm + own;
          const int64_t keys = sm + segments * own;
          Rng mask_rng(seed);
          const Tensor mask = RandomMask(rows, width, mask_rng);
          std::vector<AttentionSpan> spans;
          for (int64_t j = 0; j < segments; ++j) {
            AttentionSpan s;
            s.query = {j * seg, seg};
            s.kv[0] = {0, sm};
            s.kv[1] = {sm + j * own, own};
            s.mask = masked ? &mask : nullptr;
            s.mask_row = j * seg;
            spans.push_back(s);
          }
          const std::string what = "sm=" + std::to_string(sm) +
                                   " own=" + std::to_string(own) +
                                   " seg=" + std::to_string(seg) +
                                   (masked ? " masked" : "");
          // Leaves for the op and for the reference: equal values.
          Rng rng(seed), ref_rng(seed);
          const Tensor q = Tensor::Randn({rows, hidden}, rng, 1.0f, true);
          const Tensor k = Tensor::Randn({keys, hidden}, rng, 1.0f, true);
          const Tensor v = Tensor::Randn({keys, hidden}, rng, 1.0f, true);
          const Tensor rq = Tensor::Randn({rows, hidden}, ref_rng, 1.0f, true);
          const Tensor rk = Tensor::Randn({keys, hidden}, ref_rng, 1.0f, true);
          const Tensor rv = Tensor::Randn({keys, hidden}, ref_rng, 1.0f, true);
          Tensor want, unrecorded;
          {
            NoGradGuard ng;
            want = ReferenceAttention(rq, rk, rv, heads, spans);
            unrecorded = Attention(q, k, v, heads, spans);
          }
          const Tensor recorded = Attention(q, k, v, heads, spans);
          EXPECT_TRUE(SameBytes(unrecorded, want)) << what;
          EXPECT_TRUE(SameBytes(recorded, want)) << what << " (recorded)";
          if (!masked) continue;  // ReferenceLoss reads every span's mask
          const Tensor w = Tensor::Randn({rows, hidden}, rng);
          SumAll(Mul(recorded, w)).Backward();
          ReferenceLoss(rq, rk, rv, heads, spans, w).Backward();
          for (const auto& [got, ref, name] :
               {std::tuple{&q, &rq, "q"}, std::tuple{&k, &rk, "k"},
                std::tuple{&v, &rv, "v"}}) {
            ASSERT_EQ(got->grad().size(), ref->grad().size());
            EXPECT_EQ(0, std::memcmp(got->grad().data(), ref->grad().data(),
                                     sizeof(float) * got->grad().size()))
                << what << ": d" << name;
          }
        }
      }
    }
  }
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
