// Forward-pass unit tests for the tensor library: factories, shape
// contracts, and operator values.

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/exec_context.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace taste::tensor {
namespace {

TEST(TensorTest, ZerosShapeAndValues) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.rank(), 2);
  EXPECT_EQ(t.numel(), 6);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(t.data()[i], 0.0f);
}

TEST(TensorTest, FullAndScalar) {
  Tensor t = Tensor::Full({4}, 2.5f);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(t.data()[i], 2.5f);
  Tensor s = Tensor::Scalar(-1.0f);
  EXPECT_EQ(s.item(), -1.0f);
}

TEST(TensorTest, FromVector) {
  Tensor t = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.data()[3], 4.0f);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(-1), 2);
}

TEST(TensorTest, RandnIsDeterministicPerSeed) {
  Rng r1(42), r2(42);
  Tensor a = Tensor::Randn({8}, r1);
  Tensor b = Tensor::Randn({8}, r2);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.data()[i], b.data()[i]);
}

TEST(TensorTest, DetachSharesNoHistory) {
  Tensor a = Tensor::Full({2}, 1.0f, /*requires_grad=*/true);
  Tensor b = Scale(a, 2.0f);
  Tensor d = b.Detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_EQ(d.data()[0], 2.0f);
}

TEST(TensorTest, ShapeToString) {
  EXPECT_EQ(ShapeToString({4, 12}), "[4, 12]");
  EXPECT_EQ(NumElements({4, 12}), 48);
  EXPECT_EQ(NumElements({}), 1);
}

TEST(OpsTest, AddSubMul) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  Tensor s = Add(a, b);
  Tensor d = Sub(b, a);
  Tensor m = Mul(a, b);
  EXPECT_EQ(s.data()[2], 33.0f);
  EXPECT_EQ(d.data()[1], 18.0f);
  EXPECT_EQ(m.data()[0], 10.0f);
}

TEST(OpsTest, ScaleAddScalar) {
  Tensor a = Tensor::FromVector({2}, {2, -4});
  EXPECT_EQ(Scale(a, 0.5f).data()[1], -2.0f);
  EXPECT_EQ(AddScalar(a, 1.0f).data()[0], 3.0f);
}

TEST(OpsTest, MatMulValues) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.data()[0], 58.0f);
  EXPECT_EQ(c.data()[1], 64.0f);
  EXPECT_EQ(c.data()[2], 139.0f);
  EXPECT_EQ(c.data()[3], 154.0f);
}

TEST(OpsTest, BatchedMatMulMatchesPerBatch) {
  Rng rng(1);
  Tensor a = Tensor::Randn({2, 3, 4}, rng);
  Tensor b = Tensor::Randn({2, 4, 5}, rng);
  Tensor c = BatchedMatMul(a, b);
  ASSERT_EQ(c.shape(), (Shape{2, 3, 5}));
  for (int t = 0; t < 2; ++t) {
    Tensor a2 = Tensor::FromVector(
        {3, 4}, std::vector<float>(a.data() + t * 12, a.data() + (t + 1) * 12));
    Tensor b2 = Tensor::FromVector(
        {4, 5}, std::vector<float>(b.data() + t * 20, b.data() + (t + 1) * 20));
    Tensor c2 = MatMul(a2, b2);
    for (int i = 0; i < 15; ++i) {
      EXPECT_NEAR(c.data()[t * 15 + i], c2.data()[i], 1e-5f);
    }
  }
}

TEST(OpsTest, TransposeLast2Rank2) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = TransposeLast2(a);
  ASSERT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.data()[0], 1.0f);
  EXPECT_EQ(t.data()[1], 4.0f);
  EXPECT_EQ(t.data()[2], 2.0f);
}

TEST(OpsTest, TransposeLast2Rank3) {
  Rng rng(2);
  Tensor a = Tensor::Randn({3, 2, 4}, rng);
  Tensor t = TransposeLast2(a);
  ASSERT_EQ(t.shape(), (Shape{3, 4, 2}));
  // spot-check one batch
  EXPECT_EQ(t.data()[1 * 8 + 3 * 2 + 1], a.data()[1 * 8 + 1 * 4 + 3]);
}

TEST(OpsTest, ReshapePreservesData) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, {3, 2});
  ASSERT_EQ(r.shape(), (Shape{3, 2}));
  for (int i = 0; i < 6; ++i) EXPECT_EQ(r.data()[i], a.data()[i]);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, -1, 0, 1});
  Tensor s = Softmax(a);
  for (int r = 0; r < 2; ++r) {
    float sum = 0;
    for (int j = 0; j < 3; ++j) sum += s.data()[r * 3 + j];
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  EXPECT_GT(s.data()[2], s.data()[1]);
}

TEST(OpsTest, SoftmaxStableForLargeLogits) {
  Tensor a = Tensor::FromVector({1, 2}, {1000.0f, 1001.0f});
  Tensor s = Softmax(a);
  EXPECT_FALSE(std::isnan(s.data()[0]));
  EXPECT_NEAR(s.data()[0] + s.data()[1], 1.0f, 1e-5f);
}

TEST(OpsTest, LayerNormNormalizesRows) {
  Tensor x = Tensor::FromVector({2, 4}, {1, 2, 3, 4, -2, 0, 2, 4});
  Tensor gamma = Tensor::Full({4}, 1.0f);
  Tensor beta = Tensor::Zeros({4});
  Tensor y = LayerNorm(x, gamma, beta);
  for (int r = 0; r < 2; ++r) {
    float mean = 0, var = 0;
    for (int j = 0; j < 4; ++j) mean += y.data()[r * 4 + j];
    mean /= 4;
    for (int j = 0; j < 4; ++j) {
      float d = y.data()[r * 4 + j] - mean;
      var += d * d;
    }
    var /= 4;
    EXPECT_NEAR(mean, 0.0f, 1e-5f);
    EXPECT_NEAR(var, 1.0f, 1e-3f);
  }
}

TEST(OpsTest, LayerNormAffine) {
  Tensor x = Tensor::FromVector({1, 2}, {-1, 1});
  Tensor gamma = Tensor::FromVector({2}, {2, 2});
  Tensor beta = Tensor::FromVector({2}, {5, 5});
  Tensor y = LayerNorm(x, gamma, beta);
  EXPECT_NEAR(y.data()[0], 5.0f - 2.0f, 1e-3f);
  EXPECT_NEAR(y.data()[1], 5.0f + 2.0f, 1e-3f);
}

TEST(OpsTest, ActivationValues) {
  Tensor x = Tensor::FromVector({3}, {-1, 0, 2});
  EXPECT_EQ(Relu(x).data()[0], 0.0f);
  EXPECT_EQ(Relu(x).data()[2], 2.0f);
  EXPECT_NEAR(Sigmoid(x).data()[1], 0.5f, 1e-6f);
  EXPECT_NEAR(Tanh(x).data()[2], std::tanh(2.0f), 1e-6f);
  // GELU: ~0 at large negative, ~x at large positive, 0 at 0.
  Tensor big = Tensor::FromVector({2}, {-10, 10});
  EXPECT_NEAR(Gelu(big).data()[0], 0.0f, 1e-3f);
  EXPECT_NEAR(Gelu(big).data()[1], 10.0f, 1e-3f);
}

TEST(OpsTest, AddBiasBroadcasts) {
  Tensor x = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2}, {10, 20});
  Tensor y = AddBias(x, b);
  EXPECT_EQ(y.data()[0], 11.0f);
  EXPECT_EQ(y.data()[3], 24.0f);
}

TEST(OpsTest, AddBroadcastMatOverBatch) {
  Tensor x = Tensor::Zeros({2, 2, 2});
  Tensor m = Tensor::FromVector({2, 2}, {0, -1e9f, 0, 0});
  Tensor y = AddBroadcastMat(x, m);
  EXPECT_EQ(y.data()[1], -1e9f);
  EXPECT_EQ(y.data()[5], -1e9f);  // same mask on batch 1
}

TEST(OpsTest, EmbeddingLookupSelectsRows) {
  Tensor w = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor e = EmbeddingLookup(w, {2, 0, 2});
  ASSERT_EQ(e.shape(), (Shape{3, 2}));
  EXPECT_EQ(e.data()[0], 5.0f);
  EXPECT_EQ(e.data()[2], 1.0f);
  EXPECT_EQ(e.data()[4], 5.0f);
}

TEST(OpsTest, GatherRows) {
  Tensor x = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor g = GatherRows(x, {1});
  ASSERT_EQ(g.shape(), (Shape{1, 2}));
  EXPECT_EQ(g.data()[0], 3.0f);
}

TEST(OpsTest, ConcatRowsAndCols) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor r = ConcatRows({a, b});
  ASSERT_EQ(r.shape(), (Shape{3, 2}));
  EXPECT_EQ(r.data()[4], 5.0f);
  Tensor c = ConcatCols(a, Tensor::FromVector({1, 3}, {7, 8, 9}));
  ASSERT_EQ(c.shape(), (Shape{1, 5}));
  EXPECT_EQ(c.data()[2], 7.0f);
}

TEST(OpsTest, SliceRows) {
  Tensor x = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor s = SliceRows(x, 1, 3);
  ASSERT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.data()[0], 3.0f);
  Tensor empty = SliceRows(x, 2, 2);
  EXPECT_EQ(empty.numel(), 0);
}

// Empty tensors may have a null data(); every row copy must skip the
// zero-length memcpy (UBSan halts on a null memcpy argument otherwise).
TEST(OpsTest, CopyOpsAcceptEmptyInputs) {
  Tensor x = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor no_rows = Tensor::Zeros({0, 2});
  Tensor no_cols = Tensor::Zeros({2, 0});

  EXPECT_EQ(SliceRows(no_rows, 0, 0).numel(), 0);
  EXPECT_EQ(Reshape(no_rows, {2, 0}).numel(), 0);

  Tensor rows = ConcatRows({no_rows, x, no_rows});
  ASSERT_EQ(rows.shape(), (Shape{2, 2}));
  EXPECT_EQ(rows.data()[3], 4.0f);
  EXPECT_EQ(ConcatRows({no_rows}).numel(), 0);

  Tensor cols = ConcatCols(no_cols, x);
  ASSERT_EQ(cols.shape(), (Shape{2, 2}));
  EXPECT_EQ(cols.data()[2], 3.0f);
  EXPECT_EQ(ConcatCols(x, no_cols).data()[1], 2.0f);

  EXPECT_EQ(GatherRows(x, {}).shape(), (Shape{0, 2}));
  EXPECT_EQ(GatherRows(no_cols, {1, 0}).shape(), (Shape{2, 0}));

  EXPECT_EQ(EmbeddingLookup(x, {}).shape(), (Shape{0, 2}));
  EXPECT_EQ(EmbeddingLookup(no_cols, {1}).shape(), (Shape{1, 0}));
}

TEST(OpsTest, Reductions) {
  Tensor x = Tensor::FromVector({4}, {1, 2, 3, 4});
  EXPECT_EQ(SumAll(x).item(), 10.0f);
  EXPECT_EQ(MeanAll(x).item(), 2.5f);
}

TEST(OpsTest, BceWithLogitsMatchesManual) {
  Tensor z = Tensor::FromVector({2}, {0.0f, 2.0f});
  Tensor y = Tensor::FromVector({2}, {1.0f, 0.0f});
  float expect = (std::log(2.0f) + (2.0f + std::log1p(std::exp(-2.0f)))) / 2;
  EXPECT_NEAR(BceWithLogits(z, y).item(), expect, 1e-5f);
}

TEST(OpsTest, CrossEntropyPerfectPredictionNearZero) {
  Tensor z = Tensor::FromVector({1, 3}, {100.0f, 0.0f, 0.0f});
  EXPECT_NEAR(CrossEntropyWithLogits(z, {0}).item(), 0.0f, 1e-4f);
}

TEST(OpsTest, CrossEntropyIgnoresIndex) {
  Tensor z = Tensor::FromVector({2, 2}, {0, 0, 10, 0});
  float with_ignore = CrossEntropyWithLogits(z, {-1, 0}, -1).item();
  Tensor z2 = Tensor::FromVector({1, 2}, {10, 0});
  float only_valid = CrossEntropyWithLogits(z2, {0}).item();
  EXPECT_NEAR(with_ignore, only_valid, 1e-6f);
}

TEST(OpsTest, CrossEntropyAllIgnoredIsZero) {
  Tensor z = Tensor::FromVector({1, 2}, {1, 2});
  EXPECT_EQ(CrossEntropyWithLogits(z, {-1}, -1).item(), 0.0f);
}

TEST(OpsTest, SigmoidValuesHelper) {
  Tensor z = Tensor::FromVector({2}, {0.0f, 100.0f});
  auto p = SigmoidValues(z);
  EXPECT_NEAR(p[0], 0.5f, 1e-6f);
  EXPECT_NEAR(p[1], 1.0f, 1e-6f);
}

TEST(OpsTest, DropoutInferenceIsIdentity) {
  Rng rng(5);
  Tensor x = Tensor::Full({100}, 1.0f);
  Tensor y = Dropout(x, 0.5f, rng, /*training=*/false);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(y.data()[i], 1.0f);
}

TEST(OpsTest, DropoutTrainingScalesSurvivors) {
  Rng rng(6);
  Tensor x = Tensor::Full({10000}, 1.0f);
  Tensor y = Dropout(x, 0.25f, rng, /*training=*/true);
  int zeros = 0;
  for (int i = 0; i < 10000; ++i) {
    if (y.data()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y.data()[i], 1.0f / 0.75f, 1e-5f);
    }
  }
  EXPECT_NEAR(zeros / 10000.0, 0.25, 0.03);
}

// ---- ExecContext stats and recycled buffers ---------------------------------

TEST(ExecContextTest, ResetStatsAlsoResetsPoolCounters) {
  Rng rng(4);
  Tensor a = Tensor::Randn({4, 4}, rng);
  ExecContext ctx;
  auto add_once = [&] {
    ScopedExecContext bind(&ctx);
    Tensor y = Add(a, a);  // one acquire; the release follows at scope end
  };
  add_once();
  ASSERT_EQ(ctx.stats().pool.acquires, 1);
  ASSERT_EQ(ctx.stats().pool.releases, 1);
  ctx.ResetStats();
  BufferPool::Stats st = ctx.stats().pool;
  EXPECT_EQ(st.acquires, 0);
  EXPECT_EQ(st.reuses, 0);
  EXPECT_EQ(st.releases, 0);
  EXPECT_EQ(st.bytes_pooled, 16 * 4);  // a level, not a counter
  add_once();
  st = ctx.stats().pool;
  EXPECT_EQ(st.acquires, 1);
  EXPECT_EQ(st.reuses, 1);
  EXPECT_EQ(st.releases, 1);
}

struct OverwriteCase {
  std::string name;
  std::function<Tensor()> run;
};

/// One case per op that takes recycled buffers without the zero fill, on
/// inputs with `rows` rows (0 gives empty outputs).
std::vector<OverwriteCase> OverwritingOps(int64_t rows) {
  constexpr int64_t h = 6;
  Rng rng(21 + rows);
  const Tensor x = Tensor::Randn({rows, h}, rng);
  const Tensor y = Tensor::Randn({rows, h}, rng);
  const Tensor pos = Tensor::Uniform({rows, h}, rng, 0.5f, 2.0f);
  const Tensor x3 = Tensor::Randn({2, rows, h}, rng);
  const Tensor narrow = Tensor::Randn({rows, 3}, rng);
  const Tensor bias = Tensor::Randn({h}, rng);
  const Tensor gamma = Tensor::Randn({h}, rng);
  const Tensor beta = Tensor::Randn({h}, rng);
  const Tensor table = Tensor::Randn({7, h}, rng);
  const Tensor w = Tensor::Randn({h, 5}, rng);
  const Tensor w_bias = Tensor::Randn({5}, rng);
  std::vector<int> ids;
  for (int64_t i = 0; i < rows; ++i) {
    ids.push_back(static_cast<int>(i * 3 % 7));
  }
  // Attention over `table`'s rows: two spans that leave query row 2 (when
  // there is one) uncovered, which must come out zero.
  std::vector<AttentionSpan> spans;
  for (int64_t begin : {0, 3}) {
    if (begin + 2 > rows) continue;
    AttentionSpan s;
    s.query = {begin, 2};
    s.kv[0] = {0, 4};
    s.kv[1] = {4 - begin / 3, 3};
    spans.push_back(s);
  }
  return {
      {"AddScalar", [=] { return AddScalar(x, 0.5f); }},
      {"Square", [=] { return Square(x); }},
      {"Log", [=] { return Log(pos); }},
      {"Reciprocal", [=] { return Reciprocal(pos); }},
      {"Relu", [=] { return Relu(x); }},
      {"Sigmoid", [=] { return Sigmoid(x); }},
      {"Tanh", [=] { return Tanh(x); }},
      {"Add", [=] { return Add(x, y); }},
      {"Sub", [=] { return Sub(x, y); }},
      {"Mul", [=] { return Mul(x, y); }},
      {"Scale", [=] { return Scale(x, 0.3f); }},
      {"Gelu", [=] { return Gelu(x); }},
      {"Dropout",
       [=] {
         Rng r(17);
         return Dropout(x, 0.5f, r, /*training=*/true);
       }},
      {"AddBias", [=] { return AddBias(x, bias); }},
      {"MatMul", [=] { return MatMul(x, w); }},
      {"Linear", [=] { return Linear(x, w, w_bias); }},
      {"Attention", [=] { return Attention(x, table, table, 2, spans); }},
      {"AddBroadcastMat", [=] { return AddBroadcastMat(x3, x); }},
      {"LayerNorm", [=] { return LayerNorm(x, gamma, beta, 1e-5f); }},
      {"Softmax", [=] { return Softmax(x); }},
      {"EmbeddingLookup", [=] { return EmbeddingLookup(table, ids); }},
      {"GatherRows", [=] { return GatherRows(table, ids); }},
      {"ConcatRows", [=] { return ConcatRows({x, y}); }},
      {"ConcatRowsWithEmptyPart",
       [=] { return ConcatRows({SliceRows(table, 2, 2), x}); }},
      {"ConcatCols", [=] { return ConcatCols(x, narrow); }},
      {"SliceRows", [=] { return SliceRows(table, 1, 1 + rows); }},
  };
}

TEST(RecycledBufferTest, OverwritingOpsIgnorePoisonedBuffers) {
  // These ops take a recycled pool buffer without the zero fill. Park
  // NaN-filled buffers of the output's exact size in the bound context's
  // pool: an element the op fails to write stays NaN and breaks the memcmp
  // against the same op with no context bound.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (int64_t rows : {5, 0}) {
    for (const OverwriteCase& c : OverwritingOps(rows)) {
      SCOPED_TRACE(c.name + " rows=" + std::to_string(rows));
      NoGradGuard no_grad;
      const Tensor want = c.run();
      const size_t n = static_cast<size_t>(want.numel());
      ExecContext ctx;
      for (int i = 0; i < 2; ++i) {
        ctx.buffer_pool()->Release(std::vector<float>(n, nan));
      }
      ScopedExecContext bind(&ctx);
      const Tensor got = c.run();
      ASSERT_EQ(got.shape(), want.shape());
      if (n == 0) continue;  // empty buffers are never pooled
      EXPECT_GE(ctx.stats().pool.reuses, 1);
      EXPECT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(float)), 0);
    }
  }
}

}  // namespace
}  // namespace taste::tensor
