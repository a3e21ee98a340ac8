// Tests for nn modules: parameter registration, layer shapes and semantics,
// attention masking, cross-attention, checkpoint round-trips, and
// end-to-end trainability of a tiny transformer.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include <gtest/gtest.h>

#include "nn/layers.h"
#include "nn/serialize.h"
#include "nn/transformer.h"
#include "tensor/exec_context.h"
#include "tensor/optimizer.h"
#include "tensor/ops.h"

namespace taste::nn {
namespace {

using tensor::Shape;
using tensor::Tensor;

TEST(ModuleTest, NamedParametersAreHierarchical) {
  Rng rng(1);
  MlpClassifier clf(4, 8, 3, rng);
  auto named = clf.NamedParameters();
  ASSERT_EQ(named.size(), 4u);
  EXPECT_EQ(named[0].first, "hidden.weight");
  EXPECT_EQ(named[1].first, "hidden.bias");
  EXPECT_EQ(named[2].first, "out.weight");
  EXPECT_EQ(named[3].first, "out.bias");
}

TEST(ModuleTest, ParameterCount) {
  Rng rng(2);
  Linear lin(10, 5, rng);
  EXPECT_EQ(lin.ParameterCount(), 10 * 5 + 5);
}

TEST(ModuleTest, SetTrainingPropagates) {
  Rng rng(3);
  EncoderConfig cfg;
  TransformerEncoder enc(cfg, rng);
  EXPECT_FALSE(enc.training());
  enc.SetTraining(true);
  EXPECT_TRUE(enc.block(0).training());
  enc.SetTraining(false);
  EXPECT_FALSE(enc.block(0).training());
}

TEST(LinearTest, ShapeAndBias) {
  Rng rng(4);
  Linear lin(3, 2, rng);
  Tensor x = Tensor::Zeros({5, 3});
  Tensor y = lin.Forward(x);
  ASSERT_EQ(y.shape(), (Shape{5, 2}));
  // Zero input -> bias only (bias initialized to zero).
  for (int i = 0; i < 10; ++i) EXPECT_EQ(y.data()[i], 0.0f);
}

TEST(EmbeddingTest, LookupShape) {
  Rng rng(5);
  Embedding emb(10, 4, rng);
  Tensor e = emb.Forward({0, 9, 5});
  ASSERT_EQ(e.shape(), (Shape{3, 4}));
  // Same id -> same row.
  Tensor e2 = emb.Forward({9, 9});
  for (int j = 0; j < 4; ++j) EXPECT_EQ(e2.data()[j], e2.data()[4 + j]);
}

TEST(LayerNormModuleTest, OutputNormalized) {
  LayerNorm ln(8);
  Rng rng(6);
  Tensor x = Tensor::Randn({2, 8}, rng, 5.0f);
  Tensor y = ln.Forward(x);
  for (int r = 0; r < 2; ++r) {
    float mean = 0;
    for (int j = 0; j < 8; ++j) mean += y.data()[r * 8 + j];
    EXPECT_NEAR(mean / 8, 0.0f, 1e-4f);
  }
}

TEST(MlpClassifierTest, LogitsShape) {
  Rng rng(7);
  MlpClassifier clf(6, 16, 5, rng);
  Tensor x = Tensor::Randn({3, 6}, rng);
  Tensor logits = clf.Forward(x);
  ASSERT_EQ(logits.shape(), (Shape{3, 5}));
  EXPECT_EQ(clf.num_labels(), 5);
}

TEST(AttentionTest, SelfAttentionShape) {
  Rng rng(8);
  MultiHeadAttention mha(16, 4, rng);
  Tensor x = Tensor::Randn({7, 16}, rng);
  Tensor y = mha.Forward(x, x);
  ASSERT_EQ(y.shape(), (Shape{7, 16}));
}

TEST(AttentionTest, CrossAttentionShapeUsesQueryLength) {
  Rng rng(9);
  MultiHeadAttention mha(16, 2, rng);
  Tensor q = Tensor::Randn({3, 16}, rng);
  Tensor kv = Tensor::Randn({11, 16}, rng);
  Tensor y = mha.Forward(q, kv);
  ASSERT_EQ(y.shape(), (Shape{3, 16}));
}

TEST(AttentionTest, MaskBlocksInformationFlow) {
  // With position 1 masked out for all queries, changing kv row 1 must not
  // change the output.
  Rng rng(10);
  MultiHeadAttention mha(8, 2, rng);
  Tensor q = Tensor::Randn({2, 8}, rng);
  Tensor kv = Tensor::Randn({3, 8}, rng);
  Tensor mask = Tensor::Zeros({2, 3});
  mask.data()[1] = -1e9f;          // q0 -> kv1 blocked
  mask.data()[3 + 1] = -1e9f;      // q1 -> kv1 blocked
  Tensor y1 = mha.Forward(q, kv, &mask);
  for (int j = 0; j < 8; ++j) kv.data()[8 + j] += 100.0f;  // perturb kv row 1
  Tensor y2 = mha.Forward(q, kv, &mask);
  for (int i = 0; i < 16; ++i) EXPECT_NEAR(y1.data()[i], y2.data()[i], 1e-4f);
}

TEST(AttentionTest, UnmaskedPositionDoesInfluence) {
  Rng rng(11);
  MultiHeadAttention mha(8, 2, rng);
  Tensor q = Tensor::Randn({2, 8}, rng);
  Tensor kv = Tensor::Randn({3, 8}, rng);
  Tensor y1 = mha.Forward(q, kv);
  for (int j = 0; j < 8; ++j) kv.data()[8 + j] += 1.0f;
  Tensor y2 = mha.Forward(q, kv);
  float diff = 0;
  for (int i = 0; i < 16; ++i) diff += std::abs(y1.data()[i] - y2.data()[i]);
  EXPECT_GT(diff, 1e-4f);
}

TEST(TransformerBlockTest, ForwardShapePreserved) {
  Rng rng(12);
  TransformerBlock block(16, 4, 32, 0.0f, rng);
  Tensor x = Tensor::Randn({5, 16}, rng);
  Tensor y = block.Forward(x);
  ASSERT_EQ(y.shape(), (Shape{5, 16}));
}

TEST(TransformerBlockTest, CrossAttentionResidualOnQuery) {
  // Output length follows the query stream even when kv is longer, because
  // the residual connection is on the query stream (ADTD content tower).
  Rng rng(13);
  TransformerBlock block(16, 4, 32, 0.0f, rng);
  Tensor q = Tensor::Randn({4, 16}, rng);
  Tensor kv = Tensor::Randn({9, 16}, rng);
  Tensor y = block.Forward(q, kv, nullptr);
  ASSERT_EQ(y.shape(), (Shape{4, 16}));
}

/// An additive mask whose rows differ: row r blocks keys (r + c) % 3 == 0
/// beyond the first.
Tensor RowVaryingMask(int64_t rows, int64_t cols) {
  std::vector<float> m(static_cast<size_t>(rows * cols), 0.0f);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t c = 1; c < cols; ++c) {
      if ((r + c) % 3 == 0) m[static_cast<size_t>(r * cols + c)] = -1e9f;
    }
  }
  return Tensor::FromVector({rows, cols}, std::move(m));
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

TEST(TransformerBlockTest, ForwardRowsAreThoseRowsOfForward) {
  Rng rng(14);
  TransformerBlock block(48, 4, 64, 0.0f, rng);
  const Tensor x = Tensor::Randn({17, 48}, rng);
  const Tensor mask = RowVaryingMask(17, 17);
  const std::vector<int> rows = {5, 0, 16, 9};
  tensor::NoGradGuard no_grad;
  EXPECT_TRUE(SameBytes(block.ForwardRows(x, rows, &mask),
                        tensor::GatherRows(block.Forward(x, &mask), rows)));
}

TEST(TransformerBlockTest, FirstRowsAreThoseRowsOfAllRows) {
  // Groups with their own memories, segment lengths and masks whose
  // segment rows differ; kFirstRows returns each segment's first row of
  // kAllRows.
  Rng rng(15);
  TransformerBlock block(48, 4, 64, 0.0f, rng);
  const Tensor mem_a = Tensor::Randn({7, 48}, rng);
  const Tensor mem_b = Tensor::Randn({4, 48}, rng);
  const Tensor mask_a = RowVaryingMask(3, 7 + 5);
  const Tensor mask_b = RowVaryingMask(2, 4 + 3);
  const Tensor x_a = Tensor::Randn({15, 48}, rng);
  const Tensor x_b = Tensor::Randn({6, 48}, rng);
  tensor::NoGradGuard no_grad;
  const SegmentGroup group_a{&mem_a, &mask_a, 3, 5};
  EXPECT_TRUE(SameBytes(
      block.ForwardSegmented(x_a, group_a, SegmentQueries::kFirstRows),
      tensor::GatherRows(block.ForwardSegmented(x_a, group_a), {0, 5, 10})));
  const SegmentGroup group_b{&mem_b, &mask_b, 2, 3};
  EXPECT_TRUE(SameBytes(
      block.ForwardSegmented(x_b, group_b, SegmentQueries::kFirstRows),
      tensor::GatherRows(block.ForwardSegmented(x_b, group_b), {0, 3})));
}

/// `row` (1, cols) written out `rows` times.
Tensor RepeatRow(const Tensor& row, int64_t rows) {
  std::vector<int> copies(static_cast<size_t>(rows), 0);
  return tensor::GatherRows(row, copies);
}

TEST(TransformerBlockTest, OneMaskRowMatchesRepeatedRows) {
  // A (1, skv) mask adds its one row to every query row: bitwise the same
  // row written out once per query row, in every attention form.
  Rng rng(18);
  TransformerBlock block(48, 4, 64, 0.0f, rng);
  const Tensor x = Tensor::Randn({17, 48}, rng);
  const Tensor kv = Tensor::Randn({9, 48}, rng);
  const Tensor row = tensor::SliceRows(RowVaryingMask(2, 17), 1, 2);
  const Tensor cross_row = tensor::SliceRows(RowVaryingMask(2, 9), 1, 2);
  const std::vector<int> rows = {5, 0, 16, 9};
  tensor::NoGradGuard no_grad;
  const Tensor repeated = RepeatRow(row, 17);
  EXPECT_TRUE(
      SameBytes(block.Forward(x, &row), block.Forward(x, &repeated)));
  EXPECT_TRUE(SameBytes(block.ForwardRows(x, rows, &row),
                        block.ForwardRows(x, rows, &repeated)));
  const Tensor cross_repeated = RepeatRow(cross_row, 17);
  EXPECT_TRUE(SameBytes(block.Forward(x, kv, &cross_row),
                        block.Forward(x, kv, &cross_repeated)));
}

TEST(TransformerBlockTest, NoGradRowsMatchRecordedRowsBitwise) {
  // Without a tape the row forms project only the query rows they keep;
  // a recorded forward projects every row and gathers. The projection is
  // row-stable, so both give the same bytes in fp32; in int8 (which runs
  // only without a tape) the rows equal those of the full int8 layer.
  Rng rng(19);
  TransformerBlock block(48, 4, 64, 0.0f, rng);
  const Tensor x = Tensor::Randn({17, 48}, rng);
  const Tensor mask = tensor::SliceRows(RowVaryingMask(2, 17), 1, 2);
  const std::vector<int> rows = {5, 0, 16, 9};
  const Tensor mem = Tensor::Randn({7, 48}, rng);
  const Tensor seg_mask = RowVaryingMask(3, 7 + 5);
  const Tensor xs = Tensor::Randn({15, 48}, rng);
  const SegmentGroup group{&mem, &seg_mask, 3, 5};
  const Tensor recorded_rows = block.ForwardRows(x, rows, &mask);
  const Tensor recorded_first =
      block.ForwardSegmented(xs, group, SegmentQueries::kFirstRows);
  ASSERT_TRUE(recorded_rows.requires_grad());
  {
    tensor::NoGradGuard no_grad;
    EXPECT_TRUE(SameBytes(block.ForwardRows(x, rows, &mask), recorded_rows));
    EXPECT_TRUE(SameBytes(
        block.ForwardSegmented(xs, group, SegmentQueries::kFirstRows),
        recorded_first));
  }
  block.PrepackQuant();
  tensor::ExecContext::Options opt;
  opt.no_grad = true;
  opt.p2_dtype = tensor::P2Dtype::kInt8;
  tensor::ExecContext ctx(opt);
  tensor::ScopedExecContext bind(&ctx);
  tensor::ScopedQuantRegion quant(&ctx);
  const Tensor int8_rows = block.ForwardRows(x, rows, &mask);
  EXPECT_TRUE(SameBytes(int8_rows,
                        tensor::GatherRows(block.Forward(x, &mask), rows)));
  EXPECT_FALSE(SameBytes(int8_rows, recorded_rows));  // int8 did run
  EXPECT_TRUE(SameBytes(
      block.ForwardSegmented(xs, group, SegmentQueries::kFirstRows),
      tensor::GatherRows(block.ForwardSegmented(xs, group), {0, 5, 10})));
}

TEST(TransformerEncoderTest, StackForward) {
  Rng rng(14);
  EncoderConfig cfg{.num_layers = 3, .num_heads = 2, .intermediate = 32,
                    .hidden = 16};
  TransformerEncoder enc(cfg, rng);
  EXPECT_EQ(enc.num_layers(), 3);
  Tensor x = Tensor::Randn({6, 16}, rng);
  Tensor y = enc.Forward(x);
  ASSERT_EQ(y.shape(), (Shape{6, 16}));
}

TEST(TransformerEncoderTest, PaperConfigParameterScale) {
  // The paper reports ~14.5M parameters for encoder+embeddings; the encoder
  // stack alone (L=4, H=312, I=1200) is ~4.9M. Verify the right order.
  Rng rng(15);
  TransformerEncoder enc(EncoderConfig::Paper(), rng);
  int64_t n = enc.ParameterCount();
  EXPECT_GT(n, 4'000'000);
  EXPECT_LT(n, 6'000'000);
}

TEST(TransformerTest, TinyModelLearnsTokenCopyTask) {
  // Sanity: a 1-layer transformer + classifier learns to map token id
  // parity to a label, proving gradients flow end to end.
  Rng rng(16);
  const int64_t vocab = 8, hidden = 16;
  Embedding emb(vocab, hidden, rng);
  TransformerBlock block(hidden, 2, 32, 0.0f, rng);
  Linear head(hidden, 2, rng);
  std::vector<tensor::Tensor> params;
  for (auto& p : emb.Parameters()) params.push_back(p);
  for (auto& p : block.Parameters()) params.push_back(p);
  for (auto& p : head.Parameters()) params.push_back(p);
  tensor::Adam opt(params, {.lr = 5e-3f});
  Rng data_rng(17);
  float last_loss = 1e9f;
  for (int step = 0; step < 300; ++step) {
    std::vector<int> ids(6);
    std::vector<int> labels(6);
    for (int i = 0; i < 6; ++i) {
      ids[i] = static_cast<int>(data_rng.NextBelow(vocab));
      labels[i] = ids[i] % 2;
    }
    Tensor h = block.Forward(emb.Forward(ids));
    Tensor logits = head.Forward(h);
    Tensor loss = tensor::CrossEntropyWithLogits(logits, labels);
    loss.Backward();
    opt.Step();
    last_loss = loss.item();
  }
  EXPECT_LT(last_loss, 0.1f);
}

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("taste_ckpt_" + std::to_string(::getpid()) + ".bin");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::filesystem::path path_;
};

TEST_F(SerializeTest, RoundTripRestoresValues) {
  Rng rng(18);
  MlpClassifier a(4, 8, 3, rng);
  ASSERT_TRUE(SaveCheckpoint(a, path_.string()).ok());

  Rng rng2(999);
  MlpClassifier b(4, 8, 3, rng2);
  // Different init -> different outputs before load.
  Tensor x = Tensor::Randn({2, 4}, rng);
  Tensor ya = a.Forward(x);
  ASSERT_TRUE(LoadCheckpoint(&b, path_.string()).ok());
  Tensor yb = b.Forward(x);
  for (int i = 0; i < 6; ++i) EXPECT_EQ(ya.data()[i], yb.data()[i]);
}

TEST_F(SerializeTest, ShapeMismatchRejected) {
  Rng rng(19);
  MlpClassifier a(4, 8, 3, rng);
  ASSERT_TRUE(SaveCheckpoint(a, path_.string()).ok());
  MlpClassifier wrong(4, 16, 3, rng);
  Status st = LoadCheckpoint(&wrong, path_.string());
  EXPECT_FALSE(st.ok());
}

TEST_F(SerializeTest, MissingFileIsIOError) {
  Rng rng(20);
  MlpClassifier a(4, 8, 3, rng);
  Status st = LoadCheckpoint(&a, "/nonexistent/dir/ckpt.bin");
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

TEST_F(SerializeTest, CorruptMagicRejected) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  std::fputs("NOTACKPT-GARBAGE", f);
  std::fclose(f);
  Rng rng(21);
  MlpClassifier a(4, 8, 3, rng);
  Status st = LoadCheckpoint(&a, path_.string());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(SerializeTest, ReadCheckpointExposesTensors) {
  Rng rng(22);
  Linear lin(3, 2, rng);
  ASSERT_TRUE(SaveCheckpoint(lin, path_.string()).ok());
  auto res = ReadCheckpoint(path_.string());
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->size(), 2u);
  EXPECT_EQ(res->at("weight").shape(), (Shape{3, 2}));
  EXPECT_EQ(res->at("bias").shape(), (Shape{2}));
}

TEST_F(SerializeTest, NoTempFileLeftBehind) {
  Rng rng(25);
  Linear lin(3, 2, rng);
  ASSERT_TRUE(SaveCheckpoint(lin, path_.string()).ok());
  EXPECT_FALSE(std::filesystem::exists(path_.string() + ".tmp"));
}

TEST_F(SerializeTest, EverySingleByteCorruptionIsRejected) {
  Rng rng(26);
  Linear lin(3, 2, rng);
  ASSERT_TRUE(SaveCheckpoint(lin, path_.string()).ok());
  std::vector<unsigned char> good;
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    int c;
    while ((c = std::fgetc(f)) != EOF) good.push_back(static_cast<unsigned char>(c));
    std::fclose(f);
  }
  ASSERT_GT(good.size(), 16u);
  // Flip every byte of the file in turn. The CRC (or the magic check, for
  // the first 8 bytes) must catch each one: a corrupt length prefix must
  // never drive a bogus load or a huge allocation.
  for (size_t i = 0; i < good.size(); ++i) {
    std::vector<unsigned char> bad = good;
    bad[i] ^= 0xFF;
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bad.data(), 1, bad.size(), f), bad.size());
    std::fclose(f);
    EXPECT_FALSE(ReadCheckpoint(path_.string()).ok()) << "flipped byte " << i;
  }
  // Every truncation must be caught too (the trailing CRC goes missing).
  for (size_t len : {good.size() - 1, good.size() / 2, size_t{9}, size_t{0}}) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(good.data(), 1, len, f), len);
    std::fclose(f);
    EXPECT_FALSE(ReadCheckpoint(path_.string()).ok())
        << "truncated to " << len;
  }
  // Appended garbage shifts the CRC trailer and must be caught as well.
  {
    std::vector<unsigned char> bad = good;
    bad.push_back(0x5A);
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bad.data(), 1, bad.size(), f), bad.size());
    std::fclose(f);
    EXPECT_FALSE(ReadCheckpoint(path_.string()).ok()) << "trailing garbage";
  }
  // And the pristine bytes still load, so the sweep tested the real format.
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(good.data(), 1, good.size(), f), good.size());
  std::fclose(f);
  EXPECT_TRUE(ReadCheckpoint(path_.string()).ok());
}

TEST_F(SerializeTest, LegacyV1CheckpointStillLoads) {
  Rng rng(27);
  Linear a(3, 2, rng);
  ASSERT_TRUE(SaveCheckpoint(a, path_.string()).ok());
  auto tensors = ReadCheckpoint(path_.string());
  ASSERT_TRUE(tensors.ok());
  // Re-serialize the same parameters in the v1 layout: magic "TSTCKPT1",
  // then the payload with no version field and no CRC trailer.
  std::vector<unsigned char> v1;
  auto put = [&v1](const void* p, size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    v1.insert(v1.end(), b, b + n);
  };
  put("TSTCKPT1", 8);
  const uint64_t count = tensors->size();
  put(&count, sizeof(count));
  for (const auto& [name, t] : *tensors) {
    const uint32_t name_len = static_cast<uint32_t>(name.size());
    put(&name_len, sizeof(name_len));
    put(name.data(), name.size());
    const uint32_t rank = static_cast<uint32_t>(t.shape().size());
    put(&rank, sizeof(rank));
    for (int64_t d : t.shape()) {
      const uint64_t du = static_cast<uint64_t>(d);
      put(&du, sizeof(du));
    }
    put(t.data(), sizeof(float) * static_cast<size_t>(t.numel()));
  }
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(v1.data(), 1, v1.size(), f), v1.size());
  std::fclose(f);

  Rng rng2(999);
  Linear b(3, 2, rng2);
  ASSERT_TRUE(LoadCheckpoint(&b, path_.string()).ok());
  Tensor x = Tensor::Randn({2, 3}, rng);
  Tensor ya = a.Forward(x), yb = b.Forward(x);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ya.data()[i], yb.data()[i]);
}

TEST(CopyParametersTest, TransplantsWeights) {
  Rng r1(23), r2(24);
  Linear a(4, 4, r1), b(4, 4, r2);
  ASSERT_TRUE(CopyParameters(a, &b).ok());
  Tensor x = Tensor::Randn({1, 4}, r1);
  Tensor ya = a.Forward(x), yb = b.Forward(x);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(ya.data()[i], yb.data()[i]);
}

TEST(CopyParametersTest, MismatchedArchitectureRejected) {
  Rng rng(25);
  Linear a(4, 4, rng);
  MlpClassifier b(4, 4, 4, rng);
  EXPECT_FALSE(CopyParameters(a, &b).ok());
}

}  // namespace
}  // namespace taste::nn
