// Equivalence of the ADTD towers with the reference forms they replaced.
// The reference below rebuilds the towers from the model's own parameter
// values.
//
// Column segmentation: the reference runs every content layer as
// TransformerBlock::Forward(c, concat(meta, c), &dense_mask), with the
// (sc, sm+sc) mask that blocks PAD keys and every other column's content
// keys. Column-segmented ForwardContent logits must match it within 1e-5
// (relative to the largest reference logit), and the parameter gradients
// of one training step within 1e-4 (relative to each parameter's largest
// reference gradient).
//
// The last layer at the anchors: the reference runs every layer of both
// towers over every row (dense Forward for the metadata tower, with its
// mask row written out per query row, and ForwardSegmented for the content
// tower), then gathers the anchor rows. The model's anchor states, latents
// and logits, and one training step's parameter gradients, must equal it
// bit for bit, in fp32 and int8. Without a tape the model projects only
// the anchor rows' queries; with one, it projects every row and gathers,
// and the two must give the same bytes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "model/adtd.h"
#include "model/input_encoding.h"
#include "model/latent_cache.h"
#include "tensor/exec_context.h"
#include "tensor/ops.h"

namespace taste::model {
namespace {

using tensor::Tensor;

constexpr float kMaskBlocked = -1e9f;

text::WordPieceTokenizer MakeTokenizer() {
  text::WordPieceTrainer trainer({.vocab_size = 240});
  for (int i = 0; i < 4; ++i) {
    trainer.AddDocument(
        "customer orders placed by customers order_id customer_name email "
        "city country price quantity created_at london paris rome berlin "
        "alice bob carol 2021-03-04 19.99 4111 1111 user@example.com");
  }
  return text::WordPieceTokenizer(trainer.Train());
}

clouddb::TableMetadata MakeTable(int ncols) {
  static const char* kNames[] = {"order_id", "customer_name", "email",
                                 "city",     "country",       "price",
                                 "quantity", "created_at"};
  clouddb::TableMetadata meta;
  meta.table_name = "customer_orders";
  meta.comment = "orders placed by customers";
  meta.num_rows = 1000;
  for (int i = 0; i < ncols; ++i) {
    clouddb::ColumnMetadata col;
    col.table_name = meta.table_name;
    col.column_name = kNames[i % 8];
    col.data_type = i % 2 == 0 ? "INT" : "VARCHAR(64)";
    col.ordinal = i;
    col.num_distinct = 10 + i;
    col.avg_length = 4.0 + i;
    meta.columns.push_back(col);
  }
  return meta;
}

/// Scanned values for `ncols` columns; columns listed in `empty` get only
/// empty cells, so their segment is [CLS] followed by PAD.
std::map<int, std::vector<std::string>> MakeContent(
    int ncols, const std::vector<int>& empty = {}) {
  static const char* kCells[] = {"london", "alice", "19.99", "2021-03-04",
                                 "paris",  "bob",   "4111",  "rome"};
  std::map<int, std::vector<std::string>> content;
  for (int c = 0; c < ncols; ++c) {
    std::vector<std::string>& cells = content[c];
    const bool is_empty =
        std::find(empty.begin(), empty.end(), c) != empty.end();
    for (int r = 0; r < 2 + c % 5; ++r) {
      cells.push_back(is_empty ? "" : kCells[(c + 3 * r) % 8]);
    }
  }
  return content;
}

/// The dense (sc, sm+sc) content cross mask: a content query may attend
/// every non-PAD metadata key and the non-PAD keys of its own column.
Tensor DenseCrossMask(const EncodedContent& ec, const EncodedMetadata& em) {
  const int64_t sc = static_cast<int64_t>(ec.token_ids.size());
  const int64_t sm = static_cast<int64_t>(em.token_ids.size());
  const int64_t seg = sc / static_cast<int64_t>(ec.scanned.size());
  std::vector<float> mask(static_cast<size_t>(sc * (sm + sc)), kMaskBlocked);
  for (int64_t q = 0; q < sc; ++q) {
    float* row = mask.data() + q * (sm + sc);
    for (int64_t k = 0; k < sm; ++k) {
      if (em.token_ids[static_cast<size_t>(k)] != text::Vocab::kPadId) {
        row[k] = 0.0f;
      }
    }
    for (int64_t k = 0; k < sc; ++k) {
      if (k / seg == q / seg &&
          ec.token_ids[static_cast<size_t>(k)] != text::Vocab::kPadId) {
        row[sm + k] = 0.0f;
      }
    }
  }
  return Tensor::FromVector({sc, sm + sc}, std::move(mask));
}

/// The ADTD towers, registered under AdtdModel's parameter names so their
/// values can be copied over one for one, with every layer of both towers
/// run over every row: the content tower as dense masked cross-attention or
/// column-segmented, the metadata tower as dense self-attention.
class DenseReference : public nn::Module {
 public:
  DenseReference(const AdtdConfig& cfg, Rng& rng)
      : tok_emb_(cfg.vocab_size, cfg.encoder.hidden, rng),
        pos_emb_(cfg.encoder.max_seq_len, cfg.encoder.hidden, rng),
        emb_norm_(cfg.encoder.hidden),
        encoder_(cfg.encoder, rng),
        meta_clf_(cfg.encoder.hidden + NonTextualFeatures::kDim,
                  cfg.meta_classifier_hidden, cfg.num_types, rng),
        cont_clf_(2 * cfg.encoder.hidden + NonTextualFeatures::kDim,
                  cfg.content_classifier_hidden, cfg.num_types, rng) {
    RegisterModule("tok_emb", &tok_emb_);
    RegisterModule("pos_emb", &pos_emb_);
    RegisterModule("emb_norm", &emb_norm_);
    RegisterModule("encoder", &encoder_);
    RegisterModule("meta_clf", &meta_clf_);
    RegisterModule("cont_clf", &cont_clf_);
  }

  /// The int8 panels AdtdModel::PrepackQuantWeights packs.
  void PrepackQuant() {
    encoder_.PrepackQuant();
    cont_clf_.PrepackQuant();
  }

  void CopyFrom(const AdtdModel& model) {
    std::map<std::string, Tensor> source;
    for (auto& [name, t] : model.NamedParameters()) source[name] = t;
    for (auto& [name, t] : NamedParameters()) {
      auto it = source.find(name);
      ASSERT_NE(it, source.end()) << name;
      ASSERT_EQ(it->second.shape(), t.shape()) << name;
      std::memcpy(t.data(), it->second.data(),
                  sizeof(float) * static_cast<size_t>(t.numel()));
    }
  }

  /// Every layer over every row, then the anchors: L+1 latents. The mask
  /// is the encoder's one row written out once per query row.
  AdtdModel::MetadataEncoding ForwardMetadata(const EncodedMetadata& em) {
    AdtdModel::MetadataEncoding out;
    const Tensor mask = tensor::GatherRows(
        em.attention_mask, std::vector<int>(em.token_ids.size(), 0));
    Tensor h = Embed(em.token_ids);
    out.layer_latents.push_back(h);
    for (int64_t i = 0; i < encoder_.num_layers(); ++i) {
      h = encoder_.block(i).Forward(h, &mask);
      out.layer_latents.push_back(h);
    }
    out.anchor_states = tensor::GatherRows(h, em.column_anchors);
    out.logits =
        meta_clf_.Forward(tensor::ConcatCols(out.anchor_states, em.features));
    return out;
  }

  /// Every content layer column-segmented over every row, then the
  /// anchors; under an int8 `ctx` the prepacked Linears run quantized, as
  /// in AdtdModel::ForwardContent.
  Tensor ForwardContentSegmented(const EncodedContent& ec,
                                 const EncodedMetadata& em,
                                 const AdtdModel::MetadataEncoding& menc,
                                 tensor::ExecContext* ctx = nullptr) {
    tensor::ScopedExecContext scope(ctx);
    tensor::ScopedQuantRegion quant_region(tensor::ExecContext::Current());
    const int64_t segments = static_cast<int64_t>(ec.scanned.size());
    Tensor c = Embed(ec.token_ids);
    for (int64_t i = 0; i < encoder_.num_layers(); ++i) {
      const nn::SegmentGroup group{
          .memory = &menc.layer_latents[static_cast<size_t>(i)],
          .mask = &ec.cross_mask,
          .segments = segments,
          .segment_len = c.dim(0) / segments};
      c = encoder_.block(i).ForwardSegmented(c, group);
    }
    return Classify(tensor::GatherRows(c, ec.column_anchors), ec, em, menc);
  }

  Tensor ForwardContent(const EncodedContent& ec, const EncodedMetadata& em,
                        const AdtdModel::MetadataEncoding& menc) {
    const Tensor dense_mask = DenseCrossMask(ec, em);
    Tensor c = Embed(ec.token_ids);
    for (int64_t i = 0; i < encoder_.num_layers(); ++i) {
      Tensor kv = tensor::ConcatRows(
          {menc.layer_latents[static_cast<size_t>(i)], c});
      c = encoder_.block(i).Forward(c, kv, &dense_mask);
    }
    return Classify(tensor::GatherRows(c, ec.column_anchors), ec, em, menc);
  }

 private:
  Tensor Classify(const Tensor& content_anchors, const EncodedContent& ec,
                  const EncodedMetadata& em,
                  const AdtdModel::MetadataEncoding& menc) {
    Tensor clf_in = tensor::ConcatCols(
        tensor::ConcatCols(content_anchors,
                           tensor::GatherRows(menc.anchor_states, ec.scanned)),
        tensor::GatherRows(em.features, ec.scanned));
    return cont_clf_.Forward(clf_in);
  }

  Tensor Embed(const std::vector<int>& ids) {
    std::vector<int> positions(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) positions[i] = static_cast<int>(i);
    return emb_norm_.Forward(
        tensor::Add(tok_emb_.Forward(ids), pos_emb_.Forward(positions)));
  }

  nn::Embedding tok_emb_;
  nn::Embedding pos_emb_;
  nn::LayerNorm emb_norm_;
  nn::TransformerEncoder encoder_;
  nn::MlpClassifier meta_clf_;
  nn::MlpClassifier cont_clf_;
};

struct Rig {
  text::WordPieceTokenizer tokenizer = MakeTokenizer();
  AdtdConfig cfg;
  std::unique_ptr<AdtdModel> model;
  std::unique_ptr<DenseReference> reference;
  std::unique_ptr<InputEncoder> encoder;

  /// `prepack` packs the int8 panels of both sides.
  explicit Rig(bool prepack = false) {
    cfg = AdtdConfig::Tiny(tokenizer.vocab().size(), 12);
    Rng rng(7);
    model = std::make_unique<AdtdModel>(cfg, rng);
    Rng other(8);
    reference = std::make_unique<DenseReference>(cfg, other);
    reference->CopyFrom(*model);
    if (prepack) {
      model->PrepackQuantWeights();
      reference->PrepackQuant();
    }
    encoder = std::make_unique<InputEncoder>(&tokenizer, cfg.input);
  }
};

double MaxAbs(const float* b, int64_t n) {
  double m = 0.0;
  for (int64_t i = 0; i < n; ++i) m = std::max(m, std::fabs(double{b[i]}));
  return m;
}

/// Largest |a - b| over max(largest |b|, floor).
double RelativeMaxDiff(const float* a, const float* b, int64_t n,
                       double floor = 1e-30) {
  double diff = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    diff = std::max(diff, std::fabs(double{a[i]} - double{b[i]}));
  }
  return diff / std::max(MaxAbs(b, n), floor);
}

void ExpectLogitsMatchDense(int ncols, const std::vector<int>& empty = {}) {
  Rig rig;
  const EncodedMetadata em = rig.encoder->EncodeMetadata(MakeTable(ncols));
  const EncodedContent ec =
      rig.encoder->EncodeContent(em, MakeContent(ncols, empty));
  tensor::NoGradGuard no_grad;
  const AdtdModel::MetadataEncoding menc = rig.model->ForwardMetadata(em);
  const Tensor got = rig.model->ForwardContent(ec, em, menc);
  const Tensor want = rig.reference->ForwardContent(ec, em, menc);
  ASSERT_EQ(got.shape(), want.shape());
  ASSERT_EQ(got.dim(0), ncols);
  EXPECT_LE(RelativeMaxDiff(got.data(), want.data(), got.numel()), 1e-5);
}

TEST(ContentAttentionTest, OneColumnMatchesDenseReference) {
  ExpectLogitsMatchDense(1);
}

TEST(ContentAttentionTest, MaxColumnsPerBatchMatchesDenseReference) {
  // The widest content batch the detector forms: max_seq_len / segment_len
  // columns (16 at the Tiny configuration).
  Rig rig;
  const int max_cols = static_cast<int>(rig.cfg.encoder.max_seq_len /
                                        rig.cfg.input.segment_len());
  ASSERT_EQ(max_cols, 16);
  ExpectLogitsMatchDense(max_cols);
}

TEST(ContentAttentionTest, AllPadColumnMatchesDenseReference) {
  // Column 1 scanned only empty cells: its segment is [CLS] + PAD, so its
  // queries see the metadata and their own [CLS] only.
  ExpectLogitsMatchDense(3, {1});
  ExpectLogitsMatchDense(1, {0});
}

TEST(ContentAttentionTest, TrainingStepGradientsMatchDenseReference) {
  Rig rig;
  rig.model->SetTraining(true);
  rig.reference->SetTraining(true);
  const int ncols = 5;
  const EncodedMetadata em = rig.encoder->EncodeMetadata(MakeTable(ncols));
  const EncodedContent ec =
      rig.encoder->EncodeContent(em, MakeContent(ncols, {2}));
  std::vector<std::vector<int>> labels;
  for (int c = 0; c < ncols; ++c) labels.push_back({c % rig.cfg.num_types});
  const Tensor targets = BuildTargets(labels, rig.cfg.num_types);

  // The content loss reaches every parameter the content tower reads,
  // including the metadata tower through the K/V memory and the anchors.
  const AdtdModel::MetadataEncoding menc = rig.model->ForwardMetadata(em);
  Tensor loss = tensor::BceWithLogits(rig.model->ForwardContent(ec, em, menc),
                                      targets, rig.cfg.bce_pos_weight);
  loss.Backward();
  const AdtdModel::MetadataEncoding ref_menc =
      rig.reference->ForwardMetadata(em);
  Tensor ref_loss = tensor::BceWithLogits(
      rig.reference->ForwardContent(ec, em, ref_menc), targets,
      rig.cfg.bce_pos_weight);
  ref_loss.Backward();
  EXPECT_NEAR(loss.item(), ref_loss.item(), 1e-5 * std::fabs(ref_loss.item()));

  // The key biases' true gradient is zero (softmax ignores a vector added
  // to every key), so theirs is rounding noise on both sides; the scale
  // floor, 1e-6 of the largest gradient, keeps noise from counting.
  std::map<std::string, Tensor> model_params;
  for (auto& [name, t] : rig.model->NamedParameters()) model_params[name] = t;
  double largest = 0.0;
  for (auto& [name, ref] : rig.reference->NamedParameters()) {
    if (!ref.HasGrad()) continue;
    largest = std::max(largest, MaxAbs(ref.grad().data(), ref.numel()));
  }
  int compared = 0;
  for (auto& [name, ref] : rig.reference->NamedParameters()) {
    const Tensor& got = model_params.at(name);
    ASSERT_EQ(got.HasGrad(), ref.HasGrad()) << name;
    if (!ref.HasGrad()) continue;
    EXPECT_LE(RelativeMaxDiff(got.grad().data(), ref.grad().data(),
                              ref.numel(), 1e-6 * largest),
              1e-4)
        << name;
    ++compared;
  }
  // Embeddings, both encoder layers' attention/FFN/norms, the classifier.
  EXPECT_GE(compared, 30);
}

// -- The last layer at the anchors -------------------------------------------

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     sizeof(float) * static_cast<size_t>(a.numel())) == 0;
}

tensor::ExecContext::Options CtxOptions(tensor::P2Dtype dtype) {
  tensor::ExecContext::Options o;
  o.no_grad = true;
  o.p2_dtype = dtype;
  return o;
}

/// P1 and P2 of one content batch, through the model under `ctx` and
/// through the full-last-layer reference under `ref_ctx`, bit for bit.
void ExpectAnchorParity(Rig& rig, const EncodedMetadata& em,
                        const EncodedContent& ec, tensor::ExecContext* ctx,
                        tensor::ExecContext* ref_ctx) {
  tensor::NoGradGuard no_grad;
  const AdtdModel::MetadataEncoding got = rig.model->ForwardMetadata(em, ctx);
  const AdtdModel::MetadataEncoding want = rig.reference->ForwardMetadata(em);
  const size_t layers = static_cast<size_t>(rig.cfg.encoder.num_layers);
  ASSERT_EQ(got.layer_latents.size(), layers);
  ASSERT_EQ(want.layer_latents.size(), layers + 1);
  for (size_t i = 0; i < layers; ++i) {
    EXPECT_TRUE(SameBytes(got.layer_latents[i], want.layer_latents[i]))
        << "latent " << i;
  }
  EXPECT_TRUE(SameBytes(got.anchor_states, want.anchor_states));
  EXPECT_TRUE(SameBytes(got.logits, want.logits));
  EXPECT_TRUE(SameBytes(
      rig.model->ForwardContent(ec, em, got, ctx),
      rig.reference->ForwardContentSegmented(ec, em, want, ref_ctx)));
}

/// Runs ExpectAnchorParity over 1, 3 and 16 columns and tables with an
/// all-PAD column, with the model under `ctx`.
void ExpectAnchorParityAcrossWidths(Rig& rig, tensor::ExecContext* ctx,
                                    tensor::ExecContext* ref_ctx) {
  const std::vector<std::pair<int, std::vector<int>>> cases = {
      {1, {}}, {3, {}}, {16, {}}, {3, {1}}, {1, {0}}};
  for (const auto& [ncols, empty] : cases) {
    SCOPED_TRACE(::testing::Message() << ncols << " columns, "
                                      << empty.size() << " all-PAD");
    const EncodedMetadata em = rig.encoder->EncodeMetadata(MakeTable(ncols));
    const EncodedContent ec =
        rig.encoder->EncodeContent(em, MakeContent(ncols, empty));
    ExpectAnchorParity(rig, em, ec, ctx, ref_ctx);
  }
}

TEST(AnchorLayerTest, Fp32MatchesFullLastLayerBits) {
  Rig rig;
  ExpectAnchorParityAcrossWidths(rig, nullptr, nullptr);
}

TEST(AnchorLayerTest, Int8MatchesFullLastLayerBits) {
  Rig rig(/*prepack=*/true);
  tensor::ExecContext ctx(CtxOptions(tensor::P2Dtype::kInt8));
  tensor::ExecContext ref_ctx(CtxOptions(tensor::P2Dtype::kInt8));
  ExpectAnchorParityAcrossWidths(rig, &ctx, &ref_ctx);
  // The int8 window reached the kernels: fp32 logits differ.
  const EncodedMetadata em = rig.encoder->EncodeMetadata(MakeTable(3));
  const EncodedContent ec = rig.encoder->EncodeContent(em, MakeContent(3));
  tensor::NoGradGuard no_grad;
  const AdtdModel::MetadataEncoding menc = rig.model->ForwardMetadata(em);
  EXPECT_FALSE(SameBytes(rig.model->ForwardContent(ec, em, menc, &ctx),
                         rig.model->ForwardContent(ec, em, menc)));
}

TEST(AnchorLayerTest, NoGradForwardsMatchRecordedBits) {
  // A recorded forward (gradients on, model in eval mode) projects every
  // row of the last layer and gathers the anchors; a forward without a
  // tape gathers first. P1 never enters the int8 window, so under an int8
  // context both P1 forms are fp32 and must agree too. (Int8 P2 runs only
  // without a tape; Int8MatchesFullLastLayerBits pins it to the full last
  // layer.)
  Rig rig(/*prepack=*/true);
  for (tensor::P2Dtype dtype :
       {tensor::P2Dtype::kFp32, tensor::P2Dtype::kInt8}) {
    SCOPED_TRACE(tensor::P2DtypeName(dtype));
    tensor::ExecContext::Options recorded_opt = CtxOptions(dtype);
    recorded_opt.no_grad = false;
    tensor::ExecContext recorded_ctx(recorded_opt);
    tensor::ExecContext no_grad_ctx(CtxOptions(dtype));
    for (const auto& [ncols, empty] :
         std::vector<std::pair<int, std::vector<int>>>{
             {1, {}}, {3, {1}}, {16, {}}}) {
      SCOPED_TRACE(::testing::Message() << ncols << " columns");
      const EncodedMetadata em = rig.encoder->EncodeMetadata(MakeTable(ncols));
      const EncodedContent ec =
          rig.encoder->EncodeContent(em, MakeContent(ncols, empty));
      const AdtdModel::MetadataEncoding recorded =
          rig.model->ForwardMetadata(em, &recorded_ctx);
      ASSERT_TRUE(recorded.anchor_states.requires_grad());
      const AdtdModel::MetadataEncoding got =
          rig.model->ForwardMetadata(em, &no_grad_ctx);
      ASSERT_FALSE(got.anchor_states.requires_grad());
      EXPECT_TRUE(SameBytes(got.anchor_states, recorded.anchor_states));
      EXPECT_TRUE(SameBytes(got.logits, recorded.logits));
      if (dtype == tensor::P2Dtype::kFp32) {
        EXPECT_TRUE(
            SameBytes(rig.model->ForwardContent(ec, em, got, &no_grad_ctx),
                      rig.model->ForwardContent(ec, em, recorded,
                                                &recorded_ctx)));
      }
    }
  }
}

TEST(AnchorLayerTest, PooledContextMatchesSerialFullLastLayer) {
  // The model under a serving context, whose buffer pool hands later
  // forwards recycled buffers, against the reference under another.
  Rig rig(/*prepack=*/true);
  for (tensor::P2Dtype dtype : {tensor::P2Dtype::kFp32, tensor::P2Dtype::kInt8}) {
    SCOPED_TRACE(tensor::P2DtypeName(dtype));
    tensor::ExecContext pooled(CtxOptions(dtype));
    tensor::ExecContext serial(CtxOptions(dtype));
    ExpectAnchorParityAcrossWidths(rig, &pooled, &serial);
  }
}

TEST(AnchorLayerTest, ChunkedTableMatchesFullLastLayerBits) {
  // A 20-column table split into chunks of at most 8 columns by l.
  Rig rig;
  const auto chunks = SplitWideTable(MakeTable(20), 8);
  ASSERT_EQ(chunks.size(), 3u);
  for (const clouddb::TableMetadata& chunk : chunks) {
    const int ncols = static_cast<int>(chunk.columns.size());
    SCOPED_TRACE(::testing::Message() << "chunk of " << ncols);
    const EncodedMetadata em = rig.encoder->EncodeMetadata(chunk);
    const EncodedContent ec =
        rig.encoder->EncodeContent(em, MakeContent(ncols, {ncols - 1}));
    ExpectAnchorParity(rig, em, ec, nullptr, nullptr);
  }
}

TEST(AnchorLayerTest, TrainingStepGradientsMatchFullLastLayerBits) {
  // Both towers' BCE losses: the metadata loss reaches the metadata
  // tower's last layer and classifier, the content loss every parameter
  // the content tower reads. The rows the reference adds carry zero
  // gradient, zeros add exactly, and the anchor path accumulates the
  // gradient of Encode_{L-1} in the reference's order, so every gradient
  // is bitwise equal.
  Rig rig;
  rig.model->SetTraining(true);
  rig.reference->SetTraining(true);
  const int ncols = 5;
  const EncodedMetadata em = rig.encoder->EncodeMetadata(MakeTable(ncols));
  const EncodedContent ec =
      rig.encoder->EncodeContent(em, MakeContent(ncols, {2}));
  std::vector<std::vector<int>> labels;
  for (int c = 0; c < ncols; ++c) labels.push_back({c % rig.cfg.num_types});
  const Tensor targets = BuildTargets(labels, rig.cfg.num_types);
  const float pos_weight = rig.cfg.bce_pos_weight;

  const AdtdModel::MetadataEncoding menc = rig.model->ForwardMetadata(em);
  Tensor loss = tensor::Add(
      tensor::BceWithLogits(menc.logits, targets, pos_weight),
      tensor::BceWithLogits(rig.model->ForwardContent(ec, em, menc), targets,
                            pos_weight));
  loss.Backward();
  const AdtdModel::MetadataEncoding ref_menc =
      rig.reference->ForwardMetadata(em);
  Tensor ref_loss = tensor::Add(
      tensor::BceWithLogits(ref_menc.logits, targets, pos_weight),
      tensor::BceWithLogits(
          rig.reference->ForwardContentSegmented(ec, em, ref_menc), targets,
          pos_weight));
  ref_loss.Backward();
  EXPECT_TRUE(SameBytes(loss, ref_loss));

  std::map<std::string, Tensor> model_params;
  for (auto& [name, t] : rig.model->NamedParameters()) model_params[name] = t;
  int compared = 0;
  for (auto& [name, ref] : rig.reference->NamedParameters()) {
    const Tensor& got = model_params.at(name);
    ASSERT_EQ(got.HasGrad(), ref.HasGrad()) << name;
    if (!ref.HasGrad()) continue;
    EXPECT_EQ(std::memcmp(got.grad().data(), ref.grad().data(),
                          sizeof(float) * static_cast<size_t>(ref.numel())),
              0)
        << name;
    ++compared;
  }
  // Embeddings, both encoder layers' attention/FFN/norms, both classifiers.
  EXPECT_EQ(compared, 44);
}

// -- Content-forward bytes across contexts, dtypes and latent sources --------
//
// The int8 contract (DESIGN.md §12) is weaker than fp32 identity but just
// as hard: the same bytes across runs, contexts and replicas, never the
// fp32 bytes. And the latents P2 attends over must not matter by source:
// a latent-cache hit and a metadata-tower recompute give the same logits.

/// The content batches of 1, 3 (one all-PAD column) and 16 columns.
struct WidthCase {
  EncodedMetadata em;
  EncodedContent ec;
};

std::vector<WidthCase> WidthCases(const Rig& rig) {
  std::vector<WidthCase> cases;
  for (const auto& [ncols, empty] :
       std::vector<std::pair<int, std::vector<int>>>{
           {1, {}}, {3, {1}}, {16, {}}}) {
    WidthCase wc;
    wc.em = rig.encoder->EncodeMetadata(MakeTable(ncols));
    wc.ec = rig.encoder->EncodeContent(wc.em, MakeContent(ncols, empty));
    cases.push_back(std::move(wc));
  }
  return cases;
}

TEST(ContentForwardBytesTest, Int8RunToRunBytesStableAcrossContexts) {
  // Replica byte-agreement proxy: independent int8 contexts (fresh buffer
  // pools, as two forked replicas would have) produce the same bytes for
  // the same content batches.
  Rig rig(/*prepack=*/true);
  tensor::ExecContext ctx_a(CtxOptions(tensor::P2Dtype::kInt8));
  tensor::ExecContext ctx_b(CtxOptions(tensor::P2Dtype::kInt8));
  tensor::NoGradGuard no_grad;
  for (const WidthCase& wc : WidthCases(rig)) {
    SCOPED_TRACE(::testing::Message() << wc.em.num_columns << " columns");
    const AdtdModel::MetadataEncoding menc = rig.model->ForwardMetadata(wc.em);
    const Tensor run_a = rig.model->ForwardContent(wc.ec, wc.em, menc, &ctx_a);
    EXPECT_TRUE(SameBytes(
        run_a, rig.model->ForwardContent(wc.ec, wc.em, menc, &ctx_b)));
    // A second run on a context whose pool now holds recycled buffers.
    EXPECT_TRUE(SameBytes(
        run_a, rig.model->ForwardContent(wc.ec, wc.em, menc, &ctx_a)))
        << "rerun";
  }
}

TEST(ContentForwardBytesTest, Int8P1AndCacheBytesAreDtypeIndependent) {
  // The quant region only covers content forwards: P1 metadata latents —
  // what the latent cache stores — must be byte-identical under an int8
  // context, so cache entries written by an fp32 process are valid in an
  // int8 one and vice versa.
  Rig rig(/*prepack=*/true);
  tensor::ExecContext int8_ctx(CtxOptions(tensor::P2Dtype::kInt8));
  tensor::NoGradGuard no_grad;
  for (const WidthCase& wc : WidthCases(rig)) {
    SCOPED_TRACE(::testing::Message() << wc.em.num_columns << " columns");
    const AdtdModel::MetadataEncoding fp32 = rig.model->ForwardMetadata(wc.em);
    const AdtdModel::MetadataEncoding int8 =
        rig.model->ForwardMetadata(wc.em, &int8_ctx);
    ASSERT_EQ(fp32.layer_latents.size(), int8.layer_latents.size());
    for (size_t l = 0; l < fp32.layer_latents.size(); ++l) {
      EXPECT_TRUE(SameBytes(fp32.layer_latents[l], int8.layer_latents[l]))
          << "layer " << l;
    }
    EXPECT_TRUE(SameBytes(fp32.anchor_states, int8.anchor_states));
    EXPECT_TRUE(SameBytes(fp32.logits, int8.logits));
  }
}

TEST(ContentForwardBytesTest, CacheHitAndMissLatentsProduceSameBytes) {
  // The latents a content forward attends over come from the latent cache
  // (hit) or a metadata-tower recompute (miss after eviction). Both hold
  // bitwise-equal tensors, so P2's logits must not depend on which one is
  // plugged in, in fp32 or int8.
  Rig rig(/*prepack=*/true);
  tensor::NoGradGuard no_grad;
  for (tensor::P2Dtype dtype :
       {tensor::P2Dtype::kFp32, tensor::P2Dtype::kInt8}) {
    SCOPED_TRACE(tensor::P2DtypeName(dtype));
    tensor::ExecContext ctx(CtxOptions(dtype));
    for (const WidthCase& wc : WidthCases(rig)) {
      SCOPED_TRACE(::testing::Message() << wc.em.num_columns << " columns");
      LatentCache cache(/*capacity=*/4);
      cache.Put("t#0", {wc.em, rig.model->ForwardMetadata(wc.em)});
      const std::optional<CachedMetadata> hit = cache.Get("t#0");
      ASSERT_TRUE(hit.has_value());
      const AdtdModel::MetadataEncoding miss =
          rig.model->ForwardMetadata(wc.em);
      EXPECT_TRUE(SameBytes(
          rig.model->ForwardContent(wc.ec, wc.em, hit->encoding, &ctx),
          rig.model->ForwardContent(wc.ec, wc.em, miss, &ctx)));
    }
  }
}

}  // namespace
}  // namespace taste::model
