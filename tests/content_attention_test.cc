// Equivalence of the column-segmented content tower with the dense masked
// cross-attention it replaced. The reference below rebuilds the ADTD
// towers from the model's own parameter values and runs every content
// layer as TransformerBlock::Forward(c, concat(meta, c), &dense_mask), with
// the (sc, sm+sc) mask that blocks PAD keys and every other column's
// content keys. Column-segmented ForwardContent logits must match it within
// 1e-5 (relative to the largest reference logit), and the parameter
// gradients of one training step within 1e-4 (relative to each
// parameter's largest reference gradient).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "model/adtd.h"
#include "model/input_encoding.h"
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

/// The ADTD towers the content path uses, registered under AdtdModel's
/// parameter names so their values can be copied over one for one, with
/// the content tower written as dense masked cross-attention.
class DenseReference : public nn::Module {
 public:
  DenseReference(const AdtdConfig& cfg, Rng& rng)
      : tok_emb_(cfg.vocab_size, cfg.encoder.hidden, rng),
        pos_emb_(cfg.encoder.max_seq_len, cfg.encoder.hidden, rng),
        emb_norm_(cfg.encoder.hidden),
        encoder_(cfg.encoder, rng),
        cont_clf_(2 * cfg.encoder.hidden + NonTextualFeatures::kDim,
                  cfg.content_classifier_hidden, cfg.num_types, rng) {
    RegisterModule("tok_emb", &tok_emb_);
    RegisterModule("pos_emb", &pos_emb_);
    RegisterModule("emb_norm", &emb_norm_);
    RegisterModule("encoder", &encoder_);
    RegisterModule("cont_clf", &cont_clf_);
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

  AdtdModel::MetadataEncoding ForwardMetadata(const EncodedMetadata& em) {
    AdtdModel::MetadataEncoding out;
    Tensor h = Embed(em.token_ids);
    out.layer_latents.push_back(h);
    for (int64_t i = 0; i < encoder_.num_layers(); ++i) {
      h = encoder_.block(i).Forward(h, &em.attention_mask);
      out.layer_latents.push_back(h);
    }
    out.anchor_states = tensor::GatherRows(h, em.column_anchors);
    return out;
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
    Tensor clf_in = tensor::ConcatCols(
        tensor::ConcatCols(tensor::GatherRows(c, ec.column_anchors),
                           tensor::GatherRows(menc.anchor_states, ec.scanned)),
        tensor::GatherRows(em.features, ec.scanned));
    return cont_clf_.Forward(clf_in);
  }

 private:
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
  nn::MlpClassifier cont_clf_;
};

struct Rig {
  text::WordPieceTokenizer tokenizer = MakeTokenizer();
  AdtdConfig cfg;
  std::unique_ptr<AdtdModel> model;
  std::unique_ptr<DenseReference> reference;
  std::unique_ptr<InputEncoder> encoder;

  Rig() {
    cfg = AdtdConfig::Tiny(tokenizer.vocab().size(), 12);
    Rng rng(7);
    model = std::make_unique<AdtdModel>(cfg, rng);
    Rng other(8);
    reference = std::make_unique<DenseReference>(cfg, other);
    reference->CopyFrom(*model);
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

TEST(ContentAttentionTest, BatchedItemsMatchSoloBytes) {
  // Items of different widths (one all-PAD column among them) share one
  // ForwardContentBatch; each item's logits equal its solo forward's.
  Rig rig;
  const EncodedMetadata wide = rig.encoder->EncodeMetadata(MakeTable(16));
  const EncodedMetadata narrow = rig.encoder->EncodeMetadata(MakeTable(3));
  const EncodedContent wide_c =
      rig.encoder->EncodeContent(wide, MakeContent(16));
  const EncodedContent narrow_c =
      rig.encoder->EncodeContent(narrow, MakeContent(3, {0}));
  tensor::NoGradGuard no_grad;
  const AdtdModel::MetadataEncoding wide_m = rig.model->ForwardMetadata(wide);
  const AdtdModel::MetadataEncoding narrow_m =
      rig.model->ForwardMetadata(narrow);
  const std::vector<Tensor> batch = rig.model->ForwardContentBatch(
      {{&narrow_c, &narrow, &narrow_m}, {&wide_c, &wide, &wide_m},
       {&narrow_c, &narrow, &narrow_m}});
  ASSERT_EQ(batch.size(), 3u);
  const Tensor solo[] = {rig.model->ForwardContent(narrow_c, narrow, narrow_m),
                         rig.model->ForwardContent(wide_c, wide, wide_m),
                         rig.model->ForwardContent(narrow_c, narrow, narrow_m)};
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_EQ(batch[i].shape(), solo[i].shape());
    EXPECT_EQ(std::memcmp(batch[i].data(), solo[i].data(),
                          sizeof(float) * static_cast<size_t>(solo[i].numel())),
              0)
        << "item " << i;
  }
}

}  // namespace
}  // namespace taste::model
