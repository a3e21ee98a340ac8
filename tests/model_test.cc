// Tests for the model layer: non-textual features, input encoding (layout,
// anchors, masks, splitting), the ADTD forward passes (shapes, asymmetric
// attention semantics), the latent cache, and short end-to-end training
// runs (MLM + fine-tuning) that must reduce loss.

#include <gtest/gtest.h>

#include <cstring>

#include "clouddb/database.h"
#include "data/table_generator.h"
#include "model/adtd.h"
#include "model/input_encoding.h"
#include "model/latent_cache.h"
#include "model/trainer.h"
#include "tensor/ops.h"

namespace taste::model {
namespace {

using tensor::Shape;
using tensor::Tensor;

// ---- shared fixtures --------------------------------------------------------

text::WordPieceTokenizer BuildTokenizer(const data::Dataset& ds) {
  text::WordPieceTrainer trainer({.vocab_size = 600, .min_pair_frequency = 2});
  for (const auto& doc : data::BuildCorpusDocuments(ds)) {
    trainer.AddDocument(doc);
  }
  return text::WordPieceTokenizer(trainer.Train());
}

struct Fixture {
  data::Dataset dataset;
  text::WordPieceTokenizer tokenizer;
  std::unique_ptr<clouddb::SimulatedDatabase> db;

  static Fixture Make(int tables = 12) {
    data::DatasetProfile profile = data::DatasetProfile::WikiLike(tables);
    data::Dataset ds = data::GenerateDataset(profile);
    text::WordPieceTokenizer tok = BuildTokenizer(ds);
    clouddb::CostModel cost;
    cost.time_scale = 0.0;
    return Fixture{std::move(ds), std::move(tok),
                   std::make_unique<clouddb::SimulatedDatabase>(cost)};
  }
};

clouddb::TableMetadata FirstTableMeta(Fixture& f) {
  TASTE_CHECK(f.db->IngestDataset(f.dataset, /*with_histograms=*/true).ok());
  auto conn = f.db->Connect();
  auto meta = conn->GetTableMetadata(f.dataset.tables[0].name);
  TASTE_CHECK(meta.ok());
  return *meta;
}

// ---- features ----------------------------------------------------------------

TEST(FeaturesTest, SqlTypeCategorization) {
  EXPECT_EQ(CategorizeSqlType("int"), SqlTypeCategory::kInteger);
  EXPECT_EQ(CategorizeSqlType("tinyint(1)"), SqlTypeCategory::kInteger);
  EXPECT_EQ(CategorizeSqlType("decimal(10,2)"), SqlTypeCategory::kDecimal);
  EXPECT_EQ(CategorizeSqlType("double"), SqlTypeCategory::kDecimal);
  EXPECT_EQ(CategorizeSqlType("varchar(20)"), SqlTypeCategory::kShortChar);
  EXPECT_EQ(CategorizeSqlType("varchar(255)"), SqlTypeCategory::kLongText);
  EXPECT_EQ(CategorizeSqlType("text"), SqlTypeCategory::kLongText);
  EXPECT_EQ(CategorizeSqlType("date"), SqlTypeCategory::kDate);
  EXPECT_EQ(CategorizeSqlType("time"), SqlTypeCategory::kTime);
  EXPECT_EQ(CategorizeSqlType("datetime"), SqlTypeCategory::kDatetime);
  EXPECT_EQ(CategorizeSqlType("geometry"), SqlTypeCategory::kOther);
}

TEST(FeaturesTest, OneHotBlockIsExclusive) {
  clouddb::ColumnMetadata cm;
  cm.data_type = "int";
  NonTextualFeatures f = ComputeFeatures(cm, 100, false);
  float sum = 0;
  for (int i = 0; i < static_cast<int>(SqlTypeCategory::kNumCategories); ++i) {
    sum += f.values[static_cast<size_t>(i)];
  }
  EXPECT_EQ(sum, 1.0f);
}

TEST(FeaturesTest, HistogramBlockGatedByFlag) {
  clouddb::ColumnMetadata cm;
  cm.data_type = "int";
  cm.histogram = clouddb::BuildHistogram({"1", "2", "3", "4"}, 4);
  NonTextualFeatures with = ComputeFeatures(cm, 4, /*use_histogram=*/true);
  NonTextualFeatures without = ComputeFeatures(cm, 4, /*use_histogram=*/false);
  EXPECT_EQ(with.values[16], 1.0f);    // histogram-present indicator
  EXPECT_EQ(without.values[16], 0.0f);
}

TEST(FeaturesTest, ValuesAreBounded) {
  clouddb::ColumnMetadata cm;
  cm.data_type = "varchar(255)";
  cm.num_distinct = 1000000;
  cm.null_fraction = 2.0;  // corrupt input still must not blow up
  cm.avg_length = 1e6;
  cm.min_value = "-99999999";
  NonTextualFeatures f = ComputeFeatures(cm, 10, true);
  for (float v : f.values) {
    EXPECT_GE(v, -1.0f);
    EXPECT_LE(v, 1.0f);
  }
}

// ---- input encoding -------------------------------------------------------------

TEST(SplitTest, SplitsWideTables) {
  clouddb::TableMetadata meta;
  meta.table_name = "wide";
  meta.columns.resize(45);
  for (int i = 0; i < 45; ++i) meta.columns[i].ordinal = i;
  auto chunks = SplitWideTable(meta, 20);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].columns.size(), 20u);
  EXPECT_EQ(chunks[2].columns.size(), 5u);
  EXPECT_EQ(chunks[2].columns[0].ordinal, 40);
  EXPECT_EQ(chunks[1].table_name, "wide");
}

TEST(SplitTest, NarrowTableSingleChunk) {
  clouddb::TableMetadata meta;
  meta.columns.resize(3);
  auto chunks = SplitWideTable(meta, 20);
  EXPECT_EQ(chunks.size(), 1u);
}

TEST(EncodingTest, MetadataLayoutAndAnchors) {
  Fixture f = Fixture::Make();
  clouddb::TableMetadata meta = FirstTableMeta(f);
  InputConfig cfg;
  InputEncoder enc(&f.tokenizer, cfg);
  EncodedMetadata em = enc.EncodeMetadata(meta);
  int ncols = static_cast<int>(meta.columns.size());
  EXPECT_EQ(em.num_columns, ncols);
  ASSERT_EQ(em.column_anchors.size(), static_cast<size_t>(ncols));
  // Expected total length: table segment + ncols * (1 + col_meta_tokens).
  EXPECT_EQ(static_cast<int>(em.token_ids.size()),
            cfg.table_tokens + ncols * (1 + cfg.col_meta_tokens));
  // Every anchor is a [CLS].
  EXPECT_EQ(em.token_ids[0], text::Vocab::kClsId);
  for (int a : em.column_anchors) {
    EXPECT_EQ(em.token_ids[static_cast<size_t>(a)], text::Vocab::kClsId);
  }
  EXPECT_EQ(em.features.shape(),
            (Shape{ncols, NonTextualFeatures::kDim}));
  int64_t sm = static_cast<int64_t>(em.token_ids.size());
  // Every query sees the same keys: one mask row.
  EXPECT_EQ(em.attention_mask.shape(), (Shape{1, sm}));
}

TEST(EncodingTest, MaskBlocksExactlyPadKeys) {
  Fixture f = Fixture::Make();
  clouddb::TableMetadata meta = FirstTableMeta(f);
  InputEncoder enc(&f.tokenizer, InputConfig{});
  EncodedMetadata em = enc.EncodeMetadata(meta);
  int64_t sm = static_cast<int64_t>(em.token_ids.size());
  for (int64_t k = 0; k < sm; ++k) {
    bool is_pad = em.token_ids[static_cast<size_t>(k)] == text::Vocab::kPadId;
    float m = em.attention_mask.data()[k];  // the one row every query uses
    EXPECT_EQ(m < -1e8f, is_pad) << "key " << k;
  }
}

TEST(EncodingTest, ContentSegmentsAndAnchors) {
  Fixture f = Fixture::Make();
  clouddb::TableMetadata meta = FirstTableMeta(f);
  InputConfig cfg;
  InputEncoder enc(&f.tokenizer, cfg);
  EncodedMetadata em = enc.EncodeMetadata(meta);
  std::map<int, std::vector<std::string>> content;
  content[0] = {"alpha", "beta", "gamma"};
  if (em.num_columns > 1) content[1] = {"1", "2"};
  EncodedContent ec = enc.EncodeContent(em, content);
  ASSERT_EQ(ec.scanned.size(), content.size());
  int seg = cfg.segment_len();
  EXPECT_EQ(static_cast<int>(ec.token_ids.size()),
            seg * static_cast<int>(content.size()));
  for (size_t i = 0; i < ec.scanned.size(); ++i) {
    EXPECT_EQ(ec.column_anchors[i], static_cast<int>(i) * seg);
    EXPECT_EQ(ec.token_ids[static_cast<size_t>(ec.column_anchors[i])],
              text::Vocab::kClsId);
  }
  int64_t segments = static_cast<int64_t>(ec.scanned.size());
  int64_t sm = static_cast<int64_t>(em.token_ids.size());
  // Column-segmented layout: metadata keys, then the query's own segment,
  // one row per segment.
  EXPECT_EQ(ec.cross_mask.shape(), (Shape{segments, sm + seg}));
}

TEST(EncodingTest, EmptyCellsSkipped) {
  Fixture f = Fixture::Make();
  clouddb::TableMetadata meta = FirstTableMeta(f);
  InputConfig cfg;
  InputEncoder enc(&f.tokenizer, cfg);
  EncodedMetadata em = enc.EncodeMetadata(meta);
  // All-empty column: content segment should be anchor + all PAD.
  std::map<int, std::vector<std::string>> content;
  content[0] = {"", "", ""};
  EncodedContent ec = enc.EncodeContent(em, content);
  for (size_t i = 1; i < ec.token_ids.size(); ++i) {
    EXPECT_EQ(ec.token_ids[i], text::Vocab::kPadId);
  }
}

TEST(EncodingTest, CrossMaskSeparatesColumns) {
  // Each mask row covers the metadata keys and then the keys of one
  // column segment, and every query of that segment uses it, so another
  // column's content has no key position at all. Own-segment and metadata PAD keys are blocked; the
  // metadata anchors (every column's, not just the query's) are open.
  Fixture f = Fixture::Make();
  clouddb::TableMetadata meta = FirstTableMeta(f);
  if (meta.columns.size() < 2) GTEST_SKIP();
  InputConfig cfg;
  InputEncoder enc(&f.tokenizer, cfg);
  EncodedMetadata em = enc.EncodeMetadata(meta);
  std::map<int, std::vector<std::string>> content;
  content[0] = {"london"};
  content[1] = {"paris", "rome"};
  EncodedContent ec = enc.EncodeContent(em, content);
  const int64_t sm = static_cast<int64_t>(em.token_ids.size());
  const int64_t seg = cfg.segment_len();
  const int64_t sc = static_cast<int64_t>(ec.token_ids.size());
  ASSERT_EQ(ec.cross_mask.shape(), (Shape{sc / seg, sm + seg}));
  bool saw_meta_pad = false;
  bool saw_own_pad = false;
  for (int64_t q = 0; q < sc; ++q) {
    const float* row = ec.cross_mask.data() + (q / seg) * (sm + seg);
    for (int64_t k = 0; k < sm; ++k) {
      const bool pad = em.token_ids[static_cast<size_t>(k)] ==
                       text::Vocab::kPadId;
      saw_meta_pad = saw_meta_pad || pad;
      EXPECT_EQ(row[k] < -1e8f, pad) << "query " << q << " meta key " << k;
    }
    for (int a : em.column_anchors) EXPECT_EQ(row[a], 0.0f) << "query " << q;
    const int64_t own = q - q % seg;  // first token of q's column segment
    for (int64_t k = 0; k < seg; ++k) {
      const bool pad = ec.token_ids[static_cast<size_t>(own + k)] ==
                       text::Vocab::kPadId;
      saw_own_pad = saw_own_pad || pad;
      EXPECT_EQ(row[sm + k] < -1e8f, pad) << "query " << q << " own key " << k;
    }
    EXPECT_EQ(row[sm], 0.0f) << "own [CLS] anchor open, query " << q;
  }
  // Both columns are sparse and the metadata padded, so both PAD rules ran.
  EXPECT_TRUE(saw_meta_pad);
  EXPECT_TRUE(saw_own_pad);
}

// ---- ADTD forward ------------------------------------------------------------------

struct ModelFixture {
  Fixture f;
  AdtdConfig cfg;
  std::unique_ptr<AdtdModel> model;
  std::unique_ptr<InputEncoder> encoder;

  static ModelFixture Make() {
    ModelFixture m{Fixture::Make(), {}, nullptr, nullptr};
    m.cfg = AdtdConfig::Tiny(m.f.tokenizer.vocab().size(),
                             data::SemanticTypeRegistry::Default().size());
    Rng rng(99);
    m.model = std::make_unique<AdtdModel>(m.cfg, rng);
    m.encoder = std::make_unique<InputEncoder>(&m.f.tokenizer, m.cfg.input);
    return m;
  }
};

TEST(AdtdTest, ParameterSharingBetweenTowers) {
  // There is exactly one encoder stack; "two towers" are dataflows. Verify
  // the parameter count matches one encoder + embeddings + two heads.
  ModelFixture m = ModelFixture::Make();
  Rng rng(1);
  nn::TransformerEncoder lone(m.cfg.encoder, rng);
  int64_t total = m.model->ParameterCount();
  // Must be far less than two encoders' worth.
  EXPECT_LT(total, 2 * lone.ParameterCount() +
                       m.cfg.vocab_size * m.cfg.encoder.hidden * 2);
}

TEST(AdtdTest, MetadataForwardShapes) {
  ModelFixture m = ModelFixture::Make();
  clouddb::TableMetadata meta = FirstTableMeta(m.f);
  EncodedMetadata em = m.encoder->EncodeMetadata(meta);
  tensor::NoGradGuard ng;
  auto out = m.model->ForwardMetadata(em);
  int64_t ncols = em.num_columns;
  EXPECT_EQ(out.logits.shape(), (Shape{ncols, m.cfg.num_types}));
  EXPECT_EQ(out.anchor_states.shape(), (Shape{ncols, m.cfg.encoder.hidden}));
  EXPECT_EQ(static_cast<int64_t>(out.layer_latents.size()),
            m.cfg.encoder.num_layers);
}

TEST(AdtdTest, ContentForwardShapes) {
  ModelFixture m = ModelFixture::Make();
  clouddb::TableMetadata meta = FirstTableMeta(m.f);
  EncodedMetadata em = m.encoder->EncodeMetadata(meta);
  std::map<int, std::vector<std::string>> content;
  content[0] = {"x", "y"};
  EncodedContent ec = m.encoder->EncodeContent(em, content);
  tensor::NoGradGuard ng;
  auto menc = m.model->ForwardMetadata(em);
  Tensor logits = m.model->ForwardContent(ec, em, menc);
  EXPECT_EQ(logits.shape(), (Shape{1, m.cfg.num_types}));
}

TEST(AdtdTest, DeterministicInference) {
  ModelFixture m = ModelFixture::Make();
  clouddb::TableMetadata meta = FirstTableMeta(m.f);
  EncodedMetadata em = m.encoder->EncodeMetadata(meta);
  tensor::NoGradGuard ng;
  auto a = m.model->ForwardMetadata(em);
  auto b = m.model->ForwardMetadata(em);
  for (int64_t i = 0; i < a.logits.numel(); ++i) {
    EXPECT_EQ(a.logits.data()[i], b.logits.data()[i]);
  }
}

TEST(AdtdTest, ContentOfOtherColumnDoesNotLeak) {
  // Column-segmented attention means column 0's P2 logits are invariant to
  // column 1's scanned values, bit for bit.
  ModelFixture m = ModelFixture::Make();
  clouddb::TableMetadata meta = FirstTableMeta(m.f);
  if (meta.columns.size() < 2) GTEST_SKIP();
  EncodedMetadata em = m.encoder->EncodeMetadata(meta);
  tensor::NoGradGuard ng;
  auto menc = m.model->ForwardMetadata(em);
  std::map<int, std::vector<std::string>> c1;
  c1[0] = {"london", "paris"};
  c1[1] = {"100", "200"};
  std::map<int, std::vector<std::string>> c2 = c1;
  c2[1] = {"totally", "different"};
  Tensor l1 = m.model->ForwardContent(m.encoder->EncodeContent(em, c1), em,
                                      menc);
  Tensor l2 = m.model->ForwardContent(m.encoder->EncodeContent(em, c2), em,
                                      menc);
  // Row 0 (column 0) byte-identical: column 0's segment has no key of
  // column 1 to attend to. Row 1 (column 1) differs.
  EXPECT_EQ(std::memcmp(l1.data(), l2.data(),
                        sizeof(float) * static_cast<size_t>(m.cfg.num_types)),
            0);
  float diff1 = 0;
  for (int64_t j = 0; j < m.cfg.num_types; ++j) {
    diff1 += std::abs(l1.data()[m.cfg.num_types + j] -
                      l2.data()[m.cfg.num_types + j]);
  }
  EXPECT_GT(diff1, 1e-4f);
}

TEST(AdtdTest, OwnContentInfluencesPrediction) {
  ModelFixture m = ModelFixture::Make();
  clouddb::TableMetadata meta = FirstTableMeta(m.f);
  EncodedMetadata em = m.encoder->EncodeMetadata(meta);
  tensor::NoGradGuard ng;
  auto menc = m.model->ForwardMetadata(em);
  std::map<int, std::vector<std::string>> c1, c2;
  c1[0] = {"london"};
  c2[0] = {"4111 1111 1111 1111"};
  Tensor l1 = m.model->ForwardContent(m.encoder->EncodeContent(em, c1), em,
                                      menc);
  Tensor l2 = m.model->ForwardContent(m.encoder->EncodeContent(em, c2), em,
                                      menc);
  float diff = 0;
  for (int64_t j = 0; j < m.cfg.num_types; ++j) {
    diff += std::abs(l1.data()[j] - l2.data()[j]);
  }
  EXPECT_GT(diff, 1e-4f);
}

TEST(AdtdTest, MlmLogitsShape) {
  ModelFixture m = ModelFixture::Make();
  tensor::NoGradGuard ng;
  Tensor logits = m.model->MlmLogits({2, 5, 6, 7});
  EXPECT_EQ(logits.shape(), (Shape{4, m.cfg.vocab_size}));
}

TEST(AdtdTest, LossWeightsStartAtOne) {
  ModelFixture m = ModelFixture::Make();
  auto [w1, w2] = m.model->loss_weights();
  EXPECT_EQ(w1, 1.0f);
  EXPECT_EQ(w2, 1.0f);
}

TEST(AdtdTest, MultiTaskLossIsFiniteAndPositive) {
  ModelFixture m = ModelFixture::Make();
  clouddb::TableMetadata meta = FirstTableMeta(m.f);
  EncodedMetadata em = m.encoder->EncodeMetadata(meta);
  std::map<int, std::vector<std::string>> content;
  content[0] = {"x"};
  EncodedContent ec = m.encoder->EncodeContent(em, content);
  auto menc = m.model->ForwardMetadata(em);
  Tensor cont = m.model->ForwardContent(ec, em, menc);
  Tensor targets = BuildTargets(
      std::vector<std::vector<int>>(static_cast<size_t>(em.num_columns), {0}),
      m.cfg.num_types);
  Tensor ct = tensor::GatherRows(targets, ec.scanned);
  Tensor loss = m.model->MultiTaskLoss(menc.logits, targets, cont, ct);
  EXPECT_TRUE(std::isfinite(loss.item()));
  EXPECT_GT(loss.item(), 0.0f);
}

TEST(AdtdTest, PaperConfigConstructs) {
  AdtdConfig cfg = AdtdConfig::Paper(1000, 255);
  EXPECT_EQ(cfg.encoder.hidden, 312);
  EXPECT_EQ(cfg.encoder.num_layers, 4);
  EXPECT_EQ(cfg.meta_classifier_hidden, 500);
  EXPECT_EQ(cfg.content_classifier_hidden, 1000);
  EXPECT_EQ(cfg.input.table_tokens, 150);
  Rng rng(3);
  AdtdModel model(cfg, rng);
  // ~14.5M parameters reported by the paper for this scale.
  EXPECT_GT(model.ParameterCount(), 5'000'000);
  EXPECT_LT(model.ParameterCount(), 20'000'000);
}

TEST(BuildTargetsTest, MultiHot) {
  Tensor t = BuildTargets({{0, 2}, {1}}, 3);
  EXPECT_EQ(t.shape(), (Shape{2, 3}));
  EXPECT_EQ(t.data()[0], 1.0f);
  EXPECT_EQ(t.data()[1], 0.0f);
  EXPECT_EQ(t.data()[2], 1.0f);
  EXPECT_EQ(t.data()[4], 1.0f);
}

// ---- latent cache -------------------------------------------------------------------

TEST(LatentCacheTest, PutGetRoundTrip) {
  LatentCache cache(4);
  CachedMetadata cm;
  cm.input.table_name = "t";
  cache.Put("t#0", cm);
  auto got = cache.Get("t#0");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->input.table_name, "t");
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_FALSE(cache.Get("missing").has_value());
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(LatentCacheTest, EvictsLeastRecentlyUsed) {
  LatentCache cache(2);
  cache.Put("a", {});
  cache.Put("b", {});
  (void)cache.Get("a");   // refresh a
  cache.Put("c", {});     // evicts b
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
  EXPECT_EQ(cache.stats().evictions, 1);
}

TEST(LatentCacheTest, CachedLatentsGiveIdenticalContentLogits) {
  // The headline property (paper Sec. 4.2.2): running P2 from cached
  // latents is exact, not approximate.
  ModelFixture m = ModelFixture::Make();
  clouddb::TableMetadata meta = FirstTableMeta(m.f);
  EncodedMetadata em = m.encoder->EncodeMetadata(meta);
  tensor::NoGradGuard ng;
  LatentCache cache(8);
  {
    auto menc = m.model->ForwardMetadata(em);
    cache.Put("k", {em, menc});
  }
  auto cached = cache.Get("k");
  ASSERT_TRUE(cached.has_value());
  std::map<int, std::vector<std::string>> content;
  content[0] = {"42"};
  EncodedContent ec = m.encoder->EncodeContent(em, content);
  Tensor from_cache =
      m.model->ForwardContent(ec, cached->input, cached->encoding);
  auto fresh = m.model->ForwardMetadata(em);
  Tensor recomputed = m.model->ForwardContent(ec, em, fresh);
  for (int64_t i = 0; i < from_cache.numel(); ++i) {
    EXPECT_EQ(from_cache.data()[i], recomputed.data()[i]);
  }
}

// ---- training ------------------------------------------------------------------------

TEST(TrainerTest, MlmLossDecreases) {
  Fixture f = Fixture::Make(20);
  AdtdConfig cfg = AdtdConfig::Tiny(f.tokenizer.vocab().size(),
                                    data::SemanticTypeRegistry::Default().size());
  Rng rng(5);
  AdtdModel model(cfg, rng);
  auto docs = data::BuildCorpusDocuments(f.dataset);
  PretrainOptions opt;
  opt.epochs = 1;
  opt.max_seq_len = 48;
  auto first = PretrainMlm(&model, docs, f.tokenizer, opt);
  ASSERT_TRUE(first.ok());
  opt.epochs = 3;
  auto later = PretrainMlm(&model, docs, f.tokenizer, opt);
  ASSERT_TRUE(later.ok());
  EXPECT_LT(*later, *first);
}

TEST(TrainerTest, MlmRejectsEmptyCorpus) {
  Fixture f = Fixture::Make(6);
  AdtdConfig cfg = AdtdConfig::Tiny(f.tokenizer.vocab().size(), 10);
  Rng rng(6);
  AdtdModel model(cfg, rng);
  auto res = PretrainMlm(&model, {}, f.tokenizer, {});
  EXPECT_FALSE(res.ok());
}

TEST(TrainerTest, FineTuneLossDecreases) {
  Fixture f = Fixture::Make(16);
  AdtdConfig cfg = AdtdConfig::Tiny(f.tokenizer.vocab().size(),
                                    data::SemanticTypeRegistry::Default().size());
  Rng rng(7);
  AdtdModel model(cfg, rng);
  FineTuner tuner(&model, &f.tokenizer);
  std::vector<int> idx;
  for (int i = 0; i < static_cast<int>(f.dataset.tables.size()); ++i) {
    idx.push_back(i);
  }
  FineTuneOptions opt;
  opt.epochs = 1;
  auto first = tuner.Train(f.dataset, idx, opt);
  ASSERT_TRUE(first.ok());
  opt.epochs = 4;
  auto later = tuner.Train(f.dataset, idx, opt);
  ASSERT_TRUE(later.ok());
  EXPECT_LT(*later, *first);
}

TEST(TrainerTest, FineTuneRejectsEmptyIndices) {
  Fixture f = Fixture::Make(6);
  AdtdConfig cfg = AdtdConfig::Tiny(f.tokenizer.vocab().size(), 10);
  Rng rng(8);
  AdtdModel model(cfg, rng);
  FineTuner tuner(&model, &f.tokenizer);
  EXPECT_FALSE(tuner.Train(f.dataset, {}, {}).ok());
}

TEST(TrainerTest, LossWeightsAdaptDuringTraining) {
  Fixture f = Fixture::Make(10);
  AdtdConfig cfg = AdtdConfig::Tiny(f.tokenizer.vocab().size(),
                                    data::SemanticTypeRegistry::Default().size());
  Rng rng(9);
  AdtdModel model(cfg, rng);
  FineTuner tuner(&model, &f.tokenizer);
  std::vector<int> idx;
  for (int i = 0; i < static_cast<int>(f.dataset.tables.size()); ++i) {
    idx.push_back(i);
  }
  FineTuneOptions opt;
  opt.epochs = 2;
  ASSERT_TRUE(tuner.Train(f.dataset, idx, opt).ok());
  auto [w1, w2] = model.loss_weights();
  EXPECT_TRUE(w1 != 1.0f || w2 != 1.0f);
}

}  // namespace
}  // namespace taste::model
