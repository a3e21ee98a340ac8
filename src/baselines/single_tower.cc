#include "baselines/single_tower.h"

#include "tensor/ops.h"
#include "tensor/optimizer.h"

namespace taste::baselines {

using model::InputConfig;
using model::NonTextualFeatures;
using tensor::Tensor;

namespace {
constexpr float kMaskBlocked = -1e9f;
}

SingleTowerConfig SingleTowerConfig::TurlLike(int vocab_size, int num_types) {
  SingleTowerConfig c;
  c.encoder = {.num_layers = 2,
               .num_heads = 4,
               .max_seq_len = 512,
               .intermediate = 128,
               .hidden = 48,
               .dropout = 0.0f};
  c.input = InputConfig{};
  c.vocab_size = vocab_size;
  c.num_types = num_types;
  c.classifier_hidden = 128;
  c.style = AttentionStyle::kColumnScoped;
  return c;
}

SingleTowerConfig SingleTowerConfig::DoduoLike(int vocab_size, int num_types) {
  SingleTowerConfig c;
  c.encoder = {.num_layers = 2,
               .num_heads = 5,
               .max_seq_len = 768,
               .intermediate = 320,
               .hidden = 80,
               .dropout = 0.0f};
  c.input = InputConfig{};
  c.vocab_size = vocab_size;
  c.num_types = num_types;
  c.classifier_hidden = 256;
  c.style = AttentionStyle::kGlobal;
  return c;
}

SingleTowerEncoder::SingleTowerEncoder(
    const text::WordPieceTokenizer* tokenizer, const SingleTowerConfig& config)
    : tokenizer_(tokenizer), config_(config) {
  TASTE_CHECK(tokenizer_ != nullptr);
}

SingleTowerEncoding SingleTowerEncoder::Encode(
    const clouddb::TableMetadata& meta,
    const std::map<int, std::vector<std::string>>& content) const {
  const InputConfig& in = config_.input;
  SingleTowerEncoding out;
  out.num_columns = static_cast<int>(meta.columns.size());
  std::vector<int> column_of_token;  // -1 = table segment

  auto append_fixed = [&](const std::string& text, int len, int col) {
    std::vector<int> ids = tokenizer_->EncodeFixed(text, len);
    out.token_ids.insert(out.token_ids.end(), ids.begin(), ids.end());
    column_of_token.insert(column_of_token.end(), ids.size(), col);
  };

  // Table segment.
  out.token_ids.push_back(text::Vocab::kClsId);
  column_of_token.push_back(-1);
  append_fixed(meta.table_name + " " + meta.comment, in.table_tokens - 1, -1);

  // Column segments: anchor + metadata text + content cells.
  std::vector<float> feat_data;
  for (size_t c = 0; c < meta.columns.size(); ++c) {
    const auto& col = meta.columns[c];
    out.column_anchors.push_back(static_cast<int>(out.token_ids.size()));
    out.column_ordinals.push_back(col.ordinal);
    out.column_names.push_back(col.column_name);
    out.token_ids.push_back(text::Vocab::kClsId);
    column_of_token.push_back(static_cast<int>(c));
    append_fixed(col.column_name + " " + col.comment + " " + col.data_type,
                 in.col_meta_tokens, static_cast<int>(c));
    // Content: first n non-empty cells, each cell_tokens wide; absent or
    // empty content leaves the slots as [PAD] ("empty string" input).
    int taken = 0;
    auto it = content.find(static_cast<int>(c));
    if (it != content.end()) {
      for (const auto& v : it->second) {
        if (v.empty()) continue;
        if (taken >= in.cells_per_column) break;
        append_fixed(v, in.cell_tokens, static_cast<int>(c));
        ++taken;
      }
    }
    int missing = (in.cells_per_column - taken) * in.cell_tokens;
    for (int p = 0; p < missing; ++p) {
      out.token_ids.push_back(text::Vocab::kPadId);
      column_of_token.push_back(static_cast<int>(c));
    }
    NonTextualFeatures f =
        model::ComputeFeatures(col, meta.num_rows, in.use_histograms);
    feat_data.insert(feat_data.end(), f.values.begin(), f.values.end());
  }
  out.features = Tensor::FromVector(
      {static_cast<int64_t>(meta.columns.size()), NonTextualFeatures::kDim},
      std::move(feat_data));

  // Attention mask.
  int64_t s = static_cast<int64_t>(out.token_ids.size());
  std::vector<float> mask(static_cast<size_t>(s * s), 0.0f);
  for (int64_t k = 0; k < s; ++k) {
    bool pad = out.token_ids[static_cast<size_t>(k)] == text::Vocab::kPadId;
    for (int64_t q = 0; q < s; ++q) {
      bool blocked = pad;
      if (!blocked && config_.style == AttentionStyle::kColumnScoped) {
        int qc = column_of_token[static_cast<size_t>(q)];
        int kc = column_of_token[static_cast<size_t>(k)];
        // Column tokens see the table segment and their own column.
        blocked = (kc != -1 && qc != -1 && kc != qc) || (qc == -1 && kc != -1);
      }
      if (blocked) mask[static_cast<size_t>(q * s + k)] = kMaskBlocked;
    }
  }
  out.attention_mask = Tensor::FromVector({s, s}, std::move(mask));
  return out;
}

SingleTowerModel::SingleTowerModel(const SingleTowerConfig& config, Rng& rng)
    : config_(config),
      token_embedding_(config.vocab_size, config.encoder.hidden, rng),
      position_embedding_(config.encoder.max_seq_len, config.encoder.hidden,
                          rng),
      embedding_norm_(config.encoder.hidden),
      encoder_(config.encoder, rng),
      classifier_(config.encoder.hidden + NonTextualFeatures::kDim,
                  config.classifier_hidden, config.num_types, rng) {
  TASTE_CHECK(config.vocab_size > 0 && config.num_types > 0);
  RegisterModule("tok_emb", &token_embedding_);
  RegisterModule("pos_emb", &position_embedding_);
  RegisterModule("emb_norm", &embedding_norm_);
  RegisterModule("encoder", &encoder_);
  RegisterModule("clf", &classifier_);
}

Tensor SingleTowerModel::Embed(const std::vector<int>& ids) const {
  TASTE_CHECK_MSG(
      static_cast<int64_t>(ids.size()) <= config_.encoder.max_seq_len,
      "sequence exceeds max_seq_len");
  std::vector<int> positions(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) positions[i] = static_cast<int>(i);
  return embedding_norm_.Forward(tensor::Add(
      token_embedding_.Forward(ids), position_embedding_.Forward(positions)));
}

Tensor SingleTowerModel::Forward(const SingleTowerEncoding& input) const {
  TASTE_CHECK(input.num_columns > 0);
  Tensor h = encoder_.Forward(Embed(input.token_ids), &input.attention_mask);
  Tensor anchors = tensor::GatherRows(h, input.column_anchors);
  return classifier_.Forward(tensor::ConcatCols(anchors, input.features));
}

Tensor SingleTowerModel::Loss(const Tensor& logits,
                              const Tensor& targets) const {
  return tensor::BceWithLogits(logits, targets, config_.bce_pos_weight);
}

Tensor SingleTowerModel::MlmLogits(const std::vector<int>& ids) const {
  Tensor h = encoder_.Forward(Embed(ids));
  return tensor::MatMul(h, tensor::TransposeLast2(token_embedding_.weight()));
}

model::MlmModelHooks SingleTowerModel::MlmHooks() {
  model::MlmModelHooks hooks;
  hooks.mlm_logits = [this](const std::vector<int>& ids) {
    return MlmLogits(ids);
  };
  hooks.parameters = Parameters();
  hooks.set_training = [this](bool t) { SetTraining(t); };
  hooks.vocab_size = config_.vocab_size;
  hooks.max_seq_len = static_cast<int>(config_.encoder.max_seq_len);
  return hooks;
}

SingleTowerDetector::SingleTowerDetector(
    const SingleTowerModel* model, const text::WordPieceTokenizer* tokenizer,
    SingleTowerOptions options)
    : model_(model), options_(options), encoder_(tokenizer, model->config()) {
  TASTE_CHECK(model_ != nullptr);
}

Result<core::TableDetectionResult> SingleTowerDetector::DetectTable(
    clouddb::Connection* conn, const std::string& table_name) const {
  TASTE_CHECK(conn != nullptr);
  TASTE_ASSIGN_OR_RETURN(clouddb::TableMetadata full_meta,
                         conn->GetTableMetadata(table_name));
  if (full_meta.columns.empty()) {
    return Status::Invalid("table has no columns: " + table_name);
  }
  core::TableDetectionResult result;
  result.table_name = table_name;
  tensor::NoGradGuard no_grad;
  const int num_types = model_->config().num_types;
  for (const auto& chunk : model::SplitWideTable(
           full_meta, model_->config().input.column_split_threshold)) {
    std::map<int, std::vector<std::string>> content;
    if (options_.include_content) {
      std::vector<std::string> names;
      for (const auto& c : chunk.columns) names.push_back(c.column_name);
      TASTE_ASSIGN_OR_RETURN(
          auto values,
          conn->ScanColumns(table_name, names,
                            {.random_sample = options_.random_sample,
                             .sample_seed = options_.sample_seed}));
      for (size_t i = 0; i < values.size(); ++i) {
        content[static_cast<int>(i)] = std::move(values[i]);
      }
      result.columns_scanned += static_cast<int>(chunk.columns.size());
    }
    SingleTowerEncoding enc = encoder_.Encode(chunk, content);
    Tensor logits = model_->Forward(enc);
    std::vector<float> probs = tensor::SigmoidValues(logits);
    for (int c = 0; c < enc.num_columns; ++c) {
      core::ColumnPrediction pred;
      pred.column_name = enc.column_names[static_cast<size_t>(c)];
      pred.ordinal = enc.column_ordinals[static_cast<size_t>(c)];
      pred.went_to_p2 = options_.include_content;
      pred.probabilities.assign(
          probs.begin() + static_cast<size_t>(c) * num_types,
          probs.begin() + static_cast<size_t>(c + 1) * num_types);
      for (int s = 0; s < num_types; ++s) {
        if (pred.probabilities[static_cast<size_t>(s)] >=
            options_.admit_threshold) {
          pred.admitted_types.push_back(s);
        }
      }
      result.columns.push_back(std::move(pred));
      ++result.total_columns;
    }
  }
  return result;
}

Result<double> TrainSingleTower(SingleTowerModel* model,
                                const text::WordPieceTokenizer* tokenizer,
                                const data::Dataset& dataset,
                                const std::vector<int>& table_indices,
                                const model::FineTuneOptions& options) {
  TASTE_CHECK(model != nullptr && tokenizer != nullptr);
  if (table_indices.empty()) {
    return Status::Invalid("TrainSingleTower: no training tables");
  }
  clouddb::CostModel cost;
  cost.time_scale = 0.0;
  clouddb::SimulatedDatabase db(cost);
  for (int idx : table_indices) {
    TASTE_RETURN_IF_ERROR(db.CreateTable(dataset.tables[idx]));
    if (model->config().input.use_histograms) {
      TASTE_RETURN_IF_ERROR(db.AnalyzeTable(dataset.tables[idx].name));
    }
  }
  auto conn = db.Connect();
  SingleTowerEncoder encoder(tokenizer, model->config());
  tensor::Adam opt(model->Parameters(),
                   {.lr = options.lr, .clip_norm = options.clip_norm});
  model->SetTraining(true);
  Rng rng(options.seed);
  double final_epoch_loss = 0;
  const double total_tables =
      static_cast<double>(options.epochs) * table_indices.size();
  double tables_seen = 0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    std::vector<int> order = table_indices;
    rng.Shuffle(order);
    double epoch_loss = 0;
    int steps = 0;
    for (int idx : order) {
      double progress = tables_seen / total_tables;
      opt.set_lr(static_cast<float>(
          options.lr *
          (1.0 - (1.0 - options.final_lr_fraction) * progress)));
      ++tables_seen;
      const data::TableSpec& spec = dataset.tables[static_cast<size_t>(idx)];
      auto meta_res = conn->GetTableMetadata(spec.name);
      TASTE_RETURN_IF_ERROR(meta_res.status());
      for (const auto& chunk : model::SplitWideTable(
               *meta_res, model->config().input.column_split_threshold)) {
        if (chunk.columns.empty()) continue;
        std::vector<std::string> names;
        for (const auto& c : chunk.columns) names.push_back(c.column_name);
        auto scan = conn->ScanColumns(
            spec.name, names,
            {.random_sample = options.random_sample,
             .sample_seed = options.sample_seed});
        TASTE_RETURN_IF_ERROR(scan.status());
        std::map<int, std::vector<std::string>> content;
        for (size_t i = 0; i < scan->size(); ++i) {
          content[static_cast<int>(i)] = std::move((*scan)[i]);
        }
        SingleTowerEncoding enc = encoder.Encode(chunk, content);
        std::vector<std::vector<int>> labels;
        for (int ordinal : enc.column_ordinals) {
          labels.push_back(spec.columns[static_cast<size_t>(ordinal)].labels);
        }
        Tensor targets =
            model::BuildTargets(labels, model->config().num_types);
        Tensor loss = model->Loss(model->Forward(enc), targets);
        loss.Backward();
        opt.Step();
        epoch_loss += loss.item();
        ++steps;
      }
    }
    TASTE_CHECK(steps > 0);
    final_epoch_loss = epoch_loss / steps;
  }
  model->SetTraining(false);
  return final_epoch_loss;
}

}  // namespace taste::baselines
