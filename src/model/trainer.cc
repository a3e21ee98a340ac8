#include "model/trainer.h"

#include <algorithm>
#include <map>

#include "clouddb/database.h"
#include "common/logging.h"
#include "tensor/optimizer.h"
#include "tensor/ops.h"

namespace taste::model {

using tensor::Tensor;

Result<double> PretrainMlm(AdtdModel* model,
                           const std::vector<std::string>& documents,
                           const text::WordPieceTokenizer& tokenizer,
                           const PretrainOptions& options) {
  TASTE_CHECK(model != nullptr);
  MlmModelHooks hooks;
  hooks.mlm_logits = [model](const std::vector<int>& ids) {
    return model->MlmLogits(ids);
  };
  hooks.parameters = model->Parameters();
  hooks.set_training = [model](bool t) { model->SetTraining(t); };
  hooks.vocab_size = model->config().vocab_size;
  hooks.max_seq_len = static_cast<int>(model->config().encoder.max_seq_len);
  return PretrainMlmWithHooks(hooks, documents, tokenizer, options);
}

Result<double> PretrainMlmWithHooks(const MlmModelHooks& hooks,
                                    const std::vector<std::string>& documents,
                                    const text::WordPieceTokenizer& tokenizer,
                                    const PretrainOptions& options) {
  if (documents.empty()) {
    return Status::Invalid("PretrainMlm: empty document corpus");
  }
  if (options.max_seq_len < 4 || options.max_seq_len > hooks.max_seq_len) {
    return Status::Invalid("PretrainMlm: bad max_seq_len");
  }
  const int vocab = hooks.vocab_size;
  Rng rng(options.seed);
  tensor::Adam opt(hooks.parameters,
                   {.lr = options.lr, .clip_norm = options.clip_norm});
  hooks.set_training(true);
  double final_epoch_loss = 0.0;
  size_t num_docs = options.max_documents > 0
                        ? std::min(documents.size(), options.max_documents)
                        : documents.size();
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    std::vector<size_t> order(num_docs);
    for (size_t i = 0; i < num_docs; ++i) order[i] = i;
    rng.Shuffle(order);
    double epoch_loss = 0;
    int steps = 0;
    for (size_t doc_idx : order) {
      std::vector<int> ids = tokenizer.Encode(documents[doc_idx]);
      if (ids.size() < 8) continue;
      // Random window of max_seq_len tokens.
      size_t window = std::min<size_t>(ids.size(),
                                       static_cast<size_t>(options.max_seq_len));
      size_t start =
          ids.size() == window
              ? 0
              : static_cast<size_t>(rng.NextBelow(ids.size() - window + 1));
      std::vector<int> input(ids.begin() + start,
                             ids.begin() + start + window);
      // BERT masking: 15% of positions are prediction targets; of those
      // 80% -> [MASK], 10% -> random token, 10% -> unchanged.
      std::vector<int> targets(input.size(), -1);
      int masked = 0;
      for (size_t i = 0; i < input.size(); ++i) {
        if (!rng.NextBool(options.mask_prob)) continue;
        targets[i] = input[i];
        ++masked;
        double r = rng.NextDouble();
        if (r < 0.8) {
          input[i] = text::Vocab::kMaskId;
        } else if (r < 0.9) {
          input[i] = static_cast<int>(rng.NextBelow(vocab));
        }
      }
      if (masked == 0) continue;
      Tensor logits = hooks.mlm_logits(input);
      Tensor loss = tensor::CrossEntropyWithLogits(logits, targets, -1);
      loss.Backward();
      opt.Step();
      epoch_loss += loss.item();
      ++steps;
      if (options.log_every > 0 && steps % options.log_every == 0) {
        TASTE_LOG(Info) << "mlm epoch " << epoch << " step " << steps
                        << " loss " << loss.item();
      }
    }
    if (steps == 0) {
      return Status::Invalid("PretrainMlm: no usable documents");
    }
    final_epoch_loss = epoch_loss / steps;
  }
  hooks.set_training(false);
  return final_epoch_loss;
}

FineTuner::FineTuner(AdtdModel* model,
                     const text::WordPieceTokenizer* tokenizer)
    : model_(model), tokenizer_(tokenizer) {
  TASTE_CHECK(model_ != nullptr && tokenizer_ != nullptr);
}

Result<double> FineTuner::Train(const data::Dataset& dataset,
                                const std::vector<int>& table_indices,
                                const FineTuneOptions& options) {
  if (table_indices.empty()) {
    return Status::Invalid("FineTuner: no training tables");
  }
  const AdtdConfig& cfg = model_->config();

  // Stage the training tables in an in-process simulated database so the
  // metadata / statistics / histogram code paths match serving exactly.
  clouddb::CostModel cost;
  cost.time_scale = 0.0;
  clouddb::SimulatedDatabase db(cost);
  for (int idx : table_indices) {
    TASTE_CHECK(idx >= 0 && idx < static_cast<int>(dataset.tables.size()));
    TASTE_RETURN_IF_ERROR(db.CreateTable(dataset.tables[idx]));
    if (cfg.input.use_histograms) {
      TASTE_RETURN_IF_ERROR(db.AnalyzeTable(dataset.tables[idx].name));
    }
  }
  auto conn = db.Connect();
  InputEncoder encoder(tokenizer_, cfg.input);

  std::vector<tensor::Tensor> params;
  for (const auto& [pname, p] : model_->NamedParameters()) {
    if (options.freeze_loss_weights && pname.rfind("loss_w", 0) == 0) {
      continue;
    }
    if (options.classifier_only && pname.rfind("meta_clf", 0) != 0 &&
        pname.rfind("cont_clf", 0) != 0 && pname.rfind("loss_w", 0) != 0) {
      continue;
    }
    params.push_back(p);
  }
  TASTE_CHECK(!params.empty());
  tensor::Adam opt(params,
                   {.lr = options.lr, .clip_norm = options.clip_norm});
  model_->SetTraining(true);
  Rng rng(options.seed);
  double final_epoch_loss = 0.0;
  const double total_tables =
      static_cast<double>(options.epochs) * table_indices.size();
  double tables_seen = 0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    std::vector<int> order = table_indices;
    rng.Shuffle(order);
    double epoch_loss = 0;
    int steps = 0;
    for (int idx : order) {
      // Linear LR decay to final_lr_fraction of the initial rate.
      double progress = tables_seen / total_tables;
      opt.set_lr(static_cast<float>(
          options.lr *
          (1.0 - (1.0 - options.final_lr_fraction) * progress)));
      ++tables_seen;
      const data::TableSpec& spec = dataset.tables[static_cast<size_t>(idx)];
      auto meta_res = conn->GetTableMetadata(spec.name);
      TASTE_RETURN_IF_ERROR(meta_res.status());
      for (const auto& chunk :
           SplitWideTable(*meta_res, cfg.input.column_split_threshold)) {
        if (chunk.columns.empty()) continue;
        EncodedMetadata meta = encoder.EncodeMetadata(chunk);
        // Training uses full information: content for every column.
        std::vector<std::string> col_names;
        for (const auto& c : chunk.columns) col_names.push_back(c.column_name);
        auto scan = conn->ScanColumns(
            spec.name, col_names,
            {.random_sample = options.random_sample,
             .sample_seed = options.sample_seed});
        TASTE_RETURN_IF_ERROR(scan.status());
        std::map<int, std::vector<std::string>> content_map;
        for (size_t i = 0; i < scan->size(); ++i) {
          content_map[static_cast<int>(i)] = std::move((*scan)[i]);
        }
        EncodedContent content = encoder.EncodeContent(meta, content_map);

        std::vector<std::vector<int>> labels;
        for (int ordinal : meta.column_ordinals) {
          labels.push_back(
              spec.columns[static_cast<size_t>(ordinal)].labels);
        }
        Tensor targets = BuildTargets(labels, cfg.num_types);

        auto meta_enc = model_->ForwardMetadata(meta);
        Tensor loss;
        if (content.scanned.empty()) {
          loss = model_->MetaOnlyLoss(meta_enc.logits, targets);
        } else {
          Tensor cont_logits =
              model_->ForwardContent(content, meta, meta_enc);
          Tensor cont_targets = tensor::GatherRows(targets, content.scanned);
          loss = model_->MultiTaskLoss(meta_enc.logits, targets, cont_logits,
                                       cont_targets);
        }
        loss.Backward();
        opt.Step();
        epoch_loss += loss.item();
        ++steps;
      }
      if (options.log_every > 0 && steps % options.log_every == 0) {
        TASTE_LOG(Info) << "finetune epoch " << epoch << " step " << steps
                        << " avg loss " << epoch_loss / steps;
      }
    }
    TASTE_CHECK(steps > 0);
    final_epoch_loss = epoch_loss / steps;
  }
  model_->SetTraining(false);
  return final_epoch_loss;
}

}  // namespace taste::model
