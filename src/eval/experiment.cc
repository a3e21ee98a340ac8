#include "eval/experiment.h"

#include <filesystem>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "nn/serialize.h"

namespace taste::eval {

namespace {

using data::SemanticTypeRegistry;

/// Loads `module` from the cache if present; otherwise runs `train` and
/// saves. Returns true when the model came from cache. When `quant_scales`
/// is non-null it receives the cached checkpoint's quantization manifest
/// (empty when trained fresh or the file predates format v3).
Result<bool> LoadOrTrain(nn::Module* module, const std::string& cache_dir,
                         const std::string& key,
                         const std::function<Status()>& train,
                         nn::QuantScalesMap* quant_scales = nullptr) {
  std::string path;
  if (!cache_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cache_dir, ec);
    path = cache_dir + "/" + key + ".ckpt";
    if (std::filesystem::exists(path)) {
      Status st = nn::LoadCheckpoint(module, path, quant_scales);
      if (st.ok()) {
        TASTE_LOG(Info) << "loaded cached model " << path;
        return true;
      }
      TASTE_LOG(Warn) << "cache load failed (" << st.ToString()
                      << "), retraining";
    }
  }
  TASTE_RETURN_IF_ERROR(train());
  if (!path.empty()) {
    TASTE_RETURN_IF_ERROR(nn::SaveCheckpoint(*module, path));
    TASTE_LOG(Info) << "cached model " << path;
  }
  return false;
}

/// Bump when the training recipe changes in ways StackOptions cannot see
/// (loss shape, model defaults, ...) so stale cached checkpoints are not
/// silently reused.
constexpr int kStackCacheVersion = 2;

std::string StackKey(const std::string& name, const StackOptions& o) {
  return StrFormat("cv%d_%s_n%d_v%d_p%d_f%d_lr%g_s%llu", kStackCacheVersion,
                   name.c_str(), o.num_tables, o.vocab_size,
                   o.pretrain_epochs, o.finetune_epochs,
                   static_cast<double>(o.finetune_lr),
                   static_cast<unsigned long long>(o.seed));
}

}  // namespace

Result<TrainedStack> BuildStackFromDataset(const std::string& name,
                                           data::Dataset dataset,
                                           const StackOptions& options) {
  const SemanticTypeRegistry& registry = SemanticTypeRegistry::Default();
  TrainedStack stack;
  stack.name = name;
  stack.dataset = std::move(dataset);

  // Corpus documents of the training split: the tokenizer trains on them
  // (deterministic, so it is recomputed rather than cached), and so does
  // MLM pre-training.
  std::vector<std::string> docs;
  docs.reserve(stack.dataset.train.size());
  for (int idx : stack.dataset.train) {
    docs.push_back(data::TableDocument(stack.dataset.tables[idx]));
  }
  Stopwatch sw;
  {
    text::WordPieceTrainer trainer(
        {.vocab_size = options.vocab_size, .min_pair_frequency = 2});
    for (const std::string& doc : docs) trainer.AddDocument(doc);
    stack.tokenizer =
        std::make_unique<text::WordPieceTokenizer>(trainer.Train());
  }
  TASTE_LOG(Info) << name << ": tokenizer trained (vocab "
                  << stack.tokenizer->vocab().size() << ") in "
                  << StrFormat("%.1fs", sw.ElapsedSeconds());

  const int vocab = stack.tokenizer->vocab().size();
  const int num_types = registry.size();
  const std::string base_key = StackKey(name, options);

  auto train_adtd = [&](bool with_hist) -> Result<
                        std::unique_ptr<model::AdtdModel>> {
    model::AdtdConfig cfg = model::AdtdConfig::Tiny(vocab, num_types);
    cfg.input.use_histograms = with_hist;
    Rng rng(options.seed + (with_hist ? 1 : 0));
    auto m = std::make_unique<model::AdtdModel>(cfg, rng);
    std::string key = base_key + (with_hist ? "_adtd_hist" : "_adtd");
    Stopwatch train_sw;
    nn::QuantScalesMap stored_scales;
    TASTE_ASSIGN_OR_RETURN(
        bool cached,
        LoadOrTrain(
            m.get(), options.cache_dir, key,
            [&]() -> Status {
              model::PretrainOptions pre;
              pre.epochs = options.pretrain_epochs;
              pre.seed = options.seed;
              TASTE_ASSIGN_OR_RETURN(
                  double mlm_loss,
                  PretrainMlm(m.get(), docs, *stack.tokenizer, pre));
              model::FineTuner tuner(m.get(), stack.tokenizer.get());
              model::FineTuneOptions ft;
              ft.epochs = options.finetune_epochs;
              ft.lr = options.finetune_lr;
              ft.seed = options.seed;
              TASTE_ASSIGN_OR_RETURN(
                  double ft_loss,
                  tuner.Train(stack.dataset, stack.dataset.train, ft));
              TASTE_LOG(Info) << key << ": mlm loss "
                              << StrFormat("%.3f", mlm_loss)
                              << ", finetune loss " << StrFormat("%.4f",
                                                                 ft_loss);
              // Prepack before LoadOrTrain saves, so the checkpoint carries
              // the quantization manifest the int8 path was certified with.
              m->PrepackQuantWeights();
              return Status::OK();
            },
            &stored_scales));
    if (!cached) {
      TASTE_LOG(Info) << key << ": trained in "
                      << StrFormat("%.1fs", train_sw.ElapsedSeconds());
    } else {
      // Re-pack from the loaded fp32 weights and cross-check against the
      // manifest stored in the checkpoint: quantization is deterministic,
      // so any mismatch means the fp32 bytes or packer drifted from what
      // the accuracy gate certified.
      int64_t packed_bytes = m->PrepackQuantWeights();
      if (!stored_scales.empty()) {
        TASTE_RETURN_IF_ERROR(m->VerifyQuantScales(stored_scales));
      }
      TASTE_LOG(Info) << key << ": int8 weights prepacked ("
                      << packed_bytes / 1024 << " KiB resident)";
    }
    return m;
  };

  if (options.train_adtd) {
    TASTE_ASSIGN_OR_RETURN(stack.adtd, train_adtd(false));
  }
  if (options.train_adtd_hist) {
    TASTE_ASSIGN_OR_RETURN(stack.adtd_hist, train_adtd(true));
  }

  if (options.train_baselines) {
    auto train_single =
        [&](baselines::SingleTowerConfig cfg, const std::string& tag)
        -> Result<std::unique_ptr<baselines::SingleTowerModel>> {
      Rng rng(options.seed + 17);
      auto m = std::make_unique<baselines::SingleTowerModel>(cfg, rng);
      std::string key = base_key + "_" + tag;
      Stopwatch train_sw;
      TASTE_ASSIGN_OR_RETURN(
          bool cached,
          LoadOrTrain(m.get(), options.cache_dir, key, [&]() -> Status {
            model::PretrainOptions pre;
            pre.epochs = options.pretrain_epochs;
            pre.seed = options.seed;
            TASTE_ASSIGN_OR_RETURN(
                double mlm_loss,
                PretrainMlmWithHooks(m->MlmHooks(), docs, *stack.tokenizer,
                                     pre));
            model::FineTuneOptions ft;
            ft.epochs = options.finetune_epochs;
            ft.lr = options.finetune_lr;
            ft.seed = options.seed;
            TASTE_ASSIGN_OR_RETURN(
                double ft_loss,
                baselines::TrainSingleTower(m.get(), stack.tokenizer.get(),
                                            stack.dataset,
                                            stack.dataset.train, ft));
            TASTE_LOG(Info) << key << ": mlm loss "
                            << StrFormat("%.3f", mlm_loss)
                            << ", finetune loss " << StrFormat("%.4f", ft_loss);
            return Status::OK();
          }));
      if (!cached) {
        TASTE_LOG(Info) << key << ": trained in "
                        << StrFormat("%.1fs", train_sw.ElapsedSeconds());
      }
      return m;
    };
    TASTE_ASSIGN_OR_RETURN(
        stack.turl,
        train_single(baselines::SingleTowerConfig::TurlLike(vocab, num_types),
                     "turl"));
    TASTE_ASSIGN_OR_RETURN(
        stack.doduo,
        train_single(baselines::SingleTowerConfig::DoduoLike(vocab, num_types),
                     "doduo"));
  }
  return stack;
}

Result<TrainedStack> BuildStack(data::DatasetProfile profile,
                                const StackOptions& options) {
  profile.num_tables = options.num_tables;
  data::Dataset dataset = data::GenerateDataset(profile);
  return BuildStackFromDataset(profile.name, std::move(dataset), options);
}

Result<std::unique_ptr<clouddb::SimulatedDatabase>> MakeTestDatabase(
    const data::Dataset& dataset, const std::vector<int>& indices,
    bool with_histograms, clouddb::CostModel cost) {
  auto db = std::make_unique<clouddb::SimulatedDatabase>(cost);
  for (int idx : indices) {
    TASTE_CHECK(idx >= 0 && idx < static_cast<int>(dataset.tables.size()));
    TASTE_RETURN_IF_ERROR(db->CreateTable(dataset.tables[idx]));
    if (with_histograms) {
      TASTE_RETURN_IF_ERROR(db->AnalyzeTable(dataset.tables[idx].name));
    }
  }
  db->ledger().Reset();
  return db;
}

Result<EvalRunResult> EvaluateSequential(const DetectFn& detect,
                                         clouddb::SimulatedDatabase* db,
                                         const data::Dataset& dataset,
                                         const std::vector<int>& indices) {
  TASTE_CHECK(db != nullptr);
  db->ledger().Reset();
  Stopwatch sw;
  auto conn = db->Connect();
  std::vector<core::TableDetectionResult> results;
  results.reserve(indices.size());
  for (int idx : indices) {
    TASTE_ASSIGN_OR_RETURN(
        core::TableDetectionResult r,
        detect(conn.get(), dataset.tables[static_cast<size_t>(idx)].name));
    results.push_back(std::move(r));
  }
  double wall_ms = sw.ElapsedMillis();
  return SummarizeResults(results, dataset, indices, db->ledger().snapshot(),
                          wall_ms);
}

EvalRunResult SummarizeResults(
    const std::vector<core::TableDetectionResult>& results,
    const data::Dataset& dataset, const std::vector<int>& indices,
    const clouddb::IoLedger::Snapshot& ledger, double wall_ms) {
  TASTE_CHECK(results.size() == indices.size());
  const SemanticTypeRegistry& registry = SemanticTypeRegistry::Default();
  MetricsAccumulator acc(registry.null_type_id());
  int64_t total_columns = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const data::TableSpec& truth =
        dataset.tables[static_cast<size_t>(indices[i])];
    acc.AddTable(truth, results[i]);
    total_columns += static_cast<int64_t>(truth.columns.size());
  }
  EvalRunResult out;
  out.scores = acc.Compute();
  out.wall_ms = wall_ms;
  out.simulated_io_ms = ledger.simulated_io_ms;
  out.scanned_columns = ledger.scanned_columns;
  out.total_columns = total_columns;
  return out;
}

}  // namespace taste::eval
