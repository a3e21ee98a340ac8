// Reproduces Fig. 6: performance as the ratio of columns without any
// semantic type (eta) grows.
//
// Following Sec. 6.6: select k types at random to form a retained set S_k,
// drop all other labels (columns left without labels get type:null),
// fine-tune on the tuned dataset, and evaluate. As k shrinks, eta grows.
//
// Paper's shape: execution time and scanned-column ratio FALL as eta
// rises (null columns are resolved in P1 without scanning) while F1 stays
// stable.

#include "bench_common.h"

namespace taste::bench {
namespace {

void Run() {
  const auto& registry = data::SemanticTypeRegistry::Default();
  data::DatasetProfile profile = data::DatasetProfile::WikiLike();
  eval::StackOptions options = StandardStackOptions();
  options.train_adtd_hist = false;
  options.train_baselines = false;
  // One model per k: trade a little accuracy for five quick trainings.
  options.num_tables = 150;
  options.finetune_epochs = 8;
  profile.num_tables = options.num_tables;
  data::Dataset base = data::GenerateDataset(profile);

  std::printf("%s",
              eval::SectionHeader(
                  "Fig. 6 — effect of the ratio of columns without types "
                  "(WikiLike, retained type sets S_k)")
                  .c_str());
  eval::TextTable table({"k (retained)", "eta (cols w/o type)", "F1",
                         "scanned ratio", "exec time"});

  int total_types = registry.size() - 1;  // excluding type:null
  for (int k : {total_types, 30, 20, 10}) {
    data::Dataset tuned =
        k == total_types
            ? base
            : data::ApplyRetainedTypes(
                  base, data::SelectRetainedTypes(registry, k, /*seed=*/0),
                  registry);
    double eta = tuned.NullColumnRatio(registry);
    auto stack = eval::BuildStackFromDataset(
        "WikiLike_k" + std::to_string(k), std::move(tuned), options);
    TASTE_CHECK_MSG(stack.ok(), stack.status().ToString());
    auto db = eval::MakeTestDatabase(stack->dataset, stack->dataset.test,
                                     false, TimedCost());
    TASTE_CHECK(db.ok());
    core::TasteDetector det(stack->adtd.get(), stack->tokenizer.get(), {});
    pipeline::PipelineExecutor exec(&det, db->get(),
                                    {.prep_threads = 2, .infer_threads = 2});
    const auto results = RunAllOk(&exec, TestTableNames(stack->dataset));
    eval::EvalRunResult run = eval::SummarizeResults(
        results, stack->dataset, stack->dataset.test,
        db->get()->ledger().snapshot(), exec.stats().wall_ms);
    table.AddRow({std::to_string(k), Pct(eta), F4(run.scores.f1),
                  Pct(run.scanned_ratio()), Ms(run.wall_ms)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf("Paper shape: as eta grows, execution time and scanned ratio "
              "drop while F1 stays stable.\n");
}

}  // namespace
}  // namespace taste::bench

int main() {
  taste::SetLogLevel(taste::LogLevel::kWarn);
  taste::bench::Run();
  return 0;
}
