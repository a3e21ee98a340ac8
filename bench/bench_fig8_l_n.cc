// Reproduces Fig. 8: the impact of the column-split threshold l (8a) and
// of the number of input cell values n (8b) on execution time and F1
// (WikiLike dataset; model trained at l=20, n=10 and evaluated with
// serving-time overrides, mirroring the paper's deployment knobs).
//
// Paper shapes:
//   (a) growing l 4 -> 20: execution time falls (fewer chunks to infer),
//       F1 rises (more columns share cross-column attention);
//   (b) growing n 1 -> 20: execution time rises (more content to fetch and
//       encode), F1 rises (more evidence per column).
//
// To make chunking bite at small l, this bench uses a wide-table dataset
// variant (up to 16 columns per table).

#include "bench_common.h"

namespace taste::bench {
namespace {

void Run() {
  data::DatasetProfile profile = data::DatasetProfile::WikiLike();
  profile.name = "WikiLikeWide";
  profile.min_columns = 6;
  profile.max_columns = 16;
  eval::StackOptions options = StandardStackOptions();
  options.train_adtd_hist = false;
  options.train_baselines = false;
  // Wide tables are ~2.5x slower to train on; trim the budget.
  options.num_tables = 150;
  options.finetune_epochs = 8;
  auto stack_res = eval::BuildStack(profile, options);
  TASTE_CHECK_MSG(stack_res.ok(), stack_res.status().ToString());
  eval::TrainedStack& stack = *stack_res;
  auto db = eval::MakeTestDatabase(stack.dataset, stack.dataset.test, false,
                                   TimedCost());
  TASTE_CHECK(db.ok());
  std::vector<std::string> tables = TestTableNames(stack.dataset);

  auto measure = [&](int l, int n) {
    db->get()->ledger().Reset();
    core::TasteOptions topt;
    topt.override_split_threshold = l;
    topt.override_cells_per_column = n;
    core::TasteDetector det(stack.adtd.get(), stack.tokenizer.get(), topt);
    pipeline::PipelineExecutor exec(&det, db->get(),
                                    {.prep_threads = 2, .infer_threads = 2});
    const auto results = RunAllOk(&exec, tables);
    return eval::SummarizeResults(results, stack.dataset, stack.dataset.test,
                                  db->get()->ledger().snapshot(),
                                  exec.stats().wall_ms);
  };

  std::printf("%s",
              eval::SectionHeader("Fig. 8(a) — column split threshold l "
                                  "(WikiLikeWide, n=10)")
                  .c_str());
  {
    eval::TextTable table({"l", "exec time", "F1", "scanned ratio"});
    for (int l : {4, 8, 12, 16, 20}) {
      eval::EvalRunResult r = measure(l, 10);
      table.AddRow({std::to_string(l), Ms(r.wall_ms), F4(r.scores.f1),
                    Pct(r.scanned_ratio())});
    }
    std::printf("%s", table.ToString().c_str());
    std::printf(
        "Paper shape: larger l -> lower execution time, higher F1.\n"
        "Substrate note: the paper's per-chunk fixed cost (150-token table\n"
        "segment re-encoded per chunk + GPU kernel launches) dominates its\n"
        "l-trend; on this CPU substrate the quadratic attention term\n"
        "dominates instead, so small l can be cheaper. The F1 trend (larger\n"
        "l -> more cross-column attention -> higher F1) is substrate-free.\n");
  }

  std::printf("%s", eval::SectionHeader("Fig. 8(b) — input cell values n "
                                        "(WikiLikeWide, l=20)")
                        .c_str());
  {
    eval::TextTable table({"n", "exec time", "F1", "scanned ratio"});
    for (int n : {1, 3, 5, 10, 15, 20}) {
      eval::EvalRunResult r = measure(20, n);
      table.AddRow({std::to_string(n), Ms(r.wall_ms), F4(r.scores.f1),
                    Pct(r.scanned_ratio())});
    }
    std::printf("%s", table.ToString().c_str());
    std::printf(
        "Paper shape: larger n -> higher execution time and higher F1.\n");
  }
}

}  // namespace
}  // namespace taste::bench

int main() {
  taste::SetLogLevel(taste::LogLevel::kWarn);
  taste::bench::Run();
  return 0;
}
