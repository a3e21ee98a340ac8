// Data-catalog tagging: the Purview/Glue-style scenario (paper Sec. 2.1).
// A catalog service auto-tags every column of a tenant's GitTables-like
// database — most columns carry highly informative names and ~32% carry no
// semantic type at all, so the metadata phase resolves nearly everything
// and content scans are rare.
//
// Demonstrates: GitLike profile, the background type, per-type tag
// inventory, and the scanned-columns intrusiveness metric.

#include <cstdio>
#include <map>

#include "core/taste_detector.h"
#include "data/table_generator.h"
#include "eval/experiment.h"
#include "pipeline/scheduler.h"

using namespace taste;

int main() {
  // Matches the benches' standard stack so the trained checkpoint in
  // .taste_model_cache is shared; the first run trains (~minutes on one
  // core), later runs load instantly.
  eval::StackOptions options;
  options.num_tables = 240;
  options.pretrain_epochs = 1;
  options.finetune_epochs = 28;  // matches the benches' GitLike budget
  options.train_adtd_hist = false;
  options.train_baselines = false;
  std::printf("Preparing models (cached after the first run)...\n");
  auto stack = eval::BuildStack(data::DatasetProfile::GitLike(), options);
  if (!stack.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 stack.status().ToString().c_str());
    return 1;
  }
  auto db = eval::MakeTestDatabase(stack->dataset, stack->dataset.test,
                                   /*with_histograms=*/false, {});
  if (!db.ok()) return 1;

  core::TasteDetector detector(stack->adtd.get(), stack->tokenizer.get(), {});
  pipeline::PipelineExecutor executor(&detector, db->get(), {});
  std::vector<std::string> names;
  for (int idx : stack->dataset.test) {
    names.push_back(stack->dataset.tables[idx].name);
  }
  pipeline::BatchResult batch = executor.RunBatch(names);
  std::vector<core::TableDetectionResult> results;
  for (auto& t : batch.tables) {
    if (!t.status.ok()) {
      std::fprintf(stderr, "tagging failed: %s\n", t.status.ToString().c_str());
      return 1;
    }
    results.push_back(std::move(t.result));
  }

  const auto& registry = data::SemanticTypeRegistry::Default();
  std::map<std::string, int> tag_counts;
  int untagged = 0, total_cols = 0, scanned = 0;
  for (const auto& table : results) {
    total_cols += table.total_columns;
    scanned += table.columns_scanned;
    for (const auto& col : table.columns) {
      bool tagged = false;
      for (int t : col.admitted_types) {
        if (t == registry.null_type_id()) continue;
        ++tag_counts[registry.info(t).name];
        tagged = true;
      }
      if (!tagged) ++untagged;
    }
  }

  std::printf("\nCatalog tag inventory (%zu tables, %d columns)\n",
              results.size(), total_cols);
  for (const auto& [tag, count] : tag_counts) {
    std::printf("  %-18s %d\n", tag.c_str(), count);
  }
  std::printf("  %-18s %d\n", "(untagged)", untagged);
  std::printf("\nColumns scanned for content: %d of %d (%.1f%%) — "
              "metadata did the rest.\n",
              scanned, total_cols,
              total_cols ? 100.0 * scanned / total_cols : 0.0);
  std::printf("Wall clock: %.0f ms (pipelined, 2 prep + 2 infer threads).\n",
              executor.stats().wall_ms);
  return 0;
}
