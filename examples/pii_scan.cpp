// PII scan: the data-protection scenario from the paper's introduction.
// A cloud data-security service sweeps a tenant's database for columns
// holding personally identifiable information (credit cards, SSNs, emails,
// phone numbers, ...) so they can be masked — while touching as little of
// the tenant's data as possible.
//
// The sweep runs the full pipelined TASTE framework and then reports every
// PII column found, how it was found (metadata alone vs content check),
// and the total intrusion into the tenant database.

#include <cstdio>
#include <set>

#include "core/taste_detector.h"
#include "data/table_generator.h"
#include "eval/experiment.h"
#include "pipeline/scheduler.h"

using namespace taste;

int main() {
  const auto& registry = data::SemanticTypeRegistry::Default();
  // The sensitive types this service masks.
  const std::set<std::string> kPiiTypes = {
      "credit_card", "ssn",   "email",          "phone_number",
      "full_name",   "first_name", "last_name", "street_address",
      "account_number"};

  // Matches the benches' standard stack so the trained checkpoint in
  // .taste_model_cache is shared; the first run trains (~minutes on one
  // core), later runs load instantly.
  eval::StackOptions options;
  options.num_tables = 240;
  options.pretrain_epochs = 1;
  options.finetune_epochs = 12;
  options.train_adtd_hist = false;
  options.train_baselines = false;
  std::printf("Preparing models (cached after the first run)...\n");
  auto stack = eval::BuildStack(data::DatasetProfile::WikiLike(), options);
  if (!stack.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 stack.status().ToString().c_str());
    return 1;
  }

  auto db = eval::MakeTestDatabase(stack->dataset, stack->dataset.test,
                                   /*with_histograms=*/false, {});
  if (!db.ok()) return 1;

  core::TasteDetector detector(stack->adtd.get(), stack->tokenizer.get(), {});
  pipeline::PipelineExecutor executor(&detector, db->get(),
                                      {.prep_threads = 2, .infer_threads = 2});
  std::vector<std::string> names;
  for (int idx : stack->dataset.test) {
    names.push_back(stack->dataset.tables[idx].name);
  }
  pipeline::BatchResult batch = executor.RunBatch(names);
  std::vector<core::TableDetectionResult> results;
  for (auto& t : batch.tables) {
    if (!t.status.ok()) {
      std::fprintf(stderr, "sweep failed: %s\n", t.status.ToString().c_str());
      return 1;
    }
    results.push_back(std::move(t.result));
  }

  std::printf("\nPII findings\n");
  std::printf("%-22s %-20s %-16s %s\n", "table", "column", "pii type", "how");
  int findings = 0, total_cols = 0, scanned = 0;
  for (const auto& table : results) {
    total_cols += table.total_columns;
    scanned += table.columns_scanned;
    for (const auto& col : table.columns) {
      for (int t : col.admitted_types) {
        if (kPiiTypes.count(registry.info(t).name) == 0) continue;
        std::printf("%-22s %-20s %-16s %s\n", table.table_name.c_str(),
                    col.column_name.c_str(), registry.info(t).name.c_str(),
                    col.went_to_p2 ? "content verified" : "metadata only");
        ++findings;
      }
    }
  }
  std::printf("\n%d PII columns flagged across %zu tables.\n", findings,
              results.size());
  std::printf("Intrusion: scanned %d of %d columns (%.1f%%) in %.0f ms "
              "wall clock.\n",
              scanned, total_cols,
              total_cols ? 100.0 * scanned / total_cols : 0.0,
              executor.stats().wall_ms);
  return 0;
}
