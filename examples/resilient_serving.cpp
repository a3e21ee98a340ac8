// Resilient serving: run a batch detection against a FLAKY cloud database
// — transient timeouts, latency spikes, and one hard-failed table — and
// watch the fault-tolerance layer absorb it: transient errors are retried
// at once, the dead table degrades to the Phase-1 metadata-only
// prediction instead of sinking the batch, and every outcome is tagged
// with its provenance in the result JSON.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/resilient_serving

#include <cstdio>
#include <memory>

#include "clouddb/fault_injector.h"
#include "core/result_json.h"
#include "core/taste_detector.h"
#include "data/table_generator.h"
#include "eval/experiment.h"
#include "pipeline/scheduler.h"

using namespace taste;

int main() {
  // 1) Train (or load the cached) TASTE stack — same checkpoint as the
  //    quickstart and the benches.
  eval::StackOptions options;
  options.num_tables = 240;
  options.pretrain_epochs = 1;
  options.finetune_epochs = 12;
  options.train_adtd_hist = false;
  options.train_baselines = false;
  std::printf("Training the ADTD model (cached after the first run)...\n");
  auto stack = eval::BuildStack(data::DatasetProfile::WikiLike(), options);
  if (!stack.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 stack.status().ToString().c_str());
    return 1;
  }

  clouddb::CostModel cost;
  cost.time_scale = 0.2;  // realize simulated latency at 20%
  auto db = eval::MakeTestDatabase(stack->dataset, stack->dataset.test,
                                   /*with_histograms=*/false, cost);
  if (!db.ok()) {
    std::fprintf(stderr, "db setup failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }

  std::vector<std::string> names;
  for (int idx : stack->dataset.test) {
    names.push_back(stack->dataset.tables[idx].name);
  }

  // 2) Make the database flaky: 15% of queries time out, 10% suffer a
  //    latency spike, and one table's content is entirely unreachable
  //    (dropped mid-batch / access revoked).
  clouddb::FaultConfig faults;
  faults.seed = 42;
  faults.timeout_prob = 0.15;
  faults.latency_spike_prob = 0.10;
  faults.unavailable_tables = {names.front()};
  (*db)->SetFaultInjector(std::make_shared<clouddb::FaultInjector>(faults));
  std::printf("\nInjected faults: 15%% timeouts, 10%% latency spikes, "
              "table '%s' scan-unavailable\n",
              names.front().c_str());

  // 3) The detector retries transients (immediately, up to max_attempts),
  //    circuit-breaks dead tables, and degrades to the metadata-only
  //    prediction when content cannot be read. Threshold 0.5 applies the
  //    paper's Table 4 privacy-mode admission rule to the degraded columns
  //    (metadata-only P1 holds F1 ~ 0.90 there).
  core::TasteOptions taste_options;
  taste_options.resilience.max_attempts = 5;
  taste_options.resilience.degraded_admit_threshold = 0.5;
  core::TasteDetector detector(stack->adtd.get(), stack->tokenizer.get(),
                               taste_options);

  // 4) Pipelined batch run with per-table failure isolation.
  pipeline::PipelineExecutor exec(&detector, db->get(),
                                  {.prep_threads = 2, .infer_threads = 2});
  pipeline::BatchResult batch = exec.RunBatch(names);

  int ok = 0, degraded_tables = 0;
  for (const auto& t : batch.tables) {
    if (!t.status.ok()) continue;
    ++ok;
    if (t.result.degraded_columns > 0) ++degraded_tables;
  }
  std::printf("\nBatch of %zu tables: %d ok (%d served partly from "
              "metadata), %d failed, %.0f ms wall\n",
              batch.tables.size(), ok, degraded_tables,
              static_cast<int>(batch.tables.size()) - ok,
              exec.stats().wall_ms);

  const auto& rz = exec.resilience_stats();
  std::printf("Resilience: %lld retries, %lld degraded columns, %lld failed "
              "columns, %lld breaker trips\n",
              static_cast<long long>(rz.retries),
              static_cast<long long>(rz.degraded_columns),
              static_cast<long long>(rz.failed_columns),
              static_cast<long long>(rz.breaker_trips));

  // 5) Provenance flows into the result JSON: degraded columns carry
  //    "provenance": "degraded_metadata_only" and the table a resilience
  //    block, so downstream consumers can tell a full prediction from a
  //    metadata-only fallback.
  const auto& registry = data::SemanticTypeRegistry::Default();
  for (const auto& t : batch.tables) {
    if (t.result.degraded_columns == 0) continue;
    core::JsonOptions json;
    json.pretty = true;
    std::printf("\nDegraded table's result JSON:\n%s\n",
                core::ResultToJson(t.result, registry, json).c_str());
    break;
  }
  return 0;
}
