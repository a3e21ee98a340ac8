// Shared setup for the figure/table reproduction benches.
//
// Every bench uses the same StackOptions so trained checkpoints are shared
// through the on-disk cache (.taste_model_cache in the working directory):
// the first bench to run trains the models, the rest load them.

#ifndef TASTE_BENCH_BENCH_COMMON_H_
#define TASTE_BENCH_BENCH_COMMON_H_

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baselines/rule_based.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "baselines/single_tower.h"
#include "core/taste_detector.h"
#include "data/table_generator.h"
#include "eval/experiment.h"
#include "eval/report.h"
#include "obs/json_writer.h"
#include "pipeline/scheduler.h"

namespace taste::bench {

/// The standard stack configuration all reproduction benches share.
inline eval::StackOptions StandardStackOptions() {
  eval::StackOptions o;
  o.num_tables = 240;
  o.vocab_size = 700;
  o.pretrain_epochs = 1;
  o.finetune_epochs = 12;
  o.train_adtd_hist = true;
  o.train_baselines = true;
  o.cache_dir = ".taste_model_cache";
  o.seed = 1234;
  return o;
}

/// Per-dataset training budget. The GitLike profile's value proposition is
/// high-confidence metadata-only decisions (paper: 1.7% scanned), which
/// needs a better-calibrated P1 than WikiLike's — the paper itself trains
/// the two datasets for different wall-clock budgets (97 vs 66 min).
inline eval::StackOptions StackOptionsFor(const data::DatasetProfile& p) {
  eval::StackOptions o = StandardStackOptions();
  if (p.name == "GitLike") o.finetune_epochs = 28;
  return o;
}

/// Runs `tables` through `exec` and returns each table's result in input
/// order; aborts with the first non-OK table status.
inline std::vector<core::TableDetectionResult> RunAllOk(
    pipeline::PipelineExecutor* exec, const std::vector<std::string>& tables) {
  pipeline::BatchResult batch = exec->RunBatch(tables);
  std::vector<core::TableDetectionResult> results;
  results.reserve(batch.tables.size());
  for (auto& t : batch.tables) {
    TASTE_CHECK_MSG(t.status.ok(), t.status.ToString());
    results.push_back(std::move(t.result));
  }
  return results;
}

/// Latency realization factor for wall-clock experiments: simulated
/// milliseconds are slept at this scale, so measured times are comparable
/// across detectors while keeping total bench runtime modest.
inline constexpr double kTimeScale = 0.2;

/// Cost model used by wall-clock experiments (real blocking).
inline clouddb::CostModel TimedCost() {
  clouddb::CostModel c;
  c.time_scale = kTimeScale;
  return c;
}

/// Cost model used by accuracy-only experiments (no blocking).
inline clouddb::CostModel InstantCost() {
  clouddb::CostModel c;
  c.time_scale = 0.0;
  return c;
}

inline std::string Pct(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * x);
  return buf;
}

inline std::string F4(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", x);
  return buf;
}

inline std::string Ms(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0f ms", x);
  return buf;
}

/// Builds (or loads from cache) the full stack for one profile, exiting the
/// process on failure — benches have no meaningful recovery path.
inline eval::TrainedStack MustBuildStack(const data::DatasetProfile& profile) {
  auto stack = eval::BuildStack(profile, StackOptionsFor(profile));
  if (!stack.ok()) {
    std::fprintf(stderr, "stack build failed: %s\n",
                 stack.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*stack);
}

/// Names of the test tables of a dataset.
inline std::vector<std::string> TestTableNames(const data::Dataset& ds) {
  std::vector<std::string> names;
  for (int idx : ds.test) names.push_back(ds.tables[idx].name);
  return names;
}

/// The streaming JSON emitter the BENCH_*.json artifacts use now lives in
/// src/obs/ (the serving path emits metrics documents with it); this alias
/// keeps the historical bench-side name working.
using JsonWriter = obs::JsonWriter;

}  // namespace taste::bench

#endif  // TASTE_BENCH_BENCH_COMMON_H_
