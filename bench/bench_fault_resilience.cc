// Serving-path resilience under database faults (no paper counterpart —
// this is the robustness layer's own benchmark).
//
// Two sweeps over the WikiLike test split, pipelined executor, trained
// stack:
//   1. Transient-fault sweep: per-query timeout probability 0 -> 20%.
//      Retries should absorb nearly everything — F1 and the scanned-column
//      ratio should hold flat while wall-clock degrades gracefully.
//   2. Hard-failure sweep: a growing fraction of test tables becomes
//      scan-unavailable. The detector degrades those tables to the P1
//      metadata-only prediction (admit threshold 0.5, the Table 4 privacy
//      rule), so F1 should slide from the full-TASTE score toward the
//      Table 4 metadata-only score instead of collapsing.
//
// Expected shape: zero-fault rows match the fault-free pipeline exactly;
// no run fails a healthy table; degraded-column ratio tracks the injected
// hard-failure fraction.

#include "bench_common.h"
#include "clouddb/fault_injector.h"

namespace taste::bench {
namespace {

struct SweepRow {
  std::string label;
  pipeline::PipelineRunStats stats;
  pipeline::ResilienceStats rz;
  eval::EvalRunResult run;
  int64_t total_columns = 0;
};

/// Runs the pipelined executor once under `fault_config` and summarizes.
SweepRow RunOnce(const std::string& label, const eval::TrainedStack& stack,
                 const core::TasteOptions& taste_options,
                 const clouddb::FaultConfig& fault_config) {
  auto db = eval::MakeTestDatabase(stack.dataset, stack.dataset.test, false,
                                   TimedCost());
  TASTE_CHECK_MSG(db.ok(), db.status().ToString());
  (*db)->SetFaultInjector(
      std::make_shared<clouddb::FaultInjector>(fault_config));

  core::TasteDetector detector(stack.adtd.get(), stack.tokenizer.get(),
                               taste_options);
  pipeline::PipelineExecutor exec(&detector, db->get(),
                                  {.prep_threads = 2, .infer_threads = 2});
  std::vector<std::string> names = TestTableNames(stack.dataset);
  (*db)->ledger().Reset();
  pipeline::BatchResult batch = exec.RunBatch(names);

  SweepRow row;
  row.label = label;
  row.stats = exec.stats();
  row.rz = exec.resilience_stats();
  std::vector<core::TableDetectionResult> results;
  for (auto& t : batch.tables) {
    TASTE_CHECK_MSG(t.status.ok(), t.status.ToString());
    row.total_columns += t.result.total_columns;
    results.push_back(std::move(t.result));
  }
  row.run = eval::SummarizeResults(results, stack.dataset, stack.dataset.test,
                                   (*db)->ledger().snapshot(),
                                   exec.stats().wall_ms);
  return row;
}

void PrintSweep(const std::string& title, const std::vector<SweepRow>& rows) {
  std::printf("%s", eval::SectionHeader(title).c_str());
  eval::TextTable table({"faults", "wall", "tables/s", "F1", "cols scanned",
                         "retries", "degraded", "deg ratio"});
  for (const auto& r : rows) {
    double tps = r.stats.wall_ms > 0.0
                     ? 1000.0 * r.stats.tables_processed / r.stats.wall_ms
                     : 0.0;
    double deg_ratio =
        r.total_columns > 0
            ? static_cast<double>(r.rz.degraded_columns) / r.total_columns
            : 0.0;
    char tps_buf[32];
    std::snprintf(tps_buf, sizeof(tps_buf), "%.1f", tps);
    table.AddRow({r.label, Ms(r.stats.wall_ms), tps_buf, F4(r.run.scores.f1),
                  Pct(r.run.scanned_ratio()),
                  std::to_string(r.rz.retries + r.rz.connect_retries),
                  std::to_string(r.rz.degraded_columns), Pct(deg_ratio)});
  }
  std::printf("%s", table.ToString().c_str());
}

core::TasteOptions ResilientTasteOptions() {
  core::TasteOptions o;
  o.resilience.max_attempts = 5;
  // Degraded columns fall back to the Table 4 privacy-mode admission rule.
  o.resilience.degraded_admit_threshold = 0.5;
  return o;
}

void TransientSweep(const eval::TrainedStack& stack) {
  std::vector<SweepRow> rows;
  for (double rate : {0.0, 0.05, 0.10, 0.20}) {
    clouddb::FaultConfig cfg;
    cfg.seed = 0xFA117;
    cfg.timeout_prob = rate;
    cfg.latency_spike_prob = rate / 2.0;
    rows.push_back(
        RunOnce(Pct(rate), stack, ResilientTasteOptions(), cfg));
  }
  PrintSweep("Resilience — transient timeout sweep, " + stack.name, rows);
}

void HardFailureSweep(const eval::TrainedStack& stack) {
  std::vector<std::string> names = TestTableNames(stack.dataset);
  std::vector<SweepRow> rows;
  for (double fraction : {0.0, 0.25, 0.5, 1.0}) {
    clouddb::FaultConfig cfg;
    cfg.seed = 0xFA117;
    size_t n = static_cast<size_t>(fraction * static_cast<double>(names.size()));
    cfg.unavailable_tables.assign(names.begin(),
                                  names.begin() + static_cast<long>(n));
    rows.push_back(RunOnce(Pct(fraction) + " of tables",
                           stack, ResilientTasteOptions(), cfg));
  }
  PrintSweep("Resilience — hard scan-failure sweep (degrade to P1), " +
                 stack.name,
             rows);
  std::printf(
      "\n  (at 100%% the run is effectively metadata-only serving — compare"
      "\n   its F1 with the Table 4 'TASTE w/o P2' row)\n");
}

}  // namespace
}  // namespace taste::bench

int main() {
  taste::SetLogLevel(taste::LogLevel::kWarn);
  // Only the ADTD model is exercised; skip the baseline towers so the
  // cached checkpoint is the single training dependency.
  taste::eval::StackOptions options = taste::bench::StandardStackOptions();
  options.train_adtd_hist = false;
  options.train_baselines = false;
  auto built = taste::eval::BuildStack(
      taste::data::DatasetProfile::WikiLike(), options);
  if (!built.ok()) {
    std::fprintf(stderr, "stack build failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  taste::eval::TrainedStack& stack = *built;
  taste::bench::TransientSweep(stack);
  taste::bench::HardFailureSweep(stack);
  return 0;
}
