// Real-time deadline behaviour of the serving path (DESIGN.md §8): budgets
// that expire mid-run, degradation to the metadata-only path once P1 has
// classified, and the headline overload acceptance scenario — offered load
// several times the infer capacity under a 100 ms budget, with every table
// reaching exactly one terminal state and admitted latency staying near the
// budget. These tests sleep on the simulated-I/O clock (time_scale = 1), so
// they carry the `slow` label and stay out of the sanitizer jobs, whose
// instrumentation skews wall-clock timing.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/taste_detector.h"
#include "data/table_generator.h"
#include "obs/metrics.h"
#include "pipeline/scheduler.h"

namespace taste {
namespace {

struct Env {
  data::Dataset dataset;
  std::unique_ptr<text::WordPieceTokenizer> tokenizer;
  std::unique_ptr<model::AdtdModel> model;
  std::vector<std::string> table_names;

  static Env Make(int tables) {
    Env e;
    e.dataset = data::GenerateDataset(data::DatasetProfile::WikiLike(tables));
    text::WordPieceTrainer trainer({.vocab_size = 400});
    for (const auto& d : data::BuildCorpusDocuments(e.dataset)) {
      trainer.AddDocument(d);
    }
    e.tokenizer = std::make_unique<text::WordPieceTokenizer>(trainer.Train());
    model::AdtdConfig cfg = model::AdtdConfig::Tiny(
        e.tokenizer->vocab().size(),
        data::SemanticTypeRegistry::Default().size());
    Rng rng(21);
    e.model = std::make_unique<model::AdtdModel>(cfg, rng);
    for (const auto& t : e.dataset.tables) e.table_names.push_back(t.name);
    return e;
  }

  /// A real-sleeping database with the given per-operation costs.
  std::unique_ptr<clouddb::SimulatedDatabase> MakeDb(
      clouddb::CostModel cost) const {
    auto db = std::make_unique<clouddb::SimulatedDatabase>(cost);
    TASTE_CHECK(db->IngestDataset(dataset).ok());
    return db;
  }
};

/// Asserts the outcome/status pairing invariant every terminal table obeys.
void CheckTerminalConsistency(const pipeline::TableRunResult& t) {
  switch (t.outcome) {
    case pipeline::TableOutcome::kComplete:
      EXPECT_TRUE(t.status.ok());
      EXPECT_EQ(t.result.degraded_columns, 0);
      break;
    case pipeline::TableOutcome::kDegraded:
      EXPECT_TRUE(t.status.ok());
      EXPECT_GT(t.result.degraded_columns, 0);
      break;
    case pipeline::TableOutcome::kShed:
      EXPECT_EQ(t.status.code(), StatusCode::kUnavailable);
      break;
    case pipeline::TableOutcome::kExpired:
      EXPECT_TRUE(t.status.code() == StatusCode::kDeadlineExceeded ||
                  t.status.code() == StatusCode::kCancelled)
          << t.status.ToString();
      break;
    case pipeline::TableOutcome::kFailed:
      EXPECT_FALSE(t.status.ok());
      break;
  }
}

TEST(RealTimeDeadlineTest, ExpiresMidP1AndParks) {
  Env env = Env::Make(4);
  // The metadata query alone costs 400 ms of (real) simulated I/O, far past
  // the 60 ms budget: the wait is capped at the remaining budget and the
  // table parks without ever finishing P1.
  clouddb::CostModel cost;
  cost.connect_ms = 0.0;
  cost.query_ms = 400.0;
  auto db = env.MakeDb(cost);
  core::TasteDetector detector(env.model.get(), env.tokenizer.get(), {});
  pipeline::PipelineOptions popt;
  popt.deadline_ms = 60.0;
  pipeline::PipelineExecutor exec(&detector, db.get(), popt);
  auto batch = exec.RunBatch({env.table_names[0]});
  ASSERT_EQ(batch.tables.size(), 1u);
  EXPECT_EQ(batch.tables[0].outcome, pipeline::TableOutcome::kExpired);
  EXPECT_EQ(batch.tables[0].status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(exec.resilience_stats().expired_tables, 1);
  // The capped wait means expiry cost ~one budget, not ~one query.
  EXPECT_LT(exec.stats().wall_ms, 400.0);
}

TEST(RealTimeDeadlineTest, DegradesToMetadataOnlyOnceP1Completed) {
  Env env = Env::Make(4);
  // Metadata is free but every scanned cell costs 50 ms: P1 finishes well
  // inside the 1.5 s budget, the P2 content scan cannot. The expired table
  // must fall back to metadata-only predictions, not fail.
  clouddb::CostModel cost;
  cost.connect_ms = 0.0;
  cost.query_ms = 0.0;
  cost.per_metadata_col_ms = 0.0;
  cost.per_cell_ms = 50.0;
  auto db = env.MakeDb(cost);
  core::TasteDetector detector(env.model.get(), env.tokenizer.get(), {});
  pipeline::PipelineOptions popt;
  popt.deadline_ms = 1500.0;
  pipeline::PipelineExecutor exec(&detector, db.get(), popt);
  auto batch = exec.RunBatch({env.table_names[0]});
  ASSERT_EQ(batch.tables.size(), 1u);
  const auto& t = batch.tables[0];
  ASSERT_TRUE(t.status.ok()) << t.status.ToString();
  EXPECT_EQ(t.outcome, pipeline::TableOutcome::kDegraded);
  EXPECT_GT(t.result.degraded_columns, 0);
  int degraded_cols = 0;
  for (const auto& col : t.result.columns) {
    EXPECT_FALSE(col.provenance == core::ResultProvenance::kFailed);
    if (col.provenance == core::ResultProvenance::kDegradedMetadataOnly) {
      EXPECT_FALSE(col.went_to_p2);
      ++degraded_cols;
    }
  }
  EXPECT_EQ(degraded_cols, t.result.degraded_columns);
  EXPECT_EQ(exec.resilience_stats().degraded_tables, 1);
  EXPECT_EQ(exec.resilience_stats().expired_tables, 0);
}

TEST(RealTimeDeadlineTest, OverloadMeetsDeadlineWithTerminalStates) {
  // The acceptance scenario: offered load 4x the admission capacity under a
  // 100 ms budget. Nothing hangs, nothing is lost — every table lands in
  // exactly one terminal state — and the latency of admitted tables stays
  // near the budget because waits are capped and excess load is shed.
  Env env = Env::Make(8);
  clouddb::CostModel cost;  // defaults: real sleeping, modest per-op costs
  cost.per_cell_ms = 2.0;   // content scans are the expensive part
  auto db = env.MakeDb(cost);
  core::TasteDetector detector(env.model.get(), env.tokenizer.get(), {});

  const bool metrics_before = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::Histogram* admitted =
      obs::Registry::Global().GetHistogram("taste_admitted_table_ms");
  admitted->Reset();

  pipeline::PipelineOptions popt;
  popt.prep_threads = 2;
  popt.infer_threads = 2;
  popt.deadline_ms = 100.0;
  popt.admission.enabled = true;
  popt.admission.max_inflight_tables = 4;
  popt.admission.max_queued_tables = 8;
  pipeline::PipelineExecutor exec(&detector, db.get(), popt);

  std::vector<std::string> targets;  // 48 tables vs capacity 12: 4x offered
  for (int i = 0; i < 48; ++i) {
    targets.push_back(env.table_names[i % env.table_names.size()]);
  }
  auto batch = exec.RunBatch(targets);
  ASSERT_EQ(batch.tables.size(), targets.size());
  int64_t terminal[5] = {0, 0, 0, 0, 0};
  for (const auto& t : batch.tables) {
    CheckTerminalConsistency(t);
    ++terminal[static_cast<int>(t.outcome)];
  }
  const auto& rz = exec.resilience_stats();
  // The tail past max_inflight + max_queued is shed deterministically.
  EXPECT_EQ(rz.shed_tables, 48 - (4 + 8));
  EXPECT_EQ(terminal[static_cast<int>(pipeline::TableOutcome::kShed)],
            rz.shed_tables);
  EXPECT_LE(exec.stats().max_tables_in_flight, 4);
  // The latency histogram records tables that actually started; under this
  // much overload most queued tables expire before their first dispatch
  // (they never hold a worker at all), so the count is between 1 and the
  // admitted set. Started tables finish near the budget: capped waits keep
  // even expired tables from holding workers past the deadline. The 2.5x
  // slack absorbs scheduler jitter on loaded CI machines without weakening
  // the point — an uncapped scan here would take seconds.
  const auto snap = admitted->snapshot();
  EXPECT_GE(snap.count, 1);
  EXPECT_LE(snap.count, 4 + 8);
  EXPECT_LE(snap.Quantile(0.99), 250.0);
  EXPECT_LT(exec.stats().wall_ms, 2000.0);
  obs::SetMetricsEnabled(metrics_before);
}

}  // namespace
}  // namespace taste
