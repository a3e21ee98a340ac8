// Fault-tolerance tests for the cloud-database serving path: the retry
// loop and circuit-breaker primitives, the deterministic FaultInjector, the
// detector's degrade-to-metadata-only fallback, and batch isolation in the
// pipelined executor. Every fault script is seeded/scripted, so each
// scenario replays bit-for-bit.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "clouddb/fault_injector.h"
#include "common/retry.h"
#include "common/string_util.h"
#include "core/taste_detector.h"
#include "data/table_generator.h"
#include "obs/metrics.h"
#include "pipeline/scheduler.h"

namespace taste {
namespace {

// ---------------------------------------------------------------------------
// RetryCall

TEST(RetryCallTest, TransientThenSuccess) {
  int calls = 0;
  RetryObservation obs;
  Status st = RetryCall(
      /*max_attempts=*/5,
      [&] {
        ++calls;
        return calls < 3 ? Status::IOError("flaky") : Status::OK();
      },
      &obs);
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(obs.attempts, 3);
  EXPECT_EQ(obs.retries, 2);
  EXPECT_FALSE(obs.deadline_miss);
}

TEST(RetryCallTest, PermanentErrorIsNotRetried) {
  int calls = 0;
  Status st = RetryCall(5, [&] {
    ++calls;
    return Status::NotFound("gone");
  });
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(calls, 1);
}

TEST(RetryCallTest, ResultOverloadAndAttemptExhaustion) {
  int calls = 0;
  RetryObservation obs;
  Result<int> r = RetryCall(
      3,
      [&]() -> Result<int> {
        ++calls;
        return Status::DeadlineExceeded("slow");
      },
      &obs);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(obs.retries, 2);
  EXPECT_FALSE(obs.deadline_miss);  // ran out of attempts, not of budget
}

TEST(RetryCallTest, FiredTokenStopsRetrying) {
  CancelToken token;
  token.RequestCancel();
  int calls = 0;
  RetryObservation obs;
  Status st = RetryCall(
      10,
      [&] {
        ++calls;
        return Status::IOError("down #" + std::to_string(calls));
      },
      &obs, &token);
  // The transient error of the one attempt comes back as is.
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(st.message(), "down #1");
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(obs.attempts, 1);
  EXPECT_EQ(obs.retries, 0);
  EXPECT_TRUE(obs.deadline_miss);
}

// ---------------------------------------------------------------------------
// CircuitBreaker

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresAndShortCircuits) {
  CircuitBreaker breaker({.failure_threshold = 3,
                          .open_cooldown_rejections = 2});
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(breaker.Allow());
    breaker.RecordFailure();
  }
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1);
  EXPECT_FALSE(breaker.Allow());  // rejection 1
  EXPECT_EQ(breaker.short_circuits(), 1);
}

TEST(CircuitBreakerTest, HalfOpenProbeRecovery) {
  CircuitBreaker breaker({.failure_threshold = 2,
                          .open_cooldown_rejections = 2});
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());
  EXPECT_FALSE(breaker.Allow());  // cooldown elapsed -> half-open
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.Allow());   // the probe
  EXPECT_FALSE(breaker.Allow());  // only one probe in flight
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow());
  EXPECT_EQ(breaker.trips(), 1);
}

TEST(CircuitBreakerTest, FailedProbeReopens) {
  CircuitBreaker breaker({.failure_threshold = 1,
                          .open_cooldown_rejections = 1});
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());  // -> half-open
  EXPECT_TRUE(breaker.Allow());   // probe
  breaker.RecordFailure();        // probe fails
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2);
}

TEST(BreakerRegistryTest, SuccessErasesTheBreakerButNotTheTotals) {
  BreakerRegistry registry({.failure_threshold = 1,
                            .open_cooldown_rejections = 1});
  EXPECT_TRUE(registry.Allow("t"));  // an unknown key is a closed breaker
  EXPECT_EQ(registry.size(), 0u);
  registry.RecordFailure("t");       // trips open
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_FALSE(registry.Allow("t"));  // rejection -> half-open
  EXPECT_TRUE(registry.Allow("t"));   // the probe
  registry.RecordSuccess("t");
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.TotalTrips(), 1);
  EXPECT_EQ(registry.TotalShortCircuits(), 1);
  // The key starts over as a fresh closed breaker.
  EXPECT_TRUE(registry.Allow("t"));
  registry.RecordFailure("t");
  EXPECT_EQ(registry.TotalTrips(), 2);
}

// ---------------------------------------------------------------------------
// FaultInjector

TEST(FaultInjectorTest, DecisionsAreDeterministicAcrossInstances) {
  clouddb::FaultConfig cfg;
  cfg.seed = 99;
  cfg.timeout_prob = 0.3;
  cfg.partial_scan_prob = 0.2;
  cfg.latency_spike_prob = 0.2;
  clouddb::FaultInjector a(cfg), b(cfg);
  for (int i = 0; i < 200; ++i) {
    const std::string table = StrFormat("t%d", i % 7);
    auto da = a.Decide(clouddb::DbOp::kScan, table, 0.0);
    auto db = b.Decide(clouddb::DbOp::kScan, table, 0.0);
    EXPECT_EQ(da.kind, db.kind);
    EXPECT_EQ(da.status.code(), db.status.code());
    EXPECT_EQ(da.keep_fraction, db.keep_fraction);
  }
  EXPECT_EQ(a.stats().faults(), b.stats().faults());
  EXPECT_GT(a.stats().faults(), 0);
}

TEST(FaultInjectorTest, ProbabilitiesRoughlyRespected) {
  clouddb::FaultConfig cfg;
  cfg.seed = 7;
  cfg.timeout_prob = 0.10;
  clouddb::FaultInjector injector(cfg);
  int faults = 0;
  const int kCalls = 2000;
  for (int i = 0; i < kCalls; ++i) {
    auto d = injector.Decide(clouddb::DbOp::kScan,
                             "table_" + std::to_string(i), 0.0);
    if (!d.status.ok()) ++faults;
  }
  double rate = static_cast<double>(faults) / kCalls;
  EXPECT_GT(rate, 0.06);
  EXPECT_LT(rate, 0.14);
}

TEST(FaultInjectorTest, ScriptedWindowFiresOnVirtualClockOnly) {
  clouddb::FaultConfig cfg;
  cfg.windows.push_back({.begin_ms = 100,
                         .end_ms = 200,
                         .op = clouddb::DbOp::kMetadata,
                         .kind = clouddb::FaultKind::kTimeout,
                         .table = ""});
  clouddb::FaultInjector injector(cfg);
  EXPECT_TRUE(injector.Decide(clouddb::DbOp::kMetadata, "t", 50).status.ok());
  EXPECT_EQ(injector.Decide(clouddb::DbOp::kMetadata, "t", 150).status.code(),
            StatusCode::kDeadlineExceeded);
  // Scan ops are untouched by a metadata window.
  EXPECT_TRUE(injector.Decide(clouddb::DbOp::kScan, "t", 150).status.ok());
  EXPECT_TRUE(injector.Decide(clouddb::DbOp::kMetadata, "t", 250).status.ok());
}

TEST(FaultInjectorTest, UnavailableTableIsPermanentForScans) {
  clouddb::FaultConfig cfg;
  cfg.unavailable_tables = {"dead"};
  clouddb::FaultInjector injector(cfg);
  EXPECT_EQ(injector.Decide(clouddb::DbOp::kScan, "dead", 0).status.code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(injector.Decide(clouddb::DbOp::kMetadata, "dead", 0).status.ok());
  EXPECT_TRUE(injector.Decide(clouddb::DbOp::kScan, "alive", 0).status.ok());
  clouddb::FaultConfig all = cfg;
  all.unavailable_all_ops = true;
  clouddb::FaultInjector injector2(all);
  EXPECT_EQ(injector2.Decide(clouddb::DbOp::kMetadata, "dead", 0).status.code(),
            StatusCode::kUnavailable);
}

// ---------------------------------------------------------------------------
// Database integration + detector degradation

struct Env {
  data::Dataset dataset;
  std::unique_ptr<text::WordPieceTokenizer> tokenizer;
  std::unique_ptr<model::AdtdModel> model;
  std::unique_ptr<clouddb::SimulatedDatabase> db;
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
    clouddb::CostModel cost;
    cost.time_scale = 0.0;
    e.db = std::make_unique<clouddb::SimulatedDatabase>(cost);
    TASTE_CHECK(e.db->IngestDataset(e.dataset).ok());
    for (const auto& t : e.dataset.tables) e.table_names.push_back(t.name);
    return e;
  }

  void InstallFaults(clouddb::FaultConfig cfg) {
    db->SetFaultInjector(
        std::make_shared<clouddb::FaultInjector>(std::move(cfg)));
  }
};

core::TasteOptions ResilientOptions() {
  core::TasteOptions o;
  o.resilience.max_attempts = 5;
  return o;
}

TEST(DatabaseFaultTest, TryConnectSurfacesConnectFailures) {
  Env e = Env::Make(3);
  clouddb::FaultConfig cfg;
  cfg.connect_failure_prob = 1.0;
  e.InstallFaults(cfg);
  auto conn = e.db->TryConnect();
  ASSERT_FALSE(conn.ok());
  EXPECT_EQ(conn.status().code(), StatusCode::kIOError);
  EXPECT_TRUE(IsTransient(conn.status()));
  // The infallible legacy path still works (fallback for pools).
  EXPECT_NE(e.db->Connect(), nullptr);
}

TEST(DatabaseFaultTest, PartialScanReturnsTruncatedRows) {
  Env e = Env::Make(3);
  clouddb::FaultConfig cfg;
  cfg.partial_scan_prob = 1.0;
  cfg.partial_scan_keep_fraction = 0.4;
  e.InstallFaults(cfg);
  auto conn = e.db->Connect();
  const auto& table = e.dataset.tables[0];
  auto full_rows = std::min<int64_t>(20, table.num_rows);
  auto res = conn->ScanColumns(table.name, {table.columns[0].name},
                               {.limit_rows = 20});
  ASSERT_TRUE(res.ok());
  EXPECT_EQ((*res)[0].size(),
            static_cast<size_t>(std::max<int64_t>(
                1, static_cast<int64_t>(full_rows * 0.4))));
}

TEST(DetectorResilienceTest, TransientMetadataFaultRetriedToSuccess) {
  Env e = Env::Make(3);
  // Metadata queries time out while the virtual clock is under 60 ms.
  // Connect() costs 20 ms, and each failed query advances the clock by
  // query_ms + timeout_wait_ms = 30 ms: attempts land at t = 20, 50, 80,
  // so the 3rd attempt succeeds. Fully scripted, no dice.
  clouddb::FaultConfig cfg;
  cfg.timeout_wait_ms = 25.0;
  cfg.windows.push_back({.begin_ms = 0,
                         .end_ms = 60,
                         .op = clouddb::DbOp::kMetadata,
                         .kind = clouddb::FaultKind::kTimeout,
                         .table = e.table_names[0]});
  e.InstallFaults(cfg);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(),
                          ResilientOptions());
  auto conn = e.db->Connect();
  auto res = det.DetectTable(conn.get(), e.table_names[0]);
  ASSERT_TRUE(res.ok()) << res.status();
  EXPECT_EQ(res->retries, 2);
  EXPECT_EQ(res->degraded_columns, 0);
  for (const auto& col : res->columns) {
    EXPECT_EQ(col.provenance, core::ResultProvenance::kFull);
  }
}

TEST(DetectorResilienceTest, DegradedColumnsMatchP1OnlyBitForBit) {
  Env e = Env::Make(5);
  const std::string dead = e.table_names[1];
  clouddb::FaultConfig cfg;
  cfg.unavailable_tables = {dead};  // scans fail permanently, metadata OK
  e.InstallFaults(cfg);
  core::TasteDetector resilient(e.model.get(), e.tokenizer.get(),
                                ResilientOptions());
  auto conn = e.db->Connect();
  auto degraded = resilient.DetectTable(conn.get(), dead);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  EXPECT_GT(degraded->degraded_columns, 0);
  EXPECT_EQ(degraded->columns_scanned, 0);

  // Reference: the same model in metadata-only mode (P2 disabled) against
  // a fault-free database.
  Env clean = Env::Make(5);
  core::TasteOptions p1_only;
  p1_only.enable_p2 = false;
  core::TasteDetector reference(clean.model.get(), clean.tokenizer.get(),
                                p1_only);
  auto ref_conn = clean.db->Connect();
  auto ref = reference.DetectTable(ref_conn.get(), dead);
  ASSERT_TRUE(ref.ok());

  ASSERT_EQ(degraded->columns.size(), ref->columns.size());
  for (size_t c = 0; c < degraded->columns.size(); ++c) {
    const auto& dc = degraded->columns[c];
    const auto& rc = ref->columns[c];
    EXPECT_EQ(dc.probabilities, rc.probabilities) << "col " << c;
    EXPECT_EQ(dc.admitted_types, rc.admitted_types) << "col " << c;
    EXPECT_FALSE(dc.went_to_p2);
    if (dc.provenance == core::ResultProvenance::kDegradedMetadataOnly) {
      // Every degraded column is one P1 left uncertain.
      EXPECT_GT(dc.probabilities.size(), 0u);
    }
  }
}

TEST(DetectorResilienceTest, DegradedAdmitThresholdMatchesPrivacyModeRule) {
  Env e = Env::Make(4);
  const std::string dead = e.table_names[2];
  clouddb::FaultConfig cfg;
  cfg.unavailable_tables = {dead};
  e.InstallFaults(cfg);
  core::TasteOptions opts = ResilientOptions();
  opts.resilience.degraded_admit_threshold = 0.5;  // Table 4 admission rule
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), opts);
  auto conn = e.db->Connect();
  auto res = det.DetectTable(conn.get(), dead);
  ASSERT_TRUE(res.ok());

  // Reference: alpha = beta = 0.5 (the paper's privacy mode) on clean data.
  Env clean = Env::Make(4);
  core::TasteOptions privacy;
  privacy.alpha = 0.5;
  privacy.beta = 0.5;
  core::TasteDetector reference(clean.model.get(), clean.tokenizer.get(),
                                privacy);
  auto ref_conn = clean.db->Connect();
  auto ref = reference.DetectTable(ref_conn.get(), dead);
  ASSERT_TRUE(ref.ok());
  ASSERT_EQ(res->columns.size(), ref->columns.size());
  for (size_t c = 0; c < res->columns.size(); ++c) {
    if (res->columns[c].provenance ==
        core::ResultProvenance::kDegradedMetadataOnly) {
      EXPECT_EQ(res->columns[c].admitted_types,
                ref->columns[c].admitted_types)
          << "col " << c;
    }
  }
}

TEST(DetectorResilienceTest, BreakerOpensAndStopsBurningRetryBudget) {
  Env e = Env::Make(4);
  const std::string dead = e.table_names[0];
  clouddb::FaultConfig cfg;
  cfg.unavailable_tables = {dead};
  cfg.unavailable_all_ops = true;  // metadata fails too -> no success resets
  e.InstallFaults(cfg);
  core::TasteOptions opts = ResilientOptions();
  opts.resilience.breaker.failure_threshold = 2;
  opts.resilience.breaker.open_cooldown_rejections = 1000;  // stay open
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), opts);
  auto conn = e.db->Connect();
  // Unavailable is permanent -> each DetectTable records exactly one
  // breaker failure (no retries); the 2nd failure opens the breaker.
  EXPECT_FALSE(det.DetectTable(conn.get(), dead).ok());
  EXPECT_FALSE(det.DetectTable(conn.get(), dead).ok());
  EXPECT_EQ(det.breakers().TotalTrips(), 1);
  auto decisions_before = e.db->fault_injector()->stats().decisions;
  // Now even the P1 metadata query is short-circuited: no DB traffic.
  auto res = det.DetectTable(conn.get(), dead);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(e.db->fault_injector()->stats().decisions, decisions_before);
  EXPECT_EQ(det.breakers().TotalTrips(), 1);
  EXPECT_EQ(det.breakers().TotalShortCircuits(), 1);
  EXPECT_EQ(det.breakers().size(), 1u);  // the dead table's breaker stays
}

TEST(DetectorResilienceTest, BreakerHalfOpenRecoveryEndToEnd) {
  Env e = Env::Make(4);
  const std::string flaky = e.table_names[0];
  // Scans fail while the virtual clock is early; once enough failed
  // queries advance the clock past the window, the table heals.
  clouddb::FaultConfig cfg;
  cfg.timeout_wait_ms = 25.0;
  cfg.windows.push_back({.begin_ms = 0,
                         .end_ms = 400,
                         .op = clouddb::DbOp::kScan,
                         .kind = clouddb::FaultKind::kTimeout,
                         .table = flaky});
  e.InstallFaults(cfg);
  core::TasteOptions opts = ResilientOptions();
  opts.resilience.max_attempts = 3;
  opts.resilience.breaker.failure_threshold = 1;
  opts.resilience.breaker.open_cooldown_rejections = 1;
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), opts);
  auto conn = e.db->Connect();
  // 1st call: 3 scan attempts fail (clock 0->90), breaker opens, columns
  // degrade to metadata-only.
  auto first = det.DetectTable(conn.get(), flaky);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->degraded_columns, 0);
  EXPECT_EQ(det.breakers().TotalTrips(), 1);
  // 2nd call: metadata Allow() is the open-state rejection (cooldown 1) ->
  // short-circuit; the table fails fast without touching the database.
  EXPECT_FALSE(det.DetectTable(conn.get(), flaky).ok());
  // Burn the virtual clock past the window with healthy-table traffic.
  core::TasteDetector other(e.model.get(), e.tokenizer.get(),
                            ResilientOptions());
  while (e.db->VirtualNowMs() < 400) {
    ASSERT_TRUE(other.DetectTable(conn.get(), e.table_names[1]).ok());
  }
  // 3rd call: half-open probe (metadata) succeeds, breaker closes, and the
  // scan now works -> full-provenance result.
  auto healed = det.DetectTable(conn.get(), flaky);
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_EQ(healed->degraded_columns, 0);
  EXPECT_GT(healed->columns_scanned, 0);
  EXPECT_EQ(det.breakers().TotalTrips(), 1);  // no re-trip
  // The closing success erased the breaker; its counts survive it.
  EXPECT_EQ(det.breakers().size(), 0u);
  EXPECT_EQ(det.breakers().TotalShortCircuits(), 1);
}

TEST(DetectorResilienceTest, HealthyTablesLeaveNoBreakers) {
  // Breakers are always on, so the registry must not keep one for every
  // table name it ever served: 1,000 distinct healthy tables leave it
  // empty, and only a table that failed since its last success holds one.
  Env e = Env::Make(2);
  const std::string dead = e.table_names[1];
  data::TableSpec spec = e.dataset.tables[0];
  spec.columns.resize(1);
  std::vector<std::string> healthy;
  for (int k = 0; k < 1000; ++k) {
    spec.name = StrFormat("healthy_%d", k);
    ASSERT_TRUE(e.db->CreateTable(spec).ok());
    healthy.push_back(spec.name);
  }
  clouddb::FaultConfig cfg;
  cfg.unavailable_tables = {dead};  // scans fail, metadata OK
  e.InstallFaults(cfg);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  auto conn = e.db->Connect();
  int scanned = 0;
  for (const auto& name : healthy) {
    auto res = det.DetectTable(conn.get(), name);
    ASSERT_TRUE(res.ok()) << name << ": " << res.status();
    scanned += res->columns_scanned;
  }
  EXPECT_GT(scanned, 0);  // the scan path ran too, not only metadata
  EXPECT_EQ(det.breakers().size(), 0u);
  auto degraded = det.DetectTable(conn.get(), dead);
  ASSERT_TRUE(degraded.ok()) << degraded.status();
  ASSERT_GT(degraded->degraded_columns, 0);
  EXPECT_EQ(det.breakers().size(), 1u);
}

// ---------------------------------------------------------------------------
// Pipeline: batch isolation, partial results, the acceptance scenario

TEST(PipelineFaultTest, GhostTableYieldsPartialBatchNotTotalFailure) {
  Env e = Env::Make(4);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  pipeline::PipelineExecutor exec(&det, e.db.get(), {.pipelined = true});
  auto names = e.table_names;
  names.push_back("ghost_table");
  pipeline::BatchResult batch = exec.RunBatch(names);
  ASSERT_EQ(batch.tables.size(), names.size());
  EXPECT_FALSE(batch.all_ok());
  for (size_t i = 0; i < e.table_names.size(); ++i) {
    EXPECT_TRUE(batch.tables[i].status.ok()) << i;
    EXPECT_EQ(batch.tables[i].result.columns.size(),
              e.dataset.tables[i].columns.size());
  }
  EXPECT_EQ(batch.tables.back().status.code(), StatusCode::kNotFound);
  EXPECT_EQ(exec.resilience_stats().failed_tables, 1);
  // A second run of the same batch fails the same table again.
  EXPECT_FALSE(exec.RunBatch(names).all_ok());
}

TEST(PipelineFaultTest, AcceptanceTwentyTablesTenPercentFaultsOneHardFailure) {
  // The ISSUE's acceptance scenario: a 20-table WikiLike batch under a
  // seeded 10% transient-fault script plus one hard-failed table. The
  // pipelined run must complete (no deadlock), return results for all 19
  // healthy tables, and serve the dead table's uncertain columns from the
  // P1 metadata-only prediction, bit-for-bit equal to an enable_p2=false
  // run of the same model.
  Env e = Env::Make(20);
  const std::string dead = e.table_names[7];
  clouddb::FaultConfig cfg;
  cfg.seed = 2025;
  cfg.timeout_prob = 0.10;
  cfg.unavailable_tables = {dead};
  e.InstallFaults(cfg);

  core::TasteOptions opts = ResilientOptions();
  opts.resilience.max_attempts = 6;
  opts.resilience.breaker.failure_threshold = 3;
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), opts);
  pipeline::PipelineExecutor exec(
      &det, e.db.get(),
      {.prep_threads = 2, .infer_threads = 2, .pipelined = true});
  pipeline::BatchResult batch = exec.RunBatch(e.table_names);

  ASSERT_EQ(batch.tables.size(), 20u);
  int degraded_total = 0;
  for (size_t i = 0; i < batch.tables.size(); ++i) {
    const auto& t = batch.tables[i];
    ASSERT_TRUE(t.status.ok())
        << e.table_names[i] << ": " << t.status.ToString();
    ASSERT_EQ(t.result.columns.size(), e.dataset.tables[i].columns.size());
    if (e.table_names[i] == dead) {
      EXPECT_GT(t.result.degraded_columns, 0);
      EXPECT_EQ(t.result.columns_scanned, 0);
      degraded_total += t.result.degraded_columns;
      for (const auto& col : t.result.columns) {
        EXPECT_NE(col.provenance, core::ResultProvenance::kFailed);
      }
    } else {
      EXPECT_EQ(t.result.degraded_columns, 0) << e.table_names[i];
      for (const auto& col : t.result.columns) {
        EXPECT_EQ(col.provenance, core::ResultProvenance::kFull);
      }
    }
  }
  EXPECT_GT(degraded_total, 0);
  const auto& rz = exec.resilience_stats();
  EXPECT_GT(rz.retries, 0);              // the 10% transients were retried
  EXPECT_EQ(rz.failed_tables, 0);        // degradation, not failure
  EXPECT_EQ(rz.degraded_columns, degraded_total);

  // Bit-for-bit: the dead table's columns equal the P1-only prediction.
  Env clean = Env::Make(20);
  core::TasteOptions p1_only;
  p1_only.enable_p2 = false;
  core::TasteDetector reference(clean.model.get(), clean.tokenizer.get(),
                                p1_only);
  auto ref_conn = clean.db->Connect();
  auto ref = reference.DetectTable(ref_conn.get(), dead);
  ASSERT_TRUE(ref.ok());
  const auto& dead_result =
      batch.tables[7].result;
  ASSERT_EQ(dead_result.columns.size(), ref->columns.size());
  for (size_t c = 0; c < dead_result.columns.size(); ++c) {
    EXPECT_EQ(dead_result.columns[c].probabilities,
              ref->columns[c].probabilities)
        << "col " << c;
    EXPECT_EQ(dead_result.columns[c].admitted_types,
              ref->columns[c].admitted_types)
        << "col " << c;
  }
}

TEST(PipelineFaultTest, HardMetadataFailureIsolatedWithoutDegradation) {
  // A table whose metadata AND scans are gone fails permanently; with
  // degradation impossible (P1 never ran) its status is surfaced per-table
  // while the rest of the batch completes.
  Env e = Env::Make(6);
  const std::string dead = e.table_names[2];
  clouddb::FaultConfig cfg;
  cfg.unavailable_tables = {dead};
  cfg.unavailable_all_ops = true;
  e.InstallFaults(cfg);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(),
                          ResilientOptions());
  pipeline::PipelineExecutor exec(&det, e.db.get(), {.pipelined = true});
  pipeline::BatchResult batch = exec.RunBatch(e.table_names);
  for (size_t i = 0; i < batch.tables.size(); ++i) {
    if (e.table_names[i] == dead) {
      EXPECT_EQ(batch.tables[i].status.code(), StatusCode::kUnavailable);
      EXPECT_TRUE(batch.tables[i].result.columns.empty());
    } else {
      EXPECT_TRUE(batch.tables[i].status.ok()) << i;
    }
  }
  EXPECT_EQ(exec.resilience_stats().failed_tables, 1);
}

TEST(PipelineFaultTest, FailedColumnsMarkedWhenDegradationDisabled) {
  Env e = Env::Make(5);
  const std::string dead = e.table_names[3];
  clouddb::FaultConfig cfg;
  cfg.unavailable_tables = {dead};
  e.InstallFaults(cfg);
  core::TasteOptions opts = ResilientOptions();
  opts.resilience.degrade_on_scan_failure = false;
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), opts);
  pipeline::PipelineExecutor exec(&det, e.db.get(), {.pipelined = true});
  pipeline::BatchResult batch = exec.RunBatch(e.table_names);
  bool saw_failed_column = false;
  for (size_t i = 0; i < batch.tables.size(); ++i) {
    if (e.table_names[i] != dead) {
      EXPECT_TRUE(batch.tables[i].status.ok()) << i;
      continue;
    }
    // P1 completed, so the partial result carries every column; the ones
    // P2 could not serve are marked kFailed.
    EXPECT_EQ(batch.tables[i].status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(batch.tables[i].result.columns.size(),
              e.dataset.tables[i].columns.size());
    EXPECT_GT(batch.tables[i].result.failed_columns, 0);
    for (const auto& col : batch.tables[i].result.columns) {
      if (col.provenance == core::ResultProvenance::kFailed) {
        saw_failed_column = true;
        EXPECT_TRUE(col.admitted_types.empty());
      }
    }
  }
  EXPECT_TRUE(saw_failed_column);
}

TEST(PipelineFaultTest, RegistryCountersMatchResilienceAndCacheStats) {
  // The observability layer must tell the same story as the executor's own
  // ResilienceStats and the latent cache's internal counters: a faulted
  // RunBatch's registry deltas equal the structs the run returns.
  obs::SetMetricsEnabled(true);
  Env e = Env::Make(8);
  const std::string dead = e.table_names[3];
  clouddb::FaultConfig cfg;
  cfg.seed = 77;
  cfg.timeout_prob = 0.10;         // transient faults -> retries
  cfg.unavailable_tables = {dead}; // permanent scan failure -> degradation
  e.InstallFaults(cfg);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(),
                          ResilientOptions());
  pipeline::PipelineExecutor exec(&det, e.db.get(), {.pipelined = true});

  const obs::MetricsSnapshot before = obs::MetricsSnapshot::Capture();
  pipeline::BatchResult batch = exec.RunBatch(e.table_names);
  const obs::MetricsSnapshot after = obs::MetricsSnapshot::Capture();

  ASSERT_EQ(batch.tables.size(), e.table_names.size());
  const auto& rz = exec.resilience_stats();
  EXPECT_GT(rz.retries, 0);
  EXPECT_EQ(after.CounterDelta(before, "taste_retries_total"), rz.retries);
  EXPECT_EQ(after.CounterDelta(before, "taste_breaker_trips_total"),
            rz.breaker_trips);
  EXPECT_EQ(after.CounterDelta(before, "taste_degraded_columns_total"),
            rz.degraded_columns);
  EXPECT_EQ(after.CounterDelta(before, "taste_failed_tables_total"),
            rz.failed_tables);
  EXPECT_EQ(after.CounterDelta(before, "taste_pipeline_tables_total"),
            static_cast<int64_t>(exec.stats().tables_processed));

  // Cache counters: this detector is the only cache user between the two
  // snapshots, so its internal stats equal the registry deltas exactly.
  const auto cache_stats = det.cache().stats();
  EXPECT_GT(cache_stats.hits + cache_stats.misses, 0);
  EXPECT_EQ(after.CounterDelta(before, "taste_cache_hits_total"),
            cache_stats.hits);
  EXPECT_EQ(after.CounterDelta(before, "taste_cache_misses_total"),
            cache_stats.misses);

  // One batch -> exactly one batch-latency observation.
  EXPECT_EQ(after.HistogramCountDelta(before, "taste_pipeline_batch_ms"), 1);
}

TEST(PipelineFaultTest, ZeroFaultRateIsByteIdenticalToLegacyPath) {
  Env e = Env::Make(8);
  core::TasteDetector plain(e.model.get(), e.tokenizer.get(), {});
  pipeline::PipelineExecutor legacy(&plain, e.db.get(), {.pipelined = true});
  pipeline::BatchResult a = legacy.RunBatch(e.table_names);
  ASSERT_TRUE(a.all_ok());

  // Same database, now with an installed-but-all-zero injector and a
  // different attempt budget.
  e.InstallFaults(clouddb::FaultConfig{.seed = 1});
  core::TasteDetector resilient(e.model.get(), e.tokenizer.get(),
                                ResilientOptions());
  pipeline::PipelineExecutor exec(&resilient, e.db.get(),
                                  {.pipelined = true});
  pipeline::BatchResult batch = exec.RunBatch(e.table_names);
  ASSERT_TRUE(batch.all_ok());
  const auto& rz = exec.resilience_stats();
  EXPECT_EQ(rz.retries, 0);
  EXPECT_EQ(rz.degraded_columns, 0);
  EXPECT_EQ(rz.breaker_trips, 0);
  ASSERT_EQ(batch.tables.size(), a.tables.size());
  for (size_t i = 0; i < a.tables.size(); ++i) {
    const auto& lhs = a.tables[i].result;
    const auto& rhs = batch.tables[i].result;
    ASSERT_EQ(lhs.columns.size(), rhs.columns.size());
    EXPECT_EQ(lhs.columns_scanned, rhs.columns_scanned);
    for (size_t c = 0; c < lhs.columns.size(); ++c) {
      EXPECT_EQ(lhs.columns[c].admitted_types, rhs.columns[c].admitted_types);
      EXPECT_EQ(lhs.columns[c].probabilities, rhs.columns[c].probabilities);
      EXPECT_EQ(rhs.columns[c].provenance, core::ResultProvenance::kFull);
    }
  }
}

/// Every field of one table's outcome, probabilities as raw float bytes.
std::string OutcomeBytes(const pipeline::TableRunResult& t) {
  const core::TableDetectionResult& r = t.result;
  std::string out = t.status.ToString() + "|" +
                    pipeline::TableOutcomeName(t.outcome) + "|" +
                    r.table_name +
                    StrFormat("|%d,%d,%d,%d,%d,%d,%d", r.columns_scanned,
                              r.total_columns, r.degraded_columns,
                              r.failed_columns, r.retries, r.deadline_misses,
                              r.breaker_short_circuits);
  for (const auto& c : r.columns) {
    out += StrFormat("|%s,%d,%d,%d:", c.column_name.c_str(), c.ordinal,
                     c.went_to_p2 ? 1 : 0, static_cast<int>(c.provenance));
    for (int ty : c.admitted_types) out += std::to_string(ty) + ",";
    out.append(reinterpret_cast<const char*>(c.probabilities.data()),
               c.probabilities.size() * sizeof(float));
  }
  return out;
}

TEST(PipelineFaultTest, SequentialAndPipelinedRetryTheSameWay) {
  // One retry rule on every path: under the same hashed transient faults
  // each table makes the same database attempts and ends in the same
  // bytes, pipelined or not. Two attempts per call at a 50% timeout rate
  // leave some tables out of attempts, which is where the two modes would
  // part if either added retries of its own.
  Env e = Env::Make(12);
  clouddb::FaultConfig cfg;
  cfg.seed = 4242;
  cfg.timeout_prob = 0.5;
  core::TasteOptions opts;
  opts.resilience.max_attempts = 2;
  struct Run {
    pipeline::BatchResult batch;
    std::vector<uint64_t> metadata_attempts;
    std::vector<uint64_t> scan_attempts;
  };
  auto run = [&](bool pipelined) {
    auto injector = std::make_shared<clouddb::FaultInjector>(cfg);
    e.db->SetFaultInjector(injector);
    core::TasteDetector det(e.model.get(), e.tokenizer.get(), opts);
    pipeline::PipelineExecutor exec(
        &det, e.db.get(),
        {.prep_threads = 2, .infer_threads = 2, .pipelined = pipelined});
    Run r;
    r.batch = exec.RunBatch(e.table_names);
    for (const auto& name : e.table_names) {
      r.metadata_attempts.push_back(
          injector->attempts(clouddb::DbOp::kMetadata, name));
      r.scan_attempts.push_back(injector->attempts(clouddb::DbOp::kScan, name));
    }
    return r;
  };
  const Run seq = run(/*pipelined=*/false);
  const Run pip = run(/*pipelined=*/true);
  ASSERT_EQ(seq.batch.tables.size(), e.table_names.size());
  ASSERT_EQ(pip.batch.tables.size(), e.table_names.size());
  int failed = 0, retried_to_success = 0;
  for (size_t i = 0; i < e.table_names.size(); ++i) {
    const std::string& name = e.table_names[i];
    EXPECT_EQ(seq.metadata_attempts[i], pip.metadata_attempts[i]) << name;
    EXPECT_EQ(seq.scan_attempts[i], pip.scan_attempts[i]) << name;
    EXPECT_LE(seq.metadata_attempts[i], 2u) << name;
    const pipeline::TableRunResult& t = seq.batch.tables[i];
    EXPECT_EQ(OutcomeBytes(t), OutcomeBytes(pip.batch.tables[i])) << name;
    if (!t.status.ok()) {
      ++failed;
      EXPECT_EQ(t.result.table_name, name);
      EXPECT_EQ(t.result.retries, 1) << name;  // kept from the failed call
    } else if (t.result.retries > 0) {
      ++retried_to_success;
    }
  }
  EXPECT_GT(failed, 0);
  EXPECT_GT(retried_to_success, 0);
}

}  // namespace
}  // namespace taste
