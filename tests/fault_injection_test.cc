// Fault-tolerance tests for the cloud-database serving path: retry policy
// and circuit-breaker primitives, the deterministic FaultInjector, the
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
// RetryPolicy / RetryCall

TEST(RetryPolicyTest, BackoffIsCappedExponentialAndDeterministic) {
  RetryPolicy p;
  p.initial_backoff_ms = 10;
  p.max_backoff_ms = 35;
  p.backoff_multiplier = 2.0;
  p.jitter_fraction = 0.25;
  EXPECT_EQ(p.BackoffMillis(1, 7), 0.0);
  for (int attempt = 2; attempt <= 6; ++attempt) {
    double base = attempt == 2 ? 10 : attempt == 3 ? 20 : 35;  // capped
    double b = p.BackoffMillis(attempt, 7);
    EXPECT_GE(b, base * 0.75) << attempt;
    EXPECT_LE(b, base * 1.25) << attempt;
    // Pure function: same (policy, salt, attempt) -> same jitter.
    EXPECT_EQ(b, p.BackoffMillis(attempt, 7));
    // Different salts decorrelate concurrent retry loops.
    EXPECT_NE(b, p.BackoffMillis(attempt, 8));
  }
}

TEST(RetryCallTest, TransientThenSuccess) {
  RetryPolicy p;
  p.max_attempts = 5;
  int calls = 0;
  RetryObservation obs;
  Status st = RetryCall(
      p, /*salt=*/1, /*sleep_ms=*/{},
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
  RetryPolicy p;
  p.max_attempts = 5;
  int calls = 0;
  Status st = RetryCall(p, 1, {}, [&] {
    ++calls;
    return Status::NotFound("gone");
  });
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(calls, 1);
}

TEST(RetryCallTest, ResultOverloadAndAttemptExhaustion) {
  RetryPolicy p;
  p.max_attempts = 3;
  int calls = 0;
  RetryObservation obs;
  Result<int> r = RetryCall(
      p, 2, {},
      [&]() -> Result<int> {
        ++calls;
        return Status::DeadlineExceeded("slow");
      },
      &obs);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(obs.retries, 2);
}

TEST(RetryCallTest, BackoffBudgetDeadline) {
  RetryPolicy p;
  p.max_attempts = 10;
  p.initial_backoff_ms = 50;
  p.jitter_fraction = 0.0;
  p.per_call_backoff_budget_ms = 120;  // 50 + 100 > 120 -> stop after 2 waits
  int calls = 0;
  RetryObservation obs;
  Status st = RetryCall(p, 3, {}, [&] {
    ++calls;
    return Status::IOError("down");
  }, &obs);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(calls, 2);  // attempt 1, backoff 50, attempt 2, next would break budget
  EXPECT_TRUE(obs.deadline_miss);
}

TEST(RetryPolicyTest, JitterStaysInBoundsAndSpreadsAcrossSalts) {
  RetryPolicy p;
  p.initial_backoff_ms = 10;
  p.max_backoff_ms = 80;
  p.backoff_multiplier = 2.0;
  p.jitter_fraction = 0.2;
  // The multi-process supervisor salts the respawn backoff with the
  // replica id; many concurrent loops must each stay inside the jitter
  // band yet not collapse onto a handful of values (thundering herd).
  for (int attempt = 2; attempt <= 5; ++attempt) {
    const double base = std::min(10.0 * (1 << (attempt - 2)), 80.0);
    double lo = 1e300, hi = -1e300;
    for (uint64_t salt = 0; salt < 512; ++salt) {
      const double b = p.BackoffMillis(attempt, salt);
      EXPECT_GE(b, base * 0.8) << "attempt " << attempt << " salt " << salt;
      EXPECT_LT(b, base * 1.2 + 1e-9)
          << "attempt " << attempt << " salt " << salt;
      EXPECT_EQ(b, p.BackoffMillis(attempt, salt));  // pure function
      lo = std::min(lo, b);
      hi = std::max(hi, b);
    }
    // 512 salts must fill most of the [0.8, 1.2) band, not cluster.
    EXPECT_GT(hi - lo, base * 0.2) << "attempt " << attempt;
  }
  // Zero jitter degenerates to the exact capped exponential.
  p.jitter_fraction = 0.0;
  EXPECT_EQ(p.BackoffMillis(2, 1), p.BackoffMillis(2, 99));
  EXPECT_EQ(p.BackoffMillis(2, 1), 10.0);
}

TEST(RetryCallTest, BudgetExpiringMidBackoffNeverSleepsPastBudget) {
  RetryPolicy p;
  p.max_attempts = 50;
  p.initial_backoff_ms = 40;
  p.backoff_multiplier = 2.0;
  p.jitter_fraction = 0.0;
  p.per_call_backoff_budget_ms = 100;  // 40 fits, 40+80 would overshoot
  double slept = 0.0;
  int calls = 0;
  RetryObservation obs;
  Status st = RetryCall(
      p, /*salt=*/11, [&](double ms) { slept += ms; },
      [&] {
        ++calls;
        return Status::IOError("down");
      },
      &obs);
  EXPECT_FALSE(st.ok());
  // The second backoff (80 ms) would cross the 100 ms budget: the call
  // must give up BEFORE sleeping it, not after.
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(slept, 40.0);
  EXPECT_LE(slept, p.per_call_backoff_budget_ms);
  EXPECT_DOUBLE_EQ(obs.backoff_ms, 40.0);
  EXPECT_TRUE(obs.deadline_miss);

  // A budget smaller than the first backoff: zero sleeping, one retry's
  // worth of attempts never happens.
  p.per_call_backoff_budget_ms = 10;
  slept = 0.0;
  calls = 0;
  st = RetryCall(
      p, 11, [&](double ms) { slept += ms; },
      [&] {
        ++calls;
        return Status::IOError("down");
      },
      &obs);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(slept, 0.0);
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
  o.resilience.enabled = true;
  o.resilience.retry.max_attempts = 5;
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

TEST(DetectorResilienceTest, WithoutResilienceTransientFaultIsFatal) {
  Env e = Env::Make(3);
  clouddb::FaultConfig cfg;
  cfg.windows.push_back({.begin_ms = 0,
                         .end_ms = 40,
                         .op = clouddb::DbOp::kMetadata,
                         .kind = clouddb::FaultKind::kTimeout,
                         .table = e.table_names[0]});
  e.InstallFaults(cfg);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  auto conn = e.db->Connect();
  auto res = det.DetectTable(conn.get(), e.table_names[0]);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kDeadlineExceeded);
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
  ASSERT_NE(det.breakers(), nullptr);
  EXPECT_EQ(det.breakers()->TotalTrips(), 1);
  auto decisions_before = e.db->fault_injector()->stats().decisions;
  // Now even the P1 metadata query is short-circuited: no DB traffic.
  auto res = det.DetectTable(conn.get(), dead);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(e.db->fault_injector()->stats().decisions, decisions_before);
  EXPECT_EQ(det.breakers()->TotalTrips(), 1);
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
  opts.resilience.retry.max_attempts = 3;
  opts.resilience.breaker.failure_threshold = 1;
  opts.resilience.breaker.open_cooldown_rejections = 1;
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), opts);
  auto conn = e.db->Connect();
  // 1st call: 3 scan attempts fail (clock 0->90), breaker opens, columns
  // degrade to metadata-only.
  auto first = det.DetectTable(conn.get(), flaky);
  ASSERT_TRUE(first.ok());
  EXPECT_GT(first->degraded_columns, 0);
  ASSERT_NE(det.breakers(), nullptr);
  EXPECT_EQ(det.breakers()->TotalTrips(), 1);
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
  EXPECT_EQ(det.breakers()->TotalTrips(), 1);  // no re-trip
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
  // The legacy API keeps the all-or-nothing contract.
  EXPECT_FALSE(exec.Run(names).ok());
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
  opts.resilience.retry.max_attempts = 6;
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

TEST(PipelineFaultTest, StageRetryKeepsTheFailedAttemptsRetries) {
  // P1-prep of the only table exhausts its call-level retries, so the
  // pipeline re-runs the stage, which then succeeds after one more retry.
  // The batch's retry count must include the first attempt's retry.
  // Virtual clock from t0: the pool's one connect costs 20 ms and each
  // timed-out metadata query 30 ms, so queries land at t0 + 20, 50, 80 and
  // 110; the window times out the first three.
  Env e = Env::Make(1);
  const double t0 = e.db->VirtualNowMs();
  clouddb::FaultConfig cfg;
  cfg.windows.push_back({.begin_ms = 0,
                         .end_ms = t0 + 100,
                         .op = clouddb::DbOp::kMetadata,
                         .kind = clouddb::FaultKind::kTimeout,
                         .table = e.table_names[0]});
  e.InstallFaults(cfg);
  core::TasteOptions opts = ResilientOptions();
  opts.resilience.retry.max_attempts = 2;
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), opts);
  pipeline::PipelineExecutor exec(
      &det, e.db.get(),
      {.prep_threads = 1, .pipelined = true, .max_stage_retries = 1});
  pipeline::BatchResult batch = exec.RunBatch(e.table_names);
  ASSERT_TRUE(batch.tables[0].status.ok()) << batch.tables[0].status;
  const pipeline::ResilienceStats& rz = exec.resilience_stats();
  EXPECT_EQ(rz.stage_retries, 1);
  EXPECT_EQ(rz.retries, 2);
  EXPECT_EQ(batch.tables[0].result.retries, 2);
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
  EXPECT_EQ(after.CounterDelta(before, "taste_stage_retries_total"),
            rz.stage_retries);
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
  auto a = legacy.Run(e.table_names);
  ASSERT_TRUE(a.ok());

  // Same database, now with an installed-but-all-zero injector and the
  // full resilience machinery enabled.
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
  ASSERT_EQ(batch.tables.size(), a->size());
  for (size_t i = 0; i < a->size(); ++i) {
    const auto& lhs = (*a)[i];
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

}  // namespace
}  // namespace taste
