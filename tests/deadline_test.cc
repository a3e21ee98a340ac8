// Deadline propagation and admission control (DESIGN.md §8): the
// Deadline/CancelToken primitives, the thread pool's bounded TrySubmit,
// completion callbacks and draining teardown, the fault injector's
// deadline-capped waits, and the pipeline executor's deterministic
// deadline/shedding behaviour. Every
// scenario here runs on the instant virtual clock (time_scale = 0) or pure
// in-memory primitives, so nothing depends on wall-clock timing; the
// real-time expiry scenarios live in overload_test.cc.

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "clouddb/fault_injector.h"
#include "common/deadline.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/taste_detector.h"
#include "data/table_generator.h"
#include "obs/metrics.h"
#include "pipeline/scheduler.h"

namespace taste {
namespace {

// ---------------------------------------------------------------------------
// Deadline

TEST(DeadlineTest, DefaultIsInfinite) {
  Deadline d;
  EXPECT_TRUE(d.IsInfinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_EQ(d.RemainingMillis(), std::numeric_limits<double>::infinity());
}

TEST(DeadlineTest, GenerousBudgetIsArmedButNotExpired) {
  Deadline d = Deadline::AfterMillis(60000);
  EXPECT_FALSE(d.IsInfinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMillis(), 1000.0);
  EXPECT_LE(d.RemainingMillis(), 60000.0);
}

TEST(DeadlineTest, NonPositiveBudgetIsPreExpired) {
  EXPECT_TRUE(Deadline::AfterMillis(0).Expired());
  EXPECT_TRUE(Deadline::AfterMillis(-1).Expired());
  EXPECT_EQ(Deadline::AfterMillis(-1).RemainingMillis(), 0.0);
}

// ---------------------------------------------------------------------------
// CancelToken

TEST(CancelTokenTest, FiresOnExpiredDeadline) {
  CancelToken t(Deadline::AfterMillis(-1));
  EXPECT_TRUE(t.Cancelled());
  EXPECT_FALSE(t.CancelRequested());  // deadline, not an explicit request
  EXPECT_EQ(t.ToStatus("op").code(), StatusCode::kDeadlineExceeded);
}

TEST(CancelTokenTest, FiresOnExplicitRequest) {
  CancelToken t;
  EXPECT_FALSE(t.Cancelled());
  t.RequestCancel();
  EXPECT_TRUE(t.Cancelled());
  EXPECT_TRUE(t.CancelRequested());
  EXPECT_EQ(t.ToStatus("op").code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, ParentCancellationPropagatesToChildren) {
  CancelToken batch(Deadline::AfterMillis(60000));
  CancelToken table(Deadline::AfterMillis(60000), &batch);
  EXPECT_FALSE(table.Cancelled());
  batch.RequestCancel();
  EXPECT_TRUE(table.Cancelled());
  EXPECT_EQ(table.ToStatus("op").code(), StatusCode::kCancelled);
}

TEST(CancelTokenTest, CancelledNowGuardsNull) {
  EXPECT_FALSE(CancelledNow(nullptr));
  CancelToken live;
  EXPECT_FALSE(CancelledNow(&live));
  CancelToken fired(Deadline::AfterMillis(-1));
  EXPECT_TRUE(CancelledNow(&fired));
}

// ---------------------------------------------------------------------------
// ThreadPool: bounded admission, completion callbacks, teardown

/// Submits `task`, waiting for a free worker whenever the pool refuses.
void SubmitWhenFree(ThreadPool& pool, const std::function<void()>& task) {
  while (!pool.TrySubmit(task)) std::this_thread::yield();
}

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    SubmitWhenFree(pool, [&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolAdmissionTest, TrySubmitRefusesPastBound) {
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  auto running = std::make_shared<std::promise<void>>();
  ASSERT_TRUE(pool.TrySubmit([gate, running] {
    running->set_value();
    gate.wait();
  }));
  running->get_future().wait();  // the single worker is now occupied
  std::atomic<int> refused_ran{0};
  EXPECT_FALSE(pool.TrySubmit([&refused_ran] { refused_ran.fetch_add(1); }));
  release.set_value();
  pool.WaitIdle();
  EXPECT_EQ(refused_ran.load(), 0);  // refused, not queued
  std::atomic<bool> ran{false};
  ASSERT_TRUE(pool.TrySubmit([&ran] { ran = true; }));  // capacity returned
  pool.WaitIdle();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, FullReflectsCapacity) {
  // The pool is full exactly when size() tasks are in flight: it admits
  // that many, refuses the next, and admits size() again once they finish.
  ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::vector<std::shared_ptr<std::promise<void>>> running;
  for (size_t i = 0; i < pool.size(); ++i) {
    auto started = std::make_shared<std::promise<void>>();
    running.push_back(started);
    ASSERT_TRUE(pool.TrySubmit([gate, started] {
      started->set_value();
      gate.wait();
    }));
  }
  for (auto& started : running) started->get_future().wait();
  EXPECT_FALSE(pool.TrySubmit([] {}));
  release.set_value();
  pool.WaitIdle();
  std::atomic<int> ran{0};
  for (size_t i = 0; i < pool.size(); ++i) {
    EXPECT_TRUE(pool.TrySubmit([&ran] { ran.fetch_add(1); }));
  }
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), static_cast<int>(pool.size()));
}

TEST(ThreadPoolTest, TaskCompleteCallbackFiresAfterSlotRelease) {
  // Every callback runs after its task's slot is free: on a one-worker
  // pool, each of the first four callbacks is admitted a follow-up task.
  ThreadPool pool(1);
  std::atomic<int> calls{0};
  std::atomic<int> admitted{0};
  pool.SetTaskCompleteCallback([&] {
    if (calls.fetch_add(1) < 4 && pool.TrySubmit([] {})) {
      admitted.fetch_add(1);
    }
  });
  ASSERT_TRUE(pool.TrySubmit([] {}));
  pool.WaitIdle();  // returns only after the last callback has returned
  EXPECT_EQ(calls.load(), 5);
  EXPECT_EQ(admitted.load(), 4);
  pool.SetTaskCompleteCallback(nullptr);
}

TEST(ThreadPoolTest, WaitIdleWaitsForTaskCompleteCallbacks) {
  // A pool kept across batches may have its callback capture batch-local
  // state; WaitIdle must not return while a callback still runs, and the
  // callback can then be replaced for the next batch.
  ThreadPool pool(2);
  for (int batch = 0; batch < 3; ++batch) {
    std::atomic<int> returned{0};
    pool.SetTaskCompleteCallback([&returned] {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      returned.fetch_add(1);
    });
    for (int i = 0; i < 4; ++i) SubmitWhenFree(pool, [] {});
    pool.WaitIdle();
    EXPECT_EQ(returned.load(), 4) << "batch " << batch;
    pool.SetTaskCompleteCallback(nullptr);
  }
}

TEST(ThreadPoolTest, ZeroRequestedBecomesOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPoolAdmissionTest, DestructorDrainsAdmittedTasks) {
  // Destroying the pool right after admission: tasks still queued when
  // the workers are told to stop must run before the join.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(pool.TrySubmit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1);
      }));
    }
  }
  EXPECT_EQ(ran.load(), 4);
}

// ---------------------------------------------------------------------------
// FaultInjector x deadline

TEST(FaultInjectorDeadlineTest, BurnedWaitIsCappedAtRemainingBudget) {
  clouddb::FaultConfig cfg;
  cfg.timeout_prob = 1.0;
  cfg.timeout_wait_ms = 25.0;
  clouddb::FaultInjector injector(cfg);
  auto d = injector.Decide(clouddb::DbOp::kScan, "t", 0.0,
                           /*remaining_deadline_ms=*/5.0);
  EXPECT_EQ(d.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(d.extra_latency_ms, 5.0);  // 25 ms wait cut to the budget
  EXPECT_EQ(injector.stats().deadline_truncated, 1);
  // No deadline: the full wait is burned and nothing is truncated.
  auto free = injector.Decide(clouddb::DbOp::kScan, "u", 0.0);
  EXPECT_EQ(free.extra_latency_ms, 25.0);
  EXPECT_EQ(injector.stats().deadline_truncated, 1);
}

TEST(FaultInjectorDeadlineTest, FaultChoiceIgnoresDeadline) {
  clouddb::FaultConfig cfg;
  cfg.seed = 11;
  cfg.timeout_prob = 0.3;
  cfg.latency_spike_prob = 0.3;
  clouddb::FaultInjector with_budget(cfg), without_budget(cfg);
  for (int i = 0; i < 200; ++i) {
    const std::string table = StrFormat("t%d", i % 5);
    auto a = with_budget.Decide(clouddb::DbOp::kScan, table, 0.0, 1.0);
    auto b = without_budget.Decide(clouddb::DbOp::kScan, table, 0.0);
    EXPECT_EQ(a.kind, b.kind) << i;  // same deterministic fault sequence
    EXPECT_LE(a.extra_latency_ms, 1.0);
  }
}

// ---------------------------------------------------------------------------
// Pipeline executor: deterministic deadline + admission behaviour

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
};

std::vector<std::string> FirstTables(const Env& e, size_t n) {
  return std::vector<std::string>(e.table_names.begin(),
                                  e.table_names.begin() + n);
}

TEST(PipelineDeadlineTest, PreExpiredDeadlineParksEveryTable) {
  Env env = Env::Make(6);
  core::TasteDetector detector(env.model.get(), env.tokenizer.get(), {});
  pipeline::PipelineOptions popt;
  popt.deadline_ms = -1.0;  // budget exhausted before the batch starts
  pipeline::PipelineExecutor exec(&detector, env.db.get(), popt);
  auto batch = exec.RunBatch(FirstTables(env, 4));
  ASSERT_EQ(batch.tables.size(), 4u);
  for (const auto& t : batch.tables) {
    EXPECT_EQ(t.outcome, pipeline::TableOutcome::kExpired);
    EXPECT_EQ(t.status.code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(t.result.columns.empty());  // no work was performed
  }
  EXPECT_EQ(exec.resilience_stats().expired_tables, 4);
}

TEST(PipelineDeadlineTest, PreExpiredSequentialModeMatches) {
  Env env = Env::Make(6);
  core::TasteDetector detector(env.model.get(), env.tokenizer.get(), {});
  pipeline::PipelineOptions popt;
  popt.pipelined = false;
  popt.deadline_ms = -1.0;
  pipeline::PipelineExecutor exec(&detector, env.db.get(), popt);
  auto batch = exec.RunBatch(FirstTables(env, 3));
  ASSERT_EQ(batch.tables.size(), 3u);
  for (const auto& t : batch.tables) {
    EXPECT_EQ(t.outcome, pipeline::TableOutcome::kExpired);
    EXPECT_EQ(t.status.code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(exec.resilience_stats().expired_tables, 3);
}

TEST(PipelineDeadlineTest, ExternalCancelTokenParksTheBatch) {
  Env env = Env::Make(6);
  core::TasteDetector detector(env.model.get(), env.tokenizer.get(), {});
  CancelToken client;
  client.RequestCancel();  // client went away before the batch started
  pipeline::PipelineOptions popt;
  popt.cancel = &client;
  pipeline::PipelineExecutor exec(&detector, env.db.get(), popt);
  auto batch = exec.RunBatch(FirstTables(env, 3));
  for (const auto& t : batch.tables) {
    EXPECT_EQ(t.outcome, pipeline::TableOutcome::kExpired);
    EXPECT_EQ(t.status.code(), StatusCode::kCancelled);
  }
}

TEST(PipelineDeadlineTest, GenerousDeadlineIsByteIdenticalToNone) {
  Env env = Env::Make(6);
  for (const bool pipelined : {true, false}) {
    SCOPED_TRACE(pipelined ? "pipelined" : "sequential");
    core::TasteDetector plain(env.model.get(), env.tokenizer.get(), {});
    core::TasteDetector budgeted(env.model.get(), env.tokenizer.get(), {});
    pipeline::PipelineOptions off;  // deadline_ms = 0: infinite deadline
    off.pipelined = pipelined;
    pipeline::PipelineExecutor exec_off(&plain, env.db.get(), off);
    auto a = exec_off.RunBatch(FirstTables(env, 4));
    pipeline::PipelineOptions on = off;
    on.deadline_ms = 60000.0;  // armed but never fires on the instant clock
    pipeline::PipelineExecutor exec_on(&budgeted, env.db.get(), on);
    auto b = exec_on.RunBatch(FirstTables(env, 4));
    ASSERT_EQ(a.tables.size(), b.tables.size());
    for (size_t i = 0; i < a.tables.size(); ++i) {
      const auto& ra = a.tables[i].result;
      const auto& rb = b.tables[i].result;
      ASSERT_TRUE(a.tables[i].status.ok());
      ASSERT_TRUE(b.tables[i].status.ok());
      EXPECT_EQ(a.tables[i].outcome, b.tables[i].outcome);
      ASSERT_EQ(ra.columns.size(), rb.columns.size());
      for (size_t c = 0; c < ra.columns.size(); ++c) {
        EXPECT_EQ(ra.columns[c].went_to_p2, rb.columns[c].went_to_p2);
        EXPECT_EQ(ra.columns[c].admitted_types, rb.columns[c].admitted_types);
        ASSERT_EQ(ra.columns[c].probabilities.size(),
                  rb.columns[c].probabilities.size());
        for (size_t p = 0; p < ra.columns[c].probabilities.size(); ++p) {
          // Bit-exact: an armed-but-unfired budget must not perturb results.
          EXPECT_EQ(ra.columns[c].probabilities[p],
                    rb.columns[c].probabilities[p]);
        }
      }
    }
  }
}

TEST(PipelineAdmissionTest, ShedsExactlyTheInputOrderTail) {
  Env env = Env::Make(8);
  const bool metrics_before = obs::MetricsEnabled();
  obs::SetMetricsEnabled(true);
  obs::Registry& reg = obs::Registry::Global();
  const int64_t shed_before =
      reg.GetCounter("taste_tables_shed_total")->Value();

  core::TasteDetector detector(env.model.get(), env.tokenizer.get(), {});
  pipeline::PipelineOptions popt;
  popt.admission.enabled = true;
  popt.admission.max_inflight_tables = 2;
  popt.admission.max_queued_tables = 1;
  pipeline::PipelineExecutor exec(&detector, env.db.get(), popt);
  auto batch = exec.RunBatch(FirstTables(env, 6));  // capacity 3 -> 3 shed
  ASSERT_EQ(batch.tables.size(), 6u);
  for (size_t i = 0; i < batch.tables.size(); ++i) {
    const auto& t = batch.tables[i];
    if (i < 3) {
      EXPECT_TRUE(t.status.ok()) << i << ": " << t.status.ToString();
      EXPECT_EQ(t.outcome, pipeline::TableOutcome::kComplete) << i;
    } else {
      EXPECT_EQ(t.outcome, pipeline::TableOutcome::kShed) << i;
      EXPECT_EQ(t.status.code(), StatusCode::kUnavailable) << i;
      EXPECT_EQ(t.result.table_name, env.table_names[i]);
    }
  }
  EXPECT_EQ(exec.resilience_stats().shed_tables, 3);
  EXPECT_LE(exec.stats().max_tables_in_flight, 2);
  EXPECT_GE(exec.stats().max_tables_in_flight, 1);
  EXPECT_EQ(reg.GetCounter("taste_tables_shed_total")->Value() - shed_before,
            3);
  obs::SetMetricsEnabled(metrics_before);
}

TEST(PipelineAdmissionTest, DisabledPolicyAdmitsEverything) {
  Env env = Env::Make(6);
  core::TasteDetector detector(env.model.get(), env.tokenizer.get(), {});
  pipeline::PipelineExecutor exec(&detector, env.db.get(), {});
  auto batch = exec.RunBatch(FirstTables(env, 5));
  for (const auto& t : batch.tables) {
    EXPECT_TRUE(t.status.ok()) << t.status.ToString();
    EXPECT_EQ(t.outcome, pipeline::TableOutcome::kComplete);
  }
  EXPECT_EQ(exec.resilience_stats().shed_tables, 0);
}

}  // namespace
}  // namespace taste
