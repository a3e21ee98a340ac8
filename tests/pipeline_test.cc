// Tests for the pipelined scheduler (Algorithm 1): correctness parity with
// sequential execution, stage-order safety under concurrency, and the
// wall-clock benefit of overlapping I/O with inference.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <set>
#include <thread>

#include "core/result_json.h"
#include "data/semantic_types.h"
#include "data/table_generator.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/scheduler.h"

namespace taste::pipeline {
namespace {

struct Env {
  data::Dataset dataset;
  std::unique_ptr<text::WordPieceTokenizer> tokenizer;
  std::unique_ptr<model::AdtdModel> model;
  std::unique_ptr<clouddb::SimulatedDatabase> db;
  std::vector<std::string> table_names;

  static Env Make(int tables, double time_scale) {
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
    Rng rng(11);
    e.model = std::make_unique<model::AdtdModel>(cfg, rng);
    clouddb::CostModel cost;
    cost.time_scale = time_scale;
    e.db = std::make_unique<clouddb::SimulatedDatabase>(cost);
    TASTE_CHECK(e.db->IngestDataset(e.dataset).ok());
    for (const auto& t : e.dataset.tables) e.table_names.push_back(t.name);
    return e;
  }
};

TEST(PipelineTest, SequentialProcessesAllTables) {
  Env e = Env::Make(8, 0.0);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor exec(&det, e.db.get(), {.pipelined = false});
  BatchResult res = exec.RunBatch(e.table_names);
  ASSERT_TRUE(res.all_ok());
  EXPECT_EQ(res.tables.size(), e.table_names.size());
  EXPECT_EQ(exec.stats().tables_processed, 8);
}

TEST(PipelineTest, PipelinedProcessesAllTables) {
  Env e = Env::Make(8, 0.0);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor exec(&det, e.db.get(), {.pipelined = true});
  BatchResult res = exec.RunBatch(e.table_names);
  ASSERT_TRUE(res.all_ok());
  ASSERT_EQ(res.tables.size(), e.table_names.size());
  // Results returned in input order with complete per-column output.
  for (size_t i = 0; i < res.tables.size(); ++i) {
    EXPECT_EQ(res.tables[i].result.table_name, e.table_names[i]);
    EXPECT_EQ(res.tables[i].result.columns.size(),
              e.dataset.tables[i].columns.size());
  }
}

TEST(PipelineTest, PipelinedMatchesSequentialPredictions) {
  Env e = Env::Make(10, 0.0);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor seq(&det, e.db.get(), {.pipelined = false});
  BatchResult a = seq.RunBatch(e.table_names);
  PipelineExecutor pip(&det, e.db.get(), {.pipelined = true});
  BatchResult b = pip.RunBatch(e.table_names);
  ASSERT_TRUE(a.all_ok() && b.all_ok());
  ASSERT_EQ(a.tables.size(), b.tables.size());
  for (size_t i = 0; i < a.tables.size(); ++i) {
    const auto& ra = a.tables[i].result;
    const auto& rb = b.tables[i].result;
    ASSERT_EQ(ra.columns.size(), rb.columns.size());
    for (size_t c = 0; c < ra.columns.size(); ++c) {
      EXPECT_EQ(ra.columns[c].admitted_types, rb.columns[c].admitted_types)
          << e.table_names[i] << " col " << c;
    }
    EXPECT_EQ(ra.columns_scanned, rb.columns_scanned);
  }
}

/// Runs `popt` over every table and expects each table's admitted types
/// and probabilities to equal, bit for bit, direct sequential detection
/// under a fresh context of `direct_options` (nullopt = no context).
void ExpectExecutorMatchesDirect(
    const Env& e, const core::TasteDetector& det, const PipelineOptions& popt,
    const std::optional<tensor::ExecContext::Options>& direct_options) {
  PipelineExecutor exec(&det, e.db.get(), popt);
  BatchResult got = exec.RunBatch(e.table_names);
  ASSERT_TRUE(got.all_ok());
  auto conn = e.db->Connect();
  for (size_t i = 0; i < e.table_names.size(); ++i) {
    std::optional<tensor::ExecContext> ctx;
    if (direct_options) ctx.emplace(*direct_options);
    auto want = det.DetectTable(conn.get(), e.table_names[i],
                                ctx ? &*ctx : nullptr);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(want->columns.size(), got.tables[i].result.columns.size());
    for (size_t c = 0; c < want->columns.size(); ++c) {
      const auto& w = want->columns[c];
      const auto& g = got.tables[i].result.columns[c];
      EXPECT_EQ(w.admitted_types, g.admitted_types);
      ASSERT_EQ(w.probabilities.size(), g.probabilities.size());
      for (size_t p = 0; p < w.probabilities.size(); ++p) {
        EXPECT_EQ(w.probabilities[p], g.probabilities[p])
            << e.table_names[i] << " col " << c << " prob " << p;
      }
    }
  }
}

TEST(PipelineTest, RunOutputByteIdenticalToDirectDetection) {
  // The executor's per-worker ExecContexts (buffer pool + structural
  // no-grad) must not perturb a single bit of the predictions relative to
  // calling the detector directly with no context at all.
  Env e = Env::Make(6, 0.0);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  ExpectExecutorMatchesDirect(e, det, {.pipelined = true}, std::nullopt);
}

TEST(PipelineTest, FourInferWorkersByteIdenticalToSequential) {
  // Four infer workers run P2 content forwards concurrently on one latent
  // cache; the probabilities must still be bit for bit those of direct
  // sequential detection.
  Env e = Env::Make(8, 0.0);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineOptions popt;
  popt.infer_threads = 4;
  ExpectExecutorMatchesDirect(e, det, popt, std::nullopt);
}

TEST(PipelineTest, Int8ExecutorByteIdenticalToInt8Sequential) {
  // End to end via PipelineOptions::p2_dtype: the pipelined executor in
  // int8 mode must reproduce direct int8 sequential detection bit for bit,
  // and actually diverge from the fp32 run somewhere (the flag reached the
  // kernels).
  Env e = Env::Make(6, 0.0);
  ASSERT_GT(e.model->PrepackQuantWeights(), 0);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineOptions popt;
  popt.infer_threads = 3;
  popt.p2_dtype = tensor::P2Dtype::kInt8;
  tensor::ExecContext::Options int8;
  int8.no_grad = true;
  int8.p2_dtype = tensor::P2Dtype::kInt8;
  ExpectExecutorMatchesDirect(e, det, popt, int8);

  auto conn = e.db->Connect();
  bool any_prob_diff_from_fp32 = false;
  for (const std::string& name : e.table_names) {
    tensor::ExecContext int8_ctx(int8);
    auto int8_run = det.DetectTable(conn.get(), name, &int8_ctx);
    auto fp32_run = det.DetectTable(conn.get(), name);
    ASSERT_TRUE(int8_run.ok() && fp32_run.ok());
    for (size_t c = 0; c < int8_run->columns.size(); ++c) {
      if (int8_run->columns[c].probabilities !=
          fp32_run->columns[c].probabilities) {
        any_prob_diff_from_fp32 = true;
      }
    }
  }
  EXPECT_TRUE(any_prob_diff_from_fp32)
      << "int8 executor run matched fp32 bytes everywhere — flag unused?";
}

TEST(PipelineTest, UnknownTableSurfacesError) {
  Env e = Env::Make(4, 0.0);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor exec(&det, e.db.get(), {.pipelined = true});
  auto names = e.table_names;
  names.push_back("ghost_table");
  EXPECT_FALSE(exec.RunBatch(names).all_ok());
}

TEST(PipelineTest, EmptyBatchIsFine) {
  Env e = Env::Make(2, 0.0);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor exec(&det, e.db.get(), {.pipelined = true});
  BatchResult res = exec.RunBatch({});
  ASSERT_TRUE(res.all_ok());
  EXPECT_TRUE(res.tables.empty());
}

TEST(PipelineTest, StatsCountP2Tables) {
  Env e = Env::Make(6, 0.0);
  // Untrained model -> every table goes to P2.
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor exec(&det, e.db.get(), {.pipelined = true});
  ASSERT_TRUE(exec.RunBatch(e.table_names).all_ok());
  EXPECT_EQ(exec.stats().tables_entered_p2, 6);
  // Privacy mode -> none.
  core::TasteDetector no_p2(e.model.get(), e.tokenizer.get(),
                            {.enable_p2 = false});
  PipelineExecutor exec2(&no_p2, e.db.get(), {.pipelined = true});
  ASSERT_TRUE(exec2.RunBatch(e.table_names).all_ok());
  EXPECT_EQ(exec2.stats().tables_entered_p2, 0);
}

TEST(PipelineTest, PipeliningReducesWallClockWithRealLatency) {
  // With real (scaled) network latency, overlapping prep with inference
  // must beat strictly sequential execution. This is Fig. 4's
  // "TASTE w/o pipelining" comparison in miniature.
  Env e = Env::Make(10, 0.3);  // latency realized at 30% scale
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor seq(&det, e.db.get(), {.pipelined = false});
  ASSERT_TRUE(seq.RunBatch(e.table_names).all_ok());
  double seq_ms = seq.stats().wall_ms;
  PipelineExecutor pip(&det, e.db.get(),
                       {.prep_threads = 2, .infer_threads = 2});
  ASSERT_TRUE(pip.RunBatch(e.table_names).all_ok());
  double pip_ms = pip.stats().wall_ms;
  EXPECT_LT(pip_ms, seq_ms * 0.95)
      << "sequential " << seq_ms << "ms, pipelined " << pip_ms << "ms";
}

TEST(PipelineTest, LedgerCountsIndependentOfExecutionMode) {
  Env e = Env::Make(6, 0.0);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor seq(&det, e.db.get(), {.pipelined = false});
  e.db->ledger().Reset();
  ASSERT_TRUE(seq.RunBatch(e.table_names).all_ok());
  auto seq_snap = e.db->ledger().snapshot();
  PipelineExecutor pip(&det, e.db.get(), {.pipelined = true});
  e.db->ledger().Reset();
  ASSERT_TRUE(pip.RunBatch(e.table_names).all_ok());
  auto pip_snap = e.db->ledger().snapshot();
  EXPECT_EQ(seq_snap.scanned_columns, pip_snap.scanned_columns);
  EXPECT_EQ(seq_snap.metadata_columns, pip_snap.metadata_columns);
}

TEST(PipelineTest, ExportsAttentionOpBucket) {
  // Attention runs as one fused op with its own timing bucket; it calls
  // the GEMM and softmax kernels directly, so no serving forward reaches
  // the standalone Softmax op any more.
  obs::SetMetricsEnabled(true);
  Env e = Env::Make(4, 0.0);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor exec(&det, e.db.get(), {.pipelined = true});
  auto op_calls = [](const obs::MetricsSnapshot& after,
                     const obs::MetricsSnapshot& before, const char* op) {
    return after.CounterDelta(
        before, obs::LabeledName("taste_op_calls_total", "op", op));
  };
  const obs::MetricsSnapshot before = obs::MetricsSnapshot::Capture();
  ASSERT_TRUE(exec.RunBatch(e.table_names).all_ok());
  const obs::MetricsSnapshot after = obs::MetricsSnapshot::Capture();
  EXPECT_GT(op_calls(after, before, "attention"), 0);
  EXPECT_GT(op_calls(after, before, "gemm"), 0);
  EXPECT_EQ(op_calls(after, before, "softmax"), 0);
}

/// What one or more batches left behind: the results as JSON (with
/// probabilities) and the registry deltas of the serving contexts.
struct BatchTrace {
  std::vector<std::string> json;
  int64_t op_calls = 0;  // summed over every taste_op_calls_total{op}
  int64_t acquires = 0;
  int64_t reuses = 0;
};

BatchTrace TraceSince(const obs::MetricsSnapshot& before) {
  const obs::MetricsSnapshot after = obs::MetricsSnapshot::Capture();
  BatchTrace t;
  for (const char* op :
       {"gemm", "quant_gemm", "softmax", "layernorm", "gelu", "attention"}) {
    t.op_calls += after.CounterDelta(
        before, obs::LabeledName("taste_op_calls_total", "op", op));
  }
  t.acquires = after.CounterDelta(before, "taste_pool_acquires_total");
  t.reuses = after.CounterDelta(before, "taste_pool_reuses_total");
  return t;
}

std::string BatchJson(const BatchResult& batch) {
  std::vector<core::TableDetectionResult> results;
  for (const TableRunResult& t : batch.tables) {
    EXPECT_TRUE(t.status.ok()) << t.status.ToString();
    results.push_back(t.result);
  }
  return core::ResultsToJson(results, data::SemanticTypeRegistry::Default(),
                             {.include_probabilities = true});
}

BatchTrace RunTraced(PipelineExecutor& exec,
                     const std::vector<std::string>& tables) {
  const obs::MetricsSnapshot before = obs::MetricsSnapshot::Capture();
  const std::string json = BatchJson(exec.RunBatch(tables));
  BatchTrace t = TraceSince(before);
  t.json.push_back(json);
  return t;
}

TEST(PipelineTest, ServingContextsOutliveExecutors) {
  // The detector owns the serving contexts, so executors built per batch
  // or per request, one after another or side by side, lease the same
  // contexts and recycle the buffers earlier batches left in their pools.
  // Not a bit of output may move.
  obs::SetMetricsEnabled(true);
  Env e = Env::Make(4, 0.0);
  PipelineOptions opt;
  opt.infer_threads = 1;

  // Reference: a fresh detector, sequential mode. Its first batch computes
  // every metadata forward; later batches hit the latent cache.
  core::TasteDetector fresh(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor seq(&fresh, e.db.get(), {.pipelined = false});
  const BatchTrace cold = RunTraced(seq, e.table_names);
  const BatchTrace warm = RunTraced(seq, e.table_names);
  ASSERT_GT(warm.op_calls, 0);
  const std::string& want = cold.json[0];
  ASSERT_EQ(warm.json[0], want);

  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  std::vector<BatchTrace> later;  // batches after the detector's first
  int64_t cold_misses = 0;        // pool misses of the detector's first

  // One executor, three batches.
  {
    PipelineExecutor exec(&det, e.db.get(), opt);
    for (int b = 0; b < 3; ++b) {
      BatchTrace t = RunTraced(exec, e.table_names);
      EXPECT_EQ(t.json[0], want) << "batch " << b;
      EXPECT_EQ(t.op_calls, b == 0 ? cold.op_calls : warm.op_calls)
          << "batch " << b;
      if (b == 0) cold_misses = t.acquires - t.reuses;
      if (b > 0) later.push_back(t);
    }
  }
  // Three executors, one per request (serve/worker.cc builds one each).
  for (int b = 0; b < 3; ++b) {
    PipelineExecutor exec(&det, e.db.get(), opt);
    BatchTrace t = RunTraced(exec, e.table_names);
    EXPECT_EQ(t.json[0], want) << "request " << b;
    EXPECT_EQ(t.op_calls, warm.op_calls) << "request " << b;
    later.push_back(t);
  }
  int64_t acquires = 0, reuses = 0;
  for (const BatchTrace& t : later) {
    acquires += t.acquires;
    reuses += t.reuses;
  }
  ASSERT_GT(acquires, 0);
  EXPECT_GE(static_cast<double>(reuses) / static_cast<double>(acquires), 0.99)
      << reuses << " of " << acquires << " acquires reused";
  EXPECT_EQ(det.exec_contexts().size(), 1u);  // one infer stage at a time

  // Two executors running batches at once on two threads. The second
  // context this needs starts cold, once: its misses can be no more than
  // the detector's first batch had.
  {
    constexpr int kBatches = 3;
    std::vector<std::string> json[2];
    const obs::MetricsSnapshot before = obs::MetricsSnapshot::Capture();
    auto serve = [&](int side) {
      PipelineExecutor exec(&det, e.db.get(), opt);
      for (int b = 0; b < kBatches; ++b) {
        json[side].push_back(BatchJson(exec.RunBatch(e.table_names)));
      }
    };
    std::thread other(serve, 1);
    serve(0);
    other.join();
    BatchTrace t = TraceSince(before);
    EXPECT_EQ(t.op_calls, 2 * kBatches * warm.op_calls);
    EXPECT_LE(t.acquires - t.reuses, cold_misses);
    for (const auto& side : json) {
      for (const std::string& j : side) EXPECT_EQ(j, want);
    }
  }
  // One context per concurrent infer stage, all back in the detector.
  EXPECT_EQ(det.exec_contexts().leased(), 0u);
  EXPECT_LE(det.exec_contexts().size(), 2u);
}

TEST(PipelineTest, BatchesReuseTheExecutorsWorkers) {
  // TP1 and TP2 are started by the executor's first pipelined batch and
  // kept: twenty batches run every stage on the same prep_threads +
  // infer_threads workers (trace spans carry a per-thread index that a new
  // thread never reuses), and every batch's results equal a fresh
  // sequential run's.
  Env e = Env::Make(4, 0.0);
  core::TasteDetector fresh(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor seq(&fresh, e.db.get(), {.pipelined = false});
  const std::string want = BatchJson(seq.RunBatch(e.table_names));

  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineOptions opt;
  opt.prep_threads = 2;
  opt.infer_threads = 2;
  PipelineExecutor exec(&det, e.db.get(), opt);
  obs::SetTracingEnabled(true);
  obs::DrainSpans();
  std::set<uint64_t> workers;
  for (int b = 0; b < 20; ++b) {
    EXPECT_EQ(BatchJson(exec.RunBatch(e.table_names)), want) << "batch " << b;
    size_t stages = 0;
    for (const obs::SpanRecord& r : obs::DrainSpans()) {
      if (std::strncmp(r.name, "pipeline.p", 10) != 0) continue;  // stages
      workers.insert(r.thread_ix);
      ++stages;
    }
    EXPECT_GE(stages, 2 * e.table_names.size()) << "batch " << b;
  }
  obs::SetTracingEnabled(false);
  EXPECT_LE(workers.size(), 4u);
}

}  // namespace
}  // namespace taste::pipeline
