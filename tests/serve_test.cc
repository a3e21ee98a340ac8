// Tests for the crash-fault-tolerant multi-process serving tier: the wire
// protocol's bit-exact round trips, consistent-hash placement, supervised
// fork/respawn lifecycle, heartbeat liveness, and — the headline invariant —
// that scatter/gather across replicas (including forced mid-request crashes
// with failover re-dispatch) produces results BYTE-IDENTICAL to a
// single-process PipelineExecutor run.
//
// Everything here forks real processes; the suite carries the `unit` label
// (TSan instruments fork poorly, and the tsan CI job runs only tsan-heavy).

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "core/taste_detector.h"
#include "data/table_generator.h"
#include "model/adtd.h"
#include "obs/aggregate.h"
#include "pipeline/scheduler.h"
#include "serve/router.h"
#include "serve/supervisor.h"
#include "serve/wire.h"
#include "serve/worker.h"
#include "tensor/ops.h"
#include "text/wordpiece.h"

namespace taste {
namespace {

// ---------------------------------------------------------------------------
// Wire protocol

TEST(WireTest, DetectRequestRoundTrip) {
  serve::DetectRequest req;
  req.request_id = 0xDEADBEEFCAFEull;
  req.deadline_remaining_ms = 123.456;
  req.p2_dtype = 1; // int8
  req.tables = {"users", "事件", "", std::string("a\0b", 3)};
  auto back = serve::DecodeDetectRequest(serve::EncodeDetectRequest(req));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->request_id, req.request_id);
  EXPECT_EQ(back->deadline_remaining_ms, req.deadline_remaining_ms);
  EXPECT_EQ(back->p2_dtype, req.p2_dtype);
  EXPECT_EQ(back->tables, req.tables);
}

TEST(WireTest, DetectResponseRoundTripIsBitExact) {
  serve::DetectResponse resp;
  resp.request_id = 7;
  resp.wall_ms = 0.125;
  resp.stats.retries = 3;
  resp.stats.degraded_tables = 1;

  pipeline::TableRunResult t;
  t.status = Status::DeadlineExceeded("deadline exceeded: p1 prep");
  t.outcome = pipeline::TableOutcome::kExpired;
  t.result.table_name = "events";
  t.result.columns_scanned = 4;
  t.result.total_columns = 5;
  core::ColumnPrediction col;
  col.column_name = "ip_address";
  col.ordinal = 3;
  col.went_to_p2 = true;
  col.provenance = core::ResultProvenance::kDegradedMetadataOnly;
  col.admitted_types = {1, 9, 12};
  // Values a lossy (text) encoding would mangle: denormal, NaN payload,
  // signed zero, and an odd mantissa.
  col.probabilities = {std::numeric_limits<float>::denorm_min(),
                       std::nanf("0x5ca1e"), -0.0f, 0.30000001192092896f};
  t.result.columns.push_back(col);
  resp.tables.push_back(t);

  auto back = serve::DecodeDetectResponse(serve::EncodeDetectResponse(resp));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->request_id, resp.request_id);
  EXPECT_EQ(back->stats.retries, 3);
  ASSERT_EQ(back->tables.size(), 1u);
  const auto& bt = back->tables[0];
  EXPECT_EQ(bt.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(bt.status.ToString(), t.status.ToString());
  EXPECT_EQ(bt.outcome, pipeline::TableOutcome::kExpired);
  ASSERT_EQ(bt.result.columns.size(), 1u);
  const auto& bc = bt.result.columns[0];
  EXPECT_EQ(bc.admitted_types, col.admitted_types);
  EXPECT_EQ(bc.provenance, col.provenance);
  ASSERT_EQ(bc.probabilities.size(), col.probabilities.size());
  // memcmp, not ==: NaN != NaN but its bits must survive the wire.
  EXPECT_EQ(std::memcmp(bc.probabilities.data(), col.probabilities.data(),
                        col.probabilities.size() * sizeof(float)),
            0);
}

TEST(WireTest, FrameBufferReassemblesSplitFrames) {
  // EncodeFrame emits the full v2 envelope: header (len + version + type)
  // and CRC trailer; byte-at-a-time reassembly must pop frames exactly at
  // their boundaries with the CRC verified.
  std::string stream =
      serve::EncodeFrame(serve::FrameType::kHeartbeat, "12345678") +
      serve::EncodeFrame(serve::FrameType::kDetectResponse,
                         std::string(1000, 'x'));

  serve::FrameBuffer fb;
  serve::Frame frame;
  int got = 0;
  for (char c : stream) {
    fb.Append(&c, 1);
    auto r = fb.Next(&frame);
    ASSERT_TRUE(r.ok());
    if (*r) {
      ++got;
      if (got == 1) {
        EXPECT_EQ(frame.type, serve::FrameType::kHeartbeat);
        EXPECT_EQ(frame.payload, "12345678");
      } else {
        EXPECT_EQ(frame.type, serve::FrameType::kDetectResponse);
        EXPECT_EQ(frame.payload.size(), 1000u);
      }
    }
  }
  EXPECT_EQ(got, 2);
  EXPECT_EQ(fb.buffered(), 0u);
}

TEST(WireTest, OversizedFramePrefixIsRejected) {
  serve::FrameBuffer fb;
  const char bad[6] = {'\xFF', '\xFF', '\xFF', '\xFF',
                       static_cast<char>(serve::kWireProtocolVersion), 1};
  fb.Append(bad, sizeof(bad));
  serve::Frame frame;
  auto r = fb.Next(&frame);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(fb.last_fault(), serve::FrameFault::kOversized);
}

TEST(WireTest, CorruptedPayloadFailsCrcAndCountsIt) {
  obs::Counter* corrupt =
      obs::Registry::Global().GetCounter("taste_frames_corrupt_total");
  const int64_t before = corrupt->Value();
  std::string frame = serve::EncodeFrame(serve::FrameType::kDetectResponse,
                                         "the payload bytes");
  frame[serve::kFrameHeaderBytes + 3] ^= 0x01;  // one flipped payload bit
  serve::FrameBuffer fb;
  fb.Append(frame.data(), frame.size());
  serve::Frame out;
  auto r = fb.Next(&out);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(fb.last_fault(), serve::FrameFault::kBadCrc);
  EXPECT_GT(corrupt->Value(), before);
}

TEST(WireTest, CorruptedHeaderLengthFailsCrc) {
  // A length-prefix lie that still fits the cap: the frame parses to the
  // wrong boundary and the CRC (which covers version+type+payload) fails.
  std::string frame = serve::EncodeFrame(serve::FrameType::kHeartbeat,
                                         std::string(64, 'a'));
  frame[0] ^= 0x04;  // payload length 64 -> 68
  frame += std::string(8, 'b');  // keep enough bytes buffered to "complete"
  serve::FrameBuffer fb;
  fb.Append(frame.data(), frame.size());
  serve::Frame out;
  auto r = fb.Next(&out);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(fb.last_fault(), serve::FrameFault::kBadCrc);
}

TEST(WireTest, WrongProtocolVersionIsRejected) {
  std::string frame = serve::EncodeFrame(serve::FrameType::kHeartbeat, "x");
  frame[4] = static_cast<char>(serve::kWireProtocolVersion + 1);
  serve::FrameBuffer fb;
  fb.Append(frame.data(), frame.size());
  serve::Frame out;
  auto r = fb.Next(&out);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(fb.last_fault(), serve::FrameFault::kBadVersion);
}

TEST(WireTest, InvalidFrameTypeIsRejected) {
  std::string frame = serve::EncodeFrame(serve::FrameType::kHeartbeat, "x");
  frame[5] = static_cast<char>(0xEE);
  serve::FrameBuffer fb;
  fb.Append(frame.data(), frame.size());
  serve::Frame out;
  auto r = fb.Next(&out);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(fb.last_fault(), serve::FrameFault::kBadType);
}

TEST(WireTest, TruncatedFrameWaitsInsteadOfFaulting) {
  // A prefix of a valid frame is not an error in a stream — it just has
  // not finished arriving. No fault, no frame.
  const std::string frame =
      serve::EncodeFrame(serve::FrameType::kDetectResponse, "payload");
  serve::FrameBuffer fb;
  fb.Append(frame.data(), frame.size() - 1);
  serve::Frame out;
  auto r = fb.Next(&out);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  EXPECT_EQ(fb.last_fault(), serve::FrameFault::kNone);
}

TEST(WireTest, ReadFrameRejectsTruncatedStreamOverPipe) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string frame =
      serve::EncodeFrame(serve::FrameType::kHeartbeat, "abcdefgh");
  // Write all but the CRC trailer's last byte, then close: mid-frame EOF.
  ASSERT_EQ(::write(sv[0], frame.data(), frame.size() - 1),
            static_cast<ssize_t>(frame.size() - 1));
  ::close(sv[0]);
  serve::FrameFault fault = serve::FrameFault::kNone;
  auto r = serve::ReadFrame(sv[1], &fault);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(fault, serve::FrameFault::kTruncated);
  ::close(sv[1]);
}

TEST(WireTest, MetricsSnapshotRoundTrip) {
  obs::Registry reg;
  reg.GetCounter("c_total")->Inc(5);
  reg.GetGauge("g_bytes")->Set(1.5);
  reg.GetHistogram("h_ms", {1.0, 10.0})->Observe(3.0);
  auto back = serve::DecodeMetricsSnapshot(
      serve::EncodeMetricsSnapshot(reg.snapshot()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->counters.at("c_total"), 5);
  EXPECT_DOUBLE_EQ(back->gauges.at("g_bytes"), 1.5);
  const auto& h = back->histograms.at("h_ms");
  EXPECT_EQ(h.count, 1);
  EXPECT_DOUBLE_EQ(h.sum, 3.0);
  ASSERT_EQ(h.bounds.size(), 2u);
  ASSERT_EQ(h.counts.size(), 3u);
  EXPECT_EQ(h.counts[1], 1);
}

// ---------------------------------------------------------------------------
// Consistent hash ring

TEST(RingTest, PlacementIsDeterministicAndFailoverIsMinimal) {
  serve::ConsistentHashRing ring(4, 64);
  serve::ConsistentHashRing ring2(4, 64);
  auto all = [](int) { return true; };
  std::vector<int> owners;
  int spread[4] = {0, 0, 0, 0};
  for (int i = 0; i < 200; ++i) {
    const std::string t = "table_" + std::to_string(i);
    const int o = ring.NodeFor(t, all);
    ASSERT_GE(o, 0);
    ASSERT_LT(o, 4);
    EXPECT_EQ(o, ring2.NodeFor(t, all));  // pure function of the name
    owners.push_back(o);
    ++spread[o];
  }
  for (int n : spread) EXPECT_GT(n, 0) << "vnode placement left a node empty";

  // Kill node 2: only its tables move; everyone else keeps their owner.
  auto not2 = [](int id) { return id != 2; };
  for (int i = 0; i < 200; ++i) {
    const std::string t = "table_" + std::to_string(i);
    const int o = ring.NodeFor(t, not2);
    ASSERT_NE(o, 2);
    if (owners[static_cast<size_t>(i)] != 2) {
      EXPECT_EQ(o, owners[static_cast<size_t>(i)]) << t;
    }
  }
  // No acceptable node at all.
  EXPECT_EQ(ring.NodeFor("x", [](int) { return false; }), -1);
}

// ---------------------------------------------------------------------------
// Shared detection environment (built once; the fixture cost is one tiny
// model + tokenizer, same as the chaos harness startup)

struct ServeEnv {
  data::Dataset dataset;
  std::unique_ptr<text::WordPieceTokenizer> tokenizer;
  std::unique_ptr<model::AdtdModel> model;
  std::unique_ptr<core::TasteDetector> detector;
  std::vector<std::string> table_names;

  static const ServeEnv& Get() {
    static ServeEnv* env = [] {
      auto* e = new ServeEnv();
      e->dataset = data::GenerateDataset(data::DatasetProfile::WikiLike(6));
      text::WordPieceTrainer trainer({.vocab_size = 400});
      for (const auto& d : data::BuildCorpusDocuments(e->dataset)) {
        trainer.AddDocument(d);
      }
      e->tokenizer =
          std::make_unique<text::WordPieceTokenizer>(trainer.Train());
      model::AdtdConfig cfg = model::AdtdConfig::Tiny(
          e->tokenizer->vocab().size(),
          data::SemanticTypeRegistry::Default().size());
      Rng rng(21);
      e->model = std::make_unique<model::AdtdModel>(cfg, rng);
      // Prepacked so the int8 cases can run; inert for fp32 contexts.
      TASTE_CHECK(e->model->PrepackQuantWeights() > 0);
      core::TasteOptions topt;  // faults off, defaults everywhere
      e->detector = std::make_unique<core::TasteDetector>(
          e->model.get(), e->tokenizer.get(), topt);
      for (const auto& t : e->dataset.tables) {
        e->table_names.push_back(t.name);
      }
      return e;
    }();
    return *env;
  }

  std::unique_ptr<clouddb::SimulatedDatabase> MakeDb() const {
    clouddb::CostModel cost;
    cost.time_scale = 0.0;  // ledger-only I/O costs; no real sleeping
    auto db = std::make_unique<clouddb::SimulatedDatabase>(cost);
    EXPECT_TRUE(db->IngestDataset(dataset).ok());
    return db;
  }

  /// A detector with a cold latent cache of its own, for a router under
  /// test: its replicas then fork no entry the oracle computed.
  std::unique_ptr<core::TasteDetector> MakeDetector() const {
    return std::make_unique<core::TasteDetector>(model.get(), tokenizer.get(),
                                                 core::TasteOptions{});
  }
};

pipeline::PipelineOptions WorkerPipelineOptions() {
  pipeline::PipelineOptions popt;
  popt.prep_threads = 2;
  popt.infer_threads = 2;
  return popt;
}

/// Bit-exact comparison of two table results.
void ExpectResultsIdentical(const core::TableDetectionResult& g,
                            const core::TableDetectionResult& w) {
  EXPECT_EQ(g.table_name, w.table_name);
  EXPECT_EQ(g.columns_scanned, w.columns_scanned);
  EXPECT_EQ(g.degraded_columns, w.degraded_columns);
  ASSERT_EQ(g.columns.size(), w.columns.size()) << w.table_name;
  for (size_t c = 0; c < w.columns.size(); ++c) {
    const auto& gc = g.columns[c];
    const auto& wc = w.columns[c];
    EXPECT_EQ(gc.column_name, wc.column_name);
    EXPECT_EQ(gc.ordinal, wc.ordinal);
    EXPECT_EQ(gc.went_to_p2, wc.went_to_p2);
    EXPECT_EQ(gc.provenance, wc.provenance);
    EXPECT_EQ(gc.admitted_types, wc.admitted_types);
    ASSERT_EQ(gc.probabilities.size(), wc.probabilities.size());
    if (!wc.probabilities.empty()) {
      EXPECT_EQ(std::memcmp(gc.probabilities.data(), wc.probabilities.data(),
                            wc.probabilities.size() * sizeof(float)),
                0)
          << g.table_name << "." << gc.column_name
          << ": probabilities differ bitwise";
    }
  }
}

/// Bit-exact comparison of two batch results (the idempotency oracle).
void ExpectBatchesIdentical(const pipeline::BatchResult& got,
                            const pipeline::BatchResult& want) {
  ASSERT_EQ(got.tables.size(), want.tables.size());
  for (size_t i = 0; i < want.tables.size(); ++i) {
    const auto& g = got.tables[i];
    const auto& w = want.tables[i];
    EXPECT_EQ(g.outcome, w.outcome) << i;
    EXPECT_EQ(g.status.ToString(), w.status.ToString()) << i;
    ExpectResultsIdentical(g.result, w.result);
  }
}

/// The same tables through a single-process executor on the shared
/// detector.
pipeline::BatchResult OracleRun(
    const ServeEnv& env, const std::vector<std::string>& tables,
    tensor::P2Dtype dtype = tensor::P2Dtype::kFp32) {
  auto db = env.MakeDb();
  pipeline::PipelineOptions popt = WorkerPipelineOptions();
  popt.p2_dtype = dtype;
  pipeline::PipelineExecutor exec(env.detector.get(), db.get(), popt);
  return exec.RunBatch(tables);
}

/// A counter's value in `snap`, 0 when the series was never created.
int64_t CounterValue(const obs::Registry::Snapshot& snap,
                     const std::string& name) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// SIGKILLs a replica and drives the supervisor until it is respawned.
/// Returns false if recovery did not complete inside the budget.
bool KillAndRespawn(serve::Router* router, int id) {
  const pid_t victim = router->supervisor().replica(id)->pid;
  if (::kill(victim, SIGKILL) != 0) return false;
  for (int spin = 0; spin < 400; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (!router->supervisor().ReapDead().empty()) break;
  }
  return router->MaintainUntilAllUp(10000.0);
}

// ---------------------------------------------------------------------------
// Router vs. single-process oracle

TEST(RouterTest, ScatterGatherMatchesSingleProcessByteForByte) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 3;
  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());

  pipeline::BatchResult got = router.RunBatch(env.table_names);
  ExpectBatchesIdentical(got, OracleRun(env, env.table_names));
  EXPECT_EQ(router.stats().replica_deaths, 0);
  EXPECT_EQ(router.stats().local_fallback_tables, 0);
  EXPECT_EQ(router.stats().dispatched_tables,
            static_cast<int64_t>(env.table_names.size()));
  router.Shutdown();
}

TEST(RouterTest, InjectedMidRequestCrashFailsOverByteIdentical) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 3;

  // Aim the crash at the actual ring owner of a table so the injected
  // _exit fires deterministically on first dispatch.
  serve::ConsistentHashRing ring(ropt.supervisor.replicas, serve::kRingVnodes);
  const std::string victim_table = env.table_names[1];
  wenv.crash_replica = ring.NodeFor(victim_table, [](int) { return true; });
  wenv.crash_table = victim_table;

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  pipeline::BatchResult got = router.RunBatch(env.table_names);

  // Failover must have replayed the dead replica's tables elsewhere, and
  // the merged output must be indistinguishable from a crash-free run.
  ExpectBatchesIdentical(got, OracleRun(env, env.table_names));
  EXPECT_GE(router.stats().replica_deaths, 1);
  EXPECT_GE(router.stats().redispatched_tables, 1);
  // The fleet recovers to full strength within the respawn backoff budget.
  EXPECT_TRUE(router.MaintainUntilAllUp(5000.0));
  EXPECT_GE(router.supervisor().total_respawns(), 1);
  router.Shutdown();
}

TEST(RouterTest, ExhaustedReplicaSetFallsBackLocally) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 1;
  ropt.supervisor.max_respawns = 0;  // first death parks the only replica
  wenv.crash_replica = 0;
  wenv.crash_table = env.table_names[0];

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  pipeline::BatchResult got = router.RunBatch(env.table_names);

  // The whole batch degraded to the router's local executor — and is still
  // byte-identical, because fallback shares detector, database, options.
  ExpectBatchesIdentical(got, OracleRun(env, env.table_names));
  EXPECT_GE(router.stats().local_fallback_tables,
            static_cast<int64_t>(env.table_names.size()));
  EXPECT_EQ(router.supervisor().alive_count(), 0);
  // A parked replica never respawns: Maintain reaches "full strength"
  // (nothing left pending) with the fleet still at zero live replicas.
  EXPECT_TRUE(router.MaintainUntilAllUp(50.0));
  EXPECT_EQ(router.supervisor().replica(0)->state,
            serve::ReplicaState::kParked);
  EXPECT_EQ(router.supervisor().alive_count(), 0);
  router.Shutdown();
}

TEST(RouterTest, PreExpiredDeadlinePropagatesToWorkers) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  wenv.pipeline_options.deadline_ms = -1.0;  // expired before work starts
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 2;
  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());

  pipeline::BatchResult got = router.RunBatch(env.table_names);
  ASSERT_EQ(got.tables.size(), env.table_names.size());
  for (const auto& t : got.tables) {
    EXPECT_EQ(t.outcome, pipeline::TableOutcome::kExpired)
        << pipeline::TableOutcomeName(t.outcome);
    EXPECT_EQ(t.status.code(), StatusCode::kDeadlineExceeded);
  }
  router.Shutdown();
}

TEST(RouterTest, ScrapeAggregatesReplicaRegistries) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 2;
  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  (void)router.RunBatch(env.table_names);

  auto snap = router.Scrape();
  ASSERT_TRUE(snap.ok());
  // The fleet served every table exactly once between the two replicas.
  EXPECT_EQ(snap->counters.at("taste_worker_tables_total"),
            static_cast<int64_t>(env.table_names.size()));
  // Per-replica series exist alongside the summed base series.
  int per_replica = 0;
  for (const auto& [name, v] : snap->counters) {
    if (name.rfind("taste_worker_tables_total{replica=", 0) == 0) {
      ++per_replica;
    }
  }
  EXPECT_EQ(per_replica, 2);
  router.Shutdown();
}

// ---------------------------------------------------------------------------
// Each replica keeps its own latent cache. Whatever mix of cache hits, cold
// misses and recomputes a fleet serves a batch from, in fp32 or int8, the
// bytes must be the single-process oracle's.

/// 50 randomized batches (duplicates allowed, random order) through one
/// 3-replica fleet whose caches warm up as it goes.
void RunRandomizedMixes(tensor::P2Dtype dtype) {
  const ServeEnv& env = ServeEnv::Get();
  auto det = env.MakeDetector();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = det.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  wenv.pipeline_options.p2_dtype = dtype;
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 3;
  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());

  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 7919);
    const size_t n = 1 + rng.NextU64() % 4;
    std::vector<std::string> tables;
    for (size_t k = 0; k < n; ++k) {
      tables.push_back(env.table_names[rng.NextU64() % env.table_names.size()]);
    }
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    ExpectBatchesIdentical(router.RunBatch(tables),
                           OracleRun(env, tables, dtype));
    if (::testing::Test::HasFatalFailure()) break;
  }
  EXPECT_EQ(router.stats().replica_deaths, 0);
  router.Shutdown();
}

TEST(RouterTest, RandomizedMixesMatchOracleAcross50SeedsFp32) {
  RunRandomizedMixes(tensor::P2Dtype::kFp32);
}

TEST(RouterTest, RandomizedMixesMatchOracleAcross50SeedsInt8) {
  RunRandomizedMixes(tensor::P2Dtype::kInt8);
}

/// Batch 1 warms every replica's cache; the ring owner of the first table is
/// then SIGKILLed and respawned as a fresh fork of the router's cold image,
/// so batch 2 recomputes that replica's P1 latents while its peers hit.
void RunSigkillBetweenBatches(tensor::P2Dtype dtype) {
  const ServeEnv& env = ServeEnv::Get();
  auto det = env.MakeDetector();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = det.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  wenv.pipeline_options.p2_dtype = dtype;
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 2;
  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());

  const pipeline::BatchResult want = OracleRun(env, env.table_names, dtype);
  ExpectBatchesIdentical(router.RunBatch(env.table_names), want);

  serve::ConsistentHashRing ring(ropt.supervisor.replicas, serve::kRingVnodes);
  const int victim =
      ring.NodeFor(env.table_names[0], [](int) { return true; });
  ASSERT_GE(victim, 0);
  ASSERT_TRUE(KillAndRespawn(&router, victim));

  const std::string misses = obs::LabeledName(
      "taste_cache_misses_total", "replica", std::to_string(victim));
  auto before = router.Scrape();
  ASSERT_TRUE(before.ok());
  ExpectBatchesIdentical(router.RunBatch(env.table_names), want);
  auto after = router.Scrape();
  ASSERT_TRUE(after.ok());
  EXPECT_GT(CounterValue(*after, misses), CounterValue(*before, misses))
      << "the respawned replica served batch 2 without recomputing";
  EXPECT_EQ(router.stats().local_fallback_tables, 0);
  router.Shutdown();
}

TEST(RouterTest, SigkillBetweenBatchesRecomputesByteIdenticalFp32) {
  RunSigkillBetweenBatches(tensor::P2Dtype::kFp32);
}

TEST(RouterTest, SigkillBetweenBatchesRecomputesByteIdenticalInt8) {
  RunSigkillBetweenBatches(tensor::P2Dtype::kInt8);
}

// Misshapen entries: under the right key and built from exactly this
// chunk's input, but not in the shapes this model's metadata tower returns.
// Both reads of the latent cache (P1's lookup and P2's latent read) must
// treat one as a miss and recompute.

TEST(CacheEntryShapeTest, MisshapenEntriesAreRecomputedNotTrusted) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  auto conn = db->Connect();

  // A table that reaches P2, its cold result and its first chunk's entry.
  auto cold = env.MakeDetector();
  std::string table;
  core::TableDetectionResult want;
  for (const std::string& name : env.table_names) {
    auto r = cold->DetectTable(conn.get(), name);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    if (r->columns_scanned > 0) {
      table = name;
      want = *r;
      break;
    }
  }
  ASSERT_FALSE(table.empty());
  const std::string key = table + "#0";
  const std::optional<model::CachedMetadata> good = cold->cache().Get(key);
  ASSERT_TRUE(good.has_value());

  // One latent too many (an entry that also holds Encode_L^M), and a first
  // latent one row short.
  model::CachedMetadata extra_latent = *good;
  extra_latent.encoding.layer_latents.push_back(
      good->encoding.layer_latents.back());
  model::CachedMetadata short_latent = *good;
  tensor::Tensor& first = short_latent.encoding.layer_latents.front();
  first = tensor::SliceRows(first, 0, first.dim(0) - 1);

  for (const auto& [what, bad] :
       {std::pair{"extra latent", extra_latent},
        std::pair{"short latent", short_latent}}) {
    SCOPED_TRACE(what);
    auto det = env.MakeDetector();
    det->cache().Put(key, bad);
    core::TasteDetector::Job job;
    ASSERT_TRUE(det->PrepareP1(conn.get(), table, &job).ok());
    ASSERT_TRUE(det->InferP1(&job).ok());
    // P1 replaced the entry with its own compute; plant it again for P2's
    // read.
    det->cache().Put(key, bad);
    ASSERT_TRUE(det->PrepareP2(conn.get(), &job).ok());
    ASSERT_TRUE(det->InferP2(&job).ok());
    ExpectResultsIdentical(job.result, want);
  }
}

// ---------------------------------------------------------------------------
// Gray failures: wedge (SIGSTOP), corruption, slow drip

TEST(P2CostModelTest, CalibrateRecoversLinearFit) {
  // The router's straggler verdict rests on this fit of observed legs.
  core::P2CostModel cm;
  // ms = 0.5 + 0.02 * tokens, exactly.
  std::vector<std::pair<int64_t, double>> samples;
  for (int64_t t : {10, 50, 100, 400, 1000}) {
    samples.emplace_back(t, 0.5 + 0.02 * static_cast<double>(t));
  }
  ASSERT_TRUE(cm.Calibrate(samples));
  EXPECT_NEAR(cm.params().overhead_ms, 0.5, 1e-9);
  EXPECT_NEAR(cm.params().ms_per_token, 0.02, 1e-12);
  EXPECT_NEAR(cm.EstimateBatchMs(200), 4.5, 1e-9);
  // Degenerate inputs keep the previous parameters.
  core::P2CostModel untouched;
  const double before = untouched.params().ms_per_token;
  EXPECT_FALSE(untouched.Calibrate({}));
  EXPECT_FALSE(untouched.Calibrate({{100, 1.0}}));
  EXPECT_FALSE(untouched.Calibrate({{100, 1.0}, {100, 2.0}}));  // det == 0
  EXPECT_EQ(untouched.params().ms_per_token, before);
}

TEST(RouterTest, SigstoppedReplicaIsHedgedByteIdentical) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 3;
  ropt.hedge_multiplier = 1.0;     // hedge promptly; this test waits on it
  ropt.hedge_floor_ms = 40.0;
  ropt.hedge_budget_fraction = 1.0;

  // Wedge the ring owner of a table mid-request: SIGSTOP means no SIGCHLD
  // (SA_NOCLDSTOP), no EOF, a process that is alive but makes no progress.
  // Without hedging this leg would stall its hash range to the deadline.
  serve::ConsistentHashRing ring(ropt.supervisor.replicas, serve::kRingVnodes);
  const std::string victim_table = env.table_names[2];
  wenv.wedge_replica = ring.NodeFor(victim_table, [](int) { return true; });
  wenv.wedge_table = victim_table;

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  pipeline::BatchResult got = router.RunBatch(env.table_names);

  // The hedge raced the wedge and won; results are indistinguishable from
  // a healthy single-process run.
  ExpectBatchesIdentical(got, OracleRun(env, env.table_names));
  EXPECT_GE(router.stats().hedged_tables, 1);
  router.Shutdown();
}

TEST(RouterTest, WatchdogRecoversWedgedReplicaWithoutHedging) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 3;
  ropt.hedge_multiplier = 0.0;  // isolate the watchdog path
  ropt.watchdog_ms = 80.0;

  serve::ConsistentHashRing ring(ropt.supervisor.replicas, serve::kRingVnodes);
  const std::string victim_table = env.table_names[0];
  wenv.wedge_replica = ring.NodeFor(victim_table, [](int) { return true; });
  wenv.wedge_table = victim_table;

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  pipeline::BatchResult got = router.RunBatch(env.table_names);

  // The watchdog escalated SIGTERM -> SIGKILL on the stopped process and
  // re-dispatched its tables byte-identically.
  ExpectBatchesIdentical(got, OracleRun(env, env.table_names));
  EXPECT_GE(router.supervisor().watchdog_kills(), 1);
  EXPECT_GE(router.stats().replica_deaths, 1);
  EXPECT_GE(router.stats().redispatched_tables, 1);
  // SIGKILL terminates even a stopped process; the fleet heals.
  EXPECT_TRUE(router.MaintainUntilAllUp(5000.0));
  EXPECT_GE(router.supervisor().total_respawns(), 1);
  router.Shutdown();
}

TEST(RouterTest, CorruptResponseIsNeverSurfacedAndRedispatched) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 3;

  serve::ConsistentHashRing ring(ropt.supervisor.replicas, serve::kRingVnodes);
  const std::string victim_table = env.table_names[1];
  wenv.corrupt_replica = ring.NodeFor(victim_table, [](int) { return true; });
  wenv.corrupt_table = victim_table;

  obs::Counter* corrupt =
      obs::Registry::Global().GetCounter("taste_frames_corrupt_total");
  const int64_t corrupt_before = corrupt->Value();

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  pipeline::BatchResult got = router.RunBatch(env.table_names);

  // The bit-flipped response failed its CRC, was counted, and its tables
  // were recomputed elsewhere — corrupted bytes never reach the caller.
  ExpectBatchesIdentical(got, OracleRun(env, env.table_names));
  EXPECT_GT(corrupt->Value(), corrupt_before);
  EXPECT_GE(router.stats().replica_deaths, 1);
  EXPECT_GE(router.stats().redispatched_tables, 1);
  router.Shutdown();
}

TEST(RouterTest, SlowDripResponseReassemblesByteIdentical) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 2;
  ropt.hedge_multiplier = 0.0;  // the drip alone must be harmless

  serve::ConsistentHashRing ring(ropt.supervisor.replicas, serve::kRingVnodes);
  const std::string victim_table = env.table_names[3];
  wenv.drip_replica = ring.NodeFor(victim_table, [](int) { return true; });
  wenv.drip_table = victim_table;
  wenv.drip_chunk_bytes = 64;
  wenv.drip_delay_us = 100;

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  pipeline::BatchResult got = router.RunBatch(env.table_names);

  // Partial writes split frames at arbitrary byte boundaries; the frame
  // buffer reassembles them with the CRC intact — no fault, no failover.
  ExpectBatchesIdentical(got, OracleRun(env, env.table_names));
  EXPECT_EQ(router.stats().replica_deaths, 0);
  router.Shutdown();
}

// ---------------------------------------------------------------------------
// Respawn delay

TEST(RespawnDelayTest, CappedExponentialAndDeterministic) {
  for (int deaths = 1; deaths <= 9; ++deaths) {
    // 5 ms after the first death, doubling, capped at 250 ms.
    const double base = std::min(5.0 * (1 << (deaths - 1)), 250.0);
    const double d = serve::RespawnDelayMs(deaths, 7);
    EXPECT_GE(d, base * 0.8) << deaths;
    EXPECT_LT(d, base * 1.2) << deaths;
    // Pure function: same (deaths, replica) -> same jitter.
    EXPECT_EQ(d, serve::RespawnDelayMs(deaths, 7));
    // Different replicas decorrelate.
    EXPECT_NE(d, serve::RespawnDelayMs(deaths, 8));
  }
}

TEST(RespawnDelayTest, JitterStaysInBoundsAndSpreadsAcrossReplicas) {
  // Replicas that die together must each stay inside the jitter band yet
  // not collapse onto a handful of values (thundering herd).
  for (int deaths = 1; deaths <= 4; ++deaths) {
    const double base = 5.0 * (1 << (deaths - 1));
    double lo = 1e300, hi = -1e300;
    for (int replica = 0; replica < 512; ++replica) {
      const double d = serve::RespawnDelayMs(deaths, replica);
      EXPECT_GE(d, base * 0.8) << "deaths " << deaths << " replica " << replica;
      EXPECT_LT(d, base * 1.2 + 1e-9)
          << "deaths " << deaths << " replica " << replica;
      lo = std::min(lo, d);
      hi = std::max(hi, d);
    }
    // 512 replicas must fill most of the [0.8, 1.2) band, not cluster.
    EXPECT_GT(hi - lo, base * 0.2) << "deaths " << deaths;
  }
}

// ---------------------------------------------------------------------------
// Supervisor lifecycle

TEST(SupervisorTest, SigkillIsDetectedAndRespawnedWithBackoff) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::SupervisorOptions sopt;
  sopt.replicas = 2;
  serve::Supervisor sup(wenv, sopt);
  ASSERT_TRUE(sup.Start().ok());
  ASSERT_EQ(sup.alive_count(), 2);

  const pid_t victim = sup.replica(0)->pid;
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  // SIGCHLD -> self-pipe -> reap. Give the kernel a beat.
  std::vector<int> died;
  for (int spin = 0; spin < 200 && died.empty(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    died = sup.ReapDead();
  }
  ASSERT_EQ(died, std::vector<int>{0});
  EXPECT_EQ(sup.alive_count(), 1);
  EXPECT_EQ(sup.replica(0)->state, serve::ReplicaState::kDead);

  // Respawn honours the deterministic backoff, then brings the replica up.
  std::vector<int> up;
  for (int spin = 0; spin < 400 && up.empty(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    up = sup.RespawnEligible();
  }
  ASSERT_EQ(up, std::vector<int>{0});
  EXPECT_EQ(sup.alive_count(), 2);
  EXPECT_EQ(sup.total_respawns(), 1);
  ASSERT_EQ(sup.recovery_times_ms().size(), 1u);
  EXPECT_GT(sup.recovery_times_ms()[0], 0.0);
  sup.Shutdown();
}

TEST(SupervisorTest, HeartbeatTimeoutCondemnsWedgedReplica) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::SupervisorOptions sopt;
  sopt.replicas = 1;
  sopt.heartbeat_interval_ms = 10.0;
  sopt.heartbeat_miss_limit = 2;
  serve::Supervisor sup(wenv, sopt);
  ASSERT_TRUE(sup.Start().ok());

  // SIGSTOP wedges the worker without killing it: the process is alive
  // (no SIGCHLD, thanks to SA_NOCLDSTOP) but will never answer a probe —
  // exactly the failure mode only heartbeats can catch.
  ASSERT_EQ(::kill(sup.replica(0)->pid, SIGSTOP), 0);

  std::vector<int> condemned;
  for (int spin = 0; spin < 500 && condemned.empty(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    condemned = sup.ProbeIdle({0});
  }
  ASSERT_EQ(condemned, std::vector<int>{0});
  EXPECT_EQ(sup.alive_count(), 0);
  EXPECT_GE(sup.replica(0)->deaths, 1);
  sup.Shutdown();
}

// ---------------------------------------------------------------------------
// Metrics aggregation (pure snapshot arithmetic)

TEST(AggregateTest, SumsBaseSeriesAndFansOutPerPartLabels) {
  obs::Registry a, b;
  a.GetCounter("req_total")->Inc(3);
  b.GetCounter("req_total")->Inc(4);
  a.GetGauge("bytes")->Set(10.0);
  b.GetGauge("bytes")->Set(5.0);
  a.GetHistogram("lat_ms", {1.0, 10.0})->Observe(0.5);
  b.GetHistogram("lat_ms", {1.0, 10.0})->Observe(5.0);
  // Already-labeled series sum under their own name but never nest labels.
  a.GetCounter("stage_ms{stage=\"p1\"}")->Inc(1);
  b.GetCounter("stage_ms{stage=\"p1\"}")->Inc(2);

  auto merged = obs::AggregateSnapshots(
      "replica", {{"0", a.snapshot()}, {"1", b.snapshot()}});
  EXPECT_EQ(merged.counters.at("req_total"), 7);
  EXPECT_EQ(merged.counters.at("req_total{replica=\"0\"}"), 3);
  EXPECT_EQ(merged.counters.at("req_total{replica=\"1\"}"), 4);
  EXPECT_DOUBLE_EQ(merged.gauges.at("bytes"), 15.0);
  EXPECT_EQ(merged.histograms.at("lat_ms").count, 2);
  EXPECT_DOUBLE_EQ(merged.histograms.at("lat_ms").sum, 5.5);
  EXPECT_EQ(merged.histograms.at("lat_ms").counts[0], 1);
  EXPECT_EQ(merged.histograms.at("lat_ms").counts[1], 1);
  EXPECT_EQ(merged.counters.at("stage_ms{stage=\"p1\"}"), 3);
  EXPECT_EQ(merged.counters.count("stage_ms{stage=\"p1\"}{replica=\"0\"}"),
            0u);
}

TEST(AggregateTest, EmptyPartContributesNothing) {
  // A replica that scraped before serving anything returns an empty
  // snapshot; it must not perturb sums or mint phantom labeled series.
  obs::Registry a;
  a.GetCounter("req_total")->Inc(2);
  a.GetGauge("depth")->Set(3.0);
  auto merged = obs::AggregateSnapshots(
      "replica", {{"0", a.snapshot()}, {"1", obs::Registry::Snapshot()}});
  EXPECT_EQ(merged.counters.at("req_total"), 2);
  EXPECT_EQ(merged.counters.count("req_total{replica=\"1\"}"), 0u);
  EXPECT_EQ(merged.counters.size(), 2u);  // base + replica=0 only
  EXPECT_DOUBLE_EQ(merged.gauges.at("depth"), 3.0);
  EXPECT_EQ(merged.gauges.size(), 2u);
  EXPECT_TRUE(merged.histograms.empty());
  // All-empty input produces an empty (not crashing) aggregate.
  auto none = obs::AggregateSnapshots("replica", {});
  EXPECT_TRUE(none.counters.empty());
}

TEST(AggregateTest, HistogramBucketMismatchFoldsScalarsOnly) {
  // Replicas on different build generations can disagree on bucket layout;
  // adding bucket-wise would be wrong, dropping the series would be worse.
  // The first layout wins and only count/sum fold in from the misfit.
  obs::Registry a, b;
  a.GetHistogram("lat_ms", {1.0, 10.0})->Observe(0.5);
  b.GetHistogram("lat_ms", {1.0, 5.0, 10.0})->Observe(7.0);
  auto merged = obs::AggregateSnapshots(
      "replica", {{"0", a.snapshot()}, {"1", b.snapshot()}});
  const auto& base = merged.histograms.at("lat_ms");
  EXPECT_EQ(base.bounds, (std::vector<double>{1.0, 10.0}));
  EXPECT_EQ(base.count, 2);
  EXPECT_DOUBLE_EQ(base.sum, 7.5);
  int64_t bucketed = 0;
  for (int64_t c : base.counts) bucketed += c;
  EXPECT_EQ(bucketed, 1);  // only part 0's observation landed in a bucket
  // The per-part series keep their own layouts intact.
  EXPECT_EQ(merged.histograms.at("lat_ms{replica=\"0\"}").bounds.size(), 2u);
  EXPECT_EQ(merged.histograms.at("lat_ms{replica=\"1\"}").bounds.size(), 3u);
}

TEST(AggregateTest, LiteralReplicaLabeledSeriesSumsWithFanOut) {
  // A part that already exports a series spelled exactly like the fan-out
  // target (replica 0's own "x_total{replica=\"0\"}") must SUM with the
  // fan-out series — never nest labels, never clobber either side.
  obs::Registry a, b;
  a.GetCounter("x_total")->Inc(1);
  b.GetCounter("x_total{replica=\"0\"}")->Inc(5);
  auto merged = obs::AggregateSnapshots(
      "replica", {{"0", a.snapshot()}, {"1", b.snapshot()}});
  EXPECT_EQ(merged.counters.at("x_total"), 1);
  EXPECT_EQ(merged.counters.at("x_total{replica=\"0\"}"), 6);
  for (const auto& [name, v] : merged.counters) {
    EXPECT_EQ(name.find('{'), name.rfind('{')) << "nested label in " << name;
  }
}

}  // namespace
}  // namespace taste
