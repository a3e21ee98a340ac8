// Differential + fault battery for the cross-replica latent cache plane
// (DESIGN.md §14): the plane is an OPTIMIZATION, so its one non-negotiable
// property is invisibility — plane-on, plane-off, and the single-process
// oracle must produce byte-identical batch results under every mix of
// remote hits, misses, respawns, quarantine invalidations, and injected
// corruption. The rig below proves that across 50 randomized seeds, for
// fp32 and int8 P2 paths, plus the degradation rules: a corrupt entry or
// frame must cost at most a recompute (or a stream re-dispatch), never a
// wrong byte.
//
// Everything here forks real processes; the suite carries the `unit` label
// (TSan instruments fork poorly; the asan/ubsan lane runs it).

#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fpu.h"
#include "common/rng.h"
#include "core/taste_detector.h"
#include "data/table_generator.h"
#include "pipeline/scheduler.h"
#include "serve/cache_plane.h"
#include "serve/router.h"
#include "serve/wire.h"
#include "tensor/ops.h"
#include "text/wordpiece.h"

namespace taste {
namespace {

FlushDenormalsScope pin_fpu;

// ---------------------------------------------------------------------------
// Shared fixture: dataset/tokenizer/model are expensive and immutable, so
// one copy serves every test; detectors are built per router so latent-cache
// state never couples two configurations under comparison.

struct PlaneEnv {
  data::Dataset dataset;
  std::unique_ptr<text::WordPieceTokenizer> tokenizer;
  std::unique_ptr<model::AdtdModel> model;
  std::vector<std::string> table_names;

  static const PlaneEnv& Get() {
    static PlaneEnv* env = [] {
      auto* e = new PlaneEnv();
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
      // Prepacked so the int8 tests can run; inert for fp32 contexts.
      TASTE_CHECK(e->model->PrepackQuantWeights() > 0);
      for (const auto& t : e->dataset.tables) {
        e->table_names.push_back(t.name);
      }
      return e;
    }();
    return *env;
  }

  std::unique_ptr<clouddb::SimulatedDatabase> MakeDb() const {
    clouddb::CostModel cost;
    cost.time_scale = 0.0;
    auto db = std::make_unique<clouddb::SimulatedDatabase>(cost);
    EXPECT_TRUE(db->IngestDataset(dataset).ok());
    return db;
  }

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
  ASSERT_EQ(g.columns.size(), w.columns.size()) << w.table_name;
  for (size_t c = 0; c < w.columns.size(); ++c) {
    const auto& gc = g.columns[c];
    const auto& wc = w.columns[c];
    EXPECT_EQ(gc.column_name, wc.column_name);
    EXPECT_EQ(gc.went_to_p2, wc.went_to_p2);
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

/// Bit-exact comparison of two batch results.
void ExpectBatchesIdentical(const pipeline::BatchResult& got,
                            const pipeline::BatchResult& want) {
  ASSERT_EQ(got.tables.size(), want.tables.size());
  for (size_t i = 0; i < want.tables.size(); ++i) {
    EXPECT_EQ(got.tables[i].outcome, want.tables[i].outcome) << i;
    ExpectResultsIdentical(got.tables[i].result, want.tables[i].result);
  }
}

/// Oracle: the same tables through a single-process executor with its own
/// detector (fresh or warm cache — both are byte-identical by design).
pipeline::BatchResult OracleRun(
    const PlaneEnv& env, core::TasteDetector* det,
    const std::vector<std::string>& tables,
    tensor::P2Dtype dtype = tensor::P2Dtype::kFp32) {
  auto db = env.MakeDb();
  pipeline::PipelineOptions popt = WorkerPipelineOptions();
  popt.p2_dtype = dtype;
  pipeline::PipelineExecutor exec(det, db.get(), popt);
  return exec.RunBatch(tables);
}

int64_t CounterOr(const obs::Registry::Snapshot& snap, const std::string& name,
                  int64_t fallback) {
  auto it = snap.counters.find(name);
  return it == snap.counters.end() ? fallback : it->second;
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

/// A synthetic but fully populated cache entry for plane-store unit tests
/// (no model required; the store only sees serialized bytes + CRC).
std::string EncodedEntry(const std::string& table, float seed) {
  model::CachedMetadata m;
  m.input.table_name = table;
  m.input.token_ids = {1, 2, 3};
  m.input.column_anchors = {0};
  m.input.column_ordinals = {0};
  m.input.column_names = {"c"};
  m.input.features = tensor::Tensor::FromVector({1, 4}, {seed, 1, 2, 3});
  m.input.attention_mask =
      tensor::Tensor::FromVector({3, 3}, std::vector<float>(9, 1.0f));
  m.input.num_columns = 1;
  m.encoding.anchor_states =
      tensor::Tensor::FromVector({1, 4}, {seed, -1, -2, -3});
  m.encoding.logits = tensor::Tensor::FromVector({1, 2}, {seed, 0.5f});
  return serve::EncodeCachedMetadata(m);
}

// ---------------------------------------------------------------------------
// Plane store semantics (no processes)

TEST(CachePlaneStoreTest, AdmitLookupRefreshAndCrcGate) {
  serve::CachePlane plane;
  const std::string bytes = EncodedEntry("t", 1.0f);
  EXPECT_TRUE(plane.Admit("t#0", bytes, /*publisher=*/0));
  ASSERT_EQ(plane.size(), 1u);

  auto hit = plane.Lookup("t#0");
  ASSERT_TRUE(hit.has_value());
  // Serving the ORIGINAL bytes, not a re-encode: a plane hit is bit-for-bit
  // what the publisher computed.
  EXPECT_EQ(*hit, bytes);
  EXPECT_FALSE(plane.Lookup("t#1").has_value());
  EXPECT_EQ(plane.stats().hits, 1);
  EXPECT_EQ(plane.stats().misses, 1);

  // A flipped bit anywhere in the entry must be rejected at admit time.
  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] ^= 0x04;
  EXPECT_FALSE(plane.Admit("t#2", corrupt, 0));
  EXPECT_EQ(plane.stats().crc_rejects, 1);
  EXPECT_EQ(plane.size(), 1u);

  // Refresh replaces bytes and publisher without duplicating the key.
  const std::string bytes2 = EncodedEntry("t", 2.0f);
  EXPECT_TRUE(plane.Admit("t#0", bytes2, /*publisher=*/1));
  EXPECT_EQ(plane.size(), 1u);
  EXPECT_EQ(*plane.Lookup("t#0"), bytes2);
}

TEST(CachePlaneStoreTest, ByteBudgetEvictsLruNotHot) {
  const std::string a = EncodedEntry("a", 1.0f);
  serve::CachePlane::Options opt;
  // Room for roughly two entries.
  opt.max_bytes = static_cast<int64_t>(a.size() * 2 + a.size() / 2);
  serve::CachePlane plane(opt);
  ASSERT_TRUE(plane.Admit("a#0", a, 0));
  ASSERT_TRUE(plane.Admit("b#0", EncodedEntry("b", 2.0f), 0));
  // Touch a#0 so b#0 is the LRU tail, then overflow.
  ASSERT_TRUE(plane.Lookup("a#0").has_value());
  ASSERT_TRUE(plane.Admit("c#0", EncodedEntry("c", 3.0f), 0));
  EXPECT_GE(plane.stats().evictions, 1);
  EXPECT_TRUE(plane.Lookup("a#0").has_value());
  EXPECT_FALSE(plane.Lookup("b#0").has_value());
  EXPECT_TRUE(plane.Lookup("c#0").has_value());
  EXPECT_LE(plane.bytes(), opt.max_bytes);
}

TEST(CachePlaneStoreTest, QuarantineInvalidationDropsOnlyThatPublisher) {
  serve::CachePlane plane;
  ASSERT_TRUE(plane.Admit("a#0", EncodedEntry("a", 1.0f), /*publisher=*/0));
  ASSERT_TRUE(plane.Admit("a#1", EncodedEntry("a", 2.0f), /*publisher=*/0));
  ASSERT_TRUE(plane.Admit("b#0", EncodedEntry("b", 3.0f), /*publisher=*/1));
  EXPECT_EQ(plane.InvalidateFromPublisher(0), 2u);
  EXPECT_EQ(plane.size(), 1u);
  EXPECT_FALSE(plane.Lookup("a#0").has_value());
  EXPECT_TRUE(plane.Lookup("b#0").has_value());
  EXPECT_EQ(plane.stats().invalidations, 2);
  // Refresh by a clean publisher resurrects the key.
  EXPECT_TRUE(plane.Admit("a#0", EncodedEntry("a", 1.0f), 1));
  EXPECT_TRUE(plane.Lookup("a#0").has_value());
}

TEST(CachePlaneStoreTest, WarmupSelectsOwnedHottestFirst) {
  serve::CachePlane plane;
  ASSERT_TRUE(plane.Admit("a#0", EncodedEntry("a", 1.0f), 0));
  ASSERT_TRUE(plane.Admit("a#1", EncodedEntry("a", 2.0f), 0));
  ASSERT_TRUE(plane.Admit("b#0", EncodedEntry("b", 3.0f), 1));
  // Heat a#1 twice, a#0 once.
  ASSERT_TRUE(plane.Lookup("a#1").has_value());
  ASSERT_TRUE(plane.Lookup("a#1").has_value());
  ASSERT_TRUE(plane.Lookup("a#0").has_value());

  // Ownership map: table "a" -> replica 7, everything else elsewhere.
  auto owner_of = [](const std::string& table) { return table == "a" ? 7 : 3; };
  auto warm = plane.WarmupEntriesFor(7, owner_of, /*max_entries=*/8);
  ASSERT_EQ(warm.size(), 2u);
  EXPECT_EQ(warm[0].first, "a#1");  // hottest first
  EXPECT_EQ(warm[1].first, "a#0");
  // Truncation honours max_entries.
  EXPECT_EQ(plane.WarmupEntriesFor(7, owner_of, 1).size(), 1u);
  // No owned tables -> empty push.
  EXPECT_TRUE(plane.WarmupEntriesFor(5, owner_of, 8).empty());
  EXPECT_EQ(serve::CachePlane::TableOfKey("tbl#12"), "tbl");
  EXPECT_EQ(serve::CachePlane::TableOfKey("nohash"), "nohash");
}

// ---------------------------------------------------------------------------
// fp32/int8 sharing: the plane stores P1 latents, which are dtype
// independent, so one serialized entry serves both towers (PR 8 contract
// lifted to the wire).

TEST(CachePlaneStoreTest, Fp32AndInt8EncodingsShareOneEntryByteForByte) {
  const PlaneEnv& env = PlaneEnv::Get();
  auto det = env.MakeDetector();
  auto db = env.MakeDb();
  auto conn = db->Connect();
  core::TasteDetector::Job job;
  ASSERT_TRUE(det->PrepareP1(conn.get(), env.table_names[0], &job).ok());
  ASSERT_FALSE(job.chunks.empty());

  tensor::ExecContext::Options int8_opts;
  int8_opts.no_grad = true;
  int8_opts.p2_dtype = tensor::P2Dtype::kInt8;
  tensor::ExecContext int8_ctx(int8_opts);

  model::CachedMetadata fp32{job.chunks[0],
                             env.model->ForwardMetadata(job.chunks[0])};
  model::CachedMetadata int8{
      job.chunks[0], env.model->ForwardMetadata(job.chunks[0], &int8_ctx)};
  // Identical wire bytes: an entry published by an fp32 replica is exactly
  // the entry an int8 replica would have published, so a remote hit is
  // valid under either dtype.
  EXPECT_EQ(serve::EncodeCachedMetadata(fp32),
            serve::EncodeCachedMetadata(int8));
}

// ---------------------------------------------------------------------------
// The 50-seed differential rig: plane-on == plane-off == oracle, bit for
// bit, across randomized table mixes (duplicates allowed, random order).

TEST(CachePlaneDiffTest, PlaneOnMatchesPlaneOffAndOracleAcross50Seeds) {
  const PlaneEnv& env = PlaneEnv::Get();
  auto det_oracle = env.MakeDetector();
  auto det_off = env.MakeDetector();
  auto det_on = env.MakeDetector();
  auto db_off = env.MakeDb();
  auto db_on = env.MakeDb();

  serve::WorkerEnv wenv_off;
  wenv_off.detector = det_off.get();
  wenv_off.db = db_off.get();
  wenv_off.pipeline_options = WorkerPipelineOptions();
  serve::WorkerEnv wenv_on = wenv_off;
  wenv_on.detector = det_on.get();
  wenv_on.db = db_on.get();
  wenv_on.cache_plane = true;
  wenv_on.cache_plane_timeout_ms = 2000;  // no flaky timeout-degrades here

  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 3;
  serve::Router off(wenv_off, ropt);
  serve::Router on(wenv_on, ropt);
  ASSERT_TRUE(off.Start().ok());
  ASSERT_TRUE(on.Start().ok());

  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 7919);
    const size_t n = 1 + rng.NextU64() % 4;
    std::vector<std::string> tables;
    for (size_t k = 0; k < n; ++k) {
      tables.push_back(env.table_names[rng.NextU64() % env.table_names.size()]);
    }
    const pipeline::BatchResult want = OracleRun(env, det_oracle.get(), tables);
    ExpectBatchesIdentical(off.RunBatch(tables), want);
    ExpectBatchesIdentical(on.RunBatch(tables), want);
    if (::testing::Test::HasFatalFailure()) break;
  }
  // The plane actually carried traffic: every first compute was published.
  EXPECT_GT(on.cache_plane().stats().fills, 0);
  EXPECT_EQ(on.stats().replica_deaths, 0);
  EXPECT_EQ(off.cache_plane().stats().fills, 0);  // plane off = no traffic
  off.Shutdown();
  on.Shutdown();
}

// ---------------------------------------------------------------------------
// Remote hit vs recompute equivalence: a respawned (cold) replica answers
// its tables from the plane and the bytes are indistinguishable from a
// recompute. warmup_keys=0 forces the lookup path (no push).

void RunRespawnRemoteHitCase(tensor::P2Dtype dtype) {
  const PlaneEnv& env = PlaneEnv::Get();
  auto det_router = env.MakeDetector();
  auto det_oracle = env.MakeDetector();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = det_router.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  wenv.pipeline_options.p2_dtype = dtype;
  wenv.cache_plane = true;
  wenv.cache_plane_timeout_ms = 2000;
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 2;
  ropt.warmup_keys = 0;  // lookups, not pushes

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());

  // Batch 1 populates the plane (every chunk publishes on compute-miss).
  (void)router.RunBatch(env.table_names);
  ASSERT_GT(router.cache_plane().stats().fills, 0);

  // There must be at least one table the victim owns, or the test proves
  // nothing; with 6 tables over 2 replicas this holds for the fixed seed.
  serve::ConsistentHashRing ring(ropt.supervisor.replicas, ropt.vnodes);
  int victim = -1;
  for (const auto& t : env.table_names) {
    const int owner = ring.NodeFor(t, [](int) { return true; });
    if (owner >= 0) {
      victim = owner;
      break;
    }
  }
  ASSERT_GE(victim, 0);
  ASSERT_TRUE(KillAndRespawn(&router, victim));

  // Batch 2: the respawned replica is cold (fresh fork of the router's
  // never-computed image) so its tables go local-miss -> plane hit.
  const int64_t hits_before = router.cache_plane().stats().hits;
  pipeline::BatchResult got = router.RunBatch(env.table_names);
  ExpectBatchesIdentical(
      got, OracleRun(env, det_oracle.get(), env.table_names, dtype));
  EXPECT_GT(router.cache_plane().stats().hits, hits_before);

  auto snap = router.Scrape();
  ASSERT_TRUE(snap.ok());
  EXPECT_GE(CounterOr(*snap, "taste_cache_remote_hits_total", 0), 1);
  router.Shutdown();
}

TEST(CachePlaneDiffTest, RespawnedReplicaRemoteHitsByteIdenticalFp32) {
  RunRespawnRemoteHitCase(tensor::P2Dtype::kFp32);
}

TEST(CachePlaneDiffTest, RespawnedReplicaRemoteHitsByteIdenticalInt8) {
  RunRespawnRemoteHitCase(tensor::P2Dtype::kInt8);
}

// ---------------------------------------------------------------------------
// Warm-from-peers: with warmup_keys on, the respawn observer pushes the hot
// set down the fresh socket before any request, so the replica re-enters
// service with LOCAL hits (no lookup round-trips at all).

TEST(CachePlaneDiffTest, RespawnWarmupRestoresHotSetWithoutLookups) {
  const PlaneEnv& env = PlaneEnv::Get();
  auto det_router = env.MakeDetector();
  auto det_oracle = env.MakeDetector();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = det_router.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  wenv.cache_plane = true;
  wenv.cache_plane_timeout_ms = 2000;
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 2;
  ropt.warmup_keys = 256;  // cover the whole working set

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  (void)router.RunBatch(env.table_names);
  ASSERT_GT(router.cache_plane().stats().fills, 0);

  ASSERT_TRUE(KillAndRespawn(&router, 0));
  // The push happened inside the respawn hook, before any detect frame.
  EXPECT_GT(router.cache_plane().stats().warmup_pushes, 0);

  pipeline::BatchResult got = router.RunBatch(env.table_names);
  ExpectBatchesIdentical(got,
                         OracleRun(env, det_oracle.get(), env.table_names));

  auto snap = router.Scrape();
  ASSERT_TRUE(snap.ok());
  // The respawned replica absorbed pushed entries...
  EXPECT_GE(CounterOr(*snap, "taste_cache_warmup_received_total", 0), 1);
  // ...and, warm, never had to ask the plane for them (its whole owned set
  // was pushed): warm-from-peers beats the cold lookup path outright.
  EXPECT_EQ(CounterOr(*snap, "taste_cache_remote_hits_total", 0), 0);
  EXPECT_EQ(CounterOr(*snap, "taste_cache_remote_timeouts_total", 0), 0);
  router.Shutdown();
}

// ---------------------------------------------------------------------------
// Miss-storm: quarantining a replica drops everything it published (its
// bytes are no longer trusted), so peers recompute — slower, never wrong.

TEST(CachePlaneDiffTest, QuarantineInvalidationForcesByteIdenticalRecompute) {
  const PlaneEnv& env = PlaneEnv::Get();
  auto det_router = env.MakeDetector();
  auto det_oracle = env.MakeDetector();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = det_router.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  wenv.cache_plane = true;
  wenv.cache_plane_timeout_ms = 2000;
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 3;

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  (void)router.RunBatch(env.table_names);
  const int64_t fills = router.cache_plane().stats().fills;
  ASSERT_GT(fills, 0);

  // Three gray verdicts cross the 0.5 error-EWMA threshold: quarantine
  // fires the observer, which must drop replica 0's published entries.
  router.supervisor().RecordLegError(0);
  router.supervisor().RecordLegError(0);
  router.supervisor().RecordLegError(0);
  ASSERT_EQ(router.supervisor().replica(0)->state,
            serve::ReplicaState::kQuarantined);
  EXPECT_GT(router.cache_plane().stats().invalidations, 0);

  // Batch 2 re-routes replica 0's tables to ring successors, whose plane
  // lookups now miss (the entries are gone) — a miss storm that must end
  // in byte-identical recomputes, and repopulate the plane.
  pipeline::BatchResult got = router.RunBatch(env.table_names);
  ExpectBatchesIdentical(got,
                         OracleRun(env, det_oracle.get(), env.table_names));
  EXPECT_GT(router.cache_plane().stats().fills, fills);
  router.Shutdown();
}

// ---------------------------------------------------------------------------
// Injected corruption (the chaos hooks, deterministically aimed)

TEST(CachePlaneDiffTest, CorruptPublishedEntryIsRejectedNotServed) {
  const PlaneEnv& env = PlaneEnv::Get();
  auto det_router = env.MakeDetector();
  auto det_oracle = env.MakeDetector();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = det_router.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  wenv.cache_plane = true;
  wenv.cache_plane_timeout_ms = 2000;
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 2;

  // The ring owner of table_names[0] publishes bit-flipped entries for it
  // (entry CRC broken, frame CRC valid): the plane must reject them at
  // admit, count them, and NOT penalise the stream.
  serve::ConsistentHashRing ring(ropt.supervisor.replicas, ropt.vnodes);
  const std::string victim_table = env.table_names[0];
  wenv.cache_entry_corrupt_replica =
      ring.NodeFor(victim_table, [](int) { return true; });
  wenv.cache_entry_corrupt_table = victim_table;

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  pipeline::BatchResult got = router.RunBatch(env.table_names);
  ExpectBatchesIdentical(got,
                         OracleRun(env, det_oracle.get(), env.table_names));
  EXPECT_GT(router.cache_plane().stats().crc_rejects, 0);
  EXPECT_EQ(router.stats().replica_deaths, 0);
  router.Shutdown();
}

// Misshapen entries: CRC-valid, under the right key and built from exactly
// this chunk's input, but not in the shapes this model's metadata tower
// returns. Every site that reads the cache (P1's lookup and P2's latent
// read) must treat one as a miss.

/// A remote tier holding one entry.
class OneEntryRemoteStore : public model::RemoteLatentStore {
 public:
  OneEntryRemoteStore(std::string key, model::CachedMetadata entry)
      : key_(std::move(key)), entry_(std::move(entry)) {}

  std::optional<model::CachedMetadata> Fetch(
      const std::string& key, const CancelToken* /*cancel*/) override {
    if (key != key_) return std::nullopt;
    return entry_;
  }
  void Publish(const std::string& /*key*/,
               const model::CachedMetadata& /*value*/) override {}

 private:
  std::string key_;
  model::CachedMetadata entry_;
};

TEST(CacheEntryShapeTest, MisshapenEntriesAreRecomputedNotTrusted) {
  const PlaneEnv& env = PlaneEnv::Get();
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
    // The plane's decode gate passes it: the CRC is valid.
    auto decoded =
        serve::DecodeCachedMetadata(serve::EncodeCachedMetadata(bad));
    ASSERT_TRUE(decoded.ok()) << what;
    for (const bool remote : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << what << (remote ? ", decoded remote" : ", local"));
      auto det = env.MakeDetector();
      OneEntryRemoteStore store(key, *decoded);
      const model::CachedMetadata& plant = remote ? *decoded : bad;
      if (remote) {
        det->cache().SetRemoteStore(&store);
      } else {
        det->cache().Put(key, plant);
      }
      core::TasteDetector::Job job;
      ASSERT_TRUE(det->PrepareP1(conn.get(), table, &job).ok());
      ASSERT_TRUE(det->InferP1(&job).ok());
      // P1 replaced the entry with its own compute; plant it again for
      // P2's read.
      det->cache().Put(key, plant);
      ASSERT_TRUE(det->PrepareP2(conn.get(), &job).ok());
      ASSERT_TRUE(det->InferP2(&job).ok());
      ExpectResultsIdentical(job.result, want);
      det->cache().SetRemoteStore(nullptr);
    }
  }
}

TEST(CachePlaneDiffTest, CorruptCacheFramePoisonsStreamNeverResults) {
  const PlaneEnv& env = PlaneEnv::Get();
  auto det_router = env.MakeDetector();
  auto det_oracle = env.MakeDetector();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = det_router.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  wenv.cache_plane = true;
  wenv.cache_plane_timeout_ms = 2000;
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 3;

  // The owner of table_names[1] sends its publish frames through
  // WriteFrameCorrupted: the frame CRC fails, the router must treat the
  // whole stream as poisoned (kill + re-dispatch) — exactly a corrupt
  // detect response's fate — and the batch stays byte-identical.
  serve::ConsistentHashRing ring(ropt.supervisor.replicas, ropt.vnodes);
  const std::string victim_table = env.table_names[1];
  wenv.cache_frame_corrupt_replica =
      ring.NodeFor(victim_table, [](int) { return true; });
  wenv.cache_frame_corrupt_table = victim_table;

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  pipeline::BatchResult got = router.RunBatch(env.table_names);
  ExpectBatchesIdentical(got,
                         OracleRun(env, det_oracle.get(), env.table_names));
  EXPECT_GE(router.stats().replica_deaths, 1);
  EXPECT_GE(router.stats().redispatched_tables, 1);
  router.Shutdown();
}

}  // namespace
}  // namespace taste
