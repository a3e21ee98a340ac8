// chaos_soak — seeded chaos/soak harness for the serving pipeline
// (DESIGN.md §8).
//
// Each seed deterministically derives a scenario: a random table subset,
// pool sizes, fault-injection probabilities (timeouts, latency spikes,
// partial scans, connect failures, unavailable tables), resilience and
// admission-control settings, and a deadline mode from {none, generous,
// pre-expired}. The scenario runs against PipelineExecutor::RunBatch and
// the harness asserts the robustness invariants:
//
//   * no hang — a watchdog aborts the process if a run stops progressing;
//   * no lost table — every table reaches exactly one terminal outcome
//     (complete / degraded / shed / expired / failed) whose sticky Status
//     is consistent with the outcome;
//   * deterministic shedding — with admission on, exactly the input-order
//     tail past (max_inflight + max_queued) is shed at batch entry;
//   * bounded concurrency — max_tables_in_flight never exceeds the
//     admission cap;
//   * registry consistency — the global metric counters move by exactly
//     the run's ResilienceStats;
//   * replayability — re-running the same seed produces a byte-identical
//     outcome digest (results, statuses, probabilities, fault stats).
//
// All scenarios use time_scale = 0 (pure-ledger I/O costs, no real
// sleeping) and serial kernels, and avoid wall-clock-dependent knobs
// (scripted fault windows, queue-wait shedding, live mid-run deadlines), so
// every decision is a pure function of the seed regardless of thread
// interleaving.
//
// --cache-churn additionally squeezes the latent cache to a handful of
// entries (eviction storms on every P2 chunk) and runs 2-4 infer workers.
// WHICH worker evicts, recomputes or hits an entry is timing-dependent —
// but a recomputed latent is byte-identical to a cached one, so the replay
// digest must STILL match bit for bit. A digest mismatch in this mode
// means cache reuse stopped being invisible.
//
// Usage:
//   chaos_soak [--seeds N] [--start-seed S] [--tables N] [--verbose]
//              [--cache-churn]
//   chaos_soak --overload     latency-under-overload sweep (real time scale)
//   chaos_soak --replica-kill kill/respawn chaos (fail-stop failures)
//   chaos_soak --gray-storm   gray-failure chaos: SIGSTOP wedges, byte-flip
//                             corruption, slow-drip partial writes
//
// Exit code 0 = all seeds green; 1 = an invariant failed (details on
// stderr, with the seed to replay).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>

#include "clouddb/fault_injector.h"
#include "common/logging.h"
#include "core/taste_detector.h"
#include "data/table_generator.h"
#include "model/adtd.h"
#include "obs/metrics.h"
#include "pipeline/scheduler.h"
#include "serve/router.h"
#include "text/wordpiece.h"

using namespace taste;

namespace {

// ---------------------------------------------------------------------------
// Deterministic per-seed randomness

struct SplitMix64 {
  uint64_t s;
  explicit SplitMix64(uint64_t seed) : s(seed) {}
  uint64_t Next() {
    uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  double Unit() {  // [0, 1)
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }
  int Range(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
};

// ---------------------------------------------------------------------------
// Shared environment (built once; read-only across runs)

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
    Rng rng(21);  // untrained weights; inference is still deterministic
    e.model = std::make_unique<model::AdtdModel>(cfg, rng);
    for (const auto& t : e.dataset.tables) e.table_names.push_back(t.name);
    return e;
  }
};

// ---------------------------------------------------------------------------
// Per-seed scenario

enum class DeadlineMode { kNone, kGenerous, kPreExpired };

struct Scenario {
  std::vector<std::string> tables;
  clouddb::FaultConfig faults;
  core::TasteOptions detector_options;
  pipeline::PipelineOptions pipeline_options;
  DeadlineMode deadline_mode = DeadlineMode::kNone;
};

Scenario MakeScenario(uint64_t seed, const Env& env, bool cache_churn) {
  SplitMix64 rng(seed * 0x100000001B3ull + 0x9E3779B9ull);
  Scenario sc;

  const int total = static_cast<int>(env.table_names.size());
  const int count = rng.Range(3, std::min(8, total));
  const int start = rng.Range(0, total - 1);
  for (int k = 0; k < count; ++k) {
    sc.tables.push_back(env.table_names[(start + k) % total]);
  }

  clouddb::FaultConfig& f = sc.faults;
  f.seed = seed;
  f.connect_failure_prob = rng.Unit() < 0.4 ? rng.Unit() * 0.20 : 0.0;
  f.timeout_prob = rng.Unit() < 0.6 ? rng.Unit() * 0.25 : 0.0;
  f.latency_spike_prob = rng.Unit() < 0.5 ? rng.Unit() * 0.25 : 0.0;
  f.partial_scan_prob = rng.Unit() < 0.5 ? rng.Unit() * 0.25 : 0.0;
  for (const auto& t : sc.tables) {
    if (rng.Unit() < 0.15) f.unavailable_tables.push_back(t);
  }
  f.unavailable_all_ops = rng.Unit() < 0.25;
  // NOTE: no scripted FaultWindows — they key on the virtual clock, whose
  // per-table ordering depends on thread interleaving.

  core::TasteOptions& topt = sc.detector_options;
  topt.enable_p2 = rng.Unit() < 0.9;
  topt.resilience.max_attempts = rng.Range(1, 3);
  topt.resilience.degrade_on_scan_failure = rng.Unit() < 0.8;
  topt.resilience.degraded_admit_threshold = rng.Unit() < 0.5 ? 0.5 : 0.0;

  pipeline::PipelineOptions& popt = sc.pipeline_options;
  popt.pipelined = rng.Unit() < 0.8;
  popt.prep_threads = rng.Range(1, 3);
  popt.infer_threads = rng.Range(1, 3);
  if (rng.Unit() < 0.5) {
    popt.admission.enabled = true;
    popt.admission.max_inflight_tables = rng.Range(1, 3);
    popt.admission.max_queued_tables = rng.Range(0, 4);
  }
  const double u = rng.Unit();
  if (u < 0.25) {
    sc.deadline_mode = DeadlineMode::kPreExpired;
    popt.deadline_ms = -1.0;  // expired before anything runs
  } else if (u < 0.5) {
    sc.deadline_mode = DeadlineMode::kGenerous;
    popt.deadline_ms = 10000.0;  // never fires within a chaos run
  }
  if (cache_churn) {
    // Eviction storms: a cache of 1-4 entries churns on every P2 chunk
    // while concurrent infer workers race for it. Which worker hits or
    // recomputes is timing-dependent; the digest must not be.
    topt.enable_p2 = true;  // churn needs P2 traffic
    topt.cache_capacity = static_cast<size_t>(rng.Range(1, 4));
    popt.pipelined = true;
    popt.infer_threads = rng.Range(2, 4);
  }
  return sc;
}

// ---------------------------------------------------------------------------
// One run + invariants

struct RunOutput {
  std::string digest;
  std::vector<std::string> violations;
};

/// Bit-exact digest of a batch outcome (results, statuses, provenance,
/// probabilities with %a float formatting). Shared by the single-process
/// replay check and the multi-process byte-identity check.
void AppendBatchDigest(const pipeline::BatchResult& batch,
                       const std::vector<std::string>& requested,
                       std::string* d) {
  char buf[64];
  for (size_t i = 0; i < batch.tables.size(); ++i) {
    const auto& t = batch.tables[i];
    *d += t.result.table_name.empty() ? requested[i] : t.result.table_name;
    *d += '|';
    *d += pipeline::TableOutcomeName(t.outcome);
    *d += '|';
    *d += t.status.ToString();
    *d += '|';
    for (const auto& col : t.result.columns) {
      *d += col.column_name + ":" + core::ProvenanceName(col.provenance) +
            (col.went_to_p2 ? ":p2:" : ":p1:");
      for (int ty : col.admitted_types) *d += std::to_string(ty) + ",";
      *d += '[';
      for (float p : col.probabilities) {
        std::snprintf(buf, sizeof(buf), "%a;", static_cast<double>(p));
        *d += buf;
      }
      *d += ']';
    }
    *d += '\n';
  }
}

void Violate(RunOutput* out, uint64_t seed, const std::string& what) {
  out->violations.push_back("seed " + std::to_string(seed) + ": " + what);
}

const char* kCounterNames[] = {
    "taste_tables_shed_total",     "taste_tables_expired_total",
    "taste_tables_degraded_total", "taste_failed_tables_total",
    "taste_retries_total",
};
constexpr int kNumCounters = static_cast<int>(std::size(kCounterNames));

RunOutput RunOnce(uint64_t seed, const Env& env, const Scenario& sc) {
  RunOutput out;

  // Fresh database, injector, and detector per run: attempt counters,
  // ledger, and latent cache all start from zero, which is what makes a
  // seed replay byte-identical.
  clouddb::CostModel cost;
  cost.time_scale = 0.0;
  clouddb::SimulatedDatabase db(cost);
  TASTE_CHECK(db.IngestDataset(env.dataset).ok());
  auto injector = std::make_shared<clouddb::FaultInjector>(sc.faults);
  db.SetFaultInjector(injector);
  core::TasteDetector detector(env.model.get(), env.tokenizer.get(),
                               sc.detector_options);
  pipeline::PipelineExecutor exec(&detector, &db, sc.pipeline_options);

  obs::Registry& reg = obs::Registry::Global();
  int64_t before[kNumCounters];
  for (int i = 0; i < kNumCounters; ++i) {
    before[i] = reg.GetCounter(kCounterNames[i])->Value();
  }

  pipeline::BatchResult batch = exec.RunBatch(sc.tables);
  const pipeline::ResilienceStats& rz = exec.resilience_stats();
  const pipeline::PipelineRunStats& ps = exec.stats();

  // -- Invariant: every table reaches exactly one consistent terminal state.
  if (batch.tables.size() != sc.tables.size()) {
    Violate(&out, seed, "result count mismatch");
    return out;
  }
  int64_t n_shed = 0, n_expired = 0, n_degraded = 0, n_failed = 0;
  for (size_t i = 0; i < batch.tables.size(); ++i) {
    const auto& t = batch.tables[i];
    const StatusCode code = t.status.code();
    switch (t.outcome) {
      case pipeline::TableOutcome::kComplete:
        if (!t.status.ok() || t.result.degraded_columns != 0) {
          Violate(&out, seed, sc.tables[i] + ": kComplete inconsistent");
        }
        break;
      case pipeline::TableOutcome::kDegraded:
        ++n_degraded;
        if (!t.status.ok() || t.result.degraded_columns <= 0) {
          Violate(&out, seed, sc.tables[i] + ": kDegraded inconsistent");
        }
        break;
      case pipeline::TableOutcome::kShed:
        ++n_shed;
        if (code != StatusCode::kUnavailable) {
          Violate(&out, seed, sc.tables[i] + ": kShed without kUnavailable");
        }
        break;
      case pipeline::TableOutcome::kExpired:
        ++n_expired;
        if (code != StatusCode::kDeadlineExceeded &&
            code != StatusCode::kCancelled) {
          Violate(&out, seed,
                  sc.tables[i] + ": kExpired with unexpected code " +
                      t.status.ToString());
        }
        break;
      case pipeline::TableOutcome::kFailed:
        ++n_failed;
        if (t.status.ok()) {
          Violate(&out, seed, sc.tables[i] + ": kFailed with OK status");
        }
        break;
    }
  }

  // -- Invariant: deterministic entry shedding of the input-order tail.
  const auto& adm = sc.pipeline_options.admission;
  const int64_t expect_shed =
      adm.enabled ? std::max<int64_t>(
                        0, static_cast<int64_t>(sc.tables.size()) -
                               (adm.max_inflight_tables + adm.max_queued_tables))
                  : 0;
  if (n_shed != expect_shed) {
    Violate(&out, seed,
            "shed " + std::to_string(n_shed) + " tables, expected " +
                std::to_string(expect_shed));
  }
  for (size_t i = 0; i < batch.tables.size(); ++i) {
    const bool should_shed =
        expect_shed > 0 &&
        i >= sc.tables.size() - static_cast<size_t>(expect_shed);
    if (should_shed !=
        (batch.tables[i].outcome == pipeline::TableOutcome::kShed)) {
      Violate(&out, seed, sc.tables[i] + ": shed set is not the input tail");
    }
  }

  // -- Invariant: pre-expired deadline parks every admitted table without
  //    completing any of them.
  if (sc.deadline_mode == DeadlineMode::kPreExpired) {
    for (size_t i = 0; i < batch.tables.size(); ++i) {
      const auto o = batch.tables[i].outcome;
      if (o != pipeline::TableOutcome::kExpired &&
          o != pipeline::TableOutcome::kShed) {
        Violate(&out, seed,
                sc.tables[i] + ": pre-expired run produced outcome " +
                    pipeline::TableOutcomeName(o));
      }
    }
  }

  // -- Invariant: admission bounds concurrency.
  if (adm.enabled && sc.pipeline_options.pipelined &&
      ps.max_tables_in_flight > std::max(1, adm.max_inflight_tables)) {
    Violate(&out, seed,
            "max_tables_in_flight " + std::to_string(ps.max_tables_in_flight) +
                " exceeds admission cap " +
                std::to_string(adm.max_inflight_tables));
  }

  // -- Invariant: the global registry moved by exactly this run's stats.
  const int64_t expect_delta[kNumCounters] = {
      rz.shed_tables, rz.expired_tables, rz.degraded_tables, rz.failed_tables,
      rz.retries};
  for (int i = 0; i < kNumCounters; ++i) {
    const int64_t delta = reg.GetCounter(kCounterNames[i])->Value() - before[i];
    if (delta != expect_delta[i]) {
      Violate(&out, seed,
              std::string(kCounterNames[i]) + " moved by " +
                  std::to_string(delta) + ", ResilienceStats says " +
                  std::to_string(expect_delta[i]));
    }
  }
  if (rz.shed_tables != n_shed || rz.expired_tables != n_expired ||
      rz.degraded_tables != n_degraded || rz.failed_tables != n_failed) {
    Violate(&out, seed, "ResilienceStats outcome tallies disagree with batch");
  }

  // -- Outcome digest for replay comparison (bit-exact float formatting).
  std::string& d = out.digest;
  char buf[64];
  AppendBatchDigest(batch, sc.tables, &d);
  const auto fs = injector->stats();
  std::snprintf(buf, sizeof(buf), "faults=%lld/%lld trunc=%lld\n",
                static_cast<long long>(fs.faults()),
                static_cast<long long>(fs.decisions),
                static_cast<long long>(fs.deadline_truncated));
  d += buf;
  std::snprintf(
      buf, sizeof(buf), "rz=%lld,%lld,%lld,%lld,%lld\n",
      static_cast<long long>(rz.retries),
      static_cast<long long>(rz.degraded_columns),
      static_cast<long long>(rz.failed_columns),
      static_cast<long long>(rz.shed_tables),
      static_cast<long long>(rz.expired_tables));
  d += buf;
  return out;
}

// ---------------------------------------------------------------------------
// Overload sweep (real time scale) — EXPERIMENTS.md "latency under overload"

int RunOverloadSweep(const Env& env) {
  obs::SetMetricsEnabled(true);
  std::printf("load_factor tables deadline_ms complete degraded expired shed "
              "admitted_p99_ms batch_ms\n");
  for (int load : {1, 2, 4, 8}) {
    clouddb::CostModel cost;  // real sleeping: time_scale = 1
    clouddb::SimulatedDatabase db(cost);
    TASTE_CHECK(db.IngestDataset(env.dataset).ok());
    core::TasteOptions topt;
    topt.resilience.degraded_admit_threshold = 0.5;
    core::TasteDetector detector(env.model.get(), env.tokenizer.get(), topt);

    pipeline::PipelineOptions popt;
    popt.prep_threads = 2;
    popt.infer_threads = 2;
    popt.deadline_ms = 100.0;
    popt.admission.enabled = true;
    popt.admission.max_inflight_tables = 4;
    popt.admission.max_queued_tables = 8;
    pipeline::PipelineExecutor exec(&detector, &db, popt);

    // Offered load = load x the infer capacity's comfortable batch (2
    // workers ~ 2 tables in flight): repeat the table list as needed.
    std::vector<std::string> targets;
    const int want = 2 * load;
    for (int i = 0; i < want; ++i) {
      targets.push_back(env.table_names[i % env.table_names.size()]);
    }

    obs::Histogram* h =
        obs::Registry::Global().GetHistogram("taste_admitted_table_ms");
    h->Reset();
    pipeline::BatchResult batch = exec.RunBatch(targets);
    const auto& rz = exec.resilience_stats();
    int64_t complete = 0;
    for (const auto& t : batch.tables) {
      if (t.outcome == pipeline::TableOutcome::kComplete) ++complete;
    }
    std::printf("%-11d %-6zu %-11.0f %-8lld %-8lld %-7lld %-4lld %-15.1f "
                "%.1f\n",
                load, targets.size(), popt.deadline_ms,
                static_cast<long long>(complete),
                static_cast<long long>(rz.degraded_tables),
                static_cast<long long>(rz.expired_tables),
                static_cast<long long>(rz.shed_tables),
                h->snapshot().Quantile(0.99), exec.stats().wall_ms);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// --replica-kill: kill/respawn chaos against the multi-process serving tier
//
// Each seed builds a faults-OFF scenario, computes the single-process
// oracle digest, then runs the same batch through a serve::Router with
//   (a) a deterministic injected crash — the ring owner of one chosen
//       table calls _exit() the moment that table's request arrives, and
//   (b) a wall-clock killer thread SIGKILLing 1-2 random live workers
//       mid-run (timing-dependent WHICH work gets re-dispatched — the
//       merged output must not depend on it).
// Invariants: the merged router batch is BYTE-IDENTICAL to the oracle
// digest; >= 1 replica death was observed and every orphaned table was
// re-dispatched or locally recovered; the fleet returns to full strength
// within a bounded recovery window.

struct ReplicaKillScenario {
  std::vector<std::string> tables;
  core::TasteOptions detector_options;
  pipeline::PipelineOptions pipeline_options;
  int replicas = 2;
  int extra_kills = 1;       // wall-clock SIGKILLs on top of the injection
  double kill_delay_ms = 0;  // delay before the first wall-clock kill
};

ReplicaKillScenario MakeReplicaKillScenario(uint64_t seed, const Env& env) {
  SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + 0xC4A5ull);
  ReplicaKillScenario sc;
  const int total = static_cast<int>(env.table_names.size());
  const int count = rng.Range(3, std::min(8, total));
  const int start = rng.Range(0, total - 1);
  for (int k = 0; k < count; ++k) {
    sc.tables.push_back(env.table_names[(start + k) % total]);
  }
  // Faults OFF and no admission/deadline pressure: detection must be a
  // pure function of (table, weights, options), which is what makes the
  // byte-identity assertion meaningful.
  sc.detector_options.enable_p2 = rng.Unit() < 0.9;
  pipeline::PipelineOptions& popt = sc.pipeline_options;
  popt.pipelined = rng.Unit() < 0.8;
  popt.prep_threads = rng.Range(1, 3);
  popt.infer_threads = rng.Range(1, 3);
  // Generous deadline half the time: it must never fire, but its remaining
  // budget rides every wire frame, exercising propagation.
  popt.deadline_ms = rng.Unit() < 0.5 ? 10000.0 : 0.0;
  sc.replicas = rng.Range(2, 4);
  sc.extra_kills = rng.Range(1, 2);
  sc.kill_delay_ms = rng.Unit() * 20.0;
  return sc;
}

int RunReplicaKill(const Env& env, int seeds, uint64_t start_seed,
                   bool verbose) {
  obs::SetMetricsEnabled(true);
  int failures = 0;
  for (int k = 0; k < seeds; ++k) {
    const uint64_t seed = start_seed + static_cast<uint64_t>(k);
    const ReplicaKillScenario sc = MakeReplicaKillScenario(seed, env);
    std::vector<std::string> violations;
    auto violate = [&](const std::string& what) {
      violations.push_back("seed " + std::to_string(seed) + ": " + what);
    };

    // Single-process oracle (fresh db + detector, same options).
    std::string oracle_digest;
    {
      clouddb::CostModel cost;
      cost.time_scale = 0.0;
      clouddb::SimulatedDatabase db(cost);
      TASTE_CHECK(db.IngestDataset(env.dataset).ok());
      core::TasteDetector detector(env.model.get(), env.tokenizer.get(),
                                   sc.detector_options);
      pipeline::PipelineExecutor exec(&detector, &db, sc.pipeline_options);
      pipeline::BatchResult batch = exec.RunBatch(sc.tables);
      AppendBatchDigest(batch, sc.tables, &oracle_digest);
    }

    // Multi-process run under kill/respawn chaos.
    clouddb::CostModel cost;
    cost.time_scale = 0.0;
    clouddb::SimulatedDatabase db(cost);
    TASTE_CHECK(db.IngestDataset(env.dataset).ok());
    core::TasteDetector detector(env.model.get(), env.tokenizer.get(),
                                 sc.detector_options);
    serve::WorkerEnv wenv;
    wenv.detector = &detector;
    wenv.db = &db;
    wenv.pipeline_options = sc.pipeline_options;
    serve::RouterOptions ropt;
    ropt.supervisor.replicas = sc.replicas;
    // Deterministic mid-request crash: the ring owner of the first table
    // dies the moment its leg arrives.
    serve::ConsistentHashRing ring(sc.replicas, serve::kRingVnodes);
    wenv.crash_table = sc.tables[0];
    wenv.crash_replica =
        ring.NodeFor(wenv.crash_table, [](int) { return true; });

    serve::Router router(wenv, ropt);
    TASTE_CHECK(router.Start().ok());

    // Wall-clock killer: SIGKILL random live workers mid-run. Pids are
    // read racily on purpose — a stale pid just means the victim already
    // died, which is chaos working as intended.
    SplitMix64 krng(seed ^ 0x5EED5ull);
    std::atomic<bool> killer_stop{false};
    std::thread killer([&] {
      for (int kill_i = 0; kill_i < sc.extra_kills; ++kill_i) {
        const double delay = sc.kill_delay_ms + krng.Unit() * 15.0;
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::duration<double, std::milli>(delay);
        while (std::chrono::steady_clock::now() < until) {
          if (killer_stop.load()) return;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        const int victim = krng.Range(0, sc.replicas - 1);
        const serve::Replica* r = router.supervisor().replica(victim);
        const pid_t pid = r != nullptr ? r->pid : -1;
        if (pid > 0) ::kill(pid, SIGKILL);
      }
    });

    pipeline::BatchResult batch = router.RunBatch(sc.tables);
    killer_stop.store(true);
    killer.join();

    std::string digest;
    AppendBatchDigest(batch, sc.tables, &digest);
    if (digest != oracle_digest) {
      violate("multi-process batch is NOT byte-identical to the "
              "single-process oracle");
      if (verbose) {
        std::fprintf(stderr, "--- oracle ---\n%s--- router ---\n%s",
                     oracle_digest.c_str(), digest.c_str());
      }
    }
    if (router.stats().replica_deaths < 1) {
      violate("no replica death observed despite injected crash");
    }
    // Every orphaned table must have been recovered somewhere.
    if (router.stats().redispatched_tables +
            router.stats().local_fallback_tables <
        1) {
      violate("crash produced no failover re-dispatch or local fallback");
    }
    // Bounded recovery: full strength within the respawn backoff budget.
    if (!router.MaintainUntilAllUp(5000.0)) {
      violate("fleet did not return to full strength within 5 s");
    }
    router.Shutdown();

    for (const auto& v : violations) {
      std::fprintf(stderr, "chaos_soak: VIOLATION: %s\n", v.c_str());
    }
    if (!violations.empty()) ++failures;
    if (verbose && violations.empty()) {
      std::fprintf(stderr,
                   "seed %llu ok (%zu tables, %d replicas, deaths=%lld, "
                   "redispatched=%lld, fallback=%lld)\n",
                   static_cast<unsigned long long>(seed), sc.tables.size(),
                   sc.replicas,
                   static_cast<long long>(router.stats().replica_deaths),
                   static_cast<long long>(router.stats().redispatched_tables),
                   static_cast<long long>(
                       router.stats().local_fallback_tables));
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "chaos_soak: replica-kill %d/%d seeds FAILED\n",
                 failures, seeds);
    return 1;
  }
  std::printf("chaos_soak: replica-kill %d seeds green (start %llu)\n", seeds,
              static_cast<unsigned long long>(start_seed));
  return 0;
}

// ---------------------------------------------------------------------------
// --gray-storm: gray-failure chaos against the multi-process serving tier
// (DESIGN.md §13).
//
// Where --replica-kill proves recovery from CRASHES (fail-stop: SIGKILL,
// EOF, SIGCHLD), --gray-storm proves recovery from failures that DON'T
// stop — the replica stays "alive" by every binary liveness signal while
// serving garbage or nothing:
//
//   wedge    the ring owner of a chosen table raises SIGSTOP mid-request:
//            no EOF, no SIGCHLD (SA_NOCLDSTOP), heartbeats merely queue.
//            Recovery is the wedged-replica watchdog (SIGTERM -> SIGKILL
//            -> respawn, the leg re-dispatched);
//   corrupt  the owner computes the right answer but flips one payload bit
//            after the CRC: the router must REJECT the frame (kBadCrc),
//            never surface it, kill the now-unsynchronized stream, and
//            re-dispatch;
//   drip     the owner writes its valid response in tiny delayed chunks:
//            frame reassembly must absorb it and the result must still be
//            byte-identical — slowness alone is not corruption.
//
// Per seed the harness derives the scenario (tables, replica count, fault
// kind + target), computes the single-process oracle digest, runs the
// batch through the router under injection, and asserts:
//
//   * byte-identity — the merged batch digest equals the oracle exactly;
//   * balanced terminal accounting — every admitted table resolves exactly
//     once, as kComplete with OK status (faults are off; gray failures must
//     be invisible in the results);
//   * corruption is never surfaced — corrupt seeds must move
//     taste_frames_corrupt_total and kill + re-dispatch the poisoned
//     stream; drip seeds must NOT move it;
//   * wedges actually recover — every wedge seed observes a watchdog kill,
//     and the fleet returns to full strength.

enum class GrayKind { kWedge, kCorrupt, kDrip };

struct GrayScenario {
  std::vector<std::string> tables;
  core::TasteOptions detector_options;
  pipeline::PipelineOptions pipeline_options;
  int replicas = 2;
  GrayKind kind = GrayKind::kWedge;
  std::string target_table;
  int drip_chunk_bytes = 32;
  int drip_delay_us = 100;
};

GrayScenario MakeGrayScenario(uint64_t seed, const Env& env) {
  SplitMix64 rng(seed * 0xA24BAED4963EE407ull + 0x6A4Full);
  GrayScenario sc;
  const int total = static_cast<int>(env.table_names.size());
  const int count = rng.Range(3, std::min(8, total));
  const int start = rng.Range(0, total - 1);
  for (int k = 0; k < count; ++k) {
    sc.tables.push_back(env.table_names[(start + k) % total]);
  }
  // Faults OFF (like --replica-kill): detection is a pure function of the
  // table, so the oracle byte-identity assertion is meaningful.
  sc.detector_options.enable_p2 = rng.Unit() < 0.9;
  pipeline::PipelineOptions& popt = sc.pipeline_options;
  popt.pipelined = rng.Unit() < 0.8;
  popt.prep_threads = rng.Range(1, 3);
  popt.infer_threads = rng.Range(1, 3);
  popt.deadline_ms = rng.Unit() < 0.5 ? 10000.0 : 0.0;
  sc.replicas = rng.Range(2, 4);
  const double u = rng.Unit();
  sc.kind = u < 0.4 ? GrayKind::kWedge
                    : (u < 0.7 ? GrayKind::kCorrupt : GrayKind::kDrip);
  sc.target_table = sc.tables[static_cast<size_t>(
      rng.Range(0, static_cast<int>(sc.tables.size()) - 1))];
  sc.drip_chunk_bytes = rng.Range(16, 96);
  sc.drip_delay_us = rng.Range(20, 150);
  return sc;
}

int RunGrayStorm(const Env& env, int seeds, uint64_t start_seed,
                 bool verbose) {
  obs::SetMetricsEnabled(true);
  obs::Counter* corrupt_frames =
      obs::Registry::Global().GetCounter("taste_frames_corrupt_total");
  int failures = 0;
  for (int k = 0; k < seeds; ++k) {
    const uint64_t seed = start_seed + static_cast<uint64_t>(k);
    const GrayScenario sc = MakeGrayScenario(seed, env);
    std::vector<std::string> violations;
    auto violate = [&](const std::string& what) {
      violations.push_back("seed " + std::to_string(seed) + ": " + what);
    };

    // Single-process oracle (fresh db + detector, same options).
    std::string oracle_digest;
    {
      clouddb::CostModel cost;
      cost.time_scale = 0.0;
      clouddb::SimulatedDatabase db(cost);
      TASTE_CHECK(db.IngestDataset(env.dataset).ok());
      core::TasteDetector detector(env.model.get(), env.tokenizer.get(),
                                   sc.detector_options);
      pipeline::PipelineExecutor exec(&detector, &db, sc.pipeline_options);
      pipeline::BatchResult batch = exec.RunBatch(sc.tables);
      AppendBatchDigest(batch, sc.tables, &oracle_digest);
    }

    clouddb::CostModel cost;
    cost.time_scale = 0.0;
    clouddb::SimulatedDatabase db(cost);
    TASTE_CHECK(db.IngestDataset(env.dataset).ok());
    core::TasteDetector detector(env.model.get(), env.tokenizer.get(),
                                 sc.detector_options);
    serve::WorkerEnv wenv;
    wenv.detector = &detector;
    wenv.db = &db;
    wenv.pipeline_options = sc.pipeline_options;

    serve::RouterOptions ropt;
    ropt.supervisor.replicas = sc.replicas;
    // A tight watchdog budget (the default is 500 ms per table) so a
    // wedged leg is condemned and re-dispatched within a few hundred ms.
    ropt.watchdog_ms_per_table = 40.0;

    // Aim the fault at the ring owner of the target table, so the faulty
    // replica is exactly the one the router will pick first.
    serve::ConsistentHashRing ring(sc.replicas, serve::kRingVnodes);
    const int owner =
        ring.NodeFor(sc.target_table, [](int) { return true; });
    switch (sc.kind) {
      case GrayKind::kWedge:
        wenv.wedge_replica = owner;
        wenv.wedge_table = sc.target_table;
        break;
      case GrayKind::kCorrupt:
        wenv.corrupt_replica = owner;
        wenv.corrupt_table = sc.target_table;
        break;
      case GrayKind::kDrip:
        wenv.drip_replica = owner;
        wenv.drip_table = sc.target_table;
        wenv.drip_chunk_bytes = sc.drip_chunk_bytes;
        wenv.drip_delay_us = sc.drip_delay_us;
        break;
    }

    const int64_t corrupt_before = corrupt_frames->Value();
    serve::Router router(wenv, ropt);
    TASTE_CHECK(router.Start().ok());
    pipeline::BatchResult batch = router.RunBatch(sc.tables);
    const serve::RouterStats st = router.stats();
    const int64_t corrupt_delta = corrupt_frames->Value() - corrupt_before;

    // -- Byte-identity against the oracle.
    std::string digest;
    AppendBatchDigest(batch, sc.tables, &digest);
    if (digest != oracle_digest) {
      violate("gray-failure batch is NOT byte-identical to the "
              "single-process oracle");
      if (verbose) {
        std::fprintf(stderr, "--- oracle ---\n%s--- router ---\n%s",
                     oracle_digest.c_str(), digest.c_str());
      }
    }

    // -- Balanced terminal accounting: every admitted table resolves
    //    exactly once, completely (faults off => nothing may degrade).
    if (batch.tables.size() != sc.tables.size()) {
      violate("result count mismatch: " + std::to_string(batch.tables.size()) +
              " results for " + std::to_string(sc.tables.size()) + " tables");
    } else {
      for (size_t i = 0; i < batch.tables.size(); ++i) {
        const auto& t = batch.tables[i];
        if (t.outcome != pipeline::TableOutcome::kComplete ||
            !t.status.ok() || t.result.table_name != sc.tables[i]) {
          violate(sc.tables[i] + ": non-terminal or out-of-order result (" +
                  pipeline::TableOutcomeName(t.outcome) + ", " +
                  t.status.ToString() + ")");
        }
      }
    }

    // -- Kind-specific recovery evidence.
    switch (sc.kind) {
      case GrayKind::kWedge:
        if (router.supervisor().watchdog_kills() < 1) {
          violate("wedge saw no watchdog kill");
        }
        break;
      case GrayKind::kCorrupt:
        if (corrupt_delta < 1) {
          violate("corrupt seed moved taste_frames_corrupt_total by 0");
        }
        if (st.replica_deaths < 1) {
          violate("corrupt stream did not kill the poisoned connection");
        }
        if (st.redispatched_tables + st.local_fallback_tables < 1) {
          violate("corruption produced no re-dispatch or local fallback");
        }
        break;
      case GrayKind::kDrip:
        if (corrupt_delta != 0) {
          violate("drip (valid frames) moved taste_frames_corrupt_total by " +
                  std::to_string(corrupt_delta));
        }
        break;
    }

    // -- Fleet recovery: whatever was condemned respawns.
    if (!router.MaintainUntilAllUp(5000.0)) {
      violate("fleet did not return to full strength within 5 s");
    }
    router.Shutdown();

    for (const auto& v : violations) {
      std::fprintf(stderr, "chaos_soak: VIOLATION: %s\n", v.c_str());
    }
    if (!violations.empty()) ++failures;
    if (verbose && violations.empty()) {
      const char* kind_name = sc.kind == GrayKind::kWedge     ? "wedge"
                              : sc.kind == GrayKind::kCorrupt ? "corrupt"
                                                              : "drip";
      std::fprintf(
          stderr,
          "seed %llu ok (%s, %zu tables, %d replicas, deaths=%lld "
          "watchdog=%lld corrupt=%lld, %.1f ms)\n",
          static_cast<unsigned long long>(seed), kind_name, sc.tables.size(),
          sc.replicas, static_cast<long long>(st.replica_deaths),
          static_cast<long long>(router.supervisor().watchdog_kills()),
          static_cast<long long>(corrupt_delta), st.wall_ms);
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "chaos_soak: gray-storm %d/%d seeds FAILED\n",
                 failures, seeds);
    return 1;
  }
  std::printf("chaos_soak: gray-storm %d seeds green (start %llu)\n", seeds,
              static_cast<unsigned long long>(start_seed));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A replica worker (or router) whose peer died mid-write must see an
  // EPIPE Status, not die of SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  int seeds = 200;
  uint64_t start_seed = 1;
  int tables = 10;
  bool verbose = false;
  bool overload = false;
  bool cache_churn = false;
  bool replica_kill = false;
  bool gray_storm = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      seeds = std::atoi(value());
    } else if (arg == "--start-seed") {
      start_seed = static_cast<uint64_t>(std::atoll(value()));
    } else if (arg == "--tables") {
      tables = std::atoi(value());
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--overload") {
      overload = true;
    } else if (arg == "--cache-churn") {
      cache_churn = true;
    } else if (arg == "--replica-kill") {
      replica_kill = true;
    } else if (arg == "--gray-storm") {
      gray_storm = true;
    } else {
      std::fprintf(stderr,
                   "usage: chaos_soak [--seeds N] [--start-seed S] "
                   "[--tables N] [--verbose] [--overload] [--cache-churn] "
                   "[--replica-kill] [--gray-storm]\n");
      return 2;
    }
  }
  SetLogLevel(LogLevel::kWarn);
  Env env = Env::Make(tables);
  if (overload) return RunOverloadSweep(env);
  if (replica_kill) return RunReplicaKill(env, seeds, start_seed, verbose);
  if (gray_storm) return RunGrayStorm(env, seeds, start_seed, verbose);

  obs::SetMetricsEnabled(true);

  // Watchdog: every run must make progress within the window or the
  // process aborts loudly (the "no hang" invariant).
  std::atomic<int64_t> epoch{0};
  std::atomic<bool> stop{false};
  std::thread watchdog([&] {
    int64_t last = -1;
    auto last_change = std::chrono::steady_clock::now();
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      const int64_t cur = epoch.load();
      const auto now = std::chrono::steady_clock::now();
      if (cur != last) {
        last = cur;
        last_change = now;
      } else if (now - last_change > std::chrono::seconds(120)) {
        std::fprintf(stderr,
                     "chaos_soak: WATCHDOG: no progress for 120 s "
                     "(epoch %lld) — pipeline hang\n",
                     static_cast<long long>(cur));
        std::abort();
      }
    }
  });

  int failures = 0;
  for (int k = 0; k < seeds; ++k) {
    const uint64_t seed = start_seed + static_cast<uint64_t>(k);
    Scenario sc = MakeScenario(seed, env, cache_churn);
    epoch.fetch_add(1);
    RunOutput first = RunOnce(seed, env, sc);
    epoch.fetch_add(1);
    RunOutput replay = RunOnce(seed, env, sc);
    if (first.digest != replay.digest) {
      first.violations.push_back(
          "seed " + std::to_string(seed) +
          ": replay digest differs (nondeterministic outcome)");
    }
    for (const auto& v : first.violations) {
      std::fprintf(stderr, "chaos_soak: VIOLATION: %s\n", v.c_str());
    }
    for (const auto& v : replay.violations) {
      std::fprintf(stderr, "chaos_soak: VIOLATION (replay): %s\n", v.c_str());
    }
    if (!first.violations.empty() || !replay.violations.empty()) ++failures;
    if (verbose) {
      std::fprintf(stderr, "seed %llu ok (%zu tables)\n",
                   static_cast<unsigned long long>(seed), sc.tables.size());
    }
  }
  stop.store(true);
  watchdog.join();

  if (failures > 0) {
    std::fprintf(stderr, "chaos_soak: %d/%d seeds FAILED\n", failures, seeds);
    return 1;
  }
  std::printf("chaos_soak: %d seeds green (start %llu)\n", seeds,
              static_cast<unsigned long long>(start_seed));
  return 0;
}
