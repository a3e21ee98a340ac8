// The supervising router of the multi-process serving tier (DESIGN.md §10).
//
// RunBatch() scatters a batch of tables across the supervisor's replica
// workers by consistent hash, gathers per-leg responses from a single
// poll(2) loop, and merges them back into a pipeline::BatchResult in input
// order — the same shape (and, faults off, the same bytes) a single-process
// PipelineExecutor produces.
//
// Robustness semantics:
//
//   * A replica that dies mid-leg (SIGCHLD, socket EOF, or heartbeat
//     verdict) has its in-flight tables RE-DISPATCHED to surviving
//     replicas. Detection is a pure function of (table, model weights,
//     options) and every replica shares the forked model image, so the
//     replayed work is byte-identical to what the dead replica would have
//     produced — re-dispatch is idempotent by construction.
//   * Each re-dispatch blacklists the dead replica for those tables, so a
//     table that reliably kills its owner (the chaos harness injects
//     exactly this) walks the ring past repeat offenders instead of
//     crash-looping forever.
//   * When no usable replica remains for a table (all dead, parked, or
//     blacklisted) the router runs it LOCALLY on its own executor with the
//     remaining deadline. Under an exhausted budget this degrades to
//     metadata-only results / kExpired through the exact PR-1 semantics —
//     graceful degradation, never a hang.
//   * Deadline propagation: each leg carries the batch's remaining budget
//     (wire semantics of serve/wire.h); the batch-level deadline also
//     bounds the gather loop itself, so a stuck replica cannot hold the
//     batch past its budget.
//
// Gray-failure handling (DESIGN.md §13) — failures that are neither a crash
// nor an EOF:
//
//   * A leg that does not answer is handled by one rule, the WEDGED-replica
//     watchdog: a leg outstanding past watchdog_ms_per_table × its table
//     count (SIGSTOP, livelock, a drip too slow to finish) has its replica
//     condemned through the supervisor's escalation (SIGTERM → SIGKILL →
//     respawn) and its tables re-dispatched byte-identically. No leg is
//     ever sent twice, so every table is in at most one leg at a time.
//   * CORRUPT frames (CRC / framing faults from serve/wire.h) poison the
//     stream: the replica is marked dead and its tables re-dispatched — a
//     corrupted response is never surfaced as valid.

#ifndef TASTE_SERVE_ROUTER_H_
#define TASTE_SERVE_ROUTER_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "pipeline/scheduler.h"
#include "serve/supervisor.h"
#include "serve/worker.h"

namespace taste::serve {

/// Deterministic 64-bit hash of a table name (FNV-1a finished through a
/// SplitMix64 round) — stable across processes and platforms, unlike
/// std::hash.
uint64_t HashTableName(const std::string& name);

/// Virtual nodes per replica on the router's ring.
inline constexpr int kRingVnodes = 64;

/// Consistent hash ring over replica ids with virtual nodes. Placement is
/// a pure function of (replica count, vnodes, table name); failover walks
/// the ring to the first ACCEPTABLE node, so surviving assignments do not
/// move when a replica dies — only the dead node's tables do.
class ConsistentHashRing {
 public:
  ConsistentHashRing(int replicas, int vnodes);

  /// First node at or clockwise of the table's point that `acceptable`
  /// admits; -1 when no node qualifies.
  template <typename Pred>
  int NodeFor(const std::string& table, Pred&& acceptable) const {
    if (points_.empty()) return -1;
    const uint64_t h = HashTableName(table);
    size_t lo = 0, hi = points_.size();
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (points_[mid].hash < h) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    // Walk clockwise; visit each distinct replica at most once.
    uint64_t seen = 0;  // replica-count <= 64 enforced in the constructor
    int distinct = 0;
    for (size_t i = 0; distinct < replicas_ && i < points_.size(); ++i) {
      const int node = points_[(lo + i) % points_.size()].node;
      const uint64_t bit = 1ull << node;
      if (seen & bit) continue;
      seen |= bit;
      ++distinct;
      if (acceptable(node)) return node;
    }
    return -1;
  }

 private:
  struct Point {
    uint64_t hash;
    int node;
  };
  int replicas_;
  std::vector<Point> points_;
};

struct RouterOptions {
  SupervisorOptions supervisor;

  /// Wedged-replica watchdog budget per table of a leg: a leg of n tables
  /// still outstanding after n × watchdog_ms_per_table condemns the replica
  /// holding it (SIGTERM → 20 ms grace → SIGKILL → respawn) and
  /// re-dispatches the leg. Always on; must be > 0.
  double watchdog_ms_per_table = 500.0;
};

/// Cumulative fault-handling activity across the router's lifetime.
struct RouterStats {
  double wall_ms = 0.0;              // most recent RunBatch
  int64_t batches = 0;
  int64_t dispatched_tables = 0;     // tables sent to replicas (first try)
  int64_t redispatched_tables = 0;   // failover re-dispatches
  int64_t replica_deaths = 0;        // deaths observed during batches
  int64_t local_fallback_tables = 0; // tables the router ran itself
  /// Always 0: the router never sends a leg twice (DESIGN.md §13). The
  /// perfbench harness still reports it as serve.hedged_frac.
  int64_t hedged_tables = 0;
  pipeline::ResilienceStats resilience;  // merged across legs + fallback
};

class Router {
 public:
  /// `env` supplies both the worker fork environment and the router's own
  /// local-fallback executor (same detector/db/options — that is what makes
  /// fallback byte-identical when faults are off). Pointers must outlive
  /// the router.
  Router(WorkerEnv env, RouterOptions options);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Forks the replicas. Call once before RunBatch.
  Status Start();
  void Shutdown();

  /// Scatter/gather detection of `tables`, results in input order. Uses
  /// env.pipeline_options.deadline_ms as the batch budget (0 = none),
  /// anchored at entry — identical semantics to PipelineExecutor.
  pipeline::BatchResult RunBatch(const std::vector<std::string>& tables);

  /// Drives reap/respawn timers until every non-parked replica is up or
  /// `budget_ms` elapses. Returns whether full strength was reached —
  /// the chaos harness's bounded-recovery assertion.
  bool MaintainUntilAllUp(double budget_ms);

  /// Scrapes every live replica's metrics registry and aggregates them
  /// with the router's own (obs/aggregate.h): summed base series plus
  /// per-replica labeled series.
  Result<obs::Registry::Snapshot> Scrape();

  const RouterStats& stats() const { return stats_; }
  Supervisor& supervisor() { return supervisor_; }

 private:
  struct Leg;  // one in-flight DetectRequest to one replica

  /// Sends one leg carrying `indices` (into the current batch's table
  /// vector). Returns false when the write failed and the replica was
  /// marked dead (caller re-plans the leg's tables).
  bool SendLeg(int replica_id, std::vector<size_t> indices,
               const std::vector<std::string>& tables, double remaining_ms,
               std::vector<Leg>* legs);

  WorkerEnv env_;
  RouterOptions options_;
  Supervisor supervisor_;
  ConsistentHashRing ring_;
  RouterStats stats_;
  uint64_t next_request_id_ = 1;
  bool started_ = false;
};

}  // namespace taste::serve

#endif  // TASTE_SERVE_ROUTER_H_
