// Deterministic fault injection for the simulated cloud database.
//
// Real deployments of a cloud type-detection service (paper Sec. 6.1.3: an
// ECS instance scanning tenant RDS MySQL over a VPC) fail at the database
// edge: connects are refused, queries time out, latency spikes, scans come
// back truncated, and whole tables become unavailable (dropped, locked, or
// permission-revoked mid-batch). The FaultInjector attaches those failure
// modes to SimulatedDatabase with two requirements the tests depend on:
//
//   * Determinism. Every probabilistic decision is a pure hash of
//     (seed, operation, table, per-route attempt number) — not a draw from
//     a shared RNG stream — so the decision for "the 3rd scan of table_7"
//     is identical regardless of thread interleaving. A fault script
//     replays bit-for-bit.
//   * Virtual-clock awareness. Scripted fault windows are expressed in
//     simulated milliseconds (the IoLedger's accumulated simulated_io_ms),
//     so a window like "metadata queries fail between 100 ms and 250 ms"
//     behaves the same whether latencies are slept for real or not.
//
// With no injector installed the database behaves exactly as before —
// every operation succeeds and costs its modeled latency.

#ifndef TASTE_CLOUDDB_FAULT_INJECTOR_H_
#define TASTE_CLOUDDB_FAULT_INJECTOR_H_

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace taste::clouddb {

/// Database operations faults can attach to.
enum class DbOp { kConnect = 0, kMetadata, kScan };

const char* DbOpName(DbOp op);

/// The failure modes the injector can produce.
enum class FaultKind {
  kNone = 0,
  kConnectFailure,    // transient: connection refused / reset
  kTimeout,           // transient: per-query deadline elapsed server-side
  kLatencySpike,      // no error, but the operation takes much longer
  kPartialScan,       // scan succeeds but returns a truncated row set
  kTableUnavailable,  // permanent: table dropped / locked / access revoked
};

const char* FaultKindName(FaultKind kind);

/// A scripted fault: always fires while the virtual clock is inside
/// [begin_ms, end_ms) for matching operations. Scripts compose with (and
/// take precedence over) the probabilistic faults below.
struct FaultWindow {
  double begin_ms = 0.0;
  double end_ms = 0.0;
  DbOp op = DbOp::kScan;
  FaultKind kind = FaultKind::kTimeout;
  std::string table;  // empty = any table
};

/// Per-operation fault probabilities plus scripted windows.
struct FaultConfig {
  uint64_t seed = 0;

  // Probabilistic (per-operation, independently hashed) faults.
  double connect_failure_prob = 0.0;
  double timeout_prob = 0.0;        // metadata + scan queries
  double latency_spike_prob = 0.0;  // any operation
  double partial_scan_prob = 0.0;   // scans only

  // Fault shapes.
  double timeout_wait_ms = 25.0;     // a timed-out call still burns this
  double latency_spike_ms = 50.0;    // extra latency on a spike
  double partial_scan_keep_fraction = 0.5;  // rows kept on a partial scan

  /// Hard-failed tables: scans always return Unavailable; when
  /// `unavailable_all_ops` is set, metadata queries fail too.
  std::vector<std::string> unavailable_tables = {};
  bool unavailable_all_ops = false;

  /// Scripted faults on the virtual clock.
  std::vector<FaultWindow> windows = {};
};

/// Outcome of consulting the injector for one operation.
struct FaultDecision {
  Status status;                 // OK, or the injected error
  double extra_latency_ms = 0.0; // added to the operation's modeled cost
  double keep_fraction = 1.0;    // < 1.0: truncate the scanned rows
  FaultKind kind = FaultKind::kNone;
};

/// Thread-safe deterministic fault source. One instance is shared by every
/// connection of a SimulatedDatabase.
class FaultInjector {
 public:
  struct Stats {
    int64_t decisions = 0;
    int64_t connect_failures = 0;
    int64_t timeouts = 0;
    int64_t latency_spikes = 0;
    int64_t partial_scans = 0;
    int64_t unavailable_hits = 0;
    /// Decisions whose injected extra latency was clipped because the
    /// caller's remaining deadline was shorter than the fault's wait (a
    /// timed-out call must not burn budget the caller no longer has).
    int64_t deadline_truncated = 0;
    int64_t faults() const {
      return connect_failures + timeouts + latency_spikes + partial_scans +
             unavailable_hits;
    }
  };

  explicit FaultInjector(FaultConfig config);

  /// Decides the fate of one operation. `virtual_now_ms` is the database's
  /// accumulated simulated I/O time (drives scripted windows). Increments
  /// the per-(op, table) attempt counter, so repeated calls — retries —
  /// see fresh, still-deterministic draws. `remaining_deadline_ms` is the
  /// caller's remaining latency budget (+inf = none): injected extra
  /// latency (timeout waits, spikes) is capped at it, and each capped
  /// decision counts once toward Stats::deadline_truncated. The fault
  /// *choice* never depends on the deadline — only the burned wait does —
  /// so deadline-free replays stay bit-identical.
  FaultDecision Decide(
      DbOp op, const std::string& table, double virtual_now_ms,
      double remaining_deadline_ms = std::numeric_limits<double>::infinity());

  Stats stats() const;
  void ResetStats();
  /// Decisions made so far for `op` on `table` (its attempt counter).
  uint64_t attempts(DbOp op, const std::string& table) const;
  const FaultConfig& config() const { return config_; }

 private:
  /// Uniform in [0, 1), pure function of (seed, op, table, attempt, salt).
  double UniformFor(DbOp op, const std::string& table, uint64_t attempt,
                    uint64_t salt) const;
  FaultDecision Apply(FaultKind kind, DbOp op, const std::string& table);

  const FaultConfig config_;
  mutable std::mutex mu_;
  std::map<std::pair<int, std::string>, uint64_t> attempts_;
  Stats stats_;
};

}  // namespace taste::clouddb

#endif  // TASTE_CLOUDDB_FAULT_INJECTOR_H_
