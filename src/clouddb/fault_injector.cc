#include "clouddb/fault_injector.h"

#include <algorithm>
#include <functional>

#include "common/rng.h"
#include "common/string_util.h"

namespace taste::clouddb {

namespace {

// Salts separating the independent per-operation fault draws.
constexpr uint64_t kSaltConnect = 0xC0;
constexpr uint64_t kSaltTimeout = 0x71;
constexpr uint64_t kSaltSpike = 0x5B;
constexpr uint64_t kSaltPartial = 0xBA;

}  // namespace

const char* DbOpName(DbOp op) {
  switch (op) {
    case DbOp::kConnect:
      return "connect";
    case DbOp::kMetadata:
      return "metadata";
    case DbOp::kScan:
      return "scan";
  }
  return "unknown";
}

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kConnectFailure:
      return "connect-failure";
    case FaultKind::kTimeout:
      return "timeout";
    case FaultKind::kLatencySpike:
      return "latency-spike";
    case FaultKind::kPartialScan:
      return "partial-scan";
    case FaultKind::kTableUnavailable:
      return "table-unavailable";
  }
  return "unknown";
}

FaultInjector::FaultInjector(FaultConfig config)
    : config_(std::move(config)) {}

double FaultInjector::UniformFor(DbOp op, const std::string& table,
                                 uint64_t attempt, uint64_t salt) const {
  uint64_t h = config_.seed;
  h ^= (static_cast<uint64_t>(op) + 1) * 0x9E3779B97F4A7C15ULL;
  h ^= std::hash<std::string>{}(table) * 0xBF58476D1CE4E5B9ULL;
  h ^= attempt * 0x94D049BB133111EBULL;
  h ^= salt << 17;
  return (SplitMix64(h) >> 11) * 0x1.0p-53;
}

FaultDecision FaultInjector::Apply(FaultKind kind, DbOp op,
                                   const std::string& table) {
  // mu_ held by caller.
  FaultDecision d;
  d.kind = kind;
  switch (kind) {
    case FaultKind::kNone:
      break;
    case FaultKind::kTableUnavailable:
      ++stats_.unavailable_hits;
      d.status = Status::Unavailable(
          StrFormat("table unavailable: %s", table.c_str()));
      break;
    case FaultKind::kConnectFailure:
      ++stats_.connect_failures;
      d.status = Status::IOError("connection refused by database");
      break;
    case FaultKind::kTimeout:
      ++stats_.timeouts;
      d.extra_latency_ms = config_.timeout_wait_ms;
      d.status = Status::DeadlineExceeded(
          StrFormat("%s query timed out%s%s", DbOpName(op),
                    table.empty() ? "" : " on ", table.c_str()));
      break;
    case FaultKind::kLatencySpike:
      ++stats_.latency_spikes;
      d.extra_latency_ms = config_.latency_spike_ms;
      break;
    case FaultKind::kPartialScan:
      ++stats_.partial_scans;
      d.keep_fraction =
          std::clamp(config_.partial_scan_keep_fraction, 0.0, 1.0);
      break;
  }
  return d;
}

FaultDecision FaultInjector::Decide(DbOp op, const std::string& table,
                                    double virtual_now_ms,
                                    double remaining_deadline_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.decisions;
  uint64_t attempt = ++attempts_[{static_cast<int>(op), table}];

  FaultDecision d = [&] {
    // 1. Hard-failed tables (permanent).
    if (op == DbOp::kScan || config_.unavailable_all_ops) {
      for (const auto& t : config_.unavailable_tables) {
        if (t == table) return Apply(FaultKind::kTableUnavailable, op, table);
      }
    }
    // 2. Scripted windows on the virtual clock (always fire while active).
    for (const auto& w : config_.windows) {
      if (w.op != op) continue;
      if (!w.table.empty() && w.table != table) continue;
      if (virtual_now_ms < w.begin_ms || virtual_now_ms >= w.end_ms) continue;
      return Apply(w.kind, op, table);
    }
    // 3. Probabilistic faults, each from an independent deterministic draw.
    if (op == DbOp::kConnect && config_.connect_failure_prob > 0.0 &&
        UniformFor(op, table, attempt, kSaltConnect) <
            config_.connect_failure_prob) {
      return Apply(FaultKind::kConnectFailure, op, table);
    }
    if (op != DbOp::kConnect && config_.timeout_prob > 0.0 &&
        UniformFor(op, table, attempt, kSaltTimeout) < config_.timeout_prob) {
      return Apply(FaultKind::kTimeout, op, table);
    }
    if (op == DbOp::kScan && config_.partial_scan_prob > 0.0 &&
        UniformFor(op, table, attempt, kSaltPartial) <
            config_.partial_scan_prob) {
      return Apply(FaultKind::kPartialScan, op, table);
    }
    if (config_.latency_spike_prob > 0.0 &&
        UniformFor(op, table, attempt, kSaltSpike) <
            config_.latency_spike_prob) {
      return Apply(FaultKind::kLatencySpike, op, table);
    }
    return Apply(FaultKind::kNone, op, table);
  }();
  // A caller on a deadline must not burn a wait longer than its remaining
  // budget: a timed-out query that would sit out timeout_wait_ms is cut
  // short at the deadline. The decision itself is already made above, so
  // the cap never perturbs the deterministic fault sequence.
  if (d.extra_latency_ms > remaining_deadline_ms) {
    d.extra_latency_ms = std::max(0.0, remaining_deadline_ms);
    ++stats_.deadline_truncated;
  }
  return d;
}

FaultInjector::Stats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

uint64_t FaultInjector::attempts(DbOp op, const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = attempts_.find({static_cast<int>(op), table});
  return it == attempts_.end() ? 0 : it->second;
}

void FaultInjector::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_ = Stats();
}

}  // namespace taste::clouddb
