// Retry and circuit-breaking primitives for the cloud-database serving
// path.
//
// The TASTE detector talks to a tenant database over a network (paper Sec.
// 6.1.3: RDS MySQL behind a ~5 ms VPC); connects, metadata queries, and
// content scans all fail in practice. This header provides the pieces the
// serving layers share:
//
//   * IsTransient()    — which StatusCodes are worth retrying;
//   * RetryCall()      — re-runs a Status- or Result<T>-returning callable
//                        immediately on a transient error, up to a number
//                        of attempts (no sleeping: a timed-out call has
//                        already burned its wait);
//   * CircuitBreaker   — closed/open/half-open breaker so a dead table (or
//                        connection route) stops burning attempts;
//   * BreakerRegistry  — thread-safe per-key breakers that keep only the
//                        keys which have failed since their last success.
//
// Everything here is deterministic: a retry loop is a pure function of the
// callable's outcomes, and the breaker's open->half-open cooldown counts
// rejected probes instead of reading a wall clock, so test scripts replay
// bit-for-bit.

#ifndef TASTE_COMMON_RETRY_H_
#define TASTE_COMMON_RETRY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "common/deadline.h"
#include "common/status.h"

namespace taste {

/// True for error categories that a retry may fix: I/O hiccups, timeouts,
/// and momentary resource exhaustion. NotFound/Invalid/Unavailable are
/// permanent — retrying cannot conjure a dropped table back.
inline bool IsTransient(const Status& s) {
  switch (s.code()) {
    case StatusCode::kIOError:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kResourceExhausted:
      return true;
    default:
      return false;
  }
}

/// What one RetryCall() did, for resilience accounting.
struct RetryObservation {
  int attempts = 0;            // calls actually made
  int retries = 0;             // attempts - 1
  bool deadline_miss = false;  // a fired cancel token stopped the retries
};

namespace internal {
inline const Status& StatusOf(const Status& s) { return s; }
template <typename T>
const Status& StatusOf(const Result<T>& r) {
  static const Status kOk;  // Result::status() is OK when ok()
  return r.ok() ? kOk : r.status();
}
}  // namespace internal

/// Runs `fn` (returning Status or Result<T>) up to `max_attempts` times
/// (at least once), re-running it at once while it fails with a transient
/// error. Returns the last outcome; fills `obs` when non-null.
///
/// When `cancel` is set, a fired token stops the retry loop: the last
/// error is returned immediately (counted as a deadline miss) instead of
/// burning further attempts on a request whose budget is already gone.
template <typename Fn>
auto RetryCall(int max_attempts, Fn&& fn, RetryObservation* obs = nullptr,
               const CancelToken* cancel = nullptr) -> decltype(fn()) {
  RetryObservation local;
  RetryObservation* o = obs != nullptr ? obs : &local;
  *o = RetryObservation();
  for (int attempt = 1;; ++attempt) {
    ++o->attempts;
    auto outcome = fn();
    const Status& st = internal::StatusOf(outcome);
    if (st.ok() || !IsTransient(st) || attempt >= max_attempts) {
      return outcome;
    }
    if (CancelledNow(cancel)) {
      o->deadline_miss = true;
      return outcome;
    }
    ++o->retries;
  }
}

/// Closed/open/half-open circuit breaker.
///
/// Counts consecutive failures; at `failure_threshold` it opens and rejects
/// calls. After `open_cooldown_rejections` rejected calls it half-opens and
/// admits a single probe: success closes it, failure re-opens it. The
/// cooldown is measured in rejected calls, not wall time, so behaviour is a
/// pure function of the Allow/Record sequence (deterministic under the
/// simulator's virtual clock). Not thread-safe: BreakerRegistry serializes
/// every call.
struct CircuitBreakerOptions {
  int failure_threshold = 3;         // consecutive failures to open
  int open_cooldown_rejections = 4;  // rejections before half-open
};

class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  using Options = CircuitBreakerOptions;

  explicit CircuitBreaker(Options options = Options()) : options_(options) {}

  /// True if the protected call may proceed. In the open state this counts
  /// the rejection toward the cooldown; in half-open it admits exactly one
  /// in-flight probe at a time.
  bool Allow() {
    switch (state_) {
      case State::kClosed:
        return true;
      case State::kOpen:
        ++short_circuits_;
        if (++rejections_ >= options_.open_cooldown_rejections) {
          state_ = State::kHalfOpen;
          probe_in_flight_ = false;
        }
        return false;
      case State::kHalfOpen:
        if (probe_in_flight_) {
          ++short_circuits_;
          return false;
        }
        probe_in_flight_ = true;
        return true;
    }
    return true;
  }

  /// Any success closes the breaker.
  void RecordSuccess() {
    consecutive_failures_ = 0;
    probe_in_flight_ = false;
    state_ = State::kClosed;
  }

  void RecordFailure() {
    probe_in_flight_ = false;
    if (state_ == State::kHalfOpen) {
      Trip();
      return;
    }
    if (state_ == State::kClosed &&
        ++consecutive_failures_ >= options_.failure_threshold) {
      Trip();
    }
  }

  State state() const { return state_; }
  /// Times the breaker transitioned into the open state.
  int64_t trips() const { return trips_; }
  /// Calls rejected without reaching the protected resource.
  int64_t short_circuits() const { return short_circuits_; }

 private:
  void Trip() {
    state_ = State::kOpen;
    consecutive_failures_ = 0;
    rejections_ = 0;
    ++trips_;
  }

  const Options options_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int rejections_ = 0;
  bool probe_in_flight_ = false;
  int64_t trips_ = 0;
  int64_t short_circuits_ = 0;
};

/// Thread-safe breakers keyed by route (table name, connection id).
///
/// A key is held only while its breaker has failures to remember: a key
/// with no entry is a fresh closed breaker, and a success (which always
/// closes a breaker) erases the entry. So a process that serves many
/// distinct healthy tables keeps no breaker for any of them. No breaker
/// pointer leaves the registry; every call runs under its mutex.
class BreakerRegistry {
 public:
  explicit BreakerRegistry(
      CircuitBreaker::Options options = CircuitBreaker::Options())
      : options_(options) {}

  /// CircuitBreaker::Allow() of `key`'s breaker.
  bool Allow(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = breakers_.find(key);
    if (it == breakers_.end() || it->second.Allow()) return true;
    ++short_circuits_;
    return false;
  }

  void RecordSuccess(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    breakers_.erase(key);
  }

  void RecordFailure(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    CircuitBreaker& b = breakers_.try_emplace(key, options_).first->second;
    const int64_t trips_before = b.trips();
    b.RecordFailure();
    trips_ += b.trips() - trips_before;
  }

  /// Breakers currently held (keys that failed since their last success).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return breakers_.size();
  }
  /// Trips and short circuits over the registry's lifetime (monotonic,
  /// including those of erased breakers).
  int64_t TotalTrips() const {
    std::lock_guard<std::mutex> lock(mu_);
    return trips_;
  }
  int64_t TotalShortCircuits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return short_circuits_;
  }

 private:
  const CircuitBreaker::Options options_;
  mutable std::mutex mu_;
  std::map<std::string, CircuitBreaker> breakers_;
  int64_t trips_ = 0;
  int64_t short_circuits_ = 0;
};

}  // namespace taste

#endif  // TASTE_COMMON_RETRY_H_
