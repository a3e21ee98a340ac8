// Analytic cost model of one P2 content-tower forward.
//
// The serving router (serve/router.h) needs one throughput judgment it
// cannot make from its own state: how long a replica leg carrying a given
// number of content tokens should take, so that a leg still outstanding
// well past that is presumed gray-failed and hedged. That reduces to a
// linear model of one forward's wall time:
//
//   ms(forward) = overhead_ms + ms_per_token * content_tokens
//
// Per-op dispatch, panel packing and buffer churn are paid per forward;
// the projections, FFN and classifier GEMMs grow with the tokens. The
// router re-fits the parameters from its own observed legs (Calibrate).
//
// The model deliberately predicts SERVING cost, not GEMM FLOPs: it is
// calibrated on end-to-end forward timings, so cache effects and op
// dispatch are priced in.

#ifndef TASTE_CORE_COST_MODEL_H_
#define TASTE_CORE_COST_MODEL_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace taste::core {

class P2CostModel {
 public:
  struct Params {
    /// Fixed cost of one forward: op dispatch, B-panel packing,
    /// activation-buffer acquisition.
    double overhead_ms = 0.05;
    /// Marginal cost per content token.
    double ms_per_token = 0.012;
    /// Multiplicative tail inflation turning the mean estimate into a
    /// p99-flavoured one. Serving wall times are right-skewed (allocator
    /// churn, scheduler preemption, cold caches), but not unboundedly so:
    /// p99/mean stays under ~3x on the bench's serving runs, so 4x keeps
    /// headroom without tolerating order-of-magnitude stragglers.
    double tail_p99_factor = 4.0;
  };

  P2CostModel() = default;
  explicit P2CostModel(Params params) : params_(params) {}

  /// Predicted wall time of forwarding `total_tokens` content tokens.
  double EstimateBatchMs(int64_t total_tokens) const {
    return params_.overhead_ms +
           params_.ms_per_token * static_cast<double>(total_tokens);
  }

  /// Pessimistic (p99-flavoured) wall-time estimate of the same forward:
  /// the linear estimate inflated by tail_p99_factor. This is the serving
  /// router's straggler verdict — a leg still outstanding past
  /// EstimateP99Ms × hedge multiplier is presumed gray-failed (wedged,
  /// SIGSTOPped, or drip-writing) and hedged to the ring successor.
  double EstimateP99Ms(int64_t total_tokens) const {
    return params_.tail_p99_factor * EstimateBatchMs(total_tokens);
  }

  /// Least-squares fit of (total_tokens, measured_ms) samples onto the
  /// linear model. Returns false (keeping the current parameters) when the
  /// system is degenerate: fewer than two samples, no token-count spread,
  /// or a fit with a non-positive slope — timing noise on a sweep too
  /// narrow to resolve the marginal cost must not poison scheduling.
  bool Calibrate(const std::vector<std::pair<int64_t, double>>& samples);

  const Params& params() const { return params_; }

 private:
  Params params_;
};

}  // namespace taste::core

#endif  // TASTE_CORE_COST_MODEL_H_
