#include "core/cost_model.h"

#include <algorithm>

namespace taste::core {

bool P2CostModel::Calibrate(
    const std::vector<std::pair<int64_t, double>>& samples) {
  if (samples.size() < 2) return false;
  // Ordinary least squares for ms = a + b * tokens.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = static_cast<double>(samples.size());
  for (const auto& [tokens, ms] : samples) {
    const double x = static_cast<double>(tokens);
    sx += x;
    sy += ms;
    sxx += x * x;
    sxy += x * ms;
  }
  const double det = n * sxx - sx * sx;
  if (det <= 0.0) return false;  // no spread in token counts
  const double b = (n * sxy - sx * sy) / det;
  const double a = (sy - b * sx) / n;
  if (b <= 0.0) return false;  // noise fit; keep the current parameters
  params_.ms_per_token = b;
  // A negative intercept means the sweep's smallest batch already hides the
  // fixed cost inside its token term; clamp at zero rather than carrying a
  // nonsensical "negative overhead" into scheduling decisions.
  params_.overhead_ms = std::max(0.0, a);
  return true;
}

}  // namespace taste::core
