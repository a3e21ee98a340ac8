// Order statistics for the benchmark's reported timings.

#ifndef TASTE_PERFBENCH_STATS_H_
#define TASTE_PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

namespace taste::perfbench {

/// Samples a percentile must leave above it before it is reported: a p90
/// read off 20 samples rests on two values and says nothing about the tail.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile `p` in (0, 1) of `samples`, or nullopt when
/// fewer than kMinSamplesBeyond samples lie strictly beyond its rank.
inline std::optional<double> Percentile(std::vector<double> samples,
                                        double p) {
  if (samples.empty() || !(p > 0.0 && p < 1.0)) return std::nullopt;
  const size_t n = samples.size();
  const size_t rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));  // 1-based
  if (rank < 1 || n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Median of a non-empty sample (mean of the middle pair when even).
inline double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

}  // namespace taste::perfbench

#endif  // TASTE_PERFBENCH_STATS_H_
